//! Transparent wrappers around the simulator's extension traits, installed
//! only on the traced path (never in a timed repetition): a
//! [`QosPolicy`]/[`RouterQos`] pair, a [`PacketGenerator`] and a counting
//! [`TraceSink`]. Each forwards every call, defaulted methods
//! included, unchanged to the wrapped object and records a call count and an
//! estimate of the time spent per function.
//!
//! The hot functions run millions of times per run (about 6.5M `generate`
//! calls per 100k cycles on the 8×8 mesh), so recording one span per call
//! would cost more than the call. Instead every call is counted and one call
//! in `SAMPLE_STRIDE` (64) is timed; the total is estimated as the mean sampled
//! time times the call count.

use crate::clock::Stopwatch;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use taqos_netsim::packet::{GeneratedPacket, PacketGenerator};
use taqos_netsim::qos::{QosPolicy, RouterQos};
use taqos_netsim::spec::RouterSpec;
use taqos_netsim::{Cycle, FlowId, PacketId, TraceEvent, TraceSink};

/// One call in this many is timed.
const SAMPLE_STRIDE: u64 = 64;

/// Adds `by` to a counter with a plain load and store. Correct because a
/// network, and with it every wrapper sharing a [`Probes`], is stepped by
/// one thread at a time; it avoids a locked read-modify-write per call.
#[inline]
fn add(counter: &AtomicU64, by: u64) -> u64 {
    let value = counter.load(Ordering::Relaxed) + by;
    counter.store(value, Ordering::Relaxed);
    value
}

/// Median host time of timing an empty call, in nanoseconds; measured once.
fn timer_overhead_ns() -> f64 {
    static OVERHEAD: OnceLock<f64> = OnceLock::new();
    *OVERHEAD.get_or_init(|| {
        let mut samples: Vec<u64> = (0..10_001)
            .map(|_| {
                let start = Stopwatch::start();
                std::hint::black_box(());
                start.elapsed_ns()
            })
            .collect();
        samples.sort_unstable();
        samples[samples.len() / 2] as f64
    })
}

/// Call count and sampled time of one function.
#[derive(Debug, Default)]
pub struct Probe {
    calls: AtomicU64,
    timed_calls: AtomicU64,
    timed_ns: AtomicU64,
}

impl Probe {
    /// Runs `f`, counting the call and timing one call in `SAMPLE_STRIDE`.
    #[inline]
    pub fn call<T>(&self, f: impl FnOnce() -> T) -> T {
        if !add(&self.calls, 1).is_multiple_of(SAMPLE_STRIDE) {
            return f();
        }
        let start = Stopwatch::start();
        let out = f();
        add(&self.timed_ns, start.elapsed_ns());
        add(&self.timed_calls, 1);
        out
    }

    /// Calls made so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Estimated total nanoseconds spent in the function: the mean sampled
    /// time, less the cost of reading the clock, times the call count.
    pub fn estimated_ns(&self) -> f64 {
        let timed = self.timed_calls.load(Ordering::Relaxed);
        if timed == 0 {
            return 0.0;
        }
        let sampled = self.timed_ns.load(Ordering::Relaxed) as f64;
        let per_call = (sampled / timed as f64 - timer_overhead_ns()).max(0.0);
        per_call * self.calls() as f64
    }
}

/// Every probe of one traced network.
#[derive(Debug, Default)]
pub struct Probes {
    /// `RouterQos::priority`.
    pub priority: Probe,
    /// `RouterQos::on_packet_forwarded`.
    pub forward: Probe,
    /// `RouterQos::on_frame_rollover`.
    pub rollover: Probe,
    /// `RouterQos::select_victim` and `select_victim_prioritized`.
    pub victim: Probe,
    /// `PacketGenerator::generate`.
    pub generate: Probe,
    /// Packets returned by `generate`.
    generated: AtomicU64,
    /// `TraceSink::record`.
    pub trace: Probe,
}

impl Probes {
    /// Estimated nanoseconds spent in the QOS layer.
    pub fn qos_ns(&self) -> f64 {
        self.priority.estimated_ns()
            + self.forward.estimated_ns()
            + self.rollover.estimated_ns()
            + self.victim.estimated_ns()
    }

    /// Packets the generators produced.
    pub fn generated(&self) -> u64 {
        self.generated.load(Ordering::Relaxed)
    }
}

/// A [`QosPolicy`] whose per-router states are [`CountingRouterQos`].
pub struct CountingPolicy<P> {
    inner: P,
    probes: Arc<Probes>,
}

impl<P: QosPolicy> CountingPolicy<P> {
    /// Wraps `inner`, recording into `probes`.
    pub fn new(inner: P, probes: Arc<Probes>) -> Self {
        CountingPolicy { inner, probes }
    }
}

impl<P: QosPolicy> QosPolicy for CountingPolicy<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn router_qos(&self, spec: &RouterSpec, num_flows: usize) -> Box<dyn RouterQos> {
        Box::new(CountingRouterQos {
            inner: self.inner.router_qos(spec, num_flows),
            probes: Arc::clone(&self.probes),
        })
    }

    fn frame_len(&self) -> Option<Cycle> {
        self.inner.frame_len()
    }

    fn preemption_enabled(&self) -> bool {
        self.inner.preemption_enabled()
    }

    fn reserved_quota(&self, flow: FlowId) -> Option<u64> {
        self.inner.reserved_quota(flow)
    }

    fn unlimited_buffering(&self) -> bool {
        self.inner.unlimited_buffering()
    }

    fn reprogram_rates(&mut self, rates: &[f64]) {
        self.inner.reprogram_rates(rates);
    }
}

/// A [`RouterQos`] that counts and samples every call into the wrapped state.
pub struct CountingRouterQos {
    inner: Box<dyn RouterQos>,
    probes: Arc<Probes>,
}

impl RouterQos for CountingRouterQos {
    fn priority(&self, flow: FlowId) -> u64 {
        self.probes.priority.call(|| self.inner.priority(flow))
    }

    fn on_packet_forwarded(&mut self, flow: FlowId, flits: u32) {
        let inner = &mut self.inner;
        self.probes
            .forward
            .call(|| inner.on_packet_forwarded(flow, flits));
    }

    fn on_frame_rollover(&mut self) {
        let inner = &mut self.inner;
        self.probes.rollover.call(|| inner.on_frame_rollover());
    }

    fn select_victim(
        &self,
        contender: FlowId,
        candidates: &[(PacketId, FlowId, bool)],
    ) -> Option<PacketId> {
        self.probes
            .victim
            .call(|| self.inner.select_victim(contender, candidates))
    }

    // Forwarded explicitly: the trait's default would rebuild the candidate
    // list and call `select_victim`, changing both the cost and the path.
    fn select_victim_prioritized(
        &self,
        contender: FlowId,
        contender_priority: u64,
        candidates: &[(PacketId, FlowId, bool, u64)],
    ) -> Option<PacketId> {
        self.probes.victim.call(|| {
            self.inner
                .select_victim_prioritized(contender, contender_priority, candidates)
        })
    }

    fn reprogram_rates(&mut self, rates: &[f64]) {
        self.inner.reprogram_rates(rates);
    }
}

/// A [`PacketGenerator`] that counts calls and generated packets.
pub struct CountingGenerator {
    inner: Box<dyn PacketGenerator>,
    probes: Arc<Probes>,
}

impl PacketGenerator for CountingGenerator {
    fn generate(&mut self, now: Cycle) -> Option<GeneratedPacket> {
        let inner = &mut self.inner;
        let packet = self.probes.generate.call(|| inner.generate(now));
        if packet.is_some() {
            add(&self.probes.generated, 1);
        }
        packet
    }

    fn exhausted(&self) -> bool {
        self.inner.exhausted()
    }
}

/// Wraps every generator of a set in a [`CountingGenerator`].
pub fn counting_generators(
    generators: Vec<Box<dyn PacketGenerator>>,
    probes: &Arc<Probes>,
) -> Vec<Box<dyn PacketGenerator>> {
    generators
        .into_iter()
        .map(|inner| {
            Box::new(CountingGenerator {
                inner,
                probes: Arc::clone(probes),
            }) as Box<dyn PacketGenerator>
        })
        .collect()
}

/// A [`TraceSink`] that counts the events it receives and keeps nothing.
pub struct CountingSink {
    probes: Arc<Probes>,
}

impl CountingSink {
    /// A sink recording into `probes`.
    pub fn new(probes: Arc<Probes>) -> Self {
        CountingSink { probes }
    }
}

impl TraceSink for CountingSink {
    fn record(&mut self, event: &TraceEvent) {
        self.probes
            .trace
            .call(|| std::hint::black_box(event.cycle()));
    }

    fn finish(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}
