//! The timed run, the traced run and the correctness checks.

use crate::alloc;
use crate::clock::Stopwatch;
use crate::host::{HostNoise, HostStart};
use crate::metrics::{percentile, Metric, Outcome, END_TO_END, PER_LAYER};
use crate::spans::Spans;
use crate::workload::{Shape, Workload};
use crate::wrap::Probes;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use taqos_netsim::config::EngineKind;
use taqos_netsim::network::Network;
use taqos_netsim::stats::NetStats;
use taqos_netsim::{Hist64, SimConfig, TelemetryConfig};

/// Before each timed repetition, set-up alone is repeated at least
/// [`SETUP_BATCH_REPS`] times and for at least [`SETUP_BATCH_S`] seconds;
/// `setup_s` is the fastest of all of them.
const SETUP_BATCH_REPS: usize = 8;
const SETUP_BATCH_S: f64 = 0.06;
/// Timed repetitions per run, at least.
const MIN_REPS: usize = 3;
/// The traced run samples at most this many frames, each at least
/// [`TRACE_MIN_FRAME_LEN`] cycles long.
const TRACE_FRAMES: u64 = 256;
const TRACE_MIN_FRAME_LEN: u64 = 1_000;

/// Counts runs and failures. A run is one timed repetition, one batch of
/// set-ups or one correctness check; it fails when it panics, returns an
/// error from the simulator or fails a check.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Runs attempted.
    pub attempted: u64,
    /// Failure descriptions, one per failed run.
    pub failures: Vec<String>,
}

impl Ledger {
    /// Runs `f` as one attempt; returns its value if it succeeded.
    pub fn attempt<T>(&mut self, what: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        let failure = match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(value)) => return Some(value),
            Ok(Err(message)) => message,
            Err(panic) => panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic".to_string()),
        };
        eprintln!("FAILED {what}: {failure}");
        self.failures.push(format!("{what}: {failure}"));
        None
    }

    /// Failed runs.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Failed runs ÷ attempted runs.
    pub fn failure_share(&self) -> f64 {
        self.failed() as f64 / self.attempted.max(1) as f64
    }
}

/// Engine counters read at the start and end of the measured cycles.
#[derive(Debug, Clone, Copy)]
struct Counters {
    flits: u64,
    link_flit_hops: u64,
    buffer_writes: u64,
    xbar_flits: u64,
    alloc_calls: u64,
}

impl Counters {
    fn read(network: &Network) -> Self {
        let stats = network.stats();
        Counters {
            flits: stats.delivered_flits,
            link_flit_hops: stats.energy.link_flit_hops,
            buffer_writes: stats.energy.buffer_writes,
            xbar_flits: stats.energy.xbar_flits,
            alloc_calls: alloc::snapshot().calls,
        }
    }

    fn since(self, start: Counters) -> Counters {
        Counters {
            flits: self.flits - start.flits,
            link_flit_hops: self.link_flit_hops - start.link_flit_hops,
            buffer_writes: self.buffer_writes - start.buffer_writes,
            xbar_flits: self.xbar_flits - start.xbar_flits,
            alloc_calls: self.alloc_calls - start.alloc_calls,
        }
    }
}

/// What one repetition measured.
#[derive(Debug, Clone)]
struct Rep {
    /// Allocation calls during set-up.
    setup_allocs: u64,
    /// Host nanoseconds of each timed window.
    window_ns: Vec<u64>,
    /// Cycles measured (after warm-up).
    measured_cycles: u64,
    /// Counters over the measured cycles.
    measured: Counters,
    /// Peak live heap during set-up and run, bytes above the live heap at
    /// the start of set-up.
    peak_heap_bytes: u64,
    /// Highest live-packet count seen at a window boundary.
    live_packets_max: usize,
    /// Routers in the network.
    routers: usize,
    /// Final statistics.
    stats: NetStats,
}

impl Rep {
    /// Host seconds of the measured cycles.
    fn measured_s(&self) -> f64 {
        self.window_ns.iter().sum::<u64>() as f64 * 1e-9
    }
}

/// Runs warm-up and then the measured cycles window by window, recording a
/// span per window when `spans` is given. The caller allocates `window_ns`
/// so the benchmark's own buffers stay out of the measured heap.
fn simulate(
    workload: Workload,
    network: &mut Network,
    shape: Shape,
    window_ns: &mut Vec<u64>,
    live_max: &mut usize,
    mut spans: Option<&mut Spans>,
) -> Result<(u64, Counters), String> {
    network.run_for(shape.warmup);
    let start = Counters::read(network);
    let mut measured = 0;
    while measured < shape.measure {
        if let Some(spans) = spans.as_deref_mut() {
            spans.enter("netsim.run_for");
        }
        let t = Stopwatch::start();
        network.run_for(shape.window);
        window_ns.push(t.elapsed_ns());
        if let Some(spans) = spans.as_deref_mut() {
            spans.exit();
        }
        measured += shape.window;
        *live_max = (*live_max).max(network.live_packets());
        if shape.to_completion && network.is_quiescent() {
            break;
        }
    }
    if shape.to_completion && !network.is_quiescent() {
        return Err(format!(
            "{} did not complete within {} cycles",
            workload.name(),
            shape.measure
        ));
    }
    Ok((measured, Counters::read(network).since(start)))
}

fn window_capacity(shape: Shape) -> usize {
    (shape.measure / shape.window) as usize + 1
}

/// One repetition on the production path with telemetry off: set-up, then
/// warm-up and the measured cycles.
///
/// # Errors
///
/// Returns a description of a construction error or a failed mechanism
/// check.
fn timed_rep(workload: Workload, seed: u64) -> Result<Rep, String> {
    let shape = workload.shape();
    let mut window_ns = Vec::with_capacity(window_capacity(shape));
    let mut live_packets_max = 0;
    alloc::reset_peak();
    let heap_start = alloc::snapshot();
    let mut network = workload
        .build(seed, SimConfig::default())
        .map_err(|e| e.to_string())?;
    let setup_allocs = alloc::snapshot().calls - heap_start.calls;
    let (measured_cycles, measured) = simulate(
        workload,
        &mut network,
        shape,
        &mut window_ns,
        &mut live_packets_max,
        None,
    )?;
    let peak_heap_bytes = alloc::snapshot().peak - heap_start.live;
    let routers = network.spec().routers.len();
    let stats = network.into_stats();
    workload.check_mechanism(&stats)?;
    Ok(Rep {
        setup_allocs,
        window_ns,
        measured_cycles,
        measured,
        peak_heap_bytes,
        live_packets_max,
        routers,
        stats,
    })
}

/// Each window's fastest host time over the repetitions, in nanoseconds.
/// Every repetition simulates the same windows (the timed run checks that
/// their statistics are identical), so a window's fastest time is the least
/// the host's other tenants slowed it.
pub fn fastest_windows<'a>(reps: impl IntoIterator<Item = &'a [u64]>) -> Vec<u64> {
    let mut reps = reps.into_iter();
    let mut fastest = reps.next().map_or_else(Vec::new, <[u64]>::to_vec);
    for rep in reps {
        for (best, &ns) in fastest.iter_mut().zip(rep) {
            *best = (*best).min(ns);
        }
    }
    fastest
}

/// Builds through the production path and discards the network; returns the
/// set-up time in seconds.
fn setup_only(workload: Workload, seed: u64) -> Result<f64, String> {
    let t = Stopwatch::start();
    let network = workload
        .build(seed, SimConfig::default())
        .map_err(|e| e.to_string())?;
    let setup_s = t.elapsed_s();
    drop(network);
    Ok(setup_s)
}

/// `stats` without the telemetry payload (histograms and frames), which
/// only an instrumented run records.
pub fn without_telemetry(mut stats: NetStats) -> NetStats {
    stats.histograms_enabled = false;
    stats.latency_hist = Hist64::new();
    stats.rt_hist = Hist64::new();
    stats.frames = None;
    for flow in &mut stats.flows {
        flow.latency_hist = Hist64::new();
        flow.rt_hist = Hist64::new();
    }
    stats
}

fn run_prefix(mut network: Network, cycles: u64) -> NetStats {
    network.run_for(cycles);
    network.into_stats()
}

/// The traced network with its probes and spans.
pub struct Traced {
    /// Statistics of the traced run, telemetry payload included.
    pub stats: NetStats,
    /// Per-function counts and sampled times.
    pub probes: Arc<Probes>,
    /// Set-up stage and window spans.
    pub spans: Spans,
    /// Host seconds of the measured cycles.
    pub measured_s: f64,
}

fn traced_telemetry(horizon: u64) -> TelemetryConfig {
    TelemetryConfig::off()
        .with_histograms(true)
        .with_frames((horizon / TRACE_FRAMES).max(TRACE_MIN_FRAME_LEN))
        .with_max_frames(TRACE_FRAMES as usize + 1)
}

/// One repetition on the traced path: counting wrappers, a counting trace
/// sink, histograms and frames on, and spans around set-up stages and
/// windows. `shape` may shorten the run (the checks use a prefix).
///
/// # Errors
///
/// Returns a description of a construction or completion error.
pub fn traced_rep(workload: Workload, seed: u64, shape: Shape) -> Result<Traced, String> {
    let probes = Arc::new(Probes::default());
    let mut spans = Spans::default();
    spans.reserve(2 * window_capacity(shape) + 16);
    let mut window_ns = Vec::with_capacity(window_capacity(shape));
    let mut live_max = 0;
    spans.enter("setup");
    let mut network = workload
        .build_traced(seed, traced_telemetry(shape.horizon()), &probes, &mut spans)
        .map_err(|e| e.to_string())?;
    spans.exit();
    spans.enter("run");
    simulate(
        workload,
        &mut network,
        shape,
        &mut window_ns,
        &mut live_max,
        Some(&mut spans),
    )?;
    spans.exit();
    let measured_s = window_ns.iter().sum::<u64>() as f64 * 1e-9;
    Ok(Traced {
        stats: network.into_stats(),
        probes,
        spans,
        measured_s,
    })
}

/// The correctness checks on a prefix of the workload: the traced path and
/// the reference engine must both reproduce the production path's
/// statistics exactly. Each comparison is one attempt in `ledger`.
pub fn check_prefix(workload: Workload, seed: u64, ledger: &mut Ledger) {
    let prefix = Shape {
        warmup: 0,
        measure: workload.shape().check_prefix,
        window: workload.shape().check_prefix,
        to_completion: false,
        ..workload.shape()
    };
    let Some(optimized) = ledger.attempt("optimized prefix", || {
        let network = workload
            .build(seed, SimConfig::default())
            .map_err(|e| e.to_string())?;
        Ok(run_prefix(network, prefix.measure))
    }) else {
        return;
    };
    ledger.attempt("traced prefix equals untraced", || {
        let traced = traced_rep(workload, seed, prefix)?;
        if without_telemetry(traced.stats) == optimized {
            Ok(())
        } else {
            Err("traced statistics differ from the untraced run".to_string())
        }
    });
    ledger.attempt("reference engine prefix equals optimized", || {
        let config = SimConfig::default().with_engine(EngineKind::Reference);
        let network = workload.build(seed, config).map_err(|e| e.to_string())?;
        if run_prefix(network, prefix.measure) == optimized {
            Ok(())
        } else {
            Err("reference-engine statistics differ from the optimized engine".to_string())
        }
    });
}

/// A timed invocation's result: the outcome plus what to print beside it.
pub struct TimedReport {
    /// Metrics and run counts.
    pub outcome: Outcome,
    /// Host-noise diagnostics.
    pub host: HostNoise,
    /// Timed repetitions that succeeded.
    pub reps: usize,
    /// Set-ups that succeeded.
    pub setups: usize,
    /// Cycles per second over the repetitions' mean host time.
    pub mean_cycles_per_s: f64,
    /// Cycles per second of each timed repetition, in run order.
    pub rep_rates: Vec<f64>,
}

/// The timed run (`--trace 0`): the prefix checks, then timed repetitions,
/// each preceded by a batch of set-ups, until `seconds` have passed. Every
/// repetition must reproduce the first one's statistics exactly. `setup_s`
/// is the fastest set-up and the rates use each window's fastest time: the
/// host's other tenants slow it by up to 2x for seconds at a time, which a
/// mean or median over a run does not cancel.
pub fn timed(workload: Workload, seed: u64, seconds: u64) -> TimedReport {
    let host_start = HostStart::now();
    let mut ledger = Ledger::default();

    check_prefix(workload, seed, &mut ledger);

    // Set-up batches interleave with the timed repetitions, so the fastest
    // set-up and the fastest windows are sought across the whole run.
    let mut fastest_setup = f64::INFINITY;
    let mut setups = 0;
    let mut reps: Vec<Rep> = Vec::new();
    let start = Stopwatch::start();
    while reps.len() < MIN_REPS || start.elapsed_s() < seconds as f64 {
        let batch = ledger.attempt("set-up batch", || {
            let start = Stopwatch::start();
            let mut batch = Vec::new();
            while batch.len() < SETUP_BATCH_REPS || start.elapsed_s() < SETUP_BATCH_S {
                batch.push(setup_only(workload, seed)?);
            }
            Ok(batch)
        });
        if let Some(batch) = batch {
            setups += batch.len();
            fastest_setup = batch.into_iter().fold(fastest_setup, f64::min);
        }
        let first = reps.first().map(|r| &r.stats);
        let rep = ledger.attempt("timed repetition", || {
            let rep = timed_rep(workload, seed)?;
            match first {
                Some(first) if *first != rep.stats => {
                    Err("repetition statistics differ from the first repetition's".to_string())
                }
                _ => Ok(rep),
            }
        });
        match rep {
            Some(rep) => reps.push(rep),
            None => break,
        }
    }

    // Every repetition simulates the same cycles, so the rates divide one
    // repetition's cycles and flits by the sum of each window's fastest time.
    let fastest_s = fastest_windows(reps.iter().map(|r| r.window_ns.as_slice()))
        .iter()
        .sum::<u64>() as f64
        * 1e-9;
    let mean_s = reps.iter().map(Rep::measured_s).sum::<f64>() / reps.len().max(1) as f64;
    let (cycles, flits) = reps.first().map_or((0.0, 0.0), |r| {
        (r.measured_cycles as f64, r.measured.flits as f64)
    });
    let values: [f64; END_TO_END.len()] = [
        if setups == 0 { 0.0 } else { fastest_setup },
        ratio(cycles, fastest_s),
        ratio(flits, fastest_s),
        reps.iter().map(|r| r.peak_heap_bytes).max().unwrap_or(0) as f64 / (1024.0 * 1024.0),
        1.0 - ledger.failure_share(),
    ];
    TimedReport {
        outcome: outcome(&ledger, END_TO_END, &values),
        host: host_start.finish(),
        reps: reps.len(),
        setups,
        mean_cycles_per_s: ratio(cycles, mean_s),
        rep_rates: reps
            .iter()
            .map(|r| r.measured_cycles as f64 / r.measured_s())
            .collect(),
    }
}

fn outcome(ledger: &Ledger, metrics: &[Metric], values: &[f64]) -> Outcome {
    Outcome {
        correct: ledger.failures.is_empty(),
        attempted: ledger.attempted,
        failed: ledger.failed(),
        metrics: metrics
            .iter()
            .copied()
            .zip(values.iter().copied())
            .collect(),
    }
}

/// A traced invocation's result.
pub struct TracedReport {
    /// Per-layer metrics and run counts.
    pub outcome: Outcome,
    /// Spans of the traced repetition.
    pub spans: Spans,
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// The traced run (`--trace 1`): one untraced repetition (the timing
/// baseline), one traced repetition of the same length whose statistics
/// must equal it, and the prefix checks.
pub fn traced(workload: Workload, seed: u64) -> TracedReport {
    let host_start = HostStart::now();
    let mut ledger = Ledger::default();
    let shape = workload.shape();
    let base = ledger.attempt("untraced repetition", || timed_rep(workload, seed));
    let trace = ledger.attempt("traced repetition", || {
        let traced = traced_rep(workload, seed, shape)?;
        match &base {
            Some(base) if without_telemetry(traced.stats.clone()) != base.stats => {
                Err("traced statistics differ from the untraced run".to_string())
            }
            _ => Ok(traced),
        }
    });
    check_prefix(workload, seed, &mut ledger);
    let host = host_start.finish();

    let (Some(base), Some(trace)) = (base, trace) else {
        let zeros = vec![0.0; PER_LAYER.len()];
        return TracedReport {
            outcome: outcome(&ledger, PER_LAYER, &zeros),
            spans: Spans::default(),
        };
    };
    let stats = &base.stats;
    let probes = &trace.probes;
    let cycles = base.measured_cycles as f64;
    let wall_ns = base.measured_s() * 1e9;
    let window_ns_per_cycle: Vec<f64> = base
        .window_ns
        .iter()
        .map(|&ns| ns as f64 / shape.window as f64)
        .collect();
    let sum = |f: &dyn Fn(&taqos_netsim::FlowStats) -> u64| stats.flows.iter().map(f).sum::<u64>();
    let rt = |pct| trace.stats.rt_hist.percentile(pct).unwrap_or(0) as f64;
    let victim_rt_p99 = workload
        .victim()
        .and_then(|v| trace.stats.flows[v.index()].rt_hist.percentile(99))
        .unwrap_or(0) as f64;
    let dram = &stats.dram;
    let bank_cycles = workload.dram_banks() as f64 * stats.cycles as f64;
    let values: [f64; PER_LAYER.len()] = [
        trace.spans.total_s("topology.spec_build"),
        trace.spans.total_s("traffic.plan_build"),
        trace.spans.total_s("netsim.network_build"),
        base.setup_allocs as f64,
        probes.generate.calls() as f64,
        probes.generated() as f64,
        ratio(probes.generated() as f64, probes.generate.calls() as f64),
        probes.generate.estimated_ns(),
        probes.priority.calls() as f64,
        probes.forward.calls() as f64,
        ratio(
            probes.priority.calls() as f64,
            probes.forward.calls() as f64,
        ),
        probes.rollover.calls() as f64,
        probes.victim.calls() as f64,
        probes.qos_ns(),
        stats.preemption_events as f64,
        stats.wasted_hop_fraction(),
        percentile(&window_ns_per_cycle, 50.0),
        percentile(&window_ns_per_cycle, 99.0),
        base.window_ns.len() as f64,
        ratio(wall_ns, cycles * base.routers as f64),
        ratio(wall_ns, base.measured.link_flit_hops as f64),
        ratio(base.measured.buffer_writes as f64, cycles),
        ratio(base.measured.xbar_flits as f64, cycles),
        ratio(base.measured.flits as f64, cycles),
        ratio(base.measured.alloc_calls as f64 * 1e6, cycles),
        base.live_packets_max as f64,
        stats.round_trips as f64,
        rt(50),
        rt(99),
        victim_rt_p99,
        sum(&|f| f.request_timeouts) as f64,
        sum(&|f| f.request_retries) as f64,
        sum(&|f| f.abandoned_requests) as f64,
        dram.serviced_requests as f64,
        ratio(dram.row_hits as f64, dram.serviced_requests as f64),
        ratio(dram.queue_wait_sum as f64, dram.serviced_requests as f64),
        ratio(dram.bank_busy_cycles as f64, bank_cycles),
        dram.rejected_requests as f64,
        stats.fault.total_drops() as f64,
        stats.fault.mc_outage_rejections as f64,
        sum(&|f| f.retransmissions) as f64,
        probes.trace.calls() as f64,
        probes.trace.estimated_ns(),
        ratio(trace.measured_s, base.measured_s()),
        host.runq_wait_ms,
        host.probe_ns,
    ];
    TracedReport {
        outcome: outcome(&ledger, PER_LAYER, &values),
        spans: trace.spans,
    }
}
