//! The cycle-stepped network simulator.
//!
//! [`Network`] instantiates runtime state from a [`NetworkSpec`], a
//! [`QosPolicy`] and one traffic generator per source, and advances the whole
//! network one cycle at a time. Each cycle proceeds through the following
//! phases:
//!
//! 1. frame rollover (QOS bandwidth counters are flushed),
//! 2. delivery of matured events (flit arrivals, credit returns, ACK/NACK
//!    messages, preemption probes, DRAM bank completions),
//! 3. traffic generation and injection at the sources,
//! 4. route computation for newly arrived packet heads,
//! 5. virtual-channel allocation (arbitration) and preemption probing,
//! 6. flit launches from granted transfers onto the channels.
//!
//! The model implements credit-based virtual cut-through flow control: a
//! packet is granted an output only when a whole-packet buffer (virtual
//! channel) is available downstream; credits are returned when the downstream
//! VC is released. Preemptive QOS policies may discard lower-priority
//! resident packets to resolve priority inversion; discarded packets are
//! NACKed over a dedicated ACK network and retransmitted by their source.

use crate::closed_loop::{
    requester_line, ClosedLoopSpec, ClosedLoopState, DeferredRetry, DramBackpressure, DramRequest,
    DramScheduler, InFlightRequest, StalledRequest,
};
use crate::config::{EngineKind, SimConfig};
use crate::error::SimError;
use crate::event::{Event, EventQueue};
use crate::fault::{FaultPlan, FaultState};
use crate::ids::{Cycle, FlowId, InPortId, NodeId, OutPortId, PacketId, VcId};
use crate::packet::{GeneratedPacket, Packet, PacketClass, PacketGenerator, PacketStore};
use crate::port::{Feeder, TargetCreditState, Transfer};
use crate::qos::{QosPolicy, RouterQos};
use crate::router::{resolve_target_idx, ArbRequest, RouterState};
use crate::sink::SinkState;
use crate::source::{InjectionTransfer, SourceState};
use crate::spec::{NetworkSpec, TargetEndpoint};
use crate::stats::NetStats;
use crate::vc::VcState;
use taqos_telemetry::{FrameSampler, TraceEvent, TraceHook, TraceSink};

#[path = "reference.rs"]
mod reference;

/// What a DRAM-backed controller decided about a packet delivered at a sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DramAdmission {
    /// Not a closed-loop request at a DRAM-modelled controller: the delivery
    /// proceeds exactly as without a DRAM model.
    None,
    /// Admitted to the controller's bounded request queue.
    Accept,
    /// Queue full under a priority-aware scheduler, but the arrival strictly
    /// outranks the lowest-priority queued request: the request at the
    /// carried queue index is evicted (NACKed back to its source) and the
    /// arrival admitted in its place. The index is computed once here, at
    /// the admission decision, and consumed unchanged by the delivery hook.
    AcceptEvict(usize),
    /// Queue full, Stall backpressure: parked in the stall lane, withholding
    /// the ejection-slot credit.
    Stall,
    /// Queue full, Nack backpressure: rejected and retransmitted; the
    /// delivery is not recorded.
    Reject,
}

impl DramAdmission {
    /// Whether the request enters the controller's DRAM pipeline.
    fn enters_pipeline(self) -> bool {
        matches!(
            self,
            DramAdmission::Accept | DramAdmission::AcceptEvict(_) | DramAdmission::Stall
        )
    }
}

/// Starts bank service of `request` on `bank_idx` of controller `mc_node`:
/// charges the page-policy service latency against the bank timeline, records
/// the service, and schedules the completion event. Under a priority-aware
/// scheduler it additionally advances the flow's rate-scaled virtual clock
/// and performs the deferred delivery bookkeeping (the request is recorded
/// delivered and its ACK dispatched now, not at controller admission).
/// Shared by every scheduler flavour so the bank-timeline semantics cannot
/// drift between them.
// taqos-lint: hot
#[allow(clippy::too_many_arguments)]
fn start_dram_service(
    mc: &mut crate::closed_loop::McState,
    bank_idx: usize,
    request: DramRequest,
    dram: &crate::closed_loop::DramConfig,
    weights: &[u64],
    now: Cycle,
    mc_node: usize,
    stats: &mut NetStats,
    events: &mut EventQueue,
    config: &SimConfig,
    flow_to_source: &[usize],
    last_progress: &mut Cycle,
    trace: &mut TraceHook,
) {
    // Entering bank service is forward progress for the watchdog: a run
    // bottlenecked on DRAM can legitimately go many cycles between fabric
    // deliveries.
    *last_progress = now;
    let row = dram.row_of(request.line);
    let bank = &mut mc.banks[bank_idx];
    let (hit, latency) = dram.service_outcome(bank.open_row, row);
    bank.busy_until = now + latency;
    bank.open_row = dram.row_after_service(row);
    bank.in_service = Some(request);
    stats.record_dram_service(request.flow, hit, request.arrived, now, latency);
    trace.emit(|| TraceEvent::DramService {
        cycle: now,
        flow: u64::from(request.flow.0),
        mc: mc_node as u64,
        bank: bank_idx as u64,
        latency,
        row_hit: hit,
    });
    if dram.scheduler.is_priority_aware() {
        let weight = weights.get(request.flow.index()).copied().unwrap_or(1);
        mc.charge(request.flow, latency, weight);
        // Deferred delivery: the request now counts as delivered, and its
        // still-live packet is acknowledged back to its source.
        stats.record_delivery(
            request.flow,
            request.len_flits,
            request.hops,
            request.birth,
            now,
        );
        trace.emit(|| TraceEvent::Deliver {
            cycle: now,
            flow: u64::from(request.flow.0),
            packet: request.packet.0,
            birth: request.birth,
        });
        events.schedule(
            now + config.ack_latency(request.hops),
            Event::Ack {
                source: flow_to_source[request.flow.index()] as u32,
                packet: request.packet,
            },
        );
    }
    events.schedule(
        now + latency,
        Event::DramComplete {
            mc: mc_node as u32,
            bank: bank_idx as u16,
        },
    );
}

/// Returns `qos.priority(flow)`, memoised in the router's priority cache
/// (valid within the router's current priority epoch).
fn cached_priority(router: &mut RouterState, qos: &dyn RouterQos, flow: FlowId) -> u64 {
    let epoch = router.priority_epoch;
    // taqos-lint: allow(panic-index) -- the cache is sized to num_flows at construction and flow ids are validated against it
    let memo = &mut router.priority_cache[flow.index()];
    if memo.epoch == epoch {
        memo.value
    } else {
        let value = qos.priority(flow);
        *memo = crate::router::PriorityMemo { value, epoch };
        value
    }
}

/// Sets router `ri`'s bit in a phase activity mask (see
/// [`Network::routing_work`] for the eager-set / lazy-clear discipline).
#[inline]
fn mark_router(mask: &mut [u64], ri: usize) {
    // taqos-lint: allow(panic-index) -- masks are sized to ceil(routers/64) words and ri is a live router index
    mask[ri >> 6] |= 1 << (ri & 63);
}

/// Clears router `ri`'s bit in a phase activity mask.
#[inline]
fn unmark_router(mask: &mut [u64], ri: usize) {
    // taqos-lint: allow(panic-index) -- masks are sized to ceil(routers/64) words and ri is a live router index
    mask[ri >> 6] &= !(1 << (ri & 63));
}

/// Wakes source `si` for the next source phase (see
/// [`Network::source_wake`]).
// taqos-lint: hot
#[inline]
fn wake_source(wake: &mut [Cycle], si: usize) {
    // taqos-lint: allow(panic-index) -- the wake array holds one slot per source and si is a live source index
    wake[si] = 0;
}

/// Collects the set-bit router indices of an activity mask into `out`
/// (ascending, the order the unmasked scans visit routers in).
#[inline]
fn scan_routers(mask: &[u64], out: &mut Vec<u32>) {
    out.clear();
    for (block, &word) in mask.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            out.push(((block as u32) << 6) | bits.trailing_zeros());
            bits &= bits - 1;
        }
    }
}

/// Schedules the credit of freed VC `vc` of a router input port back to
/// the port's `feeder`, due at `due`.
// taqos-lint: hot
fn return_credit(
    events: &mut EventQueue,
    feeder: Option<Feeder>,
    due: Cycle,
    vc: usize,
    reserved_vc: bool,
) {
    let vc = VcId(vc as u16);
    match feeder {
        Some(Feeder::RouterOutput {
            router,
            out_port,
            target_idx,
        }) => events.schedule(
            due,
            Event::CreditToRouter {
                router: router as u32,
                out_port: out_port as u16,
                target_idx: target_idx as u16,
                vc,
                reserved_vc,
            },
        ),
        Some(Feeder::Source { source }) => events.schedule(
            due,
            Event::CreditToSource {
                source: source as u32,
                vc,
            },
        ),
        None => {}
    }
}

/// Retires the head transfer of output `oi` — completed, or dropped by a
/// fault — and frees the input VC it drained, returning that VC's credit
/// (due at `credit_due`) to whoever feeds the port.
// taqos-lint: hot
fn retire_transfer(
    router: &mut RouterState,
    oi: usize,
    events: &mut EventQueue,
    credit_due: Cycle,
) -> Transfer {
    // taqos-lint: allow(panic-index) -- callers pass an output holding a granted transfer
    let granted = &mut router.outputs[oi].granted;
    let transfer = granted.remove(0);
    if granted.is_empty() {
        if let Some(mask) = router.granted_mask.as_mut() {
            *mask &= !(1 << oi);
        }
    }
    // The grant queue shrank: `can_grant` may flip, so the output's
    // arbitration decision is stale.
    router.mark_output_dirty(oi);
    // taqos-lint: allow(panic-index) -- a transfer's source coordinates were recorded from these vectors at grant
    let port = &mut router.inputs[transfer.from_port.0];
    let from_vc = transfer.from_vc.index();
    // taqos-lint: allow(panic-index) -- same coordinates as the port above
    let vc_state = &mut port.vcs[from_vc];
    let was_reserved_vc = vc_state.reserved_vc();
    vc_state.release();
    port.occupied -= 1;
    router.active_vcs -= 1;
    return_credit(events, port.feeder, credit_due, from_vc, was_reserved_vc);
    transfer
}

/// One output's arbitration: the winner among the requests whose target has
/// a credit — lowest priority, ties broken by round-robin distance from the
/// output's cursor `rr` — and, when none has one, the probe contender: the
/// first blocked request of minimal priority. `eval` gives each request's
/// (priority, has_credit) at this program point, so grants at earlier
/// outputs are already visible. Shared by both engines.
// taqos-lint: hot
#[inline]
fn arbitrate(
    requests: &[ArbRequest],
    rr: usize,
    mut eval: impl FnMut(&ArbRequest) -> (u64, bool),
) -> (Option<usize>, Option<usize>) {
    let n = requests.len();
    // Round-robin distance from the cursor. Equivalent to
    // `(idx + n - rr % n) % n`, with the per-request modulo replaced by a
    // conditional subtract (idx and rr_mod are both below n, so the sum is
    // below 2n).
    let rr_mod = rr % n.max(1);
    let mut winner_idx: Option<usize> = None;
    let mut winner_key = (u64::MAX, usize::MAX);
    let mut blocked_idx: Option<usize> = None;
    let mut blocked_priority = u64::MAX;
    for (idx, req) in requests.iter().enumerate() {
        let (priority, has_credit) = eval(req);
        if has_credit {
            let distance = idx + n - rr_mod;
            let distance = if distance >= n {
                distance - n
            } else {
                distance
            };
            if (priority, distance) < winner_key {
                winner_key = (priority, distance);
                winner_idx = Some(idx);
            }
        } else if blocked_idx.is_none() || priority < blocked_priority {
            blocked_idx = Some(idx);
            blocked_priority = priority;
        }
    }
    (winner_idx, blocked_idx)
}

/// A fully instantiated, steppable network simulation.
pub struct Network {
    spec: NetworkSpec,
    config: SimConfig,
    policy: Box<dyn QosPolicy>,
    routers: Vec<RouterState>,
    sources: Vec<SourceState>,
    sinks: Vec<SinkState>,
    qos: Vec<Box<dyn RouterQos>>,
    packets: PacketStore,
    events: EventQueue,
    stats: NetStats,
    /// Feeder output port of each sink.
    sink_feeders: Vec<Option<Feeder>>,
    /// Source index serving each flow.
    flow_to_source: Vec<usize>,
    frame_len: Option<Cycle>,
    now: Cycle,
    /// Reusable buffer for events drained each cycle.
    event_scratch: Vec<Event>,
    /// Per-phase router activity masks (optimized engine; one bit per
    /// router, 64-router blocks). A bit is set *eagerly* wherever a router
    /// gains the corresponding work — a head flit arrives (`routing_work`,
    /// `alloc_work`) or a transfer is granted (`launch_work`) — and cleared
    /// *lazily* by the owning phase when it visits a router and finds it
    /// idle. Stale-set bits therefore self-heal and no decrement site needs
    /// mask bookkeeping, while each phase scans a handful of contiguous
    /// words instead of touching every `RouterState` to read its activity
    /// counters.
    routing_work: Vec<u64>,
    /// Routers with occupied input VCs (allocation candidates); see
    /// [`Self::routing_work`].
    alloc_work: Vec<u64>,
    /// Routers holding granted transfers; see [`Self::routing_work`].
    launch_work: Vec<u64>,
    /// Reusable buffer of candidate router indices for the masked scans.
    router_scan: Vec<u32>,
    /// Next cycle at which each source has work (optimized engine; the
    /// reference engine visits every source every cycle). The source phase
    /// skips a source while its entry lies in the future. A source with
    /// nothing to inject and no live generator sleeps until its next timed
    /// closed-loop work (phase change, deadline or retry; see
    /// `RequesterState::next_timed_work`), or indefinitely. The five things
    /// that can give a sleeping source work — `CreditToSource`, `Ack` and
    /// `Nack` events, a reply released at its controller, and a reply
    /// delivered to its requester — wake it eagerly by resetting the entry
    /// to 0. A source with a live generator never sleeps.
    source_wake: Vec<Cycle>,
    /// Reusable buffer for preemption victim candidates.
    probe_scratch: Vec<(PacketId, FlowId, bool)>,
    /// The reference engine's reusable request-gather buffer (see
    /// `reference.rs`).
    reference_requests: Vec<ArbRequest>,
    /// Reusable buffer for candidates annotated with cached priorities.
    probe_prioritized_scratch: Vec<(PacketId, FlowId, bool, u64)>,
    /// Whether the policy uses ideal per-flow queuing: downstream VC ids may
    /// then exceed the spec-provisioned count and ports grow on demand.
    unlimited: bool,
    /// Closed-loop request/reply state, if the workload is MLP-limited.
    closed_loop: Option<ClosedLoopState>,
    /// Injected-fault state, if a [`FaultPlan`] was installed.
    fault: Option<FaultState>,
    /// Last cycle at which the network made observable forward progress
    /// (a packet was generated, acknowledged, or entered DRAM service).
    /// Consulted by the livelock watchdog ([`Self::check_progress`]).
    last_progress: Cycle,
    /// Per-frame time-series sampler, present when
    /// [`crate::config::TelemetryConfig::frame_len`] is non-zero.
    sampler: Option<FrameSampler>,
    /// Flit-level trace hook; [`TraceHook::Off`] unless a sink was installed
    /// with [`Self::with_trace_sink`].
    trace: TraceHook,
    /// Active-fault count at the last trace emission, for fault
    /// onset/clearance transition events.
    traced_fault_active: u64,
    /// Scheduled mid-run rate reprogrammings as `(cycle, rates)`, sorted by
    /// cycle (stable: the last-scheduled of equal cycles wins). Each applies
    /// at the first frame rollover at or after its cycle, never mid-frame —
    /// see [`Self::schedule_reprogram`].
    pending_reprograms: Vec<(Cycle, Vec<f64>)>,
    /// Index of the next unapplied entry of [`Self::pending_reprograms`].
    next_reprogram: usize,
}

impl Network {
    /// Builds a simulation from a network specification, a QOS policy, and
    /// one traffic generator per source (in source order).
    ///
    /// # Errors
    ///
    /// Returns an error if the specification fails validation or the number
    /// of generators does not match the number of sources.
    pub fn new(
        spec: NetworkSpec,
        policy: Box<dyn QosPolicy>,
        generators: Vec<Box<dyn PacketGenerator>>,
        config: SimConfig,
    ) -> Result<Self, SimError> {
        spec.validate()?;
        if generators.len() != spec.sources.len() {
            return Err(SimError::Spec(crate::error::SpecError::new(format!(
                "{} generators supplied for {} sources",
                generators.len(),
                spec.sources.len()
            ))));
        }
        let mut flows: Vec<usize> = spec.sources.iter().map(|s| s.flow.index()).collect();
        flows.sort_unstable();
        if flows != (0..spec.sources.len()).collect::<Vec<_>>() {
            return Err(SimError::Spec(crate::error::SpecError::new(
                "source flow identifiers must be dense (0..num_sources)",
            )));
        }

        let unlimited = policy.unlimited_buffering();
        let mut routers: Vec<RouterState> =
            spec.routers.iter().map(RouterState::from_spec).collect();
        for router in &mut routers {
            router.init_priority_cache(spec.num_flows());
        }

        // Fill per-target credit state and feeder back-pointers.
        let mut sink_feeders: Vec<Option<Feeder>> = vec![None; spec.sinks.len()];
        for (ri, rspec) in spec.routers.iter().enumerate() {
            for (oi, ospec) in rspec.outputs.iter().enumerate() {
                for (ti, target) in ospec.targets.iter().enumerate() {
                    let credit = match target.endpoint {
                        TargetEndpoint::Router { router, in_port } => {
                            let dspec = &spec.routers[router].inputs[in_port.0];
                            TargetCreditState::new(
                                dspec.vcs.count - dspec.vcs.reserved,
                                dspec.vcs.reserved,
                                unlimited,
                            )
                        }
                        TargetEndpoint::Sink { sink } => {
                            sink_feeders[sink] = Some(Feeder::RouterOutput {
                                router: ri,
                                out_port: oi,
                                target_idx: ti,
                            });
                            TargetCreditState::new(spec.sinks[sink].slots, 0, false)
                        }
                    };
                    routers[ri].outputs[oi].targets.push(credit);
                }
            }
        }
        // Feeders of router input ports.
        for (ri, rspec) in spec.routers.iter().enumerate() {
            for (oi, ospec) in rspec.outputs.iter().enumerate() {
                for (ti, target) in ospec.targets.iter().enumerate() {
                    if let TargetEndpoint::Router { router, in_port } = target.endpoint {
                        // `validate` admits at most one feeder per port.
                        routers[router].inputs[in_port.0].feeder = Some(Feeder::RouterOutput {
                            router: ri,
                            out_port: oi,
                            target_idx: ti,
                        });
                    }
                }
            }
        }
        for (si, sspec) in spec.sources.iter().enumerate() {
            routers[sspec.router].inputs[sspec.in_port.0].feeder =
                Some(Feeder::Source { source: si });
        }

        let qos: Vec<Box<dyn RouterQos>> = spec
            .routers
            .iter()
            .map(|r| policy.router_qos(r, spec.num_flows()))
            .collect();

        let num_sources = spec.sources.len();
        let mut flow_to_source = vec![0usize; num_sources];
        let sources: Vec<SourceState> = spec
            .sources
            .iter()
            .zip(generators)
            .enumerate()
            .map(|(si, (sspec, generator))| {
                flow_to_source[sspec.flow.index()] = si;
                let vcs = spec.routers[sspec.router].inputs[sspec.in_port.0].vcs.count;
                SourceState::new(sspec, generator, vcs)
            })
            .collect();

        let sinks: Vec<SinkState> = spec.sinks.iter().map(SinkState::from_spec).collect();
        let mut stats = NetStats::new(spec.num_flows());
        stats.histograms_enabled = config.telemetry.histograms;
        let sampler = config.telemetry.frames_enabled().then(|| {
            let num_links: usize = spec.routers.iter().map(|r| r.outputs.len()).sum();
            FrameSampler::new(
                config.telemetry.frame_len,
                config.telemetry.max_frames,
                spec.num_flows(),
                spec.routers.len(),
                num_links,
            )
        });
        let frame_len = policy.frame_len();
        let num_router_blocks = spec.routers.len().div_ceil(64);

        Ok(Network {
            spec,
            config,
            policy,
            routers,
            sources,
            sinks,
            qos,
            packets: PacketStore::for_engine(config.engine),
            events: EventQueue::for_engine(config.engine),
            stats,
            sink_feeders,
            flow_to_source,
            frame_len,
            now: 0,
            event_scratch: Vec::new(),
            routing_work: vec![0; num_router_blocks],
            alloc_work: vec![0; num_router_blocks],
            launch_work: vec![0; num_router_blocks],
            router_scan: Vec::new(),
            source_wake: vec![0; num_sources],
            probe_scratch: Vec::new(),
            reference_requests: Vec::new(),
            probe_prioritized_scratch: Vec::new(),
            unlimited,
            closed_loop: None,
            fault: None,
            last_progress: 0,
            sampler,
            trace: TraceHook::Off,
            traced_fault_active: 0,
            pending_reprograms: Vec::new(),
            next_reprogram: 0,
        })
    }

    /// Installs a closed-loop request/reply workload: each requester flow
    /// issues MLP-window-limited requests to its memory controller, and every
    /// delivered request is answered with a reply injected at the
    /// controller's source (see [`crate::closed_loop`]). Both requester and
    /// controller sources must carry idle (exhausted) generators: a
    /// requester flow never polls its generator (a producing one would be
    /// silently ignored yet block quiescence forever), and a controller's
    /// reply port only injects while its source is otherwise idle (a
    /// producing generator would starve the replies and livelock the loop).
    ///
    /// # Errors
    ///
    /// Returns an error if the spec does not match this network (see
    /// [`ClosedLoopSpec::validate`]) or a requester's or controller's source
    /// has a non-exhausted generator.
    pub fn with_closed_loop(mut self, spec: ClosedLoopSpec) -> Result<Self, SimError> {
        spec.validate(&self.spec)?;
        let state = ClosedLoopState::new(&spec, &self.spec);
        for (flow, requester) in spec.requesters.iter().enumerate() {
            let Some(requester) = requester else { continue };
            let requester_source = &self.sources[self.flow_to_source[flow]];
            if !requester_source.generator.exhausted() {
                return Err(SimError::Spec(crate::error::SpecError::new(format!(
                    "requester flow {flow} needs an idle (exhausted) generator at its source \
                     {}: the closed loop replaces generation for that flow",
                    requester_source.name
                ))));
            }
            let Some(mc_source) = state.node_reply_source[requester.mc.index()] else {
                return Err(SimError::Spec(crate::error::SpecError::new(format!(
                    "memory controller node {} has no source to inject replies",
                    requester.mc
                ))));
            };
            let mc_source = &self.sources[mc_source];
            if !mc_source.generator.exhausted() {
                return Err(SimError::Spec(crate::error::SpecError::new(format!(
                    "memory controller node {} needs an idle (exhausted) generator at its \
                     source {} to inject replies",
                    requester.mc, mc_source.name
                ))));
            }
        }
        self.closed_loop = Some(state);
        Ok(self)
    }

    /// Installs a fault-injection plan: seeded, deterministic link, router,
    /// controller and flit-corruption failures applied while the network
    /// steps (see [`crate::fault`]). Dropped packets are NACKed back to
    /// their source over the ACK network and retransmitted until the plan's
    /// retransmit budget is exhausted, after which they are abandoned. An
    /// empty plan leaves behaviour bit-identical to a fault-free run.
    ///
    /// # Errors
    ///
    /// Returns an error if the plan fails validation against this network's
    /// spec (out-of-range routers or ports, malformed fault windows).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Result<Self, SimError> {
        plan.validate_against(&self.spec)?;
        self.fault = Some(FaultState::new(plan, &self.spec));
        Ok(self)
    }

    /// Schedules a mid-run reprogramming of the per-flow rate programme (one
    /// positive relative rate per flow, as a hypervisor would write into the
    /// QOS flow tables). The new rates take effect at the **first frame
    /// rollover at or after** cycle `at` — never mid-frame — so the change
    /// coincides with the bandwidth-counter and virtual-clock flush and the
    /// routers' priority-stability contract is preserved. Scheduling two
    /// programmes for the same rollover applies them in call order (the
    /// last one wins).
    ///
    /// # Errors
    ///
    /// Returns an error if the policy has no frames (nothing to anchor the
    /// change to), the rate count does not match the flow count, or any rate
    /// is non-finite or not positive.
    pub fn schedule_reprogram(&mut self, at: Cycle, rates: Vec<f64>) -> Result<(), SimError> {
        if self.frame_len.is_none_or(|f| f == 0) {
            return Err(SimError::Spec(crate::error::SpecError::new(
                "rate reprogramming needs a frame-based policy to anchor the change to",
            )));
        }
        if rates.len() != self.spec.num_flows() {
            return Err(SimError::Spec(crate::error::SpecError::new(format!(
                "{} rates supplied for {} flows",
                rates.len(),
                self.spec.num_flows()
            ))));
        }
        if rates.iter().any(|r| !r.is_finite() || *r <= 0.0) {
            return Err(SimError::Spec(crate::error::SpecError::new(
                "rates must be finite and positive",
            )));
        }
        // taqos-lint: allow(panic-index) -- next_reprogram only advances past applied entries, so it never exceeds len
        let idx = self.pending_reprograms[self.next_reprogram..]
            .partition_point(|&(cycle, _)| cycle <= at)
            + self.next_reprogram;
        self.pending_reprograms.insert(idx, (at, rates));
        Ok(())
    }

    /// Applies every scheduled rate reprogramming due by now to the policy,
    /// each router's QOS state and the closed loop's DRAM weights. Called
    /// only from a frame rollover, which immediately flushes the bandwidth
    /// counters and bumps every router's priority epoch — so the new
    /// programme starts from a clean frame in both engines.
    fn apply_due_reprograms(&mut self) {
        let Network {
            pending_reprograms,
            next_reprogram,
            policy,
            qos,
            closed_loop,
            now,
            ..
        } = self;
        while let Some((at, rates)) = pending_reprograms.get(*next_reprogram) {
            if *at > *now {
                break;
            }
            policy.reprogram_rates(rates);
            for q in qos.iter_mut() {
                q.reprogram_rates(rates);
            }
            if let Some(cl) = closed_loop {
                cl.reprogram_weights(rates);
            }
            *next_reprogram += 1;
        }
    }

    /// Installs a flit-level trace sink: injections, grants, preemptions,
    /// NACKs, deliveries, DRAM services, timeouts/retries and fault
    /// transitions are streamed to it as [`TraceEvent`]s, in cycle order.
    /// Without a sink the trace hook is a single predictable branch per
    /// instrumentation point and no event is ever constructed.
    ///
    /// Call [`Self::take_trace_sink`] (and [`TraceSink::finish`]) to recover
    /// the sink before dropping the network; [`Self::into_stats`] otherwise
    /// finishes it implicitly, discarding any I/O error.
    #[must_use]
    pub fn with_trace_sink(mut self, sink: Box<dyn TraceSink>) -> Self {
        self.trace = TraceHook::On(sink);
        self
    }

    /// Removes and returns the installed trace sink, if any, leaving tracing
    /// off. The caller should invoke [`TraceSink::finish`] on it.
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.trace.take()
    }

    /// Current simulation time in cycles.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The network specification this simulation was built from.
    pub fn spec(&self) -> &NetworkSpec {
        &self.spec
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Mutable access to statistics (used by drivers to set the measurement
    /// window).
    pub fn stats_mut(&mut self) -> &mut NetStats {
        &mut self.stats
    }

    /// Whether every source is drained, no packet is live anywhere in the
    /// network, and every closed-loop requester has spent its budget — i.e. a
    /// closed (fixed) workload has completed.
    pub fn is_quiescent(&self) -> bool {
        self.sources.iter().all(|s| s.is_drained())
            && self.packets.is_empty()
            && self.closed_loop.as_ref().is_none_or(|cl| cl.is_complete())
    }

    /// Number of packets currently live (queued, in flight, or awaiting ACK).
    pub fn live_packets(&self) -> usize {
        self.packets.len()
    }

    /// Checks the forward-progress watchdog: if more than
    /// [`SimConfig::progress_watchdog`] cycles have elapsed since the last
    /// packet generation, acknowledgement, or DRAM service start, the
    /// network is considered wedged (deadlocked or livelocked — e.g. a NACK
    /// storm against dead hardware) and a structured error is returned. A
    /// watchdog of 0 disables the check.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoForwardProgress`] when the watchdog expires.
    pub fn check_progress(&self) -> Result<(), SimError> {
        let horizon = self.config.progress_watchdog;
        let stalled_for = self.now.saturating_sub(self.last_progress);
        if horizon > 0 && stalled_for > horizon {
            return Err(SimError::NoForwardProgress {
                cycles: self.now,
                stalled_for,
                live_packets: self.live_packets(),
            });
        }
        Ok(())
    }

    /// Total flits delivered to sinks so far, per the sinks' own counters.
    ///
    /// Under a priority-aware DRAM scheduler
    /// ([`crate::closed_loop::DramScheduler::is_priority_aware`]) admitted
    /// requests bypass these counters: their delivery is deferred to the
    /// start of bank service and recorded in [`Self::stats`]
    /// (`NetStats::delivered_flits`) only, so the statistics — not this
    /// sink-level sum — are the authoritative delivery count for such runs.
    pub fn delivered_flits(&self) -> u64 {
        self.sinks.iter().map(|s| s.delivered_flits).sum()
    }

    /// Consumes the network and returns the final statistics, with per-source
    /// counters folded in.
    pub fn into_stats(mut self) -> NetStats {
        for source in &self.sources {
            let fs = &mut self.stats.flows[source.flow.index()];
            fs.generated_packets = source.generated_packets;
            fs.generated_flits = source.generated_flits;
            fs.injected_packets = source.injected_packets;
            fs.retransmissions = source.retransmitted_packets;
        }
        if let Some(cl) = &self.closed_loop {
            for (flow, requester) in cl.requesters.iter().enumerate() {
                let Some(requester) = requester else { continue };
                self.stats.flows[flow].requests_in_flight = requester.outstanding as u64;
            }
        }
        self.stats.generated_packets = self.sources.iter().map(|s| s.generated_packets).sum();
        self.stats.cycles = self.now;
        if let Some(sampler) = self.sampler.take() {
            self.stats.frames = Some(sampler.into_series());
        }
        // A sink the caller did not reclaim is finished here so buffered
        // formats (Chrome trace) still produce a valid file; the I/O result
        // is unobservable at this point by construction.
        if let Some(mut sink) = self.trace.take() {
            let _ = sink.finish();
        }
        self.stats
    }

    /// Advances the simulation by one cycle.
    // taqos-lint: hot
    pub fn step(&mut self) {
        self.now += 1;
        if let Some(fault) = &mut self.fault {
            fault.refresh(self.now);
            if self.trace.is_on() {
                let active = fault.active_count(self.now);
                if active != self.traced_fault_active {
                    self.traced_fault_active = active;
                    let cycle = self.now;
                    self.trace
                        .emit(|| TraceEvent::FaultTransition { cycle, active });
                }
            }
        }
        self.phase_frame_rollover();
        // The one place the engine is picked. Everything only the reference
        // engine does lives in `reference.rs`; the phases below share their
        // mechanics with it but never ask which engine runs.
        match self.config.engine {
            EngineKind::Optimized => {
                self.phase_events(Network::handle_preemption_probe);
                self.phase_sources();
                self.phase_routing();
                self.phase_allocation();
                self.phase_launch();
            }
            EngineKind::Reference => {
                self.phase_events(Network::reference_preemption_probe);
                self.reference_sources();
                self.reference_routing();
                self.reference_allocation();
                self.reference_launch();
            }
        }
        if self.sampler.is_some() {
            self.sample_frame();
        }
    }

    /// Closes a sampling frame if one is due this cycle: snapshots the
    /// cumulative per-flow counters, instantaneous router occupancy and
    /// cumulative per-link launched-flit counts; the sampler converts the
    /// cumulative figures to per-frame deltas in place. Reads existing
    /// counters only — no simulation state is touched, so sampling cannot
    /// perturb the run.
    // taqos-lint: hot
    fn sample_frame(&mut self) {
        let Network {
            sampler,
            stats,
            sources,
            flow_to_source,
            routers,
            now,
            ..
        } = self;
        let Some(sampler) = sampler.as_mut() else {
            return;
        };
        if !sampler.due(*now) {
            return;
        }
        sampler.sample_frame(*now, |snap| {
            for (f, flow) in snap.flows.iter_mut().enumerate() {
                let fs = &stats.flows[f];
                flow.injected_packets = sources[flow_to_source[f]].injected_packets;
                flow.delivered_flits = fs.delivered_flits;
                flow.latency_sum = fs.latency_sum;
                flow.latency_samples = fs.latency_samples;
                flow.round_trips = fs.round_trips;
                flow.rt_latency_sum = fs.rt_latency_sum;
                flow.rt_samples = fs.rt_samples;
            }
            for (occ, router) in snap.router_occupancy.iter_mut().zip(routers.iter()) {
                *occ = router.active_vcs as u64;
            }
            let mut link = 0;
            for router in routers.iter() {
                for out in &router.outputs {
                    snap.link_flits[link] = out.flits_launched_total;
                    link += 1;
                }
            }
        });
    }

    /// Advances the simulation by `cycles` cycles.
    pub fn run_for(&mut self, cycles: Cycle) {
        for _ in 0..cycles {
            self.step();
        }
    }

    // taqos-lint: hot
    fn phase_frame_rollover(&mut self) {
        if let Some(frame) = self.frame_len {
            if frame > 0 && self.now.is_multiple_of(frame) {
                // Rate reprogrammings land exactly here, before the flush,
                // so a new programme always starts from a clean frame.
                if self.next_reprogram < self.pending_reprograms.len() {
                    self.apply_due_reprograms();
                }
                for qos in &mut self.qos {
                    qos.on_frame_rollover();
                }
                for router in &mut self.routers {
                    router.priority_epoch += 1;
                    router.mark_all_dirty();
                }
                for source in &mut self.sources {
                    source.on_frame_rollover();
                }
                // The controllers' rate-scaled virtual clocks observe the
                // same frame boundaries as the fabric's bandwidth counters.
                if let Some(cl) = &mut self.closed_loop {
                    cl.flush_vclocks();
                }
            }
        }
    }

    /// Applies every event due this cycle; `probe` is the engine's
    /// preemption-probe handler.
    // taqos-lint: hot
    fn phase_events(&mut self, probe: impl Fn(&mut Network, usize, usize, FlowId)) {
        // The drained events are collected into a reusable buffer so the
        // steady-state event phase performs no heap allocation.
        let mut scratch = std::mem::take(&mut self.event_scratch);
        scratch.clear();
        self.events.drain_due_into(self.now, &mut scratch);
        for event in scratch.drain(..) {
            self.apply_event(event, &probe);
        }
        self.event_scratch = scratch;
    }

    fn apply_event(&mut self, event: Event, probe: &impl Fn(&mut Network, usize, usize, FlowId)) {
        match event {
            Event::HeadToRouter {
                router,
                in_port,
                vc,
                len,
                packet,
            } => {
                let router = router as usize;
                let router_state = &mut self.routers[router];
                let port = &mut router_state.inputs[in_port as usize];
                if port.vcs.len() <= vc.index() {
                    // VC counts are fully provisioned from the spec at
                    // construction; only ideal per-flow queuing manufactures
                    // VC ids beyond that count.
                    assert!(
                        self.unlimited,
                        "flit addressed VC {} beyond the {} provisioned at router {router} port {in_port}",
                        vc.index(),
                        port.vcs.len(),
                    );
                    port.vcs.resize_with(vc.index() + 1, || VcState::new(false));
                }
                port.vcs[vc.index()].accept_head(packet, len, self.now);
                port.occupied += 1;
                port.unrouted += 1;
                router_state.active_vcs += 1;
                router_state.unrouted_vcs += 1;
                mark_router(&mut self.routing_work, router);
                mark_router(&mut self.alloc_work, router);
                self.stats.energy.buffer_writes += 1;
            }
            Event::BodyToRouter {
                router,
                in_port,
                vc,
                packet,
            } => {
                // Body flits always follow their head into an already-claimed
                // (and, under unlimited buffering, already-grown) VC.
                let port = &mut self.routers[router as usize].inputs[in_port as usize];
                debug_assert!(vc.index() < port.vcs.len());
                port.vcs[vc.index()].accept_body(packet);
                self.stats.energy.buffer_writes += 1;
            }
            Event::FlitToSink {
                sink,
                slot,
                is_head,
                is_tail,
                packet,
            } => {
                let sink = sink as usize;
                if is_head {
                    self.sinks[sink].accept_head(slot, packet);
                } else {
                    self.sinks[sink].accept_body(slot, packet);
                }
                if is_tail {
                    self.complete_delivery(sink, slot);
                }
            }
            Event::CreditToRouter {
                router,
                out_port,
                target_idx,
                vc,
                reserved_vc,
            } => {
                let router_state = &mut self.routers[router as usize];
                router_state.outputs[out_port as usize].targets[target_idx as usize]
                    .refund(vc, reserved_vc);
                router_state.mark_output_dirty(out_port as usize);
            }
            Event::CreditToSource { source, vc } => {
                self.sources[source as usize].free_vcs.push(vc);
                wake_source(&mut self.source_wake, source as usize);
            }
            Event::Ack { source, packet } => {
                // A packet left the system (delivered, or abandoned by the
                // fault layer): that is forward progress for the watchdog.
                self.last_progress = self.now;
                self.sources[source as usize].acknowledge(packet);
                wake_source(&mut self.source_wake, source as usize);
                self.packets.remove(packet);
            }
            Event::Nack { source, packet } => {
                if let Some(pkt) = self.packets.get_mut(packet) {
                    pkt.retransmissions += 1;
                    let (cycle, flow) = (self.now, pkt.flow);
                    self.trace.emit(|| TraceEvent::Nack {
                        cycle,
                        flow: u64::from(flow.0),
                        packet: packet.0,
                    });
                }
                self.sources[source as usize].retransmit(packet);
                wake_source(&mut self.source_wake, source as usize);
            }
            Event::PreemptionProbe {
                router,
                in_port,
                contender,
            } => probe(self, router as usize, in_port as usize, contender),
            Event::DramComplete { mc, bank } => {
                self.handle_dram_complete(mc as usize, bank as usize);
            }
        }
    }

    // taqos-lint: hot
    fn complete_delivery(&mut self, sink: usize, slot: VcId) {
        // Peek at the occupant first: DRAM admission may reject the packet,
        // and a rejected request must not touch the sink's delivery
        // counters (`SinkState::discard` vs `SinkState::complete` below).
        let packet_id = self.sinks[sink]
            .occupant(slot)
            // taqos-lint: allow(panic-path) -- delivery events fire only for occupied sink slots
            .expect("completing an empty sink slot");
        // The packet is plain data: one copy serves the stats recorder and
        // the closed-loop hook below.
        let packet = *self
            .packets
            .get(packet_id)
            // taqos-lint: allow(panic-path) -- sink slots only ever hold live packet ids
            .expect("delivered packet must be live");
        let (flow, hops) = (packet.flow, packet.column_hops());
        // A controller outage bounces request-class packets at the dark
        // node: the delivery is not recorded and the packet is NACKed back
        // to its source (or abandoned once the fault retransmit budget is
        // spent), exactly like a DRAM-queue rejection.
        if packet.class == PacketClass::Request
            && self
                .fault
                .as_ref()
                .is_some_and(|f| f.mc_dark(self.sinks[sink].node))
        {
            self.sinks[sink].discard(slot);
            self.stats.fault.mc_outage_rejections += 1;
            self.release_sink_credit(sink, slot);
            self.fault_bounce(packet_id, flow, packet.origin_source, hops);
            return;
        }
        // DRAM admission control: a closed-loop request arriving at a
        // controller whose bounded queue is full is either rejected (NACKed
        // back to its source for a retry over the fabric — it does *not*
        // count as delivered) or parked in the stall lane (it counts as
        // delivered but withholds its ejection-slot credit, backpressuring
        // the fabric).
        let admission = self.dram_admission(sink, flow, packet.class);
        if admission == DramAdmission::Reject {
            self.sinks[sink].discard(slot);
            self.stats.record_dram_rejection(flow);
            // The flits did occupy the sink slot: free its credit as usual.
            self.release_sink_credit(sink, slot);
            // Closed-loop requests are always injected by their own flow's
            // source; the NACK sends it back for retransmission.
            self.events.schedule(
                self.now + self.config.ack_latency(hops),
                Event::Nack {
                    source: self.flow_to_source[flow.index()] as u32,
                    packet: packet_id,
                },
            );
            return;
        }
        // Priority-aware schedulers defer a request's delivery (and its ACK)
        // to the start of its bank service: the packet stays live at its
        // source so a later eviction can NACK it for a fabric retry. Under
        // FCFS everything is recorded at admission, exactly as before the
        // scheduler abstraction existed.
        let deferred = admission.enters_pipeline()
            && self
                .closed_loop
                .as_ref()
                .and_then(|cl| cl.dram)
                .is_some_and(|d| d.scheduler.is_priority_aware());
        if deferred {
            self.sinks[sink].discard(slot);
        } else {
            let completed = self.sinks[sink].complete(slot);
            debug_assert_eq!(completed, packet_id);
            self.stats
                .record_delivery(flow, packet.len_flits, hops, packet.birth, self.now);
            let cycle = self.now;
            self.trace.emit(|| TraceEvent::Deliver {
                cycle,
                flow: u64::from(flow.0),
                packet: packet_id.0,
                birth: packet.birth,
            });
        }
        if self.closed_loop.is_some() {
            self.on_closed_loop_delivery(sink, slot, &packet, admission, hops);
        }
        // Free the sink slot credit at the feeding ejection port — unless a
        // DRAM stall lane is withholding it until the controller queue has
        // room (released in `dram_pump`).
        if admission != DramAdmission::Stall {
            self.release_sink_credit(sink, slot);
        }
        if deferred {
            // The ACK (and the delivery statistics) fire when the request
            // enters bank service, from `dram_pump`.
            return;
        }
        // Acknowledge delivery over the ACK network, to the source that
        // physically injected the packet (for closed-loop replies that is the
        // memory controller's source, not the requester flow's).
        let source = packet
            .origin_source
            .map(|s| s as usize)
            .unwrap_or_else(|| self.flow_to_source[flow.index()]);
        self.events.schedule(
            self.now + self.config.ack_latency(hops),
            Event::Ack {
                source: source as u32,
                packet: packet_id,
            },
        );
    }

    /// Returns the credit of slot `slot` of sink `sink` to the output port
    /// feeding it. Shared by normal delivery, DRAM rejection and the outage
    /// bounce (the stall lane's deferred release in `dram_pump` schedules the
    /// same credit), so the credit semantics cannot drift apart.
    // taqos-lint: hot
    fn release_sink_credit(&mut self, sink: usize, slot: VcId) {
        let due = self.now + self.config.credit_delay;
        // taqos-lint: allow(panic-index) -- sink_feeders holds one entry per sink and delivery events address live sinks
        let feeder = self.sink_feeders[sink];
        return_credit(&mut self.events, feeder, due, slot.index(), false);
    }

    /// Sends a fault-dropped (or outage-bounced) packet back to its source:
    /// a NACK schedules a fabric retransmission, unless the packet has
    /// already burned through the fault plan's retransmit budget, in which
    /// case it is abandoned — acknowledged and removed without ever counting
    /// as delivered. Abandonment guarantees NACK loops against permanently
    /// dead hardware terminate instead of livelocking.
    // taqos-lint: hot
    fn fault_bounce(
        &mut self,
        packet_id: PacketId,
        flow: FlowId,
        origin_source: Option<u32>,
        hops: u32,
    ) {
        let budget = self
            .fault
            .as_ref()
            // taqos-lint: allow(panic-path) -- fault_bounce is only reached from fault-plan drop handling
            .expect("fault_bounce requires an installed fault plan")
            .retransmit_budget();
        let drops = {
            let packet = self
                .packets
                .get_mut(packet_id)
                // taqos-lint: allow(panic-path) -- NACKed packets stay live until acked or abandoned
                .expect("bounced packet must be live");
            packet.fault_drops += 1;
            packet.fault_drops
        };
        let source = origin_source
            .map(|s| s as usize)
            .unwrap_or_else(|| self.flow_to_source[flow.index()]) as u32;
        let due = self.now + self.config.ack_latency(hops);
        if drops > budget {
            self.stats.fault.abandoned_packets += 1;
            self.events.schedule(
                due,
                Event::Ack {
                    source,
                    packet: packet_id,
                },
            );
        } else {
            self.events.schedule(
                due,
                Event::Nack {
                    source,
                    packet: packet_id,
                },
            );
        }
    }

    /// Decides what a DRAM-backed controller does with a delivered packet:
    /// [`DramAdmission::None`] for everything that is not a closed-loop
    /// request at a DRAM-modelled controller (including the whole non-DRAM
    /// configuration), otherwise accept/stall/reject per queue occupancy and
    /// the configured backpressure.
    // taqos-lint: hot
    fn dram_admission(&self, sink: usize, flow: FlowId, class: PacketClass) -> DramAdmission {
        if class != PacketClass::Request {
            return DramAdmission::None;
        }
        let Some(cl) = &self.closed_loop else {
            return DramAdmission::None;
        };
        let Some(dram) = &cl.dram else {
            return DramAdmission::None;
        };
        let sink_node = self.sinks[sink].node;
        // Only requests of a requester flow arriving at that flow's own
        // controller enter the DRAM pipeline; everything else is ordinary
        // traffic.
        match &cl.requesters[flow.index()] {
            Some(r) if r.spec.mc == sink_node => {}
            _ => return DramAdmission::None,
        }
        let mc = cl.mc_states[sink_node.index()]
            .as_ref()
            // taqos-lint: allow(panic-path) -- admission is gated on the requester match, which implies DRAM state
            .expect("requester controllers have DRAM state");
        if mc.queue.len() < dram.queue_depth {
            DramAdmission::Accept
        } else {
            match dram.backpressure {
                DramBackpressure::Nack => {
                    // Priority admission: a full queue bounces the
                    // *lowest-priority* request, not reflexively the newest —
                    // but only when the arrival strictly outranks it.
                    match dram
                        .scheduler
                        .is_priority_aware()
                        .then(|| mc.eviction_victim(flow))
                        .flatten()
                    {
                        Some(victim_idx) => DramAdmission::AcceptEvict(victim_idx),
                        None => DramAdmission::Reject,
                    }
                }
                // Stalling withholds a credit instead of producing NACK
                // traffic; there is nothing to evict, under any scheduler.
                DramBackpressure::Stall => DramAdmission::Stall,
            }
        }
    }

    /// Closed-loop bookkeeping of one delivered packet: a requester's request
    /// arriving at its memory controller either queues a reply on the
    /// controller's injection port (instant controllers) or enters the
    /// controller's DRAM pipeline (the reply is released when its bank
    /// completes); a reply arriving back at the requester credits the MLP
    /// window and records the round trip.
    // taqos-lint: hot
    fn on_closed_loop_delivery(
        &mut self,
        sink: usize,
        slot: VcId,
        packet: &Packet,
        admission: DramAdmission,
        hops: u32,
    ) {
        let Packet {
            id: packet_id,
            flow,
            class,
            src,
            birth,
            request_birth,
            dram_line,
            len_flits,
            req_seq,
            ..
        } = *packet;
        match class {
            PacketClass::Request => {
                let sink_node = self.sinks[sink].node;
                // taqos-lint: allow(panic-path) -- request/reply bookkeeping is only reached under an active closed loop
                let cl = self.closed_loop.as_ref().expect("closed loop active");
                let reply_len = match &cl.requesters[flow.index()] {
                    // Only requests of a requester flow arriving at that
                    // flow's controller are answered; everything else is
                    // ordinary traffic.
                    Some(r) if r.spec.mc == sink_node => r.spec.reply_len,
                    _ => return,
                };
                // A retried request carries the logical birth of its
                // original send: round trips are anchored there, so retry
                // latency shows up in the measured round-trip time. Fresh
                // requests carry `None` and anchor at their packet birth.
                let birth = request_birth.unwrap_or(birth);
                if admission != DramAdmission::None {
                    // DRAM-backed controller: the request enters the bounded
                    // queue (or the credit-withholding stall lane) and its
                    // reply is released by `handle_dram_complete` when the
                    // bank finishes.
                    let request = DramRequest {
                        flow,
                        requester: src,
                        birth,
                        reply_len,
                        // taqos-lint: allow(panic-path) -- requester-generated requests always carry a DRAM line
                        line: dram_line.expect("closed-loop DRAM requests carry a line"),
                        arrived: self.now,
                        packet: packet_id,
                        hops,
                        len_flits,
                        req_seq,
                    };
                    let mc = self
                        .closed_loop
                        .as_mut()
                        // taqos-lint: allow(panic-path) -- request/reply bookkeeping is only reached under an active closed loop
                        .expect("closed loop active")
                        .mc_states[sink_node.index()]
                    .as_mut()
                    // taqos-lint: allow(panic-path) -- admission is gated on the requester match, which implies DRAM state
                    .expect("requester controllers have DRAM state");
                    match admission {
                        DramAdmission::Accept => {
                            mc.queue.push_back(request);
                            let occupancy = mc.queue.len();
                            self.stats.record_dram_occupancy(occupancy);
                        }
                        DramAdmission::AcceptEvict(victim_idx) => {
                            // Bounce the lowest-priority queued request in
                            // favour of the higher-priority arrival: its
                            // still-live packet is NACKed back to its source
                            // and retried over the fabric.
                            let victim =
                                // taqos-lint: allow(panic-path) -- eviction_victim returns an index into the live queue
                                mc.queue.remove(victim_idx).expect("victim index in bounds");
                            mc.queue.push_back(request);
                            let occupancy = mc.queue.len();
                            self.stats.record_dram_occupancy(occupancy);
                            self.stats.record_dram_eviction(victim.flow);
                            self.events.schedule(
                                self.now + self.config.ack_latency(victim.hops),
                                Event::Nack {
                                    source: self.flow_to_source[victim.flow.index()] as u32,
                                    packet: victim.packet,
                                },
                            );
                        }
                        DramAdmission::Stall => {
                            mc.stalled.push_back(StalledRequest {
                                request,
                                sink,
                                slot,
                            });
                            self.stats.record_dram_stall();
                        }
                        DramAdmission::Reject | DramAdmission::None => {
                            // taqos-lint: allow(panic-path) -- Reject and None verdicts return before delivery bookkeeping
                            unreachable!("rejections return before delivery")
                        }
                    }
                    self.dram_pump(sink_node.index());
                    return;
                }
                let reply_source = self
                    .closed_loop
                    .as_ref()
                    // taqos-lint: allow(panic-path) -- request/reply bookkeeping is only reached under an active closed loop
                    .expect("closed loop active")
                    .node_reply_source[sink_node.index()]
                // taqos-lint: allow(panic-path) -- ClosedLoopSpec::validate pins a reply source to every controller
                .expect("validated: controller node has a source");
                self.release_reply(
                    sink_node,
                    reply_source,
                    flow,
                    src,
                    reply_len,
                    birth,
                    req_seq,
                );
            }
            PacketClass::Reply => {
                // Closed-loop replies are marked by the request birth they
                // carry; plain reply-class traffic passes through untouched.
                let Some(request_birth) = request_birth else {
                    return;
                };
                // taqos-lint: allow(panic-path) -- request/reply bookkeeping is only reached under an active closed loop
                let cl = self.closed_loop.as_mut().expect("closed loop active");
                let retry_on = cl.retry.is_some();
                let Some(requester) = cl.requesters[flow.index()].as_mut() else {
                    return;
                };
                // The reply may free a window slot: the requester's source
                // gets a look this cycle.
                // taqos-lint: allow(panic-index) -- flow ids are dense over the sources, checked at construction
                wake_source(&mut self.source_wake, self.flow_to_source[flow.index()]);
                // Under a retry policy the reply must match a sequence
                // number the requester still considers live: either waiting
                // for this reply, or already timed out and parked for a
                // retry (the original raced the deadline and won). A reply
                // matching neither is stale — a duplicate whose request was
                // already completed by an earlier copy — and is discarded
                // without touching the MLP window.
                let seq = match req_seq {
                    Some(seq) if retry_on => seq,
                    _ => {
                        debug_assert!(requester.outstanding > 0, "reply without a request");
                        requester.outstanding -= 1;
                        self.stats.record_round_trip(flow, request_birth, self.now);
                        return;
                    }
                };
                if let Some(pos) = requester.in_flight.iter().position(|r| r.seq == seq) {
                    let entry = requester.in_flight.remove(pos);
                    requester.outstanding -= 1;
                    self.stats.record_round_trip(flow, entry.birth, self.now);
                } else if let Some(pos) = requester.deferred.iter().position(|d| d.seq == seq) {
                    let entry = requester
                        .deferred
                        .remove(pos)
                        // taqos-lint: allow(panic-path) -- position was just found by the scan above
                        .expect("position is in bounds");
                    requester.outstanding -= 1;
                    self.stats.record_round_trip(flow, entry.birth, self.now);
                } else {
                    self.stats.record_stale_reply(flow);
                }
            }
        }
    }

    /// Creates a reply packet on `flow` from controller `mc_node` back to
    /// `requester` and queues it at the controller's reply port. The reply
    /// travels on the requester's flow (QOS priority and per-flow
    /// accounting) but is injected and retransmitted by the controller's
    /// source; it carries the request's birth so the round trip can be
    /// measured at delivery.
    // taqos-lint: hot
    #[allow(clippy::too_many_arguments)]
    fn release_reply(
        &mut self,
        mc_node: NodeId,
        reply_source: usize,
        flow: FlowId,
        requester: NodeId,
        reply_len: u8,
        request_birth: Cycle,
        req_seq: Option<u64>,
    ) {
        let now = self.now;
        let reply_id = self.packets.insert_with(|id| {
            let mut reply = Packet::new(
                id,
                flow,
                mc_node,
                requester,
                reply_len,
                PacketClass::Reply,
                now,
            );
            reply.request_birth = Some(request_birth);
            reply.origin_source = Some(reply_source as u32);
            reply.req_seq = req_seq;
            reply
        });
        let source = &mut self.sources[reply_source];
        source.generated_packets += 1;
        source.generated_flits += u64::from(reply_len);
        self.closed_loop
            .as_mut()
            // taqos-lint: allow(panic-path) -- request/reply bookkeeping is only reached under an active closed loop
            .expect("closed loop active")
            .replies
            .push(reply_source, reply_id, flow);
        wake_source(&mut self.source_wake, reply_source);
    }

    /// A DRAM bank completed: release the reply of the serviced request and
    /// let the controller pull waiting work onto its freed bank.
    // taqos-lint: hot
    fn handle_dram_complete(&mut self, mc_node: usize, bank: usize) {
        // taqos-lint: allow(panic-path) -- request/reply bookkeeping is only reached under an active closed loop
        let cl = self.closed_loop.as_mut().expect("closed loop active");
        let mc = cl.mc_states[mc_node]
            .as_mut()
            // taqos-lint: allow(panic-path) -- completions fire only at controllers that started service
            .expect("completion at a controller without DRAM state");
        debug_assert_eq!(
            mc.banks[bank].busy_until, self.now,
            "bank completion fired at the wrong cycle"
        );
        let request = mc.banks[bank]
            .in_service
            .take()
            // taqos-lint: allow(panic-path) -- a completion event is scheduled exactly when service starts
            .expect("completion for an idle bank");
        let reply_source =
            // taqos-lint: allow(panic-path) -- ClosedLoopSpec::validate pins a reply source to every controller
            cl.node_reply_source[mc_node].expect("validated: controller node has a source");
        self.release_reply(
            NodeId(mc_node as u16),
            reply_source,
            request.flow,
            request.requester,
            request.reply_len,
            request.birth,
            request.req_seq,
        );
        self.dram_pump(mc_node);
    }

    /// Drives a controller's DRAM pipeline to a fixed point: every idle bank
    /// pulls its next request per the configured [`DramScheduler`] (arrival
    /// order for FCFS and priority admission, row-hit-first with the
    /// priority-weighted age cap for FR-FCFS), and stall-lane arrivals are
    /// admitted (releasing their withheld ejection-slot credits) while the
    /// bounded queue has room. Called after every arrival and every bank
    /// completion; deterministic and identical on both engines.
    // taqos-lint: hot
    fn dram_pump(&mut self, mc_node: usize) {
        let now = self.now;
        let Network {
            closed_loop,
            stats,
            events,
            sink_feeders,
            config,
            flow_to_source,
            last_progress,
            trace,
            ..
        } = self;
        // taqos-lint: allow(panic-path) -- request/reply bookkeeping is only reached under an active closed loop
        let cl = closed_loop.as_mut().expect("closed loop active");
        // taqos-lint: allow(panic-path) -- pump callers checked admission, which requires a DRAM model
        let dram = cl.dram.expect("DRAM pump requires a DRAM model");
        let weights = &cl.weights;
        let total_weight = cl.total_weight;
        let mc = cl.mc_states[mc_node]
            .as_mut()
            // taqos-lint: allow(panic-path) -- pump targets controllers that accepted a request, so state exists
            .expect("pump at a controller without DRAM state");
        loop {
            let mut progressed = false;
            match dram.scheduler {
                // Arrival-order bank scheduling: start every startable
                // request, scanning the queue front to back (a younger
                // request may bypass to a different, idle bank).
                DramScheduler::Fcfs | DramScheduler::PriorityAdmission => {
                    let mut i = 0;
                    while i < mc.queue.len() {
                        let bank_idx = dram.bank_of(mc.queue[i].line);
                        if mc.banks[bank_idx].is_idle() {
                            // taqos-lint: allow(panic-path) -- i < queue.len() is the loop condition
                            let request = mc.queue.remove(i).expect("index checked in bounds");
                            start_dram_service(
                                mc,
                                bank_idx,
                                request,
                                &dram,
                                weights,
                                now,
                                mc_node,
                                stats,
                                events,
                                config,
                                flow_to_source,
                                last_progress,
                                trace,
                            );
                            progressed = true;
                        } else {
                            i += 1;
                        }
                    }
                }
                // Row-hit-first: each idle bank picks per the FR-FCFS rules
                // (oldest overdue request, else best open-row hit, else best
                // priority).
                DramScheduler::FrFcfs => {
                    for bank_idx in 0..mc.banks.len() {
                        if !mc.banks[bank_idx].is_idle() {
                            continue;
                        }
                        if let Some(idx) =
                            mc.frfcfs_pick(&dram, bank_idx, now, weights, total_weight)
                        {
                            // taqos-lint: allow(panic-path) -- frfcfs_pick returns an index into the live queue
                            let request = mc.queue.remove(idx).expect("pick index in bounds");
                            start_dram_service(
                                mc,
                                bank_idx,
                                request,
                                &dram,
                                weights,
                                now,
                                mc_node,
                                stats,
                                events,
                                config,
                                flow_to_source,
                                last_progress,
                                trace,
                            );
                            progressed = true;
                        }
                    }
                }
            }
            // Admit stalled arrivals while the queue has room, releasing
            // their withheld sink-slot credits.
            while mc.queue.len() < dram.queue_depth {
                let Some(stalled) = mc.stalled.pop_front() else {
                    break;
                };
                mc.queue.push_back(stalled.request);
                stats.record_dram_occupancy(mc.queue.len());
                // taqos-lint: allow(panic-index) -- stalled requests record the live sink they arrived at
                let feeder = sink_feeders[stalled.sink];
                let due = now + config.credit_delay;
                return_credit(events, feeder, due, stalled.slot.index(), false);
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
    }

    /// Visits the sources that are awake. The reference engine visits every
    /// source, so engine equivalence checks that no wake was missed.
    // taqos-lint: hot
    fn phase_sources(&mut self) {
        for si in 0..self.sources.len() {
            // taqos-lint: allow(panic-index) -- the wake array holds one slot per source
            if self.source_wake[si] <= self.now {
                self.visit_source(si, cached_priority);
            }
        }
    }

    /// One source's turn in the source phase: generate or issue, start an
    /// injection, stream one flit. A source that finds nothing to do records
    /// in [`Self::source_wake`] when it next needs a visit. `reply_priority`
    /// prices the flows waiting at a controller's reply port.
    // taqos-lint: hot
    fn visit_source(
        &mut self,
        si: usize,
        reply_priority: impl Fn(&mut RouterState, &dyn RouterQos, FlowId) -> u64,
    ) {
        let now = self.now;
        // Split-borrow the fields once so the source is indexed a single
        // time instead of re-indexing `self.sources[si]` at every access.
        let Network {
            sources,
            routers,
            packets,
            stats,
            policy,
            qos,
            closed_loop,
            last_progress,
            trace,
            routing_work,
            alloc_work,
            source_wake,
            ..
        } = self;
        // taqos-lint: allow(panic-index) -- callers pass a live source index
        let source = &mut sources[si];
        // 1. Traffic generation — at most one generator call per cycle. An
        // exhausted generator returns `None` without consuming entropy
        // (the `PacketGenerator` contract), and a source that also has
        // nothing queued or streaming has no per-cycle work at all
        // (outstanding-window packets only need event handling).
        // Closed-loop requester flows issue from their MLP window instead
        // of polling a generator: one request whenever the window has
        // room and the budget allows. Under a DRAM model the request also
        // carries the next cache line of the flow's private stream.
        // A requester that cannot issue records when time alone next
        // gives it work in `requester_wake`.
        let mut requester_wake = None;
        let mut dram_line = None;
        let mut req_seq = None;
        let mut logical_birth = None;
        let generated = match closed_loop.as_mut().map(|cl| {
            (
                cl.dram.is_some(),
                cl.retry,
                cl.requesters[source.flow.index()].as_mut(),
            )
        }) {
            Some((dram_enabled, retry, Some(requester))) => {
                let flow = source.flow;
                // Dynamic traffic: apply any phase change due this cycle
                // to the effective MLP window before the issue decision.
                requester.advance_phases(now);
                // Deadline scan: every in-flight request whose reply has
                // not arrived within the policy deadline either moves to
                // the backoff lane for a retry or — once its attempt
                // budget is spent — is abandoned, releasing its MLP
                // window slot so the flow keeps making progress past
                // genuinely lost requests.
                if let Some(policy) = retry {
                    // Both push sites stamp `sent: now` and removals keep
                    // the order, so only a prefix can have expired.
                    debug_assert!(
                        requester.in_flight.is_sorted_by_key(|entry| entry.sent),
                        "in-flight requests stay in send order"
                    );
                    let expired = requester
                        .in_flight
                        .partition_point(|entry| entry.sent.saturating_add(policy.deadline) <= now);
                    for entry in requester.in_flight.drain(..expired) {
                        if entry.attempts >= policy.max_attempts {
                            requester.outstanding -= 1;
                            stats.record_request_abandoned(flow);
                            // Giving up on a lost request is forward
                            // progress: the window slot is usable again.
                            *last_progress = now;
                        } else {
                            stats.record_request_timeout(flow);
                            trace.emit(|| TraceEvent::Timeout {
                                cycle: now,
                                flow: u64::from(flow.0),
                                seq: entry.seq,
                            });
                            requester.deferred.push_back(DeferredRetry {
                                ready: now + policy.backoff_delay(flow, entry.seq, entry.attempts),
                                seq: entry.seq,
                                birth: entry.birth,
                                attempts: entry.attempts,
                                line: entry.line,
                            });
                        }
                    }
                }
                // A retry whose backoff has elapsed re-issues before any
                // fresh request: it already owns a window slot and its
                // requester has waited longest for the data.
                if let Some(deferred) = retry.and_then(|_| requester.pop_ready_retry(now)) {
                    requester.in_flight.push(InFlightRequest {
                        seq: deferred.seq,
                        birth: deferred.birth,
                        sent: now,
                        attempts: deferred.attempts + 1,
                        line: deferred.line,
                    });
                    stats.record_request_retry(flow);
                    trace.emit(|| TraceEvent::Retry {
                        cycle: now,
                        flow: u64::from(flow.0),
                        seq: deferred.seq,
                    });
                    dram_line = deferred.line;
                    req_seq = Some(deferred.seq);
                    logical_birth = Some(deferred.birth);
                    Some(GeneratedPacket {
                        dst: requester.spec.mc,
                        len_flits: requester.spec.request_len,
                        class: PacketClass::Request,
                    })
                } else if requester.can_issue() {
                    if dram_enabled {
                        dram_line = Some(requester_line(flow, requester.issued));
                    }
                    if retry.is_some() {
                        let seq = requester.issued;
                        requester.in_flight.push(InFlightRequest {
                            seq,
                            birth: now,
                            sent: now,
                            attempts: 1,
                            line: dram_line,
                        });
                        req_seq = Some(seq);
                    }
                    requester.outstanding += 1;
                    requester.issued += 1;
                    stats.record_request_issued(flow);
                    Some(GeneratedPacket {
                        dst: requester.spec.mc,
                        len_flits: requester.spec.request_len,
                        class: PacketClass::Request,
                    })
                } else {
                    requester_wake =
                        Some(requester.next_timed_work(retry.map(|policy| policy.deadline)));
                    None
                }
            }
            _ => source.generator.generate(now),
        };
        if let Some(gen) = generated {
            // Generating a packet is forward progress for the watchdog.
            *last_progress = now;
            // `origin_source` stays `None` here: a packet generated at
            // its own flow's source routes ACK/NACK via `flow_to_source`;
            // only controller-injected replies carry an explicit origin.
            let (flow, node) = (source.flow, source.node);
            let id = packets.insert_with(|id| {
                let mut packet =
                    Packet::new(id, flow, node, gen.dst, gen.len_flits, gen.class, now);
                packet.dram_line = dram_line;
                packet.req_seq = req_seq;
                packet.request_birth = logical_birth;
                packet
            });
            source.enqueue_generated(id, gen.len_flits);
        } else {
            // Controller reply port: when the source queue is free, pull
            // the pending reply of the highest-priority flow into it —
            // the controller is a QOS arbitration point, so the reply
            // order follows flow priority, not head-of-line arrival.
            // NACKed replies re-queued at the front drain first.
            let waiting = closed_loop.as_mut().filter(|cl| cl.replies.has_waiting(si));
            let has_waiting = waiting.is_some();
            if let Some(cl) = waiting.filter(|_| {
                source.active.is_none()
                    && source.queue.is_empty()
                    && source.window.len() < source.window_limit
                    && !source.free_vcs.is_empty()
            }) {
                let router = source.router;
                // taqos-lint: allow(panic-index) -- every source injects into a live router
                let (router_state, router_qos) = (&mut routers[router], &*qos[router]);
                let picked = cl
                    .replies
                    .pop_best(si, |flow| reply_priority(router_state, router_qos, flow));
                if let Some((reply, _)) = picked {
                    source.queue.push_back(reply);
                }
            } else if source.active.is_none() && !source.can_start_injection() {
                // Nothing to inject or stream. Requesters and reply
                // ports run idle generators (checked at install), so
                // only a plain source asks its generator whether it is
                // done; a live one keeps its source awake.
                if requester_wake.is_some() || has_waiting || source.generator.exhausted() {
                    // taqos-lint: allow(panic-index) -- the wake array holds one slot per source
                    source_wake[si] = requester_wake.unwrap_or(Cycle::MAX);
                }
                return;
            }
        }

        // 2. Start a new injection if possible.
        if source.can_start_injection() {
            // taqos-lint: allow(panic-path) -- can_start_injection checked the queue is non-empty
            let packet_id = source.queue.pop_front().expect("queue checked non-empty");
            // taqos-lint: allow(panic-path) -- can_start_injection checked a free VC is available
            let vc = source.free_vcs.pop().expect("credit checked available");
            let quota = policy.reserved_quota(source.flow);
            let len = {
                let packet = packets
                    .get_mut(packet_id)
                    // taqos-lint: allow(panic-path) -- queued ids are removed before their packets are freed
                    .expect("queued packet must be live");
                if packet.injected_at.is_none() {
                    packet.injected_at = Some(now);
                    source.injected_packets += 1;
                    let (flow, node) = (packet.flow, source.node);
                    trace.emit(|| TraceEvent::Inject {
                        cycle: now,
                        flow: u64::from(flow.0),
                        packet: packet_id.0,
                        node: u64::from(node.0),
                    });
                }
                packet.len_flits
            };
            let reserved = match quota {
                Some(q) if source.reserved_used_this_frame + u64::from(len) <= q => {
                    source.reserved_used_this_frame += u64::from(len);
                    true
                }
                _ => false,
            };
            packets.set_reserved(packet_id, reserved);
            source.window.insert(packet_id);
            source.active = Some(InjectionTransfer {
                packet: packet_id,
                len,
                vc,
                flits_sent: 0,
            });
        }

        // 3. Stream one flit of the active injection into the router.
        if let Some(transfer) = &mut source.active {
            let router = &mut routers[source.router];
            let port = &mut router.inputs[source.in_port.0];
            let vc_state = &mut port.vcs[transfer.vc.index()];
            if transfer.flits_sent == 0 {
                vc_state.accept_head(transfer.packet, transfer.len, now);
                port.occupied += 1;
                port.unrouted += 1;
                router.active_vcs += 1;
                router.unrouted_vcs += 1;
                mark_router(routing_work, source.router);
                mark_router(alloc_work, source.router);
            } else {
                vc_state.accept_body(transfer.packet);
            }
            transfer.flits_sent += 1;
            stats.energy.buffer_writes += 1;
            if transfer.flits_sent >= transfer.len {
                source.active = None;
            }
        }
    }

    // taqos-lint: hot
    fn phase_routing(&mut self) {
        // Active-set fast path: route computation only concerns heads that
        // arrived since the last routing pass, and routers holding one are
        // tracked in the contiguous `routing_work` mask — scanning it costs
        // a few word loads instead of touching every `RouterState`.
        let mut scan = std::mem::take(&mut self.router_scan);
        scan_routers(&self.routing_work, &mut scan);
        for &ri in &scan {
            let ri = ri as usize;
            let router = &mut self.routers[ri];
            if router.unrouted_vcs == 0 {
                // Stale-set bit (the head was routed or preempted since):
                // reconcile the mask and move on.
                unmark_router(&mut self.routing_work, ri);
                continue;
            }
            let rspec = &self.spec.routers[ri];
            for (pi, port) in router.inputs.iter_mut().enumerate() {
                if port.unrouted == 0 {
                    continue;
                }
                let pspec = &rspec.inputs[pi];
                for (vi, vc) in port.vcs.iter_mut().enumerate() {
                    if let (Some(packet_id), None) = (vc.packet(), vc.route()) {
                        if vc.flits_arrived == 0 {
                            continue;
                        }
                        let packet = self
                            .packets
                            .hot(packet_id)
                            // taqos-lint: allow(panic-path) -- VC occupancy and packet lifetime are updated together
                            .expect("buffered packet must be live");
                        let out = if let Some(fixed) = pspec.fixed_route {
                            fixed
                        } else {
                            // Dense LUT path: same candidates and selection
                            // logic as `compute_route`, minus the tree walk
                            // (`select_route` rejects a missing route).
                            let candidates = router
                                .route_lut
                                .get(packet.dst.index())
                                .map(Vec::as_slice)
                                .unwrap_or(&[]);
                            crate::router::select_route(
                                rspec,
                                pspec,
                                packet.dst,
                                candidates,
                                &mut router.route_rr_cursor,
                            )
                        };
                        vc.set_route(out);
                        port.unrouted -= 1;
                        router.unrouted_vcs -= 1;
                        // Enter the packet into the persistent arbitration
                        // request list of its output, ordered by
                        // (in_port, vc) — the order the reference engine's
                        // rescan gathers in.
                        let request = ArbRequest {
                            in_port: pi as u16,
                            vc: vi as u16,
                            packet: packet_id,
                            flow: packet.flow,
                            len: packet.len_flits,
                            reserved: packet.reserved,
                            target_idx: resolve_target_idx(&rspec.outputs[out.0], packet.dst)
                                as u16,
                            passthrough: pspec.passthrough,
                        };
                        let bucket = &mut router.alloc_buckets[out.0];
                        let pos = bucket
                            .binary_search_by_key(&(pi as u16, vi as u16), |r| (r.in_port, r.vc))
                            .expect_err("VC already has a pending request");
                        bucket.insert(pos, request);
                        if let Some(mask) = router.alloc_dirty.as_mut() {
                            *mask |= 1 << out.0;
                        }
                    }
                }
            }
            // taqos-lint: allow(panic-index) -- scan holds indices of routers whose mask bit was set, all in bounds
            if self.routers[ri].unrouted_vcs == 0 {
                unmark_router(&mut self.routing_work, ri);
            }
        }
        self.router_scan = scan;
    }

    // taqos-lint: hot
    fn phase_allocation(&mut self) {
        let preemption = self.policy.preemption_enabled();
        // Active-set fast path: allocation requests come from buffered
        // packets only, and routers holding one are tracked in the
        // contiguous `alloc_work` mask.
        let mut scan = std::mem::take(&mut self.router_scan);
        scan_routers(&self.alloc_work, &mut scan);
        for &ri in &scan {
            let ri = ri as usize;
            if self.routers[ri].active_vcs == 0 {
                // Stale-set bit (the last occupant drained since).
                unmark_router(&mut self.alloc_work, ri);
                continue;
            }
            for oi in 0..self.routers[ri].outputs.len() {
                let router = &mut self.routers[ri];
                if router.alloc_buckets[oi].is_empty()
                    || !router.outputs[oi].can_grant(self.config.grant_queue_depth)
                {
                    continue;
                }
                // Clean output: nothing feeding this decision changed since
                // the last full evaluation, which ended blocked (a winner
                // would have marked it dirty again). Replay the cached
                // outcome — schedule the same probe, skip the arbitration.
                if router.alloc_dirty.is_some_and(|mask| mask & (1 << oi) == 0) {
                    if let Some(probe) = router.cached_probe[oi] {
                        self.events.schedule(self.now + 1, probe);
                    }
                    continue;
                }
                let mut requests = std::mem::take(&mut router.alloc_buckets[oi]);
                // Priorities only move when this router forwards a packet or
                // a frame rolls over; within an epoch the memoised value is
                // exact, saving the virtual call and f64 division for flows
                // that re-arbitrate.
                let qos = &*self.qos[ri];
                let (winner, blocked) = arbitrate(&requests, router.outputs[oi].rr_cursor, |req| {
                    (
                        cached_priority(router, qos, req.flow),
                        router.outputs[oi].targets[req.target_idx as usize]
                            .has_credit(req.reserved),
                    )
                });
                if let Some(widx) = winner {
                    self.grant(ri, oi, widx, &requests[widx]);
                    // The packet holds a grant now; retire its entry from the
                    // persistent request list. A grant invalidates exactly
                    // this output (its credits were claimed, its grant queue
                    // grew, its cursor moved) plus every output holding a
                    // request of the forwarded flow — `on_packet_forwarded`
                    // moves only that flow's priority (the `RouterQos`
                    // contract), so the other outputs' blocked verdicts
                    // still stand.
                    let granted_flow = requests.remove(widx).flow;
                    let router = &mut self.routers[ri];
                    if let Some(mask) = router.alloc_dirty.as_mut() {
                        *mask |= 1 << oi;
                        for (oj, bucket) in router.alloc_buckets.iter().enumerate() {
                            if bucket.iter().any(|r| r.flow == granted_flow) {
                                *mask |= 1 << oj;
                            }
                        }
                    }
                } else {
                    let probe =
                        self.probe_blocked(ri, oi, blocked.map(|b| &requests[b]), preemption);
                    // Blocked with no state change pending: mark the output
                    // clean and remember the probe to replay.
                    let router = &mut self.routers[ri];
                    if let Some(mask) = router.alloc_dirty.as_mut() {
                        *mask &= !(1 << oi);
                    }
                    router.cached_probe[oi] = probe;
                }
                self.routers[ri].alloc_buckets[oi] = requests;
            }
        }
        self.router_scan = scan;
    }

    /// Grants output `oi` of router `ri` to `requests[widx]`: claims the
    /// downstream VC, queues the transfer for launch and charges the
    /// forwarded flow at the router's QOS state. Shared by both engines.
    // taqos-lint: hot
    fn grant(&mut self, ri: usize, oi: usize, widx: usize, req: &ArbRequest) {
        let now = self.now;
        let router = &mut self.routers[ri];
        let rspec = &self.spec.routers[ri];
        let qos = &mut self.qos[ri];
        let out_state = &mut router.outputs[oi];
        let (to_vc, to_vc_reserved) = out_state.targets[req.target_idx as usize]
            .claim(req.reserved)
            // taqos-lint: allow(panic-path) -- arbitration picks only requests whose target has a credit
            .expect("credit was checked");
        let target = &rspec.outputs[oi].targets[req.target_idx as usize];
        let router_latency = if req.passthrough {
            1
        } else {
            rspec.va_latency + rspec.xt_latency
        };
        // Per-packet flit-maturation template: every non-head flit of this
        // transfer schedules a copy of this event.
        let body_event = match target.endpoint {
            TargetEndpoint::Router { router, in_port } => Event::BodyToRouter {
                router: router as u32,
                in_port: in_port.0 as u16,
                vc: to_vc,
                packet: req.packet,
            },
            TargetEndpoint::Sink { sink } => Event::FlitToSink {
                sink: sink as u32,
                slot: to_vc,
                is_head: false,
                is_tail: false,
                packet: req.packet,
            },
        };
        out_state.granted.push(Transfer {
            packet: req.packet,
            flow: req.flow,
            len: req.len,
            from_port: InPortId(req.in_port as usize),
            from_vc: VcId(req.vc),
            target_idx: req.target_idx as usize,
            endpoint: target.endpoint,
            to_vc,
            to_vc_reserved,
            flits_launched: 0,
            launch_start: now + Cycle::from(router_latency),
            wire_delay: target.wire_delay,
            passthrough: req.passthrough,
            body_event,
        });
        out_state.rr_cursor = widx + 1;
        self.trace.emit(|| TraceEvent::Grant {
            cycle: now,
            flow: u64::from(req.flow.0),
            packet: req.packet.0,
            router: ri as u64,
            out_port: oi as u64,
        });
        if let Some(mask) = router.granted_mask.as_mut() {
            *mask |= 1 << oi;
        }
        mark_router(&mut self.launch_work, ri);
        // taqos-lint: allow(panic-index) -- request coordinates were recorded from an enumeration of these vectors
        router.inputs[req.in_port as usize].vcs[req.vc as usize].set_granted();
        // Flow-state bookkeeping. Pass-through hops skip the energy cost of
        // the query/update but still account the bandwidth so preemption
        // decisions stay meaningful.
        qos.on_packet_forwarded(req.flow, u32::from(req.len));
        // A grant moves only this flow's priority; refresh its memo entry
        // and leave the rest valid.
        // taqos-lint: allow(panic-index) -- the cache is sized to num_flows at construction and flow ids are validated against it
        router.priority_cache[req.flow.index()] = crate::router::PriorityMemo {
            value: qos.priority(req.flow),
            epoch: router.priority_epoch,
        };
        if !req.passthrough {
            self.stats.energy.flow_table_queries += 1;
            self.stats.energy.flow_table_updates += 1;
        }
    }

    /// Everyone at output `oi` of router `ri` is blocked on buffer space:
    /// under a preemptive policy, probe the most deserving blocked request's
    /// target for a lower-priority victim (priority inversion resolution).
    /// Returns the scheduled probe. Shared by both engines.
    // taqos-lint: hot
    fn probe_blocked(
        &mut self,
        ri: usize,
        oi: usize,
        blocked: Option<&ArbRequest>,
        preemption: bool,
    ) -> Option<Event> {
        let req = blocked.filter(|_| preemption)?;
        let target = &self.spec.routers[ri].outputs[oi].targets[req.target_idx as usize];
        let TargetEndpoint::Router { router, in_port } = target.endpoint else {
            return None;
        };
        let probe = Event::PreemptionProbe {
            router: router as u32,
            in_port: in_port.0 as u16,
            contender: req.flow,
        };
        self.events.schedule(self.now + 1, probe);
        Some(probe)
    }

    // taqos-lint: hot
    fn phase_launch(&mut self) {
        // Whether any fault plan is live this cycle, hoisted so the per-launch
        // fault interception is only entered when one is.
        let faults_on = self.fault.as_ref().is_some_and(|f| f.any_active());
        // Active-set fast path: only routers holding granted transfers can
        // launch, and those are tracked in the contiguous `launch_work`
        // mask (within a router, `granted_mask` then walks the granted
        // outputs, falling back to every output for >64-output routers).
        let mut scan = std::mem::take(&mut self.router_scan);
        scan_routers(&self.launch_work, &mut scan);
        for &ri in &scan {
            let ri = ri as usize;
            // taqos-lint: allow(panic-index) -- scan holds indices of routers whose mask bit was set, all in bounds
            let router = &self.routers[ri];
            let granted = router.granted_mask;
            if granted == Some(0) || (granted.is_none() && router.active_vcs == 0) {
                // Stale-set bit (the last transfer completed since).
                unmark_router(&mut self.launch_work, ri);
                continue;
            }
            self.launch_router(ri, granted, faults_on);
        }
        self.router_scan = scan;
    }

    /// Launches one flit from every output of router `ri` whose head
    /// transfer is ready, visiting the set bits of `granted` or, when it is
    /// `None`, every output (ascending either way). Shared by both engines.
    // taqos-lint: hot
    fn launch_router(&mut self, ri: usize, granted: Option<u64>, faults_on: bool) {
        let now = self.now;
        // Crossbar input groups already used this cycle (bitmask).
        let mut xbar_used: u64 = 0;
        let mut mask_bits = granted.unwrap_or(0);
        let mut linear_oi = 0;
        loop {
            // taqos-lint: allow(panic-index) -- callers pass a live router index
            let router = &mut self.routers[ri];
            let oi = if granted.is_some() {
                if mask_bits == 0 {
                    break;
                }
                let oi = mask_bits.trailing_zeros() as usize;
                mask_bits &= mask_bits - 1;
                oi
            } else {
                if linear_oi >= router.outputs.len() {
                    break;
                }
                linear_oi += 1;
                linear_oi - 1
            };
            let out_state = &router.outputs[oi];
            let Some(transfer) = out_state.granted.first() else {
                continue;
            };
            if out_state.link_free_at > now || transfer.launch_start > now {
                continue;
            }
            let from_port = transfer.from_port.0;
            let from_vc = transfer.from_vc.index();
            let passthrough = transfer.passthrough;
            // taqos-lint: allow(panic-index) -- xbar_groups is built 1:1 with the router's input ports
            let group = router.xbar_groups[from_port];
            if !passthrough && (xbar_used >> group) & 1 == 1 {
                continue;
            }
            if router.inputs[from_port].vcs[from_vc].sendable_flits() == 0 {
                continue;
            }
            if faults_on && transfer.flits_launched == 0 && self.fault_intercepts(ri, oi) {
                continue;
            }

            // Launch one flit.
            // taqos-lint: allow(panic-index) -- callers pass a live router index
            let router = &mut self.routers[ri];
            let out_state = &mut router.outputs[oi];
            let transfer = &mut out_state.granted[0];
            let flit_idx = transfer.flits_launched;
            let is_head = flit_idx == 0;
            let is_tail = flit_idx + 1 == transfer.len;
            transfer.flits_launched += 1;
            out_state.link_free_at = now + 1;
            out_state.flits_launched_total += 1;
            router.inputs[from_port].vcs[from_vc].flits_sent += 1;

            self.stats.energy.buffer_reads += 1;
            self.stats.energy.link_flit_hops += u64::from(transfer.wire_delay);
            if !passthrough {
                xbar_used |= 1 << group;
                self.stats.energy.xbar_flits += 1;
            }

            let due = now + Cycle::from(transfer.wire_delay);
            let event = match transfer.endpoint {
                TargetEndpoint::Router { router, in_port } if is_head => Event::HeadToRouter {
                    router: router as u32,
                    in_port: in_port.0 as u16,
                    vc: transfer.to_vc,
                    len: transfer.len,
                    packet: transfer.packet,
                },
                TargetEndpoint::Sink { sink } if is_head || is_tail => Event::FlitToSink {
                    sink: sink as u32,
                    slot: transfer.to_vc,
                    is_head,
                    is_tail,
                    packet: transfer.packet,
                },
                // Body and tail flits replay the per-packet template built
                // at grant time.
                _ => transfer.body_event,
            };
            self.events.schedule(due, event);
            if transfer.is_complete() {
                retire_transfer(router, oi, &mut self.events, now + self.config.credit_delay);
            }
        }
    }

    /// Injected faults intercept whole packets at head launch: a dead output
    /// link, a dead router at either end of it, or a corrupted head flit
    /// kills the head transfer of output `oi` at router `ri` before anything
    /// reaches the wire. The drop has whole-packet (virtual cut-through)
    /// granularity and fires only once every flit is buffered at this
    /// router, so no body flit is ever in flight towards a VC released here;
    /// a hard fault simply holds the head until the packet is fully
    /// resident. The claimed resources are released exactly as a completed
    /// transfer's would be, and the packet is NACKed back to its source — or
    /// abandoned once the fault retransmit budget is spent. Returns whether
    /// the head was held or dropped.
    // taqos-lint: hot
    fn fault_intercepts(&mut self, ri: usize, oi: usize) -> bool {
        let Some(fault) = self.fault.as_ref() else {
            return false;
        };
        let now = self.now;
        // taqos-lint: allow(panic-index) -- callers pass a live router index
        let router = &mut self.routers[ri];
        let transfer = &router.outputs[oi].granted[0];
        let dest_router_dead = match transfer.endpoint {
            TargetEndpoint::Router { router, .. } => fault.router_dead(router),
            TargetEndpoint::Sink { .. } => false,
        };
        let hard = fault.router_dead(ri) || dest_router_dead || fault.link_dead(ri, oi);
        let resident = router.inputs[transfer.from_port.0].vcs[transfer.from_vc.index()]
            .flits_arrived
            >= transfer.len;
        if hard && !resident {
            return true;
        }
        let corrupt =
            !hard && resident && fault.corrupts(now, ri, oi, transfer.flow.index() as u64);
        if !hard && !corrupt {
            return false;
        }
        if corrupt {
            self.stats.fault.corruption_drops += 1;
        } else if fault.router_dead(ri) || dest_router_dead {
            self.stats.fault.router_drops += 1;
        } else {
            self.stats.fault.link_drops += 1;
        }
        let transfer =
            retire_transfer(router, oi, &mut self.events, now + self.config.credit_delay);
        // No flit will ever consume the downstream VC claimed at grant time:
        // refund its credit here.
        router.outputs[oi].targets[transfer.target_idx]
            .refund(transfer.to_vc, transfer.to_vc_reserved);
        let node = router.node;
        let (flow, src, origin) = {
            let packet = self
                .packets
                .get(transfer.packet)
                // taqos-lint: allow(panic-path) -- fault drops target in-flight packets only
                .expect("dropped packet must be live");
            (packet.flow, packet.src, packet.origin_source)
        };
        self.fault_bounce(transfer.packet, flow, origin, src.column_distance(node));
        true
    }

    /// The optimized engine's preemption probe: the policy picks the victim
    /// from memoised priorities, and a flushed routed victim's entry is
    /// retired from its output's persistent request list.
    // taqos-lint: hot
    fn handle_preemption_probe(&mut self, router: usize, in_port: usize, contender: FlowId) {
        let preempted = self.preemption_probe(router, in_port, |net, candidates| {
            // Annotate candidates with memoised priorities so the policy's
            // victim choice needs no per-probe priority recomputation.
            let mut prioritized = std::mem::take(&mut net.probe_prioritized_scratch);
            prioritized.clear();
            let (router_state, qos) = (&mut net.routers[router], &*net.qos[router]);
            for &(pid, flow, reserved) in candidates {
                prioritized.push((
                    pid,
                    flow,
                    reserved,
                    cached_priority(router_state, qos, flow),
                ));
            }
            let contender_priority = cached_priority(router_state, qos, contender);
            let victim = qos.select_victim_prioritized(contender, contender_priority, &prioritized);
            net.probe_prioritized_scratch = prioritized;
            victim
        });
        // Routed but never granted: the victim still sits in its output's
        // persistent request list; retire the entry and invalidate that
        // output's cached decision.
        if let Some((vc_idx, Some(out))) = preempted {
            // taqos-lint: allow(panic-index) -- probes address live routers (checked at spec validation)
            let router_state = &mut self.routers[router];
            let bucket = &mut router_state.alloc_buckets[out.0];
            let pos = bucket
                .binary_search_by_key(&(in_port as u16, vc_idx as u16), |r| (r.in_port, r.vc))
                // taqos-lint: allow(panic-path) -- routing files a request for every routed, ungranted VC
                .expect("preempted packet must have a pending request");
            bucket.remove(pos);
            router_state.mark_output_dirty(out.0);
        }
    }

    /// A preemption probe at input port `in_port` of `router`: gathers the
    /// port's resident, idle packets, lets `select_victim` pick one, and
    /// flushes it — freeing its VC, returning the credit upstream and
    /// NACKing the packet back to its source. Returns the flushed VC and
    /// the route it had been assigned. Shared by both engines.
    // taqos-lint: hot
    fn preemption_probe(
        &mut self,
        router: usize,
        in_port: usize,
        select_victim: impl FnOnce(&mut Network, &[(PacketId, FlowId, bool)]) -> Option<PacketId>,
    ) -> Option<(usize, Option<OutPortId>)> {
        // Victim candidates are gathered into a reusable buffer: under
        // saturation a probe fires for every blocked output every cycle, so
        // this path must not allocate.
        let mut candidates = std::mem::take(&mut self.probe_scratch);
        candidates.clear();
        for vc in &self.routers[router].inputs[in_port].vcs {
            if vc.is_resident_idle() {
                // taqos-lint: allow(panic-path) -- is_resident_idle implies an occupant
                let pid = vc.packet().expect("resident VC has a packet");
                if let Some(packet) = self.packets.hot(pid) {
                    candidates.push((pid, packet.flow, packet.reserved));
                }
            }
        }
        let victim = if candidates.is_empty() {
            None
        } else {
            select_victim(self, &candidates)
        };
        self.probe_scratch = candidates;
        let victim_id = victim?;
        // Locate and flush the victim VC.
        let router_state = &mut self.routers[router];
        let node = router_state.node;
        let port = &mut router_state.inputs[in_port];
        let vc_idx = port
            .vcs
            .iter()
            .position(|vc| vc.packet() == Some(victim_id) && vc.is_resident_idle())?;
        // taqos-lint: allow(panic-index) -- vc_idx was just produced by position() over this vector
        let vc = &mut port.vcs[vc_idx];
        let was_reserved_vc = vc.reserved_vc();
        // A victim can be flushed in the event phase of the same cycle its
        // head arrived, i.e. before the routing phase ran; keep the
        // unrouted bookkeeping exact in that case.
        let victim_route = vc.route();
        vc.release();
        port.occupied -= 1;
        let feeder = port.feeder;
        router_state.active_vcs -= 1;
        if victim_route.is_none() {
            port.unrouted -= 1;
            router_state.unrouted_vcs -= 1;
        }

        // As in delivery, only scalar fields of the victim are needed.
        let (victim_flow, victim_src, victim_origin) = {
            let victim = self
                .packets
                .get(victim_id)
                // taqos-lint: allow(panic-path) -- preemption victims are chosen from live residents
                .expect("victim packet must be live");
            (victim.flow, victim.src, victim.origin_source)
        };
        let wasted_hops = victim_src.column_distance(node);
        self.stats.record_preemption(victim_flow, wasted_hops);
        let cycle = self.now;
        self.trace.emit(|| TraceEvent::Preempt {
            cycle,
            flow: u64::from(victim_flow.0),
            packet: victim_id.0,
            router: router as u64,
        });

        // Return the freed buffer to the upstream channel so the contender
        // can claim it.
        return_credit(
            &mut self.events,
            feeder,
            self.now + self.config.credit_delay,
            vc_idx,
            was_reserved_vc,
        );

        // NACK the injecting source over the ACK network; it will retransmit
        // (for closed-loop replies, the controller's source).
        let source = victim_origin
            .map(|s| s as usize)
            .unwrap_or_else(|| self.flow_to_source[victim_flow.index()]);
        self.events.schedule(
            self.now + self.config.ack_latency(wasted_hops),
            Event::Nack {
                source: source as u32,
                packet: victim_id,
            },
        );
        Some((vc_idx, victim_route))
    }
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("topology", &self.spec.name)
            .field("policy", &self.policy.name())
            .field("now", &self.now)
            .field("routers", &self.routers.len())
            .field("sources", &self.sources.len())
            .field("sinks", &self.sinks.len())
            .field("live_packets", &self.packets.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Direction, NodeId, OutPortId};
    use crate::packet::{GeneratedPacket, PacketGenerator};
    use crate::qos::FifoPolicy;
    use crate::spec::{
        InputPortSpec, OutputPortSpec, RouterSpec, SinkSpec, SourceSpec, TargetSpec, VcConfig,
    };
    use std::collections::BTreeMap;

    /// Generator producing a fixed number of single-flit packets, one every
    /// `gap` cycles.
    struct BurstGenerator {
        dst: NodeId,
        remaining: u32,
        gap: u64,
        len: u8,
    }

    impl PacketGenerator for BurstGenerator {
        fn generate(&mut self, now: Cycle) -> Option<GeneratedPacket> {
            if self.remaining == 0 || !now.is_multiple_of(self.gap) {
                return None;
            }
            self.remaining -= 1;
            Some(GeneratedPacket {
                dst: self.dst,
                len_flits: self.len,
                class: crate::packet::PacketClass::Request,
            })
        }

        fn exhausted(&self) -> bool {
            self.remaining == 0
        }
    }

    /// Two-router chain: source at node 0 sends to the sink at node 1.
    fn chain_spec_with(injection_vcs: u8) -> NetworkSpec {
        let r0 = RouterSpec {
            node: NodeId(0),
            inputs: vec![InputPortSpec::injection(
                "term",
                VcConfig::new(injection_vcs, 4),
                0,
            )],
            outputs: vec![OutputPortSpec::network(
                "south",
                Direction::South,
                0,
                vec![TargetSpec::single(
                    TargetEndpoint::Router {
                        router: 1,
                        in_port: InPortId(0),
                    },
                    1,
                )],
            )],
            route_table: BTreeMap::from([(NodeId(1), vec![OutPortId(0)])]),
            va_latency: 1,
            xt_latency: 1,
        };
        let r1 = RouterSpec {
            node: NodeId(1),
            inputs: vec![InputPortSpec::network(
                "north",
                NodeId(0),
                Direction::South,
                0,
                VcConfig::new(2, 4),
                0,
            )],
            outputs: vec![OutputPortSpec::ejection("eject", 0, 0)],
            route_table: BTreeMap::from([(NodeId(1), vec![OutPortId(0)])]),
            va_latency: 1,
            xt_latency: 1,
        };
        NetworkSpec {
            name: "chain".to_string(),
            routers: vec![r0, r1],
            sources: vec![SourceSpec {
                flow: FlowId(0),
                node: NodeId(0),
                router: 0,
                in_port: InPortId(0),
                name: "n0.term".to_string(),
                window: 8,
            }],
            sinks: vec![SinkSpec {
                node: NodeId(1),
                name: "n1.sink".to_string(),
                slots: 2,
            }],
            flit_bytes: 16,
        }
    }

    fn chain_spec() -> NetworkSpec {
        chain_spec_with(1)
    }

    fn build_chain(count: u32, gap: u64, len: u8) -> Network {
        build_chain_with(chain_spec(), count, gap, len)
    }

    fn build_chain_with(spec: NetworkSpec, count: u32, gap: u64, len: u8) -> Network {
        let generators: Vec<Box<dyn PacketGenerator>> = vec![Box::new(BurstGenerator {
            dst: NodeId(1),
            remaining: count,
            gap,
            len,
        })];
        Network::new(
            spec,
            Box::new(FifoPolicy::new()),
            generators,
            SimConfig::default(),
        )
        .expect("chain network builds")
    }

    #[test]
    fn single_packet_is_delivered_with_expected_latency() {
        let mut net = build_chain(1, 1, 1);
        for _ in 0..100 {
            net.step();
            if net.is_quiescent() {
                break;
            }
        }
        assert!(net.is_quiescent(), "packet should be delivered and acked");
        let stats = net.into_stats();
        assert_eq!(stats.delivered_packets, 1);
        assert_eq!(stats.delivered_flits, 1);
        assert_eq!(stats.latency_samples, 1);
        // Birth -> injection (1 cycle) -> router 0 pipeline (2) -> wire (1)
        // -> router 1 pipeline (2) -> ejection. The exact constant is not the
        // point; it must be small and deterministic.
        assert!(stats.avg_latency() >= 5.0);
        assert!(
            stats.avg_latency() <= 12.0,
            "latency {}",
            stats.avg_latency()
        );
        assert_eq!(stats.useful_hops, 1);
        assert_eq!(stats.preemption_events, 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut net = build_chain(50, 3, 2);
            for _ in 0..2_000 {
                net.step();
                if net.is_quiescent() {
                    break;
                }
            }
            let stats = net.into_stats();
            (stats.delivered_packets, stats.latency_sum, stats.cycles)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn all_packets_of_a_burst_are_delivered() {
        let mut net = build_chain(200, 1, 1);
        for _ in 0..5_000 {
            net.step();
            if net.is_quiescent() {
                break;
            }
        }
        assert!(net.is_quiescent(), "burst should drain");
        let stats = net.into_stats();
        assert_eq!(stats.delivered_packets, 200);
        assert_eq!(stats.generated_packets, 200);
        assert_eq!(stats.flows[0].delivered_packets, 200);
    }

    #[test]
    fn multi_flit_packets_account_all_flits() {
        let mut net = build_chain(10, 5, 4);
        for _ in 0..2_000 {
            net.step();
            if net.is_quiescent() {
                break;
            }
        }
        assert!(net.is_quiescent());
        let stats = net.into_stats();
        assert_eq!(stats.delivered_packets, 10);
        assert_eq!(stats.delivered_flits, 40);
        // Every flit is written once at the injection port, once at the
        // downstream router; read twice (once per launch).
        assert_eq!(stats.energy.buffer_writes, 80);
        assert_eq!(stats.energy.buffer_reads, 80);
        assert_eq!(stats.energy.xbar_flits, 80);
    }

    /// Three-router spec where router 0 drives a MECS-style multidrop channel
    /// whose two targets are routers 1 and 2 (wire delays 1 and 2); each
    /// downstream router ejects into its own sink.
    fn multidrop_spec() -> NetworkSpec {
        let vcs = VcConfig::new(4, 4);
        let downstream = |node: u16| RouterSpec {
            node: NodeId(node),
            inputs: vec![InputPortSpec::network(
                "from_n0",
                NodeId(0),
                Direction::South,
                0,
                vcs,
                0,
            )],
            outputs: vec![OutputPortSpec::ejection("eject", (node - 1) as usize, 0)],
            route_table: BTreeMap::from([(NodeId(node), vec![OutPortId(0)])]),
            va_latency: 2,
            xt_latency: 1,
        };
        let r0 = RouterSpec {
            node: NodeId(0),
            inputs: vec![InputPortSpec::injection("term", VcConfig::new(2, 4), 0)],
            outputs: vec![OutputPortSpec::network(
                "mecs_south",
                Direction::South,
                0,
                vec![
                    TargetSpec::covering(
                        TargetEndpoint::Router {
                            router: 1,
                            in_port: InPortId(0),
                        },
                        1,
                        vec![NodeId(1)],
                    ),
                    TargetSpec::covering(
                        TargetEndpoint::Router {
                            router: 2,
                            in_port: InPortId(0),
                        },
                        2,
                        vec![NodeId(2)],
                    ),
                ],
            )],
            route_table: BTreeMap::from([
                (NodeId(1), vec![OutPortId(0)]),
                (NodeId(2), vec![OutPortId(0)]),
            ]),
            va_latency: 2,
            xt_latency: 1,
        };
        NetworkSpec {
            name: "multidrop".to_string(),
            routers: vec![r0, downstream(1), downstream(2)],
            sources: vec![SourceSpec {
                flow: FlowId(0),
                node: NodeId(0),
                router: 0,
                in_port: InPortId(0),
                name: "n0.term".to_string(),
                window: 8,
            }],
            sinks: vec![
                SinkSpec {
                    node: NodeId(1),
                    name: "n1.sink".to_string(),
                    slots: 2,
                },
                SinkSpec {
                    node: NodeId(2),
                    name: "n2.sink".to_string(),
                    slots: 2,
                },
            ],
            flit_bytes: 16,
        }
    }

    /// Generator alternating between two fixed destinations.
    struct AlternatingGenerator {
        destinations: Vec<NodeId>,
        remaining: u32,
        next: usize,
    }

    impl PacketGenerator for AlternatingGenerator {
        fn generate(&mut self, _now: Cycle) -> Option<GeneratedPacket> {
            if self.remaining == 0 {
                return None;
            }
            self.remaining -= 1;
            let dst = self.destinations[self.next % self.destinations.len()];
            self.next += 1;
            Some(GeneratedPacket {
                dst,
                len_flits: 1,
                class: crate::packet::PacketClass::Request,
            })
        }

        fn exhausted(&self) -> bool {
            self.remaining == 0
        }
    }

    #[test]
    fn multidrop_channels_deliver_to_the_right_drop_off_point() {
        // A MECS-style point-to-multipoint channel must steer each packet to
        // the target covering its destination, sharing one physical channel.
        let generators: Vec<Box<dyn PacketGenerator>> = vec![Box::new(AlternatingGenerator {
            destinations: vec![NodeId(1), NodeId(2)],
            remaining: 40,
            next: 0,
        })];
        let mut net = Network::new(
            multidrop_spec(),
            Box::new(FifoPolicy::new()),
            generators,
            SimConfig::default(),
        )
        .expect("multidrop network builds");
        for _ in 0..3_000 {
            net.step();
            if net.is_quiescent() {
                break;
            }
        }
        assert!(net.is_quiescent(), "all packets should be delivered");
        let stats = net.into_stats();
        assert_eq!(stats.delivered_packets, 40);
        // Both destinations received their half of the traffic: each packet
        // travelled exactly one hop (to node 1) or two hop-equivalents (to
        // node 2), so total useful hops are 20*1 + 20*2.
        assert_eq!(stats.useful_hops, 60);
        // The farther drop-off point pays the longer wire: total link
        // flit-hops are 20*1 + 20*2 as well.
        assert_eq!(stats.energy.link_flit_hops, 60);
    }

    #[test]
    fn throughput_saturates_near_link_rate() {
        // Offered load far exceeds the single-channel capacity. With two
        // injection VCs and long packets the channel pipelines back-to-back
        // transfers, so accepted throughput must approach (and never exceed)
        // one flit per cycle.
        let mut net = build_chain_with(chain_spec_with(2), 10_000, 1, 4);
        net.run_for(3_000);
        let delivered = net.delivered_flits();
        assert!(delivered > 2_300, "delivered only {delivered} flits");
        assert!(delivered <= 3_000);
    }

    /// Two routers wired in both directions, a source and a sink at each
    /// node: the smallest fabric on which a request/reply round trip runs.
    fn bidirectional_spec() -> NetworkSpec {
        let vcs = VcConfig::new(4, 4);
        let router = |node: u16, peer: u16| RouterSpec {
            node: NodeId(node),
            inputs: vec![
                InputPortSpec::injection("term", VcConfig::new(2, 4), 0),
                InputPortSpec::network(
                    "in",
                    NodeId(peer),
                    if node == 1 {
                        Direction::South
                    } else {
                        Direction::North
                    },
                    0,
                    vcs,
                    1,
                ),
            ],
            outputs: vec![
                OutputPortSpec::network(
                    "out",
                    if node == 0 {
                        Direction::South
                    } else {
                        Direction::North
                    },
                    0,
                    vec![TargetSpec::single(
                        TargetEndpoint::Router {
                            router: peer as usize,
                            in_port: InPortId(1),
                        },
                        1,
                    )],
                ),
                OutputPortSpec::ejection("eject", node as usize, 0),
            ],
            route_table: BTreeMap::from([
                (NodeId(peer), vec![OutPortId(0)]),
                (NodeId(node), vec![OutPortId(1)]),
            ]),
            va_latency: 1,
            xt_latency: 1,
        };
        let source = |node: u16| SourceSpec {
            flow: FlowId(node),
            node: NodeId(node),
            router: node as usize,
            in_port: InPortId(0),
            name: format!("n{node}.term"),
            window: 8,
        };
        let sink = |node: u16| SinkSpec {
            node: NodeId(node),
            name: format!("n{node}.sink"),
            slots: 2,
        };
        NetworkSpec {
            name: "bidi".to_string(),
            routers: vec![router(0, 1), router(1, 0)],
            sources: vec![source(0), source(1)],
            sinks: vec![sink(0), sink(1)],
            flit_bytes: 16,
        }
    }

    fn closed_loop_network(
        mlp: usize,
        total: Option<u64>,
        retry: Option<crate::closed_loop::RetryPolicy>,
    ) -> Network {
        let generators: Vec<Box<dyn PacketGenerator>> = vec![
            Box::new(crate::packet::IdleGenerator),
            Box::new(crate::packet::IdleGenerator),
        ];
        let mut requester = crate::closed_loop::RequesterSpec::paper(NodeId(1), mlp);
        requester.total = total;
        let mut spec =
            crate::closed_loop::ClosedLoopSpec::new(2).with_requester(FlowId(0), requester);
        spec.retry = retry;
        Network::new(
            bidirectional_spec(),
            Box::new(FifoPolicy::new()),
            generators,
            SimConfig::default(),
        )
        .expect("bidirectional network builds")
        .with_closed_loop(spec)
        .expect("closed loop installs")
    }

    #[test]
    fn closed_loop_round_trips_complete_and_conserve() {
        // A deadline too long to ever expire behaves like no retry policy.
        let endless = crate::closed_loop::RetryPolicy::new(Cycle::MAX, 2);
        for retry in [None, Some(endless)] {
            let mut net = closed_loop_network(2, Some(20), retry);
            for _ in 0..5_000 {
                net.step();
                if net.is_quiescent() {
                    break;
                }
            }
            assert!(net.is_quiescent(), "bounded closed loop should complete");
            let stats = net.into_stats();
            // 20 requests and 20 replies, all delivered, none timed out.
            assert_eq!(stats.flows[0].issued_requests, 20);
            assert_eq!(stats.flows[0].request_timeouts, 0);
            assert_eq!(stats.round_trips, 20);
            assert_eq!(stats.flows[0].round_trips, 20);
            assert_eq!(stats.delivered_packets, 40);
            // 20 single-flit requests + 20 four-flit replies.
            assert_eq!(stats.delivered_flits, 20 + 80);
            // Replies are generated at the controller's source but travel on
            // the requester's flow.
            assert_eq!(stats.flows[1].generated_packets, 20);
            assert_eq!(stats.flows[0].delivered_flits, 80 + 20);
            assert!(stats.avg_round_trip().expect("round trips measured") > 0.0);
            // The round trip covers both directions, so it exceeds the
            // one-way request latency.
            assert!(stats.avg_round_trip().unwrap() > stats.avg_latency());
        }
    }

    #[test]
    fn mlp_window_self_limits_throughput() {
        let run = |mlp: usize| {
            let mut net = closed_loop_network(mlp, None, None);
            net.run_for(2_000);
            net.into_stats().round_trips
        };
        let shallow = run(1);
        let deep = run(4);
        assert!(shallow > 0, "even MLP 1 makes progress");
        assert!(
            deep > shallow,
            "a deeper window must sustain more round trips ({deep} vs {shallow})"
        );
    }

    #[test]
    fn closed_loop_rejects_mismatched_specs() {
        let generators: Vec<Box<dyn PacketGenerator>> = vec![
            Box::new(crate::packet::IdleGenerator),
            Box::new(crate::packet::IdleGenerator),
        ];
        let net = Network::new(
            bidirectional_spec(),
            Box::new(FifoPolicy::new()),
            generators,
            SimConfig::default(),
        )
        .expect("network builds");
        // Wrong flow count.
        assert!(net
            .with_closed_loop(crate::closed_loop::ClosedLoopSpec::new(1))
            .is_err());

        // A producing generator at the controller's source would starve the
        // reply port: rejected at install time.
        let generators: Vec<Box<dyn PacketGenerator>> = vec![
            Box::new(crate::packet::IdleGenerator),
            Box::new(BurstGenerator {
                dst: NodeId(0),
                remaining: 100,
                gap: 1,
                len: 1,
            }),
        ];
        let net = Network::new(
            bidirectional_spec(),
            Box::new(FifoPolicy::new()),
            generators,
            SimConfig::default(),
        )
        .expect("network builds");
        let spec = crate::closed_loop::ClosedLoopSpec::new(2).with_requester(
            FlowId(0),
            crate::closed_loop::RequesterSpec::paper(NodeId(1), 2),
        );
        assert!(net.with_closed_loop(spec).is_err());
    }

    fn closed_loop_dram_network(
        mlp: usize,
        total: Option<u64>,
        dram: crate::closed_loop::DramConfig,
    ) -> Network {
        let generators: Vec<Box<dyn PacketGenerator>> = vec![
            Box::new(crate::packet::IdleGenerator),
            Box::new(crate::packet::IdleGenerator),
        ];
        let mut requester = crate::closed_loop::RequesterSpec::paper(NodeId(1), mlp);
        requester.total = total;
        let spec = crate::closed_loop::ClosedLoopSpec::new(2)
            .with_requester(FlowId(0), requester)
            .with_dram(dram);
        Network::new(
            bidirectional_spec(),
            Box::new(FifoPolicy::new()),
            generators,
            SimConfig::default(),
        )
        .expect("bidirectional network builds")
        .with_closed_loop(spec)
        .expect("closed loop installs")
    }

    fn run_to_quiescence(net: &mut Network, max_cycles: u64) {
        for _ in 0..max_cycles {
            net.step();
            if net.is_quiescent() {
                return;
            }
        }
        panic!("closed loop did not complete within {max_cycles} cycles");
    }

    #[test]
    fn dram_service_time_extends_the_round_trip_exactly() {
        // One uncontended request: the DRAM-backed round trip is the instant
        // controller's round trip plus exactly one row-miss service latency
        // (a cold bank's first access always misses).
        let mut plain = closed_loop_network(1, Some(1), None);
        run_to_quiescence(&mut plain, 1_000);
        let plain = plain.into_stats();

        let dram = crate::closed_loop::DramConfig::paper().with_latencies(18, 48);
        let mut backed = closed_loop_dram_network(1, Some(1), dram);
        run_to_quiescence(&mut backed, 1_000);
        let backed = backed.into_stats();

        assert_eq!(backed.dram.serviced_requests, 1);
        assert_eq!(backed.dram.row_misses, 1);
        assert_eq!(backed.dram.row_hits, 0);
        assert_eq!(backed.dram.bank_busy_cycles, 48);
        assert_eq!(
            backed.avg_round_trip().expect("round trip measured"),
            plain.avg_round_trip().expect("round trip measured") + 48.0,
        );
    }

    #[test]
    fn row_buffer_hits_follow_the_open_row_deterministically() {
        // A single-bank controller with 4-line rows serving a strictly
        // sequential (MLP 1) stream of 8 lines: lines 0–3 share row 0 and
        // lines 4–7 share row 1, so exactly the two row openings miss.
        let dram = crate::closed_loop::DramConfig::paper()
            .with_banks(1)
            .with_lines_per_row(4);
        let mut net = closed_loop_dram_network(1, Some(8), dram);
        run_to_quiescence(&mut net, 5_000);
        let stats = net.into_stats();
        assert_eq!(stats.dram.serviced_requests, 8);
        assert_eq!(stats.dram.row_misses, 2);
        assert_eq!(stats.dram.row_hits, 6);
        assert_eq!(
            stats.dram.bank_busy_cycles,
            2 * dram.row_miss_latency + 6 * dram.row_hit_latency
        );
        assert_eq!(stats.dram.row_hit_rate(), Some(0.75));
        assert_eq!(stats.round_trips, 8);
    }

    #[test]
    fn full_queue_nacks_retry_and_still_conserve_round_trips() {
        // A one-entry queue in front of one slow bank, hammered through a
        // deep window: overflow requests are NACKed and retransmitted, yet
        // every request completes exactly one round trip and is counted as
        // delivered exactly once.
        let dram = crate::closed_loop::DramConfig::paper()
            .with_banks(1)
            .with_queue_depth(1)
            .with_latencies(40, 80);
        let mut net = closed_loop_dram_network(8, Some(20), dram);
        run_to_quiescence(&mut net, 50_000);
        // The sink counters agree with the stats: rejected arrivals are
        // discarded, not delivered, so both count each packet exactly once.
        // 20 single-flit requests + 20 four-flit replies.
        assert_eq!(net.delivered_flits(), 20 + 80);
        let stats = net.into_stats();
        assert!(
            stats.dram.rejected_requests > 0,
            "a 1-deep queue under MLP 8 must overflow"
        );
        assert_eq!(stats.flows[0].dram_rejections, stats.dram.rejected_requests);
        assert!(
            stats.flows[0].retransmissions >= stats.dram.rejected_requests,
            "every rejection forces a retransmission"
        );
        assert_eq!(stats.dram.stalled_requests, 0);
        assert_eq!(stats.round_trips, 20);
        assert_eq!(stats.dram.serviced_requests, 20);
        // 20 requests + 20 replies, each recorded delivered exactly once
        // (rejected arrivals are not deliveries).
        assert_eq!(stats.delivered_packets, 40);
        assert_eq!(stats.generated_packets, 40);
        assert!(stats.dram.max_queue_occupancy <= 1);
    }

    #[test]
    fn stall_backpressure_holds_credits_instead_of_nacking() {
        let dram = crate::closed_loop::DramConfig::paper()
            .with_banks(1)
            .with_queue_depth(1)
            .with_latencies(40, 80)
            .with_backpressure(crate::closed_loop::DramBackpressure::Stall);
        let mut net = closed_loop_dram_network(8, Some(20), dram);
        run_to_quiescence(&mut net, 50_000);
        let stats = net.into_stats();
        assert!(
            stats.dram.stalled_requests > 0,
            "a 1-deep queue under MLP 8 must stall arrivals"
        );
        assert_eq!(stats.dram.rejected_requests, 0);
        assert_eq!(
            stats.flows[0].retransmissions, 0,
            "stalling must not generate retry traffic"
        );
        assert_eq!(stats.round_trips, 20);
        assert_eq!(stats.delivered_packets, 40);
        assert!(stats.dram.avg_queue_wait().expect("requests waited") > 0.0);
    }

    #[test]
    fn closed_page_policy_pays_activate_plus_cas_on_every_access() {
        // The same 8-line sequential stream as the open-page test above:
        // under the closed-page policy nothing ever hits (the bank
        // auto-precharges), but every access costs only activate + CAS.
        let dram = crate::closed_loop::DramConfig::paper()
            .with_banks(1)
            .with_lines_per_row(4)
            .with_page_policy(crate::closed_loop::PagePolicy::Closed);
        let mut net = closed_loop_dram_network(1, Some(8), dram);
        run_to_quiescence(&mut net, 5_000);
        let stats = net.into_stats();
        assert_eq!(stats.dram.serviced_requests, 8);
        assert_eq!(stats.dram.row_hits, 0);
        assert_eq!(stats.dram.row_misses, 8);
        assert_eq!(stats.dram.row_hit_rate(), Some(0.0));
        assert_eq!(stats.dram.bank_busy_cycles, 8 * dram.closed_page_latency());
        assert_eq!(stats.round_trips, 8);
    }

    #[test]
    fn priority_schedulers_preserve_uncontended_timing_and_conservation() {
        // A single uncontended flow: FR-FCFS has nothing to reorder and
        // priority admission nothing to evict (a flow never outranks
        // itself), so round-trip timing matches FCFS exactly even though
        // delivery is deferred to service start — and a saturated one-entry
        // queue degrades to pure overflow NACKs, conserving every round
        // trip.
        let fcfs = crate::closed_loop::DramConfig::paper();
        let mut baseline = closed_loop_dram_network(1, Some(4), fcfs);
        run_to_quiescence(&mut baseline, 5_000);
        let baseline = baseline.into_stats();
        for scheduler in [
            crate::closed_loop::DramScheduler::PriorityAdmission,
            crate::closed_loop::DramScheduler::FrFcfs,
        ] {
            let mut net = closed_loop_dram_network(1, Some(4), fcfs.with_scheduler(scheduler));
            run_to_quiescence(&mut net, 5_000);
            let stats = net.into_stats();
            assert_eq!(
                stats.avg_round_trip(),
                baseline.avg_round_trip(),
                "{scheduler:?} changed uncontended round trips"
            );
            assert_eq!(stats.round_trips, 4);
            assert_eq!(stats.delivered_packets, 8);
        }
        let saturating = fcfs
            .with_banks(1)
            .with_queue_depth(1)
            .with_latencies(40, 80)
            .with_scheduler(crate::closed_loop::DramScheduler::PriorityAdmission);
        let mut net = closed_loop_dram_network(8, Some(20), saturating);
        run_to_quiescence(&mut net, 50_000);
        let stats = net.into_stats();
        assert!(stats.dram.rejected_requests > 0, "queue must overflow");
        assert_eq!(
            stats.dram.evicted_requests, 0,
            "a flow must not evict its own requests"
        );
        assert_eq!(stats.round_trips, 20);
        // Deferred delivery still records each request exactly once.
        assert_eq!(stats.delivered_packets, 40);
        assert_eq!(stats.generated_packets, 40);
        assert!(
            stats.flows[0].retransmissions >= stats.dram.rejected_requests,
            "every overflow NACK forces a retransmission"
        );
    }

    #[test]
    fn invalid_dram_config_is_rejected_at_install() {
        let generators: Vec<Box<dyn PacketGenerator>> = vec![
            Box::new(crate::packet::IdleGenerator),
            Box::new(crate::packet::IdleGenerator),
        ];
        let net = Network::new(
            bidirectional_spec(),
            Box::new(FifoPolicy::new()),
            generators,
            SimConfig::default(),
        )
        .expect("network builds");
        let spec = crate::closed_loop::ClosedLoopSpec::new(2)
            .with_requester(
                FlowId(0),
                crate::closed_loop::RequesterSpec::paper(NodeId(1), 2),
            )
            .with_dram(crate::closed_loop::DramConfig::paper().with_banks(0));
        assert!(net.with_closed_loop(spec).is_err());
    }

    #[test]
    fn single_injection_vc_serialises_injection() {
        // With a single injection VC a short packet occupies the VC for the
        // full pipeline plus credit turnaround, limiting accepted throughput
        // to roughly one packet every three cycles.
        let mut net = build_chain(10_000, 1, 1);
        net.run_for(3_000);
        let delivered = net.delivered_flits();
        assert!(delivered > 800, "delivered only {delivered} flits");
        assert!(delivered < 1_500, "delivered {delivered} flits");
    }
}
