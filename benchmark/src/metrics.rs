//! Metric names, units and the one-line JSON result.

/// A metric's name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Name, made of `[A-Za-z0-9_.-]`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// Metrics of a timed run (`--trace 0`), all host-side and seen by a user.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("cycles_per_s", "cycles/s"),
    m("flits_per_s", "flits/s"),
    m("peak_heap_mib", "MiB"),
    m("run_success_share", "ratio"),
];

/// Metrics of the traced run (`--trace 1`), one or more per layer.
pub const PER_LAYER: &[Metric] = &[
    m("topology.spec_build_s", "s"),
    m("traffic.plan_build_s", "s"),
    m("netsim.network_build_s", "s"),
    m("core.setup_allocs", "count"),
    m("traffic.generate_calls", "count"),
    m("traffic.generated_packets", "count"),
    m("traffic.fire_ratio", "ratio"),
    m("traffic.generate_ns", "ns"),
    m("qos.priority_calls", "count"),
    m("qos.forward_calls", "count"),
    m("qos.priority_per_forward", "ratio"),
    m("qos.rollover_calls", "count"),
    m("qos.victim_calls", "count"),
    m("qos.ns", "ns"),
    m("netsim.preemptions", "count"),
    m("netsim.wasted_hop_share", "ratio"),
    m("netsim.ns_per_cycle.p50", "ns"),
    m("netsim.ns_per_cycle.p99", "ns"),
    m("netsim.windows", "count"),
    m("netsim.ns_per_router_cycle", "ns"),
    m("netsim.ns_per_flit_hop", "ns"),
    m("netsim.buffer_writes_per_cycle", "1/cycle"),
    m("netsim.xbar_flits_per_cycle", "1/cycle"),
    m("netsim.delivered_flits_per_cycle", "1/cycle"),
    m("netsim.hot_allocs_per_mcycle", "1/Mcycle"),
    m("netsim.live_packets.max", "count"),
    m("netsim.closed_loop.round_trips", "count"),
    m("netsim.closed_loop.rt_p50_cycles", "cycles"),
    m("netsim.closed_loop.rt_p99_cycles", "cycles"),
    m("netsim.closed_loop.victim_rt_p99_cycles", "cycles"),
    m("netsim.closed_loop.timeouts", "count"),
    m("netsim.closed_loop.retries", "count"),
    m("netsim.closed_loop.abandoned", "count"),
    m("netsim.dram.serviced", "count"),
    m("netsim.dram.row_hit_rate", "ratio"),
    m("netsim.dram.avg_queue_wait_cycles", "cycles"),
    m("netsim.dram.bank_busy_share", "ratio"),
    m("netsim.dram.rejected", "count"),
    m("netsim.fault.drops", "count"),
    m("netsim.fault.mc_outage_rejections", "count"),
    m("netsim.fault.retransmissions", "count"),
    m("telemetry.trace_events", "count"),
    m("telemetry.trace_ns", "ns"),
    m("telemetry.overhead_ratio", "ratio"),
    m("host.runq_wait_ms", "ms"),
    m("host.probe_ns", "ns"),
];

/// Whether `name` is a non-empty run of `[A-Za-z0-9_.-]` starting with a
/// letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The outcome of one benchmark invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Every run passed every check.
    pub correct: bool,
    /// Runs attempted (networks built, and simulated where the run has
    /// cycles).
    pub attempted: u64,
    /// Runs that panicked, returned an error or failed a check.
    pub failed: u64,
    /// `(metric, value)` pairs, in declaration order.
    pub metrics: Vec<(Metric, f64)>,
}

impl Outcome {
    /// The result line: one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`. Values print with every digit
    /// Rust's shortest round-trip form gives; a non-finite value prints as
    /// 0 so the line stays valid JSON.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(metric, value)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    metric.name, metric.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Nearest-rank percentile of `values` (0 when empty).
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}
