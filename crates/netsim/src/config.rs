//! Mechanical constants of the simulated network.

use crate::ids::Cycle;
use serde::{Deserialize, Serialize};

/// Which data-structure engine the simulator uses for its hot path.
///
/// Both engines are cycle-for-cycle equivalent — they produce bit-identical
/// [`crate::stats::NetStats`] for the same spec, policy, generators and seed —
/// and share every mechanic that derives nothing (event application, the
/// source visit, grants, launches, victim flushes). They differ in how they
/// find their work:
///
/// * [`EngineKind::Optimized`] (the default) stores packets in a generational
///   slab arena indexed directly by [`crate::ids::PacketId`], schedules
///   events on a fixed-horizon timing wheel (with a binary-heap overflow lane
///   for rare long delays), keeps persistent per-output arbitration request
///   lists with dirty bits and a per-router priority memo, routes through a
///   dense table, and skips routers and sources with no work.
/// * [`EngineKind::Reference`] derives everything afresh: a `HashMap` packet
///   store, a pure binary-heap event queue, full router scans and source
///   polls, the `compute_route` tree walk, a rescan of every input VC per
///   output with uncached priorities, and plain `select_victim`. All of it
///   lives in one file, `crates/netsim/src/reference.rs`. It is an oracle
///   only: the engine-equivalence tests, the `bench_netsim` cross-check and
///   the benchmark's correctness gate compare the optimized engine's
///   statistics against it. Its speed is not measured anywhere.
///
/// `Network::step` reads this choice once per cycle; besides the packet
/// store's and event queue's `for_engine` constructors, nothing else does.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum EngineKind {
    /// Slab packet store + timing wheel + scratch-buffer arbitration +
    /// active-set tracking.
    #[default]
    Optimized,
    /// Oracle engine: hash-map store, binary-heap queue, full scans.
    Reference,
}

impl EngineKind {
    /// Whether this is the reference (oracle) engine.
    pub fn is_reference(self) -> bool {
        matches!(self, EngineKind::Reference)
    }

    /// Short lowercase name of the engine.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Optimized => "optimized",
            EngineKind::Reference => "reference",
        }
    }
}

/// Telemetry switches: latency histograms and per-frame time-series
/// sampling.
///
/// Everything defaults to **off**, and the disabled paths are free on the
/// hot loop: histogram recording is a single branch inside the existing
/// delivery bookkeeping, and frame sampling only runs when a sampler was
/// constructed. Flit-level *tracing* is not configured here — a trace sink
/// carries a destination writer (not `Copy`), so it is installed on the
/// network directly with [`crate::network::Network::with_trace_sink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TelemetryConfig {
    /// Record per-flow and aggregate latency/round-trip histograms
    /// ([`taqos_telemetry::Hist64`]) alongside the existing sum/count
    /// statistics.
    pub histograms: bool,
    /// Per-frame time-series cadence in cycles; `0` disables sampling. At
    /// every multiple of this cadence the network snapshots per-flow
    /// progress deltas, router occupancy and link utilisation into
    /// [`crate::stats::NetStats::frames`].
    pub frame_len: Cycle,
    /// Maximum retained frames: older frames are overwritten (and counted as
    /// dropped) once the preallocated ring is full.
    pub max_frames: usize,
}

impl TelemetryConfig {
    /// Everything off (the default).
    pub fn off() -> Self {
        Self::default()
    }

    /// Histograms and frame sampling both enabled at the given cadence.
    pub fn full(frame_len: Cycle) -> Self {
        TelemetryConfig::default()
            .with_histograms(true)
            .with_frames(frame_len)
    }

    /// Returns this configuration with histogram recording switched.
    #[must_use]
    pub fn with_histograms(mut self, on: bool) -> Self {
        self.histograms = on;
        self
    }

    /// Returns this configuration with the given sampling cadence in cycles
    /// (`0` disables frame sampling).
    #[must_use]
    pub fn with_frames(mut self, frame_len: Cycle) -> Self {
        self.frame_len = frame_len;
        self
    }

    /// Returns this configuration with the given frame-ring capacity.
    #[must_use]
    pub fn with_max_frames(mut self, max_frames: usize) -> Self {
        self.max_frames = max_frames;
        self
    }

    /// Whether frame sampling is enabled.
    pub fn frames_enabled(&self) -> bool {
        self.frame_len > 0 && self.max_frames > 0
    }
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            histograms: false,
            frame_len: 0,
            max_frames: 1024,
        }
    }
}

/// Fixed mechanical parameters of the simulation (independent of topology and
/// QOS policy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Maximum number of granted-but-unfinished transfers queued per output
    /// port. A small queue lets back-to-back packets stream without pipeline
    /// bubbles while keeping arbitration decisions timely.
    pub grant_queue_depth: usize,
    /// Credit return latency in cycles (freed VC to upstream output port).
    pub credit_delay: Cycle,
    /// Fixed component of the ACK network latency.
    pub ack_latency_base: Cycle,
    /// Per-hop component of the ACK network latency.
    pub ack_latency_per_hop: Cycle,
    /// Hot-path engine selection; see [`EngineKind`].
    pub engine: EngineKind,
    /// Deadlock/livelock watchdog horizon for the closed-loop driver: if a
    /// still-incomplete run observes no forward progress (no packet
    /// generated, delivered, serviced or abandoned) for this many cycles,
    /// [`crate::sim::run_closed`] fails with
    /// [`crate::error::SimError::NoForwardProgress`] instead of spinning
    /// until the cycle budget. `0` disables the watchdog.
    pub progress_watchdog: Cycle,
    /// Telemetry switches (histograms, frame sampling); see
    /// [`TelemetryConfig`]. Off by default.
    pub telemetry: TelemetryConfig,
}

impl SimConfig {
    /// ACK/NACK latency for a packet whose source is `hops` hops from the
    /// point of delivery or discard.
    pub fn ack_latency(&self, hops: u32) -> Cycle {
        self.ack_latency_base + self.ack_latency_per_hop * Cycle::from(hops)
    }

    /// Returns this configuration with the given engine selected.
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Returns this configuration with the given progress-watchdog horizon
    /// (in cycles; `0` disables the watchdog).
    #[must_use]
    pub fn with_progress_watchdog(mut self, cycles: Cycle) -> Self {
        self.progress_watchdog = cycles;
        self
    }

    /// Returns this configuration with the given telemetry switches.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = telemetry;
        self
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            grant_queue_depth: 3,
            credit_delay: 1,
            ack_latency_base: 4,
            ack_latency_per_hop: 1,
            engine: EngineKind::Optimized,
            progress_watchdog: 50_000,
            telemetry: TelemetryConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let cfg = SimConfig::default();
        assert!(cfg.grant_queue_depth >= 1);
        assert!(cfg.credit_delay >= 1);
        assert_eq!(cfg.ack_latency(0), cfg.ack_latency_base);
        assert_eq!(cfg.ack_latency(3), cfg.ack_latency_base + 3);
        assert_eq!(cfg.engine, EngineKind::Optimized);
        assert!(cfg.progress_watchdog > 0, "watchdog on by default");
        let relaxed = cfg.with_progress_watchdog(0);
        assert_eq!(relaxed.progress_watchdog, 0);
    }

    #[test]
    fn telemetry_defaults_off() {
        let cfg = SimConfig::default();
        assert!(!cfg.telemetry.histograms);
        assert!(!cfg.telemetry.frames_enabled());
        let on = cfg.with_telemetry(TelemetryConfig::full(500));
        assert!(on.telemetry.histograms);
        assert!(on.telemetry.frames_enabled());
        assert_eq!(on.telemetry.frame_len, 500);
        assert!(on.telemetry.max_frames > 0, "default ring capacity");
        let capped = TelemetryConfig::full(100).with_max_frames(16);
        assert_eq!(capped.max_frames, 16);
        assert!(!TelemetryConfig::off().frames_enabled());
    }

    #[test]
    fn engine_selection() {
        let cfg = SimConfig::default().with_engine(EngineKind::Reference);
        assert!(cfg.engine.is_reference());
        assert_eq!(cfg.engine.name(), "reference");
        assert!(!EngineKind::Optimized.is_reference());
        assert_eq!(EngineKind::default(), EngineKind::Optimized);
    }
}
