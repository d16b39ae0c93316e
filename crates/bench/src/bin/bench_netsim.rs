//! Engine cross-check: every benchmark case on both engines, with oracles.
//!
//! Runs each case with the optimized engine (slab packet store,
//! timing-wheel event queue, incremental arbitration request lists,
//! active-set tracking) and with the reference engine (hash-map store,
//! binary-heap queue, rescan request gather and full scans), and panics
//! unless both produce identical statistics. Cases with a functional oracle
//! check it too: the adversarial cases must deliver traffic and the
//! DRAM-backed cases must keep their row locality. Nothing is timed; the
//! repository's benchmark (`BENCHMARK.json`) measures simulator speed. The
//! cases:
//!
//! * `mesh_8x8` — the chip-scale 8×8 mesh (64 routers, one injector per
//!   node) under open-loop uniform random + PVC;
//! * `chip_8x8` — the hybrid chip fabric (mesh + per-row MECS express
//!   channels + shared-column QOS overlay) under its open-loop
//!   memory-access workload;
//! * `chip_closed_8x8` — the same fabric under the **closed-loop
//!   request/reply workload**: MLP-limited requesters, controller reply
//!   ports, round trips measured end to end;
//! * `chip_dram_8x8` — the closed loop with **DRAM-backed controllers**:
//!   address-interleaved banks, row-buffer hit/miss latencies and bounded
//!   request queues behind every column memory controller;
//! * `chip_dram_frfcfs_8x8` — the same DRAM-backed loop with the
//!   rate-scaled **FR-FCFS + priority-admission** scheduler (row-hit-first
//!   bank scheduling, priority-weighted age cap, lowest-priority eviction
//!   on overflow) at every controller;
//! * `chip_fault_8x8` — the closed loop on a **failing fabric**: two
//!   permanently dead reply-path links (routed around at build time),
//!   3% flit corruption recovered via NACK-retransmit, a transient
//!   memory-controller outage window, and deadline/retry recovery at
//!   every requester;
//! * `chip_incast_8x8` — the closed loop under **bursty incast**: every
//!   requester converges on one column controller, the attackers breathe
//!   through on/off phase schedules (exercising the per-cycle phase hook)
//!   while a single MLP-1 victim shares the controller;
//! * `chip_weighted_8x8` — the closed loop with **heterogeneous PVC
//!   rates**: row-banded weights (8:4:1) instead of equal shares, the
//!   weighted-VM configuration of the adversarial experiments;
//! * `chip_16x16_cols2` / `chip_16x16_cols4` — multi-column 16×16 chips
//!   (256 routers) under the closed loop, at a quarter of the cycle budget
//!   (cycles/sec stays comparable);
//! * the five column topology families (mesh x1/x2/x4, MECS, DPS; the
//!   paper's 8-node / 64-injector shared region) under uniform random.
//!
//! Every cross-checked run executes with telemetry **off**; `--trace-out
//! FILE` / `--series-out FILE` add one extra instrumented run of the first
//! selected case that exports a flit-level trace (`.jsonl` → JSON-lines
//! events, anything else → a Chrome trace viewable in Perfetto) and/or the
//! per-frame time series. `--cycles N` sets the cycle budget (default
//! 20,000) and `--filter SUBSTRING` selects cases by name.
//!
//! ```text
//! cargo run --release -p taqos-bench --bin bench_netsim
//! cargo run --release -p taqos-bench --bin bench_netsim -- --cycles 5000
//! cargo run --release -p taqos-bench --bin bench_netsim -- --filter chip_8x8 --trace-out chip.trace.json --series-out chip.series.jsonl
//! ```

use std::fmt::Write as _;
use std::fs::File;
use std::io::BufWriter;
use taqos_bench::{rule, CliArgs};
use taqos_core::chip_sim::ChipSim;
use taqos_core::experiment::chip_scale::chip_fault_bench_plan;
use taqos_core::shared_region::SharedRegionSim;
use taqos_netsim::closed_loop::{DramConfig, DramScheduler, RetryPolicy};
use taqos_netsim::config::EngineKind;
use taqos_netsim::network::Network;
use taqos_netsim::qos::QosPolicy;
use taqos_netsim::stats::NetStats;
use taqos_netsim::FlowId;
use taqos_netsim::{ChromeTraceSink, JsonlSink, SimConfig, TelemetryConfig, TraceSink};
use taqos_qos::pvc::PvcPolicy;
use taqos_qos::rates::RateAllocation;
use taqos_topology::column::ColumnTopology;
use taqos_topology::grid::Coord;
use taqos_topology::mesh2d::Mesh2dConfig;
use taqos_traffic::injection::PacketSizeMix;
use taqos_traffic::workloads;

/// Injection rate in flits/cycle/injector of the open-loop cases:
/// comfortably below saturation, so the run exercises steady-state
/// forwarding, not queue growth.
const RATE: f64 = 0.08;
/// Default cycle budget of every case (the 16x16 chips run a quarter).
const DEFAULT_CYCLES: u64 = 20_000;
/// MLP window of every requester in the closed-loop cases.
const CLOSED_LOOP_MLP: usize = 4;
const SEED: u64 = 1;
/// Frame cadence of the instrumented `--trace-out`/`--series-out` run.
const EXPORT_FRAME_LEN: u64 = 500;
/// MLP window of each incast attacker; the incast victim keeps MLP 1.
const INCAST_ATTACKER_MLP: usize = 6;
/// On/off cadence of the bursty incast attackers: `INCAST_BURST_ON` cycles
/// of attack out of every `INCAST_BURST_PERIOD`-cycle period.
const INCAST_BURST_PERIOD: u64 = 1_000;
const INCAST_BURST_ON: u64 = 400;
/// Per-row PVC weight bands of the weighted case (rows 0-1 / 2-4 / rest).
const WEIGHT_BANDS: [f64; 3] = [8.0, 4.0, 1.0];

/// Row-banded heterogeneous rates for the weighted case: rows 0-1 weigh
/// `WEIGHT_BANDS[0]`, rows 2-4 `WEIGHT_BANDS[1]`, the rest
/// `WEIGHT_BANDS[2]`, normalised to a total rate of one.
fn weighted_chip_rates(sim: &ChipSim) -> RateAllocation {
    let config = sim.config();
    let mut weights = Vec::with_capacity(config.num_nodes());
    for y in 0..config.height {
        let band = if y < 2 {
            WEIGHT_BANDS[0]
        } else if y < 5 {
            WEIGHT_BANDS[1]
        } else {
            WEIGHT_BANDS[2]
        };
        weights.extend(std::iter::repeat_n(band, config.width));
    }
    let total: f64 = weights.iter().sum();
    RateAllocation::from_rates(weights.into_iter().map(|w| w / total).collect())
}

/// One benchmark case: a column topology, the plain chip-scale 8x8 mesh, the
/// hybrid chip fabric (mesh + MECS express + shared-column QOS overlay) under
/// open-loop or closed-loop traffic (instant or DRAM-backed controllers), or
/// a multi-column 16x16 chip under the closed loop.
#[derive(Debug, Clone, Copy)]
enum BenchCase {
    Mesh8x8,
    Chip8x8,
    ChipClosed8x8,
    ChipDram8x8,
    ChipDramFrfcfs8x8,
    ChipFault8x8,
    ChipIncast8x8,
    ChipWeighted8x8,
    ChipClosed16x16 { columns: usize },
    Column(ColumnTopology),
}

impl BenchCase {
    fn name(self) -> &'static str {
        match self {
            BenchCase::Mesh8x8 => "mesh_8x8",
            BenchCase::Chip8x8 => "chip_8x8",
            BenchCase::ChipClosed8x8 => "chip_closed_8x8",
            BenchCase::ChipDram8x8 => "chip_dram_8x8",
            BenchCase::ChipDramFrfcfs8x8 => "chip_dram_frfcfs_8x8",
            BenchCase::ChipFault8x8 => "chip_fault_8x8",
            BenchCase::ChipIncast8x8 => "chip_incast_8x8",
            BenchCase::ChipWeighted8x8 => "chip_weighted_8x8",
            BenchCase::ChipClosed16x16 { columns: 2 } => "chip_16x16_cols2",
            BenchCase::ChipClosed16x16 { columns: 4 } => "chip_16x16_cols4",
            BenchCase::ChipClosed16x16 { .. } => "chip_16x16",
            BenchCase::Column(topology) => topology.name(),
        }
    }

    /// DRAM controller model of the case, if any: `build` installs exactly
    /// this configuration, and the row-locality oracle applies to every case
    /// that has one.
    fn dram_config(self) -> Option<DramConfig> {
        match self {
            BenchCase::ChipDram8x8 => {
                Some(ChipSim::paper_default().topology_dram(DramConfig::paper()))
            }
            BenchCase::ChipDramFrfcfs8x8 => Some(
                ChipSim::paper_default()
                    .topology_dram(DramConfig::paper())
                    .with_scheduler(DramScheduler::FrFcfs),
            ),
            _ => None,
        }
    }

    /// Cycle budget of the case: the 256-router 16x16 chips run a quarter of
    /// the base budget.
    fn cycles(self, base: u64) -> u64 {
        match self {
            BenchCase::ChipClosed16x16 { .. } => (base / 4).max(1),
            _ => base,
        }
    }

    /// Builds the case's network. `horizon` is the cycle budget the caller
    /// will run — the bursty incast case materialises its phase schedules up
    /// to exactly that horizon.
    fn build(self, engine: EngineKind, telemetry: TelemetryConfig, horizon: u64) -> Network {
        let sim_config = SimConfig::default()
            .with_engine(engine)
            .with_telemetry(telemetry);
        match self {
            BenchCase::Mesh8x8 => {
                let config = Mesh2dConfig::paper_8x8();
                let spec = config.build();
                let generators = workloads::uniform_random_terminals(
                    config.num_nodes(),
                    RATE,
                    PacketSizeMix::paper(),
                    SEED,
                );
                let policy: Box<dyn QosPolicy> =
                    Box::new(PvcPolicy::equal_rates(config.num_nodes()));
                Network::new(spec, policy, generators, sim_config).expect("mesh builds")
            }
            BenchCase::Chip8x8 => {
                // The hybrid fabric under its common-case workload: every
                // non-column node streams memory requests to the controller
                // on its own row of the shared column, over the MECS express
                // channels, with PVC confined to the column routers.
                let sim = ChipSim::paper_default().with_sim_config(sim_config);
                let plan = sim.nearest_mc_plan(RATE);
                let generators = workloads::per_node_fixed(&plan, PacketSizeMix::paper(), SEED);
                sim.build(sim.default_policy(), generators)
                    .expect("chip builds")
            }
            BenchCase::ChipClosed8x8 => {
                // The closed loop on the paper chip: MLP-limited requesters
                // against their nearest controller, replies returning down
                // the column and out over the mesh.
                let sim = ChipSim::paper_default().with_sim_config(sim_config);
                let plan = sim.nearest_mc_mlp_plan(CLOSED_LOOP_MLP);
                sim.build_closed_loop(sim.default_policy(), workloads::mlp_closed_loop(&plan))
                    .expect("closed-loop chip builds")
            }
            BenchCase::ChipDram8x8 | BenchCase::ChipDramFrfcfs8x8 => {
                // The DRAM-backed closed loop: bank timelines, row buffers
                // and bounded controller queues behind the same fabric —
                // FCFS controllers or rate-scaled FR-FCFS with priority
                // admission, per the case's `dram_config`.
                let dram = self.dram_config().expect("DRAM case has a config");
                let sim = ChipSim::paper_default()
                    .with_sim_config(sim_config)
                    .with_dram(dram);
                let plan = sim.nearest_mc_mlp_plan(CLOSED_LOOP_MLP);
                sim.build_closed_loop(sim.default_policy(), workloads::mlp_closed_loop(&plan))
                    .expect("DRAM-backed closed-loop chip builds")
            }
            BenchCase::ChipFault8x8 => {
                // The closed loop on a failing fabric: dead reply-path links
                // are rerouted at build time; corruption drops and the
                // controller outage are recovered at runtime through
                // NACK-retransmit and the requesters' deadline/retry layer.
                let sim = ChipSim::paper_default().with_sim_config(sim_config);
                let plan = chip_fault_bench_plan(&sim, SEED);
                let sim = sim.with_fault_plan(plan);
                let mlp_plan = sim.nearest_mc_mlp_plan(CLOSED_LOOP_MLP);
                let spec =
                    workloads::mlp_closed_loop(&mlp_plan).with_retry(RetryPolicy::new(2_000, 4));
                sim.build_closed_loop(sim.default_policy(), spec)
                    .expect("faulted closed-loop chip builds")
            }
            BenchCase::ChipIncast8x8 => {
                // Bursty incast: every requester converges on the victim
                // row's column controller; the attackers switch between
                // full-MLP bursts and silence on seeded on/off schedules
                // (driving the per-cycle phase hook), while an MLP-1 victim
                // shares the controller throughout.
                let sim = ChipSim::paper_default().with_sim_config(sim_config);
                let victim = sim.node_id(Coord::new(0, 4)).index();
                let mut plan = sim.nearest_mc_mlp_plan(INCAST_ATTACKER_MLP);
                let mc = plan[victim].expect("the victim node issues requests").1;
                let mut hogs = Vec::new();
                for (node, slot) in plan.iter_mut().enumerate() {
                    let Some((mlp, dest)) = slot.as_mut() else {
                        continue;
                    };
                    *dest = mc;
                    if node == victim {
                        *mlp = 1;
                    } else {
                        hogs.push(FlowId(node as u16));
                    }
                }
                let phases = workloads::bursty_hogs(
                    plan.len(),
                    &hogs,
                    INCAST_ATTACKER_MLP,
                    INCAST_BURST_PERIOD,
                    INCAST_BURST_ON,
                    horizon,
                    SEED,
                );
                let spec = workloads::mlp_closed_loop(&plan).with_phases(phases);
                sim.build_closed_loop(sim.default_policy(), spec)
                    .expect("incast chip builds")
            }
            BenchCase::ChipWeighted8x8 => {
                // Heterogeneous tenants: the same closed loop as
                // chip_closed_8x8, but PVC programmed with row-banded
                // weights instead of equal shares.
                let sim = ChipSim::paper_default().with_sim_config(sim_config);
                let plan = sim.nearest_mc_mlp_plan(CLOSED_LOOP_MLP);
                let rates = weighted_chip_rates(&sim);
                sim.build_closed_loop(
                    sim.weighted_policy(rates),
                    workloads::mlp_closed_loop(&plan),
                )
                .expect("weighted closed-loop chip builds")
            }
            BenchCase::ChipClosed16x16 { columns } => {
                let sim = ChipSim::multi_column(16, 16, columns).with_sim_config(sim_config);
                let plan = sim.nearest_mc_mlp_plan(CLOSED_LOOP_MLP);
                sim.build_closed_loop(sim.default_policy(), workloads::mlp_closed_loop(&plan))
                    .expect("closed-loop multi-column chip builds")
            }
            BenchCase::Column(topology) => {
                let sim = SharedRegionSim::new(topology).with_sim_config(sim_config);
                let generators =
                    workloads::uniform_random(sim.column(), RATE, PacketSizeMix::paper(), SEED);
                let policy: Box<dyn QosPolicy> =
                    Box::new(PvcPolicy::equal_rates(sim.column().num_flows()));
                sim.build(policy, generators).expect("column builds")
            }
        }
    }
}

/// Runs `case` for `cycles` cycles on `engine` with telemetry off.
fn run_engine(case: BenchCase, engine: EngineKind, cycles: u64) -> NetStats {
    let mut network = case.build(engine, TelemetryConfig::off(), cycles);
    network.run_for(cycles);
    network.into_stats()
}

/// The functional oracles on top of the engine cross-check: an incast or
/// weighted run that delivers nothing is a broken workload, and a
/// DRAM-backed run must keep its row locality.
fn check_oracles(case: BenchCase, stats: &NetStats) {
    if matches!(case, BenchCase::ChipIncast8x8 | BenchCase::ChipWeighted8x8) {
        assert!(
            stats.delivered_packets > 0,
            "{} delivered no packets — the workload is wired wrong",
            case.name()
        );
    }
    // Each requester streams its private region in row-major line order, so
    // the open rows must see substantial reuse. A near-zero hit rate means
    // the address mapping is scattering the stream again (the regression
    // this guard was added for reported 0 hits in 266k services).
    if case.dram_config().is_some() {
        let ds = &stats.dram;
        assert!(
            ds.serviced_requests > 0,
            "{} serviced no DRAM requests — the workload is wired wrong",
            case.name()
        );
        let hit_rate = ds.row_hits as f64 / ds.serviced_requests as f64;
        assert!(
            hit_rate >= 0.05,
            "{} DRAM row-hit rate {:.1}% is degenerate (< 5%): \
             row locality is broken in the address mapping or scheduler",
            case.name(),
            100.0 * hit_rate
        );
    }
}

fn main() {
    let args = CliArgs::from_env();
    let cycles: u64 = args.value_or("cycles", DEFAULT_CYCLES);
    let filter = args.value("filter");
    let cases = [
        BenchCase::Mesh8x8,
        BenchCase::Chip8x8,
        BenchCase::ChipClosed8x8,
        BenchCase::ChipDram8x8,
        BenchCase::ChipDramFrfcfs8x8,
        BenchCase::ChipFault8x8,
        BenchCase::ChipIncast8x8,
        BenchCase::ChipWeighted8x8,
        BenchCase::ChipClosed16x16 { columns: 2 },
        BenchCase::ChipClosed16x16 { columns: 4 },
        BenchCase::Column(ColumnTopology::MeshX1),
        BenchCase::Column(ColumnTopology::MeshX2),
        BenchCase::Column(ColumnTopology::MeshX4),
        BenchCase::Column(ColumnTopology::Mecs),
        BenchCase::Column(ColumnTopology::Dps),
    ];
    let selected: Vec<BenchCase> = cases
        .into_iter()
        .filter(|case| filter.is_none_or(|f| case.name().contains(f)))
        .collect();
    let Some(&first) = selected.first() else {
        eprintln!(
            "usage error: no case matches --filter {}",
            filter.unwrap_or("")
        );
        std::process::exit(2);
    };

    println!("engine cross-check: optimized vs reference, {cycles} cycles per case");
    println!("{}", rule(64));
    println!(
        "{:<22} {:>10} {:>12} {:>16}",
        "case", "cycles", "delivered", "row hits"
    );
    println!("{}", rule(64));
    for case in selected {
        let case_cycles = case.cycles(cycles);
        let optimized = run_engine(case, EngineKind::Optimized, case_cycles);
        let reference = run_engine(case, EngineKind::Reference, case_cycles);
        assert_eq!(
            optimized,
            reference,
            "engines diverged on {}: the optimized engine is NOT equivalent",
            case.name()
        );
        check_oracles(case, &optimized);
        let ds = &optimized.dram;
        let row_hits = if ds.serviced_requests == 0 {
            "-".to_string()
        } else {
            format!("{}/{}", ds.row_hits, ds.serviced_requests)
        };
        println!(
            "{:<22} {case_cycles:>10} {:>12} {row_hits:>16}",
            case.name(),
            optimized.delivered_packets
        );
    }
    println!("{}", rule(64));
    println!("OK: engines equal and oracles hold on every selected case");

    // `--trace-out` / `--series-out` export observability artifacts from one
    // extra instrumented run of the first selected case.
    let trace_out = args.value("trace-out");
    let series_out = args.value("series-out");
    if trace_out.is_some() || series_out.is_some() {
        export_instrumented(first, cycles, trace_out, series_out);
    }
}

/// One extra run of `case` with telemetry fully enabled, exporting the
/// flit-level trace and/or the per-frame time series. `.jsonl` trace paths
/// get raw JSON-lines events; any other extension gets a Chrome trace (load
/// it at <https://ui.perfetto.dev>).
fn export_instrumented(
    case: BenchCase,
    cycles: u64,
    trace_out: Option<&str>,
    series_out: Option<&str>,
) {
    let telemetry = TelemetryConfig::off()
        .with_histograms(true)
        .with_frames(EXPORT_FRAME_LEN)
        .with_max_frames((cycles / EXPORT_FRAME_LEN).max(1) as usize);
    let mut network = case.build(EngineKind::Optimized, telemetry, case.cycles(cycles));
    if let Some(path) = trace_out {
        let file = BufWriter::new(File::create(path).expect("create trace file"));
        let sink: Box<dyn TraceSink> = if path.ends_with(".jsonl") {
            Box::new(JsonlSink::new(file))
        } else {
            Box::new(ChromeTraceSink::new(file))
        };
        network = network.with_trace_sink(sink);
    }
    network.run_for(case.cycles(cycles));
    if let Some(mut sink) = network.take_trace_sink() {
        sink.finish().expect("flush trace file");
    }
    let stats = network.into_stats();
    if let Some(path) = trace_out {
        println!("wrote {path} (flit-level trace of {})", case.name());
    }
    if let Some(path) = series_out {
        let series = stats.frames.as_ref().expect("frame series enabled");
        let mut out = String::new();
        for snap in &series.frames {
            let _ = write!(
                out,
                "{{\"frame\":{},\"cycle\":{},\"flows\":[",
                snap.frame, snap.cycle
            );
            for (f, flow) in snap.flows.iter().enumerate() {
                let _ = write!(
                    out,
                    "{}{{\"flow\":{f},\"injected_packets\":{},\"delivered_flits\":{},\
                     \"latency_sum\":{},\"latency_samples\":{},\"round_trips\":{},\
                     \"rt_latency_sum\":{},\"rt_samples\":{}}}",
                    if f == 0 { "" } else { "," },
                    flow.injected_packets,
                    flow.delivered_flits,
                    flow.latency_sum,
                    flow.latency_samples,
                    flow.round_trips,
                    flow.rt_latency_sum,
                    flow.rt_samples,
                );
            }
            out.push_str("],\"router_occupancy\":[");
            for (i, occ) in snap.router_occupancy.iter().enumerate() {
                let _ = write!(out, "{}{occ}", if i == 0 { "" } else { "," });
            }
            out.push_str("],\"link_flits\":[");
            for (i, flits) in snap.link_flits.iter().enumerate() {
                let _ = write!(out, "{}{flits}", if i == 0 { "" } else { "," });
            }
            out.push_str("]}\n");
        }
        std::fs::write(path, out).expect("write series file");
        println!(
            "wrote {path} ({} frames of {} cycles each from {}, {} dropped)",
            series.len(),
            series.frame_len,
            case.name(),
            series.dropped_frames,
        );
    }
}
