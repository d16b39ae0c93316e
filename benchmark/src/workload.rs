//! The benchmark's four workloads, each generated from the `--seed` argument.
//!
//! Every workload has two builders:
//!
//! * [`Workload::build`] — the production path a user takes (`ChipSim` and
//!   `SharedRegionSim` facades, plain policies and generators). Timed runs
//!   and the correctness checks use it.
//! * [`Workload::build_traced`] — the same network assembled from the
//!   crates' public parts, with the QOS policy, the generators and a trace
//!   sink wrapped by the counting wrappers of [`crate::wrap`], and a span
//!   around each set-up stage. For the chip workloads this rebuilds
//!   `ChipSim::build_closed_loop` step by step; the traced run's statistics
//!   must equal the production path's, which guards the rebuild.

use crate::spans::Spans;
use crate::wrap::{counting_generators, CountingPolicy, CountingSink, Probes};
use std::sync::Arc;
use taqos_core::chip_sim::{ChipPolicy, ChipSim};
use taqos_core::experiment::chip_scale::chip_fault_bench_plan;
use taqos_core::shared_region::SharedRegionSim;
use taqos_netsim::closed_loop::{ClosedLoopSpec, DramConfig, DramScheduler, RetryPolicy};
use taqos_netsim::error::SimError;
use taqos_netsim::fault::{FaultEvent, FaultKind};
use taqos_netsim::network::Network;
use taqos_netsim::spec::NetworkSpec;
use taqos_netsim::stats::NetStats;
use taqos_netsim::{Cycle, FlowId, NodeId, SimConfig, TelemetryConfig};
use taqos_qos::pvc::PvcPolicy;
use taqos_qos::scoped::ScopedQosPolicy;
use taqos_topology::column::{ColumnConfig, ColumnTopology};
use taqos_topology::grid::Coord;
use taqos_topology::mesh2d::Mesh2dConfig;
use taqos_topology::reroute::reroute_around_faults;
use taqos_traffic::injection::PacketSizeMix;
use taqos_traffic::workloads::{self, GeneratorSet, WORKLOAD1_RATES};

/// Open-loop injection rate of `mesh_pvc_uniform`, flits/cycle/injector:
/// below saturation, so the run has no growing backlog.
const MESH_RATE: f64 = 0.08;
/// Cycles' worth of traffic each `column_pvc_adversarial` injector offers.
const COLUMN_BUDGET_CYCLES: u64 = 30_000;
/// Hotspot of `column_pvc_adversarial` (node 0, as in the paper).
const COLUMN_HOTSPOT: NodeId = NodeId(0);
/// MLP window of every `chip16_dram_mlp` requester.
const CHIP16_MLP: usize = 4;
/// `chip16_dram_mlp` requesters open their windows at a seeded cycle below
/// this, so the seed decides how their DRAM streams interleave.
const CHIP16_START_SPREAD: u64 = 256;
/// MLP window of each `chip_incast_faults` attacker; the victim keeps MLP 1.
const INCAST_ATTACKER_MLP: usize = 6;
/// Bursty attackers attack for `INCAST_BURST_ON` cycles of every
/// `INCAST_BURST_PERIOD`.
const INCAST_BURST_PERIOD: u64 = 1_000;
const INCAST_BURST_ON: u64 = 400;
/// Length of the incast controller's outage window.
const INCAST_OUTAGE_LEN: Cycle = 3_000;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 8×8 mesh, PVC at all 64 routers, open-loop uniform random traffic.
    MeshPvcUniform,
    /// The paper's Workload 1 on the `mesh_x1` shared column with PVC
    /// preemption, run to completion.
    ColumnPvcAdversarial,
    /// 16×16 chip with four shared columns, column-scoped PVC, an MLP-4
    /// closed loop and FR-FCFS DRAM behind every controller.
    Chip16DramMlp,
    /// Bursty all-to-one incast on the 8×8 chip, on a failing fabric with
    /// deadline/retry recovery and an outage of the incast controller.
    ChipIncastFaults,
}

/// How a workload is run: warm-up, then the measured cycles in windows of
/// `window` cycles (each window is one timed `run_for` call).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Cycles simulated before measuring.
    pub warmup: Cycle,
    /// Measured cycles; for a run-to-completion workload, the cap.
    pub measure: Cycle,
    /// Cycles per timed window.
    pub window: Cycle,
    /// Stop at the first window boundary where the network is quiescent.
    pub to_completion: bool,
    /// Cycles the correctness checks simulate on every engine and path.
    pub check_prefix: Cycle,
}

impl Shape {
    /// Cycles the workload's inputs must cover (the phase-schedule horizon).
    pub fn horizon(&self) -> Cycle {
        self.warmup + self.measure
    }
}

/// splitmix64: derives independent input streams from the one seed.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut x = seed ^ salt.wrapping_mul(0xD1B5_4A32_D192_ED03);
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The seeded inputs of one closed-loop chip workload, ready for either
/// builder.
struct ChipInputs {
    sim: ChipSim,
    spec: ClosedLoopSpec,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::MeshPvcUniform,
        Workload::ColumnPvcAdversarial,
        Workload::Chip16DramMlp,
        Workload::ChipIncastFaults,
    ];

    /// The name used on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MeshPvcUniform => "mesh_pvc_uniform",
            Workload::ColumnPvcAdversarial => "column_pvc_adversarial",
            Workload::Chip16DramMlp => "chip16_dram_mlp",
            Workload::ChipIncastFaults => "chip_incast_faults",
        }
    }

    /// The workload called `name`, if any.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Run lengths: one repetition takes about a second of host time in 1000
    /// timed windows, except the column workload, which runs to completion
    /// (about 43k cycles, 0.15 s, in windows of 100 cycles).
    pub fn shape(self) -> Shape {
        match self {
            Workload::MeshPvcUniform => Shape {
                warmup: 10_000,
                measure: 100_000,
                window: 100,
                to_completion: false,
                check_prefix: 10_000,
            },
            Workload::ColumnPvcAdversarial => Shape {
                warmup: 0,
                measure: 2_000_000,
                window: 100,
                to_completion: true,
                check_prefix: 20_000,
            },
            Workload::Chip16DramMlp => Shape {
                warmup: 2_000,
                measure: 15_000,
                window: 15,
                to_completion: false,
                check_prefix: 3_000,
            },
            Workload::ChipIncastFaults => Shape {
                warmup: 10_000,
                measure: 200_000,
                window: 200,
                to_completion: false,
                check_prefix: 20_000,
            },
        }
    }

    /// Builds the workload through the production facades.
    ///
    /// # Errors
    ///
    /// Propagates construction errors from the simulator.
    pub fn build(self, seed: u64, sim_config: SimConfig) -> Result<Network, SimError> {
        match self {
            Workload::MeshPvcUniform => {
                let config = Mesh2dConfig::paper_8x8();
                Network::new(
                    config.build(),
                    Box::new(PvcPolicy::equal_rates(config.num_nodes())),
                    mesh_generators(&config, seed),
                    sim_config,
                )
            }
            Workload::ColumnPvcAdversarial => {
                let sim = SharedRegionSim::new(ColumnTopology::MeshX1).with_sim_config(sim_config);
                let generators = column_generators(sim.column(), seed);
                sim.build(Box::new(sim.default_policy()), generators)
            }
            Workload::Chip16DramMlp | Workload::ChipIncastFaults => {
                let ChipInputs { sim, spec } = self.chip_plan(self.chip_model(), seed);
                let sim = sim.with_sim_config(sim_config);
                sim.build_closed_loop(sim.default_policy(), spec)
            }
        }
    }

    /// Builds the workload from the crates' public parts with counting
    /// wrappers installed, recording a span per set-up stage.
    ///
    /// # Errors
    ///
    /// Propagates construction errors from the simulator.
    pub fn build_traced(
        self,
        seed: u64,
        telemetry: TelemetryConfig,
        probes: &Arc<Probes>,
        spans: &mut Spans,
    ) -> Result<Network, SimError> {
        let sim_config = SimConfig::default().with_telemetry(telemetry);
        let sink = Box::new(CountingSink::new(Arc::clone(probes)));
        let network = match self {
            Workload::MeshPvcUniform | Workload::ColumnPvcAdversarial => {
                let (spec, generators) = self.open_loop_parts(seed, spans);
                let flows = spec.num_flows();
                spans.time("netsim.network_build", || {
                    Network::new(
                        spec,
                        Box::new(CountingPolicy::new(
                            PvcPolicy::equal_rates(flows),
                            Arc::clone(probes),
                        )),
                        counting_generators(generators, probes),
                        sim_config,
                    )
                })?
            }
            Workload::Chip16DramMlp | Workload::ChipIncastFaults => {
                self.build_chip_traced(seed, sim_config, probes, spans)?
            }
        };
        Ok(network.with_trace_sink(sink))
    }

    /// The specification and seeded generators of an open-loop workload,
    /// each built inside its span.
    fn open_loop_parts(self, seed: u64, spans: &mut Spans) -> (NetworkSpec, GeneratorSet) {
        match self {
            Workload::MeshPvcUniform => {
                let config = Mesh2dConfig::paper_8x8();
                let spec = spans.time("topology.spec_build", || config.build());
                let generators =
                    spans.time("traffic.plan_build", || mesh_generators(&config, seed));
                (spec, generators)
            }
            Workload::ColumnPvcAdversarial => {
                let column = ColumnConfig::paper();
                let spec = spans.time("topology.spec_build", || {
                    ColumnTopology::MeshX1.build(&column)
                });
                let generators =
                    spans.time("traffic.plan_build", || column_generators(&column, seed));
                (spec, generators)
            }
            _ => unreachable!("{} is not an open-loop workload", self.name()),
        }
    }

    /// `ChipSim::build_closed_loop`, rebuilt from its public parts so the
    /// policy and generators can be wrapped.
    fn build_chip_traced(
        self,
        seed: u64,
        sim_config: SimConfig,
        probes: &Arc<Probes>,
        spans: &mut Spans,
    ) -> Result<Network, SimError> {
        let sim = spans.time("topology.spec_build", || self.chip_model());
        let ChipInputs { sim, mut spec } =
            spans.time("traffic.plan_build", || self.chip_plan(sim, seed));
        let chip = spans.time("topology.spec_build", || {
            let mut chip = sim.build_spec();
            if let Some(plan) = sim.fault_plan() {
                let (dead_links, dead_routers) = plan.permanent_hard_faults();
                reroute_around_faults(&mut chip.spec, &dead_links, &dead_routers);
            }
            chip
        });
        let ChipPolicy::ColumnPvc(pvc) = sim.default_policy() else {
            unreachable!("the default chip policy is column-scoped PVC");
        };
        spans.time("netsim.network_build", || {
            if spec.dram.is_none() {
                spec.dram = sim.dram().copied();
            }
            if spec.flow_weights.is_empty() {
                spec.flow_weights = pvc.rates().priority_weights();
            }
            let policy = CountingPolicy::new(
                ScopedQosPolicy::new(pvc, chip.qos_nodes),
                Arc::clone(probes),
            );
            let generators =
                counting_generators(workloads::idle_terminals(sim.config().num_nodes()), probes);
            let network = Network::new(chip.spec, Box::new(policy), generators, sim_config)?;
            let network = match sim.fault_plan() {
                Some(plan) => network.with_fault_plan(plan.clone())?,
                None => network,
            };
            network.with_closed_loop(spec)
        })
    }

    /// The architectural chip model with its DRAM provisioning.
    fn chip_model(self) -> ChipSim {
        match self {
            Workload::Chip16DramMlp => {
                let sim = ChipSim::multi_column(16, 16, 4);
                let dram = sim
                    .topology_dram(DramConfig::paper())
                    .with_scheduler(DramScheduler::FrFcfs);
                sim.with_dram(dram)
            }
            Workload::ChipIncastFaults => ChipSim::paper_default(),
            _ => unreachable!("{} is not a chip workload", self.name()),
        }
    }

    /// The seeded closed-loop traffic (and, for the incast, fault plan) of
    /// a chip workload.
    fn chip_plan(self, sim: ChipSim, seed: u64) -> ChipInputs {
        match self {
            Workload::Chip16DramMlp => chip16_plan(sim, seed),
            Workload::ChipIncastFaults => incast_plan(sim, seed),
            _ => unreachable!("{} is not a chip workload", self.name()),
        }
    }

    /// Checks that the workload's mechanism actually ran.
    ///
    /// # Errors
    ///
    /// Returns a description of the first check that failed.
    pub fn check_mechanism(self, stats: &NetStats) -> Result<(), String> {
        let require = |ok: bool, what: &str| {
            if ok {
                Ok(())
            } else {
                Err(format!("{}: {what}", self.name()))
            }
        };
        require(stats.delivered_flits > 0, "no flits delivered")?;
        match self {
            Workload::MeshPvcUniform => Ok(()),
            Workload::ColumnPvcAdversarial => {
                require(stats.preemption_events > 0, "no preemptions")
            }
            Workload::Chip16DramMlp => {
                let dram = &stats.dram;
                require(dram.serviced_requests > 0, "no DRAM services")?;
                require(
                    dram.row_hits * 20 >= dram.serviced_requests,
                    "DRAM row-hit rate below 5%",
                )
            }
            Workload::ChipIncastFaults => {
                let timeouts: u64 = stats.flows.iter().map(|f| f.request_timeouts).sum();
                let retransmits: u64 = stats.flows.iter().map(|f| f.retransmissions).sum();
                let victim = self.victim().expect("the incast has a victim");
                require(timeouts > 0, "no request timeouts")?;
                require(retransmits > 0, "no retransmissions")?;
                require(
                    stats.fault.mc_outage_rejections > 0,
                    "no controller-outage rejections",
                )?;
                require(
                    stats.flows[victim.index()].round_trips > 0,
                    "no victim round trips",
                )
            }
        }
    }

    /// DRAM banks across every memory controller (0 without a DRAM model).
    pub fn dram_banks(self) -> u64 {
        match self {
            Workload::Chip16DramMlp => {
                let sim = self.chip_model();
                let banks = sim.dram().map_or(0, |d| d.banks);
                (banks * sim.controller_nodes().len()) as u64
            }
            _ => 0,
        }
    }

    /// The flow whose round trips the workload protects, if it has one.
    pub fn victim(self) -> Option<FlowId> {
        match self {
            Workload::ChipIncastFaults => Some(incast_victim(&ChipSim::paper_default())),
            _ => None,
        }
    }
}

fn mesh_generators(config: &Mesh2dConfig, seed: u64) -> GeneratorSet {
    workloads::uniform_random_terminals(
        config.num_nodes(),
        MESH_RATE,
        PacketSizeMix::paper(),
        mix(seed, 1),
    )
}

fn column_generators(column: &ColumnConfig, seed: u64) -> GeneratorSet {
    workloads::workload1(
        column,
        &WORKLOAD1_RATES,
        PacketSizeMix::paper(),
        COLUMN_HOTSPOT,
        COLUMN_BUDGET_CYCLES,
        mix(seed, 2),
    )
}

/// Every requester runs MLP 4 against its nearest controller from a
/// seeded start cycle.
fn chip16_plan(sim: ChipSim, seed: u64) -> ChipInputs {
    let plan = sim.nearest_mc_mlp_plan(CHIP16_MLP);
    let mut changes = Vec::new();
    for (node, entry) in plan.iter().enumerate() {
        let start = mix(seed, 3 + node as u64) % CHIP16_START_SPREAD;
        if entry.is_some() && start > 0 {
            let flow = FlowId(node as u16);
            changes.push((flow, 0, 0));
            changes.push((flow, start, CHIP16_MLP));
        }
    }
    let phases = workloads::trace_phases(plan.len(), &changes);
    let spec = workloads::mlp_closed_loop(&plan).with_phases(phases);
    ChipInputs { sim, spec }
}

/// The incast victim: node (0,4) of the 8×8 chip.
fn incast_victim(sim: &ChipSim) -> FlowId {
    FlowId(sim.node_id(Coord::new(0, 4)).0)
}

/// Bursty MLP-6 attackers plus an MLP-1 victim, all sent to the victim row's
/// column controller, with deadline/retry at every requester. The fault
/// plan is the `chip_fault_8x8` one (two dead reply links rerouted at
/// set-up, 3% flit corruption), with its outage moved onto the incast
/// controller at a seeded cycle inside the measured part of the run, within
/// the prefix the correctness checks replay on the reference engine.
fn incast_plan(sim: ChipSim, seed: u64) -> ChipInputs {
    let shape = Workload::ChipIncastFaults.shape();
    let victim = incast_victim(&sim);
    let mut plan = sim.nearest_mc_mlp_plan(INCAST_ATTACKER_MLP);
    let mc = plan[victim.index()]
        .expect("the victim node issues requests")
        .1;
    let mut hogs = Vec::new();
    for (node, slot) in plan.iter_mut().enumerate() {
        let Some((mlp, dest)) = slot.as_mut() else {
            continue;
        };
        *dest = mc;
        if node == victim.index() {
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
        shape.horizon(),
        mix(seed, 4),
    );
    let outage_start =
        shape.warmup + mix(seed, 5) % (shape.check_prefix - shape.warmup - INCAST_OUTAGE_LEN);
    let mut faults = chip_fault_bench_plan(&sim, mix(seed, 6));
    for event in &mut faults.events {
        if let FaultKind::McOutage { .. } = event.kind {
            *event = FaultEvent::transient(
                outage_start,
                outage_start + INCAST_OUTAGE_LEN,
                FaultKind::McOutage { node: mc },
            );
        }
    }
    let retry = RetryPolicy::new(2_000, 4).with_jitter_seed(mix(seed, 7));
    let spec = workloads::mlp_closed_loop(&plan)
        .with_phases(phases)
        .with_retry(retry);
    ChipInputs {
        sim: sim.with_fault_plan(faults),
        spec,
    }
}
