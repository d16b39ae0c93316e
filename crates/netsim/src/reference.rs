//! The reference engine: everything only [`EngineKind::Reference`] does.
//!
//! The reference engine is the optimized engine's oracle: both must produce
//! bit-identical [`crate::stats::NetStats`]. It shares every mechanic that
//! derives nothing — event application, the source visit, grants,
//! blocked-output probes, flit launches and victim flushes live in
//! `network.rs` and serve both engines — and keeps its own independent
//! reads here:
//!
//! * full router scans and full source polls, where the optimized engine
//!   follows its activity masks and source wake set;
//! * the `compute_route` tree walk, where it reads the dense route table;
//! * a rescan of every input VC per output with fresh
//!   `RouterQos::priority` calls and credit checks, where it keeps
//!   persistent request lists, dirty bits and a priority memo;
//! * the uncached `RouterQos::select_victim`;
//! * uncached reply-pick priorities at the controllers.
//!
//! The rule that keeps the oracle from drifting: the shared mechanics may
//! *write* the optimized engine's bookkeeping when the reference engine
//! runs them (activity-mask bits, dirty bits, wake entries, memo refreshes),
//! but nothing the reference engine runs ever *reads* an optimized-only
//! structure — the activity masks, `source_wake`, `alloc_buckets`,
//! `alloc_dirty`/`cached_probe`, `priority_cache`, `route_lut` or
//! `granted_mask` — to make a decision. `Network::step` picks the engine
//! once per cycle; no phase asks again.
//!
//! [`EngineKind::Reference`]: crate::config::EngineKind::Reference

use super::{arbitrate, Network};
use crate::ids::{FlowId, OutPortId};
use crate::router::{compute_route, resolve_target_idx, ArbRequest};

impl Network {
    /// Visits every source every cycle, pricing reply picks with uncached
    /// `RouterQos::priority` calls.
    // taqos-lint: hot
    pub(super) fn reference_sources(&mut self) {
        for si in 0..self.sources.len() {
            self.visit_source(si, |_, qos, flow| qos.priority(flow));
        }
    }

    /// Routes every newly arrived head by the `compute_route` tree walk,
    /// scanning every VC of every router.
    // taqos-lint: hot
    pub(super) fn reference_routing(&mut self) {
        for (router, rspec) in self.routers.iter_mut().zip(&self.spec.routers) {
            for (port, pspec) in router.inputs.iter_mut().zip(&rspec.inputs) {
                for vc in &mut port.vcs {
                    let Some(packet_id) = vc.packet() else {
                        continue;
                    };
                    if vc.route().is_some() || vc.flits_arrived == 0 {
                        continue;
                    }
                    let packet = self
                        .packets
                        .hot(packet_id)
                        // taqos-lint: allow(panic-path) -- VC occupancy and packet lifetime are updated together
                        .expect("buffered packet must be live");
                    let out = compute_route(rspec, pspec, packet.dst, &mut router.route_rr_cursor);
                    vc.set_route(out);
                    port.unrouted -= 1;
                    router.unrouted_vcs -= 1;
                }
            }
        }
    }

    /// Arbitrates every output of every router over a fresh gather of the
    /// input VCs routed to it, with uncached priorities and credit checks.
    // taqos-lint: hot
    pub(super) fn reference_allocation(&mut self) {
        let preemption = self.policy.preemption_enabled();
        let mut requests = std::mem::take(&mut self.reference_requests);
        for ri in 0..self.routers.len() {
            // taqos-lint: allow(panic-index) -- ri ranges over the routers
            for oi in 0..self.routers[ri].outputs.len() {
                // taqos-lint: allow(panic-index) -- ri ranges over the routers
                let (router, rspec) = (&self.routers[ri], &self.spec.routers[ri]);
                // taqos-lint: allow(panic-index) -- oi ranges over the router's outputs
                let output = &router.outputs[oi];
                if !output.can_grant(self.config.grant_queue_depth) {
                    continue;
                }
                requests.clear();
                for (pi, (port, pspec)) in router.inputs.iter().zip(&rspec.inputs).enumerate() {
                    for (vi, vc) in port.vcs.iter().enumerate() {
                        if !vc.wants_allocation() || vc.route() != Some(OutPortId(oi)) {
                            continue;
                        }
                        // taqos-lint: allow(panic-path) -- wants_allocation implies an occupant
                        let packet_id = vc.packet().expect("allocating VC holds a packet");
                        let packet = self
                            .packets
                            .get(packet_id)
                            // taqos-lint: allow(panic-path) -- VC occupancy and packet lifetime are updated together
                            .expect("buffered packet must be live");
                        requests.push(ArbRequest {
                            in_port: pi as u16,
                            vc: vi as u16,
                            packet: packet_id,
                            flow: packet.flow,
                            len: packet.len_flits,
                            reserved: packet.reserved,
                            // taqos-lint: allow(panic-index) -- the spec has one output per router output
                            target_idx: resolve_target_idx(&rspec.outputs[oi], packet.dst) as u16,
                            passthrough: pspec.passthrough,
                        });
                    }
                }
                if requests.is_empty() {
                    continue;
                }
                // taqos-lint: allow(panic-index) -- ri ranges over the routers
                let qos = &self.qos[ri];
                let (winner, blocked) = arbitrate(&requests, output.rr_cursor, |req| {
                    // taqos-lint: allow(panic-index) -- target_idx was resolved against this output's targets
                    let target = &output.targets[req.target_idx as usize];
                    (qos.priority(req.flow), target.has_credit(req.reserved))
                });
                if let Some(widx) = winner {
                    // taqos-lint: allow(panic-index) -- arbitrate returns indices into requests
                    self.grant(ri, oi, widx, &requests[widx]);
                } else {
                    // taqos-lint: allow(panic-index) -- arbitrate returns indices into requests
                    self.probe_blocked(ri, oi, blocked.map(|b| &requests[b]), preemption);
                }
            }
        }
        self.reference_requests = requests;
    }

    /// Walks every output of every router.
    // taqos-lint: hot
    pub(super) fn reference_launch(&mut self) {
        let faults_on = self.fault.as_ref().is_some_and(|f| f.any_active());
        for ri in 0..self.routers.len() {
            self.launch_router(ri, None, faults_on);
        }
    }

    /// Picks preemption victims with the uncached `RouterQos::select_victim`.
    // taqos-lint: hot
    pub(super) fn reference_preemption_probe(
        &mut self,
        router: usize,
        in_port: usize,
        contender: FlowId,
    ) {
        self.preemption_probe(router, in_port, |net, candidates| {
            // taqos-lint: allow(panic-index) -- probes address live routers
            net.qos[router].select_victim(contender, candidates)
        });
    }
}
