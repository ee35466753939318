//! The one placement baseline: an SMT-style exhaustive search, both the
//! comparator of Table 4 / Fig. 14 and the DP's optimality oracle.
//!
//! Prior work (Lyra) encodes placement as an SMT problem over per-instruction
//! device/stage assignment variables and hands it to Z3.  The defining property
//! for the paper's comparison is not Z3 itself but the *search structure*: the
//! solver explores the full assignment space, whose size is
//! `O((M·S)^N)` for `M` devices, `S` stages and `N` instructions, instead of
//! exploiting the sequential-path structure the way the DP does.  This module
//! reproduces that behaviour with a chronological backtracking search over
//! block-to-device assignments combined with exhaustive per-device stage
//! allocation, under the identical constraint set (capabilities, per-stage
//! resources, dependency monotonicity along the chain), and scores every
//! complete assignment with the DP's Eq. 1.  Its runtime grows exponentially
//! with the device count (Fig. 14c); when it exhausts the space its plan is
//! the optimum, which the crate's tests hold the DP to (Table 4's claim that
//! the DP loses nothing to the exhaustive search).
//!
//! The search only supports single-path networks (a chain), mirroring the
//! paper's observation that "the SMT solver is unable to handle a multi-path
//! topology in an acceptable time".

use crate::intra::{allocate_stages_with, SegContext, SegFacts};
use crate::network::{PlacementDevice, PlacementNetwork};
use crate::objective::{cut_costs, Weights};
use crate::plan::{Assignment, PlacementError, PlacementPlan};
use clickinc_blockdag::{BlockDag, BlockId};
use clickinc_ir::IrProgram;
use std::time::{Duration, Instant};

/// Configuration of the exhaustive search.
#[derive(Debug, Clone)]
pub struct SmtConfig {
    /// Objective weights (set equal to the DP's for a fair comparison).
    pub weights: Weights,
    /// Hard wall-clock limit; the best plan found so far is returned when it
    /// expires (mirrors giving Z3 a timeout).
    pub time_limit: Duration,
}

impl Default for SmtConfig {
    fn default() -> Self {
        SmtConfig { weights: Weights::default(), time_limit: Duration::from_secs(120) }
    }
}

/// Statistics of one exhaustive solve.
#[derive(Debug, Clone, Default)]
pub struct SmtStats {
    /// Number of partial assignments explored.
    pub nodes_explored: u64,
    /// Whether the search space was fully exhausted (false when the time limit
    /// fired first).
    pub exhausted: bool,
}

/// Solve placement with the exhaustive baseline; returns the plan and search
/// statistics.
pub fn place_smt(
    program: &IrProgram,
    dag: &BlockDag,
    net: &PlacementNetwork,
    config: &SmtConfig,
) -> Result<(PlacementPlan, SmtStats), PlacementError> {
    let start = Instant::now();
    if program.is_empty() || dag.is_empty() {
        return Err(PlacementError::EmptyProgram);
    }
    if net.is_empty() {
        return Err(PlacementError::EmptyNetwork);
    }
    let leaves = net.client_leaves();
    if leaves.len() > 1 {
        return Err(PlacementError::UnsupportedNetwork(
            "the SMT-style baseline only handles single-path (chain) networks".into(),
        ));
    }
    let leaf = *leaves.first().unwrap_or(&net.client_root);
    let devices: Vec<PlacementDevice> = net.path_through(leaf).into_iter().cloned().collect();

    let order = dag.blocks_by_step();
    let n = order.len();
    let cuts = cut_costs(program, dag, &order);
    let cap_norm = net.total_available().total().max(1.0);

    // the program's allocator facts, derived once for every node the search visits
    let facts = SegFacts::new(program);
    let ctx = SegContext::new(program, &facts);
    let mut search = Search {
        ctx: &ctx,
        dag,
        devices: &devices,
        order: &order,
        cuts: &cuts,
        cap_norm,
        config,
        start,
        stats: SmtStats::default(),
        best: None,
        assignment: vec![0usize; n],
    };
    search.explore(0, 0);
    let stats = search.stats.clone();
    let best = search.best.take().ok_or(PlacementError::NoFeasiblePlacement)?;

    // materialize the plan from the best device assignment found
    let mut assignments = Vec::new();
    let mut resource_cost = 0.0;
    let mut comm_cost = 0.0;
    for (dev_idx, device) in devices.iter().enumerate() {
        let blocks_here: Vec<usize> = (0..n).filter(|b| best.assignment[*b] == dev_idx).collect();
        let (blocks, instrs, alloc) = if blocks_here.is_empty() {
            (Vec::new(), Vec::new(), crate::intra::StageAllocation::empty())
        } else {
            let blocks: Vec<BlockId> =
                blocks_here.iter().map(|&p| dag.blocks()[order[p]].id).collect();
            let mut instrs: Vec<usize> =
                blocks_here.iter().flat_map(|&p| dag.blocks()[order[p]].instrs.clone()).collect();
            instrs.sort_unstable();
            let alloc = allocate_stages_with(device, &ctx, &instrs)
                .expect("feasible assignments re-allocate successfully");
            (blocks, instrs, alloc)
        };
        resource_cost += alloc.demand.scaled(device.replication() as f64).total() / cap_norm;
        let step_lo = blocks_here.first().copied().unwrap_or(0);
        let step_hi = blocks_here.last().map(|b| b + 1).unwrap_or(step_lo);
        if let Some(&last) = blocks_here.last() {
            if last + 1 < n {
                comm_cost += cuts[last + 1];
            }
        }
        assignments.push(Assignment {
            device: device.name.clone(),
            members: device.members.clone(),
            kind: device.kind,
            blocks,
            instrs,
            stage_of: alloc.stage_of.clone(),
            stages_used: alloc.stages_used,
            demand: alloc.demand,
            step_range: (step_lo, step_hi),
        });
    }
    let weights = config.weights;
    let gain = weights.traffic - weights.resource * resource_cost - weights.comm * comm_cost;
    Ok((
        PlacementPlan {
            program: program.name.to_string(),
            assignments,
            gain,
            traffic_served: 1.0,
            resource_cost,
            comm_cost,
            weights,
            solve_time: start.elapsed(),
        },
        stats,
    ))
}

struct BestAssignment {
    assignment: Vec<usize>,
    gain: f64,
}

struct Search<'a> {
    ctx: &'a SegContext<'a>,
    dag: &'a BlockDag,
    devices: &'a [PlacementDevice],
    order: &'a [usize],
    cuts: &'a [f64],
    cap_norm: f64,
    config: &'a SmtConfig,
    start: Instant,
    stats: SmtStats,
    best: Option<BestAssignment>,
    assignment: Vec<usize>,
}

impl<'a> Search<'a> {
    /// Assign block position `pos` to a device ≥ `min_device` (blocks must move
    /// monotonically along the chain) and recurse.
    fn explore(&mut self, pos: usize, min_device: usize) {
        if self.start.elapsed() > self.config.time_limit {
            return;
        }
        if pos == self.order.len() {
            self.stats.nodes_explored += 1;
            self.evaluate_complete();
            return;
        }
        for dev in min_device..self.devices.len() {
            self.stats.nodes_explored += 1;
            self.assignment[pos] = dev;
            // feasibility of the partial assignment on this device
            if self.device_feasible(dev, pos + 1) {
                self.explore(pos + 1, dev);
            }
        }
        if min_device == 0 && pos == 0 {
            self.stats.exhausted = self.start.elapsed() <= self.config.time_limit;
        }
    }

    fn device_feasible(&self, dev: usize, upto: usize) -> bool {
        let instrs: Vec<usize> = (0..upto)
            .filter(|p| self.assignment[*p] == dev)
            .flat_map(|p| self.dag.blocks()[self.order[p]].instrs.clone())
            .collect();
        if instrs.is_empty() {
            return true;
        }
        allocate_stages_with(&self.devices[dev], self.ctx, &instrs).is_some()
    }

    fn evaluate_complete(&mut self) {
        // score the complete assignment with Eq. 1
        let n = self.order.len();
        let mut resource_cost = 0.0;
        let mut comm_cost = 0.0;
        for dev in 0..self.devices.len() {
            let instrs: Vec<usize> = (0..n)
                .filter(|p| self.assignment[*p] == dev)
                .flat_map(|p| self.dag.blocks()[self.order[p]].instrs.clone())
                .collect();
            if instrs.is_empty() {
                continue;
            }
            match allocate_stages_with(&self.devices[dev], self.ctx, &instrs) {
                Some(alloc) => {
                    resource_cost +=
                        alloc.demand.scaled(self.devices[dev].replication() as f64).total()
                            / self.cap_norm;
                }
                None => return,
            }
        }
        for p in 1..n {
            if self.assignment[p] != self.assignment[p - 1] {
                comm_cost += self.cuts[p];
            }
        }
        let w = self.config.weights;
        let gain = w.traffic - w.resource * resource_cost - w.comm * comm_cost;
        if self.best.as_ref().map(|b| gain > b.gain).unwrap_or(true) {
            self.best = Some(BestAssignment { assignment: self.assignment.clone(), gain });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::ResourceLedger;
    use clickinc_blockdag::{build_block_dag, BlockConfig};
    use clickinc_device::DeviceKind;
    use clickinc_frontend::compile_source;
    use clickinc_lang::templates::{dqacc_template, kvs_template, DqAccParams, KvsParams};
    use clickinc_topology::{reduce_for_traffic, Topology};

    fn chain_net(n: usize) -> PlacementNetwork {
        let topo = Topology::chain(n, DeviceKind::Tofino);
        let servers = topo.servers();
        let reduced = reduce_for_traffic(&topo, &[servers[0]], servers[1], &[]);
        PlacementNetwork::from_reduced(&topo, &reduced, &ResourceLedger::new())
    }

    #[test]
    fn smt_explores_more_nodes_with_more_devices() {
        let t = dqacc_template("dqacc", DqAccParams { depth: 500, ways: 2 });
        let ir = compile_source("dqacc", &t.source).unwrap();
        let dag = build_block_dag(&ir, &BlockConfig::default());
        let (_, s2) = place_smt(&ir, &dag, &chain_net(2), &SmtConfig::default()).unwrap();
        let (_, s3) = place_smt(&ir, &dag, &chain_net(3), &SmtConfig::default()).unwrap();
        assert!(s3.nodes_explored > s2.nodes_explored);
    }

    #[test]
    fn smt_rejects_multipath_networks() {
        let t = kvs_template("kvs", KvsParams::default());
        let ir = compile_source("kvs", &t.source).unwrap();
        let dag = build_block_dag(&ir, &BlockConfig::default());
        let topo = Topology::device_equal_fat_tree(4, DeviceKind::Tofino);
        let s0 = topo.find("pod0_s0").unwrap();
        let s1 = topo.find("pod1_s0").unwrap();
        let dst = topo.find("pod2_s0").unwrap();
        let reduced = reduce_for_traffic(&topo, &[s0, s1], dst, &[]);
        let net = PlacementNetwork::from_reduced(&topo, &reduced, &ResourceLedger::new());
        assert!(matches!(
            place_smt(&ir, &dag, &net, &SmtConfig::default()),
            Err(PlacementError::UnsupportedNetwork(_))
        ));
    }
}
