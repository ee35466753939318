//! The placement dynamic program (paper Algorithm 1 + Eq. 2).
//!
//! The block DAG is linearized in step order; along every source-to-destination
//! path the blocks must appear as contiguous segments in that order (the
//! sequential-execution invariant of §5.1).  The DP therefore decides, for
//! every device of the reduced topology, which contiguous *prefix extension*
//! of the block sequence it hosts:
//!
//! * on the client-side sub-tree, `H[u][k]` is the best gain of placing the
//!   first `k` blocks within the subtree rooted at `u`, where `u` itself hosts
//!   a suffix `[j..k)` of that prefix and every child branch independently
//!   hosts the first `j` blocks (replication across equal-cost branches);
//! * on the server-side chain, `S[i][k]` is the best gain of placing the
//!   remaining blocks `[k..n)` on devices `i..`;
//! * the two are joined at the root, and a plan exists only if some `k` lets
//!   both sides succeed (full coverage — every path executes the whole
//!   program).
//!
//! Pruning (§5.4): device capability and resource violations yield `-∞` and cut
//! the branch; segment feasibility is monotone in segment length, so the inner
//! loop stops at the first infeasible extension.  Disabling pruning (the
//! Fig. 14(b) ablation) evaluates every combination.

use crate::intra::{fit_segment, SegContext, SegFacts, SegFit};
use crate::memo::{device_fingerprint, shape_fingerprint, SolveCache};
use crate::network::{PlacementDevice, PlacementNetwork};
use crate::objective::{cut_costs, Weights};
use crate::plan::{Assignment, PlacementError, PlacementPlan};
use clickinc_blockdag::BlockDag;
use clickinc_ir::IrProgram;
use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

/// Configuration of the DP placement.
#[derive(Debug, Clone)]
pub struct PlacementConfig {
    /// Objective weights (adaptive by default).
    pub weights: Weights,
    /// Whether to apply the §5.4 pruning rules (disabled only for the Fig. 14
    /// ablation).
    pub enable_pruning: bool,
}

impl Default for PlacementConfig {
    fn default() -> Self {
        PlacementConfig { weights: Weights::default(), enable_pruning: true }
    }
}

#[derive(Debug, Clone, Copy)]
struct Choice {
    gain: f64,
    split: usize,
    fit: SegFit,
}

/// Place `program` (already grouped into `dag`) onto `net`.
///
/// Pure and concurrency-safe: the solver borrows its inputs immutably and
/// keeps every table it builds on its own stack, so any number of solves —
/// for different programs, or the same one — may run concurrently on worker
/// threads against one shared network view.  Given identical inputs the
/// returned plan is bit-identical (modulo the wall-clock `solve_time`,
/// which [`PlacementPlan::fingerprint`](crate::PlacementPlan::fingerprint)
/// deliberately excludes) regardless of how many solves run next to it.
pub fn place(
    program: &IrProgram,
    dag: &BlockDag,
    net: &PlacementNetwork,
    config: &PlacementConfig,
) -> Result<PlacementPlan, PlacementError> {
    place_with_cache(program, dag, net, config, None)
}

/// What a solve derives from a program and its block DAG before it looks at
/// the network: the blocks in step order, the cut cost of every boundary,
/// the memo's shape key and the stage allocator's [`SegFacts`].
///
/// None of it depends on the tenant.  Isolation prefixes every temporary and
/// object name with `{user}_` and guards every instruction on the tenant's
/// numeric id; the bundle reads which instructions and objects share a name,
/// never a name itself or the id.  So one program isolated under two tenants
/// yields equal bundles, and a solve for one may use the other's
/// ([`place_prepared`]).  The shape key and the per-kind demand are derived
/// on first use.
#[derive(Debug, PartialEq)]
pub struct PlacementInputs {
    order: Vec<usize>,
    cuts: Vec<f64>,
    shape: OnceLock<u128>,
    facts: SegFacts,
}

impl PlacementInputs {
    /// Derive the inputs of a solve over `program` grouped into `dag`.
    pub fn new(program: &IrProgram, dag: &BlockDag) -> PlacementInputs {
        let order = dag.blocks_by_step();
        let cuts = cut_costs(program, dag, &order);
        PlacementInputs { order, cuts, shape: OnceLock::new(), facts: SegFacts::new(program) }
    }

    /// The blocks in step order ([`BlockDag::blocks_by_step`]).
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// [`cut_costs`] over [`order`](PlacementInputs::order).
    pub fn cut_costs(&self) -> &[f64] {
        &self.cuts
    }

    /// The memo's [`shape_fingerprint`] of `program` and `dag`, the pair the
    /// inputs were derived from.
    pub fn shape(&self, program: &IrProgram, dag: &BlockDag) -> u128 {
        *self.shape.get_or_init(|| shape_fingerprint(program, dag, &self.order))
    }

    /// The stage allocator's facts.
    pub fn facts(&self) -> &SegFacts {
        &self.facts
    }

    /// Derive everything derived on first use — the shape key and the
    /// demand of every device kind — so two bundles compare in full.
    pub fn fill(&self, program: &IrProgram, dag: &BlockDag) {
        self.shape(program, dag);
        self.facts.fill(program);
    }
}

/// [`place`] with an optional cross-solve segment memo.
///
/// With `cache` supplied, segment feasibility questions are answered from the
/// [`SolveCache`] when their exact inputs were seen before (same canonical
/// program/DAG shape, same residual device capacities, same bounds) and the
/// stage allocator runs only for genuinely new subproblems — a warm re-solve
/// after one device's ledger moved recomputes only that device's segments.
/// Memo keys carry the exact bits of every input, so the returned plan is
/// bit-identical to a `cache`-less cold solve.
pub fn place_with_cache(
    program: &IrProgram,
    dag: &BlockDag,
    net: &PlacementNetwork,
    config: &PlacementConfig,
    cache: Option<&SolveCache>,
) -> Result<PlacementPlan, PlacementError> {
    let start = Instant::now();
    let inputs = PlacementInputs::new(program, dag);
    let plan = place_prepared(program, dag, &inputs, net, config, cache)?;
    Ok(PlacementPlan { solve_time: start.elapsed(), ..plan })
}

/// [`place_with_cache`] on inputs derived beforehand — from `program` and
/// `dag`, or from the same program isolated under another tenant (see
/// [`PlacementInputs`]).  The plan is bit-identical either way.
pub fn place_prepared(
    program: &IrProgram,
    dag: &BlockDag,
    inputs: &PlacementInputs,
    net: &PlacementNetwork,
    config: &PlacementConfig,
    cache: Option<&SolveCache>,
) -> Result<PlacementPlan, PlacementError> {
    let start = Instant::now();
    if program.is_empty() || dag.is_empty() {
        return Err(PlacementError::EmptyProgram);
    }
    if net.is_empty() {
        return Err(PlacementError::EmptyNetwork);
    }
    let order = &inputs.order;
    let n = order.len();
    let cuts = &inputs.cuts;
    let cap_norm = net.total_available().total().max(1.0);
    let w = config.weights;

    // the per-program facts, the canonical shape key, and one device key
    // per candidate device
    let ctx = SegContext::new(program, &inputs.facts);
    let shape = cache.map(|_| inputs.shape(program, dag));
    let client_keys: Vec<u64> = net.client.iter().map(device_fingerprint).collect();
    let server_keys: Vec<u64> = net.server.iter().map(device_fingerprint).collect();

    let seg_instrs = |j: usize, k: usize| -> Vec<usize> {
        let mut v: Vec<usize> =
            order[j..k].iter().flat_map(|b| dag.blocks()[*b].instrs.iter().copied()).collect();
        v.sort_unstable();
        v
    };
    // feasibility is memoizable (pure in shape/device/bounds); the capability
    // pre-check stays inside the compute path because a block's class set is
    // exactly the union of its instructions' classes, so pruning on it returns
    // None precisely when the allocator would — cache entries are identical
    // with pruning on or off
    let seg_fit = |dev: &PlacementDevice, dev_key: u64, j: usize, k: usize| {
        let compute = || {
            if config.enable_pruning {
                // capability pre-check: −∞ without running the stage allocator
                for b in &order[j..k] {
                    if !dev.supports_all(dag.blocks()[*b].classes.iter()) {
                        return None;
                    }
                }
            }
            fit_segment(dev, &ctx, &seg_instrs(j, k), None)
        };
        match (cache, shape) {
            (Some(memo), Some(shape)) => memo.fit_or_compute(shape, dev_key, j, k, compute),
            _ => compute(),
        }
    };
    // objective terms stay outside the memo: weights, cap_norm and the
    // device's replication vary per solve while the fit does not
    let seg_eval =
        |dev: &PlacementDevice, dev_key: u64, j: usize, k: usize| -> Option<(f64, SegFit)> {
            if j == k {
                return Some((0.0, SegFit::EMPTY));
            }
            let fit = seg_fit(dev, dev_key, j, k)?;
            let rnorm = fit.demand.scaled(dev.replication() as f64).total() / cap_norm;
            Some((-w.resource * rnorm, fit))
        };
    // the stage map of a segment the plan uses, from the allocator that
    // judged it feasible
    let assignment = |dev: &PlacementDevice, j: usize, k: usize, fit: SegFit| {
        let instrs = seg_instrs(j, k);
        let mut stage_of = BTreeMap::new();
        let refit = fit_segment(dev, &ctx, &instrs, Some(&mut stage_of));
        debug_assert_eq!(refit, Some(fit), "the allocator is a pure function of the segment");
        Assignment {
            device: dev.name.clone(),
            members: dev.members.clone(),
            kind: dev.kind,
            blocks: order[j..k].iter().map(|b| dag.blocks()[*b].id).collect(),
            instrs,
            stage_of,
            stages_used: fit.stages_used,
            demand: fit.demand,
            step_range: (j, k),
        }
    };

    // ---- client-side sub-tree DP (bottom-up) ---------------------------------
    let n_client = net.client.len();
    let mut tables: Vec<Vec<Option<Choice>>> = vec![Vec::new(); n_client];
    // post-order: children before parents
    let postorder = postorder_of(net);
    for &u in &postorder {
        let device = &net.client[u];
        let children = &net.client_children[u];
        let mut table: Vec<Option<Choice>> = vec![None; n + 1];
        for (k, slot) in table.iter_mut().enumerate() {
            let mut best: Option<Choice> = None;
            // j runs from k down to 0 so the segment grows monotonically and the
            // pruned loop can stop at the first infeasible extension
            for j in (0..=k).rev() {
                if children.is_empty() && j != 0 {
                    continue;
                }
                let mut child_sum = 0.0;
                let mut children_ok = true;
                for &c in children {
                    match &tables[c][j] {
                        Some(choice) => {
                            child_sum += choice.gain;
                            // charge the child → parent cut (`cut_costs`)
                            child_sum -= w.comm * cuts[j];
                        }
                        None => {
                            children_ok = false;
                            break;
                        }
                    }
                }
                if !children_ok {
                    continue;
                }
                match seg_eval(device, client_keys[u], j, k) {
                    Some((seg_gain, fit)) => {
                        let gain = child_sum + seg_gain;
                        if best.as_ref().map(|b| gain > b.gain).unwrap_or(true) {
                            best = Some(Choice { gain, split: j, fit });
                        }
                    }
                    None => {
                        if config.enable_pruning {
                            // a longer segment (smaller j) cannot become feasible
                            break;
                        }
                    }
                }
            }
            *slot = best;
        }
        tables[u] = table;
    }

    // ---- server-side chain DP -------------------------------------------------
    let m = net.server.len();
    // server_tables[i][k]: best gain for blocks [k..n) on devices i.., plus the
    // chosen end of device i's segment.
    let mut server_tables: Vec<Vec<Option<Choice>>> = vec![vec![None; n + 1]; m + 1];
    server_tables[m][n] = Some(Choice { gain: 0.0, split: n, fit: SegFit::EMPTY });
    for i in (0..m).rev() {
        for k in 0..=n {
            let mut best: Option<Choice> = None;
            for mid in k..=n {
                let tail = match &server_tables[i + 1][mid] {
                    Some(t) => t.gain,
                    None => continue,
                };
                match seg_eval(&net.server[i], server_keys[i], k, mid) {
                    Some((seg_gain, fit)) => {
                        // boundary between device i and i+1 sits at `mid`
                        let boundary = if mid < n { w.comm * cuts[mid] } else { 0.0 };
                        let gain = seg_gain + tail - boundary;
                        if best.as_ref().map(|b| gain > b.gain).unwrap_or(true) {
                            best = Some(Choice { gain, split: mid, fit });
                        }
                    }
                    None => {
                        if config.enable_pruning {
                            break;
                        }
                    }
                }
            }
            server_tables[i][k] = best;
        }
    }

    // ---- join at the root -------------------------------------------------------
    let root_table = &tables[net.client_root];
    let mut best_total: Option<(f64, usize)> = None;
    for k in 0..=n {
        let client = match &root_table[k] {
            Some(c) => c.gain,
            None => continue,
        };
        let server = if m == 0 {
            if k == n {
                0.0
            } else {
                continue;
            }
        } else {
            match &server_tables[0][k] {
                Some(s) => s.gain,
                None => continue,
            }
        };
        let boundary = if m > 0 && k < n && k > 0 { w.comm * cuts[k] } else { 0.0 };
        let total = client + server - boundary + w.traffic * 1.0;
        if best_total.map(|(g, _)| total > g).unwrap_or(true) {
            best_total = Some((total, k));
        }
    }
    let (gain, split_k) = best_total.ok_or(PlacementError::NoFeasiblePlacement)?;

    // ---- reconstruct assignments ----------------------------------------------
    let mut assignments: Vec<Assignment> = Vec::new();
    let mut comm_cost = 0.0;
    // client side: walk the tree from the root downwards
    let mut stack = vec![(net.client_root, split_k)];
    while let Some((u, k)) = stack.pop() {
        let choice = tables[u][k].as_ref().expect("reconstruction follows feasible choices");
        let j = choice.split;
        assignments.push(assignment(&net.client[u], j, k, choice.fit));
        for &c in &net.client_children[u] {
            if j > 0 && j < n {
                comm_cost += cuts[j];
            }
            stack.push((c, j));
        }
    }
    // order client assignments by step range so the plan reads in traffic order
    assignments.sort_by_key(|a| a.step_range.0);
    assignments.reverse();
    assignments.sort_by_key(|a| a.step_range.0);
    // server side
    if m > 0 && split_k < n && split_k > 0 {
        comm_cost += cuts[split_k];
    }
    let mut k = split_k;
    for (i, (server_table, server_node)) in server_tables.iter().zip(net.server.iter()).enumerate()
    {
        let choice = server_table[k].as_ref().expect("feasible server choice");
        let mid = choice.split;
        assignments.push(assignment(server_node, k, mid, choice.fit));
        if mid < n && i + 1 < m {
            comm_cost += cuts[mid];
        }
        k = mid;
    }

    let resource_cost = assignments
        .iter()
        .map(|a| a.demand.scaled(a.members.len().max(1) as f64).total())
        .sum::<f64>()
        / cap_norm;

    Ok(PlacementPlan {
        program: program.name.clone(),
        assignments,
        gain,
        traffic_served: 1.0,
        resource_cost,
        comm_cost,
        weights: w,
        solve_time: start.elapsed(),
    })
}

fn postorder_of(net: &PlacementNetwork) -> Vec<usize> {
    let mut order = Vec::with_capacity(net.client.len());
    let mut visited = vec![false; net.client.len()];
    fn visit(u: usize, net: &PlacementNetwork, visited: &mut [bool], order: &mut Vec<usize>) {
        if visited[u] {
            return;
        }
        visited[u] = true;
        for &c in &net.client_children[u] {
            visit(c, net, visited, order);
        }
        order.push(u);
    }
    visit(net.client_root, net, &mut visited, &mut order);
    // include any disconnected client nodes defensively
    for u in 0..net.client.len() {
        visit(u, net, &mut visited, &mut order);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::ResourceLedger;
    use clickinc_blockdag::{build_block_dag, BlockConfig};
    use clickinc_device::DeviceKind;
    use clickinc_frontend::compile_source;
    use clickinc_lang::templates::{
        dqacc_template, kvs_template, mlagg_template, DqAccParams, KvsParams, MlAggParams,
    };
    use clickinc_topology::{reduce_for_traffic, Topology};

    fn network(topo: &Topology, sources: &[&str], dst: &str) -> PlacementNetwork {
        let src_ids: Vec<_> = sources.iter().map(|s| topo.find(s).unwrap()).collect();
        let dst_id = topo.find(dst).unwrap();
        let reduced = reduce_for_traffic(topo, &src_ids, dst_id, &[]);
        PlacementNetwork::from_reduced(topo, &reduced, &ResourceLedger::new())
    }

    fn chain_network(n: usize, kind: DeviceKind) -> (Topology, PlacementNetwork) {
        let topo = Topology::chain(n, kind);
        let net = network(&topo, &["client"], "server");
        (topo, net)
    }

    fn compile(name: &str, source: &str) -> (IrProgram, BlockDag) {
        let ir = compile_source(name, source).unwrap();
        let dag = build_block_dag(&ir, &BlockConfig::default());
        (ir, dag)
    }

    #[test]
    fn kvs_places_on_a_tofino_chain() {
        let t = kvs_template("kvs", KvsParams::default());
        let (ir, dag) = compile("kvs", &t.source);
        let (_, net) = chain_network(4, DeviceKind::Tofino);
        let plan = place(&ir, &dag, &net, &PlacementConfig::default()).expect("kvs placeable");
        plan.assert_valid(&ir, &dag, &net);
        assert_eq!(plan.traffic_served, 1.0);
        assert!(plan.total_instructions() >= ir.len());
        assert!(!plan.devices_used().is_empty());
        assert!(plan.gain <= 0.5, "gain is bounded by the traffic term");
    }

    #[test]
    fn mlagg_and_dqacc_place_on_chains() {
        for (name, source) in [
            (
                "mlagg",
                mlagg_template("mlagg", MlAggParams { dims: 8, ..Default::default() }).source,
            ),
            ("dqacc", dqacc_template("dqacc", DqAccParams { depth: 2000, ways: 4 }).source),
        ] {
            let (ir, dag) = compile(name, &source);
            let (_, net) = chain_network(4, DeviceKind::Tofino);
            let plan = place(&ir, &dag, &net, &PlacementConfig::default())
                .unwrap_or_else(|e| panic!("{name} should place: {e}"));
            plan.assert_valid(&ir, &dag, &net);
        }
    }

    #[test]
    fn float_mlagg_cannot_place_on_tofino_only() {
        let t = mlagg_template(
            "mlagg_f",
            MlAggParams { dims: 4, is_float: true, ..Default::default() },
        );
        let (ir, dag) = compile("mlagg_f", &t.source);
        let (_, net) = chain_network(4, DeviceKind::Tofino);
        assert_eq!(
            place(&ir, &dag, &net, &PlacementConfig::default()).unwrap_err(),
            PlacementError::NoFeasiblePlacement
        );
        // ... but an FPGA NIC chain can host it
        let (_, fpga_net) = chain_network(2, DeviceKind::FpgaSmartNic);
        assert!(place(&ir, &dag, &net_or(&fpga_net), &PlacementConfig::default()).is_ok());
    }

    fn net_or(net: &PlacementNetwork) -> PlacementNetwork {
        net.clone()
    }

    #[test]
    fn large_programs_split_across_devices() {
        // a KVS with a cache too big for one Tofino must span several switches
        let t = kvs_template("kvs_big", KvsParams { cache_depth: 300_000, ..Default::default() });
        let (ir, dag) = compile("kvs_big", &t.source);
        let (_, net1) = chain_network(1, DeviceKind::Tofino);
        let single = place(&ir, &dag, &net1, &PlacementConfig::default());
        assert!(single.is_err(), "a 300K-entry cache cannot fit one Tofino");
        let (_, net4) = chain_network(4, DeviceKind::Tofino);
        let multi = place(&ir, &dag, &net4, &PlacementConfig::default());
        // the cache is a single stateful block, so it still cannot be split; it
        // must fail on homogeneous small switches too.
        assert!(multi.is_err());
        // on an FPGA accelerator (much more memory) it fits
        let (_, fpga) = chain_network(1, DeviceKind::FpgaAccelerator);
        assert!(place(&ir, &dag, &fpga, &PlacementConfig::default()).is_ok());
    }

    #[test]
    fn multi_path_fat_tree_replicates_blocks_on_branches() {
        let t = mlagg_template(
            "mlagg",
            MlAggParams { dims: 4, num_aggregators: 512, ..Default::default() },
        );
        let (ir, dag) = compile("mlagg", &t.source);
        let topo = Topology::device_equal_fat_tree(4, DeviceKind::Tofino);
        let net = network(&topo, &["pod0_s0", "pod1_s0"], "pod2_s0");
        let plan = place(&ir, &dag, &net, &PlacementConfig::default()).expect("places");
        plan.assert_valid(&ir, &dag, &net);
        // both client branches exist in the network
        assert_eq!(net.client_leaves().len(), 2);
    }

    #[test]
    fn empty_program_and_network_errors() {
        let t = kvs_template("kvs", KvsParams::default());
        let (ir, dag) = compile("kvs", &t.source);
        let (_, net) = chain_network(2, DeviceKind::Tofino);
        let empty = IrProgram::new("empty");
        let empty_dag = build_block_dag(&empty, &BlockConfig::default());
        assert_eq!(
            place(&empty, &empty_dag, &net, &PlacementConfig::default()).unwrap_err(),
            PlacementError::EmptyProgram
        );
        let empty_net = PlacementNetwork {
            client: Vec::new(),
            client_children: Vec::new(),
            client_root: 0,
            server: Vec::new(),
        };
        assert_eq!(
            place(&ir, &dag, &empty_net, &PlacementConfig::default()).unwrap_err(),
            PlacementError::EmptyNetwork
        );
    }

    #[test]
    fn pruning_does_not_change_the_result() {
        let t = dqacc_template("dqacc", DqAccParams { depth: 2000, ways: 4 });
        let (ir, dag) = compile("dqacc", &t.source);
        let (_, net) = chain_network(3, DeviceKind::Tofino);
        let pruned = place(&ir, &dag, &net, &PlacementConfig::default()).unwrap();
        let unpruned = place(
            &ir,
            &dag,
            &net,
            &PlacementConfig { enable_pruning: false, ..Default::default() },
        )
        .unwrap();
        assert!((pruned.gain - unpruned.gain).abs() < 1e-9);
        assert_eq!(pruned.devices_used().len(), unpruned.devices_used().len());
    }

    #[test]
    fn heterogeneous_emulation_topology_hosts_kvs() {
        let t = kvs_template("kvs0", KvsParams::default());
        let (ir, dag) = compile("kvs0", &t.source);
        let topo = Topology::emulation_topology();
        let net = network(&topo, &["pod0a", "pod1a"], "pod2b");
        let plan = place(&ir, &dag, &net, &PlacementConfig::default()).expect("kvs places");
        plan.assert_valid(&ir, &dag, &net);
    }

    #[test]
    fn adaptive_weights_prefer_fewer_devices_under_pressure() {
        let t = dqacc_template("dq", DqAccParams { depth: 1000, ways: 2 });
        let (ir, dag) = compile("dq", &t.source);
        let (_, net) = chain_network(4, DeviceKind::Tofino);
        // plenty of resources: communication dominates, so the plan concentrates
        let relaxed = place(
            &ir,
            &dag,
            &net,
            &PlacementConfig { weights: Weights::adaptive(1.0), ..Default::default() },
        )
        .unwrap();
        // scarce resources: the resource term dominates; the plan should never
        // use more devices than the relaxed one needs
        let pressured = place(
            &ir,
            &dag,
            &net,
            &PlacementConfig { weights: Weights::adaptive(0.05), ..Default::default() },
        )
        .unwrap();
        assert!(pressured.devices_used().len() <= relaxed.devices_used().len() + 1);
    }
}
