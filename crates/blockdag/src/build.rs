//! Block DAG construction (paper §5.2, Algorithm 3).

use crate::dag::{Block, BlockDag, BlockId};
use clickinc_ir::{classify_instruction, state_key, CapabilityClass, DependencyKind, IrProgram};
use std::collections::BTreeSet;

/// Configuration of the block construction.
#[derive(Debug, Clone)]
pub struct BlockConfig {
    /// Maximum number of instructions per block ("a block's size should be
    /// limited by a threshold parameter decided by the device capability").
    pub max_block_instrs: usize,
    /// Whether to run the optional Kahn-partition merging (step 3).  Disabling
    /// it keeps one block per mandatory state-sharing group — the "w/o-block"
    /// ablation of Fig. 14.
    pub enable_merging: bool,
}

impl Default for BlockConfig {
    fn default() -> Self {
        BlockConfig { max_block_instrs: 16, enable_merging: true }
    }
}

/// Build the block DAG for an IR program.
pub fn build_block_dag(program: &IrProgram, config: &BlockConfig) -> BlockDag {
    let n = program.len();
    if n == 0 {
        return BlockDag::new(Vec::new(), Vec::new());
    }
    let deps = program.dependencies();

    // --- step 1 & 2: instruction graph, then collapse cycles (SCCs) ----------
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (a, b, _) in &deps {
        succ[*a].push(*b);
    }
    let scc_of = tarjan_scc(n, &succ);
    let n_groups = scc_of.iter().copied().max().map(|m| m + 1).unwrap_or(0);
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); n_groups];
    for (instr, &g) in scc_of.iter().enumerate() {
        groups[g].push(instr);
    }
    for g in &mut groups {
        g.sort_unstable();
    }
    // order groups by their first instruction so block ids follow program order
    let mut group_order: Vec<usize> = (0..n_groups).collect();
    group_order.sort_by_key(|&g| groups[g].first().copied().unwrap_or(usize::MAX));
    let mut group_rank = vec![0usize; n_groups];
    for (rank, &g) in group_order.iter().enumerate() {
        group_rank[g] = rank;
    }
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); n_groups];
    for (g, instrs) in groups.into_iter().enumerate() {
        members[group_rank[g]] = instrs;
    }
    // group-level edges (data edges only across groups; state edges are intra-group
    // by construction of the SCCs, but keep any residual cross-group ones too)
    let mut gedges: BTreeSet<(usize, usize)> = BTreeSet::new();
    for (a, b, kind) in &deps {
        let (ga, gb) = (group_rank[scc_of[*a]], group_rank[scc_of[*b]]);
        if ga != gb {
            // a cross-group state edge would indicate a bug in SCC contraction;
            // treat it as a data edge in the forward direction to stay acyclic.
            let _ = kind;
            if members[ga].first() < members[gb].first() {
                gedges.insert((ga, gb));
            } else {
                gedges.insert((gb, ga));
            }
        }
    }
    // data edges keep their direction
    let mut edges: BTreeSet<(usize, usize)> = BTreeSet::new();
    for (a, b, kind) in &deps {
        if *kind == DependencyKind::Data {
            let (ga, gb) = (group_rank[scc_of[*a]], group_rank[scc_of[*b]]);
            if ga != gb {
                edges.insert((ga, gb));
            }
        }
    }
    // also include the normalized residual edges computed above
    for e in gedges {
        // only add if it does not contradict an existing data edge direction
        if !edges.contains(&(e.1, e.0)) {
            edges.insert(e);
        }
    }

    let mut merged_members = members;
    let mut merged_edges: Vec<(usize, usize)> = edges.into_iter().collect();

    // the per-instruction fact every merge decision and block needs, computed
    // exactly once — the merge loop below used to recompute the whole
    // program's capability classes for every block of every round, which
    // dominated the solve pipeline on large programs
    let class_of: Vec<CapabilityClass> =
        program.instructions.iter().map(|i| classify_instruction(i, &program.objects)).collect();

    // --- step 3: Kahn partitioning + same-type merging -----------------------
    if config.enable_merging {
        while let Some((new_members, new_edges)) =
            merge_round(&class_of, &merged_members, &merged_edges, config)
        {
            merged_members = new_members;
            merged_edges = new_edges;
        }
    }

    // --- materialize blocks, stamped with their step = topological level -----
    let levels = levels_of(merged_members.len(), &merged_edges);
    let blocks: Vec<Block> = merged_members
        .into_iter()
        .enumerate()
        .map(|(id, instrs)| make_block(&class_of, program, id, instrs, levels[id]))
        .collect();
    BlockDag::new(blocks, merged_edges)
}

fn make_block(
    class_of: &[CapabilityClass],
    program: &IrProgram,
    id: usize,
    instrs: Vec<usize>,
    step: usize,
) -> Block {
    let classes: BTreeSet<CapabilityClass> = instrs.iter().map(|&i| class_of[i]).collect();
    let stateful =
        instrs.iter().any(|&i| state_key(&program.instructions[i], &program.objects).is_some());
    Block { id: BlockId(id), instrs, classes, step, stateful }
}

/// Longest-path topological levels over a raw edge list: a node's level is
/// 1 + the maximum level of its predecessors, sources at 0 — all zeros when
/// the graph has a cycle.  [`BlockDag::levels`] answers through this.
pub(crate) fn levels_of(n: usize, edges: &[(usize, usize)]) -> Vec<usize> {
    let Some(order) = topo_order(n, edges) else { return vec![0; n] };
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(a, b) in edges {
        preds[b].push(a);
    }
    let mut level = vec![0usize; n];
    for &b in &order {
        for &p in &preds[b] {
            level[b] = level[b].max(level[p] + 1);
        }
    }
    level
}

/// Kahn topological order over a raw edge list; `None` on a cycle.
/// [`BlockDag::topological_order`] answers through this.
pub(crate) fn topo_order(n: usize, edges: &[(usize, usize)]) -> Option<Vec<usize>> {
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut deg = vec![0usize; n];
    for &(a, b) in edges {
        succ[a].push(b);
        deg[b] += 1;
    }
    let mut queue: Vec<usize> = (0..n).filter(|&b| deg[b] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(b) = queue.pop() {
        order.push(b);
        for &s in &succ[b] {
            deg[s] -= 1;
            if deg[s] == 0 {
                queue.push(s);
            }
        }
    }
    (order.len() == n).then_some(order)
}

/// A merge round's output: the new per-block membership and block edges.
type MergedLayout = (Vec<Vec<usize>>, Vec<(usize, usize)>);

/// One round of merging: try to merge same-type blocks within a Kahn layer and
/// across adjacent layers, without exceeding the size budget or creating a
/// cycle.  Returns the new membership and edges, or `None` once no candidate
/// merge is possible.
fn merge_round(
    class_of: &[CapabilityClass],
    members: &[Vec<usize>],
    edges: &[(usize, usize)],
    config: &BlockConfig,
) -> Option<MergedLayout> {
    let n = members.len();
    if n <= 1 {
        return None;
    }
    let levels = levels_of(n, edges);
    let block_classes: Vec<BTreeSet<CapabilityClass>> =
        members.iter().map(|instrs| instrs.iter().map(|&i| class_of[i]).collect()).collect();

    // candidate pairs: same layer first, then adjacent layers
    let mut candidates: Vec<(usize, usize)> = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            let same_layer = levels[a] == levels[b];
            let adjacent = levels[a].abs_diff(levels[b]) == 1;
            if !(same_layer || adjacent) {
                continue;
            }
            if members[a].len() + members[b].len() > config.max_block_instrs {
                continue;
            }
            if !classes_compatible(&block_classes[a], &block_classes[b]) {
                continue;
            }
            candidates.push((a, b));
        }
    }
    // prefer same-layer merges, then smaller combined size
    candidates
        .sort_by_key(|&(a, b)| (levels[a] != levels[b], members[a].len() + members[b].len(), a, b));

    for (a, b) in candidates {
        // try the merge and keep it if the DAG stays acyclic
        let (new_members, new_edges) = apply_merge(members, edges, a, b);
        if topo_order(new_members.len(), &new_edges).is_some() {
            return Some((new_members, new_edges));
        }
    }
    None
}

/// Two class sets are "non-exclusive" (mergeable) when one is a subset of the
/// other — merging never widens the set of devices that must support the block.
fn classes_compatible(a: &BTreeSet<CapabilityClass>, b: &BTreeSet<CapabilityClass>) -> bool {
    a.is_subset(b) || b.is_subset(a)
}

fn apply_merge(
    members: &[Vec<usize>],
    edges: &[(usize, usize)],
    a: usize,
    b: usize,
) -> (Vec<Vec<usize>>, Vec<(usize, usize)>) {
    let (keep, gone) = if a < b { (a, b) } else { (b, a) };
    let mut new_members: Vec<Vec<usize>> = Vec::with_capacity(members.len() - 1);
    let mut remap = vec![0usize; members.len()];
    for (idx, m) in members.iter().enumerate() {
        if idx == gone {
            continue;
        }
        remap[idx] = new_members.len();
        new_members.push(m.clone());
    }
    // the removed block maps to wherever `keep` landed
    remap[gone] = remap[keep];
    let mut merged = members[keep].clone();
    merged.extend(members[gone].iter().copied());
    merged.sort_unstable();
    new_members[remap[keep]] = merged;
    let mut new_edges: Vec<(usize, usize)> =
        edges.iter().map(|&(x, y)| (remap[x], remap[y])).filter(|(x, y)| x != y).collect();
    new_edges.sort_unstable();
    new_edges.dedup();
    (new_members, new_edges)
}

/// Iterative Tarjan strongly-connected-components; returns the SCC index of
/// every node.
fn tarjan_scc(n: usize, succ: &[Vec<usize>]) -> Vec<usize> {
    #[derive(Clone, Copy)]
    struct NodeState {
        index: i64,
        lowlink: i64,
        on_stack: bool,
    }
    let mut state = vec![NodeState { index: -1, lowlink: -1, on_stack: false }; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut scc_of = vec![usize::MAX; n];
    let mut next_index: i64 = 0;
    let mut next_scc = 0usize;

    // explicit DFS stack: (node, child iterator position)
    for start in 0..n {
        if state[start].index != -1 {
            continue;
        }
        let mut call_stack: Vec<(usize, usize)> = vec![(start, 0)];
        state[start].index = next_index;
        state[start].lowlink = next_index;
        next_index += 1;
        stack.push(start);
        state[start].on_stack = true;

        while let Some(&mut (node, ref mut child_pos)) = call_stack.last_mut() {
            if *child_pos < succ[node].len() {
                let child = succ[node][*child_pos];
                *child_pos += 1;
                if state[child].index == -1 {
                    state[child].index = next_index;
                    state[child].lowlink = next_index;
                    next_index += 1;
                    stack.push(child);
                    state[child].on_stack = true;
                    call_stack.push((child, 0));
                } else if state[child].on_stack {
                    state[node].lowlink = state[node].lowlink.min(state[child].index);
                }
            } else {
                call_stack.pop();
                if let Some(&(parent, _)) = call_stack.last() {
                    state[parent].lowlink = state[parent].lowlink.min(state[node].lowlink);
                }
                if state[node].lowlink == state[node].index {
                    loop {
                        let w = stack.pop().expect("stack non-empty while closing SCC");
                        state[w].on_stack = false;
                        scc_of[w] = next_scc;
                        if w == node {
                            break;
                        }
                    }
                    next_scc += 1;
                }
            }
        }
    }
    scc_of
}

#[cfg(test)]
mod tests {
    use super::*;
    use clickinc_ir::{AluOp, Operand, ProgramBuilder};

    /// The MLAgg-like pattern: hash -> read -> add -> write, all on one array.
    fn aggregator_program() -> IrProgram {
        let mut b = ProgramBuilder::new("agg");
        b.array("agg", 1, 64, 32);
        b.hash_fn("h", clickinc_ir::HashAlgo::Crc16, Some(64));
        b.hash("idx", "h", vec![Operand::hdr("seq")]);
        b.get("cur", "agg", vec![Operand::var("idx")]);
        b.alu("sum", AluOp::Add, Operand::var("cur"), Operand::hdr("data"));
        b.write("agg", vec![Operand::var("idx")], vec![Operand::var("sum")]);
        b.forward();
        b.build().expect("test program is well-formed")
    }

    #[test]
    fn state_sharing_instructions_collapse_into_one_block() {
        let program = aggregator_program();
        let dag = build_block_dag(&program, &BlockConfig::default());
        // get (1) and write (3) touch the same array and must share a block
        let block_of = |instr: usize| {
            dag.blocks().iter().position(|b| b.instrs.contains(&instr)).expect("covered")
        };
        assert_eq!(block_of(1), block_of(3));
        assert!(dag.blocks()[block_of(1)].stateful);
        assert!(dag.topological_order().is_some());
        assert!(dag.is_partition_legal());
    }

    #[test]
    fn independent_instructions_can_merge_when_compatible() {
        let mut b = ProgramBuilder::new("p");
        for i in 0..6 {
            b.alu(&format!("v{i}"), AluOp::Add, Operand::hdr("x"), Operand::int(i));
        }
        b.build().expect("test program is well-formed");
        let mut b = ProgramBuilder::new("p");
        for i in 0..6 {
            b.alu(&format!("v{i}"), AluOp::Add, Operand::hdr("x"), Operand::int(i));
        }
        let program = b.build().expect("test program is well-formed");
        let dag = build_block_dag(&program, &BlockConfig::default());
        assert!(
            dag.len() < program.len(),
            "independent BIN instructions should merge: {} blocks for {} instrs",
            dag.len(),
            program.len()
        );
        assert_eq!(dag.total_instructions(), program.len());
    }

    #[test]
    fn block_size_budget_is_respected() {
        let mut b = ProgramBuilder::new("p");
        for i in 0..20 {
            b.alu(&format!("v{i}"), AluOp::Add, Operand::hdr("x"), Operand::int(i));
        }
        let program = b.build().expect("test program is well-formed");
        let cfg = BlockConfig { max_block_instrs: 4, ..Default::default() };
        let dag = build_block_dag(&program, &cfg);
        assert!(dag.blocks().iter().all(|blk| blk.len() <= 4));
        assert_eq!(dag.total_instructions(), 20);
    }

    #[test]
    fn disabling_merging_keeps_fine_granularity() {
        let program = aggregator_program();
        let merged = build_block_dag(&program, &BlockConfig::default());
        let unmerged =
            build_block_dag(&program, &BlockConfig { enable_merging: false, ..Default::default() });
        assert!(unmerged.len() >= merged.len());
        assert_eq!(unmerged.total_instructions(), program.len());
    }

    #[test]
    fn chain_dependencies_produce_increasing_steps() {
        let mut b = ProgramBuilder::new("chain");
        b.alu("a", AluOp::Add, Operand::hdr("x"), Operand::int(1));
        b.alu("bv", AluOp::Mul, Operand::var("a"), Operand::int(2));
        b.alu("c", AluOp::Add, Operand::var("bv"), Operand::int(3));
        let program = b.build().expect("test program is well-formed");
        let cfg = BlockConfig { max_block_instrs: 1, ..Default::default() };
        let dag = build_block_dag(&program, &cfg);
        assert_eq!(dag.len(), 3);
        let steps: Vec<usize> =
            dag.blocks_by_step().iter().map(|&i| dag.blocks()[i].step).collect();
        assert_eq!(steps, vec![0, 1, 2]);
    }

    #[test]
    fn empty_program_yields_empty_dag() {
        let program = IrProgram::new("empty");
        let dag = build_block_dag(&program, &BlockConfig::default());
        assert!(dag.is_empty());
    }

    #[test]
    fn kvs_like_program_from_frontend_builds_legal_dag() {
        let t = clickinc_lang::templates::kvs_template(
            "kvs",
            clickinc_lang::templates::KvsParams::default(),
        );
        let ir = clickinc_frontend::compile_source("kvs", &t.source).unwrap();
        let dag = build_block_dag(&ir, &BlockConfig::default());
        assert_eq!(dag.total_instructions(), ir.len());
        assert!(dag.topological_order().is_some());
        assert!(dag.is_partition_legal());
        assert!(dag.len() < ir.len(), "blocks compact the program");
    }

    #[test]
    fn tarjan_finds_cycles() {
        // 0 -> 1 -> 2 -> 0 is one SCC; 3 alone
        let succ = vec![vec![1], vec![2], vec![0], vec![]];
        let scc = tarjan_scc(4, &succ);
        assert_eq!(scc[0], scc[1]);
        assert_eq!(scc[1], scc[2]);
        assert_ne!(scc[0], scc[3]);
    }

    #[test]
    fn class_compatibility_is_subset_based() {
        use CapabilityClass::*;
        let a: BTreeSet<_> = [Bin].into_iter().collect();
        let b: BTreeSet<_> = [Bin, Baf].into_iter().collect();
        let c: BTreeSet<_> = [Bso].into_iter().collect();
        assert!(classes_compatible(&a, &b));
        assert!(classes_compatible(&b, &a));
        assert!(!classes_compatible(&b, &c));
    }
}
