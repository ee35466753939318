//! Block DAG construction (paper §5.2, Algorithm 3).

use crate::dag::{Block, BlockDag, BlockId};
use clickinc_ir::{classify_instruction, state_key, CapabilityClass, IrProgram};
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
    // group-level edges: state edges run both ways, so they never leave an
    // SCC; every cross-group edge is a data edge and keeps its direction
    let mut edges: BTreeSet<(usize, usize)> = BTreeSet::new();
    for (a, b, _) in &deps {
        let (ga, gb) = (group_rank[scc_of[*a]], group_rank[scc_of[*b]]);
        if ga != gb {
            edges.insert((ga, gb));
        }
    }

    // the per-instruction fact every merge decision and block needs, computed
    // exactly once
    let class_of: Vec<CapabilityClass> =
        program.instructions.iter().map(|i| classify_instruction(i, &program.objects)).collect();

    // --- step 3: Kahn partitioning + same-type merging -----------------------
    let mut merged_members = members;
    let mut merged_edges: Vec<(usize, usize)> = edges.into_iter().collect();
    if config.enable_merging {
        (merged_members, merged_edges) =
            merge_blocks(&class_of, merged_members, merged_edges, config.max_block_instrs);
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

/// One bit per [`CapabilityClass`] (13 variants), so a block's class set is a
/// `u16` and the subset test two ANDs.
fn class_bit(class: CapabilityClass) -> u16 {
    1 << class as u16
}

/// Two class sets are "non-exclusive" (mergeable) when one is a subset of the
/// other — merging never widens the set of devices that must support the block.
fn masks_compatible(a: u16, b: u16) -> bool {
    a & b == a || a & b == b
}

/// Hand `gone`'s neighbours in one direction (`fwd`, with `back` its mirror)
/// over to `keep`; an edge between the two disappears.
fn absorb(fwd: &mut [Vec<usize>], back: &mut [Vec<usize>], keep: usize, gone: usize) {
    for s in std::mem::take(&mut fwd[gone]) {
        back[s].retain(|&x| x != gone);
        if s != keep && !fwd[keep].contains(&s) {
            fwd[keep].push(s);
            back[s].push(keep);
        }
    }
}

/// Step 3 of Algorithm 3, in place: while some pair of blocks in one Kahn
/// layer — or, failing that, in adjacent layers — has compatible classes and
/// fits the size budget, merge the pair with the smallest `(combined size, a,
/// b)`.  Blocks keep their ids while merging (the merged block lives on under
/// the smaller id, so id order is the order a renumbering after every merge
/// would give) and are compacted once at the end; returns the surviving
/// member lists, each sorted, and the edges over the compacted ids.
///
/// **No merge taken here can close a cycle**, so none is tried and undone.
/// Levels are longest-path levels: a path `a → x → b` through a third block
/// forces `level[b] ≥ level[a] + 2`.  Merging `a` and `b` closes a cycle only
/// if such a path exists (a direct edge `a → b` just disappears into the merged
/// block), and every candidate has `|level[a] − level[b]| ≤ 1`.  The
/// `debug_assert!` on the Kahn pass below is the trial the proof replaces.  A
/// graph that is cyclic on entry has no levels to merge by and is left alone.
fn merge_blocks(
    class_of: &[CapabilityClass],
    mut members: Vec<Vec<usize>>,
    mut edges: Vec<(usize, usize)>,
    max_block_instrs: usize,
) -> (Vec<Vec<usize>>, Vec<(usize, usize)>) {
    let n = members.len();
    let mut mask: Vec<u16> =
        members.iter().map(|m| m.iter().fold(0, |acc, &i| acc | class_bit(class_of[i]))).collect();
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut pred: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(a, b) in &edges {
        if a != b && !succ[a].contains(&b) {
            succ[a].push(b);
            pred[b].push(a);
        }
    }
    // a merged-away block is the one with no members left
    let mut live = n;
    // buffers of the per-merge Kahn pass, reused
    let mut deg = vec![0usize; n];
    let mut level = vec![0usize; n];
    let mut queue: Vec<usize> = Vec::with_capacity(n);
    let mut layers: Vec<Vec<usize>> = Vec::new();

    while live > 1 {
        // longest-path levels: a block's level is final when Kahn pops it
        queue.clear();
        for b in 0..n {
            deg[b] = pred[b].len();
            level[b] = 0;
            if deg[b] == 0 && !members[b].is_empty() {
                queue.push(b);
            }
        }
        let mut visited = 0;
        while let Some(b) = queue.pop() {
            visited += 1;
            for &s in &succ[b] {
                level[s] = level[s].max(level[b] + 1);
                deg[s] -= 1;
                if deg[s] == 0 {
                    queue.push(s);
                }
            }
        }
        if visited != live {
            debug_assert_eq!(live, n, "a same- or adjacent-level merge closed a cycle");
            break;
        }
        // live blocks by level, each layer in ascending id order
        layers.iter_mut().for_each(Vec::clear);
        for b in (0..n).filter(|&b| !members[b].is_empty()) {
            if layers.len() <= level[b] {
                layers.resize_with(level[b] + 1, Vec::new);
            }
            layers[level[b]].push(b);
        }

        // the candidate the by-definition sort puts first: same-layer pairs
        // before adjacent-layer ones, then the smallest (size sum, a, b)
        const NO_PAIR: (usize, usize, usize) = (usize::MAX, 0, 0);
        let candidate = |x: usize, y: usize| {
            let sum = members[x].len() + members[y].len();
            if sum <= max_block_instrs && masks_compatible(mask[x], mask[y]) {
                (sum, x.min(y), x.max(y))
            } else {
                NO_PAIR
            }
        };
        let mut best = NO_PAIR;
        for layer in &layers {
            for (i, &x) in layer.iter().enumerate() {
                for &y in &layer[i + 1..] {
                    best = best.min(candidate(x, y));
                }
            }
        }
        if best == NO_PAIR {
            for pair in layers.windows(2) {
                for &x in &pair[0] {
                    for &y in &pair[1] {
                        best = best.min(candidate(x, y));
                    }
                }
            }
        }
        if best == NO_PAIR {
            break;
        }
        let (_, keep, gone) = best;

        // merge `gone` into `keep` and rewire both adjacency directions
        let moved = std::mem::take(&mut members[gone]);
        members[keep].extend(moved);
        mask[keep] |= mask[gone];
        live -= 1;
        absorb(&mut succ, &mut pred, keep, gone);
        absorb(&mut pred, &mut succ, keep, gone);
    }

    // compact the surviving ids, once
    let mut new_id = vec![usize::MAX; n];
    let mut next = 0;
    for b in 0..n {
        if !members[b].is_empty() {
            new_id[b] = next;
            next += 1;
        }
    }
    edges.clear();
    for (a, succ) in succ.iter().enumerate() {
        edges.extend(succ.iter().map(|&b| (new_id[a], new_id[b])));
    }
    edges.sort_unstable();
    members.retain(|m| !m.is_empty());
    members.iter_mut().for_each(|m| m.sort_unstable());
    (members, edges)
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
        let a = class_bit(Bin);
        let b = class_bit(Bin) | class_bit(Baf);
        let c = class_bit(Bso);
        assert!(masks_compatible(a, b));
        assert!(masks_compatible(b, a));
        assert!(!masks_compatible(b, c));
        // every class has its own bit
        let all = CapabilityClass::ALL.iter().fold(0u16, |acc, &c| acc | class_bit(c));
        assert_eq!(all.count_ones() as usize, CapabilityClass::ALL.len());
    }

    /// Step 3 by definition, the loop [`merge_blocks`] replaced: levels; every
    /// compatible same- or adjacent-level pair within the size budget, sorted
    /// by `(levels differ, size sum, a, b)`; merge the first and renumber.
    fn reference_merge(
        class_of: &[CapabilityClass],
        mut members: Vec<Vec<usize>>,
        mut edges: Vec<(usize, usize)>,
        max_block_instrs: usize,
    ) -> (Vec<Vec<usize>>, Vec<(usize, usize)>) {
        loop {
            let n = members.len();
            let levels = levels_of(n, &edges);
            let classes: Vec<BTreeSet<CapabilityClass>> =
                members.iter().map(|m| m.iter().map(|&i| class_of[i]).collect()).collect();
            let size = |a: usize, b: usize| members[a].len() + members[b].len();
            let mut candidates: Vec<(usize, usize)> = (0..n)
                .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
                .filter(|&(a, b)| levels[a].abs_diff(levels[b]) <= 1)
                .filter(|&(a, b)| size(a, b) <= max_block_instrs)
                .filter(|&(a, b)| {
                    classes[a].is_subset(&classes[b]) || classes[b].is_subset(&classes[a])
                })
                .collect();
            candidates.sort_by_key(|&(a, b)| (levels[a] != levels[b], size(a, b), a, b));
            let Some(&(a, b)) = candidates.first() else { return (members, edges) };
            let gone = members.remove(b);
            members[a].extend(gone);
            members[a].sort_unstable();
            let renumber = |x: usize| if x == b { a } else { x - usize::from(x > b) };
            edges = edges.iter().map(|&(x, y)| (renumber(x), renumber(y))).collect();
            edges.retain(|(x, y)| x != y);
            edges.sort_unstable();
            edges.dedup();
            // the trial the old loop ran per candidate: the first never fails
            assert!(
                topo_order(members.len(), &edges).is_some(),
                "the first candidate closed a cycle"
            );
        }
    }

    /// `build_block_dag` at `max_block_instrs`, held to [`reference_merge`]
    /// over the unmerged groups of the same program.
    fn assert_merge_matches_reference(program: &IrProgram, max_block_instrs: usize) {
        let groups =
            build_block_dag(program, &BlockConfig { max_block_instrs, enable_merging: false });
        let class_of: Vec<CapabilityClass> = program
            .instructions
            .iter()
            .map(|i| classify_instruction(i, &program.objects))
            .collect();
        let (members, edges) = reference_merge(
            &class_of,
            groups.blocks().iter().map(|b| b.instrs.clone()).collect(),
            groups.edges().to_vec(),
            max_block_instrs,
        );
        let dag = build_block_dag(program, &BlockConfig { max_block_instrs, enable_merging: true });
        let built: Vec<Vec<usize>> = dag.blocks().iter().map(|b| b.instrs.clone()).collect();
        assert_eq!(built, members, "{}: members at block size {max_block_instrs}", program.name);
        assert_eq!(dag.edges(), edges, "{}: edges at block size {max_block_instrs}", program.name);
    }

    #[test]
    fn merging_matches_the_by_definition_loop_on_the_fig13_templates() {
        use clickinc_lang::templates::*;
        let mut templates = vec![
            kvs_template("kvs", KvsParams::default()),
            count_min_sketch("cms", 3, 512),
            dqacc_template("dqacc", DqAccParams::default()),
        ];
        for dims in [4, 8, 16, 24, 32] {
            templates.push(mlagg_template("mlagg", MlAggParams { dims, ..Default::default() }));
        }
        for t in templates {
            let ir = clickinc_frontend::compile_source(&t.name, &t.source).unwrap();
            for max_block_instrs in [1, 4, 16, 64] {
                assert_merge_matches_reference(&ir, max_block_instrs);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn merging_matches_the_by_definition_loop_on_random_programs(
            n in 1usize..40,
            seed in proptest::collection::vec(proptest::prelude::any::<u8>(), 40),
        ) {
            let program = crate::proptests::arb_program(n, seed);
            for max_block_instrs in [1, 4, 16, 64] {
                assert_merge_matches_reference(&program, max_block_instrs);
            }
        }
    }

    #[test]
    fn a_cyclic_group_graph_is_left_unmerged() {
        // three single-instruction groups of one class, 0 → 1 → 2 → 0: without
        // levels there is nothing to merge by, and nothing panics
        let class_of = vec![CapabilityClass::Bin; 3];
        let members = vec![vec![0], vec![1], vec![2]];
        let edges = vec![(0, 1), (1, 2), (2, 0)];
        let (merged, merged_edges) = merge_blocks(&class_of, members.clone(), edges.clone(), 16);
        assert_eq!(merged, members);
        assert_eq!(merged_edges, edges);
        // the same groups without the back edge do merge
        let (merged, _) = merge_blocks(&class_of, members, vec![(0, 1), (1, 2)], 16);
        assert_eq!(merged, vec![vec![0, 1, 2]]);
    }
}
