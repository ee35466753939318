//! Block and block-DAG data structures.

use crate::build::{levels_of, topo_order};
use clickinc_ir::{CapabilityClass, IrProgram};
use std::collections::BTreeSet;
use std::fmt;

/// Identifier of a block within a [`BlockDag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub usize);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// A block: an ordered group of IR instructions placed as a unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Block id (index in the DAG's block vector).
    pub id: BlockId,
    /// Indices of the contained instructions in the original program order.
    pub instrs: Vec<usize>,
    /// Capability classes required by the contained instructions.
    pub classes: BTreeSet<CapabilityClass>,
    /// Step number: the topological level of the block, stamped into the INC
    /// header at synthesis time (paper §6 "Refine Runtime Data Plane").
    pub step: usize,
    /// Whether the block contains instructions operating on stateful objects
    /// and therefore can never be replicated across devices.
    pub stateful: bool,
}

impl Block {
    /// Number of instructions in the block.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the block is empty (never true for blocks built by this crate).
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }
}

/// The DAG of blocks.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlockDag {
    blocks: Vec<Block>,
    /// Directed edges `from -> to` over block indices.
    edges: Vec<(usize, usize)>,
}

impl BlockDag {
    /// Build a DAG from blocks and edges (callers: the `build` module and tests).
    pub fn new(blocks: Vec<Block>, edges: Vec<(usize, usize)>) -> BlockDag {
        let mut edges = edges;
        edges.sort_unstable();
        edges.dedup();
        edges.retain(|(a, b)| a != b);
        BlockDag { blocks, edges }
    }

    /// The blocks, indexed by `BlockId.0`.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the DAG has no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// The dependency edges between blocks.
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Kahn topological order; `None` if the graph has a cycle.
    pub fn topological_order(&self) -> Option<Vec<usize>> {
        topo_order(self.blocks.len(), &self.edges)
    }

    /// Whether block `a` can reach block `b` through dependency edges.
    pub fn reaches(&self, a: usize, b: usize) -> bool {
        if a == b {
            return true;
        }
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); self.blocks.len()];
        for &(x, y) in &self.edges {
            succ[x].push(y);
        }
        let mut stack = vec![a];
        let mut seen = vec![false; self.blocks.len()];
        while let Some(x) = stack.pop() {
            if x == b {
                return true;
            }
            if seen[x] {
                continue;
            }
            seen[x] = true;
            stack.extend(&succ[x]);
        }
        false
    }

    /// Topological levels (the step numbers): level of a block = 1 + max level
    /// of its predecessors, leaves at level 0.
    pub fn levels(&self) -> Vec<usize> {
        levels_of(self.blocks.len(), &self.edges)
    }

    /// Total number of instructions across all blocks.
    pub fn total_instructions(&self) -> usize {
        self.blocks.iter().map(Block::len).sum()
    }

    /// The blocks in ascending step order (ties broken by id), which is the
    /// order placement walks them along a path.
    pub fn blocks_by_step(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.blocks.len()).collect();
        idx.sort_by_key(|&i| (self.blocks[i].step, i));
        idx
    }

    /// Partition-legality check of Appendix B.1: no two distinct blocks may
    /// reach each other in both directions.
    pub fn is_partition_legal(&self) -> bool {
        for a in 0..self.blocks.len() {
            for b in (a + 1)..self.blocks.len() {
                if self.reaches(a, b) && self.reaches(b, a) {
                    return false;
                }
            }
        }
        true
    }

    /// Human-readable dump used by examples and tests.
    pub fn dump(&self, program: &IrProgram) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "block DAG: {} blocks, {} edges, {} instructions\n",
            self.len(),
            self.edges.len(),
            self.total_instructions()
        ));
        for block in &self.blocks {
            let classes: Vec<String> = block.classes.iter().map(|c| c.to_string()).collect();
            out.push_str(&format!(
                "  {} step={} [{}] instrs={:?}\n",
                block.id,
                block.step,
                classes.join(","),
                block.instrs
            ));
        }
        let _ = program;
        for (a, b) in &self.edges {
            out.push_str(&format!("  b{a} -> b{b}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(id: usize, instrs: Vec<usize>) -> Block {
        Block { id: BlockId(id), instrs, classes: BTreeSet::new(), step: 0, stateful: false }
    }

    fn diamond() -> BlockDag {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        BlockDag::new(
            vec![block(0, vec![0]), block(1, vec![1]), block(2, vec![2]), block(3, vec![3])],
            vec![(0, 1), (0, 2), (1, 3), (2, 3)],
        )
    }

    #[test]
    fn topological_order_and_levels() {
        let dag = diamond();
        let order = dag.topological_order().unwrap();
        assert_eq!(order.len(), 4);
        let pos = |b: usize| order.iter().position(|x| *x == b).unwrap();
        assert!(pos(0) < pos(1));
        assert!(pos(0) < pos(2));
        assert!(pos(1) < pos(3));
        let levels = dag.levels();
        assert_eq!(levels, vec![0, 1, 1, 2]);
    }

    #[test]
    fn reachability() {
        let dag = diamond();
        assert!(dag.reaches(0, 3));
        assert!(!dag.reaches(3, 0));
        assert!(!dag.reaches(1, 2));
        assert!(dag.reaches(2, 2));
        assert_eq!(dag.total_instructions(), 4);
        assert!(dag.is_partition_legal());
    }

    #[test]
    fn cycle_is_detected() {
        let dag = BlockDag::new(vec![block(0, vec![0]), block(1, vec![1])], vec![(0, 1), (1, 0)]);
        assert!(dag.topological_order().is_none());
        assert!(!dag.is_partition_legal());
    }

    #[test]
    fn new_dedups_and_removes_self_edges() {
        let dag =
            BlockDag::new(vec![block(0, vec![0]), block(1, vec![1])], vec![(0, 1), (0, 1), (1, 1)]);
        assert_eq!(dag.edges(), &[(0, 1)]);
    }

    #[test]
    fn blocks_by_step_sorts_by_level() {
        let mut dag = diamond();
        let levels = dag.levels();
        for (i, l) in levels.iter().enumerate() {
            dag.blocks[i].step = *l;
        }
        assert_eq!(dag.blocks_by_step(), vec![0, 1, 2, 3]);
    }
}
