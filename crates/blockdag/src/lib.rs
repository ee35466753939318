//! # clickinc-blockdag — IR block DAG construction
//!
//! Placement does not operate on individual instructions: ClickINC first groups
//! IR instructions into *blocks* — the basic placement unit — and builds a DAG
//! over them (paper §5.2, Fig. 8, Algorithm 3, and the legality theory of
//! Appendix B.1).  The construction has three steps:
//!
//! 1. **Dependency graph** — data dependencies plus the *mutual* dependencies
//!    between all instructions touching the same stateful object (stateful data
//!    cannot be replicated, so state-sharing instructions must co-locate);
//! 2. **Cycle merging** — every dependency cycle (which only arises from the
//!    mutual state edges) is collapsed into one inseparable node, making the
//!    graph a DAG and guaranteeing the partitioning legality of Lemma B.2/B.4;
//! 3. **Kahn partitioning + merging** — Kahn's topological sort layers the DAG;
//!    blocks of the same capability class are merged within a layer and across
//!    adjacent layers as long as the per-block size budget allows, compacting
//!    the DAG that the placement DP will explore.
//!
//! The resulting [`BlockDag`] keeps, for every block, the instruction indices it
//! contains, its capability-class mix, and its step number (topological level) —
//! the same step number the synthesizer later writes into the INC packet header
//! so that replicated blocks along a path execute exactly once.

mod build;
mod dag;

pub use build::{build_block_dag, BlockConfig};
pub use dag::{Block, BlockDag, BlockId};

#[cfg(test)]
mod proptests {
    use super::*;
    use clickinc_ir::{AluOp, Operand, ProgramBuilder};
    use proptest::prelude::*;

    /// Generate a random but well-formed straight-line IR program mixing pure
    /// arithmetic with stateful accesses to a couple of register arrays.
    pub(crate) fn arb_program(n_instrs: usize, seed: Vec<u8>) -> clickinc_ir::IrProgram {
        let mut b = ProgramBuilder::new("prop");
        b.array("s0", 1, 64, 32);
        b.array("s1", 1, 64, 32);
        let mut last_var: Option<String> = None;
        for (i, byte) in seed.iter().take(n_instrs).enumerate() {
            let var = format!("v{i}");
            match byte % 4 {
                0 => {
                    let lhs =
                        last_var.clone().map(Operand::var).unwrap_or_else(|| Operand::hdr("x"));
                    b.alu(&var, AluOp::Add, lhs, Operand::int(i64::from(*byte)));
                }
                1 => {
                    b.get(&var, "s0", vec![Operand::int(i64::from(*byte % 64))]);
                }
                2 => {
                    b.count(
                        Some(&var),
                        "s1",
                        vec![Operand::int(i64::from(*byte % 64))],
                        Operand::int(1),
                    );
                }
                _ => {
                    let value =
                        last_var.clone().map(Operand::var).unwrap_or_else(|| Operand::int(1));
                    b.write("s0", vec![Operand::int(i64::from(*byte % 64))], vec![value]);
                    b.assign(&var, Operand::int(i64::from(*byte)));
                }
            }
            last_var = Some(var);
        }
        b.forward();
        b.build().expect("generated program is well-formed")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every instruction lands in exactly one block, regardless of config.
        #[test]
        fn blocks_partition_the_instructions(
            n in 1usize..40,
            seed in proptest::collection::vec(any::<u8>(), 40),
            max_block in 1usize..8,
        ) {
            let program = arb_program(n, seed);
            let dag = build_block_dag(&program, &BlockConfig { max_block_instrs: max_block, ..Default::default() });
            let mut seen = vec![false; program.len()];
            for block in dag.blocks() {
                for &idx in &block.instrs {
                    prop_assert!(!seen[idx], "instruction {idx} appears in two blocks");
                    seen[idx] = true;
                }
            }
            prop_assert!(seen.iter().all(|s| *s), "some instruction not covered");
        }

        /// The block DAG is acyclic and respects the original dependencies.
        #[test]
        fn block_dag_is_acyclic(
            n in 1usize..40,
            seed in proptest::collection::vec(any::<u8>(), 40),
        ) {
            let program = arb_program(n, seed);
            let dag = build_block_dag(&program, &BlockConfig::default());
            prop_assert!(dag.topological_order().is_some(), "block DAG has a cycle");
        }

        /// State-sharing instructions always co-locate in one block
        /// (Lemma B.2: they cannot be split across devices).
        #[test]
        fn state_sharing_instructions_never_split(
            n in 1usize..40,
            seed in proptest::collection::vec(any::<u8>(), 40),
        ) {
            let program = arb_program(n, seed);
            let dag = build_block_dag(&program, &BlockConfig::default());
            let mut owner_of_state = std::collections::BTreeMap::new();
            for (b_idx, block) in dag.blocks().iter().enumerate() {
                for &i in &block.instrs {
                    let instr = &program.instructions[i];
                    if let Some(state) = clickinc_ir::state_key(instr, &program.objects) {
                        if let Some(prev) = owner_of_state.insert(state, b_idx) {
                            prop_assert_eq!(prev, b_idx,
                                "state {:?} split across blocks {} and {}", state, prev, b_idx);
                        }
                    }
                }
            }
        }

        /// Disabling block construction yields exactly one block per instruction.
        #[test]
        fn disabled_construction_is_identity(
            n in 1usize..30,
            seed in proptest::collection::vec(any::<u8>(), 30),
        ) {
            let program = arb_program(n, seed);
            let cfg = BlockConfig { enable_merging: false, ..Default::default() };
            let dag = build_block_dag(&program, &cfg);
            // one block per *dependency-cycle-free* instruction group: with merging
            // disabled only the mandatory state-sharing groups are collapsed.
            prop_assert!(dag.blocks().len() <= program.len());
            let covered: usize = dag.blocks().iter().map(|b| b.instrs.len()).sum();
            prop_assert_eq!(covered, program.len());
        }
    }
}
