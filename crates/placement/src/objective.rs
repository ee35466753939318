//! The placement objective (paper Eq. 1) and the adaptive weights.

use clickinc_blockdag::BlockDag;
use clickinc_ir::IrProgram;
use std::collections::HashMap;

/// The weights ω_t, ω_r, ω_p balancing traffic served, resource consumption and
/// cross-device communication in Eq. 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weights {
    /// Weight of the served-traffic term (the paper fixes it at 1/2).
    pub traffic: f64,
    /// Weight of the resource-consumption term.
    pub resource: f64,
    /// Weight of the cross-device communication term.
    pub comm: f64,
}

impl Weights {
    /// The fixed-weight configuration used as the baseline in Table 5:
    /// ω_t = 1/2 and the other half split evenly.
    pub fn fixed() -> Weights {
        Weights { traffic: 0.5, resource: 0.25, comm: 0.25 }
    }

    /// The adaptive weights of §5.4: ω_t = 1/2, ω_r = 1 − 2^(r−1),
    /// ω_p = 1/2 − ω_r, where `r` is the ratio of remaining resources.
    /// With plentiful resources (r → 1) the communication term dominates; as
    /// resources deplete (r → 0) the resource term takes over.
    pub fn adaptive(remaining_ratio: f64) -> Weights {
        let r = remaining_ratio.clamp(0.0, 1.0);
        let resource = (1.0 - 2f64.powf(r - 1.0)).clamp(0.0, 0.5);
        Weights { traffic: 0.5, resource, comm: 0.5 - resource }
    }
}

impl Default for Weights {
    fn default() -> Self {
        Weights::adaptive(1.0)
    }
}

/// Cross-device communication cost of cutting the block sequence after the
/// first `j` blocks: the number of bits of SSA temporaries defined in blocks
/// `< j` and read by blocks `>= j` — what the paper's §6 "Refine Runtime Data
/// Plane" carries across the device boundary in the packet.  The objective
/// still prices the cut, but nothing here carries it: a slice reads those
/// temporaries unset, which the verifier's `split-execution` pass reports
/// (ROADMAP, "split plans must mean what unsplit plans mean").
///
/// Returns a vector `cut[j]` for `j in 0..=n_blocks`, normalized by the total
/// number of temporary bits so the h_p term of Eq. 1 stays in `[0, 1]` per cut.
pub fn cut_costs(program: &IrProgram, dag: &BlockDag, order: &[usize]) -> Vec<f64> {
    /// Where a variable lives along `order`, by block position.
    struct Span {
        first_def: usize,
        last_def: usize,
        last_use: usize,
    }
    const UNSEEN: Span = Span { first_def: usize::MAX, last_def: usize::MAX, last_use: 0 };
    let n = order.len();
    let mut spans: HashMap<&str, Span> = HashMap::new();
    // a variable counts once per block defining it
    let mut total_vars = 0usize;
    for (pos, &block_idx) in order.iter().enumerate() {
        for &instr in &dag.blocks()[block_idx].instrs {
            let instr = &program.instructions[instr];
            if let Some(var) = instr.dest() {
                let span = spans.entry(var).or_insert(UNSEEN);
                if span.last_def != pos {
                    total_vars += 1;
                    span.last_def = pos;
                    span.first_def = span.first_def.min(pos);
                }
            }
            for var in instr.read_vars() {
                spans.entry(var).or_insert(UNSEEN).last_use = pos;
            }
        }
    }
    let bits_per_var = 32.0;
    let total_bits = total_vars.max(1) as f64 * bits_per_var;

    // a variable crosses cut `j` when it is defined before it and read at or
    // after it: every `j` in `(first_def, last_use]` — a difference array
    let mut delta = vec![0isize; n + 2];
    for span in spans.values().filter(|s| s.first_def < s.last_use) {
        delta[span.first_def + 1] += 1;
        delta[span.last_use + 1] -= 1;
    }
    let mut cuts = vec![0.0; n + 1];
    let mut crossing = 0isize;
    for j in 1..n {
        crossing += delta[j];
        cuts[j] = crossing as f64 * bits_per_var / total_bits;
    }
    cuts
}

#[cfg(test)]
mod tests {
    use super::*;
    use clickinc_blockdag::{build_block_dag, BlockConfig};
    use clickinc_ir::{AluOp, Operand, ProgramBuilder};

    #[test]
    fn adaptive_weights_shift_with_resource_pressure() {
        let plentiful = Weights::adaptive(1.0);
        assert!(plentiful.resource.abs() < 1e-9, "with everything free ω_r ≈ 0");
        assert!((plentiful.comm - 0.5).abs() < 1e-9);
        let scarce = Weights::adaptive(0.0);
        assert!((scarce.resource - 0.5).abs() < 1e-9, "with nothing left ω_r ≈ 1/2");
        assert!(scarce.comm.abs() < 1e-9);
        let mid = Weights::adaptive(0.5);
        assert!(mid.resource > 0.0 && mid.resource < 0.5);
        assert!((mid.resource + mid.comm - 0.5).abs() < 1e-9);
        // ω_t is always 1/2
        assert_eq!(plentiful.traffic, 0.5);
        assert_eq!(scarce.traffic, 0.5);
        // out-of-range ratios are clamped
        assert_eq!(Weights::adaptive(2.0), Weights::adaptive(1.0));
        assert_eq!(Weights::adaptive(-1.0), Weights::adaptive(0.0));
    }

    #[test]
    fn fixed_weights_sum_to_one() {
        let w = Weights::fixed();
        assert!((w.traffic + w.resource + w.comm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cut_costs_reflect_live_variables() {
        // v0 = hdr.a + 1 ; v1 = v0 + 2 ; v2 = v1 + 3  (a 3-block chain when
        // block merging is disabled)
        let mut b = ProgramBuilder::new("chain");
        b.alu("v0", AluOp::Add, Operand::hdr("a"), Operand::int(1));
        b.alu("v1", AluOp::Add, Operand::var("v0"), Operand::int(2));
        b.alu("v2", AluOp::Add, Operand::var("v1"), Operand::int(3));
        let program = b.build().expect("test program is well-formed");
        let dag =
            build_block_dag(&program, &BlockConfig { max_block_instrs: 1, enable_merging: false });
        let order = dag.blocks_by_step();
        let cuts = cut_costs(&program, &dag, &order);
        assert_eq!(cuts.len(), dag.len() + 1);
        // cutting in the middle always crosses exactly one live variable
        assert!(cuts[1] > 0.0);
        assert!(cuts[2] > 0.0);
        // no cut cost at the extremes (everything on one side)
        assert_eq!(cuts[0], 0.0);
        assert_eq!(cuts[dag.len()], 0.0);
    }

    #[test]
    fn independent_blocks_have_zero_cut_cost() {
        let mut b = ProgramBuilder::new("indep");
        b.alu("v0", AluOp::Add, Operand::hdr("a"), Operand::int(1));
        b.alu("v1", AluOp::Add, Operand::hdr("b"), Operand::int(2));
        let program = b.build().expect("test program is well-formed");
        let dag =
            build_block_dag(&program, &BlockConfig { max_block_instrs: 1, enable_merging: false });
        let order = dag.blocks_by_step();
        let cuts = cut_costs(&program, &dag, &order);
        assert!(cuts.iter().all(|c| *c == 0.0));
    }

    /// `cut_costs` by definition: for every cut, the variables defined on its
    /// left that something on its right reads.
    fn cut_costs_by_definition(program: &IrProgram, dag: &BlockDag, order: &[usize]) -> Vec<f64> {
        use std::collections::BTreeSet;
        let instrs_at =
            |pos: usize| dag.blocks()[order[pos]].instrs.iter().map(|&i| &program.instructions[i]);
        let n = order.len();
        let defs: Vec<BTreeSet<&str>> =
            (0..n).map(|pos| instrs_at(pos).filter_map(|i| i.dest()).collect()).collect();
        let uses: Vec<BTreeSet<&str>> =
            (0..n).map(|pos| instrs_at(pos).flat_map(|i| i.read_vars()).collect()).collect();
        let total_bits = defs.iter().map(BTreeSet::len).sum::<usize>().max(1) as f64 * 32.0;
        let mut cuts = vec![0.0; n + 1];
        for j in 1..n {
            let live: BTreeSet<&str> = defs[..j].iter().flatten().copied().collect();
            let read: BTreeSet<&str> = uses[j..].iter().flatten().copied().collect();
            cuts[j] = live.intersection(&read).count() as f64 * 32.0 / total_bits;
        }
        cuts
    }

    #[test]
    fn the_sweep_matches_the_definition_bit_for_bit_on_the_fig13_templates() {
        for program in crate::fig13_programs() {
            for max_block_instrs in [1, 4, 16, 64] {
                let dag = build_block_dag(
                    program,
                    &BlockConfig { max_block_instrs, ..Default::default() },
                );
                let order = dag.blocks_by_step();
                let bits = |cuts: Vec<f64>| cuts.into_iter().map(f64::to_bits).collect::<Vec<_>>();
                assert_eq!(
                    bits(cut_costs(program, &dag, &order)),
                    bits(cut_costs_by_definition(program, &dag, &order)),
                    "{} at block size {max_block_instrs}",
                    program.name
                );
            }
        }
    }
}
