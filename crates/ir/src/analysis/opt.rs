//! The IR transform tier: optimization passes run at install time, before the
//! program is compiled for the data plane.
//!
//! An [`Optimizer`] runs a fixed, ordered list of transform passes over one
//! program and returns the result.  It verifies nothing: the deploy path's
//! one verification is the controller's
//! [`PassManager`](crate::analysis::PassManager) run over the *optimized*
//! program and its placed slices, so a transform that broke a program is
//! refused there like any other faulty program, never deployed.  The
//! pipeline is
//!
//! 1. `const-fold` — propagate unguarded constant definitions, fold
//!    all-constant ALU/compare instructions into constant assignments (using
//!    the reference semantics in [`crate::eval`], so a folded value is
//!    bit-identical to what the interpreter would have computed), and resolve
//!    constant guard predicates — always-true predicates are dropped,
//!    instructions with an always-false predicate are removed (they could
//!    never execute, so removal is invisible to the executed-instruction
//!    telemetry).
//! 2. `dead-value-elim` — remove pure computations whose values nothing
//!    observes (the *elimination* counterpart of the verifier's
//!    `dead-snippet` detection), reporting exactly what was removed.
//!
//! Neither pass touches the program-level [`IrProgram::precondition`].  On an
//! isolated tenant program it holds the `meta.inc_user == id` match that
//! `synthesis::isolate_user_program` writes, so the instructions carry only
//! the guards their program wrote and `const-fold` sees its unguarded
//! definitions.
//!
//! Transform passes report what they changed as [`Severity::Info`]
//! diagnostics on the same [`DiagnosticSet`] machinery the verifier uses, so
//! the service's diagnostics JSON shows detection and elimination side by
//! side.  `tests/compiled_vs_interp.rs` holds the transforms to their
//! contract: the optimized program runs alike on both execution tiers and
//! adds no error-severity finding the raw program lacks.

use crate::analysis::dataflow::{is_effectful, live_instructions};
use crate::analysis::diagnostics::{Diagnostic, DiagnosticSet, Severity};
use crate::eval;
use crate::instr::{OpCode, Operand};
use crate::program::IrProgram;
use std::collections::BTreeMap;

/// A transform pass: rewrites the program of the given tenant in place and
/// reports what it changed, tagged with the pass name it is given.
type Transform = fn(&str, &str, &mut IrProgram, &mut DiagnosticSet);

/// The transform pipeline, in run order: each pass's stable name, recorded on
/// every change report, and the function that runs it.
const TRANSFORMS: [(&str, Transform); 2] =
    [("const-fold", const_fold), ("dead-value-elim", dead_value_elim)];

/// Runs the transform pipeline.
pub struct Optimizer;

impl Optimizer {
    /// The transform pipeline (the only one there is): constant folding,
    /// then dead-value elimination.
    pub fn with_default_passes() -> Optimizer {
        Optimizer
    }

    /// Optimize `tenant`'s `program`, appending each pass's change report to
    /// `out`.  `isolated` is ignored: no transform depends on it.  The passes
    /// rewrite the program they are handed: pass it by value to have it
    /// rewritten in place, or by reference to have it copied first.
    pub fn optimize(
        &self,
        tenant: &str,
        _isolated: bool,
        program: impl Into<IrProgram>,
        out: &mut DiagnosticSet,
    ) -> IrProgram {
        let mut optimized = program.into();
        for (name, pass) in TRANSFORMS {
            pass(name, tenant, &mut optimized, out);
        }
        optimized
    }
}

fn info(pass: &str, tenant: &str, snippet: &str, message: String) -> Diagnostic {
    Diagnostic::new(Severity::Info, pass, tenant, snippet, message)
}

/// Replace every variable operand holding a known constant by the constant.
fn subst<'a>(
    operands: impl Iterator<Item = &'a mut Operand>,
    consts: &BTreeMap<String, crate::types::Value>,
) {
    for op in operands {
        if let Some(value) = op.as_var().and_then(|v| consts.get(v)) {
            *op = Operand::Const(value.clone());
        }
    }
}

/// Constant propagation and folding over the straight-line stream.
///
/// Tracks variables holding a known constant (only *unguarded* definitions
/// qualify — a guarded definition is a φ-arm and poisons the variable),
/// substitutes them into operands and guards, folds all-constant ALU and
/// compare instructions into constant assignments via the shared reference
/// semantics, and resolves constant-vs-constant guard predicates.
fn const_fold(pass: &str, tenant: &str, program: &mut IrProgram, out: &mut DiagnosticSet) {
    let mut consts: BTreeMap<String, crate::types::Value> = BTreeMap::new();
    let mut folded = 0usize;
    let mut removed: Vec<String> = Vec::new();
    let mut kept = Vec::with_capacity(program.instructions.len());
    for mut instr in std::mem::take(&mut program.instructions) {
        // substitute known constants into the guard and resolve
        // constant-vs-constant predicates
        let mut never_executes = false;
        if let Some(guard) = &mut instr.guard {
            subst(guard.operands_mut(), &consts);
            guard.all.retain(|p| match (&p.lhs, &p.rhs) {
                (Operand::Const(a), Operand::Const(b)) => {
                    if eval::compare(a, p.op, b) {
                        false // always true: drop the predicate
                    } else {
                        never_executes = true;
                        true
                    }
                }
                _ => true,
            });
            if guard.all.is_empty() {
                instr.guard = None;
            }
        }
        if never_executes {
            // a guard predicate is constantly false: the instruction can
            // never execute, so removing it is invisible even to the
            // executed-instruction counters
            removed.push(instr.id.to_string());
            continue;
        }
        subst(instr.op.operands_mut(), &consts);
        // fold all-constant pure computations into constant assignments,
        // using the same evaluation the interpreter and VM apply at
        // packet time
        match &instr.op {
            OpCode::Alu { dest, op, lhs: Operand::Const(a), rhs: Operand::Const(b), float } => {
                let value = eval::alu(*op, a, b, *float);
                instr.op = OpCode::Assign { dest: dest.clone(), src: Operand::Const(value) };
                folded += 1;
            }
            OpCode::Cmp { dest, op, lhs: Operand::Const(a), rhs: Operand::Const(b) } => {
                let value = crate::types::Value::Bool(eval::compare(a, *op, b));
                instr.op = OpCode::Assign { dest: dest.clone(), src: Operand::Const(value) };
                folded += 1;
            }
            _ => {}
        }
        // update the constant map with this instruction's definition
        if let Some(dest) = instr.op.dest() {
            match (&instr.guard, &instr.op) {
                (None, OpCode::Assign { src: Operand::Const(v), .. }) => {
                    consts.insert(dest.to_string(), v.clone());
                }
                _ => {
                    consts.remove(dest);
                }
            }
        }
        kept.push(instr);
    }
    program.instructions = kept;
    if folded > 0 || !removed.is_empty() {
        let mut message = format!("folded {folded} instruction(s) to constants");
        if !removed.is_empty() {
            message.push_str(&format!(
                "; removed {} never-executing instruction(s): {}",
                removed.len(),
                removed.join(", ")
            ));
        }
        out.push(info(pass, tenant, &program.name, message));
    }
}

/// Dead-value *elimination*: removes the pure computations the verifier's
/// `dead-snippet` pass only detects.
///
/// Liveness is the same backwards value-graph walk the detector uses.  A
/// program with no effectful instruction at all is left untouched — gutting
/// it would not fix it, and the `dead-snippet` warning already points at it.
fn dead_value_elim(pass: &str, tenant: &str, program: &mut IrProgram, out: &mut DiagnosticSet) {
    if !program.instructions.iter().any(is_effectful) {
        return;
    }
    let live = live_instructions(program);
    let removed: Vec<String> = program
        .instructions
        .iter()
        .zip(&live)
        .filter(|(_, &l)| !l)
        .map(|(i, _)| i.id.to_string())
        .collect();
    if removed.is_empty() {
        return;
    }
    let mut keep = live.into_iter();
    program.instructions.retain(|_| keep.next().unwrap_or(true));
    out.push(info(
        pass,
        tenant,
        &program.name,
        format!(
            "eliminated {} dead instruction(s) whose values nothing observes: {} — removed \
             from the installed program, not merely detected (the verifier's dead-snippet \
             pass reports but keeps them)",
            removed.len(),
            removed.join(", ")
        ),
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::instr::{AluOp, CmpOp, Predicate};
    use crate::types::{Value, ValueType};

    fn optimize(program: &IrProgram) -> (IrProgram, DiagnosticSet) {
        let mut out = DiagnosticSet::new();
        let optimized = Optimizer::with_default_passes().optimize("u0", false, program, &mut out);
        (optimized, out)
    }

    #[test]
    fn const_folding_collapses_constant_chains() {
        let mut b = ProgramBuilder::new("p");
        b.array("acc", 1, 16, 32);
        b.assign("x", Operand::int(4));
        b.alu("y", AluOp::Add, Operand::var("x"), Operand::int(3));
        b.count(None, "acc", vec![Operand::var("y")], Operand::int(1));
        b.forward();
        let p = b.build().unwrap();
        let (opt, diags) = optimize(&p);
        // y = x + 3 folds to y = 7, then x and y both die into the count index
        let count = opt
            .instructions
            .iter()
            .find_map(|i| match &i.op {
                OpCode::CountState { index, .. } => Some(index.clone()),
                _ => None,
            })
            .expect("count survives");
        assert_eq!(count, vec![Operand::Const(Value::Int(7))]);
        assert!(diags.iter().any(|d| d.pass == "const-fold"), "{diags}");
        assert!(opt.validate().is_ok());
    }

    #[test]
    fn always_false_guards_remove_their_instructions() {
        let mut b = ProgramBuilder::new("p");
        b.array("acc", 1, 16, 32);
        b.guarded(Predicate::new(Operand::int(1), CmpOp::Eq, Operand::int(2)), |b| {
            b.count(None, "acc", vec![Operand::int(0)], Operand::int(1));
        });
        b.count(None, "acc", vec![Operand::int(1)], Operand::int(1));
        b.forward();
        let p = b.build().unwrap();
        let (opt, diags) = optimize(&p);
        assert_eq!(opt.len(), 2, "dead branch removed: {}", opt.dump());
        assert!(diags.iter().any(|d| d.message.contains("never-executing")), "{diags}");
    }

    #[test]
    fn guarded_definitions_poison_constant_propagation() {
        let mut b = ProgramBuilder::new("p");
        b.array("acc", 1, 16, 32);
        b.assign("x", Operand::int(1));
        b.guarded(Predicate::new(Operand::hdr("op"), CmpOp::Eq, Operand::int(1)), |b| {
            b.assign("x", Operand::int(2));
        });
        b.count(None, "acc", vec![Operand::var("x")], Operand::int(1));
        b.forward();
        let p = b.build().unwrap();
        let (opt, _) = optimize(&p);
        let count_index = opt
            .instructions
            .iter()
            .find_map(|i| match &i.op {
                OpCode::CountState { index, .. } => Some(index.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(count_index, vec![Operand::var("x")], "φ-merged x must not fold");
    }

    #[test]
    fn dead_value_elimination_reports_what_it_removed() {
        let mut b = ProgramBuilder::new("p");
        b.header("key", ValueType::Bit(32));
        b.array("acc", 1, 16, 32);
        b.assign("unused", Operand::hdr("key"));
        b.count(None, "acc", vec![Operand::hdr("key")], Operand::int(1));
        b.forward();
        let p = b.build().unwrap();
        let (opt, diags) = optimize(&p);
        assert_eq!(opt.len(), 2);
        let elim: Vec<_> = diags.iter().filter(|d| d.pass == "dead-value-elim").collect();
        assert_eq!(elim.len(), 1);
        assert!(elim[0].message.contains("eliminated 1 dead instruction(s)"), "{}", elim[0]);
        assert!(elim[0].message.contains("i0"), "removed ids are reported: {}", elim[0]);
    }

    #[test]
    fn default_pipeline_order_is_stable() {
        assert_eq!(TRANSFORMS.map(|(name, _)| name), ["const-fold", "dead-value-elim"]);
    }
}
