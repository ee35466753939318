//! The IR transform tier: optimization passes run at install time, before the
//! program is compiled for the data plane.
//!
//! An [`Optimizer`] runs an ordered list of [`TransformPass`]es over one
//! program and *re-verifies the result*: the transformed program must pass
//! structural validation and must not introduce any error the untransformed
//! program did not have, otherwise the optimizer falls back to the original
//! (correctness over speed, always).  The default pipeline is
//!
//! 1. [`ConstFoldPass`] — propagate unguarded constant definitions, fold
//!    all-constant ALU/compare instructions into constant assignments (using
//!    the reference semantics in [`crate::eval`], so a folded value is
//!    bit-identical to what the interpreter would have computed), and resolve
//!    constant guard predicates — always-true predicates are dropped,
//!    instructions with an always-false predicate are removed (they could
//!    never execute, so removal is invisible to the executed-instruction
//!    telemetry).
//! 2. [`DeadValueElimPass`] — remove pure computations whose values nothing
//!    observes (the *elimination* counterpart of the verifier's
//!    `dead-snippet` detection), reporting exactly what was removed.
//! 3. [`GuardHoistPass`] — lift guard predicates shared by *every*
//!    instruction into the program-level [`IrProgram::precondition`], checked
//!    once per packet instead of once per instruction.  On an isolated tenant
//!    program this is the `meta.inc_user == id` predicate that
//!    `synthesis::isolate_user_program` stamps onto every instruction, so a
//!    co-resident tenant's packet skips the whole snippet in O(1).
//!
//! Transform passes report what they changed as [`Severity::Info`]
//! diagnostics on the same [`DiagnosticSet`] machinery the verifier uses, so
//! the service's diagnostics JSON shows detection and elimination side by
//! side.

use crate::analysis::dataflow::{is_effectful, live_instructions};
use crate::analysis::diagnostics::{Diagnostic, DiagnosticSet, Severity};
use crate::analysis::passes::{PassContext, PassManager};
use crate::eval;
use crate::instr::{Guard, OpCode, Operand, Predicate};
use crate::program::IrProgram;
use std::collections::{BTreeMap, BTreeSet};

/// Everything a transform pass may consult besides the program itself.
#[derive(Debug, Clone)]
pub struct TransformContext<'a> {
    /// The tenant (user program id) whose program is being optimized,
    /// recorded on every diagnostic.
    pub tenant: &'a str,
    /// Variables that must stay live even though no instruction in *this*
    /// program reads them (e.g. temporaries another device's slice reads).
    pub live_outs: &'a BTreeSet<String>,
}

/// A single transform pass: rewrites the program in place and reports what it
/// changed.
pub trait TransformPass {
    /// Stable pass name, recorded on every diagnostic it emits.
    fn name(&self) -> &'static str;
    /// Transform `program`, appending change reports to `out`.
    fn run(&self, program: &mut IrProgram, ctx: &TransformContext<'_>, out: &mut DiagnosticSet);
}

/// Runs an ordered pipeline of transform passes with re-verification.
#[derive(Default)]
pub struct Optimizer {
    passes: Vec<Box<dyn TransformPass>>,
    live_outs: BTreeSet<String>,
}

impl Optimizer {
    /// An empty optimizer (register passes yourself).
    pub fn new() -> Optimizer {
        Optimizer::default()
    }

    /// The default transform pipeline: constant folding, dead-value
    /// elimination, guard hoisting.
    pub fn with_default_passes() -> Optimizer {
        let mut opt = Optimizer::new();
        opt.register(Box::new(ConstFoldPass));
        opt.register(Box::new(DeadValueElimPass));
        opt.register(Box::new(GuardHoistPass));
        opt
    }

    /// Append a pass to the pipeline.
    pub fn register(&mut self, pass: Box<dyn TransformPass>) {
        self.passes.push(pass);
    }

    /// Mark variables as observable by downstream stages, keeping their
    /// definitions alive through dead-value elimination.
    pub fn with_live_outs(mut self, vars: impl IntoIterator<Item = String>) -> Optimizer {
        self.live_outs.extend(vars);
        self
    }

    /// The registered pass names, in run order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Optimize `program` and re-verify the result.
    ///
    /// The transformed program is accepted only when it (a) still passes
    /// structural validation and (b) introduces no verifier *error* the
    /// original program did not already have; otherwise the original is
    /// returned unchanged and an info diagnostic records the fallback.
    /// `isolated` is forwarded to the re-verification [`PassContext`].
    pub fn optimize(
        &self,
        tenant: &str,
        isolated: bool,
        program: &IrProgram,
        out: &mut DiagnosticSet,
    ) -> IrProgram {
        let mut optimized = program.clone();
        let ctx = TransformContext { tenant, live_outs: &self.live_outs };
        let mut changes = DiagnosticSet::new();
        for pass in &self.passes {
            pass.run(&mut optimized, &ctx, &mut changes);
        }
        if optimized == *program {
            return optimized;
        }
        let fallback = |out: &mut DiagnosticSet, reason: String| {
            out.push(Diagnostic::new(
                Severity::Info,
                "optimizer",
                tenant,
                program.name.clone(),
                format!("optimized program rejected ({reason}); keeping the unoptimized program"),
            ));
        };
        if let Err(err) = optimized.validate() {
            fallback(out, format!("structural validation failed: {err}"));
            return program.clone();
        }
        let verify = |p: &IrProgram| {
            PassManager::with_default_passes().run(&PassContext {
                tenant: tenant.to_string(),
                isolated,
                programs: std::slice::from_ref(p),
                placements: &[],
            })
        };
        let recheck = verify(&optimized);
        if recheck.has_errors() && !verify(program).has_errors() {
            let first = recheck.at(Severity::Error).next().map(|d| d.message.clone());
            fallback(out, format!("re-verification failed: {}", first.unwrap_or_default()));
            return program.clone();
        }
        out.merge(changes);
        optimized
    }
}

fn info(pass: &str, ctx: &TransformContext<'_>, snippet: &str, message: String) -> Diagnostic {
    Diagnostic::new(Severity::Info, pass, ctx.tenant, snippet, message)
}

/// Constant propagation and folding over the straight-line stream.
///
/// Tracks variables holding a known constant (only *unguarded* definitions
/// qualify — a guarded definition is a φ-arm and poisons the variable),
/// substitutes them into operands and guards, folds all-constant ALU and
/// compare instructions into constant assignments via the shared reference
/// semantics, and resolves constant-vs-constant guard predicates.
pub struct ConstFoldPass;

impl ConstFoldPass {
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
}

impl TransformPass for ConstFoldPass {
    fn name(&self) -> &'static str {
        "const-fold"
    }

    fn run(&self, program: &mut IrProgram, ctx: &TransformContext<'_>, out: &mut DiagnosticSet) {
        let mut consts: BTreeMap<String, crate::types::Value> = BTreeMap::new();
        let mut folded = 0usize;
        let mut removed: Vec<String> = Vec::new();
        let mut kept = Vec::with_capacity(program.instructions.len());
        for mut instr in std::mem::take(&mut program.instructions) {
            // substitute known constants into the guard and resolve
            // constant-vs-constant predicates
            let mut never_executes = false;
            if let Some(guard) = &mut instr.guard {
                Self::subst(guard.operands_mut(), &consts);
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
            Self::subst(instr.op.operands_mut(), &consts);
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
            out.push(info(self.name(), ctx, &program.name, message));
        }
    }
}

/// Dead-value *elimination*: removes the pure computations the verifier's
/// `dead-snippet` pass only detects.
///
/// Liveness is the same backwards value-graph walk the detector uses, with
/// the context's live-out variables as extra roots.  A program with no
/// effectful instruction at all is left untouched — gutting it would not fix
/// it, and the `dead-snippet` warning already points at it.
pub struct DeadValueElimPass;

impl TransformPass for DeadValueElimPass {
    fn name(&self) -> &'static str {
        "dead-value-elim"
    }

    fn run(&self, program: &mut IrProgram, ctx: &TransformContext<'_>, out: &mut DiagnosticSet) {
        if !program.instructions.iter().any(is_effectful) {
            return;
        }
        let live = live_instructions(program, ctx.live_outs);
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
            self.name(),
            ctx,
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
}

/// Guard hoisting: predicates present in *every* instruction's guard move
/// into the program-level [`IrProgram::precondition`], evaluated once per
/// packet.
///
/// Only predicates whose operands are constants, metadata, or header fields
/// the program never writes are hoistable — those are invariant for the whole
/// program execution, so checking them up front is equivalent to checking
/// them at every instruction.  Variables are never hoistable (they do not
/// exist before the first instruction runs).
pub struct GuardHoistPass;

impl GuardHoistPass {
    fn hoistable(p: &Predicate, written_headers: &BTreeSet<&str>) -> bool {
        [&p.lhs, &p.rhs].iter().all(|op| match op {
            Operand::Const(_) | Operand::Meta(_) => true,
            Operand::Header(f) => !written_headers.contains(f.as_str()),
            Operand::Var(_) => false,
        })
    }
}

impl TransformPass for GuardHoistPass {
    fn name(&self) -> &'static str {
        "guard-hoist"
    }

    fn run(&self, program: &mut IrProgram, ctx: &TransformContext<'_>, out: &mut DiagnosticSet) {
        if program.instructions.is_empty() {
            return;
        }
        let written: BTreeSet<&str> =
            program.instructions.iter().flat_map(|i| i.op.header_writes()).collect();
        // candidates: hoistable predicates of the first guard, narrowed to
        // those every other instruction's guard also carries
        let Some(first) = &program.instructions[0].guard else { return };
        let mut shared: Vec<Predicate> =
            first.all.iter().filter(|p| Self::hoistable(p, &written)).cloned().collect();
        for instr in &program.instructions[1..] {
            let Some(guard) = &instr.guard else { return };
            shared.retain(|p| guard.all.contains(p));
            if shared.is_empty() {
                return;
            }
        }
        // lift them out of every guard and into the precondition
        for instr in &mut program.instructions {
            if let Some(guard) = &mut instr.guard {
                for p in &shared {
                    if let Some(pos) = guard.all.iter().position(|q| q == p) {
                        guard.all.remove(pos);
                    }
                }
                if guard.all.is_empty() {
                    instr.guard = None;
                }
            }
        }
        let pre = program.precondition.get_or_insert_with(Guard::default);
        pre.all.extend(shared.iter().cloned());
        let preds: Vec<String> = shared.iter().map(|p| p.to_string()).collect();
        out.push(info(
            self.name(),
            ctx,
            &program.name,
            format!(
                "hoisted {} guard predicate(s) shared by all {} instruction(s) into the program \
                 precondition: {}",
                shared.len(),
                program.instructions.len(),
                preds.join(" && ")
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::instr::{AluOp, CmpOp};
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
    fn live_outs_keep_exported_temporaries() {
        let mut b = ProgramBuilder::new("p");
        b.header("key", ValueType::Bit(32));
        b.array("acc", 1, 16, 32);
        b.assign("exported", Operand::hdr("key"));
        b.count(None, "acc", vec![Operand::hdr("key")], Operand::int(1));
        b.forward();
        let p = b.build().unwrap();
        let mut out = DiagnosticSet::new();
        let opt = Optimizer::with_default_passes()
            .with_live_outs(["exported".to_string()])
            .optimize("u0", false, &p, &mut out);
        assert_eq!(opt.len(), 3, "exported temporary survives: {}", opt.dump());
    }

    #[test]
    fn shared_guard_predicates_hoist_into_the_precondition() {
        let user = Predicate::new(Operand::Meta("inc_user".into()), CmpOp::Eq, Operand::int(7));
        let mut b = ProgramBuilder::new("p");
        b.header("op", ValueType::Bit(32));
        b.array("acc", 1, 16, 32);
        b.guarded(user.clone(), |b| {
            b.count(None, "acc", vec![Operand::int(0)], Operand::int(1));
        });
        b.guarded(user.clone(), |b| {
            b.guarded(Predicate::new(Operand::hdr("op"), CmpOp::Eq, Operand::int(1)), |b| {
                b.count(None, "acc", vec![Operand::int(1)], Operand::int(1));
            });
        });
        let p = b.build().unwrap();
        let (opt, diags) = optimize(&p);
        assert_eq!(opt.precondition, Some(Guard::single(user)));
        assert!(opt.instructions[0].guard.is_none(), "fully hoisted guard drops");
        assert_eq!(
            opt.instructions[1].guard.as_ref().map(|g| g.all.len()),
            Some(1),
            "per-instruction remainder stays"
        );
        assert!(diags.iter().any(|d| d.pass == "guard-hoist"), "{diags}");
        assert!(opt.validate().is_ok());
    }

    #[test]
    fn unguarded_instruction_blocks_hoisting() {
        let user = Predicate::new(Operand::Meta("inc_user".into()), CmpOp::Eq, Operand::int(7));
        let mut b = ProgramBuilder::new("p");
        b.array("acc", 1, 16, 32);
        b.guarded(user, |b| {
            b.count(None, "acc", vec![Operand::int(0)], Operand::int(1));
        });
        b.forward(); // unguarded: must keep running for every packet
        let p = b.build().unwrap();
        let (opt, _) = optimize(&p);
        assert_eq!(opt.precondition, None);
    }

    #[test]
    fn header_writes_block_hoisting_their_fields() {
        let hdr = Predicate::new(Operand::hdr("op"), CmpOp::Eq, Operand::int(1));
        let mut b = ProgramBuilder::new("p");
        b.header("op", ValueType::Bit(32));
        b.guarded(hdr.clone(), |b| {
            b.set_header("op", Operand::int(2));
        });
        b.guarded(hdr, |b| {
            b.drop_packet();
        });
        let p = b.build().unwrap();
        let (opt, _) = optimize(&p);
        assert_eq!(opt.precondition, None, "written header field is not invariant");
    }

    #[test]
    fn broken_transforms_fall_back_to_the_original() {
        struct Gut;
        impl TransformPass for Gut {
            fn name(&self) -> &'static str {
                "gut"
            }
            fn run(
                &self,
                program: &mut IrProgram,
                _ctx: &TransformContext<'_>,
                _out: &mut DiagnosticSet,
            ) {
                program.instructions.clear();
            }
        }
        let mut b = ProgramBuilder::new("p");
        b.forward();
        let p = b.build().unwrap();
        let mut opt = Optimizer::new();
        opt.register(Box::new(Gut));
        let mut out = DiagnosticSet::new();
        let result = opt.optimize("u0", false, &p, &mut out);
        assert_eq!(result, p, "structural failure falls back");
        assert!(out.iter().any(|d| d.pass == "optimizer"), "{out}");
    }

    #[test]
    fn default_pipeline_order_is_stable() {
        assert_eq!(
            Optimizer::with_default_passes().pass_names(),
            vec!["const-fold", "dead-value-elim", "guard-hoist"]
        );
    }
}
