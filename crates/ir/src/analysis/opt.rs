//! The IR transform tier: the optimization pass run at install time, before
//! the program is compiled for the data plane.
//!
//! The [`Optimizer`] runs `dead-value-elim` over one program and returns the
//! result: it removes pure computations whose values nothing observes (the
//! *elimination* counterpart of the verifier's `dead-snippet` detection),
//! reporting exactly what was removed.  It folds no constants: the frontend
//! folds them as it lowers, through the same reference semantics in
//! [`crate::eval`], so no all-constant computation reaches it.
//!
//! It verifies nothing: the deploy path's one verification is the
//! controller's [`PassManager`](crate::analysis::PassManager) run over the
//! *optimized* program and its placed slices, so a transform that broke a
//! program is refused there like any other faulty program, never deployed.
//! It leaves the program-level [`IrProgram::precondition`] alone.
//!
//! It reports what it changed as [`Severity::Info`] diagnostics on the same
//! [`DiagnosticSet`] machinery the verifier uses, so the service's
//! diagnostics JSON shows detection and elimination side by side.
//! `tests/compiled_vs_interp.rs` holds the transform to its contract: the
//! optimized program runs alike on both execution tiers and adds no
//! error-severity finding the raw program lacks.

use crate::analysis::dataflow::{is_effectful, live_instructions};
use crate::analysis::diagnostics::{Diagnostic, DiagnosticSet, Severity};
use crate::program::IrProgram;

/// Runs the install-time transform: dead-value elimination.
pub struct Optimizer;

impl Optimizer {
    /// The optimizer (the only one there is).
    pub fn with_default_passes() -> Optimizer {
        Optimizer
    }

    /// Optimize `tenant`'s `program`, appending the change report to `out`.
    /// `isolated` is ignored: the transform does not depend on it.  The pass
    /// rewrites the program it is handed: pass it by value to have it
    /// rewritten in place, or by reference to have it copied first.
    pub fn optimize(
        &self,
        tenant: &str,
        _isolated: bool,
        program: impl Into<IrProgram>,
        out: &mut DiagnosticSet,
    ) -> IrProgram {
        let mut optimized = program.into();
        dead_value_elim(tenant, &mut optimized, out);
        optimized
    }
}

/// Dead-value *elimination*: removes the pure computations the verifier's
/// `dead-snippet` pass only detects.
///
/// Liveness is the same backwards value-graph walk the detector uses.  A
/// program with no effectful instruction at all is left untouched — gutting
/// it would not fix it, and the `dead-snippet` warning already points at it.
fn dead_value_elim(tenant: &str, program: &mut IrProgram, out: &mut DiagnosticSet) {
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
    out.push(Diagnostic::new(
        Severity::Info,
        "dead-value-elim",
        tenant,
        program.name.as_str(),
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
    use crate::instr::Operand;
    use crate::types::ValueType;

    fn optimize(program: &IrProgram) -> (IrProgram, DiagnosticSet) {
        let mut out = DiagnosticSet::new();
        let optimized = Optimizer::with_default_passes().optimize("u0", false, program, &mut out);
        (optimized, out)
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
}
