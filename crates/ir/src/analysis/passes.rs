//! The verifier pass pipeline.
//!
//! A [`PassManager`] runs a fixed, ordered list of verifier passes over a
//! [`PassContext`] (one tenant's programs plus, when available, their per-device
//! placements) and collects every finding into a [`DiagnosticSet`].  The service
//! runs it once per deploy, over the optimized program and its placed slices,
//! before the first mutation — the only verification on the deploy path — and
//! CI re-runs it in deny-warnings mode over every example's programs.
//!
//! Each pass is one `(name, fn)` entry of that list; adding a pass is adding an
//! entry.

use crate::analysis::dataflow::{header_reads, is_effectful, live_instructions};
use crate::analysis::diagnostics::{Diagnostic, DiagnosticSet, Severity};
use crate::analysis::taint::{mutation_kind, object_kinds};
use crate::capability::CapabilityClass;
use crate::instr::{Instruction, OpCode, Operand};
use crate::object::ObjectKind;
use crate::program::IrProgram;
use std::collections::BTreeSet;
use std::sync::Arc;

/// A device the verifier checks placements against, as plain data.
///
/// The `device` crate owns the full models; the service flattens them into this
/// shape so the IR crate needs no device dependency.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceTarget {
    /// Device name (e.g. `tor0`).
    pub device: String,
    /// Device kind label (e.g. `tofino`), used only in messages.
    pub kind: String,
    /// Capability classes the device supports.
    pub supported: BTreeSet<CapabilityClass>,
    /// Total storage the device offers, in bits.
    pub storage_capacity_bits: u64,
}

/// One per-device slice of a tenant's deployment.
#[derive(Debug, Clone)]
pub struct PlacedSnippet {
    /// The device the slice lands on.
    pub device: String,
    /// The device's verifier-visible model.
    pub target: DeviceTarget,
    /// The slice placed there (the allocation the data plane installs).
    pub program: Arc<IrProgram>,
}

/// Everything a pass may inspect for one tenant.
#[derive(Debug, Clone)]
pub struct PassContext<'a> {
    /// The tenant (user program id) under analysis.
    pub tenant: String,
    /// Whether `programs` went through isolation renaming — the isolation pass
    /// only applies then (operator base programs own the global namespace).
    pub isolated: bool,
    /// The tenant's full programs, one per source snippet.
    pub programs: &'a [IrProgram],
    /// Per-device placement slices, when placement has run (may be empty).
    pub placements: &'a [PlacedSnippet],
}

/// A verifier pass: analyzes the context and appends its findings, each
/// tagged with the pass name it is given.
type Pass = fn(&str, &PassContext<'_>, &mut DiagnosticSet);

/// The verifier pipeline, in severity-first order: each pass's stable name,
/// recorded on every diagnostic it emits, and the function that runs it.
const PASSES: [(&str, Pass); 7] = [
    ("isolation", isolation),
    ("uninit-header", uninit_header),
    ("bounds", bounds),
    ("resource-bound", resource_bound),
    ("dead-snippet", dead_snippet),
    ("commutativity", commutativity),
    ("split-execution", split_execution),
];

/// Runs the verifier pipeline.
pub struct PassManager;

impl PassManager {
    /// The verifier pipeline (the only one there is).
    pub fn with_default_passes() -> PassManager {
        PassManager
    }

    /// Run every pass over `ctx` and collect the findings.
    pub fn run(&self, ctx: &PassContext<'_>) -> DiagnosticSet {
        let mut out = DiagnosticSet::new();
        for (name, pass) in PASSES {
            pass(name, ctx, &mut out);
        }
        out
    }
}

fn diag(
    severity: Severity,
    pass: &str,
    ctx: &PassContext<'_>,
    snippet: &str,
    message: String,
) -> Diagnostic {
    Diagnostic::new(severity, pass, ctx.tenant.clone(), snippet, message)
}

/// Whether `name` lies inside `tenant`'s isolation namespace: the `{tenant}_`
/// prefix `synthesis::isolate_user_program` establishes, followed by at least
/// one more byte.
pub fn owned_by(name: &str, tenant: &str) -> bool {
    name.len() > tenant.len() + 1
        && name.as_bytes()[tenant.len()] == b'_'
        && name.starts_with(tenant)
}

/// Cross-tenant isolation: every object an isolated program declares or
/// touches must be [`owned_by`] the tenant.  A reference outside its namespace
/// reads or corrupts another tenant's state.
fn isolation(pass: &str, ctx: &PassContext<'_>, out: &mut DiagnosticSet) {
    if !ctx.isolated {
        return;
    }
    for program in ctx.programs {
        for decl in &program.objects {
            if !owned_by(&decl.name, &ctx.tenant) {
                out.push(diag(
                    Severity::Error,
                    pass,
                    ctx,
                    &program.name,
                    format!(
                        "object `{}` is declared outside tenant namespace `{}_*`",
                        decl.name, ctx.tenant
                    ),
                ));
            }
        }
        for instr in &program.instructions {
            if let Some(object) = instr.object() {
                if !owned_by(object, &ctx.tenant) {
                    out.push(diag(
                        Severity::Error,
                        pass,
                        ctx,
                        &program.name,
                        format!(
                            "instruction {} accesses `{object}` outside tenant namespace `{}_*`",
                            instr.id, ctx.tenant
                        ),
                    ));
                }
            }
        }
    }
}

/// Uninitialized-header-read: a header field read before the program either
/// declares it (parsed off the wire) or writes it yields whatever bytes the
/// previous pipeline stage left behind.
fn uninit_header(pass: &str, ctx: &PassContext<'_>, out: &mut DiagnosticSet) {
    for program in ctx.programs {
        let mut known: BTreeSet<&str> = program.headers.iter().map(|h| h.name.as_str()).collect();
        for instr in &program.instructions {
            for field in header_reads(instr) {
                if !known.contains(field) {
                    out.push(diag(
                        Severity::Error,
                        pass,
                        ctx,
                        &program.name,
                        format!(
                            "instruction {} reads header field `{field}` that is neither \
                             declared nor written earlier",
                            instr.id
                        ),
                    ));
                }
            }
            known.extend(instr.op.header_writes());
        }
    }
}

/// One constant index of a state access, with the bound of the dimension it
/// indexes (`what` is `"row"` or `"cell"`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConstIndex {
    /// The constant, as written (possibly negative).
    pub value: i64,
    /// The dimension's declared size.
    pub bound: u64,
    /// Which dimension it indexes.
    pub what: &'static str,
}

/// The constant indices a state access of `program` uses on an `Array` or
/// `Seq` object, each with its dimension's bound, alongside the object's name
/// — the dimensions the emulator's row/cell decoding reads them as.  `None`
/// for every other instruction: sketches hash their index and tables treat it
/// as a key.  The `bounds` pass and the frontend's lower-time check judge
/// these same triples.
pub fn constant_indices<'p>(
    program: &'p IrProgram,
    instr: &'p Instruction,
) -> Option<(&'p str, impl Iterator<Item = ConstIndex>)> {
    let (OpCode::ReadState { object, index, .. }
    | OpCode::WriteState { object, index, .. }
    | OpCode::CountState { object, index, .. }
    | OpCode::DeleteState { object, index }) = &instr.op
    else {
        return None;
    };
    let at = |i: usize, bound: u32, what| match index.get(i) {
        Some(Operand::Const(v)) => {
            v.as_int().map(|value| ConstIndex { value, bound: u64::from(bound), what })
        }
        _ => None,
    };
    let (row, cell) = match &program.object(object)?.kind {
        ObjectKind::Array { rows, size, .. } if index.len() >= 2 => {
            (at(0, *rows, "row"), at(1, *size, "cell"))
        }
        ObjectKind::Array { size, .. } | ObjectKind::Seq { size, .. } => {
            (None, at(0, *size, "cell"))
        }
        _ => return None,
    };
    Some((object.as_str(), row.into_iter().chain(cell)))
}

/// Constant-index bounds: the emulator (and the ASICs' register files) wrap
/// out-of-range indices modulo the object size, so an out-of-bounds constant
/// silently aliases another cell instead of faulting.  Negative constants are
/// folded through `unsigned_abs` and alias too.
fn bounds(pass: &str, ctx: &PassContext<'_>, out: &mut DiagnosticSet) {
    for program in ctx.programs {
        for instr in &program.instructions {
            let Some((object, indices)) = constant_indices(program, instr) else { continue };
            for ConstIndex { value, bound, what } in indices {
                let message = if value < 0 {
                    format!(
                        "instruction {} indexes `{object}` with negative {what} {value}, which \
                         aliases {what} {} at runtime",
                        instr.id,
                        value.unsigned_abs() % bound.max(1)
                    )
                } else if value as u64 >= bound {
                    format!(
                        "instruction {} indexes `{object}` at {what} {value}, past its {what} \
                         bound {bound} (wraps to {} at runtime)",
                        instr.id,
                        value as u64 % bound.max(1)
                    )
                } else {
                    continue;
                };
                out.push(diag(Severity::Error, pass, ctx, &program.name, message));
            }
        }
    }
}

/// Resource pre-check against the device models placement chose: a placed
/// slice demanding a capability class its device lacks can never install
/// (error), and one whose objects outgrow the device's total storage will be
/// rejected by the device compiler later (warning — placement may still be
/// revised).
fn resource_bound(pass: &str, ctx: &PassContext<'_>, out: &mut DiagnosticSet) {
    for placed in ctx.placements {
        let required = placed.program.required_capabilities();
        let missing: Vec<String> =
            required.difference(&placed.target.supported).map(|c| c.to_string()).collect();
        if !missing.is_empty() {
            out.push(diag(
                Severity::Error,
                pass,
                ctx,
                &placed.program.name,
                format!(
                    "device `{}` ({}) lacks capability class(es) {} required by the slice",
                    placed.device,
                    placed.target.kind,
                    missing.join(", ")
                ),
            ));
        }
        let demand: u64 = placed.program.objects.iter().map(|o| o.kind.storage_bits()).sum();
        if demand > placed.target.storage_capacity_bits {
            out.push(diag(
                Severity::Warning,
                pass,
                ctx,
                &placed.program.name,
                format!(
                    "slice declares {demand} bits of state but device `{}` ({}) offers only {} \
                     bits in total",
                    placed.device, placed.target.kind, placed.target.storage_capacity_bits
                ),
            ));
        }
    }
}

/// Dead-snippet detection: a program with no effectful instruction (no state
/// mutation, header rewrite, or packet action beyond the default forward)
/// burns pipeline stages without observable output — warning.  Individual
/// pure computations whose values never reach an effect are reported as info
/// (the optimizer's `dead-value-elim` removes them before deploy).
fn dead_snippet(pass: &str, ctx: &PassContext<'_>, out: &mut DiagnosticSet) {
    for program in ctx.programs {
        if !program.instructions.iter().any(is_effectful) {
            out.push(diag(
                Severity::Warning,
                pass,
                ctx,
                &program.name,
                "snippet has no observable effect: no state mutation, header rewrite, or \
                 non-default packet action"
                    .to_string(),
            ));
            continue;
        }
        let live = live_instructions(program);
        for (idx, instr) in program.instructions.iter().enumerate() {
            if !live[idx] {
                out.push(diag(
                    Severity::Info,
                    pass,
                    ctx,
                    &program.name,
                    format!(
                        "instruction {} ({}) computes a value nothing observes",
                        instr.id,
                        instr.op.mnemonic()
                    ),
                ));
            }
        }
    }
}

/// Non-commutative-mutation classification: surfaces (as info) every state
/// mutation with no order-free merge, classified by the shared taint
/// engine's [`mutation_kind`] — the function whose non-commutative kinds pin
/// a tenant's sharding mode, so the verifier and the flow-sharder can never
/// disagree about which mutations pin a tenant.
fn commutativity(pass: &str, ctx: &PassContext<'_>, out: &mut DiagnosticSet) {
    let kinds = object_kinds(ctx.programs);
    for program in ctx.programs {
        for instr in &program.instructions {
            let Some(kind) = mutation_kind(instr, &kinds).filter(|k| !k.is_commutative()) else {
                continue;
            };
            let target = instr.op.object().unwrap_or("the tenant random stream");
            out.push(diag(
                Severity::Info,
                pass,
                ctx,
                &program.name,
                format!(
                    "instruction i{} performs a non-commutative `{}` mutation of {target}; the \
                     deployment cannot be flow-sharded",
                    instr.id.0,
                    kind.name()
                ),
            ));
        }
    }
}

/// Split execution: a plan that cuts a program into several slices runs
/// each on its own device, and nothing carries a temporary from one device
/// to the next — a slice that reads a temporary only another slice defines
/// ([`IrProgram::free_vars`]) reads it unset, so the split plan does not
/// compute what the unsplit program does.  One finding per such slice.
///
/// `Info` for now: at `Warning` the template library's own MLAgg plan fails
/// CI's deny-warnings step.  It graduates when the cross-device carrier
/// lands (ROADMAP, "split plans must mean what unsplit plans mean").
fn split_execution(pass: &str, ctx: &PassContext<'_>, out: &mut DiagnosticSet) {
    // replicas of one slice share its allocation; the common deploy has
    // one distinct slice and returns here, before any set is built
    let same_slice = |a: &PlacedSnippet, b: &PlacedSnippet| Arc::ptr_eq(&a.program, &b.program);
    let Some(first) = ctx.placements.first() else { return };
    if ctx.placements.iter().all(|p| same_slice(p, first)) {
        return;
    }
    // an assignment's members are adjacent in `placements`
    for replicas in ctx.placements.chunk_by(same_slice) {
        let slice = &replicas[0].program;
        let free = slice.free_vars();
        if free.is_empty() {
            continue;
        }
        let devices: Vec<&str> = replicas.iter().map(|p| p.device.as_str()).collect();
        let shown: Vec<&str> = free.iter().take(3).copied().collect();
        let more = if free.len() > shown.len() { ", …" } else { "" };
        out.push(diag(
            Severity::Info,
            pass,
            ctx,
            &slice.name,
            format!(
                "the slice on `{}` reads {} temporaries no instruction of the slice defines \
                 (`{}`{more}); nothing carries them between devices, so they read unset there",
                devices.join("`, `"),
                free.len(),
                shown.join("`, `")
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::types::ValueType;

    fn ctx<'a>(programs: &'a [IrProgram], placements: &'a [PlacedSnippet]) -> PassContext<'a> {
        PassContext { tenant: "u0".into(), isolated: true, programs, placements }
    }

    #[test]
    fn default_pipeline_order_is_stable() {
        assert_eq!(
            PASSES.map(|(name, _)| name),
            [
                "isolation",
                "uninit-header",
                "bounds",
                "resource-bound",
                "dead-snippet",
                "commutativity",
                "split-execution"
            ]
        );
    }

    #[test]
    fn isolation_pass_flags_foreign_objects_only_when_isolated() {
        let mut b = ProgramBuilder::new("p");
        b.header("key", ValueType::Bit(32));
        b.array("u1_ctr", 1, 8, 32); // another tenant's namespace
        b.count(None, "u1_ctr", vec![Operand::hdr("key")], Operand::int(1));
        let p = [b.build().unwrap()];
        let set = PassManager::with_default_passes().run(&ctx(&p, &[]));
        let isolation: Vec<_> = set.iter().filter(|d| d.pass == "isolation").collect();
        assert_eq!(isolation.len(), 2, "declaration and access both flagged: {set}");
        assert!(set.has_errors());

        let mut unisolated = ctx(&p, &[]);
        unisolated.isolated = false;
        let set = PassManager::with_default_passes().run(&unisolated);
        assert_eq!(set.iter().filter(|d| d.pass == "isolation").count(), 0);
    }

    #[test]
    fn uninit_header_read_is_an_error_and_writes_initialize() {
        let mut b = ProgramBuilder::new("p");
        b.array("u0_a", 1, 8, 32);
        b.count(None, "u0_a", vec![Operand::hdr("key")], Operand::int(1)); // key undeclared
        b.set_header("op", Operand::int(1));
        b.assign("x", Operand::hdr("op")); // initialized by the write above
        let p = [b.build().unwrap()];
        let set = PassManager::with_default_passes().run(&ctx(&p, &[]));
        let uninit: Vec<_> = set.iter().filter(|d| d.pass == "uninit-header").collect();
        assert_eq!(uninit.len(), 1);
        assert!(uninit[0].message.contains("`key`"));
    }

    #[test]
    fn constant_index_bounds_cover_rows_cells_and_negatives() {
        let mut b = ProgramBuilder::new("p");
        b.header("key", ValueType::Bit(32));
        b.array("u0_a", 2, 8, 32);
        b.seq("u0_s", 4, 8);
        b.count(None, "u0_a", vec![Operand::int(1), Operand::int(7)], Operand::int(1)); // ok
        b.count(None, "u0_a", vec![Operand::int(2), Operand::int(0)], Operand::int(1)); // row oob
        b.get("v", "u0_a", vec![Operand::int(8)]); // cell oob
        b.write("u0_s", vec![Operand::int(-1)], vec![Operand::int(0)]); // negative
        b.forward();
        let p = [b.build().unwrap()];
        let set = PassManager::with_default_passes().run(&ctx(&p, &[]));
        let bounds: Vec<_> = set.iter().filter(|d| d.pass == "bounds").collect();
        assert_eq!(bounds.len(), 3, "{set}");
        assert!(bounds.iter().all(|d| d.severity == Severity::Error));
        assert!(bounds[0].message.contains("row"));
        assert!(bounds[2].message.contains("negative"));
    }

    #[test]
    fn dead_snippet_is_a_warning_dead_value_is_info() {
        let mut b = ProgramBuilder::new("noop");
        b.header("key", ValueType::Bit(32));
        b.assign("x", Operand::hdr("key"));
        b.forward();
        let p = [b.build().unwrap()];
        let set = PassManager::with_default_passes().run(&ctx(&p, &[]));
        let dead: Vec<_> = set.iter().filter(|d| d.pass == "dead-snippet").collect();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].severity, Severity::Warning);

        let mut b = ProgramBuilder::new("p");
        b.header("key", ValueType::Bit(32));
        b.array("u0_a", 1, 8, 32);
        b.assign("unused", Operand::hdr("key"));
        b.count(None, "u0_a", vec![Operand::hdr("key")], Operand::int(1));
        let p = [b.build().unwrap()];
        let set = PassManager::with_default_passes().run(&ctx(&p, &[]));
        let dead: Vec<_> = set.iter().filter(|d| d.pass == "dead-snippet").collect();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].severity, Severity::Info);
    }

    #[test]
    fn resource_pass_checks_capabilities_and_capacity() {
        let mut b = ProgramBuilder::new("p");
        b.header("key", ValueType::Bit(32));
        b.array("u0_a", 1, 1024, 32);
        b.count(None, "u0_a", vec![Operand::hdr("key")], Operand::int(1));
        let program = b.build().unwrap();
        let starved = DeviceTarget {
            device: "tor0".into(),
            kind: "toy".into(),
            supported: BTreeSet::from([CapabilityClass::Bin]), // no BSO
            storage_capacity_bits: 1024,                       // < 32768 demanded
        };
        let placements = [PlacedSnippet {
            device: "tor0".into(),
            target: starved,
            program: program.clone().into(),
        }];
        let p = [program];
        let set = PassManager::with_default_passes().run(&ctx(&p, &placements));
        let res: Vec<_> = set.iter().filter(|d| d.pass == "resource-bound").collect();
        assert_eq!(res.len(), 2, "{set}");
        assert_eq!(res[0].severity, Severity::Error);
        assert!(res[0].message.contains("BSO"));
        assert_eq!(res[1].severity, Severity::Warning);
    }

    #[test]
    fn commutativity_pass_reports_overwrites_as_info() {
        let mut b = ProgramBuilder::new("p");
        b.header("key", ValueType::Bit(32));
        b.header("seq", ValueType::Bit(32));
        b.array("u0_reg", 1, 64, 32);
        b.write("u0_reg", vec![Operand::hdr("key")], vec![Operand::hdr("seq")]);
        b.forward();
        let p = [b.build().unwrap()];
        let set = PassManager::with_default_passes().run(&ctx(&p, &[]));
        let comm: Vec<_> = set.iter().filter(|d| d.pass == "commutativity").collect();
        assert_eq!(comm.len(), 1);
        assert_eq!(comm[0].severity, Severity::Info);
        assert!(comm[0].message.contains("overwrite"));
        assert!(!set.has_errors() && !set.has_warnings(), "classification only: {set}");
    }
}
