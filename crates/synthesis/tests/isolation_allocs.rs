//! Allocation pins of isolation and slicing, on counts that repeat exactly.
//!
//! Every IR name is a shared `Name`, so copying a program allocates its
//! containers (the instruction, operand, guard and owner lists) and no name
//! string: a `clone()` and the full `slice()` a warm deploy takes of an
//! isolated tenant allocate exactly the containers they hold.  Isolation
//! mints each prefixed name once, as a string and then its shared form, and
//! shares it across all its occurrences.

use clickinc_frontend::compile_source;
use clickinc_ir::{DiagnosticSet, Guard, IrProgram, OpCode, Operand, Optimizer, Value};
use clickinc_lang::templates::{kvs_template, mlagg_template, KvsParams, MlAggParams, Template};
use clickinc_synthesis::isolate_user_program;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;

thread_local! {
    // const-initialised and without a destructor, so touching it from inside
    // the allocator neither allocates nor registers anything
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator plus a per-thread call counter (each test counts
/// only its own thread, so the tests may run side by side).
struct Counting;

// SAFETY: both methods forward to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's guarantees; the
// counter is a plain statistic and bumping it never allocates.
// (`alloc_zeroed` and `realloc` default to `alloc`, so they are counted too.)
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // a thread being torn down has no counter any more; nothing measured
        // runs there
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `f` returns, and the allocations the calling thread made inside it.
fn allocs_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// The KVS and MLAgg-12 templates as the frontend compiles them, by user.
fn templates() -> Vec<(&'static str, IrProgram)> {
    let compiled = |user: &'static str, template: Template| {
        (user, compile_source(user, &template.source).expect("template compiles"))
    };
    let mlagg = MlAggParams { num_aggregators: 64, num_workers: 4, dims: 12, is_float: false };
    vec![
        compiled("kvs_0", kvs_template("kvs_0", KvsParams::default())),
        compiled("mlagg_1", mlagg_template("mlagg_1", mlagg)),
    ]
}

/// `program` isolated for `user` and optimized, as a deploy ships it.
fn deployed(user: &str, program: &IrProgram, id: i64) -> IrProgram {
    let isolated = isolate_user_program(program, user, id);
    Optimizer::with_default_passes().optimize(user, true, isolated, &mut DiagnosticSet::new())
}

/// The heap blocks `program` holds besides its names: one per non-empty
/// list, and one per non-empty byte constant.
fn containers(program: &IrProgram) -> u64 {
    let list = |len: usize| u64::from(len > 0);
    let bytes = |o: &Operand| matches!(o, Operand::Const(Value::Bytes(b)) if !b.is_empty());
    let guard = |g: &Option<Guard>| g.as_ref().map_or(0, |g| list(g.all.len()));
    let guard_operands = |g: &Option<Guard>| {
        let operands = g.iter().flat_map(|g| g.all.iter().flat_map(|p| [&p.lhs, &p.rhs]));
        operands.filter(|o| bytes(o)).count() as u64
    };
    let mut n = list(program.objects.len())
        + list(program.headers.len())
        + list(program.instructions.len())
        + guard(&program.precondition)
        + guard_operands(&program.precondition);
    for instr in &program.instructions {
        n += guard(&instr.guard) + list(instr.owners.len());
        n += instr.reads().filter(|o| bytes(o)).count() as u64;
        n += match &instr.op {
            OpCode::Hash { keys: a, .. }
            | OpCode::ReadState { index: a, .. }
            | OpCode::CountState { index: a, .. }
            | OpCode::DeleteState { index: a, .. }
            | OpCode::CopyTo { values: a, .. }
            | OpCode::Checksum { inputs: a, .. } => list(a.len()),
            OpCode::WriteState { index, value, .. } => list(index.len()) + list(value.len()),
            OpCode::Back { updates } | OpCode::Mirror { updates } => list(updates.len()),
            _ => 0,
        };
    }
    n
}

/// The distinct names isolation renames: objects and temporaries.
fn renamed_names(program: &IrProgram) -> usize {
    let objects = program.objects.iter().map(|o| o.name.as_str());
    let temporaries = program.instructions.iter().flat_map(|i| i.read_vars().chain(i.dest()));
    objects.chain(temporaries).collect::<BTreeSet<_>>().len()
}

#[test]
fn copying_a_deployed_program_allocates_only_its_containers() {
    for (id, (user, program)) in (1..).zip(templates()) {
        let program = deployed(user, &program, id);
        let expected = containers(&program);
        let (copy, allocs) = allocs_in(|| program.clone());
        assert_eq!(copy, program);
        assert_eq!(allocs, expected, "{user}: clone allocated names");

        let all: Vec<usize> = (0..program.len()).collect();
        let (slice, allocs) = allocs_in(|| program.slice(&all));
        assert_eq!(slice.instructions, program.instructions);
        assert_eq!(allocs, containers(&slice), "{user}: the full slice allocated names");
    }
}

#[test]
fn isolation_mints_each_renamed_name_once() {
    for (id, (user, program)) in (1..).zip(templates()) {
        let (isolated, allocs) = allocs_in(|| isolate_user_program(&program, user, id));
        // the user's name, the `inc_user` match and the renaming table
        let constant = 3;
        let bound = containers(&isolated) + 2 * renamed_names(&program) as u64 + constant;
        assert!(
            allocs <= bound,
            "{user}: isolation allocated {allocs}, more than {bound} ({} containers, {} \
             renamed names)",
            containers(&isolated),
            renamed_names(&program)
        );
    }
}
