//! Allocation pins of a device plane's control path, on counts that repeat
//! exactly.
//!
//! An install lowers only the snippet it installs: the compiled image keeps
//! every resident's register and header names, and the new program is
//! appended against them.  So installing a fig13 tenant next to 49 residents
//! allocates no more than installing it on an empty plane, bar the register
//! file regrowing.  An uninstall drops the owner's programs and, unless its
//! dead registers come to outnumber the live ones, compiles nothing: its
//! allocations do not depend on how many residents stay.

use clickinc::lang::templates::{
    count_min_sketch, dqacc_template, kvs_template, mlagg_template, DqAccParams, KvsParams,
    MlAggParams,
};
use clickinc::synthesis::isolate_user_program;
use clickinc_device::DeviceModel;
use clickinc_emulator::DevicePlane;
use clickinc_frontend::compile_source;
use clickinc_ir::{DiagnosticSet, IrProgram, Optimizer};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

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

/// Allocations the calling thread makes inside `f`.
fn allocs_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// The `i`-th fig13 tenant, cycling the four provider templates, compiled,
/// isolated and optimized as the controller deploys it.
fn fig13_tenant(i: i64) -> Arc<IrProgram> {
    let user = format!("t{i}");
    let template = match i % 4 {
        0 => kvs_template(&user, KvsParams { cache_depth: 64, ..Default::default() }),
        1 => mlagg_template(
            &user,
            MlAggParams { num_aggregators: 64, num_workers: 4, dims: 8, is_float: false },
        ),
        2 => count_min_sketch(&user, 3, 128),
        _ => dqacc_template(&user, DqAccParams { depth: 32, ways: 4 }),
    };
    let ir = compile_source(&user, &template.source).expect("template compiles");
    let isolated = isolate_user_program(&ir, &user, i + 1);
    let mut changes = DiagnosticSet::new();
    Arc::new(Optimizer::with_default_passes().optimize(&user, true, &isolated, &mut changes))
}

/// A plane holding `residents`, the fig13 tenants `1..=residents`.
fn plane_with(residents: &[Arc<IrProgram>]) -> DevicePlane {
    let mut plane = DevicePlane::new("SW0", DeviceModel::tofino());
    for resident in residents {
        plane.install(Arc::clone(resident));
    }
    plane
}

#[test]
fn an_install_costs_the_tenant_not_the_residents() {
    let residents: Vec<_> = (1..50).map(fig13_tenant).collect();
    // an MLAgg, the largest template, arrives last
    let arrival = fig13_tenant(101);
    let mut empty = plane_with(&[]);
    let mut full = plane_with(&residents);
    let alone = allocs_in(|| empty.install(Arc::clone(&arrival)));
    let crowded = allocs_in(|| full.install(Arc::clone(&arrival)));
    assert!(
        crowded <= alone + 3,
        "installing next to {} residents allocates {crowded}, on an empty plane {alone}",
        residents.len()
    );
    assert_eq!(full.compiled_image().expect("compiled").programs().len(), 50);
}

#[test]
fn an_uninstall_that_compiles_nothing_costs_the_same_beside_any_residents() {
    let residents: Vec<_> = (1..50).map(fig13_tenant).collect();
    // a KVS leaves: it introduced fewer registers than any resident set
    // below holds live, so neither plane compiles whole
    let leaving = fig13_tenant(100);
    let mut counts = Vec::new();
    for n in [3, 12, 49] {
        let mut plane = plane_with(&residents[..n]);
        plane.install(Arc::clone(&leaving));
        let allocs = allocs_in(|| {
            plane.uninstall("t100").expect("installed above");
        });
        let image = plane.compiled_image().expect("residents stay");
        assert!(image.dead_regs() > 0, "{n} residents: the uninstall compiled the image whole");
        counts.push((n, allocs));
    }
    assert!(counts.iter().all(|&(_, a)| a == counts[0].1), "allocations by residents: {counts:?}");
}
