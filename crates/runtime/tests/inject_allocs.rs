//! `EngineHandle::inject` shares the tenant's record instead of copying it:
//! what the call allocates on the injecting thread is a small constant,
//! whatever the size of the tenant's program.

use clickinc_device::DeviceModel;
use clickinc_emulator::Packet;
use clickinc_frontend::compile_source;
use clickinc_lang::templates::{kvs_template, mlagg_template, KvsParams, MlAggParams};
use clickinc_runtime::workload::{
    KvsWorkload, KvsWorkloadConfig, MlAggWorkload, MlAggWorkloadConfig, Workload,
};
use clickinc_runtime::{EngineConfig, EngineHandle, TenantHop, TrafficEngine};
use clickinc_synthesis::isolate_user_program;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    // const-initialised and without a destructor, so touching it from inside
    // the allocator neither allocates nor registers anything
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator plus a per-thread call counter.
struct Counting;

// SAFETY: both methods forward to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's guarantees; the
// counter is a plain thread-local statistic and bumping it never allocates.
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

const BURST: usize = 64;
const ROUNDS: usize = 8;

/// One isolated program on one device, and how many IR instructions it has.
fn one_hop(name: &str, id: i64, source: &str) -> (Vec<TenantHop>, usize) {
    let snippet = isolate_user_program(&compile_source(name, source).unwrap(), name, id);
    let instructions = snippet.instructions.len();
    let hop = TenantHop {
        device: "tor0".to_string(),
        model: DeviceModel::tofino(),
        snippets: vec![snippet],
    };
    (vec![hop], instructions)
}

fn burst(workload: &mut dyn Workload) -> Vec<(u64, Packet)> {
    let jobs: Vec<_> = std::iter::from_fn(|| workload.next_packet())
        .take(BURST)
        .map(|generated| (generated.vtime_ns, generated.packet))
        .collect();
    assert_eq!(jobs.len(), BURST, "the workload covers every round");
    jobs
}

/// Allocations the calling thread makes inside one `inject` of a pre-built
/// burst (the shard workers allocate on their own threads).
fn allocs_in_inject(handle: &EngineHandle, tenant: &Arc<str>, jobs: Vec<(u64, Packet)>) -> u64 {
    let before = ALLOCS.with(Cell::get);
    let outcome = handle.inject(tenant, jobs);
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!((outcome.admitted, outcome.shed), (BURST, 0), "ample queues admit the burst");
    allocs
}

#[test]
fn inject_cost_is_independent_of_program_size() {
    let kvs = kvs_template("kvs", KvsParams::default());
    let mlagg = mlagg_template(
        "mlagg",
        MlAggParams { dims: 32, num_workers: 4, num_aggregators: 1024, ..Default::default() },
    );
    let (kvs_hops, kvs_instructions) = one_hop("kvs", 1, &kvs.source);
    let (mlagg_hops, mlagg_instructions) = one_hop("mlagg", 2, &mlagg.source);
    assert!(
        mlagg_instructions > 8 * kvs_instructions,
        "the two programs differ in size by an order of magnitude: {kvs_instructions} vs \
         {mlagg_instructions} instructions"
    );

    let engine = TrafficEngine::new(EngineConfig { shards: 1, ..Default::default() });
    let handle = engine.handle();
    handle.add_tenant("kvs", kvs_hops);
    handle.add_tenant("mlagg", mlagg_hops);
    let mut kvs_wl = KvsWorkload::new(KvsWorkloadConfig {
        tenant: "kvs".to_string(),
        user_id: 1,
        requests: BURST * ROUNDS,
        ..Default::default()
    });
    let mut mlagg_wl = MlAggWorkload::new(MlAggWorkloadConfig {
        tenant: "mlagg".to_string(),
        user_id: 2,
        workers: 4,
        rounds: BURST * ROUNDS / 4,
        dims: 32,
        ..Default::default()
    });
    let (kvs_name, mlagg_name): (Arc<str>, Arc<str>) = ("kvs".into(), "mlagg".into());

    let (mut kvs_allocs, mut mlagg_allocs) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        let (kvs_jobs, mlagg_jobs) = (burst(&mut kvs_wl), burst(&mut mlagg_wl));
        kvs_allocs.push(allocs_in_inject(&handle, &kvs_name, kvs_jobs));
        mlagg_allocs.push(allocs_in_inject(&handle, &mlagg_name, mlagg_jobs));
    }
    engine.finish();

    // the channel allocates a block of message slots every few dozen sends,
    // on whichever call crosses the boundary — the per-round minimum is the
    // cost of the call itself
    assert_eq!(
        kvs_allocs.iter().min(),
        mlagg_allocs.iter().min(),
        "inject cost depends on the program: {kvs_allocs:?} vs {mlagg_allocs:?}"
    );
    // the admitted-jobs `Vec` and, at a boundary, the channel's next block
    let worst = kvs_allocs.iter().chain(&mlagg_allocs).max().copied().unwrap_or(0);
    assert!(worst <= 4, "inject allocates a small constant: {kvs_allocs:?} vs {mlagg_allocs:?}");
}
