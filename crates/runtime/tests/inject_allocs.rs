//! Allocation pins of the packet path, on counts that repeat exactly.
//!
//! `EngineHandle::inject` shares the tenant's record instead of copying it,
//! and a burst bound for one shard — a `ByTenant` tenant's, or a `ByFlow`
//! tenant's on a one-shard engine — reaches the shard in the caller's own
//! buffer: such an `inject` allocates nothing on the injecting thread, bar
//! the channel's occasional block, whatever the size of the tenant's
//! program.  A multi-shard flow partition allocates per shard, not per
//! packet: it reads each flow key in place and sizes each shard's buffer
//! before filling it.  Serving a burst — `inject` until `flush` returns,
//! every thread counted — allocates per burst, not per packet: a packet is
//! one heap block made by its generator, and neither the shard pump nor the
//! VM adds to it.

use clickinc_device::DeviceModel;
use clickinc_emulator::packet::{GradientShape, PacketShape};
use clickinc_emulator::Packet;
use clickinc_frontend::compile_source;
use clickinc_ir::Value;
use clickinc_lang::templates::{kvs_template, mlagg_template, KvsParams, MlAggParams};
use clickinc_runtime::workload::{
    KvsWorkload, KvsWorkloadConfig, MlAggWorkload, MlAggWorkloadConfig, Workload,
};
use clickinc_runtime::{EngineConfig, EngineHandle, ShardingMode, TenantHop, TrafficEngine};
use clickinc_synthesis::isolate_user_program;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

thread_local! {
    // const-initialised and without a destructor, so touching it from inside
    // the allocator neither allocates nor registers anything
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations of every thread of the process.
static ALL_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The tests of this binary run one at a time: the process-wide counter would
/// otherwise see a neighbour's allocations.
fn alone() -> MutexGuard<'static, ()> {
    static ALONE: Mutex<()> = Mutex::new(());
    ALONE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The system allocator plus a per-thread and a process-wide call counter.
struct Counting;

// SAFETY: both methods forward to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's guarantees; the
// counters are plain statistics and bumping them never allocates.
// (`alloc_zeroed` and `realloc` default to `alloc`, so they are counted too.)
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // a thread being torn down has no counter any more; nothing measured
        // runs there
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        ALL_ALLOCS.fetch_add(1, Ordering::Relaxed);
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
        snippets: vec![snippet.into()],
    };
    (vec![hop], instructions)
}

fn burst_of(workload: &mut dyn Workload, packets: usize) -> Vec<(u64, Packet)> {
    let jobs: Vec<_> = std::iter::from_fn(|| workload.next_packet())
        .take(packets)
        .map(|generated| (generated.vtime_ns, generated.packet))
        .collect();
    assert_eq!(jobs.len(), packets, "the workload covers every burst");
    jobs
}

/// Allocations the calling thread makes inside one `inject` of a pre-built
/// burst (the shard workers allocate on their own threads).
fn allocs_in_inject(handle: &EngineHandle, tenant: &Arc<str>, jobs: Vec<(u64, Packet)>) -> u64 {
    let packets = jobs.len();
    let before = ALLOCS.with(Cell::get);
    let outcome = handle.inject(tenant, jobs);
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!((outcome.admitted, outcome.shed), (packets, 0), "ample queues admit the burst");
    allocs
}

/// Allocations of every thread while one pre-built burst is served: from
/// `inject` until `flush` has seen the shard drain it.
fn allocs_serving(handle: &EngineHandle, tenant: &Arc<str>, jobs: Vec<(u64, Packet)>) -> u64 {
    let packets = jobs.len();
    let before = ALL_ALLOCS.load(Ordering::Relaxed);
    let outcome = handle.inject(tenant, jobs);
    handle.flush();
    let allocs = ALL_ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!((outcome.admitted, outcome.shed), (packets, 0), "ample queues admit the burst");
    allocs
}

/// The least of `rounds` servings of `packets`-packet bursts (the channels
/// allocate a block of slots every few dozen messages, on whichever burst
/// crosses the boundary).
fn least_allocs_serving(
    handle: &EngineHandle,
    tenant: &Arc<str>,
    workload: &mut dyn Workload,
    packets: usize,
    rounds: usize,
) -> u64 {
    (0..rounds)
        .map(|_| allocs_serving(handle, tenant, burst_of(workload, packets)))
        .min()
        .expect("at least one round")
}

#[test]
fn serving_a_burst_allocates_per_burst_not_per_packet() {
    let _alone = alone();
    const ROUNDS: usize = 4;
    let kvs = kvs_template("kvs", KvsParams::default());
    // 1 024 aggregator slots and fresh sequence numbers every burst: each
    // burst writes array cells no earlier one touched, and the dense store
    // grows nothing for them
    let mlagg = mlagg_template(
        "mlagg",
        MlAggParams { dims: 32, num_workers: 4, num_aggregators: 1024, ..Default::default() },
    );
    let engine = TrafficEngine::new(EngineConfig { shards: 1, ..Default::default() });
    let handle = engine.handle();
    handle.add_tenant("kvs", one_hop("kvs", 1, &kvs.source).0);
    handle.add_tenant("mlagg", one_hop("mlagg", 2, &mlagg.source).0);
    // a few cached keys, so both the bounce and the forward path are served
    for key in 0..8 {
        handle.populate_table(
            "kvs",
            "tor0",
            "kvs_cache",
            vec![Value::Int(key)],
            vec![Value::Int(key + 100)],
        );
    }
    let (kvs_name, mlagg_name): (Arc<str>, Arc<str>) = ("kvs".into(), "mlagg".into());
    let mut kvs_wl = KvsWorkload::new(KvsWorkloadConfig {
        tenant: "kvs".to_string(),
        user_id: 1,
        requests: (1 + 2 * ROUNDS) * 1024,
        ..Default::default()
    });
    let mut mlagg_wl = MlAggWorkload::new(MlAggWorkloadConfig {
        tenant: "mlagg".to_string(),
        user_id: 2,
        workers: 4,
        rounds: (128 + ROUNDS * (32 + 128)) / 4,
        dims: 32,
        ..Default::default()
    });

    // the first burst sizes the shard's queues
    allocs_serving(&handle, &kvs_name, burst_of(&mut kvs_wl, 1024));
    let small = least_allocs_serving(&handle, &kvs_name, &mut kvs_wl, 256, ROUNDS);
    let large = least_allocs_serving(&handle, &kvs_name, &mut kvs_wl, 1024, ROUNDS);
    assert_eq!(small, large, "a burst four times the size allocates the same");
    assert!(large as f64 <= 0.05 * 1024.0, "{large} allocations serving 1024 KVS requests");

    // the first burst materialises the arrays the program writes
    allocs_serving(&handle, &mlagg_name, burst_of(&mut mlagg_wl, 128));
    let small = least_allocs_serving(&handle, &mlagg_name, &mut mlagg_wl, 32, ROUNDS);
    let large = least_allocs_serving(&handle, &mlagg_name, &mut mlagg_wl, 128, ROUNDS);
    assert_eq!(small, large, "a burst four times the size allocates the same");
    assert!(large as f64 <= 0.05 * 128.0, "{large} allocations serving 128 gradients");

    let stats = engine.finish().telemetry;
    let kvs_stats = stats.tenant("kvs").expect("kvs served");
    assert!(kvs_stats.hits > 0 && kvs_stats.to_server > 0, "both KVS paths ran: {kvs_stats:?}");
    assert!(stats.tenant("mlagg").expect("mlagg served").hits > 0, "rounds completed");
}

#[test]
fn cloning_a_shaped_packet_is_one_allocation() {
    let _alone = alone();
    // 32 dimensions + op, seq, bitmap, overflow
    let packet = GradientShape::new("worker", "ps", 1, 32).packet(7, 2, &[5; 32]);
    assert_eq!(packet.inc.fields().count(), 36);
    let before = ALLOCS.with(Cell::get);
    let copy = packet.clone();
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!(copy, packet);
    assert_eq!(allocs, 1, "the slot vector, and nothing else");
}

#[test]
fn inject_cost_is_independent_of_program_size() {
    let _alone = alone();
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
    // on one shard a flow tenant's partition is the burst itself
    let by_key = ShardingMode::ByFlow { key_fields: vec!["key".to_string()] };
    handle.add_tenant_sharded("flow", one_hop("flow", 3, &kvs.source).0, by_key);
    let kvs_workload = |tenant: &str, user_id| {
        KvsWorkload::new(KvsWorkloadConfig {
            tenant: tenant.to_string(),
            user_id,
            requests: BURST * ROUNDS,
            ..Default::default()
        })
    };
    let (mut kvs_wl, mut flow_wl) = (kvs_workload("kvs", 1), kvs_workload("flow", 3));
    let mut mlagg_wl = MlAggWorkload::new(MlAggWorkloadConfig {
        tenant: "mlagg".to_string(),
        user_id: 2,
        workers: 4,
        rounds: BURST * ROUNDS / 4,
        dims: 32,
        ..Default::default()
    });
    let [kvs_name, mlagg_name, flow_name]: [Arc<str>; 3] =
        ["kvs".into(), "mlagg".into(), "flow".into()];

    let (mut kvs_allocs, mut mlagg_allocs, mut flow_allocs) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        let (kvs_jobs, mlagg_jobs) = (burst_of(&mut kvs_wl, BURST), burst_of(&mut mlagg_wl, BURST));
        let flow_jobs = burst_of(&mut flow_wl, BURST);
        kvs_allocs.push(allocs_in_inject(&handle, &kvs_name, kvs_jobs));
        mlagg_allocs.push(allocs_in_inject(&handle, &mlagg_name, mlagg_jobs));
        flow_allocs.push(allocs_in_inject(&handle, &flow_name, flow_jobs));
    }
    engine.finish();

    // the channel allocates a block of message slots every few dozen sends,
    // on whichever call crosses the boundary — the per-round minimum is the
    // cost of the call itself, and a whole admission forwards the caller's
    // buffer, so that cost is nothing in either mode
    let all = format!("{kvs_allocs:?} vs {mlagg_allocs:?} vs {flow_allocs:?}");
    for allocs in [&kvs_allocs, &mlagg_allocs, &flow_allocs] {
        assert_eq!(allocs.iter().min(), Some(&0), "a whole admission allocates: {all}");
    }
    // at a boundary, the channel's next block
    let worst = kvs_allocs.iter().chain(&mlagg_allocs).chain(&flow_allocs).max().copied();
    assert!(worst.unwrap_or(0) <= 1, "inject allocates beyond the channel's block: {all}");
}

#[test]
fn a_multi_shard_flow_partition_allocates_per_shard_not_per_packet() {
    let _alone = alone();
    let engine = TrafficEngine::new(EngineConfig { shards: 2, ..Default::default() });
    let handle = engine.handle();
    // a pass-through tenant: what is measured is the partition on the
    // injecting thread, not what the shards run
    let by_key = ShardingMode::ByFlow { key_fields: vec!["key".to_string()] };
    handle.add_tenant_sharded("wide", Vec::new(), by_key);
    let tenant: Arc<str> = "wide".into();
    let shape = PacketShape::new("client", "server", 1, [("key", Value::Bytes(Vec::new()))]);
    let mut next_key = 0u64;
    let mut burst = |packets: usize| -> Vec<(u64, Packet)> {
        (0..packets)
            .map(|_| {
                next_key += 1;
                let mut packet = shape.stamp();
                packet.inc.set("key", Value::Bytes(next_key.to_be_bytes().to_vec()));
                (next_key, packet)
            })
            .collect()
    };
    let mut least = |packets: usize| {
        (0..ROUNDS)
            .map(|_| {
                let jobs = burst(packets);
                allocs_in_inject(&handle, &tenant, jobs)
            })
            .min()
            .expect("at least one round")
    };
    let (small, large) = (least(BURST), least(4 * BURST));
    let stats = engine.finish().telemetry;

    assert_eq!(small, large, "a burst four times the size allocates more to partition");
    // the shard of each packet, each shard's share, the partition and a
    // buffer per shard
    assert!(large <= 5, "{large} allocations to partition {} packets", 4 * BURST);
    let per_shard = &stats.tenant("wide").expect("served").per_shard_packets;
    assert!(per_shard.iter().all(|&packets| packets > 0), "both shards served: {per_shard:?}");
}
