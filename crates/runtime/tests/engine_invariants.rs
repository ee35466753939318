//! The two load-bearing guarantees of the runtime:
//!
//! 1. **Shard-count invariance** — the engine is an optimization, not a
//!    semantics change: per-tenant telemetry and the final (merged) object
//!    stores are identical for 1, 2 and 8 shards.
//! 2. **Zero cross-tenant disruption** — adding and removing a tenant while
//!    other tenants' traffic flows leaves those tenants' telemetry
//!    *bit-for-bit* identical to a run where the reconfiguration never
//!    happened.

use clickinc_device::DeviceModel;
use clickinc_frontend::compile_source;
use clickinc_ir::Value;
use clickinc_lang::templates::{
    count_min_sketch, kvs_template, mlagg_template, KvsParams, MlAggParams,
};
use clickinc_runtime::workload::{
    KvsWorkload, KvsWorkloadConfig, MixedWorkload, MlAggWorkload, MlAggWorkloadConfig, Workload,
};
use clickinc_runtime::{
    DeviceHealth, EngineConfig, EngineError, OverloadPolicy, TelemetryReport, TenantHop,
    TrafficEngine,
};
use clickinc_synthesis::isolate_user_program;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A KVS tenant on the shared ToR: isolated program (renamed tables, user-id
/// guards) on device `tor0`.
fn kvs_tenant(name: &str, id: i64) -> Vec<TenantHop> {
    let t = kvs_template(name, KvsParams { cache_depth: 1024, ..Default::default() });
    let ir = compile_source(name, &t.source).unwrap();
    vec![TenantHop {
        device: "tor0".to_string(),
        model: DeviceModel::tofino(),
        snippets: vec![isolate_user_program(&ir, name, id).into()],
    }]
}

/// An MLAgg tenant whose path crosses the shared ToR (no snippet there) and
/// aggregates on `agg0`.
fn mlagg_tenant(name: &str, id: i64, dims: u32, workers: u32) -> Vec<TenantHop> {
    let t = mlagg_template(
        name,
        MlAggParams { dims, num_workers: workers, num_aggregators: 1024, ..Default::default() },
    );
    let ir = compile_source(name, &t.source).unwrap();
    vec![
        TenantHop { device: "tor0".to_string(), model: DeviceModel::tofino(), snippets: vec![] },
        TenantHop {
            device: "agg0".to_string(),
            model: DeviceModel::tofino(),
            snippets: vec![isolate_user_program(&ir, name, id).into()],
        },
    ]
}

fn kvs_workload(name: &str, id: i64, requests: usize, seed: u64) -> KvsWorkload {
    KvsWorkload::new(KvsWorkloadConfig {
        tenant: name.to_string(),
        user_id: id,
        keys: 500,
        skew: 1.2,
        requests,
        rate_pps: 10_000_000.0,
        seed,
    })
}

fn populate_cache(handle: &clickinc_runtime::EngineHandle, name: &str, hot_keys: i64) {
    for key in 0..hot_keys {
        handle.populate_table(
            name,
            "tor0",
            &format!("{name}_cache"),
            vec![Value::Int(key)],
            vec![Value::Int(key * 1000 + 7)],
        );
    }
}

fn run_mixed(shards: usize) -> (TelemetryReport, BTreeMap<String, u64>) {
    let engine = TrafficEngine::new(EngineConfig { shards, ..Default::default() });
    let handle = engine.handle();
    handle.add_tenant("alpha", kvs_tenant("alpha", 1));
    handle.add_tenant("beta", kvs_tenant("beta", 2));
    handle.add_tenant("gamma", mlagg_tenant("gamma", 3, 8, 4));
    populate_cache(&handle, "alpha", 64);
    populate_cache(&handle, "beta", 64);

    let mut mixed = MixedWorkload::new(vec![
        Box::new(kvs_workload("alpha", 1, 1200, 11)) as Box<dyn Workload>,
        Box::new(kvs_workload("beta", 2, 1200, 22)),
        Box::new(MlAggWorkload::new(MlAggWorkloadConfig {
            tenant: "gamma".to_string(),
            user_id: 3,
            workers: 4,
            rounds: 150,
            dims: 8,
            sparsity: 0.5,
            block_size: 4,
            rate_pps: 10_000_000.0,
            seed: 33,
        })),
    ]);
    handle.run_workload(&mut mixed, usize::MAX, 32);
    handle.flush();
    let outcome = engine.finish();
    let fingerprints = outcome.store_fingerprints();
    (outcome.telemetry, fingerprints)
}

#[test]
fn per_tenant_results_are_invariant_in_the_shard_count() {
    let (stats1, stores1) = run_mixed(1);
    let (stats2, stores2) = run_mixed(2);
    let (stats8, stores8) = run_mixed(8);

    // the workload actually exercised every mechanism
    let alpha = stats1.tenant("alpha").expect("alpha served");
    assert_eq!(alpha.packets, 1200);
    assert_eq!(alpha.completed, 1200);
    assert!(alpha.hit_ratio > 0.3, "skewed stream hits the cache: {}", alpha.hit_ratio);
    assert!(alpha.goodput_gbps > 0.0);
    assert!(alpha.latency_p99_ns >= alpha.latency_p50_ns);
    let gamma = stats1.tenant("gamma").expect("gamma served");
    assert!(gamma.hits > 0, "completed aggregations bounce back");
    assert!(gamma.drops > 0, "partial aggregations are absorbed");
    assert_eq!(gamma.link_bytes.len(), 3, "two hops + server link");

    // identical per-tenant aggregate counters, bit for bit
    assert_eq!(stats1, stats2);
    assert_eq!(stats1, stats8);
    // identical final object stores (merged across shards)
    assert_eq!(stores1, stores2);
    assert_eq!(stores1, stores8);
}

/// Drive alpha and beta in three phases; in the middle phase, optionally add
/// a third tenant (co-resident on the same shared device), run its traffic,
/// and remove it again.
fn run_phased(shards: usize, disrupt: bool) -> TelemetryReport {
    let engine = TrafficEngine::new(EngineConfig { shards, ..Default::default() });
    let handle = engine.handle();
    handle.add_tenant("alpha", kvs_tenant("alpha", 1));
    handle.add_tenant("beta", kvs_tenant("beta", 2));
    populate_cache(&handle, "alpha", 64);
    populate_cache(&handle, "beta", 64);

    let mut alpha = kvs_workload("alpha", 1, 1500, 11);
    let mut beta = kvs_workload("beta", 2, 1500, 22);

    handle.run_workload(&mut alpha, 600, 64);
    handle.run_workload(&mut beta, 600, 64);

    if disrupt {
        // gamma's aggregation program lands on the SAME device the KVS
        // tenants share (tor0): maximal co-residence
        let t = mlagg_template(
            "gamma",
            MlAggParams { dims: 8, num_workers: 4, num_aggregators: 512, ..Default::default() },
        );
        let ir = compile_source("gamma", &t.source).unwrap();
        handle.add_tenant(
            "gamma",
            vec![TenantHop {
                device: "tor0".to_string(),
                model: DeviceModel::tofino(),
                snippets: vec![isolate_user_program(&ir, "gamma", 3).into()],
            }],
        );
        let mut gamma = MlAggWorkload::new(MlAggWorkloadConfig {
            tenant: "gamma".to_string(),
            user_id: 3,
            workers: 4,
            rounds: 100,
            dims: 8,
            rate_pps: 10_000_000.0,
            seed: 33,
            ..Default::default()
        });
        handle.run_workload(&mut gamma, usize::MAX, 64);
    }

    handle.run_workload(&mut alpha, 600, 64);
    handle.run_workload(&mut beta, 600, 64);

    if disrupt {
        handle.remove_tenant("gamma");
    }

    handle.run_workload(&mut alpha, usize::MAX, 64);
    handle.run_workload(&mut beta, usize::MAX, 64);
    handle.flush();
    engine.finish().telemetry
}

#[test]
fn degenerate_engine_configs_are_rejected_or_clamped() {
    // `try_new` returns a typed error for sizing knobs below the minimum…
    let zero_shards = TrafficEngine::try_new(EngineConfig { shards: 0, ..Default::default() });
    assert!(matches!(
        zero_shards.map(|_| ()).unwrap_err(),
        EngineError::InvalidConfig { field: "shards", value: 0, minimum: 1 }
    ));
    let zero_queue =
        TrafficEngine::try_new(EngineConfig { queue_capacity: 0, ..Default::default() });
    assert!(matches!(
        zero_queue.map(|_| ()).unwrap_err(),
        EngineError::InvalidConfig { field: "queue_capacity", value: 0, minimum: 1 }
    ));
    let zero_credits = TrafficEngine::try_new(EngineConfig {
        overload: OverloadPolicy::Backpressure { credits: 0 },
        ..Default::default()
    });
    assert!(matches!(
        zero_credits.map(|_| ()).unwrap_err(),
        EngineError::InvalidConfig { field: "overload.credits", value: 0, minimum: 1 }
    ));
    assert!(EngineConfig::default().validate().is_ok());

    // …while `new` documents clamping to 1 and still serves traffic.
    let engine = TrafficEngine::new(EngineConfig { shards: 0, ..Default::default() });
    assert_eq!(engine.shards(), 1);
    let handle = engine.handle();
    handle.add_tenant("alpha", kvs_tenant("alpha", 1));
    populate_cache(&handle, "alpha", 16);
    let mut wl = kvs_workload("alpha", 1, 100, 11);
    handle.run_workload(&mut wl, usize::MAX, 8);
    handle.flush();
    let outcome = engine.finish();
    assert_eq!(outcome.telemetry.tenant("alpha").unwrap().completed, 100);
}

#[test]
fn live_add_and_remove_cause_zero_cross_tenant_disruption() {
    for shards in [1usize, 2, 4] {
        let disrupted = run_phased(shards, true);
        let quiet = run_phased(shards, false);

        // the mid-run tenant really carried traffic and completed work…
        let gamma = disrupted.tenant("gamma").expect("gamma ran");
        assert_eq!(gamma.packets, 400);
        assert!(gamma.hits > 0, "aggregations completed in-network");

        // …and the co-resident tenants never noticed: goodput, hit ratio,
        // latency percentiles, per-link bytes — all bit-for-bit identical
        for tenant in ["alpha", "beta"] {
            assert_eq!(
                disrupted.tenant(tenant),
                quiet.tenant(tenant),
                "tenant {tenant} was disturbed at {shards} shard(s)"
            );
        }
        assert!(disrupted.tenant("alpha").unwrap().hit_ratio > 0.3);
    }
}

/// Serve one seeded stream to a two-hop tenant — `delta` counts every key in
/// a sketch on `tor0` and forwards, its cache on `agg0` bounces the hits and
/// lets the misses through to the server — beside the one-hop `alpha`, whose
/// cache sits on the shared `tor0`.  Each tenant's stream enters as bursts of
/// `cut` packets: the first half while `tor0` is flaky, the second while
/// `agg0` is degraded — and `delta` is re-placed between the two, so its
/// second half lands in a counter block of its own and dates its recovery.
fn run_cut(shards: usize, cut: usize) -> (TelemetryReport, BTreeMap<String, u64>) {
    let engine = TrafficEngine::new(EngineConfig { shards, ..Default::default() });
    let handle = engine.handle();
    let cache = kvs_template("delta", KvsParams { cache_depth: 1024, ..Default::default() });
    let hop = |device: &str, source: &str| TenantHop {
        device: device.to_string(),
        model: DeviceModel::tofino(),
        snippets: vec![
            isolate_user_program(&compile_source("delta", source).unwrap(), "delta", 4).into()
        ],
    };
    let place_delta = || {
        let sketch = count_min_sketch("delta", 2, 64).source;
        handle.add_tenant("delta", vec![hop("tor0", &sketch), hop("agg0", &cache.source)]);
        for key in 0..64 {
            let (key, value) = (vec![Value::Int(key)], vec![Value::Int(key * 1000 + 7)]);
            handle.populate_table("delta", "agg0", "delta_cache", key, value);
        }
    };
    place_delta();
    handle.add_tenant("alpha", kvs_tenant("alpha", 1));
    populate_cache(&handle, "alpha", 64);

    let streams = [("delta", 4, 44), ("alpha", 1, 11)].map(|(tenant, id, seed)| {
        let mut workload = kvs_workload(tenant, id, 600, seed);
        let stream: Vec<_> = std::iter::from_fn(|| workload.next_packet())
            .map(|generated| (generated.vtime_ns, generated.packet))
            .collect();
        (Arc::<str>::from(tenant), stream)
    });
    let faults = [
        ("tor0", DeviceHealth::Flaky { drop_prob: 0.25 }),
        ("agg0", DeviceHealth::Degraded { factor: 3.0 }),
    ];
    for (phase, (device, health)) in faults.into_iter().enumerate() {
        handle.set_device_health(device, health);
        for (tenant, stream) in &streams {
            for burst in stream[phase * 300..(phase + 1) * 300].chunks(cut) {
                let outcome = handle.inject(tenant, burst.to_vec());
                assert_eq!((outcome.admitted, outcome.shed), (burst.len(), 0));
            }
        }
        handle.set_device_health(device, DeviceHealth::Up);
        if phase == 0 {
            handle.remove_tenant("delta");
            place_delta();
        }
    }
    handle.flush();
    let outcome = engine.finish();
    let fingerprints = outcome.store_fingerprints();
    (outcome.telemetry, fingerprints)
}

/// A shard runs every packet to completion in stream order and publishes a
/// burst's counters as sums, a maximum and minima, so how a stream is cut
/// into injects is invisible: one burst per phase, bursts of 32, of 7 and
/// single packets leave the same per-tenant stats — latency percentiles off
/// the histogram, goodput off the virtual clock's end, the fault window and
/// the recovery off its start, link bytes — and stores, at any shard count.
#[test]
fn results_do_not_depend_on_how_a_stream_is_cut_into_injects() {
    let (whole, whole_stores) = run_cut(1, usize::MAX);
    let delta = whole.tenant("delta").expect("delta served");
    assert_eq!(delta.packets, 600);
    assert_eq!(delta.link_bytes.len(), 3, "two hops + server link");
    assert!(delta.fault_lost_packets > 0, "the flaky first hop lost some");
    assert!(delta.hits > 0, "the second hop bounces cached keys");
    assert!(delta.to_server > 0, "misses cross both hops");
    assert_eq!(delta.hits + delta.to_server + delta.fault_lost_packets, 600);
    assert!(delta.link_bytes[2] < delta.link_bytes[1], "bounced packets never reach the server");
    assert!(delta.fault_vtime_ns > 0 && delta.recovery_vtime_ns > delta.fault_vtime_ns);
    assert_eq!(delta.time_to_recovery_ns, delta.recovery_vtime_ns - delta.fault_vtime_ns);
    assert!(whole.tenant("alpha").expect("alpha served").fault_lost_packets > 0);

    for shards in [1usize, 4] {
        for cut in [usize::MAX, 32, 7, 1] {
            let (stats, stores) = run_cut(shards, cut);
            for tenant in ["delta", "alpha"] {
                // `TenantStats` equality covers every counter, `link_bytes`
                // included, and skips only the wall-clock fields
                assert_eq!(
                    stats.tenant(tenant),
                    whole.tenant(tenant),
                    "{tenant} at {shards} shard(s), bursts of {cut}"
                );
            }
            assert_eq!(stores, whole_stores, "{shards} shard(s), bursts of {cut}");
        }
    }
}

/// Fig. 7's sparse-block deletion, end to end: the first hop removes two
/// gradient fields (`hdr.x = None`), the second re-adds one, removes another
/// and adds one the packets never carried.  The wire size a packet carries is
/// a recount of its live fields after every hop on both execution tiers, and
/// the shard's link and payload bytes are those sizes summed.
#[test]
fn deleted_and_re_added_header_fields_are_priced_at_their_recount() {
    use clickinc_emulator::packet::gradient_packet;
    use clickinc_emulator::{DevicePlane, ExecMode, Packet};
    use clickinc_ir::{Operand, ProgramBuilder};

    let mut prune = ProgramBuilder::new("sparse");
    prune.set_header("data_1", Operand::Const(Value::None));
    prune.set_header("data_2", Operand::Const(Value::None));
    prune.set_header("data_2", Operand::hdr("data_3"));
    prune.set_header("data_2", Operand::Const(Value::None));
    let mut refill = ProgramBuilder::new("sparse");
    refill.set_header("data_1", Operand::int(5));
    refill.set_header("seq", Operand::Const(Value::None));
    refill.set_header("extra", Operand::hdr("bitmap"));
    let programs = [prune.build().unwrap(), refill.build().unwrap()].map(Arc::new);

    let recount = |p: &Packet| {
        Packet::BASE_BYTES
            + p.inc.fields().filter(|(_, v)| !v.is_none()).count() * Packet::BYTES_PER_FIELD
    };
    let stream: Vec<(u64, Packet)> = (0..40u64)
        .map(|i| (i * 100, gradient_packet("w", "ps", 0, i as i64, 0, 4, &[1, 2, 3, 4])))
        .collect();
    // op, seq, bitmap, overflow and four data fields enter; six cross the
    // middle link; data_1 and extra come back and seq goes: seven reach the
    // server
    let sizes = [8usize, 6, 7].map(|live| Packet::BASE_BYTES + 4 * live);
    for mode in [ExecMode::Compiled, ExecMode::Interpreted] {
        let mut planes = programs.clone().map(|program| {
            let mut plane = DevicePlane::new("sw", DeviceModel::tofino());
            plane.install(program);
            plane.set_exec_mode(mode);
            plane
        });
        for (_, packet) in &stream {
            let mut packet = packet.clone();
            assert_eq!((packet.wire_bytes(), recount(&packet)), (sizes[0], sizes[0]));
            for (plane, size) in planes.iter_mut().zip(&sizes[1..]) {
                plane.process(&mut packet);
                assert_eq!((packet.wire_bytes(), recount(&packet)), (*size, *size), "{mode:?}");
            }
        }
    }

    let engine = TrafficEngine::new(EngineConfig { shards: 1, ..Default::default() });
    let handle = engine.handle();
    let [prune, refill] = programs;
    let hop = |device: &str, program| TenantHop {
        device: device.to_string(),
        model: DeviceModel::tofino(),
        snippets: vec![program],
    };
    handle.add_tenant("sparse", vec![hop("tor0", prune), hop("agg0", refill)]);
    for burst in stream.chunks(16) {
        handle.inject(&Arc::from("sparse"), burst.to_vec());
    }
    handle.flush();
    let telemetry = engine.finish().telemetry;
    let stats = telemetry.tenant("sparse").expect("sparse served");
    assert_eq!(stats.to_server, 40);
    assert_eq!(stats.link_bytes, sizes.map(|size| 40 * size as u64));
    assert_eq!(stats.server_bytes, 40 * sizes[2] as u64);
    assert_eq!(stats.payload_bytes, 40 * 4 * 7);
}
