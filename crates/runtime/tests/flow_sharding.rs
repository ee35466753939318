//! Flow-level sharding and bounded-ingress guarantees:
//!
//! 1. **Flow-sharding invariance** — a flow-sharded tenant's merged counter
//!    totals (goodput, hit ratio, per-link bytes, every aggregate) at 1, 2
//!    and 8 shards equal the `ByTenant` totals, and the flow-partitioned
//!    stores re-merge to the same fingerprints — property-tested over random
//!    workload shapes.
//! 2. **Live add/remove** — a flow-sharded tenant quiesces on *every* shard:
//!    its objects vanish from every replica, post-removal traffic is shed
//!    silently, and co-resident tenants are bit-for-bit undisturbed.
//! 3. **Bounded ingress** — drop-tail sheds exactly the overrun of the
//!    per-shard bound; backpressure spends credits instead and sheds only
//!    when they run out.  Both are deterministic at the injection boundary,
//!    observable in the per-tenant telemetry, and the same for a `ByTenant`
//!    tenant as for a `ByFlow` tenant on one shard (whose burst is admitted
//!    unpartitioned).

use clickinc_device::DeviceModel;
use clickinc_frontend::compile_source;
use clickinc_ir::Value;
use clickinc_lang::templates::{kvs_template, KvsParams};
use clickinc_runtime::workload::{KvsWorkload, KvsWorkloadConfig};
use clickinc_runtime::{
    EngineConfig, OverloadPolicy, ShardingMode, TenantHop, TenantStats, TrafficEngine,
};
use clickinc_synthesis::isolate_user_program;
use proptest::prelude::*;
use std::collections::BTreeMap;

fn kvs_tenant(name: &str, id: i64, cache_depth: u32) -> Vec<TenantHop> {
    let t = kvs_template(name, KvsParams { cache_depth, ..Default::default() });
    let ir = compile_source(name, &t.source).unwrap();
    vec![TenantHop {
        device: "tor0".to_string(),
        model: DeviceModel::tofino(),
        snippets: vec![isolate_user_program(&ir, name, id).into()],
    }]
}

fn by_key() -> ShardingMode {
    ShardingMode::ByFlow { key_fields: vec!["key".to_string()] }
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

/// Run one KVS tenant to completion and return its stats plus the final
/// store fingerprints.
fn run_kvs(
    shards: usize,
    mode: ShardingMode,
    keys: usize,
    requests: usize,
    hot_keys: i64,
    seed: u64,
) -> (TenantStats, BTreeMap<String, u64>) {
    let engine = TrafficEngine::new(EngineConfig { shards, ..Default::default() });
    serve_kvs(engine, mode, keys, requests, hot_keys, seed)
}

/// [`run_kvs`] on an engine that may already have a history.
fn serve_kvs(
    engine: TrafficEngine,
    mode: ShardingMode,
    keys: usize,
    requests: usize,
    hot_keys: i64,
    seed: u64,
) -> (TenantStats, BTreeMap<String, u64>) {
    let handle = engine.handle();
    handle.add_tenant_sharded("hot", kvs_tenant("hot", 1, 4096), mode);
    populate_cache(&handle, "hot", hot_keys);
    let mut wl = KvsWorkload::new(KvsWorkloadConfig {
        tenant: "hot".to_string(),
        user_id: 1,
        keys,
        skew: 1.1,
        requests,
        rate_pps: 10_000_000.0,
        seed,
    });
    let report = handle.run_workload(&mut wl, usize::MAX, 48);
    assert_eq!(report.shed, 0, "ample default queues shed nothing");
    handle.flush();
    let outcome = engine.finish();
    let fingerprints = outcome.store_fingerprints();
    (outcome.telemetry.tenant("hot").expect("served").clone(), fingerprints)
}

/// The cross-mode comparable view: everything except the per-counter-block
/// vector (whose length tracks the engine sizing by design).
fn normalized(mut stats: TenantStats) -> TenantStats {
    stats.per_shard_packets.clear();
    stats
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The satellite invariant: the union of per-shard merged counters under
    /// `ByFlow` at 1/2/8 shards equals the `ByTenant` totals — goodput, hit
    /// ratio, per-link bytes and all — and the flow-partitioned stores
    /// re-merge to the `ByTenant` fingerprints.
    #[test]
    fn flow_sharded_totals_equal_by_tenant_totals(
        keys in 200usize..800,
        requests in 100usize..400,
        hot in 16i64..96,
        seed in 0u64..1000,
    ) {
        let (baseline, stores_baseline) =
            run_kvs(1, ShardingMode::ByTenant, keys, requests, hot, seed);
        prop_assert_eq!(baseline.packets, requests as u64);
        let baseline = normalized(baseline);
        for shards in [1usize, 2, 8] {
            let (stats, stores) = run_kvs(shards, by_key(), keys, requests, hot, seed);
            let stats = normalized(stats);
            prop_assert_eq!(&stats, &baseline, "ByFlow totals diverged at {} shard(s)", shards);
            prop_assert_eq!(&stores, &stores_baseline, "stores diverged at {} shard(s)", shards);
        }
    }
}

/// Run the same KVS tenant, but live-reshard it mid-workload following
/// `schedule`: the request stream is cut into `schedule.len() + 1` equal
/// phases with one mode transition applied between consecutive phases.
fn run_kvs_resharding(
    shards: usize,
    schedule: &[ShardingMode],
    keys: usize,
    requests: usize,
    hot_keys: i64,
    seed: u64,
) -> (TenantStats, BTreeMap<String, u64>) {
    let engine = TrafficEngine::new(EngineConfig { shards, ..Default::default() });
    let handle = engine.handle();
    handle.add_tenant("hot", kvs_tenant("hot", 1, 4096));
    populate_cache(&handle, "hot", hot_keys);
    let mut wl = KvsWorkload::new(KvsWorkloadConfig {
        tenant: "hot".to_string(),
        user_id: 1,
        keys,
        skew: 1.1,
        requests,
        rate_pps: 10_000_000.0,
        seed,
    });
    let chunk = (requests / (schedule.len() + 1)).max(1);
    for mode in schedule {
        let report = handle.run_workload(&mut wl, chunk, 48);
        assert_eq!(report.shed, 0, "ample default queues shed nothing");
        assert!(handle.reshard_tenant("hot", mode.clone()), "reshard applies live");
    }
    let report = handle.run_workload(&mut wl, usize::MAX, 48);
    assert_eq!(report.shed, 0, "ample default queues shed nothing");
    handle.flush();
    let outcome = engine.finish();
    let fingerprints = outcome.store_fingerprints();
    (outcome.telemetry.tenant("hot").expect("served").clone(), fingerprints)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The adaptive-runtime safety invariant: live-resharding
    /// `ByTenant → ByFlow` mid-workload — and optionally back again — yields
    /// bit-identical per-tenant totals and store fingerprints to never
    /// resharding at all.
    #[test]
    fn live_resharding_mid_workload_preserves_results_bit_identically(
        keys in 200usize..800,
        requests in 100usize..400,
        hot in 16i64..96,
        seed in 0u64..1000,
        shard_choice in 0usize..3,
        and_back in any::<bool>(),
    ) {
        let shards = [2usize, 4, 8][shard_choice];
        let (baseline, stores_baseline) =
            run_kvs(shards, ShardingMode::ByTenant, keys, requests, hot, seed);
        let baseline = normalized(baseline);
        let schedule: Vec<ShardingMode> = if and_back {
            vec![by_key(), ShardingMode::ByTenant]
        } else {
            vec![by_key()]
        };
        let (stats, stores) = run_kvs_resharding(shards, &schedule, keys, requests, hot, seed);
        prop_assert_eq!(
            normalized(stats), baseline,
            "resharded totals diverged (shards={}, and_back={})", shards, and_back
        );
        prop_assert_eq!(
            &stores, &stores_baseline,
            "resharded stores diverged (shards={}, and_back={})", shards, and_back
        );
    }
}

/// Run a `ByTenant` resident alongside a second tenant; in the disrupted
/// variant the neighbour is live-resharded twice mid-run.
fn run_resident_beside_resharding_neighbour(disrupt: bool) -> clickinc_runtime::TelemetryReport {
    let engine = TrafficEngine::new(EngineConfig { shards: 4, ..Default::default() });
    let handle = engine.handle();
    handle.add_tenant("resident", kvs_tenant("resident", 1, 2048));
    populate_cache(&handle, "resident", 64);
    handle.add_tenant("neighbour", kvs_tenant("neighbour", 2, 2048));
    populate_cache(&handle, "neighbour", 32);
    let mut resident = KvsWorkload::new(KvsWorkloadConfig {
        tenant: "resident".to_string(),
        user_id: 1,
        keys: 500,
        skew: 1.2,
        requests: 900,
        rate_pps: 10_000_000.0,
        seed: 5,
    });
    let mut neighbour = KvsWorkload::new(KvsWorkloadConfig {
        tenant: "neighbour".to_string(),
        user_id: 2,
        keys: 300,
        skew: 1.1,
        requests: 400,
        rate_pps: 10_000_000.0,
        seed: 6,
    });
    handle.run_workload(&mut resident, 300, 64);
    handle.run_workload(&mut neighbour, 200, 64);
    if disrupt {
        assert!(handle.reshard_tenant("neighbour", by_key()));
    }
    handle.run_workload(&mut neighbour, 100, 64);
    handle.run_workload(&mut resident, 300, 64);
    if disrupt {
        assert!(handle.reshard_tenant("neighbour", ShardingMode::ByTenant));
    }
    handle.run_workload(&mut neighbour, usize::MAX, 64);
    handle.run_workload(&mut resident, usize::MAX, 64);
    handle.flush();
    let outcome = engine.finish();
    outcome.telemetry
}

#[test]
fn live_resharding_leaves_co_resident_telemetry_undisturbed() {
    let disrupted = run_resident_beside_resharding_neighbour(true);
    let quiet = run_resident_beside_resharding_neighbour(false);
    assert_eq!(
        disrupted.tenant("resident"),
        quiet.tenant("resident"),
        "the co-resident tenant never noticed the neighbour's reshards"
    );
    // and the resharded tenant itself ends with the same totals either way
    let a = normalized(disrupted.tenant("neighbour").expect("served").clone());
    let b = normalized(quiet.tenant("neighbour").expect("served").clone());
    assert_eq!(a, b, "resharding changed the neighbour's own results");
}

/// A tenant's reshard replica baseline dies with the tenant: a successor
/// reusing the name (hence the isolation-prefixed object names) must not have
/// its predecessor's pre-reshard state deducted from its own at `finish`.
#[test]
fn a_removed_tenants_reshard_baseline_does_not_leak_into_its_successor() {
    let engine = TrafficEngine::new(EngineConfig { shards: 4, ..Default::default() });
    let handle = engine.handle();
    // life 1: serve pinned, live-reshard to ByFlow (seeding a baseline), leave
    handle.add_tenant("hot", kvs_tenant("hot", 1, 4096));
    let mut wl = KvsWorkload::new(KvsWorkloadConfig {
        tenant: "hot".to_string(),
        user_id: 1,
        keys: 512,
        skew: 1.1,
        requests: 300,
        rate_pps: 10_000_000.0,
        seed: 5,
    });
    assert_eq!(handle.run_workload(&mut wl, usize::MAX, 48).admitted, 300);
    assert!(handle.reshard_tenant("hot", by_key()), "reshard applies live");
    handle.remove_tenant("hot");
    // life 2 under the same name, against a run that never had a life 1
    let (_, after_first_life) = serve_kvs(engine, by_key(), 512, 300, 32, 6);
    let (_, second_life_only) = run_kvs(4, by_key(), 512, 300, 32, 6);
    assert_eq!(after_first_life, second_life_only, "the first life's state leaked");
}

#[test]
fn a_flow_sharded_hot_tenant_actually_uses_multiple_shards() {
    let (stats, _) = run_kvs(8, by_key(), 600, 400, 64, 11);
    let utilized = stats.per_shard_packets.iter().filter(|&&p| p > 0).count();
    assert_eq!(stats.per_shard_packets.len(), 8, "one counter block per shard");
    assert!(utilized > 1, "one hot tenant spreads past one shard: {:?}", stats.per_shard_packets);
    assert_eq!(stats.per_shard_packets.iter().sum::<u64>(), stats.packets);
}

/// Drive a co-resident `ByTenant` tenant in phases; in the middle phase
/// optionally add a flow-sharded tenant on the same device, run its traffic,
/// and remove it again.  Returns the final report and the flow-sharded
/// tenant's stats, read before its removal (a removed tenant leaves the
/// report).
fn run_phased(disrupt: bool) -> (clickinc_runtime::TelemetryReport, Option<TenantStats>) {
    let engine = TrafficEngine::new(EngineConfig { shards: 4, ..Default::default() });
    let handle = engine.handle();
    handle.add_tenant("resident", kvs_tenant("resident", 1, 2048));
    populate_cache(&handle, "resident", 64);
    let mut resident = KvsWorkload::new(KvsWorkloadConfig {
        tenant: "resident".to_string(),
        user_id: 1,
        keys: 500,
        skew: 1.2,
        requests: 900,
        rate_pps: 10_000_000.0,
        seed: 5,
    });

    handle.run_workload(&mut resident, 300, 64);

    let mut burst_stats = None;
    if disrupt {
        handle.add_tenant_sharded("burst", kvs_tenant("burst", 2, 2048), by_key());
        populate_cache(&handle, "burst", 32);
        let mut burst = KvsWorkload::new(KvsWorkloadConfig {
            tenant: "burst".to_string(),
            user_id: 2,
            keys: 300,
            skew: 1.1,
            requests: 400,
            rate_pps: 10_000_000.0,
            seed: 6,
        });
        let report = handle.run_workload(&mut burst, usize::MAX, 64);
        assert_eq!(report.admitted, 400);
        handle.flush();
        burst_stats = handle.telemetry().tenant("burst").cloned();
        handle.remove_tenant("burst");
        // traffic injected after the removal is shed silently on every shard
        let mut late = KvsWorkload::new(KvsWorkloadConfig {
            tenant: "burst".to_string(),
            user_id: 2,
            keys: 300,
            skew: 1.1,
            requests: 100,
            rate_pps: 10_000_000.0,
            seed: 7,
        });
        handle.run_workload(&mut late, usize::MAX, 64);
    }

    handle.run_workload(&mut resident, usize::MAX, 64);
    handle.flush();
    let outcome = engine.finish();
    if disrupt {
        // the flow-sharded tenant's objects are gone from every shard replica
        for store in outcome.stores.values() {
            assert!(!store.contains("burst_cache"), "burst state must quiesce on every shard");
        }
        assert!(outcome.telemetry.tenant("burst").is_none(), "a removed tenant leaves the report");
    }
    (outcome.telemetry, burst_stats)
}

#[test]
fn flow_sharded_tenants_quiesce_on_every_shard_without_disturbing_residents() {
    let (disrupted, burst) = run_phased(true);
    let (quiet, _) = run_phased(false);

    let burst = burst.expect("burst ran");
    assert_eq!(burst.packets, 400, "pre-removal traffic was served");
    assert!(burst.hits > 0, "the flow-sharded tenant hit its cache");
    let utilized = burst.per_shard_packets.iter().filter(|&&p| p > 0).count();
    assert!(utilized > 1, "burst really spread across shards");

    assert_eq!(
        disrupted.tenant("resident"),
        quiet.tenant("resident"),
        "the co-resident tenant never noticed the flow-sharded add/remove"
    );
}

/// One `inject` call of 100 packets for a pass-through tenant (no
/// hops: packets complete at the server) registered in `mode` on a one-shard
/// engine with a 10-deep queue.  Returns the call's (generated, admitted,
/// shed) counts and the tenant's stats once the shard drained.
///
/// Then checks that both gauges admission reads — the shard's depth and the
/// tenant's in-flight count, whose budget is the queue's depth — are back at
/// 0: a second call of exactly 10 packets is admitted whole, without a wait.
fn overrun(mode: ShardingMode, overload: OverloadPolicy) -> ((usize, usize, usize), TenantStats) {
    let engine = TrafficEngine::new(EngineConfig { shards: 1, queue_capacity: 10, overload });
    let handle = engine.handle();
    handle.add_tenant_sharded("t", Vec::new(), mode);
    let mut wl = KvsWorkload::new(KvsWorkloadConfig {
        tenant: "t".to_string(),
        user_id: 1,
        requests: 110,
        ..Default::default()
    });
    let report = handle.run_workload(&mut wl, 100, 100);
    handle.flush();
    let stats = handle.telemetry().tenant("t").expect("served").clone();
    let refill = handle.run_workload(&mut wl, 10, 10);
    assert_eq!((refill.admitted, refill.shed), (10, 0), "the gauges drained back to 0");
    handle.flush();
    let after = engine.finish().telemetry.tenant("t").expect("served").clone();
    assert_eq!(after.backpressure_waits, stats.backpressure_waits, "the refill never waited");
    ((report.generated, report.admitted, report.shed), stats)
}

/// Both routes to one shard: a `ByTenant` tenant, and a `ByFlow` tenant on a
/// one-shard engine, whose partition is the burst itself.
fn one_shard_modes() -> [ShardingMode; 2] {
    [ShardingMode::ByTenant, by_key()]
}

#[test]
fn droptail_sheds_exactly_the_overrun_at_the_injection_boundary() {
    let runs = one_shard_modes().map(|mode| overrun(mode, OverloadPolicy::DropTail));
    for (counts, stats) in &runs {
        // one inject call of 100 packets against an empty 10-deep queue: the
        // first 10 are admitted, the rest shed — deterministically
        assert_eq!(*counts, (100, 10, 90));
        assert_eq!(stats.packets, 10, "only admitted packets count as injected");
        assert_eq!(stats.completed, 10);
        assert_eq!(stats.shed_packets, 90);
        assert_eq!(stats.to_server, 10);
        assert_eq!(stats.backpressure_waits, 0);
    }
    assert_eq!(runs[0].1, runs[1].1, "the two routes shed alike");
}

#[test]
fn backpressure_spends_credits_then_sheds_the_rest() {
    let runs =
        one_shard_modes().map(|mode| overrun(mode, OverloadPolicy::Backpressure { credits: 3 }));
    for (counts, stats) in &runs {
        // one inject call of 100 packets, 10 admitted per credit cycle (each
        // wait drains the shard fully): 10 + 3×10 admitted, 60 shed
        assert_eq!(*counts, (100, 40, 60));
        assert_eq!(stats.packets, 40);
        assert_eq!(stats.shed_packets, 60);
        assert_eq!(stats.backpressure_waits, 3, "every credit was spent");
    }
    assert_eq!(runs[0].1, runs[1].1, "the two routes shed alike");
    // a generous credit budget admits everything
    for mode in one_shard_modes() {
        let (counts, stats) = overrun(mode, OverloadPolicy::Backpressure { credits: 16 });
        assert_eq!(counts, (100, 100, 0));
        assert_eq!(stats.backpressure_waits, 9, "one wait per further 10 packets");
    }
}
