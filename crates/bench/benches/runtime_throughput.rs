//! runtime_throughput — packets/sec through the sharded traffic engine,
//! plus the placement memo's warm-vs-cold solve latency.
//!
//! **Serving section.**  Eight co-resident MLAgg tenants share one ToR
//! device.  With one shard, every packet walks all eight tenants' guarded
//! instruction streams on a single worker; with N shards the tenants (and
//! their state) are partitioned, so each worker scans only its own
//! residents — the architectural win of tenant sharding, on top of thread
//! parallelism on multi-core hosts.
//!
//! **Flow-sharded section.**  One *hot* KVS tenant co-resident with the
//! eight MLAgg tenants is spread across every shard by the stable flow hash
//! of its request key (`ShardingMode::ByFlow`) — the first configuration in
//! which a single tenant scales past one core.  The 1-shard baseline walks
//! every co-resident's snippets for every hot packet; flow-sharding both
//! separates the co-residents and parallelizes the hot tenant itself.  A
//! saturation probe with a deliberately small bounded queue records the
//! drop-tail shed rate under overload.
//!
//! Both sharding sections are pinned to `ExecMode::Interpreted` and install
//! the raw isolated IR (no install-time optimizer) so their speedups measure
//! sharding against the same per-packet cost model as every pre-compiler
//! history row — guard hoisting alone already makes a co-resident scan O(1),
//! which would flatten the very effect these sections track.  The exec-tier
//! section (below) is what measures the compiled pipeline itself:
//! interpreter vs register VM over identical optimized programs.
//!
//! **Adaptive section.**  The same hot KVS tenant starts *pinned* to one
//! shard against deliberately small drop-tail queues; the surge sheds most
//! of its offered load.  One [`AdaptiveController`] step reads the epoch's
//! congestion telemetry and live-reshards the tenant `ByTenant -> ByFlow`,
//! after which the identical surge lands on every shard and the admit ratio
//! recovers.  A static control run (loop off) prices the no-adaptation
//! baseline the recovery is compared against.
//!
//! **Warm-start / churn section.**  The incremental-placement showcase:
//! dry-run plans over the churn scenario's shape pool price the segment
//! memo (warm, the default) against the unmemoized cold DP (memo disabled)
//! — co-tenant programs reusing a template pool are exactly the access
//! pattern the memo is built for, and the warm-over-cold median-latency
//! quotient is the gated number.  Then the full arrival/departure churn
//! scenario runs against the serving engine: a capped resident set, the
//! retry queue admitting refused arrivals on departures' auto-drains, and
//! per-admission end-to-end latency percentiles.
//!
//! Results are *appended* to the history in `BENCH_runtime.json` so the
//! repo's performance trajectory accumulates across PRs.  Environment
//! knobs (for the CI bench-trend step):
//!
//! * `RUNTIME_BENCH_SMOKE=1` — reduced configuration (fewer rounds, 1 vs 4
//!   shards/threads only) suitable for a CI smoke run;
//! * `RUNTIME_BENCH_MIN_SPEEDUP=<x>` — exit non-zero if the best N-shard
//!   throughput (tenant-sharded *or* flow-sharded) regresses below `x`× its
//!   1-shard baseline;
//! * `RUNTIME_BENCH_MIN_ADAPT_RECOVERY=<x>` — exit non-zero if the adaptive
//!   loop's post-reshard admit ratio falls below `x`× the static control's
//!   (same traffic, loop off).  The post-phase ratios are compared
//!   absolutely: the surge-phase denominator is noisy near zero under
//!   drop-tail (admits depend on how much the workers drain mid-burst), so
//!   it is reported but never gated;
//! * `RUNTIME_BENCH_MIN_FAILOVER_RECOVERY=<x>` — exit non-zero if the
//!   failover scenario's post-restore admit ratio falls below `x`× its
//!   pre-fault baseline (backpressure admission makes both phases exact).
//!   The co-resident blast-radius invariant — bystander stats and store
//!   fingerprints bit-identical to a fault-free control — is asserted
//!   unconditionally;
//! * `RUNTIME_BENCH_MIN_PLANNER_SPEEDUP=<x>` — exit non-zero if the warm
//!   (memoized) placement solve falls below `x`× the cold unmemoized DP at
//!   the median over the churn shape pool.

use clickinc::{ClickIncService, ServiceRequest};
use clickinc_apps::churn::{run_churn_scenario, ChurnConfig};
use clickinc_apps::failover::{serve_failover_scenario, FailoverServingConfig};
use clickinc_device::DeviceModel;
use clickinc_frontend::compile_source;
use clickinc_ir::Value;
use clickinc_ir::{DiagnosticSet, Optimizer};
use clickinc_lang::templates::{
    count_min_sketch, kvs_template, mlagg_template, KvsParams, MlAggParams,
};
use clickinc_runtime::workload::{
    KvsWorkload, KvsWorkloadConfig, MixedWorkload, MlAggWorkload, MlAggWorkloadConfig, Workload,
};
use clickinc_runtime::{
    AdaptAction, AdaptiveController, AdaptivePolicy, EngineConfig, ExecMode, OverloadPolicy,
    ShardingMode, TenantHop, TrafficEngine, WorkloadReport,
};
use clickinc_synthesis::isolate_user_program;
use clickinc_topology::Topology;
use serde::{Deserialize, Serialize};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

const TENANTS: usize = 8;
const WORKERS: usize = 4;
const DIMS: u32 = 16;
const HISTORY_CAP: usize = 100;

#[derive(Serialize, Deserialize)]
struct ShardResult {
    shards: usize,
    elapsed_ms: f64,
    packets_per_sec: f64,
}

#[derive(Serialize, Deserialize)]
struct ExecResult {
    mode: String,
    shards: usize,
    elapsed_ms: f64,
    packets_per_sec: f64,
}

/// One bench invocation: a row of the accumulated history.
#[derive(Serialize, Deserialize)]
struct RunEntry {
    #[serde(default)]
    unix_time_s: u64,
    #[serde(default)]
    smoke: bool,
    tenants: usize,
    packets: usize,
    results: Vec<ShardResult>,
    speedup_best_vs_one_shard: f64,
    /// Flow-sharded hot-tenant section (absent in pre-flow-sharding rows).
    #[serde(default)]
    flow: Vec<ShardResult>,
    #[serde(default)]
    flow_speedup_best_vs_one_shard: f64,
    /// Shards the hot tenant utilized in the best flow-sharded run.
    #[serde(default)]
    flow_shards_utilized: usize,
    /// Drop-tail shed fraction in the bounded-queue saturation probe.
    #[serde(default)]
    overload_drop_rate: f64,
    /// Compiled-vs-interpreted execution-tier section (absent in pre-VM
    /// history rows).
    #[serde(default)]
    exec: Vec<ExecResult>,
    #[serde(default)]
    compile_speedup_vs_interp: f64,
    /// Adaptive-runtime section (absent in pre-adaptive history rows):
    /// the loop-on post-reshard admit ratio over the loop-off one.
    #[serde(default)]
    adapt_recovery: f64,
    /// Post-phase admit ratios behind the recovery quotient.
    #[serde(default)]
    adapt_post_admit: f64,
    #[serde(default)]
    adapt_static_post_admit: f64,
    /// Failover section (absent in pre-failover history rows): the victim's
    /// post-restore admits over its pre-fault admits.
    #[serde(default)]
    failover_recovery: f64,
    /// Packets the victim lost at the dead device in the fault window.
    #[serde(default)]
    failover_fault_lost: u64,
    /// Whether the failover re-placed the victim immediately (vs parking it
    /// `Degraded` until the restore).
    #[serde(default)]
    failover_recovered_immediately: bool,
    /// Warm-start section (absent in pre-warm-start history rows): median
    /// per-plan placement solve with the segment memo on vs off, and their
    /// quotient — the gated incremental-placement speedup.
    #[serde(default)]
    placement_warm_p50_ms: f64,
    #[serde(default)]
    placement_cold_p50_ms: f64,
    #[serde(default)]
    placement_warm_speedup: f64,
    /// Churn section: the arrival/departure scenario against the engine.
    #[serde(default)]
    churn_tenants: usize,
    #[serde(default)]
    churn_admit_p50_ms: f64,
    #[serde(default)]
    churn_admit_p99_ms: f64,
    #[serde(default)]
    churn_admitted_from_queue: usize,
    #[serde(default)]
    churn_solve_cache_hit_ratio: f64,
    #[serde(default)]
    churn_packets_served: u64,
}

#[derive(Serialize, Deserialize)]
struct BenchHistory {
    bench: String,
    history: Vec<RunEntry>,
}

fn tenant_hops(name: &str, id: i64, optimized: bool) -> Vec<TenantHop> {
    let t = mlagg_template(
        name,
        MlAggParams {
            dims: DIMS,
            num_workers: WORKERS as u32,
            num_aggregators: 4096,
            ..Default::default()
        },
    );
    let ir = compile_source(name, &t.source).expect("template compiles");
    let isolated = isolate_user_program(&ir, name, id);
    let snippet = if optimized { optimize(name, isolated) } else { isolated };
    vec![TenantHop {
        device: "tor0".to_string(),
        model: DeviceModel::tofino(),
        snippets: vec![snippet],
    }]
}

/// The controller's install-time optimization (constant folding, dead-value
/// elimination, guard hoisting).  The exec-tier section installs optimized
/// IR (the same IR a deploy installs); the sharding sections install the raw
/// isolated IR — guard hoisting turns a non-matching co-resident scan into a
/// single precondition check, which is exactly the per-packet cost those
/// sections' history rows priced in, so optimizing there would benchmark the
/// optimizer instead of the sharding machinery.
fn optimize(name: &str, isolated: clickinc_ir::IrProgram) -> clickinc_ir::IrProgram {
    let mut diags = DiagnosticSet::new();
    Optimizer::with_default_passes().optimize(name, true, &isolated, &mut diags)
}

fn run_once(shards: usize, rounds: usize, mode: ExecMode, optimized: bool) -> (f64, usize) {
    let engine = TrafficEngine::new(EngineConfig {
        shards,
        batch_size: 256,
        exec_mode: mode,
        ..Default::default()
    });
    let handle = engine.handle();
    let mut parts: Vec<Box<dyn Workload>> = Vec::new();
    for i in 0..TENANTS {
        let name = format!("tenant{i}");
        let id = i as i64 + 1;
        handle.add_tenant(&name, tenant_hops(&name, id, optimized));
        parts.push(Box::new(MlAggWorkload::new(MlAggWorkloadConfig {
            tenant: name,
            user_id: id,
            workers: WORKERS,
            rounds,
            dims: DIMS as usize,
            sparsity: 0.5,
            block_size: 8,
            rate_pps: 100_000_000.0,
            seed: 42 + i as u64,
        })));
    }
    let mut mixed = MixedWorkload::new(parts);

    let start = Instant::now();
    let report = handle.run_workload(&mut mixed, usize::MAX, 256);
    handle.flush();
    let elapsed = start.elapsed().as_secs_f64();
    let outcome = engine.finish();
    let completed: u64 = outcome.telemetry.tenants.values().map(|t| t.completed).sum();
    assert_eq!(report.shed, 0, "ample default queues shed nothing");
    assert_eq!(completed as usize, report.admitted, "every admitted packet completes");
    (elapsed, report.admitted)
}

/// The flow-sharded hot tenant's hop list: an isolated KVS cache program on
/// the shared ToR.
fn hot_kvs_hops(name: &str, id: i64) -> Vec<TenantHop> {
    let t = kvs_template(name, KvsParams { cache_depth: 4096, ..Default::default() });
    let ir = compile_source(name, &t.source).expect("template compiles");
    vec![TenantHop {
        device: "tor0".to_string(),
        model: DeviceModel::tofino(),
        snippets: vec![isolate_user_program(&ir, name, id)],
    }]
}

/// One hot KVS tenant, flow-sharded by its request key, co-resident with
/// the eight `ByTenant` MLAgg tenants (installed but idle — they cost every
/// hot packet a snippet scan wherever they share a shard).  Returns the
/// elapsed seconds, the packets served, and how many shards the hot tenant
/// utilized.
fn run_flow_once(shards: usize, requests: usize) -> (f64, usize, usize) {
    // interpreter-pinned and unoptimized for the same reason as the serving
    // section: the flow-sharding speedup is measured against the pre-compiler
    // cost model so the BENCH_runtime.json history stays comparable across
    // PRs (see the module docs).
    let engine = TrafficEngine::new(EngineConfig {
        shards,
        batch_size: 256,
        exec_mode: ExecMode::Interpreted,
        ..Default::default()
    });
    let handle = engine.handle();
    for i in 0..TENANTS {
        let name = format!("tenant{i}");
        handle.add_tenant(&name, tenant_hops(&name, i as i64 + 1, false));
    }
    handle.add_tenant_sharded(
        "hot",
        hot_kvs_hops("hot", 100),
        ShardingMode::ByFlow { key_fields: vec!["key".to_string()] },
    );
    for key in 0..256 {
        handle.populate_table(
            "hot",
            "tor0",
            "hot_cache",
            vec![Value::Int(key)],
            vec![Value::Int(key * 1000 + 7)],
        );
    }
    let mut wl = KvsWorkload::new(KvsWorkloadConfig {
        tenant: "hot".to_string(),
        user_id: 100,
        keys: 4096,
        skew: 1.1,
        requests,
        rate_pps: 100_000_000.0,
        seed: 99,
    });
    let start = Instant::now();
    let report = handle.run_workload(&mut wl, usize::MAX, 256);
    handle.flush();
    let elapsed = start.elapsed().as_secs_f64();
    let outcome = engine.finish();
    let hot = outcome.telemetry.tenant("hot").expect("hot tenant served");
    assert_eq!(report.shed, 0, "ample default queues shed nothing");
    assert_eq!(hot.completed as usize, report.admitted, "every admitted packet completes");
    let utilized = hot.per_shard_packets.iter().filter(|&&p| p > 0).count();
    (elapsed, report.admitted, utilized)
}

/// Saturation probe: the same hot tenant against a deliberately small
/// bounded queue under drop-tail.  Returns the shed fraction.
fn run_overload_probe(shards: usize, requests: usize) -> f64 {
    let engine = TrafficEngine::new(EngineConfig {
        shards,
        batch_size: 256,
        queue_capacity: 512,
        overload: OverloadPolicy::DropTail,
        exec_mode: ExecMode::Interpreted,
    });
    let handle = engine.handle();
    handle.add_tenant_sharded(
        "hot",
        hot_kvs_hops("hot", 100),
        ShardingMode::ByFlow { key_fields: vec!["key".to_string()] },
    );
    let mut wl = KvsWorkload::new(KvsWorkloadConfig {
        tenant: "hot".to_string(),
        user_id: 100,
        keys: 4096,
        skew: 1.1,
        requests,
        rate_pps: 100_000_000.0,
        seed: 99,
    });
    let report = handle.run_workload(&mut wl, usize::MAX, 2048);
    handle.flush();
    engine.finish();
    report.shed as f64 / report.generated.max(1) as f64
}

/// Adaptive probe: the hot tenant starts pinned (`ByTenant`) against small
/// drop-tail queues, surges, and — when `adapt` — a single
/// [`AdaptiveController`] step reads the congestion telemetry and
/// live-reshards it `ByTenant -> ByFlow` before the second half of the
/// surge.  Returns the surge-epoch and post-epoch admit ratios.
fn run_adapt_probe(shards: usize, requests: usize, adapt: bool) -> (f64, f64) {
    let engine = TrafficEngine::new(EngineConfig {
        shards,
        batch_size: 64,
        queue_capacity: 96,
        overload: OverloadPolicy::DropTail,
        exec_mode: ExecMode::Interpreted,
    });
    let handle = engine.handle();
    handle.add_tenant_sharded("hot", hot_kvs_hops("hot", 100), ShardingMode::ByTenant);
    let mut controller =
        AdaptiveController::new(AdaptivePolicy { min_epoch_packets: 256, ..Default::default() });
    controller.track(
        "hot",
        ShardingMode::ByTenant,
        ShardingMode::ByFlow { key_fields: vec!["key".to_string()] },
    );
    let mut wl = KvsWorkload::new(KvsWorkloadConfig {
        tenant: "hot".to_string(),
        user_id: 100,
        keys: 4096,
        skew: 1.1,
        requests,
        rate_pps: 100_000_000.0,
        seed: 99,
    });
    if adapt {
        controller.step(&handle); // baseline epoch: stash the telemetry snapshot
    }
    let surge = handle.run_workload(&mut wl, requests / 2, 2048);
    handle.flush();
    if adapt {
        let tick = controller.step(&handle);
        assert!(
            tick.applied.iter().any(|a| matches!(a, AdaptAction::Reshard { .. })),
            "the surge epoch's congestion telemetry must trigger a reshard, got {:?}",
            tick.applied
        );
    }
    let adapted = handle.run_workload(&mut wl, usize::MAX, 2048);
    handle.flush();
    engine.finish();
    let ratio = |r: &WorkloadReport| r.admitted as f64 / r.generated.max(1) as f64;
    (ratio(&surge), ratio(&adapted))
}

/// Nearest-rank percentile over an ascending-sorted slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// One request from the churn scenario's shape pool: co-tenant programs
/// reusing a handful of templates under fresh user names — the access
/// pattern the segment memo is built for (same canonical shape, different
/// tenant).
fn pooled_request(i: usize) -> ServiceRequest {
    const POOL: usize = 6;
    let slot = i % POOL;
    let user = format!("warm{i}");
    let builder = ServiceRequest::builder(&user);
    let builder = match slot % 3 {
        0 => builder
            .template(kvs_template(
                &user,
                KvsParams { cache_depth: 1000 + 500 * (slot as u32 / 3), ..Default::default() },
            ))
            .from_("pod0a"),
        1 => builder
            .template(mlagg_template(
                &user,
                MlAggParams {
                    dims: DIMS + 8 * (slot as u32 / 3),
                    num_aggregators: 512,
                    ..Default::default()
                },
            ))
            .from_("pod1a"),
        _ => builder.template(count_min_sketch(&user, 3, 512 << (slot / 3))).from_("pod0b"),
    };
    builder.to("pod2b").build().expect("well-formed request")
}

/// Per-plan placement solve latencies (ms, ascending) for `count` dry-run
/// plans over the churn shape pool on one live service.  `warm` keeps the
/// segment memo on (the deploy default); cold disables it, pricing the
/// pre-memo DP the warm-start gate is measured against.
fn solve_latencies(count: usize, warm: bool) -> Vec<f64> {
    let service = ClickIncService::new(Topology::emulation_topology_all_tofino())
        .expect("default engine config is valid");
    if !warm {
        service.controller().set_solve_memo(false);
    }
    let mut ms: Vec<f64> = (0..count)
        .map(|i| {
            let plan = service.plan(&pooled_request(i)).expect("every pooled request solves");
            plan.placement().solve_time.as_secs_f64() * 1e3
        })
        .collect();
    service.finish();
    ms.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    ms
}

/// Load the accumulated history, migrating a pre-history single-report file
/// into its first entry and backfilling wall-clock timestamps the earliest
/// rows were written without (the file's mtime is the best bound we have for
/// them; new rows are stamped at append time).
fn load_history(path: &str) -> BenchHistory {
    let empty = || BenchHistory { bench: "runtime_throughput".to_string(), history: Vec::new() };
    let Ok(text) = std::fs::read_to_string(path) else { return empty() };
    let mut history = if let Ok(history) = serde_json::from_str::<BenchHistory>(&text) {
        history
    } else {
        // legacy layout: the file was one report, not a history
        match serde_json::from_str::<RunEntry>(&text) {
            Ok(entry) => {
                BenchHistory { bench: "runtime_throughput".to_string(), history: vec![entry] }
            }
            Err(_) => return empty(),
        }
    };
    let mtime_s = std::fs::metadata(path)
        .and_then(|m| m.modified())
        .ok()
        .and_then(|t| t.duration_since(UNIX_EPOCH).ok())
        .map(|d| d.as_secs())
        .unwrap_or(0);
    for entry in &mut history.history {
        if entry.unix_time_s == 0 {
            entry.unix_time_s = mtime_s;
        }
    }
    history
}

fn main() {
    let smoke = std::env::var("RUNTIME_BENCH_SMOKE").is_ok_and(|v| v != "0" && !v.is_empty());
    let (rounds, shard_counts): (usize, &[usize]) =
        if smoke { (400, &[1, 4]) } else { (1500, &[1, 2, 4, 8]) };

    println!(
        "== runtime_throughput: {TENANTS} co-resident MLAgg tenants, 1 vs N shards{} ==",
        if smoke { " (smoke)" } else { "" }
    );
    println!("{:>8} {:>12} {:>16}", "shards", "elapsed", "packets/sec");
    let mut results = Vec::new();
    for &shards in shard_counts {
        // best of two runs to shave scheduler noise; interpreter-pinned and
        // unoptimized per the cost-model note in the module docs
        let (mut elapsed, mut packets) = run_once(shards, rounds, ExecMode::Interpreted, false);
        let (e2, p2) = run_once(shards, rounds, ExecMode::Interpreted, false);
        if e2 < elapsed {
            elapsed = e2;
            packets = p2;
        }
        let pps = packets as f64 / elapsed.max(1e-9);
        println!("{shards:>8} {:>10.1}ms {pps:>16.0}", elapsed * 1e3);
        results.push(ShardResult { shards, elapsed_ms: elapsed * 1e3, packets_per_sec: pps });
    }

    let one = results[0].packets_per_sec;
    let best = results.iter().map(|r| r.packets_per_sec).fold(0.0f64, f64::max);
    let speedup = best / one.max(1e-9);
    println!(
        "best N-shard throughput is {speedup:.2}x the 1-shard baseline ({})",
        if speedup > 1.0 { "sharding wins" } else { "REGRESSION" }
    );

    // ---- compiled-vs-interpreted execution-tier section -----------------
    // the same workload, same shard count, same optimized IR — the only
    // difference is the execution tier the shard workers select.  One shard
    // keeps scheduler noise out of the per-packet cost comparison.
    let exec_shards = shard_counts.first().copied().unwrap_or(1);
    println!(
        "\n== exec_tier: interpreter vs register VM, {TENANTS} MLAgg tenants on {exec_shards} \
         shards =="
    );
    println!("{:>12} {:>12} {:>16}", "mode", "elapsed", "packets/sec");
    let mut exec_results = Vec::new();
    for (label, mode) in [("interpreted", ExecMode::Interpreted), ("compiled", ExecMode::Compiled)]
    {
        // best of three runs to shave scheduler noise: the tier comparison
        // feeds a CI gate, so its minima need to be tighter than the
        // scaling sections'
        let (mut elapsed, mut packets) = run_once(exec_shards, rounds, mode, true);
        for _ in 0..2 {
            let (e2, p2) = run_once(exec_shards, rounds, mode, true);
            if e2 < elapsed {
                elapsed = e2;
                packets = p2;
            }
        }
        let pps = packets as f64 / elapsed.max(1e-9);
        println!("{label:>12} {:>10.1}ms {pps:>16.0}", elapsed * 1e3);
        exec_results.push(ExecResult {
            mode: label.to_string(),
            shards: exec_shards,
            elapsed_ms: elapsed * 1e3,
            packets_per_sec: pps,
        });
    }
    let interp_pps = exec_results[0].packets_per_sec;
    let compiled_pps = exec_results[1].packets_per_sec;
    let compile_speedup = compiled_pps / interp_pps.max(1e-9);
    println!(
        "compiled tier is {compile_speedup:.2}x the interpreter on the same shard count ({})",
        if compile_speedup > 1.0 { "compilation wins" } else { "REGRESSION" }
    );

    // ---- flow-sharded hot-tenant section --------------------------------
    let flow_requests = if smoke { 20_000 } else { 60_000 };
    println!(
        "\n== flow_throughput: 1 hot flow-sharded KVS tenant next to {TENANTS} MLAgg tenants, \
         1 vs N shards =="
    );
    println!("{:>8} {:>12} {:>16} {:>10}", "shards", "elapsed", "packets/sec", "utilized");
    let mut flow_results = Vec::new();
    let mut flow_shards_utilized = 0usize;
    for &shards in shard_counts {
        // best of two runs to shave scheduler noise
        let (mut elapsed, mut packets, mut utilized) = run_flow_once(shards, flow_requests);
        let (e2, p2, u2) = run_flow_once(shards, flow_requests);
        if e2 < elapsed {
            (elapsed, packets, utilized) = (e2, p2, u2);
        }
        assert!(
            shards == 1 || utilized > 1,
            "a flow-sharded hot tenant must utilize more than one of {shards} shards"
        );
        let pps = packets as f64 / elapsed.max(1e-9);
        println!("{shards:>8} {:>10.1}ms {pps:>16.0} {utilized:>10}", elapsed * 1e3);
        flow_results.push(ShardResult { shards, elapsed_ms: elapsed * 1e3, packets_per_sec: pps });
        flow_shards_utilized = flow_shards_utilized.max(utilized);
    }
    let flow_one = flow_results[0].packets_per_sec;
    let flow_best = flow_results.iter().map(|r| r.packets_per_sec).fold(0.0f64, f64::max);
    let flow_speedup = flow_best / flow_one.max(1e-9);
    println!(
        "best N-shard hot-tenant throughput is {flow_speedup:.2}x the 1-shard baseline ({})",
        if flow_speedup > 1.0 { "flow sharding wins" } else { "REGRESSION" }
    );
    let overload_drop_rate =
        run_overload_probe(shard_counts.last().copied().unwrap_or(4), flow_requests / 4);
    println!(
        "saturation probe (512-deep bounded queues, drop-tail): {:.1}% shed",
        overload_drop_rate * 100.0
    );

    // ---- adaptive-runtime section ---------------------------------------
    // the hot tenant starts pinned to one shard against 96-deep drop-tail
    // queues; one controller step after the surge epoch reads the shed /
    // high-water telemetry and live-reshards it across every shard
    let adapt_shards = shard_counts.last().copied().unwrap_or(4);
    let adapt_requests = flow_requests / 4;
    println!(
        "\n== adaptive: pinned hot KVS vs 96-deep drop-tail queues on {adapt_shards} shards, \
         loop on vs off =="
    );
    let (surge_ratio, adapt_post_admit) = run_adapt_probe(adapt_shards, adapt_requests, true);
    let (static_surge, adapt_static_post_admit) =
        run_adapt_probe(adapt_shards, adapt_requests, false);
    // recovery compares the post-phase admit ratios absolutely (loop on over
    // loop off, identical traffic) — the surge-phase ratios are printed for
    // context but carry drain-timing noise near zero, so nothing gates on
    // them
    let adapt_recovery = adapt_post_admit / adapt_static_post_admit.max(1e-9);
    println!("{:>8} {:>14} {:>14}", "loop", "surge admit", "post admit");
    println!("{:>8} {surge_ratio:>14.3} {adapt_post_admit:>14.3}", "on");
    println!("{:>8} {static_surge:>14.3} {adapt_static_post_admit:>14.3}", "off");
    println!(
        "adaptive reshard recovers {adapt_recovery:.2}x the static control's post-surge admit \
         ratio ({})",
        if adapt_recovery > 1.0 { "adaptation wins" } else { "REGRESSION" }
    );

    // ---- failover section ------------------------------------------------
    // the apps failover scenario end-to-end: a victim device dies on the
    // virtual clock mid-run, the controller quiesces and re-places the
    // victim around it, the restore revives it — priced against a fault-free
    // control run that also proves the blast radius
    let failover_config = FailoverServingConfig {
        requests_per_phase: if smoke { 1024 } else { 4096 },
        background_rounds: if smoke { 60 } else { 120 },
        ..Default::default()
    };
    println!(
        "\n== failover: victim KVS loses a device mid-run, {} requests/phase, fault vs \
         fault-free ==",
        failover_config.requests_per_phase
    );
    let faulted = serve_failover_scenario(&failover_config).expect("failover scenario serves");
    let clean =
        serve_failover_scenario(&FailoverServingConfig { fail: false, ..failover_config.clone() })
            .expect("fault-free control serves");
    assert_eq!(faulted.bystander, clean.bystander, "co-resident stats diverged under the fault");
    assert_eq!(
        faulted.bystander_fingerprints(),
        clean.bystander_fingerprints(),
        "co-resident store fingerprints diverged under the fault"
    );
    let failover_recovery = faulted.recovery_ratio();
    let failover_fault_lost = faulted.victim.fault_lost_packets;
    let failover_recovered_immediately = faulted.recovered_immediately;
    println!(
        "device `{}` lost {failover_fault_lost} victim packets; failover re-placed \
         immediately: {failover_recovered_immediately}",
        faulted.failed_device.as_deref().unwrap_or("?")
    );
    println!(
        "post-restore recovery is {failover_recovery:.2}x the pre-fault baseline ({}); \
         co-resident bit-identical to the fault-free control",
        if failover_recovery >= 1.0 { "service restored" } else { "REGRESSION" }
    );

    // ---- warm-start / churn section --------------------------------------
    // dry-run plans over the churn shape pool: segment memo on (the deploy
    // default) vs off (the unmemoized DP every solve paid before the memo)
    let probe_count = if smoke { 36 } else { 60 };
    println!(
        "\n== warm_start: per-plan placement solve over the churn shape pool, memo on vs off, \
         {probe_count} plans =="
    );
    let warm_lat = solve_latencies(probe_count, true);
    let cold_lat = solve_latencies(probe_count, false);
    let placement_warm_p50_ms = percentile(&warm_lat, 0.50);
    let placement_cold_p50_ms = percentile(&cold_lat, 0.50);
    let placement_warm_speedup = placement_cold_p50_ms / placement_warm_p50_ms.max(1e-9);
    println!(
        "warm p50 {placement_warm_p50_ms:.4} ms | cold p50 {placement_cold_p50_ms:.4} ms | \
         memoized solve is {placement_warm_speedup:.2}x the cold DP ({})",
        if placement_warm_speedup > 1.0 { "warm start wins" } else { "REGRESSION" }
    );

    // smoke shrinks the arrival count; serve_every shrinks with it so the
    // direct-admission stream (a fraction of arrivals once the house fills)
    // still triggers serving bursts
    let churn_config = ChurnConfig {
        tenants: if smoke { 150 } else { 1000 },
        serve_every: if smoke { 10 } else { 50 },
        burst_requests: if smoke { 256 } else { 512 },
        ..Default::default()
    };
    println!(
        "\n== churn: {} arrivals over a {}-resident cap, retry queue against the serving \
         engine ==",
        churn_config.tenants, churn_config.resident_cap
    );
    let churn_start = Instant::now();
    let churn = run_churn_scenario(&churn_config).expect("churn scenario runs");
    let churn_wall = churn_start.elapsed().as_secs_f64();
    assert_eq!(churn.failed, 0, "every churn arrival must place");
    assert!(churn.admitted_from_queue > 0, "the retry queue must admit waiters");
    assert!(churn.packets_served > 0, "the engine must serve during the churn");
    println!(
        "admitted {} directly + {} from the retry queue; {} departures; admission p50 \
         {:.3} ms p99 {:.3} ms; memo hit ratio {:.1}%; {} packets served; {churn_wall:.2}s \
         wall-clock",
        churn.admitted_directly,
        churn.admitted_from_queue,
        churn.departures,
        churn.admit_p50_ms,
        churn.admit_p99_ms,
        churn.solve_cache_hit_ratio * 100.0,
        churn.packets_served
    );

    // append to the accumulated history at the workspace root
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_runtime.json");
    let mut report = load_history(path);
    report.history.push(RunEntry {
        unix_time_s: SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_secs()).unwrap_or(0),
        smoke,
        tenants: TENANTS,
        packets: TENANTS * rounds * WORKERS,
        results,
        speedup_best_vs_one_shard: speedup,
        flow: flow_results,
        flow_speedup_best_vs_one_shard: flow_speedup,
        flow_shards_utilized,
        overload_drop_rate,
        exec: exec_results,
        compile_speedup_vs_interp: compile_speedup,
        adapt_recovery,
        adapt_post_admit,
        adapt_static_post_admit,
        failover_recovery,
        failover_fault_lost,
        failover_recovered_immediately,
        placement_warm_p50_ms,
        placement_cold_p50_ms,
        placement_warm_speedup,
        churn_tenants: churn_config.tenants,
        churn_admit_p50_ms: churn.admit_p50_ms,
        churn_admit_p99_ms: churn.admit_p99_ms,
        churn_admitted_from_queue: churn.admitted_from_queue,
        churn_solve_cache_hit_ratio: churn.solve_cache_hit_ratio,
        churn_packets_served: churn.packets_served,
    });
    if report.history.len() > HISTORY_CAP {
        let drop = report.history.len() - HISTORY_CAP;
        report.history.drain(..drop);
    }
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(path, &json).expect("BENCH_runtime.json written");
    println!("appended run #{} to BENCH_runtime.json", report.history.len());

    // optional regression gate for the CI bench-trend step: both the
    // tenant-sharded and the flow-sharded multi-shard configurations must
    // beat their 1-shard baselines
    if let Ok(min) = std::env::var("RUNTIME_BENCH_MIN_SPEEDUP") {
        let min: f64 = min.parse().expect("RUNTIME_BENCH_MIN_SPEEDUP is a number");
        if speedup < min {
            eprintln!(
                "FAIL: speedup_best_vs_one_shard {speedup:.2} regressed below the {min:.2}x gate"
            );
            std::process::exit(1);
        }
        if flow_speedup < min {
            eprintln!(
                "FAIL: flow_speedup_best_vs_one_shard {flow_speedup:.2} regressed below the \
                 {min:.2}x gate"
            );
            std::process::exit(1);
        }
        println!(
            "bench-trend gate passed: tenant-sharded {speedup:.2}x, flow-sharded \
             {flow_speedup:.2}x >= {min:.2}x"
        );
    }
    // regression gate for the compiled execution tier: the register VM must
    // stay ahead of the interpreter on the same shard count
    if let Ok(min) = std::env::var("RUNTIME_BENCH_MIN_COMPILE_SPEEDUP") {
        let min: f64 = min.parse().expect("RUNTIME_BENCH_MIN_COMPILE_SPEEDUP is a number");
        if compile_speedup < min {
            eprintln!(
                "FAIL: compile_speedup_vs_interp {compile_speedup:.2} regressed below the \
                 {min:.2}x gate"
            );
            std::process::exit(1);
        }
        println!("exec-tier gate passed: compiled {compile_speedup:.2}x >= {min:.2}x interpreter");
    }
    // regression gate for the adaptive loop: the loop-on post-reshard admit
    // ratio must stay `min`x above the loop-off control's
    if let Ok(min) = std::env::var("RUNTIME_BENCH_MIN_ADAPT_RECOVERY") {
        let min: f64 = min.parse().expect("RUNTIME_BENCH_MIN_ADAPT_RECOVERY is a number");
        if adapt_recovery < min {
            eprintln!(
                "FAIL: adapt_recovery {adapt_recovery:.2} regressed below the {min:.2}x gate \
                 (post-surge admit {adapt_post_admit:.3} vs static {adapt_static_post_admit:.3})"
            );
            std::process::exit(1);
        }
        println!(
            "adaptive gate passed: recovery {adapt_recovery:.2}x >= {min:.2}x the static \
             control's post-surge admit ratio"
        );
    }
    // regression gate for the failover path: the re-placed victim must serve
    // its post-restore phase at `min`x its pre-fault baseline
    if let Ok(min) = std::env::var("RUNTIME_BENCH_MIN_FAILOVER_RECOVERY") {
        let min: f64 = min.parse().expect("RUNTIME_BENCH_MIN_FAILOVER_RECOVERY is a number");
        if failover_recovery < min {
            eprintln!(
                "FAIL: failover_recovery {failover_recovery:.2} regressed below the {min:.2}x \
                 gate ({failover_fault_lost} packets lost in the fault window)"
            );
            std::process::exit(1);
        }
        println!(
            "failover gate passed: recovery {failover_recovery:.2}x >= {min:.2}x the pre-fault \
             baseline"
        );
    }
    // regression gate for the placement memo: a warm (memoized) solve over
    // the churn shape pool must stay `min`x faster than the cold unmemoized
    // DP at the median
    if let Ok(min) = std::env::var("RUNTIME_BENCH_MIN_PLANNER_SPEEDUP") {
        let min: f64 = min.parse().expect("RUNTIME_BENCH_MIN_PLANNER_SPEEDUP is a number");
        if placement_warm_speedup < min {
            eprintln!(
                "FAIL: placement_warm_speedup {placement_warm_speedup:.2} regressed below the \
                 {min:.2}x gate (warm p50 {placement_warm_p50_ms:.4} ms vs cold p50 \
                 {placement_cold_p50_ms:.4} ms)"
            );
            std::process::exit(1);
        }
        println!(
            "warm-start gate passed: memoized solve {placement_warm_speedup:.2}x >= {min:.2}x \
             the cold DP at the median"
        );
    }
}
