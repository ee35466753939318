//! Live reconfiguration under traffic: two KVS tenants serve a skewed
//! request stream on the sharded runtime engine while a third tenant's
//! gradient-aggregation program is deployed and removed mid-run through the
//! `ClickIncService` facade (paper §6, Fig. 14 — INC as a service).
//!
//! The same three-phase workload is run twice — once with the mid-run
//! deploy/remove, once without — and the resident tenants' telemetry is
//! compared: goodput, hit ratio and tail latency are bit-for-bit unaffected.
//! Note there is no hook or bridge wiring anywhere: the service owns both
//! the controller and the engine and mirrors every commit automatically.
//!
//! Run with: `cargo run --release --example live_traffic`

use clickinc::lang::templates::{mlagg_template, MlAggParams};
use clickinc::{ServiceRequest, TenantHandle};
use clickinc_apps::house;
use clickinc_runtime::workload::{KvsWorkload, MlAggWorkload, MlAggWorkloadConfig};
use clickinc_runtime::{EngineConfig, TelemetryReport, TenantStats};

const SHARDS: usize = 4;
const REQUESTS: usize = 3000;

fn kvs_stream(tenant: &TenantHandle, seed: u64) -> KvsWorkload {
    house::kvs_stream(tenant, 1000, REQUESTS, 5_000_000.0, seed)
}

/// Three traffic phases for the resident tenants; in the middle phase a
/// third tenant optionally arrives, aggregates 400 gradient packets
/// in-network, and leaves — all through the service facade.  Returns the
/// final report and the third tenant's stats, read before it leaves (a
/// removed tenant is no longer in the report).
fn run(reconfigure: bool) -> (TelemetryReport, Option<TenantStats>) {
    let service = house::service(EngineConfig { shards: SHARDS, ..Default::default() })
        .expect("engine config is valid");

    let mut residents = Vec::new();
    for (user, srcs) in [("kvs_a", ["pod0a", "pod1a"]), ("kvs_b", ["pod0b", "pod1b"])] {
        let tenant = service.deploy(house::kvs_request(user, srcs)).expect("resident deploys");
        house::warm_cache(&tenant, 64);
        residents.push(tenant);
    }
    let mut wl_a = kvs_stream(&residents[0], 5);
    let mut wl_b = kvs_stream(&residents[1], 6);

    // phase 1: both residents flowing
    residents[0].run_workload(&mut wl_a, REQUESTS / 3, 128);
    residents[1].run_workload(&mut wl_b, REQUESTS / 3, 128);

    let newcomer = if reconfigure {
        let t = mlagg_template(
            "agg_c",
            MlAggParams { dims: 16, num_aggregators: 1024, ..Default::default() },
        );
        let request = ServiceRequest::builder("agg_c")
            .template(t)
            .from_("pod1a")
            .from_("pod1b")
            .to("pod2a")
            .build()
            .expect("well-formed request");
        // dry-run first: the plan predicts the post-commit resource ratio
        let plan = service.plan(&request).expect("agg_c plans");
        let predicted = plan.predicted_remaining_ratio();
        let tenant = service.commit(plan).expect("agg_c commits");
        assert_eq!(service.remaining_resource_ratio(), predicted, "plan prediction is exact");
        let mut wl_c = MlAggWorkload::new(MlAggWorkloadConfig {
            tenant: "agg_c".to_string(),
            user_id: tenant.numeric_id(),
            workers: 4,
            rounds: 100,
            dims: 16,
            rate_pps: 5_000_000.0,
            seed: 7,
            ..Default::default()
        });
        tenant.run_workload(&mut wl_c, usize::MAX, 128);
        Some(tenant)
    } else {
        None
    };

    // phase 2: residents keep flowing next to (or without) the newcomer
    residents[0].run_workload(&mut wl_a, REQUESTS / 3, 128);
    residents[1].run_workload(&mut wl_b, REQUESTS / 3, 128);

    let transient = newcomer.map(|tenant| {
        service.flush();
        let stats = tenant.telemetry().expect("agg_c is deployed");
        tenant.remove().expect("agg_c leaves cleanly");
        stats
    });

    // phase 3: after the teardown
    residents[0].run_workload(&mut wl_a, usize::MAX, 128);
    residents[1].run_workload(&mut wl_b, usize::MAX, 128);
    service.flush();
    (service.finish().telemetry, transient)
}

fn main() {
    println!("=== Live reconfiguration under traffic ({SHARDS} shards) ===\n");
    let (reconfigured, agg) = run(true);
    let (quiet, _) = run(false);

    let agg = agg.expect("transient tenant served");
    assert!(reconfigured.tenant("agg_c").is_none(), "a removed tenant leaves the report");
    println!(
        "transient tenant agg_c: {} packets, {} in-network aggregations, {} absorbed, \
         goodput {:.2} Gbps",
        agg.packets, agg.hits, agg.drops, agg.goodput_gbps
    );

    println!(
        "\n{:<8} {:>10} {:>11} {:>14} {:>12} {:>12}  disruption",
        "tenant", "requests", "hit ratio", "goodput Gbps", "p50 ns", "p99 ns"
    );
    for user in ["kvs_a", "kvs_b"] {
        let with = reconfigured.tenant(user).expect("resident tenant served");
        let without = quiet.tenant(user).expect("resident tenant served");
        let unaffected = with == without;
        println!(
            "{:<8} {:>10} {:>11.3} {:>14.3} {:>12} {:>12}  {}",
            user,
            with.packets,
            with.hit_ratio,
            with.goodput_gbps,
            with.latency_p50_ns,
            with.latency_p99_ns,
            if unaffected { "none (bit-for-bit identical)" } else { "DISTURBED" }
        );
        assert!(unaffected, "co-resident tenant {user} must not observe the reconfiguration");
        assert!(with.hit_ratio > 0.3, "hot keys are answered in-network");
    }

    println!("\nTelemetry JSON (agg_c excerpt, read before it left):");
    let json = serde_json::to_string_pretty(&agg).expect("telemetry serializes");
    for line in json.lines().take(18) {
        println!("  {line}");
    }
    println!("  ...");
}
