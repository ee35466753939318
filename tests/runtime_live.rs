//! End-to-end: deployments committed through the `ClickIncService` facade
//! are served by the sharded engine, survive live reconfiguration, and need
//! no manual hook or bridge wiring anywhere.

use clickinc::lang::templates::{mlagg_template, MlAggParams};
use clickinc::{ServiceRequest, TenantHandle};
use clickinc_apps::house;
use clickinc_runtime::EngineConfig;

#[test]
fn the_service_serves_deployed_tenants_and_survives_live_reconfiguration() {
    let service = house::service(EngineConfig { shards: 2, ..Default::default() })
        .expect("engine config is valid");

    // two KVS tenants deploy through the facade; the commit mirrors them
    // onto the engine automatically
    let mut residents = Vec::new();
    for (user, srcs) in [("kvs_a", ["pod0a", "pod1a"]), ("kvs_b", ["pod0b", "pod1b"])] {
        let tenant = service.deploy(house::kvs_request(user, srcs)).expect("resident deploys");
        // the handle knows which hop hosts the (isolation-renamed) cache
        house::warm_cache(&tenant, 64);
        residents.push(tenant);
    }

    let workload = |tenant: &TenantHandle, requests, seed| {
        house::kvs_stream(tenant, 500, requests, 1_000_000.0, seed)
    };
    let mut wl_a = workload(&residents[0], 1000, 5);
    let mut wl_b = workload(&residents[1], 1000, 6);

    // first traffic phase
    residents[0].run_workload(&mut wl_a, 500, 64);
    residents[1].run_workload(&mut wl_b, 500, 64);

    // a third tenant arrives mid-run and leaves again, all through the
    // service, while kvs_a/kvs_b keep flowing
    let t = mlagg_template(
        "agg_c",
        MlAggParams { dims: 8, num_aggregators: 1024, ..Default::default() },
    );
    let request = ServiceRequest::builder("agg_c")
        .template(t)
        .from_("pod1a")
        .from_("pod1b")
        .to("pod2a")
        .build()
        .expect("well-formed request");
    let transient = service.deploy(request).expect("transient deploys");
    residents[0].run_workload(&mut wl_a, 250, 64);
    residents[1].run_workload(&mut wl_b, 250, 64);
    // the engine really saw the transient tenant: its stats are read before
    // the removal, which takes them out of the report
    assert!(transient.telemetry().is_some(), "the commit mirrored the deploy");
    transient.remove().expect("transient leaves cleanly");

    // final phase after the removal
    residents[0].run_workload(&mut wl_a, usize::MAX, 64);
    residents[1].run_workload(&mut wl_b, usize::MAX, 64);
    service.flush();

    let outcome = service.finish();
    for user in ["kvs_a", "kvs_b"] {
        let stats = outcome.telemetry.tenant(user).unwrap_or_else(|| panic!("{user} served"));
        assert_eq!(stats.packets, 1000, "{user} traffic all injected");
        assert_eq!(stats.completed, 1000, "{user} traffic all completed");
        assert!(stats.hit_ratio > 0.3, "{user} hot keys answered in-network: {}", stats.hit_ratio);
        assert!(stats.goodput_gbps > 0.0);
    }
    // the JSON export carries every live tenant, and the removed one no more
    let json = outcome.telemetry.to_json();
    assert!(json.contains("\"kvs_a\"") && json.contains("\"kvs_b\""));
    assert!(!json.contains("\"agg_c\""), "a removed tenant leaves the report");
}
