//! In-network key-value cache (NetCache-style): deploy the KVS template via
//! the controller, run a skewed request stream against the emulated data plane,
//! and report the cache hit ratio and latency benefit.
//!
//! Run with: `cargo run --example kvs_cache`

use clickinc::topology::Topology;
use clickinc::{Controller, ServiceRequest};
use clickinc_emulator::workload::KvsWorkloadConfig;
use clickinc_emulator::{run_kvs_scenario, DevicePlane, KvsConfig, NetworkSetup};
use clickinc_lang::templates::{kvs_template, KvsParams};

fn main() {
    println!("=== In-network KVS cache ===\n");
    let mut controller = Controller::new(Topology::emulation_topology_all_tofino());
    let template = kvs_template("kvs_0", KvsParams { cache_depth: 4096, ..Default::default() });
    let request = ServiceRequest::from_template(template, &["pod0a", "pod1a"], "pod2b");
    let deployment = controller.deploy(request).expect("KVS deploys").clone();
    println!(
        "KVS placed on: {:?} (solve time {:.2?})",
        deployment.plan.devices_used(),
        deployment.plan.solve_time
    );

    // Build an emulation path containing one of the devices that hosts the
    // cache, then compare against a path with no INC program.
    let cached_plane = controller.tenant_hops("kvs_0")[0].plane();
    let mut with_cache = NetworkSetup::new(vec![cached_plane]);
    let mut without_cache =
        NetworkSetup::new(vec![DevicePlane::new("ToR", clickinc::device::DeviceModel::tofino())]);

    // Deployed programs only process traffic carrying their tenant id.
    let user_id = controller.numeric_id_of("kvs_0").expect("kvs_0 is deployed");
    let config = KvsConfig {
        workload: KvsWorkloadConfig {
            requests: 5000,
            keys: 2000,
            skew: 1.1,
            seed: 3,
            user_id,
            ..Default::default()
        },
        cached_keys: 128,
        cache_table: Some("kvs_0_cache".to_string()),
    };
    let cached = run_kvs_scenario(&mut with_cache, &config);
    let baseline = run_kvs_scenario(&mut without_cache, &config);

    println!("\n{:<22} {:>12} {:>12}", "", "with cache", "no cache");
    println!(
        "{:<22} {:>11.1}% {:>11.1}%",
        "cache hit ratio",
        cached.hit_ratio * 100.0,
        baseline.hit_ratio * 100.0
    );
    println!(
        "{:<22} {:>12} {:>12}",
        "requests at server", cached.server_requests, baseline.server_requests
    );
    println!(
        "{:<22} {:>10.0}ns {:>10.0}ns",
        "mean lookup latency", cached.mean_latency_ns, baseline.mean_latency_ns
    );
    assert!(cached.replies_correct, "cache replies must carry the correct values");
    assert!(
        cached.hit_ratio > 0.3,
        "the skewed workload should hit the deployed cache: {}",
        cached.hit_ratio
    );
    assert!(cached.mean_latency_ns < baseline.mean_latency_ns, "the cache must cut latency");
    println!("\nAll in-network replies carried the correct value for their key.");
}
