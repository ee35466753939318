//! In-network key-value cache (NetCache-style) on the served path: two KVS
//! tenants deploy through the `ClickIncService` facade, one with its
//! in-network cache warmed with the hottest keys and one left cold, and the
//! same skewed request stream drives each through the sharded engine.  The
//! tenants' telemetry reports the cache hit ratio, the server offload and
//! the mean device time per request: the devices' processing time only, as
//! the engine charges no link or server time yet, so a cache hit's saved
//! server round trip does not show in it.
//!
//! Run with: `cargo run --example kvs_cache`

use clickinc_apps::house;
use clickinc_runtime::EngineConfig;

/// Keys the Zipf stream draws from.
const KEYS: usize = 2000;
/// Requests each tenant serves.
const REQUESTS: usize = 5000;
/// Hot keys pre-installed in the warmed tenant's cache.
const CACHED_KEYS: i64 = 128;
/// Both tenants replay the same seeded stream.
const SEED: u64 = 3;

fn main() {
    println!("=== In-network KVS cache ===\n");
    let service = house::service(EngineConfig { shards: 2, ..Default::default() })
        .expect("engine config is valid");
    // disjoint client pods, one shared server pod: each tenant's cache and
    // traffic stay its own
    let warm = service
        .deploy(house::kvs_request("kvs_warm", ["pod0a", "pod1a"]))
        .expect("the warmed KVS tenant deploys");
    let cold = service
        .deploy(house::kvs_request("kvs_cold", ["pod0b", "pod1b"]))
        .expect("the cold KVS tenant deploys");
    println!("kvs_warm placed on: {:?}", house::physical_devices_of(&service, "kvs_warm"));
    println!("kvs_cold placed on: {:?}", house::physical_devices_of(&service, "kvs_cold"));
    house::warm_cache(&warm, CACHED_KEYS);

    for tenant in [&warm, &cold] {
        let mut stream = house::kvs_stream(tenant, KEYS, REQUESTS, 1_000_000.0, SEED);
        tenant.run_workload(&mut stream, usize::MAX, 128);
    }
    service.flush();
    let cached = warm.telemetry().expect("kvs_warm is registered");
    let baseline = cold.telemetry().expect("kvs_cold is registered");
    service.finish();

    println!("\n{:<22} {:>12} {:>12}", "", "warm cache", "cold cache");
    println!(
        "{:<22} {:>11.1}% {:>11.1}%",
        "cache hit ratio",
        cached.hit_ratio * 100.0,
        baseline.hit_ratio * 100.0
    );
    println!("{:<22} {:>12} {:>12}", "requests at server", cached.to_server, baseline.to_server);
    println!(
        "{:<22} {:>10.0}ns {:>10.0}ns",
        "mean device time", cached.latency_mean_ns, baseline.latency_mean_ns
    );
    println!("(device processing only: link and server time are not charged yet)");
    assert!(
        cached.hit_ratio > 0.3,
        "the skewed workload should hit the warmed cache: {}",
        cached.hit_ratio
    );
    assert_eq!(baseline.hits, 0, "a cold cache answers nothing in-network");
    assert!(cached.to_server < baseline.to_server, "the warmed cache must offload the server");
}
