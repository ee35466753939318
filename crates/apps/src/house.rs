//! The house every served scenario stands up: one [`ClickIncService`] over
//! the all-Tofino emulation topology, a KVS cache tenant on
//! `pod0a`+`pod1a`→`pod2b` next to a sparse-MLAgg tenant on
//! `pod0b`+`pod1b`→`pod2a` (disjoint routes), the cache fill, the two seeded
//! generators, and the per-tenant stats and store fingerprints on the way
//! out (paper §3.2, §7 / Fig. 13).
//!
//! [`serving`](crate::serving), [`adaptive`](crate::adaptive) and
//! [`failover`](crate::failover) are phase scripts over this module; the
//! umbrella package's `live_traffic` example and its `runtime_live` /
//! `service_transactions` tests take their cache fill and KVS stream from it
//! too, so one experiment has one definition.

use clickinc::{ClickIncError, ClickIncService, ServiceRequest, TenantHandle};
use clickinc_emulator::kvs_backend_value;
use clickinc_ir::Value;
use clickinc_lang::templates::{kvs_template, mlagg_template, KvsParams, MlAggParams};
use clickinc_runtime::workload::{
    KvsWorkload, KvsWorkloadConfig, MlAggWorkload, MlAggWorkloadConfig,
};
use clickinc_runtime::{EngineConfig, TenantStats};
use clickinc_topology::Topology;
use std::collections::{BTreeMap, BTreeSet};

/// Zipf skew of every served KVS stream.
const KVS_SKEW: f64 = 1.1;
/// Workers contributing to each MLAgg round.
pub const AGG_WORKERS: usize = 4;
/// Parameter-vector dimensions of every MLAgg gradient packet.
const AGG_DIMS: u32 = 16;

/// A service over the emulation topology with the given engine sizing.
pub fn service(engine: EngineConfig) -> Result<ClickIncService, ClickIncError> {
    ClickIncService::with_config(Topology::emulation_topology_all_tofino(), engine)
}

/// A KVS cache tenant's request: `sources`→`pod2b`, 2000 cache lines.
pub fn kvs_request(user: &str, sources: [&str; 2]) -> ServiceRequest {
    ServiceRequest::builder(user)
        .template(kvs_template(user, KvsParams { cache_depth: 2000, ..Default::default() }))
        .from_(sources[0])
        .from_(sources[1])
        .to("pod2b")
        .build()
        .expect("the KVS request is well-formed")
}

/// The house's two requests, KVS first: one `deploy_all` batch on disjoint
/// routes, so a fault or a flood on one tenant's devices never crosses the
/// other's.
pub fn requests(kvs_user: &str, agg_user: &str) -> Vec<ServiceRequest> {
    let agg = ServiceRequest::builder(agg_user)
        .template(mlagg_template(
            agg_user,
            MlAggParams {
                dims: AGG_DIMS,
                num_workers: AGG_WORKERS as u32,
                num_aggregators: 1024,
                is_float: false,
            },
        ))
        .from_("pod0b")
        .from_("pod1b")
        .to("pod2a")
        .build()
        .expect("the MLAgg request is well-formed");
    vec![kvs_request(kvs_user, ["pod0a", "pod1a"]), agg]
}

/// The backend's value for each of the first `entries` keys, as table rows.
pub fn cache_lines(entries: i64) -> impl Iterator<Item = (Vec<Value>, Vec<Value>)> {
    (0..entries).map(|key| (vec![Value::Int(key)], vec![Value::Int(kvs_backend_value(key))]))
}

/// Pre-install keys `0..entries` in the tenant's isolation-renamed cache
/// (`<user>_cache`) on every hop that declares it.
pub fn warm_cache(tenant: &TenantHandle, entries: i64) {
    let table = format!("{}_cache", tenant.user());
    for (key, value) in cache_lines(entries) {
        tenant.populate_table(&table, key, value);
    }
}

/// The tenant's seeded Zipf request stream.
pub fn kvs_stream(
    tenant: &TenantHandle,
    keys: usize,
    requests: usize,
    rate_pps: f64,
    seed: u64,
) -> KvsWorkload {
    kvs_stream_as(tenant.user(), tenant.numeric_id(), keys, requests, rate_pps, seed)
}

/// [`kvs_stream`] for a caller holding the numeric id rather than a handle:
/// a failover re-placement mints a new id the old handle does not know.
pub fn kvs_stream_as(
    user: &str,
    numeric_id: i64,
    keys: usize,
    requests: usize,
    rate_pps: f64,
    seed: u64,
) -> KvsWorkload {
    KvsWorkload::new(KvsWorkloadConfig {
        tenant: user.to_string(),
        user_id: numeric_id,
        keys,
        skew: KVS_SKEW,
        requests,
        rate_pps,
        seed,
    })
}

/// The sparse-gradient stream of the house's MLAgg tenant: half the blocks
/// of 8 dimensions are zero and elided.
pub fn agg_stream(tenant: &TenantHandle, rounds: usize, rate_pps: f64, seed: u64) -> MlAggWorkload {
    MlAggWorkload::new(MlAggWorkloadConfig {
        tenant: tenant.user().to_string(),
        user_id: tenant.numeric_id(),
        workers: AGG_WORKERS,
        rounds,
        dims: AGG_DIMS as usize,
        sparsity: 0.5,
        block_size: 8,
        rate_pps,
        seed,
    })
}

/// Names of the physical devices hosting `user`'s deployment.
pub fn physical_devices_of(service: &ClickIncService, user: &str) -> BTreeSet<String> {
    let controller = service.controller();
    controller
        .devices_of(user)
        .into_iter()
        .map(|id| controller.topology().node(id).name.clone())
        .collect()
}

/// What a finished house leaves behind.
pub struct Closed {
    /// Final telemetry of the KVS tenant.
    pub kvs: TenantStats,
    /// Final telemetry of the MLAgg tenant.
    pub agg: TenantStats,
    /// Final object-store fingerprints per device, merged across shards.
    pub store_fingerprints: BTreeMap<String, u64>,
}

/// Drain and stop the service and collect both tenants' results.
pub fn finish(service: ClickIncService, kvs_user: &str, agg_user: &str) -> Closed {
    service.flush();
    let outcome = service.finish();
    let stats = |user: &str| {
        outcome.telemetry.tenant(user).cloned().unwrap_or_else(|| panic!("{user} was served"))
    };
    Closed {
        kvs: stats(kvs_user),
        agg: stats(agg_user),
        store_fingerprints: outcome.store_fingerprints(),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// `[packets, completed, hits, drops, to_server, shed_packets,
    /// fault_lost_packets]` — the counters the drivers' tests pin on their
    /// timing-independent runs: a changed value is a behaviour change.
    pub(crate) fn counters(stats: &TenantStats) -> [u64; 7] {
        [
            stats.packets,
            stats.completed,
            stats.hits,
            stats.drops,
            stats.to_server,
            stats.shed_packets,
            stats.fault_lost_packets,
        ]
    }

    pub(crate) fn fingerprints(pinned: &[(&str, u64)]) -> BTreeMap<String, u64> {
        pinned.iter().map(|(device, fp)| (device.to_string(), *fp)).collect()
    }

    #[test]
    fn warm_cache_fills_exactly_the_hops_that_declare_the_table() {
        let service = service(EngineConfig::default()).expect("valid config");
        let handles = service.deploy_all(requests("kvs", "agg")).expect("both deploy");
        let declaring: BTreeSet<String> = handles[0]
            .hops()
            .iter()
            .filter(|hop| {
                hop.snippets.iter().any(|s| s.objects.iter().any(|o| o.name == "kvs_cache"))
            })
            .map(|hop| hop.device.clone())
            .collect();
        assert!(!declaring.is_empty(), "some hop hosts the cache");
        warm_cache(&handles[0], 8);
        // the MLAgg tenant declares no cache: nothing to write anywhere
        warm_cache(&handles[1], 8);

        let outcome = service.finish();
        for (device, store) in &outcome.stores {
            assert!(!store.contains("agg_cache"));
            if !declaring.contains(device) {
                assert!(!store.contains("kvs_cache"), "{device} never declared the cache");
                continue;
            }
            for k in 0..8 {
                assert_eq!(
                    store.table_get("kvs_cache", &[Value::Int(k)]),
                    Value::Int(kvs_backend_value(k)),
                    "{device} key {k}"
                );
            }
            assert_eq!(store.table_get("kvs_cache", &[Value::Int(8)]), Value::None);
        }
        assert!(declaring.iter().all(|device| outcome.stores.contains_key(device)));
    }

    #[test]
    fn store_fingerprints_equal_the_hand_built_map() {
        let service = service(EngineConfig::default()).expect("valid config");
        let handles = service.deploy_all(requests("kvs", "agg")).expect("both deploy");
        warm_cache(&handles[0], 8);
        let outcome = service.finish();
        let by_hand: BTreeMap<String, u64> = outcome
            .stores
            .iter()
            .map(|(device, store)| (device.clone(), store.fingerprint()))
            .collect();
        assert!(!by_hand.is_empty());
        assert_eq!(outcome.store_fingerprints(), by_hand);
    }
}
