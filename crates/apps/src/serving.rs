//! Engine-backed scenario drivers: the paper's KVS and sparse-MLAgg
//! workloads (Figs. 7/13) deployed through the [`ClickIncService`] facade
//! and served by the sharded traffic engine.
//!
//! The single-threaded scenario loop in `clickinc-emulator` remains as the
//! path-shape ablation (it is what sweeps the five Fig. 13 device chains);
//! *this* module is the default serving path: programs are solved by the
//! service's one admission pipeline, admitted under the provider's
//! resource-floor policy installed on the service, committed
//! transactionally, mirrored onto the engine's shards, and loaded with the
//! open-loop seeded workload generators — no manual hook wiring anywhere.
//!
//! [`ClickIncService`]: clickinc::ClickIncService

use crate::house;
use clickinc::{ClickIncError, ResourceFloor};
use clickinc_runtime::{EngineConfig, OverloadPolicy, ShardingMode, TenantStats};
use std::collections::BTreeMap;

/// Sizing of the engine-served KVS + MLAgg scenario pair.
#[derive(Debug, Clone)]
pub struct ServingConfig {
    /// Engine shard worker threads.
    pub shards: usize,
    /// Packets the generator side hands the engine per inject.
    pub inject_batch: usize,
    /// KVS requests to serve.
    pub kvs_requests: usize,
    /// Hot keys pre-installed in the in-network cache.
    pub cached_keys: i64,
    /// Gradient-aggregation rounds.
    pub agg_rounds: usize,
    /// Offered load per tenant in packets per second (virtual clock).
    pub rate_pps: f64,
    /// Workload RNG seed.
    pub seed: u64,
    /// Admission floor: the batch is refused (typed
    /// [`ClickIncError::Rejected`]) if committing would push the
    /// network-wide remaining resource ratio below this value.
    pub admission_floor: f64,
}

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig {
            shards: 4,
            inject_batch: 128,
            kvs_requests: 2000,
            cached_keys: 64,
            agg_rounds: 200,
            rate_pps: 5_000_000.0,
            seed: 17,
            admission_floor: 0.05,
        }
    }
}

/// What the engine-served scenario pair leaves behind.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingReport {
    /// Telemetry of the KVS tenant (`kvs_srv`).
    pub kvs: TenantStats,
    /// Telemetry of the MLAgg tenant (`mlagg_srv`).
    pub mlagg: TenantStats,
    /// The sharding mode the service derived per tenant from its deployed
    /// program's state profile.
    pub modes: BTreeMap<String, ShardingMode>,
    /// Final object-store fingerprints per device, merged across shards.
    pub store_fingerprints: BTreeMap<String, u64>,
}

/// Deploy the paper's KVS and sparse-MLAgg applications through the
/// [`ClickIncService`](clickinc::ClickIncService) facade (one transactional
/// batch) and serve both seeded open-loop workloads on the sharded engine.
///
/// Returns per-tenant telemetry and the final store fingerprints; a fixed
/// config produces bit-identical reports regardless of the shard count.
pub fn serve_fig13_workloads(config: &ServingConfig) -> Result<ServingReport, ClickIncError> {
    /// KVS key universe of the Fig. 13 pair.
    const KVS_KEYS: usize = 1000;
    let service = house::service(EngineConfig { shards: config.shards, ..Default::default() })?;

    // both applications land (or neither does): one all-or-nothing batch,
    // whose every commit passes the provider's resource-floor admission
    // policy
    service.set_admission_policy(ResourceFloor { min_remaining_ratio: config.admission_floor });
    let handles = service.deploy_all(house::requests("kvs_srv", "mlagg_srv"))?;
    let (kvs, mlagg) = (&handles[0], &handles[1]);
    house::warm_cache(kvs, config.cached_keys);

    let mut kvs_wl =
        house::kvs_stream(kvs, KVS_KEYS, config.kvs_requests, config.rate_pps, config.seed);
    let mut agg_wl = house::agg_stream(mlagg, config.agg_rounds, config.rate_pps, config.seed + 1);
    kvs.run_workload(&mut kvs_wl, usize::MAX, config.inject_batch);
    mlagg.run_workload(&mut agg_wl, usize::MAX, config.inject_batch);

    let modes: BTreeMap<String, ShardingMode> =
        handles.iter().map(|h| (h.user().to_string(), h.sharding_mode().clone())).collect();
    let closed = house::finish(service, "kvs_srv", "mlagg_srv");
    Ok(ServingReport {
        kvs: closed.kvs,
        mlagg: closed.agg,
        modes,
        store_fingerprints: closed.store_fingerprints,
    })
}

/// Sizing of the overload scenario: a hot, flow-sharded KVS tenant driven
/// into saturation against deliberately small bounded ingress queues, next
/// to a background MLAgg tenant.
#[derive(Debug, Clone)]
pub struct OverloadConfig {
    /// Engine shard worker threads.
    pub shards: usize,
    /// Packets the generator side hands the engine per inject.  Larger than
    /// `queue_capacity` by design, so every full-size inject overruns the
    /// bound and the overload policy has to act.
    pub inject_batch: usize,
    /// Per-shard bound on in-flight packets.
    pub queue_capacity: usize,
    /// What the engine does at the bound.
    pub overload: OverloadPolicy,
    /// Requests offered by the hot tenant.
    pub hot_requests: usize,
    /// Hot tenant's key universe.
    pub hot_keys: usize,
    /// Hot keys pre-installed in the in-network cache.
    pub cached_keys: i64,
    /// Background gradient-aggregation rounds.
    pub background_rounds: usize,
    /// Workload RNG seed.
    pub seed: u64,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            shards: 2,
            inject_batch: 256,
            queue_capacity: 96,
            overload: OverloadPolicy::DropTail,
            hot_requests: 4000,
            hot_keys: 2000,
            cached_keys: 128,
            background_rounds: 100,
            seed: 23,
        }
    }
}

/// What the overload scenario leaves behind: per-tenant telemetry including
/// the congestion counters, the admission split, and how many shards the hot
/// tenant actually spread across.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadReport {
    /// Telemetry of the hot tenant (`hot_kvs`).
    pub hot: TenantStats,
    /// Telemetry of the background tenant (`bg_agg`).
    pub background: TenantStats,
    /// The sharding mode the service derived for the hot tenant.
    pub hot_mode: ShardingMode,
    /// Packets pulled from the generators.
    pub offered: usize,
    /// Packets the bounded queues admitted.
    pub admitted: usize,
    /// Packets shed under the overload policy.
    pub shed: usize,
    /// Shards that carried hot-tenant traffic (non-zero per-shard packets).
    pub shards_utilized: usize,
}

/// Drive a hot-tenant mix into saturation: a flow-sharded KVS tenant offers
/// far more traffic than the bounded per-shard ingress queues hold, next to
/// a moderate background MLAgg tenant.  Under
/// [`OverloadPolicy::DropTail`] the overrun is shed and reported; under
/// [`OverloadPolicy::Backpressure`] the open-loop generator is throttled
/// against the credit budget instead.  Either way the overload is *modeled*:
/// admitted/shed splits come back from the drivers and per-tenant
/// `shed_packets` / `backpressure_waits` / `queue_depth_hwm` appear in the
/// telemetry.
pub fn serve_overload_scenario(config: &OverloadConfig) -> Result<OverloadReport, ClickIncError> {
    /// Offered hot-tenant load in packets per second (virtual clock); the
    /// background tenant offers a tenth of it.
    const HOT_RATE_PPS: f64 = 50_000_000.0;
    let service = house::service(EngineConfig {
        shards: config.shards,
        queue_capacity: config.queue_capacity,
        overload: config.overload.clone(),
    })?;
    let handles = service.deploy_all(house::requests("hot_kvs", "bg_agg"))?;
    let (hot, background) = (&handles[0], &handles[1]);
    house::warm_cache(hot, config.cached_keys);

    let mut hot_wl =
        house::kvs_stream(hot, config.hot_keys, config.hot_requests, HOT_RATE_PPS, config.seed);
    let mut bg_wl = house::agg_stream(
        background,
        config.background_rounds,
        HOT_RATE_PPS / 10.0,
        config.seed + 1,
    );
    // the hot tenant floods the bounded queues; the background tenant rides
    // along in the same saturated engine
    let hot_report = hot.run_workload(&mut hot_wl, usize::MAX, config.inject_batch);
    let bg_report = background.run_workload(&mut bg_wl, usize::MAX, config.inject_batch);

    let hot_mode = hot.sharding_mode().clone();
    let closed = house::finish(service, "hot_kvs", "bg_agg");
    let shards_utilized = closed.kvs.per_shard_packets.iter().filter(|&&p| p > 0).count();
    Ok(OverloadReport {
        hot: closed.kvs,
        background: closed.agg,
        hot_mode,
        offered: hot_report.generated + bg_report.generated,
        admitted: hot_report.admitted + bg_report.admitted,
        shed: hot_report.shed + bg_report.shed,
        shards_utilized,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::house::tests::{counters, fingerprints};

    fn small(shards: usize) -> ServingConfig {
        ServingConfig {
            shards,
            inject_batch: 32,
            kvs_requests: 600,
            agg_rounds: 60,
            ..Default::default()
        }
    }

    /// Clear the per-counter-block vector so reports taken at different
    /// shard counts become comparable: a flow-sharded tenant has one block
    /// per shard, so the vector's *length* tracks the engine sizing even
    /// though every aggregate it feeds is invariant.
    fn normalized(mut report: ServingReport) -> ServingReport {
        report.kvs.per_shard_packets.clear();
        report.mlagg.per_shard_packets.clear();
        report
    }

    #[test]
    fn the_engine_serves_both_applications_end_to_end() {
        let report = serve_fig13_workloads(&small(2)).expect("scenario serves");
        assert_eq!(report.kvs.packets, 600);
        assert_eq!(report.kvs.completed, 600);
        assert!(
            report.kvs.hit_ratio > 0.3,
            "hot keys answered in-network: {}",
            report.kvs.hit_ratio
        );
        assert!(report.mlagg.hits > 0, "completed aggregates bounce back");
        assert!(report.mlagg.drops > 0, "partial aggregates are absorbed in-network");
        assert!(report.kvs.goodput_gbps > 0.0 && report.mlagg.goodput_gbps > 0.0);
        assert_eq!(report.kvs.shed_packets, 0, "ample queues shed nothing");
        assert!(!report.store_fingerprints.is_empty());
    }

    /// Nothing is shed, so the run is a pure function of the config: a
    /// changed counter or stored bit is a behaviour change.
    #[test]
    fn the_fig13_pair_serves_the_pinned_counters_and_stores() {
        let report = serve_fig13_workloads(&small(2)).expect("scenario serves");
        assert_eq!(counters(&report.kvs), [600, 600, 427, 0, 173, 0, 0]);
        assert_eq!(counters(&report.mlagg), [240, 240, 60, 180, 0, 0, 0]);
        assert_eq!(
            report.store_fingerprints,
            fingerprints(&[
                ("ToR5", 0xd1050e2bc799652b),
                ("nic_pod0b", 0x227b90c0a2df6ca1),
                ("nic_pod1b", 0x08e663c2e7bd4c67),
            ])
        );
    }

    #[test]
    fn an_impossible_admission_floor_rejects_the_whole_batch() {
        let config = ServingConfig { admission_floor: 1.0, ..small(2) };
        let err = serve_fig13_workloads(&config).map(|_| ()).unwrap_err();
        assert!(
            matches!(&err, ClickIncError::Rejected { policy, .. } if policy == "resource_floor"),
            "got {err}"
        );
    }

    #[test]
    fn served_scenario_is_invariant_in_the_shard_count() {
        let one = serve_fig13_workloads(&small(1)).expect("1 shard serves");
        let four = serve_fig13_workloads(&small(4)).expect("4 shards serve");
        assert_eq!(
            normalized(one),
            normalized(four),
            "sharding is an optimization, not a semantics change"
        );
    }

    #[test]
    fn droptail_overload_sheds_observably_and_serves_whatever_was_admitted() {
        let config =
            OverloadConfig { hot_requests: 2000, background_rounds: 40, ..Default::default() };
        let report = serve_overload_scenario(&config).expect("overload scenario serves");
        assert_eq!(report.offered, 2000 + 40 * 4);
        assert_eq!(report.admitted + report.shed, report.offered, "every packet is accounted");
        // the inject batch (256) exceeds the per-shard bound (96), so
        // drop-tail must shed — and the sheds are visible both in the driver
        // report and in the per-tenant telemetry
        assert!(report.shed > 0, "saturation sheds under drop-tail");
        assert!(report.hot.shed_packets > 0, "sheds surface in the hot tenant's telemetry");
        assert_eq!(
            report.hot.shed_packets + report.background.shed_packets,
            report.shed as u64,
            "driver-side and telemetry-side sheds agree"
        );
        // admitted traffic still completes exactly
        assert_eq!(report.hot.completed, report.hot.packets);
        assert_eq!(report.background.completed, report.background.packets);
        // the hot tenant is flow-sharded by its request key and really uses
        // more than one shard
        assert!(
            report.hot_mode.is_by_flow(),
            "KVS state profile flow-shards: {:?}",
            report.hot_mode
        );
        assert!(report.shards_utilized > 1, "a single hot tenant spreads past one shard");
    }

    #[test]
    fn backpressure_throttles_the_generator_instead_of_shedding() {
        let config = OverloadConfig {
            overload: OverloadPolicy::Backpressure { credits: 64 },
            hot_requests: 2000,
            background_rounds: 40,
            ..Default::default()
        };
        let report = serve_overload_scenario(&config).expect("overload scenario serves");
        assert_eq!(report.shed, 0, "credits absorb the whole stream");
        assert_eq!(report.admitted, report.offered);
        assert!(
            report.hot.backpressure_waits > 0,
            "the open-loop generator was throttled at least once"
        );
        assert_eq!(report.hot.completed, report.hot.packets);
        assert_eq!(report.hot.shed_packets, 0);
        // with nothing shed the run is timing-independent, so its counters
        // are pinned (drop-tail sheds vary run to run: that policy pins only
        // its accounting, in the test above)
        assert_eq!(counters(&report.hot), [2000, 2000, 1518, 0, 482, 0, 0]);
        assert_eq!(counters(&report.background), [160, 160, 40, 120, 0, 0, 0]);
    }
}
