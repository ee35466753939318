//! Engine-backed scenario drivers: the paper's KVS and sparse-MLAgg
//! workloads (Figs. 7/13) deployed through the [`ClickIncService`] facade
//! and served by the sharded traffic engine.
//!
//! The single-threaded scenario loop in `clickinc-emulator` remains as the
//! path-shape ablation (it is what sweeps the five Fig. 13 device chains);
//! *this* module is the default serving path: programs are solved by the
//! service's one admission pipeline, admitted under a batch-scoped provider
//! resource-floor policy, committed transactionally,
//! mirrored onto the engine's shards, and loaded with the open-loop seeded
//! workload generators — no manual hook wiring anywhere.

use clickinc::{ClickIncError, ClickIncService, ResourceFloor, ServiceRequest};
use clickinc_emulator::kvs_backend_value;
use clickinc_ir::Value;
use clickinc_lang::templates::{kvs_template, mlagg_template, KvsParams, MlAggParams};
use clickinc_runtime::workload::{
    KvsWorkload, KvsWorkloadConfig, MlAggWorkload, MlAggWorkloadConfig,
};
use clickinc_runtime::{EngineConfig, OverloadPolicy, ShardingMode, TenantStats};
use clickinc_topology::Topology;
use std::collections::BTreeMap;

/// Sizing of the engine-served KVS + MLAgg scenario pair.
#[derive(Debug, Clone)]
pub struct ServingConfig {
    /// Engine shard worker threads.
    pub shards: usize,
    /// Packets per device-queue batch.
    pub batch_size: usize,
    /// KVS requests to serve.
    pub kvs_requests: usize,
    /// KVS key universe size.
    pub kvs_keys: usize,
    /// KVS Zipf skew exponent.
    pub kvs_skew: f64,
    /// Hot keys pre-installed in the in-network cache.
    pub hot_keys: i64,
    /// Gradient-aggregation rounds.
    pub agg_rounds: usize,
    /// Workers contributing per aggregation round.
    pub agg_workers: usize,
    /// Parameter-vector dimensions per gradient packet.
    pub dims: u32,
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
            batch_size: 128,
            kvs_requests: 2000,
            kvs_keys: 1000,
            kvs_skew: 1.1,
            hot_keys: 64,
            agg_rounds: 200,
            agg_workers: 4,
            dims: 16,
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
/// [`ClickIncService`] facade (one transactional batch) and serve both
/// seeded open-loop workloads on the sharded engine.
///
/// Returns per-tenant telemetry and the final store fingerprints; a fixed
/// config produces bit-identical reports regardless of the shard count.
pub fn serve_fig13_workloads(config: &ServingConfig) -> Result<ServingReport, ClickIncError> {
    let service = ClickIncService::with_config(
        Topology::emulation_topology_all_tofino(),
        EngineConfig { shards: config.shards, batch_size: config.batch_size, ..Default::default() },
    )?;

    // both applications land (or neither does): one all-or-nothing batch
    // through the planner, whose every commit passes the provider's
    // resource-floor admission policy
    let planner = service
        .planner()
        .with_policy(ResourceFloor { min_remaining_ratio: config.admission_floor });
    let handles = planner.deploy_all(vec![
        ServiceRequest::builder("kvs_srv")
            .template(kvs_template(
                "kvs_srv",
                KvsParams { cache_depth: 2000, ..Default::default() },
            ))
            .from_("pod0a")
            .from_("pod1a")
            .to("pod2b")
            .build()?,
        ServiceRequest::builder("mlagg_srv")
            .template(mlagg_template(
                "mlagg_srv",
                MlAggParams {
                    dims: config.dims,
                    num_workers: config.agg_workers as u32,
                    num_aggregators: 1024,
                    is_float: false,
                },
            ))
            .from_("pod0b")
            .from_("pod1b")
            .to("pod2a")
            .build()?,
    ])?;
    let (kvs, mlagg) = (&handles[0], &handles[1]);

    // pre-populate the isolation-renamed cache wherever it was placed
    for key in 0..config.hot_keys {
        kvs.populate_table(
            "kvs_srv_cache",
            vec![Value::Int(key)],
            vec![Value::Int(kvs_backend_value(key))],
        );
    }

    let mut kvs_wl = KvsWorkload::new(KvsWorkloadConfig {
        tenant: kvs.user().to_string(),
        user_id: kvs.numeric_id(),
        keys: config.kvs_keys,
        skew: config.kvs_skew,
        requests: config.kvs_requests,
        rate_pps: config.rate_pps,
        seed: config.seed,
    });
    let mut agg_wl = MlAggWorkload::new(MlAggWorkloadConfig {
        tenant: mlagg.user().to_string(),
        user_id: mlagg.numeric_id(),
        workers: config.agg_workers,
        rounds: config.agg_rounds,
        dims: config.dims as usize,
        sparsity: 0.5,
        block_size: 8,
        rate_pps: config.rate_pps,
        seed: config.seed + 1,
    });
    kvs.run_workload(&mut kvs_wl, usize::MAX, config.batch_size);
    mlagg.run_workload(&mut agg_wl, usize::MAX, config.batch_size);
    service.flush();

    let modes: BTreeMap<String, ShardingMode> =
        handles.iter().map(|h| (h.user().to_string(), h.sharding_mode().clone())).collect();
    let outcome = service.finish();
    let stats = |user: &str| {
        outcome.telemetry.tenant(user).cloned().unwrap_or_else(|| panic!("{user} was served"))
    };
    Ok(ServingReport {
        kvs: stats("kvs_srv"),
        mlagg: stats("mlagg_srv"),
        modes,
        store_fingerprints: outcome
            .stores
            .iter()
            .map(|(device, store)| (device.clone(), store.fingerprint()))
            .collect(),
    })
}

/// Sizing of the overload scenario: a hot, flow-sharded KVS tenant driven
/// into saturation against deliberately small bounded ingress queues, next
/// to a background MLAgg tenant.
#[derive(Debug, Clone)]
pub struct OverloadConfig {
    /// Engine shard worker threads.
    pub shards: usize,
    /// Packets per inject batch and per device-queue drain batch.  Larger
    /// than `queue_capacity` by design, so every full-size inject overruns
    /// the bound and the overload policy has to act.
    pub batch_size: usize,
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
    /// Offered hot-tenant load in packets per second (virtual clock).
    pub hot_rate_pps: f64,
    /// Background gradient-aggregation rounds.
    pub background_rounds: usize,
    /// Workload RNG seed.
    pub seed: u64,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            shards: 2,
            batch_size: 256,
            queue_capacity: 96,
            overload: OverloadPolicy::DropTail,
            hot_requests: 4000,
            hot_keys: 2000,
            cached_keys: 128,
            hot_rate_pps: 50_000_000.0,
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
    let service = ClickIncService::with_config(
        Topology::emulation_topology_all_tofino(),
        EngineConfig {
            shards: config.shards,
            batch_size: config.batch_size,
            queue_capacity: config.queue_capacity,
            overload: config.overload.clone(),
        },
    )?;
    let handles = service.deploy_all(vec![
        ServiceRequest::builder("hot_kvs")
            .template(kvs_template(
                "hot_kvs",
                KvsParams { cache_depth: 2000, ..Default::default() },
            ))
            .from_("pod0a")
            .from_("pod1a")
            .to("pod2b")
            .build()?,
        ServiceRequest::builder("bg_agg")
            .template(mlagg_template(
                "bg_agg",
                MlAggParams { dims: 16, num_workers: 4, num_aggregators: 1024, is_float: false },
            ))
            .from_("pod0b")
            .from_("pod1b")
            .to("pod2a")
            .build()?,
    ])?;
    let (hot, background) = (&handles[0], &handles[1]);

    for key in 0..config.cached_keys {
        hot.populate_table(
            "hot_kvs_cache",
            vec![Value::Int(key)],
            vec![Value::Int(kvs_backend_value(key))],
        );
    }

    let mut hot_wl = KvsWorkload::new(KvsWorkloadConfig {
        tenant: hot.user().to_string(),
        user_id: hot.numeric_id(),
        keys: config.hot_keys,
        skew: 1.1,
        requests: config.hot_requests,
        rate_pps: config.hot_rate_pps,
        seed: config.seed,
    });
    let mut bg_wl = MlAggWorkload::new(MlAggWorkloadConfig {
        tenant: background.user().to_string(),
        user_id: background.numeric_id(),
        workers: 4,
        rounds: config.background_rounds,
        dims: 16,
        sparsity: 0.5,
        block_size: 8,
        rate_pps: config.hot_rate_pps / 10.0,
        seed: config.seed + 1,
    });
    // the hot tenant floods the bounded queues; the background tenant rides
    // along in the same saturated engine
    let hot_report = hot.run_workload(&mut hot_wl, usize::MAX, config.batch_size);
    let bg_report = background.run_workload(&mut bg_wl, usize::MAX, config.batch_size);
    service.flush();

    let hot_mode = hot.sharding_mode().clone();
    let outcome = service.finish();
    let stats = |user: &str| {
        outcome.telemetry.tenant(user).cloned().unwrap_or_else(|| panic!("{user} was served"))
    };
    let hot_stats = stats("hot_kvs");
    let shards_utilized = hot_stats.per_shard_packets.iter().filter(|&&p| p > 0).count();
    Ok(OverloadReport {
        hot: hot_stats,
        background: stats("bg_agg"),
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

    fn small(shards: usize) -> ServingConfig {
        ServingConfig {
            shards,
            batch_size: 32,
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
    }
}
