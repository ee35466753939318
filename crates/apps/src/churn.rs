//! The tenant-churn scenario: a provider's arrival queue sustained against
//! a live serving engine.
//!
//! A long sequence of tenants (1000 by default) arrives one at a time,
//! cycling through a small pool of program *shapes* (KVS, MLAgg, CMS with
//! varied parameters) under fresh tenant names — exactly the multi-tenant
//! regime the placement memo is built for: after the pool's first lap every
//! segment-allocation subproblem is answered from the cache, so the steady
//! state solves far faster than the opening arrivals.
//!
//! The service runs with a [`MaxTenants`] resident cap, so the scenario
//! continuously exercises the *reactive admission pipeline*: once the house
//! is full, arrivals are refused and parked in the retry queue
//! ([`ClickIncService::deploy_or_queue`]); after a few refusals a batch of
//! the oldest residents departs, and each removal's auto-drain admits the
//! highest-priority waiter into the freed slot.  Every direct admission's
//! end-to-end latency (plan + gate + commit + engine mirror) is recorded;
//! the report carries the p50/p99 and the solve-cache counters;
//! `benchmark/`'s `churn_warm` workload times the same arrival pattern, and
//! `tests/warm_start.rs` holds warm solves bit-identical to memo-less ones.
//!
//! Periodically, a freshly admitted KVS tenant also serves a burst of
//! requests through the sharded engine — churn is measured *while traffic
//! flows*, not against an idle control plane.

use crate::house;
use clickinc::{ClickIncError, MaxTenants, ServiceRequest};
use clickinc_lang::templates::{
    count_min_sketch, kvs_template, mlagg_template, KvsParams, MlAggParams,
};
use clickinc_runtime::EngineConfig;
use std::collections::{BTreeSet, VecDeque};
use std::time::Instant;

/// After this many consecutive refusals, a departure batch frees slots (and
/// the auto-drain admits waiters into them).
const PURGE_AFTER_REJECTIONS: usize = 3;
/// Oldest residents departing per purge.
const PURGE_BATCH: usize = 4;
/// Arrival priorities cycle `0..PRIORITY_LEVELS`; the retry queue drains the
/// highest first.
const PRIORITY_LEVELS: usize = 4;

/// Sizing of the churn scenario.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Total tenant arrivals over the scenario's lifetime.
    pub tenants: usize,
    /// Resident cap: the admission policy's [`MaxTenants`] limit.  The
    /// population fills to the cap, hovers there, and churns through it for
    /// the rest of the run.
    pub resident_cap: usize,
    /// Number of distinct program shapes the arrivals cycle through.
    /// Smaller pools mean more shape reuse and a hotter placement memo.
    pub shape_pool: usize,
    /// Engine shard worker threads.
    pub shards: usize,
    /// Serve a KVS burst through the engine every this many admissions
    /// (0 disables serving; the scenario then measures the control plane
    /// alone).
    pub serve_every: usize,
    /// Requests per serving burst.
    pub burst_requests: usize,
    /// Workload RNG seed.
    pub seed: u64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            tenants: 1000,
            resident_cap: 10,
            shape_pool: 6,
            shards: 2,
            serve_every: 50,
            burst_requests: 512,
            seed: 23,
        }
    }
}

/// What a churn run leaves behind.
#[derive(Debug, Clone)]
pub struct ChurnReport {
    /// Tenant arrivals offered.
    pub arrivals: usize,
    /// Arrivals admitted on first contact.
    pub admitted_directly: usize,
    /// Arrivals refused by the resident cap, parked, and admitted later by
    /// a departure's queue drain.
    pub admitted_from_queue: usize,
    /// Departures (purge-batch removals of the oldest residents).
    pub departures: usize,
    /// Arrivals that failed outright (infeasible placement on the crowded
    /// network, …) — not admission refusals, so never queued.
    pub failed: usize,
    /// Requests still waiting in the retry queue when the run ended.
    pub left_queued: usize,
    /// Median direct-admission end-to-end latency (plan + gate + commit +
    /// engine mirror) in milliseconds.
    pub admit_p50_ms: f64,
    /// 99th-percentile direct-admission latency in milliseconds.
    pub admit_p99_ms: f64,
    /// Mean direct-admission latency in milliseconds.
    pub admit_mean_ms: f64,
    /// Segment-memo hits across the whole run.
    pub solve_cache_hits: u64,
    /// Segment-memo misses across the whole run.
    pub solve_cache_misses: u64,
    /// `hits / (hits + misses)` of the segment memo.
    pub solve_cache_hit_ratio: f64,
    /// Packets served by the periodic KVS bursts while the churn ran.
    pub packets_served: u64,
}

/// Nearest-rank percentile over an ascending-sorted sample.
fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted_ms.len() as f64).ceil() as usize;
    sorted_ms[rank.clamp(1, sorted_ms.len()) - 1]
}

/// The arrival's request: shape `i % shape_pool`, fresh tenant name, cycling
/// priority.  Parameters vary *per shape slot* (not per tenant), so tenants
/// sharing a slot share a canonical program shape — the memo's unit of reuse.
fn churn_request(i: usize, config: &ChurnConfig) -> ServiceRequest {
    let slot = i % config.shape_pool.max(1);
    let user = format!("churn{i}");
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
                    dims: 16 + 8 * (slot as u32 / 3),
                    num_aggregators: 512,
                    ..Default::default()
                },
            ))
            .from_("pod1a"),
        _ => builder.template(count_min_sketch(&user, 3, 512 << (slot / 3))).from_("pod0b"),
    };
    builder
        .to("pod2b")
        .priority((i % PRIORITY_LEVELS) as u8)
        .build()
        .expect("churn request is well-formed")
}

/// Run the churn scenario; see the [module docs](self).
pub fn run_churn_scenario(config: &ChurnConfig) -> Result<ChurnReport, ClickIncError> {
    let service =
        house::service(EngineConfig { shards: config.shards.max(1), ..Default::default() })?;
    service.set_admission_policy(MaxTenants { max_tenants: config.resident_cap });

    // residents in arrival order (oldest first = next to depart)
    let mut residents: VecDeque<String> = VecDeque::new();
    let mut known_active: BTreeSet<String> = BTreeSet::new();
    let mut latencies_ms: Vec<f64> = Vec::with_capacity(config.tenants);
    let mut admitted_directly = 0usize;
    let mut admitted_from_queue = 0usize;
    let mut departures = 0usize;
    let mut failed = 0usize;
    let mut packets_served = 0u64;
    let mut admissions_since_burst = 0usize;
    let mut rejections_since_purge = 0usize;

    for i in 0..config.tenants {
        let request = churn_request(i, config);
        let started = Instant::now();
        match service.deploy_or_queue(request) {
            Ok(handle) => {
                latencies_ms.push(started.elapsed().as_secs_f64() * 1e3);
                admitted_directly += 1;
                known_active.insert(handle.user().to_string());
                residents.push_back(handle.user().to_string());
                admissions_since_burst += 1;
                if config.serve_every > 0
                    && admissions_since_burst >= config.serve_every
                    && (i % config.shape_pool.max(1)).is_multiple_of(3)
                {
                    admissions_since_burst = 0;
                    packets_served += serve_burst(&handle, config, i as u64);
                }
            }
            Err(ClickIncError::Rejected { .. }) => {
                // parked in the retry queue; a purge's departures drain it
                rejections_since_purge += 1;
                if rejections_since_purge >= PURGE_AFTER_REJECTIONS {
                    rejections_since_purge = 0;
                    for _ in 0..PURGE_BATCH.min(residents.len()).max(1) {
                        let Some(oldest) = residents.pop_front() else { break };
                        known_active.remove(&oldest);
                        service.remove(&oldest)?;
                        departures += 1;
                        // each removal's auto-drain may admit a waiter: fold
                        // the newly active users into the resident window
                        for user in service.active_users() {
                            if known_active.insert(user.clone()) {
                                residents.push_back(user);
                                admitted_from_queue += 1;
                            }
                        }
                    }
                }
            }
            Err(_) => failed += 1,
        }
    }

    let left_queued = service.retry_queue_len();
    let cache = service.controller().solve_cache_stats();
    service.finish();

    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let mean = if latencies_ms.is_empty() {
        0.0
    } else {
        latencies_ms.iter().sum::<f64>() / latencies_ms.len() as f64
    };
    Ok(ChurnReport {
        arrivals: config.tenants,
        admitted_directly,
        admitted_from_queue,
        departures,
        failed,
        left_queued,
        admit_p50_ms: percentile(&latencies_ms, 50.0),
        admit_p99_ms: percentile(&latencies_ms, 99.0),
        admit_mean_ms: mean,
        solve_cache_hits: cache.hits,
        solve_cache_misses: cache.misses,
        solve_cache_hit_ratio: cache.hit_ratio(),
        packets_served,
    })
}

/// A short KVS burst through the engine on a freshly admitted tenant: the
/// churn is sustained *while serving*, not against an idle engine.
fn serve_burst(handle: &clickinc::TenantHandle, config: &ChurnConfig, seed_offset: u64) -> u64 {
    // pre-populate a few cache lines so some requests hit in-network
    house::warm_cache(handle, 16);
    let seed = config.seed + seed_offset;
    let mut wl = house::kvs_stream(handle, 256, config.burst_requests, 10_000_000.0, seed);
    let report = handle.run_workload(&mut wl, usize::MAX, 128);
    report.admitted as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_sustains_arrivals_departures_and_the_retry_queue() {
        let report = run_churn_scenario(&ChurnConfig {
            tenants: 60,
            resident_cap: 6,
            shape_pool: 4,
            serve_every: 5,
            burst_requests: 64,
            ..Default::default()
        })
        .expect("churn scenario runs");
        assert_eq!(report.arrivals, 60);
        assert_eq!(report.failed, 0, "every churn request places on the emulation topology");
        // who gets in, and when, is pinned: refusing a full house before the
        // solve must not change a single admission
        assert_eq!(
            (
                report.admitted_directly,
                report.admitted_from_queue,
                report.departures,
                report.left_queued
            ),
            (19, 39, 52, 2),
            "(direct, from queue, departures, left queued)"
        );
        assert_eq!(
            report.admitted_directly + report.admitted_from_queue + report.left_queued,
            60,
            "every arrival is admitted (directly or from the queue) or still waiting"
        );
        assert!(report.admit_p99_ms >= report.admit_p50_ms);
        assert!(report.solve_cache_hits > 0, "shape reuse must hit the memo");
        assert!(report.packets_served > 0, "the engine served traffic during the churn");
    }
}
