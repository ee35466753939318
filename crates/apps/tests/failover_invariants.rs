//! Failure-recovery invariants, property-tested over *generated* fault
//! schedules (ROADMAP item 5's failure-injection half, framed as
//! machine-checked invariants rather than one-off scenarios):
//!
//! 1. **Blast radius** — after any seeded [`FaultPlan`] over the victim's
//!    exclusive devices (applied mid-run on the workload's virtual clock,
//!    followed by controller failover and restore for every outage), a
//!    co-resident tenant on disjoint routes has bit-identical stats and
//!    store fingerprints to a fault-free run.
//! 2. **Recovery** — every affected tenant serves again after the restore
//!    (or surfaced as typed `Degraded` in between, never silently dropped).
//! 3. **Ledger balance** — the fault → quiesce → re-place → restore →
//!    re-place round-trip releases exactly what it booked: removing every
//!    tenant afterwards returns the ledger to a full network.

use clickinc::ServiceRequest;
use clickinc_apps::house::{self, physical_devices_of as devices_of};
use clickinc_lang::templates::{kvs_template, mlagg_template, KvsParams, MlAggParams};
use clickinc_runtime::workload::{KvsWorkload, MlAggWorkload, MlAggWorkloadConfig};
use clickinc_runtime::{EngineConfig, FaultInjector, FaultPlan, TenantStats};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

const REQUESTS: usize = 256;
const RATE_PPS: f64 = 50_000_000.0;

#[derive(Debug, Clone)]
struct RunResult {
    bystander: TenantStats,
    fingerprints: BTreeMap<String, u64>,
    victim_union: BTreeSet<String>,
    bystander_devices: BTreeSet<String>,
}

impl RunResult {
    /// Fingerprints of the devices hosting the bystander that the victim
    /// never occupied — the set the blast-radius invariant compares.
    fn bystander_fingerprints(&self, also_exclude: &BTreeSet<String>) -> BTreeMap<String, u64> {
        self.fingerprints
            .iter()
            .filter(|(d, _)| {
                self.bystander_devices.contains(*d)
                    && !self.victim_union.contains(*d)
                    && !also_exclude.contains(*d)
            })
            .map(|(d, fp)| (d.clone(), *fp))
            .collect()
    }
}

fn victim_workload(numeric_id: i64, seed: u64) -> KvsWorkload {
    house::kvs_stream_as("victim_kvs", numeric_id, 500, REQUESTS, RATE_PPS, seed)
}

/// Drive the two-tenant system through a fault schedule (or none), the
/// controller failover for every outage, and the restore; assert the
/// recovery invariants along the way.  `remove_and_balance` trades the final
/// stores (wiped by removal) for the ledger-balance assertion.
fn run(fault: Option<(u64, usize)>, remove_and_balance: bool) -> RunResult {
    let service =
        house::service(EngineConfig { shards: 2, ..Default::default() }).expect("valid config");
    let handles = service
        .deploy_all(vec![
            ServiceRequest::builder("victim_kvs")
                .template(kvs_template(
                    "victim_kvs",
                    KvsParams { cache_depth: 1000, ..Default::default() },
                ))
                .from_("pod0a")
                .from_("pod1a")
                .to("pod2b")
                .build()
                .expect("valid request"),
            ServiceRequest::builder("bg_agg")
                .template(mlagg_template(
                    "bg_agg",
                    MlAggParams { dims: 8, num_workers: 2, num_aggregators: 256, is_float: false },
                ))
                .from_("pod0b")
                .from_("pod1b")
                .to("pod2a")
                .build()
                .expect("valid request"),
        ])
        .expect("both tenants deploy");
    let mut victim_union = devices_of(&service, "victim_kvs");
    let bystander_devices = devices_of(&service, "bg_agg");
    let candidates: Vec<String> = victim_union.difference(&bystander_devices).cloned().collect();
    assert!(!candidates.is_empty(), "the victim has exclusive devices to fail");

    let engine = service.engine_handle();
    // the bystander's stream is identical in every run, fault or not
    let mut bg = MlAggWorkload::new(MlAggWorkloadConfig {
        tenant: "bg_agg".to_string(),
        user_id: handles[1].numeric_id(),
        workers: 2,
        rounds: 12,
        dims: 8,
        sparsity: 0.5,
        block_size: 4,
        rate_pps: RATE_PPS / 10.0,
        seed: 7,
    });
    engine.run_workload(&mut bg, usize::MAX, 16);

    // the victim's fault schedule rides its workload's virtual clock
    let horizon_ns = (REQUESTS as f64 / RATE_PPS * 1e9) as u64;
    let plan = match fault {
        Some((seed, faults)) => FaultPlan::random(seed, &candidates, horizon_ns, faults),
        None => FaultPlan::new(),
    };
    let outages = plan.outage_devices();
    let mut injector = FaultInjector::new(plan);
    let mut wl = victim_workload(handles[0].numeric_id(), 11);
    engine.run_workload_with_faults(&mut wl, usize::MAX, 16, &mut injector);
    service.flush();

    // controller failover for every outage…
    for device in &outages {
        service.fail_device(device).expect("known device");
        victim_union.extend(devices_of(&service, "victim_kvs"));
    }
    // …the victim either serves from its new placement or is parked typed
    let victim_id = service.controller().numeric_id_of("victim_kvs");
    if let Some(numeric_id) = victim_id {
        let mut wl = victim_workload(numeric_id, 13);
        engine.run_workload(&mut wl, usize::MAX, 16);
        service.flush();
    } else {
        assert_eq!(
            service.degraded_tenants(),
            vec!["victim_kvs".to_string()],
            "an unplaceable tenant parks Degraded, it is never dropped"
        );
    }
    // …and every restore retries the parked tenants
    for device in &outages {
        service.restore_device(device).expect("restores");
    }
    victim_union.extend(devices_of(&service, "victim_kvs"));
    assert!(service.degraded_tenants().is_empty(), "the restore revived every parked tenant");
    assert!(service.active_users().contains(&"victim_kvs".to_string()));

    // the recovered victim serves again
    let before = service.telemetry().tenant("victim_kvs").map(|t| t.completed).unwrap_or(0);
    let numeric_id = service.controller().numeric_id_of("victim_kvs").expect("serving");
    let mut wl = victim_workload(numeric_id, 17);
    engine.run_workload(&mut wl, usize::MAX, 16);
    service.flush();
    let after = service.telemetry().tenant("victim_kvs").map(|t| t.completed).unwrap_or(0);
    assert!(after > before, "the recovered victim completes requests again");

    // read before the removals below, which take a tenant out of the report
    let bystander = service.telemetry().tenant("bg_agg").cloned().expect("bystander served");
    if remove_and_balance {
        service.remove("victim_kvs").expect("removes the victim");
        service.remove("bg_agg").expect("removes the bystander");
        assert_eq!(
            service.remaining_resource_ratio(),
            1.0,
            "the failover round-trip left the ledger balanced"
        );
    }

    let outcome = service.finish();
    RunResult {
        bystander,
        fingerprints: outcome.store_fingerprints(),
        victim_union,
        bystander_devices,
    }
}

fn clean_baseline() -> &'static RunResult {
    static BASELINE: OnceLock<RunResult> = OnceLock::new();
    BASELINE.get_or_init(|| run(None, false))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn co_residents_are_bit_identical_under_any_fault_schedule(
        seed in 0u64..1_000,
        faults in 1usize..4,
    ) {
        let faulted = run(Some((seed, faults)), false);
        let clean = clean_baseline();
        prop_assert_eq!(
            &faulted.bystander,
            &clean.bystander,
            "co-resident stats diverged under fault schedule seed={} faults={}",
            seed,
            faults
        );
        prop_assert_eq!(faulted.bystander.fault_lost_packets, 0);
        let comparable = faulted.bystander_fingerprints(&clean.victim_union);
        prop_assert!(!comparable.is_empty(), "comparable bystander devices exist");
        prop_assert_eq!(
            comparable,
            clean.bystander_fingerprints(&faulted.victim_union),
            "co-resident store fingerprints diverged under the fault schedule"
        );
    }

    #[test]
    fn failover_round_trips_leave_the_ledger_balanced(
        seed in 0u64..1_000,
        faults in 1usize..4,
    ) {
        // the balance assertions live inside the harness
        run(Some((seed, faults)), true);
    }
}
