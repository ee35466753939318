//! The failover-serving scenario: a device failure survived mid-run.
//!
//! A victim KVS tenant and a co-resident background MLAgg tenant (on
//! disjoint routes) are deployed and driven through four phases:
//!
//! 1. **pre** — both tenants serve; a baseline admit ratio is recorded;
//! 2. **fault window** — a seeded [`FaultPlan`] marks one of the victim's
//!    devices [`Down`](clickinc_runtime::DeviceHealth::Down) on the
//!    workload's virtual clock, mid-injection: packets that reach the dead
//!    device from that instant on are lost and surface as the victim's
//!    `fault_lost_packets`;
//! 3. **failover** — the controller is told
//!    ([`ClickIncService::fail_device`]): the device is marked down in the
//!    topology, the victim is quiesced through the uninstall path and
//!    re-placed through the full plan → verify → admission → commit chain,
//!    whose path enumeration skips the down device.  If no placement
//!    avoiding the failure exists, the victim parks in the typed
//!    [`Degraded`](clickinc::ClickIncError::Degraded) state instead;
//! 4. **restore** — the device returns, parked tenants are retried, and the
//!    victim's post-restore admit ratio is compared against the baseline
//!    ([`FailoverServingReport::recovery_ratio`]).
//!
//! Throughout, the background tenant never routes through the failed device,
//! so its stats and its devices' store fingerprints must be bit-identical to
//! a fault-free run — the blast-radius invariant the failover property tests
//! assert over *generated* fault schedules.
//!
//! [`ClickIncService::fail_device`]: clickinc::ClickIncService::fail_device

use crate::adaptive::PhaseStats;
use crate::house::{self, physical_devices_of};
use clickinc::ClickIncError;
use clickinc_runtime::{
    DeviceHealth, EngineConfig, FaultInjector, FaultPlan, OverloadPolicy, TenantStats,
};
use std::collections::{BTreeMap, BTreeSet};

/// Victim requests per phase.
const REQUESTS_PER_PHASE: usize = 1024;
/// Packets handed to the engine per victim injection round.
const INJECT_BATCH: usize = 64;

/// Sizing of the failover-serving scenario.
#[derive(Debug, Clone)]
pub struct FailoverServingConfig {
    /// Engine shard worker threads.
    pub shards: usize,
    /// Per-shard bound on in-flight packets.
    pub queue_capacity: usize,
    /// What the engine does at the bound.
    pub overload: OverloadPolicy,
    /// Victim key universe.
    pub keys: usize,
    /// Keys pre-installed in the victim's in-network cache.
    pub cached_keys: i64,
    /// Offered load in packets per second (virtual clock).
    pub rate_pps: f64,
    /// Background gradient-aggregation rounds (spread across the phases).
    pub background_rounds: usize,
    /// Workload RNG seed.
    pub seed: u64,
    /// Whether the fault fires.  `false` is the fault-free control: same
    /// phases, same traffic, no fault, no failover — the baseline the
    /// faulted run's co-resident results must match bit-identically.
    pub fail: bool,
}

impl Default for FailoverServingConfig {
    fn default() -> Self {
        FailoverServingConfig {
            shards: 4,
            queue_capacity: 96,
            // backpressure makes admission (and the recovery ratio) exact:
            // a fault costs the victim lost packets, never shed ones
            overload: OverloadPolicy::Backpressure { credits: 256 },
            keys: 2000,
            cached_keys: 128,
            rate_pps: 50_000_000.0,
            background_rounds: 60,
            seed: 31,
            fail: true,
        }
    }
}

/// What the failover-serving scenario leaves behind.
#[derive(Debug, Clone)]
pub struct FailoverServingReport {
    /// Victim admission before the fault.
    pub pre: PhaseStats,
    /// Victim admission during the fault window (packets past the fault
    /// instant are admitted at ingress but lost at the dead device).
    pub faulted: PhaseStats,
    /// Victim admission after the failover re-placement, while the device
    /// is still down.  `None` when the victim parked `Degraded` (no
    /// alternative placement existed until the restore).
    pub recovered: Option<PhaseStats>,
    /// Victim admission after the restore.
    pub post: PhaseStats,
    /// The failed device, when [`FailoverServingConfig::fail`] was set.
    pub failed_device: Option<String>,
    /// Whether the failover re-placed the victim immediately (vs parking it
    /// `Degraded` until the restore).
    pub recovered_immediately: bool,
    /// The victim's (`victim_kvs`) telemetry at the failover, read before
    /// [`ClickIncService::fail_device`] removes it — the fault window's
    /// losses are counted here, since the re-placed victim's counters start
    /// from zero.  The fault-free control reads it at the same point.
    ///
    /// [`ClickIncService::fail_device`]: clickinc::ClickIncService::fail_device
    pub victim_at_failover: TenantStats,
    /// Final telemetry of the victim's last deployment (after the restore):
    /// counted from the re-placement, dated from the fault the victim fled.
    pub victim: TenantStats,
    /// Final telemetry of the co-resident background tenant (`bg_agg`).
    pub bystander: TenantStats,
    /// Physical devices the victim occupied at any point (pre-fault and
    /// every re-placement) — the fault's maximum blast radius.
    pub victim_devices: BTreeSet<String>,
    /// Physical devices hosting the background tenant.
    pub bystander_devices: BTreeSet<String>,
    /// Final object-store fingerprints per device, merged across shards.
    pub store_fingerprints: BTreeMap<String, u64>,
}

impl FailoverServingReport {
    /// Post-restore admits over pre-fault admits (both phases offer the
    /// same request count): ≈ 1 when the failover fully restored service.
    pub fn recovery_ratio(&self) -> f64 {
        if self.pre.admitted == 0 {
            return 1.0;
        }
        self.post.admitted as f64 / self.pre.admitted as f64
    }

    /// Store fingerprints of the devices that host the background tenant
    /// and were never touched by the victim — the set that must match a
    /// fault-free run bit-identically.
    pub fn bystander_fingerprints(&self) -> BTreeMap<String, u64> {
        self.store_fingerprints
            .iter()
            .filter(|(device, _)| {
                self.bystander_devices.contains(*device) && !self.victim_devices.contains(*device)
            })
            .map(|(device, fp)| (device.clone(), *fp))
            .collect()
    }
}

/// Run the device-failure scenario; see the [module docs](self) for the
/// phases.
pub fn serve_failover_scenario(
    config: &FailoverServingConfig,
) -> Result<FailoverServingReport, ClickIncError> {
    let service = house::service(EngineConfig {
        shards: config.shards,
        queue_capacity: config.queue_capacity,
        overload: config.overload.clone(),
    })?;
    let handles = service.deploy_all(house::requests("victim_kvs", "bg_agg"))?;
    house::warm_cache(&handles[0], config.cached_keys);
    let mut victim_devices = physical_devices_of(&service, "victim_kvs");
    let bystander_devices = physical_devices_of(&service, "bg_agg");

    // one victim workload per phase: a failover re-placement mints a fresh
    // numeric id, so each phase stamps the id the isolation guard currently
    // matches.  A parked victim has no id and the phase is skipped.
    let engine = service.engine_handle();
    let run_victim = |seed_offset: u64, faults: FaultPlan| {
        let numeric_id = service.controller().numeric_id_of("victim_kvs")?;
        let mut wl = house::kvs_stream_as(
            "victim_kvs",
            numeric_id,
            config.keys,
            REQUESTS_PER_PHASE,
            config.rate_pps,
            config.seed + seed_offset,
        );
        // an empty plan never fires: the fault-free phases take the same path
        let mut injector = FaultInjector::new(faults);
        let report =
            engine.run_workload_with_faults(&mut wl, usize::MAX, INJECT_BATCH, &mut injector);
        service.flush();
        Some(PhaseStats::from_report(&report))
    };
    let mut bg_wl = house::agg_stream(
        &handles[1],
        config.background_rounds,
        config.rate_pps / 10.0,
        config.seed + 1,
    );
    let bg_chunk = (config.background_rounds * house::AGG_WORKERS).div_ceil(4);
    let mut run_bystander = |limit: usize| {
        engine.run_workload(&mut bg_wl, limit, 32);
        service.flush();
    };

    // the fault target: a victim device the background tenant never routes
    // through, so the blast radius is the victim alone by construction
    let fault_device = victim_devices
        .iter()
        .find(|d| !bystander_devices.contains(*d))
        .cloned()
        .expect("the disjoint-route tenants share no device");

    // phase 1: pre-fault baseline
    let pre = run_victim(0, FaultPlan::new()).expect("victim serves");
    run_bystander(bg_chunk);

    // phase 2: the fault window — the device dies mid-injection on the
    // virtual clock; every later packet crossing it is lost
    let fault_vtime_ns = (REQUESTS_PER_PHASE as f64 / config.rate_pps * 1e9 / 4.0) as u64;
    let mut faults = FaultPlan::new();
    if config.fail {
        faults = faults.at(fault_vtime_ns, fault_device.clone(), DeviceHealth::Down);
    }
    let faulted = run_victim(2, faults).expect("victim still deployed");
    run_bystander(bg_chunk);
    let victim_at_failover =
        service.telemetry().tenant("victim_kvs").cloned().expect("the victim served");

    // phase 3: controller failover — quiesce, re-place (or park Degraded)
    let mut failed_device = None;
    let mut recovered_immediately = true;
    if config.fail {
        let report = service.fail_device(&fault_device)?;
        recovered_immediately = report.fully_recovered();
        victim_devices.extend(physical_devices_of(&service, "victim_kvs"));
        failed_device = Some(fault_device.clone());
    }
    let recovered = run_victim(3, FaultPlan::new());
    run_bystander(bg_chunk);

    // phase 4: restore — parked tenants retry; service is whole again
    if config.fail {
        let report = service.restore_device(&fault_device)?;
        if !report.fully_recovered() {
            // a restored full topology re-places everything it could place
            // before the fault; anything else is a real error worth surfacing
            return Err(report.degraded.into_iter().next().expect("non-empty"));
        }
        victim_devices.extend(physical_devices_of(&service, "victim_kvs"));
    }
    let post = run_victim(4, FaultPlan::new()).expect("victim serves after restore");
    run_bystander(usize::MAX);

    let closed = house::finish(service, "victim_kvs", "bg_agg");
    Ok(FailoverServingReport {
        pre,
        faulted,
        recovered,
        post,
        failed_device,
        recovered_immediately,
        victim_at_failover,
        victim: closed.kvs,
        bystander: closed.agg,
        victim_devices,
        bystander_devices,
        store_fingerprints: closed.store_fingerprints,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::house::tests::{counters, fingerprints};

    #[test]
    fn the_failover_restores_the_victims_service() {
        let report = serve_failover_scenario(&FailoverServingConfig::default())
            .expect("failover scenario serves");
        let device = report.failed_device.clone().expect("a device failed");
        assert!(report.victim_at_failover.fault_lost_packets > 0, "the dead device lost packets");
        assert_eq!(report.victim.fault_lost_packets, 0, "the re-placed victim counts from zero");
        assert_eq!(
            report.victim.fault_vtime_ns, report.victim_at_failover.fault_vtime_ns,
            "the re-placed victim carries the fault it fled"
        );
        assert!(!report.victim_devices.is_empty(), "victim occupied devices");
        assert!(
            !physical_intersects(&report.bystander_devices, &device),
            "the fault never touched the bystander's route"
        );
        assert!(
            report.recovery_ratio() >= 0.9,
            "post-restore service recovered: {:.3} (pre {:?}, post {:?})",
            report.recovery_ratio(),
            report.pre,
            report.post
        );
        assert_eq!(report.bystander.fault_lost_packets, 0, "no bystander losses");
        assert!(!report.bystander_fingerprints().is_empty(), "comparable bystander devices exist");
    }

    #[test]
    fn the_bystander_is_bit_identical_to_a_fault_free_run() {
        let faulted =
            serve_failover_scenario(&FailoverServingConfig::default()).expect("faulted run serves");
        let clean =
            serve_failover_scenario(&FailoverServingConfig { fail: false, ..Default::default() })
                .expect("clean run serves");
        assert_eq!(
            faulted.bystander, clean.bystander,
            "co-resident stats diverged under the fault"
        );
        assert_eq!(
            faulted.bystander_fingerprints(),
            clean.bystander_fingerprints(),
            "co-resident store fingerprints diverged under the fault"
        );
        assert!(faulted.victim_at_failover.fault_lost_packets > 0);
        assert_eq!(clean.victim_at_failover.fault_lost_packets, 0);
        // backpressure sheds nothing and the fault rides the virtual clock,
        // so both runs are pure functions of the config: pinned
        assert_eq!(counters(&faulted.victim_at_failover), [2048, 1280, 964, 0, 316, 0, 768]);
        assert_eq!(counters(&faulted.victim), [1024, 1024, 0, 0, 1024, 0, 0]);
        assert_eq!(counters(&clean.victim_at_failover), [2048, 2048, 1546, 0, 502, 0, 0]);
        assert_eq!(counters(&clean.victim), [4096, 4096, 3096, 0, 1000, 0, 0]);
        assert_eq!(counters(&clean.bystander), [240, 240, 60, 180, 0, 0, 0]);
        assert_eq!(faulted.failed_device.as_deref(), Some("ToR5"));
        assert_eq!(faulted.recovered, None, "the victim parked until the restore");
        assert_eq!(
            faulted.store_fingerprints,
            fingerprints(&[
                ("ToR5", 0x43d9c00c9f7ee2c3),
                ("nic_pod0b", 0x2e772b5a024b79e1),
                ("nic_pod1b", 0x77321396bc7ec6ad),
            ])
        );
        assert_eq!(
            clean.store_fingerprints,
            fingerprints(&[
                ("ToR5", 0x0fc37ee33d8e7313),
                ("nic_pod0b", 0x2e772b5a024b79e1),
                ("nic_pod1b", 0x77321396bc7ec6ad),
            ])
        );
    }

    fn physical_intersects(devices: &BTreeSet<String>, device: &str) -> bool {
        devices.contains(device)
    }
}
