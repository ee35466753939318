//! The failover-serving scenario: a device failure survived mid-run.
//!
//! A victim KVS tenant and a co-resident background MLAgg tenant (on
//! disjoint routes) are deployed and driven through four phases:
//!
//! 1. **pre** — both tenants serve; a baseline admit ratio is recorded;
//! 2. **fault window** — a seeded [`FaultPlan`] marks one of the victim's
//!    devices [`DeviceDown`](clickinc_runtime::FaultKind::DeviceDown) on the
//!    workload's virtual clock, mid-injection: packets that reach the dead
//!    device from that instant on are lost and surface as the victim's
//!    `fault_lost_packets`;
//! 3. **failover** — the controller is told
//!    ([`ClickIncService::fail_device`]): the device is marked down in the
//!    topology, the victim is quiesced through the uninstall path and
//!    re-placed through the full plan → verify → admission → commit chain
//!    with a denylist seeded from the failed-device set.  If no placement
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

use crate::adaptive::PhaseStats;
use clickinc::{ClickIncError, ClickIncService, ServiceRequest};
use clickinc_emulator::kvs_backend_value;
use clickinc_ir::Value;
use clickinc_lang::templates::{kvs_template, mlagg_template, KvsParams, MlAggParams};
use clickinc_runtime::workload::{
    KvsWorkload, KvsWorkloadConfig, MlAggWorkload, MlAggWorkloadConfig, Workload,
};
use clickinc_runtime::{
    EngineConfig, FaultInjector, FaultKind, FaultPlan, OverloadPolicy, TenantStats, WorkloadReport,
};
use clickinc_topology::Topology;
use std::collections::{BTreeMap, BTreeSet};

/// Sizing of the failover-serving scenario.
#[derive(Debug, Clone)]
pub struct FailoverServingConfig {
    /// Engine shard worker threads.
    pub shards: usize,
    /// Packets per device-queue drain batch.
    pub batch_size: usize,
    /// Per-shard bound on in-flight packets.
    pub queue_capacity: usize,
    /// What the engine does at the bound.
    pub overload: OverloadPolicy,
    /// Victim requests per phase.
    pub requests_per_phase: usize,
    /// Packets handed to the engine per injection round.
    pub inject_batch: usize,
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
            batch_size: 64,
            queue_capacity: 96,
            // backpressure makes admission (and the recovery ratio) exact:
            // a fault costs the victim lost packets, never shed ones
            overload: OverloadPolicy::Backpressure { credits: 256 },
            requests_per_phase: 1024,
            inject_batch: 64,
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
    /// Final telemetry of the victim (`victim_kvs`), fault metrics included.
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

fn phase(report: &WorkloadReport) -> PhaseStats {
    PhaseStats { offered: report.generated, admitted: report.admitted, shed: report.shed }
}

fn physical_devices_of(service: &ClickIncService, user: &str) -> BTreeSet<String> {
    let controller = service.controller();
    controller
        .devices_of(user)
        .into_iter()
        .map(|id| controller.topology().node(id).name.clone())
        .collect()
}

/// Run the device-failure scenario; see the [module docs](self) for the
/// phases.
pub fn serve_failover_scenario(
    config: &FailoverServingConfig,
) -> Result<FailoverServingReport, ClickIncError> {
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
        ServiceRequest::builder("victim_kvs")
            .template(kvs_template(
                "victim_kvs",
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
    let victim = &handles[0];
    for key in 0..config.cached_keys {
        victim.populate_table(
            "victim_kvs_cache",
            vec![Value::Int(key)],
            vec![Value::Int(kvs_backend_value(key))],
        );
    }
    let mut victim_devices = physical_devices_of(&service, "victim_kvs");
    let bystander_devices = physical_devices_of(&service, "bg_agg");

    // one victim workload per phase: a failover re-placement mints a fresh
    // numeric id, so each phase stamps the id the isolation guard currently
    // matches.  A parked victim has no id and the phase is skipped.
    let engine = service.engine_handle();
    let run_victim = |seed_offset: u64, injector: Option<&mut FaultInjector>| {
        let numeric_id = service.controller().numeric_id_of("victim_kvs")?;
        let mut wl = KvsWorkload::new(KvsWorkloadConfig {
            tenant: "victim_kvs".to_string(),
            user_id: numeric_id,
            keys: config.keys,
            skew: 1.1,
            requests: config.requests_per_phase,
            rate_pps: config.rate_pps,
            seed: config.seed + seed_offset,
        });
        let wl: &mut dyn Workload = &mut wl;
        let report = match injector {
            Some(injector) => {
                engine.run_workload_with_faults(wl, usize::MAX, config.inject_batch, injector)
            }
            None => engine.run_workload(wl, usize::MAX, config.inject_batch),
        };
        service.flush();
        Some(report)
    };
    let mut bg_wl = MlAggWorkload::new(MlAggWorkloadConfig {
        tenant: "bg_agg".to_string(),
        user_id: handles[1].numeric_id(),
        workers: 4,
        rounds: config.background_rounds,
        dims: 16,
        sparsity: 0.5,
        block_size: 8,
        rate_pps: config.rate_pps / 10.0,
        seed: config.seed + 1,
    });
    let bg_chunk = (config.background_rounds * 4).div_ceil(4);
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
    let pre = run_victim(0, None).expect("victim serves");
    run_bystander(bg_chunk);

    // phase 2: the fault window — the device dies mid-injection on the
    // virtual clock; every later packet crossing it is lost
    let fault_vtime_ns = (config.requests_per_phase as f64 / config.rate_pps * 1e9 / 4.0) as u64;
    let faulted = if config.fail {
        let plan = FaultPlan::new().at(fault_vtime_ns, fault_device.clone(), FaultKind::DeviceDown);
        let mut injector = FaultInjector::new(plan);
        let report = run_victim(2, Some(&mut injector)).expect("victim still deployed");
        phase(&report)
    } else {
        phase(&run_victim(2, None).expect("victim serves"))
    };
    run_bystander(bg_chunk);

    // phase 3: controller failover — quiesce, re-place (or park Degraded)
    let mut failed_device = None;
    let mut recovered_immediately = true;
    if config.fail {
        let report = service.fail_device(&fault_device)?;
        recovered_immediately = report.fully_recovered();
        victim_devices.extend(physical_devices_of(&service, "victim_kvs"));
        failed_device = Some(fault_device.clone());
    }
    let recovered = run_victim(3, None).map(|r| phase(&r));
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
    let post = run_victim(4, None).expect("victim serves after restore");
    run_bystander(usize::MAX);

    let outcome = service.finish();
    let stats = |user: &str| {
        outcome.telemetry.tenant(user).cloned().unwrap_or_else(|| panic!("{user} was served"))
    };
    Ok(FailoverServingReport {
        pre: phase(&pre),
        faulted,
        recovered,
        post: phase(&post),
        failed_device,
        recovered_immediately,
        victim: stats("victim_kvs"),
        bystander: stats("bg_agg"),
        victim_devices,
        bystander_devices,
        store_fingerprints: outcome
            .stores
            .iter()
            .map(|(device, store)| (device.clone(), store.fingerprint()))
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_failover_restores_the_victims_service() {
        let report = serve_failover_scenario(&FailoverServingConfig::default())
            .expect("failover scenario serves");
        let device = report.failed_device.clone().expect("a device failed");
        assert!(report.victim.fault_lost_packets > 0, "the dead device lost packets");
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
        assert!(faulted.victim.fault_lost_packets > 0);
        assert_eq!(clean.victim.fault_lost_packets, 0);
    }

    fn physical_intersects(devices: &BTreeSet<String>, device: &str) -> bool {
        devices.contains(device)
    }
}
