//! The service-level adaptive runtime: the telemetry-driven reconfiguration
//! loop, run at service scope over the tenants the service serves.
//!
//! The decision lives in [`clickinc_runtime::adaptive`]: an
//! [`AdaptiveController`] turns a telemetry snapshot into typed actions.
//! This module runs the loop around it — [`AdaptiveRuntime::step`] is the
//! whole turn:
//!
//! * **Who is adapted** is read from the service itself, never kept in a
//!   list of its own: every tenant the controller runs and the engine hosts,
//!   named with its numeric id.  A removed tenant draws no action and no
//!   fair-share slot; a re-placed one (adaptive or failover) carries a new
//!   numeric id and starts a fresh history.
//! * **Eligibility** is the mode the tenant's program text was found
//!   eligible for when the controller prepared it
//!   ([`PreparedSource::sharding`](crate::controller::PreparedSource::sharding),
//!   the state profile of the isolated, optimized program), the one every
//!   deploy starts from, so the loop can never flow-shard a tenant the
//!   verifier classified as pinned;
//! * **Reshards and budget resizes** are applied on the engine alone — the
//!   controller's ledger and images do not move;
//! * **Replans** are routed through [`ClickIncService::replace_tenant`] —
//!   the service's one admission pipeline — and a refused re-placement
//!   restores the original deployment instead of dropping the tenant.
//!
//! ```
//! use clickinc::{AdaptiveRuntime, ClickIncService, InitialSharding, ServiceRequest};
//! use clickinc_runtime::AdaptivePolicy;
//! use clickinc_topology::Topology;
//!
//! let service = ClickIncService::new(Topology::emulation_topology_all_tofino()).unwrap();
//! // conservative placement: everyone starts on one shard…
//! service.set_initial_sharding(InitialSharding::Pinned);
//! let request = ServiceRequest::builder("kvs0")
//!     .template(clickinc_lang::templates::kvs_template("kvs0", Default::default()))
//!     .from_("pod0a")
//!     .to("pod2b")
//!     .build()
//!     .unwrap();
//! service.deploy(request).unwrap();
//! // …and the control loop spreads tenants only under observed saturation
//! let mut adaptive = AdaptiveRuntime::new(AdaptivePolicy::default());
//! let outcome = adaptive.step(&service); // baseline epoch: observes, acts later
//! assert!(outcome.actions.is_empty());
//! service.finish();
//! ```

use crate::service::ClickIncService;
use crate::ClickIncError;
use clickinc_runtime::adaptive::{AdaptAction, AdaptiveController, AdaptivePolicy};
use clickinc_runtime::ShardingMode;
use std::collections::BTreeMap;

/// What one [`AdaptiveRuntime::step`] observed and did, service-wide.
#[derive(Debug)]
pub struct AdaptiveOutcome {
    /// The loop epoch this step closed (1-based; the first step only
    /// establishes the baseline snapshot and decides nothing).
    pub epoch: u64,
    /// Sequence number of the snapshot this step decided on.
    pub snapshot_seq: u64,
    /// Every action the policy decided on this epoch.
    pub actions: Vec<AdaptAction>,
    /// The reshards and budget resizes applied on the engine.
    pub applied: Vec<AdaptAction>,
    /// Tenants successfully re-placed through the gated plan/commit chain.
    pub replaced: Vec<String>,
    /// Re-placements the chain refused (verification, placement or admission
    /// policy); the original deployment was restored in each case.
    pub refused: Vec<(String, ClickIncError)>,
}

impl AdaptiveOutcome {
    /// Whether the step changed anything — resharded, resized or re-placed.
    pub fn acted(&self) -> bool {
        !self.applied.is_empty() || !self.replaced.is_empty()
    }
}

/// The adaptive runtime at service scope: owns the [`AdaptiveController`]
/// that decides and applies what it decides to the [`ClickIncService`].
/// See the [module docs](self).
#[derive(Debug)]
pub struct AdaptiveRuntime {
    controller: AdaptiveController,
}

impl AdaptiveRuntime {
    /// A loop with the given thresholds and no history yet.
    pub fn new(policy: AdaptivePolicy) -> AdaptiveRuntime {
        AdaptiveRuntime { controller: AdaptiveController::new(policy) }
    }

    /// The decision half of the loop (for inspection).
    pub fn controller(&self) -> &AdaptiveController {
        &self.controller
    }

    /// One control-loop turn: name the tenants the service serves (numeric
    /// id and eligibility each), snapshot the engine's telemetry, decide,
    /// apply reshards and budget resizes on the engine, and route every
    /// `Replan` through [`ClickIncService::replace_tenant`] — the verifier
    /// and admission chain gate each re-placement, and a refusal restores
    /// the original deployment.
    pub fn step(&mut self, service: &ClickIncService) -> AdaptiveOutcome {
        let engine = service.engine_handle();
        let (served, report) = {
            let controller = service.controller();
            let served: BTreeMap<String, (i64, ShardingMode)> = controller
                .active_users()
                .into_iter()
                .filter(|user| engine.sharding_mode(user).is_some())
                .filter_map(|user| {
                    let deployment = controller.deployment(user)?;
                    let eligible = deployment.prepared.sharding.clone();
                    Some((user.to_string(), (deployment.numeric_id, eligible)))
                })
                .collect();
            (served, engine.telemetry())
        };
        let capacity = engine.queue_capacity() as u64;
        let actions = self.controller.decide(&report, &served, capacity, engine.shards());
        // the engine-level actions first, then the re-placements: each
        // replaces a deployment, so nothing decided this epoch lands on its
        // successor
        let mut applied = Vec::new();
        let mut replans = Vec::new();
        for action in &actions {
            let done = match action {
                AdaptAction::Reshard { user, to, .. } => engine.reshard_tenant(user, to.clone()),
                AdaptAction::ResizeBudget { user, budget, .. } => {
                    engine.set_tenant_budget(user, *budget)
                }
                AdaptAction::Replan { user, .. } => {
                    replans.push(user.as_str());
                    false
                }
            };
            if done {
                applied.push(action.clone());
            }
        }
        let mut replaced = Vec::new();
        let mut refused = Vec::new();
        for user in replans {
            match service.replace_tenant(user) {
                Ok(_) => replaced.push(user.to_string()),
                Err(err) => refused.push((user.to_string(), err)),
            }
        }
        AdaptiveOutcome {
            epoch: self.controller.epoch(),
            snapshot_seq: report.snapshot_seq,
            actions,
            applied,
            replaced,
            refused,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ServiceRequest;
    use crate::service::InitialSharding;
    use clickinc_lang::templates::{kvs_template, KvsParams};
    use clickinc_runtime::adaptive::AdaptAction;
    use clickinc_runtime::workload::{KvsWorkload, KvsWorkloadConfig};
    use clickinc_runtime::{EngineConfig, OverloadPolicy, ShardingMode};
    use clickinc_topology::Topology;

    fn service() -> ClickIncService {
        ClickIncService::with_config(
            Topology::emulation_topology_all_tofino(),
            EngineConfig { shards: 4, queue_capacity: 64, overload: OverloadPolicy::DropTail },
        )
        .expect("valid config")
    }

    fn kvs_request(user: &str) -> ServiceRequest {
        kvs_request_from(user, "pod0a")
    }

    fn kvs_request_from(user: &str, source: &str) -> ServiceRequest {
        ServiceRequest::builder(user)
            .template(kvs_template(user, KvsParams { cache_depth: 1000, ..Default::default() }))
            .from_(source)
            .to("pod2b")
            .build()
            .expect("valid request")
    }

    fn saturate(service: &ClickIncService, user: &str, numeric_id: i64, requests: usize) {
        let mut wl = KvsWorkload::new(KvsWorkloadConfig {
            tenant: user.to_string(),
            user_id: numeric_id,
            keys: 500,
            skew: 1.1,
            requests,
            rate_pps: 10_000_000.0,
            seed: 9,
        });
        service.engine_handle().run_workload(&mut wl, usize::MAX, 512);
        service.flush();
    }

    #[test]
    fn a_pinned_tenant_is_spread_by_the_loop_under_saturation() {
        let service = service();
        service.set_initial_sharding(InitialSharding::Pinned);
        let tenant = service.deploy(kvs_request("kvs0")).expect("deploys");
        assert_eq!(tenant.sharding_mode(), ShardingMode::ByTenant, "pinned start");
        let numeric_id = tenant.numeric_id();

        let mut adaptive = AdaptiveRuntime::new(AdaptivePolicy::default());
        assert!(adaptive.step(&service).actions.is_empty(), "baseline epoch");

        // a 4096-packet burst against a 64-deep single home shard sheds hard
        saturate(&service, "kvs0", numeric_id, 4096);
        let outcome = adaptive.step(&service);
        assert!(outcome.acted(), "the loop reacted: {:?}", outcome.actions);
        let resharded = outcome.applied.iter().any(|a| {
            matches!(a, AdaptAction::Reshard { user, to, .. }
                if user == "kvs0" && to.is_by_flow())
        });
        assert!(resharded, "the KVS tenant spread across shards: {:?}", outcome.applied);
        assert!(
            service.engine_handle().sharding_mode("kvs0").expect("live").is_by_flow(),
            "the engine really moved"
        );
        // telemetry survived the reshard and the mode is exported
        let stats = service.telemetry().tenant("kvs0").cloned().expect("tracked");
        assert!(stats.packets > 0, "counters survived the move");
        assert!(stats.sharding_mode.starts_with("by_flow"), "mode exported: {stats:?}");
        service.finish();
    }

    #[test]
    fn a_handle_reports_the_mode_the_loop_resharded_its_tenant_to() {
        let service = service();
        service.set_initial_sharding(InitialSharding::Pinned);
        let tenant = service.deploy(kvs_request("kvs0")).expect("deploys");
        assert_eq!(tenant.sharding_mode(), ShardingMode::ByTenant);
        let mut adaptive = AdaptiveRuntime::new(AdaptivePolicy::default());
        adaptive.step(&service);
        saturate(&service, "kvs0", tenant.numeric_id(), 4096);
        assert!(adaptive.step(&service).acted());
        let live = service.engine_handle().sharding_mode("kvs0").expect("live");
        assert_eq!(live, ShardingMode::ByFlow { key_fields: vec!["key".into()] });
        assert_eq!(tenant.sharding_mode(), live, "the handle reports the live mode");
        service.finish();
    }

    #[test]
    fn device_fault_losses_escalate_straight_to_replan() {
        let service = service();
        let tenant = service.deploy(kvs_request("kvs0")).expect("deploys");
        let numeric_id = tenant.numeric_id();
        let device = tenant.hops().first().expect("has hops").device.clone();
        let mut adaptive = AdaptiveRuntime::new(AdaptivePolicy::default());
        adaptive.step(&service); // baseline epoch

        // a dead device on the route loses packets: the fault telemetry must
        // trigger a Replan immediately, without the saturation ladder
        service.engine_handle().set_device_health(&device, clickinc_runtime::DeviceHealth::Down);
        saturate(&service, "kvs0", numeric_id, 256);
        let stats = service.telemetry().tenant("kvs0").cloned().expect("tracked");
        assert!(stats.fault_lost_packets > 0, "losses recorded: {stats:?}");
        let outcome = adaptive.step(&service);
        assert_eq!(outcome.replaced, vec!["kvs0".to_string()], "{:?}", outcome.actions);
        assert!(service.active_users().contains(&"kvs0".to_string()));
        service.engine_handle().set_device_health(&device, clickinc_runtime::DeviceHealth::Up);
        service.finish();
    }

    #[test]
    fn replans_route_through_replace_tenant_and_refusals_restore() {
        let service = service();
        service.set_initial_sharding(InitialSharding::Pinned);
        let tenant = service.deploy(kvs_request("kvs0")).expect("deploys");
        let numeric_id = tenant.numeric_id();
        // the reshard lever comes first: once the tenant is flow-sharded, the
        // loop is out of engine-level levers and the next saturated epoch
        // escalates straight to a replan
        let mut adaptive = AdaptiveRuntime::new(AdaptivePolicy {
            replan_epochs: 1,
            cooldown_epochs: 0,
            ..Default::default()
        });
        adaptive.step(&service);
        let reshard_then_replan = |adaptive: &mut AdaptiveRuntime, numeric_id| {
            saturate(&service, "kvs0", numeric_id, 4096);
            let outcome = adaptive.step(&service);
            assert!(
                outcome.applied.iter().any(|a| matches!(a, AdaptAction::Reshard { .. })),
                "{:?}",
                outcome.actions
            );
            saturate(&service, "kvs0", numeric_id, 4096);
            adaptive.step(&service)
        };

        // with an admit-everything policy the replan succeeds
        let outcome = reshard_then_replan(&mut adaptive, numeric_id);
        assert_eq!(outcome.replaced, vec!["kvs0".to_string()], "{:?}", outcome.actions);
        assert!(service.active_users().contains(&"kvs0".to_string()));
        let new_id = service.controller().numeric_id_of("kvs0").expect("redeployed");
        assert_ne!(new_id, numeric_id, "a re-placement mints a fresh numeric id");

        // with a reject-everything policy the replan is refused and the
        // deployment restored rather than dropped; the re-placed tenant's
        // history started afresh, so it reshards before it escalates again
        service.set_admission_policy(crate::policy::MaxTenants { max_tenants: 0 });
        let outcome = reshard_then_replan(&mut adaptive, new_id);
        assert!(!outcome.refused.is_empty(), "the gate refused: {:?}", outcome.actions);
        assert!(
            service.active_users().contains(&"kvs0".to_string()),
            "a refused re-placement must not drop the tenant"
        );
        service.finish();
    }

    #[test]
    fn a_removed_tenant_draws_no_action_and_holds_no_fair_share() {
        let service = service();
        service.set_initial_sharding(InitialSharding::Pinned);
        let kvs0 = service.deploy(kvs_request("kvs0")).expect("deploys");
        service.deploy(kvs_request_from("kvs1", "pod0b")).expect("deploys");
        let mut adaptive = AdaptiveRuntime::new(AdaptivePolicy::default());
        adaptive.step(&service);
        service.remove("kvs1").expect("removes");

        saturate(&service, "kvs0", kvs0.numeric_id(), 4096);
        let outcome = adaptive.step(&service);
        assert!(!outcome.actions.is_empty(), "the saturated tenant is adapted");
        assert!(
            outcome.actions.iter().all(|a| a.user() == "kvs0"),
            "only the served tenant is named: {:?}",
            outcome.actions
        );
        assert!(
            outcome.actions.iter().all(|a| !matches!(a, AdaptAction::ResizeBudget { .. })),
            "the lone tenant's fair share is the whole pool: {:?}",
            outcome.actions
        );
        let stats = service.telemetry().tenant("kvs0").cloned().expect("live");
        assert_eq!(stats.queue_budget, 4 * 64, "no credits held back for the departed tenant");
        service.finish();
    }
}
