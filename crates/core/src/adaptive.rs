//! The service-level adaptive runtime: the telemetry-driven reconfiguration
//! loop ([`clickinc_runtime::adaptive`]) wired to the full control plane.
//!
//! The engine-level [`AdaptiveController`] only knows what it is told — which
//! tenants exist and what sharding their state profiles admit — and what
//! each telemetry snapshot shows: every tenant's counters, live sharding mode
//! and ingress budget, stamped under the engine's one lock.  This module
//! closes the remaining gaps:
//!
//! * **Eligibility** comes from the same state-profile analysis
//!   ([`crate::sharding::sharding_mode_for`]) that gates every deploy, so the
//!   loop can never flow-shard a tenant the verifier classified as pinned;
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
//! adaptive.track(&service, "kvs0");
//! let outcome = adaptive.step(&service); // baseline epoch: observes, acts later
//! assert!(outcome.tick.actions.is_empty());
//! service.finish();
//! ```

use crate::service::ClickIncService;
use crate::sharding::sharding_mode_for;
use clickinc_runtime::adaptive::{AdaptiveController, AdaptivePolicy, AdaptiveTick};

/// What one [`AdaptiveRuntime::step`] observed and did, service-wide.
#[derive(Debug)]
pub struct AdaptiveOutcome {
    /// The engine-level tick: every decided action plus the reshards and
    /// budget resizes already applied.
    pub tick: AdaptiveTick,
    /// Tenants successfully re-placed through the gated plan/commit chain.
    pub replaced: Vec<String>,
    /// Re-placements the chain refused (verification, placement or admission
    /// policy); the original deployment was restored in each case.
    pub refused: Vec<(String, crate::ClickIncError)>,
}

impl AdaptiveOutcome {
    /// Whether the step changed anything — resharded, resized or re-placed.
    pub fn acted(&self) -> bool {
        !self.tick.applied.is_empty() || !self.replaced.is_empty()
    }
}

/// The adaptive runtime at service scope: owns an engine-level
/// [`AdaptiveController`] and mediates between it and the
/// [`ClickIncService`]'s controller.  See the [module docs](self).
#[derive(Debug)]
pub struct AdaptiveRuntime {
    controller: AdaptiveController,
}

impl AdaptiveRuntime {
    /// A loop with the given thresholds, tracking no tenants yet.
    pub fn new(policy: AdaptivePolicy) -> AdaptiveRuntime {
        AdaptiveRuntime { controller: AdaptiveController::new(policy) }
    }

    /// The engine-level control loop (for inspection).
    pub fn controller(&self) -> &AdaptiveController {
        &self.controller
    }

    /// Start adapting a deployed tenant.  Its *eligibility* — the most
    /// parallel sharding its state profile admits — is derived from the live
    /// deployment's hops with the same analysis every deploy runs; the mode
    /// it runs under is read from each step's telemetry snapshot.  Unknown
    /// tenants are ignored.
    pub fn track(&mut self, service: &ClickIncService, user: &str) {
        let hops = service.controller().tenant_hops(user);
        if hops.is_empty() {
            return;
        }
        self.controller.track(user, sharding_mode_for(&hops));
    }

    /// Stop adapting a tenant (e.g. after its removal).
    pub fn forget(&mut self, user: &str) {
        self.controller.forget(user);
    }

    /// One control-loop turn: snapshot the engine's telemetry, decide and
    /// apply engine-level actions (reshards and budget resizes happen on the
    /// engine alone — the controller's ledger and images do not move), and
    /// route every `Replan` through [`ClickIncService::replace_tenant`] —
    /// the verifier and admission chain gate each re-placement, and a
    /// refusal restores the original deployment.
    pub fn step(&mut self, service: &ClickIncService) -> AdaptiveOutcome {
        let tick = self.controller.step(&service.engine_handle());
        let mut replaced = Vec::new();
        let mut refused = Vec::new();
        for action in &tick.replans {
            let user = action.user().to_string();
            // re-placed or, on a refusal, restored: either way a fresh
            // deployment, whose mode the next snapshot reports
            self.controller.note_replaced(&user);
            match service.replace_tenant(&user) {
                Ok(_) => replaced.push(user),
                Err(err) => refused.push((user, err)),
            }
        }
        AdaptiveOutcome { tick, replaced, refused }
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
        ServiceRequest::builder(user)
            .template(kvs_template(user, KvsParams { cache_depth: 1000, ..Default::default() }))
            .from_("pod0a")
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
        adaptive.track(&service, "kvs0");
        assert!(adaptive.step(&service).tick.actions.is_empty(), "baseline epoch");

        // a 4096-packet burst against a 64-deep single home shard sheds hard
        saturate(&service, "kvs0", numeric_id, 4096);
        let outcome = adaptive.step(&service);
        assert!(outcome.acted(), "the loop reacted: {:?}", outcome.tick.actions);
        let resharded = outcome.tick.applied.iter().any(|a| {
            matches!(a, AdaptAction::Reshard { user, to, .. }
                if user == "kvs0" && to.is_by_flow())
        });
        assert!(resharded, "the KVS tenant spread across shards: {:?}", outcome.tick.applied);
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
        adaptive.track(&service, "kvs0");
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
        adaptive.track(&service, "kvs0");
        adaptive.step(&service); // baseline epoch

        // a dead device on the route loses packets: the fault telemetry must
        // trigger a Replan immediately, without the saturation ladder
        service.engine_handle().set_device_health(&device, clickinc_runtime::DeviceHealth::Down);
        saturate(&service, "kvs0", numeric_id, 256);
        let stats = service.telemetry().tenant("kvs0").cloned().expect("tracked");
        assert!(stats.fault_lost_packets > 0, "losses recorded: {stats:?}");
        let outcome = adaptive.step(&service);
        assert_eq!(outcome.replaced, vec!["kvs0".to_string()], "{:?}", outcome.tick.actions);
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
        // an ineligible profile forces the loop straight to replans: claim
        // the tenant only admits ByTenant by tracking it directly
        let mut adaptive = AdaptiveRuntime::new(AdaptivePolicy {
            replan_epochs: 1,
            cooldown_epochs: 0,
            ..Default::default()
        });
        adaptive.track(&service, "kvs0");
        // overwrite the derived eligibility with a pinned one
        adaptive.controller.track("kvs0", ShardingMode::ByTenant);
        adaptive.step(&service);

        // with an admit-everything policy the replan succeeds
        saturate(&service, "kvs0", numeric_id, 4096);
        let outcome = adaptive.step(&service);
        assert_eq!(outcome.replaced, vec!["kvs0".to_string()], "{:?}", outcome.tick.actions);
        assert!(service.active_users().contains(&"kvs0".to_string()));
        let new_id = service.controller().numeric_id_of("kvs0").expect("redeployed");
        assert_ne!(new_id, numeric_id, "a re-placement mints a fresh numeric id");

        // with a reject-everything policy the replan is refused and the
        // deployment restored rather than dropped
        service.set_admission_policy(crate::policy::MaxTenants { max_tenants: 0 });
        saturate(&service, "kvs0", new_id, 4096);
        let outcome = adaptive.step(&service);
        assert!(!outcome.refused.is_empty(), "the gate refused: {:?}", outcome.tick.actions);
        assert!(
            service.active_users().contains(&"kvs0".to_string()),
            "a refused re-placement must not drop the tenant"
        );
        service.finish();
    }
}
