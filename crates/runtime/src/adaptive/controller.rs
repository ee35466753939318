//! The control loop's decision: snapshot delta → actions.

use crate::adaptive::actions::{AdaptAction, Saturation};
use crate::adaptive::budget::fair_budgets;
use crate::adaptive::policy::{AdaptivePolicy, EpochDelta, TenantDelta};
use crate::telemetry::TelemetryReport;
use crate::tenant::ShardingMode;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// What the controller remembers about one served deployment: what the
/// engine cannot tell it.  The tenant's live mode and budget are not here —
/// each epoch reads them from the snapshot it decides on.  A profile lives
/// exactly as long as the deployment it describes: a new numeric id under
/// the same name is a new deployment and starts from a fresh one.
#[derive(Debug, Clone)]
struct Profile {
    /// The numeric id of the deployment this history belongs to.
    numeric_id: i64,
    /// The most parallel mode the tenant's state profile admits (derived by
    /// the service layer once per program text, from the isolated, optimized
    /// program, and kept in the controller's `PreparedSource`).  A `Reshard`
    /// never targets anything this does not allow.
    eligible: ShardingMode,
    /// Whether the loop (not the deployer) put the tenant into `ByFlow`, so
    /// idle reclamation only undoes the loop's own spreading.
    resharded_by_loop: bool,
    /// Epoch of the last reshard, for the cooldown gate.
    last_reshard_epoch: Option<u64>,
    /// Consecutive saturated epochs (reset whenever an epoch is calm).
    saturated_epochs: u64,
    /// Consecutive epochs with zero offered packets.
    idle_epochs: u64,
}

/// The telemetry-driven reconfiguration decision.  [`decide`] is pure apart
/// from the per-deployment history it keeps (cooldowns, saturation and idle
/// streaks); the service layer (`clickinc::AdaptiveRuntime::step`) takes the
/// snapshot, names the tenants it serves, and applies what is decided.
///
/// The controller deliberately does not own a thread or a timer: the caller
/// decides at whatever cadence fits — between workload phases, on a
/// wall-clock tick, or after every N injected batches.  That keeps every
/// experiment deterministic and the loop trivially testable.
///
/// [`decide`]: AdaptiveController::decide
#[derive(Debug)]
pub struct AdaptiveController {
    policy: AdaptivePolicy,
    profiles: BTreeMap<String, Profile>,
    prev: Option<TelemetryReport>,
    epoch: u64,
}

impl AdaptiveController {
    /// A controller with the given thresholds and no history yet.
    pub fn new(policy: AdaptivePolicy) -> AdaptiveController {
        AdaptiveController { policy, profiles: BTreeMap::new(), prev: None, epoch: 0 }
    }

    /// The active thresholds.
    pub fn policy(&self) -> &AdaptivePolicy {
        &self.policy
    }

    /// The loop epoch the last [`decide`](AdaptiveController::decide) closed
    /// (1-based; the first only establishes the baseline snapshot).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Close an epoch: compute deltas against the previous snapshot and
    /// decide on actions.  Pure — nothing is applied; the per-deployment
    /// history (cooldowns, saturation streaks) *is* advanced.
    ///
    /// `served` names every tenant being served now, with its numeric id and
    /// the most parallel mode its state profile admits; the loop only ever
    /// reshards within that mode.  It is the loop's whole tenant set: a
    /// name missing from it loses its history and draws no action and no
    /// fair-share slot, and a name whose numeric id changed (a re-placement)
    /// starts from a fresh history, its whole counters the epoch's delta
    /// (the engine starts a redeployment's counters from zero).  Each
    /// tenant's live sharding mode and ingress budget are read from `report`
    /// (its `sharding_mode` label and `queue_budget`), which the engine
    /// stamps under the same lock that guards its routes.  `capacity` is the per-shard queue bound and
    /// `shards` the worker count.
    pub fn decide(
        &mut self,
        report: &TelemetryReport,
        served: &BTreeMap<String, (i64, ShardingMode)>,
        capacity: u64,
        shards: usize,
    ) -> Vec<AdaptAction> {
        self.profiles.retain(|user, p| served.get(user).is_some_and(|(id, _)| *id == p.numeric_id));
        let mut fresh = Vec::new();
        for (user, (numeric_id, eligible)) in served {
            if let Entry::Vacant(vacant) = self.profiles.entry(user.clone()) {
                fresh.push(user);
                vacant.insert(Profile {
                    numeric_id: *numeric_id,
                    eligible: eligible.clone(),
                    resharded_by_loop: false,
                    last_reshard_epoch: None,
                    saturated_epochs: 0,
                    idle_epochs: 0,
                });
            }
        }
        self.epoch += 1;
        let Some(mut prev) = self.prev.replace(report.clone()) else {
            // first observation: baseline only
            return Vec::new();
        };
        // a fresh history is a fresh deployment, whose counters the engine
        // started from zero: all of them are this epoch's
        for user in fresh {
            prev.tenants.remove(user);
        }
        let delta = EpochDelta::between(&prev, report);
        let mut actions = Vec::new();
        let mut rebalance = false;
        let mut demand: BTreeMap<String, u64> = BTreeMap::new();
        for (user, profile) in self.profiles.iter_mut() {
            let d = delta.tenants.get(user).cloned().unwrap_or_default();
            // a tenant the snapshot does not name runs nowhere yet
            let by_flow = report
                .tenant(user)
                .is_some_and(|s| ShardingMode::is_by_flow_label(&s.sharding_mode));
            demand.insert(user.clone(), d.offered());
            // device-fault trigger: packets lost at a dead or flaky device
            // cannot be fixed by congestion levers (resharding spreads load,
            // budgets shape ingress — neither moves the tenant off the
            // failed device), so escalate straight to a replan, bypassing
            // the volume gate, cooldowns and the escalation ladder
            if self.policy.fault_replan_lost > 0 && d.fault_lost >= self.policy.fault_replan_lost {
                actions
                    .push(AdaptAction::Replan { user: user.clone(), why: evidence(&d, capacity) });
                profile.saturated_epochs = 0;
                profile.idle_epochs = 0;
                continue;
            }
            if d.offered() == 0 {
                profile.saturated_epochs = 0;
                profile.idle_epochs += 1;
                let reclaim = self.policy.reclaim_idle_epochs;
                if reclaim > 0
                    && profile.idle_epochs >= reclaim
                    && profile.resharded_by_loop
                    && by_flow
                {
                    let why = Saturation { queue_capacity: capacity, ..Default::default() };
                    actions.push(AdaptAction::Reshard {
                        user: user.clone(),
                        to: ShardingMode::ByTenant,
                        why,
                    });
                    profile.resharded_by_loop = false;
                    profile.last_reshard_epoch = Some(self.epoch);
                    profile.idle_epochs = 0;
                }
                continue;
            }
            profile.idle_epochs = 0;
            if d.offered() < self.policy.min_epoch_packets {
                continue;
            }
            let why = evidence(&d, capacity);
            let saturated = why.congestion_ratio() > self.policy.congestion_saturation
                || why.hwm_ratio() >= self.policy.hwm_saturation;
            if !saturated {
                profile.saturated_epochs = 0;
                continue;
            }
            profile.saturated_epochs += 1;
            rebalance = true;
            let cooling = profile
                .last_reshard_epoch
                .is_some_and(|at| self.epoch.saturating_sub(at) <= self.policy.cooldown_epochs);
            if cooling {
                continue;
            }
            // first lever: spread a flow-shardable tenant across every shard
            if !by_flow && profile.eligible.is_by_flow() {
                actions.push(AdaptAction::Reshard {
                    user: user.clone(),
                    to: profile.eligible.clone(),
                    why,
                });
                profile.resharded_by_loop = true;
                profile.last_reshard_epoch = Some(self.epoch);
                profile.saturated_epochs = 0;
                continue;
            }
            // out of engine-level levers: persistent saturation escalates to
            // a re-placement through the gated service path
            if profile.saturated_epochs >= self.policy.replan_epochs {
                actions.push(AdaptAction::Replan { user: user.clone(), why });
                profile.saturated_epochs = 0;
            }
        }
        // second lever: rebalance every served tenant's ingress budget to
        // its weighted fair share of the aggregate capacity
        if rebalance {
            let total = capacity.saturating_mul(shards as u64);
            let fair = fair_budgets(total, self.policy.budget_floor, &demand);
            for (user, budget) in fair {
                if report.tenant(&user).map(|s| s.queue_budget) != Some(budget) {
                    let d = delta.tenants.get(&user).cloned().unwrap_or_default();
                    let why = evidence(&d, capacity);
                    actions.push(AdaptAction::ResizeBudget { user, budget, why });
                }
            }
        }
        actions
    }
}

/// One tenant's epoch movement as the evidence behind an action, its
/// high-water mark measured against the per-shard `capacity`.
fn evidence(d: &TenantDelta, capacity: u64) -> Saturation {
    Saturation {
        offered: d.offered(),
        shed: d.shed,
        backpressure_waits: d.backpressure_waits,
        queue_depth_hwm: d.queue_depth_hwm,
        queue_capacity: capacity,
        fault_lost: d.fault_lost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{TelemetryRegistry, TenantCounters};
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    const CAP: u64 = 100;
    const SHARDS: usize = 4;

    fn by_key() -> ShardingMode {
        ShardingMode::ByFlow { key_fields: vec!["key".into()] }
    }

    struct Harness {
        registry: TelemetryRegistry,
        counters: BTreeMap<String, Arc<TenantCounters>>,
        /// Each tenant's mode and budget, stamped on the registry's metadata
        /// at registration and after every reshard or resize, as the engine
        /// does.
        meta: BTreeMap<String, (ShardingMode, u64)>,
        /// The served tenants, with their numeric ids and eligible modes.
        served: BTreeMap<String, (i64, ShardingMode)>,
        controller: AdaptiveController,
    }

    impl Harness {
        fn new(policy: AdaptivePolicy, tenants: &[(&str, ShardingMode, ShardingMode)]) -> Harness {
            let mut registry = TelemetryRegistry::default();
            let mut counters = BTreeMap::new();
            let mut meta = BTreeMap::new();
            let mut served = BTreeMap::new();
            for (numeric_id, (user, current, eligible)) in (1..).zip(tenants) {
                let block = Arc::new(TenantCounters::new(1));
                registry.register(user, Arc::clone(&block));
                registry.set_meta(user, current.label(), CAP * SHARDS as u64);
                counters.insert(user.to_string(), block);
                meta.insert(user.to_string(), (current.clone(), CAP * SHARDS as u64));
                served.insert(user.to_string(), (numeric_id, eligible.clone()));
            }
            let controller = AdaptiveController::new(policy);
            Harness { registry, counters, meta, served, controller }
        }

        /// The mode the registry exports for a tenant.
        fn mode(&mut self, user: &str) -> String {
            self.registry.snapshot().tenants[user].sharding_mode.clone()
        }

        fn offer(&self, user: &str, admitted: u64, shed: u64) {
            let c = &self.counters[user];
            c.packets.fetch_add(admitted, Ordering::Relaxed);
            c.shed.fetch_add(shed, Ordering::Relaxed);
        }

        fn tick(&mut self) -> Vec<AdaptAction> {
            let report = self.registry.snapshot();
            let actions = self.controller.decide(&report, &self.served, CAP, SHARDS);
            for action in &actions {
                let Some((mode, budget)) = self.meta.get_mut(action.user()) else { continue };
                match action {
                    AdaptAction::Reshard { to, .. } => *mode = to.clone(),
                    AdaptAction::ResizeBudget { budget: resized, .. } => *budget = *resized,
                    AdaptAction::Replan { .. } => continue,
                }
                self.registry.set_meta(action.user(), mode.label(), *budget);
            }
            actions
        }
    }

    #[test]
    fn saturation_reshards_an_eligible_tenant_and_rebalances_budgets() {
        let mut h = Harness::new(
            AdaptivePolicy::default(),
            &[
                ("bg", ShardingMode::ByTenant, ShardingMode::ByTenant),
                ("hot", ShardingMode::ByTenant, by_key()),
            ],
        );
        assert!(h.tick().is_empty(), "first tick is baseline only");
        h.offer("hot", 100, 60);
        h.offer("bg", 50, 0);
        let actions = h.tick();
        let reshards: Vec<_> =
            actions.iter().filter(|a| matches!(a, AdaptAction::Reshard { .. })).collect();
        assert_eq!(reshards.len(), 1, "exactly the hot tenant reshards: {actions:?}");
        assert_eq!(reshards[0].user(), "hot");
        assert!(matches!(reshards[0], AdaptAction::Reshard { to, .. } if to == &by_key()));
        assert_eq!(h.mode("hot"), by_key().label());
        // the fair-share pass also resized budgets away from the default
        assert!(
            actions
                .iter()
                .any(|a| matches!(a, AdaptAction::ResizeBudget { user, .. } if user == "hot")),
            "budget rebalance rides along: {actions:?}"
        );
    }

    #[test]
    fn ineligible_tenants_are_never_flow_sharded_and_escalate_to_replan() {
        let policy = AdaptivePolicy { replan_epochs: 2, ..Default::default() };
        let mut h =
            Harness::new(policy, &[("pinned", ShardingMode::ByTenant, ShardingMode::ByTenant)]);
        h.tick();
        let mut replans = 0;
        for epoch in 0..4 {
            h.offer("pinned", 100, 80);
            let actions = h.tick();
            assert!(
                actions.iter().all(|a| !matches!(a, AdaptAction::Reshard { .. })),
                "epoch {epoch}: an ineligible tenant must never reshard: {actions:?}"
            );
            replans += actions.iter().filter(|a| matches!(a, AdaptAction::Replan { .. })).count();
        }
        // saturated for 4 epochs with replan_epochs = 2 → exactly 2 escalations
        assert_eq!(replans, 2);
    }

    #[test]
    fn cooldown_suppresses_immediate_resharding_back() {
        let policy = AdaptivePolicy { cooldown_epochs: 2, ..Default::default() };
        let mut h = Harness::new(policy, &[("hot", ShardingMode::ByTenant, by_key())]);
        h.tick();
        h.offer("hot", 100, 60);
        let first: Vec<_> = h.tick();
        assert!(first.iter().any(|a| matches!(a, AdaptAction::Reshard { .. })));
        // still saturated the very next epoch: inside the cooldown no second
        // reshard (and no replan yet)
        h.offer("hot", 100, 60);
        let second = h.tick();
        assert!(second.iter().all(|a| !matches!(a, AdaptAction::Reshard { .. })));
    }

    #[test]
    fn calm_epochs_decide_nothing_and_idle_reclaim_consolidates() {
        let policy = AdaptivePolicy { reclaim_idle_epochs: 2, ..Default::default() };
        let mut h = Harness::new(policy, &[("hot", ShardingMode::ByTenant, by_key())]);
        h.tick();
        // calm traffic: under every threshold
        h.offer("hot", 1000, 0);
        assert!(h.tick().is_empty(), "no congestion, no action");
        // saturate → reshard to ByFlow
        h.offer("hot", 100, 60);
        assert!(h.tick().iter().any(|a| matches!(a, AdaptAction::Reshard { .. })));
        // two idle epochs → consolidated back to its home shard
        assert!(h.tick().is_empty(), "first idle epoch only counts");
        let actions = h.tick();
        assert!(
            actions
                .iter()
                .any(|a| matches!(a, AdaptAction::Reshard { to: ShardingMode::ByTenant, .. })),
            "idle reclaim reshards back: {actions:?}"
        );
        assert_eq!(h.mode("hot"), ShardingMode::ByTenant.label());
    }

    #[test]
    fn fault_losses_escalate_to_replan_immediately() {
        let mut h = Harness::new(
            AdaptivePolicy::default(),
            &[
                ("victim", ShardingMode::ByTenant, by_key()),
                ("bystander", ShardingMode::ByTenant, ShardingMode::ByTenant),
            ],
        );
        h.tick();
        // far below min_epoch_packets and with zero congestion — the fault
        // trigger must not care about either gate
        h.offer("victim", 10, 0);
        h.offer("bystander", 10, 0);
        h.counters["victim"].note_fault_loss(5_000);
        h.counters["victim"].note_fault_loss(6_000);
        let actions = h.tick();
        let replans: Vec<_> =
            actions.iter().filter(|a| matches!(a, AdaptAction::Replan { .. })).collect();
        assert_eq!(replans.len(), 1, "exactly the victim replans: {actions:?}");
        assert_eq!(replans[0].user(), "victim");
        assert!(matches!(
            replans[0],
            AdaptAction::Replan { why: Saturation { fault_lost: 2, .. }, .. }
        ));
        // the fault lever outranks resharding: no Reshard for the victim
        assert!(actions.iter().all(|a| !matches!(a, AdaptAction::Reshard { .. })));
        // a calm epoch later, the loop is quiet again
        h.offer("victim", 10, 0);
        assert!(h.tick().is_empty());
    }

    #[test]
    fn fault_trigger_can_be_disabled() {
        let policy = AdaptivePolicy { fault_replan_lost: 0, ..Default::default() };
        let mut h = Harness::new(policy, &[("victim", ShardingMode::ByTenant, by_key())]);
        h.tick();
        h.offer("victim", 10, 0);
        h.counters["victim"].note_fault_loss(5_000);
        assert!(h.tick().is_empty(), "fault_replan_lost = 0 disables the trigger");
    }

    #[test]
    fn stale_tenant_delta_is_skipped_after_removal() {
        // a tenant removed between the snapshot and the decision: its
        // counters still sit in the registry (telemetry keeps history), so
        // the delta names it — but the profile is gone and the loop must not
        // act on the stale movement
        let mut h = Harness::new(
            AdaptivePolicy::default(),
            &[
                ("gone", ShardingMode::ByTenant, by_key()),
                ("stays", ShardingMode::ByTenant, ShardingMode::ByTenant),
            ],
        );
        h.tick();
        // both tenants saturate hard; "gone" even loses packets to a fault
        h.offer("gone", 100, 90);
        h.counters["gone"].note_fault_loss(1_000);
        h.offer("stays", 1000, 0);
        h.served.remove("gone");
        let actions = h.tick();
        assert!(
            actions.iter().all(|a| a.user() != "gone"),
            "no action may target a removed tenant: {actions:?}"
        );
        // and the inverse staleness: a tracked tenant missing from the delta
        // (snapshot raced its registration) takes the idle path, not a panic
        h.served.insert("unregistered".into(), (99, by_key()));
        let actions = h.tick();
        assert!(actions.iter().all(|a| a.user() != "unregistered"), "{actions:?}");
    }

    #[test]
    fn a_new_numeric_id_restarts_the_saturation_streak() {
        // an ineligible tenant escalates after two saturated epochs; a
        // re-placement (same name, new numeric id) between them restarts
        // the streak
        let policy = AdaptivePolicy { replan_epochs: 2, ..Default::default() };
        let mut h = Harness::new(policy, &[("t", ShardingMode::ByTenant, ShardingMode::ByTenant)]);
        let replans = |actions: &[AdaptAction]| {
            actions.iter().filter(|a| matches!(a, AdaptAction::Replan { .. })).count()
        };
        h.tick();
        h.offer("t", 100, 60);
        assert_eq!(replans(&h.tick()), 0);
        h.served.insert("t".into(), (2, ShardingMode::ByTenant));
        h.offer("t", 100, 60);
        assert_eq!(replans(&h.tick()), 0, "the streak restarted at the re-placement");
        h.offer("t", 100, 60);
        assert_eq!(replans(&h.tick()), 1);
        h.served.remove("t");
        h.offer("t", 100, 60);
        assert!(h.tick().is_empty(), "a tenant no longer served is not decided on");
    }
}
