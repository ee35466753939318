//! Control-loop thresholds and per-epoch telemetry deltas.

use crate::telemetry::TelemetryReport;
use std::collections::BTreeMap;

/// Thresholds governing when the [`AdaptiveController`] acts.
///
/// The defaults are deliberately conservative: a tenant must offer a
/// meaningful amount of traffic in an epoch before its congestion ratios are
/// trusted, and every reshard is followed by a cooldown so the loop cannot
/// flap between modes on a single noisy epoch.
///
/// [`AdaptiveController`]: crate::adaptive::AdaptiveController
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptivePolicy {
    /// Ignore tenants that offered fewer packets than this in an epoch —
    /// their ratios are too noisy to act on.
    pub min_epoch_packets: u64,
    /// Congestion ratio (sheds + backpressure waits per offered packet)
    /// above which a tenant counts as saturated.
    pub congestion_saturation: f64,
    /// Queue high-water mark as a fraction of `queue_capacity` above which a
    /// tenant counts as saturated even without sheds.
    pub hwm_saturation: f64,
    /// Epochs a tenant is left alone after a reshard before the loop may
    /// reshard it again.
    pub cooldown_epochs: u64,
    /// Consecutive saturated epochs (with resharding and budget resizing
    /// already exhausted) before a [`Replan`](crate::adaptive::AdaptAction::Replan)
    /// is emitted.
    pub replan_epochs: u64,
    /// Minimum per-tenant ingress budget the fair-share rebalance may assign.
    pub budget_floor: u64,
    /// Consecutive idle epochs (zero offered packets) after which a tenant
    /// the loop had flow-sharded is consolidated back to `ByTenant`,
    /// releasing its per-shard replicas.  `0` disables reclamation.
    pub reclaim_idle_epochs: u64,
    /// Packets lost to a device fault in one epoch at which a
    /// [`Replan`](crate::adaptive::AdaptAction::Replan) fires *immediately*
    /// — fault losses mean a device on the tenant's route is dead or
    /// dropping, which congestion levers (resharding, budgets) cannot fix,
    /// so the escalation ladder and its cooldowns are bypassed.  `0`
    /// disables the fault trigger.
    pub fault_replan_lost: u64,
}

impl Default for AdaptivePolicy {
    fn default() -> Self {
        AdaptivePolicy {
            min_epoch_packets: 64,
            congestion_saturation: 0.05,
            hwm_saturation: 0.9,
            cooldown_epochs: 1,
            replan_epochs: 3,
            budget_floor: 16,
            reclaim_idle_epochs: 0,
            fault_replan_lost: 1,
        }
    }
}

/// One tenant's telemetry movement between two snapshots.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TenantDelta {
    /// Packets admitted this epoch.
    pub packets: u64,
    /// Packets completed this epoch.
    pub completed: u64,
    /// Packets shed at ingress this epoch.
    pub shed: u64,
    /// Backpressure wait cycles spent this epoch.
    pub backpressure_waits: u64,
    /// Queue-depth high-water mark as of the newer snapshot (a lifetime
    /// maximum, not a delta).
    pub queue_depth_hwm: u64,
    /// Packets lost to injected device faults this epoch.
    pub fault_lost: u64,
}

impl TenantDelta {
    /// Packets the tenant offered this epoch: admitted plus shed.
    pub fn offered(&self) -> u64 {
        self.packets + self.shed
    }
}

/// The per-tenant deltas between two telemetry snapshots, ordered by their
/// sequence numbers.  Tenants absent from the older snapshot contribute
/// their full counters (they appeared this epoch).
#[derive(Debug, Clone, PartialEq)]
pub struct EpochDelta {
    /// Sequence number of the older snapshot.
    pub from_seq: u64,
    /// Sequence number of the newer snapshot.
    pub to_seq: u64,
    /// Virtual nanoseconds the newer snapshot advanced past the older one.
    pub vtime_delta_ns: u64,
    /// Per-tenant movement.
    pub tenants: BTreeMap<String, TenantDelta>,
}

impl EpochDelta {
    /// Compute the movement from `prev` to `next`.  Counters are monotone,
    /// so saturating subtraction is exact; a tenant missing from `prev`
    /// yields its full counters.
    pub fn between(prev: &TelemetryReport, next: &TelemetryReport) -> EpochDelta {
        let tenants = next
            .tenants
            .iter()
            .map(|(name, now)| {
                let before = prev.tenants.get(name);
                let sub = |now_v: u64, before_v: fn(&crate::telemetry::TenantStats) -> u64| {
                    now_v.saturating_sub(before.map(before_v).unwrap_or(0))
                };
                let delta = TenantDelta {
                    packets: sub(now.packets, |s| s.packets),
                    completed: sub(now.completed, |s| s.completed),
                    shed: sub(now.shed_packets, |s| s.shed_packets),
                    backpressure_waits: sub(now.backpressure_waits, |s| s.backpressure_waits),
                    queue_depth_hwm: now.queue_depth_hwm,
                    fault_lost: sub(now.fault_lost_packets, |s| s.fault_lost_packets),
                };
                (name.clone(), delta)
            })
            .collect();
        EpochDelta {
            from_seq: prev.snapshot_seq,
            to_seq: next.snapshot_seq,
            vtime_delta_ns: next.vtime_ns.saturating_sub(prev.vtime_ns),
            tenants,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{TelemetryRegistry, TenantCounters};
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    fn registry_with(tenant: &str) -> (TelemetryRegistry, Arc<TenantCounters>) {
        let mut registry = TelemetryRegistry::default();
        let counters = Arc::new(TenantCounters::new(1));
        registry.register(tenant, Arc::clone(&counters));
        (registry, counters)
    }

    #[test]
    fn deltas_subtract_counters_between_snapshots() {
        let (mut registry, counters) = registry_with("t");
        counters.packets.fetch_add(10, Ordering::Relaxed);
        counters.shed.fetch_add(2, Ordering::Relaxed);
        let first = registry.snapshot();
        counters.packets.fetch_add(5, Ordering::Relaxed);
        counters.shed.fetch_add(1, Ordering::Relaxed);
        counters.backpressure_waits.fetch_add(4, Ordering::Relaxed);
        counters.queue_depth_hwm.fetch_max(33, Ordering::Relaxed);
        counters.record_completion(100.0, 2_000);
        counters.note_fault_loss(1_500);
        counters.note_fault_loss(1_600);
        let second = registry.snapshot();

        let delta = EpochDelta::between(&first, &second);
        assert_eq!(delta.from_seq + 1, delta.to_seq);
        assert_eq!(delta.vtime_delta_ns, 2_100);
        let t = &delta.tenants["t"];
        assert_eq!(t.packets, 5);
        assert_eq!(t.shed, 1);
        assert_eq!(t.backpressure_waits, 4);
        assert_eq!(t.completed, 1);
        assert_eq!(t.fault_lost, 2);
        assert_eq!(t.queue_depth_hwm, 33, "hwm is the newer snapshot's maximum");
        assert_eq!(t.offered(), 6);
    }

    #[test]
    fn tenants_appearing_mid_run_contribute_their_full_counters() {
        let mut registry = TelemetryRegistry::default();
        let first = registry.snapshot();
        let counters = Arc::new(TenantCounters::new(1));
        counters.packets.fetch_add(7, Ordering::Relaxed);
        registry.register("late", counters);
        let second = registry.snapshot();
        let delta = EpochDelta::between(&first, &second);
        assert_eq!(delta.tenants["late"].packets, 7);
    }
}
