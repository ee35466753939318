//! Deterministic fault injection on the workload's virtual clock.
//!
//! A [`FaultPlan`] is a schedule of [`FaultEvent`]s — device kills, flaky
//! devices that drop a fraction of their traffic, degraded links, restores —
//! stamped in virtual nanoseconds, the same clock the workload generators
//! stamp packets with.  Because the clock is virtual, a plan is perfectly
//! reproducible: the same seed yields the same schedule, and the engine
//! applies each event at the same point in the packet stream on every run
//! regardless of thread timing.
//!
//! The [`FaultInjector`] is the cursor the engine drives: feed it the
//! virtual time of each generated packet and it hands back the events that
//! have come due, in schedule order.  What an event *does* is split between
//! two layers: the shards apply the [`DeviceHealth`] transition (dropping,
//! degrading or fault-losing traffic at the device), and the controller's
//! failover path ([`Controller::fail_device`]) re-places the tenants that
//! lost a device.
//!
//! [`Controller::fail_device`]: ../../clickinc/struct.Controller.html#method.fail_device

use rand::prelude::*;
use std::fmt;

/// Operational health of a device plane, as applied by the shard workers.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum DeviceHealth {
    /// Serving normally (the default).
    #[default]
    Up,
    /// Dead: every packet reaching the device is lost to the fault
    /// (counted as `fault_lost_packets`, never as an in-network drop).
    Down,
    /// Drops each packet with probability `drop_prob` (deterministic hash,
    /// not wall-clock randomness), serving the rest.
    Flaky {
        /// Probability in `[0, 1]` that a packet traversing the device is
        /// lost to the fault.
        drop_prob: f64,
    },
    /// The device's egress link is degraded: per-packet device latency is
    /// scaled by `factor` (≥ 1.0), inflating tail latency without loss.
    Degraded {
        /// Latency multiplication factor.
        factor: f64,
    },
}

impl DeviceHealth {
    /// Whether traffic still reaches the device at all.
    pub fn is_serving(&self) -> bool {
        !matches!(self, DeviceHealth::Down)
    }
}

impl fmt::Display for DeviceHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceHealth::Up => write!(f, "up"),
            DeviceHealth::Down => write!(f, "down"),
            DeviceHealth::Flaky { drop_prob } => write!(f, "flaky(p={drop_prob:.2})"),
            DeviceHealth::Degraded { factor } => write!(f, "degraded(x{factor:.2})"),
        }
    }
}

/// What happens to a device at a scheduled instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The device dies; traffic through it is lost until restore.
    DeviceDown,
    /// The device starts dropping a fraction of its traffic.
    DeviceFlaky {
        /// Per-packet loss probability in `[0, 1]`.
        drop_prob: f64,
    },
    /// The device's link degrades, scaling its per-packet latency.
    LinkDegraded {
        /// Latency multiplication factor (≥ 1.0).
        factor: f64,
    },
    /// The device returns to full health.
    DeviceRestored,
}

impl FaultKind {
    /// The [`DeviceHealth`] the shards should apply for this event.
    pub fn health(&self) -> DeviceHealth {
        match *self {
            FaultKind::DeviceDown => DeviceHealth::Down,
            FaultKind::DeviceFlaky { drop_prob } => {
                DeviceHealth::Flaky { drop_prob: drop_prob.clamp(0.0, 1.0) }
            }
            FaultKind::LinkDegraded { factor } => {
                DeviceHealth::Degraded { factor: factor.max(1.0) }
            }
            FaultKind::DeviceRestored => DeviceHealth::Up,
        }
    }

    /// Whether the event takes the device out of service entirely (the
    /// controller must re-place tenants routed through it).
    pub fn is_outage(&self) -> bool {
        matches!(self, FaultKind::DeviceDown)
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::DeviceDown => write!(f, "down"),
            FaultKind::DeviceFlaky { drop_prob } => write!(f, "flaky(p={drop_prob:.2})"),
            FaultKind::LinkDegraded { factor } => write!(f, "link-degraded(x{factor:.2})"),
            FaultKind::DeviceRestored => write!(f, "restored"),
        }
    }
}

/// One scheduled fault: *what* happens to *which* device *when* on the
/// virtual clock.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Virtual time at which the event fires.
    pub at_vtime_ns: u64,
    /// Physical device name (e.g. `Agg0`), matching the topology and the
    /// shard planes.
    pub device: String,
    /// What happens.
    pub kind: FaultKind,
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}ns {} {}", self.at_vtime_ns, self.device, self.kind)
    }
}

/// A deterministic fault schedule, sorted by virtual time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (injecting it is a no-op).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Append an event; the plan re-sorts by time (stable, so same-instant
    /// events keep insertion order).
    pub fn at(mut self, at_vtime_ns: u64, device: impl Into<String>, kind: FaultKind) -> FaultPlan {
        self.events.push(FaultEvent { at_vtime_ns, device: device.into(), kind });
        self.events.sort_by_key(|e| e.at_vtime_ns);
        self
    }

    /// A seeded random schedule over `devices` within `[0, horizon_ns)`:
    /// `faults` events, each a kill / flaky / degraded episode on a random
    /// device; kills are paired with a restore later in the horizon.  Same
    /// seed, devices and horizon → byte-identical plan.
    pub fn random(seed: u64, devices: &[String], horizon_ns: u64, faults: usize) -> FaultPlan {
        let mut plan = FaultPlan::new();
        if devices.is_empty() || horizon_ns == 0 {
            return plan;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..faults {
            let device = devices[rng.gen_range(0..devices.len())].clone();
            let at = rng.gen_range(0..horizon_ns.max(1));
            let kind = match rng.gen_range(0..3u32) {
                0 => FaultKind::DeviceDown,
                1 => FaultKind::DeviceFlaky { drop_prob: rng.gen_range(0.05..0.95) },
                _ => FaultKind::LinkDegraded { factor: rng.gen_range(1.5..8.0) },
            };
            let outage = kind.is_outage();
            plan = plan.at(at, device.clone(), kind);
            if outage && at + 1 < horizon_ns {
                let restore_at = rng.gen_range(at + 1..horizon_ns);
                plan = plan.at(restore_at, device, FaultKind::DeviceRestored);
            }
        }
        plan
    }

    /// The schedule, in firing order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the plan schedules anything at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Every device the plan ever takes fully down.
    pub fn outage_devices(&self) -> Vec<String> {
        let mut names: Vec<String> =
            self.events.iter().filter(|e| e.kind.is_outage()).map(|e| e.device.clone()).collect();
        names.sort();
        names.dedup();
        names
    }
}

/// Cursor over a [`FaultPlan`]: the engine advances it with the virtual
/// time of each generated packet and applies whatever comes due.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    cursor: usize,
}

impl FaultInjector {
    /// Wrap a plan; the cursor starts before the first event.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector { plan, cursor: 0 }
    }

    /// Events whose scheduled time is `<= now_vtime_ns` and not yet
    /// delivered, in schedule order.  Monotonic: feeding an earlier time
    /// after a later one returns nothing rather than replaying.
    pub fn due(&mut self, now_vtime_ns: u64) -> Vec<FaultEvent> {
        let events = self.plan.events();
        let start = self.cursor;
        while self.cursor < events.len() && events[self.cursor].at_vtime_ns <= now_vtime_ns {
            self.cursor += 1;
        }
        events[start..self.cursor].to_vec()
    }

    /// Events not yet delivered.
    pub fn pending(&self) -> &[FaultEvent] {
        &self.plan.events()[self.cursor..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_sorts_by_time_and_builder_chains() {
        let plan = FaultPlan::new()
            .at(500, "Agg1", FaultKind::DeviceRestored)
            .at(100, "Agg1", FaultKind::DeviceDown)
            .at(300, "ToR0", FaultKind::DeviceFlaky { drop_prob: 0.5 });
        let times: Vec<u64> = plan.events().iter().map(|e| e.at_vtime_ns).collect();
        assert_eq!(times, vec![100, 300, 500]);
        assert_eq!(plan.outage_devices(), vec!["Agg1".to_string()]);
    }

    #[test]
    fn random_plans_are_seed_deterministic() {
        let devices = vec!["Agg0".to_string(), "Agg1".to_string(), "Core0".to_string()];
        let a = FaultPlan::random(17, &devices, 1_000_000, 4);
        let b = FaultPlan::random(17, &devices, 1_000_000, 4);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        let c = FaultPlan::random(18, &devices, 1_000_000, 4);
        assert_ne!(a, c, "a different seed yields a different schedule");
        // every kill inside the horizon is paired with a later restore
        for event in a.events().iter().filter(|e| e.kind.is_outage()) {
            assert!(a.events().iter().any(|r| r.device == event.device
                && r.kind == FaultKind::DeviceRestored
                && r.at_vtime_ns > event.at_vtime_ns));
        }
    }

    #[test]
    fn injector_delivers_each_event_once_in_order() {
        let plan = FaultPlan::new()
            .at(100, "A", FaultKind::DeviceDown)
            .at(200, "B", FaultKind::LinkDegraded { factor: 2.0 })
            .at(200, "A", FaultKind::DeviceRestored);
        let mut injector = FaultInjector::new(plan);
        assert!(injector.due(99).is_empty());
        let first = injector.due(150);
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].device, "A");
        // going backwards never replays
        assert!(injector.due(50).is_empty());
        let rest = injector.due(1_000);
        assert_eq!(rest.len(), 2);
        assert_eq!(rest[0].device, "B");
        assert_eq!(rest[1].device, "A");
        assert!(injector.pending().is_empty());
    }

    #[test]
    fn fault_kinds_map_to_clamped_health() {
        assert_eq!(FaultKind::DeviceDown.health(), DeviceHealth::Down);
        assert_eq!(FaultKind::DeviceRestored.health(), DeviceHealth::Up);
        assert_eq!(
            FaultKind::DeviceFlaky { drop_prob: 1.7 }.health(),
            DeviceHealth::Flaky { drop_prob: 1.0 }
        );
        assert_eq!(
            FaultKind::LinkDegraded { factor: 0.2 }.health(),
            DeviceHealth::Degraded { factor: 1.0 }
        );
        assert!(DeviceHealth::Flaky { drop_prob: 0.3 }.is_serving());
        assert!(!DeviceHealth::Down.is_serving());
        assert_eq!(DeviceHealth::Down.to_string(), "down");
    }
}
