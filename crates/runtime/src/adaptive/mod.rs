//! The adaptive runtime: a telemetry-driven reconfiguration control loop.
//!
//! Every knob the earlier layers expose — sharding mode, ingress budgets,
//! placement — is fixed at deploy time, while the congestion telemetry
//! (`shed_packets`, `backpressure_waits`, `queue_depth_hwm`) is write-only.
//! This module closes the loop: an [`AdaptiveController`] periodically takes
//! a telemetry snapshot ([`EngineHandle::telemetry`](crate::EngineHandle::telemetry),
//! stamped under the engine's one lock), computes per-tenant deltas between
//! consecutive snapshots (well-ordered by the snapshot sequence number and
//! the virtual clock), and drives typed [`AdaptAction`]s.  The snapshot is
//! the controller's only view of a tenant's deployment: its live sharding
//! mode and ingress budget are the snapshot's `sharding_mode` and
//! `queue_budget`, and the controller stores neither.  The actions:
//!
//! * **Live reshard** ([`AdaptAction::Reshard`]) — a saturated tenant whose
//!   state profile admits flow-sharding is moved `ByTenant → ByFlow` (and an
//!   idle one reclaimed back) through
//!   [`EngineHandle::reshard_tenant`](crate::EngineHandle::reshard_tenant):
//!   quiesce via the FIFO uninstall path, re-merge stores additively, re-seed
//!   under the new mode.  Results are bit-identical to never resharding.
//! * **Weighted fair ingress budgets** ([`AdaptAction::ResizeBudget`]) — the
//!   single per-shard `queue_capacity` bound is replaced by per-tenant
//!   credit budgets ([`fair_budgets`]) resized from observed demand, so one
//!   saturating tenant cannot monopolize the shared ingress queues.
//! * **Re-placement trigger** ([`AdaptAction::Replan`]) — a tenant that
//!   stays saturated after resharding and budget resizing is handed up to
//!   the service layer, which re-places it through the full plan/commit
//!   path so the verifier and admission chain gate the move.
//!
//! Safety invariants: the controller never emits a `Reshard` to a mode the
//! tenant's registered *eligibility* (derived by the service layer's
//! state-profile analysis) does not admit; every action is applied through
//! the engine's quiescing reconfigure path; and per-tenant outcomes and
//! store fingerprints are preserved bit-identically — adaptation may only
//! change latency, goodput and shed counts, never results.

mod actions;
mod budget;
mod controller;
mod policy;

pub use actions::{AdaptAction, Saturation};
pub use budget::fair_budgets;
pub use controller::{AdaptiveController, AdaptiveTick};
pub use policy::{AdaptivePolicy, EpochDelta, TenantDelta};
