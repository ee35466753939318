//! # clickinc-runtime — serving INC programs under load
//!
//! The controller (`clickinc`) answers *where programs run*; this crate
//! answers *how traffic reaches them at scale*: a sharded traffic engine
//! that every served experiment runs on (the emulator keeps one
//! single-threaded loop, the Fig. 13 aggregation ablation):
//!
//! * **Sharded execution** — [`engine::TrafficEngine`] partitions traffic
//!   across worker threads by a stable hash: of the tenant id
//!   ([`ShardingMode::ByTenant`]) or, for stateless and flow-keyed-state
//!   tenants, of the per-packet flow key ([`ShardingMode::ByFlow`] — the
//!   tenant's program is replicated on every shard and a single hot tenant
//!   scales past one core).  Each shard owns private replicas of the device
//!   planes its residents traverse and runs every admitted packet to
//!   completion along its tenant's route ([`shard`]).  Tenant isolation
//!   (renamed objects + user-id guards) makes the partition semantically
//!   equivalent to one shared store: the union of shard stores equals the
//!   unsharded store, and per-tenant results are invariant in the shard
//!   count (bit-identically for `ByTenant`, statistically — merged counter
//!   totals, additively re-merged flow-keyed state — for `ByFlow`).
//! * **Bounded ingress & backpressure** — each shard admits at most
//!   [`EngineConfig::queue_capacity`] in-flight packets; the configured
//!   [`OverloadPolicy`] either sheds the excess at the tail or stalls the
//!   injector against a credit budget.  [`EngineHandle::inject`] returns
//!   admitted/shed counts, and per-tenant sheds, backpressure waits and
//!   queue-depth high-water marks surface in the telemetry — overload is
//!   modeled and observable, never an invisible unbounded buffer.
//! * **Workload generation** — [`workload`] re-exports the emulator's
//!   seeded, open-loop generators (the aggregation ablation loop pulls from
//!   them too):
//!   a Zipf-skewed KVS stream, sparse gradient aggregation, and a mixed
//!   multi-tenant profile.
//! * **Telemetry** — [`telemetry`] keeps lock-free per-shard counters merged
//!   into per-tenant stats: goodput against the workload's virtual clock,
//!   in-network hit ratio, p50/p99 device processing time from log₂
//!   histograms, per-link byte counts — all exportable as JSON.
//! * **Live reconfiguration** — tenants are added and removed *while other
//!   tenants' traffic flows*.  Control messages share the FIFO channel with
//!   traffic, so a removal quiesces exactly the affected tenant's queued
//!   packets, then drops only its snippets and tables.  The engine keeps
//!   one record per tenant (mode, hops, counters, budget, reshard baseline)
//!   in one map behind one lock, so a removal forgets the tenant in one
//!   step and a successor under the same name inherits nothing.  The
//!   telemetry registry sits behind the same lock, and the adaptive loop
//!   ([`adaptive`]) decides from its snapshots alone; the only other mutex
//!   is a flush barrier's latch.  The
//!   `clickinc` crate's `ClickIncService` facade owns both a controller and
//!   an engine and mirrors every transactional deploy/remove onto the
//!   shards automatically.
//! * **One execution tier** — shard workers run the compiled register VM,
//!   the configuration a deploy ships.  The reference interpreter is the
//!   emulator's differential oracle, selectable per `DevicePlane` only —
//!   not an engine setting.
//!
//! ```
//! use clickinc_runtime::{EngineConfig, ShardingMode, TrafficEngine};
//! use clickinc_runtime::workload::{KvsWorkload, KvsWorkloadConfig};
//!
//! let engine = TrafficEngine::new(EngineConfig { shards: 2, ..Default::default() });
//! let handle = engine.handle();
//! // no hops: pure pass-through; flow-sharded across both workers
//! handle.add_tenant_sharded("t1", Vec::new(), ShardingMode::ByFlow { key_fields: Vec::new() });
//! let mut wl = KvsWorkload::new(KvsWorkloadConfig {
//!     tenant: "t1".into(),
//!     requests: 100,
//!     ..Default::default()
//! });
//! let report = handle.run_workload(&mut wl, 100, 32);
//! assert_eq!((report.admitted, report.shed), (100, 0));
//! handle.flush();
//! let outcome = engine.finish();
//! assert_eq!(outcome.telemetry.tenant("t1").unwrap().to_server, 100);
//! ```

pub mod adaptive;
pub mod engine;
pub mod faults;
pub mod shard;
pub mod telemetry;
pub mod tenant;
pub use clickinc_emulator::workload;

pub use adaptive::{AdaptAction, AdaptiveController, AdaptivePolicy, AdaptiveTick};
pub use engine::{
    EngineConfig, EngineError, EngineHandle, InjectOutcome, OverloadPolicy, RunOutcome,
    TrafficEngine, WorkloadReport,
};
pub use faults::{DeviceHealth, FaultEvent, FaultInjector, FaultKind, FaultPlan};
pub use telemetry::{TelemetryReport, TenantCounters, TenantStats};
pub use tenant::{ShardingMode, TenantHop};
pub use workload::{
    GeneratedPacket, KvsWorkload, KvsWorkloadConfig, MixedWorkload, MlAggWorkload,
    MlAggWorkloadConfig, Workload,
};

/// Recover a guard even if a holder panicked: every mutation behind the
/// runtime's two locks leaves the data consistent, so a panic must not
/// cascade into every later caller.
pub(crate) fn recover<T>(lock: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}
