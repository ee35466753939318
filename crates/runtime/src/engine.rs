//! The traffic engine: shard threads, tenant/flow routing, bounded ingress
//! queues, and the control plane.
//!
//! [`TrafficEngine`] spawns one worker thread per shard and partitions
//! traffic across them — by a stable FNV hash of the tenant id
//! ([`ShardingMode::ByTenant`]) or of the per-packet flow key
//! ([`ShardingMode::ByFlow`], which installs the tenant on *every* shard so
//! one hot tenant can use every core).  All interaction goes through a
//! clonable [`EngineHandle`] — inject traffic, add/remove tenants while
//! other tenants' traffic keeps flowing, write control-plane table entries,
//! flush, snapshot telemetry.
//!
//! Ingress is *bounded*: each shard admits at most
//! [`EngineConfig::queue_capacity`] in-flight packets, and the configured
//! [`OverloadPolicy`] decides what happens beyond that — shed the excess at
//! the tail ([`OverloadPolicy::DropTail`]) or stall the injector until the
//! shard drains, up to a credit budget
//! ([`OverloadPolicy::Backpressure`]).  [`EngineHandle::inject`] reports
//! admitted/shed counts so open-loop drivers observe overload instead of
//! growing an invisible queue.  [`TrafficEngine::finish`] drains every
//! shard, merges the per-shard object stores back into the network-wide view
//! (additively for flow-partitioned state), and returns the final telemetry
//! report.
//!
//! Everything the engine knows about a tenant — sharding mode, home shard,
//! hop list, counter blocks, ingress budget and the replica baseline a live
//! reshard seeded — lives in one `TenantRoute` record, and every record
//! lives in one map behind the engine's one lock.  Removing the map entry
//! therefore forgets the tenant completely: a later tenant reusing the name
//! starts from nothing, and no second structure can disagree with the map.
//! The telemetry registry sits behind the same lock, so a snapshot exports
//! exactly the modes and budgets the routes carry.
//! The shard workers always run the compiled register VM, the tier a deploy
//! ships; the interpreter is the emulator's differential oracle, not an
//! engine setting.

use crate::faults::{DeviceHealth, FaultInjector};
use crate::recover;
use crate::shard::{FlushLatch, ShardFinal, ShardMsg, ShardWorker};
use crate::telemetry::{TelemetryRegistry, TelemetryReport, TenantCounters};
use crate::tenant::{ShardingMode, TenantHop};
use crate::workload::Workload;
use clickinc_emulator::{Fnv, ObjectStore, Packet};
use clickinc_ir::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// Runtime-side failures: today these are all configuration errors caught
/// before any worker thread spawns.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EngineError {
    /// A sizing knob is below its documented minimum.
    InvalidConfig {
        /// The offending [`EngineConfig`] field.
        field: &'static str,
        /// The rejected value.
        value: usize,
        /// The smallest accepted value.
        minimum: usize,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::InvalidConfig { field, value, minimum } => {
                write!(f, "invalid engine config: `{field}` is {value}, minimum is {minimum}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// What a shard does when an injection would push its in-flight depth past
/// [`EngineConfig::queue_capacity`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum OverloadPolicy {
    /// Shed the excess packets at the tail immediately; the sheds are
    /// counted per tenant and reported back from [`EngineHandle::inject`].
    #[default]
    DropTail,
    /// Stall the injector until the shard drains, spending one credit per
    /// wait cycle; when the `credits` budget of one inject call is
    /// exhausted, the remainder is shed.  This is how `run_workload`
    /// throttles open-loop generators against a saturated shard.
    Backpressure {
        /// Wait cycles one inject call may spend per shard (≥ 1).
        credits: usize,
    },
}

/// Engine sizing knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Number of shard worker threads (≥ 1).
    pub shards: usize,
    /// Per-shard bound on in-flight packets (≥ 1).  Injections beyond it are
    /// governed by `overload`.
    pub queue_capacity: usize,
    /// What happens when a shard's ingress queue is full.
    pub overload: OverloadPolicy,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig { shards: 4, queue_capacity: 65_536, overload: OverloadPolicy::DropTail }
    }
}

impl EngineConfig {
    /// Check the sizing knobs: `shards`, `queue_capacity` and the
    /// backpressure credit budget must all be at least 1, otherwise the
    /// worker-spawn and admission paths would be handed degenerate values.
    pub fn validate(&self) -> Result<(), EngineError> {
        if self.shards == 0 {
            return Err(EngineError::InvalidConfig { field: "shards", value: 0, minimum: 1 });
        }
        if self.queue_capacity == 0 {
            return Err(EngineError::InvalidConfig {
                field: "queue_capacity",
                value: 0,
                minimum: 1,
            });
        }
        if let OverloadPolicy::Backpressure { credits: 0 } = self.overload {
            return Err(EngineError::InvalidConfig {
                field: "overload.credits",
                value: 0,
                minimum: 1,
            });
        }
        Ok(())
    }
}

/// Stable tenant → shard hash, independent of process and platform (the
/// emulator's [`Fnv`] digest modulo the shard count).
fn shard_of(tenant: &str, shards: usize) -> usize {
    let mut h = Fnv::new();
    h.write_str(tenant);
    (h.finish() % shards.max(1) as u64) as usize
}

/// Mix a [`Value`] into a digest with a per-variant tag so distinct variants
/// never collide.
fn write_value(h: &mut Fnv, value: &Value) {
    match value {
        Value::Int(i) => {
            h.write_u64(1);
            h.write_u64(*i as u64);
        }
        Value::Float(f) => {
            h.write_u64(2);
            h.write_u64(f.to_bits());
        }
        Value::Bool(b) => {
            h.write_u64(3);
            h.write_u64(u64::from(*b));
        }
        Value::Bytes(bytes) => {
            h.write_u64(4);
            h.write_u64(bytes.len() as u64);
            for b in bytes {
                h.write_u64(u64::from(*b));
            }
        }
        Value::None => h.write_u64(5),
    }
}

/// Stable per-packet flow → shard hash for [`ShardingMode::ByFlow`] tenants:
/// the named key fields' values (or the full flow identity when no fields
/// are named), salted with the tenant id so two tenants' identical flows
/// don't correlate.
fn flow_shard_of(tenant: &str, packet: &Packet, key_fields: &[String], shards: usize) -> usize {
    let mut h = Fnv::new();
    h.write_str(tenant);
    if key_fields.is_empty() {
        h.write_str(packet.src());
        h.write_str(packet.dst());
        for (name, value) in packet.inc.fields() {
            h.write_str(name);
            write_value(&mut h, value);
        }
    } else {
        for field in key_fields {
            write_value(&mut h, packet.inc.get_ref(field));
        }
    }
    (h.finish() % shards.max(1) as u64) as usize
}

/// Admission outcome of one [`EngineHandle::inject`] call (or one workload
/// drive): how many packets the bounded ingress queues accepted and how many
/// were shed under overload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InjectOutcome {
    /// Packets admitted into shard queues.
    pub admitted: usize,
    /// Packets refused (drop-tail overflow or backpressure credit
    /// exhaustion), counted per tenant in the telemetry as `shed_packets`.
    pub shed: usize,
}

impl InjectOutcome {
    fn absorb(&mut self, other: InjectOutcome) {
        self.admitted += other.admitted;
        self.shed += other.shed;
    }
}

/// What [`EngineHandle::run_workload`] hands back: generator progress plus
/// the aggregate admission outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkloadReport {
    /// Packets pulled from the generator.
    pub generated: usize,
    /// Packets the shards admitted.
    pub admitted: usize,
    /// Packets shed under overload.
    pub shed: usize,
}

/// The one record of a registered tenant: everything the engine knows about
/// it.  Published in [`EngineState::tenants`] behind an `Arc`, so the inject
/// path shares it instead of copying the tenant's IR, and dropped with its
/// map entry, so nothing about a removed tenant outlives the removal.
struct TenantRoute {
    mode: ShardingMode,
    /// Home shard for `ByTenant`; unused for `ByFlow`.
    home: usize,
    /// The tenant's hop list, kept so a live reshard can re-install the
    /// program under the new mode.
    hops: Vec<TenantHop>,
    /// Counter blocks indexed like the shards they live on: `ByTenant` has a
    /// single block (the home shard's), `ByFlow` one per shard.
    counters: Vec<Arc<TenantCounters>>,
    /// Per-tenant ingress credit budget: the max packets the tenant may have
    /// in flight across all shards.  Defaults to `shards × queue_capacity`
    /// (the engine-wide aggregate bound, i.e. non-binding); the adaptive
    /// runtime tightens it to a weighted fair share under contention.  A
    /// reshard carries the value over into the new record.
    budget: AtomicU64,
    /// Per-device replica baseline seeded by a live reshard to `ByFlow`
    /// (empty otherwise): every shard received a full copy of the tenant's
    /// pre-reshard state (so flow-keyed *reads* still see history), which the
    /// final additive cross-shard merge counts once per shard.
    /// [`TrafficEngine::finish`] (and the next reshard's extraction) deducts
    /// `shards - 1` copies to restore the exact unsharded state.
    baseline: BTreeMap<String, ObjectStore>,
}

impl TenantRoute {
    /// The shards hosting this tenant's program: its home shard, or all of
    /// them for a flow-sharded tenant.
    fn hosting(&self, shards: usize) -> Range<usize> {
        match self.mode {
            ShardingMode::ByTenant => self.home..self.home + 1,
            ShardingMode::ByFlow { .. } => 0..shards,
        }
    }

    fn counters_for(&self, shard: usize) -> Option<&Arc<TenantCounters>> {
        match self.mode {
            ShardingMode::ByTenant => self.counters.first(),
            ShardingMode::ByFlow { .. } => self.counters.get(shard),
        }
    }

    /// Packets of this tenant currently in flight, summed across its shard
    /// blocks.
    fn in_flight(&self) -> u64 {
        self.counters.iter().map(|c| c.in_flight.load(Ordering::Relaxed)).sum()
    }

    /// Names of the tenant's stateful objects (isolation-renamed, hence
    /// unique to it).
    fn object_names(&self) -> impl Iterator<Item = &str> {
        self.hops
            .iter()
            .flat_map(|hop| hop.snippets.iter())
            .flat_map(|snippet| snippet.objects.iter())
            .map(|object| object.name.as_str())
    }
}

/// The engine's mutable control state, behind [`EngineShared::state`].
#[derive(Default)]
struct EngineState {
    /// Tenant → its one record.  Locked per inject *batch*, never per packet.
    tenants: BTreeMap<String, Arc<TenantRoute>>,
    /// Every counter block any tenant ever registered, with mode and budget.
    telemetry: TelemetryRegistry,
}

/// State shared by every [`EngineHandle`] clone.
struct EngineShared {
    senders: Vec<Sender<ShardMsg>>,
    /// Per-shard in-flight packet gauges (incremented at admission,
    /// decremented by the worker at terminal outcomes).
    depths: Vec<Arc<AtomicU64>>,
    queue_capacity: usize,
    overload: OverloadPolicy,
    state: Mutex<EngineState>,
}

/// Clonable, `Send` front door to a running engine.  Everything the control
/// plane and the workload drivers need — including the controller bridge —
/// goes through this handle.
#[derive(Clone)]
pub struct EngineHandle {
    shared: Arc<EngineShared>,
}

impl EngineHandle {
    /// Register a tenant with the default [`ShardingMode::ByTenant`]: its
    /// traffic route and per-device snippets are installed on the owning
    /// shard's plane replicas.  Traffic injected after this call (the
    /// channel is FIFO) sees the program.
    pub fn add_tenant(&self, user: &str, hops: Vec<TenantHop>) {
        self.add_tenant_sharded(user, hops, ShardingMode::ByTenant);
    }

    /// Register a tenant with an explicit [`ShardingMode`].  `ByTenant`
    /// installs on the single owning shard; `ByFlow` installs the program on
    /// *every* shard (each with its own telemetry counter block) and later
    /// spreads the tenant's packets by the stable flow hash.
    ///
    /// Passing `ByFlow` asserts the program's inter-packet state is safe to
    /// partition by the key fields: every stateful access keyed by them and
    /// every mutation commutatively mergeable (counter adds, idempotent
    /// Bloom sets) or control-plane replicated.  The `clickinc` service
    /// derives the mode from a conservative state-profile analysis instead
    /// of trusting the caller.
    pub fn add_tenant_sharded(&self, user: &str, hops: Vec<TenantHop>, mode: ShardingMode) {
        let budget = self.shared.queue_capacity.saturating_mul(self.shards()) as u64;
        let mut state = self.state();
        let route = self.install_route(&mut state, user, hops, mode, budget);
        state.tenants.insert(user.to_string(), Arc::new(route));
    }

    /// The engine's one lock.  A holder that panicked does not cascade:
    /// every mutation of the state is a single map insert/remove published
    /// at the end of its protocol, so the data behind a poisoned guard is
    /// consistent and is recovered.
    fn state(&self) -> MutexGuard<'_, EngineState> {
        recover(&self.shared.state)
    }

    /// The single tenant-install path shared by [`add_tenant_sharded`] and
    /// the live-reshard path: register a counter block and install the
    /// program on each hosting shard, and stamp the telemetry metadata, all
    /// under the caller's guard.  Does *not* publish the record — the caller
    /// inserts it into the tenant map at the end of its protocol.
    ///
    /// [`add_tenant_sharded`]: EngineHandle::add_tenant_sharded
    fn install_route(
        &self,
        state: &mut EngineState,
        user: &str,
        hops: Vec<TenantHop>,
        mode: ShardingMode,
        budget: u64,
    ) -> TenantRoute {
        let shards = self.shards();
        let mut route = TenantRoute {
            home: if mode.is_by_flow() { 0 } else { shard_of(user, shards) },
            mode,
            hops,
            counters: Vec::new(),
            budget: AtomicU64::new(budget),
            baseline: BTreeMap::new(),
        };
        for shard in route.hosting(shards) {
            let block = Arc::new(TenantCounters::new(route.hops.len()));
            state.telemetry.register(user, Arc::clone(&block));
            let _ = self.shared.senders[shard].send(ShardMsg::AddTenant {
                user: user.to_string(),
                hops: route.hops.clone(),
                counters: Arc::clone(&block),
            });
            route.counters.push(block);
        }
        state.telemetry.set_meta(user, route.mode.label(), budget);
        route
    }

    /// Live-reshard a tenant between [`ShardingMode::ByTenant`] and
    /// [`ShardingMode::ByFlow`] while co-resident tenants keep flowing.
    /// Returns `false` (and does nothing) if the tenant is unknown or
    /// already in `mode`.
    ///
    /// The protocol rides the FIFO control/traffic channels, so no explicit
    /// barrier is needed:
    ///
    /// 1. **Quiesce + extract** — every hosting shard serves the tenant's
    ///    queued traffic, uninstalls its snippets and ships back its
    ///    exclusively-owned state (`ShardMsg::RemoveTenant` with a reply).
    /// 2. **Reconcile** — the per-shard partials merge additively
    ///    (`merge_shard_from`); if a previous reshard had replicated a
    ///    baseline onto every shard, `shards − 1` copies are deducted so the
    ///    merged store equals the exact unsharded state.
    /// 3. **Re-install** — the same install path `add_tenant` uses puts the
    ///    program on the new mode's shard(s) with fresh counter blocks (the
    ///    registry keeps the old blocks, so telemetry totals stay
    ///    continuous).
    /// 4. **Seed** — the merged state is sent to every new hosting shard.
    ///    For `ByFlow` that is a *full replica* per shard — flow-keyed reads
    ///    must see pre-reshard history — and the replica baseline is kept in
    ///    the new record so the final merge can deduct the duplication again.
    ///
    /// The engine lock is held for the whole protocol and the new record
    /// replaces the old one only at its end: injections that race the
    /// reshard wait at the lock and then route under the new mode.  Like
    /// [`add_tenant_sharded`], this trusts the caller that `ByFlow` is sound
    /// for the program; the `clickinc` service layer derives eligibility
    /// from its state-profile analysis (`sharding_mode_for`) and never
    /// flow-shards an ineligible tenant.
    ///
    /// [`add_tenant_sharded`]: EngineHandle::add_tenant_sharded
    pub fn reshard_tenant(&self, user: &str, mode: ShardingMode) -> bool {
        let mut state = self.state();
        let Some(old) = state.tenants.get(user).cloned() else { return false };
        if old.mode == mode {
            return false;
        }
        let shards = self.shards();
        // 1. quiesce + extract on every hosting shard
        let extracted = self.ask(old.hosting(shards), |ack| ShardMsg::RemoveTenant {
            user: user.to_string(),
            ack: Some(ack),
        });
        let mut merged: BTreeMap<String, ObjectStore> = BTreeMap::new();
        for (device, store) in extracted.into_iter().flatten() {
            merged.entry(device).or_default().merge_shard_from(&store, |_| true);
        }
        // 2. deduct the replica baseline a previous reshard seeded
        for (device, base) in &old.baseline {
            if let Some(store) = merged.get_mut(device) {
                store.subtract_replica_baseline(base, (shards - 1) as u64);
            }
        }
        // 3. re-install under the new mode
        let budget = old.budget.load(Ordering::Relaxed);
        let mut route = self.install_route(&mut state, user, old.hops.clone(), mode, budget);
        // 4. seed the reconciled state onto the new hosting shard(s)
        for shard in route.hosting(shards) {
            for (device, store) in &merged {
                let _ = self.shared.senders[shard]
                    .send(ShardMsg::SeedState { device: device.clone(), store: store.clone() });
            }
        }
        if route.mode.is_by_flow() {
            route.baseline = merged;
        }
        state.tenants.insert(user.to_string(), Arc::new(route));
        true
    }

    /// Resize a tenant's ingress credit budget (max in-flight packets across
    /// shards, clamped to ≥ 1).  Takes effect on the next injection; the
    /// telemetry metadata is updated so snapshots export the new budget.
    /// Returns `false` for unknown tenants.
    pub fn set_tenant_budget(&self, user: &str, budget: u64) -> bool {
        let state = &mut *self.state();
        let Some(route) = state.tenants.get(user) else { return false };
        let budget = budget.max(1);
        route.budget.store(budget, Ordering::Relaxed);
        state.telemetry.set_meta(user, route.mode.label(), budget);
        true
    }

    /// A tenant's active sharding mode, if registered.
    pub fn sharding_mode(&self, user: &str) -> Option<ShardingMode> {
        self.state().tenants.get(user).map(|r| r.mode.clone())
    }

    /// Number of shard worker threads.
    pub fn shards(&self) -> usize {
        self.shared.senders.len()
    }

    /// The per-shard bound on in-flight packets.
    pub fn queue_capacity(&self) -> usize {
        self.shared.queue_capacity
    }

    /// Remove a tenant.  Every shard hosting it quiesces the tenant's queued
    /// traffic first (FIFO channel), then drops only its snippets and
    /// exclusively-owned tables; co-resident tenants keep flowing untouched.
    /// A flow-sharded tenant is quiesced on every shard.
    pub fn remove_tenant(&self, user: &str) {
        let Some(route) = self.state().tenants.remove(user) else { return };
        for shard in route.hosting(self.shards()) {
            let _ = self.shared.senders[shard]
                .send(ShardMsg::RemoveTenant { user: user.to_string(), ack: None });
        }
    }

    /// Inject a batch of `(virtual arrival ns, packet)` pairs for a tenant,
    /// in stream order, against the bounded ingress queues.  Returns how
    /// many packets were admitted and how many were shed under the
    /// configured [`OverloadPolicy`]; per-flow order is preserved for
    /// flow-sharded tenants (the partition is a stable hash, and each
    /// shard's channel is FIFO).
    ///
    /// A burst bound for one shard — a `ByTenant` tenant's, or a `ByFlow`
    /// tenant's on a one-shard engine, whose flow partition is the burst
    /// itself — travels to the shard in `jobs`, the caller's own buffer.
    /// Only a multi-shard flow partition builds per-shard buffers, each
    /// sized to its share before the first packet moves.
    pub fn inject(&self, tenant: &Arc<str>, jobs: Vec<(u64, Packet)>) -> InjectOutcome {
        if jobs.is_empty() {
            return InjectOutcome::default();
        }
        // an `Arc` clone of the record: the lock is released before admission
        // (which may stall on backpressure) and the tenant's IR is not copied
        let route = self.state().tenants.get(tenant.as_ref()).cloned();
        let shards = self.shards();
        match route.as_deref() {
            Some(route) => match &route.mode {
                ShardingMode::ByFlow { key_fields } if shards > 1 => {
                    let targets: Vec<usize> = jobs
                        .iter()
                        .map(|(_, packet)| flow_shard_of(tenant, packet, key_fields, shards))
                        .collect();
                    let mut sizes = vec![0usize; shards];
                    for &shard in &targets {
                        sizes[shard] += 1;
                    }
                    let mut partitions: Vec<Vec<(u64, Packet)>> =
                        sizes.into_iter().map(Vec::with_capacity).collect();
                    for (job, shard) in jobs.into_iter().zip(targets) {
                        partitions[shard].push(job);
                    }
                    let mut outcome = InjectOutcome::default();
                    for (shard, part) in partitions.into_iter().enumerate() {
                        if !part.is_empty() {
                            outcome.absorb(self.admit(shard, tenant, part, Some(route)));
                        }
                    }
                    outcome
                }
                // `home` is 0 for a flow tenant, the one shard there is
                _ => self.admit(route.home, tenant, jobs, Some(route)),
            },
            // unknown tenant (never added, or already removed): route by
            // tenant hash, let the shard drop silently.  Still admitted
            // against the queue bound so a misdirected firehose cannot grow
            // the channel unboundedly.
            None => self.admit(shard_of(tenant, shards), tenant, jobs, None),
        }
    }

    /// Admit as much of `jobs` as the shard's bounded queue *and* the
    /// tenant's ingress credit budget allow, applying the overload policy to
    /// the remainder.  Order-preserving.
    fn admit(
        &self,
        shard: usize,
        tenant: &Arc<str>,
        mut jobs: Vec<(u64, Packet)>,
        route: Option<&TenantRoute>,
    ) -> InjectOutcome {
        let counters = route.and_then(|r| r.counters_for(shard));
        let depth = &self.shared.depths[shard];
        let capacity = self.shared.queue_capacity;
        let mut outcome = InjectOutcome::default();
        let mut credits = match self.shared.overload {
            OverloadPolicy::DropTail => 0usize,
            OverloadPolicy::Backpressure { credits } => credits,
        };
        loop {
            // re-read each cycle: the budget may be resized live, and the
            // tenant's in-flight count drains between backpressure waits
            let tenant_room = route
                .map(|r| {
                    let budget = r.budget.load(Ordering::Relaxed);
                    usize::try_from(budget.saturating_sub(r.in_flight())).unwrap_or(usize::MAX)
                })
                .unwrap_or(usize::MAX);
            // reserve room below the bound atomically: concurrent handle
            // clones race on the same gauge, and a load-then-add would let
            // two injectors admit past `queue_capacity` together
            let want = jobs.len().min(tenant_room);
            let mut take = 0usize;
            let reserved = depth.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |current| {
                take = want.min(capacity.saturating_sub(current as usize));
                if take == 0 {
                    None
                } else {
                    Some(current + take as u64)
                }
            });
            if let Ok(current) = reserved {
                // a whole admission sends the caller's buffer itself; only the
                // admitted prefix of a partial one is copied out.  The shard
                // moves the packets into its own reused buffer before it runs
                // them, so it frees a buffer another thread allocated either
                // way.  Not copying a 1 024-packet KVS burst (≈ 115 KB) here,
                // nor partitioning it over one shard in `inject`, measured
                // +22-32 % packets/s on `kvs_serve` and +1-16 % on
                // `mlagg_serve` (ten alternated 30 s pairs, 2-core host), and
                // `allocs_per_op` fell 0.0120 → 0.0013 and 0.0178 → 0.0100
                let admitted = if take == jobs.len() {
                    std::mem::take(&mut jobs)
                } else {
                    jobs.drain(..take).collect()
                };
                if let Some(counters) = counters {
                    counters.queue_depth_hwm.fetch_max(current + take as u64, Ordering::Relaxed);
                    counters.in_flight.fetch_add(take as u64, Ordering::Relaxed);
                }
                let _ = self.shared.senders[shard]
                    .send(ShardMsg::Inject { user: Arc::clone(tenant), jobs: admitted });
                outcome.admitted += take;
            }
            if jobs.is_empty() {
                break;
            }
            if credits == 0 {
                // drop-tail, or a backpressured injector out of credits:
                // shed the rest and surface it
                if let Some(counters) = counters {
                    counters.shed.fetch_add(jobs.len() as u64, Ordering::Relaxed);
                }
                outcome.shed += jobs.len();
                break;
            }
            // backpressure: spend a credit waiting for the shard to drain
            // (the flush barrier returns once everything queued ahead of it —
            // including our own admissions — reached a terminal outcome)
            credits -= 1;
            if let Some(counters) = counters {
                counters.backpressure_waits.fetch_add(1, Ordering::Relaxed);
            }
            self.flush_shards(shard..shard + 1);
        }
        outcome
    }

    /// Control-plane table write on the shard replica(s) that own `tenant` —
    /// the single home shard for a `ByTenant` tenant, every shard for a
    /// flow-sharded tenant (whose planes are replicas).
    pub fn populate_table(
        &self,
        tenant: &str,
        device: &str,
        table: &str,
        key: Vec<Value>,
        value: Vec<Value>,
    ) {
        let shards = self.shards();
        let home = shard_of(tenant, shards);
        let targets =
            self.state().tenants.get(tenant).map_or(home..home + 1, |r| r.hosting(shards));
        for shard in targets {
            let _ = self.shared.senders[shard].send(ShardMsg::TableWrite {
                device: device.to_string(),
                table: table.to_string(),
                key: key.clone(),
                value: value.clone(),
            });
        }
    }

    /// Drain a workload into the engine: packets are pulled from the
    /// generator, grouped per tenant into `inject_batch`-sized batches, and
    /// sent to the owning shards in stream order against the bounded ingress
    /// queues.  Under [`OverloadPolicy::Backpressure`] the injection itself
    /// stalls the (open-loop) generator whenever a shard saturates, spending
    /// credits; under [`OverloadPolicy::DropTail`] the excess is shed.
    /// Stops after `max_packets` (or when the workload is exhausted) and
    /// returns the generated/admitted/shed totals.
    pub fn run_workload(
        &self,
        workload: &mut dyn Workload,
        max_packets: usize,
        inject_batch: usize,
    ) -> WorkloadReport {
        self.drive(workload, max_packets, inject_batch, None)
    }

    /// Apply a device fault (or restore) on every shard: `Down` devices lose
    /// all traffic reaching them, `Flaky` ones drop a deterministic
    /// fraction, `Degraded` ones scale their latency; `Up` clears the fault.
    /// Rides the FIFO channels, so traffic injected before this call is
    /// processed under the old health, traffic after under the new.
    pub fn set_device_health(&self, device: &str, health: DeviceHealth) {
        for sender in &self.shared.senders {
            let _ = sender.send(ShardMsg::SetDeviceHealth { device: device.to_string(), health });
        }
    }

    /// [`run_workload`](EngineHandle::run_workload) with a [`FaultInjector`]
    /// riding the workload's virtual clock: before each generated packet,
    /// any fault event scheduled at or before the packet's arrival time is
    /// applied.  Buffered injections are drained and every shard flushed
    /// first, so each event lands at a deterministic point in the packet
    /// stream — the fault's blast radius is a pure function of (workload
    /// seed, fault plan), independent of thread timing.  Events scheduled
    /// beyond the last generated packet stay pending.
    pub fn run_workload_with_faults(
        &self,
        workload: &mut dyn Workload,
        max_packets: usize,
        inject_batch: usize,
        injector: &mut FaultInjector,
    ) -> WorkloadReport {
        self.drive(workload, max_packets, inject_batch, Some(injector))
    }

    /// The one generate → buffer → inject loop behind both workload drivers.
    fn drive(
        &self,
        workload: &mut dyn Workload,
        max_packets: usize,
        inject_batch: usize,
        mut injector: Option<&mut FaultInjector>,
    ) -> WorkloadReport {
        let inject_batch = inject_batch.max(1);
        let mut buffers: BTreeMap<Arc<str>, Vec<(u64, Packet)>> = BTreeMap::new();
        let mut generated_packets = 0usize;
        let mut outcome = InjectOutcome::default();
        while generated_packets < max_packets {
            let Some(generated) = workload.next_packet() else { break };
            if let Some(injector) = injector.as_deref_mut() {
                let fault_due = injector
                    .pending()
                    .first()
                    .is_some_and(|event| event.at_vtime_ns <= generated.vtime_ns);
                if fault_due {
                    for (tenant, jobs) in std::mem::take(&mut buffers) {
                        outcome.absorb(self.inject(&tenant, jobs));
                    }
                    self.flush();
                    for event in injector.due(generated.vtime_ns) {
                        self.set_device_health(&event.device, event.health);
                    }
                }
            }
            generated_packets += 1;
            let buffer = buffers.entry(Arc::clone(&generated.tenant)).or_default();
            buffer.push((generated.vtime_ns, generated.packet));
            if buffer.len() >= inject_batch {
                let jobs = std::mem::take(buffer);
                outcome.absorb(self.inject(&generated.tenant, jobs));
            }
        }
        for (tenant, jobs) in buffers {
            outcome.absorb(self.inject(&tenant, jobs));
        }
        WorkloadReport {
            generated: generated_packets,
            admitted: outcome.admitted,
            shed: outcome.shed,
        }
    }

    /// Barrier: returns once every shard has served everything injected
    /// before the call.
    pub fn flush(&self) {
        self.flush_shards(0..self.shards());
    }

    /// Barrier on `shards` alone (a stopped shard counts as flushed).
    fn flush_shards(&self, shards: Range<usize>) {
        let latch = FlushLatch::new();
        for shard in shards {
            let _ = self.shared.senders[shard].send(ShardMsg::Flush(latch.token()));
        }
        latch.wait();
    }

    /// Send each of `shards` a message carrying a reply channel, then wait
    /// for every reply (all requests are queued before the first wait; a
    /// shard that already stopped replies nothing).
    fn ask<T>(&self, shards: Range<usize>, msg: impl Fn(Sender<T>) -> ShardMsg) -> Vec<T> {
        let replies: Vec<_> = shards
            .map(|shard| {
                let (tx, rx) = channel();
                let _ = self.shared.senders[shard].send(msg(tx));
                rx
            })
            .collect();
        replies.into_iter().filter_map(|rx| rx.recv().ok()).collect()
    }

    /// Merge the per-shard counters into a per-tenant telemetry report under
    /// the engine's lock.  Cheap and safe to call while traffic flows; exact
    /// after a flush.
    pub fn telemetry(&self) -> TelemetryReport {
        self.state().telemetry.snapshot()
    }
}

/// Everything a finished run leaves behind.
#[derive(Debug)]
pub struct RunOutcome {
    /// Final merged telemetry.
    pub telemetry: TelemetryReport,
    /// Final object stores per device, merged across shards.  Tenant
    /// isolation makes per-shard stores disjoint for `ByTenant` tenants, so
    /// their union equals the store an unsharded run would produce;
    /// flow-sharded tenants' state partitions are merged additively
    /// (counters sum, Bloom rows OR, table entries union), which
    /// reconstructs the unsharded store exactly for flow-keyed state.
    pub stores: BTreeMap<String, ObjectStore>,
}

impl RunOutcome {
    /// [`ObjectStore::fingerprint`] of every device's final store — what the
    /// bit-identity oracles compare across runs.
    pub fn store_fingerprints(&self) -> BTreeMap<String, u64> {
        self.stores.iter().map(|(device, store)| (device.clone(), store.fingerprint())).collect()
    }
}

/// The sharded traffic engine.
pub struct TrafficEngine {
    handle: EngineHandle,
    workers: Vec<JoinHandle<()>>,
}

impl TrafficEngine {
    /// Spawn `config.shards` worker threads, rejecting degenerate configs
    /// with a typed [`EngineError`] instead of clamping.
    pub fn try_new(config: EngineConfig) -> Result<TrafficEngine, EngineError> {
        config.validate()?;
        Ok(TrafficEngine::new(config))
    }

    /// Spawn `config.shards` worker threads.  `shards`, `queue_capacity` and
    /// the backpressure credits are clamped to their documented minimum of
    /// 1; use [`TrafficEngine::try_new`] to reject such configs instead.
    pub fn new(config: EngineConfig) -> TrafficEngine {
        let shards = config.shards.max(1);
        let mut senders = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        let mut depths = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (tx, rx) = channel::<ShardMsg>();
            let depth = Arc::new(AtomicU64::new(0));
            senders.push(tx);
            depths.push(Arc::clone(&depth));
            workers.push(std::thread::spawn(move || ShardWorker::run(rx, depth)));
        }
        let overload = match config.overload {
            OverloadPolicy::Backpressure { credits } => {
                OverloadPolicy::Backpressure { credits: credits.max(1) }
            }
            policy => policy,
        };
        TrafficEngine {
            handle: EngineHandle {
                shared: Arc::new(EngineShared {
                    senders,
                    depths,
                    queue_capacity: config.queue_capacity.max(1),
                    overload,
                    state: Mutex::new(EngineState::default()),
                }),
            },
            workers,
        }
    }

    /// A clonable handle for drivers, the controller bridge, and observers.
    pub fn handle(&self) -> EngineHandle {
        self.handle.clone()
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.handle.shared.senders.len()
    }

    /// Stop every shard, merge their final stores, and return the outcome.
    pub fn finish(self) -> RunOutcome {
        let finals: Vec<ShardFinal> = self.handle.ask(0..self.shards(), ShardMsg::Stop);
        for worker in self.workers {
            let _ = worker.join();
        }
        // the live flow-sharded tenants' objects were partitioned across the
        // shards and merge additively; everything else is first-copy-wins
        let mut state = self.handle.state();
        let partitioned: BTreeSet<&str> = state
            .tenants
            .values()
            .filter(|route| route.mode.is_by_flow())
            .flat_map(|route| route.object_names())
            .collect();
        let mut stores: BTreeMap<String, ObjectStore> = BTreeMap::new();
        for shard_final in finals {
            for (device, plane) in shard_final.planes {
                stores
                    .entry(device)
                    .or_default()
                    .merge_shard_from(plane.store(), |name| partitioned.contains(name));
            }
        }
        // a live reshard to ByFlow seeded every shard with a full copy of
        // the tenant's pre-reshard state; the additive merge above counted
        // that baseline once per shard, so deduct the extra copies to
        // restore the exact unsharded state
        let shards = self.handle.shards();
        for route in state.tenants.values() {
            for (device, base) in &route.baseline {
                if let Some(store) = stores.get_mut(device) {
                    store.subtract_replica_baseline(base, (shards - 1) as u64);
                }
            }
        }
        // the guard is held: `EngineHandle::telemetry` would deadlock
        RunOutcome { telemetry: state.telemetry.snapshot(), stores }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_rejects_every_degenerate_knob() {
        assert!(EngineConfig::default().validate().is_ok());
        let reject = |config: EngineConfig, field: &str| {
            match config.validate().unwrap_err() {
                EngineError::InvalidConfig { field: f, value, minimum } => {
                    assert_eq!(f, field);
                    assert_eq!(value, 0);
                    assert_eq!(minimum, 1);
                }
            };
        };
        reject(EngineConfig { shards: 0, ..Default::default() }, "shards");
        reject(EngineConfig { queue_capacity: 0, ..Default::default() }, "queue_capacity");
        reject(
            EngineConfig {
                overload: OverloadPolicy::Backpressure { credits: 0 },
                ..Default::default()
            },
            "overload.credits",
        );
        // a non-zero credit budget passes
        assert!(EngineConfig {
            overload: OverloadPolicy::Backpressure { credits: 8 },
            ..Default::default()
        }
        .validate()
        .is_ok());
    }

    /// Serve one burst for a pass-through resident, optionally after a thread
    /// died holding the engine lock.
    fn serve_resident(poison: bool) -> crate::TenantStats {
        let engine = TrafficEngine::new(EngineConfig { shards: 2, ..Default::default() });
        let handle = engine.handle();
        handle.add_tenant("resident", Vec::new());
        if poison {
            let poisoner = handle.clone();
            let died = std::thread::spawn(move || {
                let _state = poisoner.shared.state.lock().unwrap();
                panic!("a holder of the engine lock dies");
            })
            .join();
            assert!(died.is_err());
            assert!(handle.shared.state.lock().is_err(), "lock really is poisoned");
        }
        assert!(handle.telemetry().tenant("resident").is_some());
        let jobs = (0..50u64)
            .map(|i| (i * 10, Packet::new("client", "server", 64, BTreeMap::new())))
            .collect();
        let outcome = handle.inject(&Arc::from("resident"), jobs);
        assert_eq!(outcome, InjectOutcome { admitted: 50, shed: 0 });
        handle.flush();
        engine.finish().telemetry.tenant("resident").cloned().expect("resident was served")
    }

    #[test]
    fn a_poisoned_engine_lock_does_not_cascade() {
        let stats = serve_resident(true);
        assert_eq!(stats.to_server, 50);
        assert_eq!(stats, serve_resident(false), "the poisoned run served differently");
    }

    #[test]
    fn flow_hash_is_stable_and_keyed() {
        let mut fields = BTreeMap::new();
        fields.insert("key".to_string(), Value::Int(7));
        fields.insert("op".to_string(), Value::Int(1));
        let a = Packet::new("client", "server", 1, fields.clone());
        let key_fields = vec!["key".to_string()];
        let s1 = flow_shard_of("t", &a, &key_fields, 8);
        let s2 = flow_shard_of("t", &a, &key_fields, 8);
        assert_eq!(s1, s2, "deterministic");
        // a packet differing only in a non-key field lands on the same shard
        fields.insert("op".to_string(), Value::Int(2));
        let b = Packet::new("client", "server", 1, fields.clone());
        assert_eq!(s1, flow_shard_of("t", &b, &key_fields, 8));
        // with the full-flow key, it may differ; with a different key it
        // spreads: over many keys more than one shard is hit
        let mut shards_hit = std::collections::BTreeSet::new();
        for key in 0..64 {
            let mut f = BTreeMap::new();
            f.insert("key".to_string(), Value::Int(key));
            let p = Packet::new("client", "server", 1, f);
            shards_hit.insert(flow_shard_of("t", &p, &key_fields, 8));
        }
        assert!(shards_hit.len() > 1, "keys spread across shards");
    }

    /// `ByFlow` placement is part of a run's result (which shard's store a
    /// cell lands in, which counter block a packet bumps), so the hash is
    /// pinned on literal packets: the values are those of the string-keyed
    /// header map, computed before the slot-vector header replaced it.
    #[test]
    fn flow_hash_placement_is_pinned() {
        use clickinc_emulator::packet::{gradient_packet, kvs_request};
        let mut fields = BTreeMap::new();
        fields.insert("value".to_string(), Value::Bytes(vec![1, 2, 3]));
        fields.insert("ratio".to_string(), Value::Float(0.5));
        fields.insert("flag".to_string(), Value::Bool(true));
        fields.insert("gone".to_string(), Value::None);
        let mixed = Packet::new("h0", "h1", 3, fields);
        let k7 = kvs_request("client", "server", 1, 7);
        let k8 = kvs_request("client", "server", 1, 8);
        let gradient = gradient_packet("worker", "ps", 2, 5, 1, 12, &[1, 0, 3]);
        let full: [String; 0] = [];
        let key = ["key".to_string()];
        let seq = ["seq".to_string(), "bitmap".to_string()];
        // (packet, full identity @8 / @1024 for another tenant, keyed by
        // `key` @8 / @1024, keyed by `seq, bitmap` @8 / @1024)
        let pins = [
            (&k7, (0, 214), (4, 452), (2, 514)),
            (&k8, (3, 21), (3, 171), (2, 514)),
            (&gradient, (6, 360), (7, 455), (5, 901)),
            (&mixed, (3, 121), (7, 455), (2, 514)),
        ];
        for (packet, by_identity, by_key, by_seq) in pins {
            let identity =
                (flow_shard_of("t", packet, &full, 8), flow_shard_of("other", packet, &full, 1024));
            assert_eq!(identity, by_identity, "{packet:?}");
            for (fields, pinned) in [(&key[..], by_key), (&seq[..], by_seq)] {
                let keyed = (
                    flow_shard_of("t", packet, fields, 8),
                    flow_shard_of("t", packet, fields, 1024),
                );
                assert_eq!(keyed, pinned, "{fields:?} of {packet:?}");
            }
        }
    }
}
