//! Per-tenant telemetry: lock-free shard-side counters, merged snapshots.
//!
//! Every shard worker owns a [`TenantCounters`] per resident tenant.  The
//! traffic counters move **per burst**, not per packet: the worker tallies a
//! burst in plain integers and publishes the tally behind its last packet
//! with one relaxed atomic read-modify-write per counter the burst moved
//! (`TenantCounters::publish`) — no locks, no cross-shard cache-line sharing,
//! and no atomic at all on the packet path but the two gauges admission
//! control reads while a burst runs (`in_flight` and the shard depth, which
//! do move per packet).  The visibility rule: a reader racing with traffic
//! lags by at most the burst in progress, and everything a burst did is
//! visible by the time the `flush` behind it is acknowledged.  A snapshot
//! walks the registry under the engine's one lock (never per packet) and
//! merges the per-shard counters into immutable [`TenantStats`] values that
//! derive `serde::Serialize` for JSON export.
//!
//! "Latency" is device processing time only, with no link or server time:
//! not an end-to-end latency.  Its percentiles come from a 64-bucket log₂
//! histogram: deterministic, constant-size, and mergeable by addition.
//! Goodput is computed against the workload's *virtual* clock (open-loop
//! arrival time + accumulated device latency), so identical workloads report
//! identical goodput regardless of how many OS threads the engine happens to
//! run on.

use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of log₂ latency-histogram buckets (covers 1 ns … ~18 s).
pub const HIST_BUCKETS: usize = 64;

/// Lock-free counters for one tenant on one shard.  All updates are relaxed
/// atomics, the traffic counters' once per burst; reads may race with traffic
/// and observe a consistent-enough snapshot (exact once the engine is
/// flushed).
#[derive(Debug)]
pub struct TenantCounters {
    /// Packets injected for the tenant.
    pub packets: AtomicU64,
    /// Packets that reached a terminal outcome (hit, drop or server).
    pub completed: AtomicU64,
    /// Packets answered in-network (a device bounced them back).
    pub hits: AtomicU64,
    /// Packets absorbed by a device (aggregated or filtered).
    pub drops: AtomicU64,
    /// Packets that traversed every hop and reached the destination server.
    pub to_server: AtomicU64,
    /// Wire bytes that crossed the final (server) link.
    pub server_bytes: AtomicU64,
    /// Application payload bytes carried by completed packets.
    pub payload_bytes: AtomicU64,
    /// Sum of per-packet device processing time in nanoseconds (the devices
    /// the packet traversed; no link or server time).
    pub latency_sum_ns: AtomicU64,
    /// Virtual completion clock: max(arrival + latency) over completions.
    pub vtime_max_ns: AtomicU64,
    /// log₂ latency histogram.
    pub hist: [AtomicU64; HIST_BUCKETS],
    /// Wire bytes entering each hop (`route.len()` hops) plus the final
    /// server link (last entry).
    pub link_bytes: Vec<AtomicU64>,
    /// Packets refused at ingress because the shard's bounded queue was full
    /// (drop-tail) or the injector's backpressure credits ran out.
    pub shed: AtomicU64,
    /// Times an injector stalled waiting for the shard to drain
    /// (backpressure credit cycles).
    pub backpressure_waits: AtomicU64,
    /// High-water mark of the owning shard's in-flight packet depth observed
    /// by this tenant's injections.
    pub queue_depth_hwm: AtomicU64,
    /// Packets of this tenant currently in flight on this shard (admitted,
    /// not yet at a terminal outcome).  Transient gauge — the engine's
    /// per-tenant credit-budget admission sums it across the tenant's shard
    /// blocks; it drains back to zero at every flush.
    pub in_flight: AtomicU64,
    /// Packets lost to an injected fault (a `Down` device swallowed them or
    /// a `Flaky` device dropped them).  Distinct from in-network `drops`
    /// (program semantics) and `shed` (ingress overload).
    pub fault_lost: AtomicU64,
    /// Virtual arrival time of the *first* packet lost to a fault
    /// (`u64::MAX` until a fault loss occurs) — the start of the tenant's
    /// observed fault window.
    pub fault_first_vtime_ns: AtomicU64,
    /// Virtual arrival time of the *first* completion this counter block
    /// ever recorded (`u64::MAX` until one completes).  Blocks registered
    /// after a faulted one — a live reshard's or a re-placement's — use it
    /// to date the tenant's recovery.
    pub vtime_first_ns: AtomicU64,
}

impl TenantCounters {
    /// Counters for a tenant whose route has `hops` programmable hops.
    pub fn new(hops: usize) -> TenantCounters {
        TenantCounters {
            packets: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            drops: AtomicU64::new(0),
            to_server: AtomicU64::new(0),
            server_bytes: AtomicU64::new(0),
            payload_bytes: AtomicU64::new(0),
            latency_sum_ns: AtomicU64::new(0),
            vtime_max_ns: AtomicU64::new(0),
            hist: std::array::from_fn(|_| AtomicU64::new(0)),
            link_bytes: (0..=hops).map(|_| AtomicU64::new(0)).collect(),
            shed: AtomicU64::new(0),
            backpressure_waits: AtomicU64::new(0),
            queue_depth_hwm: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            fault_lost: AtomicU64::new(0),
            fault_first_vtime_ns: AtomicU64::new(u64::MAX),
            vtime_first_ns: AtomicU64::new(u64::MAX),
        }
    }

    /// Record a terminal outcome: device processing time and virtual arrival
    /// time.
    pub fn record_completion(&self, latency_ns: f64, vtime_ns: u64) {
        let mut one = BurstTally::default();
        one.complete(latency_ns, vtime_ns);
        self.publish(&one);
    }

    /// Record a packet lost to an injected fault at its virtual arrival
    /// time.
    pub fn note_fault_loss(&self, vtime_ns: u64) {
        let mut one = BurstTally::default();
        one.fault_loss(vtime_ns);
        self.publish(&one);
    }

    /// Add what a burst did: one relaxed read-modify-write per counter the
    /// burst moved, however many packets it held.  Sums, a maximum and two
    /// minima, so the totals do not depend on where a stream was cut.
    pub(crate) fn publish(&self, tally: &BurstTally) {
        let add = |counter: &AtomicU64, n: u64| {
            if n != 0 {
                counter.fetch_add(n, Ordering::Relaxed);
            }
        };
        add(&self.packets, tally.packets);
        add(&self.completed, tally.completed);
        add(&self.hits, tally.hits);
        add(&self.drops, tally.drops);
        add(&self.to_server, tally.to_server);
        add(&self.server_bytes, tally.server_bytes);
        add(&self.payload_bytes, tally.payload_bytes);
        add(&self.latency_sum_ns, tally.latency_sum_ns);
        add(&self.fault_lost, tally.fault_lost);
        for (bucket, n) in self.hist.iter().zip(tally.hist) {
            add(bucket, n);
        }
        for (link, n) in self.link_bytes.iter().zip(&tally.link_bytes) {
            add(link, *n);
        }
        self.vtime_max_ns.fetch_max(tally.vtime_max_ns, Ordering::Relaxed);
        self.vtime_first_ns.fetch_min(tally.vtime_first_ns, Ordering::Relaxed);
        self.fault_first_vtime_ns.fetch_min(tally.fault_first_vtime_ns, Ordering::Relaxed);
    }
}

/// What one burst did to its tenant's counters, tallied by the shard in plain
/// integers while the burst runs and [published](TenantCounters::publish)
/// once behind it.  Field for field the traffic counters of
/// [`TenantCounters`]; the gauges admission reads mid-burst (`in_flight`,
/// the shard depth) are not here — those move per packet.
#[derive(Debug)]
pub(crate) struct BurstTally {
    pub packets: u64,
    completed: u64,
    pub hits: u64,
    pub drops: u64,
    pub to_server: u64,
    pub server_bytes: u64,
    pub payload_bytes: u64,
    latency_sum_ns: u64,
    vtime_max_ns: u64,
    hist: [u64; HIST_BUCKETS],
    /// Indexed like [`TenantCounters::link_bytes`]; a hop past its end is not
    /// counted.
    pub link_bytes: Vec<u64>,
    fault_lost: u64,
    fault_first_vtime_ns: u64,
    vtime_first_ns: u64,
}

impl Default for BurstTally {
    fn default() -> BurstTally {
        BurstTally {
            packets: 0,
            completed: 0,
            hits: 0,
            drops: 0,
            to_server: 0,
            server_bytes: 0,
            payload_bytes: 0,
            latency_sum_ns: 0,
            vtime_max_ns: 0,
            hist: [0; HIST_BUCKETS],
            link_bytes: Vec::new(),
            fault_lost: 0,
            fault_first_vtime_ns: u64::MAX,
            vtime_first_ns: u64::MAX,
        }
    }
}

impl BurstTally {
    /// Start the tally of a burst whose tenant counts `links` links, keeping
    /// the link buffer.
    pub fn restart(&mut self, links: usize) {
        let mut link_bytes = std::mem::take(&mut self.link_bytes);
        link_bytes.clear();
        link_bytes.resize(links, 0);
        *self = BurstTally { link_bytes, ..BurstTally::default() };
    }

    /// A terminal outcome: device processing time and virtual arrival time.
    pub fn complete(&mut self, latency_ns: f64, vtime_ns: u64) {
        let lat = latency_ns.round().max(0.0) as u64;
        self.completed += 1;
        // wraps like the atomic it is added to
        self.latency_sum_ns = self.latency_sum_ns.wrapping_add(lat);
        self.hist[bucket_of(lat)] += 1;
        self.vtime_max_ns = self.vtime_max_ns.max(vtime_ns.saturating_add(lat));
        self.vtime_first_ns = self.vtime_first_ns.min(vtime_ns);
    }

    /// A packet lost to an injected fault at its virtual arrival time.
    pub fn fault_loss(&mut self, vtime_ns: u64) {
        self.fault_lost += 1;
        self.fault_first_vtime_ns = self.fault_first_vtime_ns.min(vtime_ns);
    }
}

/// A tenant's fault window over its counter blocks: the virtual arrival
/// time of its first fault loss and of its recovery, `u64::MAX` for either
/// that has not happened.  Recovery is dated from the blocks registered
/// *after* the last block that observed a fault loss — a live reshard
/// installs the tenant with fresh blocks, so their earliest served arrival
/// is the moment the tenant was serving again.  `fled_fault_ns` is the
/// fault a previous deployment under the name left with its window open: it
/// counts as a faulted block ahead of every block, so a re-placement's
/// blocks date the recovery from it.
fn fault_window(parts: &[Arc<TenantCounters>], fled_fault_ns: Option<u64>) -> (u64, u64) {
    let fault = parts
        .iter()
        .map(|c| c.fault_first_vtime_ns.load(Ordering::Relaxed))
        .chain(fled_fault_ns)
        .min()
        .unwrap_or(u64::MAX);
    let serving_since = match parts.iter().rposition(|c| c.fault_lost.load(Ordering::Relaxed) > 0) {
        Some(last_faulted) => Some(last_faulted + 1),
        None => fled_fault_ns.map(|_| 0),
    };
    let recovery = serving_since
        .and_then(|first| {
            parts[first..].iter().map(|c| c.vtime_first_ns.load(Ordering::Relaxed)).min()
        })
        .unwrap_or(u64::MAX);
    (fault, recovery)
}

/// Histogram bucket for a latency in nanoseconds.
fn bucket_of(ns: u64) -> usize {
    (64 - ns.leading_zeros() as usize).min(HIST_BUCKETS - 1)
}

/// Representative latency of a bucket (geometric midpoint of its range).
fn bucket_value(bucket: usize) -> u64 {
    match bucket {
        0 => 0,
        1 => 1,
        b => (1u64 << (b - 1)) + (1u64 << (b - 2)),
    }
}

/// Immutable per-tenant statistics, merged across shards.
///
/// Equality deliberately ignores [`queue_depth_hwm`](TenantStats::queue_depth_hwm)
/// and [`backpressure_waits`](TenantStats::backpressure_waits): both observe
/// *wall-clock* drain timing (how far a worker thread happened to lag its
/// injector), so they vary run to run even for a fixed seed.  It also
/// ignores [`sharding_mode`](TenantStats::sharding_mode) and
/// [`queue_budget`](TenantStats::queue_budget), which describe deployment
/// configuration rather than traffic outcomes (the adaptive-runtime identity
/// tests compare a resharded run against a static one).  Every other field —
/// including [`shed_packets`](TenantStats::shed_packets), which is
/// deterministic whenever the queue bound is deterministic — participates in
/// the bit-identity the invariance tests assert.
#[derive(Debug, Clone, Serialize)]
pub struct TenantStats {
    /// Tenant (user) id.
    pub tenant: String,
    /// Packets injected.
    pub packets: u64,
    /// Packets that reached a terminal outcome.
    pub completed: u64,
    /// Packets answered in-network.
    pub hits: u64,
    /// Packets absorbed in-network.
    pub drops: u64,
    /// Packets that reached the destination server.
    pub to_server: u64,
    /// In-network hit ratio: `hits / completed`.
    pub hit_ratio: f64,
    /// Application payload bytes carried by completed packets.
    pub payload_bytes: u64,
    /// Wire bytes that crossed the final (server) link.
    pub server_bytes: u64,
    /// Payload bits per virtual nanosecond — Gbps against the workload clock.
    pub goodput_gbps: f64,
    /// Mean device processing time per completed packet in nanoseconds (no
    /// link or server time: not an end-to-end latency).
    pub latency_mean_ns: f64,
    /// Median latency (log-bucket resolution).
    pub latency_p50_ns: u64,
    /// 99th-percentile latency (log-bucket resolution).
    pub latency_p99_ns: u64,
    /// Wire bytes entering each hop, final server link last.
    pub link_bytes: Vec<u64>,
    /// Packets refused at ingress (bounded-queue drop-tail or backpressure
    /// credit exhaustion).  Schema-stable JSON field name.
    pub shed_packets: u64,
    /// Injector stalls waiting for a shard to drain (backpressure cycles).
    /// Timing-dependent; excluded from equality.
    pub backpressure_waits: u64,
    /// Maximum shard in-flight packet depth observed at this tenant's
    /// injections, across shards.  Timing-dependent; excluded from equality.
    pub queue_depth_hwm: u64,
    /// Packets injected per counter block, in shard-registration order: one
    /// entry for a `ByTenant` tenant, one per shard for a flow-sharded
    /// tenant (a live reshard appends the new mode's blocks, so the vector
    /// also records pre-reshard history).  Non-zero entries = counter blocks
    /// the tenant actually utilized.
    pub per_shard_packets: Vec<u64>,
    /// The tenant's *active* [`ShardingMode`](crate::tenant::ShardingMode)
    /// label (`"by_tenant"`, `"by_flow"`, `"by_flow:<fields>"`) — so
    /// operators and the adaptive loop see the live mode.  Deployment
    /// configuration, not a traffic outcome; excluded from equality.
    pub sharding_mode: String,
    /// The tenant's active ingress credit budget (max in-flight packets
    /// across shards).  Deployment configuration; excluded from equality.
    pub queue_budget: u64,
    /// Packets lost to injected faults (dead or flaky devices) — never
    /// conflated with in-network `drops` or ingress `shed_packets`.  The
    /// fault schedule rides the virtual clock, so this is deterministic and
    /// participates in equality (co-residents of a failed device must show
    /// exactly zero).
    pub fault_lost_packets: u64,
    /// Virtual arrival time of the first packet lost to a fault (0 when the
    /// tenant never lost one).  A deployment whose predecessor under the
    /// name was removed before it served again — a failover's re-placement —
    /// carries the fault its predecessor fled.
    pub fault_vtime_ns: u64,
    /// Virtual arrival time of the first packet served by a counter block
    /// registered after the tenant's last faulted one (0 until recovery): a
    /// live reshard's blocks, or a re-placement's, dating the recovery from
    /// the fault its predecessor fled.
    pub recovery_vtime_ns: u64,
    /// Virtual-clock time from first fault loss to the first service by a
    /// later block — 0 while unrecovered or never faulted.
    pub time_to_recovery_ns: u64,
}

impl PartialEq for TenantStats {
    fn eq(&self, other: &Self) -> bool {
        self.tenant == other.tenant
            && self.packets == other.packets
            && self.completed == other.completed
            && self.hits == other.hits
            && self.drops == other.drops
            && self.to_server == other.to_server
            && self.hit_ratio == other.hit_ratio
            && self.payload_bytes == other.payload_bytes
            && self.server_bytes == other.server_bytes
            && self.goodput_gbps == other.goodput_gbps
            && self.latency_mean_ns == other.latency_mean_ns
            && self.latency_p50_ns == other.latency_p50_ns
            && self.latency_p99_ns == other.latency_p99_ns
            && self.link_bytes == other.link_bytes
            && self.shed_packets == other.shed_packets
            && self.per_shard_packets == other.per_shard_packets
            && self.fault_lost_packets == other.fault_lost_packets
            && self.fault_vtime_ns == other.fault_vtime_ns
            && self.recovery_vtime_ns == other.recovery_vtime_ns
            && self.time_to_recovery_ns == other.time_to_recovery_ns
    }
}

impl TenantStats {
    /// Merge one tenant's per-shard counters into a stats value.
    pub fn merge(tenant: &str, parts: &[Arc<TenantCounters>]) -> TenantStats {
        TenantStats::merge_after(tenant, parts, None)
    }

    /// [`merge`](TenantStats::merge) for a deployment whose predecessor
    /// under the same name left at `fled_fault_ns` with its fault window
    /// open: the window is dated from that fault, and the deployment's
    /// first served packet ends it.
    fn merge_after(
        tenant: &str,
        parts: &[Arc<TenantCounters>],
        fled_fault_ns: Option<u64>,
    ) -> TenantStats {
        let sum = |f: &dyn Fn(&TenantCounters) -> &AtomicU64| -> u64 {
            parts.iter().map(|c| f(c).load(Ordering::Relaxed)).sum()
        };
        let packets = sum(&|c| &c.packets);
        let completed = sum(&|c| &c.completed);
        let hits = sum(&|c| &c.hits);
        let drops = sum(&|c| &c.drops);
        let to_server = sum(&|c| &c.to_server);
        let payload_bytes = sum(&|c| &c.payload_bytes);
        let server_bytes = sum(&|c| &c.server_bytes);
        let latency_sum = sum(&|c| &c.latency_sum_ns);
        let shed_packets = sum(&|c| &c.shed);
        let backpressure_waits = sum(&|c| &c.backpressure_waits);
        let vtime_max =
            parts.iter().map(|c| c.vtime_max_ns.load(Ordering::Relaxed)).max().unwrap_or(0);
        let queue_depth_hwm =
            parts.iter().map(|c| c.queue_depth_hwm.load(Ordering::Relaxed)).max().unwrap_or(0);
        let per_shard_packets: Vec<u64> =
            parts.iter().map(|c| c.packets.load(Ordering::Relaxed)).collect();
        let fault_lost_packets = sum(&|c| &c.fault_lost);
        let (fault_vtime_raw, recovery_vtime_raw) = fault_window(parts, fled_fault_ns);
        let fault_vtime_ns = if fault_vtime_raw == u64::MAX { 0 } else { fault_vtime_raw };
        let recovery_vtime_ns = if recovery_vtime_raw == u64::MAX { 0 } else { recovery_vtime_raw };
        let time_to_recovery_ns = if fault_vtime_raw == u64::MAX || recovery_vtime_raw == u64::MAX {
            0
        } else {
            recovery_vtime_raw.saturating_sub(fault_vtime_raw)
        };

        let mut hist = [0u64; HIST_BUCKETS];
        for c in parts {
            for (slot, bucket) in hist.iter_mut().zip(c.hist.iter()) {
                *slot += bucket.load(Ordering::Relaxed);
            }
        }
        let links = parts.iter().map(|c| c.link_bytes.len()).max().unwrap_or(0);
        let mut link_bytes = vec![0u64; links];
        for c in parts {
            for (slot, link) in link_bytes.iter_mut().zip(c.link_bytes.iter()) {
                *slot += link.load(Ordering::Relaxed);
            }
        }

        TenantStats {
            tenant: tenant.to_string(),
            packets,
            completed,
            hits,
            drops,
            to_server,
            hit_ratio: if completed == 0 { 0.0 } else { hits as f64 / completed as f64 },
            payload_bytes,
            server_bytes,
            goodput_gbps: if vtime_max == 0 {
                0.0
            } else {
                payload_bytes as f64 * 8.0 / vtime_max as f64
            },
            latency_mean_ns: if completed == 0 {
                0.0
            } else {
                latency_sum as f64 / completed as f64
            },
            latency_p50_ns: percentile(&hist, completed, 0.50),
            latency_p99_ns: percentile(&hist, completed, 0.99),
            link_bytes,
            shed_packets,
            backpressure_waits,
            queue_depth_hwm,
            per_shard_packets,
            // stamped from the registry's tenant metadata by `snapshot`
            sharding_mode: String::new(),
            queue_budget: 0,
            fault_lost_packets,
            fault_vtime_ns,
            recovery_vtime_ns,
            time_to_recovery_ns,
        }
    }

    /// The largest virtual completion clock across this tenant's counter
    /// blocks (arrival + accumulated latency of the latest completion).
    fn vtime_max(parts: &[Arc<TenantCounters>]) -> u64 {
        parts.iter().map(|c| c.vtime_max_ns.load(Ordering::Relaxed)).max().unwrap_or(0)
    }
}

/// Percentile over a merged histogram.
fn percentile(hist: &[u64; HIST_BUCKETS], total: u64, q: f64) -> u64 {
    if total == 0 {
        return 0;
    }
    let target = ((total as f64) * q).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (bucket, count) in hist.iter().enumerate() {
        seen += count;
        if seen >= target {
            return bucket_value(bucket);
        }
    }
    bucket_value(HIST_BUCKETS - 1)
}

/// A merged snapshot of every tenant the engine serves.
///
/// Each snapshot is stamped with a monotonically increasing
/// [`snapshot_seq`](TelemetryReport::snapshot_seq) and the virtual clock it
/// observed, so a control loop computing deltas between two snapshots can
/// order them and normalize by virtual time instead of racing wall clocks.
/// Equality ignores `snapshot_seq` (it is provenance, not state): two
/// snapshots of identical counters compare equal.
#[derive(Debug, Clone, Serialize)]
pub struct TelemetryReport {
    /// Monotonically increasing snapshot sequence number (1-based, per
    /// registry).
    pub snapshot_seq: u64,
    /// The largest virtual completion clock observed across all tenants,
    /// removed ones included, in nanoseconds — the report's position on the
    /// workload's virtual timeline.
    pub vtime_ns: u64,
    /// Per-tenant statistics, keyed by tenant id.
    pub tenants: BTreeMap<String, TenantStats>,
}

impl PartialEq for TelemetryReport {
    fn eq(&self, other: &Self) -> bool {
        self.vtime_ns == other.vtime_ns && self.tenants == other.tenants
    }
}

impl TelemetryReport {
    /// The stats of one tenant, if it is deployed on the engine.
    pub fn tenant(&self, name: &str) -> Option<&TenantStats> {
        self.tenants.get(name)
    }

    /// Pretty-printed JSON export.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("telemetry serializes")
    }
}

/// What the registry keeps of one deployment: its counter blocks in
/// registration order, the deployment metadata stamped onto its snapshots
/// (the active sharding-mode label and ingress credit budget), and the fault
/// window its predecessor under the name left open, if any.
#[derive(Debug, Default)]
struct TenantEntry {
    blocks: Vec<Arc<TenantCounters>>,
    sharding_mode: String,
    queue_budget: u64,
    fled_fault_ns: Option<u64>,
}

impl TenantEntry {
    fn stats(&self, tenant: &str) -> TenantStats {
        let mut stats = TenantStats::merge_after(tenant, &self.blocks, self.fled_fault_ns);
        stats.sharding_mode.clone_from(&self.sharding_mode);
        stats.queue_budget = self.queue_budget;
        stats
    }
}

/// The engine-side registry mapping tenants to their per-shard counters: a
/// field of the engine's state behind its one lock, never touched on the
/// packet path.  It lists the live tenants only: a removal takes the
/// tenant's entry out, so a snapshot costs the tenants served now, not every
/// tenant the engine ever hosted, and a redeployment under a reused name
/// starts from zero counters.  A reshard keeps the old blocks beside the new
/// ones, so a live tenant's totals stay continuous.
///
/// A removed entry drains before it retires: its shards may still be
/// serving the tenant's queued traffic, which completes into its blocks.
/// Each shard lets go of its block once it has served everything queued for
/// the tenant, so an entry whose blocks no one else holds is final; every
/// registry call that can see one retires it.
#[derive(Debug, Default)]
pub(crate) struct TelemetryRegistry {
    tenants: BTreeMap<String, TenantEntry>,
    /// Removed tenants' entries whose blocks a shard still holds.
    draining: Vec<(String, TenantEntry)>,
    /// Snapshot sequence; `snapshot` increments it.
    seq: u64,
    /// The latest virtual completion clock of the retired tenants, so a
    /// report's clock never runs back when a tenant leaves.
    retired_vtime_ns: u64,
    /// Retired tenants that left with their fault window open (they lost
    /// packets to a fault and were not served since): the first fault loss,
    /// by name, until the next deployment under the name takes it over.  A
    /// failover removes its victims and re-places them under their names,
    /// so the re-placement dates its recovery from the fault it fled.
    fled_faults: BTreeMap<String, u64>,
}

impl TelemetryRegistry {
    /// Register a (tenant, shard) counter block.
    pub(crate) fn register(&mut self, tenant: &str, counters: Arc<TenantCounters>) {
        self.entry(tenant).blocks.push(counters);
    }

    /// The tenant's live entry; a new one takes over the fault window a
    /// retired tenant of the name left open.
    fn entry(&mut self, tenant: &str) -> &mut TenantEntry {
        let fled_faults = &mut self.fled_faults;
        self.tenants.entry(tenant.to_string()).or_insert_with(|| TenantEntry {
            fled_fault_ns: fled_faults.remove(tenant),
            ..TenantEntry::default()
        })
    }

    /// Take a removed tenant's entry out of the live set: later snapshots do
    /// not list it, and a deployment under the name starts a new entry.  The
    /// entry drains until its shards let go of its blocks.
    pub(crate) fn remove(&mut self, tenant: &str) {
        if let Some(entry) = self.tenants.remove(tenant) {
            self.draining.push((tenant.to_string(), entry));
        }
        self.retire_drained();
    }

    /// Retire every removed entry whose blocks no shard holds any more —
    /// its counters are final: fold its clock into the reports, and leave
    /// its fault window to the name's next deployment if it left with the
    /// window open.
    fn retire_drained(&mut self) {
        let drained = self.draining.extract_if(.., |(_, entry)| {
            entry.blocks.iter().all(|block| Arc::strong_count(block) == 1)
        });
        for (tenant, entry) in drained {
            let vtime_ns = TenantStats::vtime_max(&entry.blocks);
            self.retired_vtime_ns = self.retired_vtime_ns.max(vtime_ns);
            let (fault, recovery) = fault_window(&entry.blocks, entry.fled_fault_ns);
            if fault == u64::MAX || recovery != u64::MAX {
                continue;
            }
            match self.tenants.get_mut(&tenant) {
                // the next deployment registered while this one drained
                Some(next) => {
                    next.fled_fault_ns = Some(next.fled_fault_ns.unwrap_or(fault).min(fault))
                }
                None => {
                    self.fled_faults.insert(tenant, fault);
                }
            }
        }
    }

    /// Record a tenant's active sharding mode and ingress budget, exported
    /// with every subsequent snapshot.
    pub(crate) fn set_meta(&mut self, tenant: &str, sharding_mode: String, queue_budget: u64) {
        let entry = self.entry(tenant);
        entry.sharding_mode = sharding_mode;
        entry.queue_budget = queue_budget;
    }

    /// Merge every tenant's counters into a report, stamped with the next
    /// snapshot sequence number and the virtual clock it observed.
    pub(crate) fn snapshot(&mut self) -> TelemetryReport {
        self.retire_drained();
        self.seq += 1;
        let draining = self.draining.iter().map(|(_, entry)| TenantStats::vtime_max(&entry.blocks));
        let mut vtime_ns = draining.fold(self.retired_vtime_ns, u64::max);
        let merged: BTreeMap<String, TenantStats> = self
            .tenants
            .iter()
            .map(|(name, entry)| {
                vtime_ns = vtime_ns.max(TenantStats::vtime_max(&entry.blocks));
                (name.clone(), entry.stats(name))
            })
            .collect();
        TelemetryReport { snapshot_seq: self.seq, vtime_ns, tenants: merged }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_the_latency_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
        for b in 2..20 {
            let v = bucket_value(b);
            assert_eq!(bucket_of(v), b, "midpoint of bucket {b} maps back");
        }
    }

    #[test]
    fn merge_sums_counters_and_computes_ratios() {
        let a = Arc::new(TenantCounters::new(2));
        let b = Arc::new(TenantCounters::new(2));
        for (c, n) in [(&a, 3u64), (&b, 1u64)] {
            for _ in 0..n {
                c.packets.fetch_add(1, Ordering::Relaxed);
                c.hits.fetch_add(1, Ordering::Relaxed);
                c.payload_bytes.fetch_add(100, Ordering::Relaxed);
                c.record_completion(500.0, 1_000);
            }
        }
        let stats = TenantStats::merge("t", &[a, b]);
        assert_eq!(stats.packets, 4);
        assert_eq!(stats.completed, 4);
        assert_eq!(stats.hits, 4);
        assert_eq!(stats.hit_ratio, 1.0);
        assert_eq!(stats.payload_bytes, 400);
        assert_eq!(stats.latency_mean_ns, 500.0);
        assert!(stats.latency_p50_ns >= 256 && stats.latency_p50_ns <= 1024);
        assert!(stats.goodput_gbps > 0.0);
    }

    /// Every counter of a block, as plain integers.
    fn raw(c: &TenantCounters) -> Vec<u64> {
        let scalars = [
            &c.packets,
            &c.completed,
            &c.hits,
            &c.drops,
            &c.to_server,
            &c.server_bytes,
            &c.payload_bytes,
            &c.latency_sum_ns,
            &c.vtime_max_ns,
            &c.fault_lost,
            &c.fault_first_vtime_ns,
            &c.vtime_first_ns,
        ];
        let counters = scalars.into_iter().chain(&c.hist).chain(&c.link_bytes);
        counters.map(|counter| counter.load(Ordering::Relaxed)).collect()
    }

    proptest::proptest! {
        /// A stream's events published as one tally, as a tally per burst
        /// wherever it is cut, or event by event leave the same counters:
        /// histogram, both ends of the virtual clock and the fault window
        /// included.
        #[test]
        fn publishing_per_burst_equals_publishing_per_event(
            draws in proptest::collection::vec(0u64..4 * 5_000 * 100_000, 1..60),
            cut in 1usize..70,
        ) {
            // one draw, three digits: outcome, latency, virtual arrival time
            let events: Vec<(u64, u64, u64)> =
                draws.iter().map(|d| (d % 4, d / 4 % 5_000, d / 20_000)).collect();
            let (whole, cut_up, each) =
                (TenantCounters::new(2), TenantCounters::new(2), TenantCounters::new(2));
            let tally_of = |burst: &[(u64, u64, u64)]| {
                let mut tally = BurstTally::default();
                tally.restart(3);
                for &(kind, latency_ns, vtime_ns) in burst {
                    tally.packets += 1;
                    tally.link_bytes[kind as usize % 3] += latency_ns;
                    match kind {
                        0 => tally.fault_loss(vtime_ns),
                        _ => tally.complete(latency_ns as f64, vtime_ns),
                    }
                }
                tally
            };
            whole.publish(&tally_of(&events));
            for burst in events.chunks(cut) {
                cut_up.publish(&tally_of(burst));
            }
            for &(kind, latency_ns, vtime_ns) in &events {
                each.packets.fetch_add(1, Ordering::Relaxed);
                each.link_bytes[kind as usize % 3].fetch_add(latency_ns, Ordering::Relaxed);
                match kind {
                    0 => each.note_fault_loss(vtime_ns),
                    _ => each.record_completion(latency_ns as f64, vtime_ns),
                }
            }
            proptest::prop_assert_eq!(raw(&whole), raw(&each));
            proptest::prop_assert_eq!(raw(&cut_up), raw(&each));
        }
    }

    #[test]
    fn report_exports_json() {
        let mut registry = TelemetryRegistry::default();
        let counters = Arc::new(TenantCounters::new(1));
        counters.shed.fetch_add(3, Ordering::Relaxed);
        counters.backpressure_waits.fetch_add(2, Ordering::Relaxed);
        counters.queue_depth_hwm.fetch_max(17, Ordering::Relaxed);
        counters.record_completion(100.0, 1_000);
        registry.register("alpha", counters);
        registry.set_meta("alpha", "by_flow:key".to_string(), 512);
        let report = registry.snapshot();
        let json = report.to_json();
        assert!(json.contains("\"alpha\""));
        assert!(json.contains("\"goodput_gbps\""));
        // congestion counters are part of the stable export schema
        assert!(json.contains("\"shed_packets\": 3"));
        assert!(json.contains("\"backpressure_waits\": 2"));
        assert!(json.contains("\"queue_depth_hwm\": 17"));
        assert!(json.contains("\"per_shard_packets\""));
        // adaptive-runtime observability: active mode, budget, snapshot stamp
        assert!(json.contains("\"sharding_mode\": \"by_flow:key\""));
        assert!(json.contains("\"queue_budget\": 512"));
        assert!(json.contains("\"snapshot_seq\": 1"));
        assert!(json.contains("\"vtime_ns\": 1100"));
        // recovery metrics are part of the stable export schema
        assert!(json.contains("\"fault_lost_packets\": 0"));
        assert!(json.contains("\"fault_vtime_ns\": 0"));
        assert!(json.contains("\"recovery_vtime_ns\": 0"));
        assert!(json.contains("\"time_to_recovery_ns\": 0"));
        assert_eq!(report.tenant("alpha").unwrap().packets, 0);
        assert!(report.tenant("missing").is_none());
    }

    #[test]
    fn fault_losses_and_recovery_are_dated_across_blocks() {
        // block 0: served before the fault, then lost packets to it
        let before = Arc::new(TenantCounters::new(1));
        before.record_completion(10.0, 100);
        before.note_fault_loss(5_000);
        before.note_fault_loss(6_000);
        // block 1: registered by the re-placement, first serves at t=9_000
        let after = Arc::new(TenantCounters::new(1));
        after.record_completion(10.0, 9_000);
        after.record_completion(10.0, 12_000);
        let stats = TenantStats::merge("victim", &[Arc::clone(&before), after]);
        assert_eq!(stats.fault_lost_packets, 2);
        assert_eq!(stats.fault_vtime_ns, 5_000);
        assert_eq!(stats.recovery_vtime_ns, 9_000);
        assert_eq!(stats.time_to_recovery_ns, 4_000);
        // unrecovered: the fault block is the last block
        let unrecovered = TenantStats::merge("victim", &[before]);
        assert_eq!(unrecovered.fault_lost_packets, 2);
        assert_eq!(unrecovered.fault_vtime_ns, 5_000);
        assert_eq!(unrecovered.recovery_vtime_ns, 0);
        assert_eq!(unrecovered.time_to_recovery_ns, 0);
        // fault metrics are semantic, not timing noise: they participate in
        // equality so a co-resident's 0 must match the fault-free run's 0
        let clean = TenantStats::merge("victim", &[Arc::new(TenantCounters::new(1))]);
        assert_ne!(unrecovered, clean);
    }

    #[test]
    fn snapshot_seq_is_monotone_and_ignored_by_equality() {
        let mut registry = TelemetryRegistry::default();
        registry.register("t", Arc::new(TenantCounters::new(1)));
        let first = registry.snapshot();
        let second = registry.snapshot();
        assert_eq!(first.snapshot_seq + 1, second.snapshot_seq);
        assert_eq!(first, second, "identical counters compare equal across snapshots");
    }

    #[test]
    fn a_removed_tenant_leaves_the_report_but_not_the_clock() {
        let mut registry = TelemetryRegistry::default();
        // the test holds `late`'s block as its shard would
        let (late, early) = (Arc::new(TenantCounters::new(1)), Arc::new(TenantCounters::new(1)));
        late.record_completion(100.0, 9_000);
        early.record_completion(100.0, 1_000);
        registry.register("late", Arc::clone(&late));
        registry.register("early", early);
        let before = registry.snapshot();
        registry.remove("late");
        let after = registry.snapshot();
        assert_eq!(after.tenants.keys().collect::<Vec<_>>(), ["early"]);
        assert_eq!(after.vtime_ns, before.vtime_ns, "the virtual clock never runs back");
        // the shard serves the tenant's queued traffic, then lets go
        late.record_completion(100.0, 12_000);
        assert_eq!(registry.snapshot().vtime_ns, 12_100, "a draining completion counts");
        drop(late);
        assert_eq!(registry.snapshot().vtime_ns, 12_100, "and stays once the entry retired");
        assert!(registry.draining.is_empty(), "the released entry retired");
        // a redeployment under the name starts from zero
        registry.register("late", Arc::new(TenantCounters::new(1)));
        assert_eq!(registry.snapshot().tenant("late").map(|s| s.packets), Some(0));
        assert!(registry.fled_faults.is_empty(), "no fault window was left open");
    }

    #[test]
    fn a_re_placement_dates_its_recovery_from_the_fault_its_predecessor_fled() {
        let faulted = || {
            let block = Arc::new(TenantCounters::new(1));
            block.record_completion(10.0, 100);
            block.note_fault_loss(5_000);
            block
        };
        // the re-placement registers while its predecessor drains, or after
        for drained_first in [false, true] {
            let mut registry = TelemetryRegistry::default();
            // the test holds the faulted block as its shard would
            let mut shard_hold = Some(faulted());
            registry.register("victim", Arc::clone(shard_hold.as_ref().unwrap()));
            registry.remove("victim");
            if drained_first {
                shard_hold = None;
                registry.snapshot();
                assert_eq!(registry.fled_faults.get("victim"), Some(&5_000), "the window it left");
            }
            let replaced = Arc::new(TenantCounters::new(1));
            registry.register("victim", Arc::clone(&replaced));
            drop(shard_hold);
            // counted from zero, dated from the fault: parked, then serving
            let parked = registry.snapshot().tenant("victim").cloned().expect("registered");
            assert_eq!((parked.fault_lost_packets, parked.fault_vtime_ns), (0, 5_000));
            assert_eq!(parked.time_to_recovery_ns, 0, "not serving yet");
            replaced.record_completion(10.0, 9_000);
            let served = registry.snapshot().tenant("victim").cloned().expect("registered");
            assert_eq!((served.recovery_vtime_ns, served.time_to_recovery_ns), (9_000, 4_000));
            assert!(registry.fled_faults.is_empty(), "the re-placement took the window over");
            // a recovered deployment leaves no window behind
            registry.remove("victim");
            drop(replaced);
            registry.register("victim", Arc::new(TenantCounters::new(1)));
            assert_eq!(registry.snapshot().tenant("victim").map(|s| s.fault_vtime_ns), Some(0));
        }
    }

    #[test]
    fn equality_ignores_wall_clock_observability_but_not_sheds() {
        let mk = |hwm: u64, waits: u64, shed: u64| {
            let c = Arc::new(TenantCounters::new(1));
            c.queue_depth_hwm.fetch_max(hwm, Ordering::Relaxed);
            c.backpressure_waits.fetch_add(waits, Ordering::Relaxed);
            c.shed.fetch_add(shed, Ordering::Relaxed);
            TenantStats::merge("t", &[c])
        };
        assert_eq!(mk(5, 1, 0), mk(99, 7, 0), "hwm/waits are timing noise");
        assert_ne!(mk(5, 1, 0), mk(5, 1, 4), "shed packets are semantic");
        // deployment configuration (mode label, budget) is not a traffic
        // outcome: a resharded run compares equal to a static one
        let mut a = mk(0, 0, 0);
        let b = mk(0, 0, 0);
        a.sharding_mode = "by_flow".to_string();
        a.queue_budget = 64;
        assert_eq!(a, b, "mode/budget are configuration, not outcomes");
    }

    #[test]
    fn percentile_is_monotone_in_q() {
        let c = Arc::new(TenantCounters::new(0));
        for i in 0..1000u64 {
            c.record_completion(i as f64, 0);
        }
        let s = TenantStats::merge("t", &[c]);
        assert!(s.latency_p99_ns >= s.latency_p50_ns);
    }
}
