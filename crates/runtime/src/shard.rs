//! Shard workers: each owns a partition of the data-plane state and drains
//! per-device ingress queues in batches.
//!
//! The engine partitions traffic across shards by a stable hash — of the
//! tenant id for [`ShardingMode::ByTenant`] tenants, of the per-packet flow
//! key for [`ShardingMode::ByFlow`] tenants (see `crate::tenant`).  A shard
//! owns private replicas of the device planes its residents traverse, so the
//! packet hot path touches no shared mutable state at all — the only
//! cross-thread traffic is the inbound message channel, the relaxed atomic
//! telemetry counters, and the shard's in-flight depth gauge the engine's
//! admission control reads.  Tenant isolation renames every stateful object
//! with the owner's prefix and guards every instruction with a user-id
//! match, so partitioning state *by tenant* is semantically identical to the
//! single shared store a real device would hold; partitioning *by flow* is
//! identical for flow-keyed state because every packet that can touch a
//! given state cell carries the same flow key and therefore lands on the
//! same shard.
//!
//! Control messages (tenant add/remove, table writes, flush) travel on the
//! same FIFO channel as traffic batches, so a reconfiguration is naturally
//! quiesced: by the time a `RemoveTenant` is handled, every batch injected
//! before it has fully drained, and the removal touches only the departing
//! tenant's snippets and tables ([`DevicePlane::uninstall`]).  A worker
//! holds only what it needs to run a resident (its route and counter block);
//! the tenant's one authoritative record lives in the engine, which tells
//! every hosting shard when it is removed.  Planes run the emulator's
//! default tier, the compiled register VM.
//!
//! [`ShardingMode::ByTenant`]: crate::tenant::ShardingMode::ByTenant
//! [`ShardingMode::ByFlow`]: crate::tenant::ShardingMode::ByFlow

use crate::faults::DeviceHealth;
use crate::telemetry::TenantCounters;
use crate::tenant::TenantHop;
use clickinc_emulator::{DevicePlane, Fnv, ObjectStore, Packet, PacketAction};
use clickinc_ir::Value;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;

/// A packet in flight inside a shard, with its route and accumulated clock.
struct Job {
    counters: Arc<TenantCounters>,
    route: Arc<Vec<String>>,
    hop: usize,
    vtime_ns: u64,
    latency_ns: f64,
    packet: Packet,
}

/// A tenant resident on a shard.
struct TenantState {
    route: Arc<Vec<String>>,
    counters: Arc<TenantCounters>,
}

/// Messages a shard worker consumes.  The channel is FIFO, which is what
/// serializes traffic against reconfiguration.
pub(crate) enum ShardMsg {
    /// Install a tenant: create/extend device planes, install snippets.
    /// Flow-sharded tenants are installed on every shard, each with its own
    /// counter block.
    AddTenant { user: String, hops: Vec<TenantHop>, counters: Arc<TenantCounters> },
    /// Quiesce and remove a tenant's snippets and state.
    RemoveTenant { user: String },
    /// Quiesce a tenant, remove its snippets, and ship back its
    /// exclusively-owned state per device — the extraction half of a live
    /// reshard.  The FIFO channel guarantees every batch injected before
    /// this message has fully drained first.
    ExtractTenant { user: String, ack: Sender<BTreeMap<String, ObjectStore>> },
    /// Merge extracted state into one device replica's store — the seeding
    /// half of a live reshard.  Ordered after the `AddTenant` that
    /// re-installed the tenant (same FIFO channel), so the objects are
    /// already declared; the merge is additive/idempotent per object kind.
    SeedState { device: String, store: ObjectStore },
    /// A batch of packets for one tenant, in stream order, already admitted
    /// against the shard's bounded ingress queue.
    Inject { user: Arc<str>, jobs: Vec<(u64, Packet)> },
    /// Control-plane table write (e.g. pre-populating a KVS cache).
    TableWrite { device: String, table: String, key: Vec<Value>, value: Vec<Value> },
    /// Apply an injected fault (or a restore) to one device: `Down` devices
    /// lose every packet reaching them, `Flaky` ones drop a deterministic
    /// fraction, `Degraded` ones scale their latency.  Ordered on the FIFO
    /// channel like every other control message.
    SetDeviceHealth { device: String, health: DeviceHealth },
    /// Barrier: acknowledge once every queued packet has drained.
    Flush(Sender<()>),
    /// Drain, ship the final planes back, and exit.
    Stop(Sender<ShardFinal>),
}

/// What a shard hands back when it stops: its device-plane replicas, whose
/// stores the engine merges into the network-wide final state.
pub(crate) struct ShardFinal {
    pub planes: BTreeMap<String, DevicePlane>,
}

/// The worker loop: owned by one OS thread per shard.
pub(crate) struct ShardWorker {
    batch_size: usize,
    planes: BTreeMap<String, DevicePlane>,
    tenants: BTreeMap<String, TenantState>,
    queues: BTreeMap<String, VecDeque<Job>>,
    /// Devices with queued jobs, drained round-robin.  May transiently hold
    /// a duplicate entry (skipped on pop when its queue is already empty);
    /// batch selection stays O(1) amortized either way.
    active: VecDeque<String>,
    /// In-flight packet count shared with the engine's admission control:
    /// the injector increments it per admitted packet, this worker
    /// decrements it as packets reach a terminal outcome.
    depth: Arc<AtomicU64>,
    /// Injected device faults in effect (sparse: healthy devices are
    /// absent).  Applied in `pump` before the device processes a batch.
    device_health: BTreeMap<String, DeviceHealth>,
}

impl ShardWorker {
    pub(crate) fn run(rx: Receiver<ShardMsg>, batch_size: usize, depth: Arc<AtomicU64>) {
        let mut worker = ShardWorker {
            batch_size: batch_size.max(1),
            planes: BTreeMap::new(),
            tenants: BTreeMap::new(),
            queues: BTreeMap::new(),
            active: VecDeque::new(),
            depth,
            device_health: BTreeMap::new(),
        };
        while let Ok(msg) = rx.recv() {
            match msg {
                ShardMsg::AddTenant { user, hops, counters } => {
                    worker.add_tenant(user, hops, counters)
                }
                ShardMsg::RemoveTenant { user } => worker.remove_tenant(&user),
                ShardMsg::ExtractTenant { user, ack } => {
                    let _ = ack.send(worker.extract_tenant(&user));
                }
                ShardMsg::SeedState { device, store } => {
                    if let Some(plane) = worker.planes.get_mut(&device) {
                        plane.store_mut().merge_shard_from(&store, |_| true);
                    }
                }
                ShardMsg::Inject { user, jobs } => {
                    worker.inject(&user, jobs);
                    worker.pump();
                }
                ShardMsg::TableWrite { device, table, key, value } => {
                    if let Some(plane) = worker.planes.get_mut(&device) {
                        plane.store_mut().table_write(&table, &key, value);
                    }
                }
                ShardMsg::SetDeviceHealth { device, health } => {
                    if health == DeviceHealth::Up {
                        worker.device_health.remove(&device);
                    } else {
                        worker.device_health.insert(device, health);
                    }
                }
                ShardMsg::Flush(ack) => {
                    worker.pump();
                    let _ = ack.send(());
                }
                ShardMsg::Stop(ack) => {
                    worker.pump();
                    let _ = ack.send(ShardFinal { planes: std::mem::take(&mut worker.planes) });
                    break;
                }
            }
        }
    }

    fn add_tenant(&mut self, user: String, hops: Vec<TenantHop>, counters: Arc<TenantCounters>) {
        let route: Vec<String> = hops.iter().map(|h| h.device.clone()).collect();
        for hop in hops {
            let plane = self
                .planes
                .entry(hop.device.clone())
                .or_insert_with(|| DevicePlane::new(&hop.device, hop.model.clone()));
            for snippet in hop.snippets {
                plane.install(snippet);
            }
        }
        self.tenants.insert(user, TenantState { route: Arc::new(route), counters });
    }

    fn remove_tenant(&mut self, user: &str) {
        // the FIFO channel already quiesced this tenant's traffic; drop its
        // snippets and exclusively-owned state, leaving co-resident tenants'
        // tables untouched
        let Some(state) = self.tenants.remove(user) else { return };
        for device in state.route.iter() {
            if let Some(plane) = self.planes.get_mut(device) {
                plane.uninstall(user);
            }
        }
    }

    /// Remove a tenant like [`ShardWorker::remove_tenant`], but extract its
    /// exclusively-owned per-device state instead of dropping it.
    fn extract_tenant(&mut self, user: &str) -> BTreeMap<String, ObjectStore> {
        let mut extracted = BTreeMap::new();
        let Some(state) = self.tenants.remove(user) else { return extracted };
        for device in state.route.iter() {
            if let Some(plane) = self.planes.get_mut(device) {
                if let Some(store) = plane.uninstall_extract(user) {
                    extracted.insert(device.clone(), store);
                }
            }
        }
        extracted
    }

    fn inject(&mut self, user: &str, jobs: Vec<(u64, Packet)>) {
        let Some(state) = self.tenants.get(user) else {
            // tenant unknown (never added, or already removed): drop silently —
            // the engine only routes here between add and remove.  The packets
            // were admitted against the depth gauge, so give the credit back.
            self.depth.fetch_sub(jobs.len() as u64, Ordering::Relaxed);
            return;
        };
        let route = Arc::clone(&state.route);
        let counters = Arc::clone(&state.counters);
        counters.packets.fetch_add(jobs.len() as u64, Ordering::Relaxed);
        for (vtime_ns, packet) in jobs {
            let job = Job {
                counters: Arc::clone(&counters),
                route: Arc::clone(&route),
                hop: 0,
                vtime_ns,
                latency_ns: 0.0,
                packet,
            };
            self.enqueue(job);
        }
    }

    fn enqueue(&mut self, job: Job) {
        match job.route.get(job.hop) {
            Some(device) => {
                let queue = self.queues.entry(device.clone()).or_default();
                if queue.is_empty() {
                    self.active.push_back(device.clone());
                }
                queue.push_back(job);
            }
            None => self.complete_at_server(job),
        }
    }

    /// Drain the ingress queues round-robin, `batch_size` packets per device
    /// per turn, until the shard is idle.  The rotating cursor (`active`)
    /// makes batch selection O(1) amortized — no per-round scan over every
    /// device the shard has ever hosted.
    fn pump(&mut self) {
        while let Some(device) = self.active.pop_front() {
            let mut batch: Vec<Job> = {
                let Some(queue) = self.queues.get_mut(&device) else { continue };
                if queue.is_empty() {
                    // stale cursor entry (duplicate); nothing to do
                    continue;
                }
                let take = queue.len().min(self.batch_size);
                queue.drain(..take).collect()
            };
            // injected faults intercept the batch before the device runs:
            // a dead device swallows everything reaching it, a flaky one
            // drops a deterministic (hash-keyed, not wall-clock) fraction
            let health = self.device_health.get(&device).copied().unwrap_or_default();
            match health {
                DeviceHealth::Down => {
                    for job in batch {
                        self.fault_lose(job);
                    }
                    self.requeue_if_backlogged(device);
                    continue;
                }
                DeviceHealth::Flaky { drop_prob } => {
                    let mut kept = Vec::with_capacity(batch.len());
                    for job in batch {
                        if Self::flaky_drops(&device, &job, drop_prob) {
                            self.fault_lose(job);
                        } else {
                            kept.push(job);
                        }
                    }
                    batch = kept;
                    if batch.is_empty() {
                        self.requeue_if_backlogged(device);
                        continue;
                    }
                }
                DeviceHealth::Up | DeviceHealth::Degraded { .. } => {}
            }
            let latency_scale = match health {
                DeviceHealth::Degraded { factor } => factor.max(1.0),
                _ => 1.0,
            };
            let Some(plane) = self.planes.get_mut(&device) else {
                // no replica for this device (snippet-less hop): traverse free
                for mut job in batch {
                    job.hop += 1;
                    self.enqueue(job);
                }
                self.requeue_if_backlogged(device);
                continue;
            };
            // account ingress bytes, lift the packets out, run the whole
            // batch through the device in one call, then re-attach outcomes
            let mut packets: Vec<Packet> = batch
                .iter_mut()
                .map(|job| {
                    if let Some(link) = job.counters.link_bytes.get(job.hop) {
                        link.fetch_add(job.packet.wire_bytes() as u64, Ordering::Relaxed);
                    }
                    std::mem::replace(&mut job.packet, Packet::new("", "", 0, BTreeMap::new()))
                })
                .collect();
            let outcomes = plane.process_batch(&mut packets);
            for ((mut job, packet), outcome) in batch.into_iter().zip(packets).zip(outcomes) {
                job.packet = packet;
                job.latency_ns += outcome.latency_ns * latency_scale;
                match outcome.action {
                    PacketAction::Forward => {
                        job.hop += 1;
                        self.enqueue(job);
                    }
                    PacketAction::Back => {
                        job.counters.hits.fetch_add(1, Ordering::Relaxed);
                        self.finish(job);
                    }
                    PacketAction::Drop => {
                        job.counters.drops.fetch_add(1, Ordering::Relaxed);
                        self.finish(job);
                    }
                }
            }
            self.requeue_if_backlogged(device);
        }
    }

    /// Rotate a device with remaining backlog to the back of the cursor.
    fn requeue_if_backlogged(&mut self, device: String) {
        if self.queues.get(&device).is_some_and(|q| !q.is_empty()) {
            self.active.push_back(device);
        }
    }

    /// A packet lost to an injected fault: counted as `fault_lost` (never as
    /// an in-network drop), with the gauges returned like any terminal
    /// outcome so admission control keeps an accurate in-flight view.
    fn fault_lose(&self, job: Job) {
        job.counters.note_fault_loss(job.vtime_ns);
        let inflight = &job.counters.in_flight;
        let _ = inflight.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1));
        self.depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// Terminal accounting shared by every outcome.
    fn finish(&self, job: Job) {
        let payload = job.packet.wire_bytes().saturating_sub(job.packet.base_bytes) as u64;
        job.counters.payload_bytes.fetch_add(payload, Ordering::Relaxed);
        job.counters.record_completion(job.latency_ns, job.vtime_ns);
        // return the tenant's ingress credit before the shard's depth so the
        // budget admission never observes the gauges crossed
        let inflight = &job.counters.in_flight;
        let _ = inflight.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1));
        self.depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// Deterministic flaky-device drop decision: a stable hash of the device
    /// and the packet's identity mapped to the unit interval, so the same
    /// stream through the same fault plan loses the same packets on every
    /// run and any shard layout.
    fn flaky_drops(device: &str, job: &Job, drop_prob: f64) -> bool {
        let mut h = Fnv::new();
        h.write_str(device);
        h.write_u64(job.vtime_ns);
        h.write_str(&job.packet.src);
        h.write_str(&job.packet.dst);
        let unit = (h.finish() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < drop_prob
    }

    /// The packet traversed every hop: it crosses the final link into the
    /// server.
    fn complete_at_server(&self, job: Job) {
        let wire = job.packet.wire_bytes() as u64;
        job.counters.to_server.fetch_add(1, Ordering::Relaxed);
        job.counters.server_bytes.fetch_add(wire, Ordering::Relaxed);
        if let Some(link) = job.counters.link_bytes.get(job.route.len()) {
            link.fetch_add(wire, Ordering::Relaxed);
        }
        self.finish(job);
    }
}
