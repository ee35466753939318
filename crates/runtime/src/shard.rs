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
//! Device names stop at the message boundary.  A control message that names
//! a device (`AddTenant`, `SetDeviceHealth`) interns it to a dense
//! [`DeviceId`]; planes, ingress queues and health live in vectors indexed by
//! it, a tenant's route is an `Arc<[DeviceId]>`, and the drain cursor holds
//! ids — so moving a packet to its next hop compares and clones no string,
//! and each packet is processed in place in its [`Job`].
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

/// Dense per-shard index of a device, assigned the first time a control
/// message names it.
type DeviceId = usize;

/// A packet in flight inside a shard, with its route and accumulated clock.
struct Job {
    counters: Arc<TenantCounters>,
    route: Arc<[DeviceId]>,
    hop: usize,
    vtime_ns: u64,
    latency_ns: f64,
    packet: Packet,
}

/// A tenant resident on a shard.
struct TenantState {
    route: Arc<[DeviceId]>,
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
    tenants: BTreeMap<String, TenantState>,
    /// Device name → id; `device_names`, `planes`, `queues` and
    /// `device_health` are indexed by the id and grow together in `intern`.
    device_ids: BTreeMap<String, DeviceId>,
    device_names: Vec<String>,
    /// The shard's replica of each device (`None` until a tenant routes
    /// through it).
    planes: Vec<Option<DevicePlane>>,
    queues: Vec<VecDeque<Job>>,
    /// Injected device faults in effect.  Applied in `pump` before the
    /// device processes a packet.
    device_health: Vec<DeviceHealth>,
    /// Devices with queued jobs, drained round-robin.  May transiently hold
    /// a duplicate entry (skipped on pop when its queue is already empty);
    /// batch selection stays O(1) amortized either way.
    active: VecDeque<DeviceId>,
    /// In-flight packet count shared with the engine's admission control:
    /// the injector increments it per admitted packet, this worker
    /// decrements it as packets reach a terminal outcome.
    depth: Arc<AtomicU64>,
}

impl ShardWorker {
    pub(crate) fn run(rx: Receiver<ShardMsg>, batch_size: usize, depth: Arc<AtomicU64>) {
        let mut worker = ShardWorker {
            batch_size: batch_size.max(1),
            tenants: BTreeMap::new(),
            device_ids: BTreeMap::new(),
            device_names: Vec::new(),
            planes: Vec::new(),
            queues: Vec::new(),
            device_health: Vec::new(),
            active: VecDeque::new(),
            depth,
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
                    if let Some(plane) = worker.plane_mut(&device) {
                        plane.store_mut().merge_shard_from(&store, |_| true);
                    }
                }
                ShardMsg::Inject { user, jobs } => {
                    worker.inject(&user, jobs);
                    worker.pump();
                }
                ShardMsg::TableWrite { device, table, key, value } => {
                    if let Some(plane) = worker.plane_mut(&device) {
                        plane.store_mut().table_write(&table, &key, value);
                    }
                }
                ShardMsg::SetDeviceHealth { device, health } => {
                    // interned even before any tenant routes through the
                    // device, so the fault is in effect when one does
                    let id = worker.intern(&device);
                    worker.device_health[id] = health;
                }
                ShardMsg::Flush(ack) => {
                    worker.pump();
                    let _ = ack.send(());
                }
                ShardMsg::Stop(ack) => {
                    worker.pump();
                    let planes = std::mem::take(&mut worker.planes)
                        .into_iter()
                        .flatten()
                        .map(|plane| (plane.name.clone(), plane))
                        .collect();
                    let _ = ack.send(ShardFinal { planes });
                    break;
                }
            }
        }
    }

    /// The id of `device`, assigned on first sight.
    fn intern(&mut self, device: &str) -> DeviceId {
        if let Some(&id) = self.device_ids.get(device) {
            return id;
        }
        let id = self.device_names.len();
        self.device_ids.insert(device.to_string(), id);
        self.device_names.push(device.to_string());
        self.planes.push(None);
        self.queues.push(VecDeque::new());
        self.device_health.push(DeviceHealth::Up);
        id
    }

    /// The shard's replica of a device named by a control message, if a
    /// tenant ever routed through it.
    fn plane_mut(&mut self, device: &str) -> Option<&mut DevicePlane> {
        let id = *self.device_ids.get(device)?;
        self.planes[id].as_mut()
    }

    fn add_tenant(&mut self, user: String, hops: Vec<TenantHop>, counters: Arc<TenantCounters>) {
        let mut route = Vec::with_capacity(hops.len());
        for hop in hops {
            let id = self.intern(&hop.device);
            let plane = self.planes[id]
                .get_or_insert_with(|| DevicePlane::new(&hop.device, hop.model.clone()));
            for snippet in hop.snippets {
                plane.install(snippet);
            }
            route.push(id);
        }
        self.tenants.insert(user, TenantState { route: route.into(), counters });
    }

    fn remove_tenant(&mut self, user: &str) {
        // the FIFO channel already quiesced this tenant's traffic; drop its
        // snippets and exclusively-owned state, leaving co-resident tenants'
        // tables untouched
        let Some(state) = self.tenants.remove(user) else { return };
        for &device in state.route.iter() {
            if let Some(plane) = &mut self.planes[device] {
                plane.uninstall(user);
            }
        }
    }

    /// Remove a tenant like [`ShardWorker::remove_tenant`], but extract its
    /// exclusively-owned per-device state instead of dropping it.
    fn extract_tenant(&mut self, user: &str) -> BTreeMap<String, ObjectStore> {
        let mut extracted = BTreeMap::new();
        let Some(state) = self.tenants.remove(user) else { return extracted };
        for &device in state.route.iter() {
            if let Some(plane) = &mut self.planes[device] {
                if let Some(store) = plane.uninstall_extract(user) {
                    extracted.insert(self.device_names[device].clone(), store);
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
            Some(&device) => {
                let queue = &mut self.queues[device];
                if queue.is_empty() {
                    self.active.push_back(device);
                }
                queue.push_back(job);
            }
            None => self.complete_at_server(job),
        }
    }

    /// Drain the ingress queues round-robin, `batch_size` packets per device
    /// per turn, until the shard is idle.  The rotating cursor (`active`)
    /// makes batch selection O(1) amortized — no per-round scan over every
    /// device the shard has ever hosted.  Each packet runs through the device
    /// where it sits, in its job.
    fn pump(&mut self) {
        while let Some(device) = self.active.pop_front() {
            // zero for a stale cursor entry (duplicate); jobs a packet of
            // this turn re-queues here wait behind the cut for the next one
            let turn = self.queues[device].len().min(self.batch_size);
            let health = self.device_health[device];
            let latency_scale = match health {
                DeviceHealth::Degraded { factor } => factor.max(1.0),
                _ => 1.0,
            };
            for _ in 0..turn {
                let mut job = self.queues[device].pop_front().expect("the turn fits the queue");
                // injected faults intercept the packet before the device
                // runs: a dead device swallows everything reaching it, a
                // flaky one drops a deterministic (hash-keyed, not
                // wall-clock) fraction
                let lost = match health {
                    DeviceHealth::Down => true,
                    DeviceHealth::Flaky { drop_prob } => {
                        Self::flaky_drops(&self.device_names[device], &job, drop_prob)
                    }
                    DeviceHealth::Up | DeviceHealth::Degraded { .. } => false,
                };
                if lost {
                    self.fault_lose(job);
                    continue;
                }
                let Some(plane) = &mut self.planes[device] else {
                    // no replica for this device: traverse free
                    job.hop += 1;
                    self.enqueue(job);
                    continue;
                };
                if let Some(link) = job.counters.link_bytes.get(job.hop) {
                    link.fetch_add(job.packet.wire_bytes() as u64, Ordering::Relaxed);
                }
                let outcome = plane.process(&mut job.packet);
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
            // a device with remaining backlog rotates to the back of the cursor
            if !self.queues[device].is_empty() {
                self.active.push_back(device);
            }
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

#[cfg(test)]
mod tests {
    use super::*;
    use clickinc_device::DeviceModel;
    use clickinc_emulator::packet::kvs_request;
    use std::sync::mpsc::channel;

    /// A fault can precede the first tenant that routes through the device:
    /// the device is interned when the fault names it, and the tenant's hop
    /// resolves to the same id.
    #[test]
    fn a_device_taken_down_before_its_first_tenant_is_down_when_traffic_arrives() {
        let (tx, rx) = channel();
        let depth = Arc::new(AtomicU64::new(0));
        let worker = {
            let depth = Arc::clone(&depth);
            std::thread::spawn(move || ShardWorker::run(rx, 4, depth))
        };
        let send = |msg| tx.send(msg).expect("the worker is running");
        send(ShardMsg::SetDeviceHealth { device: "sw1".into(), health: DeviceHealth::Down });
        let hop = |device: &str| TenantHop {
            device: device.to_string(),
            model: DeviceModel::tofino(),
            snippets: Vec::new(),
        };
        let counters = Arc::new(TenantCounters::new(2));
        send(ShardMsg::AddTenant {
            user: "t".into(),
            hops: vec![hop("sw0"), hop("sw1")],
            counters: Arc::clone(&counters),
        });
        let burst = |n: u64| (0..n).map(|i| (i, kvs_request("c", "s", 0, i as i64))).collect();
        depth.fetch_add(5, Ordering::Relaxed);
        send(ShardMsg::Inject { user: "t".into(), jobs: burst(5) });
        send(ShardMsg::SetDeviceHealth { device: "sw1".into(), health: DeviceHealth::Up });
        depth.fetch_add(3, Ordering::Relaxed);
        send(ShardMsg::Inject { user: "t".into(), jobs: burst(3) });
        let (ack, stopped) = channel();
        send(ShardMsg::Stop(ack));
        let finals = stopped.recv().expect("the worker answers the stop");
        worker.join().expect("the worker exits cleanly");

        assert_eq!(counters.fault_lost.load(Ordering::Relaxed), 5, "lost at the down device");
        assert_eq!(counters.to_server.load(Ordering::Relaxed), 3, "served once it is restored");
        assert_eq!(depth.load(Ordering::Relaxed), 0, "every packet returned its credit");
        assert_eq!(finals.planes.keys().collect::<Vec<_>>(), ["sw0", "sw1"]);
    }
}
