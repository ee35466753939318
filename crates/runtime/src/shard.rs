//! Shard workers: each owns a partition of the data-plane state and runs
//! every admitted packet to completion along its tenant's route.
//!
//! The engine partitions traffic across shards by a stable hash — of the
//! tenant id for [`ShardingMode::ByTenant`] tenants, of the per-packet flow
//! key for [`ShardingMode::ByFlow`] tenants (see `crate::tenant`).  A shard
//! owns private replicas of the device planes its residents traverse, so the
//! packet hot path touches no shared mutable state at all — the only
//! cross-thread traffic is the inbound message channel, the two gauges the
//! engine's admission control reads (the tenant's `in_flight` and the shard's
//! depth, decremented per packet) and the relaxed atomic telemetry counters,
//! which a burst's tally is added to once, behind its last packet.  Tenant
//! isolation renames every stateful object
//! with the owner's prefix and gates the whole program on a user-id
//! match, so partitioning state *by tenant* is semantically identical to the
//! single shared store a real device would hold; partitioning *by flow* is
//! identical for flow-keyed state because every packet that can touch a
//! given state cell carries the same flow key and therefore lands on the
//! same shard.
//!
//! A shard is a loop, not a scheduler: an `Inject` is one tenant's burst in
//! stream order, and each of its packets walks the tenant's route hop by hop
//! — fault check, link bytes, the device's program — until a device bounces
//! or drops it, a fault loses it, or it reaches the server.  Nothing is
//! parked between hops: every device sees the packets in stream order, which
//! is all a per-device store can observe, and a burst's tally reaches the
//! counters as sums, a maximum and minima, so results do not depend on how a
//! stream is cut into bursts.  The channel being FIFO, everything a burst did
//! is in the counters by the time a `Flush` sent after it is acknowledged.
//!
//! Control messages (tenant add/remove, table writes, flush) travel on the
//! same FIFO channel as traffic bursts, so a reconfiguration is naturally
//! quiesced: by the time a `RemoveTenant` is handled, every burst injected
//! before it has run to completion, and the removal touches only the
//! departing tenant's snippets and tables ([`DevicePlane::uninstall`]).  A
//! worker holds only what it needs to run a resident (its route and counter
//! block); the tenant's one authoritative record lives in the engine, which
//! tells every hosting shard when it is removed.  Planes run the emulator's
//! default tier, the compiled register VM.
//!
//! Device names stop at the message boundary.  A control message that names
//! a device (`AddTenant`, `SetDeviceHealth`) interns it to a dense
//! `DeviceId`; planes and health live in vectors indexed by it and a
//! tenant's route is a list of ids — so moving a packet to its next hop
//! compares and clones no string, and a burst borrows its tenant's route and
//! counter block instead of handing every packet a reference-counted copy.
//! A burst arrives in the buffer its injector admitted — the caller's own
//! when the whole burst was — and the worker moves the packets into its own
//! buffer, reused from burst to burst, freeing the arrival buffer before the
//! first packet runs.  A served burst's packets stay in it until the shard
//! finds its channel empty or the next burst arrives, so at most one served
//! burst is ever held.  Releasing a packet is one reference-count decrement
//! (its stream record) and one `free` (its slot vector).  That work is
//! deferred, not avoided: on a host where the injecting thread and the shard
//! share a CPU it still lands inside some burst's serving time, only no
//! longer between a packet and the next.
//!
//! [`ShardingMode::ByTenant`]: crate::tenant::ShardingMode::ByTenant
//! [`ShardingMode::ByFlow`]: crate::tenant::ShardingMode::ByFlow

use crate::faults::DeviceHealth;
use crate::recover;
use crate::telemetry::{BurstTally, TenantCounters};
use crate::tenant::TenantHop;
use clickinc_emulator::{DevicePlane, Fnv, ObjectStore, Packet, PacketAction};
use clickinc_ir::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvError, Sender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex};

/// Dense per-shard index of a device, assigned the first time a control
/// message names it.
type DeviceId = usize;

/// A tenant resident on a shard.
struct TenantState {
    route: Vec<DeviceId>,
    counters: Arc<TenantCounters>,
}

/// Messages a shard worker consumes.  The channel is FIFO, which is what
/// serializes traffic against reconfiguration.
pub(crate) enum ShardMsg {
    /// Install a tenant: create/extend device planes, install snippets.
    /// Flow-sharded tenants are installed on every shard, each with its own
    /// counter block.
    AddTenant { user: String, hops: Vec<TenantHop>, counters: Arc<TenantCounters> },
    /// Quiesce a tenant and remove its snippets and exclusively-owned state,
    /// per device.  With an `ack` the state is shipped back instead of
    /// dropped — the extraction half of a live reshard.  The FIFO channel
    /// guarantees every burst injected before this message has run to
    /// completion first.
    RemoveTenant { user: String, ack: Option<Sender<BTreeMap<String, ObjectStore>>> },
    /// Merge extracted state into one device replica's store — the seeding
    /// half of a live reshard.  Ordered after the `AddTenant` that
    /// re-installed the tenant (same FIFO channel), so the objects are
    /// already declared; the merge is additive/idempotent per object kind.
    SeedState { device: String, store: ObjectStore },
    /// A burst of packets for one tenant, in stream order, already admitted
    /// against the shard's bounded ingress queue.
    Inject { user: Arc<str>, jobs: Vec<(u64, Packet)> },
    /// Control-plane table write (e.g. pre-populating a KVS cache).
    TableWrite { device: String, table: String, key: Vec<Value>, value: Vec<Value> },
    /// Apply an injected fault (or a restore) to one device: `Down` devices
    /// lose every packet reaching them, `Flaky` ones drop a deterministic
    /// fraction, `Degraded` ones scale their latency.  Ordered on the FIFO
    /// channel like every other control message.
    SetDeviceHealth { device: String, health: DeviceHealth },
    /// Barrier: acknowledged — the token dropped — once every burst ahead of
    /// it has been served.
    Flush(FlushToken),
    /// Ship the final planes back and exit.
    Stop(Sender<ShardFinal>),
}

/// The countdown a flush waits on: one [`FlushToken`] per shard asked, each
/// counting it down when dropped — by the shard once everything ahead of it
/// in the channel is served, or unserved if the shard has already stopped.
///
/// One allocation whatever the timing.  A reply channel also allocates the
/// waiter's registration whenever the caller reaches `recv` before the
/// shard has answered, so a burst served faster than the caller got there
/// cost one allocation fewer than a slower one.
pub(crate) struct FlushLatch {
    pending: Mutex<usize>,
    served: Condvar,
}

/// One shard's share of a [`FlushLatch`].
pub(crate) struct FlushToken(Arc<FlushLatch>);

impl FlushLatch {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(FlushLatch { pending: Mutex::new(0), served: Condvar::new() })
    }

    /// A token the latch waits for.
    pub(crate) fn token(self: &Arc<Self>) -> FlushToken {
        *recover(&self.pending) += 1;
        FlushToken(Arc::clone(self))
    }

    /// Block until every token handed out has been dropped.
    pub(crate) fn wait(&self) {
        let mut pending = recover(&self.pending);
        while *pending > 0 {
            pending = self.served.wait(pending).unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }
}

impl Drop for FlushToken {
    fn drop(&mut self) {
        let mut pending = recover(&self.0.pending);
        *pending -= 1;
        let served = *pending == 0;
        // unlocked before the wake-up, or the woken caller blocks again on
        // the mutex this thread still holds (≈ 5 % of `mlagg_serve`)
        drop(pending);
        if served {
            self.0.served.notify_all();
        }
    }
}

/// What a shard hands back when it stops: its device-plane replicas, whose
/// stores the engine merges into the network-wide final state.
pub(crate) struct ShardFinal {
    pub planes: BTreeMap<String, DevicePlane>,
}

/// The worker loop: owned by one OS thread per shard.
pub(crate) struct ShardWorker {
    tenants: BTreeMap<String, TenantState>,
    /// Device name → id; `device_names`, `planes` and `device_health` are
    /// indexed by the id and grow together in `intern`.
    device_ids: BTreeMap<String, DeviceId>,
    device_names: Vec<String>,
    /// The shard's replica of each device (`None` until a tenant routes
    /// through it).
    planes: Vec<Option<DevicePlane>>,
    /// Injected device faults in effect.  Applied in `inject` before the
    /// device processes a packet.
    device_health: Vec<DeviceHealth>,
    /// In-flight packet count shared with the engine's admission control:
    /// the injector increments it per admitted packet, this worker
    /// decrements it as packets reach a terminal outcome.
    depth: Arc<AtomicU64>,
    /// The burst being served, in a buffer the worker reuses.  `inject` moves
    /// the packets here so the message's own buffer goes back to the
    /// allocator before the first packet runs, not after the last: a large
    /// free is where the allocator consolidates and trims its heap, and with
    /// the burst's packets still live the pages stay mapped for whoever
    /// generates the next burst (freed last, the benchmark's `kvs_serve`
    /// takes 8× the page faults and 26 % longer to set a block up).
    ///
    /// The packets run in place and outlive the loop: they are released when
    /// the receive loop finds the channel empty, just before it blocks, or
    /// when the next `inject` clears the buffer before appending — whichever
    /// comes first — and the buffer never holds more than one served burst.
    /// A release is one reference-count decrement (the packet's stream
    /// record) and one `free` (its slot vector, ≈ 1.2 KB for an MLAgg
    /// gradient, allocated on the generating thread: a cross-arena free too
    /// large for the allocator's thread cache — freed inside the loop it was
    /// ≈ 20 % of `mlagg_serve`'s time).  Deferring it keeps it out of the
    /// per-packet path, not out of the op: where the injecting thread and
    /// the shard share one CPU, as in the benchmark's closed loop, the
    /// idle-branch release runs while the injector waits on its `flush`,
    /// and the `inject` release runs at the next burst's start — both
    /// inside a timed op.
    burst: Vec<(u64, Packet)>,
    /// What the burst being served has done to its tenant's counters so far;
    /// published when the burst ends.
    tally: BurstTally,
}

impl ShardWorker {
    pub(crate) fn run(rx: Receiver<ShardMsg>, depth: Arc<AtomicU64>) {
        let mut worker = ShardWorker {
            tenants: BTreeMap::new(),
            device_ids: BTreeMap::new(),
            device_names: Vec::new(),
            planes: Vec::new(),
            device_health: Vec::new(),
            depth,
            burst: Vec::new(),
            tally: BurstTally::default(),
        };
        loop {
            // a served burst is released once the shard has nothing else
            // queued, before it blocks, rather than between two packets
            let msg = match rx.try_recv() {
                Ok(msg) => msg,
                Err(TryRecvError::Empty) => {
                    worker.burst.clear();
                    match rx.recv() {
                        Ok(msg) => msg,
                        Err(RecvError) => break,
                    }
                }
                Err(TryRecvError::Disconnected) => break,
            };
            match msg {
                ShardMsg::AddTenant { user, hops, counters } => {
                    worker.add_tenant(user, hops, counters)
                }
                ShardMsg::RemoveTenant { user, ack } => {
                    let extracted = worker.remove_tenant(&user);
                    if let Some(ack) = ack {
                        let _ = ack.send(extracted);
                    }
                }
                ShardMsg::SeedState { device, store } => {
                    if let Some(plane) = worker.plane_mut(&device) {
                        plane.store_mut().merge_shard_from(&store, |_| true);
                    }
                }
                ShardMsg::Inject { user, jobs } => worker.inject(&user, jobs),
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
                ShardMsg::Flush(ack) => drop(ack),
                ShardMsg::Stop(ack) => {
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
        self.tenants.insert(user, TenantState { route, counters });
    }

    /// Drop a tenant's snippets and hand back its exclusively-owned state
    /// per device, leaving co-resident tenants' tables untouched.  The FIFO
    /// channel already quiesced this tenant's traffic.  Letting go of the
    /// tenant's counter block tells the telemetry registry that the block is
    /// final.
    fn remove_tenant(&mut self, user: &str) -> BTreeMap<String, ObjectStore> {
        let mut extracted = BTreeMap::new();
        let Some(state) = self.tenants.remove(user) else { return extracted };
        for &device in &state.route {
            if let Some(store) = self.planes[device].as_mut().and_then(|p| p.uninstall(user)) {
                extracted.insert(self.device_names[device].clone(), store);
            }
        }
        extracted
    }

    /// Serve one burst: each packet runs to completion along the tenant's
    /// route, in stream order, before the next one starts.
    fn inject(&mut self, user: &str, mut jobs: Vec<(u64, Packet)>) {
        let Some(TenantState { route, counters }) = self.tenants.get(user) else {
            // tenant unknown (never added, or already removed): drop silently —
            // the engine only routes here between add and remove.  The packets
            // were admitted against the depth gauge, so give the credit back.
            self.depth.fetch_sub(jobs.len() as u64, Ordering::Relaxed);
            return;
        };
        let tally = &mut self.tally;
        tally.restart(counters.link_bytes.len());
        tally.packets = jobs.len() as u64;
        // the previous burst, if the shard was never idle since, goes now
        self.burst.clear();
        self.burst.append(&mut jobs);
        drop(jobs);
        for (vtime_ns, packet) in self.burst.iter_mut() {
            let vtime_ns = *vtime_ns;
            let mut latency_ns = 0.0;
            let served = 'route: {
                for (hop, &device) in route.iter().enumerate() {
                    // injected faults intercept the packet before the device
                    // runs: a dead device swallows everything reaching it, a
                    // flaky one drops a deterministic (hash-keyed, not
                    // wall-clock) fraction, a degraded one serves slower
                    let latency_scale = match self.device_health[device] {
                        DeviceHealth::Up => 1.0,
                        DeviceHealth::Degraded { factor } => factor.max(1.0),
                        DeviceHealth::Down => break 'route false,
                        DeviceHealth::Flaky { drop_prob } => {
                            let name = &self.device_names[device];
                            if flaky_drops(name, vtime_ns, packet, drop_prob) {
                                break 'route false;
                            }
                            1.0
                        }
                    };
                    // no replica for this device: traverse free
                    let Some(plane) = &mut self.planes[device] else { continue };
                    if let Some(link) = tally.link_bytes.get_mut(hop) {
                        *link += packet.wire_bytes() as u64;
                    }
                    let outcome = plane.process(packet);
                    latency_ns += outcome.latency_ns * latency_scale;
                    match outcome.action {
                        PacketAction::Forward => {}
                        PacketAction::Back => {
                            tally.hits += 1;
                            break 'route true;
                        }
                        PacketAction::Drop => {
                            tally.drops += 1;
                            break 'route true;
                        }
                    }
                }
                // the packet traversed every hop: it crosses the final link
                // into the server
                let wire = packet.wire_bytes() as u64;
                tally.to_server += 1;
                tally.server_bytes += wire;
                if let Some(link) = tally.link_bytes.get_mut(route.len()) {
                    *link += wire;
                }
                true
            };
            if served {
                tally.payload_bytes += (packet.wire_bytes() - Packet::BASE_BYTES) as u64;
                tally.complete(latency_ns, vtime_ns);
            } else {
                // lost to an injected fault: counted as `fault_lost`, never
                // as an in-network drop
                tally.fault_loss(vtime_ns);
            }
            // the two gauges admission reads while the burst runs move per
            // packet: every terminal outcome returns the tenant's ingress
            // credit, and before the shard's depth so the budget admission
            // never observes the gauges crossed
            let _ = counters
                .in_flight
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1));
            self.depth.fetch_sub(1, Ordering::Relaxed);
        }
        counters.publish(tally);
    }
}

/// Deterministic flaky-device drop decision: a stable hash of the device and
/// the packet's identity mapped to the unit interval, so the same stream
/// through the same fault plan loses the same packets on every run and any
/// shard layout.
fn flaky_drops(device: &str, vtime_ns: u64, packet: &Packet, drop_prob: f64) -> bool {
    let mut h = Fnv::new();
    h.write_str(device);
    h.write_u64(vtime_ns);
    h.write_str(packet.src());
    h.write_str(packet.dst());
    let unit = (h.finish() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    unit < drop_prob
}

#[cfg(test)]
mod tests {
    use super::*;
    use clickinc_device::DeviceModel;
    use clickinc_emulator::packet::kvs_request;
    use std::sync::mpsc::channel;
    use std::thread::JoinHandle;
    use std::time::{Duration, Instant};

    /// A worker on its own thread, the sender feeding it and its depth gauge.
    fn spawn_worker() -> (Sender<ShardMsg>, Arc<AtomicU64>, JoinHandle<()>) {
        let (tx, rx) = channel();
        let depth = Arc::new(AtomicU64::new(0));
        let worker = {
            let depth = Arc::clone(&depth);
            std::thread::spawn(move || ShardWorker::run(rx, depth))
        };
        (tx, depth, worker)
    }

    fn hop(device: &str) -> TenantHop {
        TenantHop { device: device.to_string(), model: DeviceModel::tofino(), snippets: Vec::new() }
    }

    /// `n` KVS requests of `stream`'s record (clones of it, keyed `0..n`),
    /// admitted against both gauges the way the engine admits them.  The
    /// record's reference count is `stream` itself plus every packet of the
    /// burst not yet released.
    fn admitted_burst(
        n: u64,
        stream: &Packet,
        depth: &AtomicU64,
        counters: &TenantCounters,
    ) -> Vec<(u64, Packet)> {
        depth.fetch_add(n, Ordering::Relaxed);
        counters.in_flight.fetch_add(n, Ordering::Relaxed);
        (0..n)
            .map(|i| {
                let mut packet = stream.clone();
                packet.inc.set("key", Value::Int(i as i64));
                (i, packet)
            })
            .collect()
    }

    /// Packets of `stream`'s record still held anywhere but in `stream`.
    fn held(stream: &Packet) -> usize {
        Arc::strong_count(stream.inc.record()) - 1
    }

    /// Stop the worker and wait for it to exit.
    fn stop(tx: &Sender<ShardMsg>, worker: JoinHandle<()>) -> ShardFinal {
        let (ack, stopped) = channel();
        tx.send(ShardMsg::Stop(ack)).expect("the worker is running");
        let finals = stopped.recv().expect("the worker answers the stop");
        worker.join().expect("the worker exits cleanly");
        finals
    }

    /// A fault can precede the first tenant that routes through the device:
    /// the device is interned when the fault names it, and the tenant's hop
    /// resolves to the same id.
    #[test]
    fn a_device_taken_down_before_its_first_tenant_is_down_when_traffic_arrives() {
        let (tx, depth, worker) = spawn_worker();
        let send = |msg| tx.send(msg).expect("the worker is running");
        send(ShardMsg::SetDeviceHealth { device: "sw1".into(), health: DeviceHealth::Down });
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
        let finals = stop(&tx, worker);

        assert_eq!(counters.fault_lost.load(Ordering::Relaxed), 5, "lost at the down device");
        assert_eq!(counters.to_server.load(Ordering::Relaxed), 3, "served once it is restored");
        assert_eq!(depth.load(Ordering::Relaxed), 0, "every packet returned its credit");
        assert_eq!(finals.planes.keys().collect::<Vec<_>>(), ["sw0", "sw1"]);
    }

    /// Out-of-range health values act clamped: a drop probability above 1
    /// loses every packet, and a degradation factor below 1 serves at full
    /// speed.
    #[test]
    fn out_of_range_health_values_act_clamped() {
        let (tx, depth, worker) = spawn_worker();
        let send = |msg| tx.send(msg).expect("the worker is running");
        let flush = || {
            let latch = FlushLatch::new();
            send(ShardMsg::Flush(latch.token()));
            latch.wait();
        };
        let counters = Arc::new(TenantCounters::new(1));
        send(ShardMsg::AddTenant {
            user: "t".into(),
            hops: vec![hop("sw0")],
            counters: Arc::clone(&counters),
        });
        let stream = kvs_request("c", "s", 0, 0);
        let run = |health| {
            send(ShardMsg::SetDeviceHealth { device: "sw0".into(), health });
            let before = counters.latency_sum_ns.load(Ordering::Relaxed);
            let jobs = admitted_burst(8, &stream, &depth, &counters);
            send(ShardMsg::Inject { user: "t".into(), jobs });
            flush();
            counters.latency_sum_ns.load(Ordering::Relaxed) - before
        };
        run(DeviceHealth::Flaky { drop_prob: 1.7 });
        assert_eq!(counters.fault_lost.load(Ordering::Relaxed), 8, "p > 1 loses every packet");
        let degraded = run(DeviceHealth::Degraded { factor: 0.2 });
        let up = run(DeviceHealth::Up);
        assert!(up > 0, "the device charges latency");
        assert_eq!(degraded, up, "a factor below 1 serves at full speed");
        assert_eq!(counters.to_server.load(Ordering::Relaxed), 16);
        stop(&tx, worker);
    }

    /// A served burst is held at most until the next one is injected, and
    /// released anyway once the shard goes idle: the packets of burst N are
    /// gone by the time burst N + 1 is flushed, whatever the timing.
    #[test]
    fn the_shard_holds_at_most_one_served_burst() {
        let (tx, depth, worker) = spawn_worker();
        let send = |msg| tx.send(msg).expect("the worker is running");
        let flush = || {
            let latch = FlushLatch::new();
            send(ShardMsg::Flush(latch.token()));
            latch.wait();
        };
        let counters = Arc::new(TenantCounters::new(1));
        send(ShardMsg::AddTenant {
            user: "t".into(),
            hops: vec![hop("sw0")],
            counters: Arc::clone(&counters),
        });
        let streams: Vec<Packet> =
            (0..3).map(|n| kvs_request(&format!("c{n}"), "s", 0, 0)).collect();
        for (n, stream) in streams.iter().enumerate() {
            let jobs = admitted_burst(16, stream, &depth, &counters);
            send(ShardMsg::Inject { user: "t".into(), jobs });
            flush();
            if let Some(previous) = n.checked_sub(1) {
                assert_eq!(held(&streams[previous]), 0, "burst {previous} is released");
            }
        }
        // nothing follows the last burst, so the idle shard releases it
        let deadline = Instant::now() + Duration::from_secs(10);
        while held(&streams[2]) > 0 {
            assert!(Instant::now() < deadline, "an idle shard keeps its served burst");
            std::thread::sleep(Duration::from_millis(1));
        }
        stop(&tx, worker);
        assert_eq!(counters.to_server.load(Ordering::Relaxed), 48, "every packet was served");
        assert_eq!(depth.load(Ordering::Relaxed), 0, "every packet returned its credit");
    }

    /// Credits return per packet as the burst runs, not when its buffer is
    /// released: a removal or a stop right behind a burst finds both gauges
    /// at zero.
    #[test]
    fn a_removal_or_stop_right_after_a_burst_finds_every_credit_returned() {
        let stream = kvs_request("c", "s", 0, 0);
        for remove_first in [true, false] {
            let (tx, depth, worker) = spawn_worker();
            let send = |msg| tx.send(msg).expect("the worker is running");
            let counters = Arc::new(TenantCounters::new(1));
            send(ShardMsg::AddTenant {
                user: "t".into(),
                hops: vec![hop("sw0")],
                counters: Arc::clone(&counters),
            });
            let jobs = admitted_burst(32, &stream, &depth, &counters);
            send(ShardMsg::Inject { user: "t".into(), jobs });
            if remove_first {
                let (ack, extracted) = channel();
                send(ShardMsg::RemoveTenant { user: "t".into(), ack: Some(ack) });
                extracted.recv().expect("the worker answers the removal");
                assert_eq!(depth.load(Ordering::Relaxed), 0, "shard credits after the removal");
                assert_eq!(counters.in_flight.load(Ordering::Relaxed), 0, "tenant credits");
            }
            stop(&tx, worker);
            assert_eq!(depth.load(Ordering::Relaxed), 0, "shard credits after the stop");
            assert_eq!(counters.in_flight.load(Ordering::Relaxed), 0, "tenant credits");
            assert_eq!(counters.to_server.load(Ordering::Relaxed), 32, "the burst was served");
            assert_eq!(held(&stream), 0, "a stopped worker holds no packet");
        }
    }
}
