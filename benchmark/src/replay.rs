//! An engine-free replay of a tenant's packets through its hops: device planes
//! rebuilt from [`TenantHop`]s, fed burst by burst, forwarding by the
//! [`PacketAction`] each device returns.
//!
//! Two uses.  In [`ExecMode::Interpreted`] it is the reference the serve
//! workloads check the engine's final stores against — the interpreter walks
//! the IR directly and shares neither the compiled VM nor the shard pump with
//! the path under test.  In [`ExecMode::Compiled`] it prices the emulator layer
//! alone (the same `process_batch` calls the shard makes, without queues,
//! channels or telemetry), which the traced run subtracts from the engine's
//! per-packet time.

use crate::alloc;
use clickinc_emulator::{DevicePlane, ExecMode, Packet, PacketAction};
use clickinc_ir::Value;
use clickinc_runtime::TenantHop;
use std::collections::BTreeMap;
use std::time::Instant;

/// A control-plane table write applied before traffic.
pub struct TableWrite {
    pub table: String,
    pub key: Vec<Value>,
    pub value: Vec<Value>,
}

/// What one replay measured.
#[derive(Debug, Clone, Default)]
pub struct ReplayStats {
    /// Packets fed into the first hop.
    pub packets: u64,
    /// Wall time inside `process_batch`, all hops.
    pub process_ns: u64,
    /// IR instructions whose guard held, all hops.
    pub instructions: u64,
    /// Device visits (a packet that crosses three hops counts three).
    pub hop_visits: u64,
    /// Packets a device bounced back (cache hits, completed aggregations).
    pub backs: u64,
    /// Packets a device absorbed.
    pub drops: u64,
    /// Heap allocations inside `process_batch`.
    pub allocs: u64,
    /// Final object-store fingerprint per device that holds a program.
    pub fingerprints: BTreeMap<String, u64>,
}

/// Rebuild the tenant's planes the way a shard does on `AddTenant`.
fn build_planes(hops: &[TenantHop], mode: ExecMode) -> Vec<DevicePlane> {
    hops.iter()
        .map(|hop| {
            let mut plane = DevicePlane::new(&hop.device, hop.model.clone());
            plane.set_exec_mode(mode);
            for snippet in &hop.snippets {
                plane.install(snippet.clone());
            }
            plane
        })
        .collect()
}

/// Run `bursts` through planes rebuilt from `hops`.  Table writes land on
/// every hop that declares the table, as `TenantHandle::populate_table` does.
pub fn replay(
    hops: &[TenantHop],
    mode: ExecMode,
    writes: &[TableWrite],
    bursts: impl Iterator<Item = Vec<Packet>>,
) -> ReplayStats {
    let mut planes = build_planes(hops, mode);
    for (hop, plane) in hops.iter().zip(&mut planes) {
        for write in writes {
            let declares =
                hop.snippets.iter().any(|s| s.objects.iter().any(|o| o.name == write.table));
            if declares {
                plane.store_mut().table_write(&write.table, &write.key, write.value.clone());
            }
        }
    }
    let mut stats = ReplayStats::default();
    for burst in bursts {
        stats.packets += burst.len() as u64;
        let mut in_flight = burst;
        for plane in &mut planes {
            if in_flight.is_empty() {
                break;
            }
            stats.hop_visits += in_flight.len() as u64;
            let allocs_before = alloc::snapshot();
            let started = Instant::now();
            let outcomes = plane.process_batch(&mut in_flight);
            stats.process_ns += started.elapsed().as_nanos() as u64;
            stats.allocs += alloc::snapshot().since(allocs_before).count;
            let mut forwarded = Vec::with_capacity(in_flight.len());
            for (packet, outcome) in in_flight.into_iter().zip(outcomes) {
                stats.instructions += outcome.instructions_executed as u64;
                match outcome.action {
                    PacketAction::Forward => forwarded.push(packet),
                    PacketAction::Back => stats.backs += 1,
                    PacketAction::Drop => stats.drops += 1,
                }
            }
            in_flight = forwarded;
        }
    }
    for plane in &planes {
        if plane.has_program() {
            stats.fingerprints.insert(plane.name.clone(), plane.store().fingerprint());
        }
    }
    stats
}
