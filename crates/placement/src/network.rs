//! The placement view of the network: devices, remaining resources, and the
//! multi-tenant resource ledger.

use clickinc_device::{DeviceKind, DeviceModel};
use clickinc_ir::ResourceVector;
use clickinc_topology::{NodeId, ReducedTopology, Tier, Topology};
use std::collections::BTreeMap;

/// Tracks the resources already consumed on every physical device by previously
/// deployed programs, so later placements see only what is left (the dynamic
/// multi-user scenario of §7.4/§7.5).
#[derive(Debug, Clone, Default)]
pub struct ResourceLedger {
    used: BTreeMap<NodeId, ResourceVector>,
}

impl ResourceLedger {
    /// A fresh ledger: everything is free.
    pub fn new() -> ResourceLedger {
        ResourceLedger::default()
    }

    /// Resources already consumed on a device.
    pub fn used(&self, node: NodeId) -> ResourceVector {
        self.used.get(&node).copied().unwrap_or_default()
    }

    /// Record additional consumption on a device.
    pub fn consume(&mut self, node: NodeId, demand: ResourceVector) {
        let entry = self.used.entry(node).or_default();
        *entry += demand;
    }

    /// Release resources previously consumed on a device (program removal).
    pub fn release(&mut self, node: NodeId, demand: ResourceVector) {
        let entry = self.used.entry(node).or_default();
        *entry = entry.saturating_sub(&demand);
    }

    /// Fraction of total capacity still available across the given devices
    /// (the `r` that drives the adaptive weights).
    pub fn remaining_ratio(&self, topo: &Topology) -> f64 {
        let mut total_util = 0.0;
        let mut count = 0usize;
        for node in topo.nodes() {
            if !node.tier.is_network_device() || node.kind == DeviceKind::Server {
                continue;
            }
            let cap = node.kind.total_capacity();
            total_util += self.used(node.id).mean_utilization(&cap).min(1.0);
            count += 1;
        }
        if count == 0 {
            1.0
        } else {
            (1.0 - total_util / count as f64).clamp(0.0, 1.0)
        }
    }
}

/// One placeable device (an equivalence class of physical devices).
#[derive(Debug, Clone)]
pub struct PlacementDevice {
    /// Display name, e.g. `Agg[Agg0,Agg1]`.
    pub name: String,
    /// The physical devices this placement device represents.
    pub members: Vec<NodeId>,
    /// Device family.
    pub kind: DeviceKind,
    /// Resource / capability model.
    pub model: DeviceModel,
    /// Bypass accelerator model, if one is attached (its capacity and
    /// capability set extend the base device).
    pub bypass: Option<DeviceModel>,
    /// Tier in the topology.
    pub tier: Tier,
    /// Fraction of the application traffic crossing this device.
    pub traffic: f64,
    /// Remaining (free) resources, already netted against the ledger.
    pub available: ResourceVector,
}

impl PlacementDevice {
    /// Build from a reduced-topology EC node and the ledger.
    fn from_reduced(
        topo: &Topology,
        node: &clickinc_topology::ReducedNode,
        ledger: &ResourceLedger,
    ) -> PlacementDevice {
        let model = node.kind.model();
        let bypass = node.bypass.map(|k| k.model());
        // EC members are symmetric; the usable capacity is bounded by the most
        // loaded member.
        let mut worst_used = ResourceVector::zero();
        for (i, m) in node.members.iter().enumerate() {
            let used = ledger.used(*m);
            if i == 0 || used.total() > worst_used.total() {
                worst_used = used;
            }
        }
        let mut capacity = model.total_capacity();
        if let Some(b) = &bypass {
            capacity += b.total_capacity();
        }
        let available = capacity.saturating_sub(&worst_used);
        PlacementDevice {
            name: node.label(topo),
            members: node.members.clone(),
            kind: node.kind,
            model,
            bypass,
            tier: node.tier,
            traffic: node.traffic,
            available,
        }
    }

    /// Whether the device (or its bypass accelerator) supports a capability
    /// class.
    pub fn supports(&self, class: clickinc_ir::CapabilityClass) -> bool {
        self.model.supports(class)
            || self.bypass.as_ref().map(|b| b.supports(class)).unwrap_or(false)
    }

    /// Whether every class in the iterator is supported.
    pub fn supports_all<'a>(
        &self,
        classes: impl IntoIterator<Item = &'a clickinc_ir::CapabilityClass>,
    ) -> bool {
        classes.into_iter().all(|c| self.supports(*c))
    }

    /// Total capacity (base + bypass), ignoring the ledger.
    pub fn total_capacity(&self) -> ResourceVector {
        let mut cap = self.model.total_capacity();
        if let Some(b) = &self.bypass {
            cap += b.total_capacity();
        }
        cap
    }

    /// Number of physical devices represented (replication factor for resource
    /// accounting).
    pub fn replication(&self) -> usize {
        self.members.len().max(1)
    }
}

/// The network as the placement DP sees it: a client-side tree (children point
/// towards the traffic sources) plus the server-side chain after the root.
#[derive(Debug, Clone)]
pub struct PlacementNetwork {
    /// Client-side devices (arena).
    pub client: Vec<PlacementDevice>,
    /// Children of each client-side device.
    pub client_children: Vec<Vec<usize>>,
    /// Root of the client-side tree.
    pub client_root: usize,
    /// Server-side chain in traffic order (first device after the root first).
    pub server: Vec<PlacementDevice>,
}

impl PlacementNetwork {
    /// Build the placement network from a reduced topology and the current
    /// resource ledger.
    pub fn from_reduced(
        topo: &Topology,
        reduced: &ReducedTopology,
        ledger: &ResourceLedger,
    ) -> PlacementNetwork {
        let client: Vec<PlacementDevice> =
            reduced.client.iter().map(|n| PlacementDevice::from_reduced(topo, n, ledger)).collect();
        let client_children: Vec<Vec<usize>> =
            reduced.client.iter().map(|n| n.children.clone()).collect();
        let server: Vec<PlacementDevice> =
            reduced.server.iter().map(|n| PlacementDevice::from_reduced(topo, n, ledger)).collect();
        PlacementNetwork { client, client_children, client_root: reduced.client_root, server }
    }

    /// All devices: client tree first, then the server chain.
    pub fn all_devices(&self) -> impl Iterator<Item = &PlacementDevice> {
        self.client.iter().chain(self.server.iter())
    }

    /// Total number of placement devices.
    pub fn len(&self) -> usize {
        self.client.len() + self.server.len()
    }

    /// Whether there is no placeable device.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The sequence of devices along one source path: from the given client
    /// leaf up to the root, then down the server chain.  Used to validate plans
    /// and by the synthesizer to assign step numbers.
    pub fn path_through(&self, leaf: usize) -> Vec<&PlacementDevice> {
        let mut up = Vec::new();
        // walk from leaf to root by following parent links
        let mut current = leaf;
        up.push(&self.client[current]);
        'outer: while current != self.client_root {
            for (parent, children) in self.client_children.iter().enumerate() {
                if children.contains(&current) {
                    current = parent;
                    up.push(&self.client[current]);
                    continue 'outer;
                }
            }
            break;
        }
        up.extend(self.server.iter());
        up
    }

    /// Indices of the client-tree leaves.
    pub fn client_leaves(&self) -> Vec<usize> {
        (0..self.client.len()).filter(|i| self.client_children[*i].is_empty()).collect()
    }

    /// Total free capacity across all devices (used for normalizing h_r).
    pub fn total_available(&self) -> ResourceVector {
        let mut v = ResourceVector::zero();
        for d in self.all_devices() {
            v += d.available.scaled(d.replication() as f64);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clickinc_ir::Resource;
    use clickinc_topology::reduce_for_traffic;

    fn chain_net(n: usize) -> (Topology, PlacementNetwork) {
        let topo = Topology::chain(n, DeviceKind::Tofino);
        let servers = topo.servers();
        let reduced = reduce_for_traffic(&topo, &[servers[0]], servers[1], &[]);
        let ledger = ResourceLedger::new();
        let net = PlacementNetwork::from_reduced(&topo, &reduced, &ledger);
        (topo, net)
    }

    #[test]
    fn chain_network_has_one_device_per_switch() {
        let (_, net) = chain_net(4);
        assert_eq!(net.len(), 4);
        assert_eq!(net.client.len(), 1);
        assert_eq!(net.server.len(), 3);
        assert!(!net.is_empty());
        let path = net.path_through(net.client_root);
        assert_eq!(path.len(), 4);
    }

    #[test]
    fn ledger_reduces_availability() {
        let topo = Topology::chain(1, DeviceKind::Tofino);
        let sw = topo.find("SW0").unwrap();
        let servers = topo.servers();
        let reduced = reduce_for_traffic(&topo, &[servers[0]], servers[1], &[]);
        let mut ledger = ResourceLedger::new();
        let before = PlacementNetwork::from_reduced(&topo, &reduced, &ledger);
        ledger.consume(sw, ResourceVector::zero().with(Resource::SramBlocks, 100.0));
        let after = PlacementNetwork::from_reduced(&topo, &reduced, &ledger);
        assert!(
            after.client[0].available[Resource::SramBlocks]
                < before.client[0].available[Resource::SramBlocks]
        );
        // release restores it
        ledger.release(sw, ResourceVector::zero().with(Resource::SramBlocks, 100.0));
        let restored = PlacementNetwork::from_reduced(&topo, &reduced, &ledger);
        assert_eq!(
            restored.client[0].available[Resource::SramBlocks],
            before.client[0].available[Resource::SramBlocks]
        );
    }

    #[test]
    fn remaining_ratio_decreases_with_use() {
        let topo = Topology::chain(2, DeviceKind::Tofino);
        let mut ledger = ResourceLedger::new();
        assert!((ledger.remaining_ratio(&topo) - 1.0).abs() < 1e-9);
        let sw = topo.find("SW0").unwrap();
        let cap = DeviceModel::tofino().total_capacity();
        ledger.consume(sw, cap);
        let r = ledger.remaining_ratio(&topo);
        assert!((0.45..1.0).contains(&r), "one of two devices fully used: r = {r}");
    }

    #[test]
    fn bypass_extends_capability_and_capacity() {
        let topo = Topology::emulation_topology();
        let src = topo.find("pod0a").unwrap();
        let dst = topo.find("pod2b").unwrap();
        let reduced = reduce_for_traffic(&topo, &[src], dst, &[]);
        let net = PlacementNetwork::from_reduced(&topo, &reduced, &ResourceLedger::new());
        let dst_agg = net.server.iter().find(|d| d.tier == Tier::Agg).expect("server-side agg EC");
        assert!(dst_agg.bypass.is_some());
        // the TD4 base model cannot do floating point, the attached FPGA can
        assert!(dst_agg.supports(clickinc_ir::CapabilityClass::Bca));
        assert!(!DeviceModel::trident4().supports(clickinc_ir::CapabilityClass::Bca));
        // capacity is the sum of both
        assert!(
            dst_agg.total_capacity()[Resource::SramBlocks]
                > DeviceModel::trident4().total_capacity()[Resource::SramBlocks]
        );
    }

    #[test]
    fn fat_tree_paths_enumerate_client_leaves() {
        let topo = Topology::device_equal_fat_tree(4, DeviceKind::Tofino);
        let s0 = topo.find("pod0_s0").unwrap();
        let s1 = topo.find("pod1_s0").unwrap();
        let dst = topo.find("pod2_s0").unwrap();
        let reduced = reduce_for_traffic(&topo, &[s0, s1], dst, &[]);
        let net = PlacementNetwork::from_reduced(&topo, &reduced, &ResourceLedger::new());
        let leaves = net.client_leaves();
        assert_eq!(leaves.len(), 2);
        for leaf in leaves {
            let path = net.path_through(leaf);
            // ToR -> Agg -> Core -> Agg -> ToR
            assert_eq!(path.len(), 5);
            assert_eq!(path.last().unwrap().tier, Tier::ToR);
        }
        assert!(net.total_available()[Resource::SramBlocks] > 0.0);
    }
}
