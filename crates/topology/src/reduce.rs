//! Topology simplification by device equivalence classes (paper §5.3, Fig. 9,
//! Appendix B.2).
//!
//! For a given application traffic pattern (a set of client/source servers and
//! one destination server group), the fat-tree collapses into:
//!
//! * a **client-side sub-tree** whose leaves are the first programmable devices
//!   in front of the sources (smartNICs where present, otherwise the ToRs),
//!   whose internal nodes are per-pod ToR / Agg equivalence classes, and whose
//!   root is the core-switch equivalence class;
//! * a **server-side chain** from the destination pod's Agg EC down through the
//!   destination ToR (and NIC, if any) — the devices every packet must traverse
//!   after the root regardless of which path it took upward.
//!
//! Devices merged into one EC are physically interchangeable for placement
//! (Appendix B.2 proves any non-random allocator assigns them identical
//! snippets), so the placement DP only has to consider one representative per
//! EC.  That is meant to let it scale to ~1,000 switches, which is
//! unverified: `fig14_scalability` times chains of at most 10 devices, and
//! no test or bench plans on a fat-tree with k above 4 (ROADMAP item 17).

use crate::graph::{NodeId, Tier, Topology};
use crate::paths::enumerate_paths;
use clickinc_device::DeviceKind;
use std::collections::BTreeMap;

/// One equivalence class of devices in the reduced topology.
#[derive(Debug, Clone, PartialEq)]
pub struct ReducedNode {
    /// The physical devices merged into this class.
    pub members: Vec<NodeId>,
    /// Device family of the class (all members share it).
    pub kind: DeviceKind,
    /// Bypass accelerator attached to the members, if any.
    pub bypass: Option<DeviceKind>,
    /// Tier of the class.
    pub tier: Tier,
    /// Pod of the class (None for the core EC).
    pub pod: Option<usize>,
    /// Children in the client-side sub-tree (indices into the same arena),
    /// pointing towards the traffic sources.  Empty for leaves and for every
    /// node of the server-side chain.
    pub children: Vec<usize>,
    /// Fraction of the application's total traffic that traverses this class.
    pub traffic: f64,
}

impl ReducedNode {
    /// A printable label, e.g. `agg[Agg0,Agg1]`.
    pub fn label(&self, topo: &Topology) -> String {
        let names: Vec<&str> = self.members.iter().map(|m| topo.node(*m).name.as_str()).collect();
        format!("{}[{}]", self.tier, names.join(","))
    }
}

/// The reduced placement topology: client-side sub-tree + server-side chain.
#[derive(Debug, Clone, PartialEq)]
pub struct ReducedTopology {
    /// Arena of client-side EC nodes.
    pub client: Vec<ReducedNode>,
    /// Index of the client-side root (the highest tier traversed — the core EC
    /// for inter-pod traffic).
    pub client_root: usize,
    /// Server-side chain, ordered in the packet's travel direction
    /// (first hop after the root first).
    pub server: Vec<ReducedNode>,
}

impl ReducedTopology {
    /// Total number of EC nodes.
    pub fn len(&self) -> usize {
        self.client.len() + self.server.len()
    }

    /// Whether the reduction produced no placeable device at all.
    pub fn is_empty(&self) -> bool {
        self.client.is_empty() && self.server.is_empty()
    }

    /// All EC nodes (client sub-tree first, then the server chain).
    pub fn all_nodes(&self) -> impl Iterator<Item = &ReducedNode> {
        self.client.iter().chain(self.server.iter())
    }

    /// Leaves of the client sub-tree (the ECs nearest the traffic sources).
    pub fn client_leaves(&self) -> Vec<usize> {
        (0..self.client.len()).filter(|i| self.client[*i].children.is_empty()).collect()
    }
}

/// Reduce the topology for one application's traffic.
///
/// * `sources` — the client/worker servers generating requests;
/// * `dst` — the destination server (e.g. the KVS server or the parameter
///   server);
/// * `weights` — optional per-source traffic weights (paper profile "traffic
///   frequency"); unweighted sources share traffic equally.
pub fn reduce_for_traffic(
    topo: &Topology,
    sources: &[NodeId],
    dst: NodeId,
    weights: &[f64],
) -> ReducedTopology {
    assert!(!sources.is_empty(), "at least one traffic source is required");
    let total_weight: f64 =
        if weights.len() == sources.len() { weights.iter().sum() } else { sources.len() as f64 };
    let weight_of = |i: usize| -> f64 {
        let w = if weights.len() == sources.len() { weights[i] } else { 1.0 };
        w / total_weight
    };

    // For every source, take one representative up-down path to the destination
    // and record which devices sit on the client side (before the peak) and the
    // server side (peak and after), per tier and pod.  All equal-cost siblings
    // of a device at the same (tier, pod) join the same EC.
    // EC key: (distance from the path peak, tier, pod).  The distance term
    // keeps sequential same-tier devices (e.g. a switch chain) distinct while
    // still merging the parallel equal-cost siblings of a fat-tree.
    type EcKey = (usize, Tier, Option<usize>);
    #[derive(Default)]
    struct EcAccumulator {
        members: BTreeMap<EcKey, Vec<NodeId>>,
        traffic: BTreeMap<EcKey, f64>,
    }
    let mut client_acc = EcAccumulator::default();
    let mut server_order: Vec<EcKey> = Vec::new();
    let mut server_acc = EcAccumulator::default();

    for (i, &src) in sources.iter().enumerate() {
        let paths = enumerate_paths(topo, src, dst);
        if paths.is_empty() {
            continue;
        }
        let share = weight_of(i);
        // the union of devices across all equal-cost paths of this source
        let mut client_seen: BTreeMap<EcKey, Vec<NodeId>> = BTreeMap::new();
        let mut server_seen: Vec<(EcKey, Vec<NodeId>)> = Vec::new();
        let reference = &paths[0];
        let peak_level = reference.iter().map(|n| topo.node(*n).tier.level()).max().unwrap_or(0);
        for path in &paths {
            let peak_pos =
                path.iter().position(|n| topo.node(*n).tier.level() == peak_level).unwrap_or(0);
            for (pos, node_id) in path.iter().enumerate() {
                let node = topo.node(*node_id);
                if !node.tier.is_network_device() {
                    continue;
                }
                let dist = pos.abs_diff(peak_pos);
                let key: EcKey = (dist, node.tier, node.pod);
                if pos <= peak_pos {
                    let entry = client_seen.entry(key).or_default();
                    if !entry.contains(node_id) {
                        entry.push(*node_id);
                    }
                } else {
                    match server_seen.iter_mut().find(|(k, _)| *k == key) {
                        Some((_, v)) => {
                            if !v.contains(node_id) {
                                v.push(*node_id);
                            }
                        }
                        None => server_seen.push((key, vec![*node_id])),
                    }
                }
            }
        }
        for (key, members) in client_seen {
            let slot = client_acc.members.entry(key).or_default();
            for m in members {
                if !slot.contains(&m) {
                    slot.push(m);
                }
            }
            *client_acc.traffic.entry(key).or_insert(0.0) += share;
        }
        for (key, members) in server_seen {
            if !server_order.contains(&key) {
                server_order.push(key);
            }
            let slot = server_acc.members.entry(key).or_default();
            for m in members {
                if !slot.contains(&m) {
                    slot.push(m);
                }
            }
            *server_acc.traffic.entry(key).or_insert(0.0) += share;
        }
    }

    // ---- build the client-side sub-tree arena -------------------------------
    let make_node =
        |topo: &Topology, members: &[NodeId], tier: Tier, pod: Option<usize>, traffic: f64| {
            let first = topo.node(members[0]);
            ReducedNode {
                members: members.to_vec(),
                kind: first.kind,
                bypass: first.bypass,
                tier,
                pod,
                children: Vec::new(),
                traffic: traffic.min(1.0),
            }
        };

    let mut client: Vec<ReducedNode> = Vec::new();
    let mut index_of: BTreeMap<EcKey, usize> = BTreeMap::new();
    // create nodes farthest-from-peak first so children exist before parents
    let mut keys: Vec<EcKey> = client_acc.members.keys().copied().collect();
    keys.sort_by_key(|(dist, tier, pod)| {
        (std::cmp::Reverse(*dist), tier.level(), pod.unwrap_or(usize::MAX))
    });
    for key in &keys {
        let members = &client_acc.members[key];
        let traffic = client_acc.traffic[key];
        let node = make_node(topo, members, key.1, key.2, traffic);
        index_of.insert(*key, client.len());
        client.push(node);
    }
    // wire children: a node's parent is the nearest EC strictly closer to the
    // peak within the same pod, or a pod-less EC (the core) above it.
    for key in &keys {
        let idx = index_of[key];
        let parent_key = keys
            .iter()
            .filter(|(d, _, p)| *d < key.0 && (*p == key.2 || p.is_none() || key.2.is_none()))
            .max_by_key(|(d, _, _)| *d)
            .copied();
        if let Some(pk) = parent_key {
            let pidx = index_of[&pk];
            if pidx != idx && !client[pidx].children.contains(&idx) {
                client[pidx].children.push(idx);
            }
        }
    }
    // the root is the EC at the path peak (distance 0)
    let client_root =
        keys.iter().min_by_key(|(dist, _, _)| *dist).map(|k| index_of[k]).unwrap_or(0);

    // ---- server-side chain ----------------------------------------------------
    server_order.sort_by_key(|(dist, _, _)| *dist);
    let server: Vec<ReducedNode> = server_order
        .iter()
        .map(|key| make_node(topo, &server_acc.members[key], key.1, key.2, server_acc.traffic[key]))
        .collect();

    ReducedTopology { client, client_root, server }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_source_single_pod_reduces_to_a_chain() {
        let topo = Topology::device_equal_fat_tree(4, DeviceKind::Tofino);
        let src = topo.find("pod0_s0").unwrap();
        let dst = topo.find("pod2_s0").unwrap();
        let reduced = reduce_for_traffic(&topo, &[src], dst, &[]);
        // client side: ToR EC (1 device), Agg EC (2 devices), Core EC (root)
        assert_eq!(reduced.client.len(), 3);
        let root = &reduced.client[reduced.client_root];
        assert_eq!(root.tier, Tier::Core);
        assert!((root.traffic - 1.0).abs() < 1e-9);
        // server side: Agg EC and ToR EC of the destination pod
        assert_eq!(reduced.server.len(), 2);
        assert_eq!(reduced.server[0].tier, Tier::Agg);
        assert_eq!(reduced.server[1].tier, Tier::ToR);
        // EC membership counts: the two pod-0 aggs merge, the dst ToR is alone
        let agg_ec = reduced.client.iter().find(|n| n.tier == Tier::Agg).unwrap();
        assert_eq!(agg_ec.members.len(), 2);
        assert_eq!(reduced.server[1].members.len(), 1);
    }

    #[test]
    fn multiple_pods_create_parallel_branches() {
        let topo = Topology::device_equal_fat_tree(4, DeviceKind::Tofino);
        let s0 = topo.find("pod0_s0").unwrap();
        let s1 = topo.find("pod1_s0").unwrap();
        let dst = topo.find("pod2_s0").unwrap();
        let reduced = reduce_for_traffic(&topo, &[s0, s1], dst, &[]);
        // two ToR ECs, two Agg ECs (one per source pod), one core EC
        let tors = reduced.client.iter().filter(|n| n.tier == Tier::ToR).count();
        let aggs = reduced.client.iter().filter(|n| n.tier == Tier::Agg).count();
        let cores = reduced.client.iter().filter(|n| n.tier == Tier::Core).count();
        assert_eq!((tors, aggs, cores), (2, 2, 1));
        // the root has both agg branches as children
        let root = &reduced.client[reduced.client_root];
        assert_eq!(root.children.len(), 2);
        // each branch carries half of the traffic
        for n in reduced.client.iter().filter(|n| n.tier == Tier::Agg) {
            assert!((n.traffic - 0.5).abs() < 1e-9);
        }
    }

    #[test]
    fn traffic_weights_are_respected() {
        let topo = Topology::device_equal_fat_tree(4, DeviceKind::Tofino);
        let s0 = topo.find("pod0_s0").unwrap();
        let s1 = topo.find("pod1_s0").unwrap();
        let dst = topo.find("pod2_s0").unwrap();
        let reduced = reduce_for_traffic(&topo, &[s0, s1], dst, &[3.0, 1.0]);
        let pod0_agg =
            reduced.client.iter().find(|n| n.tier == Tier::Agg && n.pod == Some(0)).unwrap();
        assert!((pod0_agg.traffic - 0.75).abs() < 1e-9);
    }

    #[test]
    fn same_pod_traffic_peaks_below_the_core() {
        let topo = Topology::device_equal_fat_tree(4, DeviceKind::Tofino);
        let src = topo.find("pod0_s0").unwrap();
        let dst = topo.find("pod0_s2").unwrap();
        let reduced = reduce_for_traffic(&topo, &[src], dst, &[]);
        let root = &reduced.client[reduced.client_root];
        assert_eq!(root.tier, Tier::Agg, "intra-pod traffic never reaches the core");
        assert!(reduced.client.iter().all(|n| n.tier != Tier::Core));
    }

    #[test]
    fn emulation_topology_reduction_includes_nics_and_bypass() {
        let topo = Topology::emulation_topology();
        let src = topo.find("pod0a").unwrap();
        let dst = topo.find("pod2b").unwrap();
        let reduced = reduce_for_traffic(&topo, &[src], dst, &[]);
        // the source-side NIC EC appears as a leaf
        assert!(reduced
            .client
            .iter()
            .any(|n| n.tier == Tier::Nic && n.kind == DeviceKind::NfpSmartNic));
        // destination Agg EC (pod 2) carries the bypass FPGA annotation
        let dst_agg = reduced.server.iter().find(|n| n.tier == Tier::Agg).unwrap();
        assert_eq!(dst_agg.bypass, Some(DeviceKind::FpgaAccelerator));
        assert_eq!(dst_agg.kind, DeviceKind::Trident4);
        // physical devices represented > EC count (the point of the reduction)
        let physical: usize = reduced.all_nodes().map(|n| n.members.len()).sum();
        assert!(physical >= reduced.len());
    }

    #[test]
    fn leaves_are_sources_side() {
        let topo = Topology::device_equal_fat_tree(4, DeviceKind::Tofino);
        let s0 = topo.find("pod0_s0").unwrap();
        let s1 = topo.find("pod1_s0").unwrap();
        let dst = topo.find("pod3_s0").unwrap();
        let reduced = reduce_for_traffic(&topo, &[s0, s1], dst, &[]);
        let leaves = reduced.client_leaves();
        assert_eq!(leaves.len(), 2);
        for l in leaves {
            assert_eq!(reduced.client[l].tier, Tier::ToR);
        }
        assert!(!reduced.is_empty());
        assert!(reduced.len() >= 5);
    }

    #[test]
    #[should_panic(expected = "at least one traffic source")]
    fn empty_sources_rejected() {
        let topo = Topology::chain(2, DeviceKind::Tofino);
        let dst = topo.servers()[1];
        reduce_for_traffic(&topo, &[], dst, &[]);
    }

    #[test]
    fn chain_topology_reduces_to_all_switches_client_side() {
        let topo = Topology::chain(4, DeviceKind::Tofino);
        let src = topo.servers()[0];
        let dst = topo.servers()[1];
        let reduced = reduce_for_traffic(&topo, &[src], dst, &[]);
        // all four switches share tier ToR / pod 0, so they merge into one EC?
        // No: a chain is not an ECMP structure — but all four sit before the
        // destination, and the peak is the first switch; the rest are
        // "server-side".  Either way every switch must be represented.
        assert_eq!(reduced.all_nodes().map(|n| n.members.len()).sum::<usize>(), 4);
    }
}
