//! The physical topology graph and its builders.

use clickinc_device::DeviceKind;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Identifier of a node in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of an undirected link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkId(pub usize);

/// Network tier of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Tier {
    /// End host.
    Server,
    /// SmartNIC sitting between a server and its ToR.
    Nic,
    /// Top-of-rack switch.
    ToR,
    /// Aggregation switch.
    Agg,
    /// Core / spine switch.
    Core,
}

impl Tier {
    /// Numeric level used to check the up-down property of paths
    /// (server lowest, core highest).
    pub fn level(&self) -> i32 {
        match self {
            Tier::Server => 0,
            Tier::Nic => 1,
            Tier::ToR => 2,
            Tier::Agg => 3,
            Tier::Core => 4,
        }
    }

    /// Whether the tier hosts a programmable network device.
    pub fn is_network_device(&self) -> bool {
        !matches!(self, Tier::Server)
    }
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Tier::Server => "server",
            Tier::Nic => "nic",
            Tier::ToR => "tor",
            Tier::Agg => "agg",
            Tier::Core => "core",
        };
        write!(f, "{s}")
    }
}

/// A node of the topology.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Identifier (index into the topology's node vector).
    pub id: NodeId,
    /// Human-readable name, e.g. `ToR3`, `pod1a`, `Core0`.
    pub name: String,
    /// Tier.
    pub tier: Tier,
    /// Pod number for pod-local tiers (ToR / Agg / servers / NICs).
    pub pod: Option<usize>,
    /// Device family installed at this node.
    pub kind: DeviceKind,
    /// Optional bypass accelerator attached to the device (paper Fig. 11's
    /// "Bypass FPGA" on Agg4/Agg5).
    pub bypass: Option<DeviceKind>,
    /// Link capacity of the node's ports in Gbps.
    pub link_gbps: f64,
}

/// An undirected link between two nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Capacity in Gbps.
    pub gbps: f64,
}

/// Operational health of a node, as the controller believes it.  Every node
/// starts [`NodeHealth::Up`]; the failover path marks devices `Down` so path
/// enumeration (and therefore placement) routes around them, and `Up` again
/// on restore.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NodeHealth {
    /// Serving normally (the default).
    #[default]
    Up,
    /// Failed: paths may not traverse this node.
    Down,
}

/// The data-center topology.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    adjacency: Vec<Vec<NodeId>>,
    /// Name → id lookup maintained by `add_node` (placement resolves
    /// endpoints by name in every solve, so `find` must not scan).
    name_index: BTreeMap<String, NodeId>,
    /// Sparse health overlay: only nodes that ever left `Up` appear here.
    health: BTreeMap<usize, NodeHealth>,
    /// Bumped on every effective health transition; two equal values bracket
    /// a window in which every node's health was provably unchanged
    /// (`Controller::fail_device`/`restore_device` compare it to tell whether
    /// the call changed anything, instead of diffing the overlay).
    health_version: u64,
}

impl Topology {
    /// Create an empty topology.
    pub fn new() -> Topology {
        Topology::default()
    }

    /// Add a node and return its id.
    pub fn add_node(
        &mut self,
        name: impl Into<String>,
        tier: Tier,
        pod: Option<usize>,
        kind: DeviceKind,
    ) -> NodeId {
        let id = NodeId(self.nodes.len());
        let name = name.into();
        // first insertion wins, matching the old linear scan's first-match
        // semantics if a builder ever reuses a name
        self.name_index.entry(name.clone()).or_insert(id);
        self.nodes.push(Node { id, name, tier, pod, kind, bypass: None, link_gbps: 100.0 });
        self.adjacency.push(Vec::new());
        id
    }

    /// Attach a bypass accelerator to a node.
    pub fn attach_bypass(&mut self, node: NodeId, kind: DeviceKind) {
        self.nodes[node.0].bypass = Some(kind);
    }

    /// Add an undirected link.
    pub fn add_link(&mut self, a: NodeId, b: NodeId) -> LinkId {
        self.add_link_with_capacity(a, b, 100.0)
    }

    /// Add an undirected link with an explicit capacity.
    pub fn add_link_with_capacity(&mut self, a: NodeId, b: NodeId, gbps: f64) -> LinkId {
        let id = LinkId(self.links.len());
        self.links.push(Link { a, b, gbps });
        self.adjacency[a.0].push(b);
        self.adjacency[b.0].push(a);
        id
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// A node by id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Neighbors of a node.
    pub fn neighbors(&self, id: NodeId) -> &[NodeId] {
        &self.adjacency[id.0]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the topology is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Ids of all server nodes, in id order.
    pub fn servers(&self) -> Vec<NodeId> {
        self.nodes.iter().filter(|n| n.tier == Tier::Server).map(|n| n.id).collect()
    }

    /// Ids of all programmable network devices (everything except servers, and
    /// excluding non-programmable NIC placeholders).
    pub fn programmable_devices(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.tier.is_network_device() && n.kind != DeviceKind::Server)
            .map(|n| n.id)
            .collect()
    }

    /// Look a node up by name (indexed; hot in planner endpoint resolution).
    pub fn find(&self, name: &str) -> Option<NodeId> {
        self.name_index.get(name).copied()
    }

    /// A node's operational health (every node defaults to
    /// [`NodeHealth::Up`]).
    pub fn node_health(&self, id: NodeId) -> NodeHealth {
        self.health.get(&id.0).copied().unwrap_or_default()
    }

    /// Whether a node is currently serving.
    pub fn is_up(&self, id: NodeId) -> bool {
        self.node_health(id) == NodeHealth::Up
    }

    /// Mark a node's health.  Path enumeration skips `Down` nodes, so a
    /// subsequent placement solve routes around them.  Bumps
    /// [`health_version`](Self::health_version) only on an effective
    /// transition, so an idempotent re-mark reads as no change.
    pub fn set_node_health(&mut self, id: NodeId, health: NodeHealth) {
        let changed = match health {
            NodeHealth::Up => self.health.remove(&id.0).is_some(),
            NodeHealth::Down => self.health.insert(id.0, health).is_none(),
        };
        if changed {
            self.health_version += 1;
        }
    }

    /// Monotone counter of effective health transitions; equal values bracket
    /// a window in which no node's health changed.
    pub fn health_version(&self) -> u64 {
        self.health_version
    }

    /// Names of all nodes currently marked [`NodeHealth::Down`].
    pub fn down_nodes(&self) -> Vec<String> {
        self.health.keys().map(|idx| self.nodes[*idx].name.clone()).collect()
    }

    /// Distinct pods present in the topology.
    pub fn pods(&self) -> Vec<usize> {
        let set: BTreeSet<usize> = self.nodes.iter().filter_map(|n| n.pod).collect();
        set.into_iter().collect()
    }

    // ---- builders -------------------------------------------------------------

    /// A simple chain of `n` devices of the given kind between a client and a
    /// server — the setup of the Table 4 / Fig. 14 experiments ("a simple chain
    /// with four Tofino switches").
    pub fn chain(n: usize, kind: DeviceKind) -> Topology {
        let mut t = Topology::new();
        let client = t.add_node("client", Tier::Server, Some(0), DeviceKind::Server);
        let mut prev = client;
        for i in 0..n {
            let sw = t.add_node(format!("SW{i}"), Tier::ToR, Some(0), kind);
            t.add_link(prev, sw);
            prev = sw;
        }
        let server = t.add_node("server", Tier::Server, Some(1), DeviceKind::Server);
        t.add_link(prev, server);
        t
    }

    /// Device-equal k-ary fat-tree (paper Fig. 19): `k` pods, `k/2` ToR and
    /// `k/2` Agg switches per pod, `(k/2)²` core switches, `k/2` servers per
    /// ToR, all switches of the same `kind`.
    pub fn device_equal_fat_tree(k: usize, kind: DeviceKind) -> Topology {
        assert!(k >= 2 && k.is_multiple_of(2), "fat-tree arity must be an even number >= 2");
        let half = k / 2;
        let mut t = Topology::new();
        // core switches
        let cores: Vec<NodeId> = (0..half * half)
            .map(|i| t.add_node(format!("Core{i}"), Tier::Core, None, kind))
            .collect();
        for pod in 0..k {
            let aggs: Vec<NodeId> = (0..half)
                .map(|i| t.add_node(format!("Agg{}", pod * half + i), Tier::Agg, Some(pod), kind))
                .collect();
            let tors: Vec<NodeId> = (0..half)
                .map(|i| t.add_node(format!("ToR{}", pod * half + i), Tier::ToR, Some(pod), kind))
                .collect();
            // agg <-> core: agg i connects to cores [i*half, (i+1)*half)
            for (i, agg) in aggs.iter().enumerate() {
                for j in 0..half {
                    t.add_link(*agg, cores[i * half + j]);
                }
            }
            // tor <-> agg: full bipartite within the pod
            for tor in &tors {
                for agg in &aggs {
                    t.add_link(*tor, *agg);
                }
            }
            // servers under each ToR
            for (i, tor) in tors.iter().enumerate() {
                for s in 0..half {
                    let srv = t.add_node(
                        format!("pod{pod}_s{}", i * half + s),
                        Tier::Server,
                        Some(pod),
                        DeviceKind::Server,
                    );
                    t.add_link(*tor, srv);
                }
            }
        }
        t
    }

    /// The heterogeneous emulation topology of the paper's Fig. 11: three pods,
    /// two ToR (Tofino) and two Agg (Trident4) switches per pod, four Tofino2
    /// core switches, one server group per ToR (named `pod{i}a` / `pod{i}b`),
    /// NFP smartNICs in front of the pod-0/pod-1 servers, FPGA smartNICs in
    /// front of the pod-1 `ToR2/ToR3` servers, and bypass FPGA accelerators on
    /// the pod-2 aggregation switches (Agg4/Agg5).
    pub fn emulation_topology() -> Topology {
        let mut t = Topology::new();
        let cores: Vec<NodeId> = (0..4)
            .map(|i| t.add_node(format!("Core{i}"), Tier::Core, None, DeviceKind::Tofino2))
            .collect();
        for pod in 0..3 {
            let aggs: Vec<NodeId> = (0..2)
                .map(|i| {
                    t.add_node(
                        format!("Agg{}", pod * 2 + i),
                        Tier::Agg,
                        Some(pod),
                        DeviceKind::Trident4,
                    )
                })
                .collect();
            let tors: Vec<NodeId> = (0..2)
                .map(|i| {
                    t.add_node(
                        format!("ToR{}", pod * 2 + i),
                        Tier::ToR,
                        Some(pod),
                        DeviceKind::Tofino,
                    )
                })
                .collect();
            for (i, agg) in aggs.iter().enumerate() {
                for j in 0..2 {
                    t.add_link(*agg, cores[i * 2 + j]);
                }
            }
            for tor in &tors {
                for agg in &aggs {
                    t.add_link(*tor, *agg);
                }
            }
            for (i, tor) in tors.iter().enumerate() {
                let suffix = if i == 0 { "a" } else { "b" };
                let server = t.add_node(
                    format!("pod{pod}{suffix}"),
                    Tier::Server,
                    Some(pod),
                    DeviceKind::Server,
                );
                // NIC placement per Fig. 11: NFP NICs in pods 0 and 1,
                // FPGA NICs in front of ToR2/ToR3 (pod 1).
                let nic_kind = match pod {
                    0 => Some(DeviceKind::NfpSmartNic),
                    1 => Some(DeviceKind::FpgaSmartNic),
                    _ => None,
                };
                match nic_kind {
                    Some(kind) => {
                        let nic =
                            t.add_node(format!("nic_pod{pod}{suffix}"), Tier::Nic, Some(pod), kind);
                        t.add_link(*tor, nic);
                        t.add_link(nic, server);
                    }
                    None => {
                        t.add_link(*tor, server);
                    }
                }
            }
            // bypass FPGA accelerators on the pod-2 aggregation switches
            if pod == 2 {
                for agg in &aggs {
                    t.attach_bypass(*agg, DeviceKind::FpgaAccelerator);
                }
            }
        }
        t
    }

    /// The Fig. 11 topology with every switch replaced by a Tofino, as used for
    /// the multi-user placement study of Table 3 ("all devices are assumed to
    /// be Tofino switches").
    pub fn emulation_topology_all_tofino() -> Topology {
        let mut t = Topology::emulation_topology();
        for id in 0..t.len() {
            let node = &mut t.nodes[id];
            if node.tier.is_network_device() && node.tier != Tier::Nic {
                node.kind = DeviceKind::Tofino;
                node.bypass = None;
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_topology_shape() {
        let t = Topology::chain(4, DeviceKind::Tofino);
        assert_eq!(t.servers().len(), 2);
        assert_eq!(t.programmable_devices().len(), 4);
        assert_eq!(t.links().len(), 5);
        assert!(t.find("SW0").is_some());
        assert!(t.find("SW4").is_none());
    }

    #[test]
    fn fat_tree_counts() {
        let k = 4;
        let t = Topology::device_equal_fat_tree(k, DeviceKind::Tofino);
        let half = k / 2;
        let n_core = half * half;
        let n_agg = k * half;
        let n_tor = k * half;
        let n_srv = k * half * half;
        assert_eq!(t.nodes().iter().filter(|n| n.tier == Tier::Core).count(), n_core);
        assert_eq!(t.nodes().iter().filter(|n| n.tier == Tier::Agg).count(), n_agg);
        assert_eq!(t.nodes().iter().filter(|n| n.tier == Tier::ToR).count(), n_tor);
        assert_eq!(t.servers().len(), n_srv);
        assert_eq!(t.pods(), vec![0, 1, 2, 3]);
        // every ToR has half aggs + half servers as neighbors
        let tor = t.find("ToR0").unwrap();
        assert_eq!(t.neighbors(tor).len(), k);
    }

    #[test]
    #[should_panic(expected = "even number")]
    fn odd_fat_tree_rejected() {
        Topology::device_equal_fat_tree(3, DeviceKind::Tofino);
    }

    #[test]
    fn emulation_topology_matches_fig11() {
        let t = Topology::emulation_topology();
        assert_eq!(t.pods(), vec![0, 1, 2]);
        assert_eq!(t.nodes().iter().filter(|n| n.tier == Tier::Core).count(), 4);
        assert_eq!(t.nodes().iter().filter(|n| n.tier == Tier::Agg).count(), 6);
        assert_eq!(t.nodes().iter().filter(|n| n.tier == Tier::ToR).count(), 6);
        assert_eq!(t.servers().len(), 6);
        // device heterogeneity
        assert_eq!(t.node(t.find("ToR0").unwrap()).kind, DeviceKind::Tofino);
        assert_eq!(t.node(t.find("Agg0").unwrap()).kind, DeviceKind::Trident4);
        assert_eq!(t.node(t.find("Core0").unwrap()).kind, DeviceKind::Tofino2);
        // NICs: NFP in pod0, FPGA in pod1, none in pod2
        assert_eq!(t.node(t.find("nic_pod0a").unwrap()).kind, DeviceKind::NfpSmartNic);
        assert_eq!(t.node(t.find("nic_pod1b").unwrap()).kind, DeviceKind::FpgaSmartNic);
        assert!(t.find("nic_pod2a").is_none());
        // bypass FPGAs on Agg4/Agg5
        assert_eq!(t.node(t.find("Agg4").unwrap()).bypass, Some(DeviceKind::FpgaAccelerator));
        assert_eq!(t.node(t.find("Agg5").unwrap()).bypass, Some(DeviceKind::FpgaAccelerator));
        assert_eq!(t.node(t.find("Agg0").unwrap()).bypass, None);
    }

    #[test]
    fn all_tofino_variant_flattens_switch_kinds() {
        let t = Topology::emulation_topology_all_tofino();
        for node in t.nodes() {
            if node.tier.is_network_device() && node.tier != Tier::Nic {
                assert_eq!(node.kind, DeviceKind::Tofino, "{} should be Tofino", node.name);
                assert!(node.bypass.is_none());
            }
        }
    }

    #[test]
    fn health_defaults_up_and_round_trips() {
        let mut t = Topology::emulation_topology();
        let agg = t.find("Agg0").unwrap();
        assert_eq!(t.node_health(agg), NodeHealth::Up);
        assert!(t.down_nodes().is_empty());
        t.set_node_health(agg, NodeHealth::Down);
        assert_eq!(t.node_health(agg), NodeHealth::Down);
        assert!(!t.is_up(agg));
        assert_eq!(t.down_nodes(), vec!["Agg0".to_string()]);
        t.set_node_health(agg, NodeHealth::Up);
        assert!(t.is_up(agg));
        assert!(t.down_nodes().is_empty());
    }

    #[test]
    fn find_index_matches_names_after_building() {
        let t = Topology::device_equal_fat_tree(4, DeviceKind::Tofino);
        for node in t.nodes() {
            assert_eq!(t.find(&node.name), Some(node.id), "{}", node.name);
        }
        assert_eq!(t.find("nope"), None);
    }

    #[test]
    fn tier_levels_are_ordered() {
        assert!(Tier::Server.level() < Tier::Nic.level());
        assert!(Tier::Nic.level() < Tier::ToR.level());
        assert!(Tier::ToR.level() < Tier::Agg.level());
        assert!(Tier::Agg.level() < Tier::Core.level());
        assert!(!Tier::Server.is_network_device());
        assert!(Tier::Nic.is_network_device());
        assert_eq!(Tier::Agg.to_string(), "agg");
    }
}
