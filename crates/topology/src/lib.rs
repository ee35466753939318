//! # clickinc-topology — data-center network topologies
//!
//! ClickINC places programs over a data-center network of heterogeneous
//! programmable devices.  This crate models that network:
//!
//! * [`graph`] — the physical topology graph: nodes (servers, NICs, ToR /
//!   aggregation / core switches, each with a [`clickinc_device::DeviceKind`]
//!   and optionally a bypass accelerator) and links, with builders for
//!   device-equal fat-trees, the paper's Fig. 11 emulation topology, and
//!   simple device chains (used by the Table 4 / Fig. 14 experiments);
//! * [`paths`] — enumeration of the up-down paths between endpoint servers;
//! * [`reduce`] — the topology simplification of §5.3: devices are grouped into
//!   *equivalence classes* (ECs) per tier and pod, the fat-tree collapses into a
//!   client-side sub-tree and a server-side chain rooted at the core EC, and
//!   per-EC traffic shares are computed from the sources' traffic weights.

pub mod graph;
pub mod paths;
pub mod reduce;

pub use graph::{LinkId, Node, NodeHealth, NodeId, Tier, Topology};
pub use paths::enumerate_paths;
pub use reduce::{reduce_for_traffic, ReducedNode, ReducedTopology};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// In a k-ary device-equal fat tree every server can reach every other
        /// server and all paths have the expected up-down shape.
        #[test]
        fn fat_tree_paths_are_updown(k in 2usize..6) {
            let k = k * 2; // fat-trees need even k
            let topo = Topology::device_equal_fat_tree(k, clickinc_device::DeviceKind::Tofino);
            let servers = topo.servers();
            prop_assert!(!servers.is_empty());
            let a = servers[0];
            let b = *servers.last().unwrap();
            let paths = enumerate_paths(&topo, a, b);
            prop_assert!(!paths.is_empty());
            for p in &paths {
                prop_assert_eq!(p.first().copied(), Some(a));
                prop_assert_eq!(p.last().copied(), Some(b));
                // tiers rise then fall monotonically
                let tiers: Vec<i32> = p.iter().map(|n| topo.node(*n).tier.level()).collect();
                let peak = tiers.iter().copied().max().unwrap();
                let peak_pos = tiers.iter().position(|t| *t == peak).unwrap();
                prop_assert!(tiers[..=peak_pos].windows(2).all(|w| w[0] <= w[1]));
                prop_assert!(tiers[peak_pos..].windows(2).all(|w| w[0] >= w[1]));
            }
        }

        /// EC reduction conserves traffic: the root of the client sub-tree sees
        /// the whole traffic share (1.0) no matter how sources are spread.
        #[test]
        fn reduction_conserves_traffic(k in 2usize..5, nsrc in 1usize..6) {
            let k = k * 2;
            let topo = Topology::device_equal_fat_tree(k, clickinc_device::DeviceKind::Tofino);
            let servers = topo.servers();
            let dst = *servers.last().unwrap();
            let sources: Vec<_> = servers.iter().copied().take(nsrc.min(servers.len() - 1)).collect();
            let reduced = reduce_for_traffic(&topo, &sources, dst, &[]);
            let root_traffic = reduced.client[reduced.client_root].traffic;
            prop_assert!((root_traffic - 1.0).abs() < 1e-9);
        }
    }
}
