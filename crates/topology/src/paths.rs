//! Up-down path enumeration between endpoint servers.
//!
//! Data-center traffic between two servers follows *up-down* (valley-free)
//! paths: from the source up through its NIC/ToR/Agg to a common ancestor tier
//! and back down to the destination.  The placement engine and the emulator
//! both need the full set of such paths so that blocks replicated across
//! equal-cost paths cover all the traffic (paper §5.1 "on each path, the IR
//! program blocks must be placed sequentially; among the paths, blocks are
//! replicated...").

use crate::graph::{NodeId, Tier, Topology};

/// Enumerate every loop-free up-down path between two servers.
///
/// Paths are returned as node-id sequences starting at `src` and ending at
/// `dst`.  The search only allows tier levels to rise until a single peak and
/// then fall, which yields exactly the ECMP path set of fat-tree / spine-leaf
/// fabrics and keeps the enumeration polynomial.
pub fn enumerate_paths(topo: &Topology, src: NodeId, dst: NodeId) -> Vec<Vec<NodeId>> {
    if src == dst {
        return if topo.is_up(src) { vec![vec![src]] } else { Vec::new() };
    }
    if !topo.is_up(src) || !topo.is_up(dst) {
        return Vec::new();
    }
    let mut result = Vec::new();
    let mut path = vec![src];
    dfs(topo, src, dst, true, &mut path, &mut result);
    // deterministic order helps tests and reproducibility
    result.sort();
    result.dedup();
    result
}

fn dfs(
    topo: &Topology,
    current: NodeId,
    dst: NodeId,
    ascending: bool,
    path: &mut Vec<NodeId>,
    result: &mut Vec<Vec<NodeId>>,
) {
    if current == dst {
        result.push(path.clone());
        return;
    }
    // safety bound: an up-down path in a 5-tier fat-tree has at most 9 hops;
    // device chains (Table 4 / Fig. 14 experiments) can be much longer, so the
    // cap only needs to stop pathological cycles, not legitimate chains
    if path.len() > 40 {
        return;
    }
    let current_level = topo.node(current).tier.level();
    for &next in topo.neighbors(current) {
        if path.contains(&next) {
            continue;
        }
        // failed devices are invisible to routing: placement never lands on
        // them and re-placement after a fault naturally avoids them
        if !topo.is_up(next) {
            continue;
        }
        let next_level = topo.node(next).tier.level();
        let going_up = next_level > current_level;
        let going_down = next_level < current_level;
        // enforce valley-free: once we start descending we may not ascend again
        let next_ascending = if going_up {
            if !ascending {
                continue;
            }
            true
        } else if going_down {
            false
        } else {
            // same-tier hop (switch chains): keeps the current direction and
            // cannot create a valley, so it is always allowed
            ascending
        };
        // do not descend into servers other than the destination
        if topo.node(next).tier == Tier::Server && next != dst {
            continue;
        }
        path.push(next);
        dfs(topo, next, dst, next_ascending, path, result);
        path.pop();
    }
}

/// The highest tier reached by a path.
pub fn path_peak_tier(topo: &Topology, path: &[NodeId]) -> Option<Tier> {
    path.iter().map(|n| topo.node(*n).tier).max_by_key(|t| t.level())
}

#[cfg(test)]
mod tests {
    use super::*;
    use clickinc_device::DeviceKind;

    #[test]
    fn chain_has_exactly_one_path() {
        let t = Topology::chain(4, DeviceKind::Tofino);
        let servers = t.servers();
        let paths = enumerate_paths(&t, servers[0], servers[1]);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].len(), 6);
    }

    #[test]
    fn same_source_and_destination() {
        let t = Topology::chain(2, DeviceKind::Tofino);
        let s = t.servers()[0];
        assert_eq!(enumerate_paths(&t, s, s), vec![vec![s]]);
    }

    #[test]
    fn intra_pod_paths_peak_at_agg() {
        let t = Topology::device_equal_fat_tree(4, DeviceKind::Tofino);
        // two servers under different ToRs of pod 0
        let a = t.find("pod0_s0").unwrap();
        let b = t.find("pod0_s2").unwrap();
        let paths = enumerate_paths(&t, a, b);
        assert_eq!(paths.len(), 2, "one path per pod-local aggregation switch");
        for p in &paths {
            assert_eq!(path_peak_tier(&t, p), Some(Tier::Agg));
        }
    }

    #[test]
    fn same_rack_paths_peak_at_tor() {
        let t = Topology::device_equal_fat_tree(4, DeviceKind::Tofino);
        let a = t.find("pod0_s0").unwrap();
        let b = t.find("pod0_s1").unwrap();
        let paths = enumerate_paths(&t, a, b);
        assert_eq!(paths.len(), 1);
        assert_eq!(path_peak_tier(&t, &paths[0]), Some(Tier::ToR));
    }

    #[test]
    fn inter_pod_paths_use_every_core_once() {
        let t = Topology::device_equal_fat_tree(4, DeviceKind::Tofino);
        let a = t.find("pod0_s0").unwrap();
        let b = t.find("pod3_s3").unwrap();
        let paths = enumerate_paths(&t, a, b);
        // k=4 fat tree: 4 core switches, each providing exactly one path
        assert_eq!(paths.len(), 4);
        for p in &paths {
            assert_eq!(path_peak_tier(&t, p), Some(Tier::Core));
            assert_eq!(p.len(), 7, "server-tor-agg-core-agg-tor-server");
        }
    }

    #[test]
    fn emulation_topology_paths_traverse_nics() {
        let t = Topology::emulation_topology();
        let a = t.find("pod0a").unwrap();
        let b = t.find("pod2b").unwrap();
        let paths = enumerate_paths(&t, a, b);
        assert!(!paths.is_empty());
        for p in &paths {
            // pod0 servers sit behind an NFP NIC
            assert!(p.iter().any(|n| t.node(*n).tier == Tier::Nic));
            assert_eq!(path_peak_tier(&t, p), Some(Tier::Core));
        }
    }

    #[test]
    fn down_devices_are_routed_around() {
        use crate::graph::NodeHealth;
        let mut t = Topology::device_equal_fat_tree(4, DeviceKind::Tofino);
        let a = t.find("pod0_s0").unwrap();
        let b = t.find("pod0_s2").unwrap();
        assert_eq!(enumerate_paths(&t, a, b).len(), 2, "one path per pod-local agg");
        let agg = t.find("Agg0").unwrap();
        t.set_node_health(agg, NodeHealth::Down);
        let paths = enumerate_paths(&t, a, b);
        assert_eq!(paths.len(), 1, "the failed agg's path disappears");
        assert!(paths.iter().all(|p| !p.contains(&agg)));
        // failing the only remaining agg leaves no path at all
        let agg1 = t.find("Agg1").unwrap();
        t.set_node_health(agg1, NodeHealth::Down);
        assert!(enumerate_paths(&t, a, b).is_empty());
        // restore brings the full ECMP set back
        t.set_node_health(agg, NodeHealth::Up);
        t.set_node_health(agg1, NodeHealth::Up);
        assert_eq!(enumerate_paths(&t, a, b).len(), 2);
    }

    #[test]
    fn down_endpoints_yield_no_paths() {
        use crate::graph::NodeHealth;
        let mut t = Topology::chain(2, DeviceKind::Tofino);
        let servers = t.servers();
        t.set_node_health(servers[0], NodeHealth::Down);
        assert!(enumerate_paths(&t, servers[0], servers[1]).is_empty());
        assert!(enumerate_paths(&t, servers[0], servers[0]).is_empty());
    }

    #[test]
    fn valley_free_paths_never_descend_then_ascend() {
        let t = Topology::device_equal_fat_tree(6, DeviceKind::Tofino);
        let a = t.find("pod0_s0").unwrap();
        let b = t.find("pod5_s0").unwrap();
        for p in enumerate_paths(&t, a, b) {
            let levels: Vec<i32> = p.iter().map(|n| t.node(*n).tier.level()).collect();
            let mut descended = false;
            for w in levels.windows(2) {
                if w[1] < w[0] {
                    descended = true;
                }
                if descended {
                    assert!(w[1] <= w[0], "path re-ascends after descending: {levels:?}");
                }
            }
        }
    }
}
