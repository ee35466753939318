//! Cross-crate property tests on placement invariants: whatever the program and
//! topology, a plan produced by the DP respects the constraint system and the
//! equivalence-class reduction does not change feasibility.

use clickinc_blockdag::{build_block_dag, BlockConfig};
use clickinc_device::DeviceKind;
use clickinc_frontend::compile_source;
use clickinc_lang::templates::{
    dqacc_template, kvs_template, mlagg_template, DqAccParams, KvsParams, MlAggParams,
};
use clickinc_placement::{place, PlacementConfig, PlacementNetwork, ResourceLedger};
use clickinc_topology::{reduce_for_traffic, Topology};
use proptest::prelude::*;

fn template_source(which: u8, size: u32) -> (String, String) {
    match which % 3 {
        0 => (
            "kvs".to_string(),
            kvs_template("kvs", KvsParams { cache_depth: 500 + size, ..Default::default() }).source,
        ),
        1 => (
            "mlagg".to_string(),
            mlagg_template(
                "mlagg",
                MlAggParams {
                    dims: 4 + (size % 12),
                    num_aggregators: 256 + size,
                    ..Default::default()
                },
            )
            .source,
        ),
        _ => (
            "dqacc".to_string(),
            dqacc_template("dqacc", DqAccParams { depth: 500 + size, ways: 2 + (size % 3) }).source,
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any template, any parameterization, any chain length: if the DP returns a
    /// plan, the plan passes every structural check (coverage, capabilities,
    /// resources, block/instruction consistency).
    #[test]
    fn plans_always_satisfy_the_constraint_system(which in 0u8..3, size in 0u32..4000, devices in 1usize..5) {
        let (name, source) = template_source(which, size);
        let ir = compile_source(&name, &source).unwrap();
        let dag = build_block_dag(&ir, &BlockConfig::default());
        let topo = Topology::chain(devices, DeviceKind::Tofino);
        let servers = topo.servers();
        let reduced = reduce_for_traffic(&topo, &[servers[0]], servers[1], &[]);
        let net = PlacementNetwork::from_reduced(&topo, &reduced, &ResourceLedger::new());
        if let Ok(plan) = place(&ir, &dag, &net, &PlacementConfig::default()) {
            plan.assert_valid(&ir, &dag, &net);
            prop_assert!(plan.gain <= 0.5 + 1e-9);
            prop_assert!(plan.resource_cost >= 0.0);
        }
    }

    /// Feasibility on a fat-tree is monotone in device capability: if a program
    /// places on an all-Tofino fat-tree, it also places when every switch is the
    /// larger Tofino2.
    #[test]
    fn bigger_devices_never_hurt_feasibility(which in 0u8..3, size in 0u32..2000) {
        let (name, source) = template_source(which, size);
        let ir = compile_source(&name, &source).unwrap();
        let dag = build_block_dag(&ir, &BlockConfig::default());
        let mk_net = |kind: DeviceKind| {
            let topo = Topology::device_equal_fat_tree(4, kind);
            let s0 = topo.find("pod0_s0").unwrap();
            let dst = topo.find("pod2_s0").unwrap();
            let reduced = reduce_for_traffic(&topo, &[s0], dst, &[]);
            PlacementNetwork::from_reduced(&topo, &reduced, &ResourceLedger::new())
        };
        let small = place(&ir, &dag, &mk_net(DeviceKind::Tofino), &PlacementConfig::default());
        let big = place(&ir, &dag, &mk_net(DeviceKind::Tofino2), &PlacementConfig::default());
        if small.is_ok() {
            prop_assert!(big.is_ok(), "upgrade to Tofino2 must not break feasibility");
        }
    }
}

/// The four fig13 template programs, planned as `tests/static_verification.rs`
/// plans them: the dependency edges, block membership and placement the
/// deploy path derives from them, pinned to the values recorded at the commit
/// before the analyses moved onto the one operand walk in `ir/src/instr.rs`.
#[test]
fn fig13_template_plans_are_pinned() {
    use clickinc::{ClickIncService, ServiceRequest};
    use clickinc_ir::{dependency_edges, DependencyKind, Fnv};
    use clickinc_lang::templates::count_min_sketch;

    let mlagg = MlAggParams { dims: 32, num_workers: 4, num_aggregators: 4096, is_float: false };
    let kvs = KvsParams { cache_depth: 2000, ..Default::default() };
    // (template, edges, edge digest, blocks, membership digest, placement fingerprint)
    let cases = [
        (
            kvs_template("kvs_srv", kvs),
            37,
            0xcdc5d8381a83c9e9,
            9,
            0x104d22cd7b28e701,
            0xa4348845565bd4b6,
        ),
        (
            mlagg_template("mlagg", mlagg),
            927,
            0xca92c3b17d9ac790,
            14,
            0xf55f2e99ec177d56,
            0x7e1daa6187e2ba8c,
        ),
        (
            dqacc_template("dqacc", DqAccParams::default()),
            102,
            0x95c5d902df929ee4,
            4,
            0xa3e80b23c69d9865,
            0x1a7bf19f23cd7591,
        ),
        (
            count_min_sketch("cms", 3, 512),
            6,
            0x934c5e47324d61c5,
            2,
            0x445cc6ad2f34cec6,
            0x206fd28515a72206,
        ),
    ];
    let service = ClickIncService::new(Topology::emulation_topology_all_tofino()).unwrap();
    for (template, n_edges, edge_digest, n_blocks, block_digest, placement) in cases {
        let user = template.name.as_str();
        let request = ServiceRequest::new(user, &template.source, &["pod0a"], "pod2b");
        let plan = service.plan(&request).expect("fig13 template plans");
        let program = plan.program();
        let edges = dependency_edges(&program.instructions, &program.objects);
        let mut h = Fnv::new();
        for (from, to, kind) in &edges {
            h.write_u64(*from as u64);
            h.write_u64(*to as u64);
            h.write_u64((*kind == DependencyKind::State) as u64);
        }
        assert_eq!((edges.len(), h.finish()), (n_edges, edge_digest), "{user}: dependency edges");
        let mut h = Fnv::new();
        for block in plan.dag().blocks() {
            h.write_u64(block.instrs.len() as u64);
            for &i in &block.instrs {
                h.write_u64(i as u64);
            }
            h.write_u64(block.stateful as u64);
        }
        assert_eq!(
            (plan.dag().blocks().len(), h.finish()),
            (n_blocks, block_digest),
            "{user}: blocks"
        );
        assert_eq!(plan.placement().fingerprint(), placement, "{user}: placement fingerprint");
    }
}
