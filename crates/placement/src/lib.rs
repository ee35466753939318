//! # clickinc-placement — distributing IR programs over the network
//!
//! Placing an IR program on the data-center network is the optimization problem
//! of §5 of the paper: maximize the traffic served by INC while minimizing the
//! resources consumed on devices and the extra data shipped between program
//! segments (Eq. 1), subject to per-device capability, resource, and dependency
//! constraints.
//!
//! The crate contains:
//!
//! * [`network`] — the placement view of the (reduced) topology: one
//!   [`PlacementDevice`] per equivalence class, with its device model, bypass
//!   accelerator, traffic share, and remaining resources (multi-tenant ledger);
//! * [`objective`] — the Eq. 1 gain terms, the adaptive weights
//!   (ω_r = 1 − 2^(r−1), ω_p = ½ − ω_r), and the cross-device parameter cut
//!   cost derived from the SSA def/use sets;
//! * [`intra`] — Algorithm 2: instruction-to-stage allocation within one device
//!   (pipeline devices respect stage ordering and per-stage resources; RTC
//!   devices only check aggregate resources);
//! * [`dp`] — Algorithm 1: the bottom-up dynamic program over the client-side
//!   sub-tree plus the server-side chain, with the pruning rules of §5.4, and
//!   the name-free [`PlacementInputs`] it derives from a program before it
//!   looks at the network;
//! * [`smt`] — the one placement baseline, a backtracking search over
//!   per-block device/stage assignments with the same constraint set but no
//!   structural decomposition (exponential in the number of devices).  It is
//!   the comparator of Table 4 / Fig. 14 and the DP's optimality oracle: the
//!   tests hold [`place`] to its gain on every chain small enough to
//!   enumerate;
//! * [`plan`] — the resulting [`PlacementPlan`] (per-device snippets, stage
//!   maps, gain breakdown, solve time).

pub mod dp;
pub mod intra;
pub mod memo;
pub mod network;
pub mod objective;
pub mod plan;
pub mod smt;

pub use dp::{place, place_prepared, place_with_cache, PlacementConfig, PlacementInputs};
pub use intra::{allocate_stages, allocate_stages_with, SegContext, SegFacts, StageAllocation};
pub use memo::{device_fingerprint, shape_fingerprint, SolveCache, SolveCacheStats};
pub use network::{PlacementDevice, PlacementNetwork, ResourceLedger};
pub use objective::{cut_costs, Weights};
pub use plan::{Assignment, PlacementError, PlacementPlan};
pub use smt::{place_smt, SmtConfig};

/// The four fig13 provider templates (KVS, MLAgg-32, DQAcc, CMS) as
/// `tests/placement_invariants.rs` pins them, compiled once for the in-crate
/// equivalence tests.
#[cfg(test)]
pub(crate) fn fig13_programs() -> &'static [clickinc_ir::IrProgram] {
    use clickinc_lang::templates::*;
    static PROGRAMS: std::sync::OnceLock<Vec<clickinc_ir::IrProgram>> = std::sync::OnceLock::new();
    PROGRAMS.get_or_init(|| {
        let mlagg =
            MlAggParams { dims: 32, num_workers: 4, num_aggregators: 4096, is_float: false };
        [
            kvs_template("kvs", KvsParams { cache_depth: 2000, ..Default::default() }),
            mlagg_template("mlagg", mlagg),
            dqacc_template("dqacc", DqAccParams::default()),
            count_min_sketch("cms", 3, 512),
        ]
        .iter()
        .map(|t| clickinc_frontend::compile_source(&t.name, &t.source).expect("template compiles"))
        .collect()
    })
}

#[cfg(test)]
mod proptests {
    use super::*;
    use clickinc_blockdag::{build_block_dag, BlockConfig};
    use clickinc_device::DeviceKind;
    use clickinc_ir::{AluOp, IrProgram, Operand, ProgramBuilder};
    use clickinc_topology::{reduce_for_traffic, Topology};
    use proptest::prelude::*;

    fn random_program(n: usize, seed: &[u8]) -> IrProgram {
        let mut b = ProgramBuilder::new("prop");
        b.array("state", 1, 256, 32);
        b.hash_fn("h", clickinc_ir::HashAlgo::Crc16, Some(256));
        let mut prev: Option<String> = None;
        for (i, byte) in seed.iter().take(n).enumerate() {
            let v = format!("v{i}");
            match byte % 3 {
                0 => {
                    let lhs = prev.clone().map(Operand::var).unwrap_or_else(|| Operand::hdr("seq"));
                    b.alu(&v, AluOp::Add, lhs, Operand::int(i64::from(*byte)));
                }
                1 => {
                    b.hash(&v, "h", vec![Operand::hdr("seq")]);
                }
                _ => {
                    b.count(
                        Some(&v),
                        "state",
                        vec![Operand::int(i64::from(*byte))],
                        Operand::int(1),
                    );
                }
            }
            prev = Some(v);
        }
        b.forward();
        b.build().expect("generated program is well-formed")
    }

    /// A client–server chain of `devices` switches of `kind`, its even-numbered
    /// switches pre-booked with `booked` of their capacity, as the placement
    /// view of the client-to-server traffic.
    fn chain_network(devices: usize, kind: DeviceKind, booked: f64) -> PlacementNetwork {
        let topo = Topology::chain(devices, kind);
        let mut ledger = ResourceLedger::new();
        let switches = topo.nodes().iter().filter(|n| n.tier.is_network_device());
        for node in switches.step_by(2) {
            ledger.consume(node.id, node.kind.model().total_capacity().scaled(booked));
        }
        let servers = topo.servers();
        let reduced = reduce_for_traffic(&topo, &[servers[0]], servers[1], &[]);
        PlacementNetwork::from_reduced(&topo, &reduced, &ledger)
    }

    /// Holds the DP to the exhaustive optimum on one case, pruning on and off,
    /// with and without the shared segment `memo`: under the same (default)
    /// weights `place` fails exactly when `place_smt` does, and otherwise the
    /// search ran to the end, both plans are valid and both gains are equal —
    /// a DP gain below the optimum is a missed plan, one above it means the
    /// two score plans differently.  Returns whether the case was feasible.
    fn assert_dp_is_optimal(
        program: &IrProgram,
        blocks: &BlockConfig,
        net: &PlacementNetwork,
        memo: &SolveCache,
        case: &str,
    ) -> bool {
        let dag = build_block_dag(program, blocks);
        let oracle = place_smt(program, &dag, net, &SmtConfig::default());
        if let Ok((best, _)) = &oracle {
            best.assert_valid(program, &dag, net);
        }
        for enable_pruning in [true, false] {
            let config = PlacementConfig { enable_pruning, ..Default::default() };
            for cache in [None, Some(memo)] {
                let dp = place_with_cache(program, &dag, net, &config, cache);
                let how = format!("{case}, pruning {enable_pruning}, memo {}", cache.is_some());
                match (&dp, &oracle) {
                    (Err(_), Err(_)) => {}
                    (Ok(dp), Ok((best, stats))) => {
                        assert!(stats.exhausted, "{how}: the exhaustive search timed out");
                        dp.assert_valid(program, &dag, net);
                        assert!(
                            (dp.gain - best.gain).abs() < 1e-9,
                            "{how}: DP gain {} vs optimum {}",
                            dp.gain,
                            best.gain
                        );
                    }
                    _ => panic!(
                        "{how}: DP {:?} but exhaustive {:?}",
                        dp.as_ref().map(|p| p.gain),
                        oracle.as_ref().map(|(p, _)| p.gain)
                    ),
                }
            }
        }
        oracle.is_ok()
    }

    /// Table 4's claim as a test, on the fig13 templates: every programmable
    /// device kind, chains of one to three devices, ledger empty or partly
    /// booked.
    #[test]
    fn dp_matches_the_exhaustive_optimum_on_fig13_templates() {
        let memo = SolveCache::new();
        let mut feasible = 0;
        let mut cases = 0;
        for program in fig13_programs() {
            for kind in DeviceKind::PROGRAMMABLE {
                for devices in 1..=3 {
                    for booked in [0.0, 0.3, 0.6] {
                        let net = chain_network(devices, kind, booked);
                        let case =
                            format!("{} on {devices} × {kind}, booked {booked}", program.name);
                        feasible += usize::from(assert_dp_is_optimal(
                            program,
                            &BlockConfig::default(),
                            &net,
                            &memo,
                            &case,
                        ));
                        cases += 1;
                    }
                }
            }
        }
        // most cases place (170 of 216 with today's device models), so the
        // equality above is not vacuous
        assert!(2 * feasible > cases, "only {feasible} of {cases} cases place");
    }

    #[test]
    fn concurrent_solves_are_bit_identical_to_a_lone_solve() {
        let program = random_program(12, &[7u8; 18]);
        let dag = build_block_dag(&program, &BlockConfig::default());
        let net = chain_network(3, DeviceKind::Tofino, 0.0);
        let config = PlacementConfig::default();
        let lone = place(&program, &dag, &net, &config).expect("solves").fingerprint();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| place(&program, &dag, &net, &config).expect("solves")))
                .collect();
            for h in handles {
                assert_eq!(h.join().expect("no panic").fingerprint(), lone);
            }
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Whenever the DP finds a plan it satisfies all constraints: every
        /// block placed exactly once per path, device capabilities respected,
        /// resources within capacity.
        #[test]
        fn dp_plans_are_feasible(
            n in 1usize..18,
            seed in proptest::collection::vec(any::<u8>(), 18),
            devices in 1usize..5,
        ) {
            let program = random_program(n, &seed);
            let dag = build_block_dag(&program, &BlockConfig::default());
            let net = chain_network(devices, DeviceKind::Tofino, 0.0);
            if let Ok(plan) = place(&program, &dag, &net, &PlacementConfig::default()) {
                plan.assert_valid(&program, &dag, &net);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// Table 4's claim as a test, on random programs over chains of one
        /// to four devices of any programmable kind, ledger empty or partly
        /// booked.
        #[test]
        fn dp_matches_the_exhaustive_optimum_on_random_programs(
            n in 1usize..15,
            seed in proptest::collection::vec(any::<u8>(), 15),
            devices in 1usize..5,
            kind in 0usize..DeviceKind::PROGRAMMABLE.len(),
            booked in 0usize..3,
            max_block_instrs in 1usize..17,
        ) {
            let program = random_program(n, &seed);
            let blocks = BlockConfig { max_block_instrs, ..Default::default() };
            let kind = DeviceKind::PROGRAMMABLE[kind];
            let booked = 0.3 * booked as f64;
            let net = chain_network(devices, kind, booked);
            let case = format!(
                "{n}-instruction program in blocks of ≤ {max_block_instrs} on {devices} × {kind}, \
                 booked {booked}"
            );
            assert_dp_is_optimal(&program, &blocks, &net, &SolveCache::new(), &case);
        }
    }
}
