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
//! * [`smt`] — the SMT-style exhaustive baseline used by Table 4 / Fig. 14:
//!   a backtracking search over per-block device/stage assignments with the
//!   same constraint set but no structural decomposition (exponential in the
//!   number of devices);
//! * [`greedy`] — a single-path greedy baseline used in tests as a lower bound
//!   for DP solution quality;
//! * [`plan`] — the resulting [`PlacementPlan`] (per-device snippets, stage
//!   maps, gain breakdown, solve time).

pub mod dp;
pub mod greedy;
pub mod intra;
pub mod memo;
pub mod network;
pub mod objective;
pub mod plan;
pub mod smt;

pub use dp::place as solve;
pub use dp::{place, place_prepared, place_with_cache, PlacementConfig, PlacementInputs};
pub use greedy::place_greedy;
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
    use clickinc_ir::{AluOp, Operand, ProgramBuilder};
    use clickinc_topology::Topology;
    use proptest::prelude::*;

    fn random_program(n: usize, seed: &[u8]) -> clickinc_ir::IrProgram {
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

    #[test]
    fn concurrent_solves_are_bit_identical_to_a_lone_solve() {
        let program = random_program(12, &[7u8; 18]);
        let dag = build_block_dag(&program, &BlockConfig::default());
        let topo = Topology::chain(3, DeviceKind::Tofino);
        let servers = topo.servers();
        let reduced = clickinc_topology::reduce_for_traffic(&topo, &[servers[0]], servers[1], &[]);
        let ledger = ResourceLedger::new();
        let net = PlacementNetwork::from_reduced(&topo, &reduced, &ledger);
        let config = PlacementConfig::default();
        let lone = solve(&program, &dag, &net, &config).expect("solves").fingerprint();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| solve(&program, &dag, &net, &config).expect("solves")))
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
            let topo = Topology::chain(devices, DeviceKind::Tofino);
            let servers = topo.servers();
            let reduced = clickinc_topology::reduce_for_traffic(&topo, &[servers[0]], servers[1], &[]);
            let ledger = ResourceLedger::new();
            let net = PlacementNetwork::from_reduced(&topo, &reduced, &ledger);
            if let Ok(plan) = place(&program, &dag, &net, &PlacementConfig::default()) {
                plan.assert_valid(&program, &dag, &net);
            }
        }

        /// DP gain is never worse than the greedy single-device baseline when
        /// both succeed.
        #[test]
        fn dp_at_least_as_good_as_greedy(
            n in 1usize..15,
            seed in proptest::collection::vec(any::<u8>(), 15),
        ) {
            let program = random_program(n, &seed);
            let dag = build_block_dag(&program, &BlockConfig::default());
            let topo = Topology::chain(3, DeviceKind::Tofino);
            let servers = topo.servers();
            let reduced = clickinc_topology::reduce_for_traffic(&topo, &[servers[0]], servers[1], &[]);
            let ledger = ResourceLedger::new();
            let net = PlacementNetwork::from_reduced(&topo, &reduced, &ledger);
            let dp = place(&program, &dag, &net, &PlacementConfig::default());
            let greedy = place_greedy(&program, &dag, &net);
            if let (Ok(d), Ok(g)) = (dp, greedy) {
                prop_assert!(d.gain >= g.gain - 1e-9, "dp {} < greedy {}", d.gain, g.gain);
            }
        }
    }
}
