//! # clickinc-device — heterogeneous device models
//!
//! The placement engine needs, for every programmable device in the data
//! center, (i) which instruction classes it can execute at all (paper Table 9 /
//! Appendix E "Compatibility"), (ii) how many pipeline stages or cores it
//! offers, (iii) how much of each resource a stage/core provides, and (iv) how
//! much of each resource a given IR instruction or block consumes on that
//! device.  This crate provides those models for the five device families the
//! paper targets — Tofino, Tofino2, Trident4 (TD4), Netronome NFP smartNICs and
//! Xilinx FPGAs — plus a plain-server (DPDK) pseudo-device used as the
//! no-offload baseline in the Fig. 13 experiment.
//!
//! The constraint formulas of Appendix E are reproduced in a simplified but
//! faithful form: memory demand is charged in SRAM/TCAM blocks per *object*,
//! compute demand in ALUs/SALUs/hash units per *instruction*, table demand in
//! match-action slots, predication demand in gateway slots, and RTC devices
//! (NFP) charge per-core micro-instruction slots instead of per-stage units.

mod demand;
mod model;

pub use demand::{block_demand, instruction_demand, object_demand};
pub use model::{Architecture, DeviceKind, DeviceModel};

#[cfg(test)]
mod proptests {
    use super::*;
    use clickinc_ir::{AluOp, Operand, ProgramBuilder, Resource};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Block demand is monotone: adding instructions never lowers any
        /// resource dimension.
        #[test]
        fn block_demand_is_monotone(n in 1usize..20, extra in 1usize..10) {
            let mut b = ProgramBuilder::new("p");
            b.array("s", 1, 1024, 32);
            for i in 0..(n + extra) {
                if i % 3 == 0 {
                    b.count(Some(&format!("c{i}")), "s", vec![Operand::int(i as i64)], Operand::int(1));
                } else {
                    b.alu(&format!("v{i}"), AluOp::Add, Operand::hdr("x"), Operand::int(i as i64));
                }
            }
            let program = b.build().expect("generated program is well-formed");
            let dev = DeviceModel::tofino();
            let small: Vec<usize> = (0..n).collect();
            let large: Vec<usize> = (0..n + extra).collect();
            let d_small = block_demand(&dev, &program, &small);
            let d_large = block_demand(&dev, &program, &large);
            for r in Resource::ALL {
                prop_assert!(d_small[r] <= d_large[r] + 1e-9,
                    "{:?}: {} > {}", r, d_small[r], d_large[r]);
            }
        }

        /// Per-device capacities are internally consistent: the device offers a
        /// non-negative amount of every resource and the stage count is non-zero.
        #[test]
        fn all_models_have_usable_stages(kind_idx in 0usize..6) {
            let dev = match kind_idx {
                0 => DeviceModel::tofino(),
                1 => DeviceModel::tofino2(),
                2 => DeviceModel::trident4(),
                3 => DeviceModel::nfp_smartnic(),
                4 => DeviceModel::fpga_smartnic(),
                _ => DeviceModel::fpga_accelerator(),
            };
            prop_assert!(dev.stages() >= 1);
            for r in Resource::ALL {
                prop_assert!(dev.total_capacity()[r] >= 0.0);
            }
        }
    }
}
