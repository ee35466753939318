//! The five network configurations of Fig. 13 with the sparse-gradient
//! aggregation workload of Fig. 7.

use clickinc_device::DeviceModel;
use clickinc_emulator::workload::MlAggWorkloadConfig;
use clickinc_emulator::{DevicePlane, NetworkSetup};
use clickinc_frontend::compile_source;
use clickinc_lang::templates::{mlagg_sparse_user, mlagg_template, MlAggParams};

/// One Fig. 13 configuration.
#[derive(Debug)]
pub struct Fig13Case {
    /// Label used in the figure ("DPDK", "SmartNIC", "1 Switch", "2 Switches",
    /// "1 Switch+SmartNIC").
    pub label: &'static str,
    /// The path of programmable hops (with their programs installed).
    pub setup: NetworkSetup,
    /// The workload to run over it.
    pub workload: MlAggWorkloadConfig,
}

fn mlagg_params(dims: u32, workers: u32) -> MlAggParams {
    MlAggParams { dims, num_workers: workers, num_aggregators: 4096, is_float: false }
}

/// A switch hop running the full MLAgg program for `dims` dimensions.
fn aggregation_switch(name: &str, dims: u32, workers: u32) -> DevicePlane {
    let t = mlagg_template("mlagg", mlagg_params(dims, workers));
    let ir = compile_source("mlagg", &t.source).expect("MLAgg compiles");
    let mut plane = DevicePlane::new(name, DeviceModel::tofino());
    plane.install(ir);
    plane
}

/// A worker-side smartNIC hop running only the sparse-compression half of the
/// Fig. 7 user program.
fn compression_nic(name: &str, dims: u32, workers: u32, block_size: u32) -> DevicePlane {
    let t = mlagg_sparse_user("sparse", mlagg_params(dims, workers), dims / block_size, block_size);
    let source: String = t
        .source
        .lines()
        .filter(|l| !l.trim_start().starts_with("agg(hdr)"))
        .collect::<Vec<_>>()
        .join("\n");
    let ir = compile_source("sparse", &source).expect("sparse compression compiles");
    let mut plane = DevicePlane::new(name, DeviceModel::nfp_smartnic());
    plane.install(ir);
    plane
}

/// Build the five Fig. 13 configurations.
///
/// `workers` and `rounds` scale the workload; `dims` is the per-packet vector
/// size for the single-switch cases (the two-switch case doubles it, which is
/// the paper's "the packet size can be larger in case (4)").
pub fn fig13_configurations(workers: usize, rounds: usize, dims: usize) -> Vec<Fig13Case> {
    let base_workload = MlAggWorkloadConfig {
        workers,
        rounds,
        dims,
        sparsity: 0.5,
        block_size: 8,
        seed: 17,
        ..Default::default()
    };
    let w = workers as u32;
    let d = dims as u32;
    vec![
        Fig13Case {
            label: "DPDK",
            setup: NetworkSetup::new(vec![DevicePlane::new("SW0", DeviceModel::tofino())]),
            workload: base_workload.clone(),
        },
        Fig13Case {
            label: "SmartNIC",
            setup: NetworkSetup::new(vec![
                compression_nic("NIC0", d, w, 8),
                DevicePlane::new("SW0", DeviceModel::tofino()),
            ]),
            workload: base_workload.clone(),
        },
        Fig13Case {
            label: "1 Switch",
            setup: NetworkSetup::new(vec![aggregation_switch("SW0", d, w)]),
            workload: base_workload.clone(),
        },
        Fig13Case {
            label: "2 Switches",
            setup: NetworkSetup::new(vec![
                aggregation_switch("SW0", 2 * d, w),
                DevicePlane::new("SW1", DeviceModel::tofino()),
            ]),
            workload: MlAggWorkloadConfig { dims: 2 * dims, ..base_workload.clone() },
        },
        Fig13Case {
            label: "1 Switch+SmartNIC",
            setup: NetworkSetup::new(vec![
                compression_nic("NIC0", d, w, 8),
                aggregation_switch("SW0", d, w),
            ]),
            workload: base_workload,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use clickinc_emulator::run_aggregation_scenario;

    #[test]
    fn fig13_shape_matches_the_paper() {
        let mut results = Vec::new();
        for mut case in fig13_configurations(4, 60, 32) {
            let report = run_aggregation_scenario(&mut case.setup, &case.workload);
            assert!(report.aggregation_correct, "{}: aggregation must stay exact", case.label);
            results.push((case.label, report));
        }
        let goodput = |label: &str| {
            results.iter().find(|(l, _)| *l == label).map(|(_, r)| r.goodput_gbps).unwrap()
        };
        // the ordering the paper reports: every INC configuration beats the
        // baseline, aggregation beats compression-only, and the heterogeneous
        // combination is at least as good as a single switch
        assert!(goodput("SmartNIC") >= goodput("DPDK"));
        assert!(goodput("1 Switch") > goodput("SmartNIC"));
        assert!(goodput("2 Switches") >= goodput("1 Switch") * 0.95);
        assert!(goodput("1 Switch+SmartNIC") >= goodput("1 Switch"));
        // in-network latency exists exactly when a program runs in the network
        let latency = |label: &str| {
            results.iter().find(|(l, _)| *l == label).map(|(_, r)| r.inc_latency_ns).unwrap()
        };
        assert_eq!(latency("DPDK"), 0.0);
        assert!(latency("SmartNIC") > 0.0);
        assert!(latency("1 Switch+SmartNIC") >= latency("1 Switch"));
    }

    #[test]
    fn five_cases_are_generated() {
        let cases = fig13_configurations(2, 10, 16);
        assert_eq!(cases.len(), 5);
        assert_eq!(cases[0].label, "DPDK");
        assert_eq!(cases[4].label, "1 Switch+SmartNIC");
    }
}
