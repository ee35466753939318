//! Application scenarios and performance accounting.
//!
//! The Fig. 13 experiment sends sparse-gradient traffic from a set of workers
//! towards a parameter server across a configurable sequence of programmable
//! hops, and measures (a) the aggregation *goodput* — how many bytes of useful
//! gradient data are reduced per unit time, limited by the most congested link
//! or the slowest processing element — and (b) the *in-network processing
//! latency* accumulated over the INC devices on the path.  This aggregation
//! ablation is the one scenario loop left; KVS experiments run on the
//! served path (`clickinc::ClickIncService` over the sharded engine).

use crate::interp::{DevicePlane, PacketAction};
use crate::workload::{MlAggWorkload, MlAggWorkloadConfig, Workload};
use clickinc_ir::Value;
use serde::Serialize;
use std::collections::BTreeMap;

/// The emulated path: a sequence of programmable hops between the traffic
/// sources and the destination host, plus the link rate and the destination
/// host's per-packet software processing cost.
#[derive(Debug)]
pub struct NetworkSetup {
    /// Programmable devices in traffic order (may be empty = pure DPDK baseline).
    pub hops: Vec<DevicePlane>,
    /// Link rate between hops in Gbps.
    pub link_gbps: f64,
    /// Destination-host software cost per received packet, in nanoseconds
    /// (the DPDK receive + aggregate path).
    pub host_per_packet_ns: f64,
}

impl NetworkSetup {
    /// A setup with the given hops and 100 Gbps links.
    pub fn new(hops: Vec<DevicePlane>) -> NetworkSetup {
        NetworkSetup { hops, link_gbps: 100.0, host_per_packet_ns: 550.0 }
    }
}

/// Results of the gradient-aggregation scenario.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AggregationReport {
    /// Aggregation goodput in Gbps (useful gradient bytes reduced per second).
    pub goodput_gbps: f64,
    /// Mean in-network processing latency per packet in nanoseconds
    /// (0 when no programmable hop runs a program).
    pub inc_latency_ns: f64,
    /// Bytes that crossed the final (server) link.
    pub bytes_at_server_link: u64,
    /// Packets the parameter server had to process in software.
    pub packets_at_server: u64,
    /// Whether every round's aggregate matched the ground-truth sum.
    pub aggregation_correct: bool,
    /// Total packets injected by the workers.
    pub packets_sent: u64,
}

/// Run the sparse-gradient aggregation workload over the given path.
/// Programs installed directly on a plane accept any `user_id` (0);
/// controller deployments are guarded and only process traffic carrying
/// their assigned id (`Controller::numeric_id_of`).  The scenario keeps its
/// own clock: `tenant` and `rate_pps` are not consulted.
pub fn run_aggregation_scenario(
    setup: &mut NetworkSetup,
    config: &MlAggWorkloadConfig,
) -> AggregationReport {
    let mut workload = MlAggWorkload::new(config.clone());
    let mut truth: BTreeMap<(usize, usize), i64> = BTreeMap::new(); // (round, dim) -> sum
    let mut aggregated: BTreeMap<(usize, usize), i64> = BTreeMap::new();
    let mut host_partial: BTreeMap<(usize, usize), i64> = BTreeMap::new();

    let mut bytes_per_link: Vec<u64> = vec![0; setup.hops.len() + 1];
    let mut packets_at_server: u64 = 0;
    let mut packets_sent: u64 = 0;
    let mut total_inc_latency = 0.0;
    let mut inc_latency_samples = 0u64;
    let data_fields: Vec<String> = (0..config.dims).map(|d| format!("data_{d}")).collect();

    while let Some(generated) = workload.next_packet() {
        let mut pkt = generated.packet;
        let round = pkt.inc.get("seq").as_int().unwrap_or(0) as usize;
        for (d, field) in data_fields.iter().enumerate() {
            *truth.entry((round, d)).or_insert(0) += pkt.inc.get(field).as_int().unwrap_or(0);
        }
        packets_sent += 1;

        let mut delivered = true;
        let mut pkt_latency = 0.0;
        for (hop_idx, hop) in setup.hops.iter_mut().enumerate() {
            bytes_per_link[hop_idx] += pkt.wire_bytes() as u64;
            if !hop.has_program() {
                continue;
            }
            let outcome = hop.process(&mut pkt);
            pkt_latency += outcome.latency_ns;
            match outcome.action {
                PacketAction::Drop => {
                    delivered = false;
                    break;
                }
                PacketAction::Back => {
                    // completed aggregate released by the network
                    for (d, field) in data_fields.iter().enumerate() {
                        if let Value::Int(v) = pkt.inc.get(field) {
                            aggregated.insert((round, d), v);
                        }
                    }
                    delivered = false;
                    break;
                }
                PacketAction::Forward => {}
            }
        }
        if pkt_latency > 0.0 {
            total_inc_latency += pkt_latency;
            inc_latency_samples += 1;
        }
        if delivered {
            // last link into the server
            bytes_per_link[setup.hops.len()] += pkt.wire_bytes() as u64;
            packets_at_server += 1;
            // the parameter server aggregates in software
            for (d, field) in data_fields.iter().enumerate() {
                let slot = host_partial.entry((round, d)).or_insert(0);
                *slot += pkt.inc.get(field).as_int().unwrap_or(0);
            }
        }
    }

    // merge host-side partial sums with in-network results
    for ((round, d), v) in host_partial {
        *aggregated.entry((round, d)).or_insert(0) += v;
    }
    let aggregation_correct =
        truth.iter().all(|(k, v)| aggregated.get(k).copied().unwrap_or(0) == *v);

    // Timing model.  Switches and smartNICs process at line rate, so the
    // completion time of one training iteration is bounded by
    //  * the per-worker links before the first switch — every worker (and its
    //    own smartNIC, whose host-side link is local DMA and therefore skipped)
    //    has a dedicated port, so those links each carry 1/W of the bytes;
    //  * the shared links after the first switch (and the final server link),
    //    which carry every worker's surviving traffic;
    //  * the parameter server's software receive path (per-packet cost plus a
    //    per-byte copy/aggregate cost).
    let first_hop_is_nic = setup
        .hops
        .first()
        .map(|h| {
            matches!(
                h.model.kind,
                clickinc_device::DeviceKind::NfpSmartNic
                    | clickinc_device::DeviceKind::FpgaSmartNic
            ) && h.has_program()
        })
        .unwrap_or(false);
    let first_switch = setup.hops.iter().position(|h| {
        matches!(
            h.model.kind,
            clickinc_device::DeviceKind::Tofino
                | clickinc_device::DeviceKind::Tofino2
                | clickinc_device::DeviceKind::Trident4
        )
    });
    let shared_start = first_switch.map(|i| i + 1).unwrap_or(setup.hops.len());
    let mut worker_link_time_ns = 0.0_f64;
    let mut shared_link_time_ns = 0.0_f64;
    for (i, bytes) in bytes_per_link.iter().enumerate() {
        if i == 0 && first_hop_is_nic {
            continue; // host → its own smartNIC: local DMA, not a network link
        }
        let t = *bytes as f64 * 8.0 / setup.link_gbps;
        if i >= shared_start || i == setup.hops.len() {
            shared_link_time_ns = shared_link_time_ns.max(t);
        } else {
            worker_link_time_ns = worker_link_time_ns.max(t / config.workers.max(1) as f64);
        }
    }
    let host_time_ns = packets_at_server as f64 * setup.host_per_packet_ns
        + bytes_per_link[setup.hops.len()] as f64 * 1.5;
    let total_time_ns = worker_link_time_ns.max(shared_link_time_ns).max(host_time_ns).max(1.0);

    // useful data: one aggregated vector per round per worker contribution
    let useful_bits = (config.rounds * config.dims * 4 * 8) as f64 * config.workers as f64;
    let goodput_gbps = useful_bits / total_time_ns;

    AggregationReport {
        goodput_gbps,
        inc_latency_ns: if inc_latency_samples == 0 {
            0.0
        } else {
            total_inc_latency / inc_latency_samples as f64
        },
        bytes_at_server_link: bytes_per_link[setup.hops.len()],
        packets_at_server,
        aggregation_correct,
        packets_sent,
    }
}

/// The KVS backend's ground-truth value for a key.  Shared by the
/// engine-backed serving drivers and every cache pre-population helper, so
/// "the reply carried the correct value" means the same thing on every
/// serving path.
pub fn kvs_backend_value(key: i64) -> i64 {
    key * 1000 + 7
}

#[cfg(test)]
mod tests {
    use super::*;
    use clickinc_device::DeviceModel;
    use clickinc_frontend::compile_source;
    use clickinc_lang::templates::{mlagg_sparse_user, mlagg_template, MlAggParams};

    fn mlagg_plane(dims: u32, workers: u32) -> DevicePlane {
        let t = mlagg_template(
            "mlagg",
            MlAggParams { dims, num_workers: workers, num_aggregators: 4096, ..Default::default() },
        );
        let ir = compile_source("mlagg", &t.source).unwrap();
        let mut p = DevicePlane::new("SW0", DeviceModel::tofino());
        p.install(ir);
        p
    }

    fn sparse_plane(dims: u32, workers: u32) -> DevicePlane {
        // only the sparse-compression half: detect zero blocks and delete them
        let t = mlagg_sparse_user(
            "sparse",
            MlAggParams { dims, num_workers: workers, num_aggregators: 4096, ..Default::default() },
            dims / 8,
            8,
        );
        // strip the trailing template invocation so only compression runs here
        let src: String = t
            .source
            .lines()
            .filter(|l| !l.trim_start().starts_with("agg(hdr)"))
            .collect::<Vec<_>>()
            .join("\n");
        let ir = compile_source("sparse", &src).unwrap();
        let mut p = DevicePlane::new("NIC0", DeviceModel::nfp_smartnic());
        p.install(ir);
        p
    }

    fn cfg(dims: usize, workers: usize) -> MlAggWorkloadConfig {
        MlAggWorkloadConfig {
            workers,
            rounds: 50,
            dims,
            sparsity: 0.5,
            block_size: 8,
            seed: 3,
            ..Default::default()
        }
    }

    #[test]
    fn baseline_delivers_everything_to_the_server() {
        let mut setup = NetworkSetup::new(vec![DevicePlane::new("SW0", DeviceModel::tofino())]);
        let config = cfg(32, 4);
        let report = run_aggregation_scenario(&mut setup, &config);
        assert!(report.aggregation_correct);
        assert_eq!(report.packets_at_server, report.packets_sent);
        assert_eq!(report.inc_latency_ns, 0.0);
        assert!(report.goodput_gbps > 0.0);
    }

    #[test]
    fn in_network_aggregation_reduces_server_traffic_and_raises_goodput() {
        let config = cfg(32, 4);
        let mut baseline = NetworkSetup::new(vec![DevicePlane::new("SW0", DeviceModel::tofino())]);
        let base = run_aggregation_scenario(&mut baseline, &config);

        let mut switch = NetworkSetup::new(vec![mlagg_plane(32, 4)]);
        let agg = run_aggregation_scenario(&mut switch, &config);

        assert!(agg.aggregation_correct, "in-network aggregation must be exact");
        assert!(agg.packets_at_server < base.packets_at_server);
        assert!(agg.bytes_at_server_link < base.bytes_at_server_link);
        assert!(
            agg.goodput_gbps > base.goodput_gbps,
            "aggregation goodput {} should beat baseline {}",
            agg.goodput_gbps,
            base.goodput_gbps
        );
        assert!(agg.inc_latency_ns > 0.0);
    }

    #[test]
    fn sparse_compression_alone_reduces_bytes_but_not_packets() {
        let config = MlAggWorkloadConfig { sparsity: 0.75, ..cfg(32, 4) };
        let mut baseline = NetworkSetup::new(vec![DevicePlane::new("SW0", DeviceModel::tofino())]);
        let base = run_aggregation_scenario(&mut baseline, &config);
        let mut nic = NetworkSetup::new(vec![sparse_plane(32, 4)]);
        let comp = run_aggregation_scenario(&mut nic, &config);
        assert!(comp.aggregation_correct);
        assert_eq!(comp.packets_at_server, base.packets_at_server);
        assert!(comp.bytes_at_server_link < base.bytes_at_server_link);
        assert!(comp.goodput_gbps >= base.goodput_gbps);
    }

    #[test]
    fn nic_plus_switch_beats_either_alone() {
        let config = MlAggWorkloadConfig { sparsity: 0.5, ..cfg(32, 4) };
        let mut nic_only = NetworkSetup::new(vec![sparse_plane(32, 4)]);
        let nic = run_aggregation_scenario(&mut nic_only, &config);
        let mut switch_only = NetworkSetup::new(vec![mlagg_plane(32, 4)]);
        let switch = run_aggregation_scenario(&mut switch_only, &config);
        let mut both = NetworkSetup::new(vec![sparse_plane(32, 4), mlagg_plane(32, 4)]);
        let combo = run_aggregation_scenario(&mut both, &config);
        assert!(combo.aggregation_correct);
        assert!(combo.goodput_gbps >= nic.goodput_gbps);
        assert!(combo.goodput_gbps >= switch.goodput_gbps * 0.95);
    }
}
