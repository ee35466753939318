//! Fig. 14 — placement (compile) time versus the number of devices, with and
//! without block construction, with and without pruning, DP vs SMT-style.
//! Block construction is charged to the columns that use it: each DAG's
//! `build_block_dag` time is printed and added to its pruned DP time, and the
//! closing line of (a,b) says where "block + build" beats "no-block + build".

use clickinc_blockdag::{build_block_dag, BlockConfig};
use clickinc_frontend::compile_source;
use clickinc_lang::templates::{mlagg_template, MlAggParams};
use clickinc_placement::{
    place, place_smt, PlacementConfig, PlacementNetwork, ResourceLedger, SmtConfig,
};
use clickinc_topology::{reduce_for_traffic, Topology};
use std::time::{Duration, Instant};

fn main() {
    let source = mlagg_template("mlagg", MlAggParams { dims: 12, ..Default::default() }).source;
    let ir = compile_source("mlagg", &source).expect("compiles");
    // best of five: a single build is tens of microseconds, inside timer noise
    let build = |config: &BlockConfig| {
        let time = |_| {
            let start = Instant::now();
            let dag = build_block_dag(&ir, config);
            (start.elapsed(), dag)
        };
        (0..5).map(time).min_by_key(|(elapsed, _)| *elapsed).expect("five runs")
    };
    let (build_blocks, dag_blocks) = build(&BlockConfig::default());
    let (build_noblocks, dag_noblocks) =
        build(&BlockConfig { enable_merging: false, ..Default::default() });

    println!("== Fig. 14(a,b): DP placement time vs number of devices (MLAgg) ==");
    println!(
        "block construction over {} instructions: {} merged blocks in {build_blocks:.2?}, \
         {} unmerged groups in {build_noblocks:.2?}",
        ir.len(),
        dag_blocks.len(),
        dag_noblocks.len()
    );
    println!(
        "{:>8} {:>18} {:>18} {:>18} {:>18} {:>18} {:>18}",
        "devices",
        "DP block+prune",
        "DP block no-prune",
        "DP no-block prune",
        "DP no-block no-prune",
        "block+prune+build",
        "no-block+prune+build"
    );
    let (mut wins, mut losses) = (Vec::new(), Vec::new());
    for devices in [1usize, 2, 4, 7, 10] {
        let topo = Topology::chain(devices, clickinc_device::DeviceKind::Tofino);
        let servers = topo.servers();
        let reduced = reduce_for_traffic(&topo, &[servers[0]], servers[1], &[]);
        let net = PlacementNetwork::from_reduced(&topo, &reduced, &ResourceLedger::new());
        let time = |dag, pruning| {
            let cfg = PlacementConfig { enable_pruning: pruning, ..Default::default() };
            let start = Instant::now();
            let _ = place(&ir, dag, &net, &cfg);
            start.elapsed()
        };
        let (block, noblock) = (time(&dag_blocks, true), time(&dag_noblocks, true));
        println!(
            "{:>8} {:>18.2?} {:>18.2?} {:>18.2?} {:>18.2?} {:>18.2?} {:>18.2?}",
            devices,
            block,
            time(&dag_blocks, false),
            noblock,
            time(&dag_noblocks, false),
            block + build_blocks,
            noblock + build_noblocks,
        );
        if block + build_blocks < noblock + build_noblocks { &mut wins } else { &mut losses }
            .push(devices);
    }
    println!(
        "(paper Fig. 14(a): blocks make placement cheaper — with construction charged, \
         block + build beats no-block + build at {wins:?} devices and loses at {losses:?})"
    );

    println!();
    println!("== Fig. 14(c): SMT-style solver time vs number of devices ==");
    println!(
        "{:>8} {:>16} {:>16} {:>16}",
        "devices", "SMT block", "SMT w/o block", "nodes (block)"
    );
    for devices in [1usize, 2, 3, 4] {
        let topo = Topology::chain(devices, clickinc_device::DeviceKind::Tofino);
        let servers = topo.servers();
        let reduced = reduce_for_traffic(&topo, &[servers[0]], servers[1], &[]);
        let net = PlacementNetwork::from_reduced(&topo, &reduced, &ResourceLedger::new());
        let cfg = SmtConfig { time_limit: Duration::from_secs(20), ..Default::default() };
        let start = Instant::now();
        let with_block = place_smt(&ir, &dag_blocks, &net, &cfg);
        let t_block = start.elapsed();
        let start = Instant::now();
        let _ = place_smt(&ir, &dag_noblocks, &net, &cfg);
        let t_noblock = start.elapsed();
        let nodes = with_block.map(|(_, s)| s.nodes_explored).unwrap_or(0);
        println!("{devices:>8} {t_block:>16.2?} {t_noblock:>16.2?} {nodes:>16}");
    }
    println!(
        "(paper: the DP time grows linearly with device count; the SMT time grows exponentially)"
    );
}
