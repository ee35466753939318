//! Table 4 — DP vs SMT-style placement on a chain of four Tofino switches
//! (the default 12-stage model): dependency depth, per-device stages and
//! instructions, solve time.  Asserts the table's claim for every app: the
//! exhaustive search ran to the end and the DP reached its optimal gain.

use clickinc_blockdag::{build_block_dag, BlockConfig};
use clickinc_frontend::compile_source;
use clickinc_lang::templates::{
    dqacc_template, kvs_template, mlagg_template, DqAccParams, KvsParams, MlAggParams,
};
use clickinc_placement::{
    place, place_smt, PlacementConfig, PlacementNetwork, ResourceLedger, SmtConfig,
};
use clickinc_topology::{reduce_for_traffic, Topology};
use std::time::Duration;

fn main() {
    println!("== Table 4: placement plans from the DP and SMT-style algorithms ==");
    println!(
        "(chain of 4 12-stage Tofino switches; paper solve times: SMT 160-961 s, DP 0.08-1.3 s)"
    );
    println!(
        "{:<7} {:>5} {:<14} {:<18} {:>12} {:<14} {:<18} {:>12}",
        "App", "dep", "DP stages", "DP instrs", "DP time", "SMT stages", "SMT instrs", "SMT time"
    );
    let topo = Topology::chain(4, clickinc_device::DeviceKind::Tofino);
    let servers = topo.servers();
    let reduced = reduce_for_traffic(&topo, &[servers[0]], servers[1], &[]);
    let apps = [
        ("KVS", kvs_template("kvs", KvsParams::default()).source),
        ("MLAgg", mlagg_template("mlagg", MlAggParams { dims: 16, ..Default::default() }).source),
        // ways=4 keeps the rolling-cache critical path within one Tofino pipeline
        // under this model's stricter predication-depth accounting
        ("DQAcc", dqacc_template("dqacc", DqAccParams { depth: 5000, ways: 4 }).source),
    ];
    for (name, source) in apps {
        let ir = compile_source(name, &source).expect("compiles");
        let dag = build_block_dag(&ir, &BlockConfig::default());
        let net = PlacementNetwork::from_reduced(&topo, &reduced, &ResourceLedger::new());

        let dp = place(&ir, &dag, &net, &PlacementConfig::default()).expect("DP places");
        let (smt, stats) = place_smt(
            &ir,
            &dag,
            &net,
            &SmtConfig { time_limit: Duration::from_secs(60), ..Default::default() },
        )
        .expect("SMT places");
        assert!(stats.exhausted, "{name}: the SMT-style search timed out");
        assert!(
            (dp.gain - smt.gain).abs() < 1e-9,
            "{name}: DP gain {} differs from the exhaustive optimum {}",
            dp.gain,
            smt.gain
        );
        println!(
            "{:<7} {:>5} {:<14} {:<18} {:>12} {:<14} {:<18} {:>12}",
            name,
            ir.dependency_depth(),
            format!("{:?}", dp.stages_per_device()),
            format!("{:?}", dp.instructions_per_device()),
            format!("{:.2?}", dp.solve_time),
            format!("{:?}", smt.stages_per_device()),
            format!("{:?}", smt.instructions_per_device()),
            format!("{:.2?}", smt.solve_time),
        );
    }
    println!(
        "(paper: the DP's plans are as good as SMT's; here the DP's gain equals the \
         exhaustive optimum on every app)"
    );
}
