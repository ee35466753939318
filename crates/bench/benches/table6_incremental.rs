//! Table 6 — incremental vs monolithic deployment: affected devices, affected
//! co-resident INC programs, affected pods (traffic) per add/remove step.
//!
//! Asserted shape: on every step incremental deployment touches no more
//! devices, co-resident programs or pods than monolithic redeployment, and
//! strictly fewer of each on the `-MLAgg1` removal.

use clickinc_apps::table6_steps;
use clickinc_blockdag::{build_block_dag, BlockConfig};
use clickinc_frontend::compile_source;
use clickinc_placement::{place, PlacementConfig, PlacementNetwork, ResourceLedger};
use clickinc_synthesis::incremental::{add_user_program_monolithic, DeploymentDelta, DeviceImages};
use clickinc_synthesis::{
    add_user_program, base_program, isolate_user_program, remove_user_program,
};
use clickinc_topology::{reduce_for_traffic, NodeId, Topology};
use std::collections::BTreeMap;

fn main() {
    println!("== Table 6: impact of incremental vs monolithic deployment ==");
    let topo = Topology::emulation_topology();
    let pod_of: BTreeMap<NodeId, Option<usize>> =
        topo.nodes().iter().map(|n| (n.id, n.pod)).collect();
    let base = base_program();

    let mut inc_images = DeviceImages::default();
    let mut mono_images = DeviceImages::default();
    let mut inc_ledger = ResourceLedger::new();
    let mut mono_ledger = ResourceLedger::new();
    let mut user_id = 1;
    // affected pods summed over the steps: incremental, monolithic
    let mut pods = (0, 0);
    let mut removal_checked = false;
    let mut report = |label: &str, di: &DeploymentDelta, dm: &DeploymentDelta| {
        let counts = |d: &DeploymentDelta| [d.device_count(), d.program_count(), d.pod_count()];
        let (inc, mono) = (counts(di), counts(dm));
        println!(
            "{:<10} {:>14} {:>12} {:>12}   {:>14} {:>12} {:>12}",
            label, inc[0], inc[1], inc[2], mono[0], mono[1], mono[2]
        );
        assert!(inc.iter().zip(&mono).all(|(i, m)| i <= m), "{label}: {inc:?} vs {mono:?}");
        if label == "-MLAgg1" {
            assert!(inc.iter().zip(&mono).all(|(i, m)| i < m), "{label}: {inc:?} vs {mono:?}");
            removal_checked = true;
        }
        pods.0 += inc[2];
        pods.1 += mono[2];
    };

    println!(
        "{:<10} {:>14} {:>12} {:>12}   {:>14} {:>12} {:>12}",
        "Step", "ID devices", "ID INC", "ID pods", "MD devices", "MD INC", "MD pods"
    );
    for step in table6_steps() {
        match (step.request, step.remove) {
            (Some(request), _) => {
                let ir = compile_source(&request.user, &request.source).expect("compiles");
                let isolated = isolate_user_program(&ir, &request.user, user_id);
                user_id += 1;
                let dag = build_block_dag(&isolated, &BlockConfig::default());
                let sources: Vec<NodeId> =
                    request.sources.iter().map(|s| topo.find(s).expect("host")).collect();
                let dst = topo.find(&request.destination).expect("host");
                let reduced = reduce_for_traffic(&topo, &sources, dst, &[]);

                let plan_inc = place(
                    &isolated,
                    &dag,
                    &PlacementNetwork::from_reduced(&topo, &reduced, &inc_ledger),
                    &PlacementConfig::default(),
                );
                let plan_mono = place(
                    &isolated,
                    &dag,
                    &PlacementNetwork::from_reduced(&topo, &reduced, &mono_ledger),
                    &PlacementConfig::default(),
                );
                match (plan_inc, plan_mono) {
                    (Ok(pi), Ok(pm)) => {
                        for a in pi.assignments.iter().filter(|a| !a.is_empty()) {
                            for m in &a.members {
                                inc_ledger.consume(*m, a.demand);
                            }
                        }
                        for a in pm.assignments.iter().filter(|a| !a.is_empty()) {
                            for m in &a.members {
                                mono_ledger.consume(*m, a.demand);
                            }
                        }
                        let di = add_user_program(&mut inc_images, &base, &isolated, &pi, &pod_of);
                        let dm = add_user_program_monolithic(
                            &mut mono_images,
                            &base,
                            &isolated,
                            &pm,
                            &pod_of,
                        );
                        report(step.label, &di, &dm);
                    }
                    (i, m) => println!(
                        "{:<10} placement failed (incremental ok: {}, monolithic ok: {})",
                        step.label,
                        i.is_ok(),
                        m.is_ok()
                    ),
                }
            }
            (None, Some(user)) => {
                let di = remove_user_program(&mut inc_images, user, &pod_of);
                // monolithic removal recompiles every device that hosted any
                // program co-resident with the removed one
                let mut dm = remove_user_program(&mut mono_images, user, &pod_of);
                for (device, image) in &mono_images.images {
                    if !image.owners().is_empty() {
                        dm.affected_devices.insert(*device);
                        if let Some(Some(pod)) = pod_of.get(device) {
                            dm.affected_pods.insert(*pod);
                        }
                        for o in image.owners() {
                            dm.affected_programs.insert(o);
                        }
                    }
                }
                report(step.label, &di, &dm);
            }
            _ => unreachable!(),
        }
    }
    assert!(removal_checked, "the -MLAgg1 removal ran");
    println!("(ID = incremental deployment, MD = monolithic redeployment; paper: ID touches 50-75% less traffic)");
    println!(
        "affected pods, ID/MD over all steps: {}/{} ({:.0}% less; this topology does not reach the paper's 50-75%)",
        pods.0,
        pods.1,
        100.0 * (1.0 - pods.0 as f64 / pods.1 as f64)
    );
}
