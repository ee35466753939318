//! Multi-user program sets: the instances of Tables 3 and 6.

use clickinc::ServiceRequest;
use clickinc_lang::templates::{
    dqacc_template, kvs_template, mlagg_template, DqAccParams, KvsParams, MlAggParams,
};

fn kvs(name: &str, depth: u32) -> clickinc_lang::templates::Template {
    kvs_template(name, KvsParams { cache_depth: depth, ..Default::default() })
}

fn mlagg(name: &str, dims: u32, is_float: bool) -> clickinc_lang::templates::Template {
    mlagg_template(
        name,
        MlAggParams { dims, num_aggregators: 2048, is_float, ..Default::default() },
    )
}

fn dqacc(name: &str, depth: u32) -> clickinc_lang::templates::Template {
    dqacc_template(name, DqAccParams { depth, ways: 4 })
}

/// The six program instances of Table 3, with the traffic endpoints the paper
/// lists (pods of the Fig. 11 emulation topology).
pub fn table3_requests() -> Vec<ServiceRequest> {
    vec![
        ServiceRequest::from_template(kvs("KVS0", 5000), &["pod0a", "pod1a"], "pod2b"),
        ServiceRequest::from_template(dqacc("DQAcc0", 5000), &["pod0a", "pod0b"], "pod2b"),
        ServiceRequest::from_template(mlagg("MLAgg0", 24, false), &["pod0b", "pod1b"], "pod2b"),
        ServiceRequest::from_template(dqacc("DQAcc1", 5000), &["pod0b", "pod1a"], "pod2b"),
        ServiceRequest::from_template(mlagg("MLAgg1", 24, false), &["pod1a", "pod1b"], "pod2b"),
        ServiceRequest::from_template(kvs("KVS1", 5000), &["pod0b", "pod1b"], "pod2b"),
    ]
}

/// One step of the Table 6 incremental-vs-monolithic comparison.
#[derive(Debug, Clone)]
pub struct Table6Step {
    /// Row label ("+KVS", "+DQAcc", "+MLAgg1", "+MLAgg2", "-MLAgg1").
    pub label: &'static str,
    /// The request to add (None for the removal step).
    pub request: Option<ServiceRequest>,
    /// The user to remove (None for the add steps).
    pub remove: Option<&'static str>,
}

/// The deployment sequence of Table 6 with the paper's resource-intensive
/// configurations: a 100K-entry KVS, a 16-dimension floating-point MLAgg1 (its
/// float arithmetic needs the FPGA-backed devices) and a 16-dimension integer
/// MLAgg2.
pub fn table6_steps() -> Vec<Table6Step> {
    vec![
        Table6Step {
            label: "+KVS",
            request: Some(ServiceRequest::from_template(
                kvs("KVS", 100_000),
                &["pod0a", "pod0b", "pod1a"],
                "pod2a",
            )),
            remove: None,
        },
        Table6Step {
            label: "+DQAcc",
            request: Some(ServiceRequest::from_template(
                dqacc("DQAcc", 5000),
                &["pod1a", "pod1b"],
                "pod2b",
            )),
            remove: None,
        },
        Table6Step {
            label: "+MLAgg1",
            request: Some(ServiceRequest::from_template(
                mlagg("MLAgg1", 16, true),
                &["pod1a", "pod1b"],
                "pod2b",
            )),
            remove: None,
        },
        Table6Step {
            label: "+MLAgg2",
            request: Some(ServiceRequest::from_template(
                mlagg("MLAgg2", 16, false),
                &["pod0a", "pod0b"],
                "pod2a",
            )),
            remove: None,
        },
        Table6Step { label: "-MLAgg1", request: None, remove: Some("MLAgg1") },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use clickinc::Controller;
    use clickinc_topology::Topology;

    #[test]
    fn table3_instances_deploy_on_the_all_tofino_emulation_topology() {
        let mut controller = Controller::new(Topology::emulation_topology_all_tofino());
        for request in table3_requests() {
            let user = request.user.clone();
            let deployment =
                controller.deploy(request).unwrap_or_else(|e| panic!("{user} should deploy: {e}"));
            assert!(!deployment.plan.devices_used().is_empty());
            assert!(deployment.plan.solve_time.as_secs_f64() < 10.0, "paper: < 10 s for all six");
        }
        assert_eq!(controller.active_users().len(), 6);
    }

    #[test]
    fn table6_sequence_deploys_on_the_heterogeneous_topology() {
        let mut controller = Controller::new(Topology::emulation_topology());
        for step in table6_steps() {
            match (step.request, step.remove) {
                (Some(request), _) => {
                    let user = request.user.clone();
                    controller
                        .deploy(request)
                        .unwrap_or_else(|e| panic!("{} ({user}) should deploy: {e}", step.label));
                }
                (None, Some(user)) => {
                    controller.remove(user).expect("removal succeeds");
                }
                _ => unreachable!(),
            }
        }
        // MLAgg1 was removed again; the other three remain
        assert_eq!(controller.active_users().len(), 3);
    }
}
