//! Workspace-wide integration tests: the full ClickINC pipeline from source
//! text to packets executing on the emulated data plane, across crates.

use clickinc::topology::Topology;
use clickinc::{Controller, ServiceRequest};
use clickinc_emulator::packet::{gradient_packet, kvs_request};
use clickinc_emulator::PacketAction;
use clickinc_ir::Value;
use clickinc_lang::templates::{
    dqacc_template, kvs_template, mlagg_sparse_user, mlagg_template, DqAccParams, KvsParams,
    MlAggParams,
};

#[test]
fn full_pipeline_for_all_three_applications_on_the_emulation_topology() {
    let mut controller = Controller::new(Topology::emulation_topology_all_tofino());
    let requests = vec![
        ServiceRequest::from_template(
            kvs_template("kvs_0", KvsParams { cache_depth: 2000, ..Default::default() }),
            &["pod0a", "pod1a"],
            "pod2b",
        ),
        ServiceRequest::from_template(
            mlagg_template(
                "mlagg_0",
                MlAggParams { dims: 8, num_aggregators: 1024, ..Default::default() },
            ),
            &["pod0b", "pod1b"],
            "pod2a",
        ),
        ServiceRequest::from_template(
            dqacc_template("dqacc_0", DqAccParams { depth: 2000, ways: 4 }),
            &["pod1a"],
            "pod2b",
        ),
    ];
    for request in requests {
        let user = request.user.clone();
        let d = controller.deploy(request).unwrap_or_else(|e| panic!("{user}: {e}"));
        assert!(d.plan.traffic_served >= 1.0);
        assert!(!d.device_programs.is_empty());
        // the generated device program mentions the isolated (renamed) objects
        let any_source = d.device_programs.values().next().unwrap();
        assert!(any_source.lines_of_code() > 30);
    }
    assert_eq!(controller.active_users().len(), 3);

    // the three tenants' state is isolated: no object name appears in two programs
    let mut all_objects = std::collections::BTreeSet::new();
    for user in ["kvs_0", "mlagg_0", "dqacc_0"] {
        for obj in &controller.deployment(user).unwrap().program.objects {
            assert!(all_objects.insert(obj.name.clone()), "object {} shared", obj.name);
        }
    }
}

#[test]
fn deployed_kvs_serves_cache_hits_from_the_network() {
    let mut controller = Controller::new(Topology::emulation_topology_all_tofino());
    let d = controller
        .deploy(ServiceRequest::from_template(
            kvs_template("kvs_0", KvsParams { cache_depth: 1024, ..Default::default() }),
            &["pod0a"],
            "pod2b",
        ))
        .unwrap();
    let user_numeric = d.numeric_id;
    // populate the (isolated) cache on the hosting device and issue a request
    let mut served = false;
    for hop in controller.tenant_hops("kvs_0") {
        let mut plane = hop.plane();
        if !plane.store().contains("kvs_0_cache") {
            continue;
        }
        plane.store_mut().table_write("kvs_0_cache", &[Value::Int(5)], vec![Value::Int(5005)]);
        let mut pkt = kvs_request("pod0a", "pod2b", user_numeric, 5);
        let outcome = plane.process(&mut pkt);
        assert_eq!(outcome.action, PacketAction::Back);
        assert_eq!(pkt.inc.get("vals"), Value::Int(5005));
        served = true;
        break;
    }
    assert!(served, "some device hosted the kvs_0 cache and answered the request");
}

#[test]
fn sparse_mlagg_user_program_deploys_and_aggregates_end_to_end() {
    let mut controller = Controller::new(Topology::emulation_topology());
    let dims = 8u32;
    let workers = 2u32;
    let template = mlagg_sparse_user(
        "sparse_0",
        MlAggParams { dims, num_workers: workers, num_aggregators: 512, ..Default::default() },
        dims / 4,
        4,
    );
    let d = controller
        .deploy(ServiceRequest::from_template(template, &["pod0a", "pod1a"], "pod2b"))
        .unwrap();
    assert!(!d.plan.devices_used().is_empty());

    // drive the workload through the devices hosting the aggregation state, in
    // path order, and check the released aggregate
    let mut completed = false;
    for hop in controller.tenant_hops("sparse_0") {
        let mut plane = hop.plane();
        let mut sums = vec![0i64; dims as usize];
        for w in 0..workers {
            let values: Vec<i64> =
                (0..dims as i64).map(|x| if x < 4 { 0 } else { x + 1 }).collect();
            for (i, v) in values.iter().enumerate() {
                sums[i] += v;
            }
            let mut pkt = gradient_packet("w", "ps", 1, 9, w as usize, dims as usize, &values);
            let outcome = plane.process(&mut pkt);
            if outcome.action == PacketAction::Back {
                for (i, expected) in sums.iter().enumerate() {
                    let got = pkt.inc.get(&format!("data_{i}")).as_int().unwrap_or(0);
                    assert_eq!(got, *expected, "dimension {i}");
                }
                completed = true;
            }
        }
        if completed {
            break;
        }
    }
    assert!(completed, "the deployed sparse MLAgg completed an aggregation round");
}
