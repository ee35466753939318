//! Split plans: the `split-execution` verifier finding names every slice that
//! reads a temporary only another device's slice defines, and the ignored
//! reproducer below is what that costs — a plan cut across devices does not
//! compute what the unsplit program computes (ROADMAP, "split plans must mean
//! what unsplit plans mean").

use clickinc::topology::Topology;
use clickinc::{ClickIncService, Controller, ServiceRequest};
use clickinc_device::DeviceModel;
use clickinc_emulator::packet::gradient_packet;
use clickinc_emulator::{DevicePlane, PacketAction};
use clickinc_lang::templates::{
    count_min_sketch, dqacc_template, kvs_template, mlagg_template, DqAccParams, KvsParams,
    MlAggParams,
};

#[test]
fn only_the_split_mlagg_plan_carries_split_execution_findings() {
    let service = ClickIncService::new(Topology::emulation_topology_all_tofino())
        .expect("engine config is valid");
    // the programs `examples/verify_programs.rs` plans, pod0a → pod2b
    let mlagg = MlAggParams { dims: 32, num_workers: 4, num_aggregators: 4096, is_float: false };
    let cases: Vec<(&str, String)> = vec![
        (
            "kvs_srv",
            kvs_template("kvs_srv", KvsParams { cache_depth: 2000, ..Default::default() }).source,
        ),
        ("mlagg", mlagg_template("mlagg", mlagg).source),
        ("dqacc", dqacc_template("dqacc", DqAccParams::default()).source),
        ("cms", count_min_sketch("cms", 3, 512).source),
    ];
    for (user, source) in &cases {
        let request = ServiceRequest::new(*user, source, &["pod0a"], "pod2b");
        let plan = service.plan(&request).expect("template plans");
        let findings: Vec<&str> = plan
            .diagnostics()
            .iter()
            .filter(|d| d.pass == "split-execution")
            .map(|d| d.message.as_str())
            .collect();
        if *user == "mlagg" {
            assert_eq!(findings.len(), 2, "{findings:?}");
            assert!(findings[0].contains("reads 4 temporaries"), "{}", findings[0]);
            assert!(findings[1].contains("reads 24 temporaries"), "{}", findings[1]);
        } else {
            assert!(findings.is_empty(), "{user} lands on one slice: {findings:?}");
        }
    }
}

#[test]
#[ignore = "ROADMAP: split plans must mean what unsplit plans mean — no carrier for cross-slice \
            temporaries, and packet actions placed ahead of header writes that precede them"]
fn a_split_plan_means_what_the_unsplit_program_means() {
    const DIMS: usize = 32;
    let mut controller = Controller::new(Topology::emulation_topology_all_tofino());
    let sources = ["pod0a", "pod1a", "pod0b", "pod1b"];
    for i in 0..26 {
        let user = format!("u{i}");
        let template = match i % 4 {
            0 => kvs_template(&user, KvsParams::default()),
            1 => mlagg_template(
                &user,
                MlAggParams { dims: DIMS as u32, num_workers: 2, ..Default::default() },
            ),
            2 => count_min_sketch(&user, 3, 1024),
            _ => dqacc_template(&user, DqAccParams::default()),
        };
        let request = ServiceRequest::from_template(template, &[sources[i % 4]], "pod2b");
        controller.deploy(request).unwrap_or_else(|e| panic!("{user}: {e}"));
    }
    // by now the fill leaves the MLAgg of u25 no single device to land on
    let deployment = controller.deployment("u25").expect("u25 deployed");
    let mut split: Vec<DevicePlane> =
        controller.tenant_hops("u25").iter().map(|hop| hop.plane()).collect();
    assert!(split.len() >= 2, "u25 is split across devices");
    let mut whole = DevicePlane::new("whole", DeviceModel::tofino());
    whole.install(deployment.program.clone());

    let gradient: Vec<i64> = (1..=DIMS as i64).collect();
    for worker in 0..2 {
        let sent =
            gradient_packet("pod1a", "pod2b", deployment.numeric_id, 7, worker, DIMS, &gradient);
        let mut through_split = sent.clone();
        for plane in &mut split {
            if plane.process(&mut through_split).action != PacketAction::Forward {
                break;
            }
        }
        let mut through_whole = sent;
        whole.process(&mut through_whole);
        for d in 0..DIMS {
            let field = format!("data_{d}");
            assert_eq!(
                through_split.inc.get(&field),
                through_whole.inc.get(&field),
                "worker {worker}, {field}"
            );
        }
    }
}
