//! Workspace-wiring smoke test: every façade path a downstream user starts
//! from must resolve, and one template request must deploy end-to-end through
//! frontend → blockdag → placement → synthesis → backend → emulator.

use clickinc::topology::Topology;
use clickinc::{Controller, ServiceRequest};

#[test]
fn facade_reexports_resolve() {
    // The subsystem re-exports under `clickinc::*` point at the same crates
    // the workspace links directly; a type from one must be accepted by the
    // other.
    let model: clickinc::device::DeviceModel = clickinc_device::DeviceModel::tofino();
    let plane = clickinc::emulator::DevicePlane::new("SW0", model);
    assert!(!plane.has_program());
    assert!(clickinc::lang::lines_of_code("forward()\n") >= 1);
    let _cfg: clickinc::blockdag::BlockConfig = clickinc_blockdag::BlockConfig::default();
    let _ir: clickinc::ir::IrProgram = clickinc_ir::IrProgram::new("smoke");
}

#[test]
fn kvs_template_deploys_end_to_end_on_the_emulation_topology() {
    let mut controller = Controller::new(Topology::emulation_topology_all_tofino());
    let template = clickinc::lang::templates::kvs_template(
        "kvs_smoke",
        clickinc::lang::templates::KvsParams::default(),
    );
    let deployment = controller
        .deploy(ServiceRequest::from_template(template, &["pod0a"], "pod2b"))
        .expect("kvs template deploys")
        .clone();

    assert!(!deployment.plan.devices_used().is_empty(), "placement chose at least one device");
    assert!(!deployment.program.is_empty(), "the isolated IR is non-empty");
    assert!(!deployment.device_programs.is_empty(), "backend emitted device programs");
    assert_eq!(controller.active_users(), vec!["kvs_smoke"]);
    assert_eq!(controller.numeric_id_of("kvs_smoke"), Some(deployment.numeric_id));

    // A data plane built from the deployment's hops holds the program.
    assert!(!controller.devices_of("kvs_smoke").is_empty());
    assert!(controller.tenant_hops("kvs_smoke").iter().any(|hop| hop.plane().has_program()));

    // And removal releases the resources again.
    controller.remove("kvs_smoke").expect("removal succeeds");
    assert!(controller.active_users().is_empty());
    assert!((controller.remaining_resource_ratio() - 1.0).abs() < 1e-9);
}
