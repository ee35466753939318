//! Quickstart: write a ClickINC program, dry-run it with `plan`, commit it
//! through the `ClickIncService`, and inspect what the toolchain produced.
//!
//! Run with: `cargo run --example quickstart`

use clickinc::topology::Topology;
use clickinc::{ClickIncService, ServiceRequest};

fn main() {
    // The count-min-sketch module program of the paper's Fig. 1, written in the
    // Python-style ClickINC language.
    let source = "\
mem = Sketch(type=\"count-min\", rows=3, cols=65536, w=32)
vals = list()
for i in range(3):
    vals.append(count(mem, hdr.key, 1))
relt = min(vals)
hdr.estimate = relt
forward()
";
    println!("=== ClickINC quickstart ===\n");
    println!("user program ({} LoC):\n{source}", clickinc::lang::lines_of_code(source));

    // Serve the paper's Fig. 11 emulation topology.
    let topology = Topology::emulation_topology();
    let service = ClickIncService::new(topology).expect("default engine config is valid");

    // Describe the deployment with the validating builder: traffic flows
    // from pod0(a) to pod2(b).
    let request = ServiceRequest::builder("heavyhitter_0")
        .source(source)
        .from_("pod0a")
        .to("pod2b")
        .build()
        .expect("well-formed request");

    // Plan: a pure dry-run — nothing is booked or installed yet.
    let plan = service.plan(&request).expect("planning succeeds");
    println!("compiled to {} IR instructions", plan.program().len());
    println!("grouped into {} blocks", plan.dag().len());
    println!(
        "placement gain: {:.4} (solve time {:.2?})",
        plan.placement().gain,
        plan.placement().solve_time
    );
    for assignment in plan.placement().assignments.iter().filter(|a| !a.is_empty()) {
        println!(
            "  -> {}: {} instructions in {} pipeline stages (steps {}..{})",
            assignment.device,
            assignment.instrs.len(),
            assignment.stages_used,
            assignment.step_range.0,
            assignment.step_range.1,
        );
    }
    println!(
        "predicted remaining resources after commit: {:.1}%",
        plan.predicted_remaining_ratio() * 100.0
    );

    // Commit: book resources, install snippets, mirror onto the engine.
    let tenant = service.commit(plan).expect("commit succeeds");
    println!("\ncommitted as tenant `{}` (numeric id {})", tenant.user(), tenant.numeric_id());

    // Device code is emitted on read: the tenant's own code (the base program
    // with only its slices), and each device's whole code as it is loaded.
    println!("\ngenerated device programs (tenant's own code / whole device):");
    {
        let controller = service.controller();
        let deployment = controller.deployment("heavyhitter_0").expect("tenant is active");
        for (node, program) in &deployment.device_programs {
            let device =
                controller.device_program(*node).expect("the tenant's device has an image");
            println!(
                "  {} ({}): {} / {} lines of {}",
                controller.topology().node(*node).name,
                controller.topology().node(*node).kind,
                program.lines_of_code(),
                device.lines_of_code(),
                program.language
            );
        }
    }
    println!(
        "\nremaining network resources: {:.1}% (the plan's prediction was exact)",
        service.remaining_resource_ratio() * 100.0
    );
}
