//! Emitted device code must mean what the emulator runs: the emulator gates
//! a tenant's slice on the hoisted `meta.inc_user == id` precondition, so
//! every tenant-owned instruction of every merged device image — and every
//! statement the backends emit from it — must test that id too, or the
//! emitted programs run tenant instructions on everyone's packets.

use clickinc::device::DeviceKind;
use clickinc::ir::{CmpOp, Operand, Predicate};
use clickinc::lang::templates::{kvs_template, KvsParams};
use clickinc::topology::{NodeId, Topology};
use clickinc::{Controller, ServiceRequest};
use std::collections::BTreeSet;

fn tenant_match(id: i64) -> Predicate {
    Predicate::new(Operand::Meta("inc_user".into()), CmpOp::Eq, Operand::int(id))
}

/// The field names an emitted program declares in its INC header: the block
/// every backend opens with `inc_h` / `inc_header_t` / `inc_header` /
/// `inc_packet_t` and closes with a brace in column 0.
fn inc_header_fields(source: &str) -> Vec<&str> {
    let opens = |l: &str| {
        ["header inc_h {", "struct inc_header", "struct inc_packet_t"]
            .iter()
            .any(|o| l.starts_with(o))
    };
    // `name : bits;` in NPL, `type name;` everywhere else
    fn field(line: &str) -> Option<&str> {
        let decl = line.trim().strip_suffix(';')?;
        decl.split_once(" : ").map(|(name, _)| name).or_else(|| decl.rsplit(' ').next())
    }
    let block = source.lines().skip_while(|l| !opens(l)).skip(1);
    block.take_while(|l| !l.starts_with('}')).filter_map(field).collect()
}

fn two_kvs_tenants_on_a_shared_device(topology: Topology) {
    let mut controller = Controller::new(topology);
    for user in ["kvs_a", "kvs_b"] {
        let template = kvs_template(user, KvsParams { cache_depth: 1000, ..Default::default() });
        controller
            .deploy(ServiceRequest::from_template(template, &["pod0a"], "pod2b"))
            .expect("kvs deploys");
    }
    let devices = |user| controller.devices_of(user).into_iter().collect::<BTreeSet<NodeId>>();
    let shared: Vec<NodeId> = devices("kvs_a").intersection(&devices("kvs_b")).copied().collect();
    assert!(!shared.is_empty(), "the two tenants share a device");
    let id_of = |owner: &str| controller.numeric_id_of(owner).expect("owners are active tenants");
    assert_ne!(id_of("kvs_a"), id_of("kvs_b"));

    // the images: every owner-carrying instruction tests its owner's id,
    // exactly once
    let mut owned = 0usize;
    for (device, image) in &controller.images().images {
        assert!(image.precondition.is_none());
        for instr in image.instructions.iter().filter(|i| !i.is_base()) {
            let guard = instr.guard.as_ref().unwrap_or_else(|| {
                panic!("{device:?}: tenant instruction `{instr}` runs unguarded")
            });
            for owner in &instr.owners {
                let matches = guard.all.iter().filter(|p| **p == tenant_match(id_of(owner)));
                assert_eq!(matches.count(), 1, "{device:?}: `{instr}` of {owner}");
                owned += 1;
            }
        }
    }
    assert!(owned > 0);
    assert!(shared.iter().all(|d| controller.images().images[d].owners().len() == 2));

    // the emitted code, as of each tenant's commit
    for user in ["kvs_a", "kvs_b"] {
        let deployment = controller.deployment(user).expect("active");
        assert!(!deployment.device_programs.is_empty());
        for (device, program) in &deployment.device_programs {
            let mut annotated = 0usize;
            for line in program.source.lines() {
                let Some((_, owners)) = line.split_once("// @owner: ") else { continue };
                for owner in owners.trim().split(',') {
                    let test = format!("(meta.inc_user == {})", id_of(owner));
                    assert!(line.contains(&test), "{device:?} {}: `{line}`", program.language);
                    annotated += 1;
                }
            }
            // every backend, annotated or not: one tenant-id test per
            // tenant-owned instruction of the image the code was emitted from
            // (kvs_b committed last, so its programs are the current images),
            // and an INC header of exactly the fields the data plane has
            // (`inc_user`, `step`, the image's declared headers)
            if user == "kvs_b" {
                let image = &controller.images().images[device];
                let mut declared = vec!["inc_user", "step"];
                declared.extend(image.headers.iter().map(|h| h.name.as_str()));
                for kind in DeviceKind::PROGRAMMABLE {
                    // only P4 devices host these tenants: emit the image for
                    // every target (the HLS packet record also carries the
                    // kernel's `drop` verdict)
                    let emitted = clickinc::backend::generate(kind, image);
                    let verdict = emitted.language.ends_with("HLS").then_some("drop");
                    let expected: Vec<&str> = declared.iter().copied().chain(verdict).collect();
                    assert_eq!(inc_header_fields(&emitted.source), expected, "{kind}");
                }
                for owner in image.owners() {
                    let instrs =
                        image.instructions.iter().filter(|i| i.owners.contains(&owner)).count();
                    let test = format!("(meta.inc_user == {})", id_of(&owner));
                    let tests = program.source.matches(&test).count();
                    assert_eq!(tests, instrs, "{device:?} {}: {owner}", program.language);
                }
                assert!(annotated > 0 || !program.language.starts_with("P4"));
            }
        }
    }
}

#[test]
fn tenant_instructions_test_their_tenant_id_on_the_all_tofino_topology() {
    two_kvs_tenants_on_a_shared_device(Topology::emulation_topology_all_tofino());
}

#[test]
fn tenant_instructions_test_their_tenant_id_on_the_heterogeneous_topology() {
    two_kvs_tenants_on_a_shared_device(Topology::emulation_topology());
}
