//! Emitted device code must mean what the emulator runs: the emulator gates
//! a tenant's slice on the hoisted `meta.inc_user == id` precondition, so
//! every tenant-owned instruction of every merged device image — and every
//! statement the backends emit from it — must test that id too, or the
//! emitted programs run tenant instructions on everyone's packets.  Nor may
//! two tenants' names meet in emitted code: user ids are identifiers, so
//! every table and register a device image declares is declared once.  Nor
//! may isolation fold two of one tenant's object names into one.

use clickinc::device::DeviceKind;
use clickinc::ir::{CmpOp, Operand, Predicate, Severity};
use clickinc::lang::templates::{
    count_min_sketch, dqacc_template, kvs_template, mlagg_template, DqAccParams, KvsParams,
    MlAggParams,
};
use clickinc::topology::{NodeId, Topology};
use clickinc::{
    ClickIncError, ClickIncService, Controller, MaxTenants, RequestError, ServiceRequest,
};
use std::collections::{BTreeMap, BTreeSet};

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

fn kvs_request(user: &str) -> ServiceRequest {
    let template = kvs_template(user, KvsParams { cache_depth: 1000, ..Default::default() });
    ServiceRequest::from_template(template, &["pod0a"], "pod2b")
}

/// Emitted code spells a tenant's names as identifiers, mapping every other
/// character to `_`: `a-b` and `a_b` would both declare `table a_b_cache`
/// on a shared switch.  Such ids are request errors — refused before the
/// admission gate, so a full house never queues them.
#[test]
fn user_ids_that_are_not_identifiers_are_refused_and_never_queued() {
    let service =
        ClickIncService::new(Topology::emulation_topology_all_tofino()).expect("service starts");
    service.set_admission_policy(MaxTenants { max_tenants: 0 });
    for user in ["a-b", "_a", "0a", "a b"] {
        let refused = service.deploy_or_queue(kvs_request(user)).map(|_| ()).unwrap_err();
        let expected = RequestError::InvalidUser(user.to_string());
        assert!(
            matches!(&refused, ClickIncError::InvalidRequest(e) if *e == expected),
            "{user}: {refused}"
        );
    }
    assert_eq!(service.retry_queue_len(), 0, "request errors are never queued");
    // a valid id at the full house is an admission refusal, and queues
    assert!(service.deploy_or_queue(kvs_request("a_b")).is_err());
    assert_eq!(service.queued_users(), ["a_b"]);
    service.finish();

    let mut controller = Controller::new(Topology::emulation_topology_all_tofino());
    for user in ["a_b", "kvs0"] {
        controller.deploy(kvs_request(user)).unwrap_or_else(|e| panic!("{user}: {e}"));
    }
}

/// The `table` and `Register` names a P4 program declares, with counts.
fn p4_declarations(source: &str) -> BTreeMap<&str, usize> {
    let mut counts = BTreeMap::new();
    for line in source.lines() {
        let name = if let Some(rest) = line.strip_prefix("table ") {
            rest.split_whitespace().next()
        } else if line.starts_with("Register<") {
            line.rsplit(' ').next().and_then(|n| n.strip_suffix(';'))
        } else {
            None
        };
        if let Some(name) = name {
            *counts.entry(name).or_default() += 1;
        }
    }
    counts
}

/// In a KVS / MLAgg / CMS / DQAcc fill of the all-Tofino topology, every
/// emitted P4 program declares each of its tables and registers once.
#[test]
fn a_template_fill_declares_every_table_and_register_once() {
    let mut controller = Controller::new(Topology::emulation_topology_all_tofino());
    let sources = ["pod0a", "pod1a", "pod0b", "pod1b"];
    for i in 0..16 {
        let user = format!("u{i}");
        let template = match i % 4 {
            0 => kvs_template(&user, KvsParams::default()),
            1 => mlagg_template(&user, MlAggParams { dims: 8, ..Default::default() }),
            2 => count_min_sketch(&user, 3, 1024),
            _ => dqacc_template(&user, DqAccParams::default()),
        };
        let request = ServiceRequest::from_template(template, &[sources[i % 4]], "pod2b");
        controller.deploy(request).unwrap_or_else(|e| panic!("{user}: {e}"));
    }
    let mut declared = 0;
    for (device, image) in &controller.images().images {
        let kind = controller.topology().node(*device).kind;
        if !matches!(kind, DeviceKind::Tofino | DeviceKind::Tofino2) {
            continue;
        }
        let program = clickinc::backend::generate(kind, image);
        for (name, count) in p4_declarations(&program.source) {
            assert_eq!(count, 1, "{device:?} declares `{name}` {count} times");
            declared += 1;
        }
    }
    assert!(declared > 16, "the fill declares tables and registers");
}

/// Isolation prefixes a tenant's object names with `{user}_` and leaves a
/// name that already starts so alone: deployed as `u`, sketches `mem` and
/// `u_mem` would both become `u_mem`, one sketch both counts hit.  The plan
/// refuses that as an isolation error; under another id the program deploys
/// with two sketches.
#[test]
fn object_names_that_isolation_would_merge_are_refused() {
    let sketch = "Sketch(type=\"count-min\", rows=1, cols=64, w=32)";
    let source = format!(
        "mem = {sketch}\nu_mem = {sketch}\n\
         first = count(mem, hdr.key, 1)\nsecond = count(u_mem, hdr.key, 1)\nforward()\n"
    );
    let mut controller = Controller::new(Topology::emulation_topology_all_tofino());
    let refused = controller.deploy(ServiceRequest::new("u", &source, &["pod0a"], "pod2b"));
    let Err(ClickIncError::Verification { user, diagnostics }) = refused.map(|_| ()) else {
        panic!("a merged object must be refused at plan time");
    };
    assert_eq!(user, "u");
    let errors: Vec<_> = diagnostics.at(Severity::Error).collect();
    assert_eq!(errors.len(), 1, "{errors:?}");
    assert_eq!(errors[0].pass, "isolation");
    assert_eq!(errors[0].message, "object `u_mem` is declared twice");
    assert_eq!(controller.tenant_count(), 0);

    let deployment = controller
        .deploy(ServiceRequest::new("v", &source, &["pod0a"], "pod2b"))
        .expect("no name carries the `v_` prefix");
    let objects: Vec<&str> = deployment.program.objects.iter().map(|o| o.name.as_str()).collect();
    assert_eq!(objects, ["v_mem", "v_u_mem"]);
}
