//! Emitted device code must mean what the emulator runs: the emulator gates
//! a tenant's slice on the hoisted `meta.inc_user == id` precondition, so
//! every tenant-owned instruction of every merged device image — and every
//! statement the backends emit from it — must test that id too, or the
//! emitted programs run tenant instructions on everyone's packets.  Nor may
//! two tenants' names meet in emitted code: user ids are identifiers, so
//! every table and register a device image declares is declared once.  Nor
//! may isolation fold two of one tenant's object names into one, or an
//! expert program's owner annotations reach past its tenant.

use clickinc::backend::{generate, DeviceProgram};
use clickinc::device::DeviceKind;
use clickinc::emulator::packet::kvs_request as kvs_packet;
use clickinc::frontend::compile_source;
use clickinc::ir::{CmpOp, IrProgram, Operand, Predicate, Value};
use clickinc::lang::templates::{
    count_min_sketch, dqacc_template, kvs_template, mlagg_template, DqAccParams, KvsParams,
    MlAggParams,
};
use clickinc::synthesis::{base_program, extend_image, isolate_user_program, remove_user_program};
use clickinc::topology::{NodeId, Topology};
use clickinc::{
    ClickIncError, ClickIncService, Controller, MaxTenants, RequestError, ServiceRequest,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

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

    // every `// @owner:` line of emitted code tests each owner's id
    let annotated_owners = |device: NodeId, program: &DeviceProgram| {
        let mut annotated = 0usize;
        for line in program.source.lines() {
            let Some((_, owners)) = line.split_once("// @owner: ") else { continue };
            for owner in owners.trim().split(',') {
                let test = format!("(meta.inc_user == {})", id_of(owner));
                assert!(line.contains(&test), "{device:?} {}: `{line}`", program.language);
                annotated += 1;
            }
        }
        assert!(annotated > 0 || !program.language.starts_with("P4"));
    };

    // each tenant's own code
    for user in ["kvs_a", "kvs_b"] {
        let deployment = controller.deployment(user).expect("active");
        assert!(!deployment.device_programs.is_empty());
        for (device, program) in &deployment.device_programs {
            annotated_owners(*device, program);
        }
    }

    // the whole code of every device, as it is loaded
    for (device, image) in &controller.images().images {
        let program = controller.device_program(*device).expect("the device has an image");
        annotated_owners(*device, &program);
        // every backend, annotated or not: one tenant-id test per
        // tenant-owned instruction of the image, and an INC header of exactly
        // the fields the data plane has (`inc_user`, `step`, the image's
        // declared headers)
        let mut declared = vec!["inc_user", "step"];
        declared.extend(image.headers.iter().map(|h| h.name.as_str()));
        for kind in DeviceKind::PROGRAMMABLE {
            // only P4 devices host these tenants: emit the image for every
            // target (the HLS packet record also carries the kernel's `drop`
            // verdict)
            let emitted = generate(kind, image);
            let verdict = emitted.language.ends_with("HLS").then_some("drop");
            let expected: Vec<&str> = declared.iter().copied().chain(verdict).collect();
            assert_eq!(inc_header_fields(&emitted.source), expected, "{kind}");
        }
        for owner in image.owners() {
            let instrs = image.instructions.iter().filter(|i| i.owners.contains(&owner)).count();
            let test = format!("(meta.inc_user == {})", id_of(&owner));
            let tests = program.source.matches(&test).count();
            assert_eq!(tests, instrs, "{device:?} {}: {owner}", program.language);
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

/// Deploy up to `tenants` tenants `u0`, `u1`, … cycling KVS / MLAgg / CMS /
/// DQAcc templates over the four source hosts, until the first that does not
/// place; returns the deployed users.
fn template_fill(controller: &mut Controller, tenants: usize, mlagg: MlAggParams) -> Vec<String> {
    let sources = ["pod0a", "pod1a", "pod0b", "pod1b"];
    let mut deployed = Vec::new();
    for i in 0..tenants {
        let user = format!("u{i}");
        let template = match i % 4 {
            0 => kvs_template(&user, KvsParams::default()),
            1 => mlagg_template(&user, mlagg),
            2 => count_min_sketch(&user, 3, 1024),
            _ => dqacc_template(&user, DqAccParams::default()),
        };
        let request = ServiceRequest::from_template(template, &[sources[i % 4]], "pod2b");
        match controller.deploy(request) {
            Ok(_) => deployed.push(user),
            Err(ClickIncError::Placement(_)) => break,
            Err(e) => panic!("{user}: {e}"),
        }
    }
    deployed
}

/// In a KVS / MLAgg / CMS / DQAcc fill of the all-Tofino topology, every
/// emitted P4 program declares each of its tables and registers once.
#[test]
fn a_template_fill_declares_every_table_and_register_once() {
    let mut controller = Controller::new(Topology::emulation_topology_all_tofino());
    let mlagg = MlAggParams { dims: 8, ..Default::default() };
    assert_eq!(template_fill(&mut controller, 16, mlagg).len(), 16);
    let mut declared = 0;
    for (device, image) in &controller.images().images {
        let kind = controller.topology().node(*device).kind;
        if !matches!(kind, DeviceKind::Tofino | DeviceKind::Tofino2) {
            continue;
        }
        let program = generate(kind, image);
        for (name, count) in p4_declarations(&program.source) {
            assert_eq!(count, 1, "{device:?} declares `{name}` {count} times");
            declared += 1;
        }
    }
    assert!(declared > 16, "the fill declares tables and registers");
}

/// A removal strikes the tenant from the images of its own devices only: in
/// a KVS / MLAgg-32 / CMS / DQAcc fill emptied in a seeded random order,
/// every removal reports the delta, and leaves the images, that striking it
/// from every image (`remove_user_program`) does on a shadow copy.
#[test]
fn a_removal_strikes_the_tenant_from_its_devices_as_from_every_image() {
    let mlagg = MlAggParams { dims: 32, num_workers: 4, num_aggregators: 1024, is_float: false };
    for seed in [1u64, 2, 3] {
        let mut controller = Controller::new(Topology::emulation_topology_all_tofino());
        let mut users = template_fill(&mut controller, 12, mlagg);
        assert_eq!(users.len(), 12, "seed {seed}: every tenant of the fill places");
        let pod_of: BTreeMap<NodeId, Option<usize>> =
            controller.topology().nodes().iter().map(|n| (n.id, n.pod)).collect();
        let mut shadow = controller.images().clone();
        // a seeded Fisher–Yates shuffle (xorshift64)
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for i in (1..users.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            users.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let mut co_resident = 0;
        for user in &users {
            let delta = controller.remove(user).expect("the tenant is deployed");
            let expected = remove_user_program(&mut shadow, user, &pod_of);
            assert_eq!(delta, expected, "seed {seed}: removing {user}");
            assert_eq!(controller.images().images, shadow.images, "seed {seed}: removing {user}");
            co_resident += delta.program_count();
        }
        assert!(co_resident > 0, "seed {seed}: some removal leaves a co-resident running");
        assert!(controller.image_fingerprints().is_empty(), "seed {seed}: every tenant is gone");
    }
}

/// The expected own code of `user` on each device it occupies: the operator's
/// base program merged with only the tenant's slices, emitted for the device.
fn own_code(controller: &Controller, user: &str) -> BTreeMap<NodeId, DeviceProgram> {
    let base = base_program();
    let deployment = controller.deployment(user).expect("active");
    let emit = |(device, slices): (&NodeId, &Vec<Arc<IrProgram>>)| {
        let mut image = base.image();
        for slice in slices {
            extend_image(&mut image, slice, base.tail.len());
        }
        (*device, generate(controller.topology().node(*device).kind, &image))
    };
    deployment.snippets.iter().map(emit).collect()
}

/// A tenant's `device_programs` is its own code — the base program with only
/// its slices — testing its own id and naming no other tenant's id or
/// objects, and the same bytes whatever its co-residents do.  A device's
/// whole code, co-residents included, is `Controller::device_program`.
#[test]
fn a_tenant_reads_its_own_code_and_the_operator_each_devices_whole_code() {
    let mut controller = Controller::new(Topology::emulation_topology_all_tofino());
    let cms =
        ServiceRequest::from_template(count_min_sketch("cms_c", 3, 1024), &["pod0a"], "pod2b");
    let requests = [kvs_request("kvs_a"), kvs_request("kvs_b"), cms];
    let mut names: BTreeMap<String, (i64, Vec<String>)> = BTreeMap::new();
    // `users`' own code, and every device's whole code
    let check = |controller: &Controller,
                 names: &BTreeMap<String, (i64, Vec<String>)>,
                 users: &[&str]| {
        for &user in users {
            let programs = &controller.deployment(user).expect("active").device_programs;
            assert!(!programs.is_empty());
            assert_eq!(*programs.emitted(), own_code(controller, user), "{user}");
            for (device, program) in programs {
                let source = &program.source;
                for (other, (id, objects)) in names {
                    let test = format!("(meta.inc_user == {id})");
                    assert_eq!(source.contains(&test), other == user, "{device:?} {user}: {other}");
                    for object in objects.iter().filter(|_| other != user) {
                        assert!(!source.contains(object.as_str()), "{device:?} {user}: {object}");
                    }
                }
            }
        }
        assert!(!controller.images().images.is_empty());
        for (device, image) in &controller.images().images {
            let kind = controller.topology().node(*device).kind;
            assert_eq!(controller.device_program(*device), Some(generate(kind, image)));
        }
    };
    for request in requests {
        let deployment = controller.deploy(request).expect("deploys");
        let objects = deployment.program.objects.iter().map(|o| o.name.clone()).collect();
        names.insert(deployment.user.clone(), (deployment.numeric_id, objects));
    }
    let devices = |user| controller.devices_of(user).into_iter().collect::<BTreeSet<NodeId>>();
    assert!(!devices("kvs_a").is_disjoint(&devices("cms_c")), "cms_c joins kvs_a's devices");
    assert!(!devices("kvs_a").is_disjoint(&devices("kvs_b")), "kvs_b shares kvs_a's devices");
    check(&controller, &names, &["kvs_a", "kvs_b"]);
    let kvs_a = controller.deployment("kvs_a").expect("active").device_programs.clone();

    // a co-resident commits, then another tenant leaves: `cms_c` reads its
    // code for the first time only after both
    let late = kvs_request("kvs_d");
    let deployment = controller.deploy(late).expect("deploys");
    let objects = deployment.program.objects.iter().map(|o| o.name.clone()).collect();
    names.insert(deployment.user.clone(), (deployment.numeric_id, objects));
    let delta = controller.remove("kvs_b").expect("deployed");
    assert!(delta.affected_programs.contains("kvs_a"));
    check(&controller, &names, &["kvs_a", "cms_c", "kvs_d"]);
    let now = &controller.deployment("kvs_a").expect("active").device_programs;
    assert_eq!(*now.emitted(), *kvs_a.emitted(), "kvs_a's code is the same bytes");
}

/// Isolation prefixes every object name with `{user}_`, one that already
/// starts so included: deployed as `u`, sketches `mem` and `u_mem` become
/// `u_mem` and `u_u_mem`, and a served packet counts into both.
#[test]
fn object_names_that_already_carry_the_prefix_deploy_apart() {
    let sketch = "Sketch(type=\"count-min\", rows=1, cols=64, w=32)";
    let source = format!(
        "mem = {sketch}\nu_mem = {sketch}\n\
         first = count(mem, hdr.key, 1)\nsecond = count(u_mem, hdr.key, 1)\nforward()\n"
    );
    let mut controller = Controller::new(Topology::emulation_topology_all_tofino());
    let deployment = controller
        .deploy(ServiceRequest::new("u", &source, &["pod0a"], "pod2b"))
        .expect("the two sketches deploy apart");
    let objects: Vec<String> = deployment.program.objects.iter().map(|o| o.name.clone()).collect();
    assert_eq!(objects, ["u_mem", "u_u_mem"]);
    let id = deployment.numeric_id;

    let mut counted = BTreeMap::new();
    for hop in controller.tenant_hops("u") {
        let mut plane = hop.plane();
        for _ in 0..3 {
            plane.process(&mut kvs_packet("pod0a", "pod2b", id, 9));
        }
        for object in objects.iter().filter(|o| plane.store().contains(o)) {
            counted.insert(object.as_str(), plane.store().sketch_estimate(object, &Value::Int(9)));
        }
    }
    assert_eq!(counted, BTreeMap::from([("u_mem", 3), ("u_u_mem", 3)]));
}

/// An expert program brings its own owner annotations: here one instruction
/// owned by another tenant and one, with its object, owned by nobody.
/// `plan_isolated` owns all of it to the deploying tenant, as isolation
/// does: removing the other tenant leaves the expert's code whole, and
/// removing the expert leaves the images as they were before it came.
#[test]
fn plan_isolated_owns_the_whole_program_to_its_tenant() {
    let mut controller = Controller::new(Topology::emulation_topology_all_tofino());
    controller.deploy(kvs_request("other")).expect("the other tenant deploys");
    let before = controller.image_fingerprints();

    let source = "ctr = Array(row=1, size=64, w=32)\nlog = Array(row=1, size=64, w=32)\n\
                  count(ctr, hdr.key, 1)\ncount(log, hdr.key, 1)\nforward()\n";
    let compiled = compile_source("expert", source).expect("compiles");
    let mut program = isolate_user_program(&compiled, "expert", 2);
    program.instructions[0].owners = vec!["other".into()];
    program.instructions[1].owners.clear();
    program.objects[1].owner = None;
    let expert = ServiceRequest::new("expert", "forward()\n", &["pod0a"], "pod2b");
    let deploy = |controller: &mut Controller| {
        let planned = controller.plan_isolated(&expert, program.clone()).expect("plans");
        controller.commit(planned).expect("commits");
    };
    deploy(&mut controller);
    let expert_code = |controller: &Controller| {
        let images = controller.images().images;
        let instructions = images.values().flat_map(|image| &image.instructions);
        instructions.filter(|i| i.owners == ["expert"]).count()
    };
    let whole = expert_code(&controller);
    assert_eq!(whole, program.len(), "every instruction is the expert's");
    controller.remove("expert").expect("deployed");
    assert_eq!(controller.image_fingerprints(), before, "the expert leaves nothing behind");

    deploy(&mut controller);
    let devices = |user| controller.devices_of(user).into_iter().collect::<BTreeSet<NodeId>>();
    assert!(!devices("expert").is_disjoint(&devices("other")), "the tenants share a device");
    controller.remove("other").expect("deployed");
    assert_eq!(expert_code(&controller), whole, "the other tenant takes none of the expert's code");
    let objects = controller.images().images.into_values().flat_map(|image| image.objects);
    let expert_objects: BTreeSet<_> =
        objects.filter(|o| o.owner.as_deref() == Some("expert")).map(|o| o.name).collect();
    assert_eq!(expert_objects, BTreeSet::from(["expert_ctr".into(), "expert_log".into()]));
    controller.remove("expert").expect("deployed");
    assert!(controller.image_fingerprints().is_empty());
}
