//! Transactional guarantees of the `ClickIncService` facade:
//!
//! 1. **Round-trip equivalence** — `plan` → `commit` produces a deployment
//!    bit-identical to the direct `Controller::deploy` path (numeric id,
//!    snippets, device-image fingerprints, telemetry after a fixed seeded
//!    workload).
//! 2. **Plan purity** — planning never changes the remaining resource
//!    ratio, the active user set, or any device image's fingerprint.
//! 3. **All-or-nothing batches** — a failed `deploy_all` (unknown host,
//!    compile error, stale plan, admission refusal) leaves the ledger
//!    ratio, the active users, the engine tenants and every device image's
//!    fingerprint bit-identical to before the call, even when earlier
//!    requests of the batch had already committed.
//! 4. **Batch equivalence** — `deploy_all` of a mixed batch is bit-identical
//!    (image fingerprints, ledger ratio, tenant hops, numeric ids) to the
//!    sequential plan→commit path; stale plans are `StalePlan`, never a
//!    policy verdict; admission policies reject with the typed
//!    `ClickIncError::Rejected` and change nothing.
//! 5. **No side doors** — every deploy front-end honours the service-wide
//!    admission chain and the `InitialSharding` knob.
//! 6. **Refuse before solving** — a verdict that needs no plan (a full
//!    house) is reached without a solve, and outranks every error only a
//!    solve can find, but never a malformed request or a duplicate user.

use clickinc::ir::analysis::state_profile;
use clickinc::ir::{IrProgram, ShardingDecision};
use clickinc::lang::templates::{
    count_min_sketch, dqacc_template, kvs_template, mlagg_sparse_user, mlagg_template, DqAccParams,
    KvsParams, MlAggParams,
};
use clickinc::topology::Topology;
use clickinc::{
    sharding_mode_for, ClickIncError, ClickIncService, Controller, InitialSharding, MaxTenants,
    PolicyChain, ResourceFloor, ServiceRequest, ShardingMode, TenantHandle, TenantHop,
};
use clickinc_apps::house;
use clickinc_runtime::workload::KvsWorkload;
use clickinc_runtime::{EngineConfig, TrafficEngine};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

fn engine_config() -> EngineConfig {
    EngineConfig { shards: 2, ..Default::default() }
}

fn kvs_request(user: &str) -> ServiceRequest {
    house::kvs_request(user, ["pod0a", "pod1a"])
}

fn seeded_workload(user: &str, id: i64) -> KvsWorkload {
    house::kvs_stream_as(user, id, 500, 800, 1_000_000.0, 9)
}

/// Everything observable a serving run leaves behind, for equivalence
/// comparison across the two deployment paths.
#[derive(Debug, PartialEq)]
struct RunFingerprint {
    numeric_id: i64,
    snippets: Vec<Arc<clickinc::ir::IrProgram>>,
    controller_images: BTreeMap<String, u64>,
    engine_stores: BTreeMap<String, u64>,
    telemetry: clickinc_runtime::TelemetryReport,
    diagnostics_json: String,
}

/// The old two-API wiring: a bare controller mirrored onto an engine by
/// hand.
fn run_direct_controller_path() -> RunFingerprint {
    let engine = TrafficEngine::new(engine_config());
    let mut controller = Controller::new(Topology::emulation_topology_all_tofino());
    let planned = controller.plan(&kvs_request("kvs0")).expect("plans");
    let diagnostics_json = planned.diagnostics().to_json();
    let deployment = controller.commit(planned).expect("deploys");
    let numeric_id = deployment.numeric_id;
    let snippets: Vec<_> = deployment.snippets.values().flatten().cloned().collect();
    let mode = sharding_mode_for(&deployment.program);

    let handle = engine.handle();
    let hops = controller.tenant_hops("kvs0");
    handle.add_tenant_sharded("kvs0", hops.clone(), mode);
    for hop in hops {
        if hop.snippets.iter().any(|s| s.objects.iter().any(|o| o.name == "kvs0_cache")) {
            for (key, value) in house::cache_lines(64) {
                handle.populate_table("kvs0", &hop.device, "kvs0_cache", key, value);
            }
        }
    }
    let mut wl = seeded_workload("kvs0", numeric_id);
    handle.run_workload(&mut wl, usize::MAX, 64);
    handle.flush();
    let outcome = engine.finish();
    RunFingerprint {
        numeric_id,
        snippets,
        controller_images: controller.image_fingerprints(),
        engine_stores: outcome.store_fingerprints(),
        telemetry: outcome.telemetry,
        diagnostics_json,
    }
}

/// The facade path: plan → commit → handle.
fn run_service_path() -> RunFingerprint {
    let service =
        ClickIncService::with_config(Topology::emulation_topology_all_tofino(), engine_config())
            .expect("engine config is valid");
    let plan = service.plan(&kvs_request("kvs0")).expect("plans");
    let diagnostics_json = plan.diagnostics().to_json();
    let tenant = service.commit(plan).expect("commits");
    let numeric_id = tenant.numeric_id();
    let (snippets, controller_images) = {
        let controller = service.controller();
        let deployment = controller.deployment("kvs0").expect("active");
        let snippets: Vec<_> = deployment.snippets.values().flatten().cloned().collect();
        (snippets, controller.image_fingerprints())
    };
    house::warm_cache(&tenant, 64);
    let mut wl = seeded_workload("kvs0", numeric_id);
    tenant.run_workload(&mut wl, usize::MAX, 64);
    service.flush();
    let outcome = service.finish();
    RunFingerprint {
        numeric_id,
        snippets,
        controller_images,
        engine_stores: outcome.store_fingerprints(),
        telemetry: outcome.telemetry,
        diagnostics_json,
    }
}

#[test]
fn plan_commit_round_trip_equals_the_direct_deploy_path() {
    let direct = run_direct_controller_path();
    let service = run_service_path();
    assert_eq!(direct.numeric_id, service.numeric_id, "same numeric id");
    assert_eq!(direct.snippets, service.snippets, "same installed snippets");
    assert_eq!(direct.controller_images, service.controller_images, "same image fingerprints");
    assert_eq!(direct.engine_stores, service.engine_stores, "same engine store fingerprints");
    assert_eq!(direct.telemetry, service.telemetry, "same telemetry for the seeded workload");
    // the verifier ran on both paths, found the same things, and its JSON
    // export round-trips losslessly like the telemetry export does
    assert_eq!(direct.diagnostics_json, service.diagnostics_json, "same verifier diagnostics");
    let parsed = clickinc_ir::DiagnosticSet::from_json(&direct.diagnostics_json)
        .expect("diagnostics JSON parses back");
    assert_eq!(parsed.to_json(), direct.diagnostics_json, "diagnostics JSON round-trips");
    // the workload actually did something on both paths
    let stats = direct.telemetry.tenant("kvs0").expect("served");
    assert_eq!(stats.completed, 800);
    assert!(stats.hit_ratio > 0.3);
}

#[test]
fn the_slices_the_verifier_saw_are_the_allocations_every_holder_shares() {
    let service =
        ClickIncService::with_config(Topology::emulation_topology_all_tofino(), engine_config())
            .expect("engine config is valid");
    let plan = service.plan(&kvs_request("kvs0")).expect("plans");
    let planned = plan.snippets().to_vec();
    assert!(!planned.is_empty());
    let tenant = service.commit(plan).expect("commits");
    let is_planned = |held: &Arc<_>| planned.iter().any(|p| Arc::ptr_eq(p, held));
    {
        let controller = service.controller();
        let deployment = controller.deployment("kvs0").expect("active");
        assert!(deployment.snippets.values().flatten().all(is_planned));
        assert!(controller.tenant_hops("kvs0").iter().flat_map(|h| &h.snippets).all(is_planned));
        // and nothing the plan carried was dropped on the way
        for slice in &planned {
            assert!(deployment.snippets.values().flatten().any(|s| Arc::ptr_eq(s, slice)));
        }
    }
    let held: Vec<_> = tenant.hops().iter().flat_map(|h| &h.snippets).collect();
    assert!(!held.is_empty());
    assert!(held.into_iter().all(is_planned));
    service.finish();
}

/// A snapshot of every piece of observable controller/engine state the
/// rollback guarantees protect.  The telemetry export is stamped with a
/// monotone `snapshot_seq` that advances on every observation (including
/// this one), so the stamp line is normalized out before comparing.
/// The per-hop walk the service ran before the sharding mode moved into the
/// prepared source: one taint walk over every hop's slices in traffic order,
/// a slice once per device that runs it.  Kept only as the reference the
/// program-level mode is held to.
fn per_hop_sharding_mode(hops: &[TenantHop]) -> ShardingMode {
    let snippets: Vec<&IrProgram> =
        hops.iter().flat_map(|hop| &hop.snippets).map(AsRef::as_ref).collect();
    match state_profile(&snippets).sharding_decision() {
        ShardingDecision::Stateless => ShardingMode::ByFlow { key_fields: Vec::new() },
        ShardingDecision::ByKey(key_fields) => ShardingMode::ByFlow { key_fields },
        ShardingDecision::Pinned(_) => ShardingMode::ByTenant,
    }
}

/// The mode a deploy reads from its prepared source — derived once per
/// program text from the isolated, optimized program, and lent to later
/// deploys of the text — is the mode the per-hop walk over the deployed
/// slices gives: every fig13 template and the sparse MLAgg program on both
/// Fig. 11 topologies, float MLAgg on the mixed one (no Tofino runs float),
/// from one, two and three source pods, each text deployed twice.
#[test]
fn the_program_level_sharding_mode_is_the_per_hop_mode() {
    let mlagg = MlAggParams { dims: 32, num_workers: 4, num_aggregators: 4096, is_float: false };
    let float = MlAggParams { dims: 16, num_workers: 4, num_aggregators: 512, is_float: true };
    let templates = [
        kvs_template("kvs_srv", KvsParams { cache_depth: 2000, ..Default::default() }),
        mlagg_template("mlagg", mlagg),
        dqacc_template("dqacc", DqAccParams::default()),
        count_min_sketch("cms", 3, 512),
        mlagg_sparse_user("sparse", MlAggParams::default(), 4, 6),
        mlagg_template("fagg", float),
    ];
    let source_sets: [&[&str]; 3] = [&["pod0a"], &["pod0a", "pod1a"], &["pod0a", "pod1a", "pod0b"]];
    let topologies = [
        (Topology::emulation_topology_all_tofino(), &templates[..5]),
        (Topology::emulation_topology(), &templates[..]),
    ];
    for (topology, templates) in topologies {
        for sources in source_sets {
            for template in templates {
                let mut controller = Controller::new(topology.clone());
                // the second tenant borrows the first's prepared source
                for suffix in ["", "_2"] {
                    let tenant = format!("{}{suffix}", template.name);
                    let request = ServiceRequest::new(&tenant, &template.source, sources, "pod2a");
                    controller.deploy(request).expect("the template deploys");
                    let deployment = controller.deployment(&tenant).expect("deployed");
                    let mode = &deployment.prepared.sharding;
                    assert_eq!(*mode, sharding_mode_for(&deployment.program), "{tenant}");
                    let per_hop = per_hop_sharding_mode(&controller.tenant_hops(&tenant));
                    assert_eq!(*mode, per_hop, "{tenant} from {sources:?}");
                }
            }
        }
    }
}

fn snapshot(service: &ClickIncService) -> (u64, Vec<String>, BTreeMap<String, u64>, String) {
    let telemetry = service
        .telemetry()
        .to_json()
        .lines()
        .filter(|line| !line.trim_start().starts_with("\"snapshot_seq\""))
        .collect::<Vec<_>>()
        .join("\n");
    (
        service.remaining_resource_ratio().to_bits(),
        service.active_users(),
        service.controller().image_fingerprints(),
        telemetry,
    )
}

#[test]
fn failed_deploy_all_rolls_back_already_committed_tenants() {
    let service =
        ClickIncService::with_config(Topology::emulation_topology_all_tofino(), engine_config())
            .expect("engine config is valid");
    // a resident tenant outside the batch must be untouched too
    let resident = service.deploy(kvs_request("resident")).expect("resident deploys");
    let before = snapshot(&service);

    // two good requests followed by one that exceeds nothing but names an
    // unknown host: the first two commit, then the batch unwinds
    let err = service
        .deploy_all(vec![
            kvs_request("batch_a"),
            ServiceRequest::builder("batch_b")
                .template(dqacc_template("batch_b", DqAccParams { depth: 2000, ways: 4 }))
                .from_("pod0b")
                .to("pod2b")
                .build()
                .unwrap(),
            ServiceRequest::builder("batch_poison")
                .source("forward()\n")
                .from_("mars")
                .to("pod2b")
                .build()
                .unwrap(),
        ])
        .map(|_| ())
        .unwrap_err();
    assert!(matches!(err, ClickIncError::UnknownHost(h) if h == "mars"));
    assert_eq!(snapshot(&service), before, "rollback restored every observable");

    // a compile error late in the batch rolls back the same way
    let err = service
        .deploy_all(vec![
            kvs_request("batch_a"),
            ServiceRequest::builder("batch_bad_src")
                .source("x = undefined_thing(1)\n")
                .from_("pod0a")
                .to("pod2b")
                .build()
                .unwrap(),
        ])
        .map(|_| ())
        .unwrap_err();
    assert!(matches!(err, ClickIncError::Compile(_)));
    assert_eq!(snapshot(&service), before, "rollback restored every observable");

    // the resident still serves traffic after both rollbacks
    let mut wl = seeded_workload("resident", resident.numeric_id());
    resident.run_workload(&mut wl, usize::MAX, 64);
    service.flush();
    let stats = resident.telemetry().expect("resident served");
    assert_eq!(stats.completed, 800);
    service.finish();
}

/// A mixed batch of 8 KVS/MLAgg requests with distinct users, sources and
/// template parameters — the acceptance workload for batch equivalence.
fn mixed_batch() -> Vec<ServiceRequest> {
    (0..8)
        .map(|i| {
            let user = format!("mix{i}");
            if i % 2 == 0 {
                ServiceRequest::builder(&user)
                    .template(kvs_template(
                        &user,
                        KvsParams { cache_depth: 1000 + 200 * i as u32, ..Default::default() },
                    ))
                    .from_(if i % 4 == 0 { "pod0a" } else { "pod1a" })
                    .to("pod2b")
                    .build()
                    .unwrap()
            } else {
                ServiceRequest::builder(&user)
                    .template(mlagg_template(
                        &user,
                        MlAggParams {
                            dims: 8 + i as u32,
                            num_aggregators: 512,
                            ..Default::default()
                        },
                    ))
                    .from_(if i % 4 == 1 { "pod0b" } else { "pod1b" })
                    .to("pod2a")
                    .build()
                    .unwrap()
            }
        })
        .collect()
}

/// Everything the acceptance criterion compares: image fingerprints, ledger
/// ratio (as bits), and per-tenant numeric ids + hops.
type DeploymentObservables = (BTreeMap<String, u64>, u64, BTreeMap<String, (i64, Vec<TenantHop>)>);

fn deployment_observables(service: &ClickIncService) -> DeploymentObservables {
    let controller = service.controller();
    let tenants = controller
        .active_users()
        .iter()
        .map(|user| {
            let numeric_id = controller.numeric_id_of(user).expect("active");
            (user.to_string(), (numeric_id, controller.tenant_hops(user)))
        })
        .collect();
    (controller.image_fingerprints(), controller.remaining_resource_ratio().to_bits(), tenants)
}

#[test]
fn deploy_all_is_bit_identical_to_sequential_plan_commit() {
    let requests = mixed_batch();
    assert!(requests.len() >= 8);

    // the sequential reference: plan → commit one request at a time
    let sequential =
        ClickIncService::with_config(Topology::emulation_topology_all_tofino(), engine_config())
            .expect("engine config is valid");
    for request in &requests {
        let plan = sequential.plan(request).expect("plans");
        sequential.commit(plan).expect("commits");
    }
    let reference = deployment_observables(&sequential);
    sequential.finish();

    let service =
        ClickIncService::with_config(Topology::emulation_topology_all_tofino(), engine_config())
            .expect("engine config is valid");
    let handles = service.deploy_all(requests.clone()).expect("the batch deploys");
    assert_eq!(handles.len(), requests.len());
    // handles come back in request order with the sequential numeric ids
    for (i, handle) in handles.iter().enumerate() {
        assert_eq!(handle.user(), format!("mix{i}"));
        assert_eq!(handle.numeric_id(), i as i64 + 1);
    }
    assert_eq!(
        deployment_observables(&service),
        reference,
        "the batch path diverged from the sequential path"
    );
    service.finish();
}

#[test]
fn resource_floor_rejects_the_marginal_tenant_and_admitted_tenants_keep_serving() {
    let service =
        ClickIncService::with_config(Topology::emulation_topology_all_tofino(), engine_config())
            .expect("engine config is valid");
    service.set_admission_policy(ResourceFloor { min_remaining_ratio: 0.99 });

    // admit tenants one by one until the floor refuses the marginal one
    let mut admitted = Vec::new();
    let mut rejection = None;
    for i in 0..16 {
        let before = snapshot(&service);
        match service.deploy(kvs_request(&format!("floor{i}"))) {
            Ok(handle) => admitted.push(handle),
            Err(err) => {
                assert!(
                    matches!(
                        &err,
                        ClickIncError::Rejected { user, policy, .. }
                            if user == &format!("floor{i}") && policy == "resource_floor"
                    ),
                    "got {err}"
                );
                assert_eq!(snapshot(&service), before, "a rejection changes nothing");
                rejection = Some(err);
                break;
            }
        }
    }
    let rejection = rejection.expect("the floor eventually rejects a marginal tenant");
    assert!(rejection.to_string().contains("floor"));
    assert!(!admitted.is_empty(), "tenants above the floor were admitted");
    assert!(service.remaining_resource_ratio() >= 0.99, "the floor held");

    // the admitted tenants still serve traffic on the engine
    let first = &admitted[0];
    let mut wl = seeded_workload(first.user(), first.numeric_id());
    first.run_workload(&mut wl, usize::MAX, 64);
    service.flush();
    let stats = first.telemetry().expect("admitted tenant is live");
    assert_eq!(stats.completed, 800, "traffic still flows for admitted tenants");
    service.finish();
}

#[test]
fn the_service_chain_gates_each_batch_member_at_its_own_commit() {
    let service =
        ClickIncService::with_config(Topology::emulation_topology_all_tofino(), engine_config())
            .expect("engine config is valid");
    service.deploy(kvs_request("resident")).expect("the resident deploys");
    service.set_admission_policy(MaxTenants { max_tenants: 2 });
    let before = snapshot(&service);

    // `a` alone would fit under the cap; `b` is judged with `a` already
    // counted as a resident, so the cap refuses it and the batch unwinds
    let err = service.deploy_all(vec![kvs_request("a"), kvs_request("b")]).map(|_| ()).unwrap_err();
    assert!(
        matches!(
            &err,
            ClickIncError::Rejected { user, policy, .. } if user == "b" && policy == "max_tenants"
        ),
        "got {err}"
    );
    assert_eq!(snapshot(&service), before, "the refused batch changes nothing");
    assert_eq!(service.engine_handle().sharding_mode("a"), None, "the engine never saw `a`");
    service.finish();
}

#[test]
fn stale_plans_are_stale_plan_never_a_policy_verdict() {
    let service =
        ClickIncService::with_config(Topology::emulation_topology_all_tofino(), engine_config())
            .expect("engine config is valid");

    // plan `victim`, then let an unrelated tenant move the epoch
    let stale_plan = service.plan(&kvs_request("victim")).expect("plans");
    let epoch_at_solve = stale_plan.epoch();
    service.deploy(kvs_request("unrelated")).expect("unrelated tenant deploys");
    assert_ne!(service.controller().epoch(), epoch_at_solve, "the epoch moved");

    // the strict commit path refuses the stale plan outright
    let err = service.commit(stale_plan.clone()).map(|_| ()).unwrap_err();
    assert!(matches!(err, ClickIncError::StalePlan { .. }), "got {err}");

    // staleness outranks policy: even with an impossible floor installed,
    // the stale plan surfaces as StalePlan (re-plan and retry), never as a
    // Rejected verdict reached on dead-ledger numbers
    service.set_admission_policy(ResourceFloor { min_remaining_ratio: 2.0 });
    let before = snapshot(&service);
    let err = service.commit(stale_plan).map(|_| ()).unwrap_err();
    assert!(matches!(err, ClickIncError::StalePlan { .. }), "got {err}");
    assert_eq!(snapshot(&service), before, "a refused commit changes nothing");

    // a fresh solve of the same request is judged on live numbers
    let fresh = service.plan(&kvs_request("victim")).expect("re-plans");
    let err = service.commit(fresh).map(|_| ()).unwrap_err();
    assert!(matches!(err, ClickIncError::Rejected { .. }), "got {err}");
    service.set_admission_policy(PolicyChain::new());
    let tenant = service.deploy(kvs_request("victim")).expect("re-solve and commit");
    assert_eq!(tenant.user(), "victim");
    service.finish();
}

/// The first physical device `user` occupies.
fn first_device_of(service: &ClickIncService, user: &str) -> String {
    let controller = service.controller();
    let id = *controller.devices_of(user).first().expect("placed somewhere");
    controller.topology().node(id).name.clone()
}

/// One way of asking the service to start serving `user`.
type FrontEnd = fn(&ClickIncService, &str) -> Result<Vec<TenantHandle>, ClickIncError>;

/// Every deploy front-end that takes a request, by name.
const FRONT_ENDS: &[(&str, FrontEnd)] = &[
    ("deploy", |s, u| s.deploy(kvs_request(u)).map(|h| vec![h])),
    ("plan + commit", |s, u| s.commit(s.plan(&kvs_request(u))?).map(|h| vec![h])),
    ("deploy_or_queue", |s, u| s.deploy_or_queue(kvs_request(u)).map(|h| vec![h])),
    ("deploy_all", |s, u| s.deploy_all(vec![kvs_request(u)])),
];

#[test]
fn no_front_end_is_a_side_door_around_the_chain_or_the_sharding_knob() {
    let fresh = || {
        let service = ClickIncService::with_config(
            Topology::emulation_topology_all_tofino(),
            engine_config(),
        )
        .expect("engine config is valid");
        service.set_initial_sharding(InitialSharding::Pinned);
        service
    };
    let refused = |result: Result<Vec<TenantHandle>, ClickIncError>, who: &str| match result {
        Err(ClickIncError::Rejected { policy, .. }) => assert_eq!(policy, "max_tenants", "{who}"),
        Err(other) => panic!("{who}: expected the chain's refusal, got {other}"),
        Ok(_) => panic!("{who} walked around the service chain"),
    };
    let pinned = |service: &ClickIncService, user: &str, who: &str| {
        assert_eq!(
            service.engine_handle().sharding_mode(user),
            Some(ShardingMode::ByTenant),
            "{who} ignored InitialSharding::Pinned"
        );
    };

    for (name, front_end) in FRONT_ENDS {
        let service = fresh();
        // the knob: a KVS tenant would flow-shard if the mode were derived
        let handles = front_end(&service, "t0").unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(handles[0].sharding_mode(), ShardingMode::ByTenant, "{name}");
        pinned(&service, "t0", name);
        // the chain: a full house refuses the next arrival, mutating nothing
        service.set_admission_policy(MaxTenants { max_tenants: 1 });
        let before = snapshot(&service);
        refused(front_end(&service, "t1"), name);
        assert_eq!(snapshot(&service), before, "{name}: a refusal changes nothing");
        service.finish();
    }

    // the retry drain: a parked request is admitted only once the chain
    // lets it in, and then under the knob
    let service = fresh();
    service.set_admission_policy(MaxTenants { max_tenants: 1 });
    let resident = service.deploy(kvs_request("t0")).expect("first tenant admitted");
    refused(service.deploy_or_queue(kvs_request("t1")).map(|h| vec![h]), "deploy_or_queue");
    let report = service.drain_retries();
    assert!(report.admitted.is_empty(), "the drain walked around the chain");
    assert_eq!(report.requeued, 1);
    resident.remove().expect("removes");
    assert_eq!(service.active_users(), vec!["t1".to_string()], "the departure's drain admitted t1");
    pinned(&service, "t1", "drain");

    // replace_tenant: the chain refuses the advisory re-placement (the
    // original is restored past the gate, by design) and both the
    // re-placement and the restore honour the knob
    service.set_admission_policy(MaxTenants { max_tenants: 0 });
    refused(service.replace_tenant("t1").map(|h| vec![h]), "replace_tenant");
    assert_eq!(service.active_users(), vec!["t1".to_string()], "a refusal must not drop t1");
    pinned(&service, "t1", "replace_tenant's restore");
    service.set_admission_policy(PolicyChain::new());
    let replaced = service.replace_tenant("t1").expect("re-places");
    assert_eq!(replaced.sharding_mode(), ShardingMode::ByTenant);
    pinned(&service, "t1", "replace_tenant");

    // fail → re-place: refused by the chain, the tenant parks
    let device = first_device_of(&service, "t1");
    service.set_admission_policy(MaxTenants { max_tenants: 0 });
    let report = service.fail_device(&device).expect("known device");
    assert!(report.recovered.is_empty(), "fail_device walked around the chain");
    assert_eq!(service.degraded_tenants(), vec!["t1".to_string()]);
    // restore → un-park: still refused, then admitted under the knob
    let report = service.restore_device(&device).expect("restores");
    assert!(report.recovered.is_empty(), "restore_device walked around the chain");
    service.set_admission_policy(PolicyChain::new());
    let report = service.restore_device(&device).expect("restores again");
    assert_eq!(report.recovered, vec!["t1".to_string()]);
    pinned(&service, "t1", "restore_device");
    // fail → re-place with the chain open: recovered, under the knob
    let device = first_device_of(&service, "t1");
    let report = service.fail_device(&device).expect("known device");
    if report.fully_recovered() {
        pinned(&service, "t1", "fail_device");
    }
    service.finish();
}

/// A service capped at one tenant, with that one resident deployed.
fn full_house() -> ClickIncService {
    let service =
        ClickIncService::with_config(Topology::emulation_topology_all_tofino(), engine_config())
            .expect("engine config is valid");
    service.set_admission_policy(MaxTenants { max_tenants: 1 });
    service.deploy(kvs_request("resident")).expect("the resident fits under the cap");
    service
}

fn refused_by_the_cap(result: Result<TenantHandle, ClickIncError>, who: &str) {
    match result {
        Err(ClickIncError::Rejected { user, policy, .. }) => {
            assert_eq!((user.as_str(), policy.as_str()), (who, "max_tenants"));
        }
        Err(other) => panic!("{who}: expected the cap's refusal, got {other}"),
        Ok(_) => panic!("{who} got past a full house"),
    }
}

#[test]
fn a_full_house_refuses_before_it_solves() {
    let service = full_house();
    let before = snapshot(&service);
    let memo = service.controller().solve_cache_stats();
    // a shape no solve has seen: solving it would have to touch the memo
    let newcomer = ServiceRequest::builder("newcomer")
        .template(count_min_sketch("newcomer", 4, 2048))
        .from_("pod1b")
        .to("pod2a")
        .build()
        .unwrap();
    refused_by_the_cap(service.deploy_or_queue(newcomer), "newcomer");
    assert_eq!(service.queued_users(), vec!["newcomer"]);
    // the drain re-asks the same plan-free question: still no solve
    let report = service.drain_retries();
    assert!(report.admitted.is_empty() && report.dropped.is_empty());
    assert_eq!(report.requeued, 1);
    let after = service.controller().solve_cache_stats();
    assert_eq!((after.hits, after.misses), (memo.hits, memo.misses), "a refusal solved");
    assert_eq!(snapshot(&service), before, "a refusal changes nothing");
    service.finish();
}

#[test]
fn plan_free_refusals_outrank_solve_errors_not_request_errors() {
    let service = full_house();
    // only a solve could find the compile error, and the full house answers
    // first: the request is refused by policy and parked
    let broken = ServiceRequest::builder("broken")
        .source("x = undefined_thing(1)\n")
        .from_("pod0a")
        .to("pod2b")
        .build()
        .unwrap();
    refused_by_the_cap(service.deploy_or_queue(broken), "broken");
    assert_eq!(service.queued_users(), vec!["broken"]);

    // a duplicate user and a malformed request are answered before any
    // policy, so they are never queued
    let err = service.deploy_or_queue(kvs_request("resident")).map(|_| ()).unwrap_err();
    assert!(matches!(&err, ClickIncError::DuplicateUser(u) if u == "resident"), "got {err}");
    let no_sources = ServiceRequest::new("nowhere", "forward()\n", &[], "pod2b");
    let err = service.deploy_or_queue(no_sources).map(|_| ()).unwrap_err();
    assert!(matches!(err, ClickIncError::InvalidRequest(_)), "got {err}");
    assert_eq!(service.queued_users(), vec!["broken"], "request errors never queue");

    // once the plan-free gate lets it through, the drain solves the parked
    // request and drops it with the error waiting cannot fix
    service.set_admission_policy(PolicyChain::new());
    let report = service.drain_retries();
    assert!(report.admitted.is_empty());
    assert_eq!(report.requeued, 0);
    match report.dropped.as_slice() {
        [(user, ClickIncError::Compile(_))] => assert_eq!(user, "broken"),
        other => panic!("expected `broken` dropped with its compile error, got {other:?}"),
    }
    assert_eq!(service.retry_queue_len(), 0);
    assert_eq!(service.active_users(), vec!["resident".to_string()]);
    service.finish();
}

#[test]
fn removing_a_never_committed_user_is_unknown_user_and_changes_nothing() {
    let service =
        ClickIncService::with_config(Topology::emulation_topology_all_tofino(), engine_config())
            .expect("engine config is valid");
    // planning alone never registers the user
    let _plan = service.plan(&kvs_request("ghost")).expect("plans");
    let before = snapshot(&service);
    let err = service.remove("ghost").map(|_| ()).unwrap_err();
    assert!(matches!(err, ClickIncError::UnknownUser(u) if u == "ghost"));
    assert_eq!(snapshot(&service), before);
    service.finish();
}

fn request_from_op(op: u8, index: usize) -> ServiceRequest {
    let user = format!("u{index}");
    match op % 6 {
        0 => ServiceRequest::builder(&user)
            .template(kvs_template(&user, KvsParams { cache_depth: 1000, ..Default::default() }))
            .from_("pod0a")
            .to("pod2b")
            .build()
            .unwrap(),
        1 => ServiceRequest::builder(&user)
            .template(mlagg_template(
                &user,
                MlAggParams { dims: 8, num_aggregators: 512, ..Default::default() },
            ))
            .from_("pod1a")
            .to("pod2a")
            .build()
            .unwrap(),
        2 => ServiceRequest::builder(&user)
            .template(dqacc_template(&user, DqAccParams { depth: 1000, ways: 4 }))
            .from_("pod0b")
            .to("pod2b")
            .build()
            .unwrap(),
        3 => ServiceRequest::builder(&user)
            .template(count_min_sketch(&user, 3, 512))
            .from_("pod1b")
            .to("pod2b")
            .build()
            .unwrap(),
        4 => ServiceRequest::builder(&user)
            .source("forward()\n")
            .from_("no-such-host")
            .to("pod2b")
            .build()
            .unwrap(),
        _ => ServiceRequest::builder(&user)
            .source("x = undefined_thing(1)\n")
            .from_("pod0a")
            .to("pod2b")
            .build()
            .unwrap(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For any request sequence: `plan` is pure, and a failed `deploy_all`
    /// leaves the ledger ratio, the active users, the engine tenants and
    /// every plane's store fingerprint bit-identical to before the call.
    #[test]
    fn rollback_invariants_hold_for_any_request_sequence(
        ops in proptest::collection::vec(0u8..6, 1..4),
    ) {
        let service = ClickIncService::with_config(
            Topology::emulation_topology_all_tofino(),
            EngineConfig { shards: 1, ..Default::default() },
        )
        .expect("engine config is valid");
        let mut requests: Vec<ServiceRequest> =
            ops.iter().enumerate().map(|(i, op)| request_from_op(*op, i)).collect();
        // force at least one poison request so deploy_all must fail
        if !ops.iter().any(|op| op % 6 >= 4) {
            requests.push(request_from_op(4, requests.len()));
        }

        let before = snapshot(&service);

        // planning any of the valid requests is a pure dry-run
        for request in &requests {
            let planned = service.plan(request);
            if let Ok(plan) = &planned {
                prop_assert!(plan.predicted_remaining_ratio() <= service.remaining_resource_ratio());
            }
            prop_assert_eq!(snapshot(&service), before);
        }

        // the poisoned batch fails and rolls back everything
        prop_assert!(service.deploy_all(requests).map(|_| ()).is_err());
        prop_assert_eq!(snapshot(&service), before);
        service.finish();
    }

    /// An admission floor no plan can satisfy rejects every batch with the
    /// typed error and leaves the ledger ratio, active users, plane
    /// fingerprints and engine telemetry untouched — whatever the request
    /// mix.
    #[test]
    fn impossible_resource_floor_rejects_and_changes_nothing(
        ops in proptest::collection::vec(0u8..4, 1..4), // valid request kinds only
    ) {
        let service = ClickIncService::with_config(
            Topology::emulation_topology_all_tofino(),
            EngineConfig { shards: 1, ..Default::default() },
        )
        .expect("engine config is valid");
        let requests: Vec<ServiceRequest> =
            ops.iter().enumerate().map(|(i, op)| request_from_op(*op, i)).collect();
        service.set_admission_policy(ResourceFloor { min_remaining_ratio: 2.0 });
        let before = snapshot(&service);
        let err = service.deploy_all(requests).map(|_| ()).unwrap_err();
        prop_assert!(
            matches!(&err, ClickIncError::Rejected { policy, .. } if policy == "resource_floor"),
            "got {}", err
        );
        prop_assert_eq!(snapshot(&service), before);
        service.finish();
    }
}
