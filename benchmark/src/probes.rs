//! Per-layer probes for the traced run.
//!
//! The crates carry no spans of their own, so the bench records them around
//! the calls it makes into each crate's public API.  Service calls
//! (`plan`, `commit`, `remove`) are timed on a real `ClickIncService`; the
//! stages those calls run internally are then replayed one by one on the very
//! inputs the service used (the committed [`Deployment`]'s program, DAG, plan
//! and snippets) and recorded as children of the call that ran them, which is
//! what gives `core.plan_self_us` its meaning: plan minus the stages.
//!
//! Timings go to the [`Tracer`] by span name; counts and per-packet figures go
//! to [`Samples`] by metric name.

use crate::alloc;
use crate::replay::replay;
use crate::trace::{SpanId, Tracer, ROOT};
use crate::workloads::serve::{packets_of, Serve};
use crate::workloads::{engine_config, fresh_service, topology};
use clickinc::{ClickIncError, Controller, Deployment, MaxTenants, ServiceRequest};
use clickinc_backend::generate;
use clickinc_blockdag::{build_block_dag, BlockConfig};
use clickinc_emulator::{DevicePlane, ExecMode};
use clickinc_frontend::{CompileOptions, Frontend};
use clickinc_ir::analysis::{DeviceTarget, PassContext, PassManager, PlacedSnippet};
use clickinc_ir::{DiagnosticSet, Optimizer};
use clickinc_placement::{
    place_with_cache, PlacementConfig, PlacementNetwork, ResourceLedger, SolveCache, Weights,
};
use clickinc_runtime::TrafficEngine;
use clickinc_synthesis::incremental::DeviceImages;
use clickinc_synthesis::{
    add_user_program, base_program, isolate_user_program, remove_user_program,
};
use clickinc_topology::{reduce_for_traffic, NodeId, Topology};
use std::collections::BTreeMap;
use std::time::Instant;

/// Non-span samples by metric name.
#[derive(Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// The verifier's view of a committed deployment: one placed snippet per
/// device and installed slice, as `PlanContext::solve` builds them.
fn placed_snippets(topo: &Topology, deployment: &Deployment) -> Vec<PlacedSnippet> {
    let mut placements = Vec::new();
    for (node, snippets) in &deployment.snippets {
        let node = topo.node(*node);
        let model = node.kind.model();
        for snippet in snippets {
            placements.push(PlacedSnippet {
                device: node.name.clone(),
                target: DeviceTarget {
                    device: node.name.clone(),
                    kind: node.kind.to_string(),
                    supported: model.supported_classes().clone(),
                    storage_capacity_bits: model.storage_capacity_bits(),
                },
                program: snippet.clone(),
            });
        }
    }
    placements
}

/// `template` under another tenant name (the name is not part of the source;
/// isolation prefixes objects with it later).
fn renamed(template: &ServiceRequest, user: String) -> ServiceRequest {
    ServiceRequest { user, ..template.clone() }
}

/// Deploy `request` alone on a fresh service with spans around `plan`,
/// `commit` and `remove`, then replay every stage those calls ran.
pub fn deploy_pipeline(
    tracer: &mut Tracer,
    samples: &mut Samples,
    request: &ServiceRequest,
    op: u32,
) -> Result<(), String> {
    let probe = tracer.begin("probe.pipeline", ROOT, op);
    let service = fresh_service();
    let allocs_before = alloc::snapshot();
    let plan_span = tracer.begin("core.plan", probe, op);
    let plan = service.plan(request);
    tracer.end(plan_span);
    let plan = plan.map_err(|e| e.to_string())?;
    let commit_span = tracer.begin("core.commit", probe, op);
    let handle = service.commit(plan);
    tracer.end(commit_span);
    let handle = handle.map_err(|e| e.to_string())?;
    // the shard installs the tenant on its own thread; wait so its
    // allocations are counted with the deploy that caused them
    service.flush();
    samples.push("core.allocs_per_deploy", alloc::snapshot().since(allocs_before).count as f64);

    let deployment = service
        .controller()
        .deployment(&request.user)
        .cloned()
        .expect("the tenant was just committed");
    let hops = handle.hops().to_vec();
    let mode = handle.sharding_mode().clone();
    drop(handle);
    tracer
        .span("core.remove", probe, op, || service.remove(&request.user))
        .map_err(|e| e.to_string())?;
    service.finish();

    replay_plan_stages(tracer, samples, request, &deployment, plan_span, probe, op);
    replay_commit_stages(tracer, samples, &deployment, commit_span, op);

    // the engine half of a commit: ship the hops to the shard and wait until
    // it compiled and installed them
    let engine = TrafficEngine::new(engine_config());
    let handle = engine.handle();
    tracer.span("runtime.add_tenant", commit_span, op, || {
        handle.add_tenant_sharded(&request.user, hops, mode);
        handle.flush();
    });
    engine.finish();
    tracer.end(probe);
    Ok(())
}

/// The stages of `PlanContext::solve`, in its order, on the request the
/// service planned and the program it ended up with.
fn replay_plan_stages(
    tracer: &mut Tracer,
    samples: &mut Samples,
    request: &ServiceRequest,
    deployment: &Deployment,
    plan_span: SpanId,
    probe: SpanId,
    op: u32,
) {
    let user = request.user.as_str();
    let ast = tracer
        .span("lang.parse", plan_span, op, || clickinc_lang::parse(&request.source))
        .expect("the service parsed this source");
    let frontend = Frontend::new();
    let ir = tracer
        .span("frontend.compile", plan_span, op, || {
            frontend.compile_ast(user, &ast, &CompileOptions::default())
        })
        .expect("the service compiled this source");
    samples.push("frontend.ir_instrs", ir.instructions.len() as f64);
    let isolated = tracer.span("synthesis.isolate", plan_span, op, || {
        isolate_user_program(&ir, user, deployment.numeric_id)
    });
    let optimized = tracer.span("ir.optimize", plan_span, op, || {
        Optimizer::with_default_passes().optimize(user, true, &isolated, &mut DiagnosticSet::new())
    });
    samples.push(
        "ir.opt_instrs_removed",
        isolated.instructions.len().saturating_sub(optimized.instructions.len()) as f64,
    );
    debug_assert_eq!(optimized, deployment.program, "the replay reproduces the deployed program");

    let program = &deployment.program;
    let dag = tracer.span("blockdag.build", plan_span, op, || {
        build_block_dag(program, &BlockConfig::default())
    });
    samples.push("blockdag.blocks", dag.blocks().len() as f64);

    let topo = topology();
    let ledger = ResourceLedger::new();
    let sources: Vec<NodeId> =
        request.sources.iter().map(|s| topo.find(s).expect("known source")).collect();
    let dst = topo.find(&request.destination).expect("known destination");
    let net = tracer.span("topology.reduce", plan_span, op, || {
        let reduced = reduce_for_traffic(&topo, &sources, dst, &request.traffic_weights);
        PlacementNetwork::from_reduced(&topo, &reduced, &ledger)
    });
    let config = PlacementConfig {
        weights: Weights::adaptive(ledger.remaining_ratio(&topo)),
        enable_pruning: true,
    };
    // what the plan itself ran: the memo switched on but empty
    let fresh = SolveCache::new();
    let _ = tracer.span("placement.solve_first", plan_span, op, || {
        place_with_cache(program, &dag, &net, &config, Some(&fresh))
    });
    // the same question with no memo at all, and again with every answer cached
    let _ = tracer.span("placement.solve_cold", probe, op, || {
        place_with_cache(program, &dag, &net, &config, None)
    });
    let before = fresh.stats();
    let _ = tracer.span("placement.solve_memo", probe, op, || {
        place_with_cache(program, &dag, &net, &config, Some(&fresh))
    });
    let after = fresh.stats();
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    if hits + misses > 0 {
        samples.push("placement.memo_hit_ratio", hits as f64 / (hits + misses) as f64);
    }

    let placements = placed_snippets(&topo, deployment);
    tracer.span("ir.verify", plan_span, op, || {
        PassManager::with_default_passes().run(&PassContext {
            tenant: user.to_string(),
            isolated: true,
            programs: std::slice::from_ref(program),
            placements: &placements,
        })
    });
}

/// The stages of `Controller::commit` on the committed deployment: merge into
/// the device images, emit device code, compile and install on the planes.
fn replay_commit_stages(
    tracer: &mut Tracer,
    samples: &mut Samples,
    deployment: &Deployment,
    commit_span: SpanId,
    op: u32,
) {
    let topo = topology();
    let pod_of: BTreeMap<NodeId, Option<usize>> =
        topo.nodes().iter().map(|n| (n.id, n.pod)).collect();
    let mut images = DeviceImages::default();
    tracer.span("synthesis.add_user", commit_span, op, || {
        add_user_program(
            &mut images,
            &base_program(),
            &deployment.program,
            &deployment.plan,
            &pod_of,
        )
    });
    tracer.span("backend.generate", commit_span, op, || {
        for (node, image) in &images.images {
            std::hint::black_box(generate(topo.node(*node).kind, image));
        }
    });
    let mut vm_instrs = 0usize;
    tracer.span("emulator.install", commit_span, op, || {
        for (node, snippets) in &deployment.snippets {
            let node = topo.node(*node);
            let mut plane = DevicePlane::new(&node.name, node.kind.model());
            for snippet in snippets {
                plane.install(snippet.clone());
            }
            vm_instrs += plane
                .compiled_image()
                .map(|image| image.programs().iter().map(|p| p.len()).sum::<usize>())
                .unwrap_or(0);
        }
    });
    samples.push("emulator.vm_instrs", vm_instrs as f64);
}

/// One purge cycle of the churn scenario on a small house: fill to the cap,
/// park three arrivals, let the four oldest leave.  A `remove` that admits a
/// waiter is a `core.queue_drain` span.
pub fn queue_drain(
    tracer: &mut Tracer,
    samples: &mut Samples,
    pool: &[ServiceRequest],
) -> Result<(), String> {
    const CAP: usize = 4;
    const PARKED: usize = 3;
    let probe = tracer.begin("probe.queue_drain", ROOT, 0);
    let service = fresh_service();
    service.set_admission_policy(MaxTenants { max_tenants: CAP });
    let arrival = |i: usize| {
        let mut request = renamed(&pool[i % pool.len()], format!("q{i}"));
        request.priority = (i % 4) as u8;
        request
    };
    for i in 0..CAP {
        service.deploy(arrival(i)).map_err(|e| e.to_string())?;
    }
    for i in CAP..CAP + PARKED {
        match service.deploy_or_queue(arrival(i)) {
            Err(ClickIncError::Rejected { .. }) => {}
            Ok(_) => return Err("a full house admitted an arrival".to_string()),
            Err(err) => return Err(err.to_string()),
        }
    }
    let mut admitted = 0usize;
    for i in 0..CAP {
        let active_before = service.active_users().len();
        // the op is the position in the purge: three, two, one waiters left
        let span = tracer.begin("core.queue_drain", probe, i as u32);
        let removed = service.remove(&format!("q{i}"));
        tracer.end(span);
        removed.map_err(|e| e.to_string())?;
        // one left; as many as keep the count level came from the queue
        let drained = service.active_users().len() + 1 - active_before;
        admitted += drained;
        if drained == 0 {
            tracer.rename(span, "core.remove_no_waiters");
        }
    }
    samples.push("core.queue_admit_ratio", admitted as f64 / PARKED as f64);
    service.finish();
    tracer.end(probe);
    Ok(())
}

/// Commit cost and emitted artefacts as a function of service age: `ages`
/// deploy-then-remove cycles on one controller, sampled in an eight-commit
/// window at each age of interest.  Removed tenants leave `NoOp`s in the
/// device images that every later commit re-emits, so commit time grows with
/// the number of *prior* deploys; fixed-work blocks hold age constant, this
/// sweep makes the growth a number.
pub fn age_sweep(tracer: &mut Tracer, samples: &mut Samples, pool: &[ServiceRequest]) {
    const WINDOW: usize = 8;
    let sample_points: [(usize, &'static str, &'static str, &'static str); 2] = [
        (100, "core.commit_age100", "synthesis.image_instrs_age100", "backend.emitted_loc_age100"),
        (500, "core.commit_age500", "synthesis.image_instrs_age500", "backend.emitted_loc_age500"),
    ];
    let last_age = sample_points.iter().map(|p| p.0).max().unwrap_or(0) + WINDOW;
    let probe = tracer.begin("probe.age_sweep", ROOT, 0);
    let topo = topology();
    let pod_of: BTreeMap<NodeId, Option<usize>> =
        topo.nodes().iter().map(|n| (n.id, n.pod)).collect();
    let mut controller = Controller::new(topo);
    // a shadow of the controller's private device images, fed the same
    // add/remove sequence, to read the image size off
    let mut images = DeviceImages::default();
    let base = base_program();
    for age in 0..last_age {
        let request = renamed(&pool[age % pool.len()], format!("a{age}"));
        let plan = controller.plan(&request).expect("the pool plans on an empty network");
        let point = sample_points.iter().find(|p| (p.0..p.0 + WINDOW).contains(&age));
        let span = point.map(|p| tracer.begin(p.1, probe, age as u32));
        let deployment = controller.commit(plan).expect("a fresh plan commits");
        if let Some(span) = span {
            tracer.end(span);
        }
        add_user_program(&mut images, &base, &deployment.program, &deployment.plan, &pod_of);
        if let Some(point) = point {
            let image_instrs: usize = images.images.values().map(|i| i.instructions.len()).sum();
            let emitted: usize =
                deployment.device_programs.values().map(|p| p.lines_of_code()).sum();
            samples.push(point.2, image_instrs as f64);
            samples.push(point.3, emitted as f64);
        }
        controller.remove(&request.user).expect("the tenant is deployed");
        remove_user_program(&mut images, &request.user, &pod_of);
    }
    tracer.end(probe);
}

/// How many tenants, cycling the pool, a fresh network admits before the
/// first placement failure — the guard against speed bought with worse
/// packing.
pub fn fill_tenants(samples: &mut Samples, pool: &[ServiceRequest]) {
    let mut controller = Controller::new(topology());
    let mut admitted = 0usize;
    loop {
        let request = renamed(&pool[admitted % pool.len()], format!("f{admitted}"));
        match controller.deploy(request) {
            Ok(_) => admitted += 1,
            Err(_) => break,
        }
    }
    samples.push("placement.fill_tenants", admitted as f64);
}

/// Bursts per data-plane probe repetition.
const PROBE_BURSTS: usize = 16;

/// The same packets three ways: through the engine, through the compiled VM
/// alone, through the interpreter alone.
pub fn data_plane(tracer: &mut Tracer, samples: &mut Samples, traffic: &Serve) {
    let op = 0;
    let probe = tracer.begin("probe.data_plane", ROOT, op);

    // the packet source on its own
    let mut source = traffic.source(1, PROBE_BURSTS);
    let packets = (PROBE_BURSTS * traffic.burst_packets()) as f64;
    let started = Instant::now();
    while let Some(generated) = source.next_packet() {
        std::hint::black_box(generated);
    }
    samples.push("runtime.gen_ns_per_pkt", started.elapsed().as_nanos() as f64 / packets);

    let mut fixture = traffic.set_up(PROBE_BURSTS);
    let bursts = std::mem::take(&mut fixture.bursts);
    let hops = fixture.hops();
    let writes = traffic.table_writes();

    let to_engine = bursts.clone();
    let engine_span = tracer.begin("probe.engine", probe, op);
    let allocs_before = alloc::snapshot();
    let mut inject_ns = 0u64;
    let mut flush_ns = 0u64;
    let engine = fixture.service.engine_handle();
    for burst in to_engine {
        let started = Instant::now();
        engine.inject(&fixture.tenant, burst);
        inject_ns += started.elapsed().as_nanos() as u64;
        let started = Instant::now();
        fixture.service.flush();
        flush_ns += started.elapsed().as_nanos() as u64;
    }
    let engine_allocs = alloc::snapshot().since(allocs_before).count as f64 / packets;
    tracer.end(engine_span);
    let engine_ns = (inject_ns + flush_ns) as f64 / packets;
    samples.push("runtime.engine_ns_per_pkt", engine_ns);
    samples.push("runtime.inject_ns_per_pkt", inject_ns as f64 / packets);
    samples.push("runtime.flush_wait_ns_per_pkt", flush_ns as f64 / packets);

    let report = tracer.span("runtime.telemetry", probe, op, || fixture.service.telemetry());
    if let Some(stats) = report.tenant(&fixture.tenant) {
        samples.push("runtime.queue_depth_hwm", stats.queue_depth_hwm as f64);
        samples.push("runtime.shed_pkts", stats.shed_packets as f64);
    }
    fixture.finish();

    let compiled = replay(&hops, ExecMode::Compiled, &writes, packets_of(&bursts));
    let interpreted = replay(&hops, ExecMode::Interpreted, &writes, packets_of(&bursts));
    let vm_ns = compiled.process_ns as f64 / packets;
    let vm_allocs = compiled.allocs as f64 / packets;
    samples.push("emulator.vm_ns_per_pkt", vm_ns);
    samples.push("emulator.interp_ns_per_pkt", interpreted.process_ns as f64 / packets);
    samples.push("emulator.vm_instrs_per_pkt", compiled.instructions as f64 / packets);
    samples.push("emulator.allocs_per_pkt", vm_allocs);
    samples.push("emulator.hops_per_pkt", compiled.hop_visits as f64 / packets);
    samples.push("emulator.hit_ratio", compiled.backs as f64 / packets);
    samples.push("runtime.self_ns_per_pkt", engine_ns - vm_ns);
    samples.push("runtime.allocs_per_pkt", engine_allocs - vm_allocs);
    tracer.end(probe);
}
