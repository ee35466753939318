//! Property tests for the incremental-placement pipeline: the segment memo
//! is a pure accelerator (a warm service plans bit-identically to a cold
//! one solving every subproblem from scratch, whatever the arrival and
//! departure sequence), and no plan solved after a device failure touches
//! the failed device, while a restore converges placements back.  So is the
//! same-source reuse: an arrival isolating a resident's compiled program and
//! placing on its block DAG and placement inputs plans and installs exactly
//! what compiling and preparing its own source would.

use clickinc::blockdag::{build_block_dag, BlockConfig};
use clickinc::frontend::compile_source;
use clickinc::ir::{
    AluOp, CmpOp, DiagnosticSet, Guard, HashAlgo, IrProgram, Operand, Optimizer, Predicate,
    ProgramBuilder, ValueType,
};
use clickinc::synthesis::isolate_user_program;
use clickinc::{ClickIncService, Controller, ServiceRequest};
use clickinc_lang::templates::{
    count_min_sketch, kvs_template, mlagg_template, KvsParams, MlAggParams,
};
use clickinc_placement::{PlacementInputs, PlacementPlan};
use clickinc_topology::Topology;
use proptest::prelude::*;
use std::sync::Arc;

/// A request from the churn scenario's shape pool: six canonical shapes
/// (KVS, MLAgg, CMS with two parameterizations each) under a fresh tenant
/// name — co-tenant shape reuse is the memo's unit of caching.
fn pooled_request(user: &str, slot: u8) -> ServiceRequest {
    let slot = (slot % 6) as usize;
    let builder = ServiceRequest::builder(user);
    let builder = match slot % 3 {
        0 => builder
            .template(kvs_template(
                user,
                KvsParams { cache_depth: 1000 + 500 * (slot as u32 / 3), ..Default::default() },
            ))
            .from_("pod0a"),
        1 => builder
            .template(mlagg_template(
                user,
                MlAggParams {
                    dims: 16 + 8 * (slot as u32 / 3),
                    num_aggregators: 512,
                    ..Default::default()
                },
            ))
            .from_("pod1a"),
        _ => builder.template(count_min_sketch(user, 3, 512 << (slot / 3))).from_("pod0b"),
    };
    builder.to("pod2b").build().expect("pooled request is well-formed")
}

/// The placement solution's observable substance: which devices, how many
/// instructions each, and what resource demand each assignment stamps on
/// the ledger.
fn solution_of(plan: &PlacementPlan) -> Vec<(String, usize, String)> {
    plan.assignments
        .iter()
        .filter(|a| !a.is_empty())
        .map(|a| (a.device.clone(), a.instruction_count(), format!("{:?}", a.demand)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Whatever epoch-move sequence (arrivals committing demand, departures
    /// releasing it), a memoized service plans bit-identically to a cold
    /// one with the memo disabled: same plan fingerprint, same placement
    /// fingerprint, same per-device instruction counts and ledger demand —
    /// and when one side cannot place, the other fails the same way.
    #[test]
    fn warm_solves_are_bit_identical_to_cold(
        ops in proptest::collection::vec(0u8..60, 4..20),
    ) {
        let topology = Topology::emulation_topology_all_tofino();
        let warm = ClickIncService::new(topology.clone()).expect("warm service starts");
        let cold = ClickIncService::new(topology).expect("cold service starts");
        cold.controller().set_solve_memo(false);

        let mut active: Vec<String> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            // each op packs a shape slot and a departure roll: a ~30%
            // departure mix keeps both arrival and release epochs in the
            // sequence
            let (slot, roll) = (op % 6, op / 6);
            let slot = &slot;
            if roll < 3 && !active.is_empty() {
                // departure: both sides release the same tenant, moving the
                // epoch and the ledger in lockstep
                let user = active.remove(*slot as usize % active.len());
                warm.remove(&user).expect("warm removal succeeds");
                cold.remove(&user).expect("cold removal succeeds");
                continue;
            }
            let user = format!("tenant{i}");
            match (warm.plan(&pooled_request(&user, *slot)), cold.plan(&pooled_request(&user, *slot))) {
                (Ok(wp), Ok(cp)) => {
                    prop_assert_eq!(wp.fingerprint(), cp.fingerprint(), "plan fingerprints diverged");
                    prop_assert_eq!(
                        wp.placement().fingerprint(),
                        cp.placement().fingerprint(),
                        "placement fingerprints diverged"
                    );
                    prop_assert_eq!(solution_of(wp.placement()), solution_of(cp.placement()));
                    // commit on both sides: the next arrival solves against
                    // a moved epoch and a depleted ledger
                    warm.deploy(pooled_request(&user, *slot)).expect("warm deploy after a clean plan");
                    cold.deploy(pooled_request(&user, *slot)).expect("cold deploy after a clean plan");
                    active.push(user);
                }
                (Err(we), Err(ce)) => {
                    prop_assert_eq!(we.to_string(), ce.to_string(), "failure modes diverged");
                }
                (warm_result, cold_result) => {
                    prop_assert!(
                        false,
                        "warm/cold feasibility diverged for {}: warm {:?}, cold {:?}",
                        user,
                        warm_result.map(|p| p.fingerprint()),
                        cold_result.map(|p| p.fingerprint()),
                    );
                }
            }
        }

        // the speedup is real only if the warm side consulted the memo and
        // the cold side never touched it
        let warm_stats = warm.controller().solve_cache_stats();
        let cold_stats = cold.controller().solve_cache_stats();
        prop_assert!(warm_stats.hits + warm_stats.misses > 0, "the warm side must use the memo");
        prop_assert_eq!(cold_stats.hits + cold_stats.misses, 0, "the cold side must bypass it");
        prop_assert_eq!(cold_stats.entries, 0, "a memo-less service caches nothing");
        warm.finish();
        cold.finish();
    }

    /// Plan a batch, down a device some plan uses, and re-plan: no plan
    /// solved against the degraded topology touches the failed device.
    /// Restoring the device converges the solutions back to the originals.
    #[test]
    fn no_plan_touches_a_downed_device_and_restore_converges(
        victim_pick in 0usize..16,
        slots in proptest::collection::vec(0u8..6, 4..10),
    ) {
        let service = ClickIncService::new(Topology::emulation_topology_all_tofino())
            .expect("service starts");
        let requests: Vec<ServiceRequest> = slots
            .iter()
            .enumerate()
            .map(|(i, slot)| pooled_request(&format!("planned{i}"), *slot))
            .collect();
        let plan_each = || -> Vec<_> { requests.iter().map(|r| service.plan(r)).collect() };

        let first: Vec<_> = plan_each()
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .expect("every pooled request solves on the empty network");

        // the victim is a physical device some plan actually touches
        let mut devices: Vec<String> = first
            .iter()
            .flat_map(|p| p.physical_devices().iter().cloned())
            .collect();
        devices.sort();
        devices.dedup();
        let victim = devices[victim_pick % devices.len()].clone();

        service.fail_device(&victim).expect("downing an idle device succeeds");
        for plan in plan_each().into_iter().flatten() {
            prop_assert!(
                !plan.physical_devices().contains(&victim),
                "a served plan touches the downed device {}", &victim
            );
            // the placement labels carry the physical name in brackets
            // (e.g. `tor[ToR5]`): none may mention the victim
            let bracketed = format!("[{}]", &victim);
            prop_assert!(
                !plan.placement().devices_used().iter().any(|d| d.contains(&bracketed))
            );
        }

        // the restore brings the capacity back: re-planning converges to
        // the original placement solutions
        service.restore_device(&victim).expect("restore succeeds");
        let restored: Vec<_> = plan_each()
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .expect("every pooled request solves again after the restore");
        let placement_fp =
            |plans: &[clickinc::DeploymentPlan]| -> Vec<u64> {
                plans.iter().map(|p| p.placement().fingerprint()).collect()
            };
        prop_assert_eq!(placement_fp(&first), placement_fp(&restored));
        service.finish();
    }
}

/// `request` with a comment appended: another text of the same program, so
/// a resident deployed from it lends nothing to an arrival of `request`.
fn retexted(mut request: ServiceRequest) -> ServiceRequest {
    request.source.push_str("# the same program, another text\n");
    request
}

/// For every pooled shape: an arrival whose source a resident runs reuses
/// that resident's compiled program, block DAG and placement inputs, and
/// plans, fingerprints and installs exactly as on a controller where that
/// resident left first.  Both
/// controllers deploy `donor` twice with a removal between — once from the
/// arrival's text and once from an equivalent one, in opposite orders — so
/// they reach one ledger, epoch and next numeric id.
#[test]
fn a_same_source_arrival_plans_and_installs_as_a_fresh_compile_would() {
    for slot in 0..6 {
        let donor = pooled_request("donor", slot);
        let arrival = pooled_request("arrival", slot);
        let setup = |first: ServiceRequest, second: ServiceRequest| {
            let mut controller = Controller::new(Topology::emulation_topology_all_tofino());
            controller.deploy(first).expect("first donor deploys");
            controller.remove("donor").expect("first donor leaves");
            controller.deploy(second).expect("second donor deploys");
            controller
        };
        let mut reused = setup(retexted(donor.clone()), donor.clone());
        let mut fresh = setup(donor.clone(), retexted(donor));
        assert_eq!(reused.epoch(), fresh.epoch());
        let lent = |c: &Controller| Arc::clone(&c.deployment("donor").unwrap().prepared);

        let reused_plan = reused.plan(&arrival).expect("plans");
        let fresh_plan = fresh.plan(&arrival).expect("plans");
        assert!(Arc::ptr_eq(reused_plan.prepared(), &lent(&reused)), "slot {slot}");
        assert!(!Arc::ptr_eq(fresh_plan.prepared(), &lent(&fresh)), "slot {slot}");
        assert_eq!(reused_plan.program(), fresh_plan.program(), "slot {slot}");
        assert_eq!(reused_plan.dag(), fresh_plan.dag(), "slot {slot}");
        let untimed = |plan: &clickinc::DeploymentPlan| PlacementPlan {
            solve_time: Default::default(),
            ..plan.placement().clone()
        };
        assert_eq!(untimed(&reused_plan), untimed(&fresh_plan), "slot {slot}");
        assert_eq!(reused_plan.fingerprint(), fresh_plan.fingerprint(), "slot {slot}");

        reused.commit(reused_plan).expect("commits");
        fresh.commit(fresh_plan).expect("commits");
        assert_eq!(reused.image_fingerprints(), fresh.image_fingerprints(), "slot {slot}");
        // the committed arrival carries the shared record on
        let carried = &reused.deployment("arrival").unwrap().prepared;
        assert!(Arc::ptr_eq(carried, &lent(&reused)));
    }
}

/// A `plan_isolated` resident compiled nothing, so it lends nothing — no
/// compiled program and no solve inputs — even when its request names the
/// arrival's source text but it runs another program.
#[test]
fn an_isolated_resident_lends_no_compiled_program() {
    let mut controller = Controller::new(Topology::emulation_topology_all_tofino());
    let expert = pooled_request("expert", 0);
    let forward = compile_source("expert", "forward()\n").expect("compiles");
    let planned = controller
        .plan_isolated(&expert, isolate_user_program(&forward, "expert", 1))
        .expect("plans");
    assert!(planned.compiled().is_none());
    controller.commit(planned).expect("commits");
    let resident = Arc::clone(&controller.deployment("expert").unwrap().prepared);
    assert!(resident.compiled.is_none());

    let arrival = pooled_request("arrival", 0);
    let plan = controller.plan(&arrival).expect("plans");
    let own = compile_source("arrival", &arrival.source).expect("compiles");
    assert_eq!(plan.compiled().unwrap().instructions, own.instructions);
    assert!(!Arc::ptr_eq(plan.prepared(), &resident));
    assert_ne!(plan.dag(), &resident.dag);
}

/// A well-formed program over five arrays and a hash unit, in the style of
/// `crates/ir/tests/slice.rs`: each seed byte appends one instruction, and
/// every third one past the first is guarded on the temporary before it.
/// Two arrays already carry a candidate tenant's prefix (`a_s0` beside
/// `s0`, `zz_top_s1` beside `s1`), which isolation prefixes again.
fn arb_program(seed: &[u8]) -> IrProgram {
    let mut b = ProgramBuilder::new("prop");
    b.header("x", ValueType::Bit(32));
    for name in ["s0", "s1", "s2", "a_s0", "zz_top_s1"] {
        b.array(name, 1, 64, 32);
    }
    b.hash_fn("h", HashAlgo::Crc16, Some(64));
    for (i, byte) in seed.iter().enumerate() {
        let var = format!("v{i}");
        let index = vec![Operand::int(i64::from(*byte % 64))];
        let last = if i == 0 { Operand::hdr("x") } else { Operand::var(format!("v{}", i - 1)) };
        match byte % 8 {
            0 => b.alu(&var, AluOp::Add, last, Operand::int(i64::from(*byte))),
            1 => b.alu(&var, AluOp::Add, Operand::int(1), Operand::int(i64::from(*byte))),
            2 => b.get(&var, "s0", index),
            3 => b.count(Some(&var), "s1", index, Operand::int(1)),
            4 => b.hash(&var, "h", vec![last]),
            5 => b.write("a_s0", index, vec![last]).assign(&var, Operand::hdr("x")),
            6 => b.count(Some(&var), "zz_top_s1", index, Operand::int(1)),
            _ => b.write("s2", index, vec![last]).assign(&var, Operand::hdr("x")),
        };
    }
    b.set_header("x", Operand::var(format!("v{}", seed.len() - 1)));
    b.forward();
    let mut program = b.build().expect("generated program is well-formed");
    for i in (3..program.instructions.len()).step_by(3) {
        let Some(prev) = program.instructions[i - 1].dest().map(str::to_string) else { continue };
        let guard = Predicate::new(Operand::var(&prev), CmpOp::Ne, Operand::int(0));
        program.instructions[i].guard = Some(Guard::single(guard));
    }
    program
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// What a same-source arrival borrows is name-invariant: one program
    /// isolated under two tenants and numeric ids, then optimized, has equal
    /// block DAGs, step orders, cut costs, shape keys and allocator facts —
    /// also when some of its names already carry one tenant's prefix.
    #[test]
    fn the_lent_solve_inputs_are_name_invariant(
        seed in proptest::collection::vec(any::<u8>(), 1..24),
        tenant_a in 0usize..4,
        tenant_b in 0usize..4,
        id_a in 1i64..1_000,
        id_b in 1i64..1_000,
    ) {
        const NAMES: [&str; 4] = ["a", "tenant7", "c12", "zz_top"];
        let program = arb_program(&seed);
        let derive = |user: &str, id: i64| {
            let isolated = isolate_user_program(&program, user, id);
            let mut diagnostics = DiagnosticSet::new();
            let program =
                Optimizer::with_default_passes().optimize(user, true, &isolated, &mut diagnostics);
            let dag = build_block_dag(&program, &BlockConfig::default());
            let inputs = PlacementInputs::new(&program, &dag);
            inputs.fill(&program, &dag);
            (program, dag, inputs)
        };
        let (program_a, dag_a, a) = derive(NAMES[tenant_a], id_a);
        let (program_b, dag_b, b) = derive(NAMES[tenant_b], id_b);
        prop_assert_eq!(&dag_a, &dag_b);
        prop_assert_eq!(a.order(), b.order());
        prop_assert_eq!(a.cut_costs(), b.cut_costs());
        prop_assert_eq!(a.shape(&program_a, &dag_a), b.shape(&program_b, &dag_b));
        prop_assert_eq!(a.facts(), b.facts());
        prop_assert_eq!(&a, &b);
    }
}
