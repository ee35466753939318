//! The static-verification pipeline, end to end:
//!
//! 1. **Golden fig13 diagnostics** — every provider-template program used by
//!    the fig13-scale scenarios verifies clean (no errors, no warnings), and
//!    the classification infos the pipeline does emit are byte-stable.
//! 2. **Per-pass trip fixtures** — six mutated programs, each constructed to
//!    trip exactly one verifier pass exactly once.
//! 3. **The service gate** — a tenant whose isolated object name another
//!    resident tenant already declares is refused as
//!    `ClickIncError::Verification` before any ledger or image mutation, and
//!    the diagnostics JSON export round-trips.
//! 4. **Verification ⇒ runs clean** — proptest: any generated program the
//!    pipeline passes executes on the emulator with every constant-indexed
//!    count landing in exactly the addressed cell (no wrap-around aliasing),
//!    over sampled packet traces.

use clickinc::lang::templates::{
    count_min_sketch, dqacc_template, kvs_template, mlagg_sparse_user, mlagg_template, DqAccParams,
    KvsParams, MlAggParams,
};
use clickinc::topology::Topology;
use clickinc::{ClickIncError, ClickIncService, Controller, ServiceRequest};
use clickinc_device::DeviceModel;
use clickinc_emulator::{DevicePlane, Packet};
use clickinc_frontend::compile_source;
use clickinc_ir::analysis::{DeviceTarget, PlacedSnippet};
use clickinc_ir::{
    DiagnosticSet, IrProgram, Operand, PassContext, PassManager, ProgramBuilder, Severity,
    ValueType,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Run the default pipeline over one program with no placement slices.
fn verify(tenant: &str, program: &IrProgram, isolated: bool) -> DiagnosticSet {
    PassManager::with_default_passes().run(&PassContext {
        tenant: tenant.to_string(),
        isolated,
        programs: std::slice::from_ref(program),
        placements: &[],
    })
}

fn request(user: &str, source: &str) -> ServiceRequest {
    ServiceRequest::new(user, source, &["pod0a"], "pod2b")
}

// ---- 1. golden fig13 diagnostics -----------------------------------------

#[test]
fn fig13_template_programs_verify_clean_through_the_service() {
    let service = ClickIncService::new(Topology::emulation_topology_all_tofino())
        .expect("engine config is valid");
    let mlagg_params =
        MlAggParams { dims: 32, num_workers: 4, num_aggregators: 4096, is_float: false };
    let cases: Vec<(&str, String)> = vec![
        (
            "kvs_srv",
            kvs_template("kvs_srv", KvsParams { cache_depth: 2000, ..Default::default() }).source,
        ),
        ("mlagg", mlagg_template("mlagg", mlagg_params).source),
        ("dqacc", dqacc_template("dqacc", DqAccParams::default()).source),
        ("cms", count_min_sketch("cms", 3, 512).source),
    ];
    let mut rendered: Vec<String> = Vec::new();
    let mut summary: BTreeMap<String, usize> = BTreeMap::new();
    for (user, source) in &cases {
        let plan = service.plan(&request(user, source)).expect("fig13 template plans");
        let diags = plan.diagnostics();
        assert!(!diags.has_errors(), "{user} must verify clean:\n{diags}");
        assert!(!diags.has_warnings(), "{user} must carry no warnings:\n{diags}");
        for d in diags.iter() {
            assert_eq!(d.severity, Severity::Info);
            *summary.entry(format!("{user}/{}", d.pass)).or_insert(0) += 1;
            rendered.push(d.to_string());
        }
    }
    // golden snapshot of the classification infos: the per-pass counts are
    // byte-stable across runs, so any drift in the analyses diffs here.
    // cms's two dead values are *eliminated* (the dead-snippet warnings the
    // seed carried are gone because the optimizer removes the instructions
    // before the verifier re-runs).
    let golden: BTreeMap<String, usize> = [
        ("cms/dead-value-elim", 1),
        ("dqacc/commutativity", 8),
        ("mlagg/commutativity", 70),
        ("mlagg/split-execution", 2),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    assert_eq!(summary, golden, "the fig13 classification set drifted:\n{}", rendered.join("\n"));
    // and one fully-rendered line stays byte-identical
    assert_eq!(
        rendered[0],
        "info [commutativity] mlagg/mlagg: instruction i8 performs a non-commutative \
         `overwrite` mutation of mlagg_valid_t; the deployment cannot be flow-sharded"
    );
}

#[test]
fn fig13_plane_programs_verify_clean_without_isolation() {
    // the fig13 scenarios install these programs on emulated planes directly
    // (no tenant isolation), which is exactly what `isolated: false` models
    let params = MlAggParams { dims: 32, num_workers: 4, num_aggregators: 4096, is_float: false };
    let sparse = mlagg_sparse_user("sparse", params, 4, 8);
    let compression: String = sparse
        .source
        .lines()
        .filter(|l| !l.trim_start().starts_with("agg(hdr)"))
        .collect::<Vec<_>>()
        .join("\n");
    for (user, source) in
        [("mlagg", mlagg_template("mlagg", params).source), ("sparse", compression)]
    {
        let ir = compile_source(user, &source).expect("fig13 program compiles");
        let diags = verify(user, &ir, false);
        assert!(!diags.has_errors(), "{user}:\n{diags}");
        assert!(!diags.has_warnings(), "{user}:\n{diags}");
    }
}

// ---- 2. one fixture per pass ---------------------------------------------

/// Count how many diagnostics `pass` emitted, and assert nothing else fired.
fn only_pass(diags: &DiagnosticSet, pass: &str) -> usize {
    for d in diags.iter() {
        assert_eq!(d.pass, pass, "unexpected extra finding: {d}");
    }
    diags.iter().count()
}

#[test]
fn isolation_fixture_trips_the_isolation_pass_once() {
    let mut b = ProgramBuilder::new("alice");
    b.array("mallory_secret", 1, 8, 32);
    b.set_header("flag", Operand::int(1));
    b.forward();
    let program = b.build().expect("fixture builds");
    let diags = verify("alice", &program, true);
    assert_eq!(only_pass(&diags, "isolation"), 1, "{diags}");
    assert_eq!(diags.worst(), Some(Severity::Error));
}

#[test]
fn uninit_header_fixture_trips_the_uninit_header_pass_once() {
    let mut b = ProgramBuilder::new("t");
    b.set_header("out", Operand::hdr("ghost"));
    b.forward();
    let program = b.build().expect("fixture builds");
    let diags = verify("t", &program, false);
    assert_eq!(only_pass(&diags, "uninit-header"), 1, "{diags}");
    assert_eq!(diags.worst(), Some(Severity::Error));
}

#[test]
fn bounds_fixture_trips_the_bounds_pass_once() {
    let mut b = ProgramBuilder::new("t");
    b.array("ctr", 1, 4, 32);
    b.count(None, "ctr", vec![Operand::int(0), Operand::int(9)], Operand::int(1));
    b.forward();
    let program = b.build().expect("fixture builds");
    let diags = verify("t", &program, false);
    assert_eq!(only_pass(&diags, "bounds"), 1, "{diags}");
    assert_eq!(diags.worst(), Some(Severity::Error));
}

#[test]
fn resource_bound_fixture_trips_the_resource_pass_once() {
    // a keyed count is fine everywhere — except on a device that supports no
    // capability class at all
    let mut b = ProgramBuilder::new("t");
    b.header("key", ValueType::Bit(32));
    b.array("ctr", 1, 4, 32);
    b.count(None, "ctr", vec![Operand::hdr("key")], Operand::int(1));
    b.forward();
    let program = b.build().expect("fixture builds");
    let placements = vec![PlacedSnippet {
        device: "crippled0".to_string(),
        target: DeviceTarget {
            device: "crippled0".to_string(),
            kind: "test".to_string(),
            supported: Default::default(),
            storage_capacity_bits: u64::MAX,
        },
        program: program.clone().into(),
    }];
    let diags = PassManager::with_default_passes().run(&PassContext {
        tenant: "t".to_string(),
        isolated: false,
        programs: std::slice::from_ref(&program),
        placements: &placements,
    });
    assert_eq!(only_pass(&diags, "resource-bound"), 1, "{diags}");
    assert_eq!(diags.worst(), Some(Severity::Error));
}

#[test]
fn dead_snippet_fixture_trips_the_dead_snippet_pass_once() {
    let mut b = ProgramBuilder::new("t");
    b.forward();
    let program = b.build().expect("fixture builds");
    let diags = verify("t", &program, false);
    assert_eq!(only_pass(&diags, "dead-snippet"), 1, "{diags}");
    assert_eq!(diags.worst(), Some(Severity::Warning));
}

#[test]
fn commutativity_fixture_trips_the_commutativity_pass_once() {
    let mut b = ProgramBuilder::new("t");
    b.header("key", ValueType::Bit(32));
    b.header("seq", ValueType::Bit(32));
    b.array("reg", 1, 64, 32);
    b.write("reg", vec![Operand::int(0), Operand::hdr("key")], vec![Operand::hdr("seq")]);
    b.forward();
    let program = b.build().expect("fixture builds");
    let diags = verify("t", &program, false);
    assert_eq!(only_pass(&diags, "commutativity"), 1, "{diags}");
    assert_eq!(diags.worst(), Some(Severity::Info));
}

// ---- 3. the service gate --------------------------------------------------

/// Isolation prefixes names with `{user}_`, which is not prefix-free: tenant
/// `a`'s `b_cache` and tenant `a_b`'s `cache` both isolate to `a_b_cache`.
/// Whichever deploys second is refused, in either order, before any mutation.
#[test]
fn tenants_whose_isolated_names_collide_are_refused_in_either_order() {
    let kvs = kvs_template("a_b", KvsParams { cache_depth: 64, ..Default::default() }).source;
    let leak = "b_cache = Table(type=\"exact\", key_bits=128, val_bits=32, depth=64)\n\
                hdr.leak = get(b_cache, hdr.key)\n\
                forward()\n";
    for [(first, first_source), (second, second_source)] in
        [[("a_b", kvs.as_str()), ("a", leak)], [("a", leak), ("a_b", kvs.as_str())]]
    {
        let mut controller = Controller::new(Topology::emulation_topology_all_tofino());
        controller.deploy(request(first, first_source)).expect("the first tenant deploys");
        let images_before = controller.image_fingerprints();
        let ratio_before = controller.remaining_resource_ratio();

        match controller.deploy(request(second, second_source)) {
            Err(ClickIncError::Verification { user, diagnostics }) => {
                assert_eq!(user, second);
                let errors: Vec<_> = diagnostics.at(Severity::Error).collect();
                assert_eq!(errors.len(), 1, "{diagnostics}");
                assert_eq!(errors[0].pass, "isolation");
                assert_eq!(
                    errors[0].message,
                    format!("object `a_b_cache` is already declared by tenant `{first}`")
                );
                // the JSON export round-trips losslessly (the CI artifact format)
                let back = DiagnosticSet::from_json(&diagnostics.to_json()).expect("parses");
                assert_eq!(back, diagnostics);
            }
            Err(other) => panic!("expected ClickIncError::Verification, got {other:?}"),
            Ok(_) => panic!("`{second}` deployed onto `{first}`'s `a_b_cache`"),
        }

        assert_eq!(controller.image_fingerprints(), images_before);
        assert_eq!(controller.remaining_resource_ratio(), ratio_before);
        assert_eq!(controller.active_users(), vec![first]);
    }

    // a user id extending another's is fine while the names stay apart
    let mut controller = Controller::new(Topology::emulation_topology_all_tofino());
    for user in ["kvs", "kvs_srv"] {
        let source = kvs_template(user, KvsParams { cache_depth: 64, ..Default::default() }).source;
        controller.deploy(request(user, &source)).expect("disjoint names deploy");
    }
    assert_eq!(controller.active_users(), vec!["kvs", "kvs_srv"]);
}

/// The verifier judges a device as placement does: a bypass accelerator's
/// capability classes and storage count as the device's own.  Float MLAgg
/// places its float ALUs (class BCA) on the FPGA-bypassed Trident4
/// aggregation switches of the mixed Fig. 11 topology, which the Trident4
/// alone cannot run.
#[test]
fn plans_on_bypassed_devices_verify_as_placed() {
    let params = MlAggParams { dims: 16, num_workers: 4, num_aggregators: 512, is_float: true };
    let source = mlagg_template("fagg", params).source;
    for sources in [&["pod0a"][..], &["pod0a", "pod0b"], &["pod2b"]] {
        let mut controller = Controller::new(Topology::emulation_topology());
        let request = ServiceRequest::new("fagg", &source, sources, "pod2a");
        controller.deploy(request).expect("float MLAgg deploys");
        let deployment = controller.deployment("fagg").expect("deployed");
        let bypassed = deployment
            .plan
            .assignments
            .iter()
            .filter(|a| !a.is_empty())
            .flat_map(|a| &a.members)
            .any(|id| controller.topology().node(*id).bypass.is_some());
        assert!(bypassed, "{sources:?}: the plan uses a bypassed device");
    }
}

// ---- 4. verification ⇒ runs clean ----------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any generated counter program the pipeline passes runs on the
    /// emulator with every count landing in exactly the addressed cell —
    /// and the pipeline errors precisely when a constant index would have
    /// wrapped at runtime.
    #[test]
    fn verified_programs_run_without_store_aliasing(
        rows in 1u32..4,
        size in 1u32..12,
        raw_accesses in proptest::collection::vec(0u32..96, 1..6),
        packets in 1i64..6,
    ) {
        // the vendored proptest has no tuple strategies: decode each access
        // as (row, cell) from one integer in 0..6×16
        let accesses: Vec<(u32, u32)> = raw_accesses.iter().map(|v| (v / 16, v % 16)).collect();
        let mut b = ProgramBuilder::new("t");
        b.array("ctr", rows, size, 32);
        for (row, idx) in &accesses {
            b.count(None, "ctr", vec![Operand::int(i64::from(*row)), Operand::int(i64::from(*idx))], Operand::int(1));
        }
        b.forward();
        let program = b.build().expect("generated program is well-formed");

        let diags = verify("t", &program, false);
        let in_bounds = accesses.iter().all(|(r, i)| *r < rows && *i < size);
        prop_assert_eq!(!diags.has_errors(), in_bounds, "verifier disagrees with geometry:\n{}", diags);

        if !diags.has_errors() {
            let mut plane = DevicePlane::new("dev", DeviceModel::tofino());
            plane.install(program);
            for _ in 0..packets {
                let mut pkt = Packet::new("src", "dst", 1, BTreeMap::new());
                plane.process(&mut pkt);
            }
            // every cell holds packets × (number of accesses addressing it):
            // nothing wrapped, nothing aliased, nothing leaked elsewhere
            let mut expected: BTreeMap<(u32, u32), i64> = BTreeMap::new();
            for (r, i) in &accesses {
                *expected.entry((*r, *i)).or_insert(0) += packets;
            }
            for r in 0..rows {
                for i in 0..size {
                    let want = expected.get(&(r, i)).copied().unwrap_or(0);
                    prop_assert_eq!(plane.store().array_read("ctr", r, i), want);
                }
            }
        }
    }
}
