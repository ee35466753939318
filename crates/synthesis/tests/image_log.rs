//! The image log is the eager image, replayed: random interleavings of
//! merges and strikes over a few devices, driven both through `ImageLogs`
//! and through the eager `DeviceImages` path (`add_slices` /
//! `remove_user_program_from`).  After every operation the two report the
//! same `DeploymentDelta`, the materialized images equal the eager ones as
//! whole programs (lazy-removal `NoOp`s and header order included), and each
//! log holds no more than the slices its last merge kept plus the strikes
//! since.

use clickinc_frontend::compile_source;
use clickinc_ir::{
    DiagnosticSet, IrProgram, OpCode, Operand, Optimizer, ProgramBuilder, ValueType,
};
use clickinc_lang::templates::{
    count_min_sketch, kvs_template, mlagg_template, KvsParams, MlAggParams,
};
use clickinc_synthesis::incremental::DeviceImages;
use clickinc_synthesis::{
    add_slices, base_program, isolate_user_program, remove_user_program_from, ImageLogs,
};
use clickinc_topology::NodeId;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};

/// The tenants the slices below belong to, in strike-index order.
const TENANTS: [&str; 4] = ["cms_a", "kvs_b", "agg_c", "hand_d"];

/// `source` compiled, isolated and optimized as a deploy does (so the
/// tenant guard is hoisted into the precondition), cut into two slices.
fn halves(user: &str, id: i64, source: &str) -> [IrProgram; 2] {
    let ir = compile_source(user, source).unwrap();
    let isolated = isolate_user_program(&ir, user, id);
    let program =
        Optimizer::with_default_passes().optimize(user, true, isolated, &mut DiagnosticSet::new());
    let mid = program.len() / 2;
    [
        program.slice(&(0..mid).collect::<Vec<_>>()),
        program.slice(&(mid..program.len()).collect::<Vec<_>>()),
    ]
}

/// A program of the kind a pre-isolated request brings: an instruction with a
/// second owner (`cms_a`), an operator-owned (ownerless) instruction and
/// object, and a header no template declares.  Cut in two: the doubly owned
/// instruction alone, so a strike of either owner leaves the slice partly
/// owned, and the rest.
fn hand_built() -> [IrProgram; 2] {
    let mut b = ProgramBuilder::new("hand_d");
    b.header("hand_hdr", ValueType::Bit(16));
    b.array("hand_d_arr", 1, 64, 32);
    b.array("shared_arr", 1, 64, 32);
    b.assign("hand_d_x", Operand::hdr("hand_hdr"));
    b.count(None, "shared_arr", vec![Operand::var("hand_d_x")], Operand::int(1));
    b.assign("op_tag", Operand::int(7));
    b.count(None, "hand_d_arr", vec![Operand::var("hand_d_x")], Operand::int(1));
    let mut program = b.build().unwrap();
    let owners: [&[&str]; 4] = [&["hand_d", "cms_a"], &["hand_d"], &[], &["hand_d"]];
    for (instr, owners) in program.instructions.iter_mut().zip(owners) {
        instr.owners = owners.iter().map(|o| o.to_string()).collect();
    }
    let owned = program.objects.iter_mut().find(|o| o.name == "hand_d_arr").unwrap();
    owned.owner = Some("hand_d".into());
    [program.slice(&[0]), program.slice(&[1, 2, 3])]
}

/// Every slice a merge may bring, shared as a deploy shares them.
fn slices() -> &'static [Arc<IrProgram>] {
    static SLICES: OnceLock<Vec<Arc<IrProgram>>> = OnceLock::new();
    SLICES.get_or_init(|| {
        let cms = count_min_sketch("cms_a", 3, 512);
        let kvs = kvs_template("kvs_b", KvsParams { cache_depth: 64, ..Default::default() });
        let agg = mlagg_template("agg_c", MlAggParams { dims: 4, ..Default::default() });
        let mut all: Vec<IrProgram> = Vec::new();
        all.extend(halves("cms_a", 1, &cms.source));
        all.extend(halves("kvs_b", 2, &kvs.source));
        all.extend(halves("agg_c", 3, &agg.source));
        all.extend(hand_built());
        all.into_iter().map(Arc::new).collect()
    })
}

/// The test's own account of one device: every slice ever merged onto it
/// with the tenants struck since, how many of them the last merge kept, and
/// the strikes since.
#[derive(Default)]
struct Shadow {
    merged: Vec<(Arc<IrProgram>, BTreeSet<String>)>,
    kept_by_last_merge: usize,
    strikes_since_merge: usize,
}

/// Whether anything of `slice` survives its `struck` tenants' strikes: an
/// instruction with an owner left (or none to begin with), or an object
/// nobody struck owns.
fn survives(slice: &IrProgram, struck: &BTreeSet<String>) -> bool {
    let instr = slice.instructions.iter().any(|i| {
        !matches!(i.op, OpCode::NoOp)
            && (i.owners.is_empty() || i.owners.iter().any(|o| !struck.contains(o)))
    });
    instr || slice.objects.iter().any(|o| o.owner.as_ref().is_none_or(|o| !struck.contains(o)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn materialized_logs_equal_the_eager_images(
        device_count in 2usize..4,
        ops in proptest::collection::vec(0u64..u64::MAX, 1..48),
    ) {
        let base = base_program();
        let slices = slices();
        let devices: Vec<NodeId> = (0..device_count).map(NodeId).collect();
        // the last device sits in no pod
        let pod_of: BTreeMap<NodeId, Option<usize>> =
            devices.iter().map(|d| (*d, (d.0 < 2).then_some(d.0))).collect();
        let mut eager = DeviceImages::default();
        let mut logs = ImageLogs::default();
        let mut shadow: BTreeMap<NodeId, Shadow> = BTreeMap::new();

        for (step, op) in ops.iter().enumerate() {
            let bits = (op >> 8) as usize % (1 << device_count);
            let members: Vec<NodeId> = if bits == 0 {
                vec![devices[(op >> 16) as usize % device_count]]
            } else {
                devices.iter().copied().filter(|d| bits & (1 << d.0) != 0).collect()
            };
            let (expected, got) = if op % 8 < 5 {
                let slice = &slices[(op >> 3) as usize % slices.len()];
                let expected = add_slices(&mut eager, &base, [(&members[..], &**slice)], &pod_of);
                let got = logs.add_slices([(&members[..], slice)], &pod_of);
                for member in &members {
                    let s = shadow.entry(*member).or_default();
                    let kept = s.merged.iter().filter(|(m, struck)| survives(m, struck)).count();
                    s.merged.push((Arc::clone(slice), BTreeSet::new()));
                    s.kept_by_last_merge = kept + 1;
                    s.strikes_since_merge = 0;
                }
                (expected, got)
            } else {
                let user = TENANTS[(op >> 3) as usize % TENANTS.len()];
                let expected = remove_user_program_from(&mut eager, user, members.clone(), &pod_of);
                let got = logs.remove_user_program_from(user, members.clone(), &pod_of);
                for device in &expected.affected_devices {
                    let s = shadow.get_mut(device).unwrap();
                    s.strikes_since_merge += 1;
                    for (_, struck) in &mut s.merged {
                        struck.insert(user.to_string());
                    }
                }
                (expected, got)
            };
            prop_assert_eq!(&got, &expected, "step {}: delta", step);
            let materialized = logs.materialize(&base);
            prop_assert_eq!(&materialized.images, &eager.images, "step {}: images", step);
            for (device, s) in &shadow {
                let held = logs.log(*device).unwrap().len();
                prop_assert!(
                    held <= s.kept_by_last_merge + s.strikes_since_merge,
                    "step {}: device {:?} logs {} entries, {} kept + {} strikes",
                    step, device, held, s.kept_by_last_merge, s.strikes_since_merge
                );
            }
        }
    }
}

/// Churn does not grow a log: a tenant that comes and goes leaves nothing
/// behind once the next merge lands, however often it cycles.
#[test]
fn a_cycling_tenant_leaves_one_entry_per_resident_slice() {
    let slices = slices();
    let device = NodeId(0);
    let pod_of = BTreeMap::from([(device, Some(0))]);
    let mut logs = ImageLogs::default();
    logs.add_slices([(&[device][..], &slices[2])], &pod_of);
    for _ in 0..20 {
        logs.add_slices([(&[device][..], &slices[0]), (&[device][..], &slices[1])], &pod_of);
        let delta = logs.remove_user_program_from("cms_a", [device], &pod_of);
        assert_eq!(delta.affected_programs, BTreeSet::from(["kvs_b".to_string()]));
    }
    // kvs_b's slice, cms_a's last two, and the strike since
    assert_eq!(logs.log(device).unwrap().len(), 4);
}
