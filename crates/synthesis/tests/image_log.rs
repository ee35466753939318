//! The image log is the eager image, replayed: random interleavings of
//! merges and strikes over a few devices, driven both through `ImageLogs`
//! and through the eager `DeviceImages` path (`add_slices` /
//! `remove_user_program_from`).  After every operation the two report the
//! same `DeploymentDelta`, the materialized images equal the eager ones as
//! whole programs (lazy-removal `NoOp`s and header order included), and each
//! log holds exactly the slices its last merge kept.  Every slice is owned
//! by its tenant alone, as every slice a deploy cuts is.

use clickinc_frontend::compile_source;
use clickinc_ir::{DiagnosticSet, IrProgram, Optimizer};
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

/// The tenants the slices below belong to, in strike-index order, and one
/// that never deploys.
const TENANTS: [&str; 4] = ["cms_a", "kvs_b", "agg_c", "ghost_d"];

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
        all.into_iter().map(Arc::new).collect()
    })
}

/// The test's own account of one device: every slice ever merged onto it
/// with whether its tenant was struck since, and how many of them the last
/// merge kept.
#[derive(Default)]
struct Shadow {
    merged: Vec<(Arc<IrProgram>, bool)>,
    kept_by_last_merge: usize,
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
                    let kept = s.merged.iter().filter(|(_, struck)| !struck).count();
                    s.merged.push((Arc::clone(slice), false));
                    s.kept_by_last_merge = kept + 1;
                }
                (expected, got)
            } else {
                let user = TENANTS[(op >> 3) as usize % TENANTS.len()];
                let expected = remove_user_program_from(&mut eager, user, members.clone(), &pod_of);
                let got = logs.remove_user_program_from(user, members.clone(), &pod_of);
                for device in &expected.affected_devices {
                    for (slice, struck) in &mut shadow.get_mut(device).unwrap().merged {
                        *struck |= slice.name == user;
                    }
                }
                (expected, got)
            };
            prop_assert_eq!(&got, &expected, "step {}: delta", step);
            let materialized = logs.materialize(&base);
            prop_assert_eq!(&materialized.images, &eager.images, "step {}: images", step);
            for (device, s) in &shadow {
                let held = logs.log(*device).unwrap().len();
                prop_assert_eq!(
                    held, s.kept_by_last_merge, "step {}: device {:?} log length", step, device
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
    // kvs_b's slice and cms_a's last two, struck since
    assert_eq!(logs.log(device).unwrap().len(), 3);
}
