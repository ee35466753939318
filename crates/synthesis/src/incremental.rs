//! Annotation-based incremental compilation (paper §6 "Incremental Compilation
//! for Dynamic Program Merge & Removal" and §7.5).
//!
//! Each device's running image is a synthesized IR program whose instructions
//! carry owner annotations.  Adding a user program touches only the devices the
//! new program was placed on; removing one strips its annotations and deletes
//! the instructions (and objects) that no longer have an owner — lazily, so the
//! other tenants' traffic is never interrupted: a removal leaves `NoOp`s that
//! the next merge onto the device drops.  [`DeploymentDelta`] records which
//! devices, co-resident INC programs and traffic (pods) each operation
//! affected, which is exactly what Table 6 reports.
//!
//! The images exist in two forms.  [`DeviceImages`] holds them eagerly: every
//! merge copies the slice into the image ([`add_slices`]) and every removal
//! rewrites it ([`remove_user_program_from`]); they take any owner
//! annotations.  [`ImageLogs`] holds, per device, an [`ImageLog`] of the
//! one-owner slices merged onto it, each flagged once struck — shared, no IR
//! copied — and replays it into the eager image, bit for bit, when the image
//! is read.  The controller keeps the logs: nothing on its admission path
//! reads an image.

use crate::base::BaseProgram;
use crate::merge::extend_image;
use clickinc_ir::{HeaderFieldDecl, IrProgram, Name, OpCode};
use clickinc_placement::PlacementPlan;
use clickinc_topology::NodeId;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The set of running device images, keyed by physical device.
#[derive(Debug, Clone, Default)]
pub struct DeviceImages {
    /// Device → synthesized IR image.
    pub images: BTreeMap<NodeId, IrProgram>,
}

/// What a deployment / removal operation touched (the Table 6 metrics).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DeploymentDelta {
    /// Devices whose image changed.
    pub affected_devices: BTreeSet<NodeId>,
    /// Other users' programs co-resident on the affected devices.
    pub affected_programs: BTreeSet<Name>,
    /// Pods whose traffic crosses an affected device (a proxy for "affected
    /// traffic" in Table 6).
    pub affected_pods: BTreeSet<usize>,
}

impl DeploymentDelta {
    /// Number of affected devices.
    pub fn device_count(&self) -> usize {
        self.affected_devices.len()
    }

    /// Number of affected co-resident INC programs.
    pub fn program_count(&self) -> usize {
        self.affected_programs.len()
    }

    /// Number of affected pods.
    pub fn pod_count(&self) -> usize {
        self.affected_pods.len()
    }

    /// Record that `device`'s image changed (and with it its pod's traffic).
    fn touch(&mut self, device: NodeId, pod_of: &BTreeMap<NodeId, Option<usize>>) {
        self.affected_devices.insert(device);
        if let Some(Some(pod)) = pod_of.get(&device) {
            self.affected_pods.insert(*pod);
        }
    }
}

/// Incrementally add a placed, isolated user program to the running images:
/// cut each non-empty assignment's slice ([`IrProgram::slice`]) and hand them
/// to [`add_slices`].
///
/// `pod_of` maps physical devices to their pod (for the affected-traffic
/// metric).  Only devices that received a snippet are rebuilt.
pub fn add_user_program(
    images: &mut DeviceImages,
    base: &BaseProgram,
    user_program: &IrProgram,
    plan: &PlacementPlan,
    pod_of: &BTreeMap<NodeId, Option<usize>>,
) -> DeploymentDelta {
    let placed = plan.assignments.iter().filter(|a| !a.is_empty());
    let slices: Vec<_> = placed.map(|a| (&a.members[..], user_program.slice(&a.instrs))).collect();
    add_slices(images, base, slices.iter().map(|(members, slice)| (*members, slice)), pod_of)
}

/// Merge already-cut slices into the images of the devices they were placed
/// on — one `(member devices, slice)` pair per assignment, in traffic order.
/// A device's image starts as the bare base program and is extended in place
/// ([`extend_image`]); co-resident tenants are not recompiled, which is why
/// they are not counted as affected (the difference from
/// [`add_user_program_monolithic`] that Table 6 reports).
pub fn add_slices<'a>(
    images: &mut DeviceImages,
    base: &BaseProgram,
    placed: impl IntoIterator<Item = (&'a [NodeId], &'a IrProgram)>,
    pod_of: &BTreeMap<NodeId, Option<usize>>,
) -> DeploymentDelta {
    let mut delta = DeploymentDelta::default();
    for (members, slice) in placed {
        for &member in members {
            delta.touch(member, pod_of);
            let image = images.images.entry(member).or_insert_with(|| base.image());
            extend_image(image, slice, base.tail.len());
        }
    }
    delta
}

/// Monolithic (non-incremental) deployment of the same program: every device
/// that runs *any* INC program is resynthesized from scratch, so all
/// co-resident programs and all traffic crossing those devices are affected.
/// Used as the comparison baseline of Table 6.
pub fn add_user_program_monolithic(
    images: &mut DeviceImages,
    base: &BaseProgram,
    user_program: &IrProgram,
    plan: &PlacementPlan,
    pod_of: &BTreeMap<NodeId, Option<usize>>,
) -> DeploymentDelta {
    // first do the same placement-driven extension...
    let mut delta = add_user_program(images, base, user_program, plan, pod_of);
    let target_devices = delta.affected_devices.clone();
    // ...but a monolithic rebuild additionally recompiles every device that
    // already hosts any user program, affecting those programs and their pods.
    for (device, image) in &images.images {
        let owners = image.owners();
        if owners.is_empty() {
            continue;
        }
        let shares_program_with_target = target_devices.contains(device)
            || owners.contains(&user_program.name)
            || images
                .images
                .iter()
                .filter(|(d, _)| target_devices.contains(d))
                .any(|(_, img)| !img.owners().is_disjoint(&owners));
        if shares_program_with_target {
            delta.touch(*device, pod_of);
            for o in owners {
                if o != user_program.name {
                    delta.affected_programs.insert(o);
                }
            }
        }
    }
    delta
}

/// Remove a user program from every image (lazy removal):
/// its annotations are stripped, orphaned instructions become `NoOp`s (dropped
/// by the next deployment onto the device, see [`extend_image`]), and its
/// objects are released.  The all-images case of [`remove_user_program_from`].
pub fn remove_user_program(
    images: &mut DeviceImages,
    user: &str,
    pod_of: &BTreeMap<NodeId, Option<usize>>,
) -> DeploymentDelta {
    let devices: Vec<NodeId> = images.images.keys().copied().collect();
    remove_user_program_from(images, user, devices, pod_of)
}

/// [`remove_user_program`] restricted to the images of `devices` — the
/// devices the user was placed on, since a device that does not host the
/// user holds nothing of it.  Devices without an image are skipped.
pub fn remove_user_program_from(
    images: &mut DeviceImages,
    user: &str,
    devices: impl IntoIterator<Item = NodeId>,
    pod_of: &BTreeMap<NodeId, Option<usize>>,
) -> DeploymentDelta {
    let mut delta = DeploymentDelta::default();
    for device in devices {
        let Some(image) = images.images.get_mut(&device) else { continue };
        if strike_image(image, user) {
            delta.touch(device, pod_of);
            delta.affected_programs.extend(image.owners());
        }
    }
    delta
}

/// Strike `user` from one image: strip its owner annotations, turn the
/// instructions that lose their last owner into `NoOp`s (left in place for
/// the next merge to drop) and release its objects.  Returns whether the
/// image held anything of the user.
pub(crate) fn strike_image(image: &mut IrProgram, user: &str) -> bool {
    let mut touched = false;
    for instr in &mut image.instructions {
        let before = instr.owners.len();
        instr.owners.retain(|o| o != user);
        if instr.owners.len() != before {
            touched = true;
            // an instruction that *lost* its last owner was a user
            // instruction: the operator's own never carried one
            if instr.owners.is_empty() {
                instr.op = OpCode::NoOp;
            }
        }
    }
    let objs_before = image.objects.len();
    image.objects.retain(|o| o.owner.as_deref() != Some(user));
    touched || image.objects.len() != objs_before
}

/// One device's running image as the record of what reached it: the slices
/// merged onto it, shared with the deployments that cut them, each flagged
/// once its tenant is struck.  [`materialize`](ImageLog::materialize)
/// replays the record into the image [`add_slices`] and
/// [`remove_user_program_from`] would hold, bit for bit — lazy-removal
/// `NoOp`s and the headers of departed tenants included — so merging and
/// striking copy no IR.
///
/// Every slice has one owner, the tenant it is named after: each of its
/// instructions is owned by that tenant alone, and so is each of its
/// objects — what [`isolate_user_program`](crate::isolate_user_program)
/// stamps on every admitted program.
/// A strike therefore erases whole slices, and a merge drops the slices
/// struck since the last one, as its compaction drops their `NoOp`s.  So
/// the log holds exactly the slices the last merge kept.
#[derive(Debug, Default)]
pub struct ImageLog {
    /// The slices merged onto the device, in merge order, each with whether
    /// its tenant was struck since the last merge.
    entries: Vec<(Arc<IrProgram>, bool)>,
    /// Every header a merge declared, in first-merge order: a slice dropped
    /// from `entries` leaves its headers in the image.
    headers: Vec<HeaderFieldDecl>,
}

impl ImageLog {
    /// Record `slice` merged onto the device ([`extend_image`]), after
    /// dropping the slices struck since the last merge.
    pub fn merge(&mut self, slice: Arc<IrProgram>) {
        debug_assert!(
            slice.instructions.iter().all(|i| i.owners == [slice.name.as_str()])
                && slice.objects.iter().all(|o| o.owner.as_ref() == Some(&slice.name)),
            "slice `{}` is owned by its tenant alone",
            slice.name
        );
        self.entries.retain(|(_, struck)| !struck);
        for hdr in &slice.headers {
            if !self.headers.iter().any(|h| h.name == hdr.name) {
                self.headers.push(hdr.clone());
            }
        }
        self.entries.push((slice, false));
    }

    /// Record `user` struck from the device.  Returns the tenants of the
    /// other slices still live, or `None` — recording nothing — if no live
    /// slice was the user's.
    pub fn strike(&mut self, user: &str) -> Option<BTreeSet<Name>> {
        let mut held = false;
        for (slice, struck) in &mut self.entries {
            if !*struck && slice.name == user {
                *struck = true;
                held = true;
            }
        }
        if !held {
            return None;
        }
        let others = self.entries.iter().filter(|(_, struck)| !struck);
        Some(others.map(|(slice, _)| slice.name.clone()).collect())
    }

    /// The slices the log holds: those the last merge kept.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log holds no slice: nothing was merged onto the device.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The device's image: `base`'s image with every logged slice merged in,
    /// then the struck ones struck.  Each was struck after the last merge,
    /// and a strike reaches only its own tenant's slices, so striking them
    /// last reaches the same image.
    pub fn materialize(&self, base: &BaseProgram) -> IrProgram {
        let mut image = base.image();
        for hdr in &self.headers {
            if !image.headers.iter().any(|h| h.name == hdr.name) {
                image.headers.push(hdr.clone());
            }
        }
        for (slice, _) in &self.entries {
            extend_image(&mut image, slice, base.tail.len());
        }
        for (slice, _) in self.entries.iter().filter(|(_, struck)| *struck) {
            strike_image(&mut image, &slice.name);
        }
        image
    }
}

/// The [`ImageLog`] of every device a tenant was ever placed on: the device
/// images of [`DeviceImages`] kept as records, materialized on read.  Merges
/// and removals report the same [`DeploymentDelta`] as [`add_slices`] and
/// [`remove_user_program_from`].
#[derive(Debug, Default)]
pub struct ImageLogs {
    logs: BTreeMap<NodeId, ImageLog>,
}

impl ImageLogs {
    /// Record already-cut slices merged onto the devices they were placed
    /// on, one `(member devices, slice)` pair per assignment in traffic
    /// order — what [`add_slices`] does to eager images.
    pub fn add_slices<'a>(
        &mut self,
        placed: impl IntoIterator<Item = (&'a [NodeId], &'a Arc<IrProgram>)>,
        pod_of: &BTreeMap<NodeId, Option<usize>>,
    ) -> DeploymentDelta {
        let mut delta = DeploymentDelta::default();
        for (members, slice) in placed {
            for &member in members {
                delta.touch(member, pod_of);
                self.logs.entry(member).or_default().merge(Arc::clone(slice));
            }
        }
        delta
    }

    /// Record `user` struck from the images of `devices` — what
    /// [`remove_user_program_from`] does to eager images.
    pub fn remove_user_program_from(
        &mut self,
        user: &str,
        devices: impl IntoIterator<Item = NodeId>,
        pod_of: &BTreeMap<NodeId, Option<usize>>,
    ) -> DeploymentDelta {
        let mut delta = DeploymentDelta::default();
        for device in devices {
            let Some(log) = self.logs.get_mut(&device) else { continue };
            if let Some(others) = log.strike(user) {
                delta.touch(device, pod_of);
                delta.affected_programs.extend(others);
            }
        }
        delta
    }

    /// The log of `device`, if a slice was ever merged onto it.
    pub fn log(&self, device: NodeId) -> Option<&ImageLog> {
        self.logs.get(&device)
    }

    /// Every device's image, materialized from its log.
    pub fn materialize(&self, base: &BaseProgram) -> DeviceImages {
        let images = self.logs.iter().map(|(d, log)| (*d, log.materialize(base))).collect();
        DeviceImages { images }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::base_program;
    use crate::isolation::isolate_user_program;
    use clickinc_blockdag::{build_block_dag, BlockConfig};

    use clickinc_frontend::compile_source;
    use clickinc_lang::templates::{count_min_sketch, kvs_template, KvsParams};
    use clickinc_placement::{place, PlacementConfig, PlacementNetwork, ResourceLedger};
    use clickinc_topology::{reduce_for_traffic, Topology};

    struct Setup {
        topo: Topology,
        pod_of: BTreeMap<NodeId, Option<usize>>,
    }

    fn setup() -> Setup {
        let topo = Topology::emulation_topology_all_tofino();
        let pod_of = topo.nodes().iter().map(|n| (n.id, n.pod)).collect();
        Setup { topo, pod_of }
    }

    fn place_user(
        setup: &Setup,
        name: &str,
        id: i64,
        sources: &[&str],
        dst: &str,
    ) -> (IrProgram, PlacementPlan) {
        let t = if name.starts_with("kvs") {
            kvs_template(name, KvsParams { cache_depth: 2000, ..Default::default() })
        } else {
            count_min_sketch(name, 3, 2048)
        };
        let ir = compile_source(name, &t.source).unwrap();
        let isolated = isolate_user_program(&ir, name, id);
        let dag = build_block_dag(&isolated, &BlockConfig::default());
        let srcs: Vec<NodeId> = sources.iter().map(|s| setup.topo.find(s).unwrap()).collect();
        let dst_id = setup.topo.find(dst).unwrap();
        let reduced = reduce_for_traffic(&setup.topo, &srcs, dst_id, &[]);
        let net = PlacementNetwork::from_reduced(&setup.topo, &reduced, &ResourceLedger::new());
        let plan = place(&isolated, &dag, &net, &PlacementConfig::default()).unwrap();
        (isolated, plan)
    }

    #[test]
    fn incremental_add_touches_only_the_placed_devices() {
        let s = setup();
        let base = base_program();
        let mut images = DeviceImages::default();
        let (prog, plan) = place_user(&s, "kvs0", 1, &["pod0a", "pod1a"], "pod2b");
        let delta = add_user_program(&mut images, &base, &prog, &plan, &s.pod_of);
        assert!(!delta.affected_devices.is_empty());
        assert_eq!(delta.program_count(), 0, "no other tenant is affected");
        // every touched image validates and contains the user's state
        for device in &delta.affected_devices {
            let image = &images.images[device];
            assert!(image.validate().is_ok(), "{}", image.dump());
        }
        assert!(delta.device_count() <= s.topo.programmable_devices().len());
    }

    #[test]
    fn second_tenant_does_not_disturb_the_first_incrementally() {
        let s = setup();
        let base = base_program();
        let mut images = DeviceImages::default();
        let (p1, plan1) = place_user(&s, "kvs0", 1, &["pod0a"], "pod2b");
        add_user_program(&mut images, &base, &p1, &plan1, &s.pod_of);
        let images_snapshot: BTreeMap<NodeId, usize> =
            images.images.iter().map(|(d, img)| (*d, img.len())).collect();

        let (p2, plan2) = place_user(&s, "cms1", 2, &["pod1a"], "pod2a");
        let delta2 = add_user_program(&mut images, &base, &p2, &plan2, &s.pod_of);
        // devices that only host kvs0 keep the exact same image length
        for (device, len_before) in &images_snapshot {
            if !delta2.affected_devices.contains(device) {
                assert_eq!(images.images[device].len(), *len_before);
            }
        }
    }

    #[test]
    fn monolithic_add_affects_more_than_incremental() {
        let s = setup();
        let base = base_program();

        // incremental world
        let mut inc_images = DeviceImages::default();
        let (p1, plan1) = place_user(&s, "kvs0", 1, &["pod0a", "pod1a"], "pod2b");
        add_user_program(&mut inc_images, &base, &p1, &plan1, &s.pod_of);
        let (p2, plan2) = place_user(&s, "cms1", 2, &["pod0a", "pod1a"], "pod2b");
        let inc_delta = add_user_program(&mut inc_images, &base, &p2, &plan2, &s.pod_of);

        // monolithic world (same programs, same plans)
        let mut mono_images = DeviceImages::default();
        add_user_program(&mut mono_images, &base, &p1, &plan1, &s.pod_of);
        let mono_delta =
            add_user_program_monolithic(&mut mono_images, &base, &p2, &plan2, &s.pod_of);

        assert!(mono_delta.device_count() >= inc_delta.device_count());
        assert!(mono_delta.program_count() >= inc_delta.program_count());
        assert!(mono_delta.pod_count() >= inc_delta.pod_count());
        assert!(
            mono_delta.program_count() > 0,
            "monolithic redeployment recompiles the co-resident program"
        );
    }

    #[test]
    fn removal_strips_annotations_and_leaves_others_running() {
        let s = setup();
        let base = base_program();
        let mut images = DeviceImages::default();
        let (p1, plan1) = place_user(&s, "kvs0", 1, &["pod0a"], "pod2b");
        let (p2, plan2) = place_user(&s, "cms1", 2, &["pod0a"], "pod2b");
        add_user_program(&mut images, &base, &p1, &plan1, &s.pod_of);
        add_user_program(&mut images, &base, &p2, &plan2, &s.pod_of);

        let delta = remove_user_program(&mut images, "kvs0", &s.pod_of);
        assert!(!delta.affected_devices.is_empty());
        for image in images.images.values() {
            // kvs0 is gone (its instructions are NoOps and its objects removed)
            assert!(!image.owners().contains("kvs0"));
            assert!(image.object("kvs0_cache").is_none());
            // cms1's state survives wherever it was placed
        }
        assert!(images.images.values().any(|img| img.owners().contains("cms1")));
        // removing a non-existent user is a no-op
        let empty = remove_user_program(&mut images, "ghost", &s.pod_of);
        assert_eq!(empty.device_count(), 0);
    }

    #[test]
    fn deploy_remove_cycles_do_not_grow_the_images() {
        let s = setup();
        let base = base_program();
        let mut images = DeviceImages::default();
        let (prog, plan) = place_user(&s, "kvs0", 1, &["pod0a", "pod1a"], "pod2b");
        let mut after_first_cycle: Option<BTreeMap<NodeId, usize>> = None;
        for cycle in 1..=50 {
            add_user_program(&mut images, &base, &prog, &plan, &s.pod_of);
            remove_user_program(&mut images, "kvs0", &s.pod_of);
            let lengths: BTreeMap<NodeId, usize> =
                images.images.iter().map(|(d, img)| (*d, img.len())).collect();
            let expected = after_first_cycle.get_or_insert_with(|| lengths.clone());
            assert_eq!(&lengths, expected, "cycle {cycle} grew an image");
        }
    }
}
