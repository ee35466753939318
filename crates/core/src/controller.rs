//! The ClickINC controller: compile → place → synthesize → deploy, with
//! dynamic (incremental) add/remove and multi-tenant resource accounting.
//!
//! Deployment is transactional and split in two phases (paper §3.2 as a
//! service): [`Controller::plan`] is a pure dry-run — it compiles, isolates
//! and places a request, cuts and verifies the per-device slices, and
//! predicts the post-commit resource ratio without touching the ledger or
//! the device images — and [`Controller::commit`] applies a plan atomically.
//! Every fallible check in `commit` runs before the first mutation, so a
//! rejected commit leaves the ledger, the active user set and every device
//! image bit-identical to before the call.
//!
//! The controller runs no packets.  What a device runs for a tenant is one
//! `Arc<IrProgram>` slice, cut by `plan`, recorded on the device's image log
//! by `commit` and handed out by [`Controller::tenant_hops`]; the traffic
//! engine (or a test's hop-built [`TenantHop::plane`]) is the data plane.
//! Nor does a commit merge IR or emit device code: a device's image is
//! replayed from its log when read ([`Controller::images`]), a tenant's own
//! code is emitted on its first read ([`DevicePrograms`]), a device's whole
//! code on request ([`Controller::device_program`]).

use crate::error::ClickIncError;
use crate::request::ServiceRequest;
use clickinc_backend::DeviceProgram;
use clickinc_blockdag::{build_block_dag, BlockConfig, BlockDag};
use clickinc_device::DeviceKind;
use clickinc_frontend::{CompileOptions, Frontend};
use clickinc_ir::analysis::{owned_by, DeviceTarget, PlacedSnippet};
use clickinc_ir::{
    Diagnostic, DiagnosticSet, Fnv, IrProgram, Optimizer, PassContext, PassManager, ResourceVector,
    Severity,
};
use clickinc_placement::{
    place_prepared, Assignment, PlacementConfig, PlacementInputs, PlacementNetwork, PlacementPlan,
    ResourceLedger, SolveCache, SolveCacheStats, Weights,
};
use clickinc_runtime::TenantHop;
use clickinc_synthesis::base::BaseProgram;
use clickinc_synthesis::incremental::DeviceImages;
use clickinc_synthesis::{
    base_program, extend_image, isolate_user_program, DeploymentDelta, ImageLogs,
};
use clickinc_topology::{reduce_for_traffic, NodeHealth, NodeId, Topology};
use serde::Serialize;
use std::collections::{btree_map, BTreeMap, BTreeSet};
use std::ops::Deref;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// The half of a solve no tenant name reaches, kept once per program text:
/// the frontend's output, the block DAG and the placement inputs.  A
/// resident shares its record by `Arc` with every later arrival of the same
/// source text ([`Controller::plan`]), which isolates `compiled` and places
/// on `dag` and `inputs` instead of deriving its own.
#[derive(Debug)]
pub struct PreparedSource {
    /// The frontend's output for the request source, before isolation
    /// (lowering reads the tenant name only for the program name, which
    /// isolation overwrites).  `None` for a [`Controller::plan_isolated`]
    /// solve, which compiled nothing and so lends nothing.
    pub compiled: Option<IrProgram>,
    /// The block DAG of the isolated, optimized program, used for placement.
    pub dag: BlockDag,
    /// What placement derives from that program and `dag` before it looks at
    /// the network.
    pub inputs: PlacementInputs,
}

impl PreparedSource {
    /// Derive the record of `program`, the isolated, optimized program.
    fn derive(compiled: Option<IrProgram>, program: &IrProgram, config: &BlockConfig) -> Self {
        let dag = build_block_dag(program, config);
        let inputs = PlacementInputs::new(program, &dag);
        // derive the lazy inputs from the program they describe, so that a
        // borrower's check below compares against its lender's facts
        #[cfg(debug_assertions)]
        inputs.fill(program, &dag);
        PreparedSource { compiled, dag, inputs }
    }

    /// Check that a lent record is what the borrower's own `program` derives.
    #[cfg(debug_assertions)]
    fn assert_lendable_to(&self, program: &IrProgram, config: &BlockConfig) {
        let own = PreparedSource::derive(None, program, config);
        assert_eq!(own.dag, self.dag, "a lent block DAG is the borrower's own");
        assert_eq!(own.inputs, self.inputs, "lent placement inputs are the borrower's own");
    }
}

/// Where a solve takes its [`PreparedSource`] from.
enum Preparation {
    /// A resident's record for the same source text.
    Lent(Arc<PreparedSource>),
    /// Derived by this solve, with the frontend's output if it compiled one.
    Own(Option<IrProgram>),
}

/// Everything produced by one successful deployment.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// The user id.
    pub user: String,
    /// The originating request — kept so a re-placement
    /// ([`crate::ClickIncService::replace_tenant`]) can re-plan the tenant
    /// through the full verification and admission chain.
    pub request: ServiceRequest,
    /// Numeric user id matched by the isolation guard (`meta.inc_user`);
    /// traffic must carry this id in its INC header to reach the program.
    pub numeric_id: i64,
    /// The isolated IR program.
    pub program: IrProgram,
    /// The name-free half of the solve: the compiled program, the block DAG
    /// used for placement and the placement inputs.  Derived by this
    /// deployment's solve or lent by a resident of the same source text, and
    /// lent on to later arrivals of it.
    pub prepared: Arc<PreparedSource>,
    /// The placement plan.
    pub plan: PlacementPlan,
    /// What the deployment touched (devices / co-resident programs / pods).
    pub delta: DeploymentDelta,
    /// This tenant's device-language code, one program per physical device
    /// it occupies: the operator's base program merged with **only this
    /// tenant's** slices, emitted on first read.  The device's whole code,
    /// co-residents included, is [`Controller::device_program`].
    pub device_programs: DevicePrograms,
    /// The IR slices each device runs for this tenant, in install order — the
    /// allocations the verifier saw, and what a serving runtime installs.
    pub snippets: BTreeMap<NodeId, Vec<Arc<IrProgram>>>,
    /// End-to-end compile + place + synthesize latency.
    pub elapsed: Duration,
}

/// A tenant's device code, emitted on first read and kept: per device the
/// tenant occupies, the operator's base program with only this tenant's
/// slices merged in ([`extend_image`], so every tenant statement tests the
/// tenant's id), in the device's language.  It holds the slices
/// [`Deployment::snippets`] holds, so co-residents' commits and removals
/// never reach it: the text is the same for the tenant's whole lifetime.
///
/// Read the programs through [`emitted`](DevicePrograms::emitted).  The type
/// also dereferences to that map because `benchmark/` reads
/// `deployment.device_programs.values()` as if it were the map, and changes
/// only with the benchmark; the `Deref` can go once it reads `emitted`.
#[derive(Debug, Clone)]
pub struct DevicePrograms {
    base: Arc<BaseProgram>,
    /// Per occupied device: its kind and the tenant's slices, in install
    /// order.
    slices: BTreeMap<NodeId, (DeviceKind, Vec<Arc<IrProgram>>)>,
    emitted: OnceLock<BTreeMap<NodeId, DeviceProgram>>,
}

impl DevicePrograms {
    /// The programs by device, emitted on the first call.
    pub fn emitted(&self) -> &BTreeMap<NodeId, DeviceProgram> {
        self.emitted.get_or_init(|| {
            let mut emitted = BTreeMap::new();
            for (device, (kind, slices)) in &self.slices {
                let mut image = self.base.image();
                for slice in slices {
                    extend_image(&mut image, slice, self.base.tail.len());
                }
                emitted.insert(*device, clickinc_backend::generate(*kind, &image));
            }
            emitted
        })
    }
}

impl Deref for DevicePrograms {
    type Target = BTreeMap<NodeId, DeviceProgram>;

    fn deref(&self) -> &Self::Target {
        self.emitted()
    }
}

impl<'a> IntoIterator for &'a DevicePrograms {
    type Item = (&'a NodeId, &'a DeviceProgram);
    type IntoIter = btree_map::Iter<'a, NodeId, DeviceProgram>;

    fn into_iter(self) -> Self::IntoIter {
        self.emitted().iter()
    }
}

/// A fully solved deployment that has **not** touched the ledger or the
/// device images: the output of [`Controller::plan`] (a pure dry-run),
/// consumed by [`Controller::commit`].
///
/// The plan records the controller epoch it was solved against; committing
/// after any other commit or removal returns [`ClickIncError::StalePlan`]
/// instead of installing a placement that no longer reflects reality.
#[derive(Debug, Clone)]
pub struct DeploymentPlan {
    request: ServiceRequest,
    numeric_id: i64,
    program: IrProgram,
    /// The name-free half of the solve — derived by it, or a resident's of
    /// the same source text — that the committed [`Deployment::prepared`]
    /// carries on.
    prepared: Arc<PreparedSource>,
    plan: PlacementPlan,
    /// The slice cut for each non-empty assignment of `plan`, in order.
    snippets: Vec<Arc<IrProgram>>,
    predicted_remaining_ratio: f64,
    epoch: u64,
    /// Physical device names the plan occupies (deduped, sorted) — the
    /// topology node names behind the EC labels of
    /// [`devices`](DeploymentPlan::devices), so provider policy (a
    /// [`DeviceDenylist`](crate::DeviceDenylist) of carved-out devices) can
    /// veto plans by the same names the topology and a failure report.
    physical_devices: Vec<String>,
    /// Everything the static verifier pipeline reported while solving.  A
    /// plan only exists if the set carries no error-severity finding —
    /// [`Controller::plan`] turns those into [`ClickIncError::Verification`]
    /// — so what rides here is warnings and classification infos.
    diagnostics: DiagnosticSet,
    /// Wall-clock cost of the solve itself (compile + isolate + place), a
    /// `Duration` rather than a start `Instant` so quote-to-commit idle time
    /// stays out of [`Deployment::elapsed`].
    solved_in: Duration,
}

impl DeploymentPlan {
    /// The user the plan deploys.
    pub fn user(&self) -> &str {
        &self.request.user
    }

    /// The originating request.
    pub fn request(&self) -> &ServiceRequest {
        &self.request
    }

    /// Numeric id the isolation guard will match on once committed.
    pub fn numeric_id(&self) -> i64 {
        self.numeric_id
    }

    /// The isolated IR program the plan would install.
    pub fn program(&self) -> &IrProgram {
        &self.program
    }

    /// The name-free half of the solve (see [`Deployment::prepared`]).
    pub fn prepared(&self) -> &Arc<PreparedSource> {
        &self.prepared
    }

    /// The pre-isolation program the plan isolated, if it compiled one.
    pub fn compiled(&self) -> Option<&IrProgram> {
        self.prepared.compiled.as_ref()
    }

    /// The block DAG used for placement.
    pub fn dag(&self) -> &BlockDag {
        &self.prepared.dag
    }

    /// The solved placement (devices, per-device snippets, gain, solve time).
    pub fn placement(&self) -> &PlacementPlan {
        &self.plan
    }

    /// The per-device slices the plan would install, one per non-empty
    /// assignment of [`placement`](DeploymentPlan::placement) in traffic
    /// order: the allocations the verifier approved and a commit installs.
    pub fn snippets(&self) -> &[Arc<IrProgram>] {
        &self.snippets
    }

    /// The verifier findings for this plan: warnings and classification
    /// infos only, since error-severity findings abort the solve before a
    /// plan exists.  `diagnostics().to_json()` is the CI export format; CI's
    /// deny-warnings mode additionally refuses plans where
    /// [`DiagnosticSet::has_warnings`] holds.
    pub fn diagnostics(&self) -> &DiagnosticSet {
        &self.diagnostics
    }

    /// Display names of the devices the plan would occupy.
    pub fn devices(&self) -> Vec<String> {
        self.plan.devices_used().into_iter().map(str::to_string).collect()
    }

    /// Physical topology node names the plan occupies (deduped, sorted).
    /// Unlike [`devices`](DeploymentPlan::devices) — which reports the
    /// placement's display labels — these are the names [`Topology`] and the
    /// failure paths ([`Controller::fail_device`]) speak.
    pub fn physical_devices(&self) -> &[String] {
        &self.physical_devices
    }

    /// Total resource demand across every physical device the plan touches.
    pub fn resource_demand(&self) -> ResourceVector {
        let mut total = ResourceVector::default();
        for assignment in self.plan.assignments.iter().filter(|a| !a.is_empty()) {
            for _ in &assignment.members {
                total += assignment.demand;
            }
        }
        total
    }

    /// Network-wide remaining resource ratio *if* this plan commits.
    pub fn predicted_remaining_ratio(&self) -> f64 {
        self.predicted_remaining_ratio
    }

    /// Wall-clock cost of the solve that produced this plan (compile +
    /// isolate + place).  For the placement stage alone, read
    /// `placement().solve_time` — `benchmark/` reports that as
    /// `placement.solve_cold_us` / `placement.solve_memo_us`, keeping the
    /// frontend's compile cost out of the warm-over-cold comparison.
    pub fn solved_in(&self) -> Duration {
        self.solved_in
    }

    /// The controller epoch this plan was solved against.  The plan commits
    /// only while [`Controller::epoch`] still returns this value; any other
    /// commit or removal in between makes it [`ClickIncError::StalePlan`].
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// A deterministic digest of the whole solved plan: the originating
    /// request ([`ServiceRequest::fingerprint`]), the epoch and numeric id it
    /// is pinned to, the solved placement
    /// ([`PlacementPlan::fingerprint`](clickinc_placement::PlacementPlan::fingerprint))
    /// and the predicted ratio.  Two solves of the same request against the
    /// same controller state fingerprint equal — the bit-identity the
    /// warm-vs-cold memo tests assert.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.write_u64(self.request.fingerprint());
        h.write_u64(self.epoch);
        h.write_u64(self.numeric_id as u64);
        h.write_u64(self.plan.fingerprint());
        h.write_u64(self.predicted_remaining_ratio.to_bits());
        h.finish()
    }

    /// The serializable inspection view of the plan: who, where, at what
    /// cost, and what would remain.  Dump it with `serde_json` to audit a
    /// dry-run before committing (see `examples/multi_tenant_incremental`).
    pub fn summary(&self) -> PlanSummary {
        PlanSummary {
            user: self.request.user.clone(),
            numeric_id: self.numeric_id,
            devices: self.devices(),
            demand: self
                .resource_demand()
                .nonzero()
                .map(|(r, v)| (r.name().to_string(), v))
                .collect(),
            predicted_remaining_ratio: self.predicted_remaining_ratio,
            epoch: self.epoch,
            fingerprint: format!("{:016x}", self.fingerprint()),
        }
    }
}

/// The serializable summary of a [`DeploymentPlan`] — what a provider logs
/// or shows a tenant before committing.  Produced by
/// [`DeploymentPlan::summary`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PlanSummary {
    /// The user the plan deploys.
    pub user: String,
    /// Numeric id the isolation guard will match on once committed.
    pub numeric_id: i64,
    /// Display names of the devices the plan would occupy.
    pub devices: Vec<String>,
    /// Non-zero resource demand, keyed by resource short name.
    pub demand: BTreeMap<String, f64>,
    /// Network-wide remaining resource ratio *if* this plan commits.
    pub predicted_remaining_ratio: f64,
    /// Controller epoch the plan was solved against.
    pub epoch: u64,
    /// [`DeploymentPlan::fingerprint`] as a hex string (JSON numbers cannot
    /// carry 64 bits losslessly).
    pub fingerprint: String,
}

/// The ClickINC controller (paper Fig. 2): owns the topology, the per-device
/// resource ledger and the running device images.
pub struct Controller {
    topology: Topology,
    ledger: ResourceLedger,
    /// Per device, the record of the slices merged onto it, each flagged
    /// once its tenant is struck: its image, materialized only when read.
    images: ImageLogs,
    /// The operator's base program every device image starts from, shared
    /// with every tenant's [`DevicePrograms`].
    base: Arc<BaseProgram>,
    /// Device → pod, for the affected-traffic metric of every delta.
    pod_of: BTreeMap<NodeId, Option<usize>>,
    deployments: BTreeMap<String, Deployment>,
    next_user_id: i64,
    /// Bumped on every commit and removal; plans solved against an older
    /// epoch are rejected at commit time.
    epoch: u64,
    frontend: Frontend,
    block_config: BlockConfig,
    /// Cross-solve segment memo shared by every plan this controller runs:
    /// keys carry the exact bits of their inputs, so entries survive epoch
    /// moves and warm solves stay bit-identical to cold ones.
    solve_cache: SolveCache,
    /// Whether solves consult the segment memo at all.  On by default;
    /// turned off only for the memo-less side of `tests/warm_start.rs`
    /// (the memo is exact, so the flag never changes a solve's result).
    use_solve_memo: bool,
}

impl Controller {
    /// Create a controller managing the given topology.
    pub fn new(topology: Topology) -> Controller {
        Controller {
            pod_of: topology.nodes().iter().map(|n| (n.id, n.pod)).collect(),
            topology,
            ledger: ResourceLedger::new(),
            images: ImageLogs::default(),
            base: Arc::new(base_program()),
            deployments: BTreeMap::new(),
            next_user_id: 1,
            epoch: 0,
            frontend: Frontend::new(),
            block_config: BlockConfig::default(),
            solve_cache: SolveCache::new(),
            use_solve_memo: true,
        }
    }

    /// Hit/miss/occupancy counters of the cross-solve segment memo.
    pub fn solve_cache_stats(&self) -> SolveCacheStats {
        self.solve_cache.stats()
    }

    /// Enable or disable the segment memo for future solves.  Off runs the
    /// fully unmemoized dynamic program — the cold side `tests/warm_start.rs`
    /// holds warm solves bit-identical to (`benchmark/` prices cold solves
    /// with never-seen shapes instead); the memo is exact, so flipping the
    /// flag never changes a solve's result — only its latency.
    pub fn set_solve_memo(&mut self, enabled: bool) {
        self.use_solve_memo = enabled;
    }

    /// The programmable hops of a user's deployment in traffic order, each
    /// sharing the deployment's slices — what a serving runtime installs on
    /// its planes.  Empty if the user has no deployment.
    pub fn tenant_hops(&self, user: &str) -> Vec<TenantHop> {
        let Some(deployment) = self.deployments.get(user) else {
            return Vec::new();
        };
        // each member at its first sight: assignments are path-ordered, and
        // a member may host several of them
        let mut seen: BTreeSet<NodeId> = BTreeSet::new();
        let placed = deployment.plan.assignments.iter().filter(|a| !a.is_empty());
        placed
            .flat_map(|a| &a.members)
            .filter(|id| seen.insert(**id))
            .map(|id| {
                let node = self.topology.node(*id);
                TenantHop {
                    device: node.name.clone(),
                    model: node.kind.model(),
                    snippets: deployment.snippets[id].clone(),
                }
            })
            .collect()
    }

    /// The managed topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Ids of the users with an active deployment.
    pub fn active_users(&self) -> Vec<&str> {
        self.deployments.keys().map(String::as_str).collect()
    }

    /// Number of users with an active deployment.
    pub fn tenant_count(&self) -> usize {
        self.deployments.len()
    }

    /// The numeric id the isolation guard of a user's program matches on.
    pub fn numeric_id_of(&self, user: &str) -> Option<i64> {
        self.deployments.get(user).map(|d| d.numeric_id)
    }

    /// The deployment record of an active user program.
    pub fn deployment(&self, user: &str) -> Option<&Deployment> {
        self.deployments.get(user)
    }

    /// Fraction of network-wide resources still free.
    pub fn remaining_resource_ratio(&self) -> f64 {
        self.ledger.remaining_ratio(&self.topology)
    }

    /// The controller's state epoch: bumped on every commit and removal.
    /// A [`DeploymentPlan`] is only committable at the epoch it was solved
    /// against.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The running device images, one per device a tenant was ever placed
    /// on: the base program with every resident tenant's slices merged in —
    /// what the backends emit from.  An image also carries what lazy removal
    /// leaves until the next merge onto its device: the `NoOp`s of departed
    /// tenants' instructions, and their headers, which no merge drops.
    /// Materialized from the controller's per-device logs on every call.
    pub fn images(&self) -> DeviceImages {
        self.images.materialize(&self.base)
    }

    /// The device-language code of `device`'s running image, every resident
    /// tenant's slices included — what the device is loaded with.  Emitted
    /// on every call; `None` if no tenant was ever placed on the device.
    pub fn device_program(&self, device: NodeId) -> Option<DeviceProgram> {
        let image = self.images.log(device)?.materialize(&self.base);
        Some(clickinc_backend::generate(self.topology.node(device).kind, &image))
    }

    /// Fingerprints of what tenants own in each running device image, by
    /// device name: their instructions (operation, guard, owners — not the
    /// id, which any merge may renumber) and objects.  The operator's base
    /// and the `NoOp`s of lazy removal are excluded and devices with nothing
    /// tenant-owned omitted, so a rolled-back deploy fingerprints like one
    /// that never happened — what the rollback tests compare.
    pub fn image_fingerprints(&self) -> BTreeMap<String, u64> {
        let images = self.images();
        let tenant_owned = images.images.iter().filter(|(_, image)| !image.owners().is_empty());
        tenant_owned
            .map(|(id, image)| {
                let mut h = Fnv::new();
                for instr in image.instructions.iter().filter(|i| !i.is_base()) {
                    h.write_str(&format!("{:?} {:?} {:?}", instr.op, instr.guard, instr.owners));
                }
                for object in image.objects.iter().filter(|o| o.owner.is_some()) {
                    h.write_str(&format!("{object:?}"));
                }
                (self.topology.node(*id).name.clone(), h.finish())
            })
            .collect()
    }

    /// Solve a request without deploying it: compile, isolate and place as a
    /// pure dry-run.  Reports the devices the program would occupy, the
    /// resource demand, and the predicted post-commit remaining ratio — and
    /// touches neither the ledger nor any device image.  Feed the result to
    /// [`Controller::commit`] to make it real.
    ///
    /// A request whose source text a resident already runs skips the
    /// frontend: it isolates that resident's compiled program, which is what
    /// compiling would produce.  It also places on the resident's block DAG
    /// and placement inputs ([`Deployment::prepared`]) — equal to its own,
    /// because isolation prefixes every name with `{user}_` and the DAG and
    /// the inputs read which names are shared, never a name itself.
    pub fn plan(&self, request: &ServiceRequest) -> Result<DeploymentPlan, ClickIncError> {
        let started = Instant::now();
        self.check_request(request)?;
        let user = &request.user;
        let lender = self.deployments.values().find_map(|d| {
            let compiled = d.prepared.compiled.as_ref()?;
            (d.request.source == request.source).then_some((&d.prepared, compiled))
        });
        let (isolated, preparation) = match lender {
            Some((prepared, compiled)) => {
                let isolated = isolate_user_program(compiled, user, self.next_user_id);
                (isolated, Preparation::Lent(Arc::clone(prepared)))
            }
            None => {
                let options = CompileOptions::default();
                let compiled = self.frontend.compile_source(user, &request.source, &options)?;
                let isolated = isolate_user_program(&compiled, user, self.next_user_id);
                (isolated, Preparation::Own(Some(compiled)))
            }
        };
        self.solve_prepared(request, isolated, preparation, started)
    }

    /// Expert variant of [`plan`](Controller::plan): place an
    /// **already-isolated** IR program, skipping compile and isolation
    /// renaming (the request's `source` is ignored).  Only the owners are
    /// set here, as isolation sets them: every instruction and object is the
    /// request's tenant's alone, whatever the program carried, so no expert
    /// code outlives its tenant's removal or leaves with another's.  Nothing
    /// re-establishes the namespace discipline the normal path guarantees —
    /// the static verifier pipeline is the only gate on this path, which is
    /// exactly why it still runs: a program that reads or writes outside its
    /// tenant's namespace is refused as [`ClickIncError::Verification`]
    /// before a plan exists.
    pub fn plan_isolated(
        &self,
        request: &ServiceRequest,
        mut program: IrProgram,
    ) -> Result<DeploymentPlan, ClickIncError> {
        let started = Instant::now();
        self.check_request(request)?;
        let user = &request.user;
        for instr in &mut program.instructions {
            instr.owners = vec![user.clone()];
        }
        for object in &mut program.objects {
            object.owner = Some(user.clone());
        }
        // slices are named after the program, and planes quiesce a tenant by
        // that name
        program.name = user.clone();
        self.solve_prepared(request, program, Preparation::Own(None), started)
    }

    /// The checks every solve starts with: structural validity and a free
    /// user id.  The service runs them ahead of its pre-solve admission
    /// gate, so a malformed request or a duplicate user is never a policy
    /// verdict.
    pub(crate) fn check_request(&self, request: &ServiceRequest) -> Result<(), ClickIncError> {
        request.validate()?;
        if self.deployments.contains_key(&request.user) {
            return Err(ClickIncError::DuplicateUser(request.user.clone()));
        }
        Ok(())
    }

    /// Everything after compile + isolate: endpoint resolution, block DAG,
    /// placement, static verification, and the ledger preview.
    fn solve_prepared(
        &self,
        request: &ServiceRequest,
        isolated: IrProgram,
        preparation: Preparation,
        started: Instant,
    ) -> Result<DeploymentPlan, ClickIncError> {
        // resolve endpoints
        let sources: Result<Vec<NodeId>, ClickIncError> = request
            .sources
            .iter()
            .map(|s| self.topology.find(s).ok_or_else(|| ClickIncError::UnknownHost(s.clone())))
            .collect();
        let sources = sources?;
        let dst = self
            .topology
            .find(&request.destination)
            .ok_or_else(|| ClickIncError::UnknownHost(request.destination.clone()))?;

        // the numeric id this plan will own if committed at the current epoch
        let numeric_id = self.next_user_id;

        // install-time optimization over the whole isolated program, before
        // placement slices it: constant folding, dead-value elimination, and
        // hoisting the per-instruction isolation guard into the program
        // precondition (an O(1) skip for co-resident tenants' traffic).  The
        // optimizer verifies nothing: the verifier below sees exactly the
        // program that deploys.  Both execution tiers run the optimized IR,
        // keeping their telemetry bit-identical.
        let mut opt_diags = DiagnosticSet::new();
        let isolated = Optimizer::with_default_passes().optimize(
            &request.user,
            true,
            isolated,
            &mut opt_diags,
        );

        // block DAG and placement inputs, lent or derived here, then the
        // reduced topology and placement (memo-accelerated: the segment
        // feasibility questions repeat across tenants and epochs)
        let prepared = match preparation {
            Preparation::Lent(prepared) => {
                #[cfg(debug_assertions)]
                prepared.assert_lendable_to(&isolated, &self.block_config);
                prepared
            }
            Preparation::Own(compiled) => {
                Arc::new(PreparedSource::derive(compiled, &isolated, &self.block_config))
            }
        };
        let reduced = reduce_for_traffic(&self.topology, &sources, dst, &request.traffic_weights);
        let net = PlacementNetwork::from_reduced(&self.topology, &reduced, &self.ledger);
        let weights = Weights::adaptive(self.ledger.remaining_ratio(&self.topology));
        let plan = place_prepared(
            &isolated,
            &prepared.dag,
            &prepared.inputs,
            &net,
            &PlacementConfig { weights, enable_pruning: true },
            if self.use_solve_memo { Some(&self.solve_cache) } else { None },
        )?;

        // static verification, the deploy path's only one: the whole pass
        // pipeline runs over the optimized program and its per-device slices
        // here, before a plan even exists — so no deploy path can mutate a
        // ledger or an image with an unverified program.  Each slice is cut
        // once, here, and the plan carries these allocations to `commit` and
        // the data plane.  Error-severity findings abort the solve; the rest
        // ride on the plan for inspection and CI export.
        let snippets: Vec<Arc<IrProgram>> = plan
            .assignments
            .iter()
            .filter(|a| !a.is_empty())
            .map(|a| Arc::new(isolated.slice(&a.instrs)))
            .collect();
        let mut placements = Vec::new();
        for (assignment, snippet) in placed(&plan, &snippets) {
            for member in &assignment.members {
                let node = self.topology.node(*member);
                let model = node.kind.model();
                placements.push(PlacedSnippet {
                    device: node.name.clone(),
                    target: DeviceTarget {
                        device: node.name.clone(),
                        kind: node.kind.to_string(),
                        supported: model.supported_classes().clone(),
                        storage_capacity_bits: model.storage_capacity_bits(),
                    },
                    program: Arc::clone(snippet),
                });
            }
        }
        let mut diagnostics = PassManager::with_default_passes().run(&PassContext {
            tenant: request.user.clone(),
            isolated: true,
            programs: std::slice::from_ref(&isolated),
            placements: &placements,
        });
        self.check_object_names(&request.user, &isolated, &mut diagnostics);
        diagnostics.merge(opt_diags);
        if diagnostics.has_errors() {
            return Err(ClickIncError::Verification { user: request.user.clone(), diagnostics });
        }

        // predict the post-commit ratio on a scratch copy of the ledger
        let mut preview = self.ledger.clone();
        for assignment in plan.assignments.iter().filter(|a| !a.is_empty()) {
            for member in &assignment.members {
                preview.consume(*member, assignment.demand);
            }
        }
        let predicted_remaining_ratio = preview.remaining_ratio(&self.topology);

        let physical: BTreeSet<String> = placements.iter().map(|p| p.device.clone()).collect();
        Ok(DeploymentPlan {
            request: request.clone(),
            numeric_id,
            program: isolated,
            prepared,
            plan,
            snippets,
            predicted_remaining_ratio,
            epoch: self.epoch,
            physical_devices: physical.into_iter().collect(),
            diagnostics,
            solved_in: started.elapsed(),
        })
    }

    /// Object-name isolation the per-tenant `isolation` pass cannot see.
    /// The frontend accepts a source that declares `mem` twice (two objects
    /// named `mem`), and an expert program may do the same: an object
    /// `program` declares twice is an `isolation` error.  Isolation prefixes
    /// every name with `{user}_`, but the prefix is not prefix-free, so
    /// tenant `a`'s `b_cache` and tenant `a_b`'s `cache` both become
    /// `a_b_cache` — and a device's object store would hand both tenants the
    /// one object.  An object name of `program` another resident tenant
    /// already declares is an `isolation` error too.  The verifier holds
    /// every resident's objects to its own namespace, so only a resident
    /// whose namespace holds one of the new names can collide.
    fn check_object_names(&self, user: &str, program: &IrProgram, out: &mut DiagnosticSet) {
        let isolation_error = |message: String| {
            Diagnostic::new(Severity::Error, "isolation", user, &program.name, message)
        };
        for (i, decl) in program.objects.iter().enumerate() {
            if program.objects[..i].iter().any(|o| o.name == decl.name) {
                out.push(isolation_error(format!("object `{}` is declared twice", decl.name)));
            }
        }
        for (owner, deployment) in &self.deployments {
            if !program.objects.iter().any(|o| owned_by(&o.name, owner)) {
                continue;
            }
            for decl in &program.objects {
                if deployment.program.object(&decl.name).is_some() {
                    out.push(isolation_error(format!(
                        "object `{}` is already declared by tenant `{owner}`",
                        decl.name
                    )));
                }
            }
        }
    }

    /// Commit a [`DeploymentPlan`]: book the ledger resources and record the
    /// plan's slices on their devices' image logs — shared, not copied; the
    /// merge happens when an image is read ([`Controller::images`]).  No
    /// device code is emitted here (see [`Deployment::device_programs`]).
    /// The caller's data plane installs [`Controller::tenant_hops`].
    ///
    /// Atomicity: every fallible check (stale epoch, duplicate user) runs
    /// *before* the first mutation, so an `Err` return leaves the ledger,
    /// the active-user set and every image bit-identical to before the call.
    pub fn commit(&mut self, planned: DeploymentPlan) -> Result<&Deployment, ClickIncError> {
        if planned.epoch != self.epoch {
            return Err(ClickIncError::StalePlan {
                user: planned.request.user,
                planned_epoch: planned.epoch,
                current_epoch: self.epoch,
            });
        }
        if self.deployments.contains_key(&planned.request.user) {
            return Err(ClickIncError::DuplicateUser(planned.request.user));
        }
        // a DeploymentPlan can only be built by a solve, which already
        // refuses error-severity diagnostics; this re-check keeps the
        // invariant local so no future construction path can bypass the gate
        if planned.diagnostics.has_errors() {
            return Err(ClickIncError::Verification {
                user: planned.request.user,
                diagnostics: planned.diagnostics,
            });
        }
        debug_assert_eq!(planned.numeric_id, self.next_user_id, "epoch pins the numeric id");
        let commit_started = Instant::now();
        let DeploymentPlan {
            request,
            numeric_id,
            program,
            prepared,
            plan,
            snippets,
            solved_in,
            ..
        } = planned;

        // ---- no fallible step below this line: the commit is atomic ----

        // book resources and record which slices each device runs
        let mut installed: BTreeMap<NodeId, Vec<Arc<IrProgram>>> = BTreeMap::new();
        for (assignment, snippet) in placed(&plan, &snippets) {
            for member in &assignment.members {
                self.ledger.consume(*member, assignment.demand);
                installed.entry(*member).or_default().push(Arc::clone(snippet));
            }
        }

        // record the merges onto the devices' image logs
        let delta = self.images.add_slices(
            placed(&plan, &snippets).map(|(a, snippet)| (a.members.as_slice(), snippet)),
            &self.pod_of,
        );
        let device_programs = DevicePrograms {
            base: Arc::clone(&self.base),
            slices: installed
                .iter()
                .map(|(device, slices)| {
                    (*device, (self.topology.node(*device).kind, slices.clone()))
                })
                .collect(),
            emitted: OnceLock::new(),
        };

        self.next_user_id += 1;
        self.epoch += 1;
        let user = request.user.clone();
        let deployment = Deployment {
            user: user.clone(),
            request,
            numeric_id,
            program,
            prepared,
            plan,
            delta,
            device_programs,
            snippets: installed,
            // solve cost + synthesis/install cost: pure pipeline latency,
            // with no quote-to-commit idle time
            elapsed: solved_in + commit_started.elapsed(),
        };
        Ok(self.deployments.entry(user).or_insert(deployment))
    }

    /// Deploy a program in one step: [`plan`](Controller::plan) followed by
    /// [`commit`](Controller::commit).
    pub fn deploy(&mut self, request: ServiceRequest) -> Result<&Deployment, ClickIncError> {
        let planned = self.plan(&request)?;
        self.commit(planned)
    }

    /// Remove a previously deployed program (lazy removal + resource release).
    pub fn remove(&mut self, user: &str) -> Result<DeploymentDelta, ClickIncError> {
        let deployment = self
            .deployments
            .remove(user)
            .ok_or_else(|| ClickIncError::UnknownUser(user.to_string()))?;
        for assignment in deployment.plan.assignments.iter().filter(|a| !a.is_empty()) {
            for member in &assignment.members {
                self.ledger.release(*member, assignment.demand);
            }
        }
        // only the tenant's own devices hold anything of it
        let devices = deployment.snippets.keys().copied();
        let delta = self.images.remove_user_program_from(user, devices, &self.pod_of);
        self.epoch += 1;
        Ok(delta)
    }

    /// Fail a device: mark it [`NodeHealth::Down`] in the topology — every
    /// placement solved from now on routes around it — and quiesce every
    /// tenant whose placement occupies it through the normal
    /// [`remove`](Controller::remove) path, so their ledger bookings are
    /// released, their instructions struck from the images and the epoch
    /// bumped exactly as for a voluntary removal.
    ///
    /// Returns the displaced tenants' original requests (in user order) so
    /// the caller can re-place them against the degraded topology; the
    /// service-level [`fail_device`](crate::ClickIncService::fail_device)
    /// drives that re-placement through the full plan → verify → admission →
    /// commit chain.  Unknown devices are [`ClickIncError::UnknownHost`];
    /// failing an already-down device is idempotent.
    pub fn fail_device(&mut self, device: &str) -> Result<Vec<ServiceRequest>, ClickIncError> {
        let id = self
            .topology
            .find(device)
            .ok_or_else(|| ClickIncError::UnknownHost(device.to_string()))?;
        let health_before = self.topology.health_version();
        self.topology.set_node_health(id, NodeHealth::Down);
        if self.topology.health_version() != health_before {
            // plans solved before the failure could still route through the
            // dead device (commit checks the epoch, not health) — a health
            // transition must therefore move the epoch even when no tenant
            // is displaced
            self.epoch += 1;
        }
        let affected: Vec<String> = self
            .deployments
            .keys()
            .filter(|user| self.devices_of(user).contains(&id))
            .cloned()
            .collect();
        let mut displaced = Vec::new();
        for user in affected {
            let request = self.deployments[&user].request.clone();
            self.remove(&user)?;
            displaced.push(request);
        }
        Ok(displaced)
    }

    /// Restore a failed device to [`NodeHealth::Up`]: placements may use it
    /// again.  The caller re-places tenants parked by the failure
    /// ([`crate::ClickIncService::restore_device`] does so automatically).
    pub fn restore_device(&mut self, device: &str) -> Result<(), ClickIncError> {
        let id = self
            .topology
            .find(device)
            .ok_or_else(|| ClickIncError::UnknownHost(device.to_string()))?;
        let health_before = self.topology.health_version();
        self.topology.set_node_health(id, NodeHealth::Up);
        if self.topology.health_version() != health_before {
            // plans solved against the degraded topology routed around this
            // device; restoring it changes the solve inputs, so they must
            // not commit unexamined
            self.epoch += 1;
        }
        Ok(())
    }

    /// Names of the devices currently marked [`NodeHealth::Down`].
    pub fn down_devices(&self) -> Vec<String> {
        self.topology.down_nodes()
    }

    /// The physical devices hosting a user's snippets (for scenario wiring).
    pub fn devices_of(&self, user: &str) -> Vec<NodeId> {
        self.deployments
            .get(user)
            .map(|d| {
                d.plan
                    .assignments
                    .iter()
                    .filter(|a| !a.is_empty())
                    .flat_map(|a| a.members.iter().copied())
                    .collect()
            })
            .unwrap_or_default()
    }
}

/// A plan's non-empty assignments, each with the slice cut for it.
fn placed<'a>(
    plan: &'a PlacementPlan,
    snippets: &'a [Arc<IrProgram>],
) -> impl Iterator<Item = (&'a Assignment, &'a Arc<IrProgram>)> {
    plan.assignments.iter().filter(|a| !a.is_empty()).zip(snippets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clickinc_lang::templates::{
        count_min_sketch, dqacc_template, kvs_template, mlagg_template, DqAccParams, KvsParams,
        MlAggParams,
    };

    fn controller() -> Controller {
        Controller::new(Topology::emulation_topology_all_tofino())
    }

    #[test]
    fn deploy_compiles_places_and_installs() {
        let mut c = controller();
        let t = kvs_template("kvs0", KvsParams { cache_depth: 2000, ..Default::default() });
        let request = ServiceRequest::from_template(t, &["pod0a", "pod1a"], "pod2b");
        let ratio_before = c.remaining_resource_ratio();
        let deployment = c.deploy(request).expect("kvs deploys");
        assert_eq!(deployment.user, "kvs0");
        assert!(!deployment.plan.devices_used().is_empty());
        assert!(!deployment.device_programs.is_empty());
        assert!(deployment.delta.device_count() > 0);
        assert!(deployment.elapsed < Duration::from_secs(30));
        assert!(!c.devices_of("kvs0").is_empty());
        // a data plane built from the hops runs the program
        assert!(c.tenant_hops("kvs0").iter().any(|hop| hop.plane().has_program()));
        // resources were booked
        assert!(c.remaining_resource_ratio() <= ratio_before);
        assert_eq!(c.active_users(), vec!["kvs0"]);
    }

    #[test]
    fn duplicate_users_and_unknown_hosts_are_rejected() {
        let mut c = controller();
        let t = count_min_sketch("cms0", 3, 512);
        c.deploy(ServiceRequest::from_template(t.clone(), &["pod0a"], "pod2b")).unwrap();
        let dup = c.deploy(ServiceRequest::from_template(t, &["pod0a"], "pod2b"));
        assert!(matches!(dup.unwrap_err(), ClickIncError::DuplicateUser(_)));
        let bad = c.deploy(ServiceRequest::new("x", "forward()\n", &["nowhere"], "pod2b"));
        assert!(matches!(bad.unwrap_err(), ClickIncError::UnknownHost(_)));
        let bad_dst = c.deploy(ServiceRequest::new("y", "forward()\n", &["pod0a"], "mars"));
        assert!(matches!(bad_dst.unwrap_err(), ClickIncError::UnknownHost(_)));
    }

    #[test]
    fn compile_errors_are_reported() {
        let mut c = controller();
        let r = ServiceRequest::new("bad", "x = undefined_thing(1)\n", &["pod0a"], "pod2b");
        assert!(matches!(c.deploy(r).unwrap_err(), ClickIncError::Compile(_)));
    }

    #[test]
    fn multiple_tenants_coexist_and_release_resources_on_removal() {
        let mut c = controller();
        c.deploy(ServiceRequest::from_template(
            kvs_template("kvs0", KvsParams { cache_depth: 2000, ..Default::default() }),
            &["pod0a", "pod1a"],
            "pod2b",
        ))
        .unwrap();
        let after_first = c.remaining_resource_ratio();
        c.deploy(ServiceRequest::from_template(
            dqacc_template("dq0", DqAccParams { depth: 2000, ways: 4 }),
            &["pod0b"],
            "pod2b",
        ))
        .unwrap();
        c.deploy(ServiceRequest::from_template(
            mlagg_template(
                "agg0",
                MlAggParams { dims: 8, num_aggregators: 1024, ..Default::default() },
            ),
            &["pod1a", "pod1b"],
            "pod2a",
        ))
        .unwrap();
        assert_eq!(c.active_users().len(), 3);
        let after_three = c.remaining_resource_ratio();
        assert!(after_three <= after_first);

        let dq_devices = c.devices_of("dq0");
        assert!(dq_devices.iter().all(|d| c.images().images[d].owners().contains("dq0")));
        let delta = c.remove("dq0").expect("removal succeeds");
        assert!(delta.device_count() > 0);
        assert_eq!(c.active_users().len(), 2);
        assert!(c.remaining_resource_ratio() >= after_three);
        assert!(matches!(c.remove("dq0").unwrap_err(), ClickIncError::UnknownUser(_)));
        // the device images dropped the tenant's instructions and objects…
        assert!(c.tenant_hops("dq0").is_empty());
        for device in &dq_devices {
            let image = &c.images().images[device];
            assert!(!image.owners().contains("dq0"), "instructions struck");
            assert!(image.objects.iter().all(|o| !o.name.starts_with("dq0_")), "objects released");
        }
        // …so the same user id can deploy again from a clean slate
        c.deploy(ServiceRequest::from_template(
            dqacc_template("dq0", DqAccParams { depth: 2000, ways: 4 }),
            &["pod0b"],
            "pod2b",
        ))
        .expect("re-deploy after removal succeeds");
        assert_eq!(c.active_users().len(), 3);
    }

    #[test]
    fn failed_devices_quiesce_their_tenants_and_release_resources() {
        let mut c = controller();
        let t = kvs_template("kvs0", KvsParams { cache_depth: 1000, ..Default::default() });
        c.deploy(ServiceRequest::from_template(t, &["pod0a"], "pod2b")).unwrap();
        let device = c.topology().node(*c.devices_of("kvs0").first().unwrap()).name.clone();
        let displaced = c.fail_device(&device).expect("known device");
        assert_eq!(displaced.len(), 1, "the placed tenant was displaced");
        assert_eq!(displaced[0].user, "kvs0");
        assert!(c.active_users().is_empty());
        assert_eq!(c.remaining_resource_ratio(), 1.0, "bookings released");
        assert_eq!(c.down_devices(), vec![device.clone()]);
        // a re-solve against the degraded topology avoids the failed device
        if let Ok(plan) = c.plan(&displaced[0]) {
            assert!(
                !plan.physical_devices().contains(&device),
                "replan avoids the down device: {:?}",
                plan.physical_devices()
            );
        }
        c.restore_device(&device).expect("restores");
        assert!(c.down_devices().is_empty());
        assert!(matches!(c.fail_device("mars").unwrap_err(), ClickIncError::UnknownHost(_)));
        assert!(matches!(c.restore_device("mars").unwrap_err(), ClickIncError::UnknownHost(_)));
    }

    #[test]
    fn deployed_mlagg_actually_aggregates_on_the_emulated_plane() {
        use clickinc_emulator::packet::gradient_packet;
        use clickinc_emulator::PacketAction;
        let mut c = controller();
        let dims = 4usize;
        let workers = 2usize;
        c.deploy(ServiceRequest::from_template(
            mlagg_template(
                "agg0",
                MlAggParams {
                    dims: dims as u32,
                    num_workers: workers as u32,
                    num_aggregators: 256,
                    ..Default::default()
                },
            ),
            &["pod0a", "pod1a"],
            "pod2b",
        ))
        .unwrap();
        // find a device that hosts the aggregation state
        let user_id = 1; // first deployment gets numeric id 1
        let mut completed = false;
        'outer: for hop in c.tenant_hops("agg0") {
            // replay the workload against that hop's plane
            let mut plane = hop.plane();
            if !plane.has_program() {
                continue;
            }
            for w in 0..workers {
                let mut pkt = gradient_packet("w", "ps", user_id, 1, w, dims, &[1, 2, 3, 4]);
                let outcome = plane.process(&mut pkt);
                if outcome.action == PacketAction::Back {
                    assert_eq!(pkt.inc.get("data_0"), clickinc_ir::Value::Int(2));
                    completed = true;
                    break 'outer;
                }
            }
        }
        assert!(completed, "some device on the path completed the aggregation");
    }

    #[test]
    fn tenant_hops_carry_the_tenants_slices() {
        let mut c = controller();
        let t = kvs_template("kvs0", KvsParams { cache_depth: 1000, ..Default::default() });
        c.deploy(ServiceRequest::from_template(t, &["pod0a", "pod1a"], "pod2b")).unwrap();
        let hops = c.tenant_hops("kvs0");
        assert!(!hops.is_empty());
        let with_snippets: Vec<_> = hops.iter().filter(|h| !h.snippets.is_empty()).collect();
        assert!(!with_snippets.is_empty());
        for hop in &with_snippets {
            for snippet in &hop.snippets {
                assert_eq!(snippet.name, "kvs0");
            }
        }
        assert!(c.tenant_hops("missing").is_empty());
    }

    #[test]
    fn plan_summary_reports_the_facts_the_accessors_expose() {
        let c = controller();
        let t = kvs_template("kvs0", KvsParams { cache_depth: 1000, ..Default::default() });
        let plan = c.plan(&ServiceRequest::from_template(t, &["pod0a"], "pod2b")).expect("plans");
        assert_eq!(plan.epoch(), c.epoch());
        let summary = plan.summary();
        assert_eq!(summary.user, "kvs0");
        assert_eq!(summary.devices, plan.devices());
        assert!(!summary.demand.is_empty());
        assert_eq!(summary.predicted_remaining_ratio, plan.predicted_remaining_ratio());
    }

    #[test]
    fn doc_example_compiles() {
        // mirrors the crate-level doc example
        let topo = Topology::emulation_topology_all_tofino();
        let mut controller = Controller::new(topo);
        let request = ServiceRequest::from_template(
            count_min_sketch("cms_demo", 3, 1024),
            &["pod0a"],
            "pod2b",
        );
        let deployment = controller.deploy(request).expect("cms deploys");
        assert!(!deployment.plan.devices_used().is_empty());
    }
}
