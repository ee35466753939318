//! The unified INC-as-a-service facade: one typed surface for the whole
//! tenant lifecycle, and the **one admission pipeline** behind it.
//!
//! [`ClickIncService`] owns both halves of the system — a [`Controller`]
//! (where programs run) and a [`TrafficEngine`] (how traffic reaches them).
//! Every way a tenant can come to serve traffic — [`commit`], [`deploy`],
//! [`deploy_or_queue`] and the retry drain, [`deploy_all`],
//! [`replace_tenant`], the re-placements inside [`fail_device`] and
//! [`restore_device`] — is a thin driver of the same two private stages,
//! run under the one service state lock:
//!
//! 1. **admit** — check the request's shape and user id, ask the
//!    service-wide admission chain (installed with [`set_admission_policy`])
//!    the questions that need no plan (a full house refuses here,
//!    without a solve), solve ([`Controller::plan`]), then ask the chain
//!    again with the plan and [`Controller::commit`].  A caller that brings
//!    an already-solved plan skips straight to the staleness check and the
//!    one gate on its plan.  Every fallible check precedes the first
//!    mutation, so a refusal leaves the ledger, the device images and the
//!    engine bit-identical; the stage never touches the engine at all.
//! 2. **mirror** — read the sharding mode the tenant's program text is
//!    eligible for (honouring [`InitialSharding`]), register its hops with
//!    the engine — the data plane, which installs the slices the plan
//!    carried past the verifier — and build the [`TenantHandle`].
//!    Infallible, and always under the same lock as the admit it follows,
//!    so engine adds and removals arrive in controller order.
//!
//! The state that pipeline reads and writes — controller, admission chain,
//! [`InitialSharding`], parked (degraded) tenants, retry queue — lives
//! behind a single mutex shared by the service and every [`TenantHandle`];
//! there is no lock order to get wrong.  The only plan cache is the
//! controller's exact placement segment memo.
//!
//! [`commit`]: ClickIncService::commit
//! [`deploy`]: ClickIncService::deploy
//! [`deploy_or_queue`]: ClickIncService::deploy_or_queue
//! [`deploy_all`]: ClickIncService::deploy_all
//! [`set_admission_policy`]: ClickIncService::set_admission_policy
//! [`replace_tenant`]: ClickIncService::replace_tenant
//! [`fail_device`]: ClickIncService::fail_device
//! [`restore_device`]: ClickIncService::restore_device

use crate::controller::{Controller, DeploymentPlan};
use crate::error::ClickIncError;
use crate::policy::{AdmissionContext, AdmissionDecision, AdmissionPolicy, PolicyChain};
use crate::request::ServiceRequest;
use clickinc_ir::Value;
use clickinc_runtime::workload::Workload;
use clickinc_runtime::{
    DeviceHealth, EngineConfig, EngineHandle, RunOutcome, ShardingMode, TelemetryReport, TenantHop,
    TenantStats, TrafficEngine, WorkloadReport,
};
use clickinc_synthesis::DeploymentDelta;
use clickinc_topology::Topology;
use std::collections::BTreeMap;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex, MutexGuard};

/// How the mirror stage picks a freshly committed tenant's sharding mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InitialSharding {
    /// The mode the deployed program is eligible for, derived once per
    /// program text from its state profile
    /// ([`PreparedSource::sharding`](crate::controller::PreparedSource::sharding)):
    /// flow-shardable programs spread across every shard immediately.  The
    /// default.
    #[default]
    Derived,
    /// Start every tenant on one shard ([`ShardingMode::ByTenant`]) and let
    /// the adaptive runtime spread it only under observed saturation —
    /// conservative placement, telemetry-driven scale-out.
    Pinned,
}

/// The single service surface for INC tenants (paper §3.2, §6): owns the
/// controller and the sharded traffic engine, exposes transactional deploys
/// and per-tenant handles.  See the [module docs](self) for the pipeline
/// every deploy path drives.
pub struct ClickIncService {
    shared: Arc<Shared>,
    engine: TrafficEngine,
}

/// What the service and every [`TenantHandle`] share: the one state lock and
/// the engine handle the pipeline mirrors onto.
struct Shared {
    state: Mutex<ServiceState>,
    engine: EngineHandle,
}

/// Everything the admission pipeline reads and writes, behind one lock.
struct ServiceState {
    controller: Controller,
    /// The service-wide admission chain; empty (admit everything) by
    /// default.
    policy: PolicyChain,
    initial_sharding: InitialSharding,
    /// Tenants displaced by a device failure that could not be re-placed:
    /// parked with their original requests, retried on every
    /// [`restore_device`](ClickIncService::restore_device).
    degraded: BTreeMap<String, DegradedTenant>,
    /// Requests refused by admission ([`ClickIncError::Rejected`]) and
    /// parked by [`deploy_or_queue`](ClickIncService::deploy_or_queue):
    /// re-tried in priority order whenever capacity frees up (tenant
    /// removal, device restore, or an explicit
    /// [`drain_retries`](ClickIncService::drain_retries)).
    retry: RetryQueue,
}

/// What `admit` starts from: a request it solves itself, or a plan the
/// caller already solved (quote-then-commit is one solve).  Lives on the
/// stack for the length of one `admit` call, so the plan is not boxed.
#[allow(clippy::large_enum_variant)]
enum Source<'a> {
    Request(&'a ServiceRequest),
    Plan(DeploymentPlan),
}

/// Whether `admit` consults the service-wide chain, before the solve and
/// again with the plan.  Request checks, staleness and the controller's own
/// commit checks apply under either gate.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Gate {
    /// The service-wide chain.
    Service,
    /// No policy: only for putting a tenant back after a refused
    /// [`replace_tenant`](ClickIncService::replace_tenant) — it was admitted
    /// once already, and a failed advisory re-placement must not become an
    /// outage.
    Bypass,
}

/// A tenant the controller committed and the engine has not seen yet: the
/// output of `admit`, consumed by `mirror`.
struct Admitted {
    user: String,
    numeric_id: i64,
}

impl ServiceState {
    /// Pipeline stage 1: request checks → plan-free admission gate → solve
    /// → admission gate on the plan → [`Controller::commit`].  Nothing is
    /// mutated before the last fallible check, and the engine is out of
    /// reach by construction.
    ///
    /// Precedence, first to last:
    /// 1. A duplicate user — one parked in the degraded state, then a
    ///    malformed request or a live duplicate
    ///    ([`Controller::check_request`]).  A parked name is a
    ///    [`ClickIncError::DuplicateUser`] as a live one is, so one name is
    ///    never both live and parked.  None is a policy verdict, so
    ///    [`deploy_or_queue`](ClickIncService::deploy_or_queue) never parks
    ///    it.
    /// 2. A verdict that needs no plan ([`MaxTenants`](crate::MaxTenants)'s
    ///    full house): it outranks every error only a solve can find —
    ///    compile, unknown host, placement, verification — and spares the
    ///    solve.
    /// 3. The solve's own errors.
    /// 4. A verdict on the solved plan.
    ///
    /// A caller-solved plan is refused if its user is parked, skips the rest
    /// of 1–3 and is checked for staleness next: a
    /// plan priced against a dead ledger must surface as
    /// [`ClickIncError::StalePlan`] (re-plan and retry — the re-solve may
    /// well be admissible), never as a policy verdict reached on stale
    /// numbers.
    fn admit(&mut self, source: Source<'_>, gate: Gate) -> Result<Admitted, ClickIncError> {
        let user = match &source {
            Source::Request(request) => &request.user,
            Source::Plan(plan) => plan.user(),
        };
        self.refuse_parked(user)?;
        let plan = match source {
            Source::Request(request) => {
                self.controller.check_request(request)?;
                self.gate(gate, &request.user, None)?;
                self.controller.plan(request)?
            }
            Source::Plan(plan) => {
                if plan.epoch() != self.controller.epoch() {
                    return Err(ClickIncError::StalePlan {
                        user: plan.user().to_string(),
                        planned_epoch: plan.epoch(),
                        current_epoch: self.controller.epoch(),
                    });
                }
                plan
            }
        };
        self.gate(gate, plan.user(), Some(&plan))?;
        let deployment = self.controller.commit(plan)?;
        Ok(Admitted { user: deployment.user.clone(), numeric_id: deployment.numeric_id })
    }

    /// A user parked in the degraded state is a [`ClickIncError::DuplicateUser`]
    /// as a live one is, so one name is never both live and parked.
    fn refuse_parked(&self, user: &str) -> Result<(), ClickIncError> {
        if self.degraded.contains_key(user) {
            return Err(ClickIncError::DuplicateUser(user.to_string()));
        }
        Ok(())
    }

    /// Consult the service-wide chain unless `gate` bypasses it, before the
    /// solve (`plan: None`) or after it; a refusal is `user`'s
    /// [`ClickIncError::Rejected`].
    fn gate(
        &self,
        gate: Gate,
        user: &str,
        plan: Option<&DeploymentPlan>,
    ) -> Result<(), ClickIncError> {
        if gate == Gate::Bypass {
            return Ok(());
        }
        let ctx = AdmissionContext { plan, active_tenants: self.controller.tenant_count() };
        match self.policy.evaluate(&ctx) {
            AdmissionDecision::Admit => Ok(()),
            AdmissionDecision::Reject { policy, reason } => {
                Err(ClickIncError::Rejected { user: user.to_string(), policy, reason })
            }
        }
    }
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, ServiceState> {
        self.state.lock().expect("a thread panicked while holding the service state lock")
    }

    /// Pipeline stage 2: read the sharding mode the committed deployment's
    /// program text is eligible for (stateless and flow-keyed-state programs
    /// spread across every engine shard, anything else pins to one; the
    /// [`InitialSharding`] knob overrides), register the tenant with the
    /// engine, and build its handle around the mode the engine was actually
    /// given — chosen once, so handle and engine cannot disagree.
    fn mirror(self: &Arc<Self>, state: &ServiceState, admitted: Admitted) -> TenantHandle {
        let Admitted { user, numeric_id } = admitted;
        let hops = state.controller.tenant_hops(&user);
        let mode = match state.initial_sharding {
            InitialSharding::Derived => {
                let deployment = state.controller.deployment(&user).expect("admitted, so deployed");
                deployment.prepared.sharding.clone()
            }
            InitialSharding::Pinned => ShardingMode::ByTenant,
        };
        self.engine.add_tenant_sharded(&user, hops.clone(), mode.clone());
        TenantHandle { user, numeric_id, hops, mode, shared: Arc::clone(self) }
    }

    /// Both stages back to back, for every driver that serves one tenant at
    /// a time.
    fn deploy(
        self: &Arc<Self>,
        state: &mut ServiceState,
        source: Source<'_>,
        gate: Gate,
    ) -> Result<TenantHandle, ClickIncError> {
        let admitted = state.admit(source, gate)?;
        Ok(self.mirror(state, admitted))
    }

    /// Take a live tenant off the controller and the engine, in that order
    /// and under one lock — a removal can never overtake the add it revokes.
    fn quiesce(
        &self,
        state: &mut ServiceState,
        user: &str,
    ) -> Result<DeploymentDelta, ClickIncError> {
        let delta = state.controller.remove(user)?;
        self.engine.remove_tenant(user);
        Ok(delta)
    }

    /// The one voluntary-departure driver, shared by
    /// [`ClickIncService::remove`] and [`TenantHandle::remove`]: un-park,
    /// quiesce, then hand the freed capacity to the retry queue — one
    /// critical section, so no arrival can slip between the departure and
    /// the waiters it admits.  A parked tenant holds nothing: un-parking it
    /// is the whole removal, with nothing to quiesce and no capacity freed.
    fn remove(self: &Arc<Self>, user: &str) -> Result<DeploymentDelta, ClickIncError> {
        let mut state = self.lock();
        if state.degraded.remove(user).is_some() && state.controller.deployment(user).is_none() {
            return Ok(DeploymentDelta::default());
        }
        let delta = self.quiesce(&mut state, user)?;
        self.drain_retries(&mut state);
        Ok(delta)
    }

    /// Retry every queued request once, highest priority first.
    fn drain_retries(self: &Arc<Self>, state: &mut ServiceState) -> RetryReport {
        let mut report = RetryReport { admitted: Vec::new(), requeued: 0, dropped: Vec::new() };
        for entry in state.retry.take_ordered() {
            match self.deploy(state, Source::Request(&entry.request), Gate::Service) {
                Ok(handle) => report.admitted.push(handle),
                Err(ClickIncError::Rejected { .. }) => {
                    report.requeued += 1;
                    // keep the original arrival slot so FIFO order survives
                    state.retry.entries.push(entry);
                }
                Err(err) => report.dropped.push((entry.request.user, err)),
            }
        }
        report
    }

    /// Re-place tenants a device failure displaced, against the current
    /// topology, under the service chain: the solve's path enumeration
    /// already skips every down device.  Tenants that cannot be re-placed
    /// are parked under the typed error the report carries.
    fn replace_displaced(
        self: &Arc<Self>,
        state: &mut ServiceState,
        device: &str,
        displaced: Vec<DegradedTenant>,
    ) -> FailoverReport {
        let mut report = FailoverReport {
            device: device.to_string(),
            recovered: Vec::new(),
            degraded: Vec::new(),
        };
        for tenant in displaced {
            let user = tenant.request.user.clone();
            match self.deploy(state, Source::Request(&tenant.request), Gate::Service) {
                Ok(_) => report.recovered.push(user),
                Err(err) => {
                    report.degraded.push(ClickIncError::Degraded {
                        user: user.clone(),
                        device: tenant.device.clone(),
                        reason: err.to_string(),
                    });
                    state.degraded.insert(user, tenant);
                }
            }
        }
        report
    }
}

/// Read/write access to the service's [`Controller`], holding the service
/// state lock for as long as it lives; returned by
/// [`ClickIncService::controller`].
pub struct ControllerGuard<'a>(MutexGuard<'a, ServiceState>);

impl Deref for ControllerGuard<'_> {
    type Target = Controller;

    fn deref(&self) -> &Controller {
        &self.0.controller
    }
}

impl DerefMut for ControllerGuard<'_> {
    fn deref_mut(&mut self) -> &mut Controller {
        &mut self.0.controller
    }
}

/// The admission waiting room: requests refused by policy, ordered for
/// retry by priority (descending) then arrival.
#[derive(Default)]
struct RetryQueue {
    entries: Vec<RetryEntry>,
    next_seq: u64,
}

struct RetryEntry {
    seq: u64,
    request: ServiceRequest,
}

impl RetryQueue {
    /// Park a request; a re-submission for the same user replaces the old
    /// entry (and takes a fresh arrival slot).
    fn push(&mut self, request: ServiceRequest) {
        self.entries.retain(|e| e.request.user != request.user);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.push(RetryEntry { seq, request });
    }

    /// Every entry in drain order: highest priority first, FIFO within a
    /// priority level.
    fn ordered(&mut self) -> &[RetryEntry] {
        self.entries.sort_by_key(|e| (std::cmp::Reverse(e.request.priority), e.seq));
        &self.entries
    }

    /// Remove and return every entry, in drain order.
    fn take_ordered(&mut self) -> Vec<RetryEntry> {
        self.ordered();
        std::mem::take(&mut self.entries)
    }
}

/// What one [`ClickIncService::drain_retries`] pass did with the queued
/// requests.
pub struct RetryReport {
    /// Handles of the requests that now passed admission and are serving.
    pub admitted: Vec<TenantHandle>,
    /// Requests still refused by admission — they stay queued for the next
    /// drain.
    pub requeued: usize,
    /// Requests that failed for a non-admission reason (compile, placement,
    /// duplicate user, …), with the error: these are dropped from the queue
    /// — waiting cannot fix them.  A request is solved only once the
    /// plan-free gate lets it through, so a solve error surfaces on that
    /// drain, not on the one that parked it.
    pub dropped: Vec<(String, ClickIncError)>,
}

/// A parked tenant: its original request (for the retry) and the failed
/// device that displaced it.
struct DegradedTenant {
    request: ServiceRequest,
    device: String,
}

/// What one [`ClickIncService::fail_device`] or
/// [`restore_device`](ClickIncService::restore_device) call did to the
/// affected tenants.
#[derive(Debug)]
pub struct FailoverReport {
    /// The failed (or restored) device.
    pub device: String,
    /// Tenants re-placed through the full plan → verify → admission →
    /// commit chain and serving again.
    pub recovered: Vec<String>,
    /// Tenants that could not be re-placed, each as the typed
    /// [`ClickIncError::Degraded`] it is parked under.  They serve no
    /// traffic and hold no resources until a restore retries them.
    pub degraded: Vec<ClickIncError>,
}

impl FailoverReport {
    /// Whether every affected tenant is serving again.
    pub fn fully_recovered(&self) -> bool {
        self.degraded.is_empty()
    }
}

impl ClickIncService {
    /// Serve the given topology with the default engine sizing.
    pub fn new(topology: Topology) -> Result<ClickIncService, ClickIncError> {
        ClickIncService::with_config(topology, EngineConfig::default())
    }

    /// Serve the given topology with explicit engine sizing; rejects
    /// degenerate configs with [`ClickIncError::Engine`].
    pub fn with_config(
        topology: Topology,
        config: EngineConfig,
    ) -> Result<ClickIncService, ClickIncError> {
        let engine = TrafficEngine::try_new(config)?;
        let state = ServiceState {
            controller: Controller::new(topology),
            policy: PolicyChain::new(),
            initial_sharding: InitialSharding::default(),
            degraded: BTreeMap::new(),
            retry: RetryQueue::default(),
        };
        let shared = Arc::new(Shared { state: Mutex::new(state), engine: engine.handle() });
        Ok(ClickIncService { shared, engine })
    }

    /// Choose how future commits pick a tenant's sharding mode (existing
    /// tenants are untouched).  [`InitialSharding::Pinned`] starts every
    /// tenant on one shard so the adaptive runtime
    /// ([`crate::AdaptiveRuntime`]) spreads it only under observed load.
    pub fn set_initial_sharding(&self, initial: InitialSharding) {
        self.shared.lock().initial_sharding = initial;
    }

    /// Install the service-wide admission policy, replacing the previous
    /// one.  Every deploy path consults it before the first mutation (see
    /// the [module docs](self)); a refusal surfaces as
    /// [`ClickIncError::Rejected`] and changes nothing.  Install a
    /// [`PolicyChain`] to compose several rules; the default (empty chain)
    /// admits everything, and installing `PolicyChain::new()` goes back to
    /// it.
    pub fn set_admission_policy(&self, policy: impl AdmissionPolicy + 'static) {
        self.shared.lock().policy = PolicyChain::new().with(policy);
    }

    /// Low-level access to the owned controller (the ablation escape hatch),
    /// for inspection and solver knobs.  The guard holds the service state
    /// lock: drop it before calling back into the service.  The controller
    /// holds no data plane: a deploy made directly through it books
    /// resources but is **not** mirrored onto the engine and serves nothing.
    pub fn controller(&self) -> ControllerGuard<'_> {
        ControllerGuard(self.shared.lock())
    }

    /// A clonable handle to the serving engine (for custom drivers).
    pub fn engine_handle(&self) -> EngineHandle {
        self.engine.handle()
    }

    /// Number of engine shards serving traffic.
    pub fn shards(&self) -> usize {
        self.engine.shards()
    }

    /// Compile + place `request` as a pure dry-run.  The controller state is
    /// untouched: planning never changes the remaining resource ratio, the
    /// active user set, or any device image.  A user parked in the degraded
    /// state is refused as [`commit`](ClickIncService::commit) would refuse
    /// its plan: [`ClickIncError::DuplicateUser`].
    pub fn plan(&self, request: &ServiceRequest) -> Result<DeploymentPlan, ClickIncError> {
        let state = self.shared.lock();
        state.refuse_parked(&request.user)?;
        state.controller.plan(request)
    }

    /// Commit an already-solved plan: admission gate, book resources,
    /// record the plan's slices on the device image logs, and mirror the
    /// tenant onto the engine, which installs those slices.  Returns the
    /// tenant's handle.  A plan solved before any other commit, removal or
    /// health change is [`ClickIncError::StalePlan`]; a policy refusal is
    /// [`ClickIncError::Rejected`]; either changes nothing.
    pub fn commit(&self, plan: DeploymentPlan) -> Result<TenantHandle, ClickIncError> {
        self.shared.deploy(&mut self.shared.lock(), Source::Plan(plan), Gate::Service)
    }

    /// Plan + gate + commit in one step, under a single lock — a concurrent
    /// commit between the phases cannot turn this call into a spurious
    /// [`ClickIncError::StalePlan`].
    pub fn deploy(&self, request: ServiceRequest) -> Result<TenantHandle, ClickIncError> {
        self.shared.deploy(&mut self.shared.lock(), Source::Request(&request), Gate::Service)
    }

    /// [`deploy`](ClickIncService::deploy), but an admission refusal parks
    /// the request in the retry queue instead of discarding it: the
    /// [`ClickIncError::Rejected`] is still returned (the tenant is *not*
    /// serving), and the request is re-tried — highest priority first —
    /// whenever capacity frees up: on every [`remove`](ClickIncService::remove)
    /// (by id or through the tenant's handle), every
    /// [`restore_device`](ClickIncService::restore_device), and every
    /// explicit [`drain_retries`](ClickIncService::drain_retries).
    ///
    /// A malformed request or a duplicate user is returned without
    /// queueing.  So are the solve's own failures (compile, unknown host,
    /// placement, verification) — but only when no plan-free policy refuses
    /// first: a full house answers before the solve runs, so such a request
    /// is parked, and the first drain that gets past the plan-free gate
    /// solves it and drops it with its error in [`RetryReport::dropped`].
    pub fn deploy_or_queue(&self, request: ServiceRequest) -> Result<TenantHandle, ClickIncError> {
        let mut state = self.shared.lock();
        let outcome = self.shared.deploy(&mut state, Source::Request(&request), Gate::Service);
        if let Err(ClickIncError::Rejected { .. }) = outcome {
            state.retry.push(request);
        }
        outcome
    }

    /// Retry every queued request (highest priority first, FIFO within a
    /// priority), one attempt each.  Requests that now pass admission are
    /// committed and returned; requests still refused stay queued; requests
    /// failing for any other reason are dropped with their error.
    pub fn drain_retries(&self) -> RetryReport {
        self.shared.drain_retries(&mut self.shared.lock())
    }

    /// Number of requests waiting in the admission retry queue.
    pub fn retry_queue_len(&self) -> usize {
        self.shared.lock().retry.entries.len()
    }

    /// Users waiting in the admission retry queue, in drain order (highest
    /// priority first).
    pub fn queued_users(&self) -> Vec<String> {
        self.shared.lock().retry.ordered().iter().map(|e| e.request.user.clone()).collect()
    }

    /// Deploy a batch of requests with **all-or-nothing** semantics: members
    /// are admitted strictly in request order, each solved against the state
    /// its predecessors left behind (so a successful batch is bit-identical
    /// to deploying the members one by one) and gated by the service-wide
    /// chain at its own commit, which counts the members committed before
    /// it as residents; if any member fails to plan, is refused by the
    /// admission policy, or fails to commit, every member this call already
    /// committed is removed again — the ledger ratio, the active user set
    /// and what tenants own in every device image return to their pre-call
    /// state bit-identical.  The engine only sees the batch once all of it is
    /// committed, so it never sees any tenant of a failed batch.
    pub fn deploy_all(
        &self,
        requests: Vec<ServiceRequest>,
    ) -> Result<Vec<TenantHandle>, ClickIncError> {
        let mut state = self.shared.lock();
        let mut admitted: Vec<Admitted> = Vec::with_capacity(requests.len());
        for request in &requests {
            match state.admit(Source::Request(request), Gate::Service) {
                Ok(member) => admitted.push(member),
                Err(err) => {
                    // unwind in reverse commit order; removal releases exactly
                    // what commit booked, so the rollback restores the
                    // pre-call state bit for bit
                    for member in admitted.iter().rev() {
                        let _ = state.controller.remove(&member.user);
                    }
                    return Err(err);
                }
            }
        }
        Ok(admitted.into_iter().map(|member| self.shared.mirror(&state, member)).collect())
    }

    /// Remove a tenant by user id: release its resources, strike it from the
    /// device images, quiesce and uninstall it on the engine — exactly what
    /// [`TenantHandle::remove`] does, for when the handle is out of reach.
    /// A parked ([`ClickIncError::Degraded`]) tenant is un-parked, so it
    /// will not resurrect on the next restore; it held nothing, so its
    /// removal returns an empty [`DeploymentDelta`].  Removing a live
    /// tenant frees capacity, so the admission retry queue is drained before
    /// the lock is released: queued requests that now pass admission start
    /// serving (callers that want their handles should call
    /// [`drain_retries`](ClickIncService::drain_retries) themselves).
    pub fn remove(&self, user: &str) -> Result<DeploymentDelta, ClickIncError> {
        self.shared.remove(user)
    }

    /// Re-place a live tenant through the pipeline: remove it (releasing its
    /// resources and quiescing its traffic), then re-solve its original
    /// request against the *current* ledger and co-residents and gate the
    /// new plan exactly like a fresh deploy.  This is the adaptive runtime's
    /// escalation path
    /// ([`AdaptAction::Replan`](clickinc_runtime::AdaptAction::Replan)): a
    /// tenant that stays saturated after resharding and budget resizing gets
    /// a fresh placement, but only one the verifier and every admission
    /// policy accept.
    ///
    /// If the re-plan fails — verification, placement, or an admission
    /// refusal — the original deployment is put back through the same
    /// pipeline with the policy gate bypassed (it was already admitted once,
    /// and a failed advisory re-placement must not turn into an outage) and
    /// the error is returned.  Either way the tenant gets a fresh numeric id
    /// and its telemetry starts from zero counters: the removal drops the
    /// old deployment's entry, so flush and read the tenant's stats first to
    /// keep them.  (A fault the old deployment lost packets to and had not
    /// recovered from carries over: the new one dates its recovery from it.)
    pub fn replace_tenant(&self, user: &str) -> Result<TenantHandle, ClickIncError> {
        let mut state = self.shared.lock();
        let request = state
            .controller
            .deployment(user)
            .map(|d| d.request.clone())
            .ok_or_else(|| ClickIncError::UnknownUser(user.to_string()))?;
        self.shared.quiesce(&mut state, user)?;
        let replaced = self.shared.deploy(&mut state, Source::Request(&request), Gate::Service);
        if replaced.is_err() {
            self.shared
                .deploy(&mut state, Source::Request(&request), Gate::Bypass)
                .expect("a just-removed deployment re-solves and re-commits");
        }
        replaced
    }

    /// Fail a device: mark it down in both the topology (future placements
    /// route around it) and the serving engine (in-flight packets hitting it
    /// are lost and counted as fault losses), quiesce every tenant whose
    /// placement occupied it, and re-place each one through the pipeline,
    /// whose path enumeration skips every down device.  Tenants
    /// that cannot be re-placed — placement is infeasible on the degraded
    /// topology, or an admission policy refuses the move — park in the typed
    /// [`ClickIncError::Degraded`] state: they hold no resources and serve
    /// no traffic, and every [`restore_device`](ClickIncService::restore_device)
    /// retries them.  Co-resident tenants placed elsewhere are untouched.
    pub fn fail_device(&self, device: &str) -> Result<FailoverReport, ClickIncError> {
        let mut state = self.shared.lock();
        let displaced = state.controller.fail_device(device)?;
        self.shared.engine.set_device_health(device, DeviceHealth::Down);
        for request in &displaced {
            self.shared.engine.remove_tenant(&request.user);
        }
        let displaced = displaced
            .into_iter()
            .map(|request| DegradedTenant { request, device: device.to_string() })
            .collect();
        Ok(self.shared.replace_displaced(&mut state, device, displaced))
    }

    /// Restore a failed device: mark it up in the topology and the engine,
    /// then retry every parked ([`ClickIncError::Degraded`]) tenant through
    /// the pipeline.  Tenants that still cannot be placed stay parked (and
    /// appear in the report again).  Restored capacity also drains the
    /// admission retry queue.
    pub fn restore_device(&self, device: &str) -> Result<FailoverReport, ClickIncError> {
        let mut state = self.shared.lock();
        state.controller.restore_device(device)?;
        self.shared.engine.set_device_health(device, DeviceHealth::Up);
        let parked = std::mem::take(&mut state.degraded).into_values().collect();
        let report = self.shared.replace_displaced(&mut state, device, parked);
        self.shared.drain_retries(&mut state);
        Ok(report)
    }

    /// Tenants currently parked in the [`ClickIncError::Degraded`] state.
    pub fn degraded_tenants(&self) -> Vec<String> {
        self.shared.lock().degraded.keys().cloned().collect()
    }

    /// Ids of the users with an active deployment.
    pub fn active_users(&self) -> Vec<String> {
        self.shared.lock().controller.active_users().iter().map(|s| s.to_string()).collect()
    }

    /// Fraction of network-wide resources still free.
    pub fn remaining_resource_ratio(&self) -> f64 {
        self.shared.lock().controller.remaining_resource_ratio()
    }

    /// Merged per-tenant telemetry snapshot (exact after
    /// [`flush`](ClickIncService::flush)).
    pub fn telemetry(&self) -> TelemetryReport {
        self.shared.engine.telemetry()
    }

    /// Barrier: returns once every engine shard has drained its queues.
    pub fn flush(&self) {
        self.shared.engine.flush()
    }

    /// Stop the engine, merge the per-shard stores, and return the final
    /// telemetry and network-wide object stores.
    pub fn finish(self) -> RunOutcome {
        self.engine.finish()
    }
}

/// A live tenant on the service: returned by every successful deploy, valid
/// until [`remove`](TenantHandle::remove)d.
pub struct TenantHandle {
    user: String,
    numeric_id: i64,
    hops: Vec<TenantHop>,
    mode: ShardingMode,
    shared: Arc<Shared>,
}

impl TenantHandle {
    /// The tenant's user id.
    pub fn user(&self) -> &str {
        &self.user
    }

    /// Numeric id the isolation guard matches on; traffic must carry it in
    /// its INC header to reach the program.
    pub fn numeric_id(&self) -> i64 {
        self.numeric_id
    }

    /// The tenant's programmable hops in traffic order, with the installed
    /// snippets.
    pub fn hops(&self) -> &[TenantHop] {
        &self.hops
    }

    /// How the engine partitions this tenant's traffic now: the engine's
    /// live mode, which an adaptive reshard may have changed since deploy.
    /// The deploy chose the mode the program text is eligible for
    /// ([`PreparedSource::sharding`](crate::controller::PreparedSource::sharding)),
    /// unless [`InitialSharding::Pinned`] held it to one shard: flow-sharded
    /// tenants spread across every shard, `ByTenant` tenants pin to one.
    /// Once the engine no longer hosts the tenant, the mode it was deployed
    /// with.
    pub fn sharding_mode(&self) -> ShardingMode {
        self.shared.engine.sharding_mode(&self.user).unwrap_or_else(|| self.mode.clone())
    }

    /// Live telemetry snapshot for this tenant (cheap; exact after a flush).
    /// Includes the congestion counters — `shed_packets`,
    /// `backpressure_waits`, `queue_depth_hwm`, `per_shard_packets` — so
    /// overload is observable per tenant.
    pub fn telemetry(&self) -> Option<TenantStats> {
        self.shared.engine.telemetry().tenant(&self.user).cloned()
    }

    /// Drain a workload into the engine on this tenant's behalf against the
    /// bounded ingress queues; see [`EngineHandle::run_workload`].  The
    /// report carries the admitted/shed split under the engine's
    /// [`clickinc_runtime::OverloadPolicy`].
    pub fn run_workload(
        &self,
        workload: &mut dyn Workload,
        max_packets: usize,
        inject_batch: usize,
    ) -> WorkloadReport {
        self.shared.engine.run_workload(workload, max_packets, inject_batch)
    }

    /// Control-plane table write on every hop whose snippets declare
    /// `table` (e.g. pre-populating the tenant's isolation-renamed KVS
    /// cache) — no manual hop inspection required.
    pub fn populate_table(&self, table: &str, key: Vec<Value>, value: Vec<Value>) {
        for hop in &self.hops {
            let declares = hop.snippets.iter().any(|s| s.objects.iter().any(|o| o.name == table));
            if declares {
                self.shared.engine.populate_table(
                    &self.user,
                    &hop.device,
                    table,
                    key.clone(),
                    value.clone(),
                );
            }
        }
    }

    /// Revoke the tenant: release its ledger resources, strike it from the
    /// device images, quiesce and uninstall exactly it on the engine
    /// (co-resident tenants keep flowing), and let the retry
    /// queue claim the freed capacity — the same driver as
    /// [`ClickIncService::remove`].
    pub fn remove(self) -> Result<DeploymentDelta, ClickIncError> {
        self.shared.remove(&self.user)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clickinc_lang::templates::{count_min_sketch, kvs_template, KvsParams};

    fn service() -> ClickIncService {
        ClickIncService::with_config(
            Topology::emulation_topology_all_tofino(),
            EngineConfig { shards: 2, ..Default::default() },
        )
        .expect("valid config")
    }

    fn kvs_request(user: &str) -> ServiceRequest {
        ServiceRequest::builder(user)
            .template(kvs_template(user, KvsParams { cache_depth: 1000, ..Default::default() }))
            .from_("pod0a")
            .to("pod2b")
            .build()
            .expect("valid request")
    }

    #[test]
    fn plan_is_a_pure_dry_run() {
        let service = service();
        let ratio = service.remaining_resource_ratio();
        let fingerprints = service.controller().image_fingerprints();
        let plan = service.plan(&kvs_request("kvs0")).expect("plans");
        assert!(!plan.devices().is_empty());
        assert!(plan.predicted_remaining_ratio() <= ratio);
        assert_eq!(service.remaining_resource_ratio(), ratio, "plan books nothing");
        assert!(service.active_users().is_empty());
        assert_eq!(service.controller().image_fingerprints(), fingerprints);
        service.finish();
    }

    #[test]
    fn commit_realizes_the_plans_prediction_and_registers_the_tenant() {
        let service = service();
        let plan = service.plan(&kvs_request("kvs0")).expect("plans");
        let predicted = plan.predicted_remaining_ratio();
        let tenant = service.commit(plan).expect("commits");
        assert_eq!(tenant.user(), "kvs0");
        assert_eq!(tenant.numeric_id(), 1);
        assert!(!tenant.hops().is_empty());
        assert_eq!(service.remaining_resource_ratio(), predicted, "dry-run was exact");
        assert_eq!(service.active_users(), vec!["kvs0".to_string()]);
        let stats = tenant.telemetry().expect("registered with the engine");
        assert_eq!(stats.packets, 0);
        service.finish();
    }

    fn must_fail(result: Result<TenantHandle, ClickIncError>) -> ClickIncError {
        match result {
            Err(err) => err,
            Ok(handle) => panic!("expected a failure, {} was admitted", handle.user()),
        }
    }

    #[test]
    fn rejected_requests_queue_and_drain_in_priority_order() {
        use crate::policy::MaxTenants;
        let service = service();
        service.set_admission_policy(MaxTenants { max_tenants: 1 });
        service.deploy(kvs_request("t1")).expect("first tenant admitted");
        // both refused by the tenant cap — parked, not discarded
        let err = must_fail(service.deploy_or_queue(kvs_request("t2").with_priority(1)));
        assert!(matches!(err, ClickIncError::Rejected { .. }), "got {err}");
        let err = must_fail(service.deploy_or_queue(kvs_request("t3").with_priority(5)));
        assert!(matches!(err, ClickIncError::Rejected { .. }), "got {err}");
        assert_eq!(service.retry_queue_len(), 2);
        assert_eq!(service.queued_users(), vec!["t3", "t2"], "priority order, not arrival");
        // a removal frees the slot and auto-drains: the high-priority waiter
        // gets it, the other stays queued
        service.remove("t1").expect("removes");
        assert_eq!(service.active_users(), vec!["t3".to_string()]);
        assert_eq!(service.queued_users(), vec!["t2"]);
        // the next removal admits the remaining waiter
        service.remove("t3").expect("removes");
        assert_eq!(service.active_users(), vec!["t2".to_string()]);
        assert_eq!(service.retry_queue_len(), 0);
        service.finish();
    }

    #[test]
    fn a_tenant_leaving_through_its_handle_admits_the_queued_waiter() {
        use crate::policy::MaxTenants;
        let service = service();
        service.set_admission_policy(MaxTenants { max_tenants: 1 });
        let t1 = service.deploy(kvs_request("t1")).expect("first tenant admitted");
        must_fail(service.deploy_or_queue(kvs_request("t2"))); // refused by the cap, queued
        assert_eq!(service.queued_users(), vec!["t2"]);
        // the handle is the same departure as `service.remove`: the freed
        // slot goes to the waiter
        t1.remove().expect("removes");
        assert_eq!(service.active_users(), vec!["t2".to_string()]);
        assert_eq!(service.retry_queue_len(), 0);
        service.finish();
    }

    #[test]
    fn unfixable_queued_requests_are_dropped_on_drain() {
        use crate::policy::MaxTenants;
        let service = service();
        service.set_admission_policy(MaxTenants { max_tenants: 1 });
        service.deploy(kvs_request("t1")).expect("first tenant admitted");
        must_fail(service.deploy_or_queue(kvs_request("t2"))); // refused by the cap, queued
        service.set_admission_policy(PolicyChain::new());
        // t2 arrives again through the direct path and is admitted — the
        // queued copy now fails for a *non-admission* reason (duplicate
        // user), so the drain drops it with its error instead of re-queueing
        service.deploy(kvs_request("t2")).expect("direct deploy admitted");
        let report = service.drain_retries();
        assert!(report.admitted.is_empty());
        assert_eq!(report.requeued, 0);
        assert_eq!(report.dropped.len(), 1);
        assert_eq!(report.dropped[0].0, "t2");
        assert_eq!(service.retry_queue_len(), 0);
        service.finish();
    }

    #[test]
    fn stale_plans_are_rejected_not_misapplied() {
        let service = service();
        let plan_a = service.plan(&kvs_request("a")).expect("plans");
        let plan_b = service
            .plan(
                &ServiceRequest::builder("b")
                    .template(count_min_sketch("b", 3, 512))
                    .from_("pod0b")
                    .to("pod2b")
                    .build()
                    .unwrap(),
            )
            .expect("plans");
        service.commit(plan_a).expect("first commit wins");
        let err = service.commit(plan_b).map(|_| ()).unwrap_err();
        assert!(matches!(err, ClickIncError::StalePlan { .. }), "got {err}");
        // replanning at the new epoch succeeds
        let plan_b = service
            .plan(
                &ServiceRequest::builder("b")
                    .template(count_min_sketch("b", 3, 512))
                    .from_("pod0b")
                    .to("pod2b")
                    .build()
                    .unwrap(),
            )
            .expect("replans");
        service.commit(plan_b).expect("fresh plan commits");
        service.finish();
    }

    #[test]
    fn deploy_all_is_atomic() {
        let service = service();
        let ratio = service.remaining_resource_ratio();
        let fingerprints = service.controller().image_fingerprints();
        let telemetry = service.telemetry();
        let err = service
            .deploy_all(vec![
                kvs_request("good"),
                ServiceRequest::builder("bad")
                    .source("forward()\n")
                    .from_("nowhere")
                    .to("pod2b")
                    .build()
                    .unwrap(),
            ])
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, ClickIncError::UnknownHost(_)));
        assert_eq!(service.remaining_resource_ratio(), ratio);
        assert!(service.active_users().is_empty());
        assert_eq!(service.controller().image_fingerprints(), fingerprints);
        assert_eq!(service.telemetry(), telemetry, "the engine never saw the batch");

        // the same batch without the poison pill commits both tenants
        let handles = service
            .deploy_all(vec![kvs_request("good"), kvs_request("good2")])
            .expect("valid batch commits");
        assert_eq!(handles.len(), 2);
        assert_eq!(service.active_users().len(), 2);
        service.finish();
    }

    #[test]
    fn failed_devices_displace_and_recover_their_tenants() {
        let service = service();
        service.deploy(kvs_request("kvs0")).expect("deploys");
        let device = {
            let c = service.controller();
            let id = *c.devices_of("kvs0").first().expect("placed somewhere");
            c.topology().node(id).name.clone()
        };
        let report = service.fail_device(&device).expect("known device");
        assert_eq!(report.device, device);
        assert_eq!(
            report.recovered.len() + report.degraded.len(),
            1,
            "the placed tenant was displaced"
        );
        if report.fully_recovered() {
            // the re-placement avoided the failed device
            let c = service.controller();
            let failed = c.topology().find(&device).expect("exists");
            assert!(!c.devices_of("kvs0").contains(&failed), "routed around the failure");
            assert_eq!(c.down_devices(), vec![device.clone()]);
        } else {
            assert!(matches!(
                report.degraded.first().expect("one parked"),
                ClickIncError::Degraded { user, .. } if user == "kvs0"
            ));
        }
        // restore: the device serves again and no tenant stays parked
        let restore = service.restore_device(&device).expect("restores");
        assert!(restore.fully_recovered(), "{:?}", restore.degraded);
        assert!(service.degraded_tenants().is_empty());
        assert!(service.active_users().contains(&"kvs0".to_string()));
        assert!(service.controller().down_devices().is_empty());
        // the round-trip left the ledger balanced
        service.remove("kvs0").expect("removes");
        assert_eq!(service.remaining_resource_ratio(), 1.0, "ledger balanced after round-trip");
        service.finish();
    }

    #[test]
    fn unplaceable_tenants_park_degraded_and_retry_on_restore() {
        let service = service();
        service.deploy(kvs_request("kvs0")).expect("deploys");
        let device = {
            let c = service.controller();
            let id = *c.devices_of("kvs0").first().expect("placed somewhere");
            c.topology().node(id).name.clone()
        };
        // a reject-everything admission policy makes every re-placement fail
        service.set_admission_policy(crate::policy::MaxTenants { max_tenants: 0 });
        let report = service.fail_device(&device).expect("fails");
        assert!(report.recovered.is_empty());
        let parked = report.degraded.first().expect("parked");
        assert!(
            matches!(parked, ClickIncError::Degraded { user, device: d, .. }
                if user == "kvs0" && d == &device),
            "got {parked}"
        );
        assert_eq!(service.degraded_tenants(), vec!["kvs0".to_string()]);
        assert!(service.active_users().is_empty(), "a parked tenant holds nothing");
        assert_eq!(service.remaining_resource_ratio(), 1.0, "bookings released");
        // still refused on restore: stays parked
        let restore = service.restore_device(&device).expect("restores");
        assert!(!restore.fully_recovered());
        assert_eq!(service.degraded_tenants(), vec!["kvs0".to_string()]);
        // policy lifted: the next restore revives it
        service.set_admission_policy(PolicyChain::new());
        let restore = service.restore_device(&device).expect("restores again");
        assert_eq!(restore.recovered, vec!["kvs0".to_string()]);
        assert!(service.degraded_tenants().is_empty());
        assert!(service.active_users().contains(&"kvs0".to_string()));
        service.finish();
    }

    #[test]
    fn removing_a_parked_tenant_succeeds_and_it_stays_gone() {
        let service = service();
        service.deploy(kvs_request("kvs0")).expect("deploys");
        let device = {
            let c = service.controller();
            let id = *c.devices_of("kvs0").first().expect("placed somewhere");
            c.topology().node(id).name.clone()
        };
        service.set_admission_policy(crate::policy::MaxTenants { max_tenants: 0 });
        service.fail_device(&device).expect("fails");
        assert_eq!(service.degraded_tenants(), vec!["kvs0".to_string()]);
        let delta = service.remove("kvs0").expect("a parked tenant removes");
        assert_eq!(delta, DeploymentDelta::default(), "it held nothing");
        assert!(service.degraded_tenants().is_empty());
        // policy lifted: the restore has nobody to bring back
        service.set_admission_policy(PolicyChain::new());
        let restore = service.restore_device(&device).expect("restores");
        assert!(restore.recovered.is_empty() && restore.fully_recovered());
        assert!(service.active_users().is_empty());
        service.finish();
    }

    #[test]
    fn a_parked_user_name_is_refused_until_its_tenant_is_restored() {
        let service = service();
        service.deploy(kvs_request("kvs0")).expect("deploys");
        service.set_admission_policy(crate::policy::MaxTenants { max_tenants: 0 });
        service.fail_device("ToR5").expect("fails");
        assert_eq!(service.degraded_tenants(), vec!["kvs0".to_string()]);
        service.set_admission_policy(PolicyChain::new());
        let ratio = service.remaining_resource_ratio();
        let fingerprints = service.controller().image_fingerprints();
        // the same name, elsewhere: refused as a request and as a plan
        let elsewhere = ServiceRequest::builder("kvs0")
            .template(kvs_template("kvs0", KvsParams { cache_depth: 1000, ..Default::default() }))
            .from_("pod0a")
            .to("pod1b")
            .build()
            .expect("valid request");
        let refused = |result: Result<(), ClickIncError>| match result {
            Err(ClickIncError::DuplicateUser(user)) => user == "kvs0",
            _ => false,
        };
        assert!(refused(service.deploy(elsewhere.clone()).map(drop)));
        assert!(refused(service.plan(&elsewhere).map(drop)), "a dry run checks parked users");
        let plan =
            service.controller().plan(&elsewhere).expect("the controller sees no parked set");
        assert!(refused(service.commit(plan).map(drop)));
        assert_eq!(service.remaining_resource_ratio(), ratio);
        assert_eq!(service.controller().image_fingerprints(), fingerprints);
        assert!(service.active_users().is_empty());
        assert_eq!(service.degraded_tenants(), vec!["kvs0".to_string()]);
        // the restore re-places the parked tenant, the one `kvs0`
        let restore = service.restore_device("ToR5").expect("restores");
        assert_eq!(restore.recovered, vec!["kvs0".to_string()]);
        assert!(service.degraded_tenants().is_empty());
        assert_eq!(service.active_users(), vec!["kvs0".to_string()]);
        service.finish();
    }

    #[test]
    fn tenant_handles_remove_cleanly() {
        let service = service();
        let tenant = service.deploy(kvs_request("kvs0")).expect("deploys");
        let ratio_with = service.remaining_resource_ratio();
        let delta = tenant.remove().expect("removes");
        assert!(delta.device_count() > 0);
        assert!(service.remaining_resource_ratio() >= ratio_with);
        assert!(service.active_users().is_empty());
        // removal by id also works for the service-level path
        let _tenant = service.deploy(kvs_request("kvs0")).expect("re-deploys");
        service.remove("kvs0").expect("removes by id");
        assert!(matches!(
            service.remove("kvs0").map(|_| ()).unwrap_err(),
            ClickIncError::UnknownUser(_)
        ));
        service.finish();
    }

    /// A tenant's constant arithmetic that overflows `i64` folds as the data
    /// plane wraps it; a panic there would poison the service lock for every
    /// later call.
    #[test]
    fn an_overflowing_constant_deploys_and_the_service_stays_usable() {
        let service = service();
        let source = "hdr.seq = sum(9223372036854775807, 1)\nforward()\n";
        let request = ServiceRequest::new("wrap", source, &["pod0a"], "pod2b");
        service.deploy(request).expect("deploys");
        service.deploy(kvs_request("kvs0")).expect("the next call still works");
        assert_eq!(service.active_users(), ["kvs0", "wrap"]);
        service.finish();
    }

    /// `pow()` out of `i64` range is a typed refusal: a panic there would
    /// poison the service lock for every later call.
    #[test]
    fn an_overflowing_pow_is_refused_and_the_service_stays_usable() {
        let service = service();
        let source = "hdr.out = pow(3, 40)\nforward()\n";
        let request = ServiceRequest::new("pow", source, &["pod0a"], "pod2b");
        let err = service.deploy(request).map(drop).expect_err("3 ** 40 overflows i64");
        assert!(matches!(err, ClickIncError::Compile(_)), "{err}");
        service.deploy(kvs_request("kvs0")).expect("the next call still works");
        assert_eq!(service.active_users(), ["kvs0"]);
        service.finish();
    }
}
