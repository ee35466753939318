//! # clickinc — In-network Computing as a Service
//!
//! This crate is the user-facing facade of the ClickINC reproduction.  The
//! [`ClickIncService`] owns the whole tenant lifecycle (paper §3.2, §6):
//!
//! 1. **request** — describe a program with the fallible
//!    [`ServiceRequest::builder`] (raw ClickINC source or a provider
//!    template, traffic endpoints, optional per-source rates — validated at
//!    build time);
//! 2. **plan** — [`ClickIncService::plan`] compiles and places the request
//!    as a *pure dry-run*: it reports devices, resource demand and the
//!    predicted remaining resource ratio without touching the ledger or any
//!    device image;
//! 3. **commit** — [`ClickIncService::commit`] books the resources, records
//!    the isolated per-device slices on the device image logs, and mirrors the
//!    tenant onto the sharded serving engine — the data plane, which
//!    installs those same slices — atomically; [`ClickIncService::deploy_all`]
//!    commits a batch with all-or-nothing rollback;
//! 4. **serve** — the returned [`TenantHandle`] carries the tenant's
//!    numeric id, its hops, live telemetry, workload injection and removal.
//!
//! ```
//! use clickinc::{ClickIncService, ServiceRequest};
//! use clickinc_topology::Topology;
//!
//! let service = ClickIncService::new(Topology::emulation_topology_all_tofino()).unwrap();
//! let request = ServiceRequest::builder("cms_demo")
//!     .template(clickinc_lang::templates::count_min_sketch("cms_demo", 3, 1024))
//!     .from_("pod0a")
//!     .to("pod2b")
//!     .build()
//!     .unwrap();
//!
//! // dry-run: where would it land, what would it cost?
//! let plan = service.plan(&request).unwrap();
//! assert!(!plan.devices().is_empty());
//! assert!(plan.predicted_remaining_ratio() <= 1.0);
//!
//! // commit: book resources, record the slices, mirror onto the engine
//! let tenant = service.commit(plan).unwrap();
//! assert_eq!(tenant.user(), "cms_demo");
//! let stats = tenant.telemetry().expect("tenant is registered");
//! assert_eq!(stats.packets, 0); // no traffic injected yet
//! service.finish();
//! ```
//!
//! Every error — request validation, compilation, placement, stale plans,
//! admission refusals, engine configuration — surfaces as the single
//! [`ClickIncError`] enum.
//!
//! ## One admission pipeline
//!
//! Every way a tenant comes to serve traffic — `commit`, `deploy`,
//! [`ClickIncService::deploy_or_queue`] and its retry drain, `deploy_all`,
//! [`ClickIncService::replace_tenant`], the re-placements of
//! [`ClickIncService::fail_device`] / [`ClickIncService::restore_device`] —
//! drives the same two private stages under the service's one state lock:
//!
//! * **admit** checks the request, asks the [`AdmissionPolicy`] chain what
//!   it can answer without a plan (a full house refuses before any solve),
//!   solves the request (or takes the plan you quoted, refusing it as
//!   [`ClickIncError::StalePlan`] if the controller moved since its solve),
//!   asks the chain again with the plan, and only then lets the controller
//!   book the ledger and record the slices on the device image logs.  Every
//!   check precedes the first mutation: a refusal leaves the ledger, the
//!   images and the engine bit-identical.
//! * **mirror** derives the tenant's sharding mode (honouring
//!   [`InitialSharding`]), registers its hops with the engine and returns
//!   the [`TenantHandle`].  It cannot fail, and a batch is mirrored only
//!   once every member is admitted — the engine never sees a member of a
//!   failed batch.
//!
//! There is no plan cache above the placement solver: the controller's exact
//! segment memo ([`Controller::solve_cache_stats`]) is the only cache, it
//! keys on the bits of its inputs, and a memoized solve is bit-identical to
//! a cold one.  Quote-then-deploy is one solve because `commit` takes the
//! plan `plan` returned.
//!
//! The service holds one admission chain, installed with
//! [`ClickIncService::set_admission_policy`] and consulted by every deploy
//! path.
//!
//! ```
//! use clickinc::{ClickIncService, MaxTenants, PolicyChain, ResourceFloor, ServiceRequest};
//! use clickinc_topology::Topology;
//!
//! let service = ClickIncService::new(Topology::emulation_topology_all_tofino()).unwrap();
//! service.set_admission_policy(
//!     PolicyChain::new()
//!         .with(ResourceFloor { min_remaining_ratio: 0.10 })
//!         .with(MaxTenants { max_tenants: 16 }),
//! );
//! let requests: Vec<ServiceRequest> = ["cms_a", "cms_b"]
//!     .iter()
//!     .map(|user| {
//!         ServiceRequest::builder(*user)
//!             .template(clickinc_lang::templates::count_min_sketch(user, 3, 512))
//!             .from_("pod0a")
//!             .to("pod2b")
//!             .build()
//!             .unwrap()
//!     })
//!     .collect();
//! // sequential solve → gate → commit per member, all-or-nothing
//! let tenants = service.deploy_all(requests).unwrap();
//! assert_eq!(tenants.len(), 2);
//! service.finish();
//! ```
//!
//! A policy refusal is the typed [`ClickIncError::Rejected`] and changes
//! nothing.
//!
//! ## Low-level controller
//!
//! The [`Controller`] under the service is still public for the ablation
//! experiments (Tables 3–6) that measure the control plane in isolation:
//! [`Controller::deploy`]/[`Controller::remove`] drive compile → place →
//! verify → synthesize directly.  It holds no data plane and knows nothing
//! about the engine; a driver that wants traffic installs
//! [`Controller::tenant_hops`] on an engine — or, for a handful of packets,
//! on the planes [`TenantHop::plane`] builds — itself.
//!
//! ```
//! use clickinc::{Controller, ServiceRequest};
//! use clickinc_topology::Topology;
//!
//! let mut controller = Controller::new(Topology::emulation_topology_all_tofino());
//! let request = ServiceRequest::from_template(
//!     clickinc_lang::templates::count_min_sketch("cms_demo", 3, 1024),
//!     &["pod0a"],
//!     "pod2b",
//! );
//! let deployment = controller.deploy(request).expect("cms deploys");
//! assert!(!deployment.plan.devices_used().is_empty());
//! ```

pub mod adaptive;
mod controller;
mod error;
pub mod policy;
mod request;
pub mod service;
pub mod sharding;

pub use adaptive::{AdaptiveOutcome, AdaptiveRuntime};
pub use clickinc_runtime::{ShardingMode, TenantHop};
pub use controller::{
    Controller, Deployment, DeploymentPlan, DevicePrograms, PlanSummary, PreparedSource,
};
pub use error::ClickIncError;
pub use policy::{
    AdmissionContext, AdmissionDecision, AdmissionPolicy, MaxTenants, PolicyChain, ResourceFloor,
};
pub use request::{RequestError, ServiceRequest, ServiceRequestBuilder};
pub use service::{
    ClickIncService, ControllerGuard, FailoverReport, InitialSharding, RetryReport, TenantHandle,
};
pub use sharding::sharding_mode_for;

// Re-export the subsystem crates under stable names so downstream users need a
// single dependency.
pub use clickinc_backend as backend;
pub use clickinc_blockdag as blockdag;
pub use clickinc_device as device;
pub use clickinc_emulator as emulator;
pub use clickinc_frontend as frontend;
pub use clickinc_ir as ir;
pub use clickinc_lang as lang;
pub use clickinc_placement as placement;
pub use clickinc_runtime as runtime;
pub use clickinc_synthesis as synthesis;
pub use clickinc_topology as topology;
