//! The four workloads.  Each is a closed loop with one client: the bench
//! thread issues an op, waits for it to return, issues the next.
//!
//! A run is made of **fixed-work blocks**.  A block builds everything it
//! needs from scratch (topology, service, resident tenants, inputs, one
//! warm-up op), then runs an op schedule that depends on the seed alone, so
//! every block of a run — and of any other run with that seed, on any commit
//! — does the same work on a service of the same age.  Blocks are short (a
//! few tens of milliseconds of ops), so a run holds hundreds of them and every
//! position of the schedule is sampled hundreds of times: `run.rs` keeps the
//! least of each.

pub mod deploy;
pub mod requests;
pub mod serve;

use crate::alloc::{self, AllocSnapshot};
use crate::trace::Tracer;
use clickinc::{ClickIncService, ServiceRequest};
use clickinc_runtime::EngineConfig;
use clickinc_topology::Topology;
use std::time::Instant;

/// The workload names, in BENCHMARK.json order.
pub const NAMES: [&str; 4] = ["kvs_serve", "mlagg_serve", "deploy_cold", "churn_warm"];

/// The network every workload and probe runs on.
pub fn topology() -> Topology {
    Topology::emulation_topology_all_tofino()
}

/// The engine under test: one shard thread beside the bench thread, which is
/// every core this host has.  Everything else is the shipped default
/// (compiled tier, drop-tail at 65 536 in flight — never reached here).
pub fn engine_config() -> EngineConfig {
    EngineConfig { shards: 1, ..Default::default() }
}

/// A service with no tenants on a fresh topology.
pub fn fresh_service() -> ClickIncService {
    ClickIncService::with_config(topology(), engine_config()).expect("engine config is valid")
}

/// Who waits for an op to return.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Caller {
    /// A tenant: its burst, its `deploy`, its `deploy_or_queue`.
    Tenant,
    /// The operator: a departure (`remove`), with whatever queue drain it sets
    /// off.
    Operator,
}

/// What one block measured.
#[derive(Debug, Clone, Default)]
pub struct BlockOutcome {
    /// Wall time of the block's set-up.
    pub setup_s: f64,
    /// Latency of every measured op, in issue order.
    pub op_ns: Vec<u64>,
    /// Who waited on each op.  Every op counts towards the rate; the latency
    /// percentiles are over the tenants' ops.
    pub callers: Vec<Caller>,
    /// Units of work the measured ops carried: packets on the serve
    /// workloads, control-plane calls on the deploy workloads.
    pub units: u64,
    /// Heap allocations (all threads) while measured ops ran.
    pub allocs: u64,
    /// Units that failed: shed or lost packets, calls that returned an error
    /// other than the designed refusal.
    pub failed: u64,
    /// Output checks that did not hold.
    pub problems: Vec<String>,
}

impl BlockOutcome {
    /// Record a failed output check.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }
}

/// Times one op and counts its allocations; the counters are read at the op's
/// two edges only.
#[derive(Default)]
pub struct OpClock {
    started: Option<(Instant, AllocSnapshot)>,
}

impl OpClock {
    /// The op begins.
    pub fn start(&mut self) {
        self.started = Some((Instant::now(), alloc::snapshot()));
    }

    /// The op returned: book its latency, then let `settle` wait for work the
    /// op handed to other threads, then book the allocations and `units`.
    /// Settling is outside the latency but inside the allocation window, so a
    /// deploy is charged for what the shard thread allocates installing it no
    /// matter when that thread gets to run.
    pub fn stop(
        &mut self,
        out: &mut BlockOutcome,
        units: u64,
        caller: Caller,
        settle: impl FnOnce(),
    ) {
        let (started, allocs) = self.started.take().expect("stop follows start");
        out.op_ns.push(started.elapsed().as_nanos() as u64);
        out.callers.push(caller);
        // what the bench thread allocates while it waits is the wait's cost,
        // not the op's, and depends on whether the wait had to block
        let own_before = alloc::on_this_thread();
        settle();
        let own = alloc::on_this_thread() - own_before;
        out.allocs += alloc::snapshot().since(allocs).count - own;
        out.units += units;
    }
}

/// A workload: something that can run one block.
pub trait Workload {
    /// Set up and run one block.  `verify_stores` asks for the expensive
    /// output checks on top of the ones every block makes; spans go to
    /// `tracer` (a disabled tracer on untraced blocks).
    fn run_block(&mut self, verify_stores: bool, tracer: &mut Tracer) -> BlockOutcome;

    /// The deploy requests this workload issues, for the deploy-stage probes.
    fn probe_requests(&self) -> Vec<ServiceRequest>;

    /// The packets this workload serves, for the data-plane probes.
    fn probe_traffic(&self) -> serve::Serve;
}

/// The workload called `name` with inputs derived from `seed`.
pub fn by_name(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    match name {
        "kvs_serve" => Some(Box::new(serve::Serve::new(serve::App::Kvs, seed))),
        "mlagg_serve" => Some(Box::new(serve::Serve::new(serve::App::MlAgg, seed))),
        "deploy_cold" => Some(Box::new(deploy::DeployCold::new(seed))),
        "churn_warm" => Some(Box::new(deploy::ChurnWarm::new(seed))),
        _ => None,
    }
}
