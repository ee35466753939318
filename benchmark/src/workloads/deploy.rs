//! The two control-plane workloads: tenants arriving at and leaving a live
//! service.  An op is one call a tenant or operator waits on — `deploy`,
//! `deploy_or_queue` or `remove`.

use super::requests::{distinct_shapes, rng_for, Shape};
use super::serve::{App, Serve};
use super::{fresh_service, BlockOutcome, Caller, OpClock, Workload};
use crate::trace::{SpanId, Tracer, ROOT};
use clickinc::{ClickIncError, ClickIncService, MaxTenants, ServiceRequest};
use clickinc_ir::Value;
use clickinc_runtime::workload::{KvsWorkload, KvsWorkloadConfig};
use std::collections::{BTreeSet, VecDeque};
use std::time::Instant;

/// The control-plane calls the workloads time.
#[derive(Debug, Clone, Copy)]
enum Call {
    Deploy,
    DeployOrQueue,
    Remove,
}

impl Call {
    fn span_name(self) -> &'static str {
        match self {
            Call::Deploy => "op.deploy",
            Call::DeployOrQueue => "op.deploy_or_queue",
            Call::Remove => "op.remove",
        }
    }

    fn caller(self) -> Caller {
        match self {
            Call::Deploy | Call::DeployOrQueue => Caller::Tenant,
            Call::Remove => Caller::Operator,
        }
    }

    /// `deploy_or_queue` answers a full house with `Rejected` and parks the
    /// request: a refusal by design, not a failure.
    fn may_be_refused(self) -> bool {
        matches!(self, Call::DeployOrQueue)
    }
}

/// Time one control-plane call as op number `op` with its span under
/// `parent`; an `Err` the workload did not design for is a failed unit.
fn timed_call<T>(
    out: &mut BlockOutcome,
    clock: &mut OpClock,
    tracer: &mut Tracer,
    call: Call,
    (parent, op): (SpanId, u32),
    service: &ClickIncService,
    run: impl FnOnce() -> Result<T, ClickIncError>,
) -> Result<T, ClickIncError> {
    clock.start();
    let name = call.span_name();
    let result = tracer.span(name, parent, op, run);
    clock.stop(out, 1, call.caller(), || service.flush());
    if let Err(err) = &result {
        if !(call.may_be_refused() && matches!(err, ClickIncError::Rejected { .. })) {
            out.failed += 1;
            out.problem(format!("{name} #{op} failed: {err}"));
        }
    }
    result
}

/// Remove every tenant — each removal drains the retry queue into the freed
/// slot, so loop until nobody is left — then check the books are balanced.
fn purge_and_check_ledger(service: &ClickIncService, out: &mut BlockOutcome) {
    while let Some(user) = service.active_users().first().cloned() {
        if let Err(err) = service.remove(&user) {
            out.problem(format!("final purge of {user} failed: {err}"));
            break;
        }
    }
    if !service.active_users().is_empty() || service.retry_queue_len() != 0 {
        out.problem("tenants or queued requests survive the final purge");
    }
    let ratio = service.remaining_resource_ratio();
    if ratio != 1.0 {
        out.problem(format!("ledger ratio is {ratio} after the final purge, not 1.0"));
    }
}

/// Deploys per round, and removes per round.
const COLD_ROUND: usize = 6;
/// Rounds per block.
const COLD_ROUNDS: usize = 2;
/// Tenants deployed during set-up that stay for the whole block.
const COLD_RESIDENTS: usize = 4;

/// `deploy_cold`: every deploy is of a shape this service has not seen.
pub struct DeployCold {
    residents: Vec<ServiceRequest>,
    warm_up: ServiceRequest,
    rounds: Vec<Vec<ServiceRequest>>,
    seed: u64,
}

impl DeployCold {
    pub fn new(seed: u64) -> DeployCold {
        let shapes =
            distinct_shapes(&mut rng_for(seed, 1), COLD_RESIDENTS + 1 + COLD_ROUNDS * COLD_ROUND);
        let (residents, rest) = shapes.split_at(COLD_RESIDENTS);
        let (warm_up, rounds) = rest.split_first().expect("a warm-up shape");
        DeployCold {
            residents: residents
                .iter()
                .enumerate()
                .map(|(i, s)| s.request(&format!("res{i}"), 0))
                .collect(),
            warm_up: warm_up.request("warm", 0),
            rounds: rounds
                .chunks(COLD_ROUND)
                .enumerate()
                .map(|(r, chunk)| {
                    chunk
                        .iter()
                        .enumerate()
                        .map(|(slot, s)| s.request(&format!("d{r}_{slot}"), 0))
                        .collect()
                })
                .collect(),
            seed,
        }
    }
}

impl Workload for DeployCold {
    fn probe_requests(&self) -> Vec<ServiceRequest> {
        self.rounds.iter().flatten().cloned().collect()
    }

    /// No packets of its own: the probes use the KVS program that
    /// `churn_warm` bursts.
    fn probe_traffic(&self) -> Serve {
        Serve::new(App::Kvs, self.seed)
    }

    fn run_block(&mut self, _verify_stores: bool, tracer: &mut Tracer) -> BlockOutcome {
        let mut out = BlockOutcome::default();

        let setup_started = Instant::now();
        let service = fresh_service();
        for request in &self.residents {
            if let Err(err) = service.deploy(request.clone()) {
                out.problem(format!("resident {} failed to deploy: {err}", request.user));
            }
        }
        let warm = service.deploy(self.warm_up.clone()).and_then(|h| h.remove());
        if let Err(err) = warm {
            out.problem(format!("warm-up deploy failed: {err}"));
        }
        let rounds = self.rounds.clone();
        // the shard installs and uninstalls on its own thread; let it finish
        // the set-up's share before the first measured op
        service.flush();
        out.setup_s = setup_started.elapsed().as_secs_f64();

        let block_span = tracer.begin("block", ROOT, 0);
        let mut clock = OpClock::default();
        let mut op = 0u32;
        for round in rounds {
            let users: Vec<String> = round.iter().map(|r| r.user.clone()).collect();
            for request in round {
                let _ = timed_call(
                    &mut out,
                    &mut clock,
                    tracer,
                    Call::Deploy,
                    (block_span, op),
                    &service,
                    || service.deploy(request),
                );
                op += 1;
            }
            for user in users {
                let _ = timed_call(
                    &mut out,
                    &mut clock,
                    tracer,
                    Call::Remove,
                    (block_span, op),
                    &service,
                    || service.remove(&user),
                );
                op += 1;
            }
        }
        tracer.end(block_span);

        let resident: BTreeSet<String> = service.active_users().into_iter().collect();
        let expected: BTreeSet<String> = self.residents.iter().map(|r| r.user.clone()).collect();
        if resident != expected {
            out.problem(format!("residents after the block are {resident:?}"));
        }
        purge_and_check_ledger(&service, &mut out);
        service.finish();
        out
    }
}

/// Arrivals per block.
pub const CHURN_ARRIVALS: usize = 24;
/// `MaxTenants` cap, and how many arrivals set-up admits to reach it.
const CHURN_CAP: usize = 10;
/// Distinct program shapes the arrivals cycle through.
const CHURN_POOL: usize = 6;
/// The `ChurnConfig` defaults of `crates/apps`.
const PURGE_AFTER_REFUSALS: usize = 3;
const PURGE_BATCH: usize = 4;
const PRIORITY_LEVELS: usize = 4;
/// A KVS burst goes through the engine after this many admissions.
const SERVE_EVERY: usize = 20;
const BURST_PACKETS: usize = 512;

/// `churn_warm`: a full house, a shape pool the memo already knows, arrivals
/// parked and admitted as the oldest residents leave.
pub struct ChurnWarm {
    pool: Vec<Shape>,
    seed: u64,
}

impl ChurnWarm {
    pub fn new(seed: u64) -> ChurnWarm {
        ChurnWarm { pool: distinct_shapes(&mut rng_for(seed, 2), CHURN_POOL), seed }
    }

    /// Arrival `i`: shape `i mod pool`, a fresh name, a cycling priority.
    pub fn arrival(&self, i: usize) -> ServiceRequest {
        self.pool[i % self.pool.len()].request(&format!("c{i}"), (i % PRIORITY_LEVELS) as u8)
    }

    fn is_kvs(&self, user: &str) -> bool {
        let index: usize = user[1..].parse().expect("arrival names are c<index>");
        matches!(self.pool[index % self.pool.len()], Shape::Kvs { .. })
    }

    /// 512 KVS requests through the engine for `user`; returns a complaint if
    /// any packet went missing.
    fn serve_burst(&self, service: &ClickIncService, user: &str, nonce: u64) -> Option<String> {
        let (numeric_id, hops) = {
            let controller = service.controller();
            (controller.numeric_id_of(user)?, controller.tenant_hops(user))
        };
        let engine = service.engine_handle();
        let table = format!("{user}_cache");
        for hop in &hops {
            if hop.snippets.iter().any(|s| s.objects.iter().any(|o| o.name == table)) {
                for key in 0..16i64 {
                    let value = vec![Value::Int(key * 31 + 7)];
                    engine.populate_table(user, &hop.device, &table, vec![Value::Int(key)], value);
                }
            }
        }
        let mut source = KvsWorkload::new(KvsWorkloadConfig {
            tenant: user.to_string(),
            user_id: numeric_id,
            keys: 256,
            skew: 1.1,
            requests: BURST_PACKETS,
            rate_pps: 10_000_000.0,
            seed: self.seed.wrapping_add(nonce),
        });
        let report = engine.run_workload(&mut source, usize::MAX, 128);
        service.flush();
        let completed = service.telemetry().tenant(user).map(|s| s.completed).unwrap_or(0);
        (report.shed != 0 || completed != BURST_PACKETS as u64).then(|| {
            format!(
                "burst on {user}: {completed} of {BURST_PACKETS} completed, {} shed",
                report.shed
            )
        })
    }
}

impl Workload for ChurnWarm {
    fn probe_requests(&self) -> Vec<ServiceRequest> {
        (0..self.pool.len()).map(|i| self.arrival(i)).collect()
    }

    fn probe_traffic(&self) -> Serve {
        Serve::new(App::Kvs, self.seed)
    }

    fn run_block(&mut self, _verify_stores: bool, tracer: &mut Tracer) -> BlockOutcome {
        let mut out = BlockOutcome::default();

        // set-up: one lap of the pool primes the memo, the rest of the fill
        // reaches the cap; these admissions are the block's warm-up ops
        let setup_started = Instant::now();
        let service = fresh_service();
        service.set_admission_policy(MaxTenants { max_tenants: CHURN_CAP });
        // residents in arrival order: the front is the next to leave
        let mut residents: VecDeque<String> = VecDeque::new();
        for i in 0..CHURN_CAP {
            match service.deploy(self.arrival(i)) {
                Ok(handle) => residents.push_back(handle.user().to_string()),
                Err(err) => out.problem(format!("fill arrival {i} failed: {err}")),
            }
        }
        let arrivals: Vec<ServiceRequest> =
            (CHURN_CAP..CHURN_CAP + CHURN_ARRIVALS).map(|i| self.arrival(i)).collect();
        service.flush();
        out.setup_s = setup_started.elapsed().as_secs_f64();

        let block_span = tracer.begin("block", ROOT, 0);
        let mut clock = OpClock::default();
        let mut known: BTreeSet<String> = residents.iter().cloned().collect();
        let (mut direct, mut from_queue, mut refusals) = (0usize, 0usize, 0usize);
        let mut admissions_since_burst = 0usize;
        let mut bursts = 0u64;
        let mut op = 0u32;
        for request in arrivals {
            let user = request.user.clone();
            let result = timed_call(
                &mut out,
                &mut clock,
                tracer,
                Call::DeployOrQueue,
                (block_span, op),
                &service,
                || service.deploy_or_queue(request),
            );
            op += 1;
            match result {
                Ok(_) => {
                    direct += 1;
                    admissions_since_burst += 1;
                    known.insert(user.clone());
                    residents.push_back(user);
                }
                Err(ClickIncError::Rejected { .. }) => {
                    refusals += 1;
                    if refusals >= PURGE_AFTER_REFUSALS {
                        refusals = 0;
                        for _ in 0..PURGE_BATCH {
                            let Some(oldest) = residents.pop_front() else { break };
                            known.remove(&oldest);
                            let _ = timed_call(
                                &mut out,
                                &mut clock,
                                tracer,
                                Call::Remove,
                                (block_span, op),
                                &service,
                                || service.remove(&oldest),
                            );
                            op += 1;
                            // the removal's drain may have admitted waiters
                            for user in service.active_users() {
                                if known.insert(user.clone()) {
                                    residents.push_back(user);
                                    from_queue += 1;
                                    admissions_since_burst += 1;
                                }
                            }
                        }
                    }
                }
                Err(_) => {}
            }
            if admissions_since_burst >= SERVE_EVERY {
                if let Some(user) = residents.iter().rev().find(|u| self.is_kvs(u)) {
                    admissions_since_burst = 0;
                    bursts += 1;
                    if let Some(complaint) = self.serve_burst(&service, user, bursts) {
                        out.failed += 1;
                        out.problem(complaint);
                    }
                }
            }
        }
        tracer.end(block_span);

        let left_queued = service.retry_queue_len();
        if direct + from_queue + left_queued != CHURN_ARRIVALS {
            out.problem(format!(
                "{direct} direct + {from_queue} from queue + {left_queued} queued \
                 != {CHURN_ARRIVALS} arrivals"
            ));
        }
        if bursts == 0 {
            out.problem("no burst was served during the churn");
        }
        purge_and_check_ledger(&service, &mut out);
        service.finish();
        out
    }
}
