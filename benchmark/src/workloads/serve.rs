//! The two data-plane workloads: one tenant deployed through the service,
//! then a closed loop of bursts — `inject`, wait for `flush`, next burst.

use super::{fresh_service, BlockOutcome, Caller, OpClock, Workload};
use crate::replay::{replay, ReplayStats, TableWrite};
use crate::trace::{SpanId, Tracer, ROOT};
use clickinc::{ClickIncService, ServiceRequest, TenantHandle};
use clickinc_emulator::{kvs_backend_value, ExecMode, Packet};
use clickinc_ir::Value;
use clickinc_lang::templates::{kvs_template, mlagg_template, KvsParams, MlAggParams};
use clickinc_runtime::workload::{
    KvsWorkload, KvsWorkloadConfig, MlAggWorkload, MlAggWorkloadConfig, Workload as PacketSource,
};
use clickinc_runtime::{RunOutcome, TenantHop};
use std::sync::Arc;
use std::time::Instant;

/// Bursts timed per block; one more is generated and sent first as warm-up.
/// About 30 ms of ops: short enough that a 30 s run times each position of
/// the block some four hundred times.
pub const BURSTS_PER_BLOCK: usize = 32;

/// Which fig13 application serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    /// KVS cache, Zipf 0.99 over 10 k keys, the 256 hottest cached.
    Kvs,
    /// Sparse MLAgg, 32 dimensions, 4 workers, half the 8-wide blocks zero.
    MlAgg,
}

const KVS_KEYS: usize = 10_000;
const KVS_HOT_KEYS: i64 = 256;
const KVS_BURST: usize = 1024;
const MLAGG_WORKERS: usize = 4;
const MLAGG_DIMS: u32 = 32;
const MLAGG_ROUNDS_PER_BURST: usize = 32;

/// A serve workload for one seed.
pub struct Serve {
    app: App,
    seed: u64,
}

impl Serve {
    pub fn new(app: App, seed: u64) -> Serve {
        Serve { app, seed }
    }

    fn user(&self) -> &'static str {
        match self.app {
            App::Kvs => "kvs_srv",
            App::MlAgg => "mlagg_srv",
        }
    }

    /// Packets per burst.
    pub fn burst_packets(&self) -> usize {
        match self.app {
            App::Kvs => KVS_BURST,
            App::MlAgg => MLAGG_ROUNDS_PER_BURST * MLAGG_WORKERS,
        }
    }

    /// The tenant's deploy request — the fig13 serving pair of `crates/apps`.
    pub fn request(&self) -> ServiceRequest {
        let user = self.user();
        match self.app {
            App::Kvs => ServiceRequest::builder(user)
                .template(kvs_template(user, KvsParams { cache_depth: 2000, ..Default::default() }))
                .from_("pod0a")
                .from_("pod1a")
                .to("pod2b"),
            App::MlAgg => ServiceRequest::builder(user)
                .template(mlagg_template(
                    user,
                    MlAggParams {
                        dims: MLAGG_DIMS,
                        num_workers: MLAGG_WORKERS as u32,
                        num_aggregators: 1024,
                        is_float: false,
                    },
                ))
                .from_("pod0b")
                .from_("pod1b")
                .to("pod2a"),
        }
        .build()
        .expect("serve request is well-formed")
    }

    /// The packet source for `bursts` bursts of tenant `user_id`.
    pub fn source(&self, user_id: i64, bursts: usize) -> Box<dyn PacketSource> {
        match self.app {
            App::Kvs => Box::new(KvsWorkload::new(KvsWorkloadConfig {
                tenant: self.user().to_string(),
                user_id,
                keys: KVS_KEYS,
                skew: 0.99,
                requests: bursts * KVS_BURST,
                rate_pps: 10_000_000.0,
                seed: self.seed,
            })),
            App::MlAgg => Box::new(MlAggWorkload::new(MlAggWorkloadConfig {
                tenant: self.user().to_string(),
                user_id,
                workers: MLAGG_WORKERS,
                // every burst brings fresh sequence numbers, so no aggregator
                // slot is revisited while it still holds a partial sum
                rounds: bursts * MLAGG_ROUNDS_PER_BURST,
                dims: MLAGG_DIMS as usize,
                sparsity: 0.5,
                block_size: 8,
                rate_pps: 10_000_000.0,
                seed: self.seed,
            })),
        }
    }

    /// Cache lines the control plane installs before traffic.
    pub fn table_writes(&self) -> Vec<TableWrite> {
        match self.app {
            App::Kvs => (0..KVS_HOT_KEYS)
                .map(|key| TableWrite {
                    table: format!("{}_cache", self.user()),
                    key: vec![Value::Int(key)],
                    value: vec![Value::Int(kvs_backend_value(key))],
                })
                .collect(),
            App::MlAgg => Vec::new(),
        }
    }

    /// Packets the network must answer itself, worked out from the generated
    /// packets alone: a KVS request for a cached key; the packet that
    /// completes an aggregation round.
    fn expected_hits(&self, burst: &[(u64, Packet)]) -> u64 {
        let packets = burst.iter().map(|(_, p)| p);
        match self.app {
            App::Kvs => packets
                .filter(|p| matches!(p.inc.get("key"), Value::Int(k) if k < KVS_HOT_KEYS))
                .count() as u64,
            App::MlAgg => {
                let last = 1i64 << (MLAGG_WORKERS - 1);
                packets.filter(|p| p.inc.get("bitmap") == Value::Int(last)).count() as u64
            }
        }
    }

    /// `bursts` bursts for tenant `user_id`, generated one at a time; the same
    /// arguments give the same packets.
    pub fn generate(
        &self,
        user_id: i64,
        bursts: usize,
    ) -> impl Iterator<Item = Vec<(u64, Packet)>> {
        let mut source = self.source(user_id, bursts);
        let per_burst = self.burst_packets();
        (0..bursts).map(move |_| {
            (0..per_burst)
                .map(|_| {
                    let g = source.next_packet().expect("the source covers every burst");
                    (g.vtime_ns, g.packet)
                })
                .collect()
        })
    }

    /// Deploy the tenant on a fresh service, install its cache lines and
    /// generate `bursts` bursts.
    pub fn set_up(&self, bursts: usize) -> ServeFixture {
        let service = fresh_service();
        let handle = service.deploy(self.request()).expect("the serve tenant deploys");
        for write in self.table_writes() {
            handle.populate_table(&write.table, write.key, write.value);
        }
        let bursts = self.generate(handle.numeric_id(), bursts).collect();
        ServeFixture { service, handle, tenant: Arc::from(self.user()), bursts }
    }
}

/// One block's service, tenant and not-yet-sent bursts.
pub struct ServeFixture {
    pub service: ClickIncService,
    pub handle: TenantHandle,
    pub tenant: Arc<str>,
    pub bursts: Vec<Vec<(u64, Packet)>>,
}

impl ServeFixture {
    /// The tenant's hops, for replays.
    pub fn hops(&self) -> Vec<TenantHop> {
        self.handle.hops().to_vec()
    }

    /// Stop the engine and hand back its final telemetry and stores.
    pub fn finish(self) -> RunOutcome {
        self.service.finish()
    }

    /// One caller-visible op: hand the burst to the engine and wait until
    /// every packet of it reached a terminal outcome.  Returns shed packets.
    pub fn send(
        &self,
        burst: Vec<(u64, Packet)>,
        tracer: &mut Tracer,
        parent: SpanId,
        op: u32,
    ) -> usize {
        let engine = self.service.engine_handle();
        let outcome =
            tracer.span("runtime.inject", parent, op, || engine.inject(&self.tenant, burst));
        tracer.span("runtime.flush", parent, op, || self.service.flush());
        outcome.shed
    }
}

/// Strip the arrival times off copies of `bursts` for a replay.
pub fn packets_of(bursts: &[Vec<(u64, Packet)>]) -> impl Iterator<Item = Vec<Packet>> + '_ {
    bursts.iter().map(|b| b.iter().map(|(_, p)| p.clone()).collect())
}

impl Workload for Serve {
    fn probe_requests(&self) -> Vec<ServiceRequest> {
        vec![self.request()]
    }

    fn probe_traffic(&self) -> Serve {
        Serve::new(self.app, self.seed)
    }

    fn run_block(&mut self, verify_stores: bool, tracer: &mut Tracer) -> BlockOutcome {
        let mut out = BlockOutcome::default();

        let setup_started = Instant::now();
        let mut fixture = self.set_up(BURSTS_PER_BLOCK + 1);
        let mut pending = std::mem::take(&mut fixture.bursts);
        let measured = pending.split_off(1);
        let warm_up = pending.pop().expect("one warm-up burst");
        // the bench's own bookkeeping stays out of the op timings (and, but for
        // this one burst, out of the set-up time)
        let mut expected_hits = self.expected_hits(&warm_up);
        let mut injected = warm_up.len() as u64;
        let mut shed = fixture.send(warm_up, &mut Tracer::disabled(), ROOT, 0);
        out.setup_s = setup_started.elapsed().as_secs_f64();

        let block_span = tracer.begin("block", ROOT, 0);
        let mut clock = OpClock::default();
        for (i, burst) in measured.into_iter().enumerate() {
            let packets = burst.len() as u64;
            expected_hits += self.expected_hits(&burst);
            injected += packets;
            clock.start();
            let op_span = tracer.begin("op.burst", block_span, i as u32);
            shed += fixture.send(burst, tracer, op_span, i as u32);
            tracer.end(op_span);
            clock.stop(&mut out, packets, Caller::Tenant, || ());
        }
        tracer.end(block_span);

        // ---- output checks: cheap ones every block, the replay when asked ----
        let stats = fixture.service.telemetry().tenant(&fixture.tenant).cloned();
        let hops = fixture.hops();
        let user_id = fixture.handle.numeric_id();
        let outcome = fixture.finish();
        out.failed += shed as u64;
        match stats {
            None => out.problem("the tenant has no telemetry"),
            Some(stats) => {
                if stats.completed != injected {
                    out.failed += injected.saturating_sub(stats.completed);
                    out.problem(format!("completed {} of {injected} packets", stats.completed));
                }
                if stats.shed_packets != 0 || shed != 0 {
                    out.problem(format!("{} packets shed", stats.shed_packets));
                }
                if stats.hits != expected_hits {
                    out.problem(format!(
                        "{} in-network answers, the generated packets call for {expected_hits}",
                        stats.hits
                    ));
                }
            }
        }
        if verify_stores {
            // the reference generates the same packets again from the seed,
            // burst by burst, so the process never holds its inputs twice
            let input = self
                .generate(user_id, BURSTS_PER_BLOCK + 1)
                .map(|burst| burst.into_iter().map(|(_, packet)| packet).collect());
            let reference: ReplayStats =
                replay(&hops, ExecMode::Interpreted, &self.table_writes(), input);
            for (device, fingerprint) in &reference.fingerprints {
                let engine = outcome.stores.get(device).map(|s| s.fingerprint());
                if engine != Some(*fingerprint) {
                    out.problem(format!(
                        "store of {device} differs from the interpreted replay \
                         ({engine:?} vs {fingerprint})"
                    ));
                }
            }
            if reference.fingerprints.is_empty() {
                out.problem("the replay found no programmed device");
            }
        }
        out
    }
}
