//! Open-loop, seeded workload generators.
//!
//! A workload is an iterator of `(tenant, virtual arrival time, packet)`
//! triples.  Generators are *open-loop*: packet `i` arrives at
//! `i / rate_pps` seconds on the workload's virtual clock regardless of how
//! fast the engine drains it, which is how serving systems are actually
//! loaded (and what makes goodput well-defined without wall clocks).  Every
//! generator is seeded, so a fixed seed produces a byte-identical packet
//! stream — the foundation of the runtime's shard-count invariance and
//! zero-disruption tests, and of the [`crate::scenario`] loop's repeatable
//! reports.  Each generator builds its packet family's shape
//! once and stamps every packet from it, so a stream shares one header
//! layout and one pair of endpoint names.

use crate::packet::{GradientShape, KvsShape, Packet};
use crate::zipf::ZipfSampler;
use rand::prelude::*;
use rand::rngs::StdRng;
use std::sync::Arc;

/// One generated packet with its open-loop arrival time.
#[derive(Debug, Clone)]
pub struct GeneratedPacket {
    /// Owning tenant (user id string).
    pub tenant: Arc<str>,
    /// Virtual arrival time in nanoseconds.
    pub vtime_ns: u64,
    /// The packet.
    pub packet: Packet,
}

/// A deterministic open-loop traffic source.
pub trait Workload: Send {
    /// The next packet, or `None` when the workload is exhausted.
    fn next_packet(&mut self) -> Option<GeneratedPacket>;
}

fn vtime(index: u64, rate_pps: f64) -> u64 {
    (index as f64 * 1e9 / rate_pps.max(1.0)).round() as u64
}

/// Configuration of a skewed KVS request stream.
#[derive(Debug, Clone)]
pub struct KvsWorkloadConfig {
    /// Tenant (user id string) owning the stream.
    pub tenant: String,
    /// Numeric user id carried in the INC header.
    pub user_id: i64,
    /// Key universe size.
    pub keys: usize,
    /// Zipf skew exponent (0 = uniform).
    pub skew: f64,
    /// Total requests to emit.
    pub requests: usize,
    /// Offered load in packets per second (virtual clock).
    pub rate_pps: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for KvsWorkloadConfig {
    fn default() -> Self {
        KvsWorkloadConfig {
            tenant: "kvs".into(),
            user_id: 0,
            keys: 1000,
            skew: 1.1,
            requests: 2000,
            rate_pps: 1_000_000.0,
            seed: 11,
        }
    }
}

/// Zipf-skewed KVS GET stream (the NetCache-style workload of §7.2).
pub struct KvsWorkload {
    tenant: Arc<str>,
    shape: KvsShape,
    zipf: ZipfSampler,
    rng: StdRng,
    rate_pps: f64,
    remaining: usize,
    emitted: u64,
}

impl KvsWorkload {
    /// Build the stream from its configuration.
    pub fn new(config: KvsWorkloadConfig) -> KvsWorkload {
        KvsWorkload {
            tenant: config.tenant.into(),
            shape: KvsShape::new("client", "server", config.user_id),
            zipf: ZipfSampler::new(config.keys, config.skew),
            rng: StdRng::seed_from_u64(config.seed),
            rate_pps: config.rate_pps,
            remaining: config.requests,
            emitted: 0,
        }
    }
}

impl Workload for KvsWorkload {
    fn next_packet(&mut self) -> Option<GeneratedPacket> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let key = self.zipf.sample(&mut self.rng) as i64;
        let packet = self.shape.request(key);
        let generated = GeneratedPacket {
            tenant: Arc::clone(&self.tenant),
            vtime_ns: vtime(self.emitted, self.rate_pps),
            packet,
        };
        self.emitted += 1;
        Some(generated)
    }
}

/// Configuration of a sparse gradient-aggregation stream.
#[derive(Debug, Clone)]
pub struct MlAggWorkloadConfig {
    /// Tenant (user id string) owning the stream.
    pub tenant: String,
    /// Numeric user id carried in the INC header.
    pub user_id: i64,
    /// Number of workers contributing per round.
    pub workers: usize,
    /// Aggregation rounds (distinct sequence numbers).
    pub rounds: usize,
    /// Parameter-vector dimensions per packet.
    pub dims: usize,
    /// Fraction of `block_size`-aligned blocks that are entirely zero.
    pub sparsity: f64,
    /// Sparse block size.
    pub block_size: usize,
    /// Offered load in packets per second (virtual clock).
    pub rate_pps: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MlAggWorkloadConfig {
    fn default() -> Self {
        MlAggWorkloadConfig {
            tenant: "mlagg".into(),
            user_id: 0,
            workers: 4,
            rounds: 200,
            dims: 32,
            sparsity: 0.5,
            block_size: 8,
            rate_pps: 1_000_000.0,
            seed: 7,
        }
    }
}

/// Sparse gradient traffic: `workers` packets per round, round-major order,
/// with seeded zero blocks (the Fig. 13 workload).
pub struct MlAggWorkload {
    tenant: Arc<str>,
    shape: GradientShape,
    config: MlAggWorkloadConfig,
    rng: StdRng,
    /// The gradient being drawn, reused from packet to packet.
    values: Vec<i64>,
    round: usize,
    worker: usize,
    emitted: u64,
}

impl MlAggWorkload {
    /// Build the stream from its configuration.
    pub fn new(config: MlAggWorkloadConfig) -> MlAggWorkload {
        MlAggWorkload {
            tenant: config.tenant.clone().into(),
            shape: GradientShape::new("worker", "ps", config.user_id, config.dims),
            rng: StdRng::seed_from_u64(config.seed),
            values: vec![0; config.dims],
            config,
            round: 0,
            worker: 0,
            emitted: 0,
        }
    }
}

impl Workload for MlAggWorkload {
    fn next_packet(&mut self) -> Option<GeneratedPacket> {
        if self.round >= self.config.rounds {
            return None;
        }
        let c = &self.config;
        let values = &mut self.values;
        let blocks = c.dims.div_ceil(c.block_size.max(1));
        for b in 0..blocks {
            let zero_block = self.rng.gen_bool(c.sparsity.clamp(0.0, 1.0));
            let end = ((b + 1) * c.block_size).min(c.dims);
            for value in &mut values[b * c.block_size..end] {
                *value = if zero_block { 0 } else { self.rng.gen_range(1..100) };
            }
        }
        let packet = self.shape.packet(self.round as i64, self.worker, values);
        let generated = GeneratedPacket {
            tenant: Arc::clone(&self.tenant),
            vtime_ns: vtime(self.emitted, c.rate_pps),
            packet,
        };
        self.emitted += 1;
        self.worker += 1;
        if self.worker >= c.workers {
            self.worker = 0;
            self.round += 1;
        }
        Some(generated)
    }
}

/// A multi-tenant profile: several workloads interleaved round-robin, each
/// keeping its own virtual clock and seed.  The interleaving is
/// deterministic, and — because tenants are isolated — each tenant's
/// per-packet results are independent of how the others are interleaved.
pub struct MixedWorkload {
    parts: Vec<Box<dyn Workload>>,
    cursor: usize,
}

impl MixedWorkload {
    /// Interleave the given workloads.
    pub fn new(parts: Vec<Box<dyn Workload>>) -> MixedWorkload {
        MixedWorkload { parts, cursor: 0 }
    }
}

impl Workload for MixedWorkload {
    fn next_packet(&mut self) -> Option<GeneratedPacket> {
        for _ in 0..self.parts.len() {
            let idx = self.cursor % self.parts.len();
            self.cursor += 1;
            if let Some(p) = self.parts[idx].next_packet() {
                return Some(p);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clickinc_ir::Value;

    fn drain(mut w: impl Workload) -> Vec<GeneratedPacket> {
        let mut out = Vec::new();
        while let Some(p) = w.next_packet() {
            out.push(p);
        }
        out
    }

    #[test]
    fn kvs_stream_is_deterministic_and_open_loop() {
        let cfg = KvsWorkloadConfig { requests: 50, rate_pps: 1e9, ..Default::default() };
        let a = drain(KvsWorkload::new(cfg.clone()));
        let b = drain(KvsWorkload::new(cfg));
        assert_eq!(a.len(), 50);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.packet, y.packet);
            assert_eq!(x.vtime_ns, y.vtime_ns);
        }
        // 1 Gpps → 1 ns spacing
        assert_eq!(a[1].vtime_ns - a[0].vtime_ns, 1);
    }

    #[test]
    fn mlagg_stream_covers_rounds_and_workers() {
        let cfg = MlAggWorkloadConfig {
            workers: 3,
            rounds: 4,
            dims: 8,
            sparsity: 0.0,
            ..Default::default()
        };
        let pkts = drain(MlAggWorkload::new(cfg));
        assert_eq!(pkts.len(), 12);
        assert_eq!(pkts[0].packet.inc.get("seq"), Value::Int(0));
        assert_eq!(pkts[11].packet.inc.get("seq"), Value::Int(3));
        assert_eq!(pkts[1].packet.inc.get("bitmap"), Value::Int(2));
        // dense stream: every dimension populated
        assert!(matches!(pkts[0].packet.inc.get("data_0"), Value::Int(v) if v > 0));
    }

    #[test]
    fn mixed_profile_interleaves_tenants_deterministically() {
        let mk = || {
            MixedWorkload::new(vec![
                Box::new(KvsWorkload::new(KvsWorkloadConfig {
                    tenant: "a".into(),
                    requests: 5,
                    ..Default::default()
                })) as Box<dyn Workload>,
                Box::new(KvsWorkload::new(KvsWorkloadConfig {
                    tenant: "b".into(),
                    requests: 3,
                    seed: 99,
                    ..Default::default()
                })),
            ])
        };
        let pkts = drain(mk());
        assert_eq!(pkts.len(), 8);
        let tenants: Vec<&str> = pkts.iter().map(|p| &*p.tenant).collect();
        assert_eq!(tenants, vec!["a", "b", "a", "b", "a", "b", "a", "a"]);
        let again: Vec<i64> =
            drain(mk()).iter().map(|p| p.packet.inc.get("key").as_int().unwrap()).collect();
        let keys: Vec<i64> =
            pkts.iter().map(|p| p.packet.inc.get("key").as_int().unwrap()).collect();
        assert_eq!(keys, again);
    }
}
