//! Cross-solve memoization of segment feasibility (the placement DP's hot
//! inner call).
//!
//! [`place`](crate::place) spends almost all of its time in `seg_eval`:
//! "can device `d` host blocks `[j..k)` of this program, in how many stages
//! and at what demand?".  The answer is a pure function of
//!
//! * the **shape** of the program and its block DAG — instruction structure,
//!   capability classes, data dependencies, object geometries and the block
//!   partition, but *not* the tenant-specific names isolation stamps into
//!   them (two tenants instantiated from one template ask byte-identical
//!   segment questions under different names);
//! * the **device** — kind, bypass accelerator, and the exact residual
//!   capacity vector after netting the ledger (not how many switches the
//!   equivalence class stands for: classes with equal residuals share
//!   entries);
//! * the segment bounds `(j, k)`.
//!
//! [`SolveCache`] memoizes that function across solves.  The key carries the
//! *exact* bits of every input (canonical [`shape_fingerprint`] of the
//! program + DAG, [`device_fingerprint`] over the residual-capacity vector),
//! so a hit returns precisely what recomputing would — warm-started solves
//! are bit-identical to cold ones by construction.  When a commit moves the
//! ledger of one device, only that device's fingerprint changes: re-solving
//! re-evaluates the segments of the moved device and answers every other
//! (program, device, j, k) subproblem from the cache — the incremental
//! re-solve the paper's incremental-synthesis idea asks for, applied to
//! placement.
//!
//! An entry is the allocator's verdict without the per-instruction stage map
//! (`Option<SegFit>`: stages used and the demand vector, 104 bytes, no heap);
//! the DP rebuilds the stage map for the handful of segments a plan uses.
//! Objective terms (weights, capacity normalization, the replication factor
//! scaling the demand) deliberately stay *outside* the memo: they vary per
//! solve and are cheap to recompute from the memoized fit.

use crate::intra::SegFit;
use crate::network::PlacementDevice;
use clickinc_blockdag::BlockDag;
use clickinc_ir::{Fnv, Guard, IrProgram, ObjectKind, OpCode, Operand, Value};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Entry cap.  A memo that fills up is cleared wholesale (the entries are
/// pure re-derivable facts, so dropping them only costs time).
const CAPACITY: usize = 1 << 20;

/// Memo key: the exact inputs `seg_eval` consumes.  Two 64-bit digests of
/// the canonical program/DAG stream plus the device digest and the segment
/// bounds; 128 shape bits keep accidental collisions out of reach even with
/// millions of cached shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct MemoKey {
    shape: u128,
    device: u64,
    j: u32,
    k: u32,
}

/// Counters of a [`SolveCache`], for observability and the bench export.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolveCacheStats {
    /// Segment evaluations answered from the memo.
    pub hits: u64,
    /// Segment evaluations that ran the stage allocator.
    pub misses: u64,
    /// Entries currently cached.
    pub entries: usize,
}

impl SolveCacheStats {
    /// Hit ratio in `[0, 1]` (`0` before the first lookup).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The cross-solve segment memo; see the [module docs](self).  Shareable
/// across threads (`&SolveCache` is all a solve needs; the service runs
/// every solve under its one lock, so the map's own lock is uncontended)
/// and across epochs — entries never go stale because their keys pin the
/// exact residual capacities they were computed against.
#[derive(Debug, Default)]
pub struct SolveCache {
    entries: Mutex<HashMap<MemoKey, Option<SegFit>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl SolveCache {
    /// An empty memo.
    pub fn new() -> SolveCache {
        SolveCache::default()
    }

    /// Answer `seg_eval`'s allocation question from the memo, or compute and
    /// remember it.  `compute` runs at most once per distinct key.
    pub(crate) fn fit_or_compute(
        &self,
        shape: u128,
        device: u64,
        j: usize,
        k: usize,
        compute: impl FnOnce() -> Option<SegFit>,
    ) -> Option<SegFit> {
        let key = MemoKey { shape, device, j: j as u32, k: k as u32 };
        if let Some(cached) = self.entries.lock().expect("memo lock").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return *cached;
        }
        // compute outside the lock; a racing duplicate compute is harmless
        // (both produce the identical pure result)
        self.misses.fetch_add(1, Ordering::Relaxed);
        let value = compute();
        let mut map = self.entries.lock().expect("memo lock");
        if map.len() >= CAPACITY {
            map.clear();
        }
        map.insert(key, value);
        value
    }

    /// Current counters.
    pub fn stats(&self) -> SolveCacheStats {
        SolveCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.entries.lock().expect("memo lock").len(),
        }
    }

    /// Drop every entry (counters survive).  Benchmarks use this to measure
    /// a true cold solve without rebuilding the surrounding service.
    pub fn clear(&self) {
        self.entries.lock().expect("memo lock").clear();
    }
}

/// Double-width FNV stream: every write feeds two independently-seeded
/// digests, giving a 128-bit fingerprint from the in-tree hasher.
struct WideFnv {
    a: Fnv,
    b: Fnv,
}

impl WideFnv {
    fn new() -> WideFnv {
        let mut b = Fnv::new();
        // distinct prefix decorrelates the second lane from the first
        b.write_u64(0x9e37_79b9_7f4a_7c15);
        WideFnv { a: Fnv::new(), b }
    }

    fn write_u64(&mut self, v: u64) {
        self.a.write_u64(v);
        self.b.write_u64(v);
    }

    fn finish(&self) -> u128 {
        (u128::from(self.a.finish()) << 64) | u128::from(self.b.finish())
    }
}

/// Interns names in first-occurrence order so the fingerprint is invariant
/// under the consistent renaming tenant isolation performs.
#[derive(Default)]
struct NameTable<'a> {
    ids: HashMap<&'a str, u64>,
}

impl<'a> NameTable<'a> {
    fn id(&mut self, name: &'a str) -> u64 {
        let next = self.ids.len() as u64;
        *self.ids.entry(name).or_insert(next)
    }
}

/// Canonical 128-bit fingerprint of everything `seg_eval` reads from a
/// program and its block DAG: instruction structure (opcodes, operand and
/// guard shapes, canonicalized names), object geometries, and the block
/// partition with its step order.  Tenant-specific name prefixes and literal
/// constant *values* are deliberately excluded — neither influences
/// capability classes, data dependencies or resource demand, and excluding
/// them lets every tenant stamped from one template share memo entries.
pub fn shape_fingerprint(program: &IrProgram, dag: &BlockDag, order: &[usize]) -> u128 {
    let mut h = WideFnv::new();
    let mut names = NameTable::default();
    h.write_u64(program.instructions.len() as u64);
    for instr in &program.instructions {
        hash_opcode(&mut h, &mut names, program, &instr.op);
        match &instr.guard {
            None => h.write_u64(0),
            Some(guard) => hash_guard(&mut h, &mut names, guard),
        }
    }
    // the block partition and its step order (the DP's segment universe)
    h.write_u64(dag.blocks().len() as u64);
    for &b in order {
        let block = &dag.blocks()[b];
        h.write_u64(block.step as u64);
        h.write_u64(block.instrs.len() as u64);
        for &i in &block.instrs {
            h.write_u64(i as u64);
        }
    }
    for &(a, b) in dag.edges() {
        h.write_u64(a as u64);
        h.write_u64(b as u64);
    }
    h.finish()
}

/// Digest of the device facts the memoised answer reads: kind, bypass model,
/// and the exact bits of the residual capacity vector.  Not the member count:
/// equivalence classes of different sizes with equal residuals (a fresh
/// network's ToR, Agg and Core layers) share entries.
pub fn device_fingerprint(device: &PlacementDevice) -> u64 {
    let mut h = Fnv::new();
    h.write_str(&device.kind.to_string());
    match &device.bypass {
        None => h.write_u64(0),
        Some(b) => {
            h.write_u64(1);
            h.write_str(&b.kind.to_string());
        }
    }
    for r in clickinc_ir::Resource::ALL {
        h.write_u64(device.available[r].to_bits());
    }
    h.finish()
}

fn hash_operand<'a>(h: &mut WideFnv, names: &mut NameTable<'a>, op: &'a Operand) {
    match op {
        Operand::Var(v) => {
            h.write_u64(1);
            h.write_u64(names.id(v));
        }
        Operand::Const(c) => {
            h.write_u64(2);
            // the type tag, not the value: placement feasibility and demand
            // are constant-value-independent, and excluding the value lets
            // guards carrying per-tenant literals share entries
            h.write_u64(match c {
                Value::Int(_) => 0,
                Value::Float(_) => 1,
                Value::Bool(_) => 2,
                Value::Bytes(_) => 3,
                Value::None => 4,
            });
        }
        Operand::Header(f) => {
            h.write_u64(3);
            h.write_u64(names.id(f));
        }
        Operand::Meta(m) => {
            h.write_u64(4);
            h.write_u64(names.id(m));
        }
    }
}

fn hash_operands<'a>(h: &mut WideFnv, names: &mut NameTable<'a>, ops: &'a [Operand]) {
    h.write_u64(ops.len() as u64);
    for op in ops {
        hash_operand(h, names, op);
    }
}

fn hash_guard<'a>(h: &mut WideFnv, names: &mut NameTable<'a>, guard: &'a Guard) {
    h.write_u64(1 + guard.all.len() as u64);
    for p in &guard.all {
        hash_operand(h, names, &p.lhs);
        h.write_u64(p.op as u64);
        hash_operand(h, names, &p.rhs);
    }
}

fn hash_object<'a>(
    h: &mut WideFnv,
    names: &mut NameTable<'a>,
    program: &'a IrProgram,
    object: &'a str,
) {
    h.write_u64(names.id(object));
    // geometry travels with the first reference; later references reuse the
    // id, so renaming-consistent programs stream identically
    match program.object(object).map(|decl| &decl.kind) {
        None => h.write_u64(0),
        Some(ObjectKind::Array { rows, size, width }) => {
            h.write_u64(1);
            h.write_u64(u64::from(*rows));
            h.write_u64(u64::from(*size));
            h.write_u64(u64::from(*width));
        }
        Some(ObjectKind::Table { match_kind, key_width, value_width, depth, stateful }) => {
            h.write_u64(2);
            h.write_u64(*match_kind as u64);
            h.write_u64(u64::from(*key_width));
            h.write_u64(u64::from(*value_width));
            h.write_u64(u64::from(*depth));
            h.write_u64(u64::from(*stateful));
        }
        Some(ObjectKind::Sketch { kind, rows, cols, width }) => {
            h.write_u64(3);
            h.write_u64(*kind as u64);
            h.write_u64(u64::from(*rows));
            h.write_u64(u64::from(*cols));
            h.write_u64(u64::from(*width));
        }
        Some(ObjectKind::Seq { size, width }) => {
            h.write_u64(4);
            h.write_u64(u64::from(*size));
            h.write_u64(u64::from(*width));
        }
        Some(ObjectKind::Hash { algo, modulus }) => {
            h.write_u64(5);
            h.write_u64(*algo as u64);
            h.write_u64(modulus.map(|m| u64::from(m) + 1).unwrap_or(0));
        }
        Some(ObjectKind::Crypto { algo }) => {
            h.write_u64(6);
            h.write_u64(*algo as u64);
        }
    }
}

fn hash_opcode<'a>(
    h: &mut WideFnv,
    names: &mut NameTable<'a>,
    program: &'a IrProgram,
    op: &'a OpCode,
) {
    match op {
        OpCode::Assign { dest, src } => {
            h.write_u64(1);
            h.write_u64(names.id(dest));
            hash_operand(h, names, src);
        }
        OpCode::Alu { dest, op, lhs, rhs, float } => {
            h.write_u64(2);
            h.write_u64(names.id(dest));
            h.write_u64(*op as u64);
            hash_operand(h, names, lhs);
            hash_operand(h, names, rhs);
            h.write_u64(u64::from(*float));
        }
        OpCode::Cmp { dest, op, lhs, rhs } => {
            h.write_u64(3);
            h.write_u64(names.id(dest));
            h.write_u64(*op as u64);
            hash_operand(h, names, lhs);
            hash_operand(h, names, rhs);
        }
        OpCode::Hash { dest, object, keys } => {
            h.write_u64(4);
            h.write_u64(names.id(dest));
            hash_object(h, names, program, object);
            hash_operands(h, names, keys);
        }
        OpCode::ReadState { dest, object, index } => {
            h.write_u64(5);
            h.write_u64(names.id(dest));
            hash_object(h, names, program, object);
            hash_operands(h, names, index);
        }
        OpCode::WriteState { object, index, value } => {
            h.write_u64(6);
            hash_object(h, names, program, object);
            hash_operands(h, names, index);
            hash_operands(h, names, value);
        }
        OpCode::CountState { dest, object, index, delta } => {
            h.write_u64(7);
            match dest {
                None => h.write_u64(0),
                Some(d) => {
                    h.write_u64(1);
                    h.write_u64(names.id(d));
                }
            }
            hash_object(h, names, program, object);
            hash_operands(h, names, index);
            hash_operand(h, names, delta);
        }
        OpCode::ClearState { object } => {
            h.write_u64(8);
            hash_object(h, names, program, object);
        }
        OpCode::DeleteState { object, index } => {
            h.write_u64(9);
            hash_object(h, names, program, object);
            hash_operands(h, names, index);
        }
        OpCode::Drop => h.write_u64(10),
        OpCode::Forward => h.write_u64(11),
        OpCode::Back { updates } => {
            h.write_u64(12);
            h.write_u64(updates.len() as u64);
            for (field, value) in updates {
                h.write_u64(names.id(field));
                hash_operand(h, names, value);
            }
        }
        OpCode::Mirror { updates } => {
            h.write_u64(13);
            h.write_u64(updates.len() as u64);
            for (field, value) in updates {
                h.write_u64(names.id(field));
                hash_operand(h, names, value);
            }
        }
        OpCode::Multicast { group } => {
            h.write_u64(14);
            hash_operand(h, names, group);
        }
        OpCode::CopyTo { target, values } => {
            h.write_u64(15);
            h.write_u64(names.id(target));
            hash_operands(h, names, values);
        }
        OpCode::SetHeader { field, value } => {
            h.write_u64(16);
            h.write_u64(names.id(field));
            hash_operand(h, names, value);
        }
        OpCode::Crypto { dest, object, input, encrypt } => {
            h.write_u64(17);
            h.write_u64(names.id(dest));
            hash_object(h, names, program, object);
            hash_operand(h, names, input);
            h.write_u64(u64::from(*encrypt));
        }
        OpCode::RandInt { dest, bound } => {
            h.write_u64(18);
            h.write_u64(names.id(dest));
            hash_operand(h, names, bound);
        }
        OpCode::Checksum { dest, inputs } => {
            h.write_u64(19);
            h.write_u64(names.id(dest));
            hash_operands(h, names, inputs);
        }
        OpCode::NoOp => h.write_u64(20),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::ResourceLedger;
    use crate::PlacementNetwork;
    use clickinc_blockdag::{build_block_dag, BlockConfig};
    use clickinc_frontend::compile_source;
    use clickinc_lang::templates::{kvs_template, KvsParams};
    use clickinc_topology::{reduce_for_traffic, Topology};

    fn shape_of(user: &str) -> u128 {
        let t = kvs_template(user, KvsParams { cache_depth: 1000, ..Default::default() });
        let ir = compile_source(user, &t.source).unwrap();
        let dag = build_block_dag(&ir, &BlockConfig::default());
        let order = dag.blocks_by_step();
        shape_fingerprint(&ir, &dag, &order)
    }

    #[test]
    fn renamed_tenants_share_a_shape() {
        assert_eq!(shape_of("alpha"), shape_of("beta"), "names are canonicalized away");
    }

    #[test]
    fn different_geometries_do_not_share_a_shape() {
        let shape = |depth| {
            let t = kvs_template("u", KvsParams { cache_depth: depth, ..Default::default() });
            let ir = compile_source("u", &t.source).unwrap();
            let dag = build_block_dag(&ir, &BlockConfig::default());
            let order = dag.blocks_by_step();
            shape_fingerprint(&ir, &dag, &order)
        };
        assert_ne!(shape(1000), shape(2000), "object depth changes demand, so the key must move");
    }

    #[test]
    fn device_fingerprint_tracks_residual_capacity() {
        let topo = Topology::chain(1, clickinc_device::DeviceKind::Tofino);
        let servers = topo.servers();
        let reduced = reduce_for_traffic(&topo, &[servers[0]], servers[1], &[]);
        let mut ledger = ResourceLedger::new();
        let before = PlacementNetwork::from_reduced(&topo, &reduced, &ledger);
        ledger.consume(
            topo.find("SW0").unwrap(),
            clickinc_ir::ResourceVector::zero().with(clickinc_ir::Resource::SramBlocks, 1.0),
        );
        let after = PlacementNetwork::from_reduced(&topo, &reduced, &ledger);
        assert_ne!(
            device_fingerprint(&before.client[0]),
            device_fingerprint(&after.client[0]),
            "a ledger move must change the device key"
        );
        assert_eq!(
            device_fingerprint(&before.client[0]),
            device_fingerprint(&before.client[0].clone())
        );
    }

    #[test]
    fn memo_returns_the_computed_value_and_counts() {
        let cache = SolveCache::new();
        let fit = SegFit { stages_used: 2, ..SegFit::EMPTY };
        let first = cache.fit_or_compute(1, 2, 0, 3, || Some(fit));
        assert_eq!(first, Some(fit));
        let second = cache.fit_or_compute(1, 2, 0, 3, || panic!("must hit the memo"));
        assert_eq!(second, Some(fit));
        let miss = cache.fit_or_compute(1, 3, 0, 3, || None);
        assert_eq!(miss, None);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 2));
        assert!((stats.hit_ratio() - 1.0 / 3.0).abs() < 1e-12);
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn equivalence_classes_of_different_sizes_share_entries() {
        use crate::{place_with_cache, PlacementConfig};
        let topo = Topology::emulation_topology_all_tofino();
        let (src, dst) = (topo.find("pod0a").unwrap(), topo.find("pod2b").unwrap());
        let reduced = reduce_for_traffic(&topo, &[src], dst, &[]);
        let single = PlacementNetwork::from_reduced(&topo, &reduced, &ResourceLedger::new());
        // the same network with the first client device standing for one more switch
        let mut double = single.clone();
        double.client[0].members.push(src);
        assert_eq!(double.client[0].replication(), single.client[0].replication() + 1);
        assert_eq!(
            device_fingerprint(&single.client[0]),
            device_fingerprint(&double.client[0]),
            "the member count is not part of the key"
        );

        let config = PlacementConfig::default();
        for program in crate::fig13_programs() {
            let dag = build_block_dag(program, &BlockConfig::default());
            let solve = |net: &PlacementNetwork, cache: Option<&SolveCache>| {
                place_with_cache(program, &dag, net, &config, cache).expect("places").fingerprint()
            };
            let cache = SolveCache::new();
            solve(&single, Some(&cache));
            let warmed = cache.stats();
            let prewarmed = solve(&double, Some(&cache));
            let after = cache.stats();
            assert_eq!(
                (after.misses, after.entries),
                (warmed.misses, warmed.entries),
                "{}: the other device's entries answer every question",
                program.name
            );
            assert_eq!(prewarmed, solve(&double, None), "{}: memo off", program.name);
            assert_eq!(
                prewarmed,
                solve(&double, Some(&SolveCache::new())),
                "{}: memo on",
                program.name
            );
        }
    }
}
