//! The data-plane interpreter: executes IR images/snippets on packets.

use crate::packet::Packet;
use crate::state::ObjectStore;
use crate::vm::{self, CompiledImage, ExecMode, RegFile, VmCtx};
use clickinc_device::DeviceModel;
use clickinc_ir::eval::{alu, compare};
use clickinc_ir::{Guard, IrProgram, Name, ObjectKind, OpCode, Operand, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// What happens to the packet after the device processed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketAction {
    /// Continue along the normal forwarding path.
    Forward,
    /// Consumed / dropped by the device (e.g. aggregated or filtered).
    Drop,
    /// Bounced back towards the sender (e.g. a cache hit reply or a completed
    /// aggregation result).
    Back,
}

/// Result of processing one packet on one device.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecOutcome {
    /// The resulting action.
    pub action: PacketAction,
    /// Copies mirrored to the CPU / monitoring session.
    pub mirrored: Vec<Packet>,
    /// Processing latency contributed by this device in nanoseconds.
    pub latency_ns: f64,
    /// Number of IR instructions whose guard held (i.e. actually executed).
    pub instructions_executed: usize,
}

/// One emulated device data plane: the installed IR snippets, their stateful
/// objects, and the device model used for latency accounting.
#[derive(Debug, Clone)]
pub struct DevicePlane {
    /// Device name (topology node name).
    pub name: String,
    /// The device model (for latency and line-rate accounting).
    pub model: DeviceModel,
    /// Installed program snippets, executed in installation order (shared
    /// with whoever installed them, not copied).
    snippets: Vec<Arc<IrProgram>>,
    /// Stateful object storage shared by all snippets on this device: the
    /// plane's one object table.
    store: ObjectStore,
    /// Per-tenant `RandInt` draw counters (user id → draws).  Keyed by tenant
    /// so one tenant's random stream is independent of co-resident traffic —
    /// a requirement for the runtime's shard-count invariance.
    rand_streams: BTreeMap<i64, u64>,
    /// The install-time-compiled form of `snippets` (see [`crate::vm`]): an
    /// install appends the snippet's program, an uninstall drops the owner's
    /// and compiles the rest whole only when dead registers or store
    /// tombstones pile up; `None` while nothing is installed.
    compiled: Option<CompiledImage>,
    /// The register file backing the compiled tier.
    regs: RegFile,
    /// Which execution tier [`DevicePlane::process`] runs.
    exec_mode: ExecMode,
}

/// Execution context handed to the opcode interpreter: the mutable store,
/// the snippet being run (whose own declarations give each object's kind, as
/// they do to the VM's lowering) and the per-tenant random-draw counters
/// (for `RandInt`).
struct ExecCtx<'a> {
    store: &'a mut ObjectStore,
    snippet: &'a IrProgram,
    rand_streams: &'a mut BTreeMap<i64, u64>,
}

impl ExecCtx<'_> {
    /// The kind the running snippet declares `object` with.
    fn kind(&self, object: &str) -> &ObjectKind {
        &self.snippet.object(object).expect("an installed snippet declares its objects").kind
    }
}

impl DevicePlane {
    /// Create an empty device plane.
    pub fn new(name: &str, model: DeviceModel) -> DevicePlane {
        DevicePlane {
            name: name.to_string(),
            model,
            snippets: Vec::new(),
            store: ObjectStore::new(),
            rand_streams: BTreeMap::new(),
            compiled: None,
            regs: RegFile::default(),
            exec_mode: ExecMode::default(),
        }
    }

    /// Select the execution tier.  Both tiers execute the same installed IR
    /// and share the store and random streams, so switching mid-stream is
    /// seamless (and bit-identical — see `tests/compiled_vs_interp.rs`).
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        self.exec_mode = mode;
    }

    /// The currently selected execution tier.
    pub fn exec_mode(&self) -> ExecMode {
        self.exec_mode
    }

    /// The compiled image, if any snippet is installed (inspection/snapshots).
    pub fn compiled_image(&self) -> Option<&CompiledImage> {
        self.compiled.as_ref()
    }

    /// Compile the image whole from the installed snippets, in install
    /// order, as [`vm::compile`] does: what an uninstall falls back to (see
    /// [`DevicePlane::uninstall`]), and the reference an incrementally built
    /// image is held to.  Object slots, hash seeds/moduli and the kind
    /// dispatch are resolved at compile time, once, so the per-packet loop
    /// does no name lookups.  Since every program is lowered anew, the store
    /// drops its tombstones first ([`ObjectStore::compact`]).
    pub fn recompile(&mut self) {
        self.store.compact();
        if self.snippets.is_empty() {
            self.compiled = None;
            self.regs.resize(0, 0);
            return;
        }
        let image = vm::compile(&self.snippets, &self.store);
        self.regs.resize(image.num_regs(), image.num_headers());
        self.compiled = Some(image);
    }

    /// Install a program snippet (declares its objects).  Only the snippet is
    /// lowered, against its own declarations: its program is appended to the
    /// compiled image, whose name tables already hold every resident's
    /// registers and header fields.
    ///
    /// # Panics
    ///
    /// If an instruction of the snippet touches an object the snippet does
    /// not declare, or the snippet declares an object the plane already
    /// holds as another kind (array, sequence, sketch, table, hash or
    /// crypto), so that the snippet's declaration is always the store's.
    /// Isolation and [`IrProgram::slice`] give every snippet a deployment
    /// ships exactly the objects its instructions touch, each named for its
    /// tenant.
    pub fn install(&mut self, snippet: impl Into<Arc<IrProgram>>) {
        let snippet = snippet.into();
        for object in snippet.instructions.iter().filter_map(|i| i.object()) {
            assert!(
                snippet.object(object).is_some(),
                "snippet `{}` touches object `{object}`, which it does not declare",
                snippet.name
            );
        }
        for obj in &snippet.objects {
            assert!(
                self.store.agrees_with(obj),
                "snippet `{}` declares object `{}` as another kind than the plane holds",
                snippet.name,
                obj.name
            );
            self.store.declare(obj);
        }
        let image = self.compiled.get_or_insert_with(CompiledImage::default);
        image.append(&snippet, &self.store);
        self.regs.resize(image.num_regs(), image.num_headers());
        self.snippets.push(snippet);
    }

    /// Remove every snippet owned by `owner` (matched against the snippet's
    /// program name) and move out the stateful objects no remaining snippet
    /// declares (declarations and contents).  Other tenants' snippets and
    /// state are untouched — this is the per-tenant quiesce primitive behind
    /// live reconfiguration: a removal drops the returned store, a live
    /// reshard re-seeds it wherever the new sharding mode hosts the tenant.
    ///
    /// The compiled image drops the owner's programs and keeps its name
    /// tables, and the store tombstones the removed objects' slots.  The
    /// image is compiled whole ([`DevicePlane::recompile`]) only when the
    /// registers the dropped programs introduced since the last whole compile
    /// outnumber the live ones, or the store's tombstones its live objects —
    /// so the register file and the store stay within twice their live size
    /// and an uninstall costs the tenant, amortized — or when the plane
    /// empties.
    ///
    /// Returns `None` if `owner` had no snippet installed.
    pub fn uninstall(&mut self, owner: &str) -> Option<ObjectStore> {
        let removed: Vec<Arc<IrProgram>> =
            self.snippets.iter().filter(|s| s.name == owner).cloned().collect();
        if removed.is_empty() {
            return None;
        }
        self.snippets.retain(|s| s.name != owner);
        let image = self.compiled.as_mut().expect("a plane with snippets has an image");
        image.drop_programs(owner);
        let mut moved = ObjectStore::new();
        for obj in removed.iter().flat_map(|s| s.objects.iter()) {
            if !self.snippets.iter().any(|s| s.object(&obj.name).is_some()) {
                self.store.remove_object(&obj.name, &mut moved);
            }
        }
        let dead_slots = self.store.dead_slots() > self.store.live_objects();
        let dead_regs = 2 * image.dead_regs() > image.num_regs();
        if self.snippets.is_empty() || dead_regs || dead_slots {
            self.recompile();
        }
        Some(moved)
    }

    /// Whether any snippet is installed.
    pub fn has_program(&self) -> bool {
        !self.snippets.is_empty()
    }

    /// Direct (control-plane) access to the object store, used to pre-populate
    /// tables such as the KVS cache.
    pub fn store_mut(&mut self) -> &mut ObjectStore {
        &mut self.store
    }

    /// Read-only access to the object store (assertions in tests).
    pub fn store(&self) -> &ObjectStore {
        &self.store
    }

    /// Process a packet through every installed snippet, on whichever
    /// execution tier is selected.
    pub fn process(&mut self, pkt: &mut Packet) -> ExecOutcome {
        match self.exec_mode {
            ExecMode::Compiled => self.process_compiled(pkt),
            ExecMode::Interpreted => self.process_interp(pkt),
        }
    }

    /// The compiled tier: run the packet through the register VM.
    fn process_compiled(&mut self, pkt: &mut Packet) -> ExecOutcome {
        let (action, mirrored, executed) = match &self.compiled {
            Some(image) => {
                let mut ctx = VmCtx {
                    store: &mut self.store,
                    regs: &mut self.regs,
                    rand_streams: &mut self.rand_streams,
                };
                let run = vm::exec(image, &mut ctx, pkt);
                (run.action, run.mirrored, run.executed)
            }
            None => (PacketAction::Forward, Vec::new(), 0),
        };
        let latency_ns =
            self.model.base_latency_ns + self.model.per_instr_latency_ns * executed as f64;
        ExecOutcome { action, mirrored, latency_ns, instructions_executed: executed }
    }

    /// The reference tier: walk the IR directly.
    fn process_interp(&mut self, pkt: &mut Packet) -> ExecOutcome {
        let mut action = PacketAction::Forward;
        let mut mirrored = Vec::new();
        let mut executed = 0usize;
        let mut env: BTreeMap<Name, Value> = BTreeMap::new();

        for snippet in &self.snippets {
            // the program-level guard (the tenant match isolation writes)
            // gates the whole snippet once per packet
            if let Some(pre) = &snippet.precondition {
                if !eval_guard(pre, &env, pkt) {
                    continue;
                }
            }
            let mut ctx =
                ExecCtx { store: &mut self.store, snippet, rand_streams: &mut self.rand_streams };
            for instr in &snippet.instructions {
                let guard_ok =
                    instr.guard.as_ref().map(|g| eval_guard(g, &env, pkt)).unwrap_or(true);
                if !guard_ok {
                    continue;
                }
                executed += 1;
                execute(&instr.op, &mut ctx, &mut env, pkt, &mut action, &mut mirrored);
            }
        }
        let latency_ns =
            self.model.base_latency_ns + self.model.per_instr_latency_ns * executed as f64;
        ExecOutcome { action, mirrored, latency_ns, instructions_executed: executed }
    }

    /// Process a batch of packets back to back, returning one outcome per
    /// packet (identical to calling [`DevicePlane::process`] on each in
    /// order) — a convenience for callers that hold a burst as a slice, such
    /// as the benchmark's engine-free replay.
    pub fn process_batch(&mut self, pkts: &mut [Packet]) -> Vec<ExecOutcome> {
        pkts.iter_mut().map(|p| self.process(p)).collect()
    }
}

fn eval_operand(op: &Operand, env: &BTreeMap<Name, Value>, pkt: &Packet) -> Value {
    match op {
        Operand::Const(v) => v.clone(),
        Operand::Var(name) => env.get(name).cloned().unwrap_or(Value::None),
        Operand::Header(field) => pkt.inc.get(field),
        Operand::Meta(field) => match field.as_str() {
            "inc_user" => Value::Int(pkt.inc.user()),
            "step" => Value::Int(pkt.inc.step),
            _ => Value::None,
        },
    }
}

fn eval_guard(guard: &Guard, env: &BTreeMap<Name, Value>, pkt: &Packet) -> bool {
    guard.all.iter().all(|p| {
        let lhs = eval_operand(&p.lhs, env, pkt);
        let rhs = eval_operand(&p.rhs, env, pkt);
        compare(&lhs, p.op, &rhs)
    })
}

fn execute(
    op: &OpCode,
    ctx: &mut ExecCtx<'_>,
    env: &mut BTreeMap<Name, Value>,
    pkt: &mut Packet,
    action: &mut PacketAction,
    mirrored: &mut Vec<Packet>,
) {
    match op {
        OpCode::Assign { dest, src } => {
            let v = eval_operand(src, env, pkt);
            env.insert(dest.clone(), v);
        }
        OpCode::Alu { dest, op, lhs, rhs, float } => {
            let a = eval_operand(lhs, env, pkt);
            let b = eval_operand(rhs, env, pkt);
            env.insert(dest.clone(), alu(*op, &a, &b, *float));
        }
        OpCode::Cmp { dest, op, lhs, rhs } => {
            let a = eval_operand(lhs, env, pkt);
            let b = eval_operand(rhs, env, pkt);
            env.insert(dest.clone(), Value::Bool(compare(&a, *op, &b)));
        }
        OpCode::Hash { dest, object, keys } => {
            let key_values: Vec<Value> = keys.iter().map(|k| eval_operand(k, env, pkt)).collect();
            env.insert(dest.clone(), Value::Int(ctx.store.hash(object, &key_values)));
        }
        OpCode::ReadState { dest, object, index } => {
            let v = read_state(ctx, object, index, env, pkt);
            env.insert(dest.clone(), v);
        }
        OpCode::WriteState { object, index, value } => {
            let values: Vec<Value> = value.iter().map(|v| eval_operand(v, env, pkt)).collect();
            write_state(ctx, object, index, values, env, pkt);
        }
        OpCode::CountState { dest, object, index, delta } => {
            let d = eval_operand(delta, env, pkt).as_int().unwrap_or(1);
            let result = count_state(ctx, object, index, d, env, pkt);
            if let Some(dest) = dest {
                env.insert(dest.clone(), Value::Int(result));
            }
        }
        OpCode::ClearState { object } => ctx.store.clear(object),
        OpCode::DeleteState { object, index } => {
            let keys: Vec<Value> = index.iter().map(|i| eval_operand(i, env, pkt)).collect();
            ctx.store.delete(object, &keys);
        }
        OpCode::Drop => *action = PacketAction::Drop,
        OpCode::Forward => {
            if *action != PacketAction::Back {
                *action = PacketAction::Forward;
            }
        }
        OpCode::Back { updates } => {
            for (field, value) in updates {
                let v = eval_operand(value, env, pkt);
                pkt.inc.set(field, v);
            }
            // a packet already on its way back keeps heading to the sender
            if *action != PacketAction::Back {
                pkt.bounce();
            }
            *action = PacketAction::Back;
        }
        OpCode::Mirror { updates } => {
            let mut copy = pkt.clone();
            for (field, value) in updates {
                let v = eval_operand(value, env, pkt);
                copy.inc.set(field, v);
            }
            mirrored.push(copy);
        }
        OpCode::Multicast { .. } => {
            // modelled as a mirror to the multicast engine
            mirrored.push(pkt.clone());
        }
        OpCode::CopyTo { .. } => {
            // report-to-CPU: modelled as a mirrored digest
            mirrored.push(pkt.clone());
        }
        OpCode::SetHeader { field, value } => {
            let v = eval_operand(value, env, pkt);
            pkt.inc.set(field, v);
        }
        OpCode::Crypto { dest, input, .. } => {
            let v = eval_operand(input, env, pkt).as_int().unwrap_or(0);
            env.insert(dest.clone(), Value::Int(v ^ 0x5a5a_5a5a));
        }
        OpCode::RandInt { dest, bound } => {
            let b = eval_operand(bound, env, pkt).as_int().unwrap_or(i64::MAX).max(1);
            // a splitmix64 stream seeded by the tenant id and advanced one
            // draw at a time: the sequence a tenant observes is independent
            // of co-resident traffic and of how planes are sharded
            let user = pkt.inc.user();
            let draw = ctx.rand_streams.entry(user).or_insert(0);
            *draw += 1;
            let mut z = (user as u64) ^ draw.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            env.insert(dest.clone(), Value::Int((z % b as u64) as i64));
        }
        OpCode::Checksum { dest, inputs } => {
            let sum: i64 =
                inputs.iter().map(|i| eval_operand(i, env, pkt).as_int().unwrap_or(0)).sum();
            env.insert(dest.clone(), Value::Int(sum & 0xffff));
        }
        OpCode::NoOp => {}
    }
}

fn read_state(
    ctx: &ExecCtx<'_>,
    object: &str,
    index: &[Operand],
    env: &BTreeMap<Name, Value>,
    pkt: &Packet,
) -> Value {
    let idx: Vec<Value> = index.iter().map(|i| eval_operand(i, env, pkt)).collect();
    match ctx.kind(object) {
        ObjectKind::Table { .. } => ctx.store.table_get(object, &idx),
        ObjectKind::Sketch { .. } => {
            Value::Int(ctx.store.sketch_estimate(object, idx.first().unwrap_or(&Value::None)))
        }
        ObjectKind::Hash { .. } => Value::Int(ctx.store.hash(object, &idx)),
        _ => {
            let (row, cell) = row_and_cell(&idx);
            Value::Int(ctx.store.array_read(object, row, cell))
        }
    }
}

fn write_state(
    ctx: &mut ExecCtx<'_>,
    object: &str,
    index: &[Operand],
    values: Vec<Value>,
    env: &BTreeMap<Name, Value>,
    pkt: &Packet,
) {
    let idx: Vec<Value> = index.iter().map(|i| eval_operand(i, env, pkt)).collect();
    match ctx.kind(object) {
        ObjectKind::Table { .. } => {
            ctx.store.table_write(object, &idx, values);
        }
        ObjectKind::Sketch { .. } => {
            let delta = values.first().and_then(Value::as_int).unwrap_or(1);
            ctx.store.sketch_count(object, idx.first().unwrap_or(&Value::None), delta);
        }
        _ => {
            let (row, cell) = row_and_cell(&idx);
            let v = values.first().and_then(Value::as_int).unwrap_or(0);
            ctx.store.array_write(object, row, cell, v);
        }
    }
}

fn count_state(
    ctx: &mut ExecCtx<'_>,
    object: &str,
    index: &[Operand],
    delta: i64,
    env: &BTreeMap<Name, Value>,
    pkt: &Packet,
) -> i64 {
    let idx: Vec<Value> = index.iter().map(|i| eval_operand(i, env, pkt)).collect();
    match ctx.kind(object) {
        ObjectKind::Sketch { .. } => {
            ctx.store.sketch_count(object, idx.first().unwrap_or(&Value::None), delta)
        }
        _ => {
            let (row, cell) = row_and_cell(&idx);
            ctx.store.array_add(object, row, cell, delta)
        }
    }
}

fn row_and_cell(idx: &[Value]) -> (u32, u32) {
    match idx.len() {
        0 => (0, 0),
        1 => (0, idx[0].as_int().unwrap_or(0).unsigned_abs() as u32),
        _ => (
            idx[0].as_int().unwrap_or(0).unsigned_abs() as u32,
            idx[1].as_int().unwrap_or(0).unsigned_abs() as u32,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{gradient_packet, kvs_request};
    use clickinc_frontend::compile_source;
    use clickinc_lang::templates::{
        count_min_sketch, dqacc_template, kvs_template, mlagg_template, DqAccParams, KvsParams,
        MlAggParams,
    };

    fn plane_with(name: &str, source: &str) -> DevicePlane {
        let ir = compile_source(name, source).unwrap();
        let mut plane = DevicePlane::new("SW0", DeviceModel::tofino());
        plane.install(ir);
        plane
    }

    #[test]
    fn mlagg_aggregates_gradients_in_network() {
        let dims = 4usize;
        let workers = 3usize;
        let t = mlagg_template(
            "mlagg",
            MlAggParams {
                dims: dims as u32,
                num_workers: workers as u32,
                num_aggregators: 64,
                ..Default::default()
            },
        );
        let mut plane = plane_with("mlagg", &t.source);
        let mut result: Option<Packet> = None;
        for w in 0..workers {
            let values: Vec<i64> = (0..dims).map(|d| (w as i64 + 1) * 10 + d as i64).collect();
            let mut pkt = gradient_packet("w", "ps", 0, 7, w, dims, &values);
            let outcome = plane.process(&mut pkt);
            if w + 1 < workers {
                assert_eq!(outcome.action, PacketAction::Drop, "worker {w} should be absorbed");
            } else {
                assert_eq!(outcome.action, PacketAction::Back, "last worker releases the result");
                result = Some(pkt);
            }
        }
        let result = result.expect("aggregation result produced");
        for d in 0..dims {
            let expected: i64 = (0..workers as i64).map(|w| (w + 1) * 10 + d as i64).sum();
            assert_eq!(
                result.inc.get(&format!("data_{d}")),
                Value::Int(expected),
                "dimension {d} aggregated incorrectly"
            );
        }
    }

    #[test]
    fn mlagg_ignores_duplicate_worker_contributions() {
        let t = mlagg_template(
            "mlagg",
            MlAggParams { dims: 2, num_workers: 2, num_aggregators: 16, ..Default::default() },
        );
        let mut plane = plane_with("mlagg", &t.source);
        let mut first = gradient_packet("w", "ps", 0, 3, 0, 2, &[5, 5]);
        plane.process(&mut first);
        // the same worker retransmits: bitmap check must not double-count
        let mut dup = gradient_packet("w", "ps", 0, 3, 0, 2, &[5, 5]);
        let outcome = plane.process(&mut dup);
        assert_eq!(outcome.action, PacketAction::Forward, "duplicate falls through to the PS");
        let mut second = gradient_packet("w", "ps", 0, 3, 1, 2, &[7, 7]);
        let done = plane.process(&mut second);
        assert_eq!(done.action, PacketAction::Back);
        assert_eq!(second.inc.get("data_0"), Value::Int(12));
    }

    #[test]
    fn kvs_cache_hit_bounces_and_miss_counts_in_the_sketch() {
        let t = kvs_template("kvs", KvsParams { cache_depth: 128, ..Default::default() });
        let mut plane = plane_with("kvs", &t.source);
        // control plane installs a hot key
        plane.store_mut().table_write("cache", &[Value::Int(42)], vec![Value::Int(4242)]);

        let mut hit = kvs_request("c", "s", 0, 42);
        let outcome = plane.process(&mut hit);
        assert_eq!(outcome.action, PacketAction::Back, "cache hit replies from the switch");
        assert_eq!(hit.inc.get("vals"), Value::Int(4242));
        assert_eq!(hit.inc.get("op"), Value::Int(2), "op rewritten to REPLY");
        assert_eq!((hit.src(), hit.dst()), ("s", "c"), "the reply heads back to the client");

        let mut miss = kvs_request("c", "s", 0, 7);
        let outcome = plane.process(&mut miss);
        assert_eq!(outcome.action, PacketAction::Forward, "miss goes to the server");
        assert_eq!((miss.src(), miss.dst()), ("c", "s"));
        assert!(plane.store().sketch_estimate("cms", &Value::Int(7)) >= 1);
    }

    #[test]
    fn dqacc_filters_duplicate_values() {
        let t = dqacc_template("dq", DqAccParams { depth: 64, ways: 4 });
        let mut plane = plane_with("dq", &t.source);
        let mk = |v: i64| {
            let mut fields = std::collections::BTreeMap::new();
            fields.insert("value".to_string(), Value::Int(v));
            Packet::new("c", "db", 0, fields)
        };
        let mut first = mk(9);
        assert_eq!(plane.process(&mut first).action, PacketAction::Forward);
        let mut dup = mk(9);
        assert_eq!(plane.process(&mut dup).action, PacketAction::Drop, "duplicate filtered");
        let mut other = mk(10);
        assert_eq!(plane.process(&mut other).action, PacketAction::Forward);
    }

    #[test]
    fn cms_module_counts_every_packet() {
        let t = count_min_sketch("cms", 3, 256);
        let mut plane = plane_with("cms", &t.source);
        for _ in 0..10 {
            let mut pkt = kvs_request("c", "s", 0, 5);
            plane.process(&mut pkt);
        }
        assert!(plane.store().sketch_estimate("mem", &Value::Int(5)) >= 10);
    }

    #[test]
    fn latency_scales_with_instructions_executed() {
        let t = count_min_sketch("cms", 3, 256);
        let mut plane = plane_with("cms", &t.source);
        let mut pkt = kvs_request("c", "s", 0, 1);
        let outcome = plane.process(&mut pkt);
        assert!(outcome.latency_ns > plane.model.base_latency_ns);
        let empty = DevicePlane::new("SW1", DeviceModel::tofino());
        assert!(!empty.has_program());
    }

    #[test]
    fn sparse_deletion_reduces_wire_size_downstream() {
        // a tiny program that removes two vector fields
        let src = "del(hdr.data[0])\ndel(hdr.data[1])\nforward()\n";
        let mut plane = plane_with("sparse", src);
        let mut pkt = gradient_packet("w", "ps", 0, 1, 0, 4, &[0, 0, 3, 4]);
        let before = pkt.wire_bytes();
        let outcome = plane.process(&mut pkt);
        assert_eq!(outcome.action, PacketAction::Forward);
        assert!(pkt.wire_bytes() < before, "deleted fields shrink the packet");
    }

    /// Run `keys` through a program counting and reading a CMS and a Bloom
    /// filter of `rows × cols`, on both tiers: the outcomes, the bounced
    /// headers and the store digests must agree.  Returns the replies
    /// (count, CMS estimate, Bloom membership) and the digest.
    fn zero_dimension_sketch_run(rows: u32, cols: u32, keys: &[i64]) -> (Vec<[Value; 3]>, u64) {
        let src = format!(
            "mem = Sketch(type=\"count-min\", rows={rows}, cols={cols}, w=32)\n\
             bf = Sketch(type=\"bloom-filter\", rows={rows}, cols={cols}, w=1)\n\
             c = count(mem, hdr.key, 1)\n\
             write(bf, hdr.key + 1, 1)\n\
             e = get(mem, hdr.key)\n\
             m = get(bf, hdr.key)\n\
             back(hdr={{op: c, vals: e, key: m}})\n"
        );
        let mut compiled = plane_with("zero", &src);
        let mut interp = compiled.clone();
        interp.set_exec_mode(ExecMode::Interpreted);
        let mut replies = Vec::new();
        for &key in keys {
            let (mut a, mut b) = (kvs_request("c", "s", 0, key), kvs_request("c", "s", 0, key));
            let outcome = compiled.process(&mut a);
            assert_eq!(outcome, interp.process(&mut b), "rows {rows} cols {cols} key {key}");
            assert_eq!(outcome.action, PacketAction::Back);
            assert_eq!(a, b);
            replies.push(["op", "vals", "key"].map(|f| a.inc.get(f)));
        }
        assert_eq!(compiled.store().fingerprint(), interp.store().fingerprint());
        (replies, compiled.store().fingerprint())
    }

    #[test]
    fn sketches_declared_with_zero_rows_or_columns_run_on_both_tiers() {
        let keys = [4, 9, 4, 17, 4];
        // no column: each row has one, as an array dimension declared 0 has,
        // so every key counts in it and every key is a Bloom member
        let (replies, _) = zero_dimension_sketch_run(3, 0, &keys);
        for (seen, reply) in (1..).zip(&replies) {
            assert_eq!(reply, &[Value::Int(seen), Value::Int(seen), Value::Int(1)]);
        }
        // no row: a count touches nothing and returns the empty minimum, an
        // estimate reads 0 (the digests are pinned from before sketches
        // shared the array layout), whatever the columns
        for cols in [0, 16] {
            let (replies, _) = zero_dimension_sketch_run(0, cols, &keys);
            for reply in &replies {
                assert_eq!(reply, &[Value::Int(i64::MAX), Value::Int(0), Value::Int(0)]);
            }
        }
        let (_, digest) = zero_dimension_sketch_run(0, 16, &keys);
        assert_eq!(digest, 0x763c_c10e_aa73_aa22);
        let (_, digest) = zero_dimension_sketch_run(2, 16, &keys);
        assert_eq!(digest, 0xf182_7c83_374b_e23a);
    }

    #[test]
    fn process_batch_matches_sequential_processing() {
        let t = kvs_template("kvs", KvsParams { cache_depth: 128, ..Default::default() });
        let mut seq = plane_with("kvs", &t.source);
        let mut batched = seq.clone();
        seq.store_mut().table_write("cache", &[Value::Int(1)], vec![Value::Int(11)]);
        batched.store_mut().table_write("cache", &[Value::Int(1)], vec![Value::Int(11)]);

        let keys = [1i64, 2, 1, 3, 1, 2];
        let mut pkts: Vec<Packet> = keys.iter().map(|k| kvs_request("c", "s", 0, *k)).collect();
        let expected: Vec<ExecOutcome> = keys
            .iter()
            .map(|k| {
                let mut p = kvs_request("c", "s", 0, *k);
                seq.process(&mut p)
            })
            .collect();
        let got = batched.process_batch(&mut pkts);
        assert_eq!(got, expected);
    }

    #[test]
    fn randint_streams_are_per_tenant_and_unaffected_by_co_residents() {
        use clickinc_ir::{CmpOp, Guard, Instruction, Operand, Predicate};
        let randint_prog = |name: &str, user: i64| {
            let guard = Guard {
                all: vec![Predicate::new(
                    Operand::Meta("inc_user".into()),
                    CmpOp::Eq,
                    Operand::int(user),
                )],
            };
            let mut p = IrProgram::new(name);
            p.instructions.push(Instruction::guarded(
                0,
                OpCode::RandInt {
                    dest: format!("{name}_r").into(),
                    bound: Operand::int(1_000_000),
                },
                guard.clone(),
            ));
            p.instructions.push(Instruction::guarded(
                1,
                OpCode::SetHeader { field: "r".into(), value: Operand::var(format!("{name}_r")) },
                guard,
            ));
            p
        };
        // tenant 1 alone on a plane vs co-resident with tenant 2
        let mut solo = DevicePlane::new("SW0", DeviceModel::tofino());
        solo.install(randint_prog("t1", 1));
        let mut shared = DevicePlane::new("SW0", DeviceModel::tofino());
        shared.install(randint_prog("t1", 1));
        shared.install(randint_prog("t2", 2));
        let draw = |plane: &mut DevicePlane, user: i64| {
            let mut pkt = kvs_request("c", "s", user, 1);
            plane.process(&mut pkt);
            pkt.inc.get("r")
        };
        for _ in 0..10 {
            let alone = draw(&mut solo, 1);
            let _ = draw(&mut shared, 2); // interleaved co-resident traffic
            let shared_draw = draw(&mut shared, 1);
            assert_eq!(alone, shared_draw, "tenant 1's stream must ignore tenant 2");
            assert!(matches!(alone, Value::Int(v) if (0..1_000_000).contains(&v)));
        }
    }

    #[test]
    fn uninstall_removes_only_the_owners_snippets_and_state() {
        let kvs = kvs_template("kvs", KvsParams { cache_depth: 64, ..Default::default() });
        let cms = count_min_sketch("mon", 3, 128);
        let mut plane = DevicePlane::new("SW0", DeviceModel::tofino());
        plane.install(compile_source("kvs", &kvs.source).unwrap());
        plane.install(compile_source("mon", &cms.source).unwrap());
        plane.store_mut().table_write("cache", &[Value::Int(4)], vec![Value::Int(44)]);
        let mut pkt = kvs_request("c", "s", 0, 9);
        plane.process(&mut pkt);
        assert!(plane.store().sketch_estimate("mem", &Value::Int(9)) >= 1, "cms counted");

        assert!(plane.uninstall("nobody").is_none());
        let moved = plane.uninstall("kvs").expect("kvs was installed");
        assert!(plane.uninstall("kvs").is_none(), "second removal is a no-op");
        assert!(!plane.store().contains("cache"), "kvs state left the plane");
        assert!(plane.store().contains("mem"), "other tenant's state survives");
        // the returned store carries the kvs objects with their contents
        assert_eq!(moved.table_get("cache", &[Value::Int(4)]), Value::Int(44));
        assert!(!moved.contains("mem"), "co-resident state is not moved out");
        // the surviving snippet still executes
        let mut pkt = kvs_request("c", "s", 0, 9);
        let outcome = plane.process(&mut pkt);
        assert_eq!(outcome.action, PacketAction::Forward);
        assert!(plane.store().sketch_estimate("mem", &Value::Int(9)) >= 2);
    }

    /// A snippet resolves against its own declarations, so one that reads
    /// an object it does not declare is refused at install.
    #[test]
    #[should_panic(expected = "snippet `reader` touches object `shared`")]
    fn installing_a_snippet_that_reads_an_undeclared_object_panics() {
        use clickinc_ir::Instruction;
        let mut reader = IrProgram::new("reader");
        reader.instructions.push(Instruction::new(
            0,
            OpCode::ReadState { dest: "v".into(), object: "shared".into(), index: vec![] },
        ));
        DevicePlane::new("SW0", DeviceModel::tofino()).install(reader);
    }

    /// The store keeps a name's first declaration, so a snippet that
    /// redeclares a resident's array as a table is refused at install rather
    /// than left to miss on every state op.
    #[test]
    #[should_panic(expected = "snippet `tables` declares object `x` as another kind")]
    fn installing_a_snippet_that_redeclares_an_object_as_another_kind_panics() {
        use clickinc_ir::{MatchKind, ObjectDecl};
        let mut plane = DevicePlane::new("SW0", DeviceModel::tofino());
        let mut arrays = IrProgram::new("arrays");
        arrays
            .objects
            .push(ObjectDecl::new("x", ObjectKind::Array { rows: 1, size: 4, width: 32 }));
        plane.install(arrays);
        let mut tables = IrProgram::new("tables");
        tables.objects.push(ObjectDecl::new(
            "x",
            ObjectKind::Table {
                match_kind: MatchKind::Exact,
                key_width: 32,
                value_width: 32,
                depth: 4,
                stateful: true,
            },
        ));
        plane.install(tables);
    }
}
