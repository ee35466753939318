//! Differential validation of the compiled execution tier.
//!
//! The register VM is the default data-plane execution path; the interpreter
//! stays on as the reference oracle.  This suite pins the equivalence the
//! rest of the system relies on:
//!
//! 1. **fig13 programs** — all four provider templates (KVS, MLAgg, CMS,
//!    DQAcc), isolated and optimized exactly as the controller deploys them,
//!    co-resident on one device, run over representative traces through both
//!    tiers: per-packet outcomes (executed-instruction counts included),
//!    rewritten packets and store fingerprints must be bit-identical.
//! 2. **Golden compiled images** — the optimizer+compiler output for each
//!    fig13 program, and for the MLAgg the benchmark serves as the controller
//!    places it, is pinned in `tests/golden/<name>.vm`; any codegen drift
//!    diffs here.  Regenerate with `UPDATE_GOLDEN=1 cargo test`.
//! 3. **Random programs** — proptest: generated verified counter/table
//!    programs over sampled packet traces agree across tiers.
//! 4. **Random branch trees** — proptest: generated nested `if`/`elif`/`else`
//!    programs whose branch bodies overwrite what enclosing guards read; the
//!    guard tree must close its blocks, and fold a complement sibling into an
//!    `else` only, where the interpreter's per-instruction test would agree.
//! 5. **Operand kinds** — proptest: every kind of value a read can meet
//!    (`Int`, `Bool`, `Float`, `Bytes`, `None`, a register nothing wrote, a
//!    header the packet lacks, metadata) fed into every site that reads one,
//!    each of which applies a default of its own — a cell's read–ALU–write,
//!    which the VM fuses into one op, among them.
//! 6. **Python's truth** — `and`/`or`/`not` over {0, 1, 2, -1}, as
//!    constants and as header values, give Python's truth on both tiers.
//! 7. **Install/uninstall churn** — proptest: random install and uninstall
//!    sequences of fig13 tenants (names reused, several tenants of one
//!    template, removals that force whole compiles).  The incrementally built
//!    image must run like the same residents compiled whole in install order
//!    and like the interpreter, dump like the whole compile while no
//!    uninstall has happened since the plane last compiled whole, and never
//!    hold more than twice the registers the whole compile needs.
//!
//! The optimizer verifies nothing itself, so the suite holds it to its
//! contract wherever it runs: on every template isolated as a tenant and on
//! the generated programs of 3–5, the optimized program adds no verifier
//! error the raw one lacks, and on 3–5 it also behaves like the raw one.

use clickinc::lang::templates::{
    count_min_sketch, dqacc_template, kvs_template, mlagg_sparse_user, mlagg_template, DqAccParams,
    KvsParams, MlAggParams,
};
use clickinc::synthesis::isolate_user_program;
use clickinc::topology::Topology;
use clickinc::{Controller, ServiceRequest};
use clickinc_device::DeviceModel;
use clickinc_emulator::packet::{gradient_packet, kvs_request, GradientShape, KvsShape};
use clickinc_emulator::{DevicePlane, ExecMode, Packet};
use clickinc_frontend::compile_source;
use clickinc_ir::{
    AluOp, CmpOp, DiagnosticSet, IrProgram, MatchKind, Operand, Optimizer, PassContext,
    PassManager, Predicate, ProgramBuilder, Severity, SketchKind, Value, ValueType,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};

/// Run the verifier pipeline over one program with no placement slices.
fn verify(tenant: &str, isolated: bool, program: &IrProgram) -> DiagnosticSet {
    PassManager::with_default_passes().run(&PassContext {
        tenant: tenant.to_string(),
        isolated,
        programs: std::slice::from_ref(program),
        placements: &[],
    })
}

/// Optimize `raw` and hold the result to the optimizer's contract: it adds
/// no error-severity verifier finding `raw` lacks.  The deploy path verifies
/// only the optimized program, so a transform that broke this would turn a
/// deployable program into a refused one.
fn optimize_checked(tenant: &str, isolated: bool, raw: &IrProgram) -> IrProgram {
    let mut changes = DiagnosticSet::new();
    let optimized = Optimizer::with_default_passes().optimize(tenant, isolated, raw, &mut changes);
    assert!(changes.iter().all(|d| d.severity == Severity::Info), "{changes}");
    let errors = |p: &IrProgram| -> BTreeSet<(String, String)> {
        let diags = verify(tenant, isolated, p);
        diags.at(Severity::Error).map(|d| (d.pass.clone(), d.message.clone())).collect()
    };
    let before = errors(raw);
    let after = errors(&optimized);
    let added: Vec<_> = after.difference(&before).collect();
    assert!(
        added.is_empty(),
        "the optimizer added {added:?} to\n{}\noptimized:\n{}",
        raw.dump(),
        optimized.dump()
    );
    optimized
}

/// Drive the same trace through `raw` and `optimized` on the interpreter:
/// every packet leaves with the same action, mirrored copies and fields, and
/// the stores end equal.  The executed-instruction count is what the
/// optimizer exists to lower, so it is not compared.
fn assert_optimization_preserves_behavior(
    raw: &IrProgram,
    optimized: &IrProgram,
    trace: &[Packet],
) {
    let plane = |program: &IrProgram| {
        let mut plane = DevicePlane::new("SW0", DeviceModel::tofino());
        plane.set_exec_mode(ExecMode::Interpreted);
        plane.install(program.clone());
        plane
    };
    let (mut before, mut after) = (plane(raw), plane(optimized));
    for (i, pkt) in trace.iter().enumerate() {
        let (mut a, mut b) = (pkt.clone(), pkt.clone());
        let (oa, ob) = (before.process(&mut a), after.process(&mut b));
        assert_eq!((oa.action, oa.mirrored, a), (ob.action, ob.mirrored, b), "packet {i}");
    }
    assert_eq!(before.store().fingerprint(), after.store().fingerprint(), "final stores diverge");
}

/// Compile, isolate and optimize a tenant program exactly as the controller
/// does at deploy time (`Controller::solve_prepared`).
fn prepare(user: &str, numeric_id: i64, source: &str) -> IrProgram {
    let ir = compile_source(user, source).expect("template compiles");
    optimize_checked(user, true, &isolate_user_program(&ir, user, numeric_id))
}

/// Fig. 13 provider template `kind` (0 KVS, 1 MLAgg, 2 CMS, 3 DQAcc) as
/// `user`'s program, prepared as the controller deploys it.
fn fig13_program(kind: usize, user: &str, numeric_id: i64) -> IrProgram {
    let mlagg = MlAggParams { num_aggregators: 64, num_workers: 4, dims: 8, is_float: false };
    let template = match kind {
        0 => kvs_template(user, KvsParams { cache_depth: 64, ..Default::default() }),
        1 => mlagg_template(user, mlagg),
        2 => count_min_sketch(user, 3, 128),
        _ => dqacc_template(user, DqAccParams { depth: 32, ways: 4 }),
    };
    prepare(user, numeric_id, &template.source)
}

/// The four fig13 provider templates with deploy-order numeric ids.
fn fig13_programs() -> Vec<(&'static str, i64, IrProgram)> {
    (1..)
        .zip(["kvs_srv", "mlagg", "cms", "dqacc"])
        .map(|(id, name)| (name, id, fig13_program(id as usize - 1, name, id)))
        .collect()
}

/// A plane per tier with the same programs installed.
fn plane_pair(programs: &[IrProgram]) -> (DevicePlane, DevicePlane) {
    let mut compiled = DevicePlane::new("SW0", DeviceModel::tofino());
    let mut interp = DevicePlane::new("SW0", DeviceModel::tofino());
    compiled.set_exec_mode(ExecMode::Compiled);
    interp.set_exec_mode(ExecMode::Interpreted);
    for p in programs {
        compiled.install(p.clone());
        interp.install(p.clone());
    }
    (compiled, interp)
}

/// Drive the same trace through both tiers, asserting bit-identical behavior
/// packet by packet and identical end state.
fn assert_tiers_agree(compiled: &mut DevicePlane, interp: &mut DevicePlane, trace: Vec<Packet>) {
    for (i, pkt) in trace.into_iter().enumerate() {
        let mut a = pkt.clone();
        let mut b = pkt;
        let oa = compiled.process(&mut a);
        let ob = interp.process(&mut b);
        assert_eq!(oa, ob, "outcome diverges at packet {i}");
        assert_eq!(a, b, "rewritten packet diverges at packet {i}");
    }
    assert_eq!(
        compiled.store().fingerprint(),
        interp.store().fingerprint(),
        "final stores diverge"
    );
}

/// The gradient trace: four workers per round, duplicate contributions, plus
/// ACKs that retire completed aggregation slots.
fn mlagg_trace(user: i64) -> Vec<Packet> {
    let mut trace = Vec::new();
    for seq in 0..4i64 {
        for worker in 0..4usize {
            let values: Vec<i64> = (0..8).map(|d| seq * 100 + worker as i64 * 10 + d).collect();
            trace.push(gradient_packet("w", "ps", user, seq, worker, 8, &values));
            if worker == 1 {
                // duplicate contribution: must be filtered by the bitmap
                trace.push(gradient_packet("w", "ps", user, seq, worker, 8, &values));
            }
        }
        // ACK retires the slot
        let mut fields = BTreeMap::new();
        fields.insert("op".to_string(), Value::Int(1));
        fields.insert("seq".to_string(), Value::Int(seq));
        trace.push(Packet::new("ps", "w", user, fields));
    }
    trace
}

#[test]
fn fig13_programs_agree_across_tiers_when_co_resident() {
    let programs = fig13_programs();
    let (mut compiled, mut interp) =
        plane_pair(&programs.iter().map(|(_, _, p)| p.clone()).collect::<Vec<_>>());
    // pre-populate the KVS cache so both hit and miss paths run
    for plane in [&mut compiled, &mut interp] {
        plane.store_mut().table_write("kvs_srv_cache", &[Value::Int(7)], vec![Value::Int(77)]);
    }
    let mut trace = Vec::new();
    // kvs tenant (id 1): hits, misses with repeats (drives the CMS over its
    // threshold), an UPDATE and an unknown opcode
    for key in [7i64, 3, 7, 5, 3, 3, 3, 9, 7, 3] {
        trace.push(kvs_request("c", "s", 1, key));
    }
    let mut fields = BTreeMap::new();
    fields.insert("op".to_string(), Value::Int(3));
    fields.insert("key".to_string(), Value::Int(5));
    fields.insert("vals".to_string(), Value::Int(55));
    trace.push(Packet::new("c", "s", 1, fields));
    let mut fields = BTreeMap::new();
    fields.insert("op".to_string(), Value::Int(9));
    trace.push(Packet::new("c", "s", 1, fields));
    // mlagg tenant (id 2)
    trace.extend(mlagg_trace(2));
    // cms tenant (id 3): skewed key stream
    for key in [1i64, 1, 2, 1, 3, 1, 2, 5, 8, 1, 1, 2] {
        let mut fields = BTreeMap::new();
        fields.insert("key".to_string(), Value::Int(key));
        trace.push(Packet::new("c", "s", 3, fields));
    }
    // dqacc tenant (id 4): duplicate-heavy value stream
    for value in [10i64, 11, 10, 12, 13, 11, 14, 10, 15, 16, 12, 17] {
        let mut fields = BTreeMap::new();
        fields.insert("value".to_string(), Value::Int(value));
        trace.push(Packet::new("c", "s", 4, fields));
    }
    // a packet from a tenant nobody installed: every precondition gates it off
    trace.push(kvs_request("c", "s", 99, 7));
    assert_tiers_agree(&mut compiled, &mut interp, trace);
}

/// Compare `dump` with `tests/golden/<name>.vm`, or rewrite the file under
/// `UPDATE_GOLDEN=1`.
fn assert_matches_golden(name: &str, dump: &str) {
    let golden_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let path = golden_dir.join(format!("{name}.vm"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(&golden_dir).expect("golden dir");
        std::fs::write(&path, dump).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden snapshot {} ({e}); run UPDATE_GOLDEN=1 cargo test", path.display())
    });
    assert_eq!(
        dump,
        want,
        "compiled image for {name} drifted from {} — review the codegen change and \
         regenerate with UPDATE_GOLDEN=1",
        path.display()
    );
}

#[test]
fn fig13_compiled_streams_match_their_golden_snapshots() {
    for (name, _, program) in fig13_programs() {
        let mut plane = DevicePlane::new("SW0", DeviceModel::tofino());
        plane.set_exec_mode(ExecMode::Compiled);
        plane.install(program);
        let dump = plane.compiled_image().expect("installed programs compile").dump();
        assert_matches_golden(name, &dump);
    }
}

/// Every template of the library, isolated as a tenant, optimizes within the
/// optimizer's contract (checked by `prepare`).
#[test]
fn every_template_optimizes_without_new_verifier_errors() {
    let int = MlAggParams { num_aggregators: 64, num_workers: 4, dims: 8, is_float: false };
    let float = MlAggParams { is_float: true, ..int };
    let templates = [
        kvs_template("kvs", KvsParams::default()),
        mlagg_template("mlagg", int),
        mlagg_template("mlagg_f", float),
        dqacc_template("dqacc", DqAccParams::default()),
        count_min_sketch("cms", 3, 128),
        mlagg_sparse_user("sparse", int, 2, 4),
    ];
    for (numeric_id, template) in (1..).zip(templates) {
        prepare(&template.name, numeric_id, &template.source);
    }
}

/// The image that is measured is the image that is pinned: the 32-dimension
/// MLAgg of the benchmark's `mlagg_serve` workload (`benchmark/src/workloads/
/// serve.rs`), placed by the controller on the benchmark's topology, one
/// compiled image per hop.
#[test]
fn the_served_mlagg_images_match_their_golden_snapshot() {
    let mut controller = Controller::new(Topology::emulation_topology_all_tofino());
    let params = MlAggParams { dims: 32, num_workers: 4, num_aggregators: 1024, is_float: false };
    let request = ServiceRequest::builder("mlagg_srv")
        .template(mlagg_template("mlagg_srv", params))
        .from_("pod0b")
        .from_("pod1b")
        .to("pod2a")
        .build()
        .expect("the benchmark's request is well-formed");
    controller.deploy(request).expect("the benchmark's MLAgg deploys");
    let mut dump = String::new();
    for hop in controller.tenant_hops("mlagg_srv") {
        let plane = hop.plane();
        dump.push_str(&format!("device {}:\n", hop.device));
        dump.push_str(&plane.compiled_image().expect("a hop carries a program").dump());
    }
    assert_matches_golden("mlagg32_served", &dump);
}

/// `and`, `or` and `not` give Python's truth on both tiers, whether their
/// operands are constants the frontend folds or header values the data
/// plane reads: every pair of {0, 1, 2, -1}, each operand a constant or the
/// header field it names.
#[test]
fn boolean_operators_give_pythons_truth_on_both_tiers() {
    let values = [0i64, 1, 2, -1];
    let mut cases: Vec<(String, bool, i64, i64)> = Vec::new();
    for a in values {
        for (lhs, rhs) in [("hdr.a", "hdr.b"), ("hdr.a", "B"), ("A", "hdr.b"), ("A", "B")] {
            for b in values {
                let (lhs, rhs) =
                    (lhs.replace('A', &a.to_string()), rhs.replace('B', &b.to_string()));
                cases.push((format!("{lhs} and {rhs}"), a != 0 && b != 0, a, b));
                cases.push((format!("{lhs} or {rhs}"), a != 0 || b != 0, a, b));
            }
        }
        for operand in ["hdr.a".to_string(), a.to_string()] {
            cases.push((format!("not {operand}"), a == 0, a, 0));
        }
    }
    for (expr, truth, a, b) in cases {
        let program = compile_source("t", &format!("hdr.out = {expr}\nforward()\n")).unwrap();
        let (mut compiled, mut interp) = plane_pair(&[program]);
        for plane in [&mut compiled, &mut interp] {
            let fields = BTreeMap::from([
                ("a".to_string(), Value::Int(a)),
                ("b".to_string(), Value::Int(b)),
                ("out".to_string(), Value::Int(7)),
            ]);
            let mut packet = Packet::new("c", "s", 0, fields);
            plane.process(&mut packet);
            let out = packet.inc.get("out");
            assert_eq!(out.as_int().map(|v| v != 0), Some(truth), "{expr} with a={a}, b={b}");
        }
    }
}

/// Decodes a vector of raw draws into a nested `if`/`elif`/`else` program in
/// its if-converted form (each instruction carries the conjunction of the
/// branches around it; siblings test one operand pair with a comparison and
/// its negation — `Eq`/`Ne` in either order, which the VM may fold into an
/// `else`, or `Lt`/`Ge`, which it may not: a register nothing wrote fails
/// both).
///
/// Guards read the header fields `h0..h3` and the registers `v0..v2`; branch
/// bodies overwrite the same fields and registers, so a body routinely
/// changes what its own, a sibling's or an *enclosing* guard reads.  Every
/// emitted statement also bumps a counter cell of its own, so the store
/// fingerprint records exactly which instructions ran.
struct BranchTreeGen<'a> {
    draws: &'a [u32],
    cursor: usize,
    /// Statements left to emit; an exhausted budget stops opening branches.
    budget: usize,
    next_cell: i64,
}

impl BranchTreeGen<'_> {
    const CELLS: u32 = 128;

    fn draw(&mut self, bound: u32) -> u32 {
        let v = self.draws[self.cursor % self.draws.len()];
        self.cursor += 1;
        v % bound
    }

    /// A header field or register a guard may read and a body may write;
    /// `v3` starts unset, so a guard on it compares `None` until a body
    /// assigns it.
    fn place(&mut self) -> Operand {
        match self.draw(8) {
            n @ 0..=3 => Operand::hdr(format!("h{n}")),
            n => Operand::var(format!("v{}", n - 4)),
        }
    }

    fn statement(&mut self, b: &mut ProgramBuilder) {
        self.budget = self.budget.saturating_sub(1);
        let cell = self.next_cell % i64::from(Self::CELLS);
        self.next_cell += 1;
        b.count(None, "ran", vec![Operand::int(cell)], Operand::int(1));
        let value = match self.draw(3) {
            0 => self.place(),
            _ => Operand::int(i64::from(self.draw(3))),
        };
        match self.place() {
            Operand::Header(field) => b.set_header(&field, value),
            Operand::Var(var) => b.assign(&var, value),
            _ => unreachable!("places are header fields and registers"),
        };
    }

    fn block(&mut self, b: &mut ProgramBuilder, depth: u32) {
        for _ in 0..1 + self.draw(3) {
            if depth < 3 && self.budget > 0 && self.draw(2) == 0 {
                self.branch(b, depth);
            } else {
                self.statement(b);
            }
        }
    }

    /// `if p {..} [elif q {..}] else {..}`, if-converted: `[p]`, `[!p, q]`,
    /// `[!p, !q]`.
    fn branch(&mut self, b: &mut ProgramBuilder, depth: u32) {
        let (operand, constant) = (self.place(), Operand::int(i64::from(self.draw(3))));
        let op = [CmpOp::Eq, CmpOp::Ne, CmpOp::Eq, CmpOp::Lt][self.draw(4) as usize];
        let test = |op| Predicate::new(operand.clone(), op, constant.clone());
        b.guarded(test(op), |b| self.block(b, depth + 1));
        b.guarded(test(op.negated()), |b| {
            if depth < 3 && self.budget > 0 && self.draw(2) == 0 {
                self.branch(b, depth + 1);
            } else {
                self.block(b, depth + 1);
            }
        });
    }
}

/// Decodes raw draws into a straight-line program that feeds every kind of
/// operand into every site of the VM that reads one.  Results land in the
/// registers `v0..v2` (read back by later operands and copied into `out*`
/// header fields at the end) and in the store, so the packet and the store
/// fingerprint together record what each site read.
struct OperandKindGen<'a> {
    draws: &'a [u32],
    cursor: usize,
}

impl OperandKindGen<'_> {
    /// Declared bounds of `arr`; `flat` declares 0 × 0, which counts as 1 × 1.
    const ROWS: u32 = 3;
    const SIZE: u32 = 5;

    fn draw(&mut self, bound: u32) -> u32 {
        let v = self.draws[self.cursor % self.draws.len()];
        self.cursor += 1;
        v % bound
    }

    /// Any operand: immediates of every `Value` kind (negative and
    /// past-the-bounds integers among them), a written and a never-written
    /// register, header fields of every kind, one the packet carries as
    /// `None` and one its layout lacks, and the three metadata reads.
    fn operand(&mut self) -> Operand {
        match self.draw(20) {
            0 => Operand::int(i64::from(self.draw(4))),
            1 => Operand::int(-i64::from(self.draw(7)) - 1),
            2 => Operand::int((1 << 33) + i64::from(self.draw(9))),
            3 => Operand::Const(Value::Bool(self.draw(2) == 1)),
            4 => Operand::Const(Value::Float(2.75)),
            5 => Operand::Const(Value::Float(-3.5)),
            6 => Operand::Const(Value::Bytes(vec![1, 2, 3])),
            7 => Operand::Const(Value::None),
            8 => Operand::var("ghost"),
            n @ 9..=11 => Operand::var(format!("v{}", n - 9)),
            12 => Operand::hdr("h_int"),
            13 => Operand::hdr("h_neg"),
            14 => Operand::hdr("h_bool"),
            15 => Operand::hdr("h_float"),
            16 => Operand::hdr("h_bytes"),
            17 => Operand::hdr("h_none"),
            18 => Operand::hdr("h_missing"),
            _ => Operand::Meta(["inc_user", "step", "bogus"][self.draw(3) as usize].into()),
        }
    }

    /// No, one or two index operands (a third is ignored by both tiers).
    fn index(&mut self) -> Vec<Operand> {
        (0..[2, 2, 1, 0, 3][self.draw(5) as usize]).map(|_| self.operand()).collect()
    }

    /// A read–ALU–write of one cell: fusable into one VM op when the write
    /// addresses the read's cell through an index that names neither the
    /// read's nor the sum's register — and left three ops otherwise, when the
    /// write's index is drawn anew, when the index names either register,
    /// or when a block that tests the sum closes on the ALU's write.
    fn cell_update(&mut self, b: &mut ProgramBuilder, read: &str, array: &str, op: AluOp) {
        let sum = format!("v{}", self.draw(3));
        let index = match self.draw(4) {
            0 => {
                let names = if self.draw(2) == 0 { read } else { &sum };
                vec![self.operand(), Operand::var(names)]
            }
            _ => self.index(),
        };
        let rhs = self.operand();
        let write_at = if self.draw(4) == 0 { self.index() } else { index.clone() };
        let triple = |b: &mut ProgramBuilder, float: bool| {
            b.get(read, array, index);
            if float {
                b.falu(&sum, op, Operand::var(read), rhs);
            } else {
                b.alu(&sum, op, Operand::var(read), rhs);
            }
            b.write(array, write_at, vec![Operand::var(&sum)]);
        };
        let float = self.draw(4) == 0;
        if self.draw(4) == 0 {
            let test = Predicate::new(Operand::var(&sum), CmpOp::Ne, self.operand());
            b.guarded(test, |b| triple(b, float));
        } else {
            triple(b, float);
        }
    }

    fn statement(&mut self, b: &mut ProgramBuilder, nth: i64) {
        const ALU: [AluOp; 11] = [
            AluOp::Add,
            AluOp::Sub,
            AluOp::Div,
            AluOp::Mod,
            AluOp::And,
            AluOp::Or,
            AluOp::Xor,
            AluOp::Shr,
            AluOp::Min,
            AluOp::Max,
            AluOp::Slice,
        ];
        const CMP: [CmpOp; 6] = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
        let dest = format!("v{}", self.draw(3));
        let array = ["arr", "arr", "flat", "sq"][self.draw(4) as usize];
        match self.draw(12) {
            0 => {
                let (op, lhs, rhs) = (ALU[self.draw(11) as usize], self.operand(), self.operand());
                match self.draw(4) {
                    0 => b.falu(&dest, op, lhs, rhs),
                    _ => b.alu(&dest, op, lhs, rhs),
                };
            }
            1 => {
                b.cmp(&dest, CMP[self.draw(6) as usize], self.operand(), self.operand());
            }
            2 => {
                // a block predicate: the counter cell records whether it held
                let test =
                    Predicate::new(self.operand(), CMP[self.draw(6) as usize], self.operand());
                b.guarded(test, |b| {
                    b.count(None, "held", vec![Operand::int(nth)], Operand::int(1));
                });
            }
            3 => {
                b.get(&dest, array, self.index());
            }
            4 => {
                let (index, value) = (self.index(), self.operand());
                b.write(array, index, vec![value]);
            }
            5 => {
                let (index, delta) = (self.index(), self.operand());
                b.count(Some(&dest), array, index, delta);
            }
            6 => {
                b.del(array, self.index());
            }
            7 => {
                // a sketch `write` adds its first value, defaulting to 1
                let (key, value) = (self.operand(), self.operand());
                b.write("cms", vec![key], vec![value]);
            }
            8 => {
                let (key, delta) = (self.operand(), self.operand());
                b.count(Some(&dest), "cms", vec![key], delta);
            }
            9 | 10 => {
                // mostly ops that move a zero cell, so a misaddressed
                // write shows in the store
                let op = [AluOp::Add, AluOp::Sub, AluOp::Xor, ALU[self.draw(11) as usize]]
                    [self.draw(4) as usize];
                self.cell_update(b, &dest, array, op);
            }
            _ => {
                b.get(&dest, "cms", vec![self.operand()]);
            }
        }
    }
}

/// Names the churn oracle deploys under.  A removed name comes back, with
/// any template, so two tenants of one template are often co-resident.
const CHURN_NAMES: usize = 5;

/// `pool[name][kind]`: fig13 template `kind` deployed as tenant `n<name>`
/// with numeric id `name + 1`.
fn churn_pool() -> &'static [Vec<Arc<IrProgram>>] {
    static POOL: OnceLock<Vec<Vec<Arc<IrProgram>>>> = OnceLock::new();
    POOL.get_or_init(|| {
        (0..CHURN_NAMES)
            .map(|name| {
                let (user, id) = (format!("n{name}"), name as i64 + 1);
                (0..4).map(|kind| Arc::new(fig13_program(kind, &user, id))).collect()
            })
            .collect()
    })
}

/// The KVS and gradient streams of every churn tenant id.  Their packets
/// share one stream record per shape for the whole run, so a plane keeps its
/// header binding across steps and must drop it when an install adds header
/// fields.
fn churn_shapes() -> Vec<(KvsShape, GradientShape)> {
    (1..=CHURN_NAMES as i64)
        .map(|user| (KvsShape::new("c", "s", user), GradientShape::new("w", "ps", user, 8)))
        .collect()
}

/// A packet of every fig13 kind for each churn tenant id, plus one from a
/// tenant nobody installed; `round` moves the keys and the MLAgg sequence on.
/// The trace starts and ends with a request of tenant 1's KVS stream, so the
/// record a plane binds last in one step is the first one it meets in the
/// next.
fn churn_trace(shapes: &[(KvsShape, GradientShape)], round: i64) -> Vec<Packet> {
    let mut trace = vec![shapes[0].0.request(round % 4)];
    for (user, (requests, gradients)) in (1..).zip(shapes) {
        trace.push(requests.request((user + round) % 4));
        for worker in 0..4usize {
            let values: Vec<i64> = (0..8).map(|d| round * 10 + d).collect();
            trace.push(gradients.packet(round % 8, worker, &values));
        }
        for (field, value) in [("key", round % 3), ("value", 10 + round % 5)] {
            let fields = BTreeMap::from([(field.to_string(), Value::Int(value))]);
            trace.push(Packet::new("c", "s", user, fields));
        }
    }
    trace.push(kvs_request("c", "s", 99, 7));
    trace.push(shapes[0].0.request(round % 3));
    trace
}

/// Run `trace` through `plane`, through a clone of it whose image is compiled
/// whole from the same residents in install order, and through a clone on the
/// interpreter: the three agree packet by packet and end with one store.
fn assert_runs_like_a_whole_compile(plane: &mut DevicePlane, trace: Vec<Packet>) {
    let mut whole = plane.clone();
    whole.recompile();
    let mut interp = plane.clone();
    interp.set_exec_mode(ExecMode::Interpreted);
    for (i, pkt) in trace.into_iter().enumerate() {
        let (mut a, mut b, mut c) = (pkt.clone(), pkt.clone(), pkt);
        let outcome = plane.process(&mut a);
        assert_eq!(outcome, whole.process(&mut b), "outcome against the whole compile, packet {i}");
        assert_eq!(outcome, interp.process(&mut c), "outcome against the interpreter, packet {i}");
        assert_eq!(a, b, "packet {i} against the whole compile");
        assert_eq!(a, c, "packet {i} against the interpreter");
    }
    let fingerprint = plane.store().fingerprint();
    assert_eq!(fingerprint, whole.store().fingerprint(), "store against the whole compile");
    assert_eq!(fingerprint, interp.store().fingerprint(), "store against the interpreter");
}

/// An uninstall compiles the image whole only once the registers dropped
/// programs left behind outnumber the live ones, or when the plane empties.
#[test]
fn an_uninstall_compiles_whole_only_when_dead_registers_outnumber_live_ones() {
    let (pool, shapes) = (churn_pool(), churn_shapes());
    let mut plane = DevicePlane::new("SW0", DeviceModel::tofino());
    // a KVS, an MLAgg (the largest template) and a CMS
    for (name, kind) in [(0, 0), (1, 1), (2, 2)] {
        plane.install(Arc::clone(&pool[name][kind]));
    }
    let regs = |plane: &DevicePlane| plane.compiled_image().map_or(0, |i| i.num_regs());
    let dead = |plane: &DevicePlane| plane.compiled_image().map_or(0, |i| i.dead_regs());
    let all = regs(&plane);

    // a whole compile leaves no dead registers
    plane.uninstall("n0").expect("the KVS is installed");
    assert!(dead(&plane) > 0, "the KVS leaves fewer dead registers than live ones");
    assert_eq!(regs(&plane), all, "its registers stay in the table");
    assert_runs_like_a_whole_compile(&mut plane, churn_trace(&shapes, 0));

    plane.uninstall("n1").expect("the MLAgg is installed");
    assert_eq!(dead(&plane), 0, "the MLAgg's registers outnumber the CMS's");
    let mut whole = plane.clone();
    whole.recompile();
    let dump = |plane: &DevicePlane| plane.compiled_image().map(|i| i.dump());
    assert_eq!(dump(&plane), dump(&whole), "the image is the CMS's, compiled whole");
    assert_runs_like_a_whole_compile(&mut plane, churn_trace(&shapes, 1));

    plane.uninstall("n2").expect("the CMS is installed");
    assert!(plane.compiled_image().is_none(), "the plane emptied");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Each step draws a name and a template kind (`name * 4 + kind`), and
    /// installs `pool[name][kind]`, or uninstalls `n<name>` if it
    /// is resident; after every step the plane runs a mixed trace like its
    /// residents compiled whole and like the interpreter (on the state every
    /// earlier step left), dumps like the whole compile while no uninstall
    /// has happened since the plane last compiled whole, and holds at most
    /// twice the registers the whole compile needs.
    #[test]
    fn install_uninstall_churn_runs_like_a_whole_compile(
        steps in proptest::collection::vec(0..CHURN_NAMES * 4, 1..40),
    ) {
        let (pool, shapes) = (churn_pool(), churn_shapes());
        let mut plane = DevicePlane::new("SW0", DeviceModel::tofino());
        let mut resident = [false; CHURN_NAMES];
        // no uninstall since the image was last compiled whole
        let mut whole_since = true;
        for (round, &draw) in steps.iter().enumerate() {
            let (name, kind) = (draw / 4, draw % 4);
            if resident[name] {
                plane.uninstall(&format!("n{name}")).expect("resident");
                // every fig13 program introduces registers of its own (the
                // isolation renames its variables), so an uninstall that
                // leaves none dead compiled the image whole
                whole_since = plane.compiled_image().is_none_or(|i| i.dead_regs() == 0);
            } else {
                plane.install(Arc::clone(&pool[name][kind]));
            }
            resident[name] = !resident[name];

            let mut whole = plane.clone();
            whole.recompile();
            let (image, reference) = (plane.compiled_image(), whole.compiled_image());
            let regs = image.map_or(0, |i| i.num_regs());
            let needed = reference.map_or(0, |i| i.num_regs());
            prop_assert!(regs <= 2 * needed, "step {round}: {regs} registers, {needed} live");
            if whole_since {
                prop_assert_eq!(image.map(|i| i.dump()), reference.map(|i| i.dump()));
            }
            assert_runs_like_a_whole_compile(&mut plane, churn_trace(&shapes, round as i64));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every operand kind through every reading site: `Alu`, `Cmp`, block
    /// predicates, array row/cell indices, `ArrayWrite` values, `ArrayCount`
    /// and sketch deltas, `ArrayDelete`, and the index and ALU operand of a
    /// cell's read–ALU–write, fused or not — each with its own default for a
    /// value that is not an integer, which both tiers must apply alike.
    #[test]
    fn every_operand_kind_reads_alike_at_every_site(
        draws in proptest::collection::vec(0u32..1 << 16, 32..160),
        raw_trace in proptest::collection::vec(0u32..1 << 12, 1..6),
    ) {
        let mut b = ProgramBuilder::new("t");
        b.array("arr", OperandKindGen::ROWS, OperandKindGen::SIZE, 32);
        b.array("flat", 0, 0, 32);
        b.seq("sq", 4, 32);
        b.array("held", 1, 64, 32);
        b.sketch("cms", SketchKind::CountMin, 2, 16, 32);
        let mut gen = OperandKindGen { draws: &draws, cursor: 0 };
        for nth in 0..8 + i64::from(gen.draw(24)) {
            gen.statement(&mut b, nth);
        }
        for v in 0..3 {
            b.set_header(&format!("out{v}"), Operand::var(format!("v{v}")));
        }
        b.set_header("out_ghost", Operand::var("ghost"));
        let program = b.build().expect("generated program is well-formed");
        let optimized = optimize_checked("t", false, &program);

        let trace: Vec<Packet> = raw_trace
            .iter()
            .map(|raw| {
                let fields = [
                    ("h_int", Value::Int(i64::from(raw % 7))),
                    ("h_neg", Value::Int(-i64::from(raw / 7 % 9) - 1)),
                    ("h_bool", Value::Bool(raw / 64 % 2 == 1)),
                    ("h_float", Value::Float(f64::from(raw / 128 % 8) - 2.5)),
                    ("h_bytes", Value::Bytes(vec![(raw % 251) as u8; 3])),
                    ("h_none", Value::None),
                ];
                let fields = fields.into_iter().map(|(name, v)| (name.to_string(), v)).collect();
                let mut packet = Packet::new("src", "dst", i64::from(raw % 3), fields);
                packet.inc.step = i64::from(raw / 3 % 5);
                packet
            })
            .collect();
        assert_optimization_preserves_behavior(&program, &optimized, &trace);
        for program in [program, optimized] {
            let (mut compiled, mut interp) = plane_pair(std::slice::from_ref(&program));
            assert_tiers_agree(&mut compiled, &mut interp, trace.clone());
        }
    }

    /// Any generated counter/table program the verifier passes behaves
    /// bit-identically on both execution tiers over sampled traces.
    #[test]
    fn random_verified_programs_agree_across_tiers(
        rows in 1u32..3,
        size in 2u32..10,
        raw_accesses in proptest::collection::vec(0u32..48, 1..5),
        raw_trace in proptest::collection::vec(0u32..16, 1..8),
        table_sel in 0u32..2,
    ) {
        // decode (row, cell) pairs from one integer, kept in bounds so the
        // verifier accepts the program
        let with_table = table_sel == 1;
        let accesses: Vec<(u32, u32)> =
            raw_accesses.iter().map(|v| ((v / 16) % rows, (v % 16) % size)).collect();
        let mut b = ProgramBuilder::new("t");
        b.header("key", ValueType::Bit(32));
        b.header("op", ValueType::Bit(8));
        b.array("ctr", rows, size, 32);
        if with_table {
            b.table("tab", MatchKind::Exact, 32, 32, 64, true);
        }
        for (row, cell) in &accesses {
            b.count(
                None,
                "ctr",
                vec![Operand::int(i64::from(*row)), Operand::int(i64::from(*cell))],
                Operand::int(1),
            );
        }
        if with_table {
            // guarded write + unconditional read-back into a header
            b.guarded(
                Predicate::new(Operand::hdr("op"), CmpOp::Eq, Operand::int(1)),
                |b| {
                    b.write("tab", vec![Operand::hdr("key")], vec![Operand::hdr("key")]);
                },
            );
            b.get("got", "tab", vec![Operand::hdr("key")]);
            b.set_header("cached", Operand::var("got"));
        }
        b.forward();
        let program = b.build().expect("generated program is well-formed");
        let diags = verify("t", false, &program);
        prop_assert!(!diags.has_errors(), "in-bounds program must verify clean:\n{}", diags);
        let optimized = optimize_checked("t", false, &program);

        let trace: Vec<Packet> = raw_trace
            .iter()
            .map(|raw| {
                let mut fields = BTreeMap::new();
                fields.insert("key".to_string(), Value::Int(i64::from(raw % 4)));
                fields.insert("op".to_string(), Value::Int(i64::from(raw / 8)));
                Packet::new("src", "dst", 1, fields)
            })
            .collect();
        assert_optimization_preserves_behavior(&program, &optimized, &trace);

        let (mut compiled, mut interp) = plane_pair(std::slice::from_ref(&optimized));
        for (i, pkt) in trace.into_iter().enumerate() {
            let mut a = pkt.clone();
            let mut b_pkt = pkt;
            let oa = compiled.process(&mut a);
            let ob = interp.process(&mut b_pkt);
            prop_assert_eq!(oa, ob, "outcome diverges at packet {}", i);
            prop_assert_eq!(&a, &b_pkt, "packet diverges at packet {}", i);
        }
        prop_assert_eq!(compiled.store().fingerprint(), interp.store().fingerprint());
    }

    /// Nested branches whose bodies overwrite what enclosing guards read run
    /// bit-identically on both tiers, raw and optimized: the guard tree
    /// closes a block — at any depth — where the interpreter would re-test.
    #[test]
    fn nested_branches_that_overwrite_their_guards_agree_across_tiers(
        draws in proptest::collection::vec(0u32..1 << 16, 24..96),
        raw_trace in proptest::collection::vec(0u32..81, 1..10),
    ) {
        let mut b = ProgramBuilder::new("t");
        for h in 0..4 {
            b.header(&format!("h{h}"), ValueType::Bit(8));
        }
        b.array("ran", 1, BranchTreeGen::CELLS, 32);
        // the registers start from packet fields, so a guard on one is live
        for v in 0..3 {
            b.assign(&format!("v{v}"), Operand::hdr(format!("h{}", v + 1)));
        }
        let mut gen = BranchTreeGen { draws: &draws, cursor: 0, budget: 48, next_cell: 0 };
        gen.block(&mut b, 0);
        gen.branch(&mut b, 0);
        b.forward();
        let program = b.build().expect("generated program is well-formed");
        let optimized = optimize_checked("t", false, &program);

        // four fields in 0..3, the range the guards compare against
        let trace: Vec<Packet> = raw_trace
            .iter()
            .map(|raw| {
                let fields = (0..4)
                    .map(|h| (format!("h{h}"), Value::Int(i64::from(raw / 3u32.pow(h) % 3))))
                    .collect();
                Packet::new("src", "dst", 1, fields)
            })
            .collect();
        assert_optimization_preserves_behavior(&program, &optimized, &trace);
        for program in [program, optimized] {
            let (mut compiled, mut interp) = plane_pair(std::slice::from_ref(&program));
            assert_tiers_agree(&mut compiled, &mut interp, trace.clone());
        }
    }
}
