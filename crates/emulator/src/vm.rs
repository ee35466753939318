//! The register VM: the compiled execution tier of the data plane.
//!
//! [`compile`] lowers a device plane's installed snippets into a
//! [`CompiledImage`] at install time: every variable becomes a dense register
//! index, every state object resolves to its [`ObjectStore`] slot, hash seeds
//! and moduli become immediates, and the per-object kind dispatch the
//! interpreter performs per packet (is this a table? a sketch?) is burned
//! into kind-specialized opcodes.  The per-packet loop is then a match over
//! fixed-width ops with no string lookups, no `HashMap` probes for
//! variables, and no per-instruction tenant guard — the isolation predicate
//! the optimizer hoists into [`IrProgram::precondition`] gates each snippet
//! once per packet.
//!
//! The image has the structure the source had.  If-conversion flattens a
//! nested `if`/`elif`/`else` into a straight-line stream in which every
//! instruction repeats the whole conjunction of the branches around it; the
//! lowering pass folds that stream back into a **guard tree**
//! ([`VmNode`]): an operation whose guard is fully discharged, or a
//! [`VmBlock`] keyed on the *next* predicate of the instructions under it.
//! Each predicate of the source is present once, a false predicate skips its
//! whole subtree in one test, and a block closes — at whatever depth — right
//! after an operation that writes something its predicate reads, so testing
//! at block entry observes exactly the values the interpreter's
//! per-instruction test would.  The `else` of the source comes back too: the
//! sibling run under the `Eq`/`Ne` complement of a block's predicate becomes
//! the block's `otherwise` body, one test for both branches.
//!
//! The VM is bit-identical to the interpreter by construction: one IR
//! instruction compiles to exactly one [`VmNode::Op`] (so executed-instruction
//! telemetry matches), every operation evaluates through the same
//! [`clickinc_ir::eval`] reference semantics and the same [`ObjectStore`]
//! cell arithmetic, and `RandInt` advances the same per-tenant splitmix
//! stream.  The differential proptests in `tests/compiled_vs_interp.rs` hold
//! the two paths to equal store fingerprints, outcomes and counters on every
//! fig13 program.
//!
//! Registers are *generation-stamped*: instead of clearing the register file
//! per packet, each write records the current packet generation, and a read
//! whose stamp is stale reads [`Value::None`] (an unset variable of the
//! interpreter's `env`) without any per-packet reset cost.
//!
//! Header fields are slots too.  A packet's header is a value vector laid out
//! by a [`HeaderLayout`] its whole packet family shares, and the register
//! file remembers, per layout, which slot each of the image's header ids
//! lands in — so a header operand is a `Vec` index into the packet itself,
//! the packet stays the single source of truth, and nothing is resolved per
//! packet while the traffic keeps one shape.
//!
//! Operands are read where they live.  `Alu`, `Cmp` and block predicates hand
//! [`clickinc_ir::eval`] two `&Value`s borrowed from the register file, the
//! packet's slot vector or the op's own immediate; indices, deltas and
//! array-write values go through the borrowed value's integer view, each site
//! with the interpreter's default for a value that has none.  Only an op that
//! *stores* a value — `Assign`, a table entry, a header write, the key buffer
//! — copies one.
//!
//! Integers take the integer path.  Nearly every operand a served packet
//! reads is a [`Value::Int`], so `Alu` (outside the float unit), `Cmp`, block
//! and precondition predicates and every integer view test for two `Int`s
//! inline and call [`eval::alu_int`] / [`CmpOp::eval_int`] directly — the
//! very functions [`eval::alu`] and [`eval::compare`] apply to two `Int`s —
//! and hand any other pair to `eval::alu` / `eval::compare`.  One definition
//! still serves both tiers; the VM only skips re-dispatching on the operand
//! kinds it has just matched.

use crate::packet::{HeaderLayout, Packet};
use crate::state::{hash_seed, hash_with_seed, ObjectStore};
use clickinc_ir::{
    eval, AluOp, CmpOp, Instruction, IrProgram, ObjectKind, OpCode, Operand, Predicate, Value,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Which execution tier a device plane runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// The register VM over install-time-compiled programs — what every
    /// deploy runs.
    #[default]
    Compiled,
    /// The reference interpreter walking the IR directly: the differential
    /// oracle, selectable per plane via `DevicePlane::set_exec_mode`.
    Interpreted,
}

/// Slot sentinel for objects that are referenced but not declared on this
/// plane: every slot-indexed [`ObjectStore`] accessor treats an out-of-range
/// slot as the missing object (reads 0 / `None`, writes are no-ops), exactly
/// like the interpreter's name lookups.
const NO_SLOT: usize = usize::MAX;

/// A compiled operand: constants and metadata are immediates, variables are
/// register indices, header fields are indices into the image's header-name
/// table (names stay the interface contract with the rest of the system).
#[derive(Debug, Clone, PartialEq)]
pub enum VmOperand {
    /// An immediate value.
    Const(Value),
    /// A register (a lowered variable).
    Reg(u32),
    /// A packet header field, as a dense index into the image's header-name
    /// table.  The register file maps it to the packet's slot once per
    /// header layout, so a read is an index into the packet's slot vector;
    /// a field the layout does not carry reads `None`.
    Header(u32),
    /// `meta.inc_user`.
    MetaUser,
    /// `meta.step`.
    MetaStep,
    /// An unknown metadata field (reads `None`, like the interpreter).
    MetaNone,
}

/// A compiled guard predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct VmPred {
    lhs: VmOperand,
    op: CmpOp,
    rhs: VmOperand,
}

/// Compiled row/cell addressing of an array or sequence access, mirroring the
/// interpreter's index-arity decode (0 operands → cell 0, 1 → cell, 2+ →
/// row and cell).
#[derive(Debug, Clone)]
pub enum VmIndex {
    /// No index operands.
    None,
    /// One operand: the cell.
    One(VmOperand),
    /// Two (or more) operands: row and cell.
    Two(VmOperand, VmOperand),
}

/// A compiled operation.  State ops are kind-specialized at compile time and
/// carry their resolved store slot.
#[derive(Debug, Clone)]
pub enum VmOp {
    /// `reg = src`.
    Assign { dest: u32, src: VmOperand },
    /// `reg = lhs op rhs`.
    Alu { dest: u32, op: AluOp, lhs: VmOperand, rhs: VmOperand, float: bool },
    /// `reg = lhs cmp rhs`.
    Cmp { dest: u32, op: CmpOp, lhs: VmOperand, rhs: VmOperand },
    /// Hash with a precomputed seed and modulus (hash objects are immutable,
    /// so both are compile-time constants).
    Hash { dest: u32, seed: u64, modulus: Option<u32>, keys: Vec<VmOperand> },
    /// Table lookup.
    TableGet { dest: u32, slot: usize, key: Vec<VmOperand> },
    /// Sketch estimate / Bloom membership.
    SketchEstimate { dest: u32, slot: usize, key: VmOperand },
    /// Array/sequence cell read.
    ArrayRead { dest: u32, slot: usize, index: VmIndex },
    /// Table insert/overwrite.
    TableWrite { slot: usize, key: Vec<VmOperand>, values: Vec<VmOperand> },
    /// Sketch update through a `write` (delta comes from the first value,
    /// defaulting to 1).
    SketchWrite { slot: usize, key: VmOperand, value: VmOperand },
    /// Array/sequence cell write.
    ArrayWrite { slot: usize, index: VmIndex, value: VmOperand },
    /// Sketch count (the result is the new minimum estimate).
    SketchCount { dest: Option<u32>, slot: usize, key: VmOperand, delta: VmOperand },
    /// Array/sequence counter add (the result is the post-increment value).
    ArrayCount { dest: Option<u32>, slot: usize, index: VmIndex, delta: VmOperand },
    /// Clear an object.
    Clear { slot: usize },
    /// Remove a table entry.
    TableDelete { slot: usize, key: Vec<VmOperand> },
    /// Reset an array/sequence cell (the delete decode truncates indices with
    /// an `as u32` cast, matching the interpreter's `delete`).
    ArrayDelete { slot: usize, index: VmIndex },
    /// Drop the packet.
    Drop,
    /// Forward (reasserts forward unless the packet already bounced).
    Forward,
    /// Rewrite headers and bounce the packet back.
    Back { updates: Vec<(u32, VmOperand)> },
    /// Mirror a copy with rewritten headers.
    Mirror { updates: Vec<(u32, VmOperand)> },
    /// Mirror a plain copy (multicast / copy-to-CPU are modelled as mirrors).
    MirrorPlain,
    /// Write a header field.
    SetHeader { field: u32, value: VmOperand },
    /// The toy crypto unit (`input ^ 0x5a5a5a5a`).
    Crypto { dest: u32, input: VmOperand },
    /// Draw from the tenant's deterministic random stream.
    RandInt { dest: u32, bound: VmOperand },
    /// Ones-style checksum (`sum & 0xffff`).
    Checksum { dest: u32, inputs: Vec<VmOperand> },
    /// No operation (still counts as executed, like the interpreter).
    NoOp,
}

/// One node of a guard tree.  Exactly one IR instruction compiles to one
/// `Op`, keeping the executed-instruction counters bit-identical across
/// tiers.
#[derive(Debug, Clone)]
pub enum VmNode {
    /// An operation whose guard the enclosing blocks have fully discharged.
    Op(VmOp),
    /// The instructions whose guards continue with one more shared predicate.
    Block(VmBlock),
}

/// A guard block: the run of consecutive instructions whose guards share the
/// enclosing blocks' predicates *and* this one, which is tested once per
/// packet at block entry — a failure skips the whole subtree, which is
/// telemetry-identical to the interpreter failing each instruction's full
/// conjunction individually.  The grouping is a pure compile-time transform
/// of the straight-line stream: a block ends right after a body operation
/// (at any depth below it) that writes a register or header field its
/// predicate reads, so block-entry evaluation observes exactly the values
/// per-instruction evaluation would.
///
/// A sibling run guarded by the exact complement (`Eq` against `Ne` over one
/// operand pair — the `else` of the source) rides along as `otherwise`, so an
/// `if`/`else` costs one test.  Only `Eq`/`Ne` fold: [`eval::compare`] makes
/// them complements for every pair of values, `None` included, which the
/// orderings are not.  And only when no operation of `body` writes an operand
/// of the predicate, so a packet that took `body` would still have failed the
/// complement where the interpreter tests it.
#[derive(Debug, Clone)]
pub struct VmBlock {
    guard: VmPred,
    body: Vec<VmNode>,
    otherwise: Vec<VmNode>,
}

/// One compiled snippet: the hoisted program precondition plus the guard
/// tree covering the instruction stream in order.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// Snippet name (the tenant program id).
    pub name: String,
    precondition: Vec<VmPred>,
    body: Vec<VmNode>,
    /// Operations in `body`, at every depth.
    ops: usize,
}

impl CompiledProgram {
    /// Number of compiled instructions.
    pub fn len(&self) -> usize {
        self.ops
    }

    /// Whether the snippet compiled to no instructions.
    pub fn is_empty(&self) -> bool {
        self.ops == 0
    }
}

/// The compiled form of every snippet installed on one device plane, sharing
/// a single register namespace (the interpreter shares one `env` across all
/// snippets of a packet, so variables of the same name must alias).
#[derive(Debug, Clone, Default)]
pub struct CompiledImage {
    programs: Vec<CompiledProgram>,
    /// Register index → variable name (what [`CompiledImage::dump`] prints).
    reg_names: Vec<String>,
    /// Header index → field name (resolved to a packet slot once per
    /// header layout).
    header_names: Vec<String>,
}

impl CompiledImage {
    /// Number of registers the image needs.
    pub fn num_regs(&self) -> usize {
        self.reg_names.len()
    }

    /// Number of distinct header fields the image touches.
    pub fn num_headers(&self) -> usize {
        self.header_names.len()
    }

    /// The compiled snippets, in installation order.
    pub fn programs(&self) -> &[CompiledProgram] {
        &self.programs
    }

    /// Render the whole compiled image in a stable textual form, nested
    /// blocks by indentation and each predicate once — the golden snapshots
    /// of the fig13 programs pin this down, so it must only change when the
    /// compiler's output actually changes.
    pub fn dump(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for prog in &self.programs {
            let _ = writeln!(out, "program {} ({} instr):", prog.name, prog.len());
            if !prog.precondition.is_empty() {
                let _ = writeln!(out, "  precondition: {}", self.preds(&prog.precondition));
            }
            self.dump_nodes(&prog.body, 1, &mut out);
        }
        out
    }

    fn dump_nodes(&self, nodes: &[VmNode], depth: usize, out: &mut String) {
        use std::fmt::Write;
        let indent = "  ".repeat(depth);
        for node in nodes {
            match node {
                VmNode::Op(op) => {
                    let _ = writeln!(out, "{indent}{}", self.op_str(op));
                }
                VmNode::Block(blk) => {
                    let _ = writeln!(out, "{indent}if {}:", self.pred(&blk.guard));
                    self.dump_nodes(&blk.body, depth + 1, out);
                    if !blk.otherwise.is_empty() {
                        let _ = writeln!(out, "{indent}else:");
                        self.dump_nodes(&blk.otherwise, depth + 1, out);
                    }
                }
            }
        }
    }

    fn opnd(&self, o: &VmOperand) -> String {
        match o {
            VmOperand::Const(v) => format!("{v}"),
            VmOperand::Reg(r) => format!("r{r}:{}", self.reg_names[*r as usize]),
            VmOperand::Header(h) => format!("hdr.{}", self.header_names[*h as usize]),
            VmOperand::MetaUser => "meta.inc_user".into(),
            VmOperand::MetaStep => "meta.step".into(),
            VmOperand::MetaNone => "meta.?".into(),
        }
    }

    fn pred(&self, p: &VmPred) -> String {
        format!("{} {:?} {}", self.opnd(&p.lhs), p.op, self.opnd(&p.rhs))
    }

    fn preds(&self, ps: &[VmPred]) -> String {
        ps.iter().map(|p| self.pred(p)).collect::<Vec<_>>().join(" && ")
    }

    fn list(&self, os: &[VmOperand]) -> String {
        os.iter().map(|o| self.opnd(o)).collect::<Vec<_>>().join(", ")
    }

    fn upd(&self, us: &[(u32, VmOperand)]) -> String {
        us.iter()
            .map(|(f, v)| format!("{}: {}", self.header_names[*f as usize], self.opnd(v)))
            .collect::<Vec<_>>()
            .join(", ")
    }

    fn idx(&self, i: &VmIndex) -> String {
        match i {
            VmIndex::None => "[]".into(),
            VmIndex::One(c) => format!("[{}]", self.opnd(c)),
            VmIndex::Two(r, c) => format!("[{}, {}]", self.opnd(r), self.opnd(c)),
        }
    }

    fn slot(&self, s: usize) -> String {
        if s == usize::MAX {
            "slot:?".into()
        } else {
            format!("slot:{s}")
        }
    }

    fn op_str(&self, op: &VmOp) -> String {
        match op {
            VmOp::Assign { dest, src } => {
                format!("r{dest} = {}", self.opnd(src))
            }
            VmOp::Alu { dest, op, lhs, rhs, float } => format!(
                "r{dest} = {} {op:?}{} {}",
                self.opnd(lhs),
                if *float { "f" } else { "" },
                self.opnd(rhs)
            ),
            VmOp::Cmp { dest, op, lhs, rhs } => {
                format!("r{dest} = {} {op:?} {}", self.opnd(lhs), self.opnd(rhs))
            }
            VmOp::Hash { dest, seed, modulus, keys } => format!(
                "r{dest} = hash(seed={seed:#x}, mod={}, {})",
                modulus.map_or("none".into(), |m| m.to_string()),
                self.list(keys)
            ),
            VmOp::TableGet { dest, slot, key } => {
                format!("r{dest} = table_get {} ({})", self.slot(*slot), self.list(key))
            }
            VmOp::SketchEstimate { dest, slot, key } => {
                format!("r{dest} = sketch_est {} ({})", self.slot(*slot), self.opnd(key))
            }
            VmOp::ArrayRead { dest, slot, index } => {
                format!("r{dest} = array_read {}{}", self.slot(*slot), self.idx(index))
            }
            VmOp::TableWrite { slot, key, values } => {
                format!(
                    "table_write {} ({}) = [{}]",
                    self.slot(*slot),
                    self.list(key),
                    self.list(values)
                )
            }
            VmOp::SketchWrite { slot, key, value } => {
                format!(
                    "sketch_write {} ({}) += {}",
                    self.slot(*slot),
                    self.opnd(key),
                    self.opnd(value)
                )
            }
            VmOp::ArrayWrite { slot, index, value } => {
                format!(
                    "array_write {}{} = {}",
                    self.slot(*slot),
                    self.idx(index),
                    self.opnd(value)
                )
            }
            VmOp::SketchCount { dest, slot, key, delta } => format!(
                "{}sketch_count {} ({}) += {}",
                dest.map_or(String::new(), |d| format!("r{d} = ")),
                self.slot(*slot),
                self.opnd(key),
                self.opnd(delta)
            ),
            VmOp::ArrayCount { dest, slot, index, delta } => format!(
                "{}array_count {}{} += {}",
                dest.map_or(String::new(), |d| format!("r{d} = ")),
                self.slot(*slot),
                self.idx(index),
                self.opnd(delta)
            ),
            VmOp::Clear { slot } => format!("clear {}", self.slot(*slot)),
            VmOp::TableDelete { slot, key } => {
                format!("table_delete {} ({})", self.slot(*slot), self.list(key))
            }
            VmOp::ArrayDelete { slot, index } => {
                format!("array_delete {}{}", self.slot(*slot), self.idx(index))
            }
            VmOp::Drop => "drop".into(),
            VmOp::Forward => "forward".into(),
            VmOp::Back { updates } => format!("back {{{}}}", self.upd(updates)),
            VmOp::Mirror { updates } => format!("mirror {{{}}}", self.upd(updates)),
            VmOp::MirrorPlain => "mirror".into(),
            VmOp::SetHeader { field, value } => {
                format!("hdr.{} = {}", self.header_names[*field as usize], self.opnd(value))
            }
            VmOp::Crypto { dest, input } => format!("r{dest} = crypto({})", self.opnd(input)),
            VmOp::RandInt { dest, bound } => format!("r{dest} = randint({})", self.opnd(bound)),
            VmOp::Checksum { dest, inputs } => {
                format!("r{dest} = checksum({})", self.list(inputs))
            }
            VmOp::NoOp => "noop".into(),
        }
    }
}

struct Lowerer<'a> {
    kinds: &'a BTreeMap<String, ObjectKind>,
    store: &'a ObjectStore,
    reg_names: Vec<String>,
    var_regs: BTreeMap<String, u32>,
    header_names: Vec<String>,
    header_ids: BTreeMap<String, u32>,
    /// The predicates of the blocks open around the instruction being
    /// lowered, outermost first; a closing block takes its own back.
    path: Vec<VmPred>,
}

impl<'a> Lowerer<'a> {
    fn hdr(&mut self, field: &str) -> u32 {
        if let Some(&h) = self.header_ids.get(field) {
            return h;
        }
        let h = self.header_names.len() as u32;
        self.header_names.push(field.to_string());
        self.header_ids.insert(field.to_string(), h);
        h
    }

    fn reg(&mut self, var: &str) -> u32 {
        if let Some(&r) = self.var_regs.get(var) {
            return r;
        }
        let r = self.reg_names.len() as u32;
        self.reg_names.push(var.to_string());
        self.var_regs.insert(var.to_string(), r);
        r
    }

    fn operand(&mut self, op: &Operand) -> VmOperand {
        match op {
            Operand::Const(v) => VmOperand::Const(v.clone()),
            Operand::Var(name) => VmOperand::Reg(self.reg(name)),
            Operand::Header(field) => VmOperand::Header(self.hdr(field)),
            Operand::Meta(field) => match field.as_str() {
                "inc_user" => VmOperand::MetaUser,
                "step" => VmOperand::MetaStep,
                _ => VmOperand::MetaNone,
            },
        }
    }

    fn operands(&mut self, ops: &[Operand]) -> Vec<VmOperand> {
        ops.iter().map(|o| self.operand(o)).collect()
    }

    fn index(&mut self, index: &[Operand]) -> VmIndex {
        match index.len() {
            0 => VmIndex::None,
            1 => VmIndex::One(self.operand(&index[0])),
            _ => VmIndex::Two(self.operand(&index[0]), self.operand(&index[1])),
        }
    }

    /// First element of an operand list, or a `None` immediate — the decode
    /// sketches and array writes apply to their key/value lists.
    fn first_or_none(&mut self, ops: &[Operand]) -> VmOperand {
        ops.first().map(|o| self.operand(o)).unwrap_or(VmOperand::Const(Value::None))
    }

    fn slot(&self, object: &str) -> usize {
        self.store.slot_of(object).unwrap_or(NO_SLOT)
    }

    fn op(&mut self, op: &OpCode) -> VmOp {
        match op {
            OpCode::Assign { dest, src } => {
                VmOp::Assign { dest: self.reg(dest), src: self.operand(src) }
            }
            OpCode::Alu { dest, op, lhs, rhs, float } => VmOp::Alu {
                dest: self.reg(dest),
                op: *op,
                lhs: self.operand(lhs),
                rhs: self.operand(rhs),
                float: *float,
            },
            OpCode::Cmp { dest, op, lhs, rhs } => VmOp::Cmp {
                dest: self.reg(dest),
                op: *op,
                lhs: self.operand(lhs),
                rhs: self.operand(rhs),
            },
            OpCode::Hash { dest, object, keys } => VmOp::Hash {
                dest: self.reg(dest),
                seed: hash_seed(object),
                modulus: self.store.hash_modulus(object),
                keys: self.operands(keys),
            },
            OpCode::ReadState { dest, object, index } => match self.kinds.get(object.as_str()) {
                Some(ObjectKind::Table { .. }) => VmOp::TableGet {
                    dest: self.reg(dest),
                    slot: self.slot(object),
                    key: self.operands(index),
                },
                Some(ObjectKind::Sketch { .. }) => VmOp::SketchEstimate {
                    dest: self.reg(dest),
                    slot: self.slot(object),
                    key: self.first_or_none(index),
                },
                Some(ObjectKind::Hash { .. }) => VmOp::Hash {
                    dest: self.reg(dest),
                    seed: hash_seed(object),
                    modulus: self.store.hash_modulus(object),
                    keys: self.operands(index),
                },
                _ => VmOp::ArrayRead {
                    dest: self.reg(dest),
                    slot: self.slot(object),
                    index: self.index(index),
                },
            },
            OpCode::WriteState { object, index, value } => match self.kinds.get(object.as_str()) {
                Some(ObjectKind::Table { .. }) => VmOp::TableWrite {
                    slot: self.slot(object),
                    key: self.operands(index),
                    values: self.operands(value),
                },
                Some(ObjectKind::Sketch { .. }) => VmOp::SketchWrite {
                    slot: self.slot(object),
                    key: self.first_or_none(index),
                    value: self.first_or_none(value),
                },
                _ => VmOp::ArrayWrite {
                    slot: self.slot(object),
                    index: self.index(index),
                    value: self.first_or_none(value),
                },
            },
            OpCode::CountState { dest, object, index, delta } => {
                let dest = dest.as_ref().map(|d| self.reg(d));
                match self.kinds.get(object.as_str()) {
                    Some(ObjectKind::Sketch { .. }) => VmOp::SketchCount {
                        dest,
                        slot: self.slot(object),
                        key: self.first_or_none(index),
                        delta: self.operand(delta),
                    },
                    _ => VmOp::ArrayCount {
                        dest,
                        slot: self.slot(object),
                        index: self.index(index),
                        delta: self.operand(delta),
                    },
                }
            }
            OpCode::ClearState { object } => VmOp::Clear { slot: self.slot(object) },
            OpCode::DeleteState { object, index } => match self.kinds.get(object.as_str()) {
                Some(ObjectKind::Table { .. }) => {
                    VmOp::TableDelete { slot: self.slot(object), key: self.operands(index) }
                }
                Some(ObjectKind::Array { .. }) | Some(ObjectKind::Seq { .. }) => {
                    VmOp::ArrayDelete { slot: self.slot(object), index: self.index(index) }
                }
                // hash/crypto/undeclared objects: the interpreter's delete is
                // a no-op, but the instruction still executes
                _ => VmOp::NoOp,
            },
            OpCode::Drop => VmOp::Drop,
            OpCode::Forward => VmOp::Forward,
            OpCode::Back { updates } => VmOp::Back { updates: self.updates(updates) },
            OpCode::Mirror { updates } => VmOp::Mirror { updates: self.updates(updates) },
            OpCode::Multicast { .. } | OpCode::CopyTo { .. } => VmOp::MirrorPlain,
            OpCode::SetHeader { field, value } => {
                VmOp::SetHeader { field: self.hdr(field), value: self.operand(value) }
            }
            OpCode::Crypto { dest, input, .. } => {
                VmOp::Crypto { dest: self.reg(dest), input: self.operand(input) }
            }
            OpCode::RandInt { dest, bound } => {
                VmOp::RandInt { dest: self.reg(dest), bound: self.operand(bound) }
            }
            OpCode::Checksum { dest, inputs } => {
                VmOp::Checksum { dest: self.reg(dest), inputs: self.operands(inputs) }
            }
            OpCode::NoOp => VmOp::NoOp,
        }
    }

    fn updates(&mut self, updates: &[(String, Operand)]) -> Vec<(u32, VmOperand)> {
        updates.iter().map(|(f, v)| (self.hdr(f), self.operand(v))).collect()
    }

    fn pred(&mut self, p: &Predicate) -> VmPred {
        VmPred { lhs: self.operand(&p.lhs), op: p.op, rhs: self.operand(&p.rhs) }
    }

    /// Lower the run of `instrs[*pos..]` whose guards start with `prefix` —
    /// the predicates of the blocks already open, which `self.path` holds
    /// lowered — into the nodes of the innermost open block, advancing `pos`
    /// past what was consumed.
    ///
    /// A lowered `if`-tree repeats the branch conjunction on every
    /// instruction of the branch; an instruction whose guard is exactly
    /// `prefix` becomes an op, one whose guard goes on opens a block keyed on
    /// its next predicate and the walk descends, comparing the following
    /// guards against that instruction's own in place.  Soundness: an
    /// instruction may ride in a block only while no *earlier* body
    /// instruction could have changed what the block's predicate reads — so
    /// after an op that writes an operand of an open block's predicate, that
    /// block and everything nested in it closes (the op itself is safe: its
    /// guard was checked before it ran, exactly as the interpreter does).
    /// The second value returned is how many of the open blocks stay open:
    /// `prefix.len()` when the run simply ended, fewer when an op forced
    /// enclosing blocks shut, and then every level above it returns too.
    /// A block whose body ran to its end takes the run that follows under
    /// the complement of its predicate ([`is_else_of`]) as its `otherwise`.
    fn nodes(
        &mut self,
        instrs: &[Instruction],
        pos: &mut usize,
        prefix: &[Predicate],
    ) -> (Vec<VmNode>, usize) {
        let depth = prefix.len();
        let mut body = Vec::new();
        while let Some(instr) = instrs.get(*pos) {
            let guard = instr.guard.as_ref().map_or(&[][..], |g| &g.all);
            if !guard.starts_with(prefix) {
                break;
            }
            let open = match guard.get(depth) {
                None => {
                    *pos += 1;
                    let op = self.op(&instr.op);
                    let open = self
                        .path
                        .iter()
                        .position(|p| writes_guard_operand(&op, p))
                        .unwrap_or(depth);
                    body.push(VmNode::Op(op));
                    open
                }
                Some(next) => {
                    let (guard, inner, mut open) = self.block(instrs, pos, &guard[..=depth]);
                    // a body that ran to its end wrote no operand of `next`
                    // (the block would have closed there), so the run under
                    // the exact complement is this block's `else`
                    let mut otherwise = Vec::new();
                    let sibling =
                        instrs.get(*pos).and_then(|i| i.guard.as_ref()).map(|g| &g.all[..]);
                    if let Some(sibling) = sibling.filter(|g| {
                        open > depth && g.starts_with(prefix) && is_else_of(next, g.get(depth))
                    }) {
                        (_, otherwise, open) = self.block(instrs, pos, &sibling[..=depth]);
                    }
                    body.push(VmNode::Block(VmBlock { guard, body: inner, otherwise }));
                    open
                }
            };
            if open < depth {
                return (body, open);
            }
        }
        (body, depth)
    }

    /// Lower the block keyed on the last predicate of `guard`: the predicate,
    /// the nodes under it and how many blocks stay open (see [`Self::nodes`]).
    fn block(
        &mut self,
        instrs: &[Instruction],
        pos: &mut usize,
        guard: &[Predicate],
    ) -> (VmPred, Vec<VmNode>, usize) {
        let lowered = self.pred(guard.last().expect("a block is keyed on a predicate"));
        self.path.push(lowered);
        let (body, open) = self.nodes(instrs, pos, guard);
        (self.path.pop().expect("pushed above"), body, open)
    }
}

/// Compile every installed snippet against the plane's object-kind index and
/// store slots.  Called at install time (and re-called on uninstall), never
/// per packet.
pub fn compile(
    snippets: &[Arc<IrProgram>],
    kinds: &BTreeMap<String, ObjectKind>,
    store: &ObjectStore,
) -> CompiledImage {
    let mut lw = Lowerer {
        kinds,
        store,
        reg_names: Vec::new(),
        var_regs: BTreeMap::new(),
        header_names: Vec::new(),
        header_ids: BTreeMap::new(),
        path: Vec::new(),
    };
    let mut programs = Vec::with_capacity(snippets.len());
    for snippet in snippets {
        let precondition = snippet
            .precondition
            .as_ref()
            .map(|g| g.all.iter().map(|p| lw.pred(p)).collect())
            .unwrap_or_default();
        let (body, _) = lw.nodes(&snippet.instructions, &mut 0, &[]);
        programs.push(CompiledProgram {
            name: snippet.name.clone(),
            precondition,
            body,
            ops: snippet.instructions.len(),
        });
    }
    CompiledImage { programs, reg_names: lw.reg_names, header_names: lw.header_names }
}

/// Whether `other` is the `else` of `pred`: the same operand pair under the
/// opposite one of `Eq`/`Ne`.
fn is_else_of(pred: &Predicate, other: Option<&Predicate>) -> bool {
    other.is_some_and(|other| {
        matches!(pred.op, CmpOp::Eq | CmpOp::Ne)
            && other.op == pred.op.negated()
            && other.lhs == pred.lhs
            && other.rhs == pred.rhs
    })
}

/// Whether executing `op` writes a register or header field `pred` reads.
/// (Mirror updates touch only the mirrored copy; store writes never feed
/// predicates, which read registers, headers and metadata only.)
fn writes_guard_operand(op: &VmOp, pred: &VmPred) -> bool {
    let mut reg_w: Option<u32> = None;
    let mut hdr_w: &[(u32, VmOperand)] = &[];
    let mut hdr_one: Option<u32> = None;
    match op {
        VmOp::Assign { dest, .. }
        | VmOp::Alu { dest, .. }
        | VmOp::Cmp { dest, .. }
        | VmOp::Hash { dest, .. }
        | VmOp::TableGet { dest, .. }
        | VmOp::SketchEstimate { dest, .. }
        | VmOp::ArrayRead { dest, .. }
        | VmOp::Crypto { dest, .. }
        | VmOp::RandInt { dest, .. }
        | VmOp::Checksum { dest, .. } => reg_w = Some(*dest),
        VmOp::SketchCount { dest, .. } | VmOp::ArrayCount { dest, .. } => reg_w = *dest,
        VmOp::SetHeader { field, .. } => hdr_one = Some(*field),
        VmOp::Back { updates } => hdr_w = updates,
        _ => {}
    }
    let touches = |o: &VmOperand| match o {
        VmOperand::Reg(r) => reg_w == Some(*r),
        VmOperand::Header(h) => hdr_one == Some(*h) || hdr_w.iter().any(|(f, _)| f == h),
        _ => false,
    };
    touches(&pred.lhs) || touches(&pred.rhs)
}

/// The plane-owned register file, generation-stamped so it never needs a
/// per-packet reset, plus the per-layout header slot cache: where in the
/// current packet's slot vector each header id of the image lives.
#[derive(Debug, Clone, Default)]
pub struct RegFile {
    regs: Vec<Value>,
    gen: Vec<u64>,
    cur: u64,
    /// The header layout of the packet being executed.  Holding the `Arc`
    /// keeps the layout alive, so pointer identity with the next packet's
    /// layout means "same layout" and never a reused address.
    layout: Option<Arc<HeaderLayout>>,
    /// Bumped whenever `layout` changes; stamps `hdr_slot`.
    layout_gen: u64,
    /// Image header id → slot in `layout` (`None`: the layout does not carry
    /// the field), valid where `hdr_gen` equals `layout_gen` and resolved by
    /// name on first use otherwise.
    hdr_slot: Vec<Option<usize>>,
    hdr_gen: Vec<u64>,
    /// Reusable buffer for the evaluated key operands of table and hash ops.
    keys: Vec<Value>,
}

impl RegFile {
    /// Size the file for an image (called after every recompile; stamps
    /// reset, so no stale value can leak across images).
    pub fn reset(&mut self, num_regs: usize, num_headers: usize) {
        self.regs.clear();
        self.regs.resize(num_regs, Value::None);
        self.gen.clear();
        self.gen.resize(num_regs, 0);
        self.hdr_slot.clear();
        self.hdr_slot.resize(num_headers, None);
        self.hdr_gen.clear();
        self.hdr_gen.resize(num_headers, 0);
        self.cur = 0;
        self.layout = None;
        self.layout_gen = 0;
    }

    fn begin_packet(&mut self, pkt: &Packet) {
        self.cur += 1;
        self.sync_layout(pkt);
    }

    /// Follow the packet's header layout: a layout other than the one the
    /// slot cache was resolved against invalidates the cache wholesale.
    fn sync_layout(&mut self, pkt: &Packet) {
        let layout = pkt.inc.layout();
        if !self.layout.as_ref().is_some_and(|seen| Arc::ptr_eq(seen, layout)) {
            self.layout = Some(Arc::clone(layout));
            self.layout_gen += 1;
        }
    }

    /// The packet slot of image header `h` under the current layout.
    #[inline]
    fn header_slot(&mut self, h: usize, image: &CompiledImage, pkt: &Packet) -> Option<usize> {
        if self.hdr_gen[h] != self.layout_gen {
            self.lookup_header_slot(h, &image.header_names[h], pkt);
        }
        self.hdr_slot[h]
    }

    /// First use of header `h` since the layout changed: resolve it by name.
    #[cold]
    fn lookup_header_slot(&mut self, h: usize, name: &str, pkt: &Packet) {
        self.hdr_slot[h] = pkt.inc.layout().slot_of(name);
        self.hdr_gen[h] = self.layout_gen;
    }

    fn set(&mut self, reg: u32, value: Value) {
        let r = reg as usize;
        self.regs[r] = value;
        self.gen[r] = self.cur;
    }

    /// Resolve the packet slot of a header operand under the current layout —
    /// the one part of a read that needs the file mutably, done first so
    /// that [`RegFile::value`] can borrow.
    #[inline]
    fn resolve(&mut self, op: &VmOperand, image: &CompiledImage, pkt: &Packet) {
        if let VmOperand::Header(field) = op {
            self.header_slot(*field as usize, image, pkt);
        }
    }

    /// Borrow a [resolved](RegFile::resolve) operand's value where it lives:
    /// the op's own immediate, the register file or the packet's slot vector.
    /// Metadata is not stored as a `Value` anywhere, so it goes through
    /// `meta`, a temporary of the caller's.  A register no instruction wrote
    /// for this packet, a header field the layout lacks and unknown metadata
    /// read [`Value::None`].
    // inlined at every site on purpose: out of line, every read in the image
    // shares one operand-kind dispatch, which the branch predictor cannot
    // learn (measured: 718 → 558 ns per MLAgg packet)
    #[inline(always)]
    fn value<'a>(&'a self, op: &'a VmOperand, pkt: &'a Packet, meta: &'a mut Value) -> &'a Value {
        match op {
            VmOperand::Const(v) => v,
            VmOperand::Reg(reg) => {
                let r = *reg as usize;
                if self.gen[r] == self.cur {
                    &self.regs[r]
                } else {
                    &Value::None
                }
            }
            VmOperand::Header(field) => match self.hdr_slot[*field as usize] {
                Some(slot) => pkt.inc.slot(slot),
                None => &Value::None,
            },
            VmOperand::MetaUser => {
                *meta = Value::Int(pkt.inc.user);
                meta
            }
            VmOperand::MetaStep => {
                *meta = Value::Int(pkt.inc.step);
                meta
            }
            VmOperand::MetaNone => &Value::None,
        }
    }
}

/// Everything `exec` needs alongside the image: the mutable store, the
/// register file and the per-tenant random-draw counters.
pub struct VmCtx<'a> {
    /// The plane's object store.
    pub store: &'a mut ObjectStore,
    /// The plane's register file.
    pub regs: &'a mut RegFile,
    /// Per-tenant `RandInt` draw counters (shared with the interpreter, so a
    /// mid-stream exec-mode switch continues the same sequence).
    pub rand_streams: &'a mut BTreeMap<i64, u64>,
}

/// Hand `f` both operands of a binary op, borrowed in place.
#[inline]
fn binary<R>(
    lhs: &VmOperand,
    rhs: &VmOperand,
    ctx: &mut VmCtx<'_>,
    image: &CompiledImage,
    pkt: &Packet,
    f: impl FnOnce(&Value, &Value) -> R,
) -> R {
    ctx.regs.resolve(lhs, image, pkt);
    ctx.regs.resolve(rhs, image, pkt);
    let (mut a, mut b) = (Value::None, Value::None);
    f(ctx.regs.value(lhs, pkt, &mut a), ctx.regs.value(rhs, pkt, &mut b))
}

/// Hand `f` the store and a sketch's key operand, borrowed in place.
fn with_key<R>(
    key: &VmOperand,
    ctx: &mut VmCtx<'_>,
    image: &CompiledImage,
    pkt: &Packet,
    f: impl FnOnce(&mut ObjectStore, &Value) -> R,
) -> R {
    ctx.regs.resolve(key, image, pkt);
    f(ctx.store, ctx.regs.value(key, pkt, &mut Value::None))
}

/// The integer view of an operand read in place ([`Value::as_int`]); every
/// call site applies its own default, as the interpreter's does.
#[inline(always)] // as `RegFile::value`: most reads come through here
fn int(op: &VmOperand, ctx: &mut VmCtx<'_>, image: &CompiledImage, pkt: &Packet) -> Option<i64> {
    ctx.regs.resolve(op, image, pkt);
    match ctx.regs.value(op, pkt, &mut Value::None) {
        Value::Int(x) => Some(*x),
        other => other.as_int(),
    }
}

/// A copy of an operand's value, for the ops that store one.
fn cloned(op: &VmOperand, ctx: &mut VmCtx<'_>, image: &CompiledImage, pkt: &Packet) -> Value {
    ctx.regs.resolve(op, image, pkt);
    ctx.regs.value(op, pkt, &mut Value::None).clone()
}

/// Evaluate `ops` into the register file's reusable key buffer and hand the
/// values to `f` — no `Vec` per table or hash op.
fn with_keys<R>(
    ops: &[VmOperand],
    ctx: &mut VmCtx<'_>,
    image: &CompiledImage,
    pkt: &Packet,
    f: impl FnOnce(&mut VmCtx<'_>, &[Value]) -> R,
) -> R {
    let mut keys = std::mem::take(&mut ctx.regs.keys);
    keys.extend(ops.iter().map(|k| cloned(k, ctx, image, pkt)));
    let result = f(ctx, &keys);
    keys.clear();
    ctx.regs.keys = keys;
    result
}

/// [`eval::compare`], with the two-`Int` case (the common one: header fields,
/// hashes and array cells are integers) tested inline and handed straight to [`CmpOp::eval_int`].
#[inline(always)]
fn compare(a: &Value, op: CmpOp, b: &Value) -> bool {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => op.eval_int(*x, *y),
        _ => eval::compare(a, op, b),
    }
}

/// [`eval::alu`], with the integer unit on two `Int`s tested inline and
/// handed straight to [`eval::alu_int`].
#[inline(always)]
fn alu(op: AluOp, a: &Value, b: &Value, float: bool) -> Value {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) if !float => Value::Int(eval::alu_int(op, *x, *y)),
        _ => eval::alu(op, a, b, float),
    }
}

fn pred_holds(p: &VmPred, ctx: &mut VmCtx<'_>, image: &CompiledImage, pkt: &Packet) -> bool {
    binary(&p.lhs, &p.rhs, ctx, image, pkt, |lhs, rhs| compare(lhs, p.op, rhs))
}

/// Row and cell of an array access from up to two index operands, each
/// decoded from its integer view by `decode`.
fn index_with(
    index: &VmIndex,
    ctx: &mut VmCtx<'_>,
    image: &CompiledImage,
    pkt: &Packet,
    decode: impl Fn(i64) -> u32,
) -> (u32, u32) {
    let mut at = |op: &VmOperand| decode(int(op, ctx, image, pkt).unwrap_or(0));
    match index {
        VmIndex::None => (0, 0),
        VmIndex::One(c) => (0, at(c)),
        VmIndex::Two(r, c) => {
            let row = at(r);
            (row, at(c))
        }
    }
}

/// The interpreter's index-arity decode: row/cell from up to two operands,
/// folding negatives through `unsigned_abs`.
fn row_cell(
    index: &VmIndex,
    ctx: &mut VmCtx<'_>,
    image: &CompiledImage,
    pkt: &Packet,
) -> (u32, u32) {
    index_with(index, ctx, image, pkt, |i| i.unsigned_abs() as u32)
}

/// The interpreter's *delete* decode, which truncates with an `as u32` cast
/// instead of `unsigned_abs`.
fn delete_cell(
    index: &VmIndex,
    ctx: &mut VmCtx<'_>,
    image: &CompiledImage,
    pkt: &Packet,
) -> (u32, u32) {
    index_with(index, ctx, image, pkt, |i| i as u32)
}

/// Outcome accumulator threaded through one packet's execution.
pub struct VmRun {
    /// Resulting action (`Forward` unless a packet action changed it).
    pub action: crate::interp::PacketAction,
    /// Mirrored copies.
    pub mirrored: Vec<Packet>,
    /// Guard-passing instructions executed.
    pub executed: usize,
}

/// Run one packet through every compiled snippet of an image.
pub fn exec(image: &CompiledImage, ctx: &mut VmCtx<'_>, pkt: &mut Packet) -> VmRun {
    use crate::interp::PacketAction;
    ctx.regs.begin_packet(pkt);
    let mut run = VmRun { action: PacketAction::Forward, mirrored: Vec::new(), executed: 0 };
    for prog in &image.programs {
        if !prog.precondition.iter().all(|p| pred_holds(p, ctx, image, pkt)) {
            continue;
        }
        run_nodes(&prog.body, ctx, image, pkt, &mut run);
    }
    run
}

/// Walk one level of a guard tree: a false block predicate skips the whole
/// subtree (it fails every instruction's full guard below it) and takes the
/// block's `else`, which is empty unless a complement sibling folded in.
fn run_nodes(
    nodes: &[VmNode],
    ctx: &mut VmCtx<'_>,
    image: &CompiledImage,
    pkt: &mut Packet,
    run: &mut VmRun,
) {
    for node in nodes {
        match node {
            VmNode::Op(op) => {
                run.executed += 1;
                step(op, ctx, image, pkt, run);
            }
            VmNode::Block(blk) => {
                let taken = if pred_holds(&blk.guard, ctx, image, pkt) {
                    &blk.body
                } else {
                    &blk.otherwise
                };
                run_nodes(taken, ctx, image, pkt, run);
            }
        }
    }
}

fn step(op: &VmOp, ctx: &mut VmCtx<'_>, image: &CompiledImage, pkt: &mut Packet, run: &mut VmRun) {
    use crate::interp::PacketAction;
    match op {
        VmOp::Assign { dest, src } => {
            let v = cloned(src, ctx, image, pkt);
            ctx.regs.set(*dest, v);
        }
        VmOp::Alu { dest, op, lhs, rhs, float } => {
            let v = binary(lhs, rhs, ctx, image, pkt, |a, b| alu(*op, a, b, *float));
            ctx.regs.set(*dest, v);
        }
        VmOp::Cmp { dest, op, lhs, rhs } => {
            let holds = binary(lhs, rhs, ctx, image, pkt, |a, b| compare(a, *op, b));
            ctx.regs.set(*dest, Value::Bool(holds));
        }
        VmOp::Hash { dest, seed, modulus, keys } => {
            let h = with_keys(keys, ctx, image, pkt, |_, k| hash_with_seed(*seed, *modulus, k));
            ctx.regs.set(*dest, Value::Int(h));
        }
        VmOp::TableGet { dest, slot, key } => {
            let v = with_keys(key, ctx, image, pkt, |ctx, k| ctx.store.table_get_slot(*slot, k));
            ctx.regs.set(*dest, v);
        }
        VmOp::SketchEstimate { dest, slot, key } => {
            let est =
                with_key(key, ctx, image, pkt, |store, k| store.sketch_estimate_slot(*slot, k));
            ctx.regs.set(*dest, Value::Int(est));
        }
        VmOp::ArrayRead { dest, slot, index } => {
            let (row, cell) = row_cell(index, ctx, image, pkt);
            let v = Value::Int(ctx.store.array_read_slot(*slot, row, cell));
            ctx.regs.set(*dest, v);
        }
        VmOp::TableWrite { slot, key, values } => {
            // the entry's values are stored, so they are a `Vec` of their own
            let vals: Vec<Value> = values.iter().map(|v| cloned(v, ctx, image, pkt)).collect();
            with_keys(key, ctx, image, pkt, |ctx, k| ctx.store.table_write_slot(*slot, k, vals));
        }
        VmOp::SketchWrite { slot, key, value } => {
            let delta = int(value, ctx, image, pkt).unwrap_or(1);
            with_key(key, ctx, image, pkt, |store, k| store.sketch_count_slot(*slot, k, delta));
        }
        VmOp::ArrayWrite { slot, index, value } => {
            let (row, cell) = row_cell(index, ctx, image, pkt);
            let v = int(value, ctx, image, pkt).unwrap_or(0);
            ctx.store.array_write_slot(*slot, row, cell, v);
        }
        VmOp::SketchCount { dest, slot, key, delta } => {
            let d = int(delta, ctx, image, pkt).unwrap_or(1);
            let result =
                with_key(key, ctx, image, pkt, |store, k| store.sketch_count_slot(*slot, k, d));
            if let Some(dest) = dest {
                ctx.regs.set(*dest, Value::Int(result));
            }
        }
        VmOp::ArrayCount { dest, slot, index, delta } => {
            let (row, cell) = row_cell(index, ctx, image, pkt);
            let d = int(delta, ctx, image, pkt).unwrap_or(1);
            let result = ctx.store.array_add_slot(*slot, row, cell, d);
            if let Some(dest) = dest {
                ctx.regs.set(*dest, Value::Int(result));
            }
        }
        VmOp::Clear { slot } => ctx.store.clear_slot(*slot),
        VmOp::TableDelete { slot, key } => {
            with_keys(key, ctx, image, pkt, |ctx, k| ctx.store.table_remove_slot(*slot, k));
        }
        VmOp::ArrayDelete { slot, index } => {
            let (row, cell) = delete_cell(index, ctx, image, pkt);
            ctx.store.array_write_slot(*slot, row, cell, 0);
        }
        VmOp::Drop => run.action = PacketAction::Drop,
        VmOp::Forward => {
            if run.action != PacketAction::Back {
                run.action = PacketAction::Forward;
            }
        }
        VmOp::Back { updates } => {
            for (field, value) in updates {
                let v = cloned(value, ctx, image, pkt);
                set_header(*field, v, ctx, image, pkt);
            }
            // a packet already on its way back keeps heading to the sender
            if run.action != PacketAction::Back {
                pkt.bounce();
            }
            run.action = PacketAction::Back;
        }
        VmOp::Mirror { updates } => {
            // updates apply to the copy only, by name — the live packet (and
            // with it the slot cache's layout) is untouched
            let mut copy = pkt.clone();
            for (field, value) in updates {
                let v = cloned(value, ctx, image, pkt);
                copy.inc.set(&image.header_names[*field as usize], v);
            }
            run.mirrored.push(copy);
        }
        VmOp::MirrorPlain => run.mirrored.push(pkt.clone()),
        VmOp::SetHeader { field, value } => {
            let v = cloned(value, ctx, image, pkt);
            set_header(*field, v, ctx, image, pkt);
        }
        VmOp::Crypto { dest, input } => {
            let v = int(input, ctx, image, pkt).unwrap_or(0);
            ctx.regs.set(*dest, Value::Int(v ^ 0x5a5a_5a5a));
        }
        VmOp::RandInt { dest, bound } => {
            let b = int(bound, ctx, image, pkt).unwrap_or(i64::MAX).max(1);
            // the same splitmix64 per-tenant stream the interpreter draws from
            let draw = ctx.rand_streams.entry(pkt.inc.user).or_insert(0);
            *draw += 1;
            let mut z = (pkt.inc.user as u64) ^ draw.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            ctx.regs.set(*dest, Value::Int((z % b as u64) as i64));
        }
        VmOp::Checksum { dest, inputs } => {
            let sum: i64 = inputs.iter().map(|i| int(i, ctx, image, pkt).unwrap_or(0)).sum();
            ctx.regs.set(*dest, Value::Int(sum & 0xffff));
        }
        VmOp::NoOp => {}
    }
}

/// Write a header field straight into the packet's slot.
fn set_header(
    field: u32,
    value: Value,
    ctx: &mut VmCtx<'_>,
    image: &CompiledImage,
    pkt: &mut Packet,
) {
    let h = field as usize;
    match ctx.regs.header_slot(h, image, pkt) {
        Some(slot) => pkt.inc.set_slot(slot, value),
        None => {
            // the packet does not carry the field: a live value grows a
            // layout private to this packet, which the slot cache follows
            pkt.inc.set(&image.header_names[h], value);
            ctx.regs.sync_layout(pkt);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{DevicePlane, PacketAction};
    use crate::packet::kvs_request;
    use clickinc_device::DeviceModel;
    use clickinc_frontend::compile_source;
    use clickinc_ir::{Guard, ProgramBuilder};
    use clickinc_lang::templates::{kvs_template, KvsParams};

    #[test]
    fn both_tiers_agree_on_kvs_traffic() {
        let t = kvs_template("kvs", KvsParams { cache_depth: 64, ..Default::default() });
        let ir = compile_source("kvs", &t.source).unwrap();
        let mut compiled = DevicePlane::new("SW0", DeviceModel::tofino());
        compiled.install(ir.clone());
        compiled.set_exec_mode(ExecMode::Compiled);
        let mut interp = DevicePlane::new("SW0", DeviceModel::tofino());
        interp.install(ir);
        interp.set_exec_mode(ExecMode::Interpreted);
        for plane in [&mut compiled, &mut interp] {
            plane.store_mut().table_write("cache", &[Value::Int(3)], vec![Value::Int(33)]);
        }
        for key in [3i64, 9, 3, 17, 9, 9] {
            let mut a = kvs_request("c", "s", 0, key);
            let mut b = kvs_request("c", "s", 0, key);
            let oa = compiled.process(&mut a);
            let ob = interp.process(&mut b);
            assert_eq!(oa, ob, "outcomes diverge on key {key}");
            assert_eq!(a, b, "packets diverge on key {key}");
            // a cache hit is answered by the switch: the reply travels back
            let endpoints = if oa.action == PacketAction::Back { ("s", "c") } else { ("c", "s") };
            assert_eq!((&*a.src, &*a.dst), endpoints, "key {key} ended {:?}", oa.action);
        }
        assert_eq!(compiled.store().fingerprint(), interp.store().fingerprint());
        assert_eq!(compiled.instructions_executed, interp.instructions_executed);
    }

    /// The slot cache is per layout, and layouts come and go: two packet
    /// families, one-off packets with a layout of their own, and packets whose
    /// layout grows mid-program all cross one plane, interleaved.
    #[test]
    fn interleaved_header_layouts_never_read_a_stale_slot() {
        use crate::packet::{GradientShape, KvsShape, Packet};
        let t = kvs_template("kvs", KvsParams { cache_depth: 64, ..Default::default() });
        let kvs = compile_source("kvs", &t.source).unwrap();
        // reads `key` (slot 0 of a KVS request, absent from a gradient) and
        // writes `seen` and `tag`, which neither family carries
        let mut b = ProgramBuilder::new("tagger");
        b.set_header("seen", Operand::Header("key".into()));
        b.set_header("tag", Operand::Header("seen".into()));
        b.set_header("op", Operand::Header("tag".into()));
        let tagger = b.build().unwrap();

        let requests = KvsShape::new("c", "s", 0);
        let gradients = GradientShape::new("w", "ps", 0, 4);
        let mut trace = Vec::new();
        for i in 0..6i64 {
            trace.push(requests.request(i % 3));
            trace.push(gradients.packet(i, 0, &[i, 2, 3, 4]));
            // same names as a shaped request, but a layout `Arc` of its own
            trace.push(kvs_request("c", "s", 0, i % 3));
            // already carries `seen`, so only `tag` grows its layout
            let mut fields = BTreeMap::new();
            fields.insert("key".to_string(), Value::Int(40 + i));
            fields.insert("seen".to_string(), Value::Int(-1));
            trace.push(Packet::new("c", "s", 0, fields));
        }

        let mut planes = [ExecMode::Compiled, ExecMode::Interpreted].map(|mode| {
            let mut plane = DevicePlane::new("SW0", DeviceModel::tofino());
            plane.install(kvs.clone());
            plane.install(tagger.clone());
            plane.set_exec_mode(mode);
            plane.store_mut().table_write("cache", &[Value::Int(1)], vec![Value::Int(11)]);
            plane
        });
        for (i, pkt) in trace.into_iter().enumerate() {
            let (mut a, mut b) = (pkt.clone(), pkt);
            let [compiled, interp] = &mut planes;
            assert_eq!(compiled.process(&mut a), interp.process(&mut b), "outcome of packet {i}");
            assert_eq!(a, b, "packet {i}");
            assert_eq!(a.inc.get("tag"), a.inc.get("key"), "packet {i} tagged with its own key");
            assert_eq!(a.inc.get("op"), a.inc.get("key"), "packet {i} read back what it wrote");
        }
        let [compiled, interp] = &planes;
        assert_eq!(compiled.store().fingerprint(), interp.store().fingerprint());
        assert_eq!(compiled.instructions_executed, interp.instructions_executed);
    }

    fn compiled_dump(prog: IrProgram) -> String {
        let mut plane = DevicePlane::new("SW0", DeviceModel::tofino());
        plane.install(prog);
        plane.compiled_image().expect("an installed program compiles").dump()
    }

    fn is_one(field: &str) -> Predicate {
        Predicate::new(Operand::Header(field.into()), CmpOp::Eq, Operand::int(1))
    }

    /// The shape of the MLAgg Core slice — `[A] x; [A,B] y; [A,B,C] z;
    /// [A,B,D] w; [A,E] v` — is one tree, each predicate present once.
    #[test]
    fn a_flattened_if_tree_lowers_back_to_one_tree() {
        let mut b = ProgramBuilder::new("p");
        b.guarded(is_one("a"), |b| {
            b.set_header("x", Operand::int(1));
            b.guarded(is_one("b"), |b| {
                b.set_header("y", Operand::int(1));
                b.guarded(is_one("c"), |b| {
                    b.set_header("z", Operand::int(1));
                });
                b.guarded(is_one("d"), |b| {
                    b.set_header("w", Operand::int(1));
                });
            });
            b.guarded(is_one("e"), |b| {
                b.set_header("v", Operand::int(1));
            });
        });
        let dump = compiled_dump(b.build().unwrap());
        assert_eq!(
            dump,
            "program p (5 instr):\n\
             \x20 if hdr.a Eq 1:\n\
             \x20   hdr.x = 1\n\
             \x20   if hdr.b Eq 1:\n\
             \x20     hdr.y = 1\n\
             \x20     if hdr.c Eq 1:\n\
             \x20       hdr.z = 1\n\
             \x20     if hdr.d Eq 1:\n\
             \x20       hdr.w = 1\n\
             \x20   if hdr.e Eq 1:\n\
             \x20     hdr.v = 1\n"
        );
    }

    /// An op that writes what an *enclosing* block's predicate reads closes
    /// that block and everything nested in it; what follows re-tests both.
    #[test]
    fn a_write_to_an_enclosing_guard_operand_closes_every_block_down_to_it() {
        let mut b = ProgramBuilder::new("p");
        b.guarded(is_one("a"), |b| {
            b.set_header("x", Operand::int(1));
            b.guarded(is_one("b"), |b| {
                b.set_header("a", Operand::int(1));
                b.set_header("y", Operand::int(1));
            });
            b.set_header("v", Operand::int(1));
        });
        let dump = compiled_dump(b.build().unwrap());
        assert_eq!(
            dump,
            "program p (4 instr):\n\
             \x20 if hdr.a Eq 1:\n\
             \x20   hdr.x = 1\n\
             \x20   if hdr.b Eq 1:\n\
             \x20     hdr.a = 1\n\
             \x20 if hdr.a Eq 1:\n\
             \x20   if hdr.b Eq 1:\n\
             \x20     hdr.y = 1\n\
             \x20   hdr.v = 1\n"
        );
    }

    fn is_not_one(field: &str) -> Predicate {
        is_one(field).negated()
    }

    /// `if`/`elif`/`else`, if-converted to `[p]`, `[!p, q]`, `[!p, !q]`,
    /// lowers to one test per branch point; `Lt`/`Ge` siblings, which
    /// disagree on `None`, stay two blocks.
    #[test]
    fn complement_siblings_fold_into_an_else() {
        let mut b = ProgramBuilder::new("p");
        b.guarded(is_one("a"), |b| {
            b.set_header("x", Operand::int(1));
        });
        b.guarded(is_not_one("a"), |b| {
            b.guarded(is_not_one("b"), |b| {
                b.set_header("y", Operand::int(1));
            });
            b.guarded(is_one("b"), |b| {
                b.set_header("z", Operand::int(1));
            });
        });
        let below = Predicate::new(Operand::hdr("c"), CmpOp::Lt, Operand::int(1));
        b.guarded(below.clone(), |b| {
            b.set_header("v", Operand::int(1));
        });
        b.guarded(below.negated(), |b| {
            b.set_header("w", Operand::int(1));
        });
        let dump = compiled_dump(b.build().unwrap());
        assert_eq!(
            dump,
            "program p (5 instr):\n\
             \x20 if hdr.a Eq 1:\n\
             \x20   hdr.x = 1\n\
             \x20 else:\n\
             \x20   if hdr.b Ne 1:\n\
             \x20     hdr.y = 1\n\
             \x20   else:\n\
             \x20     hdr.z = 1\n\
             \x20 if hdr.c Lt 1:\n\
             \x20   hdr.v = 1\n\
             \x20 if hdr.c Ge 1:\n\
             \x20   hdr.w = 1\n"
        );
    }

    /// A first body that writes the tested operand — directly or from a
    /// nested block — may have flipped the predicate, so its complement
    /// sibling keeps a test of its own; an `else` body that writes it closes
    /// like any block.
    #[test]
    fn a_body_that_writes_the_tested_operand_keeps_its_sibling_a_block() {
        let mut b = ProgramBuilder::new("p");
        b.guarded(is_one("a"), |b| {
            b.set_header("x", Operand::int(1));
            b.guarded(is_one("b"), |b| {
                b.set_header("a", Operand::int(2));
            });
        });
        b.guarded(is_not_one("a"), |b| {
            b.set_header("y", Operand::int(1));
        });
        b.guarded(is_one("c"), |b| {
            b.set_header("z", Operand::int(1));
        });
        b.guarded(is_not_one("c"), |b| {
            b.set_header("c", Operand::int(1));
            b.set_header("w", Operand::int(1));
        });
        let dump = compiled_dump(b.build().unwrap());
        assert_eq!(
            dump,
            "program p (6 instr):\n\
             \x20 if hdr.a Eq 1:\n\
             \x20   hdr.x = 1\n\
             \x20   if hdr.b Eq 1:\n\
             \x20     hdr.a = 2\n\
             \x20 if hdr.a Ne 1:\n\
             \x20   hdr.y = 1\n\
             \x20 if hdr.c Eq 1:\n\
             \x20   hdr.z = 1\n\
             \x20 else:\n\
             \x20   hdr.c = 1\n\
             \x20 if hdr.c Ne 1:\n\
             \x20   hdr.w = 1\n"
        );
    }

    #[test]
    fn an_unset_temporary_reads_none_in_both_tiers() {
        let mut b = ProgramBuilder::new("p");
        b.set_header("out", Operand::Var("x".into()));
        let prog = b.build().unwrap();
        for mode in [ExecMode::Compiled, ExecMode::Interpreted] {
            let mut plane = DevicePlane::new("SW0", DeviceModel::tofino());
            plane.install(prog.clone());
            plane.set_exec_mode(mode);
            let mut pkt = kvs_request("c", "s", 0, 1);
            pkt.inc.set("out", Value::Int(42));
            plane.process(&mut pkt);
            assert_eq!(pkt.inc.get("out"), Value::None, "{mode:?}");
        }
    }

    #[test]
    fn preconditions_gate_whole_snippets_in_both_tiers() {
        let mut b = ProgramBuilder::new("p");
        b.set_header("seen", Operand::int(1));
        let mut prog = b.build().unwrap();
        prog.precondition = Some(Guard::single(Predicate::new(
            Operand::Meta("inc_user".into()),
            CmpOp::Eq,
            Operand::int(7),
        )));
        for mode in [ExecMode::Compiled, ExecMode::Interpreted] {
            let mut plane = DevicePlane::new("SW0", DeviceModel::tofino());
            plane.install(prog.clone());
            plane.set_exec_mode(mode);
            let mut other = kvs_request("c", "s", 3, 1);
            let skipped = plane.process(&mut other);
            assert_eq!(skipped.instructions_executed, 0, "{mode:?}");
            assert_eq!(skipped.action, PacketAction::Forward);
            assert_eq!(other.inc.get("seen"), Value::None);
            let mut mine = kvs_request("c", "s", 7, 1);
            let ran = plane.process(&mut mine);
            assert_eq!(ran.instructions_executed, 1, "{mode:?}");
            assert_eq!(mine.inc.get("seen"), Value::Int(1));
        }
    }
}
