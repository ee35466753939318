//! The register VM: the compiled execution tier of the data plane.
//!
//! [`CompiledImage::append`] lowers one installed snippet into a
//! [`CompiledProgram`] at install time, against the register and header
//! name tables the image keeps for its lifetime, so an install costs the
//! tenant and not the device; [`compile`] is the same append over a whole
//! snippet list, from an empty image.  A snippet declares every object it
//! touches (`DevicePlane::install` holds it to that), so it lowers against
//! its own declarations and nothing a co-resident installs or removes
//! changes how it resolves.  Lowering resolves everything once:
//! every variable becomes a dense register index, every state object
//! resolves to its [`ObjectStore`] slot, hash seeds and moduli become
//! immediates, and the per-object kind dispatch the
//! interpreter performs per packet (is this a table? a sketch?) is burned
//! into kind-specialized opcodes.  The per-packet loop is then a match over
//! fixed-width ops with no string lookups, no `HashMap` probes for
//! variables, and no per-instruction tenant guard — the tenant match
//! isolation writes as [`IrProgram::precondition`] gates each snippet once
//! per packet.
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
//! The VM is bit-identical to the interpreter by construction: every IR
//! instruction compiles to one [`VmNode::Op`], except that a cell's
//! read–ALU–write triple compiles to one fused [`VmOp::ArrayUpdate`] that
//! counts as the three it replaces (so the executed-instruction count of
//! an outcome matches); both tiers dispatch on the kind the snippet itself
//! declares an object with; every operation evaluates through the same
//! [`clickinc_ir::eval`] reference semantics and the same [`ObjectStore`]
//! cell arithmetic, and `RandInt` advances the same per-tenant splitmix
//! stream.  The differential proptests in `tests/compiled_vs_interp.rs` hold
//! the two paths to equal store fingerprints and outcomes, executed-instruction
//! counts included, on every fig13 program.
//!
//! Registers are *generation-stamped*: instead of clearing the register file
//! per packet, each write records the current packet generation, and a read
//! whose stamp is stale reads [`Value::None`] (an unset variable of the
//! interpreter's `env`) without any per-packet reset cost.
//!
//! Header fields are slots too.  A packet's header is a value vector laid out
//! by the [`StreamRecord`] its whole stream shares, and the register file
//! binds every header id of the image to its slot in one pass whenever the
//! packet's record is not the one bound (a new stream, or a header write
//! that grew the packet a private record) — so a header operand
//! is a plain `Vec` index into the packet itself, the packet stays the
//! single source of truth, and nothing is resolved per packet while the
//! traffic keeps one shape.
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
//! reads is a [`Value::Int`] or a [`Value::Bool`] a `Cmp` wrote, so `Alu`
//! (outside the float unit), `Cmp`, block and precondition predicates and
//! every integer view take those two kinds inline — a `Bool` as
//! `i64::from(b)`, exactly what [`Value::as_int`] makes of it — and call
//! [`eval::alu_int`] / [`CmpOp::eval_int`] directly, the very functions
//! [`eval::alu`] and [`eval::compare`] apply to such a pair; any other pair
//! goes to `eval::alu` / `eval::compare`.  One definition still serves both
//! tiers; the VM only skips re-dispatching on the operand kinds it has just
//! matched.

use crate::packet::{Packet, StreamRecord};
use crate::state::{hash_seed, hash_with_seed, ObjectStore};
use clickinc_ir::{
    eval, AluOp, CmpOp, Instruction, IrProgram, Name, ObjectKind, OpCode, Operand, Predicate, Value,
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
    /// table.  The register file binds it to the packet's slot once per
    /// stream record, so a read is an index into the packet's slot vector;
    /// a field the record does not carry reads `None`.
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
#[derive(Debug, Clone, PartialEq)]
pub enum VmIndex {
    /// No index operands.
    None,
    /// One operand: the cell.
    One(VmOperand),
    /// Two (or more) operands: row and cell.
    Two(VmOperand, VmOperand),
}

impl VmIndex {
    /// Whether an index operand reads register `reg`.
    fn reads(&self, reg: u32) -> bool {
        let is = |o: &VmOperand| *o == VmOperand::Reg(reg);
        match self {
            VmIndex::None => false,
            VmIndex::One(c) => is(c),
            VmIndex::Two(r, c) => is(r) || is(c),
        }
    }
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
    /// One cell's read–ALU–write, fused: `read = slot[index]`, then
    /// `dest = read op rhs`, then `slot[index] = dest`, with the cell
    /// addressed once.  Counts as the three instructions it replaces.  The
    /// lowering fuses only where `index` reads neither `read` nor `dest`, so
    /// the write's index is the read's.
    ArrayUpdate {
        read: u32,
        dest: u32,
        slot: usize,
        index: VmIndex,
        op: AluOp,
        rhs: VmOperand,
        float: bool,
    },
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

/// One node of a guard tree.  One IR instruction compiles to one `Op`, and
/// a fused [`VmOp::ArrayUpdate`] stands for the three it replaces, keeping
/// the executed-instruction counts bit-identical across tiers.
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

/// One compiled snippet: the program precondition plus the guard tree
/// covering the instruction stream in order.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// Snippet name (the tenant program id).
    pub name: Name,
    precondition: Vec<VmPred>,
    body: Vec<VmNode>,
    /// Operations in `body`, at every depth.
    ops: usize,
    /// Registers this program's append introduced into the image's table.
    new_regs: usize,
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
///
/// The register and header name tables live as long as the image: an
/// [`append`](CompiledImage::append) lowers one snippet against them and
/// adds only the names it introduces, so appending in install order builds
/// exactly the tables a whole-list [`compile`] would.  Dropping a program
/// keeps its names; they are counted dead until the image is compiled whole
/// again.
#[derive(Debug, Clone, Default)]
pub struct CompiledImage {
    programs: Vec<CompiledProgram>,
    /// Register index → variable name (what [`CompiledImage::dump`] prints).
    reg_names: Vec<Name>,
    /// Variable name → register index.
    var_regs: BTreeMap<Name, u32>,
    /// Header index → field name (resolved to a packet slot once per
    /// stream record).
    header_names: Vec<Name>,
    /// Header field name → header index.
    header_ids: BTreeMap<Name, u32>,
    /// Registers introduced by programs dropped since the image was last
    /// compiled whole.
    dead_regs: usize,
}

impl CompiledImage {
    /// Lower one snippet against its own object declarations and the store
    /// slots they were given, and append it: the snippet's variables and
    /// header fields that the tables lack get the next indices, the
    /// residents are not touched.  Called at install time, never per packet.
    ///
    /// # Panics
    ///
    /// If a state operation of the snippet names an object the snippet does
    /// not declare, or one the store does not hold.
    pub fn append(&mut self, snippet: &IrProgram, store: &ObjectStore) {
        let regs_before = self.reg_names.len();
        let mut lw = Lowerer { store, image: self, snippet, path: Vec::new() };
        let precondition = snippet
            .precondition
            .as_ref()
            .map(|g| g.all.iter().map(|p| lw.pred(p)).collect())
            .unwrap_or_default();
        let (body, _) = lw.nodes(&snippet.instructions, &mut 0, &[]);
        self.programs.push(CompiledProgram {
            name: snippet.name.clone(),
            precondition,
            body,
            ops: snippet.instructions.len(),
            new_regs: self.reg_names.len() - regs_before,
        });
    }

    /// Drop every program named `owner`, keeping the name tables (the
    /// dropped programs' registers count as dead).
    pub fn drop_programs(&mut self, owner: &str) {
        let mut dead = 0;
        self.programs.retain(|p| {
            let drop = p.name == owner;
            dead += if drop { p.new_regs } else { 0 };
            !drop
        });
        self.dead_regs += dead;
    }

    /// Registers no resident program introduced: names dropped programs
    /// left behind since the image was last compiled whole.
    pub fn dead_regs(&self) -> usize {
        self.dead_regs
    }

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
                // a fused op prints as the instructions it replaces, one a line
                VmNode::Op(op) => {
                    for line in self.op_str(op).lines() {
                        let _ = writeln!(out, "{indent}{line}");
                    }
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

    fn reg(&self, r: u32) -> String {
        format!("r{r}:{}", self.reg_names[r as usize])
    }

    fn opnd(&self, o: &VmOperand) -> String {
        match o {
            VmOperand::Const(v) => format!("{v}"),
            VmOperand::Reg(r) => self.reg(*r),
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
        format!("slot:{s}")
    }

    fn alu_str(
        &self,
        dest: u32,
        op: AluOp,
        lhs: &VmOperand,
        rhs: &VmOperand,
        float: bool,
    ) -> String {
        let unit = if float { "f" } else { "" };
        format!("r{dest} = {} {op:?}{unit} {}", self.opnd(lhs), self.opnd(rhs))
    }

    fn read_str(&self, dest: u32, slot: usize, index: &VmIndex) -> String {
        format!("r{dest} = array_read {}{}", self.slot(slot), self.idx(index))
    }

    fn write_str(&self, slot: usize, index: &VmIndex, value: &str) -> String {
        format!("array_write {}{} = {value}", self.slot(slot), self.idx(index))
    }

    fn op_str(&self, op: &VmOp) -> String {
        match op {
            VmOp::Assign { dest, src } => {
                format!("r{dest} = {}", self.opnd(src))
            }
            VmOp::Alu { dest, op, lhs, rhs, float } => self.alu_str(*dest, *op, lhs, rhs, *float),
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
            VmOp::ArrayRead { dest, slot, index } => self.read_str(*dest, *slot, index),
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
                self.write_str(*slot, index, &self.opnd(value))
            }
            VmOp::ArrayUpdate { read, dest, slot, index, op, rhs, float } => format!(
                "{}\n{}\n{}",
                self.read_str(*read, *slot, index),
                self.alu_str(*dest, *op, &VmOperand::Reg(*read), rhs, *float),
                self.write_str(*slot, index, &self.reg(*dest))
            ),
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
    store: &'a ObjectStore,
    /// The image whose name tables the snippet is lowered against.
    image: &'a mut CompiledImage,
    /// The snippet being lowered, whose declarations give each object's kind.
    snippet: &'a IrProgram,
    /// The predicates of the blocks open around the instruction being
    /// lowered, outermost first; a closing block takes its own back.
    path: Vec<VmPred>,
}

impl<'a> Lowerer<'a> {
    // a name new to the image's tables is shared with the snippet, not copied
    fn hdr(&mut self, field: &Name) -> u32 {
        let image = &mut *self.image;
        if let Some(&h) = image.header_ids.get(field) {
            return h;
        }
        let h = image.header_names.len() as u32;
        image.header_names.push(field.clone());
        image.header_ids.insert(field.clone(), h);
        h
    }

    fn reg(&mut self, var: &Name) -> u32 {
        let image = &mut *self.image;
        if let Some(&r) = image.var_regs.get(var) {
            return r;
        }
        let r = image.reg_names.len() as u32;
        image.reg_names.push(var.clone());
        image.var_regs.insert(var.clone(), r);
        r
    }

    /// The kind the snippet declares `object` with.
    fn kind(&self, object: &str) -> &'a ObjectKind {
        &self.snippet.object(object).expect("a snippet declares every object it touches").kind
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
        self.store.slot_of(object).expect("the store holds every object a snippet declares")
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
            OpCode::ReadState { dest, object, index } => match self.kind(object) {
                ObjectKind::Table { .. } => VmOp::TableGet {
                    dest: self.reg(dest),
                    slot: self.slot(object),
                    key: self.operands(index),
                },
                ObjectKind::Sketch { .. } => VmOp::SketchEstimate {
                    dest: self.reg(dest),
                    slot: self.slot(object),
                    key: self.first_or_none(index),
                },
                ObjectKind::Hash { .. } => VmOp::Hash {
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
            OpCode::WriteState { object, index, value } => match self.kind(object) {
                ObjectKind::Table { .. } => VmOp::TableWrite {
                    slot: self.slot(object),
                    key: self.operands(index),
                    values: self.operands(value),
                },
                ObjectKind::Sketch { .. } => VmOp::SketchWrite {
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
                match self.kind(object) {
                    ObjectKind::Sketch { .. } => VmOp::SketchCount {
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
            OpCode::DeleteState { object, index } => match self.kind(object) {
                ObjectKind::Table { .. } => {
                    VmOp::TableDelete { slot: self.slot(object), key: self.operands(index) }
                }
                ObjectKind::Array { .. } | ObjectKind::Seq { .. } => {
                    VmOp::ArrayDelete { slot: self.slot(object), index: self.index(index) }
                }
                // hash/crypto objects: the interpreter's delete is a no-op,
                // but the instruction still executes
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

    fn updates(&mut self, updates: &[(Name, Operand)]) -> Vec<(u32, VmOperand)> {
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
    /// Ops are pushed through [`push_fused`], so a cell's read–ALU–write
    /// that stays in one body becomes one op.
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
                    push_fused(&mut body, op);
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

/// Compile a whole snippet list, in order, into a fresh image: one
/// [`CompiledImage::append`] per snippet.  A plane compiles whole only when
/// an uninstall leaves more dead registers than live ones (or more store
/// tombstones than live objects), or empties the plane; the whole compile is
/// also the reference the incrementally built image is held to.
pub fn compile(snippets: &[Arc<IrProgram>], store: &ObjectStore) -> CompiledImage {
    let mut image = CompiledImage::default();
    for snippet in snippets {
        image.append(snippet, store);
    }
    image
}

/// Push `next` onto `body`, fusing it with the two ops before it when the
/// three are `d1 = s[i]`, `d2 = d1 op x`, `s[i] = d2` over one slot and one
/// index that reads neither `d1` nor `d2` — then the write's index evaluates
/// to the read's cell, and addressing it once changes nothing.  (Nothing
/// between the three can move the cell: the read and the ALU write only
/// `d1` and `d2`.)
fn push_fused(body: &mut Vec<VmNode>, next: VmOp) {
    let fuses = match (&next, &body[..]) {
        (
            VmOp::ArrayWrite { slot, index, value: VmOperand::Reg(sum) },
            [.., VmNode::Op(VmOp::ArrayRead { dest: read, slot: s, index: i }), VmNode::Op(alu)],
        ) => {
            matches!(alu, VmOp::Alu { dest, lhs: VmOperand::Reg(lhs), .. }
                if lhs == read && dest == sum)
                && (slot, index) == (s, i)
                && !index.reads(*read)
                && !index.reads(*sum)
        }
        _ => false,
    };
    if !fuses {
        body.push(VmNode::Op(next));
        return;
    }
    let (
        Some(VmNode::Op(VmOp::Alu { dest, op, rhs, float, .. })),
        Some(VmNode::Op(VmOp::ArrayRead { dest: read, slot, index })),
    ) = (body.pop(), body.pop())
    else {
        unreachable!("matched above")
    };
    body.push(VmNode::Op(VmOp::ArrayUpdate { read, dest, slot, index, op, rhs, float }));
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
    let mut reg_w2: Option<u32> = None;
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
        VmOp::ArrayUpdate { read, dest, .. } => (reg_w, reg_w2) = (Some(*read), Some(*dest)),
        VmOp::SetHeader { field, .. } => hdr_one = Some(*field),
        VmOp::Back { updates } => hdr_w = updates,
        _ => {}
    }
    let touches = |o: &VmOperand| match o {
        VmOperand::Reg(r) => reg_w == Some(*r) || reg_w2 == Some(*r),
        VmOperand::Header(h) => hdr_one == Some(*h) || hdr_w.iter().any(|(f, _)| f == h),
        _ => false,
    };
    touches(&pred.lhs) || touches(&pred.rhs)
}

/// The plane-owned register file, generation-stamped so it never needs a
/// per-packet reset, plus the header binding: where in the current packet's
/// slot vector each header id of the image lives.
#[derive(Debug, Clone, Default)]
pub struct RegFile {
    regs: Vec<Value>,
    gen: Vec<u64>,
    cur: u64,
    /// The stream record `hdr_slot` is bound to.  Holding the `Arc` keeps
    /// the record alive, so pointer identity with a packet's record means
    /// "same record" and never a reused address.
    record: Option<Arc<StreamRecord>>,
    /// Image header id → slot in `record` (`None`: the record does not carry
    /// the field).
    hdr_slot: Vec<Option<usize>>,
    /// Reusable buffer for the evaluated key operands of table and hash ops.
    keys: Vec<Value>,
}

impl RegFile {
    /// Size the file to an image's tables, after an append grew them or a
    /// whole compile rebuilt them.  A kept register keeps its stamp, which is
    /// older than the next packet's generation, so it reads `None` until
    /// written and no value leaks across packets or images; the header
    /// binding is dropped, so the next packet binds every header id anew.
    pub fn resize(&mut self, num_regs: usize, num_headers: usize) {
        self.regs.resize(num_regs, Value::None);
        self.gen.resize(num_regs, 0);
        self.hdr_slot.resize(num_headers, None);
        self.record = None;
    }

    fn begin_packet(&mut self, image: &CompiledImage, pkt: &Packet) {
        self.cur += 1;
        self.follow_record(image, pkt);
    }

    /// Bind the image's headers to the packet's record unless they already
    /// are.
    #[inline]
    fn follow_record(&mut self, image: &CompiledImage, pkt: &Packet) {
        let record = pkt.inc.record();
        if !self.record.as_ref().is_some_and(|bound| Arc::ptr_eq(bound, record)) {
            self.bind(image, record);
        }
    }

    /// Resolve every header id of the image to its slot in `record`, by name.
    #[cold]
    fn bind(&mut self, image: &CompiledImage, record: &Arc<StreamRecord>) {
        for (slot, name) in self.hdr_slot.iter_mut().zip(&image.header_names) {
            *slot = record.slot_of(name);
        }
        self.record = Some(Arc::clone(record));
    }

    fn set(&mut self, reg: u32, value: Value) {
        let r = reg as usize;
        self.regs[r] = value;
        self.gen[r] = self.cur;
    }

    /// Borrow an operand's value where it lives: the op's own immediate, the
    /// register file or the packet's slot vector.  Metadata is not stored as
    /// a `Value` anywhere, so it goes through `meta`, a temporary of the
    /// caller's.  A register no instruction wrote for this packet, a header
    /// field the record lacks and unknown metadata read [`Value::None`].
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
                *meta = Value::Int(pkt.inc.user());
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
    regs: &RegFile,
    pkt: &Packet,
    f: impl FnOnce(&Value, &Value) -> R,
) -> R {
    let (mut a, mut b) = (Value::None, Value::None);
    f(regs.value(lhs, pkt, &mut a), regs.value(rhs, pkt, &mut b))
}

/// Hand `f` the store and a sketch's key operand, borrowed in place.
fn with_key<R>(
    key: &VmOperand,
    ctx: &mut VmCtx<'_>,
    pkt: &Packet,
    f: impl FnOnce(&mut ObjectStore, &Value) -> R,
) -> R {
    f(ctx.store, ctx.regs.value(key, pkt, &mut Value::None))
}

/// The integer view of an operand read in place ([`Value::as_int`]); every
/// call site applies its own default, as the interpreter's does.
#[inline(always)] // as `RegFile::value`: most reads come through here
fn int(op: &VmOperand, regs: &RegFile, pkt: &Packet) -> Option<i64> {
    match regs.value(op, pkt, &mut Value::None) {
        Value::Int(x) => Some(*x),
        other => other.as_int(),
    }
}

/// A copy of an operand's value, for the ops that store one.
fn cloned(op: &VmOperand, regs: &RegFile, pkt: &Packet) -> Value {
    regs.value(op, pkt, &mut Value::None).clone()
}

/// Evaluate `ops` into the register file's reusable key buffer and hand the
/// values to `f` — no `Vec` per table or hash op.
fn with_keys<R>(
    ops: &[VmOperand],
    ctx: &mut VmCtx<'_>,
    pkt: &Packet,
    f: impl FnOnce(&mut VmCtx<'_>, &[Value]) -> R,
) -> R {
    let mut keys = std::mem::take(&mut ctx.regs.keys);
    keys.extend(ops.iter().map(|k| cloned(k, ctx.regs, pkt)));
    let result = f(ctx, &keys);
    keys.clear();
    ctx.regs.keys = keys;
    result
}

/// The integer view of an `Int` or a `Bool`, the two kinds the inline paths
/// take ([`Value::as_int`] maps a `Bool` to `i64::from(b)` too).
#[inline(always)]
fn int_or_bool(v: &Value) -> Option<i64> {
    match v {
        Value::Int(x) => Some(*x),
        Value::Bool(b) => Some(i64::from(*b)),
        _ => None,
    }
}

/// [`eval::compare`], with a pair of `Int`s and `Bool`s (the common one:
/// header fields, hashes and array cells are integers, and `Cmp` writes
/// booleans) tested inline and handed straight to [`CmpOp::eval_int`].
#[inline(always)]
fn compare(a: &Value, op: CmpOp, b: &Value) -> bool {
    match (int_or_bool(a), int_or_bool(b)) {
        (Some(x), Some(y)) => op.eval_int(x, y),
        _ => eval::compare(a, op, b),
    }
}

/// [`eval::alu`], with the integer unit on a pair of `Int`s and `Bool`s
/// tested inline and handed straight to [`eval::alu_int`].
#[inline(always)]
fn alu(op: AluOp, a: &Value, b: &Value, float: bool) -> Value {
    match (int_or_bool(a), int_or_bool(b)) {
        (Some(x), Some(y)) if !float => Value::Int(eval::alu_int(op, x, y)),
        _ => eval::alu(op, a, b, float),
    }
}

fn pred_holds(p: &VmPred, regs: &RegFile, pkt: &Packet) -> bool {
    binary(&p.lhs, &p.rhs, regs, pkt, |lhs, rhs| compare(lhs, p.op, rhs))
}

/// Row and cell of an array access from up to two index operands, each
/// decoded from its integer view by `decode`.
fn index_with(
    index: &VmIndex,
    regs: &RegFile,
    pkt: &Packet,
    decode: impl Fn(i64) -> u32,
) -> (u32, u32) {
    let at = |op: &VmOperand| decode(int(op, regs, pkt).unwrap_or(0));
    match index {
        VmIndex::None => (0, 0),
        VmIndex::One(c) => (0, at(c)),
        VmIndex::Two(r, c) => (at(r), at(c)),
    }
}

/// The interpreter's index-arity decode: row/cell from up to two operands,
/// folding negatives through `unsigned_abs`.
fn row_cell(index: &VmIndex, regs: &RegFile, pkt: &Packet) -> (u32, u32) {
    index_with(index, regs, pkt, |i| i.unsigned_abs() as u32)
}

/// The interpreter's *delete* decode, which truncates with an `as u32` cast
/// instead of `unsigned_abs`.
fn delete_cell(index: &VmIndex, regs: &RegFile, pkt: &Packet) -> (u32, u32) {
    index_with(index, regs, pkt, |i| i as u32)
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
    ctx.regs.begin_packet(image, pkt);
    let mut run = VmRun { action: PacketAction::Forward, mirrored: Vec::new(), executed: 0 };
    for prog in &image.programs {
        if !prog.precondition.iter().all(|p| pred_holds(p, ctx.regs, pkt)) {
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
                let taken =
                    if pred_holds(&blk.guard, ctx.regs, pkt) { &blk.body } else { &blk.otherwise };
                run_nodes(taken, ctx, image, pkt, run);
            }
        }
    }
}

fn step(op: &VmOp, ctx: &mut VmCtx<'_>, image: &CompiledImage, pkt: &mut Packet, run: &mut VmRun) {
    use crate::interp::PacketAction;
    match op {
        VmOp::Assign { dest, src } => {
            let v = cloned(src, ctx.regs, pkt);
            ctx.regs.set(*dest, v);
        }
        VmOp::Alu { dest, op, lhs, rhs, float } => {
            let v = binary(lhs, rhs, ctx.regs, pkt, |a, b| alu(*op, a, b, *float));
            ctx.regs.set(*dest, v);
        }
        VmOp::Cmp { dest, op, lhs, rhs } => {
            let holds = binary(lhs, rhs, ctx.regs, pkt, |a, b| compare(a, *op, b));
            ctx.regs.set(*dest, Value::Bool(holds));
        }
        VmOp::Hash { dest, seed, modulus, keys } => {
            let h = with_keys(keys, ctx, pkt, |_, k| hash_with_seed(*seed, *modulus, k));
            ctx.regs.set(*dest, Value::Int(h));
        }
        VmOp::TableGet { dest, slot, key } => {
            let v = with_keys(key, ctx, pkt, |ctx, k| ctx.store.table_get_slot(*slot, k));
            ctx.regs.set(*dest, v);
        }
        VmOp::SketchEstimate { dest, slot, key } => {
            let est = with_key(key, ctx, pkt, |store, k| store.sketch_estimate_slot(*slot, k));
            ctx.regs.set(*dest, Value::Int(est));
        }
        VmOp::ArrayRead { dest, slot, index } => {
            let (row, cell) = row_cell(index, ctx.regs, pkt);
            let v = Value::Int(ctx.store.array_read_slot(*slot, row, cell));
            ctx.regs.set(*dest, v);
        }
        VmOp::TableWrite { slot, key, values } => {
            // the entry's values are stored, so they are a `Vec` of their own
            let vals: Vec<Value> = values.iter().map(|v| cloned(v, ctx.regs, pkt)).collect();
            with_keys(key, ctx, pkt, |ctx, k| ctx.store.table_write_slot(*slot, k, vals));
        }
        VmOp::SketchWrite { slot, key, value } => {
            let delta = int(value, ctx.regs, pkt).unwrap_or(1);
            with_key(key, ctx, pkt, |store, k| store.sketch_count_slot(*slot, k, delta));
        }
        VmOp::ArrayWrite { slot, index, value } => {
            let (row, cell) = row_cell(index, ctx.regs, pkt);
            let v = int(value, ctx.regs, pkt).unwrap_or(0);
            ctx.store.array_write_slot(*slot, row, cell, v);
        }
        VmOp::ArrayUpdate { read, dest, slot, index, op, rhs, float } => {
            // the read and the write this op fused in, besides the ALU
            run.executed += 2;
            let (row, cell) = row_cell(index, ctx.regs, pkt);
            let regs = &mut *ctx.regs;
            ctx.store.array_update_slot(*slot, row, cell, |old| {
                // set first: `rhs` may read `read` too
                regs.set(*read, Value::Int(old));
                let mut meta = Value::None;
                let v = alu(*op, &Value::Int(old), regs.value(rhs, pkt, &mut meta), *float);
                let new = v.as_int().unwrap_or(0);
                regs.set(*dest, v);
                new
            });
        }
        VmOp::SketchCount { dest, slot, key, delta } => {
            let d = int(delta, ctx.regs, pkt).unwrap_or(1);
            let result = with_key(key, ctx, pkt, |store, k| store.sketch_count_slot(*slot, k, d));
            if let Some(dest) = dest {
                ctx.regs.set(*dest, Value::Int(result));
            }
        }
        VmOp::ArrayCount { dest, slot, index, delta } => {
            let (row, cell) = row_cell(index, ctx.regs, pkt);
            let d = int(delta, ctx.regs, pkt).unwrap_or(1);
            let result = ctx.store.array_add_slot(*slot, row, cell, d);
            if let Some(dest) = dest {
                ctx.regs.set(*dest, Value::Int(result));
            }
        }
        VmOp::Clear { slot } => ctx.store.clear_slot(*slot),
        VmOp::TableDelete { slot, key } => {
            with_keys(key, ctx, pkt, |ctx, k| ctx.store.table_remove_slot(*slot, k));
        }
        VmOp::ArrayDelete { slot, index } => {
            let (row, cell) = delete_cell(index, ctx.regs, pkt);
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
                let v = cloned(value, ctx.regs, pkt);
                set_header(*field, v, ctx.regs, image, pkt);
            }
            // a packet already on its way back keeps heading to the sender
            if run.action != PacketAction::Back {
                pkt.bounce();
            }
            run.action = PacketAction::Back;
        }
        VmOp::Mirror { updates } => {
            // updates apply to the copy only, by name — the live packet (and
            // with it the bound record) is untouched
            let mut copy = pkt.clone();
            for (field, value) in updates {
                let v = cloned(value, ctx.regs, pkt);
                copy.inc.set(&image.header_names[*field as usize], v);
            }
            run.mirrored.push(copy);
        }
        VmOp::MirrorPlain => run.mirrored.push(pkt.clone()),
        VmOp::SetHeader { field, value } => {
            let v = cloned(value, ctx.regs, pkt);
            set_header(*field, v, ctx.regs, image, pkt);
        }
        VmOp::Crypto { dest, input } => {
            let v = int(input, ctx.regs, pkt).unwrap_or(0);
            ctx.regs.set(*dest, Value::Int(v ^ 0x5a5a_5a5a));
        }
        VmOp::RandInt { dest, bound } => {
            let b = int(bound, ctx.regs, pkt).unwrap_or(i64::MAX).max(1);
            // the same splitmix64 per-tenant stream the interpreter draws from
            let user = pkt.inc.user();
            let draw = ctx.rand_streams.entry(user).or_insert(0);
            *draw += 1;
            let mut z = (user as u64) ^ draw.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            ctx.regs.set(*dest, Value::Int((z % b as u64) as i64));
        }
        VmOp::Checksum { dest, inputs } => {
            let sum: i64 = inputs.iter().map(|i| int(i, ctx.regs, pkt).unwrap_or(0)).sum();
            ctx.regs.set(*dest, Value::Int(sum & 0xffff));
        }
        VmOp::NoOp => {}
    }
}

/// Write a header field straight into the packet's slot.
fn set_header(
    field: u32,
    value: Value,
    regs: &mut RegFile,
    image: &CompiledImage,
    pkt: &mut Packet,
) {
    let h = field as usize;
    match regs.hdr_slot[h] {
        Some(slot) => pkt.inc.set_slot(slot, value),
        None => {
            // the packet does not carry the field: a live value grows a
            // record private to this packet, which the headers are rebound to
            pkt.inc.set(&image.header_names[h], value);
            regs.follow_record(image, pkt);
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
            assert_eq!((a.src(), a.dst()), endpoints, "key {key} ended {:?}", oa.action);
        }
        assert_eq!(compiled.store().fingerprint(), interp.store().fingerprint());
    }

    /// Header slots are bound per stream record, and records come and go:
    /// two streams, one-off packets with a record of their own, and packets
    /// whose record grows mid-program — once through a `set_header`
    /// and once more through a `back` update, each followed by header reads —
    /// all cross one plane, interleaved.
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
        // grows every record twice with fields that sort first, so each
        // growth moves every slot, and reads headers after each growth
        let mut b = ProgramBuilder::new("grower");
        b.set_header("aa_first", Operand::hdr("key"));
        b.assign("k1", Operand::hdr("key"));
        b.back(vec![("ab_second", Operand::hdr("aa_first"))]);
        b.alu("k2", AluOp::Add, Operand::var("k1"), Operand::hdr("ab_second"));
        b.alu("k3", AluOp::Add, Operand::var("k2"), Operand::hdr("key"));
        b.set_header("aa_first", Operand::var("k3"));
        let grower = b.build().unwrap();

        let requests = KvsShape::new("c", "s", 0);
        let gradients = GradientShape::new("w", "ps", 0, 4);
        let mut trace = Vec::new();
        for i in 0..6i64 {
            trace.push(requests.request(i % 3));
            trace.push(gradients.packet(i, 0, &[i, 2, 3, 4]));
            // same names as a shaped request, but a record `Arc` of its own
            trace.push(kvs_request("c", "s", 0, i % 3));
            // already carries `seen`, so only `tag` grows its record
            let mut fields = BTreeMap::new();
            fields.insert("key".to_string(), Value::Int(40 + i));
            fields.insert("seen".to_string(), Value::Int(-1));
            trace.push(Packet::new("c", "s", 0, fields));
        }

        let mut planes = [ExecMode::Compiled, ExecMode::Interpreted].map(|mode| {
            let mut plane = DevicePlane::new("SW0", DeviceModel::tofino());
            plane.install(kvs.clone());
            plane.install(tagger.clone());
            plane.install(grower.clone());
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
            if let Value::Int(key) = a.inc.get("key") {
                assert_eq!(a.inc.get("ab_second"), Value::Int(key), "packet {i} grew twice");
                assert_eq!(a.inc.get("aa_first"), Value::Int(3 * key), "packet {i} read after");
            }
        }
        let [compiled, interp] = &planes;
        assert_eq!(compiled.store().fingerprint(), interp.store().fingerprint());
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

    /// The inline integer paths are `eval`'s: every `CmpOp` and `AluOp`, the
    /// integer and the float unit, over every pair drawn from integer edge
    /// values, both booleans, floats, bytes and `None`.
    #[test]
    fn the_inline_integer_paths_match_eval() {
        use AluOp::*;
        let values = [
            Value::Int(0),
            Value::Int(1),
            Value::Int(-1),
            Value::Int(63),
            Value::Int(64),
            Value::Int(0x1f03),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Bool(false),
            Value::Bool(true),
            Value::Float(2.75),
            Value::Float(-3.5),
            Value::Bytes(vec![1, 2, 3]),
            Value::None,
        ];
        let cmps = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
        let alus = [Add, Sub, Mul, Div, Mod, And, Or, Xor, Shl, Shr, Min, Max, Slice];
        for a in &values {
            for b in &values {
                for op in cmps {
                    assert_eq!(compare(a, op, b), eval::compare(a, op, b), "{a:?} {op:?} {b:?}");
                }
                for op in alus {
                    for float in [false, true] {
                        let (vm, reference) = (alu(op, a, b, float), eval::alu(op, a, b, float));
                        assert_eq!(vm, reference, "{a:?} {op:?} {b:?} (float: {float})");
                    }
                }
            }
        }
    }

    /// Every op of a guard tree, blocks' bodies and `else`s included.
    fn ops_of(nodes: &[VmNode]) -> Vec<&VmOp> {
        nodes
            .iter()
            .flat_map(|node| match node {
                VmNode::Op(op) => vec![op],
                VmNode::Block(blk) => {
                    let mut ops = ops_of(&blk.body);
                    ops.extend(ops_of(&blk.otherwise));
                    ops
                }
            })
            .collect()
    }

    /// How many ops of a compiled image `pick` selects.
    fn count(image: &CompiledImage, pick: fn(&VmOp) -> bool) -> usize {
        let ops = image.programs.iter().flat_map(|prog| ops_of(&prog.body));
        ops.filter(|op| pick(op)).count()
    }

    fn fused(op: &VmOp) -> bool {
        matches!(op, VmOp::ArrayUpdate { .. })
    }

    /// A read–ALU–write of one cell fuses, whatever the ALU's other operand;
    /// a write to another cell, an index that names the read's or the sum's
    /// register, an ALU that does not read the cell, and a triple a block
    /// closes in the middle of stay three ops.
    #[test]
    fn a_cells_read_alu_write_fuses_into_one_op() {
        let at = |i: i64| vec![Operand::int(0), Operand::int(i)];
        let mut b = ProgramBuilder::new("p");
        b.array("s", 1, 8, 32);
        let triple = |b: &mut ProgramBuilder, index: Vec<Operand>, rhs: Operand, write_at| {
            b.get("d1", "s", index);
            b.alu("d2", AluOp::Add, Operand::var("d1"), rhs);
            b.write("s", write_at, vec![Operand::var("d2")]);
        };
        // fused: the other operand a header, `None`, a `Bool`, the cell itself
        triple(&mut b, at(1), Operand::hdr("x"), at(1));
        triple(&mut b, at(2), Operand::Const(Value::None), at(2));
        triple(&mut b, at(3), Operand::Const(Value::Bool(true)), at(3));
        triple(&mut b, at(4), Operand::var("d1"), at(4));
        // not fused: another cell, an index naming `d1` or `d2`
        triple(&mut b, at(5), Operand::hdr("x"), at(6));
        let by = |reg: &str| vec![Operand::int(0), Operand::var(reg)];
        triple(&mut b, by("d1"), Operand::hdr("x"), by("d1"));
        triple(&mut b, by("d2"), Operand::hdr("x"), by("d2"));
        // not fused: the ALU reads another register
        b.get("d1", "s", at(7));
        b.alu("d2", AluOp::Add, Operand::var("d3"), Operand::var("d1"));
        b.write("s", at(7), vec![Operand::var("d2")]);
        // not fused: the block closes on the ALU's write of its operand
        b.guarded(Predicate::new(Operand::var("d2"), CmpOp::Ne, Operand::int(0)), |b| {
            triple(b, at(1), Operand::hdr("x"), at(1));
        });
        let prog = b.build().unwrap();
        let mut planes = [ExecMode::Compiled, ExecMode::Interpreted].map(|mode| {
            let mut plane = DevicePlane::new("SW0", DeviceModel::tofino());
            plane.install(prog.clone());
            plane.set_exec_mode(mode);
            plane
        });
        assert_eq!(count(planes[0].compiled_image().unwrap(), fused), 4);
        for x in [5, 0, -3] {
            let mut fields = BTreeMap::new();
            fields.insert("x".to_string(), Value::Int(x));
            let (mut a, mut b) =
                (Packet::new("c", "s", 0, fields.clone()), Packet::new("c", "s", 0, fields));
            let [compiled, interp] = &mut planes;
            assert_eq!(compiled.process(&mut a), interp.process(&mut b), "x = {x}");
        }
        let [compiled, interp] = &planes;
        assert_eq!(compiled.store().fingerprint(), interp.store().fingerprint());
    }

    /// The image `mlagg_serve` measures — the 32-dimension MLAgg as the
    /// controller places it — fuses every aggregator add: the eight of a
    /// Core image and the twelve of an Agg or ToR slice, and nothing else
    /// (the Core's plain reads and every slice's writes of a round's first
    /// packet stay as they are).
    #[test]
    fn the_served_mlagg_images_fuse_every_aggregator_add() {
        use clickinc::lang::templates::{mlagg_template, MlAggParams};
        use clickinc::topology::Topology;
        use clickinc::{Controller, ServiceRequest};
        let mut controller = Controller::new(Topology::emulation_topology_all_tofino());
        let params =
            MlAggParams { dims: 32, num_workers: 4, num_aggregators: 1024, is_float: false };
        let request = ServiceRequest::builder("mlagg_srv")
            .template(mlagg_template("mlagg_srv", params))
            .from_("pod0b")
            .from_("pod1b")
            .to("pod2a")
            .build()
            .unwrap();
        controller.deploy(request).unwrap();
        let hops = controller.tenant_hops("mlagg_srv");
        assert!(!hops.is_empty());
        for hop in hops {
            let mut plane = DevicePlane::new(&hop.device, hop.model.clone());
            for snippet in &hop.snippets {
                plane.install(Arc::clone(snippet));
            }
            let image = plane.compiled_image().unwrap();
            let kind = hop.device.trim_end_matches(|c: char| c.is_ascii_digit());
            let (adds, reads, writes) = match kind {
                "Core" => (8, 3, 14),
                "Agg" => (12, 0, 12),
                "ToR" => (12, 0, 12),
                other => panic!("unexpected device {other}"),
            };
            let read = |op: &VmOp| matches!(op, VmOp::ArrayRead { .. });
            let write = |op: &VmOp| matches!(op, VmOp::ArrayWrite { .. });
            assert_eq!(count(image, fused), adds, "{}", hop.device);
            assert_eq!(count(image, read), reads, "{}", hop.device);
            assert_eq!(count(image, write), writes, "{}", hop.device);
        }
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
