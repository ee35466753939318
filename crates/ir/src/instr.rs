//! The IR instruction set (paper Fig. 17).
//!
//! An IR program is a straight-line sequence of optionally *guarded* instructions:
//! the frontend converts `if/else` branches into ternary/predicated form
//! (`condition ? instr`, paper §4.2 pass 3), so there is no control-flow transfer
//! in the IR — a property required by pipeline devices where a packet traverses
//! the stages exactly once.
//!
//! What an operation reads, defines and touches is enumerated here and only
//! here: [`OpCode::operands`] / [`OpCode::operands_mut`] (one exhaustive match
//! behind both), [`OpCode::dest`], [`OpCode::object`] and
//! [`OpCode::header_writes`].  The dependency rule, the dataflow analyses and
//! the isolation renaming all iterate these instead of matching on the
//! variants themselves.

use crate::name::Name;
use crate::types::Value;
use std::fmt;

/// Stable identifier of an instruction within a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstrId(pub u32);

impl fmt::Display for InstrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

/// An operand of an instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// A (temporary) variable, in SSA form after the frontend.
    Var(Name),
    /// A literal constant.
    Const(Value),
    /// A packet header field, e.g. `hdr.key`.
    Header(Name),
    /// Per-packet metadata maintained by the INC layer (e.g. `meta.step`).
    Meta(Name),
}

impl Operand {
    /// Convenience constructor for integer constants.
    pub fn int(v: i64) -> Operand {
        Operand::Const(Value::Int(v))
    }

    /// Convenience constructor for variables.
    pub fn var(name: impl Into<Name>) -> Operand {
        Operand::Var(name.into())
    }

    /// Convenience constructor for header fields.
    pub fn hdr(name: impl Into<Name>) -> Operand {
        Operand::Header(name.into())
    }

    /// Name read by this operand, if it is a variable.
    pub fn as_var(&self) -> Option<&str> {
        match self {
            Operand::Var(v) => Some(v),
            _ => None,
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Var(v) => write!(f, "{v}"),
            Operand::Const(c) => write!(f, "{c}"),
            Operand::Header(h) => write!(f, "hdr.{h}"),
            Operand::Meta(m) => write!(f, "meta.{m}"),
        }
    }
}

/// Arithmetic / bit operations (`calc` in Fig. 17).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Integer or float addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication (class BIC for integers, BCA for floats).
    Mul,
    /// Division (class BIC / BCA).
    Div,
    /// Modulus (class BIC).
    Mod,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Left shift by a constant.
    Shl,
    /// Right shift by a constant.
    Shr,
    /// Minimum of two operands.
    Min,
    /// Maximum of two operands.
    Max,
    /// Bit-slice extraction (`slice()` in Table 7); the rhs encodes `(hi<<8)|lo`.
    Slice,
}

impl AluOp {
    /// Whether the operation belongs to the "complex integer" class BIC rather
    /// than the basic class BIN (paper Table 9).
    pub fn is_complex_int(&self) -> bool {
        matches!(self, AluOp::Mul | AluOp::Div | AluOp::Mod)
    }
}

impl fmt::Display for AluOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AluOp::Add => "+",
            AluOp::Sub => "-",
            AluOp::Mul => "*",
            AluOp::Div => "/",
            AluOp::Mod => "%",
            AluOp::And => "&",
            AluOp::Or => "|",
            AluOp::Xor => "^",
            AluOp::Shl => "<<",
            AluOp::Shr => ">>",
            AluOp::Min => "min",
            AluOp::Max => "max",
            AluOp::Slice => "slice",
        };
        write!(f, "{s}")
    }
}

/// Comparison operators (`compare` in Fig. 17).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    /// Evaluate the comparison on two integers.
    #[inline]
    pub fn eval_int(&self, a: i64, b: i64) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }

    /// The logical negation of the comparison.
    pub fn negated(&self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// A single atomic predicate `lhs op rhs`.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    /// Left operand.
    pub lhs: Operand,
    /// Comparison operator.
    pub op: CmpOp,
    /// Right operand.
    pub rhs: Operand,
}

impl Predicate {
    /// Construct a predicate.
    pub fn new(lhs: Operand, op: CmpOp, rhs: Operand) -> Self {
        Predicate { lhs, op, rhs }
    }

    /// The negated predicate.
    pub fn negated(&self) -> Predicate {
        Predicate { lhs: self.lhs.clone(), op: self.op.negated(), rhs: self.rhs.clone() }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.lhs, self.op, self.rhs)
    }
}

/// A guard: conjunction of predicates that must all hold for the guarded
/// instruction to execute (nested `if`s flatten into a conjunction).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Guard {
    /// All predicates must be true.
    pub all: Vec<Predicate>,
}

impl Guard {
    /// The empty (always-true) guard.
    pub fn always() -> Guard {
        Guard { all: Vec::new() }
    }

    /// A guard with a single predicate.
    pub fn single(p: Predicate) -> Guard {
        Guard { all: vec![p] }
    }

    /// Conjoin another predicate.
    pub fn and(mut self, p: Predicate) -> Guard {
        self.all.push(p);
        self
    }

    /// Whether the guard is trivially true.
    pub fn is_always(&self) -> bool {
        self.all.is_empty()
    }

    /// Both operands of every predicate, in order.
    pub fn operands(&self) -> impl Iterator<Item = &Operand> {
        self.all.iter().flat_map(|p| [&p.lhs, &p.rhs])
    }

    /// Mutable form of [`Guard::operands`].
    pub fn operands_mut(&mut self) -> impl Iterator<Item = &mut Operand> {
        self.all.iter_mut().flat_map(|p| [&mut p.lhs, &mut p.rhs])
    }
}

impl fmt::Display for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.all.is_empty() {
            return write!(f, "true");
        }
        let parts: Vec<String> = self.all.iter().map(|p| p.to_string()).collect();
        write!(f, "{}", parts.join(" && "))
    }
}

/// The operation performed by an instruction.
///
/// The variants cover the declaration-free "operation" half of the IR syntax in
/// Fig. 17; object declarations live in [`crate::ObjectDecl`] and are kept in the
/// program header rather than in the instruction stream.
#[derive(Debug, Clone, PartialEq)]
pub enum OpCode {
    /// `dest = src` — plain move/copy.
    Assign {
        /// Destination variable.
        dest: Name,
        /// Source operand.
        src: Operand,
    },
    /// `dest = lhs op rhs` — arithmetic / bit operation.
    Alu {
        /// Destination variable.
        dest: Name,
        /// Operation.
        op: AluOp,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
        /// Whether the operation is on floating-point values (class BCA).
        float: bool,
    },
    /// `dest = (lhs cmp rhs)` — comparison producing a boolean.
    Cmp {
        /// Destination variable.
        dest: Name,
        /// Comparison operator.
        op: CmpOp,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// `dest = hash(key...)` using a declared [`crate::ObjectKind::Hash`] object.
    Hash {
        /// Destination variable.
        dest: Name,
        /// Name of the hash object.
        object: Name,
        /// Key operands.
        keys: Vec<Operand>,
    },
    /// `dest = get(object, index/key)` — read from an Array/Seq/Sketch/Table.
    ReadState {
        /// Destination variable.
        dest: Name,
        /// Name of the object.
        object: Name,
        /// Index (arrays/seq/sketch row) or key (tables).
        index: Vec<Operand>,
    },
    /// `write(object, index/key, value)` — write into a stateful object.
    WriteState {
        /// Name of the object.
        object: Name,
        /// Index or key operands.
        index: Vec<Operand>,
        /// Value operands.
        value: Vec<Operand>,
    },
    /// `dest = count(object, index, delta)` — read-modify-write increment, the
    /// primitive behind counters and Count-Min sketches.
    CountState {
        /// Destination variable receiving the post-increment value (optional).
        dest: Option<Name>,
        /// Name of the object.
        object: Name,
        /// Index operands.
        index: Vec<Operand>,
        /// Increment.
        delta: Operand,
    },
    /// `clear(object)` — reset an object (control-plane assisted on ASICs).
    ClearState {
        /// Name of the object.
        object: Name,
    },
    /// `del(object, index)` — invalidate one entry of a stateful object.
    DeleteState {
        /// Name of the object.
        object: Name,
        /// Index operands.
        index: Vec<Operand>,
    },
    /// `drop()` — drop the packet.
    Drop,
    /// `fwd()` / `forward(hdr)` — forward the packet along its normal route.
    Forward,
    /// `back(hdr={...})` — swap src/dst and send the packet back to its sender,
    /// optionally rewriting header fields.
    Back {
        /// Header field rewrites applied before bouncing the packet.
        updates: Vec<(Name, Operand)>,
    },
    /// `mirror(hdr={...})` — clone the packet to the CPU / a mirror session.
    Mirror {
        /// Header field rewrites applied to the mirrored copy.
        updates: Vec<(Name, Operand)>,
    },
    /// `multicast(group)` — replicate the packet to a multicast group.
    Multicast {
        /// Multicast group id.
        group: Operand,
    },
    /// `copyto(target, value)` — copy data to an out-of-band target (e.g. `"CPU"`).
    CopyTo {
        /// Target name.
        target: Name,
        /// Values copied.
        values: Vec<Operand>,
    },
    /// `hdr.field = value` — header rewrite.
    SetHeader {
        /// Header field name.
        field: Name,
        /// New value.
        value: Operand,
    },
    /// `dest = encrypt/decrypt(object, input)` using a Crypto object.
    Crypto {
        /// Destination variable.
        dest: Name,
        /// Name of the crypto object.
        object: Name,
        /// Input operand.
        input: Operand,
        /// True for encryption, false for decryption.
        encrypt: bool,
    },
    /// `dest = randint(bound)` — random integer (class BAF, `_randint`).
    RandInt {
        /// Destination variable.
        dest: Name,
        /// Exclusive upper bound.
        bound: Operand,
    },
    /// `dest = checksum(inputs...)` — csum16 computation.
    Checksum {
        /// Destination variable.
        dest: Name,
        /// Inputs folded into the checksum.
        inputs: Vec<Operand>,
    },
    /// A no-op, used as a placeholder when instructions are lazily removed
    /// (paper §6, lazy enforcement of program removal).
    NoOp,
}

/// The one exhaustive enumeration of the operands each operation reads, as
/// `(run, run, updates)`: a variant's operand fields are at most two runs of
/// operands (a lone operand is a run of one) or the value column of a
/// `back`/`mirror` update dictionary.  Expanded for `&OpCode` and for
/// `&mut OpCode`, so the shared and the mutable walk cannot drift apart.
macro_rules! operand_runs {
    ($op:expr, $one:path $(, $mutable:tt)?) => {
        match $op {
            OpCode::Assign { src: a, .. }
            | OpCode::Multicast { group: a }
            | OpCode::SetHeader { value: a, .. }
            | OpCode::Crypto { input: a, .. }
            | OpCode::RandInt { bound: a, .. } => ($one(a), &$($mutable)? [], &$($mutable)? []),
            OpCode::Alu { lhs, rhs, .. } | OpCode::Cmp { lhs, rhs, .. } => {
                ($one(lhs), $one(rhs), &$($mutable)? [])
            }
            OpCode::Hash { keys: run, .. }
            | OpCode::ReadState { index: run, .. }
            | OpCode::DeleteState { index: run, .. }
            | OpCode::CopyTo { values: run, .. }
            | OpCode::Checksum { inputs: run, .. } => (run, &$($mutable)? [], &$($mutable)? []),
            OpCode::WriteState { index, value, .. } => (index, value, &$($mutable)? []),
            OpCode::CountState { index, delta, .. } => (index, $one(delta), &$($mutable)? []),
            OpCode::Back { updates } | OpCode::Mirror { updates } => {
                (&$($mutable)? [], &$($mutable)? [], updates)
            }
            OpCode::ClearState { .. } | OpCode::Drop | OpCode::Forward | OpCode::NoOp => {
                (&$($mutable)? [], &$($mutable)? [], &$($mutable)? [])
            }
        }
    };
}

impl OpCode {
    /// Every operand this operation reads, each exactly once, in field order.
    /// The guard is the instruction's: see [`Instruction::reads`].
    pub fn operands(&self) -> impl Iterator<Item = &Operand> {
        let (a, b, updates): (&[Operand], &[Operand], &[(Name, Operand)]) =
            operand_runs!(self, std::slice::from_ref);
        a.iter().chain(b).chain(updates.iter().map(|(_, value)| value))
    }

    /// Mutable form of [`OpCode::operands`]: the same operands in the same
    /// order, for passes that rename them in place.
    pub fn operands_mut(&mut self) -> impl Iterator<Item = &mut Operand> {
        let (a, b, updates): (&mut [Operand], &mut [Operand], &mut [(Name, Operand)]) =
            operand_runs!(self, std::slice::from_mut, mut);
        a.iter_mut().chain(b).chain(updates.iter_mut().map(|(_, value)| value))
    }

    /// The variable written by this operation, if any.
    pub fn dest(&self) -> Option<&str> {
        match self {
            OpCode::Assign { dest, .. }
            | OpCode::Alu { dest, .. }
            | OpCode::Cmp { dest, .. }
            | OpCode::Hash { dest, .. }
            | OpCode::ReadState { dest, .. }
            | OpCode::Crypto { dest, .. }
            | OpCode::RandInt { dest, .. }
            | OpCode::Checksum { dest, .. } => Some(dest),
            OpCode::CountState { dest, .. } => dest.as_deref(),
            _ => None,
        }
    }

    /// Mutable form of [`OpCode::dest`].
    pub fn dest_mut(&mut self) -> Option<&mut Name> {
        match self {
            OpCode::Assign { dest, .. }
            | OpCode::Alu { dest, .. }
            | OpCode::Cmp { dest, .. }
            | OpCode::Hash { dest, .. }
            | OpCode::ReadState { dest, .. }
            | OpCode::Crypto { dest, .. }
            | OpCode::RandInt { dest, .. }
            | OpCode::Checksum { dest, .. } => Some(dest),
            OpCode::CountState { dest, .. } => dest.as_mut(),
            _ => None,
        }
    }

    /// The stateful/functional object referenced by this operation, if any.
    pub fn object(&self) -> Option<&str> {
        match self {
            OpCode::Hash { object, .. }
            | OpCode::ReadState { object, .. }
            | OpCode::WriteState { object, .. }
            | OpCode::CountState { object, .. }
            | OpCode::ClearState { object }
            | OpCode::DeleteState { object, .. }
            | OpCode::Crypto { object, .. } => Some(object),
            _ => None,
        }
    }

    /// Mutable form of [`OpCode::object`].
    pub fn object_mut(&mut self) -> Option<&mut Name> {
        match self {
            OpCode::Hash { object, .. }
            | OpCode::ReadState { object, .. }
            | OpCode::WriteState { object, .. }
            | OpCode::CountState { object, .. }
            | OpCode::ClearState { object }
            | OpCode::DeleteState { object, .. }
            | OpCode::Crypto { object, .. } => Some(object),
            _ => None,
        }
    }

    /// The header fields this operation writes: `hdr.field = v`, and the keys
    /// of a `back`/`mirror` update dictionary.
    pub fn header_writes(&self) -> impl Iterator<Item = &str> {
        let (field, updates): (Option<&Name>, &[(Name, Operand)]) = match self {
            OpCode::SetHeader { field, .. } => (Some(field), &[]),
            OpCode::Back { updates } | OpCode::Mirror { updates } => (None, updates),
            _ => (None, &[]),
        };
        field.into_iter().chain(updates.iter().map(|(field, _)| field)).map(Name::as_str)
    }

    /// Whether the operation has packet-level side effects (drop/forward/etc.).
    pub fn is_packet_action(&self) -> bool {
        matches!(
            self,
            OpCode::Drop
                | OpCode::Forward
                | OpCode::Back { .. }
                | OpCode::Mirror { .. }
                | OpCode::Multicast { .. }
                | OpCode::CopyTo { .. }
        )
    }

    /// Short mnemonic used in dumps and by the backends.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            OpCode::Assign { .. } => "mov",
            OpCode::Alu { .. } => "alu",
            OpCode::Cmp { .. } => "cmp",
            OpCode::Hash { .. } => "hash",
            OpCode::ReadState { .. } => "get",
            OpCode::WriteState { .. } => "write",
            OpCode::CountState { .. } => "count",
            OpCode::ClearState { .. } => "clear",
            OpCode::DeleteState { .. } => "del",
            OpCode::Drop => "drop",
            OpCode::Forward => "fwd",
            OpCode::Back { .. } => "back",
            OpCode::Mirror { .. } => "mirror",
            OpCode::Multicast { .. } => "mcast",
            OpCode::CopyTo { .. } => "copyto",
            OpCode::SetHeader { .. } => "sethdr",
            OpCode::Crypto { .. } => "crypto",
            OpCode::RandInt { .. } => "randint",
            OpCode::Checksum { .. } => "csum",
            OpCode::NoOp => "nop",
        }
    }
}

/// A single IR instruction: an operation, an optional guard, and the annotation
/// metadata used for multi-user incremental compilation.
#[derive(Debug, Clone, PartialEq)]
pub struct Instruction {
    /// Stable identifier.
    pub id: InstrId,
    /// The operation.
    pub op: OpCode,
    /// Optional guard (predicated execution).
    pub guard: Option<Guard>,
    /// Owning user program annotations (paper §6, "annotation-based method").
    /// Empty for instructions belonging solely to the operator's base program.
    /// Shared instructions carry every owning user.
    pub owners: Vec<Name>,
}

impl Instruction {
    /// Create an unguarded instruction.
    pub fn new(id: u32, op: OpCode) -> Instruction {
        Instruction { id: InstrId(id), op, guard: None, owners: Vec::new() }
    }

    /// Create a guarded instruction.
    pub fn guarded(id: u32, op: OpCode, guard: Guard) -> Instruction {
        let guard = if guard.is_always() { None } else { Some(guard) };
        Instruction { id: InstrId(id), op, guard, owners: Vec::new() }
    }

    /// Attach an owner annotation (builder style).
    pub fn with_owner(mut self, owner: impl Into<Name>) -> Instruction {
        self.owners.push(owner.into());
        self
    }

    /// Whether the instruction belongs (only) to the operator's base program.
    pub fn is_base(&self) -> bool {
        self.owners.is_empty()
    }

    /// The destination variable written, if any.
    pub fn dest(&self) -> Option<&str> {
        self.op.dest()
    }

    /// The object referenced, if any.
    pub fn object(&self) -> Option<&str> {
        self.op.object()
    }

    /// Every operand the instruction reads: its guard's, then its
    /// operation's ([`OpCode::operands`]).
    pub fn reads(&self) -> impl Iterator<Item = &Operand> {
        self.guard.iter().flat_map(Guard::operands).chain(self.op.operands())
    }

    /// Mutable form of [`Instruction::reads`].
    pub fn reads_mut(&mut self) -> impl Iterator<Item = &mut Operand> {
        self.guard.iter_mut().flat_map(Guard::operands_mut).chain(self.op.operands_mut())
    }

    /// The temporaries among [`Instruction::reads`].
    pub fn read_vars(&self) -> impl Iterator<Item = &str> {
        self.reads().filter_map(Operand::as_var)
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(g) = &self.guard {
            write!(f, "[{}] ({}) ? {}", self.id, g, self.op.mnemonic())
        } else {
            write!(f, "[{}] {}", self.id, self.op.mnemonic())
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// One instruction per [`OpCode`] variant, in declaration order, the odd
    /// ones guarded.  Every name is unique within its instruction (`d` the
    /// destination, `a`/`b`/`c` operands, `f`/`g` written header fields, `p`/`q`
    /// the guard's), so a sorted list of visited names shows both coverage
    /// and multiplicity.  A new variant does not compile until it is numbered
    /// in [`variant_of`], and fails `fixture_covers_every_variant` until it
    /// is added here.
    pub(crate) fn one_of_each_opcode() -> Vec<Instruction> {
        let (v, h) = (Operand::var, Operand::hdr);
        let m = |name: &str| Operand::Meta(name.into());
        let d = || Name::from("d");
        let ops = vec![
            OpCode::Assign { dest: d(), src: v("a") },
            OpCode::Alu { dest: d(), op: AluOp::Add, lhs: v("a"), rhs: h("b"), float: false },
            OpCode::Cmp { dest: d(), op: CmpOp::Lt, lhs: m("a"), rhs: Operand::int(7) },
            OpCode::Hash { dest: d(), object: "hash".into(), keys: vec![h("a"), v("b")] },
            OpCode::ReadState {
                dest: d(),
                object: "rows".into(),
                index: vec![Operand::int(2), v("a")],
            },
            OpCode::WriteState {
                object: "rows".into(),
                index: vec![v("a")],
                value: vec![v("b"), h("c")],
            },
            OpCode::CountState {
                dest: Some(d()),
                object: "sketch".into(),
                index: vec![v("a")],
                delta: v("b"),
            },
            OpCode::ClearState { object: "rows".into() },
            OpCode::DeleteState { object: "lookup".into(), index: vec![h("a")] },
            OpCode::Drop,
            OpCode::Forward,
            OpCode::Back { updates: vec![("f".into(), v("a")), ("g".into(), h("b"))] },
            OpCode::Mirror { updates: vec![("f".into(), v("a"))] },
            OpCode::Multicast { group: v("a") },
            OpCode::CopyTo { target: "CPU".into(), values: vec![v("a"), v("b")] },
            OpCode::SetHeader { field: "f".into(), value: v("a") },
            OpCode::Crypto { dest: d(), object: "aes".into(), input: v("a"), encrypt: true },
            OpCode::RandInt { dest: d(), bound: v("a") },
            OpCode::Checksum { dest: d(), inputs: vec![v("a"), h("b")] },
            OpCode::NoOp,
        ];
        let guard = |id| match id % 2 {
            1 => Guard::single(Predicate::new(v("p"), CmpOp::Eq, h("q"))),
            _ => Guard::always(),
        };
        ops.into_iter()
            .enumerate()
            .map(|(id, op)| Instruction::guarded(id as u32, op, guard(id)))
            .collect()
    }

    /// Position of the variant in the fixture; exhaustive on purpose.
    fn variant_of(op: &OpCode) -> usize {
        match op {
            OpCode::Assign { .. } => 0,
            OpCode::Alu { .. } => 1,
            OpCode::Cmp { .. } => 2,
            OpCode::Hash { .. } => 3,
            OpCode::ReadState { .. } => 4,
            OpCode::WriteState { .. } => 5,
            OpCode::CountState { .. } => 6,
            OpCode::ClearState { .. } => 7,
            OpCode::DeleteState { .. } => 8,
            OpCode::Drop => 9,
            OpCode::Forward => 10,
            OpCode::Back { .. } => 11,
            OpCode::Mirror { .. } => 12,
            OpCode::Multicast { .. } => 13,
            OpCode::CopyTo { .. } => 14,
            OpCode::SetHeader { .. } => 15,
            OpCode::Crypto { .. } => 16,
            OpCode::RandInt { .. } => 17,
            OpCode::Checksum { .. } => 18,
            OpCode::NoOp => 19,
        }
    }

    fn operand_name(operand: &Operand) -> Option<&str> {
        match operand {
            Operand::Var(n) | Operand::Header(n) | Operand::Meta(n) => Some(n),
            Operand::Const(_) => None,
        }
    }

    #[test]
    fn fixture_covers_every_variant() {
        let seen: Vec<usize> = one_of_each_opcode().iter().map(|i| variant_of(&i.op)).collect();
        assert_eq!(seen, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn the_walk_visits_every_field_exactly_once() {
        for instr in one_of_each_opcode() {
            // the derived `Debug` prints every field of the variant, whatever
            // the walk does: its quoted strings are all the names there are
            // (`copyto`'s out-of-band target is no operand, variable, object
            // or header field)
            let printed = format!("{:?}", instr.op);
            let mut named: Vec<&str> =
                printed.split('"').skip(1).step_by(2).filter(|n| *n != "CPU").collect();
            let operands: usize = ["Var(", "Const(", "Header(", "Meta("]
                .iter()
                .map(|t| printed.matches(t).count())
                .sum();

            assert_eq!(instr.op.operands().count(), operands, "{printed}");
            let mut visited: Vec<&str> = instr
                .op
                .operands()
                .filter_map(operand_name)
                .chain(instr.op.dest())
                .chain(instr.op.object())
                .chain(instr.op.header_writes())
                .collect();
            named.sort_unstable();
            visited.sort_unstable();
            assert_eq!(visited, named, "{printed}");

            // the instruction-level walk is the guard's operands, then those
            let guard: Vec<&Operand> = instr.guard.iter().flat_map(Guard::operands).collect();
            assert_eq!(guard.len(), if instr.guard.is_some() { 2 } else { 0 });
            assert!(instr.reads().eq(guard.into_iter().chain(instr.op.operands())));
        }
    }

    #[test]
    fn renaming_through_the_mutable_walk_is_seen_by_the_shared_walk() {
        let rename = |name: &mut Name| *name = format!("t_{name}").into();
        for original in one_of_each_opcode() {
            let mut instr = original.clone();
            for operand in instr.reads_mut() {
                if let Operand::Var(v) = operand {
                    rename(v);
                }
            }
            instr.op.dest_mut().into_iter().for_each(rename);
            instr.op.object_mut().into_iter().for_each(rename);

            let renamed = |name: &str| name.starts_with("t_");
            assert!(instr.read_vars().all(renamed), "{instr:?}");
            assert!(instr.dest().into_iter().chain(instr.object()).all(renamed), "{instr:?}");
            // the same operands in the same order, nothing else touched
            let strip = |o: &Operand| match o {
                Operand::Var(v) => Operand::var(v.trim_start_matches("t_")),
                other => other.clone(),
            };
            assert!(instr.reads().map(strip).eq(original.reads().cloned()));
            assert_eq!(instr.dest().is_some(), original.dest().is_some());
            assert!(instr.op.header_writes().eq(original.op.header_writes()));
        }
    }

    fn alu(dest: &str) -> OpCode {
        OpCode::Alu {
            dest: dest.into(),
            op: AluOp::Add,
            lhs: Operand::var("a"),
            rhs: Operand::int(1),
            float: false,
        }
    }

    #[test]
    fn operand_helpers() {
        assert_eq!(Operand::int(3), Operand::Const(Value::Int(3)));
        assert_eq!(Operand::var("x").as_var(), Some("x"));
        assert_eq!(Operand::hdr("key").as_var(), None);
        assert_eq!(Operand::hdr("key").to_string(), "hdr.key");
        assert_eq!(Operand::Meta("step".into()).to_string(), "meta.step");
    }

    #[test]
    fn cmp_eval_and_negation() {
        assert!(CmpOp::Lt.eval_int(1, 2));
        assert!(!CmpOp::Lt.eval_int(2, 2));
        assert!(CmpOp::Ge.eval_int(2, 2));
        assert_eq!(CmpOp::Lt.negated(), CmpOp::Ge);
        assert_eq!(CmpOp::Eq.negated(), CmpOp::Ne);
        // negation is an involution
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            assert_eq!(op.negated().negated(), op);
        }
    }

    #[test]
    fn alu_complexity_classes() {
        assert!(AluOp::Mul.is_complex_int());
        assert!(AluOp::Mod.is_complex_int());
        assert!(!AluOp::Add.is_complex_int());
        assert!(!AluOp::Xor.is_complex_int());
    }

    #[test]
    fn guard_construction_and_display() {
        let g = Guard::single(Predicate::new(Operand::hdr("op"), CmpOp::Eq, Operand::int(1)))
            .and(Predicate::new(Operand::var("valid"), CmpOp::Ne, Operand::int(0)));
        assert_eq!(g.all.len(), 2);
        assert!(!g.is_always());
        assert_eq!(g.to_string(), "hdr.op == 1 && valid != 0");
        assert_eq!(Guard::always().to_string(), "true");
        assert!(Guard::always().is_always());
    }

    #[test]
    fn predicate_negation() {
        let p = Predicate::new(Operand::var("x"), CmpOp::Lt, Operand::int(10));
        assert_eq!(p.negated().op, CmpOp::Ge);
        assert_eq!(p.negated().negated(), p);
    }

    #[test]
    fn opcode_dest_and_object_extraction() {
        assert_eq!(alu("x").dest(), Some("x"));
        let read = OpCode::ReadState {
            dest: "v".into(),
            object: "cache".into(),
            index: vec![Operand::hdr("key")],
        };
        assert_eq!(read.dest(), Some("v"));
        assert_eq!(read.object(), Some("cache"));
        assert_eq!(OpCode::Drop.dest(), None);
        assert!(OpCode::Drop.is_packet_action());
        assert!(!alu("x").is_packet_action());
        let cnt = OpCode::CountState {
            dest: None,
            object: "cms".into(),
            index: vec![Operand::var("i")],
            delta: Operand::int(1),
        };
        assert_eq!(cnt.dest(), None);
        assert_eq!(cnt.object(), Some("cms"));
    }

    #[test]
    fn guarded_instruction_drops_trivial_guard() {
        let i = Instruction::guarded(0, OpCode::Drop, Guard::always());
        assert!(i.guard.is_none());
        let i = Instruction::guarded(
            1,
            OpCode::Drop,
            Guard::single(Predicate::new(Operand::var("x"), CmpOp::Eq, Operand::int(0))),
        );
        assert!(i.guard.is_some());
    }

    #[test]
    fn ownership_annotations() {
        let i = Instruction::new(0, OpCode::Forward);
        assert!(i.is_base());
        let i = i.with_owner("kvs_0");
        assert!(!i.is_base());
        assert_eq!(i.owners, vec!["kvs_0".to_string()]);
    }

    #[test]
    fn display_forms() {
        let i = Instruction::new(4, OpCode::Forward);
        assert_eq!(i.to_string(), "[i4] fwd");
        let g = Guard::single(Predicate::new(Operand::var("x"), CmpOp::Gt, Operand::int(0)));
        let i = Instruction::guarded(5, OpCode::Drop, g);
        assert_eq!(i.to_string(), "[i5] (x > 0) ? drop");
    }
}
