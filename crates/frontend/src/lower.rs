//! AST → IR lowering.
//!
//! See the crate-level documentation for the pass structure.  The lowering keeps
//! a per-scope environment mapping source names to *lowered values* (constants,
//! SSA operands, compile-time lists, object references or template instances),
//! materializes every branch condition into a boolean temporary, and emits
//! φ-style guarded merge copies at branch joins so the resulting instruction
//! stream is straight-line, predicated and in SSA form.
//!
//! Constants fold here, once, as the program lowers: every ALU and compare
//! goes through [`Builder::alu`] or [`Builder::compare`], which fold an
//! all-constant operation with the IR's reference semantics
//! ([`clickinc_ir::eval`]) and emit anything else.  So the frontend never
//! emits an ALU or compare instruction whose operands are both constants,
//! and a constant branch condition lowers only the branch its guard would
//! take; nothing downstream folds again.
//!
//! If-conversion keeps one environment.  Both arms of an `if` lower against
//! it in turn: an arm's first write to a name records the name's prior entry
//! in an undo log, and when the arm ends each logged name gets its prior
//! entry back while the log keeps the arm's own.  The join then visits only
//! the names either arm wrote, in sorted order, and binds each to its merged
//! value, emitting the guarded φ copies where the arms disagree.
//!
//! The walk over the AST ([`Lowerer`]) is split from the IR it builds
//! ([`Builder`]): the `def`s in scope borrow the program that defines them,
//! so a provider template, parsed during the lowering, is lowered by a
//! walker of its own over the same builder, with its own `def` scope.

use crate::error::FrontendError;
use clickinc_ir::analysis::{constant_indices, ConstIndex};
use clickinc_ir::eval;
use clickinc_ir::{
    AluOp, CmpOp, Guard, HashAlgo, Instruction, IrProgram, MatchKind, Name, ObjectDecl, ObjectKind,
    OpCode, Operand, Predicate, SketchKind, Value, ValueType,
};
use clickinc_lang::ast::{BinOp, BoolOp, Expr, Stmt, UnaryOp};
use clickinc_lang::templates::{mlagg_template, MlAggParams};
use clickinc_lang::{BuiltinFn, ModuleLibrary, ObjectCtor, PrimitiveKind, Program};
use std::collections::{BTreeMap, BTreeSet};

/// Options controlling compilation.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Known widths of application header fields.  Fields not listed default
    /// to [`CompileOptions::default_field_bits`].
    pub header_widths: BTreeMap<String, u16>,
    /// Default width for unknown header fields.
    pub default_field_bits: u16,
    /// Safety cap on the total number of unrolled loop iterations.
    pub max_unroll: usize,
}

impl Default for CompileOptions {
    fn default() -> Self {
        let mut header_widths = BTreeMap::new();
        header_widths.insert("key".to_string(), 128);
        header_widths.insert("op".to_string(), 8);
        header_widths.insert("bitmap".to_string(), 8);
        header_widths.insert("overflow".to_string(), 1);
        CompileOptions { header_widths, default_field_bits: 32, max_unroll: 65536 }
    }
}

/// The compiler frontend.
#[derive(Debug, Default)]
pub struct Frontend {
    library: ModuleLibrary,
}

impl Frontend {
    /// Create a frontend with the default module library.
    pub fn new() -> Frontend {
        Frontend { library: ModuleLibrary::new() }
    }

    /// Compile source text.
    pub fn compile_source(
        &self,
        name: &str,
        source: &str,
        opts: &CompileOptions,
    ) -> Result<IrProgram, FrontendError> {
        let ast = clickinc_lang::parse(source)?;
        self.compile_ast(name, &ast, opts)
    }

    /// Compile a parsed AST.
    pub fn compile_ast(
        &self,
        name: &str,
        program: &Program,
        opts: &CompileOptions,
    ) -> Result<IrProgram, FrontendError> {
        let mut ir = Builder::new(name, &self.library, opts);
        Lowerer { ir: &mut ir, funcs: BTreeMap::new() }.lower_block(&program.stmts)?;
        let ir = ir.finish();
        check_constant_indices(&ir)?;
        Ok(ir)
    }
}

/// Lower-time mirror of the verifier's `bounds` pass, judging the same
/// [`constant_indices`]: a *constant* index that
/// falls outside its object's declared geometry can never be right, so the
/// frontend rejects the program outright instead of letting the wrap-around
/// surface as a verifier diagnostic (or, pre-verifier, an emulator surprise).
/// Runtime (variable) indices are left to the emulator's modulo semantics.
fn check_constant_indices(program: &IrProgram) -> Result<(), FrontendError> {
    for instr in &program.instructions {
        let Some((object, indices)) = constant_indices(program, instr) else { continue };
        for ConstIndex { value, bound, what } in indices {
            if value < 0 || value as u64 >= bound {
                return Err(FrontendError::BadObjectUse {
                    object: object.to_string(),
                    reason: format!(
                        "constant {what} index {value} is out of bounds for the declared \
                         {what} count {bound}"
                    ),
                });
            }
        }
    }
    Ok(())
}

/// A compile-time value produced by expression lowering.
#[derive(Debug, Clone, PartialEq)]
enum Lowered {
    /// Compile-time integer constant.
    Const(i64),
    /// Compile-time float constant.
    ConstF(f64),
    /// Compile-time string (only meaningful inside constructor kwargs).
    Str(Name),
    /// A runtime operand (variable or header field).
    Op(Operand),
    /// The `None` literal / a missing value.
    NoneVal,
    /// A compile-time list (e.g. `vals = list()` + `vals.append(...)`).
    List(Vec<Lowered>),
    /// A reference to a declared object.
    Object(Name),
}

impl Lowered {
    fn const_int(&self) -> Option<i64> {
        match self {
            Lowered::Const(v) => Some(*v),
            Lowered::ConstF(v) => Some(*v as i64),
            _ => None,
        }
    }

    fn to_operand(&self) -> Result<Operand, FrontendError> {
        match self {
            Lowered::Const(v) => Ok(Operand::int(*v)),
            Lowered::ConstF(v) => Ok(Operand::Const(Value::Float(*v))),
            Lowered::Op(op) => Ok(op.clone()),
            Lowered::NoneVal => Ok(Operand::Const(Value::None)),
            Lowered::Str(s) => Ok(Operand::Const(Value::Bytes(s.as_bytes().to_vec()))),
            Lowered::List(_) => {
                Err(FrontendError::Unsupported("a list cannot be used as a runtime value".into()))
            }
            Lowered::Object(name) => Err(FrontendError::BadObjectUse {
                object: name.to_string(),
                reason: "objects cannot be used as scalar values".into(),
            }),
        }
    }

    fn is_float(&self) -> bool {
        matches!(self, Lowered::ConstF(_))
    }
}

/// `a ** b` and `pow(a, b)`: the IR has no power operation, so both operands
/// must be integer constants and the power folds here, refused where it has
/// no `i64` value.
fn power(a: &Lowered, b: &Lowered) -> Result<Lowered, FrontendError> {
    let (&Lowered::Const(a), &Lowered::Const(b)) = (a, b) else {
        return Err(FrontendError::Unsupported(
            "`**` and `pow()` need compile-time integer constant operands".into(),
        ));
    };
    if b < 0 {
        return Err(FrontendError::Unsupported(format!("`{a} ** {b}` has a negative exponent")));
    }
    let power = u32::try_from(b).ok().and_then(|b| a.checked_pow(b));
    power
        .map(Lowered::Const)
        .ok_or_else(|| FrontendError::Unsupported(format!("`{a} ** {b}` overflows i64")))
}

/// A template instantiated by the user program (e.g. `agg = MLAgg(...)`).
#[derive(Debug, Clone)]
struct TemplateInstance {
    template: Name,
    kwargs: BTreeMap<Name, i64>,
}

/// Environment entry.
#[derive(Debug, Clone)]
enum EnvEntry {
    Value(Lowered),
    Template(TemplateInstance),
}

type Env = BTreeMap<Name, EnvEntry>;

/// Names an `if` arm wrote, each with its entry before the arm while the
/// arm runs, and with the arm's own entry once the arm is parked (`None`:
/// unbound).
type UndoLog = Vec<(Name, Option<EnvEntry>)>;

/// A `def`'s parameters and body, borrowed from the program defining it.
type Func<'l> = (&'l [Name], &'l [Stmt]);

/// The IR under construction and the environment it is lowered against.
struct Builder<'a> {
    name: &'a str,
    library: &'a ModuleLibrary,
    opts: &'a CompileOptions,
    objects: Vec<ObjectDecl>,
    headers: BTreeMap<Name, u16>,
    instructions: Vec<Instruction>,
    next_instr: u32,
    next_tmp: u32,
    guard: Vec<Predicate>,
    env: Env,
    ret_slots: Vec<Name>,
    unrolled: usize,
    /// Temporaries known to hold `0` or `1`: comparison and `and`/`or`
    /// results.
    booleans: BTreeSet<Name>,
    /// Whether an `if` arm is being lowered, so that writes are logged.
    in_arm: bool,
    /// The innermost `if`'s undo log.
    undo: UndoLog,
    /// Where the running arm's entries start in `undo`.
    arm_start: usize,
}

/// The walk over one program's statements: the builder, and the `def`s in
/// scope.
struct Lowerer<'l, 'a> {
    ir: &'l mut Builder<'a>,
    funcs: BTreeMap<Name, Func<'l>>,
}

/// The enclosing `if`'s logging state, set aside while an inner `if` runs.
struct OuterArm {
    in_arm: bool,
    undo: UndoLog,
    arm_start: usize,
}

impl<'a> Builder<'a> {
    fn new(name: &'a str, library: &'a ModuleLibrary, opts: &'a CompileOptions) -> Builder<'a> {
        Builder {
            name,
            library,
            opts,
            objects: Vec::new(),
            headers: BTreeMap::new(),
            instructions: Vec::new(),
            next_instr: 0,
            next_tmp: 0,
            guard: Vec::new(),
            env: Env::new(),
            ret_slots: Vec::new(),
            unrolled: 0,
            booleans: BTreeSet::new(),
            in_arm: false,
            undo: UndoLog::new(),
            arm_start: 0,
        }
    }

    fn finish(self) -> IrProgram {
        let mut program = IrProgram::new(self.name);
        program.objects = self.objects;
        program.headers = self
            .headers
            .into_iter()
            .map(|(name, bits)| clickinc_ir::HeaderFieldDecl::new(name, ValueType::Bit(bits)))
            .collect();
        program.instructions = self.instructions;
        program
    }

    // ---- helpers -------------------------------------------------------------

    // each temporary's name is minted once, here, and shared by every use
    fn fresh_tmp(&mut self) -> Name {
        let t = format!("$t{}", self.next_tmp);
        self.next_tmp += 1;
        t.into()
    }

    fn fresh_phi(&mut self, base: &str) -> Name {
        let t = format!("{base}.{}", self.next_tmp);
        self.next_tmp += 1;
        t.into()
    }

    fn emit(&mut self, op: OpCode) {
        let id = self.next_instr;
        self.next_instr += 1;
        let instr = if self.guard.is_empty() {
            Instruction::new(id, op)
        } else {
            Instruction::guarded(id, op, Guard { all: self.guard.clone() })
        };
        self.instructions.push(instr);
    }

    fn emit_with_guard(&mut self, op: OpCode, guard: Vec<Predicate>) {
        let id = self.next_instr;
        self.next_instr += 1;
        let instr = if guard.is_empty() {
            Instruction::new(id, op)
        } else {
            Instruction::guarded(id, op, Guard { all: guard })
        };
        self.instructions.push(instr);
    }

    /// `lhs op rhs` on the `float` or integer unit: emitted into a fresh
    /// temporary, or folded when both operands are constants.  The fold is
    /// the IR's reference semantics ([`eval::alu`]), so a folded value is the
    /// one the data plane would compute, and the frontend never emits an
    /// all-constant ALU instruction.
    fn alu(
        &mut self,
        op: AluOp,
        lhs: &Lowered,
        rhs: &Lowered,
        float: bool,
    ) -> Result<Lowered, FrontendError> {
        let (lhs, rhs) = (lhs.to_operand()?, rhs.to_operand()?);
        if let (Operand::Const(a), Operand::Const(b)) = (&lhs, &rhs) {
            return Ok(match eval::alu(op, a, b, float) {
                Value::Float(v) => Lowered::ConstF(v),
                v => Lowered::Const(v.as_int().unwrap_or(0)),
            });
        }
        let dest = self.fresh_tmp();
        self.emit(OpCode::Alu { dest: dest.clone(), op, lhs, rhs, float });
        Ok(Lowered::Op(Operand::var(dest)))
    }

    /// `lhs op rhs` as a boolean: emitted like [`Builder::alu`], or folded by
    /// [`eval::compare`] to `0` or `1` when both operands are constants.
    fn compare(
        &mut self,
        op: CmpOp,
        lhs: &Lowered,
        rhs: &Lowered,
    ) -> Result<Lowered, FrontendError> {
        let (lhs, rhs) = (lhs.to_operand()?, rhs.to_operand()?);
        if let (Operand::Const(a), Operand::Const(b)) = (&lhs, &rhs) {
            return Ok(Lowered::Const(i64::from(eval::compare(a, op, b))));
        }
        let dest = self.fresh_tmp();
        self.emit(OpCode::Cmp { dest: dest.clone(), op, lhs, rhs });
        self.booleans.insert(dest.clone());
        Ok(Lowered::Op(Operand::var(dest)))
    }

    /// `value`'s truth as `0` or `1`: `value` itself when it is known to be
    /// one of them, else `value != 0`.
    fn truth(&mut self, value: Lowered) -> Result<Lowered, FrontendError> {
        let boolean = match &value {
            Lowered::Const(v) => *v == 0 || *v == 1,
            Lowered::Op(Operand::Var(name)) => self.booleans.contains(name),
            _ => false,
        };
        if boolean {
            Ok(value)
        } else {
            self.compare(CmpOp::Ne, &value, &Lowered::Const(0))
        }
    }

    /// Declare the header field `field` (at its configured width) on first
    /// sight; every later use shares the declaration's name.
    fn header_name(&mut self, field: &Name) -> Name {
        if let Some((name, _)) = self.headers.get_key_value(field) {
            return name.clone();
        }
        let bits = self
            .opts
            .header_widths
            .get(field.as_str())
            .copied()
            .unwrap_or(self.opts.default_field_bits);
        self.headers.insert(field.clone(), bits);
        field.clone()
    }

    /// The header field `field_index` of the header vector `field`.
    fn header_element(&mut self, field: &str, index: i64) -> Name {
        let element = format!("{field}_{index}");
        match self.headers.get_key_value(element.as_str()) {
            Some((name, _)) => name.clone(),
            None => self.header_name(&Name::from(element)),
        }
    }

    fn object_kind(&self, name: &str) -> Option<&ObjectKind> {
        self.objects.iter().find(|o| o.name == name).map(|o| &o.kind)
    }

    // ---- the environment -------------------------------------------------------

    fn set_value(&mut self, name: &Name, value: Lowered) {
        self.bind(name, Some(EnvEntry::Value(value)));
    }

    /// Bind `name` to `entry`, or unbind it when `entry` is `None`.
    fn bind(&mut self, name: &Name, entry: Option<EnvEntry>) {
        self.log_write(name);
        match (self.env.get_mut(name), entry) {
            (Some(slot), Some(entry)) => *slot = entry,
            (None, Some(entry)) => {
                self.env.insert(name.clone(), entry);
            }
            (_, None) => {
                self.env.remove(name);
            }
        }
    }

    /// Inside an `if` arm, record `name`'s entry before the arm's first
    /// write to it.
    fn log_write(&mut self, name: &Name) {
        if self.in_arm && !self.undo[self.arm_start..].iter().any(|(logged, _)| logged == name) {
            self.undo.push((name.clone(), self.env.get(name).cloned()));
        }
    }

    // ---- if-conversion ---------------------------------------------------------

    /// Start logging the arms of a new `if`; the enclosing `if`'s state is
    /// returned, to hand back to [`Builder::close_if`].
    fn open_if(&mut self) -> OuterArm {
        OuterArm {
            in_arm: std::mem::replace(&mut self.in_arm, true),
            undo: std::mem::take(&mut self.undo),
            arm_start: std::mem::replace(&mut self.arm_start, 0),
        }
    }

    /// End the running arm: every name it wrote gets its prior entry back,
    /// and the log keeps the arm's own entry instead.  The next arm logs
    /// after this one's entries; returns where this one's start.
    fn park_arm(&mut self) -> usize {
        for (name, logged) in &mut self.undo[self.arm_start..] {
            let arm_entry = match (self.env.get_mut(name), logged.take()) {
                (Some(slot), Some(prior)) => Some(std::mem::replace(slot, prior)),
                (None, Some(prior)) => {
                    self.env.insert(name.clone(), prior);
                    None
                }
                (Some(_), None) => self.env.remove(name),
                (None, None) => None,
            };
            *logged = arm_entry;
        }
        std::mem::replace(&mut self.arm_start, self.undo.len())
    }

    /// Restore the enclosing `if`'s logging state; returns this `if`'s log.
    fn close_if(&mut self, outer: OuterArm) -> UndoLog {
        self.in_arm = outer.in_arm;
        self.arm_start = outer.arm_start;
        std::mem::replace(&mut self.undo, outer.undo)
    }

    /// Join the parked arms of an `if` (`arms[..else_start]` the then-arm's,
    /// the rest the else-arm's), with the environment back at its state
    /// before the `if`: the names either arm wrote, in sorted order, are
    /// bound to their merged values.
    fn merge_branches(
        &mut self,
        mut arms: UndoLog,
        else_start: usize,
        pred_true: Predicate,
        pred_false: Predicate,
    ) -> Result<(), FrontendError> {
        let (then_arm, else_arm) = arms.split_at_mut(else_start);
        then_arm.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        else_arm.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let (mut then_arm, mut else_arm) =
            (then_arm.iter_mut().peekable(), else_arm.iter_mut().peekable());
        loop {
            // the next name in order, with what each arm that wrote it left
            let (name, t, e) = match (then_arm.peek(), else_arm.peek()) {
                (None, None) => break,
                (Some(t), Some(e)) if t.0 == e.0 => {
                    let (t, e) =
                        (then_arm.next().expect("peeked"), else_arm.next().expect("peeked"));
                    (&t.0, Some(t.1.take()), Some(e.1.take()))
                }
                (Some(t), e) if e.is_none_or(|e| t.0 < e.0) => {
                    let t = then_arm.next().expect("peeked");
                    (&t.0, Some(t.1.take()), None)
                }
                _ => {
                    let e = else_arm.next().expect("peeked");
                    (&e.0, None, Some(e.1.take()))
                }
            };
            // an arm that left the name alone leaves it at its prior entry
            let base = self.env.get(name);
            let existed_before = base.is_some();
            let (t, e) = (t.unwrap_or_else(|| base.cloned()), e.unwrap_or_else(|| base.cloned()));
            match (t, e) {
                (Some(EnvEntry::Value(tv)), Some(EnvEntry::Value(ev))) => {
                    if tv == ev {
                        self.set_value(name, tv);
                        continue;
                    }
                    // lists / objects / templates cannot be merged at runtime
                    if matches!(tv, Lowered::List(_)) || matches!(ev, Lowered::List(_)) {
                        return Err(FrontendError::Unsupported(format!(
                            "list `{name}` modified differently in the two branches"
                        )));
                    }
                    let phi = self.fresh_phi(name);
                    let t_op = tv.to_operand()?;
                    let e_op = ev.to_operand()?;
                    let mut g_then = self.guard.clone();
                    g_then.push(pred_true.clone());
                    self.emit_with_guard(OpCode::Assign { dest: phi.clone(), src: t_op }, g_then);
                    let mut g_else = self.guard.clone();
                    g_else.push(pred_false.clone());
                    self.emit_with_guard(OpCode::Assign { dest: phi.clone(), src: e_op }, g_else);
                    self.set_value(name, Lowered::Op(Operand::var(phi)));
                }
                // declared in one branch only (e.g. objects or templates);
                // keep it if it did not exist before, otherwise keep base.
                (Some(entry), None) | (None, Some(entry)) if !existed_before => {
                    self.bind(name, Some(entry));
                }
                (Some(EnvEntry::Template(t)), Some(EnvEntry::Template(_))) => {
                    self.bind(name, Some(EnvEntry::Template(t)));
                }
                _ => {}
            }
        }
        Ok(())
    }

    fn fold_reduction(
        &mut self,
        name: &str,
        alu: AluOp,
        items: Vec<Lowered>,
    ) -> Result<Lowered, FrontendError> {
        if items.is_empty() {
            return Err(FrontendError::BadArguments {
                callee: name.to_string(),
                reason: "reduction over an empty sequence".into(),
            });
        }
        let mut acc = items[0].clone();
        for item in &items[1..] {
            acc = self.alu(alu, &acc, item, false)?;
        }
        Ok(acc)
    }
}

impl<'l, 'a> Lowerer<'l, 'a> {
    fn lower_block(&mut self, stmts: &'l [Stmt]) -> Result<(), FrontendError> {
        for stmt in stmts {
            self.lower_stmt(stmt)?;
        }
        Ok(())
    }

    fn lower_stmt(&mut self, stmt: &'l Stmt) -> Result<(), FrontendError> {
        match stmt {
            Stmt::Import { .. } => Ok(()),
            Stmt::FuncDef { name, params, body } => {
                self.funcs.insert(name.clone(), (params, body));
                Ok(())
            }
            Stmt::Assign { targets, value } => self.lower_assign(targets, value),
            Stmt::AugAssign { target, op, value } => {
                // `target op= value` is `target = target op value`
                let lowered = self.lower_binop(*op, target, value)?;
                self.store(std::slice::from_ref(target), lowered)
            }
            Stmt::ExprStmt(e) => {
                self.lower_expr(e)?;
                Ok(())
            }
            Stmt::If { cond, body, orelse } => self.lower_if(cond, body, orelse),
            Stmt::For { var, iter, body } => self.lower_for(var, iter, body),
            Stmt::Return(value) => {
                let slot = self.ir.ret_slots.last().cloned().ok_or_else(|| {
                    FrontendError::Unsupported("`return` outside a function".into())
                })?;
                let lowered = match value {
                    Some(e) => self.lower_expr(e)?,
                    None => Lowered::NoneVal,
                };
                self.ir.set_value(&slot, lowered);
                Ok(())
            }
        }
    }

    fn lower_assign(&mut self, targets: &[Expr], value: &Expr) -> Result<(), FrontendError> {
        // Object constructors and template instantiations bind names rather than
        // producing runtime values, so they are dispatched on before general
        // expression lowering.
        if let Some((callee, args, kwargs)) = value.as_named_call() {
            if let Some(ctor) = ObjectCtor::from_name(callee) {
                let target = Self::single_name_target(targets, callee)?;
                return self.declare_object(target, ctor, args, kwargs);
            }
            if self.ir.library.template_id(callee).is_some() {
                let target = Self::single_name_target(targets, callee)?;
                let mut params = BTreeMap::new();
                for (k, v) in kwargs {
                    if let Some(c) = self.lower_expr(v)?.const_int() {
                        params.insert(k.clone(), c);
                    }
                }
                let instance = TemplateInstance { template: callee.clone(), kwargs: params };
                self.ir.bind(target, Some(EnvEntry::Template(instance)));
                return Ok(());
            }
            if matches!(BuiltinFn::from_name(callee), Some(BuiltinFn::List)) {
                let target = Self::single_name_target(targets, callee)?;
                self.ir.set_value(target, Lowered::List(Vec::new()));
                return Ok(());
            }
        }
        let lowered = self.lower_expr(value)?;
        self.store(targets, lowered)
    }

    /// Assign `lowered` to each of `targets`.
    fn store(&mut self, targets: &[Expr], lowered: Lowered) -> Result<(), FrontendError> {
        for target in targets {
            match target {
                Expr::Name(name) => {
                    self.ir.set_value(name, lowered.clone());
                }
                Expr::Attribute { .. } | Expr::Index { .. } => {
                    if let Some(field) = self.header_target_field(target)? {
                        let op = lowered.to_operand()?;
                        self.ir.emit(OpCode::SetHeader { field, value: op });
                    } else {
                        return Err(FrontendError::Unsupported(
                            "assignment target must be a name or a header field".into(),
                        ));
                    }
                }
                other => {
                    return Err(FrontendError::Unsupported(format!(
                        "unsupported assignment target {other:?}"
                    )))
                }
            }
        }
        Ok(())
    }

    fn single_name_target<'e>(
        targets: &'e [Expr],
        callee: &str,
    ) -> Result<&'e Name, FrontendError> {
        match targets {
            [Expr::Name(n)] => Ok(n),
            _ => Err(FrontendError::BadArguments {
                callee: callee.to_string(),
                reason: "constructor results must be assigned to a single name".into(),
            }),
        }
    }

    /// Resolve an assignment target that denotes a header field
    /// (`hdr.x` or `hdr.x[const]`), returning its flattened field name.
    fn header_target_field(&mut self, target: &Expr) -> Result<Option<Name>, FrontendError> {
        match target {
            Expr::Attribute { value, attr } => match value.as_ref() {
                Expr::Name(n) if n == "hdr" => Ok(Some(self.ir.header_name(attr))),
                _ => Ok(None),
            },
            Expr::Index { value, index } => {
                if let Expr::Attribute { value: base, attr } = value.as_ref() {
                    if matches!(base.as_ref(), Expr::Name(n) if n == "hdr") {
                        let idx = self.lower_expr(index)?.const_int().ok_or_else(|| {
                            FrontendError::Unsupported(
                                "header vector indices must be compile-time constants".into(),
                            )
                        })?;
                        return Ok(Some(self.ir.header_element(attr, idx)));
                    }
                }
                Ok(None)
            }
            _ => Ok(None),
        }
    }

    fn declare_object(
        &mut self,
        name: &Name,
        ctor: ObjectCtor,
        args: &[Expr],
        kwargs: &[(Name, Expr)],
    ) -> Result<(), FrontendError> {
        let mut kw: BTreeMap<&str, Lowered> = BTreeMap::new();
        for (k, v) in kwargs {
            kw.insert(k, self.lower_expr(v)?);
        }
        let int_kw = |kw: &BTreeMap<&str, Lowered>, key: &str, default: i64| -> i64 {
            kw.get(key).and_then(Lowered::const_int).unwrap_or(default)
        };
        let str_kw = |kw: &BTreeMap<&str, Lowered>, key: &str| -> Option<Name> {
            kw.get(key).and_then(|v| match v {
                Lowered::Str(s) => Some(s.clone()),
                _ => None,
            })
        };
        let kind = match ctor {
            ObjectCtor::Array => ObjectKind::Array {
                rows: int_kw(&kw, "row", 1) as u32,
                size: int_kw(&kw, "size", 1024) as u32,
                width: int_kw(&kw, "w", 32) as u16,
            },
            ObjectCtor::Seq => ObjectKind::Seq {
                size: int_kw(&kw, "size", 1024) as u32,
                width: int_kw(&kw, "w", 32) as u16,
            },
            ObjectCtor::Table => {
                let match_kind = match str_kw(&kw, "type").as_deref() {
                    Some("ternary") => MatchKind::Ternary,
                    Some("lpm") => MatchKind::Lpm,
                    Some("index") => MatchKind::Index,
                    _ => MatchKind::Exact,
                };
                ObjectKind::Table {
                    match_kind,
                    key_width: int_kw(&kw, "key_bits", 32) as u16,
                    value_width: int_kw(&kw, "val_bits", 32) as u16,
                    depth: int_kw(&kw, "depth", 1024) as u32,
                    stateful: int_kw(&kw, "stateful", 0) != 0,
                }
            }
            ObjectCtor::Sketch => {
                let skind = match str_kw(&kw, "type").as_deref() {
                    Some("bloom-filter") | Some("bloom") => SketchKind::Bloom,
                    _ => SketchKind::CountMin,
                };
                ObjectKind::Sketch {
                    kind: skind,
                    rows: int_kw(&kw, "rows", 3) as u32,
                    cols: int_kw(&kw, "cols", 1024) as u32,
                    width: int_kw(&kw, "w", if skind == SketchKind::Bloom { 1 } else { 32 }) as u16,
                }
            }
            ObjectCtor::Hash => {
                let algo = str_kw(&kw, "type")
                    .and_then(|s| HashAlgo::parse(&s))
                    .unwrap_or(HashAlgo::Crc16);
                let modulus = kw.get("ceil").and_then(Lowered::const_int).map(|v| v as u32);
                // a `key` kwarg, if given, was already lowered above
                // (registering its header fields); nothing further to do
                ObjectKind::Hash { algo, modulus }
            }
            ObjectCtor::Crypto => {
                let algo = match str_kw(&kw, "type").as_deref() {
                    Some("ecs") => clickinc_ir::CryptoAlgo::Ecs,
                    _ => clickinc_ir::CryptoAlgo::Aes,
                };
                ObjectKind::Crypto { algo }
            }
        };
        let _ = args; // positional constructor arguments are accepted but unused
        self.ir.set_value(name, Lowered::Object(name.clone()));
        self.ir.objects.push(ObjectDecl::new(name.clone(), kind));
        Ok(())
    }

    fn lower_if(
        &mut self,
        cond: &Expr,
        body: &'l [Stmt],
        orelse: &'l [Stmt],
    ) -> Result<(), FrontendError> {
        let c_op = self.lower_expr(cond)?.to_operand()?;
        // Constant condition: lower only the branch the guard would take.
        if let Operand::Const(v) = &c_op {
            let taken = eval::compare(v, CmpOp::Ne, &Value::Int(0));
            return if taken { self.lower_block(body) } else { self.lower_block(orelse) };
        }
        let pred_true = Predicate::new(c_op.clone(), CmpOp::Ne, Operand::int(0));
        let pred_false = Predicate::new(c_op, CmpOp::Eq, Operand::int(0));

        // both arms lower against the one environment, each undone in turn
        let outer = self.ir.open_if();
        self.ir.guard.push(pred_true.clone());
        self.lower_block(body)?;
        self.ir.guard.pop();
        self.ir.park_arm();

        self.ir.guard.push(pred_false.clone());
        self.lower_block(orelse)?;
        self.ir.guard.pop();
        let else_start = self.ir.park_arm();
        let arms = self.ir.close_if(outer);

        self.ir.merge_branches(arms, else_start, pred_true, pred_false)
    }

    fn lower_for(
        &mut self,
        var: &Name,
        iter: &Expr,
        body: &'l [Stmt],
    ) -> Result<(), FrontendError> {
        let values: Vec<i64> = match iter.as_named_call() {
            Some((name, args, _)) if name == "range" => {
                let consts: Option<Vec<i64>> =
                    args.iter().map(|a| self.lower_expr(a).ok()?.const_int()).collect();
                let consts =
                    consts.ok_or(FrontendError::NonConstantLoop { var: var.to_string() })?;
                match consts.as_slice() {
                    [stop] => (0..*stop).collect(),
                    [start, stop] => (*start..*stop).collect(),
                    [start, stop, step] if *step > 0 => {
                        (*start..*stop).step_by(*step as usize).collect()
                    }
                    _ => {
                        return Err(FrontendError::BadArguments {
                            callee: "range".into(),
                            reason: "expected 1-3 constant arguments".into(),
                        })
                    }
                }
            }
            _ => {
                // allow iterating a compile-time list of constants
                match self.lower_expr(iter)? {
                    Lowered::List(items) => {
                        let consts: Option<Vec<i64>> =
                            items.iter().map(Lowered::const_int).collect();
                        consts.ok_or(FrontendError::NonConstantLoop { var: var.to_string() })?
                    }
                    _ => return Err(FrontendError::NonConstantLoop { var: var.to_string() }),
                }
            }
        };
        self.ir.unrolled += values.len();
        if self.ir.unrolled > self.ir.opts.max_unroll {
            return Err(FrontendError::Unsupported(format!(
                "loop unrolling exceeds the {} iteration budget",
                self.ir.opts.max_unroll
            )));
        }
        for v in values {
            self.ir.set_value(var, Lowered::Const(v));
            self.lower_block(body)?;
        }
        Ok(())
    }

    // ---- expressions ---------------------------------------------------------

    fn lower_expr(&mut self, expr: &Expr) -> Result<Lowered, FrontendError> {
        match expr {
            Expr::Int(v) => Ok(Lowered::Const(*v)),
            Expr::Float(v) => Ok(Lowered::ConstF(*v)),
            Expr::Str(s) => Ok(Lowered::Str(s.clone())),
            Expr::Bool(b) => Ok(Lowered::Const(i64::from(*b))),
            Expr::NoneLit => Ok(Lowered::NoneVal),
            Expr::Name(name) => match self.ir.env.get(name) {
                Some(EnvEntry::Value(v)) => Ok(v.clone()),
                Some(EnvEntry::Template(_)) => Err(FrontendError::Unsupported(format!(
                    "template instance `{name}` can only be called"
                ))),
                None => Err(FrontendError::UndefinedName(name.to_string())),
            },
            Expr::Attribute { value, attr } => match value.as_ref() {
                Expr::Name(n) if n == "hdr" => {
                    Ok(Lowered::Op(Operand::Header(self.ir.header_name(attr))))
                }
                Expr::Name(n) if n == "meta" => Ok(Lowered::Op(Operand::Meta(attr.clone()))),
                _ => Err(FrontendError::Unsupported(format!(
                    "attribute access on `{value:?}` is not supported"
                ))),
            },
            Expr::Index { value, index } => self.lower_index(value, index),
            Expr::BinOp { op, lhs, rhs } => self.lower_binop(*op, lhs, rhs),
            Expr::Unary { op, operand } => self.lower_unary(*op, operand),
            Expr::Compare { op, lhs, rhs } => self.lower_compare(*op, lhs, rhs),
            Expr::BoolChain { op, values } => self.lower_boolchain(*op, values),
            Expr::List(items) => {
                let lowered: Result<Vec<Lowered>, _> =
                    items.iter().map(|e| self.lower_expr(e)).collect();
                Ok(Lowered::List(lowered?))
            }
            Expr::Dict(_) => Err(FrontendError::Unsupported(
                "dict literals are only allowed as header updates in back()/mirror()".into(),
            )),
            Expr::Call { func, args, kwargs } => self.lower_call(func, args, kwargs),
        }
    }

    fn lower_index(&mut self, value: &Expr, index: &Expr) -> Result<Lowered, FrontendError> {
        // hdr.field[i] with constant i flattens to the scalar field `field_i`
        if let Expr::Attribute { value: base, attr } = value {
            if matches!(base.as_ref(), Expr::Name(n) if n == "hdr") {
                let idx = self.lower_expr(index)?.const_int().ok_or_else(|| {
                    FrontendError::Unsupported(
                        "header vector indices must be compile-time constants".into(),
                    )
                })?;
                return Ok(Lowered::Op(Operand::Header(self.ir.header_element(attr, idx))));
            }
        }
        // list[i] with constant i
        let base = self.lower_expr(value)?;
        if let Lowered::List(items) = base {
            let idx = self.lower_expr(index)?.const_int().ok_or_else(|| {
                FrontendError::Unsupported("list indices must be compile-time constants".into())
            })?;
            return items.get(idx as usize).cloned().ok_or_else(|| {
                FrontendError::Unsupported(format!("list index {idx} out of range"))
            });
        }
        Err(FrontendError::Unsupported("indexing is only supported on hdr fields and lists".into()))
    }

    fn lower_binop(&mut self, op: BinOp, lhs: &Expr, rhs: &Expr) -> Result<Lowered, FrontendError> {
        let l = self.lower_expr(lhs)?;
        let r = self.lower_expr(rhs)?;
        let alu = match op {
            BinOp::Add => AluOp::Add,
            BinOp::Sub => AluOp::Sub,
            BinOp::Mul => AluOp::Mul,
            BinOp::Div | BinOp::FloorDiv => AluOp::Div,
            BinOp::Mod => AluOp::Mod,
            BinOp::BitAnd => AluOp::And,
            BinOp::BitOr => AluOp::Or,
            BinOp::BitXor => AluOp::Xor,
            BinOp::Shl => AluOp::Shl,
            BinOp::Shr => AluOp::Shr,
            BinOp::Pow => return power(&l, &r),
        };
        let float = l.is_float() || r.is_float();
        self.ir.alu(alu, &l, &r, float)
    }

    fn lower_unary(&mut self, op: UnaryOp, operand: &Expr) -> Result<Lowered, FrontendError> {
        let v = self.lower_expr(operand)?;
        match op {
            UnaryOp::Neg => self.ir.alu(AluOp::Sub, &Lowered::Const(0), &v, v.is_float()),
            UnaryOp::Invert => self.ir.alu(AluOp::Xor, &v, &Lowered::Const(-1), false),
            UnaryOp::Not => self.ir.compare(CmpOp::Eq, &v, &Lowered::Const(0)),
        }
    }

    fn lower_compare(
        &mut self,
        op: clickinc_lang::ast::CmpOp,
        lhs: &Expr,
        rhs: &Expr,
    ) -> Result<Lowered, FrontendError> {
        let l = self.lower_expr(lhs)?;
        let r = self.lower_expr(rhs)?;
        let ir_op = match op {
            clickinc_lang::ast::CmpOp::Eq => CmpOp::Eq,
            clickinc_lang::ast::CmpOp::Ne => CmpOp::Ne,
            clickinc_lang::ast::CmpOp::Lt => CmpOp::Lt,
            clickinc_lang::ast::CmpOp::Le => CmpOp::Le,
            clickinc_lang::ast::CmpOp::Gt => CmpOp::Gt,
            clickinc_lang::ast::CmpOp::Ge => CmpOp::Ge,
        };
        self.ir.compare(ir_op, &l, &r)
    }

    fn lower_boolchain(&mut self, op: BoolOp, values: &[Expr]) -> Result<Lowered, FrontendError> {
        let alu = match op {
            BoolOp::And => AluOp::And,
            BoolOp::Or => AluOp::Or,
        };
        let mut acc: Option<Lowered> = None;
        for value in values {
            let v = self.lower_expr(value)?;
            acc = Some(match acc {
                None => v,
                Some(prev) => {
                    if let (Some(a), Some(b)) = (prev.const_int(), v.const_int()) {
                        let folded = match op {
                            BoolOp::And => i64::from(a != 0 && b != 0),
                            BoolOp::Or => i64::from(a != 0 || b != 0),
                        };
                        Lowered::Const(folded)
                    } else {
                        // logical, as the constant arm: a bitwise `And` of
                        // `2` and `1` would be false
                        let (prev, v) = (self.ir.truth(prev)?, self.ir.truth(v)?);
                        let result = self.ir.alu(alu, &prev, &v, false)?;
                        if let Lowered::Op(Operand::Var(dest)) = &result {
                            self.ir.booleans.insert(dest.clone());
                        }
                        result
                    }
                }
            });
        }
        Ok(acc.unwrap_or(Lowered::Const(1)))
    }

    // ---- calls ---------------------------------------------------------------

    fn lower_call(
        &mut self,
        func: &Expr,
        args: &[Expr],
        kwargs: &[(Name, Expr)],
    ) -> Result<Lowered, FrontendError> {
        // method-style calls: list.append(x)
        if let Expr::Attribute { value, attr } = func {
            if let Expr::Name(obj) = value.as_ref() {
                if attr == "append" {
                    return self.lower_list_append(obj, args);
                }
                if attr == "read" || attr == "get" {
                    // obj.read(index) sugar for get(obj, index)
                    return self.lower_state_primitive(PrimitiveKind::Get, Some(value), args);
                }
            }
            return Err(FrontendError::Unsupported(format!(
                "method call `{attr}` is not supported"
            )));
        }

        let name = match func {
            Expr::Name(n) => n,
            _ => return Err(FrontendError::Unsupported("indirect calls are not supported".into())),
        };

        // template instance invocation, e.g. `agg(hdr)`
        if let Some(EnvEntry::Template(inst)) = self.ir.env.get(name) {
            let inst = inst.clone();
            return self.expand_template(name, &inst);
        }

        // user-defined function inlining
        if let Some(&(params, body)) = self.funcs.get(name) {
            return self.inline_function(name, params, body, args);
        }

        // float intrinsics used by templates targeting FPGA/NFP devices
        if let Some(alu) = match name.as_str() {
            "fadd" => Some(AluOp::Add),
            "fsub" => Some(AluOp::Sub),
            "fmul" => Some(AluOp::Mul),
            "fdiv" => Some(AluOp::Div),
            _ => None,
        } {
            if args.len() != 2 {
                return Err(FrontendError::BadArguments {
                    callee: name.to_string(),
                    reason: "expected exactly two arguments".into(),
                });
            }
            let l = self.lower_expr(&args[0])?;
            let r = self.lower_expr(&args[1])?;
            return self.ir.alu(alu, &l, &r, true);
        }

        if let Some(prim) = PrimitiveKind::from_name(name) {
            return self.lower_primitive(prim, args, kwargs);
        }
        if let Some(builtin) = BuiltinFn::from_name(name) {
            return self.lower_builtin(builtin, name, args);
        }
        Err(FrontendError::UnknownCall(name.to_string()))
    }

    fn lower_list_append(&mut self, list: &Name, args: &[Expr]) -> Result<Lowered, FrontendError> {
        let value = match args {
            [one] => self.lower_expr(one)?,
            _ => {
                return Err(FrontendError::BadArguments {
                    callee: "append".into(),
                    reason: "expected exactly one argument".into(),
                })
            }
        };
        self.ir.log_write(list);
        match self.ir.env.get_mut(list) {
            Some(EnvEntry::Value(Lowered::List(items))) => {
                items.push(value);
                Ok(Lowered::NoneVal)
            }
            _ => Err(FrontendError::BadObjectUse {
                object: list.to_string(),
                reason: "append() is only valid on list() values".into(),
            }),
        }
    }

    fn expand_template(
        &mut self,
        instance_name: &str,
        inst: &TemplateInstance,
    ) -> Result<Lowered, FrontendError> {
        let get = |k: &str, d: i64| inst.kwargs.get(k).copied().unwrap_or(d);
        let source = match inst.template.as_str() {
            "MLAgg" => {
                let params = MlAggParams {
                    num_aggregators: get("row", 5000) as u32,
                    dims: get("dim", 24) as u32,
                    num_workers: get("workers", 4) as u32,
                    is_float: get("is_convert", 0) != 0 || get("is_float", 0) != 0,
                };
                mlagg_template(instance_name, params).source
            }
            "KVS" => {
                let params = clickinc_lang::templates::KvsParams {
                    cache_depth: get("depth", 5000) as u32,
                    ..Default::default()
                };
                clickinc_lang::templates::kvs_template(instance_name, params).source
            }
            "DQAcc" => {
                let params = clickinc_lang::templates::DqAccParams {
                    depth: get("depth", 5000) as u32,
                    ways: get("ways", 8) as u32,
                };
                clickinc_lang::templates::dqacc_template(instance_name, params).source
            }
            other => {
                return Err(FrontendError::UnknownCall(format!("template `{other}`")));
            }
        };
        // the template's statements borrow its parse, so they are walked in a
        // scope of their own: the builder is shared, the `def`s are not
        let ast = clickinc_lang::parse(&source)?;
        Lowerer { ir: &mut *self.ir, funcs: BTreeMap::new() }.lower_block(&ast.stmts)?;
        Ok(Lowered::NoneVal)
    }

    fn inline_function(
        &mut self,
        name: &str,
        params: &[Name],
        body: &'l [Stmt],
        args: &[Expr],
    ) -> Result<Lowered, FrontendError> {
        if params.len() != args.len() {
            return Err(FrontendError::BadArguments {
                callee: name.to_string(),
                reason: format!("expected {} arguments, got {}", params.len(), args.len()),
            });
        }
        let lowered_args: Result<Vec<Lowered>, _> =
            args.iter().map(|a| self.lower_expr(a)).collect();
        let lowered_args = lowered_args?;
        // bind parameters in a child scope; restore shadowed names afterwards
        let saved: Vec<Option<EnvEntry>> =
            params.iter().map(|p| self.ir.env.get(p).cloned()).collect();
        for (p, v) in params.iter().zip(lowered_args) {
            self.ir.set_value(p, v);
        }
        let slot = Name::from(format!("$ret{}", self.ir.next_tmp));
        self.ir.next_tmp += 1;
        self.ir.ret_slots.push(slot.clone());
        self.ir.set_value(&slot, Lowered::NoneVal);
        self.lower_block(body)?;
        self.ir.ret_slots.pop();
        let result = match self.ir.env.get(&slot) {
            Some(EnvEntry::Value(v)) => v.clone(),
            _ => Lowered::NoneVal,
        };
        self.ir.bind(&slot, None);
        for (p, old) in params.iter().zip(saved) {
            self.ir.bind(p, old);
        }
        Ok(result)
    }

    fn lower_primitive(
        &mut self,
        prim: PrimitiveKind,
        args: &[Expr],
        kwargs: &[(Name, Expr)],
    ) -> Result<Lowered, FrontendError> {
        match prim {
            PrimitiveKind::Drop => {
                self.ir.emit(OpCode::Drop);
                Ok(Lowered::NoneVal)
            }
            PrimitiveKind::Forward => {
                self.ir.emit(OpCode::Forward);
                Ok(Lowered::NoneVal)
            }
            PrimitiveKind::Back | PrimitiveKind::Mirror => {
                let updates = self.lower_header_updates(args, kwargs)?;
                if prim == PrimitiveKind::Back {
                    self.ir.emit(OpCode::Back { updates });
                } else {
                    self.ir.emit(OpCode::Mirror { updates });
                }
                Ok(Lowered::NoneVal)
            }
            PrimitiveKind::Multicast => {
                let group = match args.first() {
                    Some(e) => self.lower_expr(e)?.to_operand()?,
                    None => Operand::int(0),
                };
                self.ir.emit(OpCode::Multicast { group });
                Ok(Lowered::NoneVal)
            }
            PrimitiveKind::CopyTo => {
                let target = match args.first() {
                    Some(Expr::Str(s)) => s.clone(),
                    _ => "CPU".into(),
                };
                let values: Result<Vec<Operand>, _> = args
                    .iter()
                    .skip(1)
                    .map(|e| self.lower_expr(e).and_then(|l| l.to_operand()))
                    .collect();
                self.ir.emit(OpCode::CopyTo { target, values: values? });
                Ok(Lowered::NoneVal)
            }
            PrimitiveKind::Get
            | PrimitiveKind::Write
            | PrimitiveKind::Count
            | PrimitiveKind::Clear
            | PrimitiveKind::Del => {
                let rest = args.get(1..).unwrap_or_default();
                self.lower_state_primitive(prim, args.first(), rest)
            }
        }
    }

    fn lower_header_updates(
        &mut self,
        args: &[Expr],
        kwargs: &[(Name, Expr)],
    ) -> Result<Vec<(Name, Operand)>, FrontendError> {
        let mut dict_expr: Option<&Expr> = None;
        for (k, v) in kwargs {
            if k == "hdr" {
                dict_expr = Some(v);
            }
        }
        if dict_expr.is_none() {
            if let Some(first) = args.first() {
                if matches!(first, Expr::Dict(_)) {
                    dict_expr = Some(first);
                }
            }
        }
        let mut updates = Vec::new();
        if let Some(Expr::Dict(pairs)) = dict_expr {
            for (k, v) in pairs {
                let field = match k {
                    Expr::Name(field) | Expr::Str(field) => field,
                    other => {
                        return Err(FrontendError::BadArguments {
                            callee: "back/mirror".into(),
                            reason: format!("header update keys must be names, got {other:?}"),
                        })
                    }
                };
                let value = self.lower_expr(v)?.to_operand()?;
                updates.push((self.ir.header_name(field), value));
            }
        }
        Ok(updates)
    }

    /// `prim(object, rest...)`.
    fn lower_state_primitive(
        &mut self,
        prim: PrimitiveKind,
        object: Option<&Expr>,
        rest: &[Expr],
    ) -> Result<Lowered, FrontendError> {
        // `del(hdr.feat[i])` removes a header field (sparse-gradient use case)
        if prim == PrimitiveKind::Del {
            if let Some(first) = object {
                if let Some(field) = self.header_target_field(first)? {
                    self.ir.emit(OpCode::SetHeader { field, value: Operand::Const(Value::None) });
                    return Ok(Lowered::NoneVal);
                }
            }
        }
        let object = match object {
            Some(e) => match self.lower_expr(e)? {
                Lowered::Object(name) => name,
                other => {
                    return Err(FrontendError::BadArguments {
                        callee: format!("{prim:?}"),
                        reason: format!("first argument must be an object, got {other:?}"),
                    })
                }
            },
            None => {
                return Err(FrontendError::BadArguments {
                    callee: format!("{prim:?}"),
                    reason: "missing object argument".into(),
                })
            }
        };
        let rest: Result<Vec<Operand>, _> =
            rest.iter().map(|e| self.lower_expr(e).and_then(|l| l.to_operand())).collect();
        let mut rest = rest?;
        let is_hash = matches!(self.ir.object_kind(&object), Some(ObjectKind::Hash { .. }));
        match prim {
            PrimitiveKind::Get => {
                let dest = self.ir.fresh_tmp();
                if is_hash {
                    self.ir.emit(OpCode::Hash { dest: dest.clone(), object, keys: rest });
                } else {
                    self.ir.emit(OpCode::ReadState { dest: dest.clone(), object, index: rest });
                }
                Ok(Lowered::Op(Operand::var(dest)))
            }
            PrimitiveKind::Write => {
                if rest.is_empty() {
                    return Err(FrontendError::BadArguments {
                        callee: "write".into(),
                        reason: "expected an index/key and a value".into(),
                    });
                }
                let value = rest.split_off(rest.len() - 1);
                self.ir.emit(OpCode::WriteState { object, index: rest, value });
                Ok(Lowered::NoneVal)
            }
            PrimitiveKind::Count => {
                let delta = rest.pop().unwrap_or(Operand::int(1));
                let dest = self.ir.fresh_tmp();
                let index = rest;
                self.ir.emit(OpCode::CountState { dest: Some(dest.clone()), object, index, delta });
                Ok(Lowered::Op(Operand::var(dest)))
            }
            PrimitiveKind::Clear => {
                self.ir.emit(OpCode::ClearState { object });
                Ok(Lowered::NoneVal)
            }
            PrimitiveKind::Del => {
                self.ir.emit(OpCode::DeleteState { object, index: rest });
                Ok(Lowered::NoneVal)
            }
            _ => unreachable!("non-state primitive dispatched to lower_state_primitive"),
        }
    }

    fn lower_builtin(
        &mut self,
        builtin: BuiltinFn,
        name: &str,
        args: &[Expr],
    ) -> Result<Lowered, FrontendError> {
        let lowered: Result<Vec<Lowered>, _> = args.iter().map(|a| self.lower_expr(a)).collect();
        let mut lowered = lowered?;
        // single list argument expands to its elements for reductions
        let reduction =
            matches!(builtin, BuiltinFn::Min | BuiltinFn::Max | BuiltinFn::Sum | BuiltinFn::Len);
        if let [Lowered::List(items)] = lowered.as_mut_slice() {
            if reduction {
                lowered = std::mem::take(items);
                if matches!(builtin, BuiltinFn::Len) {
                    return Ok(Lowered::Const(lowered.len() as i64));
                }
            }
        }
        match builtin {
            BuiltinFn::Min | BuiltinFn::Max | BuiltinFn::Sum => {
                let alu = match builtin {
                    BuiltinFn::Min => AluOp::Min,
                    BuiltinFn::Max => AluOp::Max,
                    _ => AluOp::Add,
                };
                self.ir.fold_reduction(name, alu, lowered)
            }
            BuiltinFn::Abs => match lowered.first() {
                Some(v) => {
                    // `max(v, 0 - v)`
                    let neg = self.ir.alu(AluOp::Sub, &Lowered::Const(0), v, false)?;
                    self.ir.alu(AluOp::Max, v, &neg, false)
                }
                None => Err(FrontendError::BadArguments {
                    callee: name.to_string(),
                    reason: "expected one argument".into(),
                }),
            },
            BuiltinFn::Len => match lowered.first() {
                Some(Lowered::List(items)) => Ok(Lowered::Const(items.len() as i64)),
                _ => Err(FrontendError::BadArguments {
                    callee: name.to_string(),
                    reason: "len() requires a list".into(),
                }),
            },
            BuiltinFn::Pow => match lowered.as_slice() {
                [a, b] => power(a, b),
                _ => Err(FrontendError::BadArguments {
                    callee: name.to_string(),
                    reason: "expected two arguments".into(),
                }),
            },
            BuiltinFn::Round | BuiltinFn::Ceil | BuiltinFn::Floor => match lowered.first() {
                Some(Lowered::ConstF(v)) => Ok(Lowered::Const(match builtin {
                    BuiltinFn::Ceil => v.ceil() as i64,
                    BuiltinFn::Floor => v.floor() as i64,
                    _ => v.round() as i64,
                })),
                Some(v) => Ok(v.clone()),
                None => Err(FrontendError::BadArguments {
                    callee: name.to_string(),
                    reason: "expected one argument".into(),
                }),
            },
            BuiltinFn::Sqrt => match lowered.first().and_then(Lowered::const_int) {
                Some(v) if v >= 0 => Ok(Lowered::Const((v as f64).sqrt() as i64)),
                _ => Err(FrontendError::Unsupported(
                    "sqrt() requires a non-negative compile-time constant".into(),
                )),
            },
            BuiltinFn::RandInt => {
                let bound = match lowered.first() {
                    Some(v) => v.to_operand()?,
                    None => Operand::int(i64::MAX),
                };
                let dest = self.ir.fresh_tmp();
                self.ir.emit(OpCode::RandInt { dest: dest.clone(), bound });
                Ok(Lowered::Op(Operand::var(dest)))
            }
            BuiltinFn::Slice => {
                let value = lowered.first().ok_or_else(|| FrontendError::BadArguments {
                    callee: name.to_string(),
                    reason: "expected slice(value, hi, lo)".into(),
                })?;
                let hi = lowered.get(1).and_then(Lowered::const_int).unwrap_or(31);
                let lo = lowered.get(2).and_then(Lowered::const_int).unwrap_or(0);
                self.ir.alu(AluOp::Slice, value, &Lowered::Const((hi << 8) | lo), false)
            }
            BuiltinFn::List => Ok(Lowered::List(lowered)),
            BuiltinFn::Dict => Err(FrontendError::Unsupported(
                "dict() values are not supported on the data plane".into(),
            )),
            BuiltinFn::Range => Err(FrontendError::Unsupported(
                "range() is only valid as a `for` loop iterator".into(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clickinc_ir::CapabilityClass;
    use clickinc_lang::templates::{
        count_min_sketch, dqacc_template, kvs_template, mlagg_sparse_user, DqAccParams, KvsParams,
    };

    fn compile(src: &str) -> IrProgram {
        Frontend::new().compile_source("test", src, &CompileOptions::default()).expect("compiles")
    }

    #[test]
    fn straight_line_constant_folding() {
        let ir = compile("x = 2 * 3 + 4\ny = x + hdr.seq\nforward()\n");
        // x folds away; only the y ALU and the forward remain
        assert_eq!(ir.len(), 2);
        match &ir.instructions[0].op {
            OpCode::Alu { lhs, .. } => assert_eq!(*lhs, Operand::int(10)),
            other => panic!("unexpected {other:?}"),
        }
        assert!(ir.validate().is_ok());
    }

    #[test]
    fn constant_folding_wraps_like_the_data_plane() {
        // each overflows `i64`: folded as the ALU runs it, never a panic
        let sources = ["sum(9223372036854775807, 1)", "abs(-9223372036854775807 - 1)"];
        for expr in sources.into_iter().chain(["-(-9223372036854775807 - 1)"]) {
            let ir = compile(&format!("hdr.seq = {expr}\nforward()\n"));
            match &ir.instructions[0].op {
                OpCode::SetHeader { value, .. } => {
                    assert_eq!(*value, Operand::int(i64::MIN), "{expr}")
                }
                other => panic!("{expr}: unexpected {other:?}"),
            }
        }
        // `//` folds as the ALU's `Div`; `**` out of range still fails
        let ir = compile("hdr.seq = (-7) // 2\nforward()\n");
        assert!(
            matches!(&ir.instructions[0].op, OpCode::SetHeader { value, .. } if *value == Operand::int(-3))
        );
        let err = Frontend::new().compile_source(
            "test",
            "hdr.seq = 2 ** 64\nforward()\n",
            &CompileOptions::default(),
        );
        assert!(matches!(err, Err(FrontendError::Unsupported(_))), "{err:?}");
    }

    /// The one constant `hdr.out = {expr}` writes.
    fn written(expr: &str) -> Operand {
        let ir = compile(&format!("hdr.out = {expr}\nforward()\n"));
        assert_eq!(ir.len(), 2, "{expr} folds: {}", ir.dump());
        match &ir.instructions[0].op {
            OpCode::SetHeader { value, .. } => value.clone(),
            other => panic!("{expr}: unexpected {other:?}"),
        }
    }

    #[test]
    fn float_constants_fold_in_the_frontend() {
        // a negated float literal folds as the subtraction it means
        for expr in ["-1.5", "0 - 1.5"] {
            assert_eq!(written(expr), Operand::Const(Value::Float(-1.5)), "{expr}");
        }
        for expr in ["1.5 * 2.0", "fadd(1, 2)"] {
            assert_eq!(written(expr), Operand::Const(Value::Float(3.0)), "{expr}");
        }
    }

    #[test]
    fn runtime_boolean_operators_are_logical() {
        // an operand not known to be 0 or 1 is compared with 0 first
        let ir = compile("hdr.out = 2 and hdr.a\nforward()\n");
        assert!(
            matches!(
                &ir.instructions[0].op,
                OpCode::Cmp { op: CmpOp::Ne, lhs: Operand::Header(a), rhs, .. }
                    if a == "a" && *rhs == Operand::int(0)
            ),
            "{}",
            ir.dump()
        );
        // comparisons and `and`/`or` results are already 0 or 1
        let ir = compile("hdr.out = hdr.a == 1 and hdr.b < 2 or hdr.c > 3\nforward()\n");
        let cmps = ir.instructions.iter().filter(|i| matches!(i.op, OpCode::Cmp { .. })).count();
        assert_eq!(cmps, 3, "{}", ir.dump());
    }

    #[test]
    fn powers_fold_checked_or_are_refused() {
        assert_eq!(written("pow(2, 10)"), Operand::int(1024));
        assert_eq!(written("2 ** 10"), Operand::int(1024));
        let refusal = |expr: &str| {
            let source = format!("hdr.out = {expr}\nforward()\n");
            match Frontend::new().compile_source("test", &source, &CompileOptions::default()) {
                Err(FrontendError::Unsupported(message)) => message,
                other => panic!("{expr}: expected a refusal, got {other:?}"),
            }
        };
        // out of `i64` range is refused, never clamped or wrapped
        for expr in ["pow(3, 40)", "pow(2, 70)", "2 ** 70"] {
            assert!(refusal(expr).contains("overflows i64"), "{expr}: {}", refusal(expr));
        }
        assert!(refusal("2 ** -1").contains("negative exponent"));
        for expr in ["hdr.a ** 2", "pow(2.0, 3)"] {
            let message = refusal(expr);
            assert!(message.contains("compile-time integer constant"), "{expr}: {message}");
        }
    }

    #[test]
    fn integer_literals_outside_i64_are_refused_not_read_as_zero() {
        for (literal, text) in [
            ("99999999999999999999", "99999999999999999999"),
            ("0xFFFFFFFFFFFFFFFFFF", "0xFFFFFFFFFFFFFFFFFF"),
            ("0x", "0x"),
            ("-9223372036854775808", "9223372036854775808"),
        ] {
            let source = format!("hdr.out = {literal}\nforward()\n");
            match Frontend::new().compile_source("test", &source, &CompileOptions::default()) {
                Err(FrontendError::Lang(clickinc_lang::LangError::BadNumber {
                    text: refused,
                    ..
                })) => assert_eq!(refused, text, "{literal}"),
                other => panic!("{literal}: expected a refusal, got {other:?}"),
            }
        }
        assert_eq!(written("9223372036854775807"), Operand::int(i64::MAX));
        assert_eq!(written("-9223372036854775807 - 1"), Operand::int(i64::MIN));
    }

    #[test]
    fn crlf_line_endings_compile_to_the_same_ir() {
        let lf = "if hdr.a == 1:\n    hdr.b = 1\n\n    hdr.c = 2\nforward()\n";
        let sources = template_grid().into_iter().map(|(_, source)| source);
        for source in sources.chain([lf.to_string()]) {
            assert_eq!(compile(&source.replace('\n', "\r\n")), compile(&source), "{source}");
        }
    }

    /// The provider-template grid, labelled: KVS depths × CMS rows, MLAgg
    /// dims × int/float × aggregators × workers, CMS rows × columns, DQAcc
    /// and the sparse-MLAgg user program.
    fn template_grid() -> Vec<(String, String)> {
        let mut sources = Vec::new();
        for cache_depth in [64, 1000, 1001, 1063, 2000] {
            for cms_rows in [2, 3, 4] {
                let p = KvsParams { cache_depth, cms_rows, ..Default::default() };
                let label = format!("kvs depth={cache_depth} cms_rows={cms_rows}");
                sources.push((label, kvs_template("kvs", p).source));
            }
        }
        for dims in (4..=32).step_by(4) {
            for is_float in [false, true] {
                for num_aggregators in [256, 1024, 4096] {
                    for num_workers in [2, 4, 8] {
                        let p = MlAggParams { num_aggregators, num_workers, dims, is_float };
                        let label = format!(
                            "mlagg dims={dims} float={is_float} aggregators={num_aggregators} \
                             workers={num_workers}"
                        );
                        sources.push((label, mlagg_template("mlagg", p).source));
                    }
                }
            }
        }
        for rows in [2, 3, 4] {
            for cols in [128, 512, 543, 1024] {
                let label = format!("cms rows={rows} cols={cols}");
                sources.push((label, count_min_sketch("cms", rows, cols).source));
            }
        }
        let dqacc = dqacc_template("dqacc", DqAccParams::default()).source;
        sources.push(("dqacc default".to_string(), dqacc));
        let dqacc = dqacc_template("dqacc", DqAccParams { depth: 32, ways: 4 }).source;
        sources.push(("dqacc depth=32 ways=4".to_string(), dqacc));
        let sparse = MlAggParams { dims: 8, num_aggregators: 64, ..Default::default() };
        let source = mlagg_sparse_user("sparse", sparse, 2, 4).source;
        sources.push(("sparse dims=8 aggregators=64".to_string(), source));
        sources
    }

    /// Programs whose every computation is constant, labelled by their index.
    fn constant_sources() -> Vec<(String, String)> {
        let constants = [
            "hdr.out = -1.5 * hdr.a\n",
            "x = None\nhdr.out = x + 1\n",
            "hdr.out = not None\n",
            "hdr.out = abs(None) + ~1.5\n",
            "hdr.out = max(None, 2.5, True) + sum(True, 2.5)\n",
            "hdr.out = fadd(1, 2.5) + slice(300, 7, 4)\n",
            "hdr.out = (None == None) + (1.5 < 2) + (None and 1)\n",
            "if None:\n    drop()\n",
            "if 0.5:\n    drop()\nelse:\n    hdr.out = True\n",
            "if hdr.a == 1.5 or None:\n    hdr.out = -True\n",
        ];
        (0..)
            .zip(constants)
            .map(|(i, s)| (format!("constant {i}"), format!("{s}forward()\n")))
            .collect()
    }

    /// The frontend's output for every grid and constant program, pinned
    /// byte for byte: one line per program with the FNV of its `dump()` and
    /// of its `{:?}`.  Regenerate with `UPDATE_GOLDEN=1 cargo test -p
    /// clickinc_frontend` and review the diff.
    #[test]
    fn grid_and_constant_programs_compile_to_their_golden_ir() {
        let fnv = |text: &str| {
            let mut h = clickinc_ir::Fnv::new();
            h.write_str(text);
            h.finish()
        };
        let mut lines = String::new();
        for (label, source) in template_grid().into_iter().chain(constant_sources()) {
            let ir = compile(&source);
            let (dump, debug) = (fnv(&ir.dump()), fnv(&format!("{ir:?}")));
            lines.push_str(&format!("{label}: dump {dump:016x} debug {debug:016x}\n"));
        }
        let path =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/grid_ir.txt");
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::create_dir_all(path.parent().expect("golden dir")).expect("golden dir");
            std::fs::write(&path, &lines).expect("write golden");
            return;
        }
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!("missing golden {} ({e}); run UPDATE_GOLDEN=1 cargo test", path.display())
        });
        for (got, want) in lines.lines().zip(want.lines()) {
            assert_eq!(got, want, "frontend output drifted from {}", path.display());
        }
        assert_eq!(lines.lines().count(), want.lines().count(), "{}", path.display());
    }

    #[test]
    fn no_all_constant_computation_reaches_the_ir() {
        let grid = template_grid();
        assert_eq!(grid.len(), 174);
        for (_, source) in grid.into_iter().chain(constant_sources()) {
            let ir = compile(&source);
            let constant = |op: &Operand| matches!(op, Operand::Const(_));
            for instr in &ir.instructions {
                if let OpCode::Alu { lhs, rhs, .. } | OpCode::Cmp { lhs, rhs, .. } = &instr.op {
                    assert!(!(constant(lhs) && constant(rhs)), "{instr} in\n{source}");
                }
                for p in instr.guard.iter().flat_map(|g| &g.all) {
                    assert!(!(constant(&p.lhs) && constant(&p.rhs)), "{instr} in\n{source}");
                }
            }
        }
    }

    #[test]
    fn if_conversion_produces_guarded_instructions_and_phi() {
        let ir =
            compile("x = 0\nif hdr.op == 1:\n    x = 5\nelse:\n    x = 7\ny = x + 1\nforward()\n");
        assert!(ir.validate().is_ok());
        // there must be at least: cmp, two guarded phi assigns, the add, forward
        let guarded = ir.instructions.iter().filter(|i| i.guard.is_some()).count();
        assert!(guarded >= 2, "expected phi copies to be guarded, got {}", ir.dump());
        // and the add must read the phi variable, not the constant
        let add = ir
            .instructions
            .iter()
            .find(|i| matches!(&i.op, OpCode::Alu { op: AluOp::Add, .. }))
            .expect("add present");
        match &add.op {
            OpCode::Alu { lhs, .. } => assert!(matches!(lhs, Operand::Var(_))),
            _ => unreachable!(),
        }
    }

    #[test]
    fn nested_ifs_conjoin_guards() {
        let ir = compile("if hdr.a == 1:\n    if hdr.b == 2:\n        drop()\nforward()\n");
        let drop =
            ir.instructions.iter().find(|i| matches!(i.op, OpCode::Drop)).expect("drop present");
        assert_eq!(drop.guard.as_ref().unwrap().all.len(), 2, "{}", ir.dump());
    }

    #[test]
    fn constant_out_of_bounds_index_is_rejected_at_lower_time() {
        // cell 9 on a size-4 array would silently wrap in the emulator; the
        // frontend must refuse the program before it can reach the service
        let err = Frontend::new()
            .compile_source(
                "oob",
                "ctr = Array(row=1, size=4, w=32)\ncount(ctr, 9, 1)\nforward()\n",
                &CompileOptions::default(),
            )
            .expect_err("constant out-of-bounds index must not compile");
        match err {
            FrontendError::BadObjectUse { object, reason } => {
                assert_eq!(object, "ctr");
                assert!(reason.contains("out of bounds"), "{reason}");
            }
            other => panic!("unexpected error {other:?}"),
        }
        // an in-bounds constant on the same geometry stays fine
        compile("ctr = Array(row=1, size=4, w=32)\ncount(ctr, 3, 1)\nforward()\n");
    }

    #[test]
    fn constant_condition_prunes_the_untaken_branch() {
        let ir = compile("FLAG = 0\nif FLAG == 1:\n    drop()\nelse:\n    forward()\n");
        assert!(ir.instructions.iter().all(|i| !matches!(i.op, OpCode::Drop)));
        assert_eq!(ir.len(), 1);
    }

    #[test]
    fn loops_unroll_with_constant_bounds() {
        let ir = compile(
            "acc = Array(row=1, size=16, w=32)\nfor i in range(4):\n    count(acc, i, 1)\nforward()\n",
        );
        let counts =
            ir.instructions.iter().filter(|i| matches!(i.op, OpCode::CountState { .. })).count();
        assert_eq!(counts, 4);
    }

    #[test]
    fn non_constant_loop_bound_is_an_error() {
        let err = Frontend::new()
            .compile_source("p", "for i in range(hdr.n):\n    x = i\n", &CompileOptions::default())
            .unwrap_err();
        assert!(matches!(err, FrontendError::NonConstantLoop { .. }));
    }

    #[test]
    fn undefined_names_are_reported() {
        let err = Frontend::new()
            .compile_source("p", "x = y + 1\n", &CompileOptions::default())
            .unwrap_err();
        assert!(matches!(err, FrontendError::UndefinedName(n) if n == "y"));
    }

    #[test]
    fn unknown_calls_are_reported() {
        let err = Frontend::new()
            .compile_source("p", "x = frobnicate(1)\n", &CompileOptions::default())
            .unwrap_err();
        assert!(matches!(err, FrontendError::UnknownCall(_)));
    }

    #[test]
    fn user_functions_inline() {
        let src = "\
def comp(v1, v2):
    if v1 < v2:
        return v1
    else:
        return v2
a = comp(hdr.x, hdr.y)
hdr.out = a
forward()
";
        let ir = compile(src);
        assert!(ir.validate().is_ok());
        // the comparison and the phi copies got inlined
        assert!(ir.instructions.iter().any(|i| matches!(i.op, OpCode::Cmp { .. })));
        assert!(ir.instructions.iter().any(|i| matches!(i.op, OpCode::SetHeader { .. })));
    }

    #[test]
    fn count_min_sketch_example_compiles_like_fig1() {
        let t = count_min_sketch("cms", 3, 65536);
        let ir =
            Frontend::new().compile_source("cms", &t.source, &CompileOptions::default()).unwrap();
        assert!(ir.validate().is_ok());
        // 3 counts (one per row) folded through min
        let counts =
            ir.instructions.iter().filter(|i| matches!(i.op, OpCode::CountState { .. })).count();
        assert_eq!(counts, 3);
        let mins = ir
            .instructions
            .iter()
            .filter(|i| matches!(&i.op, OpCode::Alu { op: AluOp::Min, .. }))
            .count();
        assert_eq!(mins, 2, "min over a 3-element list folds into 2 Min ops");
        assert!(ir.required_capabilities().contains(&CapabilityClass::Bso));
    }

    #[test]
    fn kvs_template_compiles_and_validates() {
        let t = kvs_template("kvs_0", KvsParams::default());
        let ir =
            Frontend::new().compile_source("kvs_0", &t.source, &CompileOptions::default()).unwrap();
        assert!(ir.validate().is_ok(), "{}", ir.dump());
        let caps = ir.required_capabilities();
        assert!(caps.contains(&CapabilityClass::Bem) || caps.contains(&CapabilityClass::Bsem));
        assert!(caps.contains(&CapabilityClass::Bso));
        assert!(caps.contains(&CapabilityClass::Baf));
        assert!(caps.contains(&CapabilityClass::Bbpf));
        assert_eq!(ir.objects.len(), 5, "cache, hits, cms, bf, hidx");
        assert!(ir.len() > 10 && ir.len() < 80, "KVS IR size = {}", ir.len());
    }

    #[test]
    fn mlagg_template_compiles_with_and_without_floats() {
        let int_t = mlagg_template("mlagg_0", MlAggParams { dims: 8, ..Default::default() });
        let ir = Frontend::new()
            .compile_source("mlagg_0", &int_t.source, &CompileOptions::default())
            .unwrap();
        assert!(ir.validate().is_ok());
        assert!(!ir.required_capabilities().contains(&CapabilityClass::Bca));

        let float_t = mlagg_template(
            "mlagg_f",
            MlAggParams { dims: 8, is_float: true, ..Default::default() },
        );
        let ir_f = Frontend::new()
            .compile_source("mlagg_f", &float_t.source, &CompileOptions::default())
            .unwrap();
        assert!(ir_f.validate().is_ok());
        assert!(ir_f.required_capabilities().contains(&CapabilityClass::Bca));
    }

    #[test]
    fn dqacc_template_compiles() {
        let t = dqacc_template("dqacc_0", DqAccParams { depth: 1000, ways: 4 });
        let ir = Frontend::new()
            .compile_source("dqacc_0", &t.source, &CompileOptions::default())
            .unwrap();
        assert!(ir.validate().is_ok(), "{}", ir.dump());
        assert!(
            !ir.required_capabilities().contains(&CapabilityClass::Bic),
            "the rolling pointer wraps with a mask, so DQAcc stays ASIC-placeable"
        );
        assert!(ir.required_capabilities().contains(&CapabilityClass::Bso));
    }

    #[test]
    fn sparse_mlagg_user_program_expands_the_template() {
        let t = mlagg_sparse_user(
            "sparse_0",
            MlAggParams { dims: 8, num_aggregators: 64, ..Default::default() },
            2,
            4,
        );
        let ir = Frontend::new()
            .compile_source("sparse_0", &t.source, &CompileOptions::default())
            .unwrap();
        assert!(ir.validate().is_ok());
        // the sparse detection writes None into header fields (block deletion)
        assert!(ir.instructions.iter().any(|i| matches!(
            &i.op,
            OpCode::SetHeader { value: Operand::Const(Value::None), .. }
        )));
        // and the MLAgg template body was inlined (aggregator arrays exist)
        assert!(ir.object("agg_data_t").is_some());
        assert!(ir.len() > 40);
    }

    #[test]
    fn back_and_mirror_updates_lower_to_header_rewrites() {
        let ir = compile("REPLY = 2\nif hdr.op == 1:\n    back(hdr={op: REPLY, vals: hdr.vals})\nelse:\n    mirror(hdr={overflow: 1})\nforward()\n");
        let back = ir
            .instructions
            .iter()
            .find(|i| matches!(i.op, OpCode::Back { .. }))
            .expect("back emitted");
        match &back.op {
            OpCode::Back { updates } => {
                assert_eq!(updates.len(), 2);
                assert_eq!(updates[0].0, "op");
                assert_eq!(updates[0].1, Operand::int(2));
            }
            _ => unreachable!(),
        }
        assert!(ir.instructions.iter().any(|i| matches!(i.op, OpCode::Mirror { .. })));
    }

    #[test]
    fn del_on_header_field_becomes_none_write() {
        let ir = compile("del(hdr.feat[3])\nforward()\n");
        match &ir.instructions[0].op {
            OpCode::SetHeader { field, value } => {
                assert_eq!(field, "feat_3");
                assert_eq!(*value, Operand::Const(Value::None));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn augmented_assignment_desugars() {
        let ir = compile("x = hdr.a\nx += 1\nhdr.out = x\nforward()\n");
        assert!(ir
            .instructions
            .iter()
            .any(|i| matches!(&i.op, OpCode::Alu { op: AluOp::Add, .. })));
        assert!(ir.validate().is_ok());
    }

    #[test]
    fn loop_budget_is_enforced() {
        let opts = CompileOptions { max_unroll: 10, ..Default::default() };
        let err = Frontend::new()
            .compile_source("p", "for i in range(100):\n    hdr.x = i\n", &opts)
            .unwrap_err();
        assert!(matches!(err, FrontendError::Unsupported(_)));
    }

    #[test]
    fn boolean_chains_combine_conditions() {
        let ir = compile("if hdr.a == 1 and hdr.b == 2:\n    drop()\nforward()\n");
        // two cmps and one AND
        assert!(ir
            .instructions
            .iter()
            .any(|i| matches!(&i.op, OpCode::Alu { op: AluOp::And, .. })));
        let drop = ir.instructions.iter().find(|i| matches!(i.op, OpCode::Drop)).unwrap();
        assert_eq!(drop.guard.as_ref().unwrap().all.len(), 1);
    }

    #[test]
    fn ssa_no_duplicate_unconditional_writes() {
        // re-assignments create new versions / rebind, so validation's SSA check passes
        let ir = compile("x = hdr.a\nx = x + 1\nx = x + 2\nhdr.out = x\nforward()\n");
        assert!(ir.validate().is_ok());
    }
}
