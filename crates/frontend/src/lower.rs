//! AST → IR lowering.
//!
//! See the crate-level documentation for the pass structure.  The lowering keeps
//! a per-scope environment mapping source names to *lowered values* (constants,
//! SSA operands, compile-time lists, object references or template instances),
//! materializes every branch condition into a boolean temporary, and emits
//! φ-style guarded merge copies at branch joins so the resulting instruction
//! stream is straight-line, predicated and in SSA form.

use crate::error::FrontendError;
use clickinc_ir::analysis::{constant_indices, ConstIndex};
use clickinc_ir::eval::alu_int;
use clickinc_ir::{
    AluOp, CmpOp, Guard, HashAlgo, Instruction, IrProgram, MatchKind, ObjectDecl, ObjectKind,
    OpCode, Operand, Predicate, SketchKind, Value, ValueType,
};
use clickinc_lang::ast::{BinOp, BoolOp, Expr, Stmt, UnaryOp};
use clickinc_lang::templates::{mlagg_template, MlAggParams};
use clickinc_lang::{BuiltinFn, ModuleLibrary, ObjectCtor, PrimitiveKind, Program};
use std::collections::BTreeMap;

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
        let mut lower = Lowerer::new(name, &self.library, opts);
        lower.lower_block(&program.stmts)?;
        let ir = lower.finish();
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
    Str(String),
    /// A runtime operand (variable or header field).
    Op(Operand),
    /// The `None` literal / a missing value.
    NoneVal,
    /// A compile-time list (e.g. `vals = list()` + `vals.append(...)`).
    List(Vec<Lowered>),
    /// A reference to a declared object.
    Object(String),
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
                object: name.clone(),
                reason: "objects cannot be used as scalar values".into(),
            }),
        }
    }

    fn is_float(&self) -> bool {
        matches!(self, Lowered::ConstF(_))
    }
}

/// A template instantiated by the user program (e.g. `agg = MLAgg(...)`).
#[derive(Debug, Clone)]
struct TemplateInstance {
    template: String,
    kwargs: BTreeMap<String, i64>,
}

/// Environment entry.
#[derive(Debug, Clone)]
enum EnvEntry {
    Value(Lowered),
    Template(TemplateInstance),
}

type Env = BTreeMap<String, EnvEntry>;

struct Lowerer<'a> {
    name: String,
    library: &'a ModuleLibrary,
    opts: &'a CompileOptions,
    objects: Vec<ObjectDecl>,
    headers: BTreeMap<String, u16>,
    instructions: Vec<Instruction>,
    next_instr: u32,
    next_tmp: u32,
    guard: Vec<Predicate>,
    env: Env,
    funcs: BTreeMap<String, (Vec<String>, Vec<Stmt>)>,
    ret_slots: Vec<String>,
    unrolled: usize,
}

impl<'a> Lowerer<'a> {
    fn new(name: &str, library: &'a ModuleLibrary, opts: &'a CompileOptions) -> Lowerer<'a> {
        Lowerer {
            name: name.to_string(),
            library,
            opts,
            objects: Vec::new(),
            headers: BTreeMap::new(),
            instructions: Vec::new(),
            next_instr: 0,
            next_tmp: 0,
            guard: Vec::new(),
            env: Env::new(),
            funcs: BTreeMap::new(),
            ret_slots: Vec::new(),
            unrolled: 0,
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

    fn fresh_tmp(&mut self) -> String {
        let t = format!("$t{}", self.next_tmp);
        self.next_tmp += 1;
        t
    }

    fn fresh_phi(&mut self, base: &str) -> String {
        let t = format!("{base}.{}", self.next_tmp);
        self.next_tmp += 1;
        t
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

    fn header_field(&mut self, field: &str) -> Operand {
        let bits =
            self.opts.header_widths.get(field).copied().unwrap_or(self.opts.default_field_bits);
        self.headers.entry(field.to_string()).or_insert(bits);
        Operand::hdr(field)
    }

    fn lookup(&self, name: &str) -> Option<&EnvEntry> {
        self.env.get(name)
    }

    fn set_value(&mut self, name: &str, value: Lowered) {
        self.env.insert(name.to_string(), EnvEntry::Value(value));
    }

    fn object_kind(&self, name: &str) -> Option<&ObjectKind> {
        self.objects.iter().find(|o| o.name == name).map(|o| &o.kind)
    }

    // ---- statements ----------------------------------------------------------

    fn lower_block(&mut self, stmts: &[Stmt]) -> Result<(), FrontendError> {
        for stmt in stmts {
            self.lower_stmt(stmt)?;
        }
        Ok(())
    }

    fn lower_stmt(&mut self, stmt: &Stmt) -> Result<(), FrontendError> {
        match stmt {
            Stmt::Import { .. } => Ok(()),
            Stmt::FuncDef { name, params, body } => {
                self.funcs.insert(name.clone(), (params.clone(), body.clone()));
                Ok(())
            }
            Stmt::Assign { targets, value } => self.lower_assign(targets, value),
            Stmt::AugAssign { target, op, value } => {
                let desugared = Expr::BinOp {
                    op: *op,
                    lhs: Box::new(target.clone()),
                    rhs: Box::new(value.clone()),
                };
                self.lower_assign(std::slice::from_ref(target), &desugared)
            }
            Stmt::ExprStmt(e) => {
                self.lower_expr(e)?;
                Ok(())
            }
            Stmt::If { cond, body, orelse } => self.lower_if(cond, body, orelse),
            Stmt::For { var, iter, body } => self.lower_for(var, iter, body),
            Stmt::Return(value) => {
                let slot = self.ret_slots.last().cloned().ok_or_else(|| {
                    FrontendError::Unsupported("`return` outside a function".into())
                })?;
                let lowered = match value {
                    Some(e) => self.lower_expr(e)?,
                    None => Lowered::NoneVal,
                };
                self.set_value(&slot, lowered);
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
                return self.declare_object(&target, ctor, args, kwargs);
            }
            if self.library.template_id(callee).is_some() {
                let target = Self::single_name_target(targets, callee)?;
                let mut params = BTreeMap::new();
                for (k, v) in kwargs {
                    if let Some(c) = self.lower_expr(v)?.const_int() {
                        params.insert(k.clone(), c);
                    }
                }
                self.env.insert(
                    target,
                    EnvEntry::Template(TemplateInstance {
                        template: callee.to_string(),
                        kwargs: params,
                    }),
                );
                return Ok(());
            }
            if matches!(BuiltinFn::from_name(callee), Some(BuiltinFn::List)) {
                let target = Self::single_name_target(targets, callee)?;
                self.set_value(&target, Lowered::List(Vec::new()));
                return Ok(());
            }
        }

        let lowered = self.lower_expr(value)?;
        for target in targets {
            match target {
                Expr::Name(name) => {
                    self.set_value(name, lowered.clone());
                }
                Expr::Attribute { .. } | Expr::Index { .. } => {
                    if let Some(field) = self.header_target_field(target)? {
                        let op = lowered.to_operand()?;
                        self.header_field(&field);
                        self.emit(OpCode::SetHeader { field, value: op });
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

    fn single_name_target(targets: &[Expr], callee: &str) -> Result<String, FrontendError> {
        match targets {
            [Expr::Name(n)] => Ok(n.clone()),
            _ => Err(FrontendError::BadArguments {
                callee: callee.to_string(),
                reason: "constructor results must be assigned to a single name".into(),
            }),
        }
    }

    /// Resolve an assignment target that denotes a header field
    /// (`hdr.x` or `hdr.x[const]`), returning its flattened field name.
    fn header_target_field(&mut self, target: &Expr) -> Result<Option<String>, FrontendError> {
        match target {
            Expr::Attribute { value, attr } => match value.as_ref() {
                Expr::Name(n) if n == "hdr" => Ok(Some(attr.clone())),
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
                        return Ok(Some(format!("{attr}_{idx}")));
                    }
                }
                Ok(None)
            }
            _ => Ok(None),
        }
    }

    fn declare_object(
        &mut self,
        name: &str,
        ctor: ObjectCtor,
        args: &[Expr],
        kwargs: &[(String, Expr)],
    ) -> Result<(), FrontendError> {
        let mut kw: BTreeMap<String, Lowered> = BTreeMap::new();
        for (k, v) in kwargs {
            kw.insert(k.clone(), self.lower_expr(v)?);
        }
        let int_kw = |kw: &BTreeMap<String, Lowered>, key: &str, default: i64| -> i64 {
            kw.get(key).and_then(Lowered::const_int).unwrap_or(default)
        };
        let str_kw = |kw: &BTreeMap<String, Lowered>, key: &str| -> Option<String> {
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
        self.objects.push(ObjectDecl::new(name, kind));
        self.set_value(name, Lowered::Object(name.to_string()));
        Ok(())
    }

    fn lower_if(
        &mut self,
        cond: &Expr,
        body: &[Stmt],
        orelse: &[Stmt],
    ) -> Result<(), FrontendError> {
        let c = self.lower_expr(cond)?;
        // Constant condition: lower only the taken branch.
        if let Some(v) = c.const_int() {
            return if v != 0 { self.lower_block(body) } else { self.lower_block(orelse) };
        }
        let c_op = c.to_operand()?;
        let pred_true = Predicate::new(c_op.clone(), CmpOp::Ne, Operand::int(0));
        let pred_false = Predicate::new(c_op, CmpOp::Eq, Operand::int(0));

        let base_env = self.env.clone();

        self.guard.push(pred_true.clone());
        self.lower_block(body)?;
        self.guard.pop();
        let then_env = std::mem::replace(&mut self.env, base_env.clone());

        self.guard.push(pred_false.clone());
        self.lower_block(orelse)?;
        self.guard.pop();
        let else_env = std::mem::replace(&mut self.env, base_env.clone());

        self.merge_branches(&base_env, then_env, else_env, pred_true, pred_false)
    }

    fn merge_branches(
        &mut self,
        base_env: &Env,
        then_env: Env,
        else_env: Env,
        pred_true: Predicate,
        pred_false: Predicate,
    ) -> Result<(), FrontendError> {
        let mut names: Vec<String> = then_env.keys().chain(else_env.keys()).cloned().collect();
        names.sort();
        names.dedup();
        for name in names {
            let base = base_env.get(&name);
            let t = then_env.get(&name);
            let e = else_env.get(&name);
            match (t, e) {
                (Some(EnvEntry::Value(tv)), Some(EnvEntry::Value(ev))) => {
                    if tv == ev {
                        self.env.insert(name, EnvEntry::Value(tv.clone()));
                        continue;
                    }
                    // lists / objects / templates cannot be merged at runtime
                    if matches!(tv, Lowered::List(_)) || matches!(ev, Lowered::List(_)) {
                        return Err(FrontendError::Unsupported(format!(
                            "list `{name}` modified differently in the two branches"
                        )));
                    }
                    let existed_before = base.is_some();
                    let changed_then = !matches!(base, Some(EnvEntry::Value(bv)) if bv == tv);
                    let changed_else = !matches!(base, Some(EnvEntry::Value(bv)) if bv == ev);
                    if !existed_before && (!changed_then || !changed_else) {
                        // defined in only one branch and unknown otherwise: the
                        // value is unusable after the join, so drop it.
                        continue;
                    }
                    let phi = self.fresh_phi(&name);
                    let t_op = tv.to_operand()?;
                    let e_op = ev.to_operand()?;
                    let mut g_then = self.guard.clone();
                    g_then.push(pred_true.clone());
                    self.emit_with_guard(OpCode::Assign { dest: phi.clone(), src: t_op }, g_then);
                    let mut g_else = self.guard.clone();
                    g_else.push(pred_false.clone());
                    self.emit_with_guard(OpCode::Assign { dest: phi.clone(), src: e_op }, g_else);
                    self.env.insert(name, EnvEntry::Value(Lowered::Op(Operand::var(phi))));
                }
                (Some(entry), None) | (None, Some(entry))
                    // declared in one branch only (e.g. objects or templates);
                    // keep it if it did not exist before, otherwise keep base.
                    if base.is_none() => {
                        self.env.insert(name, entry.clone());
                    }
                (Some(EnvEntry::Template(t)), Some(EnvEntry::Template(_))) => {
                    self.env.insert(name, EnvEntry::Template(t.clone()));
                }
                _ => {}
            }
        }
        Ok(())
    }

    fn lower_for(&mut self, var: &str, iter: &Expr, body: &[Stmt]) -> Result<(), FrontendError> {
        let values: Vec<i64> = match iter.as_named_call() {
            Some(("range", args, _)) => {
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
        self.unrolled += values.len();
        if self.unrolled > self.opts.max_unroll {
            return Err(FrontendError::Unsupported(format!(
                "loop unrolling exceeds the {} iteration budget",
                self.opts.max_unroll
            )));
        }
        for v in values {
            self.set_value(var, Lowered::Const(v));
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
            Expr::Name(name) => match self.lookup(name) {
                Some(EnvEntry::Value(v)) => Ok(v.clone()),
                Some(EnvEntry::Template(_)) => Err(FrontendError::Unsupported(format!(
                    "template instance `{name}` can only be called"
                ))),
                None => Err(FrontendError::UndefinedName(name.clone())),
            },
            Expr::Attribute { value, attr } => match value.as_ref() {
                Expr::Name(n) if n == "hdr" => Ok(Lowered::Op(self.header_field(attr))),
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
                return Ok(Lowered::Op(self.header_field(&format!("{attr}_{idx}"))));
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
        let float = l.is_float() || r.is_float();
        let consts = match (l.const_int(), r.const_int()) {
            (Some(a), Some(b)) if !float => Some((a, b)),
            _ => None,
        };
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
            BinOp::Pow => {
                // the IR has no power operation: `**` folds in range or fails
                let power = consts.and_then(|(a, b)| a.checked_pow(u32::try_from(b).ok()?));
                return power.map(Lowered::Const).ok_or_else(|| {
                    FrontendError::Unsupported(
                        "`**` requires compile-time constant operands".into(),
                    )
                });
            }
        };
        // constant folding, in the arithmetic the data plane runs
        if let Some((a, b)) = consts {
            return Ok(Lowered::Const(alu_int(alu, a, b)));
        }
        let dest = self.fresh_tmp();
        self.emit(OpCode::Alu {
            dest: dest.clone(),
            op: alu,
            lhs: l.to_operand()?,
            rhs: r.to_operand()?,
            float,
        });
        Ok(Lowered::Op(Operand::var(dest)))
    }

    fn lower_unary(&mut self, op: UnaryOp, operand: &Expr) -> Result<Lowered, FrontendError> {
        let v = self.lower_expr(operand)?;
        if let Some(c) = v.const_int() {
            return Ok(Lowered::Const(match op {
                UnaryOp::Neg => alu_int(AluOp::Sub, 0, c),
                UnaryOp::Invert => !c,
                UnaryOp::Not => i64::from(c == 0),
            }));
        }
        let dest = self.fresh_tmp();
        match op {
            UnaryOp::Neg => self.emit(OpCode::Alu {
                dest: dest.clone(),
                op: AluOp::Sub,
                lhs: Operand::int(0),
                rhs: v.to_operand()?,
                float: v.is_float(),
            }),
            UnaryOp::Invert => self.emit(OpCode::Alu {
                dest: dest.clone(),
                op: AluOp::Xor,
                lhs: v.to_operand()?,
                rhs: Operand::int(-1),
                float: false,
            }),
            UnaryOp::Not => self.emit(OpCode::Cmp {
                dest: dest.clone(),
                op: CmpOp::Eq,
                lhs: v.to_operand()?,
                rhs: Operand::int(0),
            }),
        }
        Ok(Lowered::Op(Operand::var(dest)))
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
        if let (Some(a), Some(b)) = (l.const_int(), r.const_int()) {
            return Ok(Lowered::Const(i64::from(ir_op.eval_int(a, b))));
        }
        let dest = self.fresh_tmp();
        self.emit(OpCode::Cmp {
            dest: dest.clone(),
            op: ir_op,
            lhs: l.to_operand()?,
            rhs: r.to_operand()?,
        });
        Ok(Lowered::Op(Operand::var(dest)))
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
                        let dest = self.fresh_tmp();
                        self.emit(OpCode::Alu {
                            dest: dest.clone(),
                            op: alu,
                            lhs: prev.to_operand()?,
                            rhs: v.to_operand()?,
                            float: false,
                        });
                        Lowered::Op(Operand::var(dest))
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
        kwargs: &[(String, Expr)],
    ) -> Result<Lowered, FrontendError> {
        // method-style calls: list.append(x)
        if let Expr::Attribute { value, attr } = func {
            if let Expr::Name(obj) = value.as_ref() {
                if attr == "append" {
                    return self.lower_list_append(obj, args);
                }
                if attr == "read" || attr == "get" {
                    // obj.read(index) sugar for get(obj, index)
                    let mut full = vec![Expr::Name(obj.clone())];
                    full.extend_from_slice(args);
                    return self.lower_primitive(PrimitiveKind::Get, &full, kwargs);
                }
            }
            return Err(FrontendError::Unsupported(format!(
                "method call `{attr}` is not supported"
            )));
        }

        let name = match func {
            Expr::Name(n) => n.clone(),
            _ => return Err(FrontendError::Unsupported("indirect calls are not supported".into())),
        };

        // template instance invocation, e.g. `agg(hdr)`
        if let Some(EnvEntry::Template(inst)) = self.lookup(&name).cloned() {
            return self.expand_template(&name, &inst);
        }

        // user-defined function inlining
        if let Some((params, body)) = self.funcs.get(&name).cloned() {
            return self.inline_function(&name, &params, &body, args);
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
                    callee: name,
                    reason: "expected exactly two arguments".into(),
                });
            }
            let l = self.lower_expr(&args[0])?.to_operand()?;
            let r = self.lower_expr(&args[1])?.to_operand()?;
            let dest = self.fresh_tmp();
            self.emit(OpCode::Alu { dest: dest.clone(), op: alu, lhs: l, rhs: r, float: true });
            return Ok(Lowered::Op(Operand::var(dest)));
        }

        if let Some(prim) = PrimitiveKind::from_name(&name) {
            return self.lower_primitive(prim, args, kwargs);
        }
        if let Some(builtin) = BuiltinFn::from_name(&name) {
            return self.lower_builtin(builtin, &name, args);
        }
        Err(FrontendError::UnknownCall(name))
    }

    fn lower_list_append(&mut self, list: &str, args: &[Expr]) -> Result<Lowered, FrontendError> {
        let value = match args {
            [one] => self.lower_expr(one)?,
            _ => {
                return Err(FrontendError::BadArguments {
                    callee: "append".into(),
                    reason: "expected exactly one argument".into(),
                })
            }
        };
        match self.env.get_mut(list) {
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
        let ast = clickinc_lang::parse(&source)?;
        self.lower_block(&ast.stmts)?;
        Ok(Lowered::NoneVal)
    }

    fn inline_function(
        &mut self,
        name: &str,
        params: &[String],
        body: &[Stmt],
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
        let saved: Vec<(String, Option<EnvEntry>)> =
            params.iter().map(|p| (p.clone(), self.env.get(p).cloned())).collect();
        for (p, v) in params.iter().zip(lowered_args) {
            self.set_value(p, v);
        }
        let slot = format!("$ret{}", self.next_tmp);
        self.next_tmp += 1;
        self.ret_slots.push(slot.clone());
        self.set_value(&slot, Lowered::NoneVal);
        self.lower_block(body)?;
        self.ret_slots.pop();
        let result = match self.lookup(&slot) {
            Some(EnvEntry::Value(v)) => v.clone(),
            _ => Lowered::NoneVal,
        };
        self.env.remove(&slot);
        for (p, old) in saved {
            match old {
                Some(entry) => {
                    self.env.insert(p, entry);
                }
                None => {
                    self.env.remove(&p);
                }
            }
        }
        Ok(result)
    }

    fn lower_primitive(
        &mut self,
        prim: PrimitiveKind,
        args: &[Expr],
        kwargs: &[(String, Expr)],
    ) -> Result<Lowered, FrontendError> {
        match prim {
            PrimitiveKind::Drop => {
                self.emit(OpCode::Drop);
                Ok(Lowered::NoneVal)
            }
            PrimitiveKind::Forward => {
                self.emit(OpCode::Forward);
                Ok(Lowered::NoneVal)
            }
            PrimitiveKind::Back | PrimitiveKind::Mirror => {
                let updates = self.lower_header_updates(args, kwargs)?;
                if prim == PrimitiveKind::Back {
                    self.emit(OpCode::Back { updates });
                } else {
                    self.emit(OpCode::Mirror { updates });
                }
                Ok(Lowered::NoneVal)
            }
            PrimitiveKind::Multicast => {
                let group = match args.first() {
                    Some(e) => self.lower_expr(e)?.to_operand()?,
                    None => Operand::int(0),
                };
                self.emit(OpCode::Multicast { group });
                Ok(Lowered::NoneVal)
            }
            PrimitiveKind::CopyTo => {
                let target = match args.first() {
                    Some(Expr::Str(s)) => s.clone(),
                    _ => "CPU".to_string(),
                };
                let values: Result<Vec<Operand>, _> = args
                    .iter()
                    .skip(1)
                    .map(|e| self.lower_expr(e).and_then(|l| l.to_operand()))
                    .collect();
                self.emit(OpCode::CopyTo { target, values: values? });
                Ok(Lowered::NoneVal)
            }
            PrimitiveKind::Get
            | PrimitiveKind::Write
            | PrimitiveKind::Count
            | PrimitiveKind::Clear
            | PrimitiveKind::Del => self.lower_state_primitive(prim, args),
        }
    }

    fn lower_header_updates(
        &mut self,
        args: &[Expr],
        kwargs: &[(String, Expr)],
    ) -> Result<Vec<(String, Operand)>, FrontendError> {
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
                    Expr::Name(n) => n.clone(),
                    Expr::Str(s) => s.clone(),
                    other => {
                        return Err(FrontendError::BadArguments {
                            callee: "back/mirror".into(),
                            reason: format!("header update keys must be names, got {other:?}"),
                        })
                    }
                };
                let value = self.lower_expr(v)?.to_operand()?;
                self.header_field(&field);
                updates.push((field, value));
            }
        }
        Ok(updates)
    }

    fn lower_state_primitive(
        &mut self,
        prim: PrimitiveKind,
        args: &[Expr],
    ) -> Result<Lowered, FrontendError> {
        // `del(hdr.feat[i])` removes a header field (sparse-gradient use case)
        if prim == PrimitiveKind::Del {
            if let Some(first) = args.first() {
                if let Some(field) = self.header_target_field(first)? {
                    self.header_field(&field);
                    self.emit(OpCode::SetHeader { field, value: Operand::Const(Value::None) });
                    return Ok(Lowered::NoneVal);
                }
            }
        }
        let object = match args.first() {
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
            args.iter().skip(1).map(|e| self.lower_expr(e).and_then(|l| l.to_operand())).collect();
        let rest = rest?;
        let is_hash = matches!(self.object_kind(&object), Some(ObjectKind::Hash { .. }));
        match prim {
            PrimitiveKind::Get => {
                let dest = self.fresh_tmp();
                if is_hash {
                    self.emit(OpCode::Hash { dest: dest.clone(), object, keys: rest });
                } else {
                    self.emit(OpCode::ReadState { dest: dest.clone(), object, index: rest });
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
                let (index, value) = rest.split_at(rest.len() - 1);
                self.emit(OpCode::WriteState {
                    object,
                    index: index.to_vec(),
                    value: value.to_vec(),
                });
                Ok(Lowered::NoneVal)
            }
            PrimitiveKind::Count => {
                let (index, delta) = match rest.split_last() {
                    Some((delta, index)) => (index.to_vec(), delta.clone()),
                    None => (Vec::new(), Operand::int(1)),
                };
                let dest = self.fresh_tmp();
                self.emit(OpCode::CountState { dest: Some(dest.clone()), object, index, delta });
                Ok(Lowered::Op(Operand::var(dest)))
            }
            PrimitiveKind::Clear => {
                self.emit(OpCode::ClearState { object });
                Ok(Lowered::NoneVal)
            }
            PrimitiveKind::Del => {
                self.emit(OpCode::DeleteState { object, index: rest });
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
        if lowered.len() == 1 {
            if let Lowered::List(items) = &lowered[0] {
                if matches!(
                    builtin,
                    BuiltinFn::Min | BuiltinFn::Max | BuiltinFn::Sum | BuiltinFn::Len
                ) {
                    lowered = items.clone();
                    if matches!(builtin, BuiltinFn::Len) {
                        return Ok(Lowered::Const(lowered.len() as i64));
                    }
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
                self.fold_reduction(name, alu, lowered)
            }
            BuiltinFn::Abs => match lowered.first() {
                Some(v) => {
                    if let Some(c) = v.const_int() {
                        // `max(c, 0 - c)`, as the instructions below compute it
                        let neg = alu_int(AluOp::Sub, 0, c);
                        return Ok(Lowered::Const(alu_int(AluOp::Max, c, neg)));
                    }
                    let op = v.to_operand()?;
                    let neg = self.fresh_tmp();
                    self.emit(OpCode::Alu {
                        dest: neg.clone(),
                        op: AluOp::Sub,
                        lhs: Operand::int(0),
                        rhs: op.clone(),
                        float: false,
                    });
                    let dest = self.fresh_tmp();
                    self.emit(OpCode::Alu {
                        dest: dest.clone(),
                        op: AluOp::Max,
                        lhs: op,
                        rhs: Operand::var(neg),
                        float: false,
                    });
                    Ok(Lowered::Op(Operand::var(dest)))
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
            BuiltinFn::Pow => {
                let a = lowered.first().and_then(Lowered::const_int);
                let b = lowered.get(1).and_then(Lowered::const_int);
                match (a, b) {
                    (Some(a), Some(b)) if b >= 0 => Ok(Lowered::Const(a.pow(b.min(62) as u32))),
                    _ => Err(FrontendError::Unsupported(
                        "pow() requires compile-time constant arguments".into(),
                    )),
                }
            }
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
                let dest = self.fresh_tmp();
                self.emit(OpCode::RandInt { dest: dest.clone(), bound });
                Ok(Lowered::Op(Operand::var(dest)))
            }
            BuiltinFn::Slice => {
                let value = lowered
                    .first()
                    .ok_or_else(|| FrontendError::BadArguments {
                        callee: name.to_string(),
                        reason: "expected slice(value, hi, lo)".into(),
                    })?
                    .to_operand()?;
                let hi = lowered.get(1).and_then(Lowered::const_int).unwrap_or(31);
                let lo = lowered.get(2).and_then(Lowered::const_int).unwrap_or(0);
                let dest = self.fresh_tmp();
                self.emit(OpCode::Alu {
                    dest: dest.clone(),
                    op: AluOp::Slice,
                    lhs: value,
                    rhs: Operand::int((hi << 8) | lo),
                    float: false,
                });
                Ok(Lowered::Op(Operand::var(dest)))
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
            if let (Some(a), Some(b)) = (acc.const_int(), item.const_int()) {
                acc = Lowered::Const(alu_int(alu, a, b));
                continue;
            }
            let dest = self.fresh_tmp();
            self.emit(OpCode::Alu {
                dest: dest.clone(),
                op: alu,
                lhs: acc.to_operand()?,
                rhs: item.to_operand()?,
                float: false,
            });
            acc = Lowered::Op(Operand::var(dest));
        }
        Ok(acc)
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
