//! Abstract syntax tree of the ClickINC language (paper Fig. 5 grammar).
//!
//! Every identifier (names, attributes, keyword-argument names, `def`
//! parameters, loop variables, modules) and string literal is an IR
//! [`Name`]: the parser mints one per distinct spelling and shares it at
//! every occurrence, and the frontend hands it on into the IR unchanged.

use clickinc_ir::Name;
use std::fmt;

/// Binary arithmetic / bit operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `//`
    FloorDiv,
    /// `%`
    Mod,
    /// `**`
    Pow,
    /// `&`
    BitAnd,
    /// `|`
    BitOr,
    /// `^`
    BitXor,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::FloorDiv => "//",
            BinOp::Mod => "%",
            BinOp::Pow => "**",
            BinOp::BitAnd => "&",
            BinOp::BitOr => "|",
            BinOp::BitXor => "^",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
        };
        write!(f, "{s}")
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Arithmetic negation.
    Neg,
    /// Bitwise complement `~`.
    Invert,
    /// Logical `not`.
    Not,
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
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

/// Boolean connectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoolOp {
    /// `and`
    And,
    /// `or`
    Or,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    Str(Name),
    /// Boolean literal.
    Bool(bool),
    /// `None`.
    NoneLit,
    /// Bare identifier.
    Name(Name),
    /// Attribute access, e.g. `hdr.key` or `agg_data_t.read`.
    Attribute {
        /// Object expression.
        value: Box<Expr>,
        /// Attribute name.
        attr: Name,
    },
    /// Indexing, e.g. `hdr.feat[index]`.
    Index {
        /// Indexed expression.
        value: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
    },
    /// Function / constructor / method call.
    Call {
        /// Callee expression (a name, attribute or nested call).
        func: Box<Expr>,
        /// Positional arguments.
        args: Vec<Expr>,
        /// Keyword arguments.
        kwargs: Vec<(Name, Expr)>,
    },
    /// Binary arithmetic / bit operation.
    BinOp {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        operand: Box<Expr>,
    },
    /// Comparison.
    Compare {
        /// Operator.
        op: CmpOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// `and` / `or` chain.
    BoolChain {
        /// Connective.
        op: BoolOp,
        /// Operands (two or more).
        values: Vec<Expr>,
    },
    /// List literal.
    List(Vec<Expr>),
    /// Dict literal (used by `back(hdr={...})`-style calls).
    Dict(Vec<(Expr, Expr)>),
}

/// A plain named call destructured by [`Expr::as_named_call`]:
/// `(name, positional args, keyword args)`.
pub type NamedCall<'a> = (&'a Name, &'a [Expr], &'a [(Name, Expr)]);

impl Expr {
    /// Convenience constructor for names.
    pub fn name(s: impl Into<Name>) -> Expr {
        Expr::Name(s.into())
    }

    /// Whether the expression is the header object access `hdr.<field>`
    /// (possibly indexed); returns the field name if so.
    pub fn as_header_field(&self) -> Option<&str> {
        match self {
            Expr::Attribute { value, attr } => match value.as_ref() {
                Expr::Name(n) if n == "hdr" => Some(attr),
                _ => None,
            },
            Expr::Index { value, .. } => value.as_header_field(),
            _ => None,
        }
    }

    /// If this is a call of a plain named function, return `(name, args, kwargs)`.
    pub fn as_named_call(&self) -> Option<NamedCall<'_>> {
        match self {
            Expr::Call { func, args, kwargs } => match func.as_ref() {
                Expr::Name(n) => Some((n, args, kwargs)),
                _ => None,
            },
            _ => None,
        }
    }

    /// Evaluate the expression if it is a compile-time integer constant
    /// (literals combined by arithmetic); used by the loop unroller.
    pub fn const_int(&self) -> Option<i64> {
        match self {
            Expr::Int(v) => Some(*v),
            Expr::Bool(b) => Some(i64::from(*b)),
            Expr::Unary { op: UnaryOp::Neg, operand } => operand.const_int().map(|v| -v),
            Expr::Unary { op: UnaryOp::Invert, operand } => operand.const_int().map(|v| !v),
            Expr::BinOp { op, lhs, rhs } => {
                let a = lhs.const_int()?;
                let b = rhs.const_int()?;
                Some(match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    BinOp::Div | BinOp::FloorDiv => {
                        if b == 0 {
                            return None;
                        }
                        a / b
                    }
                    BinOp::Mod => {
                        if b == 0 {
                            return None;
                        }
                        a % b
                    }
                    BinOp::Pow => a.checked_pow(u32::try_from(b).ok()?)?,
                    BinOp::BitAnd => a & b,
                    BinOp::BitOr => a | b,
                    BinOp::BitXor => a ^ b,
                    BinOp::Shl => a.checked_shl(u32::try_from(b).ok()?)?,
                    BinOp::Shr => a.checked_shr(u32::try_from(b).ok()?)?,
                })
            }
            _ => None,
        }
    }
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `target = value` (single target) or tuple-free multiple assignment
    /// `a = b = value` flattened into a list of targets.
    Assign {
        /// Assignment targets (names, attributes, or indexed expressions).
        targets: Vec<Expr>,
        /// Assigned value.
        value: Expr,
    },
    /// `target op= value`.
    AugAssign {
        /// Target.
        target: Expr,
        /// Operator (`+` for `+=`, `-` for `-=`).
        op: BinOp,
        /// Value.
        value: Expr,
    },
    /// A bare expression statement (typically a primitive call like `drop()`).
    ExprStmt(Expr),
    /// `if cond: body [elif ...] [else: orelse]` — `elif` chains are desugared
    /// into nested `If` inside `orelse`.
    If {
        /// Condition.
        cond: Expr,
        /// Then-branch statements.
        body: Vec<Stmt>,
        /// Else-branch statements (possibly empty).
        orelse: Vec<Stmt>,
    },
    /// `for var in iter: body`.
    For {
        /// Loop variable name.
        var: Name,
        /// Iterated expression (must be `range(...)` or a constant list for the
        /// frontend to unroll it).
        iter: Expr,
        /// Body statements.
        body: Vec<Stmt>,
    },
    /// `from module import *` / `import module`.
    Import {
        /// Module name.
        module: Name,
    },
    /// `def name(params): body` — user-defined helper functions, inlined by the
    /// frontend.
    FuncDef {
        /// Function name.
        name: Name,
        /// Parameter names.
        params: Vec<Name>,
        /// Body statements.
        body: Vec<Stmt>,
    },
    /// `return expr`.
    Return(Option<Expr>),
}

/// A parsed ClickINC source program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Top-level statements.
    pub stmts: Vec<Stmt>,
}

impl Program {
    /// All user-defined functions, by name.
    pub fn functions(&self) -> Vec<(&str, &[Name], &[Stmt])> {
        self.stmts
            .iter()
            .filter_map(|s| match s {
                Stmt::FuncDef { name, params, body } => {
                    Some((name.as_str(), params.as_slice(), body.as_slice()))
                }
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_field_detection() {
        let e = Expr::Attribute { value: Box::new(Expr::name("hdr")), attr: "key".into() };
        assert_eq!(e.as_header_field(), Some("key"));
        let indexed = Expr::Index { value: Box::new(e.clone()), index: Box::new(Expr::Int(3)) };
        assert_eq!(indexed.as_header_field(), Some("key"));
        let not_hdr = Expr::Attribute { value: Box::new(Expr::name("meta")), attr: "x".into() };
        assert_eq!(not_hdr.as_header_field(), None);
        assert_eq!(Expr::Int(1).as_header_field(), None);
    }

    #[test]
    fn named_call_extraction() {
        let call = Expr::Call {
            func: Box::new(Expr::name("range")),
            args: vec![Expr::Int(3)],
            kwargs: vec![],
        };
        let (name, args, _) = call.as_named_call().unwrap();
        assert_eq!(name, "range");
        assert_eq!(args.len(), 1);
        let method = Expr::Call {
            func: Box::new(Expr::Attribute {
                value: Box::new(Expr::name("tbl")),
                attr: "read".into(),
            }),
            args: vec![],
            kwargs: vec![],
        };
        assert!(method.as_named_call().is_none());
    }

    #[test]
    fn constant_folding() {
        let e = Expr::BinOp {
            op: BinOp::Mul,
            lhs: Box::new(Expr::Int(4)),
            rhs: Box::new(Expr::BinOp {
                op: BinOp::Add,
                lhs: Box::new(Expr::Int(1)),
                rhs: Box::new(Expr::Int(2)),
            }),
        };
        assert_eq!(e.const_int(), Some(12));
        let div0 = Expr::BinOp {
            op: BinOp::Div,
            lhs: Box::new(Expr::Int(4)),
            rhs: Box::new(Expr::Int(0)),
        };
        assert_eq!(div0.const_int(), None);
        assert_eq!(Expr::name("x").const_int(), None);
        let shift = Expr::BinOp {
            op: BinOp::Shl,
            lhs: Box::new(Expr::Int(1)),
            rhs: Box::new(Expr::Int(4)),
        };
        assert_eq!(shift.const_int(), Some(16));
        let pow = Expr::BinOp {
            op: BinOp::Pow,
            lhs: Box::new(Expr::Int(2)),
            rhs: Box::new(Expr::Int(10)),
        };
        assert_eq!(pow.const_int(), Some(1024));
        let neg = Expr::Unary { op: UnaryOp::Neg, operand: Box::new(Expr::Int(5)) };
        assert_eq!(neg.const_int(), Some(-5));
    }

    #[test]
    fn functions_listing() {
        let p = Program {
            stmts: vec![
                Stmt::FuncDef {
                    name: "comp".into(),
                    params: vec!["a".into(), "b".into()],
                    body: vec![Stmt::Return(Some(Expr::name("a")))],
                },
                Stmt::Assign { targets: vec![Expr::name("x")], value: Expr::Int(1) },
            ],
        };
        let fns = p.functions();
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].0, "comp");
        assert_eq!(fns[0].1.len(), 2);
    }

    #[test]
    fn operator_display() {
        assert_eq!(BinOp::FloorDiv.to_string(), "//");
        assert_eq!(CmpOp::Ge.to_string(), ">=");
    }
}
