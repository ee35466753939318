//! Shared emission helpers for all backends: `Display` adapters that write
//! IR names, operands and guards straight into the one output buffer.

use clickinc_ir::{AluOp, Guard, Instruction, OpCode, Operand, Value};
use std::collections::HashSet;
use std::fmt::{self, Write as _};

/// How P4, NPL and Micro-C spell a header field read (HLS reads `pkt.`).
pub const HDR: &str = "hdr.inc.";

/// An IR name as a legal C/P4 identifier (`$t3` → `t3`, `x.5` → `x_5`,
/// `3bad` → `v3bad`): every other character becomes `_`, leading ones are
/// dropped (all but a last), and a leading digit gets a `v`.
#[derive(Clone, Copy)]
pub struct Ident<'a>(pub &'a str);

impl fmt::Display for Ident<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let legal = |c: char| c.is_ascii_alphanumeric() || c == '_';
        let body = self.0.trim_start_matches(|c: char| !c.is_ascii_alphanumeric());
        if body.is_empty() {
            return f.write_char(if self.0.is_empty() { 'v' } else { '_' });
        }
        if body.starts_with(|c: char| c.is_ascii_digit()) {
            f.write_char('v')?;
        }
        for (i, run) in body.split(|c| !legal(c)).enumerate() {
            if i > 0 {
                f.write_char('_')?;
            }
            f.write_str(run)?;
        }
        Ok(())
    }
}

/// An operand in the C-like surface syntax shared by all targets, header
/// fields read through the prefix `hdr`.
#[derive(Clone, Copy)]
pub struct Opnd<'a>(pub &'a Operand, pub &'static str);

impl fmt::Display for Opnd<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Operand::Var(v) => Ident(v).fmt(f),
            Operand::Header(h) => write!(f, "{}{}", self.1, Ident(h)),
            Operand::Meta(m) => write!(f, "meta.{}", Ident(m)),
            Operand::Const(Value::Int(v)) => write!(f, "{v}"),
            Operand::Const(Value::Float(v)) => write!(f, "{v}"),
            Operand::Const(Value::Bool(b)) => write!(f, "{}", *b as u8),
            Operand::Const(Value::Bytes(b)) => {
                f.write_str("0x")?;
                b.iter().try_for_each(|b| write!(f, "{b:02x}"))
            }
            Operand::Const(Value::None) => f.write_str("INC_NONE"),
        }
    }
}

/// A guard as a C-like boolean expression: `(a == 1) && (b != 0)`, or `true`.
pub struct GuardExpr<'a>(pub &'a Guard, pub &'static str);

impl fmt::Display for GuardExpr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_always() {
            return f.write_str("true");
        }
        for (i, p) in self.0.all.iter().enumerate() {
            let sep = if i == 0 { "" } else { " && " };
            write!(f, "{sep}({} {} {})", Opnd(&p.lhs, self.1), p.op, Opnd(&p.rhs, self.1))?;
        }
        Ok(())
    }
}

/// Operands joined by `sep`: an argument list (`", "`) or the subscripts of
/// a multi-dimensional index (`"]["`).
pub struct Args<'a>(pub &'a [Operand], pub &'static str, pub &'static str);

impl fmt::Display for Args<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, op) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(self.1)?;
            }
            Opnd(op, self.2).fmt(f)?;
        }
        Ok(())
    }
}

/// The statement `dest = expr;` of a compute opcode (assign, ALU, compare).
pub struct Compute<'a>(pub &'a OpCode, pub &'static str);

impl fmt::Display for Compute<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = |op| Opnd(op, self.1);
        match self.0 {
            OpCode::Assign { dest, src } => write!(f, "{} = {};", Ident(dest), o(src)),
            OpCode::Alu {
                dest,
                op: op @ (AluOp::Min | AluOp::Max | AluOp::Slice),
                lhs,
                rhs,
                ..
            } => {
                write!(f, "{} = {op}({}, {});", Ident(dest), o(lhs), o(rhs))
            }
            OpCode::Alu { dest, op, lhs, rhs, .. } => {
                write!(f, "{} = {} {op} {};", Ident(dest), o(lhs), o(rhs))
            }
            OpCode::Cmp { dest, op, lhs, rhs } => {
                write!(f, "{} = {} {op} {};", Ident(dest), o(lhs), o(rhs))
            }
            _ => unreachable!("`Compute` wraps compute opcodes only"),
        }
    }
}

/// One line per instruction, `    {stmt}` or `    if ({guard}) { {stmt} }`:
/// the bodies of the run-to-completion targets (NPL, Micro-C, HLS), each
/// statement written by the target's `stmt`.
pub fn write_lines(
    out: &mut String,
    instrs: &[Instruction],
    hdr: &'static str,
    stmt: fn(&mut String, &OpCode),
) {
    for instr in instrs {
        let _ = match &instr.guard {
            Some(g) => write!(out, "    if ({}) {{ ", GuardExpr(g, hdr)),
            None => write!(out, "    "),
        };
        stmt(out, &instr.op);
        out.push_str(if instr.guard.is_some() { " }\n" } else { "\n" });
    }
}

/// Declare every distinct destination of `instrs` once, in first-use order,
/// as `    {ty} {name}{init};`.
pub fn declare_temporaries(out: &mut String, instrs: &[Instruction], ty: &str, init: &str) {
    let mut declared = HashSet::new();
    let mut name = String::new();
    for dest in instrs.iter().filter_map(|i| i.dest()) {
        name.clear();
        let _ = write!(name, "{}", Ident(dest));
        if !declared.contains(name.as_str()) {
            let _ = writeln!(out, "    {ty} {name}{init};");
            declared.insert(name.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clickinc_ir::{CmpOp, Predicate};

    #[test]
    fn operands_render() {
        let o = |op: Operand| Opnd(&op, HDR).to_string();
        assert_eq!(o(Operand::var("$t3")), "t3");
        assert_eq!(o(Operand::var("x.5")), "x_5");
        assert_eq!(o(Operand::hdr("key")), "hdr.inc.key");
        assert_eq!(Opnd(&Operand::hdr("key"), "pkt.").to_string(), "pkt.key");
        assert_eq!(o(Operand::int(7)), "7");
        assert_eq!(o(Operand::Const(Value::Bytes(vec![0, 0xab]))), "0x00ab");
        assert_eq!(o(Operand::Const(Value::None)), "INC_NONE");
    }

    #[test]
    fn sanitize_produces_identifiers() {
        let ident = |name| Ident(name).to_string();
        assert_eq!(ident("$t0"), "t0");
        assert_eq!(ident("kvs_0_cache"), "kvs_0_cache");
        assert_eq!(ident("3bad"), "v3bad");
        assert_eq!(ident("_$3"), "v3");
        assert_eq!(ident("a.b c"), "a_b_c");
        assert_eq!(ident("a-é"), "a__");
        assert_eq!(ident("$_"), "_");
        assert_eq!(ident(""), "v");
    }

    #[test]
    fn guards_and_exprs_render() {
        let g = Guard::single(Predicate::new(Operand::var("c"), CmpOp::Ne, Operand::int(0)));
        assert_eq!(GuardExpr(&g, HDR).to_string(), "(c != 0)");
        let g = g.and(Predicate::new(Operand::hdr("k"), CmpOp::Eq, Operand::var("$v")));
        assert_eq!(GuardExpr(&g, HDR).to_string(), "(c != 0) && (hdr.inc.k == v)");
        assert_eq!(GuardExpr(&Guard::always(), HDR).to_string(), "true");
        let alu = |op| OpCode::Alu {
            dest: "x".into(),
            op,
            lhs: Operand::var("a"),
            rhs: Operand::int(1),
            float: false,
        };
        assert_eq!(Compute(&alu(AluOp::Add), HDR).to_string(), "x = a + 1;");
        assert_eq!(Compute(&alu(AluOp::Max), HDR).to_string(), "x = max(a, 1);");
        let ops = [Operand::int(1), Operand::var("i")];
        assert_eq!(Args(&ops, "][", HDR).to_string(), "1][i");
    }
}
