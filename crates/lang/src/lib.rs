//! # clickinc-lang — the ClickINC user language
//!
//! ClickINC programs are written in a high-level, Python-style language (paper
//! §4.1, Fig. 5): simple statements assign expressions to variables, compound
//! statements provide branching (`if`/`elif`/`else`) and constant-trip-count
//! loops (`for i in range(N)`), and a small set of INC-specific *objects*
//! (`Table`, `Array`, `Hash`, `Seq`, `Sketch`, `Crypto`) and *primitives*
//! (`get`, `write`, `count`, `del`, `drop`, `forward`, `back`, `mirror`,
//! `copyto`) operate on device state and packets.
//!
//! This crate contains everything on the *source* side of the toolchain:
//!
//! * [`token`] / [`lexer`] — tokenizer with Python-style significant
//!   indentation.  Tokens borrow the source text, so the token vector is the
//!   lexer's one allocation; an integer literal with no `i64` value (out of
//!   range, or a bare `0x`) is refused with [`LangError::BadNumber`], never
//!   read as `0`, and a line holding only whitespace before `\r\n` is blank;
//! * [`ast`] — the abstract syntax tree matching the Fig. 5 grammar, whose
//!   identifiers are shared IR names ([`clickinc_ir::Name`]);
//! * [`parser`] — recursive-descent parser producing the AST.  It reads the
//!   tokens by reference, mints one name per distinct identifier and sizes
//!   every AST list exactly, so a parse allocates for the tree it builds and
//!   for each distinct name, never per token;
//! * [`modules`] — the built-in module library (object constructors, primitives,
//!   Python built-ins of Table 7) that the frontend links against;
//! * [`templates`] — the provider-supplied templates: KVS (Fig. 15), MLAgg
//!   (Fig. 16), DQAcc, the count-min-sketch example of Fig. 1, and the
//!   sparse-gradient user program of Fig. 7.

pub mod ast;
pub mod error;
pub mod lexer;
pub mod modules;
pub mod parser;
pub mod templates;
pub mod token;

pub use ast::{BinOp, CmpOp as AstCmpOp, Expr, Program, Stmt, UnaryOp};
pub use error::LangError;
pub use lexer::Lexer;
pub use modules::{BuiltinFn, ModuleLibrary, ObjectCtor, PrimitiveKind};
pub use parser::parse_program;
pub use templates::{Template, TemplateKind};
pub use token::{Token, TokenKind};

/// Parse ClickINC source text into an AST program.
///
/// Convenience wrapper over [`Lexer`] + [`parse_program`].
pub fn parse(source: &str) -> Result<Program, LangError> {
    let tokens = Lexer::new(source).tokenize()?;
    parse_program(&tokens)
}

/// Count the lines of code of a ClickINC (or generated device) program the same
/// way the paper's Table 1 does: non-empty, non-comment lines.
pub fn lines_of_code(source: &str) -> usize {
    source
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#') && !l.starts_with("//"))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_smoke_test() {
        let prog = parse("x = 1\nif x > 0:\n    y = x + 1\nelse:\n    y = 0\n").unwrap();
        assert_eq!(prog.stmts.len(), 2);
    }

    #[test]
    fn loc_counts_skip_blank_and_comment_lines() {
        let src = "# a comment\n\nx = 1\n   \ny = 2  \n// generated\n";
        assert_eq!(lines_of_code(src), 2);
        assert_eq!(lines_of_code(""), 0);
    }
}
