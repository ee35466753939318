//! Recursive-descent parser for the ClickINC language.
//!
//! The grammar follows Fig. 5 of the paper, realized with Python-style surface
//! syntax: indentation-delimited blocks, `if`/`elif`/`else`, `for ... in
//! range(...)`, keyword arguments in calls, attribute access (`hdr.key`) and
//! indexing (`hdr.feat[i]`).
//!
//! The parser reads the tokens by reference and allocates only for what it
//! builds.  Each distinct identifier or string becomes one [`Name`], minted
//! on its first occurrence through a per-parse table and shared by every
//! later one.  A list being parsed (a block, call arguments, a literal)
//! collects on a scratch stack and moves into a `Vec` of its exact length
//! when it closes, so an AST list costs one allocation.

use crate::ast::{BinOp, BoolOp, CmpOp, Expr, Program, Stmt, UnaryOp};
use crate::error::{LangError, Span};
use crate::token::{Token, TokenKind};
use clickinc_ir::Name;
use std::collections::HashMap;

/// Parse a token stream (as produced by [`crate::Lexer`]) into a [`Program`].
pub fn parse_program(tokens: &[Token<'_>]) -> Result<Program, LangError> {
    let spellings =
        tokens.iter().filter(|t| matches!(t.kind, TokenKind::Ident(_) | TokenKind::Str(_)));
    let mut parser = Parser {
        tokens,
        pos: 0,
        names: HashMap::with_capacity(spellings.count()),
        stmts: Vec::new(),
        exprs: Vec::new(),
        kwargs: Vec::new(),
        pairs: Vec::new(),
    };
    let stmts = parser.parse_block_until_eof()?;
    Ok(Program { stmts })
}

/// Positional and keyword arguments of a call, as parsed.
type CallArgs = (Vec<Expr>, Vec<(Name, Expr)>);

struct Parser<'t, 'src> {
    tokens: &'t [Token<'src>],
    pos: usize,
    /// The name minted for each spelling met so far.
    names: HashMap<&'src str, Name>,
    /// Scratch stacks: the open lists, innermost on top.
    stmts: Vec<Stmt>,
    exprs: Vec<Expr>,
    kwargs: Vec<(Name, Expr)>,
    pairs: Vec<(Expr, Expr)>,
}

/// The items pushed on `stack` since it stood at `start`, as an exactly
/// sized `Vec`.
fn close<T>(stack: &mut Vec<T>, start: usize) -> Vec<T> {
    stack.drain(start..).collect()
}

impl<'t, 'src> Parser<'t, 'src> {
    fn token(&self) -> &'t Token<'src> {
        let tokens = self.tokens;
        &tokens[self.pos.min(tokens.len() - 1)]
    }

    fn peek(&self) -> &'t TokenKind<'src> {
        &self.token().kind
    }

    fn peek_span(&self) -> Span {
        self.token().span
    }

    fn advance(&mut self) -> &'t TokenKind<'src> {
        let kind = self.peek();
        if self.pos < self.tokens.len() {
            self.pos += 1;
        }
        kind
    }

    fn check(&self, kind: &TokenKind<'_>) -> bool {
        self.peek() == kind
    }

    fn eat(&mut self, kind: &TokenKind<'_>) -> bool {
        if self.check(kind) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind<'_>, what: &str) -> Result<(), LangError> {
        if self.eat(&kind) {
            Ok(())
        } else {
            Err(self.unexpected(what))
        }
    }

    fn unexpected(&self, expected: &str) -> LangError {
        if matches!(self.peek(), TokenKind::Eof) {
            LangError::UnexpectedEof { expected: expected.to_string() }
        } else {
            LangError::UnexpectedToken {
                found: self.peek().describe(),
                expected: expected.to_string(),
                span: self.peek_span(),
            }
        }
    }

    /// The shared name spelled `text`, minted on its first occurrence.
    fn name(&mut self, text: &'src str) -> Name {
        self.names.entry(text).or_insert_with(|| Name::from(text)).clone()
    }

    /// Consume an identifier and return its name; `what` names it in the
    /// error when the next token is not one.
    fn identifier(&mut self, what: &str) -> Result<Name, LangError> {
        match *self.advance() {
            TokenKind::Ident(text) => Ok(self.name(text)),
            _ => Err(self.unexpected(what)),
        }
    }

    fn skip_newlines(&mut self) {
        while matches!(self.peek(), TokenKind::Newline) {
            self.advance();
        }
    }

    fn parse_block_until_eof(&mut self) -> Result<Vec<Stmt>, LangError> {
        let start = self.stmts.len();
        self.skip_newlines();
        while !matches!(self.peek(), TokenKind::Eof) {
            let stmt = self.parse_statement()?;
            self.stmts.push(stmt);
            self.skip_newlines();
        }
        Ok(close(&mut self.stmts, start))
    }

    /// Parse an indented block: expects `Newline Indent stmt+ Dedent`.
    fn parse_block(&mut self) -> Result<Vec<Stmt>, LangError> {
        self.expect(TokenKind::Newline, "a newline before an indented block")?;
        self.skip_newlines();
        self.expect(TokenKind::Indent, "an indented block")?;
        let start = self.stmts.len();
        self.skip_newlines();
        while !matches!(self.peek(), TokenKind::Dedent | TokenKind::Eof) {
            let stmt = self.parse_statement()?;
            self.stmts.push(stmt);
            self.skip_newlines();
        }
        self.expect(TokenKind::Dedent, "the end of an indented block")?;
        Ok(close(&mut self.stmts, start))
    }

    fn parse_statement(&mut self) -> Result<Stmt, LangError> {
        match self.peek() {
            TokenKind::If => self.parse_if(),
            TokenKind::For => self.parse_for(),
            TokenKind::Def => self.parse_def(),
            TokenKind::From | TokenKind::Import => self.parse_import(),
            TokenKind::Return => {
                self.advance();
                if matches!(self.peek(), TokenKind::Newline | TokenKind::Eof) {
                    self.end_simple_statement()?;
                    Ok(Stmt::Return(None))
                } else {
                    let e = self.parse_expr()?;
                    self.end_simple_statement()?;
                    Ok(Stmt::Return(Some(e)))
                }
            }
            _ => self.parse_simple(),
        }
    }

    fn end_simple_statement(&mut self) -> Result<(), LangError> {
        if matches!(self.peek(), TokenKind::Eof | TokenKind::Dedent) {
            return Ok(());
        }
        self.expect(TokenKind::Newline, "end of statement")
    }

    fn parse_if(&mut self) -> Result<Stmt, LangError> {
        self.advance(); // if / elif
        let cond = self.parse_expr()?;
        self.expect(TokenKind::Colon, "`:` after the condition")?;
        let body = self.parse_block()?;
        self.skip_newlines();
        let orelse = if matches!(self.peek(), TokenKind::Elif) {
            vec![self.parse_if()?]
        } else if self.eat(&TokenKind::Else) {
            self.expect(TokenKind::Colon, "`:` after `else`")?;
            self.parse_block()?
        } else {
            Vec::new()
        };
        Ok(Stmt::If { cond, body, orelse })
    }

    fn parse_for(&mut self) -> Result<Stmt, LangError> {
        self.advance(); // for
        let var = self.identifier("a loop variable name")?;
        self.expect(TokenKind::In, "`in`")?;
        let iter = self.parse_expr()?;
        self.expect(TokenKind::Colon, "`:` after the loop header")?;
        let body = self.parse_block()?;
        Ok(Stmt::For { var, iter, body })
    }

    fn parse_def(&mut self) -> Result<Stmt, LangError> {
        self.advance(); // def
        let name = self.identifier("a function name")?;
        self.expect(TokenKind::LParen, "`(`")?;
        let mut params = Vec::new();
        while !self.check(&TokenKind::RParen) {
            params.push(self.identifier("a parameter name")?);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(TokenKind::RParen, "`)`")?;
        self.expect(TokenKind::Colon, "`:`")?;
        let body = self.parse_block()?;
        Ok(Stmt::FuncDef { name, params, body })
    }

    fn parse_import(&mut self) -> Result<Stmt, LangError> {
        // `from X import *` or `import X`
        if self.eat(&TokenKind::From) {
            let module = self.identifier("a module name")?;
            self.expect(TokenKind::Import, "`import`")?;
            // consume the import list (identifiers, commas, or `*`)
            while !matches!(self.peek(), TokenKind::Newline | TokenKind::Eof) {
                self.advance();
            }
            self.end_simple_statement()?;
            Ok(Stmt::Import { module })
        } else {
            self.advance(); // import
            let module = self.identifier("a module name")?;
            self.end_simple_statement()?;
            Ok(Stmt::Import { module })
        }
    }

    fn parse_simple(&mut self) -> Result<Stmt, LangError> {
        let first = self.parse_expr()?;
        match self.peek() {
            TokenKind::Assign => {
                // possibly chained: a = b = expr
                let start = self.exprs.len();
                self.exprs.push(first);
                let mut value;
                loop {
                    self.advance(); // =
                    value = self.parse_expr()?;
                    if self.check(&TokenKind::Assign) {
                        self.exprs.push(value);
                    } else {
                        break;
                    }
                }
                // handle `a, b = ...`? not in the grammar — keep single targets
                self.end_simple_statement()?;
                Ok(Stmt::Assign { targets: close(&mut self.exprs, start), value })
            }
            TokenKind::Comma => {
                // multiple assignment on one line: `delete = 0, overflow = 0`
                // (paper Fig. 16 line 9).  Treated as two separate assignments is
                // not expressible as one Stmt, so parse as Assign of the first and
                // re-parse the rest recursively via a synthetic statement list —
                // instead we desugar here into a single Assign for the first and
                // queue the rest by rewriting the token stream position.
                // Simpler: parse `lhs = v , lhs2 = v2 , ...` fully.
                Err(self.unexpected("`=` or end of statement"))
            }
            TokenKind::PlusAssign => {
                self.advance();
                let value = self.parse_expr()?;
                self.end_simple_statement()?;
                Ok(Stmt::AugAssign { target: first, op: BinOp::Add, value })
            }
            TokenKind::MinusAssign => {
                self.advance();
                let value = self.parse_expr()?;
                self.end_simple_statement()?;
                Ok(Stmt::AugAssign { target: first, op: BinOp::Sub, value })
            }
            _ => {
                self.end_simple_statement()?;
                Ok(Stmt::ExprStmt(first))
            }
        }
    }

    // ---- expressions, by decreasing precedence ------------------------------

    fn parse_expr(&mut self) -> Result<Expr, LangError> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr, LangError> {
        self.parse_chain(BoolOp::Or)
    }

    fn parse_and(&mut self) -> Result<Expr, LangError> {
        self.parse_chain(BoolOp::And)
    }

    /// An `or` chain of `and` chains, or an `and` chain of `not`s; a chain of
    /// one is its operand.
    fn parse_chain(&mut self, op: BoolOp) -> Result<Expr, LangError> {
        let connective = match op {
            BoolOp::Or => TokenKind::Or,
            BoolOp::And => TokenKind::And,
        };
        let first = self.parse_chain_operand(op)?;
        if !self.check(&connective) {
            return Ok(first);
        }
        let start = self.exprs.len();
        self.exprs.push(first);
        while self.eat(&connective) {
            let value = self.parse_chain_operand(op)?;
            self.exprs.push(value);
        }
        Ok(Expr::BoolChain { op, values: close(&mut self.exprs, start) })
    }

    fn parse_chain_operand(&mut self, op: BoolOp) -> Result<Expr, LangError> {
        match op {
            BoolOp::Or => self.parse_and(),
            BoolOp::And => self.parse_not(),
        }
    }

    fn parse_not(&mut self) -> Result<Expr, LangError> {
        if self.eat(&TokenKind::Not) {
            let operand = self.parse_not()?;
            Ok(Expr::Unary { op: UnaryOp::Not, operand: Box::new(operand) })
        } else {
            self.parse_comparison()
        }
    }

    fn parse_comparison(&mut self) -> Result<Expr, LangError> {
        let lhs = self.parse_bitor()?;
        let op = match self.peek() {
            TokenKind::EqEq => Some(CmpOp::Eq),
            TokenKind::NotEq => Some(CmpOp::Ne),
            TokenKind::Lt => Some(CmpOp::Lt),
            TokenKind::Le => Some(CmpOp::Le),
            TokenKind::Gt => Some(CmpOp::Gt),
            TokenKind::Ge => Some(CmpOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.advance();
            let rhs = self.parse_bitor()?;
            Ok(Expr::Compare { op, lhs: Box::new(lhs), rhs: Box::new(rhs) })
        } else {
            Ok(lhs)
        }
    }

    fn parse_bitor(&mut self) -> Result<Expr, LangError> {
        let mut lhs = self.parse_bitxor()?;
        while self.eat(&TokenKind::Pipe) {
            let rhs = self.parse_bitxor()?;
            lhs = Expr::BinOp { op: BinOp::BitOr, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        Ok(lhs)
    }

    fn parse_bitxor(&mut self) -> Result<Expr, LangError> {
        let mut lhs = self.parse_bitand()?;
        while self.eat(&TokenKind::Caret) {
            let rhs = self.parse_bitand()?;
            lhs = Expr::BinOp { op: BinOp::BitXor, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        Ok(lhs)
    }

    fn parse_bitand(&mut self) -> Result<Expr, LangError> {
        let mut lhs = self.parse_shift()?;
        while self.eat(&TokenKind::Amp) {
            let rhs = self.parse_shift()?;
            lhs = Expr::BinOp { op: BinOp::BitAnd, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        Ok(lhs)
    }

    fn parse_shift(&mut self) -> Result<Expr, LangError> {
        let mut lhs = self.parse_additive()?;
        loop {
            let op = match self.peek() {
                TokenKind::Shl => BinOp::Shl,
                TokenKind::Shr => BinOp::Shr,
                _ => break,
            };
            self.advance();
            let rhs = self.parse_additive()?;
            lhs = Expr::BinOp { op, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        Ok(lhs)
    }

    fn parse_additive(&mut self) -> Result<Expr, LangError> {
        let mut lhs = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => break,
            };
            self.advance();
            let rhs = self.parse_multiplicative()?;
            lhs = Expr::BinOp { op, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        Ok(lhs)
    }

    fn parse_multiplicative(&mut self) -> Result<Expr, LangError> {
        let mut lhs = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                TokenKind::SlashSlash => BinOp::FloorDiv,
                TokenKind::Percent => BinOp::Mod,
                TokenKind::StarStar => BinOp::Pow,
                _ => break,
            };
            self.advance();
            let rhs = self.parse_unary()?;
            lhs = Expr::BinOp { op, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr, LangError> {
        match self.peek() {
            TokenKind::Minus => {
                self.advance();
                let operand = self.parse_unary()?;
                Ok(Expr::Unary { op: UnaryOp::Neg, operand: Box::new(operand) })
            }
            TokenKind::Tilde => {
                self.advance();
                let operand = self.parse_unary()?;
                Ok(Expr::Unary { op: UnaryOp::Invert, operand: Box::new(operand) })
            }
            TokenKind::Not => {
                self.advance();
                let operand = self.parse_unary()?;
                Ok(Expr::Unary { op: UnaryOp::Not, operand: Box::new(operand) })
            }
            _ => self.parse_postfix(),
        }
    }

    fn parse_postfix(&mut self) -> Result<Expr, LangError> {
        let mut expr = self.parse_atom()?;
        loop {
            match self.peek() {
                TokenKind::Dot => {
                    self.advance();
                    let attr = self.identifier("an attribute name")?;
                    expr = Expr::Attribute { value: Box::new(expr), attr };
                }
                TokenKind::LBracket => {
                    self.advance();
                    let index = self.parse_expr()?;
                    self.expect(TokenKind::RBracket, "`]`")?;
                    expr = Expr::Index { value: Box::new(expr), index: Box::new(index) };
                }
                TokenKind::LParen => {
                    self.advance();
                    let (args, kwargs) = self.parse_call_args()?;
                    expr = Expr::Call { func: Box::new(expr), args, kwargs };
                }
                _ => break,
            }
        }
        Ok(expr)
    }

    fn parse_call_args(&mut self) -> Result<CallArgs, LangError> {
        let (args_start, kwargs_start) = (self.exprs.len(), self.kwargs.len());
        while !self.check(&TokenKind::RParen) {
            // keyword argument? ident '=' expr
            if let TokenKind::Ident(text) = *self.peek() {
                if self.tokens.get(self.pos + 1).map(|t| &t.kind) == Some(&TokenKind::Assign) {
                    self.advance();
                    self.advance();
                    let name = self.name(text);
                    let value = self.parse_expr()?;
                    self.kwargs.push((name, value));
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                    continue;
                }
            }
            let arg = self.parse_expr()?;
            self.exprs.push(arg);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(TokenKind::RParen, "`)`")?;
        Ok((close(&mut self.exprs, args_start), close(&mut self.kwargs, kwargs_start)))
    }

    fn parse_atom(&mut self) -> Result<Expr, LangError> {
        match *self.advance() {
            TokenKind::Int(v) => Ok(Expr::Int(v)),
            TokenKind::Float(v) => Ok(Expr::Float(v)),
            TokenKind::Str(text) => Ok(Expr::Str(self.name(text))),
            TokenKind::True => Ok(Expr::Bool(true)),
            TokenKind::False => Ok(Expr::Bool(false)),
            TokenKind::None => Ok(Expr::NoneLit),
            TokenKind::Ident(text) => Ok(Expr::Name(self.name(text))),
            TokenKind::LParen => {
                let inner = self.parse_expr()?;
                self.expect(TokenKind::RParen, "`)`")?;
                Ok(inner)
            }
            TokenKind::LBracket => {
                let start = self.exprs.len();
                while !self.check(&TokenKind::RBracket) {
                    let item = self.parse_expr()?;
                    self.exprs.push(item);
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
                self.expect(TokenKind::RBracket, "`]`")?;
                Ok(Expr::List(close(&mut self.exprs, start)))
            }
            TokenKind::LBrace => {
                let start = self.pairs.len();
                while !self.check(&TokenKind::RBrace) {
                    let key = self.parse_expr()?;
                    self.expect(TokenKind::Colon, "`:` in a dict literal")?;
                    let value = self.parse_expr()?;
                    self.pairs.push((key, value));
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
                self.expect(TokenKind::RBrace, "`}`")?;
                Ok(Expr::Dict(close(&mut self.pairs, start)))
            }
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.unexpected("an expression"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::Lexer;

    fn parse(src: &str) -> Program {
        let toks = Lexer::new(src).tokenize().unwrap();
        parse_program(&toks).unwrap()
    }

    #[test]
    fn parses_assignment_and_arithmetic() {
        let p = parse("x = 1 + 2 * 3\n");
        match &p.stmts[0] {
            Stmt::Assign { targets, value } => {
                assert_eq!(targets, &vec![Expr::name("x")]);
                assert_eq!(value.const_int(), Some(7), "precedence: 1 + (2*3)");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_if_elif_else() {
        let p =
            parse("if hdr.op == 1:\n    x = 1\nelif hdr.op == 2:\n    x = 2\nelse:\n    x = 3\n");
        match &p.stmts[0] {
            Stmt::If { cond, body, orelse } => {
                assert!(matches!(cond, Expr::Compare { .. }));
                assert_eq!(body.len(), 1);
                assert_eq!(orelse.len(), 1);
                match &orelse[0] {
                    Stmt::If { orelse: inner_else, .. } => assert_eq!(inner_else.len(), 1),
                    other => panic!("expected nested if, got {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_for_range_with_body() {
        let p = parse("for i in range(3):\n    vals = i\n    y = vals + 1\n");
        match &p.stmts[0] {
            Stmt::For { var, iter, body } => {
                assert_eq!(var, "i");
                let (name, args, _) = iter.as_named_call().unwrap();
                assert_eq!(name, "range");
                assert_eq!(args[0].const_int(), Some(3));
                assert_eq!(body.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_the_fig1_count_min_sketch_program() {
        let src = "\
mem = Array(row=3, size=65536, w=32)
vals = list()
for i in range(3):
    f = Hash(type=\"crc_16\", key=hdr.key)
    idx = get(f, hdr.key)
    vals.append(count(mem, idx, 1))
relt = min(vals)
";
        let p = parse(src);
        assert_eq!(p.stmts.len(), 4);
        // the Array constructor call carries keyword arguments
        match &p.stmts[0] {
            Stmt::Assign { value, .. } => {
                let (name, _, kwargs) = value.as_named_call().unwrap();
                assert_eq!(name, "Array");
                assert_eq!(kwargs.len(), 3);
                assert_eq!(kwargs[0].0, "row");
            }
            other => panic!("unexpected {other:?}"),
        }
        // method call vals.append(...) parses as a call of an attribute
        match &p.stmts[2] {
            Stmt::For { body, .. } => match &body[2] {
                Stmt::ExprStmt(Expr::Call { func, .. }) => {
                    assert!(matches!(func.as_ref(), Expr::Attribute { .. }));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_the_fig7_sparse_mlagg_user_program() {
        let src = "\
agg = MLAgg(row, dim, is_convert, scale)
for i in range(BlockNum):
    sparse = 1
    for j in range(BlockSize):
        index = BlockNum * i + j
        if hdr.feat[index] != 0:
            sparse = 0
    if sparse == 0:
        del(hdr.feat[index])
agg(hdr)
";
        let p = parse(src);
        assert_eq!(p.stmts.len(), 3);
        match &p.stmts[1] {
            Stmt::For { body, .. } => {
                assert_eq!(body.len(), 3);
                assert!(matches!(body[1], Stmt::For { .. }));
                assert!(matches!(body[2], Stmt::If { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
        // trailing template invocation agg(hdr)
        match &p.stmts[2] {
            Stmt::ExprStmt(Expr::Call { func, args, .. }) => {
                assert_eq!(func.as_ref(), &Expr::name("agg"));
                assert_eq!(args.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_augmented_assignment_and_boolean_chains() {
        let p = parse("x += 1\ny -= 2\nif a and b or not c:\n    drop()\n");
        assert!(matches!(p.stmts[0], Stmt::AugAssign { op: BinOp::Add, .. }));
        assert!(matches!(p.stmts[1], Stmt::AugAssign { op: BinOp::Sub, .. }));
        match &p.stmts[2] {
            Stmt::If { cond, .. } => assert!(matches!(cond, Expr::BoolChain { .. })),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_imports_and_defs() {
        let p = parse("from Funclib import *\ndef comp(v1, v2):\n    if v1 < v2:\n        return v1\n    else:\n        return v2\n");
        assert!(matches!(&p.stmts[0], Stmt::Import { module } if module == "Funclib"));
        match &p.stmts[1] {
            Stmt::FuncDef { name, params, body } => {
                assert_eq!(name, "comp");
                assert_eq!(params.len(), 2);
                assert_eq!(body.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_dict_literals_in_back_calls() {
        let p = parse("back(hdr={op: REPLY, vals: vals})\n");
        match &p.stmts[0] {
            Stmt::ExprStmt(Expr::Call { kwargs, .. }) => {
                assert_eq!(kwargs.len(), 1);
                assert!(matches!(kwargs[0].1, Expr::Dict(_)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_indexing_and_slices_of_header_fields() {
        let p = parse("v = hdr.feat[3]\nw = hdr.vals[i + 1]\n");
        match &p.stmts[0] {
            Stmt::Assign { value, .. } => {
                assert_eq!(value.as_header_field(), Some("feat"));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(p.stmts.len(), 2);
    }

    #[test]
    fn error_on_missing_colon() {
        let toks = Lexer::new("if x > 0\n    y = 1\n").tokenize().unwrap();
        let err = parse_program(&toks).unwrap_err();
        assert!(matches!(err, LangError::UnexpectedToken { .. }));
    }

    #[test]
    fn error_on_unclosed_paren() {
        let toks = Lexer::new("x = f(1, 2\n").tokenize().unwrap();
        assert!(parse_program(&toks).is_err());
    }

    #[test]
    fn error_on_dangling_operator() {
        let toks = Lexer::new("x = 1 +\n").tokenize().unwrap();
        assert!(parse_program(&toks).is_err());
    }

    #[test]
    fn chained_assignment() {
        let p = parse("a = b = 5\n");
        match &p.stmts[0] {
            Stmt::Assign { targets, value } => {
                assert_eq!(targets.len(), 2);
                assert_eq!(value.const_int(), Some(5));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
