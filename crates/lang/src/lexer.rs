//! Tokenizer with Python-style significant indentation.
//!
//! The lexer converts raw source into a token stream with explicit `Newline`,
//! `Indent` and `Dedent` tokens, following the same strategy CPython uses: a
//! stack of indentation widths, one `Indent` pushed per deeper block, one
//! `Dedent` per popped level.  Blank lines (whitespace only, before `\n` or
//! `\r\n`) and comment-only lines produce no tokens.  Brackets suppress
//! newlines so call arguments may span lines.
//!
//! Tokens borrow the source: an identifier or string literal is a slice of
//! it, and a number is read from its bytes with checked arithmetic.  So the
//! token vector, sized up front by a bound read off the bytes, is the
//! lexer's one allocation, and the indentation stack is a fixed array as
//! deep as CPython's.  An integer literal with no `i64` value (out of range, or a
//! bare `0x`) is refused with [`LangError::BadNumber`], never read as `0`.

use crate::error::{LangError, Span};
use crate::token::{Token, TokenKind};

/// The most blocks that may be open at once (CPython's limit).
const MAX_INDENT: usize = 100;

/// The ClickINC lexer.
pub struct Lexer<'src> {
    text: &'src str,
    src: &'src [u8],
    pos: usize,
    line: usize,
    col: usize,
    /// Widths of the open blocks, outermost first; the module level's `0`
    /// is implicit.
    indents: [usize; MAX_INDENT],
    depth: usize,
    bracket_depth: usize,
    tokens: Vec<Token<'src>>,
}

/// An upper bound on the tokens `src` lexes to, so the token vector is
/// allocated once.  Every token but the layout ones starts at a non-blank
/// byte: at the start of a word (a run of letters, digits and `_`), inside a
/// word only right after a number (`1abc`), or at any other byte.  Each
/// line adds at most a `Newline` and an `Indent`, each `Indent` at most one
/// `Dedent`, and the input one `Eof`.
fn token_bound(src: &[u8]) -> usize {
    let word = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut bound = 4;
    let mut prev = b' ';
    for &b in src {
        if b == b'\n' {
            bound += 3;
        } else if !word(b) {
            bound += usize::from(!b.is_ascii_whitespace());
        } else if !word(prev) {
            bound += 1 + usize::from(b.is_ascii_digit());
        }
        prev = b;
    }
    bound
}

impl<'src> Lexer<'src> {
    /// Create a lexer over `source`.
    pub fn new(source: &'src str) -> Lexer<'src> {
        Lexer {
            text: source,
            src: source.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
            indents: [0; MAX_INDENT],
            depth: 0,
            bracket_depth: 0,
            tokens: Vec::new(),
        }
    }

    /// Tokenize the whole input.
    pub fn tokenize(mut self) -> Result<Vec<Token<'src>>, LangError> {
        self.tokens.reserve_exact(token_bound(self.src));
        loop {
            if self.at_line_start() && self.bracket_depth == 0 {
                self.handle_indentation()?;
            }
            if self.pos >= self.src.len() {
                break;
            }
            let ch = self.peek();
            match ch {
                b'\n' => {
                    self.advance();
                    if self.bracket_depth == 0 {
                        // collapse consecutive newlines
                        if !matches!(
                            self.tokens.last().map(|t| &t.kind),
                            Some(TokenKind::Newline) | Some(TokenKind::Indent) | None
                        ) {
                            self.push(TokenKind::Newline);
                        }
                    }
                    self.line += 1;
                    self.col = 1;
                }
                b' ' | b'\t' | b'\r' => {
                    self.advance();
                }
                b'#' => {
                    while self.pos < self.src.len() && self.peek() != b'\n' {
                        self.advance();
                    }
                }
                b'"' | b'\'' => self.lex_string(ch)?,
                b'0'..=b'9' => self.lex_number()?,
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.lex_ident(),
                _ => self.lex_operator()?,
            }
        }
        // final newline + dedents
        if !matches!(
            self.tokens.last().map(|t| &t.kind),
            Some(TokenKind::Newline) | Some(TokenKind::Dedent) | None
        ) {
            self.push(TokenKind::Newline);
        }
        while self.depth > 0 {
            self.depth -= 1;
            self.push(TokenKind::Dedent);
        }
        self.push(TokenKind::Eof);
        Ok(self.tokens)
    }

    /// The width of the innermost open block.
    fn indent(&self) -> usize {
        self.depth.checked_sub(1).map_or(0, |top| self.indents[top])
    }

    fn at_line_start(&self) -> bool {
        self.col == 1
    }

    fn handle_indentation(&mut self) -> Result<(), LangError> {
        // Measure leading whitespace of the next non-blank, non-comment line.
        loop {
            let line_start = self.pos;
            let mut width = 0usize;
            let mut p = self.pos;
            while p < self.src.len() && (self.src[p] == b' ' || self.src[p] == b'\t') {
                width += if self.src[p] == b'\t' { 4 } else { 1 };
                p += 1;
            }
            if p >= self.src.len() {
                self.pos = p;
                self.col += p - line_start;
                return Ok(());
            }
            // a `\r\n` line ending is blank space up to its `\n`
            if self.src[p] == b'\r' && self.src.get(p + 1) == Some(&b'\n') {
                p += 1;
            }
            match self.src[p] {
                b'\n' => {
                    // blank line: skip entirely
                    self.pos = p + 1;
                    self.line += 1;
                    self.col = 1;
                    continue;
                }
                b'#' => {
                    // comment-only line: skip to end of line
                    while p < self.src.len() && self.src[p] != b'\n' {
                        p += 1;
                    }
                    self.pos = if p < self.src.len() { p + 1 } else { p };
                    if p < self.src.len() {
                        self.line += 1;
                    }
                    self.col = 1;
                    continue;
                }
                _ => {
                    self.pos = p;
                    self.col = width + 1;
                    let current = self.indent();
                    if width > current {
                        if self.depth == MAX_INDENT {
                            return Err(LangError::TooDeeplyNested {
                                span: Span::new(self.line, 1),
                            });
                        }
                        self.indents[self.depth] = width;
                        self.depth += 1;
                        self.push(TokenKind::Indent);
                    } else if width < current {
                        while self.indent() > width {
                            self.depth -= 1;
                            self.push(TokenKind::Dedent);
                        }
                        if self.indent() != width {
                            return Err(LangError::BadIndentation {
                                span: Span::new(self.line, 1),
                            });
                        }
                    }
                    return Ok(());
                }
            }
        }
    }

    fn peek(&self) -> u8 {
        self.src[self.pos]
    }

    fn peek_at(&self, offset: usize) -> Option<u8> {
        self.src.get(self.pos + offset).copied()
    }

    fn advance(&mut self) {
        self.pos += 1;
        self.col += 1;
    }

    fn span(&self) -> Span {
        Span::new(self.line, self.col)
    }

    fn push(&mut self, kind: TokenKind<'src>) {
        let span = self.span();
        self.tokens.push(Token::new(kind, span));
    }

    fn lex_string(&mut self, quote: u8) -> Result<(), LangError> {
        let start = self.span();
        self.advance();
        let begin = self.pos;
        while self.pos < self.src.len() && self.peek() != quote && self.peek() != b'\n' {
            self.advance();
        }
        if self.pos >= self.src.len() || self.peek() != quote {
            return Err(LangError::UnterminatedString { span: start });
        }
        let text = &self.text[begin..self.pos];
        self.advance();
        self.tokens.push(Token::new(TokenKind::Str(text), start));
        Ok(())
    }

    fn lex_number(&mut self) -> Result<(), LangError> {
        let start = self.span();
        let begin = self.pos;
        let mut is_float = false;
        while self.pos < self.src.len() {
            match self.peek() {
                b'0'..=b'9' | b'_' => self.advance(),
                b'x' | b'X' if self.pos == begin + 1 && self.src[begin] == b'0' => self.advance(),
                b'a'..=b'f' | b'A'..=b'F'
                    if self.src[begin] == b'0'
                        && begin + 1 < self.src.len()
                        && (self.src[begin + 1] | 0x20) == b'x' =>
                {
                    self.advance()
                }
                b'.' if !is_float
                    && self.peek_at(1).map(|c| c.is_ascii_digit()).unwrap_or(false) =>
                {
                    is_float = true;
                    self.advance();
                }
                _ => break,
            }
        }
        let text = &self.text[begin..self.pos];
        let kind = if is_float { float_value(text) } else { int_value(text) };
        let kind = kind.map_err(|reason| LangError::BadNumber {
            text: text.to_string(),
            reason,
            span: start,
        })?;
        self.tokens.push(Token::new(kind, start));
        Ok(())
    }

    fn lex_ident(&mut self) {
        let start = self.span();
        let begin = self.pos;
        while self.pos < self.src.len()
            && (self.peek().is_ascii_alphanumeric() || self.peek() == b'_')
        {
            self.advance();
        }
        let text = &self.text[begin..self.pos];
        let kind = TokenKind::keyword(text).unwrap_or(TokenKind::Ident(text));
        self.tokens.push(Token::new(kind, start));
    }

    fn lex_operator(&mut self) -> Result<(), LangError> {
        let start = self.span();
        let ch = self.peek();
        let next = self.peek_at(1);
        let (kind, len) = match (ch, next) {
            (b'*', Some(b'*')) => (TokenKind::StarStar, 2),
            (b'/', Some(b'/')) => (TokenKind::SlashSlash, 2),
            (b'=', Some(b'=')) => (TokenKind::EqEq, 2),
            (b'!', Some(b'=')) => (TokenKind::NotEq, 2),
            (b'<', Some(b'=')) => (TokenKind::Le, 2),
            (b'>', Some(b'=')) => (TokenKind::Ge, 2),
            (b'<', Some(b'<')) => (TokenKind::Shl, 2),
            (b'>', Some(b'>')) => (TokenKind::Shr, 2),
            (b'+', Some(b'=')) => (TokenKind::PlusAssign, 2),
            (b'-', Some(b'=')) => (TokenKind::MinusAssign, 2),
            (b'+', _) => (TokenKind::Plus, 1),
            (b'-', _) => (TokenKind::Minus, 1),
            (b'*', _) => (TokenKind::Star, 1),
            (b'/', _) => (TokenKind::Slash, 1),
            (b'%', _) => (TokenKind::Percent, 1),
            (b'=', _) => (TokenKind::Assign, 1),
            (b'<', _) => (TokenKind::Lt, 1),
            (b'>', _) => (TokenKind::Gt, 1),
            (b'&', _) => (TokenKind::Amp, 1),
            (b'|', _) => (TokenKind::Pipe, 1),
            (b'^', _) => (TokenKind::Caret, 1),
            (b'~', _) => (TokenKind::Tilde, 1),
            (b'(', _) => (TokenKind::LParen, 1),
            (b')', _) => (TokenKind::RParen, 1),
            (b'[', _) => (TokenKind::LBracket, 1),
            (b']', _) => (TokenKind::RBracket, 1),
            (b'{', _) => (TokenKind::LBrace, 1),
            (b'}', _) => (TokenKind::RBrace, 1),
            (b',', _) => (TokenKind::Comma, 1),
            (b':', _) => (TokenKind::Colon, 1),
            (b'.', _) => (TokenKind::Dot, 1),
            _ => {
                return Err(LangError::UnexpectedChar { ch: ch as char, span: start });
            }
        };
        match kind {
            TokenKind::LParen | TokenKind::LBracket | TokenKind::LBrace => self.bracket_depth += 1,
            TokenKind::RParen | TokenKind::RBracket | TokenKind::RBrace => {
                self.bracket_depth = self.bracket_depth.saturating_sub(1)
            }
            _ => {}
        }
        for _ in 0..len {
            self.advance();
        }
        self.tokens.push(Token::new(kind, start));
        Ok(())
    }
}

/// An integer literal's value: decimal, or hexadecimal after `0x`, with `_`
/// separators skipped, accumulated with checked arithmetic.
fn int_value(text: &str) -> Result<TokenKind<'static>, &'static str> {
    let (digits, radix) = match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => (hex, 16),
        None => (text, 10),
    };
    let mut value: Option<i64> = None;
    for b in digits.bytes().filter(|&b| b != b'_') {
        let digit = char::from(b).to_digit(radix).expect("the scanner keeps digits of the radix");
        let shifted = value.unwrap_or(0).checked_mul(i64::from(radix));
        value = Some(shifted.and_then(|v| v.checked_add(i64::from(digit))).ok_or("overflows i64")?);
    }
    value.map(TokenKind::Int).ok_or("has no digits")
}

/// A float literal's value, `_` separators skipped.
fn float_value(text: &str) -> Result<TokenKind<'static>, &'static str> {
    let value = if text.contains('_') { text.replace('_', "").parse() } else { text.parse() };
    value.map(TokenKind::Float).map_err(|_| "is not a decimal float")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        Lexer::new(src).tokenize().unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn simple_assignment() {
        let k = kinds("x = 1 + 2\n");
        assert_eq!(
            k,
            vec![
                TokenKind::Ident("x"),
                TokenKind::Assign,
                TokenKind::Int(1),
                TokenKind::Plus,
                TokenKind::Int(2),
                TokenKind::Newline,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn indentation_produces_indent_dedent() {
        let k = kinds("if x > 0:\n    y = 1\nz = 2\n");
        assert!(k.contains(&TokenKind::Indent));
        assert!(k.contains(&TokenKind::Dedent));
        let indent_pos = k.iter().position(|t| *t == TokenKind::Indent).unwrap();
        let dedent_pos = k.iter().position(|t| *t == TokenKind::Dedent).unwrap();
        assert!(indent_pos < dedent_pos);
    }

    #[test]
    fn nested_blocks_close_with_multiple_dedents() {
        let k = kinds("for i in range(3):\n    if i > 0:\n        x = i\n");
        let dedents = k.iter().filter(|t| **t == TokenKind::Dedent).count();
        assert_eq!(dedents, 2);
    }

    #[test]
    fn blank_and_comment_lines_do_not_affect_indentation() {
        let k = kinds("if x:\n    a = 1\n\n    # comment\n    b = 2\n");
        let dedents = k.iter().filter(|t| **t == TokenKind::Dedent).count();
        assert_eq!(dedents, 1);
        let indents = k.iter().filter(|t| **t == TokenKind::Indent).count();
        assert_eq!(indents, 1);
    }

    #[test]
    fn newlines_inside_brackets_are_suppressed() {
        let k = kinds("mem = Array(row=3,\n    size=65536,\n    w=32)\n");
        let newlines = k.iter().filter(|t| **t == TokenKind::Newline).count();
        assert_eq!(newlines, 1);
        assert!(!k.contains(&TokenKind::Indent));
    }

    #[test]
    fn strings_numbers_and_hex() {
        let k = kinds("f = Hash(type=\"crc_16\", key=hdr.key)\nn = 0xff\npi = 3.5\n");
        assert!(k.contains(&TokenKind::Str("crc_16")));
        assert!(k.contains(&TokenKind::Int(255)));
        assert!(k.contains(&TokenKind::Float(3.5)));
        assert!(k.contains(&TokenKind::Dot));
    }

    #[test]
    fn keywords_and_operators() {
        let k =
            kinds("for i in range(3):\n    vals += 1\n    if a != b and c <= d:\n        drop()\n");
        assert!(k.contains(&TokenKind::For));
        assert!(k.contains(&TokenKind::In));
        assert!(k.contains(&TokenKind::PlusAssign));
        assert!(k.contains(&TokenKind::NotEq));
        assert!(k.contains(&TokenKind::And));
        assert!(k.contains(&TokenKind::Le));
    }

    #[test]
    fn bad_indentation_is_reported() {
        let err = Lexer::new("if x:\n        a = 1\n    b = 2\n").tokenize().unwrap_err();
        assert!(matches!(err, LangError::BadIndentation { .. }));
    }

    #[test]
    fn unterminated_string_is_reported() {
        let err = Lexer::new("s = \"oops\n").tokenize().unwrap_err();
        assert!(matches!(err, LangError::UnterminatedString { .. }));
    }

    #[test]
    fn unexpected_character_is_reported() {
        let err = Lexer::new("x = $\n").tokenize().unwrap_err();
        assert!(matches!(err, LangError::UnexpectedChar { ch: '$', .. }));
    }

    #[test]
    fn missing_trailing_newline_is_tolerated() {
        let k = kinds("x = 1");
        assert_eq!(k.last(), Some(&TokenKind::Eof));
        assert!(k.contains(&TokenKind::Newline));
    }

    #[test]
    fn integer_literals_without_an_i64_value_are_refused() {
        let cases = [
            ("99999999999999999999", "overflows i64"),
            ("0xFFFFFFFFFFFFFFFFFF", "overflows i64"),
            ("0x8000_0000_0000_0000", "overflows i64"),
            // `-9223372036854775808` is `-` applied to this literal
            ("9223372036854775808", "overflows i64"),
            ("0x", "has no digits"),
            ("0X", "has no digits"),
        ];
        for (literal, why) in cases {
            let err = Lexer::new(&format!("hdr.out = {literal}\n")).tokenize().unwrap_err();
            let want = LangError::BadNumber {
                text: literal.to_string(),
                reason: why,
                span: Span::new(1, 11),
            };
            assert_eq!(err, want, "{literal}");
            assert_eq!(err.to_string(), format!("number literal `{literal}` at 1:11 {why}"));
        }
        assert!(matches!(
            Lexer::new("x = 0x1.5\n").tokenize(),
            Err(LangError::BadNumber { reason: "is not a decimal float", .. })
        ));
    }

    #[test]
    fn integer_literals_up_to_i64_max_are_read() {
        for (literal, value) in [
            ("9223372036854775807", i64::MAX),
            ("0x7FFF_FFFF_FFFF_FFFF", i64::MAX),
            ("0xff", 255),
            ("1_000", 1000),
            ("007", 7),
            ("0", 0),
        ] {
            assert_eq!(kinds(literal)[0], TokenKind::Int(value), "{literal}");
        }
        assert_eq!(kinds("1_0.2_5")[0], TokenKind::Float(10.25));
    }

    #[test]
    fn blank_crlf_lines_inside_a_block_are_blank() {
        let lf = "if hdr.a == 1:\n    hdr.b = 1\n\n    hdr.c = 2\n  \nforward()\n";
        let crlf = lf.replace('\n', "\r\n");
        assert_eq!(kinds(&crlf), kinds(lf));
        assert_eq!(kinds(&crlf).iter().filter(|t| **t == TokenKind::Dedent).count(), 1);
    }

    #[test]
    fn nesting_deeper_than_the_indentation_stack_is_refused() {
        let nested = |depth: usize| {
            (0..depth).map(|d| format!("{}if x:\n", " ".repeat(d))).collect::<String>()
                + &" ".repeat(depth)
                + "drop()\n"
        };
        assert!(Lexer::new(&nested(MAX_INDENT)).tokenize().is_ok());
        let err = Lexer::new(&nested(MAX_INDENT + 1)).tokenize().unwrap_err();
        // line 1 opens no block, so line `MAX_INDENT + 2` opens one too many
        assert_eq!(err, LangError::TooDeeplyNested { span: Span::new(MAX_INDENT + 2, 1) });
    }

    #[test]
    fn the_token_bound_holds_where_tokens_are_densest() {
        let sources = [
            // a number splits its word, an `Indent` per line, `Dedent`s at the end
            "x = 1abc + 0x1fg\n",
            "if a:\n    if b:\n        c = \"s t r\"  # note\n",
            "mem = Array(row=3,\n    size=65536)\nhdr.x = hdr.y[1] ** 2 // 3.5\n",
            "",
        ];
        for source in sources {
            let tokens = Lexer::new(source).tokenize().unwrap();
            assert!(tokens.len() <= token_bound(source.as_bytes()), "{source:?}");
        }
    }

    #[test]
    fn shift_operators_lex_before_comparison() {
        let k = kinds("a = b << 2\nc = d >> 3\n");
        assert!(k.contains(&TokenKind::Shl));
        assert!(k.contains(&TokenKind::Shr));
    }
}
