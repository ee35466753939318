//! Errors produced by the lexer, parser and profile loader.

use std::fmt;

/// A source location (1-based line and column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
}

impl Span {
    /// Create a span.
    pub fn new(line: usize, col: usize) -> Span {
        Span { line, col }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Errors from the ClickINC language toolchain front half.
#[derive(Debug, Clone, PartialEq)]
pub enum LangError {
    /// The lexer met a character it does not understand.
    UnexpectedChar {
        /// The character.
        ch: char,
        /// Where it was found.
        span: Span,
    },
    /// Inconsistent indentation (dedent to a level never used).
    BadIndentation {
        /// Where it was found.
        span: Span,
    },
    /// An unterminated string literal.
    UnterminatedString {
        /// Where the string started.
        span: Span,
    },
    /// A number literal with no value: an integer outside `i64`, a bare
    /// `0x`, or a hexadecimal float.
    BadNumber {
        /// The literal as written.
        text: String,
        /// What is wrong with it.
        reason: &'static str,
        /// Where the literal starts.
        span: Span,
    },
    /// A block nested deeper than the lexer's indentation stack holds.
    TooDeeplyNested {
        /// The line that opens the block one level too deep.
        span: Span,
    },
    /// The parser met an unexpected token.
    UnexpectedToken {
        /// What was found.
        found: String,
        /// What was expected.
        expected: String,
        /// Where.
        span: Span,
    },
    /// The parser reached the end of input prematurely.
    UnexpectedEof {
        /// What was expected.
        expected: String,
    },
    /// Generic semantic error raised while resolving modules.
    Semantic(String),
}

impl fmt::Display for LangError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LangError::UnexpectedChar { ch, span } => {
                write!(f, "unexpected character `{ch}` at {span}")
            }
            LangError::BadIndentation { span } => write!(f, "inconsistent indentation at {span}"),
            LangError::UnterminatedString { span } => {
                write!(f, "unterminated string literal starting at {span}")
            }
            LangError::BadNumber { text, reason, span } => {
                write!(f, "number literal `{text}` at {span} {reason}")
            }
            LangError::TooDeeplyNested { span } => {
                write!(f, "too many levels of indentation at {span}")
            }
            LangError::UnexpectedToken { found, expected, span } => {
                write!(f, "expected {expected} but found `{found}` at {span}")
            }
            LangError::UnexpectedEof { expected } => {
                write!(f, "unexpected end of input, expected {expected}")
            }
            LangError::Semantic(msg) => write!(f, "semantic error: {msg}"),
        }
    }
}

impl std::error::Error for LangError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_render_line_and_col() {
        assert_eq!(Span::new(3, 7).to_string(), "3:7");
    }

    #[test]
    fn errors_render_context() {
        let e = LangError::UnexpectedChar { ch: '$', span: Span::new(1, 2) };
        assert!(e.to_string().contains('$'));
        let e = LangError::UnexpectedToken {
            found: ")".into(),
            expected: "an expression".into(),
            span: Span::new(2, 5),
        };
        assert!(e.to_string().contains("an expression"));
        assert!(LangError::UnexpectedEof { expected: "`:`".into() }.to_string().contains("`:`"));
    }
}
