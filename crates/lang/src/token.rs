//! Tokens of the ClickINC language.
//!
//! A token borrows its text from the source it was lexed from: an identifier
//! or string literal is a slice of that source, so a token costs no
//! allocation of its own.

use crate::error::Span;
use std::fmt;

/// Kind of a lexical token, borrowing identifiers and strings from the
/// source text `'src`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TokenKind<'src> {
    /// Identifier (variable, function, module name).
    Ident(&'src str),
    /// Integer literal.
    Int(i64),
    /// Floating-point literal.
    Float(f64),
    /// String literal (without quotes).
    Str(&'src str),
    /// Keyword `if`.
    If,
    /// Keyword `elif`.
    Elif,
    /// Keyword `else`.
    Else,
    /// Keyword `for`.
    For,
    /// Keyword `in`.
    In,
    /// Keyword `and`.
    And,
    /// Keyword `or`.
    Or,
    /// Keyword `not`.
    Not,
    /// Keyword `from`.
    From,
    /// Keyword `import`.
    Import,
    /// Keyword `def`.
    Def,
    /// Keyword `return`.
    Return,
    /// Keyword `None`.
    None,
    /// Keyword `True`.
    True,
    /// Keyword `False`.
    False,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `//`
    SlashSlash,
    /// `%`
    Percent,
    /// `**`
    StarStar,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `=`
    Assign,
    /// `+=`
    PlusAssign,
    /// `-=`
    MinusAssign,
    /// `&`
    Amp,
    /// `|`
    Pipe,
    /// `^`
    Caret,
    /// `~`
    Tilde,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `,`
    Comma,
    /// `:`
    Colon,
    /// `.`
    Dot,
    /// End of a logical line.
    Newline,
    /// Increase of indentation level.
    Indent,
    /// Decrease of indentation level.
    Dedent,
    /// End of input.
    Eof,
}

impl TokenKind<'_> {
    /// Map an identifier to a keyword token if it is one.
    pub fn keyword(ident: &str) -> Option<TokenKind<'static>> {
        Some(match ident {
            "if" => TokenKind::If,
            "elif" => TokenKind::Elif,
            "else" => TokenKind::Else,
            "for" => TokenKind::For,
            "in" => TokenKind::In,
            "and" => TokenKind::And,
            "or" => TokenKind::Or,
            "not" => TokenKind::Not,
            "from" => TokenKind::From,
            "import" => TokenKind::Import,
            "def" => TokenKind::Def,
            "return" => TokenKind::Return,
            "None" => TokenKind::None,
            "True" => TokenKind::True,
            "False" => TokenKind::False,
            _ => return Option::None,
        })
    }

    /// Short description used in error messages.
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Ident(s) => format!("identifier `{s}`"),
            TokenKind::Int(v) => format!("integer `{v}`"),
            TokenKind::Float(v) => format!("float `{v}`"),
            TokenKind::Str(s) => format!("string \"{s}\""),
            TokenKind::Newline => "newline".to_string(),
            TokenKind::Indent => "indent".to_string(),
            TokenKind::Dedent => "dedent".to_string(),
            TokenKind::Eof => "end of input".to_string(),
            other => format!("`{}`", other.symbol()),
        }
    }

    fn symbol(&self) -> &'static str {
        match self {
            TokenKind::If => "if",
            TokenKind::Elif => "elif",
            TokenKind::Else => "else",
            TokenKind::For => "for",
            TokenKind::In => "in",
            TokenKind::And => "and",
            TokenKind::Or => "or",
            TokenKind::Not => "not",
            TokenKind::From => "from",
            TokenKind::Import => "import",
            TokenKind::Def => "def",
            TokenKind::Return => "return",
            TokenKind::None => "None",
            TokenKind::True => "True",
            TokenKind::False => "False",
            TokenKind::Plus => "+",
            TokenKind::Minus => "-",
            TokenKind::Star => "*",
            TokenKind::Slash => "/",
            TokenKind::SlashSlash => "//",
            TokenKind::Percent => "%",
            TokenKind::StarStar => "**",
            TokenKind::EqEq => "==",
            TokenKind::NotEq => "!=",
            TokenKind::Lt => "<",
            TokenKind::Le => "<=",
            TokenKind::Gt => ">",
            TokenKind::Ge => ">=",
            TokenKind::Assign => "=",
            TokenKind::PlusAssign => "+=",
            TokenKind::MinusAssign => "-=",
            TokenKind::Amp => "&",
            TokenKind::Pipe => "|",
            TokenKind::Caret => "^",
            TokenKind::Tilde => "~",
            TokenKind::Shl => "<<",
            TokenKind::Shr => ">>",
            TokenKind::LParen => "(",
            TokenKind::RParen => ")",
            TokenKind::LBracket => "[",
            TokenKind::RBracket => "]",
            TokenKind::LBrace => "{",
            TokenKind::RBrace => "}",
            TokenKind::Comma => ",",
            TokenKind::Colon => ":",
            TokenKind::Dot => ".",
            _ => "?",
        }
    }
}

/// A token with its source location.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Token<'src> {
    /// Token kind and payload.
    pub kind: TokenKind<'src>,
    /// Source position.
    pub span: Span,
}

impl<'src> Token<'src> {
    /// Create a token.
    pub fn new(kind: TokenKind<'src>, span: Span) -> Token<'src> {
        Token { kind, span }
    }
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_are_recognized() {
        assert_eq!(TokenKind::keyword("if"), Some(TokenKind::If));
        assert_eq!(TokenKind::keyword("for"), Some(TokenKind::For));
        assert_eq!(TokenKind::keyword("None"), Some(TokenKind::None));
        assert_eq!(TokenKind::keyword("hdr"), None);
    }

    #[test]
    fn describe_is_informative() {
        assert_eq!(TokenKind::Ident("cache").describe(), "identifier `cache`");
        assert_eq!(TokenKind::Shl.describe(), "`<<`");
        assert_eq!(TokenKind::Eof.describe(), "end of input");
        assert_eq!(TokenKind::Int(5).describe(), "integer `5`");
    }

    #[test]
    fn token_display_uses_describe() {
        let t = Token::new(TokenKind::Colon, Span::new(1, 1));
        assert_eq!(t.to_string(), "`:`");
    }
}
