//! Lexer for the Ecode language (a subset of C).

use crate::error::{EcodeError, Pos, Result};

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Tok {
    // literals
    IntLit(i64),
    FloatLit(f64),
    StrLit(String),
    CharLit(u8),
    Ident(String),
    // keywords
    KwInt,
    KwLong,
    KwDouble,
    KwChar,
    KwString,
    KwIf,
    KwElse,
    KwFor,
    // punctuation / operators
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Semi,
    Comma,
    Dot,
    Assign,
    PlusAssign,
    MinusAssign,
    StarAssign,
    SlashAssign,
    PercentAssign,
    PlusPlus,
    MinusMinus,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Eq,
    Ne,
    Lt,
    Gt,
    Le,
    Ge,
    AndAnd,
    OrOr,
    Bang,
    Eof,
}

impl Tok {
    /// A short description used in parse errors.
    pub(crate) fn describe(&self) -> String {
        match self {
            Tok::IntLit(v) => format!("integer literal {v}"),
            Tok::FloatLit(v) => format!("float literal {v}"),
            Tok::StrLit(_) => "string literal".into(),
            Tok::CharLit(_) => "char literal".into(),
            Tok::Ident(s) => format!("identifier `{s}`"),
            Tok::Eof => "end of input".into(),
            other => format!("`{}`", token_text(other)),
        }
    }
}

fn token_text(t: &Tok) -> &'static str {
    match t {
        Tok::KwInt => "int",
        Tok::KwLong => "long",
        Tok::KwDouble => "double",
        Tok::KwChar => "char",
        Tok::KwString => "string",
        Tok::KwIf => "if",
        Tok::KwElse => "else",
        Tok::KwFor => "for",
        Tok::LParen => "(",
        Tok::RParen => ")",
        Tok::LBrace => "{",
        Tok::RBrace => "}",
        Tok::LBracket => "[",
        Tok::RBracket => "]",
        Tok::Semi => ";",
        Tok::Comma => ",",
        Tok::Dot => ".",
        Tok::Assign => "=",
        Tok::PlusAssign => "+=",
        Tok::MinusAssign => "-=",
        Tok::StarAssign => "*=",
        Tok::SlashAssign => "/=",
        Tok::PercentAssign => "%=",
        Tok::PlusPlus => "++",
        Tok::MinusMinus => "--",
        Tok::Plus => "+",
        Tok::Minus => "-",
        Tok::Star => "*",
        Tok::Slash => "/",
        Tok::Percent => "%",
        Tok::Eq => "==",
        Tok::Ne => "!=",
        Tok::Lt => "<",
        Tok::Gt => ">",
        Tok::Le => "<=",
        Tok::Ge => ">=",
        Tok::AndAnd => "&&",
        Tok::OrOr => "||",
        Tok::Bang => "!",
        _ => "?",
    }
}

/// A token paired with its source position.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Spanned {
    /// The token.
    pub(crate) tok: Tok,
    /// Start position.
    pub(crate) pos: Pos,
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Lexer<'a> {
        Lexer { src: src.as_bytes(), pos: 0, line: 1, col: 1 }
    }

    fn here(&self) -> Pos {
        Pos { line: self.line, col: self.col }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn skip_trivia(&mut self) -> Result<()> {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    let start = self.here();
                    self.bump();
                    self.bump();
                    loop {
                        match (self.peek(), self.peek2()) {
                            (Some(b'*'), Some(b'/')) => {
                                self.bump();
                                self.bump();
                                break;
                            }
                            (Some(_), _) => {
                                self.bump();
                            }
                            (None, _) => {
                                return Err(EcodeError::lex(start, "unterminated comment"))
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn number(&mut self) -> Result<Tok> {
        let start_pos = self.pos;
        let here = self.here();
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.bump();
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') && matches!(self.peek2(), Some(c) if c.is_ascii_digit()) {
            is_float = true;
            self.bump();
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.bump();
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            let save = self.pos;
            is_float = true;
            self.bump();
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.bump();
            }
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos = save;
                is_float = self.src[start_pos..save].contains(&b'.');
            } else {
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.bump();
                }
            }
        }
        let text = std::str::from_utf8(&self.src[start_pos..self.pos]).expect("ascii digits");
        if is_float {
            text.parse::<f64>()
                .map(Tok::FloatLit)
                .map_err(|e| EcodeError::lex(here, format!("bad float literal: {e}")))
        } else {
            text.parse::<i64>()
                .map(Tok::IntLit)
                .map_err(|e| EcodeError::lex(here, format!("bad integer literal: {e}")))
        }
    }

    fn escape(&mut self, start: Pos) -> Result<u8> {
        match self.bump() {
            Some(b'n') => Ok(b'\n'),
            Some(b't') => Ok(b'\t'),
            Some(b'r') => Ok(b'\r'),
            Some(b'0') => Ok(0),
            Some(b'\\') => Ok(b'\\'),
            Some(b'\'') => Ok(b'\''),
            Some(b'"') => Ok(b'"'),
            Some(c) => Err(EcodeError::lex(start, format!("unknown escape `\\{}`", c as char))),
            None => Err(EcodeError::lex(start, "unterminated escape")),
        }
    }

    fn string(&mut self) -> Result<Tok> {
        let start = self.here();
        self.bump(); // opening quote
        let mut s = Vec::new();
        loop {
            match self.bump() {
                Some(b'"') => break,
                Some(b'\\') => s.push(self.escape(start)?),
                Some(c) => s.push(c),
                None => return Err(EcodeError::lex(start, "unterminated string literal")),
            }
        }
        String::from_utf8(s)
            .map(Tok::StrLit)
            .map_err(|_| EcodeError::lex(start, "non-UTF-8 string literal"))
    }

    fn char_lit(&mut self) -> Result<Tok> {
        let start = self.here();
        self.bump(); // opening quote
        let c = match self.bump() {
            Some(b'\\') => self.escape(start)?,
            Some(b'\'') => return Err(EcodeError::lex(start, "empty char literal")),
            Some(c) => c,
            None => return Err(EcodeError::lex(start, "unterminated char literal")),
        };
        if self.bump() != Some(b'\'') {
            return Err(EcodeError::lex(start, "char literal must hold exactly one character"));
        }
        Ok(Tok::CharLit(c))
    }

    fn ident_or_kw(&mut self) -> Tok {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == b'_') {
            self.bump();
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).expect("ascii ident");
        match text {
            "int" => Tok::KwInt,
            "long" => Tok::KwLong,
            "double" => Tok::KwDouble,
            "char" => Tok::KwChar,
            "string" => Tok::KwString,
            "if" => Tok::KwIf,
            "else" => Tok::KwElse,
            "for" => Tok::KwFor,
            _ => Tok::Ident(text.to_string()),
        }
    }

    fn op(&mut self) -> Result<Tok> {
        let here = self.here();
        let c = self.bump().expect("caller checked peek");
        let two = |lex: &mut Lexer<'a>, next: u8, yes: Tok, no: Tok| {
            if lex.peek() == Some(next) {
                lex.bump();
                yes
            } else {
                no
            }
        };
        Ok(match c {
            b'(' => Tok::LParen,
            b')' => Tok::RParen,
            b'{' => Tok::LBrace,
            b'}' => Tok::RBrace,
            b'[' => Tok::LBracket,
            b']' => Tok::RBracket,
            b';' => Tok::Semi,
            b',' => Tok::Comma,
            b'.' => Tok::Dot,
            b'+' => match self.peek() {
                Some(b'+') => {
                    self.bump();
                    Tok::PlusPlus
                }
                Some(b'=') => {
                    self.bump();
                    Tok::PlusAssign
                }
                _ => Tok::Plus,
            },
            b'-' => match self.peek() {
                Some(b'-') => {
                    self.bump();
                    Tok::MinusMinus
                }
                Some(b'=') => {
                    self.bump();
                    Tok::MinusAssign
                }
                _ => Tok::Minus,
            },
            b'*' => two(self, b'=', Tok::StarAssign, Tok::Star),
            b'/' => two(self, b'=', Tok::SlashAssign, Tok::Slash),
            b'%' => two(self, b'=', Tok::PercentAssign, Tok::Percent),
            b'=' => two(self, b'=', Tok::Eq, Tok::Assign),
            b'!' => two(self, b'=', Tok::Ne, Tok::Bang),
            b'<' => two(self, b'=', Tok::Le, Tok::Lt),
            b'>' => two(self, b'=', Tok::Ge, Tok::Gt),
            b'&' => {
                if self.peek() == Some(b'&') {
                    self.bump();
                    Tok::AndAnd
                } else {
                    return Err(EcodeError::lex(here, "expected `&&` (Ecode has no bitwise ops)"));
                }
            }
            b'|' => {
                if self.peek() == Some(b'|') {
                    self.bump();
                    Tok::OrOr
                } else {
                    return Err(EcodeError::lex(here, "expected `||` (Ecode has no bitwise ops)"));
                }
            }
            c => {
                return Err(EcodeError::lex(here, format!("unexpected character `{}`", c as char)))
            }
        })
    }
}

/// Tokenizes Ecode source text.
///
/// # Errors
///
/// Returns [`EcodeError::Lex`] on invalid characters, unterminated
/// strings/comments, or out-of-range numeric literals.
pub(crate) fn lex(src: &str) -> Result<Vec<Spanned>> {
    let mut lx = Lexer::new(src);
    let mut out = Vec::new();
    loop {
        lx.skip_trivia()?;
        let pos = lx.here();
        let tok = match lx.peek() {
            None => {
                out.push(Spanned { tok: Tok::Eof, pos });
                return Ok(out);
            }
            Some(c) if c.is_ascii_digit() => lx.number()?,
            Some(b'"') => lx.string()?,
            Some(b'\'') => lx.char_lit()?,
            Some(c) if c.is_ascii_alphabetic() || c == b'_' => lx.ident_or_kw(),
            Some(_) => lx.op()?,
        };
        out.push(Spanned { tok, pos });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn keywords_and_idents() {
        assert_eq!(
            toks("int x for forx"),
            vec![
                Tok::KwInt,
                Tok::Ident("x".into()),
                Tok::KwFor,
                Tok::Ident("forx".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(
            toks("42 3.5 1e3 2.5e-2 7"),
            vec![
                Tok::IntLit(42),
                Tok::FloatLit(3.5),
                Tok::FloatLit(1e3),
                Tok::FloatLit(2.5e-2),
                Tok::IntLit(7),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn dot_after_number_vs_field() {
        // `new.count` must not lex `new.` weirdly; digits then dot-ident is
        // member access only when the dot is not followed by a digit.
        assert_eq!(
            toks("a.b"),
            vec![Tok::Ident("a".into()), Tok::Dot, Tok::Ident("b".into()), Tok::Eof]
        );
    }

    #[test]
    fn strings_and_escapes() {
        assert_eq!(toks(r#""hi\n""#), vec![Tok::StrLit("hi\n".into()), Tok::Eof]);
        assert_eq!(toks(r#"'a' '\n'"#), vec![Tok::CharLit(b'a'), Tok::CharLit(b'\n'), Tok::Eof]);
    }

    #[test]
    fn operators_longest_match() {
        assert_eq!(
            toks("a+++b"),
            vec![
                Tok::Ident("a".into()),
                Tok::PlusPlus,
                Tok::Plus,
                Tok::Ident("b".into()),
                Tok::Eof
            ]
        );
        assert_eq!(
            toks("<= >= == != && || += -="),
            vec![
                Tok::Le,
                Tok::Ge,
                Tok::Eq,
                Tok::Ne,
                Tok::AndAnd,
                Tok::OrOr,
                Tok::PlusAssign,
                Tok::MinusAssign,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            toks("a // line\n /* block\n over lines */ b"),
            vec![Tok::Ident("a".into()), Tok::Ident("b".into()), Tok::Eof]
        );
    }

    #[test]
    fn positions_track_lines() {
        let ts = lex("a\n  b").unwrap();
        assert_eq!(ts[0].pos, Pos { line: 1, col: 1 });
        assert_eq!(ts[1].pos, Pos { line: 2, col: 3 });
    }

    #[test]
    fn error_cases() {
        assert!(lex("\"unterminated").is_err());
        assert!(lex("/* unterminated").is_err());
        assert!(lex("a & b").is_err());
        assert!(lex("$").is_err());
        assert!(lex("'ab'").is_err());
        assert!(lex("99999999999999999999").is_err());
    }
}
