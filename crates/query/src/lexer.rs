//! The lexer.
//!
//! Tokenizes the surface language used for queries, schema DDL and view DDL.
//! Keywords are **contextual**: the lexer emits plain identifiers and the
//! parser matches keyword text where the grammar expects it, so user schemas
//! may freely use words like `Name`, `Value` or `Type` as attribute names
//! (the paper's own examples do).
//!
//! Comments run from `--` to end of line (SQL style) or `//` to end of line.

use std::borrow::Cow;

use crate::error::{Pos, QueryError, Result};

/// A token kind. Identifiers and escape-free string literals are slices of
/// the source text, so scanning a token allocates nothing.
#[derive(Clone, PartialEq, Debug)]
pub enum Tok<'a> {
    /// Identifier or contextual keyword (`select`, `Person`, …).
    Ident(&'a str),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal (quotes and escapes already processed): borrowed from
    /// the source unless an escape had to be rewritten.
    Str(Cow<'a, str>),
    /// Object-identifier literal `#42` or `#i42` (imaginary range).
    OidLit(u64),
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
    /// `;`
    Semi,
    /// `:`
    Colon,
    /// `.`
    Dot,
    /// `+`
    Plus,
    /// `++`
    PlusPlus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=` (also `≤`)
    Le,
    /// `>`
    Gt,
    /// `>=` (also `≥`)
    Ge,
    /// End of input.
    Eof,
}

impl Tok<'_> {
    /// Human-readable rendering for error messages.
    pub fn describe(&self) -> String {
        match self {
            Tok::Ident(s) => format!("`{s}`"),
            Tok::Int(i) => format!("`{i}`"),
            Tok::Float(x) => format!("`{x}`"),
            Tok::Str(_) => "string literal".into(),
            Tok::OidLit(n) => format!("`#{n}`"),
            Tok::LParen => "`(`".into(),
            Tok::RParen => "`)`".into(),
            Tok::LBracket => "`[`".into(),
            Tok::RBracket => "`]`".into(),
            Tok::LBrace => "`{`".into(),
            Tok::RBrace => "`}`".into(),
            Tok::Comma => "`,`".into(),
            Tok::Semi => "`;`".into(),
            Tok::Colon => "`:`".into(),
            Tok::Dot => "`.`".into(),
            Tok::Plus => "`+`".into(),
            Tok::PlusPlus => "`++`".into(),
            Tok::Minus => "`-`".into(),
            Tok::Star => "`*`".into(),
            Tok::Slash => "`/`".into(),
            Tok::Percent => "`%`".into(),
            Tok::Eq => "`=`".into(),
            Tok::Ne => "`!=`".into(),
            Tok::Lt => "`<`".into(),
            Tok::Le => "`<=`".into(),
            Tok::Gt => "`>`".into(),
            Tok::Ge => "`>=`".into(),
            Tok::Eof => "end of input".into(),
        }
    }
}

/// A token with its source position.
#[derive(Clone, Debug)]
pub struct Token<'a> {
    /// The token itself.
    pub tok: Tok<'a>,
    /// Byte offset of its first character in the source; [`Pos::at`] turns
    /// it into a line and column when an error needs one.
    pub pos: usize,
}

/// Tokenizes `input` fully, ending with [`Tok::Eof`].
pub fn lex(input: &str) -> Result<Vec<Token<'_>>> {
    let mut lexer = Lexer::new(input);
    let mut out = Vec::new();
    loop {
        let token = lexer.next_token()?;
        let done = token.tok == Tok::Eof;
        out.push(token);
        if done {
            return Ok(out);
        }
    }
}

/// The scanner: hands out one token at a time, so the parser holds two
/// tokens and a statement's tokens are never collected.
///
/// Scans by byte: every character the grammar gives meaning to is ASCII
/// except `≥` / `≤`, so a `char` is decoded only at a non-ASCII byte (a
/// Unicode letter in an identifier, Unicode whitespace, or an error).
/// `i` always rests on a character boundary.
pub(crate) struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    i: usize,
}

impl<'a> Lexer<'a> {
    /// A scanner at the start of `src`.
    pub(crate) fn new(src: &'a str) -> Lexer<'a> {
        Lexer {
            src,
            bytes: src.as_bytes(),
            i: 0,
        }
    }

    /// The text being scanned.
    pub(crate) fn source(&self) -> &'a str {
        self.src
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.i).copied()
    }

    /// The character starting at byte `at`.
    fn char_at(&self, at: usize) -> Option<char> {
        self.src[at..].chars().next()
    }

    /// An error at the current offset — like the positions the parser
    /// reports, the line and column are computed only here.
    fn error(&self, msg: impl Into<String>) -> QueryError {
        QueryError::Lex {
            pos: Pos::at(self.src, self.i),
            msg: msg.into(),
        }
    }

    fn skip_line(&mut self) {
        while self.peek().is_some_and(|b| b != b'\n') {
            self.i += 1;
        }
    }

    fn skip_whitespace_and_comments(&mut self) {
        while let Some(b) = self.peek() {
            match b {
                // `char::is_whitespace` over ASCII: space, \t \n VT FF \r.
                b' ' | b'\t'..=b'\r' => self.i += 1,
                b'-' | b'/' if self.bytes.get(self.i + 1) == Some(&b) => self.skip_line(),
                0x80.. => match self.char_at(self.i) {
                    Some(c) if c.is_whitespace() => self.i += c.len_utf8(),
                    _ => return,
                },
                _ => return,
            }
        }
    }

    /// The next token; at the end of the input, [`Tok::Eof`] (again and
    /// again). After an error the scanner rests mid-token and must not be
    /// asked for more.
    pub(crate) fn next_token(&mut self) -> Result<Token<'a>> {
        self.skip_whitespace_and_comments();
        let pos = self.i;
        let Some(b) = self.peek() else {
            return Ok(Token { tok: Tok::Eof, pos });
        };
        let tok = match b {
            b'0'..=b'9' => self.number()?,
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.ident(),
            b'"' => self.string()?,
            b'#' => self.oid_literal()?,
            0x80.. if self.char_at(pos).is_some_and(char::is_alphabetic) => self.ident(),
            _ => self.operator()?,
        };
        Ok(Token { tok, pos })
    }

    fn digits(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.i += 1;
        }
    }

    fn number(&mut self) -> Result<Tok<'a>> {
        let start = self.i;
        while self.peek().is_some_and(|b| b.is_ascii_digit() || b == b'_') {
            self.i += 1;
        }
        // A fractional part only if `.` is followed by a digit — `1.Age`
        // must lex as `1` `.` `Age`.
        let is_float =
            self.peek() == Some(b'.') && self.bytes.get(self.i + 1).is_some_and(u8::is_ascii_digit);
        if is_float {
            self.i += 1;
            self.digits();
        }
        let raw = &self.src[start..self.i];
        // `5_000`: only a literal with separators is copied.
        let text: Cow<'_, str> = if raw.contains('_') {
            Cow::Owned(raw.replace('_', ""))
        } else {
            Cow::Borrowed(raw)
        };
        if is_float {
            text.parse::<f64>()
                .map(Tok::Float)
                .map_err(|e| self.error(format!("bad float literal: {e}")))
        } else {
            text.parse::<i64>()
                .map(Tok::Int)
                .map_err(|e| self.error(format!("bad integer literal: {e}")))
        }
    }

    fn ident(&mut self) -> Tok<'a> {
        let start = self.i;
        while let Some(b) = self.peek() {
            match b {
                // `&` is allowed mid-identifier for the paper's `Rich&Beautiful`.
                b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_' | b'&' => self.i += 1,
                0x80.. => match self.char_at(self.i) {
                    Some(c) if c.is_alphanumeric() => self.i += c.len_utf8(),
                    _ => break,
                },
                _ => break,
            }
        }
        Tok::Ident(&self.src[start..self.i])
    }

    fn string(&mut self) -> Result<Tok<'a>> {
        self.i += 1; // opening quote
        let mut run = self.i; // start of the text not yet copied
        let mut owned: Option<String> = None;
        loop {
            // `"` and `\` are ASCII, so they never match inside a
            // multi-byte character.
            match self.peek() {
                None => return Err(self.error("unterminated string literal")),
                Some(b'"') => {
                    let tail = &self.src[run..self.i];
                    self.i += 1;
                    return Ok(Tok::Str(match owned {
                        None => Cow::Borrowed(tail),
                        Some(mut text) => {
                            text.push_str(tail);
                            Cow::Owned(text)
                        }
                    }));
                }
                Some(b'\\') => {
                    let text = owned.get_or_insert_with(String::new);
                    text.push_str(&self.src[run..self.i]);
                    self.i += 1;
                    let escaped = self.char_at(self.i);
                    self.i += escaped.map_or(0, char::len_utf8);
                    text.push(match escaped {
                        Some('n') => '\n',
                        Some('t') => '\t',
                        Some('"') => '"',
                        Some('\\') => '\\',
                        other => {
                            return Err(
                                self.error(format!("bad escape: \\{}", other.unwrap_or(' ')))
                            )
                        }
                    });
                    run = self.i;
                }
                Some(_) => self.i += 1,
            }
        }
    }

    fn oid_literal(&mut self) -> Result<Tok<'a>> {
        self.i += 1; // '#'
        let imaginary = self.peek() == Some(b'i');
        if imaginary {
            self.i += 1;
        }
        let start = self.i;
        self.digits();
        let text = &self.src[start..self.i];
        if text.is_empty() {
            return Err(self.error("expected digits after `#`"));
        }
        let n: u64 = text
            .parse()
            .map_err(|e| self.error(format!("bad oid literal: {e}")))?;
        if imaginary {
            // checked: `#i18446744073709551615` must be a lex error, not a
            // debug-build overflow panic.
            n.checked_add(ov_oodb::ids::IMAGINARY_OID_BASE)
                .map(Tok::OidLit)
                .ok_or_else(|| self.error("imaginary oid literal out of range"))
        } else {
            Ok(Tok::OidLit(n))
        }
    }

    /// Consumes a following `=` if there is one.
    fn eat_eq(&mut self) -> bool {
        let eq = self.peek() == Some(b'=');
        if eq {
            self.i += 1;
        }
        eq
    }

    fn operator(&mut self) -> Result<Tok<'a>> {
        // Unreachable expect: the caller dispatches here only after peeking
        // a byte at `i`, which rests on a character boundary.
        let c = self.char_at(self.i).expect("peeked");
        self.i += c.len_utf8();
        Ok(match c {
            '(' => Tok::LParen,
            ')' => Tok::RParen,
            '[' => Tok::LBracket,
            ']' => Tok::RBracket,
            '{' => Tok::LBrace,
            '}' => Tok::RBrace,
            ',' => Tok::Comma,
            ';' => Tok::Semi,
            ':' => Tok::Colon,
            '.' => Tok::Dot,
            '+' => {
                if self.peek() == Some(b'+') {
                    self.i += 1;
                    Tok::PlusPlus
                } else {
                    Tok::Plus
                }
            }
            '-' => Tok::Minus,
            '*' => Tok::Star,
            '/' => Tok::Slash,
            '%' => Tok::Percent,
            '=' => Tok::Eq,
            '!' => {
                if self.eat_eq() {
                    Tok::Ne
                } else {
                    return Err(self.error("expected `=` after `!`"));
                }
            }
            '<' => {
                if self.eat_eq() {
                    Tok::Le
                } else {
                    Tok::Lt
                }
            }
            '>' => {
                if self.eat_eq() {
                    Tok::Ge
                } else {
                    Tok::Gt
                }
            }
            '≥' => Tok::Ge,
            '≤' => Tok::Le,
            other => return Err(self.error(format!("unexpected character `{other}`"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn lexes_paper_query() {
        let toks = kinds("select P from Person where P.Age >= 21");
        assert_eq!(
            toks,
            vec![
                Tok::Ident("select"),
                Tok::Ident("P"),
                Tok::Ident("from"),
                Tok::Ident("Person"),
                Tok::Ident("where"),
                Tok::Ident("P"),
                Tok::Dot,
                Tok::Ident("Age"),
                Tok::Ge,
                Tok::Int(21),
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn numbers_and_paths_disambiguate() {
        assert_eq!(
            kinds("1.5 1.Age"),
            vec![
                Tok::Float(1.5),
                Tok::Int(1),
                Tok::Dot,
                Tok::Ident("Age"),
                Tok::Eof
            ]
        );
        // Underscore digit separators.
        assert_eq!(kinds("5_000")[0], Tok::Int(5000));
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(
            kinds(r#""10 Downing\nStreet""#)[0],
            Tok::Str("10 Downing\nStreet".into())
        );
        assert!(lex("\"unterminated").is_err());
    }

    #[test]
    fn oid_literals() {
        assert_eq!(kinds("#42")[0], Tok::OidLit(42));
        assert_eq!(
            kinds("#i3")[0],
            Tok::OidLit(ov_oodb::ids::IMAGINARY_OID_BASE + 3)
        );
        assert!(lex("# 3").is_err());
    }

    #[test]
    fn comments_are_skipped() {
        let toks = kinds("a -- comment\n b // another\n c");
        assert_eq!(
            toks,
            vec![Tok::Ident("a"), Tok::Ident("b"), Tok::Ident("c"), Tok::Eof]
        );
    }

    #[test]
    fn ampersand_identifiers() {
        assert_eq!(kinds("Rich&Beautiful")[0], Tok::Ident("Rich&Beautiful"));
    }

    #[test]
    fn unicode_comparison_operators() {
        assert_eq!(kinds("a ≥ b")[1], Tok::Ge);
        assert_eq!(kinds("a ≤ b")[1], Tok::Le);
    }

    #[test]
    fn positions_track_lines() {
        let src = "a\n  b";
        let toks = lex(src).unwrap();
        assert_eq!(Pos::at(src, toks[1].pos), Pos { line: 2, col: 3 });
    }

    /// The lexer's contract as a table: each source lexes to exactly these
    /// tokens at these positions, or fails with this message at this
    /// position. Columns count characters, not bytes, and an error is
    /// reported where scanning stopped.
    #[test]
    fn contract_table() {
        let at = |line, col| Pos { line, col };
        let ok: &[(&str, &[(Tok, Pos)])] = &[
            (
                "5_000 1.Age 1.5",
                &[
                    (Tok::Int(5000), at(1, 1)),
                    (Tok::Int(1), at(1, 7)),
                    (Tok::Dot, at(1, 8)),
                    (Tok::Ident("Age"), at(1, 9)),
                    (Tok::Float(1.5), at(1, 13)),
                    (Tok::Eof, at(1, 16)),
                ],
            ),
            (
                "a --b\nc",
                &[
                    (Tok::Ident("a"), at(1, 1)),
                    (Tok::Ident("c"), at(2, 1)),
                    (Tok::Eof, at(2, 2)),
                ],
            ),
            (
                "Rich&Beautiful ++x",
                &[
                    (Tok::Ident("Rich&Beautiful"), at(1, 1)),
                    (Tok::PlusPlus, at(1, 16)),
                    (Tok::Ident("x"), at(1, 18)),
                    (Tok::Eof, at(1, 19)),
                ],
            ),
            (
                // `é` is two bytes and `≥` three: the columns after them
                // still advance by one each.
                "é ≥ b\n\"é\" ≤ #7",
                &[
                    (Tok::Ident("é"), at(1, 1)),
                    (Tok::Ge, at(1, 3)),
                    (Tok::Ident("b"), at(1, 5)),
                    (Tok::Str("é".into()), at(2, 1)),
                    (Tok::Le, at(2, 5)),
                    (Tok::OidLit(7), at(2, 7)),
                    (Tok::Eof, at(2, 9)),
                ],
            ),
        ];
        for (src, want) in ok {
            let got: Vec<(Tok, Pos)> = lex(src)
                .unwrap_or_else(|e| panic!("{src:?}: {e}"))
                .into_iter()
                .map(|t| (t.tok, Pos::at(src, t.pos)))
                .collect();
            assert_eq!(got, *want, "{src:?}");
        }
        let err: &[(&str, &str, Pos)] = &[
            // Position = end of input.
            ("x = \"abc", "unterminated string literal", at(1, 9)),
            ("\"é\\", "bad escape: \\ ", at(1, 4)),
            ("\"é\\q\"", "bad escape: \\q", at(1, 5)),
            (
                "#i18446744073709551615",
                "imaginary oid literal out of range",
                at(1, 23),
            ),
            ("a\n é ≥ ~", "unexpected character `~`", at(2, 7)),
            ("é !x", "expected `=` after `!`", at(1, 4)),
            ("# 3", "expected digits after `#`", at(1, 2)),
        ];
        for (src, msg, pos) in err {
            match lex(src) {
                Err(QueryError::Lex { pos: p, msg: m }) => {
                    assert_eq!((m.as_str(), p), (*msg, *pos), "{src:?}")
                }
                other => panic!("{src:?}: expected a lex error, got {other:?}"),
            }
        }
    }

    #[test]
    fn only_an_escaped_string_owns_its_text() {
        let toks = lex(r#""plain" "a\nb""#).unwrap();
        assert!(matches!(&toks[0].tok, Tok::Str(Cow::Borrowed("plain"))));
        assert!(matches!(&toks[1].tok, Tok::Str(Cow::Owned(s)) if s == "a\nb"));
    }

    #[test]
    fn bad_character_reports_position() {
        let err = lex("a ~").unwrap_err();
        assert!(matches!(err, QueryError::Lex { .. }));
    }
}
