//! Hand-rolled lexer for the SQL subset.
//!
//! Tokens carry their byte offset for error messages. Keywords are not
//! distinguished here — they arrive as [`Token::Ident`] and the parser
//! matches them case-insensitively — so table names that happen to spell
//! a keyword in another case still lex fine.

use crate::SqlError;

/// One lexical token.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Token {
    /// Identifier or keyword (`SELECT`, `my_table`, `c12`, …).
    Ident(String),
    /// Numeric literal (always finite; `NaN`/`inf` literals are rejected).
    Number(f64),
    /// `*`
    Star,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `.`
    Dot,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `=`
    Eq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl std::fmt::Display for Token {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Number(v) => write!(f, "{v}"),
            Token::Star => f.write_str("*"),
            Token::LParen => f.write_str("("),
            Token::RParen => f.write_str(")"),
            Token::Dot => f.write_str("."),
            Token::Comma => f.write_str(","),
            Token::Semi => f.write_str(";"),
            Token::Eq => f.write_str("="),
            Token::Lt => f.write_str("<"),
            Token::Le => f.write_str("<="),
            Token::Gt => f.write_str(">"),
            Token::Ge => f.write_str(">="),
        }
    }
}

/// Lex `input` into `(token, byte_offset)` pairs. Panic-free on arbitrary
/// input: unknown characters and malformed numbers come back as
/// [`SqlError`]s naming the offending byte offset.
pub(crate) fn lex(input: &str) -> Result<Vec<(Token, usize)>, SqlError> {
    let mut out = Vec::new();
    let bytes = input.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                i += 1;
            }
            b'*' => {
                out.push((Token::Star, i));
                i += 1;
            }
            b'(' => {
                out.push((Token::LParen, i));
                i += 1;
            }
            b')' => {
                out.push((Token::RParen, i));
                i += 1;
            }
            b'.' if !matches!(bytes.get(i + 1), Some(d) if d.is_ascii_digit()) => {
                out.push((Token::Dot, i));
                i += 1;
            }
            b',' => {
                out.push((Token::Comma, i));
                i += 1;
            }
            b';' => {
                out.push((Token::Semi, i));
                i += 1;
            }
            b'=' => {
                out.push((Token::Eq, i));
                i += 1;
            }
            b'<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push((Token::Le, i));
                    i += 2;
                } else {
                    out.push((Token::Lt, i));
                    i += 1;
                }
            }
            b'>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push((Token::Ge, i));
                    i += 2;
                } else {
                    out.push((Token::Gt, i));
                    i += 1;
                }
            }
            b'-' | b'+' | b'0'..=b'9' | b'.' => {
                let (tok, next) = lex_number(input, i)?;
                out.push((tok, i));
                i = next;
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                // slice is ASCII by construction, so this never splits a
                // UTF-8 sequence
                out.push((Token::Ident(input[start..i].to_string()), start));
            }
            _ => {
                return Err(SqlError::new(format!(
                    "unexpected character {:?} at byte {i}",
                    char::from(b.min(0x7f))
                )));
            }
        }
    }
    Ok(out)
}

/// Scan a numeric literal starting at byte `start`:
/// `[+-]? digits [. digits] [(e|E) [+-]? digits]`, validated by
/// `f64::from_str` on the scanned slice.
fn lex_number(input: &str, start: usize) -> Result<(Token, usize), SqlError> {
    let bytes = input.as_bytes();
    let mut i = start;
    if matches!(bytes.get(i), Some(b'+') | Some(b'-')) {
        i += 1;
    }
    let digits_from = i;
    while matches!(bytes.get(i), Some(d) if d.is_ascii_digit()) {
        i += 1;
    }
    if bytes.get(i) == Some(&b'.') {
        i += 1;
        while matches!(bytes.get(i), Some(d) if d.is_ascii_digit()) {
            i += 1;
        }
    }
    if i == digits_from {
        return Err(SqlError::new(format!("malformed number at byte {start}")));
    }
    if matches!(bytes.get(i), Some(b'e') | Some(b'E')) {
        let mut j = i + 1;
        if matches!(bytes.get(j), Some(b'+') | Some(b'-')) {
            j += 1;
        }
        if matches!(bytes.get(j), Some(d) if d.is_ascii_digit()) {
            i = j;
            while matches!(bytes.get(i), Some(d) if d.is_ascii_digit()) {
                i += 1;
            }
        }
    }
    let text = &input[start..i];
    let v: f64 = text
        .parse()
        .map_err(|_| SqlError::new(format!("malformed number {text:?} at byte {start}")))?;
    if !v.is_finite() {
        // keeping literals finite makes the AST's text rendering a true
        // round trip: every parsed number re-renders to a parseable token
        return Err(SqlError::new(format!(
            "numeric literal {text:?} at byte {start} is not a finite f64"
        )));
    }
    Ok((Token::Number(v), i))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_a_full_statement() {
        let toks = lex("SELECT COUNT(*) FROM t WHERE c0 <= -2.5e3").unwrap();
        let kinds: Vec<Token> = toks.into_iter().map(|(t, _)| t).collect();
        assert_eq!(
            kinds,
            vec![
                Token::Ident("SELECT".into()),
                Token::Ident("COUNT".into()),
                Token::LParen,
                Token::Star,
                Token::RParen,
                Token::Ident("FROM".into()),
                Token::Ident("t".into()),
                Token::Ident("WHERE".into()),
                Token::Ident("c0".into()),
                Token::Le,
                Token::Number(-2500.0),
            ]
        );
    }

    #[test]
    fn rejects_garbage_without_panicking() {
        for bad in ["#", "c0 ? 3", "1..2", "0x10 @", "\u{1F600}", "--", "1e", "+"] {
            // either an error or a clean token stream — never a panic
            let _ = lex(bad);
        }
        assert!(lex("@").is_err());
        assert!(lex("-").is_err());
    }

    #[test]
    fn numbers_cover_hostile_shapes() {
        // overflow to ±∞ is rejected, not admitted, so rendered ASTs
        // always re-lex
        assert!(lex("1e309").is_err());
        assert!(lex("-1e999").is_err());
        assert_eq!(lex(".5").unwrap()[0].0, Token::Number(0.5));
        assert_eq!(lex("-0.0").unwrap()[0].0, Token::Number(-0.0));
        // `1e` falls back to plain `1` followed by ident `e`
        let toks = lex("1e").unwrap();
        assert_eq!(toks[0].0, Token::Number(1.0));
        assert_eq!(toks[1].0, Token::Ident("e".into()));
    }
}
