//! Tokenizer for the DRC text syntax.

use crate::ast::QueryError;

#[derive(Clone, Debug, PartialEq)]
pub enum Tok {
    LBrace,
    RBrace,
    LParen,
    RParen,
    Comma,
    Pipe,
    Dot,
    Star,
    /// Identifiers: variables, relation names, and the keywords
    /// `exists/forall/and/or/not/like` (classified by the parser).
    Ident(String),
    Int(i64),
    Real(f64),
    Str(String),
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

#[derive(Clone, Debug)]
pub struct Spanned {
    pub tok: Tok,
    pub pos: usize,
}

/// Tokenizes `src`, accepting both ASCII keywords and the unicode logical
/// symbols (`∃ ∀ ∧ ∨ ¬ ≤ ≥ ≠`) the paper uses.
pub fn lex(src: &str) -> Result<Vec<Spanned>, QueryError> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    let err = |pos: usize, msg: &str| QueryError::Parse {
        pos,
        msg: msg.to_owned(),
    };
    while i < src.len() {
        let rest = &src[i..];
        let c = rest.chars().next().unwrap();
        let pos = i;
        macro_rules! push {
            ($t:expr, $n:expr) => {{
                out.push(Spanned { tok: $t, pos });
                i += $n;
                continue;
            }};
        }
        if c.is_whitespace() {
            i += c.len_utf8();
            continue;
        }
        match c {
            '{' => push!(Tok::LBrace, 1),
            '}' => push!(Tok::RBrace, 1),
            '(' => push!(Tok::LParen, 1),
            ')' => push!(Tok::RParen, 1),
            ',' => push!(Tok::Comma, 1),
            '.' => {
                // Distinguish the quantifier dot from a leading-dot number.
                if bytes.get(i + 1).is_some_and(|b| b.is_ascii_digit()) {
                    // fallthrough to number lexing below
                } else {
                    push!(Tok::Dot, 1);
                }
            }
            '|' => push!(Tok::Pipe, 1),
            '*' => push!(Tok::Star, 1),
            '∃' => push!(Tok::Ident("exists".into()), c.len_utf8()),
            '∀' => push!(Tok::Ident("forall".into()), c.len_utf8()),
            '∧' => push!(Tok::Ident("and".into()), c.len_utf8()),
            '∨' => push!(Tok::Ident("or".into()), c.len_utf8()),
            '¬' | '!' if rest[c.len_utf8()..].starts_with('=') => {
                push!(Tok::Ne, c.len_utf8() + 1)
            }
            '¬' | '!' => push!(Tok::Ident("not".into()), c.len_utf8()),
            '≤' => push!(Tok::Le, c.len_utf8()),
            '≥' => push!(Tok::Ge, c.len_utf8()),
            '≠' => push!(Tok::Ne, c.len_utf8()),
            '<' if rest.starts_with("<=") => push!(Tok::Le, 2),
            '<' if rest.starts_with("<>") => push!(Tok::Ne, 2),
            '<' => push!(Tok::Lt, 1),
            '>' if rest.starts_with(">=") => push!(Tok::Ge, 2),
            '>' => push!(Tok::Gt, 1),
            '=' if rest.starts_with("==") => push!(Tok::Eq, 2),
            '=' => push!(Tok::Eq, 1),
            '\'' => {
                // Single-quoted string, '' escapes a quote (SQL style).
                let mut s = String::new();
                let mut j = i + 1;
                loop {
                    match bytes.get(j) {
                        None => return Err(err(pos, "unterminated string literal")),
                        Some(b'\'') if bytes.get(j + 1) == Some(&b'\'') => {
                            s.push('\'');
                            j += 2;
                        }
                        Some(b'\'') => {
                            j += 1;
                            break;
                        }
                        Some(_) => {
                            let ch = src[j..].chars().next().unwrap();
                            s.push(ch);
                            j += ch.len_utf8();
                        }
                    }
                }
                out.push(Spanned { tok: Tok::Str(s), pos });
                i = j;
                continue;
            }
            _ => {}
        }
        if c.is_ascii_digit() || c == '.' || (c == '-' && rest[1..].starts_with(|d: char| d.is_ascii_digit())) {
            let mut j = i;
            if c == '-' {
                j += 1;
            }
            let mut saw_dot = false;
            while j < src.len() {
                let b = bytes[j];
                if b.is_ascii_digit() {
                    j += 1;
                } else if b == b'.' && !saw_dot && bytes.get(j + 1).is_some_and(|d| d.is_ascii_digit()) {
                    saw_dot = true;
                    j += 1;
                } else {
                    break;
                }
            }
            let text = &src[i..j];
            let tok = if saw_dot {
                // Too many digits parse to infinity, which no `Value` holds.
                let v: f64 = text.parse().map_err(|_| err(pos, "bad real literal"))?;
                if !v.is_finite() {
                    return Err(err(pos, "real literal out of range"));
                }
                Tok::Real(v)
            } else {
                Tok::Int(text.parse().map_err(|_| err(pos, "bad integer literal"))?)
            };
            out.push(Spanned { tok, pos });
            i = j;
            continue;
        }
        if c.is_alphabetic() || c == '_' {
            let mut j = i;
            while j < src.len() {
                let ch = src[j..].chars().next().unwrap();
                if ch.is_alphanumeric() || ch == '_' {
                    j += ch.len_utf8();
                } else {
                    break;
                }
            }
            out.push(Spanned {
                tok: Tok::Ident(src[i..j].to_owned()),
                pos,
            });
            i = j;
            continue;
        }
        return Err(err(pos, &format!("unexpected character `{c}`")));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            toks("{ (x) | R(x, 1) }"),
            vec![
                Tok::LBrace,
                Tok::LParen,
                Tok::Ident("x".into()),
                Tok::RParen,
                Tok::Pipe,
                Tok::Ident("R".into()),
                Tok::LParen,
                Tok::Ident("x".into()),
                Tok::Comma,
                Tok::Int(1),
                Tok::RParen,
                Tok::RBrace
            ]
        );
    }

    #[test]
    fn operators() {
        assert_eq!(
            toks("< <= > >= = == != <> ≤ ≥ ≠"),
            vec![
                Tok::Lt,
                Tok::Le,
                Tok::Gt,
                Tok::Ge,
                Tok::Eq,
                Tok::Eq,
                Tok::Ne,
                Tok::Ne,
                Tok::Le,
                Tok::Ge,
                Tok::Ne
            ]
        );
    }

    #[test]
    fn unicode_logic_symbols() {
        assert_eq!(
            toks("∃ x ∀ y ¬ R ∧ ∨"),
            vec![
                Tok::Ident("exists".into()),
                Tok::Ident("x".into()),
                Tok::Ident("forall".into()),
                Tok::Ident("y".into()),
                Tok::Ident("not".into()),
                Tok::Ident("R".into()),
                Tok::Ident("and".into()),
                Tok::Ident("or".into()),
            ]
        );
    }

    #[test]
    fn string_with_escaped_quote_and_space() {
        assert_eq!(toks("'Eve %'"), vec![Tok::Str("Eve %".into())]);
        assert_eq!(toks("'it''s'"), vec![Tok::Str("it's".into())]);
    }

    #[test]
    fn numbers() {
        assert_eq!(toks("42 2.25 -3 19930701"), vec![
            Tok::Int(42),
            Tok::Real(2.25),
            Tok::Int(-3),
            Tok::Int(19930701)
        ]);
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(lex("'oops").is_err());
    }

    #[test]
    fn bang_equals() {
        assert_eq!(toks("x != y"), vec![
            Tok::Ident("x".into()),
            Tok::Ne,
            Tok::Ident("y".into())
        ]);
    }
}
