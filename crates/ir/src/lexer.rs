//! The one hand-written lexer of both surface flavours.
//!
//! Tokens borrow identifiers and pragma text from the source. The flavour
//! decides only the comment and pragma prefixes, whether a newline ends a
//! statement, and which operator spellings exist
//! ([`crate::flavor::Spelling`]); numbers and identifiers are the same.

use std::borrow::Cow;

use crate::flavor::SourceFlavor;
use crate::parser::ParseError;

/// A lexical token with its source line (1-based) for diagnostics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Token<'a> {
    pub kind: Tok<'a>,
    pub line: u32,
}

/// Token kinds. Keywords are lexed as `Ident` and classified by the parser.
/// A flavour never produces the operator tokens it has no spelling for, so
/// the shared grammar can mention all of them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Tok<'a> {
    Ident(&'a str),
    Int(i64),
    Real(f64),
    /// An OpenMP directive line: the text after the flavour's pragma
    /// prefix, trimmed.
    Pragma(&'a str),
    Plus,
    Minus,
    Star,
    DoubleStar,
    Slash,
    Percent,
    LParen,
    RParen,
    LBracket,
    RBracket,
    LBrace,
    RBrace,
    Comma,
    Colon,
    DoubleColon,
    Semi,
    Assign,
    PlusPlus,
    MinusMinus,
    PlusAssign,
    MinusAssign,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
    Not,
    /// End of a logical line (Fortran only).
    Newline,
    /// End of input.
    Eof,
}

impl Tok<'_> {
    /// The token as error messages name it, operators in the spelling of
    /// `flavor`.
    pub fn describe(self, flavor: SourceFlavor) -> String {
        let spelling = flavor.spelling();
        match self {
            Tok::Ident(s) => format!("identifier `{s}`"),
            Tok::Int(v) => format!("integer `{v}`"),
            Tok::Real(v) => format!("real `{v}`"),
            Tok::Pragma(p) => format!("pragma `{} {p}`", spelling.pragma),
            Tok::Newline => "end of line".to_string(),
            Tok::Eof => "end of input".to_string(),
            op => format!("`{}`", spelling.of(op).unwrap_or("operator")),
        }
    }
}

/// Does `rest` start with `pat`, ASCII case ignored? Allocates nothing and
/// looks at no more than `pat.len()` bytes.
fn starts_with(rest: &[u8], pat: &str) -> bool {
    rest.len() >= pat.len() && rest[..pat.len()].eq_ignore_ascii_case(pat.as_bytes())
}

/// Bytes up to the end of the line `rest` starts in.
fn line_len(rest: &[u8]) -> usize {
    rest.iter().position(|&c| c == b'\n').unwrap_or(rest.len())
}

/// Tokenize a whole source string.
///
/// Comments are skipped; a directive line becomes one [`Tok::Pragma`]. In
/// the Fortran flavour consecutive newlines collapse into one `Newline`
/// token and a pragma both ends the statement before it and swallows the
/// newline after it; the C flavour has no `Newline` tokens.
pub(crate) fn lex(src: &str, flavor: SourceFlavor) -> Result<Vec<Token<'_>>, ParseError> {
    let b = src.as_bytes();
    let n = b.len();
    let fortran = flavor == SourceFlavor::Fortran;
    let spelling = flavor.spelling();
    let mut toks: Vec<Token> = Vec::with_capacity(n / 4 + 2);
    let (mut i, mut line) = (0usize, 1u32);

    let end_line = |toks: &mut Vec<Token>, line: u32| {
        let last = toks.last().map(|t| t.kind);
        if fortran && !matches!(last, None | Some(Tok::Newline | Tok::Pragma(_))) {
            toks.push(Token {
                kind: Tok::Newline,
                line,
            });
        }
    };
    let digits = |mut i: usize| {
        while i < n && b[i].is_ascii_digit() {
            i += 1;
        }
        i
    };

    while i < n {
        let c = b[i];
        let rest = &b[i..];
        let start = i;
        let kind = if c == b'\n' {
            end_line(&mut toks, line);
            line += 1;
            i += 1;
            continue;
        } else if matches!(c, b' ' | b'\t' | b'\r') {
            i += 1;
            continue;
        } else if c.is_ascii_alphabetic() || c == b'_' {
            while i < n && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                i += 1;
            }
            Tok::Ident(&src[start..i])
        } else if c.is_ascii_digit() {
            i = digits(i);
            // A fraction — unless the dot starts a Fortran dotted operator,
            // as in `1.and.`.
            let dotted_op = fortran && i + 1 < n && b[i + 1].is_ascii_alphabetic();
            let mut is_real = i < n && b[i] == b'.' && !dotted_op;
            if is_real {
                i = digits(i + 1);
            }
            // An exponent; Fortran also writes it `d`.
            if i < n && (matches!(b[i], b'e' | b'E') || fortran && matches!(b[i], b'd' | b'D')) {
                let sign = usize::from(i + 1 < n && matches!(b[i + 1], b'+' | b'-'));
                if i + 1 + sign < n && b[i + 1 + sign].is_ascii_digit() {
                    is_real = true;
                    i = digits(i + 1 + sign);
                }
            }
            let mut text = Cow::Borrowed(&src[start..i]);
            if text.contains(['d', 'D']) {
                text = Cow::Owned(text.replace(['d', 'D'], "e"));
            }
            let bad = |what: &str| ParseError {
                line,
                message: format!("bad {what} literal `{text}`"),
            };
            if is_real {
                Tok::Real(text.parse().map_err(|_| bad("real"))?)
            } else {
                Tok::Int(text.parse().map_err(|_| bad("integer"))?)
            }
        } else if starts_with(rest, spelling.pragma) {
            // A directive line; it also ends the statement before it.
            i += line_len(rest);
            end_line(&mut toks, line);
            Tok::Pragma(src[start + spelling.pragma.len()..i].trim())
        } else if starts_with(rest, spelling.line_comment) {
            i += line_len(rest);
            continue;
        } else if !fortran && c == b'#' {
            let text = src[start..start + line_len(rest)].trim();
            return Err(ParseError {
                line,
                message: format!("unsupported directive `{text}`"),
            });
        } else if !fortran && rest.starts_with(b"/*") {
            let len = src[start + 2..].find("*/").map_or(rest.len(), |at| at + 4);
            line += rest[..len].iter().filter(|&&c| c == b'\n').count() as u32;
            i += len;
            continue;
        } else if let Some((pat, kind)) = spelling
            .ops()
            // The first byte rejects most spellings without a slice compare.
            .find(|(pat, _)| pat.as_bytes()[0] == c.to_ascii_lowercase() && starts_with(rest, pat))
        {
            i += pat.len();
            *kind
        } else {
            let other = src[start..].chars().next().unwrap_or('?');
            return Err(ParseError {
                line,
                message: format!("unexpected character `{other}`"),
            });
        };
        toks.push(Token { kind, line });
    }
    end_line(&mut toks, line);
    toks.push(Token {
        kind: Tok::Eof,
        line,
    });
    Ok(toks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok<'_>> {
        let toks = lex(src, SourceFlavor::Fortran).unwrap();
        toks.into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn basic_tokens() {
        let k = kinds("u(i) = a*v + 1.5");
        assert_eq!(
            k,
            vec![
                Tok::Ident("u"),
                Tok::LParen,
                Tok::Ident("i"),
                Tok::RParen,
                Tok::Assign,
                Tok::Ident("a"),
                Tok::Star,
                Tok::Ident("v"),
                Tok::Plus,
                Tok::Real(1.5),
                Tok::Newline,
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn dotted_ops_and_symbols() {
        let k = kinds("i .ne. j .AND. i<=n .or. a/=b");
        assert!(k.contains(&Tok::Ne));
        assert!(k.contains(&Tok::And));
        assert!(k.contains(&Tok::Le));
        assert!(k.contains(&Tok::Or));
        assert_eq!(k.iter().filter(|t| **t == Tok::Ne).count(), 2);
    }

    #[test]
    fn pragma_lexed_comment_skipped() {
        let k = kinds("x = 1 ! trailing comment\n!$OMP parallel do shared(u)\ndo i = 1, n");
        assert!(k
            .iter()
            .any(|t| matches!(t, Tok::Pragma(p) if *p == "parallel do shared(u)")));
        // the comment text is gone
        assert!(!k
            .iter()
            .any(|t| matches!(t, Tok::Ident(s) if *s == "trailing")));
    }

    #[test]
    fn numbers() {
        assert_eq!(kinds("42")[0], Tok::Int(42));
        assert_eq!(kinds("4.25")[0], Tok::Real(4.25));
        assert_eq!(kinds("1e3")[0], Tok::Real(1000.0));
        assert_eq!(kinds("0.5d0")[0], Tok::Real(0.5));
        assert_eq!(kinds("2.")[0], Tok::Real(2.0));
    }

    #[test]
    fn integer_followed_by_dotted_op() {
        let k = kinds("if (i .eq. 1.and.j .eq. 2) then");
        // `1.and.` must lex as Int(1), And — not Real.
        assert!(k.contains(&Tok::Int(1)));
        assert_eq!(k.iter().filter(|t| **t == Tok::And).count(), 1);
    }

    #[test]
    fn double_star_and_double_colon() {
        let k = kinds("real :: x\ny = x**2");
        assert!(k.contains(&Tok::DoubleColon));
        assert!(k.contains(&Tok::DoubleStar));
    }

    #[test]
    fn newline_collapse() {
        let k = kinds("a = 1\n\n\nb = 2");
        let nl = k.iter().filter(|t| **t == Tok::Newline).count();
        assert_eq!(nl, 2);
    }

    #[test]
    fn error_on_garbage() {
        assert!(lex("a = #", SourceFlavor::Fortran).is_err());
    }

    #[test]
    fn c_flavour_has_its_own_spellings_and_no_newlines() {
        let toks = lex(
            "a[i] += !b % 2; /* x\ny */ // z\n#pragma omp atomic\n",
            SourceFlavor::C,
        )
        .unwrap();
        let k: Vec<Tok> = toks.iter().map(|t| t.kind).collect();
        assert_eq!(
            k,
            vec![
                Tok::Ident("a"),
                Tok::LBracket,
                Tok::Ident("i"),
                Tok::RBracket,
                Tok::PlusAssign,
                Tok::Not,
                Tok::Ident("b"),
                Tok::Percent,
                Tok::Int(2),
                Tok::Semi,
                Tok::Pragma("atomic"),
                Tok::Eof,
            ]
        );
        assert_eq!(toks[10].line, 3);
        // Each flavour rejects the other's operators.
        assert!(lex("a .lt. b", SourceFlavor::C).is_err());
        assert!(lex("a && b", SourceFlavor::Fortran).is_err());
    }
}
