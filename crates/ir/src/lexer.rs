//! The one hand-written lexer of both surface flavours, read by the
//! parser one token at a time: one pass, no token buffer. A `match` on a
//! token's first byte picks its class, with one byte of lookahead for a
//! two-character operator. Tokens borrow identifiers and pragma text from
//! the source; an identifier gets its keyword class ([`Kw`]) here, once.
//! The flavour decides the comment and pragma prefixes, whether a newline
//! ends a statement, which operators exist ([`SourceFlavor::op`]) and
//! whether keywords ignore case.

use crate::flavor::SourceFlavor;
use crate::parser::ParseError;

/// The keyword class of an identifier: its spelling (ASCII case folded in
/// Fortran) packed by [`kw`], so asking for a keyword is one integer
/// compare; 0 for other tokens and for names longer than any keyword.
pub(crate) type Kw = u128;

/// The class of the keyword or function name `word`: byte `k` in bits
/// `8k..`.
#[inline]
pub(crate) const fn kw(word: &str) -> Kw {
    let (bytes, mut key, mut k) = (word.as_bytes(), 0, 0);
    while k < bytes.len() && k < 16 {
        key |= (bytes[k] as u128) << (8 * k);
        k += 1;
    }
    key
}

/// A lexical token with its source line (1-based) for diagnostics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Token<'a> {
    pub kind: Tok<'a>,
    pub line: u32,
    pub kw: Kw,
}

/// Token kinds. A flavour never produces the operator tokens it has no
/// spelling for, so the shared grammar can mention all of them.
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
        match self {
            Tok::Ident(s) => format!("identifier `{s}`"),
            Tok::Int(v) => format!("integer `{v}`"),
            Tok::Real(v) => format!("real `{v}`"),
            Tok::Pragma(p) => format!("pragma `{} {p}`", flavor.spelling().pragma),
            Tok::Newline => "end of line".to_string(),
            Tok::Eof => "end of input".to_string(),
            op => format!("`{}`", flavor.op(op).unwrap_or("operator")),
        }
    }
}

/// Bytes that continue an identifier: ASCII letters, digits and `_`.
const IDENT: [bool; 256] = {
    let (mut table, mut b) = ([false; 256], 0);
    while b < 256 {
        table[b] = (b as u8).is_ascii_alphanumeric() || b == b'_' as usize;
        b += 1;
    }
    table
};

/// Does `rest` start with `pat`, ASCII case ignored? Allocates nothing and
/// looks at no more than `pat.len()` bytes.
fn starts_with(rest: &[u8], pat: &str) -> bool {
    rest.len() >= pat.len() && rest[..pat.len()].eq_ignore_ascii_case(pat.as_bytes())
}

/// Bytes up to the end of the line `rest` starts in.
fn line_len(rest: &[u8]) -> usize {
    rest.iter().position(|&c| c == b'\n').unwrap_or(rest.len())
}

/// The tokens of one source, on demand; a copy reads ahead, restoring one
/// backs up. Comments are skipped; a directive line is one
/// [`Tok::Pragma`]. In Fortran consecutive newlines collapse into one
/// `Newline`, and a pragma ends the statement before it and swallows the
/// newline after it; C has no `Newline`s. `Eof` repeats at the end.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lexer<'a> {
    src: &'a str,
    /// The next byte to read.
    at: usize,
    line: u32,
    flavor: SourceFlavor,
    /// Whether a token other than a line end or a directive came since
    /// the last line end (Fortran's next newline is then a token).
    line_open: bool,
}

impl<'a> Lexer<'a> {
    pub fn new(src: &'a str, flavor: SourceFlavor) -> Lexer<'a> {
        Lexer {
            src,
            at: 0,
            line: 1,
            flavor,
            line_open: false,
        }
    }

    fn token(&mut self, kind: Tok<'a>, kw: Kw) -> Token<'a> {
        self.line_open = !matches!(kind, Tok::Newline | Tok::Pragma(_) | Tok::Eof);
        Token {
            kind,
            line: self.line,
            kw,
        }
    }

    /// The next token, or the error at the first character that starts
    /// none. An error leaves the position where it is.
    pub fn next(&mut self) -> Result<Token<'a>, ParseError> {
        use Tok::*;
        let (src, b) = (self.src, self.src.as_bytes());
        let fortran = self.flavor == SourceFlavor::Fortran;
        let pragma = self.flavor.spelling().pragma;
        loop {
            while matches!(b.get(self.at), Some(b' ' | b'\t' | b'\r')) {
                self.at += 1;
            }
            let (start, rest) = (self.at, &b[self.at..]);
            // In Fortran, a line end, a directive or the end of input first
            // ends an open line.
            let first = rest.first();
            if fortran
                && self.line_open
                && (matches!(first, None | Some(b'\n'))
                    || first == pragma.as_bytes().first() && starts_with(rest, pragma))
            {
                return Ok(self.token(Newline, 0));
            }
            let Some(&c) = rest.first() else {
                return Ok(self.token(Eof, 0));
            };
            let next = rest.get(1).copied().unwrap_or(0);
            // `two` if the next byte is `second`, else `one`.
            let pair = |second: u8, two: Tok<'static>, one: Tok<'static>| {
                if next == second {
                    (two, 2)
                } else {
                    (one, 1)
                }
            };
            let (kind, len) = match c {
                b'\n' => {
                    (self.at, self.line) = (self.at + 1, self.line + 1);
                    continue;
                }
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                    let mut len = 1;
                    while len < rest.len() && IDENT[usize::from(rest[len])] {
                        len += 1;
                    }
                    let word = &src[start..start + len];
                    // Fortran folds: setting bit 5 of each byte lower-cases
                    // a letter, keeps a digit, turns `_` into no keyword's.
                    let fold = if fortran { u128::MAX / 255 * 0x20 } else { 0 };
                    let key = match rest.get(..16) {
                        _ if len > 16 => 0,
                        Some(w) => u128::from_le_bytes(w.try_into().expect("16 bytes")) | fold,
                        None => kw(word) | fold,
                    } & u128::MAX >> (128 - 8 * len.min(16));
                    self.at += len;
                    return Ok(self.token(Ident(word), key));
                }
                b'0'..=b'9' => return self.number(),
                b'!' | b'#' if starts_with(rest, pragma) => {
                    self.at += line_len(rest);
                    let text = src[start + pragma.len()..self.at].trim();
                    return Ok(self.token(Pragma(text), 0));
                }
                b'!' if fortran => {
                    self.at += line_len(rest);
                    continue;
                }
                b'#' if !fortran => {
                    let text = src[start..start + line_len(rest)].trim();
                    return self.error(format!("unsupported directive `{text}`"));
                }
                b'/' if !fortran && next == b'/' => {
                    self.at += line_len(rest);
                    continue;
                }
                b'/' if !fortran && next == b'*' => {
                    let len = src[start + 2..].find("*/").map_or(rest.len(), |at| at + 4);
                    self.line += rest[..len].iter().filter(|&&c| c == b'\n').count() as u32;
                    self.at += len;
                    continue;
                }
                // A dotted operator, spelled as the printer spells it.
                b'.' if fortran => [And, Or, Not, Eq, Ne, Lt, Le, Gt, Ge]
                    .into_iter()
                    .find_map(|op| {
                        let spelled = self.flavor.op(op)?;
                        starts_with(rest, spelled).then_some((op, spelled.len()))
                    })
                    .map_or_else(|| self.unexpected(), Ok)?,
                b'(' => (LParen, 1),
                b')' => (RParen, 1),
                b',' => (Comma, 1),
                b'=' => pair(b'=', Eq, Assign),
                b'<' => pair(b'=', Le, Lt),
                b'>' => pair(b'=', Ge, Gt),
                b'*' if fortran => pair(b'*', DoubleStar, Star),
                b'*' => (Star, 1),
                b'/' if fortran => pair(b'=', Ne, Slash),
                b'/' => (Slash, 1),
                b':' if fortran => pair(b':', DoubleColon, Colon),
                b'+' if fortran => (Plus, 1),
                b'-' if fortran => (Minus, 1),
                b'+' if next == b'=' => (PlusAssign, 2),
                b'+' => pair(b'+', PlusPlus, Plus),
                b'-' if next == b'=' => (MinusAssign, 2),
                b'-' => pair(b'-', MinusMinus, Minus),
                _ if fortran => return self.unexpected(),
                b'!' => pair(b'=', Ne, Not),
                b'&' if next == b'&' => (And, 2),
                b'|' if next == b'|' => (Or, 2),
                b'%' => (Percent, 1),
                b'[' => (LBracket, 1),
                b']' => (RBracket, 1),
                b'{' => (LBrace, 1),
                b'}' => (RBrace, 1),
                b';' => (Semi, 1),
                _ => return self.unexpected(),
            };
            self.at += len;
            return Ok(self.token(kind, 0));
        }
    }

    /// An integer or real literal.
    fn number(&mut self) -> Result<Token<'a>, ParseError> {
        let (b, start) = (self.src.as_bytes(), self.at);
        let fortran = self.flavor == SourceFlavor::Fortran;
        let mut i = start;
        // The integer value accumulates as the digits go by; `None` once it
        // overflows.
        let mut int = Some(0i64);
        while i < b.len() && b[i].is_ascii_digit() {
            let d = i64::from(b[i] - b'0');
            int = int.and_then(|v| v.checked_mul(10)?.checked_add(d));
            i += 1;
        }
        // A fraction — unless the dot starts a Fortran dotted operator, as
        // in `1.and.`.
        let dotted_op = fortran && b.get(i + 1).is_some_and(u8::is_ascii_alphabetic);
        let mut is_real = b.get(i) == Some(&b'.') && !dotted_op;
        if is_real {
            i += 1 + b[i + 1..].iter().take_while(|c| c.is_ascii_digit()).count();
        }
        // An exponent; Fortran also writes it `d`.
        let mut d_at = None;
        let is_d = |c: u8| fortran && matches!(c, b'd' | b'D');
        if i < b.len() && (matches!(b[i], b'e' | b'E') || is_d(b[i])) {
            let sign = usize::from(matches!(b.get(i + 1), Some(b'+' | b'-')));
            if b.get(i + 1 + sign).is_some_and(u8::is_ascii_digit) {
                is_real = true;
                d_at = is_d(b[i]).then_some(i - start);
                i += 1
                    + sign
                    + b[i + 1 + sign..]
                        .iter()
                        .take_while(|c| c.is_ascii_digit())
                        .count();
            }
        }
        let text = &self.src[start..i];
        let value = if is_real {
            // A literal must read back as the finite number it names; a `d`
            // exponent is read as `e` in a stack copy.
            let mut buf = [0u8; 64];
            let real = match (d_at, buf.get_mut(..text.len())) {
                (None, _) => text.parse().ok(),
                (Some(at), Some(copy)) => {
                    copy.copy_from_slice(text.as_bytes());
                    copy[at] = b'e';
                    std::str::from_utf8(copy).ok().and_then(|t| t.parse().ok())
                }
                (Some(_), None) => text.replace(['d', 'D'], "e").parse().ok(),
            };
            real.filter(|v: &f64| v.is_finite()).map(Tok::Real)
        } else {
            int.map(Tok::Int)
        };
        let Some(kind) = value else {
            let what = if is_real { "real" } else { "integer" };
            return self.error(format!("bad {what} literal `{text}`"));
        };
        self.at = i;
        Ok(self.token(kind, 0))
    }

    fn error<T>(&self, message: String) -> Result<T, ParseError> {
        Err(ParseError {
            line: self.line,
            message,
        })
    }

    /// The error for a character no token starts with.
    fn unexpected<T>(&self) -> Result<T, ParseError> {
        let other = self.src[self.at..].chars().next().unwrap_or('?');
        self.error(format!("unexpected character `{other}`"))
    }

    /// The first error in the rest of the source, if any.
    pub fn rest_error(mut self) -> Option<ParseError> {
        loop {
            match self.next() {
                Ok(t) if t.kind == Tok::Eof => return None,
                Ok(_) => {}
                Err(e) => return Some(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every token of `src`, through `Eof`.
    pub(crate) fn lex(src: &str, flavor: SourceFlavor) -> Result<Vec<Token<'_>>, ParseError> {
        let mut lexer = Lexer::new(src, flavor);
        let mut toks = Vec::new();
        loop {
            let t = lexer.next()?;
            toks.push(t);
            if t.kind == Tok::Eof {
                return Ok(toks);
            }
        }
    }

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

    fn kws(src: &str, flavor: SourceFlavor) -> Vec<Kw> {
        let toks = lex(src, flavor).unwrap();
        toks.iter()
            .filter(|t| matches!(t.kind, Tok::Ident(_)))
            .map(|t| t.kw)
            .collect()
    }

    #[test]
    fn identifiers_are_classified_once_fortran_folding_case() {
        let long = "a_name_longer_than_sixteen_bytes";
        assert_eq!(
            kws(
                &format!("END Do subroutine SIN i_x {long}"),
                SourceFlavor::Fortran
            ),
            [
                kw("end"),
                kw("do"),
                kw("subroutine"),
                kw("sin"),
                kw("i\x7fx"),
                0
            ]
        );
        assert_eq!(
            kws("If if For fabs", SourceFlavor::C),
            [kw("If"), kw("if"), kw("For"), kw("fabs")]
        );
        assert_ne!(kw("If"), kw("if"));
    }

    #[test]
    fn a_real_literal_must_be_finite() {
        for (src, text) in [("y = 1e999", "1e999"), ("y = 2.5D400", "2.5D400")] {
            let err = lex(src, SourceFlavor::Fortran).unwrap_err();
            assert_eq!(err.message, format!("bad real literal `{text}`"));
            assert_eq!(err.line, 1);
        }
        let err = lex("y = 1.0;\ny = 1e999 * x;", SourceFlavor::C).unwrap_err();
        assert_eq!(
            (err.line, err.message.as_str()),
            (2, "bad real literal `1e999`")
        );
        // Underflow reads back as zero, which is finite.
        assert_eq!(kinds("1e-400")[0], Tok::Real(0.0));
        // A `d` exponent past the stack buffer reads as its `e` twin.
        let long = format!("0.{}1d2", "0".repeat(80));
        assert_eq!(kinds(&long)[0], Tok::Real(1e-79));
        assert_eq!(
            lex("99999999999999999999", SourceFlavor::Fortran)
                .unwrap_err()
                .message,
            "bad integer literal `99999999999999999999`"
        );
    }
}
