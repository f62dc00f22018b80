//! The two surface flavours of the one loop IR.
//!
//! The paper (§3, §8) says C support needs "only minor changes to the
//! parser and scoping rules", and that is all a flavour is here: a
//! [`Spelling`] table, operator spellings (`SourceFlavor::op`) and
//! function names (`SourceFlavor::callee`) read by the one lexer, the
//! one expression parser and the one expression writer, plus a
//! declaration / statement shell on the parse side ([`crate::parser`],
//! [`crate::clike`]) and on the print side ([`crate::printer`],
//! [`crate::printer_c`]). Everything else — the token type, the cursor,
//! expressions, conditions, subscripts, `parallel` clauses, tape calls —
//! exists once.
//!
//! Semantics note: the C flavour keeps the IR's Fortran conventions — array
//! indexing is 1-based and `x[i][j]` denotes the same element as `x(i, j)`
//! (first index fastest). It is C *syntax*, not C memory layout.

use crate::expr::{BinOp, Intrinsic};
use crate::lexer::Tok::{self, *};
use crate::lexer::{kw, Kw};
use crate::parser::{ParseError, Parser};
use crate::printer::Writer;
use crate::program::Program;

/// Which surface syntax a source text is written in, or printed as.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SourceFlavor {
    /// `subroutine` … `!$omp parallel do` … `do`/`end do`.
    Fortran,
    /// `void f(…) {` … `#pragma omp parallel for` … `for (;;) {}`.
    C,
}

/// What a function-call spelling denotes: an intrinsic, or a binary
/// operator the flavour has no infix form for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Callee {
    Bin(BinOp),
    Fun(Intrinsic),
}

/// How one flavour spells what both share, beyond its operators
/// ([`SourceFlavor::op`]) and function names ([`SourceFlavor::callee`]).
pub(crate) struct Spelling {
    /// Prefix of an OpenMP directive line (ASCII case ignored).
    pub pragma: &'static str,
    /// Keyword of the counted loop, in the source and after `parallel`.
    pub loop_kw: &'static str,
    /// Opening, separating and closing text of an array subscript list.
    pub subscript: [&'static str; 3],
}

const FORTRAN_SPELLING: Spelling = Spelling {
    pragma: "!$omp",
    loop_kw: "do",
    subscript: ["(", ", ", ")"],
};

const C_SPELLING: Spelling = Spelling {
    pragma: "#pragma omp",
    loop_kw: "for",
    subscript: ["[", "][", "]"],
};

impl SourceFlavor {
    /// Both flavours, Fortran first.
    pub const ALL: [SourceFlavor; 2] = [SourceFlavor::Fortran, SourceFlavor::C];

    /// The name `--emit` and the serve `emit` field use.
    pub fn name(self) -> &'static str {
        match self {
            SourceFlavor::Fortran => "fortran",
            SourceFlavor::C => "c",
        }
    }

    /// Inverse of [`SourceFlavor::name`].
    pub fn from_name(name: &str) -> Option<SourceFlavor> {
        SourceFlavor::ALL.into_iter().find(|f| f.name() == name)
    }

    /// The flavour `src` is written in. `void` is the mandatory first token
    /// of the C grammar, so the first word after whitespace and the comments
    /// of either flavour (`!…`, `//…`, `/*…*/`) decides; anything else goes
    /// to the Fortran parser, which reports what it expected.
    pub fn detect(src: &str) -> SourceFlavor {
        let mut rest = src.trim_start();
        loop {
            let after = if rest.starts_with('!') || rest.starts_with("//") {
                rest.split_once('\n').map_or("", |(_, r)| r)
            } else if let Some(body) = rest.strip_prefix("/*") {
                body.split_once("*/").map_or("", |(_, r)| r)
            } else {
                break;
            };
            rest = after.trim_start();
        }
        let end = rest
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(rest.len());
        if rest[..end].eq_ignore_ascii_case("void") {
            SourceFlavor::C
        } else {
            SourceFlavor::Fortran
        }
    }

    /// Parse a complete subroutine written in this flavour.
    pub fn parse(self, src: &str) -> Result<Program, ParseError> {
        let mut p = Parser::new(src, self);
        let program = match self {
            SourceFlavor::Fortran => p.subroutine(),
            SourceFlavor::C => p.function(),
        };
        let program = program.and_then(|program| p.expect(Tok::Eof).map(|()| program));
        p.finish(program)
    }

    /// Render a whole program in this flavour.
    pub fn print(self, p: &Program) -> String {
        let mut s = String::new();
        let mut w = Writer::new(&mut s, self);
        match self {
            SourceFlavor::Fortran => w.subroutine(p),
            SourceFlavor::C => w.function(p),
        }
        s
    }

    pub(crate) fn spelling(self) -> &'static Spelling {
        match self {
            SourceFlavor::Fortran => &FORTRAN_SPELLING,
            SourceFlavor::C => &C_SPELLING,
        }
    }

    /// The flavour's spelling of an operator or punctuation token, if it
    /// has one: the one the lexer reads first, the printer writes and
    /// error messages name. Fortran also reads `== /= < <= > >=`.
    pub(crate) fn op(self, tok: Tok<'_>) -> Option<&'static str> {
        let fortran = self == SourceFlavor::Fortran;
        let either = |f: &'static str, c: &'static str| if fortran { f } else { c };
        Some(match tok {
            Plus => "+",
            Minus => "-",
            Star => "*",
            Slash => "/",
            LParen => "(",
            RParen => ")",
            Comma => ",",
            Assign => "=",
            Eq => either(".eq.", "=="),
            Ne => either(".ne.", "!="),
            Lt => either(".lt.", "<"),
            Le => either(".le.", "<="),
            Gt => either(".gt.", ">"),
            Ge => either(".ge.", ">="),
            And => either(".and.", "&&"),
            Or => either(".or.", "||"),
            Not => either(".not.", "!"),
            DoubleStar if fortran => "**",
            DoubleColon if fortran => "::",
            Colon if fortran => ":",
            PlusPlus if !fortran => "++",
            MinusMinus if !fortran => "--",
            PlusAssign if !fortran => "+=",
            MinusAssign if !fortran => "-=",
            Percent if !fortran => "%",
            LBracket if !fortran => "[",
            RBracket if !fortran => "]",
            LBrace if !fortran => "{",
            RBrace if !fortran => "}",
            Semi if !fortran => ";",
            _ => return None,
        })
    }

    /// What a function name of keyword class `key` denotes in this
    /// flavour, if it is a function here.
    pub(crate) fn callee(self, key: Kw) -> Option<Callee> {
        let mut known = FUNCS.iter().zip(FUNC_KEYS);
        let found = known.find(|&(&(_, only, _), k)| k == key && only.is_none_or(|f| f == self));
        found.map(|(&(_, _, callee), _)| callee)
    }

    /// The name a callee is printed under: the flavour's own name where it
    /// has one, else the intrinsic's.
    pub(crate) fn func_name(self, callee: Callee) -> &'static str {
        let mut known = FUNCS.iter();
        match known.find(|&&(_, only, c)| c == callee && only.is_none_or(|f| f == self)) {
            Some(&(name, _, _)) => name,
            None => unreachable!("{callee:?} has neither an infix nor a call form"),
        }
    }
}

/// Every function name, and the flavour it is limited to: a flavour's own
/// names first, so that they print before an intrinsic's.
const FUNCS: [(&str, Option<SourceFlavor>, Callee); 14] = {
    use crate::expr::Intrinsic::*;
    use Callee::Fun;
    use SourceFlavor::{Fortran, C};
    [
        ("mod", Some(Fortran), Callee::Bin(BinOp::Mod)),
        ("pow", Some(C), Callee::Bin(BinOp::Pow)),
        ("fabs", Some(C), Fun(Abs)),
        ("fmin", Some(C), Fun(Min)),
        ("fmax", Some(C), Fun(Max)),
        ("sin", None, Fun(Sin)),
        ("cos", None, Fun(Cos)),
        ("exp", None, Fun(Exp)),
        ("log", None, Fun(Log)),
        ("sqrt", None, Fun(Sqrt)),
        ("abs", None, Fun(Abs)),
        ("min", None, Fun(Min)),
        ("max", None, Fun(Max)),
        ("tanh", None, Fun(Tanh)),
    ]
};

/// The keyword classes of [`FUNCS`].
const FUNC_KEYS: [Kw; FUNCS.len()] = {
    let (mut keys, mut k) = ([0; FUNCS.len()], 0);
    while k < keys.len() {
        keys[k] = kw(FUNCS[k].0);
        k += 1;
    }
    keys
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BoolExpr, CmpOp, Expr};
    use crate::program::Decl;
    use crate::stmt::{ForLoop, LValue, Stmt};
    use crate::types::{Intent, Ty};
    use std::time::Instant;

    #[test]
    fn every_intrinsic_is_a_function_under_its_own_name_in_both_flavours() {
        use crate::expr::Intrinsic;
        for flavor in SourceFlavor::ALL {
            for f in Intrinsic::ALL {
                assert_eq!(flavor.callee(kw(f.name())), Some(Callee::Fun(f)));
            }
        }
        assert_eq!(
            SourceFlavor::C.func_name(Callee::Fun(Intrinsic::Abs)),
            "fabs"
        );
        assert_eq!(
            SourceFlavor::Fortran.func_name(Callee::Fun(Intrinsic::Abs)),
            "abs"
        );
        assert_eq!(SourceFlavor::C.callee(kw("mod")), None);
        assert_eq!(SourceFlavor::Fortran.callee(kw("pow")), None);
    }

    #[test]
    fn names_round_trip_and_unknown_names_are_rejected() {
        for flavor in SourceFlavor::ALL {
            assert_eq!(SourceFlavor::from_name(flavor.name()), Some(flavor));
        }
        assert_eq!(SourceFlavor::from_name("rust"), None);
    }

    /// `count` guarded assignments in one loop, printed in `flavor`.
    fn guards(flavor: SourceFlavor, count: usize) -> String {
        let (i, k) = (Expr::var("i"), Expr::var("k"));
        let guard = Stmt::If {
            cond: BoolExpr::And(
                BoolExpr::cmp(CmpOp::Lt, i.clone(), k).into(),
                BoolExpr::cmp(CmpOp::Ge, i.clone(), Expr::int(2)).into(),
            ),
            then_body: vec![Stmt::assign(LValue::index("y", vec![i]), Expr::real(1.0))],
            else_body: Vec::new(),
        };
        let mut p = Program::new("guards");
        p.params = vec![
            Decl::scalar("n", Ty::Int, Intent::In),
            Decl::scalar("k", Ty::Int, Intent::In),
            Decl::array("y", Ty::Real, vec![Expr::var("n")], Intent::InOut),
        ];
        p.locals = vec![Decl::local("i", Ty::Int)];
        p.body = vec![Stmt::For(Box::new(ForLoop {
            var: "i".into(),
            lo: Expr::int(1),
            hi: Expr::var("n"),
            step: Expr::int(1),
            body: vec![guard; count],
            parallel: None,
        }))];
        flavor.print(&p)
    }

    /// The lexer once lower-cased the whole remaining source at every
    /// dotted operator, so Fortran throughput fell 34× from 16 KiB to
    /// 1 MiB of guards. A ratio of clocks, not a clock: per-byte cost may
    /// not depend on how many bytes follow.
    #[test]
    fn parse_throughput_does_not_fall_with_input_size() {
        for flavor in SourceFlavor::ALL {
            let bytes_per_s = |count: usize| {
                let src = guards(flavor, count);
                let best = (0..5)
                    .map(|_| {
                        let t = Instant::now();
                        flavor.parse(&src).expect("guards parse");
                        t.elapsed().as_secs_f64()
                    })
                    .fold(f64::MAX, f64::min);
                (src.len(), src.len() as f64 / best)
            };
            let (small, small_rate) = bytes_per_s(256);
            let (large, large_rate) = bytes_per_s(16 * 1024);
            assert!((12_000..24_000).contains(&small) && large > 800_000);
            assert!(
                large_rate * 3.0 >= small_rate,
                "{}: {large} bytes parse at {large_rate:.3e} B/s, {small} bytes at {small_rate:.3e} B/s",
                flavor.name()
            );
        }
    }
}
