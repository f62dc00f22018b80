//! C-flavoured front end: the declaration and statement shell.
//!
//! The paper (§3, §8) names C support as the natural next step, "requiring
//! only minor changes to the parser and scoping rules". This module is
//! those changes on the parse side: `void f(…)`, block items with
//! interleaved local declarations, braces and `for (;;)` headers. Tokens,
//! expressions, conditions, assignments, tape calls and pragmas come from
//! the shared [`crate::parser`], so the dialect parses into the *same* IR as
//! the Fortran-like syntax and every analysis and transformation applies
//! unchanged. (C *syntax*, not C memory layout: see [`crate::flavor`].)
//!
//! ```c
//! void saxpy(int n, double a, const double x[n], double y[n]) {
//!   int i;
//!   #pragma omp parallel for shared(x, y)
//!   for (i = 1; i <= n; i++) {
//!     y[i] = y[i] + a * x[i];
//!   }
//! }
//! ```

use crate::expr::Expr;
use crate::flavor::SourceFlavor;
use crate::lexer::Tok;
use crate::parser::{ParseError, Parsed, Parser};
use crate::program::{Decl, Program};
use crate::stmt::{ForLoop, ParallelInfo, Stmt};
use crate::types::{Intent, Ty};

/// Parse a C-flavoured subroutine into the common IR.
pub fn parse_clike(src: &str) -> Result<Program, ParseError> {
    SourceFlavor::C.parse(src)
}

/// Parse either flavour, whichever [`SourceFlavor::detect`] says it is.
pub fn parse_any(src: &str) -> Result<Program, ParseError> {
    SourceFlavor::detect(src).parse(src)
}

impl Parser<'_> {
    /// `void name([const] type p[extent]…, …) { … }`
    pub(crate) fn function(&mut self) -> Parsed<Program> {
        self.expect_kw("void")?;
        let name = self.ident()?.to_string();
        self.expect(Tok::LParen)?;
        let params = if self.eat(Tok::RParen) {
            Vec::new()
        } else {
            self.list(Tok::RParen, |p| {
                let intent = if p.eat_kw("const") {
                    Intent::In
                } else {
                    Intent::InOut
                };
                match p.base_ty() {
                    Some(ty) => p.declarator(ty, intent, false),
                    None => p.unexpected("parameter type"),
                }
            })?
        };
        let body = self.block()?;
        Ok(Program {
            name,
            params,
            locals: std::mem::take(&mut self.locals),
            body,
        })
    }

    fn base_ty(&mut self) -> Option<Ty> {
        if self.eat_kw("int") {
            Some(Ty::Int)
        } else if self.eat_kw("double") || self.eat_kw("float") {
            Some(Ty::Real)
        } else {
            None
        }
    }

    /// `name[extent]…` after its type.
    fn declarator(&mut self, ty: Ty, intent: Intent, is_local: bool) -> Parsed<Decl> {
        Ok(Decl {
            name: self.name()?,
            ty,
            dims: self.subscripts()?,
            intent,
            is_local,
        })
    }

    /// `{` statements and interleaved local declarations `}`.
    fn block(&mut self) -> Parsed<Vec<Stmt>> {
        self.expect(Tok::LBrace)?;
        let mut out = Vec::new();
        while !matches!(self.peek(), Tok::RBrace | Tok::Eof) {
            if let Some(ty) = self.base_ty() {
                // `int i, j;` or `double t[n];`
                let decls = self.list(Tok::Semi, |p| p.declarator(ty, Intent::InOut, true))?;
                self.locals.extend(decls);
            } else {
                out.push(self.stmt()?);
            }
        }
        self.expect(Tok::RBrace)?;
        Ok(out)
    }

    pub(crate) fn c_stmt(&mut self) -> Parsed<Stmt> {
        if self.at_kw("if") {
            self.c_if()
        } else if self.at_kw("for") {
            self.for_stmt(None)
        } else if (self.at_kw("push") || self.at_kw("pop")) && self.peek_next() == Tok::LParen {
            self.tape_call()
        } else {
            self.assignment()
        }
    }

    fn c_if(&mut self) -> Parsed<Stmt> {
        self.expect_kw("if")?;
        self.expect(Tok::LParen)?;
        let cond = self.bool_expr()?;
        self.expect(Tok::RParen)?;
        let then_body = self.block()?;
        let else_body = if self.eat_kw("else") {
            self.block()?
        } else {
            Vec::new()
        };
        Ok(Stmt::If {
            cond,
            then_body,
            else_body,
        })
    }

    /// `for ([int] v = lo; v <=|<|>=|> bound; v++ | v-- | v += s | v -= s) { … }`
    pub(crate) fn for_stmt(&mut self, parallel: Option<ParallelInfo>) -> Parsed<Stmt> {
        self.expect_kw("for")?;
        self.expect(Tok::LParen)?;
        let declares = self.eat_kw("int");
        let var = self.name()?;
        if declares && !self.locals.iter().any(|d| d.name == var) {
            self.locals.push(Decl::local(&var, Ty::Int));
        }
        self.expect(Tok::Assign)?;
        let lo = self.expr()?;
        self.expect(Tok::Semi)?;

        if self.ident()? != var.as_str() {
            return self.err("for-loop condition must test the loop variable");
        }
        let cmp = self.peek();
        if !matches!(cmp, Tok::Le | Tok::Lt | Tok::Ge | Tok::Gt) {
            return self.unexpected("loop condition `<=`, `<`, `>=` or `>`");
        }
        self.bump();
        let bound = self.expr()?;
        // The IR's bounds are inclusive: `< n` is `<= n - 1`, `> n` is
        // `>= n + 1`.
        let hi = match cmp {
            Tok::Lt => bound - Expr::IntLit(1),
            Tok::Gt => bound + Expr::IntLit(1),
            _ => bound,
        };
        self.expect(Tok::Semi)?;

        if self.ident()? != var.as_str() {
            return self.err("for-loop step must update the loop variable");
        }
        let update = self.peek();
        if !matches!(
            update,
            Tok::PlusPlus | Tok::MinusMinus | Tok::PlusAssign | Tok::MinusAssign
        ) {
            return self.unexpected("loop step `++`, `--`, `+=` or `-=`");
        }
        self.bump();
        let step = match update {
            Tok::PlusPlus => Expr::IntLit(1),
            Tok::MinusMinus => Expr::IntLit(-1),
            Tok::PlusAssign => self.expr()?,
            // `v -= 2` is the literal step -2.
            _ => match self.expr()? {
                Expr::IntLit(v) => Expr::IntLit(-v),
                other => other.neg(),
            },
        };
        self.expect(Tok::RParen)?;
        let body = self.block()?;
        Ok(Stmt::For(Box::new(ForLoop {
            var,
            lo,
            hi,
            step,
            body,
            parallel,
        })))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BoolExpr;
    use crate::parser::parse_program;

    const SAXPY_C: &str = r#"
// C-flavoured saxpy.
void saxpy(int n, const double a, const double x[n], double y[n]) {
  int i;
  #pragma omp parallel for shared(x, y)
  for (i = 1; i <= n; i++) {
    y[i] = y[i] + a * x[i];
  }
}
"#;

    const SAXPY_F: &str = r#"
subroutine saxpy(n, a, x, y)
  integer, intent(in) :: n
  real, intent(in) :: a
  real, intent(in) :: x(n)
  real, intent(inout) :: y(n)
  integer :: i
  !$omp parallel do shared(x, y)
  do i = 1, n
    y(i) = y(i) + a * x(i)
  end do
end subroutine
"#;

    #[test]
    fn c_and_fortran_dialects_agree() {
        let c = parse_clike(SAXPY_C).unwrap();
        let f = parse_program(SAXPY_F).unwrap();
        assert_eq!(c.body, f.body);
        assert_eq!(c.params.len(), f.params.len());
        for (a, b) in c.params.iter().zip(&f.params) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.ty, b.ty);
            assert_eq!(a.dims, b.dims);
        }
        assert!(crate::validate(&c).is_empty());
    }

    #[test]
    fn strict_bound_becomes_inclusive() {
        let src = r#"
void t(int n, double y[n]) {
  int i;
  for (i = 1; i < n; i++) {
    y[i] = 0.0;
  }
}
"#;
        let p = parse_clike(src).unwrap();
        let Stmt::For(l) = &p.body[0] else { panic!() };
        assert_eq!(l.hi, Expr::var("n") - Expr::int(1));
    }

    #[test]
    fn downward_loop() {
        let src = r#"
void t(int n, double y[n]) {
  int i;
  for (i = n; i >= 1; i--) {
    y[i] = 0.0;
  }
}
"#;
        let p = parse_clike(src).unwrap();
        let Stmt::For(l) = &p.body[0] else { panic!() };
        assert_eq!(l.step, Expr::IntLit(-1));
        assert_eq!(l.lo, Expr::var("n"));
        assert_eq!(l.hi, Expr::IntLit(1));
    }

    #[test]
    fn compound_assignment_becomes_increment() {
        let src = r#"
void t(int n, double y[n], const double x[n]) {
  int i;
  for (i = 1; i <= n; i += 2) {
    y[i] += 2.0 * x[i];
    y[i] -= x[i];
  }
}
"#;
        let p = parse_clike(src).unwrap();
        let Stmt::For(l) = &p.body[0] else { panic!() };
        assert_eq!(l.step, Expr::IntLit(2));
        assert!(l.body[0].as_increment().is_some());
        assert!(l.body[1].as_increment().is_some());
    }

    #[test]
    fn atomic_pragma_and_if() {
        let src = r#"
void t(int n, const int c[n], double y[n]) {
  int i;
  #pragma omp parallel for shared(y, c)
  for (i = 1; i <= n; i++) {
    if (c[i] > 0 && i != 1) {
      #pragma omp atomic
      y[c[i]] += 1.0;
    } else {
      y[i] = -5.0;
    }
  }
}
"#;
        let p = parse_clike(src).unwrap();
        let Stmt::For(l) = &p.body[0] else { panic!() };
        let Stmt::If {
            cond,
            then_body,
            else_body,
        } = &l.body[0]
        else {
            panic!()
        };
        assert!(matches!(cond, BoolExpr::And(_, _)));
        assert!(matches!(then_body[0], Stmt::AtomicAdd { .. }));
        assert_eq!(else_body.len(), 1);
    }

    #[test]
    fn c_math_function_names() {
        let src = r#"
void t(int n, const double x[n], double y[n]) {
  int i;
  for (i = 1; i <= n; i++) {
    y[i] = fabs(x[i]) + fmin(x[i], 1.0) + fmax(x[i], 0.0) + pow(x[i], 2) + sqrt(2.0 + x[i] * x[i]);
  }
}
"#;
        let p = parse_clike(src).unwrap();
        assert!(crate::validate(&p).is_empty());
        let text = crate::program_to_string(&p);
        assert!(text.contains("abs(x(i))"), "{text}");
        assert!(text.contains("min(x(i), 1.0)"), "{text}");
        assert!(text.contains("x(i) ** 2"), "{text}");
    }

    #[test]
    fn multidim_brackets() {
        let src = r#"
void t(int n, int m, double u[n][m]) {
  int i, j;
  for (i = 1; i <= n; i++) {
    for (j = 1; j <= m; j++) {
      u[i][j] = 1.0;
    }
  }
}
"#;
        let p = parse_clike(src).unwrap();
        assert!(crate::validate(&p).is_empty(), "{:?}", crate::validate(&p));
    }

    #[test]
    fn inline_loop_declaration() {
        let src = r#"
void t(int n, double y[n]) {
  for (int i = 1; i <= n; i++) {
    y[i] = 1.0;
  }
}
"#;
        let p = parse_clike(src).unwrap();
        assert!(p.locals.iter().any(|d| d.name == "i"));
        assert!(crate::validate(&p).is_empty());
    }

    #[test]
    fn parse_any_dispatches() {
        assert!(parse_any(SAXPY_C).is_ok());
        assert!(parse_any(SAXPY_F).is_ok());
        // The first token decides, not a substring of a header comment.
        let fortran = format!("! avoid aliasing between x and y\n{SAXPY_F}");
        assert_eq!(parse_any(&fortran), parse_any(SAXPY_F));
        for header in ["/* subroutine saxpy */", "// a subroutine\n/* void */"] {
            assert_eq!(
                parse_any(&format!("{header}\n{SAXPY_C}")),
                parse_any(SAXPY_C)
            );
        }
    }

    #[test]
    fn comments_ignored() {
        let src = "void t(int n, double y[n]) { /* block\ncomment */ int i; // line\n for (i = 1; i <= n; i++) { y[i] = 1.0; } }";
        assert!(parse_clike(src).is_ok());
    }
}
