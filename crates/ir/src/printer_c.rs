//! Pretty-printer for the C-flavoured dialect: the declaration and
//! statement shell over the shared [`Writer`].
//!
//! Together with [`crate::clike::parse_clike`] this makes the IR a two-way
//! transpiler: any program — parsed from either dialect or generated by
//! the AD engine, tape statements (`push(e);` / `pop(lv);`) included — can
//! be emitted as C-flavoured source, and the C parser reads all of it back.
//! What comes back computes the same values and prints the same text
//! (`print ∘ parse ∘ print = print`), but is not always the identical tree:
//! an exact increment prints as `y += e` whichever side of the `+` held
//! `y`, so a commuted `y = e + y` returns as `y = y + e`.
//!
//! Loops are emitted in canonical `for (v = lo; v <= hi; v += s)` form
//! (`>=`/`-=` for negative literal steps, `v++`/`v--` for unit ones).

use std::fmt::Write;

use crate::expr::Expr;
use crate::flavor::SourceFlavor;
use crate::printer::{push_uint, Writer};
use crate::program::{Decl, Program};
use crate::stmt::{LValue, Stmt};
use crate::types::{Intent, Ty};

/// Render a whole program in the C-flavoured dialect.
pub fn program_to_clike(p: &Program) -> String {
    SourceFlavor::C.print(p)
}

impl Writer<'_> {
    pub(crate) fn function(&mut self, p: &Program) {
        let _ = write!(self.out, "void {}(", p.name);
        for (k, d) in p.params.iter().enumerate() {
            if k > 0 {
                self.out.push_str(", ");
            }
            if d.intent == Intent::In {
                self.out.push_str("const ");
            }
            self.c_decl(d);
        }
        self.out.push_str(") {\n");
        for d in &p.locals {
            self.out.push_str("  ");
            self.c_decl(d);
            self.out.push_str(";\n");
        }
        self.body(&p.body, 1);
        self.out.push_str("}\n");
    }

    /// `type name[extent]…`
    fn c_decl(&mut self, d: &Decl) {
        self.out.push_str(match d.ty {
            Ty::Real => "double ",
            Ty::Int => "int ",
        });
        self.out.push_str(&d.name);
        if !d.dims.is_empty() {
            self.subscripts(&d.dims);
        }
    }

    pub(crate) fn c_stmt(&mut self, st: &Stmt, level: usize) {
        match st {
            // Exact increments take the compound-assignment form, so the
            // output reads idiomatically and re-parses as an increment.
            Stmt::Assign { lhs, rhs } => self.line(level, |w| match st.increment_parts() {
                Some((lv, added)) => w.c_increment(lv, added),
                None => {
                    w.lvalue(lhs);
                    w.out.push_str(" = ");
                    w.expr(rhs, 0);
                }
            }),
            Stmt::AtomicAdd { lhs, rhs } => {
                self.pragma("atomic", None, level);
                self.line(level, |w| w.c_increment(lhs, rhs));
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                self.indent(level);
                self.out.push_str("if (");
                self.bool(cond, 0);
                self.out.push_str(") {\n");
                self.body(then_body, level + 1);
                if !else_body.is_empty() {
                    self.indent(level);
                    self.out.push_str("} else {\n");
                    self.body(else_body, level + 1);
                }
                self.indent(level);
                self.out.push_str("}\n");
            }
            Stmt::For(l) => {
                if let Some(info) = &l.parallel {
                    self.pragma("parallel", Some(info), level);
                }
                self.indent(level);
                let _ = write!(self.out, "for ({} = ", l.var);
                self.expr(&l.lo, 0);
                // A negative literal step counts down: `>=` and `-=`/`--`.
                let (cmp, update, unit) = match l.step {
                    Expr::IntLit(v) if v < 0 => (">=", "-=", "--"),
                    _ => ("<=", "+=", "++"),
                };
                let _ = write!(self.out, "; {} {cmp} ", l.var);
                self.expr(&l.hi, 0);
                self.out.push_str("; ");
                match &l.step {
                    Expr::IntLit(1 | -1) => {
                        let _ = write!(self.out, "{}{unit}", l.var);
                    }
                    Expr::IntLit(v) => {
                        let _ = write!(self.out, "{} {update} ", l.var);
                        push_uint(self.out, v.unsigned_abs());
                    }
                    step => {
                        let _ = write!(self.out, "{} {update} ", l.var);
                        self.expr(step, 1);
                    }
                }
                self.out.push_str(") {\n");
                self.body(&l.body, level + 1);
                self.indent(level);
                self.out.push_str("}\n");
            }
            Stmt::Push(e) => self.tape_call(level, "push", |w| w.expr(e, 0)),
            Stmt::Pop(lv) => self.tape_call(level, "pop", |w| w.lvalue(lv)),
        }
    }

    /// `lv += by`, `by` parenthesized unless it is a primary.
    fn c_increment(&mut self, lv: &LValue, by: &Expr) {
        self.lvalue(lv);
        self.out.push_str(" += ");
        self.expr(by, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clike::parse_clike;
    use crate::parser::parse_program;

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
    fn fortran_to_c_to_ir_roundtrip() {
        let p = parse_program(SAXPY_F).unwrap();
        let c_src = program_to_clike(&p);
        assert!(
            c_src.contains(
                "void saxpy(const int n, const double a, const double x[n], double y[n])"
            ),
            "{c_src}"
        );
        assert!(
            c_src.contains("#pragma omp parallel for shared(x, y)"),
            "{c_src}"
        );
        assert!(c_src.contains("y[i] += a * x[i];"), "{c_src}");
        let p2 = parse_clike(&c_src).unwrap();
        assert_eq!(p2.body, p.body);
        assert_eq!(p2.params.len(), p.params.len());
    }

    #[test]
    fn negative_step_loop_emits_decrement() {
        let src = r#"
subroutine t(n, y)
  integer, intent(in) :: n
  real, intent(inout) :: y(n)
  integer :: i
  do i = n, 1, -1
    y(i) = 0.0
  end do
end subroutine
"#;
        let p = parse_program(src).unwrap();
        let c_src = program_to_clike(&p);
        assert!(c_src.contains("for (i = n; i >= 1; i--)"), "{c_src}");
        let p2 = parse_clike(&c_src).unwrap();
        assert_eq!(p2.body, p.body);
    }

    #[test]
    fn stride_loop_and_guard_roundtrip() {
        let src = r#"
subroutine t(n, c, y)
  integer, intent(in) :: n
  integer, intent(in) :: c(n)
  real, intent(inout) :: y(n)
  integer :: i
  !$omp parallel do shared(c, y)
  do i = 2, n - 1, 2
    if (c(i) .gt. 0 .and. i .ne. 2) then
      !$omp atomic
      y(c(i)) = y(c(i)) + 1.0
    else
      y(i) = abs(-3.5) + min(1.0, 2.0)
    end if
  end do
end subroutine
"#;
        let p = parse_program(src).unwrap();
        let c_src = program_to_clike(&p);
        assert!(c_src.contains("for (i = 2; i <= n - 1; i += 2)"), "{c_src}");
        assert!(c_src.contains("#pragma omp atomic"), "{c_src}");
        assert!(c_src.contains("fabs"), "{c_src}");
        let p2 = parse_clike(&c_src).unwrap();
        assert_eq!(p2.body, p.body);
    }

    #[test]
    fn multidim_and_pow() {
        let src = r#"
subroutine t(n, m, u)
  integer, intent(in) :: n, m
  real, intent(inout) :: u(n, m)
  integer :: i, j
  do j = 1, m
    do i = 1, n
      u(i, j) = (i * 1.0) ** 2
    end do
  end do
end subroutine
"#;
        let p = parse_program(src).unwrap();
        let c_src = program_to_clike(&p);
        assert!(c_src.contains("u[i][j] = pow(i * 1.0, 2);"), "{c_src}");
        let p2 = parse_clike(&c_src).unwrap();
        assert_eq!(p2.body, p.body);
    }

    #[test]
    fn generated_adjoint_prints_as_c() {
        // Generated programs with tape calls render and read back.
        let src = "subroutine t(n, y)\n  integer, intent(in) :: n\n  real, intent(inout) :: y(n)\n  integer :: i\n  do i = 1, n\n    call push(y(i))\n    y(i) = 0.0\n    call pop(y(i))\n  end do\nend subroutine\n";
        let p = parse_program(src).unwrap();
        let c_src = program_to_clike(&p);
        assert!(c_src.contains("push(y[i]);"), "{c_src}");
        assert!(c_src.contains("pop(y[i]);"), "{c_src}");
        assert_eq!(parse_clike(&c_src).unwrap().body, p.body);
    }

    #[test]
    fn commuted_increment_returns_normalised() {
        let src = "subroutine t(y, e)\n  real, intent(inout) :: y\n  real, intent(in) :: e\n  y = e + y\nend subroutine\n";
        let p = parse_program(src).unwrap();
        let c_src = program_to_clike(&p);
        assert!(c_src.contains("y += e;"), "{c_src}");
        let back = parse_clike(&c_src).unwrap();
        assert_eq!(program_to_clike(&back), c_src);
        assert_eq!(
            crate::program_to_string(&back).lines().nth(3),
            Some("  y = y + e")
        );
    }
}
