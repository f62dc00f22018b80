//! Pretty-printer emitting the Fortran-like surface syntax.
//!
//! The printer and parser round-trip: `parse(print(p)) == p` for every valid
//! program (verified by property tests).

use std::fmt::Write;

use crate::expr::{BinOp, BoolExpr, CmpOp, Expr, UnOp};
use crate::program::{Decl, Program};
use crate::stmt::{ForLoop, LValue, ParallelInfo, Stmt};

/// Render an expression to surface syntax.
pub fn expr_to_string(e: &Expr) -> String {
    let mut s = String::new();
    write_expr(&mut s, e, 0);
    s
}

/// Render a boolean condition to surface syntax.
pub fn bool_to_string(b: &BoolExpr) -> String {
    let mut s = String::new();
    write_bool(&mut s, b, 0);
    s
}

/// Render a whole program to surface syntax.
pub fn program_to_string(p: &Program) -> String {
    let mut s = String::new();
    let params: Vec<&str> = p.params.iter().map(|d| d.name.as_str()).collect();
    let _ = writeln!(s, "subroutine {}({})", p.name, params.join(", "));
    for d in &p.params {
        write_decl(&mut s, d);
    }
    for d in &p.locals {
        write_decl(&mut s, d);
    }
    write_body(&mut s, &p.body, 1);
    let _ = writeln!(s, "end subroutine");
    s
}

fn write_decl(s: &mut String, d: &Decl) {
    let _ = write!(s, "  {}", d.ty);
    if !d.is_local {
        let _ = write!(s, ", {}", d.intent);
    }
    let _ = write!(s, " :: {}", d.name);
    if !d.dims.is_empty() {
        let dims: Vec<String> = d.dims.iter().map(expr_to_string).collect();
        let _ = write!(s, "({})", dims.join(", "));
    }
    let _ = writeln!(s);
}

fn indent(s: &mut String, level: usize) {
    for _ in 0..level {
        s.push_str("  ");
    }
}

/// Render a statement list at the given indentation level.
pub fn write_body(s: &mut String, body: &[Stmt], level: usize) {
    for st in body {
        write_stmt(s, st, level);
    }
}

/// Render one loop (pragma, header, body, `end do`) at the given
/// indentation level.
pub fn write_loop(s: &mut String, l: &ForLoop, level: usize) {
    if let Some(info) = &l.parallel {
        write_parallel_pragma(s, info, level);
    }
    indent(s, level);
    let _ = write!(s, "do {} = ", l.var);
    write_expr(s, &l.lo, 0);
    s.push_str(", ");
    write_expr(s, &l.hi, 0);
    if l.step != Expr::IntLit(1) {
        s.push_str(", ");
        write_expr(s, &l.step, 0);
    }
    s.push('\n');
    write_body(s, &l.body, level + 1);
    indent(s, level);
    s.push_str("end do\n");
}

fn write_lvalue(s: &mut String, lv: &LValue) {
    match lv {
        LValue::Var(n) => s.push_str(n),
        LValue::Index { array, indices } => {
            s.push_str(array);
            s.push('(');
            for (k, ix) in indices.iter().enumerate() {
                if k > 0 {
                    s.push_str(", ");
                }
                write_expr(s, ix, 0);
            }
            s.push(')');
        }
    }
}

fn write_parallel_pragma(s: &mut String, info: &ParallelInfo, level: usize) {
    indent(s, level);
    s.push_str("!$omp parallel do");
    if !info.shared.is_empty() {
        let _ = write!(s, " shared({})", info.shared.join(", "));
    }
    if !info.private.is_empty() {
        let _ = write!(s, " private({})", info.private.join(", "));
    }
    for (op, var) in &info.reductions {
        let _ = write!(s, " reduction({}: {})", op.symbol(), var);
    }
    s.push('\n');
}

fn write_stmt(s: &mut String, st: &Stmt, level: usize) {
    match st {
        Stmt::Assign { lhs, rhs } => {
            indent(s, level);
            write_lvalue(s, lhs);
            s.push_str(" = ");
            write_expr(s, rhs, 0);
            s.push('\n');
        }
        Stmt::AtomicAdd { lhs, rhs } => {
            indent(s, level);
            s.push_str("!$omp atomic\n");
            indent(s, level);
            write_lvalue(s, lhs);
            s.push_str(" = ");
            write_lvalue(s, lhs);
            s.push_str(" + ");
            // Parenthesize so the increment re-parses unambiguously.
            write_expr(s, rhs, 2);
            s.push('\n');
        }
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => {
            indent(s, level);
            s.push_str("if (");
            write_bool(s, cond, 0);
            s.push_str(") then\n");
            write_body(s, then_body, level + 1);
            if !else_body.is_empty() {
                indent(s, level);
                s.push_str("else\n");
                write_body(s, else_body, level + 1);
            }
            indent(s, level);
            s.push_str("end if\n");
        }
        Stmt::For(l) => write_loop(s, l, level),
        Stmt::Push(e) => {
            indent(s, level);
            s.push_str("call push(");
            write_expr(s, e, 0);
            s.push_str(")\n");
        }
        Stmt::Pop(lv) => {
            indent(s, level);
            s.push_str("call pop(");
            write_lvalue(s, lv);
            s.push_str(")\n");
        }
    }
}

/// Writes `e`; parenthesizes if the surrounding precedence demands it.
fn write_expr(s: &mut String, e: &Expr, parent_prec: u8) {
    match e {
        Expr::IntLit(v) => {
            if *v < 0 && parent_prec > 0 {
                let _ = write!(s, "({v})");
            } else {
                let _ = write!(s, "{v}");
            }
        }
        Expr::RealLit(v) => {
            let printed = format_real(*v);
            if *v < 0.0 && parent_prec > 0 {
                let _ = write!(s, "({printed})");
            } else {
                s.push_str(&printed);
            }
        }
        Expr::Var(n) => s.push_str(n),
        Expr::Index { array, indices } => {
            s.push_str(array);
            s.push('(');
            for (k, ix) in indices.iter().enumerate() {
                if k > 0 {
                    s.push_str(", ");
                }
                write_expr(s, ix, 0);
            }
            s.push(')');
        }
        Expr::Unary { op: UnOp::Neg, arg } => {
            let need = parent_prec > 0;
            if need {
                s.push('(');
            }
            s.push('-');
            write_expr(s, arg, 4);
            if need {
                s.push(')');
            }
        }
        Expr::Binary { op, lhs, rhs } => {
            let prec = op.precedence();
            if *op == BinOp::Mod {
                s.push_str("mod(");
                write_expr(s, lhs, 0);
                s.push_str(", ");
                write_expr(s, rhs, 0);
                s.push(')');
                return;
            }
            let need = prec < parent_prec;
            if need {
                s.push('(');
            }
            write_expr(s, lhs, prec);
            let _ = write!(s, " {} ", op.symbol());
            // Right operand of a left-associative operator needs a tighter
            // context so that `a - (b - c)` keeps its parentheses.
            write_expr(s, rhs, prec + 1);
            if need {
                s.push(')');
            }
        }
        Expr::Call { func, args } => {
            s.push_str(func.name());
            s.push('(');
            for (k, a) in args.iter().enumerate() {
                if k > 0 {
                    s.push_str(", ");
                }
                write_expr(s, a, 0);
            }
            s.push(')');
        }
    }
}

/// Format a real literal so it re-parses as a real (always with a decimal
/// point or exponent).
fn format_real(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
        s
    } else {
        format!("{s}.0")
    }
}

fn write_bool(s: &mut String, b: &BoolExpr, parent_prec: u8) {
    // precedence: or=1, and=2, not=3, cmp=4
    match b {
        BoolExpr::Cmp { op, lhs, rhs } => {
            write_expr(s, lhs, 1);
            let _ = write!(s, " {} ", cmp_str(*op));
            write_expr(s, rhs, 1);
        }
        BoolExpr::And(a, c) => {
            let need = parent_prec > 2;
            if need {
                s.push('(');
            }
            write_bool(s, a, 2);
            s.push_str(" .and. ");
            write_bool(s, c, 3);
            if need {
                s.push(')');
            }
        }
        BoolExpr::Or(a, c) => {
            let need = parent_prec > 1;
            if need {
                s.push('(');
            }
            write_bool(s, a, 1);
            s.push_str(" .or. ");
            write_bool(s, c, 2);
            if need {
                s.push(')');
            }
        }
        BoolExpr::Not(a) => {
            s.push_str(".not. ");
            write_bool(s, a, 3);
        }
    }
}

fn cmp_str(op: CmpOp) -> &'static str {
    op.fortran()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Intrinsic;

    fn v(n: &str) -> Expr {
        Expr::var(n)
    }

    #[test]
    fn precedence_parenthesization() {
        let e = (v("a") + v("b")) * v("c");
        assert_eq!(expr_to_string(&e), "(a + b) * c");
        let e2 = v("a") + v("b") * v("c");
        assert_eq!(expr_to_string(&e2), "a + b * c");
    }

    #[test]
    fn right_assoc_parens_preserved() {
        let e = v("a") - (v("b") - v("c"));
        assert_eq!(expr_to_string(&e), "a - (b - c)");
    }

    #[test]
    fn array_ref_and_call() {
        let e = Expr::index("u", vec![v("i") - Expr::int(1), v("j")]);
        assert_eq!(expr_to_string(&e), "u(i - 1, j)");
        let c = Expr::call(Intrinsic::Min, vec![v("a"), v("b")]);
        assert_eq!(expr_to_string(&c), "min(a, b)");
    }

    #[test]
    fn real_literals_get_decimal_point() {
        assert_eq!(expr_to_string(&Expr::real(1.5)), "1.5");
        assert_eq!(expr_to_string(&Expr::real(2.0)), "2.0");
    }

    #[test]
    fn negative_literal_parenthesized_in_context() {
        let e = v("a") * Expr::int(-1);
        assert_eq!(expr_to_string(&e), "a * (-1)");
    }

    #[test]
    fn bool_printing() {
        let b = BoolExpr::And(
            Box::new(BoolExpr::cmp(CmpOp::Ne, v("i"), v("j"))),
            Box::new(BoolExpr::cmp(CmpOp::Lt, v("i"), v("n"))),
        );
        assert_eq!(bool_to_string(&b), "i .ne. j .and. i .lt. n");
    }

    #[test]
    fn mod_prints_as_intrinsic() {
        let e = Expr::binary(BinOp::Mod, v("i"), Expr::int(2));
        assert_eq!(expr_to_string(&e), "mod(i, 2)");
    }

    #[test]
    fn stmt_printing_shapes() {
        let mut s = String::new();
        write_stmt(
            &mut s,
            &Stmt::increment(LValue::index("u", vec![v("i")]), v("a")),
            0,
        );
        assert_eq!(s, "u(i) = u(i) + a\n");
    }
}
