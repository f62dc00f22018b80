//! The one pretty-printer of both surface flavours.
//!
//! Expressions, conditions, lvalues, subscripts and pragmas are written
//! once, precedence-aware, in the spellings of the flavour's
//! [`Spelling`](crate::flavor::Spelling) table. What differs per flavour is
//! the declaration and statement shell: the Fortran one is at the end of
//! this file, the C one is in [`crate::printer_c`].
//!
//! The Fortran printer and parser round-trip: `parse(print(p)) == p` for
//! every valid program (verified by property tests and the fuzzer's
//! `round-trip` oracle).

use std::fmt::Write;

use crate::expr::{BinOp, BoolExpr, CmpOp, Expr, UnOp};
use crate::flavor::{Callee, SourceFlavor};
use crate::lexer::Tok;
use crate::program::{Decl, Program};
use crate::stmt::{ForLoop, LValue, ParallelInfo, Stmt};

/// Render an expression to Fortran-flavoured surface syntax.
pub fn expr_to_string(e: &Expr) -> String {
    let mut s = String::new();
    Writer::new(&mut s, SourceFlavor::Fortran).expr(e, 0);
    s
}

/// Render a boolean condition to Fortran-flavoured surface syntax.
pub fn bool_to_string(b: &BoolExpr) -> String {
    let mut s = String::new();
    Writer::new(&mut s, SourceFlavor::Fortran).bool(b, 0);
    s
}

/// Render a whole program to Fortran-flavoured surface syntax.
pub fn program_to_string(p: &Program) -> String {
    SourceFlavor::Fortran.print(p)
}

/// Render a statement list at the given indentation level.
pub fn write_body(s: &mut String, body: &[Stmt], level: usize) {
    Writer::new(s, SourceFlavor::Fortran).body(body, level);
}

/// Render one loop (pragma, header, body, `end do`) at the given
/// indentation level.
pub fn write_loop(s: &mut String, l: &ForLoop, level: usize) {
    Writer::new(s, SourceFlavor::Fortran).do_loop(l, level);
}

/// Brackets and separator of a call's argument list (and of a Fortran
/// subscript list).
const CALL: [&str; 3] = ["(", ", ", ")"];

/// The output buffer and everything both flavours write the same way.
pub(crate) struct Writer<'s> {
    pub out: &'s mut String,
    pub flavor: SourceFlavor,
}

impl<'s> Writer<'s> {
    pub fn new(out: &'s mut String, flavor: SourceFlavor) -> Writer<'s> {
        Writer { out, flavor }
    }

    /// The flavour's spelling of an operator it has.
    fn op(&self, tok: Tok<'_>) -> &'static str {
        let spelled = self.flavor.spelling().of(tok);
        spelled.expect("the writer only asks for operators of its flavour")
    }

    pub fn indent(&mut self, level: usize) {
        for _ in 0..level {
            self.out.push_str("  ");
        }
    }

    /// One simple statement on a line of its own, ended the flavour's way.
    pub fn line(&mut self, level: usize, write: impl FnOnce(&mut Self)) {
        self.indent(level);
        write(self);
        self.out.push_str(match self.flavor {
            SourceFlavor::Fortran => "\n",
            SourceFlavor::C => ";\n",
        });
    }

    /// `push(e)` / `pop(lv)`: after `call` in Fortran, a statement in C.
    pub fn tape_call(&mut self, level: usize, name: &str, arg: impl FnOnce(&mut Self)) {
        self.line(level, |w| {
            if w.flavor == SourceFlavor::Fortran {
                w.out.push_str("call ");
            }
            w.out.push_str(name);
            w.out.push('(');
            arg(w);
            w.out.push(')');
        });
    }

    pub fn body(&mut self, body: &[Stmt], level: usize) {
        for st in body {
            match self.flavor {
                SourceFlavor::Fortran => self.fortran_stmt(st, level),
                SourceFlavor::C => self.c_stmt(st, level),
            }
        }
    }

    /// `open item sep item … close`, each item a top-level expression.
    fn seq<'e>(
        &mut self,
        [open, sep, close]: [&str; 3],
        items: impl IntoIterator<Item = &'e Expr>,
    ) {
        self.out.push_str(open);
        for (k, item) in items.into_iter().enumerate() {
            if k > 0 {
                self.out.push_str(sep);
            }
            self.expr(item, 0);
        }
        self.out.push_str(close);
    }

    /// The subscripts (or declared extents) after an array name.
    pub fn subscripts(&mut self, indices: &[Expr]) {
        self.seq(self.flavor.spelling().subscript, indices);
    }

    pub fn lvalue(&mut self, lv: &LValue) {
        self.out.push_str(lv.name());
        if let LValue::Index { indices, .. } = lv {
            self.subscripts(indices);
        }
    }

    /// An OpenMP directive line: `what`, then the clauses of `info`.
    pub fn pragma(&mut self, what: &str, info: Option<&ParallelInfo>, level: usize) {
        self.indent(level);
        let _ = write!(self.out, "{} {what}", self.flavor.spelling().pragma);
        if let Some(info) = info {
            let _ = write!(self.out, " {}", self.flavor.spelling().loop_kw);
            if !info.shared.is_empty() {
                let _ = write!(self.out, " shared({})", info.shared.join(", "));
            }
            if !info.private.is_empty() {
                let _ = write!(self.out, " private({})", info.private.join(", "));
            }
            for (op, var) in &info.reductions {
                let _ = write!(self.out, " reduction({}: {})", op.symbol(), var);
            }
        }
        self.out.push('\n');
    }

    fn open(&mut self, need: bool) {
        if need {
            self.out.push('(');
        }
    }

    fn close(&mut self, need: bool) {
        if need {
            self.out.push(')');
        }
    }

    /// Writes `e`; parenthesizes if the surrounding precedence demands it.
    pub fn expr(&mut self, e: &Expr, parent_prec: u8) {
        match e {
            Expr::IntLit(v) => {
                let need = *v < 0 && parent_prec > 0;
                self.open(need);
                let _ = write!(self.out, "{v}");
                self.close(need);
            }
            Expr::RealLit(v) => {
                let need = *v < 0.0 && parent_prec > 0;
                self.open(need);
                // Always with a decimal point, so it re-parses as a real.
                let start = self.out.len();
                let _ = write!(self.out, "{v}");
                if v.is_finite() && !self.out[start..].contains('.') {
                    self.out.push_str(".0");
                }
                self.close(need);
            }
            Expr::Var(n) => self.out.push_str(n),
            Expr::Index { array, indices } => {
                self.out.push_str(array);
                self.subscripts(indices);
            }
            Expr::Unary { op: UnOp::Neg, arg } => {
                self.open(parent_prec > 0);
                self.out.push('-');
                self.expr(arg, 4);
                self.close(parent_prec > 0);
            }
            Expr::Binary { op, lhs, rhs } => {
                let tok = match op {
                    BinOp::Add => Tok::Plus,
                    BinOp::Sub => Tok::Minus,
                    BinOp::Mul => Tok::Star,
                    BinOp::Div => Tok::Slash,
                    BinOp::Pow => Tok::DoubleStar,
                    BinOp::Mod => Tok::Percent,
                };
                let spelling = self.flavor.spelling();
                // An operator the flavour has no infix spelling for is a call.
                let Some(symbol) = spelling.of(tok) else {
                    self.out.push_str(spelling.func_name(Callee::Bin(*op)));
                    return self.seq(CALL, [&**lhs, &**rhs]);
                };
                let prec = op.precedence();
                self.open(prec < parent_prec);
                self.expr(lhs, prec);
                let _ = write!(self.out, " {symbol} ");
                // Right operand of a left-associative operator needs a tighter
                // context so that `a - (b - c)` keeps its parentheses.
                self.expr(rhs, prec + 1);
                self.close(prec < parent_prec);
            }
            Expr::Call { func, args } => {
                let name = self.flavor.spelling().func_name(Callee::Fun(*func));
                self.out.push_str(name);
                self.seq(CALL, args.iter());
            }
        }
    }

    pub fn bool(&mut self, b: &BoolExpr, parent_prec: u8) {
        // precedence: or=1, and=2, not=3, cmp=4
        match b {
            BoolExpr::Cmp { op, lhs, rhs } => {
                let tok = match op {
                    CmpOp::Eq => Tok::Eq,
                    CmpOp::Ne => Tok::Ne,
                    CmpOp::Lt => Tok::Lt,
                    CmpOp::Le => Tok::Le,
                    CmpOp::Gt => Tok::Gt,
                    CmpOp::Ge => Tok::Ge,
                };
                self.expr(lhs, 1);
                let _ = write!(self.out, " {} ", self.op(tok));
                self.expr(rhs, 1);
            }
            BoolExpr::And(a, c) => self.connective(Tok::And, 2, a, c, parent_prec),
            BoolExpr::Or(a, c) => self.connective(Tok::Or, 1, a, c, parent_prec),
            BoolExpr::Not(a) => {
                self.out.push_str(self.op(Tok::Not));
                match self.flavor {
                    SourceFlavor::Fortran => {
                        self.out.push(' ');
                        self.bool(a, 3);
                    }
                    // `!a < b` is `(!a) < b` in C proper: always parenthesize.
                    SourceFlavor::C => {
                        self.out.push('(');
                        self.bool(a, 0);
                        self.out.push(')');
                    }
                }
            }
        }
    }

    /// `a tok c` for a left-associative connective of precedence `prec`.
    fn connective(&mut self, tok: Tok<'_>, prec: u8, a: &BoolExpr, c: &BoolExpr, parent_prec: u8) {
        self.open(parent_prec > prec);
        self.bool(a, prec);
        let _ = write!(self.out, " {} ", self.op(tok));
        self.bool(c, prec + 1);
        self.close(parent_prec > prec);
    }

    // ---- the Fortran shell: declarations and statements ----

    pub fn subroutine(&mut self, p: &Program) {
        let _ = write!(self.out, "subroutine {}(", p.name);
        for (k, d) in p.params.iter().enumerate() {
            if k > 0 {
                self.out.push_str(", ");
            }
            self.out.push_str(&d.name);
        }
        self.out.push_str(")\n");
        for d in p.decls() {
            self.fortran_decl(d);
        }
        self.body(&p.body, 1);
        self.out.push_str("end subroutine\n");
    }

    fn fortran_decl(&mut self, d: &Decl) {
        let _ = write!(self.out, "  {}", d.ty);
        if !d.is_local {
            let _ = write!(self.out, ", {}", d.intent);
        }
        let _ = write!(self.out, " :: {}", d.name);
        if !d.dims.is_empty() {
            self.subscripts(&d.dims);
        }
        self.out.push('\n');
    }

    fn do_loop(&mut self, l: &ForLoop, level: usize) {
        if let Some(info) = &l.parallel {
            self.pragma("parallel", Some(info), level);
        }
        self.indent(level);
        let _ = write!(self.out, "do {} = ", l.var);
        self.expr(&l.lo, 0);
        self.out.push_str(", ");
        self.expr(&l.hi, 0);
        if l.step != Expr::IntLit(1) {
            self.out.push_str(", ");
            self.expr(&l.step, 0);
        }
        self.out.push('\n');
        self.body(&l.body, level + 1);
        self.indent(level);
        self.out.push_str("end do\n");
    }

    fn fortran_stmt(&mut self, st: &Stmt, level: usize) {
        match st {
            Stmt::Assign { lhs, rhs } => self.line(level, |w| {
                w.lvalue(lhs);
                w.out.push_str(" = ");
                w.expr(rhs, 0);
            }),
            Stmt::AtomicAdd { lhs, rhs } => {
                self.pragma("atomic", None, level);
                self.line(level, |w| {
                    w.lvalue(lhs);
                    w.out.push_str(" = ");
                    w.lvalue(lhs);
                    w.out.push_str(" + ");
                    // Parenthesize so the increment re-parses unambiguously.
                    w.expr(rhs, 2);
                });
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                self.indent(level);
                self.out.push_str("if (");
                self.bool(cond, 0);
                self.out.push_str(") then\n");
                self.body(then_body, level + 1);
                if !else_body.is_empty() {
                    self.indent(level);
                    self.out.push_str("else\n");
                    self.body(else_body, level + 1);
                }
                self.indent(level);
                self.out.push_str("end if\n");
            }
            Stmt::For(l) => self.do_loop(l, level),
            Stmt::Push(e) => self.tape_call(level, "push", |w| w.expr(e, 0)),
            Stmt::Pop(lv) => self.tape_call(level, "pop", |w| w.lvalue(lv)),
        }
    }
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
            BoolExpr::cmp(CmpOp::Ne, v("i"), v("j")).into(),
            BoolExpr::cmp(CmpOp::Lt, v("i"), v("n")).into(),
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
        let stmt = Stmt::increment(LValue::index("u", vec![v("i")]), v("a"));
        write_body(&mut s, std::slice::from_ref(&stmt), 0);
        assert_eq!(s, "u(i) = u(i) + a\n");
    }
}
