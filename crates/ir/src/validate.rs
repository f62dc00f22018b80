//! Static well-formedness checks for parsed or built programs.

use std::collections::HashSet;
use std::fmt;

use crate::expr::{BinOp, BoolExpr, Expr};
use crate::name::Name;
use crate::parser::MAX_NESTING;
use crate::program::Program;
use crate::stmt::{LValue, Stmt};
use crate::types::Ty;

/// A validation diagnostic.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidateError {
    pub message: String,
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ValidateError {}

fn err(msg: impl Into<String>) -> ValidateError {
    ValidateError {
        message: msg.into(),
    }
}

/// Validate a program; returns all diagnostics found (empty = valid).
///
/// A program nested deeper than [`MAX_NESTING`] is one diagnostic, and
/// no check looks past that depth.
pub fn validate(p: &Program) -> Vec<ValidateError> {
    let mut v = Validator {
        prog: p,
        errors: Vec::new(),
        parallel_depth: 0,
        privatized: Vec::new(),
        room: MAX_NESTING,
        too_deep: false,
    };
    let mut seen = HashSet::new();
    for d in p.decls() {
        if !seen.insert(d.name.clone()) {
            v.errors
                .push(err(format!("duplicate declaration `{}`", d.name)));
        }
        for dim in &d.dims {
            v.check_int_expr(dim, format_args!("extent of `{}`", d.name));
        }
    }
    v.check_body(&p.body);
    v.errors
}

/// Convenience: validate and return `Err` on the first diagnostic.
pub fn validate_strict(p: &Program) -> Result<(), ValidateError> {
    let errs = validate(p);
    match errs.into_iter().next() {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

struct Validator<'a> {
    prog: &'a Program,
    errors: Vec<ValidateError>,
    parallel_depth: usize,
    /// Names privatized by enclosing parallel loops (incl. loop counters).
    privatized: Vec<Name>,
    /// Levels left before [`MAX_NESTING`] at the walk's position.
    room: u32,
    /// Whether the nesting diagnostic was given.
    too_deep: bool,
}

impl<'a> Validator<'a> {
    /// `f` one level down — a node, or a block body — unless that is past
    /// [`MAX_NESTING`], which is diagnosed once.
    fn level_down<T>(&mut self, f: impl FnOnce(&mut Self) -> Option<T>) -> Option<T> {
        if self.room == 0 {
            if !std::mem::replace(&mut self.too_deep, true) {
                self.errors.push(err(format!(
                    "program is nested deeper than {MAX_NESTING} levels"
                )));
            }
            return None;
        }
        self.room -= 1;
        let out = f(self);
        self.room += 1;
        out
    }

    fn ty_of_expr(&mut self, e: &Expr) -> Option<Ty> {
        self.level_down(|v| v.ty_of_node(e))
    }

    fn ty_of_node(&mut self, e: &Expr) -> Option<Ty> {
        match e {
            Expr::IntLit(_) => Some(Ty::Int),
            Expr::RealLit(v) => {
                // No source spells an infinity or a NaN, and printed as
                // `inf` / `NaN` it would read back as a variable.
                if !v.is_finite() {
                    self.errors
                        .push(err(format!("real literal `{v}` is not finite")));
                }
                Some(Ty::Real)
            }
            Expr::Var(name) => self.ty_of_var(name),
            Expr::Index { array, indices } => self.ty_of_element(array, indices),
            Expr::Unary { arg, .. } => self.ty_of_expr(arg),
            Expr::Binary { op, lhs, rhs } => {
                let a = self.ty_of_expr(lhs)?;
                let b = self.ty_of_expr(rhs)?;
                match op {
                    BinOp::Mod => {
                        if a != Ty::Int || b != Ty::Int {
                            self.errors.push(err("mod requires integer operands"));
                        }
                        Some(Ty::Int)
                    }
                    _ => {
                        if a == Ty::Real || b == Ty::Real {
                            Some(Ty::Real)
                        } else {
                            Some(Ty::Int)
                        }
                    }
                }
            }
            Expr::Call { func, args } => {
                for a in args.iter() {
                    self.ty_of_expr(a);
                }
                use crate::expr::Intrinsic::*;
                match func {
                    Abs | Min | Max => {
                        // Polymorphic over Int/Real; result follows args.
                        let tys: Vec<_> = args.iter().filter_map(|a| self.ty_of_expr(a)).collect();
                        if tys.contains(&Ty::Real) {
                            Some(Ty::Real)
                        } else {
                            Some(Ty::Int)
                        }
                    }
                    _ => Some(Ty::Real),
                }
            }
        }
    }

    fn ty_of_var(&mut self, name: &str) -> Option<Ty> {
        match self.prog.decl(name) {
            Some(d) => {
                if d.is_array() {
                    self.errors
                        .push(err(format!("array `{name}` used without indices")));
                }
                Some(d.ty)
            }
            None => {
                self.errors
                    .push(err(format!("use of undeclared variable `{name}`")));
                None
            }
        }
    }

    fn ty_of_element(&mut self, array: &str, indices: &[Expr]) -> Option<Ty> {
        match self.prog.decl(array) {
            Some(d) => {
                if !d.is_array() {
                    self.errors
                        .push(err(format!("scalar `{array}` indexed like an array")));
                } else if d.dims.len() != indices.len() {
                    self.errors.push(err(format!(
                        "array `{array}` has {} dimension(s) but is indexed with {}",
                        d.dims.len(),
                        indices.len()
                    )));
                }
                for ix in indices {
                    self.check_int_expr(ix, format_args!("index of `{array}`"));
                }
                Some(d.ty)
            }
            None => {
                self.errors
                    .push(err(format!("use of undeclared array `{array}`")));
                None
            }
        }
    }

    fn check_int_expr(&mut self, e: &Expr, what: std::fmt::Arguments<'_>) {
        if let Some(ty) = self.ty_of_expr(e) {
            if ty != Ty::Int {
                self.errors
                    .push(err(format!("{what} must be an integer expression")));
            }
        }
    }

    fn check_bool(&mut self, b: &BoolExpr) {
        self.level_down(|v| {
            match b {
                BoolExpr::Cmp { lhs, rhs, .. } => {
                    v.ty_of_expr(lhs);
                    v.ty_of_expr(rhs);
                }
                BoolExpr::And(a, b) | BoolExpr::Or(a, b) => {
                    v.check_bool(a);
                    v.check_bool(b);
                }
                BoolExpr::Not(a) => v.check_bool(a),
            }
            Some(())
        });
    }

    fn check_lvalue(&mut self, lv: &LValue) -> Option<Ty> {
        let ty = self.level_down(|v| match lv {
            LValue::Var(name) => v.ty_of_var(name),
            LValue::Index { array, indices } => v.ty_of_element(array, indices),
        });
        if self.parallel_depth > 0 {
            if let LValue::Var(name) = lv {
                if !self.privatized.iter().any(|p| p == name) {
                    self.errors.push(err(format!(
                        "scalar `{name}` is assigned inside a parallel loop but is \
                         not in a private or reduction clause (data race in the primal)"
                    )));
                }
            }
        }
        ty
    }

    fn check_body(&mut self, body: &[Stmt]) {
        for s in body {
            self.check_stmt(s);
        }
    }

    /// A block's body, one level down.
    fn check_block(&mut self, body: &[Stmt]) {
        self.level_down(|v| {
            v.check_body(body);
            Some(())
        });
    }

    fn check_stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Assign { lhs, rhs } | Stmt::AtomicAdd { lhs, rhs } => {
                let lt = self.check_lvalue(lhs);
                let rt = self.ty_of_expr(rhs);
                if let (Some(Ty::Int), Some(Ty::Real)) = (lt, rt) {
                    self.errors.push(err(format!(
                        "cannot assign a real expression to integer `{}`",
                        lhs.name()
                    )));
                }
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                self.check_bool(cond);
                self.check_block(then_body);
                self.check_block(else_body);
            }
            Stmt::For(l) => {
                match self.prog.ty_of(&l.var) {
                    Some(Ty::Int) => {}
                    Some(Ty::Real) => self
                        .errors
                        .push(err(format!("loop counter `{}` must be an integer", l.var))),
                    None => self
                        .errors
                        .push(err(format!("loop counter `{}` is not declared", l.var))),
                }
                self.check_int_expr(&l.lo, format_args!("loop lower bound"));
                self.check_int_expr(&l.hi, format_args!("loop upper bound"));
                self.check_int_expr(&l.step, format_args!("loop step"));
                if let Expr::IntLit(0) = l.step {
                    self.errors.push(err("loop step must be nonzero"));
                }
                let entered_parallel = l.parallel.is_some();
                let mut pushed = 0;
                if let Some(info) = &l.parallel {
                    if self.parallel_depth > 0 {
                        self.errors
                            .push(err("nested parallel loops are not supported"));
                    }
                    self.parallel_depth += 1;
                    for name in info
                        .shared
                        .iter()
                        .chain(&info.private)
                        .chain(info.reductions.iter().map(|(_, v)| v))
                    {
                        if self.prog.decl(name).is_none() {
                            self.errors.push(err(format!(
                                "pragma clause references undeclared variable `{name}`"
                            )));
                        }
                    }
                    if let Some(m) = info.duplicate_reduction() {
                        self.errors.push(err(m));
                    }
                    for name in info
                        .private
                        .iter()
                        .chain(info.reductions.iter().map(|(_, v)| v))
                    {
                        self.privatized.push(name.clone());
                        pushed += 1;
                    }
                    // The loop counter is implicitly private (OpenMP).
                    self.privatized.push(l.var.clone());
                    pushed += 1;
                } else if self.parallel_depth > 0 {
                    // Sequential loop nested inside a parallel one: its
                    // counter is thread-local.
                    self.privatized.push(l.var.clone());
                    pushed += 1;
                }
                self.check_block(&l.body);
                for _ in 0..pushed {
                    self.privatized.pop();
                }
                if entered_parallel {
                    self.parallel_depth -= 1;
                }
            }
            Stmt::Push(e) => {
                self.ty_of_expr(e);
            }
            Stmt::Pop(lv) => {
                self.check_lvalue(lv);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn check(src: &str) -> Vec<ValidateError> {
        validate(&parse_program(src).unwrap())
    }

    #[test]
    fn valid_program_passes() {
        let errs = check(
            r#"
subroutine t(n, x, y)
  integer, intent(in) :: n
  real, intent(in) :: x(n)
  real, intent(inout) :: y(n)
  integer :: i
  !$omp parallel do shared(x, y)
  do i = 1, n
    y(i) = y(i) + 2.0 * x(i)
  end do
end subroutine
"#,
        );
        assert!(errs.is_empty(), "{errs:?}");
    }

    #[test]
    fn non_finite_real_literal_built_in_code_is_rejected() {
        let src = "subroutine t(y)\n  real, intent(inout) :: y\n  y = 2.0 * y\nend subroutine\n";
        let mut p = parse_program(src).unwrap();
        assert!(validate(&p).is_empty());
        for v in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let Stmt::Assign { rhs, .. } = &mut p.body[0] else {
                panic!("an assignment")
            };
            *rhs = Expr::real(v) * Expr::var("y");
            let errs = validate(&p);
            assert_eq!(errs.len(), 1, "{errs:?}");
            assert_eq!(errs[0].message, format!("real literal `{v}` is not finite"));
        }
    }

    #[test]
    fn undeclared_variable_caught() {
        let errs = check(
            r#"
subroutine t(n)
  integer, intent(in) :: n
  integer :: i
  do i = 1, n
    i = zzz
  end do
end subroutine
"#,
        );
        assert!(errs.iter().any(|e| e.message.contains("undeclared")));
    }

    #[test]
    fn arity_mismatch_caught() {
        let errs = check(
            r#"
subroutine t(n, u)
  integer, intent(in) :: n
  real, intent(inout) :: u(n)
  integer :: i
  do i = 1, n
    u(i, i) = 1.0
  end do
end subroutine
"#,
        );
        assert!(errs.iter().any(|e| e.message.contains("dimension")));
    }

    #[test]
    fn real_index_caught() {
        let errs = check(
            r#"
subroutine t(n, u, a)
  integer, intent(in) :: n
  real, intent(inout) :: u(n)
  real, intent(in) :: a
  integer :: i
  do i = 1, n
    u(a) = 1.0
  end do
end subroutine
"#,
        );
        assert!(errs
            .iter()
            .any(|e| e.message.contains("integer expression")));
    }

    #[test]
    fn shared_scalar_write_in_parallel_loop_caught() {
        let errs = check(
            r#"
subroutine t(n, u)
  integer, intent(in) :: n
  real, intent(inout) :: u(n)
  integer :: i
  real :: tmp
  !$omp parallel do shared(u)
  do i = 1, n
    tmp = u(i)
    u(i) = tmp * 2.0
  end do
end subroutine
"#,
        );
        assert!(errs.iter().any(|e| e.message.contains("data race")));
    }

    #[test]
    fn private_scalar_write_allowed() {
        let errs = check(
            r#"
subroutine t(n, u)
  integer, intent(in) :: n
  real, intent(inout) :: u(n)
  integer :: i
  real :: tmp
  !$omp parallel do shared(u) private(tmp)
  do i = 1, n
    tmp = u(i)
    u(i) = tmp * 2.0
  end do
end subroutine
"#,
        );
        assert!(errs.is_empty(), "{errs:?}");
    }

    #[test]
    fn inner_sequential_loop_counter_is_threadlocal() {
        let errs = check(
            r#"
subroutine t(n, u)
  integer, intent(in) :: n
  real, intent(inout) :: u(n)
  integer :: i, j
  !$omp parallel do shared(u)
  do i = 1, n
    do j = 1, n
      u(i) = u(i) + 1.0
    end do
  end do
end subroutine
"#,
        );
        assert!(errs.is_empty(), "{errs:?}");
    }

    #[test]
    fn one_name_in_two_reduction_clauses_caught() {
        let errs = check(
            r#"
subroutine t(n, y)
  integer, intent(in) :: n
  real, intent(inout) :: y(n)
  integer :: i
  !$omp parallel do reduction(+: y) reduction(max: y)
  do i = 1, n
    y(i) = y(i) + 1.0
  end do
end subroutine
"#,
        );
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert_eq!(
            errs[0].message,
            "`y` is named by two reduction clauses, `reduction(+: y)` and `reduction(max: y)`"
        );
    }

    #[test]
    fn int_lvalue_real_rhs_caught() {
        let errs = check(
            r#"
subroutine t(n)
  integer, intent(in) :: n
  integer :: k
  k = 1.5
end subroutine
"#,
        );
        assert!(errs.iter().any(|e| e.message.contains("real expression")));
    }

    #[test]
    fn real_loop_counter_caught() {
        let errs = check(
            r#"
subroutine t(n, a)
  integer, intent(in) :: n
  real, intent(inout) :: a
  do a = 1, n
    a = 1.0
  end do
end subroutine
"#,
        );
        assert!(errs
            .iter()
            .any(|e| e.message.contains("must be an integer")));
    }

    #[test]
    fn zero_step_caught() {
        let errs = check(
            r#"
subroutine t(n, u)
  integer, intent(in) :: n
  real, intent(inout) :: u(n)
  integer :: i
  do i = 1, n, 0
    u(i) = 1.0
  end do
end subroutine
"#,
        );
        assert!(errs.iter().any(|e| e.message.contains("nonzero")));
    }

    #[test]
    fn nesting_limit_holds_for_ir_built_in_code() {
        let src = "subroutine t(n, x, y)\n  integer, intent(in) :: n\n  \
                   real, intent(in) :: x(n)\n  real, intent(inout) :: y(n)\n  \
                   y(1) = x(1)\nend subroutine\n";
        let mut p = parse_program(src).unwrap();
        // A top-level `y(1) = x(1) + … + x(1)` of height `h`.
        let with_height = |p: &mut Program, h: u32| {
            let x1 = Expr::index("x", vec![Expr::IntLit(1)]);
            let mut rhs = x1.clone();
            for _ in 2..h {
                rhs = rhs + x1.clone();
            }
            let Stmt::Assign { rhs: r, .. } = &mut p.body[0] else {
                panic!("one assignment");
            };
            *r = rhs;
        };
        with_height(&mut p, MAX_NESTING);
        assert!(validate(&p).is_empty(), "{:?}", validate(&p));
        with_height(&mut p, MAX_NESTING + 1);
        let errs = validate(&p);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].message.contains("nested deeper"), "{errs:?}");
        // Far past the limit the walk still stops there. (Dropping a
        // chain this deep recurses too, so it is kept short of that.)
        with_height(&mut p, 20 * MAX_NESTING);
        assert_eq!(validate(&p).len(), 1);
    }
}
