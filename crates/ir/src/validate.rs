//! Static well-formedness checks for parsed or built programs.

use std::collections::HashSet;
use std::fmt;

use crate::expr::{BinOp, BoolExpr, Expr};
use crate::name::Name;
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
pub fn validate(p: &Program) -> Vec<ValidateError> {
    let mut v = Validator {
        prog: p,
        errors: Vec::new(),
        parallel_depth: 0,
        privatized: Vec::new(),
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
}

impl<'a> Validator<'a> {
    fn ty_of_expr(&mut self, e: &Expr) -> Option<Ty> {
        match e {
            Expr::IntLit(_) => Some(Ty::Int),
            Expr::RealLit(_) => Some(Ty::Real),
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
        match b {
            BoolExpr::Cmp { lhs, rhs, .. } => {
                self.ty_of_expr(lhs);
                self.ty_of_expr(rhs);
            }
            BoolExpr::And(a, b) | BoolExpr::Or(a, b) => {
                self.check_bool(a);
                self.check_bool(b);
            }
            BoolExpr::Not(a) => self.check_bool(a),
        }
    }

    fn check_lvalue(&mut self, lv: &LValue) -> Option<Ty> {
        let ty = match lv {
            LValue::Var(name) => self.ty_of_var(name),
            LValue::Index { array, indices } => self.ty_of_element(array, indices),
        };
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
                self.check_body(then_body);
                self.check_body(else_body);
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
                self.check_body(&l.body);
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
}
