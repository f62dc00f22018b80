//! Activity analysis (paper §5.4).
//!
//! A variable is *active* when it is both **varied** (its value depends on
//! an independent input) and **useful** (its value influences a dependent
//! output). Only active variables receive adjoints, which shrinks the set
//! of reference pairs FormAD must analyze.
//!
//! The analysis here is flow-insensitive at variable granularity (arrays
//! are single entities), a sound over-approximation adequate for the
//! paper's kernels.

use std::collections::HashSet;

use formad_ir::{Expr, LValue, Name, Program, Stmt, Ty};

/// Result of activity analysis.
#[derive(Debug, Clone)]
pub struct Activity {
    /// Variables whose value may depend on an independent input.
    pub varied: HashSet<Name>,
    /// Variables whose value may influence a dependent output.
    pub useful: HashSet<Name>,
}

impl Activity {
    /// Is `name` active (needs an adjoint)?
    pub fn is_active(&self, name: &str) -> bool {
        self.varied.contains(name) && self.useful.contains(name)
    }

    /// Run the analysis for the given independent (differentiation inputs)
    /// and dependent (outputs) variable sets. Integer variables never
    /// carry derivatives.
    pub fn analyze(p: &Program, independents: &[String], dependents: &[String]) -> Activity {
        let real_vars: HashSet<Name> = p
            .decls()
            .filter(|d| d.ty == Ty::Real)
            .map(|d| d.name.clone())
            .collect();
        // The declared real variables among `names`, as the program's own
        // `Name`s.
        let real_among = |names: &[String]| -> HashSet<Name> {
            names
                .iter()
                .filter_map(|v| real_vars.get(v.as_str()).cloned())
                .collect()
        };

        // Forward: varied.
        let mut varied = real_among(independents);
        let mut changed = true;
        while changed {
            changed = false;
            p.walk_stmts(&mut |s| {
                if let Some((lhs, rhs)) = assign_parts(s) {
                    let lhs_name = lhs.name();
                    if !real_vars.contains(lhs_name) || varied.contains(lhs_name) {
                        return;
                    }
                    let mut fed = false;
                    value_sources(rhs, &real_vars, &mut |v| fed |= varied.contains(v));
                    if fed {
                        varied.insert(lhs_name.clone());
                        changed = true;
                    }
                }
            });
        }

        // Backward: useful.
        let mut useful = real_among(dependents);
        let mut changed = true;
        while changed {
            changed = false;
            p.walk_stmts(&mut |s| {
                if let Some((lhs, rhs)) = assign_parts(s) {
                    if !useful.contains(lhs.name()) {
                        return;
                    }
                    value_sources(rhs, &real_vars, &mut |v| {
                        if !useful.contains(v) {
                            useful.insert(v.clone());
                            changed = true;
                        }
                    });
                }
            });
        }

        Activity { varied, useful }
    }
}

/// Extract (lhs, rhs) from assignment-like statements.
fn assign_parts(s: &Stmt) -> Option<(&LValue, &Expr)> {
    match s {
        Stmt::Assign { lhs, rhs } | Stmt::AtomicAdd { lhs, rhs } => Some((lhs, rhs)),
        _ => None,
    }
}

/// Visit the real-typed variables whose *values* feed `e` (index
/// expressions are integer-valued and cannot carry derivatives, so arrays
/// appearing only inside indices are excluded). A name is visited once per
/// occurrence.
fn value_sources(e: &Expr, real_vars: &HashSet<Name>, f: &mut impl FnMut(&Name)) {
    match e {
        Expr::IntLit(_) | Expr::RealLit(_) => {}
        // For an element the value flows; the (integer) indices do not.
        Expr::Var(n) | Expr::Index { array: n, .. } => {
            if real_vars.contains(n) {
                f(n);
            }
        }
        Expr::Unary { arg, .. } => value_sources(arg, real_vars, f),
        Expr::Binary { lhs, rhs, .. } => {
            value_sources(lhs, real_vars, f);
            value_sources(rhs, real_vars, f);
        }
        Expr::Call { args, .. } => {
            for a in args.iter() {
                value_sources(a, real_vars, f);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use formad_ir::parse_program;

    fn act(src: &str, indep: &[&str], dep: &[&str]) -> Activity {
        let p = parse_program(src).unwrap();
        Activity::analyze(
            &p,
            &indep.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            &dep.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        )
    }

    const CHAIN: &str = r#"
subroutine t(n, x, y, z, w)
  integer, intent(in) :: n
  real, intent(in) :: x(n)
  real, intent(inout) :: y(n), z(n), w(n)
  integer :: i
  do i = 1, n
    y(i) = 2.0 * x(i)
    z(i) = y(i) + 1.0
    w(i) = 3.0
  end do
end subroutine
"#;

    #[test]
    fn varied_propagates_forward() {
        let a = act(CHAIN, &["x"], &["z"]);
        assert!(a.varied.contains("x"));
        assert!(a.varied.contains("y"));
        assert!(a.varied.contains("z"));
        // w is assigned a constant: never varied.
        assert!(!a.varied.contains("w"));
    }

    #[test]
    fn useful_propagates_backward() {
        let a = act(CHAIN, &["x"], &["z"]);
        assert!(a.useful.contains("z"));
        assert!(a.useful.contains("y"));
        assert!(a.useful.contains("x"));
        assert!(!a.useful.contains("w"));
    }

    #[test]
    fn active_is_intersection() {
        let a = act(CHAIN, &["x"], &["y"]);
        assert!(a.is_active("x"));
        assert!(a.is_active("y"));
        // z depends on x but doesn't influence y.
        assert!(!a.is_active("z"));
        assert!(!a.is_active("w"));
    }

    #[test]
    fn integer_arrays_never_active() {
        let a = act(
            r#"
subroutine t(n, c, x, y)
  integer, intent(in) :: n
  integer, intent(in) :: c(n)
  real, intent(in) :: x(n)
  real, intent(inout) :: y(n)
  integer :: i
  do i = 1, n
    y(c(i)) = x(c(i) + 7)
  end do
end subroutine
"#,
            &["x"],
            &["y"],
        );
        assert!(a.is_active("x"));
        assert!(a.is_active("y"));
        // The index array c feeds only addresses, not values.
        assert!(!a.is_active("c"));
        assert!(!a.varied.contains("c"));
    }

    #[test]
    fn index_use_does_not_propagate_value_activity() {
        // u's value feeds only an index: w = v(int(u)) is not expressible
        // in the language (indices are integer), so the closest case is an
        // active array used in an index-free rhs position only.
        let a = act(
            r#"
subroutine t(n, x, y, u)
  integer, intent(in) :: n
  real, intent(in) :: x(n)
  real, intent(inout) :: y(n)
  real, intent(in) :: u(n)
  integer :: i
  do i = 1, n
    y(i) = x(i)
  end do
end subroutine
"#,
            &["x"],
            &["y"],
        );
        assert!(!a.is_active("u"));
    }
}
