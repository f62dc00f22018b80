//! Statements, loops, and OpenMP-style parallel annotations.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use crate::expr::{BinOp, BoolExpr, Expr};
use crate::name::Name;

/// The left-hand side of an assignment.
#[derive(Debug, Clone, PartialEq)]
pub enum LValue {
    /// Scalar variable.
    Var(Name),
    /// Array element `array(indices...)`.
    Index { array: Name, indices: Arc<[Expr]> },
}

impl LValue {
    /// Scalar lvalue shorthand.
    pub fn var(name: impl Into<Name>) -> LValue {
        LValue::Var(name.into())
    }

    /// Array-element lvalue shorthand.
    pub fn index(array: impl Into<Name>, indices: impl Into<Arc<[Expr]>>) -> LValue {
        LValue::Index {
            array: array.into(),
            indices: indices.into(),
        }
    }

    /// The variable or array name being written.
    pub fn name(&self) -> &Name {
        match self {
            LValue::Var(n) => n,
            LValue::Index { array, .. } => array,
        }
    }

    /// The equivalent read expression.
    pub fn as_expr(&self) -> Expr {
        match self {
            LValue::Var(n) => Expr::Var(n.clone()),
            LValue::Index { array, indices } => Expr::Index {
                array: array.clone(),
                indices: indices.clone(),
            },
        }
    }

    /// True if `e` is the read of exactly this location, i.e.
    /// `*e == self.as_expr()` without building the expression.
    pub fn reads_as(&self, e: &Expr) -> bool {
        match (self, e) {
            (LValue::Var(n), Expr::Var(m)) => n == m,
            (
                LValue::Index { array, indices },
                Expr::Index {
                    array: a,
                    indices: ix,
                },
            ) => array == a && indices == ix,
            _ => false,
        }
    }

    /// Index expressions, empty for scalars.
    pub fn indices(&self) -> &[Expr] {
        match self {
            LValue::Var(_) => &[],
            LValue::Index { indices, .. } => indices,
        }
    }
}

/// Reduction operator for OpenMP `reduction(op: var)` clauses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RedOp {
    Add,
    Mul,
    Min,
    Max,
}

impl RedOp {
    /// Surface spelling inside a `reduction(...)` clause.
    pub fn symbol(self) -> &'static str {
        match self {
            RedOp::Add => "+",
            RedOp::Mul => "*",
            RedOp::Min => "min",
            RedOp::Max => "max",
        }
    }
}

/// OpenMP-style data-sharing annotations attached to a parallel `do` loop.
///
/// Equality and `Debug` see the clauses only, not [`ParallelInfo::proved`]
/// (an empty set prints nothing, a non-empty one prints as a fourth
/// field): the set is a permission the code generator may use, not part
/// of what the loop computes, and a print → parse round trip — which
/// drops it — gives back an equal tree.
#[derive(Clone, Default)]
pub struct ParallelInfo {
    /// Variables explicitly declared `shared(...)`.
    pub shared: Vec<Name>,
    /// Variables explicitly declared `private(...)`. The loop counter is
    /// implicitly private per the OpenMP standard and need not be listed.
    pub private: Vec<Name>,
    /// `reduction(op: var)` clauses.
    pub reductions: Vec<(RedOp, Name)>,
    /// Arrays whose every write in this loop a `Proved` disjointness
    /// verdict covers, so the generated kernel may access them with plain
    /// loads and stores. Empty by default and never printed or parsed:
    /// only an in-process analysis fills it (`SharedEngine::differentiate`
    /// in `formad-core`), so no program read from text carries a proof.
    pub proved: BTreeSet<Name>,
}

impl PartialEq for ParallelInfo {
    fn eq(&self, other: &ParallelInfo) -> bool {
        self.shared == other.shared
            && self.private == other.private
            && self.reductions == other.reductions
    }
}

impl fmt::Debug for ParallelInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("ParallelInfo");
        d.field("shared", &self.shared)
            .field("private", &self.private)
            .field("reductions", &self.reductions);
        if !self.proved.is_empty() {
            d.field("proved", &self.proved);
        }
        d.finish()
    }
}

impl ParallelInfo {
    /// True if `name` appears in any privatizing clause (private or
    /// reduction).
    pub fn is_privatized(&self, name: &str) -> bool {
        self.private.iter().any(|p| p == name) || self.reductions.iter().any(|(_, v)| v == name)
    }

    /// The refusal of the first name two `reduction` clauses share,
    /// naming both clauses. OpenMP allows a list item in one reduction
    /// clause of a construct; the validator and the lowering every
    /// backend goes through both refuse a second.
    pub fn duplicate_reduction(&self) -> Option<String> {
        let r = &self.reductions;
        r.iter().enumerate().find_map(|(k, (op, name))| {
            let (first, _) = r[..k].iter().find(|(_, v)| v == name)?;
            Some(format!(
                "`{name}` is named by two reduction clauses, `reduction({}: {name})` and \
                 `reduction({}: {name})`",
                first.symbol(),
                op.symbol()
            ))
        })
    }
}

/// A counted `do` loop, possibly a parallel one.
#[derive(Debug, Clone, PartialEq)]
pub struct ForLoop {
    /// Loop counter variable (integer).
    pub var: Name,
    /// Inclusive lower bound.
    pub lo: Expr,
    /// Inclusive upper bound.
    pub hi: Expr,
    /// Step; `IntLit(1)` for the common case. Negative steps iterate
    /// downwards (`do i = n, 1, -1`).
    pub step: Expr,
    /// Loop body.
    pub body: Vec<Stmt>,
    /// `Some` iff the loop carries a `!$omp parallel do` pragma.
    pub parallel: Option<ParallelInfo>,
}

impl ForLoop {
    /// True if this is a parallel loop.
    pub fn is_parallel(&self) -> bool {
        self.parallel.is_some()
    }
}

/// A statement of the loop language.
///
/// `Push`/`Pop`/`AtomicAssign` never appear in source programs; they are
/// produced by the reverse-mode transformation (`formad-ad`).
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `lhs = rhs`.
    Assign { lhs: LValue, rhs: Expr },
    /// Two-way conditional; `else_body` may be empty.
    If {
        cond: BoolExpr,
        then_body: Vec<Stmt>,
        else_body: Vec<Stmt>,
    },
    /// Counted loop.
    For(Box<ForLoop>),
    /// Push a value onto the (thread-local) tape. Generated by AD.
    Push(Expr),
    /// Pop the top tape value into `0:` the lvalue. Generated by AD.
    Pop(LValue),
    /// `lhs = lhs + rhs` executed atomically (OpenMP `!$omp atomic`).
    /// Generated by AD when FormAD cannot prove safety.
    AtomicAdd { lhs: LValue, rhs: Expr },
}

impl Stmt {
    /// Build a plain assignment.
    pub fn assign(lhs: LValue, rhs: Expr) -> Stmt {
        Stmt::Assign { lhs, rhs }
    }

    /// Build an increment `lhs = lhs + rhs`.
    pub fn increment(lhs: LValue, rhs: impl Into<Arc<Expr>>) -> Stmt {
        let read = lhs.as_expr();
        Stmt::Assign {
            lhs,
            rhs: Expr::binary(BinOp::Add, read, rhs),
        }
    }

    /// If this statement is an *exact increment* `x = x + e` (or `x = e + x`)
    /// where the lvalue `x` occurs exactly once in the rhs, return the
    /// added expression `e` (paper §5.4: the adjoint of an exact increment
    /// only reads the adjoint lvalue).
    pub fn as_increment(&self) -> Option<(&LValue, Expr)> {
        self.increment_parts()
            .map(|(lhs, added)| (lhs, added.clone()))
    }

    /// [`Stmt::as_increment`] without allocating: the lvalue and the added
    /// expression are borrowed from the statement. The form to use when
    /// only asking *whether* a statement is an exact increment, or which
    /// location it increments.
    pub fn increment_parts(&self) -> Option<(&LValue, &Expr)> {
        let Stmt::Assign { lhs, rhs } = self else {
            return None;
        };
        let Expr::Binary {
            op: BinOp::Add,
            lhs: a,
            rhs: b,
        } = rhs
        else {
            return None;
        };
        let rest = if lhs.reads_as(a) {
            b
        } else if lhs.reads_as(b) {
            a
        } else {
            return None;
        };
        // The remainder must not reference the same location again; a
        // conservative check on the array/var name is sufficient here.
        let mut refs_lhs = false;
        rest.walk(&mut |e| match (e, lhs) {
            (Expr::Var(n), LValue::Var(m)) if n == m => refs_lhs = true,
            (Expr::Index { array, .. }, LValue::Index { array: m, .. }) if array == m => {
                refs_lhs = true
            }
            _ => {}
        });
        (!refs_lhs).then_some((lhs, &**rest))
    }

    /// Visit all statements in this subtree, pre-order.
    pub fn walk(&self, f: &mut impl FnMut(&Stmt)) {
        f(self);
        match self {
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                for s in then_body.iter().chain(else_body) {
                    s.walk(f);
                }
            }
            Stmt::For(l) => {
                for s in &l.body {
                    s.walk(f);
                }
            }
            _ => {}
        }
    }

    /// Visit every arithmetic expression in this statement subtree.
    pub fn walk_exprs(&self, f: &mut impl FnMut(&Expr)) {
        match self {
            Stmt::Assign { lhs, rhs } | Stmt::AtomicAdd { lhs, rhs } => {
                for ix in lhs.indices() {
                    ix.walk(f);
                }
                rhs.walk(f);
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                cond.walk_exprs(f);
                for s in then_body.iter().chain(else_body) {
                    s.walk_exprs(f);
                }
            }
            Stmt::For(l) => {
                l.lo.walk(f);
                l.hi.walk(f);
                l.step.walk(f);
                for s in &l.body {
                    s.walk_exprs(f);
                }
            }
            Stmt::Push(e) => e.walk(f),
            Stmt::Pop(lv) => {
                for ix in lv.indices() {
                    ix.walk(f);
                }
            }
        }
    }
}

/// Count statements in a body, recursively (used for the `loc` column of
/// Table 1 and for reporting).
pub fn count_stmts(body: &[Stmt]) -> usize {
    let mut n = 0;
    for s in body {
        s.walk(&mut |_| n += 1);
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: &str) -> Expr {
        Expr::var(n)
    }

    #[test]
    fn increment_builder_and_detector_roundtrip() {
        let s = Stmt::increment(LValue::index("u", vec![v("i")]), v("a") * v("b"));
        let (lhs, added) = s.as_increment().expect("should detect increment");
        assert_eq!(lhs.name(), "u");
        assert_eq!(added, v("a") * v("b"));
    }

    #[test]
    fn increment_parts_borrows_what_as_increment_clones() {
        let s = Stmt::increment(LValue::index("u", vec![v("i")]), v("a") * v("b"));
        let (lhs, added) = s.increment_parts().expect("should detect increment");
        let Stmt::Assign { lhs: own_lhs, rhs } = &s else {
            unreachable!()
        };
        assert!(std::ptr::eq(lhs, own_lhs));
        let Expr::Binary { rhs: own_added, .. } = rhs else {
            unreachable!()
        };
        assert!(std::ptr::eq(added, &**own_added));
        assert_eq!(s.as_increment(), Some((lhs, added.clone())));
    }

    #[test]
    fn reads_as_is_structural_equality_with_the_read() {
        let scalar = LValue::var("u");
        let element = LValue::index("u", vec![v("i")]);
        for e in [
            v("u"),
            v("w"),
            Expr::index("u", vec![v("i")]),
            Expr::index("u", vec![v("j")]),
            Expr::index("u", vec![v("i"), v("i")]),
            v("u") + v("w"),
        ] {
            assert_eq!(scalar.reads_as(&e), e == scalar.as_expr(), "{e:?}");
            assert_eq!(element.reads_as(&e), e == element.as_expr(), "{e:?}");
        }
    }

    #[test]
    fn increment_detector_accepts_commuted_form() {
        // u(i) = a + u(i)
        let s = Stmt::assign(
            LValue::index("u", vec![v("i")]),
            v("a") + Expr::index("u", vec![v("i")]),
        );
        assert!(s.as_increment().is_some());
    }

    #[test]
    fn increment_detector_rejects_scaled_lhs() {
        // u(i) = 2*u(i) + a  — not an exact increment.
        let s = Stmt::assign(
            LValue::index("u", vec![v("i")]),
            Expr::int(2) * Expr::index("u", vec![v("i")]) + v("a"),
        );
        assert!(s.as_increment().is_none());
    }

    #[test]
    fn increment_detector_rejects_second_self_reference() {
        // u(i) = u(i) + u(i-1): adjoint must still write ub.
        let s = Stmt::assign(
            LValue::index("u", vec![v("i")]),
            Expr::index("u", vec![v("i")]) + Expr::index("u", vec![v("i") - Expr::int(1)]),
        );
        assert!(s.as_increment().is_none());
    }

    #[test]
    fn increment_detector_rejects_plain_assign() {
        let s = Stmt::assign(LValue::var("z"), v("x") * v("y"));
        assert!(s.as_increment().is_none());
    }

    #[test]
    fn count_stmts_recurses() {
        let inner = Stmt::assign(LValue::var("t"), v("x"));
        let loop_stmt = Stmt::For(Box::new(ForLoop {
            var: "i".into(),
            lo: Expr::int(1),
            hi: v("n"),
            step: Expr::int(1),
            body: vec![inner.clone(), inner],
            parallel: None,
        }));
        assert_eq!(count_stmts(&[loop_stmt]), 3);
    }

    #[test]
    fn parallel_info_privatized() {
        let p = ParallelInfo {
            shared: vec!["u".into()],
            private: vec!["t".into()],
            reductions: vec![(RedOp::Add, "s".into())],
            proved: BTreeSet::new(),
        };
        assert!(p.is_privatized("t"));
        assert!(p.is_privatized("s"));
        assert!(!p.is_privatized("u"));
    }

    #[test]
    fn lvalue_as_expr() {
        let lv = LValue::index("u", vec![v("i")]);
        assert_eq!(lv.as_expr(), Expr::index("u", vec![v("i")]));
        assert_eq!(lv.name(), "u");
        assert_eq!(lv.indices().len(), 1);
    }
}
