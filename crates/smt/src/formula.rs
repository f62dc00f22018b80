//! Row literals and the assertions built from them.
//!
//! The fragment FormAD asks about is fixed: every fact is one clause (a
//! disequality, or the disjunction `⋁ aₖ ≠ bₖ` of tuple disjointness) and
//! every query is one conjunction (`⋀ aₖ = bₖ`, tuple equality). An
//! [`Assertion`] is exactly one of the two, so it reaches the search as
//! clauses without any normal-form conversion.

use std::sync::Arc;

use crate::linexpr::LinExpr;

/// Relation of a literal `e ⋈ 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rel {
    /// `e = 0`.
    Eq,
    /// `e ≠ 0`.
    Ne,
    /// `e ≤ 0`.
    Le,
}

/// An atomic constraint `expr ⋈ 0` over integers.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Literal {
    pub rel: Rel,
    pub expr: LinExpr,
}

impl Literal {
    /// `a = b`.
    pub fn eq(a: LinExpr, b: LinExpr) -> Literal {
        Literal {
            rel: Rel::Eq,
            expr: a.sub(&b),
        }
    }

    /// `a ≠ b`.
    pub fn ne(a: LinExpr, b: LinExpr) -> Literal {
        Literal {
            rel: Rel::Ne,
            expr: a.sub(&b),
        }
    }

    /// `a ≤ b`.
    pub fn le(a: LinExpr, b: LinExpr) -> Literal {
        Literal {
            rel: Rel::Le,
            expr: a.sub(&b),
        }
    }

    /// `a < b` (integer-tightened to `a - b + 1 ≤ 0`).
    pub fn lt(a: LinExpr, b: LinExpr) -> Literal {
        let mut l = Literal::le(a, b);
        l.expr.constant += 1;
        l
    }

    /// Logical negation.
    pub fn negate(&self) -> Literal {
        match self.rel {
            Rel::Eq | Rel::Ne => Literal {
                rel: if self.rel == Rel::Eq {
                    Rel::Ne
                } else {
                    Rel::Eq
                },
                expr: self.expr.clone(),
            },
            // ¬(e ≤ 0) ⇔ e ≥ 1 ⇔ -e + 1 ≤ 0 (integers).
            Rel::Le => {
                let mut e = self.expr.scale(-1);
                e.constant += 1;
                Literal {
                    rel: Rel::Le,
                    expr: e,
                }
            }
        }
    }

    /// If the literal is ground (constant expression), evaluate it.
    pub fn const_value(&self) -> Option<bool> {
        if !self.expr.is_const() {
            return None;
        }
        let c = self.expr.constant;
        Some(match self.rel {
            Rel::Eq => c == 0,
            Rel::Ne => c != 0,
            Rel::Le => c <= 0,
        })
    }
}

/// One `assert`: a clause or a conjunction of row literals, with its
/// ground literals already decided. Clones share the literals, so a fact
/// asserted under many frames is stored once.
#[derive(Debug, Clone)]
pub struct Assertion {
    lits: Arc<[Literal]>,
    /// `true`: every literal is a clause of its own; `false`: the
    /// literals form one clause.
    conj: bool,
}

impl Assertion {
    /// The disjunction of `lits`. A ground-true literal satisfies it (no
    /// clause is left), ground-false ones drop out, and with none left it
    /// is the empty — unsatisfiable — clause.
    pub fn clause(lits: impl Into<Arc<[Literal]>>) -> Assertion {
        let lits = lits.into();
        if lits.iter().any(|l| l.const_value() == Some(true)) {
            return Assertion::all(Vec::new());
        }
        Assertion {
            lits: keep(lits, |l| l.const_value().is_none()),
            conj: false,
        }
    }

    /// The conjunction of `lits`. Ground-true literals drop out; a
    /// ground-false one stays as an empty clause.
    pub fn all(lits: impl Into<Arc<[Literal]>>) -> Assertion {
        Assertion {
            lits: keep(lits.into(), |l| l.const_value() != Some(true)),
            conj: true,
        }
    }

    /// Every literal, ground ones included.
    pub fn lits(&self) -> &[Literal] {
        &self.lits
    }

    /// The clauses, in order.
    pub fn clauses(&self) -> impl Iterator<Item = &[Literal]> {
        let (units, whole) = match self.conj {
            true => (&self.lits[..], None),
            false => (&[][..], Some(&self.lits[..])),
        };
        whole
            .into_iter()
            .chain(units.iter().map(|l| match l.expr.is_const() {
                true => &[][..],
                false => std::slice::from_ref(l),
            }))
    }
}

/// The literals `wanted` keeps, sharing `lits` when it keeps them all.
fn keep(lits: Arc<[Literal]>, wanted: impl Fn(&Literal) -> bool) -> Arc<[Literal]> {
    if lits.iter().all(&wanted) {
        return lits;
    }
    lits.iter().filter(|l| wanted(l)).cloned().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linexpr::AtomTable;

    fn sym(tab: &mut AtomTable, name: &str) -> LinExpr {
        LinExpr::atom(tab.sym(name))
    }

    fn shape(a: &Assertion) -> Vec<usize> {
        a.clauses().map(<[Literal]>::len).collect()
    }

    #[test]
    fn negate_le_is_integer_tight() {
        let mut tab = AtomTable::new();
        let x = sym(&mut tab, "x");
        let l = Literal::le(x, LinExpr::constant(0)); // x <= 0
        let n = l.negate(); // -x + 1 <= 0 i.e. x >= 1
        assert_eq!(n.rel, Rel::Le);
        assert_eq!(n.expr.constant, 1);
        assert_eq!(n.expr.terms[0].1, -1);
    }

    #[test]
    fn lt_tightens() {
        let mut tab = AtomTable::new();
        let x = sym(&mut tab, "x");
        let l = Literal::lt(x, LinExpr::constant(5)); // x < 5 -> x - 4 <= 0
        assert_eq!(l.expr.constant, -4);
    }

    #[test]
    fn tuple_ne_builds_disjunction() {
        let mut tab = AtomTable::new();
        let (a, b, c, d) = (
            sym(&mut tab, "a"),
            sym(&mut tab, "b"),
            sym(&mut tab, "c"),
            sym(&mut tab, "d"),
        );
        let f = Assertion::clause(vec![Literal::ne(a, c), Literal::ne(b, d)]);
        assert_eq!(shape(&f), [2]);
        assert!(f.clauses().flatten().all(|l| l.rel == Rel::Ne));
    }

    #[test]
    fn disjunction_of_literals_is_one_clause_either_way() {
        let mut tab = AtomTable::new();
        let zero = LinExpr::constant(0);
        let lits: Vec<Literal> = ["a", "b", "c"]
            .iter()
            .map(|n| Literal::ne(sym(&mut tab, n), zero.clone()))
            .collect();
        let f = Assertion::clause(lits.clone());
        assert_eq!(shape(&f), [3]);
        assert_eq!(f.clauses().next().unwrap(), &lits[..]);
        // The empty disjunction is the empty clause.
        assert_eq!(shape(&Assertion::clause(Vec::new())), [0]);
    }

    #[test]
    fn tuple_eq_builds_conjunction() {
        let mut tab = AtomTable::new();
        let (a, b, c, d) = (
            sym(&mut tab, "a"),
            sym(&mut tab, "b"),
            sym(&mut tab, "c"),
            sym(&mut tab, "d"),
        );
        let f = Assertion::all(vec![Literal::eq(a, c), Literal::eq(b, d)]);
        assert_eq!(shape(&f), [1, 1]);
    }

    #[test]
    fn ground_simplification() {
        let (zero, one) = (LinExpr::constant(0), LinExpr::constant(1));
        let x = sym(&mut AtomTable::new(), "x");
        let truth = Literal::eq(zero.clone(), zero.clone()); // 0 = 0
        let falsity = Literal::eq(one.clone(), zero.clone()); // 1 = 0
        let open = Literal::eq(x, zero);
        // A true conjunct drops; a false one stays as the empty clause.
        assert!(shape(&Assertion::all(vec![truth.clone()])).is_empty());
        let f = Assertion::all(vec![open.clone(), falsity.clone(), truth.clone()]);
        assert_eq!(shape(&f), [1, 0]);
        // A true disjunct satisfies the clause; false ones drop out.
        assert!(shape(&Assertion::clause(vec![open.clone(), truth])).is_empty());
        assert_eq!(shape(&Assertion::clause(vec![falsity.clone(), open])), [1]);
        assert_eq!(shape(&Assertion::clause(vec![falsity])), [0]);
    }

    #[test]
    fn not_pushes_through() {
        let mut tab = AtomTable::new();
        let a = sym(&mut tab, "a");
        let zero = LinExpr::constant(0);
        // ¬(a=0 ∧ a≤0) is the clause a≠0 ∨ a≥1.
        let conj = [Literal::eq(a.clone(), zero.clone()), Literal::le(a, zero)];
        let f = Assertion::clause(conj.iter().map(Literal::negate).collect::<Vec<_>>());
        assert_eq!(shape(&f), [2]);
        let lits = f.clauses().next().unwrap();
        assert_eq!((lits[0].rel, lits[1].rel), (Rel::Ne, Rel::Le));
        assert_eq!(lits[1].expr.constant, 1);
    }
}
