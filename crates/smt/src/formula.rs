//! Literals, clauses, and formulas, with conversion to CNF.

use crate::linexpr::{AtomTable, LinExpr, NormalizeError};
use crate::term::Term;

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
        let mut e = a.sub(&b);
        e.constant += 1;
        Literal {
            rel: Rel::Le,
            expr: e,
        }
    }

    /// Logical negation.
    pub fn negate(&self) -> Literal {
        match self.rel {
            Rel::Eq => Literal {
                rel: Rel::Ne,
                expr: self.expr.clone(),
            },
            Rel::Ne => Literal {
                rel: Rel::Eq,
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

/// A formula over literals.
#[derive(Debug, Clone, PartialEq)]
pub enum Formula {
    Lit(Literal),
    And(Vec<Formula>),
    Or(Vec<Formula>),
    Not(Box<Formula>),
    True,
    False,
}

impl Formula {
    /// Conjunction helper.
    pub fn and(fs: Vec<Formula>) -> Formula {
        Formula::And(fs)
    }

    /// Disjunction helper.
    pub fn or(fs: Vec<Formula>) -> Formula {
        Formula::Or(fs)
    }

    /// Build `a = b` from terms, normalizing into the table.
    pub fn term_eq(a: &Term, b: &Term, table: &mut AtomTable) -> Result<Formula, NormalizeError> {
        let a = crate::linexpr::normalize(a, table)?;
        let b = crate::linexpr::normalize(b, table)?;
        Ok(Formula::Lit(Literal::eq(a, b)))
    }

    /// Build `a ≠ b` from terms.
    pub fn term_ne(a: &Term, b: &Term, table: &mut AtomTable) -> Result<Formula, NormalizeError> {
        let a = crate::linexpr::normalize(a, table)?;
        let b = crate::linexpr::normalize(b, table)?;
        Ok(Formula::Lit(Literal::ne(a, b)))
    }

    /// Tuple disjointness: `¬(a₁=b₁ ∧ … ∧ aₖ=bₖ)`, i.e. `⋁ aᵢ≠bᵢ`.
    /// This is the paper's "indices are disjoint" assertion generalized to
    /// multi-dimensional arrays.
    pub fn tuple_ne(
        a: &[Term],
        b: &[Term],
        table: &mut AtomTable,
    ) -> Result<Formula, NormalizeError> {
        let (mut na, mut nb) = (vec![None; a.len()], vec![None; b.len()]);
        Formula::tuple_ne_memo(a, &mut na, b, &mut nb, table)
    }

    /// Tuple equality: `a₁=b₁ ∧ … ∧ aₖ=bₖ` (used when *querying* whether two
    /// adjoint references can collide).
    pub fn tuple_eq(
        a: &[Term],
        b: &[Term],
        table: &mut AtomTable,
    ) -> Result<Formula, NormalizeError> {
        let (mut na, mut nb) = (vec![None; a.len()], vec![None; b.len()]);
        Formula::tuple_eq_memo(a, &mut na, b, &mut nb, table)
    }

    /// [`Formula::tuple_ne`] for a tuple that meets many others: `na` and
    /// `nb` run parallel to `a` and `b` and keep each element's normal
    /// form once it has been computed (`None` before). Elements are
    /// normalized in the order `tuple_ne` would, so the table interns the
    /// same atoms in the same order with or without the memo.
    pub fn tuple_ne_memo(
        a: &[Term],
        na: &mut [Option<LinExpr>],
        b: &[Term],
        nb: &mut [Option<LinExpr>],
        table: &mut AtomTable,
    ) -> Result<Formula, NormalizeError> {
        Ok(Formula::Or(tuple_lits(Rel::Ne, a, na, b, nb, table)?))
    }

    /// [`Formula::tuple_eq`] with the memo of [`Formula::tuple_ne_memo`].
    pub fn tuple_eq_memo(
        a: &[Term],
        na: &mut [Option<LinExpr>],
        b: &[Term],
        nb: &mut [Option<LinExpr>],
        table: &mut AtomTable,
    ) -> Result<Formula, NormalizeError> {
        Ok(Formula::And(tuple_lits(Rel::Eq, a, na, b, nb, table)?))
    }

    /// Negation-normal form (push `Not` to literals).
    fn nnf(self, negated: bool) -> Formula {
        match self {
            Formula::Lit(l) => {
                if negated {
                    Formula::Lit(l.negate())
                } else {
                    Formula::Lit(l)
                }
            }
            Formula::Not(f) => f.nnf(!negated),
            Formula::And(fs) => {
                let inner: Vec<Formula> = fs.into_iter().map(|f| f.nnf(negated)).collect();
                if negated {
                    Formula::Or(inner)
                } else {
                    Formula::And(inner)
                }
            }
            Formula::Or(fs) => {
                let inner: Vec<Formula> = fs.into_iter().map(|f| f.nnf(negated)).collect();
                if negated {
                    Formula::And(inner)
                } else {
                    Formula::Or(inner)
                }
            }
            Formula::True => {
                if negated {
                    Formula::False
                } else {
                    Formula::True
                }
            }
            Formula::False => {
                if negated {
                    Formula::True
                } else {
                    Formula::False
                }
            }
        }
    }

    /// Convert to CNF clauses (each clause a disjunction of literals).
    /// Distribution is naive; FormAD formulas are tiny (tuple arity ≤ 4).
    pub fn to_cnf(self) -> Vec<Clause> {
        let f = self.nnf(false);
        let mut clauses = cnf(f);
        // Drop trivially-true clauses, simplify ground literals.
        clauses.retain_mut(|c| {
            let mut keep = Vec::new();
            for lit in c.lits.drain(..) {
                match lit.const_value() {
                    Some(true) => return false, // clause satisfied
                    Some(false) => {}           // drop literal
                    None => keep.push(lit),
                }
            }
            c.lits = keep;
            true
        });
        clauses
    }
}

/// The literals `aᵢ - bᵢ ⋈ 0`, normalizing `aᵢ` then `bᵢ` where the memo
/// has no normal form yet.
fn tuple_lits(
    rel: Rel,
    a: &[Term],
    na: &mut [Option<LinExpr>],
    b: &[Term],
    nb: &mut [Option<LinExpr>],
    table: &mut AtomTable,
) -> Result<Vec<Formula>, NormalizeError> {
    assert_eq!(a.len(), b.len(), "tuple arity mismatch");
    fn normal<'m>(
        t: &Term,
        memo: &'m mut Option<LinExpr>,
        table: &mut AtomTable,
    ) -> Result<&'m LinExpr, NormalizeError> {
        if memo.is_none() {
            *memo = Some(crate::linexpr::normalize(t, table)?);
        }
        Ok(memo.as_ref().expect("just filled"))
    }
    let mut lits = Vec::with_capacity(a.len());
    for k in 0..a.len() {
        let x = normal(&a[k], &mut na[k], table)?;
        let y = normal(&b[k], &mut nb[k], table)?;
        lits.push(Formula::Lit(Literal {
            rel,
            expr: x.sub(y),
        }));
    }
    Ok(lits)
}

/// A disjunction of literals. The empty clause is unsatisfiable.
#[derive(Debug, Clone, PartialEq)]
pub struct Clause {
    pub lits: Vec<Literal>,
}

fn cnf(f: Formula) -> Vec<Clause> {
    match f {
        Formula::Lit(l) => vec![Clause { lits: vec![l] }],
        Formula::True => vec![],
        Formula::False => vec![Clause { lits: vec![] }],
        Formula::And(fs) => fs.into_iter().flat_map(cnf).collect(),
        Formula::Or(fs) if fs.iter().all(|f| matches!(f, Formula::Lit(_))) => {
            // A disjunction of literals (tuple disjointness) is its own
            // clause; the product below would rebuild it literal by literal.
            let lits = fs.into_iter().map(|f| match f {
                Formula::Lit(l) => l,
                _ => unreachable!("checked by the guard"),
            });
            vec![Clause {
                lits: lits.collect(),
            }]
        }
        Formula::Or(fs) => {
            // Cartesian product of the operands' clause sets.
            let mut acc: Vec<Clause> = vec![Clause { lits: vec![] }];
            for sub in fs {
                let sub_clauses = cnf(sub);
                let mut next = Vec::with_capacity(acc.len() * sub_clauses.len().max(1));
                if sub_clauses.is_empty() {
                    // OR with True = True: whole disjunction satisfied.
                    return vec![];
                }
                for a in &acc {
                    for s in &sub_clauses {
                        let mut lits = a.lits.clone();
                        lits.extend(s.lits.iter().cloned());
                        next.push(Clause { lits });
                    }
                }
                acc = next;
            }
            acc
        }
        Formula::Not(_) => unreachable!("nnf removed all Nots"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linexpr::AtomTable;
    use crate::term::Term;

    #[test]
    fn negate_le_is_integer_tight() {
        let mut tab = AtomTable::new();
        let x = crate::linexpr::normalize(&Term::sym("x"), &mut tab).unwrap();
        let l = Literal::le(x.clone(), LinExpr::constant(0)); // x <= 0
        let n = l.negate(); // -x + 1 <= 0 i.e. x >= 1
        assert_eq!(n.rel, Rel::Le);
        assert_eq!(n.expr.constant, 1);
        assert_eq!(n.expr.terms[0].1, -1);
    }

    #[test]
    fn lt_tightens() {
        let mut tab = AtomTable::new();
        let x = crate::linexpr::normalize(&Term::sym("x"), &mut tab).unwrap();
        let l = Literal::lt(x, LinExpr::constant(5)); // x < 5 -> x - 4 <= 0
        assert_eq!(l.expr.constant, -4);
    }

    #[test]
    fn tuple_ne_builds_disjunction() {
        let mut tab = AtomTable::new();
        let f = Formula::tuple_ne(
            &[Term::sym("a"), Term::sym("b")],
            &[Term::sym("c"), Term::sym("d")],
            &mut tab,
        )
        .unwrap();
        let clauses = f.to_cnf();
        assert_eq!(clauses.len(), 1);
        assert_eq!(clauses[0].lits.len(), 2);
        assert!(clauses[0].lits.iter().all(|l| l.rel == Rel::Ne));
    }

    #[test]
    fn memoized_tuples_build_the_same_formulas_and_table() {
        let c = |t: Term| Term::app("c", vec![t]);
        let tuples = [
            vec![Term::sym("i"), c(Term::sym("j")) + Term::int(1)],
            vec![c(Term::sym("i")), Term::sym("k") * Term::sym("j")],
            vec![Term::sym("j") - Term::int(2), c(c(Term::sym("i")))],
        ];
        // Plain: every pair normalizes both sides again.
        let mut plain_table = AtomTable::new();
        let mut plain = Vec::new();
        // Memoized: each tuple keeps its normal forms across pairs.
        let mut memo_table = AtomTable::new();
        let mut memo: Vec<Vec<Option<LinExpr>>> =
            tuples.iter().map(|t| vec![None; t.len()]).collect();
        let mut memoized = Vec::new();
        for a in 0..tuples.len() {
            for b in 0..tuples.len() {
                if a == b {
                    continue;
                }
                plain.push(Formula::tuple_ne(&tuples[a], &tuples[b], &mut plain_table).unwrap());
                plain.push(Formula::tuple_eq(&tuples[a], &tuples[b], &mut plain_table).unwrap());
                let (lo, hi) = memo.split_at_mut(a.max(b));
                let (na, nb) = if a < b {
                    (&mut lo[a], &mut hi[0])
                } else {
                    (&mut hi[0], &mut lo[b])
                };
                memoized.push(
                    Formula::tuple_ne_memo(&tuples[a], na, &tuples[b], nb, &mut memo_table)
                        .unwrap(),
                );
                memoized.push(
                    Formula::tuple_eq_memo(&tuples[a], na, &tuples[b], nb, &mut memo_table)
                        .unwrap(),
                );
            }
        }
        assert_eq!(plain, memoized);
        assert_eq!(plain_table.len(), memo_table.len());
        for k in 0..plain_table.len() as u32 {
            assert_eq!(
                plain_table.key(crate::linexpr::AtomId(k)),
                memo_table.key(crate::linexpr::AtomId(k)),
                "atom {k} interned in a different order"
            );
        }
    }

    #[test]
    fn disjunction_of_literals_is_one_clause_either_way() {
        let mut tab = AtomTable::new();
        let lit = |name: &str, tab: &mut AtomTable| {
            Formula::term_ne(&Term::sym(name), &Term::int(0), tab).unwrap()
        };
        let (a, b, c) = (lit("a", &mut tab), lit("b", &mut tab), lit("c", &mut tab));
        // All literals: the direct path. One nested `Or`: the product path.
        let flat = Formula::Or(vec![a.clone(), b.clone(), c.clone()]).to_cnf();
        let nested = Formula::Or(vec![a, Formula::Or(vec![b, c])]).to_cnf();
        assert_eq!(flat, nested);
        assert_eq!(flat.len(), 1);
        assert_eq!(flat[0].lits.len(), 3);
        assert_eq!(
            Formula::Or(Vec::new()).to_cnf(),
            vec![Clause { lits: vec![] }]
        );
    }

    #[test]
    fn tuple_eq_builds_conjunction() {
        let mut tab = AtomTable::new();
        let f = Formula::tuple_eq(
            &[Term::sym("a"), Term::sym("b")],
            &[Term::sym("c"), Term::sym("d")],
            &mut tab,
        )
        .unwrap();
        let clauses = f.to_cnf();
        assert_eq!(clauses.len(), 2);
        assert!(clauses.iter().all(|c| c.lits.len() == 1));
    }

    #[test]
    fn cnf_distributes_or_over_and() {
        let mut tab = AtomTable::new();
        let a = crate::linexpr::normalize(&Term::sym("a"), &mut tab).unwrap();
        let b = crate::linexpr::normalize(&Term::sym("b"), &mut tab).unwrap();
        let c = crate::linexpr::normalize(&Term::sym("c"), &mut tab).unwrap();
        let zero = LinExpr::constant(0);
        // a=0 ∨ (b=0 ∧ c=0)  →  (a=0 ∨ b=0) ∧ (a=0 ∨ c=0)
        let f = Formula::Or(vec![
            Formula::Lit(Literal::eq(a, zero.clone())),
            Formula::And(vec![
                Formula::Lit(Literal::eq(b, zero.clone())),
                Formula::Lit(Literal::eq(c, zero)),
            ]),
        ]);
        let clauses = f.to_cnf();
        assert_eq!(clauses.len(), 2);
        assert!(clauses.iter().all(|cl| cl.lits.len() == 2));
    }

    #[test]
    fn ground_simplification() {
        // 0 = 0 is true: clause drops entirely.
        let f = Formula::Lit(Literal::eq(LinExpr::constant(0), LinExpr::constant(0)));
        assert!(f.to_cnf().is_empty());
        // 1 = 0 is false: empty clause remains.
        let f = Formula::Lit(Literal::eq(LinExpr::constant(1), LinExpr::constant(0)));
        let c = f.to_cnf();
        assert_eq!(c.len(), 1);
        assert!(c[0].lits.is_empty());
    }

    #[test]
    fn not_pushes_through() {
        let mut tab = AtomTable::new();
        let a = crate::linexpr::normalize(&Term::sym("a"), &mut tab).unwrap();
        let zero = LinExpr::constant(0);
        // ¬(a=0 ∧ a≤0) → a≠0 ∨ a≥1
        let f = Formula::Not(Box::new(Formula::And(vec![
            Formula::Lit(Literal::eq(a.clone(), zero.clone())),
            Formula::Lit(Literal::le(a, zero)),
        ])));
        let clauses = f.to_cnf();
        assert_eq!(clauses.len(), 1);
        assert_eq!(clauses[0].lits.len(), 2);
    }
}
