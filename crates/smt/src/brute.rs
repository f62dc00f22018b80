//! Brute-force model enumeration over small domains.
//!
//! Used by tests (including property tests) to cross-validate the solver:
//! whenever the solver answers `Unsat`, no assignment over any finite
//! domain may satisfy the assertions; whenever brute force finds a model,
//! the solver must not answer `Unsat`.
//!
//! It reads the same assertions the solver is given. Only free symbols
//! are enumerated; assertions containing opaque atoms (uninterpreted
//! applications etc.) are rejected since their semantics would need
//! function enumeration.

use std::collections::HashMap;

use crate::ctrl::Interrupt;
use crate::formula::{Assertion, Literal, Rel};
use crate::linexpr::{AtomKey, AtomTable, LinExpr};

/// A satisfying assignment, symbol name → value.
pub type Model = HashMap<String, i64>;

/// How many assignments are tried between interrupt checks.
const INTERRUPT_STRIDE: u64 = 4096;

/// Exhaustively search `lo..=hi` per symbol for a model of `assertions`.
/// Returns `Err` if a non-symbol atom appears, `Ok(None)` if no model
/// exists in the box, `Ok(Some(model))` otherwise.
pub fn find_model(
    assertions: &[Assertion],
    table: &AtomTable,
    lo: i64,
    hi: i64,
) -> Result<Option<Model>, String> {
    find_model_under(assertions, table, lo, hi, &Interrupt::none())
}

/// [`find_model`] under an [`Interrupt`] deadline, polled every
/// [`INTERRUPT_STRIDE`] assignments. A trip aborts the enumeration with
/// `Err("interrupted: ...")` — callers cross-validating against the solver
/// must then skip the comparison, not treat it as "no model".
pub fn find_model_under(
    assertions: &[Assertion],
    table: &AtomTable,
    lo: i64,
    hi: i64,
    interrupt: &Interrupt,
) -> Result<Option<Model>, String> {
    let clauses: Vec<&[Literal]> = assertions.iter().flat_map(Assertion::clauses).collect();

    // Collect atoms, reject opaque ones.
    let mut atoms: Vec<(u32, String)> = Vec::new();
    for c in &clauses {
        for l in c.iter() {
            for a in l.expr.atoms() {
                match table.key(a) {
                    AtomKey::Sym(sym) => {
                        if !atoms.iter().any(|(id, _)| *id == a.0) {
                            atoms.push((a.0, sym.to_string()));
                        }
                    }
                    other => return Err(format!("opaque atom {other:?} not enumerable")),
                }
            }
        }
    }

    let width = (hi - lo + 1) as u64;
    let n = atoms.len() as u32;
    let total = width.checked_pow(n).ok_or("domain too large")?;
    if total > 20_000_000 {
        return Err(format!("domain too large: {total} assignments"));
    }

    let mut values: HashMap<u32, i64> = HashMap::new();
    'outer: for k in 0..total {
        if k % INTERRUPT_STRIDE == 0 {
            if let Some(reason) = interrupt.tripped() {
                return Err(format!("interrupted: {reason}"));
            }
        }
        let mut rem = k;
        for (id, _) in &atoms {
            values.insert(*id, lo + (rem % width) as i64);
            rem /= width;
        }
        for c in &clauses {
            if !clause_holds(c, &values) {
                continue 'outer;
            }
        }
        let model = atoms
            .iter()
            .map(|(id, name)| (name.clone(), values[id]))
            .collect();
        return Ok(Some(model));
    }
    Ok(None)
}

fn clause_holds(c: &[Literal], values: &HashMap<u32, i64>) -> bool {
    c.iter().any(|l| lit_holds(l, values))
}

fn lit_holds(l: &Literal, values: &HashMap<u32, i64>) -> bool {
    let v = eval(&l.expr, values);
    match l.rel {
        Rel::Eq => v == 0,
        Rel::Ne => v != 0,
        Rel::Le => v <= 0,
    }
}

fn eval(e: &LinExpr, values: &HashMap<u32, i64>) -> i128 {
    let mut acc = e.constant;
    for (a, c) in &e.terms {
        acc += c * values[&a.0] as i128;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linexpr::LinExpr;
    use crate::solver::{SatResult, Solver};

    fn sym(table: &mut AtomTable, name: &str) -> LinExpr {
        LinExpr::atom(table.sym(name))
    }

    fn unit(lit: Literal) -> Assertion {
        Assertion::all(vec![lit])
    }

    #[test]
    fn finds_model_for_simple_system() {
        let mut table = AtomTable::new();
        let (x, y) = (sym(&mut table, "x"), sym(&mut table, "y"));
        let f1 = unit(Literal::ne(x.clone(), y.clone()));
        let f2 = unit(Literal::eq(x.add(&LinExpr::constant(1)), y));
        let m = find_model(&[f1, f2], &table, -2, 2).unwrap().unwrap();
        assert_eq!(m["y"], m["x"] + 1);
    }

    #[test]
    fn no_model_when_unsat() {
        let mut table = AtomTable::new();
        let (x, y) = (sym(&mut table, "x"), sym(&mut table, "y"));
        let f1 = unit(Literal::eq(x.clone(), y.clone()));
        let f2 = unit(Literal::ne(x, y));
        assert!(find_model(&[f1, f2], &table, -3, 3).unwrap().is_none());
    }

    #[test]
    fn opaque_atoms_rejected() {
        let mut table = AtomTable::new();
        let i = sym(&mut table, "i");
        let ci = table.app("c".into(), vec![i]);
        let f = unit(Literal::eq(ci, LinExpr::constant(0)));
        assert!(find_model(&[f], &table, 0, 1).is_err());
    }

    #[test]
    fn agreement_with_solver_on_small_instances() {
        // Cross-check: for a handful of hand-picked systems, solver UNSAT
        // must imply brute-force finds nothing.
        let cases: Vec<Vec<(&str, &str, bool)>> = vec![
            vec![("x", "y", true), ("x", "y", false)], // eq + ne → unsat
            vec![("x", "y", true), ("y", "z", true), ("x", "z", false)], // transitivity
            vec![("x", "y", false), ("y", "z", false)], // sat
        ];
        for case in cases {
            let mut s = Solver::new();
            let mut fs = Vec::new();
            for (a, b, eq) in case {
                let (a, b) = (sym(&mut s.table, a), sym(&mut s.table, b));
                let f = unit(if eq {
                    Literal::eq(a, b)
                } else {
                    Literal::ne(a, b)
                });
                s.assert(&f);
                fs.push(f);
            }
            let solver_result = s.check();
            let brute = find_model(&fs, &s.table, -2, 2).unwrap();
            if solver_result == SatResult::Unsat {
                assert!(brute.is_none(), "solver unsat but model found");
            }
            if brute.is_some() {
                assert_ne!(solver_result, SatResult::Unsat);
            }
        }
    }
}
