//! Integer feasibility core for conjunctions of linear constraints.
//!
//! Decides (soundly, and for our fragment in practice exactly) whether a
//! conjunction of `e = 0` and `e ≤ 0` constraints over integer atoms has a
//! solution:
//!
//! 1. **Equality elimination**: each equality is GCD-normalized (if
//!    `gcd(coeffs) ∤ constant` → infeasible, which catches the stride/parity
//!    cases like `2k' − 2k = 1`), then used to eliminate one atom from every
//!    other row by integer cross-multiplication (multiplying inequalities by
//!    positive factors only, so direction is preserved and every derived row
//!    is a consequence of the originals — UNSAT answers are sound).
//! 2. **Fourier–Motzkin** on the remaining inequalities with integer
//!    tightening (divide by the coefficient GCD, floor the bound).
//!
//! FM decides rational feasibility exactly; a "feasible" verdict may still
//! be integer-infeasible in rare cases (no dark-shadow step), which the
//! caller treats as SAT — the conservative direction for FormAD (safeguards
//! are kept). An explicit work budget returns `Unknown` instead of blowing
//! up on adversarial inputs.

use crate::ctrl::{Governor, Interrupt, StopReason};
use crate::linexpr::{AtomId, LinExpr};

/// Outcome of a feasibility check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feasibility {
    /// A rational solution exists (almost always an integer one too).
    Feasible,
    /// No integer solution exists (proof by derivation — sound).
    Infeasible,
    /// Work budget or deadline tripped; treat as feasible
    /// for safety. The payload says which resource ran out.
    Unknown(StopReason),
}

impl Feasibility {
    /// True for any `Unknown`, regardless of reason.
    pub fn is_unknown(&self) -> bool {
        matches!(self, Feasibility::Unknown(_))
    }
}

/// Resource limits for the elimination.
#[derive(Debug, Clone, Copy)]
pub struct FmBudget {
    /// Maximum number of rows the FM step may create.
    pub max_rows: usize,
    /// Maximum absolute coefficient magnitude before giving up.
    pub max_coeff: i128,
}

impl Default for FmBudget {
    fn default() -> Self {
        FmBudget {
            max_rows: 4096,
            max_coeff: 1 << 96,
        }
    }
}

/// Decide feasibility of `∧ eqs = 0 ∧ ineqs ≤ 0` over the integers,
/// with no wall-clock bound (counters from `budget` still apply).
pub fn feasible(eqs: &[LinExpr], ineqs: &[LinExpr], budget: &FmBudget) -> Feasibility {
    let inert = Interrupt::none();
    let mut gov = Governor::new(&inert);
    feasible_paced(eqs, ineqs, budget, &mut gov)
}

/// Decide feasibility under a shared [`Governor`]: the elimination polls
/// it at pivot/row granularity and abandons the run with
/// `Unknown(Deadline)` as soon as it trips. The solver
/// threads one governor through all its feasibility calls so pacing is
/// shared across a whole `check()`.
pub fn feasible_paced(
    eqs: &[LinExpr],
    ineqs: &[LinExpr],
    budget: &FmBudget,
    gov: &mut Governor<'_>,
) -> Feasibility {
    let mut eqs: Vec<LinExpr> = eqs.to_vec();
    let mut ineqs: Vec<LinExpr> = ineqs.to_vec();

    // --- Phase 1: equality elimination -----------------------------------
    loop {
        if let Some(reason) = gov.poll() {
            return Feasibility::Unknown(reason);
        }
        // Normalize and screen all equalities (GCD test + constant rows).
        for e in eqs.iter_mut() {
            if e.is_const() {
                if e.constant != 0 {
                    return Feasibility::Infeasible;
                }
                continue;
            }
            let g = e.coeff_gcd();
            debug_assert!(g > 0);
            if e.constant % g != 0 {
                // GCD test: Σ c·x = -d with g | Σc·x but g ∤ d.
                return Feasibility::Infeasible;
            }
            if g > 1 {
                *e = LinExpr {
                    constant: e.constant / g,
                    terms: e.terms.iter().map(|(a, c)| (*a, c / g)).collect(),
                };
            }
        }
        // Remove trivial 0 = 0 rows.
        eqs.retain(|e| !e.is_const());

        // Pick a pivot: prefer a ±1 coefficient for a clean substitution.
        let mut pivot: Option<(usize, AtomId)> = None;
        'outer: for (row_idx, e) in eqs.iter().enumerate() {
            for (a, c) in &e.terms {
                if c.abs() == 1 {
                    pivot = Some((row_idx, *a));
                    break 'outer;
                }
            }
            if pivot.is_none() {
                pivot = Some((row_idx, e.terms[0].0));
            }
        }
        let Some((row_idx, atom)) = pivot else {
            break; // no equalities left
        };
        let pivot_row = eqs[row_idx].clone();
        let a = pivot_row.coeff(atom);
        debug_assert_ne!(a, 0);

        // Eliminate `atom` from every other row. For a target row with
        // coefficient b: new = |a|·row − sign(a)·b·pivot. The multiplier
        // |a| > 0 keeps inequality directions intact.
        let elim = |row: &LinExpr| -> LinExpr {
            let b = row.coeff(atom);
            if b == 0 {
                return row.clone();
            }
            let scaled = row.scale(a.abs());
            let k = if a > 0 { -b } else { b };
            scaled.add_scaled(&pivot_row, k)
        };
        for (k, e) in eqs.iter_mut().enumerate() {
            if k != row_idx {
                *e = elim(e);
            }
        }
        for e in ineqs.iter_mut() {
            *e = elim(e);
        }
        // The pivot equality defines `atom` (rationally); drop it. Any
        // integer solution of the original system satisfies all derived
        // rows, so an infeasibility found later is a sound refutation.
        eqs.remove(row_idx);

        if exceeds(&eqs, budget) || exceeds(&ineqs, budget) {
            return Feasibility::Unknown(StopReason::Budget);
        }
    }

    // --- Phase 2: Fourier–Motzkin on inequalities ------------------------
    // Tighten, screen constants.
    let mut rows: Vec<LinExpr> = Vec::with_capacity(ineqs.len());
    for e in ineqs {
        match tighten(&e) {
            Some(r) => {
                if r.is_const() {
                    if r.constant > 0 {
                        return Feasibility::Infeasible;
                    }
                } else {
                    rows.push(r);
                }
            }
            None => return Feasibility::Unknown(StopReason::Budget),
        }
    }

    loop {
        if let Some(reason) = gov.poll() {
            return Feasibility::Unknown(reason);
        }
        // Pick the atom whose elimination creates the fewest new rows.
        let mut best: Option<(AtomId, usize)> = None;
        {
            use std::collections::HashMap;
            let mut uppers: HashMap<AtomId, usize> = HashMap::new();
            let mut lowers: HashMap<AtomId, usize> = HashMap::new();
            for r in &rows {
                for (a, c) in &r.terms {
                    if *c > 0 {
                        *uppers.entry(*a).or_insert(0) += 1;
                    } else {
                        *lowers.entry(*a).or_insert(0) += 1;
                    }
                }
            }
            let atoms: std::collections::BTreeSet<AtomId> =
                rows.iter().flat_map(|r| r.atoms()).collect();
            for a in atoms {
                let u = uppers.get(&a).copied().unwrap_or(0);
                let l = lowers.get(&a).copied().unwrap_or(0);
                let cost = u * l;
                if best.map(|(_, c)| cost < c).unwrap_or(true) {
                    best = Some((a, cost));
                }
            }
        }
        let Some((atom, _)) = best else {
            // Only constant rows remain (already screened) → feasible.
            return Feasibility::Feasible;
        };

        let (with_up, rest): (Vec<LinExpr>, Vec<LinExpr>) =
            rows.into_iter().partition(|r| r.coeff(atom) > 0);
        let (with_lo, keep): (Vec<LinExpr>, Vec<LinExpr>) =
            rest.into_iter().partition(|r| r.coeff(atom) < 0);
        let mut next = keep;
        for u in &with_up {
            let a = u.coeff(atom); // a > 0
            if let Some(reason) = gov.poll() {
                return Feasibility::Unknown(reason);
            }
            for l in &with_lo {
                let b = -l.coeff(atom); // b > 0
                                        // b·u + a·l eliminates atom; both multipliers positive.
                let combined = u.scale(b).add_scaled(l, a);
                debug_assert_eq!(combined.coeff(atom), 0);
                match tighten(&combined) {
                    Some(r) => {
                        if r.is_const() {
                            if r.constant > 0 {
                                return Feasibility::Infeasible;
                            }
                        } else {
                            next.push(r);
                        }
                    }
                    None => return Feasibility::Unknown(StopReason::Budget),
                }
            }
        }
        if next.len() > budget.max_rows || exceeds(&next, budget) {
            return Feasibility::Unknown(StopReason::Budget);
        }
        rows = next;
    }
}

/// Divide a `e ≤ 0` row by the GCD of its coefficients, flooring the bound
/// (integer tightening). Returns `None` on coefficient overflow risk.
fn tighten(e: &LinExpr) -> Option<LinExpr> {
    if e.is_const() {
        return Some(e.clone());
    }
    let g = e.coeff_gcd();
    if g <= 1 {
        return Some(e.clone());
    }
    // Σ c·x + d ≤ 0  ⇔  Σ (c/g)·x ≤ -d/g  ⇒ (integers) Σ (c/g)·x ≤ ⌊-d/g⌋.
    let bound = (-e.constant).div_euclid(g);
    Some(LinExpr {
        constant: -bound,
        terms: e.terms.iter().map(|(a, c)| (*a, c / g)).collect(),
    })
}

fn exceeds(rows: &[LinExpr], budget: &FmBudget) -> bool {
    rows.iter().any(|r| {
        r.constant.abs() > budget.max_coeff
            || r.terms.iter().any(|(_, c)| c.abs() > budget.max_coeff)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linexpr::AtomTable;

    fn lin(table: &mut AtomTable, consts: i128, terms: &[(&str, i128)]) -> LinExpr {
        let mut e = LinExpr::constant(consts);
        for (name, c) in terms {
            let id = table.sym(name);
            e = e.add_scaled(&LinExpr::atom(id), *c);
        }
        e
    }

    fn check(eqs: &[LinExpr], ineqs: &[LinExpr]) -> Feasibility {
        feasible(eqs, ineqs, &FmBudget::default())
    }

    #[test]
    fn trivial_cases() {
        assert_eq!(check(&[], &[]), Feasibility::Feasible);
        assert_eq!(check(&[LinExpr::constant(1)], &[]), Feasibility::Infeasible);
        assert_eq!(check(&[], &[LinExpr::constant(1)]), Feasibility::Infeasible);
        assert_eq!(check(&[], &[LinExpr::constant(0)]), Feasibility::Feasible);
    }

    #[test]
    fn gcd_test_catches_parity() {
        let mut t = AtomTable::new();
        // 2k - 2k' = 1  →  infeasible over the integers.
        let e = lin(&mut t, -1, &[("k", 2), ("k'", -2)]);
        assert_eq!(check(&[e], &[]), Feasibility::Infeasible);
    }

    #[test]
    fn substitution_chain() {
        let mut t = AtomTable::new();
        // i = from + 2k, i' = from + 2k', i' - i - 1 = 0 → 2(k'-k) = 1.
        let e1 = lin(&mut t, 0, &[("i", 1), ("from", -1), ("k", -2)]);
        let e2 = lin(&mut t, 0, &[("i'", 1), ("from", -1), ("k'", -2)]);
        let e3 = lin(&mut t, -1, &[("i'", 1), ("i", -1)]);
        assert_eq!(check(&[e1, e2, e3], &[]), Feasibility::Infeasible);
    }

    #[test]
    fn equal_and_apart_contradiction() {
        let mut t = AtomTable::new();
        // x - y = 0 and x - y ≥ 1 (i.e. -(x-y)+1 ≤ 0).
        let eq = lin(&mut t, 0, &[("x", 1), ("y", -1)]);
        let ge = lin(&mut t, 1, &[("x", -1), ("y", 1)]);
        assert_eq!(check(&[eq], &[ge]), Feasibility::Infeasible);
    }

    #[test]
    fn fm_bounds_window() {
        let mut t = AtomTable::new();
        // 3 ≤ x ≤ 5 is feasible; 5 ≤ x ≤ 3 is not.
        let lo = lin(&mut t, 3, &[("x", -1)]); // 3 - x ≤ 0
        let hi = lin(&mut t, -5, &[("x", 1)]); // x - 5 ≤ 0
        assert_eq!(check(&[], &[lo.clone(), hi.clone()]), Feasibility::Feasible);
        let lo2 = lin(&mut t, 5, &[("x", -1)]);
        let hi2 = lin(&mut t, -3, &[("x", 1)]);
        assert_eq!(check(&[], &[lo2, hi2]), Feasibility::Infeasible);
    }

    #[test]
    fn integer_tightening_closes_gaps() {
        let mut t = AtomTable::new();
        // 2x ≥ 1 and 2x ≤ 1: rationally x = 1/2, integer infeasible.
        // Tightening: 2x ≥ 1 → x ≥ 1; 2x ≤ 1 → x ≤ 0.
        let ge = lin(&mut t, 1, &[("x", -2)]);
        let le = lin(&mut t, -1, &[("x", 2)]);
        assert_eq!(check(&[], &[ge, le]), Feasibility::Infeasible);
    }

    #[test]
    fn chained_eliminations() {
        let mut t = AtomTable::new();
        // x ≤ y, y ≤ z, z ≤ x - 1: infeasible cycle.
        let a = lin(&mut t, 0, &[("x", 1), ("y", -1)]);
        let b = lin(&mut t, 0, &[("y", 1), ("z", -1)]);
        let c = lin(&mut t, 1, &[("z", 1), ("x", -1)]);
        assert_eq!(check(&[], &[a, b, c]), Feasibility::Infeasible);
        // Same cycle without the -1 is feasible (all equal).
        let a = lin(&mut t, 0, &[("x", 1), ("y", -1)]);
        let b = lin(&mut t, 0, &[("y", 1), ("z", -1)]);
        let c = lin(&mut t, 0, &[("z", 1), ("x", -1)]);
        assert_eq!(check(&[], &[a, b, c]), Feasibility::Feasible);
    }

    #[test]
    fn non_unit_pivot_equalities() {
        let mut t = AtomTable::new();
        // 2x + 3y = 1, x = y  →  5y = 1 → infeasible (gcd 5 ∤ 1).
        let e1 = lin(&mut t, -1, &[("x", 2), ("y", 3)]);
        let e2 = lin(&mut t, 0, &[("x", 1), ("y", -1)]);
        assert_eq!(check(&[e1, e2], &[]), Feasibility::Infeasible);
        // 2x + 3y = 5, x = y  →  5y = 5 → y = 1 feasible.
        let e1 = lin(&mut t, -5, &[("x", 2), ("y", 3)]);
        let e2 = lin(&mut t, 0, &[("x", 1), ("y", -1)]);
        assert_eq!(check(&[e1, e2], &[]), Feasibility::Feasible);
    }

    #[test]
    fn mixed_equalities_and_inequalities() {
        let mut t = AtomTable::new();
        // x = 2y, x ≥ 3, x ≤ 3  →  2y = 3 infeasible.
        let eq = lin(&mut t, 0, &[("x", 1), ("y", -2)]);
        let ge = lin(&mut t, 3, &[("x", -1)]);
        let le = lin(&mut t, -3, &[("x", 1)]);
        assert_eq!(check(&[eq], &[ge, le]), Feasibility::Infeasible);
    }
}
