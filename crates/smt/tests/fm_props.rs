//! Property tests of the Fourier–Motzkin/Gauss feasibility core against
//! brute-force enumeration, plus regression cases for the congruence
//! (stride) reasoning the stencil proofs rely on.

use formad_smt::{feasible, AtomTable, Feasibility, FmBudget, LinExpr};
use proptest::prelude::*;

/// Build `c0 + Σ coeffs·x_k` over four symbols.
fn lin(table: &mut AtomTable, c0: i64, coeffs: &[i64; 4]) -> LinExpr {
    let names = ["a", "b", "c", "d"];
    let mut e = LinExpr::constant(c0 as i128);
    for (k, c) in coeffs.iter().enumerate() {
        if *c != 0 {
            let id = table.sym(names[k]);
            e = e.add_scaled(&LinExpr::atom(id), *c as i128);
        }
    }
    e
}

/// Brute-force integer feasibility over a box.
fn brute(eqs: &[(i64, [i64; 4])], ineqs: &[(i64, [i64; 4])], lo: i64, hi: i64) -> bool {
    for a in lo..=hi {
        for b in lo..=hi {
            for c in lo..=hi {
                for d in lo..=hi {
                    let v = [a, b, c, d];
                    let eval = |(c0, coeffs): &(i64, [i64; 4])| -> i64 {
                        c0 + coeffs.iter().zip(&v).map(|(x, y)| x * y).sum::<i64>()
                    };
                    if eqs.iter().all(|r| eval(r) == 0) && ineqs.iter().all(|r| eval(r) <= 0) {
                        return true;
                    }
                }
            }
        }
    }
    false
}

fn coeffs() -> impl Strategy<Value = [i64; 4]> {
    [-2i64..=2, -2i64..=2, -2i64..=2, -2i64..=2]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Infeasible verdicts are sound: no integer point in any box can
    /// satisfy a system the core refutes. Feasible verdicts on these
    /// small systems must have a witness in a modest box.
    #[test]
    fn fm_agrees_with_brute_force(
        eqs in prop::collection::vec((-4i64..=4, coeffs()), 0..3),
        ineqs in prop::collection::vec((-4i64..=4, coeffs()), 0..4),
    ) {
        let mut table = AtomTable::new();
        let leqs: Vec<LinExpr> = eqs.iter().map(|(c, cs)| lin(&mut table, *c, cs)).collect();
        let lineqs: Vec<LinExpr> = ineqs.iter().map(|(c, cs)| lin(&mut table, *c, cs)).collect();
        let verdict = feasible(&leqs, &lineqs, &FmBudget::default());
        // Coefficients |c| ≤ 2, constants |c0| ≤ 4, ≤ 6 rows: a rational
        // solution (if one exists) can be scaled into [-40, 40]; use a
        // smaller sound box for the integer check.
        let has_model = brute(&eqs, &ineqs, -12, 12);
        match verdict {
            Feasibility::Infeasible => prop_assert!(!has_model,
                "core says infeasible but a model exists"),
            Feasibility::Feasible | Feasibility::Unknown(_) => {
                // Feasible may be integer-infeasible in rare cases (no
                // dark shadow); only the reverse direction is load-bearing.
            }
        }
    }

    /// If brute force finds a model, the core must not refute.
    #[test]
    fn models_never_refuted(
        eqs in prop::collection::vec((-3i64..=3, coeffs()), 0..2),
        ineqs in prop::collection::vec((-3i64..=3, coeffs()), 0..3),
    ) {
        if !brute(&eqs, &ineqs, -6, 6) {
            return Ok(());
        }
        let mut table = AtomTable::new();
        let leqs: Vec<LinExpr> = eqs.iter().map(|(c, cs)| lin(&mut table, *c, cs)).collect();
        let lineqs: Vec<LinExpr> = ineqs.iter().map(|(c, cs)| lin(&mut table, *c, cs)).collect();
        prop_assert_ne!(
            feasible(&leqs, &lineqs, &FmBudget::default()),
            Feasibility::Infeasible
        );
    }

    /// Congruence soundness: `x = s·k + r`, `x = s·k' + r'` with
    /// `r ≢ r' (mod s)` is infeasible for every stride 2..=5.
    #[test]
    fn stride_congruence(s in 2i128..=5, r1 in 0i128..=4, r2 in 0i128..=4) {
        prop_assume!(r1 % s != r2 % s);
        let mut table = AtomTable::new();
        let x = table.sym("x");
        let k = table.sym("k");
        let kp = table.sym("k'");
        // x - s·k - r1 = 0  and  x - s·k' - r2 = 0.
        let e1 = LinExpr { constant: -r1, terms: vec![(x, 1), (k, -s)] };
        let e2 = LinExpr { constant: -r2, terms: vec![(x, 1), (kp, -s)] };
        let mut r = feasible(&[e1.clone(), e2.clone()], &[], &FmBudget::default());
        // Normalize term order (terms must be sorted by atom id).
        if r.is_unknown() {
            r = feasible(&[e2, e1], &[], &FmBudget::default());
        }
        prop_assert_eq!(r, Feasibility::Infeasible);
    }
}

/// `a = b`, asserted as a one-literal conjunction.
fn eq_unit(a: LinExpr, b: LinExpr) -> formad_smt::Assertion {
    formad_smt::Assertion::all(vec![formad_smt::Literal::eq(a, b)])
}

/// `a ≠ b`, asserted as a one-literal conjunction.
fn ne_unit(a: LinExpr, b: LinExpr) -> formad_smt::Assertion {
    formad_smt::Assertion::all(vec![formad_smt::Literal::ne(a, b)])
}

#[test]
fn push_pop_stack_depth_stress() {
    use formad_smt::{SatResult, Solver};
    let mut s = Solver::new();
    let x = LinExpr::atom(s.table.sym("x"));
    let y = LinExpr::atom(s.table.sym("y"));
    let offset = |d: i64| y.add(&LinExpr::constant(d as i128));
    s.assert(&ne_unit(x.clone(), y.clone()));
    // Nested pushes accumulate: x = y + d for d = 1..k are mutually
    // inconsistent, so everything from the second frame on is Unsat.
    for depth in 1..=10 {
        s.push();
        s.assert(&eq_unit(x.clone(), offset(depth)));
        let expect = if depth == 1 {
            SatResult::Sat
        } else {
            SatResult::Unsat
        };
        assert_eq!(s.check(), expect, "depth {depth}");
    }
    for _ in 0..10 {
        s.pop();
    }
    assert_eq!(s.check(), SatResult::Sat);
    assert_eq!(s.num_clauses(), 1);
    // Independent frames: push/check/pop leaves no residue.
    for depth in 0..10 {
        s.push();
        s.assert(&eq_unit(x.clone(), offset(depth)));
        let expect = if depth == 0 {
            SatResult::Unsat // contradicts x ≠ y
        } else {
            SatResult::Sat
        };
        assert_eq!(s.check(), expect, "independent frame {depth}");
        s.pop();
    }
}

#[test]
fn budget_exhaustion_returns_unknown_not_wrong() {
    use formad_smt::{SatResult, Solver, SolverBudget};
    let tiny = SolverBudget {
        max_lia_calls: 1,
        max_branches: 1,
        fm: FmBudget {
            max_rows: 2,
            max_coeff: 10,
        },
    };
    let mut s = Solver::with_budget(tiny);
    // A satisfiable system with several disequalities: with a starved
    // budget the solver may answer Unknown, but never Unsat.
    for k in 0..6 {
        let a = LinExpr::atom(s.table.sym(&format!("x{k}")));
        let b = LinExpr::atom(s.table.sym(&format!("x{}", k + 1)));
        s.assert(&ne_unit(a, b));
    }
    assert_ne!(s.check(), SatResult::Unsat);
}
