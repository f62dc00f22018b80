//! Property: growing the work budget (or the deadline) is monotone.
//!
//! A definite verdict obtained under a small budget is never flipped by a
//! larger one — `Unsat` stays `Unsat`, `Sat` stays `Sat` — and `Unknown`
//! only ever resolves toward a definite answer. This is what makes the
//! escalating-retry ladder in `formad-core` sound: retrying with a larger
//! budget can only *improve* the answer.
//!
//! The guarantee falls out of determinism: the search explores the same
//! tree in the same order, and a budget counter only decides where the
//! exploration is cut short.

use proptest::prelude::*;

use formad_smt::{normalize, Formula, Literal, SatResult, Solver, SolverBudget, StopReason, Term};

/// A random conjunction of `=` / `≠` constraints between small linear
/// terms over a 4-symbol pool.
fn assert_constraints(s: &mut Solver, spec: &[(u8, u8, i8, bool)]) {
    const SYMS: [&str; 4] = ["a", "b", "c", "d"];
    for (l, r, off, eq) in spec {
        let lhs = Term::sym(SYMS[(*l % 4) as usize]);
        let rhs = Term::sym(SYMS[(*r % 4) as usize]) + Term::int(*off as i64);
        let f = if *eq {
            Formula::term_eq(&lhs, &rhs, &mut s.table).unwrap()
        } else {
            Formula::term_ne(&lhs, &rhs, &mut s.table).unwrap()
        };
        s.assert(f);
    }
}

fn check_under(spec: &[(u8, u8, i8, bool)], budget: SolverBudget) -> SatResult {
    let mut s = Solver::with_budget(budget);
    assert_constraints(&mut s, spec);
    s.check()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn definite_verdicts_survive_budget_growth(
        spec in prop::collection::vec(
            (0u8..4, 0u8..4, -3i8..=3, prop_oneof![Just(true), Just(false)]),
            1..8,
        ),
        lia in 1u64..40,
        branches in 1u64..12,
        factor in 2u64..64,
    ) {
        let small = SolverBudget {
            max_lia_calls: lia,
            max_branches: branches,
            ..SolverBudget::default()
        };
        let large = SolverBudget {
            max_lia_calls: lia.saturating_mul(factor),
            max_branches: branches.saturating_mul(factor),
            ..small
        };
        let r_small = check_under(&spec, small);
        let r_large = check_under(&spec, large);
        match r_small {
            SatResult::Sat | SatResult::Unsat => prop_assert_eq!(
                r_large, r_small,
                "definite verdict flipped under larger budget"
            ),
            SatResult::Unknown(_) => {
                // Unknown may resolve either way or stay Unknown; all are
                // legal. Nothing to assert beyond "no panic, no hang".
            }
        }
    }

    #[test]
    fn unlimited_budget_agrees_with_any_definite_small_verdict(
        spec in prop::collection::vec(
            (0u8..4, 0u8..4, -2i8..=2, prop_oneof![Just(true), Just(false)]),
            1..6,
        ),
        lia in 1u64..25,
    ) {
        let small = SolverBudget {
            max_lia_calls: lia,
            max_branches: 6,
            ..SolverBudget::default()
        };
        let r_small = check_under(&spec, small);
        let r_full = check_under(&spec, SolverBudget::default());
        prop_assert!(!r_full.is_unknown(), "default budget too small for tiny spec");
        if let SatResult::Sat | SatResult::Unsat = r_small {
            prop_assert_eq!(r_small, r_full);
        }
    }
}

/// `(x ≤ y − a ∨ y ≤ x − 2) ∧ (y ≤ z ∨ z ≤ y − 2) ∧ (z ≤ x ∨ x ≤ z − 2)`:
/// nothing for presolve to fix, so the query reaches the probe. With
/// `a = 0` the probe's first picks are feasible; with `a = 1` they close
/// a cycle and only the splitter finds the model.
fn disjunctive_query(s: &mut Solver, a: i64) {
    let (x, y, z) = (Term::sym("x"), Term::sym("y"), Term::sym("z"));
    let mut le = |l: &Term, r: Term| {
        let l = normalize(l, &mut s.table).unwrap();
        let r = normalize(&r, &mut s.table).unwrap();
        Formula::Lit(Literal::le(l, r))
    };
    let clauses = [
        [
            le(&x, y.clone() - Term::int(a)),
            le(&y, x.clone() - Term::int(2)),
        ],
        [le(&y, z.clone()), le(&z, y.clone() - Term::int(2))],
        [le(&z, x.clone()), le(&x, z.clone() - Term::int(2))],
    ];
    for clause in clauses {
        s.assert(Formula::or(clause.to_vec()));
    }
}

/// The budget can run out *inside the probe*: that `Unknown` is the
/// answer (no splitter run behind it reaches a verdict a larger budget
/// would reach differently), and from the first definite verdict on,
/// every larger budget repeats it.
#[test]
fn an_unknown_probe_is_terminal_and_resolves_monotonically() {
    for a in [0, 1] {
        let run = |lia: u64, branches: u64| {
            let mut s = Solver::with_budget(SolverBudget {
                max_lia_calls: lia,
                max_branches: branches,
                ..SolverBudget::default()
            });
            disjunctive_query(&mut s, a);
            (s.check(), s.stats)
        };
        // One call pays for the level-0 check; the probe's own is refused.
        let (verdict, stats) = run(1, u64::MAX);
        assert_eq!(verdict, SatResult::Unknown(StopReason::Budget), "a={a}");
        assert_eq!(
            (stats.lia_calls, stats.branches, stats.conflicts),
            (1, 1, 0)
        );
        // So is the probe's branch node when no branch is allowed.
        assert_eq!(run(u64::MAX, 0).0, SatResult::Unknown(StopReason::Budget));

        let mut settled = None;
        for lia in 0..200 {
            let (verdict, _) = run(lia, u64::MAX);
            match (settled, verdict) {
                (None, SatResult::Unknown(_)) => {}
                (None, definite) => settled = Some(definite),
                (Some(before), now) => assert_eq!(now, before, "a={a} lia={lia}"),
            }
        }
        assert_eq!(settled, Some(SatResult::Sat), "a={a}");
    }
}
