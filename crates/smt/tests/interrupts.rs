//! Deadline and budget-escalation behavior of the solver.
//!
//! The degradation contract: a tripped resource governor yields
//! `Unknown(reason)` — never a wrong `Sat`/`Unsat`, never a hang — and
//! growing the budget can only move `Unknown` toward a definite answer,
//! never flip a definite answer.

use std::time::{Duration, Instant};

use formad_smt::{
    Assertion, Deadline, LinExpr, Literal, SatResult, Solver, SolverBudget, StopReason,
};

/// An UNSAT pigeonhole-style instance the splitter cannot solve quickly:
/// `n` 0/1 variables whose sum must exceed `n`. Every one of the `2^n`
/// branches must be refuted individually.
fn hard_unsat_instance(n: usize) -> Solver {
    let mut s = Solver::with_budget(SolverBudget {
        max_lia_calls: u64::MAX,
        max_branches: u64::MAX,
        ..SolverBudget::default()
    });
    let mut sum = LinExpr::constant(0);
    for i in 0..n {
        let x = LinExpr::atom(s.table.sym(&format!("x{i}")));
        s.assert(&Assertion::clause(vec![
            Literal::eq(x.clone(), LinExpr::constant(0)),
            Literal::eq(x.clone(), LinExpr::constant(1)),
        ]));
        sum = sum.add(&x);
    }
    // sum ≥ n + 1, impossible for 0/1 variables.
    let bound = LinExpr::constant(n as i128 + 1).sub(&sum);
    s.assert(&Assertion::all(vec![Literal::le(
        bound,
        LinExpr::constant(0),
    )]));
    s
}

#[test]
fn hard_query_respects_10ms_deadline() {
    let mut s = hard_unsat_instance(24);
    s.set_timeout(Some(Duration::from_millis(10)));
    let started = Instant::now();
    let r = s.check();
    let elapsed = started.elapsed();
    assert_eq!(r, SatResult::Unknown(StopReason::Deadline));
    assert_eq!(r.stop_reason(), Some(StopReason::Deadline));
    // Generous overshoot allowance for slow CI machines; the point is that
    // an exponential search was abandoned, not that the bound is tight.
    assert!(
        elapsed < Duration::from_secs(5),
        "deadline ignored: ran {elapsed:?}"
    );
    assert_eq!(s.stats.unknowns, 1);
    assert_eq!(s.stats.interrupts, 1);
}

#[test]
fn absolute_deadline_equivalent_to_timeout() {
    let mut s = hard_unsat_instance(24);
    s.set_deadline(Deadline::in_ms(10));
    assert_eq!(s.check(), SatResult::Unknown(StopReason::Deadline));
}

#[test]
fn expired_solver_still_answers_after_clearing_timeout() {
    // A tripped deadline must not poison the solver: clearing it restores
    // full service on the same assertion stack.
    let mut s = hard_unsat_instance(4);
    s.set_timeout(Some(Duration::ZERO));
    assert!(s.check().is_unknown());
    s.set_timeout(None);
    assert_eq!(s.check(), SatResult::Unsat);
}

#[test]
fn small_budget_returns_budget_unknown() {
    let mut s = hard_unsat_instance(16);
    s.set_budget(SolverBudget {
        max_lia_calls: 50,
        max_branches: 10,
        ..SolverBudget::default()
    });
    assert_eq!(s.check(), SatResult::Unknown(StopReason::Budget));
}

#[test]
fn budget_escalation_resolves_unknown_to_unsat() {
    // The retry ladder's premise: re-running the same query with larger
    // counters turns Unknown into the definite answer.
    let mut s = hard_unsat_instance(6);
    s.set_budget(SolverBudget {
        max_lia_calls: 20,
        max_branches: 4,
        ..SolverBudget::default()
    });
    assert_eq!(s.check(), SatResult::Unknown(StopReason::Budget));
    s.set_budget(SolverBudget::default());
    assert_eq!(s.check(), SatResult::Unsat);
}

#[test]
fn stats_merge_saturates() {
    use formad_smt::SolverStats;
    let mut a = SolverStats {
        checks: u64::MAX - 1,
        ..SolverStats::default()
    };
    let b = SolverStats {
        checks: 5,
        lia_calls: 7,
        ..SolverStats::default()
    };
    a.merge(&b);
    assert_eq!(a.checks, u64::MAX);
    assert_eq!(a.lia_calls, 7);
}
