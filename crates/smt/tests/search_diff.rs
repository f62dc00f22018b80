//! Differential property tests of the SMT search.
//!
//! The default path (presolve, one lazy probe, then the splitter) must
//! answer exactly what the splitter alone answers over the flat clause
//! list: on every input where both return a definite verdict, the
//! verdicts are identical. Both are cross-validated against brute-force
//! model enumeration in the repo's one-directional contract (an `Unsat`
//! answer means no model exists anywhere; a model found by enumeration
//! forbids `Unsat`). One generator arm builds formulas that defeat the
//! probe on purpose, so the splitter behind it is exercised too.
//!
//! The second half is the wall around the frame-scoped presolve
//! snapshots: a framed `check()` must answer exactly what the same
//! assertions give a solver that has never seen a frame.

use std::panic::{catch_unwind, AssertUnwindSafe};

use formad_smt::{
    brute, normalize, AtomTable, ChaosConfig, ChaosSolver, Formula, LinExpr, Literal, SatResult,
    SearchCore, Solver, SolverApi, SolverStats, Term,
};
use proptest::prelude::*;

const SYMS: [&str; 3] = ["x", "y", "z"];

/// Spec of one literal: relation selector and `c0 + Σ coeffs·sym`.
type LitSpec = (u8, i64, [i64; 3]);
/// A formula is a conjunction of disjunctions of literal specs.
type FormulaSpec = Vec<Vec<LitSpec>>;

fn lin(table: &mut AtomTable, c0: i64, coeffs: &[i64; 3]) -> LinExpr {
    let mut e = LinExpr::constant(c0 as i128);
    for (k, c) in coeffs.iter().enumerate() {
        if *c != 0 {
            let id = table.sym(SYMS[k]);
            e = e.add_scaled(&LinExpr::atom(id), *c as i128);
        }
    }
    e
}

fn build_lit(table: &mut AtomTable, (rel, c0, coeffs): &LitSpec) -> Literal {
    let e = lin(table, *c0, coeffs);
    let zero = LinExpr::constant(0);
    match rel % 3 {
        0 => Literal::eq(e, zero),
        1 => Literal::ne(e, zero),
        _ => Literal::le(e, zero),
    }
}

fn build(table: &mut AtomTable, spec: &FormulaSpec) -> Vec<Formula> {
    spec.iter()
        .map(|clause| {
            Formula::or(
                clause
                    .iter()
                    .map(|l| Formula::Lit(build_lit(table, l)))
                    .collect(),
            )
        })
        .collect()
}

/// Solve `spec` from scratch under `core`.
fn run_core(core: SearchCore, spec: &FormulaSpec) -> (SatResult, SolverStats) {
    let mut s = Solver::new();
    s.set_search_core(core);
    for f in build(&mut s.table, spec) {
        s.assert(f);
    }
    (s.check(), s.stats)
}

fn lit_spec() -> impl Strategy<Value = LitSpec> {
    (0u8..3, -4i64..=4, [-2i64..=2, -2i64..=2, -2i64..=2])
}

/// Three clauses whose *first* literals close the cycle `x ≤ y − a`,
/// `y ≤ z − b`, `z ≤ x − c` with `a + b + c ≥ 1` — jointly infeasible,
/// so the probe's one pick set is refuted. Each clause's second literal
/// either tightens the first (`x ≤ y − a − k`, still on the cycle) or
/// escapes it (`y ≤ x − d`): the formula is satisfiable iff some clause
/// escapes, and then only a later combination is feasible.
#[derive(Debug, Clone)]
struct ProbeDefeater {
    /// `(offset of the first literal, escape?, k or d)` per clause.
    clauses: [(i64, bool, i64); 3],
}

impl ProbeDefeater {
    fn satisfiable(&self) -> bool {
        self.clauses.iter().any(|&(_, escape, _)| escape)
    }

    fn spec(&self) -> FormulaSpec {
        // Clause `k` orders symbol `k` below symbol `k + 1 (mod 3)`.
        (0..3)
            .map(|k| {
                let (offset, escape, step) = self.clauses[k];
                let mut forward = [0i64; 3];
                forward[k] = 1;
                forward[(k + 1) % 3] = -1;
                let backward = forward.map(|c| -c);
                let second = if escape {
                    (2, step, backward)
                } else {
                    (2, offset + step, forward)
                };
                vec![(2, offset, forward), second]
            })
            .collect()
    }
}

fn probe_defeater() -> impl Strategy<Value = ProbeDefeater> {
    // A step ≥ 2 keeps an escape from being the exact negation of its
    // first literal (`y ≤ x − 1` is `¬(x ≤ y)`: a tautology presolve drops).
    let clause = |min_offset: i64| (min_offset..3, prop_oneof![Just(true), Just(false)], 2i64..4);
    // The first offset is ≥ 1, so the cycle's offsets never sum to 0.
    (clause(1), clause(0), clause(0)).prop_map(|(a, b, c)| ProbeDefeater { clauses: [a, b, c] })
}

fn formula_spec() -> impl Strategy<Value = FormulaSpec> {
    let random = || prop::collection::vec(prop::collection::vec(lit_spec(), 1..4), 1..5);
    prop_oneof![
        random(),
        random(),
        random(),
        probe_defeater().prop_map(|d| d.spec()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Wherever both cores are definite, they agree.
    #[test]
    fn cores_agree_when_definite(spec in formula_spec()) {
        let (presolved, _) = run_core(SearchCore::Presolved, &spec);
        let (flat, _) = run_core(SearchCore::Flat, &spec);
        match (&presolved, &flat) {
            (SatResult::Unknown(_), _) | (_, SatResult::Unknown(_)) => {}
            _ => prop_assert_eq!(presolved, flat, "search cores diverged on {:?}", spec),
        }
    }

    /// `Unsat` is sound for both cores: brute-force enumeration over a
    /// box covering these coefficients must not find a model. Conversely
    /// a found model forbids `Unsat`.
    #[test]
    fn unsat_is_sound_against_brute(spec in formula_spec()) {
        let mut table = AtomTable::new();
        let formulas = build(&mut table, &spec);
        let model = brute::find_model(&formulas, &table, -8, 8).expect("no opaque atoms");
        for core in [SearchCore::Presolved, SearchCore::Flat] {
            let (r, _) = run_core(core, &spec);
            if r == SatResult::Unsat {
                prop_assert!(
                    model.is_none(),
                    "{core:?} refuted a formula with model {model:?}: {spec:?}"
                );
            }
        }
    }

    /// The defeater arm does what it says: presolve settles nothing, the
    /// probe is refuted (a conflict), the splitter behind it reaches the
    /// verdict the construction dictates, and the flat oracle and brute
    /// force agree with it.
    #[test]
    fn a_defeated_probe_falls_through_to_the_splitter(d in probe_defeater()) {
        let spec = d.spec();
        let expect = if d.satisfiable() { SatResult::Sat } else { SatResult::Unsat };
        let (verdict, stats) = run_core(SearchCore::Presolved, &spec);
        prop_assert_eq!(verdict, expect, "{:?}", d);
        prop_assert_eq!(stats.presolve_discharges, 0, "{:?}", d);
        prop_assert!(stats.conflicts >= 1, "probe not refuted on {:?}", d);
        prop_assert!(stats.branches >= 2, "splitter not entered on {:?}", d);
        prop_assert_eq!(run_core(SearchCore::Flat, &spec).0, expect, "{:?}", d);
        let mut table = AtomTable::new();
        let model = brute::find_model(&build(&mut table, &spec), &table, -8, 8)
            .expect("no opaque atoms");
        prop_assert_eq!(model.is_some(), d.satisfiable(), "{:?}", d);
    }
}

/// The seeded regression cases the proptests once minimized to — kept as
/// plain tests so they never rotate out of the corpus.
#[test]
fn pinned_core_agreement_cases() {
    let cases: Vec<FormulaSpec> = vec![
        // x = 0 ∧ x ≠ 0 (contradiction through presolve's fixed set).
        vec![vec![(0, 0, [1, 0, 0])], vec![(1, 0, [1, 0, 0])]],
        // (x ≤ 0 ∨ y ≤ 0) ∧ 1 - x ≤ 0 ∧ 1 - y ≤ 0 (forces a real split).
        vec![
            vec![(2, 0, [1, 0, 0]), (2, 0, [0, 1, 0])],
            vec![(2, 1, [-1, 0, 0])],
            vec![(2, 1, [0, -1, 0])],
        ],
        // 2x + 1 = 0 (parity/gcd discharge in presolve).
        vec![vec![(0, 1, [2, 0, 0])]],
        // x ∈ [0, 1] with both endpoints excluded: the disequality
        // approximation treats the nes independently, so both cores must
        // answer the same (spurious) Sat rather than diverge.
        vec![
            vec![(2, 0, [-1, 0, 0])],
            vec![(2, -1, [1, 0, 0])],
            vec![(1, 0, [1, 0, 0])],
            vec![(1, -1, [1, 0, 0])],
        ],
    ];
    for spec in &cases {
        let (presolved, _) = run_core(SearchCore::Presolved, spec);
        let (flat, _) = run_core(SearchCore::Flat, spec);
        assert_eq!(presolved, flat, "cores diverged on pinned case {spec:?}");
    }
}

/// The other way past the probe: a clause whose every literal an
/// earlier pick contradicts leaves the walk incomplete — no theory call
/// — and the splitter decides.
#[test]
fn an_incomplete_probe_falls_through_too() {
    // (x ≤ 0 ∨ y ≤ −5) ∧ (x ≥ 1 ∨ y ≤ 0) ∧ (x ≥ 1 ∨ y ≥ 1): the picks
    // `x ≤ 0`, `y ≤ 0` contradict both literals of the third clause.
    let spec: FormulaSpec = vec![
        vec![(2, 0, [1, 0, 0]), (2, 5, [0, 1, 0])],
        vec![(2, 1, [-1, 0, 0]), (2, 0, [0, 1, 0])],
        vec![(2, 1, [-1, 0, 0]), (2, 1, [0, -1, 0])],
    ];
    let (verdict, stats) = run_core(SearchCore::Presolved, &spec);
    assert_eq!(verdict, SatResult::Sat);
    assert_eq!(stats.presolve_discharges, 0);
    assert!(stats.branches >= 2, "splitter not entered: {stats:?}");
    assert_eq!(run_core(SearchCore::Flat, &spec).0, SatResult::Sat);
}

// ---------------------------------------------------------------------
// Frame-scoped presolve snapshots: a framed `check()` must answer exactly
// what the same assertions give a solver that has never seen a frame.
// ---------------------------------------------------------------------

/// Atoms of the script tests: plain symbols (linear, and strided through
/// even coefficients), uninterpreted applications over them, and the
/// `mod`/`div` opaque atoms — whatever can bind a symbol inside an opaque
/// key and so gate a substitution pivot.
fn pool(k: u8) -> Term {
    let (x, y, z) = (Term::sym("x"), Term::sym("y"), Term::sym("z"));
    match k % 7 {
        0 => x,
        1 => y,
        2 => z,
        3 => Term::app("c", vec![x]),
        4 => Term::app("c", vec![y + Term::int(1)]),
        5 => Term::Mod(Box::new(x), Box::new(Term::int(2))),
        _ => Term::Div(Box::new(y), Box::new(Term::int(2))),
    }
}

/// `(relation, constant, [(pool atom, coefficient)])`.
type ScriptLit = (u8, i64, Vec<(u8, i64)>);
/// One `assert`: a conjunction of disjunctions, i.e. one chunk that may
/// hold several clauses.
type ScriptFormula = Vec<Vec<ScriptLit>>;

#[derive(Debug, Clone)]
enum Op {
    Push,
    Pop,
    Assert(ScriptFormula),
    Check,
    Reset,
}

fn script_formula(table: &mut AtomTable, spec: &ScriptFormula) -> Formula {
    let lit = |table: &mut AtomTable, (rel, c0, terms): &ScriptLit| {
        let mut e = LinExpr::constant(*c0 as i128);
        for (atom, coeff) in terms {
            let a = normalize(&pool(*atom), table).expect("small terms");
            e = e.add_scaled(&a, *coeff as i128);
        }
        let zero = LinExpr::constant(0);
        Formula::Lit(match rel % 3 {
            0 => Literal::eq(e, zero),
            1 => Literal::ne(e, zero),
            _ => Literal::le(e, zero),
        })
    };
    Formula::and(
        spec.iter()
            .map(|clause| Formula::or(clause.iter().map(|l| lit(table, l)).collect()))
            .collect(),
    )
}

/// The same assertions, one `assert` each, on a solver without frames.
fn frameless(core: SearchCore, stack: &[Vec<ScriptFormula>]) -> Solver {
    let mut s = Solver::new();
    s.set_search_core(core);
    for spec in stack.iter().flatten() {
        let f = script_formula(&mut s.table, spec);
        s.assert(f);
    }
    s
}

/// Compare one framed verdict against (i) a frameless solver, (ii) the
/// flat oracle, (iii) brute force where it applies.
fn cross_check(framed: SatResult, stack: &[Vec<ScriptFormula>]) -> Result<(), String> {
    let fresh = frameless(SearchCore::Presolved, stack).check();
    if framed != fresh {
        return Err(format!(
            "framed {framed:?} but frameless {fresh:?} on {stack:?}"
        ));
    }
    let flat = frameless(SearchCore::Flat, stack).check();
    if !framed.is_unknown() && !flat.is_unknown() && framed != flat {
        return Err(format!("framed {framed:?} but flat {flat:?} on {stack:?}"));
    }
    let mut table = AtomTable::new();
    let formulas: Vec<Formula> = stack
        .iter()
        .flatten()
        .map(|spec| script_formula(&mut table, spec))
        .collect();
    // `Err` means an opaque atom is present: not enumerable.
    if let Ok(Some(model)) = brute::find_model(&formulas, &table, -6, 6) {
        if framed == SatResult::Unsat {
            return Err(format!("refuted a stack with model {model:?}: {stack:?}"));
        }
    }
    Ok(())
}

/// Run `ops` on one framed solver, cross-checking every `check()`.
fn run_script(ops: &[Op]) -> Result<(), String> {
    let mut solver = Solver::new();
    // `stack[l]` mirrors what frame level `l` holds.
    let mut stack: Vec<Vec<ScriptFormula>> = vec![Vec::new()];
    for op in ops {
        match op {
            Op::Push => {
                solver.push();
                stack.push(Vec::new());
            }
            Op::Pop => {
                if stack.len() > 1 {
                    solver.pop();
                    stack.pop();
                }
            }
            Op::Assert(spec) => {
                let f = script_formula(&mut solver.table, spec);
                solver.assert(f);
                stack.last_mut().expect("level 0").push(spec.clone());
            }
            Op::Check => cross_check(solver.check(), &stack)?,
            Op::Reset => {
                solver.reset_to_base();
                stack.truncate(1);
            }
        }
    }
    Ok(())
}

fn script_lit() -> impl Strategy<Value = ScriptLit> {
    (
        0u8..3,
        -3i64..=3,
        prop::collection::vec((0u8..7, -2i64..=2), 1..3),
    )
}

fn op() -> impl Strategy<Value = Op> {
    let formula = || prop::collection::vec(prop::collection::vec(script_lit(), 1..3), 1..3);
    prop_oneof![
        Just(Op::Push),
        Just(Op::Push),
        Just(Op::Pop),
        formula().prop_map(Op::Assert),
        formula().prop_map(Op::Assert),
        formula().prop_map(Op::Assert),
        Just(Op::Check),
        Just(Op::Check),
        Just(Op::Check),
        Just(Op::Reset),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every framed `check()` of a random push / assert / check / pop /
    /// reset script agrees with a frameless solver, with the
    /// flat oracle, and with brute force.
    #[test]
    fn framed_checks_match_frameless_solvers(ops in prop::collection::vec(op(), 4..28)) {
        if let Err(msg) = run_script(&ops) {
            prop_assert!(false, "{msg}\nscript: {ops:?}");
        }
    }
}

fn eq(a: &Term, b: &Term, s: &mut Solver) -> Formula {
    Formula::term_eq(a, b, &mut s.table).unwrap()
}

fn ne(a: &Term, b: &Term, s: &mut Solver) -> Formula {
    Formula::term_ne(a, b, &mut s.table).unwrap()
}

#[test]
fn free_atom_discharge_is_not_baked_into_the_snapshot() {
    // `x ≠ y` alone is discharged (both symbols occur once) — but only for
    // that query: the unit must still be there to contradict `x = y`.
    let (x, y) = (Term::sym("x"), Term::sym("y"));
    let mut s = Solver::new();
    let f = ne(&x, &y, &mut s);
    s.assert(f);
    assert_eq!(s.check(), SatResult::Sat);
    assert_eq!(s.stats.presolve_discharges, 1);
    let q = eq(&x, &y, &mut s);
    assert_eq!(s.check_with(q), SatResult::Unsat);
    assert_eq!(s.check(), SatResult::Sat);
    assert_eq!(s.stats.lia_calls, 0);
}

#[test]
fn delta_binding_a_recorded_pivot_rederives_the_prefix() {
    // The base `x = y + 1` is solved for `x` in its snapshot. A delta that
    // mentions `c(x)` makes `x` ineligible as a pivot: substituting it away
    // would cut the link congruence needs to see `c(x) = c(y + 1)`.
    let (x, y) = (Term::sym("x"), Term::sym("y"));
    let mut s = Solver::new();
    let base = eq(&x, &(y.clone() + Term::int(1)), &mut s);
    s.assert(base);
    assert_eq!(s.check(), SatResult::Sat);
    assert_eq!(s.stats.presolve_clauses, 1);
    let cx = Term::app("c", vec![x.clone()]);
    let cy1 = Term::app("c", vec![y.clone() + Term::int(1)]);
    let q = ne(&cx, &cy1, &mut s);
    assert_eq!(s.check_with(q), SatResult::Unsat);
    // The query re-derived the base clause along with its own.
    assert_eq!(s.stats.presolve_clauses, 3);
    // A delta that leaves the pivot alone extends the snapshot as is.
    let q = eq(&x, &y, &mut s);
    assert_eq!(s.check_with(q), SatResult::Unsat);
    assert_eq!(s.stats.presolve_clauses, 4);
}

/// A solver with `facts` disequalities `x ≠ y + k` under one frame.
fn solver_with_fact_frame(facts: i64) -> Solver {
    let (x, y) = (Term::sym("x"), Term::sym("y"));
    let mut s = Solver::new();
    s.push();
    for k in 1..=facts {
        let f = ne(&x, &(y.clone() + Term::int(k)), &mut s);
        s.assert(f);
    }
    s
}

fn offset_query(s: &mut Solver, k: i64) -> Formula {
    let (x, y) = (Term::sym("x"), Term::sym("y"));
    eq(&x, &(y + Term::int(k)), s)
}

#[test]
fn snapshot_survives_pop_and_dies_with_its_frame() {
    let mut s = solver_with_fact_frame(8);
    let q = offset_query(&mut s, 3);
    assert_eq!(s.check_with(q), SatResult::Unsat);
    assert_eq!(s.stats.presolve_clauses, 8 + 1);
    // pop + re-push: the fact frame's snapshot is reused, each query
    // costs its own clause.
    for k in [5, 8, 9] {
        let q = offset_query(&mut s, k);
        let expect = if k <= 8 {
            SatResult::Unsat
        } else {
            SatResult::Sat
        };
        assert_eq!(s.check_with(q), expect);
    }
    assert_eq!(s.stats.presolve_clauses, 8 + 4);
    // An assert into the covered frame drops its snapshot: the next check
    // canonicalizes that frame again (9 facts now) plus its query.
    let f = {
        let (x, y) = (Term::sym("x"), Term::sym("y"));
        ne(&x, &(y + Term::int(9)), &mut s)
    };
    s.assert(f);
    let q = offset_query(&mut s, 9);
    assert_eq!(s.check_with(q), SatResult::Unsat);
    assert_eq!(s.stats.presolve_clauses, 8 + 4 + 9 + 1);
    // Popping the frame itself leaves nothing to contradict.
    s.pop();
    let q = offset_query(&mut s, 3);
    assert_eq!(s.check_with(q), SatResult::Sat);
}

#[test]
fn reset_after_a_caught_panic_drops_every_snapshot() {
    // A fault stream whose second check panics and whose others do not.
    let quiet = |seed: u64| ChaosConfig {
        seed,
        panic_per_mille: 300,
        unknown_per_mille: 0,
        delay_per_mille: 0,
        delay: std::time::Duration::ZERO,
    };
    let panics = |seed: u64| -> Vec<bool> {
        let mut probe = ChaosSolver::new(quiet(seed));
        (0..3)
            .map(|_| catch_unwind(AssertUnwindSafe(|| probe.check())).is_err())
            .collect()
    };
    let seed = (0..10_000)
        .find(|&seed| panics(seed) == [false, true, false])
        .expect("some seed faults only the second check");

    let (x, y) = (Term::sym("x"), Term::sym("y"));
    let mut s = ChaosSolver::new(quiet(seed));
    for k in 1..=5 {
        let f = Formula::term_ne(&x, &(y.clone() + Term::int(k)), s.table_mut()).unwrap();
        s.assert(f);
    }
    assert_eq!(s.check(), SatResult::Sat);
    assert_eq!(s.stats().presolve_clauses, 5);
    // The faulting query leaves its frame open behind the panic.
    let q = Formula::term_eq(&x, &(y.clone() + Term::int(2)), s.table_mut()).unwrap();
    let outcome = catch_unwind(AssertUnwindSafe(|| s.check_with(q)));
    assert!(outcome.is_err());
    s.reset_to_base();
    // The base is presolved afresh, and answers as before.
    let q = Formula::term_eq(&x, &(y + Term::int(2)), s.table_mut()).unwrap();
    assert_eq!(s.check_with(q), SatResult::Unsat);
    assert_eq!(s.stats().presolve_clauses, 5 + 5 + 1);
}
