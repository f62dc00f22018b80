//! Equivalence wall for the allocation-free hot path: every shortcut the
//! pipeline takes must be indistinguishable from the long way round.
//!
//! * `Stmt::increment_parts` (borrowing) against the cloning
//!   `as_increment` it replaced, kept here as the reference.
//! * `differentiate_validated` (the pipeline hands over its validated
//!   primal and its `Activity`) against the public `differentiate`, for
//!   every parallel treatment.
//! * Regions that never need a transposition plan, and one that needs
//!   532 obligations of it, against the committed golden reports — the
//!   plan is now built only when an array's shared proof conflicts.

mod common;

use common::{analyze, golden, heavy, render, Heavy};
use formad::Decision;
use formad_ad::{
    differentiate, differentiate_validated, AdjointOptions, IncMode, ParallelTreatment,
};
use formad_analysis::Activity;
use formad_fuzz::harness::campaign_case;
use formad_fuzz::GenConfig;
use formad_ir::{program_to_string, BinOp, Expr, LValue, Program, Stmt};

const FUZZ_SEED: u64 = 14;
const FUZZ_CASES: u64 = 500;

fn fuzz_cases() -> Vec<Heavy> {
    let gen = GenConfig::default();
    (0..FUZZ_CASES)
        .map(|id| {
            let case = campaign_case(FUZZ_SEED, id, &gen);
            Heavy {
                name: format!("fuzz {FUZZ_SEED}/{id}"),
                golden: None,
                program: case.program.clone(),
                independents: case.wrt.clone(),
                dependents: case.of.clone(),
            }
        })
        .collect()
}

/// `Stmt::as_increment` as it was before `increment_parts` existed: the
/// lvalue is cloned into an expression to compare it, the addend is
/// deep-cloned.
fn reference_as_increment(s: &Stmt) -> Option<(&LValue, Expr)> {
    let Stmt::Assign { lhs, rhs } = s else {
        return None;
    };
    let lhs_expr = lhs.as_expr();
    let Expr::Binary {
        op: BinOp::Add,
        lhs: a,
        rhs: b,
    } = rhs
    else {
        return None;
    };
    let rest = if **a == lhs_expr {
        b
    } else if **b == lhs_expr {
        a
    } else {
        return None;
    };
    let mut refs_lhs = false;
    rest.walk(&mut |e| match (e, lhs) {
        (Expr::Var(n), LValue::Var(m)) if n == m => refs_lhs = true,
        (Expr::Index { array, .. }, LValue::Index { array: m, .. }) if array == m => {
            refs_lhs = true
        }
        _ => {}
    });
    if refs_lhs {
        None
    } else {
        Some((lhs, (**rest).clone()))
    }
}

/// Check both detectors on every statement of `p`; returns how many
/// statements were exact increments.
fn check_increment_detection(name: &str, p: &Program) -> usize {
    let mut increments = 0;
    p.walk_stmts(&mut |s| {
        let want = reference_as_increment(s);
        let parts = s.increment_parts();
        assert_eq!(
            parts.map(|(lhs, added)| (lhs, added.clone())),
            want,
            "{name}: increment_parts disagrees with the reference on {s:?}"
        );
        assert_eq!(
            s.as_increment(),
            want,
            "{name}: as_increment moved on {s:?}"
        );
        increments += usize::from(want.is_some());
    });
    increments
}

#[test]
fn increment_parts_matches_the_cloning_detector() {
    let v = Expr::var;
    let at = |a: &str, i: Expr| Expr::index(a, vec![i]);
    let hand = [
        // x = x + e, x = e + x
        Stmt::assign(LValue::var("x"), v("x") + v("e")),
        Stmt::assign(LValue::var("x"), v("e") + v("x")),
        // addend mentions x: not exact
        Stmt::assign(LValue::var("x"), v("x") + v("x") * v("e")),
        Stmt::assign(LValue::var("x"), v("x") + v("x")),
        // indexed, both orders; same array at another index in the addend
        Stmt::assign(LValue::index("u", vec![v("i")]), at("u", v("i")) + v("e")),
        Stmt::assign(LValue::index("u", vec![v("i")]), v("e") + at("u", v("i"))),
        Stmt::assign(
            LValue::index("u", vec![v("i")]),
            at("u", v("i")) + at("u", v("i") - Expr::int(1)),
        ),
        // the read is of another element, or of a scalar of the same name
        Stmt::assign(
            LValue::index("u", vec![v("i")]),
            at("u", v("i") + Expr::int(1)) + v("e"),
        ),
        Stmt::assign(LValue::index("u", vec![v("i")]), v("u") + v("e")),
        Stmt::assign(LValue::var("u"), at("u", v("i")) + v("e")),
        // not an addition at the root
        Stmt::assign(LValue::var("x"), v("x") - v("e")),
        Stmt::assign(LValue::var("x"), v("x") * v("e")),
        Stmt::assign(LValue::var("x"), (v("x") + v("e")) + v("f")),
        Stmt::assign(LValue::var("x"), v("e")),
        // not an assignment
        Stmt::AtomicAdd {
            lhs: LValue::var("x"),
            rhs: v("e"),
        },
        Stmt::Push(v("x")),
        Stmt::Pop(LValue::var("x")),
    ];
    let mut hand_program = Program::new("hand");
    hand_program.body = hand.to_vec();
    assert_eq!(check_increment_detection("hand", &hand_program), 4);

    // Fuzz-grammar primals, and their adjoints (which are mostly
    // increments, in both operand orders).
    let mut seen = 0;
    for case in fuzz_cases() {
        seen += check_increment_detection(&case.name, &case.program);
        let wrt: Vec<&str> = case.independents.iter().map(String::as_str).collect();
        let of: Vec<&str> = case.dependents.iter().map(String::as_str).collect();
        let opts = AdjointOptions::new(&wrt, &of, ParallelTreatment::Uniform(IncMode::Plain));
        if let Ok(adjoint) = differentiate(&case.program, &opts) {
            seen += check_increment_detection(&case.name, &adjoint.program);
        }
    }
    assert!(seen > 1000, "only {seen} increments in the fuzz corpus");
}

/// The paper's four program versions plus the two forced disciplines.
fn treatments(case: &Heavy) -> Vec<(&'static str, ParallelTreatment)> {
    vec![
        ("serial", ParallelTreatment::Serial),
        ("atomic", ParallelTreatment::Uniform(IncMode::Atomic)),
        ("reduction", ParallelTreatment::Uniform(IncMode::Reduction)),
        ("formad", analyze(case).plan),
        ("plain", ParallelTreatment::Uniform(IncMode::Plain)),
        (
            "transposed",
            ParallelTreatment::Uniform(IncMode::Transposed),
        ),
    ]
}

#[test]
fn differentiate_validated_prints_what_differentiate_prints() {
    let mut compared = 0;
    for case in heavy().into_iter().chain(fuzz_cases()) {
        let wrt: Vec<&str> = case.independents.iter().map(String::as_str).collect();
        let of: Vec<&str> = case.dependents.iter().map(String::as_str).collect();
        for (label, treatment) in treatments(&case) {
            let opts = AdjointOptions::new(&wrt, &of, treatment);
            let activity = Activity::analyze(&case.program, &opts.independents, &opts.dependents);
            // The statistics ride the comparison.
            let long = differentiate(&case.program, &opts);
            let short = differentiate_validated(&case.program, &opts, activity);
            assert_eq!(long, short, "{} [{label}]", case.name);
            assert_eq!(
                long.as_ref().map(|a| program_to_string(&a.program)),
                short.as_ref().map(|a| program_to_string(&a.program)),
                "{} [{label}]",
                case.name
            );
            compared += usize::from(long.is_ok());
        }
    }
    assert!(compared > 2000, "only {compared} adjoints compared");
}

#[test]
fn differentiate_validated_keeps_the_transformations_own_checks() {
    let case = &heavy()[0];
    let wrt: Vec<&str> = case.independents.iter().map(String::as_str).collect();
    let of: Vec<&str> = case.dependents.iter().map(String::as_str).collect();
    let activity =
        |o: &AdjointOptions| Activity::analyze(&case.program, &o.independents, &o.dependents);

    let unknown = AdjointOptions::new(&["nosuch"], &of, ParallelTreatment::Serial);
    let err = differentiate_validated(&case.program, &unknown, activity(&unknown)).unwrap_err();
    assert!(err.message.contains("nosuch"), "{err}");
    assert_eq!(Err(err), differentiate(&case.program, &unknown));

    let opts = AdjointOptions::new(&wrt, &of, ParallelTreatment::Serial);
    let mut taped = case.program.clone();
    taped.body.push(Stmt::Push(Expr::int(1)));
    let err = differentiate_validated(&taped, &opts, activity(&opts)).unwrap_err();
    assert!(err.message.contains("tape statements"), "{err}");
}

#[test]
fn lazy_transposition_plan_leaves_the_golden_reports_alone() {
    let suite = heavy();

    // Stencil r = 8: every array proves Shared, so no plan is ever built.
    let stencil8 = &suite[1];
    let analysis = analyze(stencil8);
    let decisions: Vec<&Decision> = analysis
        .regions
        .iter()
        .flat_map(|r| r.decisions.values())
        .collect();
    assert!(!decisions.is_empty());
    assert!(
        decisions.iter().all(|d| **d == Decision::Shared),
        "stencil 8: {decisions:?}"
    );
    assert_eq!(render(stencil8, &analysis), golden("stencil8"));

    // LBM-exec: the scatter conflicts, the plan is built in the conflict
    // arm and all 532 of its obligations are proved.
    let lbm_exec = suite.iter().find(|k| k.golden == Some("lbm_exec")).unwrap();
    let analysis = analyze(lbm_exec);
    let transposed: Vec<&String> = analysis
        .regions
        .iter()
        .flat_map(|r| r.decisions.values())
        .filter_map(|d| match d {
            Decision::Transposed(reason) => Some(reason),
            _ => None,
        })
        .collect();
    assert_eq!(transposed.len(), 1, "{transposed:?}");
    assert!(
        transposed[0].contains("532 disjointness obligations proved"),
        "{}",
        transposed[0]
    );
    assert_eq!(render(lbm_exec, &analysis), golden("lbm_exec"));
}
