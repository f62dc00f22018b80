//! Property-based tests over the core substrates:
//!
//! - prover soundness against brute-force model enumeration;
//! - linear-normalization algebra;
//! - parser ⇄ printer round-trips on generated programs;
//! - adjoint correctness (dot-product test) on randomized parallel
//!   gather/scatter kernels across thread counts.
//!
//! Program/index/data inputs are drawn from `formad_fuzz::strategies` —
//! the same grammar the differential fuzzer uses — rather than
//! hand-rolled generators.

use formad_ad::{differentiate, AdjointOptions, IncMode, ParallelTreatment};
use formad_fuzz::strategies::{index_expr_src, permutation, program, real_vec};
use formad_fuzz::GenConfig;
use formad_ir::{parse_program, program_to_string, validate};
use formad_machine::{dot_product_test, Bindings, Machine};
use formad_smt::{brute, Formula, SatResult, Solver, Term};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Prover vs brute force.
// ---------------------------------------------------------------------

/// A random literal over a pool of three symbols: with up to six
/// literals among three symbols most draws interact (cycles, a
/// disequality cutting an equality chain), and the exhaustive oracle
/// below walks 43³ points per case, not 43⁴.
#[derive(Debug, Clone)]
enum RandLit {
    Eq(usize, usize, i64),
    Ne(usize, usize, i64),
    Le(usize, usize, i64),
}

fn rand_lit() -> impl Strategy<Value = RandLit> {
    (0usize..3, 0usize..3, -3i64..=3, 0u8..3).prop_map(|(a, b, c, k)| match k {
        0 => RandLit::Eq(a, b, c),
        1 => RandLit::Ne(a, b, c),
        _ => RandLit::Le(a, b, c),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Whenever the solver says UNSAT, brute force over a domain box must
    /// find no model; whenever brute force finds a model, the solver must
    /// not claim UNSAT.
    #[test]
    fn solver_unsat_is_sound(lits in prop::collection::vec(rand_lit(), 1..7)) {
        let names = ["a", "b", "c"];
        let mut s = Solver::new();
        let mut formulas = Vec::new();
        for l in &lits {
            let (a, b, c, kind) = match l {
                RandLit::Eq(a, b, c) => (*a, *b, *c, 0),
                RandLit::Ne(a, b, c) => (*a, *b, *c, 1),
                RandLit::Le(a, b, c) => (*a, *b, *c, 2),
            };
            let lhs = Term::sym(names[a]);
            let rhs = Term::sym(names[b]) + Term::int(c);
            let f = match kind {
                0 => Formula::term_eq(&lhs, &rhs, &mut s.table).unwrap(),
                1 => Formula::term_ne(&lhs, &rhs, &mut s.table).unwrap(),
                _ => {
                    // lhs ≤ rhs as a literal.
                    let a = formad_smt::normalize(&lhs, &mut s.table).unwrap();
                    let b = formad_smt::normalize(&rhs, &mut s.table).unwrap();
                    Formula::Lit(formad_smt::Literal::le(a, b))
                }
            };
            s.assert(f.clone());
            formulas.push(f);
        }
        let verdict = s.check();
        // Domain box chosen wide enough that any satisfiable difference
        // system over constants |c| ≤ 3 with ≤ 6 literals has a model in
        // it (constants sum to ≤ 18).
        let brute_model = brute::find_model(&formulas, &s.table, -21, 21).unwrap();
        match verdict {
            SatResult::Unsat => prop_assert!(brute_model.is_none(),
                "solver UNSAT but model {brute_model:?} exists"),
            SatResult::Sat => prop_assert!(brute_model.is_some(),
                "solver SAT but brute force found nothing in the box"),
            SatResult::Unknown(_) => {}
        }
    }

    /// Linear normalization: (x + y) − y ≡ x for arbitrary small terms.
    #[test]
    fn normalization_cancels(coef in -5i64..=5, c in -10i64..=10) {
        let mut table = formad_smt::AtomTable::new();
        let x = Term::int(coef) * Term::sym("x") + Term::int(c);
        let y = Term::app("f", vec![Term::sym("y")]);
        let sum = x.clone() + y.clone() - y;
        let n1 = formad_smt::normalize(&sum, &mut table).unwrap();
        let n2 = formad_smt::normalize(&x, &mut table).unwrap();
        prop_assert_eq!(n1, n2);
    }
}

// ---------------------------------------------------------------------
// Parser ⇄ printer round-trip on generated programs.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// print(parse(src)) re-parses to a structurally identical program,
    /// for every index-expression shape the fuzzer grammar produces
    /// (affine, strided, reversed, folded, indirect).
    #[test]
    fn parse_print_roundtrip(e1 in index_expr_src(), e2 in index_expr_src()) {
        let src = format!(
            "subroutine t(n, u, v, c)\n  integer, intent(in) :: n\n  \
             real, intent(in) :: v(3 * n + 20)\n  real, intent(inout) :: u(3 * n + 20)\n  \
             integer, intent(in) :: c(n)\n  \
             integer :: i\n  !$omp parallel do shared(u, v, c)\n  do i = 1, n\n    \
             u(i) = u(i) + v({e1}) * v({e2})\n  end do\nend subroutine\n"
        );
        let p1 = parse_program(&src).expect("grammar index exprs always parse");
        let printed = program_to_string(&p1);
        let p2 = parse_program(&printed).expect("printed program must re-parse");
        prop_assert_eq!(p1, p2);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whole generated programs validate, and their printed form is a
    /// fixpoint of print ∘ parse. The comparison is on the printed
    /// string, not the AST: parsing normalizes some spellings (e.g.
    /// folding a negated literal), and the printed form is the one the
    /// fuzzer's round-trip oracle locks down.
    #[test]
    fn generated_program_print_fixpoint(p in program(GenConfig::default())) {
        prop_assert!(validate(&p).is_empty());
        let s1 = program_to_string(&p);
        let p2 = parse_program(&s1).expect("printed generated program re-parses");
        prop_assert_eq!(program_to_string(&p2), s1);
    }
}

// ---------------------------------------------------------------------
// Adjoint correctness on randomized gather/scatter kernels.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// For a random permutation gather, a random coefficient, and random
    /// data, all adjoint versions agree with finite differences at all
    /// thread counts. The permutation and the data vectors come from the
    /// fuzz-crate strategies (vectors are drawn at the maximum extent
    /// and truncated to the offset-dependent length).
    #[test]
    fn randomized_gather_adjoints(
        c in permutation(12),
        offset in 0i64..5,
        threads in 1usize..9,
        x0 in real_vec(16),
        y0 in real_vec(12),
        xd in real_vec(16),
        yd in real_vec(12),
    ) {
        let n = 12usize;
        let xlen = n + offset as usize;
        let src = format!(
            "subroutine g(n, x, y, c)\n  integer, intent(in) :: n\n  \
             real, intent(in) :: x(n + {off})\n  real, intent(inout) :: y(n)\n  \
             integer, intent(in) :: c(n)\n  integer :: i\n  \
             !$omp parallel do shared(x, y, c)\n  do i = 1, n\n    \
             y(c(i)) = y(c(i)) + 2.0 * x(c(i) + {off})\n  end do\nend subroutine\n",
            off = offset
        );
        let primal = parse_program(&src).unwrap();

        let base = Bindings::new()
            .int("n", n as i64)
            .int_array("c", c)
            .real_array("x", x0[..xlen].to_vec())
            .real_array("y", y0.clone());
        for tr in [
            ParallelTreatment::Uniform(IncMode::Plain),
            ParallelTreatment::Uniform(IncMode::Atomic),
            ParallelTreatment::Uniform(IncMode::Reduction),
        ] {
            let adj = differentiate(&primal, &AdjointOptions::new(&["x"], &["y"], tr))
                .unwrap()
                .program;
            let t = dot_product_test(
                &primal,
                &adj,
                &base,
                &[("x", xd[..xlen].to_vec())],
                &[("y", yd.clone())],
                &Machine::with_threads(threads),
                1e-6,
                "b",
            ).unwrap();
            prop_assert!(t.passes(1e-7), "rel error {}", t.rel_error);
        }
    }
}
