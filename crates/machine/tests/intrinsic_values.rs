//! Adjoints that read the value of a `tanh`, `exp` or `sqrt` call: the
//! forward sweep tapes the value where it keeps the assignment, and the
//! backward sweep evaluates the call once where the forward sweep drops
//! it. Under every parallel treatment, each such adjoint must agree with
//! finite differences and keep the determinism contract
//! (`formad_machine::differential`) on sim and AOT. Real `min` / `max`
//! follow one rule on both: `-0.0` below `+0.0`, and a
//! NaN operand yields the other operand.

use std::sync::Arc;

use formad::{Formad, FormadOptions};
use formad_ad::{differentiate, AdjointOptions, IncMode, ParallelTreatment};
use formad_ir::{parse_program, Program};
use formad_machine::{
    adjoint_bindings, check_cell, compile, dot_product_test, load_or_compile, lower, run, Bindings,
    EngineCache, Machine, NativeEngine,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `f` of an operand (`f` names its operand `@`) in a loop over `i` that
/// runs twice, parallel or not. `overwrite`: `y(i) = f(y(i)) + 0.5 *
/// x(i)`, which the forward sweep keeps; else `y(i) = f(x(i)) * x(i)`,
/// which it drops.
fn source(f: &str, parallel: bool, overwrite: bool) -> String {
    let pragma = if parallel {
        "!$omp parallel do shared(x, y)"
    } else {
        ""
    };
    let stmt = if overwrite {
        format!("y(i) = {} + 0.5 * x(i)", f.replace('@', "y(i)"))
    } else {
        format!("y(i) = {} * x(i)", f.replace('@', "x(i)"))
    };
    format!(
        "subroutine v(n, x, y)\n  integer, intent(in) :: n\n  real, intent(in) :: x(n)\n  \
         real, intent(inout) :: y(n)\n  integer :: i, rep\n  do rep = 1, 2\n    {pragma}\n    \
         do i = 1, n\n      {stmt}\n    end do\n  end do\nend subroutine\n"
    )
}

/// The FormAD adjoint and one per uniform treatment.
fn adjoints(primal: &Program) -> Vec<(&'static str, Program)> {
    let formad = Formad::new(FormadOptions::new(&["x"], &["y"]))
        .differentiate(primal)
        .expect("formad pipeline")
        .adjoint;
    let uniform = |tr| {
        differentiate(primal, &AdjointOptions::new(&["x"], &["y"], tr))
            .expect("differentiate")
            .program
    };
    vec![
        ("FormAD", formad),
        ("serial", uniform(ParallelTreatment::Serial)),
        (
            "atomic",
            uniform(ParallelTreatment::Uniform(IncMode::Atomic)),
        ),
        (
            "reduction",
            uniform(ParallelTreatment::Uniform(IncMode::Reduction)),
        ),
        (
            "transposed",
            uniform(ParallelTreatment::Uniform(IncMode::Transposed)),
        ),
    ]
}

#[test]
fn value_adjoints_pass_the_dot_test_and_agree_across_backends() {
    let n = 24;
    let mut rng = StdRng::seed_from_u64(0x7A4E);
    let positive = |rng: &mut StdRng| (0..n).map(|_| rng.gen_range(0.5..1.5)).collect();
    let mut engines = EngineCache::new();
    // The nested call tapes two values per element, popped in reverse.
    for f in ["tanh(@)", "exp(@)", "sqrt(@)", "tanh(exp(@) * 0.5)"] {
        for parallel in [true, false] {
            for overwrite in [true, false] {
                let primal = parse_program(&source(f, parallel, overwrite)).unwrap();
                let base = Bindings::new()
                    .int("n", n as i64)
                    .real_array("x", positive(&mut rng))
                    .real_array("y", positive(&mut rng));
                let dx: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let wy: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let bind = adjoint_bindings(&primal, &base, &["x"], &["y"]);
                for (label, adj) in adjoints(&primal) {
                    let at = format!("{f} parallel={parallel} overwrite={overwrite} {label}");
                    let t = dot_product_test(
                        &primal,
                        &adj,
                        &base,
                        &[("x", dx.clone())],
                        &[("y", wy.clone())],
                        &Machine::with_threads(3),
                        1e-6,
                        "b",
                    )
                    .unwrap_or_else(|e| panic!("{at}: {e}"));
                    assert!(
                        t.passes(1e-6),
                        "{at}: fd={} adj={} rel={}",
                        t.fd_value,
                        t.adjoint_value,
                        t.rel_error
                    );
                    let lp = lower(&adj, &bind).unwrap_or_else(|e| panic!("{at}: {e}"));
                    let bc = compile(&lp, &adj).unwrap_or_else(|e| panic!("{at}: {e}"));
                    let kernel = (bc.region_count() > 0).then(|| {
                        load_or_compile(&lp, &bc)
                            .unwrap_or_else(|e| panic!("{at}: AOT must build in-tree: {e}"))
                    });
                    for threads in [1, 4] {
                        let kernel = kernel.as_ref().map(Arc::as_ref);
                        check_cell(&mut engines, &adj, &bc, kernel, &bind, threads)
                            .unwrap_or_else(|e| panic!("{at} T={threads}: {e}"));
                    }
                }
            }
        }
    }
}

#[test]
fn real_min_max_break_ties_by_the_rule_on_every_backend() {
    let nan = |payload: u64| f64::from_bits(0x7ff8_0000_0000_0000 | payload);
    // (a, b, min(a, b), max(a, b)): `±0` ties in both operand orders, a
    // NaN on either side, and two NaNs (the first operand's payload).
    let cases = [
        (0.0, -0.0, -0.0, 0.0),
        (-0.0, 0.0, -0.0, 0.0),
        (0.0, 0.0, 0.0, 0.0),
        (-0.0, -0.0, -0.0, -0.0),
        (nan(1), 1.5, 1.5, 1.5),
        (1.5, nan(2), 1.5, 1.5),
        (nan(3), -0.0, -0.0, -0.0),
        (0.0, nan(4), 0.0, 0.0),
        (nan(5), nan(6), nan(5), nan(5)),
        (-2.0, 3.0, -2.0, 3.0),
    ];
    let src = "subroutine mm(n, a, b, y, z)\n  integer, intent(in) :: n\n  \
               real, intent(in) :: a(n), b(n)\n  real, intent(inout) :: y(n), z(n)\n  \
               integer :: i\n  !$omp parallel do shared(a, b, y, z)\n  do i = 1, n\n    \
               y(i) = min(a(i), b(i))\n    z(i) = max(a(i), b(i))\n  end do\nend subroutine\n";
    let p = parse_program(src).unwrap();
    let col = |k: usize| {
        cases
            .iter()
            .map(|c| [c.0, c.1, c.2, c.3][k])
            .collect::<Vec<f64>>()
    };
    let bind = Bindings::new()
        .int("n", cases.len() as i64)
        .real_array("a", col(0))
        .real_array("b", col(1))
        .real_array("y", vec![7.0; cases.len()])
        .real_array("z", vec![7.0; cases.len()]);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    let lp = lower(&p, &bind).unwrap();
    let bc = compile(&lp, &p).unwrap();
    let kernel = load_or_compile(&lp, &bc).expect("AOT must build in-tree");
    for threads in [1, 2] {
        let mut engine = NativeEngine::with_os_threads(threads, threads);
        for backend in ["sim", "aot"] {
            let mut out = bind.clone();
            match backend {
                "sim" => run(&p, &mut out, &Machine::with_threads(threads)).map(drop),
                _ => engine.run_with(&bc, Some(&kernel), &mut out),
            }
            .unwrap_or_else(|e| panic!("{backend} T={threads}: {e}"));
            for (arr, k) in [("y", 2), ("z", 3)] {
                assert_eq!(
                    bits(&out.real_arrays[arr]),
                    bits(&col(k)),
                    "{backend} T={threads}: `{arr}`"
                );
            }
        }
    }
}
