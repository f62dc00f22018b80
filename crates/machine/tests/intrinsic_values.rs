//! Adjoints that read the value of a `tanh`, `exp` or `sqrt` call: the
//! forward sweep tapes the value where it keeps the assignment, and the
//! backward sweep evaluates the call once where the forward sweep drops
//! it. Under every parallel treatment, each such adjoint must agree with
//! finite differences and keep the determinism contract
//! (`formad_machine::differential`) on sim, bytecode and AOT.

use std::sync::Arc;

use formad::{Formad, FormadOptions};
use formad_ad::{differentiate, AdjointOptions, IncMode, ParallelTreatment};
use formad_ir::{parse_program, Program};
use formad_machine::{
    adjoint_bindings, check_cell, compile, dot_product_test, load_or_compile, lower, Bindings,
    EngineCache, Machine,
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
                    let kernel = (!bc.regions.is_empty()).then(|| {
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
