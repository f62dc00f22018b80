//! End-to-end validation: reverse-mode transformation × interpreter ×
//! finite differences (dot-product test), across safeguard strategies and
//! thread counts.

use formad_ad::{differentiate, AdjointOptions, IncMode, ParallelTreatment};
use formad_ir::parse_program;
use formad_machine::{dot_product_test, Bindings, Machine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn rng() -> StdRng {
    StdRng::seed_from_u64(0x5EED_F0AD)
}

fn rand_vec(rng: &mut StdRng, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

/// Run the dot-product test for every parallel treatment and a few thread
/// counts; all must agree with finite differences and with each other.
fn check_all(
    src: &str,
    base: &Bindings,
    independents: &[(&str, Vec<f64>)],
    dependents: &[(&str, Vec<f64>)],
    tol: f64,
) {
    let primal = parse_program(src).unwrap();
    let treatments = [
        ("serial", ParallelTreatment::Serial),
        ("plain", ParallelTreatment::Uniform(IncMode::Plain)),
        ("atomic", ParallelTreatment::Uniform(IncMode::Atomic)),
        ("reduction", ParallelTreatment::Uniform(IncMode::Reduction)),
    ];
    for (tname, tr) in treatments {
        let indep_names: Vec<&str> = independents.iter().map(|(n, _)| *n).collect();
        let dep_names: Vec<&str> = dependents.iter().map(|(n, _)| *n).collect();
        let adj = differentiate(&primal, &AdjointOptions::new(&indep_names, &dep_names, tr))
            .unwrap_or_else(|e| panic!("differentiate failed ({tname}): {e}"))
            .program;
        for threads in [1usize, 3, 8] {
            let m = Machine::with_threads(threads);
            let t = dot_product_test(&primal, &adj, base, independents, dependents, &m, 1e-6, "b")
                .unwrap_or_else(|e| panic!("execution failed ({tname}, T={threads}): {e}"));
            assert!(
                t.passes(tol),
                "dot test failed ({tname}, T={threads}): fd={} adj={} rel={}",
                t.fd_value,
                t.adjoint_value,
                t.rel_error
            );
        }
    }
}

#[test]
fn linear_gather_scatter_fig2() {
    let src = r#"
subroutine fig2(n, x, y, c)
  integer, intent(in) :: n
  real, intent(in) :: x(n + 7)
  real, intent(inout) :: y(n)
  integer, intent(in) :: c(n)
  integer :: i
  !$omp parallel do shared(x, y, c)
  do i = 1, n
    y(c(i)) = x(c(i) + 7)
  end do
end subroutine
"#;
    let n = 12;
    let mut r = rng();
    // A permutation for c (correct parallelization requires disjoint writes).
    let mut c: Vec<i64> = (1..=n as i64).collect();
    for k in (1..c.len()).rev() {
        let j = r.gen_range(0..=k);
        c.swap(k, j);
    }
    let base = Bindings::new()
        .int("n", n as i64)
        .int_array("c", c)
        .real_array("x", rand_vec(&mut r, n + 7))
        .real_array("y", rand_vec(&mut r, n));
    let v = rand_vec(&mut r, n + 7);
    let w = rand_vec(&mut r, n);
    check_all(src, &base, &[("x", v)], &[("y", w)], 1e-6);
}

#[test]
fn nonlinear_overwrite_with_tape() {
    let src = r#"
subroutine nl(n, x, y)
  integer, intent(in) :: n
  real, intent(in) :: x(n)
  real, intent(inout) :: y(n)
  integer :: i
  !$omp parallel do shared(x, y)
  do i = 1, n
    y(i) = y(i) * y(i) + sin(x(i)) * x(i)
  end do
end subroutine
"#;
    let n = 10;
    let mut r = rng();
    let base = Bindings::new()
        .int("n", n as i64)
        .real_array("x", rand_vec(&mut r, n))
        .real_array("y", rand_vec(&mut r, n));
    let v = rand_vec(&mut r, n);
    let w = rand_vec(&mut r, n);
    check_all(src, &base, &[("x", v)], &[("y", w)], 1e-5);
}

#[test]
fn stride2_compact_stencil() {
    // The paper's §7.1 compact scheme (one sweep).
    let src = r#"
subroutine stencil(n, wl, wc, wr, uold, unew)
  integer, intent(in) :: n
  real, intent(in) :: wl, wc, wr
  real, intent(in) :: uold(n)
  real, intent(inout) :: unew(n)
  integer :: i, offset, from
  do offset = 0, 1
    from = 2 * 1 + offset
    !$omp parallel do shared(unew, uold)
    do i = from, n - 2, 2
      unew(i) = unew(i) + wl * uold(i - 1)
      unew(i) = unew(i) + wc * uold(i)
      unew(i - 1) = unew(i - 1) + wr * uold(i)
    end do
  end do
end subroutine
"#;
    let n = 24;
    let mut r = rng();
    let base = Bindings::new()
        .int("n", n as i64)
        .real("wl", 0.3)
        .real("wc", 0.5)
        .real("wr", 0.2)
        .real_array("uold", rand_vec(&mut r, n))
        .real_array("unew", rand_vec(&mut r, n));
    let v = rand_vec(&mut r, n);
    let w = rand_vec(&mut r, n);
    check_all(src, &base, &[("uold", v)], &[("unew", w)], 1e-6);
}

#[test]
fn branchy_guarded_updates() {
    let src = r#"
subroutine gg(n, e2n1, e2n2, dv, sij, grad)
  integer, intent(in) :: n
  integer, intent(in) :: e2n1(n), e2n2(n)
  real, intent(in) :: dv(n)
  real, intent(in) :: sij(n)
  real, intent(inout) :: grad(n)
  integer :: ie, i, j
  real :: dvface
  !$omp parallel do shared(dv, sij, grad, e2n1, e2n2) private(i, j, dvface)
  do ie = 1, n
    i = e2n1(ie)
    j = e2n2(ie)
    if (i .ne. j) then
      dvface = 0.5 * (dv(i) + dv(j))
      grad(i) = grad(i) + dvface * sij(ie)
      grad(j) = grad(j) - dvface * sij(ie)
    end if
  end do
end subroutine
"#;
    // A 1-color linear mesh: edge ie connects nodes ie and ie+1 would
    // conflict; use a striped pattern where writes are disjoint within the
    // single parallel loop: edge ie touches nodes ie and ie (self-loop)
    // for odd ie (no-op via the guard) and (ie, ie-1)… simpler: perfect
    // matching — edge ie connects nodes 2ie-1 and 2ie.
    let n = 8usize; // edges; nodes = 2n but declared n-sized arrays: use n edges over n nodes.
    let mut r = rng();
    let e1: Vec<i64> = (1..=n as i64).collect();
    let e2: Vec<i64> = (1..=n as i64)
        .map(|k| if k % 2 == 0 { k - 1 } else { k })
        .collect();
    // Edges with even ie connect (ie, ie-1); odd ie are self-loops that the
    // guard skips. Writes stay disjoint across iterations? Edge 2 touches
    // nodes {2,1}, edge 4 {4,3}, ... — disjoint. Self-loops write nothing.
    let base = Bindings::new()
        .int("n", n as i64)
        .int_array("e2n1", e1)
        .int_array("e2n2", e2)
        .real_array("dv", rand_vec(&mut r, n))
        .real_array("sij", rand_vec(&mut r, n))
        .real_array("grad", rand_vec(&mut r, n));
    let v = rand_vec(&mut r, n);
    let w = rand_vec(&mut r, n);
    check_all(src, &base, &[("dv", v)], &[("grad", w)], 1e-6);
}

#[test]
fn inner_sequential_loop_and_scalar_accumulator() {
    let src = r#"
subroutine inner(n, m, x, y)
  integer, intent(in) :: n, m
  real, intent(in) :: x(n, m)
  real, intent(inout) :: y(n)
  integer :: i, j
  real :: acc
  !$omp parallel do shared(x, y) private(j, acc)
  do i = 1, n
    acc = 0.0
    do j = 1, m
      acc = acc + x(i, j) * x(i, j)
    end do
    y(i) = y(i) + sqrt(acc + 1.0)
  end do
end subroutine
"#;
    let (n, m) = (6usize, 4usize);
    let mut r = rng();
    let base = Bindings::new()
        .int("n", n as i64)
        .int("m", m as i64)
        .real_array("x", rand_vec(&mut r, n * m))
        .real_array("y", rand_vec(&mut r, n));
    let v = rand_vec(&mut r, n * m);
    let w = rand_vec(&mut r, n);
    check_all(src, &base, &[("x", v)], &[("y", w)], 1e-5);
}

#[test]
fn multiple_sweeps_sequential_outer_loop() {
    let src = r#"
subroutine sweeps(n, k, x, y)
  integer, intent(in) :: n, k
  real, intent(in) :: x(n)
  real, intent(inout) :: y(n)
  integer :: s, i
  do s = 1, k
    !$omp parallel do shared(x, y)
    do i = 2, n - 1
      y(i) = y(i) + 0.25 * x(i) * y(i - 1)
    end do
  end do
end subroutine
"#;
    // Note: y(i-1) read while y(i) written — loop-carried in the parallel
    // loop! Make it correct: read x only.
    let src_fixed = src.replace(
        "y(i) = y(i) + 0.25 * x(i) * y(i - 1)",
        "y(i) = y(i) + 0.25 * x(i) * x(i - 1)",
    );
    let n = 12;
    let mut r = rng();
    let base = Bindings::new()
        .int("n", n as i64)
        .int("k", 3)
        .real_array("x", rand_vec(&mut r, n))
        .real_array("y", rand_vec(&mut r, n));
    let v = rand_vec(&mut r, n);
    let w = rand_vec(&mut r, n);
    check_all(&src_fixed, &base, &[("x", v)], &[("y", w)], 1e-6);
}

#[test]
fn adjoint_results_identical_across_thread_counts() {
    // Determinism: the adjoint values (not just dot products) must be
    // bitwise independent of the simulated thread count for plain mode.
    let src = r#"
subroutine det(n, x, y)
  integer, intent(in) :: n
  real, intent(in) :: x(n)
  real, intent(inout) :: y(n)
  integer :: i
  !$omp parallel do shared(x, y)
  do i = 1, n
    y(i) = y(i) + exp(x(i)) * 0.01
  end do
end subroutine
"#;
    let n = 9;
    let mut r = rng();
    let primal = parse_program(src).unwrap();
    let adj = differentiate(
        &primal,
        &AdjointOptions::new(&["x"], &["y"], ParallelTreatment::Uniform(IncMode::Plain)),
    )
    .unwrap()
    .program;
    let x = rand_vec(&mut r, n);
    let y = rand_vec(&mut r, n);
    let yb = rand_vec(&mut r, n);
    let mut results = Vec::new();
    for threads in [1usize, 2, 5, 9, 16] {
        let mut b = Bindings::new()
            .int("n", n as i64)
            .real_array("x", x.clone())
            .real_array("y", y.clone())
            .real_array("xb", vec![0.0; n])
            .real_array("yb", yb.clone());
        formad_machine::run(&adj, &mut b, &Machine::with_threads(threads)).unwrap();
        results.push(b.get_real_array("xb").unwrap().to_vec());
    }
    for r2 in &results[1..] {
        assert_eq!(&results[0], r2);
    }
}
