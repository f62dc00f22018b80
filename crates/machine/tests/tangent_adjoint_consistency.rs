//! The classic AD consistency identity: for tangent `ẏ = J·ẋ` and adjoint
//! `x̄ = Jᵀ·ȳ`, the inner products `⟨ȳ, ẏ⟩` and `⟨x̄, ẋ⟩` must agree to
//! machine precision (no finite differences involved).

use formad_ad::{differentiate, differentiate_tangent, AdjointOptions, IncMode, ParallelTreatment};
use formad_ir::parse_program;
use formad_machine::{run, Bindings, Machine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn rv(rng: &mut StdRng, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

fn consistency(
    src: &str,
    base: &Bindings,
    indep: &[&str],
    dep: &[&str],
    xdot: &[(&str, Vec<f64>)],
    ybar: &[(&str, Vec<f64>)],
    threads: usize,
) {
    let primal = parse_program(src).unwrap();
    let opts = AdjointOptions::new(indep, dep, ParallelTreatment::Uniform(IncMode::Plain));
    let tangent = differentiate_tangent(&primal, &opts).unwrap();
    let adjoint = differentiate(&primal, &opts).unwrap().program;
    let m = Machine::with_threads(threads);

    // Tangent run: seed xd, read yd.
    let mut bt = base.clone();
    for (name, v) in xdot {
        bt.real_arrays.insert(format!("{name}d"), v.clone());
    }
    for (name, _) in ybar {
        bt.real_arrays.entry(format!("{name}d")).or_insert_with(|| {
            let len = base.get_real_array(name).unwrap().len();
            vec![0.0; len]
        });
    }
    run(&tangent, &mut bt, &m).unwrap();
    let mut lhs = 0.0;
    for (name, w) in ybar {
        let yd = bt.get_real_array(&format!("{name}d")).unwrap();
        lhs += yd.iter().zip(w).map(|(a, b)| a * b).sum::<f64>();
    }

    // Adjoint run: seed yb, read xb.
    let mut ba = base.clone();
    for (name, w) in ybar {
        ba.real_arrays.insert(format!("{name}b"), w.clone());
    }
    for (name, _) in xdot {
        ba.real_arrays.entry(format!("{name}b")).or_insert_with(|| {
            let len = base.get_real_array(name).unwrap().len();
            vec![0.0; len]
        });
    }
    run(&adjoint, &mut ba, &m).unwrap();
    let mut rhs = 0.0;
    for (name, v) in xdot {
        let xb = ba.get_real_array(&format!("{name}b")).unwrap();
        rhs += xb.iter().zip(v).map(|(a, b)| a * b).sum::<f64>();
    }

    let denom = lhs.abs().max(rhs.abs()).max(1e-12);
    assert!(
        (lhs - rhs).abs() / denom < 1e-12,
        "tangent {lhs} vs adjoint {rhs}"
    );
}

#[test]
fn linear_gather() {
    let src = r#"
subroutine g(n, x, y, c)
  integer, intent(in) :: n
  real, intent(in) :: x(n)
  real, intent(inout) :: y(n)
  integer, intent(in) :: c(n)
  integer :: i
  !$omp parallel do shared(x, y, c)
  do i = 1, n
    y(c(i)) = y(c(i)) + 3.0 * x(i)
  end do
end subroutine
"#;
    let n = 14;
    let mut r = StdRng::seed_from_u64(1);
    let mut c: Vec<i64> = (1..=n as i64).collect();
    for k in (1..c.len()).rev() {
        let j = r.gen_range(0..=k);
        c.swap(k, j);
    }
    let base = Bindings::new()
        .int("n", n as i64)
        .int_array("c", c)
        .real_array("x", rv(&mut r, n))
        .real_array("y", rv(&mut r, n));
    let xd = rv(&mut r, n);
    let yb = rv(&mut r, n);
    for threads in [1, 4] {
        consistency(
            src,
            &base,
            &["x"],
            &["y"],
            &[("x", xd.clone())],
            &[("y", yb.clone())],
            threads,
        );
    }
}

#[test]
fn nonlinear_with_overwrite_and_intrinsics() {
    let src = r#"
subroutine nl(n, x, y)
  integer, intent(in) :: n
  real, intent(in) :: x(n)
  real, intent(inout) :: y(n)
  integer :: i
  !$omp parallel do shared(x, y)
  do i = 1, n
    y(i) = tanh(y(i)) + exp(x(i)) * sin(x(i)) / (2.0 + x(i) * x(i))
  end do
end subroutine
"#;
    let n = 9;
    let mut r = StdRng::seed_from_u64(2);
    let base = Bindings::new()
        .int("n", n as i64)
        .real_array("x", rv(&mut r, n))
        .real_array("y", rv(&mut r, n));
    let xd = rv(&mut r, n);
    let yb = rv(&mut r, n);
    for threads in [1, 3] {
        consistency(
            src,
            &base,
            &["x"],
            &["y"],
            &[("x", xd.clone())],
            &[("y", yb.clone())],
            threads,
        );
    }
}

#[test]
fn nonsmooth_min_max_abs() {
    let src = r#"
subroutine ns(n, x, y)
  integer, intent(in) :: n
  real, intent(in) :: x(n)
  real, intent(inout) :: y(n)
  integer :: i
  do i = 1, n
    y(i) = min(x(i), 0.5) + max(abs(x(i)), 0.25 * x(i)) * 2.0
  end do
end subroutine
"#;
    let n = 17;
    let mut r = StdRng::seed_from_u64(3);
    let base = Bindings::new()
        .int("n", n as i64)
        .real_array("x", rv(&mut r, n))
        .real_array("y", rv(&mut r, n));
    let xd = rv(&mut r, n);
    let yb = rv(&mut r, n);
    consistency(src, &base, &["x"], &["y"], &[("x", xd)], &[("y", yb)], 1);
}

#[test]
fn two_array_coupled() {
    let src = r#"
subroutine cp(n, u, v)
  integer, intent(in) :: n
  real, intent(inout) :: u(n)
  real, intent(inout) :: v(n)
  integer :: i
  do i = 2, n - 1
    v(i) = v(i) + 0.5 * u(i - 1) * u(i + 1)
    u(i) = u(i) * 0.9
  end do
end subroutine
"#;
    let n = 12;
    let mut r = StdRng::seed_from_u64(4);
    let base = Bindings::new()
        .int("n", n as i64)
        .real_array("u", rv(&mut r, n))
        .real_array("v", rv(&mut r, n));
    let ud = rv(&mut r, n);
    let ub_seed = rv(&mut r, n);
    let vb = rv(&mut r, n);
    consistency(
        src,
        &base,
        &["u"],
        &["u", "v"],
        &[("u", ud)],
        &[("u", ub_seed), ("v", vb)],
        1,
    );
}
