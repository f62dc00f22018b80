//! Differential tests: the native bytecode executor must agree with the
//! simulated tree-walking interpreter on every program it accepts —
//! same results, under the determinism contract of
//! `formad_machine::differential`, and the same errors.

use formad_ir::parse_program;
use formad_machine::{check_cell, compile, lower, run, run_native, Bindings, EngineCache, Machine};

/// Run `src` under both backends at `threads`: the cell must satisfy the
/// contract.
fn assert_backends_agree(engines: &mut EngineCache, src: &str, bind: &Bindings, threads: usize) {
    let p = parse_program(src).expect("parse");
    let bc = compile(&lower(&p, bind).expect("lower"), &p).expect("compile");
    check_cell(engines, &p, &bc, None, bind, threads)
        .unwrap_or_else(|e| panic!("`{}`: {e}", p.name));
}

/// Where the simulator errors the native executor must report the same
/// error.
fn assert_same_error(src: &str, bind: &Bindings, threads: usize) {
    let p = parse_program(src).expect("parse");
    let a = run(&p, &mut bind.clone(), &Machine::with_threads(threads))
        .expect_err("the simulator must fail");
    let b = run_native(&p, &mut bind.clone(), threads)
        .expect_err("native must fail where the simulator does");
    assert_eq!(a.message, b.message, "error divergence at T={threads}");
}

/// The class of the contract `src` compiles into.
fn commit_order_dependent(src: &str, bind: &Bindings) -> bool {
    let p = parse_program(src).expect("parse");
    compile(&lower(&p, bind).expect("lower"), &p)
        .expect("compile")
        .commit_order_dependent()
}

fn all_threads(src: &str, bind: Bindings) {
    let mut engines = EngineCache::new();
    for threads in [1, 2, 3, 4, 8] {
        assert_backends_agree(&mut engines, src, &bind, threads);
    }
}

const SAXPY: &str = r#"
subroutine saxpy(n, a, x, y)
  integer, intent(in) :: n
  real, intent(in) :: a
  real, intent(in) :: x(n)
  real, intent(inout) :: y(n)
  integer :: i
  !$omp parallel do shared(x, y)
  do i = 1, n
    y(i) = y(i) + a * x(i)
  end do
end subroutine
"#;

#[test]
fn saxpy_bitwise() {
    all_threads(
        SAXPY,
        Bindings::new()
            .int("n", 23)
            .real("a", 1.7)
            .real_array("x", (0..23).map(|k| (k as f64).sin()).collect())
            .real_array("y", (0..23).map(|k| 1.0 / (k + 1) as f64).collect()),
    );
}

#[test]
fn atomic_add_bitwise() {
    let src = r#"
subroutine at(n, y)
  integer, intent(in) :: n
  real, intent(inout) :: y(n)
  integer :: i
  !$omp parallel do shared(y)
  do i = 1, n
    !$omp atomic
    y(i) = y(i) + 1.5
  end do
end subroutine
"#;
    all_threads(
        src,
        Bindings::new()
            .int("n", 100)
            .real_array("y", (0..100).map(|k| (k as f64).cos()).collect()),
    );
}

// All iterations hit overlapping elements: thread-order merge must
// reproduce the interpreter's association exactly.
const OVERLAP_REDUCTION: &str = r#"
subroutine red(n, x, y)
  integer, intent(in) :: n
  real, intent(in) :: x(n)
  real, intent(inout) :: y(n)
  integer :: i, j
  !$omp parallel do shared(x) reduction(+: y) private(j)
  do i = 1, n
    j = mod(i, 7) + 1
    y(j) = y(j) + x(i)
  end do
end subroutine
"#;

fn overlap_bindings(n: usize) -> Bindings {
    Bindings::new()
        .int("n", n as i64)
        .real_array("x", (0..n).map(|k| (k as f64 * 0.3).sin()).collect())
        .real_array("y", (0..n).map(|k| k as f64 * 0.01).collect())
}

#[test]
fn array_reduction_bitwise() {
    all_threads(OVERLAP_REDUCTION, overlap_bindings(61));
}

// The same scatter guarded by `!$omp atomic` instead: seven cells take
// every increment, so on real workers the commits interleave in hardware
// order and the rounding moves with them.
const OVERLAP_ATOMIC: &str = r#"
subroutine sc(n, x, y)
  integer, intent(in) :: n
  real, intent(in) :: x(n)
  real, intent(inout) :: y(n)
  integer :: i
  !$omp parallel do shared(x, y)
  do i = 1, n
    !$omp atomic
    y(mod(i, 7) + 1) = y(mod(i, 7) + 1) + x(i)
  end do
end subroutine
"#;

/// The two classes of the determinism contract, read off compiled code:
/// a shared atomic increment makes a program commit-order-dependent —
/// bitwise against the simulator on one OS worker, within tolerance on
/// 2–4 forced ones (`check_cell` runs both legs) — while the same
/// scatter under `reduction`, SAXPY and the tape round-trip are
/// schedule-independent and held bitwise on forced OS workers by their
/// own tests in this file, on any host.
#[test]
fn colliding_atomic_scatter_is_commit_order_dependent_and_nothing_else_is() {
    // One binding set serves all four programs (SAXPY also reads `a`).
    let bind = overlap_bindings(4001).real("a", 1.7);
    assert!(commit_order_dependent(OVERLAP_ATOMIC, &bind));
    let mut engines = EngineCache::new();
    for threads in [1, 2, 3, 4] {
        assert_backends_agree(&mut engines, OVERLAP_ATOMIC, &bind, threads);
    }
    for src in [OVERLAP_REDUCTION, SAXPY, TAPE_ROUNDTRIP] {
        assert!(!commit_order_dependent(src, &bind));
    }
}

#[test]
fn scalar_reduction_bitwise() {
    let src = r#"
subroutine dotsum(n, x, s)
  integer, intent(in) :: n
  real, intent(in) :: x(n)
  real, intent(inout) :: s
  integer :: i
  !$omp parallel do shared(x) reduction(+: s)
  do i = 1, n
    s = s + x(i) * x(i)
  end do
end subroutine
"#;
    all_threads(
        src,
        Bindings::new()
            .int("n", 37)
            .real("s", 0.25)
            .real_array("x", (0..37).map(|k| (k as f64 * 1.1).cos()).collect()),
    );
}

// Forward parallel push, reversed parallel pop: per-thread tapes and
// the value-ascending chunk mapping must line up across backends.
const TAPE_ROUNDTRIP: &str = r#"
subroutine tp(n, y)
  integer, intent(in) :: n
  real, intent(inout) :: y(n)
  integer :: i
  !$omp parallel do shared(y)
  do i = 1, n
    call push(y(i))
    y(i) = -1.0
  end do
  !$omp parallel do shared(y)
  do i = n, 1, -1
    call pop(y(i))
  end do
end subroutine
"#;

#[test]
fn parallel_tapes_roundtrip_bitwise() {
    all_threads(
        TAPE_ROUNDTRIP,
        Bindings::new()
            .int("n", 17)
            .real_array("y", (0..17).map(|k| k as f64 * 1.25).collect()),
    );
}

#[test]
fn control_flow_and_intrinsics_bitwise() {
    let src = r#"
subroutine cf(n, c, y)
  integer, intent(in) :: n
  integer, intent(in) :: c(n)
  real, intent(inout) :: y(n)
  integer :: i, j
  do i = 1, n
    if ((c(i) .gt. 0) .and. (mod(i, 2) .eq. 0)) then
      do j = 1, c(i)
        y(i) = y(i) + sqrt(2.0) * exp(0.1)
      end do
    else
      if ((c(i) .lt. -1) .or. (i .eq. 1)) then
        y(i) = min(abs(y(i)), max(1.0, y(i) * y(i)))
      else
        y(i) = -5.0 ** 2 + tanh(y(i))
      end if
    end if
  end do
end subroutine
"#;
    all_threads(
        src,
        Bindings::new()
            .int("n", 9)
            .int_array("c", vec![2, 0, 3, -1, -7, 4, 1, -2, 5])
            .real_array("y", (0..9).map(|k| (k as f64 - 4.0) * 0.8).collect()),
    );
}

#[test]
fn multidim_gather_bitwise() {
    let src = r#"
subroutine md(n, m, e, u, g)
  integer, intent(in) :: n, m
  integer, intent(in) :: e(n)
  real, intent(in) :: u(n, m)
  real, intent(inout) :: g(n, m)
  integer :: i, j, k
  !$omp parallel do shared(e, u, g) private(j, k)
  do i = 1, n
    k = e(i)
    do j = 1, m
      g(i, j) = g(i, j) + u(k, j) * 0.5
    end do
  end do
end subroutine
"#;
    all_threads(
        src,
        Bindings::new()
            .int("n", 6)
            .int("m", 4)
            .int_array("e", vec![3, 1, 6, 2, 5, 4])
            .real_array("u", (0..24).map(|k| (k as f64).sin()).collect())
            .real_array("g", (0..24).map(|k| k as f64 * 0.1).collect()),
    );
}

#[test]
fn oob_error_matches() {
    let src = r#"
subroutine ob(n, y)
  integer, intent(in) :: n
  real, intent(inout) :: y(n)
  integer :: i
  do i = 1, n + 1
    y(i) = 1.0
  end do
end subroutine
"#;
    assert_same_error(
        src,
        &Bindings::new().int("n", 3).real_array("y", vec![0.0; 3]),
        1,
    );
}

#[test]
fn oob_error_in_region_matches() {
    let src = r#"
subroutine ob(n, y)
  integer, intent(in) :: n
  real, intent(inout) :: y(n)
  integer :: i
  !$omp parallel do shared(y)
  do i = 1, n
    y(i + 1) = 1.0
  end do
end subroutine
"#;
    for threads in [1, 4] {
        assert_same_error(
            src,
            &Bindings::new().int("n", 8).real_array("y", vec![0.0; 8]),
            threads,
        );
    }
}

#[test]
fn empty_iteration_space_matches() {
    let src = r#"
subroutine e(n, y)
  integer, intent(in) :: n
  real, intent(inout) :: y(n)
  integer :: i
  !$omp parallel do shared(y)
  do i = 2, 1
    y(i) = 7.0
  end do
end subroutine
"#;
    all_threads(
        src,
        Bindings::new().int("n", 3).real_array("y", vec![1.0; 3]),
    );
}

#[test]
fn shared_scalar_write_in_region_rejected_natively() {
    // The simulated machine tolerates this (its threads run
    // sequentially); the native backend must refuse to compile it
    // instead of racing.
    let src = r#"
subroutine bad(n, y, s)
  integer, intent(in) :: n
  real, intent(inout) :: y(n)
  real, intent(inout) :: s
  integer :: i
  !$omp parallel do shared(y)
  do i = 1, n
    s = y(i)
    y(i) = s * 2.0
  end do
end subroutine
"#;
    let p = parse_program(src).expect("parse");
    let mut b = Bindings::new()
        .int("n", 4)
        .real("s", 0.0)
        .real_array("y", vec![1.0; 4]);
    let err = formad_machine::run_native(&p, &mut b, 2).expect_err("must reject");
    assert!(
        err.message.contains("written inside a parallel region"),
        "{err}"
    );
}
