//! Integer semantics every backend shares, held on the simulator, the
//! bytecode engine and the AOT kernel, in sequential code and inside a
//! parallel region: comparisons are exact on the whole `i64` range,
//! `+ - * neg abs` wrap in every build profile (a debug build of the
//! host backends used to panic where the release build and the kernels
//! wrapped), and `**` reads its whole exponent.

use formad_ir::parse_program;
use formad_machine::{run, run_aot, run_native, Bindings, Machine};

/// `src` run against `bind` on every backend, at one and at two threads.
fn on_every_backend(src: &str, bind: &Bindings) -> Vec<(String, Bindings)> {
    let p = parse_program(src).expect("parse");
    let mut out = Vec::new();
    for threads in [1usize, 2] {
        let mut sim = bind.clone();
        run(&p, &mut sim, &Machine::with_threads(threads)).expect("sim run");
        out.push((format!("sim T={threads}"), sim));
        let mut native = bind.clone();
        run_native(&p, &mut native, threads).expect("bytecode run");
        out.push((format!("bytecode T={threads}"), native));
        let mut aot = bind.clone();
        let fallback = run_aot(&p, &mut aot, threads).expect("aot run");
        assert_eq!(fallback, None, "AOT must actually run in-tree");
        out.push((format!("aot T={threads}"), aot));
    }
    out
}

/// Each comparison adds its own decimal digit when it holds: `.eq.` 1,
/// `.ne.` 10, `.lt.` 100, `.le.` 1000, `.gt.` 10⁴, `.ge.` 10⁵. The
/// sequential code scores into `r`, the region into `q`.
const COMPARE: &str = r#"
subroutine cmp(n, k, m, r, q)
  integer, intent(in) :: n, k, m
  integer, intent(inout) :: r(1)
  integer, intent(inout) :: q(n)
  integer :: i
  r(1) = 0
  if (k .eq. m) then
    r(1) = r(1) + 1
  end if
  if (k .ne. m) then
    r(1) = r(1) + 10
  end if
  if (k .lt. m) then
    r(1) = r(1) + 100
  end if
  if (k .le. m) then
    r(1) = r(1) + 1000
  end if
  if (k .gt. m) then
    r(1) = r(1) + 10000
  end if
  if (k .ge. m) then
    r(1) = r(1) + 100000
  end if
  !$omp parallel do shared(q)
  do i = 1, n
    q(i) = 0
    if (k .eq. m) then
      q(i) = q(i) + 1
    end if
    if (k .ne. m) then
      q(i) = q(i) + 10
    end if
    if (k .lt. m) then
      q(i) = q(i) + 100
    end if
    if (k .le. m) then
      q(i) = q(i) + 1000
    end if
    if (k .gt. m) then
      q(i) = q(i) + 10000
    end if
    if (k .ge. m) then
      q(i) = q(i) + 100000
    end if
  end do
end subroutine
"#;

/// 2^53 + 1 and 2^53 are one `f64` apart from nothing: both round to
/// 2^53, so a comparison through `f64` calls them equal.
#[test]
fn integer_comparisons_are_exact_above_two_to_the_53() {
    let big = 1i64 << 53;
    for (k, m, want) in [
        (big + 1, big, 110_010),
        (big, big + 1, 1_110),
        (big + 1, big + 1, 101_001),
        (i64::MAX, i64::MAX - 1, 110_010),
        (i64::MIN, i64::MIN + 1, 1_110),
    ] {
        let bind = Bindings::new()
            .int("n", 3)
            .int("k", k)
            .int("m", m)
            .int_array("r", vec![0])
            .int_array("q", vec![0; 3]);
        for (backend, out) in on_every_backend(COMPARE, &bind) {
            assert_eq!(out.int_arrays["r"], [want], "{backend}: k = {k}, m = {m}");
            assert_eq!(
                out.int_arrays["q"], [want; 3],
                "{backend}: k = {k}, m = {m}"
            );
        }
    }
}

/// The five wrapping operations at the ends of the range, once in
/// sequential code (into `r`) and once inside a region (into `q`).
const WRAP: &str = r#"
subroutine wrap(big, small, r, q)
  integer, intent(in) :: big, small
  integer, intent(inout) :: r(5)
  integer, intent(inout) :: q(5)
  integer :: i
  r(1) = big + 1
  r(2) = small - 1
  r(3) = -small
  r(4) = abs(small)
  r(5) = big * 2
  !$omp parallel do shared(q)
  do i = 1, 1
    q(1) = big + 1
    q(2) = small - 1
    q(3) = -small
    q(4) = abs(small)
    q(5) = big * 2
  end do
end subroutine
"#;

#[test]
fn integer_arithmetic_wraps_in_every_build_profile() {
    let bind = Bindings::new()
        .int("big", i64::MAX)
        .int("small", i64::MIN)
        .int_array("r", vec![0; 5])
        .int_array("q", vec![0; 5]);
    let want = [i64::MIN, i64::MAX, i64::MIN, i64::MIN, -2];
    for (backend, out) in on_every_backend(WRAP, &bind) {
        assert_eq!(out.int_arrays["r"], want, "{backend}: sequential");
        assert_eq!(out.int_arrays["q"], want, "{backend}: region");
    }
}

/// `b ** e` once in sequential code (into `r`) and once inside a region
/// (into `q`).
const POW: &str = r#"
subroutine pw(b, e, r, q)
  integer, intent(in) :: b, e
  integer, intent(inout) :: r(1)
  integer, intent(inout) :: q(1)
  integer :: i
  r(1) = b ** e
  !$omp parallel do shared(q)
  do i = 1, 1
    q(1) = b ** e
  end do
end subroutine
"#;

/// The region's half of [`POW`] alone, so a failing power is reached
/// inside the region.
const POW_IN_REGION: &str = r#"
subroutine pwr(b, e, q)
  integer, intent(in) :: b, e
  integer, intent(inout) :: q(1)
  integer :: i
  !$omp parallel do shared(q)
  do i = 1, 1
    q(1) = b ** e
  end do
end subroutine
"#;

/// An exponent of 2³² or more is not truncated to 32 bits: bases 0, 1
/// and −1 give their exact power, and every other base overflows.
#[test]
fn integer_power_keeps_the_whole_exponent() {
    let e32 = 1i64 << 32;
    for (b, e, want) in [
        (2, 10, Some(1024)),
        (-3, 3, Some(-27)),
        (0, e32, Some(0)),
        (1, e32 + 1, Some(1)),
        (-1, e32, Some(1)),
        (-1, e32 + 1, Some(-1)),
        (-1, i64::MAX, Some(-1)),
        (2, 64, None),
        (2, e32, None),
        (2, e32 + 1, None),
        (-2, e32 + 1, None),
        (3, i64::MAX, None),
    ] {
        let bind = Bindings::new()
            .int("b", b)
            .int("e", e)
            .int_array("r", vec![0])
            .int_array("q", vec![0]);
        match want {
            Some(want) => {
                for (backend, out) in on_every_backend(POW, &bind) {
                    assert_eq!(out.int_arrays["r"], [want], "{backend}: {b} ** {e}");
                    assert_eq!(out.int_arrays["q"], [want], "{backend}: {b} ** {e}");
                }
            }
            None => {
                for src in [POW, POW_IN_REGION] {
                    for (backend, err) in errors_on_every_backend(src, &bind) {
                        assert!(
                            err.contains("integer overflow in **"),
                            "{backend}: {b} ** {e}: {err}"
                        );
                    }
                }
            }
        }
    }
}

/// The error each backend reports for `src` against `bind`, at one and
/// at two threads.
fn errors_on_every_backend(src: &str, bind: &Bindings) -> Vec<(String, String)> {
    let p = parse_program(src).expect("parse");
    let mut out = Vec::new();
    for threads in [1usize, 2] {
        let err = run(&p, &mut bind.clone(), &Machine::with_threads(threads)).unwrap_err();
        out.push((format!("sim T={threads}"), err.message));
        let err = run_native(&p, &mut bind.clone(), threads).unwrap_err();
        out.push((format!("bytecode T={threads}"), err.message));
        let err = run_aot(&p, &mut bind.clone(), threads).unwrap_err();
        out.push((format!("aot T={threads}"), err.message));
    }
    out
}

/// A parallel loop over `lo..=hi` by `s` that counts its iterations
/// into `y(1)`.
const TRIP: &str = r#"
subroutine trip(lo, hi, s, y)
  integer, intent(in) :: lo, hi, s
  real, intent(inout) :: y(1)
  integer :: i
  !$omp parallel do shared(y)
  do i = lo, hi, s
    !$omp atomic
    y(1) = y(1) + 1.0
  end do
end subroutine
"#;

/// A trip count is exact over the whole `i64` range, and one that does
/// not fit an `i64` is an error on every backend, not a loop that
/// silently runs no iteration.
#[test]
fn parallel_trip_count_is_exact_or_an_error() {
    let (min, max) = (i64::MIN, i64::MAX);
    let far = 6_917_529_027_641_081_856_i64;
    for (lo, hi, s, want) in [
        (max - 2, max, 1, Some(3.0)),
        (min + 2, min, -1, Some(3.0)),
        (0, -5, min, Some(1.0)),
        (min, max, max, Some(3.0)),
        (max, min, min, Some(2.0)),
        (5, 4, 1, Some(0.0)),
        (min, max, 1, None),
        (-far, far, 1, None),
        (max, min, -1, None),
    ] {
        let bind = Bindings::new()
            .int("lo", lo)
            .int("hi", hi)
            .int("s", s)
            .real_array("y", vec![0.0]);
        match want {
            Some(want) => {
                for (backend, out) in on_every_backend(TRIP, &bind) {
                    assert_eq!(out.real_arrays["y"], [want], "{backend}: {lo}, {hi}, {s}");
                }
            }
            None => {
                for (backend, err) in errors_on_every_backend(TRIP, &bind) {
                    assert!(
                        err.contains("integer overflow in loop trip count"),
                        "{backend}: {lo}, {hi}, {s}: {err}"
                    );
                }
            }
        }
    }
}

/// A sequential loop over `lo..=hi` by `s` that counts its iterations
/// into `y(1)`, in sequential code and inside a one-iteration region —
/// the only place the AOT kernel runs a sequential loop.
const SEQ_TRIP: [&str; 2] = [
    r#"
subroutine seqtrip(lo, hi, s, y)
  integer, intent(in) :: lo, hi, s
  real, intent(inout) :: y(1)
  integer :: i
  do i = lo, hi, s
    y(1) = y(1) + 1.0
  end do
end subroutine
"#,
    r#"
subroutine seqtrip(lo, hi, s, y)
  integer, intent(in) :: lo, hi, s
  real, intent(inout) :: y(1)
  integer :: i, k
  !$omp parallel do shared(y) private(i)
  do k = 1, 1
    do i = lo, hi, s
      y(1) = y(1) + 1.0
    end do
  end do
end subroutine
"#,
];

/// A sequential loop runs its exact trip count to the edge of the `i64`
/// range — the count, not the counter, ends the loop, so the counter may
/// wrap after the last iteration — and one whose count does not fit an
/// `i64` is the parallel loop's error, on every backend.
#[test]
fn sequential_trip_count_is_exact_or_an_error() {
    let (min, max) = (i64::MIN, i64::MAX);
    for (lo, hi, s, want) in [
        (max - 1, max, 1, Some(2.0)),
        (min + 1, min, -1, Some(2.0)),
        (max, max, 1, Some(1.0)),
        (max - 1, max, 2, Some(1.0)),
        (min, max, max, Some(3.0)),
        (max, min, min, Some(2.0)),
        (5, 4, 1, Some(0.0)),
        (min, max, 1, None),
        (max, min, -1, None),
    ] {
        let bind = Bindings::new()
            .int("lo", lo)
            .int("hi", hi)
            .int("s", s)
            .real_array("y", vec![0.0]);
        for src in SEQ_TRIP {
            match want {
                Some(want) => {
                    for (backend, out) in on_every_backend(src, &bind) {
                        assert_eq!(out.real_arrays["y"], [want], "{backend}: {lo}, {hi}, {s}");
                    }
                }
                None => {
                    for (backend, err) in errors_on_every_backend(src, &bind) {
                        assert!(
                            err.contains("integer overflow in loop trip count"),
                            "{backend}: {lo}, {hi}, {s}: {err}"
                        );
                    }
                }
            }
        }
    }
}
