//! Differential tests: the native bytecode executor must agree with the
//! simulated tree-walking interpreter on every program it accepts —
//! same results, under the determinism contract of
//! `formad_machine::differential`, and the same errors. The reduction
//! merge and the error contract of `NativeEngine::run_with` are shared
//! with the AOT backend and held on both.

use std::sync::Arc;

use formad_ir::{parse_program, Program};
use formad_machine::{
    check_cell, compile, load_or_compile, lower, run, run_native, AotKernel, BcProgram, Bindings,
    Compare, EngineCache, Machine, NativeEngine,
};

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

/// `src` compiled for `bind`'s extents, with its AOT kernel.
fn build_aot(src: &str, bind: &Bindings) -> (Program, BcProgram, Arc<AotKernel>) {
    let p = parse_program(src).expect("parse");
    let lp = lower(&p, bind).expect("lower");
    let bc = compile(&lp, &p).expect("compile");
    let kernel = load_or_compile(&lp, &bc).expect("AOT must build in-tree");
    (p, bc, kernel)
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

/// Every intrinsic and both `**` on run-time operands *inside a region*,
/// where the AOT backend runs generated code: its libm calls (`log` for
/// `f64::ln`, `pow` for `powf` …) must be the functions the interpreters'
/// `std` methods reach, special values included. `x` against `w` covers
/// every pair for `**`; `min` / `max` see `w + 2.5`, because which of two
/// operands that compare equal (`0.0` and `-0.0`) they return is
/// unspecified.
#[test]
fn intrinsics_in_a_region_bitwise_on_special_values() {
    let src = r#"
subroutine wall(n, x, w, e, k, y)
  integer, intent(in) :: n
  real, intent(in) :: x(n), w(n)
  integer, intent(in) :: e(n), k(n)
  real, intent(inout) :: y(n, 12)
  integer :: i
  !$omp parallel do shared(x, w, e, k, y)
  do i = 1, n
    y(i, 1) = sin(x(i))
    y(i, 2) = cos(x(i))
    y(i, 3) = exp(x(i))
    y(i, 4) = log(x(i))
    y(i, 5) = sqrt(x(i))
    y(i, 6) = tanh(x(i))
    y(i, 7) = abs(x(i))
    y(i, 8) = min(x(i), w(i) + 2.5)
    y(i, 9) = max(x(i), w(i) + 2.5)
    y(i, 10) = x(i) ** w(i)
    y(i, 11) = e(i) ** k(i)
    y(i, 12) = abs(e(i)) + min(e(i), k(i)) * max(e(i), k(i))
  end do
end subroutine
"#;
    let specials = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        f64::from_bits(1),
        1.0e-300,
        1.0e300,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -2.5,
        0.5,
    ];
    let m = specials.len();
    let n = m * m;
    let bind = Bindings::new()
        .int("n", n as i64)
        .real_array("x", (0..n).map(|i| specials[i % m]).collect())
        .real_array("w", (0..n).map(|i| specials[i / m]).collect())
        .int_array("e", (0..n).map(|i| (i % 7) as i64 - 3).collect())
        .int_array("k", (0..n).map(|i| (i / 7 % 6) as i64).collect())
        .real_array("y", vec![0.0; n * 12]);
    let (p, bc, kernel) = build_aot(src, &bind);
    let mut engines = EngineCache::new();
    for threads in [1, 3] {
        check_cell(&mut engines, &p, &bc, Some(&kernel), &bind, threads)
            .unwrap_or_else(|e| panic!("{e}"));
    }
}

/// Literal steps (compiled into the kernel as its stride) and a run-time
/// one, both directions, iteration counts no thread count divides. Each
/// loop pushes and its reversal pops, as an adjoint does, so a chunk
/// walked from the wrong end or handed to the wrong rank meets another
/// thread's tape; `r` folds in rank order on top of that.
fn steps_kernel() -> String {
    // (forward bounds and step, reversed bounds and step); `n` is odd.
    let loops = [
        ("1, n, 1", "n, 1, -1"),
        ("2, n, 3", "2 + (n - 2) / 3 * 3, 2, -3"),
        ("n, 1, -2", "1, n, 2"),
        ("a, b, s", "a + (b - a) / s * s, a, -s"),
    ];
    let mut body = String::new();
    for (forward, reversed) in loops {
        body += &format!(
            "  !$omp parallel do shared(x, y)\n  do i = {forward}\n    call push(y(i))\n    \
             y(i) = y(i) * 1.5 + x(i) * i\n  end do\n  \
             !$omp parallel do shared(x, y) private(p) reduction(+: r)\n  do i = {reversed}\n    \
             call pop(p)\n    y(i) = y(i) - p * x(i)\n    r = r + y(i)\n  end do\n"
        );
    }
    format!(
        "subroutine steps(n, a, b, s, x, y, r)\n  integer, intent(in) :: n, a, b, s\n  \
         real, intent(in) :: x(n)\n  real, intent(inout) :: y(n)\n  real, intent(inout) :: r\n  \
         integer :: i\n  real :: p\n{body}end subroutine\n"
    )
}

#[test]
fn literal_and_run_time_steps_bitwise_on_aot() {
    let src = steps_kernel();
    let bind = |a: i64, b: i64, s: i64| {
        Bindings::new()
            .int("n", 23)
            .int("a", a)
            .int("b", b)
            .int("s", s)
            .real("r", 0.125)
            .real_array("x", (0..23).map(|k| (k as f64 * 0.7).sin()).collect())
            .real_array("y", (0..23).map(|k| 1.0 / (k + 3) as f64).collect())
    };
    // One kernel serves all three bindings: only `n` is baked in.
    let (p, bc, kernel) = build_aot(&src, &bind(1, 23, 2));
    let mut engines = EngineCache::new();
    for bind in [bind(1, 23, 2), bind(22, 2, -3)] {
        for threads in [1, 3, 4] {
            check_cell(&mut engines, &p, &bc, Some(&kernel), &bind, threads)
                .unwrap_or_else(|e| panic!("s={}: {e}", bind.int_scalars["s"]));
        }
    }
    let zero = bind(1, 23, 0);
    let sim = run(&p, &mut zero.clone(), &Machine::with_threads(3)).expect_err("sim");
    let aot = NativeEngine::with_os_threads(3, 3)
        .run_with(&bc, Some(&kernel), &mut zero.clone())
        .expect_err("aot");
    assert_eq!(sim.message, "zero loop step");
    assert_eq!(aot.message, sim.message);
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

// ---- reduction merge: association, special values, idle ranks ----

/// `y(j) = y(j) ⊕ x(i)` under `reduction(⊕: y)`, every iteration folding
/// into cell `mod(i, m) + 1`. The extents `k`, `m` are fixed and `n` only
/// bounds the loop, so one compiled program (and one AOT kernel) serves
/// every iteration count.
fn reduction_kernel(op: &str) -> String {
    let update = match op {
        "min" | "max" => format!("{op}(y(j), x(i))"),
        _ => format!("y(j) {op} x(i)"),
    };
    format!(
        "subroutine red(n, k, m, x, y)\n  integer, intent(in) :: n, k, m\n  \
         real, intent(in) :: x(k)\n  real, intent(inout) :: y(m)\n  integer :: i, j\n  \
         !$omp parallel do shared(x) reduction({op}: y) private(j)\n  do i = 1, n\n    \
         j = mod(i, m) + 1\n    y(j) = {update}\n  end do\nend subroutine\n"
    )
}

/// What each cell holds before the region (first entry) and what is
/// folded into it, round-robin. One cell per hazard, so that a cell meets
/// at most one NaN payload (which of two different payloads an operation
/// propagates is the hardware's choice, not the association's).
fn reduction_scenarios() -> Vec<Vec<f64>> {
    let tiny = f64::from_bits(1);
    vec![
        // Every operand -0.0: `0.0 + -0.0` is +0.0, so skipping the
        // identity, or folding the saved value first, flips the sign.
        vec![-0.0, -0.0, -0.0, -0.0],
        vec![0.0, -0.0, 0.0, -0.0, -0.0],
        vec![-0.0, 0.0, 3.5, -3.5, 0.0],
        vec![1.0, f64::NAN, 2.0, -7.25, 0.5],
        vec![2.0, f64::INFINITY, 1.0e300, -1.0e300, 4.0],
        // +inf meets -inf (and, under `*`, zero): the invalid operation's
        // default NaN is the only one this cell sees.
        vec![-1.0, f64::INFINITY, f64::NEG_INFINITY, 0.0, 1.0],
        vec![tiny, tiny, -tiny, f64::MIN_POSITIVE, 3.0 * tiny, 0.5],
        // Rounding depends on the association.
        vec![0.1, 1.0e16, 1.0, -1.0e16, 0.3, 0.7, 1.0e-3, 3.0],
    ]
}

#[test]
fn array_reductions_merge_in_the_interpreters_association() {
    const K: usize = 200;
    let scenarios = reduction_scenarios();
    let m = scenarios.len();
    // Iteration `i` folds into cell `c = mod(i, m)`, as that cell's
    // `i / m`-th contribution.
    let x: Vec<f64> = (1..=K)
        .map(|i| {
            let folded = &scenarios[i % m][1..];
            folded[(i / m) % folded.len()]
        })
        .collect();
    // `y(j)` is cell `c = j - 1`.
    let y: Vec<f64> = scenarios.iter().map(|s| s[0]).collect();
    let mut engines = EngineCache::new();
    for op in ["+", "*", "min", "max"] {
        let src = reduction_kernel(op);
        let p = parse_program(&src).expect("parse");
        let bind_n = |n: usize| {
            Bindings::new()
                .int("n", n as i64)
                .int("k", K as i64)
                .int("m", m as i64)
                .real_array("x", x.clone())
                .real_array("y", y.clone())
        };
        let lp = lower(&p, &bind_n(K)).expect("lower");
        let bc = compile(&lp, &p).expect("compile");
        let kernel = load_or_compile(&lp, &bc).expect("AOT must build in-tree");
        assert!(!bc.commit_order_dependent());
        // 2 and 5 iterations leave ranks idle at T = 3, 4, 7: they take
        // no part in the merge, not even with the identity.
        for n in [2, 5, 61, K] {
            for threads in [1, 3, 4, 7] {
                check_cell(&mut engines, &p, &bc, Some(&kernel), &bind_n(n), threads)
                    .unwrap_or_else(|e| panic!("reduction({op}: y), n={n}: {e}"));
            }
        }
    }
}

// ---- the error contract of `NativeEngine::run_with` ----

/// After a failed run: every array still bound, with its length; no
/// scalar changed.
fn assert_bindings_intact(what: &str, before: &Bindings, after: &Bindings) {
    assert_eq!(before.real_scalars, after.real_scalars, "{what}");
    assert_eq!(before.int_scalars, after.int_scalars, "{what}");
    let lens = |b: &Bindings| {
        let mut v: Vec<(String, usize)> = b
            .real_arrays
            .iter()
            .map(|(n, a)| (n.clone(), a.len()))
            .chain(b.int_arrays.iter().map(|(n, a)| (n.clone(), a.len())))
            .collect();
        v.sort();
        v
    };
    assert_eq!(lens(before), lens(after), "{what}");
}

#[test]
fn a_failed_run_leaves_bindings_and_engine_usable() {
    // Every failure writes `s` and part of `y` first.
    let failing = [
        (
            "out of bounds inside a region",
            "  s = 9.0\n  !$omp parallel do shared(y)\n  do i = 1, n\n    y(i + 1) = 1.0\n  end do\n",
            "out of bounds",
        ),
        (
            "pop from an empty tape inside a region",
            "  s = 9.0\n  y(1) = 5.0\n  !$omp parallel do shared(y)\n  do i = 1, n\n    \
             call pop(y(i))\n  end do\n",
            "pop from empty real tape",
        ),
        (
            "pop from an empty tape in sequential code",
            "  s = 9.0\n  y(1) = 5.0\n  call pop(y(2))\n",
            "pop from empty real tape",
        ),
        (
            "zero step of a region",
            "  s = 9.0\n  y(1) = 5.0\n  !$omp parallel do shared(y)\n  do i = 1, n, z\n    \
             y(i) = 1.0\n  end do\n",
            "zero loop step",
        ),
        // `z - 1` is -1 at run time: the one quotient an i64 cannot hold
        // is an error of the program, not a panic of the process.
        (
            "i64::MIN / -1 inside a region",
            "  s = 9.0\n  y(1) = 5.0\n  !$omp parallel do shared(y)\n  do i = 1, n\n    \
             y(i) = (-9223372036854775807 - 1) / (z - 1)\n  end do\n",
            "integer overflow in /",
        ),
        (
            "mod(i64::MIN, -1) inside a region",
            "  s = 9.0\n  y(1) = 5.0\n  !$omp parallel do shared(y)\n  do i = 1, n\n    \
             y(i) = mod(-9223372036854775807 - 1, z - 1)\n  end do\n",
            "integer overflow in mod",
        ),
    ];
    let good = Bindings::new()
        .int("n", 64)
        .int("z", 0)
        .real("s", 0.5)
        .int_array("c", (1..=64).collect())
        .real_array("y", vec![0.25; 64]);
    let saxpy_bind = Bindings::new()
        .int("n", 64)
        .real("a", 1.7)
        .real_array("x", (0..64).map(|k| (k as f64).sin()).collect())
        .real_array("y", (0..64).map(|k| 1.0 / (k + 1) as f64).collect());
    let (saxpy, saxpy_bc, saxpy_kernel) = build_aot(SAXPY, &saxpy_bind);
    let mut saxpy_want = saxpy_bind.clone();
    run(&saxpy, &mut saxpy_want, &Machine::with_threads(3)).expect("sim");

    let mut engine = NativeEngine::with_os_threads(3, 3);
    let mut run_failing = |what: &str, body: &str, bad: Option<&Bindings>, expect: &str| {
        let src = format!(
            "subroutine f(n, z, s, c, y)\n  integer, intent(in) :: n, z\n  \
             real, intent(inout) :: s\n  integer, intent(in) :: c(n)\n  \
             real, intent(inout) :: y(n)\n  integer :: i\n{body}end subroutine\n"
        );
        let p = parse_program(&src).expect("parse");
        let lp = lower(&p, &good).expect("lower");
        let bc = compile(&lp, &p).expect("compile");
        let aot = (!bc.regions.is_empty())
            .then(|| load_or_compile(&lp, &bc).expect("AOT must build in-tree"));
        let before = bad.unwrap_or(&good);
        for kernel in [None, aot.as_deref()] {
            let backend = if kernel.is_some() { "aot" } else { "bytecode" };
            let what = format!("{what} [{backend}]");
            let mut bind = before.clone();
            let err = engine
                .run_with(&bc, kernel, &mut bind)
                .expect_err("the run must fail");
            assert!(err.message.contains(expect), "{what}: {err}");
            assert_bindings_intact(&what, before, &bind);
            if bad.is_some() {
                // Refused at entry: nothing was written at all.
                assert_eq!(
                    before.first_difference(&bind, Compare::Bitwise),
                    None,
                    "{what}"
                );
            }
            // The engine is as good as new, on either backend.
            for next in [None, Some(&*saxpy_kernel)] {
                let mut got = saxpy_bind.clone();
                engine
                    .run_with(&saxpy_bc, next, &mut got)
                    .unwrap_or_else(|e| panic!("{what}: the next run failed: {e}"));
                assert_eq!(
                    saxpy_want.first_difference(&got, Compare::Bitwise),
                    None,
                    "{what}: the next run"
                );
            }
        }
    };
    for (what, body, expect) in failing {
        run_failing(what, body, None, expect);
    }
    // Refused before the run starts. `c` sorts and is declared before
    // `y`, so whichever order arrays are fetched in, a sound one comes
    // first and must be left alone.
    let writes_first = "  s = 9.0\n  !$omp parallel do shared(y)\n  do i = 1, n\n    \
                        y(i) = 1.0\n  end do\n";
    let mut short = good.clone();
    short.real_arrays.insert("y".into(), vec![0.25; 63]);
    run_failing(
        "wrong-length array",
        writes_first,
        Some(&short),
        "bound with 63 elements, declared 64",
    );
    let mut unbound = good.clone();
    unbound.real_arrays.remove("y");
    run_failing(
        "unbound parameter array",
        writes_first,
        Some(&unbound),
        "parameter array `y` is unbound",
    );
    let mut no_scalar = good.clone();
    no_scalar.real_scalars.remove("s");
    run_failing(
        "unbound scalar parameter",
        writes_first,
        Some(&no_scalar),
        "parameter `s` is unbound",
    );
}
