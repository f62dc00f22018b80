//! Language-semantics tests of the execution substrate: Fortran loop
//! rules, sharing clauses, tape discipline across regions, and the exact
//! event counters.

use formad_ir::parse_program;
use formad_machine::{run, run_aot, run_native, Bindings, Machine};

fn exec(src: &str, b: Bindings, threads: usize) -> (Bindings, formad_machine::ExecResult) {
    let p = parse_program(src).unwrap();
    let mut b = b;
    let r = run(&p, &mut b, &Machine::with_threads(threads)).unwrap();
    (b, r)
}

#[test]
fn loop_bounds_evaluated_once_on_entry() {
    // Fortran DO semantics: the trip count is fixed at loop entry; this
    // loop body cannot extend itself by rebinding a bound variable —
    // rejected at reversal time by AD, but execution must also follow the
    // entry-time bound for plain runs.
    let src = r#"
subroutine t(n, y)
  integer, intent(in) :: n
  real, intent(inout) :: y(n)
  integer :: i, m
  m = 3
  do i = 1, m
    y(i) = 1.0
    m = 5
  end do
end subroutine
"#;
    let b = Bindings::new().int("n", 6).real_array("y", vec![0.0; 6]);
    let (out, _) = exec(src, b, 1);
    let y = out.get_real_array("y").unwrap();
    assert_eq!(y.iter().filter(|v| **v == 1.0).count(), 3, "{y:?}");
}

#[test]
fn negative_step_sequential_and_parallel_agree() {
    let src = r#"
subroutine t(n, y)
  integer, intent(in) :: n
  real, intent(inout) :: y(n)
  integer :: i
  !$omp parallel do shared(y)
  do i = n, 1, -3
    y(i) = i * 1.0
  end do
end subroutine
"#;
    let mk = || Bindings::new().int("n", 11).real_array("y", vec![0.0; 11]);
    let (s1, _) = exec(src, mk(), 1);
    let (s5, _) = exec(src, mk(), 5);
    assert_eq!(s1.get_real_array("y"), s5.get_real_array("y"));
    // Iterates 11, 8, 5, 2.
    let y = s1.get_real_array("y").unwrap();
    assert_eq!(y[10], 11.0);
    assert_eq!(y[7], 8.0);
    assert_eq!(y[1], 2.0);
    assert_eq!(y[0], 0.0);
}

#[test]
fn empty_loops_execute_zero_iterations() {
    let src = r#"
subroutine t(n, y)
  integer, intent(in) :: n
  real, intent(inout) :: y(n)
  integer :: i
  do i = 5, 2
    y(1) = 99.0
  end do
  !$omp parallel do shared(y)
  do i = 2, 5, -1
    y(2) = 99.0
  end do
end subroutine
"#;
    let b = Bindings::new().int("n", 3).real_array("y", vec![0.0; 3]);
    let (out, _) = exec(src, b, 4);
    assert_eq!(out.get_real_array("y").unwrap(), &[0.0, 0.0, 0.0]);
}

#[test]
fn min_max_reductions() {
    let src = r#"
subroutine t(n, x, lo, hi)
  integer, intent(in) :: n
  real, intent(in) :: x(n)
  real, intent(inout) :: lo, hi
  integer :: i
  !$omp parallel do shared(x) reduction(min: lo) reduction(max: hi)
  do i = 1, n
    lo = min(lo, x(i))
    hi = max(hi, x(i))
  end do
end subroutine
"#;
    let x: Vec<f64> = vec![3.0, -7.5, 2.0, 9.25, 0.0, -1.0];
    let b = Bindings::new()
        .int("n", 6)
        .real("lo", 1e30)
        .real("hi", -1e30)
        .real_array("x", x);
    let (out, _) = exec(src, b, 3);
    assert_eq!(out.get_real("lo"), Some(-7.5));
    assert_eq!(out.get_real("hi"), Some(9.25));
}

#[test]
fn private_counter_restored_after_region() {
    let src = r#"
subroutine t(n, y, iout)
  integer, intent(in) :: n
  real, intent(inout) :: y(n)
  integer, intent(inout) :: iout
  integer :: i
  i = -42
  !$omp parallel do shared(y)
  do i = 1, n
    y(i) = 1.0
  end do
  iout = i
end subroutine
"#;
    // OpenMP: the shared `i` outside the region keeps its pre-region
    // value (the loop counter is private).
    let b = Bindings::new()
        .int("n", 4)
        .int("iout", 0)
        .real_array("y", vec![0.0; 4]);
    let (out, _) = exec(src, b, 2);
    assert_eq!(out.int_scalars["iout"], -42);
}

#[test]
fn tape_survives_between_regions_per_thread() {
    // Push in one parallel region, pop in a later one with the same
    // iteration space: thread-local tapes must line up chunk for chunk.
    let src = r#"
subroutine t(n, y, z)
  integer, intent(in) :: n
  real, intent(inout) :: y(n)
  real, intent(inout) :: z(n)
  integer :: i
  !$omp parallel do shared(y)
  do i = 1, n
    call push(y(i) * 2.0)
  end do
  !$omp parallel do shared(z)
  do i = n, 1, -1
    call pop(z(i))
  end do
end subroutine
"#;
    for threads in [1usize, 2, 3, 7] {
        let y: Vec<f64> = (0..20).map(|k| k as f64).collect();
        let b = Bindings::new()
            .int("n", 20)
            .real_array("y", y.clone())
            .real_array("z", vec![0.0; 20]);
        let (out, _) = exec(src, b, threads);
        let z = out.get_real_array("z").unwrap();
        for (k, v) in z.iter().enumerate() {
            assert_eq!(*v, y[k] * 2.0, "T={threads} k={k}");
        }
    }
}

#[test]
fn stats_counters_are_exact() {
    let src = r#"
subroutine t(n, x, y)
  integer, intent(in) :: n
  real, intent(in) :: x(n)
  real, intent(inout) :: y(n)
  integer :: i
  !$omp parallel do shared(x, y)
  do i = 1, n
    call push(y(i))
    y(i) = x(i)
    call pop(y(i))
  end do
end subroutine
"#;
    let n = 37;
    let b = Bindings::new()
        .int("n", n as i64)
        .real_array("x", vec![1.0; n])
        .real_array("y", vec![2.0; n]);
    let (out, r) = exec(src, b, 5);
    assert_eq!(r.stats.tape_pushes, n as u64);
    assert_eq!(r.stats.tape_pops, n as u64);
    assert_eq!(r.stats.parallel_regions, 1);
    // Pops restored the original y.
    assert_eq!(out.get_real_array("y").unwrap(), vec![2.0; n].as_slice());

    // The three safeguards of one increment loop compute the same values
    // and differ in exactly the events they add: one atomic update per
    // iteration at every thread count, or one privatized copy of `y` per
    // thread, merged element by element.
    let plain = r#"
subroutine t(n, y)
  integer, intent(in) :: n
  real, intent(inout) :: y(n)
  integer :: i
  !$omp parallel do shared(y)
  do i = 1, n
    y(i) = y(i) + 1.0
  end do
end subroutine
"#;
    let atomic = plain.replace(
        "    y(i) = y(i) + 1.0",
        "    !$omp atomic\n    y(i) = y(i) + 1.0",
    );
    let reduction = plain.replace(
        "!$omp parallel do shared(y)",
        "!$omp parallel do reduction(+: y)",
    );
    let n = 500;
    let mk = || {
        Bindings::new()
            .int("n", n as i64)
            .real_array("y", vec![0.0; n])
    };
    let (op, rp) = exec(plain, mk(), 4);
    let (or_, rr) = exec(&reduction, mk(), 4);
    assert_eq!(op.get_real_array("y"), or_.get_real_array("y"));
    assert_eq!((rp.stats.reads, rp.stats.writes), (n as u64, n as u64));
    assert_eq!((rp.stats.atomic_ops, rp.stats.reduction_elems), (0, 0));
    assert_eq!(rp.stats.peak_reduction_bytes, 0);
    assert_eq!((rr.stats.reads, rr.stats.writes), (n as u64, n as u64));
    assert_eq!(rr.stats.reduction_elems, 4 * n as u64);
    assert_eq!(rr.stats.peak_reduction_bytes, 8 * 4 * n as u64);
    for threads in [1usize, 4, 18] {
        let (oa, ra) = exec(&atomic, mk(), threads);
        assert_eq!(op.get_real_array("y"), oa.get_real_array("y"));
        assert_eq!(ra.stats.atomic_ops, n as u64, "T={threads}");
        assert_eq!((ra.stats.reads, ra.stats.writes), (0, 0), "T={threads}");
    }

    // The right operand of `.and.` / `.or.` reads `x(i)` only when the
    // left one does not decide, and only the gather `x(c(i))` is
    // indirect: of n = 10 iterations with k = 4, the first guard reads
    // `x(i)` 6 times and gathers 6 times (2 reads, 1 indirect each), the
    // second reads `x(i)` 6 times and increments `y(i)` 4 times.
    let guarded = r#"
subroutine t(n, k, c, x, y)
  integer, intent(in) :: n, k
  integer, intent(in) :: c(n)
  real, intent(in) :: x(n)
  real, intent(inout) :: y(n)
  integer :: i
  !$omp parallel do shared(c, x, y)
  do i = 1, n
    if (i .gt. k .and. x(i) .gt. 0.0) then
      y(i) = x(c(i))
    end if
    if (i .le. k .or. x(i) .lt. 0.0) then
      y(i) = y(i) + 1.0
    end if
  end do
end subroutine
"#;
    let n = 10;
    for threads in [1usize, 3] {
        let b = Bindings::new()
            .int("n", n as i64)
            .int("k", 4)
            .int_array("c", (1..=n as i64).rev().collect())
            .real_array("x", (1..=n).map(|v| v as f64).collect())
            .real_array("y", vec![0.0; n]);
        let (out, r) = exec(guarded, b, threads);
        let s = r.stats;
        assert_eq!((s.reads, s.writes, s.flops), (28, 10, 4), "T={threads}");
        assert_eq!(s.indirect_ops, 6, "T={threads}");
        assert_eq!(out.get_real_array("y").unwrap()[4], 6.0);
    }
}

#[test]
fn deep_nesting_and_guards() {
    let src = r#"
subroutine t(n, c, y)
  integer, intent(in) :: n
  integer, intent(in) :: c(n)
  real, intent(inout) :: y(n)
  integer :: i, j, k
  !$omp parallel do shared(c, y) private(j, k)
  do i = 1, n
    do j = 1, 2
      do k = 1, 2
        if (c(i) .gt. 0) then
          if (mod(j + k, 2) .eq. 0) then
            y(i) = y(i) + 1.0
          end if
        end if
      end do
    end do
  end do
end subroutine
"#;
    let b = Bindings::new()
        .int("n", 4)
        .int_array("c", vec![1, 0, 2, -1])
        .real_array("y", vec![0.0; 4]);
    let (out, _) = exec(src, b, 2);
    // For c(i) > 0: (j,k) in {(1,1),(1,2),(2,1),(2,2)}; even sums: (1,1),(2,2).
    assert_eq!(out.get_real_array("y").unwrap(), &[2.0, 0.0, 2.0, 0.0]);
}

/// The message of the first error `src` raises against `bind` on the
/// simulator, the bytecode engine and the AOT kernel, at one and at two
/// threads.
fn first_errors(src: &str, bind: &Bindings) -> Vec<(String, String)> {
    let p = parse_program(src).expect("parse");
    let mut out = Vec::new();
    for threads in [1usize, 2] {
        let m = Machine::with_threads(threads);
        let err = run(&p, &mut bind.clone(), &m).expect_err("sim must fail");
        out.push((format!("sim T={threads}"), err.message));
        let err = run_native(&p, &mut bind.clone(), threads).expect_err("bytecode must fail");
        out.push((format!("bytecode T={threads}"), err.message));
        let err = run_aot(&p, &mut bind.clone(), threads).expect_err("aot must fail");
        out.push((format!("aot T={threads}"), err.message));
    }
    out
}

/// Where one statement can raise two errors, the one evaluated first
/// wins: the left-hand subscript before the right-hand side, each
/// subscript's bounds check before the next subscript, a loop's `lo`,
/// `hi` and `step` in that order before its zero-step check, the left
/// operand before the right, and the target's subscript before the
/// tape. `z` is 0 and `n + 1` is past the end of every array. Each
/// statement runs in sequential code and as the body of a one-iteration
/// parallel region.
#[test]
fn the_first_of_two_errors_wins() {
    let oob = |v: &str| format!("index 4 out of bounds 1..=3 in dimension 1 of `{v}`");
    let div = "integer division by zero".to_string();
    let cases: [(&str, String); 11] = [
        ("y(n + 1) = x(1) + k / z", oob("y")),
        ("s = x(n + 1) + k / z", oob("x")),
        ("m = k / z + c(n + 1)", div.clone()),
        ("u(n + 1, k / z) = 1.0", oob("u")),
        ("u(k / z, n + 1) = 1.0", div.clone()),
        ("s = min(x(n + 1), k / z * 1.0)", oob("x")),
        ("if (c(n + 1) .gt. k / z) then\n  s = 1.0\nend if", oob("c")),
        ("call push(x(n + 1) + k / z)", oob("x")),
        ("call pop(y(n + 1))", oob("y")),
        ("do j = c(n + 1), k / z\n  s = 1.0\nend do", oob("c")),
        ("do j = 1, k / z, 0\n  s = 1.0\nend do", div.clone()),
    ];
    let bind = Bindings::new()
        .int("n", 3)
        .int("k", 5)
        .int("z", 0)
        .int_array("c", vec![1; 3])
        .real_array("x", vec![1.0; 3])
        .real_array("y", vec![0.0; 3])
        .real_array("u", vec![0.0; 9]);
    let program = |body: &str, region: bool| {
        let (open, close) = if region {
            (
                "!$omp parallel do shared(c, x, y, u) private(s, m, j)\ndo i = 1, 1\n",
                "\nend do",
            )
        } else {
            ("", "")
        };
        format!(
            "subroutine t(n, k, z, c, x, y, u)\n  integer, intent(in) :: n, k, z\n  \
             integer, intent(in) :: c(n)\n  real, intent(in) :: x(n)\n  \
             real, intent(inout) :: y(n)\n  real, intent(inout) :: u(n, n)\n  \
             real :: s\n  integer :: m, i, j\n{open}{body}{close}\nend subroutine\n"
        )
    };
    for (body, want) in &cases {
        for region in [false, true] {
            for (backend, got) in first_errors(&program(body, region), &bind) {
                assert_eq!(&got, want, "{backend}, region {region}: {body}");
            }
        }
    }
    // An atomic update exists only in a region; its target's subscript
    // is checked before its increment runs.
    let atomic = program("!$omp atomic\ny(n + 1) = y(n + 1) + k / z", true);
    for (backend, got) in first_errors(&atomic, &bind) {
        assert_eq!(got, oob("y"), "{backend}: atomic");
    }
    // A region's own bounds: `hi` fails before the zero step is seen.
    let region = program("s = 1.0", true).replace("do i = 1, 1", "do i = 1, k / z, 0");
    for (backend, got) in first_errors(&region, &bind) {
        assert_eq!(got, div, "{backend}: region bounds");
    }
}

/// Run a program on one backend at `T` threads; the error message.
type Runner = fn(&formad_ir::Program, &mut Bindings, usize) -> Result<(), String>;

/// sim, bytecode and AOT.
const BACKENDS: [(&str, Runner); 3] = [
    ("sim", |p, b, t| {
        run(p, b, &Machine::with_threads(t))
            .map(drop)
            .map_err(|e| e.message)
    }),
    ("bytecode", |p, b, t| {
        run_native(p, b, t).map_err(|e| e.message)
    }),
    ("aot", |p, b, t| {
        run_aot(p, b, t).map(drop).map_err(|e| e.message)
    }),
];

/// OpenMP allows one reduction clause per list item, and the backends
/// did not agree on a second (sim merged the last clause, native and AOT
/// another), so one name in two clauses is refused: by the validator,
/// and by the lowering every backend runs, with the bindings untouched.
#[test]
fn an_array_in_two_reduction_clauses() {
    let src = r#"
subroutine t(n, y)
  integer, intent(in) :: n
  real, intent(inout) :: y(n)
  integer :: i
  !$omp parallel do reduction(max: y) reduction(+: y)
  do i = 1, n
    y(1) = y(1) + 1.0
    y(i) = y(i) + 2.0
  end do
end subroutine
"#;
    let want = "`y` is named by two reduction clauses, `reduction(max: y)` and `reduction(+: y)`";
    let p = parse_program(src).unwrap();
    let errs = formad_ir::validate(&p);
    assert_eq!(errs.len(), 1, "{errs:?}");
    assert_eq!(errs[0].message, want);
    let y0 = vec![5.0, -1.0, 2.0, 3.0];
    for threads in [1usize, 3] {
        for (backend, runner) in BACKENDS {
            let mut b = Bindings::new().int("n", 4).real_array("y", y0.clone());
            let got = runner(&p, &mut b, threads);
            assert_eq!(got, Err(want.to_string()), "{backend}, T={threads}");
            assert_eq!(
                b.get_real_array("y"),
                Some(&y0[..]),
                "{backend}, T={threads}"
            );
        }
    }
}

/// A run that fails in the last iteration of its region, out of bounds
/// or popping an empty tape, leaves every parameter array in the
/// bindings under its name with its declared length and every scalar as
/// it was, on sim, bytecode and AOT: arrays are run in place, and scalars
/// are written back only by a run that succeeds.
#[test]
fn a_run_failing_in_its_last_iteration_keeps_the_bindings_whole() {
    let failing = [
        ("y(i + i / n) = 0.0", "out of bounds"),
        (
            "if (i .eq. n) then\n      call pop(v)\n    end if",
            "pop from empty real tape",
        ),
    ];
    for (last, expect) in failing {
        let src = format!(
            "subroutine t(n, k, a, x, y, s, c)
  integer, intent(in) :: n
  integer, intent(inout) :: k
  real, intent(inout) :: a
  real, intent(in) :: x(n)
  real, intent(inout) :: y(n)
  real, intent(inout) :: s(2)
  integer, intent(inout) :: c(n)
  integer :: i
  real :: v
  k = k + 1
  a = a * 2.0
  !$omp parallel do shared(x, y, c) private(v) reduction(+: s)
  do i = 1, n
    y(i) = y(i) + x(i)
    c(i) = c(i) + 1
    s(1) = s(1) + x(i)
    {last}
  end do
end subroutine
"
        );
        let p = parse_program(&src).unwrap();
        let n = 9;
        let bind = Bindings::new()
            .int("n", n)
            .int("k", 4)
            .real("a", 0.75)
            .real_array("x", (0..n).map(|i| i as f64 + 0.5).collect())
            .real_array("y", vec![1.0; n as usize])
            .real_array("s", vec![3.0, 4.0])
            .int_array("c", vec![7; n as usize]);
        for threads in [1usize, 2] {
            for (backend, runner) in BACKENDS {
                let what = format!("{expect} / {backend} / T={threads}");
                let mut b = bind.clone();
                let err = runner(&p, &mut b, threads).expect_err(&what);
                assert!(err.contains(expect), "{what}: {err}");
                assert_eq!(b.int_scalars, bind.int_scalars, "{what}");
                assert_eq!(b.real_scalars, bind.real_scalars, "{what}");
                for (name, len) in [("x", n as usize), ("y", n as usize), ("s", 2)] {
                    let got = b.get_real_array(name).map(<[f64]>::len);
                    assert_eq!(got, Some(len), "{what}: `{name}`");
                }
                assert_eq!(b.int_arrays["c"].len(), n as usize, "{what}: `c`");
            }
        }
    }
}

/// A successful interpreted run hands the caller back its own vectors,
/// a reduced array's included: the parameter arrays are run in place,
/// not copied in and out.
#[test]
fn a_successful_sim_run_returns_the_callers_vectors() {
    let src = r#"
subroutine t(n, x, y, s, c)
  integer, intent(in) :: n
  real, intent(in) :: x(n)
  real, intent(inout) :: y(n)
  real, intent(inout) :: s(2)
  integer, intent(inout) :: c(n)
  integer :: i
  !$omp parallel do shared(x, y, c) reduction(+: s)
  do i = 1, n
    y(i) = y(i) + x(i)
    c(i) = c(i) + 1
    s(1) = s(1) + x(i)
  end do
end subroutine
"#;
    let p = parse_program(src).unwrap();
    for threads in [1usize, 2] {
        let mut b = Bindings::new()
            .int("n", 5)
            .real_array("x", vec![1.0, 2.0, 3.0, 4.0, 5.0])
            .real_array("y", vec![1.0; 5])
            .real_array("s", vec![0.5, 0.0])
            .int_array("c", vec![0; 5]);
        let before: Vec<*const f64> = ["x", "y", "s"].map(|a| b.real_arrays[a].as_ptr()).to_vec();
        let c_before = b.int_arrays["c"].as_ptr();
        run(&p, &mut b, &Machine::with_threads(threads)).unwrap();
        let after: Vec<*const f64> = ["x", "y", "s"].map(|a| b.real_arrays[a].as_ptr()).to_vec();
        assert_eq!(before, after, "T={threads}");
        assert_eq!(c_before, b.int_arrays["c"].as_ptr(), "T={threads}");
        assert_eq!(b.get_real_array("s"), Some(&[15.5, 0.0][..]), "T={threads}");
        assert_eq!(b.get_real_array("y"), Some(&[2.0, 3.0, 4.0, 5.0, 6.0][..]));
        assert_eq!(b.int_arrays["c"], vec![1; 5]);
    }
}
