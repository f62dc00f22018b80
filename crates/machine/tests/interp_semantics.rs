//! Language-semantics tests of the execution substrate: Fortran loop
//! rules, sharing clauses, tape discipline across regions, and the exact
//! event counters.

use formad_ir::parse_program;
use formad_machine::{run, Bindings, Machine};

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
