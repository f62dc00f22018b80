//! The reduction merge of `NativeEngine`, held bitwise against the
//! interpreter on bytecode and on AOT over a sequence of runs on one
//! engine. A thread's private copy of a reduced array holds the
//! operator's identity between regions and is refilled only when it
//! may not: after a region that failed, or when the next region reduces
//! with another identity. A copy left with partials, or marked clean
//! with the wrong identity, changes a later run's result, which is what
//! these runs would show.

use formad_ir::{parse_program, Program};
use formad_machine::{compile, load_or_compile, lower, run, Bindings, Machine, NativeEngine};

/// Extent of `x`; `n` only bounds the loops, so one compiled program
/// (and one AOT kernel) serves every iteration count.
const K: usize = 40_000;
/// Extent of `y`: 65 merge blocks, the last one partial.
const M: usize = 16_500;
/// Extent of `z`, reduced through the same slot as `y`.
const P: usize = 4_099;

/// Two regions, each reducing one array — so both through slot 0 — with
/// `op1` into `y(M)` and `op2` into `z(P)`. With `f = 1` the last
/// iteration of the second region indexes `z` out of bounds, after the
/// other threads have written their partials.
fn kernel(op1: &str, op2: &str) -> Program {
    let update = |op: &str, a: &str| match op {
        "min" | "max" => format!("{op}({a}(j), x(i))"),
        _ => format!("{a}(j) {op} x(i)"),
    };
    let src = format!(
        "subroutine red(n, k, m, p, f, x, y, z)\n  integer, intent(in) :: n, k, m, p, f\n  \
         real, intent(in) :: x(k)\n  real, intent(inout) :: y(m), z(p)\n  integer :: i, j\n  \
         !$omp parallel do shared(x) reduction({op1}: y) private(j)\n  do i = 1, n\n    \
         j = mod(i, m) + 1\n    y(j) = {}\n  end do\n  \
         !$omp parallel do shared(x) reduction({op2}: z) private(j)\n  do i = 1, n\n    \
         j = mod(i, p) + 1 + f * (i / n) * p\n    z(j) = {}\n  end do\nend subroutine\n",
        update(op1, "y"),
        update(op2, "z"),
    );
    parse_program(&src).expect("parse")
}

fn qnan(payload: u64) -> f64 {
    f64::from_bits(0x7ff8_0000_0000_0000 | payload)
}

fn snan(payload: u64) -> f64 {
    f64::from_bits(0x7ff0_0000_0000_0000 | payload)
}

/// Increments in `[0.5, 2)` of either sign — products of the ten or so
/// a cell of `z` meets stay finite — with `-0.0`, `0.0`, infinities and
/// one quiet and one signalling NaN at chosen iterations. Each cell of
/// `y` and of `z` meets at most one NaN payload, its initial value's
/// included: which of two payloads an operation propagates is the
/// hardware's choice, not the association's.
fn bindings(n: usize, f: i64) -> Bindings {
    let mut x: Vec<f64> = (1..=K)
        .map(|i| {
            let v = 0.5 + (i * 7919 % 1536) as f64 / 1024.0;
            if i % 3 == 0 {
                -v
            } else {
                v
            }
        })
        .collect();
    // `y(6)` and `y(8)` meet only zeros of the other sign than their
    // own: `0.0 + -0.0` is `+0.0`, and `min` / `max` of the two is
    // whichever operand the association puts first.
    for i in [5, 5 + M, 5 + 2 * M] {
        x[i - 1] = -0.0;
        x[i + 1] = 0.0;
    }
    x[101 - 1] = qnan(0x1234);
    x[202 - 1] = snan(0x55);
    x[303 - 1] = f64::INFINITY;
    x[404 - 1] = f64::NEG_INFINITY;
    let mut y: Vec<f64> = (0..M).map(|c| (c % 11) as f64 - 5.0).collect();
    y[6 - 1] = 0.0;
    y[8 - 1] = -0.0;
    y[50 - 1] = qnan(0xbeef);
    y[51 - 1] = snan(0x77);
    let mut z: Vec<f64> = (0..P).map(|c| 1.0 + (c % 5) as f64 / 4.0).collect();
    z[8 - 1] = -0.0;
    z[60 - 1] = snan(0x99);
    z[61 - 1] = qnan(0x42);
    Bindings::new()
        .int("n", n as i64)
        .int("k", K as i64)
        .int("m", M as i64)
        .int("p", P as i64)
        .int("f", f)
        .real_array("x", x)
        .real_array("y", y)
        .real_array("z", z)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Runs made in order on one engine: `(n, f)`. Two and five iterations
/// leave threads with an empty chunk at T = 3 and 5; `f = 1` fails in
/// the second region.
const RUNS: [(usize, i64); 9] = [
    (K, 0),
    (K, 0),
    (2, 0),
    (K, 1),
    (K, 0),
    (5, 0),
    (2, 1),
    (61, 0),
    (K, 0),
];

#[test]
fn merged_buffers_stay_clean_and_every_run_matches_the_interpreter() {
    let pairs = [
        ("+", "+"),
        ("*", "*"),
        ("min", "min"),
        ("max", "max"),
        ("+", "min"),
        ("max", "*"),
    ];
    for (op1, op2) in pairs {
        let p = kernel(op1, op2);
        let lp = lower(&p, &bindings(K, 0)).expect("lower");
        let bc = compile(&lp, &p).expect("compile");
        assert!(!bc.commit_order_dependent());
        let kernel = load_or_compile(&lp, &bc).expect("AOT must build in-tree");
        for threads in [1, 2, 3, 5] {
            for aot in [false, true] {
                let mut engine = NativeEngine::with_os_threads(threads, 2);
                let backend = if aot { "aot" } else { "bytecode" };
                for (step, (n, f)) in RUNS.into_iter().enumerate() {
                    let what = format!("({op1}, {op2}) T={threads} {backend} run {step}");
                    let mut want = bindings(n, f);
                    let sim = run(&p, &mut want, &Machine::with_threads(threads));
                    let mut got = bindings(n, f);
                    let native = engine.run_with(&bc, aot.then_some(&*kernel), &mut got);
                    match (sim, native) {
                        (Ok(_), Ok(())) => {
                            for a in ["y", "z"] {
                                assert!(
                                    bits(&got.real_arrays[a]) == bits(&want.real_arrays[a]),
                                    "{what}: `{a}` differs from the interpreter's"
                                );
                            }
                        }
                        (Err(s), Err(e)) => {
                            assert_eq!(s.message, e.message, "{what}");
                            assert!(e.message.contains("out of bounds"), "{what}: {e}");
                        }
                        (s, e) => panic!("{what}: interpreter {s:?}, engine {e:?}"),
                    }
                }
            }
        }
    }
}
