//! Integration tests driving the `formad` binary end to end.

use std::io::Write;
use std::process::Command;

fn formad(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_formad"))
        .args(args)
        .output()
        .expect("run formad");
    (
        String::from_utf8_lossy(&out.stdout).to_string(),
        String::from_utf8_lossy(&out.stderr).to_string(),
        out.status.success(),
    )
}

fn write_temp(name: &str, content: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("formad-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(content.as_bytes()).unwrap();
    path
}

const FIG2_F: &str = r#"
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

const FIG2_C: &str = r#"
void fig2(int n, const double x[n + 7], double y[n], const int c[n]) {
  int i;
  #pragma omp parallel for shared(x, y, c)
  for (i = 1; i <= n; i++) {
    y[c[i]] = x[c[i] + 7];
  }
}
"#;

const KERNEL_FIG2_C: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../kernels_src/fig2.c");
const KERNEL_FIG2_F: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../kernels_src/fig2.f90");

#[test]
fn analyze_fortran_dialect() {
    // A header comment that merely contains the C keyword ("avoid") must
    // not route the file to the C parser.
    let commented = format!("! avoid aliasing between x and y{FIG2_F}");
    for (name, src) in [("fig2.f90", FIG2_F), ("fig2-header.f90", &commented)] {
        let f = write_temp(name, src);
        let (out, err, ok) = formad(&["analyze", f.to_str().unwrap(), "--wrt", "x", "--of", "y"]);
        assert!(ok, "{name}: {err}");
        assert!(out.contains("adjoint of `x`: shared"), "{name}: {out}");
        assert!(out.contains("adjoint of `y`: shared"), "{name}: {out}");
    }
}

#[test]
fn analyze_c_dialect() {
    let commented = format!("/* subroutine fig2, C dialect */{FIG2_C}");
    for (name, src) in [("fig2.c", FIG2_C), ("fig2-header.c", &commented)] {
        let f = write_temp(name, src);
        let (out, err, ok) = formad(&["analyze", f.to_str().unwrap(), "--wrt", "x", "--of", "y"]);
        assert!(ok, "{name}: {err}");
        assert!(out.contains("shared (no atomics needed)"), "{name}: {out}");
    }
    // The two spellings of Figure 2 are one program: same report.
    let (in_c, _, _) = formad(&["analyze", KERNEL_FIG2_C, "--wrt", "x", "--of", "y"]);
    let (in_f, _, _) = formad(&["analyze", KERNEL_FIG2_F, "--wrt", "x", "--of", "y"]);
    assert!(in_c.contains("adjoint of `x`: shared"), "{in_c}");
    assert_eq!(strip_times(&in_c), strip_times(&in_f));
    // A C syntax error is a parse error (exit 3) that names tokens the way
    // the Fortran front end does.
    let broken = write_temp("broken.c", "void fig2 x(int n) {\n}\n");
    let args = [
        "analyze",
        broken.to_str().unwrap(),
        "--wrt",
        "x",
        "--of",
        "y",
    ];
    let (_, err, _) = formad(&args);
    assert!(err.contains("expected `(`, found identifier `x`"), "{err}");
    assert_eq!(formad_code(&args), 3);
}

#[test]
fn adjoint_output_is_the_paper_figure() {
    let f = write_temp("fig2b.f90", FIG2_F);
    let (out, _, ok) = formad(&["adjoint", f.to_str().unwrap(), "--wrt", "x", "--of", "y"]);
    assert!(ok);
    assert!(
        out.contains("xb(c(i) + 7) = xb(c(i) + 7) + yb(c(i))"),
        "{out}"
    );
    assert!(out.contains("yb(c(i)) = 0.0"), "{out}");
    assert!(!out.contains("atomic"), "{out}");
}

#[test]
fn adjoint_modes() {
    let f = write_temp("fig2c.f90", FIG2_F);
    let (atomic, _, ok) = formad(&[
        "adjoint",
        f.to_str().unwrap(),
        "--wrt",
        "x",
        "--of",
        "y",
        "--mode",
        "atomic",
    ]);
    assert!(ok);
    assert!(atomic.contains("!$omp atomic"), "{atomic}");
    let (serial, _, ok) = formad(&[
        "adjoint",
        f.to_str().unwrap(),
        "--wrt",
        "x",
        "--of",
        "y",
        "--mode",
        "serial",
    ]);
    assert!(ok);
    assert!(!serial.contains("!$omp"), "{serial}");
    let (red, _, ok) = formad(&[
        "adjoint",
        f.to_str().unwrap(),
        "--wrt",
        "x",
        "--of",
        "y",
        "--mode",
        "reduction",
    ]);
    assert!(ok);
    assert!(red.contains("reduction(+: xb)"), "{red}");
}

#[test]
fn table1_row_output() {
    let f = write_temp("fig2d.f90", FIG2_F);
    let (out, _, ok) = formad(&[
        "analyze",
        f.to_str().unwrap(),
        "--wrt",
        "x",
        "--of",
        "y",
        "--table1",
        "fig2",
    ]);
    assert!(ok);
    assert!(out.contains("queries"), "{out}");
    assert!(out.contains("fig2"), "{out}");
}

#[test]
fn versions_prints_all_four() {
    let f = write_temp("fig2e.f90", FIG2_F);
    let (out, _, ok) = formad(&["versions", f.to_str().unwrap(), "--wrt", "x", "--of", "y"]);
    assert!(ok);
    for label in ["FormAD", "serial", "atomic", "reduction"] {
        assert!(
            out.contains(&format!("adjoint ({label})")) || out.contains("adjoint (FormAD)"),
            "{label} missing:\n{out}"
        );
    }
}

#[test]
fn emit_c_dialect() {
    let f = write_temp("fig2h.f90", FIG2_F);
    let (out, _, ok) = formad(&[
        "adjoint",
        f.to_str().unwrap(),
        "--wrt",
        "x",
        "--of",
        "y",
        "--emit",
        "c",
    ]);
    assert!(ok);
    assert!(out.contains("void fig2_b("), "{out}");
    assert!(out.contains("xb[c[i] + 7] += yb[c[i]];"), "{out}");
    assert!(out.contains("#pragma omp parallel for"), "{out}");
    // Whichever dialect Figure 2 comes in, each `--emit` writes the same
    // bytes.
    for emit in ["fortran", "c"] {
        let adjoint =
            |file| formad(&["adjoint", file, "--wrt", "x", "--of", "y", "--emit", emit]).0;
        let from_c = adjoint(KERNEL_FIG2_C);
        assert!(from_c.contains("fig2_b("), "{emit}: {from_c}");
        assert_eq!(from_c, adjoint(KERNEL_FIG2_F), "--emit {emit}");
    }
    // Invalid dialect rejected.
    let (_, err, ok) = formad(&[
        "adjoint",
        f.to_str().unwrap(),
        "--wrt",
        "x",
        "--of",
        "y",
        "--emit",
        "rust",
    ]);
    assert!(!ok);
    assert!(err.contains("unknown emit dialect"), "{err}");
}

#[test]
fn usage_errors() {
    let (_, err, ok) = formad(&["analyze"]);
    assert!(!ok);
    assert!(err.contains("usage"), "{err}");
    let f = write_temp("fig2f.f90", FIG2_F);
    let (_, err, ok) = formad(&["bogus", f.to_str().unwrap(), "--wrt", "x", "--of", "y"]);
    assert!(!ok);
    assert!(err.contains("unknown command"), "{err}");
    let (_, err, ok) = formad(&[
        "analyze",
        "/nonexistent/file.f90",
        "--wrt",
        "x",
        "--of",
        "y",
    ]);
    assert!(!ok);
    assert!(err.contains("cannot read"), "{err}");
}

#[test]
fn parse_errors_reported() {
    let f = write_temp("broken.f90", "subroutine broken(\n");
    let (_, err, ok) = formad(&["analyze", f.to_str().unwrap(), "--wrt", "x", "--of", "y"]);
    assert!(!ok);
    assert!(
        err.contains("parse error") || err.contains("expected"),
        "{err}"
    );
}

#[test]
fn ablation_flags_accepted() {
    let f = write_temp("fig2g.f90", FIG2_F);
    let (out, _, ok) = formad(&[
        "analyze",
        f.to_str().unwrap(),
        "--wrt",
        "x",
        "--of",
        "y",
        "--no-stride",
        "--no-increment",
    ]);
    assert!(ok);
    assert!(out.contains("shared"), "{out}");
}

// ---------------------------------------------------------------------
// Exit-code contract and prover resource flags.
// ---------------------------------------------------------------------

fn formad_code(args: &[&str]) -> i32 {
    Command::new(env!("CARGO_BIN_EXE_formad"))
        .args(args)
        .output()
        .expect("run formad")
        .status
        .code()
        .expect("exit code")
}

#[test]
fn distinct_exit_codes_per_error_kind() {
    // Usage error → 2.
    assert_eq!(formad_code(&["analyze"]), 2);
    // Unreadable file → 2 (IO, not a pipeline kind).
    assert_eq!(
        formad_code(&[
            "analyze",
            "/nonexistent/file.f90",
            "--wrt",
            "x",
            "--of",
            "y"
        ]),
        2
    );
    // Parse failure → 3.
    let broken = write_temp("code3.f90", "subroutine broken(\n");
    assert_eq!(
        formad_code(&[
            "analyze",
            broken.to_str().unwrap(),
            "--wrt",
            "x",
            "--of",
            "y"
        ]),
        3
    );
    // Validation failure → 4 (use of an undeclared variable parses fine
    // but fails semantic checks).
    let invalid = write_temp(
        "code4.f90",
        "subroutine t(n)\n  integer, intent(in) :: n\n  integer :: i\n  \
         do i = 1, n\n    i = zzz\n  end do\nend subroutine\n",
    );
    assert_eq!(
        formad_code(&[
            "analyze",
            invalid.to_str().unwrap(),
            "--wrt",
            "n",
            "--of",
            "n"
        ]),
        4
    );
}

#[test]
fn prover_timeout_flag_accepted_and_validated() {
    let f = write_temp("timeout.f90", FIG2_F);
    // A generous timeout changes nothing on this easy problem.
    let (out, _, ok) = formad(&[
        "analyze",
        f.to_str().unwrap(),
        "--wrt",
        "x",
        "--of",
        "y",
        "--prover-timeout-ms",
        "5000",
    ]);
    assert!(ok);
    assert!(out.contains("shared (no atomics needed)"), "{out}");
    // Garbage value is a usage error, not a panic.
    let (_, err, ok) = formad(&[
        "analyze",
        f.to_str().unwrap(),
        "--wrt",
        "x",
        "--of",
        "y",
        "--prover-timeout-ms",
        "soon",
    ]);
    assert!(!ok);
    assert!(
        err.contains("--prover-timeout-ms expects an integer"),
        "{err}"
    );
}

/// Drop the wall-clock suffix from region header lines (`… N queries,
/// 0.002s`) so reports can be compared byte-for-byte across runs.
fn strip_times(report: &str) -> String {
    report
        .lines()
        .map(|l| match l.split_once(" queries, ") {
            Some((head, _)) => format!("{head} queries"),
            None => l.to_string(),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn jobs_flag_keeps_reports_identical() {
    // Proving is in-line; the flag survives only for the frozen benchmark
    // package, which passes `--jobs 1` and counts a non-zero exit as a
    // failed operation.
    let f = write_temp("jobs.f90", FIG2_F);
    let base = ["adjoint", f.to_str().unwrap(), "--wrt", "x", "--of", "y"];
    let (plain, plain_err, ok) = formad(&base);
    assert!(ok, "{plain_err}");
    let mut argv = base.to_vec();
    argv.extend_from_slice(&["--jobs", "1"]);
    let (flagged, err, ok) = formad(&argv);
    assert!(ok, "{err}");
    assert_eq!(plain, flagged);
    assert_eq!(strip_times(&plain_err), strip_times(&err));
    assert!(err.contains("shared (no atomics needed)"), "{err}");
    // Garbage value is a usage error, not a panic.
    let mut argv = base.to_vec();
    argv.extend_from_slice(&["--jobs", "many"]);
    let (_, err, ok) = formad(&argv);
    assert!(!ok);
    assert!(err.contains("--jobs expects an integer"), "{err}");
}

#[test]
fn stray_positional_is_a_usage_error() {
    // Only `explain` takes an `[ARRAY]` after FILE.
    for verb in ["analyze", "adjoint", "exec"] {
        let out = Command::new(env!("CARGO_BIN_EXE_formad"))
            .args([verb, KERNEL_FIG2_F, "junk", "--wrt", "x", "--of", "y"])
            .output()
            .expect("run formad");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{verb}: {err}");
        assert!(err.contains("unexpected argument `junk`"), "{verb}: {err}");
    }
}

#[test]
fn prove_is_an_alias_for_analyze() {
    let f = write_temp("prove.f90", FIG2_F);
    let (prove_out, _, ok) = formad(&["prove", f.to_str().unwrap(), "--wrt", "x", "--of", "y"]);
    assert!(ok);
    let (analyze_out, _, ok) = formad(&["analyze", f.to_str().unwrap(), "--wrt", "x", "--of", "y"]);
    assert!(ok);
    assert_eq!(strip_times(&prove_out), strip_times(&analyze_out));
}

#[test]
fn ad_failure_exits_5() {
    let f = write_temp("code5.f90", FIG2_F);
    assert_eq!(
        formad_code(&[
            "adjoint",
            f.to_str().unwrap(),
            "--wrt",
            "nosuch",
            "--of",
            "y"
        ]),
        5
    );
}

#[test]
fn escaped_prover_panic_exits_6() {
    let f = write_temp("code6.f90", FIG2_F);
    let out = Command::new(env!("CARGO_BIN_EXE_formad"))
        .args(["analyze", f.to_str().unwrap(), "--wrt", "x", "--of", "y"])
        .env("FORMAD_INTERNAL_PANIC", "1")
        .output()
        .expect("run formad");
    assert_eq!(out.status.code(), Some(6));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("internal panic escaped recovery"), "{err}");
}

#[test]
fn expired_deadline_exits_7() {
    let f = write_temp("code7.f90", FIG2_F);
    let out = Command::new(env!("CARGO_BIN_EXE_formad"))
        .args([
            "analyze",
            f.to_str().unwrap(),
            "--wrt",
            "x",
            "--of",
            "y",
            "--deadline-ms",
            "0",
        ])
        .output()
        .expect("run formad");
    assert_eq!(out.status.code(), Some(7));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("deadline"), "{err}");
    // Garbage value is a usage error, not a panic.
    let (_, err, ok) = formad(&[
        "analyze",
        f.to_str().unwrap(),
        "--wrt",
        "x",
        "--of",
        "y",
        "--deadline-ms",
        "later",
    ]);
    assert!(!ok);
    assert!(err.contains("--deadline-ms expects an integer"), "{err}");
}

#[test]
fn trace_file_is_written_and_schema_valid() {
    let f = write_temp("traced.f90", FIG2_F);
    let dir = std::env::temp_dir().join("formad-cli-tests");
    let path = dir.join("trace.json");
    let (_, err, ok) = formad(&[
        "analyze",
        f.to_str().unwrap(),
        "--wrt",
        "x",
        "--of",
        "y",
        "--trace",
        path.to_str().unwrap(),
    ]);
    assert!(ok, "{err}");
    let doc = std::fs::read_to_string(&path).unwrap();
    let summary = formad::validate_trace(&doc).expect("schema-valid trace");
    assert!(summary.queries > 0);
    assert!(summary
        .decisions
        .iter()
        .any(|d| d.array == "x" && d.decision == "shared"));
}

const AXPY_F: &str = r#"
subroutine axpy(n, a, x, y)
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
fn exec_runs_both_backends_with_identical_output() {
    let f = write_temp("axpy.f90", AXPY_F);
    let run_with = |backend: &str, threads: &str| {
        let (out, err, ok) = formad(&[
            "exec",
            f.to_str().unwrap(),
            "--set",
            "n=64,a=0.5",
            "--backend",
            backend,
            "--threads",
            threads,
        ]);
        assert!(ok, "{err}");
        assert!(err.contains(&format!("backend={backend}")), "{err}");
        out
    };
    let sim = run_with("sim", "1");
    assert!(sim.contains("y: len=64 sum="), "{sim}");
    // The bytecode executor is bitwise-identical to the interpreter, so
    // the printed sums match exactly — at any thread count.
    assert_eq!(sim, run_with("native", "1"));
    assert_eq!(sim, run_with("native", "4"));
    assert_eq!(sim, run_with("sim", "4"));
}

#[test]
fn exec_honors_the_shared_deadline_story() {
    // `exec` shares the analysis verbs' deadline contract: a pre-expired
    // global deadline is a hard exit-7 failure with a diagnostic, not a
    // silent success.
    let f = write_temp("axpy_dl.f90", AXPY_F);
    let out = Command::new(env!("CARGO_BIN_EXE_formad"))
        .args([
            "exec",
            f.to_str().unwrap(),
            "--set",
            "n=16,a=0.5",
            "--deadline-ms",
            "0",
        ])
        .output()
        .expect("run formad");
    assert_eq!(out.status.code(), Some(7));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("deadline"), "{err}");
    // A generous deadline leaves the run untouched.
    let (out, err, ok) = formad(&[
        "exec",
        f.to_str().unwrap(),
        "--set",
        "n=16,a=0.5",
        "--deadline-ms",
        "60000",
    ]);
    assert!(ok, "{err}");
    assert!(out.contains("y: len=16 sum="), "{out}");
}

#[test]
fn exec_runs_generated_adjoints() {
    // Close the loop: differentiate, write the adjoint out, execute it
    // natively. The adjoint of axpy seeds xb += a * yb.
    let f = write_temp("axpy2.f90", AXPY_F);
    let (adj, _, ok) = formad(&["adjoint", f.to_str().unwrap(), "--wrt", "x", "--of", "y"]);
    assert!(ok);
    let g = write_temp("axpy_b.f90", &adj);
    let (out, err, ok) = formad(&[
        "exec",
        g.to_str().unwrap(),
        "--set",
        "n=32,a=2.0",
        "--backend",
        "native",
        "--threads",
        "2",
    ]);
    assert!(ok, "{err}");
    assert!(out.contains("xb: len=32 sum="), "{out}");
    // An adjoint with tape statements runs from its C print too, to the
    // bits of its Fortran print.
    let f = write_temp(
        "sq.f90",
        "subroutine sq(n, x, y)\n  integer, intent(in) :: n\n  real, intent(in) :: x(n)\n  \
         real, intent(inout) :: y(n)\n  integer :: i\n  do i = 1, n\n    \
         y(i) = y(i) * y(i) * x(i)\n  end do\nend subroutine\n",
    );
    let exec_adjoint = |emit: &str, name: &str| {
        let file = f.to_str().unwrap();
        let (adj, _, ok) = formad(&["adjoint", file, "--wrt", "x", "--of", "y", "--emit", emit]);
        assert!(ok && adj.contains("pop(y"), "{adj}");
        let g = write_temp(name, &adj);
        let (out, err, ok) = formad(&["exec", g.to_str().unwrap(), "--set", "n=64"]);
        assert!(ok, "{err}");
        out
    };
    let out = exec_adjoint("c", "sq_b.c");
    assert!(out.contains("xb: len=64 sum="), "{out}");
    assert_eq!(out, exec_adjoint("fortran", "sq_b.f90"));
}

#[test]
fn exec_usage_errors() {
    let f = write_temp("axpy3.f90", AXPY_F);
    // Integer parameters cannot be defaulted (extents depend on them).
    let (_, err, ok) = formad(&["exec", f.to_str().unwrap()]);
    assert!(!ok);
    assert!(err.contains("integer parameter `n` needs a value"), "{err}");
    // Unknown backend is a usage error.
    assert_eq!(
        formad_code(&[
            "exec",
            f.to_str().unwrap(),
            "--set",
            "n=8",
            "--backend",
            "cuda"
        ]),
        2
    );
    // Setting a non-parameter is a usage error.
    let (_, err, ok) = formad(&["exec", f.to_str().unwrap(), "--set", "n=8,zz=1"]);
    assert!(!ok);
    assert!(err.contains("`zz` is not a parameter"), "{err}");
}

#[test]
fn exec_aot_backend_matches_sim_and_compile_prewarms() {
    let f = write_temp("axpy_aot.f90", AXPY_F);
    // Keep this test's kernel cache away from the developer's real one.
    let dir = std::env::temp_dir().join(format!("formad-cli-aot-{}", std::process::id()));
    let run_in = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_formad"))
            .args(args)
            .env("FORMAD_AOT_DIR", &dir)
            .output()
            .expect("run formad");
        (
            String::from_utf8_lossy(&out.stdout).to_string(),
            String::from_utf8_lossy(&out.stderr).to_string(),
            out.status.code(),
        )
    };
    // Prebuild: `formad compile` prints the artifact paths.
    let (out, err, code) = run_in(&["compile", f.to_str().unwrap(), "--set", "n=48,a=0.5"]);
    assert_eq!(code, Some(0), "{err}");
    assert!(out.contains("regions: 1"), "{out}");
    assert!(out.contains("cdylib:"), "{out}");
    assert!(out.contains("source:"), "{out}");
    let so = out
        .lines()
        .find_map(|l| l.strip_prefix("cdylib:"))
        .expect("cdylib line")
        .trim()
        .to_string();
    assert!(std::path::Path::new(&so).exists(), "missing artifact {so}");
    // A freestanding kernel is a few KiB; with `std` linked in it was 4 MB.
    let bytes: u64 = out
        .lines()
        .find_map(|l| l.strip_prefix("bytes:"))
        .expect("bytes line")
        .trim()
        .parse()
        .expect("a byte count");
    assert!(bytes > 0 && bytes <= 64 << 10, "{bytes}-byte cdylib");
    // The warmed cache serves `exec --backend aot`, bitwise equal to sim.
    let exec = |backend: &str| {
        let (out, err, code) = run_in(&[
            "exec",
            f.to_str().unwrap(),
            "--set",
            "n=48,a=0.5",
            "--backend",
            backend,
            "--threads",
            "2",
        ]);
        assert_eq!(code, Some(0), "{err}");
        assert!(err.contains(&format!("backend={backend}")), "{err}");
        (out, err)
    };
    let (sim, _) = exec("sim");
    let (aot, aot_err) = exec("aot");
    assert_eq!(sim, aot);
    assert!(
        !aot_err.contains("fell back"),
        "warmed cache must not fall back: {aot_err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exec_aot_falls_back_when_the_toolchain_is_broken() {
    // Degradation, not errors: with no usable `rustc` and a cold cache,
    // `exec --backend aot` lands on the bytecode backend, succeeds, and
    // prints the same outputs — plus a stderr note naming the reason.
    let f = write_temp("axpy_aotfail.f90", AXPY_F);
    let dir = std::env::temp_dir().join(format!("formad-cli-aotfail-{}", std::process::id()));
    let args = [
        "exec",
        f.to_str().unwrap(),
        "--set",
        "n=48,a=0.5",
        "--backend",
        "aot",
    ];
    let out = Command::new(env!("CARGO_BIN_EXE_formad"))
        .args(args)
        .env("FORMAD_AOT_DIR", &dir)
        .env("FORMAD_AOT_RUSTC", "/nonexistent/formad-test-rustc")
        .output()
        .expect("run formad");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{err}");
    assert!(err.contains("fell back to native bytecode"), "{err}");
    let (sim, _, ok) = formad(&[
        "exec",
        f.to_str().unwrap(),
        "--set",
        "n=48,a=0.5",
        "--backend",
        "sim",
    ]);
    assert!(ok);
    assert_eq!(sim, String::from_utf8_lossy(&out.stdout));
    let _ = std::fs::remove_dir_all(&dir);

    // `formad compile` has nothing to degrade to: same broken toolchain
    // is a hard usage/IO error (exit 2) with the compiler's diagnostic.
    let out = Command::new(env!("CARGO_BIN_EXE_formad"))
        .args(["compile", f.to_str().unwrap(), "--set", "n=48,a=0.5"])
        .env("FORMAD_AOT_DIR", &dir)
        .env("FORMAD_AOT_RUSTC", "/nonexistent/formad-test-rustc")
        .output()
        .expect("run formad");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains("failed to spawn"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Green-Gauss-shaped gather: the index scalar is recomputed, the branch
/// on it is evaluated again, and nothing of the primal is re-executed.
const GATHER_F: &str = r#"
subroutine gather(n, c, x, y)
  integer, intent(in) :: n
  integer, intent(in) :: c(n)
  real, intent(in) :: x(n)
  real, intent(inout) :: y(n)
  integer :: i, t
  !$omp parallel do shared(c, x, y) private(t)
  do i = 1, n
    t = c(i)
    if (t .gt. 1) then
      y(i) = y(i) + 2.0 * x(t)
    end if
  end do
end subroutine
"#;

#[test]
fn adjoint_statistics_reach_stderr_explain_and_the_trace() {
    let f = write_temp("gather.f90", GATHER_F);
    let file = f.to_str().unwrap();
    let line = "forward sweep keeps 0 of 4 statements / 0 push sites / \
                1 branches re-evaluated / recomputed: t";

    // `adjoint`: one stderr line beside the search-core line.
    let (out, err, ok) = formad(&["adjoint", file, "--wrt", "x", "--of", "y"]);
    assert!(ok, "{err}");
    assert!(
        err.contains("formad: search core: 0 propagations / 0 conflicts / "),
        "{err}"
    );
    assert!(err.contains(&format!("formad: adjoint: {line}")), "{err}");
    assert!(!out.contains("push"), "{out}");

    // `explain`: the program's line and the narrated region's.
    let (out, _, ok) = formad(&["explain", file, "--wrt", "x", "--of", "y"]);
    assert!(ok);
    assert!(
        out.contains(&format!("adjoint of the program: {line}")),
        "{out}"
    );
    assert!(
        out.contains(&format!("adjoint of region 0: {line}")),
        "{out}"
    );

    // `--trace`: two `adjoint` events in the deterministic section, after
    // the AD phase, and the document still validates.
    let trace = std::env::temp_dir().join("formad-cli-tests/gather-trace.json");
    let (_, err, ok) = formad(&[
        "adjoint",
        file,
        "--wrt",
        "x",
        "--of",
        "y",
        "--trace",
        trace.to_str().unwrap(),
    ]);
    assert!(ok, "{err}");
    let doc = std::fs::read_to_string(&trace).unwrap();
    formad::validate_trace(&doc).expect("trace validates");
    let ad = doc.find("\"id\": \"phase/ad\"").expect("AD phase recorded");
    let whole = doc
        .find("{\"ev\": \"adjoint\", \"id\": \"adjoint\", \"fwd_kept\": 0, \"fwd_dropped\": 4")
        .expect("program-level adjoint event");
    let region = doc
        .find("\"id\": \"r0/adjoint\", \"region\": 0, \"fwd_kept\": 0, \"fwd_dropped\": 4")
        .expect("per-region adjoint event");
    assert!(ad < whole && whole < region, "{doc}");
    assert!(doc.contains("\"recomputed\": [\"t\"], \"branches_reevaluated\": 1"));
}

#[test]
fn explain_narrates_decisions() {
    let f = write_temp("explain.f90", FIG2_F);
    let (out, _, ok) = formad(&["explain", f.to_str().unwrap(), "--wrt", "x", "--of", "y"]);
    assert!(ok);
    assert!(out.contains("proof narrative for `x`"), "{out}");
    assert!(out.contains("proof narrative for `y`"), "{out}");
    assert!(out.contains("shared (no atomics needed)"), "{out}");
    // Narrowed to one array: the other's narrative disappears.
    let (only_x, _, ok) = formad(&[
        "explain",
        f.to_str().unwrap(),
        "x",
        "--wrt",
        "x",
        "--of",
        "y",
    ]);
    assert!(ok);
    assert!(only_x.contains("proof narrative for `x`"), "{only_x}");
    assert!(!only_x.contains("proof narrative for `y`"), "{only_x}");
    // An unknown array is reported, not silently empty.
    let (missing, _, ok) = formad(&[
        "explain",
        f.to_str().unwrap(),
        "zz",
        "--wrt",
        "x",
        "--of",
        "y",
    ]);
    assert!(ok);
    assert!(missing.contains("no decision recorded"), "{missing}");
}

#[test]
fn zero_timeout_degrades_but_stays_correct() {
    // With a 0ms allowance every query times out; the analysis must still
    // complete, keeping all safeguards, and the adjoint must still be
    // generated (with atomics) — degradation, not failure.
    let f = write_temp("timeout0.f90", FIG2_F);
    let (out, err, ok) = formad(&[
        "adjoint",
        f.to_str().unwrap(),
        "--wrt",
        "x",
        "--of",
        "y",
        "--prover-timeout-ms",
        "0",
    ]);
    assert!(ok, "degradation must not be an error: {err}");
    assert!(out.contains("xb(c(i) + 7)"), "{out}");
    assert!(
        out.contains("atomic"),
        "timed-out analysis must keep atomics: {out}"
    );
    assert!(
        err.contains("timed-out") || err.contains("guarded"),
        "{err}"
    );
}

#[test]
fn serve_starts_answers_and_shuts_down_over_the_wire() {
    use std::io::{BufRead, BufReader, Read};
    use std::net::TcpStream;

    let mut child = Command::new(env!("CARGO_BIN_EXE_formad"))
        .args(["serve", "--addr", "127.0.0.1:0"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn formad serve");
    // The bound address is the first stdout line.
    let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
    let banner = lines.next().unwrap().unwrap();
    let addr = banner
        .rsplit(' ')
        .next()
        .unwrap_or_else(|| panic!("no address in banner `{banner}`"))
        .to_string();

    let post = |path: &str, body: &str| -> (u16, String) {
        let mut s = TcpStream::connect(&addr).expect("connect to daemon");
        s.write_all(
            format!(
                "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();
        let mut text = String::new();
        s.read_to_string(&mut text).unwrap();
        let status = text.split_whitespace().nth(1).unwrap().parse().unwrap();
        let body = text.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
        (status, body)
    };

    let program = FIG2_F.replace('\n', "\\n").replace('"', "\\\"");
    let (status, body) = post(
        "/v1/prove",
        &format!(r#"{{"program":"{program}","wrt":"x","of":"y"}}"#),
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"ok\":true"), "{body}");
    assert!(body.contains("fig2"), "{body}");

    let (status, _) = post("/v1/shutdown", "{}");
    assert_eq!(status, 200);
    let out = child.wait_with_output().expect("daemon exit");
    assert!(
        out.status.success(),
        "daemon exited nonzero: {:?}",
        out.status
    );
}

// ---- zero-parallel-region AOT path ----

const SEQ_F: &str = r#"
subroutine seq(n, x, y)
  integer, intent(in) :: n
  real, intent(in) :: x(n)
  real, intent(inout) :: y(n)
  integer :: i
  do i = 1, n
    y(i) = y(i) + 2.0 * x(i)
  end do
end subroutine
"#;

/// Run the binary with `FORMAD_AOT_DIR` pointed at a fresh directory so
/// the test can assert no kernel artifacts were produced.
fn formad_with_aot_dir(args: &[&str], dir: &std::path::Path) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_formad"))
        .args(args)
        .env("FORMAD_AOT_DIR", dir)
        .output()
        .expect("run formad");
    (
        String::from_utf8_lossy(&out.stdout).to_string(),
        String::from_utf8_lossy(&out.stderr).to_string(),
        out.status.success(),
    )
}

#[test]
fn exec_aot_without_parallel_regions_is_clean() {
    let f = write_temp("seq_aot.f90", SEQ_F);
    let dir = std::env::temp_dir().join(format!("formad-aot-none-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (out, err, ok) = formad_with_aot_dir(
        &[
            "exec",
            f.to_str().unwrap(),
            "--backend",
            "aot",
            "--set",
            "n=6",
        ],
        &dir,
    );
    assert!(ok, "{err}");
    assert!(
        !err.contains("fell back"),
        "no fallback note for a program with nothing to compile: {err}"
    );
    // The rustc pipeline never ran: no kernel source/cdylib artifacts.
    let artifacts = std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0);
    assert_eq!(artifacts, 0, "no AOT artifacts for a region-free program");
    // Bitwise-identical to the sim backend, as for every exec path.
    let (sim, _, sim_ok) = formad(&["exec", f.to_str().unwrap(), "--set", "n=6"]);
    assert!(sim_ok);
    assert_eq!(out, sim);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compile_without_parallel_regions_is_clean() {
    let f = write_temp("seq_compile.f90", SEQ_F);
    let dir = std::env::temp_dir().join(format!("formad-aot-none-c-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (out, err, ok) =
        formad_with_aot_dir(&["compile", f.to_str().unwrap(), "--set", "n=6"], &dir);
    assert!(ok, "{err}");
    assert!(out.contains("regions: 0"), "{out}");
    assert!(out.contains("nothing to compile"), "{out}");
    let artifacts = std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0);
    assert_eq!(artifacts, 0, "no AOT artifacts for a region-free program");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- formad fuzz ----

#[test]
fn fuzz_smoke_is_deterministic_and_clean() {
    let args = ["fuzz", "--seed", "42", "--cases", "8", "--smoke"];
    let (a, a_err, ok) = formad(&args);
    assert!(ok, "{a}\n{a_err}");
    assert!(a.contains("fuzz: 8 cases, 0 divergences"), "{a}");
    let (b, _, ok2) = formad(&args);
    assert!(ok2);
    assert_eq!(a, b, "same seed and flags must be byte-identical on stdout");
}

#[test]
fn fuzz_chaos_legacy_diverges_and_reproducers_replay() {
    let corpus = std::env::temp_dir().join(format!("formad-fuzz-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&corpus);
    let (out, err, ok) = formad(&[
        "fuzz",
        "--seed",
        "42",
        "--cases",
        "2",
        "--smoke",
        "--chaos-legacy",
        "1000",
        "--corpus",
        corpus.to_str().unwrap(),
    ]);
    assert!(!ok, "poisoned oracle must exit nonzero:\n{out}\n{err}");
    assert!(out.contains("DIVERGENCE [cross-core]"), "{out}");
    let file = std::fs::read_dir(&corpus)
        .expect("corpus written")
        .next()
        .expect("one reproducer")
        .unwrap()
        .path();
    let (rout, _, rok) = formad(&["fuzz", "--repro", file.to_str().unwrap()]);
    assert!(!rok, "replayed reproducer still diverges");
    assert!(rout.contains("reproduces: [cross-core]"), "{rout}");
    let _ = std::fs::remove_dir_all(&corpus);
}

#[test]
fn fuzz_rejects_unknown_options() {
    let (_, err, ok) = formad(&["fuzz", "--bogus"]);
    assert!(!ok);
    assert!(err.contains("unknown fuzz option"), "{err}");
}

/// Fresh per-test durable cache directory (removed and recreated so
/// reruns start cold).
fn temp_cache_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("formad-cli-cache-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn cache_dir_warm_run_serves_from_disk() {
    let f = write_temp("warmdisk.f90", FIG2_F);
    let dir = temp_cache_dir("warm");
    let argv = [
        "analyze",
        f.to_str().unwrap(),
        "--wrt",
        "x",
        "--of",
        "y",
        "--cache-dir",
        dir.to_str().unwrap(),
    ];
    let (cold_out, cold_err, ok) = formad(&argv);
    assert!(ok, "{cold_err}");
    assert!(cold_err.contains("disk cache"), "{cold_err}");
    assert!(
        cold_err.contains("0 regions fingerprint-served"),
        "cold run must not be served: {cold_err}"
    );
    let (warm_out, warm_err, ok) = formad(&argv);
    assert!(ok, "{warm_err}");
    // The warm run replays the recorded decision set for the (single)
    // unchanged region instead of re-enumerating queries...
    assert!(
        warm_err.contains("1 regions fingerprint-served"),
        "{warm_err}"
    );
    // ...and the report stays byte-identical to the cold run.
    assert_eq!(strip_times(&cold_out), strip_times(&warm_out));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_dir_corruption_degrades_to_cold_miss() {
    let f = write_temp("corruptdisk.f90", FIG2_F);
    let dir = temp_cache_dir("corrupt");
    let argv = [
        "analyze",
        f.to_str().unwrap(),
        "--wrt",
        "x",
        "--of",
        "y",
        "--cache-dir",
        dir.to_str().unwrap(),
    ];
    let (cold_out, _, ok) = formad(&argv);
    assert!(ok);
    // Vandalize every cache file: garbage bytes, no version header.
    for entry in std::fs::read_dir(&dir).unwrap() {
        std::fs::write(entry.unwrap().path(), b"\x00\xffnot a cache file").unwrap();
    }
    let (trashed_out, trashed_err, ok) = formad(&argv);
    assert!(ok, "corrupt cache must never fail a run: {trashed_err}");
    assert_eq!(strip_times(&cold_out), strip_times(&trashed_out));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_verb_usage_and_missing_dir() {
    assert_eq!(formad_code(&["cache"]), 2);
    assert_eq!(formad_code(&["cache", "bogus"]), 2);
    assert_eq!(formad_code(&["cache", "stats", "--cache-dir"]), 2);
    assert_eq!(
        formad_code(&[
            "cache",
            "stats",
            "--cache-dir",
            "/nonexistent/formad-cache-xyz"
        ]),
        2
    );
    assert_eq!(
        formad_code(&[
            "cache",
            "clear",
            "--cache-dir",
            "/nonexistent/formad-cache-xyz"
        ]),
        2
    );
}

#[test]
fn cache_verb_stats_verify_clear_ladder() {
    let f = write_temp("cacheverb.f90", FIG2_F);
    let dir = temp_cache_dir("verb");
    let d = dir.to_str().unwrap();
    let (_, err, ok) = formad(&[
        "analyze",
        f.to_str().unwrap(),
        "--wrt",
        "x",
        "--of",
        "y",
        "--cache-dir",
        d,
    ]);
    assert!(ok, "{err}");
    let (out, _, ok) = formad(&["cache", "stats", "--cache-dir", d]);
    assert!(ok, "{out}");
    assert!(out.contains("format:         formad-fpi/v1"), "{out}");
    assert!(out.contains("fingerprints:   1 record(s)"), "{out}");
    let (out, _, ok) = formad(&["cache", "verify", "--cache-dir", d]);
    assert!(ok, "{out}");
    assert!(out.contains("write errors:   0"), "{out}");
    assert!(out.contains("verify: clean"), "{out}");
    // A stale shard file of the deleted proof store is not the index's
    // business: neither read nor flagged.
    std::fs::write(dir.join("proof-00.fsc"), "formad-proofcache/v1\n").unwrap();
    assert_eq!(formad_code(&["cache", "verify", "--cache-dir", d]), 0);
    // Tear the tail off the index: `verify` flags it (exit 1) even
    // though analysis runs would just treat it as a cold miss.
    let index = dir.join("fingerprints.fpi");
    let healthy = std::fs::read(&index).unwrap();
    std::fs::write(&index, &healthy[..healthy.len() - 3]).unwrap();
    let (out, _, ok) = formad(&["cache", "verify", "--cache-dir", d]);
    assert!(!ok, "{out}");
    assert!(
        out.contains("corrupt:        1 fingerprint record(s)"),
        "{out}"
    );
    // So does an index of another format version.
    std::fs::write(&index, "formad-fpi/v999\n").unwrap();
    let (out, _, ok) = formad(&["cache", "verify", "--cache-dir", d]);
    assert!(!ok, "{out}");
    assert!(out.contains("bad version:"), "{out}");
    // `clear` removes only the index file and leaves the dir.
    let (out, _, ok) = formad(&["cache", "clear", "--cache-dir", d]);
    assert!(ok, "{out}");
    assert!(dir.join("proof-00.fsc").exists());
    let (out, _, ok) = formad(&["cache", "stats", "--cache-dir", d]);
    assert!(ok, "{out}");
    assert!(out.contains("fingerprints:   0 record(s)"), "{out}");
    let _ = std::fs::remove_dir_all(&dir);
}
