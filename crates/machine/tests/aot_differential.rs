//! The AOT differential wall: every generated adjoint version of every
//! executable Table-2 kernel, run through the AOT native backend, must
//! satisfy the determinism contract (`formad_machine::differential`)
//! against the simulated interpreter at 1 and 4 logical threads — the
//! gate `bench/tests/native_kernels.rs` holds too.
//!
//! The same test reads the generated source: the proof reaches the
//! FormAD adjoints as plain stores, and no discipline without one stores
//! plainly. The trust-boundary tests below hold the second half for
//! programs that carry no proof: a primal read from text, an explicit
//! treatment and an adjoint that went through text.
//!
//! A second test forces kernel compilation to fail (by pointing
//! `FORMAD_AOT_RUSTC` at a nonexistent binary and the cache at an empty
//! directory) and proves the degradation contract: the run still
//! succeeds, its regions on the interpreter's path, with identical
//! results. The same
//! contract holds when the cache holds an artifact built from another
//! source, or is a directory other users can write to.

use std::collections::BTreeSet;
use std::sync::Mutex;

use formad::{Formad, FormadOptions, IncMode, ParallelTreatment};
use formad_ir::{parse_any, program_to_string, Program};
use formad_kernels::{GfmcCase, GreenGaussCase, LbmExecCase, StencilCase};
use formad_machine::aot::generate_source;
use formad_machine::{
    adjoint_bindings, check_cell, compile, load_or_compile, lower, run, run_aot, Bindings, Compare,
    EngineCache, LProgram, Machine,
};

/// `FORMAD_AOT_RUSTC`/`FORMAD_AOT_DIR` are process-global; tests that
/// compile kernels serialize on this so the forced-failure test cannot
/// poison a concurrent real compile.
static AOT_ENV: Mutex<()> = Mutex::new(());

struct Case {
    name: &'static str,
    program: Program,
    base: Bindings,
    indep: &'static [&'static str],
    dep: &'static [&'static str],
}

fn cases() -> Vec<Case> {
    let st1 = StencilCase::small(48, 2);
    let st8 = StencilCase::large(48, 1);
    let gf = GfmcCase::new(8, 1);
    let gg = GreenGaussCase::linear(40, 2);
    let lbm = LbmExecCase::new(60, 96);
    vec![
        Case {
            name: "stencil r=1",
            program: st1.ir(),
            base: st1.bindings(7),
            indep: StencilCase::independents(),
            dep: StencilCase::dependents(),
        },
        Case {
            name: "stencil r=8",
            program: st8.ir(),
            base: st8.bindings(7),
            indep: StencilCase::independents(),
            dep: StencilCase::dependents(),
        },
        Case {
            name: "gfmc",
            program: gf.ir(),
            base: gf.bindings_split(7),
            indep: GfmcCase::independents(),
            dep: GfmcCase::dependents(),
        },
        Case {
            name: "green-gauss",
            program: gg.ir(),
            base: gg.bindings(7),
            indep: GreenGaussCase::independents(),
            dep: GreenGaussCase::dependents(),
        },
        Case {
            name: "lbm",
            program: lbm.ir(),
            base: lbm.bindings(7),
            indep: LbmExecCase::independents(),
            dep: LbmExecCase::dependents(),
        },
    ]
}

/// What one region function of a kernel source does with each array,
/// by `ArrId`: the arrays it writes (a store, an increment or a CAS) and
/// the arrays it touches with a plain load or store.
#[derive(Debug, Default)]
struct RegionText {
    written: BTreeSet<u32>,
    plain: BTreeSet<u32>,
}

impl RegionText {
    /// Arrays written here and also accessed plainly.
    fn plain_written(&self) -> Vec<u32> {
        self.written.intersection(&self.plain).copied().collect()
    }
}

/// Read each `formad_region_<k>` of `src`. An element access is
/// `*(ap<id>.add(…))`; a cell is that place behind `&`, a plain access
/// is not. A line that starts with a plain place stores to it.
fn region_texts(src: &str) -> Vec<RegionText> {
    src.split("fn formad_region_")
        .skip(1)
        .map(|body| {
            let mut r = RegionText::default();
            for line in body.lines().map(str::trim) {
                let stores = line.starts_with("*(ap")
                    || line.contains(".store(")
                    || line.contains(": &AtomicU64 = ");
                for (at, _) in line.match_indices("*(ap") {
                    let digits: String = line[at + 4..]
                        .chars()
                        .take_while(char::is_ascii_digit)
                        .collect();
                    let Ok(id) = digits.parse::<u32>() else {
                        continue;
                    };
                    if stores {
                        r.written.insert(id);
                    }
                    if !line[..at].ends_with('&') {
                        r.plain.insert(id);
                    }
                }
            }
            r
        })
        .collect()
}

/// The kernel source of `prog` bound to `bind`.
fn kernel_text(prog: &Program, bind: &Bindings) -> (LProgram, Vec<RegionText>) {
    let lp = lower(prog, bind).expect("lower");
    let src = generate_source(&lp).expect("codegen");
    let texts = region_texts(&src);
    assert_eq!(texts.len(), lp.regions.len());
    (lp, texts)
}

/// No region of `prog`'s kernel accesses an array it writes plainly.
fn assert_cells_for_written(what: &str, prog: &Program, bind: &Bindings) {
    let (lp, texts) = kernel_text(prog, bind);
    for (k, r) in texts.iter().enumerate() {
        let names: Vec<&str> = r
            .plain_written()
            .iter()
            .map(|&id| lp.arrays[id as usize].name.as_str())
            .collect();
        assert!(
            names.is_empty(),
            "{what}: region {k} writes {names:?} with plain accesses"
        );
    }
}

/// The three increment disciplines plus the primal (the same set
/// `formad-bench`'s `ProgramVersions` benches, minus the serial
/// variants, which have no parallel regions for AOT to compile).
fn versions(case: &Case) -> Vec<(&'static str, Program)> {
    let tool = Formad::new(FormadOptions::new(case.indep, case.dep));
    let diff = tool.differentiate(&case.program).expect("formad pipeline");
    vec![
        ("primal", case.program.clone()),
        ("adj-FormAD", diff.adjoint),
        (
            "adj-atomic",
            tool.adjoint_with(&case.program, ParallelTreatment::Uniform(IncMode::Atomic))
                .expect("atomic adjoint"),
        ),
        (
            "adj-reduction",
            tool.adjoint_with(
                &case.program,
                ParallelTreatment::Uniform(IncMode::Reduction),
            )
            .expect("reduction adjoint"),
        ),
    ]
}

#[test]
fn all_kernels_all_disciplines_bitwise_aot() {
    let _guard = AOT_ENV.lock().unwrap_or_else(|p| p.into_inner());
    let mut engines = EngineCache::new();
    for case in cases() {
        let adj_base = adjoint_bindings(&case.program, &case.base, case.indep, case.dep);
        for (label, prog) in versions(&case) {
            let bind = if label == "primal" {
                &case.base
            } else {
                &adj_base
            };
            let (lp, texts) = kernel_text(&prog, bind);
            match label {
                "adj-FormAD" => assert!(
                    texts.iter().any(|r| !r.plain_written().is_empty()),
                    "{}: the proof did not reach a plain store",
                    case.name
                ),
                "adj-atomic" | "adj-reduction" => {
                    assert_cells_for_written(&format!("{} / {label}", case.name), &prog, bind)
                }
                _ => {}
            }
            let bc = compile(&lp, &prog).expect("host program");
            let kernel = load_or_compile(&lp, &bc)
                .unwrap_or_else(|e| panic!("{} / {label}: AOT must build in-tree: {e}", case.name));
            assert_eq!(kernel.region_count(), bc.region_count());
            for threads in [1usize, 4] {
                check_cell(&mut engines, &prog, &bc, Some(&kernel), bind, threads)
                    .unwrap_or_else(|e| panic!("{} / {label}: {e}", case.name));
            }
        }
    }
}

/// Degradation, not errors: with a broken `rustc` and a cold cache the
/// AOT entry point must run the regions on the interpreter's path,
/// succeed, and produce bitwise-identical results.
#[test]
fn forced_compile_failure_falls_back_to_sim() {
    let _guard = AOT_ENV.lock().unwrap_or_else(|p| p.into_inner());
    // Cold cache + unusable compiler: the extents are baked into the
    // generated source, so a size no other test binds guarantees the
    // in-process registry misses, and the fresh cache dir guarantees the
    // disk lookup misses — the build must actually run, and fail.
    let st = StencilCase::small(37, 1);
    let prog = st.ir();
    let base = st.bindings(13);
    let dir = std::env::temp_dir().join(format!("formad-aot-failtest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::env::set_var("FORMAD_AOT_DIR", &dir);
    std::env::set_var("FORMAD_AOT_RUSTC", "/nonexistent/formad-test-rustc");
    let result = (|| {
        let mut sim = base.clone();
        run(&prog, &mut sim, &Machine::with_threads(4))?;
        let mut aot = base.clone();
        let fallback = run_aot(&prog, &mut aot, 4)?;
        Ok::<_, formad_machine::ExecError>((sim, aot, fallback))
    })();
    std::env::remove_var("FORMAD_AOT_RUSTC");
    std::env::remove_var("FORMAD_AOT_DIR");
    let _ = std::fs::remove_dir_all(&dir);
    let (sim, aot, fallback) = result.expect("fallback run must succeed");
    let reason = fallback.expect("compile failure must be reported as a fallback reason");
    assert!(
        reason.contains("failed to spawn"),
        "unexpected fallback reason: {reason}"
    );
    assert_eq!(
        sim.first_difference(&aot, Compare::Bitwise),
        None,
        "forced-failure fallback: sim vs aot"
    );
}

/// A failing `rustc` whose stderr has a multi-byte character across byte
/// 2000 (every generated source opens with a comment containing `—`,
/// which rustc echoes in diagnostics): shortening the message must not
/// split the character. The run degrades like any other compile failure.
#[cfg(unix)]
#[test]
fn rustc_stderr_is_cut_at_a_char_boundary() {
    use std::os::unix::fs::PermissionsExt;

    let _guard = AOT_ENV.lock().unwrap_or_else(|p| p.into_inner());
    // A size no other test binds, for the reason given above.
    let st = StencilCase::small(41, 1);
    let prog = st.ir();
    let base = st.bindings(13);
    let dir = std::env::temp_dir().join(format!("formad-aot-cuttest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    // 1999 ASCII bytes, then `é` (bytes 1999..2001), then more.
    let fake = dir.join("fake-rustc.sh");
    let script = "#!/bin/sh\nhead -c 1999 /dev/zero | tr '\\0' 'x' >&2\nprintf 'é and more\\n' >&2\nexit 1\n";
    std::fs::write(&fake, script).expect("write fake rustc");
    std::fs::set_permissions(&fake, std::fs::Permissions::from_mode(0o755)).expect("chmod");
    std::env::set_var("FORMAD_AOT_DIR", dir.join("cache"));
    std::env::set_var("FORMAD_AOT_RUSTC", &fake);
    let result = std::panic::catch_unwind(|| {
        let mut sim = base.clone();
        run(&prog, &mut sim, &Machine::with_threads(4))?;
        let mut aot = base.clone();
        let fallback = run_aot(&prog, &mut aot, 4)?;
        Ok::<_, formad_machine::ExecError>((sim, aot, fallback))
    });
    std::env::remove_var("FORMAD_AOT_RUSTC");
    std::env::remove_var("FORMAD_AOT_DIR");
    let _ = std::fs::remove_dir_all(&dir);
    let (sim, aot, fallback) = result
        .expect("run_aot must not unwind")
        .expect("fallback run must succeed");
    let reason = fallback.expect("compile failure must be reported as a fallback reason");
    assert!(
        reason.contains("rustc failed"),
        "unexpected fallback reason: {reason}"
    );
    assert!(reason.ends_with("x …"), "cut below the `é`: {reason}");
    assert_eq!(
        sim.first_difference(&aot, Compare::Bitwise),
        None,
        "cut-stderr fallback: sim vs aot"
    );
}

/// `y(i) = y(i) <op> a * x(i)` over one parallel region.
fn axpy(name: &str, op: char) -> Program {
    parse_any(&format!(
        "subroutine {name}(n, a, x, y)
  integer, intent(in) :: n
  real, intent(in) :: a
  real, intent(in) :: x(n)
  real, intent(inout) :: y(n)
  integer :: i
  !$omp parallel do shared(x, y)
  do i = 1, n
    y(i) = y(i) {op} a * x(i)
  end do
end subroutine
"
    ))
    .expect("parse")
}

fn axpy_bindings(n: usize) -> Bindings {
    Bindings::new()
        .int("n", n as i64)
        .real("a", 1.5)
        .real_array("x", (0..n).map(|i| 0.25 * i as f64).collect())
        .real_array("y", (0..n).map(|i| 1.0 / (1 + i) as f64).collect())
}

/// Run `prog` on sim and on AOT at 2 threads with the cache in `dir`;
/// return the fallback reason after checking the two agree bitwise.
fn aot_fallback_in(dir: &std::path::Path, prog: &Program, bind: &Bindings) -> Option<String> {
    std::env::set_var("FORMAD_AOT_DIR", dir);
    let mut sim = bind.clone();
    run(prog, &mut sim, &Machine::with_threads(2)).expect("sim");
    let mut aot = bind.clone();
    let fallback = run_aot(prog, &mut aot, 2);
    std::env::remove_var("FORMAD_AOT_DIR");
    let fallback = fallback.expect("an AOT run succeeds, degraded or not");
    assert_eq!(
        sim.first_difference(&aot, Compare::Bitwise),
        None,
        "{}: sim vs aot (fallback {fallback:?})",
        prog.name
    );
    fallback
}

/// A kernel that calls every libm function codegen emits builds in a
/// fresh cache directory, so `ld` links it here, loads, and matches sim
/// bitwise, NaN results included: glibc defines `exp`, `log` and `pow`
/// twice, and a kernel bound to the other definition than the
/// interpreters' returns NaNs with other bits.
#[test]
fn a_kernel_calling_all_of_libm_links_and_matches_sim() {
    let _guard = AOT_ENV.lock().unwrap_or_else(|p| p.into_inner());
    let prog = parse_any(
        "subroutine libm_all(n, x, w, y)
  integer, intent(in) :: n
  real, intent(in) :: x(n)
  real, intent(in) :: w(n)
  real, intent(inout) :: y(n, 7)
  integer :: i
  !$omp parallel do shared(x, w, y)
  do i = 1, n
    y(i, 1) = sin(x(i))
    y(i, 2) = cos(x(i))
    y(i, 3) = exp(x(i))
    y(i, 4) = log(x(i))
    y(i, 5) = sqrt(x(i))
    y(i, 6) = tanh(x(i))
    y(i, 7) = x(i) ** w(i)
  end do
end subroutine
",
    )
    .expect("parse");
    let specials = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        -2.5,
        0.5,
        1e-300,
        1e300,
        710.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];
    let m = specials.len();
    let n = m * m;
    let bind = Bindings::new()
        .int("n", n as i64)
        .real_array("x", (0..n).map(|i| specials[i % m]).collect())
        .real_array("w", (0..n).map(|i| specials[i / m]).collect())
        .real_array("y", vec![0.0; n * 7]);
    let dir = std::env::temp_dir().join(format!("formad-aot-libmtest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fallback = aot_fallback_in(&dir, &prog, &bind);
    let sources: Vec<String> = std::fs::read_dir(&dir)
        .expect("the cache directory")
        .map(|e| e.expect("an entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .map(|p| std::fs::read_to_string(p).expect("the kernel source"))
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(fallback, None, "the kernel must build and load");
    assert_eq!(sources.len(), 1);
    for f in ["sin", "cos", "exp", "log", "sqrt", "tanh", "pow"] {
        assert!(
            sources[0].contains(&format!("    fn {f}(x: f64")),
            "`{f}` is not declared"
        );
    }
}

/// An artifact is loaded only if it was built from the source its name
/// stands for. Kernel A's `.so` copied under kernel B's name (both have
/// one region, so the region count cannot tell them apart) must not run
/// B: the load fails on the source hash and the run degrades to the
/// interpreter's path, bitwise equal to sim.
#[test]
fn an_artifact_under_another_kernels_name_degrades() {
    let _guard = AOT_ENV.lock().unwrap_or_else(|p| p.into_inner());
    let dir = std::env::temp_dir().join(format!("formad-aot-swaptest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (a, b) = (axpy("swap_axpy_plus", '+'), axpy("swap_axpy_minus", '-'));
    let bind = axpy_bindings(53);
    assert_eq!(aot_fallback_in(&dir, &a, &bind), None, "kernel A builds");
    let so_of = |stem: &str| dir.join(format!("{stem}.so"));
    let stems = || -> BTreeSet<String> {
        std::fs::read_dir(&dir)
            .expect("cache dir")
            .filter_map(|e| {
                let name = e.ok()?.file_name().into_string().ok()?;
                Some(name.strip_suffix(".rs")?.to_owned())
            })
            .collect()
    };
    let a_stem = stems().into_iter().next().expect("kernel A's source");
    // B's name: a build with an unusable compiler writes B's source,
    // then fails, so B is neither built nor loaded.
    std::env::set_var("FORMAD_AOT_RUSTC", "/nonexistent/formad-test-rustc");
    let reason = aot_fallback_in(&dir, &b, &bind);
    std::env::remove_var("FORMAD_AOT_RUSTC");
    assert!(reason.is_some_and(|r| r.contains("failed to spawn")));
    let b_stem = stems()
        .into_iter()
        .find(|s| *s != a_stem)
        .expect("kernel B's source");
    std::fs::copy(so_of(&a_stem), so_of(&b_stem)).expect("copy A's artifact");
    let reason = aot_fallback_in(&dir, &b, &bind);
    let _ = std::fs::remove_dir_all(&dir);
    let reason = reason.expect("a foreign artifact must degrade the run");
    let b_hash = b_stem.trim_start_matches("formad_aot_");
    let a_hash = a_stem.trim_start_matches("formad_aot_");
    assert!(
        reason.contains("source hash") && reason.contains(a_hash) && reason.contains(b_hash),
        "unexpected fallback reason: {reason}"
    );
}

/// A cache directory other users could write to is refused before any
/// artifact in it is opened: a group- or world-writable one (the reason
/// names the mode), and one owned by another uid (exercised where this
/// process may `chown`, i.e. as root).
#[cfg(unix)]
#[test]
fn a_cache_dir_others_can_write_degrades() {
    use std::os::unix::fs::PermissionsExt;

    let _guard = AOT_ENV.lock().unwrap_or_else(|p| p.into_inner());
    let dir = std::env::temp_dir().join(format!("formad-aot-modetest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // A kernel loaded once is served from memory, so each step runs its
    // own program.
    let prog = |step: &str| axpy(&format!("mode_axpy_{step}"), '+');
    let bind = axpy_bindings(59);
    // Created by the loader: owner-only.
    assert_eq!(aot_fallback_in(&dir, &prog("private"), &bind), None);
    let mode = std::fs::metadata(&dir)
        .expect("cache dir")
        .permissions()
        .mode();
    assert_eq!(mode & 0o777, 0o700);

    std::fs::set_permissions(&dir, std::fs::Permissions::from_mode(0o777)).expect("chmod");
    let reason = aot_fallback_in(&dir, &prog("shared"), &bind);
    let reason = reason.expect("a world-writable cache dir must degrade the run");
    assert!(
        reason.contains("mode 777"),
        "unexpected fallback reason: {reason}"
    );

    std::fs::set_permissions(&dir, std::fs::Permissions::from_mode(0o700)).expect("chmod");
    let uid = std::fs::metadata(&dir).map(|m| std::os::unix::fs::MetadataExt::uid(&m));
    let other = uid.expect("cache dir") + 1;
    if std::os::unix::fs::chown(&dir, Some(other), None).is_ok() {
        let reason = aot_fallback_in(&dir, &prog("foreign"), &bind);
        let reason = reason.expect("a cache dir owned by another uid must degrade the run");
        assert!(
            reason.contains(&format!("owned by uid {other}")),
            "unexpected fallback reason: {reason}"
        );
    } else {
        eprintln!("owner check not exercised: this process may not chown");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Figure 2 of the paper, in the C dialect so the text goes through
/// `parse_any`'s dispatch.
const FIG2: &str = r#"
void fig2(int n, const double x[n + 7], double y[n], const int c[n]) {
  int i;
  #pragma omp parallel for shared(x, y, c)
  for (i = 1; i <= n; i++) {
    y[c[i]] = x[c[i] + 7];
  }
}
"#;

/// A racy primal: every iteration writes `y(1)`.
const RACY: &str = r#"
subroutine racy(n, x, y)
  integer, intent(in) :: n
  real, intent(in) :: x(n)
  real, intent(inout) :: y(n)
  integer :: i
  !$omp parallel do shared(x, y)
  do i = 1, n
    y(1) = x(i)
  end do
end subroutine
"#;

fn boundary_bindings(primal: &Program) -> Bindings {
    let n = 8;
    let bind = Bindings::new()
        .int("n", n)
        .real_array("x", vec![0.5; n as usize + 7])
        .real_array("y", vec![0.0; n as usize]);
    if primal.decl("c").is_some() {
        bind.int_array("c", (1..=n).rev().collect())
    } else {
        bind
    }
}

/// The trust boundary: a plain access to an array a region writes needs
/// a proof from the analysis in this process. A primal read from text, an
/// adjoint from an explicit treatment — `Uniform(Plain)` too — and an
/// adjoint that went through text carry none, so they keep cells for
/// every array they write, the racy program included.
#[test]
fn programs_without_a_proof_keep_cells_for_what_they_write() {
    for (what, src) in [("figure 2", FIG2), ("racy", RACY)] {
        let primal = parse_any(src).expect("parse");
        let bind = boundary_bindings(&primal);
        assert_cells_for_written(&format!("{what} primal"), &primal, &bind);

        let tool = Formad::new(FormadOptions::new(&["x"], &["y"]));
        let adj_bind = adjoint_bindings(&primal, &bind, &["x"], &["y"]);
        let plain = tool
            .adjoint_with(&primal, ParallelTreatment::Uniform(IncMode::Plain))
            .expect("uniform plain adjoint");
        assert_cells_for_written(&format!("{what} Uniform(Plain)"), &plain, &adj_bind);

        let proved = tool
            .differentiate(&primal)
            .expect("formad pipeline")
            .adjoint;
        let reread = parse_any(&program_to_string(&proved)).expect("re-parse");
        // Equality does not see the proof set, which the text dropped.
        assert_eq!(reread, proved);
        assert_cells_for_written(&format!("{what} adjoint read back"), &reread, &adj_bind);
    }
}

/// The other half of the rule, and the proof the round trip above
/// dropped: arrays a region does not write are read plainly in every
/// program, and Figure 2's proved adjoint stores its adjoints plainly.
#[test]
fn read_only_arrays_and_proved_adjoints_are_plain() {
    let primal = parse_any(FIG2).expect("parse");
    let bind = boundary_bindings(&primal);
    let (lp, texts) = kernel_text(&primal, &bind);
    let id = |name: &str| lp.array_ids[name];
    assert!(texts[0].plain.contains(&id("x")) && texts[0].plain.contains(&id("c")));
    assert!(!texts[0].plain.contains(&id("y")), "y is written");

    let tool = Formad::new(FormadOptions::new(&["x"], &["y"]));
    let adjoint = tool
        .differentiate(&primal)
        .expect("formad pipeline")
        .adjoint;
    let adj_bind = adjoint_bindings(&primal, &bind, &["x"], &["y"]);
    let (lp, texts) = kernel_text(&adjoint, &adj_bind);
    let written: Vec<&str> = texts
        .iter()
        .flat_map(|r| r.plain_written())
        .map(|id| lp.arrays[id as usize].name.as_str())
        .collect();
    assert_eq!(written, ["xb", "yb"]);
}
