//! The AOT differential wall: every generated adjoint version of every
//! executable Table-2 kernel, run through the AOT native backend AND the
//! bytecode executor, must satisfy the determinism contract
//! (`formad_machine::differential`) against the simulated interpreter at
//! 1 and 4 logical threads — the same gate the bytecode backend passed
//! in `bench/tests/native_kernels.rs`.
//!
//! A second test forces kernel compilation to fail (by pointing
//! `FORMAD_AOT_RUSTC` at a nonexistent binary and the cache at an empty
//! directory) and proves the degradation contract: the run still
//! succeeds, on the bytecode backend, with identical results.

use std::sync::Mutex;

use formad::{Formad, FormadOptions, IncMode, ParallelTreatment};
use formad_ir::Program;
use formad_kernels::{GfmcCase, GreenGaussCase, StencilCase};
use formad_machine::{
    adjoint_bindings, check_cell, compile, load_or_compile, lower, run, run_aot, Bindings, Compare,
    EngineCache, Machine,
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
    ]
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
            let lp = lower(&prog, bind).expect("lower");
            let bc = compile(&lp, &prog).expect("bytecode");
            let kernel = load_or_compile(&lp, &bc)
                .unwrap_or_else(|e| panic!("{} / {label}: AOT must build in-tree: {e}", case.name));
            assert_eq!(kernel.region_count(), bc.regions.len());
            for threads in [1usize, 4] {
                check_cell(&mut engines, &prog, &bc, Some(&kernel), bind, threads)
                    .unwrap_or_else(|e| panic!("{} / {label}: {e}", case.name));
            }
        }
    }
}

/// Degradation, not errors: with a broken `rustc` and a cold cache the
/// AOT entry point must fall back to the bytecode backend, succeed, and
/// produce bitwise-identical results.
#[test]
fn forced_compile_failure_falls_back_to_bytecode() {
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
