//! Kernel-level validation of the native bytecode backend: every
//! generated adjoint version of every executable Table-2 kernel must
//! (a) satisfy the determinism contract (`formad_machine::differential`)
//! between the simulated interpreter and the native executor, in the
//! class its compiled program falls in, and (b) be a correct derivative
//! when executed natively (finite-difference dot-product test with a
//! native runner).

use formad_bench::{adjoint_bindings, ProgramVersions};
use formad_ir::Program;
use formad_kernels::{GfmcCase, GreenGaussCase, LbmExecCase, StencilCase};
use formad_machine::aot::{generate_source, kernel_rustc_flags};
use formad_machine::{
    check_cell, compile, dot_product_test_with, lower, run, run_native, Bindings, EngineCache,
    Machine,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn rand_vec(seed: u64, n: usize) -> Vec<f64> {
    let mut r = StdRng::seed_from_u64(seed);
    (0..n).map(|_| r.gen_range(-1.0..1.0)).collect()
}

/// One executable kernel at test scale: primal, bindings, AD in/outputs.
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
            name: "lbm-exec",
            program: lbm.ir(),
            base: lbm.bindings(7),
            indep: LbmExecCase::independents(),
            dep: LbmExecCase::dependents(),
        },
    ]
}

/// The versions of one kernel that run on the native backends — the
/// primal and every adjoint discipline, the transposed gather where it
/// exists — each with the bindings it runs against.
fn executed_versions<'a>(
    v: &'a ProgramVersions,
    base: &'a Bindings,
    adj_base: &'a Bindings,
) -> Vec<(&'static str, &'a Program, &'a Bindings)> {
    let mut progs = vec![
        ("primal", &v.primal, base),
        ("adj-FormAD", &v.adj_formad, adj_base),
        ("adj-atomic", &v.adj_atomic, adj_base),
        ("adj-reduction", &v.adj_reduction, adj_base),
    ];
    if let Some(tr) = &v.adj_transposed {
        progs.push(("adj-transposed", tr, adj_base));
    }
    progs
}

/// Every kernel × every discipline (FormAD plan / uniform atomic /
/// uniform reduction / transposed gather where it exists, plus the
/// primal) × {1, 4} threads satisfies the determinism contract, and the
/// class each cell is held to is the table the hand-set per-kernel flags
/// used to approximate: the atomic adjoint depends on commit order on
/// *every* kernel, and nothing else does.
#[test]
fn all_kernels_all_disciplines_satisfy_the_contract() {
    let mut engines = EngineCache::new();
    for case in cases() {
        let versions = ProgramVersions::generate(&case.program, case.indep, case.dep);
        let adj_base = adjoint_bindings(&versions.primal, &case.base, case.indep, case.dep);
        for (label, prog, bind) in executed_versions(&versions, &case.base, &adj_base) {
            let lp = lower(prog, bind).expect("lower");
            let bc = compile(&lp, prog).expect("bytecode");
            assert_eq!(
                bc.commit_order_dependent(),
                label == "adj-atomic",
                "{} / {label}: classification",
                case.name
            );
            for threads in [1usize, 4] {
                check_cell(&mut engines, prog, &bc, None, bind, threads)
                    .unwrap_or_else(|e| panic!("{} / {label}: {e}", case.name));
            }
        }
    }
}

/// The generated kernels build without a single warning: `compile_cdylib`
/// captures rustc's stderr and nobody reads it, so a lint the generated
/// `#![allow]` line does not cover is rendered, snippet and all, on every
/// cold build. `-D warnings` over the source of every version of the five
/// kernels, under the flags of the real build, turns any such lint — an
/// unused libm declaration, say — into a failure here.
#[test]
fn generated_kernels_compile_without_warnings() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("aot-lint");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    for case in cases() {
        let versions = ProgramVersions::generate(&case.program, case.indep, case.dep);
        let adj_base = adjoint_bindings(&versions.primal, &case.base, case.indep, case.dep);
        for (_, prog, bind) in executed_versions(&versions, &case.base, &adj_base) {
            let lp = lower(prog, bind).expect("lower");
            let bc = compile(&lp, prog).expect("bytecode");
            let src = generate_source(&lp, &bc).expect("codegen");
            let file = dir.join(format!("{}.rs", prog.name));
            std::fs::write(&file, src).expect("write generated source");
            let out = std::process::Command::new("rustc")
                .args(kernel_rustc_flags())
                .args(["--emit=metadata", "-D", "warnings", "--out-dir"])
                .arg(&dir)
                .arg(&file)
                .output()
                .expect("rustc runs");
            assert!(
                out.status.success(),
                "{} / `{}`: the generated kernel does not compile cleanly:\n{}",
                case.name,
                prog.name,
                String::from_utf8_lossy(&out.stderr)
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The natively executed adjoints must also be *correct* derivatives:
/// finite-difference dot-product test with both the primal and the
/// adjoint run through the bytecode executor.
#[test]
fn native_adjoints_pass_fd_check() {
    for case in cases() {
        let versions = ProgramVersions::generate(&case.program, case.indep, case.dep);
        // Nonlinear kernels (gfmc's tanh) leave finite differences less
        // exact than the linear stencils.
        let tol = if case.name == "gfmc" { 1e-4 } else { 1e-6 };
        let independents: Vec<(&str, Vec<f64>)> = case
            .indep
            .iter()
            .enumerate()
            .map(|(k, name)| {
                let len = case.base.get_real_array(name).unwrap().len();
                (*name, rand_vec(100 + k as u64, len))
            })
            .collect();
        let dependents: Vec<(&str, Vec<f64>)> = case
            .dep
            .iter()
            .enumerate()
            .map(|(k, name)| {
                let len = case.base.get_real_array(name).unwrap().len();
                (*name, rand_vec(200 + k as u64, len))
            })
            .collect();
        let mut variants: Vec<(&str, &Program)> = vec![
            ("adj-FormAD", &versions.adj_formad),
            ("adj-atomic", &versions.adj_atomic),
            ("adj-reduction", &versions.adj_reduction),
        ];
        if let Some(tr) = &versions.adj_transposed {
            variants.push(("adj-transposed", tr));
        }
        for (label, adj) in variants {
            for threads in [1usize, 4] {
                let t = dot_product_test_with(
                    &versions.primal,
                    adj,
                    &case.base,
                    &independents,
                    &dependents,
                    1e-6,
                    "b",
                    |p, b| run_native(p, b, threads),
                )
                .unwrap_or_else(|e| panic!("{} / {label} T={threads}: {e}", case.name));
                assert!(
                    t.passes(tol),
                    "{} / {label} T={threads}: fd={} adj={} rel={}",
                    case.name,
                    t.fd_value,
                    t.adjoint_value,
                    t.rel_error
                );
            }
        }
    }
}

type SeedVectors = Vec<(&'static str, Vec<f64>)>;

fn fd_vectors(case: &Case) -> (SeedVectors, SeedVectors) {
    let independents = case
        .indep
        .iter()
        .enumerate()
        .map(|(k, name)| {
            let len = case.base.get_real_array(name).unwrap().len();
            (*name, rand_vec(100 + k as u64, len))
        })
        .collect();
    let dependents = case
        .dep
        .iter()
        .enumerate()
        .map(|(k, name)| {
            let len = case.base.get_real_array(name).unwrap().len();
            (*name, rand_vec(200 + k as u64, len))
        })
        .collect();
    (independents, dependents)
}

/// The transposed adjoint is a correct derivative on *all three*
/// backends: the same dot-product test run under the simulated
/// interpreter and under the AOT backend (kernels compiled once per
/// program and selected by name inside the runner), at 1 and 4 threads.
/// The bytecode backend is covered by `native_adjoints_pass_fd_check`
/// above.
#[test]
fn transposed_adjoints_pass_fd_on_sim_and_aot() {
    use formad_machine::{load_or_compile, NativeEngine};
    use std::collections::HashMap;

    let mut tested = 0;
    for case in cases() {
        let versions = ProgramVersions::generate(&case.program, case.indep, case.dep);
        let Some(adj) = &versions.adj_transposed else {
            continue;
        };
        tested += 1;
        let (independents, dependents) = fd_vectors(&case);
        let adj_base = adjoint_bindings(&versions.primal, &case.base, case.indep, case.dep);
        let mut compiled = HashMap::new();
        for (prog, bind) in [(&versions.primal, &case.base), (adj, &adj_base)] {
            let lp = lower(prog, bind).expect("lower");
            let bc = compile(&lp, prog).expect("bytecode");
            let kernel = load_or_compile(&lp, &bc)
                .unwrap_or_else(|e| panic!("{}: AOT must build in-tree: {e}", case.name));
            compiled.insert(prog.name.clone(), (bc, kernel));
        }
        for threads in [1usize, 4] {
            let t = dot_product_test_with(
                &versions.primal,
                adj,
                &case.base,
                &independents,
                &dependents,
                1e-6,
                "b",
                |p, b| run(p, b, &Machine::with_threads(threads)).map(|_| ()),
            )
            .unwrap_or_else(|e| panic!("{} / sim T={threads}: {e}", case.name));
            assert!(
                t.passes(1e-6),
                "{} / sim T={threads}: fd={} adj={} rel={}",
                case.name,
                t.fd_value,
                t.adjoint_value,
                t.rel_error
            );
            let mut engine = NativeEngine::new(threads);
            let t = dot_product_test_with(
                &versions.primal,
                adj,
                &case.base,
                &independents,
                &dependents,
                1e-6,
                "b",
                |p, b| {
                    let (bc, kernel) = compiled.get(&p.name).expect("precompiled program");
                    engine.run_with(bc, Some(kernel), b)
                },
            )
            .unwrap_or_else(|e| panic!("{} / aot T={threads}: {e}", case.name));
            assert!(
                t.passes(1e-6),
                "{} / aot T={threads}: fd={} adj={} rel={}",
                case.name,
                t.fd_value,
                t.adjoint_value,
                t.rel_error
            );
        }
    }
    assert!(
        tested >= 3,
        "stencils and lbm-exec must carry transposed adjoints"
    );
}

/// A transposed *request* on a kernel where the proof cannot go through
/// (Green-Gauss scatters through mesh indirection — the map does not
/// invert) must fall back to atomic guards, not emit an unsound gather:
/// the forced adjoint still carries `!$omp atomic` and still passes the
/// derivative check.
#[test]
fn forced_transposed_request_falls_back_to_atomic_and_stays_correct() {
    use formad::{Formad, FormadOptions, IncMode, ParallelTreatment};

    let gg = GreenGaussCase::linear(40, 2);
    let case = Case {
        name: "green-gauss (forced transposed)",
        program: gg.ir(),
        base: gg.bindings(7),
        indep: GreenGaussCase::independents(),
        dep: GreenGaussCase::dependents(),
    };
    let tool = Formad::new(FormadOptions::new(case.indep, case.dep));
    let forced = tool
        .adjoint_with(
            &case.program,
            ParallelTreatment::Uniform(IncMode::Transposed),
        )
        .expect("forced transposed adjoint");
    let atomic = tool
        .adjoint_with(&case.program, ParallelTreatment::Uniform(IncMode::Atomic))
        .expect("atomic adjoint");
    let forced_txt = formad_ir::program_to_string(&forced);
    assert!(
        forced_txt.contains("!$omp atomic"),
        "fallback must guard the non-invertible scatter: {forced_txt}"
    );
    let adj_base = adjoint_bindings(&case.program, &case.base, case.indep, case.dep);
    let bc = compile(&lower(&forced, &adj_base).expect("lower"), &forced).expect("bytecode");
    assert!(
        bc.commit_order_dependent(),
        "a request that degraded to atomics is held to the atomic class"
    );
    assert_eq!(
        forced_txt,
        formad_ir::program_to_string(&atomic),
        "full fallback must degrade to exactly the atomic version"
    );
    let (independents, dependents) = fd_vectors(&case);
    for threads in [1usize, 4] {
        let t = dot_product_test_with(
            &case.program,
            &forced,
            &case.base,
            &independents,
            &dependents,
            1e-6,
            "b",
            |p, b| run_native(p, b, threads),
        )
        .unwrap_or_else(|e| panic!("forced fallback T={threads}: {e}"));
        assert!(
            t.passes(1e-6),
            "forced fallback T={threads}: fd={} adj={} rel={}",
            t.fd_value,
            t.adjoint_value,
            t.rel_error
        );
    }
}
