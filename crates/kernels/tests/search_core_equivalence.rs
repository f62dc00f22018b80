//! Cross-core equivalence contract: presolve and the probe are a pure
//! accelerator over the enumerate-and-split search. On the whole
//! Table-1 suite, every report byte (wall-clock zeroed), every proof
//! narrative, and every deterministic trace section must be identical
//! under `SearchCore::Presolved` and `SearchCore::Flat` — while the
//! default core does strictly less linear-arithmetic work.

use std::time::Duration;

use formad::{
    deterministic_json, explain, region_report, Formad, FormadAnalysis, FormadOptions, SearchCore,
    TraceSink,
};
use formad_ir::Program;
use formad_kernels::{lbm, GfmcCase, GreenGaussCase, StencilCase};

/// The paper's Table-1 kernel suite at analysis-relevant sizes.
fn suite() -> Vec<(&'static str, Program, Vec<&'static str>, Vec<&'static str>)> {
    let gf = GfmcCase::new(8, 1);
    vec![
        (
            "stencil1",
            StencilCase::small(32, 1).ir(),
            StencilCase::independents().to_vec(),
            StencilCase::dependents().to_vec(),
        ),
        (
            "stencil8",
            StencilCase::large(64, 1).ir(),
            StencilCase::independents().to_vec(),
            StencilCase::dependents().to_vec(),
        ),
        (
            "gfmc",
            gf.ir(),
            GfmcCase::independents().to_vec(),
            GfmcCase::dependents().to_vec(),
        ),
        (
            "gfmc*",
            gf.ir_star(),
            GfmcCase::independents().to_vec(),
            GfmcCase::dependents().to_vec(),
        ),
        (
            "lbm",
            lbm::lbm_ir(),
            lbm::independents().to_vec(),
            lbm::dependents().to_vec(),
        ),
        (
            "greengauss",
            GreenGaussCase::linear(24, 1).ir(),
            GreenGaussCase::independents().to_vec(),
            GreenGaussCase::dependents().to_vec(),
        ),
    ]
}

/// Full textual fingerprint of an analysis: every region report with the
/// wall-clock (the only nondeterministic field) zeroed.
fn fingerprint(a: &mut FormadAnalysis) -> String {
    let mut s = String::new();
    for r in &mut a.regions {
        r.time = Duration::ZERO;
        s.push_str(&region_report(r));
        s.push('\n');
    }
    s
}

fn analyze_with(
    program: &Program,
    indep: &[&str],
    dep: &[&str],
    configure: impl FnOnce(&mut FormadOptions),
) -> FormadAnalysis {
    let mut opts = FormadOptions::new(indep, dep);
    configure(&mut opts);
    Formad::new(opts).analyze(program).expect("analysis")
}

#[test]
fn reports_identical_across_cores_and_jobs() {
    for (name, program, indep, dep) in suite() {
        let run = |core: SearchCore| {
            let mut a = analyze_with(&program, &indep, &dep, |o| o.region.search_core = core);
            fingerprint(&mut a)
        };
        let reference = run(SearchCore::Presolved);
        for core in [SearchCore::Presolved, SearchCore::Flat] {
            assert_eq!(
                reference,
                run(core),
                "{name}: report differs under core={core:?}"
            );
        }
    }
}

#[test]
fn explain_and_trace_identical_across_cores() {
    for (name, program, indep, dep) in suite() {
        let run = |core: SearchCore| {
            let sink = TraceSink::new();
            let _ = analyze_with(&program, &indep, &dep, |o| {
                o.region.search_core = core;
                o.region.trace = Some(sink.clone());
            });
            let events = sink.snapshot();
            (explain(&events, None), deterministic_json(&events))
        };
        let (default_explain, default_trace) = run(SearchCore::Presolved);
        let (flat_explain, flat_trace) = run(SearchCore::Flat);
        assert_eq!(
            default_explain, flat_explain,
            "{name}: explain narrative differs between search cores"
        );
        assert_eq!(
            default_trace, flat_trace,
            "{name}: deterministic trace section differs between search cores"
        );
    }
}

#[test]
fn default_core_does_less_linear_arithmetic_work() {
    let mut default_lia = 0u64;
    let mut flat_lia = 0u64;
    for (_, program, indep, dep) in suite() {
        let run = |core: SearchCore| {
            analyze_with(&program, &indep, &dep, |o| o.region.search_core = core)
                .stats
                .lia_calls
        };
        default_lia += run(SearchCore::Presolved);
        flat_lia += run(SearchCore::Flat);
    }
    assert!(
        default_lia < flat_lia,
        "the default core made {default_lia} lia calls vs the flat oracle's {flat_lia}; it must be cheaper"
    );
}

/// What the flatten-and-represolve `check()` canonicalized on LBM: the
/// sum of the assertion-stack sizes over its 349 checks (measured before
/// frame snapshots; the stack sizes are a property of the kernel).
const LBM_STACK_CLAUSES_OVER_CHECKS: u64 = 126_686;

#[test]
fn lbm_presolve_work_tracks_assertions_not_checks() {
    let (_, program, indep, dep) = suite().into_iter().find(|k| k.0 == "lbm").unwrap();
    let run = || analyze_with(&program, &indep, &dep, |_| {}).stats;
    let stats = run();
    assert_eq!(
        stats.checks, 349,
        "LBM's query count moved; re-derive the bound"
    );
    assert!(
        stats.presolve_clauses * 20 < LBM_STACK_CLAUSES_OVER_CHECKS,
        "presolve canonicalized {} clauses over {} checks — more than 5% of the \
         {LBM_STACK_CLAUSES_OVER_CHECKS} a per-check represolve costs",
        stats.presolve_clauses,
        stats.checks
    );
    // The counter is exact: it repeats across runs.
    assert_eq!(run().presolve_clauses, stats.presolve_clauses);
}
