//! Determinism contract of the parallel prover.
//!
//! The worker pool and the fingerprint index are *pure accelerators*:
//! for any `--jobs` value and with an index attached or not, every
//! verdict, provenance tag, warning, and report byte (wall-clock zeroed)
//! must be identical to the sequential run. Two mechanisms make this
//! hold and are exercised here:
//!
//! - results are collected and merged in candidate order, not completion
//!   order;
//! - chaos fault streams are salted by task index, not worker thread, so
//!   which checks fault is a function of the program alone.

use std::time::Duration;

use formad::{region_report, Decision, FingerprintIndex, Formad, FormadAnalysis, FormadOptions};
use formad_ir::Program;
use formad_kernels::{lbm, GfmcCase, GreenGaussCase, StencilCase};
use formad_smt::ChaosConfig;
use proptest::prelude::*;

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
fn reports_identical_for_every_job_count() {
    for (name, program, indep, dep) in suite() {
        let run = |jobs: usize| {
            let mut a = analyze_with(&program, &indep, &dep, |o| o.region.jobs = jobs);
            fingerprint(&mut a)
        };
        let sequential = run(1);
        for jobs in [2, 4, 8, 0] {
            assert_eq!(
                sequential,
                run(jobs),
                "{name}: report differs between jobs=1 and jobs={jobs}"
            );
        }
    }
}

#[test]
fn shared_index_on_and_off_reports_agree_on_every_kernel() {
    // One index handle shared across the entire suite — the harshest
    // sharing pattern: records inserted while analyzing one kernel are
    // eligible hits for every later kernel.
    let shared = FingerprintIndex::new();
    for (name, program, indep, dep) in suite() {
        let mut plain = analyze_with(&program, &indep, &dep, |o| o.region.jobs = 1);
        let want = fingerprint(&mut plain);
        // Cold, then warm against the same index: a served region
        // substitutes for an analysis, never for a different answer.
        for pass in ["cold", "warm"] {
            let mut a = analyze_with(&program, &indep, &dep, |o| {
                o.region.jobs = 4;
                o.region.fingerprints = Some(shared.clone());
            });
            assert_eq!(
                want,
                fingerprint(&mut a),
                "{name}: {pass} analysis over the shared index disagrees"
            );
            assert_eq!(a.stats.checks == 0, pass == "warm", "{name}: {pass}");
        }
    }
}

/// Decisions only, for chaos runs (reports also carry fault warnings —
/// compared separately below).
fn decisions(a: &FormadAnalysis) -> Vec<(usize, String, bool)> {
    let mut out = Vec::new();
    for (ri, r) in a.regions.iter().enumerate() {
        let mut arrays: Vec<&String> = r.decisions.keys().collect();
        arrays.sort();
        for arr in arrays {
            out.push((
                ri,
                arr.clone(),
                matches!(r.decisions[arr], Decision::Shared),
            ));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property: under an adversarial (chaotic) prover, the whole report
    /// — verdicts, provenance, recovered-panic warnings — is a function
    /// of the chaos seed alone, not of the worker count. Fault streams
    /// are salted per task, so parallel scheduling cannot move faults
    /// between arrays.
    #[test]
    fn chaos_reports_are_schedule_independent(seed in 0u64..1000, jobs in 2usize..=6) {
        let c = StencilCase::small(24, 2);
        let primal = c.ir();
        let chaos = ChaosConfig {
            seed,
            panic_per_mille: 200,
            unknown_per_mille: 250,
            delay_per_mille: 0,
            delay: Duration::ZERO,
        };
        let run = |jobs: usize| {
            let mut a = analyze_with(
                &primal,
                StencilCase::independents(),
                StencilCase::dependents(),
                |o| {
                    o.region.jobs = jobs;
                    o.region.chaos = Some(chaos.clone());
                },
            );
            fingerprint(&mut a)
        };
        prop_assert_eq!(run(1), run(jobs));
    }
}

#[test]
fn chaos_decisions_stable_across_job_counts_on_all_kernels() {
    for (name, program, indep, dep) in suite() {
        for seed in [1u64, 17] {
            let chaos = ChaosConfig {
                seed,
                panic_per_mille: 150,
                unknown_per_mille: 200,
                delay_per_mille: 0,
                delay: Duration::ZERO,
            };
            let run = |jobs: usize| {
                let a = analyze_with(&program, &indep, &dep, |o| {
                    o.region.jobs = jobs;
                    o.region.chaos = Some(chaos.clone());
                });
                decisions(&a)
            };
            assert_eq!(
                run(1),
                run(4),
                "{name} seed {seed}: chaos decisions depend on job count"
            );
        }
    }
}
