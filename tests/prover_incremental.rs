//! Tier-1 view of the frame-scoped presolve: the prover-heavy programs
//! of the benchmark's `prove_heavy` workload must report exactly what
//! they always did — whatever the job count, and byte for byte against
//! the kernels crate's golden files — while presolve
//! canonicalizes a small fraction of what a per-check represolve did.

use std::path::PathBuf;
use std::time::Duration;

use formad::{full_report, table1_header, table1_row, Formad, FormadAnalysis, FormadOptions};
use formad_bench::prover_bench;
use formad_ir::Program;
use formad_kernels::{lbm, LbmExecCase, StencilCase};

struct Heavy {
    name: String,
    /// File stem under `crates/kernels/tests/golden/`, where one exists.
    golden: Option<&'static str>,
    program: Program,
    independents: Vec<String>,
    dependents: Vec<String>,
}

fn own(xs: &[&str]) -> Vec<String> {
    xs.iter().map(|s| s.to_string()).collect()
}

/// The nine `prove_heavy` programs, plus the CI-scale LBM-exec case its
/// golden file was taken from (the benchmark-scale one differs only in
/// its literal offsets).
fn heavy() -> Vec<Heavy> {
    let stems = [
        "stencil1",
        "stencil8",
        "gfmc",
        "gfmc_star",
        "lbm",
        "green_gauss",
    ];
    let mut out: Vec<Heavy> = prover_bench::suite()
        .into_iter()
        .zip(stems)
        .map(|(k, stem)| Heavy {
            name: k.name,
            golden: Some(stem),
            program: k.program,
            independents: k.independents,
            dependents: k.dependents,
        })
        .collect();
    for (case, golden) in [
        (LbmExecCase::full(), None),
        (LbmExecCase::smoke(), Some("lbm_exec")),
    ] {
        out.push(Heavy {
            name: "LBM-exec".into(),
            golden,
            program: case.ir(),
            independents: own(lbm::independents()),
            dependents: own(lbm::dependents()),
        });
    }
    for radius in [16, 24] {
        let case = StencilCase {
            n: 256,
            sweeps: 1,
            radius,
        };
        out.push(Heavy {
            name: format!("stencil {radius}"),
            golden: None,
            program: case.ir(),
            independents: own(StencilCase::independents()),
            dependents: own(StencilCase::dependents()),
        });
    }
    out
}

fn analyze(k: &Heavy, jobs: usize) -> FormadAnalysis {
    let mut opts = FormadOptions::new(&[], &[]);
    opts.independents = k.independents.clone();
    opts.dependents = k.dependents.clone();
    opts.region.jobs = jobs;
    let mut analysis = Formad::new(opts)
        .analyze(&k.program)
        .unwrap_or_else(|e| panic!("{}: analysis failed: {e}", k.name));
    for r in &mut analysis.regions {
        r.time = Duration::ZERO; // the only wall-clock field of a report
    }
    analysis
}

/// The golden files' rendering: Table-1 row plus the long report.
fn render(k: &Heavy, analysis: &FormadAnalysis) -> String {
    format!(
        "{}\n{}\n\n{}",
        table1_header(),
        table1_row(&k.name, analysis),
        full_report(&k.name, analysis)
    )
}

#[test]
fn heavy_reports_identical_across_jobs_and_match_goldens() {
    for k in heavy() {
        let reference = render(&k, &analyze(&k, 1));
        assert_eq!(
            reference,
            render(&k, &analyze(&k, 2)),
            "{}: report differs at jobs=2",
            k.name
        );
        if let Some(stem) = k.golden {
            let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("crates/kernels/tests/golden")
                .join(format!("{stem}.txt"));
            let golden = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("golden file {}: {e}", path.display()));
            assert_eq!(reference, golden, "{}: diverged from {stem}.txt", k.name);
        }
    }
}

/// Σ(assertion-stack clauses) over LBM's 349 checks — what presolve
/// canonicalized when every `check()` re-derived the whole stack
/// (measured before frame snapshots; a property of the kernel).
const LBM_STACK_CLAUSES_OVER_CHECKS: u64 = 126_686;

#[test]
fn presolve_canonicalizes_the_delta_not_the_stack() {
    let suite = heavy();
    let lbm = suite.iter().find(|k| k.golden == Some("lbm")).unwrap();
    let stats = analyze(lbm, 1).stats;
    assert_eq!(
        stats.checks, 349,
        "LBM's query count moved; re-derive the bound"
    );
    assert!(
        stats.presolve_clauses * 20 < LBM_STACK_CLAUSES_OVER_CHECKS,
        "LBM: presolve canonicalized {} clauses, over 5% of the {} a per-check \
         represolve costs",
        stats.presolve_clauses,
        LBM_STACK_CLAUSES_OVER_CHECKS
    );
    // The counter repeats exactly, so the bound is not a timing claim.
    for k in &suite {
        assert_eq!(
            analyze(k, 1).stats.presolve_clauses,
            analyze(k, 2).stats.presolve_clauses,
            "{}: presolve_clauses differs at jobs=2",
            k.name
        );
    }
}
