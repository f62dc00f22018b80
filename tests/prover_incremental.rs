//! Tier-1 view of the frame-scoped presolve: the prover-heavy programs
//! of the benchmark's `prove_heavy` workload must report exactly what
//! they always did — byte for byte against the kernels crate's golden
//! files — while presolve canonicalizes a small fraction of what a
//! per-check represolve did.

mod common;

use common::{analyze, golden, heavy, render};

#[test]
fn heavy_reports_identical_across_jobs_and_match_goldens() {
    for k in heavy() {
        let reference = render(&k, &analyze(&k));
        if let Some(stem) = k.golden {
            assert_eq!(
                reference,
                golden(stem),
                "{}: diverged from {stem}.txt",
                k.name
            );
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
    let stats = analyze(lbm).stats;
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
            analyze(k).stats.presolve_clauses,
            analyze(k).stats.presolve_clauses,
            "{}: presolve_clauses differs between two runs",
            k.name
        );
    }
}

/// One pass over the nine `prove_heavy` programs, in exact counts: all
/// but three of the 2231 checks end in presolve or its level-0 theory
/// check, and those three (GFMC 1, GFMC* 2) cost one probe each. A
/// search that splits eagerly where the probe would have answered shows
/// up here as hundreds of extra LIA calls.
#[test]
fn heavy_pass_costs_exactly_what_presolve_and_the_probe_cost() {
    let (mut checks, mut lia_calls, mut discharges) = (0, 0, 0);
    // The CI-scale LBM-exec twin is not one of the nine.
    for k in heavy().iter().filter(|k| k.golden != Some("lbm_exec")) {
        let stats = analyze(k).stats;
        checks += stats.checks;
        lia_calls += stats.lia_calls;
        discharges += stats.presolve_discharges;
    }
    assert_eq!(
        (checks, lia_calls, discharges),
        (2231, 19, 2228),
        "(checks, lia_calls, presolve_discharges)"
    );
}
