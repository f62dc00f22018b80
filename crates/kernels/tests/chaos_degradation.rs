//! Fault-injection e2e suite: the pipeline under a misbehaving prover.
//!
//! A `ChaosSolver` (seeded, deterministic) makes prover `check()` calls
//! panic or answer `Unknown` at hostile rates. The degradation contract
//! says the pipeline must absorb every such fault:
//!
//! - no panic ever escapes `Formad::analyze`/`differentiate`;
//! - decisions only ever degrade (an array `Shared` under chaos is also
//!   `Shared` in the fault-free baseline — faults never *remove*
//!   safeguards);
//! - the generated adjoint still passes finite-difference dot-product
//!   checks at every thread count — chaos costs speed (extra atomics),
//!   never correctness.

use std::time::Duration;

use formad::{Decision, Formad, FormadAnalysis, FormadOptions, Provenance};
use formad_kernels::{lbm, GfmcCase, GreenGaussCase, StencilCase};
use formad_machine::{dot_product_test, Bindings, Machine};
use formad_smt::ChaosConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEEDS: [u64; 3] = [1, 2, 17];

fn rand_vec(seed: u64, n: usize) -> Vec<f64> {
    let mut r = StdRng::seed_from_u64(seed);
    (0..n).map(|_| r.gen_range(-1.0..1.0)).collect()
}

/// Hostile but survivable fault rates: 20% panics, 25% unknowns.
fn chaos_options(independents: &[&str], dependents: &[&str], seed: u64) -> FormadOptions {
    let mut o = FormadOptions::new(independents, dependents);
    o.region.chaos = Some(ChaosConfig {
        seed,
        panic_per_mille: 200,
        unknown_per_mille: 250,
        delay_per_mille: 0,
        delay: Duration::ZERO,
    });
    o
}

/// Every array `Shared` under chaos must be `Shared` in the baseline:
/// faults may only push decisions *toward* safeguards.
fn assert_degradation_only(baseline: &FormadAnalysis, chaotic: &FormadAnalysis, seed: u64) {
    assert_eq!(baseline.regions.len(), chaotic.regions.len());
    for (b, c) in baseline.regions.iter().zip(&chaotic.regions) {
        for (arr, d) in &c.decisions {
            if matches!(d, Decision::Shared) {
                assert_eq!(
                    b.decisions.get(arr),
                    Some(&Decision::Shared),
                    "seed {seed}: chaos promoted `{arr}` to Shared in region {}",
                    c.region
                );
            }
        }
    }
}

/// Run the full differentiate-under-chaos pipeline and finite-difference
/// check the resulting adjoint at 1 and 4 threads.
fn check_chaotic_adjoint(
    primal: &formad_ir::Program,
    opts: FormadOptions,
    base: &Bindings,
    independents: &[(&str, Vec<f64>)],
    dependents: &[(&str, Vec<f64>)],
    tol: f64,
    seed: u64,
) -> FormadAnalysis {
    let result = Formad::new(opts)
        .differentiate(primal)
        .unwrap_or_else(|e| panic!("seed {seed}: chaos must degrade, not fail: {e}"));
    for threads in [1usize, 4] {
        let t = dot_product_test(
            primal,
            &result.adjoint,
            base,
            independents,
            dependents,
            &Machine::with_threads(threads),
            1e-6,
            "b",
        )
        .unwrap_or_else(|e| panic!("seed {seed} T={threads}: {e}"));
        assert!(
            t.passes(tol),
            "seed {seed} T={threads}: fd={} adj={} rel={}",
            t.fd_value,
            t.adjoint_value,
            t.rel_error
        );
    }
    result.analysis
}

#[test]
fn stencil_chaos_degrades_never_miscompiles() {
    let c = StencilCase::small(32, 2);
    let primal = c.ir();
    let base = c.bindings(11);
    let baseline = Formad::new(FormadOptions::new(
        StencilCase::independents(),
        StencilCase::dependents(),
    ))
    .analyze(&primal)
    .unwrap();
    for seed in SEEDS {
        let opts = chaos_options(StencilCase::independents(), StencilCase::dependents(), seed);
        let analysis = check_chaotic_adjoint(
            &primal,
            opts,
            &base,
            &[("uold", rand_vec(21, 32))],
            &[("unew", rand_vec(22, 32))],
            1e-6,
            seed,
        );
        assert_degradation_only(&baseline, &analysis, seed);
    }
}

#[test]
fn gfmc_chaos_adjoints_stay_correct() {
    let c = GfmcCase::new(8, 1);
    let primal = c.ir();
    let base = c.bindings_split(17);
    let ns2 = c.ns * c.ns;
    let baseline = Formad::new(FormadOptions::new(
        GfmcCase::independents(),
        GfmcCase::dependents(),
    ))
    .analyze(&primal)
    .unwrap();
    for seed in SEEDS {
        let opts = chaos_options(GfmcCase::independents(), GfmcCase::dependents(), seed);
        let analysis = check_chaotic_adjoint(
            &primal,
            opts,
            &base,
            &[("cr", rand_vec(31, ns2)), ("cl", rand_vec(32, ns2))],
            &[("cr", rand_vec(33, ns2)), ("cl", rand_vec(34, ns2))],
            1e-4, // nonlinear tanh: finite differences are less exact
            seed,
        );
        assert_degradation_only(&baseline, &analysis, seed);
    }
}

#[test]
fn green_gauss_chaos_adjoints_stay_correct() {
    let c = GreenGaussCase::linear(24, 2);
    let primal = c.ir();
    let base = c.bindings(23);
    let baseline = Formad::new(FormadOptions::new(
        GreenGaussCase::independents(),
        GreenGaussCase::dependents(),
    ))
    .analyze(&primal)
    .unwrap();
    for seed in SEEDS {
        let opts = chaos_options(
            GreenGaussCase::independents(),
            GreenGaussCase::dependents(),
            seed,
        );
        let analysis = check_chaotic_adjoint(
            &primal,
            opts,
            &base,
            &[("dv", rand_vec(51, 24))],
            &[("grad", rand_vec(52, 24))],
            1e-6,
            seed,
        );
        assert_degradation_only(&baseline, &analysis, seed);
    }
}

#[test]
fn chaos_faults_actually_fire() {
    // Guard against a vacuous suite: across the seeds, injected faults
    // must actually have been absorbed (recovered panics or unknowns).
    let c = StencilCase::small(32, 2);
    let primal = c.ir();
    let mut recovered = 0u64;
    let mut unknowns = 0u64;
    for seed in SEEDS {
        let opts = chaos_options(StencilCase::independents(), StencilCase::dependents(), seed);
        let a = Formad::new(opts).analyze(&primal).unwrap();
        recovered += a.recovered_panics();
        unknowns += a.stats.unknowns;
    }
    assert!(
        recovered + unknowns > 0,
        "no chaos fault fired across seeds {SEEDS:?} — suite is vacuous"
    );
}

#[test]
fn total_prover_failure_still_produces_correct_adjoint() {
    // The extreme rung of the ladder: *every* prover call panics. All
    // proofs fail, every attempt of the retry ladder is consumed, and the
    // analysis must settle on all-atomics — which is still a correct
    // adjoint, just a slower one.
    let c = StencilCase::small(32, 2);
    let primal = c.ir();
    let base = c.bindings(11);
    let mut opts = FormadOptions::new(StencilCase::independents(), StencilCase::dependents());
    opts.region.chaos = Some(ChaosConfig {
        seed: 3,
        panic_per_mille: 1000,
        unknown_per_mille: 0,
        delay_per_mille: 0,
        delay: Duration::ZERO,
    });
    let analysis = check_chaotic_adjoint(
        &primal,
        opts,
        &base,
        &[("uold", rand_vec(21, 32))],
        &[("unew", rand_vec(22, 32))],
        1e-6,
        3,
    );
    assert!(analysis.recovered_panics() > 0, "no panic was recovered");
    assert!(
        analysis.degraded(),
        "an all-panic prover must show as degraded"
    );
    for r in &analysis.regions {
        for (arr, d) in &r.decisions {
            assert!(
                matches!(d, Decision::Guarded(_)),
                "`{arr}` decided {d:?} with a dead prover"
            );
        }
    }
}

#[test]
fn a_caught_panic_in_one_array_does_not_reach_the_next() {
    // The region's arrays are proved one after another on one solver, so
    // what a panicking proof leaves on the assertion stack must be gone
    // before the next array starts: stale frames hold a query equality the
    // knowledge contradicts, under which *every* later query is UNSAT.
    // Two regions whose arrays are both proof tasks, met in this order:
    // GFMC's first (`cr` proved) and LBM's (`srcgrid` refuted — the
    // verdict a stale stack would turn into a wrong `Proved`).
    let gfmc = GfmcCase::new(8, 1).ir();
    let cases = [
        (
            &gfmc,
            GfmcCase::independents(),
            GfmcCase::dependents(),
            ["cl", "cr"],
            Provenance::Proved,
        ),
        (
            &lbm::lbm_ir(),
            lbm::independents(),
            lbm::dependents(),
            ["dstgrid", "srcgrid"],
            Provenance::Refuted,
        ),
    ];
    for (primal, indep, dep, [first, second], want) in cases {
        let baseline = Formad::new(FormadOptions::new(indep, dep))
            .analyze(primal)
            .unwrap();
        let base = &baseline.regions[0];
        assert_eq!(base.provenance[second], want);
        // The first seed whose faults recover `first` from panics caught
        // inside its own proof and let `second` reach a verdict.
        let hit = (0..200u64).find_map(|seed| {
            let mut opts = FormadOptions::new(indep, dep);
            opts.region.chaos = Some(ChaosConfig {
                seed,
                panic_per_mille: 300,
                unknown_per_mille: 0,
                delay_per_mille: 0,
                delay: Duration::ZERO,
            });
            let mut a = Formad::new(opts).analyze(primal).unwrap();
            let r = a.regions.swap_remove(0);
            let in_its_own_proof = format!("analyzing adjoint of `{first}`");
            (r.provenance[first] == Provenance::Recovered
                && r.warnings.iter().any(|w| w.contains(&in_its_own_proof))
                && r.provenance[second] != Provenance::Recovered)
                .then_some((seed, r))
        });
        let (seed, r) = hit.unwrap_or_else(|| {
            panic!("no seed below 200 recovers `{first}` and decides `{second}`")
        });
        assert_eq!(r.provenance[second], want, "seed {seed}: `{second}`");
        assert_eq!(
            r.decisions[second], base.decisions[second],
            "seed {seed}: `{second}`"
        );
    }
}
