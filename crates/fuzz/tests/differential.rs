//! End-to-end tests of the differential fuzzer itself.
//!
//! - a clean campaign over generated programs finds zero divergences
//!   and produces byte-identical output across two runs (the CI
//!   fuzz-smoke contract);
//! - a deliberately poisoned oracle (chaos-injected legacy search core)
//!   is caught, shrunk, written to the corpus, and reproduced from the
//!   emitted file;
//! - the concrete footprint oracle really detects unsound `Shared`
//!   verdicts;
//! - reproducer files round-trip.

use formad_fuzz::harness::campaign_case;
use formad_fuzz::oracle::strip_times;
use formad_fuzz::shrink::shrink_case;
use formad_fuzz::{
    run_fuzz, Divergence, EngineCache, FuzzConfig, GenConfig, OracleConfig, OracleId, Reproducer,
};
use formad_smt::ChaosConfig;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("formad-fuzz-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn clean_campaign_finds_no_divergences_and_is_deterministic() {
    let cfg = FuzzConfig {
        seed: 42,
        cases: 50,
        shrink_budget: 64,
        ..FuzzConfig::default()
    };
    let a = run_fuzz(&cfg).expect("campaign runs");
    assert!(
        a.divergences.is_empty(),
        "clean campaign diverged:\n{}",
        a.lines.join("\n")
    );
    assert_eq!(
        a.lines.len() as u64,
        cfg.cases + 1,
        "one line per case + summary"
    );
    let b = run_fuzz(&cfg).expect("campaign runs twice");
    assert_eq!(a.lines, b.lines, "same seed must be byte-identical");
}

#[test]
fn poisoned_legacy_oracle_is_caught_shrunk_and_reproduced() {
    let corpus = temp_dir("poison");
    let mut cfg = FuzzConfig {
        seed: 7,
        cases: 12,
        corpus: Some(corpus.clone()),
        shrink_budget: 96,
        ..FuzzConfig::default()
    };
    // Poison ONLY the legacy analysis run: every prover check() answers
    // Unknown, so its verdicts degrade and the cross-core report check
    // must flag the disagreement.
    cfg.oracle.poison_legacy = Some(ChaosConfig {
        seed: 5,
        panic_per_mille: 0,
        unknown_per_mille: 1000,
        delay_per_mille: 0,
        delay: std::time::Duration::ZERO,
    });
    let out = run_fuzz(&cfg).expect("campaign runs");
    assert!(
        !out.divergences.is_empty(),
        "poisoned oracle must be caught:\n{}",
        out.lines.join("\n")
    );
    assert!(
        out.divergences
            .iter()
            .all(|(_, d)| d.oracle == OracleId::CrossCore),
        "poison shows up as cross-core disagreement: {:?}",
        out.divergences
    );
    assert!(!out.corpus_files.is_empty(), "corpus files written");

    // The shrunk reproducer is no larger than the original program and
    // still reproduces the divergence when replayed from disk.
    let (first_id, _) = out.divergences[0];
    let original = campaign_case(cfg.seed, first_id, &cfg.gen);
    let repro = Reproducer::load(&out.corpus_files[0]).expect("reproducer parses");
    assert_eq!(repro.oracle, OracleId::CrossCore);
    assert_eq!(repro.case.seed, cfg.seed);
    assert_eq!(repro.case.id, first_id);
    assert!(
        repro.case.source().len() <= original.source().len(),
        "shrinker must not grow the program"
    );
    let mut engines = EngineCache::new();
    match repro.run(&mut engines) {
        Err(Divergence { oracle, .. }) => assert_eq!(oracle, OracleId::CrossCore),
        Ok(_) => panic!("replayed reproducer no longer diverges"),
    }
    let _ = std::fs::remove_dir_all(&corpus);
}

#[test]
fn shrinker_minimizes_while_preserving_the_divergence() {
    // Find one poisoned divergence and shrink it hard: the result must
    // be strictly smaller than the original for any non-trivial case,
    // still valid, and still diverge on the same oracle.
    let cfg = OracleConfig {
        poison_legacy: Some(ChaosConfig {
            seed: 3,
            panic_per_mille: 0,
            unknown_per_mille: 1000,
            delay_per_mille: 0,
            delay: std::time::Duration::ZERO,
        }),
        ..OracleConfig::default()
    };
    let mut engines = EngineCache::new();
    let gen = GenConfig::default();
    let mut shrunk_one = false;
    for id in 0..20u64 {
        let case = campaign_case(21, id, &gen);
        if let Err(d) = formad_fuzz::run_case(&case, &cfg, &mut engines) {
            let (min, evals) = shrink_case(&case, d.oracle, &cfg, &mut engines, 128);
            assert!(evals > 0, "shrinker must try candidates");
            assert!(min.source().len() <= case.source().len());
            assert!(formad_ir::validate(&min.program).is_empty());
            match formad_fuzz::run_case(&min, &cfg, &mut engines) {
                Err(d2) => assert_eq!(d2.oracle, d.oracle, "shrink preserved the oracle"),
                Ok(_) => panic!("shrunk case no longer diverges"),
            }
            shrunk_one = true;
            break;
        }
    }
    assert!(
        shrunk_one,
        "poison campaign produced no divergence to shrink"
    );
}

#[test]
fn footprint_oracle_detects_unsound_shared_verdicts() {
    use formad::{Decision, Formad, FormadOptions};
    use formad_ir::parse_program;

    // A folded read map: the adjoint scatters into x̄(mod(i,2)+1), so
    // iterations collide on two locations. The analysis must say
    // Guarded; if its verdict were Shared the concrete footprint check
    // must catch the contradiction.
    let src = "subroutine f(n, x, y)\n  integer, intent(in) :: n\n  \
               real, intent(in) :: x(n)\n  real, intent(inout) :: y(n)\n  integer :: i\n  \
               !$omp parallel do shared(x, y)\n  do i = 1, n\n    \
               y(i) = y(i) + x(mod(i, 2) + 1)\n  end do\nend subroutine\n";
    let prog = parse_program(src).unwrap();
    let bind = formad_machine::bind_params(&prog, &[("n".into(), "8".into())], 3).unwrap();
    let tool = Formad::new(FormadOptions::new(&["x"], &["y"]));
    let mut analysis = tool.analyze(&prog).unwrap();
    // Sound verdicts pass the concrete check.
    let wrt = vec!["x".to_string()];
    let of = vec!["y".to_string()];
    formad_fuzz::footprint::check_footprints(&prog, &bind, &analysis, &wrt, &of)
        .expect("sound analysis must pass the footprint oracle");
    // Forcing the colliding array to Shared must be caught.
    analysis.regions[0]
        .decisions
        .insert("x".to_string(), Decision::Shared);
    let err = formad_fuzz::footprint::check_footprints(&prog, &bind, &analysis, &wrt, &of)
        .expect_err("unsound Shared verdict must be flagged");
    assert!(err.contains("x"), "detail names the array: {err}");
}

/// The footprint oracle evaluates with the machine's own operations: an
/// integer intrinsic stays an integer, so it can index an array, and an
/// overflowing `**` is an error, not a panic.
#[test]
fn footprint_oracle_evaluates_like_the_machine() {
    use formad::{Formad, FormadOptions};
    use formad_ir::parse_program;

    let check = |body: &str, sets: &[(&str, &str)]| {
        let src = format!(
            "subroutine f(n, k, x, y)\n  integer, intent(in) :: n, k\n  \
             real, intent(in) :: x(n)\n  real, intent(inout) :: y(n)\n  integer :: i\n  \
             !$omp parallel do shared(x, y)\n  do i = 1, n\n    {body}\n  end do\n\
             end subroutine\n"
        );
        let prog = parse_program(&src).unwrap();
        let sets: Vec<(String, String)> = sets
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let bind = formad_machine::bind_params(&prog, &sets, 3).unwrap();
        let analysis = Formad::new(FormadOptions::new(&["x"], &["y"]))
            .analyze(&prog)
            .unwrap();
        let (wrt, of) = (vec!["x".to_string()], vec!["y".to_string()]);
        formad_fuzz::footprint::check_footprints(&prog, &bind, &analysis, &wrt, &of)
    };
    check("y(i) = y(i) + x(min(i, n))", &[("n", "8"), ("k", "1")])
        .expect("an integer `min` indexes an array");
    check(
        "y(i) = y(i) + x(max(k, i - n) + abs(i - k))",
        &[("n", "8"), ("k", "1")],
    )
    .expect("integer `max` and `abs` index an array");
    let err = check("y(i) = y(i) + 2 ** k * x(i)", &[("n", "8"), ("k", "64")])
        .expect_err("2 ** 64 overflows");
    assert!(err.contains("integer overflow in **"), "{err}");
}

#[test]
fn reproducer_files_round_trip() {
    let case = campaign_case(9, 4, &GenConfig::default());
    let repro = Reproducer {
        case,
        oracle: OracleId::ExecBitwise,
        detail: "sim vs aot T=3: array `y0`[2]: 1.5 vs 1.25".to_string(),
        config: OracleConfig {
            poison_legacy: Some(ChaosConfig {
                seed: 11,
                panic_per_mille: 1,
                unknown_per_mille: 2,
                delay_per_mille: 3,
                delay: std::time::Duration::from_micros(4),
            }),
            ..OracleConfig::default()
        },
    };
    let rendered = repro.render();
    let parsed = Reproducer::parse(&rendered).expect("parses back");
    assert_eq!(parsed.render(), rendered, "render ∘ parse is a fixpoint");
    assert_eq!(parsed.oracle, repro.oracle);
    assert_eq!(parsed.detail, repro.detail);
    assert_eq!(parsed.case.sets, repro.case.sets);
    let p = parsed.config.poison_legacy.expect("poison preserved");
    assert_eq!(
        (
            p.seed,
            p.panic_per_mille,
            p.unknown_per_mille,
            p.delay_per_mille
        ),
        (11, 1, 2, 3)
    );
}

#[test]
fn stripped_reports_have_no_wall_clock() {
    let s = "region 0 (parallel do i): 3 stmts, model size 5, 4 unique exprs, 7 queries, 0.123s\n  adjoint of `x`: shared [proved]";
    let t = strip_times(s);
    assert!(!t.contains("0.123"), "{t}");
    assert!(t.contains("7 queries"), "{t}");
}
