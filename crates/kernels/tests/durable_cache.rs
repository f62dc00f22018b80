//! Durable-cache contract of the full pipeline, on the Table-1 kernels.
//!
//! The region fingerprint index is a *pure accelerator*: for every warmth
//! tier — cold, served from disk, served from memory — the report must be
//! byte-identical (wall-clock zeroed) to the run without an index. And
//! because the index lives in a directory anyone can truncate, corrupt,
//! write-protect or write concurrently, every damaged-directory scenario
//! must degrade to a cold miss with the *same* report, never an error.

use std::path::{Path, PathBuf};
use std::time::Duration;

use formad::{
    region_report, FingerprintIndex, Formad, FormadAnalysis, FormadOptions, SharedEngine,
    TraceEvent, TraceSink,
};
use formad_ir::{Expr, Program, Stmt};
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
            "gfmc",
            gf.ir(),
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
fn report_of(a: &mut FormadAnalysis) -> String {
    let mut s = String::new();
    for r in &mut a.regions {
        r.time = Duration::ZERO;
        s.push_str(&region_report(r));
        s.push('\n');
    }
    s
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("formad-durable-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create cache dir");
    dir
}

/// Analyze one kernel against an engine rooted at `dir` (fresh engine
/// per call, so only the directory carries state), flushing on return.
fn analyze_disk(program: &Program, indep: &[&str], dep: &[&str], dir: &Path) -> FormadAnalysis {
    let engine = SharedEngine::with_cache_dir(dir);
    let mut opts = FormadOptions::new(indep, dep);
    opts.region.fingerprints = engine.fingerprints().cloned();
    let a = Formad::new(opts).analyze(program).expect("analysis");
    engine.flush_disk();
    a
}

#[test]
fn reports_identical_across_warmth_tiers_and_job_counts() {
    for (name, program, indep, dep) in suite() {
        let mut baseline = {
            let opts = FormadOptions::new(&indep, &dep);
            Formad::new(opts).analyze(&program).expect("analysis")
        };
        let want = report_of(&mut baseline);
        let dir = fresh_dir(&format!("tiers-{name}"));
        // Cold: empty dir, pays the prover, populates the index.
        let mut cold = analyze_disk(&program, &indep, &dep, &dir);
        assert_eq!(want, report_of(&mut cold), "{name}: cold");
        // Disk-warm: whole decision sets from the index file.
        let mut served = analyze_disk(&program, &indep, &dep, &dir);
        assert_eq!(want, report_of(&mut served), "{name}: served");
        assert_eq!(served.stats.checks, 0, "{name}: served");
        // Memory-warm: same engine analyzes twice; the second pass
        // hits the promoted records without touching disk again.
        let engine = SharedEngine::with_cache_dir(&dir);
        for label in ["first", "second"] {
            let mut opts = FormadOptions::new(&indep, &dep);
            opts.region.fingerprints = engine.fingerprints().cloned();
            let mut a = Formad::new(opts).analyze(&program).expect("analysis");
            assert_eq!(want, report_of(&mut a), "{name}: memory-warm ({label})");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn shared_index_on_and_off_reports_agree_on_every_kernel() {
    let gf = GfmcCase::new(8, 1);
    let mut kernels = suite();
    kernels.push((
        "stencil8",
        StencilCase::large(64, 1).ir(),
        StencilCase::independents().to_vec(),
        StencilCase::dependents().to_vec(),
    ));
    kernels.push((
        "gfmc*",
        gf.ir_star(),
        GfmcCase::independents().to_vec(),
        GfmcCase::dependents().to_vec(),
    ));
    // One index handle shared across the entire suite — the harshest
    // sharing pattern: records inserted while analyzing one kernel are
    // eligible hits for every later kernel.
    let shared = FingerprintIndex::new();
    for (name, program, indep, dep) in kernels {
        let opts = FormadOptions::new(&indep, &dep);
        let mut plain = Formad::new(opts).analyze(&program).expect("analysis");
        let want = report_of(&mut plain);
        // Cold, then warm against the same index: a served region
        // substitutes for an analysis, never for a different answer.
        for pass in ["cold", "warm"] {
            let mut opts = FormadOptions::new(&indep, &dep);
            opts.region.fingerprints = Some(shared.clone());
            let mut a = Formad::new(opts).analyze(&program).expect("analysis");
            assert_eq!(
                want,
                report_of(&mut a),
                "{name}: {pass} analysis over the shared index disagrees"
            );
            assert_eq!(a.stats.checks == 0, pass == "warm", "{name}: {pass}");
        }
    }
}

/// Damage `dir` in one of the ways the degradation ladder must absorb.
fn corrupt(dir: &Path, mode: &str) {
    for entry in std::fs::read_dir(dir).expect("read cache dir") {
        let path = entry.expect("dir entry").path();
        if !path.is_file() {
            continue;
        }
        match mode {
            "truncated" => {
                let len = std::fs::metadata(&path).expect("metadata").len();
                let f = std::fs::OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .expect("open index file");
                f.set_len(len.saturating_sub(3)).expect("truncate");
            }
            "garbage" => {
                std::fs::write(&path, b"\x00\xff\x7f not a cache file \x01\x02").expect("write");
            }
            "wrong-version" => {
                let text = std::fs::read_to_string(&path).unwrap_or_default();
                let rest = text.split_once('\n').map(|(_, r)| r).unwrap_or("");
                std::fs::write(&path, format!("formad-fpi/v999\n{rest}")).expect("write");
            }
            other => panic!("unknown corruption mode `{other}`"),
        }
    }
}

#[test]
fn corrupted_dirs_degrade_to_cold_miss_with_identical_reports() {
    let (name, program, indep, dep) = suite().swap_remove(1); // gfmc
    let dir = fresh_dir("corrupt");
    let mut cold = analyze_disk(&program, &indep, &dep, &dir);
    let want = report_of(&mut cold);
    for mode in ["truncated", "garbage", "wrong-version"] {
        corrupt(&dir, mode);
        let mut a = analyze_disk(&program, &indep, &dep, &dir);
        assert_eq!(
            want,
            report_of(&mut a),
            "{name}: {mode} dir changed the report"
        );
        // A torn tail loses one record; a file that is not an index at
        // all serves nothing, so every region is proved again.
        if mode != "truncated" {
            assert_eq!(
                a.stats.checks, cold.stats.checks,
                "{name}: {mode} dir still served a region"
            );
        }
        // That run rebuilt and re-flushed the index over the damaged
        // file, so the next mode corrupts a healthy dir again.
    }
    let _ = std::fs::remove_dir_all(&dir);

    // Unwritable (and unreadable): the cache "directory" sits below a
    // regular file, so it can be neither created nor written. Both runs
    // are cold, both succeed, and nothing was ever flushed.
    let blocker = fresh_dir("unwritable").join("not-a-dir");
    std::fs::write(&blocker, b"").expect("write blocker file");
    let unwritable = blocker.join("cache");
    for pass in ["first", "second"] {
        let mut a = analyze_disk(&program, &indep, &dep, &unwritable);
        assert_eq!(want, report_of(&mut a), "{name}: unwritable dir ({pass})");
        assert_eq!(a.stats.checks, cold.stats.checks, "{name}: {pass}");
    }
    let engine = SharedEngine::with_cache_dir(&unwritable);
    let mut opts = FormadOptions::new(&indep, &dep);
    opts.region.fingerprints = engine.fingerprints().cloned();
    Formad::new(opts).analyze(&program).expect("analysis");
    assert_eq!(engine.flush_disk(), 0, "a flush that cannot land reports 0");
    assert_eq!(engine.fingerprints().unwrap().stats().write_errors, 1);
    let _ = std::fs::remove_dir_all(blocker.parent().unwrap());
}

#[test]
fn concurrent_writers_to_one_dir_lose_no_record() {
    // One engine per kernel over the same directory, all flushing at the
    // same moment: merge-on-flush (serialized within a process) plus the
    // atomic tmp+rename must keep every writer's records.
    let dir = fresh_dir("concurrent");
    let kernels = suite();
    let barrier = std::sync::Barrier::new(kernels.len());
    let regions: usize = std::thread::scope(|s| {
        let handles: Vec<_> = kernels
            .iter()
            .map(|(_, program, indep, dep)| {
                let (dir, barrier) = (&dir, &barrier);
                s.spawn(move || {
                    let engine = SharedEngine::with_cache_dir(dir);
                    let mut opts = FormadOptions::new(indep, dep);
                    opts.region.fingerprints = engine.fingerprints().cloned();
                    let a = Formad::new(opts).analyze(program).expect("analysis");
                    barrier.wait();
                    assert_eq!(engine.flush_disk(), a.regions.len());
                    a.regions.len()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    assert_eq!(formad::inspect_fp_file(&dir).records, regions as u64);
    // A fresh engine over the merged dir reproduces every report with no
    // prover work at all.
    for (name, program, indep, dep) in &kernels {
        let mut baseline = {
            let opts = FormadOptions::new(indep, dep);
            Formad::new(opts).analyze(program).expect("analysis")
        };
        let mut warm = analyze_disk(program, indep, dep, &dir);
        assert_eq!(
            report_of(&mut baseline),
            report_of(&mut warm),
            "{name}: warm report differs after concurrent flushes"
        );
        assert_eq!(
            warm.stats.checks, 0,
            "{name}: a region was re-proved after concurrent flushes"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// ROADMAP's acceptance experiment: edit one loop of GFMC, rerun, and
/// the trace shows every other region served whole from the fingerprint
/// index while the edited region alone is proved again.
#[test]
fn editing_one_gfmc_loop_reproves_only_that_region() {
    let gf = GfmcCase::new(8, 1).ir();
    let indep = GfmcCase::independents().to_vec();
    let dep = GfmcCase::dependents().to_vec();
    let dir = fresh_dir("edit-one-loop");
    let mut cold = analyze_disk(&gf, &indep, &dep, &dir);
    let regions = cold.regions.len();
    assert!(regions >= 2, "need multiple regions for the experiment");

    // The edit: rewrite the first parallel loop's upper bound to
    // `hi + 0` — iteration space, activity, and verdicts unchanged, but
    // the printed loop (and so its fingerprint) differs.
    fn contains_parallel(s: &Stmt) -> bool {
        match s {
            Stmt::For(l) => l.parallel.is_some() || l.body.iter().any(contains_parallel),
            _ => false,
        }
    }
    fn first_parallel(body: &mut [Stmt]) -> Option<&mut formad_ir::ForLoop> {
        let idx = body.iter().position(contains_parallel)?;
        match &mut body[idx] {
            Stmt::For(l) => {
                if l.parallel.is_some() {
                    Some(l)
                } else {
                    first_parallel(&mut l.body)
                }
            }
            _ => None,
        }
    }
    let mut edited = gf.clone();
    let l = first_parallel(&mut edited.body).expect("gfmc has a parallel loop");
    let old = std::mem::replace(&mut l.hi, Expr::IntLit(0));
    l.hi = Expr::binary(formad_ir::BinOp::Add, old, Expr::IntLit(0));

    let engine = SharedEngine::with_cache_dir(&dir);
    let sink = TraceSink::new();
    let mut opts = FormadOptions::new(&indep, &dep);
    opts.region.fingerprints = engine.fingerprints().cloned();
    opts.region.trace = Some(sink.clone());
    let mut warm = Formad::new(opts).analyze(&edited).expect("analysis");

    let events = sink.snapshot();
    let served: Vec<usize> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::RegionServed { region, .. } => Some(*region),
            _ => None,
        })
        .collect();
    assert_eq!(
        served.len(),
        regions - 1,
        "every unedited region must be served from the fingerprint index"
    );
    // The only queries issued belong to the one region not served, and
    // they are exactly the queries that region costs cold.
    let reproved = (0..regions)
        .find(|k| !served.contains(k))
        .expect("one region was not served");
    for e in &events {
        if let TraceEvent::Query { region, .. } = e {
            assert_eq!(*region, reproved, "a served region issued a query");
        }
    }
    assert_eq!(warm.stats.checks, cold.regions[reproved].stats.checks);
    assert!(warm.stats.checks > 0);
    assert_eq!(
        report_of(&mut cold),
        report_of(&mut warm),
        "edited rerun changed an unedited verdict"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
