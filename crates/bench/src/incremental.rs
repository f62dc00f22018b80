//! Incremental re-analysis benchmark: the Table-1 suite against a durable
//! on-disk fingerprint index (`BENCH_incremental.json`).
//!
//! Three configurations, each a full suite pass over a fresh
//! [`formad::SharedEngine`] so nothing survives in process memory — the
//! only carrier between passes is the cache directory:
//!
//! * **cold** — empty cache dir: every region enumerated, every query
//!   solved from scratch, region records flushed to disk.
//! * **warm** — same dir, new engine: every region's full decision set
//!   must be served from the fingerprint index with zero
//!   linear-feasibility calls. This is the "re-analyze an unchanged
//!   tree" workload; wall-clock is bounded by parse + hash time.
//! * **edited** — same dir, new engine, but the GFMC kernel's first
//!   parallel loop textually perturbed (upper bound rewritten to
//!   `hi + 0` — semantics and verdicts unchanged, fingerprint changed).
//!   Only the edited region may cost prover work; every untouched region
//!   is still served.
//!
//! The harness cross-checks per-array verdicts across all three passes:
//! a speedup obtained by changing an answer would be a soundness bug, so
//! it refuses to report one.

use std::path::Path;
use std::time::Instant;

use formad::{Decision, Formad, FormadOptions, SharedEngine};
use formad_ir::{BinOp, Expr, ForLoop, Program, Stmt};
use formad_smt::SolverStats;

use crate::prover_bench::{suite, SuiteKernel};

/// Per-array verdicts of one suite pass, flattened for comparison.
type Verdicts = Vec<(String, usize, String, bool)>;

/// What one suite pass measured.
struct Pass {
    wall_s: f64,
    stats: SolverStats,
    /// Regions whose whole decision set came from the fingerprint index.
    fp_served: u64,
    regions: usize,
    verdicts: Verdicts,
}

/// Analyze every kernel once over a fresh engine rooted at `dir`,
/// flushing the index before returning.
fn run_pass(kernels: &[SuiteKernel], dir: &Path) -> Pass {
    let engine = SharedEngine::with_cache_dir(dir);
    let mut stats = SolverStats::default();
    let mut verdicts = Verdicts::new();
    let mut regions = 0;
    let start = Instant::now();
    for k in kernels {
        let indep: Vec<&str> = k.independents.iter().map(|s| s.as_str()).collect();
        let dep: Vec<&str> = k.dependents.iter().map(|s| s.as_str()).collect();
        let mut opts = FormadOptions::new(&indep, &dep);
        opts.region.jobs = 1;
        opts.region.fingerprints = engine.fingerprints().cloned();
        let a = Formad::new(opts).analyze(&k.program).expect("analysis");
        stats.merge(&a.stats);
        regions += a.regions.len();
        for (ri, region) in a.regions.iter().enumerate() {
            let mut arrays: Vec<&String> = region.decisions.keys().collect();
            arrays.sort();
            for arr in arrays {
                let shared = matches!(region.decisions[arr], Decision::Shared);
                verdicts.push((k.name.clone(), ri, arr.clone(), shared));
            }
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    engine.flush_disk();
    let fp_served = engine.fingerprints().map(|f| f.stats().hits).unwrap_or(0);
    Pass {
        wall_s,
        stats,
        fp_served,
        regions,
        verdicts,
    }
}

/// The one-loop edit: rewrite the upper bound of the program's first
/// parallel loop to `hi + 0`. Integer arithmetic, so it typechecks in any
/// kernel; the iteration space is identical, so activity and every
/// per-array verdict are unchanged — but the printed loop, and therefore
/// its fingerprint, is not.
fn edit_one_loop(p: &Program) -> Program {
    fn contains_parallel(s: &Stmt) -> bool {
        match s {
            Stmt::For(l) => l.parallel.is_some() || l.body.iter().any(contains_parallel),
            Stmt::If {
                then_body,
                else_body,
                ..
            } => then_body.iter().any(contains_parallel) || else_body.iter().any(contains_parallel),
            _ => false,
        }
    }
    fn first_parallel(body: &mut [Stmt]) -> Option<&mut ForLoop> {
        let idx = body.iter().position(contains_parallel)?;
        match &mut body[idx] {
            Stmt::For(l) => {
                if l.parallel.is_some() {
                    Some(l)
                } else {
                    first_parallel(&mut l.body)
                }
            }
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                if then_body.iter().any(contains_parallel) {
                    first_parallel(then_body)
                } else {
                    first_parallel(else_body)
                }
            }
            _ => None,
        }
    }
    let mut edited = p.clone();
    let l = first_parallel(&mut edited.body)
        .unwrap_or_else(|| panic!("program `{}` has no parallel loop to edit", p.name));
    let old = std::mem::replace(&mut l.hi, Expr::IntLit(0));
    l.hi = Expr::Binary {
        op: BinOp::Add,
        lhs: Box::new(old),
        rhs: Box::new(Expr::IntLit(0)),
    };
    edited
}

/// Everything `BENCH_incremental.json` records.
#[derive(Debug)]
pub struct IncrementalBenchResult {
    /// Cold/warm/edited triples measured (each over a fresh cache dir).
    pub iters: usize,
    /// Kernels per suite pass.
    pub kernels: usize,
    /// Parallel regions per suite pass.
    pub regions_per_pass: usize,
    /// Kernel whose first loop the edited pass perturbs.
    pub edited_kernel: String,
    /// Total wall-clock per configuration (seconds).
    pub cold_s: f64,
    pub warm_s: f64,
    pub edited_s: f64,
    /// `cold_s / warm_s` — the headline number; the acceptance bar is 10.
    pub warm_speedup: f64,
    /// `cold_s / edited_s`.
    pub edited_speedup: f64,
    /// Per-iteration times.
    pub cold_iter_s: Vec<f64>,
    pub warm_iter_s: Vec<f64>,
    pub edited_iter_s: Vec<f64>,
    /// Linear-feasibility calls per pass (cold does all the work, warm
    /// must do none, edited pays only for the edited region).
    pub cold_lia_calls: u64,
    pub warm_lia_calls: u64,
    pub edited_lia_calls: u64,
    /// Regions served whole from the fingerprint index per pass.
    pub cold_fp_served: u64,
    pub warm_fp_served: u64,
    pub edited_fp_served: u64,
    /// True when every per-array verdict agreed across all three passes.
    pub verdicts_agree: bool,
}

/// Run the benchmark: `iters` cold/warm/edited triples, each over its own
/// throwaway cache directory.
///
/// Panics if the warm pass costs any linear-feasibility call, if the
/// warm pass fails to serve every region from the fingerprint index, or
/// if any per-array verdict differs across the passes — each of those
/// would invalidate the measurement (and the durable index).
pub fn incremental_bench(iters: usize) -> IncrementalBenchResult {
    assert!(iters > 0, "need at least one iteration");
    let kernels = suite();
    let edited_kernel = "GFMC".to_string();
    let edited: Vec<SuiteKernel> = kernels
        .iter()
        .map(|k| SuiteKernel {
            name: k.name.clone(),
            program: if k.name == edited_kernel {
                edit_one_loop(&k.program)
            } else {
                k.program.clone()
            },
            independents: k.independents.clone(),
            dependents: k.dependents.clone(),
        })
        .collect();

    let mut cold_iter_s = Vec::with_capacity(iters);
    let mut warm_iter_s = Vec::with_capacity(iters);
    let mut edited_iter_s = Vec::with_capacity(iters);
    let mut last: Option<(Pass, Pass, Pass)> = None;
    for i in 0..iters {
        let dir =
            std::env::temp_dir().join(format!("formad-bench-incr-{}-{i}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create cache dir");
        let cold = run_pass(&kernels, &dir);
        let warm = run_pass(&kernels, &dir);
        let one_edit = run_pass(&edited, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        cold_iter_s.push(cold.wall_s);
        warm_iter_s.push(warm.wall_s);
        edited_iter_s.push(one_edit.wall_s);
        last = Some((cold, warm, one_edit));
    }
    let (cold, warm, one_edit) = last.expect("at least one iteration ran");

    assert_eq!(
        warm.stats.lia_calls, 0,
        "warm pass did fresh linear-feasibility work over a complete index"
    );
    assert_eq!(
        warm.fp_served as usize, warm.regions,
        "warm pass re-enumerated regions the fingerprint index should have served"
    );
    let verdicts_agree = cold.verdicts == warm.verdicts && cold.verdicts == one_edit.verdicts;
    assert!(
        verdicts_agree,
        "verdicts diverged across passes:\n  cold   {:?}\n  warm   {:?}\n  edited {:?}",
        cold.verdicts, warm.verdicts, one_edit.verdicts
    );

    let cold_s: f64 = cold_iter_s.iter().sum();
    let warm_s: f64 = warm_iter_s.iter().sum();
    let edited_s: f64 = edited_iter_s.iter().sum();
    IncrementalBenchResult {
        iters,
        kernels: kernels.len(),
        regions_per_pass: cold.regions,
        edited_kernel,
        cold_s,
        warm_s,
        edited_s,
        warm_speedup: cold_s / warm_s.max(f64::MIN_POSITIVE),
        edited_speedup: cold_s / edited_s.max(f64::MIN_POSITIVE),
        cold_iter_s,
        warm_iter_s,
        edited_iter_s,
        cold_lia_calls: cold.stats.lia_calls,
        warm_lia_calls: warm.stats.lia_calls,
        edited_lia_calls: one_edit.stats.lia_calls,
        cold_fp_served: cold.fp_served,
        warm_fp_served: warm.fp_served,
        edited_fp_served: one_edit.fp_served,
        verdicts_agree,
    }
}

fn json_f64_list(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(|x| format!("{x:.6}")).collect();
    format!("[{}]", items.join(", "))
}

/// Hand-rolled JSON for [`IncrementalBenchResult`] — flat record, stable
/// key order, newline-terminated.
pub fn incremental_bench_json(r: &IncrementalBenchResult) -> String {
    format!(
        "{{\n  \"bench\": \"incremental\",\n  \"suite\": \"table1\",\n  \
         \"iters\": {},\n  \"kernels\": {},\n  \"regions_per_pass\": {},\n  \
         \"edited_kernel\": \"{}\",\n  \"cold_s\": {:.6},\n  \
         \"warm_s\": {:.6},\n  \"edited_s\": {:.6},\n  \
         \"warm_speedup\": {:.3},\n  \"edited_speedup\": {:.3},\n  \
         \"cold_iter_s\": {},\n  \"warm_iter_s\": {},\n  \
         \"edited_iter_s\": {},\n  \"cold_lia_calls\": {},\n  \
         \"warm_lia_calls\": {},\n  \"edited_lia_calls\": {},\n  \
         \"cold_fp_served\": {},\n  \"warm_fp_served\": {},\n  \
         \"edited_fp_served\": {},\n  \
         \"verdicts_agree\": {}\n}}\n",
        r.iters,
        r.kernels,
        r.regions_per_pass,
        r.edited_kernel,
        r.cold_s,
        r.warm_s,
        r.edited_s,
        r.warm_speedup,
        r.edited_speedup,
        json_f64_list(&r.cold_iter_s),
        json_f64_list(&r.warm_iter_s),
        json_f64_list(&r.edited_iter_s),
        r.cold_lia_calls,
        r.warm_lia_calls,
        r.edited_lia_calls,
        r.cold_fp_served,
        r.warm_fp_served,
        r.edited_fp_served,
        r.verdicts_agree,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_pass_is_free_and_edited_pays_once() {
        let r = incremental_bench(1);
        assert!(r.verdicts_agree);
        assert_eq!(r.warm_lia_calls, 0);
        assert_eq!(r.warm_fp_served as usize, r.regions_per_pass);
        // The cold pass must actually do the work the warm one skips.
        assert!(r.cold_lia_calls > 0);
        assert_eq!(r.cold_fp_served, 0, "cold pass hit a supposedly empty dir");
        // The edit invalidates exactly the edited region: everything else
        // is still served from the index.
        assert!((r.edited_fp_served as usize) < r.regions_per_pass);
        assert!(r.edited_fp_served > 0);
        assert!(r.edited_lia_calls <= r.cold_lia_calls);
        let j = incremental_bench_json(&r);
        assert!(j.contains("\"bench\": \"incremental\""));
        assert!(j.contains("\"warm_lia_calls\": 0"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn edit_changes_print_but_not_verdict_structure() {
        let gf = formad_kernels::GfmcCase::new(8, 1).ir();
        let edited = edit_one_loop(&gf);
        let before = formad_ir::program_to_string(&gf);
        let after = formad_ir::program_to_string(&edited);
        assert_ne!(before, after);
        assert!(after.contains("+ 0"), "edit missing from:\n{after}");
    }
}
