//! Real-hardware kernel benchmark: the paper's Table-2 protocol executed
//! on the AOT backend (parallel regions compiled to a native kernel via
//! `rustc`, run on OS threads; host code on the interpreter's closures).
//!
//! For each executable kernel (both stencils, split GFMC, Green-Gauss,
//! and the literal-offset LBM streaming step) the version protocol —
//! *Primal*, *Adjoint FormAD*, *Adjoint Atomic*, *Adjoint Reduction*,
//! plus *Adjoint Transposed* wherever the scatter map inverts — is
//! compiled once and run on real OS threads via
//! [`formad_machine::NativeEngine`], with the engines, host programs and
//! AOT kernels reused across iterations (the paper's steady-state
//! regime). A version whose kernel does not build has no cells: without
//! a kernel its regions run on the interpreter, which measures no time.
//!
//! A kernel's cells — every (version, backend, thread count) — are timed
//! in one round-robin: each of the `iters` rounds runs every cell once,
//! one thread count after the other. Slow host drift (frequency scaling,
//! background load) then lands on all cells alike, so a ratio across
//! thread counts carries no more of it than a ratio across versions.
//!
//! Before it is timed, every cell goes through
//! [`formad_machine::check_cell`] on its AOT kernel, then one
//! untimed run on the engine that times it (one per thread count,
//! clamped to the host's cores), held to the same reference. A
//! divergent backend would invalidate every measurement, so the harness
//! panics instead of reporting. The comparison mode is read off the
//! compiled program: a version with no shared atomic increment (primal,
//! FormAD, reduction, transposed) must reproduce the simulated
//! interpreter bit for bit on real OS workers; an atomic adjoint commits
//! in hardware order, so it is held bitwise on one OS worker and within
//! `1e-9` relative tolerance on real ones, and what the timed engine
//! produced is recorded per cell (`bitwise`).
//!
//! The per-array increment modes the FormAD version ran under come from
//! the analysis report ([`formad::FormadAnalysis::discipline_map`]).
//! Every derived ratio is computed once, from [`KernelExecData::best`],
//! and stored in the artifact's `summary` (`BENCH_kernels.json` at the
//! repo root), where `bench/tests/bench_artifact.rs` checks it.

use std::sync::Arc;
use std::time::Instant;

use formad::json::{obj, Json};
use formad_ir::Program;
use formad_kernels::{GfmcCase, GreenGaussCase, LbmExecCase, StencilCase};
use formad_machine::{
    check_cell, compile, load_or_compile, lower, AotKernel, BcProgram, Bindings, EngineCache,
    NativeEngine,
};

use crate::pairs::spread;
use crate::versions::{adjoint_bindings, ProgramVersions};

/// Default thread counts measured: one, and the host's cores. More
/// threads than cores would time the OS scheduler, not the kernel.
pub fn exec_threads() -> Vec<usize> {
    match nproc() {
        1 => vec![1],
        n => vec![1, n],
    }
}

/// The host's cores.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The real-hardware backends, in series order.
pub const BACKENDS: [&str; 1] = ["aot"];

/// The versions of the protocol, in series order.
const VERSIONS: [&str; 5] = [
    "primal",
    "adj-FormAD",
    "adj-atomic",
    "adj-reduction",
    "adj-transposed",
];

/// One kernel of the executable suite: primal, bindings, AD in/outputs.
struct KernelCase {
    name: String,
    program: Program,
    base: Bindings,
    indep: &'static [&'static str],
    dep: &'static [&'static str],
}

/// The executable Table-2 kernels (both stencils, split GFMC,
/// Green-Gauss) plus the literal-offset LBM streaming step — the kernel
/// whose colliding adjoint scatter the transposed discipline exists to
/// flip (the paper's LBM fixture itself stays analysis-only: privatized
/// scalars keep it guarded).
/// `smoke` shrinks the sizes to CI scale — the determinism contract
/// still holds every cell, wall-clock numbers are too small to mean
/// anything.
fn cases(smoke: bool) -> Vec<KernelCase> {
    let (st_n, st_sweeps, gf_ns, gf_reps, gg_nodes, gg_reps) = if smoke {
        (512, 1, 16, 1, 512, 1)
    } else {
        (100_000, 2, 96, 2, 50_000, 2)
    };
    let st1 = StencilCase::small(st_n, st_sweeps);
    let st8 = StencilCase::large(st_n, st_sweeps);
    let gf = GfmcCase::new(gf_ns, gf_reps);
    let gg = GreenGaussCase::linear(gg_nodes, gg_reps);
    let lbm = if smoke {
        LbmExecCase::smoke()
    } else {
        // Four times `LbmExecCase::full()`. At 6000 cells each of the
        // adjoint's 19 gather regions is ≈ 20 µs of work — less than one
        // pool dispatch on this host — so every T ≥ 2 cell of the gather
        // measured 19 dispatches and the atomic version (one region) won
        // by default; while each run still cloned its bindings, 10 ms of
        // copy on both sides hid that.
        LbmExecCase::new(24_000, 25_600)
    };
    vec![
        KernelCase {
            name: format!("stencil r=1 n={st_n} sweeps={st_sweeps}"),
            program: st1.ir(),
            base: st1.bindings(0xBEEF),
            indep: StencilCase::independents(),
            dep: StencilCase::dependents(),
        },
        KernelCase {
            name: format!("stencil r=8 n={st_n} sweeps={st_sweeps}"),
            program: st8.ir(),
            base: st8.bindings(0xBEEF),
            indep: StencilCase::independents(),
            dep: StencilCase::dependents(),
        },
        KernelCase {
            name: format!("gfmc ns={gf_ns} reps={gf_reps}"),
            program: gf.ir(),
            base: gf.bindings_split(0xBEEF),
            indep: GfmcCase::independents(),
            dep: GfmcCase::dependents(),
        },
        KernelCase {
            name: format!("green-gauss nodes={gg_nodes} reps={gg_reps}"),
            program: gg.ir(),
            base: gg.bindings(0xBEEF),
            indep: GreenGaussCase::independents(),
            dep: GreenGaussCase::dependents(),
        },
        KernelCase {
            name: format!("lbm ncells={} nce={}", lbm.ncells, lbm.nce),
            program: lbm.ir(),
            base: lbm.bindings(0xBEEF),
            indep: LbmExecCase::independents(),
            dep: LbmExecCase::dependents(),
        },
    ]
}

/// Wall-clock samples of one program version on one backend at one
/// thread count.
#[derive(Debug)]
pub struct VersionTiming {
    /// Version label (one of `primal`, `adj-FormAD`, `adj-atomic`,
    /// `adj-reduction`, `adj-transposed`).
    pub version: &'static str,
    /// Execution backend (`aot`).
    pub backend: &'static str,
    /// OS threads used.
    pub threads: usize,
    /// Observed verification status: true when this cell reproduced the
    /// simulated interpreter bit for bit on real OS workers.
    /// Schedule-independent cells *must* (the harness panics otherwise);
    /// a commit-order-dependent one may differ within tolerance there
    /// and records what actually happened.
    pub bitwise: bool,
    /// Per-iteration wall-clock (seconds), one per round.
    pub iter_s: Vec<f64>,
}

impl VersionTiming {
    /// Fastest iteration — the steady-state estimate benchmarks compare.
    pub fn best_s(&self) -> f64 {
        self.iter_s.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Distance between the iterations' quartiles: how far the cell's
    /// runs spread.
    pub fn iqr_s(&self) -> f64 {
        let s = spread(&self.iter_s);
        s.q3 - s.q1
    }
}

/// Everything measured for one kernel.
#[derive(Debug)]
pub struct KernelExecData {
    /// Kernel label with problem size.
    pub name: String,
    /// True when FormAD proved every adjoint array safe.
    pub all_safe: bool,
    /// `(region, array, mode)` — the increment discipline each adjoint
    /// array ran under in the FormAD version, from the analysis report.
    pub disciplines: Vec<(usize, String, String)>,
    /// True when the AOT kernels built and were measured; false means
    /// some build degraded and its version has no cells.
    pub aot_available: bool,
    /// Every cell: versions × backends × thread counts.
    pub series: Vec<VersionTiming>,
}

impl KernelExecData {
    /// Best wall-clock of one cell; `None` when it was not measured.
    pub fn best(&self, version: &str, backend: &str, threads: usize) -> Option<f64> {
        self.series
            .iter()
            .find(|s| s.version == version && s.backend == backend && s.threads == threads)
            .map(VersionTiming::best_s)
    }
}

/// Everything `BENCH_kernels.json` records.
#[derive(Debug)]
pub struct KernelBenchResult {
    /// Cores of the host the cells were timed on: thread counts above it
    /// are oversubscribed.
    pub nproc: usize,
    /// Timed rounds: iterations per cell.
    pub iters: usize,
    /// Thread counts measured.
    pub threads: Vec<usize>,
    /// Smoke sizes?
    pub smoke: bool,
    /// Per-kernel data.
    pub kernels: Vec<KernelExecData>,
}

/// One version of a kernel, compiled: its host program always, the AOT
/// kernel when the toolchain cooperates.
struct Version<'a> {
    label: &'static str,
    prog: &'a Program,
    bind: &'a Bindings,
    bc: BcProgram,
    kernel: Option<Arc<AotKernel>>,
}

/// Run the benchmark: the version protocol over `threads` on AOT, every
/// cell held to the determinism contract against the
/// simulated interpreter, then `iters` rounds that each time every cell
/// of the kernel once.
pub fn kernel_bench(iters: usize, threads: &[usize], smoke: bool) -> KernelBenchResult {
    assert!(iters > 0, "need at least one iteration");
    assert!(!threads.is_empty(), "need at least one thread count");
    let mut checkers = EngineCache::new();
    let mut kernels = Vec::new();
    for case in cases(smoke) {
        let versions = ProgramVersions::generate(&case.program, case.indep, case.dep);
        let adj_base = adjoint_bindings(&versions.primal, &case.base, case.indep, case.dep);
        let mut progs = vec![
            ("primal", &versions.primal, &case.base),
            ("adj-FormAD", &versions.adj_formad, &adj_base),
            ("adj-atomic", &versions.adj_atomic, &adj_base),
            ("adj-reduction", &versions.adj_reduction, &adj_base),
        ];
        if let Some(tr) = &versions.adj_transposed {
            progs.push(("adj-transposed", tr, &adj_base));
        }
        // Extents are baked into the generated source, so one AOT kernel
        // serves every thread count. A failed build leaves that version
        // untimed; it does not abort the benchmark.
        let compiled: Vec<Version> = progs
            .into_iter()
            .map(|(label, prog, bind)| {
                let lp = lower(prog, bind)
                    .unwrap_or_else(|e| panic!("lowering `{}` failed: {e}", prog.name));
                let bc = compile(&lp, prog)
                    .unwrap_or_else(|e| panic!("compiling `{}` failed: {e}", prog.name));
                let kernel = load_or_compile(&lp, &bc)
                    .map_err(|e| eprintln!("bench: {}/{label}: aot degraded: {e}", case.name))
                    .ok();
                Version {
                    label,
                    prog,
                    bind,
                    bc,
                    kernel,
                }
            })
            .collect();
        let mut timed: Vec<NativeEngine> = threads.iter().map(|&t| NativeEngine::new(t)).collect();
        // The cells, each verified once: `(version, timed engine, kernel)`
        // beside the series entry it fills.
        let mut series = Vec::new();
        let mut plan = Vec::new();
        for (e, &t) in threads.iter().enumerate() {
            for (v, ver) in compiled.iter().enumerate() {
                let kernel = ver.kernel.as_deref();
                let cell = check_cell(&mut checkers, ver.prog, &ver.bc, kernel, ver.bind, t)
                    .unwrap_or_else(|err| panic!("{} / {}: {err}", case.name, ver.label));
                let Some(k) = kernel else {
                    continue;
                };
                let ctx = format!("{} / {} [aot] at T={t}", case.name, ver.label);
                let mut out = ver.bind.clone();
                timed[e]
                    .run_with(&ver.bc, Some(k), &mut out)
                    .unwrap_or_else(|err| panic!("{ctx}: timed engine failed: {err}"));
                let bitwise = cell
                    .admits(&out)
                    .unwrap_or_else(|d| panic!("{ctx}: sim vs timed engine: {d}"));
                series.push(VersionTiming {
                    version: ver.label,
                    backend: "aot",
                    threads: t,
                    bitwise,
                    iter_s: Vec::with_capacity(iters),
                });
                plan.push((v, e, k));
            }
        }
        for _ in 0..iters {
            for (cell, &(v, e, k)) in series.iter_mut().zip(&plan) {
                let ver = &compiled[v];
                let mut b = ver.bind.clone();
                let t0 = Instant::now();
                timed[e]
                    .run_with(&ver.bc, Some(k), &mut b)
                    .unwrap_or_else(|err| {
                        panic!("{} run of `{}` failed: {err}", cell.backend, ver.label)
                    });
                cell.iter_s.push(t0.elapsed().as_secs_f64());
            }
        }
        kernels.push(KernelExecData {
            name: case.name,
            all_safe: versions.analysis.all_safe(),
            disciplines: (versions.analysis.discipline_map().into_iter())
                .map(|(r, a, m)| (r, a, m.to_string()))
                .collect(),
            aot_available: compiled.iter().all(|v| v.kernel.is_some()),
            series,
        });
    }
    KernelBenchResult {
        nproc: nproc(),
        iters,
        threads: threads.to_vec(),
        smoke,
        kernels,
    }
}

/// `x` rounded to `digits` decimals, as JSON.
fn num(x: f64, digits: i32) -> Json {
    let scale = 10f64.powi(digits);
    Json::Num((x * scale).round() / scale)
}

/// `a / b` to four decimals, `null` unless both were measured.
fn ratio(a: Option<f64>, b: Option<f64>) -> Json {
    a.zip(b).map_or(Json::Null, |(a, b)| num(a / b, 4))
}

/// One kernel's `summary` entry: the fastest cell overall and among
/// adjoints; per version, the AOT time at two threads over one
/// (`t2_over_t1`); per backend, the
/// FormAD adjoint over the primal at one thread (`adjoint_over_primal`,
/// the paper's metric), and atomic over FormAD and over transposed at
/// `check_threads`.
fn kernel_summary(k: &KernelExecData, check: usize) -> Json {
    let best = |v: &str, b: &str, t: usize| k.best(v, b, t);
    let per_version = |f: &dyn Fn(&str) -> Json| obj(VERSIONS.map(|v| (v, f(v))).to_vec());
    let per_backend = |f: &dyn Fn(&str) -> Json| obj(BACKENDS.map(|b| (b, f(b))).to_vec());
    let fastest = |adjoint_only: bool| {
        (k.series.iter())
            .filter(|s| !adjoint_only || s.version.starts_with("adj-"))
            .min_by(|a, b| a.best_s().total_cmp(&b.best_s()))
            .map_or(Json::Null, |s| {
                obj(vec![
                    ("version", s.version.into()),
                    ("backend", s.backend.into()),
                    ("threads", s.threads.into()),
                    ("best_s", num(s.best_s(), 9)),
                ])
            })
    };
    obj(vec![
        ("name", k.name.as_str().into()),
        ("fastest", fastest(false)),
        ("fastest_adjoint", fastest(true)),
        (
            "t2_over_t1",
            per_version(&|v| ratio(best(v, "aot", 2), best(v, "aot", 1))),
        ),
        (
            "adjoint_over_primal",
            per_backend(&|b| ratio(best("adj-FormAD", b, 1), best("primal", b, 1))),
        ),
        (
            "formad_over_atomic",
            per_backend(&|b| ratio(best("adj-atomic", b, check), best("adj-FormAD", b, check))),
        ),
        (
            "atomic_over_transposed",
            per_backend(&|b| {
                ratio(
                    best("adj-atomic", b, check),
                    best("adj-transposed", b, check),
                )
            }),
        ),
    ])
}

/// `BENCH_kernels.json`: the run's settings, the `summary` of derived
/// ratios at `check_threads` (the largest thread count), and per kernel
/// its disciplines and raw cells. `note` is present only when some
/// thread count exceeds `nproc`. Newline-terminated.
pub fn kernel_bench_json(r: &KernelBenchResult) -> String {
    let check = *r.threads.iter().max().expect("a thread count");
    let mut summary = vec![("check_threads", check.into())];
    if check > r.nproc {
        summary.push((
            "note",
            "thread counts above nproc are oversubscribed: those cells time the OS \
             scheduler too, and atomic contention costs are a lower bound on what a \
             real multicore pays"
                .into(),
        ));
    }
    let sums = r.kernels.iter().map(|k| kernel_summary(k, check));
    summary.push(("kernels", Json::Arr(sums.collect())));
    let kernel = |k: &KernelExecData| {
        let disciplines = (k.disciplines.iter())
            .map(|(region, array, mode)| {
                obj(vec![
                    ("region", (*region).into()),
                    ("array", array.as_str().into()),
                    ("mode", mode.as_str().into()),
                ])
            })
            .collect();
        let series = (k.series.iter())
            .map(|s| {
                obj(vec![
                    ("version", s.version.into()),
                    ("backend", s.backend.into()),
                    ("threads", s.threads.into()),
                    ("bitwise", s.bitwise.into()),
                    ("best_s", num(s.best_s(), 9)),
                    ("iqr_s", num(s.iqr_s(), 9)),
                    (
                        "iter_s",
                        Json::Arr(s.iter_s.iter().map(|&x| num(x, 9)).collect()),
                    ),
                ])
            })
            .collect();
        obj(vec![
            ("name", k.name.as_str().into()),
            ("all_safe", k.all_safe.into()),
            ("disciplines", Json::Arr(disciplines)),
            ("aot_available", k.aot_available.into()),
            ("series", Json::Arr(series)),
        ])
    };
    let doc = obj(vec![
        ("bench", "kernel_exec".into()),
        ("backends", Json::Arr(BACKENDS.map(Json::from).to_vec())),
        ("nproc", r.nproc.into()),
        ("iters", r.iters.into()),
        (
            "threads",
            Json::Arr(r.threads.iter().map(|&t| t.into()).collect()),
        ),
        ("smoke", r.smoke.into()),
        ("summary", obj(summary)),
        ("kernels", Json::Arr(r.kernels.iter().map(kernel).collect())),
    ]);
    format!("{}\n", doc.render_pretty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_bench_verifies_and_serializes() {
        let r = kernel_bench(2, &[1, 2], true);
        assert_eq!(r.kernels.len(), 5);
        for k in &r.kernels {
            assert!(!k.disciplines.is_empty(), "{} has no disciplines", k.name);
            // versions × 2 thread counts when the AOT build succeeded
            // (a version it failed for has no cells); the version count
            // varies — kernels with an invertible scatter map carry an
            // extra adj-transposed row.
            let versions: std::collections::BTreeSet<&str> =
                k.series.iter().map(|s| s.version).collect();
            assert!(versions.len() == 4 || versions.len() == 5, "{versions:?}");
            assert!(k.aot_available, "{}: AOT must build in-tree", k.name);
            assert_eq!(
                k.series.len(),
                versions.len() * 2 * BACKENDS.len(),
                "{}: versions × backends × thread counts",
                k.name
            );
            for s in &k.series {
                assert_eq!(s.iter_s.len(), 2, "one sample per round");
                assert!(s.iqr_s().is_finite() && s.iqr_s() >= 0.0);
            }
        }
        // The stencils and Green-Gauss are fully proven safe: their FormAD
        // discipline must be plain everywhere.
        for k in &r.kernels {
            if k.name.starts_with("stencil") || k.name.starts_with("green-gauss") {
                assert!(k.all_safe, "{} should be all-safe", k.name);
                assert!(
                    k.disciplines.iter().all(|(_, _, m)| m == "plain"),
                    "{}: {:?}",
                    k.name,
                    k.disciplines
                );
            }
        }
        // The stencils' scatter maps invert structurally, Green-Gauss's
        // mesh indirection does not.
        for k in &r.kernels {
            let has_tr = k.series.iter().any(|s| s.version == "adj-transposed");
            if k.name.starts_with("stencil") {
                assert!(has_tr, "{}: transposed version missing", k.name);
            }
            if k.name.starts_with("green-gauss") {
                assert!(!has_tr, "{}: transposed must not exist", k.name);
            }
        }
        // The LBM streaming step is the tentpole: the analysis *proves*
        // the srcgrid gather safe and the transposed cells run bitwise on
        // AOT.
        let lbm = r
            .kernels
            .iter()
            .find(|k| k.name.starts_with("lbm"))
            .expect("lbm kernel");
        assert!(lbm.all_safe, "lbm transposed verdict counts as safe");
        assert!(
            lbm.disciplines
                .iter()
                .any(|(_, a, m)| a == "srcgrid" && m == "transposed"),
            "{:?}",
            lbm.disciplines
        );
        let tr_cells: Vec<_> = lbm
            .series
            .iter()
            .filter(|s| s.version == "adj-transposed")
            .collect();
        assert!(!tr_cells.is_empty(), "lbm must carry adj-transposed");
        assert!(
            tr_cells.iter().all(|s| s.bitwise),
            "transposed gather is deterministic on AOT"
        );
        // The artifact parses back; each ratio sits in `summary` only.
        let j = Json::parse(&kernel_bench_json(&r)).expect("artifact parses");
        assert_eq!(j.get("bench").and_then(Json::as_str), Some("kernel_exec"));
        let summary = j.get("summary").expect("summary");
        assert_eq!(summary.get("note").is_some(), r.nproc < 2);
        let sums = summary.get("kernels").and_then(Json::as_arr).unwrap();
        let raws = j.get("kernels").and_then(Json::as_arr).unwrap();
        assert_eq!((sums.len(), raws.len()), (5, 5));
        for ((sum, raw), k) in sums.iter().zip(raws).zip(&r.kernels) {
            let ratios = ["t2_over_t1", "formad_over_atomic", "atomic_over_transposed"];
            for key in ratios {
                assert!(sum.get(key).is_some() && raw.get(key).is_none(), "{key}");
            }
            let has_tr = k.series.iter().any(|s| s.version == "adj-transposed");
            let tr = sum.get("atomic_over_transposed").and_then(|t| t.get("aot"));
            assert_eq!(tr != Some(&Json::Null), has_tr, "{}", k.name);
        }
    }
}
