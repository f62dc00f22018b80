//! Real-hardware kernel benchmark: the paper's Table-2 protocol executed
//! on the native backends — flat bytecode on OS threads, and the AOT
//! backend (parallel regions compiled to a native cdylib via `rustc`).
//!
//! For each executable kernel (both stencils, split GFMC, Green-Gauss,
//! and the literal-offset LBM streaming step) the version protocol —
//! *Primal*, *Adjoint FormAD*, *Adjoint Atomic*, *Adjoint Reduction*,
//! plus *Adjoint Transposed* wherever the scatter map inverts — is
//! compiled once and run on real OS threads via
//! [`formad_machine::NativeEngine`], measuring wall-clock per iteration
//! with the engine, compiled bytecode, and AOT kernel all reused across
//! iterations (the paper's steady-state regime).
//!
//! Cross-checks guarding the numbers:
//!
//! * **determinism contract** — every (kernel, version, thread-count)
//!   cell goes through [`formad_machine::check_cell`] on both native
//!   backends before it is timed, and the engine that is then timed
//!   (clamped to the host's cores) runs each cell once against the same
//!   reference; a divergent backend would invalidate every measurement,
//!   so the harness panics instead of reporting. The
//!   comparison mode is read off the compiled program, not set here: a
//!   version with no shared atomic increment (primal, FormAD, reduction,
//!   transposed — the gather is deterministic by construction, which is
//!   half the point of the discipline) must reproduce the simulated
//!   interpreter bit for bit on real OS workers; an atomic adjoint
//!   commits in hardware order, so it is held bitwise on one OS worker
//!   and within `1e-9` relative tolerance on real ones, and what the
//!   timed engine actually produced is recorded per series (`bitwise`).
//! * **ordering** — the measured FormAD-over-atomic ratio at the check
//!   thread count is recorded per kernel (`measured_formad_over_atomic`);
//!   `bench/tests/bench_artifact.rs` holds it above 1 on every kernel of
//!   the committed artifact.
//! * **discipline** — the per-array increment modes the FormAD version
//!   actually ran under come straight from the analysis report
//!   ([`formad::FormadAnalysis::discipline_map`]), not from re-deriving
//!   anything here.
//!
//! Results serialize to JSON by hand (`BENCH_kernels.json` at the repo
//! root) — the workspace takes no serde dependency.

use std::fmt::Write as _;
use std::time::Instant;

use formad_ir::Program;
use formad_kernels::{GfmcCase, GreenGaussCase, LbmExecCase, StencilCase};
use formad_machine::{
    check_cell, compile, load_or_compile, lower, Bindings, EngineCache, NativeEngine,
};

use crate::versions::{adjoint_bindings, ProgramVersions};

/// Default thread counts measured (the host rarely has 18 real cores;
/// oversubscription beyond 4 adds noise without information).
pub const EXEC_THREADS: [usize; 3] = [1, 2, 4];

/// The two real-hardware backends, in series order.
pub const BACKENDS: [&str; 2] = ["bytecode", "aot"];

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
    /// Version label (`primal`, `adj-FormAD`, `adj-atomic`,
    /// `adj-reduction`, `adj-transposed`).
    pub version: String,
    /// Execution backend (`bytecode` or `aot`).
    pub backend: String,
    /// OS threads used.
    pub threads: usize,
    /// Observed verification status: true when this cell reproduced the
    /// simulated interpreter bit for bit on real OS workers.
    /// Schedule-independent cells *must* (the harness panics otherwise);
    /// a commit-order-dependent one may differ within tolerance there
    /// and records what actually happened.
    pub bitwise: bool,
    /// Per-iteration wall-clock (seconds), in measurement order.
    pub iter_s: Vec<f64>,
}

impl VersionTiming {
    /// Fastest iteration — the steady-state estimate benchmarks compare.
    pub fn best_s(&self) -> f64 {
        self.iter_s.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Mean iteration time.
    pub fn mean_s(&self) -> f64 {
        self.iter_s.iter().sum::<f64>() / self.iter_s.len().max(1) as f64
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
    /// True: every cell was cross-run under the simulated interpreter
    /// and satisfied the determinism contract (the harness panics
    /// otherwise).
    pub native_matches_sim: bool,
    /// True when the AOT kernels built and were measured; false means
    /// the build degraded and only bytecode numbers exist.
    pub aot_available: bool,
    /// Thread count of the headline ratios: the largest measured.
    pub check_threads: usize,
    /// Measured: best atomic wall-clock / best FormAD wall-clock at
    /// `check_threads`, on the AOT backend when available, else
    /// bytecode (> 1 means FormAD is faster).
    pub measured_formad_over_atomic: f64,
    /// Measured: best atomic wall-clock / best transposed wall-clock at
    /// `check_threads` on the headline backend. NaN when the kernel has
    /// no transposed version (non-invertible scatter map).
    pub measured_atomic_over_transposed: f64,
    /// All timings: versions × backends × thread counts.
    pub series: Vec<VersionTiming>,
}

impl KernelExecData {
    /// Did the FormAD adjoint beat the atomic adjoint on real hardware?
    pub fn formad_beats_atomic(&self) -> bool {
        self.measured_formad_over_atomic > 1.0
    }

    /// Best wall-clock of a version on a backend at a thread count.
    pub fn best_s_on(&self, version: &str, backend: &str, threads: usize) -> Option<f64> {
        self.series
            .iter()
            .find(|s| s.version == version && s.backend == backend && s.threads == threads)
            .map(VersionTiming::best_s)
    }

    /// Best wall-clock of a version at a thread count on the headline
    /// backend (AOT when available).
    pub fn best_s(&self, version: &str, threads: usize) -> f64 {
        self.best_s_on(version, self.headline_backend(), threads)
            .unwrap_or_else(|| panic!("no series {version} at T={threads}"))
    }

    /// The backend the headline ratios are measured on.
    pub fn headline_backend(&self) -> &'static str {
        if self.aot_available {
            "aot"
        } else {
            "bytecode"
        }
    }

    /// The overall fastest cell of this kernel.
    pub fn fastest(&self) -> &VersionTiming {
        self.fastest_of(|_| true).expect("kernel has timings")
    }

    /// The fastest cell among a filtered set of series.
    pub fn fastest_of(&self, keep: impl Fn(&VersionTiming) -> bool) -> Option<&VersionTiming> {
        self.series
            .iter()
            .filter(|s| keep(s))
            .min_by(|a, b| a.best_s().total_cmp(&b.best_s()))
    }

    /// Best-over-threads bytecode time / best-over-threads AOT time for
    /// one version — the dispatch overhead the AOT backend removed.
    pub fn aot_over_bytecode(&self, version: &str) -> Option<f64> {
        let best = |backend: &str| {
            self.series
                .iter()
                .filter(|s| s.version == version && s.backend == backend)
                .map(VersionTiming::best_s)
                .fold(f64::INFINITY, f64::min)
        };
        let (b, a) = (best("bytecode"), best("aot"));
        (a.is_finite() && b.is_finite()).then_some(b / a)
    }

    /// Measured FormAD-over-atomic on one backend at `check_threads`.
    pub fn formad_over_atomic_on(&self, backend: &str) -> Option<f64> {
        let a = self.best_s_on("adj-atomic", backend, self.check_threads)?;
        let f = self.best_s_on("adj-FormAD", backend, self.check_threads)?;
        Some(a / f)
    }

    /// Measured atomic-over-transposed on one backend at
    /// `check_threads`. `None` when the kernel carries no transposed
    /// version.
    pub fn atomic_over_transposed_on(&self, backend: &str) -> Option<f64> {
        let a = self.best_s_on("adj-atomic", backend, self.check_threads)?;
        let tr = self.best_s_on("adj-transposed", backend, self.check_threads)?;
        Some(a / tr)
    }

    /// One version's best wall-clock at two threads over its best at one,
    /// on the AOT backend: below 1 means the second thread paid for its
    /// dispatch. `None` unless both thread counts were measured there.
    pub fn t2_over_t1(&self, version: &str) -> Option<f64> {
        Some(self.best_s_on(version, "aot", 2)? / self.best_s_on(version, "aot", 1)?)
    }

    /// The paper's own metric: FormAD adjoint over primal on one backend
    /// at one thread, where no parallel speedup is mixed in.
    pub fn adjoint_over_primal_on(&self, backend: &str) -> Option<f64> {
        let a = self.best_s_on("adj-FormAD", backend, 1)?;
        let p = self.best_s_on("primal", backend, 1)?;
        Some(a / p)
    }
}

/// Everything `BENCH_kernels.json` records.
#[derive(Debug)]
pub struct KernelBenchResult {
    /// Cores of the host the cells were timed on: thread counts above it
    /// are oversubscribed.
    pub nproc: usize,
    /// Timed iterations per cell.
    pub iters: usize,
    /// Thread counts measured.
    pub threads: Vec<usize>,
    /// Smoke sizes?
    pub smoke: bool,
    /// Per-kernel data.
    pub kernels: Vec<KernelExecData>,
    /// Every cell satisfied the determinism contract on both backends:
    /// schedule-independent ones bitwise on real workers, atomic ones
    /// bitwise on one worker and within tolerance on real ones (see each
    /// series' `bitwise` flag for what was actually observed).
    pub all_bitwise: bool,
}

/// Run the benchmark: the four-version protocol over `threads` and both
/// backends, `iters` timed iterations per cell, every cell held to the
/// determinism contract against the simulated interpreter.
pub fn kernel_bench(iters: usize, threads: &[usize], smoke: bool) -> KernelBenchResult {
    assert!(iters > 0, "need at least one iteration");
    assert!(!threads.is_empty(), "need at least one thread count");
    let check_threads = *threads.iter().max().unwrap();
    let mut kernels = Vec::new();
    let mut engines = EngineCache::new();
    for case in cases(smoke) {
        let versions = ProgramVersions::generate(&case.program, case.indep, case.dep);
        let adj_base = adjoint_bindings(&versions.primal, &case.base, case.indep, case.dep);
        let disciplines: Vec<(usize, String, String)> = versions
            .analysis
            .discipline_map()
            .into_iter()
            .map(|(r, a, m)| (r, a, m.to_string()))
            .collect();
        let mut progs: Vec<(&str, &Program, &Bindings)> = vec![
            ("primal", &versions.primal, &case.base),
            ("adj-FormAD", &versions.adj_formad, &adj_base),
            ("adj-atomic", &versions.adj_atomic, &adj_base),
            ("adj-reduction", &versions.adj_reduction, &adj_base),
        ];
        if let Some(tr) = &versions.adj_transposed {
            progs.push(("adj-transposed", tr, &adj_base));
        }
        // Compile each version once — bytecode always, the AOT kernel
        // when the toolchain cooperates (extents are baked into the
        // generated source, so one kernel serves every thread count).
        // A failed build degrades that version to bytecode-only, it
        // does not abort the benchmark.
        let mut compiled = Vec::with_capacity(progs.len());
        let mut aot_available = true;
        for (label, prog, bind) in &progs {
            let lp = lower(prog, bind)
                .unwrap_or_else(|e| panic!("lowering `{}` failed: {e}", prog.name));
            let bc = compile(&lp, prog)
                .unwrap_or_else(|e| panic!("compiling `{}` failed: {e}", prog.name));
            let kernel = match load_or_compile(&lp, &bc) {
                Ok(k) => Some(k),
                Err(e) => {
                    eprintln!(
                        "bench: {}/{label}: aot degraded to bytecode: {e}",
                        case.name
                    );
                    aot_available = false;
                    None
                }
            };
            compiled.push((*label, bc, kernel, *bind));
        }
        let mut series = Vec::new();
        for &t in threads {
            let mut engine = NativeEngine::new(t);
            // Verification pass: the determinism contract on both native
            // backends, on its own engines (one OS worker per logical
            // thread, whatever the host), then one untimed run of each
            // cell on the timed engine above (clamped to the host's
            // cores), held to the same reference — so the engine whose
            // times are published is verified and warm, and `bitwise` is
            // what *it* produced.
            let mut cell_bitwise: Vec<(usize, &'static str, bool)> = Vec::new();
            for (i, (label, bc, kernel, bind)) in compiled.iter().enumerate() {
                let cell = check_cell(
                    &mut engines,
                    compiled_program(&progs, label),
                    bc,
                    kernel.as_deref(),
                    bind,
                    t,
                )
                .unwrap_or_else(|e| panic!("{} / {label}: {e}", case.name));
                let backends = std::iter::once(("bytecode", None))
                    .chain(kernel.as_deref().map(|k| ("aot", Some(k))));
                for (backend, k) in backends {
                    let ctx = format!("{} / {label} [{backend}] at T={t}", case.name);
                    let mut out = Bindings::clone(bind);
                    engine
                        .run_with(bc, k, &mut out)
                        .unwrap_or_else(|e| panic!("{ctx}: timed engine failed: {e}"));
                    let bw = cell
                        .admits(&out)
                        .unwrap_or_else(|d| panic!("{ctx}: sim vs timed engine: {d}"));
                    cell_bitwise.push((i, backend, bw));
                }
            }
            // Timed iterations, interleaved round-robin across versions
            // AND backends: running any cell's iterations back-to-back
            // lets slow drift (frequency scaling, background load) bias
            // whichever cell happens to run in the quieter window;
            // interleaving spreads time-correlated noise over all cells.
            let mut timings: Vec<(usize, &str, Vec<f64>)> = Vec::new();
            for (i, (_, _, kernel, _)) in compiled.iter().enumerate() {
                timings.push((i, "bytecode", Vec::with_capacity(iters)));
                if kernel.is_some() {
                    timings.push((i, "aot", Vec::with_capacity(iters)));
                }
            }
            for _ in 0..iters {
                for (i, backend, iter_s) in &mut timings {
                    let (label, bc, kernel, bind) = &compiled[*i];
                    let mut b = Bindings::clone(bind);
                    let t0 = Instant::now();
                    let res = match *backend {
                        "aot" => engine.run_with(bc, kernel.as_deref(), &mut b),
                        _ => engine.run(bc, &mut b),
                    };
                    res.unwrap_or_else(|e| panic!("{backend} run of `{label}` failed: {e}"));
                    iter_s.push(t0.elapsed().as_secs_f64());
                }
            }
            for (i, backend, iter_s) in timings {
                let bitwise = cell_bitwise
                    .iter()
                    .find(|(j, b, _)| *j == i && *b == backend)
                    .map(|(_, _, bw)| *bw)
                    .expect("every timed cell was verified");
                series.push(VersionTiming {
                    version: compiled[i].0.to_string(),
                    backend: backend.to_string(),
                    threads: t,
                    bitwise,
                    iter_s,
                });
            }
        }
        let mut data = KernelExecData {
            name: case.name,
            all_safe: versions.analysis.all_safe(),
            disciplines,
            native_matches_sim: true,
            aot_available,
            check_threads,
            measured_formad_over_atomic: 0.0,
            measured_atomic_over_transposed: f64::NAN,
            series,
        };
        data.measured_formad_over_atomic =
            data.best_s("adj-atomic", check_threads) / data.best_s("adj-FormAD", check_threads);
        data.measured_atomic_over_transposed = data
            .atomic_over_transposed_on(data.headline_backend())
            .unwrap_or(f64::NAN);
        kernels.push(data);
    }
    KernelBenchResult {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        iters,
        threads: threads.to_vec(),
        smoke,
        all_bitwise: true,
        kernels,
    }
}

/// Find a version's program by label (the compiled tuple holds bytecode,
/// not the IR the simulator needs).
fn compiled_program<'a>(
    progs: &'a [(&'static str, &'a Program, &'a Bindings)],
    label: &str,
) -> &'a Program {
    progs
        .iter()
        .find(|(l, _, _)| *l == label)
        .map(|(_, p, _)| *p)
        .expect("label from the same table")
}

fn json_usize_list(xs: &[usize]) -> String {
    let items: Vec<String> = xs.iter().map(|x| x.to_string()).collect();
    format!("[{}]", items.join(", "))
}

fn json_f64_list(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(|x| format!("{x:.9}")).collect();
    format!("[{}]", items.join(", "))
}

/// `f64` that may be non-finite → JSON-safe token.
fn json_ratio(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.4}")
    } else {
        "null".to_string()
    }
}

/// The top-level `summary` block: per kernel, the fastest cell overall
/// and among adjoints, the per-version dispatch-removal factor
/// (`aot_over_bytecode`), each version's AOT time at two threads over its
/// time at one (`t2_over_t1`), the FormAD adjoint over the primal at one
/// thread per backend (`adjoint_over_primal`), and the FormAD-over-atomic
/// ratio per backend.
fn summary_json(r: &KernelBenchResult) -> String {
    let mut entries = Vec::new();
    for k in &r.kernels {
        let cell = |s: &VersionTiming| {
            format!(
                "{{\"version\": \"{}\", \"backend\": \"{}\", \"threads\": {}, \
                 \"best_s\": {:.9}}}",
                s.version,
                s.backend,
                s.threads,
                s.best_s()
            )
        };
        let fastest = cell(k.fastest());
        let fastest_adj = k
            .fastest_of(|s| s.version.starts_with("adj-"))
            .map(&cell)
            .unwrap_or_else(|| "null".to_string());
        let per_version = |ratio: &dyn Fn(&str) -> Option<f64>| -> String {
            let entries: Vec<String> = [
                "primal",
                "adj-FormAD",
                "adj-atomic",
                "adj-reduction",
                "adj-transposed",
            ]
            .iter()
            .map(|v| format!("\"{v}\": {}", json_ratio(ratio(v).unwrap_or(f64::NAN))))
            .collect();
            entries.join(", ")
        };
        let foa: Vec<String> = BACKENDS
            .iter()
            .map(|b| {
                format!(
                    "\"{b}\": {}",
                    json_ratio(k.formad_over_atomic_on(b).unwrap_or(f64::NAN))
                )
            })
            .collect();
        let fot: Vec<String> = BACKENDS
            .iter()
            .map(|b| {
                format!(
                    "\"{b}\": {}",
                    json_ratio(k.atomic_over_transposed_on(b).unwrap_or(f64::NAN))
                )
            })
            .collect();
        let mut o = String::from("      {\n");
        let _ = writeln!(o, "        \"name\": \"{}\",", k.name);
        let _ = writeln!(o, "        \"fastest\": {fastest},");
        let _ = writeln!(o, "        \"fastest_adjoint\": {fastest_adj},");
        let _ = writeln!(
            o,
            "        \"aot_over_bytecode\": {{{}}},",
            per_version(&|v| k.aot_over_bytecode(v))
        );
        let _ = writeln!(
            o,
            "        \"t2_over_t1\": {{{}}},",
            per_version(&|v| k.t2_over_t1(v))
        );
        let aop: Vec<String> = BACKENDS
            .iter()
            .map(|b| {
                format!(
                    "\"{b}\": {}",
                    json_ratio(k.adjoint_over_primal_on(b).unwrap_or(f64::NAN))
                )
            })
            .collect();
        let _ = writeln!(
            o,
            "        \"adjoint_over_primal\": {{{}}},",
            aop.join(", ")
        );
        let _ = writeln!(o, "        \"formad_over_atomic\": {{{}}},", foa.join(", "));
        let _ = writeln!(
            o,
            "        \"formad_over_atomic_transposed\": {{{}}}",
            fot.join(", ")
        );
        o.push_str("      }");
        entries.push(o);
    }
    // `formad_over_atomic_transposed` is best-atomic / best-transposed
    // per backend at `check_threads` (null where no transposed version
    // exists). One caveat travels with the numbers.
    let note = "thread counts are oversubscribed on this host \
                (cores may be fewer than T); atomic contention costs are \
                therefore a lower bound on what a real multicore pays, \
                and the transposed-over-atomic margin grows with real \
                parallelism";
    format!(
        "{{\n    \"check_threads\": {},\n    \"note\": \"{}\",\n    \
         \"kernels\": [\n{}\n    ]\n  }}",
        r.kernels
            .first()
            .map(|k| k.check_threads)
            .unwrap_or_default(),
        note,
        entries.join(",\n")
    )
}

/// Hand-rolled JSON for [`KernelBenchResult`] — stable key order,
/// newline-terminated (`BENCH_kernels.json`).
pub fn kernel_bench_json(r: &KernelBenchResult) -> String {
    let mut kernels = Vec::new();
    for k in &r.kernels {
        let disciplines: Vec<String> = k
            .disciplines
            .iter()
            .map(|(region, array, mode)| {
                format!(
                    "        {{\"region\": {region}, \"array\": \"{array}\", \
                     \"mode\": \"{mode}\"}}"
                )
            })
            .collect();
        let series: Vec<String> = k
            .series
            .iter()
            .map(|s| {
                format!(
                    "        {{\"version\": \"{}\", \"backend\": \"{}\", \
                     \"threads\": {}, \"bitwise\": {}, \"best_s\": {:.9}, \
                     \"mean_s\": {:.9}, \"iter_s\": {}}}",
                    s.version,
                    s.backend,
                    s.threads,
                    s.bitwise,
                    s.best_s(),
                    s.mean_s(),
                    json_f64_list(&s.iter_s)
                )
            })
            .collect();
        let mut o = String::from("    {\n");
        let _ = writeln!(o, "      \"name\": \"{}\",", k.name);
        let _ = writeln!(o, "      \"all_safe\": {},", k.all_safe);
        let _ = writeln!(
            o,
            "      \"disciplines\": [\n{}\n      ],",
            disciplines.join(",\n")
        );
        let _ = writeln!(o, "      \"native_matches_sim\": {},", k.native_matches_sim);
        let _ = writeln!(o, "      \"aot_available\": {},", k.aot_available);
        let _ = writeln!(o, "      \"check_threads\": {},", k.check_threads);
        let _ = writeln!(
            o,
            "      \"measured_formad_over_atomic\": {:.4},",
            k.measured_formad_over_atomic
        );
        let _ = writeln!(
            o,
            "      \"measured_atomic_over_transposed\": {},",
            json_ratio(k.measured_atomic_over_transposed)
        );
        let _ = writeln!(
            o,
            "      \"measured_backend\": \"{}\",",
            k.headline_backend()
        );
        let _ = writeln!(
            o,
            "      \"formad_beats_atomic\": {},",
            k.formad_beats_atomic()
        );
        let _ = writeln!(o, "      \"series\": [\n{}\n      ]", series.join(",\n"));
        o.push_str("    }");
        kernels.push(o);
    }
    format!(
        "{{\n  \"bench\": \"kernel_exec\",\n  \"backends\": [\"bytecode\", \"aot\"],\n  \
         \"nproc\": {},\n  \"iters\": {},\n  \"threads\": {},\n  \"smoke\": {},\n  \
         \"all_bitwise\": {},\n  \"summary\": {},\n  \
         \"kernels\": [\n{}\n  ]\n}}\n",
        r.nproc,
        r.iters,
        json_usize_list(&r.threads),
        r.smoke,
        r.all_bitwise,
        summary_json(r),
        kernels.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_bench_verifies_and_serializes() {
        let r = kernel_bench(2, &[1, 2], true);
        assert!(r.all_bitwise);
        assert_eq!(r.kernels.len(), 5);
        for k in &r.kernels {
            assert!(k.native_matches_sim, "{} not verified", k.name);
            assert!(!k.disciplines.is_empty(), "{} has no disciplines", k.name);
            // versions × 2 thread counts × both backends when the AOT
            // build succeeded (it degrades to bytecode-only otherwise);
            // the version count varies — kernels with an invertible
            // scatter map carry an extra adj-transposed row.
            let versions: std::collections::BTreeSet<&str> =
                k.series.iter().map(|s| s.version.as_str()).collect();
            assert!(versions.len() == 4 || versions.len() == 5, "{versions:?}");
            let backends = if k.aot_available { 2 } else { 1 };
            assert_eq!(
                k.series.len(),
                versions.len() * 2 * backends,
                "{}: versions × backends × thread counts",
                k.name
            );
            assert!(k.measured_formad_over_atomic > 0.0);
        }
        // The in-tree toolchain builds every kernel; a silent universal
        // fallback would make the AOT columns vacuous.
        assert!(
            r.kernels.iter().all(|k| k.aot_available),
            "AOT must build in-tree"
        );
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
                assert!(k.measured_atomic_over_transposed.is_nan());
            }
        }
        // The LBM streaming step is the tentpole: the analysis *proves*
        // the srcgrid gather safe, the transposed cells run bitwise on
        // every backend, and the measurement reports a ratio.
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
            "transposed gather is deterministic on every backend"
        );
        assert!(lbm.measured_atomic_over_transposed > 0.0);
        let j = kernel_bench_json(&r);
        assert!(j.contains("\"bench\": \"kernel_exec\""));
        assert!(j.contains("\"version\": \"adj-FormAD\""));
        assert!(j.contains("\"version\": \"adj-transposed\""));
        assert!(j.contains("\"backend\": \"aot\""));
        assert!(j.contains("\"mode\": \"plain\""));
        assert!(j.contains("\"mode\": \"transposed\""));
        assert!(j.contains("\"bitwise\": true"));
        assert!(j.contains("\"formad_over_atomic_transposed\""));
        assert!(j.contains("\"t2_over_t1\": {\"primal\": "));
        assert!(j.contains("\"note\""));
        assert!(j.contains("\"summary\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }
}
