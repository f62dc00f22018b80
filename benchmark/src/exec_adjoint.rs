//! `exec_adjoint`: the paper's own metric. The five executable kernels
//! × {primal, adj-FormAD, adj-atomic, adj-reduction} run on the AOT
//! backend at one thread, round-robin interleaved so slow drift of the
//! host falls on every cell alike. Analysis does nothing here; codegen,
//! pool and kernel do everything. Set-up is the cold start a user pays:
//! differentiate, lower, compile bytecode, and build every kernel with
//! `rustc` into an empty `FORMAD_AOT_DIR`.

use std::sync::Arc;
use std::time::Instant;

use formad_bench::versions::{adjoint_bindings, ProgramVersions};
use formad_ir::Program;
use formad_kernels::{GfmcCase, GreenGaussCase, LbmExecCase, NativeStencil, StencilCase};
use formad_machine::{
    compile, dot_product_test_with, fill_real, load_or_compile, lower, run_aot, AotKernel,
    BcProgram, Bindings, ExecStats, Machine, NativeEngine,
};
use formad_runtime::ThreadPool;

use crate::analysis::{expected_table1, table1_oracle};
use crate::host::nproc;
use crate::metrics::{EXEC_KERNELS, EXEC_VERSIONS};
use crate::pipeline::{proved_counts, spanned};
use crate::span::Tracer;
use crate::stats::{geomean, OpTimes, Samples};
use crate::{Budget, Config, Outcome};

/// `round`'s version count for "every version".
const ALL: usize = EXEC_VERSIONS.len();

/// Step and tolerance of the finite-difference dot test (the fuzzer's).
const FD_H: f64 = 1e-6;
const FD_TOL: f64 = 1e-4;

struct Kernel {
    program: Program,
    base: Bindings,
    indep: &'static [&'static str],
    dep: &'static [&'static str],
}

/// The five kernels at the sizes of the paper-protocol bench (one sweep
/// each: the simulated interpreter that checks every cell is part of
/// set-up), input arrays filled from the seed. Order as [`EXEC_KERNELS`].
fn kernels(seed: u64) -> Vec<Kernel> {
    let st1 = StencilCase::small(100_000, 1);
    let st8 = StencilCase::large(100_000, 1);
    let gf = GfmcCase::new(96, 1);
    let gg = GreenGaussCase::linear(50_000, 1);
    let lbm = LbmExecCase::full();
    vec![
        Kernel {
            program: st1.ir(),
            base: st1.bindings(seed),
            indep: StencilCase::independents(),
            dep: StencilCase::dependents(),
        },
        Kernel {
            program: st8.ir(),
            base: st8.bindings(seed),
            indep: StencilCase::independents(),
            dep: StencilCase::dependents(),
        },
        Kernel {
            program: gf.ir(),
            base: gf.bindings_split(seed),
            indep: GfmcCase::independents(),
            dep: GfmcCase::dependents(),
        },
        Kernel {
            program: gg.ir(),
            base: gg.bindings(seed),
            indep: GreenGaussCase::independents(),
            dep: GreenGaussCase::dependents(),
        },
        Kernel {
            program: lbm.ir(),
            base: lbm.bindings(seed),
            indep: LbmExecCase::independents(),
            dep: LbmExecCase::dependents(),
        },
    ]
}

/// One (kernel, version) cell, compiled and verified.
struct Cell {
    kernel: usize,
    version: usize,
    bind: Bindings,
    bc: BcProgram,
    aot: Arc<AotKernel>,
    /// The simulated interpreter's result for `bind`.
    expect: Bindings,
}

/// First bitwise difference between two executions' real arrays.
fn bitwise_diff(want: &Bindings, got: &Bindings) -> Option<String> {
    for (name, w) in &want.real_arrays {
        let Some(g) = got.real_arrays.get(name) else {
            return Some(format!("array `{name}` missing"));
        };
        if w.len() != g.len() {
            return Some(format!("array `{name}` length"));
        }
        if let Some(k) = w
            .iter()
            .zip(g)
            .position(|(a, b)| a.to_bits() != b.to_bits())
        {
            return Some(format!("array `{name}`[{k}]: {} vs {}", w[k], g[k]));
        }
    }
    for (name, w) in &want.real_scalars {
        if got.real_scalars.get(name).map(|g| g.to_bits()) != Some(w.to_bits()) {
            return Some(format!("scalar `{name}`"));
        }
    }
    None
}

/// Agreement within 1e-9 relative: the rule for atomic adjoints whose
/// increments truly collide and so commit in hardware order at T > 1.
fn close(want: &Bindings, got: &Bindings) -> bool {
    want.real_arrays.iter().all(|(name, w)| {
        got.real_arrays.get(name).is_some_and(|g| {
            w.len() == g.len()
                && w.iter()
                    .zip(g)
                    .all(|(a, b)| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0))
        })
    })
}

struct SetUp {
    cells: Vec<Cell>,
    proved: u64,
    analysed: u64,
    sim: ExecStats,
    fd_max_rel_error: f64,
    lower_s: f64,
    bytecode_compile_s: f64,
    aot_compile_s: f64,
    aot_load_s: f64,
}

/// Run `f` under a span (when tracing), adding its time to `acc`.
fn timed<R>(
    tracer: &mut Option<&mut Tracer>,
    name: &str,
    acc: &mut f64,
    f: impl FnOnce() -> R,
) -> R {
    let t0 = Instant::now();
    let (r, _) = spanned(tracer, name, f);
    *acc += t0.elapsed().as_secs_f64();
    r
}

/// Cold start of all twenty cells, each verified against the simulated
/// interpreter (bitwise) and each adjoint against finite differences.
fn set_up(cfg: &Config, out: &mut Outcome, mut tracer: Option<&mut Tracer>) -> SetUp {
    let expected = expected_table1();
    let mut s = SetUp {
        cells: Vec::new(),
        proved: 0,
        analysed: 0,
        sim: ExecStats::default(),
        fd_max_rel_error: 0.0,
        lower_s: 0.0,
        bytecode_compile_s: 0.0,
        aot_compile_s: 0.0,
        aot_load_s: 0.0,
    };
    let mut engine = NativeEngine::new(1);
    for (ki, k) in kernels(cfg.seed).into_iter().enumerate() {
        let name = EXEC_KERNELS[ki];
        let v = ProgramVersions::generate(&k.program, k.indep, k.dep);
        out.check(table1_oracle(&expected, name, &v.analysis));
        let (proved, analysed) = proved_counts(&v.analysis);
        s.proved += proved;
        s.analysed += analysed;
        let adj_base = adjoint_bindings(&v.primal, &k.base, k.indep, k.dep);
        let versions = [
            (&v.primal, &k.base),
            (&v.adj_formad, &adj_base),
            (&v.adj_atomic, &adj_base),
            (&v.adj_reduction, &adj_base),
        ];
        for (vi, (prog, bind)) in versions.into_iter().enumerate() {
            let what = format!("{name}/{}", EXEC_VERSIONS[vi]);
            let lp = timed(&mut tracer, "machine.lower", &mut s.lower_s, || {
                lower(prog, bind).expect("kernel lowers")
            });
            let bc = timed(
                &mut tracer,
                "machine.bytecode_compile",
                &mut s.bytecode_compile_s,
                || compile(&lp, prog).expect("kernel compiles to bytecode"),
            );
            let built = timed(
                &mut tracer,
                "machine.aot_compile",
                &mut s.aot_compile_s,
                || load_or_compile(&lp, &bc),
            );
            let aot = match built {
                Ok(k) => k,
                Err(e) => {
                    out.check(Err(format!("{what}: aot build failed: {e}")));
                    continue;
                }
            };
            // The same call again is the warm path: codegen, hash,
            // registry hit.
            let _ = timed(&mut tracer, "machine.aot_load", &mut s.aot_load_s, || {
                load_or_compile(&lp, &bc)
            });

            let mut expect = bind.clone();
            let sim = formad_machine::run(prog, &mut expect, &Machine::with_threads(1))
                .expect("simulated run");
            s.sim.reads += sim.stats.reads;
            s.sim.writes += sim.stats.writes;
            s.sim.atomic_ops += sim.stats.atomic_ops;
            s.sim.tape_pushes += sim.stats.tape_pushes;
            s.sim.flops += sim.stats.flops;
            let mut got = bind.clone();
            let ran = engine.run_with(&bc, Some(&aot), &mut got);
            out.check(match ran {
                Err(e) => Err(format!("{what}: aot run failed: {e}")),
                Ok(()) => match bitwise_diff(&expect, &got) {
                    None => Ok(()),
                    Some(d) => Err(format!("{what}: aot differs from the interpreter: {d}")),
                },
            });
            if vi > 0 {
                let seed = cfg.seed;
                let dirs: Vec<(&str, Vec<f64>)> = k
                    .indep
                    .iter()
                    .map(|n| (*n, fill_real(n, seed ^ 1, k.base.real_arrays[*n].len())))
                    .collect();
                let weights: Vec<(&str, Vec<f64>)> = k
                    .dep
                    .iter()
                    .map(|n| (*n, fill_real(n, seed ^ 2, k.base.real_arrays[*n].len())))
                    .collect();
                let dot = dot_product_test_with(
                    &v.primal,
                    prog,
                    &k.base,
                    &dirs,
                    &weights,
                    FD_H,
                    "b",
                    |p, b| run_aot(p, b, 1).map(|_| ()),
                );
                out.check(match dot {
                    Err(e) => Err(format!("{what}: dot test failed to run: {e}")),
                    Ok(d) => {
                        s.fd_max_rel_error = s.fd_max_rel_error.max(d.rel_error);
                        if d.passes(FD_TOL) {
                            Ok(())
                        } else {
                            Err(format!(
                                "{what}: dot test: fd {} vs adjoint {} (rel {})",
                                d.fd_value, d.adjoint_value, d.rel_error
                            ))
                        }
                    }
                });
            }
            s.cells.push(Cell {
                kernel: ki,
                version: vi,
                bind: bind.clone(),
                bc,
                aot,
                expect,
            });
        }
    }
    s
}

/// One round: every cell of the first `versions` program versions
/// once, on `engine`. Times go to `ops`; with `verify`, each result is
/// compared with the interpreter's.
fn round(
    cells: &[Cell],
    versions: usize,
    engine: &mut NativeEngine,
    aot: bool,
    ops: &mut OpTimes,
    mut verify: Option<&mut Outcome>,
    mut tracer: Option<&mut Tracer>,
) -> f64 {
    let mut total = 0.0;
    for (i, c) in cells
        .iter()
        .enumerate()
        .filter(|(_, c)| c.version < versions)
    {
        let mut b = c.bind.clone();
        let mut dt = 0.0;
        let ran = timed(&mut tracer, "machine.aot_iter", &mut dt, || {
            engine.run_with(&c.bc, aot.then_some(&*c.aot), &mut b)
        });
        total += dt;
        ops.push(i, dt);
        if let Some(out) = verify.as_deref_mut() {
            let what = format!("{}/{}", EXEC_KERNELS[c.kernel], EXEC_VERSIONS[c.version]);
            out.check(match ran {
                Err(e) => Err(format!("{what}: run failed: {e}")),
                Ok(()) => {
                    // Only the LBM atomic adjoint truly collides, and only
                    // with more than one thread do its commits reorder.
                    let colliding = engine.threads() > 1 && c.kernel == 4 && c.version == 2;
                    match bitwise_diff(&c.expect, &b) {
                        None => Ok(()),
                        Some(_) if colliding && close(&c.expect, &b) => Ok(()),
                        Some(d) => Err(format!("{what}: differs from the interpreter: {d}")),
                    }
                }
            });
        }
    }
    total
}

/// Geometric mean over the kernels of `version`'s fastest time over
/// `base`'s.
fn ratio(ops: &OpTimes, cells: &[Cell], version: usize, base: usize) -> f64 {
    let best = |k: usize, v: usize| {
        cells
            .iter()
            .position(|c| c.kernel == k && c.version == v)
            .map(|i| ops.best(i))
    };
    let ratios: Vec<f64> = (0..EXEC_KERNELS.len())
        .filter_map(|k| Some(best(k, version)? / best(k, base)?))
        .collect();
    geomean(&ratios)
}

/// Microseconds to push an empty region through `ThreadPool::run`.
fn dispatch_us(participants: usize) -> f64 {
    let pool = ThreadPool::new(participants);
    let reps = 2000;
    let mut s = Samples::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        for _ in 0..reps {
            pool.run(participants, &|t| {
                std::hint::black_box(t);
            });
        }
        s.push(t0.elapsed().as_secs_f64() * 1e6 / reps as f64);
    }
    s.quantile(0.0)
}

/// AOT stencil r=8 primal over the hand-written `NativeStencil` doing
/// the same sweep.
fn aot_over_handwritten(cells: &[Cell], ops: &OpTimes) -> f64 {
    let Some(i) = cells.iter().position(|c| c.kernel == 1 && c.version == 0) else {
        return 0.0;
    };
    let b = &cells[i].bind;
    let native = NativeStencil::new(8, b.real_arrays["w"].clone());
    let uold = &b.real_arrays["uold"];
    let mut s = Samples::new();
    for _ in 0..20 {
        let mut unew = vec![0.0; uold.len()];
        let t0 = Instant::now();
        native.primal_sweep(1, uold, &mut unew);
        s.push(t0.elapsed().as_secs_f64());
        std::hint::black_box(&unew);
    }
    ops.best(i) / s.quantile(0.0)
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::new();
    let mut tracer = cfg.trace.then(|| Tracer::new(Instant::now()));

    let t0 = Instant::now();
    let root = tracer.as_mut().map(|t| t.enter("setup"));
    let s = set_up(cfg, &mut out, tracer.as_mut());
    if let (Some(t), Some(r)) = (tracer.as_mut(), root) {
        t.exit(r);
    }
    let setup_s = t0.elapsed().as_secs_f64();
    let cells = &s.cells;

    // The traced run spends half its time on the gated configuration
    // and the rest on the ungated rows.
    let share = if cfg.trace { 0.5 } else { 1.0 };
    let mut engine = NativeEngine::new(1);
    let mut ops = OpTimes::new(cells.len());
    let mut rounds = Samples::new();
    let mut budget = Budget::new(cfg.seconds * share, 5);
    while budget.admit() {
        out.jitter.sample();
        let traced = tracer.as_mut().filter(|_| rounds.len() % 4 == 3);
        rounds.push(match traced {
            Some(t) => {
                t.set_id(rounds.len() as u64);
                let root = t.enter("round");
                let mut scratch = OpTimes::new(cells.len());
                let r = round(cells, ALL, &mut engine, true, &mut scratch, None, Some(t));
                t.exit(root);
                r
            }
            None => round(cells, ALL, &mut engine, true, &mut ops, None, None),
        });
    }
    // The last round's outputs are checked like the first's were.
    round(
        cells,
        ALL,
        &mut engine,
        true,
        &mut OpTimes::new(cells.len()),
        Some(&mut out),
        None,
    );

    out.set_pass_metrics(cfg.trace, &rounds, ops.best_sum(), ops.best_median());
    if let Some(t) = tracer {
        let tn = nproc();
        let mut bytecode = OpTimes::new(cells.len());
        let mut budget = Budget::new(cfg.seconds * 0.25, 1);
        while budget.admit() {
            // Bytecode rows exist for the primal and adj-FormAD only.
            round(cells, 2, &mut engine, false, &mut bytecode, None, None);
        }
        let mut engine_tn = NativeEngine::new(tn);
        let mut ops_tn = OpTimes::new(cells.len());
        let mut budget = Budget::new(cfg.seconds * 0.2, 3);
        while budget.admit() {
            round(cells, 2, &mut engine_tn, true, &mut ops_tn, None, None);
        }
        round(
            cells,
            ALL,
            &mut engine_tn,
            true,
            &mut OpTimes::new(cells.len()),
            Some(&mut out),
            None,
        );

        let m = &mut out.metrics;
        m.set(
            "bench.unattributed_share",
            t.ledger("round").unattributed_share(),
        );
        for (i, c) in cells.iter().enumerate() {
            let (k, v) = (EXEC_KERNELS[c.kernel], EXEC_VERSIONS[c.version]);
            m.set(&format!("machine.aot_iter_s.{k}.{v}"), ops.best(i));
            if c.version < 2 {
                m.set(
                    &format!("machine.bytecode_iter_s.{k}.{v}"),
                    bytecode.best(i),
                );
            }
        }
        m.set("machine.adjoint_over_primal", ratio(&ops, cells, 1, 0));
        m.set("machine.atomic_over_primal", ratio(&ops, cells, 2, 0));
        m.set("machine.formad_speedup", 1.0 / ratio(&ops, cells, 1, 2));
        m.set(
            "machine.aot_over_handwritten",
            aot_over_handwritten(cells, &ops),
        );
        // Same cells at T = nproc over T = 1, adj-FormAD only. The pool's
        // workers plus nothing else: not oversubscribed unless the host
        // has a single core.
        let tn_ratios: Vec<f64> = cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.version == 1)
            .map(|(i, _)| ops_tn.best(i) / ops.best(i))
            .collect();
        m.set("machine.tn_over_t1", geomean(&tn_ratios));
        m.set("bench.oversubscribed", f64::from(u8::from(tn < 2)));
        m.set("machine.aot_cold_s", s.aot_compile_s);
        m.set("machine.lower_s", s.lower_s);
        m.set("machine.bytecode_compile_s", s.bytecode_compile_s);
        m.set(
            "machine.aot_compile_s",
            s.aot_compile_s / cells.len().max(1) as f64,
        );
        m.set(
            "machine.aot_load_s",
            s.aot_load_s / cells.len().max(1) as f64,
        );
        // Computed by the simulated interpreter, not measured on hardware.
        m.set("machine.sim_reads", s.sim.reads as f64);
        m.set("machine.sim_writes", s.sim.writes as f64);
        m.set("machine.sim_atomics", s.sim.atomic_ops as f64);
        m.set("machine.sim_tape_bytes", (s.sim.tape_pushes * 8) as f64);
        m.set("machine.sim_flops", s.sim.flops as f64);
        m.set("machine.fd_max_rel_error", s.fd_max_rel_error);
        m.set("runtime.dispatch_us.t1", dispatch_us(1));
        m.set("runtime.dispatch_us.tn", dispatch_us(tn));
        out.trace = Some(t);
    } else {
        let m = &mut out.metrics;
        m.set("setup_s", setup_s);
        m.set("proved_share", s.proved as f64 / s.analysed.max(1) as f64);
    }
    out
}
