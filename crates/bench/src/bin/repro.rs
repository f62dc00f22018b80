//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro table1            Table 1 (analysis statistics)
//! repro fig3 | fig4       absolute time, small/large stencil
//! repro fig5 | fig6       speedup, small/large stencil
//! repro fig7 | fig8       absolute time / speedup, GFMC
//! repro fig9 | fig10      absolute time / speedup, Green-Gauss
//! repro lbm               §7.3 LBM analysis narrative
//! repro bench-kernels [--iters K] [--threads LIST] [--smoke] [--out PATH]
//!                         real wall-clock of the version protocol (primal,
//!                         FormAD/atomic/reduction adjoints, plus the
//!                         transposed gather where the scatter inverts) on
//!                         both native backends (register bytecode and
//!                         AOT-compiled kernels), held to the determinism
//!                         contract against the simulated interpreter
//!                         (bitwise, atomic adjoints excepted), with the
//!                         dispatch overhead calibrated from the measured
//!                         data; JSON written to PATH (default
//!                         BENCH_kernels.json)
//! repro all [outdir]      everything; CSVs written to outdir (default
//!                         repro_out/)
//! repro --scale big ...   closer-to-paper problem sizes (slower)
//! ```
//!
//! Runtimes are simulated giga-cycles on the `formad-machine`
//! multiprocessor (see DESIGN.md for the single-core-host substitution).

use std::env;
use std::fs;
use std::path::Path;

use formad_bench::{
    gfmc_figure, green_gauss_figure, lbm_report, stencil_figure, table1, FigureData, PAPER_THREADS,
};

/// Problem sizes. `small` keeps the full protocol under a couple of
/// minutes of interpretation on one core; `big` approaches the paper's
/// sizes more closely.
#[derive(Debug, Clone, Copy)]
struct Scale {
    stencil_n: usize,
    stencil_sweeps: usize,
    gfmc_ns: usize,
    gfmc_reps: usize,
    gg_nodes: usize,
    gg_reps: usize,
}

const SMALL: Scale = Scale {
    stencil_n: 20_000,
    stencil_sweeps: 2,
    gfmc_ns: 48,
    gfmc_reps: 2,
    gg_nodes: 10_000,
    gg_reps: 2,
};

const BIG: Scale = Scale {
    stencil_n: 200_000,
    stencil_sweeps: 4,
    gfmc_ns: 96,
    gfmc_reps: 4,
    gg_nodes: 50_000,
    gg_reps: 4,
};

fn main() {
    let mut args: Vec<String> = env::args().skip(1).collect();
    let mut scale = SMALL;
    if let Some(k) = args.iter().position(|a| a == "--scale") {
        let v = args.get(k + 1).cloned().unwrap_or_default();
        args.drain(k..=k + 1);
        match v.as_str() {
            "big" => scale = BIG,
            "small" => {}
            other => {
                eprintln!("unknown scale `{other}` (small|big)");
                std::process::exit(2);
            }
        }
    }
    let cmd = args.first().map(|s| s.as_str()).unwrap_or("all");
    match cmd {
        "table1" => print!("{}", formad_bench::experiments::table1_text(&table1())),
        "ablations" => print!(
            "{}",
            formad_bench::ablation_text(&formad_bench::ablation_grid())
        ),
        "lbm" => print!("{}", lbm_report()),
        "bench-kernels" => bench_kernels(&args[1..]),
        "fig3" => print_fig(
            &small_stencil(scale),
            Kind::Absolute,
            "Figure 3: absolute time, small stencil",
        ),
        "fig5" => print_fig(
            &small_stencil(scale),
            Kind::Speedup,
            "Figure 5: speedup, small stencil",
        ),
        "fig4" => print_fig(
            &large_stencil(scale),
            Kind::Absolute,
            "Figure 4: absolute time, large stencil",
        ),
        "fig6" => print_fig(
            &large_stencil(scale),
            Kind::Speedup,
            "Figure 6: speedup, large stencil",
        ),
        "fig7" => print_fig(
            &gfmc(scale),
            Kind::Absolute,
            "Figure 7: absolute time, GFMC",
        ),
        "fig8" => print_fig(&gfmc(scale), Kind::Speedup, "Figure 8: speedup, GFMC"),
        "fig9" => print_fig(
            &green_gauss(scale),
            Kind::Absolute,
            "Figure 9: absolute time, Green Gauss Gradients",
        ),
        "fig10" => print_fig(
            &green_gauss(scale),
            Kind::Speedup,
            "Figure 10: speedup, Green Gauss Gradients",
        ),
        "all" => {
            let outdir = args.get(1).cloned().unwrap_or_else(|| "repro_out".into());
            all(scale, Path::new(&outdir));
        }
        other => {
            eprintln!("unknown command `{other}`");
            eprintln!(
                "commands: table1 ablations lbm bench-kernels \
                 fig3..fig10 all [outdir] [--scale small|big]"
            );
            std::process::exit(2);
        }
    }
}

/// `bench-kernels [--iters K] [--threads LIST] [--smoke] [--out PATH]` —
/// run the four-version protocol natively on both real backends
/// (register bytecode on OS threads, and AOT-compiled native kernels),
/// hold every cell to the determinism contract against the simulated
/// interpreter, fit the
/// interpreter dispatch-overhead calibration, and record wall-clock per
/// discipline × backend as JSON.
fn bench_kernels(rest: &[String]) {
    let mut iters = 9usize;
    let mut threads: Vec<usize> = formad_bench::EXEC_THREADS.to_vec();
    let mut smoke = false;
    let mut out = "BENCH_kernels.json".to_string();
    let mut k = 0;
    while k < rest.len() {
        let need = |k: usize| {
            rest.get(k + 1).cloned().unwrap_or_else(|| {
                eprintln!("{} expects a value", rest[k]);
                std::process::exit(2);
            })
        };
        match rest[k].as_str() {
            "--iters" => {
                iters = need(k).parse().unwrap_or_else(|_| {
                    eprintln!("--iters expects an integer");
                    std::process::exit(2);
                });
                k += 2;
            }
            "--threads" => {
                threads = need(k)
                    .split(',')
                    .map(|t| {
                        t.trim().parse().unwrap_or_else(|_| {
                            eprintln!("--threads expects a comma-separated integer list");
                            std::process::exit(2);
                        })
                    })
                    .collect();
                k += 2;
            }
            "--smoke" => {
                smoke = true;
                k += 1;
            }
            "--out" => {
                out = need(k);
                k += 2;
            }
            other => {
                eprintln!("unknown bench-kernels option `{other}`");
                std::process::exit(2);
            }
        }
    }
    let r = formad_bench::kernel_bench(iters, &threads, smoke);
    let json = formad_bench::kernel_bench_json(&r);
    fs::write(&out, &json).expect("write bench output");
    print!("{json}");
    for kd in &r.kernels {
        let t = kd.check_threads;
        eprintln!(
            "bench-kernels: {} @T={t} [{}]: FormAD {:.6}s vs atomic {:.6}s vs reduction {:.6}s \
             (FormAD/atomic measured {:.2}×, cost model predicted {:.2}×, agree: {})",
            kd.name,
            kd.headline_backend(),
            kd.best_s("adj-FormAD", t),
            kd.best_s("adj-atomic", t),
            kd.best_s("adj-reduction", t),
            kd.measured_formad_over_atomic,
            kd.predicted_formad_over_atomic,
            kd.ordering_agrees
        );
        if let Some(x) = kd.aot_over_bytecode("adj-FormAD") {
            eprintln!(
                "bench-kernels: {}: aot removed {x:.1}× dispatch overhead on the FormAD \
                 adjoint (bytecode-predicted ratio, calibrated: {:.2}×, bytecode measured: {})",
                kd.name,
                kd.predicted_calibrated,
                kd.formad_over_atomic_on("bytecode")
                    .map(|r| format!("{r:.2}×"))
                    .unwrap_or_else(|| "n/a".into()),
            );
        }
    }
    eprintln!(
        "bench-kernels: calibration over {} bytecode cells: {:.2e} s/cycle, {:.2e} s/instr \
         (dispatch ≈ {:.0} model cycles per op)",
        r.calibration.points,
        r.calibration.seconds_per_cycle,
        r.calibration.seconds_per_instruction,
        r.calibration.dispatch_cycles_per_op
    );
    eprintln!(
        "bench-kernels: all cells within the determinism contract against the simulated \
         interpreter: {}; \
         measured orderings match the cost model: {}; wrote {out}",
        r.all_bitwise, r.orderings_agree
    );
}

fn small_stencil(s: Scale) -> FigureData {
    stencil_figure(1, s.stencil_n, s.stencil_sweeps, &PAPER_THREADS)
}

fn large_stencil(s: Scale) -> FigureData {
    stencil_figure(8, s.stencil_n, s.stencil_sweeps.max(1), &PAPER_THREADS)
}

fn gfmc(s: Scale) -> FigureData {
    gfmc_figure(s.gfmc_ns, s.gfmc_reps, &PAPER_THREADS)
}

fn green_gauss(s: Scale) -> FigureData {
    green_gauss_figure(s.gg_nodes, s.gg_reps, &PAPER_THREADS)
}

enum Kind {
    Absolute,
    Speedup,
}

fn print_fig(f: &FigureData, kind: Kind, title: &str) {
    println!("# {title}");
    println!("# benchmark: {}", f.name);
    println!(
        "# serial baselines (Gcycles): primal {:.4}, adjoint {:.4}",
        f.primal_serial, f.adjoint_serial
    );
    match kind {
        Kind::Absolute => print!("{}", f.absolute_csv()),
        Kind::Speedup => print!("{}", f.speedup_csv()),
    }
}

fn all(scale: Scale, outdir: &Path) {
    fs::create_dir_all(outdir).expect("create output dir");
    let write = |name: &str, content: &str| {
        let path = outdir.join(name);
        fs::write(&path, content).expect("write output");
        println!("wrote {}", path.display());
    };

    println!("== Table 1 ==");
    let t1 = formad_bench::experiments::table1_text(&table1());
    print!("{t1}");
    write("table1.txt", &t1);

    println!("\n== Ablations ==");
    let ab = formad_bench::ablation_text(&formad_bench::ablation_grid());
    print!("{ab}");
    write("ablations.txt", &ab);

    println!("\n== LBM (§7.3) ==");
    let lr = lbm_report();
    print!("{lr}");
    write("lbm_report.txt", &lr);

    for (fig_abs, fig_spd, data, label) in [
        (
            "fig3_abs_small_stencil.csv",
            "fig5_speedup_small_stencil.csv",
            small_stencil(scale),
            "small stencil",
        ),
        (
            "fig4_abs_large_stencil.csv",
            "fig6_speedup_large_stencil.csv",
            large_stencil(scale),
            "large stencil",
        ),
        (
            "fig7_abs_gfmc.csv",
            "fig8_speedup_gfmc.csv",
            gfmc(scale),
            "GFMC",
        ),
        (
            "fig9_abs_greengauss.csv",
            "fig10_speedup_greengauss.csv",
            green_gauss(scale),
            "Green Gauss",
        ),
    ] {
        println!("\n== {label} ({}) ==", data.name);
        println!("absolute Gcycles:");
        print!("{}", data.absolute_csv());
        println!("speedup vs serial:");
        print!("{}", data.speedup_csv());
        write(fig_abs, &data.absolute_csv());
        write(fig_spd, &data.speedup_csv());
    }
}
