//! `repro` — regenerate the paper's tables and measure its figures.
//!
//! ```text
//! repro table1            Table 1 (analysis statistics)
//! repro ablations         what each analysis ingredient buys
//! repro lbm               §7.3 LBM analysis narrative
//! repro bench-kernels [--iters K] [--threads LIST] [--smoke] [--out PATH]
//!                         real wall-clock of the version protocol (primal,
//!                         FormAD/atomic/reduction adjoints, plus the
//!                         transposed gather where the scatter inverts) on
//!                         both native backends (register bytecode and
//!                         AOT-compiled kernels), held to the determinism
//!                         contract against the reference interpreter
//!                         (bitwise, atomic adjoints excepted) — the run
//!                         times of Figures 3–10; JSON written to PATH
//!                         (default BENCH_kernels.json)
//! repro pairs --parent REV [--workload W]... [--pairs N] [--seeds S,S,…]
//!             [--seconds T]
//!                         the benchmark in alternated pairs against REV,
//!                         summarized against BENCHMARK.json's bounds;
//!                         every result line to bench/pairs/<sha>.json
//! repro pairs --self-test the summary logic on synthetic result lines
//! repro all [outdir]      table1, ablations and lbm; text written to
//!                         outdir (default repro_out/)
//! ```

use std::env;
use std::fs;
use std::path::Path;

use formad_bench::{lbm_report, table1};

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let cmd = args.first().map(|s| s.as_str()).unwrap_or("all");
    match cmd {
        "table1" => print!("{}", formad_bench::experiments::table1_text(&table1())),
        "ablations" => print!(
            "{}",
            formad_bench::ablation_text(&formad_bench::ablation_grid())
        ),
        "lbm" => print!("{}", lbm_report()),
        "bench-kernels" => bench_kernels(&args[1..]),
        "pairs" => pairs(&args[1..]),
        "all" => {
            let outdir = args.get(1).cloned().unwrap_or_else(|| "repro_out".into());
            all(Path::new(&outdir));
        }
        other => {
            eprintln!("unknown command `{other}`");
            eprintln!("commands: table1 ablations lbm bench-kernels pairs all [outdir]");
            std::process::exit(2);
        }
    }
}

/// `pairs --parent REV [--workload W]... [--pairs N] [--seeds S,S,…]
/// [--seconds T]` or `pairs --self-test` (see [`formad_bench::pairs`]).
fn pairs(rest: &[String]) {
    let fail = |msg: String| -> ! {
        eprintln!("pairs: {msg}");
        std::process::exit(2);
    };
    if rest == ["--self-test"] {
        match formad_bench::pairs::self_test() {
            Ok(()) => return println!("pairs: self-test passed"),
            Err(e) => fail(format!("self-test failed: {e}")),
        }
    }
    let mut opts = formad_bench::pairs::PairsOptions {
        parent: String::new(),
        workloads: Vec::new(),
        pairs: 10,
        seeds: vec![1, 2, 3],
        seconds: 12,
    };
    let mut k = 0;
    while k < rest.len() {
        let value = rest
            .get(k + 1)
            .unwrap_or_else(|| fail(format!("{} expects a value", rest[k])));
        let number = |v: &str| -> u64 {
            v.parse()
                .unwrap_or_else(|_| fail(format!("{} expects a number, got `{v}`", rest[k])))
        };
        match rest[k].as_str() {
            "--parent" => opts.parent = value.clone(),
            "--workload" => opts.workloads.push(value.clone()),
            "--pairs" => opts.pairs = number(value) as usize,
            "--seconds" => opts.seconds = number(value),
            "--seeds" => opts.seeds = value.split(',').map(|s| number(s.trim())).collect(),
            other => fail(format!("unknown option `{other}`")),
        }
        k += 2;
    }
    if opts.parent.is_empty() || opts.pairs == 0 || opts.seeds.is_empty() {
        fail("usage: repro pairs --parent REV [--workload W]... [--pairs N] [--seeds S,S,…] [--seconds T] | --self-test".into());
    }
    if let Err(e) = formad_bench::pairs::run_pairs(&opts) {
        eprintln!("pairs: {e}");
        std::process::exit(1);
    }
}

/// `bench-kernels [--iters K] [--threads LIST] [--smoke] [--out PATH]` —
/// run the four-version protocol natively on both real backends
/// (register bytecode on OS threads, and AOT-compiled native kernels),
/// hold every cell to the determinism contract against the reference
/// interpreter, and record wall-clock per discipline × backend as JSON.
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
             (atomic/FormAD {:.2}×)",
            kd.name,
            kd.headline_backend(),
            kd.best_s("adj-FormAD", t),
            kd.best_s("adj-atomic", t),
            kd.best_s("adj-reduction", t),
            kd.measured_formad_over_atomic,
        );
        if let Some(x) = kd.aot_over_bytecode("adj-FormAD") {
            eprintln!(
                "bench-kernels: {}: aot removed {x:.1}× dispatch overhead on the FormAD \
                 adjoint (bytecode atomic/FormAD: {})",
                kd.name,
                kd.formad_over_atomic_on("bytecode")
                    .map(|r| format!("{r:.2}×"))
                    .unwrap_or_else(|| "n/a".into()),
            );
        }
    }
    eprintln!(
        "bench-kernels: all cells within the determinism contract against the reference \
         interpreter: {}; wrote {out}",
        r.all_bitwise
    );
}

fn all(outdir: &Path) {
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
}
