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
//!                         AOT-compiled kernels, held to the determinism
//!                         contract against the reference interpreter
//!                         (bitwise, atomic adjoints excepted) — the run
//!                         times of Figures 3–10; JSON written to PATH
//!                         (default BENCH_kernels.json; K defaults to 31,
//!                         LIST to 1 and the host's cores)
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
/// time the version protocol on both native backends, every cell held
/// to the determinism contract against the reference interpreter, and
/// write the JSON artifact (also printed).
fn bench_kernels(rest: &[String]) {
    let fail = |msg: String| -> ! {
        eprintln!("bench-kernels: {msg}");
        std::process::exit(2);
    };
    let (mut iters, mut threads) = (31, formad_bench::exec_threads());
    let (mut smoke, mut out) = (false, "BENCH_kernels.json".to_string());
    let mut args = rest.iter();
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = args
            .next()
            .unwrap_or_else(|| fail(format!("{flag} expects a value")));
        let number = |v: &str| -> usize {
            v.trim()
                .parse()
                .unwrap_or_else(|_| fail(format!("{flag} expects integers, got `{v}`")))
        };
        match flag.as_str() {
            "--iters" => iters = number(value),
            "--threads" => threads = value.split(',').map(number).collect(),
            "--out" => out = value.clone(),
            other => fail(format!("unknown option `{other}`")),
        }
    }
    let json = formad_bench::kernel_bench_json(&formad_bench::kernel_bench(iters, &threads, smoke));
    fs::write(&out, &json).expect("write bench output");
    print!("{json}");
    eprintln!("bench-kernels: every cell within the determinism contract; wrote {out}");
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
