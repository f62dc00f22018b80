//! `formad-benchmark --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload in this process, prints the host record and every
//! metric by name with its unit, and ends with one JSON line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` repeats the
//! workload under spans, reports the per-layer metrics and writes
//! `benchmark/out/trace-<workload>.json`. Exits 1 if any check failed.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use formad_benchmark::{host, metrics, run_workload, Config, Outcome, WORKLOADS};
use formad_serve::json::{obj, Json};

const USAGE: &str =
    "usage: formad-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<Config, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value\n{USAGE}"))?;
        let bad = || format!("bad value `{value}` for `{flag}`\n{USAGE}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`\n{USAGE}")),
        }
    }
    let workload = workload.ok_or_else(|| {
        format!(
            "--workload is required (one of {})\n{USAGE}",
            WORKLOADS.join(", ")
        )
    })?;
    Ok(Config {
        workload,
        seed,
        seconds,
        trace,
        scratch: PathBuf::from(format!("benchmark/out/run-{}", std::process::id())),
    })
}

fn report(cfg: &Config, out: &Outcome) -> String {
    let declared: Vec<(String, &str)> = if cfg.trace {
        metrics::per_layer()
    } else {
        metrics::END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    for name in out.metrics.names() {
        assert!(
            declared.iter().any(|(n, _)| n == name),
            "workload set undeclared metric `{name}`"
        );
    }
    let mut fields = Vec::new();
    for (name, unit) in &declared {
        // A per-layer metric of a layer this workload does not exercise
        // reads 0; an end-to-end metric must have been measured.
        let value = match out.metrics.get(name) {
            Some(v) => v,
            None if cfg.trace => 0.0,
            None => panic!("end-to-end metric `{name}` was not measured"),
        };
        if out.metrics.get(name).is_some() {
            println!("metric {name} {value} {unit}");
        }
        fields.push((
            name.clone(),
            obj(vec![("value", value.into()), ("unit", (*unit).into())]),
        ));
    }
    Json::Obj(vec![
        ("correct".to_string(), (out.failed == 0).into()),
        ("attempted".to_string(), out.attempted.into()),
        ("failed".to_string(), out.failed.into()),
        ("metrics".to_string(), Json::Obj(fields)),
    ])
    .render()
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    // Everything the run writes — proof caches, AOT kernels, rustc's
    // temporaries — stays under one directory inside the checkout.
    std::fs::create_dir_all(&cfg.scratch).expect("create scratch directory");
    let scratch = std::fs::canonicalize(&cfg.scratch).expect("scratch directory resolves");
    // The crates read these; a run must not depend on the caller's shell.
    for var in ["FORMAD_SEARCH_CORE", "FORMAD_CACHE_DIR", "FORMAD_AOT_RUSTC"] {
        std::env::remove_var(var);
    }
    std::env::set_var("TMPDIR", &scratch);
    std::env::set_var("FORMAD_AOT_DIR", scratch.join("aot"));

    for (key, value) in host::record(cfg.seed) {
        println!("host.{key}: {value}");
    }
    println!(
        "workload: {} seconds: {} trace: {}",
        cfg.workload, cfg.seconds, cfg.trace
    );
    let result = run_workload(&cfg);
    let _ = std::fs::remove_dir_all(&scratch);
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if !cfg.trace {
        out.metrics.set("peak_rss_mb", host::peak_rss_mb());
    } else {
        out.metrics.set("bench.host_jitter", out.jitter.ratio());
        if let Some(tracer) = &out.trace {
            let path = Path::new("benchmark/out").join(format!("trace-{}.json", cfg.workload));
            std::fs::write(&path, tracer.to_json(&cfg.workload, cfg.seed))
                .expect("write trace file");
            println!("trace: {} ({} spans)", path.display(), tracer.spans().len());
        }
    }
    println!(
        "host.jitter: {:.3} noisy: {} spin_us: {:.2}",
        out.jitter.ratio(),
        out.jitter.noisy(),
        out.jitter.best_us()
    );
    for f in &out.failures {
        eprintln!("FAILED: {f}");
    }
    println!(
        "checked: {} operations, {} failed",
        out.attempted, out.failed
    );
    println!("{}", report(&cfg, &out));
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
