//! `formad` — command-line front end.
//!
//! ```text
//! formad analyze  FILE --wrt x,y --of z          analysis report only
//!   (alias: prove)
//! formad explain  FILE [ARRAY] --wrt x --of z    per-array proof narrative
//! formad adjoint  FILE --wrt x --of z [options]  print the adjoint program
//! formad versions FILE --wrt x --of z            print all four versions
//! formad exec     FILE [exec options]            run the program and print
//!                                                its outputs (pipe an
//!                                                adjoint from `formad
//!                                                adjoint` into a file to
//!                                                execute generated code)
//! formad compile  FILE [--set k=v --seed S]      ahead-of-time compile the
//!                                                program's parallel regions
//!                                                to a native kernel and
//!                                                print the cached artifact
//!                                                paths (prewarms `exec
//!                                                --backend aot`)
//! formad serve    [serve options]                run the resident JSON/HTTP
//!                                                differentiation service
//!                                                until SIGINT or a client
//!                                                POSTs /v1/shutdown
//! formad fuzz     [fuzz options]                 grammar-driven differential
//!                                                fuzzing: generate well-typed
//!                                                programs and cross-check
//!                                                every oracle pair in the
//!                                                stack (exit 1 on divergence)
//! formad cache    <stats|verify|clear>           inspect or reset the durable
//!                 [--cache-dir DIR]              region-fingerprint index
//!                                                (DIR defaults to the
//!                                                FORMAD_CACHE_DIR env var)
//!
//! cache subcommands:
//!   stats              print format version, record and byte counts of
//!                      the directory's fingerprint index
//!   verify             re-parse the fingerprint index and probe a write;
//!                      exit 0 when clean, 1 when a corrupt record, a
//!                      bad-version or unreadable index file, or a failed
//!                      write was found (none of these is an error for
//!                      analysis runs — they degrade to cold misses — so
//!                      this verb exists for operators who want to know)
//!   clear              delete the index file from DIR (the directory and
//!                      anything else in it stay)
//!
//! fuzz options:
//!   --seed N           master seed (default 42); each case derives its
//!                      RNG from (seed, case id), so runs with the same
//!                      seed and flags are byte-identical on stdout
//!   --cases N          number of generated programs (default 100)
//!   --max-loops N      max parallel regions per program (default 3)
//!   --max-arrays N     max input arrays per program (default 4)
//!   --corpus DIR       write a minimized, self-contained reproducer
//!                      file per divergence into DIR
//!   --shrink-budget N  max oracle evaluations the delta-debugging
//!                      shrinker spends per divergence (default 256,
//!                      0 disables shrinking)
//!   --aot-every N      also build + run the AOT kernel on every N-th
//!                      case (one `rustc` invocation per program
//!                      version; default: every 16th, --smoke: never)
//!   --chaos-legacy P   poison the flat search oracle with P‰ Unknown
//!                      answers — a self-test that the harness catches,
//!                      shrinks and reports an injected oracle bug
//!   --smoke            CI profile: skip AOT checks so the run stays in
//!                      tens of seconds
//!   --repro FILE       replay one reproducer file instead of running a
//!                      campaign (exit 1 if it still diverges)
//!
//! serve options:
//!   --addr HOST:PORT   bind address (default 127.0.0.1:7878; use :0 for
//!                      an ephemeral port — the bound address is printed
//!                      as the first stdout line)
//!   --workers N        concurrent request slots (default 4)
//!   --queue N          admission queue beyond the running slots
//!                      (default 8); saturation degrades analysis
//!                      requests to the always-safe atomic answer and
//!                      429s `exec` requests with a retry hint
//!   --deadline-ms N    default per-request deadline for requests that
//!                      do not carry their own
//!   --cache-dir DIR    durable cache directory shared with the one-shot
//!                      verbs: region fingerprints survive daemon
//!                      restarts, so a restarted daemon answers
//!                      repeat requests from disk (FORMAD_CACHE_DIR sets
//!                      the default)
//!
//! exec options:
//!   --backend B        sim (default; tree-walking interpreter with the
//!                      synthetic cost model) | native (flat register
//!                      bytecode on real OS threads) | aot (parallel
//!                      regions compiled to a native cdylib via `rustc`,
//!                      cached under `FORMAD_AOT_DIR`, falling back to
//!                      native bytecode if the compile fails). Outputs
//!                      are bitwise-identical across all three unless
//!                      the program holds an `!$omp atomic` increment:
//!                      colliding atomics commit in hardware order on
//!                      real cores, so those agree up to floating-point
//!                      reassociation (bitwise again at `--threads 1`).
//!   --threads N        execution threads for `!$omp parallel do` regions
//!                      (default 1)
//!   --set k=v,...      scalar parameter values; every integer parameter
//!                      must be set (array extents depend on them)
//!   --seed S           seed for the deterministic fill of real array
//!                      parameters (values in (-1, 1); default 42).
//!                      Integer arrays are filled with 1, 2, 3, … so
//!                      index arrays stay in bounds.
//!   --deadline-ms N    hard wall-clock budget, same contract as the
//!                      analysis verbs: expiry is an error (exit 7)
//!
//! options:
//!   --wrt a,b          independent variables (differentiation inputs)
//!   --of  c,d          dependent variables (differentiation outputs)
//!   --mode MODE        formad | serial | atomic | reduction | transposed
//!                      (default formad; transposed flips provably
//!                      invertible adjoint scatters into gathers and
//!                      guards everything else with atomics)
//!   --no-stride        disable stride root assertions
//!   --no-contexts      disable control contexts (ablation)
//!   --no-increment     disable exact-increment detection (ablation)
//!   --table1 NAME      print a Table-1 row instead of the full report
//!   --emit DIALECT     fortran (default) | c — output dialect for
//!                      adjoint/versions
//!   --prover-timeout-ms N
//!                      wall-clock allowance per prover query; expiry
//!                      degrades the affected arrays to atomics
//!   --deadline-ms N    hard wall-clock budget for the whole run; expiry
//!                      is an error (exit 7), unlike per-query timeouts
//!   --cache-dir DIR    durable cache directory: region fingerprints are
//!                      read through from DIR and batched back after the
//!                      run, so a warm re-run serves unchanged regions
//!                      from disk without re-proving (FORMAD_CACHE_DIR
//!                      sets the default; the flag wins; reports stay
//!                      byte-identical with or without it)
//!   --trace PATH       write the structured proof trace (versioned JSON,
//!                      schema formad-trace/v1) to PATH; its `events`
//!                      section is byte-identical from run to run
//! ```
//!
//! Exit codes: 0 success (a report that keeps every safeguard is still a
//! success — degradation is the contract, not an error), 2 usage/IO,
//! 3 parse, 4 validation, 5 AD failure, 6 prover panic that escaped the
//! degradation ladder, 7 deadline.
//!
//! Test hook: setting `FORMAD_INTERNAL_PANIC=1` panics deliberately inside
//! the run so the exit-6 last-resort net stays covered by the test suite.

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Duration;

use formad::{
    Deadline, Formad, FormadErrorKind, FormadOptions, IncMode, ParallelTreatment, TraceSink,
};
use formad_ir::{parse_any, SourceFlavor};

/// Distinct nonzero exit code per error classification.
fn code_for(kind: FormadErrorKind) -> ExitCode {
    ExitCode::from(match kind {
        FormadErrorKind::Parse => 3,
        FormadErrorKind::Validate => 4,
        FormadErrorKind::Ad => 5,
        FormadErrorKind::ProverPanic => 6,
        FormadErrorKind::Deadline => 7,
    })
}

struct Args {
    command: String,
    file: String,
    /// Positional array name for `explain` (narrates every decision when
    /// omitted).
    array: Option<String>,
    wrt: Vec<String>,
    of: Vec<String>,
    mode: String,
    emit: SourceFlavor,
    stride: bool,
    contexts: bool,
    increment: bool,
    table1: Option<String>,
    prover_timeout: Option<Duration>,
    deadline_ms: Option<u64>,
    /// Durable cache directory (`--cache-dir`, falling back to the
    /// `FORMAD_CACHE_DIR` env var).
    cache_dir: Option<String>,
    trace: Option<String>,
    /// `exec`: execution backend, `sim` or `native`.
    backend: String,
    /// `exec`: thread count for parallel regions.
    threads: usize,
    /// `exec`: scalar parameter assignments, in `--set` order.
    sets: Vec<(String, String)>,
    /// `exec`: seed for the deterministic real-array fill.
    seed: u64,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: formad <analyze|prove|explain|adjoint|versions> FILE [ARRAY] \
         --wrt a,b --of c,d \
         [--mode formad|serial|atomic|reduction|transposed] [--no-stride] \
         [--no-contexts] [--no-increment] [--table1 NAME] \
         [--prover-timeout-ms N] [--deadline-ms N] \
         [--cache-dir DIR] [--trace PATH]\n       \
         formad exec FILE [--backend sim|native|aot] [--threads N] \
         [--set k=v,...] [--seed S] [--deadline-ms N]\n       \
         formad compile FILE [--set k=v,...] [--seed S]\n       \
         formad cache <stats|verify|clear> [--cache-dir DIR]\n       \
         formad serve [--addr HOST:PORT] [--workers N] [--queue N] \
         [--cache-dir DIR]\n       \
         formad fuzz [--seed N] [--cases N] [--max-loops N] [--max-arrays N] \
         [--corpus DIR] [--shrink-budget N] [--aot-every N] [--chaos-legacy P] \
         [--smoke] [--repro FILE]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, ExitCode> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or_else(usage)?;
    let file = argv.next().ok_or_else(usage)?;
    let mut args = Args {
        command,
        file,
        array: None,
        wrt: Vec::new(),
        of: Vec::new(),
        mode: "formad".into(),
        emit: SourceFlavor::Fortran,
        stride: true,
        contexts: true,
        increment: true,
        table1: None,
        prover_timeout: None,
        deadline_ms: None,
        cache_dir: std::env::var("FORMAD_CACHE_DIR").ok(),
        trace: None,
        backend: "sim".into(),
        threads: 1,
        sets: Vec::new(),
        seed: 42,
    };
    let rest: Vec<String> = argv.collect();
    let mut k = 0;
    while k < rest.len() {
        match rest[k].as_str() {
            "--wrt" => {
                k += 1;
                args.wrt = rest
                    .get(k)
                    .ok_or_else(usage)?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .collect();
            }
            "--of" => {
                k += 1;
                args.of = rest
                    .get(k)
                    .ok_or_else(usage)?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .collect();
            }
            "--mode" => {
                k += 1;
                args.mode = rest.get(k).ok_or_else(usage)?.clone();
            }
            "--emit" => {
                k += 1;
                let name = rest.get(k).ok_or_else(usage)?;
                args.emit = SourceFlavor::from_name(name).ok_or_else(|| {
                    eprintln!("unknown emit dialect `{name}`");
                    usage()
                })?;
            }
            "--table1" => {
                k += 1;
                args.table1 = Some(rest.get(k).ok_or_else(usage)?.clone());
            }
            "--prover-timeout-ms" => {
                k += 1;
                let raw = rest.get(k).ok_or_else(usage)?;
                match raw.parse::<u64>() {
                    Ok(ms) => args.prover_timeout = Some(Duration::from_millis(ms)),
                    Err(_) => {
                        eprintln!("--prover-timeout-ms expects an integer, got `{raw}`");
                        return Err(usage());
                    }
                }
            }
            "--deadline-ms" => {
                k += 1;
                let raw = rest.get(k).ok_or_else(usage)?;
                match raw.parse::<u64>() {
                    Ok(ms) => args.deadline_ms = Some(ms),
                    Err(_) => {
                        eprintln!("--deadline-ms expects an integer, got `{raw}`");
                        return Err(usage());
                    }
                }
            }
            "--trace" => {
                k += 1;
                args.trace = Some(rest.get(k).ok_or_else(usage)?.clone());
            }
            // Parsed and discarded: proving is in-line, but the frozen
            // `benchmark/src/cli.rs` still passes `--jobs 1`. Goes with
            // ROADMAP item 10's benchmark PR.
            "--jobs" => {
                k += 1;
                let raw = rest.get(k).ok_or_else(usage)?;
                if raw.parse::<usize>().is_err() {
                    eprintln!("--jobs expects an integer, got `{raw}`");
                    return Err(usage());
                }
            }
            "--backend" => {
                k += 1;
                let raw = rest.get(k).ok_or_else(usage)?;
                if !matches!(raw.as_str(), "sim" | "native" | "aot") {
                    eprintln!("--backend expects `sim`, `native` or `aot`, got `{raw}`");
                    return Err(usage());
                }
                args.backend = raw.clone();
            }
            "--threads" => {
                k += 1;
                let raw = rest.get(k).ok_or_else(usage)?;
                match raw.parse::<usize>() {
                    Ok(n) if n >= 1 => args.threads = n,
                    _ => {
                        eprintln!("--threads expects a positive integer, got `{raw}`");
                        return Err(usage());
                    }
                }
            }
            "--set" => {
                k += 1;
                for pair in rest.get(k).ok_or_else(usage)?.split(',') {
                    let Some((name, value)) = pair.split_once('=') else {
                        eprintln!("--set expects k=v pairs, got `{pair}`");
                        return Err(usage());
                    };
                    args.sets
                        .push((name.trim().to_string(), value.trim().to_string()));
                }
            }
            "--seed" => {
                k += 1;
                let raw = rest.get(k).ok_or_else(usage)?;
                match raw.parse::<u64>() {
                    Ok(s) => args.seed = s,
                    Err(_) => {
                        eprintln!("--seed expects an integer, got `{raw}`");
                        return Err(usage());
                    }
                }
            }
            "--cache-dir" => {
                k += 1;
                args.cache_dir = Some(rest.get(k).ok_or_else(usage)?.clone());
            }
            "--no-stride" => args.stride = false,
            "--no-contexts" => args.contexts = false,
            "--no-increment" => args.increment = false,
            // Bare positional: the array name, for `explain` only.
            other
                if !other.starts_with('-') && args.command == "explain" && args.array.is_none() =>
            {
                args.array = Some(other.to_string());
            }
            other if !other.starts_with('-') => {
                eprintln!("unexpected argument `{other}`");
                return Err(usage());
            }
            other => {
                eprintln!("unknown option `{other}`");
                return Err(usage());
            }
        }
        k += 1;
    }
    // `exec` and `compile` take the program as-is; everything else
    // differentiates and needs the independent/dependent sets.
    if !matches!(args.command.as_str(), "exec" | "compile")
        && (args.wrt.is_empty() || args.of.is_empty())
    {
        eprintln!("--wrt and --of are required");
        return Err(usage());
    }
    Ok(args)
}

/// One stderr line about the durable fingerprint index, printed after
/// the run's batched flush so warm-run scripts can confirm persistence
/// landed without parsing the directory themselves.
fn disk_diag(engine: &formad::SharedEngine, dir: &str, flushed: usize) {
    let fps = engine.fingerprints().map(|f| f.stats()).unwrap_or_default();
    eprintln!(
        "formad: disk cache {dir}: {} regions fingerprint-served ({} from disk) / \
         {} records flushed / {} write errors",
        fps.hits, fps.disk_hits, flushed, fps.write_errors
    );
}

/// One stderr line of search-core work counters, printed after every
/// analysis so benchmarking scripts can scrape it without parsing the
/// report (which never contains perf numbers). When the adjoint was
/// generated too, a second line says what it keeps of the forward sweep
/// and the tape.
fn search_diag(a: &formad::FormadAnalysis) {
    let s = &a.stats;
    eprintln!(
        "formad: search core: {} propagations / {} conflicts / {} presolve discharges / \
         {} presolve clauses",
        s.propagations, s.conflicts, s.presolve_discharges, s.presolve_clauses
    );
    if let Some(adjoint) = &a.adjoint {
        eprintln!("formad: adjoint: {adjoint}");
    }
}

fn main() -> ExitCode {
    // `serve`, `fuzz` and `cache` take no FILE argument, so they branch
    // before the normal parser (which requires one).
    {
        let mut argv = std::env::args().skip(1);
        match argv.next().as_deref() {
            Some("serve") => return serve_cmd(&argv.collect::<Vec<String>>()),
            Some("fuzz") => return fuzz_cmd(&argv.collect::<Vec<String>>()),
            Some("cache") => return cache_cmd(&argv.collect::<Vec<String>>()),
            _ => {}
        }
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(c) => return c,
    };
    let src = match fs::read_to_string(&args.file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {}: {e}", args.file);
            return ExitCode::from(2);
        }
    };
    // Both the Fortran-like and the C-like dialects are accepted.
    let primal = match parse_any(&src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return code_for(FormadErrorKind::Parse);
        }
    };
    let errs = formad_ir::validate(&primal);
    if !errs.is_empty() {
        for e in &errs {
            eprintln!("validation: {e}");
        }
        return code_for(FormadErrorKind::Validate);
    }

    // The pipeline's degradation ladder absorbs prover faults internally;
    // this is the last-resort net so a bug anywhere below still exits
    // with a diagnostic instead of a raw panic trace and code 101.
    match catch_unwind(AssertUnwindSafe(|| run(&args, &primal))) {
        Ok(code) => code,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("unknown panic");
            eprintln!("formad [prover-panic]: internal panic escaped recovery: {msg}");
            code_for(FormadErrorKind::ProverPanic)
        }
    }
}

/// Write the recorded trace (if `--trace` was given) to its file.
fn write_trace(args: &Args, sink: &Option<TraceSink>) -> Result<(), ExitCode> {
    let (Some(path), Some(s)) = (&args.trace, sink) else {
        return Ok(());
    };
    let doc = formad::trace_json(&s.snapshot());
    if let Err(e) = fs::write(path, doc) {
        eprintln!("cannot write trace to {path}: {e}");
        return Err(ExitCode::from(2));
    }
    Ok(())
}

/// `formad cache <stats|verify|clear>`: operator tooling for the durable
/// fingerprint index. Analysis runs never need this — a corrupt or
/// version-mismatched file silently degrades to cold misses — so these
/// verbs exist for humans who want to inspect or reset the directory.
/// Exit codes: 0 success (for `verify`: everything parsed clean and the
/// directory takes writes), 1 `verify` found a problem, 2 usage/IO.
fn cache_cmd(rest: &[String]) -> ExitCode {
    let cache_usage = || -> ExitCode {
        eprintln!("usage: formad cache <stats|verify|clear> [--cache-dir DIR]");
        ExitCode::from(2)
    };
    let mut action: Option<String> = None;
    let mut dir: Option<String> = std::env::var("FORMAD_CACHE_DIR").ok();
    let mut k = 0;
    while k < rest.len() {
        match rest[k].as_str() {
            "--cache-dir" => {
                k += 1;
                match rest.get(k) {
                    Some(d) => dir = Some(d.clone()),
                    None => return cache_usage(),
                }
            }
            a @ ("stats" | "verify" | "clear") if action.is_none() => {
                action = Some(a.to_string());
            }
            other => {
                eprintln!("unknown cache argument `{other}`");
                return cache_usage();
            }
        }
        k += 1;
    }
    let Some(action) = action else {
        return cache_usage();
    };
    let Some(dir) = dir else {
        eprintln!("formad cache: no directory (pass --cache-dir or set FORMAD_CACHE_DIR)");
        return ExitCode::from(2);
    };
    let path = std::path::Path::new(&dir);
    if !path.is_dir() {
        eprintln!("formad cache {action}: {dir}: not a directory");
        return ExitCode::from(2);
    }
    if action == "clear" {
        return match formad::clear_fp_file(path) {
            Ok(removed) => {
                println!(
                    "cleared {dir}: {} fingerprint index file(s)",
                    u64::from(removed)
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("formad cache clear: {dir}: {e}");
                ExitCode::from(2)
            }
        };
    }
    let report = formad::inspect_fp_file(path);
    println!("cache dir:      {dir}");
    println!("format:         {}", formad::FP_FORMAT_VERSION);
    println!("fingerprints:   {} record(s)", report.records);
    println!("bytes:          {}", report.bytes);
    if action == "stats" {
        return ExitCode::SUCCESS;
    }
    let write_errors = u64::from(formad::probe_fp_write(path).is_err());
    println!("write errors:   {write_errors}");
    if report.corrupt > 0 {
        println!(
            "corrupt:        {} fingerprint record(s) (skipped as cold misses by analysis runs)",
            report.corrupt
        );
    }
    if report.bad_version {
        println!(
            "bad version:    index file is unreadable or not {}",
            formad::FP_FORMAT_VERSION
        );
    }
    if report.corrupt > 0 || report.bad_version || write_errors > 0 {
        println!("verify: problems found (analysis output is unaffected)");
        ExitCode::from(1)
    } else {
        println!("verify: clean");
        ExitCode::SUCCESS
    }
}

/// `formad serve`: run the resident differentiation service until
/// SIGINT or a client POSTs `/v1/shutdown`. The bound address is the
/// first stdout line, so scripts can start on an ephemeral port
/// (`--addr 127.0.0.1:0`) and read where the daemon landed.
fn serve_cmd(rest: &[String]) -> ExitCode {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut cfg = formad_serve::ServiceConfig {
        cache_dir: std::env::var_os("FORMAD_CACHE_DIR").map(std::path::PathBuf::from),
        ..Default::default()
    };
    let mut k = 0;
    while k < rest.len() {
        let value = |k: &mut usize| -> Option<String> {
            *k += 1;
            rest.get(*k).cloned()
        };
        match rest[k].as_str() {
            "--addr" => match value(&mut k) {
                Some(a) => addr = a,
                None => return usage(),
            },
            "--workers" => match value(&mut k).and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => cfg.workers = n,
                _ => return usage(),
            },
            "--queue" => match value(&mut k).and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => cfg.queue = n,
                _ => return usage(),
            },
            "--deadline-ms" => match value(&mut k).and_then(|v| v.parse::<u64>().ok()) {
                Some(ms) => cfg.default_deadline_ms = Some(ms),
                _ => return usage(),
            },
            "--cache-dir" => match value(&mut k) {
                Some(d) => cfg.cache_dir = Some(std::path::PathBuf::from(d)),
                None => return usage(),
            },
            _ => return usage(),
        }
        k += 1;
    }
    formad_serve::install_sigint_handler();
    let mut handle = match formad_serve::serve(&addr, cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            return ExitCode::from(2);
        }
    };
    println!("formad serve listening on {}", handle.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    // The accept loop watches SIGINT and `/v1/shutdown` itself; joining
    // blocks until either fires and every in-flight request drained.
    handle.join();
    println!("formad serve: drained, bye");
    ExitCode::SUCCESS
}

/// `formad fuzz`: generate well-typed programs and cross-check every
/// oracle pair in the stack. Per-case lines go to stdout and are
/// byte-identical across runs with the same seed and flags (that is the
/// CI fuzz-smoke contract); the timing line goes to stderr. Exit 0 when
/// every case agrees, 1 when any oracle pair diverged, 2 on usage.
fn fuzz_cmd(rest: &[String]) -> ExitCode {
    use formad_fuzz::{run_fuzz, ChaosConfig, EngineCache, FuzzConfig, Reproducer};

    let mut cfg = FuzzConfig::default();
    let mut repro_path: Option<String> = None;
    let mut smoke = false;
    let mut aot_every_given = false;
    let mut k = 0;
    while k < rest.len() {
        let value = |k: &mut usize| -> Option<String> {
            *k += 1;
            rest.get(*k).cloned()
        };
        match rest[k].as_str() {
            "--seed" => match value(&mut k).and_then(|v| v.parse().ok()) {
                Some(s) => cfg.seed = s,
                None => return usage(),
            },
            "--cases" => match value(&mut k).and_then(|v| v.parse().ok()) {
                Some(n) => cfg.cases = n,
                None => return usage(),
            },
            "--max-loops" => match value(&mut k).and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => cfg.gen.max_loops = n,
                _ => return usage(),
            },
            "--max-arrays" => match value(&mut k).and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => cfg.gen.max_arrays = n,
                _ => return usage(),
            },
            "--corpus" => match value(&mut k) {
                Some(d) => cfg.corpus = Some(std::path::PathBuf::from(d)),
                None => return usage(),
            },
            "--shrink-budget" => match value(&mut k).and_then(|v| v.parse().ok()) {
                Some(n) => cfg.shrink_budget = n,
                None => return usage(),
            },
            "--aot-every" => match value(&mut k).and_then(|v| v.parse().ok()) {
                Some(n) => {
                    cfg.aot_every = n;
                    aot_every_given = true;
                }
                None => return usage(),
            },
            "--chaos-legacy" => match value(&mut k).and_then(|v| v.parse::<u16>().ok()) {
                Some(per_mille) if per_mille <= 1000 => {
                    cfg.oracle.poison_legacy = Some(ChaosConfig {
                        seed: cfg.seed,
                        panic_per_mille: 0,
                        unknown_per_mille: per_mille,
                        delay_per_mille: 0,
                        delay: Duration::ZERO,
                    });
                }
                _ => return usage(),
            },
            "--smoke" => smoke = true,
            "--repro" => match value(&mut k) {
                Some(p) => repro_path = Some(p),
                None => return usage(),
            },
            other => {
                eprintln!("unknown fuzz option `{other}`");
                return usage();
            }
        }
        k += 1;
    }
    if let Some(path) = repro_path {
        let repro = match Reproducer::load(std::path::Path::new(&path)) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("formad fuzz --repro {path}: {e}");
                return ExitCode::from(2);
            }
        };
        let mut engines = EngineCache::new();
        return match repro.run(&mut engines) {
            Err(d) => {
                println!("reproduces: {d}");
                ExitCode::from(1)
            }
            Ok(_) => {
                println!("no divergence: the reproducer runs clean");
                ExitCode::SUCCESS
            }
        };
    }
    if smoke {
        cfg.aot_every = 0;
        cfg.oracle.check_aot = false;
    } else if !aot_every_given {
        cfg.aot_every = 16;
    }
    let t0 = std::time::Instant::now();
    let out = match run_fuzz(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("formad fuzz: {e}");
            return ExitCode::from(2);
        }
    };
    for line in &out.lines {
        println!("{line}");
    }
    eprintln!(
        "formad: fuzz {} cases in {:.3}s",
        cfg.cases,
        t0.elapsed().as_secs_f64()
    );
    if out.divergences.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Bind `--set`/`--seed` parameters for `exec`/`compile`, mapping bind
/// failures onto the shared exit-code ladder.
fn bind_for_exec(
    args: &Args,
    primal: &formad_ir::Program,
) -> Result<formad_machine::Bindings, ExitCode> {
    use formad_machine::{bind_params, BindError};
    match bind_params(primal, &args.sets, args.seed) {
        Ok(b) => Ok(b),
        Err(e @ BindError::Lower(_)) => {
            eprintln!("{e}");
            Err(code_for(FormadErrorKind::Validate))
        }
        Err(e @ BindError::MissingInt { .. }) => {
            eprintln!("{e}");
            Err(ExitCode::from(2))
        }
        Err(e) => {
            eprintln!("--set: {e}");
            Err(ExitCode::from(2))
        }
    }
}

/// `formad exec`: bind parameters, run on the chosen backend, print the
/// `intent(out)`/`intent(inout)` results. All three backends are
/// bitwise-identical on every program without an `!$omp atomic`
/// increment, so that output can be diffed across them directly.
/// `--deadline-ms` is honored like `prove`: expiry — before or during
/// the run — is a hard error (exit 7), so every CLI verb shares one
/// deadline story and the service can reuse it per-request.
fn exec_cmd(args: &Args, primal: &formad_ir::Program) -> ExitCode {
    use formad_machine::{output_lines, run, run_aot, run_native, Machine};

    let deadline = args.deadline_ms.map(Deadline::in_ms);
    if let Some(c) = check_exec_deadline(&deadline, "execution started") {
        return c;
    }
    let mut bind = match bind_for_exec(args, primal) {
        Ok(b) => b,
        Err(c) => return c,
    };

    let t0 = std::time::Instant::now();
    let res = match args.backend.as_str() {
        "native" => run_native(primal, &mut bind, args.threads),
        "aot" => run_aot(primal, &mut bind, args.threads).map(|fallback| {
            // Degradation, not errors: a failed kernel build lands on the
            // bytecode backend with identical results and a stderr note.
            if let Some(reason) = fallback {
                eprintln!("formad: aot unavailable, fell back to native bytecode ({reason})");
            }
        }),
        _ => run(primal, &mut bind, &Machine::with_threads(args.threads)).map(|_| ()),
    };
    let elapsed = t0.elapsed();
    if let Err(e) = res {
        eprintln!("execution failed: {e}");
        return code_for(FormadErrorKind::Validate);
    }
    if let Some(c) = check_exec_deadline(&deadline, "execution finished") {
        return c;
    }
    eprintln!(
        "formad: exec `{}` backend={} threads={} in {:.6}s",
        primal.name,
        args.backend,
        args.threads,
        elapsed.as_secs_f64()
    );
    for line in output_lines(primal, &bind) {
        println!("{line}");
    }
    ExitCode::SUCCESS
}

/// `formad compile`: ahead-of-time build the native kernel for a
/// program's parallel regions and print where the artifacts landed, so a
/// later `exec --backend aot` (or a serve instance sharing the same
/// `FORMAD_AOT_DIR`) starts warm. Unlike `exec`, a failed kernel build
/// here is a hard error (exit 2): the entire point of the verb is the
/// artifact, so there is nothing to degrade to.
fn compile_cmd(args: &Args, primal: &formad_ir::Program) -> ExitCode {
    use formad_machine::{aot, compile, load_or_compile, lower};

    let bind = match bind_for_exec(args, primal) {
        Ok(b) => b,
        Err(c) => return c,
    };
    let lp = match lower(primal, &bind) {
        Ok(lp) => lp,
        Err(e) => {
            eprintln!("lower: {e}");
            return code_for(FormadErrorKind::Validate);
        }
    };
    let bc = match compile(&lp, primal) {
        Ok(bc) => bc,
        Err(e) => {
            eprintln!("bytecode: {e}");
            return code_for(FormadErrorKind::Validate);
        }
    };
    // Only parallel regions get AOT kernels; a purely sequential program
    // has nothing to build and shouldn't cost a rustc invocation.
    if bc.regions.is_empty() {
        println!("regions: 0");
        println!(
            "nothing to compile: `{}` has no parallel regions",
            primal.name
        );
        return ExitCode::SUCCESS;
    }
    let t0 = std::time::Instant::now();
    let kernel = match load_or_compile(&lp, &bc) {
        Ok(k) => k,
        Err(e) => {
            eprintln!("formad compile: {e}");
            return ExitCode::from(2);
        }
    };
    let stats = aot::stats();
    eprintln!(
        "formad: compile `{}` in {:.3}s ({})",
        primal.name,
        t0.elapsed().as_secs_f64(),
        if stats.compiles > 0 {
            "fresh build"
        } else {
            "cache hit"
        }
    );
    println!("hash:    {}", kernel.hash());
    println!("regions: {}", kernel.region_count());
    println!("cdylib:  {}", kernel.lib_path().display());
    if let Ok(meta) = std::fs::metadata(kernel.lib_path()) {
        println!("bytes:   {}", meta.len());
    }
    println!("source:  {}", kernel.source_path().display());
    ExitCode::SUCCESS
}

/// Exec's half of the shared deadline story: expiry is the same hard
/// failure (exit 7) the analysis pipeline reports, diagnostics included.
fn check_exec_deadline(deadline: &Option<Deadline>, stage: &str) -> Option<ExitCode> {
    let d = deadline.as_ref()?;
    if !d.expired() {
        return None;
    }
    eprintln!(
        "{}",
        formad::FormadError::new(
            FormadErrorKind::Deadline,
            format!("global deadline expired before {stage}"),
        )
    );
    Some(code_for(FormadErrorKind::Deadline))
}

fn run(args: &Args, primal: &formad_ir::Program) -> ExitCode {
    if std::env::var_os("FORMAD_INTERNAL_PANIC").is_some() {
        panic!("FORMAD_INTERNAL_PANIC test hook tripped");
    }
    if args.command == "exec" {
        return exec_cmd(args, primal);
    }
    if args.command == "compile" {
        return compile_cmd(args, primal);
    }
    let wrt: Vec<&str> = args.wrt.iter().map(|s| s.as_str()).collect();
    let of: Vec<&str> = args.of.iter().map(|s| s.as_str()).collect();
    let mut opts = FormadOptions::new(&wrt, &of);
    opts.region.stride_constraints = args.stride;
    opts.region.use_contexts = args.contexts;
    opts.region.use_increment_detection = args.increment;
    opts.region.prover_timeout = args.prover_timeout;
    opts.region.deadline = args.deadline_ms.map(Deadline::in_ms);
    // Durable region-fingerprint index rooted at `--cache-dir` (or
    // `FORMAD_CACHE_DIR`); without one every region is analyzed.
    let disk = args.cache_dir.as_ref().map(|dir| {
        let engine = formad::SharedEngine::with_cache_dir(std::path::Path::new(dir));
        opts.region.fingerprints = engine.fingerprints().cloned();
        (dir.clone(), engine)
    });
    // `explain` always needs the event stream; other commands record one
    // only when `--trace` asks for it.
    let sink = (args.trace.is_some() || args.command == "explain").then(TraceSink::new);
    opts.region.trace = sink.clone();
    let tool = Formad::new(opts);

    let code = run_diff(args, primal, &tool, &sink);
    // Flush even when the run degraded or missed its deadline: every
    // verdict proven so far is still valid and warms the next attempt.
    if let Some((dir, engine)) = &disk {
        let flushed = engine.flush_disk();
        disk_diag(engine, dir, flushed);
    }
    code
}

/// The differentiation verbs (`analyze`/`prove`, `explain`, `adjoint`,
/// `versions`), split out of [`run`] so the durable-cache flush in the
/// caller runs no matter which arm (or early error return) finishes.
fn run_diff(
    args: &Args,
    primal: &formad_ir::Program,
    tool: &Formad,
    sink: &Option<TraceSink>,
) -> ExitCode {
    match args.command.as_str() {
        "analyze" | "prove" => {
            let a = match tool.analyze(primal) {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("{e}");
                    return code_for(e.kind);
                }
            };
            search_diag(&a);
            match &args.table1 {
                Some(name) => {
                    println!("{}", formad::table1_header());
                    println!("{}", formad::table1_row(name, &a));
                }
                None => print!("{}", formad::full_report(&primal.name, &a)),
            }
            if let Err(c) = write_trace(args, sink) {
                return c;
            }
            ExitCode::SUCCESS
        }
        "explain" => {
            // The narrative covers the adjoint's tape as well as the
            // safeguards, so the transformation runs too.
            let a = match tool.differentiate(primal) {
                Ok(r) => r.analysis,
                Err(e) => {
                    eprintln!("{e}");
                    return code_for(e.kind);
                }
            };
            search_diag(&a);
            let events = sink.as_ref().map(TraceSink::snapshot).unwrap_or_default();
            print!("{}", formad::explain(&events, args.array.as_deref()));
            if let Err(c) = write_trace(args, sink) {
                return c;
            }
            ExitCode::SUCCESS
        }
        "adjoint" => {
            let treatment = match args.mode.as_str() {
                "formad" => None,
                "serial" => Some(ParallelTreatment::Serial),
                "atomic" => Some(ParallelTreatment::Uniform(IncMode::Atomic)),
                "reduction" => Some(ParallelTreatment::Uniform(IncMode::Reduction)),
                "transposed" => Some(ParallelTreatment::Uniform(IncMode::Transposed)),
                other => {
                    eprintln!("unknown mode `{other}`");
                    return ExitCode::from(2);
                }
            };
            let adjoint = match treatment {
                None => match tool.differentiate(primal) {
                    Ok(r) => {
                        search_diag(&r.analysis);
                        eprint!("{}", formad::full_report(&primal.name, &r.analysis));
                        r.adjoint
                    }
                    Err(e) => {
                        eprintln!("{e}");
                        return code_for(e.kind);
                    }
                },
                Some(t) => match tool.adjoint_with(primal, t) {
                    Ok(a) => a,
                    Err(e) => {
                        eprintln!("{e}");
                        return code_for(e.kind);
                    }
                },
            };
            print!("{}", args.emit.print(&adjoint));
            if let Err(c) = write_trace(args, sink) {
                return c;
            }
            ExitCode::SUCCESS
        }
        "versions" => {
            let r = match tool.differentiate(primal) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("{e}");
                    return code_for(e.kind);
                }
            };
            println!("! ===== analysis =====");
            for line in formad::full_report(&primal.name, &r.analysis).lines() {
                println!("! {line}");
            }
            println!("\n! ===== adjoint (FormAD) =====");
            print!("{}", args.emit.print(&r.adjoint));
            for (label, t) in [
                ("serial", ParallelTreatment::Serial),
                ("atomic", ParallelTreatment::Uniform(IncMode::Atomic)),
                ("reduction", ParallelTreatment::Uniform(IncMode::Reduction)),
                (
                    "transposed",
                    ParallelTreatment::Uniform(IncMode::Transposed),
                ),
            ] {
                println!("\n! ===== adjoint ({label}) =====");
                match tool.adjoint_with(primal, t) {
                    Ok(a) => print!("{}", args.emit.print(&a)),
                    Err(e) => {
                        eprintln!("{e}");
                        return code_for(e.kind);
                    }
                }
            }
            if let Err(c) = write_trace(args, sink) {
                return c;
            }
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown command `{other}`");
            usage()
        }
    }
}
