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
//!   --backend B        sim (default; the reference interpreter) |
//!                      native (flat register bytecode on real OS
//!                      threads) | aot (parallel regions compiled
//!                      to a native cdylib via `rustc`, cached under
//!                      `FORMAD_AOT_DIR`, falling back to native
//!                      bytecode if the compile fails). Outputs
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
//! Test hook, debug builds only: setting `FORMAD_INTERNAL_PANIC=1` panics
//! deliberately inside the run so the exit-6 last-resort net stays covered
//! by the test suite. A release build has no such hook: nothing in its
//! arguments or environment can make it panic on purpose.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use formad::{FormadAnalysis, FormadErrorKind, SharedEngine, TraceSink, ADJOINT_MODES};
use formad_ir::Program;
use formad_serve::request::{
    self, read_argv, Engines, Failure, Request, Verb, Word, CACHE_DIR_ENV,
};

/// Distinct nonzero exit code per error classification.
fn code_for(kind: FormadErrorKind) -> u8 {
    match kind {
        FormadErrorKind::Parse => 3,
        FormadErrorKind::Validate => 4,
        FormadErrorKind::Ad => 5,
        FormadErrorKind::ProverPanic => 6,
        FormadErrorKind::Deadline => 7,
    }
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

/// Print a failed request and pick its exit code.
fn fail(f: Failure) -> ExitCode {
    let (text, code) = match f {
        Failure::Usage(m) if m.is_empty() => return usage(),
        Failure::Usage(m) => {
            eprintln!("{m}");
            return usage();
        }
        Failure::Input(m) => (m, 2),
        Failure::Parse(m) => (m, 3),
        Failure::Invalid(errs) => (format!("validation: {}", errs.join("\nvalidation: ")), 4),
        Failure::Lower(m) => (m, 4),
        Failure::Exec(m) => (format!("execution failed: {m}"), 4),
        Failure::Pipeline(e) => (e.to_string(), code_for(e.kind)),
    };
    eprintln!("{text}");
    ExitCode::from(code)
}

/// The exit code of a finished verb.
fn done(result: Result<(), Failure>) -> ExitCode {
    result.map_or_else(fail, |()| ExitCode::SUCCESS)
}

/// One stderr line about the durable fingerprint index, printed after
/// the run's batched flush so warm-run scripts can confirm persistence
/// landed without parsing the directory themselves.
fn disk_diag(engine: &SharedEngine, dir: &Path, flushed: usize) {
    let index = engine.fingerprints();
    let fps = index.map(|f| f.stats()).unwrap_or_default();
    let refused = index
        .and_then(|f| f.refused())
        .map(|why| format!(" / refused: {why}"))
        .unwrap_or_default();
    eprintln!(
        "formad: disk cache {}: {} regions fingerprint-served ({} from disk) / \
         {} records flushed / {} write errors{refused}",
        dir.display(),
        fps.hits,
        fps.disk_hits,
        flushed,
        fps.write_errors
    );
}

/// One stderr line of search-core work counters, printed after every
/// analysis so benchmarking scripts can scrape it without parsing the
/// report (which never contains perf numbers). When the adjoint was
/// generated too, a second line says what it keeps of the forward sweep
/// and the tape.
fn search_diag(a: &FormadAnalysis) {
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
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cache_dir = request::cache_dir_from_env();
    // `serve`, `fuzz` and `cache` take no FILE argument.
    let rest = argv.get(1..).unwrap_or_default();
    match argv.first().map(String::as_str) {
        Some("serve") => return serve_cmd(rest, cache_dir),
        Some("fuzz") => return fuzz_cmd(rest),
        Some("cache") => return cache_cmd(rest, cache_dir),
        _ => {}
    }
    let decoded = Request::from_args(&argv, cache_dir).and_then(|req| Ok((req.primal()?, req)));
    let (primal, req) = match decoded {
        Ok(d) => d,
        Err(f) => return fail(f),
    };
    // The pipeline's degradation ladder absorbs prover faults internally;
    // this is the last-resort net so a bug anywhere below still exits
    // with a diagnostic instead of a raw panic trace and code 101.
    match catch_unwind(AssertUnwindSafe(|| run(&req, &primal))) {
        Ok(code) => code,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("unknown panic");
            eprintln!("formad [prover-panic]: internal panic escaped recovery: {msg}");
            ExitCode::from(code_for(FormadErrorKind::ProverPanic))
        }
    }
}

/// Write the recorded trace (if `--trace` was given) to its file.
fn write_trace(req: &Request, sink: &Option<TraceSink>) -> Result<(), Failure> {
    let (Some(path), Some(s)) = (&req.trace, sink) else {
        return Ok(());
    };
    std::fs::write(path, formad::trace_json(&s.snapshot()))
        .map_err(|e| Failure::Input(format!("cannot write trace to {path}: {e}")))
}

/// `formad cache <stats|verify|clear>`: operator tooling for the durable
/// fingerprint index. Analysis runs never need this — a corrupt or
/// version-mismatched file silently degrades to cold misses — so these
/// verbs exist for humans who want to inspect or reset the directory.
/// Exit codes: 0 success (for `verify`: everything parsed clean and the
/// directory takes writes), 1 `verify` found a problem, 2 usage/IO.
fn cache_cmd(rest: &[String], mut dir: Option<PathBuf>) -> ExitCode {
    let cache_usage = || -> ExitCode {
        eprintln!("usage: formad cache <stats|verify|clear> [--cache-dir DIR]");
        ExitCode::from(2)
    };
    let mut action: Option<&str> = None;
    for word in read_argv(rest, |_| false) {
        match word {
            Word::Flag("--cache-dir", Some(d)) => dir = Some(PathBuf::from(d)),
            Word::Flag("--cache-dir", None) => return cache_usage(),
            Word::Positional(a @ ("stats" | "verify" | "clear")) if action.is_none() => {
                action = Some(a);
            }
            Word::Flag(other, _) | Word::Positional(other) => {
                eprintln!("unknown cache argument `{other}`");
                return cache_usage();
            }
        }
    }
    let Some(action) = action else {
        return cache_usage();
    };
    let Some(path) = dir else {
        eprintln!("formad cache: no directory (pass --cache-dir or set {CACHE_DIR_ENV})");
        return ExitCode::from(2);
    };
    let dir = path.display();
    if !path.is_dir() {
        eprintln!("formad cache {action}: {dir}: not a directory");
        return ExitCode::from(2);
    }
    if action == "clear" {
        return match formad::clear_fp_file(&path) {
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
    let report = formad::inspect_fp_file(&path);
    println!("cache dir:      {dir}");
    println!("format:         {}", formad::FP_FORMAT_VERSION);
    println!("fingerprints:   {} record(s)", report.records);
    println!("bytes:          {}", report.bytes);
    if action == "stats" {
        return ExitCode::SUCCESS;
    }
    let write_errors = u64::from(formad::probe_fp_write(&path).is_err());
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
    if let Some(why) = &report.refused {
        println!("refused:        {why} (analysis runs neither read nor write it)");
    }
    if report.corrupt > 0 || report.bad_version || write_errors > 0 || report.refused.is_some() {
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
fn serve_cmd(rest: &[String], cache_dir: Option<PathBuf>) -> ExitCode {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut cfg = formad_serve::ServiceConfig {
        cache_dir,
        ..Default::default()
    };
    for word in read_argv(rest, |_| false) {
        let Word::Flag(flag, value) = word else {
            return usage();
        };
        let read = match flag {
            "--addr" => value.map(|v| addr = v.to_string()),
            "--workers" => num(value).filter(|n| *n > 0).map(|n| cfg.workers = n),
            "--queue" => num(value).map(|n| cfg.queue = n),
            "--deadline-ms" => num(value).map(|ms| cfg.default_deadline_ms = Some(ms)),
            "--cache-dir" => value.map(|d| cfg.cache_dir = Some(PathBuf::from(d))),
            _ => None,
        };
        if read.is_none() {
            return usage();
        }
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
    let mut repro_path: Option<&str> = None;
    let mut smoke = false;
    let mut aot_every = None;
    for word in read_argv(rest, |w| w == "--smoke") {
        let (flag, value) = match word {
            Word::Flag(flag, value) => (flag, value),
            Word::Positional(other) => (other, None),
        };
        smoke |= flag == "--smoke";
        let read = match flag {
            "--seed" => num(value).map(|s| cfg.seed = s),
            "--cases" => num(value).map(|n| cfg.cases = n),
            "--max-loops" => num(value)
                .filter(|n| *n >= 1)
                .map(|n| cfg.gen.max_loops = n),
            "--max-arrays" => num(value)
                .filter(|n| *n >= 1)
                .map(|n| cfg.gen.max_arrays = n),
            "--corpus" => value.map(|d| cfg.corpus = Some(PathBuf::from(d))),
            "--shrink-budget" => num(value).map(|n| cfg.shrink_budget = n),
            "--aot-every" => num(value).map(|n| aot_every = Some(n)),
            "--chaos-legacy" => num(value).filter(|p| *p <= 1000).map(|per_mille| {
                cfg.oracle.poison_legacy = Some(ChaosConfig {
                    seed: cfg.seed,
                    panic_per_mille: 0,
                    unknown_per_mille: per_mille,
                    delay_per_mille: 0,
                    delay: Duration::ZERO,
                });
            }),
            "--smoke" => Some(()),
            "--repro" => value.map(|p| repro_path = Some(p)),
            other => {
                eprintln!("unknown fuzz option `{other}`");
                None
            }
        };
        if read.is_none() {
            return usage();
        }
    }
    if let Some(path) = repro_path {
        let repro = match Reproducer::load(Path::new(path)) {
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
    // `--smoke` never builds a kernel; otherwise every 16th case does.
    cfg.aot_every = if smoke { 0 } else { aot_every.unwrap_or(16) };
    cfg.oracle.check_aot &= !smoke;
    let t0 = Instant::now();
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

/// `value` parsed as a number of the type its destination needs.
fn num<T: std::str::FromStr>(value: Option<&str>) -> Option<T> {
    value?.parse().ok()
}

/// `formad exec`: bind parameters, run on the chosen backend, print the
/// `intent(out)`/`intent(inout)` results. All three backends are
/// bitwise-identical on every program without an `!$omp atomic`
/// increment, so that output can be diffed across them directly.
/// `--deadline-ms` is honored like `prove`: expiry — before or during
/// the run — is a hard error (exit 7), so every CLI verb shares one
/// deadline story with the service.
fn exec_cmd(req: &Request, primal: &Program) -> Result<(), Failure> {
    let mut bind = req.bindings(primal)?;
    let t0 = Instant::now();
    let fallback = req.exec(primal, &mut bind, &Engines::default())?;
    let elapsed = t0.elapsed();
    // Degradation, not errors: a failed kernel build lands on the
    // bytecode backend with identical results and a stderr note.
    if let Some(reason) = fallback {
        eprintln!("formad: aot unavailable, fell back to native bytecode ({reason})");
    }
    eprintln!(
        "formad: exec `{}` backend={} threads={} in {:.6}s",
        primal.name,
        req.backend.name(),
        req.threads,
        elapsed.as_secs_f64()
    );
    for line in formad_machine::output_lines(primal, &bind) {
        println!("{line}");
    }
    Ok(())
}

/// `formad compile`: ahead-of-time build the native kernel for a
/// program's parallel regions and print where the artifacts landed, so a
/// later `exec --backend aot` (or a serve instance sharing the same
/// `FORMAD_AOT_DIR`) starts warm. Unlike `exec`, a failed kernel build
/// here is a hard error (exit 2): the entire point of the verb is the
/// artifact, so there is nothing to degrade to.
fn compile_cmd(req: &Request, primal: &Program) -> Result<(), Failure> {
    use formad_machine::{aot, compile, load_or_compile, lower};

    let bind = req.bindings(primal)?;
    let lp = lower(primal, &bind).map_err(|e| Failure::Lower(format!("lower: {e}")))?;
    let bc = compile(&lp, primal).map_err(|e| Failure::Lower(format!("bytecode: {e}")))?;
    // Only parallel regions get AOT kernels; a purely sequential program
    // has nothing to build and shouldn't cost a rustc invocation.
    if bc.regions.is_empty() {
        println!("regions: 0");
        println!(
            "nothing to compile: `{}` has no parallel regions",
            primal.name
        );
        return Ok(());
    }
    let t0 = Instant::now();
    let kernel =
        load_or_compile(&lp, &bc).map_err(|e| Failure::Input(format!("formad compile: {e}")))?;
    let how = if aot::stats().compiles > 0 {
        "fresh build"
    } else {
        "cache hit"
    };
    let secs = t0.elapsed().as_secs_f64();
    eprintln!("formad: compile `{}` in {secs:.3}s ({how})", primal.name);
    println!("hash:    {}", kernel.hash());
    println!("regions: {}", kernel.region_count());
    println!("cdylib:  {}", kernel.lib_path().display());
    if let Ok(meta) = std::fs::metadata(kernel.lib_path()) {
        println!("bytes:   {}", meta.len());
    }
    println!("source:  {}", kernel.source_path().display());
    Ok(())
}

fn run(req: &Request, primal: &Program) -> ExitCode {
    #[cfg(debug_assertions)]
    if std::env::var_os("FORMAD_INTERNAL_PANIC").is_some() {
        panic!("FORMAD_INTERNAL_PANIC test hook tripped");
    }
    match req.verb {
        Verb::Exec => return done(exec_cmd(req, primal)),
        Verb::Compile => return done(compile_cmd(req, primal)),
        _ => {}
    }
    // Durable region-fingerprint index rooted at `--cache-dir` (or
    // the environment's default); without one every region is analyzed.
    let engine = req
        .cache_dir
        .as_deref()
        .map_or_else(SharedEngine::default, SharedEngine::with_cache_dir);
    let code = done(run_diff(req, primal, &engine));
    // Flush even when the run degraded or missed its deadline: every
    // verdict proven so far is still valid and warms the next attempt.
    if let Some(dir) = &req.cache_dir {
        disk_diag(&engine, dir, engine.flush_disk());
    }
    code
}

/// The differentiation verbs (`analyze`/`prove`, `explain`, `adjoint`,
/// `versions`), split out of [`run`] so the durable-cache flush in the
/// caller runs no matter which arm (or early error return) finishes.
fn run_diff(req: &Request, primal: &Program, engine: &SharedEngine) -> Result<(), Failure> {
    let opts = req.options();
    let sink = opts.region.trace.clone();
    match req.verb {
        Verb::Analyze | Verb::Prove => {
            let a = engine.analyze(primal, &opts)?;
            search_diag(&a);
            match &req.table1 {
                Some(name) => {
                    println!("{}", formad::table1_header());
                    println!("{}", formad::table1_row(name, &a));
                }
                None => print!("{}", formad::full_report(&primal.name, &a)),
            }
        }
        Verb::Explain => {
            // The narrative covers the adjoint's tape as well as the
            // safeguards, so the transformation runs too.
            let a = engine.differentiate(primal, &opts)?.analysis;
            search_diag(&a);
            let events = sink.as_ref().map(TraceSink::snapshot).unwrap_or_default();
            print!("{}", formad::explain(&events, req.array.as_deref()));
        }
        Verb::Adjoint => {
            let adjoint = match req.treatment()? {
                None => {
                    let r = engine.differentiate(primal, &opts)?;
                    search_diag(&r.analysis);
                    eprint!("{}", formad::full_report(&primal.name, &r.analysis));
                    r.adjoint
                }
                Some(t) => engine.adjoint_with(primal, &opts, t)?,
            };
            print!("{}", req.emit.print(&adjoint));
        }
        Verb::Versions => {
            let r = engine.differentiate(primal, &opts)?;
            println!("! ===== analysis =====");
            for line in formad::full_report(&primal.name, &r.analysis).lines() {
                println!("! {line}");
            }
            println!("\n! ===== adjoint (FormAD) =====");
            print!("{}", req.emit.print(&r.adjoint));
            for (label, mode) in &ADJOINT_MODES {
                // `formad`, the mode without a fixed treatment, is above.
                let Some(t) = mode.clone() else { continue };
                println!("\n! ===== adjoint ({label}) =====");
                print!(
                    "{}",
                    req.emit.print(&engine.adjoint_with(primal, &opts, t)?)
                );
            }
        }
        Verb::Exec | Verb::Compile => unreachable!("run handles the exec verbs"),
    }
    write_trace(req, &sink)
}
