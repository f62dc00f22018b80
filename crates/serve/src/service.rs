//! The resident differentiation service: one shared engine, many
//! requests, degradation-not-errors.
//!
//! Request lifecycle for the analysis verbs (`analyze` / `prove`):
//!
//! 1. Parse JSON and the program — failures are the client's (HTTP 400).
//! 2. Pass the admission gate. Saturation *sheds*: the request is
//!    answered immediately with the always-safe atomic discipline (HTTP
//!    200, `degraded: true`) instead of queueing or erroring.
//! 3. Run the pipeline against a private overlay of the shared
//!    fingerprint index ([`SharedEngine::differentiate_isolated`]), inside
//!    `catch_unwind`. Success absorbs the overlay; an error or a panic
//!    rolls it back, and a panic (or a pipeline-level deadline expiry)
//!    still answers 200 with the atomic fallback.
//!
//! `exec` has no cheaper correct answer, so it is the only verb that can
//! be told to come back later (HTTP 429 + `retry_after_ms`) and its
//! deadline expiry is an error (HTTP 408), mirroring `formad exec`'s
//! exit 7. The service never returns a 5xx: every response is either the
//! client's fault (4xx) or a correct — possibly degraded — answer.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use formad::{
    full_report, Deadline, FormadAnalysis, FormadErrorKind, FormadOptions, IncMode,
    ParallelTreatment, SharedEngine,
};
use formad_ir::{parse_any, Program, SourceFlavor};
use formad_machine::{bind_params, output_lines, Machine, NativeEngine, NativeProgram};
use formad_smt::{ChaosConfig, SolverBudget, SolverStats};

use crate::admission::{Admission, Admit, ShedLevel};
use crate::http::{Request, Response};
use crate::json::{obj, Json};

/// Tunables for one service instance.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Concurrent request slots.
    pub workers: usize,
    /// Admission queue capacity beyond the running slots.
    pub queue: usize,
    /// Deadline applied to requests that don't carry their own.
    pub default_deadline_ms: Option<u64>,
    /// Upper bound on `exec` logical threads per request.
    pub exec_threads_max: usize,
    /// Durable cache directory. When set, region fingerprints are read
    /// through from disk and batched back on every absorbed request, so
    /// warmth survives daemon restarts.
    pub cache_dir: Option<std::path::PathBuf>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            queue: 8,
            default_deadline_ms: None,
            exec_threads_max: 16,
            cache_dir: None,
        }
    }
}

#[derive(Debug, Default)]
struct Counters {
    analyze: AtomicU64,
    exec: AtomicU64,
    status: AtomicU64,
    ok_200: AtomicU64,
    client_4xx: AtomicU64,
    rejected_429: AtomicU64,
    degraded: AtomicU64,
    fallbacks: AtomicU64,
    panics_caught: AtomicU64,
}

/// The `Arc`-shared service: engine, admission gate, exec engines, and
/// the counters `/status` exports.
pub struct Service {
    cfg: ServiceConfig,
    engine: SharedEngine,
    admission: Admission,
    started: Instant,
    counters: Counters,
    /// Aggregate prover statistics across every completed analysis.
    stats: Mutex<SolverStats>,
    /// Persistent native exec engines, one per logical thread count, so
    /// repeated `exec` requests reuse parked worker pools instead of
    /// spawning threads per request.
    native: Mutex<HashMap<usize, NativeEngine>>,
    shutdown: AtomicBool,
}

impl Service {
    pub fn new(cfg: ServiceConfig) -> Service {
        let engine = match &cfg.cache_dir {
            Some(dir) => SharedEngine::with_cache_dir(dir),
            None => SharedEngine::new(),
        };
        Service {
            admission: Admission::new(cfg.workers, cfg.queue),
            cfg,
            engine,
            started: Instant::now(),
            counters: Counters::default(),
            stats: Mutex::new(SolverStats::default()),
            native: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
        }
    }

    /// The shared engine (tests reach the fingerprint index through this).
    pub fn engine(&self) -> &SharedEngine {
        &self.engine
    }

    /// True once a client POSTed `/v1/shutdown`.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Route one request. Total: never panics out (the caller still
    /// wraps in `catch_unwind` as a last net) and never produces a 5xx.
    pub fn handle(&self, req: &Request) -> Response {
        let resp = match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/v1/analyze") | ("POST", "/v1/prove") => {
                self.counters.analyze.fetch_add(1, Ordering::Relaxed);
                // `prove` keeps the CLI alias: same verb, adjoint included.
                self.analysis_request(&req.body, req.path.ends_with("prove"))
            }
            ("POST", "/v1/exec") => {
                self.counters.exec.fetch_add(1, Ordering::Relaxed);
                self.exec_request(&req.body)
            }
            ("GET", "/v1/status") => {
                self.counters.status.fetch_add(1, Ordering::Relaxed);
                Response::json(200, self.status_json().render())
            }
            ("POST", "/v1/shutdown") => {
                self.shutdown.store(true, Ordering::Release);
                Response::json(
                    200,
                    obj(vec![("ok", true.into()), ("draining", true.into())]).render(),
                )
            }
            (_, "/v1/analyze" | "/v1/prove" | "/v1/exec" | "/v1/shutdown") => {
                client_error(405, "method", "use POST")
            }
            (_, "/v1/status") => client_error(405, "method", "use GET"),
            _ => client_error(404, "not-found", "unknown endpoint"),
        };
        match resp.status {
            200 => self.counters.ok_200.fetch_add(1, Ordering::Relaxed),
            429 => self.counters.rejected_429.fetch_add(1, Ordering::Relaxed),
            _ => self.counters.client_4xx.fetch_add(1, Ordering::Relaxed),
        };
        resp
    }

    // ---- analyze / prove ----

    fn analysis_request(&self, body: &str, want_adjoint: bool) -> Response {
        let req = match Json::parse(body) {
            Ok(v) => v,
            Err(e) => return client_error(400, "parse", &format!("bad JSON: {e}")),
        };
        let Some(source) = req.get("program").and_then(Json::as_str) else {
            return client_error(400, "parse", "`program` (string) is required");
        };
        let primal = match parse_any(source) {
            Ok(p) => p,
            Err(e) => return client_error(400, "parse", &e.to_string()),
        };
        let wrt = string_list(&req, "wrt");
        let of = string_list(&req, "of");
        if wrt.is_empty() || of.is_empty() {
            return client_error(400, "validate", "`wrt` and `of` are required");
        }
        let emit = req.get("emit").and_then(Json::as_str).unwrap_or("fortran");
        let Some(emit) = SourceFlavor::from_name(emit) else {
            return client_error(400, "validate", &format!("unknown emit dialect `{emit}`"));
        };
        let want_adjoint = req
            .get("adjoint")
            .and_then(Json::as_bool)
            .unwrap_or(want_adjoint);

        let mut opts = base_options(&wrt, &of);
        let deadline_ms = req
            .get("deadline_ms")
            .and_then(Json::as_u64)
            .or(self.cfg.default_deadline_ms);
        opts.region.deadline = deadline_ms.map(Deadline::in_ms);
        if let Some(ms) = req.get("prover_timeout_ms").and_then(Json::as_u64) {
            opts.region.prover_timeout = Some(Duration::from_millis(ms));
        }
        if let Some(chaos) = req.get("chaos") {
            match chaos_config(chaos) {
                Ok(cfg) => opts.region.chaos = Some(cfg),
                Err(e) => return client_error(400, "validate", &e),
            }
        }
        let poisoned = req.get("poison").and_then(Json::as_bool).unwrap_or(false);

        let permit = match self.admission.admit(true) {
            Admit::Run(p) => p,
            Admit::Shed => {
                return self.fallback_response(
                    &primal,
                    &opts,
                    want_adjoint,
                    emit,
                    "load shed: admission queue saturated",
                    "fallback",
                );
            }
            // Unreachable for degradable work; keep the arm total.
            Admit::Reject { retry_after_ms } => return rejected(retry_after_ms),
        };
        let level = permit.level;
        if level == ShedLevel::Reduced {
            shrink_budgets(&mut opts);
        }

        // Per-request panic isolation: the pipeline runs against a
        // private index overlay (absorbed only on success), and a panic
        // — injected chaos or a genuine bug — degrades the answer
        // instead of killing the daemon.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if poisoned {
                panic!("poisoned request (test hook)");
            }
            if want_adjoint {
                self.engine
                    .differentiate_isolated(&primal, &opts)
                    .map(|r| (r.analysis, Some(emit.print(&r.adjoint))))
            } else {
                self.engine
                    .analyze_isolated(&primal, &opts)
                    .map(|a| (a, None))
            }
        }));
        drop(permit);

        match outcome {
            Ok(Ok((analysis, adjoint))) => {
                if analysis.degraded() {
                    self.counters.degraded.fetch_add(1, Ordering::Relaxed);
                }
                if let Ok(mut agg) = self.stats.lock() {
                    agg.merge(&analysis.stats);
                }
                self.analysis_response(&primal, &analysis, adjoint, level)
            }
            Ok(Err(e)) => match e.kind {
                // The client's program or variable sets are at fault.
                FormadErrorKind::Parse | FormadErrorKind::Validate | FormadErrorKind::Ad => {
                    client_error(400, e.kind.label(), &e.message)
                }
                // Deadline expiry and escaped prover faults degrade:
                // same contract as the pipeline's internal ladder.
                FormadErrorKind::Deadline | FormadErrorKind::ProverPanic => self.fallback_response(
                    &primal,
                    &opts,
                    want_adjoint,
                    emit,
                    &e.message,
                    level.label(),
                ),
            },
            Err(_) => {
                self.counters.panics_caught.fetch_add(1, Ordering::Relaxed);
                self.fallback_response(
                    &primal,
                    &opts,
                    want_adjoint,
                    emit,
                    "panic isolated: request pipeline unwound (cache overlay rolled back)",
                    level.label(),
                )
            }
        }
    }

    fn analysis_response(
        &self,
        primal: &Program,
        analysis: &FormadAnalysis,
        adjoint: Option<String>,
        level: ShedLevel,
    ) -> Response {
        let mut fields = vec![
            ("ok", true.into()),
            ("degraded", analysis.degraded().into()),
            ("fallback", false.into()),
            ("shed_level", level.label().into()),
            ("all_safe", analysis.all_safe().into()),
            ("recovered_panics", analysis.recovered_panics().into()),
            ("report", full_report(&primal.name, analysis).into()),
        ];
        if let Some(adj) = adjoint {
            fields.push(("adjoint", adj.into()));
        }
        fields.push(("stats", stats_json(&analysis.stats)));
        Response::json(200, obj(fields).render())
    }

    /// The always-safe answer: every adjoint increment guarded with
    /// atomics, no prover involved. Used when the ladder sheds, when a
    /// request deadline expires, and when a panic is isolated — HTTP 200
    /// with `degraded: true`, never an error.
    fn fallback_response(
        &self,
        primal: &Program,
        opts: &FormadOptions,
        want_adjoint: bool,
        emit: SourceFlavor,
        reason: &str,
        shed_level: &str,
    ) -> Response {
        self.counters.fallbacks.fetch_add(1, Ordering::Relaxed);
        let adjoint = if want_adjoint {
            let built = catch_unwind(AssertUnwindSafe(|| {
                self.engine
                    .adjoint_with(primal, opts, ParallelTreatment::Uniform(IncMode::Atomic))
            }));
            match built {
                Ok(Ok(p)) => Some(emit.print(&p)),
                Ok(Err(e)) => return client_error(400, e.kind.label(), &e.message),
                Err(_) => {
                    self.counters.panics_caught.fetch_add(1, Ordering::Relaxed);
                    return client_error(400, "panic", "fallback adjoint generation panicked");
                }
            }
        } else {
            None
        };
        self.counters.degraded.fetch_add(1, Ordering::Relaxed);
        let report = format!(
            "subroutine {}: degraded response ({reason})\n  \
             every active adjoint array guarded with atomics (always safe)\n",
            primal.name
        );
        let mut fields = vec![
            ("ok", true.into()),
            ("degraded", true.into()),
            ("fallback", true.into()),
            ("shed_level", shed_level.into()),
            ("degrade_reason", reason.into()),
            ("report", report.into()),
        ];
        if let Some(adj) = adjoint {
            fields.push(("adjoint", adj.into()));
        }
        fields.push(("stats", stats_json(&SolverStats::default())));
        Response::json(200, obj(fields).render())
    }

    // ---- exec ----

    fn exec_request(&self, body: &str) -> Response {
        let req = match Json::parse(body) {
            Ok(v) => v,
            Err(e) => return client_error(400, "parse", &format!("bad JSON: {e}")),
        };
        let Some(source) = req.get("program").and_then(Json::as_str) else {
            return client_error(400, "parse", "`program` (string) is required");
        };
        let primal = match parse_any(source) {
            Ok(p) => p,
            Err(e) => return client_error(400, "parse", &e.to_string()),
        };
        let errs = formad_ir::validate(&primal);
        if !errs.is_empty() {
            let joined: Vec<String> = errs.iter().map(|e| e.to_string()).collect();
            return client_error(400, "validate", &joined.join("; "));
        }
        let seed = req.get("seed").and_then(Json::as_u64).unwrap_or(42);
        let threads = req
            .get("threads")
            .and_then(Json::as_u64)
            .map(|t| (t as usize).clamp(1, self.cfg.exec_threads_max))
            .unwrap_or(1);
        let backend = req.get("backend").and_then(Json::as_str).unwrap_or("sim");
        if !matches!(backend, "sim" | "native" | "aot") {
            return client_error(400, "validate", &format!("unknown backend `{backend}`"));
        }
        let deadline = req
            .get("deadline_ms")
            .and_then(Json::as_u64)
            .or(self.cfg.default_deadline_ms)
            .map(Deadline::in_ms);
        let mut sets: Vec<(String, String)> = Vec::new();
        if let Some(v) = req.get("sets") {
            for (k, val) in v.fields() {
                let raw = match val {
                    Json::Str(s) => s.clone(),
                    Json::Num(_) => val.render(),
                    _ => {
                        return client_error(
                            400,
                            "validate",
                            &format!("`sets.{k}` must be a scalar"),
                        )
                    }
                };
                sets.push((k.clone(), raw));
            }
        }
        let mut bind = match bind_params(&primal, &sets, seed) {
            Ok(b) => b,
            Err(e) => return client_error(400, "validate", &e.to_string()),
        };

        // `exec` cannot be degraded, so it is the one verb that may be
        // asked to retry later.
        let permit = match self.admission.admit(false) {
            Admit::Run(p) => p,
            Admit::Reject { retry_after_ms } => return rejected(retry_after_ms),
            Admit::Shed => unreachable!("non-degradable requests are never shed"),
        };
        if let Some(d) = &deadline {
            if d.expired() {
                drop(permit);
                return deadline_response("global deadline expired before execution started");
            }
        }
        // `aot_fallback` carries the degradation note when an AOT kernel
        // build fails and the request lands on the bytecode backend.
        let outcome = catch_unwind(AssertUnwindSafe(|| match backend {
            "native" | "aot" => {
                self.run_on_parked_engine(&primal, &mut bind, threads, backend == "aot")
            }
            _ => formad_machine::run(&primal, &mut bind, &Machine::with_threads(threads))
                .map(|_| None)
                .map_err(|e| e.to_string()),
        }));
        drop(permit);
        let aot_fallback: Option<String> = match outcome {
            Ok(Ok(reason)) => reason,
            Ok(Err(e)) => return client_error(400, "exec", &e),
            Err(_) => {
                self.counters.panics_caught.fetch_add(1, Ordering::Relaxed);
                return client_error(400, "panic", "execution panicked (isolated)");
            }
        };
        if let Some(d) = &deadline {
            if d.expired() {
                return deadline_response("global deadline expired before execution finished");
            }
        }
        let outputs: Vec<Json> = output_lines(&primal, &bind)
            .into_iter()
            .map(Json::from)
            .collect();
        let mut fields = vec![
            ("ok", true.into()),
            ("program", primal.name.as_str().into()),
            ("backend", backend.into()),
            ("threads", threads.into()),
        ];
        if let Some(reason) = &aot_fallback {
            // Degradation, not errors: still 200, results identical to
            // the requested backend, reason spelled out for the client.
            self.counters.fallbacks.fetch_add(1, Ordering::Relaxed);
            fields.push(("aot_fallback", true.into()));
            fields.push(("aot_fallback_reason", reason.as_str().into()));
        } else if backend == "aot" {
            fields.push(("aot_fallback", false.into()));
        }
        fields.push(("outputs", Json::Arr(outputs)));
        Response::json(200, obj(fields).render())
    }

    /// Climb the backend ladder ([`NativeProgram::compile`]) and run on a
    /// persistent [`NativeEngine`] (one per logical thread count), so
    /// repeated requests reuse parked worker pools. With `aot`, a failed
    /// kernel build degrades to bytecode — `Ok(Some(reason))` — instead
    /// of erroring, mirroring `formad exec --backend aot`.
    fn run_on_parked_engine(
        &self,
        primal: &Program,
        bind: &mut formad_machine::Bindings,
        threads: usize,
        aot: bool,
    ) -> Result<Option<String>, String> {
        let np = NativeProgram::compile(primal, bind, aot).map_err(|e| e.to_string())?;
        let mut engines = self.native.lock().unwrap_or_else(|e| e.into_inner());
        let engine = engines
            .entry(threads)
            .or_insert_with(|| NativeEngine::new(threads));
        engine.run_program(&np, bind).map_err(|e| e.to_string())?;
        Ok(np.aot_fallback)
    }

    // ---- status ----

    fn status_json(&self) -> Json {
        let (running, queued) = self.admission.occupancy();
        let stats = self.stats.lock().map(|s| *s).unwrap_or_default();
        let fp = self.engine.fingerprints().map(|f| f.stats());
        let aot = formad_machine::aot::stats();
        obj(vec![
            ("service", "formad-serve".into()),
            (
                "uptime_ms",
                (self.started.elapsed().as_millis() as u64).into(),
            ),
            (
                "queue",
                obj(vec![
                    ("workers", self.admission.workers().into()),
                    ("capacity", self.admission.capacity().into()),
                    ("running", running.into()),
                    ("queued", queued.into()),
                ]),
            ),
            (
                "requests",
                obj(vec![
                    (
                        "analyze",
                        self.counters.analyze.load(Ordering::Relaxed).into(),
                    ),
                    ("exec", self.counters.exec.load(Ordering::Relaxed).into()),
                    (
                        "status",
                        self.counters.status.load(Ordering::Relaxed).into(),
                    ),
                ]),
            ),
            (
                "responses",
                obj(vec![
                    (
                        "ok_200",
                        self.counters.ok_200.load(Ordering::Relaxed).into(),
                    ),
                    (
                        "client_4xx",
                        self.counters.client_4xx.load(Ordering::Relaxed).into(),
                    ),
                    (
                        "rejected_429",
                        self.counters.rejected_429.load(Ordering::Relaxed).into(),
                    ),
                ]),
            ),
            (
                "shed",
                obj(vec![
                    ("admitted_full", self.admission.admitted_full().into()),
                    ("admitted_reduced", self.admission.admitted_reduced().into()),
                    (
                        "fallbacks",
                        self.counters.fallbacks.load(Ordering::Relaxed).into(),
                    ),
                    ("shed_at_admission", self.admission.shed_fallback().into()),
                    ("rejected", self.admission.rejected().into()),
                ]),
            ),
            (
                "degraded_total",
                self.counters.degraded.load(Ordering::Relaxed).into(),
            ),
            (
                "panics_caught",
                self.counters.panics_caught.load(Ordering::Relaxed).into(),
            ),
            // Always 0: the frozen `benchmark/` package reads
            // `cache.inserts`. It goes with the follow-up `benchmark` PR
            // that drops the `serve.cache_inserts` row.
            ("cache", obj(vec![("inserts", 0u64.into())])),
            // Region fingerprint index: whole decision sets replayed
            // without re-enumerating per-pair queries.
            (
                "fingerprints",
                obj(vec![
                    ("entries", fp.as_ref().map_or(0, |f| f.entries).into()),
                    ("hits", fp.as_ref().map_or(0, |f| f.hits).into()),
                    ("disk_hits", fp.as_ref().map_or(0, |f| f.disk_hits).into()),
                    ("misses", fp.as_ref().map_or(0, |f| f.misses).into()),
                    ("inserts", fp.as_ref().map_or(0, |f| f.inserts).into()),
                    (
                        "write_errors",
                        fp.as_ref().map_or(0, |f| f.write_errors).into(),
                    ),
                ]),
            ),
            // Exec-side analogue of the fingerprint index: the process-wide AOT
            // kernel registry backing `exec` requests with `backend: aot`.
            (
                "aot",
                obj(vec![
                    ("compiles", aot.compiles.into()),
                    ("disk_hits", aot.disk_hits.into()),
                    ("cache_hits", aot.cache_hits.into()),
                    ("failures", aot.failures.into()),
                ]),
            ),
            ("solver", stats_json(&stats)),
        ])
    }
}

// ---- helpers ----

fn base_options(wrt: &[String], of: &[String]) -> FormadOptions {
    let wrt: Vec<&str> = wrt.iter().map(|s| s.as_str()).collect();
    let of: Vec<&str> = of.iter().map(|s| s.as_str()).collect();
    FormadOptions::new(&wrt, &of)
}

/// `"x,y"` or `["x","y"]` → list of names.
fn string_list(req: &Json, key: &str) -> Vec<String> {
    match req.get(key) {
        Some(Json::Str(s)) => s
            .split(',')
            .map(|p| p.trim().to_string())
            .filter(|p| !p.is_empty())
            .collect(),
        Some(Json::Arr(items)) => items
            .iter()
            .filter_map(|v| v.as_str().map(str::to_string))
            .collect(),
        _ => Vec::new(),
    }
}

fn chaos_config(v: &Json) -> Result<ChaosConfig, String> {
    let per_mille = |key: &str| -> Result<u16, String> {
        match v.get(key) {
            None => Ok(0),
            Some(n) => n
                .as_u64()
                .filter(|n| *n <= 1000)
                .map(|n| n as u16)
                .ok_or_else(|| format!("`chaos.{key}` must be 0..=1000")),
        }
    };
    Ok(ChaosConfig {
        seed: v.get("seed").and_then(Json::as_u64).unwrap_or(1),
        panic_per_mille: per_mille("panic_per_mille")?,
        unknown_per_mille: per_mille("unknown_per_mille")?,
        delay_per_mille: per_mille("delay_per_mille")?,
        delay: Duration::from_millis(v.get("delay_ms").and_then(Json::as_u64).unwrap_or(1)),
    })
}

/// The reduced-budget rung of the shed ladder: an eighth of the default
/// work counters, no escalation retries, per-query wall clock capped.
fn shrink_budgets(opts: &mut FormadOptions) {
    let mut budget = SolverBudget::default();
    budget.max_lia_calls /= 8;
    budget.max_branches /= 8;
    opts.region.budget = budget;
    opts.region.max_retries = 0;
    let cap = Duration::from_millis(250);
    opts.region.prover_timeout = Some(opts.region.prover_timeout.map_or(cap, |t| t.min(cap)));
}

fn stats_json(s: &SolverStats) -> Json {
    obj(vec![
        ("checks", s.checks.into()),
        ("assertions_added", s.assertions_added.into()),
        ("lia_calls", s.lia_calls.into()),
        ("branches", s.branches.into()),
        ("unknowns", s.unknowns.into()),
        ("interrupts", s.interrupts.into()),
        ("propagations", s.propagations.into()),
        ("conflicts", s.conflicts.into()),
        ("presolve_discharges", s.presolve_discharges.into()),
        ("presolve_clauses", s.presolve_clauses.into()),
    ])
}

fn client_error(status: u16, kind: &str, message: &str) -> Response {
    Response::json(
        status,
        obj(vec![
            ("ok", false.into()),
            ("kind", kind.into()),
            ("error", message.into()),
        ])
        .render(),
    )
}

fn rejected(retry_after_ms: u64) -> Response {
    Response::json(
        429,
        obj(vec![
            ("ok", false.into()),
            ("kind", "overloaded".into()),
            ("error", "admission queue full; retry later".into()),
            ("retry_after_ms", retry_after_ms.into()),
        ])
        .render(),
    )
    .with_header("retry-after-ms", retry_after_ms.to_string())
}

fn deadline_response(message: &str) -> Response {
    client_error(408, "deadline", message)
}
