//! The resident differentiation service: one shared engine, many
//! requests, degradation-not-errors.
//!
//! Request lifecycle for the analysis verbs (`analyze` / `prove`):
//!
//! 1. Decode the body into a [`Request`] and parse and validate the
//!    program — the field validator and the builders are
//!    [`crate::request`]'s, shared with the CLI. Failures are the
//!    client's (HTTP 400).
//! 2. Pass the admission gate. Saturation *sheds*: the request is
//!    answered immediately with the always-safe atomic discipline (HTTP
//!    200, `degraded: true`) instead of queueing or erroring.
//! 3. Run the pipeline on the shared engine
//!    ([`SharedEngine::differentiate`]) inside `catch_unwind`. Every
//!    definite region it settles lands in the shared fingerprint index,
//!    whatever the request's outcome: a region's verdicts depend on that
//!    region alone (see `formad::fingerprint`). A panic or a
//!    pipeline-level deadline expiry still answers 200 with the atomic
//!    fallback. With a cache directory the new records are flushed to
//!    disk before the reply.
//!
//! `exec` has no cheaper correct answer, so it is the only verb that can
//! be told to come back later (HTTP 429 + `retry_after_ms`) and its
//! deadline expiry is an error (HTTP 408), mirroring `formad exec`'s
//! exit 7. The service never returns a 5xx: every response is either the
//! client's fault (4xx) or a correct — possibly degraded — answer.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use formad::{
    full_report, FormadAnalysis, FormadErrorKind, FormadOptions, IncMode, ParallelTreatment,
    SharedEngine,
};
use formad_ir::Program;
use formad_machine::output_lines;
use formad_smt::{SolverBudget, SolverStats};

use crate::admission::{Admission, Admit, ShedLevel};
use crate::http::{self, Response};
use crate::json::{obj, Json};
use crate::request::{Backend, Engines, Failure, Request, Verb};

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
    /// Durable cache directory. When set, the fingerprint index starts
    /// with the records on disk and flushes new ones after every
    /// analysis request, so warmth survives daemon restarts.
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
    native: Engines,
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
            native: Engines::default(),
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
    pub fn handle(&self, req: &http::Request) -> Response {
        let resp = match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/v1/analyze" | "/v1/prove") => {
                self.counters.analyze.fetch_add(1, Ordering::Relaxed);
                // The one transport difference: `/v1/prove` answers with
                // the adjoint unless the body says `"adjoint": false`,
                // while the CLI's `prove` is `analyze` and prints none.
                let prove = req.path == "/v1/prove";
                self.analysis_request(if prove { Verb::Prove } else { Verb::Analyze }, &req.body)
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

    fn analysis_request(&self, verb: Verb, body: &str) -> Response {
        let decoded = Request::from_json(verb, body, self.cfg.default_deadline_ms)
            .and_then(|req| Ok((req.primal()?, req)));
        let (primal, req) = match decoded {
            Ok(d) => d,
            Err(f) => return failure(f),
        };
        let mut opts = req.options();
        let permit = match self.admission.admit(true) {
            Admit::Run(p) => p,
            Admit::Shed => {
                let reason = "load shed: admission queue saturated";
                return self.fallback_response(&primal, &req, reason, "fallback");
            }
            // Unreachable for degradable work; keep the arm total.
            Admit::Reject { retry_after_ms } => return rejected(retry_after_ms),
        };
        let level = permit.level;
        if level == ShedLevel::Reduced {
            shrink_budgets(&mut opts);
        }

        // Per-request panic isolation: a panic — injected chaos or a
        // genuine bug — degrades the answer instead of killing the daemon.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if req.poison {
                panic!("poisoned request (test hook)");
            }
            if req.adjoint {
                self.engine
                    .differentiate(&primal, &opts)
                    .map(|r| (r.analysis, Some(req.emit.print(&r.adjoint))))
            } else {
                self.engine.analyze(&primal, &opts).map(|a| (a, None))
            }
        }));
        drop(permit);
        self.engine.flush_disk();

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
                // Deadline expiry and escaped prover faults degrade: same
                // contract as the pipeline's internal ladder.
                FormadErrorKind::Deadline | FormadErrorKind::ProverPanic => {
                    self.fallback_response(&primal, &req, &e.message, level.label())
                }
                // The client's program or variable sets are at fault.
                _ => failure(Failure::Pipeline(e)),
            },
            Err(_) => {
                self.counters.panics_caught.fetch_add(1, Ordering::Relaxed);
                let reason = "panic isolated: request pipeline unwound";
                self.fallback_response(&primal, &req, reason, level.label())
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
        req: &Request,
        reason: &str,
        shed_level: &str,
    ) -> Response {
        self.counters.fallbacks.fetch_add(1, Ordering::Relaxed);
        let adjoint = if req.adjoint {
            let built = catch_unwind(AssertUnwindSafe(|| {
                let atomic = ParallelTreatment::Uniform(IncMode::Atomic);
                self.engine.adjoint_with(primal, &req.options(), atomic)
            }));
            match built {
                Ok(Ok(p)) => Some(req.emit.print(&p)),
                Ok(Err(e)) => return failure(Failure::Pipeline(e)),
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
        let decoded = Request::from_json(Verb::Exec, body, self.cfg.default_deadline_ms).and_then(
            |mut req| {
                req.threads = req.threads.min(self.cfg.exec_threads_max);
                let primal = req.primal()?;
                let bind = req.bindings(&primal)?;
                Ok((req, primal, bind))
            },
        );
        let (req, primal, mut bind) = match decoded {
            Ok(d) => d,
            Err(f) => return failure(f),
        };

        // `exec` cannot be degraded, so it is the one verb that may be
        // asked to retry later.
        let permit = match self.admission.admit(false) {
            Admit::Run(p) => p,
            Admit::Reject { retry_after_ms } => return rejected(retry_after_ms),
            Admit::Shed => unreachable!("non-degradable requests are never shed"),
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            req.exec(&primal, &mut bind, &self.native)
        }));
        drop(permit);
        // `aot_fallback` carries the degradation note when an AOT kernel
        // build fails and the request's regions take the interpreter's
        // path.
        let aot_fallback = match outcome {
            Ok(Ok(reason)) => reason,
            Ok(Err(f)) => return failure(f),
            Err(_) => {
                self.counters.panics_caught.fetch_add(1, Ordering::Relaxed);
                return client_error(400, "panic", "execution panicked (isolated)");
            }
        };
        let outputs: Vec<Json> = output_lines(&primal, &bind)
            .into_iter()
            .map(Json::from)
            .collect();
        let mut fields = vec![
            ("ok", true.into()),
            ("program", primal.name.as_str().into()),
            ("backend", req.backend.name().into()),
            ("threads", req.threads.into()),
        ];
        if let Some(reason) = &aot_fallback {
            // Degradation, not errors: still 200, results identical to
            // the requested backend, reason spelled out for the client.
            self.counters.fallbacks.fetch_add(1, Ordering::Relaxed);
            fields.push(("aot_fallback", true.into()));
            fields.push(("aot_fallback_reason", reason.as_str().into()));
        } else if req.backend != Backend::Sim {
            fields.push(("aot_fallback", false.into()));
        }
        fields.push(("outputs", Json::Arr(outputs)));
        Response::json(200, obj(fields).render())
    }

    // ---- status ----

    fn status_json(&self) -> Json {
        let (running, queued) = self.admission.occupancy();
        let stats = self.stats.lock().map(|s| *s).unwrap_or_default();
        let index = self.engine.fingerprints();
        let fp = index.map(|f| f.stats()).unwrap_or_default();
        // Why the cache directory is not trusted, or `null`.
        let refused = index
            .and_then(|f| f.refused())
            .map_or(Json::Null, Json::from);
        let aot = formad_machine::aot::stats();
        let c = &self.counters;
        let n = |counter: &AtomicU64| Json::from(counter.load(Ordering::Relaxed));
        let uptime_ms = self.started.elapsed().as_millis() as u64;
        obj(vec![
            ("service", "formad-serve".into()),
            ("uptime_ms", uptime_ms.into()),
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
                    ("analyze", n(&c.analyze)),
                    ("exec", n(&c.exec)),
                    ("status", n(&c.status)),
                ]),
            ),
            (
                "responses",
                obj(vec![
                    ("ok_200", n(&c.ok_200)),
                    ("client_4xx", n(&c.client_4xx)),
                    ("rejected_429", n(&c.rejected_429)),
                ]),
            ),
            (
                "shed",
                obj(vec![
                    ("admitted_full", self.admission.admitted_full().into()),
                    ("admitted_reduced", self.admission.admitted_reduced().into()),
                    ("fallbacks", n(&c.fallbacks)),
                    ("shed_at_admission", self.admission.shed_fallback().into()),
                    ("rejected", self.admission.rejected().into()),
                ]),
            ),
            ("degraded_total", n(&c.degraded)),
            ("panics_caught", n(&c.panics_caught)),
            // Always 0: the frozen `benchmark/` package reads
            // `cache.inserts`. It goes with the follow-up `benchmark` PR
            // that drops the `serve.cache_inserts` row.
            ("cache", obj(vec![("inserts", 0u64.into())])),
            // Region fingerprint index: whole decision sets replayed
            // without re-enumerating per-pair queries.
            (
                "fingerprints",
                obj(vec![
                    ("entries", fp.entries.into()),
                    ("hits", fp.hits.into()),
                    ("disk_hits", fp.disk_hits.into()),
                    ("misses", fp.misses.into()),
                    ("inserts", fp.inserts.into()),
                    ("write_errors", fp.write_errors.into()),
                    ("refused", refused),
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

/// The reply to a failed request: the client's fault, never a 5xx.
fn failure(f: Failure) -> Response {
    match f {
        Failure::Usage(m) | Failure::Input(m) | Failure::Lower(m) => {
            client_error(400, "validate", &m)
        }
        Failure::Invalid(errs) => client_error(400, "validate", &errs.join("; ")),
        Failure::Parse(m) => client_error(400, "parse", &m),
        Failure::Exec(m) => client_error(400, "exec", &m),
        Failure::Pipeline(e) if e.kind == FormadErrorKind::Deadline => {
            client_error(408, "deadline", &e.message)
        }
        Failure::Pipeline(e) => client_error(400, e.kind.label(), &e.message),
    }
}
