//! Per-parallel-region analysis: knowledge extraction (§5, phase 1) and
//! knowledge exploitation (§5, phase 2).
//!
//! **Extraction.** The primal parallel loop is assumed correctly
//! parallelized, so for every pair of references to one array — at least
//! one a write — the index tuples are disjoint across distinct iterations.
//! Each such pair becomes an assertion `primed(w) ≠ e` in the knowledge
//! base, attached to the innermost of the two references' contexts. After
//! each context's model is assembled it is checked satisfiable, mirroring
//! the `assert(model.check() == SAT)` safeguard of the paper's
//! `buildModel`: an unsatisfiable knowledge base means the primal has a
//! data race (or FormAD has a bug), and the whole region is demoted to
//! guarded mode with a warning.
//!
//! **Exploitation.** For every active shared array the adjoint will
//! touch, the candidate conflict pairs of its *adjoint* references are
//! derived from the primal references (reads become increments, plain
//! writes become read-then-zero, exact-increment writes become pure reads
//! — §5.4). A pair is safe when asserting equality of its primed/unprimed
//! index tuples is UNSAT under the knowledge usable at the pair's common
//! context root. All pairs safe ⇒ the adjoint array is declared `shared`
//! with no atomics.
//!
//! **Degradation ladder.** The prover is treated like a fallible service:
//! each per-array proof attempt is panic-isolated (`catch_unwind`), runs
//! under the configured budget/deadline, and on `Unknown(Budget)` is
//! retried with an escalated budget. Any failure mode — budget, deadline,
//! cancellation, or a prover panic — degrades *that array* to `Guarded`
//! (atomics stay in place) and records why; it never aborts the analysis
//! and never produces an unsound `Shared`.

use std::cell::OnceCell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use formad_ad::{plan_transpose, ObligationPair, Obligations, RegionWrites};
use formad_analysis::{
    collect_refs, AccessKind, Activity, ArrayRef, Cfg, Contexts, CtxId, IncRole, Instances, NodeId,
};
use formad_ir::{count_stmts, Expr, ForLoop, Name, Program, Stmt, Ty};
use formad_smt::{
    Assertion, CancelToken, ChaosConfig, ChaosSolver, Deadline, FxHashMap, FxHashSet, LinExpr,
    Literal, Rel, SatResult, SearchCore, Solver, SolverApi, SolverBudget, SolverStats, StopReason,
};

use crate::trace::{QueryPerf, TraceEvent, TraceSink};
use crate::translate::{Side, Taint, Translator};

/// Decision for one adjoint array in one region.
#[derive(Debug, Clone, PartialEq)]
pub enum Decision {
    /// All candidate conflicts proven absent: plain shared increments.
    Shared,
    /// The scatter conflicts across iterations, but the access map is
    /// invertible and the gather-disjointness obligation was proved: the
    /// adjoint scatter is transposed into a gather over owned elements
    /// (Hückelheim et al., arXiv 1907.02818) with plain increments. The
    /// payload summarizes the inversion and the proved obligations.
    Transposed(String),
    /// At least one pair not provably disjoint: guard with atomics (or
    /// privatize). The payload explains why.
    Guarded(String),
}

/// How a per-array decision was reached — the rung of the degradation
/// ladder the analysis ended on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Every candidate conflict was proven absent (UNSAT).
    Proved,
    /// A definite obstruction: a satisfiable conflict pair, an
    /// untranslatable index, or a suspected primal race.
    Refuted,
    /// The work budget ran out on every attempt of the retry ladder.
    BudgetExhausted,
    /// The wall-clock deadline (or a cancellation) cut the proof short;
    /// escalating the budget cannot help, so no retry was made.
    TimedOut,
    /// The prover panicked; the analysis recovered by keeping safeguards.
    Recovered,
}

impl Provenance {
    /// Short tag for reports.
    pub fn tag(&self) -> &'static str {
        match self {
            Provenance::Proved => "proved",
            Provenance::Refuted => "refuted",
            Provenance::BudgetExhausted => "budget-exhausted",
            Provenance::TimedOut => "timed-out",
            Provenance::Recovered => "recovered",
        }
    }
}

/// Analysis output for one parallel region (one row of Table 1).
#[derive(Debug)]
pub struct RegionAnalysis {
    /// Pre-order region index.
    pub region: usize,
    /// Parallel loop counter.
    pub loop_var: String,
    /// Statements inside the region (the paper's `loc` column).
    pub loc: usize,
    /// Assertions in the knowledge model including the root `i ≠ i'`
    /// (the paper's "Z3 size" column, `1 + e²` in the benchmarks).
    pub model_size: usize,
    /// Distinct index-expression tuples entering the model (the paper's
    /// `exprs` column).
    pub unique_exprs: usize,
    /// Theorem-prover checks issued (the paper's `queries` column).
    pub queries: u64,
    /// Wall time of the analysis.
    pub time: Duration,
    /// Per-array decisions for adjoint increments.
    pub decisions: HashMap<String, Decision>,
    /// How each decision was reached (same keys as `decisions`).
    pub provenance: HashMap<String, Provenance>,
    /// Diagnostics (possible primal races, unguardable overwrites).
    pub warnings: Vec<String>,
    /// Rendered write-set expressions proven disjoint (for §7.3-style
    /// reporting).
    pub safe_write_exprs: Vec<String>,
    /// First rejected adjoint expression per guarded array.
    pub rejected_exprs: Vec<String>,
    /// Prover statistics accumulated over the region (all attempts).
    pub stats: SolverStats,
    /// Prover panics caught and recovered from during this region.
    pub recovered_panics: u64,
}

impl RegionAnalysis {
    /// True if any array was degraded for a resource/fault reason rather
    /// than a definite refutation.
    pub fn degraded(&self) -> bool {
        self.provenance.values().any(|p| {
            matches!(
                p,
                Provenance::BudgetExhausted | Provenance::TimedOut | Provenance::Recovered
            )
        })
    }
}

/// Tunables for the region analysis.
#[derive(Debug, Clone)]
pub struct RegionOptions {
    /// Add `i = lo + step·k ∧ i' = lo + step·k' ∧ k ≠ k'` root assertions
    /// encoding the loop's stride (needed for stride-2 loops when the
    /// write-set knowledge alone is insufficient).
    pub stride_constraints: bool,
    /// Use control contexts (§5.1). Disabling is an ablation: all facts
    /// land at the root context only if their references are root-context.
    pub use_contexts: bool,
    /// Use exact-increment detection (§5.4). Disabling is an ablation:
    /// increment writes are treated like plain writes.
    pub use_increment_detection: bool,
    /// Solver budget for the first (cheap) proof attempt per array.
    pub budget: SolverBudget,
    /// Additional attempts after an `Unknown(Budget)`, each multiplying
    /// the counter budgets by `escalation_factor`.
    pub max_retries: u32,
    /// Budget multiplier per retry rung.
    pub escalation_factor: u64,
    /// Wall-clock allowance per prover `check()` (`None` = unbounded).
    pub prover_timeout: Option<Duration>,
    /// Cooperative cancellation observed by every prover call.
    pub cancel: Option<CancelToken>,
    /// Fault injection for robustness tests: wraps the prover in a
    /// `ChaosSolver` (seed offset by region index).
    pub chaos: Option<ChaosConfig>,
    /// Read by nothing: proving is in-line on the region's one solver. The
    /// field stays only because the frozen `benchmark/src/pipeline.rs`
    /// assigns it; it goes with ROADMAP item 10's benchmark PR.
    pub jobs: usize,
    /// Hard wall-clock deadline for the whole analysis. Unlike
    /// `prover_timeout` (whose expiry *degrades* the affected arrays and
    /// still exits 0), an expired global deadline makes the pipeline fail
    /// with [`crate::FormadErrorKind::Deadline`]. The deadline is also
    /// threaded into every prover so in-flight proofs stop promptly.
    pub deadline: Option<Deadline>,
    /// Structured event sink (see [`crate::trace`]). `None` — the default
    /// — records nothing and costs one branch per instrumentation site;
    /// `Some` collects a deterministic proof trace (events are recorded as
    /// they happen, in candidate order).
    pub trace: Option<TraceSink>,
    /// Which SMT search path answers the per-array queries: `Presolved`
    /// (the default) or `Flat`, the presolve-free splitter that tests
    /// select as a differential oracle. Verdicts and reports are
    /// identical for both.
    pub search_core: SearchCore,
    /// Region-level fingerprint → verdict-set index (see
    /// [`crate::fingerprint`]). `None` — the default — analyzes every
    /// region from scratch; `Some` lets the pipeline serve unchanged
    /// regions' entire decision sets without re-enumerating queries, and
    /// records definite outcomes for future runs. Ignored while `chaos`
    /// is configured (fault-injected outcomes must not be replayed, and
    /// chaos runs must exercise the prover).
    pub fingerprints: Option<crate::fingerprint::FingerprintIndex>,
}

impl Default for RegionOptions {
    fn default() -> Self {
        RegionOptions {
            stride_constraints: true,
            use_contexts: true,
            use_increment_detection: true,
            budget: SolverBudget::default(),
            max_retries: 2,
            escalation_factor: 8,
            prover_timeout: None,
            cancel: None,
            chaos: None,
            jobs: 1,
            deadline: None,
            trace: None,
            search_core: SearchCore::Presolved,
            fingerprints: None,
        }
    }
}

/// One translated reference: its index tuple, kept as the IR expressions
/// and the node whose instance numbering names their scalars.
struct TrRef<'r> {
    exprs: &'r [Expr],
    node: NodeId,
    /// The tuple as reports print it; one-to-one with what the prover is
    /// given, so it also identifies the tuple.
    text: String,
    ctx: CtxId,
    kind: AccessKind,
    inc: IncRole,
}

impl<'r> TrRef<'r> {
    /// This tuple as one side of a pair.
    fn side(&self, primed: bool) -> Side<'r> {
        Side::new(self.exprs, self.node, primed)
    }
}

/// Analyze one parallel region of `prog`.
pub fn analyze_region(
    prog: &Program,
    l: &ForLoop,
    region: usize,
    activity: &Activity,
    opts: &RegionOptions,
) -> RegionAnalysis {
    match &opts.chaos {
        Some(cfg) => {
            let mut cfg = cfg.clone();
            cfg.seed = cfg.seed.wrapping_add(region as u64);
            let mut solver = ChaosSolver::new(cfg);
            analyze_region_with(prog, l, region, activity, opts, &mut solver)
        }
        None => {
            let mut solver = Solver::new();
            analyze_region_with(prog, l, region, activity, opts, &mut solver)
        }
    }
}

/// [`analyze_region`] against a caller-provided prover (the real
/// [`Solver`] or a fault-injecting [`ChaosSolver`]).
///
/// Both phases run on the calling thread against `solver`, the paper's
/// one solver per parallel loop driven by `push` / `pop` (`testVar`, §5):
/// phase 1 extracts the knowledge and checks it satisfiable per context,
/// phase 2 walks the candidate arrays in sorted order and decides each
/// where it is met.
pub fn analyze_region_with<S: SolverApi>(
    prog: &Program,
    l: &ForLoop,
    region: usize,
    activity: &Activity,
    opts: &RegionOptions,
    solver: &mut S,
) -> RegionAnalysis {
    let started = Instant::now();
    let cfg = Cfg::build(&l.body);
    let contexts = Contexts::build(&cfg);
    let instances = Instances::analyze(&cfg);
    let refs = collect_refs(&cfg);
    let info = l.parallel.as_ref().expect("parallel region");

    solver.set_budget(opts.budget);
    solver.set_search_core(opts.search_core);
    solver.set_timeout(opts.prover_timeout);
    if let Some(token) = &opts.cancel {
        solver.set_cancel_token(token.clone());
    }
    if let Some(d) = opts.deadline {
        solver.set_deadline(d);
    }

    let sink = opts.trace.as_ref();
    if let Some(s) = sink {
        s.record(TraceEvent::RegionBegin {
            region,
            loop_var: l.var.to_string(),
            loc: count_stmts(&l.body),
        });
    }

    let mut out = RegionAnalysis {
        region,
        loop_var: l.var.to_string(),
        loc: count_stmts(&l.body),
        model_size: 0,
        unique_exprs: 0,
        queries: 0,
        time: Duration::ZERO,
        decisions: HashMap::new(),
        provenance: HashMap::new(),
        warnings: Vec::new(),
        safe_write_exprs: Vec::new(),
        rejected_exprs: Vec::new(),
        stats: SolverStats::default(),
        recovered_panics: 0,
    };

    // Written arrays and privatized scalars.
    let written_arrays: FxHashSet<Name> = refs
        .iter()
        .filter(|r| r.kind == AccessKind::Write)
        .map(|r| r.array.clone())
        .collect();
    let mut privatized: FxHashSet<Name> = info.private.iter().cloned().collect();
    privatized.extend(info.reductions.iter().map(|(_, v)| v.clone()));
    for s in &l.body {
        s.walk(&mut |st| match st {
            Stmt::Assign {
                lhs: formad_ir::LValue::Var(v),
                ..
            } => {
                privatized.insert(v.clone());
            }
            Stmt::For(inner) => {
                privatized.insert(inner.var.clone());
            }
            _ => {}
        });
    }

    let tr = Translator {
        instances: &instances,
        counter: &l.var,
        written_arrays: &written_arrays,
        privatized: &privatized,
    };

    // Translate all references once; remember taints per array.
    let mut by_array: FxHashMap<&str, Vec<TrRef>> = FxHashMap::default();
    let mut tainted_arrays: FxHashMap<&str, String> = FxHashMap::default();
    for r in &refs {
        let ctx = contexts.ctx_of[r.node];
        let ctx = if opts.use_contexts {
            ctx
        } else {
            contexts.root
        };
        let inc = if opts.use_increment_detection {
            r.inc
        } else {
            IncRole::None
        };
        match tr.check_tuple(&r.indices) {
            Ok(()) => {
                by_array.entry(&r.array).or_default().push(TrRef {
                    exprs: &r.indices,
                    node: r.node,
                    text: tr.render(&r.indices, r.node, false),
                    ctx,
                    kind: r.kind,
                    inc,
                });
            }
            Err(taint) => {
                tainted_arrays
                    .entry(&r.array)
                    .or_insert_with(|| taint_msg(&taint, r));
            }
        }
    }

    // ------------------------------------------------------------------
    // Root assertions.
    // ------------------------------------------------------------------
    let counter = solver.table_mut().scalar((&l.var).into(), 0, false);
    let counter_p = solver.table_mut().scalar((&l.var).into(), 0, true);
    // Roots and facts are built once; re-asserting one is a
    // reference-count bump, not a copy.
    let ne = Literal::ne(counter.clone(), counter_p.clone());
    let mut roots: Vec<Assertion> = vec![Assertion::all(vec![ne])];
    out.model_size += 1;
    if opts.stride_constraints {
        if let Some(fs) = stride_roots(&tr, l, &counter, &counter_p, solver.table_mut()) {
            roots.extend(fs);
        }
    }

    // ------------------------------------------------------------------
    // Knowledge extraction (phase 1).
    // ------------------------------------------------------------------
    // Facts: (site context, clause). Expressions dedup'd per array.
    // `fact_keys` remembers which `(site, primed(w) ≠ e)` facts exist
    // verbatim, so phase 2 can skip queries they contradict directly.
    // Tuples are keyed by their rendering (one-to-one with the IR tuple
    // and its instances), borrowed from `by_array`.
    let mut facts: Vec<(CtxId, Assertion)> = Vec::new();
    let mut fact_keys: FactKeys<'_> = FxHashSet::default();
    let mut expr_set: FxHashSet<&str> = FxHashSet::default();
    for (array, trefs) in &by_array {
        if tainted_arrays.contains_key(array) {
            continue;
        }
        let has_write = trefs.iter().any(|r| r.kind == AccessKind::Write);
        if !has_write {
            continue;
        }
        // Unique (tuple, ctx) for writes and for all refs.
        let writes = dedup_refs(trefs.iter().filter(|r| r.kind == AccessKind::Write));
        let all = dedup_refs(trefs.iter());
        // Every write meets every entry: rows are kept per tuple.
        let mut all_sides: Vec<Side<'_>> = all.iter().map(|(e, _)| e.side(false)).collect();
        for &(w, w_ctx) in &writes {
            expr_set.insert(&w.text);
            out.safe_write_exprs.push(w.text.clone());
            let mut wp = w.side(true);
            for (&(e, e_ctx), e_side) in all.iter().zip(&mut all_sides) {
                expr_set.insert(&e.text);
                let Some(site) = contexts.knowledge_site(w_ctx, e_ctx) else {
                    continue;
                };
                match tr.pair(Rel::Ne, &mut wp, e_side, solver.table_mut()) {
                    Ok(fact) => {
                        fact_keys.insert((site, &w.text, &e.text));
                        facts.push((site, fact));
                        out.model_size += 1;
                    }
                    Err(e) => out
                        .warnings
                        .push(format!("knowledge normalization failed: {e}")),
                }
            }
        }
    }
    out.safe_write_exprs.sort();
    out.safe_write_exprs.dedup();
    out.unique_exprs = expr_set.len();
    let mut phase_mark = Instant::now();
    if let Some(s) = sink {
        s.record(TraceEvent::Model {
            region,
            model_size: out.model_size,
            unique_exprs: out.unique_exprs,
            roots: roots.len(),
            facts: facts.len(),
        });
        s.record(TraceEvent::Phase {
            id: format!("r{region}/phase/extract"),
            dur_us: started.elapsed().as_micros() as u64,
        });
    }

    // buildModel satisfiability safeguard, per context (paper §5.5). A
    // prover panic here is recovered and treated like a suspected race:
    // the whole region keeps its safeguards.
    let mut race_detected = false;
    let mut race_provenance = Provenance::Refuted;
    for c in (0..contexts.count).map(|k| CtxId(k as u32)) {
        let checked = catch_unwind(AssertUnwindSafe(|| {
            solver.push();
            for f in &roots {
                solver.assert(f);
            }
            for (site, f) in &facts {
                if contexts.included(c, *site) {
                    solver.assert(f);
                }
            }
            let r = solver.check();
            solver.pop();
            r
        }));
        if let Some(s) = sink {
            s.record(TraceEvent::RaceCheck {
                region,
                ctx: c.0 as usize,
                verdict: match &checked {
                    Ok(r) => verdict_str(r),
                    Err(_) => "panicked".to_string(),
                },
            });
        }
        match checked {
            Ok(SatResult::Unsat) => {
                race_detected = true;
                out.warnings.push(format!(
                    "knowledge base for context {c:?} is unsatisfiable: the primal \
                     parallel loop over `{}` appears to contain a data race",
                    l.var
                ));
                break;
            }
            Ok(_) => {}
            Err(_) => {
                solver.reset_to_base();
                out.recovered_panics += 1;
                race_detected = true;
                race_provenance = Provenance::Recovered;
                out.warnings.push(format!(
                    "prover panicked while validating the knowledge model of \
                     context {c:?}; keeping every safeguard in the region"
                ));
                break;
            }
        }
    }
    if let Some(s) = sink {
        s.record(TraceEvent::Phase {
            id: format!("r{region}/phase/validate"),
            dur_us: phase_mark.elapsed().as_micros() as u64,
        });
        phase_mark = Instant::now();
    }

    // ------------------------------------------------------------------
    // Knowledge exploitation (phase 2).
    // ------------------------------------------------------------------
    // Candidate arrays: active real shared arrays referenced in the region
    // (including arrays whose every reference failed to translate).
    let mut candidates: Vec<&str> = refs.iter().map(|r| r.array.as_str()).collect();
    candidates.sort_unstable();
    candidates.dedup();
    static EMPTY: Vec<TrRef> = Vec::new();
    // The transposition plan is only read when an array's shared proof
    // finds a conflict, so it is built there; the body scan it starts
    // from is the same for every array of the region.
    let region_writes: OnceCell<RegionWrites> = OnceCell::new();
    let plan_transposed = |array: &str| {
        let writes = region_writes.get_or_init(|| RegionWrites::scan(l));
        transpose_queries(prog, l, writes, array, activity, &tr)
    };
    for &array in &candidates {
        let trefs = by_array.get(array).unwrap_or(&EMPTY);
        if prog.ty_of(array) != Some(Ty::Real) {
            continue;
        }
        if !activity.is_active(array) || info.is_privatized(array) {
            continue;
        }
        if race_detected {
            let d = Decision::Guarded("primal race suspected; all safeguards kept".into());
            settle(&mut out, sink, array, d, race_provenance);
            continue;
        }
        if let Some(reason) = tainted_arrays.get(array) {
            let d = Decision::Guarded(reason.clone());
            settle(&mut out, sink, array, d, Provenance::Refuted);
            continue;
        }
        // Adjoint reference sets derived from the primal ones (§5.4).
        let mut q_writes: Vec<(&TrRef<'_>, CtxId, bool)> = Vec::new(); // bool: from overwrite
        let mut q_reads: Vec<(&TrRef<'_>, CtxId)> = Vec::new();
        for r in trefs {
            match (r.kind, r.inc) {
                // Primal read → adjoint increment (write).
                (AccessKind::Read, IncRole::None) => {
                    q_writes.push((r, r.ctx, false));
                }
                // Self-read of an exact increment: covered by the write.
                (AccessKind::Read, IncRole::IncrementRead) => {}
                (AccessKind::Read, IncRole::IncrementWrite) => unreachable!(),
                // Plain overwrite → adjoint reads then zeroes.
                (AccessKind::Write, IncRole::None) => {
                    q_writes.push((r, r.ctx, true));
                }
                // Exact increment → adjoint only reads (§5.4).
                (AccessKind::Write, IncRole::IncrementWrite) => {
                    q_reads.push((r, r.ctx));
                }
                (AccessKind::Write, IncRole::IncrementRead) => unreachable!(),
            }
        }
        dedup(&mut q_writes, |&(r, c, o)| (r.text.as_str(), c, o));
        let mut q_all: Vec<(&TrRef<'_>, CtxId)> = q_writes
            .iter()
            .map(|&(r, c, _)| (r, c))
            .chain(q_reads)
            .collect();
        dedup(&mut q_all, |&(r, c)| (r.text.as_str(), c));

        if q_writes.is_empty() {
            // Adjoint only reads this array: trivially shared.
            settle(&mut out, sink, array, Decision::Shared, Provenance::Proved);
            continue;
        }

        let task = ProofTask {
            array,
            region,
            q_writes,
            q_all,
        };
        let outcome = run_proof_task(
            &task,
            solver,
            &roots,
            &facts,
            &fact_keys,
            &contexts,
            &tr,
            &plan_transposed,
            &out.safe_write_exprs,
            opts,
        );
        settle(&mut out, sink, array, outcome.decision, outcome.provenance);
        out.rejected_exprs.extend(outcome.rejected);
        out.warnings.extend(outcome.warnings);
        out.recovered_panics += outcome.recovered_panics;
    }
    // The retry ladder escalates the budget on the caller's solver.
    solver.set_budget(opts.budget);

    out.stats = solver.stats();
    out.queries = out.stats.checks;
    out.time = started.elapsed();
    if let Some(s) = sink {
        s.record(TraceEvent::Phase {
            id: format!("r{region}/phase/prove"),
            dur_us: phase_mark.elapsed().as_micros() as u64,
        });
        s.record(TraceEvent::RegionEnd {
            region,
            queries: out.queries,
            warnings: out.warnings.len(),
            dur_us: out.time.as_micros() as u64,
        });
    }
    out
}

/// Record one array's decision in the region's output and its trace.
fn settle(
    out: &mut RegionAnalysis,
    sink: Option<&TraceSink>,
    array: &str,
    d: Decision,
    p: Provenance,
) {
    if let Some(s) = sink {
        s.record(decision_event(out.region, array, &d, p));
    }
    out.decisions.insert(array.to_string(), d);
    out.provenance.insert(array.to_string(), p);
}

/// Render a per-array decision as a trace event.
pub(crate) fn decision_event(
    region: usize,
    array: &str,
    d: &Decision,
    p: Provenance,
) -> TraceEvent {
    let (decision, reason) = match d {
        Decision::Shared => ("shared".to_string(), String::new()),
        Decision::Transposed(r) => ("transposed".to_string(), r.clone()),
        Decision::Guarded(r) => ("guarded".to_string(), r.clone()),
    };
    TraceEvent::Decision {
        region,
        array: array.to_string(),
        decision,
        provenance: p.tag().to_string(),
        reason,
    }
}

/// Uniform rendering of a prover verdict in trace events.
fn verdict_str(r: &SatResult) -> String {
    match r {
        SatResult::Sat => "sat".to_string(),
        SatResult::Unsat => "unsat".to_string(),
        SatResult::Unknown(reason) => format!("unknown: {reason}"),
    }
}

/// The gather-disjointness obligations of a transposed-scatter plan,
/// with every index translatable (every index is loop-invariant apart
/// from the counter, so the entry node's instance numbering applies).
/// `None` whenever the scatter map is not invertible
/// or some obligation index does not translate — the array then stays on
/// the ordinary guard ladder.
struct TransposeQueries {
    /// Cross-iteration pairs `(seed-read tuple, finalizing-write tuple)`:
    /// the gather's seed reads must be disjoint from every other thread's
    /// finalizing writes, i.e. `seed = primed(write)` must be UNSAT under
    /// the roots and the root-usable knowledge facts.
    cross: Vec<ObligationPair>,
    /// Same-iteration pairs: a seed value read by the gather must not be
    /// overwritten by a *later* finalization of the same iteration, i.e.
    /// `seed = write` (both unprimed) must be UNSAT with no assumptions.
    same: Vec<ObligationPair>,
    /// Scatter increments folded into gather loops (for the report).
    contributions: usize,
    /// Gather loops the emission will produce (for the report).
    gather_loops: usize,
}

/// Build the transpose obligations for one candidate array, or `None`
/// when the region's scatter into its adjoint cannot be inverted.
fn transpose_queries(
    prog: &Program,
    l: &ForLoop,
    writes: &RegionWrites,
    array: &str,
    activity: &Activity,
    tr: &Translator<'_>,
) -> Option<TransposeQueries> {
    let plan = plan_transpose(prog, l, writes, array, "b", &|n| activity.is_active(n)).ok()?;
    let Obligations {
        cross_iter,
        same_iter,
    } = plan.obligations();
    let translatable = |pairs: &[ObligationPair]| {
        pairs
            .iter()
            .all(|p| tr.check_tuple(&p.seed).is_ok() && tr.check_tuple(&p.write).is_ok())
    };
    if !translatable(&cross_iter) || !translatable(&same_iter) {
        return None;
    }
    Some(TransposeQueries {
        cross: cross_iter,
        same: same_iter,
        contributions: plan.contributions,
        gather_loops: plan.gather_loop_count(),
    })
}

/// One candidate array whose adjoint conflict pairs need proving.
struct ProofTask<'a> {
    array: &'a str,
    region: usize,
    q_writes: Vec<(&'a TrRef<'a>, CtxId, bool)>,
    q_all: Vec<(&'a TrRef<'a>, CtxId)>,
}

/// The `(site, w, e)` triples for which the fact `primed(w) ≠ e` is in
/// the knowledge base verbatim.
type FactKeys<'a> = FxHashSet<(CtxId, &'a str, &'a str)>;

/// What a proof task decided and what it has to add to the region's
/// output.
struct ArrayOutcome {
    decision: Decision,
    provenance: Provenance,
    rejected: Option<String>,
    warnings: Vec<String>,
    recovered_panics: u64,
}

/// Per-task trace state: the region's sink plus the sequence counters
/// that keep span ids unique across retry attempts.
struct TaskTracer<'a> {
    sink: &'a TraceSink,
    region: usize,
    array: String,
    attempt: u32,
    qseq: usize,
    sseq: usize,
}

/// Run the escalating-budget retry ladder for one array on the region's
/// solver. This is the panic-isolated unit of work: the cheap pass runs
/// first and only `Unknown(Budget)` outcomes are re-proven with larger
/// counters. A deadline/cancellation trip is final (a bigger budget
/// cannot beat the clock), and a panic consumes the attempt but leaves
/// the solver balanced for the next array via `reset_to_base`.
#[allow(clippy::too_many_arguments)]
fn run_proof_task<S: SolverApi>(
    task: &ProofTask<'_>,
    solver: &mut S,
    roots: &[Assertion],
    facts: &[(CtxId, Assertion)],
    fact_keys: &FactKeys<'_>,
    contexts: &Contexts,
    tr: &Translator<'_>,
    plan_transposed: &dyn Fn(&str) -> Option<TransposeQueries>,
    safe_write_exprs: &[String],
    opts: &RegionOptions,
) -> ArrayOutcome {
    let array = task.array;
    let mut tracer = opts.trace.as_ref().map(|sink| {
        sink.record(TraceEvent::ArrayBegin {
            region: task.region,
            array: array.to_string(),
            writes: task.q_writes.len(),
            entries: task.q_all.len(),
        });
        TaskTracer {
            sink,
            region: task.region,
            array: array.to_string(),
            attempt: 0,
            qseq: 0,
            sseq: 0,
        }
    });
    let mut budget = opts.budget;
    let mut panics_here = 0u32;
    let mut last_failure = StopReason::Budget;
    let mut settled: Option<(Decision, Provenance)> = None;
    let mut rejected = None;
    let mut warnings = Vec::new();
    for attempt in 0..=opts.max_retries {
        if attempt > 0 {
            budget = SolverBudget {
                max_lia_calls: budget.max_lia_calls.saturating_mul(opts.escalation_factor),
                max_branches: budget.max_branches.saturating_mul(opts.escalation_factor),
                ..budget
            };
        }
        solver.set_budget(budget);
        if let Some(t) = tracer.as_mut() {
            t.attempt = attempt;
        }
        let proof = catch_unwind(AssertUnwindSafe(|| {
            prove_array(
                &mut *solver,
                roots,
                facts,
                fact_keys,
                contexts,
                tr,
                &task.q_writes,
                &task.q_all,
                safe_write_exprs,
                &mut tracer,
            )
        }));
        if let Some(t) = tracer.as_mut() {
            t.sink.record(TraceEvent::Attempt {
                region: t.region,
                array: t.array.clone(),
                attempt,
                max_lia_calls: budget.max_lia_calls,
                max_branches: budget.max_branches,
                outcome: match &proof {
                    Err(_) => "panicked".to_string(),
                    Ok(ArrayProof::Safe) => "safe".to_string(),
                    Ok(ArrayProof::Conflict { .. }) => "conflict".to_string(),
                    Ok(ArrayProof::NormalizationFailed(_)) => "normalization-failed".to_string(),
                    Ok(ArrayProof::Unknown(reason)) => format!("unknown: {reason}"),
                },
            });
        }
        match proof {
            Err(_) => {
                solver.reset_to_base();
                panics_here += 1;
                last_failure = StopReason::Panicked;
            }
            Ok(ArrayProof::Safe) => {
                settled = Some((Decision::Shared, Provenance::Proved));
                break;
            }
            Ok(ArrayProof::Conflict {
                rejected: r,
                verdict,
                overwrite_warning,
            }) => {
                // The scatter provably conflicts across threads. Before
                // settling for atomics, try the transposed discipline: if
                // the scatter map inverted into a gather and every
                // gather-disjointness obligation is UNSAT, plain
                // increments over owned elements are safe.
                let mut transposed: Option<Decision> = None;
                if let Some(tq) = &plan_transposed(array) {
                    let proof = catch_unwind(AssertUnwindSafe(|| {
                        prove_transpose(&mut *solver, roots, facts, contexts, tr, tq, &mut tracer)
                    }));
                    match proof {
                        Ok(true) => {
                            transposed = Some(Decision::Transposed(format!(
                                "scatter inverted to gather ({} increments into {} gather \
                                 loop{}); {} disjointness obligations proved",
                                tq.contributions,
                                tq.gather_loops,
                                if tq.gather_loops == 1 { "" } else { "s" },
                                tq.cross.len() + tq.same.len(),
                            )));
                        }
                        Ok(false) => {}
                        Err(_) => {
                            solver.reset_to_base();
                            panics_here += 1;
                        }
                    }
                }
                match transposed {
                    Some(d) => settled = Some((d, Provenance::Proved)),
                    None => {
                        rejected = Some(r);
                        if let Some(w) = overwrite_warning {
                            warnings.push(w);
                        }
                        settled = Some((verdict, Provenance::Refuted));
                    }
                }
                break;
            }
            Ok(ArrayProof::NormalizationFailed(msg)) => {
                settled = Some((Decision::Guarded(msg), Provenance::Refuted));
                break;
            }
            Ok(ArrayProof::Unknown(reason)) => {
                last_failure = reason;
                if matches!(reason, StopReason::Deadline | StopReason::Cancelled) {
                    break;
                }
            }
        }
    }
    if panics_here > 0 {
        warnings.push(format!(
            "prover panicked {panics_here}× while analyzing adjoint of \
             `{array}`; recovered"
        ));
    }
    let (decision, provenance) = settled.unwrap_or_else(|| match last_failure {
        StopReason::Deadline | StopReason::Cancelled => (
            Decision::Guarded(format!(
                "prover {last_failure} before a verdict; atomics kept"
            )),
            Provenance::TimedOut,
        ),
        StopReason::Panicked => (
            Decision::Guarded("prover panicked on every attempt; atomics kept".to_string()),
            Provenance::Recovered,
        ),
        StopReason::Budget => (
            Decision::Guarded(format!(
                "budget exhausted after {} attempts; atomics kept",
                opts.max_retries + 1
            )),
            Provenance::BudgetExhausted,
        ),
    });
    ArrayOutcome {
        decision,
        provenance,
        rejected,
        warnings,
        recovered_panics: u64::from(panics_here),
    }
}

/// Prove every gather-disjointness obligation of a transposed-scatter
/// plan. Returns `true` only when each obligation's equality query is
/// UNSAT; any `Sat`, `Unknown`, or normalization failure rejects the
/// transposition (fail-safe: atomics stay). Leaves the solver balanced.
///
/// Cross-iteration obligations run under the region roots plus the
/// knowledge facts usable at the root context (every obligation tuple
/// comes from a top-level statement); same-iteration obligations must be
/// unsatisfiable outright — both sides belong to one thread, so no
/// disjointness knowledge applies.
fn prove_transpose<S: SolverApi>(
    solver: &mut S,
    roots: &[Assertion],
    facts: &[(CtxId, Assertion)],
    contexts: &Contexts,
    tr: &Translator<'_>,
    tq: &TransposeQueries,
    tracer: &mut Option<TaskTracer<'_>>,
) -> bool {
    let entry = formad_analysis::ENTRY;
    // `seed = write`, the write primed for a cross-iteration obligation.
    let check_pair = |solver: &mut S,
                      p: &ObligationPair,
                      cross: bool,
                      tracer: &mut Option<TaskTracer<'_>>|
     -> bool {
        let mut seed = Side::new(&p.seed, entry, false);
        let mut other = Side::new(&p.write, entry, cross);
        let Ok(q) = tr.pair(Rel::Eq, &mut seed, &mut other, solver.table_mut()) else {
            return false;
        };
        solver.push();
        solver.assert(&q);
        let before = tracer.as_ref().map(|_| (solver.stats(), Instant::now()));
        let r = solver.check();
        if let Some(t) = tracer.as_mut() {
            let (since, t0) = before.expect("stats snapshot taken when tracing");
            let d = solver.stats().delta(&since);
            t.sink.record(TraceEvent::Query {
                region: t.region,
                array: t.array.clone(),
                seq: t.qseq,
                attempt: t.attempt,
                write: tr.render(&p.write, entry, cross),
                entry: tr.render(&p.seed, entry, false),
                verdict: verdict_str(&r),
                perf: QueryPerf {
                    dur_us: t0.elapsed().as_micros() as u64,
                    lia_calls: d.lia_calls,
                    branches: d.branches,
                    propagations: d.propagations,
                    conflicts: d.conflicts,
                },
            });
            t.qseq += 1;
        }
        solver.pop();
        matches!(r, SatResult::Unsat)
    };

    // Cross-iteration obligations share the roots and root-usable facts.
    solver.push();
    for f in roots {
        solver.assert(f);
    }
    let usable = contexts.usable_for(contexts.root, contexts.root);
    for (site, f) in facts {
        if usable.contains(site) {
            solver.assert(f);
        }
    }
    let mut ok = true;
    for p in &tq.cross {
        if !check_pair(solver, p, true, tracer) {
            ok = false;
            break;
        }
    }
    solver.pop();
    if !ok {
        return false;
    }
    // Same-iteration obligations: bare equality, no assumptions.
    for p in &tq.same {
        if !check_pair(solver, p, false, tracer) {
            return false;
        }
    }
    true
}

/// Pair groups for assertion reuse: each entry couples the set of usable
/// fact indices with the `(write, entry)` index pairs proven under it.
type FactGroups = Vec<(Vec<usize>, Vec<(usize, usize)>)>;

/// Outcome of one panic-isolated proof attempt over all conflict pairs of
/// one adjoint array.
enum ArrayProof {
    /// Every pair proven disjoint.
    Safe,
    /// A pair is satisfiable (or structurally rejected): definite guard.
    Conflict {
        rejected: String,
        verdict: Decision,
        overwrite_warning: Option<String>,
    },
    /// A query could not be normalized into the solver fragment.
    NormalizationFailed(String),
    /// The prover gave up on some pair without a definite answer.
    Unknown(StopReason),
}

/// Try to prove every candidate conflict pair of one array disjoint.
/// Leaves the solver balanced (every `push` matched by a `pop`) on every
/// non-panicking path.
///
/// Assertion reuse: the roots are asserted once per array under a base
/// frame, and pairs are grouped by the *set of facts usable at their
/// common context* so each fact group is asserted once per group. Total
/// re-assertion work drops from O(pairs·(roots+facts)) to
/// O(roots + groups·facts); only the one-clause equality query is
/// asserted per pair.
#[allow(clippy::too_many_arguments)]
fn prove_array<S: SolverApi>(
    solver: &mut S,
    roots: &[Assertion],
    facts: &[(CtxId, Assertion)],
    fact_keys: &FactKeys<'_>,
    contexts: &Contexts,
    tr: &Translator<'_>,
    q_writes: &[(&TrRef<'_>, CtxId, bool)],
    q_all: &[(&TrRef<'_>, CtxId)],
    safe_write_exprs: &[String],
    tracer: &mut Option<TaskTracer<'_>>,
) -> ArrayProof {
    let mut unknown: Option<StopReason> = None;
    // Base frame: the roots hold for every pair of this array.
    solver.push();
    for f in roots {
        solver.assert(f);
    }
    // Group pairs by the set of fact indices usable at their common
    // context. Groups keep first-encounter order, so proofs run in the
    // same order on every machine. The usable sites, and
    // with them the fact group, depend only on the two contexts, so both
    // are worked out once per context pair, not once per tuple pair.
    struct CtxPair {
        usable: Vec<CtxId>,
        group: Option<usize>,
    }
    let mut by_ctx: FxHashMap<(CtxId, CtxId), CtxPair> = FxHashMap::default();
    let mut group_of: FxHashMap<Vec<usize>, usize> = FxHashMap::default();
    let mut groups: FactGroups = Vec::new();
    for (wi, &(w, ref w_ctx, _)) in q_writes.iter().enumerate() {
        for (ei, &(e, ref e_ctx)) in q_all.iter().enumerate() {
            let ctx_pair = by_ctx.entry((*w_ctx, *e_ctx)).or_insert_with(|| CtxPair {
                usable: contexts.usable_for(*w_ctx, *e_ctx),
                group: None,
            });
            // Redundant self-pair skip: when a write tuple meets its own
            // identical entry of `q_all` in the same context and the
            // knowledge base contains `primed(w) ≠ e` verbatim at a usable
            // site, the query `primed(w) = e` is UNSAT by direct
            // contradiction with that fact — no prover call needed.
            if w_ctx == e_ctx && w.text == e.text {
                let known =
                    |site: &CtxId| fact_keys.contains(&(*site, w.text.as_str(), e.text.as_str()));
                if ctx_pair.usable.iter().any(known) {
                    if let Some(t) = tracer.as_mut() {
                        t.sink.record(TraceEvent::PairSkipped {
                            region: t.region,
                            array: t.array.clone(),
                            seq: t.sseq,
                            write: w.text.clone(),
                            entry: e.text.clone(),
                        });
                        t.sseq += 1;
                    }
                    continue;
                }
            }
            let g = *ctx_pair.group.get_or_insert_with(|| {
                let included: Vec<usize> = facts
                    .iter()
                    .enumerate()
                    .filter(|(_, (site, _))| ctx_pair.usable.contains(site))
                    .map(|(k, _)| k)
                    .collect();
                *group_of.entry(included).or_insert_with_key(|included| {
                    groups.push((included.clone(), Vec::new()));
                    groups.len() - 1
                })
            });
            groups[g].1.push((wi, ei));
        }
    }
    // A write tuple meets many entries: both sides keep their rows.
    let mut primed: Vec<Side<'_>> = q_writes.iter().map(|(w, ..)| w.side(true)).collect();
    let mut entries: Vec<Side<'_>> = q_all.iter().map(|(e, _)| e.side(false)).collect();
    for (included, pairs) in &groups {
        // Group frame: this fact set is shared by every pair in the group.
        solver.push();
        for &k in included {
            solver.assert(&facts[k].1);
        }
        for &(wi, ei) in pairs {
            let (w, _, from_overwrite) = q_writes[wi];
            let (e, _) = q_all[ei];
            let q = tr.pair(
                Rel::Eq,
                &mut primed[wi],
                &mut entries[ei],
                solver.table_mut(),
            );
            let q = match q {
                Ok(q) => q,
                Err(e) => {
                    solver.pop(); // group frame
                    solver.pop(); // base frame
                    return ArrayProof::NormalizationFailed(format!(
                        "query normalization failed: {e}"
                    ));
                }
            };
            solver.push();
            solver.assert(&q);
            let before = tracer.as_ref().map(|_| (solver.stats(), Instant::now()));
            let r = solver.check();
            if let Some(t) = tracer.as_mut() {
                let (since, t0) = before.expect("stats snapshot taken when tracing");
                let d = solver.stats().delta(&since);
                t.sink.record(TraceEvent::Query {
                    region: t.region,
                    array: t.array.clone(),
                    seq: t.qseq,
                    attempt: t.attempt,
                    write: w.text.clone(),
                    entry: e.text.clone(),
                    verdict: verdict_str(&r),
                    perf: QueryPerf {
                        dur_us: t0.elapsed().as_micros() as u64,
                        lia_calls: d.lia_calls,
                        branches: d.branches,
                        propagations: d.propagations,
                        conflicts: d.conflicts,
                    },
                });
                t.qseq += 1;
            }
            solver.pop();
            match r {
                SatResult::Unsat => {}
                SatResult::Unknown(reason) => {
                    // Remember and move on: a later pair may still be a
                    // definite conflict, which beats retrying.
                    unknown = unknown.or(Some(reason));
                }
                SatResult::Sat => {
                    solver.pop(); // group frame
                    solver.pop(); // base frame
                    return conflict(&w.text, &e.text, from_overwrite, safe_write_exprs);
                }
            }
        }
        solver.pop(); // group frame
    }
    solver.pop(); // base frame
    match unknown {
        Some(reason) => ArrayProof::Unknown(reason),
        None => ArrayProof::Safe,
    }
}

/// Build the `Conflict` outcome for a satisfiable pair, preferring to
/// report the expression outside the proven-safe write set (the paper's
/// §7.3 presentation).
fn conflict(w_r: &str, e_r: &str, from_overwrite: bool, safe_write_exprs: &[String]) -> ArrayProof {
    let safe = |r: &str| safe_write_exprs.iter().any(|s| s == r);
    let rejected = if !safe(e_r) || safe(w_r) {
        e_r.to_string()
    } else {
        w_r.to_string()
    };
    let overwrite_warning = from_overwrite.then(|| {
        format!(
            "adjoint has a potentially conflicting overwrite at ({rejected}); \
             atomics cannot guard overwrites — treat this region's adjoint as \
             requiring privatization or serialization"
        )
    });
    ArrayProof::Conflict {
        rejected: rejected.clone(),
        verdict: Decision::Guarded(format!("cannot prove ({rejected}) disjoint from ({e_r})")),
        overwrite_warning,
    }
}

/// Distinct `(tuple, context)` pairs of `iter`, in first-seen order.
fn dedup_refs<'a, 'r>(iter: impl Iterator<Item = &'a TrRef<'r>>) -> Vec<(&'a TrRef<'r>, CtxId)> {
    let mut v: Vec<(&TrRef<'r>, CtxId)> = iter.map(|r| (r, r.ctx)).collect();
    dedup(&mut v, |&(r, c)| (r.text.as_str(), c));
    v
}

/// Drop entries whose `key` repeats, keeping the first of each.
fn dedup<T, K: Eq + std::hash::Hash>(v: &mut Vec<T>, key: impl Fn(&T) -> K) {
    let mut seen = FxHashSet::default();
    v.retain(|entry| seen.insert(key(entry)));
}

fn taint_msg(t: &Taint, r: &ArrayRef) -> String {
    match t {
        Taint::MutatedIndexArray(a) => format!(
            "index of `{}` reads array `{a}` which is written in the region",
            r.array
        ),
        Taint::NonInteger(w) => format!("index of `{}` is not integral: {w}", r.array),
    }
}

/// Root stride assertions `i = lo + step·k`, `i' = lo + step·k'`, `k ≠ k'`
/// (plus `k ≥ 0`, `k' ≥ 0`), one assertion each, when the loop bounds are
/// translatable and loop-invariant.
fn stride_roots(
    tr: &Translator<'_>,
    l: &ForLoop,
    counter: &LinExpr,
    counter_p: &LinExpr,
    table: &mut formad_smt::AtomTable,
) -> Option<Vec<Assertion>> {
    // Only worthwhile for non-unit strides.
    if l.step == Expr::IntLit(1) {
        return None;
    }
    tr.check(&l.lo).ok()?;
    tr.check(&l.step).ok()?;
    // Bail out if the bounds reference privatized variables (their value
    // would differ per thread, invalidating the shared `lo`/`step` rows).
    if tr.varies(&l.lo) || tr.varies(&l.step) {
        return None;
    }
    let entry = formad_analysis::ENTRY;
    let lo = tr.row(&l.lo, entry, false, table).ok()?;
    let step = tr.row(&l.step, entry, false, table).ok()?;
    // `counter = lo + step·k`, interning `k` after the bounds' atoms.
    let mut at = |counter: &LinExpr, primed: bool| -> Option<(Assertion, LinExpr)> {
        let k = table.scalar("k$".into(), 0, primed);
        let rhs = lo.plus(&step.clone().times(k.clone(), table).ok()?).ok()?;
        Some((Assertion::all(vec![Literal::eq(counter.clone(), rhs)]), k))
    };
    let (on_i, k) = at(counter, false)?;
    let (on_ip, kp) = at(counter_p, true)?;
    let zero = LinExpr::constant(0);
    Some(vec![
        on_i,
        on_ip,
        Assertion::all(vec![Literal::ne(k.clone(), kp.clone())]),
        // k ≥ 0 on both ranks.
        Assertion::all(vec![Literal::le(zero.clone(), k)]),
        Assertion::all(vec![Literal::le(zero, kp)]),
    ])
}
