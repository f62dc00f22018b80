//! Structured proof-trace events for the whole pipeline.
//!
//! The paper's contribution is an *explainable* static decision: which
//! conflict pairs were proven disjoint, from which parallelization facts,
//! and why an array fell back to atomics (§5, §7.3). This module records
//! that reasoning as a stream of [`TraceEvent`]s threaded through
//! parse → analysis → per-array/per-pair proving → degradation decisions,
//! and renders it three ways:
//!
//! * [`trace_json`] — a versioned JSON document ([`TRACE_SCHEMA`]) split
//!   into a deterministic `events` section and a volatile `perf` section.
//!   Every event has a span-style id (`r0`, `r0/grad`, `r0/grad/q3`);
//!   `perf` entries reference those ids and carry wall-clock durations,
//!   SMT stats deltas, and whether the fingerprint index answered. The
//!   `events` section is byte-identical from run to run — the analysis is
//!   single-threaded and records events as they happen, arrays in sorted
//!   order — while `perf` is allowed to vary.
//! * [`explain`] — a human-readable proof narrative per array (the
//!   `formad explain` subcommand).
//! * [`validate_trace`] — schema validation of an emitted document (a
//!   hand-rolled JSON reader; the workspace takes no serde dependency),
//!   returning a [`TraceSummary`] for cross-checks against the report.
//!
//! Tracing is strictly opt-in: when [`crate::RegionOptions::trace`] is
//! `None`, no event is constructed, no clock is read, and no stats are
//! snapshotted — the hot path costs one branch per site.

use std::sync::{Arc, Mutex};

use formad_ad::AdjointStats;

use crate::json::Json;

/// Version tag of the JSON document layout.
pub const TRACE_SCHEMA: &str = "formad-trace/v1";

/// Volatile per-query measurements: everything about a prover call that
/// may legitimately differ between runs.
/// Rendered into the `perf` section only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryPerf {
    /// Wall-clock time of the `check()`.
    pub dur_us: u64,
    /// Linear-feasibility core calls attributed to this query.
    pub lia_calls: u64,
    /// Branch nodes explored by this query.
    pub branches: u64,
    /// Unit commitments made by the splitter.
    pub propagations: u64,
    /// Branches (the probe included) the theory refuted.
    pub conflicts: u64,
}

/// One structured event. The deterministic fields (everything except
/// durations and [`QueryPerf`]) render into the `events` section; timing
/// and attribution render into `perf` under the same span id.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A pipeline run begins (one per analyzed program; a suite trace
    /// holds several segments, each opened by one of these).
    Pipeline {
        /// Subroutine name of the primal.
        program: String,
        /// Differentiation inputs.
        independents: Vec<String>,
        /// Differentiation outputs.
        dependents: Vec<String>,
    },
    /// A named phase finished. Pipeline-level ids are `phase/{name}`,
    /// region-level ids `r{k}/phase/{name}`.
    Phase {
        /// Span id (doubles as the phase name).
        id: String,
        /// Wall-clock duration (perf section only).
        dur_us: u64,
    },
    /// A parallel region's analysis begins.
    RegionBegin {
        /// Pre-order region index.
        region: usize,
        /// Parallel loop counter variable.
        loop_var: String,
        /// Statements in the region.
        loc: usize,
    },
    /// A region's entire decision set was served from the fingerprint
    /// index (see [`crate::fingerprint`]) — no model was built and no
    /// queries were enumerated; the following `decision` events replay
    /// the recorded verdict set.
    RegionServed {
        region: usize,
        /// 128-bit region fingerprint (hex).
        fingerprint: String,
        /// Serving tier: `memory` or `disk`.
        tier: String,
        /// Arrays whose decisions were replayed.
        arrays: usize,
        /// Lookup + replay time (perf section only).
        dur_us: u64,
    },
    /// Knowledge model assembled (phase 1 done).
    Model {
        region: usize,
        /// Assertions in the model (roots + facts).
        model_size: usize,
        /// Distinct index-expression tuples.
        unique_exprs: usize,
        /// Root assertions (counter disjointness, strides).
        roots: usize,
        /// Extracted disjointness facts.
        facts: usize,
    },
    /// `buildModel` satisfiability safeguard for one context (§5.5).
    RaceCheck {
        region: usize,
        /// Context index checked.
        ctx: usize,
        /// `sat` (expected), `unsat` (primal race suspected),
        /// `unknown: …`, or `panicked`.
        verdict: String,
    },
    /// A candidate array enters the per-array proof fan-out.
    ArrayBegin {
        region: usize,
        array: String,
        /// Adjoint write tuples to prove disjoint.
        writes: usize,
        /// Adjoint reference tuples they are checked against.
        entries: usize,
    },
    /// A conflict pair answered without a prover call: the knowledge base
    /// contains `primed(write) ≠ entry` verbatim at a usable site.
    PairSkipped {
        region: usize,
        array: String,
        /// Per-array skip sequence number.
        seq: usize,
        write: String,
        entry: String,
    },
    /// One prover query for one conflict pair.
    Query {
        region: usize,
        array: String,
        /// Per-array query sequence number (monotonic across attempts).
        seq: usize,
        /// Retry-ladder rung that issued the query.
        attempt: u32,
        write: String,
        entry: String,
        /// `unsat` (pair disjoint), `sat` (conflict), or `unknown: …`
        /// with the governor's stop reason.
        verdict: String,
        /// Volatile measurements (perf section only).
        perf: QueryPerf,
    },
    /// One rung of the escalating retry ladder finished.
    Attempt {
        region: usize,
        array: String,
        attempt: u32,
        /// LIA-call budget of this rung.
        max_lia_calls: u64,
        /// Branch budget of this rung.
        max_branches: u64,
        /// `safe`, `conflict`, `normalization-failed`, `unknown: …`, or
        /// `panicked`.
        outcome: String,
    },
    /// Final per-array decision, with the PR-1 provenance rung.
    Decision {
        region: usize,
        array: String,
        /// `shared`, `transposed`, or `guarded`.
        decision: String,
        /// [`crate::Provenance::tag`].
        provenance: String,
        /// Guard reason or transposition summary (empty for `shared`).
        reason: String,
    },
    /// A region's analysis finished.
    RegionEnd {
        region: usize,
        /// Prover checks issued in the region.
        queries: u64,
        /// Diagnostics recorded.
        warnings: usize,
        /// Wall-clock duration (perf section only).
        dur_us: u64,
    },
    /// What the reverse-mode transformation kept of the forward sweep and
    /// of the tape, after `phase/ad`: once for the whole program
    /// (`region: None`), then once per parallel region with the share
    /// inside it.
    Adjoint {
        region: Option<usize>,
        stats: AdjointStats,
    },
}

impl TraceEvent {
    /// Span id: unique within one pipeline segment.
    pub fn id(&self) -> String {
        match self {
            TraceEvent::Pipeline { .. } => "pipeline".to_string(),
            TraceEvent::Phase { id, .. } => id.clone(),
            TraceEvent::RegionBegin { region, .. } => format!("r{region}"),
            TraceEvent::RegionServed { region, .. } => format!("r{region}/served"),
            TraceEvent::Model { region, .. } => format!("r{region}/model"),
            TraceEvent::RaceCheck { region, ctx, .. } => format!("r{region}/ctx{ctx}"),
            TraceEvent::ArrayBegin { region, array, .. } => format!("r{region}/{array}"),
            TraceEvent::PairSkipped {
                region, array, seq, ..
            } => format!("r{region}/{array}/s{seq}"),
            TraceEvent::Query {
                region, array, seq, ..
            } => format!("r{region}/{array}/q{seq}"),
            TraceEvent::Attempt {
                region,
                array,
                attempt,
                ..
            } => format!("r{region}/{array}/t{attempt}"),
            TraceEvent::Decision { region, array, .. } => format!("r{region}/{array}/decision"),
            TraceEvent::RegionEnd { region, .. } => format!("r{region}/end"),
            TraceEvent::Adjoint { region: None, .. } => "adjoint".to_string(),
            TraceEvent::Adjoint {
                region: Some(region),
                ..
            } => format!("r{region}/adjoint"),
        }
    }

    /// Event discriminator in the JSON document.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Pipeline { .. } => "pipeline",
            TraceEvent::Phase { .. } => "phase",
            TraceEvent::RegionBegin { .. } => "region-begin",
            TraceEvent::RegionServed { .. } => "region-served",
            TraceEvent::Model { .. } => "model",
            TraceEvent::RaceCheck { .. } => "race-check",
            TraceEvent::ArrayBegin { .. } => "array-begin",
            TraceEvent::PairSkipped { .. } => "pair-skipped",
            TraceEvent::Query { .. } => "query",
            TraceEvent::Attempt { .. } => "attempt",
            TraceEvent::Decision { .. } => "decision",
            TraceEvent::RegionEnd { .. } => "region-end",
            TraceEvent::Adjoint { .. } => "adjoint",
        }
    }

    /// Deterministic JSON object for the `events` section — no timing,
    /// no stats deltas, no cache attribution.
    fn event_json(&self) -> String {
        let mut o = JObj::new(self.kind(), &self.id());
        match self {
            TraceEvent::Pipeline {
                program,
                independents,
                dependents,
            } => {
                o.str("program", program);
                o.str_list("independents", independents);
                o.str_list("dependents", dependents);
            }
            TraceEvent::Phase { .. } => {}
            TraceEvent::RegionBegin {
                region,
                loop_var,
                loc,
            } => {
                o.num("region", *region as u64);
                o.str("loop_var", loop_var);
                o.num("loc", *loc as u64);
            }
            TraceEvent::RegionServed {
                region,
                fingerprint,
                tier,
                arrays,
                ..
            } => {
                o.num("region", *region as u64);
                o.str("fingerprint", fingerprint);
                o.str("tier", tier);
                o.num("arrays", *arrays as u64);
            }
            TraceEvent::Model {
                region,
                model_size,
                unique_exprs,
                roots,
                facts,
            } => {
                o.num("region", *region as u64);
                o.num("model_size", *model_size as u64);
                o.num("unique_exprs", *unique_exprs as u64);
                o.num("roots", *roots as u64);
                o.num("facts", *facts as u64);
            }
            TraceEvent::RaceCheck {
                region,
                ctx,
                verdict,
            } => {
                o.num("region", *region as u64);
                o.num("ctx", *ctx as u64);
                o.str("verdict", verdict);
            }
            TraceEvent::ArrayBegin {
                region,
                array,
                writes,
                entries,
            } => {
                o.num("region", *region as u64);
                o.str("array", array);
                o.num("writes", *writes as u64);
                o.num("entries", *entries as u64);
            }
            TraceEvent::PairSkipped {
                region,
                array,
                write,
                entry,
                ..
            } => {
                o.num("region", *region as u64);
                o.str("array", array);
                o.str("write", write);
                o.str("entry", entry);
            }
            TraceEvent::Query {
                region,
                array,
                attempt,
                write,
                entry,
                verdict,
                ..
            } => {
                o.num("region", *region as u64);
                o.str("array", array);
                o.num("attempt", u64::from(*attempt));
                o.str("write", write);
                o.str("entry", entry);
                o.str("verdict", verdict);
            }
            TraceEvent::Attempt {
                region,
                array,
                attempt,
                max_lia_calls,
                max_branches,
                outcome,
            } => {
                o.num("region", *region as u64);
                o.str("array", array);
                o.num("attempt", u64::from(*attempt));
                o.num("max_lia_calls", *max_lia_calls);
                o.num("max_branches", *max_branches);
                o.str("outcome", outcome);
            }
            TraceEvent::Decision {
                region,
                array,
                decision,
                provenance,
                reason,
            } => {
                o.num("region", *region as u64);
                o.str("array", array);
                o.str("decision", decision);
                o.str("provenance", provenance);
                o.str("reason", reason);
            }
            TraceEvent::RegionEnd {
                region,
                queries,
                warnings,
                ..
            } => {
                o.num("region", *region as u64);
                o.num("queries", *queries);
                o.num("warnings", *warnings as u64);
            }
            TraceEvent::Adjoint { region, stats } => {
                if let Some(region) = region {
                    o.num("region", *region as u64);
                }
                o.num("fwd_kept", stats.fwd_kept as u64);
                o.num("fwd_dropped", stats.fwd_dropped as u64);
                o.num("push_sites", stats.push_sites as u64);
                o.str_list("recomputed", &stats.recomputed);
                o.num("branches_reevaluated", stats.branches_reevaluated as u64);
            }
        }
        o.finish()
    }

    /// `perf` entry for events that carry volatile measurements.
    fn perf_json(&self) -> Option<String> {
        match self {
            TraceEvent::Phase { id, dur_us } => {
                let mut o = JObj::bare(id);
                o.num("dur_us", *dur_us);
                Some(o.finish())
            }
            TraceEvent::Query { perf, .. } => {
                let mut o = JObj::bare(&self.id());
                o.num("dur_us", perf.dur_us);
                o.num("lia_calls", perf.lia_calls);
                o.num("branches", perf.branches);
                o.num("propagations", perf.propagations);
                o.num("conflicts", perf.conflicts);
                // A query is never answered from a cache: the only store
                // is the fingerprint index, which serves whole regions.
                o.str("cache", "off");
                Some(o.finish())
            }
            TraceEvent::RegionServed { dur_us, .. } => {
                let mut o = JObj::bare(&self.id());
                o.num("dur_us", *dur_us);
                o.str("cache", "fingerprint");
                Some(o.finish())
            }
            TraceEvent::RegionEnd { dur_us, .. } => {
                let mut o = JObj::bare(&self.id());
                o.num("dur_us", *dur_us);
                Some(o.finish())
            }
            _ => None,
        }
    }
}

/// Shared, clonable event collector: the caller keeps one handle and the
/// analysis records into another. One analysis records from one thread, so
/// the mutex is never contended.
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    inner: Arc<Mutex<Vec<TraceEvent>>>,
}

impl TraceSink {
    /// Fresh empty sink.
    pub fn new() -> TraceSink {
        TraceSink::default()
    }

    /// Append one event.
    pub fn record(&self, e: TraceEvent) {
        if let Ok(mut v) = self.inner.lock() {
            v.push(e);
        }
    }

    /// Copy out everything recorded so far.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.inner.lock().map(|v| v.clone()).unwrap_or_default()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.inner.lock().map(|v| v.len()).unwrap_or(0)
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---------------------------------------------------------------------
// JSON rendering.
// ---------------------------------------------------------------------

/// Escape `s` into a JSON string literal (with quotes).
fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Ordered-field JSON object builder.
struct JObj {
    body: String,
}

impl JObj {
    /// Object opened with the standard `"ev"`/`"id"` pair.
    fn new(ev: &str, id: &str) -> JObj {
        JObj {
            body: format!("{{\"ev\": {}, \"id\": {}", jstr(ev), jstr(id)),
        }
    }

    /// Object opened with only an `"id"` (perf entries).
    fn bare(id: &str) -> JObj {
        JObj {
            body: format!("{{\"id\": {}", jstr(id)),
        }
    }

    fn str(&mut self, key: &str, val: &str) {
        self.body
            .push_str(&format!(", {}: {}", jstr(key), jstr(val)));
    }

    fn num(&mut self, key: &str, val: u64) {
        self.body.push_str(&format!(", {}: {val}", jstr(key)));
    }

    fn str_list(&mut self, key: &str, vals: &[String]) {
        let items: Vec<String> = vals.iter().map(|v| jstr(v)).collect();
        self.body
            .push_str(&format!(", {}: [{}]", jstr(key), items.join(", ")));
    }

    fn finish(mut self) -> String {
        self.body.push('}');
        self.body
    }
}

/// The deterministic `events` section alone (one JSON array). Tests use
/// this to assert byte-identity across runs, cache tiers and search cores.
pub fn deterministic_json(events: &[TraceEvent]) -> String {
    let mut s = String::from("[\n");
    for (k, e) in events.iter().enumerate() {
        s.push_str("    ");
        s.push_str(&e.event_json());
        if k + 1 < events.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str("  ]");
    s
}

/// Render the full versioned trace document.
pub fn trace_json(events: &[TraceEvent]) -> String {
    let perf: Vec<String> = events.iter().filter_map(TraceEvent::perf_json).collect();
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"schema\": {},\n", jstr(TRACE_SCHEMA)));
    s.push_str(&format!("  \"events\": {},\n", deterministic_json(events)));
    s.push_str("  \"perf\": [\n");
    for (k, p) in perf.iter().enumerate() {
        s.push_str("    ");
        s.push_str(p);
        if k + 1 < perf.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str("  ]\n}\n");
    s
}

// ---------------------------------------------------------------------
// Human-readable proof narrative (`formad explain`).
// ---------------------------------------------------------------------

/// Render a per-array proof narrative from a recorded event stream.
/// `array` filters to one adjoint array; `None` explains every decision.
pub fn explain(events: &[TraceEvent], array: Option<&str>) -> String {
    use std::collections::HashMap;
    use std::fmt::Write;

    // Pre-rendered proof steps per (region, array), in event order.
    let mut steps: HashMap<(usize, String), Vec<String>> = HashMap::new();
    // Region header info.
    let mut region_meta: HashMap<usize, (String, usize)> = HashMap::new();
    let mut region_model: HashMap<usize, (usize, usize, usize, usize)> = HashMap::new();
    // Regions served whole from the fingerprint index: (tier, fingerprint).
    let mut region_served: HashMap<usize, (String, String)> = HashMap::new();
    for e in events {
        match e {
            TraceEvent::RegionBegin {
                region,
                loop_var,
                loc,
            } => {
                region_meta.insert(*region, (loop_var.clone(), *loc));
            }
            TraceEvent::RegionServed {
                region,
                fingerprint,
                tier,
                ..
            } => {
                region_served.insert(*region, (tier.clone(), fingerprint.clone()));
            }
            TraceEvent::Model {
                region,
                model_size,
                unique_exprs,
                roots,
                facts,
            } => {
                region_model.insert(*region, (*model_size, *unique_exprs, *roots, *facts));
            }
            TraceEvent::ArrayBegin {
                region,
                array,
                writes,
                entries,
            } => {
                steps
                    .entry((*region, array.clone()))
                    .or_default()
                    .push(format!(
                    "conflict pairs: {writes} adjoint write tuple(s) × {entries} reference tuple(s)"
                ));
            }
            TraceEvent::PairSkipped {
                region,
                array,
                write,
                entry,
                ..
            } => {
                steps.entry((*region, array.clone())).or_default().push(format!(
                    "skipped: primed({write}) = ({entry}) — contradicted verbatim by a knowledge-base fact"
                ));
            }
            TraceEvent::Query {
                region,
                array,
                seq,
                write,
                entry,
                verdict,
                ..
            } => {
                steps
                    .entry((*region, array.clone()))
                    .or_default()
                    .push(format!(
                        "query q{seq}: primed({write}) = ({entry}) → {verdict}"
                    ));
            }
            TraceEvent::Attempt {
                region,
                array,
                attempt,
                max_lia_calls,
                max_branches,
                outcome,
            } => {
                steps
                    .entry((*region, array.clone()))
                    .or_default()
                    .push(format!(
                        "attempt {attempt} (≤{max_lia_calls} lia calls, \
                         ≤{max_branches} branches): {outcome}"
                    ));
            }
            _ => {}
        }
    }

    let mut s = String::new();
    let mut matched = false;
    let mut narrated: Vec<usize> = Vec::new();
    for e in events {
        let TraceEvent::Decision {
            region,
            array: arr,
            decision,
            provenance,
            reason,
        } = e
        else {
            continue;
        };
        if let Some(want) = array {
            if arr != want {
                continue;
            }
        }
        matched = true;
        narrated.push(*region);
        let (loop_var, loc) = region_meta
            .get(region)
            .cloned()
            .unwrap_or_else(|| ("?".into(), 0));
        let _ = writeln!(
            s,
            "proof narrative for `{arr}` (region {region}, parallel do {loop_var}, {loc} stmts):"
        );
        if let Some((size, exprs, roots, facts)) = region_model.get(region) {
            let _ = writeln!(
                s,
                "  knowledge model: {size} assertions ({roots} root(s) + {facts} fact(s)), \
                 {exprs} unique index expressions"
            );
        }
        match steps.get(&(*region, arr.clone())) {
            Some(lines) => {
                for line in lines {
                    let _ = writeln!(s, "  {line}");
                }
            }
            None => match region_served.get(region) {
                Some((tier, fp)) => {
                    let _ = writeln!(
                        s,
                        "  served from the region fingerprint index ({tier} tier, \
                         fingerprint {fp}): recorded decision set replayed, \
                         no queries re-enumerated"
                    );
                }
                None => {
                    let _ = writeln!(s, "  no prover queries were needed");
                }
            },
        }
        let verdict = match decision.as_str() {
            "shared" => "shared (no atomics needed)".to_string(),
            "transposed" => format!("transposed (gather, no atomics needed) — {reason}"),
            _ => format!("guarded — {reason}"),
        };
        let _ = writeln!(s, "  decision: {verdict} [{provenance}]");
    }
    if !matched {
        match array {
            Some(a) => {
                let _ = writeln!(s, "no decision recorded for array `{a}`");
            }
            None => {
                let _ = writeln!(s, "no decisions recorded");
            }
        }
    }
    // Why a value is taped or not: the whole program's adjoint, then
    // each narrated region's share of it.
    for e in events {
        match e {
            TraceEvent::Adjoint {
                region: None,
                stats,
            } => {
                let _ = writeln!(s, "adjoint of the program: {stats}");
            }
            TraceEvent::Adjoint {
                region: Some(k),
                stats,
            } if narrated.contains(k) => {
                let _ = writeln!(s, "adjoint of region {k}: {stats}");
            }
            _ => {}
        }
    }
    s
}

// ---------------------------------------------------------------------
// Schema validation (read through `crate::json`; no serde in the workspace).
// ---------------------------------------------------------------------

/// One `decision` event as seen by the validator, for cross-checking a
/// trace against the textual report.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceDecision {
    pub region: u64,
    pub array: String,
    /// `shared`, `transposed`, or `guarded`.
    pub decision: String,
    /// Provenance tag.
    pub provenance: String,
    /// Guard reason or transposition summary (empty for `shared`).
    pub reason: String,
}

/// What [`validate_trace`] learned about a valid document.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// Total events.
    pub events: usize,
    /// `query` events.
    pub queries: usize,
    /// Pipeline segments (`pipeline` events).
    pub pipelines: usize,
    /// Every per-array decision, in recorded order.
    pub decisions: Vec<TraceDecision>,
}

fn need_str(o: &Json, key: &str, at: &str) -> Result<String, String> {
    o.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("{at}: missing string field `{key}`"))
}

fn need_num(o: &Json, key: &str, at: &str) -> Result<u64, String> {
    o.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{at}: missing integer field `{key}`"))
}

fn need_str_list(o: &Json, key: &str, at: &str) -> Result<(), String> {
    let arr = o
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{at}: missing array field `{key}`"))?;
    if arr.iter().all(|v| matches!(v, Json::Str(_))) {
        Ok(())
    } else {
        Err(format!("{at}: `{key}` must contain only strings"))
    }
}

const PROVENANCE_TAGS: [&str; 5] = [
    "proved",
    "refuted",
    "budget-exhausted",
    "timed-out",
    "recovered",
];

/// Validate a rendered trace document against [`TRACE_SCHEMA`]: the
/// schema tag, per-event required fields, span-id uniqueness within each
/// pipeline segment, and that every `perf` entry references a recorded
/// event id.
pub fn validate_trace(src: &str) -> Result<TraceSummary, String> {
    let doc = Json::parse(src).map_err(|e| format!("trace JSON invalid: {e}"))?;
    let schema = need_str(&doc, "schema", "document")?;
    if schema != TRACE_SCHEMA {
        return Err(format!(
            "unsupported schema `{schema}` (expected `{TRACE_SCHEMA}`)"
        ));
    }
    let events = doc
        .get("events")
        .and_then(Json::as_arr)
        .ok_or("document: missing `events` array")?;
    let perf = doc
        .get("perf")
        .and_then(Json::as_arr)
        .ok_or("document: missing `perf` array")?;

    let mut summary = TraceSummary {
        events: events.len(),
        queries: 0,
        pipelines: 0,
        decisions: Vec::new(),
    };
    let mut all_ids: std::collections::HashSet<String> = std::collections::HashSet::new();
    let mut segment_ids: std::collections::HashSet<String> = std::collections::HashSet::new();
    for (k, e) in events.iter().enumerate() {
        let at = format!("events[{k}]");
        let ev = need_str(e, "ev", &at)?;
        let id = need_str(e, "id", &at)?;
        if ev == "pipeline" {
            // A new segment: region/array ids may legally repeat.
            segment_ids.clear();
            summary.pipelines += 1;
        }
        if !segment_ids.insert(id.clone()) {
            return Err(format!("{at}: duplicate span id `{id}` within a segment"));
        }
        all_ids.insert(id.clone());
        match ev.as_str() {
            "pipeline" => {
                need_str(e, "program", &at)?;
                need_str_list(e, "independents", &at)?;
                need_str_list(e, "dependents", &at)?;
            }
            "phase" => {}
            "region-begin" => {
                need_num(e, "region", &at)?;
                need_str(e, "loop_var", &at)?;
                need_num(e, "loc", &at)?;
            }
            "model" => {
                need_num(e, "region", &at)?;
                for f in ["model_size", "unique_exprs", "roots", "facts"] {
                    need_num(e, f, &at)?;
                }
            }
            "race-check" => {
                need_num(e, "region", &at)?;
                need_num(e, "ctx", &at)?;
                need_str(e, "verdict", &at)?;
            }
            "array-begin" => {
                need_num(e, "region", &at)?;
                need_str(e, "array", &at)?;
                need_num(e, "writes", &at)?;
                need_num(e, "entries", &at)?;
            }
            "pair-skipped" => {
                need_num(e, "region", &at)?;
                need_str(e, "array", &at)?;
                need_str(e, "write", &at)?;
                need_str(e, "entry", &at)?;
            }
            "query" => {
                summary.queries += 1;
                need_num(e, "region", &at)?;
                need_str(e, "array", &at)?;
                need_num(e, "attempt", &at)?;
                need_str(e, "write", &at)?;
                need_str(e, "entry", &at)?;
                let v = need_str(e, "verdict", &at)?;
                if v != "sat" && v != "unsat" && !v.starts_with("unknown") {
                    return Err(format!("{at}: bad query verdict `{v}`"));
                }
            }
            "attempt" => {
                need_num(e, "region", &at)?;
                need_str(e, "array", &at)?;
                need_num(e, "attempt", &at)?;
                need_num(e, "max_lia_calls", &at)?;
                need_num(e, "max_branches", &at)?;
                need_str(e, "outcome", &at)?;
            }
            "decision" => {
                let d = TraceDecision {
                    region: need_num(e, "region", &at)?,
                    array: need_str(e, "array", &at)?,
                    decision: need_str(e, "decision", &at)?,
                    provenance: need_str(e, "provenance", &at)?,
                    reason: need_str(e, "reason", &at)?,
                };
                if d.decision != "shared" && d.decision != "transposed" && d.decision != "guarded" {
                    return Err(format!("{at}: bad decision `{}`", d.decision));
                }
                if !PROVENANCE_TAGS.contains(&d.provenance.as_str()) {
                    return Err(format!("{at}: bad provenance `{}`", d.provenance));
                }
                summary.decisions.push(d);
            }
            "region-served" => {
                need_num(e, "region", &at)?;
                need_str(e, "fingerprint", &at)?;
                let tier = need_str(e, "tier", &at)?;
                if !matches!(tier.as_str(), "memory" | "disk") {
                    return Err(format!("{at}: bad serving tier `{tier}`"));
                }
                need_num(e, "arrays", &at)?;
            }
            "region-end" => {
                need_num(e, "region", &at)?;
                need_num(e, "queries", &at)?;
                need_num(e, "warnings", &at)?;
            }
            "adjoint" => {
                if id != "adjoint" {
                    need_num(e, "region", &at)?;
                }
                for f in [
                    "fwd_kept",
                    "fwd_dropped",
                    "push_sites",
                    "branches_reevaluated",
                ] {
                    need_num(e, f, &at)?;
                }
                need_str_list(e, "recomputed", &at)?;
            }
            other => return Err(format!("{at}: unknown event kind `{other}`")),
        }
    }
    for (k, p) in perf.iter().enumerate() {
        let at = format!("perf[{k}]");
        let id = need_str(p, "id", &at)?;
        if !all_ids.contains(&id) {
            return Err(format!("{at}: id `{id}` matches no recorded event"));
        }
        need_num(p, "dur_us", &at)?;
        if let Some(c) = p.get("cache") {
            let c = c
                .as_str()
                .ok_or_else(|| format!("{at}: `cache` must be a string"))?;
            if !matches!(c, "fingerprint" | "off") {
                return Err(format!("{at}: bad cache attribution `{c}`"));
            }
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Pipeline {
                program: "fig2".into(),
                independents: vec!["x".into()],
                dependents: vec!["y".into()],
            },
            TraceEvent::RegionBegin {
                region: 0,
                loop_var: "i".into(),
                loc: 1,
            },
            TraceEvent::Model {
                region: 0,
                model_size: 5,
                unique_exprs: 2,
                roots: 1,
                facts: 4,
            },
            TraceEvent::RaceCheck {
                region: 0,
                ctx: 0,
                verdict: "sat".into(),
            },
            TraceEvent::Phase {
                id: "r0/phase/extract".into(),
                dur_us: 42,
            },
            TraceEvent::ArrayBegin {
                region: 0,
                array: "x".into(),
                writes: 1,
                entries: 1,
            },
            TraceEvent::Query {
                region: 0,
                array: "x".into(),
                seq: 0,
                attempt: 0,
                write: "c(i$1) + 7".into(),
                entry: "c(i$1) + 7".into(),
                verdict: "unsat".into(),
                perf: QueryPerf {
                    dur_us: 7,
                    lia_calls: 3,
                    branches: 1,
                    propagations: 0,
                    conflicts: 0,
                },
            },
            TraceEvent::Attempt {
                region: 0,
                array: "x".into(),
                attempt: 0,
                max_lia_calls: 10_000,
                max_branches: 50_000,
                outcome: "safe".into(),
            },
            TraceEvent::Decision {
                region: 0,
                array: "x".into(),
                decision: "shared".into(),
                provenance: "proved".into(),
                reason: String::new(),
            },
            TraceEvent::RegionEnd {
                region: 0,
                queries: 1,
                warnings: 0,
                dur_us: 99,
            },
        ]
    }

    #[test]
    fn rendered_trace_validates() {
        let doc = trace_json(&sample_events());
        let sum = validate_trace(&doc).expect("valid trace");
        assert_eq!(sum.queries, 1);
        assert_eq!(sum.pipelines, 1);
        assert_eq!(sum.decisions.len(), 1);
        assert_eq!(sum.decisions[0].array, "x");
        assert_eq!(sum.decisions[0].decision, "shared");
        assert_eq!(sum.decisions[0].provenance, "proved");
    }

    #[test]
    fn deterministic_section_hides_perf() {
        let mut events = sample_events();
        let before = deterministic_json(&events);
        // Mutate every volatile field; the deterministic render must not move.
        for e in &mut events {
            match e {
                TraceEvent::Phase { dur_us, .. } | TraceEvent::RegionEnd { dur_us, .. } => {
                    *dur_us += 1000;
                }
                TraceEvent::Query { perf, .. } => {
                    perf.dur_us += 1000;
                    perf.lia_calls = 0;
                }
                _ => {}
            }
        }
        assert_eq!(before, deterministic_json(&events));
        assert_ne!(trace_json(&sample_events()), trace_json(&events));
    }

    #[test]
    fn validator_rejects_drift() {
        let good = trace_json(&sample_events());
        assert!(validate_trace(&good.replace("formad-trace/v1", "formad-trace/v0")).is_err());
        assert!(
            validate_trace(&good.replace("\"verdict\": \"unsat\"", "\"verdict\": \"maybe\""))
                .is_err()
        );
        assert!(validate_trace(
            &good.replace("\"provenance\": \"proved\"", "\"provenance\": \"x\"")
        )
        .is_err());
        assert!(validate_trace("{").is_err());
        assert!(validate_trace("[]").is_err());
    }

    #[test]
    fn duplicate_ids_rejected_within_segment_allowed_across() {
        let mut events = sample_events();
        events.push(TraceEvent::RegionBegin {
            region: 0,
            loop_var: "i".into(),
            loc: 1,
        });
        assert!(validate_trace(&trace_json(&events)).is_err());
        // A second pipeline segment legally reuses region ids.
        let mut two = sample_events();
        two.extend(sample_events());
        let sum = validate_trace(&trace_json(&two)).expect("two segments");
        assert_eq!(sum.pipelines, 2);
    }

    #[test]
    fn string_escaping_round_trips() {
        let events = vec![TraceEvent::Pipeline {
            program: "we\"ird\\name\nwith\tctl\u{1}".into(),
            independents: vec![],
            dependents: vec![],
        }];
        let doc = trace_json(&events);
        validate_trace(&doc).expect("escaped strings stay valid");
    }

    /// The events `run_differentiate` appends after `phase/ad`.
    fn adjoint_events() -> Vec<TraceEvent> {
        let stats = AdjointStats {
            fwd_kept: 0,
            fwd_dropped: 2,
            push_sites: 0,
            recomputed: vec!["t".into()],
            branches_reevaluated: 1,
        };
        vec![
            TraceEvent::Adjoint {
                region: None,
                stats: stats.clone(),
            },
            TraceEvent::Adjoint {
                region: Some(0),
                stats,
            },
        ]
    }

    #[test]
    fn adjoint_events_validate_and_are_explained() {
        let mut events = sample_events();
        events.extend(adjoint_events());
        let doc = trace_json(&events);
        validate_trace(&doc).expect("valid trace");
        assert!(
            doc.contains(
                "{\"ev\": \"adjoint\", \"id\": \"r0/adjoint\", \"region\": 0, \
                 \"fwd_kept\": 0, \"fwd_dropped\": 2, \"push_sites\": 0, \
                 \"recomputed\": [\"t\"], \"branches_reevaluated\": 1}"
            ),
            "{doc}"
        );
        assert!(doc.contains("\"id\": \"adjoint\", \"fwd_kept\""), "{doc}");
        // A per-region event without its region is rejected.
        assert!(
            validate_trace(&doc.replace("\"region\": 0, \"fwd_kept\"", "\"fwd_kept\"")).is_err()
        );

        let text = explain(&events, Some("x"));
        assert!(
            text.contains(
                "adjoint of region 0: forward sweep keeps 0 of 2 statements / 0 push sites / \
                 1 branches re-evaluated / recomputed: t"
            ),
            "{text}"
        );
        assert!(text.contains("adjoint of the program: forward sweep keeps 0 of 2"));
        // A region with no narrated decision keeps its line out.
        let other = explain(&events, Some("nope"));
        assert!(!other.contains("adjoint of region"), "{other}");
    }

    #[test]
    fn explain_narrates_decisions() {
        let text = explain(&sample_events(), Some("x"));
        assert!(text.contains("proof narrative for `x`"));
        assert!(text.contains("query q0"));
        assert!(text.contains("decision: shared (no atomics needed) [proved]"));
        assert!(explain(&sample_events(), Some("nope")).contains("no decision recorded"));
    }
}
