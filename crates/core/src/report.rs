//! Human-readable reporting of the analysis (Table 1 of the paper).

use std::fmt::Write;

use crate::pipeline::FormadAnalysis;
use crate::region::{Provenance, RegionAnalysis};

/// Render one Table-1-style row: `problem, time, model size, queries,
/// exprs, loc`.
pub fn table1_row(name: &str, a: &FormadAnalysis) -> String {
    let time: f64 = a.regions.iter().map(|r| r.time.as_secs_f64()).sum();
    let size: usize = a.regions.iter().map(|r| r.model_size).sum();
    let queries: u64 = a.total_queries();
    let exprs: usize = a.regions.iter().map(|r| r.unique_exprs).sum();
    let loc: usize = a.regions.iter().map(|r| r.loc).sum();
    format!("{name:<12} {time:>8.3} {size:>8} {queries:>8} {exprs:>6} {loc:>5}")
}

/// Header matching [`table1_row`].
pub fn table1_header() -> String {
    format!(
        "{:<12} {:>8} {:>8} {:>8} {:>6} {:>5}",
        "problem", "time", "size", "queries", "exprs", "loc"
    )
}

/// Long-form report for one region (decisions, warnings, §7.3-style safe
/// set and rejected expressions).
pub fn region_report(r: &RegionAnalysis) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "region {} (parallel do {}): {} stmts, model size {}, {} unique exprs, {} queries, {:.3}s",
        r.region,
        r.loop_var,
        r.loc,
        r.model_size,
        r.unique_exprs,
        r.queries,
        r.time.as_secs_f64()
    );
    let mut arrays: Vec<_> = r.decisions.iter().collect();
    arrays.sort_by(|a, b| a.0.cmp(b.0));
    for (arr, d) in arrays {
        let tag = r
            .provenance
            .get(arr.as_str())
            .map(Provenance::tag)
            .unwrap_or("unrecorded");
        let reason = d
            .reason()
            .map(|why| format!(" — {why}"))
            .unwrap_or_default();
        let _ = writeln!(s, "  adjoint of `{arr}`: {} [{tag}]{reason}", d.phrase());
    }
    if r.stats.unknowns > 0 || r.recovered_panics > 0 {
        let _ = writeln!(
            s,
            "  prover health: {} unknown verdicts ({} deadline/cancel), {} panics recovered",
            r.stats.unknowns, r.stats.interrupts, r.recovered_panics
        );
    }
    if !r.safe_write_exprs.is_empty() {
        let _ = writeln!(s, "  known-safe write expressions:");
        for e in &r.safe_write_exprs {
            let _ = writeln!(s, "    ({e})");
        }
    }
    for e in &r.rejected_exprs {
        let _ = writeln!(s, "  rejected adjoint expression: ({e})");
    }
    for w in &r.warnings {
        let _ = writeln!(s, "  warning: {w}");
    }
    s
}

/// Full report over all regions.
pub fn full_report(name: &str, a: &FormadAnalysis) -> String {
    let mut s = format!("FormAD analysis of `{name}`\n");
    for r in &a.regions {
        s.push_str(&region_report(r));
    }
    if a.regions.is_empty() {
        s.push_str("  (no parallel regions)\n");
    }
    if a.degraded() {
        s.push_str(
            "  note: some arrays kept safeguards due to resource limits or \
             recovered prover faults (correctness unaffected; only speed)\n",
        );
    }
    s
}
