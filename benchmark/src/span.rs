//! Spans recorded from the benchmark's side of each layer boundary.
//!
//! A span is `name, start_us, end_us, parent, id`: the name is
//! `layer.what` (the layer is the crate's module name), `parent` the
//! span that caused it, `id` the pass or request it belongs to. Spans
//! stay in memory and are written out once, when the run ends. A layer's
//! self time is its span minus the part its children cover, so the rows
//! of a [`Ledger`] plus `unattributed` add up to the root spans exactly.
//!
//! *Derived* spans carry a duration the pipeline itself measured and
//! published through the already-public `RegionOptions::trace` sink
//! (phases, per-query times). They have no start of their own, so they
//! are laid end to end from their parent's start and flagged as derived.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub id: u64,
    pub derived: bool,
    /// End of the last child laid under this span (derived children
    /// start here).
    cursor_us: f64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// The span recorder of one run. Spans another thread timed are added
/// with [`Tracer::record`].
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    id: u64,
}

/// Self time per span name under a set of root spans.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Root spans found.
    pub roots: usize,
    /// Summed duration of the root spans, microseconds.
    pub total_us: f64,
    /// Summed self time per non-root span name, microseconds.
    pub rows: BTreeMap<String, f64>,
    /// Self time of the root spans themselves: time inside a pass that
    /// no layer span covers.
    pub unattributed_us: f64,
}

impl Ledger {
    /// Mean seconds per root span spent in `name` (0 if it never ran).
    pub fn per_root_s(&self, name: &str) -> f64 {
        self.rows.get(name).copied().unwrap_or(0.0) / 1e6 / self.roots.max(1) as f64
    }

    pub fn unattributed_share(&self) -> f64 {
        if self.total_us > 0.0 {
            self.unattributed_us / self.total_us
        } else {
            0.0
        }
    }
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            id: 0,
        }
    }

    /// The pass or request the following spans belong to.
    pub fn set_id(&mut self, id: u64) {
        self.id = id;
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    pub fn enter(&mut self, name: &str) -> usize {
        let now = self.now_us();
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_us: now,
            end_us: now,
            parent: self.open.last().copied(),
            id: self.id,
            derived: false,
            cursor_us: now,
        });
        self.open.push(idx);
        idx
    }

    pub fn exit(&mut self, idx: usize) {
        let now = self.now_us();
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans must close innermost first");
        self.spans[idx].end_us = now;
        if let Some(p) = self.spans[idx].parent {
            self.spans[p].cursor_us = now;
        }
    }

    /// Time `f` under a span.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.enter(name);
        let r = f(self);
        self.exit(idx);
        r
    }

    /// Add a span another thread timed: it started at `start` and took
    /// `dur_s` seconds.
    pub fn record(
        &mut self,
        name: &str,
        start: Instant,
        dur_s: f64,
        parent: Option<usize>,
    ) -> usize {
        let start_us = start.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us: start_us + dur_s * 1e6,
            parent,
            id: self.id,
            derived: false,
            cursor_us: start_us,
        });
        idx
    }

    /// Attach a derived child of `dur_us` under `parent` (a span index
    /// returned by [`Tracer::enter`] or by this function).
    pub fn derived(&mut self, parent: usize, name: &str, dur_us: f64) -> usize {
        let start = self.spans[parent].cursor_us;
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_us: start,
            end_us: start + dur_us,
            parent: Some(parent),
            id: self.spans[parent].id,
            derived: true,
            cursor_us: start,
        });
        self.spans[parent].cursor_us = start + dur_us;
        idx
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self times under every span named `root`.
    pub fn ledger(&self, root: &str) -> Ledger {
        let mut child_us = vec![0.0f64; self.spans.len()];
        // A span is under a root iff its chain of parents reaches one;
        // parents precede children, so one forward sweep settles it.
        let mut under = vec![false; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            under[i] = s.name == root || s.parent.is_some_and(|p| under[p]);
            if let Some(p) = s.parent {
                child_us[p] += s.dur_us();
            }
        }
        let mut l = Ledger::default();
        for (i, s) in self.spans.iter().enumerate() {
            if !under[i] {
                continue;
            }
            let self_us = s.dur_us() - child_us[i];
            if s.name == root {
                l.roots += 1;
                l.total_us += s.dur_us();
                l.unattributed_us += self_us;
            } else {
                *l.rows.entry(s.name.clone()).or_insert(0.0) += self_us;
            }
        }
        l
    }

    /// The trace file: one JSON object, spans in recording order.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(
            out,
            "{{\"schema\":\"formad-benchmark-trace/v1\",\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"id\":{},\"derived\":{}}}",
                s.name, s.start_us, s.end_us, s.id, s.derived
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_rows_plus_unattributed_equal_the_roots() {
        let mut t = Tracer::new(Instant::now());
        for pass in 0..3 {
            t.set_id(pass);
            t.span("pass", |t| {
                t.span("ir.parse", |_| std::hint::black_box((0..2000).sum::<u64>()));
                let a = t.enter("core.analyze");
                let prove = t.derived(a, "core.region_prove", 5.0);
                t.derived(prove, "smt.query", 3.0);
                t.exit(a);
            });
        }
        t.span("setup", |_| ());
        let l = t.ledger("pass");
        assert_eq!(l.roots, 3);
        assert!(l.rows.contains_key("smt.query") && !l.rows.contains_key("setup"));
        let rows: f64 = l.rows.values().sum();
        assert!((rows + l.unattributed_us - l.total_us).abs() < 1e-6);
        assert!((l.rows["smt.query"] - 9.0).abs() < 1e-6);
        assert!((l.rows["core.region_prove"] - 6.0).abs() < 1e-6);
    }
}
