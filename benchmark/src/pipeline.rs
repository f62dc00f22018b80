//! The analysis pipeline as a user drives it — source text in, adjoint
//! source and report out — stepped through the crates' public functions
//! so each call can sit under a span.

use std::collections::BTreeMap;

use formad::{
    Decision, DiffResult, Formad, FormadAnalysis, FormadOptions, SharedEngine, TraceEvent,
    TraceSink,
};
use formad_ir::{parse_any, program_to_string, Program};

use crate::inputs::Input;
use crate::span::Tracer;

/// What one program's pipeline run produced.
#[derive(Debug)]
pub struct Product {
    pub analysis: FormadAnalysis,
    pub adjoint: Program,
    pub adjoint_source: String,
}

/// Pipeline options of every gated run: in-line proving (`jobs = 1`; on
/// this host `jobs = nproc` measured slower, see README), a fresh proof
/// cache per program, no fingerprint index.
pub fn options(input: &Input) -> FormadOptions {
    let wrt: Vec<&str> = input.wrt.iter().map(String::as_str).collect();
    let of: Vec<&str> = input.of.iter().map(String::as_str).collect();
    let mut o = FormadOptions::new(&wrt, &of);
    o.region.jobs = 1;
    o
}

/// parse → (validate → activity → prove → AD transform) → print.
/// With an `engine` the middle step runs against its shared cache and
/// fingerprint index; without, against the fresh cache in the options.
/// With a `tracer`, each call gets a span and the phases the pipeline
/// publishes through the trace sink become derived children.
pub fn differentiate(
    input: &Input,
    engine: Option<&SharedEngine>,
    mut tracer: Option<&mut Tracer>,
) -> Result<Product, String> {
    let mut opts = options(input);
    let sink = tracer.as_ref().map(|_| TraceSink::new());
    opts.region.trace = sink.clone();

    let (primal, _) = spanned(&mut tracer, "ir.parse", || parse_any(&input.source));
    let primal = primal.map_err(|e| format!("{}: parse: {e}", input.name))?;

    let (diff, span) = spanned(&mut tracer, "core.differentiate", || match engine {
        Some(e) => e.differentiate(&primal, &opts),
        None => Formad::new(opts).differentiate(&primal),
    });
    if let (Some(t), Some(span), Some(sink)) = (tracer.as_mut(), span, &sink) {
        derive_spans(t, span, &sink.snapshot());
    }
    let DiffResult { adjoint, analysis } =
        diff.map_err(|e| format!("{}: differentiate: {e}", input.name))?;

    let (adjoint_source, _) = spanned(&mut tracer, "ir.print", || program_to_string(&adjoint));
    Ok(Product {
        analysis,
        adjoint,
        adjoint_source,
    })
}

/// Run `f`, under a span when tracing; returns the span's index.
pub fn spanned<R>(
    tracer: &mut Option<&mut Tracer>,
    name: &str,
    f: impl FnOnce() -> R,
) -> (R, Option<usize>) {
    match tracer {
        Some(t) => {
            let i = t.enter(name);
            let r = f();
            t.exit(i);
            (r, Some(i))
        }
        None => (f(), None),
    }
}

/// Turn the sink's phase and query durations into derived spans under
/// the `core.differentiate` span `parent`, named by the layer that did
/// the work.
fn derive_spans(t: &mut Tracer, parent: usize, events: &[TraceEvent]) {
    let mut query_us: BTreeMap<usize, f64> = BTreeMap::new();
    for e in events {
        match e {
            TraceEvent::Query { region, perf, .. } => {
                *query_us.entry(*region).or_insert(0.0) += perf.dur_us as f64;
            }
            TraceEvent::RegionServed { dur_us, .. } => {
                t.derived(parent, "core.fingerprint_serve", *dur_us as f64);
            }
            TraceEvent::Phase { id, dur_us } => {
                let dur = *dur_us as f64;
                match id.split_once("/phase/") {
                    None => {
                        let name = match id.as_str() {
                            "phase/validate" => "ir.validate",
                            "phase/activity" => "analysis.activity",
                            "phase/ad" => "ad.transform",
                            other => other,
                        };
                        t.derived(parent, name, dur);
                    }
                    Some((_, "extract")) => {
                        t.derived(parent, "core.region_extract", dur);
                    }
                    Some((_, "validate")) => {
                        t.derived(parent, "core.race_check", dur);
                    }
                    Some((region, _prove)) => {
                        let k: usize = region.trim_start_matches('r').parse().unwrap_or(0);
                        let prove = t.derived(parent, "core.region_prove", dur);
                        t.derived(prove, "smt.query", query_us.remove(&k).unwrap_or(0.0));
                    }
                }
            }
            _ => {}
        }
    }
}

/// `(region, array) → verdict` in deterministic order, the form both the
/// hand-written expected file and the cross-pass comparison use.
pub fn verdicts(a: &FormadAnalysis) -> Vec<(usize, String, &'static str)> {
    let mut out = Vec::new();
    for (k, r) in a.regions.iter().enumerate() {
        let mut arrays: Vec<&String> = r.decisions.keys().collect();
        arrays.sort();
        for arr in arrays {
            let v = match r.decisions[arr] {
                Decision::Shared => "shared",
                Decision::Transposed(_) => "transposed",
                Decision::Guarded(_) => "guarded",
            };
            out.push((k, arr.clone(), v));
        }
    }
    out
}

/// `(proved, analysed)`: adjoint arrays that run without atomics
/// (`Shared` or `Transposed`) and all adjoint arrays analysed.
pub fn proved_counts(a: &FormadAnalysis) -> (u64, u64) {
    let vs = verdicts(a);
    let proved = vs.iter().filter(|(_, _, v)| *v != "guarded").count();
    (proved as u64, vs.len() as u64)
}
