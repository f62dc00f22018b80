//! A long-lived, shareable pipeline engine.
//!
//! The one-shot CLI builds its state per invocation and throws it away.
//! A service cannot afford that: the whole point of a resident daemon is
//! that the 102nd user's stencil is answered in microseconds because the
//! first user's verdicts are still warm. [`SharedEngine`] is the seam
//! between the two worlds: it owns the one shared store — the
//! region-fingerprint index ([`crate::fingerprint`]) — and every pipeline
//! entry point, one-shot [`Formad`](crate::Formad) methods included, runs
//! *through* it rather than constructing state inline.
//!
//! Two execution modes:
//!
//! - **direct** ([`SharedEngine::analyze`] /
//!   [`SharedEngine::differentiate`]): definite region outcomes land
//!   straight in the shared index. This is the one-shot path.
//! - **isolated** ([`SharedEngine::analyze_isolated`] /
//!   [`SharedEngine::differentiate_isolated`]): the request runs against
//!   a private [`overlay`](FingerprintIndex::overlay) of the shared
//!   index. On success the overlay is absorbed (published); on error —
//!   or if the pipeline panics and unwinds through the call — the
//!   overlay is dropped and the shared index is untouched. A
//!   multi-tenant daemon uses this so a poisoned request cannot leak
//!   half-finished state into every later request's lookups.
//!
//! The execution side has an analogue of this store: the process-wide
//! AOT kernel registry in `formad-machine`'s `aot` module, which
//! memoizes compiled native kernels (keyed by generated-source hash, on
//! disk and in-process) the same way this engine memoizes region
//! verdicts, so a daemon's repeat `exec` requests skip `rustc` exactly
//! like its repeat `prove` requests skip the solver.

use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

use formad_ad::{
    differentiate, differentiate_validated, Adjoint, AdjointOptions, IncMode, ParallelTreatment,
};
use formad_analysis::Activity;
use formad_ir::Program;
use formad_smt::SolverStats;

use crate::fingerprint::{region_fingerprint, FingerprintIndex, RegionRecord};
use crate::pipeline::{DiffResult, FormadAnalysis, FormadError, FormadErrorKind, FormadOptions};
use crate::region::{analyze_region, decision_event, Decision, RegionAnalysis};
use crate::trace::TraceEvent;

/// Shared pipeline state: the region-fingerprint index that serves
/// unchanged regions' whole decision sets. Cloning is cheap and shares
/// the index (it is a handle), so one engine can serve any number of
/// threads.
#[derive(Debug, Clone, Default)]
pub struct SharedEngine {
    fingerprints: Option<FingerprintIndex>,
}

impl SharedEngine {
    /// An engine with a fresh, empty fingerprint index.
    pub fn new() -> SharedEngine {
        SharedEngine {
            fingerprints: Some(FingerprintIndex::new()),
        }
    }

    /// An engine whose fingerprint index is durable under `dir` (see
    /// [`crate::fingerprint`]): region outcomes proved by this engine
    /// survive the process, and a restarted engine over the same
    /// directory answers warm. Never fails — a missing or corrupt
    /// directory degrades to cold state.
    pub fn with_cache_dir(dir: &Path) -> SharedEngine {
        SharedEngine {
            fingerprints: Some(FingerprintIndex::with_disk_dir(dir)),
        }
    }

    /// Adopt the fingerprint handle already configured in `options` —
    /// the one-shot constructor: whatever the caller wired into
    /// `options.region` *is* the engine's shared state.
    pub fn from_options(options: &FormadOptions) -> SharedEngine {
        SharedEngine {
            fingerprints: options.region.fingerprints.clone(),
        }
    }

    /// The shared fingerprint index, if one is attached.
    pub fn fingerprints(&self) -> Option<&FingerprintIndex> {
        self.fingerprints.as_ref()
    }

    /// Batch staged records to disk (no-op for in-memory engines).
    /// Returns the number of records written.
    pub fn flush_disk(&self) -> usize {
        self.fingerprints.as_ref().map_or(0, |f| f.flush())
    }

    /// Analysis with outcomes published directly to the shared index.
    pub fn analyze(
        &self,
        primal: &Program,
        options: &FormadOptions,
    ) -> Result<FormadAnalysis, FormadError> {
        run_analysis(primal, &with_index(options, self.fingerprints.clone()))
    }

    /// Full pipeline with outcomes published directly to the shared
    /// index.
    pub fn differentiate(
        &self,
        primal: &Program,
        options: &FormadOptions,
    ) -> Result<DiffResult, FormadError> {
        run_differentiate(primal, &with_index(options, self.fingerprints.clone()))
    }

    /// Analysis against a private overlay of the shared index: absorbed
    /// on success, rolled back (dropped) on error or unwind.
    pub fn analyze_isolated(
        &self,
        primal: &Program,
        options: &FormadOptions,
    ) -> Result<FormadAnalysis, FormadError> {
        self.isolated(options, |o| run_analysis(primal, o))
    }

    /// Full pipeline against a private overlay of the shared index:
    /// absorbed on success, rolled back (dropped) on error or unwind.
    pub fn differentiate_isolated(
        &self,
        primal: &Program,
        options: &FormadOptions,
    ) -> Result<DiffResult, FormadError> {
        self.isolated(options, |o| run_differentiate(primal, o))
    }

    /// Generate an adjoint with an explicit treatment, no prover
    /// involved. This is the always-safe fallback a service answers with
    /// when it sheds load: `ParallelTreatment::Uniform(IncMode::Atomic)`
    /// is correct for every program the validator accepts.
    pub fn adjoint_with(
        &self,
        primal: &Program,
        options: &FormadOptions,
        treatment: ParallelTreatment,
    ) -> Result<Program, FormadError> {
        Ok(differentiate(primal, &ad_options(options, treatment))?.program)
    }

    fn isolated<T>(
        &self,
        options: &FormadOptions,
        run: impl FnOnce(&FormadOptions) -> Result<T, FormadError>,
    ) -> Result<T, FormadError> {
        // On success the overlay is absorbed (which, on a disk-backed
        // base, also batches the new records to disk). If `run` unwinds,
        // the overlay is dropped without an absorb — rollback is the
        // no-op path.
        let overlay = self.fingerprints.as_ref().map(|f| f.overlay());
        let result = run(&with_index(options, overlay.clone()));
        if result.is_ok() {
            if let (Some(base), Some(ov)) = (&self.fingerprints, &overlay) {
                base.absorb(ov);
            }
        }
        result
    }
}

/// `options` with `fingerprints` as the index the regions read and write.
fn with_index(options: &FormadOptions, fingerprints: Option<FingerprintIndex>) -> FormadOptions {
    let mut o = options.clone();
    o.region.fingerprints = fingerprints;
    o
}

/// Derived `AdjointOptions` for a treatment under `options`' inputs and
/// outputs.
pub(crate) fn ad_options(options: &FormadOptions, treatment: ParallelTreatment) -> AdjointOptions {
    let indep: Vec<&str> = options.independents.iter().map(|s| s.as_str()).collect();
    let dep: Vec<&str> = options.dependents.iter().map(|s| s.as_str()).collect();
    AdjointOptions::new(&indep, &dep, treatment)
}

/// Enforce the optional global deadline: expiry is a hard pipeline
/// failure (exit 7 from the CLI), unlike `prover_timeout` whose expiry
/// degrades arrays and still succeeds.
pub(crate) fn check_deadline(options: &FormadOptions, stage: &str) -> Result<(), FormadError> {
    if let Some(d) = options.region.deadline {
        if d.expired() {
            return Err(FormadError::new(
                FormadErrorKind::Deadline,
                format!("global deadline expired before {stage} finished"),
            ));
        }
    }
    Ok(())
}

/// The analysis pipeline body (knowledge extraction + exploitation +
/// safeguard planning), run against exactly the fingerprint index wired
/// into `options.region.fingerprints`.
pub(crate) fn run_analysis(
    primal: &Program,
    options: &FormadOptions,
) -> Result<FormadAnalysis, FormadError> {
    analyze_front_end(primal, options).map(|(analysis, _)| analysis)
}

/// [`run_analysis`], also handing back the activity it computed on the
/// validated primal so the AD transform does not redo either step.
fn analyze_front_end(
    primal: &Program,
    options: &FormadOptions,
) -> Result<(FormadAnalysis, Activity), FormadError> {
    let sink = options.region.trace.as_ref();
    if let Some(s) = sink {
        s.record(TraceEvent::Pipeline {
            program: primal.name.clone(),
            independents: options.independents.clone(),
            dependents: options.dependents.clone(),
        });
    }
    let mark = Instant::now();
    formad_ir::validate_strict(primal)
        .map_err(|e| FormadError::validate(format!("invalid primal: {e}")))?;
    if let Some(s) = sink {
        s.record(TraceEvent::Phase {
            id: "phase/validate".to_string(),
            dur_us: mark.elapsed().as_micros() as u64,
        });
    }
    let mark = Instant::now();
    let activity = Activity::analyze(primal, &options.independents, &options.dependents);
    if let Some(s) = sink {
        s.record(TraceEvent::Phase {
            id: "phase/activity".to_string(),
            dur_us: mark.elapsed().as_micros() as u64,
        });
    }
    let mut regions = Vec::new();
    let mut maps: Vec<HashMap<String, IncMode>> = Vec::new();
    let mut stats = SolverStats::default();
    // Fingerprint serving is disabled under chaos: fault-injected
    // outcomes must not be replayed, and chaos suites must exercise the
    // prover itself.
    let fpi = options
        .region
        .fingerprints
        .as_ref()
        .filter(|_| options.region.chaos.is_none());
    for (k, l) in primal.parallel_loops().into_iter().enumerate() {
        let ra = match fpi {
            None => analyze_region(primal, l, k, &activity, &options.region),
            Some(idx) => {
                // A served region's time is fingerprint + lookup + replay.
                let mark = Instant::now();
                let fp = region_fingerprint(primal, l, &activity, &options.region);
                match idx.lookup(&fp) {
                    Some((rec, tier)) => serve_region(k, &fp, &rec, tier, &options.region, mark),
                    None => {
                        let ra = analyze_region(primal, l, k, &activity, &options.region);
                        if let Some(rec) = RegionRecord::from_analysis(&ra) {
                            idx.insert(fp, rec);
                        }
                        ra
                    }
                }
            }
        };
        let mut map = HashMap::new();
        for (arr, d) in &ra.decisions {
            map.insert(
                arr.clone(),
                match d {
                    Decision::Shared => IncMode::Plain,
                    Decision::Transposed(_) => IncMode::Transposed,
                    Decision::Guarded(_) => IncMode::Atomic,
                },
            );
        }
        stats.merge(&ra.stats);
        maps.push(map);
        regions.push(ra);
    }
    check_deadline(options, "analysis")?;
    let analysis = FormadAnalysis {
        regions,
        plan: ParallelTreatment::PerArray(maps),
        stats,
        adjoint: None,
    };
    Ok((analysis, activity))
}

/// Replay a fingerprint-served region: reconstitute its analysis from
/// the recorded decision set and emit the trace shape of a served region
/// (`region-begin`, `region-served`, the replayed `decision`s in sorted
/// array order, `region-end`) — no model, no queries. `mark` was taken
/// before the region was fingerprinted, so the served duration covers
/// fingerprint, lookup and replay.
fn serve_region(
    region: usize,
    fp: &str,
    rec: &RegionRecord,
    tier: crate::fingerprint::FpTier,
    opts: &crate::region::RegionOptions,
    mark: Instant,
) -> RegionAnalysis {
    let mut ra = rec.to_analysis(region, Duration::ZERO);
    if let Some(s) = opts.trace.as_ref() {
        s.record(TraceEvent::RegionBegin {
            region,
            loop_var: rec.loop_var.clone(),
            loc: rec.loc,
        });
        s.record(TraceEvent::RegionServed {
            region,
            fingerprint: fp.to_string(),
            tier: tier.label().to_string(),
            arrays: rec.decisions.len(),
            dur_us: mark.elapsed().as_micros() as u64,
        });
        for (arr, d, p) in &rec.decisions {
            s.record(decision_event(region, arr, d, *p));
        }
        s.record(TraceEvent::RegionEnd {
            region,
            queries: rec.queries,
            warnings: rec.warnings.len(),
            dur_us: mark.elapsed().as_micros() as u64,
        });
    }
    ra.time = mark.elapsed();
    ra
}

/// The full pipeline body: analysis + reverse-mode transformation with
/// the derived per-array plan.
pub(crate) fn run_differentiate(
    primal: &Program,
    options: &FormadOptions,
) -> Result<DiffResult, FormadError> {
    let (mut analysis, activity) = analyze_front_end(primal, options)?;
    let mark = Instant::now();
    let ad_opts = ad_options(options, analysis.plan.clone());
    let Adjoint {
        program: adjoint,
        stats,
        regions,
    } = differentiate_validated(primal, &ad_opts, activity)?;
    if let Some(s) = options.region.trace.as_ref() {
        s.record(TraceEvent::Phase {
            id: "phase/ad".to_string(),
            dur_us: mark.elapsed().as_micros() as u64,
        });
        // What the transformation kept of the forward sweep and the
        // tape: the whole program, then each parallel region.
        s.record(TraceEvent::Adjoint {
            region: None,
            stats: stats.clone(),
        });
        for (k, stats) in regions.into_iter().enumerate() {
            s.record(TraceEvent::Adjoint {
                region: Some(k),
                stats,
            });
        }
    }
    check_deadline(options, "differentiation")?;
    analysis.adjoint = Some(stats);
    Ok(DiffResult { adjoint, analysis })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Formad;
    use formad_ir::parse_program;

    const FIG2: &str = r#"
subroutine fig2(n, x, y, c)
  integer, intent(in) :: n
  real, intent(in) :: x(n)
  real, intent(inout) :: y(n)
  integer, intent(in) :: c(n)
  integer :: i
  !$omp parallel do shared(x, y, c)
  do i = 1, n
    y(c(i)) = x(c(i) + 7)
  end do
end subroutine
"#;

    fn opts() -> FormadOptions {
        FormadOptions::new(&["x"], &["y"])
    }

    #[test]
    fn direct_mode_publishes_to_the_shared_index() {
        let primal = parse_program(FIG2).unwrap();
        let engine = SharedEngine::new();
        let a = engine.analyze(&primal, &opts()).unwrap();
        assert!(a.all_safe());
        assert!(a.stats.checks > 0);
        // A second run against the same engine is served whole: no
        // prover check at all, and the verdicts agree.
        let b = engine.analyze(&primal, &opts()).unwrap();
        assert!(b.all_safe());
        assert_eq!(b.stats.checks, 0);
        assert_eq!(engine.fingerprints().unwrap().stats().hits, 1);
    }

    #[test]
    fn served_region_duration_covers_the_fingerprint() {
        // A region long enough that printing it for the fingerprint takes
        // whole microseconds, which is the unit the event records.
        let mut src = String::from(
            "subroutine wide(n, x, y)\n  integer, intent(in) :: n\n  \
             real, intent(in) :: x(n + 400)\n  real, intent(inout) :: y(n)\n  \
             integer :: i\n  !$omp parallel do shared(x, y)\n  do i = 1, n\n",
        );
        for k in 0..400 {
            src.push_str(&format!("    y(i) = y(i) + {k}.5 * x(i + {k})\n"));
        }
        src.push_str("  end do\nend subroutine\n");
        let primal = parse_program(&src).unwrap();
        let engine = SharedEngine::new();
        engine.analyze(&primal, &opts()).unwrap();

        let mut traced = opts();
        let sink = crate::trace::TraceSink::new();
        traced.region.trace = Some(sink.clone());
        let served = engine.analyze(&primal, &traced).unwrap();
        assert_eq!(served.stats.checks, 0);
        let events = sink.snapshot();
        let served_us = events.iter().find_map(|e| match e {
            TraceEvent::RegionServed { dur_us, .. } => Some(*dur_us),
            _ => None,
        });
        let end_us = events.iter().find_map(|e| match e {
            TraceEvent::RegionEnd { dur_us, .. } => Some(*dur_us),
            _ => None,
        });
        let served_us = served_us.expect("the region is fingerprint-served");
        assert!(
            served_us > 0,
            "served in {served_us} us: fingerprint not timed"
        );
        assert!(end_us.expect("region-end") >= served_us);
        assert!(served.regions[0].time.as_micros() as u64 >= served_us);
    }

    #[test]
    fn isolated_mode_absorbs_on_success() {
        let primal = parse_program(FIG2).unwrap();
        let engine = SharedEngine::new();
        let a = engine.analyze_isolated(&primal, &opts()).unwrap();
        assert!(a.all_safe());
        // What the request proved is now in the shared base, not
        // stranded in a dropped overlay.
        assert_eq!(engine.fingerprints().unwrap().len(), 1);
    }

    #[test]
    fn isolated_mode_rolls_back_on_error() {
        let engine = SharedEngine::new();
        let primal = parse_program(FIG2).unwrap();
        let mut o = opts();
        // Pre-expired deadline: the pipeline fails with a hard Deadline
        // error after the region loop; nothing may be published.
        o.region.deadline = Some(formad_smt::Deadline::in_ms(0));
        let err = engine.analyze_isolated(&primal, &o).unwrap_err();
        assert_eq!(err.kind, FormadErrorKind::Deadline);
        assert!(engine.fingerprints().unwrap().is_empty());
    }

    #[test]
    fn formad_entry_points_ride_the_engine() {
        // The one-shot API is a thin shim over SharedEngine: same handle,
        // same verdicts.
        let primal = parse_program(FIG2).unwrap();
        let tool = Formad::new(opts());
        let direct = tool.analyze(&primal).unwrap();
        let engine = SharedEngine::from_options(&tool.options);
        let via_engine = engine.analyze(&primal, &tool.options).unwrap();
        assert_eq!(direct.all_safe(), via_engine.all_safe());
        assert_eq!(
            direct.discipline_map(),
            via_engine.discipline_map(),
            "engine and one-shot disagree on disciplines"
        );
    }
}
