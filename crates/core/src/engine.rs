//! A long-lived, shareable pipeline engine.
//!
//! The one-shot CLI builds its state per invocation and throws it away.
//! A service cannot afford that: the whole point of a resident daemon is
//! that the 102nd user's stencil is answered in microseconds because the
//! first user's verdicts are still warm. [`SharedEngine`] is the seam
//! between the two worlds: it owns the one shared store — the
//! region-fingerprint index ([`crate::fingerprint`]) — and hands it to
//! every run. One-shot [`Formad`](crate::Formad) methods run on an
//! engine with no index.
//!
//! A run publishes each definite region the moment its analysis returns,
//! also when the run fails later. That is safe because a region's
//! verdict set depends on that region alone; see the fingerprint
//! module's note on request isolation.
//!
//! The execution side has an analogue of this store: the process-wide
//! AOT kernel registry in `formad-machine`'s `aot` module, which
//! memoizes compiled native kernels (keyed by generated-source hash, on
//! disk and in-process) the same way this engine memoizes region
//! verdicts, so a daemon's repeat `exec` requests skip `rustc` exactly
//! like its repeat `prove` requests skip the solver.

use std::collections::{BTreeSet, HashMap};
use std::path::Path;
use std::time::{Duration, Instant};

use formad_ad::{
    differentiate, differentiate_validated, Adjoint, AdjointOptions, IncMode, ParallelTreatment,
};
use formad_analysis::Activity;
use formad_ir::{Name, Program, Stmt};
use formad_smt::SolverStats;

use crate::fingerprint::{region_fingerprint, FingerprintIndex, RegionRecord};
use crate::pipeline::{DiffResult, FormadAnalysis, FormadError, FormadErrorKind, FormadOptions};
use crate::region::{analyze_region, decision_event, Decision, Provenance, RegionAnalysis};
use crate::trace::TraceEvent;

/// Shared pipeline state: the region-fingerprint index that serves
/// unchanged regions' whole decision sets. Cloning is cheap and shares
/// the index (it is a handle), so one engine can serve any number of
/// threads. `SharedEngine::default()` has no index and analyzes every
/// region.
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

    /// The shared fingerprint index, if one is attached.
    pub fn fingerprints(&self) -> Option<&FingerprintIndex> {
        self.fingerprints.as_ref()
    }

    /// Batch staged records to disk (no-op for in-memory engines).
    /// Returns the number of records written.
    pub fn flush_disk(&self) -> usize {
        self.fingerprints.as_ref().map_or(0, |f| f.flush())
    }

    /// Run the analysis (knowledge extraction + exploitation +
    /// safeguard planning) against the shared index.
    pub fn analyze(
        &self,
        primal: &Program,
        options: &FormadOptions,
    ) -> Result<FormadAnalysis, FormadError> {
        analyze_front_end(primal, options, self.fingerprints.as_ref()).map(|(a, _)| a)
    }

    /// Full pipeline against the shared index: analysis + reverse-mode
    /// transformation with the derived per-array plan. Each parallel loop
    /// of the adjoint carries its region's proof set
    /// (`ParallelInfo::proved`, see `attach_proofs`); this is the one
    /// path that fills it.
    pub fn differentiate(
        &self,
        primal: &Program,
        options: &FormadOptions,
    ) -> Result<DiffResult, FormadError> {
        let (mut analysis, activity) =
            analyze_front_end(primal, options, self.fingerprints.as_ref())?;
        let mark = Instant::now();
        let ad_opts = ad_options(options, analysis.plan.clone());
        let Adjoint {
            program: mut adjoint,
            stats,
            regions,
            loop_regions,
        } = differentiate_validated(primal, &ad_opts, activity)?;
        let suffix = &ad_opts.adjoint_suffix;
        attach_proofs(
            &mut adjoint,
            primal,
            &analysis.regions,
            &loop_regions,
            suffix,
        );
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

    /// Generate an adjoint with an explicit treatment, no prover
    /// involved. This is the always-safe fallback a service answers with
    /// when it sheds load: `ParallelTreatment::Uniform(IncMode::Atomic)`
    /// is correct for every program the validator accepts. No treatment
    /// is a proof, `Uniform(Plain)` included: the adjoint's proof sets
    /// stay empty.
    pub fn adjoint_with(
        &self,
        primal: &Program,
        options: &FormadOptions,
        treatment: ParallelTreatment,
    ) -> Result<Program, FormadError> {
        Ok(differentiate(primal, &ad_options(options, treatment))?.program)
    }
}

/// Give each parallel loop of `adjoint` the proof set of the primal
/// region it comes from (`loop_regions`, pre-order): the adjoint `ab` of
/// every array `a` whose decision there is `Shared` or `Transposed` with
/// provenance `Proved`. A fingerprint-served region replays its recorded
/// provenance, and the index holds definite regions only. An adjoint
/// array is declared by the adjoint and not by the primal, so a primal
/// array that happens to be called `ab` never gets a proof.
fn attach_proofs(
    adjoint: &mut Program,
    primal: &Program,
    regions: &[RegionAnalysis],
    loop_regions: &[usize],
    suffix: &str,
) {
    // (primal name, adjoint array), once for every region.
    let adjoints: Vec<(&str, &Name)> = adjoint
        .decls()
        .filter_map(|d| Some((d.name.strip_suffix(suffix)?, d)))
        .filter(|(_, d)| d.is_array() && primal.decl(&d.name).is_none())
        .map(|(a, d)| (a, &d.name))
        .collect();
    let proofs: Vec<BTreeSet<Name>> = regions
        .iter()
        .map(|ra| {
            let proved = ra.provenance.iter().filter(|(a, p)| {
                **p == Provenance::Proved
                    && matches!(
                        ra.decisions.get(a.as_str()),
                        Some(Decision::Shared | Decision::Transposed(_))
                    )
            });
            let adjoint_of = |a: &String| adjoints.iter().find(|(p, _)| p == a);
            proved
                .filter_map(|(a, _)| Some(adjoint_of(a)?.1.clone()))
                .collect()
        })
        .collect();
    let mut next = loop_regions.iter().map(|&k| proofs.get(k));
    if stamp_proofs(&mut adjoint.body, &mut next) != loop_regions.len() {
        // The loops and their regions disagree: no loop keeps a proof.
        stamp_proofs(&mut adjoint.body, &mut std::iter::repeat(None));
    }
}

/// Set the proof set of each parallel loop of `body`, in pre-order, to
/// the next one `next` yields (`None`: no proof). Returns the number of
/// parallel loops.
fn stamp_proofs<'a>(
    body: &mut [Stmt],
    next: &mut impl Iterator<Item = Option<&'a BTreeSet<Name>>>,
) -> usize {
    let mut loops = 0;
    for s in body {
        match s {
            Stmt::For(l) => {
                if let Some(info) = &mut l.parallel {
                    info.proved = next.next().flatten().cloned().unwrap_or_default();
                    loops += 1;
                }
                loops += stamp_proofs(&mut l.body, next);
            }
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                loops += stamp_proofs(then_body, next);
                loops += stamp_proofs(else_body, next);
            }
            _ => {}
        }
    }
    loops
}

/// Derived `AdjointOptions` for a treatment under `options`' inputs and
/// outputs.
fn ad_options(options: &FormadOptions, treatment: ParallelTreatment) -> AdjointOptions {
    let indep: Vec<&str> = options.independents.iter().map(|s| s.as_str()).collect();
    let dep: Vec<&str> = options.dependents.iter().map(|s| s.as_str()).collect();
    AdjointOptions::new(&indep, &dep, treatment)
}

/// Enforce the optional global deadline: expiry is a hard pipeline
/// failure (exit 7 from the CLI), unlike `prover_timeout` whose expiry
/// degrades arrays and still succeeds.
fn check_deadline(options: &FormadOptions, stage: &str) -> Result<(), FormadError> {
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

/// The analysis pipeline body against `index`, also handing back the
/// activity it computed on the validated primal so the AD transform does
/// not redo either step.
fn analyze_front_end(
    primal: &Program,
    options: &FormadOptions,
    index: Option<&FingerprintIndex>,
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
    let index = index.filter(|_| options.region.chaos.is_none());
    for (k, l) in primal.parallel_loops().into_iter().enumerate() {
        let ra = match index {
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

    /// A tiny region, then one with `k` strided statements whose proof
    /// dominates the run.
    fn tiny_then_long(k: usize) -> String {
        let mut src = format!(
            "subroutine two(n, x, y, z)\n  integer, intent(in) :: n\n  \
             real, intent(in) :: x({k} * n + {k})\n  real, intent(inout) :: y({k} * n + {k})\n  \
             real, intent(inout) :: z(n)\n  integer :: i\n  \
             !$omp parallel do shared(x, z)\n  do i = 1, n\n    z(i) = z(i) + x(i)\n  end do\n  \
             !$omp parallel do shared(x, y)\n  do i = 1, n\n"
        );
        for j in 0..k {
            src.push_str(&format!("    y({k} * i + {j}) = 2.0 * x({k} * i + {j})\n"));
        }
        src.push_str("  end do\nend subroutine\n");
        src
    }

    #[test]
    fn a_deadline_failure_leaves_the_engine_answering_like_a_cold_run() {
        let primal = parse_program(&tiny_then_long(40)).unwrap();
        let o = FormadOptions::new(&["x"], &["y", "z"]);
        let report = |mut a: FormadAnalysis| {
            for r in &mut a.regions {
                r.time = Duration::ZERO;
            }
            crate::report::full_report(&primal.name, &a)
        };
        // The second of two cold runs is timed, so first-run costs do not
        // stretch the deadline below.
        let cold_run = || {
            let started = Instant::now();
            let a = Formad::new(o.clone()).analyze(&primal).unwrap();
            (a, started.elapsed())
        };
        cold_run();
        let (cold, cold_time) = cold_run();

        // The deadline expires a third of the way into the run: inside the
        // long region, after the tiny one has settled (definite, barring a
        // scheduling stall), so the run fails with regions of both kinds.
        let engine = SharedEngine::new();
        let mut failing = o.clone();
        failing.region.deadline = Some(formad_smt::Deadline::after(cold_time / 3));
        let err = engine.analyze(&primal, &failing).unwrap_err();
        assert_eq!(err.kind, FormadErrorKind::Deadline);

        // The failed run published its definite regions only, and a clean
        // run on the same engine serves them and reports exactly what a
        // cold run does.
        let index = engine.fingerprints().unwrap();
        let published = index.len();
        assert!(published < 2, "the long region timed out");
        let clean = engine.analyze(&primal, &o).unwrap();
        assert_eq!(index.stats().hits, published as u64);
        assert_eq!(report(clean), report(cold));
    }

    /// The proof sets of each parallel loop of an adjoint, in pre-order.
    fn proofs(p: &Program) -> Vec<Vec<String>> {
        p.parallel_loops()
            .iter()
            .map(|l| {
                let info = l.parallel.as_ref().expect("a parallel loop");
                info.proved.iter().map(|n| n.to_string()).collect()
            })
            .collect()
    }

    #[test]
    fn only_the_analysis_fills_proof_sets() {
        let primal = parse_program(FIG2).unwrap();
        let engine = SharedEngine::new();
        let cold = engine.differentiate(&primal, &opts()).unwrap().adjoint;
        assert_eq!(proofs(&cold), [["xb", "yb"]]);
        // A fingerprint-served region replays its `Proved` verdicts.
        let served = engine.differentiate(&primal, &opts()).unwrap();
        assert_eq!(served.analysis.stats.checks, 0);
        assert_eq!(proofs(&served.adjoint), [["xb", "yb"]]);
        // An explicit treatment is no proof, not even a uniform plain one.
        for mode in [IncMode::Plain, IncMode::Atomic] {
            let adj = engine
                .adjoint_with(&primal, &opts(), ParallelTreatment::Uniform(mode))
                .unwrap();
            assert_eq!(proofs(&adj), [Vec::<String>::new()]);
        }
    }

    #[test]
    fn formad_entry_points_ride_the_engine() {
        // The one-shot API is an engine with no index: same verdicts.
        let primal = parse_program(FIG2).unwrap();
        let tool = Formad::new(opts());
        let direct = tool.analyze(&primal).unwrap();
        let engine = SharedEngine::new();
        let via_engine = engine.analyze(&primal, &tool.options).unwrap();
        assert_eq!(direct.all_safe(), via_engine.all_safe());
        assert_eq!(
            direct.discipline_map(),
            via_engine.discipline_map(),
            "engine and one-shot disagree on disciplines"
        );
    }
}
