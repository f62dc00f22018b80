//! The differential harness: run one generated case through the full
//! pipeline and cross-check every independent oracle pair.
//!
//! Checks, in order (the first failure wins — later checks often depend
//! on earlier artifacts):
//!
//! 1. `Pipeline` — `validate`, driver binding, and the reference
//!    `differentiate` call must succeed. A generated program is
//!    well-typed by construction, so any rejection is a bug in the
//!    generator or the pipeline.
//! 2. `RoundTrip` — the primal and the FormAD adjoint go through the
//!    printer and parser of every [`SourceFlavor`]: the print is a fixpoint
//!    (`print ∘ parse ∘ print = print`), the Fortran flavour returns the
//!    identical tree, and the primal routed through C analyses to the same
//!    report. (C is not held to tree identity: a commuted exact increment
//!    `y = e + y` prints as `y += e` and returns as `y = y + e`.)
//! 3. `Trace` — every collected proof trace must pass
//!    [`formad::validate_trace`].
//! 4. `Persistence` — a cold-then-warm pass against a durable tempdir
//!    cache must keep the report byte-identical, and when the cold pass
//!    decided everything (no unknowns, no recovered panics) the warm
//!    pass must do zero fresh lia calls: every region replays from the
//!    on-disk fingerprint index.
//! 5. `CrossCore` — the flat, presolve-free search core must produce
//!    the same report as the default one. An injected [`ChaosConfig`]
//!    poisons only this run, which is how the acceptance test proves
//!    the fuzzer catches an oracle bug.
//! 6. `Brute` — concrete adjoint footprints must not contradict a
//!    `Shared` verdict (see [`crate::footprint`]).
//! 7. `ExecBitwise` — primal and all four adjoint disciplines must
//!    satisfy the determinism contract ([`formad_machine::differential`])
//!    between sim and the AOT kernel (on the cases that build one) at
//!    every thread count: programs with no
//!    shared atomic increment bitwise on real OS workers, the others
//!    bitwise on one OS worker and within tolerance on real ones;
//!    reduction-free primals additionally bitwise across thread counts
//!    (guarded adjoints reassociate with the schedule, so cross-count
//!    identity is not an invariant for them).
//! 8. `Fd` — the FormAD adjoint must pass the dot-product test against
//!    central finite differences.

use std::fmt;

use formad::{
    full_report, trace_json, validate_trace, Decision, Formad, FormadAnalysis, FormadOptions,
    IncMode, ParallelTreatment, SearchCore, TraceSink,
};
use formad_ir::{validate, Program, SourceFlavor};
use formad_machine::{
    adjoint_bindings, check_cell, compile, dot_product_test, fill_real, load_or_compile, lower,
    Bindings, CellError, Compare, DotTest, EngineCache, Machine,
};
use formad_smt::ChaosConfig;

use crate::footprint::check_footprints;
use crate::grammar::FuzzCase;

/// Which oracle pair a divergence was found by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleId {
    /// validate / bind / differentiate rejected a generated program.
    Pipeline,
    /// Printer/parser fixpoint violated.
    RoundTrip,
    /// A proof trace failed `validate_trace`.
    Trace,
    /// Durable-cache warm pass changed the report or did fresh work.
    Persistence,
    /// The flat oracle and the default search core disagree.
    CrossCore,
    /// A `Shared` verdict contradicts the concrete adjoint footprint.
    Brute,
    /// Backends or thread counts disagree beyond the determinism contract.
    ExecBitwise,
    /// Adjoint-vs-finite-difference dot test failed.
    Fd,
}

impl OracleId {
    /// Stable spelling used in reproducer files and fuzz output.
    pub fn name(self) -> &'static str {
        match self {
            OracleId::Pipeline => "pipeline",
            OracleId::RoundTrip => "round-trip",
            OracleId::Trace => "trace",
            OracleId::Persistence => "persistence",
            OracleId::CrossCore => "cross-core",
            OracleId::Brute => "brute",
            OracleId::ExecBitwise => "exec-bitwise",
            OracleId::Fd => "fd",
        }
    }

    /// Inverse of [`OracleId::name`].
    pub fn parse(s: &str) -> Option<OracleId> {
        Some(match s {
            "pipeline" => OracleId::Pipeline,
            "round-trip" => OracleId::RoundTrip,
            "trace" => OracleId::Trace,
            "persistence" => OracleId::Persistence,
            "cross-core" => OracleId::CrossCore,
            "brute" => OracleId::Brute,
            "exec-bitwise" => OracleId::ExecBitwise,
            "fd" => OracleId::Fd,
            _ => return None,
        })
    }
}

impl fmt::Display for OracleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A cross-check failure: which oracle pair disagreed and how.
#[derive(Debug, Clone)]
pub struct Divergence {
    pub oracle: OracleId,
    pub detail: String,
}

impl Divergence {
    fn new(oracle: OracleId, detail: impl Into<String>) -> Divergence {
        Divergence {
            oracle,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.oracle, self.detail)
    }
}

/// Oracle tunables (`formad fuzz` maps its flags onto this).
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// Thread counts for the execution cross-check; the first entry is
    /// the reference schedule. The default, T ∈ {1, 2, 4}, puts the
    /// rank-ordered leg, the smallest real split and more logical threads
    /// than a 2-core host has cores beside sim.
    pub threads: Vec<usize>,
    /// Also build and run the AOT kernel (one `rustc` invocation per
    /// program — expensive; the harness samples it).
    pub check_aot: bool,
    /// Central-difference step for the dot-product test.
    pub fd_h: f64,
    /// Relative-error tolerance for the dot-product test.
    pub fd_tol: f64,
    /// Fault injection applied to the flat-oracle analysis run only. Used
    /// by tests to prove a poisoned oracle is caught.
    pub poison_legacy: Option<ChaosConfig>,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            threads: vec![1, 2, 4],
            check_aot: false,
            fd_h: 1e-6,
            fd_tol: 1e-4,
            poison_legacy: None,
        }
    }
}

/// Per-case result summary (feeds the deterministic fuzz output line).
#[derive(Debug, Clone, Copy, Default)]
pub struct CaseSummary {
    pub regions: usize,
    pub shared: usize,
    pub transposed: usize,
    pub guarded: usize,
    pub aot_checked: bool,
    /// Whether the cold persistence pass recorded every region (making
    /// the warm zero-lia invariant checkable for this case).
    pub persisted: bool,
}

/// Drop the only wall-clock-dependent token (the region time that ends
/// `… N queries, 0.123s` header lines) so reports compare bytewise.
pub fn strip_times(report: &str) -> String {
    report
        .lines()
        .map(|l| match l.split_once(" queries, ") {
            Some((head, _)) => format!("{head} queries"),
            None => l.to_string(),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// First line where `a` and `b` differ, for divergence details.
fn first_diff(what: &str, a: &str, b: &str) -> String {
    for (k, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        if la != lb {
            return format!("{what} differs at line {}: `{la}` vs `{lb}`", k + 1);
        }
    }
    format!(
        "{what} differs in length: {} vs {} lines",
        a.lines().count(),
        b.lines().count()
    )
}

fn options(case: &FuzzCase) -> FormadOptions {
    let wrt: Vec<&str> = case.wrt.iter().map(String::as_str).collect();
    let of: Vec<&str> = case.of.iter().map(String::as_str).collect();
    FormadOptions::new(&wrt, &of)
}

/// Does the dot-product test contradict the adjoint? Beyond `fd_tol`,
/// with one exemption: where the dependents' sum does not move with the
/// independents at all (`y = y + (x - (y + x))`, `y(c(i)) = x(i) - x(n+1-i)`
/// summed over a permutation) the adjoint is *exactly* 0 and the central
/// difference reads the round-off of its own two sums, a few ulps over
/// `h` (2–4e-10 on the three cases of a 10 000-case campaign) — noise,
/// not a disagreement. Anything the adjoint computes, however small, is
/// held to `fd_tol`.
fn fd_disagrees(dot: &DotTest, cfg: &OracleConfig) -> bool {
    let round_off =
        dot.adjoint_value == 0.0 && dot.fd_value.abs() <= 64.0 * f64::EPSILON / cfg.fd_h;
    !(dot.passes(cfg.fd_tol) || round_off)
}

/// Print `p` in `flavor` and read it back: the print must be a fixpoint,
/// and Fortran must return the identical tree. Returns what came back.
fn round_trip(flavor: SourceFlavor, what: &str, p: &Program) -> Result<Program, Divergence> {
    let fail = |detail: String| {
        let flavor = flavor.name();
        Divergence::new(OracleId::RoundTrip, format!("{what} ({flavor}): {detail}"))
    };
    let src = flavor.print(p);
    let back = flavor
        .parse(&src)
        .map_err(|e| fail(format!("re-parse failed: {e}")))?;
    let src2 = flavor.print(&back);
    if src2 != src {
        return Err(fail(first_diff("printed source", &src, &src2)));
    }
    if flavor == SourceFlavor::Fortran && back != *p {
        return Err(fail(
            "re-parsed tree differs behind an identical print".into(),
        ));
    }
    Ok(back)
}

/// One analysis run with the given knobs; returns the stripped report.
fn analyze_variant(
    case: &FuzzCase,
    core: SearchCore,
    chaos: Option<ChaosConfig>,
) -> Result<String, String> {
    let mut opts = options(case);
    opts.region.search_core = core;
    opts.region.chaos = chaos;
    let analysis = Formad::new(opts)
        .analyze(&case.program)
        .map_err(|e| e.to_string())?;
    Ok(strip_times(&full_report(&case.program.name, &analysis)))
}

/// Run every oracle over one case. `Err` is the first divergence found.
pub fn run_case(
    case: &FuzzCase,
    cfg: &OracleConfig,
    engines: &mut EngineCache,
) -> Result<CaseSummary, Divergence> {
    let prog = &case.program;

    // 1. The program must be well-typed.
    let errs = validate(prog);
    if !errs.is_empty() {
        return Err(Divergence::new(
            OracleId::Pipeline,
            format!("validate rejected the program: {}", errs[0]),
        ));
    }

    // 2. Printer/parser round trip of the primal, both flavours.
    round_trip(SourceFlavor::Fortran, "primal", prog)?;
    let c_routed = FuzzCase {
        program: round_trip(SourceFlavor::C, "primal", prog)?,
        ..case.clone()
    };

    // 3. Driver bindings.
    let base = case
        .bindings()
        .map_err(|e| Divergence::new(OracleId::Pipeline, format!("bind failed: {e}")))?;

    // 4. Reference analysis (default core, traced); the adjoint comes
    //    from a separate untraced pipeline run.
    let mut opts = options(case);
    let sink = TraceSink::new();
    opts.region.trace = Some(sink.clone());
    let analysis = Formad::new(opts)
        .analyze(prog)
        .map_err(|e| Divergence::new(OracleId::Pipeline, format!("analyze failed: {e}")))?;
    validate_trace(&trace_json(&sink.snapshot()))
        .map_err(|e| Divergence::new(OracleId::Trace, format!("reference trace invalid: {e}")))?;
    let ref_report = strip_times(&full_report(&prog.name, &analysis));
    let tool = Formad::new(options(case));
    let diff = tool
        .differentiate(prog)
        .map_err(|e| Divergence::new(OracleId::Pipeline, format!("differentiate failed: {e}")))?;

    // 2b. Round trip, continued: the adjoint, and the report of the primal
    //     that went through C.
    for flavor in SourceFlavor::ALL {
        round_trip(flavor, "adjoint", &diff.adjoint)?;
    }
    let c_report = analyze_variant(&c_routed, SearchCore::Presolved, None).map_err(|e| {
        let detail = format!("C-routed primal: analysis failed: {e}");
        Divergence::new(OracleId::RoundTrip, detail)
    })?;
    if c_report != ref_report {
        return Err(Divergence::new(
            OracleId::RoundTrip,
            first_diff("report (C-routed primal)", &ref_report, &c_report),
        ));
    }

    let mut summary = CaseSummary {
        regions: analysis.regions.len(),
        ..CaseSummary::default()
    };
    for r in &analysis.regions {
        for d in r.decisions.values() {
            match d {
                Decision::Shared => summary.shared += 1,
                Decision::Transposed(_) => summary.transposed += 1,
                Decision::Guarded(_) => summary.guarded += 1,
            }
        }
    }

    // 5. Persistence: cold-then-warm against a durable tempdir cache.
    //     The report must stay byte-identical in both passes, and a
    //     fully-decided cold pass (every region eligible for the
    //     fingerprint index) makes the warm pass free: zero lia calls.
    {
        let dir = std::env::temp_dir().join(format!(
            "formad-fuzz-cache-{}-{}-{}",
            std::process::id(),
            case.seed,
            case.id
        ));
        // The engine creates the directory owner-only, as the index's
        // trust rule wants whatever the umask.
        let _ = std::fs::remove_dir_all(&dir);
        let run_pass = |label: &str| -> Result<(FormadAnalysis, String), Divergence> {
            let engine = formad::SharedEngine::with_cache_dir(&dir);
            let a = engine.analyze(prog, &options(case)).map_err(|e| {
                Divergence::new(
                    OracleId::Persistence,
                    format!("{label} analysis failed: {e}"),
                )
            })?;
            engine.flush_disk();
            let report = strip_times(&full_report(&prog.name, &a));
            Ok((a, report))
        };
        let cold = run_pass("cold");
        let warm = cold.is_ok().then(|| run_pass("warm"));
        let _ = std::fs::remove_dir_all(&dir);
        let (cold_a, cold_report) = cold?;
        let (warm_a, warm_report) = warm.expect("warm pass ran")?;
        if cold_report != ref_report {
            return Err(Divergence::new(
                OracleId::Persistence,
                first_diff("report (cold persistent)", &ref_report, &cold_report),
            ));
        }
        if warm_report != ref_report {
            return Err(Divergence::new(
                OracleId::Persistence,
                first_diff("report (warm persistent)", &ref_report, &warm_report),
            ));
        }
        let replayable = cold_a
            .regions
            .iter()
            .all(|r| formad::RegionRecord::from_analysis(r).is_some());
        if replayable && warm_a.stats.lia_calls > 0 {
            return Err(Divergence::new(
                OracleId::Persistence,
                format!(
                    "warm pass did {} fresh lia calls over a fully-recorded \
                     cold cache",
                    warm_a.stats.lia_calls
                ),
            ));
        }
        summary.persisted = replayable;
    }

    // 6. Cross-core: the flat oracle (possibly poisoned) must agree.
    match analyze_variant(case, SearchCore::Flat, cfg.poison_legacy.clone()) {
        Ok(report) => {
            if report != ref_report {
                return Err(Divergence::new(
                    OracleId::CrossCore,
                    first_diff("report (flat vs presolved)", &ref_report, &report),
                ));
            }
        }
        Err(e) => {
            return Err(Divergence::new(
                OracleId::CrossCore,
                format!("flat-oracle analysis failed where the default succeeded: {e}"),
            ));
        }
    }

    // 7. Concrete footprints must not contradict `Shared`.
    check_footprints(prog, &base, &analysis, &case.wrt, &case.of)
        .map_err(|e| Divergence::new(OracleId::Brute, e))?;

    // 8. Execution: primal + four adjoint disciplines, each cell held to
    //    the determinism contract across backends; reduction-free primals
    //    bitwise across thread counts too.
    let atomic = tool
        .adjoint_with(prog, ParallelTreatment::Uniform(IncMode::Atomic))
        .map_err(|e| Divergence::new(OracleId::Pipeline, format!("atomic adjoint: {e}")))?;
    let reduction = tool
        .adjoint_with(prog, ParallelTreatment::Uniform(IncMode::Reduction))
        .map_err(|e| Divergence::new(OracleId::Pipeline, format!("reduction adjoint: {e}")))?;
    // Uniform(Transposed) transposes scatters where structurally safe and
    // falls back to atomics elsewhere — always a valid program, and the
    // compiled result says which class of the contract it is held to.
    let transposed = tool
        .adjoint_with(prog, ParallelTreatment::Uniform(IncMode::Transposed))
        .map_err(|e| Divergence::new(OracleId::Pipeline, format!("transposed adjoint: {e}")))?;
    let versions: Vec<(&str, &Program)> = vec![
        ("primal", prog),
        ("adj-formad", &diff.adjoint),
        ("adj-atomic", &atomic),
        ("adj-reduction", &reduction),
        ("adj-transposed", &transposed),
    ];
    let ref_threads = *cfg.threads.first().unwrap_or(&1);
    // Guarded adjoints (atomic/reduction increments) accumulate in an
    // order that moves with the partition, and so does the combine tree
    // of a primal's scalar reduction. So: backends are compared at every
    // thread count; thread counts are compared against each other only
    // for reduction-free primals, whose results do not depend on T.
    let has_reductions = {
        let mut found = false;
        for s in &prog.body {
            s.walk(&mut |st| {
                if let formad_ir::Stmt::For(l) = st {
                    if let Some(p) = &l.parallel {
                        found |= !p.reductions.is_empty();
                    }
                }
            });
        }
        found
    };
    for (label, vprog) in &versions {
        let bind = if *label == "primal" {
            base.clone()
        } else {
            adjoint_bindings(vprog, &base, &case.wrt, &case.of)
        };
        let lp = lower(vprog, &bind).map_err(|e| {
            Divergence::new(OracleId::Pipeline, format!("{label}: lower failed: {e}"))
        })?;
        let bc = compile(&lp, vprog).map_err(|e| {
            Divergence::new(OracleId::Pipeline, format!("{label}: compile failed: {e}"))
        })?;
        let kernel = if cfg.check_aot && bc.region_count() > 0 {
            summary.aot_checked = true;
            Some(load_or_compile(&lp, &bc).map_err(|e| {
                Divergence::new(
                    OracleId::ExecBitwise,
                    format!("{label}: aot build failed: {e}"),
                )
            })?)
        } else {
            None
        };
        let mut primal_ref: Option<Bindings> = None;
        for &t in &cfg.threads {
            let cell =
                check_cell(engines, vprog, &bc, kernel.as_deref(), &bind, t).map_err(|e| {
                    let oracle = match e {
                        CellError::Run(_) => OracleId::Pipeline,
                        CellError::Diverged(_) => OracleId::ExecBitwise,
                    };
                    Divergence::new(oracle, format!("{label}: {e}"))
                })?;
            if *label == "primal" && !has_reductions {
                match &primal_ref {
                    None => primal_ref = Some(cell.reference),
                    Some(first) => {
                        if let Some(d) = first.first_difference(&cell.reference, Compare::Bitwise) {
                            return Err(Divergence::new(
                                OracleId::ExecBitwise,
                                format!("{label}: sim T={ref_threads} vs sim T={t}: {d}"),
                            ));
                        }
                    }
                }
            }
        }
    }

    // 9. Adjoint-vs-FD dot-product test on the FormAD adjoint.
    let indeps: Vec<(String, Vec<f64>)> = case
        .wrt
        .iter()
        .filter_map(|name| {
            base.get_real_array(name).map(|arr| {
                let dir = fill_real(&format!("{name}.dir"), case.fill_seed ^ 0x5eed, arr.len());
                (name.clone(), dir)
            })
        })
        .collect();
    let deps: Vec<(String, Vec<f64>)> = case
        .of
        .iter()
        .filter_map(|name| {
            base.get_real_array(name)
                .map(|arr| (name.clone(), vec![1.0; arr.len()]))
        })
        .collect();
    let indep_refs: Vec<(&str, Vec<f64>)> = indeps
        .iter()
        .map(|(n, v)| (n.as_str(), v.clone()))
        .collect();
    let dep_refs: Vec<(&str, Vec<f64>)> =
        deps.iter().map(|(n, v)| (n.as_str(), v.clone())).collect();
    let dot = dot_product_test(
        prog,
        &diff.adjoint,
        &base,
        &indep_refs,
        &dep_refs,
        &Machine::with_threads(1),
        cfg.fd_h,
        "b",
    )
    .map_err(|e| Divergence::new(OracleId::Fd, format!("dot-product run failed: {e}")))?;
    if fd_disagrees(&dot, cfg) {
        return Err(Divergence::new(
            OracleId::Fd,
            format!(
                "dot-product mismatch: fd {} vs adjoint {} (rel {})",
                dot.fd_value, dot.adjoint_value, dot.rel_error
            ),
        ));
    }

    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dot(fd_value: f64, adjoint_value: f64) -> DotTest {
        let denom = fd_value.abs().max(adjoint_value.abs()).max(1e-12);
        DotTest {
            fd_value,
            adjoint_value,
            rel_error: (fd_value - adjoint_value).abs() / denom,
        }
    }

    #[test]
    fn fd_exempts_only_round_off_against_an_exactly_zero_adjoint() {
        let cfg = OracleConfig::default();
        // The observed shape: adjoint exactly 0, quotient a few ulps / h.
        assert!(!fd_disagrees(&dot(-2.220446049250313e-10, 0.0), &cfg));
        assert!(!fd_disagrees(&dot(4.440892098500626e-10, 0.0), &cfg));
        // A small wrong adjoint is still a disagreement…
        assert!(fd_disagrees(&dot(1e-7, 1e-8), &cfg));
        assert!(fd_disagrees(&dot(2e-10, 1e-10), &cfg));
        // …and so is a zero adjoint where the function visibly moves.
        assert!(fd_disagrees(&dot(1e-7, 0.0), &cfg));
        assert!(!fd_disagrees(&dot(1.0, 1.00001), &cfg));
        assert!(fd_disagrees(&dot(1.0, 1.001), &cfg));
    }
}
