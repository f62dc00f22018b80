//! The FormAD pipeline: analysis → safeguard plan → adjoint generation.

use std::fmt;

use formad_ad::{AdError, AdjointStats, IncMode, ParallelTreatment};
use formad_ir::Program;
use formad_smt::SolverStats;

use crate::engine::SharedEngine;
use crate::region::{Decision, RegionAnalysis, RegionOptions};

/// Options for the full pipeline.
#[derive(Debug, Clone)]
pub struct FormadOptions {
    /// Differentiation inputs.
    pub independents: Vec<String>,
    /// Differentiation outputs.
    pub dependents: Vec<String>,
    /// Region-analysis tunables (stride constraints, ablations, budget).
    pub region: RegionOptions,
}

impl FormadOptions {
    /// Conventional constructor.
    pub fn new(independents: &[&str], dependents: &[&str]) -> FormadOptions {
        FormadOptions {
            independents: independents.iter().map(|s| s.to_string()).collect(),
            dependents: dependents.iter().map(|s| s.to_string()).collect(),
            region: RegionOptions::default(),
        }
    }
}

/// Whole-program analysis result: one report per parallel region plus the
/// derived safeguard plan.
#[derive(Debug)]
pub struct FormadAnalysis {
    /// Per-region reports, in pre-order.
    pub regions: Vec<RegionAnalysis>,
    /// The safeguard plan FormAD derived (Plain where proven, Atomic
    /// elsewhere) — feed to [`Formad::adjoint_with`] or read directly.
    pub plan: ParallelTreatment,
    /// Prover statistics aggregated over every region (saturating).
    pub stats: SolverStats,
    /// What the adjoint generated from `plan` keeps of the forward sweep
    /// and the tape; `None` until the transformation ran
    /// ([`Formad::differentiate`]).
    pub adjoint: Option<AdjointStats>,
}

impl FormadAnalysis {
    /// True if every analyzed adjoint array in every region runs without
    /// atomics: `Shared` (plain increments) or `Transposed` (gather over
    /// owned elements, plain increments).
    pub fn all_safe(&self) -> bool {
        self.regions.iter().all(|r| {
            r.decisions
                .values()
                .all(|d| matches!(d, Decision::Shared | Decision::Transposed(_)))
        })
    }

    /// Total prover queries across regions.
    pub fn total_queries(&self) -> u64 {
        self.regions.iter().map(|r| r.queries).sum()
    }

    /// True if any region lost a `Shared` verdict to a resource limit or
    /// a recovered prover fault (as opposed to a definite refutation).
    pub fn degraded(&self) -> bool {
        self.regions.iter().any(|r| r.degraded())
    }

    /// Total prover panics recovered from across regions.
    pub fn recovered_panics(&self) -> u64 {
        self.regions.iter().map(|r| r.recovered_panics).sum()
    }

    /// Flatten the derived plan into `(region, array, mode)` triples in
    /// deterministic (region pre-order, array name) order — the
    /// report-to-discipline record an execution backend or benchmark
    /// embeds next to measured numbers to show *which* increment
    /// discipline each adjoint array actually ran under.
    pub fn discipline_map(&self) -> Vec<(usize, String, IncMode)> {
        let mut out = Vec::new();
        for (ri, region) in self.regions.iter().enumerate() {
            let mut arrays: Vec<&String> = region.decisions.keys().collect();
            arrays.sort();
            for arr in arrays {
                out.push((ri, arr.clone(), self.plan.mode_of(ri, arr)));
            }
        }
        out
    }
}

/// Classification of pipeline errors; each kind maps to a distinct CLI
/// exit code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FormadErrorKind {
    /// The source program could not be parsed.
    Parse,
    /// The program parsed but failed semantic validation.
    Validate,
    /// The AD transformation itself failed.
    Ad,
    /// The prover panicked and the failure could not be absorbed by
    /// degradation (not produced by the analysis itself, which always
    /// degrades; reserved for callers that choose to re-raise).
    ProverPanic,
    /// A global deadline expired before the pipeline finished.
    Deadline,
}

impl FormadErrorKind {
    /// Stable diagnostic label.
    pub fn label(&self) -> &'static str {
        match self {
            FormadErrorKind::Parse => "parse",
            FormadErrorKind::Validate => "validate",
            FormadErrorKind::Ad => "ad",
            FormadErrorKind::ProverPanic => "prover-panic",
            FormadErrorKind::Deadline => "deadline",
        }
    }
}

/// Errors from the pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct FormadError {
    /// Machine-readable classification.
    pub kind: FormadErrorKind,
    /// Human-readable detail.
    pub message: String,
}

impl FormadError {
    pub fn new(kind: FormadErrorKind, message: impl Into<String>) -> FormadError {
        FormadError {
            kind,
            message: message.into(),
        }
    }

    pub fn parse(message: impl Into<String>) -> FormadError {
        FormadError::new(FormadErrorKind::Parse, message)
    }

    pub fn validate(message: impl Into<String>) -> FormadError {
        FormadError::new(FormadErrorKind::Validate, message)
    }
}

impl fmt::Display for FormadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "formad [{}]: {}", self.kind.label(), self.message)
    }
}

impl std::error::Error for FormadError {}

impl From<AdError> for FormadError {
    fn from(e: AdError) -> Self {
        FormadError {
            kind: FormadErrorKind::Ad,
            message: e.message,
        }
    }
}

/// The FormAD tool: differentiates parallel-loop programs, using its
/// theorem-prover analysis to avoid atomic updates wherever the primal's
/// parallelization proves them unnecessary.
///
/// ```
/// use formad::{Formad, FormadOptions};
/// use formad_ir::parse_program;
///
/// let primal = parse_program(r#"
/// subroutine fig2(n, x, y, c)
///   integer, intent(in) :: n
///   real, intent(in) :: x(n)
///   real, intent(inout) :: y(n)
///   integer, intent(in) :: c(n)
///   integer :: i
///   !$omp parallel do shared(x, y, c)
///   do i = 1, n
///     y(c(i)) = x(c(i) + 7)
///   end do
/// end subroutine
/// "#).unwrap();
/// let tool = Formad::new(FormadOptions::new(&["x"], &["y"]));
/// let result = tool.differentiate(&primal).unwrap();
/// assert!(result.analysis.all_safe()); // Figure 2: no atomics needed
/// ```
#[derive(Debug)]
pub struct Formad {
    /// Pipeline options.
    pub options: FormadOptions,
}

/// Pipeline output: the adjoint program plus the analysis report.
#[derive(Debug)]
pub struct DiffResult {
    /// Generated adjoint subroutine.
    pub adjoint: Program,
    /// The analysis that selected the safeguards.
    pub analysis: FormadAnalysis,
}

impl Formad {
    /// Create the tool.
    pub fn new(options: FormadOptions) -> Formad {
        Formad { options }
    }

    /// The engine this invocation runs on: whatever fingerprint index
    /// is wired into `options.region.fingerprints` *is* the shared
    /// state, so one-shot callers analyze every region and a resident
    /// caller can pass the same handle to every `Formad` it builds.
    fn engine(&self) -> SharedEngine {
        SharedEngine::from_options(&self.options)
    }

    /// Run only the analysis (knowledge extraction + exploitation) and
    /// derive the safeguard plan.
    pub fn analyze(&self, primal: &Program) -> Result<FormadAnalysis, FormadError> {
        self.engine().analyze(primal, &self.options)
    }

    /// Full pipeline: analysis + reverse-mode transformation with the
    /// derived per-array plan (the paper's *Adjoint FormAD* version).
    pub fn differentiate(&self, primal: &Program) -> Result<DiffResult, FormadError> {
        self.engine().differentiate(primal, &self.options)
    }

    /// Generate an adjoint with an explicit treatment (the paper's
    /// *Serial*, *Atomic*, and *Reduction* baseline versions).
    pub fn adjoint_with(
        &self,
        primal: &Program,
        treatment: ParallelTreatment,
    ) -> Result<Program, FormadError> {
        self.engine().adjoint_with(primal, &self.options, treatment)
    }
}
