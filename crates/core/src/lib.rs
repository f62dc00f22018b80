//! # formad
//!
//! Reproduction of **"Automatic Differentiation of Parallel Loops with
//! Formal Methods"** (Hückelheim & Hascoët, ICPP 2022): reverse-mode
//! automatic differentiation of OpenMP-style shared-memory parallel loops,
//! with a theorem-prover-backed static analysis that removes atomic
//! updates and reductions from the generated adjoint whenever the
//! *assumed-correct parallelization of the primal* proves them
//! unnecessary.
//!
//! ## How it works (paper §5)
//!
//! 1. **Knowledge extraction.** A correctly parallelized loop has no
//!    loop-carried dependences, so for every pair of references to an
//!    array — at least one a write — the index tuples must be disjoint
//!    across iterations. Each pair becomes an assertion
//!    `primed(e₁) ≠ e₂` in a knowledge base, attached to the control
//!    *context* that must execute both references.
//! 2. **Knowledge exploitation.** Reverse-mode AD turns primal reads into
//!    adjoint increments. For every candidate conflict between adjoint
//!    references, the prover is asked whether the indices can be equal
//!    under the knowledge usable at the pair's common context root —
//!    UNSAT means the increment is race-free and the adjoint array can be
//!    `shared` without atomics.
//!
//! The prover is `formad-smt` (a from-scratch QF-UFLIA core standing in
//! for Z3), the AD engine is `formad-ad`, and the static analyses
//! (contexts, instances, activity) live in `formad-analysis`.
//!
//! ## Entry points
//!
//! - [`Formad::analyze`] — run the analysis, get per-region reports
//!   (Table 1 statistics) and the safeguard plan;
//! - [`Formad::differentiate`] — full pipeline: the *Adjoint FormAD*
//!   program version of the paper's evaluation;
//! - [`Formad::adjoint_with`] — the *Serial* / *Atomic* / *Reduction*
//!   baseline versions;
//! - [`SharedEngine`] — the resident-service form of the same pipeline:
//!   one shared region-fingerprint index across requests, with
//!   per-request overlay isolation (absorb on success, roll back on
//!   failure).

pub mod engine;
pub mod fingerprint;
pub mod json;
pub mod pipeline;
pub mod region;
pub mod report;
pub mod trace;
pub mod translate;

pub use engine::SharedEngine;
pub use fingerprint::{
    clear_fp_file, inspect_fp_file, probe_fp_write, region_fingerprint, FingerprintIndex,
    FpFileReport, FpStats, FpTier, RegionRecord, FP_FORMAT_VERSION,
};
pub use formad_ad::{AdjointStats, IncMode, ParallelTreatment};
pub use formad_smt::{Deadline, SearchCore};
pub use pipeline::{
    DiffResult, Formad, FormadAnalysis, FormadError, FormadErrorKind, FormadOptions,
};
pub use region::{analyze_region_with, Decision, Provenance, RegionAnalysis, RegionOptions};
pub use report::{full_report, region_report, table1_header, table1_row};
pub use trace::{
    deterministic_json, explain, trace_json, validate_trace, QueryPerf, TraceDecision, TraceEvent,
    TraceSink, TraceSummary, TRACE_SCHEMA,
};
pub use translate::{Taint, Translator};
