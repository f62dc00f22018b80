//! Options and safeguard plans for the reverse-mode transformation.

use std::collections::HashMap;
use std::fmt;

/// How increments to a shared adjoint array are protected inside a
/// parallel adjoint loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IncMode {
    /// Plain increment — FormAD proved the accesses disjoint (or the user
    /// asserts it).
    Plain,
    /// `!$omp atomic` guarded increment.
    Atomic,
    /// Privatize the array in a `reduction(+:...)` clause.
    Reduction,
    /// Invert the scatter into a gather over owned elements (transposed
    /// stencil, Hückelheim et al. arXiv 1907.02818). Falls back to
    /// `Atomic` when the access map is not invertible or the
    /// gather-disjointness condition cannot be established.
    Transposed,
}

impl fmt::Display for IncMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IncMode::Plain => write!(f, "plain"),
            IncMode::Atomic => write!(f, "atomic"),
            IncMode::Reduction => write!(f, "reduction"),
            IncMode::Transposed => write!(f, "transposed"),
        }
    }
}

/// Treatment of parallel loops in the generated adjoint, corresponding to
/// the program versions benchmarked in the paper (§7):
/// *Adjoint Serial*, *Adjoint Atomic*, *Adjoint Reduction*,
/// *Adjoint FormAD* (per-array modes from the analysis).
#[derive(Debug, Clone)]
pub enum ParallelTreatment {
    /// Strip all parallel pragmas: sequential adjoint (and sequential
    /// forward sweep).
    Serial,
    /// Same safeguard for every shared adjoint array in every region.
    Uniform(IncMode),
    /// Per-region (pre-order over parallel loops), per-primal-array modes.
    /// Arrays absent from a region's map default to `Atomic` (the safe
    /// fallback).
    PerArray(Vec<HashMap<String, IncMode>>),
}

impl ParallelTreatment {
    /// Mode for increments to the adjoint of `array` in region `region`.
    pub fn mode_of(&self, region: usize, array: &str) -> IncMode {
        match self {
            ParallelTreatment::Serial => IncMode::Plain,
            ParallelTreatment::Uniform(m) => *m,
            ParallelTreatment::PerArray(maps) => maps
                .get(region)
                .and_then(|m| m.get(array).copied())
                .unwrap_or(IncMode::Atomic),
        }
    }

    /// True if some array of parallel loop `region` is `Transposed`.
    pub fn transposes_in(&self, region: usize) -> bool {
        match self {
            ParallelTreatment::Serial => false,
            ParallelTreatment::Uniform(m) => *m == IncMode::Transposed,
            ParallelTreatment::PerArray(maps) => maps
                .get(region)
                .is_some_and(|m| m.values().any(|&m| m == IncMode::Transposed)),
        }
    }

    /// True if parallel pragmas are dropped entirely.
    pub fn is_serial(&self) -> bool {
        matches!(self, ParallelTreatment::Serial)
    }
}

/// Options for [`crate::differentiate`].
#[derive(Debug, Clone)]
pub struct AdjointOptions {
    /// Differentiation inputs (independent variables).
    pub independents: Vec<String>,
    /// Differentiation outputs (dependent variables).
    pub dependents: Vec<String>,
    /// Safeguard selection for parallel adjoint loops.
    pub parallel: ParallelTreatment,
    /// Suffix appended to primal names to form adjoint names (`"b"` in the
    /// paper, read "bar").
    pub adjoint_suffix: String,
}

impl AdjointOptions {
    /// Conventional options: differentiate `dependents` w.r.t.
    /// `independents` with the given parallel treatment.
    pub fn new(
        independents: &[&str],
        dependents: &[&str],
        parallel: ParallelTreatment,
    ) -> AdjointOptions {
        AdjointOptions {
            independents: independents.iter().map(|s| s.to_string()).collect(),
            dependents: dependents.iter().map(|s| s.to_string()).collect(),
            parallel,
            adjoint_suffix: "b".to_string(),
        }
    }
}

/// Errors from the reverse-mode transformation.
#[derive(Debug, Clone, PartialEq)]
pub struct AdError {
    pub message: String,
}

impl fmt::Display for AdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "reverse-mode AD error: {}", self.message)
    }
}

impl std::error::Error for AdError {}

impl AdError {
    pub(crate) fn new(msg: impl Into<String>) -> AdError {
        AdError {
            message: msg.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_lookup_defaults_to_atomic() {
        let t =
            ParallelTreatment::PerArray(vec![HashMap::from([("u".to_string(), IncMode::Plain)])]);
        assert_eq!(t.mode_of(0, "u"), IncMode::Plain);
        assert_eq!(t.mode_of(0, "v"), IncMode::Atomic);
        assert_eq!(t.mode_of(1, "u"), IncMode::Atomic);
    }

    #[test]
    fn uniform_and_serial() {
        assert_eq!(
            ParallelTreatment::Uniform(IncMode::Reduction).mode_of(3, "x"),
            IncMode::Reduction
        );
        assert!(ParallelTreatment::Serial.is_serial());
        assert_eq!(ParallelTreatment::Serial.mode_of(0, "x"), IncMode::Plain);
    }
}
