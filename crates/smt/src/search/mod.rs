//! Search cores for `Solver::check()`.
//!
//! Two interchangeable engines solve the same problem — "is this CNF over
//! linear-integer literals satisfiable?":
//!
//! * [`SearchCore::Cdcl`] (default): a CDCL(T)-style engine — presolve
//!   over per-frame snapshots of the assertion stack ([`presolve`],
//!   entered once per `check()` through [`prepare`]), then, for what
//!   presolve leaves ([`search_reduced`]), boolean abstraction with
//!   two-watched-literal unit propagation and a trail, theory checks
//!   through the Fourier–Motzkin core with *minimized conflict
//!   explanations*, 1UIP learning with non-chronological backjumping,
//!   VSIDS-lite decisions, Luby restarts ([`cdcl`]).
//! * [`SearchCore::Legacy`]: the original enumerate-and-split search over
//!   the flat clause list ([`legacy`], through [`search_flat`]), kept
//!   verbatim as a differential-testing oracle.
//!
//! Both cores are deterministic — no RNG, ties broken by atom/variable
//! id — so verdicts, reports, and the deterministic trace section are
//! byte-identical across `--jobs`, cache settings, and (by the
//! verdict-preserving design, validated by the differential suite and the
//! golden reports) across the cores themselves.

pub(crate) mod cdcl;
pub(crate) mod legacy;
pub(crate) mod presolve;
pub(crate) mod theory;

use std::sync::Arc;

use crate::ctrl::{Governor, StopReason};
use crate::fm::{feasible_paced, Feasibility};
use crate::formula::{Clause, Literal};
use crate::linexpr::{AtomTable, LinExpr};
use crate::solver::{SatResult, SolverBudget};

/// Which engine answers `check()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchCore {
    /// CDCL(T): presolve + watched-literal propagation + theory-conflict
    /// learning (the default).
    #[default]
    Cdcl,
    /// The original clause-splitting search, kept as a differential
    /// oracle (`--search-core legacy`).
    Legacy,
}

impl SearchCore {
    /// Parse a CLI/env spelling (`"cdcl"` / `"legacy"`).
    pub fn parse(s: &str) -> Option<SearchCore> {
        match s {
            "cdcl" => Some(SearchCore::Cdcl),
            "legacy" => Some(SearchCore::Legacy),
            _ => None,
        }
    }

    /// The core selected by the `FORMAD_SEARCH_CORE` environment variable
    /// (used by the CI matrix), falling back to the default. Unknown
    /// values fall back to the default rather than erroring, so a typo'd
    /// environment cannot change verdicts — only which (verdict-identical)
    /// engine produced them.
    pub fn from_env() -> SearchCore {
        match std::env::var("FORMAD_SEARCH_CORE") {
            Ok(v) => SearchCore::parse(&v).unwrap_or_default(),
            Err(_) => SearchCore::default(),
        }
    }

    /// CLI/JSON label.
    pub fn label(self) -> &'static str {
        match self {
            SearchCore::Cdcl => "cdcl",
            SearchCore::Legacy => "legacy",
        }
    }
}

/// Per-`check()` working state shared by both cores: budgets, work
/// counters, the atom table, and the paced interrupt poller.
pub(crate) struct SearchCtx<'t> {
    pub(crate) budget: SolverBudget,
    pub(crate) lia_calls: u64,
    pub(crate) branches: u64,
    pub(crate) propagations: u64,
    pub(crate) conflicts: u64,
    pub(crate) learned_clauses: u64,
    pub(crate) learned_literals: u64,
    pub(crate) restarts: u64,
    pub(crate) presolve_discharges: u64,
    pub(crate) presolve_clauses: u64,
    pub(crate) table: &'t AtomTable,
    pub(crate) gov: Governor<'t>,
}

impl<'t> SearchCtx<'t> {
    pub(crate) fn new(
        budget: SolverBudget,
        table: &'t AtomTable,
        gov: Governor<'t>,
    ) -> SearchCtx<'t> {
        SearchCtx {
            budget,
            lia_calls: 0,
            branches: 0,
            propagations: 0,
            conflicts: 0,
            learned_clauses: 0,
            learned_literals: 0,
            restarts: 0,
            presolve_discharges: 0,
            presolve_clauses: 0,
            table,
            gov,
        }
    }

    /// One governed, budgeted call into the linear feasibility core.
    pub(crate) fn lia(&mut self, eqs: &[LinExpr], ineqs: &[LinExpr]) -> Feasibility {
        if let Some(reason) = self.gov.poll() {
            return Feasibility::Unknown(reason);
        }
        if self.lia_calls >= self.budget.max_lia_calls {
            return Feasibility::Unknown(StopReason::Budget);
        }
        self.lia_calls += 1;
        feasible_paced(eqs, ineqs, &self.budget.fm, &mut self.gov)
    }
}

/// Outcome of a search run: the verdict plus (CDCL only) the clauses
/// learned along the way, exposed for soundness spot-checks.
pub(crate) struct SearchOutcome {
    pub(crate) result: SatResult,
    pub(crate) learned: Vec<Clause>,
}

/// What the one presolve of a CDCL `check()` left to do.
pub(crate) enum Prepared {
    /// Settled by propagation alone: no theory work was needed, so the
    /// verdict is not worth a canonical key or a cache entry.
    Discharged(SatResult),
    /// Interrupted before any conclusion.
    Stopped(StopReason),
    /// Presolve-hard: the fixed literals need a theory check and the
    /// residual clauses a search — both lia-bearing, so the caller looks
    /// the query up in the cache before paying for [`search_reduced`].
    Reduced {
        fixed: Vec<(Arc<presolve::VarKey>, bool)>,
        clauses: Vec<Vec<Literal>>,
    },
}

/// Presolve the assertion stack for the CDCL core, building whatever
/// frame snapshots `frames` does not hold yet.
pub(crate) fn prepare(
    frames: &mut Vec<presolve::Frame>,
    chunks: &[presolve::Chunk],
    marks: &[usize],
    ctx: &mut SearchCtx<'_>,
) -> Prepared {
    // A pre-tripped deadline/cancellation must win before any presolve
    // conclusion (first governor poll is immediate).
    if let Some(r) = ctx.gov.poll() {
        return Prepared::Stopped(r);
    }
    match presolve::presolve_stack(frames, chunks, marks, ctx) {
        presolve::Presolved::Unsat => {
            ctx.presolve_discharges += 1;
            Prepared::Discharged(SatResult::Unsat)
        }
        presolve::Presolved::Stopped(r) => Prepared::Stopped(r),
        presolve::Presolved::Reduced { fixed, clauses } => {
            if fixed.is_empty() && clauses.is_empty() {
                // Nothing left at all after propagation: trivially
                // satisfiable.
                ctx.presolve_discharges += 1;
                Prepared::Discharged(SatResult::Sat)
            } else {
                Prepared::Reduced { fixed, clauses }
            }
        }
    }
}

/// Run the CDCL core over a presolve-reduced problem.
pub(crate) fn search_reduced(
    fixed: &[(Arc<presolve::VarKey>, bool)],
    clauses: &[Vec<Literal>],
    ctx: &mut SearchCtx<'_>,
) -> SearchOutcome {
    let fixed: Vec<Literal> = fixed.iter().map(|(key, p)| key.lit(*p)).collect();
    cdcl::search(&fixed, clauses, ctx)
}

/// Run the legacy core over the flattened assertion clauses.
pub(crate) fn search_flat(clauses: &[Clause], ctx: &mut SearchCtx<'_>) -> SearchOutcome {
    SearchOutcome {
        result: legacy::search(&theory::Committed::default(), clauses, ctx),
        learned: Vec::new(),
    }
}
