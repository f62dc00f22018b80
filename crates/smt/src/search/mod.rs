//! Search cores for `Solver::check()`.
//!
//! Two interchangeable engines solve the same problem — "is this CNF over
//! linear-integer literals satisfiable?":
//!
//! * [`SearchCore::Cdcl`] (default): a CDCL(T)-style engine — presolve
//!   over per-frame snapshots of the assertion stack ([`presolve`],
//!   entered once per `check()` through [`search_stack`]), then, for
//!   what presolve leaves, boolean abstraction with
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
//! byte-identical across `--jobs` and (by the
//! verdict-preserving design, validated by the differential suite and the
//! golden reports) across the cores themselves.

pub(crate) mod cdcl;
pub(crate) mod legacy;
pub(crate) mod presolve;
pub(crate) mod theory;

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
    /// oracle that tests select programmatically.
    Legacy,
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

/// Run the CDCL core over the assertion stack: one presolve (building
/// whatever frame snapshots `frames` does not hold yet), then — for the
/// presolve-hard remainder only — a theory check of the fixed literals
/// and a search over the residual clauses.
pub(crate) fn search_stack(
    frames: &mut Vec<presolve::Frame>,
    chunks: &[presolve::Chunk],
    marks: &[usize],
    ctx: &mut SearchCtx<'_>,
) -> SearchOutcome {
    let settled = |result| SearchOutcome {
        result,
        learned: Vec::new(),
    };
    // A pre-tripped deadline/cancellation must win before any presolve
    // conclusion (first governor poll is immediate).
    if let Some(r) = ctx.gov.poll() {
        return settled(SatResult::Unknown(r));
    }
    match presolve::presolve_stack(frames, chunks, marks, ctx) {
        presolve::Presolved::Unsat => {
            ctx.presolve_discharges += 1;
            settled(SatResult::Unsat)
        }
        presolve::Presolved::Stopped(r) => settled(SatResult::Unknown(r)),
        presolve::Presolved::Reduced { fixed, clauses } => {
            if fixed.is_empty() && clauses.is_empty() {
                // Nothing left at all after propagation: trivially
                // satisfiable.
                ctx.presolve_discharges += 1;
                return settled(SatResult::Sat);
            }
            let fixed: Vec<Literal> = fixed.iter().map(|(key, p)| key.lit(*p)).collect();
            cdcl::search(&fixed, &clauses, ctx)
        }
    }
}

/// Run the legacy core over the flattened assertion clauses.
pub(crate) fn search_flat(clauses: &[Clause], ctx: &mut SearchCtx<'_>) -> SearchOutcome {
    SearchOutcome {
        result: legacy::search(&theory::Committed::default(), clauses, ctx),
        learned: Vec::new(),
    }
}
