//! The search behind `Solver::check()`: "is this conjunction of clauses
//! over linear-integer literals satisfiable?"
//!
//! One production path, [`search_stack`] ([`SearchCore::Presolved`]), in
//! three steps sized to the traffic (tuple-disjointness disjunctions
//! over loop counters and opaque index atoms):
//!
//! 1. **Presolve** over per-frame snapshots of the assertion stack
//!    ([`presolve`]), then one theory check of the literals it fixed.
//!    This settles all but a handful of queries.
//! 2. **One lazy probe** of what is left: walk the residual clauses once,
//!    take from each the first literal no earlier pick contradicts, and
//!    ask the theory once whether fixed + picks are feasible.
//! 3. On a refuted or incomplete probe, the enumerate-and-split search
//!    ([`split`]) over the fixed literals and the residual clauses.
//!
//! [`SearchCore::Flat`] runs the same splitter over the flat clause list
//! with no presolve and no probe ([`search_flat`]); tests select it as
//! the differential oracle for steps 1 and 2.
//!
//! Everything is deterministic — no RNG, clauses and literals visited in
//! stack order — so verdicts, reports, and the deterministic trace
//! section are byte-identical from run to run and (validated by the
//! differential suite and the golden reports) across the two cores.
//! An `Unknown` from the level-0 check or the probe is terminal: falling
//! through to the splitter past one could let a small budget reach a
//! definite verdict a large one reaches differently.

pub(crate) mod presolve;
pub(crate) mod split;
pub(crate) mod theory;

use std::collections::hash_map::Entry;

use crate::ctrl::{Governor, StopReason};
use crate::fm::{feasible_paced, Feasibility};
use crate::formula::{Assertion, Literal};
use crate::fx::FxHashMap;
use crate::linexpr::{AtomTable, LinExpr};
use crate::solver::{SatResult, SolverBudget};

use presolve::{Arena, Lit};

/// Which path answers `check()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchCore {
    /// Presolve, one lazy probe, then the splitter (the default).
    #[default]
    Presolved,
    /// The splitter alone over the flat clause list: the differential
    /// oracle that tests select programmatically.
    Flat,
}

/// Per-`check()` working state: budgets, work counters, the atom table,
/// the solver's presolve arena, and the paced interrupt poller.
pub(crate) struct SearchCtx<'t> {
    pub(crate) budget: SolverBudget,
    pub(crate) lia_calls: u64,
    pub(crate) branches: u64,
    pub(crate) propagations: u64,
    pub(crate) conflicts: u64,
    pub(crate) presolve_discharges: u64,
    pub(crate) presolve_clauses: u64,
    pub(crate) table: &'t AtomTable,
    pub(crate) arena: &'t mut Arena,
    pub(crate) gov: Governor<'t>,
}

impl<'t> SearchCtx<'t> {
    pub(crate) fn new(
        budget: SolverBudget,
        table: &'t AtomTable,
        arena: &'t mut Arena,
        gov: Governor<'t>,
    ) -> SearchCtx<'t> {
        SearchCtx {
            budget,
            lia_calls: 0,
            branches: 0,
            propagations: 0,
            conflicts: 0,
            presolve_discharges: 0,
            presolve_clauses: 0,
            table,
            arena,
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

    /// Account one branch node; `Err` once the branch budget or the
    /// governor says stop.
    pub(crate) fn enter_branch(&mut self) -> Result<(), StopReason> {
        if let Some(reason) = self.gov.poll() {
            return Err(reason);
        }
        self.branches += 1;
        if self.branches > self.budget.max_branches {
            return Err(StopReason::Budget);
        }
        Ok(())
    }
}

/// Answer `check()` over the assertion stack: one presolve (building
/// whatever frame snapshots `frames` does not hold yet), a theory check
/// of the literals it fixed, and — only if clauses remain — the probe,
/// then the splitter.
pub(crate) fn search_stack(
    frames: &mut Vec<presolve::Frame>,
    chunks: &[Assertion],
    marks: &[usize],
    ctx: &mut SearchCtx<'_>,
) -> SatResult {
    // A pre-tripped deadline must win before any presolve
    // conclusion (first governor poll is immediate).
    if let Some(r) = ctx.gov.poll() {
        return SatResult::Unknown(r);
    }
    let (fixed, clauses) = match presolve::presolve_stack(frames, chunks, marks, ctx) {
        presolve::Presolved::Unsat => {
            ctx.presolve_discharges += 1;
            return SatResult::Unsat;
        }
        presolve::Presolved::Stopped(r) => return SatResult::Unknown(r),
        presolve::Presolved::Reduced { fixed, clauses } => (fixed, clauses),
    };
    // `presolve_discharges` counts the queries that end here: settled by
    // presolve itself (nothing left after propagation is trivially
    // satisfiable) or by the one level-0 theory check of what it fixed.
    if fixed.is_empty() && clauses.is_empty() {
        ctx.presolve_discharges += 1;
        return SatResult::Sat;
    }
    let mut committed = theory::Committed::default();
    for &lit in &fixed {
        let (rel, expr) = ctx.arena.parts(lit);
        committed.push(rel, expr);
    }
    // The level-0 check closes a copy only when the clauses still need the
    // fixed set.
    let level0 = match clauses.is_empty() {
        true => std::mem::take(&mut committed),
        false => committed.clone(),
    };
    match theory::lits_feasible(level0, ctx) {
        Feasibility::Infeasible => {
            ctx.presolve_discharges += 1;
            return SatResult::Unsat;
        }
        Feasibility::Unknown(r) => return SatResult::Unknown(r),
        Feasibility::Feasible if clauses.is_empty() => {
            ctx.presolve_discharges += 1;
            return SatResult::Sat;
        }
        Feasibility::Feasible => {}
    }
    match probe(&committed, &clauses, ctx) {
        Some(Feasibility::Feasible) => return SatResult::Sat,
        Some(Feasibility::Unknown(r)) => return SatResult::Unknown(r),
        Some(Feasibility::Infeasible) => ctx.conflicts += 1,
        None => {}
    }
    let clauses: Vec<Vec<Literal>> = clauses
        .iter()
        .map(|c| c.iter().map(|&lit| ctx.arena.lit(lit)).collect())
        .collect();
    split::search(&committed, &clauses, ctx)
}

/// The lazy probe: from each residual clause (≥ 2 canonical literals)
/// take the first literal whose variable no earlier pick holds at the
/// other polarity, and check the `fixed` literals plus the picks
/// once. `Feasible` is a satisfying branch; `None` means some clause had
/// every literal contradicted, so the walk says nothing.
fn probe(
    fixed: &theory::Committed,
    clauses: &[Vec<Lit>],
    ctx: &mut SearchCtx<'_>,
) -> Option<Feasibility> {
    if let Err(r) = ctx.enter_branch() {
        return Some(Feasibility::Unknown(r));
    }
    let mut picked: FxHashMap<presolve::Key, bool> = FxHashMap::default();
    let mut lits = fixed.clone();
    for clause in clauses {
        // `Some(None)`: the clause is satisfied by a pick already made.
        let pick = clause
            .iter()
            .find_map(|&(key, polarity)| match picked.entry(key) {
                Entry::Occupied(held) if *held.get() != polarity => None,
                Entry::Occupied(_) => Some(None),
                Entry::Vacant(slot) => {
                    slot.insert(polarity);
                    Some(Some((key, polarity)))
                }
            });
        if let Some(lit) = pick? {
            let (rel, expr) = ctx.arena.parts(lit);
            lits.push(rel, expr);
        }
    }
    Some(theory::lits_feasible(lits, ctx))
}

/// Run the splitter over the flattened assertion clauses.
pub(crate) fn search_flat(clauses: &[Vec<Literal>], ctx: &mut SearchCtx<'_>) -> SatResult {
    split::search(&theory::Committed::default(), clauses, ctx)
}
