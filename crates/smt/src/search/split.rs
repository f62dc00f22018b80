//! The enumerate-and-split search: recursive unit propagation with
//! feasibility-based literal pruning, EUF-lite closure at the leaves, and
//! branching on the smallest live clause. It is the last step of the
//! default path (over what presolve and the probe leave) and, over the
//! flat clause list, the whole of the differential oracle
//! (`SearchCore::Flat`).
//!
//! `ctx.propagations` counts the unit commitments made here and
//! `ctx.conflicts` the branches the theory refuted.

use crate::ctrl::StopReason;
use crate::fm::Feasibility;
use crate::formula::{Clause, Literal};
use crate::solver::SatResult;

use super::theory::{committed_feasible, congruence_close, lit_feasible, Committed};
use super::SearchCtx;

pub(crate) fn search(c: &Committed, clauses: &[Clause], ctx: &mut SearchCtx<'_>) -> SatResult {
    if let Err(reason) = ctx.enter_branch() {
        return SatResult::Unknown(reason);
    }

    // Unit propagation with feasibility-based literal pruning.
    let mut committed = c.clone();
    let mut live: Vec<Clause> = clauses.to_vec();
    loop {
        let mut changed = false;
        let mut next: Vec<Clause> = Vec::with_capacity(live.len());
        let mut saw_unknown: Option<StopReason> = None;
        for clause in live.into_iter() {
            let mut kept: Vec<Literal> = Vec::with_capacity(clause.lits.len());
            for lit in clause.lits.into_iter() {
                match lit_feasible(&lit, &committed, ctx) {
                    Feasibility::Infeasible => {
                        changed = true; // literal pruned
                    }
                    Feasibility::Unknown(r) => {
                        saw_unknown = saw_unknown.or(Some(r));
                        kept.push(lit);
                    }
                    Feasibility::Feasible => kept.push(lit),
                }
            }
            match kept.len() {
                0 => {
                    // Every disjunct contradicts the committed set.
                    return match saw_unknown {
                        Some(r) => SatResult::Unknown(r),
                        None => {
                            ctx.conflicts += 1;
                            SatResult::Unsat
                        }
                    };
                }
                1 => {
                    ctx.propagations += 1;
                    committed = committed.with(&kept[0]);
                    changed = true;
                }
                _ => next.push(Clause { lits: kept }),
            }
        }
        live = next;
        if !changed {
            break;
        }
    }

    // Propagate equalities through uninterpreted applications before the
    // final feasibility verdicts (EUF-lite).
    congruence_close(&mut committed, ctx);

    if live.is_empty() {
        return match committed_feasible(&committed, ctx) {
            Feasibility::Feasible => SatResult::Sat,
            Feasibility::Infeasible => {
                ctx.conflicts += 1;
                SatResult::Unsat
            }
            Feasibility::Unknown(r) => SatResult::Unknown(r),
        };
    }

    // Branch on the smallest clause.
    let (idx, _) = live
        .iter()
        .enumerate()
        .min_by_key(|(_, cl)| cl.lits.len())
        .expect("live is nonempty");
    let clause = live[idx].clone();
    let rest: Vec<Clause> = live
        .iter()
        .enumerate()
        .filter(|(k, _)| *k != idx)
        .map(|(_, cl)| cl.clone())
        .collect();

    let mut any_unknown: Option<StopReason> = None;
    for lit in &clause.lits {
        let child = committed.with(lit);
        match search(&child, &rest, ctx) {
            SatResult::Sat => return SatResult::Sat,
            SatResult::Unknown(r) => any_unknown = any_unknown.or(Some(r)),
            SatResult::Unsat => {}
        }
    }
    match any_unknown {
        Some(r) => SatResult::Unknown(r),
        None => SatResult::Unsat,
    }
}
