//! CDCL(T) search: boolean abstraction over canonical atom literals,
//! two-watched-literal unit propagation with a trail, lazy theory checks
//! through the FM core with deletion-minimized conflict explanations,
//! 1UIP learning with non-chronological backjumping, VSIDS-lite activity
//! decisions, and Luby restarts.
//!
//! Everything is deterministic: variables are numbered by first occurrence
//! in (deterministic) clause order, decisions break activity ties by
//! lowest variable id, phases are the first-seen polarity, and there is no
//! randomness anywhere — so verdicts and stats are reproducible across
//! `--jobs`, caching, and process runs.
//!
//! Budget/interrupt semantics: *any* `Unknown` — from a theory call, an
//! explanation-minimization probe, the decision budget, or the governor —
//! is terminal. Continuing to search past an Unknown could let a
//! small-budget run reach a definite verdict on a different path than a
//! large-budget run, violating the budget-monotonicity contract the
//! degradation ladder relies on.
//!
//! Verdict parity with the legacy splitter: the final theory check uses
//! the *chosen-literal subset* — the fixed presolve literals plus the
//! first true literal of each problem clause — exactly the shape of a
//! legacy branch commitment, so the independent-disequality approximation
//! sees the same kind of literal sets under both cores.

use crate::ctrl::StopReason;
use crate::fm::Feasibility;
use crate::formula::{Clause, Literal};
use crate::fx::FxHashMap;
use crate::solver::SatResult;

use super::presolve::{canon_lit, CanonLit, VarKey};
use super::theory::lits_feasible;
use super::{SearchCtx, SearchOutcome};

/// Luby restart unit (conflicts per base interval).
const LUBY_UNIT: u64 = 32;
/// Activity decay applied after each conflict (MiniSat-style 0.95 decay,
/// implemented as growth of the increment).
const ACT_GROWTH: f64 = 1.0 / 0.95;
const ACT_RESCALE: f64 = 1e100;
/// Skip explanation minimization above this many candidate literals.
const MINIMIZE_MAX: usize = 12;

/// Boolean literal: variable index + polarity.
type BLit = (usize, bool);

fn lit_slot(l: BLit) -> usize {
    2 * l.0 + usize::from(l.1)
}

/// `i`-th element of the Luby sequence (1-indexed): 1,1,2,1,1,2,4,…
fn luby(mut i: u64) -> u64 {
    loop {
        let mut k = 1u32;
        while (1u64 << k) - 1 < i {
            k += 1;
        }
        if (1u64 << k) - 1 == i {
            return 1u64 << (k - 1);
        }
        i -= (1u64 << (k - 1)) - 1;
    }
}

struct Engine {
    keys: Vec<VarKey>,
    value: Vec<Option<bool>>,
    level: Vec<usize>,
    reason: Vec<Option<usize>>,
    phase: Vec<bool>,
    activity: Vec<f64>,
    act_inc: f64,
    /// Problem clauses (prefix of length `n_problem`) followed by learned
    /// clauses; each watches its first two literals.
    clauses: Vec<Vec<BLit>>,
    n_problem: usize,
    watches: Vec<Vec<usize>>,
    trail: Vec<BLit>,
    trail_lim: Vec<usize>,
    prop_head: usize,
}

enum PropResult {
    Ok,
    Conflict(usize),
    Stopped(StopReason),
}

impl Engine {
    fn is_true(&self, l: BLit) -> bool {
        self.value[l.0] == Some(l.1)
    }

    fn is_false(&self, l: BLit) -> bool {
        self.value[l.0] == Some(!l.1)
    }

    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    fn assign(&mut self, l: BLit, reason: Option<usize>) {
        debug_assert!(self.value[l.0].is_none());
        self.value[l.0] = Some(l.1);
        self.level[l.0] = self.decision_level();
        self.reason[l.0] = reason;
        self.trail.push(l);
    }

    fn backjump(&mut self, target: usize) {
        while self.trail_lim.len() > target {
            let lim = self.trail_lim.pop().expect("nonempty");
            while self.trail.len() > lim {
                let (v, _) = self.trail.pop().expect("nonempty");
                self.value[v] = None;
                self.reason[v] = None;
            }
        }
        self.prop_head = self.trail.len();
    }

    fn bump(&mut self, v: usize) {
        self.activity[v] += self.act_inc;
        if self.activity[v] > ACT_RESCALE {
            for a in self.activity.iter_mut() {
                *a /= ACT_RESCALE;
            }
            self.act_inc /= ACT_RESCALE;
        }
    }

    fn propagate(&mut self, ctx: &mut SearchCtx<'_>) -> PropResult {
        while self.prop_head < self.trail.len() {
            if let Some(r) = ctx.gov.poll() {
                return PropResult::Stopped(r);
            }
            let (v, b) = self.trail[self.prop_head];
            self.prop_head += 1;
            let false_lit = (v, !b);
            let slot = lit_slot(false_lit);
            let list = std::mem::take(&mut self.watches[slot]);
            let mut keep: Vec<usize> = Vec::with_capacity(list.len());
            for (li, &ci) in list.iter().enumerate() {
                {
                    let cl = &mut self.clauses[ci];
                    if cl[0] == false_lit {
                        cl.swap(0, 1);
                    }
                    debug_assert_eq!(cl[1], false_lit);
                }
                let first = self.clauses[ci][0];
                if self.is_true(first) {
                    keep.push(ci);
                    continue;
                }
                let len = self.clauses[ci].len();
                let replacement = (2..len).find(|&k| {
                    let l = self.clauses[ci][k];
                    !self.is_false(l)
                });
                if let Some(k) = replacement {
                    self.clauses[ci].swap(1, k);
                    let moved = self.clauses[ci][1];
                    self.watches[lit_slot(moved)].push(ci);
                    continue;
                }
                keep.push(ci);
                if self.value[first.0].is_none() {
                    ctx.propagations += 1;
                    self.assign(first, Some(ci));
                } else {
                    // `first` is false: conflicting clause. Restore the
                    // unvisited tail of the watch list before returning.
                    keep.extend_from_slice(&list[li + 1..]);
                    self.watches[slot] = keep;
                    return PropResult::Conflict(ci);
                }
            }
            self.watches[slot] = keep;
        }
        PropResult::Ok
    }

    /// 1UIP conflict analysis. `confl` literals must all be false under
    /// the current assignment with at least one at the current decision
    /// level. Returns the learned clause (asserting literal first, a
    /// highest-remaining-level literal second) and the backjump level.
    fn analyze(&mut self, confl: &[BLit]) -> (Vec<BLit>, usize) {
        let cur = self.decision_level();
        debug_assert!(cur > 0);
        let mut seen = vec![false; self.keys.len()];
        let mut lower: Vec<BLit> = Vec::new();
        let mut counter = 0usize;
        let process = |this: &mut Engine,
                       lits: &[BLit],
                       skip: Option<usize>,
                       seen: &mut Vec<bool>,
                       lower: &mut Vec<BLit>,
                       counter: &mut usize| {
            for &l in lits {
                if Some(l.0) == skip || seen[l.0] || this.level[l.0] == 0 {
                    continue;
                }
                seen[l.0] = true;
                this.bump(l.0);
                if this.level[l.0] >= cur {
                    *counter += 1;
                } else {
                    lower.push(l);
                }
            }
        };

        process(self, confl, None, &mut seen, &mut lower, &mut counter);
        let mut idx = self.trail.len();
        let asserting: BLit;
        loop {
            debug_assert!(counter > 0, "no literal at the conflict level");
            idx -= 1;
            while !seen[self.trail[idx].0] {
                idx -= 1;
            }
            let v = self.trail[idx].0;
            seen[v] = false;
            counter -= 1;
            if counter == 0 {
                let val = self.value[v].expect("assigned");
                asserting = (v, !val);
                break;
            }
            let r = self.reason[v].expect("non-decision has a reason");
            let rlits = self.clauses[r].clone();
            process(self, &rlits, Some(v), &mut seen, &mut lower, &mut counter);
        }

        let mut learned = Vec::with_capacity(1 + lower.len());
        learned.push(asserting);
        learned.extend(lower);
        let mut bj = 0usize;
        if learned.len() > 1 {
            let mut at = 1usize;
            for k in 1..learned.len() {
                if self.level[learned[k].0] > self.level[learned[at].0] {
                    at = k;
                }
            }
            learned.swap(1, at);
            bj = self.level[learned[1].0];
        }
        (learned, bj)
    }

    /// Install a learned clause, backjump, and assert its first literal.
    fn learn(&mut self, learned: Vec<BLit>, bj: usize, ctx: &mut SearchCtx<'_>) -> Clause {
        ctx.learned_clauses += 1;
        ctx.learned_literals += learned.len() as u64;
        let rendered = Clause {
            lits: learned.iter().map(|&(v, p)| self.keys[v].lit(p)).collect(),
        };
        self.backjump(bj);
        let asserting = learned[0];
        if learned.len() == 1 {
            self.assign(asserting, None);
        } else {
            let ci = self.clauses.len();
            self.watches[lit_slot(learned[0])].push(ci);
            self.watches[lit_slot(learned[1])].push(ci);
            self.clauses.push(learned);
            self.assign(asserting, Some(ci));
        }
        self.act_inc *= ACT_GROWTH;
        rendered
    }

    /// The chosen-literal subset: first true literal of each problem
    /// clause (dedup'd), mirroring a legacy branch commitment.
    fn chosen_subset(&self) -> Vec<BLit> {
        let mut out: Vec<BLit> = Vec::with_capacity(self.n_problem);
        for cl in &self.clauses[..self.n_problem] {
            let l = cl
                .iter()
                .copied()
                .find(|&l| self.is_true(l))
                .expect("full assignment satisfies every problem clause");
            if !out.contains(&l) {
                out.push(l);
            }
        }
        out
    }

    /// Next decision: unassigned variable with maximal activity, ties to
    /// the lowest id; polarity is the first-occurrence phase.
    fn pick_decision(&self) -> Option<BLit> {
        let mut best: Option<usize> = None;
        for v in 0..self.keys.len() {
            if self.value[v].is_some() {
                continue;
            }
            match best {
                Some(b) if self.activity[v] <= self.activity[b] => {}
                _ => best = Some(v),
            }
        }
        best.map(|v| (v, self.phase[v]))
    }
}

/// Feasibility of `fixed` plus the literals of `subset`.
fn theory_check(
    eng: &Engine,
    fixed: &[Literal],
    subset: &[BLit],
    ctx: &mut SearchCtx<'_>,
) -> Feasibility {
    let owned: Vec<Literal> = subset.iter().map(|&(v, p)| eng.keys[v].lit(p)).collect();
    let refs: Vec<&Literal> = fixed.iter().chain(owned.iter()).collect();
    lits_feasible(&refs, ctx)
}

/// Deletion-based explanation minimization: drop subset literals (latest
/// assignment first) while the remainder stays infeasible. Any `Unknown`
/// from a probe is returned as terminal.
fn minimize_explanation(
    eng: &Engine,
    fixed: &[Literal],
    subset: Vec<BLit>,
    ctx: &mut SearchCtx<'_>,
) -> Result<Vec<BLit>, StopReason> {
    if subset.len() > MINIMIZE_MAX || subset.len() <= 1 {
        return Ok(subset);
    }
    let mut pos: FxHashMap<usize, usize> = FxHashMap::default();
    for (i, &(v, _)) in eng.trail.iter().enumerate() {
        pos.insert(v, i);
    }
    let mut order: Vec<usize> = (0..subset.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(pos.get(&subset[i].0).copied().unwrap_or(0)));
    let mut keep = vec![true; subset.len()];
    for i in order {
        keep[i] = false;
        let trial: Vec<BLit> = subset
            .iter()
            .zip(&keep)
            .filter(|(_, &k)| k)
            .map(|(&l, _)| l)
            .collect();
        match theory_check(eng, fixed, &trial, ctx) {
            Feasibility::Infeasible => {} // literal was redundant: stays dropped
            Feasibility::Feasible => keep[i] = true,
            Feasibility::Unknown(r) => return Err(r),
        }
    }
    Ok(subset
        .into_iter()
        .zip(keep)
        .filter(|(_, k)| *k)
        .map(|(l, _)| l)
        .collect())
}

/// Search the presolve-reduced problem: `fixed` holds conjunctively,
/// `reduced` are the residual clauses of ≥ 2 canonical literals each.
pub(crate) fn search(
    fixed: &[Literal],
    reduced: &[Vec<Literal>],
    ctx: &mut SearchCtx<'_>,
) -> SearchOutcome {
    let mut learned_out: Vec<Clause> = Vec::new();
    let done = |result: SatResult, learned: Vec<Clause>| SearchOutcome { result, learned };

    // Level-0 theory check of the fixed (conjunctive) literals.
    {
        let refs: Vec<&Literal> = fixed.iter().collect();
        match lits_feasible(&refs, ctx) {
            Feasibility::Infeasible => {
                ctx.presolve_discharges += 1;
                return done(SatResult::Unsat, learned_out);
            }
            Feasibility::Unknown(r) => return done(SatResult::Unknown(r), learned_out),
            Feasibility::Feasible => {}
        }
    }
    if reduced.is_empty() {
        ctx.presolve_discharges += 1;
        return done(SatResult::Sat, learned_out);
    }

    // Boolean abstraction: number variables by first occurrence.
    let mut var_of: FxHashMap<VarKey, usize> = FxHashMap::default();
    let mut eng = Engine {
        keys: Vec::new(),
        value: Vec::new(),
        level: Vec::new(),
        reason: Vec::new(),
        phase: Vec::new(),
        activity: Vec::new(),
        act_inc: 1.0,
        clauses: Vec::with_capacity(reduced.len()),
        n_problem: reduced.len(),
        watches: Vec::new(),
        trail: Vec::new(),
        trail_lim: Vec::new(),
        prop_head: 0,
    };
    for clause in reduced {
        let mut bl: Vec<BLit> = Vec::with_capacity(clause.len());
        for lit in clause {
            let CanonLit::Var { key, polarity } = canon_lit(lit) else {
                unreachable!("presolve leaves only variable literals");
            };
            let v = *var_of.entry(key.clone()).or_insert_with(|| {
                eng.keys.push(key);
                eng.value.push(None);
                eng.level.push(0);
                eng.reason.push(None);
                eng.phase.push(polarity);
                eng.activity.push(0.0);
                eng.keys.len() - 1
            });
            bl.push((v, polarity));
        }
        eng.clauses.push(bl);
    }
    eng.watches = vec![Vec::new(); 2 * eng.keys.len()];
    for (ci, cl) in eng.clauses.iter().enumerate() {
        debug_assert!(cl.len() >= 2, "presolve extracts all units");
        eng.watches[lit_slot(cl[0])].push(ci);
        eng.watches[lit_slot(cl[1])].push(ci);
    }

    let mut restart_count: u64 = 0;
    let mut conflicts_since_restart: u64 = 0;

    loop {
        match eng.propagate(ctx) {
            PropResult::Stopped(r) => return done(SatResult::Unknown(r), learned_out),
            PropResult::Conflict(ci) => {
                ctx.conflicts += 1;
                if eng.decision_level() == 0 {
                    return done(SatResult::Unsat, learned_out);
                }
                let confl = eng.clauses[ci].clone();
                let (learned, bj) = eng.analyze(&confl);
                learned_out.push(eng.learn(learned, bj, ctx));
                conflicts_since_restart += 1;
                if conflicts_since_restart >= LUBY_UNIT * luby(restart_count + 1) {
                    restart_count += 1;
                    ctx.restarts += 1;
                    conflicts_since_restart = 0;
                    eng.backjump(0);
                }
            }
            PropResult::Ok => {
                if eng.trail.len() == eng.keys.len() {
                    // Full assignment: lazy theory check on the
                    // chosen-literal subset.
                    let subset = eng.chosen_subset();
                    match theory_check(&eng, fixed, &subset, ctx) {
                        Feasibility::Feasible => return done(SatResult::Sat, learned_out),
                        Feasibility::Unknown(r) => return done(SatResult::Unknown(r), learned_out),
                        Feasibility::Infeasible => {
                            ctx.conflicts += 1;
                            let s = match minimize_explanation(&eng, fixed, subset, ctx) {
                                Ok(s) => s,
                                Err(r) => return done(SatResult::Unknown(r), learned_out),
                            };
                            if s.is_empty() {
                                return done(SatResult::Unsat, learned_out);
                            }
                            let confl: Vec<BLit> = s.iter().map(|&(v, p)| (v, !p)).collect();
                            let lmax = confl.iter().map(|&(v, _)| eng.level[v]).max().unwrap_or(0);
                            if lmax == 0 {
                                return done(SatResult::Unsat, learned_out);
                            }
                            eng.backjump(lmax);
                            let (learned, bj) = eng.analyze(&confl);
                            learned_out.push(eng.learn(learned, bj, ctx));
                            conflicts_since_restart += 1;
                            if conflicts_since_restart >= LUBY_UNIT * luby(restart_count + 1) {
                                restart_count += 1;
                                ctx.restarts += 1;
                                conflicts_since_restart = 0;
                                eng.backjump(0);
                            }
                        }
                    }
                } else {
                    // Decision.
                    if let Some(r) = ctx.gov.poll() {
                        return done(SatResult::Unknown(r), learned_out);
                    }
                    ctx.branches += 1;
                    if ctx.branches > ctx.budget.max_branches {
                        return done(SatResult::Unknown(StopReason::Budget), learned_out);
                    }
                    let l = eng.pick_decision().expect("unassigned variable exists");
                    eng.trail_lim.push(eng.trail.len());
                    eng.assign(l, None);
                }
            }
        }
    }
}
