//! The incremental solver: assertion stack, search-core dispatch, and
//! statistics. This is the component that stands in for Z3 in the
//! paper's pipeline (§5.5, §6). The actual satisfiability search lives in
//! [`crate::search`]: presolve, one lazy probe and a clause splitter,
//! with the splitter alone selectable as a differential oracle.

use std::time::Duration;

use crate::ctrl::{Deadline, Governor, Interrupt, StopReason};
use crate::fm::FmBudget;
use crate::formula::{Assertion, Literal};
use crate::linexpr::AtomTable;
use crate::search::presolve::{Arena, Frame};
use crate::search::{self, SearchCore, SearchCtx};

/// Result of a satisfiability check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SatResult {
    /// A model (almost certainly) exists.
    Sat,
    /// Provably no integer model exists.
    Unsat,
    /// Budget or deadline tripped (the payload says
    /// which); callers must treat this like `Sat` (keep safeguards).
    Unknown(StopReason),
}

impl SatResult {
    /// True for any `Unknown`, regardless of stop reason.
    pub fn is_unknown(&self) -> bool {
        matches!(self, SatResult::Unknown(_))
    }

    /// The stop reason, when the result is `Unknown`.
    pub fn stop_reason(&self) -> Option<StopReason> {
        match self {
            SatResult::Unknown(r) => Some(*r),
            _ => None,
        }
    }
}

/// Counters mirroring the statistics of Table 1 in the paper. All
/// counters saturate instead of wrapping, so aggregation over arbitrarily
/// many regions can never overflow.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of `check()` calls (the paper's "queries").
    pub checks: u64,
    /// Number of assertions currently or ever added (the paper's
    /// "Z3 size" accumulates per model; see `assertions_added`).
    pub assertions_added: u64,
    /// Number of calls into the linear feasibility core.
    pub lia_calls: u64,
    /// Number of branch nodes explored by the splitter.
    pub branches: u64,
    /// Number of `check()` calls that ended `Unknown` (any reason).
    pub unknowns: u64,
    /// `Unknown`s attributable to the wall-clock deadline (as opposed to
    /// work-counter budgets).
    pub interrupts: u64,
    /// Always 0: counters of the deleted query-level cache, read by the
    /// frozen `benchmark/` package. They go with the follow-up `benchmark`
    /// PR that drops its `smt.cache_*` rows.
    pub cache_hits: u64,
    pub cache_disk_hits: u64,
    pub cache_misses: u64,
    pub cache_inserts: u64,
    /// Unit commitments made by the splitter.
    pub propagations: u64,
    /// Branches the theory refuted: splitter leaves, and the probe when
    /// its one pick set was infeasible.
    pub conflicts: u64,
    /// `check()` calls settled by the presolve layer *or* by the one
    /// level-0 theory check of the literals it fixed — everything that
    /// never reached the probe. (The second kind is where a corpus with
    /// `discharge_ratio` 1 still gets its LIA calls from.)
    pub presolve_discharges: u64,
    /// Clauses canonicalized by the presolve layer, frame-snapshot builds
    /// included. With the stack presolved once per frame this tracks the
    /// clauses *asserted*, not checks × stack size.
    pub presolve_clauses: u64,
}

impl SolverStats {
    /// Accumulate `other` into `self`, saturating on overflow. Used to
    /// aggregate per-region statistics in the pipeline without
    /// copy-paste summation.
    pub fn merge(&mut self, other: &SolverStats) {
        self.checks = self.checks.saturating_add(other.checks);
        self.assertions_added = self.assertions_added.saturating_add(other.assertions_added);
        self.lia_calls = self.lia_calls.saturating_add(other.lia_calls);
        self.branches = self.branches.saturating_add(other.branches);
        self.unknowns = self.unknowns.saturating_add(other.unknowns);
        self.interrupts = self.interrupts.saturating_add(other.interrupts);
        self.propagations = self.propagations.saturating_add(other.propagations);
        self.conflicts = self.conflicts.saturating_add(other.conflicts);
        self.presolve_discharges = self
            .presolve_discharges
            .saturating_add(other.presolve_discharges);
        self.presolve_clauses = self.presolve_clauses.saturating_add(other.presolve_clauses);
    }

    /// Counters accumulated since an earlier snapshot `since` of the same
    /// solver, saturating at zero. Tracing uses this to attribute work
    /// (LIA calls, branches) to a single `check()`.
    pub fn delta(&self, since: &SolverStats) -> SolverStats {
        SolverStats {
            checks: self.checks.saturating_sub(since.checks),
            assertions_added: self.assertions_added.saturating_sub(since.assertions_added),
            lia_calls: self.lia_calls.saturating_sub(since.lia_calls),
            branches: self.branches.saturating_sub(since.branches),
            unknowns: self.unknowns.saturating_sub(since.unknowns),
            interrupts: self.interrupts.saturating_sub(since.interrupts),
            propagations: self.propagations.saturating_sub(since.propagations),
            conflicts: self.conflicts.saturating_sub(since.conflicts),
            presolve_discharges: self
                .presolve_discharges
                .saturating_sub(since.presolve_discharges),
            presolve_clauses: self.presolve_clauses.saturating_sub(since.presolve_clauses),
            ..SolverStats::default()
        }
    }
}

/// Work limits for a single `check()`.
#[derive(Debug, Clone, Copy)]
pub struct SolverBudget {
    /// Maximum feasibility-core invocations per check.
    pub max_lia_calls: u64,
    /// Maximum branch nodes per check.
    pub max_branches: u64,
    /// Limits for each feasibility-core run.
    pub fm: FmBudget,
}

impl Default for SolverBudget {
    fn default() -> Self {
        SolverBudget {
            max_lia_calls: 500_000,
            max_branches: 100_000,
            fm: FmBudget::default(),
        }
    }
}

/// An incremental SMT-style solver for quantifier-free linear integer
/// arithmetic over free atoms (symbols and opaque applications).
///
/// Supports `push`/`pop` scopes exactly like the Z3 API used in the paper,
/// so the knowledge-exploitation procedure (`testVar`) can temporarily add
/// a candidate-conflict equality and retract it.
///
/// The assertion stack is a stack of shared [`Assertion`]s (one per
/// `assert`), so asserting one is a reference-count bump instead of a
/// clause copy.
///
/// Beside the chunks sits one presolve snapshot per frame level, built
/// lazily by the first `check()` that needs it, so a `push; assert(query);
/// check; pop` round costs the query's clauses, not the stack's.
#[derive(Debug, Clone, Default)]
pub struct Solver {
    /// Atom interner shared by all assertions.
    pub table: AtomTable,
    chunks: Vec<Assertion>,
    frames: Vec<usize>,
    /// `snapshots[l]` is the presolved state of the chunks below frame
    /// mark `l` (of the whole stack for the top level). Never longer than
    /// `frames.len() + 1`; a level is dropped when its chunks change.
    snapshots: Vec<Frame>,
    /// Canonical literals and presolve buffers, shared by every check.
    arena: Arena,
    /// Statistics accumulated over the solver's lifetime.
    pub stats: SolverStats,
    budget: SolverBudget,
    /// Absolute deadline shared by every `check()`.
    interrupt: Interrupt,
    /// Per-`check()` wall-clock allowance, combined with the absolute
    /// deadline at each call (the tighter bound wins).
    timeout: Option<Duration>,
    /// Which path answers `check()` (the flat splitter is a differential
    /// oracle that only tests select).
    search_core: SearchCore,
}

impl Solver {
    /// Create a solver with default budgets.
    pub fn new() -> Solver {
        Solver::default()
    }

    /// Create a solver with a custom budget.
    pub fn with_budget(budget: SolverBudget) -> Solver {
        Solver {
            budget,
            ..Solver::new()
        }
    }

    /// Replace the work budget (used by the escalating-retry policy).
    pub fn set_budget(&mut self, budget: SolverBudget) {
        self.budget = budget;
    }

    /// The current work budget.
    pub fn budget(&self) -> SolverBudget {
        self.budget
    }

    /// Set an absolute wall-clock deadline shared by all later checks.
    pub fn set_deadline(&mut self, deadline: Deadline) {
        self.interrupt.deadline = deadline;
    }

    /// Set a per-`check()` wall-clock allowance (`None` = unbounded).
    /// Combined with any absolute deadline; the tighter bound wins.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) {
        self.timeout = timeout;
    }

    /// Pop every open frame, restoring the solver to its base assertion
    /// set. Used by recovery paths after a caught panic, where an
    /// in-flight query may have left unbalanced `push`es behind.
    pub fn reset_to_base(&mut self) {
        while let Some(mark) = self.frames.pop() {
            self.chunks.truncate(mark);
        }
        // Whatever interrupted the query may have done so mid-presolve.
        self.snapshots.clear();
    }

    /// Number of asserted clauses currently on the stack.
    pub fn num_clauses(&self) -> usize {
        self.chunks.iter().map(|a| a.clauses().count()).sum()
    }

    /// Push a backtracking point.
    pub fn push(&mut self) {
        self.frames.push(self.chunks.len());
    }

    /// Pop to the previous backtracking point.
    pub fn pop(&mut self) {
        let mark = self.frames.pop().expect("pop without matching push");
        self.chunks.truncate(mark);
        self.snapshots.truncate(self.frames.len() + 1);
    }

    /// Assert a clause or conjunction by sharing it — no literal copies.
    pub fn assert(&mut self, a: &Assertion) {
        self.stats.assertions_added += 1;
        self.chunks.push(a.clone());
        // The top level's snapshot no longer covers its frame.
        self.snapshots.truncate(self.frames.len());
    }

    /// Select the search engine used by later `check()` calls.
    pub fn set_search_core(&mut self, core: SearchCore) {
        self.search_core = core;
    }

    /// The currently selected search engine.
    pub fn search_core(&self) -> SearchCore {
        self.search_core
    }

    /// Check satisfiability of all assertions on the stack, respecting
    /// the work budget and the wall-clock deadline.
    pub fn check(&mut self) -> SatResult {
        self.stats.checks = self.stats.checks.saturating_add(1);
        // Effective interrupt: absolute deadline ∧ per-check timeout.
        let mut interrupt = self.interrupt.clone();
        if let Some(t) = self.timeout {
            interrupt.deadline = interrupt.deadline.earliest(Deadline::after(t));
        }
        let gov = Governor::new(&interrupt);
        let mut ctx = SearchCtx::new(self.budget, &self.table, &mut self.arena, gov);
        // The oracle has no presolve layer and searches the flat clause
        // list; the default path presolves the delta against the frame
        // snapshots and never flattens the stack.
        let result = match self.search_core {
            SearchCore::Flat => {
                let clauses: Vec<Vec<Literal>> = self
                    .chunks
                    .iter()
                    .flat_map(Assertion::clauses)
                    .map(<[Literal]>::to_vec)
                    .collect();
                search::search_flat(&clauses, &mut ctx)
            }
            SearchCore::Presolved => {
                search::search_stack(&mut self.snapshots, &self.chunks, &self.frames, &mut ctx)
            }
        };
        if let SatResult::Unknown(reason) = result {
            self.stats.unknowns = self.stats.unknowns.saturating_add(1);
            if reason == StopReason::Deadline {
                self.stats.interrupts = self.stats.interrupts.saturating_add(1);
            }
        }
        fold_search_counters(&mut self.stats, &ctx);
        result
    }

    /// `push(); assert(a); check(); pop();` in one call.
    pub fn check_with(&mut self, a: &Assertion) -> SatResult {
        self.push();
        self.assert(a);
        let r = self.check();
        self.pop();
        r
    }
}

/// Accumulate a search context's work counters into the solver stats.
fn fold_search_counters(stats: &mut SolverStats, ctx: &SearchCtx<'_>) {
    stats.lia_calls = stats.lia_calls.saturating_add(ctx.lia_calls);
    stats.branches = stats.branches.saturating_add(ctx.branches);
    stats.propagations = stats.propagations.saturating_add(ctx.propagations);
    stats.conflicts = stats.conflicts.saturating_add(ctx.conflicts);
    stats.presolve_discharges = stats
        .presolve_discharges
        .saturating_add(ctx.presolve_discharges);
    stats.presolve_clauses = stats.presolve_clauses.saturating_add(ctx.presolve_clauses);
}

/// The solver surface the analysis pipeline programs against. Both the
/// real [`Solver`] and the fault-injecting `ChaosSolver` implement it, so
/// the degradation ladder in `formad-core` can be exercised under
/// deterministic faults without a second code path.
pub trait SolverApi {
    /// The atom interner rows asserted into this solver are built over.
    fn table_mut(&mut self) -> &mut AtomTable;
    /// Push a backtracking point.
    fn push(&mut self);
    /// Pop to the previous backtracking point.
    fn pop(&mut self);
    /// Assert a clause or conjunction (shared, not copied).
    fn assert(&mut self, a: &Assertion);
    /// Check satisfiability of the assertion stack.
    fn check(&mut self) -> SatResult;
    /// Statistics accumulated so far.
    fn stats(&self) -> SolverStats;
    /// Replace the work budget.
    fn set_budget(&mut self, budget: SolverBudget);
    /// The current work budget.
    fn budget(&self) -> SolverBudget;
    /// Per-`check()` wall-clock allowance.
    fn set_timeout(&mut self, timeout: Option<Duration>);
    /// Absolute deadline shared by later checks.
    fn set_deadline(&mut self, deadline: Deadline);
    /// Recover after a caught panic: drop all open frames.
    fn reset_to_base(&mut self);
    /// Select the search engine answering later `check()` calls.
    fn set_search_core(&mut self, core: SearchCore);
    /// `push(); assert(a); check(); pop();` in one call.
    fn check_with(&mut self, a: &Assertion) -> SatResult {
        self.push();
        self.assert(a);
        let r = self.check();
        self.pop();
        r
    }
}

impl SolverApi for Solver {
    fn table_mut(&mut self) -> &mut AtomTable {
        &mut self.table
    }
    fn push(&mut self) {
        Solver::push(self);
    }
    fn pop(&mut self) {
        Solver::pop(self);
    }
    fn assert(&mut self, a: &Assertion) {
        Solver::assert(self, a);
    }
    fn check(&mut self) -> SatResult {
        Solver::check(self)
    }
    fn stats(&self) -> SolverStats {
        self.stats
    }
    fn set_budget(&mut self, budget: SolverBudget) {
        Solver::set_budget(self, budget);
    }
    fn budget(&self) -> SolverBudget {
        Solver::budget(self)
    }
    fn set_timeout(&mut self, timeout: Option<Duration>) {
        Solver::set_timeout(self, timeout);
    }
    fn set_deadline(&mut self, deadline: Deadline) {
        Solver::set_deadline(self, deadline);
    }
    fn reset_to_base(&mut self) {
        Solver::reset_to_base(self);
    }
    fn set_search_core(&mut self, core: SearchCore) {
        Solver::set_search_core(self, core);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linexpr::LinExpr;

    fn sym(s: &mut Solver, name: &str) -> LinExpr {
        LinExpr::atom(s.table.sym(name))
    }

    fn app(s: &mut Solver, f: &str, arg: LinExpr) -> LinExpr {
        s.table.app(f.into(), vec![arg])
    }

    fn int(v: i128) -> LinExpr {
        LinExpr::constant(v)
    }

    fn eq(a: &LinExpr, b: &LinExpr) -> Assertion {
        Assertion::all(vec![Literal::eq(a.clone(), b.clone())])
    }

    fn ne(a: &LinExpr, b: &LinExpr) -> Assertion {
        Assertion::all(vec![Literal::ne(a.clone(), b.clone())])
    }

    #[test]
    fn figure2_example() {
        // Knowledge: i ≠ i', c(i) ≠ c(i').
        // Query: c(i)+7 == c(i')+7 must be UNSAT.
        let mut s = Solver::new();
        let (i, ip) = (sym(&mut s, "i"), sym(&mut s, "i'"));
        s.assert(&ne(&i, &ip));
        let ci = app(&mut s, "c", i);
        let cip = app(&mut s, "c", ip);
        s.assert(&ne(&ci, &cip));
        assert_eq!(s.check(), SatResult::Sat);
        let q = eq(&ci.add(&int(7)), &cip.add(&int(7)));
        assert_eq!(s.check_with(&q), SatResult::Unsat);
        // A shifted query with a *different* offset is satisfiable.
        let q2 = eq(&ci.add(&int(7)), &cip);
        assert_eq!(s.check_with(&q2), SatResult::Sat);
    }

    #[test]
    fn push_pop_restores_state() {
        let mut s = Solver::new();
        let (x, y) = (sym(&mut s, "x"), sym(&mut s, "y"));
        s.assert(&ne(&x, &y));
        assert_eq!(s.num_clauses(), 1);
        s.push();
        s.assert(&eq(&x, &y));
        assert_eq!(s.check(), SatResult::Unsat);
        s.pop();
        assert_eq!(s.num_clauses(), 1);
        assert_eq!(s.check(), SatResult::Sat);
    }

    #[test]
    fn stride_two_parity() {
        // i = from + 2k, i' = from + 2k', k ≠ k'; query i' = i - 1 → UNSAT.
        let mut s = Solver::new();
        let [i, ip, from, k, kp] = ["i", "i'", "from", "k", "k'"].map(|n| sym(&mut s, n));
        s.assert(&eq(&i, &from.add(&k.scale(2))));
        s.assert(&eq(&ip, &from.add(&kp.scale(2))));
        s.assert(&ne(&k, &kp));
        assert_eq!(s.check(), SatResult::Sat);
        let q = eq(&ip, &i.sub(&int(1)));
        assert_eq!(s.check_with(&q), SatResult::Unsat);
        // Same-parity query i' = i + 2 is satisfiable.
        let q = eq(&ip, &i.add(&int(2)));
        assert_eq!(s.check_with(&q), SatResult::Sat);
    }

    #[test]
    fn tuple_knowledge_gfmc_style() {
        // Knowledge: ¬(idd' = idd ∧ j' = j)   (2-D write disjointness)
        // Query: idd' = idd ∧ j' = j  → UNSAT.
        let mut s = Solver::new();
        let [iddp, jp, idd, j, iuu] = ["idd'", "j'", "idd", "j", "iuu"].map(|n| sym(&mut s, n));
        s.assert(&Assertion::clause(vec![
            Literal::ne(iddp.clone(), idd.clone()),
            Literal::ne(jp.clone(), j.clone()),
        ]));
        assert_eq!(s.check(), SatResult::Sat);
        let tuple_eq = |a: &LinExpr, b: &LinExpr| {
            Assertion::all(vec![
                Literal::eq(iddp.clone(), a.clone()),
                Literal::eq(jp.clone(), b.clone()),
            ])
        };
        assert_eq!(s.check_with(&tuple_eq(&idd, &j)), SatResult::Unsat);
        // Cross pair (idd', j') vs (iuu, j) not covered by this knowledge.
        assert_eq!(s.check_with(&tuple_eq(&iuu, &j)), SatResult::Sat);
    }

    #[test]
    fn lbm_style_shifted_offsets_are_sat() {
        // Knowledge from writes at (eb + n*(-14399) + i); query about an
        // increment at (eb + 0·n + i) paired with (c + 0·n + i): no
        // knowledge matches, stays SAT → atomics kept (paper §7.3).
        let mut s = Solver::new();
        let [n, ebp, ip, eb, i, c] = ["n", "eb'", "i'", "eb", "i", "c"].map(|x| sym(&mut s, x));
        let w1 = ebp.add(&n.scale(-14399)).add(&ip);
        let w2 = eb.add(&n.scale(-14399)).add(&i);
        s.assert(&ne(&w1, &w2));
        s.assert(&ne(&i, &ip));
        let q = eq(&ebp.add(&ip), &c.add(&i));
        assert_eq!(s.check_with(&q), SatResult::Sat);
    }

    #[test]
    fn clause_branching_finds_unsat_across_disjunction() {
        // (x = 0 ∨ x = 1) ∧ x ≥ 2  → UNSAT needs branching both ways.
        let mut s = Solver::new();
        let x = sym(&mut s, "x");
        s.assert(&Assertion::clause(vec![
            Literal::eq(x.clone(), int(0)),
            Literal::eq(x.clone(), int(1)),
        ]));
        s.assert(&Assertion::all(vec![Literal::le(int(2), x)]));
        assert_eq!(s.check(), SatResult::Unsat);
    }

    #[test]
    fn empty_solver_is_sat() {
        let mut s = Solver::new();
        assert_eq!(s.check(), SatResult::Sat);
    }

    #[test]
    fn stats_accumulate() {
        let mut s = Solver::new();
        let f = hard_sat_query(&mut s, "a", "b");
        s.assert(&f);
        s.check();
        s.check();
        assert_eq!(s.stats.checks, 2);
        assert_eq!(s.stats.assertions_added, 1);
        assert!(s.stats.lia_calls > 0);
        // The stack was canonicalized for the first check only.
        assert_eq!(s.stats.presolve_clauses, 1);
    }

    #[test]
    fn congruence_propagates_through_applications() {
        // Knowledge: i ≠ i', c(i) ≠ c(i').
        // Query commits j = i and asks whether c(j) can equal c(i'):
        // only EUF reasoning (j = i ⇒ c(j) = c(i)) closes this.
        let mut s = Solver::new();
        let [i, ip, j] = ["i", "i'", "j"].map(|n| sym(&mut s, n));
        s.assert(&ne(&i, &ip));
        let ci = app(&mut s, "c", i.clone());
        let cip = app(&mut s, "c", ip);
        let cj = app(&mut s, "c", j.clone());
        s.assert(&ne(&ci, &cip));
        s.push();
        s.assert(&eq(&j, &i));
        s.assert(&eq(&cj, &cip));
        assert_eq!(s.check(), SatResult::Unsat);
        s.pop();
        // Without the j = i commitment the query is satisfiable.
        assert_eq!(s.check_with(&eq(&cj, &cip)), SatResult::Sat);
    }

    #[test]
    fn congruence_respects_argument_disequality() {
        // j ≠ i gives no grounds to equate c(j) and c(i); both outcomes
        // must remain possible (SAT for equality and for disequality).
        let mut s = Solver::new();
        let [i, j] = ["i", "j"].map(|n| sym(&mut s, n));
        s.assert(&ne(&j, &i));
        let ci = app(&mut s, "c", i);
        let cj = app(&mut s, "c", j);
        assert_eq!(s.check_with(&eq(&cj, &ci)), SatResult::Sat);
        assert_eq!(s.check_with(&ne(&cj, &ci)), SatResult::Sat);
    }

    #[test]
    fn nested_application_congruence() {
        // d(c(j)) vs d(c(i)) with j = i: needs two closure rounds.
        let mut s = Solver::new();
        let [i, j] = ["i", "j"].map(|n| sym(&mut s, n));
        let ci = app(&mut s, "c", i.clone());
        let dci = app(&mut s, "d", ci);
        let cj = app(&mut s, "c", j.clone());
        let dcj = app(&mut s, "d", cj);
        s.assert(&eq(&j, &i));
        assert_eq!(s.check_with(&ne(&dcj, &dci)), SatResult::Unsat);
    }

    #[test]
    fn contradictory_ground_assertion() {
        let mut s = Solver::new();
        s.assert(&eq(&int(1), &int(2)));
        assert_eq!(s.check(), SatResult::Unsat);
    }

    #[test]
    fn interned_assert_matches_plain_assert() {
        // One shared assertion asserted twice answers like two copies.
        let mut a = Solver::new();
        let mut b = Solver::new();
        let (xa, ya) = (sym(&mut a, "x"), sym(&mut a, "y"));
        let (xb, yb) = (sym(&mut b, "x"), sym(&mut b, "y"));
        a.assert(&ne(&xa, &ya));
        let shared = ne(&xb, &yb);
        b.assert(&shared);
        b.assert(&shared); // shared literals, second rc bump
        assert_eq!(a.num_clauses(), 1);
        assert_eq!(b.num_clauses(), 2);
        assert_eq!(b.stats.assertions_added, 2);
        assert_eq!(a.check(), b.check());
        // Shared asserts pop cleanly like fresh ones.
        b.push();
        b.assert(&shared);
        assert_eq!(b.num_clauses(), 3);
        b.pop();
        assert_eq!(b.num_clauses(), 2);
    }

    /// A query presolve cannot discharge: a genuine
    /// disjunction of inequalities with no unit literal to fix.
    fn hard_sat_query(s: &mut Solver, x: &str, y: &str) -> Assertion {
        let (x, y) = (sym(s, x), sym(s, y));
        Assertion::clause(vec![Literal::le(x.clone(), y.clone()), Literal::le(y, x)])
    }
}
