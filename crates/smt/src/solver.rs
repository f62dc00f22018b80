//! The incremental solver: assertion stack, search-core dispatch, and
//! statistics. This is the component that stands in for Z3 in the
//! paper's pipeline (§5.5, §6). The actual satisfiability search lives in
//! [`crate::search`]: presolve, one lazy probe and a clause splitter,
//! with the splitter alone selectable as a differential oracle.

use std::sync::Arc;
use std::time::Duration;

use crate::ctrl::{CancelToken, Deadline, Governor, Interrupt, StopReason};
use crate::fm::FmBudget;
use crate::formula::{Clause, Formula};
use crate::linexpr::AtomTable;
use crate::search::presolve::Frame;
use crate::search::{self, SearchCore, SearchCtx};

/// Result of a satisfiability check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SatResult {
    /// A model (almost certainly) exists.
    Sat,
    /// Provably no integer model exists.
    Unsat,
    /// Budget, deadline, or cancellation tripped (the payload says
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
    /// `Unknown`s attributable to the wall-clock deadline or an explicit
    /// cancellation (as opposed to work-counter budgets).
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

/// A formula lowered to CNF once, shareable across assertion sites.
///
/// `prove_array` used to `Formula::clone()` every root and fact formula
/// for every pair and re-run `to_cnf` inside `assert`; an
/// `InternedFormula` pays the CNF conversion once and is asserted by
/// reference-count bump afterwards.
#[derive(Debug, Clone)]
pub struct InternedFormula {
    clauses: Arc<Vec<Clause>>,
}

impl InternedFormula {
    /// Lower a formula to CNF and freeze it.
    pub fn new(f: Formula) -> InternedFormula {
        InternedFormula {
            clauses: Arc::new(f.to_cnf()),
        }
    }

    /// The frozen clauses.
    pub fn clauses(&self) -> &[Clause] {
        &self.clauses
    }

    /// Number of CNF clauses.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }
}

impl From<Formula> for InternedFormula {
    fn from(f: Formula) -> InternedFormula {
        InternedFormula::new(f)
    }
}

/// An incremental SMT-style solver for quantifier-free linear integer
/// arithmetic over free atoms (symbols and opaque applications).
///
/// Supports `push`/`pop` scopes exactly like the Z3 API used in the paper,
/// so the knowledge-exploitation procedure (`testVar`) can temporarily add
/// a candidate-conflict equality and retract it.
///
/// The assertion stack is a stack of shared *chunks* (one per `assert`),
/// so asserting an [`InternedFormula`] is a reference-count bump instead
/// of a clause copy.
///
/// Beside the chunks sits one presolve snapshot per frame level, built
/// lazily by the first `check()` that needs it, so a `push; assert(query);
/// check; pop` round costs the query's clauses, not the stack's.
#[derive(Debug, Clone, Default)]
pub struct Solver {
    /// Atom interner shared by all assertions.
    pub table: AtomTable,
    chunks: Vec<Arc<Vec<Clause>>>,
    frames: Vec<usize>,
    /// `snapshots[l]` is the presolved state of the chunks below frame
    /// mark `l` (of the whole stack for the top level). Never longer than
    /// `frames.len() + 1`; a level is dropped when its chunks change.
    snapshots: Vec<Frame>,
    /// Statistics accumulated over the solver's lifetime.
    pub stats: SolverStats,
    budget: SolverBudget,
    /// Absolute deadline + cancellation shared by every `check()`.
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

    /// Attach a cooperative cancellation token.
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.interrupt.cancel = Some(token);
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
        self.chunks.iter().map(|c| c.len()).sum()
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

    /// Assert a formula (converted to CNF clauses).
    pub fn assert(&mut self, f: Formula) {
        self.assert_interned(&InternedFormula::new(f));
    }

    /// Assert a pre-lowered formula by sharing its clause chunk — no
    /// clause copies, no repeated CNF conversion.
    pub fn assert_interned(&mut self, f: &InternedFormula) {
        self.stats.assertions_added += 1;
        self.chunks.push(Arc::clone(&f.clauses));
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
    /// the work budget, the wall-clock deadline, and the cancel token.
    pub fn check(&mut self) -> SatResult {
        self.stats.checks = self.stats.checks.saturating_add(1);
        // Effective interrupt: absolute deadline ∧ per-check timeout.
        let mut interrupt = self.interrupt.clone();
        if let Some(t) = self.timeout {
            interrupt.deadline = interrupt.deadline.earliest(Deadline::after(t));
        }
        let gov = Governor::new(&interrupt);
        let mut ctx = SearchCtx::new(self.budget, &self.table, gov);
        // The oracle has no presolve layer and searches the flat clause
        // list; the default path presolves the delta against the frame
        // snapshots and never flattens the stack.
        let result = match self.search_core {
            SearchCore::Flat => {
                let clauses: Vec<Clause> = self
                    .chunks
                    .iter()
                    .flat_map(|ch| ch.iter().cloned())
                    .collect();
                search::search_flat(&clauses, &mut ctx)
            }
            SearchCore::Presolved => {
                search::search_stack(&mut self.snapshots, &self.chunks, &self.frames, &mut ctx)
            }
        };
        if let SatResult::Unknown(reason) = result {
            self.stats.unknowns = self.stats.unknowns.saturating_add(1);
            if matches!(reason, StopReason::Deadline | StopReason::Cancelled) {
                self.stats.interrupts = self.stats.interrupts.saturating_add(1);
            }
        }
        fold_search_counters(&mut self.stats, &ctx);
        result
    }

    /// `push(); assert(f); check(); pop();` in one call.
    pub fn check_with(&mut self, f: Formula) -> SatResult {
        self.push();
        self.assert(f);
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
    /// The atom interner used to normalize terms into this solver.
    fn table_mut(&mut self) -> &mut AtomTable;
    /// Push a backtracking point.
    fn push(&mut self);
    /// Pop to the previous backtracking point.
    fn pop(&mut self);
    /// Assert a formula.
    fn assert(&mut self, f: Formula);
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
    /// Cooperative cancellation token.
    fn set_cancel_token(&mut self, token: CancelToken);
    /// Recover after a caught panic: drop all open frames.
    fn reset_to_base(&mut self);
    /// Assert a pre-lowered formula without re-running CNF conversion or
    /// copying clauses.
    fn assert_interned(&mut self, f: &InternedFormula);
    /// Select the search engine answering later `check()` calls.
    fn set_search_core(&mut self, core: SearchCore);
    /// `push(); assert(f); check(); pop();` in one call.
    fn check_with(&mut self, f: Formula) -> SatResult {
        self.push();
        self.assert(f);
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
    fn assert(&mut self, f: Formula) {
        Solver::assert(self, f);
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
    fn set_cancel_token(&mut self, token: CancelToken) {
        Solver::set_cancel_token(self, token);
    }
    fn reset_to_base(&mut self) {
        Solver::reset_to_base(self);
    }
    fn assert_interned(&mut self, f: &InternedFormula) {
        Solver::assert_interned(self, f);
    }
    fn set_search_core(&mut self, core: SearchCore) {
        Solver::set_search_core(self, core);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::Formula;
    use crate::linexpr::LinExpr;
    use crate::term::Term;

    fn sym(s: &str) -> Term {
        Term::sym(s)
    }

    #[test]
    fn figure2_example() {
        // Knowledge: i ≠ i', c(i) ≠ c(i').
        // Query: c(i)+7 == c(i')+7 must be UNSAT.
        let mut s = Solver::new();
        let f = Formula::term_ne(&sym("i"), &sym("i'"), &mut s.table).unwrap();
        s.assert(f);
        let ci = Term::app("c", vec![sym("i")]);
        let cip = Term::app("c", vec![sym("i'")]);
        let f = Formula::term_ne(&ci, &cip, &mut s.table).unwrap();
        s.assert(f);
        assert_eq!(s.check(), SatResult::Sat);
        let q = Formula::term_eq(
            &(ci.clone() + Term::int(7)),
            &(cip.clone() + Term::int(7)),
            &mut s.table,
        )
        .unwrap();
        assert_eq!(s.check_with(q), SatResult::Unsat);
        // A shifted query with a *different* offset is satisfiable.
        let q2 = Formula::term_eq(&(ci + Term::int(7)), &cip, &mut s.table).unwrap();
        assert_eq!(s.check_with(q2), SatResult::Sat);
    }

    #[test]
    fn push_pop_restores_state() {
        let mut s = Solver::new();
        let f = Formula::term_ne(&sym("x"), &sym("y"), &mut s.table).unwrap();
        s.assert(f);
        assert_eq!(s.num_clauses(), 1);
        s.push();
        let g = Formula::term_eq(&sym("x"), &sym("y"), &mut s.table).unwrap();
        s.assert(g);
        assert_eq!(s.check(), SatResult::Unsat);
        s.pop();
        assert_eq!(s.num_clauses(), 1);
        assert_eq!(s.check(), SatResult::Sat);
    }

    #[test]
    fn stride_two_parity() {
        // i = from + 2k, i' = from + 2k', k ≠ k'; query i' = i - 1 → UNSAT.
        let mut s = Solver::new();
        let two = Term::int(2);
        let f = Formula::term_eq(
            &sym("i"),
            &(sym("from") + two.clone() * sym("k")),
            &mut s.table,
        )
        .unwrap();
        s.assert(f);
        let f =
            Formula::term_eq(&sym("i'"), &(sym("from") + two * sym("k'")), &mut s.table).unwrap();
        s.assert(f);
        let f = Formula::term_ne(&sym("k"), &sym("k'"), &mut s.table).unwrap();
        s.assert(f);
        assert_eq!(s.check(), SatResult::Sat);
        let q = Formula::term_eq(&sym("i'"), &(sym("i") - Term::int(1)), &mut s.table).unwrap();
        assert_eq!(s.check_with(q), SatResult::Unsat);
        // Same-parity query i' = i + 2 is satisfiable.
        let q = Formula::term_eq(&sym("i'"), &(sym("i") + Term::int(2)), &mut s.table).unwrap();
        assert_eq!(s.check_with(q), SatResult::Sat);
    }

    #[test]
    fn tuple_knowledge_gfmc_style() {
        // Knowledge: ¬(idd' = idd ∧ j' = j)   (2-D write disjointness)
        // Query: idd' = idd ∧ j' = j  → UNSAT.
        let mut s = Solver::new();
        let f = Formula::tuple_ne(
            &[sym("idd'"), sym("j'")],
            &[sym("idd"), sym("j")],
            &mut s.table,
        )
        .unwrap();
        s.assert(f);
        assert_eq!(s.check(), SatResult::Sat);
        let q = Formula::tuple_eq(
            &[sym("idd'"), sym("j'")],
            &[sym("idd"), sym("j")],
            &mut s.table,
        )
        .unwrap();
        assert_eq!(s.check_with(q), SatResult::Unsat);
        // Cross pair (idd', j') vs (iuu, j) not covered by this knowledge.
        let q = Formula::tuple_eq(
            &[sym("idd'"), sym("j'")],
            &[sym("iuu"), sym("j")],
            &mut s.table,
        )
        .unwrap();
        assert_eq!(s.check_with(q), SatResult::Sat);
    }

    #[test]
    fn lbm_style_shifted_offsets_are_sat() {
        // Knowledge from writes at (eb + n*(-14399) + i); query about an
        // increment at (eb + 0·n + i) paired with (c + 0·n + i): no
        // knowledge matches, stays SAT → atomics kept (paper §7.3).
        let mut s = Solver::new();
        let n = sym("n");
        let w1 = sym("eb'") + n.clone() * Term::int(-14399) + sym("i'");
        let w2 = sym("eb") + n.clone() * Term::int(-14399) + sym("i");
        let f = Formula::term_ne(&w1, &w2, &mut s.table).unwrap();
        s.assert(f);
        let f = Formula::term_ne(&sym("i"), &sym("i'"), &mut s.table).unwrap();
        s.assert(f);
        let q = Formula::term_eq(
            &(sym("eb'") + sym("i'")),
            &(sym("c") + sym("i")),
            &mut s.table,
        )
        .unwrap();
        assert_eq!(s.check_with(q), SatResult::Sat);
    }

    #[test]
    fn clause_branching_finds_unsat_across_disjunction() {
        // (x = 0 ∨ x = 1) ∧ x ≥ 2  → UNSAT needs branching both ways.
        let mut s = Solver::new();
        let x = crate::linexpr::normalize(&sym("x"), &mut s.table).unwrap();
        let zero = LinExpr::constant(0);
        let one = LinExpr::constant(1);
        let two = LinExpr::constant(2);
        s.assert(Formula::Or(vec![
            Formula::Lit(crate::formula::Literal::eq(x.clone(), zero)),
            Formula::Lit(crate::formula::Literal::eq(x.clone(), one)),
        ]));
        s.assert(Formula::Lit(crate::formula::Literal::le(two, x)));
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
        let f = hard_sat_query(&mut s.table, "a", "b");
        s.assert(f);
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
        let f = Formula::term_ne(&sym("i"), &sym("i'"), &mut s.table).unwrap();
        s.assert(f);
        let ci = Term::app("c", vec![sym("i")]);
        let cip = Term::app("c", vec![sym("i'")]);
        let cj = Term::app("c", vec![sym("j")]);
        let f = Formula::term_ne(&ci, &cip, &mut s.table).unwrap();
        s.assert(f);
        s.push();
        let f = Formula::term_eq(&sym("j"), &sym("i"), &mut s.table).unwrap();
        s.assert(f);
        let q = Formula::term_eq(&cj, &cip, &mut s.table).unwrap();
        s.assert(q);
        assert_eq!(s.check(), SatResult::Unsat);
        s.pop();
        // Without the j = i commitment the query is satisfiable.
        let q = Formula::term_eq(&cj, &cip, &mut s.table).unwrap();
        assert_eq!(s.check_with(q), SatResult::Sat);
    }

    #[test]
    fn congruence_respects_argument_disequality() {
        // j ≠ i gives no grounds to equate c(j) and c(i); both outcomes
        // must remain possible (SAT for equality and for disequality).
        let mut s = Solver::new();
        let f = Formula::term_ne(&sym("j"), &sym("i"), &mut s.table).unwrap();
        s.assert(f);
        let ci = Term::app("c", vec![sym("i")]);
        let cj = Term::app("c", vec![sym("j")]);
        let q = Formula::term_eq(&cj, &ci, &mut s.table).unwrap();
        assert_eq!(s.check_with(q), SatResult::Sat);
        let q = Formula::term_ne(&cj, &ci, &mut s.table).unwrap();
        assert_eq!(s.check_with(q), SatResult::Sat);
    }

    #[test]
    fn nested_application_congruence() {
        // d(c(j)) vs d(c(i)) with j = i: needs two closure rounds.
        let mut s = Solver::new();
        let dci = Term::app("d", vec![Term::app("c", vec![sym("i")])]);
        let dcj = Term::app("d", vec![Term::app("c", vec![sym("j")])]);
        let f = Formula::term_eq(&sym("j"), &sym("i"), &mut s.table).unwrap();
        s.assert(f);
        let q = Formula::term_ne(&dcj, &dci, &mut s.table).unwrap();
        assert_eq!(s.check_with(q), SatResult::Unsat);
    }

    #[test]
    fn contradictory_ground_assertion() {
        let mut s = Solver::new();
        let f = Formula::term_eq(&Term::int(1), &Term::int(2), &mut s.table).unwrap();
        s.assert(f);
        assert_eq!(s.check(), SatResult::Unsat);
    }

    #[test]
    fn interned_assert_matches_plain_assert() {
        let mut a = Solver::new();
        let mut b = Solver::new();
        let fa = Formula::term_ne(&sym("x"), &sym("y"), &mut a.table).unwrap();
        let fb = Formula::term_ne(&sym("x"), &sym("y"), &mut b.table).unwrap();
        a.assert(fa);
        let interned = InternedFormula::new(fb);
        b.assert_interned(&interned);
        b.assert_interned(&interned); // shared chunk, second rc bump
        assert_eq!(a.num_clauses(), 1);
        assert_eq!(b.num_clauses(), 2);
        assert_eq!(b.stats.assertions_added, 2);
        assert_eq!(a.check(), b.check());
        // Interned asserts pop cleanly like plain ones.
        b.push();
        b.assert_interned(&interned);
        assert_eq!(b.num_clauses(), 3);
        b.pop();
        assert_eq!(b.num_clauses(), 2);
    }

    /// A query presolve cannot discharge: a genuine
    /// disjunction of inequalities with no unit literal to fix.
    fn hard_sat_query(table: &mut AtomTable, x: &str, y: &str) -> Formula {
        let le = |a: &Term, b: &Term, t: &mut AtomTable| {
            Formula::Lit(crate::formula::Literal::le(
                crate::linexpr::normalize(a, t).unwrap(),
                crate::linexpr::normalize(b, t).unwrap(),
            ))
        };
        Formula::or(vec![
            le(&sym(x), &sym(y), table),
            le(&sym(y), &sym(x), table),
        ])
    }
}
