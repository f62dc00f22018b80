//! Deterministic fault injection for the prover.
//!
//! `ChaosSolver` wraps a real [`Solver`] and, with seeded per-mille
//! probabilities, makes `check()` panic, answer `Unknown`, or stall for a
//! configurable delay before answering. The pipeline's degradation ladder
//! must absorb every one of these faults by keeping safeguards (more
//! atomics), never by miscompiling or crashing — the integration tests in
//! `formad-kernels` assert exactly that with finite-difference checks.
//!
//! All randomness is a splitmix64 stream over `ChaosConfig::seed`, so a
//! failing fault pattern is reproducible from the seed alone.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::ctrl::{Deadline, StopReason};
use crate::formula::Assertion;
use crate::linexpr::AtomTable;
use crate::search::SearchCore;
use crate::solver::{SatResult, Solver, SolverApi, SolverBudget, SolverStats};

/// Fault probabilities (per 1000 `check()` calls) and the deterministic
/// seed that drives them.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed of the fault stream; same seed ⇒ same fault pattern.
    pub seed: u64,
    /// Chance per mille that `check()` panics.
    pub panic_per_mille: u16,
    /// Chance per mille that `check()` answers `Unknown` without running.
    pub unknown_per_mille: u16,
    /// Chance per mille that `check()` sleeps for `delay` first (to
    /// exercise deadlines).
    pub delay_per_mille: u16,
    /// Stall length for delay faults.
    pub delay: Duration,
}

impl ChaosConfig {
    /// A fairly hostile default: 5% panics, 10% unknowns, no delays.
    pub fn with_seed(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            panic_per_mille: 50,
            unknown_per_mille: 100,
            delay_per_mille: 0,
            delay: Duration::from_millis(1),
        }
    }
}

/// Counters of injected faults, shared so they survive a panic unwinding
/// through the wrapped `check()` call.
#[derive(Debug, Default, Clone)]
pub struct ChaosCounters {
    inner: Arc<ChaosCountersInner>,
}

#[derive(Debug, Default)]
struct ChaosCountersInner {
    panics: AtomicU64,
    unknowns: AtomicU64,
    delays: AtomicU64,
    checks: AtomicU64,
}

impl ChaosCounters {
    pub fn panics(&self) -> u64 {
        self.inner.panics.load(Ordering::Relaxed)
    }
    pub fn unknowns(&self) -> u64 {
        self.inner.unknowns.load(Ordering::Relaxed)
    }
    pub fn delays(&self) -> u64 {
        self.inner.delays.load(Ordering::Relaxed)
    }
    pub fn checks(&self) -> u64 {
        self.inner.checks.load(Ordering::Relaxed)
    }
    pub fn faults(&self) -> u64 {
        self.panics() + self.unknowns() + self.delays()
    }
}

/// A [`Solver`] that randomly misbehaves on `check()`.
#[derive(Debug)]
pub struct ChaosSolver {
    inner: Solver,
    cfg: ChaosConfig,
    state: u64,
    /// Injected-fault counters (clone to keep a handle across a panic).
    pub counters: ChaosCounters,
}

impl ChaosSolver {
    pub fn new(cfg: ChaosConfig) -> ChaosSolver {
        ChaosSolver::wrap(Solver::new(), cfg)
    }

    pub fn wrap(inner: Solver, cfg: ChaosConfig) -> ChaosSolver {
        ChaosSolver {
            inner,
            state: cfg.seed ^ 0x6c62_272e_07bb_0142,
            cfg,
            counters: ChaosCounters::default(),
        }
    }

    /// The wrapped solver (e.g. to read its stats directly).
    pub fn inner(&self) -> &Solver {
        &self.inner
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Draw the fault (if any) for one `check()` call.
    fn draw_fault(&mut self) -> Option<Fault> {
        let roll = (self.next_u64() % 1000) as u16;
        let p = self.cfg.panic_per_mille;
        let u = p + self.cfg.unknown_per_mille;
        let d = u + self.cfg.delay_per_mille;
        if roll < p {
            Some(Fault::Panic)
        } else if roll < u {
            Some(Fault::Unknown)
        } else if roll < d {
            Some(Fault::Delay)
        } else {
            None
        }
    }
}

enum Fault {
    Panic,
    Unknown,
    Delay,
}

impl SolverApi for ChaosSolver {
    fn table_mut(&mut self) -> &mut AtomTable {
        &mut self.inner.table
    }
    fn push(&mut self) {
        self.inner.push();
    }
    fn pop(&mut self) {
        self.inner.pop();
    }
    fn assert(&mut self, a: &Assertion) {
        self.inner.assert(a);
    }
    fn check(&mut self) -> SatResult {
        self.counters.inner.checks.fetch_add(1, Ordering::Relaxed);
        match self.draw_fault() {
            Some(Fault::Panic) => {
                self.counters.inner.panics.fetch_add(1, Ordering::Relaxed);
                panic!("chaos: injected prover fault (seed {})", self.cfg.seed);
            }
            Some(Fault::Unknown) => {
                self.counters.inner.unknowns.fetch_add(1, Ordering::Relaxed);
                SatResult::Unknown(StopReason::Budget)
            }
            Some(Fault::Delay) => {
                self.counters.inner.delays.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(self.cfg.delay);
                self.inner.check()
            }
            None => self.inner.check(),
        }
    }
    fn stats(&self) -> SolverStats {
        self.inner.stats
    }
    fn set_budget(&mut self, budget: SolverBudget) {
        self.inner.set_budget(budget);
    }
    fn budget(&self) -> SolverBudget {
        self.inner.budget()
    }
    fn set_timeout(&mut self, timeout: Option<Duration>) {
        self.inner.set_timeout(timeout);
    }
    fn set_deadline(&mut self, deadline: Deadline) {
        self.inner.set_deadline(deadline);
    }
    fn reset_to_base(&mut self) {
        self.inner.reset_to_base();
    }
    fn set_search_core(&mut self, core: SearchCore) {
        self.inner.set_search_core(core);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::Literal;
    use crate::linexpr::LinExpr;

    /// `x` and `y` as rows of `s`'s table.
    fn xy(s: &mut ChaosSolver) -> (LinExpr, LinExpr) {
        let x = LinExpr::atom(s.table_mut().sym("x"));
        (x, LinExpr::atom(s.table_mut().sym("y")))
    }

    fn assert_xy_ne(s: &mut ChaosSolver) {
        let (x, y) = xy(s);
        s.assert(&Assertion::all(vec![Literal::ne(x, y)]));
    }

    #[test]
    fn fault_pattern_is_deterministic() {
        let run = |seed| {
            let mut s = ChaosSolver::new(ChaosConfig::with_seed(seed));
            assert_xy_ne(&mut s);
            let mut pattern = Vec::new();
            for _ in 0..200 {
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.check()));
                pattern.push(match r {
                    Ok(SatResult::Sat) => 's',
                    Ok(SatResult::Unsat) => 'u',
                    Ok(SatResult::Unknown(_)) => '?',
                    Err(_) => {
                        s.reset_to_base();
                        '!'
                    }
                });
            }
            pattern
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds should differ");
    }

    #[test]
    fn injects_roughly_configured_fault_rates() {
        let mut s = ChaosSolver::new(ChaosConfig {
            seed: 42,
            panic_per_mille: 100,
            unknown_per_mille: 200,
            delay_per_mille: 0,
            delay: Duration::ZERO,
        });
        assert_xy_ne(&mut s);
        let counters = s.counters.clone();
        for _ in 0..1000 {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.check()));
            s.reset_to_base();
        }
        assert!(
            (50..200).contains(&counters.panics()),
            "{}",
            counters.panics()
        );
        assert!(
            (100..320).contains(&counters.unknowns()),
            "{}",
            counters.unknowns()
        );
    }

    #[test]
    fn zero_rates_behave_like_real_solver() {
        let mut chaos = ChaosSolver::new(ChaosConfig {
            seed: 1,
            panic_per_mille: 0,
            unknown_per_mille: 0,
            delay_per_mille: 0,
            delay: Duration::ZERO,
        });
        assert_xy_ne(&mut chaos);
        assert_eq!(chaos.check(), SatResult::Sat);
        let (x, y) = xy(&mut chaos);
        let q = Assertion::all(vec![Literal::eq(x, y)]);
        assert_eq!(chaos.check_with(&q), SatResult::Unsat);
        assert_eq!(chaos.counters.faults(), 0);
    }
}
