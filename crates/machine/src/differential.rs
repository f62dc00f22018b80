//! The determinism contract: what "the backends agree" means, written
//! once and derived from the compiled program.
//!
//! A compiled program falls in one of two classes, read off its bytecode
//! by [`BcProgram::commit_order_dependent`]:
//!
//! - **schedule-independent** — plain and transposed accesses,
//!   rank-ordered reductions, serial code. No two logical threads touch
//!   the same shared location, so the result is a function of the
//!   program and the thread count alone: every native backend must
//!   reproduce the simulated interpreter **bit for bit on real OS
//!   workers**, one per logical thread, whatever the host's core count.
//! - **commit-order-dependent** — some parallel region CAS-increments a
//!   shared array (`!$omp atomic`, the safeguard FormAD keeps when it
//!   could not prove disjointness). Colliding increments commit in
//!   hardware order, so floating-point rounding depends on the
//!   interleaving and bitwise identity on real cores is not a property
//!   the program has. Such a cell is checked twice: bitwise on a
//!   **one-OS-worker** engine, where logical threads run in rank order —
//!   the simulator's order — which is the semantics check; and within
//!   [`REL_TOL`] on real workers, which is the concurrency check (a lost
//!   update is many orders of magnitude outside the tolerance). At T = 1
//!   the two legs are the same run, and it is held to bitwise.
//!
//! No cell is accepted on tolerance alone, and no suite picks a
//! comparison mode: [`check_cell`] is the one place that does.

use std::collections::HashMap;
use std::fmt;

use formad_ir::Program;

use crate::aot::AotKernel;
use crate::bindings::Bindings;
use crate::bytecode::{BcProgram, Instr};
use crate::cost::ExecResult;
use crate::exec::NativeEngine;
use crate::interp::{run, Machine};

/// Relative tolerance of the real-worker leg of a commit-order-dependent
/// cell: reals must agree within `REL_TOL · max(1, |a|, |b|)`.
pub const REL_TOL: f64 = 1e-9;

/// How two executions are compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Compare {
    /// Every real bit for bit.
    Bitwise,
    /// Reals within [`REL_TOL`]; integers are exact in both modes.
    Tolerance,
}

impl Compare {
    fn reals_agree(self, a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits()
            || (self == Compare::Tolerance
                && (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1.0))
    }
}

fn sorted<V>(map: &HashMap<String, V>) -> Vec<(&String, &V)> {
    let mut entries: Vec<_> = map.iter().collect();
    entries.sort_by_key(|(name, _)| *name);
    entries
}

impl Bindings {
    /// The first value of `self` that `other` does not reproduce under
    /// `mode`, as text; `None` when the two executions agree. Names are
    /// visited in sorted order, so "first" does not depend on hash order.
    pub fn first_difference(&self, other: &Bindings, mode: Compare) -> Option<String> {
        for (name, v) in sorted(&self.real_scalars) {
            match other.real_scalars.get(name) {
                Some(w) if mode.reals_agree(*v, *w) => {}
                Some(w) => return Some(format!("scalar `{name}`: {v} vs {w}")),
                None => return Some(format!("scalar `{name}` is missing")),
            }
        }
        for (name, v) in sorted(&self.real_arrays) {
            let Some(w) = other.real_arrays.get(name) else {
                return Some(format!("array `{name}` is missing"));
            };
            if v.len() != w.len() {
                return Some(format!("array `{name}` length {} vs {}", v.len(), w.len()));
            }
            if let Some(k) = (0..v.len()).find(|&k| !mode.reals_agree(v[k], w[k])) {
                return Some(format!("array `{name}`[{k}]: {} vs {}", v[k], w[k]));
            }
        }
        for (name, v) in sorted(&self.int_scalars) {
            if other.int_scalars.get(name) != Some(v) {
                return Some(format!("int `{name}`"));
            }
        }
        for (name, v) in sorted(&self.int_arrays) {
            if other.int_arrays.get(name) != Some(v) {
                return Some(format!("int array `{name}`"));
            }
        }
        None
    }
}

impl BcProgram {
    /// Does the result depend on the order in which concurrent threads
    /// commit? True iff some parallel region still holds an atomic
    /// increment: one of a `reduction` array compiled to a plain add on
    /// the thread's private copy, so every one left is shared.
    pub fn commit_order_dependent(&self) -> bool {
        self.regions
            .iter()
            .any(|r| r.code.iter().any(|i| matches!(i, Instr::AtomicAddR { .. })))
    }
}

/// `NativeEngine` spawns its OS workers at construction, so a suite
/// shares one engine per (logical threads, OS workers) across its cells.
#[derive(Default)]
pub struct EngineCache {
    engines: HashMap<(usize, usize), NativeEngine>,
}

impl EngineCache {
    pub fn new() -> EngineCache {
        EngineCache::default()
    }

    fn get(&mut self, threads: usize, os_threads: usize) -> &mut NativeEngine {
        self.engines
            .entry((threads, os_threads))
            .or_insert_with(|| NativeEngine::with_os_threads(threads, os_threads))
    }
}

/// Why a cell failed the contract.
#[derive(Debug, Clone, PartialEq)]
pub enum CellError {
    /// A run returned an error instead of a result.
    Run(String),
    /// A backend's result differs from the reference beyond what the
    /// program's class allows.
    Diverged(String),
}

impl fmt::Display for CellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellError::Run(m) | CellError::Diverged(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for CellError {}

/// What a cell that satisfies the contract yields.
#[derive(Debug)]
pub struct CellOutcome {
    /// The simulated reference run's results.
    pub reference: Bindings,
    /// Its cost-model cycles and event counts.
    pub sim: ExecResult,
    /// Must every run of the cell be bitwise? A schedule-independent
    /// program, or one logical thread (which commits in rank order).
    exact: bool,
}

impl CellOutcome {
    /// Hold one more run of the cell — on the engine a benchmark times,
    /// say — to the reference as the real-worker leg does. `Ok` says
    /// whether the run reproduced the reference bit for bit (always, for
    /// an exact cell); `Err` is the first difference beyond what the
    /// cell's class allows.
    pub fn admits(&self, out: &Bindings) -> Result<bool, String> {
        match self.reference.first_difference(out, Compare::Bitwise) {
            None => Ok(true),
            Some(d) if self.exact => Err(format!("must be bitwise: {d}")),
            Some(_) => match self.reference.first_difference(out, Compare::Tolerance) {
                None => Ok(false),
                Some(d) => Err(format!(
                    "commit-order-dependent program, beyond tolerance: {d}"
                )),
            },
        }
    }
}

/// Check one (program, thread count) cell: run `prog` under the
/// simulated interpreter and `bc` on every native backend handed in —
/// bytecode always, the AOT `kernel` when there is one — and compare as
/// the program's class demands (module docs).
pub fn check_cell(
    engines: &mut EngineCache,
    prog: &Program,
    bc: &BcProgram,
    kernel: Option<&AotKernel>,
    bind: &Bindings,
    threads: usize,
) -> Result<CellOutcome, CellError> {
    let threads = threads.max(1);
    let mut reference = bind.clone();
    let sim = run(prog, &mut reference, &Machine::with_threads(threads))
        .map_err(|e| CellError::Run(format!("sim run (T={threads}) failed: {e}")))?;
    let dependent = bc.commit_order_dependent();
    let cell = CellOutcome {
        reference,
        sim,
        // At T=1 the real-worker run *is* the rank-ordered one-worker leg.
        exact: !dependent || threads == 1,
    };
    let class = if dependent {
        "commit-order-dependent"
    } else {
        "schedule-independent"
    };
    let backends = std::iter::once(("bytecode", None)).chain(kernel.map(|k| ("aot", Some(k))));
    for (backend, kernel) in backends {
        let mut on = |os_threads: usize| -> Result<Bindings, CellError> {
            let mut out = bind.clone();
            engines
                .get(threads, os_threads)
                .run_with(bc, kernel, &mut out)
                .map_err(|e| {
                    CellError::Run(format!(
                        "{backend} run (T={threads}, {os_threads} OS workers) failed: {e}"
                    ))
                })?;
            Ok(out)
        };
        // One OS worker per logical thread: real concurrency whenever
        // T ≥ 2, on any host.
        cell.admits(&on(threads)?).map_err(|d| {
            CellError::Diverged(format!(
                "sim vs {backend} T={threads} on {threads} OS workers ({class} program): {d}"
            ))
        })?;
        if !cell.exact {
            let in_order = on(1)?;
            if let Some(d) = cell.reference.first_difference(&in_order, Compare::Bitwise) {
                return Err(CellError::Diverged(format!(
                    "sim vs {backend} T={threads} on one OS worker (rank order, must be \
                     bitwise): {d}"
                )));
            }
        }
    }
    Ok(cell)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, lower};
    use formad_ir::parse_program;

    /// One parallel loop over `i = 1, n` around `body`.
    fn kernel(body: &str) -> Program {
        parse_program(&format!(
            "subroutine k(n, x, y)\n  integer, intent(in) :: n\n  real, intent(in) :: x(n)\n  \
             real, intent(inout) :: y(n)\n  integer :: i\n  !$omp parallel do shared(x, y)\n  \
             do i = 1, n\n{body}\n  end do\nend subroutine\n"
        ))
        .expect("parse")
    }

    /// Disjoint plain increments: schedule-independent.
    fn saxpy(a: &str) -> Program {
        kernel(&format!("    y(i) = y(i) + {a} * x(i)"))
    }

    /// Every increment lands in one of seven cells, under `!$omp atomic`:
    /// commit-order-dependent.
    fn scatter(a: &str) -> Program {
        kernel(&format!(
            "    !$omp atomic\n    y(mod(i, 7) + 1) = y(mod(i, 7) + 1) + {a} * x(i)"
        ))
    }

    /// Hold the compiled code of `compiled` to the reference semantics of
    /// `reference` at `threads` — a stand-in for a backend that computes
    /// something else.
    fn check_against(
        reference: &Program,
        compiled: &Program,
        threads: usize,
    ) -> Result<CellOutcome, CellError> {
        let bind = Bindings::new()
            .int("n", 700)
            .real_array("x", (0..700).map(|k| (k as f64 * 0.3).sin()).collect())
            .real_array("y", vec![0.25; 700]);
        let bc = compile(&lower(compiled, &bind).expect("lower"), compiled).expect("compile");
        check_cell(
            &mut EngineCache::new(),
            reference,
            &bc,
            None,
            &bind,
            threads,
        )
    }

    fn diverged(r: Result<CellOutcome, CellError>) -> String {
        match r {
            Err(CellError::Diverged(m)) => m,
            other => panic!("expected a divergence, got {other:?}"),
        }
    }

    #[test]
    fn a_wrong_backend_is_rejected_in_either_class() {
        assert!(check_against(&saxpy("2.0"), &saxpy("2.0"), 3).is_ok());
        let m = diverged(check_against(&saxpy("2.0"), &saxpy("2.000000000001"), 3));
        assert!(m.contains("schedule-independent"), "{m}");

        assert!(check_against(&scatter("2.0"), &scatter("2.0"), 3).is_ok());
        // Far outside the tolerance: the real-worker leg says so.
        let m = diverged(check_against(&scatter("2.0"), &scatter("2.001"), 3));
        assert!(m.contains("beyond tolerance"), "{m}");
        // Inside the tolerance: the rank-ordered one-worker leg still
        // catches it — no cell passes on tolerance alone.
        let m = diverged(check_against(
            &scatter("2.0"),
            &scatter("2.000000000001"),
            3,
        ));
        assert!(m.contains("one OS worker"), "{m}");
        // At T=1 the only run is that leg, so it is bitwise too.
        assert!(check_against(&scatter("2.0"), &scatter("2.0"), 1).is_ok());
        let m = diverged(check_against(
            &scatter("2.0"),
            &scatter("2.000000000001"),
            1,
        ));
        assert!(m.contains("must be bitwise"), "{m}");
    }

    #[test]
    fn a_failing_run_is_not_a_divergence() {
        let p = saxpy("1.0");
        let unbound = Bindings::new().int("n", 4);
        let bind = unbound
            .clone()
            .real_array("x", vec![0.0; 4])
            .real_array("y", vec![0.0; 4]);
        let bc = compile(&lower(&p, &bind).expect("lower"), &p).expect("compile");
        match check_cell(&mut EngineCache::new(), &p, &bc, None, &unbound, 2) {
            Err(CellError::Run(m)) => assert!(m.contains("sim run"), "{m}"),
            other => panic!("expected a run failure, got {other:?}"),
        }
    }

    fn sums(y: Vec<f64>) -> Bindings {
        Bindings::new().int("n", 3).real_array("y", y)
    }

    #[test]
    fn tolerance_admits_reassociation_and_nothing_larger() {
        let total = 0.1 + 0.2 + 0.3;
        let reference = sums(vec![total, 1.0e6]);
        // The same three addends committed in another order: one ulp off.
        let reassociated = sums(vec![0.3 + 0.2 + 0.1, 1.0e6]);
        assert_ne!(total.to_bits(), (0.3f64 + 0.2 + 0.1).to_bits());
        // A lost update: one addend never landed.
        let dropped = sums(vec![0.1 + 0.2, 1.0e6]);

        assert_eq!(
            reference.first_difference(&reassociated, Compare::Tolerance),
            None
        );
        let d = reference
            .first_difference(&dropped, Compare::Tolerance)
            .expect("a dropped contribution is far outside the tolerance");
        assert!(d.starts_with("array `y`[0]"), "{d}");
        for other in [&reassociated, &dropped] {
            assert!(reference
                .first_difference(other, Compare::Bitwise)
                .is_some());
        }
        assert_eq!(
            reference.first_difference(&reference.clone(), Compare::Bitwise),
            None
        );
    }

    #[test]
    fn integers_are_exact_in_both_modes() {
        let a = Bindings::new()
            .int("n", 1_000_000_000)
            .int_array("c", vec![1, 2]);
        let b = Bindings::new()
            .int("n", 1_000_000_001)
            .int_array("c", vec![1, 2]);
        let c = Bindings::new()
            .int("n", 1_000_000_000)
            .int_array("c", vec![1, 3]);
        for mode in [Compare::Bitwise, Compare::Tolerance] {
            assert_eq!(a.first_difference(&b, mode).as_deref(), Some("int `n`"));
            assert_eq!(
                a.first_difference(&c, mode).as_deref(),
                Some("int array `c`")
            );
        }
    }
}
