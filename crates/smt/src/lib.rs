//! # formad-smt
//!
//! A from-scratch decision procedure standing in for the Z3 theorem prover
//! in the FormAD pipeline (paper §5.5/§6). The fragment is exactly what
//! FormAD's disjointness knowledge and queries live in: quantifier-free
//! linear integer arithmetic over free symbols and *opaque atoms*
//! (uninterpreted index-array reads such as `c(i)`, non-linear products,
//! divisions, modulos), with disequalities and small disjunctions (tuple
//! disjointness for multi-dimensional arrays).
//!
//! ## Soundness contract
//!
//! Every `Unsat` answer is backed by a derivation (Gaussian elimination
//! with GCD/integrality tests + Fourier–Motzkin with integer tightening),
//! so it is sound over the integers. `Sat` and `Unknown` answers may be
//! over-approximations; FormAD treats both as "possibly conflicting" and
//! keeps atomics in place — exactly the safe direction required by the
//! paper ("If the model remains satisfiable or if the theorem prover fails
//! to come to a conclusion, ... we will assume that the parallel accesses
//! to this adjoint variable are unsafe").
//!
//! ```
//! use formad_smt::{Assertion, LinExpr, Literal, SatResult, Solver};
//!
//! // Figure 2 of the paper: knowing i ≠ i' and c(i) ≠ c(i'),
//! // prove c(i)+7 and c(i')+7 cannot collide.
//! let mut s = Solver::new();
//! let i = s.table.scalar("i".into(), 0, false);
//! let ip = s.table.scalar("i".into(), 0, true);
//! let ci = s.table.app("c".into(), vec![i.clone()]);
//! let cip = s.table.app("c".into(), vec![ip.clone()]);
//! s.assert(&Assertion::all(vec![Literal::ne(i, ip)]));
//! s.assert(&Assertion::all(vec![Literal::ne(ci.clone(), cip.clone())]));
//! let seven = LinExpr::constant(7);
//! let q = Assertion::all(vec![Literal::eq(ci.add(&seven), cip.add(&seven))]);
//! assert_eq!(s.check_with(&q), SatResult::Unsat); // increment is safe
//! ```

pub mod brute;
pub mod chaos;
pub mod ctrl;
pub mod fm;
pub mod formula;
// The one Fx hasher lives in `formad-ir`; this crate has no dependency on
// it and compiles the same source.
#[path = "../../ir/src/fx.rs"]
pub mod fx;
pub mod linexpr;
pub mod search;
pub mod solver;

pub use chaos::{ChaosConfig, ChaosCounters, ChaosSolver};
pub use ctrl::{CancelToken, Deadline, Governor, Interrupt, StopReason};
pub use fm::{feasible, feasible_paced, Feasibility, FmBudget};
pub use formula::{Assertion, Literal, Rel};
pub use fx::{FxHashMap, FxHashSet, FxHasher};
pub use linexpr::{AtomId, AtomKey, AtomTable, LinExpr, NormalizeError, Symbol};
pub use search::SearchCore;
pub use solver::{SatResult, Solver, SolverApi, SolverBudget, SolverStats};
