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
//! use formad_smt::{Formula, Solver, SatResult, Term};
//!
//! // Figure 2 of the paper: knowing i ≠ i' and c(i) ≠ c(i'),
//! // prove c(i)+7 and c(i')+7 cannot collide.
//! let mut s = Solver::new();
//! let i = Term::sym("i");
//! let ip = Term::sym("i'");
//! let ci = Term::app("c", vec![i.clone()]);
//! let cip = Term::app("c", vec![ip.clone()]);
//! let k1 = Formula::term_ne(&i, &ip, &mut s.table).unwrap();
//! let k2 = Formula::term_ne(&ci, &cip, &mut s.table).unwrap();
//! s.assert(k1);
//! s.assert(k2);
//! let q = Formula::term_eq(
//!     &(ci + Term::int(7)),
//!     &(cip + Term::int(7)),
//!     &mut s.table,
//! ).unwrap();
//! assert_eq!(s.check_with(q), SatResult::Unsat); // increment is safe
//! ```

pub mod brute;
pub mod chaos;
pub mod ctrl;
pub mod fm;
pub mod formula;
pub mod fx;
pub mod linexpr;
pub mod search;
pub mod solver;
pub mod term;

pub use chaos::{ChaosConfig, ChaosCounters, ChaosSolver};
pub use ctrl::{CancelToken, Deadline, Governor, Interrupt, StopReason};
pub use fm::{feasible, feasible_paced, Feasibility, FmBudget};
pub use formula::{Clause, Formula, Literal, Rel};
pub use fx::{FxHashMap, FxHashSet, FxHasher};
pub use linexpr::{normalize, AtomId, AtomKey, AtomTable, LinExpr, NormalizeError};
pub use search::SearchCore;
pub use solver::{InternedFormula, SatResult, Solver, SolverApi, SolverBudget, SolverStats};
pub use term::Term;
