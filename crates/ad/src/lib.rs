//! # formad-ad
//!
//! Reverse-mode (adjoint) source transformation over the `formad-ir` loop
//! language — the AD engine that FormAD's analysis plugs into (paper §4).
//!
//! The transformation is *split mode*: the generated adjoint subroutine
//! runs a forward sweep followed by a backward sweep (pops restoring
//! primal state, adjoint increments from the chain rule, reversed loops).
//! The forward sweep is not the primal: three data-flow analyses
//! (recompute set, per-site to-be-recorded, adjoint liveness — see
//! [`transform`]) keep only the tape pushes the backward sweep pops and
//! the primal statements those pushes depend on. Parallel loops remain
//! parallel in both sweeps with the same static schedule, so tapes stay
//! thread-local.
//!
//! **Contract.** `{name}_b` computes adjoints; primal outputs are not
//! returned; run the primal for the value. What `_b` leaves in a primal
//! `intent(out)`/`intent(inout)` parameter is unspecified — for a kernel
//! that is linear in its active data it is the value on entry.
//!
//! Safeguards for shared adjoint increments are selected per
//! [`ParallelTreatment`]: the four program versions of the paper's
//! evaluation (`Serial`, uniform `Atomic`, uniform `Reduction`, and the
//! per-array plan that the `formad` core crate derives from its
//! theorem-prover analysis).
//!
//! ```
//! use formad_ad::{differentiate, AdjointOptions, IncMode, ParallelTreatment};
//! use formad_ir::parse_program;
//!
//! let primal = parse_program(r#"
//! subroutine scale(n, x, y)
//!   integer, intent(in) :: n
//!   real, intent(in) :: x(n)
//!   real, intent(inout) :: y(n)
//!   integer :: i
//!   !$omp parallel do shared(x, y)
//!   do i = 1, n
//!     y(i) = y(i) + 3.0 * x(i)
//!   end do
//! end subroutine
//! "#).unwrap();
//! let adj = differentiate(
//!     &primal,
//!     &AdjointOptions::new(&["x"], &["y"], ParallelTreatment::Uniform(IncMode::Plain)),
//! ).unwrap();
//! assert_eq!(adj.program.name, "scale_b");
//! // Linear in `x`: nothing of the primal is re-executed or taped.
//! assert_eq!((adj.stats.fwd_kept, adj.stats.push_sites), (0, 0));
//! ```

pub mod adjoint_expr;
mod dataflow;
pub mod options;
pub mod tangent;
pub mod transform;
pub mod transpose;

pub use adjoint_expr::{adjoint_of_assign, AdjCtx, ExprAdjoint};
pub use options::{AdError, AdjointOptions, IncMode, ParallelTreatment};
pub use tangent::differentiate_tangent;
pub use transform::{differentiate, differentiate_validated, Adjoint, AdjointStats};
pub use transpose::{
    affine_in, plan_transpose, Aff, ObligationPair, Obligations, RegionWrites, TransposePlan,
};
