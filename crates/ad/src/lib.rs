//! # formad-ad
//!
//! Reverse-mode (adjoint) source transformation over the `formad-ir` loop
//! language — the AD engine that FormAD's analysis plugs into (paper §4).
//!
//! The transformation is *store-all split mode*: the generated adjoint
//! subroutine runs a forward sweep (primal computation plus tape pushes of
//! to-be-overwritten recorded values and branch decisions) followed by a
//! backward sweep (pops restoring primal state, adjoint increments from
//! the chain rule, reversed loops). Parallel loops remain parallel in both
//! sweeps with the same static schedule, so tapes stay thread-local.
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
//! assert_eq!(adj.name, "scale_b");
//! ```

pub mod adjoint_expr;
pub mod options;
pub mod tangent;
pub mod transform;
pub mod transpose;

pub use adjoint_expr::{adjoint_of_assign, AdjCtx, ExprAdjoint};
pub use options::{AdError, AdjointOptions, IncMode, ParallelTreatment};
pub use tangent::differentiate_tangent;
pub use transform::{differentiate, differentiate_validated};
pub use transpose::{affine_in, plan_transpose, Aff, ObligationPair, RegionWrites, TransposePlan};
