//! # formad-analysis
//!
//! The static analyses FormAD layers on top of the IR (paper §5.1–§5.4):
//!
//! - [`body`]: one structural walk over a parallel region's body that
//!   numbers its sites and yields their contexts, instances and array
//!   references — the body has no jumps, so no control-flow graph is
//!   built;
//! - [`context`]: control *contexts* with the inclusion ordering used to
//!   place and retrieve disjointness knowledge;
//! - [`instance`]: instance numbering of possibly-overwritten scalars via
//!   reaching definitions;
//! - [`activity`]: forward/backward activity analysis limiting which
//!   variables receive adjoints;
//! - [`refs`]: array reference sites (with exact-increment tagging)
//!   feeding knowledge extraction and exploitation.

pub mod activity;
pub mod body;
pub mod context;
pub mod instance;
pub mod refs;

pub use activity::Activity;
pub use body::{analyze_body, SiteId, ENTRY_SITE};
pub use context::{Contexts, CtxId};
pub use instance::{InstanceId, Instances};
pub use refs::{AccessKind, ArrayRef, IncRole};
