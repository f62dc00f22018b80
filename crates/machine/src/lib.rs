//! # formad-machine
//!
//! Execution substrate for the FormAD reproduction:
//!
//! - [`mod@lower`]: compiles `formad-ir` programs to a slot-resolved form
//!   and decides, once for every backend, what each parallel region is
//!   (numbering, schedule, reduction redirects, fused increments, strides)
//!   and what the leaf operations compute;
//! - [`interp`]: a deterministic interpreter with a **simulated
//!   shared-memory multiprocessor** — static-scheduled simulated threads,
//!   thread-local tapes, privatizing `reduction` clauses, and a calibrated
//!   [`cost::CostModel`] charging plain/atomic/reduction accesses so the
//!   paper's scalability experiments (run on an 18-core Xeon) can be
//!   regenerated on a single-core host;
//! - [`bytecode`] + [`exec`]: the **native backend** — lowered programs
//!   compile to a flat register bytecode executed on real OS threads via
//!   a persistent `formad-runtime` pool, with the same static chunk
//!   schedule as the simulator;
//! - [`aot`]: the **AOT backend** — parallel regions emitted as
//!   specialized Rust source (strides and extents baked in, increment
//!   disciplines compiled rather than branched on), built once via
//!   `rustc` into a hash-keyed cdylib cache and run on the same pool
//!   and schedule as the bytecode engine; failures degrade to bytecode;
//! - [`differential`]: the determinism contract — which programs must
//!   agree bit for bit across all three backends on real OS workers
//!   (every one without a shared atomic increment), how the rest are
//!   checked, and the one cell checker every suite calls;
//! - [`fd`]: dot-product (finite-difference) validation of adjoints and
//!   tangents, parameterized over the execution backend.
//!
//! Semantics are exact and backend-independent; only the *cycle
//! accounting* models parallel hardware. See `DESIGN.md` ("Execution
//! backends", "Determinism contract") for the rationale.

pub mod aot;
pub mod bindings;
pub mod bytecode;
pub mod cost;
pub mod differential;
pub mod driver;
pub mod exec;
pub mod fd;
pub mod interp;
pub mod lower;

pub use aot::{load_or_compile, run_aot, AotError, AotKernel};
pub use bindings::{Bindings, ExecError};
pub use bytecode::{compile, BcProgram};
pub use cost::{CostModel, ExecResult, ExecStats};
pub use differential::{check_cell, CellError, CellOutcome, Compare, EngineCache};
pub use driver::{adjoint_bindings, bind_params, fill_real, output_lines, BindError};
pub use exec::{run_native, NativeEngine, NativeProgram};
pub use fd::{dot_product_test, dot_product_test_with, tangent_dot_test, DotTest};
pub use interp::{run, Machine};
pub use lower::{lower, LProgram};
