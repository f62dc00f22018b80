//! # formad-machine
//!
//! Execution substrate for the FormAD reproduction:
//!
//! - [`mod@lower`]: compiles `formad-ir` programs to a slot-resolved form
//!   and decides, once for every backend, what each parallel region is
//!   (numbering, schedule, reduction redirects, fused increments, strides)
//!   and what the leaf operations compute;
//! - [`interp`]: the deterministic reference interpreter — logical
//!   threads run one after the other over the shared static schedule,
//!   with thread-local tapes and privatizing `reduction` clauses — and
//!   the exact event counters ([`ExecStats`]) fixtures and CI pin;
//! - [`exec`]: the **native engine** — a lowered program's host code
//!   (sequential statements, region prologues) runs on the interpreter's
//!   closures, built once per program ([`BcProgram`]), and each parallel
//!   region dispatches to its AOT kernel on real OS threads, via a
//!   persistent `formad-runtime` pool with the interpreter's static chunk
//!   schedule; without a kernel a region runs on the interpreter's path;
//! - [`aot`]: **AOT codegen** — parallel regions emitted as specialized
//!   Rust source (strides and extents baked in, increment disciplines
//!   compiled rather than branched on), built once via `rustc` into a
//!   hash-keyed shared-object cache; failures degrade to the
//!   interpreter's semantics;
//! - [`differential`]: the determinism contract — which programs must
//!   agree bit for bit between the interpreter and AOT on real OS workers
//!   (every one without a shared atomic increment), how the rest are
//!   checked, and the one cell checker every suite calls;
//! - [`fd`]: dot-product (finite-difference) validation of adjoints and
//!   tangents, parameterized over the execution backend.
//!
//! Semantics are exact and backend-independent. The interpreter measures
//! no time: every time figure comes from the AOT kernel on real cores.
//! See `DESIGN.md` ("Execution backends", "Determinism contract") for the
//! rationale.

pub mod aot;
pub mod bindings;
pub mod differential;
pub mod driver;
pub mod exec;
pub mod fd;
pub mod interp;
pub mod lower;

pub use aot::{load_or_compile, run_aot, AotError, AotKernel};
pub use bindings::{Bindings, ExecError};
pub use differential::{check_cell, CellError, CellOutcome, Compare, EngineCache};
pub use driver::{adjoint_bindings, bind_params, fill_real, output_lines, BindError};
pub use exec::{compile, BcProgram, NativeEngine, NativeProgram};
pub use fd::{dot_product_test, dot_product_test_with, tangent_dot_test, DotTest};
pub use interp::{run, ExecResult, ExecStats, Machine};
pub use lower::{lower, LProgram};
