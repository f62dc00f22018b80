//! Grammar-driven differential fuzzer over every oracle pair of the
//! FormAD stack.
//!
//! The crate has five layers, each usable on its own:
//!
//! - [`grammar`] — seeded generator of well-typed DSL programs whose
//!   parallel regions are schedule-independent by construction (see the
//!   module docs for the invariants), biased toward footprint shapes
//!   near the provable/unprovable boundary;
//! - [`oracle`] — the differential harness: one generated case is
//!   pushed through the full pipeline and every independent oracle pair
//!   is cross-checked (verdicts across search cores / a durable index,
//!   trace validity, the concrete brute-force footprint check, the
//!   execution backends' determinism contract at every thread count,
//!   adjoint-vs-FD);
//! - [`footprint`] — the concrete race oracle backing the `Brute`
//!   check;
//! - [`shrink`] — a delta-debugging minimizer that preserves the
//!   observed divergence;
//! - [`repro`] — self-contained reproducer files (source + seed +
//!   config) written to a corpus directory and replayable by
//!   `formad fuzz --repro`.
//!
//! [`harness`] ties them together for the `formad fuzz` CLI verb, and
//! [`strategies`] re-exposes the generator as `proptest` strategies for
//! property tests elsewhere in the workspace.

pub mod footprint;
pub mod grammar;
pub mod harness;
pub mod oracle;
pub mod repro;
pub mod shrink;
pub mod strategies;

pub use grammar::{generate_case, FuzzCase, GenConfig};
pub use harness::{run_fuzz, FuzzConfig, FuzzOutcome};
pub use oracle::{run_case, Divergence, OracleConfig, OracleId};
pub use repro::Reproducer;
// Re-exported so the CLI can build `--chaos-legacy` poison configs and
// replay reproducers without depending on the SMT and machine crates
// directly.
pub use formad_machine::EngineCache;
pub use formad_smt::ChaosConfig;
