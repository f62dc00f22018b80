//! `formad-serve` — the resident differentiation service.
//!
//! One long-lived daemon multiplexes `analyze` / `prove` / `exec`
//! requests (JSON over HTTP on a local socket) onto a single shared
//! engine: one region-fingerprint index, one set of parked native exec
//! engines (each with its own worker pool), one set of aggregate
//! statistics. The robustness contract is
//! *degradation-not-errors*, lifted from the pipeline to the wire:
//!
//! - Requests that the prover cannot serve in time — saturation, an
//!   expired deadline, an isolated panic — are answered HTTP 200 with
//!   the always-safe atomic adjoint and `degraded: true`. The service
//!   never returns a 5xx.
//! - Admission is bounded: a small run/queue gate with a shedding
//!   ladder ([`admission`]) keeps latency flat under load. Only `exec`
//!   (which has no cheaper correct answer) can be told to retry later
//!   (HTTP 429 + `retry_after_ms`).
//! - Every request runs on the shared fingerprint index, which takes
//!   only definite region verdicts — final when the region's analysis
//!   returns — so a failed or poisoned request can never corrupt the
//!   warm index.
//!
//! Start one with [`serve`] or via the CLI: `formad serve --addr
//! 127.0.0.1:7878`.

pub mod admission;
pub mod http;
pub mod request;
pub mod server;
pub mod service;

pub use admission::{Admission, Admit, Permit, ShedLevel};
/// The workspace's one JSON value and parser lives in `formad::json`;
/// re-exported at the path the service protocol's callers use.
pub use formad::json::{self, Json};
pub use request::{Failure, Request, Verb};
pub use server::{install_sigint_handler, interrupted, serve, ServerHandle};
pub use service::{Service, ServiceConfig};
