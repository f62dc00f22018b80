//! # formad-bench
//!
//! Drivers for the paper's evaluation (§7): Table 1 and the LBM
//! narrative from the analysis, the figures' run times from measured
//! kernels on the native backends ([`kernel_bench`], every cell held to
//! the determinism contract against the reference interpreter), plus the
//! ablation grid, the prover suite and the benchmark pair runner. The
//! `repro` binary is the command-line front end; this library holds the
//! reusable pieces so integration tests can assert on them.

pub mod ablation;
pub mod experiments;
pub mod kernel_bench;
pub mod pairs;
pub mod prover_bench;
pub mod versions;

pub use ablation::{ablation_grid, ablation_text, AblationRow};
pub use experiments::{lbm_report, table1, Table1Row};
pub use kernel_bench::{
    exec_threads, kernel_bench, kernel_bench_json, KernelBenchResult, KernelExecData,
    VersionTiming, BACKENDS,
};
pub use versions::{adjoint_bindings, ProgramVersions};
