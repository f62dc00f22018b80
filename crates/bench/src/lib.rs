//! # formad-bench
//!
//! Experiment drivers regenerating every table and figure of the paper's
//! evaluation (§7) on the simulated shared-memory machine. The `repro`
//! binary is the command-line front end; this library holds the reusable
//! pieces so integration tests can assert the figures' *shape* (who wins,
//! by roughly what factor, where crossovers fall).

pub mod ablation;
pub mod experiments;
pub mod kernel_bench;
pub mod pairs;
pub mod prover_bench;
pub mod versions;

pub use ablation::{ablation_grid, ablation_text, AblationRow};
pub use experiments::{
    gfmc_figure, green_gauss_figure, lbm_report, stencil_figure, table1, FigureData, Table1Row,
    PAPER_THREADS,
};
pub use kernel_bench::{
    kernel_bench, kernel_bench_json, Calibration, KernelBenchResult, KernelExecData, VersionTiming,
    BACKENDS, EXEC_THREADS,
};
pub use versions::{adjoint_bindings, ProgramVersions};
