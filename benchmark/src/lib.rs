//! The one benchmark of FormAD-rs: five workloads, each run in its own
//! process, timed from outside the crates through their public
//! functions. See `README.md` for what each workload is for and which
//! layer metric should move which end-to-end metric.

pub mod analysis;
pub mod cli;
pub mod exec_adjoint;
pub mod host;
pub mod inputs;
pub mod metrics;
pub mod pipeline;
pub mod reanalyze;
pub mod serve_mix;
pub mod span;
pub mod stats;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use host::Jitter;
use metrics::Metrics;
use span::Tracer;
use stats::Samples;

/// Workload names, in the order `run.sh` runs them. `BENCHMARK.json`
/// records why each exists.
pub const WORKLOADS: [&str; 5] = [
    "prove_heavy",
    "frontend_corpus",
    "reanalyze",
    "exec_adjoint",
    "serve_mix",
];

/// One invocation's arguments.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// `false`: the untraced run, which yields the end-to-end metrics.
    /// `true`: the traced run, which yields the per-layer metrics and
    /// writes the span file.
    pub trace: bool,
    /// Scratch directory of this process, inside the checkout; removed
    /// when the run ends.
    pub scratch: PathBuf,
}

/// What a workload hands back to `main`.
#[derive(Debug)]
pub struct Outcome {
    /// Operations whose output was checked.
    pub attempted: u64,
    pub failed: u64,
    /// First few failure messages.
    pub failures: Vec<String>,
    pub metrics: Metrics,
    pub jitter: Jitter,
    /// Spans of the traced run.
    pub trace: Option<Tracer>,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: Metrics::default(),
            jitter: Jitter::new(),
            trace: None,
        }
    }

    /// Count one checked operation.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = result {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(msg);
            }
        }
    }

    /// The pass-level rows every workload shares: the gated figures in
    /// the untraced run, the distribution of whole passes (interference
    /// included) beside them in the traced one.
    pub fn set_pass_metrics(&mut self, trace: bool, passes: &Samples, pass_s: f64, op_p50_s: f64) {
        if trace {
            self.metrics.set("bench.passes", passes.len() as f64);
            self.metrics.set("bench.pass_p50_s", passes.p50());
            self.metrics.set("bench.pass_p90_s", passes.p90());
        } else {
            self.metrics.set("pass_s", pass_s);
            self.metrics.set("op_p50_ms", op_p50_s * 1e3);
        }
    }
}

impl Default for Outcome {
    fn default() -> Outcome {
        Outcome::new()
    }
}

/// The measured phase's clock: passes run until it expires, and at least
/// `min_passes` of them.
#[derive(Debug)]
pub struct Budget {
    deadline: Instant,
    min_passes: usize,
    done: usize,
}

impl Budget {
    pub fn new(seconds: f64, min_passes: usize) -> Budget {
        Budget {
            deadline: Instant::now() + Duration::from_secs_f64(seconds),
            min_passes,
            done: 0,
        }
    }

    /// True while another pass should run; counts the pass it admits.
    pub fn admit(&mut self) -> bool {
        let go = self.done < self.min_passes || Instant::now() < self.deadline;
        self.done += usize::from(go);
        go
    }
}

/// Median of a few set-up times.
pub fn median(xs: &[f64]) -> f64 {
    xs.iter().copied().collect::<Samples>().p50()
}

/// Run the named workload.
pub fn run_workload(cfg: &Config) -> Result<Outcome, String> {
    match cfg.workload.as_str() {
        "prove_heavy" => Ok(analysis::prove_heavy(cfg)),
        "frontend_corpus" => Ok(analysis::frontend_corpus(cfg)),
        "reanalyze" => Ok(reanalyze::run(cfg)),
        "exec_adjoint" => Ok(exec_adjoint::run(cfg)),
        "serve_mix" => Ok(serve_mix::run(cfg)),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}
