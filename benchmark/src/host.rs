//! The host record printed with every run, and the noise guard.

use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

use crate::stats::Samples;

/// Hardware threads the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn first_line_of(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .next()
        .map(str::to_string)
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// `nproc`, CPU model, toolchain, commit and load, as printable lines.
/// A checkout that is not a git repository reports commit `unknown`.
pub fn record(seed: u64) -> Vec<(&'static str, String)> {
    let unknown = || "unknown".to_string();
    vec![
        ("nproc", nproc().to_string()),
        (
            "cpu",
            proc_field("/proc/cpuinfo", "model name").unwrap_or_else(unknown),
        ),
        (
            "rustc",
            first_line_of("rustc", &["--version"]).unwrap_or_else(unknown),
        ),
        (
            "commit",
            first_line_of("git", &["rev-parse", "--short", "HEAD"]).unwrap_or_else(unknown),
        ),
        ("seed", seed.to_string()),
        (
            "loadavg",
            std::fs::read_to_string("/proc/loadavg")
                .map_or_else(|_| unknown(), |s| s.trim().to_string()),
        ),
    ]
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A run whose spin-loop quartiles differ by more than this is flagged
/// `noisy` (it is still reported).
pub const NOISY_ABOVE: f64 = 1.15;

/// Noise guard: a fixed spin loop timed at intervals through the run.
/// On a quiet host every sample takes the same time, so `p75 / p25`
/// is 1; interference stretches some samples and raises it.
#[derive(Debug, Default)]
pub struct Jitter {
    samples: Samples,
}

impl Jitter {
    pub fn new() -> Jitter {
        Jitter::default()
    }

    /// Time one spin (≈ 0.1 ms of dependent integer work).
    pub fn sample(&mut self) {
        let t0 = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..60_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        black_box(x);
        self.samples.push(t0.elapsed().as_secs_f64());
    }

    /// `p75 / p25` of the spin times (1 when fewer than two samples).
    pub fn ratio(&self) -> f64 {
        if self.samples.len() < 2 || self.samples.p25() <= 0.0 {
            return 1.0;
        }
        self.samples.quantile(0.75) / self.samples.p25()
    }

    /// Fastest spin, microseconds: the host's speed on this run.
    pub fn best_us(&self) -> f64 {
        self.samples.quantile(0.0) * 1e6
    }

    pub fn noisy(&self) -> bool {
        self.ratio() > NOISY_ABOVE
    }
}
