//! The `formad` binary as a subprocess: what one command-line run costs
//! beyond the pipeline (process start, argument handling, the default
//! `--jobs`). Informational rows of `prove_heavy`'s traced run.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::inputs;
use crate::stats::Samples;
use crate::{Config, Outcome};

/// `run.sh` builds the CLI into the directory the benchmark binary is in.
fn formad_binary() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let path = exe.parent()?.join("formad");
    path.exists().then_some(path)
}

/// Fastest of `n` runs of `formad <args>`; `None` if a run does not
/// exit with `expect_code`.
fn fastest(bin: &PathBuf, args: &[&str], n: usize, expect_code: i32) -> Option<f64> {
    let mut s = Samples::new();
    for _ in 0..n {
        let t0 = Instant::now();
        let status = Command::new(bin)
            .args(args)
            .env_remove("FORMAD_CACHE_DIR")
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .ok()?;
        s.push(t0.elapsed().as_secs_f64());
        if status.code() != Some(expect_code) {
            return None;
        }
    }
    Some(s.quantile(0.0))
}

/// `formad adjoint` on the Table-1 LBM kernel, with the default `--jobs`
/// and with `--jobs 1`, next to the cost of starting the process at all.
pub fn measure(cfg: &Config, out: &mut Outcome) {
    let Some(bin) = formad_binary() else {
        out.check(Err(
            "the `formad` binary is not beside the benchmark; build through benchmark/run.sh"
                .to_string(),
        ));
        return;
    };
    let lbm = inputs::heavy(cfg.seed)
        .into_iter()
        .find(|i| i.name == "lbm")
        .expect("lbm is a heavy program");
    let file = cfg.scratch.join("lbm.f90");
    std::fs::write(&file, &lbm.source).expect("write the CLI's input");
    let file = file.to_string_lossy().into_owned();
    let (wrt, of) = (lbm.wrt.join(","), lbm.of.join(","));
    let adjoint = ["adjoint", &file, "--wrt", &wrt, "--of", &of];
    let jobs1: Vec<&str> = adjoint.iter().copied().chain(["--jobs", "1"]).collect();
    // No arguments: usage on stderr, exit 2 — the process-start floor.
    let rows = [
        ("cli.spawn_ms", fastest(&bin, &[], 5, 2).map(|s| s * 1e3)),
        ("cli.adjoint_default_s", fastest(&bin, &adjoint, 3, 0)),
        ("cli.adjoint_jobs1_s", fastest(&bin, &jobs1, 3, 0)),
    ];
    for (name, value) in rows {
        match value {
            Some(v) => {
                out.metrics.set(name, v);
                out.check(Ok(()));
            }
            None => out.check(Err(format!(
                "{name}: `formad` exited with an unexpected code"
            ))),
        }
    }
}
