//! The analysis trace, pinned.
//!
//! The deterministic `events` section of an analysis trace carries what
//! the region analysis decided and why: the context of every race check
//! (`RaceCheck.ctx`), the fact counts of each knowledge model, and every
//! query with its scalars rendered at their instance (`name@k`). For each
//! program in `kernels_src/*`, the prover-heavy programs and the first 200
//! programs of the fuzz grammar's corpus (read back from both dialects),
//! this file records an FNV-1a 64-bit hash of that section, with contexts
//! in use and without. A change to how contexts or instances are computed
//! that claims identical analyses must leave `fixtures/analysis_trace.txt`
//! alone.
//!
//! To record the file again after an intended change:
//!
//! ```text
//! UPDATE_ANALYSIS_TRACE=1 cargo test --release --test analysis_trace
//! ```

#[allow(dead_code)]
mod common;

use std::path::PathBuf;

use common::heavy;
use formad::{deterministic_json, Formad, FormadOptions, TraceSink};
use formad_fuzz::harness::campaign_case;
use formad_fuzz::GenConfig;
use formad_ir::store::fnv64;
use formad_ir::{parse_any, program_to_clike, Program};

/// The hash of the deterministic trace of analysing `p`, or of the error.
fn trace_hash(p: &Program, wrt: &[String], of: &[String], use_contexts: bool) -> String {
    let sink = TraceSink::new();
    let mut opts = FormadOptions::new(&[], &[]);
    opts.independents = wrt.to_vec();
    opts.dependents = of.to_vec();
    opts.region.use_contexts = use_contexts;
    opts.region.trace = Some(sink.clone());
    match Formad::new(opts).analyze(p) {
        Ok(_) => format!(
            "{:016x}",
            fnv64(deterministic_json(&sink.snapshot()).as_bytes())
        ),
        Err(e) => format!("error {:016x}", fnv64(e.to_string().as_bytes())),
    }
}

/// `name hash-with-contexts hash-without`.
fn line(out: &mut Vec<String>, name: &str, p: &Program, wrt: &[String], of: &[String]) {
    out.push(format!(
        "{name} {} {}",
        trace_hash(p, wrt, of, true),
        trace_hash(p, wrt, of, false)
    ));
}

fn own(xs: &[&str]) -> Vec<String> {
    xs.iter().map(|s| s.to_string()).collect()
}

fn fixture_lines() -> Vec<String> {
    let mut out = Vec::new();
    for (k, case) in heavy().iter().enumerate() {
        let name = format!("heavy{k:02}-{}", case.name.replace(' ', "_"));
        line(
            &mut out,
            &name,
            &case.program,
            &case.independents,
            &case.dependents,
        );
    }
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("kernels_src");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("kernels_src is readable")
        .map(|e| e.expect("directory entry").path())
        .collect();
    files.sort();
    for path in files {
        let source = std::fs::read_to_string(&path).expect("kernel source reads");
        let p = parse_any(&source).expect("kernel source parses");
        let file = path.file_name().unwrap().to_string_lossy().into_owned();
        line(&mut out, &file, &p, &own(&["x"]), &own(&["y"]));
    }
    let gen = GenConfig::default();
    for id in 0..200u64 {
        let case = campaign_case(3, id, &gen);
        for (dialect, source) in [("f", case.source()), ("c", program_to_clike(&case.program))] {
            let p = parse_any(&source).expect("corpus program parses");
            line(
                &mut out,
                &format!("corpus{id:03}.{dialect}"),
                &p,
                &case.wrt,
                &case.of,
            );
        }
    }
    out
}

#[test]
fn analysis_trace_is_pinned() {
    let now: String = fixture_lines().iter().map(|l| format!("{l}\n")).collect();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/analysis_trace.txt");
    if std::env::var_os("UPDATE_ANALYSIS_TRACE").is_some() {
        std::fs::write(&path, &now).expect("fixture writes");
    }
    let recorded = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}; run with UPDATE_ANALYSIS_TRACE=1 to record it",
            path.display()
        )
    });
    assert_eq!(
        recorded.lines().count(),
        10 + 3 + 200 * 2,
        "heavy + kernels_src, plus the corpus in both dialects"
    );
    let moved: Vec<(&str, &str)> = recorded
        .lines()
        .zip(now.lines())
        .filter(|(a, b)| a != b)
        .collect();
    assert!(
        moved.is_empty(),
        "{} analyses trace differently (recorded, now): {moved:#?}",
        moved.len()
    );
}
