//! The adjoint source, pinned.
//!
//! The golden reports pin the analysis and `adjoint_checksums.txt` pins
//! the values an adjoint computes; this file pins the text itself. For
//! the prover-heavy programs and `kernels_src/*` under the FormAD plan
//! and the three forced disciplines, and for the first 200 programs of
//! the benchmark's `frontend_corpus` under the FormAD plan, it records an
//! FNV-1a 64-bit hash of the adjoint as printed in each dialect
//! (`program_to_string`, `program_to_clike`). A change to the AD
//! transform that claims byte-identical output must leave
//! `fixtures/adjoint_text.txt` alone.
//!
//! To record the file again after an intended change:
//!
//! ```text
//! UPDATE_ADJOINT_TEXT=1 cargo test --release --test adjoint_text
//! ```

#[allow(dead_code)]
mod common;

use std::path::PathBuf;

use common::heavy;
use formad::{Formad, FormadOptions};
use formad_ad::{IncMode, ParallelTreatment};
use formad_fuzz::harness::campaign_case;
use formad_fuzz::GenConfig;
use formad_ir::{parse_any, program_to_clike, program_to_string, Program};

/// FNV-1a, 64 bits.
fn fnv64(text: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// One fixture line's value: both dialects' hashes, or the error.
fn hashes(adjoint: Result<Program, String>) -> String {
    match adjoint {
        Ok(p) => format!(
            "{:016x} {:016x}",
            fnv64(&program_to_string(&p)),
            fnv64(&program_to_clike(&p))
        ),
        Err(e) => format!("error {:016x}", fnv64(&e)),
    }
}

fn tool(wrt: &[String], of: &[String]) -> Formad {
    let wrt: Vec<&str> = wrt.iter().map(String::as_str).collect();
    let of: Vec<&str> = of.iter().map(String::as_str).collect();
    Formad::new(FormadOptions::new(&wrt, &of))
}

/// `name/mode hash hash` for the FormAD plan and the forced disciplines.
fn every_mode(out: &mut Vec<String>, name: &str, p: &Program, wrt: &[String], of: &[String]) {
    let tool = tool(wrt, of);
    let formad = tool
        .differentiate(p)
        .map(|r| r.adjoint)
        .map_err(|e| e.to_string());
    out.push(format!("{name}/formad {}", hashes(formad)));
    for (mode, inc) in [
        ("atomic", IncMode::Atomic),
        ("reduction", IncMode::Reduction),
        ("transposed", IncMode::Transposed),
    ] {
        let adj = tool
            .adjoint_with(p, ParallelTreatment::Uniform(inc))
            .map_err(|e| e.to_string());
        out.push(format!("{name}/{mode} {}", hashes(adj)));
    }
}

fn own(xs: &[&str]) -> Vec<String> {
    xs.iter().map(|s| s.to_string()).collect()
}

fn fixture_lines() -> Vec<String> {
    let mut out = Vec::new();
    for (k, case) in heavy().iter().enumerate() {
        let name = format!("heavy{k:02}-{}", case.name.replace(' ', "_"));
        every_mode(
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
    assert!(files.len() >= 3, "kernels_src: {files:?}");
    for path in files {
        let source = std::fs::read_to_string(&path).expect("kernel source reads");
        let p = parse_any(&source).expect("kernel source parses");
        let file = path.file_name().unwrap().to_string_lossy().into_owned();
        every_mode(&mut out, &file, &p, &own(&["x"]), &own(&["y"]));
    }
    // `tests/alloc_ceiling.rs`'s corpus: `campaign_case(3, 0..200)`, odd
    // ids read back from the C dialect.
    let gen = GenConfig::default();
    for id in 0..200u64 {
        let case = campaign_case(3, id, &gen);
        let source = if id % 2 == 1 {
            program_to_clike(&case.program)
        } else {
            case.source()
        };
        let p = parse_any(&source).expect("corpus program parses");
        let adj = tool(&case.wrt, &case.of)
            .differentiate(&p)
            .map(|r| r.adjoint)
            .map_err(|e| e.to_string());
        out.push(format!("corpus{id:03}/formad {}", hashes(adj)));
    }
    out
}

#[test]
fn adjoint_text_is_pinned() {
    let now: String = fixture_lines().iter().map(|l| format!("{l}\n")).collect();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/adjoint_text.txt");
    if std::env::var_os("UPDATE_ADJOINT_TEXT").is_some() {
        std::fs::write(&path, &now).expect("fixture writes");
    }
    let recorded = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}; run with UPDATE_ADJOINT_TEXT=1 to record it",
            path.display()
        )
    });
    assert_eq!(
        recorded.lines().count(),
        (10 + 3) * 4 + 200,
        "heavy + kernels_src x four modes, plus the corpus"
    );
    let moved: Vec<(&str, &str)> = recorded
        .lines()
        .zip(now.lines())
        .filter(|(a, b)| a != b)
        .collect();
    assert!(
        moved.is_empty(),
        "{} adjoints print differently (recorded, now): {moved:#?}",
        moved.len()
    );
}
