//! The front end, pinned.
//!
//! For every `kernels_src/*` file, the nine `prove_heavy` programs (as
//! `tests/alloc_ceiling.rs` builds their source) and the 1 000 programs of
//! the benchmark's `frontend_corpus` at seed 1 (odd ids in the C dialect),
//! this records an FNV-1a 64-bit hash of the parsed `Program`'s `Debug`
//! form and of its text in each dialect (`program_to_string`,
//! `program_to_clike`). For the first 200 corpus sources it also applies
//! three deterministic single-byte edits (one deletion, two insertions)
//! and records the hash of the `ParseError` display, or `ok`. A change to
//! the lexer, parser or printers that claims identical trees, text and
//! errors must leave `fixtures/frontend_text.txt` alone.
//!
//! To record the file again after an intended change:
//!
//! ```text
//! UPDATE_FRONTEND_TEXT=1 cargo test --release --test frontend_text
//! ```

use std::path::PathBuf;

use formad_bench::prover_bench;
use formad_fuzz::harness::campaign_case;
use formad_fuzz::GenConfig;
use formad_ir::store::fnv64;
use formad_ir::{parse_any, program_to_clike, program_to_string};
use formad_kernels::{LbmExecCase, StencilCase};

/// One fixture line's value: the tree's and both dialects' hashes, or the
/// error's.
fn parsed(source: &str) -> String {
    match parse_any(source) {
        Ok(p) => format!(
            "{:016x} {:016x} {:016x}",
            fnv64(format!("{p:?}").as_bytes()),
            fnv64(program_to_string(&p).as_bytes()),
            fnv64(program_to_clike(&p).as_bytes())
        ),
        Err(e) => format!("error {:016x}", fnv64(e.to_string().as_bytes())),
    }
}

/// splitmix64 step: the edits' positions and bytes.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Bytes an insertion draws from: the punctuation both grammars branch
/// on, a digit, a letter, an exponent, white space and a newline.
const INSERTED: &[u8] = b"()[]{},;:=<>+-*/%!.&|#1e x\n";

/// Three single-byte edits of `source`: one deletion, two insertions.
fn edits(source: &str, id: u64) -> [String; 3] {
    let mut state = id;
    let b = source.as_bytes();
    let mut at = || (mix(&mut state) % b.len() as u64) as usize;
    let del = at();
    let ins = [at(), at()];
    let mut pick = || INSERTED[(mix(&mut state) % INSERTED.len() as u64) as usize];
    let bytes = [pick(), pick()];
    let deleted = [&b[..del], &b[del + 1..]].concat();
    let inserted = |k: usize| [&b[..ins[k]], &[bytes[k]][..], &b[ins[k]..]].concat();
    [deleted, inserted(0), inserted(1)].map(|v| String::from_utf8(v).expect("ASCII source"))
}

/// The `prove_heavy` sources, as `tests/alloc_ceiling.rs` builds them.
fn heavy() -> Vec<String> {
    let mut out: Vec<String> = prover_bench::suite()
        .into_iter()
        .map(|k| program_to_string(&k.program))
        .collect();
    out.push(LbmExecCase::full().source());
    for radius in [16, 24] {
        let case = StencilCase {
            n: 256,
            sweeps: 1,
            radius,
        };
        out.push(case.source());
    }
    out
}

fn fixture_lines() -> Vec<String> {
    let mut out = Vec::new();
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("kernels_src");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("kernels_src is readable")
        .map(|e| e.expect("directory entry").path())
        .collect();
    files.sort();
    for path in files {
        let source = std::fs::read_to_string(&path).expect("kernel source reads");
        let file = path.file_name().unwrap().to_string_lossy().into_owned();
        out.push(format!("{file} {}", parsed(&source)));
    }
    for (k, source) in heavy().iter().enumerate() {
        out.push(format!("heavy{k:02} {}", parsed(source)));
    }
    // The benchmark's `frontend_corpus` at seed 1: odd ids in C.
    let gen = GenConfig::default();
    for id in 0..1000u64 {
        let case = campaign_case(1, id, &gen);
        let source = if id % 2 == 1 {
            program_to_clike(&case.program)
        } else {
            case.source()
        };
        out.push(format!("corpus{id:04} {}", parsed(&source)));
        if id < 200 {
            for (k, edited) in edits(&source, id).iter().enumerate() {
                let verdict = match parse_any(edited) {
                    Ok(_) => "ok".to_string(),
                    Err(e) => format!("{:016x}", fnv64(e.to_string().as_bytes())),
                };
                out.push(format!("corpus{id:04}/edit{k} {verdict}"));
            }
        }
    }
    out
}

#[test]
fn front_end_text_is_pinned() {
    let now: String = fixture_lines().iter().map(|l| format!("{l}\n")).collect();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/frontend_text.txt");
    if std::env::var_os("UPDATE_FRONTEND_TEXT").is_some() {
        std::fs::write(&path, &now).expect("fixture writes");
    }
    let recorded = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}; run with UPDATE_FRONTEND_TEXT=1 to record it",
            path.display()
        )
    });
    assert_eq!(
        recorded.lines().count(),
        3 + 9 + 1000 + 200 * 3,
        "kernels_src, heavy, the corpus and its edits"
    );
    let moved: Vec<(&str, &str)> = recorded
        .lines()
        .zip(now.lines())
        .filter(|(a, b)| a != b)
        .collect();
    assert!(
        moved.is_empty(),
        "{} front-end results differ (recorded, now): {moved:#?}",
        moved.len()
    );
}
