//! The fuzz campaign driver behind `formad fuzz`.
//!
//! Deterministic by construction: the per-case RNG is derived from the
//! master seed and the case index alone, the oracle checks compare only
//! wall-clock-free artifacts, and every output line is reproducible —
//! two runs with the same seed and flags produce byte-identical output.

use std::path::PathBuf;

use formad_machine::EngineCache;
use proptest::test_runner::TestRng;

use crate::grammar::{generate_case, FuzzCase, GenConfig};
use crate::oracle::{run_case, Divergence, OracleConfig};
use crate::repro::Reproducer;
use crate::shrink::shrink_case;

/// Campaign configuration (`formad fuzz` flags map 1:1 onto this).
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Master seed; every case derives its RNG from `(seed, id)`.
    pub seed: u64,
    /// Number of cases to generate and check.
    pub cases: u64,
    /// Program-shape knobs.
    pub gen: GenConfig,
    /// Oracle knobs (threads, FD tolerances, poison hook).
    pub oracle: OracleConfig,
    /// Directory for reproducer files (`None` = don't write).
    pub corpus: Option<PathBuf>,
    /// Max oracle evaluations the shrinker may spend per divergence
    /// (0 disables shrinking).
    pub shrink_budget: usize,
    /// Check the AOT backend on every k-th case (0 = never; each check
    /// costs one `rustc` invocation per program version).
    pub aot_every: u64,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 42,
            cases: 100,
            gen: GenConfig::default(),
            oracle: OracleConfig::default(),
            corpus: None,
            shrink_budget: 256,
            aot_every: 0,
        }
    }
}

/// Campaign result: deterministic output lines plus every divergence.
#[derive(Debug, Default)]
pub struct FuzzOutcome {
    /// One line per case plus a trailing summary — byte-identical across
    /// runs with the same seed and flags.
    pub lines: Vec<String>,
    /// `(case id, divergence)` for every failed case.
    pub divergences: Vec<(u64, Divergence)>,
    /// Reproducer files written to the corpus directory.
    pub corpus_files: Vec<PathBuf>,
    /// Totals across all clean cases.
    pub regions: usize,
    pub shared: usize,
    pub transposed: usize,
    pub guarded: usize,
    /// Cases whose cold persistence pass recorded every region (the
    /// warm zero-lia invariant was checked for these).
    pub persisted: usize,
}

/// Derive the RNG for one case: seed-splitting keeps cases independent,
/// so `--cases 10` and `--cases 200` agree on the first ten programs.
pub fn case_rng(seed: u64, id: u64) -> TestRng {
    TestRng::from_seed(seed ^ (id + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Generate case `id` of a campaign (used by `formad fuzz --emit`-style
/// debugging and the property-test strategies).
pub fn campaign_case(seed: u64, id: u64, gen: &GenConfig) -> FuzzCase {
    let mut rng = case_rng(seed, id);
    generate_case(id, seed, gen, &mut rng)
}

/// Run a fuzz campaign. The only side effect is writing reproducer
/// files when `cfg.corpus` is set; all reporting goes through the
/// returned [`FuzzOutcome`].
pub fn run_fuzz(cfg: &FuzzConfig) -> Result<FuzzOutcome, String> {
    let mut out = FuzzOutcome::default();
    let mut engines = EngineCache::new();
    if let Some(dir) = &cfg.corpus {
        std::fs::create_dir_all(dir).map_err(|e| format!("corpus {}: {e}", dir.display()))?;
    }
    for id in 0..cfg.cases {
        let case = campaign_case(cfg.seed, id, &cfg.gen);
        let mut oracle = cfg.oracle.clone();
        oracle.check_aot = cfg.oracle.check_aot || (cfg.aot_every != 0 && id % cfg.aot_every == 0);
        match run_case(&case, &oracle, &mut engines) {
            Ok(s) => {
                out.regions += s.regions;
                out.shared += s.shared;
                out.transposed += s.transposed;
                out.guarded += s.guarded;
                out.persisted += usize::from(s.persisted);
                let aot = if s.aot_checked { " [aot]" } else { "" };
                out.lines.push(format!(
                    "case {id:04}: regions={} shared={} transposed={} guarded={} ok{aot}",
                    s.regions, s.shared, s.transposed, s.guarded
                ));
            }
            Err(d) => {
                let (min_case, evals) = if cfg.shrink_budget > 0 {
                    shrink_case(&case, d.oracle, &oracle, &mut engines, cfg.shrink_budget)
                } else {
                    (case.clone(), 0)
                };
                let repro = Reproducer {
                    case: min_case,
                    oracle: d.oracle,
                    detail: d.detail.lines().next().unwrap_or("").to_string(),
                    config: oracle,
                };
                let mut where_to = String::new();
                if let Some(dir) = &cfg.corpus {
                    let path = dir.join(repro.file_name());
                    std::fs::write(&path, repro.render())
                        .map_err(|e| format!("write {}: {e}", path.display()))?;
                    where_to = format!(" -> {}", repro.file_name());
                    out.corpus_files.push(path);
                }
                out.lines.push(format!(
                    "case {id:04}: DIVERGENCE [{}] {} (shrunk to {} bytes in {evals} evals){where_to}",
                    d.oracle,
                    repro.detail,
                    repro.case.source().len()
                ));
                out.divergences.push((id, d));
            }
        }
    }
    out.lines.push(format!(
        "fuzz: {} cases, {} divergences, {} regions ({} shared / {} transposed / {} guarded \
         decisions), {} warm-replayable, seed {}",
        cfg.cases,
        out.divergences.len(),
        out.regions,
        out.shared,
        out.transposed,
        out.guarded,
        out.persisted,
        cfg.seed
    ));
    Ok(out)
}
