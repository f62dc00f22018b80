//! Self-contained reproducer files.
//!
//! A reproducer is a single `.f90` file: a block of `! key: value`
//! comment lines (the fuzz seed, oracle, driver bindings, and oracle
//! configuration) followed by the minimized program source. The lexer
//! skips `!` comments, so the file parses as an ordinary Fortran-dialect
//! program too — `formad analyze repro.f90 --wrt … --of …` works on it
//! directly, and `formad fuzz --repro repro.f90` replays the exact
//! differential check that failed.

use std::time::Duration;

use formad_ir::parse_program;
use formad_machine::EngineCache;
use formad_smt::ChaosConfig;

use crate::grammar::FuzzCase;
use crate::oracle::{run_case, CaseSummary, Divergence, OracleConfig, OracleId};

/// Format tag written as the first line of every reproducer.
pub const REPRO_HEADER: &str = "! formad-fuzz reproducer v1";

/// A divergence captured as a replayable file.
#[derive(Debug, Clone)]
pub struct Reproducer {
    pub case: FuzzCase,
    pub oracle: OracleId,
    /// First line of the original divergence detail (informational).
    pub detail: String,
    pub config: OracleConfig,
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn unesc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('\\') => out.push('\\'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

fn fmt_usizes(v: &[usize]) -> String {
    v.iter().map(usize::to_string).collect::<Vec<_>>().join(",")
}

impl Reproducer {
    /// Corpus file name: `fz-<seed>-<case>-<oracle>.f90`.
    pub fn file_name(&self) -> String {
        format!(
            "fz-{}-{:06}-{}.f90",
            self.case.seed, self.case.id, self.oracle
        )
    }

    /// Render the reproducer file contents.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(REPRO_HEADER);
        s.push('\n');
        s.push_str(&format!("! oracle: {}\n", self.oracle));
        s.push_str(&format!("! detail: {}\n", esc(&self.detail)));
        s.push_str(&format!("! seed: {}\n", self.case.seed));
        s.push_str(&format!("! case: {}\n", self.case.id));
        s.push_str(&format!("! fill-seed: {}\n", self.case.fill_seed));
        s.push_str(&format!("! wrt: {}\n", self.case.wrt.join(",")));
        s.push_str(&format!("! of: {}\n", self.case.of.join(",")));
        for (k, v) in &self.case.sets {
            s.push_str(&format!("! set: {k}={v}\n"));
        }
        s.push_str(&format!(
            "! threads: {}\n",
            fmt_usizes(&self.config.threads)
        ));
        s.push_str(&format!("! aot: {}\n", self.config.check_aot));
        s.push_str(&format!("! fd-h: {}\n", self.config.fd_h));
        s.push_str(&format!("! fd-tol: {}\n", self.config.fd_tol));
        if let Some(c) = &self.config.poison_legacy {
            s.push_str(&format!(
                "! poison-legacy: seed={},panic={},unknown={},delay={},delay-us={}\n",
                c.seed,
                c.panic_per_mille,
                c.unknown_per_mille,
                c.delay_per_mille,
                c.delay.as_micros()
            ));
        }
        s.push_str(&self.case.source());
        s
    }

    /// Parse a reproducer file back into a replayable case.
    pub fn parse(src: &str) -> Result<Reproducer, String> {
        let mut lines = src.lines().peekable();
        if lines.next().map(str::trim) != Some(REPRO_HEADER) {
            return Err(format!("not a reproducer: expected `{REPRO_HEADER}`"));
        }
        let mut oracle = None;
        let mut detail = String::new();
        let mut seed = 0u64;
        let mut case_id = 0u64;
        let mut fill_seed = 0u64;
        let mut wrt = Vec::new();
        let mut of = Vec::new();
        let mut sets = Vec::new();
        let mut config = OracleConfig::default();
        let mut body = String::new();
        let mut in_header = true;
        for line in lines {
            let header_kv = in_header
                .then(|| line.strip_prefix("! "))
                .flatten()
                .and_then(|rest| rest.split_once(": "));
            let Some((key, value)) = header_kv else {
                in_header = false;
                body.push_str(line);
                body.push('\n');
                continue;
            };
            match key {
                "oracle" => {
                    oracle = Some(
                        OracleId::parse(value)
                            .ok_or_else(|| format!("unknown oracle `{value}`"))?,
                    );
                }
                "detail" => detail = unesc(value),
                "seed" => seed = value.parse().map_err(|e| format!("seed: {e}"))?,
                "case" => case_id = value.parse().map_err(|e| format!("case: {e}"))?,
                "fill-seed" => {
                    fill_seed = value.parse().map_err(|e| format!("fill-seed: {e}"))?;
                }
                "wrt" => wrt = value.split(',').map(str::to_string).collect(),
                "of" => of = value.split(',').map(str::to_string).collect(),
                "set" => {
                    let (k, v) = value
                        .split_once('=')
                        .ok_or_else(|| format!("malformed set `{value}`"))?;
                    sets.push((k.to_string(), v.to_string()));
                }
                "threads" => {
                    config.threads = value
                        .split(',')
                        .map(|t| t.parse().map_err(|e| format!("threads: {e}")))
                        .collect::<Result<_, _>>()?;
                }
                "aot" => config.check_aot = value == "true",
                "fd-h" => config.fd_h = value.parse().map_err(|e| format!("fd-h: {e}"))?,
                "fd-tol" => {
                    config.fd_tol = value.parse().map_err(|e| format!("fd-tol: {e}"))?;
                }
                "poison-legacy" => {
                    let mut c = ChaosConfig {
                        seed: 0,
                        panic_per_mille: 0,
                        unknown_per_mille: 0,
                        delay_per_mille: 0,
                        delay: Duration::ZERO,
                    };
                    for part in value.split(',') {
                        let (k, v) = part
                            .split_once('=')
                            .ok_or_else(|| format!("malformed poison `{part}`"))?;
                        let n: u64 = v.parse().map_err(|e| format!("poison {k}: {e}"))?;
                        match k {
                            "seed" => c.seed = n,
                            "panic" => c.panic_per_mille = n as u16,
                            "unknown" => c.unknown_per_mille = n as u16,
                            "delay" => c.delay_per_mille = n as u16,
                            "delay-us" => c.delay = Duration::from_micros(n),
                            other => return Err(format!("unknown poison key `{other}`")),
                        }
                    }
                    config.poison_legacy = Some(c);
                }
                // Unknown headers are tolerated for forward compatibility.
                _ => {}
            }
        }
        let oracle = oracle.ok_or("missing `oracle` header")?;
        if wrt.is_empty() || of.is_empty() {
            return Err("missing `wrt`/`of` headers".into());
        }
        let program = parse_program(&body).map_err(|e| format!("reproducer source: {e}"))?;
        Ok(Reproducer {
            case: FuzzCase {
                id: case_id,
                seed,
                program,
                wrt,
                of,
                sets,
                fill_seed,
            },
            oracle,
            detail,
            config,
        })
    }

    /// Load a reproducer from disk.
    pub fn load(path: &std::path::Path) -> Result<Reproducer, String> {
        let src = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Reproducer::parse(&src)
    }

    /// Replay the case under the recorded configuration. `Err` means
    /// the divergence still reproduces.
    pub fn run(&self, engines: &mut EngineCache) -> Result<CaseSummary, Divergence> {
        run_case(&self.case, &self.config, engines)
    }
}
