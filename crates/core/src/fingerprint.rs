//! Region-level fingerprinting: the pipeline's one cache. It serves a
//! whole region's verdict set without extracting its knowledge model or
//! enumerating its per-pair queries.
//!
//! Each analyzed region's *canonical form* — its printed loop text
//! (print∘parse is a fixpoint, so formatting variants of the same AST
//! agree) together with every declaration, its activity classification,
//! and the semantics-bearing analysis options — is hashed into a 128-bit
//! fingerprint, and the region's entire decision set
//! ([`RegionRecord`]) is stored under it. Re-analysis of an edited
//! program recomputes fingerprints (parse + hash time), serves unchanged
//! regions whole, and re-proves only the regions whose canonical form
//! changed. Nothing is remembered below region granularity: a region the
//! index misses is proved from scratch, which presolve makes cheap.
//!
//! Only *definite* regions are indexed: every per-array provenance must
//! be `Proved` or `Refuted` with no unknowns and no recovered panics. A
//! budget- or deadline-degraded region is a property of one run's
//! resources, not of the region, and excluding degraded regions also
//! guarantees a replayed region renders byte-identically to a cold run
//! (the report's prover-health line can never be owed).
//!
//! That per-record rule is also what isolates requests from each other.
//! A region's verdict set depends on its own loop and declarations only
//! (paper §5: one solver per loop, knowledge from that loop's body), so
//! it is final when the region's analysis returns, whatever happens to
//! the rest of the run. A run that later fails — a deadline, a panic in
//! another region — has published only verdicts a clean run would also
//! reach, and a chaos run publishes nothing.
//!
//! The fingerprint is deliberately *not* renaming-invariant: decisions
//! are keyed by concrete array names.
//!
//! The index is one map behind one mutex, owned by
//! [`SharedEngine`](crate::SharedEngine). An index opened with
//! [`with_disk_dir`](FingerprintIndex::with_disk_dir) starts with the
//! records of `fingerprints.fpi` in the cache directory and stages every
//! insert for the next [`flush`](FingerprintIndex::flush).
//!
//! The file is the one place where verdicts enter the pipeline without a
//! proof, so the directory must pass the stores' trust rule,
//! [`formad_ir::store::private_dir`], the one the AOT kernel cache
//! follows: a directory that is group- or world-writable or owned by
//! another uid is neither read nor written, and the run is cold. Within
//! a trusted directory the store is strictly best-effort:
//!
//! * any read error, version mismatch, or torn/corrupt line degrades
//!   silently to a cold miss, never an error;
//! * any write error, a refused directory's included, is counted
//!   ([`FpStats::write_errors`]) and otherwise ignored — the run's
//!   results are unaffected, only future warmth is lost;
//! * writes are atomic ([`formad_ir::store::write_atomic`]). Every
//!   writer merges the freshly re-read file with its own pending records
//!   before renaming; writers in one process do so one at a time and
//!   lose nothing, while a race between processes drops only the loser's
//!   not-yet-re-read records (a future cold miss, never a wrong answer).
//!
//! A record line is `<fingerprint> <fnv64(payload) hex> <payload>`, the
//! payload one compact JSON object. The checksum rejects torn lines; it
//! is no defence against a writer, which is what the directory rule is
//! for. Other files in the directory — such as the `proof-NN.fsc`
//! shards an older release wrote — are never read or removed.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use formad_analysis::Activity;
use formad_ir::store::{fnv128_hex, fnv64, private_dir, write_atomic};
use formad_ir::{expr_to_string, printer::write_loop, ForLoop, Program};
use formad_smt::SolverStats;

use crate::json::{obj, Json};
use crate::region::{Decision, Provenance, RegionAnalysis, RegionOptions};

/// Version header of the on-disk fingerprint index; also mixed into every
/// fingerprint so a format bump invalidates the whole index.
pub const FP_FORMAT_VERSION: &str = "formad-fpi/v2";

/// File name of the fingerprint index within a cache directory.
pub const FP_FILE: &str = "fingerprints.fpi";

/// Read a version-headed line file. Returns the body lines, or `None` if
/// the file is missing, unreadable, not valid UTF-8, or carries a
/// different version header — all of which degrade to "no records".
fn read_versioned_lines(path: &Path, version: &str) -> Option<Vec<String>> {
    let text = fs::read_to_string(path).ok()?;
    let mut lines = text.lines();
    if lines.next() != Some(version) {
        return None;
    }
    Some(lines.map(str::to_owned).collect())
}

/// Which tier served a fingerprint lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FpTier {
    /// The record was inserted during this process's life, or was
    /// loaded from the durable file and has been served before.
    Memory,
    /// The record was loaded from the durable index file.
    Disk,
}

impl FpTier {
    /// Label used in `region-served` trace events.
    pub fn label(self) -> &'static str {
        match self {
            FpTier::Memory => "memory",
            FpTier::Disk => "disk",
        }
    }

    /// The tier whose [`label`](Self::label) is `label`.
    pub fn from_label(label: &str) -> Option<FpTier> {
        [FpTier::Memory, FpTier::Disk]
            .into_iter()
            .find(|t| t.label() == label)
    }
}

/// The complete replayable outcome of one region's analysis — every
/// field the report and downstream planning read, *except* volatile
/// prover statistics (a served region did no prover work).
#[derive(Debug, Clone, PartialEq)]
pub struct RegionRecord {
    /// Parallel loop counter.
    pub loop_var: String,
    /// Statements inside the region.
    pub loc: usize,
    /// Knowledge-model assertion count.
    pub model_size: usize,
    /// Distinct index-expression tuples.
    pub unique_exprs: usize,
    /// Prover checks the original analysis issued.
    pub queries: u64,
    /// Per-array `(array, decision, provenance)`, sorted by array name.
    pub decisions: Vec<(String, Decision, Provenance)>,
    /// Diagnostics, in emission order.
    pub warnings: Vec<String>,
    /// Rendered write-set expressions proven disjoint.
    pub safe_write_exprs: Vec<String>,
    /// First rejected adjoint expression per guarded array.
    pub rejected_exprs: Vec<String>,
}

impl RegionRecord {
    /// Capture an analysis outcome, or `None` if the region is not
    /// *definite* (any non-`Proved`/`Refuted` provenance, recovered
    /// panic, or unknown verdict makes it ineligible for the index).
    pub fn from_analysis(ra: &RegionAnalysis) -> Option<RegionRecord> {
        if ra.recovered_panics > 0 || ra.stats.unknowns > 0 {
            return None;
        }
        let mut decisions = Vec::with_capacity(ra.decisions.len());
        for (arr, d) in &ra.decisions {
            let p = *ra.provenance.get(arr)?;
            if !matches!(p, Provenance::Proved | Provenance::Refuted) {
                return None;
            }
            decisions.push((arr.clone(), d.clone(), p));
        }
        decisions.sort_by(|a, b| a.0.cmp(&b.0));
        Some(RegionRecord {
            loop_var: ra.loop_var.clone(),
            loc: ra.loc,
            model_size: ra.model_size,
            unique_exprs: ra.unique_exprs,
            queries: ra.queries,
            decisions,
            warnings: ra.warnings.clone(),
            safe_write_exprs: ra.safe_write_exprs.clone(),
            rejected_exprs: ra.rejected_exprs.clone(),
        })
    }

    /// Reconstitute a [`RegionAnalysis`] for region index `region`.
    /// Statistics are zero (no prover ran) and `time` is the replay
    /// duration supplied by the caller.
    pub fn to_analysis(&self, region: usize, time: Duration) -> RegionAnalysis {
        let mut decisions = HashMap::new();
        let mut provenance = HashMap::new();
        for (arr, d, p) in &self.decisions {
            decisions.insert(arr.clone(), d.clone());
            provenance.insert(arr.clone(), *p);
        }
        RegionAnalysis {
            region,
            loop_var: self.loop_var.clone(),
            loc: self.loc,
            model_size: self.model_size,
            unique_exprs: self.unique_exprs,
            queries: self.queries,
            time,
            decisions,
            provenance,
            warnings: self.warnings.clone(),
            safe_write_exprs: self.safe_write_exprs.clone(),
            rejected_exprs: self.rejected_exprs.clone(),
            stats: SolverStats::default(),
            recovered_panics: 0,
        }
    }

    /// The record as one JSON object, the payload of an index line.
    fn to_json(&self) -> Json {
        let strings = |v: &[String]| Json::Arr(v.iter().map(|s| Json::from(s.as_str())).collect());
        let decisions = self
            .decisions
            .iter()
            .map(|(arr, d, p)| {
                obj(vec![
                    ("array", arr.as_str().into()),
                    ("decision", d.kind().into()),
                    ("reason", d.reason().unwrap_or_default().into()),
                    ("provenance", p.tag().into()),
                ])
            })
            .collect();
        obj(vec![
            ("loop_var", self.loop_var.as_str().into()),
            ("loc", self.loc.into()),
            ("model_size", self.model_size.into()),
            ("unique_exprs", self.unique_exprs.into()),
            ("queries", self.queries.into()),
            ("decisions", Json::Arr(decisions)),
            ("warnings", strings(&self.warnings)),
            ("safe_write_exprs", strings(&self.safe_write_exprs)),
            ("rejected_exprs", strings(&self.rejected_exprs)),
        ])
    }

    /// Inverse of [`to_json`](Self::to_json); `None` on any missing or
    /// ill-typed field, unknown decision kind or provenance tag.
    fn from_json(j: &Json) -> Option<RegionRecord> {
        let str_of = |j: &Json, key: &str| j.get(key)?.as_str().map(str::to_owned);
        let num = |key: &str| j.get(key)?.as_u64();
        let strings = |key: &str| -> Option<Vec<String>> {
            j.get(key)?
                .as_arr()?
                .iter()
                .map(|s| s.as_str().map(str::to_owned))
                .collect()
        };
        let decisions = j
            .get("decisions")?
            .as_arr()?
            .iter()
            .map(|d| {
                Some((
                    str_of(d, "array")?,
                    Decision::from_kind(&str_of(d, "decision")?, str_of(d, "reason")?)?,
                    Provenance::from_tag(&str_of(d, "provenance")?)?,
                ))
            })
            .collect::<Option<_>>()?;
        Some(RegionRecord {
            loop_var: str_of(j, "loop_var")?,
            loc: usize::try_from(num("loc")?).ok()?,
            model_size: usize::try_from(num("model_size")?).ok()?,
            unique_exprs: usize::try_from(num("unique_exprs")?).ok()?,
            queries: num("queries")?,
            decisions,
            warnings: strings("warnings")?,
            safe_write_exprs: strings("safe_write_exprs")?,
            rejected_exprs: strings("rejected_exprs")?,
        })
    }
}

/// Compute a region's fingerprint: a 128-bit FNV hash (hex) over the
/// format version, the semantics-bearing analysis options, every
/// declaration with its activity classification, and the printed loop.
/// Budgets, timeouts, and the search core are deliberately
/// excluded — they cannot change a *definite* verdict set, and only
/// definite regions are indexed.
pub fn region_fingerprint(
    primal: &Program,
    l: &ForLoop,
    activity: &Activity,
    opts: &RegionOptions,
) -> String {
    let mut buf = String::new();
    buf.push_str(FP_FORMAT_VERSION);
    buf.push('\n');
    buf.push_str(&format!(
        "opts {} {} {}\n",
        u8::from(opts.stride_constraints),
        u8::from(opts.use_contexts),
        u8::from(opts.use_increment_detection),
    ));
    for d in primal.params.iter().chain(primal.locals.iter()) {
        buf.push_str(&format!(
            "decl {} {:?} {:?} {} {} [",
            d.name,
            d.ty,
            d.intent,
            u8::from(d.is_local),
            u8::from(activity.is_active(&d.name)),
        ));
        for e in &d.dims {
            buf.push_str(&expr_to_string(e));
            buf.push(',');
        }
        buf.push_str("]\n");
    }
    write_loop(&mut buf, l, 1);
    fnv128_hex(&buf)
}

/// Counter snapshot of a [`FingerprintIndex`], exported into diagnostics
/// and `/v1/status`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FpStats {
    /// Records held.
    pub entries: u64,
    /// Lookups served (memory or disk).
    pub hits: u64,
    /// The subset of `hits` served from the durable index file.
    pub disk_hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Records inserted by analyses.
    pub inserts: u64,
    /// Flushes whose write to the durable file failed; their records
    /// were dropped (a future cold miss).
    pub write_errors: u64,
}

/// What the index's one mutex guards.
#[derive(Debug, Default)]
struct Entries {
    /// Every record, with the tier its next lookup reports.
    records: HashMap<String, (Arc<RegionRecord>, FpTier)>,
    /// Records inserted since the last flush to the durable file.
    pending: HashMap<String, Arc<RegionRecord>>,
}

#[derive(Debug, Default)]
struct FpShared {
    entries: Mutex<Entries>,
    /// The durable index file, if the index has one.
    file: Option<PathBuf>,
    /// Why the file's directory failed [`private_dir`]: nothing is read
    /// from it, and every flush into it is a write error.
    refused: Option<String>,
    hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    write_errors: AtomicU64,
}

/// Concurrent fingerprint → [`RegionRecord`] index, optionally backed by
/// a durable file. Cloning shares the index.
#[derive(Debug, Clone, Default)]
pub struct FingerprintIndex {
    shared: Arc<FpShared>,
}

impl FingerprintIndex {
    /// An empty in-memory index.
    pub fn new() -> FingerprintIndex {
        FingerprintIndex::default()
    }

    /// An index persisted under `dir`, holding the records of its file.
    /// Never fails: a missing, unreadable or corrupt file, or a torn
    /// line, degrades to fewer records, and a directory that fails
    /// [`private_dir`] to none.
    pub fn with_disk_dir(dir: &Path) -> FingerprintIndex {
        let path = dir.join(FP_FILE);
        let refused = private_dir(dir).err();
        let records = match refused {
            Some(_) => HashMap::new(),
            None => read_versioned_lines(&path, FP_FORMAT_VERSION)
                .unwrap_or_default()
                .iter()
                .filter_map(|line| parse_record_line(line))
                .map(|(fp, rec)| (fp, (Arc::new(rec), FpTier::Disk)))
                .collect(),
        };
        FingerprintIndex {
            shared: Arc::new(FpShared {
                entries: Mutex::new(Entries {
                    records,
                    pending: HashMap::new(),
                }),
                file: Some(path),
                refused,
                ..FpShared::default()
            }),
        }
    }

    /// Why the index's directory is not trusted, if it is not.
    pub fn refused(&self) -> Option<&str> {
        self.shared.refused.as_deref()
    }

    /// Look up a record, reporting the tier it is served from. A record
    /// loaded from the file is served from memory after its first lookup.
    pub fn lookup(&self, fp: &str) -> Option<(Arc<RegionRecord>, FpTier)> {
        let found = self.shared.entries.lock().ok().and_then(|mut e| {
            let (rec, tier) = e.records.get_mut(fp)?;
            Some((Arc::clone(rec), std::mem::replace(tier, FpTier::Memory)))
        });
        let s = &self.shared;
        match &found {
            Some((_, tier)) => {
                s.hits.fetch_add(1, Ordering::Relaxed);
                if *tier == FpTier::Disk {
                    s.disk_hits.fetch_add(1, Ordering::Relaxed);
                }
            }
            None => {
                s.misses.fetch_add(1, Ordering::Relaxed);
            }
        }
        found
    }

    /// Insert a record; an index with a file also stages it for the next
    /// [`flush`](Self::flush).
    pub fn insert(&self, fp: String, rec: RegionRecord) {
        let rec = Arc::new(rec);
        if let Ok(mut e) = self.shared.entries.lock() {
            if self.shared.file.is_some() {
                e.pending.insert(fp.clone(), Arc::clone(&rec));
            }
            e.records.insert(fp, (rec, FpTier::Memory));
        }
        self.shared.inserts.fetch_add(1, Ordering::Relaxed);
    }

    /// Merge the staged records into the index file (re-read fresh, so
    /// concurrent writers' records survive) and atomically replace it.
    /// Returns the number of records that landed: 0 without a file, with
    /// nothing staged, or when the directory is refused or the write
    /// failed.
    pub fn flush(&self) -> usize {
        let Some(path) = &self.shared.file else {
            return 0;
        };
        let drained = match self.shared.entries.lock() {
            Ok(mut e) => std::mem::take(&mut e.pending),
            Err(_) => return 0,
        };
        if drained.is_empty() {
            return 0;
        }
        if self.shared.refused.is_some() {
            self.shared.write_errors.fetch_add(1, Ordering::Relaxed);
            return 0;
        }
        // Read-merge-replace is one step for the writers of this process,
        // so they lose nothing to each other. Another process can still
        // replace the file between this read and the rename.
        static FLUSHING: Mutex<()> = Mutex::new(());
        let _one_writer = FLUSHING.lock();
        let mut merged: HashMap<String, String> = HashMap::new();
        if let Some(lines) = read_versioned_lines(path, FP_FORMAT_VERSION) {
            for line in lines {
                if let Some((fp, _)) = checked_line(&line) {
                    merged.insert(fp.to_owned(), line);
                }
            }
        }
        for (fp, rec) in &drained {
            merged.insert(fp.clone(), render_record_line(fp, rec));
        }
        let mut fps: Vec<&String> = merged.keys().collect();
        fps.sort();
        let mut out = String::from(FP_FORMAT_VERSION);
        out.push('\n');
        for fp in fps {
            out.push_str(&merged[fp]);
            out.push('\n');
        }
        if write_atomic(path, out.as_bytes()).is_err() {
            self.shared.write_errors.fetch_add(1, Ordering::Relaxed);
            return 0;
        }
        drained.len()
    }

    /// Number of records held.
    pub fn len(&self) -> usize {
        self.shared.entries.lock().map_or(0, |e| e.records.len())
    }

    /// Whether no records are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> FpStats {
        let s = &self.shared;
        FpStats {
            entries: self.len() as u64,
            hits: s.hits.load(Ordering::Relaxed),
            disk_hits: s.disk_hits.load(Ordering::Relaxed),
            misses: s.misses.load(Ordering::Relaxed),
            inserts: s.inserts.load(Ordering::Relaxed),
            write_errors: s.write_errors.load(Ordering::Relaxed),
        }
    }
}

fn render_record_line(fp: &str, rec: &RegionRecord) -> String {
    let payload = rec.to_json().render();
    format!("{fp} {:016x} {payload}", fnv64(payload.as_bytes()))
}

/// The fingerprint and payload of a line whose checksum holds.
fn checked_line(line: &str) -> Option<(&str, &str)> {
    let mut parts = line.splitn(3, ' ');
    let fp = parts.next()?;
    let sum = u64::from_str_radix(parts.next()?, 16).ok()?;
    let payload = parts.next()?;
    (fnv64(payload.as_bytes()) == sum).then_some((fp, payload))
}

/// A line whose checksum holds and whose payload is a record; a payload
/// that does not parse behind a valid checksum (format drift) is dropped
/// rather than trusted.
fn parse_record_line(line: &str) -> Option<(String, RegionRecord)> {
    let (fp, payload) = checked_line(line)?;
    let rec = RegionRecord::from_json(&Json::parse(payload).ok()?)?;
    Some((fp.to_owned(), rec))
}

/// Offline report over a cache directory's fingerprint index, for the
/// `formad cache` verb. All zero when no index file exists yet, which is
/// not corruption.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FpFileReport {
    /// Record lines that parse.
    pub records: u64,
    /// Record lines with a bad checksum or an unparseable payload.
    pub corrupt: u64,
    /// Size of the index file.
    pub bytes: u64,
    /// The file exists but is unreadable or does not start with
    /// [`FP_FORMAT_VERSION`]; analysis runs treat it as empty.
    pub bad_version: bool,
    /// Why the directory fails [`private_dir`] (its mode or its owner);
    /// analysis runs neither read nor write the file.
    pub refused: Option<String>,
}

/// Inspect `dir`'s index file without touching it.
pub fn inspect_fp_file(dir: &Path) -> FpFileReport {
    let path = dir.join(FP_FILE);
    let refused = if dir.is_dir() {
        private_dir(dir).err()
    } else {
        None
    };
    let Ok(meta) = fs::metadata(&path) else {
        return FpFileReport {
            refused,
            ..FpFileReport::default()
        };
    };
    let mut report = FpFileReport {
        bytes: meta.len(),
        refused,
        ..FpFileReport::default()
    };
    let Some(lines) = read_versioned_lines(&path, FP_FORMAT_VERSION) else {
        report.bad_version = true;
        return report;
    };
    for line in lines.iter().filter(|l| !l.is_empty()) {
        match parse_record_line(line) {
            Some(_) => report.records += 1,
            None => report.corrupt += 1,
        }
    }
    report
}

/// Whether a flush into `dir` would land: writes and removes an empty
/// probe file through the same tmp + rename path a flush takes.
pub fn probe_fp_write(dir: &Path) -> io::Result<()> {
    let probe = dir.join(format!("{FP_FILE}.probe"));
    write_atomic(&probe, b"")?;
    fs::remove_file(&probe)
}

/// Remove the fingerprint index file, if present. Returns whether a file
/// was removed.
pub fn clear_fp_file(dir: &Path) -> io::Result<bool> {
    let path = dir.join(FP_FILE);
    if path.exists() {
        fs::remove_file(&path)?;
        return Ok(true);
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use formad_ir::parse_program;

    const TWO_LOOPS: &str = r#"
subroutine two(n, x, y, z)
  integer, intent(in) :: n
  real, intent(in) :: x(n)
  real, intent(inout) :: y(n)
  real, intent(inout) :: z(n)
  integer :: i
  !$omp parallel do shared(x, y)
  do i = 1, n
    y(i) = x(i) * 2.0
  end do
  !$omp parallel do shared(x, z)
  do i = 1, n
    z(i) = x(i) + 1.0
  end do
end subroutine
"#;

    fn sample_record() -> RegionRecord {
        RegionRecord {
            loop_var: "i".to_string(),
            loc: 3,
            model_size: 10,
            unique_exprs: 4,
            queries: 7,
            decisions: vec![
                ("a".to_string(), Decision::Shared, Provenance::Proved),
                (
                    "b".to_string(),
                    Decision::Guarded("pair (b(i), b(i+1)) may alias\twith tab".to_string()),
                    Provenance::Refuted,
                ),
                (
                    "c".to_string(),
                    Decision::Transposed("gather j = i - 1".to_string()),
                    Provenance::Proved,
                ),
            ],
            warnings: vec!["possible primal race on b".to_string()],
            safe_write_exprs: vec!["a(i)".to_string(), "a(i + 1)".to_string()],
            rejected_exprs: vec!["b(i)".to_string()],
        }
    }

    #[test]
    fn record_line_roundtrip() {
        let rec = sample_record();
        let line = render_record_line("ab12", &rec);
        let (fp, back) = parse_record_line(&line).unwrap();
        assert_eq!(fp, "ab12");
        assert_eq!(back, rec);
    }

    #[test]
    fn torn_record_line_is_rejected() {
        let rec = sample_record();
        let line = render_record_line("ab12", &rec);
        assert!(parse_record_line(&line[..line.len() - 3]).is_none());
        assert!(parse_record_line("garbage").is_none());
    }

    #[test]
    fn fingerprints_distinguish_regions_and_survive_reparse() {
        let prog = parse_program(TWO_LOOPS).unwrap();
        let activity = Activity::analyze(&prog, &["x".to_string()], &["y".to_string()]);
        let opts = RegionOptions::default();
        let loops = prog.parallel_loops();
        let f0 = region_fingerprint(&prog, loops[0], &activity, &opts);
        let f1 = region_fingerprint(&prog, loops[1], &activity, &opts);
        assert_ne!(f0, f1, "distinct loops must fingerprint differently");
        // Reparsing the printed program is the canonical-form fixpoint:
        // fingerprints are stable across it.
        let reparsed = parse_program(&formad_ir::program_to_string(&prog)).unwrap();
        let rloops = reparsed.parallel_loops();
        assert_eq!(
            f0,
            region_fingerprint(&reparsed, rloops[0], &activity, &opts)
        );
        // Semantics-bearing option flips change the fingerprint…
        let o2 = RegionOptions {
            use_increment_detection: false,
            ..Default::default()
        };
        assert_ne!(f0, region_fingerprint(&prog, loops[0], &activity, &o2));
        // …while resource knobs do not.
        let o3 = RegionOptions {
            max_retries: 0,
            ..Default::default()
        };
        assert_eq!(f0, region_fingerprint(&prog, loops[0], &activity, &o3));
        // Activity changes (different independents) change it.
        let a2 = Activity::analyze(&prog, &["n".to_string()], &["y".to_string()]);
        assert_ne!(f0, region_fingerprint(&prog, loops[0], &a2, &opts));
    }

    #[test]
    fn flush_and_disk_roundtrip() {
        let dir = std::env::temp_dir().join(format!("formad-fpi-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let idx = FingerprintIndex::with_disk_dir(&dir);
        idx.insert("f1".to_string(), sample_record());
        let (rec, tier) = idx.lookup("f1").unwrap();
        assert_eq!(tier, FpTier::Memory);
        assert_eq!(*rec, sample_record());
        // Nothing durable before the flush.
        assert!(FingerprintIndex::with_disk_dir(&dir).is_empty());
        assert_eq!(idx.flush(), 1);
        assert_eq!(idx.flush(), 0, "a flush stages nothing twice");
        // A fresh index over the same dir serves it from disk.
        let fresh = FingerprintIndex::with_disk_dir(&dir);
        let (rec, tier) = fresh.lookup("f1").unwrap();
        assert_eq!(tier, FpTier::Disk);
        assert_eq!(*rec, sample_record());
        assert_eq!(fresh.stats().disk_hits, 1);
        // Second lookup is a memory hit (promotion).
        assert_eq!(fresh.lookup("f1").unwrap().1, FpTier::Memory);
        assert_eq!(fresh.stats().hits, 2);
        assert_eq!(fresh.stats().disk_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn len_counts_a_disk_promoted_record_once() {
        let dir = std::env::temp_dir().join(format!("formad-fpi-len-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let writer = FingerprintIndex::with_disk_dir(&dir);
        writer.insert("f1".to_string(), sample_record());
        assert_eq!(writer.flush(), 1);
        let fresh = FingerprintIndex::with_disk_dir(&dir);
        assert_eq!(fresh.len(), 1);
        // Promotion flips the record's tier; it is still one record.
        assert_eq!(fresh.lookup("f1").unwrap().1, FpTier::Disk);
        assert_eq!(fresh.len(), 1);
        fresh.insert("f2".to_string(), sample_record());
        assert_eq!(fresh.stats().entries, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_flush_lands_nothing_and_is_counted() {
        let dir = std::env::temp_dir().join(format!("formad-fpi-werr-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let idx = FingerprintIndex::with_disk_dir(&dir);
        idx.insert("f1".to_string(), sample_record());
        // The directory vanishes under the index: the tmp file cannot be
        // created, so the flush must not claim a record landed.
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(idx.flush(), 0);
        assert_eq!(idx.stats().write_errors, 1);
        assert!(probe_fp_write(&dir).is_err());
        // The in-memory record still serves.
        assert!(idx.lookup("f1").is_some());
    }

    #[test]
    fn ineligible_analyses_are_not_captured() {
        let rec = sample_record();
        let mut ra = rec.to_analysis(0, Duration::ZERO);
        assert!(RegionRecord::from_analysis(&ra).is_some());
        ra.provenance
            .insert("a".to_string(), Provenance::BudgetExhausted);
        assert!(RegionRecord::from_analysis(&ra).is_none());
        let mut ra2 = rec.to_analysis(0, Duration::ZERO);
        ra2.recovered_panics = 1;
        assert!(RegionRecord::from_analysis(&ra2).is_none());
        let mut ra3 = rec.to_analysis(0, Duration::ZERO);
        ra3.stats.unknowns = 1;
        assert!(RegionRecord::from_analysis(&ra3).is_none());
    }

    #[test]
    fn roundtrip_through_analysis_preserves_fields() {
        let rec = sample_record();
        let ra = rec.to_analysis(3, Duration::from_millis(1));
        assert_eq!(ra.region, 3);
        assert_eq!(RegionRecord::from_analysis(&ra).unwrap(), rec);
    }
}
