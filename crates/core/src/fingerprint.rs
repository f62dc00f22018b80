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
//! The fingerprint is deliberately *not* renaming-invariant: decisions
//! are keyed by concrete array names.
//!
//! Layering: an [`overlay`](FingerprintIndex::overlay) stages a
//! request's records privately — lookups read through to the layers
//! beneath, inserts stay in the overlay — and is
//! [`absorb`](FingerprintIndex::absorb)ed on success or simply dropped
//! on error/unwind. A base index opened with
//! [`with_disk_dir`](FingerprintIndex::with_disk_dir) persists records
//! to `fingerprints.fpi` in the cache directory; only the base stages
//! records for the file. The store is strictly best-effort:
//!
//! * any read error, version mismatch, or torn/corrupt line degrades
//!   silently to a cold miss, never an error;
//! * any write error is counted ([`FpStats::write_errors`]) and
//!   otherwise ignored — the run's results are unaffected, only future
//!   warmth is lost;
//! * writes are atomic: the merged content goes to a process-unique
//!   `*.tmp-…` sibling that is `rename`d into place. Every writer merges
//!   the freshly re-read file with its own pending records before
//!   renaming; writers in one process do so one at a time and lose
//!   nothing, while a race between processes drops only the loser's
//!   not-yet-re-read records (a future cold miss, never a wrong answer).
//!
//! Other files in the directory — such as the `proof-NN.fsc` shards an
//! older release wrote — are never read or removed.

use std::collections::{HashMap, HashSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use formad_analysis::Activity;
use formad_ir::{expr_to_string, printer::write_loop, ForLoop, Program};
use formad_smt::SolverStats;

use crate::region::{Decision, Provenance, RegionAnalysis, RegionOptions};

/// Version header of the on-disk fingerprint index; also mixed into every
/// fingerprint so a format bump invalidates the whole index.
pub const FP_FORMAT_VERSION: &str = "formad-fpi/v1";

/// File name of the fingerprint index within a cache directory.
pub const FP_FILE: &str = "fingerprints.fpi";

/// FNV-1a 64-bit hash, used for fingerprints and record checksums.
fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_from(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continue an FNV-1a hash whose state is `h` over `bytes`.
fn fnv64_from(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Atomically replace `path` with `contents` (tmp file + rename). The tmp
/// name is unique per process so concurrent writers never clobber each
/// other's tmp files.
fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let mut os = path.as_os_str().to_os_string();
    os.push(format!(".tmp-{}-{seq}", std::process::id()));
    let tmp = PathBuf::from(os);
    fs::write(&tmp, contents)?;
    fs::rename(&tmp, path).inspect_err(|_| {
        let _ = fs::remove_file(&tmp);
    })
}

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
    /// The record was inserted (or absorbed) during this process's life.
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
    let h1 = fnv64(buf.as_bytes());
    // FNV is a running hash: `fp2\n` followed by the buffer.
    let h2 = fnv64_from(fnv64(b"fp2\n"), buf.as_bytes());
    format!("{h1:016x}{h2:016x}")
}

/// Counter snapshot of a [`FingerprintIndex`], exported into diagnostics
/// and `/v1/status`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FpStats {
    /// Distinct fingerprints reachable from this layer (own, parents
    /// and disk snapshot).
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

#[derive(Debug)]
struct FpDisk {
    path: PathBuf,
    snapshot: HashMap<String, Arc<RegionRecord>>,
    pending: Mutex<HashMap<String, Arc<RegionRecord>>>,
    write_errors: AtomicU64,
}

impl FpDisk {
    fn open(dir: &Path) -> FpDisk {
        let _ = std::fs::create_dir_all(dir);
        let path = dir.join(FP_FILE);
        let mut snapshot = HashMap::new();
        if let Some(lines) = read_versioned_lines(&path, FP_FORMAT_VERSION) {
            for line in &lines {
                if line.is_empty() {
                    continue;
                }
                // Torn/corrupt lines degrade to absent records.
                if let Some((fp, rec)) = parse_record_line(line) {
                    snapshot.insert(fp, Arc::new(rec));
                }
            }
        }
        FpDisk {
            path,
            snapshot,
            pending: Mutex::new(HashMap::new()),
            write_errors: AtomicU64::new(0),
        }
    }

    fn stage(&self, fp: &str, rec: &Arc<RegionRecord>) {
        if self.snapshot.contains_key(fp) {
            return;
        }
        if let Ok(mut p) = self.pending.lock() {
            p.entry(fp.to_owned()).or_insert_with(|| Arc::clone(rec));
        }
    }

    /// Merge pending records into the index file (re-reading it fresh so
    /// concurrent writers' records survive) and atomically replace it.
    /// Returns the number of records that landed: 0 when the write failed.
    fn flush(&self) -> usize {
        let drained: HashMap<String, Arc<RegionRecord>> = match self.pending.lock() {
            Ok(mut p) => std::mem::take(&mut *p),
            Err(_) => return 0,
        };
        if drained.is_empty() {
            return 0;
        }
        // Read-merge-replace is one step for the writers of this process,
        // so they lose nothing to each other. Another process can still
        // replace the file between this read and the rename.
        static FLUSHING: Mutex<()> = Mutex::new(());
        let _one_writer = FLUSHING.lock();
        let mut merged: HashMap<String, String> = HashMap::new();
        if let Some(lines) = read_versioned_lines(&self.path, FP_FORMAT_VERSION) {
            for line in lines {
                if let Some(fp) = verify_record_line(&line) {
                    merged.insert(fp, line);
                }
            }
        }
        let written = drained.len();
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
        if write_atomic(&self.path, &out).is_err() {
            self.write_errors.fetch_add(1, Ordering::Relaxed);
            return 0;
        }
        written
    }
}

#[derive(Debug, Default)]
struct FpInner {
    map: Mutex<HashMap<String, Arc<RegionRecord>>>,
    hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
}

impl FpInner {
    fn get(&self, fp: &str) -> Option<Arc<RegionRecord>> {
        self.map.lock().map_or(None, |m| m.get(fp).cloned())
    }
}

/// Concurrent fingerprint → [`RegionRecord`] index with overlay/absorb
/// layering and an optional durable file beneath the memory chain.
/// Cloning shares the index.
#[derive(Debug, Clone, Default)]
pub struct FingerprintIndex {
    inner: Arc<FpInner>,
    /// Read-through ancestors, nearest first.
    parents: Vec<Arc<FpInner>>,
    disk: Option<Arc<FpDisk>>,
}

impl FingerprintIndex {
    /// An empty in-memory index.
    pub fn new() -> FingerprintIndex {
        FingerprintIndex::default()
    }

    /// An index persisted under `dir`. Never fails; corruption degrades
    /// to an empty snapshot.
    pub fn with_disk_dir(dir: &Path) -> FingerprintIndex {
        FingerprintIndex {
            inner: Arc::new(FpInner::default()),
            parents: Vec::new(),
            disk: Some(Arc::new(FpDisk::open(dir))),
        }
    }

    /// A private write layer over this index: lookups read through to
    /// every layer beneath, inserts stay here until [`absorb`](Self::absorb).
    pub fn overlay(&self) -> FingerprintIndex {
        let mut parents = Vec::with_capacity(self.parents.len() + 1);
        parents.push(Arc::clone(&self.inner));
        parents.extend(self.parents.iter().cloned());
        FingerprintIndex {
            inner: Arc::new(FpInner::default()),
            parents,
            disk: self.disk.clone(),
        }
    }

    fn is_base(&self) -> bool {
        self.parents.is_empty()
    }

    /// Publish an overlay's records into this index; a base index also
    /// batches them to the durable file.
    pub fn absorb(&self, overlay: &FingerprintIndex) {
        let Ok(src) = overlay.inner.map.lock() else {
            return;
        };
        if let Ok(mut dst) = self.inner.map.lock() {
            for (fp, rec) in src.iter() {
                dst.insert(fp.clone(), Arc::clone(rec));
            }
        }
        if let (true, Some(disk)) = (self.is_base(), self.disk.as_ref()) {
            for (fp, rec) in src.iter() {
                disk.stage(fp, rec);
            }
        }
        drop(src);
        // Roll the retiring overlay's counters up so served/miss
        // activity inside absorbed requests stays visible at this layer.
        for (dst, src) in [
            (&self.inner.hits, &overlay.inner.hits),
            (&self.inner.disk_hits, &overlay.inner.disk_hits),
            (&self.inner.misses, &overlay.inner.misses),
            (&self.inner.inserts, &overlay.inner.inserts),
        ] {
            dst.fetch_add(src.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        if self.is_base() {
            self.flush();
        }
    }

    /// Look up a record (own map, parents nearest-first, then the disk
    /// snapshot), reporting the serving tier. Disk hits are promoted into
    /// this layer's memory.
    pub fn lookup(&self, fp: &str) -> Option<(Arc<RegionRecord>, FpTier)> {
        let mem = self
            .inner
            .get(fp)
            .or_else(|| self.parents.iter().find_map(|p| p.get(fp)));
        if let Some(rec) = mem {
            self.inner.hits.fetch_add(1, Ordering::Relaxed);
            return Some((rec, FpTier::Memory));
        }
        if let Some(rec) = self.disk.as_ref().and_then(|d| d.snapshot.get(fp).cloned()) {
            if let Ok(mut m) = self.inner.map.lock() {
                m.insert(fp.to_owned(), Arc::clone(&rec));
            }
            self.inner.hits.fetch_add(1, Ordering::Relaxed);
            self.inner.disk_hits.fetch_add(1, Ordering::Relaxed);
            return Some((rec, FpTier::Disk));
        }
        self.inner.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Insert a record; a base index also stages it for the durable
    /// file.
    pub fn insert(&self, fp: String, rec: RegionRecord) {
        let rec = Arc::new(rec);
        if let (true, Some(disk)) = (self.is_base(), self.disk.as_ref()) {
            disk.stage(&fp, &rec);
        }
        if let Ok(mut m) = self.inner.map.lock() {
            m.insert(fp, rec);
        }
        self.inner.inserts.fetch_add(1, Ordering::Relaxed);
    }

    /// Batch staged records to the durable file. No-op without one.
    pub fn flush(&self) -> usize {
        self.disk.as_ref().map_or(0, |d| d.flush())
    }

    /// Distinct fingerprints reachable from this layer. A record promoted
    /// from the disk snapshot, or present in several layers, counts once.
    pub fn len(&self) -> usize {
        let layers: Vec<_> = std::iter::once(&self.inner)
            .chain(&self.parents)
            .filter_map(|l| l.map.lock().ok())
            .collect();
        let mut seen: HashSet<&str> = HashSet::new();
        if let Some(d) = &self.disk {
            seen.extend(d.snapshot.keys().map(String::as_str));
        }
        for m in &layers {
            seen.extend(m.keys().map(String::as_str));
        }
        seen.len()
    }

    /// Whether no records are reachable.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> FpStats {
        FpStats {
            entries: self.len() as u64,
            hits: self.inner.hits.load(Ordering::Relaxed),
            disk_hits: self.inner.disk_hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
            inserts: self.inner.inserts.load(Ordering::Relaxed),
            write_errors: self
                .disk
                .as_ref()
                .map_or(0, |d| d.write_errors.load(Ordering::Relaxed)),
        }
    }
}

// ---------------------------------------------------------------------
// On-disk record lines.
// ---------------------------------------------------------------------
//
// One record per line: `<fp> <fnv64(payload) hex> <payload>` where the
// payload is the record's fields joined by tabs, each field escaped
// (`\` → `\\`, tab → `\t`, newline → `\n`). Vectors are length-prefixed.
// The checksum rejects torn lines; an unparseable payload behind a valid
// checksum (format drift) is also dropped rather than trusted.

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn unesc(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '\\' => out.push('\\'),
            't' => out.push('\t'),
            'n' => out.push('\n'),
            _ => return None,
        }
    }
    Some(out)
}

fn decision_code(d: &Decision) -> (&'static str, &str) {
    match d {
        Decision::Shared => ("s", ""),
        Decision::Transposed(r) => ("t", r),
        Decision::Guarded(r) => ("g", r),
    }
}

fn provenance_from_tag(tag: &str) -> Option<Provenance> {
    Some(match tag {
        "proved" => Provenance::Proved,
        "refuted" => Provenance::Refuted,
        "budget-exhausted" => Provenance::BudgetExhausted,
        "timed-out" => Provenance::TimedOut,
        "recovered" => Provenance::Recovered,
        _ => return None,
    })
}

fn render_payload(rec: &RegionRecord) -> String {
    let mut f: Vec<String> = vec![
        esc(&rec.loop_var),
        rec.loc.to_string(),
        rec.model_size.to_string(),
        rec.unique_exprs.to_string(),
        rec.queries.to_string(),
        rec.decisions.len().to_string(),
    ];
    for (arr, d, p) in &rec.decisions {
        let (code, reason) = decision_code(d);
        f.push(esc(arr));
        f.push(code.to_string());
        f.push(esc(reason));
        f.push(p.tag().to_string());
    }
    for list in [&rec.warnings, &rec.safe_write_exprs, &rec.rejected_exprs] {
        f.push(list.len().to_string());
        f.extend(list.iter().map(|s| esc(s)));
    }
    f.join("\t")
}

fn render_record_line(fp: &str, rec: &RegionRecord) -> String {
    let payload = render_payload(rec);
    format!("{fp} {:016x} {payload}", fnv64(payload.as_bytes()))
}

/// Checksum-only validation; returns the fingerprint of a healthy line.
fn verify_record_line(line: &str) -> Option<String> {
    let mut parts = line.splitn(3, ' ');
    let fp = parts.next()?;
    let sum = u64::from_str_radix(parts.next()?, 16).ok()?;
    let payload = parts.next()?;
    (fnv64(payload.as_bytes()) == sum).then(|| fp.to_owned())
}

fn parse_payload(payload: &str) -> Option<RegionRecord> {
    let fields: Vec<&str> = payload.split('\t').collect();
    let mut it = fields.into_iter();
    let mut next = move || it.next();
    let loop_var = unesc(next()?)?;
    let loc = next()?.parse().ok()?;
    let model_size = next()?.parse().ok()?;
    let unique_exprs = next()?.parse().ok()?;
    let queries = next()?.parse().ok()?;
    let ndec: usize = next()?.parse().ok()?;
    let mut decisions = Vec::with_capacity(ndec);
    for _ in 0..ndec {
        let arr = unesc(next()?)?;
        let code = next()?;
        let reason = unesc(next()?)?;
        let d = match code {
            "s" => Decision::Shared,
            "t" => Decision::Transposed(reason),
            "g" => Decision::Guarded(reason),
            _ => return None,
        };
        let p = provenance_from_tag(next()?)?;
        decisions.push((arr, d, p));
    }
    let mut lists: [Vec<String>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for list in &mut lists {
        let n: usize = next()?.parse().ok()?;
        for _ in 0..n {
            list.push(unesc(next()?)?);
        }
    }
    let [warnings, safe_write_exprs, rejected_exprs] = lists;
    if next().is_some() {
        return None;
    }
    Some(RegionRecord {
        loop_var,
        loc,
        model_size,
        unique_exprs,
        queries,
        decisions,
        warnings,
        safe_write_exprs,
        rejected_exprs,
    })
}

fn parse_record_line(line: &str) -> Option<(String, RegionRecord)> {
    let mut parts = line.splitn(3, ' ');
    let fp = parts.next()?.to_owned();
    let sum = u64::from_str_radix(parts.next()?, 16).ok()?;
    let payload = parts.next()?;
    if fnv64(payload.as_bytes()) != sum {
        return None;
    }
    Some((fp, parse_payload(payload)?))
}

/// Offline report over a cache directory's fingerprint index, for the
/// `formad cache` verb. All zero when no index file exists yet, which is
/// not corruption.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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
}

/// Inspect `dir`'s index file without touching it.
pub fn inspect_fp_file(dir: &Path) -> FpFileReport {
    let path = dir.join(FP_FILE);
    let Ok(meta) = fs::metadata(&path) else {
        return FpFileReport::default();
    };
    let mut report = FpFileReport {
        bytes: meta.len(),
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
    write_atomic(&probe, "")?;
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
    fn overlay_absorb_and_disk_roundtrip() {
        let dir = std::env::temp_dir().join(format!("formad-fpi-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let base = FingerprintIndex::with_disk_dir(&dir);
        let ov = base.overlay();
        ov.insert("f1".to_string(), sample_record());
        assert!(ov.lookup("f1").is_some());
        // Not yet published, and nothing durable yet.
        assert!(base.lookup("f1").is_none());
        base.absorb(&ov);
        let (rec, tier) = base.lookup("f1").unwrap();
        assert_eq!(tier, FpTier::Memory);
        assert_eq!(*rec, sample_record());
        // A fresh index over the same dir serves it from disk.
        let fresh = FingerprintIndex::with_disk_dir(&dir);
        let (rec, tier) = fresh.lookup("f1").unwrap();
        assert_eq!(tier, FpTier::Disk);
        assert_eq!(*rec, sample_record());
        assert_eq!(fresh.stats().disk_hits, 1);
        // Second lookup is a memory hit (promotion).
        assert_eq!(fresh.lookup("f1").unwrap().1, FpTier::Memory);
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
        // Promotion copies the record into memory; it is still one record,
        // also when seen through an overlay that promoted it again.
        assert_eq!(fresh.lookup("f1").unwrap().1, FpTier::Disk);
        assert_eq!(fresh.len(), 1);
        let ov = fresh.overlay();
        ov.insert("f1".to_string(), sample_record());
        ov.insert("f2".to_string(), sample_record());
        assert_eq!(ov.len(), 2);
        assert_eq!(fresh.stats().entries, 1);
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
