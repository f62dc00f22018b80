//! `prove_heavy` and `frontend_corpus`: the cold pipeline — source text
//! in, adjoint source out, a fresh proof cache per program — over two
//! sets of programs that put opposite layers on the blocking path.

use std::collections::BTreeMap;
use std::time::Instant;

use formad::FormadAnalysis;
use formad_fuzz::footprint::check_footprints;
use formad_fuzz::FuzzCase;
use formad_smt::SolverStats;

use crate::inputs::{self, Input};
use crate::pipeline::{differentiate, proved_counts, verdicts, Product};
use crate::span::{Ledger, Tracer};
use crate::stats::{OpTimes, Samples};
use crate::{median, Budget, Config, Outcome};

/// Programs per `frontend_corpus` pass.
pub const CORPUS_PROGRAMS: usize = 1000;

/// Passes of a traced run that are recorded as spans.
const TRACED_PASSES: usize = 5;

type Verdicts = Vec<(usize, String, &'static str)>;

/// The hand-written expected verdicts (`expected/table1.txt`), by
/// program name. They come from the paper's Table 1 and §7, not from
/// the code under test.
pub fn expected_table1() -> BTreeMap<String, Vec<(usize, String, String)>> {
    let mut out: BTreeMap<String, Vec<(usize, String, String)>> = BTreeMap::new();
    for line in include_str!("../expected/table1.txt").lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let f: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(f.len(), 4, "table1.txt: `{line}`");
        let region = f[1].parse().expect("table1.txt: region index");
        out.entry(f[0].to_string())
            .or_default()
            .push((region, f[2].to_string(), f[3].to_string()));
    }
    out
}

/// Table-1 oracle: every array's verdict equals the expected file's.
pub fn table1_oracle(
    expected: &BTreeMap<String, Vec<(usize, String, String)>>,
    name: &str,
    analysis: &FormadAnalysis,
) -> Result<(), String> {
    let want = expected
        .get(name)
        .ok_or_else(|| format!("{name}: no expected verdicts"))?;
    let got = verdicts(analysis);
    let same = got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.0 == w.0 && g.1 == w.1 && g.2 == w.2);
    if same {
        Ok(())
    } else {
        Err(format!(
            "{name}: verdicts {got:?} differ from expected {want:?}"
        ))
    }
}

/// What the verified set-up pass recorded; later passes must repeat it.
#[derive(Default)]
struct Reference {
    verdicts: Vec<Verdicts>,
    stats: SolverStats,
    proved: u64,
    analysed: u64,
    regions: u64,
    queries: u64,
    source_bytes: usize,
    adjoint_bytes: usize,
    adjoint_stmts: usize,
}

/// Build the inputs and run the first cold pass, checking each product
/// against the workload's independent oracle.
fn set_up<O>(
    make: &dyn Fn() -> Vec<(Input, O)>,
    oracle: &dyn Fn(&Input, &O, &Product) -> Result<(), String>,
    out: &mut Outcome,
) -> (Vec<Input>, Reference) {
    let mut r = Reference::default();
    let mut inputs = Vec::new();
    for (input, o) in make() {
        match differentiate(&input, None, None) {
            Ok(p) => {
                out.check(oracle(&input, &o, &p));
                let (proved, analysed) = proved_counts(&p.analysis);
                r.proved += proved;
                r.analysed += analysed;
                r.regions += p.analysis.regions.len() as u64;
                r.queries += p.analysis.total_queries();
                r.stats.merge(&p.analysis.stats);
                r.adjoint_bytes += p.adjoint_source.len();
                r.adjoint_stmts += formad_ir::count_stmts(&p.adjoint.body);
                r.verdicts.push(verdicts(&p.analysis));
            }
            Err(e) => {
                out.check(Err(e));
                r.verdicts.push(Vec::new());
            }
        }
        r.source_bytes += input.source.len();
        inputs.push(input);
    }
    (inputs, r)
}

/// One cold pass. Returns the summed per-program times; the checks run
/// between the timers.
fn pass(
    inputs: &[Input],
    reference: &Reference,
    mut tracer: Option<&mut Tracer>,
    out: &mut Outcome,
    ops: &mut OpTimes,
) -> f64 {
    let mut total = 0.0;
    let mut stats = SolverStats::default();
    for (i, input) in inputs.iter().enumerate() {
        let t0 = Instant::now();
        let r = differentiate(input, None, tracer.as_deref_mut());
        let dt = t0.elapsed().as_secs_f64();
        total += dt;
        ops.push(i, dt);
        out.check(r.and_then(|p| {
            stats.merge(&p.analysis.stats);
            if verdicts(&p.analysis) == reference.verdicts[i] {
                Ok(())
            } else {
                Err(format!("{}: verdicts changed between passes", input.name))
            }
        }));
    }
    out.check(if stats.checks == reference.stats.checks {
        Ok(())
    } else {
        Err(format!(
            "prover checks changed between passes: {} vs {}",
            stats.checks, reference.stats.checks
        ))
    });
    total
}

fn run<O>(
    cfg: &Config,
    make: &dyn Fn() -> Vec<(Input, O)>,
    oracle: &dyn Fn(&Input, &O, &Product) -> Result<(), String>,
    per_program_rows: bool,
) -> Outcome {
    let mut out = Outcome::new();
    let mut setup_s = Vec::new();
    let mut state = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        state = Some(set_up(make, oracle, &mut out));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let (inputs, reference) = state.expect("set-up ran");

    let mut passes = Samples::new();
    let mut ops = OpTimes::new(inputs.len());
    // Summed times of the passes that ran as an untraced/traced pair.
    let (mut paired_untraced, mut paired_traced) = (0.0, 0.0);
    let mut tracer = cfg.trace.then(|| Tracer::new(Instant::now()));
    let mut budget = Budget::new(cfg.seconds, 3);
    while budget.admit() {
        out.jitter.sample();
        let untraced = pass(&inputs, &reference, None, &mut out, &mut ops);
        passes.push(untraced);
        // The traced run alternates: an untraced pass as the reference,
        // then the same pass under spans — a few of them, the span file
        // of a thousand-program pass is large.
        if let Some(t) = tracer.as_mut().filter(|_| passes.len() <= TRACED_PASSES) {
            t.set_id(passes.len() as u64);
            let root = t.enter("pass");
            let mut unused = OpTimes::new(inputs.len());
            paired_traced += pass(&inputs, &reference, Some(t), &mut out, &mut unused);
            paired_untraced += untraced;
            t.exit(root);
        }
    }

    out.set_pass_metrics(cfg.trace, &passes, ops.best_sum(), ops.best_median());
    if let Some(t) = tracer {
        let m = &mut out.metrics;
        let l = t.ledger("pass");
        set_ledger_rows(m, &l);
        let parse_s = l.per_root_s("ir.parse");
        if parse_s > 0.0 {
            m.set(
                "ir.parse_mb_per_s",
                reference.source_bytes as f64 / 1e6 / parse_s,
            );
        }
        m.set("ir.source_bytes", reference.source_bytes as f64);
        m.set("ir.adjoint_bytes", reference.adjoint_bytes as f64);
        m.set("ad.adjoint_stmts", reference.adjoint_stmts as f64);
        m.set("core.regions", reference.regions as f64);
        m.set("core.queries", reference.queries as f64);
        set_solver_rows(m, &reference.stats);
        m.set("bench.tracing_overhead", paired_traced / paired_untraced);
        m.set("bench.inputs_hash", inputs::inputs_hash48(&inputs));
        if per_program_rows {
            for (i, input) in inputs.iter().enumerate() {
                m.set(&format!("core.program_s.{}", input.name), ops.best(i));
            }
        }
        out.trace = Some(t);
    } else {
        out.metrics.set("setup_s", median(&setup_s));
        out.metrics.set(
            "proved_share",
            reference.proved as f64 / reference.analysed.max(1) as f64,
        );
    }
    out
}

/// Per-pass self time of each layer span, plus the analysis total.
pub fn set_ledger_rows(m: &mut crate::metrics::Metrics, l: &Ledger) {
    for (span, metric) in [
        ("ir.parse", "ir.parse_s"),
        ("ir.validate", "ir.validate_s"),
        ("ir.print", "ir.print_s"),
        ("analysis.activity", "analysis.activity_s"),
        ("ad.transform", "ad.transform_s"),
        ("core.differentiate", "core.pipeline_self_s"),
        ("core.region_extract", "core.region_extract_s"),
        ("core.race_check", "core.race_check_s"),
        ("core.region_prove", "core.region_prove_s"),
        ("core.fingerprint_serve", "core.fingerprint_serve_s"),
        ("smt.query", "smt.query_s"),
    ] {
        m.set(metric, l.per_root_s(span));
    }
    // A total, not a self time: everything `Formad::analyze` does.
    let analyze: f64 = [
        "core.differentiate",
        "core.region_extract",
        "core.race_check",
        "core.region_prove",
        "core.fingerprint_serve",
        "smt.query",
        "ir.validate",
        "analysis.activity",
    ]
    .iter()
    .map(|s| l.per_root_s(s))
    .sum();
    m.set("core.analyze_s", analyze);
    m.set(
        "bench.traced_pass_s",
        l.total_us / 1e6 / l.roots.max(1) as f64,
    );
    m.set("bench.unattributed_share", l.unattributed_share());
}

/// Prover counters of one pass. They repeat exactly from run to run.
pub fn set_solver_rows(m: &mut crate::metrics::Metrics, s: &SolverStats) {
    m.set("smt.checks", s.checks as f64);
    m.set("smt.lia_calls", s.lia_calls as f64);
    m.set("smt.presolve_discharges", s.presolve_discharges as f64);
    m.set(
        "smt.discharge_ratio",
        s.presolve_discharges as f64 / s.checks.max(1) as f64,
    );
    m.set("smt.propagations", s.propagations as f64);
    m.set("smt.conflicts", s.conflicts as f64);
    m.set("smt.cache_hits", s.cache_hits as f64);
    m.set("smt.cache_misses", s.cache_misses as f64);
    m.set("smt.cache_inserts", s.cache_inserts as f64);
    m.set("smt.cache_disk_hits", s.cache_disk_hits as f64);
}

/// Cold pipeline over the nine prover-heavy programs.
pub fn prove_heavy(cfg: &Config) -> Outcome {
    let expected = expected_table1();
    let seed = cfg.seed;
    let mut out = run(
        cfg,
        &|| inputs::heavy(seed).into_iter().map(|i| (i, ())).collect(),
        &|input, _, p| table1_oracle(&expected, &input.name, &p.analysis),
        true,
    );
    if cfg.trace {
        crate::cli::measure(cfg, &mut out);
    }
    out
}

/// Cold pipeline over seeded fuzz-grammar programs in both dialects.
pub fn frontend_corpus(cfg: &Config) -> Outcome {
    let seed = cfg.seed;
    run(
        cfg,
        &|| inputs::corpus(seed, 0, CORPUS_PROGRAMS),
        &footprint_oracle,
        false,
    )
}

/// Corpus oracle: no `Shared`/`Transposed` verdict may contradict the
/// program's concrete adjoint footprints (brute force over iterations).
pub fn footprint_oracle(input: &Input, case: &FuzzCase, p: &Product) -> Result<(), String> {
    let bind = case
        .bindings()
        .map_err(|e| format!("{}: bindings: {e}", input.name))?;
    check_footprints(&case.program, &bind, &p.analysis, &case.wrt, &case.of)
        .map_err(|e| format!("{}: footprint oracle: {e}", input.name))
}
