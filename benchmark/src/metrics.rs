//! The metric names this benchmark prints. `BENCHMARK.json` declares the
//! same sets (a self-test compares them), so a name exists in one place
//! per side and a typo cannot add a metric silently.

use std::collections::BTreeMap;

use crate::inputs::HEAVY_NAMES;

/// `(name, unit)` of every end-to-end metric. Every workload reports
/// every one of them, from the untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("proved_share", "share"),
];

/// Executable kernels and program versions of `exec_adjoint`, in row order.
pub const EXEC_KERNELS: [&str; 5] = ["stencil1", "stencil8", "gfmc", "green_gauss", "lbm_exec"];
pub const EXEC_VERSIONS: [&str; 4] = ["primal", "adj-formad", "adj-atomic", "adj-reduction"];

const FIXED_PER_LAYER: [(&str, &str); 77] = [
    // formad-ir
    ("ir.parse_s", "s"),
    ("ir.validate_s", "s"),
    ("ir.print_s", "s"),
    ("ir.parse_mb_per_s", "MB/s"),
    ("ir.source_bytes", "bytes"),
    ("ir.adjoint_bytes", "bytes"),
    // formad-analysis, formad-ad
    ("analysis.activity_s", "s"),
    ("ad.transform_s", "s"),
    ("ad.adjoint_stmts", "count"),
    // formad (core)
    ("core.analyze_s", "s"),
    ("core.pipeline_self_s", "s"),
    ("core.region_extract_s", "s"),
    ("core.race_check_s", "s"),
    ("core.region_prove_s", "s"),
    ("core.fingerprint_serve_s", "s"),
    ("core.regions", "count"),
    ("core.queries", "count"),
    ("core.engine_open_s", "s"),
    ("core.fingerprint_served", "count"),
    ("core.edited_pass_s", "s"),
    ("core.flush_s", "s"),
    ("core.populate_s", "s"),
    // formad-smt
    ("smt.query_s", "s"),
    ("smt.checks", "count"),
    ("smt.lia_calls", "count"),
    ("smt.presolve_discharges", "count"),
    ("smt.discharge_ratio", "share"),
    ("smt.propagations", "count"),
    ("smt.conflicts", "count"),
    ("smt.cache_hits", "count"),
    ("smt.cache_misses", "count"),
    ("smt.cache_inserts", "count"),
    ("smt.cache_disk_hits", "count"),
    // formad-machine
    ("machine.adjoint_over_primal", "ratio"),
    ("machine.atomic_over_primal", "ratio"),
    ("machine.formad_speedup", "ratio"),
    ("machine.aot_over_handwritten", "ratio"),
    ("machine.tn_over_t1", "ratio"),
    ("machine.aot_cold_s", "s"),
    ("machine.lower_s", "s"),
    ("machine.bytecode_compile_s", "s"),
    ("machine.aot_compile_s", "s"),
    ("machine.aot_load_s", "s"),
    ("machine.sim_reads", "count"),
    ("machine.sim_writes", "count"),
    ("machine.sim_atomics", "count"),
    ("machine.sim_tape_bytes", "bytes"),
    ("machine.sim_flops", "count"),
    // formad-runtime
    ("runtime.dispatch_us.t1", "us"),
    ("runtime.dispatch_us.tn", "us"),
    // formad-serve
    ("serve.rps", "1/s"),
    ("serve.handle_ms", "ms"),
    ("serve.accept_wait_ms", "ms"),
    ("serve.connect_ms", "ms"),
    ("serve.hot_p50_ms", "ms"),
    ("serve.novel_p50_ms", "ms"),
    ("serve.p90_ms", "ms"),
    ("serve.p99_ms", "ms"),
    ("serve.degraded", "count"),
    ("serve.fallbacks", "count"),
    ("serve.rejected_429", "count"),
    ("serve.fingerprint_hits", "count"),
    ("serve.cache_inserts", "count"),
    // formad-cli
    ("cli.spawn_ms", "ms"),
    ("cli.adjoint_default_s", "s"),
    ("cli.adjoint_jobs1_s", "s"),
    // the harness itself
    ("bench.unattributed_share", "share"),
    ("bench.tracing_overhead", "ratio"),
    ("bench.host_jitter", "ratio"),
    ("bench.inputs_hash", "hash48"),
    ("bench.passes", "count"),
    ("bench.pass_p50_s", "s"),
    ("bench.pass_p90_s", "s"),
    ("bench.traced_pass_s", "s"),
    ("bench.oversubscribed", "bool"),
    // what the checks found, beside the pass/fail count
    ("serve.requests", "count"),
    ("machine.fd_max_rel_error", "ratio"),
];

/// `(name, unit)` of every per-layer metric, in print order. A layer a
/// workload does not exercise reports 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = FIXED_PER_LAYER
        .iter()
        .map(|(n, u)| (n.to_string(), *u))
        .collect();
    for p in HEAVY_NAMES {
        out.push((format!("core.program_s.{p}"), "s"));
    }
    for k in EXEC_KERNELS {
        for v in EXEC_VERSIONS {
            out.push((format!("machine.aot_iter_s.{k}.{v}"), "s"));
        }
        for v in &EXEC_VERSIONS[..2] {
            out.push((format!("machine.bytecode_iter_s.{k}.{v}"), "s"));
        }
    }
    out
}

/// Metric values of one run, by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "metric `{name}` is not a finite number");
        self.0.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    pub fn names(&self) -> impl Iterator<Item = &String> {
        self.0.keys()
    }
}
