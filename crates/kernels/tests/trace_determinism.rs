//! The deterministic trace section must be byte-identical from run to
//! run: only *performance* (the `perf` section) may vary, never the
//! recorded sequence of phases, queries, verdicts, or decisions. Each
//! trace must also validate against the `formad-trace/v1` schema, and its
//! decisions must agree with the analysis result it was recorded from.

use formad::{
    deterministic_json, trace_json, validate_trace, Decision, Formad, FormadAnalysis,
    FormadOptions, TraceSink,
};
use formad_ir::Program;
use formad_kernels::{lbm, GfmcCase, GreenGaussCase, StencilCase};

struct Kernel {
    name: &'static str,
    program: Program,
    independents: Vec<String>,
    dependents: Vec<String>,
}

fn suite() -> Vec<Kernel> {
    let own = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    let gf = GfmcCase::new(8, 1);
    vec![
        Kernel {
            name: "stencil1",
            program: StencilCase::small(32, 1).ir(),
            independents: own(StencilCase::independents()),
            dependents: own(StencilCase::dependents()),
        },
        Kernel {
            name: "stencil8",
            program: StencilCase::large(64, 1).ir(),
            independents: own(StencilCase::independents()),
            dependents: own(StencilCase::dependents()),
        },
        Kernel {
            name: "gfmc",
            program: gf.ir(),
            independents: own(GfmcCase::independents()),
            dependents: own(GfmcCase::dependents()),
        },
        Kernel {
            name: "gfmc_star",
            program: gf.ir_star(),
            independents: own(GfmcCase::independents()),
            dependents: own(GfmcCase::dependents()),
        },
        Kernel {
            name: "lbm",
            program: lbm::lbm_ir(),
            independents: own(lbm::independents()),
            dependents: own(lbm::dependents()),
        },
        Kernel {
            name: "green_gauss",
            program: GreenGaussCase::linear(24, 1).ir(),
            independents: own(GreenGaussCase::independents()),
            dependents: own(GreenGaussCase::dependents()),
        },
    ]
}

/// Run the analysis, returning it, the deterministic trace section, and
/// the full trace document.
fn traced_run(k: &Kernel) -> (FormadAnalysis, String, String) {
    let sink = TraceSink::new();
    let mut opts = FormadOptions::new(&[], &[]);
    opts.independents = k.independents.clone();
    opts.dependents = k.dependents.clone();
    opts.region.trace = Some(sink.clone());
    let analysis = Formad::new(opts)
        .analyze(&k.program)
        .unwrap_or_else(|e| panic!("{}: analysis failed: {e}", k.name));
    let events = sink.snapshot();
    assert!(!events.is_empty(), "{}: no trace events recorded", k.name);
    (analysis, deterministic_json(&events), trace_json(&events))
}

#[test]
fn trace_is_identical_across_runs() {
    for k in suite() {
        let (_, reference, _) = traced_run(&k);
        let (_, got, _) = traced_run(&k);
        assert_eq!(
            got, reference,
            "{}: deterministic trace section differs between two runs",
            k.name
        );
    }
}

#[test]
fn trace_validates_and_matches_analysis_decisions() {
    for k in suite() {
        let (analysis, _, doc) = traced_run(&k);
        let summary =
            validate_trace(&doc).unwrap_or_else(|e| panic!("{}: invalid trace: {e}", k.name));
        assert!(summary.queries > 0, "{}: no query events", k.name);
        assert_eq!(summary.pipelines, 1, "{}: expected one pipeline", k.name);

        // Every per-array decision in the analysis appears in the trace
        // with the same verdict and provenance, and nothing extra.
        let total: usize = analysis.regions.iter().map(|r| r.decisions.len()).sum();
        assert_eq!(
            summary.decisions.len(),
            total,
            "{}: decision count mismatch",
            k.name
        );
        for r in &analysis.regions {
            for (array, d) in &r.decisions {
                let want = if matches!(d, Decision::Shared) {
                    "shared"
                } else {
                    "guarded"
                };
                let traced = summary
                    .decisions
                    .iter()
                    .find(|td| td.region == r.region as u64 && &td.array == array)
                    .unwrap_or_else(|| {
                        panic!("{}: region {} array {array} missing", k.name, r.region)
                    });
                assert_eq!(traced.decision, want, "{}: {array}", k.name);
                assert_eq!(
                    traced.provenance,
                    r.provenance[array].tag(),
                    "{}: {array}",
                    k.name
                );
            }
        }
    }
}
