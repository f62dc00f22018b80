//! The prover-heavy programs and the golden-report rendering shared by
//! the root integration tests.

use std::path::PathBuf;
use std::time::Duration;

use formad::{full_report, table1_header, table1_row, Formad, FormadAnalysis, FormadOptions};
use formad_bench::prover_bench;
use formad_ir::Program;
use formad_kernels::{lbm, LbmExecCase, StencilCase};

pub struct Heavy {
    pub name: String,
    /// File stem under `crates/kernels/tests/golden/`, where one exists.
    pub golden: Option<&'static str>,
    pub program: Program,
    pub independents: Vec<String>,
    pub dependents: Vec<String>,
}

fn own(xs: &[&str]) -> Vec<String> {
    xs.iter().map(|s| s.to_string()).collect()
}

/// The nine `prove_heavy` programs, plus the CI-scale LBM-exec case its
/// golden file was taken from (the benchmark-scale one differs only in
/// its literal offsets).
pub fn heavy() -> Vec<Heavy> {
    let stems = [
        "stencil1",
        "stencil8",
        "gfmc",
        "gfmc_star",
        "lbm",
        "green_gauss",
    ];
    let mut out: Vec<Heavy> = prover_bench::suite()
        .into_iter()
        .zip(stems)
        .map(|(k, stem)| Heavy {
            name: k.name,
            golden: Some(stem),
            program: k.program,
            independents: k.independents,
            dependents: k.dependents,
        })
        .collect();
    for (case, golden) in [
        (LbmExecCase::full(), None),
        (LbmExecCase::smoke(), Some("lbm_exec")),
    ] {
        out.push(Heavy {
            name: "LBM-exec".into(),
            golden,
            program: case.ir(),
            independents: own(lbm::independents()),
            dependents: own(lbm::dependents()),
        });
    }
    for radius in [16, 24] {
        let case = StencilCase {
            n: 256,
            sweeps: 1,
            radius,
        };
        out.push(Heavy {
            name: format!("stencil {radius}"),
            golden: None,
            program: case.ir(),
            independents: own(StencilCase::independents()),
            dependents: own(StencilCase::dependents()),
        });
    }
    out
}

pub fn analyze(k: &Heavy) -> FormadAnalysis {
    let mut opts = FormadOptions::new(&[], &[]);
    opts.independents = k.independents.clone();
    opts.dependents = k.dependents.clone();
    let mut analysis = Formad::new(opts)
        .analyze(&k.program)
        .unwrap_or_else(|e| panic!("{}: analysis failed: {e}", k.name));
    for r in &mut analysis.regions {
        r.time = Duration::ZERO; // the only wall-clock field of a report
    }
    analysis
}

/// The golden files' rendering: Table-1 row plus the long report.
pub fn render(k: &Heavy, analysis: &FormadAnalysis) -> String {
    format!(
        "{}\n{}\n\n{}",
        table1_header(),
        table1_row(&k.name, analysis),
        full_report(&k.name, analysis)
    )
}

/// The committed golden report `stem`.
pub fn golden(stem: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("crates/kernels/tests/golden")
        .join(format!("{stem}.txt"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("golden file {}: {e}", path.display()))
}
