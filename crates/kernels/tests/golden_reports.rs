//! Golden-file snapshot tests: the textual analysis report for each
//! Table-1 kernel is compared byte-for-byte against a checked-in
//! snapshot, so any change to decisions, provenance, query counts, model
//! sizes, or report wording shows up as a reviewable diff.
//!
//! Regenerate after an intentional change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p formad-kernels --test golden_reports
//! ```

use std::path::PathBuf;
use std::time::Duration;

use formad::{full_report, table1_header, table1_row, Formad, FormadOptions};
use formad_ir::Program;
use formad_kernels::{lbm, GfmcCase, GreenGaussCase, StencilCase};

struct Kernel {
    /// Snapshot file stem under `tests/golden/`.
    stem: &'static str,
    /// Display name used in the report header and Table-1 row.
    name: &'static str,
    program: Program,
    independents: Vec<String>,
    dependents: Vec<String>,
}

fn suite() -> Vec<Kernel> {
    let own = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    let gf = GfmcCase::new(16, 1);
    vec![
        Kernel {
            stem: "stencil1",
            name: "stencil 1",
            program: StencilCase::small(64, 1).ir(),
            independents: own(StencilCase::independents()),
            dependents: own(StencilCase::dependents()),
        },
        Kernel {
            stem: "stencil8",
            name: "stencil 8",
            program: StencilCase::large(128, 1).ir(),
            independents: own(StencilCase::independents()),
            dependents: own(StencilCase::dependents()),
        },
        Kernel {
            stem: "gfmc",
            name: "GFMC",
            program: gf.ir(),
            independents: own(GfmcCase::independents()),
            dependents: own(GfmcCase::dependents()),
        },
        Kernel {
            stem: "gfmc_star",
            name: "GFMC*",
            program: gf.ir_star(),
            independents: own(GfmcCase::independents()),
            dependents: own(GfmcCase::dependents()),
        },
        Kernel {
            stem: "lbm",
            name: "LBM",
            program: lbm::lbm_ir(),
            independents: own(lbm::independents()),
            dependents: own(lbm::dependents()),
        },
        Kernel {
            stem: "lbm_exec",
            name: "LBM-exec",
            program: formad_kernels::LbmExecCase::smoke().ir(),
            independents: own(lbm::independents()),
            dependents: own(lbm::dependents()),
        },
        Kernel {
            stem: "green_gauss",
            name: "GreenGauss",
            program: GreenGaussCase::linear(64, 1).ir(),
            independents: own(GreenGaussCase::independents()),
            dependents: own(GreenGaussCase::dependents()),
        },
    ]
}

/// Render the snapshot text for one kernel: Table-1 row plus the long
/// report, with the only wall-clock-dependent field (region time) zeroed
/// so the output is byte-stable.
fn render(k: &Kernel) -> String {
    let mut opts = FormadOptions::new(&[], &[]);
    opts.independents = k.independents.clone();
    opts.dependents = k.dependents.clone();
    let mut analysis = Formad::new(opts)
        .analyze(&k.program)
        .unwrap_or_else(|e| panic!("{}: analysis failed: {e}", k.name));
    for r in &mut analysis.regions {
        r.time = Duration::ZERO;
    }
    format!(
        "{}\n{}\n\n{}",
        table1_header(),
        table1_row(k.name, &analysis),
        full_report(k.name, &analysis)
    )
}

fn golden_path(stem: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{stem}.txt"))
}

fn check(k: &Kernel) {
    let rendered = render(k);
    let path = golden_path(k.stem);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        rendered,
        golden,
        "report for `{}` diverged from {} — if the change is intentional, \
         regenerate with UPDATE_GOLDEN=1",
        k.name,
        path.display()
    );
}

macro_rules! golden {
    ($test:ident, $stem:expr) => {
        #[test]
        fn $test() {
            let k = suite().into_iter().find(|k| k.stem == $stem).unwrap();
            check(&k);
        }
    };
}

golden!(golden_stencil1, "stencil1");
golden!(golden_stencil8, "stencil8");
golden!(golden_gfmc, "gfmc");
golden!(golden_gfmc_star, "gfmc_star");
golden!(golden_lbm, "lbm");
golden!(golden_lbm_exec, "lbm_exec");
golden!(golden_green_gauss, "green_gauss");

/// The snapshots themselves must be deterministic: rendering twice (fresh
/// solvers) yields identical bytes.
#[test]
fn golden_rendering_is_deterministic() {
    for k in suite() {
        assert_eq!(
            render(&k),
            render(&k),
            "nondeterministic report: {}",
            k.name
        );
    }
}
