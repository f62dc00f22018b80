//! The paper's six-kernel analysis suite (Table 1), shared by the root
//! prover tests and the `benchmark/` package's prover-heavy workload.

use formad_ir::Program;
use formad_kernels::{lbm, GfmcCase, GreenGaussCase, StencilCase};

/// One kernel of the suite: a primal program plus its differentiation
/// in- and outputs.
#[derive(Debug)]
pub struct SuiteKernel {
    /// Table-1 problem name.
    pub name: String,
    /// Primal program.
    pub program: Program,
    /// Differentiation inputs.
    pub independents: Vec<String>,
    /// Differentiation outputs.
    pub dependents: Vec<String>,
}

/// The six Table-1 problems at analysis-relevant sizes (the prover's
/// work depends on the loop structure, not the array extents).
pub fn suite() -> Vec<SuiteKernel> {
    let own = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    let gf = GfmcCase::new(16, 1);
    vec![
        SuiteKernel {
            name: "stencil 1".into(),
            program: StencilCase::small(64, 1).ir(),
            independents: own(StencilCase::independents()),
            dependents: own(StencilCase::dependents()),
        },
        SuiteKernel {
            name: "stencil 8".into(),
            program: StencilCase::large(128, 1).ir(),
            independents: own(StencilCase::independents()),
            dependents: own(StencilCase::dependents()),
        },
        SuiteKernel {
            name: "GFMC".into(),
            program: gf.ir(),
            independents: own(GfmcCase::independents()),
            dependents: own(GfmcCase::dependents()),
        },
        SuiteKernel {
            name: "GFMC*".into(),
            program: gf.ir_star(),
            independents: own(GfmcCase::independents()),
            dependents: own(GfmcCase::dependents()),
        },
        SuiteKernel {
            name: "LBM".into(),
            program: lbm::lbm_ir(),
            independents: own(lbm::independents()),
            dependents: own(lbm::dependents()),
        },
        SuiteKernel {
            name: "GreenGauss".into(),
            program: GreenGaussCase::linear(64, 1).ir(),
            independents: own(GreenGaussCase::independents()),
            dependents: own(GreenGaussCase::dependents()),
        },
    ]
}
