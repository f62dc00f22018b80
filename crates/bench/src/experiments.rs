//! The paper's analysis results: Table 1 and the §7.3 LBM narrative.
//! The figures' run times are measured cells of
//! [`crate::kernel_bench`].

use std::fmt::Write as _;

use formad::{table1_header, table1_row, Formad, FormadOptions};
use formad_ir::Program;
use formad_kernels::{lbm, GfmcCase, GreenGaussCase, StencilCase};

/// One row of Table 1.
#[derive(Debug)]
pub struct Table1Row {
    /// Problem name.
    pub name: String,
    /// Pretty row (matches [`formad::table1_header`]).
    pub rendered: String,
    /// Raw stats.
    pub analysis: formad::FormadAnalysis,
}

/// Table 1: FormAD analysis statistics for all six problems.
pub fn table1() -> Vec<Table1Row> {
    let mut rows = Vec::new();
    let mut push = |name: &str, primal: &Program, indep: &[&str], dep: &[&str]| {
        let a = Formad::new(FormadOptions::new(indep, dep))
            .analyze(primal)
            .expect("analysis");
        rows.push(Table1Row {
            name: name.to_string(),
            rendered: table1_row(name, &a),
            analysis: a,
        });
    };
    let st1 = StencilCase::small(64, 1);
    push(
        "stencil 1",
        &st1.ir(),
        StencilCase::independents(),
        StencilCase::dependents(),
    );
    let st8 = StencilCase::large(128, 1);
    push(
        "stencil 8",
        &st8.ir(),
        StencilCase::independents(),
        StencilCase::dependents(),
    );
    let gf = GfmcCase::new(16, 1);
    push(
        "GFMC",
        &gf.ir(),
        GfmcCase::independents(),
        GfmcCase::dependents(),
    );
    push(
        "GFMC*",
        &gf.ir_star(),
        GfmcCase::independents(),
        GfmcCase::dependents(),
    );
    push(
        "LBM",
        &lbm::lbm_ir(),
        lbm::independents(),
        lbm::dependents(),
    );
    let gg = GreenGaussCase::linear(64, 1);
    push(
        "GreenGauss",
        &gg.ir(),
        GreenGaussCase::independents(),
        GreenGaussCase::dependents(),
    );
    rows
}

/// Render Table 1 with its header.
pub fn table1_text(rows: &[Table1Row]) -> String {
    let mut s = table1_header();
    s.push('\n');
    for r in rows {
        s.push_str(&r.rendered);
        s.push('\n');
    }
    s
}

/// §7.3-style LBM report: the known-safe write set and the rejected
/// adjoint expression.
pub fn lbm_report() -> String {
    let a = Formad::new(FormadOptions::new(lbm::independents(), lbm::dependents()))
        .analyze(&lbm::lbm_ir())
        .expect("lbm analysis");
    let r = &a.regions[0];
    let mut s = String::from("FormAD builds the set of known safe write expressions:\n");
    for e in &r.safe_write_exprs {
        let _ = writeln!(s, "  ({e})");
    }
    s.push_str(
        "At least one index expression used to increment an adjoint variable \
         is not contained in this set:\n",
    );
    for e in &r.rejected_exprs {
        let _ = writeln!(s, "  ({e})");
    }
    s.push_str(
        "FormAD thus considers the access to srcgrid as unsafe and does not \
         remove any safeguards from the generated code.\n",
    );
    s
}
