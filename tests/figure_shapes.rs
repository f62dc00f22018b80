//! Shape assertions for every figure of the paper (§7), at reduced scale:
//! who wins, by roughly what factor, and in which direction the curves
//! bend. Absolute numbers are simulated cycles; the *relations* are what
//! the paper's evaluation establishes.

use formad_bench::{gfmc_figure, green_gauss_figure, stencil_figure, FigureData};

const THREADS: [usize; 4] = [1, 4, 8, 18];

fn assert_common_shape(fig: &FigureData) {
    // FormAD adjoint scales: monotone speedup growth, and at 18 threads it
    // beats every guarded version by a wide margin.
    let formad_1 = fig.speedup("adj-FormAD", 1);
    let formad_18 = fig.speedup("adj-FormAD", 18);
    assert!(
        formad_18 > 2.0 * formad_1,
        "{}: FormAD should scale ({formad_1:.2} → {formad_18:.2})",
        fig.name
    );
    // FormAD ≈ serial at one thread (no overhead versus the serial adjoint).
    assert!(
        formad_1 > 0.8 && formad_1 < 1.3,
        "{}: FormAD @1T should match serial ({formad_1:.2})",
        fig.name
    );
    // Atomics are far below serial even at one thread and get *worse*
    // with more threads (paper: "actually slow down as more threads are
    // added"). Paper at one thread: 0.039 on the small stencil
    // (1.58 s / 40.7 s), 0.01–0.1 on GFMC. Every adjoint version runs the
    // same forward sweep F, so the ratio is (F + b_serial) / (F + b_atomic):
    // with F the whole primal it read 0.034–0.059 here; with F gone for
    // the linear kernels it reads 0.018 (stencils) to 0.059 (GFMC, whose
    // forward sweep stays).
    let atomic_1 = fig.speedup("adj-atomic", 1);
    let atomic_18 = fig.speedup("adj-atomic", 18);
    assert!(atomic_1 < 0.1, "{}: atomic @1T {atomic_1:.3}", fig.name);
    assert!(
        atomic_18 < atomic_1,
        "{}: atomics must degrade with threads ({atomic_1:.3} → {atomic_18:.3})",
        fig.name
    );
    // Reductions beat atomics but never the FormAD adjoint; in parallel
    // the gap opens beyond 3×.
    for &t in &THREADS {
        let red = fig.speedup("adj-reduction", t);
        let atomic = fig.speedup("adj-atomic", t);
        let formad = fig.speedup("adj-FormAD", t);
        assert!(red > atomic, "{}: reduction > atomic at {t}T", fig.name);
        assert!(formad > red, "{}: FormAD > reduction at {t}T", fig.name);
        if t >= 4 {
            assert!(
                formad > 3.0 * red,
                "{}: FormAD ≫ reduction at {t}T",
                fig.name
            );
        }
    }
    // Headline: FormAD outperforms atomics and reductions by >5×
    // in parallel (paper: "factors ranging from 5× to over 13×").
    let red_best = THREADS
        .iter()
        .map(|t| fig.speedup("adj-reduction", *t))
        .fold(f64::MIN, f64::max);
    assert!(
        formad_18 / red_best > 5.0,
        "{}: FormAD vs best reduction = {:.1}x",
        fig.name,
        formad_18 / red_best
    );
}

#[test]
fn small_stencil_shape_fig3_fig5() {
    let fig = stencil_figure(1, 6_000, 1, &THREADS);
    assert_common_shape(&fig);
    // Paper: primal 13.4×, FormAD 13.6× on 18 threads; at our scale both
    // should exceed 8× and track each other within 40%.
    let p18 = fig.speedup("primal", 18);
    let f18 = fig.speedup("adj-FormAD", 18);
    assert!(p18 > 8.0, "primal @18T = {p18:.1}");
    assert!(f18 > 8.0, "FormAD @18T = {f18:.1}");
    assert!((p18 / f18 - 1.0).abs() < 0.4);
    // Reduction at one thread: paper 0.43× (1.58 s / 3.65 s). The cost
    // model was fitted to that figure while the serial adjoint still
    // re-executed the primal (it read 0.41 = 2b / (b + 3.84b) with the
    // forward sweep as long as the backward one); without the forward
    // sweep the same model reads b / 3.84b = 0.26. The window holds both
    // the paper's value and the model's, and no longer the 0.5–0.7 no
    // version of this kernel can reach.
    let r1 = fig.speedup("adj-reduction", 1);
    assert!(r1 > 0.2 && r1 < 0.5, "reduction @1T = {r1:.2}");
}

#[test]
fn large_stencil_shape_fig4_fig6() {
    let fig = stencil_figure(8, 6_000, 1, &THREADS);
    assert_common_shape(&fig);
    let p18 = fig.speedup("primal", 18);
    assert!(p18 > 8.0, "primal @18T = {p18:.1}");
}

#[test]
fn gfmc_shape_fig7_fig8() {
    let fig = gfmc_figure(48, 1, &THREADS);
    assert_common_shape(&fig);
    // Load imbalance (ramped inner trip counts) caps scaling below the
    // stencils' (paper: 7.35×/8.39× vs 13.4×/13.6×).
    let p18 = fig.speedup("primal", 18);
    assert!(p18 > 4.0 && p18 < 14.0, "primal @18T = {p18:.1}");
    // FormAD adjoint beats the best reduction version by >5× (paper:
    // 5.88× between FormAD@18T and reduction@4T).
    let f18 = fig.speedup("adj-FormAD", 18);
    let red_best = THREADS
        .iter()
        .map(|t| fig.speedup("adj-reduction", *t))
        .fold(f64::MIN, f64::max);
    assert!(f18 / red_best > 5.0, "{:.2} / {:.2}", f18, red_best);
}

#[test]
fn green_gauss_shape_fig9_fig10() {
    let fig = green_gauss_figure(6_000, 1, &THREADS);
    // Memory-bound: the primal's speedup saturates well below ideal
    // (paper: "highly memory bound ... overall poor scalability").
    let p18 = fig.speedup("primal", 18);
    let p1 = fig.speedup("primal", 1);
    assert!(p18 < 8.0, "primal @18T should saturate, got {p18:.1}");
    assert!(p18 > 1.5 * p1, "still some speedup");
    // FormAD achieves parallel speedup while atomics/reductions never
    // reach serial performance.
    let f18 = fig.speedup("adj-FormAD", 18);
    assert!(f18 > 2.0, "FormAD @18T = {f18:.1}");
    for &t in &THREADS {
        assert!(fig.speedup("adj-atomic", t) < 1.0);
        assert!(fig.speedup("adj-reduction", t) < 1.0);
    }
}
