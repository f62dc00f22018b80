//! The paper's qualitative results, §7: which benchmarks FormAD proves
//! safe (no atomics in the adjoint) and which it correctly rejects.

use formad::{Decision, Formad, FormadOptions};
use formad_ir::parse_program;

fn analyze(src: &str, indep: &[&str], dep: &[&str]) -> formad::FormadAnalysis {
    let p = parse_program(src).unwrap();
    Formad::new(FormadOptions::new(indep, dep))
        .analyze(&p)
        .unwrap()
}

fn decision<'a>(a: &'a formad::FormadAnalysis, region: usize, arr: &str) -> &'a Decision {
    a.regions[region]
        .decisions
        .get(arr)
        .unwrap_or_else(|| panic!("no decision for {arr} in region {region}"))
}

/// §7.1: compact stencil, stride-2 loops, increments only — FormAD proves
/// the adjoint free of conflicts.
const STENCIL: &str = r#"
subroutine stencil(n, wl, wc, wr, uold, unew)
  integer, intent(in) :: n
  real, intent(in) :: wl, wc, wr
  real, intent(in) :: uold(n)
  real, intent(inout) :: unew(n)
  integer :: i, offset, from
  do offset = 0, 1
    from = 2 * 1 + offset
    !$omp parallel do shared(unew, uold)
    do i = from, n - 2, 2
      unew(i) = unew(i) + wl * uold(i - 1)
      unew(i) = unew(i) + wc * uold(i)
      unew(i - 1) = unew(i - 1) + wr * uold(i)
    end do
  end do
end subroutine
"#;

#[test]
fn stencil_proved_safe() {
    let a = analyze(STENCIL, &["uold"], &["unew"]);
    // One parallel loop in the source (the outer `offset` loop re-enters
    // it at run time).
    assert_eq!(a.regions.len(), 1);
    assert_eq!(decision(&a, 0, "uold"), &Decision::Shared);
    assert_eq!(decision(&a, 0, "unew"), &Decision::Shared);
    assert!(a.all_safe());
    // Table 1, stencil 1: 2 unique index expressions, model size 5.
    assert_eq!(a.regions[0].unique_exprs, 2);
    assert_eq!(a.regions[0].model_size, 5);
}

/// Figure 2: indirect write through a gather array.
#[test]
fn fig2_indirect_proved_safe() {
    let a = analyze(
        r#"
subroutine fig2(n, x, y, c)
  integer, intent(in) :: n
  real, intent(in) :: x(n)
  real, intent(inout) :: y(n)
  integer, intent(in) :: c(n)
  integer :: i
  !$omp parallel do shared(x, y, c)
  do i = 1, n
    y(c(i)) = x(c(i) + 7)
  end do
end subroutine
"#,
        &["x"],
        &["y"],
    );
    assert_eq!(decision(&a, 0, "x"), &Decision::Shared);
    assert_eq!(decision(&a, 0, "y"), &Decision::Shared);
}

/// §7.2 GFMC, split version: the spin-exchange loop's gathers match its
/// writes, so the adjoint increments to `cr` are proven safe.
const GFMC_SPLIT: &str = r#"
subroutine gfmc(ns, np, mss, xee, xmm, cr, cl)
  integer, intent(in) :: ns, np
  integer, intent(in) :: mss(4, np)
  real, intent(in) :: xee, xmm
  real, intent(inout) :: cr(ns, ns)
  real, intent(inout) :: cl(ns, ns)
  integer :: k12, j, idd, iud, idu, iuu
  !$omp parallel do shared(cl, cr, mss) private(j, idd, iud, idu, iuu)
  do k12 = 1, np
    idd = mss(1, k12)
    iud = mss(2, k12)
    idu = mss(3, k12)
    iuu = mss(4, k12)
    do j = 1, ns
      cl(idd, j) = xee * cr(idd, j) + xmm * cr(iuu, j)
      cl(iuu, j) = xee * cr(iuu, j) + xmm * cr(idd, j)
      cl(iud, j) = xmm * cr(iud, j) + xee * cr(idu, j)
      cl(idu, j) = xmm * cr(idu, j) + xee * cr(iud, j)
    end do
  end do
end subroutine
"#;

#[test]
fn gfmc_split_proved_safe() {
    let a = analyze(GFMC_SPLIT, &["cr"], &["cl"]);
    assert_eq!(decision(&a, 0, "cr"), &Decision::Shared);
    assert_eq!(decision(&a, 0, "cl"), &Decision::Shared);
}

/// §7.2 GFMC*, fused version: an extra gather (`msx`) reads `cr` at
/// indices not covered by any write knowledge; FormAD must refuse.
const GFMC_FUSED: &str = r#"
subroutine gfmcstar(ns, np, mss, msx, xee, cr, cl)
  integer, intent(in) :: ns, np
  integer, intent(in) :: mss(4, np)
  integer, intent(in) :: msx(np)
  real, intent(in) :: xee
  real, intent(inout) :: cr(ns, ns)
  real, intent(inout) :: cl(ns, ns)
  integer :: k12, j, idd, kk
  !$omp parallel do shared(cl, cr, mss, msx) private(j, idd, kk)
  do k12 = 1, np
    idd = mss(1, k12)
    kk = msx(k12)
    do j = 1, ns
      cl(idd, j) = xee * cr(idd, j) + xee * cr(kk, j)
    end do
  end do
end subroutine
"#;

#[test]
fn gfmc_fused_rejected() {
    let a = analyze(GFMC_FUSED, &["cr"], &["cl"]);
    // cl's adjoint (read-then-zero at write indices) stays safe…
    assert_eq!(decision(&a, 0, "cl"), &Decision::Shared);
    // …but cr's adjoint increments include the uncovered gather: guarded.
    assert!(
        matches!(decision(&a, 0, "cr"), Decision::Guarded(_)),
        "{:?}",
        decision(&a, 0, "cr")
    );
    assert!(!a.regions[0].rejected_exprs.is_empty());
}

/// §7.3 LBM: streaming offsets. The write set uses matched
/// offset/multiplier pairs; one adjoint increment (`eb + 0·ncell + i`)
/// falls outside it. FormAD correctly keeps the safeguards.
const LBM: &str = r#"
subroutine lbm(ncell, nel, src, dst)
  integer, intent(in) :: ncell, nel
  real, intent(in) :: src(nel)
  real, intent(inout) :: dst(nel)
  integer :: i, e, w, c, nb, sb, eb
  !$omp parallel do shared(src, dst) private(e, w, c, nb, sb, eb)
  do i = 1, ncell
    e = 1
    w = 2
    c = 3
    nb = 4
    sb = 5
    eb = 6
    dst(e + ncell * 1 + i) = 0.1 * src(e + ncell * 1 + i)
    dst(w + ncell * (-1) + i) = 0.1 * src(w + ncell * (-1) + i)
    dst(c + ncell * 0 + i) = 0.1 * src(c + ncell * 0 + i)
    dst(nb + ncell * (-14280) + i) = 0.1 * src(nb + ncell * (-14280) + i)
    dst(sb + ncell * (-14520) + i) = 0.1 * src(sb + ncell * (-14520) + i)
    dst(eb + ncell * (-14399) + i) = 0.1 * src(eb + ncell * 0 + i)
  end do
end subroutine
"#;

#[test]
fn lbm_rejected() {
    let a = analyze(LBM, &["src"], &["dst"]);
    // The adjoint of src is incremented at the read offsets, one of which
    // (eb + 0·ncell + i) does not match the write set — guarded.
    assert!(
        matches!(decision(&a, 0, "src"), Decision::Guarded(_)),
        "{:?}",
        decision(&a, 0, "src")
    );
    // dst is overwritten at the (disjoint) write offsets: its adjoint
    // zero-writes are provably safe.
    assert_eq!(decision(&a, 0, "dst"), &Decision::Shared);
    // Six write expressions in the knowledge model.
    assert!(a.regions[0].unique_exprs >= 6);
}

/// §7.4 Green-Gauss gradients: data-dependent node indices from a colored
/// edge loop, guarded by `if (i /= j)`. The `dv` read-read pair (which
/// becomes an adjoint increment-increment) is proven safe *through* the
/// knowledge extracted from the `grad` increments — the cross-array
/// transfer at the heart of the paper.
const GREEN_GAUSS: &str = r#"
subroutine greengauss(nc, ne, nn, color_ia, e2n, sij, dv, grad)
  integer, intent(in) :: nc, ne, nn
  integer, intent(in) :: color_ia(nc + 1)
  integer, intent(in) :: e2n(2, ne)
  real, intent(in) :: sij(ne)
  real, intent(in) :: dv(nn)
  real, intent(inout) :: grad(nn)
  integer :: ic, ie, i, j
  real :: dvface
  do ic = 1, nc
    !$omp parallel do private(ie, i, j, dvface) shared(grad, dv, sij, e2n, color_ia)
    do ie = color_ia(ic), color_ia(ic + 1) - 1
      i = e2n(1, ie)
      j = e2n(2, ie)
      if (i .ne. j) then
        dvface = 0.5 * (dv(i) + dv(j))
        grad(i) = grad(i) + dvface * sij(ie)
        grad(j) = grad(j) - dvface * sij(ie)
      end if
    end do
  end do
end subroutine
"#;

#[test]
fn green_gauss_proved_safe() {
    let a = analyze(GREEN_GAUSS, &["dv"], &["grad"]);
    assert_eq!(decision(&a, 0, "dv"), &Decision::Shared);
    assert_eq!(decision(&a, 0, "grad"), &Decision::Shared);
    // Table 1, GreenGauss: 2 unique index expressions.
    assert_eq!(a.regions[0].unique_exprs, 2);
}

/// A racy primal (same location written by all iterations) must trip the
/// buildModel satisfiability safeguard.
#[test]
fn racy_primal_detected() {
    let a = analyze(
        r#"
subroutine racy(n, x, y)
  integer, intent(in) :: n
  real, intent(in) :: x(n)
  real, intent(inout) :: y(n)
  integer :: i
  !$omp parallel do shared(x, y)
  do i = 1, n
    y(1) = x(i)
  end do
end subroutine
"#,
        &["x"],
        &["y"],
    );
    assert!(
        a.regions[0]
            .warnings
            .iter()
            .any(|w| w.contains("data race")),
        "{:?}",
        a.regions[0].warnings
    );
    assert!(matches!(decision(&a, 0, "x"), Decision::Guarded(_)));
}

/// Strided write sets that need the stride root assertions: writes to
/// even offsets, reads at odd — only the parity argument proves it.
#[test]
fn stride_parity_needed() {
    let src = r#"
subroutine parity(n, x, y)
  integer, intent(in) :: n
  real, intent(in) :: x(n)
  real, intent(inout) :: y(n)
  integer :: i
  !$omp parallel do shared(x, y)
  do i = 2, n - 1, 2
    y(i) = y(i) + x(i - 1)
    y(i + 1) = y(i + 1) + x(i)
  end do
end subroutine
"#;
    // With stride constraints: y(i) vs y(i+1) needs i' ≠ i+1 which follows
    // from parity (i, i' both even).
    let a = analyze(src, &["x"], &["y"]);
    assert_eq!(decision(&a, 0, "x"), &Decision::Shared);
    assert_eq!(decision(&a, 0, "y"), &Decision::Shared);

    // Ablation: without stride constraints the write-set knowledge still
    // contains primed(i)≠i+1 etc., so this particular case stays safe;
    // but the adjoint read pair x(i-1)/x(i) maps onto the same shapes.
    let p = parse_program(src).unwrap();
    let mut opts = FormadOptions::new(&["x"], &["y"]);
    opts.region.stride_constraints = false;
    let a2 = Formad::new(opts).analyze(&p).unwrap();
    // Knowledge covers it even without stride info (same shapes).
    assert_eq!(decision(&a2, 0, "y"), &Decision::Shared);
}

/// Mutated index arrays poison the analysis (soundness guard).
#[test]
fn mutated_index_array_guarded() {
    let a = analyze(
        r#"
subroutine mut(n, c, x, y)
  integer, intent(in) :: n
  integer, intent(inout) :: c(n)
  real, intent(in) :: x(n)
  real, intent(inout) :: y(n)
  integer :: i
  !$omp parallel do shared(c, x, y)
  do i = 1, n
    c(i) = i
    y(c(i)) = x(c(i))
  end do
end subroutine
"#,
        &["x"],
        &["y"],
    );
    assert!(matches!(decision(&a, 0, "x"), Decision::Guarded(_)));
}

/// Affine disjointness with no knowledge needed (the "classical
/// parallelizer" capability the paper mentions): y(2i) and y(2i+1).
#[test]
fn affine_disjointness_without_knowledge() {
    let a = analyze(
        r#"
subroutine aff(n, x, y)
  integer, intent(in) :: n
  real, intent(in) :: x(2 * n)
  real, intent(inout) :: y(2 * n)
  integer :: i
  !$omp parallel do shared(x, y)
  do i = 1, n
    y(2 * i) = y(2 * i) + x(2 * i)
    y(2 * i + 1) = y(2 * i + 1) + x(2 * i + 1)
  end do
end subroutine
"#,
        &["x"],
        &["y"],
    );
    assert_eq!(decision(&a, 0, "x"), &Decision::Shared);
    assert_eq!(decision(&a, 0, "y"), &Decision::Shared);
}

/// Context sensitivity: knowledge from inside a guard must not prove a
/// pair whose references only share the root context.
#[test]
fn incomparable_contexts_give_no_knowledge() {
    // Writes to w(c(i)) under pred1, reads of x at c(i) under pred2:
    // the contexts are incomparable, so x's adjoint pair cannot use the
    // disjointness of c(i) — guarded.
    let a = analyze(
        r#"
subroutine ctx(n, c, p, x, y, w)
  integer, intent(in) :: n
  integer, intent(in) :: c(n)
  integer, intent(in) :: p(n)
  real, intent(in) :: x(n)
  real, intent(inout) :: y(n)
  real, intent(inout) :: w(n)
  integer :: i
  !$omp parallel do shared(c, p, x, y, w)
  do i = 1, n
    if (p(i) .gt. 0) then
      w(c(i)) = 1.0
    else
      y(i) = y(i) + x(c(i))
    end if
  end do
end subroutine
"#,
        &["x"],
        &["y"],
    );
    // x is read at c(i) only in the else-branch; knowledge about c(i)
    // disjointness lives in the then-branch context. The xb increments at
    // c(i) must therefore stay guarded.
    assert!(
        matches!(decision(&a, 0, "x"), Decision::Guarded(_)),
        "{:?}",
        decision(&a, 0, "x")
    );

    // Ablation: pretending everything is root-context (use_contexts =
    // false places refs at root) would unsoundly accept — verify the flag
    // actually changes the outcome, demonstrating why contexts matter.
    let p = parse_program(
        r#"
subroutine ctx(n, c, p, x, y, w)
  integer, intent(in) :: n
  integer, intent(in) :: c(n)
  integer, intent(in) :: p(n)
  real, intent(in) :: x(n)
  real, intent(inout) :: y(n)
  real, intent(inout) :: w(n)
  integer :: i
  !$omp parallel do shared(c, p, x, y, w)
  do i = 1, n
    if (p(i) .gt. 0) then
      w(c(i)) = 1.0
    else
      y(i) = y(i) + x(c(i))
    end if
  end do
end subroutine
"#,
    )
    .unwrap();
    let mut opts = FormadOptions::new(&["x"], &["y"]);
    opts.region.use_contexts = false;
    let a2 = Formad::new(opts).analyze(&p).unwrap();
    assert_eq!(
        a2.regions[0].decisions.get("x"),
        Some(&Decision::Shared),
        "context-insensitive ablation should (unsoundly) accept"
    );
}

/// Increment-detection ablation (§5.4): without it, the stencil's
/// increment-only array gets read-then-zero adjoint writes, which are
/// still provable here, but the number of queries grows.
#[test]
fn increment_detection_reduces_queries() {
    let p = parse_program(STENCIL).unwrap();
    let a_with = Formad::new(FormadOptions::new(&["uold"], &["unew"]))
        .analyze(&p)
        .unwrap();
    let mut opts = FormadOptions::new(&["uold"], &["unew"]);
    opts.region.use_increment_detection = false;
    let a_without = Formad::new(opts).analyze(&p).unwrap();
    assert!(
        a_without.total_queries() > a_with.total_queries(),
        "with: {}, without: {}",
        a_with.total_queries(),
        a_without.total_queries()
    );
}

/// The full pipeline produces an adjoint whose pragmas reflect the
/// decisions: no atomics for the stencil, atomics for GFMC*.
#[test]
fn pipeline_applies_decisions() {
    let p = parse_program(STENCIL).unwrap();
    let r = Formad::new(FormadOptions::new(&["uold"], &["unew"]))
        .differentiate(&p)
        .unwrap();
    let text = formad_ir::program_to_string(&r.adjoint);
    assert!(!text.contains("!$omp atomic"), "{text}");

    let p = parse_program(GFMC_FUSED).unwrap();
    let r = Formad::new(FormadOptions::new(&["cr"], &["cl"]))
        .differentiate(&p)
        .unwrap();
    let text = formad_ir::program_to_string(&r.adjoint);
    assert!(text.contains("!$omp atomic"), "{text}");
}

/// A fact that holds by parity alone (`2i' ≠ 2i ± 3`) says nothing about
/// `i'` and `i + 1`: read as `i' ≠ i ± 1` it would prove the scatter
/// `xb(i)`, `xb(i + 1)` conflict-free, which it is not.
#[test]
fn parity_facts_are_not_knowledge() {
    let a = analyze(
        r#"
subroutine par(n, x, y, z)
  integer, intent(in) :: n
  real, intent(in) :: x(n + 1)
  real, intent(inout) :: y(2 * n + 3)
  real, intent(inout) :: z(n)
  integer :: i
  !$omp parallel do shared(x, y, z)
  do i = 2, n
    y(2 * i) = y(2 * i + 3) + y(2 * i - 3)
    z(i) = x(i) + x(i + 1)
  end do
end subroutine
"#,
        &["x"],
        &["z"],
    );
    assert!(
        matches!(decision(&a, 0, "x"), Decision::Transposed(_)),
        "{:?}",
        decision(&a, 0, "x")
    );
    assert_eq!(decision(&a, 0, "z"), &Decision::Shared);
}
