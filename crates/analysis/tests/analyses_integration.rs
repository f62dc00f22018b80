//! Cross-analysis integration: contexts, instances, activity, and
//! reference collection working together on realistic loop bodies.

use formad_analysis::{analyze_body, AccessKind, Activity, SiteId};
use formad_ir::parse_program;

#[test]
fn green_gauss_shape_contexts_and_instances() {
    let p = parse_program(
        r#"
subroutine gg(ne, nn, e2n, sij, dv, grad)
  integer, intent(in) :: ne, nn
  integer, intent(in) :: e2n(2, ne)
  real, intent(in) :: sij(ne)
  real, intent(in) :: dv(nn)
  real, intent(inout) :: grad(nn)
  integer :: ie, i, j
  real :: dvface
  !$omp parallel do private(i, j, dvface) shared(grad, dv, sij, e2n)
  do ie = 1, ne
    i = e2n(1, ie)
    j = e2n(2, ie)
    if (i .ne. j) then
      dvface = 0.5 * (dv(i) + dv(j))
      grad(i) = grad(i) + dvface * sij(ie)
      grad(j) = grad(j) - dvface * sij(ie)
    end if
  end do
end subroutine
"#,
    )
    .unwrap();
    let l = &p.parallel_loops()[0];
    let (ctx, inst, refs) = analyze_body(&l.body);

    // The gathers are root-context; the guarded updates live in a child.
    // Each gather is the only reader of `e2n` at its site.
    let gather_nodes: Vec<SiteId> = refs
        .iter()
        .filter(|r| r.array == "e2n")
        .map(|r| r.site)
        .collect();
    assert_eq!(gather_nodes.len(), 2);
    for &g in &gather_nodes {
        assert_eq!(ctx.ctx_of[g], ctx.root);
    }
    let grad_write = refs
        .iter()
        .find(|r| r.array == "grad" && r.kind == AccessKind::Write)
        .unwrap();
    let guard_ctx = ctx.ctx_of[grad_write.site];
    assert_ne!(guard_ctx, ctx.root);
    assert!(ctx.included(guard_ctx, ctx.root));

    // The uses of i inside the guard see the instance defined by the
    // gather, not the entry instance.
    assert_ne!(inst.instance(grad_write.site, "i"), 0);
    // dv and sij are read-only; grad has both reads and writes.
    assert!(refs
        .iter()
        .all(|r| r.array != "dv" || r.kind == AccessKind::Read));
    assert!(refs
        .iter()
        .any(|r| r.array == "grad" && r.kind == AccessKind::Write));

    // Activity: dv → grad flows; sij inactive as an independent… rather:
    // differentiate grad w.r.t. dv makes both active, sij varied? sij is
    // an input read in a product: varied(sij)=false (not independent).
    let act = Activity::analyze(&p, &["dv".into()], &["grad".into()]);
    assert!(act.is_active("dv"));
    assert!(act.is_active("grad"));
    assert!(act.is_active("dvface"));
    assert!(!act.is_active("sij"));
}

#[test]
fn usable_knowledge_respects_branch_structure() {
    let p = parse_program(
        r#"
subroutine t(n, a, b, u, v, w)
  integer, intent(in) :: n
  integer, intent(in) :: a(n), b(n)
  real, intent(inout) :: u(n), v(n), w(n)
  integer :: i
  !$omp parallel do shared(a, b, u, v, w)
  do i = 1, n
    if (a(i) .gt. 0) then
      u(i) = 1.0
      if (b(i) .gt. 0) then
        v(i) = 2.0
      end if
    else
      w(i) = 3.0
    end if
  end do
end subroutine
"#,
    )
    .unwrap();
    let l = &p.parallel_loops()[0];
    let (ctx, _, refs) = analyze_body(&l.body);
    // The site of the assignment to `name(i)`, its only write.
    let node_of = |name: &str| -> SiteId {
        refs.iter()
            .find(|r| r.array == name && r.kind == AccessKind::Write)
            .unwrap()
            .site
    };
    let cu = ctx.ctx_of[node_of("u")];
    let cv = ctx.ctx_of[node_of("v")];
    let cw = ctx.ctx_of[node_of("w")];
    // Chain: v ⊂ u ⊂ root; w ⊂ root; u and w incomparable.
    assert!(ctx.included(cv, cu));
    assert!(ctx.included(cu, ctx.root));
    assert!(ctx.included(cw, ctx.root));
    assert!(!ctx.included(cu, cw) && !ctx.included(cw, cu));
    // Knowledge from (v-site, v-site) lands at cv; it is usable for a
    // (cv, cv) query but not for a (cw, cw) one.
    assert!(ctx.usable_for(cv, cv).contains(&cv));
    assert!(!ctx.usable_for(cw, cw).contains(&cv));
    // The common root of (cu, cw) queries is exactly the root.
    let common = ctx.usable_for(cu, cw);
    assert_eq!(common, vec![ctx.root]);
    // Knowledge placement follows the innermost-of-comparable rule.
    assert_eq!(ctx.knowledge_site(cv, cu), Some(cv));
    assert_eq!(ctx.knowledge_site(cu, cw), None);
}

#[test]
fn instances_distinguish_gather_rebinding() {
    let p = parse_program(
        r#"
subroutine t(n, c, u)
  integer, intent(in) :: n
  integer, intent(in) :: c(n)
  real, intent(inout) :: u(n + 1)
  integer :: i, k
  !$omp parallel do shared(c, u) private(k)
  do i = 1, n
    k = c(i)
    u(k) = 1.0
    k = k + 1
    u(k) = 2.0
  end do
end subroutine
"#,
    )
    .unwrap();
    let l = &p.parallel_loops()[0];
    let (_, inst, refs) = analyze_body(&l.body);
    let u_writes: Vec<_> = refs
        .iter()
        .filter(|r| r.array == "u" && r.kind == AccessKind::Write)
        .collect();
    assert_eq!(u_writes.len(), 2);
    // The two writes use k at *different* instances — the analysis must
    // not conflate u(k) before and after the k rebinding.
    let i1 = inst.instance(u_writes[0].site, "k");
    let i2 = inst.instance(u_writes[1].site, "k");
    assert_ne!(i1, i2);
}

#[test]
fn activity_through_multiple_hops_and_dead_ends() {
    let p = parse_program(
        r#"
subroutine hops(n, x, t1, t2, dead, y)
  integer, intent(in) :: n
  real, intent(in) :: x(n)
  real, intent(inout) :: t1(n), t2(n), dead(n)
  real, intent(inout) :: y(n)
  integer :: i
  do i = 1, n
    t1(i) = 2.0 * x(i)
    t2(i) = t1(i) + 1.0
    dead(i) = t2(i) * 3.0
    y(i) = t2(i) * t2(i)
  end do
end subroutine
"#,
    )
    .unwrap();
    let act = Activity::analyze(&p, &["x".into()], &["y".into()]);
    for v in ["x", "t1", "t2", "y"] {
        assert!(act.is_active(v), "{v} should be active");
    }
    // dead is varied but not useful.
    assert!(act.varied.contains("dead"));
    assert!(!act.useful.contains("dead"));
    assert!(!act.is_active("dead"));
}
