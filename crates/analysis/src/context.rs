//! Control contexts (paper §5.1).
//!
//! A *context* captures the set of control decisions that lead to executing
//! an instruction: two sites share a context when every execution of the
//! body runs both or neither, and context `C₂` is *included* in `C₁` when
//! any iteration executing an instruction of `C₂` necessarily executes the
//! instructions of `C₁`. The body language has no jumps, so a context is
//! the root (the body's top level) or a non-empty `if` arm or loop body
//! ([`crate::body`] numbers them), and inclusion is "is nested in or the
//! same as".
//!
//! Knowledge extraction attaches a fact from a reference pair to the
//! innermost of the two references' contexts when they are comparable (the
//! outermost context guaranteed to execute both); exploitation for an
//! adjoint pair may only use facts attached to contexts that include *both*
//! primal contexts (the "common root" and everything above it).

/// Dense context identifier, numbered in pre-order: a context's parent
/// has a smaller id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CtxId(pub u32);

/// The contexts of a region body.
#[derive(Debug)]
pub struct Contexts {
    /// Context of each site.
    pub ctx_of: Vec<CtxId>,
    /// Number of contexts.
    pub count: usize,
    /// The enclosing context of each; the root is its own.
    parent: Vec<CtxId>,
    /// The body's root context.
    pub root: CtxId,
}

impl Contexts {
    pub(crate) fn new(ctx_of: Vec<CtxId>, parent: Vec<CtxId>) -> Contexts {
        Contexts {
            ctx_of,
            count: parent.len(),
            parent,
            root: CtxId(0),
        }
    }

    /// `c` and the contexts enclosing it, innermost first.
    fn chain(&self, c: CtxId) -> impl Iterator<Item = CtxId> + '_ {
        std::iter::successors(Some(c), |&c| {
            (c != self.root).then(|| self.parent[c.0 as usize])
        })
    }

    /// Is context `a` included in context `b` (`a ⊆ b`)?
    pub fn included(&self, a: CtxId, b: CtxId) -> bool {
        self.chain(a).any(|c| c == b)
    }

    /// Where to attach knowledge from a reference pair with contexts
    /// `(c1, c2)`: the innermost of the two when comparable (the outermost
    /// context that must execute both references), `None` otherwise (no
    /// control certainly executes both — paper §5.1).
    pub fn knowledge_site(&self, c1: CtxId, c2: CtxId) -> Option<CtxId> {
        if self.included(c1, c2) {
            Some(c1)
        } else if self.included(c2, c1) {
            Some(c2)
        } else {
            None
        }
    }

    /// Contexts whose knowledge may be used when testing an adjoint pair
    /// whose primal references live in `(c1, c2)`: every context including
    /// both (the common root and its ancestors), outermost first.
    pub fn usable_for(&self, c1: CtxId, c2: CtxId) -> Vec<CtxId> {
        let mut out: Vec<CtxId> = self.chain(c2).filter(|&c| self.included(c1, c)).collect();
        out.reverse();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze_body;
    use crate::body::tests::sites;
    use crate::body::SiteId;
    use formad_ir::{parse_program, Stmt};

    fn body_of(src: &str) -> Vec<Stmt> {
        parse_program(src).unwrap().body
    }

    /// The sites of `body` (pre-order, with their statements) and its
    /// contexts.
    fn sites_and_ctx(body: &[Stmt]) -> (Vec<(SiteId, &Stmt)>, Contexts) {
        (sites(body), analyze_body(body).0)
    }

    /// Sites of the statements that are neither `if` nor `for`.
    fn simple(sites: &[(SiteId, &Stmt)]) -> Vec<SiteId> {
        sites
            .iter()
            .filter(|(_, s)| !matches!(s, Stmt::If { .. } | Stmt::For(_)))
            .map(|&(n, _)| n)
            .collect()
    }

    #[test]
    fn straight_line_single_context() {
        let body = body_of(
            r#"
subroutine t(a)
  real, intent(inout) :: a
  a = 1.0
  a = 2.0
end subroutine
"#,
        );
        let (_sites, ctx) = sites_and_ctx(&body);
        // Entry, exit, and both statements all share the root context.
        for n in 0..ctx.ctx_of.len() {
            assert_eq!(ctx.ctx_of[n], ctx.root);
        }
        assert_eq!(ctx.count, 1);
    }

    #[test]
    fn if_arms_strictly_included_in_root() {
        let body = body_of(
            r#"
subroutine t(a, i, j)
  real, intent(inout) :: a
  integer, intent(in) :: i, j
  if (i .ne. j) then
    a = 1.0
  else
    a = 2.0
  end if
end subroutine
"#,
        );
        let (sites, ctx) = sites_and_ctx(&body);
        let arms = simple(&sites);
        assert_eq!(arms.len(), 2);
        let (c1, c2) = (ctx.ctx_of[arms[0]], ctx.ctx_of[arms[1]]);
        assert_ne!(c1, ctx.root);
        assert_ne!(c2, ctx.root);
        assert_ne!(c1, c2);
        assert!(ctx.included(c1, ctx.root));
        assert!(ctx.included(c2, ctx.root));
        assert!(!ctx.included(ctx.root, c1));
        // The two arms are incomparable.
        assert!(!ctx.included(c1, c2));
        assert!(!ctx.included(c2, c1));
        // Knowledge from an arm-vs-root pair attaches to the arm.
        assert_eq!(ctx.knowledge_site(c1, ctx.root), Some(c1));
        // Knowledge from the two incomparable arms attaches nowhere.
        assert_eq!(ctx.knowledge_site(c1, c2), None);
        // A query with refs in the two arms may only use root knowledge.
        assert_eq!(ctx.usable_for(c1, c2), vec![ctx.root]);
        // A query within one arm may use that arm's and the root's facts.
        let mut usable = ctx.usable_for(c1, c1);
        usable.sort();
        let mut expect = vec![c1, ctx.root];
        expect.sort();
        assert_eq!(usable, expect);
    }

    #[test]
    fn then_only_if_guard_included() {
        let body = body_of(
            r#"
subroutine t(a, i, j)
  real, intent(inout) :: a
  integer, intent(in) :: i, j
  a = 0.0
  if (i .ne. j) then
    a = 1.0
  end if
end subroutine
"#,
        );
        let (sites, ctx) = sites_and_ctx(&body);
        let stmts = simple(&sites);
        // First statement is root-context, the guarded one is included.
        let outer = ctx.ctx_of[stmts[0]];
        let guarded = ctx.ctx_of[stmts[1]];
        assert_eq!(outer, ctx.root);
        assert_ne!(guarded, ctx.root);
        assert!(ctx.included(guarded, ctx.root));
    }

    #[test]
    fn inner_loop_body_included() {
        let body = body_of(
            r#"
subroutine t(n, u)
  integer, intent(in) :: n
  real, intent(inout) :: u(n)
  integer :: j
  u(1) = 0.0
  do j = 1, n
    u(j) = u(j) + 1.0
  end do
end subroutine
"#,
        );
        let (sites, ctx) = sites_and_ctx(&body);
        let head = sites
            .iter()
            .find(|(_, s)| matches!(s, Stmt::For(_)))
            .unwrap()
            .0;
        let inner = sites
            .iter()
            .find(|(_, s)| s.increment_parts().is_some())
            .unwrap()
            .0;
        assert_eq!(ctx.ctx_of[head], ctx.root);
        let body_ctx = ctx.ctx_of[inner];
        assert_ne!(body_ctx, ctx.root);
        assert!(ctx.included(body_ctx, ctx.root));
        assert!(!ctx.included(ctx.root, body_ctx));
    }

    #[test]
    fn inclusion_is_reflexive_and_transitive() {
        let body = body_of(
            r#"
subroutine t(n, u, i, j)
  integer, intent(in) :: n, i, j
  real, intent(inout) :: u(n)
  if (i .ne. j) then
    if (i .lt. n) then
      u(i) = 1.0
    end if
  end if
end subroutine
"#,
        );
        let (_sites, ctx) = sites_and_ctx(&body);
        for a in 0..ctx.count {
            let a = CtxId(a as u32);
            assert!(ctx.included(a, a));
            for b in 0..ctx.count {
                let b = CtxId(b as u32);
                for c in 0..ctx.count {
                    let c = CtxId(c as u32);
                    if ctx.included(a, b) && ctx.included(b, c) {
                        assert!(ctx.included(a, c));
                    }
                }
            }
        }
        // Nested ifs form a chain of three contexts.
        assert_eq!(ctx.count, 3);
    }
}
