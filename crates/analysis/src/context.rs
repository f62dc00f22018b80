//! Control contexts (paper §5.1).
//!
//! A *context* captures the set of control decisions that lead to executing
//! an instruction. Two CFG nodes share a context when they are *control
//! equivalent* (`a dom b ∧ b pdom a`, in either orientation); context `C₂`
//! is *included* in `C₁` when any iteration executing an instruction of
//! `C₂` necessarily executes the instructions of `C₁` — derived here from
//! the dominator / post-dominator trees exactly as the paper describes.
//!
//! Knowledge extraction attaches a fact from a reference pair to the
//! innermost of the two references' contexts when they are comparable (the
//! outermost context guaranteed to execute both); exploitation for an
//! adjoint pair may only use facts attached to contexts that include *both*
//! primal contexts (the "common root" and everything above it).

use crate::cfg::{Cfg, NodeId, ENTRY};
use crate::dom::{dominators, post_dominators, DomTree};

/// Dense context identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CtxId(pub u32);

/// The context partition of a CFG.
#[derive(Debug)]
pub struct Contexts {
    /// Context of each CFG node.
    pub ctx_of: Vec<CtxId>,
    /// Number of contexts.
    pub count: usize,
    /// `incl[a][b]` ⇔ context `a` is included in context `b`
    /// (`a ⊆ b`: executing `a` implies executing `b`).
    incl: Vec<Vec<bool>>,
    /// Context of the entry node (the body's root context).
    pub root: CtxId,
}

impl Contexts {
    /// Compute the context partition of `cfg`.
    pub fn build(cfg: &Cfg<'_>) -> Contexts {
        let dom = dominators(cfg);
        let pdom = post_dominators(cfg);
        Contexts::from_trees(cfg, &dom, &pdom)
    }

    /// Compute contexts from precomputed trees (lets callers reuse them).
    pub fn from_trees(cfg: &Cfg<'_>, dom: &DomTree, pdom: &DomTree) -> Contexts {
        let n = cfg.len();
        // Control equivalence: a ~ b ⇔ (a dom b ∧ b pdom a) ∨ symmetric.
        let equiv = |a: NodeId, b: NodeId| -> bool {
            (dom.dominates(a, b) && pdom.dominates(b, a))
                || (dom.dominates(b, a) && pdom.dominates(a, b))
        };
        // Union-find to close the relation into a partition.
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for a in 0..n {
            for b in (a + 1)..n {
                if equiv(a, b) {
                    let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
                    if ra != rb {
                        parent[ra] = rb;
                    }
                }
            }
        }
        // Dense context ids.
        let mut ids: Vec<Option<CtxId>> = vec![None; n];
        let mut members: Vec<Vec<NodeId>> = Vec::new();
        let mut ctx_of = vec![CtxId(0); n];
        for (node, slot) in ctx_of.iter_mut().enumerate() {
            let rep = find(&mut parent, node);
            let id = match ids[rep] {
                Some(id) => id,
                None => {
                    let id = CtxId(members.len() as u32);
                    ids[rep] = Some(id);
                    members.push(Vec::new());
                    id
                }
            };
            *slot = id;
            members[id.0 as usize].push(node);
        }
        let count = members.len();

        // Node-level inclusion: executing `a` implies executing `b` when
        // `b` dominates or post-dominates `a`. Lift to contexts with a
        // universal check over members — conservative (may miss inclusions
        // on irreducible graphs) and therefore sound.
        let node_incl =
            |a: NodeId, b: NodeId| -> bool { dom.dominates(b, a) || pdom.dominates(b, a) };
        let mut incl = vec![vec![false; count]; count];
        for (ca, ma) in members.iter().enumerate() {
            for (cb, mb) in members.iter().enumerate() {
                incl[ca][cb] = ma.iter().all(|&a| mb.iter().all(|&b| node_incl(a, b)));
            }
        }
        let root = ctx_of[ENTRY];
        Contexts {
            ctx_of,
            count,
            incl,
            root,
        }
    }

    /// Is context `a` included in context `b` (`a ⊆ b`)?
    pub fn included(&self, a: CtxId, b: CtxId) -> bool {
        self.incl[a.0 as usize][b.0 as usize]
    }

    /// Where to attach knowledge from a reference pair with contexts
    /// `(c1, c2)`: the innermost of the two when comparable (the outermost
    /// context that must execute both references), `None` otherwise (no
    /// control certainly executes both — paper §5.1).
    pub fn knowledge_site(&self, c1: CtxId, c2: CtxId) -> Option<CtxId> {
        if c1 == c2 || self.included(c1, c2) {
            Some(c1)
        } else if self.included(c2, c1) {
            Some(c2)
        } else {
            None
        }
    }

    /// Contexts whose knowledge may be used when testing an adjoint pair
    /// whose primal references live in `(c1, c2)`: every context including
    /// both (the common root and its ancestors).
    pub fn usable_for(&self, c1: CtxId, c2: CtxId) -> Vec<CtxId> {
        (0..self.count)
            .map(|k| CtxId(k as u32))
            .filter(|&c| self.included(c1, c) && self.included(c2, c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::NodeKind;
    use formad_ir::{parse_program, Stmt};

    fn body_of(src: &str) -> Vec<Stmt> {
        parse_program(src).unwrap().body
    }

    fn cfg_and_ctx(body: &[Stmt]) -> (Cfg<'_>, Contexts) {
        let cfg = Cfg::build(body);
        let ctx = Contexts::build(&cfg);
        (cfg, ctx)
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
        let (cfg, ctx) = cfg_and_ctx(&body);
        // Entry, exit, and both statements all share the root context.
        for n in 0..cfg.len() {
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
        let (cfg, ctx) = cfg_and_ctx(&body);
        let arms: Vec<_> = (0..cfg.len())
            .filter(|&n| matches!(cfg.nodes[n], NodeKind::Simple(_)))
            .collect();
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
        let (cfg, ctx) = cfg_and_ctx(&body);
        let stmts: Vec<_> = (0..cfg.len())
            .filter(|&n| matches!(cfg.nodes[n], NodeKind::Simple(_)))
            .collect();
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
        let (cfg, ctx) = cfg_and_ctx(&body);
        let head = (0..cfg.len())
            .find(|&n| matches!(cfg.nodes[n], NodeKind::LoopHead(_)))
            .unwrap();
        let inner = (0..cfg.len())
            .find(|&n| matches!(cfg.nodes[n], NodeKind::Simple(s) if s.increment_parts().is_some()))
            .unwrap();
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
        let (_cfg, ctx) = cfg_and_ctx(&body);
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
