//! One structural walk over a region body (paper §5.1, §5.2).
//!
//! A body is a tree of `Assign`, `If`, `For`, `Push`, `Pop` and
//! `AtomicAdd` with no jumps, so control equivalence is nesting and
//! reaching definitions follow the tree. The walk
//!
//! - numbers the *sites*, pre-order: the region entry is site 0 and its
//!   exit site 1; every statement is one site (an `if` site evaluates the
//!   condition, a `for` site is the loop head that evaluates the bounds
//!   and defines the counter), and an `if`'s join is the site numbered
//!   right after it, before its arms;
//! - gives each site its [context](crate::context): a non-empty `if` arm
//!   or loop body opens a context whose parent is the enclosing one;
//! - computes the scalar definitions reaching each site: a sequence flows
//!   straight through, an `if` joins its two arms at the join site, and a
//!   loop head joins the flow from before the loop with its body's end
//!   until nothing grows;
//! - collects the [array references](crate::refs) of each site.

use std::collections::BTreeSet;
use std::rc::Rc;

use formad_ir::{LValue, Name, Stmt};

use crate::context::{Contexts, CtxId};
use crate::instance::{Env, Instances};
use crate::refs::{collect_site, ArrayRef};

/// Dense site identifier, in pre-order.
pub type SiteId = usize;

/// The region entry: instance 0 of every scalar is its value here.
pub const ENTRY_SITE: SiteId = 0;

/// Contexts, instances and array references of a region body.
pub fn analyze_body(body: &[Stmt]) -> (Contexts, Instances, Vec<ArrayRef>) {
    let mut vars = BTreeSet::new();
    for s in body {
        s.walk(&mut |st| vars.extend(defined(st).cloned()));
    }
    let vars: Vec<Name> = vars.into_iter().collect();
    let on_entry = Rc::new(BTreeSet::from([ENTRY_SITE]));
    let entry: Env = vec![on_entry; vars.len()];
    let mut w = Walk {
        vars: &vars,
        next: 2,
        ctx_of: vec![CtxId(0); 2],
        ins: vec![entry.clone(), Vec::new()],
        parent: vec![CtxId(0)],
        refs: Vec::new(),
    };
    w.ins[1] = w.seq(body, CtxId(0), entry);
    let instances = Instances::intern(&vars, &w.ins);
    (Contexts::new(w.ctx_of, w.parent), instances, w.refs)
}

/// The scalar a statement defines at its site: an assigned or popped
/// variable, or a loop's counter.
fn defined(s: &Stmt) -> Option<&Name> {
    match s {
        Stmt::Assign {
            lhs: LValue::Var(v),
            ..
        }
        | Stmt::AtomicAdd {
            lhs: LValue::Var(v),
            ..
        }
        | Stmt::Pop(LValue::Var(v)) => Some(v),
        Stmt::For(l) => Some(&l.var),
        _ => None,
    }
}

/// Pointwise union of two environments, sharing a set where one side
/// already holds the other.
fn union(a: &Env, b: &Env) -> Env {
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            if Rc::ptr_eq(x, y) || y.is_subset(x) {
                x.clone()
            } else if x.is_subset(y) {
                y.clone()
            } else {
                Rc::new(&**x | &**y)
            }
        })
        .collect()
}

struct Walk<'v> {
    /// The scalars the body defines, sorted; an [`Env`] is indexed alike.
    vars: &'v [Name],
    /// The site the walk numbers next. A loop body is walked again until
    /// its head's definitions settle; its sites keep their numbers.
    next: SiteId,
    /// Context of each site numbered so far.
    ctx_of: Vec<CtxId>,
    /// Definitions reaching each site.
    ins: Vec<Env>,
    /// Parent of each context; the root is its own.
    parent: Vec<CtxId>,
    refs: Vec<ArrayRef>,
}

impl Walk<'_> {
    /// Number the next site, in `ctx`; true the first time it is walked.
    fn site(&mut self, ctx: CtxId) -> (SiteId, bool) {
        let id = self.next;
        self.next += 1;
        let first = id == self.ctx_of.len();
        if first {
            self.ctx_of.push(ctx);
            self.ins.push(Vec::new());
        }
        (id, first)
    }

    fn seq(&mut self, body: &[Stmt], ctx: CtxId, env: Env) -> Env {
        body.iter().fold(env, |env, s| self.stmt(s, ctx, env))
    }

    /// An `if` arm or loop body, in its own context under `ctx`.
    fn nested(&mut self, body: &[Stmt], ctx: CtxId, env: Env) -> Env {
        if body.is_empty() {
            return env;
        }
        let inner = match self.ctx_of.get(self.next) {
            Some(&c) => c,
            None => {
                self.parent.push(ctx);
                CtxId(self.parent.len() as u32 - 1)
            }
        };
        self.seq(body, inner, env)
    }

    fn stmt(&mut self, s: &Stmt, ctx: CtxId, mut env: Env) -> Env {
        let (id, first) = self.site(ctx);
        if first {
            collect_site(s, id, &mut self.refs);
        }
        let var = defined(s).map(|v| self.vars.binary_search(v).expect("collected"));
        match s {
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                let (join, _) = self.site(ctx);
                self.ins[id] = env.clone();
                let then_out = self.nested(then_body, ctx, env.clone());
                let else_out = self.nested(else_body, ctx, env);
                self.ins[join] = union(&then_out, &else_out);
                self.ins[join].clone()
            }
            Stmt::For(l) => {
                let k = var.expect("a loop defines its counter");
                let mut head = if first {
                    env
                } else {
                    union(&self.ins[id], &env)
                };
                loop {
                    let mut out = head.clone();
                    out[k] = Rc::new(BTreeSet::from([id]));
                    self.next = id + 1;
                    let back = self.nested(&l.body, ctx, out.clone());
                    let grown = union(&head, &back);
                    if grown == head {
                        self.ins[id] = head;
                        return out;
                    }
                    head = grown;
                }
            }
            _ => {
                self.ins[id] = env.clone();
                if let Some(k) = var {
                    env[k] = Rc::new(BTreeSet::from([id]));
                }
                env
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use formad_ir::parse_program;

    /// Every statement of `body` with its site, in site order.
    pub(crate) fn sites(body: &[Stmt]) -> Vec<(SiteId, &Stmt)> {
        fn go<'a>(body: &'a [Stmt], next: &mut SiteId, out: &mut Vec<(SiteId, &'a Stmt)>) {
            for s in body {
                out.push((*next, s));
                *next += 1;
                match s {
                    Stmt::If {
                        then_body,
                        else_body,
                        ..
                    } => {
                        *next += 1; // the join
                        go(then_body, next, out);
                        go(else_body, next, out);
                    }
                    Stmt::For(l) => go(&l.body, next, out),
                    _ => {}
                }
            }
        }
        let mut out = Vec::new();
        go(body, &mut 2, &mut out);
        out
    }

    #[test]
    fn sites_are_numbered_pre_order_with_joins_before_arms() {
        let body = parse_program(
            r#"
subroutine t(n, u, i, j)
  integer, intent(in) :: n, i, j
  real, intent(inout) :: u(n)
  integer :: k
  u(1) = 0.0
  if (i .ne. j) then
    u(2) = 1.0
  else
    u(3) = 2.0
  end if
  do k = 1, n
    u(k) = 3.0
  end do
end subroutine
"#,
        )
        .unwrap()
        .body;
        let (ctx, _, refs) = analyze_body(&body);
        // entry, exit, u(1), if, join, u(2), u(3), do, u(k).
        assert_eq!(ctx.ctx_of.len(), 9);
        let at: Vec<SiteId> = refs.iter().map(|r| r.site).collect();
        assert_eq!(at, vec![2, 5, 6, 8]);
        assert_eq!(
            sites(&body).iter().map(|&(n, _)| n).collect::<Vec<_>>(),
            vec![2, 3, 5, 6, 7, 8]
        );
        // Root, then-arm, else-arm, loop body, numbered as first met.
        let ids: Vec<u32> = ctx.ctx_of.iter().map(|c| c.0).collect();
        assert_eq!(ids, vec![0, 0, 0, 0, 0, 1, 2, 0, 3]);
    }

    #[test]
    fn deep_loop_nests_settle_without_blowing_up() {
        // Each level redefines a scalar the level above reads: a walk that
        // re-walked every body from scratch per outer pass would take
        // 2^depth passes of the innermost one.
        let depth = 64;
        let mut src = String::from("subroutine t(n, w)\n  integer, intent(in) :: n\n");
        src += "  integer :: w";
        for d in 0..depth {
            src += &format!(", k{d}");
        }
        src += "\n";
        for d in 0..depth {
            src += &format!("  do k{d} = 1, n\n    w = w + k{d}\n");
        }
        for _ in 0..depth {
            src += "  end do\n";
        }
        src += "end subroutine\n";
        let body = parse_program(&src).unwrap().body;
        let (ctx, inst, _) = analyze_body(&body);
        assert_eq!(ctx.count, depth + 1);
        assert!(inst.instance_count("w") > 2);
    }
}
