//! Contexts and instances against their definitions.
//!
//! Random structured bodies (nested `if` / `do`, scalar and array
//! assignments, pops) are run symbolically over every bounded execution:
//! each branch outcome is free and each loop, every time it is entered,
//! runs 0, 1 or 2 times. The executions say which sites run together and
//! which definitions reach each site (a loop head is met on entry and after
//! every iteration, like the condition test it stands for). Then:
//!
//! - two sites share a context exactly when every execution runs both or
//!   neither;
//! - context `a` is included in `b` exactly when every execution that runs
//!   a site of `a` also runs a site of `b`;
//! - a scalar has the same instance at two sites exactly when the same
//!   definitions reach them, and instance 0 exactly where only its value
//!   on entry does.
//!
//! Two iterations per loop entry are enough: a shortest definition-clear
//! path passes each loop head at most once, so within one entry it spans
//! at most two iterations.

use std::collections::{BTreeMap, BTreeSet};

use formad_analysis::{analyze_body, SiteId, ENTRY_SITE};
use formad_ir::{BoolExpr, CmpOp, Expr, ForLoop, LValue, Stmt};
use proptest::prelude::*;

/// The scalars bodies assign; `j` and `k` also count loops.
const VARS: [&str; 4] = ["a", "b", "j", "k"];

fn var(k: usize) -> Expr {
    Expr::Var(VARS[k].into())
}

fn stmt() -> BoxedStrategy<Stmt> {
    let leaf = prop_oneof![
        (0..4usize, 0..4usize).prop_map(|(d, u)| Stmt::Assign {
            lhs: LValue::var(VARS[d]),
            rhs: var(u) + Expr::IntLit(1),
        }),
        (0..4usize).prop_map(|u| Stmt::Assign {
            lhs: LValue::index("y", vec![var(u)]),
            rhs: Expr::RealLit(1.0),
        }),
        (0..4usize).prop_map(|d| Stmt::Pop(LValue::var(VARS[d]))),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (
                0..4usize,
                prop::collection::vec(inner.clone(), 0..3),
                prop::collection::vec(inner.clone(), 0..3),
            )
                .prop_map(|(u, then_body, else_body)| Stmt::If {
                    cond: BoolExpr::cmp(CmpOp::Ne, var(u), Expr::Var("n".into())),
                    then_body,
                    else_body,
                }),
            (2..4usize, prop::collection::vec(inner, 0..3)).prop_map(|(c, body)| {
                Stmt::For(Box::new(ForLoop {
                    var: VARS[c].into(),
                    lo: Expr::IntLit(1),
                    hi: Expr::Var("n".into()),
                    step: Expr::IntLit(1),
                    body,
                    parallel: None,
                }))
            }),
        ]
    })
}

/// Sites `s` occupies: itself, an `if`'s join, and those of its bodies.
fn size(s: &Stmt) -> usize {
    match s {
        Stmt::If {
            then_body,
            else_body,
            ..
        } => 2 + seq_size(then_body) + seq_size(else_body),
        Stmt::For(l) => 1 + seq_size(&l.body),
        _ => 1,
    }
}

fn seq_size(body: &[Stmt]) -> usize {
    body.iter().map(size).sum()
}

/// An execution prefix: the sites it ran (a bit each) and the last
/// definition of each of [`VARS`].
type State = (u64, [SiteId; 4]);

/// What the executions showed: the definitions of each var reaching each
/// site.
#[derive(Default)]
struct Oracle {
    reach: BTreeMap<(SiteId, usize), BTreeSet<SiteId>>,
}

impl Oracle {
    /// Meet `site` in every state.
    fn visit(&mut self, site: SiteId, states: BTreeSet<State>) -> BTreeSet<State> {
        states
            .into_iter()
            .map(|(ran, last)| {
                for (v, &d) in last.iter().enumerate() {
                    self.reach.entry((site, v)).or_default().insert(d);
                }
                (ran | 1 << site, last)
            })
            .collect()
    }

    fn seq(
        &mut self,
        body: &[Stmt],
        mut site: SiteId,
        mut states: BTreeSet<State>,
    ) -> BTreeSet<State> {
        for s in body {
            states = self.stmt(s, site, states);
            site += size(s);
        }
        states
    }

    fn stmt(&mut self, s: &Stmt, site: SiteId, states: BTreeSet<State>) -> BTreeSet<State> {
        let states = self.visit(site, states);
        let define = |states: BTreeSet<State>, name: &str| -> BTreeSet<State> {
            let v = VARS.iter().position(|&x| x == name).unwrap();
            states
                .into_iter()
                .map(|(ran, mut last)| {
                    last[v] = site;
                    (ran, last)
                })
                .collect()
        };
        match s {
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                let arms = site + 2;
                let mut out = self.seq(then_body, arms, states.clone());
                out.extend(self.seq(else_body, arms + seq_size(then_body), states));
                self.visit(site + 1, out)
            }
            Stmt::For(l) => {
                let mut at = define(states, &l.var);
                let mut out = at.clone();
                for _ in 0..2 {
                    at = self.seq(&l.body, site + 1, at);
                    at = define(self.visit(site, at), &l.var);
                    out.extend(at.iter().cloned());
                }
                out
            }
            Stmt::Assign {
                lhs: LValue::Var(v),
                ..
            }
            | Stmt::Pop(LValue::Var(v)) => define(states, v),
            _ => states,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn contexts_and_instances_match_bounded_executions(
        body in prop::collection::vec(stmt(), 1..4),
    ) {
        let sites = 2 + seq_size(&body);
        prop_assume!(sites <= 64);
        let (ctx, inst, _) = analyze_body(&body);
        prop_assert_eq!(ctx.ctx_of.len(), sites);

        let mut oracle = Oracle::default();
        let start = BTreeSet::from([(0u64, [ENTRY_SITE; 4])]);
        let start = oracle.visit(ENTRY_SITE, start);
        let end = oracle.seq(&body, 2, start);
        let runs: Vec<u64> = oracle.visit(1, end).into_iter().map(|(ran, _)| ran).collect();

        let ran = |s: SiteId| runs.iter().map(move |&r| r >> s & 1 == 1);
        for a in 0..sites {
            for b in 0..sites {
                let (ca, cb) = (ctx.ctx_of[a], ctx.ctx_of[b]);
                let together = ran(a).zip(ran(b)).all(|(x, y)| x == y);
                prop_assert_eq!(ca == cb, together, "sites {} {} in {:?}", a, b, body);
                let implies = ran(a).zip(ran(b)).all(|(x, y)| !x || y);
                prop_assert_eq!(ctx.included(ca, cb), implies, "sites {} {} in {:?}", a, b, body);
            }
        }

        for (v, name) in VARS.iter().enumerate() {
            for a in 0..sites {
                let reach_a = &oracle.reach[&(a, v)];
                prop_assert_eq!(
                    inst.instance(a, name) == 0,
                    *reach_a == BTreeSet::from([ENTRY_SITE]),
                    "{} at site {} in {:?}", name, a, body
                );
                for b in 0..sites {
                    prop_assert_eq!(
                        inst.instance(a, name) == inst.instance(b, name),
                        *reach_a == oracle.reach[&(b, v)],
                        "{} at sites {} {} in {:?}", name, a, b, body
                    );
                }
            }
        }
    }
}
