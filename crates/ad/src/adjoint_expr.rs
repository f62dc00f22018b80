//! Chain-rule walker: adjoint statements for a single assignment.
//!
//! Implements the per-instruction reverse-mode rule of paper §4.1,
//!
//! ```text
//! z = x Op y      ⇒      x̄ += z̄ · ∂Op/∂x
//!                        ȳ += z̄ · ∂Op/∂y
//!                        z̄  = 0
//! ```
//!
//! generalized to arbitrary expression trees: the walker descends through
//! the right-hand side carrying the symbolic *seed* (the adjoint value
//! flowing into the subtree) and emits one increment statement per active
//! leaf reference. Non-smooth intrinsics (`abs`/`min`/`max`) emit guarded
//! `if` statements selecting the active branch. Occurrences of the
//! assignment's own left-hand side are collected separately so the caller
//! can implement the `z̄ = Σ self-seeds` (or `z̄ = 0`, or — for exact
//! increments — no statement at all, paper §5.4) rule.

use std::sync::Arc;

use formad_ir::{BinOp, BoolExpr, CmpOp, Expr, Intrinsic, LValue, Name, Stmt, UnOp};

/// Result of differentiating one right-hand side.
#[derive(Debug, Default)]
pub struct ExprAdjoint {
    /// Increment statements `r̄ += seed` for every active non-self read.
    pub increments: Vec<Stmt>,
    /// Seeds flowing into occurrences of the lhs itself (`z̄·∂e/∂z` terms).
    pub self_seeds: Vec<Arc<Expr>>,
}

/// Environment for the walker.
pub struct AdjCtx<'a> {
    /// Adjoint name of a primal variable (`u` → `ub`) if it is active (has
    /// an adjoint), `None` otherwise.
    pub adjoint_of: &'a dyn Fn(&str) -> Option<Name>,
}

/// Differentiate `lhs = rhs`, producing adjoint increments with the given
/// seed (normally the adjoint of `lhs`).
pub fn adjoint_of_assign(lhs: &LValue, rhs: &Expr, seed: &Expr, ctx: &AdjCtx<'_>) -> ExprAdjoint {
    let mut out = ExprAdjoint::default();
    let lhs_expr = lhs.as_expr();
    walk(
        rhs,
        Arc::new(seed.clone()),
        &lhs_expr,
        ctx,
        &mut out.increments,
        &mut out.self_seeds,
    );
    out
}

fn is_self(e: &Expr, lhs: &Expr) -> bool {
    e == lhs
}

/// `func(arg)` for a one-argument intrinsic.
fn call1(func: Intrinsic, arg: &Expr) -> Expr {
    Expr::call(func, [arg.clone()])
}

/// The seed is shared: every partial derivative built from it holds the
/// same tree, not a copy.
fn walk(
    e: &Expr,
    seed: Arc<Expr>,
    lhs: &Expr,
    ctx: &AdjCtx<'_>,
    out: &mut Vec<Stmt>,
    self_seeds: &mut Vec<Arc<Expr>>,
) {
    use BinOp::{Div, Mul, Pow};
    if is_self(e, lhs) {
        self_seeds.push(seed);
        return;
    }
    let neg = |seed: Arc<Expr>| {
        Arc::new(Expr::Unary {
            op: UnOp::Neg,
            arg: seed,
        })
    };
    match e {
        Expr::IntLit(_) | Expr::RealLit(_) => {}
        Expr::Var(name) => {
            if let Some(b) = (ctx.adjoint_of)(name) {
                out.push(Stmt::increment(LValue::Var(b), seed));
            }
        }
        Expr::Index { array, indices } => {
            if let Some(b) = (ctx.adjoint_of)(array) {
                out.push(Stmt::increment(LValue::index(b, indices.clone()), seed));
            }
        }
        Expr::Unary { op: UnOp::Neg, arg } => {
            walk(arg, neg(seed), lhs, ctx, out, self_seeds);
        }
        Expr::Binary { op, lhs: a, rhs: b } => match op {
            BinOp::Add => {
                walk(a, seed.clone(), lhs, ctx, out, self_seeds);
                walk(b, seed, lhs, ctx, out, self_seeds);
            }
            BinOp::Sub => {
                walk(a, seed.clone(), lhs, ctx, out, self_seeds);
                walk(b, neg(seed), lhs, ctx, out, self_seeds);
            }
            BinOp::Mul => {
                let da = Expr::binary(Mul, seed.clone(), b.clone());
                walk(a, da.into(), lhs, ctx, out, self_seeds);
                let db = Expr::binary(Mul, seed, a.clone());
                walk(b, db.into(), lhs, ctx, out, self_seeds);
            }
            BinOp::Div => {
                // d(a/b) = da/b − a·db/b².
                let da = Expr::binary(Div, seed.clone(), b.clone());
                walk(a, da.into(), lhs, ctx, out, self_seeds);
                let b_sq = Expr::binary(Mul, b.clone(), b.clone());
                let db = Expr::binary(Div, Expr::binary(Mul, seed, a.clone()).neg(), b_sq);
                walk(b, db.into(), lhs, ctx, out, self_seeds);
            }
            BinOp::Pow => {
                // d(a**k) = k·a**(k−1)·da; exponent treated as constant
                // w.r.t. the base (integer exponents in practice). If the
                // exponent is itself active, d/dk = a**k·log(a)·dk.
                let k = b;
                let k_minus_1 = Expr::binary(BinOp::Sub, k.clone(), Expr::IntLit(1));
                let da = Expr::binary(Mul, seed.clone(), k.clone())
                    * Expr::binary(Pow, a.clone(), k_minus_1);
                walk(a, da.into(), lhs, ctx, out, self_seeds);
                if expr_may_be_active(b, ctx) {
                    let dk = Expr::binary(Mul, seed, Expr::binary(Pow, a.clone(), k.clone()))
                        * call1(Intrinsic::Log, a);
                    walk(b, dk.into(), lhs, ctx, out, self_seeds);
                }
            }
            BinOp::Mod => {
                // Integer-only operation: no derivative flows.
            }
        },
        Expr::Call { func, args } => match func {
            Intrinsic::Sin => {
                let d = Expr::binary(Mul, seed, call1(Intrinsic::Cos, &args[0]));
                walk(&args[0], d.into(), lhs, ctx, out, self_seeds);
            }
            Intrinsic::Cos => {
                let d = Expr::binary(Mul, seed, call1(Intrinsic::Sin, &args[0])).neg();
                walk(&args[0], d.into(), lhs, ctx, out, self_seeds);
            }
            Intrinsic::Exp => {
                let d = Expr::binary(Mul, seed, call1(Intrinsic::Exp, &args[0]));
                walk(&args[0], d.into(), lhs, ctx, out, self_seeds);
            }
            Intrinsic::Log => {
                let d = Expr::binary(Div, seed, args[0].clone());
                walk(&args[0], d.into(), lhs, ctx, out, self_seeds);
            }
            Intrinsic::Sqrt => {
                let d = Expr::binary(
                    Div,
                    seed,
                    Expr::RealLit(2.0) * call1(Intrinsic::Sqrt, &args[0]),
                );
                walk(&args[0], d.into(), lhs, ctx, out, self_seeds);
            }
            Intrinsic::Tanh => {
                let t: Arc<Expr> = call1(Intrinsic::Tanh, &args[0]).into();
                let d = Expr::binary(
                    Mul,
                    seed,
                    Expr::RealLit(1.0) - Expr::binary(Mul, t.clone(), t),
                );
                walk(&args[0], d.into(), lhs, ctx, out, self_seeds);
            }
            Intrinsic::Abs => {
                // Guarded subgradient: sign(x)·seed, with sign(0) = +1.
                let mut then_out = Vec::new();
                let mut else_out = Vec::new();
                let mut then_selfs = Vec::new();
                let mut else_selfs = Vec::new();
                walk(
                    &args[0],
                    seed.clone(),
                    lhs,
                    ctx,
                    &mut then_out,
                    &mut then_selfs,
                );
                walk(
                    &args[0],
                    neg(seed),
                    lhs,
                    ctx,
                    &mut else_out,
                    &mut else_selfs,
                );
                emit_guarded(
                    BoolExpr::cmp(CmpOp::Ge, args[0].clone(), Expr::RealLit(0.0)),
                    then_out,
                    else_out,
                    then_selfs,
                    else_selfs,
                    out,
                );
            }
            Intrinsic::Min | Intrinsic::Max => {
                let cmp = if *func == Intrinsic::Min {
                    CmpOp::Le
                } else {
                    CmpOp::Ge
                };
                let mut then_out = Vec::new();
                let mut else_out = Vec::new();
                let mut then_selfs = Vec::new();
                let mut else_selfs = Vec::new();
                walk(
                    &args[0],
                    seed.clone(),
                    lhs,
                    ctx,
                    &mut then_out,
                    &mut then_selfs,
                );
                walk(&args[1], seed, lhs, ctx, &mut else_out, &mut else_selfs);
                emit_guarded(
                    BoolExpr::cmp(cmp, args[0].clone(), args[1].clone()),
                    then_out,
                    else_out,
                    then_selfs,
                    else_selfs,
                    out,
                );
            }
        },
    }
}

/// Emit a guarded `if` for non-smooth branches. Self-seed collection cannot
/// be made control-dependent with the caller's flat `z̄ = Σ seeds` rule, so
/// rhs expressions where the lhs occurs *under* a non-smooth intrinsic are
/// rejected (a pathological shape none of the paper's kernels use).
fn emit_guarded(
    guard: BoolExpr,
    then_out: Vec<Stmt>,
    else_out: Vec<Stmt>,
    then_selfs: Vec<Arc<Expr>>,
    else_selfs: Vec<Arc<Expr>>,
    out: &mut Vec<Stmt>,
) {
    assert!(
        then_selfs.is_empty() && else_selfs.is_empty(),
        "assignment lhs under abs/min/max on its own rhs is not supported"
    );
    if then_out.is_empty() && else_out.is_empty() {
        return;
    }
    out.push(Stmt::If {
        cond: guard,
        then_body: then_out,
        else_body: else_out,
    });
}

/// Could any leaf of `e` be active?
fn expr_may_be_active(e: &Expr, ctx: &AdjCtx<'_>) -> bool {
    let mut active = false;
    e.walk(&mut |sub| {
        if let Expr::Var(n) | Expr::Index { array: n, .. } = sub {
            active |= (ctx.adjoint_of)(n).is_some();
        }
    });
    active
}

#[cfg(test)]
mod tests {
    use super::*;
    use formad_ir::expr_to_string;

    fn ctx_all_active() -> AdjCtx<'static> {
        AdjCtx {
            adjoint_of: &|n: &str| {
                (!n.ends_with(char::from(98)) && n != "c").then(|| format!("{n}b").into())
            },
        }
    }

    fn v(n: &str) -> Expr {
        Expr::var(n)
    }

    fn run(lhs: LValue, rhs: Expr) -> ExprAdjoint {
        let seed = match &lhs {
            LValue::Var(n) => Expr::var(format!("{n}b")),
            LValue::Index { array, indices } => Expr::index(format!("{array}b"), indices.clone()),
        };
        adjoint_of_assign(&lhs, &rhs, &seed, &ctx_all_active())
    }

    #[test]
    fn paper_figure1_assignment_example() {
        // u(i-1) = a*v(i,j) + 1.5
        let lhs = LValue::index("u", vec![v("i") - Expr::int(1)]);
        let rhs = v("a") * Expr::index("v", vec![v("i"), v("j")]) + Expr::real(1.5);
        let adj = run(lhs, rhs);
        // vb(i,j) += a*ub(i-1) ; ab += v(i,j)*ub(i-1)
        assert_eq!(adj.increments.len(), 2);
        let printed: Vec<String> = adj
            .increments
            .iter()
            .map(|s| {
                let mut t = String::new();
                formad_ir::printer::write_body(&mut t, std::slice::from_ref(s), 0);
                t.trim().to_string()
            })
            .collect();
        assert_eq!(printed[0], "ab = ab + ub(i - 1) * v(i, j)");
        assert_eq!(printed[1], "vb(i, j) = vb(i, j) + ub(i - 1) * a");
        // Plain assignment: lhs does not occur on the rhs.
        assert!(adj.self_seeds.is_empty());
    }

    #[test]
    fn paper_figure1_increment_example() {
        // u(2*i) = u(2*i) + 2*a
        let lhs = LValue::index("u", vec![Expr::int(2) * v("i")]);
        let rhs = lhs.as_expr() + Expr::int(2) * v("a");
        let adj = run(lhs, rhs);
        // ab += 2*ub(2*i); self seed is exactly ub(2*i) (coefficient 1).
        assert_eq!(adj.increments.len(), 1);
        assert_eq!(adj.self_seeds.len(), 1);
        assert_eq!(expr_to_string(&adj.self_seeds[0]), "ub(2 * i)");
    }

    #[test]
    fn product_rule() {
        // z = x * y → xb += zb*y; yb += zb*x
        let adj = run(LValue::var("z"), v("x") * v("y"));
        assert_eq!(adj.increments.len(), 2);
        let s0 = format!("{:?}", adj.increments[0]);
        assert!(s0.contains('y'), "first increment seeds with y: {s0}");
    }

    #[test]
    fn scaled_self_reference() {
        // z = 2*z + x → self seed 2*zb (after commuting, zb*2).
        let adj = run(LValue::var("z"), Expr::int(2) * v("z") + v("x"));
        assert_eq!(adj.self_seeds.len(), 1);
        assert_eq!(adj.increments.len(), 1);
        assert_eq!(expr_to_string(&adj.self_seeds[0]), "zb * 2");
    }

    #[test]
    fn division_rule() {
        let adj = run(LValue::var("z"), v("x") / v("y"));
        assert_eq!(adj.increments.len(), 2);
        let all = format!("{:?}", adj.increments);
        assert!(all.contains("Div"));
    }

    #[test]
    fn sin_chain_rule() {
        let adj = run(
            LValue::var("z"),
            Expr::call(Intrinsic::Sin, vec![v("x") * v("x")]),
        );
        // xb += zb*cos(x*x)*x twice (both occurrences of x).
        assert_eq!(adj.increments.len(), 2);
        let all = format!("{:?}", adj.increments);
        assert!(all.contains("Cos"));
    }

    #[test]
    fn min_emits_guard() {
        let adj = run(
            LValue::var("z"),
            Expr::call(Intrinsic::Min, vec![v("x"), v("y")]),
        );
        assert_eq!(adj.increments.len(), 1);
        match &adj.increments[0] {
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                assert_eq!(then_body.len(), 1);
                assert_eq!(else_body.len(), 1);
            }
            other => panic!("expected guard, got {other:?}"),
        }
    }

    #[test]
    fn abs_emits_sign_guard() {
        let adj = run(LValue::var("z"), Expr::call(Intrinsic::Abs, vec![v("x")]));
        assert!(matches!(adj.increments[0], Stmt::If { .. }));
    }

    #[test]
    fn inactive_leaves_ignored() {
        // c is inactive (index array) in the test context.
        let adj = run(
            LValue::var("z"),
            v("c") * v("x") + Expr::index("c", vec![v("i")]),
        );
        // Only xb receives a contribution.
        assert_eq!(adj.increments.len(), 1);
        assert!(format!("{:?}", adj.increments[0]).contains("xb"));
    }

    #[test]
    fn integer_pow_rule() {
        let adj = run(
            LValue::var("z"),
            Expr::binary(BinOp::Pow, v("x"), Expr::int(3)),
        );
        assert_eq!(adj.increments.len(), 1);
        let s = format!("{:?}", adj.increments[0]);
        assert!(s.contains("Pow"), "{s}");
    }

    #[test]
    fn constant_rhs_no_adjoints() {
        let adj = run(
            LValue::var("z"),
            Expr::real(3.5) + Expr::int(2) * Expr::real(1.0),
        );
        assert!(adj.increments.is_empty());
        assert!(adj.self_seeds.is_empty());
    }
}
