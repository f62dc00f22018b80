//! Transposed-stencil adjoint increments: scatter-to-gather inversion.
//!
//! The adjoint of a stencil read `y(i) = f(x(i+d), ...)` is a *scatter*
//! `xb(i+d) += e(i)`: neighbouring iterations write overlapping adjoint
//! elements, which races under OpenMP and normally forces atomics (the
//! paper's LBM negative result). Hückelheim et al., "Automatic
//! Differentiation for Adjoint Stencil Loops" (arXiv 1907.02818), invert
//! the access map instead, so every iteration *gathers* all contributions
//! into the one element it owns:
//!
//! ```text
//! do i = lo, hi                     do i = lo+d, hi+d
//!   xb(i+d) = xb(i+d) + e(i)   ⇒      xb(i) = xb(i) + e(i-d)
//! ```
//!
//! Contributions with nearby offsets are fused into one gather loop with
//! one-sided edge guards; the per-iteration write set is `{i}` by
//! construction, so the gather loops need no atomics at any thread count.
//!
//! Correctness of hoisting the `yb` seed reads in front of the residual
//! reversed loop requires that no adjoint *finalization* (`yb(w) = 0` or a
//! scaled self-seed) aliases a gathered seed location — neither across
//! iterations nor from a later statement of the same iteration. The plan
//! does **not** decide this itself: it records the exact index pairs that
//! must be shown disjoint ([`TransposePlan::cross_iter`] /
//! [`TransposePlan::same_iter`]) so the caller can discharge them with the
//! SMT machinery, plus a conservative structural verdict
//! ([`TransposePlan::forced_safe`]) for uniform forced mode where no
//! prover is in the loop.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use formad_ir::{
    expr_to_string, BinOp, BoolExpr, CmpOp, Expr, ForLoop, LValue, Name, ParallelInfo, Program,
    Stmt, Ty, UnOp,
};

use crate::adjoint_expr::{adjoint_of_assign, AdjCtx};

/// Largest literal-offset spread fused into a single gather loop. Larger
/// gaps would make every gather iteration evaluate (and reject) guards for
/// offsets far outside its band, so they get separate loops instead.
const CLUSTER_GAP: i64 = 64;

/// More gather loops than this and the transformation stops paying for
/// itself against a single atomic-guarded scatter loop.
const MAX_GATHER_LOOPS: usize = 24;

/// Affine decomposition of an index expression in the loop counter:
/// `coef·i + Σ sign·sym + lit`.
#[derive(Debug, Clone, PartialEq)]
pub struct Aff {
    /// Coefficient of the loop counter (must be ±1 for invertibility).
    pub coef: i64,
    /// Literal offset.
    pub lit: i64,
    /// Counter-free symbolic terms with their signs.
    pub syms: Vec<(i64, Expr)>,
}

impl Aff {
    /// Canonical rendering of the symbolic part, used to group
    /// contributions whose maps differ only in the literal offset.
    pub fn sym_key(&self) -> String {
        let mut parts: Vec<String> = self
            .syms
            .iter()
            .map(|(sign, e)| {
                format!(
                    "{}{}",
                    if *sign >= 0 { '+' } else { '-' },
                    expr_to_string(e)
                )
            })
            .collect();
        parts.sort();
        parts.join("|")
    }
}

/// Decompose `e` as an affine function of `var`; `None` when `var` occurs
/// non-additively (scaled, under an intrinsic, inside another index).
pub fn affine_in(e: &Expr, var: &str) -> Option<Aff> {
    let mut aff = Aff {
        coef: 0,
        lit: 0,
        syms: Vec::new(),
    };
    decompose(e, 1, var, &mut aff)?;
    Some(aff)
}

fn decompose(e: &Expr, sign: i64, var: &str, aff: &mut Aff) -> Option<()> {
    match e {
        Expr::IntLit(v) => {
            aff.lit += sign * v;
            Some(())
        }
        Expr::Var(n) if n == var => {
            aff.coef += sign;
            Some(())
        }
        Expr::Unary { op: UnOp::Neg, arg } => decompose(arg, -sign, var, aff),
        Expr::Binary {
            op: BinOp::Add,
            lhs,
            rhs,
        } => {
            decompose(lhs, sign, var, aff)?;
            decompose(rhs, sign, var, aff)
        }
        Expr::Binary {
            op: BinOp::Sub,
            lhs,
            rhs,
        } => {
            decompose(lhs, sign, var, aff)?;
            decompose(rhs, -sign, var, aff)
        }
        other => {
            if contains_var(other, var) {
                None
            } else {
                aff.syms.push((sign, other.clone()));
                Some(())
            }
        }
    }
}

fn contains_var(e: &Expr, var: &str) -> bool {
    let mut found = false;
    e.walk(&mut |sub| {
        if matches!(sub, Expr::Var(n) if n == var) {
            found = true;
        }
    });
    found
}

/// One index pair the caller must prove disjoint before gathering.
#[derive(Debug, Clone)]
pub struct ObligationPair {
    /// The seed array `y` whose adjoint is both read and finalized.
    pub array: Name,
    /// Index tuple of the gathered seed read `yb(seed)`.
    pub seed: Vec<Expr>,
    /// Index tuple of the adjoint finalization write `yb(write)`.
    pub write: Vec<Expr>,
}

/// One adjoint increment to be replaced by a gather iteration.
#[derive(Debug, Clone)]
struct Contribution {
    /// Affine map of the scattered target index.
    aff: Aff,
    /// Increment value `e(i)` in terms of the primal counter.
    value: Expr,
    /// Position among all contributions (for deterministic emission).
    order: usize,
}

/// Result of planning the scatter-to-gather inversion for one array in one
/// parallel region.
#[derive(Debug, Clone)]
pub struct TransposePlan {
    /// The primal array whose adjoint scatter is inverted.
    pub array: Name,
    /// Its adjoint name.
    pub adjoint: Name,
    /// Replacement gather loops, to run *before* the residual reversed
    /// loop (they read region-entry seed adjoint values).
    pub gather_loops: Vec<Stmt>,
    /// Number of adjoint increments the gather loops replace; the emitter
    /// must remove exactly this many from the backward body.
    pub contributions: usize,
    /// Seed arrays whose adjoints the gather reads.
    pub seed_arrays: Vec<Name>,
    /// Seed-read vs finalization pairs at *different* iterations.
    pub cross_iter: Vec<ObligationPair>,
    /// Seed-read (statement s) vs finalization (statement s' > s) pairs at
    /// the *same* iteration.
    pub same_iter: Vec<ObligationPair>,
    /// Conservative structural proof that every obligation pair is
    /// disjoint — the only evidence available under forced uniform mode.
    pub forced_safe: bool,
}

/// What [`plan_transpose`] reads off a region body regardless of the
/// target array; scanned once per region and shared by every array's plan.
#[derive(Debug)]
pub struct RegionWrites {
    /// Arrays written anywhere in the region.
    written_arrays: HashSet<Name>,
    /// Scalars assigned anywhere in the region, inner loop counters
    /// included.
    assigned_scalars: HashSet<Name>,
}

impl RegionWrites {
    /// Scan the body of the parallel loop `l`.
    pub fn scan(l: &ForLoop) -> RegionWrites {
        let mut written_arrays: HashSet<Name> = HashSet::new();
        let mut assigned_scalars: HashSet<Name> = HashSet::new();
        for s in &l.body {
            s.walk(&mut |st| match st {
                Stmt::Assign { lhs, .. } | Stmt::AtomicAdd { lhs, .. } | Stmt::Pop(lhs) => {
                    let (set, name) = match lhs {
                        LValue::Var(v) => (&mut assigned_scalars, v),
                        LValue::Index { array: a, .. } => (&mut written_arrays, a),
                    };
                    if !set.contains(name) {
                        set.insert(name.clone());
                    }
                }
                Stmt::For(inner) => {
                    assigned_scalars.insert(inner.var.clone());
                }
                _ => {}
            });
        }
        RegionWrites {
            written_arrays,
            assigned_scalars,
        }
    }
}

/// Plan the transposed-stencil gather for `array` in the parallel loop `l`
/// of `prog`, whose body scan is `writes`. `is_active` tells which primal
/// names carry adjoints (an assignment to an inactive lvalue emits no
/// adjoint and contributes no scatter). Returns a human-readable refusal
/// reason when the region shape is not invertible; proving the recorded
/// obligation pairs is the caller's job.
pub fn plan_transpose(
    prog: &Program,
    l: &ForLoop,
    writes: &RegionWrites,
    array: &str,
    suffix: &str,
    is_active: &dyn Fn(&str) -> bool,
) -> Result<TransposePlan, String> {
    let info = l
        .parallel
        .as_ref()
        .ok_or_else(|| "loop is not parallel".to_string())?;
    let Expr::IntLit(step) = l.step else {
        return Err("loop step is not a literal".to_string());
    };
    if step < 1 {
        return Err(format!("loop step {step} is not positive"));
    }
    match prog.decl(array) {
        Some(d) if d.is_array() && d.ty == Ty::Real => {}
        _ => return Err(format!("`{array}` is not a real array")),
    }
    if info.is_privatized(array) {
        return Err(format!("`{array}` is privatized in the region"));
    }

    // Gather values may depend neither on names written anywhere in the
    // region nor on scalars assigned anywhere (including inner loop
    // counters), since the gather runs outside the per-iteration context.
    let RegionWrites {
        written_arrays,
        assigned_scalars,
    } = writes;
    if written_arrays.contains(array) {
        return Err(format!("`{array}` is written in the region"));
    }

    // Every reference to the target array must sit in a top-level plain
    // assignment: reads under control flow would produce guarded scatters
    // with no single inverse map.
    let refs_array = |s: &Stmt, name: &str| -> bool {
        let mut found = false;
        s.walk_exprs(&mut |e| {
            if matches!(e, Expr::Index { array: a, .. } if a == name) {
                found = true;
            }
        });
        found
    };
    let mut contributing: Vec<(usize, &LValue, &Expr)> = Vec::new();
    for (idx, s) in l.body.iter().enumerate() {
        match s {
            Stmt::Assign { lhs, rhs } => {
                if !refs_array(s, array) {
                    continue;
                }
                let LValue::Index { array: y, indices } = lhs else {
                    return Err(format!("`{array}` feeds scalar `{}`", lhs.name()));
                };
                if y == array {
                    unreachable!("writes to the target array were rejected above");
                }
                if !is_active(y) {
                    // Inactive lvalue: the statement emits no adjoint.
                    continue;
                }
                if indices.len() != 1 {
                    return Err(format!("seed write `{y}` is not rank-1"));
                }
                contributing.push((idx, lhs, rhs));
            }
            other => {
                if refs_array(other, array) {
                    return Err(format!(
                        "`{array}` is referenced under control flow in the region"
                    ));
                }
            }
        }
    }
    if contributing.is_empty() {
        return Err(format!("no adjoint scatter into `{array}b` to invert"));
    }

    // Seed arrays: their adjoints are read at region-entry values by the
    // gather, so the region must not *increment* them (no genuine primal
    // reads) and every write must be a recognizable top-level assignment.
    let seed_set: BTreeSet<Name> = contributing
        .iter()
        .map(|(_, lhs, _)| lhs.name().clone())
        .collect();
    for y in &seed_set {
        for s in l.body.iter() {
            match s {
                Stmt::Assign { lhs, rhs } if lhs.name() == y => {
                    if lhs.indices().iter().any(|ix| {
                        let mut f = false;
                        ix.walk(&mut |e| {
                            if matches!(e, Expr::Index { array: a, .. } if a == y) {
                                f = true;
                            }
                        });
                        f
                    }) {
                        return Err(format!("seed array `{y}` indexes itself"));
                    }
                    // An exact increment's own self-read does not count.
                    let value = s.increment_parts().map_or(rhs, |(_, added)| added);
                    let mut reads_y = false;
                    value.walk(&mut |e| {
                        if matches!(e, Expr::Index { array: a, .. } if a == y) {
                            reads_y = true;
                        }
                    });
                    if reads_y {
                        return Err(format!("seed array `{y}` reads itself"));
                    }
                }
                other => {
                    let mut touches = refs_array(other, y);
                    other.walk(&mut |st| match st {
                        Stmt::Assign { lhs, .. } | Stmt::AtomicAdd { lhs, .. } | Stmt::Pop(lhs)
                            if lhs.name() == y =>
                        {
                            touches = true;
                        }
                        _ => {}
                    });
                    if touches {
                        return Err(format!(
                            "seed array `{y}` is read or written outside top-level assignments"
                        ));
                    }
                }
            }
        }
    }

    // Extract the adjoint increments of each contributing statement, with
    // activity restricted to the target array: the increments come out
    // structurally identical to what the full backward sweep emits for it.
    let adjoint = Name::from(format!("{array}{suffix}"));
    let ctx = AdjCtx {
        adjoint_of: &|n: &str| (n == array).then(|| adjoint.clone()),
    };
    let mut contributions: Vec<Contribution> = Vec::new();
    // (contribution index ranges, seed index, stmt idx) per statement, for
    // the obligation pairs below.
    let mut stmt_seeds: Vec<(usize, Name, Expr)> = Vec::new();
    for (idx, lhs, rhs) in &contributing {
        let LValue::Index { array: y, indices } = lhs else {
            unreachable!()
        };
        let seed = Expr::index(format!("{y}{suffix}"), indices.clone());
        let adj = adjoint_of_assign(lhs, rhs, &seed, &ctx);
        for inc in &adj.increments {
            let Some((inc_lhs, value)) = inc.increment_parts() else {
                return Err(format!(
                    "adjoint of `{array}` needs a guarded increment (non-smooth intrinsic)"
                ));
            };
            let LValue::Index {
                array: b,
                indices: tix,
            } = inc_lhs
            else {
                return Err(format!("adjoint increment to scalar `{}`", inc_lhs.name()));
            };
            debug_assert_eq!(b, &adjoint);
            if tix.len() != 1 {
                return Err(format!("`{array}` is not rank-1"));
            }
            // The gather re-evaluates the value outside the iteration, so
            // it may only depend on the counter, region-invariant scalars,
            // region-unwritten arrays, and the seed adjoints.
            let mut bad: Option<String> = None;
            value.walk(&mut |e| match e {
                Expr::Var(n)
                    if n != &l.var && (assigned_scalars.contains(n) || info.is_privatized(n)) =>
                {
                    bad = Some(format!("value depends on iteration scalar `{n}`"));
                }
                Expr::Index { array: a, .. } => {
                    let seed_adjoint = a
                        .strip_suffix(suffix)
                        .map(|stem| seed_set.contains(stem))
                        .unwrap_or(false);
                    if !seed_adjoint && (written_arrays.contains(a) || prog.decl(a).is_none()) {
                        bad = Some(format!("value depends on region-written array `{a}`"));
                    }
                }
                _ => {}
            });
            if let Some(reason) = bad {
                return Err(reason);
            }
            let Some(aff) = affine_in(&tix[0], &l.var) else {
                return Err(format!(
                    "scatter index `{}` is not affine in `{}`",
                    expr_to_string(&tix[0]),
                    l.var
                ));
            };
            if aff.coef != 1 && aff.coef != -1 {
                return Err(format!(
                    "scatter map `{}` has counter coefficient {} (not ±1)",
                    expr_to_string(&tix[0]),
                    aff.coef
                ));
            }
            contributions.push(Contribution {
                aff,
                value: value.clone(),
                order: contributions.len(),
            });
        }
        if !adj.increments.is_empty() {
            stmt_seeds.push((*idx, y.clone(), indices[0].clone()));
        }
    }
    if contributions.is_empty() {
        return Err(format!("no adjoint scatter into `{adjoint}` to invert"));
    }

    // Adjoint finalizations per seed array: every top-level write that is
    // not an exact increment zeroes (or rescales) `yb(w)` in the backward
    // sweep. Exact increments finalize nothing (paper §5.4).
    let mut finalizations: Vec<(usize, Name, Expr)> = Vec::new();
    for (idx, s) in l.body.iter().enumerate() {
        if let Stmt::Assign { lhs, .. } = s {
            let y = lhs.name();
            if seed_set.contains(y) && is_active(y) && s.increment_parts().is_none() {
                finalizations.push((idx, y.clone(), lhs.indices()[0].clone()));
            }
        }
    }

    let mut cross_iter: Vec<ObligationPair> = Vec::new();
    let mut same_iter: Vec<ObligationPair> = Vec::new();
    // Pairs are distinct by (array, printed seed, printed write) — `Expr`
    // is not `Hash`. Each index is printed once, not once per pair.
    let mut printed: HashMap<String, usize> = HashMap::new();
    let mut print_id = |e: &Expr| {
        let next = printed.len();
        *printed.entry(expr_to_string(e)).or_insert(next)
    };
    let seed_ids: Vec<usize> = stmt_seeds.iter().map(|(_, _, e)| print_id(e)).collect();
    let write_ids: Vec<usize> = finalizations.iter().map(|(_, _, e)| print_id(e)).collect();
    let mut seen_cross: HashSet<(&str, usize, usize)> = HashSet::new();
    let mut seen_same: HashSet<(&str, usize, usize)> = HashSet::new();
    for ((sidx, y, seed), seed_id) in stmt_seeds.iter().zip(seed_ids) {
        for ((fidx, fy, w), &write_id) in finalizations.iter().zip(&write_ids) {
            if y != fy {
                continue;
            }
            let key = (y.as_str(), seed_id, write_id);
            if seen_cross.insert(key) {
                cross_iter.push(ObligationPair {
                    array: y.clone(),
                    seed: vec![seed.clone()],
                    write: vec![w.clone()],
                });
            }
            if fidx > sidx && seen_same.insert(key) {
                same_iter.push(ObligationPair {
                    array: y.clone(),
                    seed: vec![seed.clone()],
                    write: vec![w.clone()],
                });
            }
        }
    }

    // Structural disjointness for forced uniform mode (no prover): both
    // sides must decompose affinely with matching counter coefficient and
    // symbolic part, leaving a literal separation argument.
    let pair_affs = |p: &ObligationPair| -> Option<(Aff, Aff)> {
        let a = affine_in(&p.seed[0], &l.var)?;
        let b = affine_in(&p.write[0], &l.var)?;
        (a.coef == b.coef && a.coef.abs() == 1 && a.sym_key() == b.sym_key()).then_some((a, b))
    };
    let mut forced_safe = true;
    for p in &cross_iter {
        // Alias across iterations needs coef·(i−i') = lit_w − lit_s with
        // i−i' a nonzero multiple of the step.
        match pair_affs(p) {
            Some((a, b)) => {
                let diff = b.lit - a.lit;
                if diff != 0 && (step == 1 || diff % step == 0) {
                    forced_safe = false;
                }
            }
            None => forced_safe = false,
        }
    }
    for p in &same_iter {
        match pair_affs(p) {
            Some((a, b)) => {
                if a.lit == b.lit {
                    forced_safe = false;
                }
            }
            None => forced_safe = false,
        }
    }

    let gather_loops = build_gather_loops(l, &adjoint, &contributions, step)?;

    Ok(TransposePlan {
        array: array.into(),
        adjoint,
        gather_loops,
        contributions: contributions.len(),
        seed_arrays: seed_set.into_iter().collect(),
        cross_iter,
        same_iter,
        forced_safe,
    })
}

/// Fold-adding a literal to an expression.
fn add_lit(e: Expr, k: i64) -> Expr {
    match (&e, k) {
        (_, 0) => e,
        (Expr::IntLit(v), _) => Expr::IntLit(v + k),
        _ if k > 0 => e + Expr::int(k),
        _ => e - Expr::int(-k),
    }
}

/// `base + Σ sign·sym`.
fn add_syms(mut e: Expr, syms: &[(i64, Expr)]) -> Expr {
    for (sign, t) in syms {
        e = if *sign >= 0 {
            e + t.clone()
        } else {
            e - t.clone()
        };
    }
    e
}

/// `base − Σ sign·sym`.
fn sub_syms(mut e: Expr, syms: &[(i64, Expr)]) -> Expr {
    for (sign, t) in syms {
        e = if *sign >= 0 {
            e - t.clone()
        } else {
            e + t.clone()
        };
    }
    e
}

/// `Σ sign·sym + k` with no base term.
fn syms_plus_lit(syms: &[(i64, Expr)], k: i64) -> Expr {
    let mut it = syms.iter();
    match it.next() {
        None => Expr::IntLit(k),
        Some((s0, t0)) => {
            let head = if *s0 >= 0 {
                t0.clone()
            } else {
                t0.clone().neg()
            };
            add_lit(add_syms(head, it.as_slice()), k)
        }
    }
}

/// Recursively fold integer-literal `+`/`−` chains (`i + 6 - 6` → `i`).
/// The inverse-map substitution stacks the gather shift on top of the
/// seed's own literal offset; a compiler folds the leftover arithmetic
/// for free, but the interpreted backends would pay it on every gather
/// element.
fn fold_lit_chain(e: Expr) -> Expr {
    let fold = |e: Arc<Expr>| fold_lit_chain(Arc::unwrap_or_clone(e));
    let fold_all = |es: Arc<[Expr]>| es.iter().cloned().map(fold_lit_chain).collect();
    match e {
        Expr::Unary { op, arg } => Expr::Unary {
            op,
            arg: fold(arg).into(),
        },
        Expr::Call { func, args } => Expr::Call {
            func,
            args: fold_all(args),
        },
        Expr::Index { array, indices } => Expr::Index {
            array,
            indices: fold_all(indices),
        },
        Expr::Binary { op, lhs, rhs } if matches!(op, BinOp::Add | BinOp::Sub) => {
            match (fold(lhs), fold(rhs)) {
                (Expr::IntLit(a), Expr::IntLit(b)) => {
                    Expr::IntLit(if op == BinOp::Add { a + b } else { a - b })
                }
                (l, Expr::IntLit(b)) => {
                    let k = if op == BinOp::Add { b } else { -b };
                    // Pull a literal off the left spine: `(x ± a) ± b`.
                    match l {
                        Expr::Binary {
                            op: inner,
                            lhs: x,
                            rhs: ir,
                        } if matches!(inner, BinOp::Add | BinOp::Sub) => match *ir {
                            Expr::IntLit(a) => {
                                let a = if inner == BinOp::Add { a } else { -a };
                                add_lit(Arc::unwrap_or_clone(x), a + k)
                            }
                            _ => add_lit(
                                Expr::Binary {
                                    op: inner,
                                    lhs: x,
                                    rhs: ir,
                                },
                                k,
                            ),
                        },
                        l => add_lit(l, k),
                    }
                }
                (l, r) => Expr::binary(op, l, r),
            }
        }
        Expr::Binary { op, lhs, rhs } => Expr::binary(op, fold(lhs), fold(rhs)),
        other => other,
    }
}

/// `a − b` with literal folding.
fn fold_sub(a: Expr, b: Expr) -> Expr {
    match (&a, &b) {
        (Expr::IntLit(x), Expr::IntLit(y)) => Expr::IntLit(x - y),
        (_, Expr::IntLit(y)) => add_lit(a, -y),
        _ => a - b,
    }
}

/// The last iterate the primal loop actually executes (mirrors the
/// reversed-bounds rule of the backward sweep).
fn last_iterate(l: &ForLoop, step: i64) -> Expr {
    if step == 1 {
        l.hi.clone()
    } else {
        l.lo.clone()
            + Expr::binary(BinOp::Div, l.hi.clone() - l.lo.clone(), l.step.clone()) * l.step.clone()
    }
}

fn build_gather_loops(
    l: &ForLoop,
    adjoint: &Name,
    contributions: &[Contribution],
    step: i64,
) -> Result<Vec<Stmt>, String> {
    let last = last_iterate(l, step);

    // Group by (counter coefficient, symbolic part, offset residue):
    // members of a group share one inverse map up to a literal shift, so
    // they can share a gather loop grid.
    let mut groups: BTreeMap<(i64, String, i64), Vec<usize>> = BTreeMap::new();
    for (k, c) in contributions.iter().enumerate() {
        let key = (c.aff.coef, c.aff.sym_key(), c.aff.lit.rem_euclid(step));
        groups.entry(key).or_default().push(k);
    }

    let mut loops: Vec<Stmt> = Vec::new();
    for ((coef, _symkey, _res), members) in &groups {
        // Cluster nearby literal offsets into shared loops.
        let mut lits: Vec<i64> = members.iter().map(|&k| contributions[k].aff.lit).collect();
        lits.sort_unstable();
        lits.dedup();
        let mut clusters: Vec<(i64, i64)> = Vec::new();
        for &d in &lits {
            match clusters.last_mut() {
                Some((_, hi)) if d - *hi <= CLUSTER_GAP => *hi = d,
                _ => clusters.push((d, d)),
            }
        }

        for (d_min, d_max) in clusters {
            let mut cluster_members: Vec<usize> = members
                .iter()
                .copied()
                .filter(|&k| {
                    let d = contributions[k].aff.lit;
                    d >= d_min && d <= d_max
                })
                .collect();
            cluster_members.sort_by_key(|&k| contributions[k].order);
            let syms = &contributions[cluster_members[0]].aff.syms;

            // Loop bounds covering the union of the members' write bands.
            let (start, end) = if *coef == 1 {
                (
                    add_lit(add_syms(l.lo.clone(), syms), d_min),
                    add_lit(add_syms(last.clone(), syms), d_max),
                )
            } else {
                (
                    fold_sub(syms_plus_lit(syms, d_min), last.clone()),
                    fold_sub(syms_plus_lit(syms, d_max), l.lo.clone()),
                )
            };

            let mut body: Vec<Stmt> = Vec::new();
            for &k in &cluster_members {
                let c = &contributions[k];
                let d = c.aff.lit;
                // Invert coef·i_old + S + d = i_new for i_old.
                let inverse = if *coef == 1 {
                    add_lit(sub_syms(Expr::var(&l.var), syms), -d)
                } else {
                    fold_sub(syms_plus_lit(syms, d), Expr::var(&l.var))
                };
                let value = fold_lit_chain(c.value.subst_var(&l.var, &inverse));
                let inc = Stmt::increment(LValue::index(adjoint, [Expr::var(&l.var)]), value);
                // One-sided edge guards: only needed where the member's
                // own band is narrower than the cluster's.
                let (lo_bound, hi_bound) = if *coef == 1 {
                    (
                        add_lit(add_syms(l.lo.clone(), syms), d),
                        add_lit(add_syms(last.clone(), syms), d),
                    )
                } else {
                    (
                        fold_sub(syms_plus_lit(syms, d), last.clone()),
                        fold_sub(syms_plus_lit(syms, d), l.lo.clone()),
                    )
                };
                let mut guards: Vec<BoolExpr> = Vec::new();
                if d > d_min {
                    guards.push(BoolExpr::cmp(CmpOp::Ge, Expr::var(&l.var), lo_bound));
                }
                if d < d_max {
                    guards.push(BoolExpr::cmp(CmpOp::Le, Expr::var(&l.var), hi_bound));
                }
                body.push(match guards.len() {
                    0 => inc,
                    1 => Stmt::If {
                        cond: guards.pop().unwrap(),
                        then_body: vec![inc],
                        else_body: Vec::new(),
                    },
                    _ => {
                        let hi_g = guards.pop().unwrap();
                        let lo_g = guards.pop().unwrap();
                        Stmt::If {
                            cond: BoolExpr::And(lo_g.into(), hi_g.into()),
                            then_body: vec![inc],
                            else_body: Vec::new(),
                        }
                    }
                });
            }

            // Each iteration writes only its own element: plain shared
            // increments are race-free by construction.
            let mut referenced: BTreeSet<Name> = BTreeSet::new();
            for s in &body {
                s.walk_exprs(&mut |e| match e {
                    Expr::Var(n) => {
                        referenced.insert(n.clone());
                    }
                    Expr::Index { array, .. } => {
                        referenced.insert(array.clone());
                    }
                    _ => {}
                });
            }
            referenced.remove(&l.var);
            let info = ParallelInfo {
                shared: referenced.into_iter().collect(),
                private: Vec::new(),
                reductions: Vec::new(),
            };
            loops.push(Stmt::For(Box::new(ForLoop {
                var: l.var.clone(),
                lo: start,
                hi: end,
                step: Expr::IntLit(step),
                body,
                parallel: Some(info),
            })));
        }
    }

    if loops.len() > MAX_GATHER_LOOPS {
        return Err(format!(
            "gather would need {} loops (cap {MAX_GATHER_LOOPS})",
            loops.len()
        ));
    }
    Ok(loops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use formad_ir::{parse_program, printer::write_body};

    fn parallel_loop(p: &Program) -> &ForLoop {
        p.parallel_loops()[0]
    }

    fn plan(src: &str, array: &str) -> Result<TransposePlan, String> {
        let p = parse_program(src).unwrap();
        let l = parallel_loop(&p);
        plan_transpose(&p, l, &RegionWrites::scan(l), array, "b", &|_| true)
    }

    fn body_text(stmts: &[Stmt]) -> String {
        let mut s = String::new();
        write_body(&mut s, stmts, 0);
        s
    }

    const SHIFT: &str = r#"
subroutine sh(n, x, y)
  integer, intent(in) :: n
  real, intent(in) :: x(n)
  real, intent(inout) :: y(n)
  integer :: i
  !$omp parallel do shared(x, y)
  do i = 1, n
    y(i) = y(i) + x(i + 1)
  end do
end subroutine
"#;

    #[test]
    fn exact_increment_seed_gathers_without_guards() {
        let p = plan(SHIFT, "x").unwrap();
        assert_eq!(p.contributions, 1);
        assert_eq!(p.gather_loops.len(), 1);
        // No finalizations: trivially safe even without a prover.
        assert!(p.cross_iter.is_empty() && p.same_iter.is_empty());
        assert!(p.forced_safe);
        let text = body_text(&p.gather_loops);
        assert!(text.contains("do i = 2, n + 1"), "{text}");
        assert!(text.contains("xb(i) = xb(i) + yb(i - 1)"), "{text}");
        assert!(!text.contains("if"), "{text}");
    }

    #[test]
    fn two_offsets_cluster_with_edge_guards() {
        let src = r#"
subroutine two(n, x, y)
  integer, intent(in) :: n
  real, intent(in) :: x(n)
  real, intent(out) :: y(n)
  integer :: i
  !$omp parallel do shared(x, y)
  do i = 1, n
    y(i) = x(i) + 2.0 * x(i + 2)
  end do
end subroutine
"#;
        let p = plan(src, "x").unwrap();
        assert_eq!(p.contributions, 2);
        assert_eq!(p.gather_loops.len(), 1, "offsets 0 and 2 share a loop");
        // Overwrite of y finalizes yb(i); seed reads yb(i) at the same
        // location but only at the same (s, s) — no later statement, and
        // cross-iteration the offsets match, so structurally safe.
        assert_eq!(p.cross_iter.len(), 1);
        assert!(p.same_iter.is_empty());
        assert!(p.forced_safe);
        let text = body_text(&p.gather_loops);
        assert!(text.contains("do i = 1, n + 2"), "{text}");
        assert!(text.contains("if (i .le. n) then"), "{text}");
        assert!(text.contains("if (i .ge. 3) then"), "{text}");
        assert!(text.contains("xb(i) = xb(i) + yb(i)"), "{text}");
        assert!(text.contains("xb(i) = xb(i) + yb(i - 2) * 2.0"), "{text}");
    }

    #[test]
    fn reversed_map_inverts() {
        let src = r#"
subroutine rev(n, x, y)
  integer, intent(in) :: n
  real, intent(in) :: x(n)
  real, intent(out) :: y(n)
  integer :: i
  !$omp parallel do shared(x, y)
  do i = 1, n
    y(i) = x(n + 1 - i)
  end do
end subroutine
"#;
        let p = plan(src, "x").unwrap();
        assert_eq!(p.gather_loops.len(), 1);
        let text = body_text(&p.gather_loops);
        assert!(text.contains("do i = n + 1 - n, n + 1 - 1"), "{text}");
        assert!(text.contains("xb(i) = xb(i) + yb(n + 1 - i)"), "{text}");
        assert!(p.forced_safe);
    }

    #[test]
    fn strided_loop_keeps_step() {
        let src = r#"
subroutine st(n, x, y)
  integer, intent(in) :: n
  real, intent(in) :: x(n)
  real, intent(out) :: y(n)
  integer :: i
  !$omp parallel do shared(x, y)
  do i = 1, n, 3
    y(i) = x(i + 1)
  end do
end subroutine
"#;
        let p = plan(src, "x").unwrap();
        let text = body_text(&p.gather_loops);
        assert!(text.contains(", 3"), "gather keeps the stride: {text}");
        assert!(text.contains("do i = 2, "), "{text}");
    }

    #[test]
    fn indirect_index_refused() {
        let src = r#"
subroutine ind(n, x, y, c)
  integer, intent(in) :: n
  integer, intent(in) :: c(n)
  real, intent(in) :: x(n)
  real, intent(out) :: y(n)
  integer :: i
  !$omp parallel do shared(x, y, c)
  do i = 1, n
    y(i) = x(c(i))
  end do
end subroutine
"#;
        let err = plan(src, "x").unwrap_err();
        assert!(err.contains("not affine"), "{err}");
    }

    #[test]
    fn scaled_index_refused() {
        let src = r#"
subroutine sc(n, x, y)
  integer, intent(in) :: n
  real, intent(in) :: x(n)
  real, intent(out) :: y(n)
  integer :: i
  !$omp parallel do shared(x, y)
  do i = 1, n
    y(i) = x(2 * i)
  end do
end subroutine
"#;
        let err = plan(src, "x").unwrap_err();
        assert!(
            err.contains("not ±1") || err.contains("not affine"),
            "{err}"
        );
    }

    #[test]
    fn target_written_in_region_refused() {
        let src = r#"
subroutine wr(n, x, y)
  integer, intent(in) :: n
  real, intent(inout) :: x(n)
  real, intent(out) :: y(n)
  integer :: i
  !$omp parallel do shared(x, y)
  do i = 1, n
    y(i) = x(i)
    x(i) = 0.0
  end do
end subroutine
"#;
        let err = plan(src, "x").unwrap_err();
        assert!(err.contains("written in the region"), "{err}");
    }

    #[test]
    fn seed_read_elsewhere_refused() {
        let src = r#"
subroutine sr(n, x, y, z)
  integer, intent(in) :: n
  real, intent(in) :: x(n)
  real, intent(out) :: y(n)
  real, intent(out) :: z(n)
  integer :: i
  !$omp parallel do shared(x, y, z)
  do i = 1, n
    y(i) = x(i + 1)
    z(i) = y(i) * 2.0
  end do
end subroutine
"#;
        let err = plan(src, "x").unwrap_err();
        assert!(err.contains("seed array `y`"), "{err}");
    }

    #[test]
    fn read_under_control_flow_refused() {
        let src = r#"
subroutine cf(n, x, y, c)
  integer, intent(in) :: n
  integer, intent(in) :: c(n)
  real, intent(in) :: x(n)
  real, intent(inout) :: y(n)
  integer :: i
  !$omp parallel do shared(x, y, c)
  do i = 1, n
    if (c(i) .gt. 0) then
      y(i) = y(i) + x(i + 1)
    end if
  end do
end subroutine
"#;
        let err = plan(src, "x").unwrap_err();
        assert!(err.contains("control flow"), "{err}");
    }

    #[test]
    fn iteration_scalar_in_value_refused() {
        let src = r#"
subroutine iv(n, x, y)
  integer, intent(in) :: n
  real, intent(in) :: x(n)
  real, intent(out) :: y(n)
  real :: t
  integer :: i
  !$omp parallel do shared(x, y) private(t)
  do i = 1, n
    t = 2.0
    y(i) = t * x(i + 1)
  end do
end subroutine
"#;
        let err = plan(src, "x").unwrap_err();
        assert!(err.contains("iteration scalar"), "{err}");
    }

    #[test]
    fn same_iteration_alias_not_forced_safe() {
        // Statement 2 finalizes yb(i), which statement 1's scatter seed
        // reads at the same location of the same iteration: hoisting the
        // seed read would observe the zeroed value.
        let src = r#"
subroutine al(n, x, y)
  integer, intent(in) :: n
  real, intent(in) :: x(n)
  real, intent(out) :: y(n)
  integer :: i
  !$omp parallel do shared(x, y)
  do i = 1, n
    y(i) = x(i)
    y(i) = x(i + 1)
  end do
end subroutine
"#;
        let p = plan(src, "x").unwrap();
        assert_eq!(p.same_iter.len(), 1);
        assert!(!p.forced_safe);
    }

    #[test]
    fn cross_iteration_shifted_finalization_not_forced_safe() {
        // y(i+1) is finalized; seeds are read at y(i): iteration i+1's
        // finalization aliases iteration i's... actually seed w=(i) of
        // stmt 1 vs write (i+1) of stmt 2 aliases across iterations.
        let src = r#"
subroutine cx(n, x, y, z)
  integer, intent(in) :: n
  real, intent(in) :: x(n)
  real, intent(out) :: y(n)
  real, intent(inout) :: z(n)
  integer :: i
  !$omp parallel do shared(x, y, z)
  do i = 1, n
    y(i) = x(i) + y(i + 1)
  end do
end subroutine
"#;
        // y reads itself — refused outright by the seed gate.
        let err = plan(src, "x").unwrap_err();
        assert!(err.contains("reads itself"), "{err}");
    }

    #[test]
    fn offset_finalization_unsafe_cross_iteration() {
        let src = r#"
subroutine of(n, x, y)
  integer, intent(in) :: n
  real, intent(in) :: x(n)
  real, intent(out) :: y(n)
  integer :: i
  !$omp parallel do shared(x, y)
  do i = 1, n
    y(2 * i) = x(i)
    y(2 * i + 1) = x(i + 1)
  end do
end subroutine
"#;
        let p = plan(src, "x").unwrap();
        // Seed (2i) vs write (2i+1) cross-iteration: 2i = 2i'+1 has no
        // integer solution, but the affine forms differ non-literally
        // (coef 2), so the structural check refuses to vouch for it.
        assert!(!p.forced_safe);
    }

    #[test]
    fn affine_decomposition() {
        let e = Expr::var("i") + Expr::var("s") - Expr::int(3);
        let a = affine_in(&e, "i").unwrap();
        assert_eq!(a.coef, 1);
        assert_eq!(a.lit, -3);
        assert_eq!(a.sym_key(), "+s");
        let e2 = Expr::int(7) - Expr::var("i");
        let a2 = affine_in(&e2, "i").unwrap();
        assert_eq!((a2.coef, a2.lit), (-1, 7));
        assert!(affine_in(&(Expr::int(2) * Expr::var("i")), "i").is_none());
    }
}
