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
//! does **not** decide this itself: it lists the exact index pairs that
//! must be shown disjoint ([`TransposePlan::obligations`]) so the caller
//! can discharge them with the SMT machinery, and gives a conservative
//! structural verdict ([`TransposePlan::forced_safe`]) for uniform forced
//! mode where no prover is in the loop. [`plan_transpose`] does only what
//! every caller needs (shape checks, contributions, gather-loop layout);
//! the plan builds the rest on request.

use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::sync::Arc;

use formad_ir::{
    expr_to_string, BinOp, BoolExpr, CmpOp, Expr, ForLoop, FxHashSet, Intrinsic, LValue, Name,
    ParallelInfo, Program, Stmt, Ty, UnOp,
};

use crate::adjoint_expr::{adjoint_of_assign, bind_values, AdjCtx};

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
    /// Canonical rendering of the symbolic part: equal for the same
    /// symbolic part ([`Aff::same_syms`]), and the order of the gather
    /// loops of different ones.
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

    /// True if both symbolic parts hold the same signed terms, in any
    /// order: the maps differ at most in the literal offset.
    pub fn same_syms(&self, other: &Aff) -> bool {
        let count = |syms: &[(i64, Expr)], t: &(i64, Expr)| syms.iter().filter(|u| *u == t).count();
        self.syms.len() == other.syms.len()
            && self
                .syms
                .iter()
                .all(|t| count(&self.syms, t) == count(&other.syms, t))
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
        other if mentions(other, |e| matches!(e, Expr::Var(n) if n == var)) => None,
        other => {
            aff.syms.push((sign, other.clone()));
            Some(())
        }
    }
}

/// True if some node of `e` satisfies `hit`.
fn mentions(e: &Expr, hit: impl Fn(&Expr) -> bool) -> bool {
    let mut found = false;
    e.walk(&mut |sub| found |= hit(sub));
    found
}

/// True if `e` is an element of `array`.
fn is_elem(e: &Expr, array: &str) -> bool {
    matches!(e, Expr::Index { array: a, .. } if a == array)
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

/// What a gather needs shown before it may replace the scatter.
#[derive(Debug, Clone, Default)]
pub struct Obligations {
    /// Seed-read vs finalization pairs at *different* iterations.
    pub cross_iter: Vec<ObligationPair>,
    /// Seed-read (statement s) vs finalization (statement s' > s) pairs at
    /// the *same* iteration.
    pub same_iter: Vec<ObligationPair>,
}

/// One adjoint increment to be replaced by a gather iteration.
#[derive(Debug, Clone)]
struct Contribution {
    /// Affine map of the scattered target index.
    aff: Aff,
    /// Increment value `e(i)` in terms of the primal counter.
    value: Expr,
}

/// One gather loop: contributions with one inverse map up to a literal
/// shift, whose offsets lie in `d_min..=d_max`.
#[derive(Debug, Clone)]
struct Cluster {
    coef: i64,
    d_min: i64,
    d_max: i64,
    /// Indices into the contributions, in emission order.
    members: Vec<usize>,
}

/// Result of planning the scatter-to-gather inversion for one array in one
/// parallel region.
#[derive(Debug, Clone)]
pub struct TransposePlan {
    /// The adjoint of the array whose scatter is inverted.
    pub adjoint: Name,
    /// Number of adjoint increments the gather loops replace; the emitter
    /// must remove exactly this many from the backward body.
    pub contributions: usize,
    /// The primal loop's counter, bounds and literal step.
    var: Name,
    lo: Expr,
    last: Expr,
    step: i64,
    contribs: Vec<Contribution>,
    clusters: Vec<Cluster>,
    /// The distinct (seed array, rank-1 index) locations: equal site ids,
    /// Seed reads as (top-level statement, seed array, rank-1 index), in
    /// statement order.
    seeds: Vec<(usize, Name, Expr)>,
    /// Finalizing writes, the same way.
    finalizations: Vec<(usize, Name, Expr)>,
}

/// What [`plan_transpose`] reads off a region body regardless of the
/// target array; scanned once per region and shared by every array's plan.
#[derive(Debug)]
pub struct RegionWrites {
    /// Arrays written anywhere in the region.
    written_arrays: FxHashSet<Name>,
    /// Scalars assigned anywhere in the region, inner loop counters
    /// included.
    assigned_scalars: FxHashSet<Name>,
}

impl RegionWrites {
    /// Scan the body of the parallel loop `l`.
    pub fn scan(l: &ForLoop) -> RegionWrites {
        let mut written_arrays: FxHashSet<Name> = FxHashSet::default();
        let mut assigned_scalars: FxHashSet<Name> = FxHashSet::default();
        for s in &l.body {
            s.walk(&mut |st| match st {
                Stmt::Assign { lhs, .. } | Stmt::AtomicAdd { lhs, .. } | Stmt::Pop(lhs) => {
                    let (set, name) = match lhs {
                        LValue::Var(v) => (&mut assigned_scalars, v),
                        LValue::Index { array: a, .. } => (&mut written_arrays, a),
                    };
                    set.insert(name.clone());
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
/// reason when the region shape is not invertible or the gather would
/// need too many loops; proving the plan's obligations is the caller's
/// job.
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
        s.walk_exprs(&mut |e| found |= is_elem(e, name));
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
                    if lhs
                        .indices()
                        .iter()
                        .any(|ix| mentions(ix, |e| is_elem(e, y)))
                    {
                        return Err(format!("seed array `{y}` indexes itself"));
                    }
                    // An exact increment's own self-read does not count.
                    let value = s.increment_parts().map_or(rhs, |(_, added)| added);
                    if mentions(value, |e| is_elem(e, y)) {
                        return Err(format!("seed array `{y}` reads itself"));
                    }
                }
                other => {
                    let mut touches = refs_array(other, y);
                    other.walk(&mut |st| {
                        touches |= matches!(st, Stmt::Assign { lhs, .. } | Stmt::AtomicAdd { lhs, .. }
                            | Stmt::Pop(lhs) if lhs.name() == y);
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
    let mut contribs: Vec<Contribution> = Vec::new();
    let mut seeds: Vec<(usize, Name, Expr)> = Vec::new();
    let seed_adjoints: Vec<(&Name, Name)> = (seed_set.iter())
        .map(|y| (y, Name::from(format!("{y}{suffix}"))))
        .collect();
    for (idx, lhs, rhs) in &contributing {
        let LValue::Index { array: y, indices } = lhs else {
            unreachable!()
        };
        let yb = &seed_adjoints
            .iter()
            .find(|(a, _)| *a == y)
            .expect("a seed")
            .1;
        let seed = Expr::index(yb, indices.clone());
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
            contribs.push(Contribution {
                aff,
                value: value.clone(),
            });
        }
        if !adj.increments.is_empty() {
            seeds.push((*idx, y.clone(), indices[0].clone()));
        }
    }
    if contribs.is_empty() {
        return Err(format!("no adjoint scatter into `{adjoint}` to invert"));
    }
    let clusters = cluster(&contribs, step);
    if clusters.len() > MAX_GATHER_LOOPS {
        return Err(format!(
            "gather would need {} loops (cap {MAX_GATHER_LOOPS})",
            clusters.len()
        ));
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

    Ok(TransposePlan {
        adjoint,
        contributions: contribs.len(),
        var: l.var.clone(),
        lo: l.lo.clone(),
        last: crate::transform::last_iterate(l),
        step,
        contribs,
        clusters,
        seeds,
        finalizations,
    })
}

/// An (array, index) location an obligation pair refers to.
type Site<'a> = (&'a Name, &'a Expr);

/// `(statement, site id)` of each access, interning its (array, index)
/// into `sites` by structural equality.
fn site_ids<'a>(
    sites: &mut Vec<Site<'a>>,
    accesses: &'a [(usize, Name, Expr)],
) -> Vec<(usize, usize)> {
    let id = |(stmt, y, e): &'a (usize, Name, Expr)| {
        let k = sites.iter().position(|&(a, ix)| a == y && ix == e);
        let k = k.unwrap_or_else(|| {
            sites.push((y, e));
            sites.len() - 1
        });
        (*stmt, k)
    };
    accesses.iter().map(id).collect()
}

/// Lay the contributions out in gather loops. They are grouped by
/// (counter coefficient, symbolic part, offset residue) — members of a
/// group share one inverse map up to a literal shift, so they can share a
/// gather loop grid — and nearby literal offsets of a group share a loop.
fn cluster(contribs: &[Contribution], step: i64) -> Vec<Cluster> {
    // (residue, members) per group, in first-appearance order.
    let mut groups: Vec<(i64, Vec<usize>)> = Vec::new();
    for (k, c) in contribs.iter().enumerate() {
        let res = c.aff.lit.rem_euclid(step);
        let same = |(r, members): &&mut (i64, Vec<usize>)| {
            let rep = &contribs[members[0]].aff;
            *r == res && rep.coef == c.aff.coef && rep.same_syms(&c.aff)
        };
        match groups.iter_mut().find(same) {
            Some((_, members)) => members.push(k),
            None => groups.push((res, vec![k])),
        }
    }
    // By symbolic part, rendered only where the parts differ.
    groups.sort_by(|(ra, a), (rb, b)| {
        let (a, b) = (&contribs[a[0]].aff, &contribs[b[0]].aff);
        let syms = || match a.same_syms(b) {
            true => Ordering::Equal,
            false => a.sym_key().cmp(&b.sym_key()),
        };
        a.coef.cmp(&b.coef).then_with(syms).then(ra.cmp(rb))
    });

    let mut clusters = Vec::new();
    for (_, members) in groups {
        let coef = contribs[members[0]].aff.coef;
        let mut lits: Vec<i64> = members.iter().map(|&k| contribs[k].aff.lit).collect();
        lits.sort_unstable();
        lits.dedup();
        let mut bands: Vec<(i64, i64)> = Vec::new();
        for &d in &lits {
            match bands.last_mut() {
                Some((_, hi)) if d - *hi <= CLUSTER_GAP => *hi = d,
                _ => bands.push((d, d)),
            }
        }
        for (d_min, d_max) in bands {
            clusters.push(Cluster {
                coef,
                d_min,
                d_max,
                // `members` is ascending, which is emission order.
                members: members
                    .iter()
                    .copied()
                    .filter(|&k| (d_min..=d_max).contains(&contribs[k].aff.lit))
                    .collect(),
            });
        }
    }
    clusters
}

impl TransposePlan {
    /// Number of gather loops [`TransposePlan::gather_loops`] builds.
    pub fn gather_loop_count(&self) -> usize {
        self.clusters.len()
    }

    /// The distinct (seed read, finalizing write) pairs of one seed array,
    /// as `(same, seed, write)` ids into the sites it returns; `same` marks
    /// the same-iteration family (the write in a later statement). Each
    /// family is deduplicated by site ids, in statement order.
    fn pairs(&self) -> (Vec<Site<'_>>, Vec<(bool, usize, usize)>) {
        let mut sites = Vec::new();
        let seeds = site_ids(&mut sites, &self.seeds);
        let finalizations = site_ids(&mut sites, &self.finalizations);
        let n = sites.len();
        let mut seen = vec![[false; 2]; n * n];
        let mut pairs = Vec::new();
        for &(s_stmt, s) in &seeds {
            for &(w_stmt, w) in &finalizations {
                if sites[s].0 != sites[w].0 {
                    continue;
                }
                for same in [false, true] {
                    let seen = &mut seen[s * n + w][usize::from(same)];
                    if !*seen && (!same || w_stmt > s_stmt) {
                        *seen = true;
                        pairs.push((same, s, w));
                    }
                }
            }
        }
        (sites, pairs)
    }

    /// The index pairs that must be shown disjoint before the gather may
    /// replace the scatter.
    pub fn obligations(&self) -> Obligations {
        let (sites, pairs) = self.pairs();
        let mut out = Obligations::default();
        for (same, s, w) in pairs {
            let pair = ObligationPair {
                array: sites[s].0.clone(),
                seed: vec![sites[s].1.clone()],
                write: vec![sites[w].1.clone()],
            };
            match same {
                true => out.same_iter.push(pair),
                false => out.cross_iter.push(pair),
            }
        }
        out
    }

    /// Conservative structural proof that every obligation pair is
    /// disjoint — the only evidence available under forced uniform mode.
    /// Both sides must decompose affinely with matching counter
    /// coefficient and symbolic part, leaving a literal separation
    /// argument.
    pub fn forced_safe(&self) -> bool {
        let (sites, pairs) = self.pairs();
        let affs: Vec<Option<Aff>> = sites.iter().map(|(_, e)| affine_in(e, &self.var)).collect();
        pairs.iter().all(|&(same, s, w)| {
            let (Some(a), Some(b)) = (&affs[s], &affs[w]) else {
                return false;
            };
            if a.coef != b.coef || a.coef.abs() != 1 || !a.same_syms(b) {
                false
            } else if same {
                a.lit != b.lit
            } else {
                // Alias across iterations needs coef·(i−i') = lit_w − lit_s
                // with i−i' a nonzero multiple of the step.
                let diff = b.lit - a.lit;
                diff == 0 || (self.step != 1 && diff % self.step != 0)
            }
        })
    }

    /// The gather loops, to run *before* the residual reversed loop (they
    /// read region-entry seed adjoint values). A `tanh` / `exp` / `sqrt`
    /// value a contribution reads twice is evaluated once, into a private
    /// real temporary named by `fresh`.
    pub fn gather_loops(&self, fresh: &mut dyn FnMut(Intrinsic) -> Name) -> Vec<Stmt> {
        let own: Arc<[Expr]> = [Expr::var(&self.var)].into();
        self.clusters
            .iter()
            .map(|c| self.gather_loop(c, &own, fresh))
            .collect()
    }

    /// The loop of one cluster; `own` is the element an iteration owns,
    /// `[i]`.
    fn gather_loop(
        &self,
        cl: &Cluster,
        own: &Arc<[Expr]>,
        fresh: &mut dyn FnMut(Intrinsic) -> Name,
    ) -> Stmt {
        let (var, lo, last) = (&self.var, &self.lo, &self.last);
        let (coef, d_min, d_max) = (cl.coef, cl.d_min, cl.d_max);
        let syms = &self.contribs[cl.members[0]].aff.syms;
        // The write band of offset `d`, where `coef·i_old + S + d` lands:
        // its first and its last element.
        let first = |d: i64| match coef {
            1 => add_lit(add_syms(lo.clone(), syms, 1), d),
            _ => fold_sub(syms_plus_lit(syms, d), last.clone()),
        };
        let end = |d: i64| match coef {
            1 => add_lit(add_syms(last.clone(), syms, 1), d),
            _ => fold_sub(syms_plus_lit(syms, d), lo.clone()),
        };

        let mut body: Vec<Stmt> = Vec::new();
        let mut private: Vec<Name> = Vec::new();
        for &k in &cl.members {
            let c = &self.contribs[k];
            let d = c.aff.lit;
            // Invert coef·i_old + S + d = i_new for i_old.
            let inverse = if coef == 1 {
                add_lit(add_syms(Expr::var(var), syms, -1), -d)
            } else {
                fold_sub(syms_plus_lit(syms, d), Expr::var(var))
            };
            // `value` with the counter replaced by the inverse, and the
            // literal chains that leaves folded, in one rebuild.
            let inverse = inverse.map(&mut fold_lits);
            let value = c.value.map(&mut |e| match e {
                Expr::Var(n) if n == var => Some(inverse.clone()),
                _ => fold_lits(e),
            });
            let mut member = vec![Stmt::increment(
                LValue::index(&self.adjoint, own.clone()),
                value,
            )];
            let values = bind_values(&mut member, false, fresh);
            if !values.is_empty() {
                private.extend(values.iter().map(|(t, _)| t.clone()));
                let defs = values.into_iter();
                let defs = defs.map(|(t, call)| Stmt::assign(LValue::Var(t), call));
                member.splice(0..0, defs);
            }
            // One-sided edge guards: only needed where the member's own
            // band is narrower than the cluster's.
            let lo_g = (d > d_min).then(|| BoolExpr::cmp(CmpOp::Ge, Expr::var(var), first(d)));
            let hi_g = (d < d_max).then(|| BoolExpr::cmp(CmpOp::Le, Expr::var(var), end(d)));
            let guard = match (lo_g, hi_g) {
                (Some(lo_g), Some(hi_g)) => Some(BoolExpr::And(lo_g.into(), hi_g.into())),
                (lo_g, hi_g) => lo_g.or(hi_g),
            };
            match guard {
                None => body.extend(member),
                Some(cond) => body.push(Stmt::If {
                    cond,
                    then_body: member,
                    else_body: Vec::new(),
                }),
            }
        }

        // Each iteration writes only its own element: plain shared
        // increments are race-free by construction.
        let mut referenced: BTreeSet<Name> = BTreeSet::new();
        for s in &body {
            s.walk_exprs(&mut |e| {
                if let Expr::Var(n) | Expr::Index { array: n, .. } = e {
                    referenced.insert(n.clone());
                }
            });
        }
        referenced.remove(var);
        for t in &private {
            referenced.remove(t);
        }
        let info = ParallelInfo {
            shared: referenced.into_iter().collect(),
            private,
            ..ParallelInfo::default()
        };
        // Loop bounds covering the union of the members' write bands.
        Stmt::For(Box::new(ForLoop {
            var: var.clone(),
            lo: first(d_min),
            hi: end(d_max),
            step: Expr::IntLit(self.step),
            body,
            parallel: Some(info),
        }))
    }
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

/// `base + s·Σ sign·sym`, for `s` = ±1.
fn add_syms(base: Expr, syms: &[(i64, Expr)], s: i64) -> Expr {
    syms.iter().fold(base, |e, (sign, t)| match sign * s >= 0 {
        true => e + t.clone(),
        false => e - t.clone(),
    })
}

/// `Σ sign·sym + k` with no base term.
fn syms_plus_lit(syms: &[(i64, Expr)], k: i64) -> Expr {
    match syms.split_first() {
        None => Expr::IntLit(k),
        Some(((s0, t0), rest)) => {
            let head = if *s0 >= 0 {
                t0.clone()
            } else {
                t0.clone().neg()
            };
            add_lit(add_syms(head, rest, 1), k)
        }
    }
}

/// One step of folding integer-literal `+`/`−` chains (`i + 6 - 6` → `i`),
/// for [`Expr::map`], which applies it bottom-up. The inverse-map
/// substitution stacks the gather shift on top of the seed's own literal
/// offset; a compiler folds the leftover arithmetic for free, but the
/// interpreted backends would pay it on every gather element. `None`
/// where the node is already folded.
fn fold_lits(e: &Expr) -> Option<Expr> {
    let Expr::Binary {
        op: op @ (BinOp::Add | BinOp::Sub),
        lhs,
        rhs,
    } = e
    else {
        return None;
    };
    let Expr::IntLit(b) = **rhs else {
        return None;
    };
    let k = if *op == BinOp::Add { b } else { -b };
    match &**lhs {
        Expr::IntLit(a) => Some(Expr::IntLit(a + k)),
        // Pull a literal off the left spine: `(x ± a) ± b`.
        Expr::Binary {
            op: inner @ (BinOp::Add | BinOp::Sub),
            lhs: x,
            rhs: ir,
        } if matches!(**ir, Expr::IntLit(_)) => {
            let Expr::IntLit(a) = **ir else {
                unreachable!()
            };
            let a = if *inner == BinOp::Add { a } else { -a };
            Some(add_lit((**x).clone(), a + k))
        }
        // `l + b` and `l - b` with `b > 0` are what `add_lit` builds.
        _ if b > 0 => None,
        l => Some(add_lit(l.clone(), k)),
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

    fn gathers(p: &TransposePlan) -> Vec<Stmt> {
        p.gather_loops(&mut |f| format!("ad_{}", f.name()).into())
    }

    /// A `y = f(x)` kernel: `body` (statements on lines) in one parallel
    /// `do i = 1, n, step`, `y` of the given intent.
    fn xy(y_intent: &str, step: i64, body: &str) -> String {
        let body: String = body.lines().map(|l| format!("    {l}\n")).collect();
        format!(
            "subroutine t(n, x, y)\n  integer, intent(in) :: n\n  real, intent(in) :: x(n)\n  \
             real, intent({y_intent}) :: y(n)\n  integer :: i\n  !$omp parallel do shared(x, y)\n  \
             do i = 1, n, {step}\n{body}  end do\nend subroutine\n"
        )
    }

    #[test]
    fn exact_increment_seed_gathers_without_guards() {
        let p = plan(&xy("inout", 1, "y(i) = y(i) + x(i + 1)"), "x").unwrap();
        assert_eq!(p.contributions, 1);
        assert_eq!(p.gather_loop_count(), 1);
        // No finalizations: trivially safe even without a prover.
        let ob = p.obligations();
        assert!(ob.cross_iter.is_empty() && ob.same_iter.is_empty());
        assert!(p.forced_safe());
        let text = body_text(&gathers(&p));
        assert!(text.contains("do i = 2, n + 1"), "{text}");
        assert!(text.contains("xb(i) = xb(i) + yb(i - 1)"), "{text}");
        assert!(!text.contains("if"), "{text}");
    }

    #[test]
    fn two_offsets_cluster_with_edge_guards() {
        let src = &xy("out", 1, "y(i) = x(i) + 2.0 * x(i + 2)");
        let p = plan(src, "x").unwrap();
        assert_eq!(p.contributions, 2);
        assert_eq!(p.gather_loop_count(), 1, "offsets 0 and 2 share a loop");
        // Overwrite of y finalizes yb(i); seed reads yb(i) at the same
        // location but only at the same (s, s) — no later statement, and
        // cross-iteration the offsets match, so structurally safe.
        let ob = p.obligations();
        assert_eq!(ob.cross_iter.len(), 1);
        assert!(ob.same_iter.is_empty());
        assert!(p.forced_safe());
        let text = body_text(&gathers(&p));
        assert!(text.contains("do i = 1, n + 2"), "{text}");
        assert!(text.contains("if (i .le. n) then"), "{text}");
        assert!(text.contains("if (i .ge. 3) then"), "{text}");
        assert!(text.contains("xb(i) = xb(i) + yb(i)"), "{text}");
        assert!(text.contains("xb(i) = xb(i) + yb(i - 2) * 2.0"), "{text}");
    }

    #[test]
    fn gather_evaluates_a_tanh_value_once() {
        let p = plan(&xy("out", 1, "y(i) = tanh(x(i + 1))"), "x").unwrap();
        let text = body_text(&gathers(&p));
        assert!(text.contains("private(ad_tanh)"), "{text}");
        assert!(text.contains("ad_tanh = tanh(x(i))"), "{text}");
        assert!(
            text.contains("xb(i) = xb(i) + yb(i - 1) * (1.0 - ad_tanh * ad_tanh)"),
            "{text}"
        );
        assert_eq!(text.matches("tanh(").count(), 1, "{text}");
    }

    #[test]
    fn reversed_map_inverts() {
        let src = &xy("out", 1, "y(i) = x(n + 1 - i)");
        let p = plan(src, "x").unwrap();
        assert_eq!(p.gather_loop_count(), 1);
        let text = body_text(&gathers(&p));
        assert!(text.contains("do i = n + 1 - n, n + 1 - 1"), "{text}");
        assert!(text.contains("xb(i) = xb(i) + yb(n + 1 - i)"), "{text}");
        assert!(p.forced_safe());
    }

    #[test]
    fn strided_loop_keeps_step() {
        let src = &xy("out", 3, "y(i) = x(i + 1)");
        let p = plan(src, "x").unwrap();
        let text = body_text(&gathers(&p));
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
        let src = &xy("out", 1, "y(i) = x(2 * i)");
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
        let src = &xy("out", 1, "y(i) = x(i)\ny(i) = x(i + 1)");
        let p = plan(src, "x").unwrap();
        assert_eq!(p.obligations().same_iter.len(), 1);
        assert!(!p.forced_safe());
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
        let src = &xy("out", 1, "y(2 * i) = x(i)\ny(2 * i + 1) = x(i + 1)");
        let p = plan(src, "x").unwrap();
        // Seed (2i) vs write (2i+1) cross-iteration: 2i = 2i'+1 has no
        // integer solution, but the affine forms differ non-literally
        // (coef 2), so the structural check refuses to vouch for it.
        assert!(!p.forced_safe());
    }

    #[test]
    fn affine_decomposition() {
        let e = Expr::var("i") + Expr::var("s") - Expr::int(3);
        let a = affine_in(&e, "i").unwrap();
        assert_eq!(a.coef, 1);
        assert_eq!(a.lit, -3);
        assert_eq!(a.sym_key(), "+s");
        let b = affine_in(&(Expr::var("s") + Expr::var("i") + Expr::int(4)), "i").unwrap();
        assert!(a.same_syms(&b) && b.same_syms(&a));
        let c = affine_in(&(Expr::var("i") - Expr::var("s")), "i").unwrap();
        assert!(!a.same_syms(&c) && a.sym_key() != c.sym_key());
        let e2 = Expr::int(7) - Expr::var("i");
        let a2 = affine_in(&e2, "i").unwrap();
        assert_eq!((a2.coef, a2.lit), (-1, 7));
        assert!(affine_in(&(Expr::int(2) * Expr::var("i")), "i").is_none());
    }
}
