//! Theory side of the search: the committed-literal set, feasibility
//! checks through the Fourier–Motzkin core, the EUF-lite congruence
//! closure, and cheap exact fast paths that avoid FM calls for literals
//! over atoms the linear core does not constrain.

use std::collections::BTreeSet;

use crate::ctrl::StopReason;
use crate::fm::Feasibility;
use crate::formula::{Literal, Rel};
use crate::linexpr::{AtomId, AtomKey, AtomTable, LinExpr};

use super::SearchCtx;

/// The set of literals committed on the current branch.
#[derive(Debug, Clone, Default)]
pub(crate) struct Committed {
    pub(crate) eqs: Vec<LinExpr>,
    pub(crate) ineqs: Vec<LinExpr>,
    pub(crate) nes: Vec<LinExpr>,
}

impl Committed {
    pub(crate) fn with(&self, lit: &Literal) -> Committed {
        let mut c = self.clone();
        c.push(lit);
        c
    }

    pub(crate) fn push(&mut self, lit: &Literal) {
        match lit.rel {
            Rel::Eq => self.eqs.push(lit.expr.clone()),
            Rel::Le => self.ineqs.push(lit.expr.clone()),
            Rel::Ne => self.nes.push(lit.expr.clone()),
        }
    }

    /// Top-level atoms of the linear (Eq/Le) core — the variables the FM
    /// backend actually constrains. Opaque/application atoms count as
    /// single variables here, exactly as FM sees them.
    fn core_atoms(&self) -> BTreeSet<AtomId> {
        let mut out = BTreeSet::new();
        for e in self.eqs.iter().chain(&self.ineqs) {
            out.extend(e.atoms());
        }
        out
    }
}

/// Feasibility of the committed set alone. Disequalities are handled by the
/// *independent* approximation: each `e ≠ 0` is refutable only if both
/// `e ≤ -1` and `e ≥ 1` are infeasible against the Eq/Le core; if every
/// disequality is individually satisfiable we report `Feasible`. This may
/// report `Feasible` for jointly-unsatisfiable disequality sets — the
/// conservative direction (a missed UNSAT keeps atomics in place).
pub(crate) fn committed_feasible(c: &Committed, ctx: &mut SearchCtx<'_>) -> Feasibility {
    let core = ctx.lia(&c.eqs, &c.ineqs);
    if core != Feasibility::Feasible {
        return core;
    }
    // The core is feasible, so any disequality mentioning an atom the core
    // never constrains is trivially satisfiable: extend a core solution by
    // an arbitrary value for the free atom. Exact, and saves two FM calls
    // per such disequality.
    let core_atoms = c.core_atoms();
    let mut unknown: Option<StopReason> = None;
    for ne in &c.nes {
        if !ne.is_const() && ne.atoms().any(|a| !core_atoms.contains(&a)) {
            continue;
        }
        match ne_feasible(ne, c, ctx) {
            Feasibility::Infeasible => return Feasibility::Infeasible,
            Feasibility::Unknown(r) => unknown = unknown.or(Some(r)),
            Feasibility::Feasible => {}
        }
    }
    match unknown {
        Some(r) => Feasibility::Unknown(r),
        None => Feasibility::Feasible,
    }
}

/// Can `ne ≠ 0` hold together with the Eq/Le core of `c`?
pub(crate) fn ne_feasible(ne: &LinExpr, c: &Committed, ctx: &mut SearchCtx<'_>) -> Feasibility {
    if ne.is_const() {
        return if ne.constant != 0 {
            Feasibility::Feasible
        } else {
            Feasibility::Infeasible
        };
    }
    // e ≤ -1 side.
    let mut lo = ne.clone();
    lo.constant += 1;
    let mut ineqs = c.ineqs.clone();
    ineqs.push(lo);
    let left = ctx.lia(&c.eqs, &ineqs);
    if left == Feasibility::Feasible {
        return Feasibility::Feasible;
    }
    // e ≥ 1 side: -e + 1 ≤ 0.
    let mut hi = ne.scale(-1);
    hi.constant += 1;
    let mut ineqs = c.ineqs.clone();
    ineqs.push(hi);
    let right = ctx.lia(&c.eqs, &ineqs);
    if right == Feasibility::Feasible {
        return Feasibility::Feasible;
    }
    match (left, right) {
        (Feasibility::Unknown(r), _) | (_, Feasibility::Unknown(r)) => Feasibility::Unknown(r),
        _ => Feasibility::Infeasible,
    }
}

/// Is literal `lit` jointly possible with committed set `c`?
pub(crate) fn lit_feasible(lit: &Literal, c: &Committed, ctx: &mut SearchCtx<'_>) -> Feasibility {
    match lit.rel {
        Rel::Ne => ne_feasible(&lit.expr, c, ctx),
        _ => {
            let trial = c.with(lit);
            ctx.lia(&trial.eqs, &trial.ineqs)
        }
    }
}

/// Congruence closure over uninterpreted applications: whenever the
/// committed equality core entails that two same-function applications
/// have pairwise equal arguments, their equality is added to the core.
/// This is the piece of Z3's EUF reasoning FormAD relies on when an index
/// equality (e.g. a committed query `j = i`) must propagate through a
/// gather like `c(j)`/`c(i)`.
pub(crate) fn congruence_close(c: &mut Committed, ctx: &mut SearchCtx<'_>) {
    // Collect application atoms reachable from the committed constraints.
    let mut apps: BTreeSet<AtomId> = BTreeSet::new();
    for e in c.eqs.iter().chain(&c.ineqs).chain(&c.nes) {
        collect_apps(e, ctx.table, &mut apps);
    }
    if apps.len() < 2 {
        return;
    }
    let apps: Vec<AtomId> = apps.into_iter().collect();
    for _round in 0..3 {
        let mut changed = false;
        for i in 0..apps.len() {
            for j in (i + 1)..apps.len() {
                let (a, b) = (apps[i], apps[j]);
                let (AtomKey::App(fa, args_a), AtomKey::App(fb, args_b)) =
                    (ctx.table.key(a), ctx.table.key(b))
                else {
                    continue;
                };
                if fa != fb || args_a.len() != args_b.len() {
                    continue;
                }
                let eq_atoms = LinExpr::atom(a).sub(&LinExpr::atom(b));
                if entailed_zero(&eq_atoms, c, ctx) {
                    continue; // already known equal
                }
                let all_args_equal = args_a
                    .iter()
                    .zip(args_b)
                    .all(|(x, y)| entailed_zero(&x.sub(y), c, ctx));
                if all_args_equal {
                    c.eqs.push(eq_atoms);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
}

/// Application atoms reachable from `e`, including through opaque args.
pub(crate) fn collect_apps(e: &LinExpr, table: &AtomTable, out: &mut BTreeSet<AtomId>) {
    for a in e.atoms() {
        collect_apps_atom(a, table, out);
    }
}

fn collect_apps_atom(a: AtomId, table: &AtomTable, out: &mut BTreeSet<AtomId>) {
    match table.key(a) {
        AtomKey::Sym(_) => {}
        AtomKey::App(_, args) => {
            if out.insert(a) {
                for arg in args {
                    collect_apps(arg, table, out);
                }
            }
        }
        AtomKey::MulOpaque(x, y) | AtomKey::DivOpaque(x, y) | AtomKey::ModOpaque(x, y) => {
            collect_apps(x, table, out);
            collect_apps(y, table, out);
        }
    }
}

/// Is `e = 0` entailed by the committed Eq/Le core? (Both strict sides
/// must be infeasible; `Unknown` counts as not entailed — conservative.)
///
/// Fast paths: a constant `e` is entailed zero iff it *is* zero, and an
/// `e` mentioning an atom the core never constrains can always deviate
/// from zero. Both are exact whenever the core is feasible; against an
/// infeasible core they may answer "not entailed" where FM would vacuously
/// say "entailed", which only ever suppresses adding equalities to an
/// already-infeasible set — the verdict cannot change.
pub(crate) fn entailed_zero(e: &LinExpr, c: &Committed, ctx: &mut SearchCtx<'_>) -> bool {
    if e.is_const() {
        return e.constant == 0;
    }
    let core_atoms = c.core_atoms();
    if e.atoms().any(|a| !core_atoms.contains(&a)) {
        return false;
    }
    let mut lo = e.clone();
    lo.constant += 1; // e ≤ -1
    let mut ineqs = c.ineqs.clone();
    ineqs.push(lo);
    if ctx.lia(&c.eqs, &ineqs) != Feasibility::Infeasible {
        return false;
    }
    let mut hi = e.scale(-1);
    hi.constant += 1; // e ≥ 1
    let mut ineqs = c.ineqs.clone();
    ineqs.push(hi);
    ctx.lia(&c.eqs, &ineqs) == Feasibility::Infeasible
}

/// Feasibility of an explicit literal set (the level-0 check of the
/// presolve-fixed literals and the probe): build the committed set,
/// close it under congruence, and run the committed check.
pub(crate) fn lits_feasible(lits: &[&Literal], ctx: &mut SearchCtx<'_>) -> Feasibility {
    let mut c = Committed::default();
    for lit in lits {
        c.push(lit);
    }
    congruence_close(&mut c, ctx);
    committed_feasible(&c, ctx)
}
