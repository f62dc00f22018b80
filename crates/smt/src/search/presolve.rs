//! Presolve: cheap, exact (equisatisfiable over ℤ) simplifications applied
//! before any search, so most Table-1-style queries resolve with
//! zero Fourier–Motzkin calls — and, because the assertion stack is
//! presolved *once per frame*, at a cost proportional to the query's own
//! clauses rather than to the whole stack.
//!
//! Rules:
//!
//! * **Canonicalization / GCD–parity normalization** — every literal is
//!   rewritten to a canonical form: `Eq`/`Ne` divided by the coefficient
//!   gcd `g` (if `g ∤ constant` the equality is constantly false and the
//!   disequality constantly true) and sign-normalized so the leading
//!   coefficient is positive; `Le` integer-tightened (`c + Σ g·kᵢaᵢ ≤ 0`
//!   becomes `⌈c/g⌉ + Σ kᵢaᵢ ≤ 0`, exact over ℤ). Canonical literals give
//!   each boolean variable a unique [`VarKey`] with a polarity, so a
//!   literal and its negation map to one variable.
//! * **Unit extraction** — one-literal clauses become *units*; a key fixed
//!   at both polarities is an immediate `Unsat`, and clauses mentioning a
//!   fixed key are resolved against it.
//! * **Equality substitution** — a unit equality with a `±1`-coefficient
//!   symbol pivot (not occurring inside any opaque/application atom) is
//!   solved for that symbol and substituted through the whole problem.
//! * **Interval propagation** — single-atom units induce `[lo, hi]`
//!   intervals; an empty interval is `Unsat`, and clause literals that are
//!   constantly true/false under interval evaluation are simplified away.
//! * **Free-atom discharge** — a literal over a symbol occurring exactly
//!   once in the whole problem (counting occurrences inside opaque atom
//!   keys) is always satisfiable (`Ne`/`Le` with any coefficient, `Eq`
//!   with coefficient `±1`), so its clause — or the unit itself — is
//!   discharged.
//!
//! | rule | extension-safe? | where it runs |
//! |---|---|---|
//! | canonicalization, gcd/parity | yes — per literal | [`extend`], on the delta and on rewritten literals only |
//! | unit extraction, resolution, dedup | yes — more clauses only add units | [`extend`], through the key-occurrence index |
//! | interval propagation | yes — bounds only tighten | [`extend`], through the atom-occurrence index |
//! | equality substitution | the rewrite is; pivot *eligibility* is not (a later clause may bind the pivot inside an opaque atom) | [`extend`] against the opaque-bound set of the clauses seen so far; a delta that binds a recorded pivot re-derives the prefix from its clauses; pivots freed by discharges are taken in [`finish`] |
//! | free-atom discharge | no — occurrence counts are global | [`finish`], per query, never stored |
//!
//! A [`Snapshot`] is the closure of one assertion-stack prefix under the
//! extension-safe rules. It is an immutable *layer* over its parent
//! (the snapshot of the frame below), so [`extend`] touches only the
//! delta's clauses plus whatever they rewrite, and a query's layer is
//! simply dropped on `pop`. Chunks (one per `assert`) are closed one at a
//! time in stack order, which makes a snapshot a function of the chunk
//! sequence alone: a stack split into any frames presolves to exactly
//! the problem the same chunks give a frameless solver.
//!
//! Every rule is verdict-exact, which is what keeps reports
//! byte-identical to the flat, presolve-free oracle.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::VecDeque;
use std::sync::Arc;

use crate::ctrl::StopReason;
use crate::formula::{Clause, Literal, Rel};
use crate::fx::{FxHashMap, FxHashSet};
use crate::linexpr::{AtomId, AtomKey, AtomTable, LinExpr};

use super::SearchCtx;

/// Identity of a boolean variable in the abstraction: a relation class
/// (`0` = equality family, `1` = inequality family) plus the canonical
/// representative expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct VarKey {
    class: u8,
    expr: LinExpr,
}

impl VarKey {
    /// Relation and expression of the literal asserted when this variable
    /// takes `polarity` — exactly the canonical form [`canon_lit`] maps
    /// onto `(self, polarity)`, so a canonical literal never needs
    /// storing beside its key.
    fn parts(&self, polarity: bool) -> (Rel, Cow<'_, LinExpr>) {
        match (self.class, polarity) {
            (0, true) => (Rel::Eq, Cow::Borrowed(&self.expr)),
            (0, false) => (Rel::Ne, Cow::Borrowed(&self.expr)),
            (_, true) => (Rel::Le, Cow::Borrowed(&self.expr)),
            (_, false) => {
                // ¬(e ≤ 0) ⇔ -e + 1 ≤ 0.
                let mut neg = self.expr.scale(-1);
                neg.constant += 1;
                (Rel::Le, Cow::Owned(neg))
            }
        }
    }

    /// The concrete literal asserted when this variable takes `polarity`.
    pub(crate) fn lit(&self, polarity: bool) -> Literal {
        let (rel, expr) = self.parts(polarity);
        Literal {
            rel,
            expr: expr.into_owned(),
        }
    }
}

/// Total order on canonical expressions (terms, then constant) — used only
/// for deterministic tie-breaking, never exposed.
fn lin_key_cmp(a: &LinExpr, b: &LinExpr) -> Ordering {
    a.terms.cmp(&b.terms).then(a.constant.cmp(&b.constant))
}

pub(crate) fn var_key_cmp(a: &VarKey, b: &VarKey) -> Ordering {
    a.class.cmp(&b.class).then(lin_key_cmp(&a.expr, &b.expr))
}

/// A canonicalized literal: ground truth value, or a variable + polarity
/// (the rewritten, tightened literal itself is `key.lit(polarity)`).
pub(crate) enum CanonLit {
    True,
    False,
    Var { key: VarKey, polarity: bool },
}

fn ceil_div(a: i128, b: i128) -> i128 {
    // b > 0.
    a.div_euclid(b) + if a.rem_euclid(b) != 0 { 1 } else { 0 }
}

fn scale_down(e: &LinExpr, g: i128, ceil_constant: bool) -> LinExpr {
    LinExpr {
        constant: if ceil_constant {
            ceil_div(e.constant, g)
        } else {
            e.constant / g
        },
        terms: e.terms.iter().map(|&(a, c)| (a, c / g)).collect(),
    }
}

/// `e ← -e`, in place.
fn negate(e: &mut LinExpr) {
    e.constant = -e.constant;
    for (_, c) in &mut e.terms {
        *c = -*c;
    }
}

/// Canonicalize one literal. Exact over ℤ.
pub(crate) fn canon_lit(lit: &Literal) -> CanonLit {
    let e = &lit.expr;
    if e.is_const() {
        let truth = match lit.rel {
            Rel::Eq => e.constant == 0,
            Rel::Ne => e.constant != 0,
            Rel::Le => e.constant <= 0,
        };
        return if truth {
            CanonLit::True
        } else {
            CanonLit::False
        };
    }
    let g = e.coeff_gcd(); // > 0: at least one nonzero coefficient
    match lit.rel {
        Rel::Eq | Rel::Ne => {
            if e.constant.rem_euclid(g) != 0 {
                // c + g·(…) is never 0 when g ∤ c (parity-style rule).
                return if lit.rel == Rel::Eq {
                    CanonLit::False
                } else {
                    CanonLit::True
                };
            }
            let mut n = scale_down(e, g, false);
            if n.terms[0].1 < 0 {
                negate(&mut n);
            }
            CanonLit::Var {
                key: VarKey { class: 0, expr: n },
                polarity: lit.rel == Rel::Eq,
            }
        }
        Rel::Le => {
            // The variable representative is the lesser (by
            // `lin_key_cmp`) of the literal and its negation `-n + 1`;
            // tightening is involutive (gcd is now 1), so both polarities
            // of one constraint land on the same key. The two differ in
            // the sign of every coefficient, so the leading one decides.
            let mut expr = scale_down(e, g, true);
            let polarity = expr.terms[0].1 < 0;
            if !polarity {
                negate(&mut expr);
                expr.constant += 1;
            }
            CanonLit::Var {
                key: VarKey { class: 1, expr },
                polarity,
            }
        }
    }
}

/// Count symbol occurrences in `e`, descending into application/opaque
/// atom keys so a symbol feeding a gather index is never considered free.
fn count_syms(e: &LinExpr, table: &AtomTable, counts: &mut FxHashMap<AtomId, u64>) {
    for a in e.atoms() {
        count_syms_atom(a, table, counts);
    }
}

fn count_syms_atom(a: AtomId, table: &AtomTable, counts: &mut FxHashMap<AtomId, u64>) {
    match table.key(a) {
        AtomKey::Sym(_) => *counts.entry(a).or_insert(0) += 1,
        AtomKey::App(_, args) => {
            for arg in args {
                count_syms(arg, table, counts);
            }
        }
        AtomKey::MulOpaque(x, y) | AtomKey::DivOpaque(x, y) | AtomKey::ModOpaque(x, y) => {
            count_syms(x, table, counts);
            count_syms(y, table, counts);
        }
    }
}

/// Symbols appearing (transitively) inside any opaque/application key of
/// `e` — these must not be used as substitution pivots, or congruence
/// reasoning over the enclosing applications would lose the link.
fn opaque_bound_syms(e: &LinExpr, table: &AtomTable, out: &mut FxHashSet<AtomId>) {
    for a in e.atoms() {
        match table.key(a) {
            AtomKey::Sym(_) => {}
            AtomKey::App(_, args) => {
                for arg in args {
                    inner_syms(arg, table, out);
                }
            }
            AtomKey::MulOpaque(x, y) | AtomKey::DivOpaque(x, y) | AtomKey::ModOpaque(x, y) => {
                inner_syms(x, table, out);
                inner_syms(y, table, out);
            }
        }
    }
}

fn inner_syms(e: &LinExpr, table: &AtomTable, out: &mut FxHashSet<AtomId>) {
    for a in e.atoms() {
        match table.key(a) {
            AtomKey::Sym(_) => {
                out.insert(a);
            }
            AtomKey::App(_, args) => {
                out.insert(a);
                for arg in args {
                    inner_syms(arg, table, out);
                }
            }
            AtomKey::MulOpaque(x, y) | AtomKey::DivOpaque(x, y) | AtomKey::ModOpaque(x, y) => {
                inner_syms(x, table, out);
                inner_syms(y, table, out);
            }
        }
    }
}

const UNBOUNDED: (i128, i128) = (i128::MIN, i128::MAX);

/// Saturating interval evaluation of `e` under per-atom bounds.
fn interval_eval(e: &LinExpr, bounds: impl Fn(AtomId) -> (i128, i128)) -> (i128, i128) {
    let mut lo = e.constant;
    let mut hi = e.constant;
    for &(a, k) in &e.terms {
        let (alo, ahi) = bounds(a);
        let (tlo, thi) = if k >= 0 {
            (alo.saturating_mul(k), ahi.saturating_mul(k))
        } else {
            (ahi.saturating_mul(k), alo.saturating_mul(k))
        };
        lo = lo.saturating_add(tlo);
        hi = hi.saturating_add(thi);
    }
    (lo, hi)
}

/// Truth of `expr rel 0` when every atom stays within its interval, if
/// decided.
fn interval_truth(
    rel: Rel,
    expr: &LinExpr,
    bounds: impl Fn(AtomId) -> (i128, i128),
) -> Option<bool> {
    let (lo, hi) = interval_eval(expr, bounds);
    match rel {
        Rel::Eq if lo == 0 && hi == 0 => Some(true),
        Rel::Eq if lo > 0 || hi < 0 => Some(false),
        Rel::Ne if lo == 0 && hi == 0 => Some(false),
        Rel::Ne if lo > 0 || hi < 0 => Some(true),
        Rel::Le if hi <= 0 => Some(true),
        Rel::Le if lo > 0 => Some(false),
        _ => None,
    }
}

/// The `[lo, hi]` bound a single-atom unit puts on its atom. Only Eq/Le
/// contribute: shaving Ne endpoints would make presolve *more* precise
/// than the solver's independent disequality approximation and let the
/// two search cores diverge on jointly-unsatisfiable disequality sets.
fn unit_bound(rel: Rel, expr: &LinExpr) -> Option<(AtomId, (i128, i128))> {
    let [(a, k)] = expr.terms[..] else {
        return None;
    };
    let c = expr.constant;
    // Canonical single-atom coefficients are ±1 (gcd-normalized).
    let bound = match (rel, k) {
        (Rel::Eq, 1) => (-c, -c),
        (Rel::Eq, -1) => (c, c),
        (Rel::Le, 1) => (i128::MIN, -c),
        (Rel::Le, -1) => (c, i128::MAX),
        _ => return None,
    };
    Some((a, bound))
}

/// `a = subst` solved from the equality `def = 0`, in which `a` has
/// coefficient `k = ±1`: `c + k·a + r = 0  ⇒  a = -k·(c + r)`.
fn solve_for(def: &LinExpr, a: AtomId, k: i128) -> LinExpr {
    def.add_scaled(&LinExpr::atom(a), -k).scale(-k)
}

/// `e` with `a` replaced by `subst`, if `a` occurs in it.
fn substitute(e: &LinExpr, a: AtomId, subst: &LinExpr) -> Option<LinExpr> {
    let c = e.coeff(a);
    (c != 0).then(|| {
        // e - c·a + c·subst, merged in one pass.
        let mut out = e.add_scaled(subst, c);
        if let Ok(i) = out.terms.binary_search_by_key(&a, |&(x, _)| x) {
            out.terms[i].1 -= c;
            if out.terms[i].1 == 0 {
                out.terms.remove(i);
            }
        } else {
            out = out.add_scaled(&LinExpr::atom(a), -c);
        }
        out
    })
}

/// A variable key shared between the slot holding it and the lookup
/// tables indexing it.
type Key = Arc<VarKey>;

/// A unit (fixed) literal in canonical form: `key.lit(polarity)`.
#[derive(Debug, Clone)]
struct Unit {
    key: Key,
    polarity: bool,
}

impl Unit {
    fn parts(&self) -> (Rel, Cow<'_, LinExpr>) {
        self.key.parts(self.polarity)
    }

    /// The `±1`-coefficient symbol this unit equality can be solved for:
    /// the first one `blocked` does not rule out.
    fn pivot(&self, table: &AtomTable, blocked: impl Fn(AtomId) -> bool) -> Option<(AtomId, i128)> {
        if self.key.class != 0 || !self.polarity {
            return None;
        }
        self.key.expr.terms.iter().copied().find(|&(a, k)| {
            (k == 1 || k == -1) && matches!(table.key(a), AtomKey::Sym(_)) && !blocked(a)
        })
    }
}

/// A residual clause: ≥ 2 canonical literals, as keys with polarities.
#[derive(Debug, Clone)]
struct Residual {
    keys: Vec<(Key, bool)>,
}

impl Residual {
    fn lits(&self) -> Vec<Literal> {
        self.keys.iter().map(|(k, p)| k.lit(*p)).collect()
    }
}

/// Order-independent identity of a residual clause, for deduplication.
type Signature = Vec<(Key, bool)>;

fn signature(keys: &[(Key, bool)]) -> Signature {
    let mut sig = keys.to_vec();
    sig.sort_by(|(a, pa), (b, pb)| var_key_cmp(a, b).then(pa.cmp(pb)));
    sig
}

/// The canonical literals of a clause, as keys with polarities: each
/// literal rewritten by `rewrite` (`None`: unchanged), canonicalized,
/// dropped when constantly false or falsified by a unit (`polarity_of`),
/// merged with an earlier occurrence of its key. `None` when a literal is
/// constantly true, holds as a unit, or meets its own negation.
fn resolve_clause(
    lits: &[Literal],
    rewrite: impl Fn(&LinExpr) -> Option<LinExpr>,
    polarity_of: impl Fn(&VarKey) -> Option<bool>,
) -> Option<Vec<(Key, bool)>> {
    let mut keys: Vec<(Key, bool)> = Vec::with_capacity(lits.len());
    for lit in lits {
        let rewritten = rewrite(&lit.expr).map(|expr| Literal { rel: lit.rel, expr });
        match canon_lit(rewritten.as_ref().unwrap_or(lit)) {
            CanonLit::True => return None,
            CanonLit::False => {}
            CanonLit::Var { key, polarity } => {
                match polarity_of(&key) {
                    Some(p) if p == polarity => return None,
                    Some(_) => continue, // falsified by a unit
                    None => {}
                }
                match keys.iter().find(|(k, _)| **k == key) {
                    // Opposite polarity within one clause: tautology.
                    Some((_, p)) if *p != polarity => return None,
                    Some(_) => {}
                    None => keys.push((Arc::new(key), polarity)),
                }
            }
        }
    }
    Some(keys)
}

/// A unit or clause slot queued for another look.
#[derive(Debug, Clone, Copy)]
enum Holder {
    Unit(usize),
    Clause(usize),
}

/// One layer of a slot array shared along a snapshot chain: the slots it
/// owns plus its rewrites of slots owned by the layers below. Slot ids
/// are stable, so a rewritten unit or clause keeps its place in the
/// problem handed to the search.
#[derive(Debug)]
struct Slots<T> {
    base: usize,
    own: Vec<Option<T>>,
    over: FxHashMap<usize, Option<T>>,
}

impl<T> Default for Slots<T> {
    fn default() -> Slots<T> {
        Slots {
            base: 0,
            own: Vec::new(),
            over: FxHashMap::default(),
        }
    }
}

impl<T> Slots<T> {
    /// An empty layer on top of `below`.
    fn above(below: &Slots<T>) -> Slots<T> {
        Slots {
            base: below.end(),
            ..Slots::default()
        }
    }

    /// The slot's content as far as this layer decides it (`None`: ask
    /// the layer below).
    fn local(&self, slot: usize) -> Option<Option<&T>> {
        if slot >= self.base {
            Some(self.own[slot - self.base].as_ref())
        } else {
            self.over.get(&slot).map(Option::as_ref)
        }
    }

    /// One past the last slot of this layer.
    fn end(&self) -> usize {
        self.base + self.own.len()
    }

    /// Set a slot's content; `slot == self.end()` appends a new slot.
    fn put(&mut self, slot: usize, value: Option<T>) {
        if slot == self.end() {
            self.own.push(value);
        } else if slot >= self.base {
            self.own[slot - self.base] = value;
        } else {
            self.over.insert(slot, value);
        }
    }
}

/// The distinct slots listed under one index key across layers, ascending.
fn occurrences<'a>(lists: impl Iterator<Item = &'a Vec<usize>>) -> Vec<usize> {
    let mut slots: Vec<usize> = lists.flatten().copied().collect();
    slots.sort_unstable();
    slots.dedup();
    slots
}

/// Live slot contents in slot order; `layers` runs nearest layer first.
fn live_slots<'a, T>(layers: &[&'a Slots<T>]) -> Vec<&'a T> {
    let mut out = Vec::new();
    for (depth, owner) in layers.iter().enumerate().rev() {
        let rewrites: Vec<&FxHashMap<usize, Option<T>>> = layers[..depth]
            .iter()
            .map(|l| &l.over)
            .filter(|over| !over.is_empty())
            .collect();
        for (i, own) in owner.own.iter().enumerate() {
            let slot = owner.base + i;
            let current = rewrites
                .iter()
                .find_map(|over| over.get(&slot))
                .unwrap_or(own);
            out.extend(current.as_ref());
        }
    }
    out
}

/// The assertion clauses of one `assert`, shared with the solver's stack.
pub(crate) type Chunk = Arc<Vec<Clause>>;

/// The closure of an assertion-stack prefix under the extension-safe
/// rules, stored as one immutable layer over the snapshot of the frame
/// below (see the module docs).
///
/// The lookup tables only ever gain entries; an entry whose slot has
/// since been rewritten is stale and is recognized as such by checking
/// it against the slot's current content.
#[derive(Debug, Default)]
pub(crate) struct Snapshot {
    parent: Option<Arc<Snapshot>>,
    units: Slots<Unit>,
    clauses: Slots<Residual>,
    unit_of: FxHashMap<Key, usize>,
    clause_of: FxHashMap<Signature, usize>,
    /// Clause slots mentioning a variable key.
    key_occ: FxHashMap<Key, Vec<usize>>,
    /// Clause slots mentioning an atom at top level.
    atom_occ: FxHashMap<AtomId, Vec<usize>>,
    /// Substitutions recorded by this layer, in application order.
    subst: Vec<(AtomId, LinExpr)>,
    /// Intervals tightened by this layer (overriding the layers below).
    iv: FxHashMap<AtomId, (i128, i128)>,
    /// Atoms this layer's clauses bind inside opaque/application keys.
    opaque: FxHashSet<AtomId>,
}

impl Snapshot {
    /// This layer and its ancestors, nearest first.
    fn layers(&self) -> impl Iterator<Item = &Snapshot> {
        std::iter::successors(Some(self), |s| s.parent.as_deref())
    }

    fn unit(&self, slot: usize) -> Option<&Unit> {
        self.layers().find_map(|l| l.units.local(slot)).flatten()
    }

    fn clause(&self, slot: usize) -> Option<&Residual> {
        self.layers().find_map(|l| l.clauses.local(slot)).flatten()
    }

    fn polarity_of(&self, key: &VarKey) -> Option<bool> {
        self.layers()
            .filter_map(|l| l.unit_of.get(key))
            .filter_map(|&slot| self.unit(slot))
            .find(|u| *u.key == *key)
            .map(|u| u.polarity)
    }

    fn clause_with(&self, sig: &Signature) -> Option<usize> {
        self.layers()
            .filter_map(|l| l.clause_of.get(sig))
            .copied()
            .find(|&slot| {
                self.clause(slot)
                    .is_some_and(|c| signature(&c.keys) == *sig)
            })
    }

    fn clauses_mentioning(&self, key: &VarKey) -> Vec<usize> {
        occurrences(self.layers().filter_map(|l| l.key_occ.get(key)))
    }

    fn clauses_holding(&self, a: AtomId) -> Vec<usize> {
        occurrences(self.layers().filter_map(|l| l.atom_occ.get(&a)))
    }

    /// Slots of the live units mentioning `a`, ascending. Units are not
    /// indexed by atom: only a new substitution asks, and its pivot
    /// typically occurs in most of them anyway.
    fn units_holding(&self, a: AtomId) -> Vec<usize> {
        (0..self.units.end())
            .filter(|&slot| self.unit(slot).is_some_and(|u| u.key.expr.coeff(a) != 0))
            .collect()
    }

    fn interval(&self, a: AtomId) -> (i128, i128) {
        self.layers()
            .find_map(|l| l.iv.get(&a))
            .copied()
            .unwrap_or(UNBOUNDED)
    }

    fn opaque_bound(&self, a: AtomId) -> bool {
        self.layers().any(|l| l.opaque.contains(&a))
    }

    fn is_pivot(&self, a: AtomId) -> bool {
        self.layers()
            .any(|l| l.subst.iter().any(|(pivot, _)| *pivot == a))
    }

    /// `e` under every recorded substitution, oldest first; `None` when
    /// it mentions no pivot.
    fn rewrite(&self, e: &LinExpr) -> Option<LinExpr> {
        let mut out = None;
        self.rewrite_into(e, &mut out);
        out
    }

    fn rewrite_into(&self, e: &LinExpr, out: &mut Option<LinExpr>) {
        if let Some(p) = &self.parent {
            p.rewrite_into(e, out);
        }
        for (a, subst) in &self.subst {
            if let Some(next) = substitute(out.as_ref().unwrap_or(e), *a, subst) {
                *out = Some(next);
            }
        }
    }

    /// Bring a clause to canonical form against the current state:
    /// substitute, canonicalize, resolve against the units, merge
    /// repeated keys, then drop literals the intervals decide. `None`
    /// when the clause is satisfied.
    fn normalize(&self, lits: &[Literal]) -> Option<Vec<(Key, bool)>> {
        let mut keys = resolve_clause(lits, |e| self.rewrite(e), |key| self.polarity_of(key))?;
        let mut i = 0;
        while keys.len() >= 2 && i < keys.len() {
            let (rel, expr) = keys[i].0.parts(keys[i].1);
            match interval_truth(rel, &expr, |a| self.interval(a)) {
                Some(true) => return None,
                Some(false) => {
                    keys.remove(i);
                }
                None => i += 1,
            }
        }
        Some(keys)
    }

    /// The live units and clauses in slot order.
    fn materialize(&self) -> (Vec<Unit>, Vec<Vec<Literal>>) {
        let layers: Vec<&Snapshot> = self.layers().collect();
        let units: Vec<&Slots<Unit>> = layers.iter().map(|l| &l.units).collect();
        let clauses: Vec<&Slots<Residual>> = layers.iter().map(|l| &l.clauses).collect();
        (
            live_slots(&units).into_iter().cloned().collect(),
            live_slots(&clauses)
                .into_iter()
                .map(Residual::lits)
                .collect(),
        )
    }
}

/// Why an extension did not produce a snapshot.
enum Halt {
    Unsat,
    Stopped(StopReason),
    /// The delta binds a recorded pivot inside an opaque atom, so the
    /// substitution the parent made is not the one the whole prefix
    /// would make.
    Repivot,
}

/// The snapshot of `below ++ delta`, given `parent`, the snapshot of
/// `below`: only `delta` is canonicalized, unless it binds one of the
/// parent's pivots inside an opaque atom — then the prefix is re-derived
/// from its clauses. `Err` when the governor interrupted the work.
fn extend(
    parent: &Arc<Snapshot>,
    below: &[Chunk],
    delta: &[Chunk],
    ctx: &mut SearchCtx<'_>,
) -> Result<Frame, StopReason> {
    let mut grown = Extender::over(parent, ctx.table).absorb(delta, ctx);
    if matches!(grown, Err(Halt::Repivot)) {
        let whole: Vec<Chunk> = below.iter().chain(delta).cloned().collect();
        grown = Extender::over(&Arc::default(), ctx.table).absorb(&whole, ctx);
    }
    match grown {
        Ok(snapshot) => Ok(Frame::Live(Arc::new(snapshot))),
        Err(Halt::Unsat) => Ok(Frame::Unsat),
        Err(Halt::Stopped(r)) => Err(r),
        Err(Halt::Repivot) => unreachable!("an empty snapshot records no pivot"),
    }
}

/// Builds one snapshot layer.
struct Extender<'t> {
    top: Snapshot,
    table: &'t AtomTable,
    /// Holders to revisit because a unit, interval or substitution they
    /// depend on changed.
    queue: VecDeque<Holder>,
    /// Unit slots added by the current chunk that may admit a pivot.
    pivotable: Vec<usize>,
}

impl<'t> Extender<'t> {
    fn over(parent: &Arc<Snapshot>, table: &'t AtomTable) -> Extender<'t> {
        Extender {
            top: Snapshot {
                parent: Some(Arc::clone(parent)),
                units: Slots::above(&parent.units),
                clauses: Slots::above(&parent.clauses),
                ..Snapshot::default()
            },
            table,
            queue: VecDeque::new(),
            pivotable: Vec::new(),
        }
    }

    fn absorb(mut self, chunks: &[Chunk], ctx: &mut SearchCtx<'_>) -> Result<Snapshot, Halt> {
        // Pivot eligibility is judged against everything the prefix binds
        // inside opaque atoms, so the delta's bindings are known before
        // its first clause is closed.
        let mut bound: FxHashSet<AtomId> = FxHashSet::default();
        for lit in chunks.iter().flat_map(|ch| ch.iter()).flat_map(|c| &c.lits) {
            opaque_bound_syms(&lit.expr, self.table, &mut bound);
        }
        for a in bound {
            if self.top.opaque_bound(a) {
                continue;
            }
            if self.top.is_pivot(a) {
                return Err(Halt::Repivot);
            }
            self.top.opaque.insert(a);
        }
        for chunk in chunks {
            for clause in chunk.iter() {
                if let Some(r) = ctx.gov.poll() {
                    return Err(Halt::Stopped(r));
                }
                ctx.presolve_clauses += 1;
                if let Some(keys) = self.top.normalize(&clause.lits) {
                    self.store(None, keys)?;
                }
                self.drain(ctx)?;
            }
            self.take_pivots(ctx)?;
        }
        Ok(self.top)
    }

    /// File a normalized clause, at `slot` (already vacated) when it is a
    /// rewrite of an existing one.
    fn store(&mut self, slot: Option<usize>, mut keys: Vec<(Key, bool)>) -> Result<(), Halt> {
        match keys.len() {
            0 => Err(Halt::Unsat),
            1 => {
                let (key, polarity) = keys.pop().expect("one key");
                self.add_unit(Unit { key, polarity }, None)
            }
            _ => {
                let sig = signature(&keys);
                if let Some(dup) = self.top.clause_with(&sig) {
                    // The earlier of two equal clauses stays.
                    match slot {
                        Some(s) if s < dup => self.top.clauses.put(dup, None),
                        _ => return Ok(()),
                    }
                }
                let slot = slot.unwrap_or(self.top.clauses.end());
                for (key, _) in &keys {
                    self.top
                        .key_occ
                        .entry(Arc::clone(key))
                        .or_default()
                        .push(slot);
                    for a in key.expr.atoms() {
                        self.top.atom_occ.entry(a).or_default().push(slot);
                    }
                }
                self.top.clause_of.insert(sig, slot);
                self.top.clauses.put(slot, Some(Residual { keys }));
                Ok(())
            }
        }
    }

    /// Fix a canonical literal — at `slot` (already vacated) when it is a
    /// rewrite of an existing unit — and queue what it affects.
    fn add_unit(&mut self, unit: Unit, slot: Option<usize>) -> Result<(), Halt> {
        match self.top.polarity_of(&unit.key) {
            Some(p) if p == unit.polarity => return Ok(()),
            Some(_) => return Err(Halt::Unsat),
            None => {}
        }
        let slot = slot.unwrap_or(self.top.units.end());
        let (rel, expr) = unit.parts();
        let bound = unit_bound(rel, &expr);
        if unit.pivot(self.table, |_| false).is_some() {
            self.pivotable.push(slot);
        }
        self.queue.extend(
            self.top
                .clauses_mentioning(&unit.key)
                .into_iter()
                .map(Holder::Clause),
        );
        self.top.unit_of.insert(Arc::clone(&unit.key), slot);
        self.top.units.put(slot, Some(unit));
        if let Some((a, (lo, hi))) = bound {
            let old = self.top.interval(a);
            let new = (old.0.max(lo), old.1.min(hi));
            if new != old {
                if new.0 > new.1 {
                    return Err(Halt::Unsat);
                }
                self.top.iv.insert(a, new);
                self.queue
                    .extend(self.top.clauses_holding(a).into_iter().map(Holder::Clause));
            }
        }
        Ok(())
    }

    /// Revisit queued holders until nothing changes.
    fn drain(&mut self, ctx: &mut SearchCtx<'_>) -> Result<(), Halt> {
        while let Some(holder) = self.queue.pop_front() {
            if let Some(r) = ctx.gov.poll() {
                return Err(Halt::Stopped(r));
            }
            match holder {
                Holder::Unit(slot) => {
                    let Some(unit) = self.top.unit(slot) else {
                        continue;
                    };
                    let (rel, expr) = unit.parts();
                    let Some(expr) = self.top.rewrite(&expr) else {
                        continue;
                    };
                    self.top.units.put(slot, None);
                    match canon_lit(&Literal { rel, expr }) {
                        CanonLit::True => {}
                        CanonLit::False => return Err(Halt::Unsat),
                        CanonLit::Var { key, polarity } => {
                            let key = Arc::new(key);
                            self.add_unit(Unit { key, polarity }, Some(slot))?;
                        }
                    }
                }
                Holder::Clause(slot) => {
                    let Some(clause) = self.top.clause(slot) else {
                        continue;
                    };
                    let rewritten = match self.top.normalize(&clause.lits()) {
                        Some(keys) if keys == clause.keys => continue,
                        other => other,
                    };
                    self.top.clauses.put(slot, None);
                    if let Some(keys) = rewritten {
                        self.store(Some(slot), keys)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Solve the chunk's new unit equalities for their pivots, earliest
    /// slot first, re-closing after each substitution.
    fn take_pivots(&mut self, ctx: &mut SearchCtx<'_>) -> Result<(), Halt> {
        loop {
            self.pivotable.sort_unstable();
            self.pivotable.dedup();
            let found = self.pivotable.iter().enumerate().find_map(|(i, &slot)| {
                let unit = self.top.unit(slot)?;
                let (a, k) = unit.pivot(self.table, |a| self.top.opaque_bound(a))?;
                Some((i, slot, a, solve_for(&unit.key.expr, a, k)))
            });
            let Some((i, slot, a, subst)) = found else {
                self.pivotable.clear();
                return Ok(());
            };
            self.pivotable.drain(..=i);
            // The defining equality goes: the pivot occurs nowhere else
            // once its holders are rewritten.
            self.top.units.put(slot, None);
            self.top.subst.push((a, subst));
            // Units first, as the fixed set is rewritten before the
            // clauses are looked at again.
            self.queue
                .extend(self.top.units_holding(a).into_iter().map(Holder::Unit));
            self.queue
                .extend(self.top.clauses_holding(a).into_iter().map(Holder::Clause));
            self.drain(ctx)?;
        }
    }
}

/// Cached presolve state of one solver frame level.
#[derive(Debug, Clone)]
pub(crate) enum Frame {
    /// The stack up to this level is already contradictory.
    Unsat,
    Live(Arc<Snapshot>),
}

/// Presolve the assertion stack `chunks`, whose open frames begin at
/// `marks`. `frames[l]` caches the snapshot of level `l` — the chunks
/// below `marks[l]`, or all of them for the top level; levels it does not
/// hold yet are built here, each by extending the one below, and kept for
/// the next call.
pub(crate) fn presolve_stack(
    frames: &mut Vec<Frame>,
    chunks: &[Chunk],
    marks: &[usize],
    ctx: &mut SearchCtx<'_>,
) -> Presolved {
    for level in frames.len()..=marks.len() {
        let start = level.checked_sub(1).map_or(0, |below| marks[below]);
        let end = marks.get(level).copied().unwrap_or(chunks.len());
        let parent = match frames.last() {
            Some(Frame::Unsat) => {
                frames.push(Frame::Unsat);
                continue;
            }
            Some(Frame::Live(parent)) if start == end => {
                frames.push(Frame::Live(Arc::clone(parent)));
                continue;
            }
            Some(Frame::Live(parent)) => Arc::clone(parent),
            None => Arc::default(),
        };
        match extend(&parent, &chunks[..start], &chunks[start..end], ctx) {
            Ok(frame) => frames.push(frame),
            Err(r) => return Presolved::Stopped(r),
        }
    }
    match frames.last().expect("level 0 always exists") {
        Frame::Unsat => Presolved::Unsat,
        Frame::Live(top) => finish(top, ctx),
    }
}

/// Result of presolving an assertion stack.
pub(crate) enum Presolved {
    /// Contradiction found without any theory call.
    Unsat,
    /// Interrupted by the governor mid-presolve.
    Stopped(StopReason),
    /// Simplified problem: conjunctive fixed literals (outside the boolean
    /// abstraction; each is `key.lit(polarity)`, spelled out only when
    /// the search starts) plus residual clauses of ≥ 2 canonical literals
    /// each.
    Reduced {
        fixed: Vec<(Arc<VarKey>, bool)>,
        clauses: Vec<Vec<Literal>>,
    },
}

struct Fixed {
    // Insertion-ordered for determinism; the map only answers lookups.
    items: Vec<Unit>,
    index: FxHashMap<Key, usize>,
}

impl Fixed {
    fn polarity_of(&self, key: &VarKey) -> Option<bool> {
        self.index.get(key).map(|&i| self.items[i].polarity)
    }

    /// Returns `false` on contradiction (key already fixed oppositely).
    #[must_use]
    fn insert(&mut self, unit: Unit) -> bool {
        match self.index.get(&unit.key) {
            Some(&i) => self.items[i].polarity == unit.polarity,
            None => {
                self.index.insert(Arc::clone(&unit.key), self.items.len());
                self.items.push(unit);
                true
            }
        }
    }

    fn rebuild_index(&mut self) {
        self.index.clear();
        for (i, unit) in self.items.iter().enumerate() {
            self.index.insert(Arc::clone(&unit.key), i);
        }
    }
}

/// Finish presolving the stack a snapshot stands for: run every rule —
/// the whole-problem ones included — to fixpoint over its units and
/// clauses. The snapshot is not changed, so what is discharged here for
/// one query is still there for the next.
pub(crate) fn finish(snapshot: &Snapshot, ctx: &mut SearchCtx<'_>) -> Presolved {
    let (items, mut work) = snapshot.materialize();
    let mut fixed = Fixed {
        items,
        index: FxHashMap::default(),
    };
    // The snapshot is already closed under rule 1, so the first round
    // starts at rule 2 and the unit index is built only if a later round
    // needs it.
    let mut closed = true;

    loop {
        if let Some(r) = ctx.gov.poll() {
            return Presolved::Stopped(r);
        }
        let mut changed = false;

        // 1. Canonicalize clauses; resolve against the fixed set; extract
        //    units; drop tautologies/duplicates.
        if !std::mem::take(&mut closed) {
            if fixed.index.len() != fixed.items.len() {
                fixed.rebuild_index();
            }
            ctx.presolve_clauses += work.len() as u64;
            let mut seen_clauses: FxHashSet<Signature> = FxHashSet::default();
            let mut next: Vec<Vec<Literal>> = Vec::with_capacity(work.len());
            for clause in work.drain(..) {
                let Some(mut keys) =
                    resolve_clause(&clause, |_| None, |key| fixed.polarity_of(key))
                else {
                    changed = true; // satisfied
                    continue;
                };
                changed |= keys.len() != clause.len();
                match keys.len() {
                    0 => return Presolved::Unsat,
                    1 => {
                        let (key, polarity) = keys.pop().expect("one key");
                        if !fixed.insert(Unit { key, polarity }) {
                            return Presolved::Unsat;
                        }
                        changed = true;
                    }
                    _ => {
                        if seen_clauses.insert(signature(&keys)) {
                            next.push(Residual { keys }.lits());
                        } else {
                            changed = true; // duplicate clause dropped
                        }
                    }
                }
            }
            work = next;
        }

        // 2. Equality substitution: solve one fixed equality for a ±1
        //    symbol pivot and eliminate that symbol everywhere. Judged
        //    against what the *current* problem binds inside opaque
        //    atoms, which discharges may have shrunk since the snapshot
        //    was taken.
        let mut opaque: FxHashSet<AtomId> = FxHashSet::default();
        for unit in &fixed.items {
            opaque_bound_syms(&unit.parts().1, ctx.table, &mut opaque);
        }
        for clause in &work {
            for lit in clause {
                opaque_bound_syms(&lit.expr, ctx.table, &mut opaque);
            }
        }
        let pivot = fixed.items.iter().enumerate().find_map(|(i, unit)| {
            let (a, k) = unit.pivot(ctx.table, |a| opaque.contains(&a))?;
            Some((i, a, k))
        });
        if let Some((idx, a, k)) = pivot {
            let subst = solve_for(&fixed.items[idx].key.expr, a, k);
            for clause in work.iter_mut() {
                for lit in clause.iter_mut() {
                    if let Some(e) = substitute(&lit.expr, a, &subst) {
                        lit.expr = e;
                    }
                }
            }
            // Rebuild the fixed set: drop the defining equality, substitute
            // into the rest, re-canonicalize (substituted literals may
            // become ground or collide with other fixed keys).
            let old = std::mem::take(&mut fixed.items);
            fixed.index.clear();
            for (i, unit) in old.into_iter().enumerate() {
                if i == idx {
                    continue; // defining equality: pivot now occurs nowhere else
                }
                let (rel, expr) = unit.parts();
                let rewritten = match substitute(&expr, a, &subst) {
                    None => unit,
                    Some(expr) => match canon_lit(&Literal { rel, expr }) {
                        CanonLit::True => continue,
                        CanonLit::False => return Presolved::Unsat,
                        CanonLit::Var { key, polarity } => Unit {
                            key: Arc::new(key),
                            polarity,
                        },
                    },
                };
                if !fixed.insert(rewritten) {
                    return Presolved::Unsat;
                }
            }
            continue; // re-canonicalize clauses before further rules
        }

        // 3. Interval propagation from single-atom fixed literals.
        let mut iv: FxHashMap<AtomId, (i128, i128)> = FxHashMap::default();
        for unit in &fixed.items {
            let (rel, expr) = unit.parts();
            if let Some((a, (lo, hi))) = unit_bound(rel, &expr) {
                let entry = iv.entry(a).or_insert(UNBOUNDED);
                *entry = (entry.0.max(lo), entry.1.min(hi));
            }
        }
        if iv.values().any(|&(lo, hi)| lo > hi) {
            return Presolved::Unsat;
        }
        if !iv.is_empty() {
            let bounds = |a: AtomId| iv.get(&a).copied().unwrap_or(UNBOUNDED);
            let mut next: Vec<Vec<Literal>> = Vec::with_capacity(work.len());
            for clause in work.drain(..) {
                let mut lits: Vec<Literal> = Vec::with_capacity(clause.len());
                let mut satisfied = false;
                for lit in clause {
                    match interval_truth(lit.rel, &lit.expr, bounds) {
                        Some(true) => {
                            satisfied = true;
                            break;
                        }
                        Some(false) => changed = true,
                        None => lits.push(lit),
                    }
                }
                if satisfied {
                    changed = true;
                    continue;
                }
                if lits.is_empty() {
                    return Presolved::Unsat;
                }
                next.push(lits);
            }
            work = next;
        }

        // 4. Free-atom discharge: a symbol with exactly one occurrence in
        //    the whole problem makes its literal unconditionally
        //    satisfiable (Ne/Le any coefficient; Eq needs ±1).
        let mut counts: FxHashMap<AtomId, u64> = FxHashMap::default();
        for unit in &fixed.items {
            count_syms(&unit.parts().1, ctx.table, &mut counts);
        }
        for clause in &work {
            for lit in clause {
                count_syms(&lit.expr, ctx.table, &mut counts);
            }
        }
        let free_lit = |rel: Rel, expr: &LinExpr| -> bool {
            expr.terms.iter().any(|&(a, k)| {
                matches!(ctx.table.key(a), AtomKey::Sym(_))
                    && counts.get(&a) == Some(&1)
                    && (rel != Rel::Eq || k == 1 || k == -1)
            })
        };
        let before = work.len();
        work.retain(|clause| !clause.iter().any(|lit| free_lit(lit.rel, &lit.expr)));
        if work.len() != before {
            changed = true;
        }
        let before = fixed.items.len();
        fixed.items.retain(|unit| {
            let (rel, expr) = unit.parts();
            !free_lit(rel, &expr)
        });
        if fixed.items.len() != before {
            fixed.rebuild_index();
            changed = true;
        }

        if !changed {
            break;
        }
    }

    Presolved::Reduced {
        fixed: fixed
            .items
            .into_iter()
            .map(|unit| (unit.key, unit.polarity))
            .collect(),
        clauses: work,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every expression over atoms 0 and 1 with small coefficients.
    fn small_exprs() -> Vec<LinExpr> {
        let mut out = Vec::new();
        for constant in -3..=3 {
            for c0 in -4..=4 {
                for c1 in -4..=4 {
                    let terms = [(AtomId(0), c0), (AtomId(1), c1)]
                        .into_iter()
                        .filter(|&(_, c)| c != 0)
                        .collect();
                    out.push(LinExpr { constant, terms });
                }
            }
        }
        out
    }

    /// `Le` canonicalization spelled out: build the negation and keep the
    /// lesser of the two.
    fn reference_le(e: &LinExpr) -> (LinExpr, bool) {
        let n = scale_down(e, e.coeff_gcd(), true);
        let mut neg = n.scale(-1);
        neg.constant += 1;
        if lin_key_cmp(&n, &neg) != Ordering::Greater {
            (n, true)
        } else {
            (neg, false)
        }
    }

    #[test]
    fn le_representative_is_the_lesser_of_literal_and_negation() {
        for e in small_exprs().into_iter().filter(|e| !e.is_const()) {
            let lit = Literal {
                rel: Rel::Le,
                expr: e.clone(),
            };
            let CanonLit::Var { key, polarity } = canon_lit(&lit) else {
                panic!("{e:?} is not ground");
            };
            assert_eq!((key.expr.clone(), polarity), reference_le(&e), "{e:?}");
            // Both polarities of one constraint share the key.
            let CanonLit::Var {
                key: neg_key,
                polarity: neg_polarity,
            } = canon_lit(&lit.negate())
            else {
                panic!("negation of {e:?} is not ground");
            };
            assert_eq!((neg_key, neg_polarity), (key, !polarity), "{e:?}");
        }
    }

    #[test]
    fn eq_representative_has_a_positive_leading_coefficient() {
        for e in small_exprs().into_iter().filter(|e| !e.is_const()) {
            let lit = Literal {
                rel: Rel::Eq,
                expr: e.clone(),
            };
            match canon_lit(&lit) {
                CanonLit::Var { key, polarity } => {
                    assert!(polarity);
                    assert!(key.expr.terms[0].1 > 0, "{e:?}");
                    let g = e.coeff_gcd();
                    let sign = if e.terms[0].1 < 0 { -1 } else { 1 };
                    assert_eq!(key.expr, scale_down(&e, g, false).scale(sign), "{e:?}");
                }
                CanonLit::False => assert_ne!(e.constant.rem_euclid(e.coeff_gcd()), 0),
                CanonLit::True => panic!("{e:?} = 0 is not a tautology"),
            }
        }
    }

    #[test]
    fn substitute_is_remove_then_add() {
        let a = AtomId(0);
        for e in small_exprs() {
            for subst in small_exprs() {
                let c = e.coeff(a);
                let want =
                    (c != 0).then(|| e.add_scaled(&LinExpr::atom(a), -c).add_scaled(&subst, c));
                assert_eq!(substitute(&e, a, &subst), want, "{e:?} [{subst:?}]");
            }
        }
    }
}
