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
//!   each boolean variable a unique [`Key`] in the solver's [`Arena`]
//!   with a polarity, so a literal and its negation map to one variable.
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
//! Literals live in the solver's [`Arena`] and are handled by id: a
//! snapshot stores `(Key, polarity)` pairs, and [`finish`] works in
//! buffers the arena keeps from one query to the next.
//!
//! Every rule is verdict-exact, which is what keeps reports
//! byte-identical to the flat, presolve-free oracle.

use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::mem::take;
use std::sync::Arc;

use crate::ctrl::StopReason;
use crate::formula::{Assertion, Literal, Rel};
use crate::fx::{FxHashMap, FxHashSet, FxHasher};
use crate::linexpr::{AtomId, AtomKey, AtomTable, LinExpr};

use super::SearchCtx;

/// A boolean variable of the abstraction: the id of a canonical literal
/// family in the solver's [`Arena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct Key(u32);

/// A canonical literal: a variable at a polarity.
pub(crate) type Lit = (Key, bool);

/// One interned variable.
#[derive(Debug, Clone)]
struct Entry {
    /// `0`: the equality family (`Eq` / `Ne`); `1`: the inequality family
    /// (`Le` at both polarities).
    class: u8,
    /// The representative: the literal's expression at polarity `true`
    /// (at both polarities in class 0).
    expr: LinExpr,
    /// Class 1 at polarity `false`: `-expr + 1 ≤ 0`.
    neg: LinExpr,
    /// The key interned before this one with the same hash.
    next: Option<Key>,
}

/// The canonical literals one solver has met, addressed by [`Key`], plus
/// the buffers presolve reuses from query to query. It lives and dies
/// with its solver.
#[derive(Debug, Clone, Default)]
pub(crate) struct Arena {
    entries: Vec<Entry>,
    /// Hash of `(class, representative)` → the latest key with it.
    heads: FxHashMap<u64, Key>,
    /// Canonicalization buffer.
    row: LinExpr,
    /// Substitution buffers (see [`Snapshot::rewrite`]).
    rewritten: LinExpr,
    spare: LinExpr,
    finish: Buffers,
}

/// A canonicalized literal: ground truth value, or a variable + polarity.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CanonLit {
    True,
    False,
    Var(Lit),
}

impl CanonLit {
    /// The variable literal, where resolution has left only those.
    fn lit(self) -> Lit {
        match self {
            CanonLit::Var(l) => l,
            _ => unreachable!("resolution leaves only variables"),
        }
    }
}

impl Arena {
    /// Relation and expression of the literal `(key, polarity)` stands for.
    pub(crate) fn parts(&self, (key, polarity): Lit) -> (Rel, &LinExpr) {
        let e = &self.entries[key.0 as usize];
        match (e.class, polarity) {
            (0, true) => (Rel::Eq, &e.expr),
            (0, false) => (Rel::Ne, &e.expr),
            (_, true) => (Rel::Le, &e.expr),
            (_, false) => (Rel::Le, &e.neg),
        }
    }

    /// The concrete literal `(key, polarity)` stands for.
    pub(crate) fn lit(&self, lit: Lit) -> Literal {
        let (rel, expr) = self.parts(lit);
        Literal {
            rel,
            expr: expr.clone(),
        }
    }

    fn class(&self, key: Key) -> u8 {
        self.entries[key.0 as usize].class
    }

    /// The representative expression of `key`.
    fn expr(&self, key: Key) -> &LinExpr {
        &self.entries[key.0 as usize].expr
    }

    /// The key of `(class, self.row)`, interning it when new.
    fn intern_row(&mut self, class: u8) -> Key {
        let mut h = FxHasher::default();
        class.hash(&mut h);
        self.row.hash(&mut h);
        let h = h.finish();
        let mut at = self.heads.get(&h).copied();
        while let Some(key) = at {
            let e = &self.entries[key.0 as usize];
            if e.class == class && e.expr == self.row {
                return key;
            }
            at = e.next;
        }
        let key = Key(self.entries.len() as u32);
        let expr = self.row.clone();
        let neg = match class {
            0 => LinExpr::default(),
            _ => {
                let mut neg = expr.scale(-1);
                neg.constant += 1;
                neg
            }
        };
        let next = self.heads.insert(h, key);
        self.entries.push(Entry {
            class,
            expr,
            neg,
            next,
        });
        key
    }

    /// Canonicalize the literal `e rel 0`. Exact over ℤ.
    pub(crate) fn canon(&mut self, rel: Rel, e: &LinExpr) -> CanonLit {
        if e.is_const() {
            let truth = match rel {
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
        let row = &mut self.row;
        let (class, polarity) = match rel {
            Rel::Eq | Rel::Ne => {
                if e.constant.rem_euclid(g) != 0 {
                    // c + g·(…) is never 0 when g ∤ c (parity-style rule).
                    return if rel == Rel::Eq {
                        CanonLit::False
                    } else {
                        CanonLit::True
                    };
                }
                scale_down(e, g, false, row);
                if row.terms[0].1 < 0 {
                    negate(row);
                }
                (0, rel == Rel::Eq)
            }
            Rel::Le => {
                // The variable representative is the lesser (terms, then
                // constant) of the literal and its negation `-n + 1`;
                // tightening is involutive (gcd is now 1), so both
                // polarities of one constraint land on the same key. The
                // two differ in the sign of every coefficient, so the
                // leading one decides.
                scale_down(e, g, true, row);
                let polarity = row.terms[0].1 < 0;
                if !polarity {
                    negate(row);
                    row.constant += 1;
                }
                (1, polarity)
            }
        };
        CanonLit::Var((self.intern_row(class), polarity))
    }

    /// The `±1`-coefficient symbol the unit `lit` can be solved for, if
    /// it is an equality: the first one `blocked` does not rule out.
    fn pivot(
        &self,
        (key, polarity): Lit,
        table: &AtomTable,
        blocked: impl Fn(AtomId) -> bool,
    ) -> Option<(AtomId, i128)> {
        if self.class(key) != 0 || !polarity {
            return None;
        }
        self.expr(key).terms.iter().copied().find(|&(a, k)| {
            (k == 1 || k == -1) && matches!(table.key(a), AtomKey::Sym(_)) && !blocked(a)
        })
    }
}

fn ceil_div(a: i128, b: i128) -> i128 {
    // b > 0.
    a.div_euclid(b) + if a.rem_euclid(b) != 0 { 1 } else { 0 }
}

/// `out ← e / g`, the constant rounded up when `ceil_constant`.
fn scale_down(e: &LinExpr, g: i128, ceil_constant: bool, out: &mut LinExpr) {
    out.constant = if ceil_constant {
        ceil_div(e.constant, g)
    } else {
        e.constant / g
    };
    out.terms.clear();
    out.terms.extend(e.terms.iter().map(|&(a, c)| (a, c / g)));
}

/// `e ← -e`, in place.
fn negate(e: &mut LinExpr) {
    e.constant = -e.constant;
    for (_, c) in &mut e.terms {
        *c = -*c;
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
    let mut out = LinExpr::default();
    substitute_into(e, a, subst, &mut out).then_some(out)
}

/// `out ← e` with `a` replaced by `subst`; `false` (and `out` unspecified)
/// when `a` does not occur in `e`.
fn substitute_into(e: &LinExpr, a: AtomId, subst: &LinExpr, out: &mut LinExpr) -> bool {
    let c = e.coeff(a);
    if c == 0 {
        return false;
    }
    // e - c·a + c·subst, merged in one pass.
    e.add_scaled_into(subst, c, out);
    match out.terms.binary_search_by_key(&a, |&(x, _)| x) {
        Ok(i) => {
            out.terms[i].1 -= c;
            if out.terms[i].1 == 0 {
                out.terms.remove(i);
            }
        }
        Err(i) => out.terms.insert(i, (a, -c)),
    }
    true
}

/// Whether two clauses of distinct literals hold the same literals.
fn same_lits(a: &[Lit], b: &[Lit]) -> bool {
    a.len() == b.len() && a.iter().all(|l| b.contains(l))
}

/// One literal of a clause on its way into the canonical form.
#[derive(Clone, Copy)]
enum Src<'a> {
    /// As asserted.
    Raw(&'a Literal),
    /// Already canonical (a stored clause looked at again).
    Canon(Lit),
}

/// The canonical literals of a clause, into `keys`: constantly false
/// literals and literals a unit falsifies (`polarity_of`) dropped, a
/// repeated key merged. `false` when a literal is constantly true, holds
/// as a unit, or meets its own negation.
fn resolve_clause(
    lits: impl Iterator<Item = CanonLit>,
    polarity_of: impl Fn(Key) -> Option<bool>,
    keys: &mut Vec<Lit>,
) -> bool {
    keys.clear();
    for lit in lits {
        match lit {
            CanonLit::True => return false,
            CanonLit::False => {}
            CanonLit::Var((key, polarity)) => {
                match polarity_of(key) {
                    Some(p) if p == polarity => return false,
                    Some(_) => continue, // falsified by a unit
                    None => {}
                }
                match keys.iter().find(|(k, _)| *k == key) {
                    // Opposite polarity within one clause: tautology.
                    Some((_, p)) if *p != polarity => return false,
                    Some(_) => {}
                    None => keys.push((key, polarity)),
                }
            }
        }
    }
    true
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
    units: Slots<Lit>,
    /// Residual clauses: ≥ 2 canonical literals each.
    clauses: Slots<Vec<Lit>>,
    unit_of: FxHashMap<Key, usize>,
    /// Clause slots by their literals, sorted.
    clause_of: FxHashMap<Vec<Lit>, usize>,
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

    fn unit(&self, slot: usize) -> Option<Lit> {
        self.layers()
            .find_map(|l| l.units.local(slot))
            .flatten()
            .copied()
    }

    fn clause(&self, slot: usize) -> Option<&Vec<Lit>> {
        self.layers().find_map(|l| l.clauses.local(slot)).flatten()
    }

    fn polarity_of(&self, key: Key) -> Option<bool> {
        self.layers()
            .filter_map(|l| l.unit_of.get(&key))
            .filter_map(|&slot| self.unit(slot))
            .find(|u| u.0 == key)
            .map(|u| u.1)
    }

    fn clause_with(&self, sig: &[Lit]) -> Option<usize> {
        self.layers()
            .filter_map(|l| l.clause_of.get(sig))
            .copied()
            .find(|&slot| self.clause(slot).is_some_and(|c| same_lits(c, sig)))
    }

    fn clauses_mentioning(&self, key: Key) -> Vec<usize> {
        occurrences(self.layers().filter_map(|l| l.key_occ.get(&key)))
    }

    fn clauses_holding(&self, a: AtomId) -> Vec<usize> {
        occurrences(self.layers().filter_map(|l| l.atom_occ.get(&a)))
    }

    /// Slots of the live units mentioning `a`, ascending. Units are not
    /// indexed by atom: only a new substitution asks, and its pivot
    /// typically occurs in most of them anyway.
    fn units_holding(&self, a: AtomId, arena: &Arena) -> Vec<usize> {
        (0..self.units.end())
            .filter(|&slot| {
                self.unit(slot)
                    .is_some_and(|u| arena.expr(u.0).coeff(a) != 0)
            })
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

    /// `out ← e` under every recorded substitution, oldest first, with
    /// `spare` as the second buffer; `false` (and `out` unspecified) when
    /// `e` mentions no pivot.
    fn rewrite(&self, e: &LinExpr, out: &mut LinExpr, spare: &mut LinExpr) -> bool {
        let mut changed = false;
        self.rewrite_into(e, &mut changed, out, spare);
        changed
    }

    fn rewrite_into(
        &self,
        e: &LinExpr,
        changed: &mut bool,
        out: &mut LinExpr,
        spare: &mut LinExpr,
    ) {
        if let Some(p) = &self.parent {
            p.rewrite_into(e, changed, out, spare);
        }
        for (a, subst) in &self.subst {
            let current = if *changed { &*out } else { e };
            if substitute_into(current, *a, subst, spare) {
                std::mem::swap(out, spare);
                *changed = true;
            }
        }
    }

    /// Canonicalize a literal as rewritten by the recorded substitutions;
    /// `None` when no substitution applies to it.
    fn canon_rewritten(&self, src: Src<'_>, arena: &mut Arena) -> Option<CanonLit> {
        let (mut out, mut spare) = (take(&mut arena.rewritten), take(&mut arena.spare));
        let (rel, e) = match src {
            Src::Raw(lit) => (lit.rel, &lit.expr),
            Src::Canon(lit) => arena.parts(lit),
        };
        let canon = self
            .rewrite(e, &mut out, &mut spare)
            .then(|| arena.canon(rel, &out));
        (arena.rewritten, arena.spare) = (out, spare);
        canon
    }

    /// Bring a clause to canonical form against the current state, into
    /// `keys`: substitute, canonicalize, resolve against the units, merge
    /// repeated keys, then drop literals the intervals decide. `false`
    /// when the clause is satisfied.
    fn normalize<'a>(
        &self,
        lits: impl Iterator<Item = Src<'a>>,
        arena: &mut Arena,
        keys: &mut Vec<Lit>,
    ) -> bool {
        let canon = |src: Src<'_>| {
            self.canon_rewritten(src, arena)
                .unwrap_or_else(|| match src {
                    Src::Raw(lit) => arena.canon(lit.rel, &lit.expr),
                    // Canonicalization is idempotent.
                    Src::Canon(lit) => CanonLit::Var(lit),
                })
        };
        if !resolve_clause(lits.map(canon), |key| self.polarity_of(key), keys) {
            return false;
        }
        let mut i = 0;
        while keys.len() >= 2 && i < keys.len() {
            let (rel, expr) = arena.parts(keys[i]);
            match interval_truth(rel, expr, |a| self.interval(a)) {
                Some(true) => return false,
                Some(false) => {
                    keys.remove(i);
                }
                None => i += 1,
            }
        }
        true
    }

    /// Visit the live slots of `pick(layer)` in slot order, each as the
    /// nearest layer that rewrote it says.
    fn for_each_live<T>(&self, pick: fn(&Snapshot) -> &Slots<T>, mut f: impl FnMut(&T)) {
        let depth = self.layers().count();
        for d in (0..depth).rev() {
            let owner = pick(self.layers().nth(d).expect("within depth"));
            for (i, own) in owner.own.iter().enumerate() {
                let slot = owner.base + i;
                let current = self
                    .layers()
                    .take(d)
                    .map(|l| &pick(l).over)
                    .filter(|over| !over.is_empty())
                    .find_map(|over| over.get(&slot))
                    .unwrap_or(own);
                if let Some(v) = current {
                    f(v);
                }
            }
        }
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
    below: &[Assertion],
    delta: &[Assertion],
    ctx: &mut SearchCtx<'_>,
) -> Result<Frame, StopReason> {
    let mut grown = Extender::over(parent).absorb(delta, ctx);
    if matches!(grown, Err(Halt::Repivot)) {
        let whole: Vec<Assertion> = below.iter().chain(delta).cloned().collect();
        grown = Extender::over(&Arc::default()).absorb(&whole, ctx);
    }
    match grown {
        Ok(snapshot) => Ok(Frame::Live(Arc::new(snapshot))),
        Err(Halt::Unsat) => Ok(Frame::Unsat),
        Err(Halt::Stopped(r)) => Err(r),
        Err(Halt::Repivot) => unreachable!("an empty snapshot records no pivot"),
    }
}

/// Builds one snapshot layer.
struct Extender {
    top: Snapshot,
    /// Holders to revisit because a unit, interval or substitution they
    /// depend on changed.
    queue: VecDeque<Holder>,
    /// Unit slots added by the current chunk that may admit a pivot.
    pivotable: Vec<usize>,
    /// The clause being normalized, and its sorted copy.
    keys: Vec<Lit>,
    sig: Vec<Lit>,
}

impl Extender {
    fn over(parent: &Arc<Snapshot>) -> Extender {
        Extender {
            top: Snapshot {
                parent: Some(Arc::clone(parent)),
                units: Slots::above(&parent.units),
                clauses: Slots::above(&parent.clauses),
                ..Snapshot::default()
            },
            queue: VecDeque::new(),
            pivotable: Vec::new(),
            keys: Vec::new(),
            sig: Vec::new(),
        }
    }

    fn absorb(mut self, chunks: &[Assertion], ctx: &mut SearchCtx<'_>) -> Result<Snapshot, Halt> {
        // Pivot eligibility is judged against everything the prefix binds
        // inside opaque atoms, so the delta's bindings are known before
        // its first clause is closed.
        let mut bound: FxHashSet<AtomId> = FxHashSet::default();
        for lit in chunks.iter().flat_map(Assertion::lits) {
            opaque_bound_syms(&lit.expr, ctx.table, &mut bound);
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
            for clause in chunk.clauses() {
                if let Some(r) = ctx.gov.poll() {
                    return Err(Halt::Stopped(r));
                }
                ctx.presolve_clauses += 1;
                let lits = clause.iter().map(Src::Raw);
                if self.top.normalize(lits, ctx.arena, &mut self.keys) {
                    self.store(None, ctx)?;
                }
                self.drain(ctx)?;
            }
            self.take_pivots(ctx)?;
        }
        Ok(self.top)
    }

    /// File the normalized clause in `self.keys`, at `slot` (already
    /// vacated) when it is a rewrite of an existing one.
    fn store(&mut self, slot: Option<usize>, ctx: &mut SearchCtx<'_>) -> Result<(), Halt> {
        match self.keys[..] {
            [] => Err(Halt::Unsat),
            [unit] => self.add_unit(unit, None, ctx),
            _ => {
                self.sig.clone_from(&self.keys);
                self.sig.sort_unstable();
                if let Some(dup) = self.top.clause_with(&self.sig) {
                    // The earlier of two equal clauses stays.
                    match slot {
                        Some(s) if s < dup => self.top.clauses.put(dup, None),
                        _ => return Ok(()),
                    }
                }
                let slot = slot.unwrap_or(self.top.clauses.end());
                for &(key, _) in &self.keys {
                    self.top.key_occ.entry(key).or_default().push(slot);
                    for a in ctx.arena.expr(key).atoms() {
                        self.top.atom_occ.entry(a).or_default().push(slot);
                    }
                }
                self.top.clause_of.insert(self.sig.clone(), slot);
                self.top.clauses.put(slot, Some(self.keys.clone()));
                Ok(())
            }
        }
    }

    /// Fix a canonical literal — at `slot` (already vacated) when it is a
    /// rewrite of an existing unit — and queue what it affects.
    fn add_unit(
        &mut self,
        unit: Lit,
        slot: Option<usize>,
        ctx: &mut SearchCtx<'_>,
    ) -> Result<(), Halt> {
        match self.top.polarity_of(unit.0) {
            Some(p) if p == unit.1 => return Ok(()),
            Some(_) => return Err(Halt::Unsat),
            None => {}
        }
        let slot = slot.unwrap_or(self.top.units.end());
        let (rel, expr) = ctx.arena.parts(unit);
        let bound = unit_bound(rel, expr);
        if ctx.arena.pivot(unit, ctx.table, |_| false).is_some() {
            self.pivotable.push(slot);
        }
        self.queue.extend(
            self.top
                .clauses_mentioning(unit.0)
                .into_iter()
                .map(Holder::Clause),
        );
        self.top.unit_of.insert(unit.0, slot);
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
                    let Some(canon) = self.top.canon_rewritten(Src::Canon(unit), ctx.arena) else {
                        continue;
                    };
                    self.top.units.put(slot, None);
                    match canon {
                        CanonLit::True => {}
                        CanonLit::False => return Err(Halt::Unsat),
                        CanonLit::Var(lit) => self.add_unit(lit, Some(slot), ctx)?,
                    }
                }
                Holder::Clause(slot) => {
                    let Some(clause) = self.top.clause(slot) else {
                        continue;
                    };
                    let lits = clause.iter().map(|&l| Src::Canon(l));
                    let kept = self.top.normalize(lits, ctx.arena, &mut self.keys);
                    if kept && self.keys == *clause {
                        continue;
                    }
                    self.top.clauses.put(slot, None);
                    if kept {
                        self.store(Some(slot), ctx)?;
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
                let (a, k) = ctx
                    .arena
                    .pivot(unit, ctx.table, |a| self.top.opaque_bound(a))?;
                Some((i, slot, a, solve_for(ctx.arena.expr(unit.0), a, k)))
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
            let units = self.top.units_holding(a, ctx.arena);
            self.queue.extend(units.into_iter().map(Holder::Unit));
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
    chunks: &[Assertion],
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
        Frame::Live(top) => {
            let mut bufs = std::mem::take(&mut ctx.arena.finish);
            let done = finish(top, ctx, &mut bufs);
            ctx.arena.finish = bufs;
            done
        }
    }
}

/// Result of presolving an assertion stack.
pub(crate) enum Presolved {
    /// Contradiction found without any theory call.
    Unsat,
    /// Interrupted by the governor mid-presolve.
    Stopped(StopReason),
    /// Simplified problem: conjunctive fixed literals (outside the boolean
    /// abstraction) plus residual clauses of ≥ 2 canonical literals each.
    Reduced {
        fixed: Vec<Lit>,
        clauses: Vec<Vec<Lit>>,
    },
}

/// Clauses stored flat: literals plus the end of each clause. A literal
/// is canonical, or decided by a substitution and not yet dropped by the
/// next resolution round.
#[derive(Debug, Clone, Default)]
struct Flat {
    lits: Vec<CanonLit>,
    ends: Vec<usize>,
}

impl Flat {
    fn clear(&mut self) {
        self.lits.clear();
        self.ends.clear();
    }

    fn len(&self) -> usize {
        self.ends.len()
    }

    fn clause(&self, k: usize) -> &[CanonLit] {
        let start = if k == 0 { 0 } else { self.ends[k - 1] };
        &self.lits[start..self.ends[k]]
    }

    fn iter(&self) -> impl Iterator<Item = &[CanonLit]> {
        (0..self.len()).map(|k| self.clause(k))
    }

    fn push(&mut self, lits: impl IntoIterator<Item = CanonLit>) {
        self.lits.extend(lits);
        self.ends.push(self.lits.len());
    }
}

/// The buffers [`finish`] reuses from query to query.
#[derive(Debug, Clone, Default)]
struct Buffers {
    /// The fixed literals, in insertion order, and the polarity of each
    /// fixed key (rebuilt when it falls out of step with the list).
    fixed: Vec<Lit>,
    spare: Vec<Lit>,
    polarity: FxHashMap<Key, bool>,
    work: Flat,
    next: Flat,
    /// The clause being resolved, and its sorted copy.
    keys: Vec<Lit>,
    sig: Vec<Lit>,
    /// Clause dedup: hash of the sorted literals → latest clause of
    /// `next`; `chain[k]` is the clause before `k` with the same hash.
    seen: FxHashMap<u64, usize>,
    chain: Vec<Option<usize>>,
    opaque: FxHashSet<AtomId>,
    iv: FxHashMap<AtomId, (i128, i128)>,
    counts: FxHashMap<AtomId, u64>,
}

impl Buffers {
    /// Returns `false` on contradiction (key already fixed oppositely).
    #[must_use]
    fn insert(&mut self, (key, polarity): Lit) -> bool {
        match self.polarity.get(&key) {
            Some(&p) => p == polarity,
            None => {
                self.polarity.insert(key, polarity);
                self.fixed.push((key, polarity));
                true
            }
        }
    }

    fn rebuild_index(&mut self) {
        self.polarity.clear();
        self.polarity.extend(self.fixed.iter().copied());
    }

    /// Whether `keys` repeats a clause already in `next`; records it
    /// otherwise.
    fn repeated(&mut self) -> bool {
        self.sig.clone_from(&self.keys);
        self.sig.sort_unstable();
        let mut h = FxHasher::default();
        self.sig.hash(&mut h);
        let h = h.finish();
        let mut at = self.seen.get(&h).copied();
        while let Some(k) = at {
            let c = self.next.clause(k);
            if c.len() == self.sig.len() && c.iter().all(|w| self.sig.contains(&w.lit())) {
                return true;
            }
            at = self.chain[k];
        }
        self.chain.push(self.seen.insert(h, self.next.len()));
        false
    }
}

/// Finish presolving the stack a snapshot stands for: run every rule —
/// the whole-problem ones included — to fixpoint over its units and
/// clauses. The snapshot is not changed, so what is discharged here for
/// one query is still there for the next.
fn finish(snapshot: &Snapshot, ctx: &mut SearchCtx<'_>, b: &mut Buffers) -> Presolved {
    b.fixed.clear();
    b.polarity.clear();
    b.work.clear();
    snapshot.for_each_live(|s| &s.units, |&u| b.fixed.push(u));
    snapshot.for_each_live(
        |s| &s.clauses,
        |c| b.work.push(c.iter().map(|&l| CanonLit::Var(l))),
    );
    // The snapshot is already closed under rule 1, so the first round
    // starts at rule 2 and the unit index is built only if a later round
    // needs it.
    let mut closed = true;

    loop {
        if let Some(r) = ctx.gov.poll() {
            return Presolved::Stopped(r);
        }
        let mut changed = false;

        // 1. Resolve clauses against the fixed set; extract units; drop
        //    tautologies/duplicates.
        if !std::mem::take(&mut closed) {
            if b.polarity.len() != b.fixed.len() {
                b.rebuild_index();
            }
            ctx.presolve_clauses += b.work.len() as u64;
            b.seen.clear();
            b.chain.clear();
            b.next.clear();
            for c in 0..b.work.len() {
                let clause = b.work.clause(c);
                let polarity_of = |key| b.polarity.get(&key).copied();
                if !resolve_clause(clause.iter().copied(), polarity_of, &mut b.keys) {
                    changed = true; // satisfied
                    continue;
                }
                changed |= b.keys.len() != clause.len();
                match b.keys.len() {
                    0 => return Presolved::Unsat,
                    1 => {
                        if !b.insert(b.keys[0]) {
                            return Presolved::Unsat;
                        }
                        changed = true;
                    }
                    _ if b.repeated() => changed = true, // duplicate dropped
                    _ => b.next.push(b.keys.iter().map(|&l| CanonLit::Var(l))),
                }
            }
            std::mem::swap(&mut b.work, &mut b.next);
        }

        // 2. Equality substitution: solve one fixed equality for a ±1
        //    symbol pivot and eliminate that symbol everywhere. Judged
        //    against what the *current* problem binds inside opaque
        //    atoms, which discharges may have shrunk since the snapshot
        //    was taken.
        b.opaque.clear();
        for &u in &b.fixed {
            opaque_bound_syms(ctx.arena.expr(u.0), ctx.table, &mut b.opaque);
        }
        for w in &b.work.lits {
            opaque_bound_syms(ctx.arena.expr(w.lit().0), ctx.table, &mut b.opaque);
        }
        let pivot = b.fixed.iter().enumerate().find_map(|(i, &unit)| {
            let (a, k) = ctx
                .arena
                .pivot(unit, ctx.table, |a| b.opaque.contains(&a))?;
            Some((i, a, k))
        });
        if let Some((idx, a, k)) = pivot {
            let subst = solve_for(ctx.arena.expr(b.fixed[idx].0), a, k);
            let arena = &mut *ctx.arena;
            let mut substituted = |lit: Lit| {
                let (rel, expr) = arena.parts(lit);
                let expr = substitute(expr, a, &subst)?;
                Some(arena.canon(rel, &expr))
            };
            for w in b.work.lits.iter_mut() {
                *w = substituted(w.lit()).unwrap_or(*w);
            }
            // Rebuild the fixed set: drop the defining equality, substitute
            // into the rest, re-canonicalize (substituted literals may
            // become ground or collide with other fixed keys).
            std::mem::swap(&mut b.fixed, &mut b.spare);
            b.fixed.clear();
            b.polarity.clear();
            for i in 0..b.spare.len() {
                if i == idx {
                    continue; // defining equality: pivot now occurs nowhere else
                }
                let unit = b.spare[i];
                let rewritten = match substituted(unit) {
                    None => unit,
                    Some(CanonLit::True) => continue,
                    Some(CanonLit::False) => return Presolved::Unsat,
                    Some(CanonLit::Var(lit)) => lit,
                };
                if !b.insert(rewritten) {
                    return Presolved::Unsat;
                }
            }
            continue; // re-canonicalize clauses before further rules
        }

        // 3. Interval propagation from single-atom fixed literals.
        b.iv.clear();
        for &unit in &b.fixed {
            let (rel, expr) = ctx.arena.parts(unit);
            if let Some((a, (lo, hi))) = unit_bound(rel, expr) {
                let entry = b.iv.entry(a).or_insert(UNBOUNDED);
                *entry = (entry.0.max(lo), entry.1.min(hi));
            }
        }
        if b.iv.values().any(|&(lo, hi)| lo > hi) {
            return Presolved::Unsat;
        }
        if !b.iv.is_empty() {
            let iv = &b.iv;
            let bounds = |a: AtomId| iv.get(&a).copied().unwrap_or(UNBOUNDED);
            b.next.clear();
            'clauses: for clause in b.work.iter() {
                b.keys.clear();
                for &w in clause {
                    let (rel, expr) = ctx.arena.parts(w.lit());
                    match interval_truth(rel, expr, bounds) {
                        Some(true) => {
                            changed = true; // satisfied
                            continue 'clauses;
                        }
                        Some(false) => changed = true,
                        None => b.keys.push(w.lit()),
                    }
                }
                if b.keys.is_empty() {
                    return Presolved::Unsat;
                }
                b.next.push(b.keys.iter().map(|&l| CanonLit::Var(l)));
            }
            std::mem::swap(&mut b.work, &mut b.next);
        }

        // 4. Free-atom discharge: a symbol with exactly one occurrence in
        //    the whole problem makes its literal unconditionally
        //    satisfiable (Ne/Le any coefficient; Eq needs ±1).
        b.counts.clear();
        let live = b
            .fixed
            .iter()
            .copied()
            .chain(b.work.lits.iter().map(|w| w.lit()));
        for lit in live {
            count_syms(ctx.arena.parts(lit).1, ctx.table, &mut b.counts);
        }
        let counts = &b.counts;
        let free_lit = |lit: Lit| -> bool {
            let (rel, expr) = ctx.arena.parts(lit);
            expr.terms.iter().any(|&(a, k)| {
                matches!(ctx.table.key(a), AtomKey::Sym(_))
                    && counts.get(&a) == Some(&1)
                    && (rel != Rel::Eq || k == 1 || k == -1)
            })
        };
        b.next.clear();
        for clause in b.work.iter() {
            if clause.iter().any(|w| free_lit(w.lit())) {
                changed = true;
            } else {
                b.next.push(clause.iter().copied());
            }
        }
        std::mem::swap(&mut b.work, &mut b.next);
        let before = b.fixed.len();
        b.fixed.retain(|&unit| !free_lit(unit));
        if b.fixed.len() != before {
            b.rebuild_index();
            changed = true;
        }

        if !changed {
            break;
        }
    }

    Presolved::Reduced {
        fixed: b.fixed.clone(),
        clauses: b
            .work
            .iter()
            .map(|c| c.iter().map(|w| w.lit()).collect())
            .collect(),
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

    /// Total order the `Le` representative is the lesser in.
    fn lin_key_cmp(a: &LinExpr, b: &LinExpr) -> std::cmp::Ordering {
        a.terms.cmp(&b.terms).then(a.constant.cmp(&b.constant))
    }

    /// `e / g`, the constant rounded up when `ceil`.
    fn scaled(e: &LinExpr, g: i128, ceil: bool) -> LinExpr {
        let mut out = LinExpr::default();
        scale_down(e, g, ceil, &mut out);
        out
    }

    /// `Le` canonicalization spelled out: build the negation and keep the
    /// lesser of the two.
    fn reference_le(e: &LinExpr) -> (LinExpr, bool) {
        let n = scaled(e, e.coeff_gcd(), true);
        let mut neg = n.scale(-1);
        neg.constant += 1;
        if lin_key_cmp(&n, &neg) != std::cmp::Ordering::Greater {
            (n, true)
        } else {
            (neg, false)
        }
    }

    #[test]
    fn le_representative_is_the_lesser_of_literal_and_negation() {
        let mut arena = Arena::default();
        for e in small_exprs().into_iter().filter(|e| !e.is_const()) {
            let lit = Literal {
                rel: Rel::Le,
                expr: e.clone(),
            };
            let CanonLit::Var((key, polarity)) = arena.canon(lit.rel, &lit.expr) else {
                panic!("{e:?} is not ground");
            };
            let got = (arena.expr(key).clone(), polarity);
            assert_eq!(got, reference_le(&e), "{e:?}");
            // Both polarities of one constraint share the key, and the
            // key spells the literal out at either polarity.
            let neg = lit.negate();
            let CanonLit::Var(neg_lit) = arena.canon(neg.rel, &neg.expr) else {
                panic!("negation of {e:?} is not ground");
            };
            assert_eq!(neg_lit, (key, !polarity), "{e:?}");
            let again = arena.lit((key, polarity));
            assert!(matches!(
                arena.canon(again.rel, &again.expr),
                CanonLit::Var(l) if l == (key, polarity)
            ));
        }
    }

    #[test]
    fn eq_representative_has_a_positive_leading_coefficient() {
        let mut arena = Arena::default();
        for e in small_exprs().into_iter().filter(|e| !e.is_const()) {
            match arena.canon(Rel::Eq, &e) {
                CanonLit::Var((key, polarity)) => {
                    assert!(polarity);
                    let rep = arena.expr(key);
                    assert!(rep.terms[0].1 > 0, "{e:?}");
                    let g = e.coeff_gcd();
                    let sign = if e.terms[0].1 < 0 { -1 } else { 1 };
                    assert_eq!(*rep, scaled(&e, g, false).scale(sign), "{e:?}");
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
