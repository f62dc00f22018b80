//! Normalization of [`Term`]s into linear expressions over interned atoms.
//!
//! A [`LinExpr`] is `constant + Σ coeff·atom` with `i128` coefficients. An
//! atom is either a free symbol or an *opaque* interned sub-term: an
//! uninterpreted function application (with linearly-normalized arguments,
//! giving syntactic congruence — `c(i+0)` and `c(i)` intern to the same
//! atom), a non-linear product, a division, or a modulo.

use std::fmt;

use crate::fx::FxHashMap;
use crate::term::Term;

/// Interned atom identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AtomId(pub u32);

/// What an atom stands for.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AtomKey {
    /// Free integer symbol.
    Sym(String),
    /// Uninterpreted application with normalized arguments.
    App(String, Vec<LinExpr>),
    /// Non-linear product of two normalized expressions.
    MulOpaque(LinExpr, LinExpr),
    /// Truncated division.
    DivOpaque(LinExpr, LinExpr),
    /// Modulo.
    ModOpaque(LinExpr, LinExpr),
}

/// Intern table mapping atom keys to dense ids.
#[derive(Debug, Clone, Default)]
pub struct AtomTable {
    keys: Vec<AtomKey>,
    /// Ids of the compound keys (everything but `Sym`).
    map: FxHashMap<AtomKey, AtomId>,
    /// Ids of the symbols, by name, so that looking one up borrows the
    /// name instead of building an `AtomKey` around a copy of it.
    syms: FxHashMap<String, AtomId>,
}

impl AtomTable {
    /// Create an empty table.
    pub fn new() -> AtomTable {
        AtomTable::default()
    }

    /// Intern a key, returning its id.
    pub fn intern(&mut self, key: AtomKey) -> AtomId {
        if let AtomKey::Sym(name) = &key {
            return self.sym(name);
        }
        if let Some(id) = self.map.get(&key) {
            return *id;
        }
        let id = AtomId(self.keys.len() as u32);
        self.keys.push(key.clone());
        self.map.insert(key, id);
        id
    }

    /// Intern a plain symbol.
    pub fn sym(&mut self, name: &str) -> AtomId {
        if let Some(id) = self.syms.get(name) {
            return *id;
        }
        let id = AtomId(self.keys.len() as u32);
        self.keys.push(AtomKey::Sym(name.to_string()));
        self.syms.insert(name.to_string(), id);
        id
    }

    /// Key of an atom.
    pub fn key(&self, id: AtomId) -> &AtomKey {
        &self.keys[id.0 as usize]
    }

    /// Number of interned atoms.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Human-readable rendering of an atom (for diagnostics).
    pub fn render(&self, id: AtomId) -> String {
        match self.key(id) {
            AtomKey::Sym(s) => s.clone(),
            AtomKey::App(f, args) => {
                let args: Vec<String> = args.iter().map(|a| self.render_lin(a)).collect();
                format!("{f}({})", args.join(", "))
            }
            AtomKey::MulOpaque(a, b) => {
                format!("({})*({})", self.render_lin(a), self.render_lin(b))
            }
            AtomKey::DivOpaque(a, b) => {
                format!("({})/({})", self.render_lin(a), self.render_lin(b))
            }
            AtomKey::ModOpaque(a, b) => {
                format!("({}) mod ({})", self.render_lin(a), self.render_lin(b))
            }
        }
    }

    /// Human-readable rendering of a linear expression.
    pub fn render_lin(&self, e: &LinExpr) -> String {
        let mut s = String::new();
        let mut first = true;
        for (atom, c) in &e.terms {
            if !first {
                s.push_str(" + ");
            }
            first = false;
            if *c == 1 {
                s.push_str(&self.render(*atom));
            } else {
                s.push_str(&format!("{}*{}", c, self.render(*atom)));
            }
        }
        if e.constant != 0 || first {
            if !first {
                s.push_str(" + ");
            }
            s.push_str(&e.constant.to_string());
        }
        s
    }
}

/// A linear expression `constant + Σ coeff·atom`; terms sorted by atom id,
/// coefficients nonzero.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct LinExpr {
    /// Constant part.
    pub constant: i128,
    /// `(atom, coefficient)` pairs, sorted by atom, coefficients ≠ 0.
    pub terms: Vec<(AtomId, i128)>,
}

impl LinExpr {
    /// The constant expression.
    pub fn constant(v: i128) -> LinExpr {
        LinExpr {
            constant: v,
            terms: Vec::new(),
        }
    }

    /// A single atom with coefficient 1.
    pub fn atom(id: AtomId) -> LinExpr {
        LinExpr {
            constant: 0,
            terms: vec![(id, 1)],
        }
    }

    /// True if the expression has no atom terms.
    pub fn is_const(&self) -> bool {
        self.terms.is_empty()
    }

    /// Coefficient of `atom` (0 if absent).
    pub fn coeff(&self, atom: AtomId) -> i128 {
        self.terms
            .iter()
            .find(|(a, _)| *a == atom)
            .map(|(_, c)| *c)
            .unwrap_or(0)
    }

    /// `self + k·other`.
    pub fn add_scaled(&self, other: &LinExpr, k: i128) -> LinExpr {
        let mut terms: Vec<(AtomId, i128)> =
            Vec::with_capacity(self.terms.len() + other.terms.len());
        let (mut i, mut j) = (0, 0);
        while i < self.terms.len() || j < other.terms.len() {
            let take_left = match (self.terms.get(i), other.terms.get(j)) {
                (Some((a, _)), Some((b, _))) => {
                    if a == b {
                        let c = self.terms[i].1 + k * other.terms[j].1;
                        if c != 0 {
                            terms.push((*a, c));
                        }
                        i += 1;
                        j += 1;
                        continue;
                    }
                    a < b
                }
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => unreachable!(),
            };
            if take_left {
                terms.push(self.terms[i]);
                i += 1;
            } else {
                let (a, c) = other.terms[j];
                let c = k * c;
                if c != 0 {
                    terms.push((a, c));
                }
                j += 1;
            }
        }
        LinExpr {
            constant: self.constant + k * other.constant,
            terms,
        }
    }

    /// `self + other`.
    pub fn add(&self, other: &LinExpr) -> LinExpr {
        self.add_scaled(other, 1)
    }

    /// `self - other`.
    pub fn sub(&self, other: &LinExpr) -> LinExpr {
        self.add_scaled(other, -1)
    }

    /// `k·self`.
    pub fn scale(&self, k: i128) -> LinExpr {
        if k == 0 {
            return LinExpr::constant(0);
        }
        LinExpr {
            constant: self.constant * k,
            terms: self.terms.iter().map(|(a, c)| (*a, c * k)).collect(),
        }
    }

    /// GCD of all atom coefficients (0 if constant).
    pub fn coeff_gcd(&self) -> i128 {
        let mut g: i128 = 0;
        for (_, c) in &self.terms {
            g = gcd(g, c.abs());
        }
        g
    }

    /// Atoms appearing with nonzero coefficient.
    pub fn atoms(&self) -> impl Iterator<Item = AtomId> + '_ {
        self.terms.iter().map(|(a, _)| *a)
    }
}

/// Greatest common divisor on absolute values.
pub fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Errors during normalization (coefficient overflow guard).
#[derive(Debug, Clone, PartialEq)]
pub struct NormalizeError(pub String);

impl fmt::Display for NormalizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "normalization error: {}", self.0)
    }
}

impl std::error::Error for NormalizeError {}

/// Normalize a term into a linear expression over interned atoms.
pub fn normalize(term: &Term, table: &mut AtomTable) -> Result<LinExpr, NormalizeError> {
    const LIMIT: i128 = 1 << 62;
    let check = |v: i128| -> Result<i128, NormalizeError> {
        if v.abs() > LIMIT {
            Err(NormalizeError("coefficient overflow".into()))
        } else {
            Ok(v)
        }
    };
    match term {
        Term::Int(v) => Ok(LinExpr::constant(*v as i128)),
        Term::Sym(s) => {
            let id = table.sym(s);
            Ok(LinExpr::atom(id))
        }
        Term::App(f, args) => {
            let nargs: Result<Vec<LinExpr>, _> = args.iter().map(|a| normalize(a, table)).collect();
            let id = table.intern(AtomKey::App(f.clone(), nargs?));
            Ok(LinExpr::atom(id))
        }
        Term::Add(a, b) => {
            let a = normalize(a, table)?;
            let b = normalize(b, table)?;
            let r = a.add(&b);
            check(r.constant)?;
            Ok(r)
        }
        Term::Sub(a, b) => {
            let a = normalize(a, table)?;
            let b = normalize(b, table)?;
            let r = a.sub(&b);
            check(r.constant)?;
            Ok(r)
        }
        Term::Neg(a) => Ok(normalize(a, table)?.scale(-1)),
        Term::Mul(a, b) => {
            let a = normalize(a, table)?;
            let b = normalize(b, table)?;
            if a.is_const() {
                check(a.constant)?;
                Ok(b.scale(a.constant))
            } else if b.is_const() {
                check(b.constant)?;
                Ok(a.scale(b.constant))
            } else {
                // Non-linear: opaque atom, canonicalized by ordering the
                // operands deterministically so `a*b` and `b*a` unify.
                let (x, y) = if lin_cmp(&a, &b) == std::cmp::Ordering::Greater {
                    (b, a)
                } else {
                    (a, b)
                };
                let id = table.intern(AtomKey::MulOpaque(x, y));
                Ok(LinExpr::atom(id))
            }
        }
        Term::Div(a, b) => {
            let a = normalize(a, table)?;
            let b = normalize(b, table)?;
            if b.is_const() && b.constant != 0 && a.is_const() {
                return Ok(LinExpr::constant(a.constant / b.constant));
            }
            let id = table.intern(AtomKey::DivOpaque(a, b));
            Ok(LinExpr::atom(id))
        }
        Term::Mod(a, b) => {
            let a = normalize(a, table)?;
            let b = normalize(b, table)?;
            if b.is_const() && b.constant != 0 && a.is_const() {
                return Ok(LinExpr::constant(a.constant % b.constant));
            }
            let id = table.intern(AtomKey::ModOpaque(a, b));
            Ok(LinExpr::atom(id))
        }
    }
}

fn lin_cmp(a: &LinExpr, b: &LinExpr) -> std::cmp::Ordering {
    (a.constant, &a.terms).cmp(&(b.constant, &b.terms))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;

    fn norm(t: &Term, tab: &mut AtomTable) -> LinExpr {
        normalize(t, tab).unwrap()
    }

    #[test]
    fn linear_combination_collapses() {
        let mut tab = AtomTable::new();
        // 2*i + 3 - i + 1  ==  i + 4
        let t = Term::int(2) * Term::sym("i") + Term::int(3) - Term::sym("i") + Term::int(1);
        let e = norm(&t, &mut tab);
        let i = tab.sym("i");
        assert_eq!(e.constant, 4);
        assert_eq!(e.terms, vec![(i, 1)]);
    }

    #[test]
    fn symbols_intern_once_by_name_or_by_key() {
        let mut tab = AtomTable::new();
        let i = tab.sym("i");
        let app = tab.intern(AtomKey::App("c".into(), vec![LinExpr::atom(i)]));
        assert_eq!(tab.intern(AtomKey::Sym("i".into())), i);
        let j = tab.intern(AtomKey::Sym("j".into()));
        assert_eq!(tab.sym("j"), j);
        assert_eq!((i, app, j), (AtomId(0), AtomId(1), AtomId(2)));
        assert_eq!(tab.len(), 3);
        assert_eq!(tab.key(j), &AtomKey::Sym("j".into()));
    }

    #[test]
    fn cancellation_to_zero() {
        let mut tab = AtomTable::new();
        let t = Term::sym("i") - Term::sym("i");
        let e = norm(&t, &mut tab);
        assert!(e.is_const());
        assert_eq!(e.constant, 0);
    }

    #[test]
    fn syntactic_congruence_of_apps() {
        let mut tab = AtomTable::new();
        // c(i + 0) and c(i) intern to the same atom.
        let a = norm(
            &Term::app("c", vec![Term::sym("i") + Term::int(0)]),
            &mut tab,
        );
        let b = norm(&Term::app("c", vec![Term::sym("i")]), &mut tab);
        assert_eq!(a, b);
        // c(i + 1) is a different atom.
        let c = norm(
            &Term::app("c", vec![Term::sym("i") + Term::int(1)]),
            &mut tab,
        );
        assert_ne!(a, c);
    }

    #[test]
    fn nonlinear_product_is_opaque_and_commutative() {
        let mut tab = AtomTable::new();
        let ab = norm(&(Term::sym("a") * Term::sym("b")), &mut tab);
        let ba = norm(&(Term::sym("b") * Term::sym("a")), &mut tab);
        assert_eq!(ab, ba);
        assert_eq!(ab.terms.len(), 1);
    }

    #[test]
    fn constant_product_stays_linear() {
        let mut tab = AtomTable::new();
        let t = (Term::sym("i") + Term::int(2)) * Term::int(3);
        let e = norm(&t, &mut tab);
        let i = tab.sym("i");
        assert_eq!(e.constant, 6);
        assert_eq!(e.coeff(i), 3);
    }

    #[test]
    fn const_div_and_mod_fold() {
        let mut tab = AtomTable::new();
        assert_eq!(
            norm(
                &Term::Div(Box::new(Term::int(7)), Box::new(Term::int(2))),
                &mut tab
            )
            .constant,
            3
        );
        assert_eq!(
            norm(
                &Term::Mod(Box::new(Term::int(7)), Box::new(Term::int(2))),
                &mut tab
            )
            .constant,
            1
        );
    }

    #[test]
    fn add_scaled_merges_sorted() {
        let mut tab = AtomTable::new();
        let i = tab.sym("i");
        let j = tab.sym("j");
        let a = LinExpr {
            constant: 1,
            terms: vec![(i, 2)],
        };
        let b = LinExpr {
            constant: 3,
            terms: vec![(i, -2), (j, 5)],
        };
        let r = a.add_scaled(&b, 1);
        assert_eq!(r.constant, 4);
        assert_eq!(r.terms, vec![(j, 5)]);
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(-4, 6), 2);
        assert_eq!(gcd(0, 0), 0);
    }

    #[test]
    fn render_is_readable() {
        let mut tab = AtomTable::new();
        let t = Term::app("c", vec![Term::sym("i")]) + Term::int(7);
        let e = norm(&t, &mut tab);
        assert_eq!(tab.render_lin(&e), "c(i) + 7");
    }
}
