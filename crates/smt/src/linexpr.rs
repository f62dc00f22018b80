//! Rows: linear expressions over interned atoms.
//!
//! A [`LinExpr`] is `constant + Σ coeff·atom` with `i128` coefficients. An
//! atom is either a scalar [`Symbol`] or an *opaque* interned sub-term: an
//! uninterpreted application of an integer array to argument rows (giving
//! syntactic congruence — `c(i+0)` and `c(i)` intern to the same atom), a
//! non-linear product, a division, or a modulo. The row builders
//! ([`LinExpr::plus`], [`LinExpr::times`], [`AtomTable::app`], …) fold
//! whatever is linear and intern the rest, so an index expression goes
//! into the prover as one row without an intermediate term tree.

use std::fmt;
use std::sync::Arc;

use crate::fx::FxHashMap;

/// Interned atom identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AtomId(pub u32);

/// A free integer symbol: a scalar's name, the instance number of the
/// value it holds (paper §5.2, `0` for the value on entry) and whether it
/// is the primed copy on the other side of a pair (§5.3).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Symbol {
    pub name: Arc<str>,
    pub instance: u32,
    pub primed: bool,
}

impl fmt::Display for Symbol {
    /// `name`, `name@instance`, then `'` when primed (`w@2'`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)?;
        if self.instance != 0 {
            write!(f, "@{}", self.instance)?;
        }
        if self.primed {
            f.write_str("'")?;
        }
        Ok(())
    }
}

/// What an atom stands for.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AtomKey {
    /// Free integer symbol.
    Sym(Symbol),
    /// Uninterpreted application with argument rows.
    App(Arc<str>, Vec<LinExpr>),
    /// Non-linear product of two rows.
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
    map: FxHashMap<AtomKey, AtomId>,
}

impl AtomTable {
    /// Create an empty table.
    pub fn new() -> AtomTable {
        AtomTable::default()
    }

    /// Intern a key, returning its id.
    pub fn intern(&mut self, key: AtomKey) -> AtomId {
        if let Some(id) = self.map.get(&key) {
            return *id;
        }
        let id = AtomId(self.keys.len() as u32);
        self.keys.push(key.clone());
        self.map.insert(key, id);
        id
    }

    /// The row of a scalar symbol.
    pub fn scalar(&mut self, name: Arc<str>, instance: u32, primed: bool) -> LinExpr {
        let sym = Symbol {
            name,
            instance,
            primed,
        };
        LinExpr::atom(self.intern(AtomKey::Sym(sym)))
    }

    /// The atom of a plain symbol (instance 0, unprimed).
    pub fn sym(&mut self, name: &str) -> AtomId {
        self.scalar(Arc::from(name), 0, false).terms[0].0
    }

    /// The row of the application `f(args…)`.
    pub fn app(&mut self, f: Arc<str>, args: Vec<LinExpr>) -> LinExpr {
        LinExpr::atom(self.intern(AtomKey::App(f, args)))
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

/// Largest constant magnitude a row builder accepts.
const LIMIT: i128 = 1 << 62;

fn checked(v: i128) -> Result<i128, NormalizeError> {
    if v.abs() > LIMIT {
        Err(NormalizeError("coefficient overflow".into()))
    } else {
        Ok(v)
    }
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
        let mut out = LinExpr {
            constant: 0,
            terms: Vec::with_capacity(self.terms.len() + other.terms.len()),
        };
        self.add_scaled_into(other, k, &mut out);
        out
    }

    /// `out ← self + k·other`, reusing `out`'s buffer.
    pub fn add_scaled_into(&self, other: &LinExpr, k: i128, out: &mut LinExpr) {
        let terms = &mut out.terms;
        terms.clear();
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
        out.constant = self.constant + k * other.constant;
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

    /// Row builder: `self + other`, refusing a constant beyond ±2⁶².
    pub fn plus(&self, other: &LinExpr) -> Result<LinExpr, NormalizeError> {
        let r = self.add(other);
        checked(r.constant)?;
        Ok(r)
    }

    /// Row builder: `self - other`, refusing a constant beyond ±2⁶².
    pub fn minus(&self, other: &LinExpr) -> Result<LinExpr, NormalizeError> {
        let r = self.sub(other);
        checked(r.constant)?;
        Ok(r)
    }

    /// Row builder: `self · other` — linear when either side is constant,
    /// an opaque atom otherwise, with the operands ordered so `a·b` and
    /// `b·a` unify.
    pub fn times(self, other: LinExpr, table: &mut AtomTable) -> Result<LinExpr, NormalizeError> {
        if self.is_const() {
            checked(self.constant)?;
            Ok(other.scale(self.constant))
        } else if other.is_const() {
            checked(other.constant)?;
            Ok(self.scale(other.constant))
        } else {
            let (x, y) = if lin_cmp(&self, &other) == std::cmp::Ordering::Greater {
                (other, self)
            } else {
                (self, other)
            };
            Ok(LinExpr::atom(table.intern(AtomKey::MulOpaque(x, y))))
        }
    }

    /// Row builder: truncated `self / other`, folded when both are
    /// constants, an opaque atom otherwise.
    pub fn div(self, other: LinExpr, table: &mut AtomTable) -> LinExpr {
        if other.is_const() && other.constant != 0 && self.is_const() {
            return LinExpr::constant(self.constant / other.constant);
        }
        LinExpr::atom(table.intern(AtomKey::DivOpaque(self, other)))
    }

    /// Row builder: `self mod other`, folded when both are constants, an
    /// opaque atom otherwise.
    pub fn rem(self, other: LinExpr, table: &mut AtomTable) -> LinExpr {
        if other.is_const() && other.constant != 0 && self.is_const() {
            return LinExpr::constant(self.constant % other.constant);
        }
        LinExpr::atom(table.intern(AtomKey::ModOpaque(self, other)))
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

/// A row builder refused its operands (coefficient overflow guard).
#[derive(Debug, Clone, PartialEq)]
pub struct NormalizeError(pub String);

impl fmt::Display for NormalizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "normalization error: {}", self.0)
    }
}

impl std::error::Error for NormalizeError {}

fn lin_cmp(a: &LinExpr, b: &LinExpr) -> std::cmp::Ordering {
    (a.constant, &a.terms).cmp(&(b.constant, &b.terms))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(tab: &mut AtomTable, name: &str) -> LinExpr {
        LinExpr::atom(tab.sym(name))
    }

    fn int(v: i128) -> LinExpr {
        LinExpr::constant(v)
    }

    #[test]
    fn linear_combination_collapses() {
        let mut tab = AtomTable::new();
        // 2*i + 3 - i + 1  ==  i + 4
        let i = sym(&mut tab, "i");
        let two_i = int(2).times(i.clone(), &mut tab).unwrap();
        let e = two_i.plus(&int(3)).unwrap().minus(&i).unwrap();
        let e = e.plus(&int(1)).unwrap();
        assert_eq!(e.constant, 4);
        assert_eq!(e.terms, vec![(tab.sym("i"), 1)]);
    }

    #[test]
    fn symbols_intern_once_by_name_or_by_key() {
        let mut tab = AtomTable::new();
        let i = tab.sym("i");
        let app = tab.app("c".into(), vec![LinExpr::atom(i)]);
        assert_eq!(tab.scalar("i".into(), 0, false), LinExpr::atom(i));
        let i1 = tab.scalar("i".into(), 1, false);
        let ip = tab.scalar("i".into(), 0, true);
        assert_eq!(app, LinExpr::atom(AtomId(1)));
        assert_eq!((i1.terms[0].0, ip.terms[0].0), (AtomId(2), AtomId(3)));
        assert_eq!(tab.len(), 4);
    }

    #[test]
    fn render_is_readable() {
        let mut tab = AtomTable::new();
        for (instance, primed, text) in [(0, false, "w"), (2, false, "w@2"), (2, true, "w@2'")] {
            let id = tab.scalar("w".into(), instance, primed).terms[0].0;
            let AtomKey::Sym(s) = tab.key(id) else {
                panic!("a symbol");
            };
            assert_eq!(s.to_string(), text);
        }
    }

    #[test]
    fn cancellation_to_zero() {
        let mut tab = AtomTable::new();
        let i = sym(&mut tab, "i");
        let e = i.minus(&i).unwrap();
        assert!(e.is_const());
        assert_eq!(e.constant, 0);
    }

    #[test]
    fn syntactic_congruence_of_apps() {
        let mut tab = AtomTable::new();
        // c(i + 0) and c(i) intern to the same atom.
        let i = sym(&mut tab, "i");
        let a = tab.app("c".into(), vec![i.plus(&int(0)).unwrap()]);
        let b = tab.app("c".into(), vec![i.clone()]);
        assert_eq!(a, b);
        // c(i + 1) is a different atom.
        let c = tab.app("c".into(), vec![i.plus(&int(1)).unwrap()]);
        assert_ne!(a, c);
    }

    #[test]
    fn nonlinear_product_is_opaque_and_commutative() {
        let mut tab = AtomTable::new();
        let (a, b) = (sym(&mut tab, "a"), sym(&mut tab, "b"));
        let ab = a.clone().times(b.clone(), &mut tab).unwrap();
        let ba = b.times(a, &mut tab).unwrap();
        assert_eq!(ab, ba);
        assert_eq!(ab.terms.len(), 1);
    }

    #[test]
    fn constant_product_stays_linear() {
        let mut tab = AtomTable::new();
        let i = sym(&mut tab, "i");
        let e = i.plus(&int(2)).unwrap().times(int(3), &mut tab).unwrap();
        assert_eq!(e.constant, 6);
        assert_eq!(e.coeff(tab.sym("i")), 3);
    }

    #[test]
    fn const_div_and_mod_fold() {
        let mut tab = AtomTable::new();
        assert_eq!(int(7).div(int(2), &mut tab).constant, 3);
        assert_eq!(int(7).rem(int(2), &mut tab).constant, 1);
        assert!(tab.is_empty());
    }

    #[test]
    fn builders_refuse_huge_constants() {
        let mut tab = AtomTable::new();
        let big = int(LIMIT);
        assert!(big.plus(&int(1)).is_err());
        assert!(int(-LIMIT).minus(&int(1)).is_err());
        let x = sym(&mut tab, "x");
        assert!(int(LIMIT + 1).times(x, &mut tab).is_err());
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
}
