//! Translation of array index expressions into prover rows (paper §6).
//!
//! An index expression goes straight into a [`LinExpr`] row over the
//! solver's atom table. Loop counters of the parallel loop are scalars of
//! instance 0 (the root assertion `i ≠ i'` refers to them); every other
//! scalar carries its *instance number* (§5.2) so that two textually
//! identical uses separated by an overwrite become distinct atoms.
//! Integer-array reads inside indices (`c(i)`, `mss(1, ig, k12)`) become
//! uninterpreted applications. Privatized scalars are *primed* on one side
//! of each pair (§5.3): that side's rows are built over the primed atoms.
//! [`Translator::render`] prints a tuple the same way for reports and
//! traces, `(c(i') + 7)`.

use std::fmt::Write as _;
use std::sync::Arc;

use formad_analysis::{Instances, SiteId};
use formad_ir::{BinOp, Expr, Name};
use formad_smt::{Assertion, AtomTable, FxHashSet, LinExpr, Literal, NormalizeError, Rel};

/// Why an index expression could not be translated.
#[derive(Debug, Clone, PartialEq)]
pub enum Taint {
    /// The expression reads an array that is written inside the region, so
    /// its value is not stable across the region (treated as unanalyzable;
    /// FormAD keeps the safeguards).
    MutatedIndexArray(String),
    /// A construct with no integer semantics (real literal/intrinsic).
    NonInteger(String),
}

/// Context for translating index expressions of one parallel region.
pub struct Translator<'a> {
    /// Instance numbering of the region body's sites.
    pub instances: &'a Instances,
    /// Parallel loop counter (always instance 0).
    pub counter: &'a Name,
    /// Arrays written anywhere in the region (index reads of these taint).
    pub written_arrays: &'a FxHashSet<Name>,
    /// Privatized scalars (clause privates + in-body assigned scalars +
    /// inner loop counters); these are primed on one side of a pair.
    pub privatized: &'a FxHashSet<Name>,
}

/// One side of a pair: an index tuple at the site whose instance
/// numbering names its scalars, primed or not, with the row of each
/// element once it has been built. Rows are built on first use, so atoms
/// are interned in the order the pairs meet them.
pub struct Side<'e> {
    exprs: &'e [Expr],
    site: SiteId,
    primed: bool,
    rows: Vec<Option<LinExpr>>,
}

impl<'e> Side<'e> {
    /// A side none of whose rows is built yet.
    pub fn new(exprs: &'e [Expr], site: SiteId, primed: bool) -> Side<'e> {
        Side {
            exprs,
            site,
            primed,
            rows: vec![None; exprs.len()],
        }
    }
}

impl<'a> Translator<'a> {
    /// Instance number and priming of scalar `name` at `site`: the counter
    /// keeps instance 0, and only it and the privatized scalars are primed.
    fn symbol(&self, name: &Name, site: SiteId, primed: bool) -> (u32, bool) {
        if name == self.counter {
            return (0, primed);
        }
        let instance = self.instances.instance(site, name);
        (instance, primed && self.privatized.contains(name))
    }

    /// Why `e` cannot enter the prover, if it cannot: the first obstruction
    /// in evaluation order.
    pub fn check(&self, e: &Expr) -> Result<(), Taint> {
        match e {
            Expr::IntLit(_) | Expr::Var(_) => Ok(()),
            Expr::RealLit(v) => Err(Taint::NonInteger(format!("real literal {v}"))),
            Expr::Index { array, indices } => {
                if self.written_arrays.contains(array) {
                    return Err(Taint::MutatedIndexArray(array.to_string()));
                }
                self.check_tuple(indices)
            }
            Expr::Unary { arg, .. } => self.check(arg),
            Expr::Binary { op, lhs, rhs } => {
                self.check(lhs)?;
                self.check(rhs)?;
                match op {
                    BinOp::Pow => Err(Taint::NonInteger("exponentiation in index".into())),
                    _ => Ok(()),
                }
            }
            Expr::Call { func, .. } => Err(Taint::NonInteger(format!(
                "intrinsic {} in index",
                func.name()
            ))),
        }
    }

    /// [`Translator::check`] over a tuple.
    pub fn check_tuple(&self, es: &[Expr]) -> Result<(), Taint> {
        es.iter().try_for_each(|e| self.check(e))
    }

    /// Whether priming changes `e`: it reads the counter or a privatized
    /// scalar.
    pub fn varies(&self, e: &Expr) -> bool {
        match e {
            Expr::IntLit(_) | Expr::RealLit(_) => false,
            Expr::Var(n) => n == self.counter || self.privatized.contains(n),
            Expr::Index { indices: args, .. } | Expr::Call { args, .. } => {
                args.iter().any(|a| self.varies(a))
            }
            Expr::Unary { arg, .. } => self.varies(arg),
            Expr::Binary { lhs, rhs, .. } => self.varies(lhs) || self.varies(rhs),
        }
    }

    /// The row of `e` (which passed [`Translator::check`]) at `site`, on
    /// the primed side or not.
    pub fn row(
        &self,
        e: &Expr,
        site: SiteId,
        primed: bool,
        table: &mut AtomTable,
    ) -> Result<LinExpr, NormalizeError> {
        Ok(match e {
            Expr::IntLit(v) => LinExpr::constant(*v as i128),
            Expr::Var(n) => {
                let (instance, primed) = self.symbol(n, site, primed);
                table.scalar(n.into(), instance, primed)
            }
            Expr::Index { array, indices } => {
                let args: Result<Vec<LinExpr>, _> = indices
                    .iter()
                    .map(|ix| self.row(ix, site, primed, table))
                    .collect();
                table.app(array.into(), args?)
            }
            Expr::Unary { arg, .. } => self.row(arg, site, primed, table)?.scale(-1),
            Expr::Binary { op, lhs, rhs } => {
                let a = self.row(lhs, site, primed, table)?;
                let b = self.row(rhs, site, primed, table)?;
                match op {
                    BinOp::Add => a.plus(&b)?,
                    BinOp::Sub => a.minus(&b)?,
                    BinOp::Mul => a.times(b, table)?,
                    BinOp::Div => a.div(b, table),
                    BinOp::Mod => a.rem(b, table),
                    BinOp::Pow => unreachable!("checked: no exponentiation in an index"),
                }
            }
            Expr::RealLit(_) | Expr::Call { .. } => unreachable!("checked: integral index"),
        })
    }

    /// The literals `aₖ − bₖ ⋈ 0` of a pair of tuples, building `aₖ` then
    /// `bₖ` where neither side has it yet, as one assertion: `Ne` gives the
    /// clause of tuple disjointness, `Eq` the conjunction of tuple
    /// equality.
    pub fn pair(
        &self,
        rel: Rel,
        a: &mut Side<'_>,
        b: &mut Side<'_>,
        table: &mut AtomTable,
    ) -> Result<Assertion, NormalizeError> {
        assert_eq!(a.exprs.len(), b.exprs.len(), "tuple arity mismatch");
        for k in 0..a.exprs.len() {
            self.build_row(a, k, table)?;
            self.build_row(b, k, table)?;
        }
        fn row<'s>(side: &'s Side<'_>, k: usize) -> &'s LinExpr {
            side.rows[k].as_ref().expect("built above")
        }
        let lits: Arc<[Literal]> = (0..a.exprs.len())
            .map(|k| Literal {
                rel,
                expr: row(a, k).sub(row(b, k)),
            })
            .collect();
        Ok(match rel {
            Rel::Ne => Assertion::clause(lits),
            _ => Assertion::all(lits),
        })
    }

    /// Build element `k` of a side unless it is built.
    fn build_row(
        &self,
        side: &mut Side<'_>,
        k: usize,
        table: &mut AtomTable,
    ) -> Result<(), NormalizeError> {
        if side.rows[k].is_none() {
            side.rows[k] = Some(self.row(&side.exprs[k], side.site, side.primed, table)?);
        }
        Ok(())
    }

    /// A tuple as reports and traces print it: fully parenthesized, each
    /// scalar as `name`, `name@instance`, primed `name'`. The text is
    /// one-to-one with what the prover is given, so it also keys tuples.
    pub fn render(&self, exprs: &[Expr], site: SiteId, primed: bool) -> String {
        let mut s = String::new();
        for (k, e) in exprs.iter().enumerate() {
            if k > 0 {
                s.push_str(", ");
            }
            self.render_into(e, site, primed, &mut s);
        }
        s
    }

    fn render_into(&self, e: &Expr, site: SiteId, primed: bool, out: &mut String) {
        match e {
            Expr::IntLit(v) => {
                let _ = write!(out, "{v}");
            }
            Expr::Var(n) => {
                let (instance, primed) = self.symbol(n, site, primed);
                out.push_str(n);
                if instance != 0 {
                    let _ = write!(out, "@{instance}");
                }
                if primed {
                    out.push('\'');
                }
            }
            Expr::Index { array, indices } => {
                out.push_str(array);
                out.push('(');
                for (k, ix) in indices.iter().enumerate() {
                    if k > 0 {
                        out.push_str(", ");
                    }
                    self.render_into(ix, site, primed, out);
                }
                out.push(')');
            }
            Expr::Unary { arg, .. } => {
                out.push_str("(-");
                self.render_into(arg, site, primed, out);
                out.push(')');
            }
            Expr::Binary { op, lhs, rhs } => {
                out.push('(');
                self.render_into(lhs, site, primed, out);
                out.push_str(match op {
                    BinOp::Add => " + ",
                    BinOp::Sub => " - ",
                    BinOp::Mul => " * ",
                    BinOp::Div => " / ",
                    BinOp::Mod => " mod ",
                    BinOp::Pow => unreachable!("checked: no exponentiation in an index"),
                });
                self.render_into(rhs, site, primed, out);
                out.push(')');
            }
            Expr::RealLit(_) | Expr::Call { .. } => unreachable!("checked: integral index"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use formad_analysis::analyze_body;
    use formad_ir::{parse_expr, parse_program};

    fn setup(src: &str) -> (Vec<formad_ir::Stmt>,) {
        let p = parse_program(src).unwrap();
        let l = p.parallel_loops()[0].clone();
        (l.body,)
    }

    /// The site of the first reference to `array` in `body`.
    fn site_of(body: &[formad_ir::Stmt], array: &str) -> SiteId {
        let refs = analyze_body(body).2;
        refs.iter().find(|r| r.array == array).unwrap().site
    }

    const FIG2: &str = r#"
subroutine fig2(n, x, y, c)
  integer, intent(in) :: n
  real, intent(in) :: x(n)
  real, intent(inout) :: y(n)
  integer, intent(in) :: c(n)
  integer :: i
  !$omp parallel do shared(x, y, c)
  do i = 1, n
    y(c(i)) = x(c(i) + 7)
  end do
end subroutine
"#;

    #[test]
    fn fig2_translation_and_priming() {
        let (body,) = setup(FIG2);
        let inst = analyze_body(&body).1;
        let written: FxHashSet<Name> = FxHashSet::default();
        let privatized: FxHashSet<Name> = FxHashSet::default();
        let i = Name::from("i");
        let tr = Translator {
            instances: &inst,
            counter: &i,
            written_arrays: &written,
            privatized: &privatized,
        };
        let node = site_of(&body, "y");
        let e = [parse_expr("c(i) + 7").unwrap()];
        assert_eq!(tr.render(&e, node, false), "(c(i) + 7)");
        assert_eq!(tr.render(&e, node, true), "(c(i') + 7)");
        // The rows: `c(i) + 7` and `c(i') + 7` over distinct atoms.
        let mut table = AtomTable::new();
        let a = tr.row(&e[0], node, false, &mut table).unwrap();
        let b = tr.row(&e[0], node, true, &mut table).unwrap();
        assert_eq!((a.constant, b.constant), (7, 7));
        assert_ne!(a.terms, b.terms);
        assert_eq!(table.len(), 4); // i, c(i), i', c(i')
    }

    #[test]
    fn written_index_array_taints() {
        let (body,) = setup(
            r#"
subroutine t(n, c, y)
  integer, intent(in) :: n
  integer, intent(inout) :: c(n)
  real, intent(inout) :: y(n)
  integer :: i
  !$omp parallel do shared(c, y)
  do i = 1, n
    c(i) = i
    y(c(i)) = 1.0
  end do
end subroutine
"#,
        );
        let inst = analyze_body(&body).1;
        let written: FxHashSet<Name> = FxHashSet::from_iter(["c".into()]);
        let privatized = FxHashSet::default();
        let i = Name::from("i");
        let tr = Translator {
            instances: &inst,
            counter: &i,
            written_arrays: &written,
            privatized: &privatized,
        };
        let e = parse_expr("c(i)").unwrap();
        assert_eq!(tr.check(&e), Err(Taint::MutatedIndexArray("c".to_string())));
        // The first obstruction in evaluation order is the one reported.
        let e = parse_expr("x(2.5) + c(i) ** 2").unwrap();
        assert_eq!(
            tr.check(&e),
            Err(Taint::NonInteger("real literal 2.5".into()))
        );
        let e = parse_expr("i ** 2").unwrap();
        assert_eq!(
            tr.check(&e),
            Err(Taint::NonInteger("exponentiation in index".into()))
        );
    }

    #[test]
    fn instanced_scalar_naming_and_priming() {
        let (body,) = setup(
            r#"
subroutine t(n, mss, y)
  integer, intent(in) :: n
  integer, intent(in) :: mss(n)
  real, intent(inout) :: y(n)
  integer :: i, idd
  !$omp parallel do shared(mss, y) private(idd)
  do i = 1, n
    idd = mss(i)
    y(idd) = 1.0
  end do
end subroutine
"#,
        );
        let inst = analyze_body(&body).1;
        let written = FxHashSet::default();
        let privatized: FxHashSet<Name> = FxHashSet::from_iter(["idd".into()]);
        let i = Name::from("i");
        let tr = Translator {
            instances: &inst,
            counter: &i,
            written_arrays: &written,
            privatized: &privatized,
        };
        // idd at the y(idd) node has a non-zero instance (defined at the
        // previous statement).
        let y_node = site_of(&body, "y");
        let e = [parse_expr("idd").unwrap()];
        let t = tr.render(&e, y_node, false);
        assert!(t.starts_with("idd@"), "{t}");
        let p = tr.render(&e, y_node, true);
        assert_eq!(p, format!("{t}'"));
        // Instance and side are part of the atom: four distinct symbols.
        let mut table = AtomTable::new();
        for (node, primed) in [(0, false), (0, true), (y_node, false), (y_node, true)] {
            tr.row(&e[0], node, primed, &mut table).unwrap();
        }
        assert_eq!(table.len(), 4);
    }

    #[test]
    fn shared_scalars_not_primed() {
        let written = FxHashSet::default();
        let privatized = FxHashSet::default();
        let (body,) = setup(
            r#"
subroutine t(n, y)
  integer, intent(in) :: n
  real, intent(inout) :: y(n)
  integer :: i
  !$omp parallel do shared(y)
  do i = 1, n
    y(i + n) = 1.0
  end do
end subroutine
"#,
        );
        let inst = analyze_body(&body).1;
        let i = Name::from("i");
        let tr = Translator {
            instances: &inst,
            counter: &i,
            written_arrays: &written,
            privatized: &privatized,
        };
        let e = [parse_expr("i + n").unwrap()];
        assert_eq!(tr.render(&e, 2, true), "(i' + n)");
        assert!(tr.varies(&e[0]));
        assert!(!tr.varies(&parse_expr("n + 1").unwrap()));
    }

    /// A translator for a loop over `i` with `j` and `w` privatized and
    /// no instanced scalars.
    fn with_privates(f: impl FnOnce(&Translator<'_>)) {
        let (body,) = setup(FIG2);
        let inst = analyze_body(&body).1;
        let written = FxHashSet::default();
        let privatized: FxHashSet<Name> = FxHashSet::from_iter(["j".into(), "w".into()]);
        let i = Name::from("i");
        f(&Translator {
            instances: &inst,
            counter: &i,
            written_arrays: &written,
            privatized: &privatized,
        });
    }

    #[test]
    fn rename_primes_symbols_and_app_args() {
        // Priming reaches every private symbol, inside applications too,
        // but never the name of the array applied.
        with_privates(|tr| {
            let e = [parse_expr("c(i) + j").unwrap()];
            assert_eq!(tr.render(&e, 0, true), "(c(i') + j')");
            assert_eq!(tr.render(&e, 0, false), "(c(i) + j)");
        });
    }

    #[test]
    fn varies_sees_nested_scalars() {
        // Priming reaches a private scalar however deep it sits, inside
        // subscripts included; a tuple of shared scalars never varies.
        with_privates(|tr| {
            let varies = |src: &str| tr.varies(&parse_expr(src).unwrap());
            assert!(varies("mss(1, n, c(j)) * 3"));
            assert!(varies("-(n + w)"));
            assert!(varies("i"));
            assert!(!varies("mss(1, n, c(n)) * n"));
        });
    }

    #[test]
    fn display_roundtrips_shape() {
        with_privates(|tr| {
            let e = parse_expr("(i - 1) * 2").unwrap();
            assert_eq!(tr.render(&[e], 0, false), "((i - 1) * 2)");
            let es = [
                parse_expr("-w").unwrap(),
                parse_expr("mod(j, 3) + c(i) / 2").unwrap(),
            ];
            assert_eq!(tr.render(&es, 0, true), "(-w'), ((j' mod 3) + (c(i') / 2))");
        });
    }

    #[test]
    fn memoized_sides_build_the_same_rows_and_table() {
        // Pairing sides that keep their rows interns the same atoms in the
        // same order, and gives the same literals, as building every row
        // afresh for every pair.
        with_privates(|tr| {
            let tuples: Vec<Vec<Expr>> =
                [["i", "c(j) + 1"], ["c(i)", "w * j"], ["j - 2", "c(c(i))"]]
                    .iter()
                    .map(|t| t.iter().map(|e| parse_expr(e).unwrap()).collect())
                    .collect();
            let mut plain_table = AtomTable::new();
            let mut memo_table = AtomTable::new();
            let mut sides: Vec<Side<'_>> = tuples.iter().map(|t| Side::new(t, 0, false)).collect();
            let mut primed: Vec<Side<'_>> = tuples.iter().map(|t| Side::new(t, 0, true)).collect();
            for a in 0..tuples.len() {
                for b in 0..tuples.len() {
                    for rel in [Rel::Ne, Rel::Eq] {
                        let mut pa = Side::new(&tuples[a], 0, true);
                        let mut pb = Side::new(&tuples[b], 0, false);
                        let plain = tr.pair(rel, &mut pa, &mut pb, &mut plain_table).unwrap();
                        let memo = tr
                            .pair(rel, &mut primed[a], &mut sides[b], &mut memo_table)
                            .unwrap();
                        assert_eq!(plain.lits(), memo.lits());
                    }
                }
            }
            assert_eq!(plain_table.len(), memo_table.len());
            for k in 0..plain_table.len() as u32 {
                let id = formad_smt::AtomId(k);
                assert_eq!(plain_table.key(id), memo_table.key(id), "atom {k}");
            }
        });
    }
}
