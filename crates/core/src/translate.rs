//! Translation of array index expressions into prover terms (paper §6).
//!
//! Loop counters of the parallel loop keep their bare name (the root
//! assertion `i ≠ i'` refers to it); every other scalar is tagged with its
//! *instance number* (§5.2) so that two textually identical uses separated
//! by an overwrite become distinct symbols. Integer-array reads inside
//! indices (`c(i)`, `mss(1, ig, k12)`) become uninterpreted applications.
//! Privatized variables are *primed* on one side of each pair (§5.3) by a
//! renaming pass over the resulting term.

use formad_analysis::{Instances, NodeId};
use formad_ir::{BinOp, Expr, Name, UnOp};
use formad_smt::{FxHashSet, Term};

/// Why an index expression could not be translated.
#[derive(Debug, Clone, PartialEq)]
pub enum Taint {
    /// The expression reads an array that is written inside the region, so
    /// its value is not stable across the region (treated as unanalyzable;
    /// FormAD keeps the safeguards).
    MutatedIndexArray(String),
    /// A construct with no integer-term semantics (real literal/intrinsic).
    NonInteger(String),
}

/// Context for translating index expressions of one parallel region.
pub struct Translator<'a> {
    /// Instance numbering of the region's CFG.
    pub instances: &'a Instances,
    /// Parallel loop counter (kept as a bare symbol).
    pub counter: &'a str,
    /// Arrays written anywhere in the region (index reads of these taint).
    pub written_arrays: &'a FxHashSet<Name>,
    /// Privatized scalars (clause privates + in-body assigned scalars +
    /// inner loop counters); these are primed on one side of a pair.
    pub privatized: &'a FxHashSet<Name>,
}

impl<'a> Translator<'a> {
    /// Symbol for a scalar at a node: `name` when instance 0, else
    /// `name@k`.
    fn sym_at(&self, name: &str, node: NodeId) -> String {
        if name == self.counter {
            return name.to_string();
        }
        let inst = self.instances.instance(node, name);
        if inst == 0 {
            name.to_string()
        } else {
            format!("{name}@{inst}")
        }
    }

    /// Translate one index expression located at CFG node `node`.
    pub fn term(&self, e: &Expr, node: NodeId) -> Result<Term, Taint> {
        Ok(match e {
            Expr::IntLit(v) => Term::Int(*v),
            Expr::RealLit(v) => {
                return Err(Taint::NonInteger(format!("real literal {v}")));
            }
            Expr::Var(n) => Term::sym(self.sym_at(n, node)),
            Expr::Index { array, indices } => {
                if self.written_arrays.contains(array) {
                    return Err(Taint::MutatedIndexArray(array.to_string()));
                }
                let args: Result<Vec<Term>, Taint> =
                    indices.iter().map(|ix| self.term(ix, node)).collect();
                Term::App(array.to_string(), args?)
            }
            Expr::Unary { op: UnOp::Neg, arg } => Term::Neg(Box::new(self.term(arg, node)?)),
            Expr::Binary { op, lhs, rhs } => {
                let a = Box::new(self.term(lhs, node)?);
                let b = Box::new(self.term(rhs, node)?);
                match op {
                    BinOp::Add => Term::Add(a, b),
                    BinOp::Sub => Term::Sub(a, b),
                    BinOp::Mul => Term::Mul(a, b),
                    BinOp::Div => Term::Div(a, b),
                    BinOp::Mod => Term::Mod(a, b),
                    BinOp::Pow => {
                        return Err(Taint::NonInteger("exponentiation in index".into()));
                    }
                }
            }
            Expr::Call { func, .. } => {
                return Err(Taint::NonInteger(format!(
                    "intrinsic {} in index",
                    func.name()
                )));
            }
        })
    }

    /// Translate a full index tuple.
    pub fn tuple(&self, indices: &[Expr], node: NodeId) -> Result<Vec<Term>, Taint> {
        indices.iter().map(|e| self.term(e, node)).collect()
    }

    /// Prime every privatized symbol in `t` (append `'`), including the
    /// parallel loop counter. Instance suffixes are preserved
    /// (`w@2 → w@2'`).
    pub fn prime(&self, t: &Term) -> Term {
        t.rename_syms(
            &|name: &str| {
                let base = name.split('@').next().unwrap_or(name);
                if base == self.counter || self.privatized.contains(base) {
                    format!("{name}'")
                } else {
                    name.to_string()
                }
            },
            false,
        )
    }

    /// Prime a tuple.
    pub fn prime_tuple(&self, ts: &[Term]) -> Vec<Term> {
        ts.iter().map(|t| self.prime(t)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use formad_analysis::{Cfg, Instances};
    use formad_ir::parse_program;

    fn setup(src: &str) -> (Vec<formad_ir::Stmt>,) {
        let p = parse_program(src).unwrap();
        let l = p.parallel_loops()[0].clone();
        (l.body,)
    }

    #[test]
    fn fig2_translation_and_priming() {
        let (body,) = setup(
            r#"
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
"#,
        );
        let cfg = Cfg::build(&body);
        let inst = Instances::analyze(&cfg);
        let written: FxHashSet<Name> = FxHashSet::default();
        let privatized: FxHashSet<Name> = FxHashSet::default();
        let tr = Translator {
            instances: &inst,
            counter: "i",
            written_arrays: &written,
            privatized: &privatized,
        };
        // Find the statement node.
        let node = (0..cfg.len())
            .find(|&n| matches!(cfg.nodes[n], formad_analysis::NodeKind::Simple(_)))
            .unwrap();
        let e = formad_ir::parse_expr("c(i) + 7").unwrap();
        let t = tr.term(&e, node).unwrap();
        assert_eq!(t.to_string(), "(c(i) + 7)");
        let p = tr.prime(&t);
        assert_eq!(p.to_string(), "(c(i') + 7)");
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
        let cfg = Cfg::build(&body);
        let inst = Instances::analyze(&cfg);
        let written: FxHashSet<Name> = FxHashSet::from_iter(["c".into()]);
        let privatized = FxHashSet::default();
        let tr = Translator {
            instances: &inst,
            counter: "i",
            written_arrays: &written,
            privatized: &privatized,
        };
        let e = formad_ir::parse_expr("c(i)").unwrap();
        assert_eq!(
            tr.term(&e, 2),
            Err(Taint::MutatedIndexArray("c".to_string()))
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
        let cfg = Cfg::build(&body);
        let inst = Instances::analyze(&cfg);
        let written = FxHashSet::default();
        let privatized: FxHashSet<Name> = FxHashSet::from_iter(["idd".into()]);
        let tr = Translator {
            instances: &inst,
            counter: "i",
            written_arrays: &written,
            privatized: &privatized,
        };
        // idd at the y(idd) node has a non-zero instance (defined at the
        // previous statement).
        let y_node = (0..cfg.len())
            .filter(|&n| matches!(cfg.nodes[n], formad_analysis::NodeKind::Simple(_)))
            .nth(1)
            .unwrap();
        let e = formad_ir::parse_expr("idd").unwrap();
        let t = tr.term(&e, y_node).unwrap();
        assert!(t.to_string().starts_with("idd@"), "{t}");
        let p = tr.prime(&t);
        assert!(p.to_string().ends_with('\''), "{p}");
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
        let cfg = Cfg::build(&body);
        let inst = Instances::analyze(&cfg);
        let tr = Translator {
            instances: &inst,
            counter: "i",
            written_arrays: &written,
            privatized: &privatized,
        };
        let e = formad_ir::parse_expr("i + n").unwrap();
        let t = tr.term(&e, 2).unwrap();
        let p = tr.prime(&t);
        assert_eq!(p.to_string(), "(i' + n)");
    }
}
