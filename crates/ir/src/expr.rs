//! Arithmetic and boolean expressions of the loop language.

use std::fmt;
use std::sync::Arc;

use crate::name::Name;

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    /// Exponentiation (`**` in the surface syntax).
    Pow,
    /// Integer modulo (`mod(a, b)` intrinsic lowers to this).
    Mod,
}

impl BinOp {
    /// Parser precedence: higher binds tighter.
    pub fn precedence(self) -> u8 {
        match self {
            BinOp::Add | BinOp::Sub => 1,
            BinOp::Mul | BinOp::Div | BinOp::Mod => 2,
            BinOp::Pow => 3,
        }
    }
}

/// Unary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    Neg,
}

/// Differentiable and integer intrinsics understood by the language.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Intrinsic {
    Sin,
    Cos,
    Exp,
    Log,
    Sqrt,
    Abs,
    Min,
    Max,
    /// `tanh` shows up in activation-like kernels.
    Tanh,
}

impl Intrinsic {
    /// Every intrinsic.
    pub const ALL: [Intrinsic; 9] = [
        Intrinsic::Sin,
        Intrinsic::Cos,
        Intrinsic::Exp,
        Intrinsic::Log,
        Intrinsic::Sqrt,
        Intrinsic::Abs,
        Intrinsic::Min,
        Intrinsic::Max,
        Intrinsic::Tanh,
    ];

    /// Surface-syntax name.
    pub fn name(self) -> &'static str {
        match self {
            Intrinsic::Sin => "sin",
            Intrinsic::Cos => "cos",
            Intrinsic::Exp => "exp",
            Intrinsic::Log => "log",
            Intrinsic::Sqrt => "sqrt",
            Intrinsic::Abs => "abs",
            Intrinsic::Min => "min",
            Intrinsic::Max => "max",
            Intrinsic::Tanh => "tanh",
        }
    }

    /// Number of arguments the intrinsic takes.
    pub fn arity(self) -> usize {
        match self {
            Intrinsic::Min | Intrinsic::Max => 2,
            _ => 1,
        }
    }

    /// Look an intrinsic up by its surface name.
    pub fn from_name(name: &str) -> Option<Intrinsic> {
        Intrinsic::ALL.into_iter().find(|f| f.name() == name)
    }
}

/// An arithmetic expression.
///
/// Trees are immutable and shared: children sit behind `Arc`, so `clone`
/// bumps reference counts instead of copying, and a tree is changed by
/// building a new one ([`Expr::map`]) that shares what it keeps.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    IntLit(i64),
    /// Real literal.
    RealLit(f64),
    /// Scalar variable reference.
    Var(Name),
    /// Array element reference `array(indices...)` (1-based, Fortran style).
    Index { array: Name, indices: Arc<[Expr]> },
    /// Unary operation.
    Unary { op: UnOp, arg: Arc<Expr> },
    /// Binary operation.
    Binary {
        op: BinOp,
        lhs: Arc<Expr>,
        rhs: Arc<Expr>,
    },
    /// Intrinsic function call.
    Call { func: Intrinsic, args: Arc<[Expr]> },
}

impl Expr {
    /// Shorthand for a scalar variable reference.
    pub fn var(name: impl Into<Name>) -> Expr {
        Expr::Var(name.into())
    }

    /// Shorthand for an integer literal.
    pub fn int(v: i64) -> Expr {
        Expr::IntLit(v)
    }

    /// Shorthand for a real literal.
    pub fn real(v: f64) -> Expr {
        Expr::RealLit(v)
    }

    /// Shorthand for an array element reference.
    pub fn index(array: impl Into<Name>, indices: impl Into<Arc<[Expr]>>) -> Expr {
        Expr::Index {
            array: array.into(),
            indices: indices.into(),
        }
    }

    /// Build a binary operation. An operand that is already shared
    /// (`Arc<Expr>`) is used as it is.
    pub fn binary(op: BinOp, lhs: impl Into<Arc<Expr>>, rhs: impl Into<Arc<Expr>>) -> Expr {
        Expr::Binary {
            op,
            lhs: lhs.into(),
            rhs: rhs.into(),
        }
    }

    /// Build an intrinsic call; panics if the arity is wrong (programming
    /// error in builders, caught by `validate` for parsed programs).
    pub fn call(func: Intrinsic, args: impl Into<Arc<[Expr]>>) -> Expr {
        let args = args.into();
        assert_eq!(
            args.len(),
            func.arity(),
            "intrinsic {} expects {} arguments",
            func.name(),
            func.arity()
        );
        Expr::Call { func, args }
    }

    /// Negation helper.
    #[allow(clippy::should_implement_trait)]
    pub fn neg(self) -> Expr {
        Expr::Unary {
            op: UnOp::Neg,
            arg: Arc::new(self),
        }
    }

    /// Visit every sub-expression (including `self`), pre-order.
    pub fn walk(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::IntLit(_) | Expr::RealLit(_) | Expr::Var(_) => {}
            Expr::Index { indices, .. } => {
                for ix in indices.iter() {
                    ix.walk(f);
                }
            }
            Expr::Unary { arg, .. } => arg.walk(f),
            Expr::Binary { lhs, rhs, .. } => {
                lhs.walk(f);
                rhs.walk(f);
            }
            Expr::Call { args, .. } => {
                for a in args.iter() {
                    a.walk(f);
                }
            }
        }
    }

    /// Rebuild the expression bottom-up: `f` sees each node after its
    /// children were rebuilt and returns its replacement, or `None` to keep
    /// it. A subtree in which `f` replaced nothing comes back as the same
    /// `Arc`s, not as a copy.
    pub fn map(&self, f: &mut impl FnMut(&Expr) -> Option<Expr>) -> Expr {
        self.map_changed(f).unwrap_or_else(|| self.clone())
    }

    /// [`Expr::map`], or `None` if `f` replaced nothing.
    fn map_changed(&self, f: &mut impl FnMut(&Expr) -> Option<Expr>) -> Option<Expr> {
        let rebuilt = match self {
            Expr::IntLit(_) | Expr::RealLit(_) | Expr::Var(_) => None,
            Expr::Index { array, indices } => map_all(indices, f).map(|indices| Expr::Index {
                array: array.clone(),
                indices,
            }),
            Expr::Unary { op, arg } => arg.map_changed(f).map(|arg| Expr::Unary {
                op: *op,
                arg: Arc::new(arg),
            }),
            Expr::Binary { op, lhs, rhs } => match (lhs.map_changed(f), rhs.map_changed(f)) {
                (None, None) => None,
                (l, r) => Some(Expr::Binary {
                    op: *op,
                    lhs: l.map_or_else(|| lhs.clone(), Arc::new),
                    rhs: r.map_or_else(|| rhs.clone(), Arc::new),
                }),
            },
            Expr::Call { func, args } => {
                map_all(args, f).map(|args| Expr::Call { func: *func, args })
            }
        };
        match rebuilt {
            Some(e) => Some(f(&e).unwrap_or(e)),
            None => f(self),
        }
    }

    /// Collect the names of all scalar variables read by this expression
    /// (array names are *not* included; their index variables are).
    pub fn scalar_vars(&self, out: &mut Vec<Name>) {
        self.walk(&mut |e| {
            if let Expr::Var(name) = e {
                if !out.contains(name) {
                    out.push(name.clone());
                }
            }
        });
    }

    /// Collect the names of all arrays referenced by this expression.
    pub fn array_names(&self, out: &mut Vec<Name>) {
        self.walk(&mut |e| {
            if let Expr::Index { array, .. } = e {
                if !out.contains(array) {
                    out.push(array.clone());
                }
            }
        });
    }

    /// Substitute every occurrence of scalar variable `name` with `repl`.
    pub fn subst_var(&self, name: &str, repl: &Expr) -> Expr {
        self.map(&mut |e| matches!(e, Expr::Var(n) if n == name).then(|| repl.clone()))
    }

    /// True if the expression contains any array reference.
    pub fn has_array_ref(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if matches!(e, Expr::Index { .. }) {
                found = true;
            }
        });
        found
    }
}

/// [`Expr::map`] over a slice of children: `None` if none changed, and
/// one allocation once one does.
fn map_all(xs: &Arc<[Expr]>, f: &mut impl FnMut(&Expr) -> Option<Expr>) -> Option<Arc<[Expr]>> {
    let (k, first) = xs
        .iter()
        .enumerate()
        .find_map(|(k, x)| x.map_changed(f).map(|e| (k, e)))?;
    let rest = xs[k + 1..].iter().map(|x| x.map(f));
    Some(xs[..k].iter().cloned().chain([first]).chain(rest).collect())
}

/// Comparison operators for boolean conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// The comparison with operands swapped (`a < b` ⇔ `b > a`).
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// Logical negation of the comparison.
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }
}

/// A boolean condition (only used in `if` statements and loop guards).
#[derive(Debug, Clone, PartialEq)]
pub enum BoolExpr {
    Cmp { op: CmpOp, lhs: Expr, rhs: Expr },
    And(Arc<BoolExpr>, Arc<BoolExpr>),
    Or(Arc<BoolExpr>, Arc<BoolExpr>),
    Not(Arc<BoolExpr>),
}

impl BoolExpr {
    /// Build a comparison.
    pub fn cmp(op: CmpOp, lhs: Expr, rhs: Expr) -> BoolExpr {
        BoolExpr::Cmp { op, lhs, rhs }
    }

    /// Visit every arithmetic sub-expression in the condition.
    pub fn walk_exprs(&self, f: &mut impl FnMut(&Expr)) {
        match self {
            BoolExpr::Cmp { lhs, rhs, .. } => {
                lhs.walk(f);
                rhs.walk(f);
            }
            BoolExpr::And(a, b) | BoolExpr::Or(a, b) => {
                a.walk_exprs(f);
                b.walk_exprs(f);
            }
            BoolExpr::Not(a) => a.walk_exprs(f),
        }
    }
}

// Operator-overload sugar so builder code reads like the source language.
// The right operand may be an `Expr` or an already shared `Arc<Expr>`.
impl<R: Into<Arc<Expr>>> std::ops::Add<R> for Expr {
    type Output = Expr;
    fn add(self, rhs: R) -> Expr {
        Expr::binary(BinOp::Add, self, rhs)
    }
}
impl<R: Into<Arc<Expr>>> std::ops::Sub<R> for Expr {
    type Output = Expr;
    fn sub(self, rhs: R) -> Expr {
        Expr::binary(BinOp::Sub, self, rhs)
    }
}
impl<R: Into<Arc<Expr>>> std::ops::Mul<R> for Expr {
    type Output = Expr;
    fn mul(self, rhs: R) -> Expr {
        Expr::binary(BinOp::Mul, self, rhs)
    }
}
impl<R: Into<Arc<Expr>>> std::ops::Div<R> for Expr {
    type Output = Expr;
    fn div(self, rhs: R) -> Expr {
        Expr::binary(BinOp::Div, self, rhs)
    }
}
impl std::ops::Neg for Expr {
    type Output = Expr;
    fn neg(self) -> Expr {
        Expr::neg(self)
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", crate::printer::expr_to_string(self))
    }
}

impl fmt::Display for BoolExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", crate::printer::bool_to_string(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: &str) -> Expr {
        Expr::var(n)
    }

    #[test]
    fn operator_sugar_builds_trees() {
        let e = v("a") + v("b") * Expr::int(2);
        match e {
            Expr::Binary {
                op: BinOp::Add,
                lhs,
                rhs,
            } => {
                assert_eq!(*lhs, v("a"));
                assert!(matches!(*rhs, Expr::Binary { op: BinOp::Mul, .. }));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn scalar_vars_dedup_and_skip_array_names() {
        let e = Expr::index("u", vec![v("i") + Expr::int(1)]) + v("i") + v("w");
        let mut vars = Vec::new();
        e.scalar_vars(&mut vars);
        assert_eq!(vars, vec!["i".to_string(), "w".to_string()]);
    }

    #[test]
    fn array_names_collected() {
        let e = Expr::index("u", vec![v("i")]) * Expr::index("v", vec![v("i"), v("j")]);
        let mut arrs = Vec::new();
        e.array_names(&mut arrs);
        assert_eq!(arrs, vec!["u".to_string(), "v".to_string()]);
    }

    #[test]
    fn subst_replaces_all_occurrences() {
        let e = v("i") + Expr::index("c", vec![v("i")]);
        let s = e.subst_var("i", &(v("i") + Expr::int(1)));
        let mut vars = Vec::new();
        s.scalar_vars(&mut vars);
        assert_eq!(vars, vec!["i".to_string()]);
        // The index argument must be rewritten too.
        match &s {
            Expr::Binary { rhs, .. } => match rhs.as_ref() {
                Expr::Index { indices, .. } => {
                    assert!(matches!(indices[0], Expr::Binary { op: BinOp::Add, .. }));
                }
                other => panic!("unexpected: {other:?}"),
            },
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn map_shares_the_subtrees_it_keeps() {
        let kept = Expr::index("x", vec![v("i") + Expr::int(1)]);
        let e = kept.clone() * (v("j") + Expr::call(Intrinsic::Sin, [v("a")]));
        let Expr::Binary { lhs, rhs, .. } = &e else {
            unreachable!()
        };
        // `j` occurs on the right only: the left comes back as itself.
        let s = e.subst_var("j", &v("k"));
        let Expr::Binary {
            lhs: l2, rhs: r2, ..
        } = &s
        else {
            unreachable!()
        };
        assert!(Arc::ptr_eq(lhs, l2));
        assert!(!Arc::ptr_eq(rhs, r2));
        let (Expr::Binary { rhs: call, .. }, Expr::Binary { rhs: call2, .. }) = (&**rhs, &**r2)
        else {
            unreachable!()
        };
        assert!(Arc::ptr_eq(call, call2));
        // A variable that does not occur: every child is shared.
        let same = e.subst_var("zzz", &v("k"));
        let Expr::Binary {
            lhs: l3, rhs: r3, ..
        } = &same
        else {
            unreachable!()
        };
        assert!(Arc::ptr_eq(lhs, l3) && Arc::ptr_eq(rhs, r3));
        // Inside an index: the untouched siblings of a rewritten index
        // are shared, the indices slice is new.
        let two = Expr::index("u", vec![v("i") * v("n"), v("j")]);
        let Expr::Index { indices, .. } = &two else {
            unreachable!()
        };
        let Expr::Index { indices: i2, .. } = two.subst_var("j", &v("k")) else {
            unreachable!()
        };
        let (Expr::Binary { lhs: a, .. }, Expr::Binary { lhs: b, .. }) = (&indices[0], &i2[0])
        else {
            unreachable!()
        };
        assert!(Arc::ptr_eq(a, b));
        assert_eq!(i2[1], v("k"));
    }

    #[test]
    fn cmp_negate_and_flip() {
        assert_eq!(CmpOp::Lt.negate(), CmpOp::Ge);
        assert_eq!(CmpOp::Lt.flip(), CmpOp::Gt);
        assert_eq!(CmpOp::Eq.negate(), CmpOp::Ne);
    }

    #[test]
    fn intrinsic_roundtrip() {
        for i in Intrinsic::ALL {
            assert_eq!(Intrinsic::from_name(i.name()), Some(i));
        }
        assert_eq!(Intrinsic::from_name("nope"), None);
    }

    #[test]
    #[should_panic(expected = "expects 2 arguments")]
    fn call_arity_checked() {
        let _ = Expr::call(Intrinsic::Min, vec![Expr::int(1)]);
    }

    #[test]
    fn clone_shares_children_and_expr_did_not_grow() {
        let e =
            Expr::index("u", vec![v("i") + Expr::int(1)]) * Expr::call(Intrinsic::Sin, [v("x")]);
        let Expr::Binary { lhs, rhs, .. } = &e else {
            unreachable!()
        };
        let Expr::Binary {
            lhs: lhs2,
            rhs: rhs2,
            ..
        } = &e.clone()
        else {
            unreachable!()
        };
        assert!(Arc::ptr_eq(lhs, lhs2) && Arc::ptr_eq(rhs, rhs2));
        let (
            Expr::Index { array, indices },
            Expr::Index {
                array: a2,
                indices: i2,
            },
        ) = (&**lhs, (**lhs).clone())
        else {
            unreachable!()
        };
        assert!(Name::ptr_eq(array, &a2) && Arc::ptr_eq(indices, &i2));
        let (Expr::Call { args, .. }, Expr::Call { args: args2, .. }) = (&**rhs, (**rhs).clone())
        else {
            unreachable!()
        };
        assert!(Arc::ptr_eq(args, &args2));
        // The owned tree's `Expr` (`String` name + `Vec` of indices) was 48
        // bytes.
        println!("size_of::<Expr>() = {}", std::mem::size_of::<Expr>());
        assert!(std::mem::size_of::<Expr>() <= 48);
    }

    #[test]
    fn has_array_ref_detects_nesting() {
        let e = v("a") + Expr::call(Intrinsic::Sin, vec![Expr::index("u", vec![v("i")])]);
        assert!(e.has_array_ref());
        assert!(!v("a").has_array_ref());
    }
}
