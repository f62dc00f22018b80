//! Lowering: resolve names to dense slots and array extents to strides so
//! the interpreter runs without any hashing in the hot path.

use std::collections::HashMap;

use formad_ir::{
    BinOp, BoolExpr, CmpOp, Decl, Expr, Intrinsic, LValue, Program, RedOp, Stmt, Ty, UnOp,
};

use crate::bindings::{Bindings, ExecError};

/// Slot of a scalar variable (index into the real or int scalar file).
pub type Slot = u32;
/// Index of an array in the array file.
pub type ArrId = u32;

/// Lowered expression. Type is resolved statically; `Coerce` converts an
/// integer subexpression to real where Fortran's mixed arithmetic demands.
#[derive(Debug, Clone)]
pub enum LExpr {
    ConstR(f64),
    ConstI(i64),
    ScalarR(Slot),
    ScalarI(Slot),
    /// Array element; the bool marks *indirect* accesses (an index that
    /// itself reads an array — gather/scatter).
    Elem(ArrId, Vec<LExpr>, bool),
    Bin(BinOp, Box<LExpr>, Box<LExpr>),
    Neg(Box<LExpr>),
    Call(Intrinsic, Vec<LExpr>),
    /// Int → real conversion.
    Coerce(Box<LExpr>),
}

/// Lowered boolean expression.
#[derive(Debug, Clone)]
pub enum LBool {
    Cmp(CmpOp, Ty, LExpr, LExpr),
    And(Box<LBool>, Box<LBool>),
    Or(Box<LBool>, Box<LBool>),
    Not(Box<LBool>),
}

/// Lowered statement.
#[derive(Debug, Clone)]
pub enum LStmt {
    AssignR(Slot, LExpr),
    AssignI(Slot, LExpr),
    AssignElem(ArrId, Vec<LExpr>, LExpr, bool),
    AtomicAddElem(ArrId, Vec<LExpr>, LExpr),
    If(LBool, Vec<LStmt>, Vec<LStmt>),
    For(Box<LFor>),
    Push(LExpr, Ty),
    PopR(Slot),
    PopI(Slot),
    PopElem(ArrId, Vec<LExpr>, bool),
}

/// Lowered loop.
#[derive(Debug, Clone)]
pub struct LFor {
    pub var: Slot,
    pub lo: LExpr,
    pub hi: LExpr,
    pub step: LExpr,
    pub body: Vec<LStmt>,
    pub parallel: Option<LParallel>,
}

/// Lowered parallel clauses.
#[derive(Debug, Clone, Default)]
pub struct LParallel {
    /// Private real scalar slots.
    pub private_r: Vec<Slot>,
    /// Private integer scalar slots.
    pub private_i: Vec<Slot>,
    /// Scalar reductions `(op, slot, is_real)`.
    pub red_scalars: Vec<(RedOp, Slot, bool)>,
    /// Array reductions (always on real arrays in generated adjoints).
    pub red_arrays: Vec<(RedOp, ArrId)>,
}

/// An array's runtime storage descriptor.
#[derive(Debug, Clone)]
pub struct ArrMeta {
    pub name: String,
    pub ty: Ty,
    /// Extent of each dimension.
    pub dims: Vec<i64>,
    /// Number of elements.
    pub len: usize,
}

/// A fully lowered program ready for execution.
#[derive(Debug)]
pub struct LProgram {
    pub name: String,
    pub body: Vec<LStmt>,
    pub n_real_scalars: usize,
    pub n_int_scalars: usize,
    pub arrays: Vec<ArrMeta>,
    /// Scalar name → (slot, ty) for binding transfer.
    pub scalar_slots: HashMap<String, (Slot, Ty)>,
    /// Array name → id.
    pub array_ids: HashMap<String, ArrId>,
}

struct Lowerer<'a> {
    prog: &'a Program,
    scalar_slots: HashMap<String, (Slot, Ty)>,
    array_ids: HashMap<String, ArrId>,
    arrays: Vec<ArrMeta>,
    n_real: usize,
    n_int: usize,
    /// Scalars assigned from array reads in the *current innermost* loop
    /// body: indices referencing them are per-iteration gathers (cache
    /// misses). Scalars gathered in an outer loop are innermost-invariant
    /// (strided, prefetchable) and not counted.
    gather_ctx: std::collections::HashSet<formad_ir::Name>,
}

/// Lower `prog`, evaluating array extents from the scalar bindings.
pub fn lower(prog: &Program, bind: &Bindings) -> Result<LProgram, ExecError> {
    let mut lw = Lowerer {
        prog,
        scalar_slots: HashMap::new(),
        array_ids: HashMap::new(),
        arrays: Vec::new(),
        n_real: 0,
        n_int: 0,
        gather_ctx: std::collections::HashSet::new(),
    };
    // Two passes: scalars first so extents (which reference scalar
    // parameters like `n`) can be evaluated, then arrays.
    for d in prog.decls() {
        if !d.is_array() {
            let slot = match d.ty {
                Ty::Real => {
                    lw.n_real += 1;
                    (lw.n_real - 1) as Slot
                }
                Ty::Int => {
                    lw.n_int += 1;
                    (lw.n_int - 1) as Slot
                }
            };
            lw.scalar_slots.insert(d.name.to_string(), (slot, d.ty));
        }
    }
    for d in prog.decls() {
        if d.is_array() {
            lw.lower_array_decl(d, bind)?;
        }
    }
    let body = lw.lower_body(&prog.body)?;
    Ok(LProgram {
        name: prog.name.clone(),
        body,
        n_real_scalars: lw.n_real,
        n_int_scalars: lw.n_int,
        arrays: lw.arrays,
        scalar_slots: lw.scalar_slots,
        array_ids: lw.array_ids,
    })
}

impl<'a> Lowerer<'a> {
    /// Is an index-expression list an indirect (gather/scatter) access?
    /// True when an index reads an array directly, or references a scalar
    /// holding a value gathered in the current innermost loop.
    fn is_indirect(&self, indices: &[Expr]) -> bool {
        indices.iter().any(|ix| {
            if ix.has_array_ref() {
                return true;
            }
            let mut vars = Vec::new();
            ix.scalar_vars(&mut vars);
            vars.iter().any(|v| self.gather_ctx.contains(v))
        })
    }

    /// Scalars assigned from array-reading expressions directly in `body`
    /// (descending into `if` branches but not into nested loops).
    fn gather_scalars(body: &[Stmt], out: &mut std::collections::HashSet<formad_ir::Name>) {
        for s in body {
            match s {
                Stmt::Assign {
                    lhs: LValue::Var(v),
                    rhs,
                } if rhs.has_array_ref() => {
                    out.insert(v.clone());
                }
                Stmt::If {
                    then_body,
                    else_body,
                    ..
                } => {
                    Self::gather_scalars(then_body, out);
                    Self::gather_scalars(else_body, out);
                }
                _ => {}
            }
        }
    }

    fn lower_array_decl(&mut self, d: &Decl, bind: &Bindings) -> Result<(), ExecError> {
        let mut dims = Vec::with_capacity(d.dims.len());
        for e in &d.dims {
            dims.push(eval_const_int(e, bind).ok_or_else(|| {
                ExecError::new(format!(
                    "extent of array `{}` is not computable from scalar bindings",
                    d.name
                ))
            })?);
        }
        let len: i64 = dims.iter().product();
        if len < 0 {
            return Err(ExecError::new(format!(
                "array `{}` has negative size",
                d.name
            )));
        }
        let id = self.arrays.len() as ArrId;
        self.arrays.push(ArrMeta {
            name: d.name.to_string(),
            ty: d.ty,
            dims,
            len: len as usize,
        });
        self.array_ids.insert(d.name.to_string(), id);
        Ok(())
    }

    fn ty_of_expr(&self, e: &Expr) -> Ty {
        match e {
            Expr::IntLit(_) => Ty::Int,
            Expr::RealLit(_) => Ty::Real,
            Expr::Var(n) => self.prog.ty_of(n).unwrap_or(Ty::Real),
            Expr::Index { array, .. } => self.prog.ty_of(array).unwrap_or(Ty::Real),
            Expr::Unary { arg, .. } => self.ty_of_expr(arg),
            Expr::Binary { op, lhs, rhs } => match op {
                BinOp::Mod => Ty::Int,
                _ => {
                    if self.ty_of_expr(lhs) == Ty::Real || self.ty_of_expr(rhs) == Ty::Real {
                        Ty::Real
                    } else {
                        Ty::Int
                    }
                }
            },
            Expr::Call { func, args } => match func {
                Intrinsic::Abs | Intrinsic::Min | Intrinsic::Max => {
                    if args.iter().any(|a| self.ty_of_expr(a) == Ty::Real) {
                        Ty::Real
                    } else {
                        Ty::Int
                    }
                }
                _ => Ty::Real,
            },
        }
    }

    /// Lower an expression, coercing to the requested type if needed.
    fn lower_expr(&self, e: &Expr, want: Ty) -> Result<LExpr, ExecError> {
        let have = self.ty_of_expr(e);
        let raw = self.lower_expr_raw(e)?;
        match (have, want) {
            (Ty::Int, Ty::Real) => Ok(LExpr::Coerce(Box::new(raw))),
            (Ty::Real, Ty::Int) => Err(ExecError::new(format!(
                "cannot use real expression where an integer is required: {e}"
            ))),
            _ => Ok(raw),
        }
    }

    fn lower_expr_raw(&self, e: &Expr) -> Result<LExpr, ExecError> {
        Ok(match e {
            Expr::IntLit(v) => LExpr::ConstI(*v),
            Expr::RealLit(v) => LExpr::ConstR(*v),
            Expr::Var(n) => {
                let (slot, ty) = *self
                    .scalar_slots
                    .get(n.as_str())
                    .ok_or_else(|| ExecError::new(format!("unbound scalar `{n}`")))?;
                match ty {
                    Ty::Real => LExpr::ScalarR(slot),
                    Ty::Int => LExpr::ScalarI(slot),
                }
            }
            Expr::Index { array, indices } => {
                let id = *self
                    .array_ids
                    .get(array.as_str())
                    .ok_or_else(|| ExecError::new(format!("unbound array `{array}`")))?;
                let indirect = self.is_indirect(indices);
                let idx: Result<Vec<LExpr>, _> = indices
                    .iter()
                    .map(|ix| self.lower_expr(ix, Ty::Int))
                    .collect();
                LExpr::Elem(id, idx?, indirect)
            }
            Expr::Unary { op: UnOp::Neg, arg } => LExpr::Neg(Box::new(self.lower_expr_raw(arg)?)),
            Expr::Binary { op, lhs, rhs } => {
                let ty = self.ty_of_expr(e);
                let (a, b) = if *op == BinOp::Mod {
                    (
                        self.lower_expr(lhs, Ty::Int)?,
                        self.lower_expr(rhs, Ty::Int)?,
                    )
                } else {
                    (self.lower_expr(lhs, ty)?, self.lower_expr(rhs, ty)?)
                };
                LExpr::Bin(*op, Box::new(a), Box::new(b))
            }
            Expr::Call { func, args } => {
                let want = match func {
                    Intrinsic::Abs | Intrinsic::Min | Intrinsic::Max => self.ty_of_expr(e),
                    _ => Ty::Real,
                };
                let largs: Result<Vec<LExpr>, _> =
                    args.iter().map(|a| self.lower_expr(a, want)).collect();
                LExpr::Call(*func, largs?)
            }
        })
    }

    fn lower_bool(&self, b: &BoolExpr) -> Result<LBool, ExecError> {
        Ok(match b {
            BoolExpr::Cmp { op, lhs, rhs } => {
                let ty = if self.ty_of_expr(lhs) == Ty::Real || self.ty_of_expr(rhs) == Ty::Real {
                    Ty::Real
                } else {
                    Ty::Int
                };
                LBool::Cmp(
                    *op,
                    ty,
                    self.lower_expr(lhs, ty)?,
                    self.lower_expr(rhs, ty)?,
                )
            }
            BoolExpr::And(a, b) => {
                LBool::And(Box::new(self.lower_bool(a)?), Box::new(self.lower_bool(b)?))
            }
            BoolExpr::Or(a, b) => {
                LBool::Or(Box::new(self.lower_bool(a)?), Box::new(self.lower_bool(b)?))
            }
            BoolExpr::Not(a) => LBool::Not(Box::new(self.lower_bool(a)?)),
        })
    }

    fn lower_body(&mut self, body: &[Stmt]) -> Result<Vec<LStmt>, ExecError> {
        body.iter().map(|s| self.lower_stmt(s)).collect()
    }

    fn lower_stmt(&mut self, s: &Stmt) -> Result<LStmt, ExecError> {
        Ok(match s {
            Stmt::Assign { lhs, rhs } => match lhs {
                LValue::Var(n) => {
                    let (slot, ty) = *self
                        .scalar_slots
                        .get(n.as_str())
                        .ok_or_else(|| ExecError::new(format!("unbound scalar `{n}`")))?;
                    let r = self.lower_expr(rhs, ty)?;
                    match ty {
                        Ty::Real => LStmt::AssignR(slot, r),
                        Ty::Int => LStmt::AssignI(slot, r),
                    }
                }
                LValue::Index { array, indices } => {
                    let id = *self
                        .array_ids
                        .get(array.as_str())
                        .ok_or_else(|| ExecError::new(format!("unbound array `{array}`")))?;
                    let ty = self.arrays[id as usize].ty;
                    let indirect = self.is_indirect(indices);
                    let idx: Result<Vec<LExpr>, _> = indices
                        .iter()
                        .map(|ix| self.lower_expr(ix, Ty::Int))
                        .collect();
                    LStmt::AssignElem(id, idx?, self.lower_expr(rhs, ty)?, indirect)
                }
            },
            Stmt::AtomicAdd { lhs, rhs } => match lhs {
                LValue::Index { array, indices } => {
                    let id = *self
                        .array_ids
                        .get(array.as_str())
                        .ok_or_else(|| ExecError::new(format!("unbound array `{array}`")))?;
                    let idx: Result<Vec<LExpr>, _> = indices
                        .iter()
                        .map(|ix| self.lower_expr(ix, Ty::Int))
                        .collect();
                    LStmt::AtomicAddElem(id, idx?, self.lower_expr(rhs, Ty::Real)?)
                }
                LValue::Var(_) => {
                    return Err(ExecError::new("atomic update of a scalar is not supported"))
                }
            },
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => LStmt::If(
                self.lower_bool(cond)?,
                self.lower_body(then_body)?,
                self.lower_body(else_body)?,
            ),
            Stmt::For(l) => {
                let (var, vty) = *self
                    .scalar_slots
                    .get(l.var.as_str())
                    .ok_or_else(|| ExecError::new(format!("unbound loop counter `{}`", l.var)))?;
                if vty != Ty::Int {
                    return Err(ExecError::new("loop counter must be integer"));
                }
                let parallel = match &l.parallel {
                    None => None,
                    Some(info) => {
                        let mut lp = LParallel::default();
                        for p in &info.private {
                            let (slot, ty) = *self
                                .scalar_slots
                                .get(p.as_str())
                                .ok_or_else(|| ExecError::new(format!("unbound private `{p}`")))?;
                            match ty {
                                Ty::Real => lp.private_r.push(slot),
                                Ty::Int => lp.private_i.push(slot),
                            }
                        }
                        for (op, v) in &info.reductions {
                            if let Some((slot, ty)) = self.scalar_slots.get(v.as_str()) {
                                lp.red_scalars.push((*op, *slot, *ty == Ty::Real));
                            } else if let Some(id) = self.array_ids.get(v.as_str()) {
                                if self.arrays[*id as usize].ty != Ty::Real {
                                    return Err(ExecError::new(
                                        "array reductions only supported on real arrays",
                                    ));
                                }
                                lp.red_arrays.push((*op, *id));
                            } else {
                                return Err(ExecError::new(format!(
                                    "unbound reduction variable `{v}`"
                                )));
                            }
                        }
                        Some(lp)
                    }
                };
                let lo = self.lower_expr(&l.lo, Ty::Int)?;
                let hi = self.lower_expr(&l.hi, Ty::Int)?;
                let step = self.lower_expr(&l.step, Ty::Int)?;
                // Entering a loop: its body is the new innermost level, so
                // only scalars gathered *in this body* make accesses
                // per-iteration-random.
                let saved = std::mem::take(&mut self.gather_ctx);
                Self::gather_scalars(&l.body, &mut self.gather_ctx);
                let body = self.lower_body(&l.body)?;
                self.gather_ctx = saved;
                LStmt::For(Box::new(LFor {
                    var,
                    lo,
                    hi,
                    step,
                    body,
                    parallel,
                }))
            }
            Stmt::Push(e) => {
                let ty = self.ty_of_expr(e);
                LStmt::Push(self.lower_expr(e, ty)?, ty)
            }
            Stmt::Pop(lv) => match lv {
                LValue::Var(n) => {
                    let (slot, ty) = *self
                        .scalar_slots
                        .get(n.as_str())
                        .ok_or_else(|| ExecError::new(format!("unbound scalar `{n}`")))?;
                    match ty {
                        Ty::Real => LStmt::PopR(slot),
                        Ty::Int => LStmt::PopI(slot),
                    }
                }
                LValue::Index { array, indices } => {
                    let id = *self
                        .array_ids
                        .get(array.as_str())
                        .ok_or_else(|| ExecError::new(format!("unbound array `{array}`")))?;
                    let indirect = self.is_indirect(indices);
                    let idx: Result<Vec<LExpr>, _> = indices
                        .iter()
                        .map(|ix| self.lower_expr(ix, Ty::Int))
                        .collect();
                    LStmt::PopElem(id, idx?, indirect)
                }
            },
        })
    }
}

/// Evaluate a constant-foldable integer expression against scalar bindings
/// (used for array extents).
fn eval_const_int(e: &Expr, bind: &Bindings) -> Option<i64> {
    match e {
        Expr::IntLit(v) => Some(*v),
        Expr::Var(n) => bind.int_scalars.get(n.as_str()).copied(),
        Expr::Unary { op: UnOp::Neg, arg } => Some(-eval_const_int(arg, bind)?),
        Expr::Binary { op, lhs, rhs } => {
            let a = eval_const_int(lhs, bind)?;
            let b = eval_const_int(rhs, bind)?;
            Some(match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                // `None` on a zero divisor and on `i64::MIN / -1`.
                BinOp::Div => a.checked_div(b)?,
                BinOp::Mod => a.checked_rem(b)?,
                BinOp::Pow => {
                    if b < 0 {
                        return None;
                    }
                    a.checked_pow(b as u32)?
                }
            })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use formad_ir::parse_program;

    #[test]
    fn lowers_saxpy() {
        let p = parse_program(
            r#"
subroutine saxpy(n, a, x, y)
  integer, intent(in) :: n
  real, intent(in) :: a
  real, intent(in) :: x(n)
  real, intent(inout) :: y(n)
  integer :: i
  !$omp parallel do shared(x, y)
  do i = 1, n
    y(i) = y(i) + a * x(i)
  end do
end subroutine
"#,
        )
        .unwrap();
        let b = Bindings::new().int("n", 8);
        let lp = lower(&p, &b).unwrap();
        assert_eq!(lp.arrays.len(), 2);
        assert_eq!(lp.arrays[0].len, 8);
        assert_eq!(lp.n_int_scalars, 2); // n, i
        assert_eq!(lp.n_real_scalars, 1); // a
        assert!(matches!(lp.body[0], LStmt::For(_)));
    }

    #[test]
    fn extent_expressions_evaluated() {
        let p = parse_program(
            r#"
subroutine t(n, u)
  integer, intent(in) :: n
  real, intent(inout) :: u(2 * n + 1)
end subroutine
"#,
        )
        .unwrap();
        let lp = lower(&p, &Bindings::new().int("n", 5)).unwrap();
        assert_eq!(lp.arrays[0].len, 11);
    }

    #[test]
    fn missing_extent_binding_is_error() {
        let p = parse_program(
            r#"
subroutine t(n, u)
  integer, intent(in) :: n
  real, intent(inout) :: u(n)
end subroutine
"#,
        )
        .unwrap();
        assert!(lower(&p, &Bindings::new()).is_err());
    }

    #[test]
    fn int_real_coercion_inserted() {
        let p = parse_program(
            r#"
subroutine t(n, y)
  integer, intent(in) :: n
  real, intent(inout) :: y(n)
  integer :: i
  do i = 1, n
    y(i) = i * 2.0
  end do
end subroutine
"#,
        )
        .unwrap();
        let lp = lower(&p, &Bindings::new().int("n", 3)).unwrap();
        // The rhs multiplies coerced i by 2.0: find a Coerce somewhere.
        fn has_coerce(s: &LStmt) -> bool {
            fn in_expr(e: &LExpr) -> bool {
                match e {
                    LExpr::Coerce(_) => true,
                    LExpr::Bin(_, a, b) => in_expr(a) || in_expr(b),
                    LExpr::Neg(a) => in_expr(a),
                    LExpr::Call(_, args) => args.iter().any(in_expr),
                    LExpr::Elem(_, idx, _) => idx.iter().any(in_expr),
                    _ => false,
                }
            }
            match s {
                LStmt::AssignElem(_, _, r, _) => in_expr(r),
                LStmt::For(f) => f.body.iter().any(has_coerce),
                _ => false,
            }
        }
        assert!(lp.body.iter().any(has_coerce));
    }

    #[test]
    fn multidim_extents() {
        let p = parse_program(
            r#"
subroutine t(n, m, u)
  integer, intent(in) :: n, m
  real, intent(inout) :: u(n, m)
end subroutine
"#,
        )
        .unwrap();
        let lp = lower(&p, &Bindings::new().int("n", 3).int("m", 4)).unwrap();
        assert_eq!(lp.arrays[0].dims, vec![3, 4]);
        assert_eq!(lp.arrays[0].len, 12);
    }
}
