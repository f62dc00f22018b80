//! Lowering: resolve names to dense slots and array extents to strides so
//! the interpreter runs without any hashing in the hot path — and decide,
//! once for every backend, what a parallel region is.
//!
//! The simulator, the bytecode engine, AOT codegen and the determinism
//! classifier all read these decisions instead of deriving them:
//!
//! - **region numbering**: each `!$omp parallel do` becomes an entry of
//!   [`LProgram::regions`], numbered in the order the bytecode enters
//!   them (pre-order through `if` branches and sequential loop bodies),
//!   which is also the AOT kernel's `formad_region_<k>` order;
//! - **the schedule**: trip count, the zero-step error, `div_ceil` chunks
//!   of value-ascending ranks per logical thread and rank → loop value
//!   (`Schedule`);
//! - **reduction redirects**: which private buffer an access of a
//!   `reduction` array names (`LRegion::red_slot`);
//! - **the access fact** of each array in each region, plain or cell
//!   (`LRegion::access`);
//! - **the fused increment** `a(i…) = a(i…) + e` (`fused_increment`);
//! - **the array descriptor** with its column-major strides ([`ArrMeta`]);
//! - **leaf semantics**: reduction identities and combination,
//!   comparisons, real `min` / `max` with their `±0` and NaN rule, and
//!   the integer operations with their error messages.
//!   The arithmetic ([`int_bin`], [`real_bin`], [`int_call`],
//!   [`real_call`], [`compare`]) is public, so an oracle that replays a
//!   program outside the machine computes what the backends compute.

use std::collections::HashMap;
use std::ops::Range;

use formad_ir::{
    BinOp, BoolExpr, CmpOp, Decl, Expr, Intrinsic, LValue, ParallelInfo, Program, RedOp, Stmt, Ty,
    UnOp,
};

use crate::bindings::{Bindings, ExecError};

/// Slot of a scalar variable (index into the real or int scalar file).
pub type Slot = u32;
/// Index of an array in the array file.
pub type ArrId = u32;
/// Index of a parallel region in [`LProgram::regions`].
pub type RegionId = u32;

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
    /// A sequential loop.
    For(Box<LFor>),
    /// A `!$omp parallel do` loop: region `k` of [`LProgram::regions`].
    Parallel(RegionId),
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
}

/// A parallel region: the loop and its data-sharing clauses.
#[derive(Debug, Clone)]
pub struct LRegion {
    pub for_loop: LFor,
    /// Private real scalar slots.
    pub private_r: Vec<Slot>,
    /// Private integer scalar slots.
    pub private_i: Vec<Slot>,
    /// Scalar reductions `(op, slot, is_real)`.
    pub red_scalars: Vec<(RedOp, Slot, bool)>,
    /// Array reductions (real arrays only). Logical thread `t` works on
    /// a private copy of each, identity-initialized, merged after the
    /// region in ascending thread order.
    pub red_arrays: Vec<(RedOp, ArrId)>,
    /// How the body may access each array of the program, by [`ArrId`]
    /// ([`LRegion::access`]).
    pub(crate) access: Vec<Access>,
}

/// How a region's body may access an array's shared storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Access {
    /// Plain loads and stores: no other iteration of the region writes
    /// an element this one touches. The array is not written in the
    /// region, or the loop's proof set (`ParallelInfo::proved`) covers
    /// every write and none is an atomic update.
    Plain,
    /// Relaxed atomic loads and stores, the cell every access may race
    /// on.
    Cell,
}

impl LRegion {
    /// The redirect of an access to array `id` inside this region: the
    /// ordinal of the private copy it reads and writes when the region
    /// reduces `id` (the bytecode's view `n_arrays + j`, the kernel's
    /// `rb{j}`), `None` when it goes to shared memory.
    pub(crate) fn red_slot(&self, id: ArrId) -> Option<usize> {
        self.red_arrays.iter().position(|&(_, a)| a == id)
    }

    /// The access fact of array `id` in this region.
    pub(crate) fn access(&self, id: ArrId) -> Access {
        self.access[id as usize]
    }

    /// May the body write scalar `slot` (of the real file when
    /// `is_real`)? Only privates, reductions and the loop counter: a
    /// shared scalar written by every thread is a data race.
    pub(crate) fn may_write(&self, slot: Slot, is_real: bool) -> bool {
        let private = if is_real {
            &self.private_r
        } else {
            &self.private_i
        };
        private.contains(&slot)
            || (!is_real && slot == self.for_loop.var)
            || self
                .red_scalars
                .iter()
                .any(|&(_, s, r)| s == slot && r == is_real)
    }
}

/// The static schedule of one execution of a parallel region, the one
/// every backend runs: iteration ranks `0..count` are numbered by
/// ascending loop *value* whatever the loop's direction, and logical
/// thread `t` owns the `t`-th `div_ceil(count, threads)`-sized block.
/// A reversed adjoint loop therefore gives every iteration to the thread
/// that ran it forward, and each thread pops its tape in exactly the
/// reverse of its push order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Schedule {
    pub(crate) lo: i64,
    pub(crate) step: i64,
    /// Number of iterations.
    pub(crate) count: i64,
    threads: usize,
}

impl Schedule {
    /// The schedule of `do v = lo, hi, step` over `threads` logical
    /// threads; a zero step, or a trip count that does not fit an `i64`,
    /// is an error.
    pub(crate) fn new(lo: i64, hi: i64, step: i64, threads: usize) -> Result<Schedule, ExecError> {
        Ok(Schedule {
            lo,
            step,
            count: trip_count(lo, hi, step)?,
            threads,
        })
    }

    /// The ranks logical thread `t` owns (empty for a thread past the
    /// end of the iteration space).
    pub(crate) fn ranks(&self, t: usize) -> Range<i64> {
        let chunk = (self.count as usize).div_ceil(self.threads);
        let end = ((t + 1) * chunk).min(self.count as usize);
        (t * chunk) as i64..end as i64
    }

    /// The loop values of `ranks`, in loop order: ranks ascend for a
    /// positive step and descend for a negative one, so the value
    /// advances by `step` per iteration either way. Ascending rank `a`
    /// has value `lo + a·step`, or `lo + (count − 1 − a)·step` for a
    /// negative step, whose smallest iterate may lie strictly above `hi`.
    pub(crate) fn values(&self, ranks: Range<i64>) -> impl Iterator<Item = i64> {
        let first = if self.step > 0 {
            ranks.start
        } else {
            self.count - ranks.end
        };
        // The value lies between `lo` and `hi`, so it fits an `i64`;
        // `rank · step` alone may not when `|hi − lo|` exceeds `i64::MAX`.
        let (lo, step) = (self.lo, self.step);
        (0..ranks.end - ranks.start).map(move |k| lo.wrapping_add((first + k).wrapping_mul(step)))
    }
}

/// The number of iterations of `do v = lo, hi, step`, sequential or
/// parallel; a zero step, or a count that does not fit an `i64`, is an
/// error. A loop runs exactly this many iterations: the count ends it, not
/// the counter, which may wrap once the last iteration is done.
pub(crate) fn trip_count(lo: i64, hi: i64, step: i64) -> Result<i64, ExecError> {
    if step == 0 {
        return Err(ExecError::new("zero loop step"));
    }
    if (step > 0 && hi < lo) || (step < 0 && hi > lo) {
        return Ok(0);
    }
    // |hi − lo| and |step| always fit a `u64`; only the count may not.
    (hi.abs_diff(lo) / step.unsigned_abs())
        .checked_add(1)
        .and_then(|c| i64::try_from(c).ok())
        .ok_or_else(|| ExecError::new("integer overflow in loop trip count"))
}

/// A scalar's register slot, and whether it is a parameter.
#[derive(Debug, Clone)]
pub struct ScalarMeta {
    pub name: String,
    pub slot: Slot,
    pub ty: Ty,
    /// Declared a parameter (read from the bindings, written back).
    pub param: bool,
}

/// An array's runtime storage descriptor.
#[derive(Debug, Clone)]
pub struct ArrMeta {
    pub name: String,
    pub ty: Ty,
    /// Declared a parameter (run in its bound vector, left there).
    pub param: bool,
    /// Extent of each dimension.
    pub dims: Vec<i64>,
    /// Column-major (Fortran) stride of each dimension.
    pub strides: Vec<i64>,
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
    /// The parallel regions, by [`RegionId`].
    pub regions: Vec<LRegion>,
    /// Every scalar, in declaration order (parameters first).
    pub scalars: Vec<ScalarMeta>,
    /// Array name → id.
    pub array_ids: HashMap<String, ArrId>,
}

struct Lowerer<'a> {
    prog: &'a Program,
    scalar_slots: HashMap<String, (Slot, Ty)>,
    array_ids: HashMap<String, ArrId>,
    arrays: Vec<ArrMeta>,
    regions: Vec<LRegion>,
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
        regions: Vec::new(),
        n_real: 0,
        n_int: 0,
        gather_ctx: std::collections::HashSet::new(),
    };
    // Two passes: scalars first so extents (which reference scalar
    // parameters like `n`) can be evaluated, then arrays. `decls` lists
    // the parameters first.
    let mut scalars = Vec::new();
    for (k, d) in prog.decls().enumerate() {
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
            scalars.push(ScalarMeta {
                name: d.name.to_string(),
                slot,
                ty: d.ty,
                param: k < prog.params.len(),
            });
        }
    }
    for (k, d) in prog.decls().enumerate() {
        if d.is_array() {
            lw.lower_array_decl(d, k < prog.params.len(), bind)?;
        }
    }
    let body = lw.lower_body(&prog.body)?;
    Ok(LProgram {
        name: prog.name.clone(),
        body,
        n_real_scalars: lw.n_real,
        n_int_scalars: lw.n_int,
        arrays: lw.arrays,
        regions: lw.regions,
        scalars,
        array_ids: lw.array_ids,
    })
}

/// The entry half of the binding protocol every backend follows, so
/// each reports the same error for the same bindings: every scalar slot
/// takes its bound value (a local may be bound too; an unbound local
/// stays zero), and an unbound scalar parameter is an error; then, array
/// by array, a bound vector of the wrong length is an error, and so is
/// an unbound parameter array. A bound local array is not checked
/// further: it is the local's initial value. Nothing in `bind` changes.
pub(crate) fn bind_entry(
    scalars: &[ScalarMeta],
    arrays: &[ArrMeta],
    bind: &Bindings,
    reals: &mut [f64],
    ints: &mut [i64],
) -> Result<(), ExecError> {
    for s in scalars {
        let slot = s.slot as usize;
        match s.ty {
            Ty::Real => match bind.real_scalars.get(&s.name) {
                Some(v) => reals[slot] = *v,
                None if s.param => return Err(unbound_param(s)),
                None => {}
            },
            Ty::Int => match bind.int_scalars.get(&s.name) {
                Some(v) => ints[slot] = *v,
                None if s.param => return Err(unbound_param(s)),
                None => {}
            },
        }
    }
    for meta in arrays {
        let len = match meta.ty {
            Ty::Real => bind.real_arrays.get(&meta.name).map(Vec::len),
            Ty::Int => bind.int_arrays.get(&meta.name).map(Vec::len),
        };
        match len {
            Some(n) if n != meta.len => {
                return Err(ExecError::new(format!(
                    "array `{}` bound with {n} elements, declared {}",
                    meta.name, meta.len
                )))
            }
            None if meta.param => {
                return Err(ExecError::new(format!(
                    "parameter array `{}` is unbound",
                    meta.name
                )))
            }
            _ => {}
        }
    }
    Ok(())
}

/// The exit half: write every scalar parameter back into `bind`.
/// Arrays are the backends' own business.
pub(crate) fn write_back_scalars(
    scalars: &[ScalarMeta],
    bind: &mut Bindings,
    reals: &[f64],
    ints: &[i64],
) {
    const BOUND: &str = "scalar parameters were found bound at entry";
    for s in scalars.iter().filter(|s| s.param) {
        let slot = s.slot as usize;
        match s.ty {
            Ty::Real => *bind.real_scalars.get_mut(&s.name).expect(BOUND) = reals[slot],
            Ty::Int => *bind.int_scalars.get_mut(&s.name).expect(BOUND) = ints[slot],
        }
    }
}

fn unbound_param(s: &ScalarMeta) -> ExecError {
    ExecError::new(format!("parameter `{}` is unbound", s.name))
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

    /// The access fact of every array in the region of `info` whose
    /// lowered body is `body`: `Plain` when the body does not write the
    /// array (no store, fused increment, atomic update or tape pop), or
    /// when `info` proves it and no write is an atomic update — a CAS
    /// target stays a cell whatever the proof says.
    fn access(&self, info: &ParallelInfo, body: &[LStmt]) -> Vec<Access> {
        #[derive(Clone, Copy, PartialEq)]
        enum Writes {
            None,
            Plain,
            Atomic,
        }
        fn scan(body: &[LStmt], w: &mut [Writes]) {
            for s in body {
                match s {
                    LStmt::AssignElem(id, ..) | LStmt::PopElem(id, ..) => {
                        let w = &mut w[*id as usize];
                        if *w == Writes::None {
                            *w = Writes::Plain;
                        }
                    }
                    LStmt::AtomicAddElem(id, ..) => w[*id as usize] = Writes::Atomic,
                    LStmt::If(_, a, b) => {
                        scan(a, w);
                        scan(b, w);
                    }
                    LStmt::For(f) => scan(&f.body, w),
                    LStmt::AssignR(..)
                    | LStmt::AssignI(..)
                    | LStmt::Parallel(_)
                    | LStmt::Push(..)
                    | LStmt::PopR(_)
                    | LStmt::PopI(_) => {}
                }
            }
        }
        let mut writes = vec![Writes::None; self.arrays.len()];
        scan(body, &mut writes);
        let proved = |meta: &ArrMeta| info.proved.contains(meta.name.as_str());
        (writes.iter().zip(&self.arrays))
            .map(|(w, meta)| match w {
                Writes::None => Access::Plain,
                Writes::Plain if proved(meta) => Access::Plain,
                Writes::Plain | Writes::Atomic => Access::Cell,
            })
            .collect()
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

    fn lower_array_decl(
        &mut self,
        d: &Decl,
        param: bool,
        bind: &Bindings,
    ) -> Result<(), ExecError> {
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
        let mut strides = Vec::with_capacity(dims.len());
        let mut stride = 1i64;
        for d in &dims {
            strides.push(stride);
            stride *= d;
        }
        let id = self.arrays.len() as ArrId;
        self.arrays.push(ArrMeta {
            name: d.name.to_string(),
            ty: d.ty,
            param,
            dims,
            strides,
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
                let mut private_r = Vec::new();
                let mut private_i = Vec::new();
                let mut red_scalars = Vec::new();
                let mut red_arrays = Vec::new();
                if let Some(info) = &l.parallel {
                    if let Some(m) = info.duplicate_reduction() {
                        return Err(ExecError::new(m));
                    }
                    for p in &info.private {
                        let (slot, ty) = *self
                            .scalar_slots
                            .get(p.as_str())
                            .ok_or_else(|| ExecError::new(format!("unbound private `{p}`")))?;
                        match ty {
                            Ty::Real => private_r.push(slot),
                            Ty::Int => private_i.push(slot),
                        }
                    }
                    for (op, v) in &info.reductions {
                        if let Some((slot, ty)) = self.scalar_slots.get(v.as_str()) {
                            red_scalars.push((*op, *slot, *ty == Ty::Real));
                        } else if let Some(id) = self.array_ids.get(v.as_str()) {
                            if self.arrays[*id as usize].ty != Ty::Real {
                                return Err(ExecError::new(
                                    "array reductions only supported on real arrays",
                                ));
                            }
                            red_arrays.push((*op, *id));
                        } else {
                            return Err(ExecError::new(format!(
                                "unbound reduction variable `{v}`"
                            )));
                        }
                    }
                }
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
                let for_loop = LFor {
                    var,
                    lo,
                    hi,
                    step,
                    body,
                };
                let Some(info) = &l.parallel else {
                    return Ok(LStmt::For(Box::new(for_loop)));
                };
                let access = self.access(info, &for_loop.body);
                // Numbered after its body: regions the bytecode accepts do
                // not nest, so this is the order it enters them in.
                self.regions.push(LRegion {
                    for_loop,
                    private_r,
                    private_i,
                    red_scalars,
                    red_arrays,
                    access,
                });
                LStmt::Parallel((self.regions.len() - 1) as RegionId)
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
                    int_pow(a, b)?
                }
            })
        }
        _ => None,
    }
}

/// Structural equality of pure lowered expressions. Constants compare by
/// bits, so a match implies identical evaluation.
pub(crate) fn lexpr_eq(a: &LExpr, b: &LExpr) -> bool {
    match (a, b) {
        (LExpr::ConstR(x), LExpr::ConstR(y)) => x.to_bits() == y.to_bits(),
        (LExpr::ConstI(x), LExpr::ConstI(y)) => x == y,
        (LExpr::ScalarR(x), LExpr::ScalarR(y)) | (LExpr::ScalarI(x), LExpr::ScalarI(y)) => x == y,
        (LExpr::Elem(i1, x1, _), LExpr::Elem(i2, x2, _)) => {
            i1 == i2 && x1.len() == x2.len() && x1.iter().zip(x2).all(|(p, q)| lexpr_eq(p, q))
        }
        (LExpr::Bin(o1, l1, r1), LExpr::Bin(o2, l2, r2)) => {
            o1 == o2 && lexpr_eq(l1, l2) && lexpr_eq(r1, r2)
        }
        (LExpr::Neg(x), LExpr::Neg(y)) | (LExpr::Coerce(x), LExpr::Coerce(y)) => lexpr_eq(x, y),
        (LExpr::Call(f1, a1), LExpr::Call(f2, a2)) => {
            f1 == f2 && a1.len() == a2.len() && a1.iter().zip(a2).all(|(p, q)| lexpr_eq(p, q))
        }
        _ => false,
    }
}

/// The increment `e` when `a(idx) = rhs` is `a(idx) = a(idx) + e` on a
/// real array `id`: the read-modify-write the native backends fuse into
/// one address computation, a load, `+ e` and a store. The inner load's
/// index expressions are pure and equal to `idx`, so reusing the store's
/// offset gives the same offset, the same bounds outcome and the same
/// `cur + e` association as evaluating the statement unfused, which is
/// what the simulator does (and charges).
pub(crate) fn fused_increment<'a>(id: ArrId, idx: &[LExpr], rhs: &'a LExpr) -> Option<&'a LExpr> {
    match rhs {
        LExpr::Bin(BinOp::Add, l, e) => match &**l {
            LExpr::Elem(id2, idx2, _)
                if *id2 == id
                    && idx2.len() == idx.len()
                    && idx2.iter().zip(idx).all(|(a, b)| lexpr_eq(a, b)) =>
            {
                Some(e)
            }
            _ => None,
        },
        _ => None,
    }
}

// ---- leaf semantics, one definition for every backend ----

/// Identity element of a reduction operator.
pub(crate) fn identity(op: RedOp) -> f64 {
    match op {
        RedOp::Add => 0.0,
        RedOp::Mul => 1.0,
        RedOp::Min => f64::INFINITY,
        RedOp::Max => f64::NEG_INFINITY,
    }
}

/// Combine two partial results of a reduction.
pub(crate) fn combine(op: RedOp, a: f64, b: f64) -> f64 {
    match op {
        RedOp::Add => a + b,
        RedOp::Mul => a * b,
        RedOp::Min => real_min(a, b),
        RedOp::Max => real_max(a, b),
    }
}

/// Define each item and keep its source text in the const named before
/// it, so a generated kernel can carry the very function the host runs.
macro_rules! with_source {
    ($($src:ident = $item:item)*) => {
        $(
            $item
            pub(crate) const $src: &str = stringify!($item);
        )*
    };
}

// `min` / `max` on reals, one rule for every backend: `-0.0` orders below
// `+0.0`, and a NaN operand yields the other operand (the first when both
// are NaN). `f64::min` / `max` leave the `±0` tie to the compiler, which
// may decide it differently at each call site. An AOT kernel that calls
// `min` or `max` carries the function's text (`REAL_MIN_SRC`, ...).
with_source! {
    REAL_MIN_SRC = #[inline]
    pub(crate) fn real_min(a: f64, b: f64) -> f64 {
        if a < b || (a == b && a.is_sign_negative()) || b.is_nan() { a } else { b }
    }
    REAL_MAX_SRC = #[inline]
    pub(crate) fn real_max(a: f64, b: f64) -> f64 {
        if a > b || (a == b && a.is_sign_positive()) || b.is_nan() { a } else { b }
    }
}

/// Index `v` of dimension `dim` (1-based) of array `name`, outside
/// `1..=d`.
pub(crate) fn oob(v: i64, d: i64, dim: usize, name: &str) -> ExecError {
    ExecError::new(format!(
        "index {v} out of bounds 1..={d} in dimension {dim} of `{name}`"
    ))
}

/// A comparison, on reals or (exactly) on integers.
pub fn compare<T: PartialOrd>(op: CmpOp, a: T, b: T) -> bool {
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    }
}

/// A real binary operation.
#[inline]
pub fn real_bin(op: BinOp, x: f64, y: f64) -> Result<f64, ExecError> {
    Ok(match op {
        BinOp::Add => x + y,
        BinOp::Sub => x - y,
        BinOp::Mul => x * y,
        BinOp::Div => x / y,
        BinOp::Pow => x.powf(y),
        BinOp::Mod => return Err(ExecError::new("mod in real context")),
    })
}

/// A real intrinsic; `y` is `min`'s and `max`'s second argument.
#[inline]
pub fn real_call(f: Intrinsic, x: f64, y: f64) -> f64 {
    match f {
        Intrinsic::Sin => x.sin(),
        Intrinsic::Cos => x.cos(),
        Intrinsic::Exp => x.exp(),
        Intrinsic::Log => x.ln(),
        Intrinsic::Sqrt => x.sqrt(),
        Intrinsic::Tanh => x.tanh(),
        Intrinsic::Abs => x.abs(),
        Intrinsic::Min => real_min(x, y),
        Intrinsic::Max => real_max(x, y),
    }
}

/// An integer intrinsic (`abs` wraps); `y` as for [`real_call`].
#[inline]
pub fn int_call(f: Intrinsic, x: i64, y: i64) -> Result<i64, ExecError> {
    Ok(match f {
        Intrinsic::Abs => x.wrapping_abs(),
        Intrinsic::Min => x.min(y),
        Intrinsic::Max => x.max(y),
        other => {
            return Err(ExecError::new(format!(
                "intrinsic {} in integer context",
                other.name()
            )))
        }
    })
}

/// An integer binary operation: `+ - *` wrap in every build profile (as
/// generated kernels do); `/`, `mod` and `**` are checked.
#[inline]
pub fn int_bin(op: BinOp, x: i64, y: i64) -> Result<i64, ExecError> {
    Ok(match op {
        BinOp::Add => x.wrapping_add(y),
        BinOp::Sub => x.wrapping_sub(y),
        BinOp::Mul => x.wrapping_mul(y),
        BinOp::Div => {
            if y == 0 {
                return Err(ExecError::new("integer division by zero"));
            }
            x.checked_div(y)
                .ok_or_else(|| ExecError::new("integer overflow in /"))?
        }
        BinOp::Mod => {
            if y == 0 {
                return Err(ExecError::new("mod by zero"));
            }
            x.checked_rem(y)
                .ok_or_else(|| ExecError::new("integer overflow in mod"))?
        }
        BinOp::Pow => {
            if y < 0 {
                return Err(ExecError::new("negative integer exponent"));
            }
            int_pow(x, y).ok_or_else(|| ExecError::new("integer overflow in **"))?
        }
    })
}

/// `x ** y` for `y ≥ 0`, `None` on overflow. An exponent of 2³² or more
/// is not truncated: only bases 0, 1 and −1 have a result then.
fn int_pow(x: i64, y: i64) -> Option<i64> {
    match u32::try_from(y) {
        Ok(e) => x.checked_pow(e),
        Err(_) => match x {
            0 | 1 => Some(x),
            -1 => Some(1 - 2 * (y & 1)),
            _ => None,
        },
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
        assert!(matches!(lp.body[0], LStmt::Parallel(0)));
        assert_eq!(lp.regions.len(), 1);
    }

    /// Regions are numbered in the order the bytecode enters them: a
    /// pre-order walk through `if` branches and sequential loop bodies.
    #[test]
    fn regions_numbered_in_entry_order() {
        let p = parse_program(
            r#"
subroutine t(n, c, y)
  integer, intent(in) :: n, c
  real, intent(inout) :: y(n)
  integer :: i, j
  if (c .gt. 0) then
    !$omp parallel do shared(y)
    do i = 1, n
      y(i) = 1.0
    end do
  else
    !$omp parallel do shared(y)
    do i = 1, n
      y(i) = 2.0
    end do
  end if
  do j = 1, 3
    !$omp parallel do shared(y)
    do i = 1, n
      y(i) = 3.0
    end do
  end do
  !$omp parallel do shared(y)
  do i = n, 1, -1
    y(i) = 4.0
  end do
end subroutine
"#,
        )
        .unwrap();
        let lp = lower(&p, &Bindings::new().int("n", 4)).unwrap();
        // The value each region stores, in region order.
        let stored: Vec<f64> = lp
            .regions
            .iter()
            .map(|r| match &r.for_loop.body[..] {
                [LStmt::AssignElem(_, _, LExpr::ConstR(v), _)] => *v,
                other => panic!("unexpected body {other:?}"),
            })
            .collect();
        assert_eq!(stored, [1.0, 2.0, 3.0, 4.0]);
        match &lp.body[..] {
            [LStmt::If(_, then_b, else_b), LStmt::For(seq), LStmt::Parallel(3)] => {
                assert!(matches!(then_b[..], [LStmt::Parallel(0)]));
                assert!(matches!(else_b[..], [LStmt::Parallel(1)]));
                assert!(matches!(seq.body[..], [LStmt::Parallel(2)]));
            }
            other => panic!("unexpected body {other:?}"),
        }
    }

    /// Ranks ascend by loop value in both directions, blocks are
    /// `div_ceil`-sized, and each thread's values advance by `step`.
    #[test]
    fn schedule_blocks_and_values() {
        let up = Schedule::new(1, 10, 3, 3).unwrap(); // 1 4 7 10
        assert_eq!(up.count, 4);
        let blocks: Vec<Vec<i64>> = (0..3).map(|t| up.values(up.ranks(t)).collect()).collect();
        assert_eq!(blocks, [vec![1, 4], vec![7, 10], vec![]]);
        // The reversed loop gives each thread the values it ran forward.
        let down = Schedule::new(10, 1, -3, 3).unwrap(); // 10 7 4 1
        let blocks: Vec<Vec<i64>> = (0..3)
            .map(|t| down.values(down.ranks(t)).collect())
            .collect();
        assert_eq!(blocks, [vec![4, 1], vec![10, 7], vec![]]);
        // The smallest iterate of a descending loop may lie above `hi`.
        let odd = Schedule::new(10, 2, -3, 1).unwrap(); // 10 7 4
        assert_eq!(odd.values(odd.ranks(0)).collect::<Vec<_>>(), [10, 7, 4]);
        assert_eq!(Schedule::new(1, 0, 1, 2).unwrap().count, 0);
        let err = Schedule::new(1, 5, 0, 2).unwrap_err();
        assert_eq!(err.message, "zero loop step");
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
