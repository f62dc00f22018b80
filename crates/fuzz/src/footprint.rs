//! Concrete brute-force race oracle for region verdicts.
//!
//! The SMT layer *proves* (or fails to prove) that the adjoint of a
//! parallel region is race-free under plain increments. This module
//! checks the cheap direction of that claim concretely: replay every
//! iteration of every parallel region under the actual driver bindings,
//! collect the **adjoint footprint** each iteration would touch, and
//! verify that a `Shared` verdict really has no cross-iteration
//! conflict. (The converse — `Guarded` despite no concrete conflict —
//! is *not* flagged: incompleteness is allowed, and a conflict can be
//! data-dependent.)
//!
//! Adjoint footprint of a primal statement (paper §5):
//!
//! - exact increment `y(w) = y(w) + e` → **read** of `ȳ(w)` only
//!   (§5.4: increments commute, the adjoint seeds from `ȳ(w)` without
//!   modifying it);
//! - plain write `y(w) = e` → **write** of `ȳ(w)` (it is read and then
//!   zeroed);
//! - every read `x(r)` of a real array inside the assigned expression →
//!   **write** of `x̄(r)` (the adjoint scatters an increment into it).
//!
//! A conflict is a location written by one iteration and touched (read
//! or written) by a different one. Iterations are replayed in ascending
//! order with full state updates, so later regions see earlier regions'
//! results exactly as the executors do.

use std::collections::HashMap;

use formad::{Decision, FormadAnalysis};
use formad_ad::{plan_transpose, RegionWrites};
use formad_analysis::Activity;
use formad_ir::{expr_to_string, BinOp, BoolExpr, CmpOp, Expr, Intrinsic, Program, Stmt, Ty, UnOp};
use formad_machine::Bindings;

/// One adjoint access: array, element (1-based), and whether the
/// adjoint location is written (true) or only read (false).
type Access = (String, i64, bool);

#[derive(Debug, Clone, Copy, PartialEq)]
enum V {
    I(i64),
    R(f64),
}

impl V {
    fn as_i(self) -> Result<i64, String> {
        match self {
            V::I(v) => Ok(v),
            V::R(v) => Err(format!("expected integer, got real {v}")),
        }
    }

    fn as_r(self) -> f64 {
        match self {
            V::I(v) => v as f64,
            V::R(v) => v,
        }
    }
}

struct State {
    ints: HashMap<String, i64>,
    reals: HashMap<String, f64>,
    int_arrays: HashMap<String, Vec<i64>>,
    real_arrays: HashMap<String, Vec<f64>>,
}

impl State {
    fn from_bindings(prog: &Program, bind: &Bindings) -> State {
        let mut st = State {
            ints: bind.int_scalars.clone(),
            reals: bind.real_scalars.clone(),
            int_arrays: bind.int_arrays.clone(),
            real_arrays: bind.real_arrays.clone(),
        };
        // Locals are zero-initialized, like the interpreter.
        for d in &prog.locals {
            if d.dims.is_empty() {
                match d.ty {
                    Ty::Int => {
                        st.ints.entry(d.name.to_string()).or_insert(0);
                    }
                    Ty::Real => {
                        st.reals.entry(d.name.to_string()).or_insert(0.0);
                    }
                }
            }
        }
        st
    }

    fn is_real_array(&self, name: &str) -> bool {
        self.real_arrays.contains_key(name)
    }

    fn index(&self, array: &str, indices: &[Expr]) -> Result<i64, String> {
        if indices.len() != 1 {
            return Err(format!(
                "footprint oracle handles 1-D arrays only (`{array}`)"
            ));
        }
        self.eval(&indices[0])?.as_i()
    }

    fn eval(&self, e: &Expr) -> Result<V, String> {
        Ok(match e {
            Expr::IntLit(v) => V::I(*v),
            Expr::RealLit(v) => V::R(*v),
            Expr::Var(n) => {
                if let Some(v) = self.ints.get(n.as_str()) {
                    V::I(*v)
                } else if let Some(v) = self.reals.get(n.as_str()) {
                    V::R(*v)
                } else {
                    return Err(format!("unbound scalar `{n}`"));
                }
            }
            Expr::Index { array, indices } => {
                let k = self.index(array, indices)?;
                if let Some(arr) = self.int_arrays.get(array.as_str()) {
                    V::I(
                        *arr.get((k - 1) as usize)
                            .ok_or_else(|| format!("index {k} out of bounds for `{array}`"))?,
                    )
                } else if let Some(arr) = self.real_arrays.get(array.as_str()) {
                    V::R(
                        *arr.get((k - 1) as usize)
                            .ok_or_else(|| format!("index {k} out of bounds for `{array}`"))?,
                    )
                } else {
                    return Err(format!("unbound array `{array}`"));
                }
            }
            Expr::Unary { op, arg } => {
                let v = self.eval(arg)?;
                match (op, v) {
                    (UnOp::Neg, V::I(a)) => V::I(-a),
                    (UnOp::Neg, V::R(a)) => V::R(-a),
                }
            }
            Expr::Binary { op, lhs, rhs } => {
                let a = self.eval(lhs)?;
                let b = self.eval(rhs)?;
                if let (V::I(x), V::I(y)) = (a, b) {
                    match op {
                        BinOp::Add => V::I(x.wrapping_add(y)),
                        BinOp::Sub => V::I(x.wrapping_sub(y)),
                        BinOp::Mul => V::I(x.wrapping_mul(y)),
                        BinOp::Div => V::I(x.checked_div(y).ok_or("integer division by zero")?),
                        BinOp::Mod => V::I(x.checked_rem(y).ok_or("mod by zero")?),
                        BinOp::Pow => {
                            V::I(x.pow(u32::try_from(y).map_err(|_| "negative int power")?))
                        }
                    }
                } else {
                    let (x, y) = (a.as_r(), b.as_r());
                    match op {
                        BinOp::Add => V::R(x + y),
                        BinOp::Sub => V::R(x - y),
                        BinOp::Mul => V::R(x * y),
                        BinOp::Div => V::R(x / y),
                        BinOp::Mod => V::R(x % y),
                        BinOp::Pow => V::R(x.powf(y)),
                    }
                }
            }
            Expr::Call { func, args } => {
                let v: Vec<f64> = args
                    .iter()
                    .map(|a| self.eval(a).map(V::as_r))
                    .collect::<Result<_, _>>()?;
                let r = match func {
                    Intrinsic::Sin => v[0].sin(),
                    Intrinsic::Cos => v[0].cos(),
                    Intrinsic::Exp => v[0].exp(),
                    Intrinsic::Log => v[0].ln(),
                    Intrinsic::Sqrt => v[0].sqrt(),
                    Intrinsic::Abs => v[0].abs(),
                    Intrinsic::Tanh => v[0].tanh(),
                    Intrinsic::Min => v[0].min(v[1]),
                    Intrinsic::Max => v[0].max(v[1]),
                };
                V::R(r)
            }
        })
    }

    fn eval_bool(&self, b: &BoolExpr) -> Result<bool, String> {
        Ok(match b {
            BoolExpr::Cmp { op, lhs, rhs } => {
                let a = self.eval(lhs)?;
                let c = self.eval(rhs)?;
                let (x, y) = match (a, c) {
                    (V::I(x), V::I(y)) => (x as f64, y as f64),
                    _ => (a.as_r(), c.as_r()),
                };
                match op {
                    CmpOp::Eq => x == y,
                    CmpOp::Ne => x != y,
                    CmpOp::Lt => x < y,
                    CmpOp::Le => x <= y,
                    CmpOp::Gt => x > y,
                    CmpOp::Ge => x >= y,
                }
            }
            BoolExpr::And(a, b) => self.eval_bool(a)? && self.eval_bool(b)?,
            BoolExpr::Or(a, b) => self.eval_bool(a)? || self.eval_bool(b)?,
            BoolExpr::Not(a) => !self.eval_bool(a)?,
        })
    }

    /// Record the adjoint writes induced by the real-array reads of `e`.
    fn record_reads(&self, e: &Expr, rec: &mut Vec<Access>) -> Result<(), String> {
        match e {
            Expr::Index { array, indices } if self.is_real_array(array) => {
                let k = self.index(array, indices)?;
                rec.push((array.to_string(), k, true));
                Ok(())
            }
            Expr::Index { indices, .. } => {
                for ix in indices.iter() {
                    self.record_reads(ix, rec)?;
                }
                Ok(())
            }
            Expr::Unary { arg, .. } => self.record_reads(arg, rec),
            Expr::Binary { lhs, rhs, .. } => {
                self.record_reads(lhs, rec)?;
                self.record_reads(rhs, rec)
            }
            Expr::Call { args, .. } => {
                for a in args.iter() {
                    self.record_reads(a, rec)?;
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// Execute one statement concretely, appending the adjoint accesses
    /// it induces (only meaningful inside a parallel region body).
    fn exec(&mut self, s: &Stmt, rec: &mut Vec<Access>) -> Result<(), String> {
        match s {
            Stmt::Assign { lhs, rhs } => {
                match lhs {
                    formad_ir::LValue::Index { array, indices } if self.is_real_array(array) => {
                        let k = self.index(array, indices)?;
                        // Adjoint footprint of the assignment itself.
                        if let Some((_, added)) = s.increment_parts() {
                            rec.push((array.to_string(), k, false));
                            self.record_reads(added, rec)?;
                        } else {
                            rec.push((array.to_string(), k, true));
                            self.record_reads(rhs, rec)?;
                        }
                        // Primal state update.
                        let v = self.eval(rhs)?.as_r();
                        let arr = self.real_arrays.get_mut(array.as_str()).unwrap();
                        let slot = arr
                            .get_mut((k - 1) as usize)
                            .ok_or_else(|| format!("index {k} out of bounds for `{array}`"))?;
                        *slot = v;
                    }
                    formad_ir::LValue::Index { array, indices } => {
                        let k = self.index(array, indices)?;
                        let v = self.eval(rhs)?.as_i()?;
                        let arr = self
                            .int_arrays
                            .get_mut(array.as_str())
                            .ok_or_else(|| format!("unbound array `{array}`"))?;
                        let slot = arr
                            .get_mut((k - 1) as usize)
                            .ok_or_else(|| format!("index {k} out of bounds for `{array}`"))?;
                        *slot = v;
                    }
                    formad_ir::LValue::Var(name) => {
                        // Scalar adjoints are handled by reduction/
                        // privatization clauses, not the region verdict;
                        // only the data reads feed array adjoints.
                        self.record_reads(rhs, rec)?;
                        let v = self.eval(rhs)?;
                        if self.ints.contains_key(name.as_str()) {
                            self.ints.insert(name.to_string(), v.as_i()?);
                        } else {
                            self.reals.insert(name.to_string(), v.as_r());
                        }
                    }
                }
                Ok(())
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let taken = if self.eval_bool(cond)? {
                    then_body
                } else {
                    else_body
                };
                for t in taken {
                    self.exec(t, rec)?;
                }
                Ok(())
            }
            Stmt::For(l) => {
                let lo = self.eval(&l.lo)?.as_i()?;
                let hi = self.eval(&l.hi)?.as_i()?;
                let step = self.eval(&l.step)?.as_i()?;
                if step == 0 {
                    return Err("zero loop step".into());
                }
                let mut v = lo;
                while (step > 0 && v <= hi) || (step < 0 && v >= hi) {
                    self.ints.insert(l.var.to_string(), v);
                    for t in &l.body {
                        self.exec(t, rec)?;
                    }
                    v += step;
                }
                Ok(())
            }
            // Tape statements never appear in source programs.
            _ => Err("tape statement in primal".into()),
        }
    }
}

/// Check every `Shared` and `Transposed` verdict of `analysis` against
/// the concrete adjoint footprints of `prog` under `bind`. `wrt`/`of`
/// are the differentiation variable lists (needed to rebuild the same
/// activity notion the analysis used). Returns a description of the
/// first unsound verdict found, if any.
pub fn check_footprints(
    prog: &Program,
    bind: &Bindings,
    analysis: &FormadAnalysis,
    wrt: &[String],
    of: &[String],
) -> Result<(), String> {
    let mut st = State::from_bindings(prog, bind);
    let mut region_idx = 0usize;
    let activity = Activity::analyze(prog, wrt, of);
    for s in &prog.body {
        check_stmt(s, &mut st, analysis, &activity, prog, &mut region_idx)?;
    }
    Ok(())
}

fn check_stmt(
    s: &Stmt,
    st: &mut State,
    analysis: &FormadAnalysis,
    activity: &Activity,
    prog: &Program,
    region_idx: &mut usize,
) -> Result<(), String> {
    let Stmt::For(l) = s else {
        let mut sink = Vec::new();
        return st.exec(s, &mut sink);
    };
    if l.parallel.is_none() {
        let mut sink = Vec::new();
        return st.exec(s, &mut sink);
    }
    // A parallel region: replay each iteration, collecting footprints.
    let k = *region_idx;
    *region_idx += 1;
    let lo = st.eval(&l.lo)?.as_i()?;
    let hi = st.eval(&l.hi)?.as_i()?;
    let step = st.eval(&l.step)?.as_i()?;
    if step == 0 {
        return Err("zero loop step".into());
    }
    // (array, loc) → (iterations that write, iterations that touch).
    let mut writers: HashMap<(String, i64), Vec<i64>> = HashMap::new();
    let mut touchers: HashMap<(String, i64), Vec<i64>> = HashMap::new();
    let mut v = lo;
    while (step > 0 && v <= hi) || (step < 0 && v >= hi) {
        st.ints.insert(l.var.to_string(), v);
        let mut rec = Vec::new();
        for t in &l.body {
            st.exec(t, &mut rec)?;
        }
        for (arr, loc, write) in rec {
            let key = (arr, loc);
            if write {
                writers.entry(key.clone()).or_default().push(v);
            }
            touchers.entry(key).or_default().push(v);
        }
        v += step;
    }
    let Some(region) = analysis.regions.get(k) else {
        return Err(format!("analysis has no region {k}"));
    };
    for (arr, decision) in &region.decisions {
        if !matches!(decision, Decision::Shared) {
            continue;
        }
        for ((a, loc), ws) in &writers {
            if a != arr {
                continue;
            }
            let all = &touchers[&(a.clone(), *loc)];
            let conflict = ws.iter().any(|w| all.iter().any(|t| t != w))
                || ws.windows(2).any(|p| p[0] != p[1]);
            if conflict {
                let other = all
                    .iter()
                    .chain(ws.iter())
                    .find(|t| **t != ws[0])
                    .copied()
                    .unwrap_or(ws[0]);
                return Err(format!(
                    "region {k}: `{arr}` decided Shared, but adjoint location \
                     {a}({loc}) is written by iteration {} and touched by \
                     iteration {other}",
                    ws[0]
                ));
            }
        }
    }
    // Transposed verdicts claim two things the SMT layer proved: the
    // scatter into the array's adjoint inverts into a gather, and the
    // gather's seed reads never alias a finalizing write (across
    // iterations, or later in the same iteration). Re-derive the plan
    // and brute-force both obligation families over the concrete
    // iteration space.
    let iters: Vec<i64> = {
        let mut is = Vec::new();
        let mut v = lo;
        while (step > 0 && v <= hi) || (step < 0 && v >= hi) {
            is.push(v);
            v += step;
        }
        is
    };
    let writes = RegionWrites::scan(l);
    for (arr, decision) in &region.decisions {
        if !matches!(decision, Decision::Transposed(_)) {
            continue;
        }
        let plan = plan_transpose(prog, l, &writes, arr, "b", &|n| activity.is_active(n)).map_err(
            |e| format!("region {k}: `{arr}` decided Transposed but the scatter plan fails: {e}"),
        )?;
        let eval_tuple = |st: &mut State, v: i64, es: &[Expr]| -> Result<Vec<i64>, String> {
            st.ints.insert(l.var.to_string(), v);
            es.iter().map(|e| st.eval(e)?.as_i()).collect()
        };
        let obligations = plan.obligations();
        for p in obligations.cross_iter.iter() {
            // write locations per iteration, then probe every seed read.
            let mut write_iters: HashMap<Vec<i64>, Vec<i64>> = HashMap::new();
            for &v in &iters {
                let w = eval_tuple(st, v, &p.write)?;
                write_iters.entry(w).or_default().push(v);
            }
            for &v in &iters {
                let sloc = eval_tuple(st, v, &p.seed)?;
                if let Some(ws) = write_iters.get(&sloc) {
                    if let Some(&w) = ws.iter().find(|&&w| w != v) {
                        return Err(format!(
                            "region {k}: `{arr}` decided Transposed, but gather seed \
                             {}({}) of iteration {v} equals finalizing write \
                             {}({}) of iteration {w}",
                            p.array,
                            expr_to_string(&p.seed[0]),
                            p.array,
                            expr_to_string(&p.write[0]),
                        ));
                    }
                }
            }
        }
        for p in obligations.same_iter.iter() {
            for &v in &iters {
                let sloc = eval_tuple(st, v, &p.seed)?;
                let wloc = eval_tuple(st, v, &p.write)?;
                if sloc == wloc {
                    return Err(format!(
                        "region {k}: `{arr}` decided Transposed, but gather seed \
                         {}({}) is overwritten later in the same iteration {v} by \
                         {}({})",
                        p.array,
                        expr_to_string(&p.seed[0]),
                        p.array,
                        expr_to_string(&p.write[0]),
                    ));
                }
            }
        }
    }
    Ok(())
}
