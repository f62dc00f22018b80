//! Execution of lowered programs by the reference interpreter.
//!
//! The interpreter is the semantics every other backend is held to, and
//! the deterministic counter of what a run does ([`ExecStats`]). A
//! parallel region is executed as `T` logical threads, one after the
//! other, each running its block of the region's `Schedule` — the static
//! schedule by value-ascending rank that every backend shares, under
//! which a reversed adjoint loop pops each thread's tape in exactly the
//! reverse of its push order.
//!
//! Atomic updates execute like plain updates (one thread runs at a time)
//! and are counted; `reduction` clauses really privatize
//! (identity-initialized copies, merged after the region in ascending
//! thread order). The interpreter measures no time: every time figure
//! comes from the native backends.

use formad_ir::{Program, Ty};

use crate::bindings::{Bindings, ExecError};
use crate::lower::{
    bind_entry, combine, compare, identity, int_bin, int_call, lower, oob, real_bin, real_call,
    trip_count, write_back_scalars, ArrMeta, LBool, LExpr, LFor, LProgram, LRegion, LStmt,
    Schedule,
};

/// Cumulative event counters of one execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Plain floating/integer operations executed.
    pub flops: u64,
    /// Memory reads.
    pub reads: u64,
    /// Memory writes.
    pub writes: u64,
    /// Atomic updates executed.
    pub atomic_ops: u64,
    /// Tape pushes.
    pub tape_pushes: u64,
    /// Tape pops.
    pub tape_pops: u64,
    /// Parallel regions entered.
    pub parallel_regions: u64,
    /// Elements privatized+merged by reduction clauses.
    pub reduction_elems: u64,
    /// Indirect (gather/scatter) memory accesses.
    pub indirect_ops: u64,
    /// Peak extra bytes held by reduction privatization.
    pub peak_reduction_bytes: u64,
}

/// Result of one interpreted execution.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecResult {
    /// Event counters.
    pub stats: ExecStats,
}

/// The interpreter's configuration: the number of logical threads.
#[derive(Debug, Clone, Copy)]
pub struct Machine {
    /// Number of logical threads for parallel regions.
    pub threads: usize,
}

impl Machine {
    /// A machine with `threads` logical threads.
    pub fn with_threads(threads: usize) -> Machine {
        Machine { threads }
    }

    /// Single-threaded machine.
    pub fn serial() -> Machine {
        Machine::with_threads(1)
    }
}

/// Run `prog` against `bind` on `machine`. Parameter arrays and scalars
/// are read from the bindings and written back afterwards; locals are
/// zero-initialized.
pub fn run(
    prog: &Program,
    bind: &mut Bindings,
    machine: &Machine,
) -> Result<ExecResult, ExecError> {
    let lp = lower(prog, bind)?;
    let mut it = Interp::new(&lp, machine, bind)?;
    it.exec_body(&lp.body)?;
    it.write_back(bind);
    Ok(ExecResult { stats: it.stats })
}

struct Interp<'a> {
    lp: &'a LProgram,
    m: &'a Machine,
    reals: Vec<f64>,
    ints: Vec<i64>,
    arr_r: Vec<Vec<f64>>,
    arr_i: Vec<Vec<i64>>,
    tapes_r: Vec<Vec<f64>>,
    tapes_i: Vec<Vec<i64>>,
    cur_tape: usize,
    stats: ExecStats,
}

impl<'a> Interp<'a> {
    fn new(lp: &'a LProgram, m: &'a Machine, bind: &Bindings) -> Result<Interp<'a>, ExecError> {
        let mut reals = vec![0.0; lp.n_real_scalars];
        let mut ints = vec![0i64; lp.n_int_scalars];
        bind_entry(&lp.scalars, &lp.arrays, bind, &mut reals, &mut ints)?;
        // Every array gets its own copy: a parameter's goes back into
        // `bind` at the end, a local's initial value stays there.
        let mut arr_r: Vec<Vec<f64>> = Vec::with_capacity(lp.arrays.len());
        let mut arr_i: Vec<Vec<i64>> = Vec::with_capacity(lp.arrays.len());
        for meta in &lp.arrays {
            match meta.ty {
                Ty::Real => {
                    let bound = bind.real_arrays.get(&meta.name);
                    arr_r.push(bound.cloned().unwrap_or_else(|| vec![0.0; meta.len]));
                    arr_i.push(Vec::new());
                }
                Ty::Int => {
                    let bound = bind.int_arrays.get(&meta.name);
                    arr_i.push(bound.cloned().unwrap_or_else(|| vec![0; meta.len]));
                    arr_r.push(Vec::new());
                }
            }
        }
        let t = m.threads.max(1);
        Ok(Interp {
            lp,
            m,
            reals,
            ints,
            arr_r,
            arr_i,
            tapes_r: vec![Vec::new(); t],
            tapes_i: vec![Vec::new(); t],
            cur_tape: 0,
            stats: ExecStats::default(),
        })
    }

    fn write_back(&mut self, bind: &mut Bindings) {
        for (id, meta) in self.lp.arrays.iter().enumerate() {
            if !meta.param {
                continue;
            }
            match meta.ty {
                Ty::Real => {
                    bind.real_arrays
                        .insert(meta.name.clone(), std::mem::take(&mut self.arr_r[id]));
                }
                Ty::Int => {
                    bind.int_arrays
                        .insert(meta.name.clone(), std::mem::take(&mut self.arr_i[id]));
                }
            }
        }
        write_back_scalars(&self.lp.scalars, bind, &self.reals, &self.ints);
    }

    /// Count one memory access.
    #[inline]
    fn count_mem(&mut self, indirect: bool, write: bool) {
        if indirect {
            self.stats.indirect_ops += 1;
        }
        if write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
    }

    // ---- expression evaluation ----

    fn offset(&mut self, meta: &ArrMeta, idx: &[LExpr]) -> Result<usize, ExecError> {
        let mut off: i64 = 0;
        for (k, ix) in idx.iter().enumerate() {
            let v = self.eval_i(ix)?;
            let d = meta.dims[k];
            if v < 1 || v > d {
                return Err(oob(v, d, k + 1, &meta.name));
            }
            off += (v - 1) * meta.strides[k];
        }
        Ok(off as usize)
    }

    fn eval_r(&mut self, e: &LExpr) -> Result<f64, ExecError> {
        Ok(match e {
            LExpr::ConstR(v) => *v,
            LExpr::ConstI(v) => *v as f64,
            LExpr::ScalarR(s) => self.reals[*s as usize],
            LExpr::ScalarI(s) => self.ints[*s as usize] as f64,
            LExpr::Coerce(inner) => self.eval_i(inner)? as f64,
            LExpr::Elem(id, idx, indirect) => {
                let meta = &self.lp.arrays[*id as usize];
                let off = self.offset(meta, idx)?;
                self.count_mem(*indirect, false);
                self.arr_r[*id as usize][off]
            }
            LExpr::Neg(a) => -self.eval_r(a)?,
            LExpr::Bin(op, a, b) => {
                let x = self.eval_r(a)?;
                let y = self.eval_r(b)?;
                self.stats.flops += 1;
                real_bin(*op, x, y)?
            }
            LExpr::Call(f, args) => {
                let x = self.eval_r(&args[0])?;
                let y = match args.get(1) {
                    Some(b) => self.eval_r(b)?,
                    None => 0.0,
                };
                real_call(*f, x, y)
            }
        })
    }

    fn eval_i(&mut self, e: &LExpr) -> Result<i64, ExecError> {
        Ok(match e {
            LExpr::ConstI(v) => *v,
            LExpr::ConstR(_) => {
                return Err(ExecError::new("real literal in integer context"));
            }
            LExpr::ScalarI(s) => self.ints[*s as usize],
            LExpr::ScalarR(_) | LExpr::Coerce(_) => {
                return Err(ExecError::new("real value in integer context"));
            }
            LExpr::Elem(id, idx, indirect) => {
                let meta = &self.lp.arrays[*id as usize];
                let off = self.offset(meta, idx)?;
                self.count_mem(*indirect, false);
                self.arr_i[*id as usize][off]
            }
            LExpr::Neg(a) => self.eval_i(a)?.wrapping_neg(),
            LExpr::Bin(op, a, b) => {
                let x = self.eval_i(a)?;
                let y = self.eval_i(b)?;
                int_bin(*op, x, y)?
            }
            LExpr::Call(f, args) => {
                let x = self.eval_i(&args[0])?;
                let y = match args.get(1) {
                    Some(b) => self.eval_i(b)?,
                    None => 0,
                };
                int_call(*f, x, y)?
            }
        })
    }

    fn eval_bool(&mut self, b: &LBool) -> Result<bool, ExecError> {
        Ok(match b {
            LBool::Cmp(op, ty, a, x) => match ty {
                Ty::Int => {
                    let l = self.eval_i(a)?;
                    let r = self.eval_i(x)?;
                    compare(*op, l, r)
                }
                Ty::Real => {
                    let l = self.eval_r(a)?;
                    let r = self.eval_r(x)?;
                    compare(*op, l, r)
                }
            },
            LBool::And(a, b) => self.eval_bool(a)? && self.eval_bool(b)?,
            LBool::Or(a, b) => self.eval_bool(a)? || self.eval_bool(b)?,
            LBool::Not(a) => !self.eval_bool(a)?,
        })
    }

    // ---- statement execution ----

    fn exec_body(&mut self, body: &[LStmt]) -> Result<(), ExecError> {
        for s in body {
            self.exec_stmt(s)?;
        }
        Ok(())
    }

    fn exec_stmt(&mut self, s: &LStmt) -> Result<(), ExecError> {
        match s {
            LStmt::AssignR(slot, rhs) => {
                let v = self.eval_r(rhs)?;
                self.reals[*slot as usize] = v;
                Ok(())
            }
            LStmt::AssignI(slot, rhs) => {
                let v = self.eval_i(rhs)?;
                self.ints[*slot as usize] = v;
                Ok(())
            }
            LStmt::AssignElem(id, idx, rhs, indirect) => {
                let meta = &self.lp.arrays[*id as usize];
                let ty = meta.ty;
                let off = self.offset(meta, idx)?;
                self.count_mem(*indirect, true);
                match ty {
                    Ty::Real => {
                        let v = self.eval_r(rhs)?;
                        self.arr_r[*id as usize][off] = v;
                    }
                    Ty::Int => {
                        let v = self.eval_i(rhs)?;
                        self.arr_i[*id as usize][off] = v;
                    }
                }
                Ok(())
            }
            LStmt::AtomicAddElem(id, idx, rhs) => {
                let meta = &self.lp.arrays[*id as usize];
                let off = self.offset(meta, idx)?;
                let v = self.eval_r(rhs)?;
                self.stats.atomic_ops += 1;
                self.arr_r[*id as usize][off] += v;
                Ok(())
            }
            LStmt::If(cond, then_b, else_b) => {
                if self.eval_bool(cond)? {
                    self.exec_body(then_b)
                } else {
                    self.exec_body(else_b)
                }
            }
            LStmt::Push(e, ty) => {
                self.stats.tape_pushes += 1;
                match ty {
                    Ty::Real => {
                        let v = self.eval_r(e)?;
                        self.tapes_r[self.cur_tape].push(v);
                    }
                    Ty::Int => {
                        let v = self.eval_i(e)?;
                        self.tapes_i[self.cur_tape].push(v);
                    }
                }
                Ok(())
            }
            LStmt::PopR(slot) => {
                self.stats.tape_pops += 1;
                let v = self.tapes_r[self.cur_tape]
                    .pop()
                    .ok_or_else(|| ExecError::new("pop from empty real tape"))?;
                self.reals[*slot as usize] = v;
                Ok(())
            }
            LStmt::PopI(slot) => {
                self.stats.tape_pops += 1;
                let v = self.tapes_i[self.cur_tape]
                    .pop()
                    .ok_or_else(|| ExecError::new("pop from empty int tape"))?;
                self.ints[*slot as usize] = v;
                Ok(())
            }
            LStmt::PopElem(id, idx, indirect) => {
                self.count_mem(*indirect, true);
                self.stats.tape_pops += 1;
                let meta = &self.lp.arrays[*id as usize];
                let off = self.offset(meta, idx)?;
                match meta.ty {
                    Ty::Real => {
                        let v = self.tapes_r[self.cur_tape]
                            .pop()
                            .ok_or_else(|| ExecError::new("pop from empty real tape"))?;
                        self.arr_r[*id as usize][off] = v;
                    }
                    Ty::Int => {
                        let v = self.tapes_i[self.cur_tape]
                            .pop()
                            .ok_or_else(|| ExecError::new("pop from empty int tape"))?;
                        self.arr_i[*id as usize][off] = v;
                    }
                }
                Ok(())
            }
            LStmt::For(f) => self.exec_sequential(f),
            // Parallel loops always take the region path, at one thread
            // too, so regions and reductions are counted alike.
            LStmt::Parallel(k) => self.exec_parallel(&self.lp.regions[*k as usize]),
        }
    }

    fn exec_sequential(&mut self, f: &LFor) -> Result<(), ExecError> {
        let lo = self.eval_i(&f.lo)?;
        let hi = self.eval_i(&f.hi)?;
        let step = self.eval_i(&f.step)?;
        let mut v = lo;
        for _ in 0..trip_count(lo, hi, step)? {
            self.ints[f.var as usize] = v;
            self.exec_body(&f.body)?;
            v = v.wrapping_add(step);
        }
        Ok(())
    }

    fn exec_parallel(&mut self, region: &LRegion) -> Result<(), ExecError> {
        let f = &region.for_loop;
        let lo = self.eval_i(&f.lo)?;
        let hi = self.eval_i(&f.hi)?;
        let step = self.eval_i(&f.step)?;
        let t_n = self.m.threads;
        let sched = Schedule::new(lo, hi, step, t_n)?;
        self.stats.parallel_regions += 1;

        if sched.count == 0 {
            return Ok(());
        }

        // Save private scalars (restored after the region) and the counter.
        let saved_r: Vec<f64> = region
            .private_r
            .iter()
            .map(|s| self.reals[*s as usize])
            .collect();
        let saved_i: Vec<i64> = region
            .private_i
            .iter()
            .map(|s| self.ints[*s as usize])
            .collect();
        let saved_counter = self.ints[f.var as usize];

        // Reduction bookkeeping.
        let red_scalar_saved: Vec<f64> = region
            .red_scalars
            .iter()
            .map(|(_, s, is_real)| {
                if *is_real {
                    self.reals[*s as usize]
                } else {
                    self.ints[*s as usize] as f64
                }
            })
            .collect();
        let mut red_scalar_acc: Vec<f64> = region
            .red_scalars
            .iter()
            .map(|(op, _, _)| identity(*op))
            .collect();
        let red_arr_saved: Vec<Vec<f64>> = region
            .red_arrays
            .iter()
            .map(|(_, id)| self.arr_r[*id as usize].clone())
            .collect();
        let mut red_arr_acc: Vec<Vec<f64>> = region
            .red_arrays
            .iter()
            .map(|(op, id)| vec![identity(*op); self.arr_r[*id as usize].len()])
            .collect();
        let red_footprint: u64 = region
            .red_arrays
            .iter()
            .map(|(_, id)| self.arr_r[*id as usize].len() as u64)
            .sum();
        self.stats.peak_reduction_bytes = self
            .stats
            .peak_reduction_bytes
            .max(red_footprint * 8 * t_n as u64);

        let prev_tape = self.cur_tape;
        for t in 0..t_n {
            let ranks = sched.ranks(t);
            if ranks.is_empty() {
                continue;
            }
            // Reset private copies to region-entry values (OpenMP privates
            // are formally uninitialized; entry values are a deterministic
            // stand-in, and generated adjoints initialize explicitly).
            for (k, s) in region.private_r.iter().enumerate() {
                self.reals[*s as usize] = saved_r[k];
            }
            for (k, s) in region.private_i.iter().enumerate() {
                self.ints[*s as usize] = saved_i[k];
            }
            // Identity-init reductions for this thread.
            for (op, s, is_real) in &region.red_scalars {
                if *is_real {
                    self.reals[*s as usize] = identity(*op);
                } else {
                    self.ints[*s as usize] = identity(*op) as i64;
                }
            }
            for (op, id) in &region.red_arrays {
                let arr = &mut self.arr_r[*id as usize];
                for v in arr.iter_mut() {
                    *v = identity(*op);
                }
            }

            self.cur_tape = t;
            for v in sched.values(ranks) {
                self.ints[f.var as usize] = v;
                self.exec_body(&f.body)?;
            }

            // Collect this thread's reduction partials.
            for (k, (op, s, is_real)) in region.red_scalars.iter().enumerate() {
                let part = if *is_real {
                    self.reals[*s as usize]
                } else {
                    self.ints[*s as usize] as f64
                };
                red_scalar_acc[k] = combine(*op, red_scalar_acc[k], part);
            }
            for (k, (op, id)) in region.red_arrays.iter().enumerate() {
                let arr = &self.arr_r[*id as usize];
                for (acc, v) in red_arr_acc[k].iter_mut().zip(arr) {
                    *acc = combine(*op, *acc, *v);
                }
                self.stats.reduction_elems += arr.len() as u64;
            }
        }
        self.cur_tape = prev_tape;

        // Apply reductions onto the saved originals.
        for (k, (op, s, is_real)) in region.red_scalars.iter().enumerate() {
            let final_v = combine(*op, red_scalar_saved[k], red_scalar_acc[k]);
            if *is_real {
                self.reals[*s as usize] = final_v;
            } else {
                self.ints[*s as usize] = final_v as i64;
            }
        }
        for (k, (op, id)) in region.red_arrays.iter().enumerate() {
            let arr = &mut self.arr_r[*id as usize];
            for (j, v) in arr.iter_mut().enumerate() {
                *v = combine(*op, red_arr_saved[k][j], red_arr_acc[k][j]);
            }
        }
        // Restore private scalars and the counter (pre-region values).
        for (k, s) in region.private_r.iter().enumerate() {
            self.reals[*s as usize] = saved_r[k];
        }
        for (k, s) in region.private_i.iter().enumerate() {
            self.ints[*s as usize] = saved_i[k];
        }
        self.ints[f.var as usize] = saved_counter;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use formad_ir::parse_program;

    fn exec(src: &str, bind: Bindings, threads: usize) -> (Bindings, ExecResult) {
        let p = parse_program(src).unwrap();
        let mut b = bind;
        let r = run(&p, &mut b, &Machine::with_threads(threads)).unwrap();
        (b, r)
    }

    const SAXPY: &str = r#"
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
"#;

    #[test]
    fn saxpy_computes() {
        let b = Bindings::new()
            .int("n", 5)
            .real("a", 2.0)
            .real_array("x", vec![1.0, 2.0, 3.0, 4.0, 5.0])
            .real_array("y", vec![10.0; 5]);
        let (out, res) = exec(SAXPY, b, 1);
        assert_eq!(
            out.get_real_array("y").unwrap(),
            &[12.0, 14.0, 16.0, 18.0, 20.0]
        );
        assert_eq!(res.stats.parallel_regions, 1);
        assert_eq!(res.stats.writes, 5);
    }

    #[test]
    fn parallel_execution_matches_serial() {
        for threads in [2, 4, 7] {
            let mk = || {
                Bindings::new()
                    .int("n", 23)
                    .real("a", 1.5)
                    .real_array("x", (0..23).map(|k| k as f64).collect())
                    .real_array("y", vec![1.0; 23])
            };
            let (serial, _) = exec(SAXPY, mk(), 1);
            let (par, _) = exec(SAXPY, mk(), threads);
            assert_eq!(serial.get_real_array("y"), par.get_real_array("y"));
        }
    }

    #[test]
    fn atomic_add_is_expensive_but_correct() {
        let src = r#"
subroutine at(n, y)
  integer, intent(in) :: n
  real, intent(inout) :: y(n)
  integer :: i
  !$omp parallel do shared(y)
  do i = 1, n
    !$omp atomic
    y(i) = y(i) + 1.0
  end do
end subroutine
"#;
        let plain_src = src.replace("!$omp atomic\n", "");
        let mk = || {
            Bindings::new()
                .int("n", 100)
                .real_array("y", vec![0.0; 100])
        };
        let (oa, ra) = exec(src, mk(), 4);
        let (op_, rp) = exec(&plain_src, mk(), 4);
        assert_eq!(oa.get_real_array("y"), op_.get_real_array("y"));
        assert_eq!(ra.stats.atomic_ops, 100);
        assert_eq!(rp.stats.atomic_ops, 0);
    }

    #[test]
    fn reduction_array_merges() {
        // Every thread increments y(1): without a reduction clause this
        // would race on real hardware; with one it must sum correctly.
        let src = r#"
subroutine red(n, y)
  integer, intent(in) :: n
  real, intent(inout) :: y(n)
  integer :: i
  !$omp parallel do reduction(+: y)
  do i = 1, n
    y(1) = y(1) + 1.0
  end do
end subroutine
"#;
        let b = Bindings::new().int("n", 50).real_array("y", vec![5.0, 0.0]);
        // n=50 but y has 2 elements: bind mismatch — fix n-sized.
        let _ = b;
        let b = Bindings::new().int("n", 50).real_array("y", vec![5.0; 50]);
        let (out, res) = exec(src, b, 4);
        assert_eq!(out.get_real_array("y").unwrap()[0], 55.0);
        assert!(res.stats.reduction_elems > 0);
        assert!(res.stats.peak_reduction_bytes >= 50 * 8 * 4);
    }

    #[test]
    fn scalar_reduction() {
        let src = r#"
subroutine dotsum(n, x, s)
  integer, intent(in) :: n
  real, intent(in) :: x(n)
  real, intent(inout) :: s
  integer :: i
  !$omp parallel do shared(x) reduction(+: s)
  do i = 1, n
    s = s + x(i)
  end do
end subroutine
"#;
        let b = Bindings::new()
            .int("n", 10)
            .real("s", 100.0)
            .real_array("x", (1..=10).map(|k| k as f64).collect());
        let (out, _) = exec(src, b, 3);
        assert_eq!(out.get_real("s"), Some(155.0));
    }

    #[test]
    fn private_scalar_isolated() {
        let src = r#"
subroutine pr(n, x, y)
  integer, intent(in) :: n
  real, intent(in) :: x(n)
  real, intent(inout) :: y(n)
  real :: t
  integer :: i
  !$omp parallel do shared(x, y) private(t)
  do i = 1, n
    t = 2.0 * x(i)
    y(i) = t * t
  end do
end subroutine
"#;
        let b = Bindings::new()
            .int("n", 6)
            .real_array("x", vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
            .real_array("y", vec![0.0; 6]);
        let (out, _) = exec(src, b, 3);
        let y = out.get_real_array("y").unwrap();
        for (k, v) in y.iter().enumerate() {
            let x = (k + 1) as f64;
            assert_eq!(*v, 4.0 * x * x);
        }
    }

    #[test]
    fn tape_push_pop_roundtrip() {
        let src = r#"
subroutine tp(n, y)
  integer, intent(in) :: n
  real, intent(inout) :: y(n)
  integer :: i
  do i = 1, n
    call push(y(i))
    y(i) = 0.0
  end do
  do i = n, 1, -1
    call pop(y(i))
  end do
end subroutine
"#;
        let b = Bindings::new()
            .int("n", 4)
            .real_array("y", vec![1.0, 2.0, 3.0, 4.0]);
        let (out, res) = exec(src, b, 1);
        assert_eq!(out.get_real_array("y").unwrap(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(res.stats.tape_pushes, 4);
        assert_eq!(res.stats.tape_pops, 4);
    }

    #[test]
    fn parallel_tapes_are_thread_local() {
        // Forward parallel loop pushes, reversed parallel loop pops: the
        // value restored at index i must be the one pushed for index i,
        // which only works if chunks map consistently.
        let src = r#"
subroutine tp(n, y)
  integer, intent(in) :: n
  real, intent(inout) :: y(n)
  integer :: i
  !$omp parallel do shared(y)
  do i = 1, n
    call push(y(i))
    y(i) = -1.0
  end do
  !$omp parallel do shared(y)
  do i = n, 1, -1
    call pop(y(i))
  end do
end subroutine
"#;
        for threads in [1, 2, 3, 8] {
            let vals: Vec<f64> = (0..17).map(|k| k as f64 * 1.25).collect();
            let b = Bindings::new().int("n", 17).real_array("y", vals.clone());
            let (out, _) = exec(src, b, threads);
            assert_eq!(
                out.get_real_array("y").unwrap(),
                vals.as_slice(),
                "T={threads}"
            );
        }
    }

    #[test]
    fn out_of_bounds_detected() {
        let src = r#"
subroutine ob(n, y)
  integer, intent(in) :: n
  real, intent(inout) :: y(n)
  integer :: i
  do i = 1, n + 1
    y(i) = 1.0
  end do
end subroutine
"#;
        let p = parse_program(src).unwrap();
        let mut b = Bindings::new().int("n", 3).real_array("y", vec![0.0; 3]);
        let err = run(&p, &mut b, &Machine::serial()).unwrap_err();
        assert!(err.message.contains("out of bounds"), "{err}");
    }

    #[test]
    fn if_else_and_inner_loops() {
        let src = r#"
subroutine cf(n, c, y)
  integer, intent(in) :: n
  integer, intent(in) :: c(n)
  real, intent(inout) :: y(n)
  integer :: i, j
  do i = 1, n
    if (c(i) .gt. 0) then
      do j = 1, c(i)
        y(i) = y(i) + 1.0
      end do
    else
      y(i) = -5.0
    end if
  end do
end subroutine
"#;
        let b = Bindings::new()
            .int("n", 4)
            .int_array("c", vec![2, 0, 3, -1])
            .real_array("y", vec![0.0; 4]);
        let (out, _) = exec(src, b, 1);
        assert_eq!(out.get_real_array("y").unwrap(), &[2.0, -5.0, 3.0, -5.0]);
    }

    #[test]
    fn unbound_parameter_rejected() {
        let p = parse_program(SAXPY).unwrap();
        let mut b = Bindings::new().int("n", 3).real_array("x", vec![0.0; 3]);
        // y and a missing.
        assert!(run(&p, &mut b, &Machine::serial()).is_err());
    }

    #[test]
    fn mod_and_intrinsics() {
        let src = r#"
subroutine mi(n, y)
  integer, intent(in) :: n
  real, intent(inout) :: y(n)
  integer :: i
  do i = 1, n
    if (mod(i, 2) .eq. 0) then
      y(i) = sqrt(4.0) + min(1.0, 2.0)
    else
      y(i) = abs(-3.0) + max(1.0, 2.0)
    end if
  end do
end subroutine
"#;
        let b = Bindings::new().int("n", 2).real_array("y", vec![0.0; 2]);
        let (out, _) = exec(src, b, 1);
        assert_eq!(out.get_real_array("y").unwrap(), &[5.0, 3.0]);
    }

    #[test]
    fn multidim_fortran_order() {
        let src = r#"
subroutine md(n, m, u)
  integer, intent(in) :: n, m
  real, intent(inout) :: u(n, m)
  integer :: i, j
  do j = 1, m
    do i = 1, n
      u(i, j) = i * 10.0 + j
    end do
  end do
end subroutine
"#;
        let b = Bindings::new()
            .int("n", 2)
            .int("m", 3)
            .real_array("u", vec![0.0; 6]);
        let (out, _) = exec(src, b, 1);
        // Column-major: u(1,1), u(2,1), u(1,2), u(2,2), u(1,3), u(2,3).
        assert_eq!(
            out.get_real_array("u").unwrap(),
            &[11.0, 21.0, 12.0, 22.0, 13.0, 23.0]
        );
    }
}
