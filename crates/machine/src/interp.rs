//! Execution of lowered programs on the simulated machine.
//!
//! Sequential code accumulates wall cycles directly. A parallel loop is
//! executed as `T` simulated threads with **static scheduling by
//! value-ascending rank**: thread `t` always owns the same block of the
//! iteration space regardless of the loop's direction, so a reversed
//! adjoint loop assigns every iteration to the thread that ran it forward,
//! and each thread pops its tape in exactly the reverse of its push order —
//! the discipline the reverse-mode transformation relies on.
//!
//! Atomic updates execute like plain updates (the simulation is
//! deterministic) but are charged the contended-atomic cost; `reduction`
//! clauses really privatize (identity-initialized copies, merged after the
//! region) and are charged initialization and serialized-merge costs, so
//! the *performance shape* of the paper's program versions is reproduced
//! while their *semantics* stay exact.

use formad_ir::{BinOp, CmpOp, Intrinsic, Program, RedOp, Ty};

use crate::bindings::{Bindings, ExecError};
use crate::cost::{CostModel, ExecResult, ExecStats};
use crate::lower::{lower, ArrMeta, LBool, LExpr, LFor, LProgram, LStmt};

/// The simulated machine: thread count and cost model.
#[derive(Debug, Clone, Copy)]
pub struct Machine {
    /// Number of simulated threads for parallel regions.
    pub threads: usize,
    /// Cycle costs.
    pub cost: CostModel,
}

impl Machine {
    /// A machine with `threads` threads and default costs.
    pub fn with_threads(threads: usize) -> Machine {
        Machine {
            threads,
            cost: CostModel::default(),
        }
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
    let mut it = Interp::new(&lp, machine, bind, prog)?;
    it.exec_body(&lp.body)?;
    it.write_back(bind, prog);
    Ok(ExecResult {
        wall_cycles: it.cycles,
        cpu_cycles: it.cpu_cycles,
        stats: it.stats,
    })
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
    /// Threads active in the enclosing parallel region (1 outside).
    active_threads: usize,
    cycles: u128,
    cpu_cycles: u128,
    stats: ExecStats,
    /// Memory ops in the current parallel region (bandwidth floor).
    region_mem_ops: u64,
    region_indirect_ops: u64,
}

impl<'a> Interp<'a> {
    fn new(
        lp: &'a LProgram,
        m: &'a Machine,
        bind: &Bindings,
        prog: &Program,
    ) -> Result<Interp<'a>, ExecError> {
        let mut reals = vec![0.0; lp.n_real_scalars];
        let mut ints = vec![0i64; lp.n_int_scalars];
        let mut arr_r: Vec<Vec<f64>> = Vec::with_capacity(lp.arrays.len());
        let mut arr_i: Vec<Vec<i64>> = Vec::with_capacity(lp.arrays.len());
        let param_names: Vec<&str> = prog.params.iter().map(|d| d.name.as_str()).collect();

        for (name, (slot, ty)) in &lp.scalar_slots {
            match ty {
                Ty::Real => {
                    if let Some(v) = bind.real_scalars.get(name) {
                        reals[*slot as usize] = *v;
                    } else if param_names.contains(&name.as_str()) {
                        return Err(ExecError::new(format!("parameter `{name}` is unbound")));
                    }
                }
                Ty::Int => {
                    if let Some(v) = bind.int_scalars.get(name) {
                        ints[*slot as usize] = *v;
                    } else if param_names.contains(&name.as_str()) {
                        return Err(ExecError::new(format!("parameter `{name}` is unbound")));
                    }
                }
            }
        }
        for meta in &lp.arrays {
            let is_param = param_names.contains(&meta.name.as_str());
            match meta.ty {
                Ty::Real => {
                    let data = match bind.real_arrays.get(&meta.name) {
                        Some(v) => {
                            if v.len() != meta.len {
                                return Err(ExecError::new(format!(
                                    "array `{}` bound with {} elements, declared {}",
                                    meta.name,
                                    v.len(),
                                    meta.len
                                )));
                            }
                            v.clone()
                        }
                        None if is_param => {
                            return Err(ExecError::new(format!(
                                "parameter array `{}` is unbound",
                                meta.name
                            )))
                        }
                        None => vec![0.0; meta.len],
                    };
                    arr_r.push(data);
                    arr_i.push(Vec::new());
                }
                Ty::Int => {
                    let data = match bind.int_arrays.get(&meta.name) {
                        Some(v) => {
                            if v.len() != meta.len {
                                return Err(ExecError::new(format!(
                                    "array `{}` bound with {} elements, declared {}",
                                    meta.name,
                                    v.len(),
                                    meta.len
                                )));
                            }
                            v.clone()
                        }
                        None if is_param => {
                            return Err(ExecError::new(format!(
                                "parameter array `{}` is unbound",
                                meta.name
                            )))
                        }
                        None => vec![0i64; meta.len],
                    };
                    arr_i.push(data);
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
            active_threads: 1,
            cycles: 0,
            cpu_cycles: 0,
            stats: ExecStats::default(),
            region_mem_ops: 0,
            region_indirect_ops: 0,
        })
    }

    fn write_back(&mut self, bind: &mut Bindings, prog: &Program) {
        for d in &prog.params {
            if d.is_array() {
                let id = self.lp.array_ids[d.name.as_str()] as usize;
                match d.ty {
                    Ty::Real => {
                        bind.real_arrays
                            .insert(d.name.to_string(), std::mem::take(&mut self.arr_r[id]));
                    }
                    Ty::Int => {
                        bind.int_arrays
                            .insert(d.name.to_string(), std::mem::take(&mut self.arr_i[id]));
                    }
                }
            } else {
                let (slot, ty) = self.lp.scalar_slots[d.name.as_str()];
                match ty {
                    Ty::Real => {
                        bind.real_scalars
                            .insert(d.name.to_string(), self.reals[slot as usize]);
                    }
                    Ty::Int => {
                        bind.int_scalars
                            .insert(d.name.to_string(), self.ints[slot as usize]);
                    }
                }
            }
        }
    }

    #[inline]
    fn charge(&mut self, c: u64) {
        self.cycles += c as u128;
    }

    /// Charge one memory access, tracking the bandwidth-floor counters.
    #[inline]
    fn charge_mem(&mut self, indirect: bool, write: bool) {
        let c = if indirect {
            self.stats.indirect_ops += 1;
            self.region_indirect_ops += 1;
            self.m.cost.mem_indirect
        } else if write {
            self.m.cost.mem_write
        } else {
            self.m.cost.mem_read
        };
        self.region_mem_ops += 1;
        if write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        self.charge(c);
    }

    // ---- expression evaluation ----

    fn offset(&mut self, meta: &ArrMeta, idx: &[LExpr]) -> Result<usize, ExecError> {
        let mut off: i64 = 0;
        let mut stride: i64 = 1;
        for (k, ix) in idx.iter().enumerate() {
            let v = self.eval_i(ix)?;
            let d = meta.dims[k];
            if v < 1 || v > d {
                return Err(ExecError::new(format!(
                    "index {v} out of bounds 1..={d} in dimension {} of `{}`",
                    k + 1,
                    meta.name
                )));
            }
            off += (v - 1) * stride;
            stride *= d;
            self.charge(self.m.cost.flop);
        }
        Ok(off as usize)
    }

    fn eval_r(&mut self, e: &LExpr) -> Result<f64, ExecError> {
        Ok(match e {
            LExpr::ConstR(v) => *v,
            LExpr::ConstI(v) => *v as f64,
            LExpr::ScalarR(s) => self.reals[*s as usize],
            LExpr::ScalarI(s) => self.ints[*s as usize] as f64,
            LExpr::Coerce(inner) => {
                self.charge(self.m.cost.flop);
                self.eval_i(inner)? as f64
            }
            LExpr::Elem(id, idx, indirect) => {
                let meta = &self.lp.arrays[*id as usize];
                let off = self.offset(meta, idx)?;
                self.charge_mem(*indirect, false);
                self.arr_r[*id as usize][off]
            }
            LExpr::Neg(a) => {
                self.charge(self.m.cost.flop);
                -self.eval_r(a)?
            }
            LExpr::Bin(op, a, b) => {
                let x = self.eval_r(a)?;
                let y = self.eval_r(b)?;
                self.charge(self.m.cost.flop);
                self.stats.flops += 1;
                match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x - y,
                    BinOp::Mul => x * y,
                    BinOp::Div => x / y,
                    BinOp::Pow => x.powf(y),
                    BinOp::Mod => {
                        return Err(ExecError::new("mod in real context"));
                    }
                }
            }
            LExpr::Call(f, args) => {
                self.charge(self.m.cost.intrinsic);
                match f {
                    Intrinsic::Sin => self.eval_r(&args[0])?.sin(),
                    Intrinsic::Cos => self.eval_r(&args[0])?.cos(),
                    Intrinsic::Exp => self.eval_r(&args[0])?.exp(),
                    Intrinsic::Log => self.eval_r(&args[0])?.ln(),
                    Intrinsic::Sqrt => self.eval_r(&args[0])?.sqrt(),
                    Intrinsic::Tanh => self.eval_r(&args[0])?.tanh(),
                    Intrinsic::Abs => self.eval_r(&args[0])?.abs(),
                    Intrinsic::Min => self.eval_r(&args[0])?.min(self.eval_r(&args[1])?),
                    Intrinsic::Max => self.eval_r(&args[0])?.max(self.eval_r(&args[1])?),
                }
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
                self.charge_mem(*indirect, false);
                self.arr_i[*id as usize][off]
            }
            LExpr::Neg(a) => {
                self.charge(self.m.cost.flop);
                -self.eval_i(a)?
            }
            LExpr::Bin(op, a, b) => {
                let x = self.eval_i(a)?;
                let y = self.eval_i(b)?;
                self.charge(self.m.cost.flop);
                match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x - y,
                    BinOp::Mul => x * y,
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
                        x.checked_pow(y as u32)
                            .ok_or_else(|| ExecError::new("integer overflow in **"))?
                    }
                }
            }
            LExpr::Call(f, args) => {
                self.charge(self.m.cost.flop);
                match f {
                    Intrinsic::Abs => self.eval_i(&args[0])?.abs(),
                    Intrinsic::Min => self.eval_i(&args[0])?.min(self.eval_i(&args[1])?),
                    Intrinsic::Max => self.eval_i(&args[0])?.max(self.eval_i(&args[1])?),
                    other => {
                        return Err(ExecError::new(format!(
                            "intrinsic {} in integer context",
                            other.name()
                        )))
                    }
                }
            }
        })
    }

    fn eval_bool(&mut self, b: &LBool) -> Result<bool, ExecError> {
        Ok(match b {
            LBool::Cmp(op, ty, a, x) => {
                self.charge(self.m.cost.flop);
                match ty {
                    Ty::Int => {
                        let l = self.eval_i(a)?;
                        let r = self.eval_i(x)?;
                        compare(*op, l as f64, r as f64)
                    }
                    Ty::Real => {
                        let l = self.eval_r(a)?;
                        let r = self.eval_r(x)?;
                        compare(*op, l, r)
                    }
                }
            }
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
                self.charge_mem(*indirect, true);
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
                let t = self.active_threads as u64;
                let c = self.m.cost.atomic_base * t * (100 + self.m.cost.atomic_quad_pct * (t - 1))
                    / 100;
                self.charge(c);
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
                self.charge(self.m.cost.tape_op);
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
                self.charge(self.m.cost.tape_op);
                self.stats.tape_pops += 1;
                let v = self.tapes_r[self.cur_tape]
                    .pop()
                    .ok_or_else(|| ExecError::new("pop from empty real tape"))?;
                self.reals[*slot as usize] = v;
                Ok(())
            }
            LStmt::PopI(slot) => {
                self.charge(self.m.cost.tape_op);
                self.stats.tape_pops += 1;
                let v = self.tapes_i[self.cur_tape]
                    .pop()
                    .ok_or_else(|| ExecError::new("pop from empty int tape"))?;
                self.ints[*slot as usize] = v;
                Ok(())
            }
            LStmt::PopElem(id, idx, indirect) => {
                self.charge(self.m.cost.tape_op);
                self.charge_mem(*indirect, true);
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
            LStmt::For(f) => {
                // Parallel loops always take the region path so that
                // fork/join, privatization, and merge costs are charged
                // even at one thread (the paper's 1-thread overheads).
                if f.parallel.is_some() {
                    self.exec_parallel(f)
                } else {
                    self.exec_sequential(f)
                }
            }
        }
    }

    fn exec_sequential(&mut self, f: &LFor) -> Result<(), ExecError> {
        let lo = self.eval_i(&f.lo)?;
        let hi = self.eval_i(&f.hi)?;
        let step = self.eval_i(&f.step)?;
        if step == 0 {
            return Err(ExecError::new("zero loop step"));
        }
        let mut v = lo;
        while (step > 0 && v <= hi) || (step < 0 && v >= hi) {
            self.ints[f.var as usize] = v;
            self.charge(self.m.cost.loop_overhead);
            self.exec_body(&f.body)?;
            v += step;
        }
        Ok(())
    }

    fn exec_parallel(&mut self, f: &LFor) -> Result<(), ExecError> {
        let lo = self.eval_i(&f.lo)?;
        let hi = self.eval_i(&f.hi)?;
        let step = self.eval_i(&f.step)?;
        if step == 0 {
            return Err(ExecError::new("zero loop step"));
        }
        let count: i64 = if step > 0 {
            if hi < lo {
                0
            } else {
                (hi - lo) / step + 1
            }
        } else if hi > lo {
            0
        } else {
            (lo - hi) / (-step) + 1
        };
        let lp = f.parallel.as_ref().expect("parallel loop");
        let t_n = self.m.threads;
        self.stats.parallel_regions += 1;
        self.charge(self.m.cost.fork_join);

        if count == 0 {
            return Ok(());
        }

        // Chunking by value-ascending rank (see module docs).
        let chunk = (count as usize).div_ceil(t_n);

        // Save private scalars (restored after the region) and the counter.
        let saved_r: Vec<f64> = lp
            .private_r
            .iter()
            .map(|s| self.reals[*s as usize])
            .collect();
        let saved_i: Vec<i64> = lp
            .private_i
            .iter()
            .map(|s| self.ints[*s as usize])
            .collect();
        let saved_counter = self.ints[f.var as usize];

        // Reduction bookkeeping.
        let red_scalar_saved: Vec<f64> = lp
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
        let mut red_scalar_acc: Vec<f64> = lp
            .red_scalars
            .iter()
            .map(|(op, _, _)| identity(*op))
            .collect();
        let red_arr_saved: Vec<Vec<f64>> = lp
            .red_arrays
            .iter()
            .map(|(_, id)| self.arr_r[*id as usize].clone())
            .collect();
        let mut red_arr_acc: Vec<Vec<f64>> = lp
            .red_arrays
            .iter()
            .map(|(op, id)| vec![identity(*op); self.arr_r[*id as usize].len()])
            .collect();
        let red_footprint: u64 = lp
            .red_arrays
            .iter()
            .map(|(_, id)| self.arr_r[*id as usize].len() as u64)
            .sum();
        if !lp.red_arrays.is_empty() {
            self.stats.peak_reduction_bytes = self
                .stats
                .peak_reduction_bytes
                .max(red_footprint * 8 * t_n as u64);
        }

        let outer_cycles = self.cycles;
        let prev_active = self.active_threads;
        let prev_tape = self.cur_tape;
        self.active_threads = t_n;
        let prev_region_mem = self.region_mem_ops;
        let prev_region_ind = self.region_indirect_ops;
        self.region_mem_ops = 0;
        self.region_indirect_ops = 0;

        let mut max_thread: u128 = 0;
        let mut merge_serialized: u128 = 0;

        for t in 0..t_n {
            let a_begin = (t * chunk) as i64;
            let a_end = (((t + 1) * chunk).min(count as usize)) as i64;
            if a_begin >= a_end {
                continue;
            }
            // Reset private copies to region-entry values (OpenMP privates
            // are formally uninitialized; entry values are a deterministic
            // stand-in, and generated adjoints initialize explicitly).
            for (k, s) in lp.private_r.iter().enumerate() {
                self.reals[*s as usize] = saved_r[k];
            }
            for (k, s) in lp.private_i.iter().enumerate() {
                self.ints[*s as usize] = saved_i[k];
            }
            // Identity-init reductions for this thread.
            for (k, (op, s, is_real)) in lp.red_scalars.iter().enumerate() {
                let _ = k;
                if *is_real {
                    self.reals[*s as usize] = identity(*op);
                } else {
                    self.ints[*s as usize] = identity(*op) as i64;
                }
            }
            for (k, (op, id)) in lp.red_arrays.iter().enumerate() {
                let _ = k;
                let arr = &mut self.arr_r[*id as usize];
                for v in arr.iter_mut() {
                    *v = identity(*op);
                }
            }

            self.cur_tape = t;
            self.cycles = 0;
            // Each thread zero-initializes its privatized copies.
            self.charge(self.m.cost.red_init_per_elem * red_footprint);

            // Iterate this thread's ascending ranks in loop order.
            let ranks: Box<dyn Iterator<Item = i64>> = if step > 0 {
                Box::new(a_begin..a_end)
            } else {
                Box::new((a_begin..a_end).rev())
            };
            for a in ranks {
                // Value of ascending rank `a`: the iterate set is
                // {lo, lo+step, …, lo+(count−1)·step}; for descending
                // loops the smallest iterate is the *last* one, which may
                // lie strictly above `hi`.
                let v = if step > 0 {
                    lo + a * step
                } else {
                    lo + (count - 1 - a) * step
                };
                self.ints[f.var as usize] = v;
                self.charge(self.m.cost.loop_overhead);
                self.exec_body(&f.body)?;
            }
            max_thread = max_thread.max(self.cycles);

            // Collect this thread's reduction partials.
            for (k, (op, s, is_real)) in lp.red_scalars.iter().enumerate() {
                let part = if *is_real {
                    self.reals[*s as usize]
                } else {
                    self.ints[*s as usize] as f64
                };
                red_scalar_acc[k] = combine(*op, red_scalar_acc[k], part);
            }
            for (k, (op, id)) in lp.red_arrays.iter().enumerate() {
                let arr = &self.arr_r[*id as usize];
                for (acc, v) in red_arr_acc[k].iter_mut().zip(arr) {
                    *acc = combine(*op, *acc, *v);
                }
                self.stats.reduction_elems += arr.len() as u64;
            }
            merge_serialized += (self.m.cost.red_merge_per_elem * red_footprint) as u128;
            self.cpu_cycles += self.cycles;
        }

        // Wall time: slowest thread plus the serialized merges, but never
        // below the shared-memory bandwidth floor of the region's total
        // traffic (direct streams are cheap, random gathers expensive).
        let direct = self.region_mem_ops - self.region_indirect_ops;
        let floor: u128 = ((direct * self.m.cost.seq_bw_tenths
            + self.region_indirect_ops * self.m.cost.rand_bw_tenths)
            / 10) as u128;
        self.cycles = outer_cycles + max_thread.max(floor) + merge_serialized;
        self.active_threads = prev_active;
        self.cur_tape = prev_tape;
        self.region_mem_ops = prev_region_mem;
        self.region_indirect_ops = prev_region_ind;

        // Apply reductions onto the saved originals.
        for (k, (op, s, is_real)) in lp.red_scalars.iter().enumerate() {
            let final_v = combine(*op, red_scalar_saved[k], red_scalar_acc[k]);
            if *is_real {
                self.reals[*s as usize] = final_v;
            } else {
                self.ints[*s as usize] = final_v as i64;
            }
        }
        for (k, (op, id)) in lp.red_arrays.iter().enumerate() {
            let arr = &mut self.arr_r[*id as usize];
            for (j, v) in arr.iter_mut().enumerate() {
                *v = combine(*op, red_arr_saved[k][j], red_arr_acc[k][j]);
            }
        }
        // Restore private scalars and the counter (pre-region values).
        for (k, s) in lp.private_r.iter().enumerate() {
            self.reals[*s as usize] = saved_r[k];
        }
        for (k, s) in lp.private_i.iter().enumerate() {
            self.ints[*s as usize] = saved_i[k];
        }
        self.ints[f.var as usize] = saved_counter;
        Ok(())
    }
}

fn identity(op: RedOp) -> f64 {
    match op {
        RedOp::Add => 0.0,
        RedOp::Mul => 1.0,
        RedOp::Min => f64::INFINITY,
        RedOp::Max => f64::NEG_INFINITY,
    }
}

fn combine(op: RedOp, a: f64, b: f64) -> f64 {
    match op {
        RedOp::Add => a + b,
        RedOp::Mul => a * b,
        RedOp::Min => a.min(b),
        RedOp::Max => a.max(b),
    }
}

fn compare(op: CmpOp, a: f64, b: f64) -> bool {
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
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
        assert!(res.wall_cycles > 0);
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
    fn parallel_wall_cycles_scale_down() {
        let mk = || {
            Bindings::new()
                .int("n", 1000)
                .real("a", 1.5)
                .real_array("x", vec![1.0; 1000])
                .real_array("y", vec![1.0; 1000])
        };
        let mut b1 = mk();
        let p = parse_program(SAXPY).unwrap();
        let r1 = run(&p, &mut b1, &Machine::with_threads(1)).unwrap();
        let mut b8 = mk();
        let r8 = run(&p, &mut b8, &Machine::with_threads(8)).unwrap();
        assert!(
            r8.wall_cycles * 4 < r1.wall_cycles,
            "8 threads should be ≥4× faster: {} vs {}",
            r8.wall_cycles,
            r1.wall_cycles
        );
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
        assert!(ra.wall_cycles > 2 * rp.wall_cycles);
        assert_eq!(ra.stats.atomic_ops, 100);
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
