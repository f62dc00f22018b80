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
//! comes from the AOT kernels.
//!
//! [`run`] does not walk the lowered tree. It first builds ([`build`])
//! one closure for each statement, expression and condition of the
//! [`LProgram`], specialised to its kind, with its slots, its array's
//! extents, strides and name, and its operator resolved, and then calls
//! the closure of the body. The closures own what they capture, so the
//! native engine ([`crate::exec`]) builds them once per program and runs
//! its host code — everything outside the parallel regions its kernel
//! compiled — on them, run after run. The built form keeps four rules:
//!
//! - **Evaluation order.** Each closure evaluates its parts in the
//!   order the lowered tree lists them: a store's subscripts before its
//!   right-hand side, each subscript's bounds check before the next
//!   subscript, a pop's target before the tape, a loop's `lo`, `hi` and
//!   `step` before its trip count, the left operand before the right.
//!   Of two errors a statement can raise, the first is the one every
//!   backend reports; `.and.` / `.or.` do not evaluate a right operand
//!   the left one decides.
//! - **Leaves in place.** A subscript `v`, `v + c`, `v - c`, `c + v` or
//!   `c` is a slot plus a constant, read without a call; on a
//!   one-dimensional array it is the whole offset, bounds-checked like
//!   any other. A real constant, scalar or element is read inside the
//!   closure that uses it: accesses and operations are built once per
//!   address shape (`by_shape!`) and operand kind (`by_kind!`). The
//!   fused increment `a(i…) = a(i…) + e` computes its offset once, as
//!   the kernels do.
//! - **Counters.** The events a statement causes whenever it runs (its
//!   reads, writes, flops, indirect accesses, tape and atomic operations,
//!   the region it enters) are summed when it is built, those of a fused
//!   increment as if unfused. A block adds its statements' sum once per
//!   execution, a loop adds its body's sum times its trip count, and the
//!   right operand of `.and.` / `.or.` adds its own when it is evaluated.
//!   A failed run returns no counters, so a run that succeeds counts
//!   exactly the events it executed.
//! - **Regions.** A region's closure evaluates its bounds and its
//!   schedule, then hands the region to the state's [`RegionRunner`]
//!   when it has one (the native engine's kernel dispatch) and runs it
//!   itself otherwise: private save and restore, identity-initialized
//!   reduction copies, the ascending merge and the per-thread tapes.

use std::sync::Arc;

use formad_ir::{BinOp, Program, RedOp, Ty};

use crate::bindings::{Bindings, ExecError};
use crate::lower::{
    bind_entry, combine, compare, fused_increment, identity, int_bin, int_call, lower, oob,
    real_bin, real_call, trip_count, write_back_scalars, ArrId, ArrMeta, LBool, LExpr, LFor,
    LProgram, LStmt, ScalarMeta, Schedule, Slot,
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

impl ExecStats {
    /// Count one memory access.
    fn access(&mut self, indirect: bool, write: bool) {
        if indirect {
            self.indirect_ops += 1;
        }
        if write {
            self.writes += 1;
        } else {
            self.reads += 1;
        }
    }

    /// Add `n` times the per-execution events `per` of a built block.
    /// Wrapping: a failed run discards its counters, and one that
    /// succeeds cannot execute 2⁶⁴ events.
    #[inline]
    fn add_times(&mut self, per: &ExecStats, n: u64) {
        fn add(to: &mut u64, per: u64, n: u64) {
            *to = to.wrapping_add(per.wrapping_mul(n));
        }
        add(&mut self.flops, per.flops, n);
        add(&mut self.reads, per.reads, n);
        add(&mut self.writes, per.writes, n);
        add(&mut self.atomic_ops, per.atomic_ops, n);
        add(&mut self.tape_pushes, per.tape_pushes, n);
        add(&mut self.tape_pops, per.tape_pops, n);
        add(&mut self.parallel_regions, per.parallel_regions, n);
        add(&mut self.indirect_ops, per.indirect_ops, n);
    }
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

/// Run `prog` against `bind` on `machine`. Parameter scalars are read
/// from the bindings and written back after a successful run; locals are
/// zero-initialized, and an array bound under the name of a local is
/// that local's initial value, copied and left as it was.
///
/// Parameter arrays are not copied: each bound vector moves into the run
/// and moves back under its name when the run ends, however it ends, so
/// the caller gets its own vectors back. The error contract is the
/// native engine's ([`crate::exec::NativeEngine::run_with`]): an unbound
/// parameter or a wrongly sized array is reported before anything has
/// been written, and after any `Err` every array is still in `bind` under
/// its name with its declared length (a reduced array holds the values
/// it had on entry to its region, any other whatever the run had written
/// so far) and no scalar in `bind` has changed.
pub fn run(
    prog: &Program,
    bind: &mut Bindings,
    machine: &Machine,
) -> Result<ExecResult, ExecError> {
    let lp = lower(prog, bind)?;
    let layout = Layout::of(&lp);
    let mut st = State::default();
    st.enter(&layout, machine.threads, bind)?;
    let ran = build(&lp).once(&mut st);
    st.leave(&layout, bind);
    ran.map_err(|e| *e)?;
    write_back_scalars(&lp.scalars, bind, &st.reals, &st.ints);
    Ok(ExecResult { stats: st.stats })
}

/// What a run binds: the scalar files' sizes, every scalar and every
/// array.
pub(crate) struct Layout<'a> {
    pub(crate) n_real: usize,
    pub(crate) n_int: usize,
    pub(crate) scalars: &'a [ScalarMeta],
    pub(crate) arrays: &'a [ArrMeta],
}

impl Layout<'_> {
    pub(crate) fn of(lp: &LProgram) -> Layout<'_> {
        Layout {
            n_real: lp.n_real_scalars,
            n_int: lp.n_int_scalars,
            scalars: &lp.scalars,
            arrays: &lp.arrays,
        }
    }
}

/// One logical thread's value tapes. A tape persists across regions,
/// which is what lets a reversed parallel loop pop values its forward
/// twin pushed; code outside the regions uses thread 0's.
#[derive(Default)]
pub(crate) struct Tapes {
    pub(crate) r: Vec<f64>,
    pub(crate) i: Vec<i64>,
}

/// Base pointers of a run's arrays, by [`ArrId`], as AOT regions take
/// them.
#[derive(Default)]
pub(crate) struct Bases(pub(crate) Vec<*mut u64>);

// SAFETY: the pointers address the arrays of the `State` that holds them
// and are rewritten before every region that reads them.
unsafe impl Send for Bases {}
unsafe impl Sync for Bases {}

/// Runs the parallel regions of a state whose host code the built
/// closures run: the native engine's kernel dispatch.
pub(crate) trait RegionRunner: Sync {
    /// Run `region`, whose bounds gave `sched` (at least one iteration),
    /// on the scalars and arrays of `st`.
    fn run_region(
        &self,
        region: &RegionPlan,
        sched: Schedule,
        st: &mut State<'_>,
    ) -> Result<(), ExecError>;
}

/// The mutable state of one run. Its buffers outlive the run: the
/// native engine keeps one state and re-enters it, so a warm run
/// allocates nothing.
#[derive(Default)]
pub(crate) struct State<'r> {
    pub(crate) reals: Vec<f64>,
    pub(crate) ints: Vec<i64>,
    /// Arrays by [`ArrId`], in the file of their type; the slot in the
    /// other file is unused.
    pub(crate) arr_r: Vec<Vec<f64>>,
    pub(crate) arr_i: Vec<Vec<i64>>,
    /// One per logical thread, at least.
    pub(crate) tapes: Vec<Tapes>,
    pub(crate) bases: Bases,
    cur_tape: usize,
    /// The logical threads regions are scheduled on.
    pub(crate) threads: usize,
    stats: ExecStats,
    /// Where regions run; the interpreter's own region path when `None`.
    pub(crate) native: Option<&'r dyn RegionRunner>,
}

impl State<'_> {
    /// Enter a run of `layout` on `threads` logical threads. Every
    /// scalar slot takes its bound value or zero; a parameter array's
    /// vector is swapped out of `bind` with the buffer this state held
    /// in its slot, until [`State::leave`]; a local fills its slot's
    /// buffer with a copy of its bound initial value, or zeros.
    pub(crate) fn enter(
        &mut self,
        layout: &Layout<'_>,
        threads: usize,
        bind: &mut Bindings,
    ) -> Result<(), ExecError> {
        self.reals.clear();
        self.reals.resize(layout.n_real, 0.0);
        self.ints.clear();
        self.ints.resize(layout.n_int, 0);
        bind_entry(
            layout.scalars,
            layout.arrays,
            bind,
            &mut self.reals,
            &mut self.ints,
        )?;
        fn entry<T: Copy + Default>(slot: &mut Vec<T>, bound: Option<&mut Vec<T>>, meta: &ArrMeta) {
            match bound {
                Some(v) if meta.param => std::mem::swap(slot, v),
                Some(v) => {
                    slot.clear();
                    slot.extend_from_slice(v);
                }
                None => {
                    slot.clear();
                    slot.resize(meta.len, T::default());
                }
            }
        }
        let n = layout.arrays.len();
        if self.arr_r.len() < n {
            self.arr_r.resize_with(n, Vec::new);
            self.arr_i.resize_with(n, Vec::new);
        }
        for (id, meta) in layout.arrays.iter().enumerate() {
            match meta.ty {
                Ty::Real => entry(
                    &mut self.arr_r[id],
                    bind.real_arrays.get_mut(&meta.name),
                    meta,
                ),
                Ty::Int => entry(
                    &mut self.arr_i[id],
                    bind.int_arrays.get_mut(&meta.name),
                    meta,
                ),
            }
        }
        let threads = threads.max(1);
        if self.tapes.len() < threads {
            self.tapes.resize_with(threads, Tapes::default);
        }
        for t in &mut self.tapes {
            t.r.clear();
            t.i.clear();
        }
        self.cur_tape = 0;
        self.threads = threads;
        self.stats = ExecStats::default();
        Ok(())
    }

    /// Swap every parameter array back under its name in `bind`.
    pub(crate) fn leave(&mut self, layout: &Layout<'_>, bind: &mut Bindings) {
        const BOUND: &str = "parameter arrays were found bound at entry";
        for (id, meta) in layout.arrays.iter().enumerate().filter(|(_, m)| m.param) {
            match meta.ty {
                Ty::Real => {
                    let slot = bind.real_arrays.get_mut(&meta.name).expect(BOUND);
                    std::mem::swap(slot, &mut self.arr_r[id]);
                }
                Ty::Int => {
                    let slot = bind.int_arrays.get_mut(&meta.name).expect(BOUND);
                    std::mem::swap(slot, &mut self.arr_i[id]);
                }
            }
        }
    }

    /// The same buffers, with no region runner.
    pub(crate) fn park(self) -> State<'static> {
        State {
            reals: self.reals,
            ints: self.ints,
            arr_r: self.arr_r,
            arr_i: self.arr_i,
            tapes: self.tapes,
            bases: self.bases,
            cur_tape: 0,
            threads: self.threads,
            stats: ExecStats::default(),
            native: None,
        }
    }

    /// Pop the current thread's real tape.
    fn pop_r(&mut self) -> Result<f64, Fault> {
        self.tapes[self.cur_tape]
            .r
            .pop()
            .ok_or_else(|| ExecError::new("pop from empty real tape").into())
    }

    /// Pop the current thread's integer tape.
    fn pop_i(&mut self) -> Result<i64, Fault> {
        self.tapes[self.cur_tape]
            .i
            .pop()
            .ok_or_else(|| ExecError::new("pop from empty int tape").into())
    }
}

/// The error of a built closure, boxed so that a closure's result fits
/// in two registers.
pub(crate) type Fault = Box<ExecError>;

/// A built statement, expression or condition.
type Eval<T> = Box<dyn Fn(&mut State<'_>) -> Result<T, Fault> + Send + Sync>;

/// A built statement list and the events its statements cause whenever
/// they run; the events of nested blocks are theirs.
pub(crate) struct Block {
    stmts: Vec<Eval<()>>,
    events: ExecStats,
}

impl Block {
    /// Run the statements once, counting their events.
    pub(crate) fn once(&self, st: &mut State<'_>) -> Result<(), Fault> {
        st.stats.add_times(&self.events, 1);
        self.exec(st)
    }

    /// Run the statements; the caller counts their events.
    fn exec(&self, st: &mut State<'_>) -> Result<(), Fault> {
        self.stmts.iter().try_for_each(|s| s(st))
    }
}

/// A built integer operand: a slot plus a constant (`v`, `v + c`,
/// `v - c`, `c + v`), a constant, or a closure.
enum Int {
    Var(usize, i64),
    Const(i64),
    Expr(Eval<i64>),
}

impl Int {
    #[inline]
    fn at(&self, st: &mut State<'_>) -> Result<i64, Fault> {
        match self {
            // `+` on integers wraps, and so does the fused form.
            Int::Var(s, c) => Ok(st.ints[*s].wrapping_add(*c)),
            Int::Const(c) => Ok(*c),
            Int::Expr(f) => f(st),
        }
    }
}

/// How a built element address computes its offset: each subscript is
/// checked against its extent before the next is evaluated.
trait Address {
    fn id(&self) -> usize;
    fn offset(&self, st: &mut State<'_>) -> Result<usize, Fault>;
}

/// An element of an `N`-dimensional array whose every subscript is a
/// slot plus a constant, with its extent and stride: `a(v + c)` is one
/// slot read, a wrapping add and the bounds check.
struct VarPlace<const N: usize> {
    id: usize,
    vars: [(usize, i64, i64, i64); N],
    name: Arc<str>,
}

impl<const N: usize> Address for VarPlace<N> {
    fn id(&self) -> usize {
        self.id
    }

    #[inline]
    fn offset(&self, st: &mut State<'_>) -> Result<usize, Fault> {
        let mut off = 0;
        for (k, &(slot, c, d, stride)) in self.vars.iter().enumerate() {
            let v = st.ints[slot].wrapping_add(c);
            if v < 1 || v > d {
                return Err(oob(v, d, k + 1, &self.name).into());
            }
            off += (v - 1) * stride;
        }
        Ok(off as usize)
    }
}

/// Any other element address: each subscript with its dimension's
/// extent and stride.
struct SubsPlace {
    id: usize,
    subs: Vec<(Int, i64, i64)>,
    name: Arc<str>,
}

impl Address for SubsPlace {
    fn id(&self) -> usize {
        self.id
    }

    #[inline]
    fn offset(&self, st: &mut State<'_>) -> Result<usize, Fault> {
        let check = |v: i64, d: i64, k: usize| match v < 1 || v > d {
            true => Err(Fault::from(oob(v, d, k, &self.name))),
            false => Ok(v - 1),
        };
        if let [(i, d, _), (j, e, stride)] = &self.subs[..] {
            let v = check(i.at(st)?, *d, 1)?;
            return Ok((v + check(j.at(st)?, *e, 2)? * stride) as usize);
        }
        let mut off = 0;
        for (k, (i, d, stride)) in self.subs.iter().enumerate() {
            off += check(i.at(st)?, *d, k + 1)? * stride;
        }
        Ok(off as usize)
    }
}

/// A built element address, by shape.
enum Place {
    Var(VarPlace<1>),
    Var2(VarPlace<2>),
    Subs(SubsPlace),
}

/// `$body`, a closure over the [`Address`] `$p`, built once for each
/// shape of `$place`, so that an access branches on no shape.
macro_rules! by_shape {
    ($place:expr, |$p:ident| $body:expr) => {
        match $place {
            Place::Var($p) => $body,
            Place::Var2($p) => $body,
            Place::Subs($p) => $body,
        }
    };
}

/// A real operand that the closure using it reads in place.
trait Real {
    fn get(&self, st: &mut State<'_>) -> Result<f64, Fault>;
}

impl Real for f64 {
    fn get(&self, _: &mut State<'_>) -> Result<f64, Fault> {
        Ok(*self)
    }
}

/// A real scalar.
struct Scalar(usize);

impl Real for Scalar {
    fn get(&self, st: &mut State<'_>) -> Result<f64, Fault> {
        Ok(st.reals[self.0])
    }
}

/// An element of a real array.
struct Elem<P>(P);

impl<P: Address> Real for Elem<P> {
    fn get(&self, st: &mut State<'_>) -> Result<f64, Fault> {
        let o = self.0.offset(st)?;
        Ok(st.arr_r[self.0.id()][o])
    }
}

impl Real for Eval<f64> {
    fn get(&self, st: &mut State<'_>) -> Result<f64, Fault> {
        self(st)
    }
}

/// A built real operand, by kind: a leaf, read in place, or a closure.
enum Operand {
    Const(f64),
    Scalar(usize),
    Elem(Place),
    Expr(Eval<f64>),
}

/// `$body`, a closure over the [`Real`] `$o`, built once for each kind
/// of `$operand`, so that reading a leaf costs no call.
macro_rules! by_kind {
    ($operand:expr, |$o:ident| $body:expr) => {
        match $operand {
            Operand::Const(v) => {
                let $o = v;
                $body
            }
            Operand::Scalar(s) => {
                let $o = Scalar(s);
                $body
            }
            Operand::Elem(p) => by_shape!(p, |p| {
                let $o = Elem(p);
                $body
            }),
            Operand::Expr(f) => {
                let $o = f;
                $body
            }
        }
    };
}

/// The closure of `f(x, y)` over two built real operands, `x` first.
fn pair<T: 'static>(
    x: Operand,
    y: Operand,
    f: impl Fn(f64, f64) -> Result<T, Fault> + Copy + Send + Sync + 'static,
) -> Eval<T> {
    by_kind!(x, |x| by_kind!(y, |y| Box::new(move |st| {
        let a = x.get(st)?;
        f(a, y.get(st)?)
    })))
}

/// A built loop: its counter, bounds and body.
struct Loop {
    var: usize,
    lo: Int,
    hi: Int,
    step: Int,
    body: Block,
}

impl Loop {
    /// `lo`, `hi` and `step`, in that order.
    fn bounds(&self, st: &mut State<'_>) -> Result<(i64, i64, i64), Fault> {
        Ok((self.lo.at(st)?, self.hi.at(st)?, self.step.at(st)?))
    }

    fn run_sequential(&self, st: &mut State<'_>) -> Result<(), Fault> {
        let (lo, hi, step) = self.bounds(st)?;
        let n = trip_count(lo, hi, step)?;
        st.stats.add_times(&self.body.events, n as u64);
        let mut v = lo;
        for _ in 0..n {
            st.ints[self.var] = v;
            self.body.exec(st)?;
            v = v.wrapping_add(step);
        }
        Ok(())
    }
}

/// What a built region keeps of its [`crate::lower::LRegion`]: its
/// number and its data-sharing clauses.
pub(crate) struct RegionPlan {
    /// The region's [`crate::lower::RegionId`].
    pub(crate) k: usize,
    private_r: Vec<Slot>,
    private_i: Vec<Slot>,
    /// Scalar reductions `(op, slot, is_real)`.
    pub(crate) red_scalars: Vec<(RedOp, Slot, bool)>,
    /// Array reductions (real arrays only).
    pub(crate) red_arrays: Vec<(RedOp, ArrId)>,
}

/// Build the closures of `lp`'s body.
pub(crate) fn build(lp: &LProgram) -> Block {
    let names = lp
        .arrays
        .iter()
        .map(|m| Arc::from(m.name.as_str()))
        .collect();
    Builder { lp, names }.block(&lp.body)
}

/// Builds the closures of one lowered program. Every builder adds the
/// events of what it builds to `ev`.
struct Builder<'a> {
    lp: &'a LProgram,
    /// Array names by [`ArrId`], shared by the places that report them.
    names: Vec<Arc<str>>,
}

impl Builder<'_> {
    fn block(&self, body: &[LStmt]) -> Block {
        let mut events = ExecStats::default();
        let stmts = body.iter().map(|s| self.stmt(s, &mut events)).collect();
        Block { stmts, events }
    }

    fn place(&self, id: ArrId, idx: &[LExpr], ev: &mut ExecStats) -> Place {
        let meta = &self.lp.arrays[id as usize];
        let (id, name) = (id as usize, Arc::clone(&self.names[id as usize]));
        let subs: Vec<_> = (idx.iter().enumerate())
            .map(|(k, e)| (self.int(e, ev), meta.dims[k], meta.strides[k]))
            .collect();
        let vars: Vec<_> = (subs.iter())
            .map_while(|&(ref i, d, stride)| match *i {
                Int::Var(slot, c) => Some((slot, c, d, stride)),
                _ => None,
            })
            .collect();
        match (vars.len() == subs.len(), &vars[..]) {
            (true, &[a]) => Place::Var(VarPlace {
                id,
                vars: [a],
                name,
            }),
            (true, &[a, b]) => Place::Var2(VarPlace {
                id,
                vars: [a, b],
                name,
            }),
            _ => Place::Subs(SubsPlace { id, subs, name }),
        }
    }

    fn int(&self, e: &LExpr, ev: &mut ExecStats) -> Int {
        let f: Eval<i64> = match e {
            LExpr::ConstI(c) => return Int::Const(*c),
            LExpr::ScalarI(s) => return Int::Var(*s as usize, 0),
            LExpr::Bin(op, a, b) => match (op, &**a, &**b) {
                (BinOp::Add, LExpr::ScalarI(s), LExpr::ConstI(c))
                | (BinOp::Add, LExpr::ConstI(c), LExpr::ScalarI(s)) => {
                    return Int::Var(*s as usize, *c)
                }
                (BinOp::Sub, LExpr::ScalarI(s), LExpr::ConstI(c)) => {
                    return Int::Var(*s as usize, c.wrapping_neg())
                }
                (op, a, b) => {
                    let (op, a, b) = (*op, self.int(a, ev), self.int(b, ev));
                    Box::new(move |st| Ok(int_bin(op, a.at(st)?, b.at(st)?)?))
                }
            },
            LExpr::Call(f, args) => {
                let (f, x) = (*f, self.int(&args[0], ev));
                let y = args.get(1).map_or(Int::Const(0), |y| self.int(y, ev));
                Box::new(move |st| Ok(int_call(f, x.at(st)?, y.at(st)?)?))
            }
            LExpr::Elem(id, idx, indirect) => {
                let p = self.place(*id, idx, ev);
                ev.access(*indirect, false);
                by_shape!(p, |p| Box::new(move |st| {
                    let o = p.offset(st)?;
                    Ok(st.arr_i[p.id][o])
                }))
            }
            LExpr::Neg(a) => {
                let a = self.int(a, ev);
                Box::new(move |st| Ok(a.at(st)?.wrapping_neg()))
            }
            LExpr::ConstR(_) => {
                Box::new(|_| Err(ExecError::new("real literal in integer context").into()))
            }
            LExpr::ScalarR(_) | LExpr::Coerce(_) => {
                Box::new(|_| Err(ExecError::new("real value in integer context").into()))
            }
        };
        Int::Expr(f)
    }

    fn real(&self, e: &LExpr, ev: &mut ExecStats) -> Operand {
        let f: Eval<f64> = match e {
            LExpr::ConstR(v) => return Operand::Const(*v),
            LExpr::ConstI(v) => return Operand::Const(*v as f64),
            LExpr::ScalarR(s) => return Operand::Scalar(*s as usize),
            LExpr::Elem(id, idx, indirect) => {
                let p = self.place(*id, idx, ev);
                ev.access(*indirect, false);
                return Operand::Elem(p);
            }
            LExpr::ScalarI(_) | LExpr::Coerce(_) => {
                let i = match e {
                    LExpr::Coerce(inner) => self.int(inner, ev),
                    _ => self.int(e, ev),
                };
                Box::new(move |st| Ok(i.at(st)? as f64))
            }
            LExpr::Neg(a) => by_kind!(self.real(a, ev), |a| Box::new(move |st| Ok(-a.get(st)?))),
            LExpr::Bin(op, a, b) => {
                let (a, b) = (self.real(a, ev), self.real(b, ev));
                ev.flops += 1;
                match *op {
                    BinOp::Add => pair(a, b, |x, y| Ok(x + y)),
                    BinOp::Sub => pair(a, b, |x, y| Ok(x - y)),
                    BinOp::Mul => pair(a, b, |x, y| Ok(x * y)),
                    BinOp::Div => pair(a, b, |x, y| Ok(x / y)),
                    op => pair(a, b, move |x, y| Ok(real_bin(op, x, y)?)),
                }
            }
            LExpr::Call(f, args) => {
                let (f, x) = (*f, self.real(&args[0], ev));
                let y = args
                    .get(1)
                    .map_or(Operand::Const(0.0), |y| self.real(y, ev));
                pair(x, y, move |x, y| Ok(real_call(f, x, y)))
            }
        };
        Operand::Expr(f)
    }

    fn cond(&self, b: &LBool, ev: &mut ExecStats) -> Eval<bool> {
        match b {
            LBool::Cmp(op, Ty::Int, l, r) => {
                let (op, l, r) = (*op, self.int(l, ev), self.int(r, ev));
                Box::new(move |st| Ok(compare(op, l.at(st)?, r.at(st)?)))
            }
            LBool::Cmp(op, Ty::Real, l, r) => {
                let op = *op;
                pair(self.real(l, ev), self.real(r, ev), move |x, y| {
                    Ok(compare(op, x, y))
                })
            }
            // The right operand runs, and counts its events, only when
            // the left one does not decide.
            LBool::And(l, r) | LBool::Or(l, r) => {
                let (decides, l) = (matches!(b, LBool::Or(..)), self.cond(l, ev));
                let mut r_ev = ExecStats::default();
                let r = self.cond(r, &mut r_ev);
                Box::new(move |st| {
                    if l(st)? == decides {
                        return Ok(decides);
                    }
                    st.stats.add_times(&r_ev, 1);
                    r(st)
                })
            }
            LBool::Not(a) => {
                let a = self.cond(a, ev);
                Box::new(move |st| Ok(!a(st)?))
            }
        }
    }

    fn stmt(&self, s: &LStmt, ev: &mut ExecStats) -> Eval<()> {
        match s {
            LStmt::AssignR(slot, rhs) => {
                let s = *slot as usize;
                by_kind!(self.real(rhs, ev), |r| Box::new(move |st| {
                    st.reals[s] = r.get(st)?;
                    Ok(())
                }))
            }
            LStmt::AssignI(slot, rhs) => {
                let (s, rhs) = (*slot as usize, self.int(rhs, ev));
                Box::new(move |st| {
                    st.ints[s] = rhs.at(st)?;
                    Ok(())
                })
            }
            LStmt::AssignElem(id, idx, rhs, indirect) => {
                let p = self.place(*id, idx, ev);
                ev.access(*indirect, true);
                if self.lp.arrays[*id as usize].ty == Ty::Int {
                    let rhs = self.int(rhs, ev);
                    return by_shape!(p, |p| Box::new(move |st| {
                        let o = p.offset(st)?;
                        st.arr_i[p.id][o] = rhs.at(st)?;
                        Ok(())
                    }));
                }
                // Counts the unfused load and add of a fused increment too.
                let unfused = self.real(rhs, ev);
                let Some(inc) = fused_increment(*id, idx, rhs) else {
                    return by_shape!(p, |p| by_kind!(unfused, |r| Box::new(move |st| {
                        let o = p.offset(st)?;
                        st.arr_r[p.id][o] = r.get(st)?;
                        Ok(())
                    })));
                };
                // The load's subscripts equal the store's and are pure, so
                // its offset is the store's; it loads before `inc` runs.
                let inc = self.real(inc, &mut ExecStats::default());
                by_shape!(p, |p| by_kind!(inc, |r| Box::new(move |st| {
                    let o = p.offset(st)?;
                    let cur = st.arr_r[p.id][o];
                    st.arr_r[p.id][o] = cur + r.get(st)?;
                    Ok(())
                })))
            }
            LStmt::AtomicAddElem(id, idx, rhs) => {
                let (p, rhs) = (self.place(*id, idx, ev), self.real(rhs, ev));
                ev.atomic_ops += 1;
                by_shape!(p, |p| by_kind!(rhs, |r| Box::new(move |st| {
                    let o = p.offset(st)?;
                    st.arr_r[p.id][o] += r.get(st)?;
                    Ok(())
                })))
            }
            LStmt::If(c, then_b, else_b) => {
                let c = self.cond(c, ev);
                let (then_b, else_b) = (self.block(then_b), self.block(else_b));
                Box::new(move |st| match c(st)? {
                    true => then_b.once(st),
                    false => else_b.once(st),
                })
            }
            LStmt::Push(e, Ty::Real) => {
                ev.tape_pushes += 1;
                by_kind!(self.real(e, ev), |r| Box::new(move |st| {
                    let v = r.get(st)?;
                    st.tapes[st.cur_tape].r.push(v);
                    Ok(())
                }))
            }
            LStmt::Push(e, Ty::Int) => {
                ev.tape_pushes += 1;
                let e = self.int(e, ev);
                Box::new(move |st| {
                    let v = e.at(st)?;
                    st.tapes[st.cur_tape].i.push(v);
                    Ok(())
                })
            }
            LStmt::PopR(slot) => {
                ev.tape_pops += 1;
                let s = *slot as usize;
                Box::new(move |st| {
                    st.reals[s] = st.pop_r()?;
                    Ok(())
                })
            }
            LStmt::PopI(slot) => {
                ev.tape_pops += 1;
                let s = *slot as usize;
                Box::new(move |st| {
                    st.ints[s] = st.pop_i()?;
                    Ok(())
                })
            }
            LStmt::PopElem(id, idx, indirect) => {
                ev.access(*indirect, true);
                ev.tape_pops += 1;
                let p = self.place(*id, idx, ev);
                match self.lp.arrays[*id as usize].ty {
                    Ty::Real => by_shape!(p, |p| Box::new(move |st| {
                        let o = p.offset(st)?;
                        st.arr_r[p.id][o] = st.pop_r()?;
                        Ok(())
                    })),
                    Ty::Int => by_shape!(p, |p| Box::new(move |st| {
                        let o = p.offset(st)?;
                        st.arr_i[p.id][o] = st.pop_i()?;
                        Ok(())
                    })),
                }
            }
            LStmt::For(f) => {
                let l = self.for_loop(f, ev);
                Box::new(move |st| l.run_sequential(st))
            }
            // Parallel loops always take the region path, at one thread
            // too, so regions and reductions are counted alike.
            LStmt::Parallel(k) => {
                let region = &self.lp.regions[*k as usize];
                ev.parallel_regions += 1;
                let l = self.for_loop(&region.for_loop, ev);
                let plan = RegionPlan {
                    k: *k as usize,
                    private_r: region.private_r.clone(),
                    private_i: region.private_i.clone(),
                    red_scalars: region.red_scalars.clone(),
                    red_arrays: region.red_arrays.clone(),
                };
                Box::new(move |st| {
                    let (lo, hi, step) = l.bounds(st)?;
                    let sched = Schedule::new(lo, hi, step, st.threads)?;
                    if sched.count == 0 {
                        return Ok(());
                    }
                    match st.native {
                        Some(native) => Ok(native.run_region(&plan, sched, st)?),
                        None => run_region(st, &plan, &l, sched),
                    }
                })
            }
        }
    }

    /// A loop; the events of its bounds are the enclosing statement's.
    fn for_loop(&self, f: &LFor, ev: &mut ExecStats) -> Loop {
        let (lo, hi) = (self.int(&f.lo, ev), self.int(&f.hi, ev));
        Loop {
            var: f.var as usize,
            lo,
            hi,
            step: self.int(&f.step, ev),
            body: self.block(&f.body),
        }
    }
}

/// Run one parallel region on the state's logical threads, one after
/// the other; `l` is its loop, whose bounds gave `sched`.
fn run_region(
    st: &mut State<'_>,
    region: &RegionPlan,
    l: &Loop,
    sched: Schedule,
) -> Result<(), Fault> {
    let t_n = st.threads;
    st.stats.add_times(&l.body.events, sched.count as u64);

    // Private scalars and the counter get their entry values back after
    // the region. Each thread starts from the entry values too (OpenMP
    // privates are formally uninitialized; entry values are a
    // deterministic stand-in, and generated adjoints initialize
    // explicitly).
    let saved_r: Vec<f64> = region
        .private_r
        .iter()
        .map(|&s| st.reals[s as usize])
        .collect();
    let saved_i: Vec<i64> = region
        .private_i
        .iter()
        .map(|&s| st.ints[s as usize])
        .collect();
    let saved_counter = st.ints[l.var];
    let restore = |st: &mut State<'_>| {
        for (&s, &v) in region.private_r.iter().zip(&saved_r) {
            st.reals[s as usize] = v;
        }
        for (&s, &v) in region.private_i.iter().zip(&saved_i) {
            st.ints[s as usize] = v;
        }
    };
    // Reduced scalars live as reals here, whatever their type.
    let get = |st: &State<'_>, s: Slot, real: bool| match real {
        true => st.reals[s as usize],
        false => st.ints[s as usize] as f64,
    };
    let set = |st: &mut State<'_>, s: Slot, real: bool, v: f64| match real {
        true => st.reals[s as usize] = v,
        false => st.ints[s as usize] = v as i64,
    };
    let red_scalar_saved: Vec<f64> = (region.red_scalars.iter())
        .map(|&(_, s, real)| get(st, s, real))
        .collect();
    let mut red_scalar_acc: Vec<f64> = (region.red_scalars.iter())
        .map(|&(op, ..)| identity(op))
        .collect();
    // A reduced array's shared values wait here while each thread works
    // on a fresh identity-initialized copy; the first thread's partials,
    // combined onto the identity in place, become the accumulator, and
    // the merge writes back into the waiting vector. A failed region
    // puts the waiting vectors back unmerged.
    let red_arr_saved: Vec<Vec<f64>> = (region.red_arrays.iter())
        .map(|&(_, id)| std::mem::take(&mut st.arr_r[id as usize]))
        .collect();
    let mut red_arr_acc: Vec<Option<Vec<f64>>> = vec![None; region.red_arrays.len()];
    let red_footprint: u64 = red_arr_saved.iter().map(|a| a.len() as u64).sum();
    st.stats.peak_reduction_bytes =
        (st.stats.peak_reduction_bytes).max(red_footprint * 8 * t_n as u64);

    let prev_tape = st.cur_tape;
    for t in 0..t_n {
        let ranks = sched.ranks(t);
        if ranks.is_empty() {
            continue;
        }
        restore(st);
        for &(op, s, real) in &region.red_scalars {
            set(st, s, real, identity(op));
        }
        for (&(op, id), saved) in region.red_arrays.iter().zip(&red_arr_saved) {
            st.arr_r[id as usize] = vec![identity(op); saved.len()];
        }
        st.cur_tape = t;
        for v in sched.values(ranks) {
            st.ints[l.var] = v;
            if let Err(e) = l.body.exec(st) {
                for (saved, &(_, id)) in red_arr_saved.into_iter().zip(&region.red_arrays) {
                    st.arr_r[id as usize] = saved;
                }
                st.cur_tape = prev_tape;
                return Err(e);
            }
        }
        // Collect this thread's reduction partials.
        for (k, &(op, s, real)) in region.red_scalars.iter().enumerate() {
            red_scalar_acc[k] = combine(op, red_scalar_acc[k], get(st, s, real));
        }
        for (acc, &(op, id)) in red_arr_acc.iter_mut().zip(&region.red_arrays) {
            let mut part = std::mem::take(&mut st.arr_r[id as usize]);
            st.stats.reduction_elems += part.len() as u64;
            *acc = Some(match acc.take() {
                Some(mut acc) => {
                    acc.iter_mut()
                        .zip(&part)
                        .for_each(|(a, v)| *a = combine(op, *a, *v));
                    acc
                }
                None => {
                    part.iter_mut()
                        .for_each(|v| *v = combine(op, identity(op), *v));
                    part
                }
            });
        }
    }
    st.cur_tape = prev_tape;

    // Apply reductions onto the saved originals.
    for (k, &(op, s, real)) in region.red_scalars.iter().enumerate() {
        set(
            st,
            s,
            real,
            combine(op, red_scalar_saved[k], red_scalar_acc[k]),
        );
    }
    for ((acc, mut saved), &(op, id)) in red_arr_acc
        .into_iter()
        .zip(red_arr_saved)
        .zip(&region.red_arrays)
    {
        // `count > 0`, so some thread ran and left its partials.
        let acc = acc.expect("a thread ran the region");
        saved
            .iter_mut()
            .zip(&acc)
            .for_each(|(v, a)| *v = combine(op, *v, *a));
        st.arr_r[id as usize] = saved;
    }
    restore(st);
    st.ints[l.var] = saved_counter;
    Ok(())
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
