//! The native engine: host code on the reference interpreter's closures,
//! parallel regions on AOT kernels over real OS threads.
//!
//! [`compile`] builds a lowered program's closure form once
//! ([`crate::interp`]) into a [`BcProgram`], the prebuilt host program.
//! [`NativeEngine`] runs it: sequential statements and every region's
//! prologue (its bounds and schedule) execute on the closures, over the
//! arrays moved in from the caller's [`Bindings`] as [`crate::interp::run`]
//! moves them, and each `!$omp parallel do` region the AOT kernel compiled
//! is dispatched to a persistent [`formad_runtime::ThreadPool`] with the
//! **same static schedule** the interpreter uses (`lower::Schedule`), so
//! thread `t` executes — and tapes — exactly the iterations logical
//! thread `t` of the interpreter does. Without a kernel (no `rustc`, no
//! `ld`, or a program codegen refuses) a region runs on the interpreter's
//! own region path, on the calling thread: "no kernel" means the
//! interpreter's semantics, not a third one.
//!
//! Results are bitwise equal to the interpreter's on any number of OS
//! workers for every program with no shared `!$omp atomic` increment;
//! colliding atomic increments commit in hardware order, so such a
//! program is bitwise equal on one OS worker (logical threads then run in
//! rank order) and equal up to floating-point reassociation on several —
//! the determinism contract of [`crate::differential`]. Logical threads
//! are multiplexed onto at most the host's physically available cores
//! (see [`NativeEngine::new`]).
//!
//! Memory model: the kernel accesses array elements plainly or through
//! relaxed atomic cells, as each region's access fact says, and
//! `!$omp atomic` increments are an acquire-release CAS loop on the
//! element's bits (`aot::codegen`). `reduction(+: arr)` clauses privatize
//! into per-thread buffers that hold the identity between regions and are
//! merged in ascending thread order, replicating the interpreter's combine
//! order bit for bit.
//!
//! A run touches no memory that is not the program's own traffic.
//! Parameter arrays are used where they sit in the caller's bindings —
//! swapped into the engine's state for the run and back out when it ends,
//! however it ends — so nothing is copied in or out and an array can never
//! be missing afterwards. Everything else a run needs — the scalar files,
//! local arrays, tapes, per-thread scalar copies, reduction buffers —
//! lives in buffers the engine keeps across regions and runs, so a warm
//! run on a kernel (same engine, a program it has run before) makes no
//! heap allocation at all, whatever the array lengths;
//! `tests/exec_alloc_ceiling.rs` holds that.

use std::cell::UnsafeCell;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use formad_ir::{BinOp, Program, RedOp, Ty};
use formad_runtime::ThreadPool;

use crate::aot::{load_or_compile, AotKernel, RegionFn};
use crate::bindings::{Bindings, ExecError};
use crate::interp::{build, Bases, Block, Layout, RegionPlan, RegionRunner, State, Tapes};
use crate::lower::{
    combine, identity, int_bin, lower, oob, real_max, real_min, trip_count, write_back_scalars,
    ArrMeta, LProgram, LRegion, LStmt, ScalarMeta, Schedule, Slot,
};

/// The prebuilt host program of one lowered program: the closure form
/// of its body ([`crate::interp`]) and what a run binds. Any
/// [`NativeEngine`] runs it, with or without the AOT kernel of the same
/// lowered program. (The name is the one the bytecode engine's compiled
/// form had; the benchmark still compiles against it.)
pub struct BcProgram {
    pub name: String,
    body: Block,
    n_real: usize,
    n_int: usize,
    pub arrays: Vec<ArrMeta>,
    /// Every scalar, for binding transfer ([`LProgram::scalars`]).
    pub scalars: Vec<ScalarMeta>,
    regions: usize,
    commit_order_dependent: bool,
}

impl fmt::Debug for BcProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BcProgram")
            .field("name", &self.name)
            .field("regions", &self.regions)
            .finish_non_exhaustive()
    }
}

impl BcProgram {
    /// Number of parallel regions, the entry points its kernel has.
    pub fn region_count(&self) -> usize {
        self.regions
    }

    /// Does the result depend on the order in which concurrent threads
    /// commit? True iff some parallel region holds an atomic increment of
    /// an array it does not reduce: one of a `reduction` array lands on
    /// the thread's private copy, so every one left is shared.
    pub fn commit_order_dependent(&self) -> bool {
        self.commit_order_dependent
    }

    fn layout(&self) -> Layout<'_> {
        Layout {
            n_real: self.n_real,
            n_int: self.n_int,
            scalars: &self.scalars,
            arrays: &self.arrays,
        }
    }
}

/// Build the host program of a lowered program; `_prog`, the program it
/// was lowered from, is not read.
///
/// One restriction the interpreter does not enforce: a scalar written
/// inside a parallel body must be `private`, a `reduction`, or the loop
/// counter. The interpreter runs its threads one after the other, so a
/// shared-scalar write there is deterministic but meaningless; on real
/// threads it would be a data race, so it is refused here. Generated
/// adjoints always privatize correctly.
pub fn compile(lp: &LProgram, _prog: &Program) -> Result<BcProgram, ExecError> {
    check_region_writes(lp, &lp.body, None)?;
    Ok(BcProgram {
        name: lp.name.clone(),
        body: build(lp),
        n_real: lp.n_real_scalars,
        n_int: lp.n_int_scalars,
        arrays: lp.arrays.clone(),
        scalars: lp.scalars.clone(),
        regions: lp.regions.len(),
        commit_order_dependent: lp
            .regions
            .iter()
            .any(|r| shared_atomic(r, &r.for_loop.body)),
    })
}

/// Refuse a write, in `body`, of a scalar `region` does not privatize.
fn check_region_writes(
    lp: &LProgram,
    body: &[LStmt],
    region: Option<&LRegion>,
) -> Result<(), ExecError> {
    let check = |slot: Slot, is_real: bool| match region {
        Some(r) if !r.may_write(slot, is_real) => {
            let want = if is_real { Ty::Real } else { Ty::Int };
            let name = (lp.scalars.iter())
                .find(|s| s.slot == slot && s.ty == want)
                .map_or_else(|| format!("slot{slot}"), |s| s.name.clone());
            Err(ExecError::new(format!(
                "scalar `{name}` written inside a parallel region must be \
                 private, a reduction, or the loop counter"
            )))
        }
        _ => Ok(()),
    };
    for s in body {
        match s {
            LStmt::AssignR(slot, _) | LStmt::PopR(slot) => check(*slot, true)?,
            LStmt::AssignI(slot, _) | LStmt::PopI(slot) => check(*slot, false)?,
            LStmt::If(_, then_b, else_b) => {
                check_region_writes(lp, then_b, region)?;
                check_region_writes(lp, else_b, region)?;
            }
            LStmt::For(f) => {
                check(f.var, false)?;
                check_region_writes(lp, &f.body, region)?;
            }
            LStmt::Parallel(k) => {
                let inner = &lp.regions[*k as usize];
                check_region_writes(lp, &inner.for_loop.body, Some(inner))?;
            }
            LStmt::AssignElem(..)
            | LStmt::AtomicAddElem(..)
            | LStmt::Push(..)
            | LStmt::PopElem(..) => {}
        }
    }
    Ok(())
}

/// Does `body`, part of `region`, atomically increment an array the
/// region does not reduce? A nested region answers for itself.
fn shared_atomic(region: &LRegion, body: &[LStmt]) -> bool {
    body.iter().any(|s| match s {
        LStmt::AtomicAddElem(id, ..) => region.red_slot(*id).is_none(),
        LStmt::If(_, then_b, else_b) => {
            shared_atomic(region, then_b) || shared_atomic(region, else_b)
        }
        LStmt::For(f) => shared_atomic(region, &f.body),
        _ => false,
    })
}

/// A program lowered, its host program built and — when its kernel
/// could be built — the compiled entry points of its parallel regions.
/// Any engine runs it with [`NativeEngine::run_program`]; the one-shot
/// [`crate::aot::run_aot`] and the CLI's and the service's engines all go
/// through here.
pub struct NativeProgram {
    bc: BcProgram,
    kernel: Option<Arc<AotKernel>>,
    /// Why the kernel is missing: the run's regions take the
    /// interpreter's path (the determinism contract holds either way) and
    /// this is the reason to report.
    pub aot_fallback: Option<String>,
}

impl NativeProgram {
    pub fn compile(prog: &Program, bind: &Bindings) -> Result<NativeProgram, ExecError> {
        let lp = lower(prog, bind)?;
        let bc = compile(&lp, prog)?;
        // Only parallel regions are compiled ahead of time; with none
        // there is nothing to build, so skip the rustc invocation entirely
        // (and report no fallback — the host program IS the complete plan
        // here).
        let (kernel, aot_fallback) = if bc.region_count() > 0 {
            match load_or_compile(&lp, &bc) {
                Ok(kernel) => (Some(kernel), None),
                Err(e) => (None, Some(e.to_string())),
            }
        } else {
            (None, None)
        };
        Ok(NativeProgram {
            bc,
            kernel,
            aot_fallback,
        })
    }
}

// ---- per-thread state ----

/// Per-thread mutable slots with interior mutability. Soundness
/// contract: slot `t` is touched only by pool worker `t` while a region
/// runs, and only by the main thread otherwise — accesses are disjoint
/// in time and index, never concurrent on the same slot.
struct PerThread<T> {
    slots: Vec<UnsafeCell<T>>,
}

unsafe impl<T: Send> Sync for PerThread<T> {}

impl<T: Default> PerThread<T> {
    fn new(n: usize) -> PerThread<T> {
        PerThread {
            slots: (0..n).map(|_| UnsafeCell::new(T::default())).collect(),
        }
    }

    /// See the type-level contract.
    #[allow(clippy::mut_from_ref)]
    unsafe fn get(&self, t: usize) -> &mut T {
        &mut *self.slots[t].get()
    }
}

/// Reusable worker scratch: scalar-file copy and reduction buffers.
#[derive(Default)]
struct Scratch {
    reals: Vec<f64>,
    ints: Vec<i64>,
    red_bufs: Vec<RedBuf>,
    red_ptrs: RedPtrs,
    err: Option<ExecError>,
    participated: bool,
}

/// One logical thread's private copy of the array a region reduces in
/// some slot. Between regions every element holds the identity: the
/// merge writes it back into each partial as it reads it.
#[derive(Default)]
struct RedBuf {
    data: Vec<f64>,
    /// `Some(bits)` when every element is the identity with these bits.
    /// `None` from region entry until the merge, so a buffer a failed
    /// region wrote into is refilled on its next use.
    clean: Option<u64>,
}

impl RedBuf {
    /// Identity-fill for a region reducing `len` elements with
    /// `identity`. A clean buffer with the same identity keeps its
    /// elements, which already hold it: `resize` only cuts or extends.
    fn enter(&mut self, len: usize, identity: f64) {
        if self.clean != Some(identity.to_bits()) {
            self.data.clear();
        }
        self.data.resize(len, identity);
        self.clean = None;
    }
}

/// Base pointers of one thread's `red_bufs`, laid out as AOT regions take
/// them.
#[derive(Default)]
struct RedPtrs(Vec<*mut f64>);

// SAFETY: the pointers address the `red_bufs` of the `Scratch` that holds
// them and are rewritten before every use, so they change threads only
// together with the buffers they point into.
unsafe impl Send for RedPtrs {}

/// The state's tapes, one per logical thread, handed to the workers:
/// logical thread `t` is claimed by exactly one worker, which alone
/// touches tape `t` while the region runs.
#[derive(Clone, Copy)]
struct TapesPtr(*mut Tapes);

unsafe impl Send for TapesPtr {}
unsafe impl Sync for TapesPtr {}

impl TapesPtr {
    /// Logical thread `t`'s tape.
    ///
    /// # Safety
    /// The caller is the one toucher of tape `t` while the reference
    /// lives, and the state holds a tape for every logical thread.
    #[allow(clippy::mut_from_ref)]
    unsafe fn get<'a>(self, t: usize) -> &'a mut Tapes {
        &mut *self.0.add(t)
    }
}

/// One logical thread's share of a parallel region: its ranks of the
/// region's schedule.
struct Chunk {
    sched: Schedule,
    ranks: Range<i64>,
}

// ---- the engine ----

/// A reusable native executor: persistent thread pool, per-thread
/// scratch buffers, and the buffers of the run itself.
///
/// `threads` is the number of *logical* threads — it fixes the static
/// chunk schedule, the per-thread tapes, and the reduction merge order,
/// exactly like the interpreter's thread count. Logical threads are
/// multiplexed onto at most `os_threads` real OS workers: asking a host
/// for more threads than it has cores adds context-switch noise without
/// adding parallelism, so [`NativeEngine::new`] clamps the worker count
/// to the host's available parallelism. Every logical thread owns its
/// scalar copies, tape, and reduction buffers, so the multiplexing
/// changes no result except the commit order of colliding `!$omp atomic`
/// increments.
pub struct NativeEngine {
    threads: usize,
    os_threads: usize,
    pool: ThreadPool,
    scratch: PerThread<Scratch>,
    state: State<'static>,
}

impl NativeEngine {
    /// An engine with `threads` logical threads on at most
    /// `min(threads, host parallelism)` OS workers.
    pub fn new(threads: usize) -> NativeEngine {
        let host = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        NativeEngine::with_os_threads(threads, threads.min(host))
    }

    /// An engine with an explicit OS-worker count (clamped to
    /// `1..=threads`). Tests use this to force genuinely concurrent
    /// workers even on small hosts.
    pub fn with_os_threads(threads: usize, os_threads: usize) -> NativeEngine {
        let threads = threads.max(1);
        let os = os_threads.clamp(1, threads);
        NativeEngine {
            threads,
            os_threads: os,
            // One worker runs regions inline on the caller's thread.
            pool: ThreadPool::new(if os > 1 { os } else { 0 }),
            scratch: PerThread::new(threads),
            state: State::default(),
        }
    }

    /// The configured logical thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The OS workers parallel regions actually run on.
    pub fn os_threads(&self) -> usize {
        self.os_threads
    }

    /// Execute a [`NativeProgram`]: its AOT kernel where it has one, the
    /// interpreter's region path otherwise. The error contract is
    /// [`NativeEngine::run_with`]'s.
    pub fn run_program(
        &mut self,
        np: &NativeProgram,
        bind: &mut Bindings,
    ) -> Result<(), ExecError> {
        self.run_with(&np.bc, np.kernel.as_deref(), bind)
    }

    /// Execute `bc` against `bind`: parameters are read from the
    /// bindings and written back afterwards, locals zero-initialized —
    /// the same contract (and the same error messages) as the
    /// interpreter. Host code runs on `bc`'s closures; each parallel
    /// region dispatches to the AOT `kernel`'s compiled entry point when
    /// one is provided, and runs on the interpreter's region path, on the
    /// calling thread, when `kernel` is `None`.
    ///
    /// Parameter arrays are read and written where they sit in `bind`;
    /// an array bound under the name of a *local* is that local's initial
    /// value and is left as it was.
    ///
    /// # Errors
    /// An unbound parameter or an array bound with the wrong length is
    /// reported before anything has been written. After any `Err` — those,
    /// or an out-of-bounds index, a `pop` from an empty tape, a zero step
    /// … in the middle of the run — every array is still in `bind` under
    /// its name with its declared length (its contents are whatever the
    /// run had written so far), no scalar in `bind` has changed, and the
    /// engine runs the next program as if the failed one had never been
    /// submitted.
    pub fn run_with(
        &mut self,
        bc: &BcProgram,
        kernel: Option<&AotKernel>,
        bind: &mut Bindings,
    ) -> Result<(), ExecError> {
        // The state leaves the engine for the run, so that regions can
        // share `self` with the workers while the state is borrowed
        // mutably, and returns to it on every exit.
        let st = std::mem::take(&mut self.state);
        let (res, st) = self.run_on(st, bc, kernel, bind);
        self.state = st;
        res
    }

    fn run_on(
        &self,
        st: State<'static>,
        bc: &BcProgram,
        kernel: Option<&AotKernel>,
        bind: &mut Bindings,
    ) -> (Result<(), ExecError>, State<'static>) {
        let dispatch = kernel.map(|kernel| Dispatch {
            engine: self,
            bc,
            kernel,
        });
        let mut st: State<'_> = st;
        st.native = dispatch.as_ref().map(|d| d as &dyn RegionRunner);
        let layout = bc.layout();
        let res = st.enter(&layout, self.threads, bind).and_then(|()| {
            let ran = bc.body.once(&mut st);
            st.leave(&layout, bind);
            ran.map_err(|e| *e)
        });
        if res.is_ok() {
            write_back_scalars(&bc.scalars, bind, &st.reals, &st.ints);
        }
        // They point into arrays the caller gets back now.
        st.bases.0.clear();
        (res, st.park())
    }

    /// Run one parallel region on the kernel's entry point `f`: its
    /// per-thread scratch preparation and identity initialization,
    /// multiplexing onto the OS workers, first-error-in-thread-order, and
    /// the ascending-thread reduction merge.
    fn run_region(
        &self,
        bc: &BcProgram,
        reg: &RegionPlan,
        f: RegionFn,
        sched: Schedule,
        st: &mut State<'_>,
    ) -> Result<(), ExecError> {
        let t_n = self.threads;
        st.bases.0.clear();
        for (id, meta) in bc.arrays.iter().enumerate() {
            st.bases.0.push(match meta.ty {
                Ty::Real => st.arr_r[id].as_mut_ptr() as *mut u64,
                Ty::Int => st.arr_i[id].as_mut_ptr() as *mut u64,
            });
        }
        let tapes = TapesPtr(st.tapes.as_mut_ptr());
        let (reals, ints, bases) = (&st.reals, &st.ints, &st.bases);

        let worker = |t: usize| {
            // Sound: worker `t` is the only toucher of slots `t` now.
            let scratch = unsafe { self.scratch.get(t) };
            scratch.err = None;
            scratch.participated = false;
            let ranks = sched.ranks(t);
            if ranks.is_empty() {
                return;
            }
            scratch.participated = true;
            // Private copy of both scalar files: privates start at
            // region-entry values, exactly like the interpreter.
            scratch.reals.clear();
            scratch.reals.extend_from_slice(reals);
            scratch.ints.clear();
            scratch.ints.extend_from_slice(ints);
            // Identity-initialize reductions for this thread.
            for (op, s, is_real) in &reg.red_scalars {
                if *is_real {
                    scratch.reals[*s as usize] = identity(*op);
                } else {
                    scratch.ints[*s as usize] = identity(*op) as i64;
                }
            }
            for (k, (op, id)) in reg.red_arrays.iter().enumerate() {
                if scratch.red_bufs.len() <= k {
                    scratch.red_bufs.push(RedBuf::default());
                }
                scratch.red_bufs[k].enter(bc.arrays[*id as usize].len, identity(*op));
            }
            let share = Chunk { sched, ranks };
            // Sound: logical thread `t` is this worker's alone.
            let tape = unsafe { tapes.get(t) };
            scratch.err = chunk_aot(bc, reg, f, bases, &share, scratch, tape).err();
        };

        // Multiplex the logical threads onto the OS workers (round-robin
        // by rank). Each logical thread is claimed by exactly one worker,
        // so its scratch slot and tape stay single-toucher.
        let os = self.os_threads.min(t_n);
        if os <= 1 {
            for t in 0..t_n {
                worker(t);
            }
        } else {
            self.pool.run(os, &|w| {
                let mut t = w;
                while t < t_n {
                    worker(t);
                    t += os;
                }
            });
        }

        // First error in thread order — the order the interpreter would
        // have encountered it.
        for t in 0..t_n {
            // SAFETY: the region is over, so the main thread is the only
            // toucher of every slot.
            let scratch = unsafe { self.scratch.get(t) };
            if let Some(e) = scratch.err.take() {
                return Err(e);
            }
        }

        // Merge reductions in ascending thread order over participating
        // threads, then combine onto the pre-region value — the exact
        // association the interpreter uses.
        for (op, s, is_real) in &reg.red_scalars {
            let mut acc = identity(*op);
            for t in 0..t_n {
                let scratch = unsafe { self.scratch.get(t) };
                if !scratch.participated {
                    continue;
                }
                let part = if *is_real {
                    scratch.reals[*s as usize]
                } else {
                    scratch.ints[*s as usize] as f64
                };
                acc = combine(*op, acc, part);
            }
            if *is_real {
                let saved = st.reals[*s as usize];
                st.reals[*s as usize] = combine(*op, saved, acc);
            } else {
                let saved = st.ints[*s as usize] as f64;
                st.ints[*s as usize] = combine(*op, saved, acc) as i64;
            }
        }
        for (k, (op, id)) in reg.red_arrays.iter().enumerate() {
            let (dst, id) = (&mut st.arr_r[*id as usize][..], identity(*op));
            match op {
                RedOp::Add => self.merge_array(dst, k, id, |a, b| a + b),
                RedOp::Mul => self.merge_array(dst, k, id, |a, b| a * b),
                RedOp::Min => self.merge_array(dst, k, id, real_min),
                RedOp::Max => self.merge_array(dst, k, id, real_max),
            }
        }
        Ok(())
    }

    /// Fold the partials of reduction buffer `k` (participating threads
    /// ascending) onto the shared array `dst`: per element `dst ⊕
    /// ((identity ⊕ p0) ⊕ p1 …)` — the interpreter's association bit for
    /// bit, `-0.0` and NaNs included — writing the identity back into
    /// each partial as it is read, which leaves the buffers clean. One
    /// pass per block, and one over the whole array when there is one
    /// partial; `op` is the reduction's operator, chosen once per array
    /// instead of once per element.
    fn merge_array(&self, dst: &mut [f64], k: usize, identity: f64, op: impl Fn(f64, f64) -> f64) {
        // SAFETY, for every slot below: the region is over, so the main
        // thread is the only toucher of every slot, and it holds one
        // slot's buffer at a time.
        let partial = |t: usize| {
            let scratch = unsafe { self.scratch.get(t) };
            let buf = &mut scratch.red_bufs[k];
            buf.clean = Some(identity.to_bits());
            &mut buf.data
        };
        let participated = |t: &usize| unsafe { self.scratch.get(*t) }.participated;
        let mut participants = (0..self.threads).filter(participated);
        if let (Some(t), 0) = (participants.next(), participants.count()) {
            return merge_one(dst, partial(t), identity, op);
        }
        let mut acc = [0.0f64; MERGE_BLOCK];
        for (b, out) in dst.chunks_mut(MERGE_BLOCK).enumerate() {
            let acc = &mut acc[..out.len()];
            acc.fill(identity);
            for t in (0..self.threads).filter(participated) {
                let part = &mut partial(t)[b * MERGE_BLOCK..][..out.len()];
                for (a, p) in acc.iter_mut().zip(part) {
                    *a = op(*a, *p);
                    *p = identity;
                }
            }
            for (d, a) in out.iter_mut().zip(acc.iter()) {
                *d = op(*d, *a);
            }
        }
    }
}

/// Elements per block of the reduction merge: its accumulator lives on
/// the stack.
const MERGE_BLOCK: usize = 256;

/// [`NativeEngine::merge_array`] with one partial: `dst ⊕ (identity ⊕
/// p)` per element, resetting `part` to the identity. Four elements a
/// step: a plain zip of the two slices compiles to a two-lane loop that
/// is not unrolled, and merged a 100 000-element reduction 10–20 %
/// slower than this at T = 1.
fn merge_one(dst: &mut [f64], part: &mut [f64], identity: f64, op: impl Fn(f64, f64) -> f64) {
    let n = dst.len().min(part.len());
    let (mut d4, mut p4) = (dst[..n].chunks_exact_mut(4), part[..n].chunks_exact_mut(4));
    for (d, p) in (&mut d4).zip(&mut p4) {
        for k in 0..4 {
            d[k] = op(d[k], op(identity, p[k]));
            p[k] = identity;
        }
    }
    for (d, p) in d4.into_remainder().iter_mut().zip(p4.into_remainder()) {
        *d = op(*d, op(identity, *p));
        *p = identity;
    }
}

/// The engine's region runner for one run on one kernel.
struct Dispatch<'e> {
    engine: &'e NativeEngine,
    bc: &'e BcProgram,
    kernel: &'e AotKernel,
}

impl RegionRunner for Dispatch<'_> {
    fn run_region(
        &self,
        region: &RegionPlan,
        sched: Schedule,
        st: &mut State<'_>,
    ) -> Result<(), ExecError> {
        let f = self.kernel.region(region.k).ok_or_else(|| {
            ExecError::new(format!(
                "AOT kernel has no entry point for region {}",
                region.k
            ))
        })?;
        self.engine.run_region(self.bc, region, f, sched, st)
    }
}

/// One logical thread's chunk: one call into the region's compiled entry
/// point, which walks the chunk itself.
fn chunk_aot(
    bc: &BcProgram,
    reg: &RegionPlan,
    f: RegionFn,
    bases: &Bases,
    c: &Chunk,
    scratch: &mut Scratch,
    tapes: &mut Tapes,
) -> Result<(), ExecError> {
    use crate::aot::abi::{AotEnv, AotTape, FORMAD_AOT_ABI};

    let red_bufs = &mut scratch.red_bufs[..reg.red_arrays.len()];
    scratch.red_ptrs.0.clear();
    scratch
        .red_ptrs
        .0
        .extend(red_bufs.iter_mut().map(|buf| buf.data.as_mut_ptr()));
    let mut env = AotEnv {
        abi: FORMAD_AOT_ABI,
        lo: c.sched.lo,
        step: c.sched.step,
        count: c.sched.count,
        a_begin: c.ranks.start,
        a_end: c.ranks.end,
        reals: scratch.reals.as_mut_ptr(),
        ints: scratch.ints.as_mut_ptr(),
        arrays: bases.0.as_ptr(),
        red_bufs: scratch.red_ptrs.0.as_ptr(),
        tape_r: AotTape {
            ptr: tapes.r.as_mut_ptr() as *mut u8,
            len: tapes.r.len(),
            cap: tapes.r.capacity(),
            host: (&mut tapes.r) as *mut Vec<f64> as *mut core::ffi::c_void,
        },
        tape_i: AotTape {
            ptr: tapes.i.as_mut_ptr() as *mut u8,
            len: tapes.i.len(),
            cap: tapes.i.capacity(),
            host: (&mut tapes.i) as *mut Vec<i64> as *mut core::ffi::c_void,
        },
        grow_r: crate::aot::grow_tape_r,
        grow_i: crate::aot::grow_tape_i,
        err_value: 0,
        err_arr: 0,
        err_dim: 0,
    };
    let rc = unsafe { f(&mut env) };
    // Adopt whatever the region pushed/popped; the generated epilogue
    // synced `len` on success *and* error exits.
    unsafe {
        tapes.r.set_len(env.tape_r.len);
        tapes.i.set_len(env.tape_i.len);
    }
    if rc != 0 {
        return Err(decode_aot_error(&bc.arrays, &env, rc));
    }
    Ok(())
}

/// Re-render an AOT region error code as the exact interpreter message.
fn decode_aot_error(arrays: &[ArrMeta], env: &crate::aot::abi::AotEnv, rc: i32) -> ExecError {
    use crate::aot::abi as a;
    match rc {
        a::AOT_ERR_OOB => {
            let meta = &arrays[env.err_arr as usize];
            let dim = env.err_dim as usize;
            oob(env.err_value, meta.dims[dim], dim + 1, &meta.name)
        }
        // The code names the checked operation that failed; replaying it
        // on the shared semantics renders the message every backend uses.
        a::AOT_ERR_DIV_ZERO => int_fault(BinOp::Div, 1, 0),
        a::AOT_ERR_DIV_OVERFLOW => int_fault(BinOp::Div, i64::MIN, -1),
        a::AOT_ERR_MOD_ZERO => int_fault(BinOp::Mod, 1, 0),
        a::AOT_ERR_MOD_OVERFLOW => int_fault(BinOp::Mod, i64::MIN, -1),
        a::AOT_ERR_NEG_EXP => int_fault(BinOp::Pow, 2, -1),
        a::AOT_ERR_POW_OVERFLOW => int_fault(BinOp::Pow, 2, 64),
        a::AOT_ERR_ZERO_STEP => ExecError::new("zero loop step"),
        a::AOT_ERR_TRIP_COUNT => trip_count(0, i64::MAX, 1).expect_err("a count past `i64`"),
        a::AOT_ERR_POP_EMPTY_R => ExecError::new("pop from empty real tape"),
        a::AOT_ERR_POP_EMPTY_I => ExecError::new("pop from empty int tape"),
        a::AOT_ERR_STEP_MISMATCH => ExecError::new(format!(
            "AOT region was generated for a literal step other than {}",
            env.step
        )),
        other => ExecError::new(format!("AOT region returned unknown error code {other}")),
    }
}

fn int_fault(op: BinOp, x: i64, y: i64) -> ExecError {
    int_bin(op, x, y).expect_err("operands the operation rejects")
}
