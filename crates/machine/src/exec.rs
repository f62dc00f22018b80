//! Real-hardware execution of compiled bytecode.
//!
//! [`NativeEngine`] runs a [`BcProgram`] on real OS threads: sequential
//! code interprets the flat instruction array directly; every
//! `!$omp parallel do` region is dispatched to a persistent
//! [`formad_runtime::ThreadPool`] with the **same static schedule** the
//! simulated machine uses (`lower::Schedule`), so thread `t` executes — and
//! tapes — exactly the iterations simulated thread `t` does. Results are bitwise equal to
//! the interpreter's on any number of OS workers for every program with
//! no shared `!$omp atomic` increment; colliding atomic increments commit
//! in hardware order, so such a program is bitwise equal on one OS worker
//! (logical threads then run in rank order) and equal up to
//! floating-point reassociation on several — the determinism contract of
//! [`crate::differential`]. Logical threads are multiplexed onto at most
//! the host's physically available cores (see [`NativeEngine::new`]).
//!
//! Memory model: array elements are accessed through relaxed
//! `AtomicU64`/`AtomicI64` views (plain `mov`s on x86-64, so the
//! FormAD-proved *plain* discipline pays nothing), and `!$omp atomic`
//! increments are a CAS loop on the element's bits: load relaxed, add in
//! `f64`, `compare_exchange_weak` with acquire-release success and
//! acquire failure ordering, retry from the value seen on failure (see
//! `RawView::fetch_add_r`; AOT kernels emit the same loop). No increment
//! is lost, and colliding ones commit in hardware order.
//! `reduction(+: arr)` clauses privatize into per-thread buffers that
//! hold the identity between regions and are merged in ascending thread
//! order, replicating the interpreter's combine order bit for bit; region code
//! names a thread's buffer as view `n_arrays + j` of the worker's view
//! table, so no access looks a redirect up.
//!
//! A run touches no memory that is not the program's own traffic.
//! Parameter arrays are used where they sit in the caller's
//! [`Bindings`] — the engine holds the bindings exclusively for the run
//! and points its views at their vectors, so nothing is copied in or out
//! and an array can never be missing afterwards. Everything else a run
//! needs — the main register file, the views, local arrays, per-thread
//! register-file copies, tapes, reduction buffers — lives in buffers the
//! engine keeps across regions and runs, so a warm run (same engine, a
//! program it has run before) makes no heap allocation at all, whatever
//! the array lengths; `tests/exec_alloc_ceiling.rs` holds that.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use std::ops::Range;

use formad_ir::{BinOp, Program, RedOp, Ty};
use formad_runtime::ThreadPool;

use crate::aot::{load_or_compile, AotKernel};
use crate::bindings::{Bindings, ExecError};
use crate::bytecode::{compile, BcProgram, BcRegion, Instr};
use crate::lower::{
    bind_entry, combine, compare, identity, int_bin, int_call, lower, oob, real_bin, real_call,
    real_max, real_min, trip_count, write_back_scalars, ArrMeta, Schedule,
};

/// Compile `prog` against `bind` and run it with `threads` logical
/// threads, writing parameter results back into `bind` — the native
/// counterpart of [`crate::interp::run`]. For repeated execution, keep a
/// [`NativeEngine`] and a compiled [`BcProgram`] instead.
pub fn run_native(prog: &Program, bind: &mut Bindings, threads: usize) -> Result<(), ExecError> {
    let np = NativeProgram::compile(prog, bind, false)?;
    NativeEngine::new(threads).run_program(&np, bind)
}

/// The backend ladder, climbed once: a program lowered and compiled to
/// bytecode and — when the AOT backend was asked for and its kernel
/// could be built — the compiled entry points of its parallel regions.
/// Any engine runs it with [`NativeEngine::run_program`]; the one-shot
/// [`run_native`] / [`crate::aot::run_aot`] and the service's parked
/// engines all go through here.
pub struct NativeProgram {
    bc: BcProgram,
    kernel: Option<Arc<AotKernel>>,
    /// Why an asked-for AOT kernel is missing: the run degrades to the
    /// bytecode backend (the determinism contract holds either way) and
    /// this is the reason to report.
    pub aot_fallback: Option<String>,
}

impl NativeProgram {
    pub fn compile(prog: &Program, bind: &Bindings, aot: bool) -> Result<NativeProgram, ExecError> {
        let lp = lower(prog, bind)?;
        let bc = compile(&lp, prog)?;
        // Only parallel regions are compiled ahead of time; with none
        // there is nothing to build, so skip the rustc invocation entirely
        // (and report no fallback — bytecode IS the complete plan here).
        let (kernel, aot_fallback) = if aot && !bc.regions.is_empty() {
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

// ---- shared-memory array views ----

/// Raw view of one array's storage; elements are accessed with relaxed
/// atomics so concurrent disjoint writes from pool workers are defined
/// behaviour (f64 bits travel through `AtomicU64`).
#[derive(Clone, Copy)]
struct RawView {
    ptr: *mut u64,
    len: usize,
}

unsafe impl Send for RawView {}
unsafe impl Sync for RawView {}

impl RawView {
    /// View of `data`, whose elements are 8-byte words (`f64` or `i64`).
    fn of<T>(data: &mut [T]) -> RawView {
        const { assert!(std::mem::size_of::<T>() == 8 && std::mem::align_of::<T>() == 8) };
        RawView {
            ptr: data.as_mut_ptr() as *mut u64,
            len: data.len(),
        }
    }

    /// The storage as a plain real slice.
    ///
    /// # Safety
    /// The view must be of a real array whose storage is still alive, and
    /// nothing else may access that storage while the slice is: no region
    /// is running and the caller holds no other slice of it.
    #[allow(clippy::mut_from_ref)]
    unsafe fn as_reals_mut(&self) -> &mut [f64] {
        std::slice::from_raw_parts_mut(self.ptr as *mut f64, self.len)
    }

    #[inline]
    fn load_r(&self, off: usize) -> f64 {
        debug_assert!(off < self.len);
        f64::from_bits(unsafe {
            (*(self.ptr.add(off) as *const AtomicU64)).load(Ordering::Relaxed)
        })
    }

    #[inline]
    fn store_r(&self, off: usize, v: f64) {
        debug_assert!(off < self.len);
        unsafe { (*(self.ptr.add(off) as *const AtomicU64)).store(v.to_bits(), Ordering::Relaxed) }
    }

    /// `!$omp atomic` increment: the acquire-release CAS loop of the
    /// module docs.
    #[inline]
    fn fetch_add_r(&self, off: usize, v: f64) {
        debug_assert!(off < self.len);
        let cell = unsafe { &*(self.ptr.add(off) as *const AtomicU64) };
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match cell.compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return,
                Err(now) => cur = now,
            }
        }
    }

    #[inline]
    fn load_i(&self, off: usize) -> i64 {
        debug_assert!(off < self.len);
        unsafe { (*(self.ptr.add(off) as *const AtomicI64)).load(Ordering::Relaxed) }
    }

    #[inline]
    fn store_i(&self, off: usize, v: i64) {
        debug_assert!(off < self.len);
        unsafe { (*(self.ptr.add(off) as *const AtomicI64)).store(v, Ordering::Relaxed) }
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

/// Value tapes of one (simulated or real) thread. Tape `t` is pushed by
/// whichever code runs as thread `t` — the main thread between regions
/// (as thread 0) and pool worker `t` inside them — and persists across
/// regions, which is what lets a reversed parallel loop pop values its
/// forward twin pushed.
#[derive(Default)]
struct Tapes {
    r: Vec<f64>,
    i: Vec<i64>,
}

/// Reusable worker scratch: register-file copy and reduction buffers.
#[derive(Default)]
struct Scratch {
    reals: Vec<f64>,
    ints: Vec<i64>,
    red_bufs: Vec<RedBuf>,
    /// The worker's view table for bytecode, rewritten for every chunk:
    /// the shared arrays by `ArrId`, then the region's `red_bufs`.
    views: Vec<RawView>,
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
// together with the buffers they point into. The same holds for the
// views of them in `Scratch::views`.
unsafe impl Send for RedPtrs {}

enum Exit {
    Done,
    Par { region: u16, resume: usize },
}

/// One logical thread's share of a parallel region: its ranks of the
/// region's schedule.
struct Chunk {
    thread: usize,
    sched: Schedule,
    ranks: Range<i64>,
}

/// Shared array base pointers handed to AOT region workers. Sync under
/// the same contract as [`RawView`]: the generated code performs element
/// accesses through relaxed atomics, never plain concurrent writes.
#[derive(Default)]
struct Bases(Vec<*mut u64>);

unsafe impl Send for Bases {}
unsafe impl Sync for Bases {}

/// What one run needs besides the program's own arrays and the
/// per-thread state: kept by the engine across runs, so a warm run
/// re-fills these buffers instead of allocating them.
#[derive(Default)]
struct RunState {
    /// The main thread's register file.
    reals: Vec<f64>,
    ints: Vec<i64>,
    /// Per-array views, by `ArrId`. Valid for one run only: they point
    /// into the caller's bindings.
    views: Vec<RawView>,
    bases: Bases,
    /// The partials one region's merge reads, by array, then by thread.
    parts: Vec<RawView>,
    locals_r: Locals<f64>,
    locals_i: Locals<i64>,
}

/// Storage of a program's local arrays: buffers handed out in `ArrId`
/// order, whose capacity outlives the run.
#[derive(Default)]
struct Locals<T> {
    bufs: Vec<Vec<T>>,
    used: usize,
}

impl<T> Locals<T> {
    fn next(&mut self) -> &mut Vec<T> {
        if self.used == self.bufs.len() {
            self.bufs.push(Vec::new());
        }
        self.used += 1;
        &mut self.bufs[self.used - 1]
    }
}

// ---- the engine ----

/// A reusable native executor: persistent thread pool, per-thread tapes
/// and scratch buffers, and the buffers of the run itself.
///
/// `threads` is the number of *logical* threads — it fixes the static
/// chunk schedule, the per-thread tapes, and the reduction merge order,
/// exactly like the simulated machine's thread count. Logical threads
/// are multiplexed onto at most `os_threads` real OS workers: asking a
/// host for more threads than it has cores adds context-switch noise
/// without adding parallelism, so [`NativeEngine::new`] clamps the
/// worker count to the host's available parallelism. Every logical thread
/// owns its register file, tape, and reduction buffers, so the
/// multiplexing changes no result except the commit order of colliding
/// `!$omp atomic` increments.
pub struct NativeEngine {
    threads: usize,
    os_threads: usize,
    pool: ThreadPool,
    tapes: PerThread<Tapes>,
    scratch: PerThread<Scratch>,
    state: RunState,
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
            tapes: PerThread::new(threads),
            scratch: PerThread::new(threads),
            state: RunState::default(),
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

    /// Execute `bc` against `bind`: parameters are read from the
    /// bindings and written back afterwards, locals zero-initialized —
    /// the same contract (and the same error messages) as the simulated
    /// interpreter. The error contract is [`NativeEngine::run_with`]'s.
    pub fn run(&mut self, bc: &BcProgram, bind: &mut Bindings) -> Result<(), ExecError> {
        self.run_with(bc, None, bind)
    }

    /// Execute a [`NativeProgram`]: its AOT kernel where it has one,
    /// bytecode otherwise. The error contract is
    /// [`NativeEngine::run_with`]'s.
    pub fn run_program(
        &mut self,
        np: &NativeProgram,
        bind: &mut Bindings,
    ) -> Result<(), ExecError> {
        self.run_with(&np.bc, np.kernel.as_deref(), bind)
    }

    /// Like [`NativeEngine::run`], but parallel regions dispatch to the
    /// AOT `kernel`'s compiled entry points when one is provided (and it
    /// has the region — otherwise that region interprets bytecode).
    /// Sequential code always interprets: regions are the hot path, and
    /// keeping one interpreter for the scaffolding keeps the backends
    /// trivially in lockstep everywhere except the generated functions.
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
        // share `self` with the workers while the main register file is
        // borrowed mutably, and returns to it on every exit.
        let mut st = std::mem::take(&mut self.state);
        let res = self.run_on(&mut st, bc, kernel, bind);
        // They point into `bind`, which the caller gets back now.
        st.views.clear();
        st.bases.0.clear();
        st.parts.clear();
        self.state = st;
        res
    }

    fn run_on(
        &self,
        st: &mut RunState,
        bc: &BcProgram,
        kernel: Option<&AotKernel>,
        bind: &mut Bindings,
    ) -> Result<(), ExecError> {
        st.reals.clear();
        st.reals.resize(bc.n_real_regs, 0.0);
        st.ints.clear();
        st.ints.resize(bc.n_int_regs, 0);
        bind_entry(&bc.scalars, &bc.arrays, bind, &mut st.reals, &mut st.ints)?;
        st.locals_r.used = 0;
        st.locals_i.used = 0;
        for meta in &bc.arrays {
            let view = match meta.ty {
                Ty::Real => {
                    let bound = bind.real_arrays.get_mut(&meta.name);
                    array_view(bound, meta, &mut st.locals_r)
                }
                Ty::Int => {
                    let bound = bind.int_arrays.get_mut(&meta.name);
                    array_view(bound, meta, &mut st.locals_i)
                }
            };
            st.views.push(view);
            st.bases.0.push(view.ptr);
        }
        // From here to the scalar write-back `bind` is not touched: the
        // views are the only way to its arrays.
        let (views, bases) = (&st.views, &st.bases);

        for t in 0..self.threads {
            // SAFETY: no region is running, so the main thread is the
            // only toucher of every slot.
            let tp = unsafe { self.tapes.get(t) };
            tp.r.clear();
            tp.i.clear();
        }

        let mut pc = 0usize;
        loop {
            let exit = exec_code(
                bc,
                &bc.code,
                pc,
                &mut st.reals,
                &mut st.ints,
                views,
                &self.tapes,
                0,
            )?;
            match exit {
                Exit::Done => break,
                Exit::Par { region, resume } => {
                    let reg = &bc.regions[region as usize];
                    let (reals, ints, parts) = (&mut st.reals, &mut st.ints, &mut st.parts);
                    match kernel.and_then(|k| k.region(region as usize)) {
                        Some(f) => self.run_region(reg, reals, ints, views, parts, |c, s| {
                            self.chunk_aot(bc, reg, f, bases, c, s)
                        })?,
                        None => self.run_region(reg, reals, ints, views, parts, |c, s| {
                            self.chunk_bytecode(bc, reg, views, c, s)
                        })?,
                    }
                    pc = resume;
                }
            }
        }

        write_back_scalars(&bc.scalars, bind, &st.reals, &st.ints);
        Ok(())
    }

    /// Run one parallel region: its schedule, per-thread scratch
    /// preparation and identity initialization, multiplexing onto the OS
    /// workers, first-error-in-thread-order, and the ascending-thread
    /// reduction merge. `body` executes one logical thread's chunk —
    /// [`Self::chunk_bytecode`] or [`Self::chunk_aot`] — and is the only
    /// thing the backends do differently, which is what keeps them in
    /// lockstep. `parts` is the merge's list of partials.
    fn run_region(
        &self,
        reg: &BcRegion,
        reals: &mut [f64],
        ints: &mut [i64],
        views: &[RawView],
        parts: &mut Vec<RawView>,
        body: impl Fn(&Chunk, &mut Scratch) -> Result<(), ExecError> + Sync,
    ) -> Result<(), ExecError> {
        let t_n = self.threads;
        let sched = Schedule::new(
            ints[reg.lo as usize],
            ints[reg.hi as usize],
            ints[reg.step as usize],
            t_n,
        )?;
        if sched.count == 0 {
            return Ok(());
        }

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
            // Private copy of the whole register file: privates start at
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
                scratch.red_bufs[k].enter(views[*id as usize].len, identity(*op));
            }
            let share = Chunk {
                thread: t,
                sched,
                ranks,
            };
            scratch.err = body(&share, scratch).err();
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

        // First error in thread order — the order the simulated machine
        // would have encountered it.
        for t in 0..t_n {
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
                let saved = reals[*s as usize];
                reals[*s as usize] = combine(*op, saved, acc);
            } else {
                let saved = ints[*s as usize] as f64;
                ints[*s as usize] = combine(*op, saved, acc) as i64;
            }
        }
        for (k, (op, id)) in reg.red_arrays.iter().enumerate() {
            let (dst, id) = (views[*id as usize], identity(*op));
            // The participating threads' partials, ascending, clean once
            // the merge below has reset them.
            parts.clear();
            for t in 0..t_n {
                // SAFETY: the region is over, so the main thread is the
                // only toucher of every slot.
                let scratch = unsafe { self.scratch.get(t) };
                if scratch.participated {
                    let buf = &mut scratch.red_bufs[k];
                    buf.clean = Some(id.to_bits());
                    parts.push(RawView::of(&mut buf.data));
                }
            }
            match op {
                RedOp::Add => merge_array(dst, parts, id, |a, b| a + b),
                RedOp::Mul => merge_array(dst, parts, id, |a, b| a * b),
                RedOp::Min => merge_array(dst, parts, id, real_min),
                RedOp::Max => merge_array(dst, parts, id, real_max),
            }
        }
        Ok(())
    }

    /// Chunk body of the bytecode backend: interpret the region's code
    /// once per iteration over the worker's view table — the shared
    /// arrays, then the thread's privatized reduction buffers.
    fn chunk_bytecode(
        &self,
        bc: &BcProgram,
        reg: &BcRegion,
        shared: &[RawView],
        c: &Chunk,
        scratch: &mut Scratch,
    ) -> Result<(), ExecError> {
        scratch.views.clear();
        scratch.views.extend_from_slice(shared);
        let red_bufs = &mut scratch.red_bufs[..reg.red_arrays.len()];
        scratch
            .views
            .extend(red_bufs.iter_mut().map(|b| RawView::of(&mut b.data)));
        for v in c.sched.values(c.ranks.clone()) {
            scratch.ints[reg.var as usize] = v;
            let exit = exec_code(
                bc,
                &reg.code,
                0,
                &mut scratch.reals,
                &mut scratch.ints,
                &scratch.views,
                &self.tapes,
                c.thread,
            )?;
            if let Exit::Par { .. } = exit {
                unreachable!("nested regions rejected at compile");
            }
        }
        Ok(())
    }

    /// Chunk body of the AOT backend: one call into the region's compiled
    /// entry point, which walks the chunk itself.
    fn chunk_aot(
        &self,
        bc: &BcProgram,
        reg: &BcRegion,
        f: crate::aot::RegionFn,
        bases: &Bases,
        c: &Chunk,
        scratch: &mut Scratch,
    ) -> Result<(), ExecError> {
        use crate::aot::abi::{AotEnv, AotTape, FORMAD_AOT_ABI};

        let red_bufs = &mut scratch.red_bufs[..reg.red_arrays.len()];
        scratch.red_ptrs.0.clear();
        scratch
            .red_ptrs
            .0
            .extend(red_bufs.iter_mut().map(|buf| buf.data.as_mut_ptr()));
        // Sound: only logical thread `c.thread` touches its tape now.
        let tapes = unsafe { self.tapes.get(c.thread) };
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
        // Adopt whatever the region pushed/popped; the generated
        // epilogue synced `len` on success *and* error exits.
        unsafe {
            tapes.r.set_len(env.tape_r.len);
            tapes.i.set_len(env.tape_i.len);
        }
        if rc != 0 {
            return Err(decode_aot_error(bc, &env, rc));
        }
        Ok(())
    }
}

/// Elements per block of the reduction merge: its accumulator lives on
/// the stack.
const MERGE_BLOCK: usize = 256;

/// Fold the partials `parts` (participating threads ascending) onto the
/// shared array `dst`: per element `dst ⊕ ((identity ⊕ p0) ⊕ p1 …)` — the
/// interpreter's association bit for bit, `-0.0` and NaNs included —
/// writing the identity back into each partial as it is read. One pass
/// per block, and one over the whole array when there is one partial;
/// `op` is the reduction's operator, chosen once per array instead of
/// once per element.
fn merge_array(dst: RawView, parts: &[RawView], identity: f64, op: impl Fn(f64, f64) -> f64) {
    // SAFETY, for every slice below: the partials and `dst` are distinct
    // real arrays no region is running on, each sliced once at a time.
    let out = unsafe { dst.as_reals_mut() };
    if let [part] = parts {
        for (d, p) in out.iter_mut().zip(unsafe { part.as_reals_mut() }) {
            *d = op(*d, op(identity, *p));
            *p = identity;
        }
        return;
    }
    let mut acc = [0.0f64; MERGE_BLOCK];
    for (b, out) in out.chunks_mut(MERGE_BLOCK).enumerate() {
        let acc = &mut acc[..out.len()];
        acc.fill(identity);
        for part in parts {
            let part = unsafe { &mut part.as_reals_mut()[b * MERGE_BLOCK..][..out.len()] };
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

/// Re-render an AOT region error code as the exact interpreter message.
fn decode_aot_error(bc: &BcProgram, env: &crate::aot::abi::AotEnv, rc: i32) -> ExecError {
    use crate::aot::abi as a;
    match rc {
        a::AOT_ERR_OOB => {
            let meta = &bc.arrays[env.err_arr as usize];
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

/// The storage a run uses for one array, whose binding [`bind_entry`]
/// has checked. A parameter runs in the vector bound to it, where that
/// sits in the caller's bindings; a local gets the next engine-owned
/// buffer, zero-filled — or filled with a copy of what is bound under
/// the local's name, which stays as it was.
fn array_view<T: Copy + Default>(
    bound: Option<&mut Vec<T>>,
    meta: &ArrMeta,
    locals: &mut Locals<T>,
) -> RawView {
    match bound {
        Some(v) if meta.param => RawView::of(v),
        initial => {
            let buf = locals.next();
            buf.clear();
            match initial {
                Some(v) => buf.extend_from_slice(v),
                None => buf.resize(meta.len, T::default()),
            }
            RawView::of(buf)
        }
    }
}

// ---- the instruction loop ----

/// Execute `code` from `pc` until `Halt` or `EnterPar`. Used for both
/// the main program (thread 0's tape, the shared views) and region bodies
/// (the worker's tape and view table).
#[allow(clippy::too_many_arguments)]
fn exec_code(
    bc: &BcProgram,
    code: &[Instr],
    mut pc: usize,
    reals: &mut [f64],
    ints: &mut [i64],
    views: &[RawView],
    tapes: &PerThread<Tapes>,
    tape_id: usize,
) -> Result<Exit, ExecError> {
    macro_rules! rr {
        ($r:expr) => {
            reals[$r as usize]
        };
    }
    macro_rules! ii {
        ($r:expr) => {
            ints[$r as usize]
        };
    }
    loop {
        let instr = code[pc];
        pc += 1;
        match instr {
            Instr::ConstR { dst, v } => rr!(dst) = v,
            Instr::ConstI { dst, v } => ii!(dst) = v,
            Instr::MovR { dst, src } => rr!(dst) = rr!(src),
            Instr::MovI { dst, src } => ii!(dst) = ii!(src),
            Instr::ItoR { dst, src } => rr!(dst) = ii!(src) as f64,
            Instr::BinR { op, dst, a, b } => rr!(dst) = real_bin(op, rr!(a), rr!(b))?,
            Instr::BinI { op, dst, a, b } => ii!(dst) = int_bin(op, ii!(a), ii!(b))?,
            Instr::NegR { dst, a } => rr!(dst) = -rr!(a),
            Instr::NegI { dst, a } => ii!(dst) = ii!(a).wrapping_neg(),
            Instr::Call1R { f, dst, a } => rr!(dst) = real_call(f, rr!(a), 0.0),
            Instr::Call2R { f, dst, a, b } => rr!(dst) = real_call(f, rr!(a), rr!(b)),
            Instr::Call1I { f, dst, a } => ii!(dst) = int_call(f, ii!(a), 0)?,
            Instr::Call2I { f, dst, a, b } => ii!(dst) = int_call(f, ii!(a), ii!(b))?,
            Instr::CmpR { op, dst, a, b } => ii!(dst) = compare(op, rr!(a), rr!(b)) as i64,
            Instr::CmpI { op, dst, a, b } => ii!(dst) = compare(op, ii!(a), ii!(b)) as i64,
            Instr::IdxFirst { dst, idx, arr } => {
                let meta = &bc.arrays[arr as usize];
                let v = ii!(idx);
                let d = meta.dims[0];
                if v < 1 || v > d {
                    return Err(oob(v, d, 1, &meta.name));
                }
                ii!(dst) = v - 1;
            }
            Instr::IdxAcc { acc, idx, arr, dim } => {
                let meta = &bc.arrays[arr as usize];
                let v = ii!(idx);
                let d = meta.dims[dim as usize];
                if v < 1 || v > d {
                    return Err(oob(v, d, dim as usize + 1, &meta.name));
                }
                ii!(acc) += (v - 1) * meta.strides[dim as usize];
            }
            Instr::LoadR { dst, arr, off } => {
                rr!(dst) = views[arr as usize].load_r(ii!(off) as usize)
            }
            Instr::LoadI { dst, arr, off } => {
                ii!(dst) = views[arr as usize].load_i(ii!(off) as usize)
            }
            Instr::StoreR { arr, off, src } => {
                views[arr as usize].store_r(ii!(off) as usize, rr!(src))
            }
            Instr::StoreI { arr, off, src } => {
                views[arr as usize].store_i(ii!(off) as usize, ii!(src))
            }
            Instr::AtomicAddR { arr, off, src } => {
                views[arr as usize].fetch_add_r(ii!(off) as usize, rr!(src))
            }
            Instr::IncR { arr, off, src } => {
                let off = ii!(off) as usize;
                let view = &views[arr as usize];
                view.store_r(off, view.load_r(off) + rr!(src));
            }
            Instr::PushR { src } => {
                let v = rr!(src);
                // Sound: tape `tape_id` is exclusively this thread's.
                unsafe { tapes.get(tape_id) }.r.push(v);
            }
            Instr::PushI { src } => {
                let v = ii!(src);
                unsafe { tapes.get(tape_id) }.i.push(v);
            }
            Instr::PopR { dst } => {
                rr!(dst) = unsafe { tapes.get(tape_id) }
                    .r
                    .pop()
                    .ok_or_else(|| ExecError::new("pop from empty real tape"))?;
            }
            Instr::PopI { dst } => {
                ii!(dst) = unsafe { tapes.get(tape_id) }
                    .i
                    .pop()
                    .ok_or_else(|| ExecError::new("pop from empty int tape"))?;
            }
            Instr::PopElemR { arr, off } => {
                let off = ii!(off) as usize;
                let v = unsafe { tapes.get(tape_id) }
                    .r
                    .pop()
                    .ok_or_else(|| ExecError::new("pop from empty real tape"))?;
                views[arr as usize].store_r(off, v);
            }
            Instr::PopElemI { arr, off } => {
                let off = ii!(off) as usize;
                let v = unsafe { tapes.get(tape_id) }
                    .i
                    .pop()
                    .ok_or_else(|| ExecError::new("pop from empty int tape"))?;
                views[arr as usize].store_i(off, v);
            }
            Instr::Jmp { target } => pc = target as usize,
            Instr::JmpIfZero { cond, target } => {
                if ii!(cond) == 0 {
                    pc = target as usize;
                }
            }
            Instr::TripCount { dst, lo, hi, step } => {
                ii!(dst) = trip_count(ii!(lo), ii!(hi), ii!(step))?
            }
            Instr::EnterPar { region } => return Ok(Exit::Par { region, resume: pc }),
            Instr::Halt => return Ok(Exit::Done),
        }
    }
}

fn int_fault(op: BinOp, x: i64, y: i64) -> ExecError {
    int_bin(op, x, y).expect_err("operands the operation rejects")
}
