//! Allocation ceiling of the execution hot path.
//!
//! The adjoint ÷ primal ratios the repo reports are ratios of
//! `NativeEngine::run_with` times, so anything a run does besides the
//! program's own memory traffic — copying bound arrays into the engine,
//! allocating an accumulator per reduced array — lands in numerator and
//! denominator alike and bends every ratio. The bytes a warm run asks the
//! allocator for are a clock-free measure of exactly that: they repeat
//! from run to run and from host to host. This test runs stencil r=8
//! (primal, adj-FormAD, adj-reduction) and LBM-exec adj-reduction at one
//! thread on their AOT kernels — host code on the interpreter's closures,
//! regions on the kernel — at a size `n` and at `4n`, and holds
//! each warm run to the same number of bytes at both sizes, and that
//! number to [`WARM_RUN_BYTES`]. A run that clones its bindings allocates
//! 8 bytes per element of every bound array and fails both.
//!
//! The only test in this binary: the counter is per thread, but a quiet
//! process keeps the numbers easy to reason about.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use formad_bench::versions::{adjoint_bindings, ProgramVersions};
use formad_ir::Program;
use formad_kernels::{LbmExecCase, StencilCase};
use formad_machine::{compile, load_or_compile, lower, Bindings, NativeEngine};

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a plain thread-local integer with no destructor, so touching
// it from inside the allocator cannot allocate or re-enter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.with(|n| n.set(n.get() + layout.size() as u64));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.with(|n| n.set(n.get() + new_size as u64));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes this thread asked the allocator for while running `f`.
fn bytes_in(f: impl FnOnce()) -> u64 {
    let before = BYTES.with(Cell::get);
    f();
    BYTES.with(Cell::get) - before
}

/// What a warm run allocates: nothing. Every buffer a run needs is
/// the caller's (the bound arrays, used in place) or the engine's (kept
/// from the warm-up run). Before PR 19 the smallest cell here, the
/// stencil primal on bytecode, allocated 17 568 bytes at `n` and 66 720
/// at `4n`; the largest, LBM-exec adj-reduction, 1.5 MB and 6.1 MB.
const WARM_RUN_BYTES: u64 = 0;

/// The cells at `scale` × the base size, as (name, program, bindings).
fn cells(scale: usize) -> Vec<(String, Program, Bindings)> {
    let st = StencilCase::large(1024 * scale, 1);
    let st_v = ProgramVersions::generate(
        &st.ir(),
        StencilCase::independents(),
        StencilCase::dependents(),
    );
    let st_base = st.bindings(7);
    let st_adj = adjoint_bindings(
        &st_v.primal,
        &st_base,
        StencilCase::independents(),
        StencilCase::dependents(),
    );
    let lbm = LbmExecCase::new(400 * scale, 448 * scale);
    let lbm_v = ProgramVersions::generate(
        &lbm.ir(),
        LbmExecCase::independents(),
        LbmExecCase::dependents(),
    );
    let lbm_adj = adjoint_bindings(
        &lbm_v.primal,
        &lbm.bindings(7),
        LbmExecCase::independents(),
        LbmExecCase::dependents(),
    );
    vec![
        ("stencil r=8 primal".into(), st_v.primal, st_base),
        (
            "stencil r=8 adj-FormAD".into(),
            st_v.adj_formad,
            st_adj.clone(),
        ),
        (
            "stencil r=8 adj-reduction".into(),
            st_v.adj_reduction,
            st_adj,
        ),
        (
            "LBM-exec adj-reduction".into(),
            lbm_v.adj_reduction,
            lbm_adj,
        ),
    ]
}

/// Bytes one warm `run_with` of each cell allocates on its AOT kernel.
fn warm_run_bytes(engine: &mut NativeEngine, scale: usize) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (name, prog, bind) in cells(scale) {
        let lp = lower(&prog, &bind).expect("kernel lowers");
        let bc = compile(&lp, &prog).expect("host program builds");
        let aot = load_or_compile(&lp, &bc).expect("AOT must build in-tree");
        let kernel = Some(&*aot);
        let mut warm_up = bind.clone();
        engine
            .run_with(&bc, kernel, &mut warm_up)
            .expect("warm-up run");
        let mut b = bind.clone();
        let bytes = bytes_in(|| engine.run_with(&bc, kernel, &mut b).expect("warm run"));
        assert!(
            warm_up
                .first_difference(&b, formad_machine::Compare::Bitwise)
                .is_none(),
            "{name} [aot]: the warm run computed something else"
        );
        out.push((format!("{name} [aot]"), bytes));
    }
    out
}

#[test]
fn a_warm_run_allocates_nothing_at_any_size() {
    // One logical thread: regions run on the calling thread, whose
    // counter this is.
    let mut engine = NativeEngine::new(1);
    let at_n = warm_run_bytes(&mut engine, 1);
    let at_4n = warm_run_bytes(&mut engine, 4);
    for ((name, small), (_, large)) in at_n.iter().zip(&at_4n) {
        println!("{name}: {small} bytes per warm run at n, {large} at 4n");
        assert_eq!(
            small, large,
            "{name}: a warm run's allocation grows with the arrays"
        );
        assert_eq!(
            *large, WARM_RUN_BYTES,
            "{name}: a warm run allocates more than the engine's buffers hold"
        );
    }
}
