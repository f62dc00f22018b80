// AOT kernel ABI — the contract between the host executor and a
// generated cdylib. This file is embedded *verbatim* into every
// generated kernel source (see `codegen.rs`), so the host-side and
// dylib-side struct layouts are the same text by construction and can
// never drift. Keep it self-contained: no `use`, no crate paths, only
// `core::`.
//
// Versioning: bump `FORMAD_AOT_ABI` whenever the layout or the error
// protocol changes. The loader refuses any artifact whose exported
// `formad_aot_abi()` disagrees, so stale cache entries degrade to the
// bytecode backend instead of misreading memory.

/// ABI version stamped into every artifact.
pub const FORMAD_AOT_ABI: u32 = 2;

/// Error codes a region function may return. `0` is success; everything
/// else maps 1:1 onto an interpreter `ExecError` message (the host owns
/// the formatting — the dylib only reports the code and, for bounds
/// errors, the offending value/array/dimension).
pub const AOT_OK: i32 = 0;
pub const AOT_ERR_OOB: i32 = 1;
pub const AOT_ERR_DIV_ZERO: i32 = 2;
pub const AOT_ERR_MOD_ZERO: i32 = 3;
pub const AOT_ERR_NEG_EXP: i32 = 4;
pub const AOT_ERR_POW_OVERFLOW: i32 = 5;
pub const AOT_ERR_ZERO_STEP: i32 = 6;
pub const AOT_ERR_POP_EMPTY_R: i32 = 7;
pub const AOT_ERR_POP_EMPTY_I: i32 = 8;
/// `i64::MIN / -1` and `mod(i64::MIN, -1)`: the one quotient an `i64`
/// cannot hold.
pub const AOT_ERR_DIV_OVERFLOW: i32 = 9;
pub const AOT_ERR_MOD_OVERFLOW: i32 = 10;
/// The host's `step` is not the literal this region was generated for.
/// Both sides read the same lowered loop, so this marks a bug in one of
/// them, not an error of the program being run.
pub const AOT_ERR_STEP_MISMATCH: i32 = 11;

/// One value tape (f64 or i64 elements), shared between the host `Vec`
/// and the generated code. The dylib pushes/pops inline through
/// `ptr`/`len`/`cap`; when a push would exceed `cap` it calls the host
/// grow callback, which reserves more capacity on the backing `Vec`
/// (identified by `host`) and refreshes `ptr`/`cap`. The host syncs the
/// `Vec` length from `len` after every region call.
#[repr(C)]
pub struct AotTape {
    pub ptr: *mut u8,
    pub len: usize,
    pub cap: usize,
    /// Opaque handle of the backing host `Vec` (used by the grow
    /// callback only).
    pub host: *mut core::ffi::c_void,
}

/// Everything one region invocation needs, passed by pointer. One env
/// per logical thread per region call; the host fills it, the generated
/// function reads the geometry and register files, runs its chunk
/// `[a_begin, a_end)` of the iteration space, and reports errors back
/// through `err_*`.
#[repr(C)]
pub struct AotEnv {
    /// Must equal [`FORMAD_AOT_ABI`] (belt-and-braces; the loader also
    /// checks the exported symbol).
    pub abi: u32,
    /// Loop lower bound, step and total iteration count (already
    /// validated nonzero-step by the host).
    pub lo: i64,
    pub step: i64,
    pub count: i64,
    /// This thread's chunk of iteration ranks, `a_begin < a_end`.
    pub a_begin: i64,
    pub a_end: i64,
    /// The thread-private scalar register files (the host's per-worker
    /// scratch copies). Reduction scalars are written back here.
    pub reals: *mut f64,
    pub ints: *mut i64,
    /// Shared array base pointers, indexed by `ArrId`. Real arrays hold
    /// f64 bits, integer arrays hold i64 bits; both travel as `u64`.
    /// A region reads and writes an array plainly or as relaxed atomic
    /// cells, as the lowering's access fact for it says.
    pub arrays: *const *mut u64,
    /// Privatized reduction buffers for this thread, indexed by the
    /// region's reduction-array ordinal.
    pub red_bufs: *const *mut f64,
    pub tape_r: AotTape,
    pub tape_i: AotTape,
    /// Host callbacks growing the respective tape's backing `Vec`.
    pub grow_r: unsafe extern "C" fn(*mut AotEnv),
    pub grow_i: unsafe extern "C" fn(*mut AotEnv),
    /// Bounds-error detail: offending index value, array id, 0-based
    /// dimension. Valid only when the region returned [`AOT_ERR_OOB`].
    pub err_value: i64,
    pub err_arr: u32,
    pub err_dim: u32,
}
