//! AOT native backend: compile lowered parallel regions to a real
//! shared object and run them through [`crate::exec::NativeEngine`].
//!
//! Pipeline: [`codegen::generate_source`] emits one specialized Rust
//! function per parallel region; the source is hashed (FNV-1a × 2,
//! 128 bits — the hash covers the embedded ABI text, so an ABI bump
//! changes every key) and the hash is compiled into the source as
//! `formad_aot_source_hash()`. A build is two steps: `rustc
//! --emit=obj` compiles the source into one object in the kernel cache
//! directory, and `ld -shared -z relro -z now --gc-sections` links that
//! object alone into `formad_aot_<hash>.so`; the object is deleted
//! whether the build succeeds or not. rustc's own cdylib link would run
//! the `cc` driver over the `core` and `compiler_builtins` archives and
//! a version script, for a kernel whose only imports are `abort` and the
//! libm functions it calls. Those imports resolve from the host process,
//! which has libc and libm loaded, when `dlopen(RTLD_NOW)` loads the
//! `.so`; a symbol that does not resolve fails the load. The `ld` line
//! names libm only for a kernel that calls it, and only for its symbol
//! versions ([`link_shared`]). The loader
//! then checks that the artifact's ABI version and source hash are the
//! ones expected, and the region functions are dispatched by
//! [`NativeEngine::run_with`] with the interpreter's chunk schedule,
//! private-copy preparation, and reduction merge order — which is why
//! results stay inside the determinism contract
//! ([`crate::differential`]): bitwise identical to the interpreter for
//! every program without a shared atomic increment.
//!
//! Cache directory resolution: `FORMAD_AOT_DIR` env var, else
//! `$CARGO_TARGET_DIR/formad-aot`, else a `formad-aot` directory inside
//! the nearest `target` ancestor of the running executable, else the
//! system temp dir. The directory follows the stores' one trust rule,
//! [`formad_ir::store::private_dir`]: it is created owner-only (mode
//! 0700), and one that is group- or world-writable or owned by another
//! user is refused, because its artifacts are code this process runs.
//! The generated `.rs` is kept beside the `.so` for inspection and CI
//! artifact upload. Artifacts are written via temp-file + rename so
//! concurrent processes never observe a torn `.so`. Loaded libraries are
//! never `dlclose`d (region functions must stay callable for the process
//! lifetime); a process-wide registry dedups loads by hash.
//!
//! Failure contract: every error here is an [`AotError`] the caller is
//! expected to *degrade* on — [`run_aot`] and the CLI/service wire-ups
//! run the program's regions on the interpreter's path instead, report
//! the reason, and still return the results the contract promises. A missing `ld` degrades
//! like a missing `rustc`. Test hook: `FORMAD_AOT_RUSTC`
//! overrides the compiler binary, so pointing it at a nonexistent path
//! forces the compile-failure path deterministically. Without it the
//! compiler is `<sysroot>/bin/rustc` of the `rustc` on `PATH`, and the
//! linker is the first `ld` on `PATH`; each is resolved once per process.

pub mod abi;
mod codegen;

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use formad_ir::{store, Program};

use crate::bindings::{Bindings, ExecError};
use crate::exec::{BcProgram, NativeEngine, NativeProgram};
use crate::lower::LProgram;

pub use codegen::generate_source;

/// Signature of a generated region entry point.
pub type RegionFn = unsafe extern "C" fn(*mut abi::AotEnv) -> i32;

/// A loaded AOT kernel: one entry point per parallel region of one
/// lowered program, plus the cache paths it came from.
pub struct AotKernel {
    regions: Vec<RegionFn>,
    hash: String,
    lib_path: PathBuf,
    source_path: PathBuf,
    /// Leaked-on-purpose dlopen handle (never closed — see module docs).
    _lib: dl::Lib,
}

impl AotKernel {
    /// Entry point of region `k`, if the kernel has one.
    pub fn region(&self, k: usize) -> Option<RegionFn> {
        self.regions.get(k).copied()
    }

    /// Number of region entry points.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// 128-bit source hash (the cache key).
    pub fn hash(&self) -> &str {
        &self.hash
    }

    /// Path of the loaded shared object.
    pub fn lib_path(&self) -> &Path {
        &self.lib_path
    }

    /// Path of the generated Rust source kept beside the artifact.
    pub fn source_path(&self) -> &Path {
        &self.source_path
    }
}

/// Why an AOT kernel could not be produced or loaded. Callers degrade to
/// the interpreter's semantics on every variant.
#[derive(Debug, Clone)]
pub enum AotError {
    /// The lowered program has a shape codegen does not handle.
    Codegen(String),
    /// Filesystem trouble in the cache directory.
    Io(String),
    /// `rustc` failed (or could not be spawned).
    Compile(String),
    /// No `ld` on `PATH`, or `ld` failed (or could not be spawned).
    Link(String),
    /// `dlopen`/`dlsym` failed, or the artifact's ABI or source hash
    /// disagrees.
    Load(String),
}

impl fmt::Display for AotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AotError::Codegen(m) => write!(f, "aot codegen: {m}"),
            AotError::Io(m) => write!(f, "aot cache: {m}"),
            AotError::Compile(m) => write!(f, "aot compile: {m}"),
            AotError::Link(m) => write!(f, "aot link: {m}"),
            AotError::Load(m) => write!(f, "aot load: {m}"),
        }
    }
}

impl std::error::Error for AotError {}

// ---- stats ----

struct Stats {
    compiles: AtomicU64,
    disk_hits: AtomicU64,
    cache_hits: AtomicU64,
    failures: AtomicU64,
}

static STATS: Stats = Stats {
    compiles: AtomicU64::new(0),
    disk_hits: AtomicU64::new(0),
    cache_hits: AtomicU64::new(0),
    failures: AtomicU64::new(0),
};

/// Process-wide AOT activity counters (reported by `/v1/status`).
#[derive(Debug, Clone, Copy, Default)]
pub struct AotStats {
    /// Artifacts built by invoking `rustc`.
    pub compiles: u64,
    /// Artifacts found prebuilt in the cache directory.
    pub disk_hits: u64,
    /// Lookups served by the in-process registry.
    pub cache_hits: u64,
    /// Codegen/compile/load failures (each one degraded to the interpreter).
    pub failures: u64,
}

/// Snapshot the process-wide counters.
pub fn stats() -> AotStats {
    AotStats {
        compiles: STATS.compiles.load(Ordering::Relaxed),
        disk_hits: STATS.disk_hits.load(Ordering::Relaxed),
        cache_hits: STATS.cache_hits.load(Ordering::Relaxed),
        failures: STATS.failures.load(Ordering::Relaxed),
    }
}

// ---- cache ----

/// The kernel cache directory (see module docs for the resolution
/// order). Not created until an artifact is written, and then by
/// [`store::private_dir`].
pub fn cache_dir() -> PathBuf {
    if let Some(d) = std::env::var_os("FORMAD_AOT_DIR") {
        if !d.is_empty() {
            return PathBuf::from(d);
        }
    }
    if let Some(d) = std::env::var_os("CARGO_TARGET_DIR") {
        if !d.is_empty() {
            return PathBuf::from(d).join("formad-aot");
        }
    }
    if let Ok(exe) = std::env::current_exe() {
        for anc in exe.ancestors() {
            if anc.file_name().is_some_and(|n| n == "target") {
                return anc.join("formad-aot");
            }
        }
    }
    std::env::temp_dir().join("formad-aot")
}

fn registry() -> &'static Mutex<HashMap<String, Arc<AotKernel>>> {
    static REG: OnceLock<Mutex<HashMap<String, Arc<AotKernel>>>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The compiler to spawn: `FORMAD_AOT_RUSTC` if set (read on every
/// call), else the toolchain's own `bin/rustc`, resolved once per
/// process. `rustc` on `PATH` is usually the rustup proxy, which works
/// out the active toolchain again on every spawn — ≈ 10 ms of each
/// build here, against ≈ 19 ms once for the `--print sysroot` that finds
/// the real binary.
fn rustc_bin() -> std::ffi::OsString {
    if let Some(bin) = std::env::var_os("FORMAD_AOT_RUSTC") {
        return bin;
    }
    static TOOLCHAIN_RUSTC: OnceLock<std::ffi::OsString> = OnceLock::new();
    TOOLCHAIN_RUSTC
        .get_or_init(|| {
            std::process::Command::new("rustc")
                .args(["--print", "sysroot"])
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| PathBuf::from(String::from_utf8_lossy(&o.stdout).trim()).join("bin/rustc"))
                .filter(|bin| bin.is_file())
                .map_or_else(|| "rustc".into(), PathBuf::into_os_string)
        })
        .clone()
}

/// The `rustc` flags every kernel is built with, input and output paths
/// aside: generated code is always optimized and wraps on integer
/// overflow, as the host backends do in every build profile, and aborts on a
/// panic, which a `no_std` crate must. Public so that a lint gate can
/// compile exactly what [`load_or_compile`] compiles.
pub fn kernel_rustc_flags() -> &'static [&'static str] {
    &[
        "--edition=2021",
        "--crate-type=cdylib",
        "--crate-name=formad_aot_kernel",
        "-Copt-level=3",
        "-Cpanic=abort",
        "-Ccodegen-units=1",
        "-Cdebug-assertions=no",
    ]
}

/// The linker: the first `ld` on `PATH`, resolved once per process.
fn ld_bin() -> Option<&'static Path> {
    static LD: OnceLock<Option<PathBuf>> = OnceLock::new();
    LD.get_or_init(|| {
        let path = std::env::var_os("PATH")?;
        std::env::split_paths(&path)
            .map(|dir| dir.join("ld"))
            .find(|ld| ld.is_file())
    })
    .as_deref()
}

/// Build `src` into a shared object at `out` (temp + rename): `rustc`
/// emits the kernel's one object beside `out`, and `ld` links it, with
/// libm when `libm`. The object is removed on every path.
fn compile_cdylib(src: &Path, out: &Path, libm: bool) -> Result<(), AotError> {
    // rustc names its intermediate files after the output's stem (up to
    // the first dot), so the process id goes before the extension.
    let stem = out.file_stem().unwrap_or_default().to_string_lossy();
    let pid = std::process::id();
    let obj = out.with_file_name(format!("{stem}_{pid}.o"));
    let tmp = out.with_extension(format!("so.{pid}.tmp"));
    let built = emit_object(src, &obj).and_then(|()| link_shared(&obj, &tmp, libm));
    let _ = std::fs::remove_file(&obj);
    if let Err(e) = built {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    std::fs::rename(&tmp, out).map_err(|e| AotError::Io(format!("rename {}: {e}", out.display())))
}

/// rustc's or ld's stderr, cut to 2000 bytes.
fn diagnostic(stderr: &[u8]) -> String {
    let mut msg = String::from_utf8_lossy(stderr).into_owned();
    if msg.len() > 2000 {
        // `truncate` panics inside a character, and rustc echoes the
        // generated source's non-ASCII header comment in diagnostics.
        msg.truncate(msg.floor_char_boundary(2000));
        msg.push_str(" …");
    }
    msg
}

/// `rustc --emit=obj`: codegen only. rustc does not link, so neither the
/// `cc` driver nor the `core` and `compiler_builtins` archives take part.
fn emit_object(src: &Path, obj: &Path) -> Result<(), AotError> {
    let out = std::process::Command::new(rustc_bin())
        .args(kernel_rustc_flags())
        .arg("--emit=obj")
        .arg("-o")
        .arg(obj)
        .arg(src)
        .output()
        .map_err(|e| {
            let bin = rustc_bin();
            AotError::Compile(format!("failed to spawn `{}`: {e}", bin.to_string_lossy()))
        })?;
    if !out.status.success() {
        return Err(AotError::Compile(format!(
            "rustc failed: {}",
            diagnostic(&out.stderr)
        )));
    }
    Ok(())
}

/// `ld -shared` of the one object. The object's only imports are
/// `abort` and the libm functions it calls, and all of them resolve from
/// the host process at `dlopen`. libm is still named when the kernel
/// calls it, for its symbol versions: glibc defines `exp`, `log` and
/// `pow` twice, and an unversioned reference binds to the oldest
/// definition, a wrapper whose NaNs differ in their bits from those of
/// the one the interpreters call.
fn link_shared(obj: &Path, so: &Path, libm: bool) -> Result<(), AotError> {
    let ld = ld_bin().ok_or_else(|| AotError::Link("no `ld` linker on PATH".into()))?;
    let out = std::process::Command::new(ld)
        .args(["-shared", "-z", "relro", "-z", "now", "--gc-sections", "-o"])
        .arg(so)
        .arg(obj)
        .args(libm.then_some("-lm"))
        .output()
        .map_err(|e| AotError::Link(format!("failed to spawn `{}`: {e}", ld.display())))?;
    if !out.status.success() {
        return Err(AotError::Link(format!(
            "ld failed: {}",
            diagnostic(&out.stderr)
        )));
    }
    Ok(())
}

// ---- loading ----

#[cfg(unix)]
mod dl {
    use std::ffi::{c_char, c_int, c_void, CStr, CString};

    // glibc ≥ 2.34 (and musl) fold libdl into libc, so plain extern
    // declarations resolve without an explicit `-ldl`.
    extern "C" {
        fn dlopen(file: *const c_char, mode: c_int) -> *mut c_void;
        fn dlsym(handle: *mut c_void, sym: *const c_char) -> *mut c_void;
        fn dlerror() -> *mut c_char;
    }

    const RTLD_NOW: c_int = 2;

    /// An open shared object. Never closed; see the module docs.
    pub struct Lib(*mut c_void);

    unsafe impl Send for Lib {}
    unsafe impl Sync for Lib {}

    fn last_error() -> String {
        unsafe {
            let p = dlerror();
            if p.is_null() {
                "unknown dl error".to_string()
            } else {
                CStr::from_ptr(p).to_string_lossy().into_owned()
            }
        }
    }

    pub fn open(path: &std::path::Path) -> Result<Lib, String> {
        let Some(s) = path.to_str() else {
            return Err(format!("non-UTF-8 artifact path {}", path.display()));
        };
        let c = CString::new(s).map_err(|_| "NUL in artifact path".to_string())?;
        unsafe {
            dlerror();
            let h = dlopen(c.as_ptr(), RTLD_NOW);
            if h.is_null() {
                Err(last_error())
            } else {
                Ok(Lib(h))
            }
        }
    }

    pub fn sym(lib: &Lib, name: &str) -> Result<*mut c_void, String> {
        let c = CString::new(name).expect("symbol names have no NUL");
        unsafe {
            dlerror();
            let p = dlsym(lib.0, c.as_ptr());
            if p.is_null() {
                Err(format!("symbol `{name}`: {}", last_error()))
            } else {
                Ok(p)
            }
        }
    }
}

#[cfg(not(unix))]
mod dl {
    use std::ffi::c_void;

    pub struct Lib(());

    pub fn open(_path: &std::path::Path) -> Result<Lib, String> {
        Err("AOT kernel loading is only supported on unix hosts".to_string())
    }

    pub fn sym(_lib: &Lib, _name: &str) -> Result<*mut c_void, String> {
        Err("AOT kernel loading is only supported on unix hosts".to_string())
    }
}

/// Generate, build (or reuse), and load the AOT kernel for a lowered
/// program. Compile `bc` from the same `lp` first — the host program
/// runs the kernel's regions *and* its build performs the region-legality
/// check codegen assumes (no shared scalar written in a region).
pub fn load_or_compile(lp: &LProgram, bc: &BcProgram) -> Result<Arc<AotKernel>, AotError> {
    let res = load_or_compile_inner(lp, bc);
    if res.is_err() {
        STATS.failures.fetch_add(1, Ordering::Relaxed);
    }
    res
}

fn load_or_compile_inner(lp: &LProgram, bc: &BcProgram) -> Result<Arc<AotKernel>, AotError> {
    let (src, hash) = codegen::generate(lp).map_err(AotError::Codegen)?;
    // Hold the registry lock across the build so concurrent callers of
    // the same program compile once. Kernel builds are rare and bounded;
    // contention here is not a hot path.
    let mut reg = registry().lock().unwrap_or_else(|p| p.into_inner());
    if let Some(k) = reg.get(&hash) {
        STATS.cache_hits.fetch_add(1, Ordering::Relaxed);
        return Ok(Arc::clone(k));
    }
    let dir = cache_dir();
    store::private_dir(&dir).map_err(AotError::Io)?;
    let so = dir.join(format!("formad_aot_{hash}.so"));
    let rs = dir.join(format!("formad_aot_{hash}.rs"));
    let write_rs = || {
        store::write_atomic(&rs, src.as_bytes())
            .map_err(|e| AotError::Io(format!("write {}: {e}", rs.display())))
    };
    if so.exists() {
        // Keep the source beside the artifact even when another process
        // built it, so CI can always upload the pair.
        if !rs.exists() {
            write_rs()?;
        }
        STATS.disk_hits.fetch_add(1, Ordering::Relaxed);
    } else {
        write_rs()?;
        compile_cdylib(&rs, &so, src.contains(codegen::LIBM_LINK))?;
        STATS.compiles.fetch_add(1, Ordering::Relaxed);
    }
    let lib = dl::open(&so).map_err(AotError::Load)?;
    let abi_sym = dl::sym(&lib, "formad_aot_abi").map_err(AotError::Load)?;
    let abi_fn: extern "C" fn() -> u32 = unsafe { std::mem::transmute(abi_sym) };
    let got = abi_fn();
    if got != abi::FORMAD_AOT_ABI {
        return Err(AotError::Load(format!(
            "artifact ABI {got} != expected {}",
            abi::FORMAD_AOT_ABI
        )));
    }
    // The file name says which source the artifact was built from; the
    // artifact itself must agree before any of its code runs a region.
    let key_sym = dl::sym(&lib, "formad_aot_source_hash").map_err(AotError::Load)?;
    // SAFETY: an artifact of this ABI defines the symbol as
    // `extern "C" fn() -> *const u8`, returning a `'static` byte literal
    // of the key's 32 hex digits (`codegen::generate`), as long as `hash`.
    let key_fn: extern "C" fn() -> *const u8 = unsafe { std::mem::transmute(key_sym) };
    let got = unsafe { std::slice::from_raw_parts(key_fn(), hash.len()) };
    if got != hash.as_bytes() {
        return Err(AotError::Load(format!(
            "artifact source hash {} != expected {hash}",
            String::from_utf8_lossy(got)
        )));
    }
    let cnt_sym = dl::sym(&lib, "formad_aot_region_count").map_err(AotError::Load)?;
    let cnt_fn: extern "C" fn() -> u32 = unsafe { std::mem::transmute(cnt_sym) };
    let n = cnt_fn() as usize;
    if n != bc.region_count() {
        return Err(AotError::Load(format!(
            "artifact has {n} regions, program has {}",
            bc.region_count()
        )));
    }
    let mut regions = Vec::with_capacity(n);
    for k in 0..n {
        let p = dl::sym(&lib, &format!("formad_region_{k}")).map_err(AotError::Load)?;
        let f: RegionFn = unsafe { std::mem::transmute(p) };
        regions.push(f);
    }
    let kernel = Arc::new(AotKernel {
        regions,
        hash: hash.clone(),
        lib_path: so,
        source_path: rs,
        _lib: lib,
    });
    reg.insert(hash, Arc::clone(&kernel));
    Ok(kernel)
}

/// Compile `prog` and run it on the AOT backend with `threads` logical
/// threads — the native counterpart of [`crate::interp::run`]. On any
/// AOT failure the regions run on the interpreter's path (the
/// determinism contract holds either way) and the fallback reason is
/// returned for reporting.
pub fn run_aot(
    prog: &Program,
    bind: &mut Bindings,
    threads: usize,
) -> Result<Option<String>, ExecError> {
    let np = NativeProgram::compile(prog, bind)?;
    NativeEngine::new(threads).run_program(&np, bind)?;
    Ok(np.aot_fallback)
}

// ---- host-side tape growth ----

/// Grow callback for the real tape: adopt the dylib-side length, at
/// least double the capacity, and hand the refreshed pointer back.
///
/// # Safety
/// `env.tape_r.host` must point at the live `Vec<f64>` backing the tape
/// and `env.tape_r.len` must count initialized elements — both upheld by
/// `NativeEngine::chunk_aot`'s env construction and the generated push sequence.
pub(crate) unsafe extern "C" fn grow_tape_r(env: *mut abi::AotEnv) {
    let e = &mut *env;
    let v = &mut *(e.tape_r.host as *mut Vec<f64>);
    v.set_len(e.tape_r.len);
    v.reserve(v.capacity().max(64));
    e.tape_r.ptr = v.as_mut_ptr() as *mut u8;
    e.tape_r.cap = v.capacity();
}

/// Grow callback for the int tape; see [`grow_tape_r`].
///
/// # Safety
/// Same contract as [`grow_tape_r`], for `env.tape_i`.
pub(crate) unsafe extern "C" fn grow_tape_i(env: *mut abi::AotEnv) {
    let e = &mut *env;
    let v = &mut *(e.tape_i.host as *mut Vec<i64>);
    v.set_len(e.tape_i.len);
    v.reserve(v.capacity().max(64));
    e.tape_i.ptr = v.as_mut_ptr() as *mut u8;
    e.tape_i.cap = v.capacity();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::compile;
    use crate::interp::{run as run_sim, Machine};
    use crate::lower::lower;
    use formad_ir::parse_program;

    const SAXPY: &str = r#"
subroutine saxpy_aot_unit(n, a, x, y, s)
  integer, intent(in) :: n
  real, intent(in) :: a
  real, intent(in) :: x(n)
  real, intent(inout) :: y(n)
  real, intent(out) :: s
  integer :: i
  s = 0.0
  !$omp parallel do shared(x, y) reduction(+: s)
  do i = 1, n
    y(i) = y(i) + a * x(i)
    s = s + y(i)
  end do
end subroutine
"#;

    #[test]
    fn aot_matches_sim_end_to_end() {
        let prog = parse_program(SAXPY).unwrap();
        let sets = vec![
            ("n".to_string(), "257".to_string()),
            ("a".to_string(), "1.5".to_string()),
        ];
        for threads in [1usize, 4] {
            let mut sim = crate::driver::bind_params(&prog, &sets, 11).unwrap();
            let mut aot = sim.clone();
            run_sim(&prog, &mut sim, &Machine::with_threads(threads)).unwrap();
            let fallback = run_aot(&prog, &mut aot, threads).unwrap();
            assert_eq!(fallback, None, "AOT must actually run in-tree");
            assert_eq!(
                sim.real_scalars["s"].to_bits(),
                aot.real_scalars["s"].to_bits()
            );
            let (ys, ya) = (&sim.real_arrays["y"], &aot.real_arrays["y"]);
            assert_eq!(ys.len(), ya.len());
            for (p, q) in ys.iter().zip(ya) {
                assert_eq!(p.to_bits(), q.to_bits());
            }
        }
    }

    #[test]
    fn second_load_hits_the_registry() {
        let prog = parse_program(SAXPY).unwrap();
        let sets = vec![
            ("n".to_string(), "64".to_string()),
            ("a".into(), "2".into()),
        ];
        let bind = crate::driver::bind_params(&prog, &sets, 1).unwrap();
        let lp = lower(&prog, &bind).unwrap();
        let bc = compile(&lp, &prog).unwrap();
        let k1 = load_or_compile(&lp, &bc).expect("first load");
        let before = stats().cache_hits;
        let k2 = load_or_compile(&lp, &bc).expect("second load");
        assert_eq!(k1.hash(), k2.hash());
        assert!(stats().cache_hits > before);
        assert_eq!(k1.region_count(), 1);
        // A freestanding kernel: `core` and libm symbols, no `std` image.
        let bytes = std::fs::metadata(k1.lib_path()).expect("artifact").len();
        assert!(bytes <= 64 << 10, "{bytes}-byte cdylib");
        assert!(k1.source_path().exists());
    }
}
