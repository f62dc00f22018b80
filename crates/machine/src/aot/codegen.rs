//! Rust source generation for AOT region kernels.
//!
//! One `formad_region_<k>` function is emitted per parallel region of the
//! lowered program, specialized against everything that is static at
//! compile time: array extents and column-major strides become integer
//! literals, the region-analysis increment discipline (plain store /
//! atomic CAS / privatized reduction buffer) is compiled in rather than
//! branched on per access, each array is read and written plainly or
//! through relaxed atomic cells as the region's access fact says, and a
//! region whose step is a literal in the
//! lowered tree — every forward loop and every reversed adjoint loop —
//! walks its chunk with that literal as its stride.
//!
//! A kernel is a **freestanding crate**: `#![no_std]`, so the cdylib
//! links `core` and nothing of `std` — a few KiB instead of 4.3 MB, and
//! the link step of a cold build more than halved (EXPERIMENTS.md, "AOT
//! cold start"). What it needs from outside it names itself:
//!
//! - the transcendentals are calls into libm (`sin cos exp log sqrt tanh
//!   pow`) — the symbols `f64::sin`, `ln`, `powf` … lower to on this
//!   target, so results stay bitwise equal to the interpreters'. Only
//!   the functions a kernel calls are declared (an unused declaration is
//!   a `dead_code` warning, and a kernel that calls none does not link
//!   libm at all). `abs`, `min`, `max` and `checked_*` are `core`;
//! - a `#[panic_handler]` that calls libc `abort()`. No generated
//!   operation can panic (every index, divisor, exponent and tape pop is
//!   checked and reported through an `AOT_ERR_*` code, integer
//!   arithmetic wraps), so it exists to satisfy the language, and aborts
//!   rather than hangs if that ever stops being true;
//! - a `rust_eh_personality` stub: the precompiled `core` is built
//!   unwinding, so whatever is linked from it rather than inlined names
//!   that symbol in its unwind tables and `dlopen` refuses the kernel
//!   without a definition. One `x % y` in place of `checked_rem` is
//!   enough: its overflow panic links `core::panicking` (and 600 KB of
//!   formatting with it). Nothing is linked today; the stub keeps
//!   loading from depending on that.
//!
//! What a region *is* comes from the lowering's plan
//! ([`crate::lower`]), the same one the simulator and the bytecode engine
//! read: the regions and their numbering ([`LProgram::regions`]), each
//! array's extents and strides ([`crate::lower::ArrMeta`]), which
//! accesses go to a private reduction copy (`LRegion::red_slot`), which
//! arrays are plain and which are cells (`LRegion::access`), the
//! fused increment (`fused_increment`) and the chunk walk of
//! `Schedule::values`. The code must stay **bitwise identical** to the
//! bytecode engine's, so it also keeps its evaluation rules:
//!
//! - the same evaluation order everywhere (offsets before right-hand
//!   sides, bounds checks per index in index order, `lo` → `hi` → `step`
//!   for sequential loops, short-circuit `&&`/`||` in conditions);
//! - the same floating-point association (the fused increment computes
//!   `load + e`, atomic adds CAS with `cur + v`);
//! - the same arithmetic on every access, plain or cell: a relaxed
//!   atomic load or store is the plain one a race cannot tear, so the
//!   access fact changes no value; `!$omp atomic` is an acquire-release
//!   CAS on a cell.
//!
//! Runtime errors do not unwind across the FFI boundary: every error
//! site records its details in the env and `break`s out of a labeled
//! block with an `AOT_ERR_*` code; the host re-renders the exact
//! interpreter message.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use formad_ir::{BinOp, CmpOp, Intrinsic, Ty};

use crate::lower::{fused_increment, Access, ArrId, LBool, LExpr, LFor, LProgram, LRegion, LStmt};

/// The shared ABI definition, embedded verbatim into every generated
/// kernel so both sides of the FFI boundary compile the same text.
const ABI_SRC: &str = include_str!("abi.rs");

/// What a `no_std` cdylib must bring itself (module docs): the panic
/// handler and the personality symbol `core`'s unwind tables name.
const FREESTANDING_SRC: &str = r#"
extern "C" {
    fn abort() -> !;
}

#[panic_handler]
fn panic(_: &core::panic::PanicInfo) -> ! {
    unsafe { abort() }
}

#[no_mangle]
pub extern "C" fn rust_eh_personality() {}
"#;

/// Generate the complete cdylib source for `lp`. Fails (→ bytecode
/// fallback) only on programs the bytecode compiler would reject too.
pub fn generate_source(lp: &LProgram) -> Result<String, String> {
    let mut g = Gen {
        lp,
        region: None,
        libm: BTreeSet::new(),
        tmp: 0,
        out: String::new(),
        ind: 0,
    };
    for (k, r) in lp.regions.iter().enumerate() {
        g.out.push('\n');
        g.region_fn(k, r)?;
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "// AOT kernel for `{}` — generated by formad-machine, do not edit.",
        lp.name
    );
    out.push_str("#![no_std]\n");
    out.push_str(
        "#![allow(unused_variables, unused_mut, unused_imports, unused_parens, \
         unused_assignments, unused_braces)]\n",
    );
    out.push_str("#![allow(clippy::all)]\n\n");
    out.push_str("use core::sync::atomic::{AtomicI64, AtomicU64, Ordering};\n\n");
    out.push_str(ABI_SRC);
    out.push_str(FREESTANDING_SRC);
    if !g.libm.is_empty() {
        out.push_str("\n#[link(name = \"m\")]\nextern \"C\" {\n");
        for name in &g.libm {
            let y = if *name == "pow" { ", y: f64" } else { "" };
            let _ = writeln!(out, "    fn {name}(x: f64{y}) -> f64;");
        }
        out.push_str("}\n");
    }
    out.push_str(
        "\n#[no_mangle]\npub extern \"C\" fn formad_aot_abi() -> u32 { FORMAD_AOT_ABI }\n\n",
    );
    let _ = writeln!(
        out,
        "#[no_mangle]\npub extern \"C\" fn formad_aot_region_count() -> u32 {{ {} }}",
        lp.regions.len()
    );
    out.push_str(&g.out);
    Ok(out)
}

struct Gen<'a> {
    lp: &'a LProgram,
    /// The region being generated.
    region: Option<&'a LRegion>,
    /// The libm functions the regions generated so far call.
    libm: BTreeSet<&'static str>,
    tmp: usize,
    out: String,
    ind: usize,
}

impl<'a> Gen<'a> {
    fn line(&mut self, s: &str) {
        for _ in 0..self.ind {
            self.out.push_str("    ");
        }
        self.out.push_str(s);
        self.out.push('\n');
    }

    fn t(&mut self) -> String {
        self.tmp += 1;
        format!("t{}", self.tmp)
    }

    /// The private reduction copy `rb{j}` an access of `id` goes to, if
    /// the region reduces `id` — compiled in as plain buffer arithmetic;
    /// everything else goes to shared atomics.
    fn red_slot(&self, id: ArrId) -> Option<usize> {
        self.region.and_then(|r| r.red_slot(id))
    }

    fn region_fn(&mut self, k: usize, p: &'a LRegion) -> Result<(), String> {
        let f = &p.for_loop;
        self.tmp = 0;
        self.region = Some(p);
        self.line(&format!(
            "/// Region {k} of `{}` — runs this thread's chunk of ranks.",
            self.lp.name
        ));
        self.line("#[no_mangle]");
        self.line(&format!(
            "pub unsafe extern \"C\" fn formad_region_{k}(env: *mut AotEnv) -> i32 {{"
        ));
        self.ind += 1;
        // A literal step is compiled in: the host reads the same `LFor`,
        // so the check cannot fire, and it keeps a host that disagrees
        // from running the wrong stride.
        let (step, first) = match f.step {
            LExpr::ConstI(c) => {
                self.line(&format!(
                    "if (*env).step != {c}i64 {{ return AOT_ERR_STEP_MISMATCH; }}"
                ));
                let first = if c > 0 {
                    "lo + ab * step"
                } else {
                    "lo + (count - ae) * step"
                };
                (format!("{c}i64"), first)
            }
            _ => (
                "(*env).step".to_string(),
                "if step > 0 { lo + ab * step } else { lo + (count - ae) * step }",
            ),
        };
        // Scalar register files: everything is loaded into locals at
        // entry (the host has already copied the register file into the
        // thread's scratch and identity-initialized reduction slots).
        self.line("let rr: *mut f64 = (*env).reals;");
        self.line("let ri: *mut i64 = (*env).ints;");
        for s in 0..self.lp.n_real_scalars {
            self.line(&format!("let mut sr{s}: f64 = *rr.add({s});"));
        }
        for s in 0..self.lp.n_int_scalars {
            self.line(&format!("let mut si{s}: i64 = *ri.add({s});"));
        }
        for a in 0..self.lp.arrays.len() {
            self.line(&format!("let ap{a}: *mut u64 = *(*env).arrays.add({a});"));
        }
        for j in 0..p.red_arrays.len() {
            self.line(&format!("let rb{j}: *mut f64 = *(*env).red_bufs.add({j});"));
        }
        // Tape cursors cached in locals; synced back in the epilogue and
        // around grow-callback calls.
        self.line("let mut trp: *mut f64 = (*env).tape_r.ptr as *mut f64;");
        self.line("let mut trl: usize = (*env).tape_r.len;");
        self.line("let mut trc: usize = (*env).tape_r.cap;");
        self.line("let mut tip: *mut i64 = (*env).tape_i.ptr as *mut i64;");
        self.line("let mut til: usize = (*env).tape_i.len;");
        self.line("let mut tic: usize = (*env).tape_i.cap;");
        self.line("let lo: i64 = (*env).lo;");
        self.line(&format!("let step: i64 = {step};"));
        self.line("let count: i64 = (*env).count;");
        self.line("let ab: i64 = (*env).a_begin;");
        self.line("let ae: i64 = (*env).a_end;");
        self.line("let rc: i32 = 'body: {");
        self.ind += 1;
        // The chunk loop: `Schedule::values` of ranks `ab..ae` — the
        // first value, then `+step` per processed iteration in *both*
        // loop directions.
        self.line(&format!("let mut v: i64 = {first};"));
        self.line("let mut n: i64 = ae - ab;");
        self.line("while n > 0 {");
        self.ind += 1;
        self.line(&format!("si{} = v;", f.var));
        self.body(&f.body)?;
        self.line("v += step;");
        self.line("n -= 1;");
        self.ind -= 1;
        self.line("}");
        self.line("AOT_OK");
        self.ind -= 1;
        self.line("};");
        // Epilogue (reached on success *and* error breaks): sync tape
        // lengths and write reduction scalars back to the scratch file
        // for the host's ascending-thread merge.
        self.line("(*env).tape_r.len = trl;");
        self.line("(*env).tape_i.len = til;");
        for (_, slot, is_real) in &p.red_scalars {
            if *is_real {
                self.line(&format!("*rr.add({slot}) = sr{slot};"));
            } else {
                self.line(&format!("*ri.add({slot}) = si{slot};"));
            }
        }
        self.line("rc");
        self.ind -= 1;
        self.line("}");
        Ok(())
    }

    fn body(&mut self, body: &[LStmt]) -> Result<(), String> {
        for s in body {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &LStmt) -> Result<(), String> {
        match s {
            LStmt::AssignR(slot, rhs) => {
                let v = self.gen_r(rhs)?;
                self.line(&format!("sr{slot} = {v};"));
            }
            LStmt::AssignI(slot, rhs) => {
                let v = self.gen_i(rhs)?;
                self.line(&format!("si{slot} = {v};"));
            }
            LStmt::AssignElem(id, idx, rhs, _) => {
                // Interpreter order: offset (bounds errors) before rhs.
                let off = self.offset(*id, idx)?;
                match self.lp.arrays[*id as usize].ty {
                    Ty::Real => match fused_increment(*id, idx, rhs) {
                        Some(e) => {
                            let v = self.gen_r(e)?;
                            self.inc_r(*id, &off, &v);
                        }
                        None => {
                            let v = self.gen_r(rhs)?;
                            self.store_r(*id, &off, &v);
                        }
                    },
                    Ty::Int => {
                        let v = self.gen_i(rhs)?;
                        self.store_i(*id, &off, &v);
                    }
                }
            }
            LStmt::AtomicAddElem(id, idx, rhs) => {
                let off = self.offset(*id, idx)?;
                let v = self.gen_r(rhs)?;
                if let Some(j) = self.red_slot(*id) {
                    // Discipline compiled in: the analysis privatized this
                    // array, so the "atomic" is a plain buffer add.
                    self.line(&format!("*rb{j}.add({off} as usize) += {v};"));
                } else {
                    let cell = self.t();
                    let cur = self.t();
                    self.line(&format!(
                        "let {cell}: &AtomicU64 = &*(ap{id}.add({off} as usize) as *const AtomicU64);"
                    ));
                    self.line(&format!(
                        "let mut {cur}: u64 = {cell}.load(Ordering::Relaxed);"
                    ));
                    self.line("loop {");
                    self.ind += 1;
                    let next = self.t();
                    self.line(&format!(
                        "let {next}: u64 = (f64::from_bits({cur}) + {v}).to_bits();"
                    ));
                    self.line(&format!(
                        "match {cell}.compare_exchange_weak({cur}, {next}, Ordering::AcqRel, Ordering::Acquire) {{"
                    ));
                    self.line("    Ok(_) => break,");
                    self.line(&format!("    Err(now) => {cur} = now,"));
                    self.line("}");
                    self.ind -= 1;
                    self.line("}");
                }
            }
            LStmt::If(cond, then_b, else_b) => {
                let c = self.gen_bool(cond)?;
                self.line(&format!("if {c} {{"));
                self.ind += 1;
                self.body(then_b)?;
                self.ind -= 1;
                if else_b.is_empty() {
                    self.line("}");
                } else {
                    self.line("} else {");
                    self.ind += 1;
                    self.body(else_b)?;
                    self.ind -= 1;
                    self.line("}");
                }
            }
            LStmt::For(f) => self.seq_for(f)?,
            LStmt::Parallel(_) => return Err("nested parallel region".into()),
            LStmt::Push(e, ty) => match ty {
                Ty::Real => {
                    let v = self.gen_r(e)?;
                    self.push_r(&v);
                }
                Ty::Int => {
                    let v = self.gen_i(e)?;
                    self.push_i(&v);
                }
            },
            LStmt::PopR(slot) => {
                self.line("if trl == 0 { break 'body AOT_ERR_POP_EMPTY_R; }");
                self.line("trl -= 1;");
                self.line(&format!("sr{slot} = *trp.add(trl);"));
            }
            LStmt::PopI(slot) => {
                self.line("if til == 0 { break 'body AOT_ERR_POP_EMPTY_I; }");
                self.line("til -= 1;");
                self.line(&format!("si{slot} = *tip.add(til);"));
            }
            LStmt::PopElem(id, idx, _) => {
                let off = self.offset(*id, idx)?;
                match self.lp.arrays[*id as usize].ty {
                    Ty::Real => {
                        self.line("if trl == 0 { break 'body AOT_ERR_POP_EMPTY_R; }");
                        self.line("trl -= 1;");
                        let v = self.t();
                        self.line(&format!("let {v}: f64 = *trp.add(trl);"));
                        self.store_r(*id, &off, &v);
                    }
                    Ty::Int => {
                        self.line("if til == 0 { break 'body AOT_ERR_POP_EMPTY_I; }");
                        self.line("til -= 1;");
                        let v = self.t();
                        self.line(&format!("let {v}: i64 = *tip.add(til);"));
                        self.store_i(*id, &off, &v);
                    }
                }
            }
        }
        Ok(())
    }

    /// Sequential loop nested inside a region. Bounds are evaluated once
    /// into fresh locals — in `lo`, `hi`, `step` order like the bytecode
    /// compiler — because the body may overwrite their source scalars.
    fn seq_for(&mut self, f: &LFor) -> Result<(), String> {
        let lo = self.gen_i(&f.lo)?;
        let tlo = self.t();
        self.line(&format!("let {tlo}: i64 = {lo};"));
        let hi = self.gen_i(&f.hi)?;
        let thi = self.t();
        self.line(&format!("let {thi}: i64 = {hi};"));
        let st = self.gen_i(&f.step)?;
        let tst = self.t();
        self.line(&format!("let {tst}: i64 = {st};"));
        self.line(&format!(
            "if {tst} == 0 {{ break 'body AOT_ERR_ZERO_STEP; }}"
        ));
        let v = self.t();
        self.line(&format!("let mut {v}: i64 = {tlo};"));
        self.line(&format!(
            "while (if {tst} > 0 {{ {v} <= {thi} }} else {{ {v} >= {thi} }}) {{"
        ));
        self.ind += 1;
        self.line(&format!("si{} = {v};", f.var));
        self.body(&f.body)?;
        self.line(&format!("{v} += {tst};"));
        self.ind -= 1;
        self.line("}");
        Ok(())
    }

    /// Is array `id` plain in the region being generated?
    fn plain(&self, id: ArrId) -> bool {
        self.region.is_some_and(|r| r.access(id) == Access::Plain)
    }

    /// Real-element store, redirected to the privatized buffer when the
    /// region's analysis reduced this array.
    fn store_r(&mut self, id: ArrId, off: &str, v: &str) {
        if let Some(j) = self.red_slot(id) {
            self.line(&format!("*rb{j}.add({off} as usize) = {v};"));
        } else if self.plain(id) {
            self.line(&format!("{} = {v};", place(id, off, "*mut f64")));
        } else {
            self.line(&format!(
                "{}.store(({v}).to_bits(), Ordering::Relaxed);",
                cell(id, off, "AtomicU64")
            ));
        }
    }

    /// Integer-element store.
    fn store_i(&mut self, id: ArrId, off: &str, v: &str) {
        if self.plain(id) {
            self.line(&format!("{} = {v};", place(id, off, "*mut i64")));
        } else {
            self.line(&format!(
                "{}.store({v}, Ordering::Relaxed);",
                cell(id, off, "AtomicI64")
            ));
        }
    }

    /// The fused increment: load, `+ v`, store, with no synchronization —
    /// the FormAD-proved discipline. Plain when the proof reached the
    /// region, relaxed cells when it did not.
    fn inc_r(&mut self, id: ArrId, off: &str, v: &str) {
        if let Some(j) = self.red_slot(id) {
            self.line(&format!("*rb{j}.add({off} as usize) += {v};"));
        } else if self.plain(id) {
            self.line(&format!("{} += {v};", place(id, off, "*mut f64")));
        } else {
            let cur = self.t();
            let cell = cell(id, off, "AtomicU64");
            self.line(&format!(
                "let {cur}: f64 = f64::from_bits({cell}.load(Ordering::Relaxed));"
            ));
            self.line(&format!(
                "{cell}.store(({cur} + {v}).to_bits(), Ordering::Relaxed);"
            ));
        }
    }

    fn push_r(&mut self, v: &str) {
        self.line(
            "if trl == trc { (*env).tape_r.len = trl; ((*env).grow_r)(env); \
             trp = (*env).tape_r.ptr as *mut f64; trc = (*env).tape_r.cap; }",
        );
        self.line(&format!("*trp.add(trl) = {v};"));
        self.line("trl += 1;");
    }

    fn push_i(&mut self, v: &str) {
        self.line(
            "if til == tic { (*env).tape_i.len = til; ((*env).grow_i)(env); \
             tip = (*env).tape_i.ptr as *mut i64; tic = (*env).tape_i.cap; }",
        );
        self.line(&format!("*tip.add(til) = {v};"));
        self.line("til += 1;");
    }

    /// Flat element offset with per-dimension bounds checks in index
    /// order, strides baked in as literals — `IdxFirst`/`IdxAcc` exactly.
    fn offset(&mut self, id: ArrId, idx: &[LExpr]) -> Result<String, String> {
        let d = self.t();
        if idx.is_empty() {
            self.line(&format!("let {d}: i64 = 0i64;"));
            return Ok(d);
        }
        for (k, ix) in idx.iter().enumerate() {
            let v = self.gen_i(ix)?;
            let meta = &self.lp.arrays[id as usize];
            let (dim, stride) = (meta.dims[k], meta.strides[k]);
            self.line(&format!("if {v} < 1i64 || {v} > {dim}i64 {{"));
            self.line(&format!(
                "    (*env).err_value = {v}; (*env).err_arr = {id}u32; (*env).err_dim = {k}u32;"
            ));
            self.line("    break 'body AOT_ERR_OOB;");
            self.line("}");
            if k == 0 {
                self.line(&format!("let mut {d}: i64 = {v} - 1i64;"));
            } else {
                self.line(&format!("{d} += ({v} - 1i64) * {stride}i64;"));
            }
        }
        Ok(d)
    }

    /// Real-typed expression. Leaves return inline atoms (pure, so
    /// reordering-safe); anything side-effecting emits statements first —
    /// in the interpreter's left-to-right evaluation order.
    fn gen_r(&mut self, e: &LExpr) -> Result<String, String> {
        Ok(match e {
            // Bit-exact literal (decimal round-trips are not trusted).
            LExpr::ConstR(v) => format!("f64::from_bits(0x{:016x}u64)", v.to_bits()),
            LExpr::ConstI(v) => format!("(({v}i64) as f64)"),
            LExpr::ScalarR(s) => format!("sr{s}"),
            LExpr::ScalarI(s) => format!("(si{s} as f64)"),
            LExpr::Coerce(inner) => {
                let x = self.gen_i(inner)?;
                format!("({x} as f64)")
            }
            LExpr::Elem(id, idx, _) => {
                if self.lp.arrays[*id as usize].ty != Ty::Real {
                    return Err("integer array element in real context".into());
                }
                let off = self.offset(*id, idx)?;
                let d = self.t();
                if let Some(j) = self.red_slot(*id) {
                    self.line(&format!("let {d}: f64 = *rb{j}.add({off} as usize);"));
                } else if self.plain(*id) {
                    self.line(&format!(
                        "let {d}: f64 = {};",
                        place(*id, &off, "*const f64")
                    ));
                } else {
                    self.line(&format!(
                        "let {d}: f64 = f64::from_bits({}.load(Ordering::Relaxed));",
                        cell(*id, &off, "AtomicU64")
                    ));
                }
                d
            }
            LExpr::Neg(x) => {
                let a = self.gen_r(x)?;
                let d = self.t();
                self.line(&format!("let {d}: f64 = -({a});"));
                d
            }
            LExpr::Bin(op, a, b) => {
                let x = self.gen_r(a)?;
                let y = self.gen_r(b)?;
                let d = self.t();
                match op {
                    BinOp::Add => self.line(&format!("let {d}: f64 = {x} + {y};")),
                    BinOp::Sub => self.line(&format!("let {d}: f64 = {x} - {y};")),
                    BinOp::Mul => self.line(&format!("let {d}: f64 = {x} * {y};")),
                    BinOp::Div => self.line(&format!("let {d}: f64 = {x} / {y};")),
                    BinOp::Pow => {
                        self.libm.insert("pow");
                        self.line(&format!("let {d}: f64 = pow({x}, {y});"));
                    }
                    BinOp::Mod => return Err("mod in real context".into()),
                }
                d
            }
            LExpr::Call(f, args) => {
                let d = self.t();
                match f {
                    Intrinsic::Min | Intrinsic::Max => {
                        let x = self.gen_r(&args[0])?;
                        let y = self.gen_r(&args[1])?;
                        let m = if matches!(f, Intrinsic::Min) {
                            "min"
                        } else {
                            "max"
                        };
                        self.line(&format!("let {d}: f64 = {x}.{m}({y});"));
                    }
                    Intrinsic::Abs => {
                        let x = self.gen_r(&args[0])?;
                        self.line(&format!("let {d}: f64 = {x}.abs();"));
                    }
                    _ => {
                        let x = self.gen_r(&args[0])?;
                        // By its libm name (`f64::ln` is `log`).
                        let m = match f {
                            Intrinsic::Sin => "sin",
                            Intrinsic::Cos => "cos",
                            Intrinsic::Exp => "exp",
                            Intrinsic::Log => "log",
                            Intrinsic::Sqrt => "sqrt",
                            Intrinsic::Tanh => "tanh",
                            Intrinsic::Abs | Intrinsic::Min | Intrinsic::Max => unreachable!(),
                        };
                        self.libm.insert(m);
                        self.line(&format!("let {d}: f64 = {m}({x});"));
                    }
                }
                d
            }
        })
    }

    /// Integer-typed expression.
    fn gen_i(&mut self, e: &LExpr) -> Result<String, String> {
        Ok(match e {
            LExpr::ConstI(v) => format!("({v}i64)"),
            LExpr::ScalarI(s) => format!("si{s}"),
            LExpr::ConstR(_) => return Err("real literal in integer context".into()),
            LExpr::ScalarR(_) | LExpr::Coerce(_) => {
                return Err("real value in integer context".into())
            }
            LExpr::Elem(id, idx, _) => {
                if self.lp.arrays[*id as usize].ty != Ty::Int {
                    return Err("real array element in integer context".into());
                }
                let off = self.offset(*id, idx)?;
                let d = self.t();
                if self.plain(*id) {
                    self.line(&format!(
                        "let {d}: i64 = {};",
                        place(*id, &off, "*const i64")
                    ));
                } else {
                    self.line(&format!(
                        "let {d}: i64 = {}.load(Ordering::Relaxed);",
                        cell(*id, &off, "AtomicI64")
                    ));
                }
                d
            }
            LExpr::Neg(x) => {
                let a = self.gen_i(x)?;
                let d = self.t();
                self.line(&format!("let {d}: i64 = -({a});"));
                d
            }
            LExpr::Bin(op, a, b) => {
                let x = self.gen_i(a)?;
                let y = self.gen_i(b)?;
                let d = self.t();
                match op {
                    BinOp::Add => self.line(&format!("let {d}: i64 = {x} + {y};")),
                    BinOp::Sub => self.line(&format!("let {d}: i64 = {x} - {y};")),
                    BinOp::Mul => self.line(&format!("let {d}: i64 = {x} * {y};")),
                    BinOp::Div => {
                        self.line(&format!(
                            "if {y} == 0i64 {{ break 'body AOT_ERR_DIV_ZERO; }}"
                        ));
                        self.line(&format!(
                            "let {d}: i64 = match {x}.checked_div({y}) {{ Some(z) => z, None => break 'body AOT_ERR_DIV_OVERFLOW, }};"
                        ));
                    }
                    BinOp::Mod => {
                        self.line(&format!(
                            "if {y} == 0i64 {{ break 'body AOT_ERR_MOD_ZERO; }}"
                        ));
                        self.line(&format!(
                            "let {d}: i64 = match {x}.checked_rem({y}) {{ Some(z) => z, None => break 'body AOT_ERR_MOD_OVERFLOW, }};"
                        ));
                    }
                    BinOp::Pow => {
                        self.line(&format!("if {y} < 0i64 {{ break 'body AOT_ERR_NEG_EXP; }}"));
                        // `lower::int_pow`: an exponent of 2^32 or more is
                        // not truncated.
                        self.line(&format!(
                            "let {d}: i64 = match ({x}, u32::try_from({y})) {{ (_, Ok(e)) => match {x}.checked_pow(e) {{ Some(z) => z, None => break 'body AOT_ERR_POW_OVERFLOW, }}, (0 | 1, Err(_)) => {x}, (-1, Err(_)) => 1 - 2 * ({y} & 1), _ => break 'body AOT_ERR_POW_OVERFLOW, }};"
                        ));
                    }
                }
                d
            }
            LExpr::Call(f, args) => {
                let d = self.t();
                match f {
                    Intrinsic::Abs => {
                        let x = self.gen_i(&args[0])?;
                        self.line(&format!("let {d}: i64 = {x}.abs();"));
                    }
                    Intrinsic::Min | Intrinsic::Max => {
                        let x = self.gen_i(&args[0])?;
                        let y = self.gen_i(&args[1])?;
                        let m = if matches!(f, Intrinsic::Min) {
                            "min"
                        } else {
                            "max"
                        };
                        self.line(&format!("let {d}: i64 = {x}.{m}({y});"));
                    }
                    _ => return Err(format!("intrinsic `{}` in integer context", f.name())),
                }
                d
            }
        })
    }

    /// Boolean expression as a Rust expression string. `&&`/`||`/`!` give
    /// the same short-circuit evaluation order as the bytecode's jump
    /// chains; comparison operands evaluate inside a block expression.
    fn gen_bool(&mut self, b: &LBool) -> Result<String, String> {
        Ok(match b {
            LBool::Cmp(op, ty, a, bb) => {
                let saved = std::mem::take(&mut self.out);
                let (x, y) = match ty {
                    Ty::Real => (self.gen_r(a)?, self.gen_r(bb)?),
                    Ty::Int => (self.gen_i(a)?, self.gen_i(bb)?),
                };
                let stmts = std::mem::replace(&mut self.out, saved);
                let o = match op {
                    CmpOp::Eq => "==",
                    CmpOp::Ne => "!=",
                    CmpOp::Lt => "<",
                    CmpOp::Le => "<=",
                    CmpOp::Gt => ">",
                    CmpOp::Ge => ">=",
                };
                format!("{{ {stmts} {x} {o} {y} }}")
            }
            LBool::And(a, b) => format!("({} && {})", self.gen_bool(a)?, self.gen_bool(b)?),
            LBool::Or(a, b) => format!("({} || {})", self.gen_bool(a)?, self.gen_bool(b)?),
            LBool::Not(x) => format!("(!{})", self.gen_bool(x)?),
        })
    }
}

/// Element `off` of array `id` through a raw pointer of type `ptr`
/// (`*const f64` to load, `*mut f64` to store): a plain access.
fn place(id: ArrId, off: &str, ptr: &str) -> String {
    format!("*(ap{id}.add({off} as usize) as {ptr})")
}

/// Element `off` of array `id` as a relaxed atomic cell of type `atomic`.
fn cell(id: ArrId, off: &str, atomic: &str) -> String {
    format!("(&*(ap{id}.add({off} as usize) as *const {atomic}))")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bindings::Bindings;
    use crate::lower::lower;
    use formad_ir::parse_program;

    /// A literal forward step, a literal reversed one and a run-time one.
    const THREE_REGIONS: &str = r#"
subroutine three(n, s, x, y)
  integer, intent(in) :: n, s
  real, intent(in) :: x(n)
  real, intent(inout) :: y(n)
  integer :: i
  !$omp parallel do shared(x, y)
  do i = 1, n
    y(i) = y(i) + tanh(x(i))
  end do
  !$omp parallel do shared(x, y)
  do i = n, 1, -1
    y(i) = abs(y(i)) * x(i)
  end do
  !$omp parallel do shared(x, y)
  do i = 1, n, s
    y(i) = y(i) ** x(i)
  end do
end subroutine
"#;

    #[test]
    fn a_kernel_is_freestanding_and_states_each_region_once() {
        let p = parse_program(THREE_REGIONS).expect("parse");
        let bind = Bindings::new()
            .int("n", 8)
            .int("s", 2)
            .real_array("x", vec![0.5; 8])
            .real_array("y", vec![1.0; 8]);
        let lp = lower(&p, &bind).expect("lower");
        let src = generate_source(&lp).expect("codegen");

        let first_attribute = src.lines().find(|l| l.starts_with("#!"));
        assert_eq!(first_attribute, Some("#![no_std]"));
        assert!(!src.contains("std::"), "a `std` path in a `no_std` crate");
        // Exactly the libm functions called, `abs` not among them.
        assert!(src.contains(
            "#[link(name = \"m\")]\nextern \"C\" {\n    \
             fn pow(x: f64, y: f64) -> f64;\n    fn tanh(x: f64) -> f64;\n}\n"
        ));

        assert_eq!(src.matches("while n > 0 {").count(), 3);
        // The two literal steps are checked once and compiled in; the
        // run-time one is read from the env.
        assert_eq!(src.matches("return AOT_ERR_STEP_MISMATCH;").count(), 2);
        for line in [
            "if (*env).step != 1i64 { return AOT_ERR_STEP_MISMATCH; }",
            "let step: i64 = 1i64;",
            "if (*env).step != -1i64 { return AOT_ERR_STEP_MISMATCH; }",
            "let step: i64 = -1i64;",
            "let step: i64 = (*env).step;",
        ] {
            assert_eq!(src.matches(line).count(), 1, "{line}");
        }
    }
}
