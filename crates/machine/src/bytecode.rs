//! Flat register bytecode for lowered programs.
//!
//! The tree-walking interpreter in [`crate::interp`] chases `Box`ed
//! [`LExpr`] nodes on every evaluation. For *real* wall-clock execution
//! (see [`crate::exec`]) we compile an [`LProgram`] once into a dense
//! instruction array over two register files (f64 / i64):
//!
//! - scalar slot `s` lives in register `s` of its file; expression
//!   temporaries are allocated above the scalar watermark with stack
//!   discipline, so register files stay small and reusable;
//! - multi-dimensional indexing is linearized with **precomputed
//!   strides** ([`BcArray::strides`], Fortran column-major) and
//!   per-dimension bounds checks identical to the interpreter's;
//! - booleans compile to short-circuit conditional jumps, preserving the
//!   interpreter's evaluation (and therefore error) order;
//! - each `!$omp parallel do` body compiles into its own code block
//!   ([`BcRegion`]); the main code evaluates the bounds into dedicated
//!   registers and yields to the executor with [`Instr::EnterPar`].
//!
//! Compilation is semantics-preserving by construction: operands are
//! evaluated in exactly the order the interpreter walks them, so a
//! program that errors (out-of-bounds index, division by zero, empty
//! tape) errors identically under both backends, and one that succeeds
//! produces bitwise-identical floating-point results.
//!
//! One restriction the interpreter does not enforce: a scalar written
//! inside a parallel body must be `private`, a `reduction`, or the loop
//! counter. The simulated machine runs its threads sequentially, so a
//! shared-scalar write there is deterministic-but-meaningless; on real
//! threads it would be a data race, so it is rejected at compile time.
//! Generated adjoints always privatize correctly.

use std::collections::HashMap;

use formad_ir::{BinOp, CmpOp, Intrinsic, Program, RedOp, Ty};

use crate::bindings::ExecError;
use crate::lower::{ArrId, LBool, LExpr, LFor, LProgram, LStmt, Slot};

/// Register index within the real or int file.
pub type Reg = u16;

/// One bytecode instruction. Register operands are `u16` (programs here
/// have tens of scalars and a handful of temporaries); jump targets are
/// absolute instruction indices.
#[derive(Debug, Clone, Copy)]
pub enum Instr {
    ConstR {
        dst: Reg,
        v: f64,
    },
    ConstI {
        dst: Reg,
        v: i64,
    },
    MovR {
        dst: Reg,
        src: Reg,
    },
    MovI {
        dst: Reg,
        src: Reg,
    },
    /// Int register → real register conversion (`Coerce`).
    ItoR {
        dst: Reg,
        src: Reg,
    },
    BinR {
        op: BinOp,
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    BinI {
        op: BinOp,
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    NegR {
        dst: Reg,
        a: Reg,
    },
    NegI {
        dst: Reg,
        a: Reg,
    },
    /// Unary real intrinsic.
    Call1R {
        f: Intrinsic,
        dst: Reg,
        a: Reg,
    },
    /// Binary real intrinsic (`min`/`max`).
    Call2R {
        f: Intrinsic,
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    /// Unary int intrinsic (`abs`).
    Call1I {
        f: Intrinsic,
        dst: Reg,
        a: Reg,
    },
    /// Binary int intrinsic (`min`/`max`).
    Call2I {
        f: Intrinsic,
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    /// Real comparison; writes 0/1 into int register `dst`.
    CmpR {
        op: CmpOp,
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    /// Int comparison (via f64, exactly like the interpreter).
    CmpI {
        op: CmpOp,
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    /// First index of an access: bounds-check dimension 0 and set
    /// `dst = ints[idx] - 1` (stride of dimension 0 is 1).
    IdxFirst {
        dst: Reg,
        idx: Reg,
        arr: u16,
    },
    /// Subsequent index: bounds-check dimension `dim` and accumulate
    /// `ints[acc] += (ints[idx] - 1) * strides[dim]`.
    IdxAcc {
        acc: Reg,
        idx: Reg,
        arr: u16,
        dim: u16,
    },
    LoadR {
        dst: Reg,
        arr: u16,
        off: Reg,
    },
    LoadI {
        dst: Reg,
        arr: u16,
        off: Reg,
    },
    StoreR {
        arr: u16,
        off: Reg,
        src: Reg,
    },
    StoreI {
        arr: u16,
        off: Reg,
        src: Reg,
    },
    /// `arr[off] += reals[src]` with a CAS loop when executed inside a
    /// parallel region (`!$omp atomic`).
    AtomicAddR {
        arr: u16,
        off: Reg,
        src: Reg,
    },
    /// Fused plain increment `arr[off] = arr[off] + reals[src]` — the
    /// read-modify-write a compiler emits for `a(i) = a(i) + e`, with no
    /// atomicity. One address computation and one dispatch, so the cost
    /// gap to [`Instr::AtomicAddR`] is exactly the CAS, as on real
    /// hardware. Arithmetic is identical to `LoadR`/`BinR(Add)`/`StoreR`.
    IncR {
        arr: u16,
        off: Reg,
        src: Reg,
    },
    PushR {
        src: Reg,
    },
    PushI {
        src: Reg,
    },
    PopR {
        dst: Reg,
    },
    PopI {
        dst: Reg,
    },
    /// Pop the real tape into an array element.
    PopElemR {
        arr: u16,
        off: Reg,
    },
    /// Pop the int tape into an array element.
    PopElemI {
        arr: u16,
        off: Reg,
    },
    Jmp {
        target: u32,
    },
    JmpIfZero {
        cond: Reg,
        target: u32,
    },
    /// Error out if `ints[step] == 0` (zero loop step).
    StepNz {
        step: Reg,
    },
    /// `ints[dst] = if step > 0 { v <= hi } else { v >= hi }` as 0/1.
    LoopCond {
        dst: Reg,
        v: Reg,
        hi: Reg,
        step: Reg,
    },
    /// Yield to the executor to run parallel region `region`; its
    /// `lo`/`hi`/`step` registers have just been evaluated.
    EnterPar {
        region: u16,
    },
    Halt,
}

/// A compiled `!$omp parallel do` region.
#[derive(Debug)]
pub struct BcRegion {
    /// Loop counter (int register); set by the executor per iteration.
    pub var: Reg,
    /// Int registers the main code fills with the evaluated bounds
    /// immediately before `EnterPar`.
    pub lo: Reg,
    pub hi: Reg,
    pub step: Reg,
    /// Body code, `Halt`-terminated; executed once per iteration.
    pub code: Vec<Instr>,
    /// Scalar reductions `(op, slot, is_real)`.
    pub red_scalars: Vec<(RedOp, Slot, bool)>,
    /// Array reductions (real arrays only).
    pub red_arrays: Vec<(RedOp, ArrId)>,
}

/// Array storage descriptor with precomputed column-major strides.
#[derive(Debug, Clone)]
pub struct BcArray {
    pub name: String,
    pub ty: Ty,
    pub dims: Vec<i64>,
    pub strides: Vec<i64>,
    pub len: usize,
}

/// What a program parameter binds to (for transfer and write-back).
#[derive(Debug, Clone)]
pub enum BcParam {
    RealScalar(String, Slot),
    IntScalar(String, Slot),
    Array(String, ArrId),
}

impl BcParam {
    /// The parameter's declared name.
    pub fn name(&self) -> &str {
        match self {
            BcParam::RealScalar(n, _) | BcParam::IntScalar(n, _) | BcParam::Array(n, _) => n,
        }
    }
}

/// A compiled program, self-contained for execution: code, regions,
/// register file sizes, array descriptors, and binding-transfer tables.
#[derive(Debug)]
pub struct BcProgram {
    pub name: String,
    /// Main code, `Halt`-terminated.
    pub code: Vec<Instr>,
    pub regions: Vec<BcRegion>,
    pub n_real_regs: usize,
    pub n_int_regs: usize,
    pub arrays: Vec<BcArray>,
    /// Declared parameters in declaration order (write-back order).
    pub params: Vec<BcParam>,
    /// Every scalar name → (slot, ty), for binding transfer-in.
    pub scalar_slots: HashMap<String, (Slot, Ty)>,
}

/// Compile a lowered program. `prog` supplies the parameter list for the
/// binding-transfer tables (the same information [`crate::interp::run`]
/// uses).
pub fn compile(lp: &LProgram, prog: &Program) -> Result<BcProgram, ExecError> {
    let arrays: Vec<BcArray> = lp
        .arrays
        .iter()
        .map(|m| {
            let mut strides = Vec::with_capacity(m.dims.len());
            let mut s = 1i64;
            for d in &m.dims {
                strides.push(s);
                s *= d;
            }
            BcArray {
                name: m.name.clone(),
                ty: m.ty,
                dims: m.dims.clone(),
                strides,
                len: m.len,
            }
        })
        .collect();
    if arrays.len() > u16::MAX as usize {
        return Err(ExecError::new("too many arrays for bytecode"));
    }
    let mut params = Vec::with_capacity(prog.params.len());
    for d in &prog.params {
        if d.is_array() {
            params.push(BcParam::Array(
                d.name.to_string(),
                lp.array_ids[d.name.as_str()],
            ));
        } else {
            let (slot, ty) = lp.scalar_slots[d.name.as_str()];
            match ty {
                Ty::Real => params.push(BcParam::RealScalar(d.name.to_string(), slot)),
                Ty::Int => params.push(BcParam::IntScalar(d.name.to_string(), slot)),
            }
        }
    }
    let mut c = Compiler {
        lp,
        code: Vec::new(),
        regions: Vec::new(),
        next_r: lp.n_real_scalars as u32,
        next_i: lp.n_int_scalars as u32,
        max_r: lp.n_real_scalars as u32,
        max_i: lp.n_int_scalars as u32,
        region: None,
    };
    c.compile_body(&lp.body)?;
    c.emit(Instr::Halt);
    if c.max_r > Reg::MAX as u32 || c.max_i > Reg::MAX as u32 {
        return Err(ExecError::new("register file overflow in bytecode"));
    }
    Ok(BcProgram {
        name: lp.name.clone(),
        code: std::mem::take(&mut c.code),
        regions: c.regions,
        n_real_regs: c.max_r as usize,
        n_int_regs: c.max_i as usize,
        arrays,
        params,
        scalar_slots: lp.scalar_slots.clone(),
    })
}

/// Structural equality of pure lowered expressions, used to recognize
/// the increment pattern `a(i…) = a(i…) + e`. Constants compare by bits
/// so a match implies identical evaluation.
pub(crate) fn lexpr_eq(a: &LExpr, b: &LExpr) -> bool {
    match (a, b) {
        (LExpr::ConstR(x), LExpr::ConstR(y)) => x.to_bits() == y.to_bits(),
        (LExpr::ConstI(x), LExpr::ConstI(y)) => x == y,
        (LExpr::ScalarR(x), LExpr::ScalarR(y)) | (LExpr::ScalarI(x), LExpr::ScalarI(y)) => x == y,
        (LExpr::Elem(i1, x1, _), LExpr::Elem(i2, x2, _)) => {
            i1 == i2 && x1.len() == x2.len() && x1.iter().zip(x2).all(|(p, q)| lexpr_eq(p, q))
        }
        (LExpr::Bin(o1, l1, r1), LExpr::Bin(o2, l2, r2)) => {
            o1 == o2 && lexpr_eq(l1, l2) && lexpr_eq(r1, r2)
        }
        (LExpr::Neg(x), LExpr::Neg(y)) | (LExpr::Coerce(x), LExpr::Coerce(y)) => lexpr_eq(x, y),
        (LExpr::Call(f1, a1), LExpr::Call(f2, a2)) => {
            f1 == f2 && a1.len() == a2.len() && a1.iter().zip(a2).all(|(p, q)| lexpr_eq(p, q))
        }
        _ => false,
    }
}

/// Scalars a parallel body is allowed to write.
struct RegionWriteSet {
    real: Vec<Slot>,
    int: Vec<Slot>,
}

struct Compiler<'a> {
    lp: &'a LProgram,
    code: Vec<Instr>,
    regions: Vec<BcRegion>,
    /// Next free temp register (watermark; scalars live below).
    next_r: u32,
    next_i: u32,
    max_r: u32,
    max_i: u32,
    /// `Some` while compiling a parallel body: the writable scalar set.
    region: Option<RegionWriteSet>,
}

impl<'a> Compiler<'a> {
    fn emit(&mut self, i: Instr) -> usize {
        self.code.push(i);
        self.code.len() - 1
    }

    fn here(&self) -> u32 {
        self.code.len() as u32
    }

    fn patch(&mut self, at: usize, target: u32) {
        match &mut self.code[at] {
            Instr::Jmp { target: t } | Instr::JmpIfZero { target: t, .. } => *t = target,
            _ => unreachable!("patched instruction is not a jump"),
        }
    }

    fn alloc_r(&mut self) -> Reg {
        let r = self.next_r;
        self.next_r += 1;
        self.max_r = self.max_r.max(self.next_r);
        r as Reg
    }

    fn alloc_i(&mut self) -> Reg {
        let r = self.next_i;
        self.next_i += 1;
        self.max_i = self.max_i.max(self.next_i);
        r as Reg
    }

    fn marks(&self) -> (u32, u32) {
        (self.next_r, self.next_i)
    }

    fn release(&mut self, marks: (u32, u32)) {
        self.next_r = marks.0;
        self.next_i = marks.1;
    }

    /// Compile `e` in real context; returns the register holding the
    /// value. Mirrors `Interp::eval_r` including operand order.
    fn compile_r(&mut self, e: &LExpr) -> Result<Reg, ExecError> {
        Ok(match e {
            LExpr::ConstR(v) => {
                let d = self.alloc_r();
                self.emit(Instr::ConstR { dst: d, v: *v });
                d
            }
            // The interpreter's eval_r accepts int constants and scalars
            // directly (`v as f64`).
            LExpr::ConstI(v) => {
                let d = self.alloc_r();
                self.emit(Instr::ConstR {
                    dst: d,
                    v: *v as f64,
                });
                d
            }
            LExpr::ScalarR(s) => *s as Reg,
            LExpr::ScalarI(s) => {
                let d = self.alloc_r();
                self.emit(Instr::ItoR {
                    dst: d,
                    src: *s as Reg,
                });
                d
            }
            LExpr::Coerce(inner) => {
                let m = self.marks();
                let src = self.compile_i(inner)?;
                self.release(m);
                let d = self.alloc_r();
                self.emit(Instr::ItoR { dst: d, src });
                d
            }
            LExpr::Elem(id, idx, _) => {
                let m = self.marks();
                let off = self.compile_offset(*id, idx)?;
                self.release(m);
                let d = self.alloc_r();
                // `off` sits in a released temp, but nothing is emitted
                // between the index computation and the load.
                self.emit(Instr::LoadR {
                    dst: d,
                    arr: *id as u16,
                    off,
                });
                d
            }
            LExpr::Neg(a) => {
                let m = self.marks();
                let ra = self.compile_r(a)?;
                self.release(m);
                let d = self.alloc_r();
                self.emit(Instr::NegR { dst: d, a: ra });
                d
            }
            LExpr::Bin(op, a, b) => {
                if *op == BinOp::Mod {
                    return Err(ExecError::new("mod in real context"));
                }
                let m = self.marks();
                let ra = self.compile_r(a)?;
                let rb = self.compile_r(b)?;
                self.release(m);
                let d = self.alloc_r();
                self.emit(Instr::BinR {
                    op: *op,
                    dst: d,
                    a: ra,
                    b: rb,
                });
                d
            }
            LExpr::Call(f, args) => {
                let m = self.marks();
                match f {
                    Intrinsic::Min | Intrinsic::Max => {
                        let ra = self.compile_r(&args[0])?;
                        let rb = self.compile_r(&args[1])?;
                        self.release(m);
                        let d = self.alloc_r();
                        self.emit(Instr::Call2R {
                            f: *f,
                            dst: d,
                            a: ra,
                            b: rb,
                        });
                        d
                    }
                    _ => {
                        let ra = self.compile_r(&args[0])?;
                        self.release(m);
                        let d = self.alloc_r();
                        self.emit(Instr::Call1R {
                            f: *f,
                            dst: d,
                            a: ra,
                        });
                        d
                    }
                }
            }
        })
    }

    /// Compile `e` in integer context, mirroring `Interp::eval_i`.
    fn compile_i(&mut self, e: &LExpr) -> Result<Reg, ExecError> {
        Ok(match e {
            LExpr::ConstI(v) => {
                let d = self.alloc_i();
                self.emit(Instr::ConstI { dst: d, v: *v });
                d
            }
            LExpr::ConstR(_) => {
                return Err(ExecError::new("real literal in integer context"));
            }
            LExpr::ScalarI(s) => *s as Reg,
            LExpr::ScalarR(_) | LExpr::Coerce(_) => {
                return Err(ExecError::new("real value in integer context"));
            }
            LExpr::Elem(id, idx, _) => {
                let m = self.marks();
                let off = self.compile_offset(*id, idx)?;
                self.release(m);
                let d = self.alloc_i();
                self.emit(Instr::LoadI {
                    dst: d,
                    arr: *id as u16,
                    off,
                });
                d
            }
            LExpr::Neg(a) => {
                let m = self.marks();
                let ra = self.compile_i(a)?;
                self.release(m);
                let d = self.alloc_i();
                self.emit(Instr::NegI { dst: d, a: ra });
                d
            }
            LExpr::Bin(op, a, b) => {
                let m = self.marks();
                let ra = self.compile_i(a)?;
                let rb = self.compile_i(b)?;
                self.release(m);
                let d = self.alloc_i();
                self.emit(Instr::BinI {
                    op: *op,
                    dst: d,
                    a: ra,
                    b: rb,
                });
                d
            }
            LExpr::Call(f, args) => match f {
                Intrinsic::Abs => {
                    let m = self.marks();
                    let ra = self.compile_i(&args[0])?;
                    self.release(m);
                    let d = self.alloc_i();
                    self.emit(Instr::Call1I {
                        f: *f,
                        dst: d,
                        a: ra,
                    });
                    d
                }
                Intrinsic::Min | Intrinsic::Max => {
                    let m = self.marks();
                    let ra = self.compile_i(&args[0])?;
                    let rb = self.compile_i(&args[1])?;
                    self.release(m);
                    let d = self.alloc_i();
                    self.emit(Instr::Call2I {
                        f: *f,
                        dst: d,
                        a: ra,
                        b: rb,
                    });
                    d
                }
                other => {
                    return Err(ExecError::new(format!(
                        "intrinsic {} in integer context",
                        other.name()
                    )))
                }
            },
        })
    }

    /// Compile the linearized offset of an array access; returns the int
    /// register holding it. Per-dimension bounds checks happen in the
    /// emitted `IdxFirst`/`IdxAcc` instructions, in index order, exactly
    /// like `Interp::offset`.
    fn compile_offset(&mut self, id: ArrId, idx: &[LExpr]) -> Result<Reg, ExecError> {
        let acc = self.alloc_i();
        for (k, ix) in idx.iter().enumerate() {
            let m = self.marks();
            let r = self.compile_i(ix)?;
            self.release(m);
            if k == 0 {
                self.emit(Instr::IdxFirst {
                    dst: acc,
                    idx: r,
                    arr: id as u16,
                });
            } else {
                self.emit(Instr::IdxAcc {
                    acc,
                    idx: r,
                    arr: id as u16,
                    dim: k as u16,
                });
            }
        }
        if idx.is_empty() {
            self.emit(Instr::ConstI { dst: acc, v: 0 });
        }
        Ok(acc)
    }

    /// Compile `b` so control falls through when it holds and jumps to a
    /// (to-be-patched) target when it fails; returns the patch sites.
    /// Short-circuit structure mirrors `Interp::eval_bool`.
    fn compile_cond_false(&mut self, b: &LBool) -> Result<Vec<usize>, ExecError> {
        Ok(match b {
            LBool::Cmp(op, ty, a, x) => {
                let m = self.marks();
                let (ra, rb, is_real) = match ty {
                    Ty::Int => (self.compile_i(a)?, self.compile_i(x)?, false),
                    Ty::Real => (self.compile_r(a)?, self.compile_r(x)?, true),
                };
                self.release(m);
                let d = self.alloc_i();
                if is_real {
                    self.emit(Instr::CmpR {
                        op: *op,
                        dst: d,
                        a: ra,
                        b: rb,
                    });
                } else {
                    self.emit(Instr::CmpI {
                        op: *op,
                        dst: d,
                        a: ra,
                        b: rb,
                    });
                }
                self.release((self.next_r, d as u32));
                vec![self.emit(Instr::JmpIfZero {
                    cond: d,
                    target: u32::MAX,
                })]
            }
            LBool::And(a, b) => {
                let mut sites = self.compile_cond_false(a)?;
                sites.extend(self.compile_cond_false(b)?);
                sites
            }
            LBool::Or(a, b) => {
                // Fall through to the second test when the first fails;
                // succeed early when it holds.
                let true_sites = self.compile_cond_true(a)?;
                let sites = self.compile_cond_false(b)?;
                let here = self.here();
                for s in true_sites {
                    self.patch(s, here);
                }
                sites
            }
            LBool::Not(a) => self.compile_cond_true(a)?,
        })
    }

    /// Dual of [`Self::compile_cond_false`]: fall through when `b` fails,
    /// jump when it holds.
    fn compile_cond_true(&mut self, b: &LBool) -> Result<Vec<usize>, ExecError> {
        Ok(match b {
            LBool::Cmp(..) => {
                // cmp; if-zero skip; jmp TRUE
                let false_sites = self.compile_cond_false(b)?;
                let jmp = self.emit(Instr::Jmp { target: u32::MAX });
                let here = self.here();
                for s in false_sites {
                    self.patch(s, here);
                }
                vec![jmp]
            }
            LBool::And(a, b) => {
                let false_sites = self.compile_cond_false(a)?;
                let sites = self.compile_cond_true(b)?;
                let here = self.here();
                for s in false_sites {
                    self.patch(s, here);
                }
                sites
            }
            LBool::Or(a, b) => {
                let mut sites = self.compile_cond_true(a)?;
                sites.extend(self.compile_cond_true(b)?);
                sites
            }
            LBool::Not(a) => self.compile_cond_false(a)?,
        })
    }

    fn check_region_write_r(&self, slot: Slot) -> Result<(), ExecError> {
        if let Some(ws) = &self.region {
            if !ws.real.contains(&slot) {
                let name = self.scalar_name(slot, true);
                return Err(ExecError::new(format!(
                    "scalar `{name}` written inside a parallel region must be \
                     private, a reduction, or the loop counter"
                )));
            }
        }
        Ok(())
    }

    fn check_region_write_i(&self, slot: Slot) -> Result<(), ExecError> {
        if let Some(ws) = &self.region {
            if !ws.int.contains(&slot) {
                let name = self.scalar_name(slot, false);
                return Err(ExecError::new(format!(
                    "scalar `{name}` written inside a parallel region must be \
                     private, a reduction, or the loop counter"
                )));
            }
        }
        Ok(())
    }

    fn scalar_name(&self, slot: Slot, is_real: bool) -> String {
        let want = if is_real { Ty::Real } else { Ty::Int };
        self.lp
            .scalar_slots
            .iter()
            .find(|(_, (s, ty))| *s == slot && *ty == want)
            .map(|(n, _)| n.clone())
            .unwrap_or_else(|| format!("slot{slot}"))
    }

    fn compile_body(&mut self, body: &[LStmt]) -> Result<(), ExecError> {
        for s in body {
            let m = self.marks();
            self.compile_stmt(s)?;
            self.release(m);
        }
        Ok(())
    }

    fn compile_stmt(&mut self, s: &LStmt) -> Result<(), ExecError> {
        match s {
            LStmt::AssignR(slot, rhs) => {
                self.check_region_write_r(*slot)?;
                let r = self.compile_r(rhs)?;
                if r != *slot as Reg {
                    self.emit(Instr::MovR {
                        dst: *slot as Reg,
                        src: r,
                    });
                }
                Ok(())
            }
            LStmt::AssignI(slot, rhs) => {
                self.check_region_write_i(*slot)?;
                let r = self.compile_i(rhs)?;
                if r != *slot as Reg {
                    self.emit(Instr::MovI {
                        dst: *slot as Reg,
                        src: r,
                    });
                }
                Ok(())
            }
            LStmt::AssignElem(id, idx, rhs, _) => {
                // Interpreter order: offset (bounds errors) before rhs.
                let off = self.compile_offset(*id, idx)?;
                match self.lp.arrays[*id as usize].ty {
                    Ty::Real => {
                        // Fuse `a(i…) = a(i…) + e` into one
                        // read-modify-write. The interpreter evaluates the
                        // inner load's (identical, pure) index expressions
                        // a second time; reusing `off` gives the same
                        // offset, the same bounds outcome, and the same
                        // `cur + e` association, one address computation.
                        if let LExpr::Bin(BinOp::Add, l, e) = rhs {
                            if let LExpr::Elem(id2, idx2, _) = &**l {
                                if id2 == id
                                    && idx2.len() == idx.len()
                                    && idx2.iter().zip(idx).all(|(a, b)| lexpr_eq(a, b))
                                {
                                    let r = self.compile_r(e)?;
                                    self.emit(Instr::IncR {
                                        arr: *id as u16,
                                        off,
                                        src: r,
                                    });
                                    return Ok(());
                                }
                            }
                        }
                        let r = self.compile_r(rhs)?;
                        self.emit(Instr::StoreR {
                            arr: *id as u16,
                            off,
                            src: r,
                        });
                    }
                    Ty::Int => {
                        let r = self.compile_i(rhs)?;
                        self.emit(Instr::StoreI {
                            arr: *id as u16,
                            off,
                            src: r,
                        });
                    }
                }
                Ok(())
            }
            LStmt::AtomicAddElem(id, idx, rhs) => {
                let off = self.compile_offset(*id, idx)?;
                let r = self.compile_r(rhs)?;
                self.emit(Instr::AtomicAddR {
                    arr: *id as u16,
                    off,
                    src: r,
                });
                Ok(())
            }
            LStmt::If(cond, then_b, else_b) => {
                let false_sites = self.compile_cond_false(cond)?;
                self.compile_body(then_b)?;
                if else_b.is_empty() {
                    let here = self.here();
                    for s in false_sites {
                        self.patch(s, here);
                    }
                } else {
                    let skip_else = self.emit(Instr::Jmp { target: u32::MAX });
                    let here = self.here();
                    for s in false_sites {
                        self.patch(s, here);
                    }
                    self.compile_body(else_b)?;
                    let end = self.here();
                    self.patch(skip_else, end);
                }
                Ok(())
            }
            LStmt::Push(e, ty) => {
                match ty {
                    Ty::Real => {
                        let r = self.compile_r(e)?;
                        self.emit(Instr::PushR { src: r });
                    }
                    Ty::Int => {
                        let r = self.compile_i(e)?;
                        self.emit(Instr::PushI { src: r });
                    }
                }
                Ok(())
            }
            LStmt::PopR(slot) => {
                self.check_region_write_r(*slot)?;
                self.emit(Instr::PopR { dst: *slot as Reg });
                Ok(())
            }
            LStmt::PopI(slot) => {
                self.check_region_write_i(*slot)?;
                self.emit(Instr::PopI { dst: *slot as Reg });
                Ok(())
            }
            LStmt::PopElem(id, idx, _) => {
                let off = self.compile_offset(*id, idx)?;
                match self.lp.arrays[*id as usize].ty {
                    Ty::Real => self.emit(Instr::PopElemR {
                        arr: *id as u16,
                        off,
                    }),
                    Ty::Int => self.emit(Instr::PopElemI {
                        arr: *id as u16,
                        off,
                    }),
                };
                Ok(())
            }
            LStmt::For(f) => {
                if f.parallel.is_some() {
                    self.compile_parallel(f)
                } else {
                    self.compile_sequential(f)
                }
            }
        }
    }

    fn compile_sequential(&mut self, f: &LFor) -> Result<(), ExecError> {
        // Evaluate bounds once into persistent temps (the body may write
        // the scalars they came from), then drive the loop with the same
        // `while (step>0 && v<=hi) || (step<0 && v>=hi)` condition the
        // interpreter uses, keeping `v` distinct from the counter slot.
        let lo_r = self.compile_i(&f.lo)?;
        let v = self.alloc_i();
        self.emit(Instr::MovI { dst: v, src: lo_r });
        let hi_r = self.compile_i(&f.hi)?;
        let hi = self.alloc_i();
        self.emit(Instr::MovI { dst: hi, src: hi_r });
        let st_r = self.compile_i(&f.step)?;
        let step = self.alloc_i();
        self.emit(Instr::MovI {
            dst: step,
            src: st_r,
        });
        self.emit(Instr::StepNz { step });
        let cond = self.alloc_i();
        let head = self.here();
        self.emit(Instr::LoopCond {
            dst: cond,
            v,
            hi,
            step,
        });
        let exit = self.emit(Instr::JmpIfZero {
            cond,
            target: u32::MAX,
        });
        self.check_region_write_i(f.var)?;
        self.emit(Instr::MovI {
            dst: f.var as Reg,
            src: v,
        });
        self.compile_body(&f.body)?;
        self.emit(Instr::BinI {
            op: BinOp::Add,
            dst: v,
            a: v,
            b: step,
        });
        self.emit(Instr::Jmp { target: head });
        let end = self.here();
        self.patch(exit, end);
        Ok(())
    }

    fn compile_parallel(&mut self, f: &LFor) -> Result<(), ExecError> {
        if self.region.is_some() {
            return Err(ExecError::new(
                "nested parallel regions are not supported by the native backend",
            ));
        }
        let lp = f.parallel.as_ref().expect("parallel loop");
        // Bound registers live until EnterPar executes; the executor
        // reads them at region entry, so releasing them afterwards (via
        // the caller's statement-level mark) is safe.
        let lo_r = self.compile_i(&f.lo)?;
        let lo = self.alloc_i();
        self.emit(Instr::MovI { dst: lo, src: lo_r });
        let hi_r = self.compile_i(&f.hi)?;
        let hi = self.alloc_i();
        self.emit(Instr::MovI { dst: hi, src: hi_r });
        let st_r = self.compile_i(&f.step)?;
        let step = self.alloc_i();
        self.emit(Instr::MovI {
            dst: step,
            src: st_r,
        });

        let mut ws = RegionWriteSet {
            real: lp.private_r.clone(),
            int: lp.private_i.clone(),
        };
        ws.int.push(f.var);
        for (_, s, is_real) in &lp.red_scalars {
            if *is_real {
                ws.real.push(*s);
            } else {
                ws.int.push(*s);
            }
        }

        // Compile the body into its own code block. Temporaries restart
        // at the scalar watermark: workers execute on private copies of
        // the whole register file, so nothing from the enclosing
        // compilation context survives into the body.
        let outer_code = std::mem::take(&mut self.code);
        let outer_marks = self.marks();
        self.release((self.lp.n_real_scalars as u32, self.lp.n_int_scalars as u32));
        self.region = Some(ws);
        let body_result = self.compile_body(&f.body);
        self.region = None;
        self.emit(Instr::Halt);
        let body_code = std::mem::replace(&mut self.code, outer_code);
        self.release(outer_marks);
        body_result?;

        let region_idx = self.regions.len();
        if region_idx > u16::MAX as usize {
            return Err(ExecError::new("too many parallel regions for bytecode"));
        }
        self.regions.push(BcRegion {
            var: f.var as Reg,
            lo,
            hi,
            step,
            code: body_code,
            red_scalars: lp.red_scalars.clone(),
            red_arrays: lp.red_arrays.clone(),
        });
        self.emit(Instr::EnterPar {
            region: region_idx as u16,
        });
        Ok(())
    }
}
