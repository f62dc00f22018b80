//! Seeded, grammar-driven generator of well-typed DSL programs.
//!
//! Every generated program is a subroutine of 1..`max_loops` parallel
//! regions whose *write* footprints are concretely injective per region
//! (so the primal is schedule-independent and all executor backends must
//! agree bitwise at every thread count), while *read* footprints range
//! over the shapes near the provable/unprovable boundary: affine
//! (`i + k`), strided (`2*i`), reversed (`n + 1 - i`), folded
//! (`mod(i, m) + 1`), and indirect (`c(i) + k`) maps, plus multi-offset
//! affine stencils (`x(i) + x(i + 1) + …`) whose adjoint scatter
//! collides across iterations but inverts to a gather — the transposed
//! discipline's home turf. The adjoint of a gather is a scatter, so
//! wild read maps are exactly what drives the region analysis toward
//! its Shared/Transposed/Guarded decision boundary.
//!
//! Structural constraints enforced by construction (they mirror
//! `formad_ir::validate` and the executor/AD preconditions):
//!
//! - per region and array, every write uses one index map, and the
//!   target array is only ever *read* through that same map — no
//!   cross-iteration read/write overlap in the primal;
//! - branch conditions read only loop counters, `intent(in)` data, and
//!   constants, so taken paths are schedule-independent too;
//! - all indices stay inside the declared extents under the driver's
//!   deterministic bindings (`bind_params`: int arrays are filled
//!   1, 2, 3, …; extents are padded by the maximum offset used);
//! - real arithmetic avoids `exp`/`log`/`sqrt`/`pow` and division by
//!   anything but constants, so no run can produce NaN/Inf and
//!   finite-difference checks stay well-conditioned;
//! - loop bounds are never modified inside loops, no name ends in the
//!   adjoint suffix `b`, and shared scalars are written only under a
//!   `reduction` clause.

use std::collections::BTreeMap;

use formad_ir::{
    program_to_string, BinOp, BoolExpr, CmpOp, Decl, Expr, ForLoop, Intent, Intrinsic, LValue,
    Name, ParallelInfo, Program, RedOp, Stmt, Ty,
};
use proptest::test_runner::TestRng;

/// Knobs for the program generator (`formad fuzz --max-loops
/// --max-arrays`).
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    /// Maximum parallel regions per program (≥ 1).
    pub max_loops: usize,
    /// Maximum real data arrays (inputs + outputs, ≥ 2).
    pub max_arrays: usize,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            max_loops: 3,
            max_arrays: 4,
        }
    }
}

/// One generated test case: the program plus everything needed to bind
/// and differentiate it deterministically. `sets`/`fill_seed` follow the
/// `formad exec --set/--seed` convention, so a reproducer is directly
/// runnable by the CLI.
#[derive(Debug, Clone)]
pub struct FuzzCase {
    /// Case index within the fuzz run.
    pub id: u64,
    /// Master seed of the fuzz run.
    pub seed: u64,
    /// The generated subroutine.
    pub program: Program,
    /// Independent (input) arrays.
    pub wrt: Vec<String>,
    /// Dependent (output) arrays.
    pub of: Vec<String>,
    /// Scalar parameter assignments (`n`, and any real scalar params).
    pub sets: Vec<(String, String)>,
    /// Seed for the deterministic real-array fill.
    pub fill_seed: u64,
}

impl FuzzCase {
    /// Fortran-dialect source of the program.
    pub fn source(&self) -> String {
        program_to_string(&self.program)
    }

    /// Driver bindings for the recorded `sets`/`fill_seed` (the same
    /// rule `formad exec` uses: int arrays filled 1, 2, 3, …; real
    /// arrays deterministically in (-1, 1)).
    pub fn bindings(&self) -> Result<formad_machine::Bindings, String> {
        formad_machine::bind_params(&self.program, &self.sets, self.fill_seed)
            .map_err(|e| e.to_string())
    }
}

/// Uniform pick in `[0, n)`.
fn pick(rng: &mut TestRng, n: usize) -> usize {
    rng.below(n.max(1) as u128) as usize
}

/// True with probability `mille`/1000.
fn chance(rng: &mut TestRng, mille: u64) -> bool {
    rng.below(1000) < u128::from(mille)
}

/// An index map's extent requirement: every produced value lies in
/// `[1, mult*n + add]` (assuming `n ≥ 1`).
#[derive(Debug, Clone, Copy)]
struct Extent {
    mult: i64,
    add: i64,
}

/// Range of an index variable: `var ∈ [lo, mult*n + add]`.
#[derive(Debug, Clone, Copy)]
struct VarRange {
    name: &'static str,
    lo: i64,
    mult: i64,
    add: i64,
}

struct Builder<'r> {
    rng: &'r mut TestRng,
    use_c: bool,
    use_a: bool,
    use_s: bool,
    xs: Vec<String>,
    ys: Vec<String>,
    /// Required extent per array, merged as component-wise max.
    extents: BTreeMap<String, Extent>,
    needs_j: bool,
    needs_t: bool,
    used_s: bool,
}

impl<'r> Builder<'r> {
    fn need(&mut self, name: &str, e: Extent) {
        let cur = self.extents.entry(name.to_string()).or_insert(e);
        cur.mult = cur.mult.max(e.mult);
        cur.add = cur.add.max(e.add);
    }

    /// A read-position index map over `var`. Returns the index
    /// expression and registers the extent it needs on `array`.
    fn read_map(&mut self, array: &str, var: VarRange) -> Expr {
        let v = Expr::var(var.name);
        let indirect = self.use_c && var.name == "i";
        let n_choices = if indirect { 8 } else { 6 };
        let (expr, ext) = match pick(self.rng, n_choices) {
            0 => (
                v,
                Extent {
                    mult: var.mult,
                    add: var.add,
                },
            ),
            1 => {
                let k = 1 + pick(self.rng, 2) as i64;
                (
                    v + Expr::int(k),
                    Extent {
                        mult: var.mult,
                        add: var.add + k,
                    },
                )
            }
            2 if var.lo >= 2 => (
                v - Expr::int(1),
                Extent {
                    mult: var.mult,
                    add: var.add,
                },
            ),
            2 => (
                v,
                Extent {
                    mult: var.mult,
                    add: var.add,
                },
            ),
            3 => {
                let s = 2 + pick(self.rng, 2) as i64;
                (
                    Expr::int(s) * v,
                    Extent {
                        mult: s * var.mult,
                        add: s * var.add,
                    },
                )
            }
            4 => (
                Expr::var("n") + Expr::int(1) - v,
                Extent { mult: 1, add: 0 },
            ),
            5 => {
                let m = 2 + pick(self.rng, 3) as i64;
                (
                    Expr::binary(BinOp::Mod, v, Expr::int(m)) + Expr::int(1),
                    Extent { mult: 0, add: m },
                )
            }
            6 => {
                // c(var): the int array is filled 1..=n by the driver.
                let k = pick(self.rng, 3) as i64;
                self.need("c", Extent { mult: 1, add: 0 });
                (
                    Expr::index("c", vec![v]) + Expr::int(k),
                    Extent { mult: 1, add: k },
                )
            }
            _ => {
                let m = 2 + pick(self.rng, 3) as i64;
                self.need("c", Extent { mult: 1, add: 0 });
                (
                    Expr::binary(BinOp::Mod, Expr::index("c", vec![v]), Expr::int(m))
                        + Expr::int(1),
                    Extent { mult: 0, add: m },
                )
            }
        };
        self.need(array, ext);
        expr
    }

    /// A write-position index map over the parallel counter `i`. Every
    /// alternative is injective in `i` under the driver's identity fill
    /// of `c`, so concurrent iterations never write the same element.
    fn write_map(&mut self, array: &str) -> Expr {
        let i = Expr::var("i");
        let n_choices = if self.use_c { 6 } else { 4 };
        let (expr, ext) = match pick(self.rng, n_choices) {
            0 => (i, Extent { mult: 1, add: 0 }),
            1 => {
                let k = 1 + pick(self.rng, 2) as i64;
                (i + Expr::int(k), Extent { mult: 1, add: k })
            }
            2 => {
                let s = 2 + pick(self.rng, 2) as i64;
                (Expr::int(s) * i, Extent { mult: s, add: 0 })
            }
            3 => (
                Expr::var("n") + Expr::int(1) - i,
                Extent { mult: 1, add: 0 },
            ),
            4 => {
                self.need("c", Extent { mult: 1, add: 0 });
                (Expr::index("c", vec![i]), Extent { mult: 1, add: 0 })
            }
            _ => {
                let k = 1 + pick(self.rng, 2) as i64;
                self.need("c", Extent { mult: 1, add: 0 });
                (
                    Expr::index("c", vec![i]) + Expr::int(k),
                    Extent { mult: 1, add: k },
                )
            }
        };
        self.need(array, ext);
        expr
    }

    /// A real constant literal (kept to short dyadic values so the
    /// printer round-trips exactly).
    fn real_const(&mut self) -> Expr {
        const POOL: [f64; 6] = [0.25, 0.5, 0.75, 1.5, 2.0, -0.5];
        Expr::real(POOL[pick(self.rng, POOL.len())])
    }

    /// A real-valued leaf. `target` is the region's (array, write map)
    /// pair, readable only through its own map; `vars` are the index
    /// variables in scope. When `force_x`, the leaf is always a gather
    /// from an input array (keeps the case active for FD checks).
    fn real_leaf(
        &mut self,
        vars: &[VarRange],
        target: Option<&(String, Expr)>,
        force_x: bool,
    ) -> Expr {
        if !force_x {
            if let Some((arr, map)) = target {
                if chance(self.rng, 100) {
                    return Expr::index(arr.clone(), vec![map.clone()]);
                }
            }
            if self.use_a && chance(self.rng, 150) {
                return Expr::var("a");
            }
            if chance(self.rng, 200) {
                return self.real_const();
            }
        }
        let x = self.xs[pick(self.rng, self.xs.len())].clone();
        let var = vars[pick(self.rng, vars.len())];
        let map = self.read_map(&x, var);
        Expr::index(x, vec![map])
    }

    /// A bounded real expression tree (no exp/log/sqrt/pow, division
    /// only by constants — see module docs).
    fn real_expr(
        &mut self,
        depth: usize,
        vars: &[VarRange],
        target: Option<&(String, Expr)>,
        force_x: bool,
    ) -> Expr {
        if depth == 0 || chance(self.rng, 250) {
            return self.real_leaf(vars, target, force_x);
        }
        match pick(self.rng, 10) {
            0..=2 => {
                let a = self.real_expr(depth - 1, vars, target, force_x);
                let b = self.real_expr(depth - 1, vars, target, false);
                a + b
            }
            3 | 4 => {
                let a = self.real_expr(depth - 1, vars, target, force_x);
                let b = self.real_expr(depth - 1, vars, target, false);
                a - b
            }
            5 | 6 => {
                let a = self.real_expr(depth - 1, vars, target, force_x);
                let b = self.real_expr(depth - 1, vars, target, false);
                a * b
            }
            7 => {
                let a = self.real_expr(depth - 1, vars, target, force_x);
                a / Expr::real(if chance(self.rng, 500) { 2.0 } else { 4.0 })
            }
            8 => {
                // The parser constant-folds a negated literal, so an
                // emitted `-(-0.5)` would break the print/parse
                // fixpoint — fold it at construction instead.
                match self.real_expr(depth - 1, vars, target, force_x) {
                    Expr::RealLit(v) => Expr::real(-v),
                    other => other.neg(),
                }
            }
            _ => {
                let f = [Intrinsic::Sin, Intrinsic::Cos, Intrinsic::Tanh][pick(self.rng, 3)];
                Expr::call(f, vec![self.real_expr(depth - 1, vars, target, force_x)])
            }
        }
    }

    /// A schedule-independent branch condition: integer shapes on the
    /// loop counter / index array, or (rarely) a comparison on
    /// `intent(in)` real data.
    fn condition(&mut self, vars: &[VarRange]) -> BoolExpr {
        let var = vars[pick(self.rng, vars.len())];
        let v = Expr::var(var.name);
        match pick(self.rng, if self.use_c { 4 } else { 3 }) {
            0 => BoolExpr::cmp(
                CmpOp::Eq,
                Expr::binary(BinOp::Mod, v, Expr::int(2)),
                Expr::int(0),
            ),
            1 => BoolExpr::cmp(CmpOp::Lt, v, Expr::int(3 + pick(self.rng, 4) as i64)),
            2 => {
                let x = self.xs[pick(self.rng, self.xs.len())].clone();
                let map = self.read_map(&x, var);
                BoolExpr::cmp(CmpOp::Gt, Expr::index(x, vec![map]), Expr::real(0.25))
            }
            _ => {
                self.need("c", Extent { mult: 1, add: 0 });
                BoolExpr::cmp(CmpOp::Le, Expr::index("c", vec![v.clone()]), v)
            }
        }
    }

    /// A write/increment to the region target through its fixed map.
    fn target_stmt(&mut self, vars: &[VarRange], target: &(String, Expr)) -> Stmt {
        let lhs = LValue::index(target.0.clone(), vec![target.1.clone()]);
        let rhs = self.real_expr(2, vars, Some(target), true);
        if chance(self.rng, 600) {
            Stmt::increment(lhs, rhs)
        } else {
            Stmt::assign(lhs, rhs)
        }
    }

    /// Append one template's statements to a region body.
    #[allow(clippy::too_many_arguments)]
    fn body_stmt(
        &mut self,
        out: &mut Vec<Stmt>,
        vars: &[VarRange],
        target: &(String, Expr),
        region_t: &mut bool,
        region_s: &mut bool,
        region_j: &mut bool,
        allow_loop: bool,
    ) {
        match pick(self.rng, 12) {
            // Branch around a target write.
            0 | 1 => {
                let cond = self.condition(vars);
                let then_body = vec![self.target_stmt(vars, target)];
                let else_body = if chance(self.rng, 500) {
                    vec![self.target_stmt(vars, target)]
                } else {
                    Vec::new()
                };
                out.push(Stmt::If {
                    cond,
                    then_body,
                    else_body,
                });
            }
            // Private scalar temporary feeding an increment.
            2 => {
                *region_t = true;
                self.needs_t = true;
                let rhs = self.real_expr(2, vars, Some(target), true);
                out.push(Stmt::assign(LValue::var("t"), rhs));
                out.push(Stmt::increment(
                    LValue::index(target.0.clone(), vec![target.1.clone()]),
                    Expr::var("t") * self.real_const(),
                ));
            }
            // Scalar reduction.
            3 if self.use_s => {
                *region_s = true;
                self.used_s = true;
                let rhs = self.real_expr(1, vars, None, true);
                out.push(Stmt::increment(LValue::var("s"), rhs));
            }
            // Invertible colliding scatter: a multi-offset affine
            // stencil read. Its adjoint scatters `x̄(i + d)` for several
            // `d` — a cross-iteration collision that the transposed
            // discipline inverts into a gather.
            6 | 7 => {
                let x = self.xs[pick(self.rng, self.xs.len())].clone();
                let var = vars[0];
                let width = 1 + pick(self.rng, 2) as i64;
                let mut sum = Expr::index(x.clone(), vec![Expr::var("i")]);
                self.need(
                    &x,
                    Extent {
                        mult: var.mult,
                        add: var.add + width,
                    },
                );
                for d in 1..=width {
                    sum = sum + Expr::index(x.clone(), vec![Expr::var("i") + Expr::int(d)]);
                }
                let lhs = LValue::index(target.0.clone(), vec![target.1.clone()]);
                let rhs = sum * self.real_const();
                out.push(if chance(self.rng, 600) {
                    Stmt::increment(lhs, rhs)
                } else {
                    Stmt::assign(lhs, rhs)
                });
            }
            // Inner sequential loop accumulating into the target.
            4 | 5 if allow_loop => {
                self.needs_j = true;
                *region_j = true;
                let m = 2 + pick(self.rng, 3) as i64;
                let jvar = VarRange {
                    name: "j",
                    lo: 1,
                    mult: 0,
                    add: m,
                };
                let mut inner_vars = vars.to_vec();
                inner_vars.push(jvar);
                let body = vec![self.target_stmt(&inner_vars, target)];
                out.push(Stmt::For(Box::new(ForLoop {
                    var: "j".into(),
                    lo: Expr::int(1),
                    hi: Expr::int(m),
                    step: Expr::int(1),
                    body,
                    parallel: None,
                })));
            }
            _ => out.push(self.target_stmt(vars, target)),
        }
    }

    /// One `!$omp parallel do` region.
    fn region(&mut self) -> Stmt {
        let lo_pad = pick(self.rng, 2) as i64; // 1 allows `i - 1` reads
        let ivar = VarRange {
            name: "i",
            lo: 1 + lo_pad,
            mult: 1,
            add: 0,
        };
        let target_name = self.ys[pick(self.rng, self.ys.len())].clone();
        let map = self.write_map(&target_name);
        let target = (target_name, map);
        let vars = [ivar];
        let mut region_t = false;
        let mut region_s = false;
        let mut region_j = false;
        let n_stmts = 1 + pick(self.rng, 3);
        let mut body = Vec::new();
        for k in 0..n_stmts {
            self.body_stmt(
                &mut body,
                &vars,
                &target,
                &mut region_t,
                &mut region_s,
                &mut region_j,
                k == 0,
            );
        }
        // shared(...) lists every array the region touches, in name order.
        let mut shared: Vec<Name> = Vec::new();
        for s in &body {
            collect_arrays(s, &mut shared);
        }
        shared.sort();
        shared.dedup();
        let mut info = ParallelInfo {
            shared,
            ..ParallelInfo::default()
        };
        // Inner sequential loop counters must be private (the executors
        // enforce this, matching OpenMP semantics).
        if region_j {
            info.private.push("j".into());
        }
        if region_t {
            info.private.push("t".into());
        }
        if region_s {
            info.reductions.push((RedOp::Add, "s".into()));
        }
        Stmt::For(Box::new(ForLoop {
            var: "i".into(),
            lo: Expr::int(1 + lo_pad),
            hi: Expr::var("n"),
            step: Expr::int(1),
            body,
            parallel: Some(info),
        }))
    }
}

/// Collect array names referenced anywhere in a statement.
fn collect_arrays(s: &Stmt, out: &mut Vec<Name>) {
    s.walk(&mut |st| match st {
        Stmt::Assign { lhs, rhs } => {
            if let LValue::Index { array, indices } = lhs {
                out.push(array.clone());
                for ix in indices.iter() {
                    ix.array_names(out);
                }
            }
            rhs.array_names(out);
        }
        Stmt::If { cond, .. } => cond.walk_exprs(&mut |e| e.array_names(out)),
        Stmt::For(l) => {
            l.lo.array_names(out);
            l.hi.array_names(out);
            l.step.array_names(out);
        }
        _ => {}
    });
}

/// Render an extent requirement as a declaration dimension expression.
fn extent_expr(e: Extent) -> Expr {
    match (e.mult, e.add) {
        (0, a) => Expr::int(a.max(1)),
        (1, 0) => Expr::var("n"),
        (1, a) => Expr::var("n") + Expr::int(a),
        (m, 0) => Expr::int(m) * Expr::var("n"),
        (m, a) => Expr::int(m) * Expr::var("n") + Expr::int(a),
    }
}

/// Generate one well-typed case. Deterministic in (`id`, `seed`,
/// `cfg`, the `rng` stream).
pub fn generate_case(id: u64, seed: u64, cfg: &GenConfig, rng: &mut TestRng) -> FuzzCase {
    let max_arrays = cfg.max_arrays.max(2);
    let nx = 1 + pick(rng, (max_arrays - 1).min(2));
    let ny = 1 + pick(rng, (max_arrays - nx).clamp(1, 2));
    let mut b = Builder {
        use_c: chance(rng, 550),
        use_a: chance(rng, 500),
        use_s: chance(rng, 300),
        xs: (0..nx).map(|k| format!("x{k}")).collect(),
        ys: (0..ny).map(|k| format!("y{k}")).collect(),
        extents: BTreeMap::new(),
        needs_j: false,
        needs_t: false,
        used_s: false,
        rng,
    };
    // Every data array exists even if a body never touches it.
    for name in b.xs.clone().iter().chain(b.ys.clone().iter()) {
        b.need(name, Extent { mult: 1, add: 0 });
    }
    let n_regions = 1 + pick(b.rng, cfg.max_loops.max(1));
    let body: Vec<Stmt> = (0..n_regions).map(|_| b.region()).collect();

    let n_val = 6 + pick(b.rng, 7) as i64;
    let a_val = [0.25, 0.5, 0.75, 1.5][pick(b.rng, 4)];
    let mut prog = Program::new(format!("fz{id}"));
    prog.params.push(Decl::scalar("n", Ty::Int, Intent::In));
    let mut sets = vec![("n".to_string(), n_val.to_string())];
    if b.use_a {
        prog.params.push(Decl::scalar("a", Ty::Real, Intent::In));
        sets.push(("a".to_string(), format!("{a_val}")));
    }
    if b.used_s {
        prog.params.push(Decl::scalar("s", Ty::Real, Intent::InOut));
        sets.push(("s".to_string(), "0.125".to_string()));
    }
    if b.extents.contains_key("c") {
        prog.params
            .push(Decl::array("c", Ty::Int, vec![Expr::var("n")], Intent::In));
    }
    for name in &b.xs {
        let e = b.extents[name.as_str()];
        prog.params.push(Decl::array(
            name.clone(),
            Ty::Real,
            vec![extent_expr(e)],
            Intent::In,
        ));
    }
    for name in &b.ys {
        let e = b.extents[name.as_str()];
        prog.params.push(Decl::array(
            name.clone(),
            Ty::Real,
            vec![extent_expr(e)],
            Intent::InOut,
        ));
    }
    prog.locals.push(Decl::local("i", Ty::Int));
    if b.needs_j {
        prog.locals.push(Decl::local("j", Ty::Int));
    }
    if b.needs_t {
        prog.locals.push(Decl::local("t", Ty::Real));
    }
    prog.body = body;

    let fill_seed = b.rng.next_u64() % 1_000_000;
    FuzzCase {
        id,
        seed,
        program: prog,
        wrt: b.xs.clone(),
        of: b.ys.clone(),
        sets,
        fill_seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_programs_validate() {
        let cfg = GenConfig::default();
        for case_id in 0..200u64 {
            let mut rng = TestRng::from_seed(1000 + case_id);
            let case = generate_case(case_id, 1000, &cfg, &mut rng);
            let errs = formad_ir::validate(&case.program);
            assert!(
                errs.is_empty(),
                "case {case_id} failed validation: {errs:?}\n{}",
                case.source()
            );
            assert!(case.program.parallel_loop_count() >= 1);
            case.bindings().expect("bindable");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::default();
        let mut r1 = TestRng::from_seed(7);
        let mut r2 = TestRng::from_seed(7);
        let a = generate_case(3, 7, &cfg, &mut r1);
        let b = generate_case(3, 7, &cfg, &mut r2);
        assert_eq!(a.source(), b.source());
        assert_eq!(a.sets, b.sets);
        assert_eq!(a.fill_seed, b.fill_seed);
    }
}
