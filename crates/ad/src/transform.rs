//! Whole-program reverse-mode transformation (split mode).
//!
//! The adjoint of a subroutine is `forward sweep ; backward sweep`:
//!
//! - The **backward sweep** processes statements in reverse. A recorded
//!   assignment first pops (restores) its left-hand side, then emits the
//!   adjoint increments from the chain-rule walker. Loops run with
//!   reversed iteration order; parallel loops stay parallel with the
//!   *same static schedule*, so every thread pops exactly what it pushed
//!   (this is the standard treatment from Hückelheim & Hascoët,
//!   "Source-to-Source AD of OpenMP Parallel Loops", reference \[12\] of the
//!   paper).
//! - The **forward sweep** is what is left of the primal once only the
//!   backward sweep is served: the pushes of recorded values and branch
//!   decisions, and the statements those pushes and the backward sweep
//!   depend on. Parallel loops stay parallel — each thread pushes to its
//!   own tape.
//!
//! Three data-flow analyses ([`crate::dataflow`]) decide what each sweep
//! contains. Scalars that are a function of the loop counters and of data
//! the program never writes (gather indices, strided lower bounds) are
//! *recomputed* at the head of the reversed loop body rather than taped,
//! and branches on such values are reversed by evaluating the condition
//! again. *To-be-recorded* analysis pushes the value an assignment
//! overwrites only where the backward sweep reads that value. *Adjoint
//! liveness* then deletes every forward statement whose result neither a
//! push nor the backward sweep reads. For a kernel that is linear in its
//! active data nothing of the forward sweep survives, so its adjoint
//! costs about what the primal does; a kernel whose partial derivatives
//! read primal values the primal computes (GFMC's `tanh`) keeps that part
//! of the primal and its tape.
//!
//! The partials of `tanh`, `exp` and `sqrt` are functions of the call's
//! value. Where the forward sweep keeps an assignment whose adjoint reads
//! one, it evaluates the call once into a private real temporary
//! (`ad_tanh0`), pushes that, and the primal statement reads it; the
//! backward sweep pops it instead of calling again, and no longer reads
//! the operand, whose push goes (GFMC's `cr = tanh(cr) + …` tapes the
//! `tanh`, not `cr`). Where the forward sweep drops the assignment, the
//! backward sweep binds a call its partials evaluate more than once to a
//! temporary, so `tanh'` costs one `tanh`. The temporaries are private in
//! both sweeps' parallel loops and in the gather loops.
//!
//! The generated subroutine computes adjoints only. The primal's outputs
//! are **not** returned by it: run the primal for the value.

use std::fmt;
use std::sync::Arc;

use formad_analysis::Activity;
use formad_ir::{
    BinOp, BoolExpr, CmpOp, Decl, Expr, ForLoop, FxHashMap, FxHashSet, Intent, Intrinsic, LValue,
    Name, ParallelInfo, Program, RedOp, Stmt, Ty,
};

use crate::adjoint_expr::{
    adjoint_of_assign, bind_values, read_values, value_name, AdjCtx, Values,
};
use crate::dataflow::{AssignAdjoint, ByAlloc, ForNode, Names, Node, Plan};
use crate::options::{AdError, AdjointOptions, IncMode, ParallelTreatment};
use crate::transpose::{plan_transpose, RegionWrites};

/// What the data-flow analyses left of the forward sweep and the tape.
/// Counts are static (statements of the generated code, not executions)
/// and do not depend on the parallel treatment.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AdjointStats {
    /// Primal statements (assignments, `if`s, loops) the forward sweep
    /// keeps.
    pub fwd_kept: usize,
    /// Primal statements the forward sweep drops.
    pub fwd_dropped: usize,
    /// `push` statements in the forward sweep of overwritten values,
    /// scalars saved where a parallel iteration ends, and branch flags.
    pub push_sites: usize,
    /// `push` statements in the forward sweep of `tanh` / `exp` / `sqrt`
    /// values, taped instead of their operands.
    pub value_pushes: usize,
    /// Scalars re-assigned at the head of a reversed loop body instead of
    /// being taped, in declaration order.
    pub recomputed: Vec<String>,
    /// `if`s reversed by evaluating their condition again instead of
    /// popping a flag.
    pub branches_reevaluated: usize,
}

impl fmt::Display for AdjointStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "forward sweep keeps {} of {} statements / {} push sites / \
             {} intrinsic values pushed / {} branches re-evaluated / recomputed: {}",
            self.fwd_kept,
            self.fwd_kept + self.fwd_dropped,
            self.push_sites,
            self.value_pushes,
            self.branches_reevaluated,
            if self.recomputed.is_empty() {
                "none".to_string()
            } else {
                self.recomputed.join(", ")
            }
        )
    }
}

/// A generated adjoint.
#[derive(Debug, Clone, PartialEq)]
pub struct Adjoint {
    /// The subroutine `{primal}_b`.
    pub program: Program,
    /// Whole-program statistics.
    pub stats: AdjointStats,
    /// The share of [`Adjoint::stats`] inside each parallel loop of the
    /// primal, in pre-order.
    pub regions: Vec<AdjointStats>,
    /// The primal parallel loop each parallel loop of
    /// [`Adjoint::program`] comes from, both in pre-order: its forward
    /// sweep copy, its gather loops and its reversed loop.
    pub loop_regions: Vec<usize>,
}

/// Differentiate `p` in reverse mode.
///
/// The generated subroutine is named `{p.name}_b` and takes the primal
/// parameters followed by one `intent(inout)` adjoint parameter for every
/// *active* primal parameter. On entry the caller seeds the adjoints of the
/// dependents; on exit the adjoints of the independents hold the gradient
/// contributions (accumulated, per adjoint convention). The primal
/// parameters are inputs only: their values on exit are unspecified.
pub fn differentiate(p: &Program, opts: &AdjointOptions) -> Result<Adjoint, AdError> {
    formad_ir::validate_strict(p).map_err(|e| AdError::new(format!("invalid primal: {e}")))?;
    let act = Activity::analyze(p, &opts.independents, &opts.dependents);
    differentiate_validated(p, opts, act)
}

/// [`differentiate`] for a caller that owns the front end: `p` has passed
/// `formad_ir::validate_strict`, and `act` is
/// `Activity::analyze(p, &opts.independents, &opts.dependents)`. Neither
/// is recomputed here; the checks that are the transformation's own (no
/// tape statements in the primal, every independent and dependent
/// declared) still run.
pub fn differentiate_validated(
    p: &Program,
    opts: &AdjointOptions,
    act: Activity,
) -> Result<Adjoint, AdError> {
    for s in &p.body {
        let mut bad = false;
        s.walk(&mut |st| {
            if matches!(st, Stmt::Push(_) | Stmt::Pop(_)) {
                bad = true;
            }
        });
        if bad {
            return Err(AdError::new("primal contains tape statements"));
        }
    }
    for name in opts.independents.iter().chain(&opts.dependents) {
        if p.decl(name).is_none() {
            return Err(AdError::new(format!(
                "independent/dependent `{name}` is not a parameter of `{}`",
                p.name
            )));
        }
    }

    let mut xf = Xform::new(p, act, opts)?;
    let mut plan = Plan::build(p, |s| xf.stmt_adjoint(s));
    plan.tape_values(|s, adjoint| xf.tape_values(s, adjoint));
    let Plan {
        names, mut body, ..
    } = plan;
    let fwd = xf.fwd_sweep(&names, &body);
    let bwd = xf.bwd_sweep(&names, &mut body)?;

    // Assemble the adjoint subroutine.
    let mut adj = Program::new(format!("{}_b", p.name));
    adj.params = p.params.clone();
    for d in &p.params {
        if let Some(b) = xf.adjoint_of(&d.name) {
            let mut a = d.clone();
            a.name = b;
            a.intent = Intent::InOut;
            adj.params.push(a);
        }
    }
    adj.locals = p.locals.clone();
    for d in &p.locals {
        if let Some(b) = xf.adjoint_of(&d.name) {
            let mut a = d.clone();
            a.name = b;
            adj.locals.push(a);
        }
    }
    adj.locals.extend(xf.new_locals);
    adj.body = fwd;
    adj.body.extend(bwd);
    // The backward sweep meets the loops last to first.
    for stats in std::iter::once(&mut xf.stats).chain(&mut xf.region_stats) {
        stats
            .recomputed
            .sort_by_key(|v| p.decls().position(|d| d.name == *v));
    }
    debug_assert_eq!(adj.parallel_loop_count(), xf.loop_regions.len());
    Ok(Adjoint {
        program: adj,
        stats: xf.stats,
        regions: xf.region_stats,
        loop_regions: xf.loop_regions,
    })
}

struct Xform<'a> {
    prog: &'a Program,
    /// Every active variable's adjoint name, made once, …
    adjoints: FxHashMap<Name, Name>,
    /// … and the way back.
    primals: FxHashMap<Name, Name>,
    opts: &'a AdjointOptions,
    branch_counter: usize,
    /// Temporaries named for intrinsic values so far.
    value_counter: usize,
    /// The taped value temporaries of the parallel loop being emitted in
    /// the forward sweep.
    region_temps: Vec<Name>,
    new_locals: Vec<Decl>,
    stats: AdjointStats,
    region_stats: Vec<AdjointStats>,
    /// [`Adjoint::loop_regions`] so far. Parallel loops do not nest, and
    /// both sweeps emit them in the order the program lists them.
    loop_regions: Vec<usize>,
    /// The parallel loop of the primal being emitted, if inside one.
    region: Option<usize>,
}

impl<'a> Xform<'a> {
    fn new(p: &'a Program, act: Activity, opts: &'a AdjointOptions) -> Result<Xform<'a>, AdError> {
        // Adjoint-name collisions with existing declarations are errors.
        let mut adjoints = FxHashMap::default();
        let mut primals = FxHashMap::default();
        for d in p.decls() {
            if act.is_active(&d.name) && d.ty == Ty::Real {
                let b = Name::from(format!("{}{}", d.name, opts.adjoint_suffix));
                if p.decl(&b).is_some() {
                    return Err(AdError::new(format!(
                        "adjoint name `{b}` collides with an existing declaration"
                    )));
                }
                adjoints.insert(d.name.clone(), b.clone());
                primals.insert(b, d.name.clone());
            }
        }
        Ok(Xform {
            prog: p,
            adjoints,
            primals,
            opts,
            branch_counter: 0,
            value_counter: 0,
            region_temps: Vec::new(),
            new_locals: Vec::new(),
            stats: AdjointStats::default(),
            region_stats: vec![AdjointStats::default(); p.parallel_loop_count()],
            loop_regions: Vec::new(),
            region: None,
        })
    }

    fn is_active(&self, name: &str) -> bool {
        self.adjoints.contains_key(name)
    }

    /// The adjoint name of `name`, if it is active.
    fn adjoint_of(&self, name: &str) -> Option<Name> {
        self.adjoints.get(name).cloned()
    }

    /// Map an adjoint name back to its primal name, if it is one.
    fn primal_of_adjoint(&self, name: &str) -> Option<Name> {
        self.primals.get(name).cloned()
    }

    /// Adjoint statements of one assignment to the active `lhs`, whose
    /// adjoint is named `b`.
    fn assign_adjoint(&self, lhs: &LValue, b: Name, rhs: &Expr) -> AssignAdjoint {
        let adjoint_lv = match lhs {
            LValue::Var(_) => LValue::Var(b),
            LValue::Index { indices, .. } => LValue::index(b, indices.clone()),
        };
        let seed = adjoint_lv.as_expr();
        let ctx = AdjCtx {
            adjoint_of: &|n: &str| self.adjoint_of(n),
        };
        let mut adj = adjoint_of_assign(lhs, rhs, &seed, &ctx);
        let finalize = if adj.self_seeds.is_empty() {
            Some(Stmt::assign(adjoint_lv, Expr::real(0.0)))
        } else if adj.self_seeds.len() == 1 && *adj.self_seeds[0] == seed {
            // Exact increment: the adjoint of the lhs is unchanged
            // (paper §5.4) — no statement at all.
            None
        } else {
            let mut seeds = adj.self_seeds.into_iter();
            let first = seeds.next().expect("checked non-empty above");
            let sum = seeds.fold(Arc::unwrap_or_clone(first), |sum, s| sum + s);
            Some(Stmt::assign(adjoint_lv, sum))
        };
        adj.increments.extend(finalize);
        adj.increments
    }

    /// The forward sweep keeps `stmt`: bind every `tanh` / `exp` / `sqrt`
    /// call its adjoint statements read to a temporary the forward sweep
    /// tapes, and state `stmt` over the temporaries. `None` if there is
    /// no such call.
    fn tape_values(&mut self, stmt: &Stmt, adjoint: &mut AssignAdjoint) -> Option<(Values, Stmt)> {
        let values = bind_values(adjoint, true, &mut |f| self.value_temp(f));
        if values.is_empty() {
            return None;
        }
        let stmt = match stmt {
            Stmt::Assign { lhs, rhs } => Stmt::assign(lhs.clone(), read_values(rhs, &values)),
            Stmt::AtomicAdd { lhs, rhs } => Stmt::AtomicAdd {
                lhs: lhs.clone(),
                rhs: read_values(rhs, &values),
            },
            _ => unreachable!("only assignments have adjoint statements"),
        };
        Some((values, stmt))
    }

    /// A new real local for the value of a call to `func`.
    fn value_temp(&mut self, func: Intrinsic) -> Name {
        let taken = |t: &Name| self.prog.decl(t).is_some() || self.primals.contains_key(t);
        let t = value_name(func, &mut self.value_counter, taken);
        self.new_locals.push(Decl::local(t.clone(), Ty::Real));
        t
    }

    /// Adjoint statements of an assignment-like primal statement whose
    /// lvalue is active; `None` for anything else.
    fn stmt_adjoint(&self, s: &Stmt) -> Option<AssignAdjoint> {
        match s {
            Stmt::Assign { lhs, rhs } => {
                Some(self.assign_adjoint(lhs, self.adjoint_of(lhs.name())?, rhs))
            }
            Stmt::AtomicAdd { lhs, rhs } => {
                let b = self.adjoint_of(lhs.name())?;
                let full = lhs.as_expr() + rhs.clone();
                Some(self.assign_adjoint(lhs, b, &full))
            }
            _ => None,
        }
    }

    /// Add to the statistics of the whole program and of the parallel
    /// loop being emitted.
    fn count(&mut self, add: impl Fn(&mut AdjointStats)) {
        add(&mut self.stats);
        if let Some(k) = self.region {
            add(&mut self.region_stats[k]);
        }
    }

    /// Emit a loop with the statistics going to its `region` too, if it
    /// is a parallel loop.
    fn in_region<R>(&mut self, region: Option<usize>, emit: impl FnOnce(&mut Self) -> R) -> R {
        let outer = self.region;
        self.region = region.or(outer);
        let r = emit(self);
        self.region = outer;
        r
    }

    // ------------------------------------------------------------------
    // Forward sweep
    // ------------------------------------------------------------------

    fn fwd_sweep(&mut self, names: &Names, nodes: &[Node]) -> Vec<Stmt> {
        let mut out = Vec::new();
        for node in nodes {
            match node {
                Node::Assign(a) => {
                    if a.kept {
                        let mut stmt = a.stmt;
                        if let Some((values, taped)) = &a.taped {
                            self.count(|s| s.value_pushes += values.len());
                            for (t, call) in values {
                                out.push(Stmt::assign(LValue::Var(t.clone()), call.clone()));
                                out.push(Stmt::Push(Expr::Var(t.clone())));
                                if self.region.is_some() {
                                    self.region_temps.push(t.clone());
                                }
                            }
                            stmt = taped;
                        }
                        if a.push {
                            self.count(|s| s.push_sites += 1);
                            out.push(Stmt::Push(a.lhs.as_expr()));
                        }
                        out.push(stmt.clone());
                    }
                    self.count_fwd(a.kept);
                }
                Node::If(i) => {
                    let mut then_f = self.fwd_sweep(names, &i.then_body);
                    let mut else_f = self.fwd_sweep(names, &i.else_body);
                    if i.kept {
                        if i.reversed && !i.reeval {
                            self.count(|s| s.push_sites += 2);
                            then_f.push(Stmt::Push(Expr::IntLit(1)));
                            else_f.push(Stmt::Push(Expr::IntLit(0)));
                        }
                        out.push(Stmt::If {
                            cond: i.cond.clone(),
                            then_body: then_f,
                            else_body: else_f,
                        });
                    }
                    self.count_fwd(i.kept);
                }
                Node::For(f) => self.in_region(f.region, |xf| {
                    let mut body = xf.fwd_sweep(names, &f.body);
                    xf.count_fwd(f.kept);
                    if !f.kept {
                        return;
                    }
                    // The scalars of this iteration that the backward
                    // sweep reads and cannot recompute: each thread
                    // reverses its chunk in a new parallel region, so
                    // they do not survive to it any other way.
                    for v in f.exit_pushes.iter() {
                        xf.count(|s| s.push_sites += 1);
                        body.push(Stmt::Push(Expr::Var(names.name(v).clone())));
                    }
                    let temps = match f.region {
                        Some(_) => std::mem::take(&mut xf.region_temps),
                        None => Vec::new(),
                    };
                    let parallel = if xf.opts.parallel.is_serial() {
                        None
                    } else {
                        f.l.parallel.clone().map(|mut info| {
                            info.private.extend(temps);
                            info
                        })
                    };
                    if let (Some(k), Some(_)) = (f.region, &parallel) {
                        xf.loop_regions.push(k);
                    }
                    out.push(Stmt::For(Box::new(ForLoop {
                        var: f.l.var.clone(),
                        lo: f.l.lo.clone(),
                        hi: f.l.hi.clone(),
                        step: f.l.step.clone(),
                        body,
                        parallel,
                    })));
                }),
            }
        }
        out
    }

    /// One primal statement, kept in the forward sweep or dropped from it.
    fn count_fwd(&mut self, kept: bool) {
        self.count(|s| {
            if kept {
                s.fwd_kept += 1
            } else {
                s.fwd_dropped += 1
            }
        });
    }

    // ------------------------------------------------------------------
    // Backward sweep
    // ------------------------------------------------------------------

    fn bwd_sweep(&mut self, names: &Names, nodes: &mut [Node]) -> Result<Vec<Stmt>, AdError> {
        let mut out = Vec::new();
        for node in nodes.iter_mut().rev() {
            match node {
                Node::Assign(a) => {
                    if a.push {
                        out.push(Stmt::Pop(a.lhs.clone()));
                    }
                    if let Some(mut adjoint) = a.adjoint.take() {
                        match &a.taped {
                            Some((values, _)) => {
                                let pops = values.iter().rev();
                                out.extend(pops.map(|(t, _)| Stmt::Pop(LValue::Var(t.clone()))));
                            }
                            None if a.value_calls => {
                                let temp = &mut |f| self.value_temp(f);
                                let values = bind_values(&mut adjoint, false, temp);
                                let defs = values.into_iter();
                                out.extend(
                                    defs.map(|(t, call)| Stmt::assign(LValue::Var(t), call)),
                                );
                            }
                            None => {}
                        }
                        out.extend(adjoint);
                    }
                }
                Node::If(i) => {
                    if !i.reversed {
                        continue;
                    }
                    let cond = if i.reeval {
                        self.count(|s| s.branches_reevaluated += 1);
                        i.cond.clone()
                    } else {
                        let bv = Name::from(format!("ad_branch{}", self.branch_counter));
                        self.branch_counter += 1;
                        self.new_locals.push(Decl::local(bv.clone(), Ty::Int));
                        out.push(Stmt::Pop(LValue::var(bv.clone())));
                        BoolExpr::cmp(CmpOp::Eq, Expr::var(bv), Expr::IntLit(1))
                    };
                    let then_b = self.bwd_sweep(names, &mut i.then_body)?;
                    let else_b = self.bwd_sweep(names, &mut i.else_body)?;
                    out.push(Stmt::If {
                        cond,
                        then_body: then_b,
                        else_body: else_b,
                    });
                }
                Node::For(f) if f.reversed => {
                    out.extend(self.in_region(f.region, |xf| xf.bwd_loop(names, f))?);
                }
                Node::For(_) => {}
            }
        }
        Ok(out)
    }

    /// The reversed loop of `f`, preceded by the gather loops of its
    /// transposed arrays.
    fn bwd_loop(&mut self, names: &Names, f: &mut ForNode) -> Result<Vec<Stmt>, AdError> {
        let l = f.l;
        // Bound variables must be loop-invariant for the reversed
        // bounds to be correct.
        let mut bound_vars = Vec::new();
        for e in [&l.lo, &l.hi, &l.step] {
            e.scalar_vars(&mut bound_vars);
        }
        let mut assigned = FxHashSet::default();
        for s in &l.body {
            s.walk(&mut |st| {
                if let Stmt::Assign {
                    lhs: LValue::Var(v),
                    ..
                } = st
                {
                    assigned.insert(v.clone());
                }
                if let Stmt::For(inner) = st {
                    assigned.insert(inner.var.clone());
                }
            });
        }
        if let Some(v) = bound_vars.iter().find(|v| assigned.contains(*v)) {
            return Err(AdError::new(format!(
                "loop bound variable `{v}` is modified inside the loop; \
                 reversal would be incorrect"
            )));
        }

        // Before any adjoint work of an iteration: restore the scalars
        // pushed where it ended, then recompute the ones that are a
        // function of the counters and of data nobody writes.
        let mut head: Vec<Stmt> = f
            .exit_pushes
            .iter()
            .map(|v| Stmt::Pop(LValue::Var(names.name(v).clone())))
            .collect();
        head.reverse();
        let mut recomputed = Vec::new();
        for node in &f.body {
            if let Node::Assign(a) = node {
                if a.recompute {
                    recomputed.push(a.lhs.name().to_string());
                    head.push(a.stmt.clone());
                }
            }
        }
        let body = self.bwd_sweep(names, &mut f.body)?;

        let mut out = Vec::new();
        let (parallel, body) = match (f.region, &l.parallel) {
            (Some(region), Some(primal_info)) if !self.opts.parallel.is_serial() => {
                let (gathers, body, transposed_fallback) = self.apply_transposed(region, l, body);
                // Gather loops read region-entry seed adjoints, so
                // they run before the residual reversed loop.
                self.loop_regions.extend(gathers.iter().map(|_| region));
                out.extend(gathers);
                if body.is_empty() && f.exit_pushes.is_empty() {
                    return Ok(out);
                }
                head.extend(body);
                let (info, body) = self.parallel_adjoint_pragma(
                    region,
                    primal_info,
                    &l.var,
                    head,
                    &transposed_fallback,
                );
                self.loop_regions.push(region);
                (Some(info), body)
            }
            _ => {
                head.extend(body);
                (None, head)
            }
        };
        self.count(|s| s.recomputed.extend_from_slice(&recomputed));
        let (last, first, neg_step) = reversed_bounds(l);
        out.push(Stmt::For(Box::new(ForLoop {
            var: l.var.clone(),
            lo: last,
            hi: first,
            step: neg_step,
            body,
            parallel,
        })));
        Ok(out)
    }

    /// Replace the adjoint scatter of every `Transposed`-mode array with
    /// gather loops (scatter-to-gather inversion, arXiv 1907.02818).
    /// Returns the gather loops, the body with the scatter increments
    /// removed, and the arrays whose plan failed — those fall back to
    /// atomic guards. Under forced uniform mode (no prover ran) the plan
    /// must additionally vouch for gather-disjointness structurally;
    /// per-array mode only arrives here with a proved verdict.
    fn apply_transposed(
        &mut self,
        region: usize,
        l: &ForLoop,
        mut body: Vec<Stmt>,
    ) -> (Vec<Stmt>, Vec<Stmt>, FxHashSet<Name>) {
        let mut gathers: Vec<Stmt> = Vec::new();
        let mut fallback: FxHashSet<Name> = FxHashSet::default();
        if !self.opts.parallel.transposes_in(region) {
            return (gathers, body, fallback);
        }
        // Primal arrays with an adjoint scatter in the body, with the
        // adjoint's name.
        let mut candidates: Vec<(Name, Name)> = Vec::new();
        for s in &body {
            s.walk(&mut |st| {
                if let Some((LValue::Index { array: bname, .. }, _)) = st.increment_parts() {
                    if let Some(p) = self.primal_of_adjoint(bname) {
                        if !candidates.iter().any(|(c, _)| *c == p) {
                            candidates.push((p, bname.clone()));
                        }
                    }
                }
            });
        }
        let forced = matches!(self.opts.parallel, ParallelTreatment::Uniform(_));
        let mut writes: Option<RegionWrites> = None;
        for (p, bname) in candidates {
            if self.opts.parallel.mode_of(region, &p) != IncMode::Transposed {
                continue;
            }
            let plan = match plan_transpose(
                self.prog,
                l,
                writes.get_or_insert_with(|| RegionWrites::scan(l)),
                &p,
                &self.opts.adjoint_suffix,
                &|n| self.is_active(n),
            ) {
                Ok(plan) if !forced || plan.forced_safe() => plan,
                _ => {
                    fallback.insert(p);
                    continue;
                }
            };
            let is_scatter = |s: &Stmt| {
                s.increment_parts().is_some_and(|(lhs, _)| {
                    matches!(lhs, LValue::Index { .. }) && *lhs.name() == bname
                })
            };
            if body.iter().filter(|s| is_scatter(s)).count() == plan.contributions {
                gathers.extend(plan.gather_loops(&mut |f| self.value_temp(f)));
                body.retain(|s| !is_scatter(s));
            } else {
                // The emitted body disagrees with the plan's accounting:
                // keep the scatter and guard it instead.
                fallback.insert(p);
            }
        }
        if !gathers.is_empty() {
            self.drop_unread_values(&mut body);
        }
        (gathers, body, fallback)
    }

    /// Delete the value temporaries of `body` that no later statement
    /// reads — their readers were scatters a gather loop replaced — and
    /// their declarations. A temporary is defined before its readers.
    fn drop_unread_values(&mut self, body: &mut Vec<Stmt>) {
        let mut read = FxHashSet::default();
        let mut kept = Vec::with_capacity(body.len());
        for s in body.drain(..).rev() {
            if let Stmt::Assign {
                lhs: LValue::Var(t),
                ..
            } = &s
            {
                let temp = self.prog.decl(t).is_none() && !self.primals.contains_key(t);
                if temp && !read.contains(t) {
                    self.new_locals.retain(|d| d.name != *t);
                    continue;
                }
            }
            s.walk_exprs(&mut |e| {
                if let Expr::Var(n) = e {
                    read.insert(n.clone());
                }
            });
            kept.push(s);
        }
        kept.reverse();
        *body = kept;
    }

    /// Build the data-sharing clauses of an adjoint parallel loop and apply
    /// the per-array safeguard modes to its body.
    fn parallel_adjoint_pragma(
        &mut self,
        region: usize,
        primal: &ParallelInfo,
        counter: &str,
        mut body: Vec<Stmt>,
        transposed_fallback: &FxHashSet<Name>,
    ) -> (ParallelInfo, Vec<Stmt>) {
        let mut uses = NameUses::default();
        for s in &body {
            s.walk(&mut |st| uses.stmt(st, |n| self.primal_of_adjoint(n).is_some()));
        }

        let is_array = |n: &str| {
            // An adjoint array is the adjoint of a primal array.
            let primal = self.primal_of_adjoint(n);
            let d = self
                .prog
                .decl(n)
                .or_else(|| self.prog.decl(primal.as_deref()?));
            d.is_some_and(|d| d.is_array())
        };

        // Zero-init adjoints of primal-private real scalars at iteration
        // start (OpenMP privates are uninitialized).
        let mut preamble = Vec::new();
        for pvar in &primal.private {
            if let Some(b) = self.adjoint_of(pvar) {
                if uses.get(&b).referenced {
                    preamble.push(Stmt::assign(LValue::Var(b), Expr::real(0.0)));
                }
            }
        }

        // An adjoint array may only be privatized by a reduction clause if
        // its *every* appearance in the region is an increment (lhs and
        // the matching self-read): any other read would see the private
        // zero-initialized copy instead of the incoming seed values, and
        // any overwrite could not be merged. Mixed-access arrays fall back
        // to atomics on their increments. Each increment's rhs contains
        // exactly one self-read; index expressions inside the lhs do not
        // read the adjoint array.
        let mut info = ParallelInfo::default();
        let mut atomic_arrays: FxHashSet<Name> = FxHashSet::default();
        for (name, u) in uses.names.iter().zip(&uses.uses) {
            let primal_name = self.primal_of_adjoint(name);
            // Only an incremented adjoint array has a safeguard mode.
            let (mode, fallback) = match &primal_name {
                Some(p) if u.incremented_array => (
                    Some(self.opts.parallel.mode_of(region, p)),
                    transposed_fallback.contains(p),
                ),
                _ => (None, false),
            };
            let reduction = mode == Some(IncMode::Reduction);
            let reduction_eligible = u.other_writes == 0 && u.index_reads == u.inc_writes;
            if mode == Some(IncMode::Atomic) || (reduction && !reduction_eligible) || fallback {
                atomic_arrays.insert(name.clone());
            }
            if *name == counter {
                continue;
            }
            if !u.referenced {
                // Scalars that are only ever written — e.g. an inner
                // sequential loop counter whose body never reads it —
                // appear in no expression. They still race without a
                // clause: privatize them.
                if u.assigned_scalar && !is_array(name) {
                    info.private.push(name.clone());
                }
            } else if is_array(name) {
                if reduction && reduction_eligible {
                    info.reductions.push((RedOp::Add, name.clone()));
                } else {
                    info.shared.push(name.clone());
                }
            } else {
                // Scalar.
                let primal_private = primal.is_privatized(name)
                    || primal_name.is_some_and(|p| primal.is_privatized(&p));
                if u.incremented_scalar && !primal_private {
                    // Shared scalar read by all threads in the primal:
                    // its adjoint accumulates across threads.
                    info.reductions.push((RedOp::Add, name.clone()));
                } else if u.assigned_scalar {
                    info.private.push(name.clone());
                } else {
                    info.shared.push(name.clone());
                }
            }
        }
        info.shared.sort();
        info.private.sort();
        info.reductions.sort_by(|a, b| a.1.cmp(&b.1));

        if !preamble.is_empty() {
            preamble.extend(body);
            body = preamble;
        }
        // Apply atomic mode: rewrite plain increments to AtomicAdd — both
        // for arrays the plan marked Atomic and for reduction-ineligible
        // mixed-access arrays.
        if !atomic_arrays.is_empty() {
            body = body
                .into_iter()
                .map(|s| apply_atomic(s, &atomic_arrays))
                .collect();
        }
        (info, body)
    }
}

/// How the body of an adjoint parallel loop uses one name.
#[derive(Debug, Default, Clone, Copy)]
struct Use {
    /// Read in an expression, or written.
    referenced: bool,
    /// Assigned as a scalar, or an inner loop's counter.
    assigned_scalar: bool,
    /// An adjoint array incremented (plainly or atomically).
    incremented_array: bool,
    /// An adjoint scalar incremented.
    incremented_scalar: bool,
    /// Element reads `a(…)`, in any expression.
    index_reads: u32,
    /// Increments of it.
    inc_writes: u32,
    /// Other writes of it: assignments and pops.
    other_writes: u32,
}

/// The names of a statement list, numbered as first met, with their uses:
/// what [`Xform::parallel_adjoint_pragma`] reads off the body in one walk.
#[derive(Default)]
struct NameUses {
    by_alloc: ByAlloc<usize>,
    names: Vec<Name>,
    uses: Vec<Use>,
}

impl NameUses {
    fn of(&mut self, n: &Name) -> &mut Use {
        let NameUses {
            by_alloc,
            names,
            uses,
        } = self;
        let k = by_alloc.get(n, || {
            names.iter().position(|m| m == n).unwrap_or_else(|| {
                names.push(n.clone());
                uses.push(Use::default());
                names.len() - 1
            })
        });
        &mut uses[k]
    }

    /// The uses of `n`; none if the body never mentions it.
    fn get(&self, n: &Name) -> Use {
        let k = self.names.iter().position(|m| m == n);
        k.map_or_else(Use::default, |k| self.uses[k])
    }

    /// The node `e` itself, not its children.
    fn read(&mut self, e: &Expr) {
        match e {
            Expr::Var(n) => self.of(n).referenced = true,
            Expr::Index { array, .. } => {
                let u = self.of(array);
                u.referenced = true;
                u.index_reads += 1;
            }
            _ => {}
        }
    }

    fn reads(&mut self, e: &Expr) {
        e.walk(&mut |sub| self.read(sub));
    }

    /// One statement's own expressions and lvalue (not its nested
    /// statements). `is_adjoint` tells adjoint names.
    fn stmt(&mut self, st: &Stmt, is_adjoint: impl Fn(&str) -> bool) {
        let lhs = match st {
            Stmt::Assign { lhs, rhs } | Stmt::AtomicAdd { lhs, rhs } => {
                self.reads(rhs);
                lhs
            }
            Stmt::Pop(lhs) => lhs,
            Stmt::If { cond, .. } => return cond.walk_exprs(&mut |e| self.read(e)),
            Stmt::Push(e) => return self.reads(e),
            Stmt::For(l) => {
                [&l.lo, &l.hi, &l.step]
                    .into_iter()
                    .for_each(|e| self.reads(e));
                self.of(&l.var).assigned_scalar = true;
                return;
            }
        };
        lhs.indices().iter().for_each(|ix| self.reads(ix));
        let increment = st.increment_parts().is_some() || matches!(st, Stmt::AtomicAdd { .. });
        let scalar = matches!(lhs, LValue::Var(_));
        let adjoint = is_adjoint(lhs.name());
        let u = self.of(lhs.name());
        u.referenced = true;
        u.assigned_scalar |= scalar;
        if increment {
            u.inc_writes += 1;
            if adjoint {
                u.incremented_array |= !scalar;
                u.incremented_scalar |= scalar;
            }
        } else {
            u.other_writes += 1;
        }
    }
}

/// Rewrite increments to the given adjoint arrays as atomic updates,
/// recursively through control flow.
fn apply_atomic(s: Stmt, arrays: &FxHashSet<Name>) -> Stmt {
    let all = |b: Vec<Stmt>| b.into_iter().map(|t| apply_atomic(t, arrays)).collect();
    let guarded = s
        .increment_parts()
        .is_some_and(|(lhs, _)| matches!(lhs, LValue::Index { .. }) && arrays.contains(lhs.name()));
    match s {
        // Take the increment apart the way `increment_parts` reads it.
        Stmt::Assign {
            lhs,
            rhs: Expr::Binary { lhs: a, rhs: b, .. },
        } if guarded => {
            let added = if lhs.reads_as(&a) { b } else { a };
            Stmt::AtomicAdd {
                lhs,
                rhs: Arc::unwrap_or_clone(added),
            }
        }
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => Stmt::If {
            cond,
            then_body: all(then_body),
            else_body: all(else_body),
        },
        Stmt::For(mut l) => {
            l.body = all(l.body);
            Stmt::For(l)
        }
        other => other,
    }
}

/// The final iterate the primal loop `l` actually executes: `last = lo +
/// ((hi - lo) / step) * step` (integer division truncates toward zero,
/// which also yields an empty reversed loop when the primal was empty).
pub(crate) fn last_iterate(l: &ForLoop) -> Expr {
    if l.step == Expr::IntLit(1) {
        l.hi.clone()
    } else {
        l.lo.clone()
            + Expr::binary(BinOp::Div, l.hi.clone() - l.lo.clone(), l.step.clone()) * l.step.clone()
    }
}

/// Bounds of the reversed loop: `do v = last, lo, -step`.
fn reversed_bounds(l: &ForLoop) -> (Expr, Expr, Expr) {
    let neg_step = match &l.step {
        Expr::IntLit(v) => Expr::IntLit(-v),
        other => other.clone().neg(),
    };
    (last_iterate(l), l.lo.clone(), neg_step)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::ParallelTreatment;
    use formad_ir::{parse_program, program_to_string};

    fn diff(src: &str, indep: &[&str], dep: &[&str], par: ParallelTreatment) -> Program {
        let p = parse_program(src).unwrap();
        differentiate(&p, &AdjointOptions::new(indep, dep, par))
            .unwrap()
            .program
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
    fn saxpy_adjoint_shape() {
        let adj = diff(
            SAXPY,
            &["x"],
            &["y"],
            ParallelTreatment::Uniform(IncMode::Plain),
        );
        assert_eq!(adj.name, "saxpy_b");
        // Params: n, a, x, y, then adjoints of active ones (x, y; a is
        // independent? no — a not in independents so varied(a)=false).
        let names: Vec<&str> = adj.params.iter().map(|d| d.name.as_str()).collect();
        assert!(names.contains(&"xb"));
        assert!(names.contains(&"yb"));
        assert!(!names.contains(&"ab"));
        let text = program_to_string(&adj);
        // The adjoint loop increments xb and leaves yb alone except reads.
        assert!(text.contains("xb(i) = xb(i) + yb(i) * a"), "{text}");
        // Exact increment: no push/pop of y and no yb zeroing.
        assert!(!text.contains("push"), "{text}");
        assert!(!text.contains("yb(i) = 0"), "{text}");
    }

    #[test]
    fn saxpy_with_a_active_gets_reduction() {
        let adj = diff(
            SAXPY,
            &["x", "a"],
            &["y"],
            ParallelTreatment::Uniform(IncMode::Plain),
        );
        let text = program_to_string(&adj);
        assert!(text.contains("reduction(+: ab)"), "{text}");
        assert!(text.contains("ab = ab + yb(i) * x(i)"), "{text}");
    }

    #[test]
    fn atomic_mode_rewrites_increments() {
        let adj = diff(
            SAXPY,
            &["x"],
            &["y"],
            ParallelTreatment::Uniform(IncMode::Atomic),
        );
        let text = program_to_string(&adj);
        assert!(text.contains("!$omp atomic"), "{text}");
    }

    #[test]
    fn reduction_mode_adds_clause() {
        let adj = diff(
            SAXPY,
            &["x"],
            &["y"],
            ParallelTreatment::Uniform(IncMode::Reduction),
        );
        let text = program_to_string(&adj);
        assert!(text.contains("reduction(+: xb)"), "{text}");
        assert!(!text.contains("!$omp atomic"), "{text}");
    }

    #[test]
    fn serial_mode_strips_pragmas() {
        let adj = diff(SAXPY, &["x"], &["y"], ParallelTreatment::Serial);
        let text = program_to_string(&adj);
        assert!(!text.contains("!$omp"), "{text}");
    }

    #[test]
    fn overwrite_gets_tape_and_restore() {
        // z overwrites its input: nonlinear, so x must be recorded.
        let src = r#"
subroutine sq(n, x)
  integer, intent(in) :: n
  real, intent(inout) :: x(n)
  integer :: i
  do i = 1, n
    x(i) = x(i) * x(i)
  end do
end subroutine
"#;
        let adj = diff(src, &["x"], &["x"], ParallelTreatment::Serial);
        let text = program_to_string(&adj);
        assert!(text.contains("call push(x(i))"), "{text}");
        assert!(text.contains("call pop(x(i))"), "{text}");
        // Self-seed: xb(i) = xb(i)*x(i) + xb(i)*x(i).
        assert!(
            text.contains("xb(i) = xb(i) * x(i) + xb(i) * x(i)"),
            "{text}"
        );
    }

    #[test]
    fn reversed_loop_bounds_with_stride() {
        let src = r#"
subroutine st(n, x, y)
  integer, intent(in) :: n
  real, intent(in) :: x(n)
  real, intent(inout) :: y(n)
  integer :: i
  do i = 2, n - 1, 2
    y(i) = y(i) + x(i)
  end do
end subroutine
"#;
        let adj = diff(src, &["x"], &["y"], ParallelTreatment::Serial);
        let text = program_to_string(&adj);
        assert!(
            text.contains("do i = 2 + (n - 1 - 2) / 2 * 2, 2, -2"),
            "{text}"
        );
    }

    #[test]
    fn branch_on_unwritten_data_is_evaluated_again() {
        let src = r#"
subroutine br(n, x, y, c)
  integer, intent(in) :: n
  integer, intent(in) :: c(n)
  real, intent(in) :: x(n)
  real, intent(inout) :: y(n)
  integer :: i
  do i = 1, n
    if (c(i) .gt. 0) then
      y(i) = y(i) + 2.0 * x(i)
    end if
  end do
end subroutine
"#;
        let p = parse_program(src).unwrap();
        let adj = differentiate(
            &p,
            &AdjointOptions::new(&["x"], &["y"], ParallelTreatment::Serial),
        )
        .unwrap();
        let text = program_to_string(&adj.program);
        assert!(!text.contains("push"), "{text}");
        assert!(!text.contains("ad_branch"), "{text}");
        assert_eq!(text.matches("if (c(i) .gt. 0) then").count(), 1, "{text}");
        assert_eq!(adj.stats.branches_reevaluated, 1);
        assert_eq!((adj.stats.fwd_kept, adj.stats.fwd_dropped), (0, 3));
    }

    #[test]
    fn branch_on_written_data_pushes_its_decision() {
        // `c` is written by the program, so the condition may not hold
        // the same value when the backward sweep reaches the branch.
        let src = r#"
subroutine br(n, x, y, c)
  integer, intent(in) :: n
  integer, intent(inout) :: c(n)
  real, intent(in) :: x(n)
  real, intent(inout) :: y(n)
  integer :: i
  do i = 1, n
    if (c(i) .gt. 0) then
      y(i) = y(i) + 2.0 * x(i)
    end if
    c(i) = 0
  end do
end subroutine
"#;
        let adj = diff(src, &["x"], &["y"], ParallelTreatment::Serial);
        let text = program_to_string(&adj);
        assert!(text.contains("call push(1)"), "{text}");
        assert!(text.contains("call push(0)"), "{text}");
        assert!(text.contains("call pop(ad_branch0)"), "{text}");
        assert!(text.contains("if (ad_branch0 .eq. 1) then"), "{text}");
        // The branch local is declared.
        assert!(adj.locals.iter().any(|d| d.name == "ad_branch0"));
        // The flag is all the forward sweep keeps of the branch; the
        // write to `c` stays, for the next iteration's condition.
        assert!(!text.contains("y(i) = y(i) + 2.0 * x(i)"), "{text}");
        assert!(text.contains("c(i) = 0"), "{text}");
    }

    #[test]
    fn statistics_split_by_region() {
        // Statements outside the parallel loops count for the program
        // only; `from` is recomputed in the sequential `k` loop, `t` in
        // region 0.
        let src = r#"
subroutine two(n, c, x, y)
  integer, intent(in) :: n
  integer, intent(in) :: c(n)
  real, intent(in) :: x(n)
  real, intent(inout) :: y(n)
  integer :: i, k, t, from
  do k = 1, 2
    from = k + 1
    !$omp parallel do shared(c, x, y) private(t)
    do i = from, n
      t = c(i)
      y(i) = y(i) + x(t) * x(t)
    end do
    !$omp parallel do shared(y)
    do i = 1, n
      y(i) = sin(y(i))
    end do
  end do
end subroutine
"#;
        let p = parse_program(src).unwrap();
        let adj = differentiate(
            &p,
            &AdjointOptions::new(&["x"], &["y"], ParallelTreatment::Uniform(IncMode::Plain)),
        )
        .unwrap();
        let text = program_to_string(&adj.program);
        let stats = |kept, dropped, pushes, recomputed: &[&str]| AdjointStats {
            fwd_kept: kept,
            fwd_dropped: dropped,
            push_sites: pushes,
            value_pushes: 0,
            recomputed: recomputed.iter().map(|s| s.to_string()).collect(),
            branches_reevaluated: 0,
        };
        // `sin` reads the `y` it overwrites, and that `y` comes out of
        // region 0, so every statement stays; arrays are recorded by
        // name, so both writes to `y` push.
        assert_eq!(adj.stats, stats(7, 0, 2, &["t", "from"]), "{text}");
        assert_eq!(adj.regions[0], stats(3, 0, 1, &["t"]), "{text}");
        assert_eq!(adj.regions[1], stats(2, 0, 1, &[]), "{text}");
        assert_eq!(text.matches("call push(y(i))").count(), 2, "{text}");
    }

    #[test]
    fn inactive_if_left_alone() {
        let src = r#"
subroutine br(n, w, y)
  integer, intent(in) :: n
  integer :: w
  real, intent(inout) :: y(n)
  integer :: i
  do i = 1, n
    if (i .gt. 1) then
      w = i
    end if
  end do
end subroutine
"#;
        // w is integer and never feeds an adjoint: the if is not reversed.
        let adj = diff(src, &["y"], &["y"], ParallelTreatment::Serial);
        let text = program_to_string(&adj);
        assert!(!text.contains("ad_branch"), "{text}");
    }

    #[test]
    fn loop_bound_modified_in_body_rejected() {
        let src = r#"
subroutine bad(n, y)
  integer, intent(in) :: n
  integer :: m, i
  real, intent(inout) :: y(n)
  m = n
  do i = 1, m
    y(i) = y(i) * 2.0
    m = m - 1
  end do
end subroutine
"#;
        let p = parse_program(src).unwrap();
        let err = differentiate(
            &p,
            &AdjointOptions::new(&["y"], &["y"], ParallelTreatment::Serial),
        )
        .unwrap_err();
        assert!(err.message.contains("loop bound"), "{err}");
    }

    #[test]
    fn unknown_independent_rejected() {
        let p = parse_program(SAXPY).unwrap();
        let err = differentiate(
            &p,
            &AdjointOptions::new(&["zzz"], &["y"], ParallelTreatment::Serial),
        )
        .unwrap_err();
        assert!(err.message.contains("zzz"));
    }

    #[test]
    fn fig2_indirect_adjoint() {
        let src = r#"
subroutine fig2(n, x, y, c)
  integer, intent(in) :: n
  real, intent(in) :: x(n)
  real, intent(inout) :: y(n)
  integer, intent(in) :: c(n)
  integer :: i
  !$omp parallel do shared(x, y, c)
  do i = 1, n
    y(c(i)) = x(c(i) + 7)
  end do
end subroutine
"#;
        let adj = diff(
            src,
            &["x"],
            &["y"],
            ParallelTreatment::Uniform(IncMode::Plain),
        );
        let text = program_to_string(&adj);
        // xb(c(i)+7) += yb(c(i)); yb(c(i)) = 0 — as in the paper's Fig. 2.
        assert!(
            text.contains("xb(c(i) + 7) = xb(c(i) + 7) + yb(c(i))"),
            "{text}"
        );
        assert!(text.contains("yb(c(i)) = 0"), "{text}");
        // Reversed parallel loop.
        assert!(text.contains("do i = n, 1, -1"), "{text}");
    }

    #[test]
    fn private_scalar_adjoint_zero_initialized() {
        let src = r#"
subroutine gg(n, dv, grad, e2n, sij)
  integer, intent(in) :: n
  real, intent(in) :: dv(n)
  real, intent(inout) :: grad(n)
  integer, intent(in) :: e2n(n)
  real, intent(in) :: sij(n)
  integer :: ie, i
  real :: dvface
  !$omp parallel do shared(dv, grad, e2n, sij) private(i, dvface)
  do ie = 1, n
    i = e2n(ie)
    dvface = 0.5 * dv(i)
    grad(i) = grad(i) + dvface * sij(ie)
  end do
end subroutine
"#;
        let adj = diff(
            src,
            &["dv"],
            &["grad"],
            ParallelTreatment::Uniform(IncMode::Plain),
        );
        let text = program_to_string(&adj);
        assert!(text.contains("dvfaceb = 0.0"), "{text}");
        assert!(text.contains("private"), "{text}");
        // dvfaceb must be in the private clause of the adjoint loop.
        let adj_pragmas: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("!$omp parallel do"))
            .collect();
        assert!(
            adj_pragmas.iter().any(|l| l.contains("dvfaceb")),
            "{adj_pragmas:?}"
        );
    }

    #[test]
    fn transposed_mode_inverts_scatter_to_gather() {
        let src = r#"
subroutine sh(n, x, y)
  integer, intent(in) :: n
  real, intent(in) :: x(n)
  real, intent(inout) :: y(n)
  integer :: i
  !$omp parallel do shared(x, y)
  do i = 1, n
    y(i) = y(i) + 2.0 * x(i + 1)
  end do
end subroutine
"#;
        let adj = diff(
            src,
            &["x"],
            &["y"],
            ParallelTreatment::Uniform(IncMode::Transposed),
        );
        let text = program_to_string(&adj);
        // Gather form: xb written at the owned index, seed read shifted.
        assert!(text.contains("xb(i) = xb(i) + yb(i - 1) * 2.0"), "{text}");
        assert!(!text.contains("xb(i + 1)"), "{text}");
        assert!(!text.contains("!$omp atomic"), "{text}");
        // The scatter loop body became empty (exact increment on y): only
        // the gather loop remains.
        assert!(text.contains("do i = 2, n + 1"), "{text}");
    }

    #[test]
    fn a_chain_of_calls_is_bound_one_temporary_per_call() {
        // Each `tanh'` reads its value twice and every inner call sits in
        // the argument of an outer one: 200 temporaries, each defined over
        // the one before, and an adjoint whose size is the chain's.
        let chain = (0..200).fold("x(i)".to_string(), |e, _| format!("tanh({e})"));
        let src = format!(
            "subroutine c(n, x, y)\n  integer, intent(in) :: n\n  real, intent(in) :: x(n)\n  \
             real, intent(inout) :: y(n)\n  integer :: i\n  do i = 1, n\n    y(i) = {chain}\n  \
             end do\nend subroutine\n"
        );
        let text = program_to_string(&diff(&src, &["x"], &["y"], ParallelTreatment::Serial));
        assert_eq!(text.matches("tanh(").count(), 200, "{text}");
        assert!(text.contains("ad_tanh0 = tanh(x(i))"), "{text}");
        assert!(text.contains("ad_tanh199 = tanh(ad_tanh198)"), "{text}");
        assert!(text.len() < 20_000, "{} bytes", text.len());
    }

    #[test]
    fn transposed_mode_leaves_no_temporary_its_gather_took_the_reader_of() {
        let src = r#"
subroutine sh(n, x, y)
  integer, intent(in) :: n
  real, intent(in) :: x(n + 1)
  real, intent(inout) :: y(n)
  integer :: i
  !$omp parallel do shared(x, y)
  do i = 1, n
    y(i) = y(i) + tanh(x(i + 1))
  end do
end subroutine
"#;
        let adj = diff(
            src,
            &["x"],
            &["y"],
            ParallelTreatment::Uniform(IncMode::Transposed),
        );
        let text = program_to_string(&adj);
        // The gather loop alone: no residual reversed loop evaluating a
        // value nobody reads, and one declared temporary.
        assert_eq!(text.matches("do i =").count(), 1, "{text}");
        assert!(text.contains("do i = 2, n + 1"), "{text}");
        assert_eq!(text.matches("tanh(").count(), 1, "{text}");
        let temps: Vec<&str> = (adj.locals.iter())
            .map(|d| d.name.as_str())
            .filter(|n| n.starts_with("ad_tanh"))
            .collect();
        assert_eq!(temps.len(), 1, "{text}");
    }

    #[test]
    fn transposed_mode_falls_back_to_atomic_on_indirect_map() {
        let src = r#"
subroutine ind(n, x, y, c)
  integer, intent(in) :: n
  real, intent(in) :: x(n)
  real, intent(inout) :: y(n)
  integer, intent(in) :: c(n)
  integer :: i
  !$omp parallel do shared(x, y, c)
  do i = 1, n
    y(i) = y(i) + x(c(i))
  end do
end subroutine
"#;
        let adj = diff(
            src,
            &["x"],
            &["y"],
            ParallelTreatment::Uniform(IncMode::Transposed),
        );
        let text = program_to_string(&adj);
        assert!(text.contains("!$omp atomic"), "{text}");
        assert!(text.contains("xb(c(i))"), "{text}");
    }

    #[test]
    fn transposed_mode_falls_back_when_not_structurally_safe() {
        // Same-iteration alias: yb(i) is finalized by the second statement
        // but read as a seed by the first — forced mode must refuse.
        let src = r#"
subroutine al(n, x, y)
  integer, intent(in) :: n
  real, intent(in) :: x(n)
  real, intent(out) :: y(n)
  integer :: i
  !$omp parallel do shared(x, y)
  do i = 1, n
    y(i) = x(i)
    y(i) = x(i + 1) * y(i)
  end do
end subroutine
"#;
        let adj = diff(
            src,
            &["x"],
            &["y"],
            ParallelTreatment::Uniform(IncMode::Transposed),
        );
        let text = program_to_string(&adj);
        assert!(text.contains("!$omp atomic"), "{text}");
    }

    /// `f` of an operand in a loop over `i` that runs twice, parallel or
    /// not. `overwrite`: `y(i) = f(y(i)) + 0.5 * x(i)`, which the forward
    /// sweep keeps; else `y(i) = f(x(i)) * x(i)`, which it drops.
    fn value_program(f: &str, parallel: bool, overwrite: bool) -> String {
        let pragma = if parallel {
            "!$omp parallel do shared(x, y)"
        } else {
            ""
        };
        let stmt = if overwrite {
            format!("y(i) = {f}(y(i)) + 0.5 * x(i)")
        } else {
            format!("y(i) = {f}(x(i)) * x(i)")
        };
        format!(
            "subroutine v(n, x, y)\n  integer, intent(in) :: n\n  real, intent(in) :: x(n)\n  \
             real, intent(inout) :: y(n)\n  integer :: i, rep\n  do rep = 1, 2\n    {pragma}\n    \
             do i = 1, n\n      {stmt}\n    end do\n  end do\nend subroutine\n"
        )
    }

    fn value_adjoint(f: &str, parallel: bool, overwrite: bool) -> (String, AdjointStats) {
        let p = parse_program(&value_program(f, parallel, overwrite)).unwrap();
        let opts = AdjointOptions::new(&["x"], &["y"], ParallelTreatment::Uniform(IncMode::Plain));
        let adj = differentiate(&p, &opts).unwrap();
        (program_to_string(&adj.program), adj.stats)
    }

    #[test]
    fn a_kept_self_overwrite_tapes_the_intrinsic_value() {
        for f in ["tanh", "exp", "sqrt"] {
            for parallel in [true, false] {
                let (text, stats) = value_adjoint(f, parallel, true);
                let t = format!("ad_{f}0");
                assert!(text.contains(&format!("{t} = {f}(y(i))")), "{text}");
                assert!(text.contains(&format!("call push({t})")), "{text}");
                assert!(text.contains(&format!("y(i) = {t} + 0.5 * x(i)")), "{text}");
                assert!(text.contains(&format!("call pop({t})")), "{text}");
                // The operand is not taped, and only the forward sweep
                // calls the intrinsic.
                assert!(!text.contains("push(y("), "{text}");
                assert_eq!(text.matches(&format!("{f}(")).count(), 1, "{text}");
                assert_eq!((stats.value_pushes, stats.push_sites), (1, 0), "{text}");
                let pragmas: Vec<&str> = text.lines().filter(|l| l.contains("!$omp")).collect();
                assert_eq!(pragmas.len(), if parallel { 2 } else { 0 }, "{text}");
                for p in pragmas {
                    assert!(p.contains("private(") && p.contains(&t), "{p}\n{text}");
                }
            }
        }
    }

    #[test]
    fn a_dropped_assignment_evaluates_the_intrinsic_once() {
        for f in ["tanh", "exp", "sqrt"] {
            for parallel in [true, false] {
                let (text, stats) = value_adjoint(f, parallel, false);
                assert_eq!(stats.fwd_kept, 0, "{text}");
                assert_eq!(stats.value_pushes, 0, "{text}");
                assert!(!text.contains("push"), "{text}");
                // The partial reads the value twice, the product rule once
                // more: one evaluation, bound to a backward temporary.
                assert_eq!(text.matches(&format!("{f}(")).count(), 1, "{text}");
                assert!(text.contains(&format!("ad_{f}0 = {f}(x(i))")), "{text}");
                if parallel {
                    let pragma = text.lines().find(|l| l.contains("!$omp")).unwrap();
                    assert!(pragma.contains(&format!("private(ad_{f}0)")), "{text}");
                }
            }
        }
    }

    #[test]
    fn write_only_inner_counter_privatized_in_adjoint() {
        // Found by the differential fuzzer: `j` is assigned by the inner
        // `do` header but never read, so the reference scan misses it and
        // the adjoint region used to emit no clause for it at all — the
        // bytecode compiler then rejects the adjoint.
        let src = r#"
subroutine rep(n, x, y)
  integer, intent(in) :: n
  real, intent(in) :: x(n)
  real, intent(inout) :: y(n)
  integer :: i, j
  !$omp parallel do shared(x, y) private(j)
  do i = 1, n
    do j = 1, 3
      y(i) = y(i) + x(i)
    end do
  end do
end subroutine
"#;
        let adj = diff(
            src,
            &["x"],
            &["y"],
            ParallelTreatment::Uniform(IncMode::Plain),
        );
        let region = adj
            .body
            .iter()
            .find_map(|s| match s {
                Stmt::For(l) if l.parallel.is_some() => l.parallel.as_ref(),
                _ => None,
            })
            .expect("adjoint keeps the parallel region");
        assert!(
            region.private.iter().any(|p| p == "j"),
            "inner counter must be private: {region:?}"
        );
    }
}
