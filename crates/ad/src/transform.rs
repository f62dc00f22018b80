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
//! read overwritten primal values (GFMC's `tanh`) keeps that part of the
//! primal and its tape.
//!
//! The generated subroutine computes adjoints only. The primal's outputs
//! are **not** returned by it: run the primal for the value.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

use formad_analysis::Activity;
use formad_ir::{
    BinOp, BoolExpr, CmpOp, Decl, Expr, ForLoop, Intent, LValue, Name, ParallelInfo, Program,
    RedOp, Stmt, Ty,
};

use crate::adjoint_expr::{adjoint_of_assign, AdjCtx};
use crate::dataflow::{AssignAdjoint, ForNode, Names, Node, Plan};
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
    /// `push` statements in the forward sweep: overwritten values,
    /// scalars saved where a parallel iteration ends, branch flags.
    pub push_sites: usize,
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
             {} branches re-evaluated / recomputed: {}",
            self.fwd_kept,
            self.fwd_kept + self.fwd_dropped,
            self.push_sites,
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
    let Plan { names, mut body } = Plan::build(p, |s| xf.stmt_adjoint(s));
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
    Ok(Adjoint {
        program: adj,
        stats: xf.stats,
        regions: xf.region_stats,
    })
}

struct Xform<'a> {
    prog: &'a Program,
    /// Every active variable's adjoint name, made once, …
    adjoints: HashMap<Name, Name>,
    /// … and the way back.
    primals: HashMap<Name, Name>,
    opts: &'a AdjointOptions,
    branch_counter: usize,
    new_locals: Vec<Decl>,
    stats: AdjointStats,
    region_stats: Vec<AdjointStats>,
    /// The parallel loop of the primal being emitted, if inside one.
    region: Option<usize>,
}

impl<'a> Xform<'a> {
    fn new(p: &'a Program, act: Activity, opts: &'a AdjointOptions) -> Result<Xform<'a>, AdError> {
        // Adjoint-name collisions with existing declarations are errors.
        let mut adjoints = HashMap::new();
        let mut primals = HashMap::new();
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
            new_locals: Vec::new(),
            stats: AdjointStats::default(),
            region_stats: vec![AdjointStats::default(); p.parallel_loop_count()],
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
        let adj = adjoint_of_assign(lhs, rhs, &seed, &ctx);
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
        (adj.increments, finalize)
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
                        if a.push {
                            self.count(|s| s.push_sites += 1);
                            out.push(Stmt::Push(a.lhs.as_expr()));
                        }
                        out.push(a.stmt.clone());
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
                    let parallel = if xf.opts.parallel.is_serial() {
                        None
                    } else {
                        f.l.parallel.clone()
                    };
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
                    if let Some((incs, fin)) = a.adjoint.take() {
                        out.extend(incs);
                        out.extend(fin);
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
        let mut assigned = HashSet::new();
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
        &self,
        region: usize,
        l: &ForLoop,
        body: Vec<Stmt>,
    ) -> (Vec<Stmt>, Vec<Stmt>, HashSet<Name>) {
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
        let mut gathers: Vec<Stmt> = Vec::new();
        let mut body = body;
        let mut fallback: HashSet<Name> = HashSet::new();
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
                Ok(plan) if !forced || plan.forced_safe => plan,
                _ => {
                    fallback.insert(p);
                    continue;
                }
            };
            let mut kept: Vec<Stmt> = Vec::with_capacity(body.len());
            let mut removed = 0usize;
            for s in &body {
                let is_scatter = s.increment_parts().is_some_and(|(lhs, _)| {
                    matches!(lhs, LValue::Index { .. }) && *lhs.name() == bname
                });
                if is_scatter {
                    removed += 1;
                } else {
                    kept.push(s.clone());
                }
            }
            if removed == plan.contributions {
                gathers.extend(plan.gather_loops);
                body = kept;
            } else {
                // The emitted body disagrees with the plan's accounting:
                // keep the scatter and guard it instead.
                fallback.insert(p);
            }
        }
        (gathers, body, fallback)
    }

    /// Build the data-sharing clauses of an adjoint parallel loop and apply
    /// the per-array safeguard modes to its body.
    fn parallel_adjoint_pragma(
        &mut self,
        region: usize,
        primal: &ParallelInfo,
        counter: &str,
        body: Vec<Stmt>,
        transposed_fallback: &HashSet<Name>,
    ) -> (ParallelInfo, Vec<Stmt>) {
        // Names assigned (scalars) and referenced in the body.
        let mut assigned_scalars: HashSet<Name> = HashSet::new();
        let mut referenced: HashSet<Name> = HashSet::new();
        // Primal name → adjoint name.
        let mut incremented_adjoint_arrays: HashMap<Name, Name> = HashMap::new();
        let mut incremented_adjoint_scalars: HashSet<Name> = HashSet::new();
        for s in &body {
            s.walk(&mut |st| match st {
                Stmt::Assign { lhs, .. } | Stmt::AtomicAdd { lhs, .. } | Stmt::Pop(lhs) => {
                    if let LValue::Var(v) = lhs {
                        assigned_scalars.insert(v.clone());
                    }
                    if let Some(primal_name) = self.primal_of_adjoint(lhs.name()) {
                        if st.increment_parts().is_some() || matches!(st, Stmt::AtomicAdd { .. }) {
                            if matches!(lhs, LValue::Index { .. }) {
                                incremented_adjoint_arrays.insert(primal_name, lhs.name().clone());
                            } else {
                                incremented_adjoint_scalars.insert(lhs.name().clone());
                            }
                        }
                    }
                }
                Stmt::For(inner) => {
                    assigned_scalars.insert(inner.var.clone());
                }
                _ => {}
            });
            s.walk_exprs(&mut |e| {
                if let Expr::Var(n) | Expr::Index { array: n, .. } = e {
                    if !referenced.contains(n) {
                        referenced.insert(n.clone());
                    }
                }
            });
            // Lvalue names too.
            s.walk(&mut |st| match st {
                Stmt::Assign { lhs, .. } | Stmt::AtomicAdd { lhs, .. } | Stmt::Pop(lhs)
                    if !referenced.contains(lhs.name()) =>
                {
                    referenced.insert(lhs.name().clone());
                }
                _ => {}
            });
        }

        let is_array = |n: &str| -> bool {
            if let Some(d) = self.prog.decl(n) {
                return d.is_array();
            }
            // Adjoint array of a primal array.
            if let Some(p) = self.primal_of_adjoint(n) {
                return self.prog.decl(&p).map(|d| d.is_array()).unwrap_or(false);
            }
            false
        };

        let mut info = ParallelInfo::default();
        let mut body = body;

        // Zero-init adjoints of primal-private real scalars at iteration
        // start (OpenMP privates are uninitialized).
        let mut preamble = Vec::new();
        for pvar in &primal.private {
            if let Some(b) = self.adjoint_of(pvar) {
                if referenced.contains(&b) {
                    preamble.push(Stmt::assign(LValue::Var(b), Expr::real(0.0)));
                }
            }
        }
        if !preamble.is_empty() {
            preamble.extend(body);
            body = preamble;
        }

        // An adjoint array may only be privatized by a reduction clause if
        // its *every* appearance in the region is an increment (lhs and
        // the matching self-read): any other read would see the private
        // zero-initialized copy instead of the incoming seed values, and
        // any overwrite could not be merged. Mixed-access arrays fall back
        // to atomics on their increments.
        let mut reduction_eligible: HashSet<Name> = HashSet::new();
        let mut reduction_fallback_atomic: HashSet<Name> = HashSet::new();
        for (primal_name, bname) in &incremented_adjoint_arrays {
            if self.opts.parallel.mode_of(region, primal_name) != IncMode::Reduction {
                continue;
            }
            let mut total_reads = 0usize;
            let mut self_reads = 0usize;
            let mut non_increment_writes = 0usize;
            for s in &body {
                s.walk(&mut |st| {
                    let is_inc =
                        st.increment_parts().is_some() || matches!(st, Stmt::AtomicAdd { .. });
                    match st {
                        Stmt::Assign { lhs, .. } | Stmt::AtomicAdd { lhs, .. }
                            if lhs.name() == bname =>
                        {
                            if is_inc {
                                self_reads += 1;
                            } else {
                                non_increment_writes += 1;
                            }
                        }
                        Stmt::Pop(lhs) if lhs.name() == bname => {
                            non_increment_writes += 1;
                        }
                        _ => {}
                    }
                });
                s.walk_exprs(&mut |e| {
                    if let Expr::Index { array, .. } = e {
                        if array == bname {
                            total_reads += 1;
                        }
                    }
                });
            }
            // Each increment's rhs contains exactly one self-read; index
            // expressions inside the lhs do not read the adjoint array.
            if non_increment_writes == 0 && total_reads == self_reads {
                reduction_eligible.insert(primal_name.clone());
            } else {
                reduction_fallback_atomic.insert(primal_name.clone());
            }
        }

        for name in &referenced {
            if name == counter {
                continue;
            }
            if is_array(name) {
                let red = self
                    .primal_of_adjoint(name)
                    .map(|p| reduction_eligible.contains(&p))
                    .unwrap_or(false);
                if red {
                    info.reductions.push((RedOp::Add, name.clone()));
                } else {
                    info.shared.push(name.clone());
                }
            } else {
                // Scalar.
                let primal_private = primal.is_privatized(name) || {
                    self.primal_of_adjoint(name)
                        .map(|p| primal.is_privatized(&p))
                        .unwrap_or(false)
                };
                if incremented_adjoint_scalars.contains(name) && !primal_private {
                    // Shared scalar read by all threads in the primal:
                    // its adjoint accumulates across threads.
                    info.reductions.push((RedOp::Add, name.clone()));
                } else if assigned_scalars.contains(name) {
                    info.private.push(name.clone());
                } else {
                    info.shared.push(name.clone());
                }
            }
        }
        // Scalars that are only ever written — e.g. an inner sequential
        // loop counter whose body never reads it — appear in no
        // expression, so the `referenced` pass above misses them. They
        // still race without a clause: privatize them.
        for name in &assigned_scalars {
            if name != counter && !referenced.contains(name) && !is_array(name) {
                info.private.push(name.clone());
            }
        }
        info.shared.sort();
        info.private.sort();
        info.reductions.sort_by(|a, b| a.1.cmp(&b.1));

        // Apply atomic mode: rewrite plain increments to AtomicAdd — both
        // for arrays the plan marked Atomic and for reduction-ineligible
        // mixed-access arrays.
        let atomic_arrays: HashSet<Name> = incremented_adjoint_arrays
            .iter()
            .filter(|(p, _)| {
                self.opts.parallel.mode_of(region, p) == IncMode::Atomic
                    || reduction_fallback_atomic.contains(*p)
                    || transposed_fallback.contains(*p)
            })
            .map(|(_, b)| b.clone())
            .collect();
        if !atomic_arrays.is_empty() {
            body = body
                .into_iter()
                .map(|s| apply_atomic(s, &atomic_arrays))
                .collect();
        }
        (info, body)
    }
}

/// Rewrite increments to the given adjoint arrays as atomic updates,
/// recursively through control flow.
fn apply_atomic(s: Stmt, arrays: &HashSet<Name>) -> Stmt {
    match s {
        Stmt::Assign { .. } => {
            let guarded = s.increment_parts().is_some_and(|(lhs, _)| {
                matches!(lhs, LValue::Index { .. }) && arrays.contains(lhs.name())
            });
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
                s => s,
            }
        }
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => Stmt::If {
            cond,
            then_body: then_body
                .into_iter()
                .map(|t| apply_atomic(t, arrays))
                .collect(),
            else_body: else_body
                .into_iter()
                .map(|t| apply_atomic(t, arrays))
                .collect(),
        },
        Stmt::For(mut l) => {
            l.body = l
                .body
                .into_iter()
                .map(|t| apply_atomic(t, arrays))
                .collect();
            Stmt::For(l)
        }
        other => other,
    }
}

/// Bounds of the reversed loop: `do v = last, lo, -step` where
/// `last = lo + ((hi - lo) / step) * step` is the final iterate actually
/// executed by the primal loop (integer division truncates toward zero,
/// which also yields an empty reversed loop when the primal was empty).
fn reversed_bounds(l: &ForLoop) -> (Expr, Expr, Expr) {
    let last = if l.step == Expr::IntLit(1) {
        l.hi.clone()
    } else {
        l.lo.clone()
            + Expr::binary(BinOp::Div, l.hi.clone() - l.lo.clone(), l.step.clone()) * l.step.clone()
    };
    let neg_step = match &l.step {
        Expr::IntLit(v) => Expr::IntLit(-v),
        other => other.clone().neg(),
    };
    (last, l.lo.clone(), neg_step)
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
