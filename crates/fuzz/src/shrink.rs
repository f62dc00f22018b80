//! Delta-debugging minimizer for diverging cases.
//!
//! Classic greedy ddmin over the program AST: propose one-edit
//! simplifications (drop a statement, splice a branch, shrink an
//! expression, halve `n`), keep an edit only if the *same oracle* still
//! diverges, and iterate to a fixpoint under an evaluation budget.
//! After every structural edit the case is renormalized — `shared`/
//! `private`/`reduction` clauses, parameter and local declarations,
//! `wrt`/`of` lists and `--set` bindings are pruned to what the body
//! still references — so every candidate stays well-typed.

use std::collections::HashSet;

use formad_ir::{validate, Expr, ForLoop, LValue, Name, Stmt};
use formad_machine::EngineCache;

use crate::grammar::FuzzCase;
use crate::oracle::{run_case, OracleConfig, OracleId};

/// Minimize `case` while `oracle` keeps diverging. Returns the smallest
/// reproducing case found and the number of oracle evaluations spent.
pub fn shrink_case(
    case: &FuzzCase,
    oracle: OracleId,
    cfg: &OracleConfig,
    engines: &mut EngineCache,
    budget: usize,
) -> (FuzzCase, usize) {
    let mut best = case.clone();
    let mut evals = 0usize;
    loop {
        let mut improved = false;
        for cand in candidates(&best) {
            if evals >= budget {
                return (best, evals);
            }
            let Some(cand) = cleanup(cand) else { continue };
            if size(&cand) >= size(&best) {
                continue;
            }
            evals += 1;
            if reproduces(&cand, oracle, cfg, engines) {
                best = cand;
                improved = true;
                break;
            }
        }
        if !improved {
            return (best, evals);
        }
    }
}

fn reproduces(
    case: &FuzzCase,
    oracle: OracleId,
    cfg: &OracleConfig,
    engines: &mut EngineCache,
) -> bool {
    matches!(run_case(case, cfg, engines), Err(d) if d.oracle == oracle)
}

fn size(case: &FuzzCase) -> usize {
    case.source().len()
}

/// All one-edit simplification candidates of `case`, deterministic order.
fn candidates(case: &FuzzCase) -> Vec<FuzzCase> {
    let mut out = Vec::new();
    for body in stmts_variants(&case.program.body) {
        let mut c = case.clone();
        c.program.body = body;
        out.push(c);
    }
    // Halve the problem size.
    if let Some((_, v)) = case.sets.iter().find(|(k, _)| k == "n") {
        if let Ok(n) = v.parse::<i64>() {
            if n > 4 {
                let mut c = case.clone();
                for (k, v) in &mut c.sets {
                    if k == "n" {
                        *v = (n / 2).max(4).to_string();
                    }
                }
                out.push(c);
            }
        }
    }
    out
}

/// One-edit variants of a statement list: drop any statement, or apply
/// one [`stmt_variants`] edit in place (splices allowed).
fn stmts_variants(stmts: &[Stmt]) -> Vec<Vec<Stmt>> {
    let mut out = Vec::new();
    for k in 0..stmts.len() {
        let mut dropped = stmts.to_vec();
        dropped.remove(k);
        out.push(dropped);
        for repl in stmt_variants(&stmts[k]) {
            let mut edited = stmts.to_vec();
            edited.splice(k..=k, repl);
            out.push(edited);
        }
    }
    out
}

/// One-edit variants of a single statement, each a replacement splice.
fn stmt_variants(s: &Stmt) -> Vec<Vec<Stmt>> {
    match s {
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => {
            let mut out = vec![then_body.clone()];
            if !else_body.is_empty() {
                out.push(else_body.clone());
                out.push(vec![Stmt::If {
                    cond: cond.clone(),
                    then_body: then_body.clone(),
                    else_body: Vec::new(),
                }]);
            }
            out
        }
        Stmt::For(l) => stmts_variants(&l.body)
            .into_iter()
            .map(|body| {
                vec![Stmt::For(Box::new(ForLoop {
                    body,
                    ..(**l).clone()
                }))]
            })
            .collect(),
        Stmt::Assign { lhs, rhs } => {
            let mut out: Vec<Vec<Stmt>> = subexprs(rhs)
                .into_iter()
                .map(|e| {
                    vec![Stmt::Assign {
                        lhs: lhs.clone(),
                        rhs: e,
                    }]
                })
                .collect();
            if !matches!(rhs, Expr::RealLit(_)) {
                out.push(vec![Stmt::Assign {
                    lhs: lhs.clone(),
                    rhs: Expr::real(1.0),
                }]);
            }
            out
        }
        _ => Vec::new(),
    }
}

/// Direct real-valued subexpressions usable as a simpler right-hand side.
fn subexprs(e: &Expr) -> Vec<Expr> {
    match e {
        Expr::Binary { lhs, rhs, .. } => vec![(**lhs).clone(), (**rhs).clone()],
        Expr::Unary { arg, .. } => vec![(**arg).clone()],
        Expr::Call { args, .. } => args.to_vec(),
        _ => Vec::new(),
    }
}

/// Names referenced (as scalar or array) anywhere in `stmts`.
fn referenced(stmts: &[Stmt]) -> HashSet<Name> {
    fn grab_expr(names: &mut HashSet<Name>, e: &Expr) {
        e.walk(&mut |x| match x {
            Expr::Var(n) => {
                names.insert(n.clone());
            }
            Expr::Index { array, .. } => {
                names.insert(array.clone());
            }
            _ => {}
        });
    }
    let mut names = HashSet::new();
    for s in stmts {
        s.walk(&mut |st| match st {
            Stmt::Assign { lhs, rhs } => {
                match lhs {
                    LValue::Var(n) => {
                        names.insert(n.clone());
                    }
                    LValue::Index { array, indices } => {
                        names.insert(array.clone());
                        for ix in indices.iter() {
                            grab_expr(&mut names, ix);
                        }
                    }
                }
                grab_expr(&mut names, rhs);
            }
            Stmt::If { cond, .. } => {
                cond.walk_exprs(&mut |e| grab_expr(&mut names, e));
            }
            Stmt::For(l) => {
                names.insert(l.var.clone());
                grab_expr(&mut names, &l.lo);
                grab_expr(&mut names, &l.hi);
                grab_expr(&mut names, &l.step);
            }
            _ => {}
        });
    }
    names
}

/// Renormalize a candidate after edits: prune parallel clauses, unused
/// declarations, `wrt`/`of`, and `sets` to what the body references.
/// Returns `None` when the candidate can no longer be differentiated
/// (empty `wrt`/`of`) or fails validation.
fn cleanup(mut case: FuzzCase) -> Option<FuzzCase> {
    // Per-region clause pruning.
    for s in &mut case.program.body {
        if let Stmt::For(l) = s {
            if let Some(info) = &mut l.parallel {
                let used = referenced(&l.body);
                info.shared.retain(|n| used.contains(n));
                info.private.retain(|n| used.contains(n));
                info.reductions.retain(|(_, n)| used.contains(n));
            }
        }
    }
    let used = referenced(&case.program.body);
    // `n` stays: loop bounds and array extents are expressed in it.
    let keep = |name: &str| name == "n" || used.contains(name);
    case.program.params.retain(|d| keep(&d.name));
    case.program.locals.retain(|d| keep(&d.name));
    let params: HashSet<Name> = case.program.params.iter().map(|d| d.name.clone()).collect();
    case.wrt.retain(|n| params.contains(n.as_str()));
    case.of.retain(|n| params.contains(n.as_str()));
    case.sets.retain(|(k, _)| params.contains(k.as_str()));
    if case.wrt.is_empty() || case.of.is_empty() {
        return None;
    }
    if !validate(&case.program).is_empty() {
        return None;
    }
    Some(case)
}
