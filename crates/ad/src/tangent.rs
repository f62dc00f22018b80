//! Forward (tangent) mode source transformation.
//!
//! The tangent of `v = e` is `vd = Σ_r (∂e/∂r)·rd`, inserted *before* the
//! primal statement so every value reference sees pre-assignment state.
//! No tape, no reversal, and no race-safety analysis is needed: tangent
//! writes mirror the primal writes one-to-one, so a correctly
//! parallelized primal yields a correctly parallelized tangent — which is
//! exactly why the paper focuses on the much harder reverse mode.
//!
//! Provided here both for API completeness (Tapenade offers it) and as a
//! third oracle in the test suite: `⟨ȳ, ẏ⟩ = ⟨x̄, ẋ⟩` must hold between
//! tangent and adjoint results.

use std::cell::RefCell;
use std::sync::Arc;

use formad_ir::{
    BinOp, BoolExpr, CmpOp, Decl, Expr, ForLoop, Intent, Intrinsic, LValue, Name, ParallelInfo,
    Program, Stmt, Ty, UnOp,
};

use formad_analysis::Activity;

use crate::adjoint_expr::{bind_values, scale_by_partial, value_name};
use crate::options::{AdError, AdjointOptions};

/// Differentiate `p` in forward mode.
///
/// The generated subroutine is named `{p.name}_d`; each active parameter
/// `x` gains a tangent parameter `xd` (seeded by the caller for the
/// independents; the dependents' tangents hold the directional
/// derivatives on exit). Uses the same options type as the reverse mode;
/// the `parallel` treatment is ignored (tangent loops need no guards).
pub fn differentiate_tangent(p: &Program, opts: &AdjointOptions) -> Result<Program, AdError> {
    formad_ir::validate_strict(p).map_err(|e| AdError::new(format!("invalid primal: {e}")))?;
    for name in opts.independents.iter().chain(&opts.dependents) {
        if p.decl(name).is_none() {
            return Err(AdError::new(format!(
                "independent/dependent `{name}` is not a parameter of `{}`",
                p.name
            )));
        }
    }
    let act = Activity::analyze(p, &opts.independents, &opts.dependents);
    let tg = Tangent {
        prog: p,
        act,
        suffix: "d".to_string(),
        values: RefCell::default(),
    };

    let mut out = Program::new(format!("{}_d", p.name));
    out.params = p.params.clone();
    for d in &p.params {
        if tg.is_active(&d.name) {
            let mut t = d.clone();
            t.name = tg.tname(&d.name);
            t.intent = Intent::InOut;
            out.params.push(t);
        }
    }
    out.locals = p.locals.clone();
    for d in &p.locals {
        if tg.is_active(&d.name) {
            let mut t = d.clone();
            t.name = tg.tname(&d.name);
            out.locals.push(t);
        }
    }
    out.body = tg.body(&p.body)?;
    let values = tg.values.into_inner();
    out.locals
        .extend(values.into_iter().map(|t| Decl::local(t, Ty::Real)));
    Ok(out)
}

struct Tangent<'a> {
    prog: &'a Program,
    act: Activity,
    suffix: String,
    /// The temporaries holding intrinsic values, in the order made.
    values: RefCell<Vec<Name>>,
}

impl<'a> Tangent<'a> {
    fn is_active(&self, name: &str) -> bool {
        self.prog.ty_of(name) == Some(Ty::Real) && self.act.is_active(name)
    }

    /// True if `e` reads an active variable or array.
    fn may_be_active(&self, e: &Expr) -> bool {
        let mut active = false;
        e.walk(&mut |sub| {
            if let Expr::Var(n) | Expr::Index { array: n, .. } = sub {
                active |= self.is_active(n);
            }
        });
        active
    }

    fn tname(&self, name: &str) -> Name {
        format!("{}{}", name, self.suffix).into()
    }

    fn body(&self, stmts: &[Stmt]) -> Result<Vec<Stmt>, AdError> {
        let mut out = Vec::new();
        for s in stmts {
            self.stmt(s, &mut out)?;
        }
        Ok(out)
    }

    fn stmt(&self, s: &Stmt, out: &mut Vec<Stmt>) -> Result<(), AdError> {
        match s {
            Stmt::Assign { lhs, rhs } | Stmt::AtomicAdd { lhs, rhs } => {
                if self.is_active(lhs.name()) {
                    let lhs_d = match lhs {
                        LValue::Var(n) => LValue::var(self.tname(n)),
                        LValue::Index { array, indices } => {
                            LValue::index(self.tname(array), indices.clone())
                        }
                    };
                    // Tangent of an increment is an increment.
                    let full =
                        matches!(s, Stmt::AtomicAdd { .. }).then(|| lhs.as_expr() + rhs.clone());
                    out.extend(self.tangent_assign(lhs_d, full.as_ref().unwrap_or(rhs)));
                }
                out.push(s.clone());
                Ok(())
            }
            Stmt::Push(_) | Stmt::Pop(_) => Err(AdError::new("primal contains tape statements")),
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                out.push(Stmt::If {
                    cond: cond.clone(),
                    then_body: self.body(then_body)?,
                    else_body: self.body(else_body)?,
                });
                Ok(())
            }
            Stmt::For(l) => {
                let made = self.values.borrow().len();
                let body = self.body(&l.body)?;
                let mut parallel = l.parallel.clone();
                if let Some(info) = &mut parallel {
                    self.extend_clauses(info);
                    info.private
                        .extend_from_slice(&self.values.borrow()[made..]);
                }
                out.push(Stmt::For(Box::new(ForLoop {
                    var: l.var.clone(),
                    lo: l.lo.clone(),
                    hi: l.hi.clone(),
                    step: l.step.clone(),
                    body,
                    parallel,
                })));
                Ok(())
            }
        }
    }

    /// Tangent arrays/scalars inherit the primal's sharing.
    fn extend_clauses(&self, info: &mut ParallelInfo) {
        for list in [&mut info.shared, &mut info.private] {
            let tangents: Vec<Name> = (list.iter().filter(|v| self.is_active(v)))
                .map(|v| self.tname(v))
                .collect();
            list.extend(tangents);
        }
    }

    /// Statements assigning the directional derivative of `e` to `lhs_d`,
    /// branching on non-smooth intrinsics. A `tanh` / `exp` / `sqrt` value
    /// they read twice is evaluated once, into a temporary, first.
    fn tangent_assign(&self, lhs_d: LValue, e: &Expr) -> Vec<Stmt> {
        // Enumerate non-smooth call sites; each gets a branch decision.
        let mut guards: Vec<BoolExpr> = Vec::new();
        collect_guards(e, &mut guards);
        let mut stmts = if guards.is_empty() {
            vec![Stmt::assign(lhs_d, self.texpr(e, &[]))]
        } else {
            // 2^k combinations of guard outcomes, nested ifs (k is tiny).
            self.emit_guarded(lhs_d, e, &guards, &mut Vec::new())
        };
        let values = bind_values(&mut stmts, false, &mut |f| self.value_temp(f));
        let defs = values.into_iter();
        defs.map(|(t, call)| Stmt::assign(LValue::Var(t), call))
            .chain(stmts)
            .collect()
    }

    /// A new real local for the value of a call to `func`.
    fn value_temp(&self, func: Intrinsic) -> Name {
        let mut values = self.values.borrow_mut();
        let mut next = values.len();
        let taken = |t: &Name| self.prog.decl(t).is_some() || values.contains(t);
        let t = value_name(func, &mut next, taken);
        values.push(t.clone());
        t
    }

    fn emit_guarded(
        &self,
        lhs_d: LValue,
        e: &Expr,
        guards: &[BoolExpr],
        choices: &mut Vec<bool>,
    ) -> Vec<Stmt> {
        if choices.len() == guards.len() {
            return vec![Stmt::assign(lhs_d, self.texpr(e, choices))];
        }
        let g = guards[choices.len()].clone();
        choices.push(true);
        let then_body = self.emit_guarded(lhs_d.clone(), e, guards, choices);
        choices.pop();
        choices.push(false);
        let else_body = self.emit_guarded(lhs_d, e, guards, choices);
        choices.pop();
        vec![Stmt::If {
            cond: g,
            then_body,
            else_body,
        }]
    }

    /// Directional-derivative expression of `e`, with non-smooth branch
    /// choices fixed by `choices` (consumed in collection order).
    fn texpr(&self, e: &Expr, choices: &[bool]) -> Expr {
        let mut k = 0;
        self.texpr_inner(e, choices, &mut k)
    }

    fn texpr_inner(&self, e: &Expr, choices: &[bool], k: &mut usize) -> Expr {
        match e {
            Expr::IntLit(_) | Expr::RealLit(_) => Expr::real(0.0),
            Expr::Var(n) => {
                if self.is_active(n) {
                    Expr::var(self.tname(n))
                } else {
                    Expr::real(0.0)
                }
            }
            Expr::Index { array, indices } => {
                if self.is_active(array) {
                    Expr::index(self.tname(array), indices.clone())
                } else {
                    Expr::real(0.0)
                }
            }
            Expr::Unary { op: UnOp::Neg, arg } => self.texpr_inner(arg, choices, k).neg(),
            Expr::Binary { op, lhs, rhs } => match op {
                BinOp::Add => self.texpr_inner(lhs, choices, k) + self.texpr_inner(rhs, choices, k),
                BinOp::Sub => self.texpr_inner(lhs, choices, k) - self.texpr_inner(rhs, choices, k),
                BinOp::Mul => {
                    self.texpr_inner(lhs, choices, k) * (**rhs).clone()
                        + (**lhs).clone() * self.texpr_inner(rhs, choices, k)
                }
                BinOp::Div => {
                    let dl = self.texpr_inner(lhs, choices, k);
                    let dr = self.texpr_inner(rhs, choices, k);
                    dl / (**rhs).clone()
                        - (**lhs).clone() * dr / ((**rhs).clone() * (**rhs).clone())
                }
                BinOp::Pow => {
                    let da = self.texpr_inner(lhs, choices, k);
                    let d = (**rhs).clone()
                        * Expr::binary(
                            BinOp::Pow,
                            (**lhs).clone(),
                            (**rhs).clone() - Expr::IntLit(1),
                        )
                        * da;
                    // An active exponent adds a**b·log(a)·ḃ, under the
                    // adjoint's condition (`adjoint_expr.rs`).
                    if !self.may_be_active(rhs) {
                        return d;
                    }
                    let db = self.texpr_inner(rhs, choices, k);
                    d + e.clone() * Expr::call(Intrinsic::Log, [(**lhs).clone()]) * db
                }
                BinOp::Mod => Expr::real(0.0),
            },
            Expr::Call { func, args } => match func {
                Intrinsic::Sin => {
                    Expr::call(Intrinsic::Cos, vec![args[0].clone()])
                        * self.texpr_inner(&args[0], choices, k)
                }
                Intrinsic::Cos => (Expr::call(Intrinsic::Sin, vec![args[0].clone()])
                    * self.texpr_inner(&args[0], choices, k))
                .neg(),
                Intrinsic::Exp | Intrinsic::Sqrt | Intrinsic::Tanh => {
                    let d = self.texpr_inner(&args[0], choices, k);
                    scale_by_partial(*func, Arc::new(e.clone()), d, false)
                }
                Intrinsic::Log => self.texpr_inner(&args[0], choices, k) / args[0].clone(),
                Intrinsic::Abs | Intrinsic::Min | Intrinsic::Max => {
                    let choice = choices[*k];
                    *k += 1;
                    match func {
                        Intrinsic::Abs => {
                            let d = self.texpr_inner(&args[0], choices, k);
                            if choice {
                                d
                            } else {
                                d.neg()
                            }
                        }
                        _ => {
                            // min/max select one operand's tangent. The
                            // *other* operand's guard counter must still
                            // advance, so walk both and discard one.
                            let d0 = self.texpr_inner(&args[0], choices, k);
                            let d1 = self.texpr_inner(&args[1], choices, k);
                            if choice {
                                d0
                            } else {
                                d1
                            }
                        }
                    }
                }
            },
        }
    }
}

/// Guards for non-smooth intrinsics, in the same traversal order as
/// `texpr_inner` consumes choices.
fn collect_guards(e: &Expr, out: &mut Vec<BoolExpr>) {
    match e {
        Expr::IntLit(_) | Expr::RealLit(_) | Expr::Var(_) => {}
        Expr::Index { .. } => {}
        Expr::Unary { arg, .. } => collect_guards(arg, out),
        Expr::Binary { lhs, rhs, .. } => {
            collect_guards(lhs, out);
            collect_guards(rhs, out);
        }
        Expr::Call { func, args } => match func {
            Intrinsic::Abs => {
                out.push(BoolExpr::cmp(CmpOp::Ge, args[0].clone(), Expr::real(0.0)));
                collect_guards(&args[0], out);
            }
            Intrinsic::Min => {
                out.push(BoolExpr::cmp(CmpOp::Le, args[0].clone(), args[1].clone()));
                collect_guards(&args[0], out);
                collect_guards(&args[1], out);
            }
            Intrinsic::Max => {
                out.push(BoolExpr::cmp(CmpOp::Ge, args[0].clone(), args[1].clone()));
                collect_guards(&args[0], out);
                collect_guards(&args[1], out);
            }
            _ => {
                for a in args.iter() {
                    collect_guards(a, out);
                }
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{IncMode, ParallelTreatment};
    use formad_ir::{parse_program, program_to_string};

    fn tangent(src: &str, indep: &[&str], dep: &[&str]) -> Program {
        let p = parse_program(src).unwrap();
        differentiate_tangent(
            &p,
            &AdjointOptions::new(indep, dep, ParallelTreatment::Uniform(IncMode::Plain)),
        )
        .unwrap()
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
    fn saxpy_tangent_shape() {
        let t = tangent(SAXPY, &["x"], &["y"]);
        assert_eq!(t.name, "saxpy_d");
        let text = program_to_string(&t);
        // yd(i) = yd(i) + ... with the tangent statement before the primal.
        assert!(
            text.contains("yd(i) = yd(i) + (0.0 * x(i) + a * xd(i))")
                || text.contains("yd(i) = yd(i) + 0.0"),
            "{text}"
        );
        assert!(text.contains("y(i) = y(i) + a * x(i)"), "{text}");
        // Tangent arrays shared in the pragma.
        assert!(text.contains("xd"), "{text}");
        let tangent_pos = text.find("yd(i) =").unwrap();
        let primal_pos = text.find("y(i) = y(i)").unwrap();
        assert!(tangent_pos < primal_pos, "tangent must precede primal");
    }

    #[test]
    fn tangent_of_product_rule() {
        let t = tangent(
            r#"
subroutine pr(n, x, y)
  integer, intent(in) :: n
  real, intent(in) :: x(n)
  real, intent(inout) :: y(n)
  integer :: i
  do i = 1, n
    y(i) = x(i) * x(i)
  end do
end subroutine
"#,
            &["x"],
            &["y"],
        );
        let text = program_to_string(&t);
        assert!(
            text.contains("yd(i) = xd(i) * x(i) + x(i) * xd(i)"),
            "{text}"
        );
    }

    #[test]
    fn tanh_is_evaluated_once() {
        let t = tangent(
            r#"
subroutine th(n, x, y)
  integer, intent(in) :: n
  real, intent(in) :: x(n)
  real, intent(inout) :: y(n)
  integer :: i
  !$omp parallel do shared(x, y)
  do i = 1, n
    y(i) = tanh(x(i))
  end do
end subroutine
"#,
            &["x"],
            &["y"],
        );
        let text = program_to_string(&t);
        assert!(text.contains("ad_tanh0 = tanh(x(i))"), "{text}");
        assert!(
            text.contains("yd(i) = (1.0 - ad_tanh0 * ad_tanh0) * xd(i)"),
            "{text}"
        );
        // The tangent's evaluation and the primal's.
        assert_eq!(text.matches("tanh(").count(), 2, "{text}");
        assert!(text.contains("private(ad_tanh0)"), "{text}");
        assert!(t.locals.iter().any(|d| d.name == "ad_tanh0"), "{text}");
    }

    #[test]
    fn nonsmooth_gets_guard() {
        let t = tangent(
            r#"
subroutine ns(n, x, y)
  integer, intent(in) :: n
  real, intent(in) :: x(n)
  real, intent(inout) :: y(n)
  integer :: i
  do i = 1, n
    y(i) = min(x(i), 2.0 * x(i))
  end do
end subroutine
"#,
            &["x"],
            &["y"],
        );
        let text = program_to_string(&t);
        assert!(text.contains("if (x(i) .le. 2.0 * x(i)) then"), "{text}");
        assert!(text.contains("else"), "{text}");
    }

    #[test]
    fn inactive_paths_contribute_zero() {
        let t = tangent(SAXPY, &["x"], &["y"]);
        let text = program_to_string(&t);
        // `a` is not an independent: its tangent contribution is the
        // literal 0.0 (folded or not, it must not reference `ad`).
        assert!(!text.contains("ad"), "{text}");
    }

    #[test]
    fn tangent_rejects_tape_statements() {
        let src = r#"
subroutine t(n, y)
  integer, intent(in) :: n
  real, intent(inout) :: y(n)
  integer :: i
  do i = 1, n
    call push(y(i))
    y(i) = 0.0
  end do
end subroutine
"#;
        let p = parse_program(src).unwrap();
        assert!(differentiate_tangent(
            &p,
            &AdjointOptions::new(&["y"], &["y"], ParallelTreatment::Serial)
        )
        .is_err());
    }
}
