//! Whole-program (subroutine) representation.

use crate::expr::Expr;
use crate::name::Name;
use crate::stmt::{ForLoop, Stmt};
use crate::types::{Intent, Ty};

/// Declaration of a parameter or local variable.
#[derive(Debug, Clone, PartialEq)]
pub struct Decl {
    /// Variable name.
    pub name: Name,
    /// Element type.
    pub ty: Ty,
    /// Extent expression per dimension; empty for scalars. Extents are
    /// evaluated on entry (typically `n`-like parameters).
    pub dims: Vec<Expr>,
    /// Dataflow intent. Locals use `Intent::InOut` by convention but are
    /// distinguished by `is_local`.
    pub intent: Intent,
    /// True for local variables (declared without `intent`).
    pub is_local: bool,
}

impl Decl {
    /// Scalar parameter.
    pub fn scalar(name: impl Into<Name>, ty: Ty, intent: Intent) -> Decl {
        Decl {
            name: name.into(),
            ty,
            dims: Vec::new(),
            intent,
            is_local: false,
        }
    }

    /// Array parameter.
    pub fn array(name: impl Into<Name>, ty: Ty, dims: Vec<Expr>, intent: Intent) -> Decl {
        Decl {
            name: name.into(),
            ty,
            dims,
            intent,
            is_local: false,
        }
    }

    /// Scalar local.
    pub fn local(name: impl Into<Name>, ty: Ty) -> Decl {
        Decl {
            name: name.into(),
            ty,
            dims: Vec::new(),
            intent: Intent::InOut,
            is_local: true,
        }
    }

    /// True for array declarations.
    pub fn is_array(&self) -> bool {
        !self.dims.is_empty()
    }
}

/// A subroutine: the unit of differentiation.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Subroutine name.
    pub name: String,
    /// Parameters in declaration order.
    pub params: Vec<Decl>,
    /// Local variables.
    pub locals: Vec<Decl>,
    /// Statement list.
    pub body: Vec<Stmt>,
}

impl Program {
    /// Create an empty subroutine.
    pub fn new(name: impl Into<String>) -> Program {
        Program {
            name: name.into(),
            params: Vec::new(),
            locals: Vec::new(),
            body: Vec::new(),
        }
    }

    /// Look up a declaration (parameter or local) by name.
    pub fn decl(&self, name: &str) -> Option<&Decl> {
        self.params
            .iter()
            .chain(&self.locals)
            .find(|d| d.name == name)
    }

    /// All declarations, parameters first.
    pub fn decls(&self) -> impl Iterator<Item = &Decl> {
        self.params.iter().chain(&self.locals)
    }

    /// Element type of a declared variable, if any.
    pub fn ty_of(&self, name: &str) -> Option<Ty> {
        self.decl(name).map(|d| d.ty)
    }

    /// Visit every statement in the program, pre-order.
    pub fn walk_stmts(&self, f: &mut impl FnMut(&Stmt)) {
        for s in &self.body {
            s.walk(f);
        }
    }

    /// Collect references to every parallel loop in the program, in source
    /// order.
    pub fn parallel_loops(&self) -> Vec<&ForLoop> {
        fn collect<'a>(body: &'a [Stmt], out: &mut Vec<&'a ForLoop>) {
            for s in body {
                match s {
                    Stmt::For(l) => {
                        if l.is_parallel() {
                            out.push(l);
                        }
                        collect(&l.body, out);
                    }
                    Stmt::If {
                        then_body,
                        else_body,
                        ..
                    } => {
                        collect(then_body, out);
                        collect(else_body, out);
                    }
                    _ => {}
                }
            }
        }
        let mut out = Vec::new();
        collect(&self.body, &mut out);
        out
    }

    /// A copy of the program with every parallel pragma removed (the
    /// paper's "serial version without any OpenMP pragmas" baselines).
    pub fn strip_parallel(&self) -> Program {
        fn strip(body: &[Stmt]) -> Vec<Stmt> {
            body.iter()
                .map(|s| match s {
                    Stmt::For(l) => {
                        let mut l2 = (**l).clone();
                        l2.parallel = None;
                        l2.body = strip(&l2.body);
                        Stmt::For(Box::new(l2))
                    }
                    Stmt::If {
                        cond,
                        then_body,
                        else_body,
                    } => Stmt::If {
                        cond: cond.clone(),
                        then_body: strip(then_body),
                        else_body: strip(else_body),
                    },
                    other => other.clone(),
                })
                .collect()
        }
        Program {
            name: self.name.clone(),
            params: self.params.clone(),
            locals: self.locals.clone(),
            body: strip(&self.body),
        }
    }

    /// Number of parallel loops.
    pub fn parallel_loop_count(&self) -> usize {
        let mut n = 0;
        self.walk_stmts(&mut |s| {
            if let Stmt::For(l) = s {
                if l.is_parallel() {
                    n += 1;
                }
            }
        });
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::stmt::{LValue, ParallelInfo};

    fn sample() -> Program {
        let mut p = Program::new("axpy");
        p.params.push(Decl::scalar("n", Ty::Int, Intent::In));
        p.params.push(Decl::scalar("a", Ty::Real, Intent::In));
        p.params
            .push(Decl::array("x", Ty::Real, vec![Expr::var("n")], Intent::In));
        p.params.push(Decl::array(
            "y",
            Ty::Real,
            vec![Expr::var("n")],
            Intent::InOut,
        ));
        p.locals.push(Decl::local("i", Ty::Int));
        p.body.push(Stmt::For(Box::new(ForLoop {
            var: "i".into(),
            lo: Expr::int(1),
            hi: Expr::var("n"),
            step: Expr::int(1),
            body: vec![Stmt::increment(
                LValue::index("y", vec![Expr::var("i")]),
                Expr::var("a") * Expr::index("x", vec![Expr::var("i")]),
            )],
            parallel: Some(ParallelInfo::default()),
        })));
        p
    }

    #[test]
    fn decl_lookup() {
        let p = sample();
        assert_eq!(p.ty_of("a"), Some(Ty::Real));
        assert_eq!(p.ty_of("i"), Some(Ty::Int));
        assert_eq!(p.ty_of("zzz"), None);
        assert!(p.decl("x").unwrap().is_array());
        assert!(!p.decl("a").unwrap().is_array());
    }

    #[test]
    fn parallel_loops_found() {
        let p = sample();
        assert_eq!(p.parallel_loop_count(), 1);
        let loops = p.parallel_loops();
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].var, "i");
    }

    #[test]
    fn decls_order_params_first() {
        let p = sample();
        let names: Vec<_> = p.decls().map(|d| d.name.as_str()).collect();
        assert_eq!(names, vec!["n", "a", "x", "y", "i"]);
    }
}
