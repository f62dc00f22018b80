//! Collection of array references inside a parallel region.
//!
//! FormAD's knowledge extraction and exploitation both operate on the set
//! of `(array, index-expressions, read/write, context)` tuples occurring
//! inside a parallel loop body (paper §5, phase 1 and 2). Exact-increment
//! statements are tagged (paper §5.4): the adjoint of `u(e) = u(e) + rhs`
//! only *reads* the adjoint of `u`, so such references can be excluded
//! from the adjoint conflict-pair set.

use std::sync::Arc;

use formad_ir::{Expr, LValue, Name, Stmt};

use crate::cfg::{Cfg, NodeId, NodeKind};

/// Direction of an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    Read,
    Write,
}

/// Role of the reference with respect to exact-increment detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncRole {
    /// Not part of an exact increment.
    None,
    /// The written lvalue of `u(e) = u(e) + rhs`.
    IncrementWrite,
    /// The self-read of `u(e) = u(e) + rhs`.
    IncrementRead,
}

/// One array reference site.
#[derive(Debug, Clone)]
pub struct ArrayRef {
    /// Array name.
    pub array: Name,
    /// Index expressions at the reference.
    pub indices: Arc<[Expr]>,
    /// Read or write.
    pub kind: AccessKind,
    /// CFG node containing the reference.
    pub node: NodeId,
    /// Exact-increment tagging.
    pub inc: IncRole,
}

/// Collect every array reference in the CFG, in node order.
pub fn collect_refs(cfg: &Cfg<'_>) -> Vec<ArrayRef> {
    let mut out = Vec::new();
    for (node, kind) in cfg.nodes.iter().enumerate() {
        match kind {
            NodeKind::Entry | NodeKind::Exit | NodeKind::Join => {}
            NodeKind::Simple(s) => collect_stmt(s, node, &mut out),
            NodeKind::Branch(cond) => {
                cond.walk_exprs(&mut |e| collect_expr_reads(e, node, IncRole::None, &mut out));
            }
            NodeKind::LoopHead(l) => {
                for e in [&l.lo, &l.hi, &l.step] {
                    collect_expr_reads_deep(e, node, &mut out);
                }
            }
        }
    }
    out
}

fn collect_stmt(s: &Stmt, node: NodeId, out: &mut Vec<ArrayRef>) {
    match s {
        Stmt::Assign { lhs, rhs } => {
            let (wrole, added) = match s.increment_parts() {
                Some((_, added)) => (IncRole::IncrementWrite, Some(added)),
                None => (IncRole::None, None),
            };
            collect_lvalue_write(lhs, node, wrole, out);
            match added {
                Some(added) => {
                    // Tag the self-read; the remaining reads come from the
                    // added expression.
                    if let LValue::Index { array, indices } = lhs {
                        out.push(ArrayRef {
                            array: array.clone(),
                            indices: indices.clone(),
                            kind: AccessKind::Read,
                            node,
                            inc: IncRole::IncrementRead,
                        });
                    }
                    collect_expr_reads_deep(added, node, out);
                }
                None => collect_expr_reads_deep(rhs, node, out),
            }
        }
        Stmt::AtomicAdd { lhs, rhs } => {
            collect_lvalue_write(lhs, node, IncRole::IncrementWrite, out);
            if let LValue::Index { array, indices } = lhs {
                out.push(ArrayRef {
                    array: array.clone(),
                    indices: indices.clone(),
                    kind: AccessKind::Read,
                    node,
                    inc: IncRole::IncrementRead,
                });
            }
            collect_expr_reads_deep(rhs, node, out);
        }
        Stmt::Push(e) => collect_expr_reads_deep(e, node, out),
        Stmt::Pop(lv) => collect_lvalue_write(lv, node, IncRole::None, out),
        // Control statements never reach here: the CFG splits them.
        Stmt::If { .. } | Stmt::For(_) => unreachable!("structured stmt in Simple node"),
    }
}

fn collect_lvalue_write(lv: &LValue, node: NodeId, role: IncRole, out: &mut Vec<ArrayRef>) {
    if let LValue::Index { array, indices } = lv {
        out.push(ArrayRef {
            array: array.clone(),
            indices: indices.clone(),
            kind: AccessKind::Write,
            node,
            inc: role,
        });
        // Reads performed while computing the address.
        for ix in indices.iter() {
            collect_expr_reads_deep(ix, node, out);
        }
    }
}

/// Record every array read in `e`, including arrays read inside index
/// expressions of other reads (e.g. `x(c(i) + 7)` yields reads of both
/// `x` and `c`).
fn collect_expr_reads_deep(e: &Expr, node: NodeId, out: &mut Vec<ArrayRef>) {
    e.walk(&mut |sub| {
        if let Expr::Index { array, indices } = sub {
            out.push(ArrayRef {
                array: array.clone(),
                indices: indices.clone(),
                kind: AccessKind::Read,
                node,
                inc: IncRole::None,
            });
        }
    });
}

fn collect_expr_reads(e: &Expr, node: NodeId, inc: IncRole, out: &mut Vec<ArrayRef>) {
    if let Expr::Index { array, indices } = e {
        out.push(ArrayRef {
            array: array.clone(),
            indices: indices.clone(),
            kind: AccessKind::Read,
            node,
            inc,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use formad_ir::parse_program;

    fn refs_of(src: &str) -> Vec<ArrayRef> {
        let p = parse_program(src).unwrap();
        let loops = p.parallel_loops();
        let cfg = Cfg::build(&loops[0].body);
        collect_refs(&cfg)
    }

    #[test]
    fn fig2_reads_and_writes() {
        let refs = refs_of(
            r#"
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
"#,
        );
        let writes: Vec<_> = refs
            .iter()
            .filter(|r| r.kind == AccessKind::Write)
            .collect();
        assert_eq!(writes.len(), 1);
        assert_eq!(writes[0].array, "y");
        // Reads: x(c(i)+7), and c(i) three times (address computations:
        // once under y's lvalue, once under x's index, once standalone
        // collection of x's deep walk) — at minimum x once and c at least
        // twice.
        let x_reads = refs
            .iter()
            .filter(|r| r.kind == AccessKind::Read && r.array == "x")
            .count();
        let c_reads = refs
            .iter()
            .filter(|r| r.kind == AccessKind::Read && r.array == "c")
            .count();
        assert_eq!(x_reads, 1);
        assert!(c_reads >= 2);
    }

    #[test]
    fn increment_tagged() {
        let refs = refs_of(
            r#"
subroutine t(n, u, a)
  integer, intent(in) :: n
  real, intent(inout) :: u(n)
  real, intent(in) :: a
  integer :: i
  !$omp parallel do shared(u)
  do i = 1, n
    u(2 * i) = u(2 * i) + 2.0 * a
  end do
end subroutine
"#,
        );
        let w = refs.iter().find(|r| r.kind == AccessKind::Write).unwrap();
        assert_eq!(w.inc, IncRole::IncrementWrite);
        let self_read = refs
            .iter()
            .find(|r| r.kind == AccessKind::Read && r.array == "u")
            .unwrap();
        assert_eq!(self_read.inc, IncRole::IncrementRead);
    }

    #[test]
    fn plain_assignment_not_tagged() {
        let refs = refs_of(
            r#"
subroutine t(n, u, v)
  integer, intent(in) :: n
  real, intent(inout) :: u(n)
  real, intent(in) :: v(n)
  integer :: i
  !$omp parallel do shared(u, v)
  do i = 1, n
    u(i) = v(i) * 2.0
  end do
end subroutine
"#,
        );
        assert!(refs.iter().all(|r| r.inc == IncRole::None));
    }

    #[test]
    fn condition_and_bound_reads_collected() {
        let refs = refs_of(
            r#"
subroutine t(n, u, e2n, m)
  integer, intent(in) :: n, m
  real, intent(inout) :: u(n)
  integer, intent(in) :: e2n(n)
  integer :: i, j
  !$omp parallel do shared(u, e2n)
  do i = 1, n
    if (e2n(i) .ne. i) then
      do j = 1, e2n(i)
        u(j) = u(j) + 1.0
      end do
    end if
  end do
end subroutine
"#,
        );
        // e2n read in the condition and in the inner loop bound.
        let e2n_reads = refs
            .iter()
            .filter(|r| r.array == "e2n" && r.kind == AccessKind::Read)
            .count();
        assert!(e2n_reads >= 2);
    }
}
