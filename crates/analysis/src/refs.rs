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

use crate::body::SiteId;

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
    /// Site containing the reference.
    pub site: SiteId,
    /// Exact-increment tagging.
    pub inc: IncRole,
}

/// Collect the array references `s` makes at its own site, in evaluation
/// order: an `if` reads in its condition and a loop in its bounds; their
/// bodies are sites of their own.
pub(crate) fn collect_site(s: &Stmt, site: SiteId, out: &mut Vec<ArrayRef>) {
    let mut refs = Refs { site, out };
    match s {
        Stmt::Assign { lhs, rhs } => match s.increment_parts() {
            // The self-read is tagged; the remaining reads come from the
            // added expression.
            Some((_, added)) => {
                refs.write(lhs, IncRole::IncrementWrite);
                refs.at(lhs, AccessKind::Read, IncRole::IncrementRead);
                refs.reads(added);
            }
            None => {
                refs.write(lhs, IncRole::None);
                refs.reads(rhs);
            }
        },
        Stmt::AtomicAdd { lhs, rhs } => {
            refs.write(lhs, IncRole::IncrementWrite);
            refs.at(lhs, AccessKind::Read, IncRole::IncrementRead);
            refs.reads(rhs);
        }
        Stmt::Push(e) => refs.reads(e),
        Stmt::Pop(lv) => refs.write(lv, IncRole::None),
        Stmt::If { cond, .. } => cond.walk_exprs(&mut |e| refs.read(e)),
        Stmt::For(l) => {
            for e in [&l.lo, &l.hi, &l.step] {
                refs.reads(e);
            }
        }
    }
}

struct Refs<'o> {
    site: SiteId,
    out: &'o mut Vec<ArrayRef>,
}

impl Refs<'_> {
    fn push(&mut self, array: &Name, indices: &Arc<[Expr]>, kind: AccessKind, inc: IncRole) {
        self.out.push(ArrayRef {
            array: array.clone(),
            indices: indices.clone(),
            kind,
            site: self.site,
            inc,
        });
    }

    /// A reference to the element `lv` names, if it is one.
    fn at(&mut self, lv: &LValue, kind: AccessKind, inc: IncRole) {
        if let LValue::Index { array, indices } = lv {
            self.push(array, indices, kind, inc);
        }
    }

    /// A write to `lv`, then the reads computing its address.
    fn write(&mut self, lv: &LValue, inc: IncRole) {
        self.at(lv, AccessKind::Write, inc);
        for ix in lv.indices() {
            self.reads(ix);
        }
    }

    /// Every array read in `e`, including arrays read inside index
    /// expressions of other reads (`x(c(i) + 7)` reads both `x` and `c`).
    fn reads(&mut self, e: &Expr) {
        e.walk(&mut |sub| self.read(sub));
    }

    fn read(&mut self, e: &Expr) {
        if let Expr::Index { array, indices } = e {
            self.push(array, indices, AccessKind::Read, IncRole::None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze_body;
    use formad_ir::parse_program;

    fn refs_of(src: &str) -> Vec<ArrayRef> {
        let p = parse_program(src).unwrap();
        analyze_body(&p.parallel_loops()[0].body).2
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
