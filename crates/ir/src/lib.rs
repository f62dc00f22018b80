//! # formad-ir
//!
//! Intermediate representation of the Fortran-like, OpenMP-annotated loop
//! language used throughout the FormAD reproduction.
//!
//! This crate provides:
//!
//! - the AST ([`Expr`], [`BoolExpr`], [`Stmt`], [`ForLoop`], [`Program`]);
//! - one lexer, recursive-descent [`parser`] and [`printer`] (parser ∘ printer
//!   = identity) for both spellings of the surface syntax ([`SourceFlavor`]);
//! - [`mod@validate`]: static well-formedness checks, including detection of
//!   obviously racy primal programs (shared scalar writes in parallel loops);
//! - [`store`]: the hash, atomic write and directory trust rule shared by
//!   the AOT kernel cache and the region fingerprint index.
//!
//! The language is the subset of Fortran + OpenMP exercised by the paper
//! *"Automatic Differentiation of Parallel Loops with Formal Methods"*
//! (Hückelheim & Hascoët, ICPP 2022): counted `do` loops with optional
//! strides and `!$omp parallel do` pragmas (`shared`/`private`/`reduction`
//! clauses), multi-dimensional arrays with arbitrary (data-dependent) index
//! expressions, `if`/`else` control flow, and differentiable intrinsics.
//!
//! ```
//! use formad_ir::{parse_program, program_to_string};
//!
//! let src = r#"
//! subroutine saxpy(n, a, x, y)
//!   integer, intent(in) :: n
//!   real, intent(in) :: a
//!   real, intent(in) :: x(n)
//!   real, intent(inout) :: y(n)
//!   integer :: i
//!   !$omp parallel do shared(x, y)
//!   do i = 1, n
//!     y(i) = y(i) + a * x(i)
//!   end do
//! end subroutine
//! "#;
//! let prog = parse_program(src).unwrap();
//! assert_eq!(prog.parallel_loop_count(), 1);
//! let printed = program_to_string(&prog);
//! assert_eq!(formad_ir::parse_program(&printed).unwrap(), prog);
//! ```

pub mod clike;
pub mod expr;
pub mod flavor;
pub mod fx;
mod lexer;
pub mod name;
pub mod parser;
pub mod printer;
pub mod printer_c;
pub mod program;
pub mod stmt;
pub mod store;
pub mod types;
pub mod validate;

pub use clike::{parse_any, parse_clike};
pub use expr::{BinOp, BoolExpr, CmpOp, Expr, Intrinsic, UnOp};
pub use flavor::SourceFlavor;
pub use fx::{FxHashMap, FxHashSet, FxHasher};
pub use name::Name;
pub use parser::{parse_expr, parse_program, ParseError, MAX_NESTING};
pub use printer::{expr_to_string, program_to_string};
pub use printer_c::program_to_clike;
pub use program::{Decl, Program};
pub use stmt::{count_stmts, ForLoop, LValue, ParallelInfo, RedOp, Stmt};
pub use types::{Intent, Ty};
pub use validate::{validate, validate_strict, ValidateError};
