//! C-flavoured front end.
//!
//! The paper (§3, §8) names C support as the natural next step, "requiring
//! only minor changes to the parser and scoping rules". This module is
//! that extension: a curly-brace dialect that parses into the *same* IR as
//! the Fortran-like syntax, so every analysis and transformation applies
//! unchanged.
//!
//! Semantics note: the dialect keeps the IR's Fortran conventions — array
//! indexing is 1-based and `x[i][j]` denotes the same element as the
//! Fortran-syntax `x(i, j)` (first index fastest). It is C *syntax*, not
//! C memory layout.
//!
//! ```c
//! void saxpy(int n, double a, const double x[n], double y[n]) {
//!   int i;
//!   #pragma omp parallel for shared(x, y)
//!   for (i = 1; i <= n; i++) {
//!     y[i] = y[i] + a * x[i];
//!   }
//! }
//! ```

use crate::expr::{BinOp, BoolExpr, CmpOp, Expr, Intrinsic, UnOp};
use crate::parser::ParseError;
use crate::program::{Decl, Program};
use crate::stmt::{ForLoop, LValue, ParallelInfo, RedOp, Stmt};
use crate::types::{Intent, Ty};

/// Parse a C-flavoured subroutine into the common IR.
pub fn parse_clike(src: &str) -> Result<Program, ParseError> {
    let toks = lex(src)?;
    let mut p = CParser { toks, pos: 0 };
    let prog = p.function()?;
    p.expect(CTok::Eof)?;
    Ok(prog)
}

/// Parse either dialect, keyed on the leading keyword (`void` → C-like,
/// anything else → Fortran-like, whose parser reports what it expected).
pub fn parse_any(src: &str) -> Result<Program, ParseError> {
    if first_word(src).eq_ignore_ascii_case("void") {
        parse_clike(src)
    } else {
        crate::parser::parse_program(src)
    }
}

/// The first word of `src` after whitespace and the comments of either
/// dialect (`!…`, `//…`, `/*…*/`); empty if something else comes first.
fn first_word(src: &str) -> &str {
    let mut rest = src.trim_start();
    loop {
        let after = if rest.starts_with('!') || rest.starts_with("//") {
            rest.split_once('\n').map_or("", |(_, r)| r)
        } else if let Some(body) = rest.strip_prefix("/*") {
            body.split_once("*/").map_or("", |(_, r)| r)
        } else {
            break;
        };
        rest = after.trim_start();
    }
    let end = rest
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    &rest[..end]
}

// ---------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum CTok {
    Ident(String),
    Int(i64),
    Real(f64),
    Pragma(String),
    LBrace,
    RBrace,
    LParen,
    RParen,
    LBracket,
    RBracket,
    Semi,
    Comma,
    Assign,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    PlusPlus,
    MinusMinus,
    PlusAssign,
    MinusAssign,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    AndAnd,
    OrOr,
    Not,
    Eof,
}

#[derive(Debug, Clone)]
struct CToken {
    kind: CTok,
    line: u32,
}

fn lex(src: &str) -> Result<Vec<CToken>, ParseError> {
    let b = src.as_bytes();
    let mut toks = Vec::new();
    let (mut i, n) = (0usize, b.len());
    let mut line = 1u32;
    let err = |line: u32, m: String| ParseError { line, message: m };
    while i < n {
        let c = b[i] as char;
        match c {
            ' ' | '\t' | '\r' => i += 1,
            '\n' => {
                line += 1;
                i += 1;
            }
            '/' if i + 1 < n && b[i + 1] == b'/' => {
                while i < n && b[i] != b'\n' {
                    i += 1;
                }
            }
            '/' if i + 1 < n && b[i + 1] == b'*' => {
                i += 2;
                while i + 1 < n && !(b[i] == b'*' && b[i + 1] == b'/') {
                    if b[i] == b'\n' {
                        line += 1;
                    }
                    i += 1;
                }
                i = (i + 2).min(n);
            }
            '#' => {
                let start = i;
                while i < n && b[i] != b'\n' {
                    i += 1;
                }
                let text = src[start..i].trim();
                let lower = text.to_ascii_lowercase();
                if let Some(rest) = lower.strip_prefix("#pragma omp") {
                    toks.push(CToken {
                        kind: CTok::Pragma(rest.trim().to_string()),
                        line,
                    });
                } else {
                    return Err(err(line, format!("unsupported directive `{text}`")));
                }
            }
            '{' => {
                toks.push(CToken {
                    kind: CTok::LBrace,
                    line,
                });
                i += 1;
            }
            '}' => {
                toks.push(CToken {
                    kind: CTok::RBrace,
                    line,
                });
                i += 1;
            }
            '(' => {
                toks.push(CToken {
                    kind: CTok::LParen,
                    line,
                });
                i += 1;
            }
            ')' => {
                toks.push(CToken {
                    kind: CTok::RParen,
                    line,
                });
                i += 1;
            }
            '[' => {
                toks.push(CToken {
                    kind: CTok::LBracket,
                    line,
                });
                i += 1;
            }
            ']' => {
                toks.push(CToken {
                    kind: CTok::RBracket,
                    line,
                });
                i += 1;
            }
            ';' => {
                toks.push(CToken {
                    kind: CTok::Semi,
                    line,
                });
                i += 1;
            }
            ',' => {
                toks.push(CToken {
                    kind: CTok::Comma,
                    line,
                });
                i += 1;
            }
            '%' => {
                toks.push(CToken {
                    kind: CTok::Percent,
                    line,
                });
                i += 1;
            }
            '*' => {
                toks.push(CToken {
                    kind: CTok::Star,
                    line,
                });
                i += 1;
            }
            '/' => {
                toks.push(CToken {
                    kind: CTok::Slash,
                    line,
                });
                i += 1;
            }
            '+' => {
                if i + 1 < n && b[i + 1] == b'+' {
                    toks.push(CToken {
                        kind: CTok::PlusPlus,
                        line,
                    });
                    i += 2;
                } else if i + 1 < n && b[i + 1] == b'=' {
                    toks.push(CToken {
                        kind: CTok::PlusAssign,
                        line,
                    });
                    i += 2;
                } else {
                    toks.push(CToken {
                        kind: CTok::Plus,
                        line,
                    });
                    i += 1;
                }
            }
            '-' => {
                if i + 1 < n && b[i + 1] == b'-' {
                    toks.push(CToken {
                        kind: CTok::MinusMinus,
                        line,
                    });
                    i += 2;
                } else if i + 1 < n && b[i + 1] == b'=' {
                    toks.push(CToken {
                        kind: CTok::MinusAssign,
                        line,
                    });
                    i += 2;
                } else {
                    toks.push(CToken {
                        kind: CTok::Minus,
                        line,
                    });
                    i += 1;
                }
            }
            '=' => {
                if i + 1 < n && b[i + 1] == b'=' {
                    toks.push(CToken {
                        kind: CTok::Eq,
                        line,
                    });
                    i += 2;
                } else {
                    toks.push(CToken {
                        kind: CTok::Assign,
                        line,
                    });
                    i += 1;
                }
            }
            '!' => {
                if i + 1 < n && b[i + 1] == b'=' {
                    toks.push(CToken {
                        kind: CTok::Ne,
                        line,
                    });
                    i += 2;
                } else {
                    toks.push(CToken {
                        kind: CTok::Not,
                        line,
                    });
                    i += 1;
                }
            }
            '<' => {
                if i + 1 < n && b[i + 1] == b'=' {
                    toks.push(CToken {
                        kind: CTok::Le,
                        line,
                    });
                    i += 2;
                } else {
                    toks.push(CToken {
                        kind: CTok::Lt,
                        line,
                    });
                    i += 1;
                }
            }
            '>' => {
                if i + 1 < n && b[i + 1] == b'=' {
                    toks.push(CToken {
                        kind: CTok::Ge,
                        line,
                    });
                    i += 2;
                } else {
                    toks.push(CToken {
                        kind: CTok::Gt,
                        line,
                    });
                    i += 1;
                }
            }
            '&' if i + 1 < n && b[i + 1] == b'&' => {
                toks.push(CToken {
                    kind: CTok::AndAnd,
                    line,
                });
                i += 2;
            }
            '|' if i + 1 < n && b[i + 1] == b'|' => {
                toks.push(CToken {
                    kind: CTok::OrOr,
                    line,
                });
                i += 2;
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < n && (b[i] as char).is_ascii_digit() {
                    i += 1;
                }
                let mut is_real = false;
                if i < n && b[i] == b'.' {
                    is_real = true;
                    i += 1;
                    while i < n && (b[i] as char).is_ascii_digit() {
                        i += 1;
                    }
                }
                if i < n && (b[i] == b'e' || b[i] == b'E') {
                    let mut j = i + 1;
                    if j < n && (b[j] == b'+' || b[j] == b'-') {
                        j += 1;
                    }
                    if j < n && (b[j] as char).is_ascii_digit() {
                        is_real = true;
                        i = j;
                        while i < n && (b[i] as char).is_ascii_digit() {
                            i += 1;
                        }
                    }
                }
                let text = &src[start..i];
                if is_real {
                    toks.push(CToken {
                        kind: CTok::Real(
                            text.parse()
                                .map_err(|_| err(line, format!("bad real literal `{text}`")))?,
                        ),
                        line,
                    });
                } else {
                    toks.push(CToken {
                        kind: CTok::Int(
                            text.parse()
                                .map_err(|_| err(line, format!("bad integer literal `{text}`")))?,
                        ),
                        line,
                    });
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < n && ((b[i] as char).is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                toks.push(CToken {
                    kind: CTok::Ident(src[start..i].to_string()),
                    line,
                });
            }
            other => return Err(err(line, format!("unexpected character `{other}`"))),
        }
    }
    toks.push(CToken {
        kind: CTok::Eof,
        line,
    });
    Ok(toks)
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

struct CParser {
    toks: Vec<CToken>,
    pos: usize,
}

impl CParser {
    fn peek(&self) -> &CTok {
        &self.toks[self.pos].kind
    }

    fn line(&self) -> u32 {
        self.toks[self.pos].line
    }

    fn bump(&mut self) -> CTok {
        let t = self.toks[self.pos].kind.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, m: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            line: self.line(),
            message: m.into(),
        })
    }

    fn expect(&mut self, t: CTok) -> Result<(), ParseError> {
        if *self.peek() == t {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected {t:?}, found {:?}", self.peek()))
        }
    }

    fn eat(&mut self, t: &CTok) -> bool {
        if self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek().clone() {
            CTok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => self.err(format!("expected identifier, found {other:?}")),
        }
    }

    fn at_kw(&self, w: &str) -> bool {
        matches!(self.peek(), CTok::Ident(s) if s == w)
    }

    fn eat_kw(&mut self, w: &str) -> bool {
        if self.at_kw(w) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn function(&mut self) -> Result<Program, ParseError> {
        if !self.eat_kw("void") {
            return self.err("expected `void`");
        }
        let name = self.ident()?;
        let mut prog = Program::new(name);
        self.expect(CTok::LParen)?;
        if !self.eat(&CTok::RParen) {
            loop {
                prog.params.push(self.param()?);
                if self.eat(&CTok::RParen) {
                    break;
                }
                self.expect(CTok::Comma)?;
            }
        }
        self.expect(CTok::LBrace)?;
        prog.body = self.block_items(&mut prog.locals)?;
        self.expect(CTok::RBrace)?;
        Ok(prog)
    }

    fn base_ty(&mut self) -> Result<Option<Ty>, ParseError> {
        if self.eat_kw("int") {
            Ok(Some(Ty::Int))
        } else if self.eat_kw("double") || self.eat_kw("float") {
            Ok(Some(Ty::Real))
        } else {
            Ok(None)
        }
    }

    fn param(&mut self) -> Result<Decl, ParseError> {
        let is_const = self.eat_kw("const");
        let ty = self.base_ty()?.ok_or_else(|| ParseError {
            line: self.line(),
            message: "expected parameter type".into(),
        })?;
        let name = self.ident()?;
        let mut dims = Vec::new();
        while self.eat(&CTok::LBracket) {
            dims.push(self.expr()?);
            self.expect(CTok::RBracket)?;
        }
        let intent = if is_const { Intent::In } else { Intent::InOut };
        Ok(Decl {
            name,
            ty,
            dims,
            intent,
            is_local: false,
        })
    }

    /// Statements and interleaved local declarations.
    fn block_items(&mut self, locals: &mut Vec<Decl>) -> Result<Vec<Stmt>, ParseError> {
        let mut out = Vec::new();
        loop {
            if *self.peek() == CTok::RBrace || *self.peek() == CTok::Eof {
                return Ok(out);
            }
            // Local declaration?
            let save = self.pos;
            if let Some(ty) = self.base_ty()? {
                // `int i, j;` or `double t;` (no local arrays for now).
                loop {
                    let name = self.ident()?;
                    let mut dims = Vec::new();
                    while self.eat(&CTok::LBracket) {
                        dims.push(self.expr()?);
                        self.expect(CTok::RBracket)?;
                    }
                    locals.push(Decl {
                        name,
                        ty,
                        dims,
                        intent: Intent::InOut,
                        is_local: true,
                    });
                    if self.eat(&CTok::Semi) {
                        break;
                    }
                    self.expect(CTok::Comma)?;
                }
                continue;
            }
            self.pos = save;
            out.push(self.stmt(locals)?);
        }
    }

    fn stmt(&mut self, locals: &mut Vec<Decl>) -> Result<Stmt, ParseError> {
        if let CTok::Pragma(p) = self.peek().clone() {
            self.bump();
            return self.pragma_stmt(&p, locals);
        }
        if self.at_kw("if") {
            return self.if_stmt(locals);
        }
        if self.at_kw("for") {
            return self.for_stmt(None, locals);
        }
        // assignment
        let lv = self.lvalue()?;
        let st = self.finish_assignment(lv)?;
        self.expect(CTok::Semi)?;
        Ok(st)
    }

    fn finish_assignment(&mut self, lv: LValue) -> Result<Stmt, ParseError> {
        match self.peek().clone() {
            CTok::Assign => {
                self.bump();
                let rhs = self.expr()?;
                Ok(Stmt::Assign { lhs: lv, rhs })
            }
            CTok::PlusAssign => {
                self.bump();
                let rhs = self.expr()?;
                Ok(Stmt::increment(lv, rhs))
            }
            CTok::MinusAssign => {
                self.bump();
                let rhs = self.expr()?;
                Ok(Stmt::increment(lv, rhs.neg()))
            }
            other => self.err(format!("expected assignment operator, found {other:?}")),
        }
    }

    fn pragma_stmt(&mut self, pragma: &str, locals: &mut Vec<Decl>) -> Result<Stmt, ParseError> {
        let p = pragma.trim().to_ascii_lowercase();
        if p == "atomic" {
            let lv = self.lvalue()?;
            let st = self.finish_assignment(lv)?;
            self.expect(CTok::Semi)?;
            match st.as_increment() {
                Some((lhs, added)) => Ok(Stmt::AtomicAdd {
                    lhs: lhs.clone(),
                    rhs: added,
                }),
                None => self.err("#pragma omp atomic must guard an increment"),
            }
        } else if let Some(clauses) = p.strip_prefix("parallel for") {
            let info = parse_clauses(clauses).map_err(|m| ParseError {
                line: self.line(),
                message: m,
            })?;
            if !self.at_kw("for") {
                return self.err("`#pragma omp parallel for` must precede a for loop");
            }
            self.for_stmt(Some(info), locals)
        } else {
            self.err(format!("unsupported pragma `omp {pragma}`"))
        }
    }

    fn if_stmt(&mut self, locals: &mut Vec<Decl>) -> Result<Stmt, ParseError> {
        self.expect(CTok::Ident("if".into()))?;
        self.expect(CTok::LParen)?;
        let cond = self.bool_expr()?;
        self.expect(CTok::RParen)?;
        self.expect(CTok::LBrace)?;
        let then_body = self.block_items(locals)?;
        self.expect(CTok::RBrace)?;
        let else_body = if self.eat_kw("else") {
            self.expect(CTok::LBrace)?;
            let e = self.block_items(locals)?;
            self.expect(CTok::RBrace)?;
            e
        } else {
            Vec::new()
        };
        Ok(Stmt::If {
            cond,
            then_body,
            else_body,
        })
    }

    /// `for (v = lo; v <= hi; v++| v += s | v-- | v -= s) { ... }`
    fn for_stmt(
        &mut self,
        parallel: Option<ParallelInfo>,
        locals: &mut Vec<Decl>,
    ) -> Result<Stmt, ParseError> {
        self.expect(CTok::Ident("for".into()))?;
        self.expect(CTok::LParen)?;
        // Optional inline declaration `int i = ...`.
        if self.at_kw("int") {
            self.bump();
            let peeked = self.ident()?;
            if !locals.iter().any(|d| d.name == peeked) {
                locals.push(Decl::local(peeked.clone(), Ty::Int));
            }
            self.pos -= 1; // re-read the identifier as the loop var
        }
        let var = self.ident()?;
        self.expect(CTok::Assign)?;
        let lo = self.expr()?;
        self.expect(CTok::Semi)?;
        // Condition: var <= hi | var >= hi | var < hi | var > hi.
        let cvar = self.ident()?;
        if cvar != var {
            return self.err("for-loop condition must test the loop variable");
        }
        let (cmp, strict) = match self.bump() {
            CTok::Le => (true, false),
            CTok::Lt => (true, true),
            CTok::Ge => (false, false),
            CTok::Gt => (false, true),
            other => return self.err(format!("unsupported loop condition {other:?}")),
        };
        let bound = self.expr()?;
        // `< n` becomes `<= n - 1` in the inclusive IR; `> n` → `>= n + 1`.
        let hi = if strict {
            if cmp {
                bound - Expr::IntLit(1)
            } else {
                bound + Expr::IntLit(1)
            }
        } else {
            bound
        };
        self.expect(CTok::Semi)?;
        // Step.
        let svar = self.ident()?;
        if svar != var {
            return self.err("for-loop step must update the loop variable");
        }
        let step = match self.bump() {
            CTok::PlusPlus => Expr::IntLit(1),
            CTok::MinusMinus => Expr::IntLit(-1),
            CTok::PlusAssign => self.expr()?,
            CTok::MinusAssign => {
                let e = self.expr()?;
                match e {
                    Expr::IntLit(v) => Expr::IntLit(-v),
                    other => other.neg(),
                }
            }
            other => return self.err(format!("unsupported loop step {other:?}")),
        };
        // Direction sanity: `<=` with positive literal step etc. is not
        // checked here; the validator rejects zero steps.
        self.expect(CTok::RParen)?;
        self.expect(CTok::LBrace)?;
        let body = self.block_items(locals)?;
        self.expect(CTok::RBrace)?;
        let _ = cmp;
        Ok(Stmt::For(Box::new(ForLoop {
            var,
            lo,
            hi,
            step,
            body,
            parallel,
        })))
    }

    fn lvalue(&mut self) -> Result<LValue, ParseError> {
        let name = self.ident()?;
        if *self.peek() == CTok::LBracket {
            let mut indices = Vec::new();
            while self.eat(&CTok::LBracket) {
                indices.push(self.expr()?);
                self.expect(CTok::RBracket)?;
            }
            Ok(LValue::Index {
                array: name,
                indices,
            })
        } else {
            Ok(LValue::Var(name))
        }
    }

    // ---- expressions ----

    fn expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.term()?;
        loop {
            let op = match self.peek() {
                CTok::Plus => BinOp::Add,
                CTok::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.term()?;
            lhs = Expr::binary(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn term(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek() {
                CTok::Star => BinOp::Mul,
                CTok::Slash => BinOp::Div,
                CTok::Percent => BinOp::Mod,
                _ => break,
            };
            self.bump();
            let rhs = self.unary()?;
            lhs = Expr::binary(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        if self.eat(&CTok::Minus) {
            let arg = self.unary()?;
            return Ok(match arg {
                Expr::IntLit(v) => Expr::IntLit(-v),
                Expr::RealLit(v) => Expr::RealLit(-v),
                other => Expr::Unary {
                    op: UnOp::Neg,
                    arg: Box::new(other),
                },
            });
        }
        if self.eat(&CTok::Plus) {
            return self.unary();
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        match self.peek().clone() {
            CTok::Int(v) => {
                self.bump();
                Ok(Expr::IntLit(v))
            }
            CTok::Real(v) => {
                self.bump();
                Ok(Expr::RealLit(v))
            }
            CTok::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(CTok::RParen)?;
                Ok(e)
            }
            CTok::Ident(name) => {
                self.bump();
                if self.eat(&CTok::LParen) {
                    let mut args = Vec::new();
                    if !self.eat(&CTok::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if self.eat(&CTok::RParen) {
                                break;
                            }
                            self.expect(CTok::Comma)?;
                        }
                    }
                    if name == "pow" {
                        if args.len() != 2 {
                            return self.err("pow takes 2 arguments");
                        }
                        let mut it = args.into_iter();
                        let a = it.next().unwrap();
                        let b = it.next().unwrap();
                        return Ok(Expr::binary(BinOp::Pow, a, b));
                    }
                    if name == "fmin" || name == "fmax" {
                        let f = if name == "fmin" {
                            Intrinsic::Min
                        } else {
                            Intrinsic::Max
                        };
                        if args.len() != 2 {
                            return self.err("fmin/fmax take 2 arguments");
                        }
                        return Ok(Expr::Call { func: f, args });
                    }
                    if name == "fabs" {
                        if args.len() != 1 {
                            return self.err("fabs takes 1 argument");
                        }
                        return Ok(Expr::Call {
                            func: Intrinsic::Abs,
                            args,
                        });
                    }
                    match Intrinsic::from_name(&name) {
                        Some(f) if args.len() == f.arity() => Ok(Expr::Call { func: f, args }),
                        Some(f) => self.err(format!(
                            "intrinsic {} takes {} argument(s)",
                            f.name(),
                            f.arity()
                        )),
                        None => self.err(format!("unknown function `{name}`")),
                    }
                } else if *self.peek() == CTok::LBracket {
                    let mut indices = Vec::new();
                    while self.eat(&CTok::LBracket) {
                        indices.push(self.expr()?);
                        self.expect(CTok::RBracket)?;
                    }
                    Ok(Expr::Index {
                        array: name,
                        indices,
                    })
                } else {
                    Ok(Expr::Var(name))
                }
            }
            other => self.err(format!("expected expression, found {other:?}")),
        }
    }

    // ---- boolean expressions ----

    fn bool_expr(&mut self) -> Result<BoolExpr, ParseError> {
        let mut lhs = self.bool_and()?;
        while self.eat(&CTok::OrOr) {
            let rhs = self.bool_and()?;
            lhs = BoolExpr::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn bool_and(&mut self) -> Result<BoolExpr, ParseError> {
        let mut lhs = self.bool_not()?;
        while self.eat(&CTok::AndAnd) {
            let rhs = self.bool_not()?;
            lhs = BoolExpr::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn bool_not(&mut self) -> Result<BoolExpr, ParseError> {
        if self.eat(&CTok::Not) {
            return Ok(BoolExpr::Not(Box::new(self.bool_not()?)));
        }
        self.bool_primary()
    }

    fn bool_primary(&mut self) -> Result<BoolExpr, ParseError> {
        let save = self.pos;
        match self.try_cmp() {
            Ok(c) => Ok(c),
            Err(e) => {
                self.pos = save;
                if self.eat(&CTok::LParen) {
                    let inner = self.bool_expr()?;
                    self.expect(CTok::RParen)?;
                    Ok(inner)
                } else {
                    Err(e)
                }
            }
        }
    }

    fn try_cmp(&mut self) -> Result<BoolExpr, ParseError> {
        let lhs = self.expr()?;
        let op = match self.peek() {
            CTok::Eq => CmpOp::Eq,
            CTok::Ne => CmpOp::Ne,
            CTok::Lt => CmpOp::Lt,
            CTok::Le => CmpOp::Le,
            CTok::Gt => CmpOp::Gt,
            CTok::Ge => CmpOp::Ge,
            other => return self.err(format!("expected comparison, found {other:?}")),
        };
        self.bump();
        let rhs = self.expr()?;
        Ok(BoolExpr::Cmp { op, lhs, rhs })
    }
}

fn parse_clauses(text: &str) -> Result<ParallelInfo, String> {
    let mut info = ParallelInfo::default();
    let mut rest = text.trim();
    while !rest.is_empty() {
        let open = rest
            .find('(')
            .ok_or_else(|| format!("malformed clause near `{rest}`"))?;
        let name = rest[..open].trim().to_ascii_lowercase();
        let close = rest[open..]
            .find(')')
            .ok_or_else(|| format!("unterminated clause `{name}`"))?
            + open;
        let args = &rest[open + 1..close];
        match name.as_str() {
            "shared" => info
                .shared
                .extend(args.split(',').map(|s| s.trim().to_string())),
            "private" => info
                .private
                .extend(args.split(',').map(|s| s.trim().to_string())),
            "reduction" => {
                let (op, vars) = args
                    .split_once(':')
                    .ok_or_else(|| "reduction clause needs `op: vars`".to_string())?;
                let op = match op.trim() {
                    "+" => RedOp::Add,
                    "*" => RedOp::Mul,
                    "min" => RedOp::Min,
                    "max" => RedOp::Max,
                    other => return Err(format!("unknown reduction operator `{other}`")),
                };
                for v in vars.split(',') {
                    info.reductions.push((op, v.trim().to_string()));
                }
            }
            other => return Err(format!("unknown clause `{other}`")),
        }
        rest = rest[close + 1..].trim();
    }
    Ok(info)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    const SAXPY_C: &str = r#"
// C-flavoured saxpy.
void saxpy(int n, const double a, const double x[n], double y[n]) {
  int i;
  #pragma omp parallel for shared(x, y)
  for (i = 1; i <= n; i++) {
    y[i] = y[i] + a * x[i];
  }
}
"#;

    const SAXPY_F: &str = r#"
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
    fn c_and_fortran_dialects_agree() {
        let c = parse_clike(SAXPY_C).unwrap();
        let f = parse_program(SAXPY_F).unwrap();
        assert_eq!(c.body, f.body);
        assert_eq!(c.params.len(), f.params.len());
        for (a, b) in c.params.iter().zip(&f.params) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.ty, b.ty);
            assert_eq!(a.dims, b.dims);
        }
        assert!(crate::validate(&c).is_empty());
    }

    #[test]
    fn strict_bound_becomes_inclusive() {
        let src = r#"
void t(int n, double y[n]) {
  int i;
  for (i = 1; i < n; i++) {
    y[i] = 0.0;
  }
}
"#;
        let p = parse_clike(src).unwrap();
        let Stmt::For(l) = &p.body[0] else { panic!() };
        assert_eq!(l.hi, Expr::var("n") - Expr::int(1));
    }

    #[test]
    fn downward_loop() {
        let src = r#"
void t(int n, double y[n]) {
  int i;
  for (i = n; i >= 1; i--) {
    y[i] = 0.0;
  }
}
"#;
        let p = parse_clike(src).unwrap();
        let Stmt::For(l) = &p.body[0] else { panic!() };
        assert_eq!(l.step, Expr::IntLit(-1));
        assert_eq!(l.lo, Expr::var("n"));
        assert_eq!(l.hi, Expr::IntLit(1));
    }

    #[test]
    fn compound_assignment_becomes_increment() {
        let src = r#"
void t(int n, double y[n], const double x[n]) {
  int i;
  for (i = 1; i <= n; i += 2) {
    y[i] += 2.0 * x[i];
    y[i] -= x[i];
  }
}
"#;
        let p = parse_clike(src).unwrap();
        let Stmt::For(l) = &p.body[0] else { panic!() };
        assert_eq!(l.step, Expr::IntLit(2));
        assert!(l.body[0].as_increment().is_some());
        assert!(l.body[1].as_increment().is_some());
    }

    #[test]
    fn atomic_pragma_and_if() {
        let src = r#"
void t(int n, const int c[n], double y[n]) {
  int i;
  #pragma omp parallel for shared(y, c)
  for (i = 1; i <= n; i++) {
    if (c[i] > 0 && i != 1) {
      #pragma omp atomic
      y[c[i]] += 1.0;
    } else {
      y[i] = -5.0;
    }
  }
}
"#;
        let p = parse_clike(src).unwrap();
        let Stmt::For(l) = &p.body[0] else { panic!() };
        let Stmt::If {
            cond,
            then_body,
            else_body,
        } = &l.body[0]
        else {
            panic!()
        };
        assert!(matches!(cond, BoolExpr::And(_, _)));
        assert!(matches!(then_body[0], Stmt::AtomicAdd { .. }));
        assert_eq!(else_body.len(), 1);
    }

    #[test]
    fn c_math_function_names() {
        let src = r#"
void t(int n, const double x[n], double y[n]) {
  int i;
  for (i = 1; i <= n; i++) {
    y[i] = fabs(x[i]) + fmin(x[i], 1.0) + fmax(x[i], 0.0) + pow(x[i], 2) + sqrt(2.0 + x[i] * x[i]);
  }
}
"#;
        let p = parse_clike(src).unwrap();
        assert!(crate::validate(&p).is_empty());
        let text = crate::program_to_string(&p);
        assert!(text.contains("abs(x(i))"), "{text}");
        assert!(text.contains("min(x(i), 1.0)"), "{text}");
        assert!(text.contains("x(i) ** 2"), "{text}");
    }

    #[test]
    fn multidim_brackets() {
        let src = r#"
void t(int n, int m, double u[n][m]) {
  int i, j;
  for (i = 1; i <= n; i++) {
    for (j = 1; j <= m; j++) {
      u[i][j] = 1.0;
    }
  }
}
"#;
        let p = parse_clike(src).unwrap();
        assert!(crate::validate(&p).is_empty(), "{:?}", crate::validate(&p));
    }

    #[test]
    fn inline_loop_declaration() {
        let src = r#"
void t(int n, double y[n]) {
  for (int i = 1; i <= n; i++) {
    y[i] = 1.0;
  }
}
"#;
        let p = parse_clike(src).unwrap();
        assert!(p.locals.iter().any(|d| d.name == "i"));
        assert!(crate::validate(&p).is_empty());
    }

    #[test]
    fn parse_any_dispatches() {
        assert!(parse_any(SAXPY_C).is_ok());
        assert!(parse_any(SAXPY_F).is_ok());
        // The first token decides, not a substring of a header comment.
        let fortran = format!("! avoid aliasing between x and y\n{SAXPY_F}");
        assert_eq!(parse_any(&fortran), parse_any(SAXPY_F));
        for header in ["/* subroutine saxpy */", "// a subroutine\n/* void */"] {
            assert_eq!(
                parse_any(&format!("{header}\n{SAXPY_C}")),
                parse_any(SAXPY_C)
            );
        }
    }

    #[test]
    fn comments_ignored() {
        let src = "void t(int n, double y[n]) { /* block\ncomment */ int i; // line\n for (i = 1; i <= n; i++) { y[i] = 1.0; } }";
        assert!(parse_clike(src).is_ok());
    }
}
