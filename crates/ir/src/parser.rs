//! The one recursive-descent parser of both surface flavours.
//!
//! The cursor, expressions, conditions, subscripts, assignments, tape
//! calls, pragmas and `parallel` clauses are written once and read the
//! flavour's [`Spelling`](crate::flavor::Spelling). What differs per
//! flavour is the declaration and statement shell: the Fortran one
//! (`subroutine`, declaration lines, `do`, `if … then`, `call`) is at the
//! end of this file, the C one is in [`crate::clike`].

use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

use crate::expr::{BinOp, BoolExpr, CmpOp, Expr, UnOp};
use crate::flavor::{Callee, SourceFlavor};
use crate::lexer::{lex, Tok, Token};
use crate::name::Name;
use crate::program::{Decl, Program};
use crate::stmt::{ForLoop, LValue, ParallelInfo, RedOp, Stmt};
use crate::types::{Intent, Ty};

/// Parse error with a source line and message.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    pub line: u32,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parse a complete subroutine from Fortran-flavoured source text.
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    SourceFlavor::Fortran.parse(src)
}

/// Parse a single Fortran-flavoured expression (used by tests and tools).
pub fn parse_expr(src: &str) -> Result<Expr, ParseError> {
    Parser::new(src, SourceFlavor::Fortran)?.expr()
}

pub(crate) type Parsed<T> = Result<T, ParseError>;

/// The token cursor and everything both flavours parse the same way.
pub(crate) struct Parser<'a> {
    pub flavor: SourceFlavor,
    toks: Vec<Token<'a>>,
    pos: usize,
    /// Local declarations met so far (C declares them among statements).
    pub locals: Vec<Decl>,
    /// Every identifier met so far: each is allocated once per program.
    names: HashSet<Name>,
}

impl<'a> Parser<'a> {
    pub fn new(src: &'a str, flavor: SourceFlavor) -> Parsed<Parser<'a>> {
        Ok(Parser {
            flavor,
            toks: lex(src, flavor)?,
            pos: 0,
            locals: Vec::new(),
            names: HashSet::new(),
        })
    }

    // ---- cursor ----

    pub fn peek(&self) -> Tok<'a> {
        self.toks[self.pos].kind
    }

    /// The token after the current one.
    pub fn peek_next(&self) -> Tok<'a> {
        self.toks[(self.pos + 1).min(self.toks.len() - 1)].kind
    }

    pub fn bump(&mut self) -> Tok<'a> {
        let t = self.peek();
        self.pos = (self.pos + 1).min(self.toks.len() - 1);
        t
    }

    pub fn err<T>(&self, msg: impl Into<String>) -> Parsed<T> {
        Err(ParseError {
            line: self.toks[self.pos].line,
            message: msg.into(),
        })
    }

    /// An error saying what was expected instead of the current token.
    pub fn unexpected<T>(&self, expected: &str) -> Parsed<T> {
        let found = self.peek().describe(self.flavor);
        self.err(format!("expected {expected}, found {found}"))
    }

    pub fn expect(&mut self, kind: Tok<'_>) -> Parsed<()> {
        if self.eat(kind) {
            Ok(())
        } else {
            self.unexpected(&kind.describe(self.flavor))
        }
    }

    pub fn eat(&mut self, kind: Tok<'_>) -> bool {
        let hit = self.peek() == kind;
        if hit {
            self.bump();
        }
        hit
    }

    pub fn ident(&mut self) -> Parsed<&'a str> {
        match self.peek() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            _ => self.unexpected("identifier"),
        }
    }

    /// The one shared [`Name`] of the identifier `s`.
    pub fn intern(&mut self, s: &str) -> Name {
        if let Some(n) = self.names.get(s) {
            return n.clone();
        }
        let n = Name::from(s);
        self.names.insert(n.clone());
        n
    }

    /// An identifier token, as a variable name.
    pub fn name(&mut self) -> Parsed<Name> {
        let s = self.ident()?;
        Ok(self.intern(s))
    }

    /// True if the current token is the keyword `word`. Fortran keywords
    /// are case-insensitive.
    pub fn at_kw(&self, word: &str) -> bool {
        match (self.peek(), self.flavor) {
            (Tok::Ident(s), SourceFlavor::Fortran) => s.eq_ignore_ascii_case(word),
            (Tok::Ident(s), SourceFlavor::C) => s == word,
            _ => false,
        }
    }

    pub fn eat_kw(&mut self, word: &str) -> bool {
        let hit = self.at_kw(word);
        if hit {
            self.bump();
        }
        hit
    }

    pub fn expect_kw(&mut self, word: &str) -> Parsed<()> {
        if self.eat_kw(word) {
            Ok(())
        } else {
            self.unexpected(&format!("keyword `{word}`"))
        }
    }

    /// One or more comma-separated `item`s up to and including `close`.
    pub fn list<T>(
        &mut self,
        close: Tok<'_>,
        mut item: impl FnMut(&mut Self) -> Parsed<T>,
    ) -> Parsed<Vec<T>> {
        let mut out = Vec::new();
        loop {
            out.push(item(self)?);
            if self.eat(close) {
                return Ok(out);
            }
            self.expect(Tok::Comma)?;
        }
    }

    // ---- statements both flavours share ----

    pub fn stmt(&mut self) -> Parsed<Stmt> {
        if let Tok::Pragma(p) = self.peek() {
            self.bump();
            return self.pragma_stmt(p);
        }
        match self.flavor {
            SourceFlavor::Fortran => self.fortran_stmt(),
            SourceFlavor::C => self.c_stmt(),
        }
    }

    /// The end of a simple statement: the line's in Fortran, `;` in C.
    pub fn end_stmt(&mut self) -> Parsed<()> {
        if self.flavor == SourceFlavor::C {
            self.expect(Tok::Semi)
        } else if self.eat(Tok::Newline) || self.peek() == Tok::Eof {
            Ok(())
        } else {
            self.unexpected("end of line")
        }
    }

    /// `lv = e`, and where the flavour has the tokens `lv += e` / `lv -= e`
    /// (an increment by `e` / `-e`).
    pub fn assignment(&mut self) -> Parsed<Stmt> {
        let lhs = self.lvalue()?;
        let op = self.peek();
        if !matches!(op, Tok::Assign | Tok::PlusAssign | Tok::MinusAssign) {
            return self.unexpected("assignment operator");
        }
        self.bump();
        let rhs = self.expr()?;
        self.end_stmt()?;
        Ok(match op {
            Tok::Assign => Stmt::Assign { lhs, rhs },
            Tok::PlusAssign => Stmt::increment(lhs, rhs),
            _ => Stmt::increment(lhs, rhs.neg()),
        })
    }

    /// `push(e)` / `pop(lv)`: after Fortran's `call`, a statement in C.
    pub fn tape_call(&mut self) -> Parsed<Stmt> {
        let push = self.at_kw("push");
        if !push && !self.at_kw("pop") {
            return self.unexpected("call target `push` or `pop`");
        }
        self.bump();
        self.expect(Tok::LParen)?;
        let stmt = if push {
            Stmt::Push(self.expr()?)
        } else {
            Stmt::Pop(self.lvalue()?)
        };
        self.expect(Tok::RParen)?;
        self.end_stmt()?;
        Ok(stmt)
    }

    /// The statement an OpenMP directive applies to: `atomic` turns the
    /// increment after it into an `AtomicAdd`, `parallel do|for` annotates
    /// the loop after it.
    fn pragma_stmt(&mut self, pragma: &str) -> Parsed<Stmt> {
        let spelling = self.flavor.spelling();
        let (prefix, kw) = (spelling.pragma, spelling.loop_kw);
        let lower = pragma.to_ascii_lowercase();
        if lower == "atomic" {
            return match self.assignment()?.as_increment() {
                Some((lhs, added)) => Ok(Stmt::AtomicAdd {
                    lhs: lhs.clone(),
                    rhs: added,
                }),
                None => self.err(format!(
                    "`{prefix} atomic` must be followed by an increment statement"
                )),
            };
        }
        let clauses = lower
            .strip_prefix("parallel ")
            .and_then(|r| r.strip_prefix(kw));
        let Some(clauses) = clauses else {
            return self.err(format!("unsupported pragma `{prefix} {pragma}`"));
        };
        let info = parse_parallel_clauses(clauses, &mut |s| self.intern(s));
        let info = info.or_else(|m| self.err(m))?;
        if !self.at_kw(kw) {
            return self.err(format!(
                "`{prefix} parallel {kw}` must be followed by a {kw} loop"
            ));
        }
        match self.flavor {
            SourceFlavor::Fortran => self.do_stmt(Some(info)),
            SourceFlavor::C => self.for_stmt(Some(info)),
        }
    }

    pub fn lvalue(&mut self) -> Parsed<LValue> {
        let name = self.name()?;
        let indices = self.subscripts()?;
        Ok(if indices.is_empty() {
            LValue::Var(name)
        } else {
            LValue::index(name, indices)
        })
    }

    /// The subscripts (or declared extents) after a name: `(i, j)` in
    /// Fortran, `[i][j]` in C; empty if none follow.
    pub fn subscripts(&mut self) -> Parsed<Vec<Expr>> {
        let mut out = Vec::new();
        match self.flavor {
            SourceFlavor::Fortran => {
                if self.eat(Tok::LParen) {
                    out = self.list(Tok::RParen, Self::expr)?;
                }
            }
            SourceFlavor::C => {
                while self.eat(Tok::LBracket) {
                    out.push(self.expr()?);
                    self.expect(Tok::RBracket)?;
                }
            }
        }
        Ok(out)
    }

    // ---- expressions ----

    pub fn expr(&mut self) -> Parsed<Expr> {
        self.add_expr()
    }

    fn add_expr(&mut self) -> Parsed<Expr> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => BinOp::Add,
                Tok::Minus => BinOp::Sub,
                _ => return Ok(lhs),
            };
            self.bump();
            lhs = Expr::binary(op, lhs, self.mul_expr()?);
        }
    }

    fn mul_expr(&mut self) -> Parsed<Expr> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Star => BinOp::Mul,
                Tok::Slash => BinOp::Div,
                Tok::Percent => BinOp::Mod,
                _ => return Ok(lhs),
            };
            self.bump();
            lhs = Expr::binary(op, lhs, self.unary_expr()?);
        }
    }

    fn unary_expr(&mut self) -> Parsed<Expr> {
        if self.eat(Tok::Minus) {
            // Fold negated literals so `-1` is a literal, keeping parsed
            // and programmatically-built trees structurally identical.
            return Ok(match self.unary_expr()? {
                Expr::IntLit(v) => Expr::IntLit(-v),
                Expr::RealLit(v) => Expr::RealLit(-v),
                other => Expr::Unary {
                    op: UnOp::Neg,
                    arg: Arc::new(other),
                },
            });
        }
        if self.eat(Tok::Plus) {
            return self.unary_expr();
        }
        self.pow_expr()
    }

    fn pow_expr(&mut self) -> Parsed<Expr> {
        let base = self.primary_expr()?;
        if self.eat(Tok::DoubleStar) {
            // `**` is right-associative.
            return Ok(Expr::binary(BinOp::Pow, base, self.unary_expr()?));
        }
        Ok(base)
    }

    fn primary_expr(&mut self) -> Parsed<Expr> {
        match self.peek() {
            Tok::Int(v) => {
                self.bump();
                Ok(Expr::IntLit(v))
            }
            Tok::Real(v) => {
                self.bump();
                Ok(Expr::RealLit(v))
            }
            Tok::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Tok::Ident(name) => {
                self.bump();
                // `name(` is a call if the flavour knows the function; in
                // Fortran it is otherwise an array reference.
                if self.peek() == Tok::LParen {
                    if let Some(callee) = self.flavor.callee(name) {
                        return self.call(name, callee);
                    }
                    if self.flavor == SourceFlavor::C {
                        return self.err(format!("unknown function `{name}`"));
                    }
                }
                let indices = self.subscripts()?;
                Ok(if indices.is_empty() {
                    Expr::Var(self.intern(name))
                } else {
                    Expr::index(self.intern(name), indices)
                })
            }
            _ => self.unexpected("expression"),
        }
    }

    fn call(&mut self, name: &str, callee: Callee) -> Parsed<Expr> {
        self.expect(Tok::LParen)?;
        let args = self.list(Tok::RParen, Self::expr)?;
        let arity = match callee {
            Callee::Bin(_) => 2,
            Callee::Fun(f) => f.arity(),
        };
        if args.len() != arity {
            let got = args.len();
            return self.err(format!("`{name}` takes {arity} argument(s), got {got}"));
        }
        match callee {
            Callee::Fun(func) => Ok(Expr::call(func, args)),
            Callee::Bin(op) => {
                let mut args = args.into_iter();
                let (Some(lhs), Some(rhs)) = (args.next(), args.next()) else {
                    unreachable!("arity checked above");
                };
                Ok(Expr::binary(op, lhs, rhs))
            }
        }
    }

    // ---- boolean expressions ----

    pub fn bool_expr(&mut self) -> Parsed<BoolExpr> {
        let mut lhs = self.bool_and()?;
        while self.eat(Tok::Or) {
            let rhs = self.bool_and()?;
            lhs = BoolExpr::Or(Arc::new(lhs), Arc::new(rhs));
        }
        Ok(lhs)
    }

    fn bool_and(&mut self) -> Parsed<BoolExpr> {
        let mut lhs = self.bool_not()?;
        while self.eat(Tok::And) {
            let rhs = self.bool_not()?;
            lhs = BoolExpr::And(Arc::new(lhs), Arc::new(rhs));
        }
        Ok(lhs)
    }

    fn bool_not(&mut self) -> Parsed<BoolExpr> {
        if self.eat(Tok::Not) {
            return Ok(BoolExpr::Not(Arc::new(self.bool_not()?)));
        }
        self.bool_primary()
    }

    fn bool_primary(&mut self) -> Parsed<BoolExpr> {
        // Disambiguate `(boolexpr)` from `(arith) cmp arith` by
        // backtracking: first try a comparison.
        let save = self.pos;
        match self.try_cmp() {
            Ok(c) => Ok(c),
            Err(first_err) => {
                self.pos = save;
                if self.eat(Tok::LParen) {
                    let inner = self.bool_expr()?;
                    self.expect(Tok::RParen)?;
                    Ok(inner)
                } else {
                    Err(first_err)
                }
            }
        }
    }

    fn try_cmp(&mut self) -> Parsed<BoolExpr> {
        let lhs = self.expr()?;
        let op = match self.peek() {
            Tok::Eq => CmpOp::Eq,
            Tok::Ne => CmpOp::Ne,
            Tok::Lt => CmpOp::Lt,
            Tok::Le => CmpOp::Le,
            Tok::Gt => CmpOp::Gt,
            Tok::Ge => CmpOp::Ge,
            _ => return self.unexpected("comparison operator"),
        };
        self.bump();
        let rhs = self.expr()?;
        Ok(BoolExpr::Cmp { op, lhs, rhs })
    }

    // ---- the Fortran shell: declarations and block statements ----

    pub fn subroutine(&mut self) -> Parsed<Program> {
        self.expect_kw("subroutine")?;
        let name = self.ident()?.to_string();
        self.expect(Tok::LParen)?;
        let param_names = if self.eat(Tok::RParen) {
            Vec::new()
        } else {
            self.list(Tok::RParen, Self::ident)?
        };
        self.end_stmt()?;

        let mut params: Vec<Option<Decl>> = vec![None; param_names.len()];
        while self.at_kw("real") || self.at_kw("integer") {
            for mut d in self.decl_line()? {
                if let Some(k) = param_names.iter().position(|p| *p == d.name) {
                    if params[k].is_some() {
                        return self.err(format!("duplicate declaration of `{}`", d.name));
                    }
                    params[k] = Some(d);
                } else {
                    d.is_local = true;
                    self.locals.push(d);
                }
            }
            self.end_stmt()?;
        }
        if let Some(k) = params.iter().position(Option::is_none) {
            return self.err(format!("parameter `{}` is never declared", param_names[k]));
        }

        let body = self.stmts_until(&["end"])?;
        self.expect_kw("end")?;
        self.expect_kw("subroutine")?;
        // optional trailing name
        if let Tok::Ident(_) = self.peek() {
            self.bump();
        }
        self.end_stmt()?;
        Ok(Program {
            name,
            params: params.into_iter().flatten().collect(),
            locals: std::mem::take(&mut self.locals),
            body,
        })
    }

    /// `real|integer [, intent(…)] :: name[(extents)], …`
    fn decl_line(&mut self) -> Parsed<Vec<Decl>> {
        let ty = if self.eat_kw("real") {
            Ty::Real
        } else {
            self.expect_kw("integer")?;
            Ty::Int
        };
        let mut intent = None;
        if self.eat(Tok::Comma) {
            self.expect_kw("intent")?;
            self.expect(Tok::LParen)?;
            let word = self.ident()?;
            intent = Some(if word.eq_ignore_ascii_case("in") {
                Intent::In
            } else if word.eq_ignore_ascii_case("out") {
                Intent::Out
            } else if word.eq_ignore_ascii_case("inout") {
                Intent::InOut
            } else {
                return self.err(format!("unknown intent `{word}`"));
            });
            self.expect(Tok::RParen)?;
        }
        self.expect(Tok::DoubleColon)?;
        let mut decls = Vec::new();
        loop {
            decls.push(Decl {
                name: self.name()?,
                ty,
                dims: self.subscripts()?,
                intent: intent.unwrap_or(Intent::InOut),
                is_local: intent.is_none(),
            });
            if !self.eat(Tok::Comma) {
                return Ok(decls);
            }
        }
    }

    /// Parse statements until one of the stopper keywords (not consumed).
    fn stmts_until(&mut self, stoppers: &[&str]) -> Parsed<Vec<Stmt>> {
        let mut out = Vec::new();
        while !stoppers.iter().any(|s| self.at_kw(s)) && self.peek() != Tok::Eof {
            out.push(self.stmt()?);
        }
        Ok(out)
    }

    fn fortran_stmt(&mut self) -> Parsed<Stmt> {
        if self.at_kw("if") {
            self.fortran_if()
        } else if self.at_kw("do") {
            self.do_stmt(None)
        } else if self.eat_kw("call") {
            self.tape_call()
        } else {
            self.assignment()
        }
    }

    fn fortran_if(&mut self) -> Parsed<Stmt> {
        self.expect_kw("if")?;
        self.expect(Tok::LParen)?;
        let cond = self.bool_expr()?;
        self.expect(Tok::RParen)?;
        self.expect_kw("then")?;
        self.end_stmt()?;
        let then_body = self.stmts_until(&["else", "end"])?;
        let else_body = if self.eat_kw("else") {
            self.end_stmt()?;
            self.stmts_until(&["end"])?
        } else {
            Vec::new()
        };
        self.expect_kw("end")?;
        self.expect_kw("if")?;
        self.end_stmt()?;
        Ok(Stmt::If {
            cond,
            then_body,
            else_body,
        })
    }

    /// `do v = lo, hi[, step]` … `end do`
    fn do_stmt(&mut self, parallel: Option<ParallelInfo>) -> Parsed<Stmt> {
        self.expect_kw("do")?;
        let var = self.name()?;
        self.expect(Tok::Assign)?;
        let lo = self.expr()?;
        self.expect(Tok::Comma)?;
        let hi = self.expr()?;
        let step = if self.eat(Tok::Comma) {
            self.expr()?
        } else {
            Expr::IntLit(1)
        };
        self.end_stmt()?;
        let body = self.stmts_until(&["end"])?;
        self.expect_kw("end")?;
        self.expect_kw("do")?;
        self.end_stmt()?;
        Ok(Stmt::For(Box::new(ForLoop {
            var,
            lo,
            hi,
            step,
            body,
            parallel,
        })))
    }
}

/// Parse the (lower-cased) clause list of a `parallel` loop pragma:
/// `shared(a, b) private(c) reduction(+: x)`.
fn parse_parallel_clauses(
    text: &str,
    intern: &mut dyn FnMut(&str) -> Name,
) -> Result<ParallelInfo, String> {
    fn names<'a>(
        args: &'a str,
        intern: &'a mut dyn FnMut(&str) -> Name,
    ) -> impl Iterator<Item = Name> + 'a {
        args.split(',').map(|s| intern(s.trim()))
    }
    let mut info = ParallelInfo::default();
    let mut rest = text.trim();
    while !rest.is_empty() {
        let open = rest
            .find('(')
            .ok_or_else(|| format!("malformed pragma clause near `{rest}`"))?;
        let name = rest[..open].trim();
        let close = rest[open..]
            .find(')')
            .ok_or_else(|| format!("unterminated clause `{name}`"))?
            + open;
        let args = &rest[open + 1..close];
        match name {
            "shared" => info.shared.extend(names(args, intern)),
            "private" => info.private.extend(names(args, intern)),
            "reduction" => {
                let (op, vars) = args
                    .split_once(':')
                    .ok_or_else(|| "reduction clause needs `op: vars`".to_string())?;
                let op = [RedOp::Add, RedOp::Mul, RedOp::Min, RedOp::Max]
                    .into_iter()
                    .find(|r| r.symbol() == op.trim())
                    .ok_or_else(|| format!("unknown reduction operator `{}`", op.trim()))?;
                info.reductions.extend(names(vars, intern).map(|v| (op, v)));
            }
            other => return Err(format!("unknown pragma clause `{other}`")),
        }
        rest = rest[close + 1..].trim();
    }
    Ok(info)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG2: &str = r#"
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

    #[test]
    fn parses_fig2() {
        let p = parse_program(FIG2).unwrap();
        assert_eq!(p.name, "fig2");
        assert_eq!(p.params.len(), 4);
        assert_eq!(p.locals.len(), 1);
        assert_eq!(p.parallel_loop_count(), 1);
        let loops = p.parallel_loops();
        let info = loops[0].parallel.as_ref().unwrap();
        assert_eq!(info.shared, vec!["x", "y", "c"]);
    }

    #[test]
    fn expr_precedence() {
        assert_eq!(
            parse_expr("a + b * c").unwrap(),
            Expr::var("a") + Expr::var("b") * Expr::var("c")
        );
        assert_eq!(
            parse_expr("(a + b) * c").unwrap(),
            (Expr::var("a") + Expr::var("b")) * Expr::var("c")
        );
    }

    #[test]
    fn unary_minus_binds_tighter_than_mul() {
        let e = parse_expr("-a * b").unwrap();
        // parses as (-a) * b
        assert!(matches!(e, Expr::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn pow_right_assoc() {
        let e = parse_expr("a ** b ** c").unwrap();
        match e {
            Expr::Binary {
                op: BinOp::Pow,
                rhs,
                ..
            } => {
                assert!(matches!(*rhs, Expr::Binary { op: BinOp::Pow, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn intrinsics_vs_array_refs() {
        let e = parse_expr("sin(x) + u(i)").unwrap();
        match e {
            Expr::Binary { lhs, rhs, .. } => {
                assert!(matches!(*lhs, Expr::Call { .. }));
                assert!(matches!(*rhs, Expr::Index { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn mod_parses_to_binop() {
        let e = parse_expr("mod(i, 2)").unwrap();
        assert!(matches!(e, Expr::Binary { op: BinOp::Mod, .. }));
    }

    #[test]
    fn if_else_and_bool_ops() {
        let src = r#"
subroutine t(n, u)
  integer, intent(in) :: n
  real, intent(inout) :: u(n)
  integer :: i, j
  do i = 1, n
    if (i .ne. j .and. (i .lt. n .or. .not. j .ge. 2)) then
      u(i) = 1.0
    else
      u(i) = 2.0
    end if
  end do
end subroutine
"#;
        let p = parse_program(src).unwrap();
        let Stmt::For(l) = &p.body[0] else { panic!() };
        let Stmt::If {
            cond, else_body, ..
        } = &l.body[0]
        else {
            panic!()
        };
        assert!(matches!(cond, BoolExpr::And(_, _)));
        assert_eq!(else_body.len(), 1);
    }

    #[test]
    fn do_loop_with_step() {
        let src = r#"
subroutine t(n, u)
  integer, intent(in) :: n
  real, intent(inout) :: u(n)
  integer :: i
  do i = 2, n - 2, 2
    u(i) = 0.0
  end do
end subroutine
"#;
        let p = parse_program(src).unwrap();
        let Stmt::For(l) = &p.body[0] else { panic!() };
        assert_eq!(l.step, Expr::IntLit(2));
        assert_eq!(l.hi, Expr::var("n") - Expr::int(2));
    }

    #[test]
    fn reduction_clause() {
        let info = parse_parallel_clauses(" shared(u) reduction(+: s, t) private(w)", &mut |s| {
            Name::from(s)
        })
        .unwrap();
        assert_eq!(info.shared, vec!["u"]);
        assert_eq!(info.private, vec!["w"]);
        assert_eq!(info.reductions.len(), 2);
        assert_eq!(info.reductions[0], (RedOp::Add, Name::from("s")));
    }

    #[test]
    fn atomic_pragma_becomes_atomic_add() {
        let src = r#"
subroutine t(n, u)
  integer, intent(in) :: n
  real, intent(inout) :: u(n)
  integer :: i
  do i = 1, n
    !$omp atomic
    u(i) = u(i) + 1.0
  end do
end subroutine
"#;
        let p = parse_program(src).unwrap();
        let Stmt::For(l) = &p.body[0] else { panic!() };
        assert!(matches!(l.body[0], Stmt::AtomicAdd { .. }));
    }

    #[test]
    fn push_pop_calls() {
        let src = r#"
subroutine t(n, u)
  integer, intent(in) :: n
  real, intent(inout) :: u(n)
  integer :: i
  do i = 1, n
    call push(u(i))
    u(i) = 0.0
    call pop(u(i))
  end do
end subroutine
"#;
        let p = parse_program(src).unwrap();
        let Stmt::For(l) = &p.body[0] else { panic!() };
        assert!(matches!(l.body[0], Stmt::Push(_)));
        assert!(matches!(l.body[2], Stmt::Pop(_)));
    }

    #[test]
    fn undeclared_parameter_rejected() {
        let src = "subroutine t(n)\nend subroutine\n";
        assert!(parse_program(src).is_err());
    }

    #[test]
    fn multi_var_decl_line() {
        let src = r#"
subroutine t(n)
  integer, intent(in) :: n
  integer :: i, j, k
end subroutine
"#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.locals.len(), 3);
    }
}
