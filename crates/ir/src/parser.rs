//! The one recursive-descent parser of both surface flavours.
//!
//! The cursor, expressions, conditions, subscripts, assignments, tape
//! calls, pragmas and `parallel` clauses are written once and read the
//! flavour's [`Spelling`](crate::flavor::Spelling). What differs per
//! flavour is the declaration and statement shell: the Fortran one
//! (`subroutine`, declaration lines, `do`, `if … then`, `call`) is at the
//! end of this file, the C one is in [`crate::clike`].

use std::fmt;
use std::sync::Arc;

use crate::expr::{BinOp, BoolExpr, CmpOp, Expr, UnOp};
use crate::flavor::{Callee, SourceFlavor};
use crate::fx::FxHashMap;
use crate::lexer::{kw, Kw, Lexer, Tok, Token};
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
    let mut p = Parser::new(src, SourceFlavor::Fortran);
    let e = p.expr();
    p.finish(e)
}

pub(crate) type Parsed<T> = Result<T, ParseError>;

/// A parsed tree and its height (a leaf is 1).
pub(crate) type Tree<T> = Parsed<(T, u32)>;

/// The deepest nesting a program may have: the block levels around a
/// statement (`do`, `for`, `if` bodies) plus the height of an expression
/// or condition tree in it, where a literal or variable is height 1 and an
/// operator, comparison, call or array subscript adds a level. A flat sum
/// `a + b + …` is as deep as it has terms, since `+` is not re-associated.
/// The parser rejects deeper input with a positioned error (parentheses
/// count toward the budget while they are read) and
/// [`validate`](crate::validate) rejects deeper IR built in code, so every
/// recursive walk over an accepted program stays within a bounded stack.
pub const MAX_NESTING: u32 = 256;

/// The binary operators and their tokens: the parser climbs over the
/// table by [`BinOp::precedence`] (`**`, right-associative, binds a
/// primary to a signed operand instead), the printer spells from it.
pub(crate) const BINARY: [(Tok<'static>, BinOp); 6] = [
    (Tok::Plus, BinOp::Add),
    (Tok::Minus, BinOp::Sub),
    (Tok::Star, BinOp::Mul),
    (Tok::Slash, BinOp::Div),
    (Tok::Percent, BinOp::Mod),
    (Tok::DoubleStar, BinOp::Pow),
];

/// The token cursor and everything both flavours parse the same way.
pub(crate) struct Parser<'a> {
    pub flavor: SourceFlavor,
    /// The tokens after the current one.
    lexer: Lexer<'a>,
    /// The current token.
    tok: Token<'a>,
    /// The first lexical error; past it the cursor reads the end of input.
    lex_error: Option<ParseError>,
    /// Local declarations met so far (C declares them among statements).
    pub locals: Vec<Decl>,
    /// Every identifier met so far: each is allocated once per program.
    names: FxHashMap<&'a str, Name>,
    /// The subscripts and call arguments being read, innermost list last;
    /// a finished list moves out in one allocation of its exact size.
    items: Vec<Expr>,
    /// Whether errors are only signals of a reading tried first
    /// ([`Parser::bool_primary`]), whose messages nobody reads.
    quiet: bool,
    /// Nesting levels open at the cursor (see [`MAX_NESTING`]).
    nest: u32,
}

impl<'a> Parser<'a> {
    pub fn new(src: &'a str, flavor: SourceFlavor) -> Parser<'a> {
        // A program names about one distinct thing per 64 bytes.
        let names = FxHashMap::with_capacity_and_hasher(src.len() / 64, Default::default());
        let mut p = Parser {
            flavor,
            tok: Token {
                kind: Tok::Eof,
                line: 1,
                kw: 0,
            },
            lexer: Lexer::new(src, flavor),
            lex_error: None,
            locals: Vec::new(),
            names,
            items: Vec::new(),
            quiet: false,
            nest: 0,
        };
        p.advance();
        p
    }

    /// `result`, unless the source holds a lexical error: then the first
    /// one, wherever the parser stopped.
    pub fn finish<T>(self, result: Parsed<T>) -> Parsed<T> {
        match self.lex_error.or_else(|| self.lexer.rest_error()) {
            Some(e) => Err(e),
            None => result,
        }
    }

    // ---- cursor ----

    pub fn peek(&self) -> Tok<'a> {
        self.tok.kind
    }

    /// The token after the current one.
    pub fn peek_next(&self) -> Tok<'a> {
        self.lexer.clone().next().map_or(Tok::Eof, |t| t.kind)
    }

    /// Move to the next token; past a lexical error, the end of input.
    fn advance(&mut self) {
        self.tok = self.lexer.next().unwrap_or_else(|e| {
            let eof = Token {
                kind: Tok::Eof,
                line: e.line,
                kw: 0,
            };
            self.lex_error.get_or_insert(e);
            eof
        });
    }

    pub fn bump(&mut self) -> Tok<'a> {
        let t = self.peek();
        if t != Tok::Eof {
            self.advance();
        }
        t
    }

    pub fn err<T>(&self, msg: impl Into<String>) -> Parsed<T> {
        Err(ParseError {
            line: self.tok.line,
            message: msg.into(),
        })
    }

    /// An error saying what was expected instead of the current token.
    pub fn unexpected<T>(&self, expected: &str) -> Parsed<T> {
        if self.quiet {
            return self.err(String::new());
        }
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
    pub fn intern(&mut self, s: &'a str) -> Name {
        self.names.entry(s).or_insert_with(|| Name::from(s)).clone()
    }

    /// An identifier token, as a variable name.
    pub fn name(&mut self) -> Parsed<Name> {
        let s = self.ident()?;
        Ok(self.intern(s))
    }

    /// True if the current token is the keyword `word`. Fortran keywords
    /// are case-insensitive.
    #[inline]
    pub fn at_kw(&self, word: &str) -> bool {
        self.tok.kw == kw(word)
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

    // ---- the nesting budget ----

    /// Run `f` one nesting level down — a parenthesized, negated or
    /// exponent operand, a subscript or argument list, a block body —
    /// refusing to go past [`MAX_NESTING`].
    pub fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> Parsed<T>) -> Parsed<T> {
        self.nest += 1;
        let out = if self.nest >= MAX_NESTING {
            self.too_deep()
        } else {
            f(self)
        };
        self.nest -= 1;
        out
    }

    /// `t`, a tree of height `h` read at the cursor's nesting, if it fits
    /// the budget.
    pub fn fits<T>(&self, t: T, h: u32) -> Tree<T> {
        if self.nest + h > MAX_NESTING {
            self.too_deep()
        } else {
            Ok((t, h))
        }
    }

    fn too_deep<T>(&self) -> Parsed<T> {
        self.err(format!("nesting deeper than {MAX_NESTING} levels"))
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

    /// One or more comma-separated expressions up to and including
    /// `close`, one nesting level down, pushed onto `items`; returns the
    /// height of the tallest.
    fn push_list(&mut self, close: Tok<'_>) -> Parsed<u32> {
        self.nested(|p| {
            let mut h = 0;
            loop {
                let (e, he) = p.expr_h()?;
                h = h.max(he);
                p.items.push(e);
                if p.eat(close) {
                    return Ok(h);
                }
                p.expect(Tok::Comma)?;
            }
        })
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
        let lhs = self.lvalue_h()?;
        let op = self.peek();
        if !matches!(op, Tok::Assign | Tok::PlusAssign | Tok::MinusAssign) {
            return self.unexpected("assignment operator");
        }
        self.bump();
        let ((lhs, hl), (rhs, hr)) = (lhs, self.expr_h()?);
        self.end_stmt()?;
        Ok(match op {
            Tok::Assign => Stmt::Assign { lhs, rhs },
            // `x += e` is `x = x + e`; `x -= e` is `x = x + (-e)`.
            Tok::PlusAssign => self.fits(Stmt::increment(lhs, rhs), hl.max(hr) + 1)?.0,
            _ => {
                self.fits(Stmt::increment(lhs, rhs.neg()), hl.max(hr + 1) + 1)?
                    .0
            }
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
            Stmt::Pop(self.lvalue_h()?.0)
        };
        self.expect(Tok::RParen)?;
        self.end_stmt()?;
        Ok(stmt)
    }

    /// Does directive or clause text `text` spell `word`? ASCII case is
    /// ignored in Fortran only.
    fn is_word(&self, text: &str, word: &str) -> bool {
        match self.flavor {
            SourceFlavor::Fortran => text.eq_ignore_ascii_case(word),
            SourceFlavor::C => text == word,
        }
    }

    /// `text` after its leading `word`, if it starts with it.
    fn after_word(&self, text: &'a str, word: &str) -> Option<&'a str> {
        let head = text.get(..word.len())?;
        self.is_word(head, word).then(|| &text[word.len()..])
    }

    /// The statement an OpenMP directive applies to: `atomic` turns the
    /// increment after it into an `AtomicAdd`, `parallel do|for` annotates
    /// the loop after it.
    fn pragma_stmt(&mut self, pragma: &'a str) -> Parsed<Stmt> {
        let spelling = self.flavor.spelling();
        let (prefix, kw) = (spelling.pragma, spelling.loop_kw);
        if self.is_word(pragma, "atomic") {
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
        let clauses = self
            .after_word(pragma, "parallel ")
            .and_then(|r| self.after_word(r, kw));
        let Some(clauses) = clauses else {
            return self.err(format!("unsupported pragma `{prefix} {pragma}`"));
        };
        let info = self.parallel_clauses(clauses).or_else(|m| self.err(m))?;
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

    /// The clause list of a `parallel` loop pragma:
    /// `shared(a, b) private(c) reduction(+: x)`. Clause names and
    /// reduction operators are words ([`Parser::is_word`]); the variable
    /// names keep their case.
    fn parallel_clauses(&mut self, text: &'a str) -> Result<ParallelInfo, String> {
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
            let (mut args, mut op) = (&rest[open + 1..close], None);
            if self.is_word(name, "reduction") {
                let (symbol, vars) = args
                    .split_once(':')
                    .ok_or_else(|| "reduction clause needs `op: vars`".to_string())?;
                let symbol = symbol.trim();
                let known = [RedOp::Add, RedOp::Mul, RedOp::Min, RedOp::Max]
                    .into_iter()
                    .find(|r| self.is_word(symbol, r.symbol()));
                let known =
                    known.ok_or_else(|| format!("unknown reduction operator `{symbol}`"))?;
                (args, op) = (vars, Some(known));
            } else if !self.is_word(name, "shared") && !self.is_word(name, "private") {
                return Err(format!("unknown pragma clause `{name}`"));
            }
            for var in args.split(',') {
                let var = self.intern(var.trim());
                match op {
                    Some(op) => info.reductions.push((op, var)),
                    None if self.is_word(name, "shared") => info.shared.push(var),
                    None => info.private.push(var),
                }
            }
            rest = rest[close + 1..].trim();
        }
        Ok(info)
    }

    /// An assignment target and its height.
    fn lvalue_h(&mut self) -> Tree<LValue> {
        let name = self.name()?;
        match self.subscripts_h::<Arc<[Expr]>>()? {
            None => Ok((LValue::Var(name), 1)),
            Some((indices, h)) => self.fits(LValue::index(name, indices), h + 1),
        }
    }

    /// The subscripts (or declared extents) after a name: `(i, j)` in
    /// Fortran, `[i][j]` in C; empty if none follow.
    pub fn subscripts(&mut self) -> Parsed<Vec<Expr>> {
        Ok(self.subscripts_h()?.map_or_else(Vec::new, |(dims, _)| dims))
    }

    /// The subscripts after a name and the height of the tallest, if any
    /// follow.
    fn subscripts_h<C: FromIterator<Expr>>(&mut self) -> Parsed<Option<(C, u32)>> {
        let base = self.items.len();
        let h = match self.flavor {
            SourceFlavor::Fortran => {
                if !self.eat(Tok::LParen) {
                    return Ok(None);
                }
                self.push_list(Tok::RParen)?
            }
            SourceFlavor::C => {
                let mut h = 0;
                while self.eat(Tok::LBracket) {
                    let (e, he) = self.nested(Self::expr_h)?;
                    h = h.max(he);
                    self.items.push(e);
                    self.expect(Tok::RBracket)?;
                }
                if self.items.len() == base {
                    return Ok(None);
                }
                h
            }
        };
        Ok(Some((self.items.drain(base..).collect(), h)))
    }

    // ---- expressions ----

    pub fn expr(&mut self) -> Parsed<Expr> {
        Ok(self.expr_h()?.0)
    }

    /// An expression and its height.
    pub fn expr_h(&mut self) -> Tree<Expr> {
        self.climb(1)
    }

    /// Operands joined by [`BINARY`] operators of precedence `min` or
    /// tighter, each operator applied left to right once its right
    /// operand (whose operators bind tighter still) is read.
    fn climb(&mut self, min: u8) -> Tree<Expr> {
        let (mut lhs, mut h) = self.operand()?;
        loop {
            let tok = self.peek();
            let next = BINARY.iter().find(|&&(t, op)| t == tok && op != BinOp::Pow);
            let Some(&(_, op)) = next.filter(|(_, op)| op.precedence() >= min) else {
                return Ok((lhs, h));
            };
            self.bump();
            let (rhs, hr) = self.climb(op.precedence() + 1)?;
            (lhs, h) = self.fits(Expr::binary(op, lhs, rhs), h.max(hr) + 1)?;
        }
    }

    /// A signed operand: `-x`, `+x`, or a primary with an optional
    /// right-associative `** x`.
    fn operand(&mut self) -> Tree<Expr> {
        match self.peek() {
            Tok::Minus => {
                self.bump();
                // Fold negated literals so `-1` is a literal, keeping
                // parsed and programmatically-built trees structurally
                // identical.
                return match self.nested(Self::operand)? {
                    (Expr::IntLit(v), h) => Ok((Expr::IntLit(-v), h)),
                    (Expr::RealLit(v), h) => Ok((Expr::RealLit(-v), h)),
                    (other, h) => self.fits(
                        Expr::Unary {
                            op: UnOp::Neg,
                            arg: Arc::new(other),
                        },
                        h + 1,
                    ),
                };
            }
            Tok::Plus => {
                self.bump();
                return self.nested(Self::operand);
            }
            _ => {}
        }
        let (base, h) = self.primary()?;
        if self.eat(Tok::DoubleStar) {
            let (exp, he) = self.nested(Self::operand)?;
            return self.fits(Expr::binary(BinOp::Pow, base, exp), h.max(he) + 1);
        }
        Ok((base, h))
    }

    fn primary(&mut self) -> Tree<Expr> {
        match self.peek() {
            Tok::Int(v) => {
                self.bump();
                Ok((Expr::IntLit(v), 1))
            }
            Tok::Real(v) => {
                self.bump();
                Ok((Expr::RealLit(v), 1))
            }
            Tok::LParen => {
                self.bump();
                let e = self.nested(Self::expr_h)?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Tok::Ident(name) => {
                let kw = self.tok.kw;
                self.bump();
                // `name(` is a call if the flavour knows the function; in
                // Fortran it is otherwise an array reference.
                if self.peek() == Tok::LParen {
                    if let Some(callee) = self.flavor.callee(kw) {
                        return self.call(name, callee);
                    }
                    if self.flavor == SourceFlavor::C {
                        return self.err(format!("unknown function `{name}`"));
                    }
                }
                let name = self.intern(name);
                match self.subscripts_h()? {
                    None => Ok((Expr::Var(name), 1)),
                    Some((indices, h)) => self.fits(
                        Expr::Index {
                            array: name,
                            indices,
                        },
                        h + 1,
                    ),
                }
            }
            _ => self.unexpected("expression"),
        }
    }

    fn call(&mut self, name: &str, callee: Callee) -> Tree<Expr> {
        self.expect(Tok::LParen)?;
        let base = self.items.len();
        let h = self.push_list(Tok::RParen)? + 1;
        let arity = match callee {
            Callee::Bin(_) => 2,
            Callee::Fun(f) => f.arity(),
        };
        let got = self.items.len() - base;
        if got != arity {
            return self.err(format!("`{name}` takes {arity} argument(s), got {got}"));
        }
        let e = match callee {
            Callee::Fun(func) => Expr::call(func, self.items.drain(base..).collect::<Arc<[_]>>()),
            Callee::Bin(op) => {
                let (Some(rhs), Some(lhs)) = (self.items.pop(), self.items.pop()) else {
                    unreachable!("arity checked above");
                };
                Expr::binary(op, lhs, rhs)
            }
        };
        self.fits(e, h)
    }

    // ---- boolean expressions ----

    pub fn bool_expr(&mut self) -> Parsed<BoolExpr> {
        Ok(self.bool_or()?.0)
    }

    fn bool_or(&mut self) -> Tree<BoolExpr> {
        let (mut lhs, mut h) = self.bool_and()?;
        while self.eat(Tok::Or) {
            let (rhs, hr) = self.bool_and()?;
            (lhs, h) = self.fits(BoolExpr::Or(Arc::new(lhs), Arc::new(rhs)), h.max(hr) + 1)?;
        }
        Ok((lhs, h))
    }

    fn bool_and(&mut self) -> Tree<BoolExpr> {
        let (mut lhs, mut h) = self.bool_not()?;
        while self.eat(Tok::And) {
            let (rhs, hr) = self.bool_not()?;
            (lhs, h) = self.fits(BoolExpr::And(Arc::new(lhs), Arc::new(rhs)), h.max(hr) + 1)?;
        }
        Ok((lhs, h))
    }

    fn bool_not(&mut self) -> Tree<BoolExpr> {
        if self.eat(Tok::Not) {
            let (b, h) = self.nested(Self::bool_not)?;
            return self.fits(BoolExpr::Not(Arc::new(b)), h + 1);
        }
        self.bool_primary()
    }

    /// A comparison `a cmp b`, or a parenthesized condition. The
    /// comparison reading comes first, so `(a + b) < c` is one; a `(` it
    /// fails on opens a condition, and that reading's result (or error)
    /// stands. The first reading's failure is only a signal, so it runs
    /// quiet: its errors carry no message.
    fn bool_primary(&mut self) -> Tree<BoolExpr> {
        if self.peek() != Tok::LParen {
            return self.try_cmp();
        }
        let save = (self.lexer, self.tok);
        self.quiet = true;
        let cmp = self.try_cmp();
        self.quiet = false;
        if cmp.is_ok() {
            return cmp;
        }
        (self.lexer, self.tok) = save;
        self.bump();
        let inner = self.nested(Self::bool_or)?;
        self.expect(Tok::RParen)?;
        Ok(inner)
    }

    fn try_cmp(&mut self) -> Tree<BoolExpr> {
        let (lhs, hl) = self.expr_h()?;
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
        let (rhs, hr) = self.expr_h()?;
        self.fits(BoolExpr::Cmp { op, lhs, rhs }, hl.max(hr) + 1)
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

        let body = self.stmts_until(&[kw("end")])?;
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
            let key = self.tok.kw;
            let word = self.ident()?;
            intent = Some(if key == kw("in") {
                Intent::In
            } else if key == kw("out") {
                Intent::Out
            } else if key == kw("inout") {
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
    fn stmts_until(&mut self, stoppers: &[Kw]) -> Parsed<Vec<Stmt>> {
        let mut out = Vec::new();
        while !stoppers.contains(&self.tok.kw) && self.peek() != Tok::Eof {
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
        let then_body = self.nested(|p| p.stmts_until(&[kw("else"), kw("end")]))?;
        let else_body = if self.eat_kw("else") {
            self.end_stmt()?;
            self.nested(|p| p.stmts_until(&[kw("end")]))?
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
        let body = self.nested(|p| p.stmts_until(&[kw("end")]))?;
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
        let mut p = Parser::new("", SourceFlavor::Fortran);
        let info = p
            .parallel_clauses(" shared(u) reduction(+: s, t) private(w)")
            .unwrap();
        assert_eq!(info.shared, vec!["u"]);
        assert_eq!(info.private, vec!["w"]);
        assert_eq!(info.reductions.len(), 2);
        assert_eq!(info.reductions[0], (RedOp::Add, Name::from("s")));
    }

    /// Saxpy over arrays `X`, `Y` whose parallel loop shares them as
    /// `clauses`, in either flavour.
    fn upper_saxpy(c: bool, clauses: &str) -> String {
        if c {
            format!(
                "void t(int n, const double X[n], double Y[n]) {{\n  int i;\n  \
                 #pragma omp parallel for {clauses}\n  \
                 for (i = 1; i <= n; i++) {{\n    Y[i] += X[i];\n  }}\n}}\n"
            )
        } else {
            format!(
                "subroutine t(n, X, Y)\n  integer, intent(in) :: n\n  \
                 real, intent(in) :: X(n)\n  real, intent(inout) :: Y(n)\n  \
                 integer :: i\n  !$omp parallel do {clauses}\n  do i = 1, n\n    \
                 Y(i) = Y(i) + X(i)\n  end do\nend subroutine\n"
            )
        }
    }

    #[test]
    fn pragma_clause_names_keep_their_case() {
        for c in [false, true] {
            let p = crate::parse_any(&upper_saxpy(c, "shared(X, Y)")).unwrap();
            let info = p.parallel_loops()[0].parallel.clone().unwrap();
            assert_eq!(info.shared, vec!["X", "Y"], "C: {c}");
            assert!(crate::validate(&p).is_empty(), "C: {c}");
        }
        // Directive and clause words ignore case in Fortran only.
        let f = crate::parse_any(
            &upper_saxpy(false, "SHARED(X, Y)").replace("parallel do", "PARALLEL DO"),
        );
        assert_eq!(
            f.unwrap().parallel_loops()[0]
                .parallel
                .as_ref()
                .unwrap()
                .shared,
            vec!["X", "Y"]
        );
        let c = crate::parse_any(&upper_saxpy(true, "SHARED(X, Y)")).unwrap_err();
        assert_eq!(c.message, "unknown pragma clause `SHARED`");
        let c = crate::parse_any(
            &upper_saxpy(true, "shared(X)").replace("parallel for", "PARALLEL for"),
        );
        assert!(c
            .unwrap_err()
            .message
            .starts_with("unsupported pragma `#pragma omp PARALLEL for"));
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

    /// `y(i) = rhs` in a parallel loop body (one block level down), in
    /// either flavour.
    fn in_loop(c: bool, rhs: &str) -> String {
        if c {
            format!(
                "void t(int n, const double x[n], double y[n]) {{\n\
                 #pragma omp parallel for shared(x, y)\n\
                 for (int i = 1; i <= n; i++) {{\n    y[i] = {rhs};\n  }}\n}}\n"
            )
        } else {
            format!(
                "subroutine t(n, x, y)\n  integer, intent(in) :: n\n  \
                 real, intent(in) :: x(n)\n  real, intent(inout) :: y(n)\n  \
                 integer :: i\n  !$omp parallel do shared(x, y)\n  do i = 1, n\n    \
                 y(i) = {rhs}\n  end do\nend subroutine\n"
            )
        }
    }

    fn deep(c: bool, shape: &str, k: usize) -> String {
        let x = if c { "x[i]" } else { "x(i)" };
        in_loop(
            c,
            &match shape {
                "sum" => vec![x; k].join(" + "),
                "parens" => format!("{}{x}{}", "(".repeat(k), ")".repeat(k)),
                _ => format!("{}{x}{}", "tanh(".repeat(k), ")".repeat(k)),
            },
        )
    }

    #[test]
    fn nesting_limit_is_exact() {
        let m = MAX_NESTING as usize;
        // In the loop body (level 1), `x(i)` is 2 tall: a sum of `k` of
        // them is `k + 1`, a `tanh` chain `k + 2`; parentheses count while
        // read, and `i` is read inside both them and the subscript.
        for c in [false, true] {
            for (shape, limit) in [("sum", m - 2), ("parens", m - 3), ("tanh", m - 3)] {
                let at = crate::parse_any(&deep(c, shape, limit));
                assert!(at.is_ok(), "{shape} at the limit (C: {c}): {at:?}");
                let past = crate::parse_any(&deep(c, shape, limit + 1)).unwrap_err();
                assert!(past.message.contains("nesting deeper"), "{shape}: {past}");
                assert_eq!(past.line, if c { 4 } else { 8 }, "{shape}: {past}");
            }
        }
    }

    #[test]
    fn nested_blocks_count_toward_the_limit() {
        let m = MAX_NESTING as usize;
        let nest = |levels: usize| {
            let mut body = "y(1) = x(1)\n".to_string();
            for _ in 0..levels {
                body = format!("do i = 1, n\n{body}end do\n");
            }
            format!(
                "subroutine t(n, x, y)\ninteger, intent(in) :: n\nreal, intent(in) :: x(n)\n\
                 real, intent(inout) :: y(n)\ninteger :: i\n{body}end subroutine\n"
            )
        };
        // `x(1)` is 2 tall: it fits `m - 2` loops deep, not one more.
        assert!(parse_program(&nest(m - 2)).is_ok());
        let err = parse_program(&nest(m - 1)).unwrap_err();
        assert!(err.message.contains("nesting deeper"), "{err}");
    }

    #[test]
    fn far_past_the_limit_is_an_error_not_an_abort() {
        // 40 KB of parentheses, and a 50 000-term flat sum: `+` is not
        // re-associated, so the sum is as deep as it is long.
        for c in [false, true] {
            for (shape, k) in [("parens", 20_000), ("sum", 50_000)] {
                let err = crate::parse_any(&deep(c, shape, k)).unwrap_err();
                assert!(err.message.contains("nesting deeper"), "{err}");
            }
        }
    }
}
