//! The data-flow facts both sweeps of an adjoint are generated from.
//!
//! [`Plan::build`] mirrors the primal's statement tree, one [`Node`] per
//! statement with its read/write sets as bit sets over the declared
//! names, and runs three analyses over that tree, once per program:
//!
//! 1. **Recompute set.** A scalar assigned at exactly one site, directly
//!    in a loop body, before every read of it, from operands that hold
//!    the same value whenever that body runs (enclosing loop counters,
//!    names the program never writes, earlier members of the set) is
//!    re-assigned at the head of the reversed body. It needs no tape, and
//!    an `if` whose condition reads only such operands is reversed by
//!    evaluating the condition again.
//! 2. **To-be-recorded (TBR), per site.** A forward pass carries the set
//!    of names whose *current* value the backward sweep reads — in an
//!    adjoint statement, a reversed loop bound, a popped location's
//!    index. An assignment pushes the value it overwrites only if its
//!    target is in that set when it executes. A scalar assigned inside a
//!    parallel loop is undefined when an iteration starts, so it enters
//!    the body outside the set; where one leaves the body inside it, the
//!    iteration boundary is the overwrite, and the value is pushed there.
//! 3. **Adjoint liveness.** A backward pass over the forward sweep,
//!    seeded with what the backward sweep reads of the final primal
//!    state (the TBR set where the program ends) and extended by every
//!    kept push, condition and loop bound. An assignment survives only
//!    if its target is live after it; loops and branches left empty go
//!    with it. The dependents' primal values are not a seed.
//!
//! Loops are fix-points in (2) and (3); arrays are tracked by name.

use std::cell::RefCell;

use formad_ir::{BoolExpr, Decl, Expr, ForLoop, FxHashMap, LValue, Name, Program, Stmt};

/// Adjoint statements of one assignment: `(increments, vb-finalization)`.
pub(crate) type AssignAdjoint = (Vec<Stmt>, Option<Stmt>);

/// A set of declared names, by declaration index. Up to 128 names the
/// words sit inline, so a node's sets and the analyses' working sets
/// cost no allocation; past that they spill to the heap. Every set of one
/// plan has the same number of words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Bits {
    Inline([u64; 2]),
    Heap(Box<[u64]>),
}

impl Bits {
    fn new(names: usize) -> Bits {
        Bits::filled(names, 0)
    }

    /// Every word `w`: the empty set for 0, a superset of every name for
    /// `!0`.
    fn filled(names: usize, w: u64) -> Bits {
        if names <= 128 {
            Bits::Inline([w; 2])
        } else {
            Bits::Heap(vec![w; names.div_ceil(64)].into())
        }
    }

    fn words(&self) -> &[u64] {
        match self {
            Bits::Inline(w) => w,
            Bits::Heap(w) => w,
        }
    }

    fn words_mut(&mut self) -> &mut [u64] {
        match self {
            Bits::Inline(w) => w,
            Bits::Heap(w) => w,
        }
    }

    pub(crate) fn contains(&self, i: u32) -> bool {
        self.words()[i as usize / 64] >> (i % 64) & 1 == 1
    }

    fn insert(&mut self, i: u32) {
        self.words_mut()[i as usize / 64] |= 1 << (i % 64);
    }

    fn remove(&mut self, i: u32) {
        self.words_mut()[i as usize / 64] &= !(1 << (i % 64));
    }

    /// `self ∪= other`; true if `self` grew.
    fn union_with(&mut self, other: &Bits) -> bool {
        let mut grew = false;
        for (a, b) in self.words_mut().iter_mut().zip(other.words()) {
            grew |= *b & !*a != 0;
            *a |= *b;
        }
        grew
    }

    fn subtract(&mut self, other: &Bits) {
        for (a, b) in self.words_mut().iter_mut().zip(other.words()) {
            *a &= !*b;
        }
    }

    fn intersect(&mut self, other: &Bits) {
        for (a, b) in self.words_mut().iter_mut().zip(other.words()) {
            *a &= *b;
        }
    }

    fn is_subset(&self, other: &Bits) -> bool {
        self.words()
            .iter()
            .zip(other.words())
            .all(|(a, b)| a & !b == 0)
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.words().iter().all(|w| *w == 0)
    }

    /// Members in declaration order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words().iter().enumerate().flat_map(|(w, &bits)| {
            let next = |b: &u64| Some(b & (b - 1)).filter(|b| *b != 0);
            std::iter::successors(Some(bits).filter(|b| *b != 0), next)
                .map(move |b| w as u32 * 64 + b.trailing_zeros())
        })
    }
}

/// The program's declarations, numbered.
pub(crate) struct Names<'a> {
    /// The declaration index of each identifier met.
    by_alloc: RefCell<ByAlloc<Option<u32>>>,
    decls: Vec<&'a Decl>,
}

/// Per-identifier answers memoized by the identifier's allocation: the
/// parser interns identifiers and the transform clones them, so a name is
/// nearly always met in an allocation seen before, and its text is hashed
/// once per allocation rather than once per occurrence. An entry holds
/// its name, so the address stays its own while the memo lives.
#[derive(Default)]
pub(crate) struct ByAlloc<T>(FxHashMap<usize, (Name, T)>);

impl<T: Copy> ByAlloc<T> {
    /// The answer for `n`, from `by_text` on its allocation's first sight.
    pub(crate) fn get(&mut self, n: &Name, by_text: impl FnOnce() -> T) -> T {
        let key = n.as_ptr() as usize;
        if let Some((_, t)) = self.0.get(&key) {
            return *t;
        }
        let t = by_text();
        self.0.insert(key, (n.clone(), t));
        t
    }
}

impl<'a> Names<'a> {
    fn new(prog: &'a Program) -> Names<'a> {
        Names {
            by_alloc: RefCell::default(),
            decls: prog.decls().collect(),
        }
    }

    pub(crate) fn name(&self, i: u32) -> &'a Name {
        &self.decls[i as usize].name
    }

    /// The declared names `e` reads. Adjoint names are not declarations
    /// of the primal and drop out here.
    fn reads(&self, e: &Expr, into: &mut Bits) {
        e.walk(&mut |sub| self.read(sub, into));
    }

    /// The declared name the node `e` itself reads, not its children: for
    /// walks that already visit every sub-expression (`walk_exprs`).
    fn read(&self, e: &Expr, into: &mut Bits) {
        if let Expr::Var(n) | Expr::Index { array: n, .. } = e {
            if let Some(i) = self.find(n) {
                into.insert(i);
            }
        }
    }

    /// The declaration index of `n`.
    fn find(&self, n: &Name) -> Option<u32> {
        let by_text = || {
            self.decls
                .iter()
                .position(|d| d.name == *n)
                .map(|i| i as u32)
        };
        self.by_alloc.borrow_mut().get(n, by_text)
    }
}

pub(crate) enum Node<'a> {
    Assign(AssignNode<'a>),
    If(IfNode<'a>),
    For(ForNode<'a>),
}

/// `Stmt::Assign` or `Stmt::AtomicAdd`.
pub(crate) struct AssignNode<'a> {
    pub(crate) stmt: &'a Stmt,
    pub(crate) lhs: &'a LValue,
    target: u32,
    scalar: bool,
    /// Right-hand side and index expressions (and the target itself, for
    /// an update).
    reads: Bits,
    index_reads: Bits,
    /// Statements of the backward sweep, for an active target; taken by
    /// the emitter.
    pub(crate) adjoint: Option<AssignAdjoint>,
    adjoint_reads: Bits,
    /// (1) Member of the recompute set that the backward sweep reads: the
    /// statement is emitted again at the head of the reversed loop body.
    pub(crate) recompute: bool,
    /// (2) The overwritten value is pushed before, and popped in the
    /// backward sweep.
    pub(crate) push: bool,
    /// (3) The forward sweep keeps the statement.
    pub(crate) kept: bool,
}

pub(crate) struct IfNode<'a> {
    pub(crate) cond: &'a BoolExpr,
    cond_reads: Bits,
    pub(crate) then_body: Vec<Node<'a>>,
    pub(crate) else_body: Vec<Node<'a>>,
    /// (1) Reversed by evaluating `cond` again instead of a pushed flag.
    pub(crate) reeval: bool,
    /// The backward sweep has work in a branch.
    pub(crate) reversed: bool,
    pub(crate) kept: bool,
}

pub(crate) struct ForNode<'a> {
    pub(crate) l: &'a ForLoop,
    /// Pre-order index among the parallel loops.
    pub(crate) region: Option<usize>,
    counter: u32,
    bound_reads: Bits,
    /// Scalars assigned in the body of a parallel loop.
    privates: Bits,
    pub(crate) body: Vec<Node<'a>>,
    /// (2) Scalars pushed where an iteration of a parallel loop ends.
    pub(crate) exit_pushes: Bits,
    pub(crate) reversed: bool,
    pub(crate) kept: bool,
}

pub(crate) struct Plan<'a> {
    pub(crate) names: Names<'a>,
    pub(crate) body: Vec<Node<'a>>,
}

impl<'a> Plan<'a> {
    /// Mirror `prog` and decide the three facts. `adjoint_of` yields the
    /// backward-sweep statements of an assignment to an active target.
    pub(crate) fn build(
        prog: &'a Program,
        adjoint_of: impl Fn(&Stmt) -> Option<AssignAdjoint>,
    ) -> Plan<'a> {
        let names = Names::new(prog);
        let n = names.decls.len();
        let mut b = Builder {
            names: &names,
            adjoint_of: &adjoint_of,
            n,
            written: Bits::new(n),
            counters: Bits::new(n),
            scalars: vec![ScalarDef::default(); n],
            enclosing: Vec::new(),
            loops: 0,
            regions: 0,
            privates: None,
        };
        let mut body = b.block(&prog.body, None);

        // (1)
        let mut candidates = Bits::new(n);
        for (i, s) in b.scalars.iter().enumerate() {
            let single = s.assigns == 1 && s.site.is_some() && !s.read_elsewhere;
            if single && !b.counters.contains(i as u32) {
                candidates.insert(i as u32);
            }
        }
        let mut stable = Bits::filled(n, !0);
        stable.subtract(&b.written);
        stable.subtract(&b.counters);
        let mut recompute = Recompute {
            candidates,
            written: b.written,
            stable,
            members: Bits::new(n),
        };
        recompute.block(&mut body);
        let recomputed = recompute.members;

        // (2)
        let mut tbr = Tbr {
            recomputed: &recomputed,
            used: Bits::new(n),
        };
        let mut recorded = Bits::new(n);
        tbr.block(&mut body, &mut recorded);
        let mut used = tbr.used;
        close_recompute(&mut body, &mut used);

        // (3)
        recorded.subtract(&recomputed);
        live_block(&mut body, &mut recorded);

        Plan { names, body }
    }
}

/// What the tree walk learns about a scalar's definitions.
#[derive(Clone, Default)]
struct ScalarDef {
    assigns: u32,
    /// The first assignment is a statement of loop `.0`'s body, at
    /// position `.1`.
    site: Option<(u32, u32)>,
    /// Some read is not in a later statement of that body.
    read_elsewhere: bool,
}

struct Builder<'a, 'b> {
    names: &'b Names<'a>,
    adjoint_of: &'b dyn Fn(&Stmt) -> Option<AssignAdjoint>,
    n: usize,
    /// Targets of assignments, arrays and scalars.
    written: Bits,
    counters: Bits,
    scalars: Vec<ScalarDef>,
    /// Enclosing loops, outermost first: serial number and the position
    /// of the statement of its body being walked.
    enclosing: Vec<(u32, u32)>,
    loops: u32,
    regions: usize,
    /// Scalars assigned so far in the parallel loop being walked.
    privates: Option<Bits>,
}

impl<'a> Builder<'a, '_> {
    /// A read of every scalar in `reads`, at the current position.
    fn note_reads(&mut self, reads: &Bits) {
        for i in reads.iter() {
            let s = &mut self.scalars[i as usize];
            let after_def = s.site.is_some_and(|(l, pos)| {
                self.enclosing
                    .iter()
                    .any(|&(el, epos)| el == l && epos > pos)
            });
            s.read_elsewhere |= !after_def;
        }
    }

    /// `direct`: the statements are a loop's body (its serial number).
    fn block(&mut self, stmts: &'a [Stmt], direct: Option<u32>) -> Vec<Node<'a>> {
        let mut out = Vec::with_capacity(stmts.len());
        for (pos, s) in stmts.iter().enumerate() {
            if direct.is_some() {
                if let Some(top) = self.enclosing.last_mut() {
                    top.1 = pos as u32;
                }
            }
            out.push(match s {
                Stmt::Assign { lhs, rhs } | Stmt::AtomicAdd { lhs, rhs } => {
                    self.assign(s, lhs, rhs, direct.map(|l| (l, pos as u32)))
                }
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    let mut cond_reads = Bits::new(self.n);
                    cond.walk_exprs(&mut |e| self.names.read(e, &mut cond_reads));
                    self.note_reads(&cond_reads);
                    Node::If(IfNode {
                        cond,
                        cond_reads,
                        then_body: self.block(then_body, None),
                        else_body: self.block(else_body, None),
                        reeval: false,
                        reversed: false,
                        kept: false,
                    })
                }
                Stmt::For(l) => self.for_loop(l),
                Stmt::Push(_) | Stmt::Pop(_) => unreachable!("rejected in differentiate"),
            });
        }
        out
    }

    fn assign(
        &mut self,
        stmt: &'a Stmt,
        lhs: &'a LValue,
        rhs: &'a Expr,
        site: Option<(u32, u32)>,
    ) -> Node<'a> {
        let target = self.names.find(lhs.name()).expect("a declared target");
        let scalar = matches!(lhs, LValue::Var(_));
        let mut index_reads = Bits::new(self.n);
        for ix in lhs.indices() {
            self.names.reads(ix, &mut index_reads);
        }
        let mut reads = index_reads.clone();
        self.names.reads(rhs, &mut reads);
        if matches!(stmt, Stmt::AtomicAdd { .. }) {
            reads.insert(target);
        }
        self.note_reads(&reads);
        self.written.insert(target);
        if scalar {
            let s = &mut self.scalars[target as usize];
            if s.assigns == 0 {
                s.site = site;
            }
            s.assigns += 1;
            if let Some(p) = &mut self.privates {
                p.insert(target);
            }
        }
        let adjoint = (self.adjoint_of)(stmt);
        let mut adjoint_reads = Bits::new(self.n);
        if let Some((incs, fin)) = &adjoint {
            for st in incs.iter().chain(fin) {
                st.walk_exprs(&mut |e| self.names.read(e, &mut adjoint_reads));
            }
        }
        Node::Assign(AssignNode {
            stmt,
            lhs,
            target,
            scalar,
            reads,
            index_reads,
            adjoint,
            adjoint_reads,
            recompute: false,
            push: false,
            kept: false,
        })
    }

    fn for_loop(&mut self, l: &'a ForLoop) -> Node<'a> {
        let counter = self.names.find(&l.var).expect("a declared counter");
        self.counters.insert(counter);
        let mut bound_reads = Bits::new(self.n);
        for e in [&l.lo, &l.hi, &l.step] {
            self.names.reads(e, &mut bound_reads);
        }
        self.note_reads(&bound_reads);
        let region = l.parallel.is_some().then(|| {
            self.regions += 1;
            self.regions - 1
        });
        // Parallel loops do not nest (`validate`).
        if region.is_some() {
            self.privates = Some(Bits::new(self.n));
        }
        let serial = self.loops;
        self.loops += 1;
        self.enclosing.push((serial, 0));
        let body = self.block(&l.body, Some(serial));
        self.enclosing.pop();
        let privates = match region {
            Some(_) => self.privates.take().expect("set on entry"),
            None => Bits::new(self.n),
        };
        Node::For(ForNode {
            l,
            region,
            counter,
            bound_reads,
            privates,
            body,
            exit_pushes: Bits::new(self.n),
            reversed: false,
            kept: false,
        })
    }
}

/// (1), in source order.
struct Recompute {
    /// Scalars with one assignment, directly in a loop body, before all
    /// their reads.
    candidates: Bits,
    written: Bits,
    /// The names that have one value whenever the statement being visited
    /// runs: never written and no loop's counter, the counters of the
    /// enclosing loops, and the members decided so far — a member's
    /// single definition precedes all of its reads.
    stable: Bits,
    members: Bits,
}

impl Recompute {
    fn block(&mut self, nodes: &mut [Node]) {
        for node in nodes {
            match node {
                Node::Assign(a) => {
                    if self.candidates.contains(a.target) && a.reads.is_subset(&self.stable) {
                        a.recompute = true;
                        self.members.insert(a.target);
                        self.stable.insert(a.target);
                    }
                }
                Node::If(i) => {
                    i.reeval = i.cond_reads.is_subset(&self.stable);
                    self.block(&mut i.then_body);
                    self.block(&mut i.else_body);
                }
                Node::For(f) => {
                    let entered =
                        !self.written.contains(f.counter) && !self.stable.contains(f.counter);
                    if entered {
                        self.stable.insert(f.counter);
                    }
                    self.block(&mut f.body);
                    if entered {
                        self.stable.remove(f.counter);
                    }
                }
            }
        }
    }
}

/// (2). `used` collects every name the backward sweep reads, recomputed
/// ones included.
struct Tbr<'p> {
    recomputed: &'p Bits,
    used: Bits,
}

impl Tbr<'_> {
    fn need(&mut self, recorded: &mut Bits, reads: &Bits) {
        recorded.union_with(reads);
        self.used.union_with(reads);
    }

    /// Advance `recorded` over `nodes`; true if the backward sweep has
    /// work in them.
    fn block(&mut self, nodes: &mut [Node], recorded: &mut Bits) -> bool {
        let mut reversed = false;
        for node in nodes {
            match node {
                Node::Assign(a) => {
                    // The adjoint statements run in the state before the
                    // assignment.
                    self.need(recorded, &a.adjoint_reads);
                    if recorded.contains(a.target) && !self.recomputed.contains(a.target) {
                        a.push = true;
                        self.need(recorded, &a.index_reads);
                    }
                    if a.scalar {
                        recorded.remove(a.target);
                    }
                    reversed |= a.adjoint.is_some() || a.push;
                }
                Node::If(i) => {
                    let mut other = recorded.clone();
                    i.reversed |= self.block(&mut i.then_body, recorded);
                    i.reversed |= self.block(&mut i.else_body, &mut other);
                    recorded.union_with(&other);
                    if i.reversed && i.reeval {
                        self.need(recorded, &i.cond_reads);
                    }
                    reversed |= i.reversed;
                }
                Node::For(f) => {
                    // What an iteration starts with: what the loop starts
                    // with and what earlier iterations leave.
                    let mut entry = recorded.clone();
                    entry.subtract(&f.privates);
                    let mut state = entry.clone();
                    loop {
                        f.reversed |= self.block(&mut f.body, &mut state);
                        let mut exit = state.clone();
                        exit.intersect(&f.privates);
                        exit.subtract(self.recomputed);
                        f.exit_pushes.union_with(&exit);
                        state.subtract(&f.privates);
                        if !entry.union_with(&state) {
                            break;
                        }
                        state.clone_from(&entry);
                    }
                    recorded.union_with(&entry);
                    f.reversed |= !f.exit_pushes.is_empty();
                    if f.reversed {
                        // The reversed loop evaluates its bounds where
                        // the primal loop ends.
                        self.need(recorded, &f.bound_reads);
                    }
                    reversed |= f.reversed;
                }
            }
        }
        reversed
    }
}

/// Keep the members of the recompute set that the backward sweep reads,
/// directly or through a later member's right-hand side.
fn close_recompute(nodes: &mut [Node], used: &mut Bits) {
    for node in nodes.iter_mut().rev() {
        match node {
            Node::Assign(a) => {
                a.recompute &= used.contains(a.target);
                if a.recompute {
                    used.union_with(&a.reads);
                }
            }
            Node::If(i) => {
                close_recompute(&mut i.else_body, used);
                close_recompute(&mut i.then_body, used);
            }
            Node::For(f) => close_recompute(&mut f.body, used),
        }
    }
}

/// (3), backwards. `live` enters as what is read after `nodes` and leaves
/// as what is read from them on; true if any statement is kept.
fn live_block(nodes: &mut [Node], live: &mut Bits) -> bool {
    let mut any = false;
    for node in nodes.iter_mut().rev() {
        match node {
            Node::Assign(a) => {
                a.kept |= a.push || live.contains(a.target);
                if a.kept {
                    if a.scalar {
                        live.remove(a.target);
                    }
                    live.union_with(&a.reads);
                    if a.push {
                        live.insert(a.target);
                    }
                }
                any |= a.kept;
            }
            Node::If(i) => {
                let mut other = live.clone();
                let then_kept = live_block(&mut i.then_body, live);
                let else_kept = live_block(&mut i.else_body, &mut other);
                live.union_with(&other);
                // A branch flag is pushed in both branches.
                i.kept |= then_kept || else_kept || (i.reversed && !i.reeval);
                if i.kept {
                    live.union_with(&i.cond_reads);
                }
                any |= i.kept;
            }
            Node::For(f) => {
                // Read after an iteration: what follows the loop, and
                // what the next iteration reads.
                let mut state = live.clone();
                loop {
                    state.union_with(&f.exit_pushes);
                    f.kept |= live_block(&mut f.body, &mut state) || !f.exit_pushes.is_empty();
                    state.remove(f.counter);
                    if !live.union_with(&state) {
                        break;
                    }
                    state.clone_from(live);
                }
                if f.kept {
                    live.union_with(&f.bound_reads);
                }
                any |= f.kept;
            }
        }
    }
    any
}
