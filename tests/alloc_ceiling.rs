//! Allocation ceiling of the analysis hot path.
//!
//! The pipeline's cost outside the prover's search is dominated by the
//! allocator, so the number of heap allocations one pass makes is a
//! clock-free stand-in for its front-end time: it repeats exactly from
//! run to run and from host to host. This test runs the nine
//! `prove_heavy` programs of the benchmark and 200 fuzz-grammar corpus
//! programs through parse → `Formad::differentiate` → print and holds
//! each pass under a ceiling 5 % above what it measured when the ceiling
//! was set, printing the count per stage. A change that re-introduces a
//! second validate/activity pass, a dry-run adjoint generation, cloning
//! predicates or an IR that deep-copies its children trips it.
//!
//! The only test in this binary: the counter is per thread, but a quiet
//! process keeps the numbers easy to reason about.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use formad::{Formad, FormadOptions};
use formad_bench::prover_bench;
use formad_fuzz::harness::campaign_case;
use formad_fuzz::GenConfig;
use formad_ir::{parse_any, program_to_clike, program_to_string};
use formad_kernels::{LbmExecCase, StencilCase};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a plain thread-local integer with no destructor, so touching
// it from inside the allocator cannot allocate or re-enter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `f` returns, and the allocations (and reallocations) this thread
/// made while running it.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = f();
    (value, ALLOCATIONS.with(Cell::get) - before)
}

struct Input {
    source: String,
    wrt: Vec<String>,
    of: Vec<String>,
}

fn own(xs: &[&str]) -> Vec<String> {
    xs.iter().map(|s| s.to_string()).collect()
}

/// The benchmark's `prove_heavy` set (`benchmark/src/inputs.rs::heavy`),
/// unshuffled.
fn heavy() -> Vec<Input> {
    let mut out: Vec<Input> = prover_bench::suite()
        .into_iter()
        .map(|k| Input {
            source: program_to_string(&k.program),
            wrt: k.independents,
            of: k.dependents,
        })
        .collect();
    out.push(Input {
        source: LbmExecCase::full().source(),
        wrt: own(LbmExecCase::independents()),
        of: own(LbmExecCase::dependents()),
    });
    for radius in [16, 24] {
        let case = StencilCase {
            n: 256,
            sweeps: 1,
            radius,
        };
        out.push(Input {
            source: case.source(),
            wrt: own(StencilCase::independents()),
            of: own(StencilCase::dependents()),
        });
    }
    assert_eq!(out.len(), 9);
    out
}

/// `campaign_case(3, 0..200)`, odd ids in the C dialect — the first 200
/// programs of the benchmark's `frontend_corpus` at seed 3.
fn corpus() -> Vec<Input> {
    let gen = GenConfig::default();
    (0..200u64)
        .map(|id| {
            let case = campaign_case(3, id, &gen);
            let source = if id % 2 == 1 {
                program_to_clike(&case.program)
            } else {
                case.source()
            };
            Input {
                source,
                wrt: case.wrt.clone(),
                of: case.of.clone(),
            }
        })
        .collect()
}

/// Allocations of one pass, by stage.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Stages {
    parse: u64,
    differentiate: u64,
    print: u64,
}

impl Stages {
    fn total(self) -> u64 {
        self.parse + self.differentiate + self.print
    }
}

/// One pass: every input through parse → differentiate → print. Returns
/// the printed bytes so the work cannot be optimized away, and what each
/// stage allocated.
fn pass(inputs: &[Input]) -> (usize, Stages) {
    let mut bytes = 0;
    let mut stages = Stages::default();
    for input in inputs {
        let (primal, n) = counted(|| parse_any(&input.source).expect("input parses"));
        stages.parse += n;
        let (result, n) = counted(|| {
            let wrt: Vec<&str> = input.wrt.iter().map(String::as_str).collect();
            let of: Vec<&str> = input.of.iter().map(String::as_str).collect();
            let opts = FormadOptions::new(&wrt, &of);
            let diff = Formad::new(opts).differentiate(&primal);
            diff.expect("input differentiates")
        });
        stages.differentiate += n;
        let (printed, n) = counted(|| program_to_string(&result.adjoint).len());
        stages.print += n;
        bytes += printed;
    }
    (bytes, stages)
}

/// Allocations of one pass over `inputs`, after a warm-up pass; checked
/// to repeat exactly.
fn measured(inputs: &[Input]) -> Stages {
    let (warm, _) = pass(inputs);
    let (printed, first) = pass(inputs);
    assert_eq!(printed, warm, "passes print different adjoints");
    let (_, second) = pass(inputs);
    assert_eq!(first, second, "allocation count does not repeat");
    first
}

/// Measured when the ceilings were set (`--release`). The commit before
/// made 31 828 and 175 771 on the same inputs: the data-flow plan of the
/// AD transform allocated a bit-set per node and set, the transposition
/// planner built obligation pairs and gather loops nobody read, and every
/// rewrite of an expression copied the subtrees it kept.
const HEAVY_MEASURED: u64 = 28_494;
const CORPUS_MEASURED: u64 = 162_209;

#[test]
fn allocations_per_pass_stay_under_the_ceiling() {
    for (name, inputs, measured_then) in [
        ("prove_heavy", heavy(), HEAVY_MEASURED),
        ("corpus", corpus(), CORPUS_MEASURED),
    ] {
        let stages = measured(&inputs);
        let now = stages.total();
        let ceiling = measured_then + measured_then / 20;
        println!(
            "{name}: {now} allocations per pass over {} programs (ceiling {ceiling}): \
             parse {} / differentiate {} / print {}",
            inputs.len(),
            stages.parse,
            stages.differentiate,
            stages.print
        );
        assert!(
            now <= ceiling,
            "{name}: {now} allocations per pass exceed the ceiling {ceiling} \
             (measured {measured_then} + 5 %)"
        );
    }
}
