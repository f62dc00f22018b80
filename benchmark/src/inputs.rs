//! Seeded inputs. The program under test receives only what is made
//! here: source text plus the differentiation variable lists.

use formad_bench::prover_bench::suite;
use formad_fuzz::harness::campaign_case;
use formad_fuzz::{FuzzCase, GenConfig};
use formad_ir::{program_to_clike, program_to_string};
use formad_kernels::{LbmExecCase, StencilCase};

/// One program to differentiate.
#[derive(Debug, Clone)]
pub struct Input {
    /// Row label (`[A-Za-z0-9_-]+`, it becomes part of metric names).
    pub name: String,
    pub source: String,
    pub wrt: Vec<String>,
    pub of: Vec<String>,
}

/// splitmix64: the benchmark's own generator, so inputs never change
/// with a library.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

fn own(xs: &[&str]) -> Vec<String> {
    xs.iter().map(|s| s.to_string()).collect()
}

/// Names of the prover-heavy programs, in metric-row order.
pub const HEAVY_NAMES: [&str; 9] = [
    "stencil1",
    "stencil8",
    "gfmc",
    "gfmc_star",
    "lbm",
    "green_gauss",
    "lbm_exec",
    "stencil16",
    "stencil24",
];

/// The prover-heavy set: the six Table-1 kernels, the literal-offset LBM
/// streaming step (881 queries) and two wide stencils (the `1 + e²` law:
/// 273 and 601 queries). The programs are the paper's and are fixed;
/// the seed decides the order they are analysed in.
pub fn heavy(seed: u64) -> Vec<Input> {
    let mut out: Vec<Input> = suite()
        .into_iter()
        .zip(HEAVY_NAMES)
        .map(|(k, name)| Input {
            name: name.to_string(),
            source: program_to_string(&k.program),
            wrt: k.independents,
            of: k.dependents,
        })
        .collect();
    out.push(Input {
        name: HEAVY_NAMES[6].to_string(),
        source: LbmExecCase::full().source(),
        wrt: own(LbmExecCase::independents()),
        of: own(LbmExecCase::dependents()),
    });
    for (name, radius) in [(HEAVY_NAMES[7], 16), (HEAVY_NAMES[8], 24)] {
        let case = StencilCase {
            n: 256,
            sweeps: 1,
            radius,
        };
        out.push(Input {
            name: name.to_string(),
            source: case.source(),
            wrt: own(StencilCase::independents()),
            of: own(StencilCase::dependents()),
        });
    }
    Rng::new(seed).shuffle(&mut out);
    out
}

/// `count` programs of the fuzz grammar's campaign `seed`, ids from
/// `first_id`. Odd ids are rendered in the C dialect so both frontends
/// parse. The generating case rides along for the concrete footprint
/// oracle (bindings), never for the program under test.
pub fn corpus(seed: u64, first_id: u64, count: usize) -> Vec<(Input, FuzzCase)> {
    let gen = GenConfig::default();
    (first_id..first_id + count as u64)
        .map(|id| {
            let case = campaign_case(seed, id, &gen);
            let source = if id % 2 == 1 {
                program_to_clike(&case.program)
            } else {
                case.source()
            };
            let input = Input {
                name: format!("corpus-{id:05}"),
                source,
                wrt: case.wrt.clone(),
                of: case.of.clone(),
            };
            (input, case)
        })
        .collect()
}

/// FNV-1a over everything the program under test receives, in order.
/// Two runs are comparable only if this agrees.
pub fn inputs_hash<'a>(inputs: impl IntoIterator<Item = &'a Input>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |s: &str| {
        for b in s.bytes().chain([0xff]) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for i in inputs {
        eat(&i.source);
        i.wrt.iter().for_each(|s| eat(s));
        i.of.iter().for_each(|s| eat(s));
    }
    h
}

/// The low 48 bits of [`inputs_hash`]: exact as the `f64` a metric is.
pub fn inputs_hash48<'a>(inputs: impl IntoIterator<Item = &'a Input>) -> f64 {
    (inputs_hash(inputs) & ((1 << 48) - 1)) as f64
}
