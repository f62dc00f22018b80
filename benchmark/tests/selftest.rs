//! Self-tests of the benchmark: what it declares is what it prints, its
//! inputs and counts repeat, and its ledger adds up.

use std::collections::BTreeSet;
use std::time::Instant;

use formad_benchmark::analysis::{expected_table1, footprint_oracle, table1_oracle};
use formad_benchmark::inputs::{corpus, heavy, inputs_hash, Input};
use formad_benchmark::metrics::{per_layer, END_TO_END};
use formad_benchmark::pipeline::{differentiate, verdicts};
use formad_benchmark::span::Tracer;
use formad_benchmark::WORKLOADS;
use formad_serve::json::Json;

fn declared() -> Json {
    Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

fn names_of(j: &Json, key: &str) -> Vec<(String, String)> {
    j.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// A name: starts with a letter or digit, then letters, digits, `_.-`,
/// at most 64 characters.
fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn printed_names_equal_declared_names() {
    let j = declared();
    let own = |xs: &[(&str, &str)]| -> Vec<(String, String)> {
        xs.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names_of(&j, "end_to_end"), own(&END_TO_END));
    let layers: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(names_of(&j, "per_layer"), layers);
    let workloads: Vec<String> = names_of(&j, "workloads").into_iter().map(|w| w.0).collect();
    assert_eq!(workloads, WORKLOADS);

    let mut seen = BTreeSet::new();
    for (name, unit) in names_of(&j, "end_to_end")
        .into_iter()
        .chain(names_of(&j, "per_layer"))
    {
        assert!(well_formed(&name), "bad metric name `{name}`");
        assert!(!unit.is_empty() && unit.len() <= 16, "bad unit `{unit}`");
        assert!(seen.insert(name.clone()), "`{name}` declared twice");
    }
    assert!(WORKLOADS.iter().all(|w| well_formed(w)));
    assert!(per_layer().len() <= 128);
    assert!(names_of(&j, "end_to_end")
        .iter()
        .any(|(n, _)| n == "setup_s"));
}

#[test]
fn a_seed_fixes_the_inputs() {
    let hash = |xs: &[Input]| inputs_hash(xs);
    assert_eq!(hash(&heavy(7)), hash(&heavy(7)));
    assert_ne!(hash(&heavy(7)), hash(&heavy(8)));
    let programs = |seed| -> Vec<Input> { corpus(seed, 0, 40).into_iter().map(|c| c.0).collect() };
    assert_eq!(hash(&programs(7)), hash(&programs(7)));
    assert_ne!(hash(&programs(7)), hash(&programs(8)));
    // Both dialects are in the corpus.
    let p = programs(7);
    assert!(p.iter().any(|i| i.source.contains("subroutine")));
    assert!(p.iter().any(|i| i.source.contains("void")));
}

/// The small heavy programs plus a slice of the corpus: enough to cover
/// both oracles without the multi-second provers of the full set.
fn quick_inputs() -> Vec<Input> {
    let mut inputs: Vec<Input> = heavy(3)
        .into_iter()
        .filter(|i| ["stencil1", "gfmc", "gfmc_star", "green_gauss"].contains(&i.name.as_str()))
        .collect();
    inputs.extend(corpus(3, 0, 40).into_iter().map(|c| c.0));
    inputs
}

#[test]
fn counts_and_verdicts_repeat_across_passes() {
    let run = || -> Vec<_> {
        quick_inputs()
            .iter()
            .map(|i| {
                let p = differentiate(i, None, None).expect("pipeline");
                let s = p.analysis.stats;
                (
                    verdicts(&p.analysis),
                    [
                        s.checks,
                        s.lia_calls,
                        s.presolve_discharges,
                        s.cache_inserts,
                    ],
                    p.adjoint_source,
                )
            })
            .collect()
    };
    assert_eq!(run(), run());
}

#[test]
fn both_oracles_accept_head() {
    let expected = expected_table1();
    for i in heavy(3)
        .iter()
        .filter(|i| ["stencil1", "gfmc", "gfmc_star", "green_gauss"].contains(&i.name.as_str()))
    {
        let p = differentiate(i, None, None).expect("pipeline");
        table1_oracle(&expected, &i.name, &p.analysis).expect("table 1 verdicts");
    }
    // A wrong expectation is caught.
    let star = heavy(3)
        .into_iter()
        .find(|i| i.name == "gfmc_star")
        .unwrap();
    let p = differentiate(&star, None, None).unwrap();
    assert!(table1_oracle(&expected, "gfmc", &p.analysis).is_err());
    for (input, case) in corpus(3, 0, 40) {
        let p = differentiate(&input, None, None).expect("pipeline");
        footprint_oracle(&input, &case, &p).expect("footprints");
    }
}

#[test]
fn ledger_rows_plus_unattributed_equal_the_pass() {
    let mut t = Tracer::new(Instant::now());
    let inputs = quick_inputs();
    for pass in 0..2 {
        t.set_id(pass);
        let root = t.enter("pass");
        for i in &inputs {
            differentiate(i, None, Some(&mut t)).expect("pipeline");
        }
        t.exit(root);
    }
    let l = t.ledger("pass");
    assert_eq!(l.roots, 2);
    let rows: f64 = l.rows.values().sum();
    assert!(
        (rows + l.unattributed_us - l.total_us).abs() <= 1e-6 * l.total_us,
        "rows {rows} + unattributed {} != total {}",
        l.unattributed_us,
        l.total_us
    );
    for layer in [
        "ir.parse",
        "ir.validate",
        "ir.print",
        "analysis.activity",
        "ad.transform",
        "core.differentiate",
        "core.region_prove",
        "smt.query",
    ] {
        assert!(l.rows.contains_key(layer), "no `{layer}` row in the ledger");
    }
    // The pipeline's own phases never claim more than the call took.
    assert!(l.rows["core.differentiate"] >= 0.0);
    let json = t.to_json("selftest", 3);
    assert!(Json::parse(&json).is_ok(), "trace file is not JSON");
}
