//! EXPERIMENTS.md's measured Table 1 states what `repro table1` prints:
//! the count columns (size, queries, exprs, loc) between the
//! `table1:begin` / `table1:end` markers must equal
//! [`formad_bench::table1`]'s, row by row. Times are not checked.

/// `(problem, [size, queries, exprs, loc])` per row of the doc table.
fn doc_rows() -> Vec<(String, Vec<String>)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
    let text = std::fs::read_to_string(path).expect("EXPERIMENTS.md");
    let (_, rest) = text
        .split_once("<!-- table1:begin -->")
        .expect("begin marker");
    let (table, _) = rest.split_once("<!-- table1:end -->").expect("end marker");
    table
        .lines()
        .filter(|l| l.starts_with('|') && !l.starts_with("|--") && !l.contains("problem"))
        .map(|l| {
            let cells: Vec<String> = l.split('|').map(|c| c.trim().to_string()).collect();
            // `| problem | time | size | queries | exprs | loc |`
            (cells[1].clone(), cells[3..7].to_vec())
        })
        .collect()
}

#[test]
fn measured_table1_counts_match_repro() {
    let want: Vec<(String, Vec<String>)> = formad_bench::table1()
        .iter()
        .map(|r| {
            // The rendered row ends in its four counts.
            let words: Vec<&str> = r.rendered.split_whitespace().collect();
            let counts = words[words.len() - 4..].iter().map(|w| w.to_string());
            (r.name.clone(), counts.collect())
        })
        .collect();
    assert_eq!(doc_rows(), want, "EXPERIMENTS.md Table 1 vs `repro table1`");
}
