//! Invariants of the committed `BENCH_kernels.json` artifact.
//!
//! The benchmark harness regenerates this file; these tests pin the
//! contract every consumer (README tables, the AOT wall, CI trend
//! scripts) relies on: the bitwise gates are green, FormAD measures
//! faster than atomic on every kernel, the `summary` block — the only
//! place a derived ratio is stored — is complete and internally
//! consistent with the raw cells, and `note` appears exactly when some
//! thread count exceeds the host's cores.

use formad_serve::Json;

fn artifact() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    let text = std::fs::read_to_string(path).expect("BENCH_kernels.json is committed");
    Json::parse(&text).expect("BENCH_kernels.json parses")
}

fn get<'j>(j: &'j Json, key: &str) -> &'j Json {
    j.get(key).unwrap_or_else(|| panic!("missing `{key}`"))
}

fn str_of(j: &Json, key: &str) -> String {
    get(j, key)
        .as_str()
        .unwrap_or_else(|| panic!("`{key}` not a string"))
        .to_string()
}

fn num_of(j: &Json, key: &str) -> f64 {
    match get(j, key) {
        Json::Num(v) => *v,
        other => panic!("`{key}` not a number: {other}"),
    }
}

fn items(j: &Json) -> &[Json] {
    match j {
        Json::Arr(v) => v,
        other => panic!("expected array, got {other}"),
    }
}

/// The backend a kernel's headline ratios are read on: AOT, the one the
/// artifact times, whose kernels must all have built.
fn headline_backend(j: &Json, name: &str) -> &'static str {
    let raw = items(get(j, "kernels"))
        .iter()
        .find(|&k| str_of(k, "name") == name)
        .unwrap_or_else(|| panic!("no raw row for `{name}`"));
    assert_eq!(
        get(raw, "aot_available").as_bool(),
        Some(true),
        "`{name}`: AOT kernels must build"
    );
    "aot"
}

/// One kernel's summary row.
fn summary_row<'j>(j: &'j Json, prefix: &str) -> &'j Json {
    items(get(get(j, "summary"), "kernels"))
        .iter()
        .find(|&k| str_of(k, "name").starts_with(prefix))
        .unwrap_or_else(|| panic!("no summary row for `{prefix}`"))
}

#[test]
fn bitwise_gates_are_green() {
    let j = artifact();
    // The harness panics on a contract breach, so the artifact carries no
    // overall flag; each cell records what it observed, and every cell
    // records how far its iterations spread.
    assert!(j.get("all_bitwise").is_none(), "`all_bitwise` is gone");
    for k in items(get(&j, "kernels")) {
        let name = str_of(k, "name");
        assert_eq!(
            get(k, "all_safe").as_bool(),
            Some(true),
            "kernel `{name}` not race-free"
        );
        for s in items(get(k, "series")) {
            assert!(get(s, "bitwise").as_bool().is_some(), "`{name}`: bitwise");
            let iqr = num_of(s, "iqr_s");
            assert!(iqr.is_finite() && iqr >= 0.0, "`{name}`: iqr_s = {iqr}");
        }
        // Derived ratios live in `summary` only.
        for key in [
            "check_threads",
            "measured_formad_over_atomic",
            "measured_atomic_over_transposed",
            "measured_backend",
            "formad_beats_atomic",
        ] {
            assert!(k.get(key).is_none(), "`{name}` repeats `{key}`");
        }
    }
    // The FormAD adjoint beats the atomic one at the check thread count.
    for k in items(get(get(&j, "summary"), "kernels")) {
        let name = str_of(k, "name");
        let ratio = num_of(get(k, "formad_over_atomic"), headline_backend(&j, &name));
        assert!(
            ratio > 1.0,
            "kernel `{name}`: atomic / FormAD = {ratio} (FormAD must be faster)"
        );
    }
}

#[test]
fn note_appears_only_when_oversubscribed() {
    let j = artifact();
    let most = items(get(&j, "threads"))
        .iter()
        .map(|t| t.as_f64().expect("thread count"))
        .fold(0.0, f64::max);
    let oversubscribed = most > num_of(&j, "nproc");
    assert_eq!(
        get(&j, "summary").get("note").is_some(),
        oversubscribed,
        "`note` iff some T > nproc"
    );
}

#[test]
fn summary_block_is_complete_and_consistent() {
    let j = artifact();
    let summary = get(&j, "summary");
    let threads: Vec<f64> = items(get(&j, "threads"))
        .iter()
        .map(|t| match t {
            Json::Num(v) => *v,
            other => panic!("thread entry {other}"),
        })
        .collect();
    let backends: Vec<String> = items(get(&j, "backends"))
        .iter()
        .map(|b| b.as_str().expect("backend name").to_string())
        .collect();
    assert_eq!(backends, ["aot"], "AOT is the one timed backend");
    assert_eq!(
        num_of(summary, "check_threads"),
        threads.iter().copied().fold(0.0, f64::max),
        "check_threads must be the largest measured thread count"
    );
    // Cells above the recorded core count ran oversubscribed.
    assert!(num_of(&j, "nproc") >= 1.0, "host core count not recorded");

    // One summary row per raw kernel row, same names, same order.
    let raw_names: Vec<String> = items(get(&j, "kernels"))
        .iter()
        .map(|k| str_of(k, "name"))
        .collect();
    let sum_kernels = items(get(summary, "kernels"));
    let sum_names: Vec<String> = sum_kernels.iter().map(|k| str_of(k, "name")).collect();
    assert_eq!(sum_names, raw_names, "summary must cover every kernel");

    for k in sum_kernels {
        let name = str_of(k, "name");
        // `fastest` is the global winner, so it can only be at least as
        // fast as the winner among adjoints; both cells must point at a
        // measured (backend, threads) cell with a positive time.
        let fastest = get(k, "fastest");
        let adj = get(k, "fastest_adjoint");
        for (label, cell) in [("fastest", fastest), ("fastest_adjoint", adj)] {
            assert!(
                backends.contains(&str_of(cell, "backend")),
                "`{name}` {label}: unknown backend"
            );
            assert!(
                threads.contains(&num_of(cell, "threads")),
                "`{name}` {label}: unknown thread count"
            );
            assert!(
                num_of(cell, "best_s") > 0.0,
                "`{name}` {label}: non-positive time"
            );
        }
        assert!(
            str_of(adj, "version").starts_with("adj-"),
            "`{name}`: fastest_adjoint must be an adjoint version"
        );
        assert!(
            num_of(fastest, "best_s") <= num_of(adj, "best_s"),
            "`{name}`: global fastest slower than fastest adjoint"
        );
        // The bytecode engine is gone, and so is its ratio.
        assert!(
            k.get("aot_over_bytecode").is_none(),
            "`{name}`: aot_over_bytecode is back"
        );
        let has_transposed = kernel_has_transposed(&j, &name);
        // What the second thread buys each version on AOT. Recorded, not
        // yet held to a threshold (ROADMAP item 2(a)).
        let t2 = get(k, "t2_over_t1");
        for version in ["primal", "adj-FormAD", "adj-atomic", "adj-reduction"] {
            let r = num_of(t2, version);
            assert!(
                r.is_finite() && r > 0.0,
                "`{name}`: t2_over_t1[{version}] = {r}"
            );
        }
        match get(t2, "adj-transposed") {
            Json::Null => assert!(
                !has_transposed,
                "`{name}`: transposed cells exist but no t2_over_t1 ratio"
            ),
            Json::Num(r) => assert!(
                has_transposed && *r > 0.0,
                "`{name}`: t2_over_t1[adj-transposed] = {r}"
            ),
            other => panic!("`{name}`: t2_over_t1[adj-transposed] = {other}"),
        }
        // The paper's metric at one thread, per backend. ROADMAP item 5's
        // bar for the stencils: the AOT adjoint within 1.5x of the primal
        // (2.05x / 2.15x while the forward sweep was the whole primal).
        let aop = get(k, "adjoint_over_primal");
        for b in &backends {
            let r = num_of(aop, b);
            assert!(
                r.is_finite() && r > 0.0,
                "`{name}`: adjoint_over_primal[{b}] = {r}"
            );
        }
        if name.starts_with("stencil") {
            let r = num_of(aop, "aot");
            assert!(r <= 1.5, "`{name}`: AOT adjoint / primal = {r}");
        }
        let foa = get(k, "formad_over_atomic");
        for b in &backends {
            let r = num_of(foa, b);
            assert!(
                r.is_finite() && r > 0.0,
                "`{name}`: formad_over_atomic[{b}] = {r}"
            );
        }
        let fot = get(k, "atomic_over_transposed");
        for b in &backends {
            match get(fot, b) {
                Json::Null => assert!(
                    !has_transposed,
                    "`{name}`: transposed cells exist but no ratio on `{b}`"
                ),
                Json::Num(r) => assert!(
                    has_transposed && *r > 0.0,
                    "`{name}`: atomic_over_transposed[{b}] = {r}"
                ),
                other => panic!("`{name}`: atomic_over_transposed[{b}] = {other}"),
            }
        }
    }
}

/// Does the raw kernel row carry `adj-transposed` series cells?
fn kernel_has_transposed(j: &Json, name: &str) -> bool {
    items(get(j, "kernels"))
        .iter()
        .find(|&k| str_of(k, "name") == name)
        .map(|k| {
            items(get(k, "series"))
                .iter()
                .any(|s| str_of(s, "version") == "adj-transposed")
        })
        .unwrap_or(false)
}

#[test]
fn transposed_cells_are_bitwise_and_flip_the_lbm_ordering() {
    let j = artifact();
    let mut transposed_kernels = 0;
    for k in items(get(&j, "kernels")) {
        let name = str_of(k, "name");
        let cells: Vec<&Json> = items(get(k, "series"))
            .iter()
            .filter(|&s| str_of(s, "version") == "adj-transposed")
            .collect();
        if cells.is_empty() {
            continue;
        }
        transposed_kernels += 1;
        // The gather is deterministic by construction: every kernel
        // with an invertible scatter map must have adj-transposed cells
        // that reproduced the simulator bit-for-bit on every backend
        // and thread count.
        for s in &cells {
            assert_eq!(
                get(s, "bitwise").as_bool(),
                Some(true),
                "`{name}`: adj-transposed [{}] T={} not bitwise",
                str_of(s, "backend"),
                num_of(s, "threads")
            );
        }
    }
    assert!(
        transposed_kernels >= 3,
        "stencils and LBM must carry transposed versions"
    );
    // The headline result: the literal-offset LBM adjoint — the paper's
    // negative result — measures *faster* transposed than atomic at the
    // check thread count on the headline backend.
    let lbm = summary_row(&j, "lbm");
    let backend = headline_backend(&j, &str_of(lbm, "name"));
    let measured = num_of(get(lbm, "atomic_over_transposed"), backend);
    assert!(
        measured > 1.0,
        "lbm atomic/transposed at check_threads = {measured} (transposed must win)"
    );
}
