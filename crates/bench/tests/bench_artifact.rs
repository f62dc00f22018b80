//! Invariants of the committed `BENCH_kernels.json` artifact.
//!
//! The benchmark harness regenerates this file; these tests pin the
//! contract every consumer (README tables, the AOT wall, CI trend
//! scripts) relies on: the bitwise gates are green, FormAD measures
//! faster than atomic on every kernel, and the `summary` block is
//! complete and internally consistent with the raw cells.

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

#[test]
fn bitwise_gates_are_green() {
    let j = artifact();
    assert_eq!(get(&j, "all_bitwise").as_bool(), Some(true));
    // Every kernel row repeats the per-kernel halves of the gate, and the
    // FormAD adjoint beats the atomic one at the check thread count.
    for k in items(get(&j, "kernels")) {
        let name = str_of(k, "name");
        let ratio = num_of(k, "measured_formad_over_atomic");
        assert!(
            ratio > 1.0,
            "kernel `{name}`: atomic / FormAD = {ratio} (FormAD must be faster)"
        );
        assert_eq!(
            get(k, "all_safe").as_bool(),
            Some(true),
            "kernel `{name}` not race-free"
        );
        assert_eq!(
            get(k, "native_matches_sim").as_bool(),
            Some(true),
            "kernel `{name}` native/sim mismatch"
        );
    }
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
    assert!(
        threads.contains(&num_of(summary, "check_threads")),
        "check_threads must be one of the measured thread counts"
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
        // Dispatch-removal factors exist for all four base versions and
        // are positive finite ratios; the transposed entry exists
        // exactly for the kernels that carry a transposed version.
        let aob = get(k, "aot_over_bytecode");
        for version in ["primal", "adj-FormAD", "adj-atomic", "adj-reduction"] {
            let r = num_of(aob, version);
            assert!(
                r.is_finite() && r > 0.0,
                "`{name}`: aot_over_bytecode[{version}] = {r}"
            );
        }
        let has_transposed = kernel_has_transposed(&j, &name);
        match get(aob, "adj-transposed") {
            Json::Null => assert!(
                !has_transposed,
                "`{name}`: transposed cells exist but no aot_over_bytecode ratio"
            ),
            Json::Num(r) => assert!(
                has_transposed && *r > 0.0,
                "`{name}`: aot_over_bytecode[adj-transposed] = {r}"
            ),
            other => panic!("`{name}`: aot_over_bytecode[adj-transposed] = {other}"),
        }
        // ROADMAP item 2's baseline: what the second thread buys each
        // version on AOT. Recorded, not yet held to a threshold.
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
        let fot = get(k, "formad_over_atomic_transposed");
        for b in &backends {
            match get(fot, b) {
                Json::Null => assert!(
                    !has_transposed,
                    "`{name}`: transposed cells exist but no ratio on `{b}`"
                ),
                Json::Num(r) => assert!(
                    has_transposed && *r > 0.0,
                    "`{name}`: formad_over_atomic_transposed[{b}] = {r}"
                ),
                other => panic!("`{name}`: formad_over_atomic_transposed[{b}] = {other}"),
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
    // check thread count on the AOT backend.
    let lbm = items(get(&j, "kernels"))
        .iter()
        .find(|&k| str_of(k, "name").starts_with("lbm"))
        .expect("lbm kernel in artifact");
    let measured = num_of(lbm, "measured_atomic_over_transposed");
    assert!(
        measured > 1.0,
        "lbm atomic/transposed at check_threads = {measured} (transposed must win)"
    );
}
