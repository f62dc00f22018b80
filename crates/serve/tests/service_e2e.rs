//! End-to-end contract tests for the differentiation service.
//!
//! Three pillars:
//!
//! - **Fidelity**: a report served over the wire is byte-identical
//!   (wall-clock stripped) to the one-shot pipeline's, cache cold and
//!   warm, for the paper's Table-1 kernels.
//! - **Chaos**: concurrent clients against a daemon whose provers panic
//!   at 20% — and at 100% — all receive FD-correct (possibly degraded)
//!   responses, and the daemon stays up.
//! - **Soak** (the acceptance criterion): with the admission queue
//!   saturated and an all-panic `ChaosSolver` injected, every request
//!   completes HTTP 200 with correct adjoints, and a subsequent clean
//!   request is served from the warm shared cache with zero lia calls.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

use formad::{full_report, Formad, FormadOptions};
use formad_ir::{parse_any, program_to_string, Program};
use formad_kernels::{lbm, GfmcCase, GreenGaussCase, StencilCase};
use formad_machine::{dot_product_test, fill_real, Bindings, Machine};
use formad_serve::{serve, Json, ServerHandle, ServiceConfig};

// ---- tiny blocking HTTP client ----

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, Json) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(
        format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
    .expect("write");
    let mut text = String::new();
    s.read_to_string(&mut text).expect("read");
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .and_then(|t| t.parse().ok())
        .unwrap_or_else(|| panic!("bad response: {text}"));
    let body = text.split("\r\n\r\n").nth(1).unwrap_or("");
    let json = Json::parse(body).unwrap_or_else(|e| panic!("bad JSON ({e}): {body}"));
    (status, json)
}

fn prove_body(source: &str, wrt: &[&str], of: &[&str], extra: &str) -> String {
    let names = |list: &[&str]| {
        let items: Vec<String> = list
            .iter()
            .map(|n| Json::Str(n.to_string()).render())
            .collect();
        format!("[{}]", items.join(","))
    };
    format!(
        r#"{{"program":{},"wrt":{},"of":{}{extra}}}"#,
        Json::Str(source.to_string()).render(),
        names(wrt),
        names(of),
    )
}

/// Drop the only wall-clock-dependent token (the region time that ends
/// `… N queries, 0.123s` header lines) so reports compare bytewise.
fn strip_times(report: &str) -> String {
    report
        .lines()
        .map(|l| match l.split_once(" queries, ") {
            Some((head, _)) => format!("{head} queries"),
            None => l.to_string(),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// The paper's Table-1 kernel suite, as (name, program, wrt, of).
fn table1() -> Vec<(&'static str, Program, Vec<&'static str>, Vec<&'static str>)> {
    vec![
        (
            "stencil",
            StencilCase::small(32, 1).ir(),
            StencilCase::independents().to_vec(),
            StencilCase::dependents().to_vec(),
        ),
        (
            "gfmc",
            GfmcCase::new(8, 1).ir(),
            GfmcCase::independents().to_vec(),
            GfmcCase::dependents().to_vec(),
        ),
        (
            "green_gauss",
            GreenGaussCase::linear(24, 1).ir(),
            GreenGaussCase::independents().to_vec(),
            GreenGaussCase::dependents().to_vec(),
        ),
        (
            "lbm",
            lbm::lbm_ir(),
            lbm::independents().to_vec(),
            lbm::dependents().to_vec(),
        ),
    ]
}

fn start(cfg: ServiceConfig) -> ServerHandle {
    serve("127.0.0.1:0", cfg).expect("bind ephemeral")
}

// ---- fidelity ----

#[test]
fn reports_are_byte_identical_to_the_one_shot_pipeline_cold_and_warm() {
    let handle = start(ServiceConfig::default());
    let addr = handle.addr();
    for (name, ir, wrt, of) in table1() {
        let source = program_to_string(&ir);
        // The one-shot reference goes through the same source text the
        // service receives (exactly what the CLI does).
        let primal = parse_any(&source).expect(name);
        let oneshot = Formad::new(FormadOptions::new(&wrt, &of))
            .analyze(&primal)
            .unwrap_or_else(|e| panic!("{name}: one-shot failed: {e}"));
        let want = strip_times(&full_report(&primal.name, &oneshot));
        // Cold (first visit of this kernel), then warm (shared cache).
        for pass in ["cold", "warm"] {
            let (status, json) = post(addr, "/v1/prove", &prove_body(&source, &wrt, &of, ""));
            assert_eq!(status, 200, "{name} {pass}: {json}");
            let got = json.get("report").and_then(Json::as_str).unwrap_or("");
            assert_eq!(
                strip_times(got),
                want,
                "{name} {pass}: service report differs from one-shot"
            );
            assert_eq!(
                json.get("degraded").and_then(Json::as_bool),
                Some(oneshot.degraded()),
                "{name} {pass}"
            );
        }
    }
}

// ---- chaos ----

/// FD-check an adjoint served over the wire for the small stencil.
fn assert_stencil_adjoint_correct(adjoint_src: &str, ctx: &str) {
    let case = StencilCase::small(32, 1);
    let primal = case.ir();
    let adjoint = parse_any(adjoint_src).unwrap_or_else(|e| panic!("{ctx}: bad adjoint: {e}"));
    let base: Bindings = case.bindings(11);
    for threads in [1usize, 4] {
        let t = dot_product_test(
            &primal,
            &adjoint,
            &base,
            &[("uold", fill_real("seed_u", 21, 32))],
            &[("unew", fill_real("seed_v", 22, 32))],
            &Machine::with_threads(threads),
            1e-6,
            "b",
        )
        .unwrap_or_else(|e| panic!("{ctx} T={threads}: {e}"));
        assert!(
            t.passes(1e-6),
            "{ctx} T={threads}: fd={} adj={} rel={}",
            t.fd_value,
            t.adjoint_value,
            t.rel_error
        );
    }
}

#[test]
fn concurrent_chaos_clients_all_get_correct_responses_and_daemon_survives() {
    let handle = start(ServiceConfig::default());
    let addr = handle.addr();
    let source = program_to_string(&StencilCase::small(32, 1).ir());
    let wrt = StencilCase::independents();
    let of = StencilCase::dependents();
    // Half the clients run 20%-panic provers, half all-panic; every
    // response must be 200 with an FD-correct adjoint either way.
    let clients: Vec<_> = (0..8u64)
        .map(|i| {
            let body = prove_body(
                &source,
                wrt,
                of,
                &format!(
                    r#","chaos":{{"seed":{},"panic_per_mille":{}}}"#,
                    i + 1,
                    if i % 2 == 0 { 200 } else { 1000 }
                ),
            );
            std::thread::spawn(move || post(addr, "/v1/prove", &body))
        })
        .collect();
    for (i, c) in clients.into_iter().enumerate() {
        let (status, json) = c.join().expect("client thread");
        assert_eq!(status, 200, "client {i}: {json}");
        assert_eq!(
            json.get("ok").and_then(Json::as_bool),
            Some(true),
            "client {i}"
        );
        let adjoint = json
            .get("adjoint")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("client {i}: no adjoint: {json}"));
        assert_stencil_adjoint_correct(adjoint, &format!("chaos client {i}"));
    }
    // The daemon is still healthy: a clean request succeeds undegraded.
    let (status, json) = post(addr, "/v1/prove", &prove_body(&source, wrt, of, ""));
    assert_eq!(status, 200, "{json}");
    assert_eq!(
        json.get("degraded").and_then(Json::as_bool),
        Some(false),
        "{json}"
    );
}

// ---- soak (acceptance criterion) ----

#[test]
fn soak_saturated_all_panic_storm_then_clean_request_from_warm_cache() {
    // A deliberately tiny gate so the storm saturates it immediately.
    let handle = start(ServiceConfig {
        workers: 2,
        queue: 2,
        ..ServiceConfig::default()
    });
    let addr = handle.addr();

    // Phase 1 — warm the shared cache with every Table-1 kernel, and
    // record how much linear-arithmetic work the cold passes cost.
    let mut cold_lia = 0u64;
    for (name, ir, wrt, of) in table1() {
        let source = program_to_string(&ir);
        let (status, json) = post(addr, "/v1/prove", &prove_body(&source, &wrt, &of, ""));
        assert_eq!(status, 200, "{name} cold: {json}");
        cold_lia += json
            .get("stats")
            .and_then(|s| s.get("lia_calls"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
    }
    assert!(
        cold_lia > 0,
        "cold passes did no prover work — soak is vacuous"
    );
    let index = handle
        .service()
        .engine()
        .fingerprints()
        .expect("service fingerprint index")
        .clone();
    let warmed = index.stats();
    assert!(warmed.entries > 0, "shared index is empty after warmup");

    // Phase 2 — the storm: more all-panic clients than workers+queue,
    // so the admission ladder exercises every rung (full, reduced,
    // shed-to-fallback). Every single response must be HTTP 200 with an
    // FD-correct adjoint; degraded answers must say so.
    let source = program_to_string(&StencilCase::small(32, 1).ir());
    let wrt = StencilCase::independents();
    let of = StencilCase::dependents();
    let storm: Vec<_> = (0..12u64)
        .map(|i| {
            let body = prove_body(
                &source,
                wrt,
                of,
                &format!(r#","chaos":{{"seed":{},"panic_per_mille":1000}}"#, i + 1),
            );
            std::thread::spawn(move || post(addr, "/v1/prove", &body))
        })
        .collect();
    let mut degraded_seen = 0u32;
    for (i, c) in storm.into_iter().enumerate() {
        let (status, json) = c.join().expect("storm client");
        assert_eq!(status, 200, "storm client {i}: {json}");
        let degraded = json
            .get("degraded")
            .and_then(Json::as_bool)
            .unwrap_or(false);
        let all_safe = json.get("all_safe").and_then(Json::as_bool);
        // An all-panic prover can never prove disjointness, so any
        // non-fallback answer must flag degradation and cannot claim
        // everything proved safe; fallbacks are degraded by construction.
        assert!(degraded, "storm client {i} not flagged degraded: {json}");
        if json.get("fallback").and_then(Json::as_bool) == Some(false) {
            assert_eq!(all_safe, Some(false), "storm client {i}: {json}");
        }
        degraded_seen += 1;
        let adjoint = json
            .get("adjoint")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("storm client {i}: no adjoint: {json}"));
        assert_stencil_adjoint_correct(adjoint, &format!("storm client {i}"));
    }
    assert_eq!(degraded_seen, 12);

    // Phase 3 — the daemon is unharmed: a clean request is served from
    // the warm shared cache with zero lia calls, undegraded.
    for (name, ir, wrt, of) in table1() {
        let source = program_to_string(&ir);
        let (status, json) = post(addr, "/v1/prove", &prove_body(&source, &wrt, &of, ""));
        assert_eq!(status, 200, "{name} warm: {json}");
        assert_eq!(
            json.get("fallback").and_then(Json::as_bool),
            Some(false),
            "{name} warm: {json}"
        );
        let lia = json
            .get("stats")
            .and_then(|s| s.get("lia_calls"))
            .and_then(Json::as_u64);
        assert_eq!(lia, Some(0), "{name} warm pass did fresh lia work: {json}");
    }

    // The storm's rolled-back requests left the shared index unpolluted:
    // no record or insert beyond the warmup's, and the clean pass was
    // served entirely from what the warmup recorded.
    let after = index.stats();
    assert_eq!(after.entries, warmed.entries, "storm added records");
    assert_eq!(after.inserts, warmed.inserts, "storm inserted records");
    assert_eq!(after.hits, warmed.hits + warmed.entries);
}

// ---- exec backends over the wire ----

/// `exec` requests served on all three backends return identical
/// outputs; with a warm (in-tree) toolchain the AOT backend serves
/// without falling back, and with a broken one it degrades to bytecode —
/// still HTTP 200, still identical — with the reason in the response.
/// One test fn: the broken-toolchain phase mutates process-global env.
#[test]
fn exec_aot_over_the_wire_matches_sim_and_degrades_on_compile_failure() {
    let source = "subroutine axpy(n, a, x, y)\n  integer, intent(in) :: n\n  \
                  real, intent(in) :: a\n  real, intent(in) :: x(n)\n  \
                  real, intent(inout) :: y(n)\n  integer :: i\n  \
                  !$omp parallel do shared(x, y)\n  do i = 1, n\n    \
                  y(i) = y(i) + a * x(i)\n  end do\nend subroutine\n";
    let handle = start(ServiceConfig::default());
    let addr = handle.addr();
    let body = |backend: &str, n: u32| {
        format!(
            r#"{{"program":{},"backend":"{backend}","threads":2,"sets":{{"n":{n},"a":0.5}}}}"#,
            Json::Str(source.to_string()).render()
        )
    };

    let exec = |backend: &str, n: u32| {
        let (status, json) = post(addr, "/v1/exec", &body(backend, n));
        assert_eq!(status, 200, "{backend}: {json}");
        assert_eq!(
            json.get("backend").and_then(Json::as_str),
            Some(backend),
            "{json}"
        );
        json
    };
    let sim = exec("sim", 48);
    let native = exec("native", 48);
    let aot = exec("aot", 48);
    let outputs = |j: &Json| j.get("outputs").unwrap().render();
    assert_eq!(outputs(&sim), outputs(&native));
    assert_eq!(outputs(&sim), outputs(&aot));
    assert_eq!(aot.get("aot_fallback").and_then(Json::as_bool), Some(false));

    // Status exports the kernel-registry counters next to the proof
    // cache's: the request above either built fresh or hit a cache.
    let (status, json) = post_get(addr, "/v1/status");
    assert_eq!(status, 200);
    let aot_stats = json.get("aot").expect("aot stats block");
    let total = ["compiles", "disk_hits", "cache_hits"]
        .iter()
        .filter_map(|k| aot_stats.get(k).and_then(Json::as_u64))
        .sum::<u64>();
    assert!(total >= 1, "no aot activity recorded: {json}");

    // Broken toolchain + unseen extent (cold registry and disk cache):
    // the build must actually run, fail, and degrade to bytecode.
    std::env::set_var("FORMAD_AOT_RUSTC", "/nonexistent/formad-test-rustc");
    let dir = std::env::temp_dir().join(format!("formad-serve-aotfail-{}", std::process::id()));
    std::env::set_var("FORMAD_AOT_DIR", &dir);
    let degraded = exec("aot", 49);
    let plain = exec("sim", 49);
    std::env::remove_var("FORMAD_AOT_RUSTC");
    std::env::remove_var("FORMAD_AOT_DIR");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        degraded.get("aot_fallback").and_then(Json::as_bool),
        Some(true),
        "{degraded}"
    );
    let reason = degraded
        .get("aot_fallback_reason")
        .and_then(Json::as_str)
        .expect("fallback reason");
    assert!(reason.contains("failed to spawn"), "{reason}");
    assert_eq!(outputs(&degraded), outputs(&plain));
}

/// GET for the status endpoint (the shared `post` helper always POSTs).
fn post_get(addr: SocketAddr, path: &str) -> (u16, Json) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
        .expect("write");
    let mut text = String::new();
    s.read_to_string(&mut text).expect("read");
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .and_then(|t| t.parse().ok())
        .unwrap_or_else(|| panic!("bad response: {text}"));
    let body = text.split("\r\n\r\n").nth(1).unwrap_or("");
    let json = Json::parse(body).unwrap_or_else(|e| panic!("bad JSON ({e}): {body}"));
    (status, json)
}

// ---- status counter consistency ----

/// Pull one named counter out of a `/v1/status` snapshot.
fn counter(j: &Json, block: &str, key: &str) -> u64 {
    j.get(block)
        .and_then(|b| b.get(key))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("missing {block}.{key} in {j}"))
}

/// `[analyze, exec, status, ok_200, client_4xx, rejected_429]`.
fn counter_snapshot(j: &Json) -> [u64; 6] {
    [
        counter(j, "requests", "analyze"),
        counter(j, "requests", "exec"),
        counter(j, "requests", "status"),
        counter(j, "responses", "ok_200"),
        counter(j, "responses", "client_4xx"),
        counter(j, "responses", "rejected_429"),
    ]
}

/// Under concurrent mixed traffic (valid and malformed analyze/exec
/// requests racing a status poller), every `/v1/status` counter is
/// monotone non-decreasing, requests are never outnumbered by finished
/// responses, and at quiescence the books balance exactly: each request
/// class matches what the clients sent, and completed responses equal
/// handled requests minus the snapshot's own in-flight status GET.
#[test]
fn status_counters_are_monotone_and_sum_consistently() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let source = "subroutine axpy(n, a, x, y)\n  integer, intent(in) :: n\n  \
                  real, intent(in) :: a\n  real, intent(in) :: x(n)\n  \
                  real, intent(inout) :: y(n)\n  integer :: i\n  \
                  !$omp parallel do shared(x, y)\n  do i = 1, n\n    \
                  y(i) = y(i) + a * x(i)\n  end do\nend subroutine\n";
    let handle = start(ServiceConfig::default());
    let addr = handle.addr();

    const CLIENTS: usize = 3;
    const ROUNDS: usize = 4;
    let analyze_body = prove_body(source, &["x"], &["y"], "");
    let exec_body = format!(
        r#"{{"program":{},"backend":"sim","sets":{{"n":8,"a":0.5}}}}"#,
        Json::Str(source.to_string()).render()
    );

    let done = AtomicBool::new(false);
    let mut snapshots: Vec<[u64; 6]> = Vec::new();
    let mut polls = 0u64;
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                for _ in 0..ROUNDS {
                    // Two well-formed requests and two that must 4xx.
                    let (s, _) = post(addr, "/v1/analyze", &analyze_body);
                    assert_eq!(s, 200);
                    let (s, _) = post(addr, "/v1/exec", &exec_body);
                    assert!(s == 200 || s == 429, "exec got {s}");
                    let (s, _) = post(addr, "/v1/analyze", "{");
                    assert_eq!(s, 400);
                    let (s, _) = post(addr, "/v1/exec", r#"{"program":7}"#);
                    assert_eq!(s, 400);
                }
            });
        }
        // Poll /v1/status concurrently until every client finished.
        while !done.load(Ordering::Acquire) {
            let (s, json) = post_get(addr, "/v1/status");
            assert_eq!(s, 200);
            snapshots.push(counter_snapshot(&json));
            polls += 1;
            // `scope` joins the clients when the closure returns, so flip
            // `done` once each client has observably sent everything.
            let analyze_seen = snapshots.last().unwrap()[0];
            if analyze_seen >= (CLIENTS * ROUNDS * 2) as u64 {
                done.store(true, Ordering::Release);
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    });

    // One more snapshot with the service quiescent.
    let (s, json) = post_get(addr, "/v1/status");
    assert_eq!(s, 200);
    snapshots.push(counter_snapshot(&json));
    polls += 1;

    // Monotone: no counter ever decreases between successive snapshots.
    for pair in snapshots.windows(2) {
        for k in 0..6 {
            assert!(
                pair[0][k] <= pair[1][k],
                "counter {k} went backwards: {:?} -> {:?}",
                pair[0],
                pair[1]
            );
        }
    }
    // In-flight bound: a request bumps its request counter before its
    // response counter, so finished responses never outnumber requests.
    for snap in &snapshots {
        let requests = snap[0] + snap[1] + snap[2];
        let responses = snap[3] + snap[4] + snap[5];
        assert!(
            responses <= requests,
            "responses {responses} > requests {requests} in {snap:?}"
        );
    }
    // Quiescent books: every client request is accounted for, and the
    // only request without a finished response is the final status GET
    // itself (its ok_200 lands after the snapshot renders).
    let last = snapshots.last().unwrap();
    assert_eq!(last[0], (CLIENTS * ROUNDS * 2) as u64, "analyze count");
    assert_eq!(last[1], (CLIENTS * ROUNDS * 2) as u64, "exec count");
    assert_eq!(last[2], polls, "status count");
    assert_eq!(last[4], (CLIENTS * ROUNDS * 2) as u64, "4xx count");
    let requests = last[0] + last[1] + last[2];
    let responses = last[3] + last[4] + last[5];
    assert_eq!(
        responses + 1,
        requests,
        "at quiescence only the in-flight status GET is unaccounted: {last:?}"
    );
}

// ---- durable cache across restarts ----

/// The durability acceptance test: a daemon with a `--cache-dir`
/// answers a repeat request *after a full restart* from disk — zero
/// fresh lia calls, the report byte-identical to the cold one, and the
/// `/v1/status` disk tier showing the hits.
#[test]
fn restarted_daemon_serves_from_disk_with_zero_lia_calls() {
    let dir = std::env::temp_dir().join(format!("formad-serve-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Owner-only whatever the umask: the index trusts no other directory.
    use std::os::unix::fs::DirBuilderExt;
    std::fs::DirBuilder::new().mode(0o700).create(&dir).unwrap();
    let cfg = || ServiceConfig {
        cache_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    };
    let case = GfmcCase::new(8, 1);
    let source = program_to_string(&case.ir());
    let body = prove_body(
        &source,
        GfmcCase::independents(),
        GfmcCase::dependents(),
        "",
    );

    // First daemon: cold analysis, absorbed and flushed to disk.
    let cold_report;
    let cold_lia;
    {
        let mut handle = start(cfg());
        let (status, json) = post(handle.addr(), "/v1/prove", &body);
        assert_eq!(status, 200, "{json}");
        cold_report = strip_times(json.get("report").and_then(Json::as_str).unwrap_or(""));
        cold_lia = json
            .get("stats")
            .and_then(|s| s.get("lia_calls"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        assert!(cold_lia > 0, "cold pass should do fresh prover work");
        let (_, status_json) = post(handle.addr(), "/v1/shutdown", "");
        assert!(status_json.get("ok").and_then(Json::as_bool) == Some(true));
        handle.join();
    }

    // Second daemon: a brand-new process-level state over the same
    // directory. The repeat request replays the recorded region
    // decisions without any fresh prover work.
    {
        let mut handle = start(cfg());
        let addr = handle.addr();
        let (status, json) = post(addr, "/v1/prove", &body);
        assert_eq!(status, 200, "{json}");
        let warm_report = strip_times(json.get("report").and_then(Json::as_str).unwrap_or(""));
        assert_eq!(warm_report, cold_report, "restart changed the report");
        let warm_lia = json
            .get("stats")
            .and_then(|s| s.get("lia_calls"))
            .and_then(Json::as_u64);
        assert_eq!(warm_lia, Some(0), "warm restart did fresh lia work: {json}");

        let (s, status_json) = post_get(addr, "/v1/status");
        assert_eq!(s, 200);
        let fp_hits = status_json
            .get("fingerprints")
            .and_then(|f| f.get("hits"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        let fp_disk_hits = status_json
            .get("fingerprints")
            .and_then(|f| f.get("disk_hits"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        assert!(
            fp_hits > 0 && fp_disk_hits > 0,
            "restarted daemon should have served regions from the durable \
             fingerprint index: {status_json}"
        );
        // Each record was promoted from disk once and counts once.
        let fp = |key: &str| {
            status_json
                .get("fingerprints")
                .and_then(|f| f.get(key))
                .and_then(Json::as_u64)
        };
        assert_eq!(fp("entries"), Some(fp_disk_hits), "{status_json}");
        assert_eq!(fp("write_errors"), Some(0), "{status_json}");
        let (_, sh) = post(addr, "/v1/shutdown", "");
        assert!(sh.get("ok").and_then(Json::as_bool) == Some(true));
        handle.join();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cache directory others can write is refused, and `/v1/status`
/// says why in `fingerprints.refused`; without a cache directory it is
/// `null`.
#[test]
fn status_names_a_refused_cache_directory() {
    use std::os::unix::fs::PermissionsExt;
    let dir = std::env::temp_dir().join(format!("formad-serve-refused-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir(&dir).unwrap();
    std::fs::set_permissions(&dir, std::fs::Permissions::from_mode(0o777)).unwrap();
    let refused = |cfg: ServiceConfig| {
        let mut handle = start(cfg);
        let (s, status) = post_get(handle.addr(), "/v1/status");
        assert_eq!(s, 200, "{status}");
        let refused = status
            .get("fingerprints")
            .and_then(|f| f.get("refused"))
            .cloned();
        let (_, sh) = post(handle.addr(), "/v1/shutdown", "");
        assert!(sh.get("ok").and_then(Json::as_bool) == Some(true));
        handle.join();
        refused
    };
    let why = refused(ServiceConfig {
        cache_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    });
    let why = why.as_ref().and_then(Json::as_str).unwrap_or("");
    assert!(why.contains("(mode 777)"), "{why}");
    assert_eq!(refused(ServiceConfig::default()), Some(Json::Null));
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- field validation ----

const AXPY: &str = "subroutine axpy(n, a, x, y)\n  integer, intent(in) :: n\n  \
                    real, intent(in) :: a\n  real, intent(in) :: x(n)\n  \
                    real, intent(inout) :: y(n)\n  integer :: i\n  \
                    !$omp parallel do shared(x, y)\n  do i = 1, n\n    \
                    y(i) = y(i) + a * x(i)\n  end do\nend subroutine\n";

/// A field that is present but of the wrong type or out of range is
/// refused the way the CLI refuses the same flag (HTTP 400 `validate`
/// naming the field), not replaced by its default.
#[test]
fn malformed_fields_are_refused() {
    let handle = start(ServiceConfig::default());
    let addr = handle.addr();
    let program = Json::Str(AXPY.to_string()).render();
    let exec = [
        ("backend", "5"),
        ("backend", r#""cuda""#),
        ("seed", r#""x""#),
        ("threads", "-3"),
        ("threads", "0"),
        ("threads", "1.5"),
        ("deadline_ms", r#""soon""#),
        ("sets", "5"),
    ];
    let analysis = [
        ("emit", "7"),
        ("prover_timeout_ms", r#""x""#),
        ("deadline_ms", "-1"),
        ("adjoint", r#""yes""#),
        ("poison", "1"),
        ("wrt", "5"),
        ("of", r#"["y", 3]"#),
        ("chaos", "true"),
        ("chaos", r#"{"seed":"x"}"#),
    ];
    let cases = (exec.iter().map(|c| ("/v1/exec", c))).chain(
        analysis
            .iter()
            .flat_map(|c| [("/v1/analyze", c), ("/v1/prove", c)]),
    );
    for (path, (field, value)) in cases {
        // The first occurrence of a key is the one read.
        let body = format!(
            r#"{{"{field}":{value},"program":{program},"wrt":"x","of":"y","sets":{{"n":8}}}}"#
        );
        let (status, json) = post(addr, path, &body);
        assert_eq!(status, 400, "{path} {body}: {json}");
        let kind = json.get("kind").and_then(Json::as_str);
        assert_eq!(kind, Some("validate"), "{path} {body}: {json}");
        let error = json.get("error").and_then(Json::as_str).unwrap_or("");
        assert!(error.contains(&format!("`{field}")), "{field}: {error}");
    }
}

/// One name in two reduction clauses is a program the validator
/// refuses: 400 `validate`, naming both clauses.
#[test]
fn a_name_in_two_reduction_clauses_is_refused() {
    let handle = start(ServiceConfig::default());
    let program = AXPY.replace("shared(x, y)", "reduction(+: y) reduction(max: y)");
    let body = format!(
        r#"{{"program":{},"sets":{{"n":8}}}}"#,
        Json::Str(program).render()
    );
    let (status, json) = post(handle.addr(), "/v1/exec", &body);
    assert_eq!(status, 400, "{json}");
    assert_eq!(
        json.get("kind").and_then(Json::as_str),
        Some("validate"),
        "{json}"
    );
    let error = json.get("error").and_then(Json::as_str).unwrap_or("");
    assert!(
        error.contains("`reduction(+: y)` and `reduction(max: y)`"),
        "{error}"
    );
}

/// Well-formed fields keep their meaning: `threads` above the service's
/// ceiling is clamped to it, not refused, and `adjoint: false` on
/// `/v1/prove` drops the adjoint from the reply.
#[test]
fn well_formed_fields_still_clamp_and_toggle() {
    let handle = start(ServiceConfig {
        exec_threads_max: 3,
        ..ServiceConfig::default()
    });
    let addr = handle.addr();
    let body = format!(
        r#"{{"program":{},"backend":"native","threads":64,"seed":7,"deadline_ms":60000,"sets":{{"n":8,"a":"0.5"}}}}"#,
        Json::Str(AXPY.to_string()).render()
    );
    let (status, json) = post(addr, "/v1/exec", &body);
    assert_eq!(status, 200, "{json}");
    assert_eq!(
        json.get("threads").and_then(Json::as_u64),
        Some(3),
        "{json}"
    );

    let (status, json) = post(
        addr,
        "/v1/prove",
        &prove_body(AXPY, &["x"], &["y"], r#","adjoint":false,"emit":"c""#),
    );
    assert_eq!(status, 200, "{json}");
    assert!(json.get("adjoint").is_none(), "{json}");
    let (status, json) = post(
        addr,
        "/v1/analyze",
        &prove_body(AXPY, &["x"], &["y"], r#","adjoint":true,"emit":"c""#),
    );
    assert_eq!(status, 200, "{json}");
    let adjoint = json.get("adjoint").and_then(Json::as_str).unwrap_or("");
    assert!(adjoint.contains("void axpy_b("), "{adjoint}");
}
