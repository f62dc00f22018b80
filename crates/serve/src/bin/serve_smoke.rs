//! CI smoke client for the differentiation service.
//!
//! Starts an in-process daemon on an ephemeral port, fires a burst of
//! concurrent mixed requests — analyses, proofs, executions, and one
//! deliberately poisoned request that panics inside the pipeline — then
//! asserts the robustness contract: **zero 5xx responses**, the poisoned
//! request degraded (HTTP 200, `degraded: true`) instead of erroring,
//! a program nested far past the parser's budget refused with a 400,
//! and the daemon still answers a clean request afterwards. Exits
//! nonzero on any violation; `--out FILE` writes the final `/status`
//! snapshot for artifact upload.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

use formad_serve::{serve, Json, ServiceConfig};

const AXPY_F: &str = r#"
subroutine axpy(n, a, x, y)
  integer, intent(in) :: n
  real, intent(in) :: a
  real, intent(in) :: x(n)
  real, intent(inout) :: y(n)
  integer :: i
  !$omp parallel do shared(x, y)
  do i = 1, n
    y(i) = y(i) + a * x(i)
  end do
end subroutine
"#;

const FIG2_F: &str = r#"
subroutine fig2(n, x, y, c)
  integer, intent(in) :: n
  real, intent(in) :: x(n + 7)
  real, intent(inout) :: y(n)
  integer, intent(in) :: c(n)
  integer :: i
  !$omp parallel do shared(x, y, c)
  do i = 1, n
    y(c(i)) = x(c(i) + 7)
  end do
end subroutine
"#;

fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<(u16, Json), String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    s.write_all(
        format!(
            "{method} {path} HTTP/1.1\r\nHost: smoke\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
    .map_err(|e| format!("write: {e}"))?;
    let mut text = String::new();
    s.read_to_string(&mut text)
        .map_err(|e| format!("read: {e}"))?;
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line in `{text}`"))?;
    let body = text.split("\r\n\r\n").nth(1).unwrap_or("");
    let json = Json::parse(body).map_err(|e| format!("bad response JSON: {e} in `{body}`"))?;
    Ok((status, json))
}

fn analysis_body(source: &str, extra: &str) -> String {
    let program = Json::Str(source.to_string()).render();
    format!(r#"{{"program":{program},"wrt":"x","of":"y"{extra}}}"#)
}

fn main() {
    let mut out_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next(),
            other => {
                eprintln!("serve-smoke: unknown argument `{other}`");
                std::process::exit(2);
            }
        }
    }

    let mut handle = match serve("127.0.0.1:0", ServiceConfig::default()) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("serve-smoke: bind failed: {e}");
            std::process::exit(2);
        }
    };
    let addr = handle.addr();
    println!("serve-smoke: daemon on {addr}");

    // The burst: proofs and analyses of both Figure-2 shapes, native and
    // simulated executions, a malformed request, and one poisoned
    // request that panics inside the pipeline.
    let mut jobs: Vec<(String, String, &'static str)> = Vec::new();
    for i in 0..4 {
        jobs.push((
            "/v1/prove".to_string(),
            analysis_body(FIG2_F, ""),
            if i == 0 {
                "prove-fig2"
            } else {
                "prove-fig2-warm"
            },
        ));
        jobs.push((
            "/v1/analyze".to_string(),
            analysis_body(AXPY_F, ""),
            "analyze-axpy",
        ));
    }
    let program = Json::Str(AXPY_F.to_string()).render();
    jobs.push((
        "/v1/exec".to_string(),
        format!(
            r#"{{"program":{program},"sets":{{"n":64,"a":2.0}},"threads":4,"backend":"native"}}"#
        ),
        "exec-native",
    ));
    jobs.push((
        "/v1/exec".to_string(),
        format!(r#"{{"program":{program},"sets":{{"n":64,"a":2.0}},"threads":2}}"#),
        "exec-sim",
    ));
    jobs.push((
        "/v1/prove".to_string(),
        analysis_body(FIG2_F, r#","poison":true"#),
        "poisoned",
    ));
    jobs.push((
        "/v1/analyze".to_string(),
        "{not json".to_string(),
        "malformed",
    ));

    let threads: Vec<_> = jobs
        .into_iter()
        .map(|(path, body, tag)| {
            std::thread::spawn(move || (tag, request(addr, "POST", &path, &body)))
        })
        .collect();

    let mut failures = 0u32;
    let mut poisoned_degraded = false;
    for t in threads {
        let (tag, result) = t.join().expect("client thread");
        match result {
            Err(e) => {
                eprintln!("FAIL {tag}: transport error: {e}");
                failures += 1;
            }
            Ok((status, json)) => {
                if status >= 500 {
                    eprintln!("FAIL {tag}: got 5xx ({status}): {json}");
                    failures += 1;
                }
                match tag {
                    "malformed" => {
                        if status != 400 {
                            eprintln!("FAIL {tag}: expected 400, got {status}");
                            failures += 1;
                        }
                    }
                    "poisoned" => {
                        let degraded = json
                            .get("degraded")
                            .and_then(Json::as_bool)
                            .unwrap_or(false);
                        if status == 200 && degraded {
                            poisoned_degraded = true;
                        } else {
                            eprintln!("FAIL {tag}: expected 200 degraded, got {status}: {json}");
                            failures += 1;
                        }
                    }
                    _ => {
                        // 200 (possibly degraded under load) or a 429
                        // with a retry hint are both within contract.
                        let ok = status == 200
                            || (status == 429
                                && json.get("retry_after_ms").and_then(Json::as_u64).is_some());
                        if !ok {
                            eprintln!("FAIL {tag}: unexpected {status}: {json}");
                            failures += 1;
                        }
                    }
                }
                println!("ok   {tag}: {status}");
            }
        }
    }
    if !poisoned_degraded {
        eprintln!("FAIL: poisoned request did not produce a degraded 200");
        failures += 1;
    }

    // 20 000 levels of parentheses (≈ 40 KB) are a parse error past the
    // nesting budget, not a stack overflow that takes the daemon down.
    let parens = format!("{}x(i){}", "(".repeat(20_000), ")".repeat(20_000));
    let probe = AXPY_F.replace("y(i) + a * x(i)", &parens);
    match request(addr, "POST", "/v1/analyze", &analysis_body(&probe, "")) {
        Ok((400, _)) => println!("ok   deep-probe: 400"),
        other => {
            eprintln!("FAIL deep-probe: expected 400, got {other:?}");
            failures += 1;
        }
    }
    match request(addr, "GET", "/v1/status", "") {
        Ok((200, _)) => println!("ok   status-after-probe: 200"),
        other => {
            eprintln!("FAIL status after the deep probe: {other:?}");
            failures += 1;
        }
    }

    // The daemon must still serve a clean request after the storm.
    match request(addr, "POST", "/v1/prove", &analysis_body(FIG2_F, "")) {
        Ok((200, json)) => {
            let report = json.get("report").and_then(Json::as_str).unwrap_or("");
            if !report.contains("fig2") {
                eprintln!("FAIL post-storm: report missing program name: {json}");
                failures += 1;
            }
        }
        other => {
            eprintln!("FAIL post-storm: {other:?}");
            failures += 1;
        }
    }

    let status = match request(addr, "GET", "/v1/status", "") {
        Ok((200, json)) => json,
        other => {
            eprintln!("FAIL status: {other:?}");
            failures += 1;
            Json::Null
        }
    };
    println!("status: {status}");
    if let Some(path) = out_path {
        if let Err(e) = std::fs::write(&path, format!("{status}\n")) {
            eprintln!("FAIL: write {path}: {e}");
            failures += 1;
        }
    }

    // Graceful shutdown over the wire, then join the accept loop.
    match request(addr, "POST", "/v1/shutdown", "{}") {
        Ok((200, _)) => {}
        other => {
            eprintln!("FAIL shutdown: {other:?}");
            failures += 1;
        }
    }
    handle.join();

    if failures > 0 {
        eprintln!("serve-smoke: {failures} violation(s)");
        std::process::exit(1);
    }
    println!("serve-smoke: contract held (zero 5xx, poisoned request degraded, clean shutdown)");
}
