//! `serve_mix`: the resident service over loopback HTTP.
//!
//! **Closed loop**: the callers are build tools that wait for each
//! reply, so `nproc` client threads each send their next request only
//! when the previous one is answered; one connection per request, as the
//! protocol requires. A batch is 100 requests: 70 drawn from a hot set
//! of 16 programs the service has already seen (warm: fingerprint
//! hits), 30 never seen before (cold: prove, insert, absorb). Warm
//! round-trips measured a flat ≈10 ms for every program — the accept
//! poll — so HTTP/accept, not analysis, is the blocking step, and only
//! this workload can show it.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use formad::{full_report, Formad};
use formad_fuzz::oracle::strip_times;
use formad_ir::parse_any;
use formad_serve::http::Request;
use formad_serve::json::{obj, Json};
use formad_serve::{serve, ServerHandle, Service, ServiceConfig};

use crate::host::nproc;
use crate::inputs::{self, Input, Rng};
use crate::pipeline::options;
use crate::span::Tracer;
use crate::stats::Samples;
use crate::{median, Budget, Config, Outcome};

const HOT_PROGRAMS: usize = 16;
const BATCH: usize = 100;
const NOVEL_PER_BATCH: usize = 30;
/// The measured phase ends after this many batches even if time is left
/// (the never-seen programs are made during set-up).
const MAX_BATCHES: usize = 40;

/// One request to send: its body, and what the reply must say.
struct Planned {
    body: String,
    /// Index into `State::programs`.
    program: usize,
    hot: bool,
}

struct Reply {
    started: Instant,
    status: u16,
    body: String,
    connect_s: f64,
    total_s: f64,
}

struct State {
    server: ServerHandle,
    programs: Vec<Input>,
    /// In-process report of each program, computed when first needed.
    expected: Vec<Option<Result<String, String>>>,
    /// `(proved, analysed)` arrays of each program a reply was checked for.
    decided: Vec<Option<(u64, u64)>>,
    /// `batches[b]` in sending order.
    batches: Vec<Vec<Planned>>,
    /// Warm-up requests: every hot program once.
    warmup: Vec<Planned>,
}

fn body_of(input: &Input) -> String {
    let list = |xs: &[String]| Json::Arr(xs.iter().map(|s| s.as_str().into()).collect());
    obj(vec![
        ("program", input.source.as_str().into()),
        ("wrt", list(&input.wrt)),
        ("of", list(&input.of)),
    ])
    .render()
}

fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<Reply, String> {
    let t0 = Instant::now();
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let connect_s = t0.elapsed().as_secs_f64();
    s.set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| format!("socket: {e}"))?;
    s.write_all(
        format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
    .map_err(|e| format!("write: {e}"))?;
    let mut text = String::new();
    s.read_to_string(&mut text)
        .map_err(|e| format!("read: {e}"))?;
    let total_s = t0.elapsed().as_secs_f64();
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| "malformed status line".to_string())?;
    let body = text
        .split_once("\r\n\r\n")
        .map_or(String::new(), |(_, b)| b.to_string());
    Ok(Reply {
        started: t0,
        status,
        body,
        connect_s,
        total_s,
    })
}

/// The report the pipeline gives in-process, times stripped: what the
/// service's reply must equal.
fn expected_report(input: &Input) -> Result<String, String> {
    let primal = parse_any(&input.source).map_err(|e| format!("{}: parse: {e}", input.name))?;
    let analysis = Formad::new(options(input))
        .analyze(&primal)
        .map_err(|e| format!("{}: analyze: {e}", input.name))?;
    Ok(strip_times(&full_report(&primal.name, &analysis)))
}

/// A reply is right when it is a 200, not degraded, and carries the
/// in-process report `want`. Returns `(proved, analysed)` adjoint
/// arrays, read off the report's decision lines.
fn verify(
    input: &Input,
    want: &Result<String, String>,
    reply: &Result<Reply, String>,
) -> Result<(u64, u64), String> {
    let reply = reply.as_ref().map_err(|e| format!("{}: {e}", input.name))?;
    if reply.status != 200 {
        return Err(format!("{}: HTTP {}", input.name, reply.status));
    }
    let json = Json::parse(&reply.body).map_err(|e| format!("{}: reply: {e}", input.name))?;
    let flag = |k: &str| json.get(k).and_then(Json::as_bool);
    if flag("ok") != Some(true) || flag("degraded") != Some(false) {
        return Err(format!("{}: reply not ok or degraded", input.name));
    }
    let got = json.get("report").and_then(Json::as_str).unwrap_or("");
    if &strip_times(got) != want.as_ref().map_err(String::clone)? {
        return Err(format!(
            "{}: report differs from the in-process one",
            input.name
        ));
    }
    let decisions = got.lines().filter(|l| l.starts_with("  adjoint of `"));
    let (mut proved, mut analysed) = (0, 0);
    for l in decisions {
        analysed += 1;
        proved += u64::from(!l.contains("`: guarded"));
    }
    Ok((proved, analysed))
}

/// Make the programs and the request plan, start the service, warm the
/// hot set.
fn set_up(cfg: &Config, out: &mut Outcome) -> State {
    let mut rng = Rng::new(cfg.seed);
    // Hot set: the nine prover-heavy programs and seven corpus programs.
    let mut programs = inputs::heavy(cfg.seed);
    let novel_total = MAX_BATCHES * NOVEL_PER_BATCH;
    let corpus = inputs::corpus(cfg.seed, 0, HOT_PROGRAMS - programs.len() + novel_total);
    programs.extend(corpus.into_iter().map(|(i, _)| i));
    let plan = |program: usize, hot: bool, programs: &[Input]| Planned {
        body: body_of(&programs[program]),
        program,
        hot,
    };
    let warmup: Vec<Planned> = (0..HOT_PROGRAMS)
        .map(|p| plan(p, true, &programs))
        .collect();
    let mut next_novel = HOT_PROGRAMS;
    let batches = (0..MAX_BATCHES)
        .map(|_| {
            let mut b: Vec<Planned> = (0..BATCH - NOVEL_PER_BATCH)
                .map(|_| plan(rng.below(HOT_PROGRAMS), true, &programs))
                .collect();
            for _ in 0..NOVEL_PER_BATCH {
                b.push(plan(next_novel, false, &programs));
                next_novel += 1;
            }
            rng.shuffle(&mut b);
            b
        })
        .collect();
    let server = serve("127.0.0.1:0", ServiceConfig::default()).expect("bind loopback");
    let addr = server.addr();
    let mut state = State {
        server,
        expected: vec![None; programs.len()],
        decided: vec![None; programs.len()],
        programs,
        batches,
        warmup,
    };
    for i in 0..state.warmup.len() {
        let p = &state.warmup[i];
        let reply = http(addr, "POST", "/v1/prove", &p.body);
        let checked = state.verify(p.program, &reply);
        out.check(checked);
    }
    state
}

impl State {
    fn verify(&mut self, program: usize, reply: &Result<Reply, String>) -> Result<(), String> {
        let input = &self.programs[program];
        let want = self.expected[program].get_or_insert_with(|| expected_report(input));
        self.decided[program] = Some(verify(input, want, reply)?);
        Ok(())
    }
}

/// Counters of `GET /v1/status` this workload reports.
fn status_counters(addr: SocketAddr) -> Result<[f64; 5], String> {
    let reply = http(addr, "GET", "/v1/status", "")?;
    let j = Json::parse(&reply.body)?;
    let at = |path: &[&str]| {
        path.iter()
            .try_fold(&j, |j, k| j.get(k))
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("status has no {}", path.join(".")))
    };
    Ok([
        at(&["degraded_total"])?,
        at(&["shed", "fallbacks"])?,
        at(&["responses", "rejected_429"])?,
        at(&["fingerprints", "hits"])?,
        at(&["cache", "inserts"])?,
    ])
}

/// Time `Service::handle` in-process on the same requests in the same
/// order against a fresh service: what a reply costs without HTTP.
fn replay_handle_s(state: &State, batches: usize) -> Vec<Vec<f64>> {
    let service = Service::new(ServiceConfig::default());
    let handle = |p: &Planned| {
        let req = Request {
            method: "POST".to_string(),
            path: "/v1/prove".to_string(),
            body: p.body.clone(),
        };
        let t0 = Instant::now();
        std::hint::black_box(service.handle(&req));
        t0.elapsed().as_secs_f64()
    };
    state.warmup.iter().for_each(|p| {
        handle(p);
    });
    state.batches[..batches]
        .iter()
        .map(|b| b.iter().map(handle).collect())
        .collect()
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::new();
    let epoch = Instant::now();
    let clients = nproc();
    let mut setup_s = Vec::new();
    let mut state = None;
    for _ in 0..3 {
        // The previous service stops (and its threads join) first.
        drop(state.take());
        let t0 = Instant::now();
        state = Some(set_up(cfg, &mut out));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut state = state.expect("set-up ran");
    let addr = state.server.addr();
    let before = status_counters(addr);

    let mut batch_s = Samples::new();
    let mut replies: Vec<Vec<Result<Reply, String>>> = Vec::new();
    let mut budget = Budget::new(cfg.seconds, 3);
    while replies.len() < MAX_BATCHES && budget.admit() {
        out.jitter.sample();
        let b = replies.len();
        let batch = &state.batches[b];
        let next = AtomicUsize::new(0);
        let t0 = Instant::now();
        let mut got: Vec<(usize, Result<Reply, String>)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..clients)
                .map(|_| {
                    scope.spawn(|| {
                        let mut mine = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(p) = batch.get(i) else {
                                return mine;
                            };
                            mine.push((i, http(addr, "POST", "/v1/prove", &p.body)));
                        }
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("client thread"))
                .collect()
        });
        batch_s.push(t0.elapsed().as_secs_f64());
        got.sort_by_key(|(i, _)| *i);
        // Checked between batches, off the clock.
        for (i, reply) in &got {
            let program = state.batches[b][*i].program;
            let checked = state.verify(program, reply);
            out.check(checked);
        }
        replies.push(got.into_iter().map(|(_, r)| r).collect());
    }
    let after = status_counters(addr);
    out.check(before.as_ref().map(|_| ()).map_err(String::clone));
    out.check(after.as_ref().map(|_| ()).map_err(String::clone));

    let latency = |keep: &dyn Fn(&Planned) -> bool| -> Samples {
        replies
            .iter()
            .zip(&state.batches)
            .flat_map(|(rs, ps)| rs.iter().zip(ps))
            .filter(|(_, p)| keep(p))
            .filter_map(|(r, _)| r.as_ref().ok().map(|r| r.total_s))
            .collect()
    };
    let all = latency(&|_| true);
    // Batches are not repeats of one operation (their never-seen
    // programs differ), so the gated batch time is the lower quartile.
    out.set_pass_metrics(cfg.trace, &batch_s, batch_s.p25(), all.p50());
    if cfg.trace {
        let handled = replay_handle_s(&state, replies.len());
        let connect: Samples = replies
            .iter()
            .flatten()
            .filter_map(|r| r.as_ref().ok().map(|r| r.connect_s))
            .collect();
        let handle: Samples = handled.iter().flatten().copied().collect();
        // The client threads timed connect and the whole round trip;
        // the exchange between them contains the handling, measured
        // in-process on the same request.
        let mut t = Tracer::new(epoch);
        for (b, rs) in replies.iter().enumerate() {
            for (i, r) in rs.iter().enumerate() {
                let Ok(r) = r else { continue };
                t.set_id((b * BATCH + i) as u64);
                let req = t.record("request", r.started, r.total_s, None);
                t.record("serve.connect", r.started, r.connect_s, Some(req));
                let ex = t.record(
                    "serve.exchange",
                    r.started + Duration::from_secs_f64(r.connect_s),
                    r.total_s - r.connect_s,
                    Some(req),
                );
                t.derived(ex, "serve.handle", handled[b][i] * 1e6);
            }
        }
        let m = &mut out.metrics;
        m.set("serve.requests", all.len() as f64);
        m.set("serve.rps", BATCH as f64 / batch_s.p25());
        m.set("serve.hot_p50_ms", latency(&|p| p.hot).p50() * 1e3);
        m.set("serve.novel_p50_ms", latency(&|p| !p.hot).p50() * 1e3);
        m.set("serve.p90_ms", all.p90() * 1e3);
        m.set("serve.p99_ms", all.quantile(0.99) * 1e3);
        m.set("serve.connect_ms", connect.p50() * 1e3);
        m.set("serve.handle_ms", handle.p50() * 1e3);
        m.set(
            "serve.accept_wait_ms",
            (all.p50() - handle.p50() - connect.p50()) * 1e3,
        );
        if let (Ok(b), Ok(a)) = (&before, &after) {
            for (k, name) in [
                "serve.degraded",
                "serve.fallbacks",
                "serve.rejected_429",
                "serve.fingerprint_hits",
                "serve.cache_inserts",
            ]
            .iter()
            .enumerate()
            {
                m.set(name, a[k] - b[k]);
            }
        }
        m.set(
            "bench.unattributed_share",
            t.ledger("request").unattributed_share(),
        );
        m.set("bench.inputs_hash", inputs::inputs_hash48(&state.programs));
        out.trace = Some(t);
    } else {
        let m = &mut out.metrics;
        m.set("setup_s", median(&setup_s));
        // Over the distinct programs answered, so the hot set's weight in
        // the traffic does not skew it.
        let (proved, analysed) = state
            .decided
            .iter()
            .flatten()
            .fold((0, 0), |(p, a), d| (p + d.0, a + d.1));
        m.set("proved_share", proved as f64 / analysed.max(1) as f64);
    }
    state.server.shutdown();
    out
}
