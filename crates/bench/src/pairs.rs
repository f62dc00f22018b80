//! `repro pairs`: the frozen benchmark run as alternated pairs against a
//! parent commit, summarized against `BENCHMARK.json`'s bounds.
//!
//! Absolute numbers on a shared host drift by more than most gains from
//! one hour to the next, so a change is only ever compared with its
//! parent measured alternately beside it: the parent is checked out next
//! to the working tree with a target directory of its own, and
//! `benchmark/run.sh --workload W --seed S --seconds T --trace 0`
//! alternates between the two checkouts, the parent first on odd pairs.
//! Every result line goes to `bench/pairs/<sha>.json` with the host's
//! `nproc`, one session per invocation, where `<sha>` names the working
//! tree (`<HEAD>-dirty` when it has uncommitted edits). Per (metric, workload) the summary gives
//! both medians and quartiles, how many pairs the change won, and a
//! verdict:
//!
//! - `worse` — the change's median is worse than the parent's by more
//!   than the metric's bound;
//! - `gain` — the change won at least 9 of every 10 pairs and its median
//!   is better by more than the parent's interquartile distance;
//! - `within` — neither.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

use formad::json::{obj, Json};

/// Which checkout a run came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    Parent,
    Change,
}

impl Side {
    fn label(self) -> &'static str {
        match self {
            Side::Parent => "parent",
            Side::Change => "change",
        }
    }
}

/// One run of one workload: where it came from and its result line.
#[derive(Debug, Clone)]
pub struct Run {
    pub workload: String,
    pub pair: usize,
    pub seed: u64,
    pub side: Side,
    pub result: Json,
}

impl Run {
    fn metric(&self, name: &str) -> Option<f64> {
        self.result
            .get("metrics")?
            .get(name)?
            .get("value")?
            .as_f64()
    }

    fn failed(&self) -> u64 {
        self.result
            .get("failed")
            .and_then(Json::as_u64)
            .unwrap_or(0)
    }
}

/// An end-to-end metric of `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// The end-to-end metrics and workloads `BENCHMARK.json` declares.
pub fn benchmark_spec(text: &str) -> Result<(Vec<String>, Vec<Bound>), String> {
    let spec = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let field = |j: &Json, k: &str| {
        j.get(k)
            .cloned()
            .ok_or_else(|| format!("BENCHMARK.json: missing `{k}`"))
    };
    let workloads = field(&spec, "workloads")?
        .as_arr()
        .unwrap_or(&[])
        .iter()
        .filter_map(|w| w.get("name")?.as_str().map(str::to_string))
        .collect();
    let mut bounds = Vec::new();
    for m in field(&spec, "end_to_end")?.as_arr().unwrap_or(&[]) {
        let (Some(name), Some(better), Some(bound)) = (
            m.get("name").and_then(Json::as_str),
            m.get("better").and_then(Json::as_str),
            m.get("bound").and_then(Json::as_f64),
        ) else {
            return Err("BENCHMARK.json: an end_to_end metric lacks name/better/bound".into());
        };
        bounds.push(Bound {
            name: name.to_string(),
            lower_is_better: better == "lower",
            bound,
        });
    }
    Ok((workloads, bounds))
}

/// Median and quartiles of a sample (linear interpolation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    let at = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
}

fn spread(values: &[f64]) -> Spread {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Spread {
        q1: quantile(&v, 0.25),
        median: quantile(&v, 0.5),
        q3: quantile(&v, 0.75),
    }
}

/// What the pairs say about one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Gain,
    Within,
    Worse,
}

/// The summary of one (metric, workload).
#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub parent: Spread,
    pub change: Spread,
    pub wins: usize,
    pub pairs: usize,
    pub verdict: Verdict,
}

/// Summarize the runs of every workload present, metric by metric.
pub fn summarize(runs: &[Run], bounds: &[Bound]) -> Vec<Row> {
    let mut workloads: Vec<&str> = runs.iter().map(|r| r.workload.as_str()).collect();
    workloads.dedup();
    let mut rows = Vec::new();
    for w in workloads {
        for b in bounds {
            // (parent, change) values of each complete pair.
            let mut pairs: Vec<(f64, f64)> = Vec::new();
            let of = |pair: usize, side: Side| {
                runs.iter()
                    .find(|r| r.workload == w && r.pair == pair && r.side == side)
                    .and_then(|r| r.metric(&b.name))
            };
            let mut ids: Vec<usize> = runs
                .iter()
                .filter(|r| r.workload == w)
                .map(|r| r.pair)
                .collect();
            ids.sort_unstable();
            ids.dedup();
            for pair in ids {
                if let (Some(p), Some(c)) = (of(pair, Side::Parent), of(pair, Side::Change)) {
                    pairs.push((p, c));
                }
            }
            if pairs.is_empty() {
                continue;
            }
            let better = |c: f64, p: f64| if b.lower_is_better { c < p } else { c > p };
            let parent = spread(&pairs.iter().map(|p| p.0).collect::<Vec<_>>());
            let change = spread(&pairs.iter().map(|p| p.1).collect::<Vec<_>>());
            let wins = pairs.iter().filter(|&&(p, c)| better(c, p)).count();
            let sign = if b.lower_is_better { 1.0 } else { -1.0 };
            let worse_by = sign * (change.median - parent.median) / parent.median;
            let gap = -sign * (change.median - parent.median);
            let verdict = if worse_by > b.bound {
                Verdict::Worse
            } else if wins * 10 >= pairs.len() * 9 && gap > parent.q3 - parent.q1 {
                Verdict::Gain
            } else {
                Verdict::Within
            };
            rows.push(Row {
                workload: w.to_string(),
                metric: b.name.clone(),
                parent,
                change,
                wins,
                pairs: pairs.len(),
                verdict,
            });
        }
    }
    rows
}

/// The summary as a markdown table.
pub fn render(rows: &[Row]) -> String {
    let mut s = String::from(
        "| workload | metric | parent median [Q1, Q3] | change median [Q1, Q3] | change ÷ parent | wins | verdict |\n\
         |---|---|---|---|---|---|---|\n",
    );
    for r in rows {
        let _ = writeln!(
            s,
            "| {} | {} | {:.6} [{:.6}, {:.6}] | {:.6} [{:.6}, {:.6}] | {:.3} | {}/{} | {} |",
            r.workload,
            r.metric,
            r.parent.median,
            r.parent.q1,
            r.parent.q3,
            r.change.median,
            r.change.q1,
            r.change.q3,
            r.change.median / r.parent.median,
            r.wins,
            r.pairs,
            match r.verdict {
                Verdict::Gain => "gain",
                Verdict::Within => "within",
                Verdict::Worse => "WORSE",
            }
        );
    }
    s
}

/// How to run the pairs.
#[derive(Debug, Clone)]
pub struct PairsOptions {
    pub parent: String,
    pub workloads: Vec<String>,
    pub pairs: usize,
    pub seeds: Vec<u64>,
    pub seconds: u64,
}

fn git(dir: &Path, args: &[&str]) -> Result<String, String> {
    let out = Command::new("git")
        .current_dir(dir)
        .args(args)
        .output()
        .map_err(|e| format!("git {}: {e}", args.join(" ")))?;
    if !out.status.success() {
        return Err(format!(
            "git {}: {}",
            args.join(" "),
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Run `cmd` in `dir` with `CARGO_TARGET_DIR=target_dir`; its stdout.
fn run_in(dir: &Path, target_dir: &Path, cmd: &[&str]) -> Result<String, String> {
    let out = Command::new(cmd[0])
        .args(&cmd[1..])
        .current_dir(dir)
        .env("CARGO_TARGET_DIR", target_dir)
        .output()
        .map_err(|e| format!("{}: {e}", cmd.join(" ")))?;
    if !out.status.success() {
        return Err(format!(
            "{} in {}: {}",
            cmd.join(" "),
            dir.display(),
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout).to_string())
}

/// Check out `rev` of the repository at `root` in a directory of its own
/// under `root/target/pairs`, with its own target directory.
fn checkout(root: &Path, rev: &str) -> Result<PathBuf, String> {
    let dir = root.join("target").join("pairs").join(rev);
    if !dir.join(".git").exists() {
        std::fs::create_dir_all(dir.parent().expect("under target"))
            .map_err(|e| format!("{}: {e}", dir.display()))?;
        let dir_s = dir.to_string_lossy().to_string();
        git(
            root,
            &["clone", "--quiet", "--shared", "--no-checkout", ".", &dir_s],
        )?;
    }
    git(&dir, &["checkout", "--quiet", "--detach", rev])?;
    Ok(dir)
}

/// Build both checkouts, alternate the runs, write the pairs file and
/// print the summary. `Err` on any failed step.
pub fn run_pairs(opts: &PairsOptions) -> Result<(), String> {
    let root = PathBuf::from(git(Path::new("."), &["rev-parse", "--show-toplevel"])?);
    let parent_sha = git(&root, &["rev-parse", &opts.parent])?;
    // The change is the working tree: `<HEAD>-dirty` when it has edits.
    let change_sha = git(&root, &["describe", "--always", "--abbrev=40", "--dirty"])?;
    let spec = std::fs::read_to_string(root.join("BENCHMARK.json"))
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let (all_workloads, bounds) = benchmark_spec(&spec)?;
    let workloads = if opts.workloads.is_empty() {
        all_workloads
    } else {
        opts.workloads.clone()
    };
    let parent_dir = checkout(&root, &parent_sha)?;
    let sides = [
        (Side::Parent, parent_dir.clone(), parent_dir.join("target")),
        (Side::Change, root.clone(), root.join("target")),
    ];
    for (side, dir, target) in &sides {
        eprintln!("pairs: building the {} at {}", side.label(), dir.display());
        for manifest in ["benchmark/Cargo.toml", "crates/cli/Cargo.toml"] {
            let build = ["cargo", "build", "--release", "--offline", "--quiet"];
            run_in(
                dir,
                target,
                &[&build[..], &["--manifest-path", manifest]].concat(),
            )?;
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let seconds = opts.seconds.to_string();
    let mut runs = Vec::new();
    for w in &workloads {
        for pair in 1..=opts.pairs {
            let seed = opts.seeds[(pair - 1) % opts.seeds.len()];
            let order = if pair % 2 == 1 { [0, 1] } else { [1, 0] };
            let mut hashes = Vec::new();
            for k in order {
                let (side, dir, target) = &sides[k];
                let seed_s = seed.to_string();
                let cmd = [
                    "bash",
                    "benchmark/run.sh",
                    "--workload",
                    w,
                    "--seed",
                    &seed_s,
                    "--seconds",
                    &seconds,
                    "--trace",
                    "0",
                ];
                let out = run_in(dir, target, &cmd)?;
                let line = out.lines().last().unwrap_or("");
                let result = Json::parse(line).map_err(|e| format!("{w} {seed}: {e}"))?;
                hashes.push(
                    result
                        .get("metrics")
                        .and_then(|m| m.get("bench.inputs_hash"))
                        .cloned(),
                );
                eprintln!("pairs: {w} pair {pair} seed {seed} {} done", side.label());
                runs.push(Run {
                    workload: w.clone(),
                    pair,
                    seed,
                    side: *side,
                    result,
                });
            }
            if let [Some(a), Some(b)] = &hashes[..] {
                if a != b {
                    return Err(format!("{w} pair {pair}: the inputs differ ({a} vs {b})"));
                }
            }
        }
    }
    let file = root
        .join("bench")
        .join("pairs")
        .join(format!("{change_sha}.json"));
    std::fs::create_dir_all(file.parent().expect("in bench/pairs"))
        .map_err(|e| format!("{}: {e}", file.display()))?;
    // Earlier sessions against the same parent stay in the file.
    let mut sessions: Vec<Json> = std::fs::read_to_string(&file)
        .ok()
        .and_then(|text| Json::parse(&text).ok())
        .filter(|doc| doc.get("parent").and_then(Json::as_str) == Some(parent_sha.as_str()))
        .and_then(|doc| {
            doc.get("sessions")
                .and_then(Json::as_arr)
                .map(<[Json]>::to_vec)
        })
        .unwrap_or_default();
    sessions.push(session_json(nproc, opts, &runs));
    let doc = obj(vec![
        ("parent", parent_sha.as_str().into()),
        ("change", change_sha.as_str().into()),
        ("sessions", Json::Arr(sessions)),
    ]);
    std::fs::write(&file, format!("{}\n", doc.render()))
        .map_err(|e| format!("{}: {e}", file.display()))?;
    let rows = summarize(&runs, &bounds);
    println!(
        "pairs: change {change_sha} vs parent {parent_sha}, nproc {nproc}, {} pairs × {} s",
        opts.pairs, opts.seconds
    );
    print!("{}", render(&rows));
    let failed: u64 = runs.iter().map(Run::failed).sum();
    println!(
        "failed operations over all runs: {failed}; wrote {}",
        file.display()
    );
    Ok(())
}

/// One invocation's host record, settings and result lines.
fn session_json(nproc: usize, opts: &PairsOptions, runs: &[Run]) -> Json {
    let runs = runs
        .iter()
        .map(|r| {
            obj(vec![
                ("workload", r.workload.as_str().into()),
                ("pair", r.pair.into()),
                ("seed", r.seed.into()),
                ("side", r.side.label().into()),
                ("result", r.result.clone()),
            ])
        })
        .collect();
    let seeds = opts.seeds.iter().map(|&s| s.into()).collect();
    obj(vec![
        ("nproc", nproc.into()),
        ("seconds", opts.seconds.into()),
        ("pairs", opts.pairs.into()),
        ("seeds", Json::Arr(seeds)),
        ("runs", Json::Arr(runs)),
    ])
}

/// The summary logic on synthetic result lines, no build: a clear gain,
/// a regression past its bound, noise, and the 9-in-10 rule's edge.
pub fn self_test() -> Result<(), String> {
    let bounds = vec![
        Bound {
            name: "pass_s".into(),
            lower_is_better: true,
            bound: 0.25,
        },
        Bound {
            name: "proved_share".into(),
            lower_is_better: false,
            bound: 0.1,
        },
    ];
    let line = |pass_s: f64, share: f64| {
        Json::parse(&format!(
            r#"{{"correct":true,"attempted":9,"failed":0,"metrics":{{"pass_s":{{"value":{pass_s},"unit":"s"}},"proved_share":{{"value":{share},"unit":"share"}}}}}}"#
        ))
        .expect("synthetic line")
    };
    // `parent[k]`, `change[k]`: pass_s of pair k + 1; the share is fixed.
    let runs_of = |w: &str, parent: &[f64], change: &[f64], share: (f64, f64)| -> Vec<Run> {
        let mut out = Vec::new();
        for (k, (&p, &c)) in parent.iter().zip(change).enumerate() {
            for (side, v, s) in [(Side::Parent, p, share.0), (Side::Change, c, share.1)] {
                out.push(Run {
                    workload: w.into(),
                    pair: k + 1,
                    seed: k as u64 + 1,
                    side,
                    result: line(v, s),
                });
            }
        }
        out
    };
    let parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1];
    let faster: Vec<f64> = parent.iter().map(|p| p * 0.8).collect();
    let slower: Vec<f64> = parent.iter().map(|p| p * 1.4).collect();
    let mut edge = faster.clone();
    edge[0] = 11.0; // 9 wins of 10
    let mut lost = edge.clone();
    lost[1] = 11.0; // 8 wins of 10
    let mut runs = runs_of("gain", &parent, &faster, (0.5, 0.5));
    runs.extend(runs_of("regression", &parent, &slower, (0.5, 0.4)));
    runs.extend(runs_of(
        "noise",
        &parent,
        &parent.map(|p| p + 0.01),
        (0.5, 0.5),
    ));
    runs.extend(runs_of("nine-of-ten", &parent, &edge, (0.5, 0.5)));
    runs.extend(runs_of("eight-of-ten", &parent, &lost, (0.5, 0.5)));
    let rows = summarize(&runs, &bounds);
    let verdict = |w: &str, m: &str| {
        rows.iter()
            .find(|r| r.workload == w && r.metric == m)
            .map(|r| (r.verdict, r.wins))
    };
    let expect = [
        ("gain", "pass_s", Verdict::Gain, 10),
        ("gain", "proved_share", Verdict::Within, 0),
        ("regression", "pass_s", Verdict::Worse, 0),
        ("regression", "proved_share", Verdict::Worse, 0),
        ("noise", "pass_s", Verdict::Within, 0),
        ("nine-of-ten", "pass_s", Verdict::Gain, 9),
        ("eight-of-ten", "pass_s", Verdict::Within, 8),
    ];
    for (w, m, v, wins) in expect {
        let got = verdict(w, m);
        if got != Some((v, wins)) {
            return Err(format!(
                "{w}/{m}: expected {v:?} with {wins} wins, got {got:?}"
            ));
        }
    }
    let text = render(&rows);
    if !text.contains("| gain | pass_s |") || !text.contains("WORSE") {
        return Err(format!("unexpected rendering:\n{text}"));
    }
    let spec = r#"{"workloads":[{"name":"a"}],"end_to_end":[{"name":"pass_s","better":"lower","bound":0.25}]}"#;
    let (w, b) = benchmark_spec(spec)?;
    if w != ["a"] || b.len() != 1 || !b[0].lower_is_better {
        return Err("BENCHMARK.json reading".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn self_test_passes() {
        super::self_test().unwrap();
    }

    #[test]
    fn quartiles_interpolate() {
        let s = super::spread(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.0, 3.0, 4.0));
        let s = super::spread(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.25, 1.5, 1.75));
    }
}
