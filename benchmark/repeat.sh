#!/usr/bin/env bash
# Repeatability of the benchmark against its own bounds, the way the
# driver checks it: two sets of N untraced runs per workload (seeds 1..N
# in both), then for every end-to-end metric x workload
#   spread = (Q3 - Q1) / median of a set's N values   (not gated for setup_s)
#   shift  = how much worse set B's median is than set A's
# PASS when both stay within the metric's bound in BENCHMARK.json.
# Each set also makes one traced run per workload (seed 1): the counts a
# later change may cite as evidence must repeat exactly between the sets.
#
#   benchmark/repeat.sh N [SECONDS]     (SECONDS defaults to run_seconds)
# Prints a markdown table; REPEATABILITY.md is this output for N = 10.
set -euo pipefail
cd "$(dirname "$0")/.."
n="${1:?usage: benchmark/repeat.sh N [SECONDS]}"
seconds="${2:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}"
mkdir -p benchmark/out
log="benchmark/out/repeat-$$.jsonl"
: > "$log"
for set in A B; do
    for workload in prove_heavy frontend_corpus reanalyze exec_adjoint serve_mix; do
        for seed in $(seq 1 "$n"); do
            result="$(benchmark/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)"
            echo "{\"set\":\"$set\",\"workload\":\"$workload\",\"seed\":$seed,\"result\":$result}" >> "$log"
        done
        result="$(benchmark/run.sh --workload "$workload" --seed 1 --seconds "$seconds" --trace 1 | tail -n 1)"
        echo "{\"set\":\"$set\",\"workload\":\"$workload\",\"seed\":0,\"result\":$result}" >> "$log"
    done
done
python3 - "$log" "$n" "$seconds" <<'PY'
import json, statistics, sys
rows = [json.loads(l) for l in open(sys.argv[1])]
traced = [r for r in rows if r["seed"] == 0]
rows = [r for r in rows if r["seed"] != 0]
bench = json.load(open("BENCHMARK.json"))
print(f"Two sets of {sys.argv[2]} runs per workload, {sys.argv[3]} s each, seeds 1..{sys.argv[2]}.\n")
print("| workload | metric | unit | min | median A | median B | max | spread A | spread B | shift B vs A | bound | |")
print("|---|---|---|---|---|---|---|---|---|---|---|---|")
ok = all(r["result"]["correct"] for r in rows)
for w in [x["name"] for x in bench["workloads"]]:
    for m in bench["end_to_end"]:
        v = {s: [r["result"]["metrics"][m["name"]]["value"] for r in rows
                 if r["set"] == s and r["workload"] == w] for s in "AB"}
        med = {s: statistics.median(v[s]) for s in "AB"}
        def spread(xs):
            q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
            return (q[2] - q[0]) / statistics.median(xs)
        worse = (med["B"] - med["A"]) / med["A"] * (1 if m["better"] == "lower" else -1)
        gated = [worse] + ([] if m["name"] == "setup_s" else [spread(v["A"]), spread(v["B"])])
        good = max(gated) <= m["bound"]
        ok &= good
        allv = v["A"] + v["B"]
        print(f"| {w} | {m['name']} | {m['unit']} | {min(allv):.6g} | {med['A']:.6g} | {med['B']:.6g} | "
              f"{max(allv):.6g} | {spread(v['A']):.3f} | {spread(v['B']):.3f} | {worse:+.3f} | "
              f"{m['bound']} | {'PASS' if good else 'FAIL'} |")
# Counts that do not depend on how many passes fit into the run.
EXACT = ("smt.", "machine.sim_", "ir.source_bytes", "ir.adjoint_bytes", "ad.adjoint_stmts",
         "core.regions", "core.queries", "core.fingerprint_served", "bench.inputs_hash")
differ = []
for w in [x["name"] for x in bench["workloads"]]:
    a, b = ([r["result"]["metrics"] for r in traced if r["set"] == s and r["workload"] == w][0] for s in "AB")
    differ += [f"{w}:{k}" for k in a if k.startswith(EXACT) and a[k]["unit"] != "s" and a[k]["value"] != b[k]["value"]]
print(f"\nCount metrics that differ between the two traced runs of a workload: {differ or 'none'}.")
ok &= not differ and all(r["result"]["correct"] for r in traced)
failed = sum(r["result"]["failed"] for r in rows + traced)
print(f"\nChecked operations that failed, over all runs: {failed}.")
sys.exit(0 if ok else 1)
PY
