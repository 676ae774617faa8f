#!/usr/bin/env python3
"""Records one trajectory point: repeated runs of every workload.

Run from the repository root:

    python3 perfbench/record.py --out perfbench/history/<name>.json

For each workload in BENCHMARK.json it makes two passes of ten --trace 0
runs, each pass on seeds 1..10, then one --trace 1 run on seed 1. It
writes every run's full record plus a summary. For each end-to-end metric
and pass, the summary gives the median and the spread, (q3 - q1) / median
from statistics.quantiles(values, n=4), next to the metric's bound, and
the shift: how much worse the second pass's median is than the first's,
as a share of the first. The exit code is 1 if any run failed its checks,
any spread is at least a third of its bound, or any shift exceeds its
bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
PASSES = 2


def run(cmd, workload, seed, seconds, trace):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "record.json"
        full = cmd + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace),
                      "--out", str(out)]
        proc = subprocess.run(full, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if not out.exists():
            sys.exit(f"record: no result from {' '.join(full)}")
        rec = json.loads(out.read_text())
    print(proc.stdout.strip().splitlines()[-1], flush=True)
    return rec


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd, seconds = bench["command"], bench["run_seconds"]
    ok = True
    doc = {"benchmark": bench, "workloads": {}}
    for w in bench["workloads"]:
        name = w["name"]
        passes = [[run(cmd, name, s, seconds, 0) for s in SEEDS]
                  for _ in range(PASSES)]
        traced = run(cmd, name, 1, seconds, 1)
        summary = {}
        for m in bench["end_to_end"]:
            per_pass = [summarize([r["result"]["metrics"][m["name"]]["value"]
                                   for r in runs]) for runs in passes]
            first, last = per_pass[0]["median"], per_pass[-1]["median"]
            sign = 1 if m["better"] == "lower" else -1
            shift = sign * (last - first) / first
            steady = (all(p["spread"] < m["bound"] / 3 for p in per_pass)
                      and shift <= m["bound"])
            ok = ok and steady
            summary[m["name"]] = {"passes": per_pass, "shift": shift,
                                  "bound": m["bound"], "unit": m["unit"],
                                  "steady": steady}
            spreads = " ".join(f"{p['spread']:.3f}" for p in per_pass)
            print(f"{name:6} {m['name']:16} median={first:<12.6g} "
                  f"spreads={spreads} shift={shift:+.3f} bound={m['bound']}"
                  f"{'' if steady else '  NOT STEADY'}", flush=True)
        runs = [r for p in passes for r in p]
        ok = ok and all(r["result"]["correct"] for r in runs + [traced])
        doc["workloads"][name] = {"summary": summary, "passes": passes,
                                  "traced": traced}
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
