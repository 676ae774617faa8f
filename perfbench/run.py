#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --serve-rate 60000 --workload fib --seed 1 --seconds 40 --trace 0

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones; with --trace 1 they are the per-layer ones of the
separate traced run. Lines before it are a readable report. The exit
code is 0 only when every output check passed. README.md defines the
workloads and every metric.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 170  # a run must end within 180 s; leave room to report


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def run_logged(cmd, logfile):
    with open(logfile, "ab") as out:
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode


def build():
    """Configures and builds the binary (incremental after the first run)."""
    bdir = build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    logfile = bdir / "build.log"
    with open(bdir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        configure = ["cmake", "-S", str(HERE), "-B", str(bdir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") and not (bdir / "CMakeCache.txt").exists():
            configure += ["-G", "Ninja"]
        if not (bdir / "CMakeCache.txt").exists() or not (bdir / "perfbench").exists():
            if run_logged(configure, logfile) != 0:
                return None
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        if run_logged(["cmake", "--build", str(bdir), "-j", jobs], logfile) != 0:
            return None
    binary = bdir / "perfbench"
    return binary if binary.exists() else None


def source_digest():
    """sha256 over every file the build reads (path + content)."""
    files = [HERE / "CMakeLists.txt", HERE / "run.py"]
    for top in (ROOT / "src", HERE / "src"):
        files += [p for p in top.rglob("*") if p.is_file()]
    h = hashlib.sha256()
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def git_sha():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unavailable"
    except (OSError, subprocess.SubprocessError):
        return "unavailable"


def cmake_cache(key):
    cache = build_dir() / "CMakeCache.txt"
    if cache.exists():
        for line in cache.read_text(errors="replace").splitlines():
            if line.startswith(key + ":"):
                return line.split("=", 1)[1]
    return ""


def report(doc, final):
    print(f"perfbench workload={doc['workload']} seed={doc['seed']} "
          f"trace={int(doc['trace'])}")
    for m in doc["metrics"]:
        flag = "  (partial)" if m.get("partial") else ""
        print(f"  {m['name']:<32} {m['value']:>16.6g} {m['unit']}{flag}")
    for name, d in doc.get("details", {}).items():
        if isinstance(d, dict):
            print(f"  detail {name}: n={d['n']} median={d['median']:.6g} "
                  f"q1={d['q1']:.6g} q3={d['q3']:.6g}")
        else:
            print(f"  detail {name}: {d}")
    rate = final["failed"] / final["attempted"] if final["attempted"] else 1.0
    print(f"  error_rate {rate:.3g} ({final['failed']} of {final['attempted']} "
          f"operations failed)")
    for f in doc.get("failures", []):
        print(f"  FAILED: {f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["fib", "graph"])
    ap.add_argument("--default-seed", type=int, default=1)
    ap.add_argument("--held-out-seed", type=int, default=None,
                    help="recorded; later claims must also hold on it")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--serve-rate", type=float, required=True,
                    help="open-loop arrival rate, jobs/s (a fixed constant)")
    ap.add_argument("--inject-fault", action="store_true",
                    help="corrupt one solve output; the run must then fail")
    ap.add_argument("--out", default=None,
                    help="also write the full record (JSON) to this file")
    args = ap.parse_args()
    seed = args.default_seed if args.seed is None else args.seed

    start = time.monotonic()
    binary = build()
    if binary is None:
        log(f"perfbench: build failed; see {build_dir() / 'build.log'}")
        return 2
    cmd = [str(binary), "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve-rate", str(args.serve_rate)]
    if args.inject_fault:
        cmd.append("--inject-fault")
    limit = max(30.0, RUN_LIMIT_S - (time.monotonic() - start))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=limit)
    except subprocess.TimeoutExpired:
        log(f"perfbench: run exceeded {limit:.0f} s")
        return 3
    try:
        doc = json.loads(proc.stdout)
    except ValueError:
        log(f"perfbench: no result from the binary (exit {proc.returncode})")
        return 3

    metrics = {m["name"]: {"value": m["value"], "unit": m["unit"]}
               for m in doc["metrics"]}
    finite = all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                 for m in metrics.values())
    correct = proc.returncode == 0 and doc["failed"] == 0 and finite
    final = {"correct": correct, "attempted": int(doc["attempted"]),
             "failed": int(doc["failed"]), "metrics": metrics}

    doc["provenance"].update({
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "cmake_build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "cxx_compiler": cmake_cache("CMAKE_CXX_COMPILER"),
        "seed": seed,
        "default_seed": args.default_seed,
        "held_out_seed": args.held_out_seed,
        "serve_rate": args.serve_rate,
        "seconds": args.seconds,
    })
    report(doc, final)
    if args.out:
        Path(args.out).write_text(json.dumps({"result": final, "record": doc},
                                             indent=1) + "\n")
    print(json.dumps(final), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
