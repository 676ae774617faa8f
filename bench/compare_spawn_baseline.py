#!/usr/bin/env python3
"""Perf regression gate for the spawn/join fast path.

Compares a fresh BENCH_spawn_path.json (written by bench_spawn_path)
against the checked-in baseline and fails when the measured spawn+sync
pair exceeds RATIO_MAX times the baseline envelope. The envelope is a
conservative shared-runner number, so a failure here means the fast path
structurally regressed (a lock, a malloc, pedigree maintenance growing an
allocation) — not noise.

It also fails when the single-worker fib leg drew any task-pool block:
an unstolen spawn keeps its spawn record in the child's slot, so that leg
must allocate exactly nothing. This check is exact, not a ratio.

Usage: compare_spawn_baseline.py <measured.json> <baseline.json>
Exit status: 0 within budget, 1 over budget or unreadable input.
"""

import json
import sys

RATIO_MAX = 1.3
# Catastrophic-only floor for the wide-pfor contention leg: the baseline
# envelope is a dev-host number and CI runners are slower, so only a
# collapse below a quarter of it (the slab layer dead, every task back on
# ::operator new) fails the gate.
WIDE_PFOR_FLOOR_RATIO = 0.25


def wide_pfor_rate(doc: dict) -> float:
    for leg in doc.get("throughput", []):
        if leg.get("workload") == "wide_pfor_grain1":
            return float(leg["spawns_per_sec"])
    raise KeyError("no wide_pfor_grain1 throughput leg")


def p1_fib_task_allocs_per_spawn(doc: dict) -> float:
    for leg in doc.get("throughput", []):
        if leg.get("workload") == "fib_cutoff0" and leg.get("workers") == 1:
            return float(leg["task_allocs_per_spawn"])
    raise KeyError("no single-worker fib_cutoff0 throughput leg")


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    try:
        with open(sys.argv[1]) as f:
            measured = json.load(f)
        with open(sys.argv[2]) as f:
            baseline = json.load(f)
        pair = float(measured["pair_ns"])
        base = float(baseline["pair_ns"])
    except (OSError, KeyError, ValueError) as e:
        print(f"FAIL: cannot read pair_ns: {e}", file=sys.stderr)
        return 1
    budget = base * RATIO_MAX
    ok = pair <= budget
    verdict = "OK" if ok else "FAIL"
    print(
        f"{verdict}: spawn+sync pair {pair:.1f}ns, "
        f"baseline {base:.1f}ns, budget {budget:.1f}ns ({RATIO_MAX}x)"
    )
    try:
        wide = wide_pfor_rate(measured)
        wide_base = float(baseline["wide_pfor_spawns_per_sec"])
    except (KeyError, ValueError) as e:
        print(f"FAIL: cannot read wide-pfor leg: {e}", file=sys.stderr)
        return 1
    floor = wide_base * WIDE_PFOR_FLOOR_RATIO
    wide_ok = wide >= floor
    ok = ok and wide_ok
    print(
        f"{'OK' if wide_ok else 'FAIL'}: wide-pfor {wide:.0f} spawns/s, "
        f"baseline {wide_base:.0f}, floor {floor:.0f} "
        f"({WIDE_PFOR_FLOOR_RATIO}x)"
    )
    try:
        allocs = p1_fib_task_allocs_per_spawn(measured)
    except (KeyError, ValueError) as e:
        print(f"FAIL: cannot read P=1 fib task allocations: {e}", file=sys.stderr)
        return 1
    allocs_ok = allocs == 0
    ok = ok and allocs_ok
    print(
        f"{'OK' if allocs_ok else 'FAIL'}: P=1 fib draws "
        f"{allocs:g} task-pool blocks per spawn (must be 0)"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
