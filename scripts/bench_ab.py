#!/usr/bin/env python3
"""Alternating A/B runs of the benchmark on two checkouts.

Usage::

    python3 scripts/bench_ab.py PARENT_DIR CHANGE_DIR --workload W --pairs N --seed0 S

Pair ``i`` runs ``python3 perfbench/run.py --workload W --seed S+i
--seconds T --trace 0`` once in each checkout, one run at a time; even pairs
run the parent first, odd pairs the change.  ``T`` is ``run_seconds`` and
the metrics are the ``end_to_end`` entries of ``BENCHMARK.json``; both
checkouts must hold the same ``BENCHMARK.json`` and the same files under
its ``paths``, so that both sides run the same benchmark.

Each run's result line goes to stderr as it arrives.  Stdout gets one
markdown table row per end-to-end metric: each side's median and quartiles,
the ratio of the medians (change / parent), the pairs the change wins (ties
count for neither side), and whether the medians differ by more than the
parent's quartile spread; then the failed and attempted requests of each
side.  Exits 2 when the checkouts' benchmarks differ or a run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def benchmark(checkout: Path) -> tuple:
    """The parsed ``BENCHMARK.json``, and the bytes of it and of every file
    under its ``paths``, keyed by relative path."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    files = {"BENCHMARK.json": (checkout / "BENCHMARK.json").read_bytes()}
    for root in spec["paths"]:
        for path in sorted((checkout / root).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                files[path.relative_to(checkout).as_posix()] = path.read_bytes()
    return spec, files


def run_once(checkout: Path, workload: str, seed: int, seconds) -> dict:
    """One untraced benchmark run; its last stdout line, parsed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(xs) -> tuple:
    """(first quartile, median, third quartile), interpolated between the
    sorted values."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def table(pairs, end_to_end) -> list:
    """Markdown lines comparing the two sides of ``pairs``, a list of
    (parent result, change result) lines of ``perfbench/run.py``."""
    lines = ["| metric | parent median [q1, q3] | change median [q1, q3] | ratio "
             "| change wins | gap > parent IQR |",
             "|---|---|---|---|---|---|"]
    for metric in end_to_end:
        name, sign = metric["name"], (1 if metric["better"] == "lower" else -1)
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        (pq1, pm, pq3), (cq1, cm, cq3) = quartiles(parent), quartiles(change)
        wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        ratio = f"{cm / pm:.3f}" if pm else "-"
        lines.append(f"| {name} | {pm:.4g} [{pq1:.4g}, {pq3:.4g}] | {cm:.4g} [{cq1:.4g}, {cq3:.4g}] "
                     f"| {ratio} | {wins}/{len(pairs)} | {'yes' if abs(cm - pm) > pq3 - pq1 else 'no'} |")
    lines.append("")
    for side, results in (("parent", [p for p, _ in pairs]), ("change", [c for _, c in pairs])):
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        lines.append(f"{side}: {failed} of {attempted} requests failed")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed0", type=int, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.seed0 < 0:
        ap.error("--pairs must be positive and --seed0 non-negative")
    try:
        (spec, files), (_, other) = benchmark(args.parent), benchmark(args.change)
    except (OSError, ValueError, KeyError) as exc:
        print(f"bench_ab: cannot read the benchmark: {exc}", file=sys.stderr)
        return 2
    if files != other:
        differ = sorted(k for k in set(files) | set(other) if files.get(k) != other.get(k))
        print(f"bench_ab: the checkouts run different benchmarks: {', '.join(differ)}",
              file=sys.stderr)
        return 2
    sides = {"parent": args.parent, "change": args.change}
    pairs = []
    for i in range(args.pairs):
        seed, got = args.seed0 + i, {}
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            try:
                got[side] = run_once(sides[side], args.workload, seed, spec["run_seconds"])
            except (subprocess.CalledProcessError, ValueError, IndexError) as exc:
                detail = getattr(exc, "stderr", "") or ""
                print(f"bench_ab: {side} run at seed {seed} failed: {exc}\n{detail}",
                      file=sys.stderr)
                return 2
            print(f"bench_ab: pair {i} seed {seed} {side}: {json.dumps(got[side])}",
                  file=sys.stderr, flush=True)
        pairs.append((got["parent"], got["change"]))
    print(f"{args.workload}, {args.pairs} pairs, seeds {args.seed0}-{args.seed0 + args.pairs - 1}, "
          f"{spec['run_seconds']} s runs\n")
    print("\n".join(table(pairs, spec["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
