#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at minimal length.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json once untraced and once traced with
``--seconds 1`` and checks that:

* each run is correct and prints exactly the metric names and units
  BENCHMARK.json lists for its mode, plus the per-workload figures on the
  detail line;
* each layer reports calls on the workload predicted to use it, and the
  check sweep makes no least-squares solve;
* without the package sources next to it, the benchmark exits non-zero and
  prints no result.

Exits 1 and names the failed checks when any fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 180

# per workload: spans that must record calls, and detail figures it reports
EXPECT = {
    "verify-suite": {
        "calls": ("fields.jets", "fields.poly_mul", "fields.poly_eval", "calculus.covd",
                  "calculus.torsion", "calculus.levi_civita", "connections.conjugate",
                  "structures.ops", "predicates.check", "generate.models",
                  "generate.synthesize", "generate.lstsq"),
        "self": ("propositions.section2", "propositions.section3", "propositions.section4",
                 "propositions.negative"),
        "detail": (),
    },
    "check-sweep": {
        "calls": ("fields.jets", "calculus.covd", "calculus.torsion", "calculus.levi_civita",
                  "structures.ops", "predicates.check", "model_io.load", "model_io.write"),
        "self": (),
        "detail": ("points_per_s",),
    },
    "synth-fit": {
        "calls": ("fields.jets", "calculus.covd", "calculus.torsion", "structures.ops",
                  "generate.synthesize", "generate.lstsq", "model_io.load", "model_io.write"),
        "self": (),
        "detail": ("witness_share",),
    },
}
ALWAYS_DETAIL = ("fail_share", "request_s_tail_percentile", "request_s_tail_samples", "machine")


def run(bench, cwd, workload, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", "0", "--seconds", "1",
                              "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_run(bench, workload, trace):
    proc = run(bench, ROOT, workload, trace)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    result, detail = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}: {detail.get('problems')}")
    listed = {m["name"]: m["unit"] for m in bench["end_to_end" if trace == 0 else "per_layer"]}
    got = result["metrics"]
    if {k: v["unit"] for k, v in got.items()} != listed:
        problems.append(f"metric names or units differ from BENCHMARK.json: "
                        f"extra {sorted(set(got) - set(listed))}, missing {sorted(set(listed) - set(got))}")
    for name in ALWAYS_DETAIL + EXPECT[workload]["detail"]:
        if name not in detail:
            problems.append(f"detail line lacks {name}")
    if trace == 0:
        problems += [f"{k} is {v['value']}" for k, v in got.items() if not v["value"] > 0]
        return problems
    for span in EXPECT[workload]["calls"]:
        if not got.get(f"{span}.calls", {}).get("value", 0) > 0:
            problems.append(f"{span}.calls is not > 0")
    for span in EXPECT[workload]["self"]:
        if not got.get(f"{span}.self_s", {}).get("value", 0) > 0:
            problems.append(f"{span}.self_s is not > 0")
    for name in ("cli.unattributed_s", "cli.stdout_bytes", "trace.overhead"):
        if not got.get(name, {}).get("value", 0) > 0:
            problems.append(f"{name} is not > 0")
    if workload == "check-sweep" and got.get("generate.lstsq.calls", {}).get("value") != 0:
        problems.append("check-sweep made least-squares solves")
    return problems


def check_without_sources(bench):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files, the benchmark must fail without printing a result."""
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy2(ROOT / "BENCHMARK.json", bare)
        for rel in bench["paths"]:
            shutil.copytree(ROOT / rel, bare / rel, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bench, bare, next(iter(EXPECT)), 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 or (lines and '"metrics"' in lines[-1]):
        return [f"exit {proc.returncode} with stdout {proc.stdout.strip()[-200:]!r}"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    checks = [(f"{w['name']} trace {t}", lambda w=w["name"], t=t: check_run(bench, w, t))
              for w in bench["workloads"] for t in (0, 1)]
    checks.append(("no sources", lambda: check_without_sources(bench)))
    for label, fn in checks:
        problems = fn()
        failures += bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {label}" + "".join(f"\n     {p}" for p in problems),
              flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
