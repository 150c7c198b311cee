#!/usr/bin/env python3
"""Outside-in benchmark of the qsg command line.

One process runs one closed-loop client: it calls ``qsg.cli.main`` in-process
for each request of a workload (see ``workloads.py``), waits for the reply,
checks the reply on its own terms and sends the next request.  Run from the
repository root, with the package sources under ``src/``:

    python3 perfbench/run.py --workload verify-suite --seed 0 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics of an untraced run:

* ``setup_s``: median wall time of fresh interpreters that import
  ``qsg.cli``, generate and write the inputs and send one warm-up request;
* ``peak_rss_mb``: peak resident memory of this process;
* ``request_s_p50``: median request latency;
* ``request_s_tail``: latency at the highest percentile that has at least
  ten requests beyond it, or the median when no such percentile lies above
  it; the percentile and the sample count go on the detail line.

``--trace 1`` repeats the untraced requests with spans around each qsg
layer (``tracing.py``), checks that every traced report is byte-identical to
its untraced twin, and reports per-request calls and self time per layer.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the details (machine
facts, tail percentile, per-workload figures).  Both go, with the spans of a
traced run, to ``.perfbench_out/`` under the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
from tracing import SPANS, Tracer, install, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60
TAIL_BEYOND = 10


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up once and exit (used to time set-up in a fresh interpreter)")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be non-negative")
    return args


@dataclass
class Result:
    req: workloads.Request
    code: object
    elapsed: float
    stdout: str
    problems: list


class Client:
    """The one closed-loop client: each call waits for its reply."""

    def __init__(self):
        import qsg.cli

        self.cli = qsg.cli

    def call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(list(argv))  # looked up per call, so spans apply
            except Exception as exc:  # a traceback is a failed request, not a dead run
                code = f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        return code, elapsed, out.getvalue()

    def send(self, wl, req):
        wl.before(req)
        code, elapsed, out = self.call(req.argv)
        return Result(req, code, elapsed, out, wl.check(req, code, out))


def set_up(args, workdir):
    """Import, write the inputs, send the warm-up request."""
    client = Client()
    wl = workloads.Workload(args.workload, args.seed, workdir)
    warm = client.send(wl, wl.warmup())
    if warm.problems:
        raise RuntimeError(f"warm-up request {warm.req.argv} failed: {warm.problems}")
    return client, wl


def time_set_up(args):
    """Median wall time of fresh interpreters doing ``set_up``, one at a time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0", "--trace", "0"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=PROBE_TIMEOUT_S,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def closed_loop(client, wl, seconds):
    """Whole rounds until the window closes; at least one round."""
    results = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        results += [client.send(wl, req) for req in wl.round()]
    return results, time.perf_counter() - start


def tail(latencies):
    """(latency, percentile) at the highest nearest-rank percentile with at
    least TAIL_BEYOND requests beyond it, floored at the median."""
    xs = sorted(latencies)
    rank = len(xs) - TAIL_BEYOND
    if rank <= math.ceil(len(xs) / 2):
        return statistics.median(xs), 50.0
    return xs[rank - 1], 100.0 * rank / len(xs)


def workload_figures(results):
    """End-to-end figures the gate does not carry: failures, check points
    per second, synthesis witness share."""
    n = len(results)
    out = {"fail_share": sum(bool(r.problems) for r in results) / n,
           "exit_codes": {c: sum(1 for r in results if str(r.code) == c)
                          for c in sorted({str(r.code) for r in results})}}
    if results[0].req.info["kind"] == "check":
        out["points_per_s"] = sum(r.req.info["points"] for r in results) / sum(r.elapsed for r in results)
    if results[0].req.info["kind"] == "synth":
        out["witness_share"] = sum(r.code == 0 for r in results) / n
    return out


def min_margin(results):
    """Smallest log10(tolerance / residual) over passing suite entries with
    a nonzero residual; 0 when the workload ran no suite."""
    margins = []
    for r in results:
        if r.req.info["kind"] != "verify" or r.problems:
            continue
        for e in json.loads(r.stdout)["suite"]["entries"]:
            if e["status"] == "pass" and e["max_residual"] > 0:
                margins.append(math.log10(e["tolerance"] / e["max_residual"]))
    return min(margins, default=0.0)


def traced_replay(client, wl, results):
    """Repeat the untraced requests under spans; a report that differs from
    its untraced twin is a failed request."""
    tr = Tracer()
    restore = install(tr)
    replay = []
    try:
        for i, r in enumerate(results):
            wl.before(r.req)
            tr.request, tr.active = i, True
            try:
                code, elapsed, out = client.call(r.req.argv)
            finally:
                tr.active = False
            same = code == r.code and out == r.stdout
            replay.append(Result(r.req, code, elapsed, out,
                                 [] if same else ["traced report differs from the untraced one"]))
    finally:
        restore()
    return tr, replay


def machine_facts():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        vendor = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": vendor,
        "blas_threads": _blas_threads(numpy),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "load": "one process, one closed-loop client calling qsg.cli.main in-process; "
                "set-up timed in fresh interpreters run one at a time before the load",
    }


def _blas_threads(numpy):
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    """HEAD of the checkout, when it is a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "qsg").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run(args, workdir):
    OUT.mkdir(parents=True, exist_ok=True)
    setup_times = time_set_up(args) if args.trace == 0 else []
    client, wl = set_up(args, workdir)
    results, window = closed_loop(client, wl, args.seconds)
    latencies = [r.elapsed for r in results]
    p50 = statistics.median(latencies)
    tail_s, tail_pct = tail(latencies)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "requests": len(results), "window_s": window,
        "request_s_tail_percentile": tail_pct, "request_s_tail_samples": len(results),
        "setup_probe_s": setup_times,
        **workload_figures(results),
        "machine": machine_facts(),
    }
    if args.trace == 0:
        everything = results
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "request_s_p50": (p50, "s"),
            "request_s_tail": (tail_s, "s"),
        }
    else:
        tr, replay = traced_replay(client, wl, results)
        everything = results + replay
        tr.write(OUT / f"spans-{args.workload}-seed{args.seed}.tsv")
        layers = layer_metrics(tr, len(replay))
        traced_p50 = statistics.median(r.elapsed for r in replay)
        layers["propositions.min_margin"] = min_margin(results)
        layers["cli.stdout_bytes"] = statistics.fmean(len(r.stdout.encode()) for r in results)
        layers["trace.overhead"] = traced_p50 / p50
        metrics = {k: (v, _unit(k)) for k, v in layers.items()}
        traced_s = sum(r.elapsed for r in replay)
        detail["traced_request_s_p50"] = traced_p50
        detail["self_share"] = {name: tr.self_ns[name] / 1e9 / traced_s for name in SPANS}
    problems = [(r.req.argv, p) for r in everything for p in r.problems]
    detail["problems"] = problems[:20]
    failed = sum(bool(r.problems) for r in everything)
    result = {
        "correct": failed == 0,
        "attempted": len(everything),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump({"detail": detail, "result": result}, f, indent=1)
    for argv, p in problems[:5]:
        print(f"perfbench: {' '.join(map(str, argv))}: {p}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


def _unit(metric):
    if metric.endswith(".calls") or metric in ("fields.jets.points", "generate.probe_evals"):
        return "1/req"
    if metric.endswith("_s"):
        return "s/req"
    if metric.endswith("_max"):
        return "count"
    return {"propositions.min_margin": "log10", "cli.stdout_bytes": "B/req"}.get(metric, "ratio")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qsg" / "cli.py").is_file():
        print(f"perfbench: no qsg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        if args.setup_probe:
            set_up(args, workdir)
            return 0
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
