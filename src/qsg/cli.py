"""Command-line surface: predicate checks, the verification suite, and
connection synthesis, with JSON or markdown reports.

Exit codes: 0 pass, 1 predicate or suite failure, 2 input error,
3 degenerate metric, 4 low-quality witness, 5 no witness found,
6 internal error (an unexpected exception, reported on one stderr line).
Reports go to stdout and are byte-deterministic for fixed inputs; timing
goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from . import __version__
from .errors import DegeneracyError, ModelFileError, QsgError
from .generate import synthesize_connection
from .model import ChartModel
from .model_io import MAX_DEGREE, canonical_doc, load_model, model_hash, write_model
from .predicates import DEFAULT_SAMPLES, DEFAULT_TOL, PREDICATES, check_many
from .propositions import TOLERANCES, run_full_suite

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_DEGENERATE = 3
EXIT_LOW_QUALITY = 4
EXIT_NO_WITNESS = 5
EXIT_INTERNAL = 6

# smallest accepted value of each numeric option; smaller, NaN or infinite
# ones are input errors, not crashes deep in a run or a failed predicate
MINIMUMS = {"samples": 1, "trials": 1, "degree": 0, "seed": 0, "tol": 0.0}


def _csv(text: str) -> list:
    return [t for t in (s.strip() for s in text.split(",")) if t]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qsg",
        description="chart-level tensor calculus checks for compatible "
                    "metric / almost-complex / connection structures",
    )
    p.add_argument("--version", action="version", version=f"qsg {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="run named predicates against a model file")
    c.add_argument("model", help="path to a model JSON file")
    c.add_argument("--predicates", required=True,
                   help=f"comma-separated names from: {', '.join(sorted(PREDICATES))}")
    c.add_argument("--tol", type=float, default=DEFAULT_TOL)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    c.add_argument("--format", choices=("json", "md"), default="json")

    v = sub.add_parser("verify", help="run the full proposition suite")
    v.add_argument("--dims", default="2,4", help="comma-separated chart dimensions (2, 4, 6)")
    v.add_argument("--trials", type=int, default=30)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--degree", type=int, default=2)
    v.add_argument("--only", help="comma-separated entry ids or prefixes (default: all)")
    v.add_argument("--format", choices=("json", "md"), default="json")

    s = sub.add_parser("synthesize", help="fit connection symbols to constraints")
    s.add_argument("model", help="path to a model JSON file")
    s.add_argument("--constraints", required=True, help="comma-separated constraint names")
    s.add_argument("--degree", type=int, default=2, help="symbol ansatz degree")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", default="", help="write the witness model file here")
    s.add_argument("--format", choices=("json", "md"), default="json")
    return p


def _strict(value):
    """``value`` with each non-finite float as the string ``"NaN"``,
    ``"Infinity"`` or ``"-Infinity"``, which strict JSON parsers read."""
    if isinstance(value, float) and not math.isfinite(value):
        return json.dumps(value)
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return value


def _emit(report: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(_strict(report), sort_keys=True, indent=1, allow_nan=False))
        return
    print(f"# qsg report (seed {report.get('seed')})")
    for section in ("checks", "suite", "synthesis"):
        if section not in report:
            continue
        body = report[section]
        print(f"\n## {section}")
        if section == "checks":
            print("| name | max residual | tolerance | pass |")
            print("|---|---|---|---|")
            for r in body:
                print(f"| {r['name']} | {r['max_residual']:.3e} | "
                      f"{r['tolerance']:.1e} | {r['pass']} |")
        elif section == "suite":
            print("| id | dim | status | max residual | tolerance |")
            print("|---|---|---|---|---|")
            for e in body["entries"]:
                print(f"| {e['id']} | {e['dim']} | {e['status']} | "
                      f"{e['max_residual']:.3e} | {e['tolerance']:.1e} |")
        else:
            print("| constraint | residual |")
            print("|---|---|")
            for name, r in sorted(body["constraint_residuals"].items()):
                print(f"| {name} | {r:.3e} |")
            print(f"\noverall residual: {body['residual']:.3e}")
    print(f"\nexit status: {report['exit_status']}")


def _base_report(seed: int) -> dict:
    return {"tool": {"name": "qsg", "version": __version__}, "seed": seed}


def cmd_check(args) -> int:
    model, doc = load_model(args.model)
    names = _csv(args.predicates)
    report = _base_report(args.seed)
    report["model_hash"] = model_hash(doc)
    report["checks"] = check_many(model, names, tol=args.tol, seed=args.seed,
                                  samples=args.samples)
    ok = all(c["pass"] for c in report["checks"])
    report["exit_status"] = EXIT_PASS if ok else EXIT_FAIL
    _emit(report, args.format)
    return report["exit_status"]


def cmd_verify(args) -> int:
    try:
        dims = tuple(int(d) for d in _csv(args.dims))
    except ValueError:
        raise QsgError(f"--dims takes comma-separated integers, got {args.dims!r}") from None
    only = tuple(_csv(args.only or ""))
    if args.only is not None and not only:
        raise QsgError("no entry id given; leave out --only to run every entry")
    suite = run_full_suite(seed=args.seed, trials=args.trials, dims=dims,
                           degree=args.degree, only=only)
    report = _base_report(args.seed)
    report["suite"] = suite
    report["exit_status"] = EXIT_PASS if suite["pass"] else EXIT_FAIL
    _emit(report, args.format)
    return report["exit_status"]


def cmd_synthesize(args) -> int:
    if args.degree > MAX_DEGREE:
        raise QsgError(f"--degree {args.degree} exceeds {MAX_DEGREE}, the largest total "
                       "degree a model file holds")
    model, doc = load_model(args.model)
    constraints = _csv(args.constraints)
    conn, fit = synthesize_connection(model, constraints, ansatz_degree=args.degree,
                                      seed=args.seed)
    report = _base_report(args.seed)
    report["model_hash"] = model_hash(doc)
    report["synthesis"] = {"constraints": constraints, "ansatz_degree": args.degree, **fit}
    # the suite's gates: a witness meets its hypothesis tolerance, and a fit
    # above the negative-control threshold is "no witness"
    if fit["residual"] <= TOLERANCES["hypothesis"]:
        status = EXIT_PASS
        if args.out:
            out_model = ChartModel(domain=model.domain, metric=model.metric,
                                   J=model.J, conn=conn)
            try:
                write_model(canonical_doc(out_model), args.out)
            except OSError as exc:
                raise QsgError(f"cannot write --out {args.out}: {exc.strerror}") from None
            report["synthesis"]["written"] = args.out
    elif fit["residual"] <= TOLERANCES["negative"]:
        status = EXIT_LOW_QUALITY
        report["synthesis"]["outcome"] = "low-quality witness"
    else:
        status = EXIT_NO_WITNESS
        report["synthesis"]["outcome"] = "no witness"
    report["exit_status"] = status
    _emit(report, args.format)
    return status


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    for name, low in MINIMUMS.items():
        value = getattr(args, name, low)
        if not low <= value < math.inf:
            print(f"qsg: --{name} must be finite and at least {low}, got {value}",
                  file=sys.stderr)
            return EXIT_INPUT
    start = time.monotonic()
    try:
        if args.command == "check":
            code = cmd_check(args)
        elif args.command == "verify":
            code = cmd_verify(args)
        else:
            code = cmd_synthesize(args)
    except ModelFileError as exc:
        print(f"qsg: model file error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DegeneracyError as exc:
        print(f"qsg: degenerate form at point {exc.point} (det {exc.det})", file=sys.stderr)
        return EXIT_DEGENERATE
    except QsgError as exc:
        print(f"qsg: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # a bug or a numerical breakdown, not a verdict
        print(f"qsg: internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        print(f"qsg: wall time {time.monotonic() - start:.2f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
