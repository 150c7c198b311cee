#!/usr/bin/env python3
"""Compare two ``qsg verify --format json`` reports entry by entry.

Usage: ``python3 scripts/diff_reports.py A.json B.json``

Prints one line per (id, dim) whose ``status``, ``trials``,
``max_residual`` or ``hyp_residual`` differs, with the absolute and
relative move of the residuals, then one line with each report's smallest
margins in decades: the conclusion margin log10(tolerance / max_residual)
and the hypothesis margin log10(tolerances.hypothesis / hyp_residual), over
passing entries that are not negative controls, each with its (id, dim).
Exits 1 when any status changes (an entry present in only one report counts
as a status change) and 0 otherwise; on identical reports it prints
nothing.  Unreadable input exits 2.
"""

import json
import math
import sys

FIELDS = ("status", "trials", "max_residual", "hyp_residual")


def load(path: str) -> dict:
    with open(path) as f:
        doc = json.load(f)
    return doc.get("suite", doc)


def entries(suite: dict) -> dict:
    return {(e["id"], e["dim"]): e for e in suite["entries"]}


def margins(suite: dict) -> str:
    """The smallest conclusion and hypothesis margins of one report."""
    passing = [e for e in suite["entries"]
               if e["status"] == "pass" and e["direction"] != "negative-control"]
    hyp_tol = suite["tolerances"]["hypothesis"]
    conclusion = [(math.log10(e["tolerance"] / e["max_residual"]), e["id"], e["dim"])
                  for e in passing if e["max_residual"] > 0]
    hypothesis = [(math.log10(hyp_tol / e["hyp_residual"]), e["id"], e["dim"])
                  for e in passing if e["hyp_residual"]]
    return f"{smallest('conclusion', conclusion)}, {smallest('hypothesis', hypothesis)}"


def smallest(name: str, found: list) -> str:
    if not found:
        return f"{name} none"
    margin, prop_id, dim = min(found)
    return f"{name} {margin:.2f} ({prop_id}, {dim})"


def describe(name: str, a, b) -> str:
    text = f"{name} {a!r} -> {b!r}"
    if isinstance(a, float) and isinstance(b, float):
        rel = (b - a) / abs(a) if a else float("inf")
        text += f" (abs {b - a:+.3e}, rel {rel:+.3e})"
    return text


def diff(a: dict, b: dict) -> tuple:
    """Lines describing every difference, and whether a status changed."""
    lines, status_changed = [], False
    for key in sorted(set(a) | set(b)):
        ea, eb = a.get(key, {}), b.get(key, {})
        moves = [describe(f, ea.get(f), eb.get(f)) for f in FIELDS if ea.get(f) != eb.get(f)]
        if moves:
            status_changed |= ea.get("status") != eb.get("status")
            lines.append(f"{key[0]} dim {key[1]}: " + "; ".join(moves))
    return lines, status_changed


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: diff_reports.py A.json B.json", file=sys.stderr)
        return 2
    try:
        a, b = (load(p) for p in argv)
        lines, status_changed = diff(entries(a), entries(b))
        if lines:
            lines.append(f"smallest margins: A {margins(a)}; B {margins(b)}")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"diff_reports: cannot read report: {exc!r}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    return 1 if status_changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
