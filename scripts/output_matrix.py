#!/usr/bin/env python3
"""Record what ``qsg check``, ``qsg synthesize`` and the acceptance
``qsg verify`` print, one file per run, so that ``diff -r`` of the
directories two checkouts write is a byte-identity check of their output.

Usage::

    PYTHONPATH=src python3 scripts/output_matrix.py OUTDIR

OUTDIR gets the four models of ``make_example_models.py`` (seed 0) under
``models/`` and one file per run under ``runs/``: the arguments, the exit
code, stdout, and stderr without its wall-time line.  The runs are

* the acceptance ``verify --dims 2,4 --trials 30 --seed 0``;
* on each model, ``check`` of every predicate alone, of all of them
  together, and of all that run on the model (those that raise no input
  error on one point) together;
* on each model, ``synthesize`` of every constraint the model can state and
  of ``quasi_statistical_g,d_closed_J``, at ansatz degrees 1 and 2, each
  with ``--out`` under ``witnesses/``, where a found witness is written.

The predicates and constraints come from ``qsg.predicates.PREDICATES`` and
``qsg.generate.valid_constraints``.  Every run calls ``qsg.cli.main`` in
this process, with OUTDIR as the working directory and paths relative to
it, so no file names the checkout.
"""

import contextlib
import io
import os
import sys
from pathlib import Path

from qsg import cli
from qsg.errors import QsgError
from qsg.generate import valid_constraints
from qsg.model_io import load_model
from qsg.predicates import PREDICATES, check

sys.path.insert(0, str(Path(__file__).resolve().parent))
from make_example_models import write_examples  # noqa: E402

ACCEPTANCE = ["verify", "--dims", "2,4", "--trials", "30", "--seed", "0"]
PAIR = "quasi_statistical_g,d_closed_J"
DEGREES = (1, 2)


def runs(models: dict) -> list:
    """(run name, argv) of every run, for ``{name: model}`` stored as
    ``models/<name>.json``."""
    out = [("verify", ACCEPTANCE)]
    for name, model in models.items():
        path = f"models/{name}.json"
        running = ",".join(p for p in PREDICATES if _runs_on(model, p))
        for label, preds in ([(p, p) for p in PREDICATES]
                             + [("all", ",".join(PREDICATES)), ("all-that-run", running)]):
            out.append((f"check-{name}-{label}", ["check", path, "--predicates", preds]))
        for cons in valid_constraints(model) + [PAIR]:
            for degree in DEGREES:
                run = f"synthesize-{name}-{cons.replace(',', '+')}-{degree}"
                out.append((run, ["synthesize", path, "--constraints", cons,
                                  "--degree", str(degree), "--out", f"witnesses/{run}.json"]))
    return out


def _runs_on(model, predicate: str) -> bool:
    try:
        check(model, predicate, samples=1)
    except QsgError:
        return False
    return True


def example_models(outdir: Path) -> dict:
    """Write the example models under ``outdir/models``; load them back."""
    write_examples(outdir / "models", 0)
    return {p.stem: load_model(p)[0] for p in sorted((outdir / "models").glob("*.json"))}


def record(argv: list) -> str:
    """One run of ``qsg.cli.main`` in this process, as the text to store."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    stderr = "".join(line for line in err.getvalue().splitlines(keepends=True)
                     if not line.startswith("qsg: wall time"))
    return (f"args: {' '.join(argv)}\nexit: {code}\n--- stdout\n{out.getvalue()}"
            f"--- stderr\n{stderr}")


def main() -> int:
    if len(sys.argv) != 2:
        print("usage: output_matrix.py OUTDIR", file=sys.stderr)
        return 2
    outdir = Path(sys.argv[1]).resolve()
    models = example_models(outdir)
    (outdir / "runs").mkdir(exist_ok=True)
    (outdir / "witnesses").mkdir(exist_ok=True)
    os.chdir(outdir)
    matrix = runs(models)
    for name, argv in matrix:
        Path("runs", f"{name}.txt").write_text(record(argv))
    print(f"wrote {len(matrix)} runs to {outdir}/runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
