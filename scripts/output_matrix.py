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
  with ``--out`` under ``witnesses/``, where a found witness is written;
* the error paths ``qsg.cli.main`` reports: a model file that breaks the
  schema (exit 2, "model file error"), an unknown predicate and an empty
  ``--only`` list (exit 2), and a degenerate metric (exit 3: ``synthesize``
  of ``conjugate_torsion_sum`` inverts the zero metric of a Hermitian
  model).  Their model files go under ``broken/``.

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
# file name under broken/ -> its text
BROKEN_MODELS = {
    "bad-dimension.json": '{"version": 1, "dimension": 3}\n',
    "zero-metric.json": '{"dimension": 2, "domain": [[-0.5, 0.5], [-0.5, 0.5]], "fields": {'
                        '"J": {"components": [[[], [{"coef": -1.0, "exp": [0, 0]}]], '
                        '[[{"coef": 1.0, "exp": [0, 0]}], []]]}, '
                        '"g": {"components": [[[], []], [[], []]], "flavor": "hermitian"}}, '
                        '"version": 1}\n',
}
ERROR_RUNS = [
    ("error-model-file", ["check", "broken/bad-dimension.json", "--predicates", "kahler"]),
    ("error-unknown-predicate", ["check", "models/flat_hermitian_2d.json",
                                 "--predicates", "not_a_predicate"]),
    ("error-empty-only", ["verify", "--dims", "2", "--trials", "1", "--only", ","]),
    ("error-degenerate-metric", ["synthesize", "broken/zero-metric.json",
                                 "--constraints", "conjugate_torsion_sum", "--degree", "1"]),
]


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
    return out + ERROR_RUNS


def _runs_on(model, predicate: str) -> bool:
    try:
        check(model, predicate, samples=1)
    except QsgError:
        return False
    return True


def example_models(outdir: Path) -> dict:
    """Write the example models under ``outdir/models`` and the broken ones
    under ``outdir/broken``; load the examples back."""
    write_examples(outdir / "models", 0)
    (outdir / "broken").mkdir(exist_ok=True)
    for name, text in BROKEN_MODELS.items():
        (outdir / "broken" / name).write_text(text)
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
