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
* short ``verify`` runs off the acceptance configuration: ansatz degrees 0
  and 1, the recipe and constant-model witnesses at dim 6, and the ``md``
  rendering of the witness-heavy section 3 entries;
* on each model, ``check`` of every predicate alone, of all of them
  together, and of all that run on the model (those that raise no input
  error on one point) together, the last also at ``MANY_POINTS`` samples,
  the point count of the benchmark's 3600-point check;
* on each model, ``synthesize`` of every constraint the model can state and
  of ``quasi_statistical_g,d_closed_J``, at ansatz degrees 1 and 2, each
  with ``--out`` under ``witnesses/``, where a found witness is written;
* the ``md`` renderings of ``check`` (several predicates on the random
  Hermitian model) and of ``synthesize`` (with ``--out``);
* the error paths ``qsg.cli.main`` reports: a model file that breaks the
  schema (exit 2, "model file error"), an unknown predicate and an empty
  ``--only`` list (exit 2), and a degenerate metric (exit 3: ``synthesize``
  of ``conjugate_torsion_sum`` inverts the zero metric of a Hermitian
  model), the load gate on a metric with one off-diagonal term (exit 2,
  "model file error", for a Hermitian and a Norden file), and the two
  symmetry gates behind it on a symmetric metric that is not Hermitian for
  its structure (exit 2): ``check`` of ``kahler`` (its 2-form is not
  antisymmetric) and ``synthesize`` of ``conjugate_torsion_sum`` (partner
  conjugation needs a symmetric or antisymmetric form).  Their model files
  go under ``broken/``.

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
from qsg.predicates import PREDICATES, check_many

sys.path.insert(0, str(Path(__file__).resolve().parent))
from make_example_models import write_examples  # noqa: E402

ACCEPTANCE = ["verify", "--dims", "2,4", "--trials", "30", "--seed", "0"]
# run name -> argv of the further verify runs
VERIFY_RUNS = {
    "verify-degree-0": ["verify", "--dims", "2,4", "--trials", "3", "--degree", "0"],
    "verify-degree-1": ["verify", "--dims", "2,4", "--trials", "3", "--degree", "1"],
    "verify-dim-6": ["verify", "--dims", "6", "--trials", "1", "--only",
                     "lem1,pro2,sec2.cor3,sec2.vishnevskii,pro14,teo5,cor8,sec3.cor_final,"
                     "GAD15.cor"],
    "verify-md": ["verify", "--dims", "2,4", "--trials", "3", "--only", "pro3,teo2,sec3",
                  "--format", "md"],
}
PAIR = "quasi_statistical_g,d_closed_J"
# run name -> argv of the md renderings of check and synthesize
MD_RUNS = {
    "check-md": ["check", "models/random_hermitian_4d.json", "--predicates",
                 "almost_complex,hermitian,quasi_statistical,codazzi_J,kahler", "--format", "md"],
    "synthesize-md": ["synthesize", "models/sheared_kahler_4d.json", "--constraints", PAIR,
                      "--degree", "1", "--out", "witnesses/synthesize-md.json", "--format", "md"],
}
DEGREES = (1, 2)
MANY_POINTS = "3600"
# file name under broken/ -> its text
BROKEN_MODELS = {
    "bad-dimension.json": '{"version": 1, "dimension": 3}\n',
    "zero-metric.json": '{"dimension": 2, "domain": [[-0.5, 0.5], [-0.5, 0.5]], "fields": {'
                        '"J": {"components": [[[], [{"coef": -1.0, "exp": [0, 0]}]], '
                        '[[{"coef": 1.0, "exp": [0, 0]}], []]]}, '
                        '"g": {"components": [[[], []], [[], []]], "flavor": "hermitian"}}, '
                        '"version": 1}\n',
    # the identity metric plus one off-diagonal term: not symmetric, so
    # not a metric
    "skew-hermitian.json": '{"dimension": 2, "domain": [[-0.5, 0.5], [-0.5, 0.5]], "fields": {'
                           '"J": {"components": [[[], [{"coef": -1.0, "exp": [0, 0]}]], '
                           '[[{"coef": 1.0, "exp": [0, 0]}], []]]}, '
                           '"g": {"components": [[[{"coef": 1.0, "exp": [0, 0]}], '
                           '[{"coef": 0.25, "exp": [0, 0]}]], '
                           '[[], [{"coef": 1.0, "exp": [0, 0]}]]], "flavor": "hermitian"}}, '
                           '"version": 1}\n',
    "skew-norden.json": '{"dimension": 2, "domain": [[-0.5, 0.5], [-0.5, 0.5]], "fields": {'
                        '"J": {"components": [[[], [{"coef": -1.0, "exp": [0, 0]}]], '
                        '[[{"coef": 1.0, "exp": [0, 0]}], []]]}, '
                        '"h": {"components": [[[{"coef": 1.0, "exp": [0, 0]}], '
                        '[{"coef": 0.25, "exp": [0, 0]}]], '
                        '[[], [{"coef": -1.0, "exp": [0, 0]}]]], "flavor": "norden"}}, '
                        '"version": 1}\n',
    # diag(1, 2) with the standard structure: a metric, but not Hermitian,
    # so its 2-form is neither symmetric nor antisymmetric
    "impure-hermitian.json": '{"dimension": 2, "domain": [[-0.5, 0.5], [-0.5, 0.5]], "fields": {'
                             '"J": {"components": [[[], [{"coef": -1.0, "exp": [0, 0]}]], '
                             '[[{"coef": 1.0, "exp": [0, 0]}], []]]}, '
                             '"g": {"components": [[[{"coef": 1.0, "exp": [0, 0]}], []], '
                             '[[], [{"coef": 2.0, "exp": [0, 0]}]]], "flavor": "hermitian"}}, '
                             '"version": 1}\n',
}
ERROR_RUNS = [
    ("error-model-file", ["check", "broken/bad-dimension.json", "--predicates", "kahler"]),
    ("error-unknown-predicate", ["check", "models/flat_hermitian_2d.json",
                                 "--predicates", "not_a_predicate"]),
    ("error-empty-only", ["verify", "--dims", "2", "--trials", "1", "--only", ","]),
    ("error-degenerate-metric", ["synthesize", "broken/zero-metric.json",
                                 "--constraints", "conjugate_torsion_sum", "--degree", "1"]),
    ("error-asymmetric-metric", ["check", "broken/skew-hermitian.json",
                                 "--predicates", "hermitian,almost_complex"]),
    ("error-skew-two-form", ["check", "broken/impure-hermitian.json", "--predicates", "kahler"]),
    ("error-skew-metric", ["check", "broken/skew-norden.json",
                           "--predicates", "quasi_kahler_norden"]),
    ("error-skew-conjugation", ["synthesize", "broken/impure-hermitian.json",
                                "--constraints", "conjugate_torsion_sum", "--degree", "1"]),
]


def runs(models: dict) -> list:
    """(run name, argv) of every run, for ``{name: model}`` stored as
    ``models/<name>.json``."""
    out = [("verify", ACCEPTANCE), *VERIFY_RUNS.items(), *MD_RUNS.items()]
    for name, model in models.items():
        path = f"models/{name}.json"
        running = ",".join(p for p in PREDICATES if _runs_on(model, p))
        for label, preds in ([(p, p) for p in PREDICATES]
                             + [("all", ",".join(PREDICATES)), ("all-that-run", running)]):
            out.append((f"check-{name}-{label}", ["check", path, "--predicates", preds]))
        out.append((f"check-{name}-many-points", ["check", path, "--predicates", running,
                                                  "--samples", MANY_POINTS]))
        for cons in valid_constraints(model) + [PAIR]:
            for degree in DEGREES:
                run = f"synthesize-{name}-{cons.replace(',', '+')}-{degree}"
                out.append((run, ["synthesize", path, "--constraints", cons,
                                  "--degree", str(degree), "--out", f"witnesses/{run}.json"]))
    return out + ERROR_RUNS


def _runs_on(model, predicate: str) -> bool:
    try:
        check_many(model, [predicate], samples=1)
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
