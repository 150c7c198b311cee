"""scripts/output_matrix.py: its runs cover every predicate and every
constraint (the runs themselves are not made here)."""

import importlib.util
from pathlib import Path

from qsg.generate import CONSTRAINTS, valid_constraints
from qsg.predicates import PREDICATES

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "output_matrix.py"
_spec = importlib.util.spec_from_file_location("output_matrix", SCRIPT)
output_matrix = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_matrix)


def test_runs_cover_every_predicate_and_constraint(tmp_path):
    models = output_matrix.example_models(tmp_path)
    matrix = output_matrix.runs(models)
    runs = dict(matrix)
    assert len(models) == 4 and len(runs) == len(matrix)  # one file per run
    assert runs["verify"] == ["verify", "--dims", "2,4", "--trials", "30", "--seed", "0"]
    short = ["verify", "--dims", "2,4", "--trials", "3"]
    assert runs["verify-degree-0"] == short + ["--degree", "0"]
    assert runs["verify-degree-1"] == short + ["--degree", "1"]
    assert runs["verify-dim-6"] == ["verify", "--dims", "6", "--trials", "1", "--only",
                                    "lem1,pro2,sec2.cor3,sec2.vishnevskii,pro14,teo5,cor8,"
                                    "sec3.cor_final,GAD15.cor"]
    assert runs["verify-md"] == short + ["--only", "pro3,teo2,sec3", "--format", "md"]
    # every command's md rendering, synthesize with --out
    assert runs["check-md"][:2] == ["check", "models/random_hermitian_4d.json"]
    assert runs["check-md"][-2:] == ["--format", "md"]
    assert runs["synthesize-md"][0] == "synthesize" and runs["synthesize-md"][-2:] == [
        "--format", "md"]
    assert "--out" in runs["synthesize-md"]
    stated = set()
    for name, model in models.items():
        path = f"models/{name}.json"
        for p in PREDICATES:
            assert runs[f"check-{name}-{p}"] == ["check", path, "--predicates", p]
        assert runs[f"check-{name}-all"][3].split(",") == list(PREDICATES)
        running = runs[f"check-{name}-all-that-run"]
        assert 0 < len(running[3].split(",")) < len(PREDICATES)
        assert runs[f"check-{name}-many-points"] == running + ["--samples", "3600"]
        for cons in valid_constraints(model) + [output_matrix.PAIR]:
            for degree in (1, 2):
                run = f"synthesize-{name}-{cons.replace(',', '+')}-{degree}"
                assert runs[run] == ["synthesize", path, "--constraints", cons,
                                     "--degree", str(degree), "--out", f"witnesses/{run}.json"]
        stated |= set(valid_constraints(model))
    assert stated == set(CONSTRAINTS)


def test_runs_cover_every_failure_rendering(tmp_path, monkeypatch):
    # each way cli.main reports a failure, and each symmetry gate's message,
    # run from the files the script writes
    matrix = output_matrix.runs(output_matrix.example_models(tmp_path))
    runs = dict(matrix)
    assert matrix[-len(output_matrix.ERROR_RUNS):] == output_matrix.ERROR_RUNS
    monkeypatch.chdir(tmp_path)
    want = {"error-model-file": (2, "qsg: model file error: dimension: "),
            "error-unknown-predicate": (2, "qsg: unknown predicate 'not_a_predicate'"),
            "error-empty-only": (2, "qsg: no entry id given"),
            "error-degenerate-metric": (3, "qsg: degenerate form at point ("),
            "error-skew-two-form": (2, "qsg: 2-form is not antisymmetric (defect 5.000e-01)"),
            "error-skew-metric": (2, "qsg: metric is not symmetric (defect 2.500e-01)"),
            "error-skew-conjugation": (2, "qsg: conjugation requires a symmetric or "
                                          "antisymmetric form (sym defect 2.500e-01, "
                                          "skew defect 2.000e+00)")}
    for name, (code, stderr) in want.items():
        text = output_matrix.record(runs[name])
        assert f"\nexit: {code}\n--- stdout\n--- stderr\n{stderr}" in text, text
