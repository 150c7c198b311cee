"""Command-line surface: exit codes, schema diagnostics, round trips,
deterministic reports."""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

from qsg import cli, errors, generate
from qsg.calculus import PolyConnection
from qsg.cli import main
from qsg.fields import PolyTensorField
from qsg.model import ChartModel, flat_hermitian_model, flat_norden_model
from qsg.model_io import canonical_doc, load_model, model_hash, parse_model, write_model
from qsg.errors import ModelFileError


@pytest.fixture()
def flat_model_path(tmp_path):
    path = tmp_path / "flat2.json"
    write_model(canonical_doc(flat_hermitian_model(2)), path)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_flat_kahler_passes(capsys, flat_model_path):
    code, out, _ = run_cli(capsys, "check", flat_model_path, "--predicates", "kahler")
    assert code == 0
    doc = json.loads(out)
    assert doc["exit_status"] == 0
    assert doc["checks"][0]["max_residual"] == 0.0
    assert doc["model_hash"].startswith("sha256:")


def test_check_violated_quasi_statistical(capsys, tmp_path):
    model = flat_hermitian_model(2)
    gam = np.zeros((2, 2, 2))
    gam[1, 0, 1] = 1.0
    model.conn = PolyConnection(PolyTensorField.constant(2, (1, 2), gam))
    path = tmp_path / "broken.json"
    write_model(canonical_doc(model), path)
    code, out, _ = run_cli(capsys, "check", str(path), "--predicates", "quasi_statistical")
    assert code == 1
    doc = json.loads(out)
    assert doc["checks"][0]["max_residual"] == pytest.approx(1.0)


def test_check_malformed_exponent_exits_2(capsys, tmp_path, flat_model_path):
    doc = json.load(open(flat_model_path))
    doc["fields"]["J"]["components"][0][1] = [{"exp": [1], "coef": 1.0}]
    bad = tmp_path / "bad.json"
    json.dump(doc, open(bad, "w"))
    code, _, err = run_cli(capsys, "check", str(bad), "--predicates", "kahler")
    assert code == 2
    assert "fields.J.components[0][1]" in err


def test_check_degenerate_metric_exits_3(capsys, tmp_path):
    doc = canonical_doc(flat_norden_model(2))
    doc["fields"]["h"]["components"][0][0] = []  # kills one diagonal entry
    path = tmp_path / "degenerate.json"
    json.dump(doc, open(path, "w"))
    # the predicate builds the metric connection, which inverts the metric
    code, _, err = run_cli(capsys, "check", str(path), "--predicates", "quasi_kahler_norden")
    assert code == 3
    assert "point" in err


def test_check_unknown_predicate_exits_2(capsys, flat_model_path):
    code, _, err = run_cli(capsys, "check", flat_model_path, "--predicates", "bogus")
    assert code == 2
    assert "bogus" in err
    code, out, err = run_cli(capsys, "check", flat_model_path, "--predicates",
                             "kahler,integrable,bogus")
    assert code == 2
    assert out == ""
    assert "bogus" in err


def test_check_reports_each_predicate_as_alone(capsys, tmp_path):
    from qsg.generate import GenSpec, gen_almost_complex, gen_hermitian_metric, random_poly_field
    from qsg.predicates import check
    from qsg.sampling import rng

    spec = GenSpec(seed=3, dimension=4, degree=2)
    J = gen_almost_complex(spec)
    model = ChartModel(domain=flat_hermitian_model(4).domain, metric=gen_hermitian_metric(spec, J),
                       J=J, conn=PolyConnection(random_poly_field(rng(3, 1), 4, (1, 2), 2, 1.0)))
    path = tmp_path / "hermitian4.json"
    write_model(canonical_doc(model), path)
    model, _ = load_model(str(path))
    # one point set for the whole command
    names = ["almost_complex", "hermitian", "quasi_statistical", "statistical", "codazzi_J",
             "torsion_compatible", "integrable", "d_closed_J", "kahler", "complex_connection"]
    code, out, _ = run_cli(capsys, "check", str(path), "--predicates", ",".join(names),
                           "--samples", "40", "--seed", "11", "--tol", "1e-6")
    want = [check(model, n, tol=1e-6, seed=11, samples=40) for n in names]
    assert json.loads(out)["checks"] == json.loads(json.dumps(want))
    assert code == (0 if all(w["pass"] for w in want) else 1)


def test_verify_prints_the_library_suite(capsys):
    from qsg.propositions import run_full_suite

    code, out, _ = run_cli(capsys, "verify", "--dims", "2,4", "--trials", "2", "--seed", "3",
                           "--only", "lem1,GAD1.ii,neg")
    suite = run_full_suite(seed=3, trials=2, dims=(2, 4), only=("lem1", "GAD1.ii", "neg"))
    assert json.loads(out)["suite"] == suite
    assert code == (0 if suite["pass"] else 1)


@pytest.mark.parametrize("seed, constraints, code", [
    (6, "quasi_statistical_g", 0), (7, "vishnevskii_zero", 5)])
def test_synthesize_prints_the_library_fit(capsys, tmp_path, seed, constraints, code):
    # the printed synthesis is the fit plus what the command adds around it
    from qsg.generate import (GenSpec, gen_almost_complex, gen_constant_structure_model,
                              gen_hermitian_metric)

    spec = GenSpec(seed=seed, dimension=2, degree=2)
    if code == 0:
        model = gen_constant_structure_model(spec, "hermitian")
    else:  # a nonconstant structure admits no operator-vanishing symbols
        J = gen_almost_complex(spec)
        model = ChartModel(domain=flat_hermitian_model(2).domain,
                           metric=gen_hermitian_metric(spec, J), J=J)
    path = tmp_path / "model.json"
    write_model(canonical_doc(model), path)
    model, _ = load_model(str(path))
    got, out, _ = run_cli(capsys, "synthesize", str(path), "--constraints", constraints,
                          "--degree", "1", "--seed", "4", "--out", str(tmp_path / "w.json"))
    _, fit = generate.synthesize_connection(model, constraints.split(","), ansatz_degree=1,
                                            seed=4)
    syn = json.loads(out)["synthesis"]
    added = {"constraints", "ansatz_degree", "written", "outcome"}
    assert {k: v for k, v in syn.items() if k not in added} == fit
    assert got == code and ("written" in syn) == (code == 0)


def test_model_round_trip_hash(tmp_path, flat_model_path):
    model, doc = load_model(flat_model_path)
    out = tmp_path / "again.json"
    write_model(doc, out)
    model2, doc2 = load_model(str(out))
    assert model_hash(doc) == model_hash(doc2)


def test_model_requires_exactly_one_metric():
    doc = canonical_doc(flat_hermitian_model(2))
    doc["fields"]["h"] = doc["fields"]["g"]
    with pytest.raises(ModelFileError) as err:
        parse_model(doc)
    assert "metric" in str(err.value)


def test_verify_smoke_and_filter(capsys):
    code, out, _ = run_cli(capsys, "verify", "--dims", "2", "--trials", "2",
                           "--seed", "0", "--only", "GAD1")
    assert code == 0
    doc = json.loads(out)
    ids = sorted({e["id"] for e in doc["suite"]["entries"]})
    assert ids == ["GAD1.i", "GAD1.ii", "GAD1.iii"]


def test_verify_unknown_id_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--dims", "2", "--trials", "2",
                           "--only", "wrong")
    assert code == 2
    assert "GAD1.i" in err


def test_verify_deterministic_output(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "--dims", "2", "--trials", "2",
                             "--only", "lem2,cor4")
    code2, out2, _ = run_cli(capsys, "verify", "--dims", "2", "--trials", "2",
                             "--only", "lem2,cor4")
    assert code1 == code2 == 0
    assert out1 == out2


def test_synthesize_flat_writes_zero_witness(capsys, tmp_path, flat_model_path):
    out_path = tmp_path / "witness.json"
    code, out, _ = run_cli(capsys, "synthesize", flat_model_path,
                           "--constraints", "torsion_free,complex_connection",
                           "--degree", "1", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["synthesis"]["residual"] <= 1e-12
    syn = doc["synthesis"]
    assert "iterations" not in syn
    assert syn["cols"] == 2 ** 3 * 3  # d^3 symbols times 3 monomials of degree <= 1
    assert 0 < syn["rank"] <= min(syn["rows"], syn["cols"])
    witness, _ = load_model(str(out_path))
    pts = np.zeros((1, 2))
    assert np.abs(witness.conn.gammas(pts)).max() <= 1e-9


def test_synthesize_infeasible_exits_5(capsys, tmp_path):
    # operator-vanishing symbols with a genuinely nonconstant structure
    from qsg.generate import GenSpec, gen_almost_complex, gen_hermitian_metric

    spec = GenSpec(seed=7, dimension=2, degree=2)
    J = gen_almost_complex(spec)
    g = gen_hermitian_metric(spec, J)
    model = ChartModel(domain=flat_hermitian_model(2).domain, metric=g, J=J)
    path = tmp_path / "hard.json"
    write_model(canonical_doc(model), path)
    code, out, _ = run_cli(capsys, "synthesize", str(path),
                           "--constraints", "vishnevskii_zero", "--degree", "2")
    assert code == 5
    assert json.loads(out)["synthesis"]["outcome"] == "no witness"


def test_synthesize_low_quality_witness_exits_4(capsys, tmp_path):
    # nearly-constant metric: a constant-symbol ansatz gets within the
    # low-quality band but not to witness quality
    from qsg import sampling
    from qsg.generate import GenSpec, gen_constant_structure_model, random_poly_field
    from qsg.structures import MetricField

    cm = gen_constant_structure_model(GenSpec(seed=6, dimension=2, degree=2), "hermitian")
    pert = random_poly_field(sampling.rng(6, 77), 2, (0, 2), 2, 1e-5)
    pert = (pert + pert.transpose_02()).scale(0.5)
    model = ChartModel(domain=cm.domain,
                       metric=MetricField(cm.metric + pert, flavor="plain"))
    path = tmp_path / "nearflat.json"
    write_model(canonical_doc(model), path)
    code, out, _ = run_cli(capsys, "synthesize", str(path),
                           "--constraints", "quasi_statistical_g", "--degree", "0")
    assert code == 4
    assert json.loads(out)["synthesis"]["outcome"] == "low-quality witness"


def _no_bare_constant(name):
    raise ValueError(f"bare {name} is not JSON")


def test_synthesize_nan_constraint_residual_is_no_witness(capsys, monkeypatch, flat_model_path):
    # the second constraint scores NaN on the fitted connection only (the
    # probes have constant symbols): no witness, exit 5
    fit = generate.CONSTRAINTS["complex_connection"]
    monkeypatch.setitem(generate.CONSTRAINTS, "complex_connection", fit._replace(
        residual=lambda at: fit.residual(at) * (
            np.nan if isinstance(at.conn(), PolyConnection) else 1.0)))
    code, out, _ = run_cli(capsys, "synthesize", flat_model_path,
                           "--constraints", "torsion_free,complex_connection", "--degree", "1")
    assert code == cli.EXIT_NO_WITNESS == 5
    syn = json.loads(out, parse_constant=_no_bare_constant)["synthesis"]
    assert syn["outcome"] == "no witness"
    assert syn["constraint_residuals"]["torsion_free"] <= 1e-12
    assert syn["residual"] == syn["constraint_residuals"]["complex_connection"] == "NaN"


def test_json_reports_write_non_finite_numbers_as_strings(capsys):
    report = {"a": [float("nan"), float("inf"), -float("inf"), 0.5], "b": (float("inf"),),
              "c": {"d": float("-inf")}, "exit_status": 1}
    cli._emit(report, "json")
    got = json.loads(capsys.readouterr().out, parse_constant=_no_bare_constant)
    assert got == {"a": ["NaN", "Infinity", "-Infinity", 0.5], "b": ["Infinity"],
                   "c": {"d": "-Infinity"}, "exit_status": 1}


def test_synthesize_unknown_constraint_exits_2(capsys, flat_model_path):
    code, _, err = run_cli(capsys, "synthesize", flat_model_path,
                           "--constraints", "not_a_constraint")
    assert code == 2
    assert "not_a_constraint" in err


def test_markdown_format(capsys, flat_model_path):
    code, out, _ = run_cli(capsys, "check", flat_model_path,
                           "--predicates", "kahler", "--format", "md")
    assert code == 0
    assert "| name | max residual |" in out


def test_norden_model_round_trip():
    doc = canonical_doc(flat_norden_model(2))
    model = parse_model(doc)
    assert model.metric.flavor == "norden"
    assert model_hash(doc) == model_hash(canonical_doc(model))


def test_unexpected_exception_exits_6(capsys, monkeypatch, flat_model_path):
    # an exception outside the package's error taxonomy is an internal
    # error: one stderr line, never exit 1 ("a predicate failed")
    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(cli, "synthesize_connection", broken)
    code, out, err = run_cli(capsys, "synthesize", flat_model_path,
                             "--constraints", "torsion_free")
    assert code == cli.EXIT_INTERNAL == 6
    assert out == ""
    lines = [ln for ln in err.splitlines() if not ln.startswith("qsg: wall time")]
    assert lines == ["qsg: internal error: LinAlgError('SVD did not converge')"]


def test_synthesize_without_constraints_exits_2(capsys, flat_model_path):
    code, _, err = run_cli(capsys, "synthesize", flat_model_path, "--constraints", ",")
    assert code == 2
    assert "no constraints" in err


def test_check_without_predicates_exits_2(capsys, flat_model_path):
    # no names would be a vacuous pass
    code, out, err = run_cli(capsys, "check", flat_model_path, "--predicates", ",")
    assert code == 2
    assert "no predicates" in err
    assert out == ""


def test_synthesize_unwritable_out_exits_2(capsys, tmp_path, flat_model_path):
    out_path = tmp_path / "missing" / "witness.json"
    code, out, err = run_cli(capsys, "synthesize", flat_model_path, "--constraints",
                             "torsion_free", "--degree", "1", "--out", str(out_path))
    assert code == 2
    assert f"cannot write --out {out_path}" in err
    assert "internal error" not in err
    assert out == ""
    assert not out_path.exists()


def test_synthesize_degree_above_model_file_limit_exits_2(capsys, tmp_path, flat_model_path):
    # a witness of that degree could not be read back by check
    out_path = tmp_path / "witness.json"
    code, out, err = run_cli(capsys, "synthesize", flat_model_path, "--constraints",
                             "torsion_free", "--degree", "17", "--out", str(out_path))
    assert code == 2
    assert "--degree 17 exceeds 16" in err
    assert out == ""
    assert not out_path.exists()
    code, out, _ = run_cli(capsys, "synthesize", flat_model_path, "--constraints",
                           "torsion_free", "--degree", "16", "--out", str(out_path))
    assert code == 0
    assert run_cli(capsys, "check", str(out_path), "--predicates", "statistical")[0] == 0


@pytest.mark.parametrize("argv, option", [
    (["check", "MODEL", "--predicates", "kahler", "--samples", "0"], "--samples"),
    (["check", "MODEL", "--predicates", "kahler", "--samples", "-3"], "--samples"),
    (["verify", "--dims", "2", "--trials", "0"], "--trials"),
    (["synthesize", "MODEL", "--constraints", "torsion_free", "--degree", "-1"], "--degree"),
    (["check", "MODEL", "--predicates", "kahler", "--seed", "-1"], "--seed"),
    (["verify", "--dims", "2", "--trials", "2", "--seed", "-1"], "--seed"),
    (["synthesize", "MODEL", "--constraints", "torsion_free", "--seed", "-1"], "--seed"),
    # a bad tolerance is an input error, not a failed predicate (exit 1)
    (["check", "MODEL", "--predicates", "kahler", "--tol", "-1"], "--tol"),
    (["check", "MODEL", "--predicates", "kahler", "--tol", "nan"], "--tol"),
    (["check", "MODEL", "--predicates", "kahler", "--tol", "inf"], "--tol"),
], ids=["samples-zero", "samples-negative", "trials-zero", "degree-negative",
        "check-seed-negative", "verify-seed-negative", "synthesize-seed-negative",
        "tol-negative", "tol-nan", "tol-inf"])
def test_bad_count_exits_2_with_message(capsys, flat_model_path, argv, option):
    argv = [flat_model_path if a == "MODEL" else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert option in err and "at least" in err
    assert out == ""


@pytest.mark.parametrize("dims, words", [
    ("2,2", "more than once"),
    ("", "no dimension"),
    (",", "no dimension"),
    ("x", "--dims"),
], ids=["repeated", "empty", "comma-only", "not-integer"])
def test_bad_dims_exits_2_with_message(capsys, dims, words):
    code, out, err = run_cli(capsys, "verify", "--dims", dims, "--trials", "2")
    assert code == 2
    assert words in err
    assert out == ""


@pytest.mark.parametrize("only", [",", ""], ids=["comma-only", "empty"])
def test_empty_only_exits_2_with_message(capsys, only):
    # an empty selection is an input error, as an empty --dims is; leaving
    # --only out selects every entry
    code, out, err = run_cli(capsys, "verify", "--dims", "2", "--trials", "1", "--only", only)
    assert code == 2
    assert "no entry id given" in err
    assert out == ""


def test_main_names_every_error_class_and_no_other():
    # one class per way main reports a failure: exit 2 with "qsg: <msg>",
    # exit 2 with "model file error" and exit 3 with the degenerate point
    main_def = next(node for node in ast.parse(Path(cli.__file__).read_text()).body
                    if isinstance(node, ast.FunctionDef) and node.name == "main")
    caught = {h.type.id for h in ast.walk(main_def)
              if isinstance(h, ast.ExceptHandler) and isinstance(h.type, ast.Name)}
    defined = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and obj.__module__ == errors.__name__}
    assert defined == {"QsgError", "ModelFileError", "DegeneracyError"}
    assert caught - {"SystemExit", "Exception"} == defined


@pytest.mark.parametrize("argv, words", [
    (["check", "MODEL", "--predicates", "kahler,kahler"], "predicate 'kahler'"),
    (["check", "MODEL", "--predicates", "hermitian,kahler,hermitian"], "predicate 'hermitian'"),
    (["synthesize", "MODEL", "--constraints", "codazzi_J,codazzi_J"], "constraint 'codazzi_J'"),
    (["synthesize", "MODEL", "--constraints", "torsion_free,codazzi_J,torsion_free"],
     "constraint 'torsion_free'"),
    (["verify", "--dims", "2", "--trials", "1", "--only", "teo1.klein,teo1.klein"],
     "entry id 'teo1.klein'"),
    (["verify", "--dims", "2", "--trials", "1", "--only", "GAD1,teo1.klein,GAD1"],
     "entry id 'GAD1'"),
], ids=["check-adjacent", "check-apart", "synthesize-adjacent", "synthesize-apart",
        "verify-adjacent", "verify-apart"])
def test_repeated_name_exits_2_with_message(capsys, flat_model_path, argv, words):
    argv = [flat_model_path if a == "MODEL" else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert words in err and "more than once" in err
    assert out == ""
