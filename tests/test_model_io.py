"""Model files: every schema error exits 2 with the path of the first bad
term, the dense loader against per-component ``PolyExpr`` oracles, and
hashes that survive write -> load -> write."""

import copy
import hashlib
import json
import random
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from oracle import from_comps
from qsg.cli import main
from qsg.fields import PolyExpr
from qsg.model import flat_hermitian_model
from qsg.model_io import (canonical_doc, canonical_json, load_model, model_hash, parse_model,
                          write_model)

ROOT = Path(__file__).resolve().parent.parent
HUGE = 10 ** 400  # an integer beyond the float range
TERM = {"exp": [1, 0], "coef": 1.5}
DELETE = object()


def _walk(doc, keys):
    for k in keys:
        doc = doc[k]
    return doc


def _poly(keys, *terms):
    """Edit that replaces the polynomial at ``fields.<keys>`` by ``terms``."""
    return (("fields",) + keys, list(terms))


J01 = ("J", "components", 0, 1)
J10 = ("J", "components", 1, 0)
G00 = ("g", "components", 0, 0)
P_J01 = "fields.J.components[0][1]"

# (edits, stderr line after "qsg: model file error: "); an edit is
# (key path, value), or (key path, DELETE); the empty key path replaces the
# whole document
ERRORS = {
    "not-an-object": ([((), [])], "model file must be a JSON object"),
    "version": ([(("version",), 2)], "version: unsupported version 2"),
    "version-bool": ([(("version",), True)], "version: unsupported version True"),
    "dimension": ([(("dimension",), 3)], "dimension: dimension must be an even integer >= 2"),
    "domain-count": ([(("domain",), [[0, 1]])], "domain: domain needs 2 intervals"),
    "interval-shape": ([(("domain", 1), [0, 1, 2])], "domain[1]: interval must be [lo, hi]"),
    "interval-bool": ([(("domain", 0), [True, 2])],
                      "domain[0]: interval bounds must be finite numbers"),
    "interval-huge": ([(("domain", 0), [0, HUGE])],
                      "domain[0]: interval bounds must be finite numbers"),
    "interval-string": ([(("domain", 1), ["0", 1])],
                        "domain[1]: interval bounds must be finite numbers"),
    "interval-width": ([(("domain", 0), [1, 1])], "domain[0]: interval must have positive width"),
    "fields": ([(("fields",), [])], 'fields: model needs a "fields" object'),
    "unknown-field": ([(("fields", "T"), {})], "fields.T: unknown field 'T'"),
    "two-metrics": ([(("fields", "h"), {"components": []})],
                    'fields: exactly one metric entry ("g" or "h") required'),
    "no-metric": ([(("fields", "g"), DELETE)],
                  'fields: exactly one metric entry ("g" or "h") required'),
    "metric-components": ([(("fields", "g", "components"), DELETE)],
                          'fields.g: metric entry needs "components"'),
    "flavor": ([(("fields", "g", "flavor"), "norden")],
               "fields.g.flavor: flavor must be one of ('hermitian', 'plain')"),
    "structure-components": ([(("fields", "J"), [])],
                             'fields.J: structure entry needs "components"'),
    "connection-components": ([(("fields", "Gamma"), {"comps": []})],
                              'fields.Gamma: connection entry needs "components"'),
    "nesting": ([(("fields", "J", "components", 1), [[]])],
                "fields.J.components[1]: expected 2 entries at nesting depth 1"),
    "nesting-rank3": ([(("fields", "Gamma", "components", 1, 0), [])],
                      "fields.Gamma.components[1][0]: expected 2 entries at nesting depth 2"),
    "polynomial": ([(("fields",) + J01, {"exp": [0, 0], "coef": 1.0})],
                   f"{P_J01}: polynomial must be a list of terms"),
    "term": ([_poly(J01, TERM, [1, 0])], f"{P_J01}[1]: term must be an object"),
    "term-keys": ([_poly(J01, {"exp": [1, 0]})],
                  f'{P_J01}[0]: term must have exactly "exp" and "coef"'),
    "term-extra-key": ([_poly(J01, {"exp": [1, 0], "coef": 1.0, "c": 0})],
                       f'{P_J01}[0]: term must have exactly "exp" and "coef"'),
    "exp-length": ([_poly(J01, {"exp": [1], "coef": 1.0})],
                   f"{P_J01}[0].exp: exponent vector must have length 2"),
    "exp-negative": ([_poly(J01, {"exp": [-1, 0], "coef": 1.0})],
                     f"{P_J01}[0].exp: exponents must be nonnegative integers"),
    "exp-float": ([_poly(J01, {"exp": [1.0, 0], "coef": 1.0})],
                  f"{P_J01}[0].exp: exponents must be nonnegative integers"),
    "exp-bool": ([_poly(J01, {"exp": [True, False], "coef": -1.0})],
                 f"{P_J01}[0].exp: exponents must be nonnegative integers"),
    "degree": ([_poly(J01, {"exp": [9, 8], "coef": 1.0})],
               f"{P_J01}[0].exp: total degree exceeds 16"),
    "degree-huge": ([_poly(J01, {"exp": [2 ** 70, 0], "coef": 1.0})],
                    f"{P_J01}[0].exp: total degree exceeds 16"),
    "coef-bool": ([_poly(G00, {"exp": [0, 0], "coef": True})],
                  "fields.g.components[0][0][0].coef: coefficient must be a finite number"),
    "coef-huge": ([_poly(G00, TERM, {"exp": [0, 0], "coef": HUGE})],
                  "fields.g.components[0][0][1].coef: coefficient must be a finite number"),
    "coef-nan": ([_poly(G00, {"exp": [0, 0], "coef": float("nan")})],
                 "fields.g.components[0][0][0].coef: coefficient must be a finite number"),
    "coef-string": ([_poly(G00, {"exp": [0, 0], "coef": "1"})],
                    "fields.g.components[0][0][0].coef: coefficient must be a finite number"),
    # with two bad terms the first in document order is reported
    "first-of-two-terms": ([_poly(J01, TERM, {"exp": [0, 0], "coef": None},
                                  {"exp": [0], "coef": 1.0})],
                           f"{P_J01}[1].coef: coefficient must be a finite number"),
    "first-of-two-components": ([_poly(J10, {"exp": [0], "coef": 1.0}),
                                 _poly(J01, TERM, {"exp": [0, 0], "coef": HUGE})],
                                f"{P_J01}[1].coef: coefficient must be a finite number"),
    "term-before-nesting": ([_poly(J01, {"exp": [0, 0], "coef": True}),
                             (("fields", "J", "components", 1), [[]])],
                            f"{P_J01}[0].coef: coefficient must be a finite number"),
    "metric-before-structure": ([_poly(J01, {"exp": [0], "coef": 1.0}),
                                 _poly(("g", "components", 1, 1), {"exp": [-2, 0], "coef": 1.0})],
                                "fields.g.components[1][1][0].exp: "
                                "exponents must be nonnegative integers"),
    # a metric's coefficient tensor is symmetric, term by term
    "asymmetric-metric": ([_poly(("g", "components", 0, 1), {"exp": [0, 0], "coef": 0.25})],
                          "fields.g.components: metric is not symmetric (defect 2.500e-01)"),
    "asymmetric-metric-term": ([_poly(("g", "components", 1, 0), {"exp": [1, 0], "coef": -1}),
                                _poly(("g", "components", 0, 1), {"exp": [0, 1], "coef": -1})],
                               "fields.g.components: metric is not symmetric (defect 1.000e+00)"),
}


@pytest.mark.parametrize("edits, line", ERRORS.values(), ids=ERRORS.keys())
def test_model_file_error_exits_2_with_path(capsys, tmp_path, edits, line):
    doc = canonical_doc(flat_hermitian_model(2))
    for keys, value in edits:
        if keys == ():
            doc = value
        elif value is DELETE:
            del _walk(doc, keys[:-1])[keys[-1]]
        else:
            _walk(doc, keys[:-1])[keys[-1]] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code = main(["check", str(path), "--predicates", "kahler"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.splitlines()[0] == f"qsg: model file error: {line}"


# -- the dense loader against per-component PolyExpr ---------------------

VALENCES = {"g": (0, 2), "h": (0, 2), "J": (1, 1), "Gamma": (1, 2)}


def _random_doc(seed):
    """A model document whose polynomials repeat exponents, list terms in a
    shuffled order, and mix float, integer, 0.0 and -0.0 coefficients."""
    rng = np.random.default_rng(seed)
    shuffle = random.Random(seed).shuffle
    d = (2, 4)[seed % 2]
    pool = rng.integers(0, 3, size=(6, d)).tolist()  # few rows, so exponents repeat

    def coef():
        kind = rng.integers(6)
        if kind == 0:
            return int(rng.integers(-3, 4))
        if kind == 1:
            return [0.0, -0.0, 2 ** 60 + 1, -(2 ** 53) - 1][rng.integers(4)]
        return float(rng.normal())

    def poly():
        # now and then one exponent twelve times over, past the eight-term
        # blocks in which numpy sums
        rows = pool[:1] * 12 if rng.random() < 0.1 else pool
        terms = [{"exp": rows[rng.integers(len(rows))], "coef": coef()}
                 for _ in range(12 if len(rows) == 12 else rng.integers(0, 7))]
        if terms and rng.random() < 0.3:  # an exact cancellation
            terms.append({"exp": terms[0]["exp"], "coef": -terms[0]["coef"]})
        shuffle(terms)
        return terms

    def nested(rank):
        return poly() if rank == 0 else [nested(rank - 1) for _ in range(d)]

    metric = "g" if seed % 3 else "h"
    # a metric file must be symmetric: the lower triangle repeats the upper
    form = nested(2)
    for i in range(d):
        for j in range(i):
            form[i][j] = list(form[j][i])
    fields = {metric: {"flavor": "hermitian" if metric == "g" else "norden",
                       "components": form},
              "J": {"components": nested(2)}, "Gamma": {"components": nested(3)}}
    return {"version": 1, "dimension": d, "domain": [[-0.5, 0.5]] * d, "fields": fields}


def _oracle_polys(node, d, rank):
    """Object array of the per-component PolyExpr of a component array."""
    polys = np.empty((d,) * rank, dtype=object)
    for idx in np.ndindex(polys.shape):
        terms = _walk(node, idx)
        polys[idx] = PolyExpr(d, np.array([t["exp"] for t in terms], dtype=np.int64).reshape(-1, d),
                              [float(t["coef"]) for t in terms])
    return polys


@pytest.mark.parametrize("seed", range(8))
def test_loader_matches_polyexpr_oracle(seed):
    doc = _random_doc(seed)
    d = doc["dimension"]
    model = parse_model(copy.deepcopy(doc))
    loaded = {"J": model.J, "Gamma": model.conn.field,
              "h" if model.metric.flavor == "norden" else "g": model.metric}
    want_fields = {}
    for name, node in doc["fields"].items():
        valence = VALENCES[name]
        polys = _oracle_polys(node["components"], d, sum(valence))
        oracle = from_comps(d, valence, polys)
        assert np.array_equal(loaded[name].exps, oracle.exps), name
        assert np.array_equal(loaded[name].coefs, oracle.coefs), name
        comps = np.empty(polys.shape, dtype=object)
        for idx in np.ndindex(polys.shape):
            comps[idx] = [{"exp": e, "coef": c} for e, c in polys[idx].terms()]
        want_fields[name] = {k: v for k, v in node.items() if k != "components"}
        want_fields[name]["components"] = comps.tolist()
    want = {**doc, "fields": want_fields}
    assert canonical_json(canonical_doc(model)) == canonical_json(want)


def _assert_rewrite_keeps_hash_and_bytes(path, tmp_path):
    _, doc = load_model(str(path))
    again = tmp_path / "again.json"
    write_model(doc, again)
    _, doc2 = load_model(str(again))
    assert model_hash(doc2) == model_hash(doc) == model_hash(json.loads(path.read_text()))
    assert again.read_bytes() == path.read_bytes()
    # the file is one line: the bytes that model_hash hashes, then a newline
    body, end = path.read_bytes()[:-1], path.read_bytes()[-1:]
    assert end == b"\n" and b"\n" not in body
    assert model_hash(doc) == "sha256:" + hashlib.sha256(body).hexdigest()


def test_example_models_keep_hash_and_bytes(tmp_path, monkeypatch, capsys):
    out = tmp_path / "examples"
    monkeypatch.setattr(sys, "argv", ["make_example_models.py", "--out", str(out)])
    runpy.run_path(str(ROOT / "scripts" / "make_example_models.py"), run_name="__main__")
    capsys.readouterr()
    names = sorted(p.name for p in out.glob("*.json"))
    assert names == ["flat_hermitian_2d.json", "flat_norden_2d.json",
                     "random_hermitian_4d.json", "sheared_kahler_4d.json"]
    for name in names:
        _assert_rewrite_keeps_hash_and_bytes(out / name, tmp_path)

    witness = tmp_path / "witness.json"
    code = main(["synthesize", str(out / "sheared_kahler_4d.json"), "--constraints",
                 "torsion_free,complex_connection", "--degree", "1", "--out", str(witness)])
    capsys.readouterr()
    assert code == 0
    model, _ = load_model(str(witness))
    assert model.conn.field.exps.shape[0] > 1  # a nonconstant witness
    _assert_rewrite_keeps_hash_and_bytes(witness, tmp_path)


def test_unread_top_level_key_leaves_the_hash_alone(tmp_path, capsys):
    # the hash is that of the model the file holds; a key the loader does
    # not read (such as a generator note) is not part of it
    doc = canonical_doc(flat_hermitian_model(2))
    plain, noted = tmp_path / "plain.json", tmp_path / "noted.json"
    plain.write_text(json.dumps(doc))
    noted.write_text(json.dumps({**doc, "genspec": {"seed": 3, "degree": 2}}))
    assert model_hash(load_model(str(noted))[1]) == model_hash(load_model(str(plain))[1])
    reports = []
    for path in (plain, noted):
        assert main(["check", str(path), "--predicates", "kahler"]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    assert reports[0]["model_hash"] == reports[1]["model_hash"]
