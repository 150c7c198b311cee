"""Model file schema: JSON documents describing one chart scenario.

Layout::

    {
      "version": 1,
      "dimension": 2,
      "domain": [[-0.5, 0.5], [-0.5, 0.5]],
      "fields": {
        "g":     {"flavor": "hermitian", "components": [[poly, ...], ...]},
        "J":     {"components": [[poly, ...], ...]},
        "Gamma": {"components": [[[poly, ...], ...], ...]}
      },
      "genspec": {...}          # optional, copied unchanged; nothing reads it
    }

where ``poly`` is a list of terms ``{"exp": [e1, ..., ed], "coef": c}``.
Component arrays are nested lists indexed upper-then-lower, row major.
Exactly one metric entry is allowed ("g" hermitian/plain or "h" norden).
Parsing canonicalizes polynomials (terms combined, sorted, zeros dropped),
and the model hash is the SHA-256 of the canonical JSON form, so identical
models hash identically regardless of formatting.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .calculus import PolyConnection
from .errors import ModelFileError
from .fields import ChartDomain, PolyExpr, PolyTensorField
from .model import ChartModel
from .structures import AlmostComplexStructure, MetricField

SCHEMA_VERSION = 1
MAX_DEGREE = 16


def _expect(cond, message, path):
    if not cond:
        raise ModelFileError(message, path=path)


def _parse_poly(node, dimension, path) -> PolyExpr:
    _expect(isinstance(node, list), "polynomial must be a list of terms", path)
    exps, coefs = [], []
    for i, term in enumerate(node):
        tpath = f"{path}[{i}]"
        _expect(isinstance(term, dict), "term must be an object", tpath)
        _expect(set(term) == {"exp", "coef"}, 'term must have exactly "exp" and "coef"', tpath)
        exp = term["exp"]
        _expect(isinstance(exp, list) and len(exp) == dimension,
                f"exponent vector must have length {dimension}", f"{tpath}.exp")
        _expect(all(isinstance(e, int) and 0 <= e for e in exp),
                "exponents must be nonnegative integers", f"{tpath}.exp")
        _expect(sum(exp) <= MAX_DEGREE, f"total degree exceeds {MAX_DEGREE}", f"{tpath}.exp")
        coef = term["coef"]
        _expect(isinstance(coef, (int, float)) and np.isfinite(coef),
                "coefficient must be a finite number", f"{tpath}.coef")
        exps.append(exp)
        coefs.append(float(coef))
    return PolyExpr(dimension, np.asarray(exps, dtype=np.int64).reshape(-1, dimension), coefs)


def _parse_component_array(node, dimension, rank, path) -> np.ndarray:
    comps = np.empty((dimension,) * rank, dtype=object)
    def walk(sub, idx, depth, subpath):
        if depth == rank:
            comps[idx] = _parse_poly(sub, dimension, subpath)
            return
        _expect(isinstance(sub, list) and len(sub) == dimension,
                f"expected {dimension} entries at nesting depth {depth}", subpath)
        for i, child in enumerate(sub):
            walk(child, idx + (i,), depth + 1, f"{subpath}[{i}]")
    walk(node, (), 0, path)
    return comps


def parse_model(doc: dict) -> ChartModel:
    _expect(isinstance(doc, dict), "model file must be a JSON object", "")
    _expect(doc.get("version") == SCHEMA_VERSION,
            f"unsupported version {doc.get('version')!r}", "version")
    dim = doc.get("dimension")
    _expect(isinstance(dim, int) and dim >= 2 and dim % 2 == 0,
            "dimension must be an even integer >= 2", "dimension")
    dom = doc.get("domain")
    _expect(isinstance(dom, list) and len(dom) == dim, f"domain needs {dim} intervals", "domain")
    box = []
    for i, iv in enumerate(dom):
        _expect(isinstance(iv, list) and len(iv) == 2, "interval must be [lo, hi]", f"domain[{i}]")
        lo, hi = iv
        _expect(isinstance(lo, (int, float)) and isinstance(hi, (int, float)) and hi > lo,
                "interval must have positive width", f"domain[{i}]")
        box.append((float(lo), float(hi)))
    domain = ChartDomain(dim, tuple(box))

    fields = doc.get("fields")
    _expect(isinstance(fields, dict), 'model needs a "fields" object', "fields")
    known = {"g", "h", "J", "Gamma"}
    for name in fields:
        _expect(name in known, f"unknown field {name!r}", f"fields.{name}")
    metric_names = [n for n in ("g", "h") if n in fields]
    _expect(len(metric_names) == 1, 'exactly one metric entry ("g" or "h") required', "fields")

    (mname,) = metric_names
    mnode = fields[mname]
    _expect(isinstance(mnode, dict) and "components" in mnode,
            'metric entry needs "components"', f"fields.{mname}")
    default_flavor = "hermitian" if mname == "g" else "norden"
    flavor = mnode.get("flavor", default_flavor)
    allowed = ("hermitian", "plain") if mname == "g" else ("norden",)
    _expect(flavor in allowed, f"flavor must be one of {allowed}", f"fields.{mname}.flavor")
    comps = _parse_component_array(mnode["components"], dim, 2, f"fields.{mname}.components")
    metric = MetricField(PolyTensorField(dim, (0, 2), comps), flavor=flavor)

    J = None
    if "J" in fields:
        jnode = fields["J"]
        _expect(isinstance(jnode, dict) and "components" in jnode,
                'structure entry needs "components"', "fields.J")
        comps = _parse_component_array(jnode["components"], dim, 2, "fields.J.components")
        J = AlmostComplexStructure(PolyTensorField(dim, (1, 1), comps))

    conn = None
    if "Gamma" in fields:
        gnode = fields["Gamma"]
        _expect(isinstance(gnode, dict) and "components" in gnode,
                'connection entry needs "components"', "fields.Gamma")
        comps = _parse_component_array(gnode["components"], dim, 3, "fields.Gamma.components")
        conn = PolyConnection(PolyTensorField(dim, (1, 2), comps))

    return ChartModel(domain=domain, metric=metric, J=J, conn=conn)


def load_model(path: str) -> tuple[ChartModel, dict]:
    """Parse a model file; returns the model and its canonical document."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as exc:
        raise ModelFileError(f"cannot read model file: {exc}", path=str(path))
    except json.JSONDecodeError as exc:
        raise ModelFileError(f"invalid JSON: {exc}", path=str(path))
    model = parse_model(doc)
    return model, canonical_doc(model, doc)


def _poly_to_json(poly: PolyExpr) -> list:
    return [{"exp": e, "coef": c} for e, c in poly.terms()]


def _comps_to_json(comps: np.ndarray, rank: int) -> list:
    if rank == 1:
        return [_poly_to_json(p) for p in comps]
    return [_comps_to_json(sub, rank - 1) for sub in comps]


def canonical_doc(model: ChartModel, extra: dict | None = None) -> dict:
    """Canonical JSON form: normalized polynomials, fixed key layout."""
    fields = {}
    if model.metric is not None:
        name = "h" if model.metric.flavor == "norden" else "g"
        fields[name] = {
            "flavor": model.metric.flavor,
            "components": _comps_to_json(model.metric.field.comps, 2),
        }
    if model.J is not None:
        fields["J"] = {"components": _comps_to_json(model.J.field.comps, 2)}
    if model.conn is not None:
        if not isinstance(model.conn, PolyConnection):
            raise ModelFileError("only polynomial connections serialize to model files",
                                 path="fields.Gamma")
        fields["Gamma"] = {"components": _comps_to_json(model.conn.field.comps, 3)}
    doc = {
        "version": SCHEMA_VERSION,
        "dimension": model.dimension,
        "domain": [[lo, hi] for lo, hi in model.domain.box],
        "fields": fields,
    }
    if extra and "genspec" in extra:
        doc["genspec"] = extra["genspec"]
    return doc


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def model_hash(doc: dict) -> str:
    return "sha256:" + hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


def write_model(doc: dict, path: str):
    with open(path, "w") as f:
        json.dump(doc, f, sort_keys=True, indent=1)
        f.write("\n")
