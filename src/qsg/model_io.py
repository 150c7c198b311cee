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
      }
    }

where ``poly`` is a list of terms ``{"exp": [e1, ..., ed], "coef": c}``.
Component arrays are nested lists indexed upper-then-lower, row major.
Exactly one metric entry is allowed ("g" hermitian/plain or "h" norden),
and its coefficient tensor must be symmetric; JSON booleans are not
numbers.  Terms are read into, and written from, the dense form of
:class:`PolyTensorField` (terms combined, sorted, zeros dropped); the
model hash is the SHA-256 of the canonical JSON form, so identical models
hash identically regardless of formatting.
"""

from __future__ import annotations

import hashlib
import json
from itertools import chain

import numpy as np

from .calculus import SYMMETRY_TOL, PolyConnection, symmetry_defect
from .errors import ModelFileError
from .fields import ChartDomain, PolyTensorField, _canonical_terms
from .model import ChartModel
from .structures import AlmostComplexStructure, MetricField

SCHEMA_VERSION = 1
MAX_DEGREE = 16


def _expect(cond, message, path):
    if not cond:
        raise ModelFileError(message, path=path)


def _numbers(values) -> bool:
    """All finite ints or floats; JSON booleans are not numbers."""
    try:
        return (set(map(type, values)) <= {int, float}
                and bool(np.isfinite(np.array(values, dtype=float)).all()))
    except OverflowError:  # an integer beyond the float range
        return False


# (term key, message, test on the values of that key in a list of terms).
# A test holds for a list exactly when it holds for each term alone, given
# that the tests before it hold: run on all terms at once they validate a
# field in bulk, and run term by term they find the first bad term.
_TERM_CHECKS = (
    ("", "term must be an object", lambda ts, d: set(map(type, ts)) <= {dict}),
    ("", 'term must have exactly "exp" and "coef"',
     lambda ts, d: set(map(len, ts)) <= {2} and set().union(*ts) <= {"exp", "coef"}),
    ("exp", "exponent vector must have length {d}",
     lambda es, d: set(map(type, es)) <= {list} and set(map(len, es)) <= {d}),
    ("exp", "exponents must be nonnegative integers",
     lambda es, d: set(map(type, chain.from_iterable(es))) <= {int}
     and min(chain.from_iterable(es), default=0) >= 0),
    ("exp", f"total degree exceeds {MAX_DEGREE}",
     lambda es, d: max(map(sum, es), default=0) <= MAX_DEGREE),
    ("coef", "coefficient must be a finite number", lambda cs, d: _numbers(cs)),
)


def _failure(values, dimension):
    """(path suffix, message) of the first check that some term of
    ``values[""]`` fails, or None; ``values`` gains the list of each key's
    values as the checks read them."""
    for key, message, holds in _TERM_CHECKS:
        if key not in values:
            values[key] = [t[key] for t in values[""]]
        if not holds(values[key], dimension):
            return "." + key if key else "", message.format(d=dimension)
    return None


def _polys(node, dimension, rank):
    """The polynomials of a well-nested component array, row major; None
    when the nesting is malformed."""
    polys = [node]
    for _ in range(rank):
        if set(map(type, polys)) != {list} or set(map(len, polys)) != {dimension}:
            return None
        polys = list(chain.from_iterable(polys))
    return polys if set(map(type, polys)) == {list} else None


def _scan(node, dimension, rank, path, depth=0):
    """Raise the first problem of a component array in document order."""
    if depth < rank:
        _expect(type(node) is list and len(node) == dimension,
                f"expected {dimension} entries at nesting depth {depth}", path)
        for i, child in enumerate(node):
            _scan(child, dimension, rank, f"{path}[{i}]", depth + 1)
        return
    _expect(type(node) is list, "polynomial must be a list of terms", path)
    for i, term in enumerate(node):
        failure = _failure({"": [term]}, dimension)
        if failure:
            raise ModelFileError(failure[1], path=f"{path}[{i}]{failure[0]}")


def _read_field(node, dimension, valence, path) -> PolyTensorField:
    """The ``components`` of field entry ``node`` -> field, validated in
    bulk and scanned term by term only when that fails.  One canonical pass
    over the terms keyed by (component, exponent row) sums the repeats of
    each component in document order, as a per-component canonical
    polynomial would; the sums are then scattered onto the union of the
    exponent rows."""
    rank = valence[0] + valence[1]
    polys = _polys(node["components"], dimension, rank)
    values = {"": list(chain.from_iterable(polys or ()))}
    if polys is None or _failure(values, dimension):
        _scan(node["components"], dimension, rank, f"{path}.components")
        raise AssertionError(f"{path}: the bulk checks failed but the term scan passed")
    comp = np.repeat(np.arange(len(polys)), [len(p) for p in polys])
    exps = np.array(values["exp"], dtype=np.int64).reshape(-1, dimension)
    coefs = np.array(values["coef"], dtype=float)
    # the component is the least significant digit: rows come out grouped by exponent
    keyed, sums = _canonical_terms(np.column_stack([comp, exps]), coefs)
    comp, exps = keyed[:, 0], keyed[:, 1:]
    fresh = np.ones(exps.shape[0], dtype=bool)
    fresh[1:] = np.any(exps[1:] != exps[:-1], axis=1)
    dense = np.zeros((int(fresh.sum()), dimension ** rank))
    dense[np.cumsum(fresh) - 1, comp] = sums
    return PolyTensorField(dimension, valence, exps=exps[fresh],
                           coefs=dense.reshape((-1,) + (dimension,) * rank))


def _field_json(field: PolyTensorField) -> list:
    """Field -> nested component lists, each holding its nonzero terms in
    the canonical order of the field's basis."""
    d, m = field.dimension, field.exps.shape[0]
    table = field.coefs.reshape(m, d ** field.rank).T
    comp, row = np.nonzero(table)
    terms = [{"exp": e, "coef": c}
             for e, c in zip(field.exps[row].tolist(), table[comp, row].tolist())]
    ends = np.cumsum(np.bincount(comp, minlength=table.shape[0])).tolist()
    nested = [terms[a:b] for a, b in zip([0] + ends[:-1], ends)]
    for _ in range(field.rank - 1):
        nested = [nested[i:i + d] for i in range(0, len(nested), d)]
    return nested


def parse_model(doc: dict) -> ChartModel:
    _expect(isinstance(doc, dict), "model file must be a JSON object", "")
    version = doc.get("version")
    _expect(type(version) is int and version == SCHEMA_VERSION,
            f"unsupported version {version!r}", "version")
    dim = doc.get("dimension")
    _expect(isinstance(dim, int) and dim >= 2 and dim % 2 == 0,
            "dimension must be an even integer >= 2", "dimension")
    dom = doc.get("domain")
    _expect(isinstance(dom, list) and len(dom) == dim, f"domain needs {dim} intervals", "domain")
    box = []
    for i, iv in enumerate(dom):
        _expect(isinstance(iv, list) and len(iv) == 2, "interval must be [lo, hi]", f"domain[{i}]")
        lo, hi = iv
        _expect(_numbers(iv), "interval bounds must be finite numbers", f"domain[{i}]")
        _expect(hi > lo, "interval must have positive width", f"domain[{i}]")
        box.append((float(lo), float(hi)))
    domain = ChartDomain(dim, tuple(box))

    fields = doc.get("fields")
    _expect(isinstance(fields, dict), 'model needs a "fields" object', "fields")
    known = {"g", "h", "J", "Gamma"}
    for name in fields:
        _expect(name in known, f"unknown field {name!r}", f"fields.{name}")
    metric_names = [n for n in ("g", "h") if n in fields]
    _expect(len(metric_names) == 1, 'exactly one metric entry ("g" or "h") required', "fields")

    def entry(name, role):
        node = fields[name]
        _expect(isinstance(node, dict) and "components" in node,
                f'{role} entry needs "components"', f"fields.{name}")
        return node

    (mname,) = metric_names
    mnode = entry(mname, "metric")
    flavor = mnode.get("flavor", "hermitian" if mname == "g" else "norden")
    allowed = ("hermitian", "plain") if mname == "g" else ("norden",)
    _expect(flavor in allowed, f"flavor must be one of {allowed}", f"fields.{mname}.flavor")
    metric = MetricField(_read_field(mnode, dim, (0, 2), f"fields.{mname}"), flavor=flavor)
    defect = symmetry_defect(metric.coefs, 1.0)
    _expect(defect <= SYMMETRY_TOL, f"metric is not symmetric (defect {defect:.3e})",
            f"fields.{mname}.components")
    J = conn = None
    if "J" in fields:
        J = AlmostComplexStructure(_read_field(entry("J", "structure"), dim, (1, 1), "fields.J"))
    if "Gamma" in fields:
        conn = PolyConnection(_read_field(entry("Gamma", "connection"), dim, (1, 2),
                                          "fields.Gamma"))
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
    return model, canonical_doc(model)


def canonical_doc(model: ChartModel) -> dict:
    """Canonical JSON form: normalized polynomials, fixed key layout."""
    fields = {}
    if model.metric is not None:
        name = "h" if model.metric.flavor == "norden" else "g"
        fields[name] = {
            "flavor": model.metric.flavor,
            "components": _field_json(model.metric),
        }
    if model.J is not None:
        fields["J"] = {"components": _field_json(model.J)}
    if model.conn is not None:
        if not isinstance(model.conn, PolyConnection):
            raise ModelFileError("only polynomial connections serialize to model files",
                                 path="fields.Gamma")
        fields["Gamma"] = {"components": _field_json(model.conn.field)}
    return {
        "version": SCHEMA_VERSION,
        "dimension": model.dimension,
        "domain": [[lo, hi] for lo, hi in model.domain.box],
        "fields": fields,
    }


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def model_hash(doc: dict) -> str:
    return "sha256:" + hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


def write_model(doc: dict, path: str):
    with open(path, "w") as f:
        f.write(canonical_json(doc) + "\n")
