"""Tolerance-based checks for the named structural conditions of a chart
model, each returning the residual-bearing report ``qsg check`` prints.

A predicate's residual is the plain max-absolute value of its defining
tensor expression over the sample sweep (the expression is identically
zero when the condition holds, and the polynomial inputs make true zeros
resolve near machine precision, so pass/fail margins are wide).

Each predicate maps the model at the sweep's points (``model.ModelAt``) to
that expression; where ``ModelAt`` already evaluates it (d^D J, the
covariant derivative of J) the table names that accessor.  The
synthesizer's constraints of the same names (``generate.CONSTRAINTS``) are
these functions, evaluated on its probe and holdout points.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import sampling
from .calculus import LeviCivitaConnection, covd_values, exterior_d2_values
from .contraction import contract
from .errors import QsgError
from .model import ChartModel, ModelAt
from .structures import (
    PURITY_SIGN,
    codazzi_defect,
    d_nabla_metric_values,
    purity_values,
    quasi_kahler_norden_sum_values,
    tachibana_values,
    torsion_compat,
)

DEFAULT_TOL = 1e-8
DEFAULT_SAMPLES = 25
_PTS_TAG = sampling.tag("predicate_sweep")


def _flavored(at: ModelAt, predicate: str, flavor: str):
    """The model's metric and structure; raises unless the metric is ``flavor``."""
    metric, J = at.model.require("metric"), at.model.require("J")
    if metric.flavor != flavor:
        raise QsgError(f"{predicate} needs a {flavor}-flavored metric")
    return metric, J


# Predicates read through the evaluator's memo what several of them share
# (the covariant derivative of J, the torsion, the Nijenhuis tensor, the
# partner form); the rest, the metric's covariant derivative included, they
# compute and drop, because a ``check`` keeps its evaluator to the end, and
# keeping those arrays adds about 5 MB to the peak of a 3600-point 4-d sweep.


def _almost_complex(at: ModelAt):
    jv = at.jv
    return contract("nkm,nmj->nkj", jv, jv) + np.eye(at.model.dimension)


def _purity(at: ModelAt, flavor: str):
    metric, J = at.model.require("metric"), at.model.require("J")
    return purity_values(metric, J, at.pts, PURITY_SIGN[flavor])


def _quasi_statistical(at: ModelAt):
    metric = at.model.require("metric")
    return d_nabla_metric_values(covd_values(at.conn(), metric, at.pts), at.bv, at.torsion())


def _statistical(at: ModelAt):
    metric = at.model.require("metric")
    db = covd_values(at.conn(), metric, at.pts)
    n = at.pts.shape[0]
    return np.concatenate([(db - np.swapaxes(db, 1, 2)).reshape(n, -1),
                           at.torsion().reshape(n, -1)], axis=1)


def _codazzi_J(at: ModelAt):
    return codazzi_defect(at.covd_J())


def _torsion_compatible(at: ModelAt):
    jv = at.jv
    return torsion_compat(at.torsion(), jv)


def _integrable(at: ModelAt):
    return at.nijenhuis


def _kahler(at: ModelAt):
    _flavored(at, "kahler", "hermitian")
    domega = exterior_d2_values(at.partner, at.pts)
    n = at.pts.shape[0]
    return np.concatenate([at.nijenhuis.reshape(n, -1), domega.reshape(n, -1)], axis=1)


def _anti_kahler(at: ModelAt):
    metric, J = _flavored(at, "anti_kahler", "norden")
    return tachibana_values(J, metric, at.pts)


def _quasi_kahler_norden(at: ModelAt):
    metric, _ = _flavored(at, "quasi_kahler_norden", "norden")
    lc = at.with_conn(LeviCivitaConnection(metric))
    return quasi_kahler_norden_sum_values(lc.covd_J(), at.bv)


PREDICATES = {
    "almost_complex": _almost_complex,
    "hermitian": partial(_purity, flavor="hermitian"),
    "norden": partial(_purity, flavor="norden"),
    "quasi_statistical": _quasi_statistical,
    "statistical": _statistical,
    "codazzi_J": _codazzi_J,
    "torsion_compatible": _torsion_compatible,
    "integrable": _integrable,
    "d_closed_J": ModelAt.d_J,
    "kahler": _kahler,
    "anti_kahler": _anti_kahler,
    "quasi_kahler_norden": _quasi_kahler_norden,
    "complex_connection": ModelAt.covd_J,
}


def _report(name: str, values: np.ndarray, pts: np.ndarray, tol: float,
            samples: int) -> dict:
    # the first largest |value|, from the extremes of the signed values
    # rather than a copy of their absolute values; a NaN is both extremes
    # at its first position, so it is found and reported as the worst
    hi, lo = int(values.argmax()), int(values.argmin())
    top, bottom = values.flat[hi], -values.flat[lo]
    worst = hi if top > bottom else lo if bottom > top else min(hi, lo)
    max_residual = float(abs(values.flat[worst]))
    worst_n, *worst_idx = np.unravel_index(worst, values.shape)
    return {"name": name, "max_residual": max_residual,
            "worst_point": [float(x) for x in pts[worst_n]],
            "worst_indices": [int(i) for i in worst_idx],
            "pass": bool(max_residual <= tol), "tolerance": float(tol), "samples": int(samples)}


def check_many(model: ChartModel, predicates, tol: float = DEFAULT_TOL,
               seed: int = 0, samples: int = DEFAULT_SAMPLES) -> list:
    """Sweep several predicates over one seeded quasi-random sample of the
    chart; one report per name, in order: the dict ``qsg check`` prints,
    with keys ``name``, ``max_residual``, ``worst_point`` and
    ``worst_indices`` (where the largest |value| sits), ``pass``,
    ``tolerance`` and ``samples``.

    The sample depends only on the box, ``samples`` and ``seed``, so it is
    drawn once, and the names are swept in the order given through one
    ``ModelAt``, which computes each kernel several predicates read (the
    covariant derivative of J, the torsion, the Nijenhuis tensor) once per
    call.  Every name is validated before any sweep runs, and the first
    failing name raises.  Deterministic: identical (model, predicates, tol,
    seed, samples) yield identical reports.
    """
    if not predicates:
        raise QsgError("no predicates given")
    unknown = [p for p in predicates if p not in PREDICATES]
    if unknown:
        raise QsgError(f"unknown predicate {unknown[0]!r}; valid: {sorted(PREDICATES)}")
    repeated = [p for i, p in enumerate(predicates) if p in predicates[:i]]
    if repeated:
        raise QsgError(f"predicate {repeated[0]!r} is listed more than once")
    # writeable, so no field keeps its many-point values and jets (see
    # fields._memo_frozen): that memory costs more than the repeats it saves
    pts = sampling.sample_box(model.domain.box, samples, seed, _PTS_TAG)
    at = ModelAt(model, pts)
    return [_report(name, PREDICATES[name](at), pts, tol, samples) for name in predicates]

