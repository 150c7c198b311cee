"""Tolerance-based checks for the named structural conditions of a chart
model, each returning a residual-bearing report.

A predicate's residual is the plain max-absolute value of its defining
tensor expression over the sample sweep (the expression is identically
zero when the condition holds, and the polynomial inputs make true zeros
resolve near machine precision, so pass/fail margins are wide).

Each predicate maps the model at the sweep's points (``model.ModelAt``) to
that expression.  The synthesizer's constraints of the same names
(``generate.CONSTRAINTS``) are these functions, evaluated on its probe and
holdout points.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    d_nabla_J_values,
    d_nabla_metric_values,
    purity_values,
    quasi_kahler_norden_sum_values,
    tachibana_values,
    torsion_compat,
)

DEFAULT_TOL = 1e-8
DEFAULT_SAMPLES = 25
_PTS_TAG = sampling.tag("predicate_sweep")


@dataclass
class CheckReport:
    """Outcome of one predicate sweep."""

    name: str
    max_residual: float
    worst_point: tuple
    worst_indices: tuple
    passed: bool
    tolerance: float
    samples: int

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "max_residual": self.max_residual,
            "worst_point": list(self.worst_point),
            "worst_indices": list(self.worst_indices),
            "pass": self.passed,
            "tolerance": self.tolerance,
            "samples": self.samples,
        }


def _needs(model: ChartModel, *names):
    return [model.require(n) for n in names]


def _flavored(at: ModelAt, predicate: str, flavor: str):
    """The model's metric and structure; raises unless the metric is ``flavor``."""
    metric, J = _needs(at.model, "metric", "J")
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
    metric, J = _needs(at.model, "metric", "J")
    return purity_values(metric, J, at.pts, PURITY_SIGN[flavor])


def _quasi_statistical(at: ModelAt):
    metric, conn = _needs(at.model, "metric", "Gamma")
    return d_nabla_metric_values(covd_values(conn, metric, at.pts), at.bv, at.torsion())


def _statistical(at: ModelAt):
    metric, conn = _needs(at.model, "metric", "Gamma")
    db = covd_values(conn, metric, at.pts)
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


def _d_closed_J(at: ModelAt):
    return d_nabla_J_values(at.covd_J(), at.jv, at.torsion())


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


def _complex_connection(at: ModelAt):
    return at.covd_J()


PREDICATES = {
    "almost_complex": _almost_complex,
    "hermitian": partial(_purity, flavor="hermitian"),
    "norden": partial(_purity, flavor="norden"),
    "quasi_statistical": _quasi_statistical,
    "statistical": _statistical,
    "codazzi_J": _codazzi_J,
    "torsion_compatible": _torsion_compatible,
    "integrable": _integrable,
    "d_closed_J": _d_closed_J,
    "kahler": _kahler,
    "anti_kahler": _anti_kahler,
    "quasi_kahler_norden": _quasi_kahler_norden,
    "complex_connection": _complex_connection,
}


def _report(name: str, values: np.ndarray, pts: np.ndarray, tol: float,
            samples: int) -> CheckReport:
    # the first largest |value|, from the extremes of the signed values
    # rather than a copy of their absolute values; a NaN is both extremes
    # at its first position, so it is found and reported as the worst
    hi, lo = int(values.argmax()), int(values.argmin())
    top, bottom = values.flat[hi], -values.flat[lo]
    worst = hi if top > bottom else lo if bottom > top else min(hi, lo)
    max_residual = float(abs(values.flat[worst]))
    worst_n, *worst_idx = np.unravel_index(worst, values.shape)
    return CheckReport(
        name=name,
        max_residual=max_residual,
        worst_point=tuple(float(x) for x in pts[worst_n]),
        worst_indices=tuple(int(i) for i in worst_idx),
        passed=bool(max_residual <= tol),
        tolerance=float(tol),
        samples=int(samples),
    )


def check_many(model: ChartModel, predicates, tol: float = DEFAULT_TOL,
               seed: int = 0, samples: int = DEFAULT_SAMPLES) -> list:
    """Sweep several predicates over one seeded quasi-random sample of the
    chart; one ``CheckReport`` per name, in order.

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
    pts = sampling.sample_box(model.domain.box, samples, seed, _PTS_TAG)
    at = ModelAt(model, pts)
    return [_report(name, PREDICATES[name](at), pts, tol, samples) for name in predicates]


def check(model: ChartModel, predicate: str, tol: float = DEFAULT_TOL,
          seed: int = 0, samples: int = DEFAULT_SAMPLES) -> CheckReport:
    """Sweep one predicate (see ``check_many``)."""
    return check_many(model, [predicate], tol=tol, seed=seed, samples=samples)[0]
