"""Tolerance-based checks for the named structural conditions of a chart
model, each returning a residual-bearing report.

A predicate's residual is the plain max-absolute value of its defining
tensor expression over the sample sweep (the expression is identically
zero when the condition holds, and the polynomial inputs make true zeros
resolve near machine precision, so pass/fail margins are wide).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sampling
from .calculus import covd_values, exterior_d2_values, torsion_values
from .errors import ConfigError, PreconditionError
from .model import ChartModel
from .structures import (
    codazzi_defect,
    d_nabla_J_values,
    d_nabla_metric_values,
    nijenhuis,
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


def _almost_complex(model, pts):
    (J,) = _needs(model, "J")
    jv = J.values(pts)
    return np.einsum("nkm,nmj->nkj", jv, jv) + np.eye(model.dimension)


def _hermitian(model, pts):
    metric, J = _needs(model, "metric", "J")
    return purity_values(metric, J, pts, 1.0)


def _norden(model, pts):
    metric, J = _needs(model, "metric", "J")
    return purity_values(metric, J, pts, -1.0)


def _quasi_statistical(model, pts):
    metric, conn = _needs(model, "metric", "Gamma")
    return d_nabla_metric_values(conn, metric, pts)


def _statistical(model, pts):
    metric, conn = _needs(model, "metric", "Gamma")
    db = covd_values(conn, metric.field, pts)
    codazzi_defect = db - np.swapaxes(db, 1, 2)
    torsion = torsion_values(conn, pts)
    return np.concatenate(
        [codazzi_defect.reshape(pts.shape[0], -1), torsion.reshape(pts.shape[0], -1)], axis=1
    )


def _codazzi_J(model, pts):
    J, conn = _needs(model, "J", "Gamma")
    return codazzi_defect(covd_values(conn, J.field, pts))


def _torsion_compatible(model, pts):
    J, conn = _needs(model, "J", "Gamma")
    return torsion_compat(torsion_values(conn, pts), J.values(pts))


def _integrable(model, pts):
    (J,) = _needs(model, "J")
    return nijenhuis(J).values(pts)


def _d_closed_J(model, pts):
    J, conn = _needs(model, "J", "Gamma")
    return d_nabla_J_values(conn, J, pts)


def _kahler(model, pts):
    metric, J = _needs(model, "metric", "J")
    if metric.flavor != "hermitian":
        raise PreconditionError("kahler needs a hermitian-flavored metric")
    n_res = nijenhuis(J).values(pts)
    domega = exterior_d2_values(model.partner_form(), pts)
    return np.concatenate(
        [n_res.reshape(pts.shape[0], -1), domega.reshape(pts.shape[0], -1)], axis=1
    )


def _anti_kahler(model, pts):
    metric, J = _needs(model, "metric", "J")
    if metric.flavor != "norden":
        raise PreconditionError("anti_kahler needs a norden-flavored metric")
    return tachibana_values(J, metric, pts)


def _quasi_kahler_norden(model, pts):
    metric, J = _needs(model, "metric", "J")
    if metric.flavor != "norden":
        raise PreconditionError("quasi_kahler_norden needs a norden-flavored metric")
    return quasi_kahler_norden_sum_values(metric, J, pts)


def _complex_connection(model, pts):
    J, conn = _needs(model, "J", "Gamma")
    return covd_values(conn, J.field, pts)


PREDICATES = {
    "almost_complex": _almost_complex,
    "hermitian": _hermitian,
    "norden": _norden,
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
    flat = np.abs(values.reshape(values.shape[0], -1))
    n_idx = int(flat.argmax())
    worst_n, worst_flat = divmod(n_idx, flat.shape[1])
    if values.ndim > 1 and values.shape[1:]:
        worst_idx = tuple(int(i) for i in np.unravel_index(worst_flat, values.shape[1:]))
    else:
        worst_idx = ()
    max_residual = float(flat.max()) if flat.size else 0.0
    return CheckReport(
        name=name,
        max_residual=max_residual,
        worst_point=tuple(float(x) for x in pts[worst_n]),
        worst_indices=worst_idx,
        passed=bool(max_residual <= tol),
        tolerance=float(tol),
        samples=int(samples),
    )


def check_many(model: ChartModel, predicates, tol: float = DEFAULT_TOL,
               seed: int = 0, samples: int = DEFAULT_SAMPLES) -> list:
    """Sweep several predicates over one seeded quasi-random sample of the
    chart; one ``CheckReport`` per name, in order.

    The sample depends only on the box, ``samples`` and ``seed``, so it is
    drawn once and shared.  Every name is validated before any sweep runs.
    Deterministic: identical (model, predicates, tol, seed, samples) yield
    identical reports.
    """
    unknown = [p for p in predicates if p not in PREDICATES]
    if unknown:
        raise ConfigError(
            f"unknown predicate {unknown[0]!r}; valid: {sorted(PREDICATES)}"
        )
    pts = sampling.sample_box(model.domain.box, samples, seed, _PTS_TAG)
    return [_report(name, PREDICATES[name](model, pts), pts, tol, samples)
            for name in predicates]


def check(model: ChartModel, predicate: str, tol: float = DEFAULT_TOL,
          seed: int = 0, samples: int = DEFAULT_SAMPLES) -> CheckReport:
    """Sweep one predicate (see ``check_many``)."""
    return check_many(model, [predicate], tol=tol, seed=seed, samples=samples)[0]
