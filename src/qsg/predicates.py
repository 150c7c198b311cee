"""Tolerance-based checks for the named structural conditions of a chart
model, each returning a residual-bearing report.

A predicate's residual is the plain max-absolute value of its defining
tensor expression over the sample sweep (the expression is identically
zero when the condition holds, and the polynomial inputs make true zeros
resolve near machine precision, so pass/fail margins are wide).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import sampling
from .calculus import covd_values, exterior_d2_values, torsion_values
from .contraction import contract
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


# The kernels that more than one predicate reads, by predicate.  A call
# sweeps the readers of a kernel one after another and keeps the kernel only
# while one of them is still to run, so the table decides memory and speed,
# never a value.
_READS = {
    "statistical": ("torsion",),
    "torsion_compatible": ("torsion",),
    "codazzi_J": ("covd_J",),
    "complex_connection": ("covd_J",),
    "d_closed_J": ("covd_J",),
    "integrable": ("nijenhuis",),
    "kahler": ("nijenhuis",),
}


class _Sweep:
    """One model at the points of one ``check_many`` call.  Each shared
    kernel (the covariant derivative of J, the torsion, the Nijenhuis
    tensor) is computed once per call and dropped after its last reader."""

    def __init__(self, model: ChartModel, pts: np.ndarray, predicates):
        self.model = model
        self.pts = pts
        self._reads = Counter(k for name in predicates for k in _READS.get(name, ()))
        self._kept = {}

    def _shared(self, key, compute):
        value = self._kept.pop(key, None)
        if value is None:
            value = compute()
        self._reads[key] -= 1
        if self._reads[key] > 0:
            self._kept[key] = value
        return value

    def covd_J(self):
        J, conn = _needs(self.model, "J", "Gamma")
        return self._shared("covd_J", lambda: covd_values(conn, J.field, self.pts))

    def torsion(self):
        (conn,) = _needs(self.model, "Gamma")
        return self._shared("torsion", lambda: torsion_values(conn, self.pts))

    def nijenhuis(self):
        (J,) = _needs(self.model, "J")
        return self._shared("nijenhuis", lambda: nijenhuis(J).values(self.pts))


def _almost_complex(s: _Sweep):
    (J,) = _needs(s.model, "J")
    jv = J.values(s.pts)
    return contract("nkm,nmj->nkj", jv, jv) + np.eye(s.model.dimension)


def _hermitian(s: _Sweep):
    metric, J = _needs(s.model, "metric", "J")
    return purity_values(metric, J, s.pts, 1.0)


def _norden(s: _Sweep):
    metric, J = _needs(s.model, "metric", "J")
    return purity_values(metric, J, s.pts, -1.0)


def _quasi_statistical(s: _Sweep):
    metric, conn = _needs(s.model, "metric", "Gamma")
    return d_nabla_metric_values(conn, metric, s.pts)


def _statistical(s: _Sweep):
    metric, conn = _needs(s.model, "metric", "Gamma")
    db = covd_values(conn, metric.field, s.pts)
    codazzi_defect = db - np.swapaxes(db, 1, 2)
    n = s.pts.shape[0]
    return np.concatenate([codazzi_defect.reshape(n, -1), s.torsion().reshape(n, -1)], axis=1)


def _codazzi_J(s: _Sweep):
    return codazzi_defect(s.covd_J())


def _torsion_compatible(s: _Sweep):
    (J,) = _needs(s.model, "J")
    return torsion_compat(s.torsion(), J.values(s.pts))


def _integrable(s: _Sweep):
    return s.nijenhuis()


def _d_closed_J(s: _Sweep):
    J, conn = _needs(s.model, "J", "Gamma")
    return d_nabla_J_values(conn, J, s.pts, s.covd_J())


def _kahler(s: _Sweep):
    metric, _ = _needs(s.model, "metric", "J")
    if metric.flavor != "hermitian":
        raise PreconditionError("kahler needs a hermitian-flavored metric")
    domega = exterior_d2_values(s.model.partner_form(), s.pts)
    n = s.pts.shape[0]
    return np.concatenate([s.nijenhuis().reshape(n, -1), domega.reshape(n, -1)], axis=1)


def _anti_kahler(s: _Sweep):
    metric, J = _needs(s.model, "metric", "J")
    if metric.flavor != "norden":
        raise PreconditionError("anti_kahler needs a norden-flavored metric")
    return tachibana_values(J, metric, s.pts)


def _quasi_kahler_norden(s: _Sweep):
    metric, J = _needs(s.model, "metric", "J")
    if metric.flavor != "norden":
        raise PreconditionError("quasi_kahler_norden needs a norden-flavored metric")
    return quasi_kahler_norden_sum_values(metric, J, s.pts)


def _complex_connection(s: _Sweep):
    return s.covd_J()


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


def _run_order(predicates) -> list:
    """Indices of ``predicates`` in the order they are swept: as given,
    except that the later readers of a shared kernel run right after its
    first reader, so the kernel is held only while its own readers run."""
    first = {}
    for i, name in enumerate(predicates):
        for kernel in _READS.get(name, ()):
            first.setdefault(kernel, i)
    lead = [min((first[k] for k in _READS.get(name, ())), default=i)
            for i, name in enumerate(predicates)]
    return sorted(range(len(predicates)), key=lambda i: (lead[i], i))


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
    drawn once and shared, and so are the kernels that several predicates
    read (``_Sweep``); their readers are swept one after another
    (``_run_order``).  Every name is validated before any sweep runs, and a
    failing sweep raises only once every earlier name has passed.
    Deterministic: identical (model, predicates, tol, seed, samples) yield
    identical reports.
    """
    if not predicates:
        raise ConfigError("no predicates given")
    unknown = [p for p in predicates if p not in PREDICATES]
    if unknown:
        raise ConfigError(
            f"unknown predicate {unknown[0]!r}; valid: {sorted(PREDICATES)}"
        )
    repeated = [p for i, p in enumerate(predicates) if p in predicates[:i]]
    if repeated:
        raise ConfigError(f"predicate {repeated[0]!r} is listed more than once")
    pts = sampling.sample_box(model.domain.box, samples, seed, _PTS_TAG)
    sweep = _Sweep(model, pts, predicates)
    done, first_error = {}, len(predicates)
    for i in _run_order(predicates):
        if i > first_error:
            continue  # the call already fails at an earlier name
        try:
            done[i] = _report(predicates[i], PREDICATES[predicates[i]](sweep), pts, tol, samples)
        except Exception as exc:
            done[i], first_error = exc, min(first_error, i)
    # the error of the first name that fails, as if swept in the given order
    if first_error < len(predicates):
        raise done[first_error]
    return [done[i] for i in range(len(predicates))]


def check(model: ChartModel, predicate: str, tol: float = DEFAULT_TOL,
          seed: int = 0, samples: int = DEFAULT_SAMPLES) -> CheckReport:
    """Sweep one predicate (see ``check_many``)."""
    return check_many(model, [predicate], tol=tol, seed=seed, samples=samples)[0]
