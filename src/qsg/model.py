"""A chart model (the domain plus the structure fields of one scenario),
and ``ModelAt``, the one evaluator of a model at a point array: ``check``
sweeps its predicates, ``synthesize`` its constraints and ``verify`` its
entry families through it.  The kernels that combine a model's
connection-derived arrays (d^D J, d^D b, the Klein table) are formulas on
the torsions, covariant derivatives and conjugates it holds."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .calculus import Connection, PolyConnection, covd_values, torsion_values
from .connections import BilinearConjugateConnection, CombinationConnection, JConjugateConnection
from .errors import QsgError
from .fields import ChartDomain, PolyTensorField
from .structures import (
    PURITY_SIGN,
    AlmostComplexStructure,
    MetricField,
    d_nabla_J_values,
    d_nabla_metric_values,
    fundamental_two_form,
    nijenhuis,
    tachibana_values,
    twin_metric,
)


@dataclass
class ChartModel:
    """Domain box plus metric / structure / connection fields.

    Fields are optional; consumers that need one raise ``QsgError``
    naming it when absent.
    """

    domain: ChartDomain
    metric: MetricField | None = None
    J: AlmostComplexStructure | None = None
    conn: Connection | None = None

    @property
    def dimension(self) -> int:
        return self.domain.dimension

    def require(self, name: str):
        value = getattr(self, "conn" if name == "Gamma" else name, None)
        if value is None:
            raise QsgError(f"model is missing required field {name!r}")
        return value

    @cached_property
    def partner(self) -> PolyTensorField:
        """The companion (0,2) field: the 2-form of a Hermitian metric or
        the twin metric of a Norden one; built once per model."""
        metric, J = self.require("metric"), self.require("J")
        if metric.flavor not in PURITY_SIGN:
            raise QsgError("partner form needs a hermitian or norden metric")
        pullback = fundamental_two_form if metric.flavor == "hermitian" else twin_metric
        return pullback(metric, J)


class ModelAt:
    """One model at one point array, with one memo: torsions, covariant
    derivatives and the Nijenhuis and holomorphicity operators are memoized
    for its life and read-only; d^D J and d^D b, formulas on them, are
    evaluated per call, so it keeps one array per (connection, field), not
    two.  Each accessor asks the model for its fields through
    ``ChartModel.require``, so a missing one raises the same ``QsgError``
    whichever command reads it.

    ``model`` is kept as given, and ``conn``, when given, beside it: the
    base connection ``conn(())`` is ``conn`` in place of the model's.
    Connections are addressed by op-tuples applied left to right, e.g.
    ``("star", "jconj")`` is the structure conjugate of the metric conjugate
    of the base connection; ``conn(ops)`` builds that chain anew on each
    call: a connection object holds no values, and the torsions and
    covariant derivatives of its symbols are memoized here by op-tuple.  The
    partner form is the one cache on the model, so every evaluator of a
    model builds it once.  The values of the structure, metric and partner
    are plain field calls: at frozen points the fields memoize them
    themselves.
    """

    def __init__(self, model: ChartModel, pts: np.ndarray, conn: Connection | None = None):
        self.model, self.pts, self._conn = model, pts, conn
        self._cache = {}

    def with_conn(self, conn: Connection) -> "ModelAt":
        """The same model and points under ``conn``."""
        return ModelAt(self.model, self.pts, conn)

    def _memo(self, key, fn):
        if key not in self._cache:
            value = fn()
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            self._cache[key] = value
        return self._cache[key]

    @property
    def partner(self):
        return self.model.partner

    @property
    def jv(self):
        return self.model.require("J").values(self.pts)

    @property
    def bv(self):
        return self.model.require("metric").values(self.pts)

    @property
    def pv(self):
        return self.partner.values(self.pts)

    @property
    def nijenhuis(self):
        J = self.model.require("J")
        return self._memo("N", lambda: nijenhuis(J).values(self.pts))

    @property
    def tachibana(self):
        J, metric = self.model.require("J"), self.model.require("metric")
        return self._memo("F", lambda: tachibana_values(J, metric, self.pts))

    def conn(self, ops: tuple = ()) -> Connection:
        if not ops:
            return self.model.require("Gamma") if self._conn is None else self._conn
        base, op = self.conn(ops[:-1]), ops[-1]
        if op == "star":
            return BilinearConjugateConnection(base, self.model.require("metric"))
        if op == "dagger":
            return BilinearConjugateConnection(base, self.partner)
        if op == "jconj":
            return JConjugateConnection(base, self.model.require("J"))
        if op == "avg":  # the mean with the structure conjugate; parallelizes J
            return CombinationConnection(base, self.conn(ops[:-1] + ("jconj",)))
        raise QsgError(f"unknown connection op {op!r}")

    def _form(self, which: str) -> PolyTensorField:
        return self.model.require("metric") if which == "metric" else self.partner

    def torsion(self, ops: tuple = ()):
        return self._memo(("T", ops), lambda: torsion_values(self.conn(ops), self.pts))

    def d_metric(self, ops: tuple = (), which: str = "metric"):
        return d_nabla_metric_values(self.covd_metric(ops, which),
                                     self._form(which).values(self.pts), self.torsion(ops))

    def covd_J(self, ops: tuple = ()):
        J = self.model.require("J")
        return self._memo(("cJ", ops), lambda: covd_values(self.conn(ops), J, self.pts))

    def d_J(self, ops: tuple = ()):
        return d_nabla_J_values(self.covd_J(ops), self.jv, self.torsion(ops))

    def covd_metric(self, ops: tuple = (), which: str = "metric"):
        form = self._form(which)
        return self._memo(("cB", ops, which), lambda: covd_values(self.conn(ops), form, self.pts))


def standard_structure(dimension: int) -> np.ndarray:
    """The block constant structure: e_{2k} -> e_{2k+1} -> -e_{2k}."""
    j0 = np.zeros((dimension, dimension))
    for k in range(0, dimension, 2):
        j0[k + 1, k] = 1.0
        j0[k, k + 1] = -1.0
    return j0


def neutral_diagonal(dimension: int) -> np.ndarray:
    """diag(+1, -1, +1, -1, ...), a neutral form paired with the standard
    structure."""
    return np.diag([1.0 if i % 2 == 0 else -1.0 for i in range(dimension)])


def _flat_model(form: np.ndarray, flavor: str) -> ChartModel:
    """Constant ``flavor`` metric ``form``, standard structure, zero symbols."""
    d = form.shape[0]
    metric = MetricField(PolyTensorField.constant(d, (0, 2), form), flavor=flavor)
    J = AlmostComplexStructure(PolyTensorField.constant(d, (1, 1), standard_structure(d)))
    return ChartModel(domain=ChartDomain.cube(d), metric=metric, J=J, conn=PolyConnection.zero(d))


def flat_hermitian_model(dimension: int) -> ChartModel:
    """Identity metric, constant standard structure, zero symbols."""
    return _flat_model(np.eye(dimension), "hermitian")


def flat_norden_model(dimension: int) -> ChartModel:
    """Neutral diagonal metric, constant standard structure, zero symbols."""
    return _flat_model(neutral_diagonal(dimension), "norden")
