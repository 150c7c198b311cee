"""A chart model (the domain plus the structure fields of one scenario),
and ``ModelAt``, the one evaluator of a model at a point array: ``check``
sweeps its predicates, ``synthesize`` its constraints and ``verify`` its
entry families through it.  The kernels that combine a model's
connection-derived arrays (d^D J, d^D b, the Klein table) are formulas on
the torsions, covariant derivatives and conjugates it holds."""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace

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
    _partner: PolyTensorField | None = dc_field(default=None, repr=False)

    @property
    def dimension(self) -> int:
        return self.domain.dimension

    def require(self, name: str):
        value = getattr(self, "conn" if name == "Gamma" else name, None)
        if value is None:
            raise QsgError(f"model is missing required field {name!r}")
        return value

    def partner_form(self) -> PolyTensorField:
        """The companion (0,2) field: the 2-form of a Hermitian metric or
        the twin metric of a Norden one."""
        if self._partner is None:
            metric, J = self.require("metric"), self.require("J")
            if metric.flavor not in PURITY_SIGN:
                raise QsgError("partner form needs a hermitian or norden metric")
            pullback = fundamental_two_form if metric.flavor == "hermitian" else twin_metric
            self._partner = pullback(metric, J)
        return self._partner


class ModelAt:
    """One model at one point array.  Torsions, covariant derivatives and the
    Nijenhuis and holomorphicity operators are memoized for its life and
    read-only; d^D J and d^D b, formulas on them, are evaluated per call, so
    it keeps one array per (connection, field), not two.  Each accessor asks
    the model for its fields through ``ChartModel.require``, so a missing one
    raises the same ``QsgError`` whichever command reads it.

    ``conn`` replaces the model's connection.  Connections are addressed by
    op-tuples applied left to right, e.g. ``("star", "jconj")`` is the
    structure conjugate of the metric conjugate of the base connection;
    ``conn(ops)`` builds that chain anew on each call: a connection object
    holds no values, and the torsions and covariant derivatives of its
    symbols are memoized here by op-tuple.  What does not depend on the
    connection (the partner form, the Nijenhuis and holomorphicity
    operators) is shared with every ``with_conn`` copy, and the partner form
    is kept by the model as given, so evaluators that replace only its
    connection build it once.  The values of the
    structure, metric and partner are plain field calls: at frozen points
    the fields memoize them themselves.
    """

    def __init__(self, model: ChartModel, pts: np.ndarray, conn: Connection | None = None):
        self.model = model if conn is None else replace(model, conn=conn)
        self.pts = pts
        self._partner_form = model.partner_form
        self._cache = {}  # connection-dependent
        self._fixed = {}  # connection-independent, shared with with_conn copies

    def with_conn(self, conn: Connection) -> "ModelAt":
        """The same metric, structure and points under ``conn``."""
        at = ModelAt(self.model, self.pts, conn)
        at._partner_form = self._partner_form
        at._fixed = self._fixed
        return at

    def _memo(self, key, fn, shared: bool = False):
        store = self._fixed if shared else self._cache
        if key not in store:
            value = fn()
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            store[key] = value
        return store[key]

    @property
    def partner(self):
        return self._partner_form()

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
        return self._memo("N", lambda: nijenhuis(J).values(self.pts), shared=True)

    @property
    def tachibana(self):
        J, metric = self.model.require("J"), self.model.require("metric")
        return self._memo("F", lambda: tachibana_values(J, metric, self.pts), shared=True)

    def conn(self, ops: tuple = ()) -> Connection:
        if not ops:
            return self.model.require("Gamma")
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
