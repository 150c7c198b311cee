"""A chart model: the domain plus the structure fields of one scenario."""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .calculus import Connection, PolyConnection
from .errors import ConfigError
from .fields import ChartDomain, PolyTensorField
from .structures import AlmostComplexStructure, MetricField, fundamental_two_form, twin_metric


@dataclass
class ChartModel:
    """Domain box plus metric / structure / connection fields.

    Fields are optional; consumers that need one raise ``ConfigError``
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
            raise ConfigError(f"model is missing required field {name!r}")
        return value

    def partner_form(self) -> PolyTensorField:
        """The companion (0,2) field: the 2-form of a Hermitian metric or
        the twin metric of a Norden one."""
        if self._partner is None:
            metric = self.require("metric")
            J = self.require("J")
            if metric.flavor == "hermitian":
                self._partner = fundamental_two_form(metric, J)
            elif metric.flavor == "norden":
                self._partner = twin_metric(metric, J)
            else:
                raise ConfigError("partner form needs a hermitian or norden metric")
        return self._partner


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


def flat_hermitian_model(dimension: int) -> ChartModel:
    """Identity metric, constant standard structure, zero symbols."""
    domain = ChartDomain.cube(dimension)
    g = MetricField(
        PolyTensorField.constant(dimension, (0, 2), np.eye(dimension)), flavor="hermitian"
    )
    J = AlmostComplexStructure(
        PolyTensorField.constant(dimension, (1, 1), standard_structure(dimension))
    )
    return ChartModel(domain=domain, metric=g, J=J, conn=PolyConnection.zero(dimension))


def flat_norden_model(dimension: int) -> ChartModel:
    """Neutral diagonal metric, constant standard structure, zero symbols."""
    domain = ChartDomain.cube(dimension)
    h = MetricField(
        PolyTensorField.constant(dimension, (0, 2), neutral_diagonal(dimension)), flavor="norden"
    )
    J = AlmostComplexStructure(
        PolyTensorField.constant(dimension, (1, 1), standard_structure(dimension))
    )
    return ChartModel(domain=domain, metric=h, J=J, conn=PolyConnection.zero(dimension))
