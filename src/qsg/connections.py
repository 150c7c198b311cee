"""Conjugation transforms of a connection and the four-element group they
generate together with the identity.

Three transforms act on a connection D:

* metric conjugation by a nondegenerate (0,2) field b (symmetric or
  antisymmetric), through the second slot of b:
  ``Z b(X, Y) = b(D_Z X, Y) + b(X, D'_Z Y)``;
* structure conjugation by an almost complex structure:
  ``D^J_X Y = J^{-1}(D_X (J Y))`` with ``J^{-1} = -J``;
* averaging with the structure conjugate, which parallelizes J.

For a compatible (metric, structure) pair the three conjugations commute
pairwise into each other, forming a Klein four-group on connections;
``klein_table`` measures all nine residuals.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .calculus import Connection, _checked_inverse
from .contraction import contract
from .errors import PreconditionError
from .structures import (
    AlmostComplexStructure,
    MetricField,
    _as_field,
    fundamental_two_form,
    twin_metric,
)

SKEW_OR_SYM_TOL = 1e-10


class BilinearConjugateConnection(Connection):
    """Conjugate of a connection with respect to a nondegenerate (0,2) field,
    through its second slot:
    ``b_{im} gamma'^m_{kj} = d_k b_{ij} - gamma^l_{ki} b_{lj}``.
    """

    def __init__(self, base: Connection, b):
        self.base = base
        self.b = _as_field(b)
        self.dimension = base.dimension

    def gammas(self, pts):
        bv, bg = self.b.jets(pts)
        skew = np.abs(bv + np.swapaxes(bv, 1, 2)).max()
        sym = np.abs(bv - np.swapaxes(bv, 1, 2)).max()
        if min(skew, sym) > SKEW_OR_SYM_TOL:
            raise PreconditionError(
                "conjugation requires a symmetric or antisymmetric form "
                f"(sym defect {sym:.3e}, skew defect {skew:.3e})"
            )
        g = self.base.gammas(pts)
        binv = _checked_inverse(bv, pts)
        # r[n,i,k,j] = d_k b_{ij} - gamma^l_{ki} b_{lj}
        r = np.einsum("nijk->nikj", bg) - contract("nlki,nlj->nikj", g, bv)
        return contract("nmi,nikj->nmkj", binv, r)


class JConjugateConnection(Connection):
    """gamma'^k_{ij} = (J^{-1})^k_m (d_i J^m_j + gamma^m_{il} J^l_j), J^{-1} = -J."""

    def __init__(self, base: Connection, J: AlmostComplexStructure):
        self.base = base
        self.J = J
        self.dimension = base.dimension

    def gammas(self, pts):
        jv, jg = self.J.jets(pts)
        g = self.base.gammas(pts)
        inner = np.einsum("nmji->nmij", jg) + contract("nmil,nlj->nmij", g, jv)
        return -contract("nkm,nmij->nkij", jv, inner)


class CombinationConnection(Connection):
    """Affine combination of connections; coefficients must sum to 1."""

    def __init__(self, terms):
        self.terms = list(terms)
        coeffs = sum(c for c, _ in self.terms)
        if abs(coeffs - 1.0) > 1e-12:
            raise PreconditionError("connection combination coefficients must sum to 1")
        self.dimension = self.terms[0][1].dimension

    def gammas(self, pts):
        out = None
        for c, conn in self.terms:
            g = c * conn.gammas(pts)
            out = g if out is None else out + g
        return out


def conjugate_by_bilinear(conn: Connection, b) -> BilinearConjugateConnection:
    return BilinearConjugateConnection(conn, b)


def conjugate_by_J(conn: Connection, J: AlmostComplexStructure) -> JConjugateConnection:
    return JConjugateConnection(conn, J)


def average_connection(conn: Connection, J: AlmostComplexStructure) -> CombinationConnection:
    """The mean of a connection and its structure conjugate; parallelizes J."""
    return CombinationConnection([(0.5, conn), (0.5, conjugate_by_J(conn, J))])


@dataclass
class KleinReport:
    """Residuals of the involution and composition identities."""

    flavor: str
    residuals: dict = dc_field(default_factory=dict)
    tolerance: float = 1e-8

    @property
    def max_residual(self) -> float:
        return float(np.max(list(self.residuals.values())))

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance


def _gamma_residual(a: Connection, b: Connection, pts) -> float:
    ga, gb = a.gammas(pts), b.gammas(pts)
    return float(np.abs(ga - gb).max() / (1.0 + np.abs(ga).max()))


def klein_table(conn: Connection, metric: MetricField, J: AlmostComplexStructure,
                pts) -> KleinReport:
    """Verify the four-group structure of the three conjugations.

    For a Hermitian metric the partners are (metric, 2-form, structure)
    conjugation; for a Norden metric (metric, twin-metric, structure).
    Checks the three involutions and the six pairwise compositions; the
    pair's purity is checked at ``pts`` first.
    """
    if metric.flavor == "hermitian":
        partner = fundamental_two_form(metric, J, check_at=pts)
    elif metric.flavor == "norden":
        partner = twin_metric(metric, J, check_at=pts)
    else:
        raise PreconditionError("klein_table needs a hermitian or norden metric")

    def m(c):  # metric conjugate
        return conjugate_by_bilinear(c, metric)

    def w(c):  # partner-form conjugate
        return conjugate_by_bilinear(c, partner)

    def j(c):  # structure conjugate
        return conjugate_by_J(c, J)

    report = KleinReport(flavor=metric.flavor)
    res = report.residuals
    res["metric_involution"] = _gamma_residual(m(m(conn)), conn, pts)
    res["partner_involution"] = _gamma_residual(w(w(conn)), conn, pts)
    res["structure_involution"] = _gamma_residual(j(j(conn)), conn, pts)
    res["metric_eq_partner_then_structure"] = _gamma_residual(m(conn), j(w(conn)), pts)
    res["metric_eq_structure_then_partner"] = _gamma_residual(m(conn), w(j(conn)), pts)
    res["partner_eq_metric_then_structure"] = _gamma_residual(w(conn), j(m(conn)), pts)
    res["partner_eq_structure_then_metric"] = _gamma_residual(w(conn), m(j(conn)), pts)
    res["structure_eq_metric_then_partner"] = _gamma_residual(j(conn), w(m(conn)), pts)
    res["structure_eq_partner_then_metric"] = _gamma_residual(j(conn), m(w(conn)), pts)
    return report
