"""Conjugation transforms of a connection and the four-element group they
generate together with the identity.

Three transforms act on a connection D:

* metric conjugation by a nondegenerate (0,2) field b (symmetric or
  antisymmetric), through the second slot of b:
  ``Z b(X, Y) = b(D_Z X, Y) + b(X, D'_Z Y)``;
* structure conjugation by an almost complex structure:
  ``D^J_X Y = J^{-1}(D_X (J Y))`` with ``J^{-1} = -J``;
* averaging with the structure conjugate (a ``CombinationConnection``),
  which parallelizes J.

For a compatible (metric, structure) pair the three conjugations commute
pairwise into each other, forming a Klein four-group on connections;
``klein_table`` measures all nine residuals on the conjugates a
``model.ModelAt`` builds.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .calculus import Connection, _checked_inverse
from .contraction import contract
from .errors import PreconditionError
from .structures import PURITY_SIGN, AlmostComplexStructure, _as_field, _jout, purity_values

SKEW_OR_SYM_TOL = 1e-10
PURITY_TOL = 1e-8
KLEIN_TOL = 1e-8  # the gate on each of the Klein table's nine residuals


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
        return -_jout(jv, inner)


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


@dataclass
class KleinReport:
    """Residuals of the involution and composition identities."""

    flavor: str
    residuals: dict = dc_field(default_factory=dict)
    tolerance: float = KLEIN_TOL

    @property
    def max_residual(self) -> float:
        return float(np.max(list(self.residuals.values())))

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance


# residual name -> the op-tuples (``ModelAt.conn``: "star" metric, "dagger"
# partner-form, "jconj" structure conjugation) of two equal connections
KLEIN_PAIRS = {
    "metric_involution": (("star", "star"), ()),
    "partner_involution": (("dagger", "dagger"), ()),
    "structure_involution": (("jconj", "jconj"), ()),
    "metric_eq_partner_then_structure": (("star",), ("dagger", "jconj")),
    "metric_eq_structure_then_partner": (("star",), ("jconj", "dagger")),
    "partner_eq_metric_then_structure": (("dagger",), ("star", "jconj")),
    "partner_eq_structure_then_metric": (("dagger",), ("jconj", "star")),
    "structure_eq_metric_then_partner": (("jconj",), ("star", "dagger")),
    "structure_eq_partner_then_metric": (("jconj",), ("dagger", "star")),
}


def klein_table(at) -> KleinReport:
    """Verify the four-group structure of the three conjugations of a
    model's connection at the points of ``at``, a ``model.ModelAt``.

    For a Hermitian metric the partners are (metric, 2-form, structure)
    conjugation; for a Norden metric (metric, twin-metric, structure).
    Checks the three involutions and the six pairwise compositions
    (``KLEIN_PAIRS``); the pair's purity is checked at the points first.
    """
    metric, J = at.model.require("metric"), at.model.require("J")
    sign = PURITY_SIGN.get(metric.flavor)
    if sign is None:
        raise PreconditionError("klein_table needs a hermitian or norden metric")
    r = float(np.abs(purity_values(metric, J, at.pts, sign)).max())
    if r > PURITY_TOL:
        raise PreconditionError(f"metric is not {metric.flavor.capitalize()} for this "
                                f"structure (purity {r:.3e})")
    report = KleinReport(flavor=metric.flavor)
    for name, (a, b) in KLEIN_PAIRS.items():
        ga, gb = at.conn(a).gammas(at.pts), at.conn(b).gammas(at.pts)
        report.residuals[name] = float(np.abs(ga - gb).max() / (1.0 + np.abs(ga).max()))
    return report
