"""Conjugation transforms of a connection and the four-element group they
generate together with the identity.

Three transforms act on a connection D:

* metric conjugation by a nondegenerate (0,2) field b (symmetric or
  antisymmetric), through the second slot of b:
  ``Z b(X, Y) = b(D_Z X, Y) + b(X, D'_Z Y)``;
* structure conjugation by an almost complex structure:
  ``D^J_X Y = J^{-1}(D_X (J Y))`` with ``J^{-1} = -J``;
* averaging with the structure conjugate (a ``CombinationConnection``,
  the mean of two connections), which parallelizes J.

For a compatible (metric, structure) pair the three conjugations commute
pairwise into each other, forming a Klein four-group on connections;
``klein_table`` returns the nine residuals, one per ``KLEIN_PAIRS`` name,
measured on the conjugates a ``model.ModelAt`` builds.  Precondition
failures (a form neither symmetric nor antisymmetric, an impure or plain
pair) raise ``QsgError``.
"""

from __future__ import annotations

import numpy as np

from .calculus import SYMMETRY_TOL, Connection, _checked_inverse, symmetry_defect
from .contraction import contract
from .errors import QsgError
from .structures import PURITY_SIGN, AlmostComplexStructure, _jout, ident_res, purity_values

PURITY_TOL = 1e-8
KLEIN_TOL = 1e-8  # the gate on each of the Klein table's nine residuals


class BilinearConjugateConnection(Connection):
    """Conjugate of a connection with respect to a nondegenerate (0,2) field,
    through its second slot:
    ``b_{im} gamma'^m_{kj} = d_k b_{ij} - gamma^l_{ki} b_{lj}``.
    """

    def __init__(self, base: Connection, b):
        self.base = base
        self.b = b

    def gammas(self, pts):
        bv, bg = self.b.jets(pts)
        sym, skew = symmetry_defect(bv, 1.0), symmetry_defect(bv, -1.0)
        if min(skew, sym) > SYMMETRY_TOL:
            raise QsgError(
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

    def gammas(self, pts):
        jv, jg = self.J.jets(pts)
        g = self.base.gammas(pts)
        inner = np.einsum("nmji->nmij", jg) + contract("nmil,nlj->nmij", g, jv)
        return -_jout(jv, inner)


class CombinationConnection(Connection):
    """The mean of two connections."""

    def __init__(self, a: Connection, b: Connection):
        self.a = a
        self.b = b

    def gammas(self, pts):
        return 0.5 * self.a.gammas(pts) + 0.5 * self.b.gammas(pts)


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


def klein_table(at) -> dict:
    """Residuals of the four-group structure of the three conjugations of a
    model's connection at the points of ``at``, a ``model.ModelAt``: one
    per ``KLEIN_PAIRS`` name, each gated by ``KLEIN_TOL``.

    For a Hermitian metric the partners are (metric, 2-form, structure)
    conjugation; for a Norden metric (metric, twin-metric, structure).
    Checks the three involutions and the six pairwise compositions; the
    pair's purity is checked at the points first.
    """
    metric, J = at.model.require("metric"), at.model.require("J")
    sign = PURITY_SIGN.get(metric.flavor)
    if sign is None:
        raise QsgError("klein_table needs a hermitian or norden metric")
    r = float(np.abs(purity_values(metric, J, at.pts, sign)).max())
    if r > PURITY_TOL:
        raise QsgError(f"metric is not {metric.flavor.capitalize()} for this "
                       f"structure (purity {r:.3e})")
    return {name: ident_res(at.conn(a).gammas(at.pts), at.conn(b).gammas(at.pts))
            for name, (a, b) in KLEIN_PAIRS.items()}
