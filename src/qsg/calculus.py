"""Differential-geometric kernel: covariant derivatives, torsion and the
coordinate exterior derivative of 2-forms.

Connection conventions: ``gammas(pts)`` returns ``(n, d, d, d)`` arrays
indexed ``[k, i, j]`` with ``k`` the upper index, ``i`` the differentiation
direction and ``j`` the argument, i.e. the covariant derivative of a frame
field along a frame field has components ``gamma[k, i, j]``.

``covd_values`` is the one covariant derivative.  For (1,0), (1,1), (0,2)
and (0,3) fields it evaluates one index formula: the partial ``d_i t``,
plus ``gamma^a_{im} t^{..m..}`` for each upper slot ``a``, minus
``gamma^m_{ia} t_{..m..}`` for each lower slot ``a``.  The new lower
(derivative) index comes first among the lower indices:

* (1,0) -> ``out[k, i]   = (D_i X)^k``
* (1,1) -> ``out[k, i, j] = (D_i L)^k_j``
* (0,2) -> ``out[i, j, k] = (D_i b)_{jk}``
* (0,3) -> ``out[i, j, k, l] = (D_i S)_{jkl}``

Connections built from metrics (Levi-Civita, conjugates) have rational
components; they are evaluation-backed, computing exact values on demand
from the jets of their polynomial inputs.
"""

from __future__ import annotations

import numpy as np

from .errors import DegeneracyError, QsgError
from .contraction import contract
from .fields import PolyTensorField

DET_FLOOR = 1e-6
SYMMETRY_TOL = 1e-10


class Connection:
    """Base class: a chart connection exposing Christoffel values at points."""

    def gammas(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class PolyConnection(Connection):
    """Connection whose symbols are explicit polynomials (torsion allowed)."""

    def __init__(self, field: PolyTensorField):
        if field.valence != (1, 2):
            raise QsgError("connection symbols must form a (1,2)-shaped array")
        self.field = field

    @classmethod
    def zero(cls, dimension: int) -> "PolyConnection":
        return cls(PolyTensorField.zeros(dimension, (1, 2)))

    def gammas(self, pts):
        return self.field.values(pts)


class ConstantConnection(Connection):
    """Constant symbols, or constant symbols per block of points.

    ``array`` is one ``(d, d, d)`` symbol array, or a stack ``(B, d, d, d)``
    of them: the points are then split into ``B`` equal consecutive blocks
    and block ``b`` gets ``array[b]``.  The synthesizer evaluates its
    constraints once on its fit points tiled ``B`` times, with the zero
    symbols and every one-hot direction stacked as the blocks.
    """

    def __init__(self, array: np.ndarray):
        self.array = np.asarray(array, dtype=float)

    def gammas(self, pts):
        pts = np.atleast_2d(pts)
        blocks = self.array.reshape((-1,) + self.array.shape[-3:])
        per_block, rest = divmod(pts.shape[0], blocks.shape[0])
        if rest:
            raise QsgError(
                f"{pts.shape[0]} points do not split into {blocks.shape[0]} equal blocks"
            )
        return np.repeat(blocks, per_block, axis=0)


class LeviCivitaConnection(Connection):
    """Levi-Civita symbols of a symmetric nondegenerate (0,2) field: the
    torsion-free connection that parallelizes it.

    ``gamma^k_{ij} = 1/2 b^{kl} (d_i b_{jl} + d_j b_{il} - d_l b_{ij})``,
    evaluated from the exact jets of ``b``.
    """

    def __init__(self, metric):
        self.metric = metric

    def gammas(self, pts):
        bv, bg = self.metric.jets(pts)
        defect = symmetry_defect(bv, 1.0)
        if defect > SYMMETRY_TOL:
            raise QsgError(f"metric is not symmetric (defect {defect:.3e})")
        binv = _checked_inverse(bv, pts)
        # bg[n,i,j,l] = d_l b_{ij}
        r = np.einsum("njli->nlij", bg) + np.einsum("nilj->nlij", bg) - np.einsum("nijl->nlij", bg)
        return 0.5 * contract("nkl,nlij->nkij", binv, r)


def symmetry_defect(b: np.ndarray, sign: float) -> float:
    """max |b_{ij} - sign b_{ji}| over an ``(n, d, d)`` array: its symmetry
    defect for ``sign = 1`` and its antisymmetry defect for ``sign = -1``;
    each form is gated at ``SYMMETRY_TOL`` where a formula needs it."""
    return float(np.abs(b - sign * np.swapaxes(b, 1, 2)).max())


def _checked_inverse(bv, pts):
    dets = np.linalg.det(bv)
    worst = int(np.abs(dets).argmin())
    if abs(dets[worst]) < DET_FLOOR:
        raise DegeneracyError(
            f"bilinear form numerically singular (|det| = {abs(dets[worst]):.3e})",
            point=np.atleast_2d(pts)[worst],
            det=dets[worst],
        )
    return np.linalg.inv(bv)


class DerivedTensorField:
    """Evaluation-backed tensor field defined by a closure over points; the
    return type of ``structures.nijenhuis``.

    Exact values on demand; no polynomial representation, hence no jets.
    """

    def __init__(self, fn):
        self._fn = fn

    def values(self, pts):
        return self._fn(np.atleast_2d(np.asarray(pts, dtype=float)))


def torsion_values(conn: Connection, pts) -> np.ndarray:
    """T^k_{ij} = gamma^k_{ij} - gamma^k_{ji}; antisymmetric in (i, j)."""
    g = conn.gammas(pts)
    return g - np.swapaxes(g, 2, 3)


def covd_values(conn: Connection, t, pts) -> np.ndarray:
    """Covariant derivative of a (1,0), (1,1), (0,2) or (0,3) field at
    ``pts``, in the layout of the module docstring.

    One index formula for every valence: the partial term, then one
    +gamma contraction per upper slot, then one -gamma contraction per
    lower slot, summed in that order.
    """
    p, q = t.valence
    if (p, q) not in ((1, 0), (1, 1), (0, 2), (0, 3)):
        raise QsgError(f"covariant derivative unsupported for valence {(p, q)}")
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    tv, tg = t.jets(pts)
    g = conn.gammas(pts)
    idx = "abc"[: p + q]  # t's slots, upper first; "i" is the derivative
    out = f"n{idx[:p]}i{idx[p:]}"
    res = np.einsum(f"n{idx}i->{out}", tg)
    for s, a in enumerate(idx):
        t_slots = f"n{idx[:s]}m{idx[s + 1:]}"
        if s < p:
            op, term = np.add, contract(f"n{a}im,{t_slots}->{out}", g, tv)
        else:
            op, term = np.subtract, contract(f"nmi{a},{t_slots}->{out}", g, tv)
        # sum into the first contraction's array, never into the partial
        # term (it can be a view of the jets), and free each term once added
        res = op(res, term, out=term if s == 0 else res)
        del term
    return res


def exterior_d2_values(omega, pts) -> np.ndarray:
    """Coordinate exterior derivative of an antisymmetric (0,2) field at
    ``pts``.

    ``(dw)_{abc} = d_a w_{bc} - d_b w_{ac} + d_c w_{ab}``; the result is
    totally antisymmetric and, for any chart connection, agrees with the
    sum of covariant-derivative and torsion terms of the standard
    connection expansion (a connection-independence property pinned by
    tests).
    """
    wv, wg = omega.jets(np.atleast_2d(np.asarray(pts, dtype=float)))
    defect = symmetry_defect(wv, -1.0)
    if defect > SYMMETRY_TOL:
        raise QsgError(f"2-form is not antisymmetric (defect {defect:.3e})")
    return (
        np.einsum("nbca->nabc", wg)
        - np.einsum("nacb->nabc", wg)
        + np.einsum("nabc->nabc", wg)
    )


def exterior_d2_connection_expansion(omega, conn: Connection, pts) -> np.ndarray:
    """The connection-based form of the same 3-form.

    ``dw(x1,x2,x3) = (D_{x3}w)(x1,x2) + (D_{x1}w)(x2,x3) + (D_{x2}w)(x3,x1)
    + w(T(x1,x2),x3) + w(T(x2,x3),x1) + w(T(x3,x1),x2)``.
    """
    dw = covd_values(conn, omega, pts)  # dw[n,i,j,k] = (D_i w)_{jk}
    wv = omega.values(pts)
    tv = torsion_values(conn, pts)
    out = np.einsum("ncab->nabc", dw) + np.einsum("nabc->nabc", dw) + np.einsum("nbca->nabc", dw)
    out += contract("nmab,nmc->nabc", tv, wv)
    out += contract("nmbc,nma->nabc", tv, wv)
    out += contract("nmca,nmb->nabc", tv, wv)
    return out
