"""Differential-geometric kernel: brackets, covariant derivatives, torsion,
coordinate exterior derivative of 2-forms, metric inversion.

Connection conventions: ``gammas(pts)`` returns ``(n, d, d, d)`` arrays
indexed ``[k, i, j]`` with ``k`` the upper index, ``i`` the differentiation
direction and ``j`` the argument, i.e. the covariant derivative of a frame
field along a frame field has components ``gamma[k, i, j]``.

Covariant derivative outputs put the new lower (derivative) index first
among the lower indices:

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

from .errors import (
    DegeneracyError,
    PreconditionError,
    ShapeError,
    UnsupportedValenceError,
)
from .fields import PolyTensorField, poly_einsum

DET_FLOOR = 1e-6
SYMMETRY_TOL = 1e-10


class Connection:
    """Base class: a chart connection exposing Christoffel values at points."""

    dimension: int

    def gammas(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class PolyConnection(Connection):
    """Connection whose symbols are explicit polynomials (torsion allowed)."""

    def __init__(self, field: PolyTensorField):
        if field.valence != (1, 2):
            raise ShapeError("connection symbols must form a (1,2)-shaped array")
        self.field = field
        self.dimension = field.dimension

    @classmethod
    def zero(cls, dimension: int) -> "PolyConnection":
        return cls(PolyTensorField.zeros(dimension, (1, 2)))

    @classmethod
    def constant(cls, array: np.ndarray) -> "PolyConnection":
        array = np.asarray(array, dtype=float)
        return cls(PolyTensorField.constant(array.shape[0], (1, 2), array))

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
        self.dimension = self.array.shape[-1]

    def gammas(self, pts):
        pts = np.atleast_2d(pts)
        blocks = self.array.reshape((-1,) + self.array.shape[-3:])
        per_block, rest = divmod(pts.shape[0], blocks.shape[0])
        if rest:
            raise ShapeError(
                f"{pts.shape[0]} points do not split into {blocks.shape[0]} equal blocks"
            )
        return np.repeat(blocks, per_block, axis=0)


class LeviCivitaConnection(Connection):
    """Levi-Civita symbols of a symmetric nondegenerate (0,2) field.

    ``gamma^k_{ij} = 1/2 b^{kl} (d_i b_{jl} + d_j b_{il} - d_l b_{ij})``,
    evaluated from the exact jets of ``b``.
    """

    def __init__(self, metric, det_floor: float = DET_FLOOR):
        self.metric = metric
        self.dimension = metric.dimension
        self.det_floor = det_floor

    def gammas(self, pts):
        bv, bg = self.metric.jets(pts)
        _require_symmetric(bv, pts)
        binv = _checked_inverse(bv, pts, self.det_floor)
        # bg[n,i,j,l] = d_l b_{ij}
        r = np.einsum("njli->nlij", bg) + np.einsum("nilj->nlij", bg) - np.einsum("nijl->nlij", bg)
        return 0.5 * np.einsum("nkl,nlij->nkij", binv, r)


def levi_civita(b, det_floor: float = DET_FLOOR) -> LeviCivitaConnection:
    """Torsion-free, metric-parallel connection of a symmetric metric field."""
    return LeviCivitaConnection(b, det_floor)


def _require_symmetric(bv, pts):
    defect = np.abs(bv - np.swapaxes(bv, 1, 2)).max()
    if defect > SYMMETRY_TOL:
        raise PreconditionError(f"metric is not symmetric (defect {defect:.3e})")


def _checked_inverse(bv, pts, det_floor):
    dets = np.linalg.det(bv)
    worst = int(np.abs(dets).argmin())
    if abs(dets[worst]) < det_floor:
        raise DegeneracyError(
            f"bilinear form numerically singular (|det| = {abs(dets[worst]):.3e})",
            point=np.atleast_2d(pts)[worst],
            det=dets[worst],
        )
    return np.linalg.inv(bv)


def invert_bilinear(b, point) -> np.ndarray:
    """Pointwise inverse matrix of a nondegenerate (0,2) field."""
    point = np.asarray(point, dtype=float).reshape(1, -1)
    bv = b.values(point)
    return _checked_inverse(bv, point, DET_FLOOR)[0]


class DerivedTensorField:
    """Evaluation-backed tensor field defined by a closure over points.

    Exact values on demand; no polynomial representation, hence no jets.
    """

    def __init__(self, dimension: int, valence, fn):
        self.dimension = dimension
        self.valence = tuple(valence)
        self._fn = fn

    def values(self, pts):
        return self._fn(np.atleast_2d(np.asarray(pts, dtype=float)))

    def jets(self, pts):
        raise UnsupportedValenceError(
            "derived fields expose values only; jets require a polynomial field"
        )


def lie_bracket(X: PolyTensorField, Y: PolyTensorField) -> PolyTensorField:
    """[X, Y]^i = X^j d_j Y^i - Y^j d_j X^i, exact polynomial result."""
    if X.valence != (1, 0) or Y.valence != (1, 0):
        raise ShapeError("lie_bracket expects two vector fields")
    if X.dimension != Y.dimension:
        raise ShapeError("vector fields live on different charts")
    return (poly_einsum("j,ij->i", X, Y.gradient(), valence=(1, 0))
            - poly_einsum("j,ij->i", Y, X.gradient(), valence=(1, 0)))


def torsion_values(conn: Connection, pts) -> np.ndarray:
    """T^k_{ij} = gamma^k_{ij} - gamma^k_{ji}; antisymmetric in (i, j)."""
    g = conn.gammas(pts)
    return g - np.swapaxes(g, 2, 3)


def torsion(conn: Connection) -> DerivedTensorField:
    return DerivedTensorField(conn.dimension, (1, 2), lambda pts: torsion_values(conn, pts))


def covariant_derivative(conn: Connection, t) -> DerivedTensorField:
    """Covariant derivative of a (1,0), (1,1), (0,2) or (0,3) field.

    The standard index formula: one partial term, plus one +gamma
    contraction per upper index and one -gamma contraction per lower
    index.  Result valence is (p, q+1) with the derivative index first
    among the lower indices.
    """
    p, q = t.valence
    if (p, q) == (1, 0):
        fn = lambda pts: _covd_10(conn, t, pts)
        out_val = (1, 1)
    elif (p, q) == (1, 1):
        fn = lambda pts: _covd_11(conn, t, pts)
        out_val = (1, 2)
    elif (p, q) == (0, 2):
        fn = lambda pts: _covd_02(conn, t, pts)
        out_val = (0, 3)
    elif (p, q) == (0, 3):
        fn = lambda pts: _covd_03(conn, t, pts)
        out_val = (0, 4)
    else:
        raise UnsupportedValenceError(f"covariant derivative unsupported for valence {(p, q)}")
    return DerivedTensorField(conn.dimension, out_val, fn)


def _covd_10(conn, X, pts):
    xv, xg = X.jets(pts)
    g = conn.gammas(pts)
    # out[n,k,i] = d_i X^k + gamma^k_{ij} X^j
    return np.einsum("nki->nki", xg) + np.einsum("nkij,nj->nki", g, xv)


def _covd_11(conn, L, pts):
    lv, lg = L.jets(pts)
    g = conn.gammas(pts)
    # out[n,k,i,j] = d_i L^k_j + gamma^k_{im} L^m_j - gamma^m_{ij} L^k_m
    # (a single-operand einsum can return a view of the jets, so never
    # accumulate in place on the first term)
    return (
        np.einsum("nkji->nkij", lg)
        + np.einsum("nkim,nmj->nkij", g, lv)
        - np.einsum("nmij,nkm->nkij", g, lv)
    )


def _covd_02(conn, b, pts):
    bv, bg = b.jets(pts)
    g = conn.gammas(pts)
    # out[n,i,j,k] = d_i b_{jk} - gamma^m_{ij} b_{mk} - gamma^m_{ik} b_{jm}
    return (
        np.einsum("njki->nijk", bg)
        - np.einsum("nmij,nmk->nijk", g, bv)
        - np.einsum("nmik,njm->nijk", g, bv)
    )


def _covd_03(conn, s, pts):
    sv, sg = s.jets(pts)
    g = conn.gammas(pts)
    return (
        np.einsum("njkli->nijkl", sg)
        - np.einsum("nmij,nmkl->nijkl", g, sv)
        - np.einsum("nmik,njml->nijkl", g, sv)
        - np.einsum("nmil,njkm->nijkl", g, sv)
    )


def covd_values(conn: Connection, t, pts) -> np.ndarray:
    """Covariant derivative values in one call (same layout as above)."""
    return covariant_derivative(conn, t).values(pts)


def exterior_d2(omega) -> DerivedTensorField:
    """Coordinate exterior derivative of an antisymmetric (0,2) field.

    ``(dw)_{abc} = d_a w_{bc} - d_b w_{ac} + d_c w_{ab}``; the result is
    totally antisymmetric and, for any chart connection, agrees with the
    sum of covariant-derivative and torsion terms of the standard
    connection expansion (a connection-independence property pinned by
    tests).
    """

    def fn(pts):
        wv, wg = omega.jets(pts)
        defect = np.abs(wv + np.swapaxes(wv, 1, 2)).max()
        if defect > SYMMETRY_TOL:
            raise PreconditionError(f"2-form is not antisymmetric (defect {defect:.3e})")
        return (
            np.einsum("nbca->nabc", wg)
            - np.einsum("nacb->nabc", wg)
            + np.einsum("nabc->nabc", wg)
        )

    return DerivedTensorField(omega.dimension, (0, 3), fn)


def exterior_d2_connection_expansion(omega, conn: Connection, pts) -> np.ndarray:
    """The connection-based form of the same 3-form.

    ``dw(x1,x2,x3) = (D_{x3}w)(x1,x2) + (D_{x1}w)(x2,x3) + (D_{x2}w)(x3,x1)
    + w(T(x1,x2),x3) + w(T(x2,x3),x1) + w(T(x3,x1),x2)``.
    """
    dw = covd_values(conn, omega, pts)  # dw[n,i,j,k] = (D_i w)_{jk}
    wv = omega.values(pts)
    tv = torsion_values(conn, pts)
    out = np.einsum("ncab->nabc", dw) + np.einsum("nabc->nabc", dw) + np.einsum("nbca->nabc", dw)
    out += np.einsum("nmab,nmc->nabc", tv, wv)
    out += np.einsum("nmbc,nma->nabc", tv, wv)
    out += np.einsum("nmca,nmb->nabc", tv, wv)
    return out
