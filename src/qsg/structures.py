"""Structure tensors on a chart: almost complex structures, Hermitian and
Norden metrics, the associated 2-form and twin metric, and the coupling
operators between a connection, a (1,1) structure and a metric.

Operators are assembled on the coordinate frame fields and stored as
component arrays.  The two non-function-linear objects (the directional
structure-coupling operator and Lie derivatives of the structure) are also
exposed as operators on explicit polynomial fields, since frame arrays do
not determine them on general arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import (
    Connection,
    DerivedTensorField,
    covd_values,
    levi_civita,
    lie_bracket,
    torsion_values,
)
from .errors import PreconditionError, ShapeError
from .fields import (
    PolyTensorField,
    bilinear_pullback_first,
    j_apply_vector,
)

PURITY_TOL = 1e-8


@dataclass
class AlmostComplexStructure:
    """A (1,1) field squaring to minus the identity.

    Generated structures also carry the polynomial inverse ``C^{-1}`` of an
    exact polynomial frame ``C`` with ``J = C J0 C^{-1}`` for the constant
    block structure ``J0``; structures read from model files have none.
    """

    field: PolyTensorField
    frame_inv: PolyTensorField | None = None

    def __post_init__(self):
        if self.field.valence != (1, 1):
            raise ShapeError("almost complex structure must be a (1,1) field")

    @property
    def dimension(self) -> int:
        return self.field.dimension

    def values(self, pts):
        return self.field.values(pts)

    def jets(self, pts):
        return self.field.jets(pts)

    def involution_residual(self, pts) -> float:
        """max |J J + id| over the sample points."""
        jv = self.values(pts)
        eye = np.eye(self.dimension)
        return float(np.abs(np.einsum("nkm,nmj->nkj", jv, jv) + eye).max())


@dataclass
class MetricField:
    """Symmetric (0,2) field tagged with its compatibility flavor.

    flavor 'hermitian': b(JX, JY) = b(X, Y); 'norden': b(JX, Y) = b(X, JY);
    'plain': no compatibility claimed.
    """

    field: PolyTensorField
    flavor: str = "plain"

    def __post_init__(self):
        if self.field.valence != (0, 2):
            raise ShapeError("metric must be a (0,2) field")
        if self.flavor not in ("hermitian", "norden", "plain"):
            raise ShapeError(f"unknown metric flavor {self.flavor!r}")

    @property
    def dimension(self) -> int:
        return self.field.dimension

    def values(self, pts):
        return self.field.values(pts)

    def jets(self, pts):
        return self.field.jets(pts)


def _as_field(b):
    """The polynomial field of a metric, or ``b`` itself when it is one
    already (a partner form)."""
    return b.field if isinstance(b, MetricField) else b


def purity_values(b, J: AlmostComplexStructure, pts, sign: float) -> np.ndarray:
    """b(J x_i, x_j) + sign * b(x_i, J x_j) on frame pairs.

    ``sign = +1`` gives the Hermitian purity defect and ``sign = -1`` the
    Norden one; each vanishes on pairs of its flavor.
    """
    bv = b.values(pts)
    jv = J.values(pts)
    return np.einsum("nki,nkj->nij", jv, bv) + sign * np.einsum("nkj,nik->nij", jv, bv)


def _pullback_of_pure(b: MetricField, J: AlmostComplexStructure, check_at, sign: float,
                      flavor: str) -> PolyTensorField:
    """b(J., .) as an exact polynomial field, after checking the ``sign``
    purity at ``check_at`` when points are given."""
    if check_at is not None:
        r = float(np.abs(purity_values(b, J, check_at, sign)).max())
        if r > PURITY_TOL:
            raise PreconditionError(f"metric is not {flavor} for this structure (purity {r:.3e})")
    return bilinear_pullback_first(b.field, J.field)


def fundamental_two_form(g: MetricField, J: AlmostComplexStructure, check_at=None) -> PolyTensorField:
    """w(X, Y) = g(JX, Y); antisymmetric for a Hermitian pair.

    The result is an exact polynomial field.  When sample points are given,
    Hermitian purity is verified first.
    """
    return _pullback_of_pure(g, J, check_at, 1.0, "Hermitian")


def twin_metric(h: MetricField, J: AlmostComplexStructure, check_at=None) -> PolyTensorField:
    """Twin metric hbar(X, Y) = h(JX, Y); symmetric for a Norden pair.
    When sample points are given, Norden purity is verified first."""
    return _pullback_of_pure(h, J, check_at, -1.0, "Norden")


def nijenhuis(J: AlmostComplexStructure) -> DerivedTensorField:
    """Integrability obstruction of J, assembled on frame fields.

    ``N^k_{ij} = J^k_m (d_i J^m_j - d_j J^m_i) - J^l_i d_l J^k_j + J^l_j d_l J^k_i``;
    tensoriality on non-frame arguments is a tested property, not an input
    assumption.
    """

    def fn(pts):
        jv, jg = J.jets(pts)
        t1 = np.einsum("nkm,nmji->nkij", jv, jg) - np.einsum("nkm,nmij->nkij", jv, jg)
        t2 = np.einsum("nli,nkjl->nkij", jv, jg) - np.einsum("nlj,nkil->nkij", jv, jg)
        return t1 - t2

    return DerivedTensorField(J.dimension, (1, 2), fn)


def nijenhuis_on_fields(J: AlmostComplexStructure, X: PolyTensorField, Y: PolyTensorField) -> PolyTensorField:
    """Bracket-form evaluation on explicit polynomial vector fields."""
    JX = j_apply_vector(J.field, X)
    JY = j_apply_vector(J.field, Y)
    term1 = j_apply_vector(J.field, j_apply_vector(J.field, lie_bracket(X, Y)))
    term2 = j_apply_vector(J.field, lie_bracket(X, JY))
    term3 = j_apply_vector(J.field, lie_bracket(JX, Y))
    term4 = lie_bracket(JX, JY)
    return -term1 + term2 + term3 - term4


def torsion_compat(a: np.ndarray, jv: np.ndarray) -> np.ndarray:
    """A(J x_i, x_j) + A(x_i, J x_j) for (1,2) arrays ``a[n, k, i, j]``.

    On a torsion this is the torsion-compatibility operator; the
    structure-compatible torsions are its zeros.
    """
    return np.einsum("nkaj,nai->nkij", a, jv) + np.einsum("nkia,naj->nkij", a, jv)


def j_invariance_defect(a: np.ndarray, jv: np.ndarray) -> np.ndarray:
    """A(J x_i, J x_j) - A(x_i, x_j) for (1,2) arrays; on a torsion it
    vanishes exactly where ``torsion_compat`` does."""
    return np.einsum("nkab,nai,nbj->nkij", a, jv, jv) - a


def codazzi_defect(dl: np.ndarray) -> np.ndarray:
    """(D_i L)^k_j - (D_j L)^k_i from a (1,1) covariant-derivative array
    ``dl[n, k, i, j] = (D_i L)^k_j``; zero when L is Codazzi-coupled."""
    return dl - np.swapaxes(dl, 2, 3)


def d_nabla_J_values(conn: Connection, J: AlmostComplexStructure, pts,
                     dj: np.ndarray | None = None) -> np.ndarray:
    """(d^D J)^k_{ij} = (D_i J)^k_j - (D_j J)^k_i + J^k_m T^m_{ij}; ``dj``
    is ``covd_values(conn, J.field, pts)`` when the caller already has it."""
    if dj is None:
        dj = covd_values(conn, J.field, pts)
    jv = J.values(pts)
    tv = torsion_values(conn, pts)
    return codazzi_defect(dj) + np.einsum("nkm,nmij->nkij", jv, tv)


def d_nabla_metric_values(conn: Connection, b, pts) -> np.ndarray:
    """(d^D b)_{ijk} = (D_i b)_{jk} - (D_j b)_{ik} + b(T(x_i, x_j), x_k).

    Applies to symmetric and antisymmetric b alike; antisymmetric in the
    first two slots.
    """
    field = _as_field(b)
    db = covd_values(conn, field, pts)
    bv = field.values(pts)
    tv = torsion_values(conn, pts)
    return db - np.swapaxes(db, 1, 2) + np.einsum("nmij,nmk->nijk", tv, bv)


def tachibana_values(J: AlmostComplexStructure, h: MetricField, pts) -> np.ndarray:
    """Holomorphicity operator of a (0,2) field against J, on frames.

    ``F[a,b,c] = J^m_a d_m h_{bc} - d_a J^m_b h_{mc} - J^m_b d_a h_{mc}
    + d_b J^m_a h_{mc} + h_{bm} d_c J^m_a``; built from Lie derivatives
    ``(L_X J)Y = [X, JY] - J [X, Y]`` evaluated on frame fields.
    """
    jv, jg = J.jets(pts)
    hv, hg = h.jets(pts)
    out = np.einsum("nma,nbcm->nabc", jv, hg)
    out -= np.einsum("nmba,nmc->nabc", jg, hv)
    out -= np.einsum("nmb,nmca->nabc", jv, hg)
    out += np.einsum("nmab,nmc->nabc", jg, hv)
    out += np.einsum("nbm,nmac->nabc", hv, jg)
    return out


def cyclic_sum_03(arr: np.ndarray) -> np.ndarray:
    """S[a,b,c] = A[a,b,c] + A[b,c,a] + A[c,a,b] for (n,d,d,d) arrays."""
    return arr + np.einsum("nbca->nabc", arr) + np.einsum("ncab->nabc", arr)


def quasi_kahler_norden_sum_values(h: MetricField, J: AlmostComplexStructure, pts) -> np.ndarray:
    """Cyclic sum of h((D_a J) x_b, x_c) under the metric's own torsion-free
    metric-parallel connection."""
    dj = covd_values(levi_civita(h.field), J.field, pts)  # dj[n,m,a,b] = (D_a J)^m_b
    hv = h.values(pts)
    base = np.einsum("nmab,nmc->nabc", dj, hv)
    return cyclic_sum_03(base)


def vishnevskii_frame_values(conn: Connection, J: AlmostComplexStructure, pts) -> np.ndarray:
    """Frame array of the coupling operator: Psi(x_i, x_j)^k for frame pairs.

    ``Psi_{J x_i} x_j = D_{J x_i} x_j - J (D_{x_i} x_j)``; not tensorial in
    the second argument, so this array does not determine the operator on
    non-frame arguments: ``vishnevskii_on_fields`` takes explicit
    polynomial arguments and ``vishnevskii_jframe_values`` the
    structure-twisted frame set.
    """
    jv = J.values(pts)
    g = conn.gammas(pts)
    return np.einsum("nli,nklj->nkij", jv, g) - np.einsum("nkm,nmij->nkij", jv, g)


def vishnevskii_jframe_values(conn: Connection, J: AlmostComplexStructure, pts) -> np.ndarray:
    """Psi(x_i, J x_j)^k: the operator on (frame, J-twisted frame) pairs.

    Together with the frame array this is exactly the argument set on which
    a vanishing operator forces the torsion-coupling identity.
    """
    jv, jg = J.jets(pts)
    g = conn.gammas(pts)
    # D_{J x_i}(J x_j) = J^l_i (d_l J^k_j + gamma^k_{lm} J^m_j)
    t1 = np.einsum("nli,nkjl->nkij", jv, jg) + np.einsum("nli,nklm,nmj->nkij", jv, g, jv)
    # J (D_{x_i}(J x_j)) = J^k_m (d_i J^m_j + gamma^m_{il} J^l_j)
    t2 = np.einsum("nkm,nmji->nkij", jv, jg) + np.einsum("nkm,nmil,nlj->nkij", jv, g, jv)
    return t1 - t2


def vishnevskii_on_fields(conn: Connection, J: AlmostComplexStructure, X: PolyTensorField, Y: PolyTensorField, pts) -> np.ndarray:
    """Operator evaluation on explicit polynomial fields (first slot is
    tensorial, second is not)."""
    JX = j_apply_vector(J.field, X)
    jv = J.values(pts)
    yv, yg = Y.jets(pts)
    jxv = JX.values(pts)
    xv = X.values(pts)
    g = conn.gammas(pts)
    # D_Z Y = Z^i (d_i Y^k + gamma^k_{ij} Y^j)
    dJX = np.einsum("ni,nki->nk", jxv, yg) + np.einsum("ni,nkij,nj->nk", jxv, g, yv)
    dX = np.einsum("ni,nki->nk", xv, yg) + np.einsum("ni,nkij,nj->nk", xv, g, yv)
    return dJX - np.einsum("nkm,nm->nk", jv, dX)


def lie_derivative_J_on_fields(J: AlmostComplexStructure, X: PolyTensorField, Y: PolyTensorField) -> PolyTensorField:
    """(L_X J) Y = [X, JY] - J [X, Y] for polynomial fields."""
    return lie_bracket(X, j_apply_vector(J.field, Y)) - j_apply_vector(J.field, lie_bracket(X, Y))
