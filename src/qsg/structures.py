"""Structure tensors on a chart: almost complex structures, Hermitian and
Norden metrics, the associated 2-form and twin metric, and the coupling
operators between a connection, a (1,1) structure and a metric.

A metric (``MetricField``, with its flavor) and an almost complex structure
(``AlmostComplexStructure``) are ``PolyTensorField``s whose constructors
copy a field and check its valence (and the metric's flavor), so every
field operation takes them as they are.

Operators are assembled on the coordinate frame fields and stored as
component arrays.  d^D J, d^D b and the quasi-Kahler Norden sum are
formulas on the covariant derivatives, values and torsions that
``model.ModelAt`` evaluates; they evaluate no connection themselves.
"""

from __future__ import annotations

import numpy as np

from .calculus import Connection, DerivedTensorField
from .contraction import contract
from .errors import QsgError
from .fields import PolyTensorField, poly_einsum


class AlmostComplexStructure(PolyTensorField):
    """A (1,1) field squaring to minus the identity.

    Generated structures also carry the polynomial inverse ``C^{-1}`` of an
    exact polynomial frame ``C`` with ``J = C J0 C^{-1}`` for the constant
    block structure ``J0``; structures read from model files have none.
    """

    def __init__(self, field: PolyTensorField, frame_inv: PolyTensorField | None = None):
        if field.valence != (1, 1):
            raise QsgError("almost complex structure must be a (1,1) field")
        super().__init__(field.dimension, field.valence, exps=field.exps, coefs=field.coefs)
        self.frame_inv = frame_inv


class MetricField(PolyTensorField):
    """Symmetric (0,2) field tagged with its compatibility flavor.

    flavor 'hermitian': b(JX, JY) = b(X, Y); 'norden': b(JX, Y) = b(X, JY);
    'plain': no compatibility claimed.
    """

    def __init__(self, field: PolyTensorField, flavor: str = "plain"):
        if field.valence != (0, 2):
            raise QsgError("metric must be a (0,2) field")
        if flavor not in ("hermitian", "norden", "plain"):
            raise QsgError(f"unknown metric flavor {flavor!r}")
        super().__init__(field.dimension, field.valence, exps=field.exps, coefs=field.coefs)
        self.flavor = flavor


# the purity sign of each paired metric flavor: Hermitian and Norden code is
# written once and reads its sign here
PURITY_SIGN = {"hermitian": 1.0, "norden": -1.0}


def purity_values(b, J: AlmostComplexStructure, pts, sign: float) -> np.ndarray:
    """b(J x_i, x_j) + sign * b(x_i, J x_j) on frame pairs.

    ``sign = PURITY_SIGN[flavor]``: +1 gives the Hermitian purity defect and
    -1 the Norden one; each vanishes on pairs of its flavor.
    """
    bv = b.values(pts)
    jv = J.values(pts)
    return contract("nki,nkj->nij", jv, bv) + sign * contract("nkj,nik->nij", jv, bv)


def fundamental_two_form(g: MetricField, J: AlmostComplexStructure) -> PolyTensorField:
    """w(X, Y) = g(JX, Y), an exact polynomial field; antisymmetric for a
    Hermitian pair (``purity_values`` measures how far a pair is from one)."""
    # the same product as twin_metric, written in place in both while the
    # benchmark tracer hooks both names; the two copies fold into one with
    # ROADMAP item 2
    return poly_einsum("ki,kj->ij", J, g, valence=(0, 2))


def twin_metric(h: MetricField, J: AlmostComplexStructure) -> PolyTensorField:
    """Twin metric hbar(X, Y) = h(JX, Y), an exact polynomial field;
    symmetric for a Norden pair."""
    return poly_einsum("ki,kj->ij", J, h, valence=(0, 2))


def nijenhuis(J: AlmostComplexStructure) -> DerivedTensorField:
    """Integrability obstruction of J, assembled on frame fields.

    ``N^k_{ij} = J^k_m (d_i J^m_j - d_j J^m_i) - J^l_i d_l J^k_j + J^l_j d_l J^k_i``;
    tensoriality on non-frame arguments is a tested property, not an input
    assumption.
    """

    def fn(pts):
        jv, jg = J.jets(pts)
        # c[k, i, j] = J^k_m d_j J^m_i + J^l_i d_l J^k_j, and N = c^T - c
        c = _jout(jv, jg)
        c += contract("nli,nkjl->nkij", jv, jg)
        return np.swapaxes(c, 2, 3) - c

    return DerivedTensorField(fn)


def _jout(jv, a):
    """J applied to the upper slot of a (1,2) array."""
    return contract("nkm,nmij->nkij", jv, a)


def _jfirst(a, jv):
    """A(J x_i, x_j) for (1,2) arrays."""
    return contract("nkaj,nai->nkij", a, jv)


def _tb(t, bv):
    """b(T(x_i, x_j), x_k)."""
    return contract("nmij,nmk->nijk", t, bv)


def _bt(bv, t):
    """b(x_b, T(x_a, x_c)) at ``[n, a, b, c]``."""
    return contract("nmac,nbm->nabc", t, bv)


def _slot3(a, jv):
    """A(x_i, x_j, J x_k) for (0,3) arrays."""
    return contract("nija,nak->nijk", a, jv)


def ident_res(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """Normalized identity residual: max|lhs - rhs| / (1 + max|lhs|); the
    suite's identities and the Klein table score with it."""
    return float(np.abs(lhs - rhs).max() / (1.0 + np.abs(lhs).max()))


def torsion_compat(a: np.ndarray, jv: np.ndarray) -> np.ndarray:
    """A(J x_i, x_j) + A(x_i, J x_j) for (1,2) arrays ``a[n, k, i, j]``.

    On a torsion this is the torsion-compatibility operator; the
    structure-compatible torsions are its zeros.
    """
    return _jfirst(a, jv) + contract("nkia,naj->nkij", a, jv)


def j_invariance_defect(a: np.ndarray, jv: np.ndarray) -> np.ndarray:
    """A(J x_i, J x_j) - A(x_i, x_j) for (1,2) arrays; on a torsion it
    vanishes exactly where ``torsion_compat`` does."""
    return contract("nkib,nbj->nkij", contract("nkab,nai->nkib", a, jv), jv) - a


def codazzi_defect(dl: np.ndarray) -> np.ndarray:
    """(D_i L)^k_j - (D_j L)^k_i from a (1,1) covariant-derivative array
    ``dl[n, k, i, j] = (D_i L)^k_j``; zero when L is Codazzi-coupled."""
    return dl - np.swapaxes(dl, 2, 3)


def d_nabla_J_values(dj: np.ndarray, jv: np.ndarray, tv: np.ndarray) -> np.ndarray:
    """(d^D J)^k_{ij} = (D_i J)^k_j - (D_j J)^k_i + J^k_m T^m_{ij} from
    ``dj[n, k, i, j] = (D_i J)^k_j``, the values of J and the torsion."""
    return codazzi_defect(dj) + _jout(jv, tv)


def d_nabla_metric_values(db: np.ndarray, bv: np.ndarray, tv: np.ndarray) -> np.ndarray:
    """(d^D b)_{ijk} = (D_i b)_{jk} - (D_j b)_{ik} + b(T(x_i, x_j), x_k) from
    ``db[n, i, j, k] = (D_i b)_{jk}``, the values of b and the torsion; for
    symmetric and antisymmetric b alike, antisymmetric in (i, j)."""
    return db - np.swapaxes(db, 1, 2) + _tb(tv, bv)


def tachibana_values(J: AlmostComplexStructure, h: MetricField, pts) -> np.ndarray:
    """Holomorphicity operator of a (0,2) field against J, on frames.

    ``F[a,b,c] = J^m_a d_m h_{bc} - d_a J^m_b h_{mc} - J^m_b d_a h_{mc}
    + d_b J^m_a h_{mc} + h_{bm} d_c J^m_a``; built from Lie derivatives
    ``(L_X J)Y = [X, JY] - J [X, Y]`` evaluated on frame fields.
    """
    jv, jg = J.jets(pts)
    hv, hg = h.jets(pts)
    out = contract("nma,nbcm->nabc", jv, hg)
    out -= contract("nmba,nmc->nabc", jg, hv)
    out -= contract("nmb,nmca->nabc", jv, hg)
    out += contract("nmab,nmc->nabc", jg, hv)
    out += contract("nbm,nmac->nabc", hv, jg)
    return out


def cyclic_sum_03(arr: np.ndarray) -> np.ndarray:
    """S[a,b,c] = A[a,b,c] + A[b,c,a] + A[c,a,b] for (n,d,d,d) arrays."""
    return arr + np.einsum("nbca->nabc", arr) + np.einsum("ncab->nabc", arr)


def quasi_kahler_norden_sum_values(dj: np.ndarray, hv: np.ndarray) -> np.ndarray:
    """Cyclic sum of h((D_a J) x_b, x_c) from the values of h and
    ``dj[n, m, a, b] = (D_a J)^m_b`` under the metric's own torsion-free
    metric-parallel connection."""
    return cyclic_sum_03(_tb(dj, hv))


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
    return contract("nli,nklj->nkij", jv, g) - _jout(jv, g)


def vishnevskii_jframe_values(conn: Connection, J: AlmostComplexStructure, pts) -> np.ndarray:
    """Psi(x_i, J x_j)^k: the operator on (frame, J-twisted frame) pairs.

    Together with the frame array this is exactly the argument set on which
    a vanishing operator forces the torsion-coupling identity.
    """
    jv, jg = J.jets(pts)
    g = conn.gammas(pts)
    # D_{J x_i}(J x_j) = J^l_i (d_l J^k_j + gamma^k_{lm} J^m_j)
    t1 = contract("nli,nkjl->nkij", jv, jg + contract("nklm,nmj->nkjl", g, jv))
    # J (D_{x_i}(J x_j)) = J^k_m (d_i J^m_j + gamma^m_{il} J^l_j)
    t2 = _jout(jv, np.swapaxes(jg, 2, 3) + contract("nmil,nlj->nmij", g, jv))
    return t1 - t2


def vishnevskii_on_fields(conn: Connection, J: AlmostComplexStructure, X: PolyTensorField, Y: PolyTensorField, pts) -> np.ndarray:
    """Operator evaluation on explicit polynomial fields (first slot is
    tensorial, second is not)."""
    JX = poly_einsum("kj,j->k", J, X, valence=(1, 0))
    jv = J.values(pts)
    yv, yg = Y.jets(pts)
    jxv = JX.values(pts)
    xv = X.values(pts)
    g = conn.gammas(pts)
    # D_Z Y = Z^i (d_i Y^k + gamma^k_{ij} Y^j)
    dy = yg + contract("nkij,nj->nki", g, yv)  # dy[n, k, i] = (D_i Y)^k
    d_x = contract("ni,nki->nk", xv, dy)
    return contract("ni,nki->nk", jxv, dy) - contract("nkm,nm->nk", jv, d_x)
