"""Kernel operations: brackets, torsion, covariant derivatives, the metric
connection, and the coordinate 3-form against independent oracles."""

import numpy as np
import pytest

from oracle import comps, from_comps, lie_bracket
from qsg import sampling
from qsg.calculus import (
    ConstantConnection,
    LeviCivitaConnection,
    PolyConnection,
    covd_values,
    exterior_d2_values,
    exterior_d2_connection_expansion,
    torsion_values,
)
from qsg.errors import DegeneracyError, QsgError
from qsg.fields import PolyExpr, PolyTensorField, poly_einsum
from qsg.generate import random_poly_field


def pts2(seed=0, n=25):
    return sampling.sample_box([(-0.5, 0.5)] * 2, n, seed, 100)


def pts4(seed=0, n=25):
    return sampling.sample_box([(-0.5, 0.5)] * 4, n, seed, 101)


def test_bracket_of_frames_vanishes():
    e0 = PolyTensorField.constant(2, (1, 0), [1.0, 0.0])
    e1 = PolyTensorField.constant(2, (1, 0), [0.0, 1.0])
    assert all(p.terms() == [] for p in comps(lie_bracket(e0, e1)))


def test_bracket_hand_example():
    # X = (y, 0), Y = (0, x): [X, Y] = (-x, y)
    x = PolyExpr(2, [[1, 0]], [1.0])
    y = PolyExpr(2, [[0, 1]], [1.0])
    zero = PolyExpr(2)
    X = from_comps(2, (1, 0), np.array([y, zero], dtype=object))
    Y = from_comps(2, (1, 0), np.array([zero, x], dtype=object))
    br = lie_bracket(X, Y)
    p = pts2()
    assert np.allclose(br.values(p), np.stack([-p[:, 0], p[:, 1]], axis=1), atol=0)


def test_jacobi_identity():
    rng = sampling.rng(11, 0)
    X = random_poly_field(rng, 2, (1, 0), 2, 1.0)
    Y = random_poly_field(rng, 2, (1, 0), 2, 1.0)
    Z = random_poly_field(rng, 2, (1, 0), 2, 1.0)
    total = (
        lie_bracket(X, lie_bracket(Y, Z))
        + lie_bracket(Y, lie_bracket(Z, X))
        + lie_bracket(Z, lie_bracket(X, Y))
    )
    assert np.abs(total.values(pts2())).max() <= 1e-12


def test_bracket_shape_error():
    X = PolyTensorField.zeros(2, (1, 0))
    with pytest.raises(QsgError, match="lie_bracket expects two vector fields"):
        lie_bracket(X, PolyTensorField.zeros(2, (0, 2)))


def test_torsion_examples():
    p = pts2()
    assert np.abs(torsion_values(PolyConnection.zero(2), p)).max() == 0.0
    rng = sampling.rng(12, 0)
    raw = random_poly_field(rng, 2, (1, 2), 2, 1.0)
    raw_comps = comps(raw)
    sym_comps = np.empty((2, 2, 2), dtype=object)
    for k in range(2):
        for i in range(2):
            for j in range(2):
                sym_comps[k, i, j] = (raw_comps[k, i, j] + raw_comps[k, j, i]) * 0.5
    sym = from_comps(2, (1, 2), sym_comps)
    assert np.abs(torsion_values(PolyConnection(sym), p)).max() <= 1e-15
    gam = np.zeros((2, 2, 2))
    gam[0, 0, 1] = 1.0
    t = torsion_values(PolyConnection(PolyTensorField.constant(2, (1, 2), gam)), p)
    assert t[0, 0, 0, 1] == 1.0 and t[0, 0, 1, 0] == -1.0
    assert np.abs(t).sum() == pytest.approx(2 * len(p))


def test_torsion_antisymmetry_everywhere():
    rng = sampling.rng(13, 0)
    conn = PolyConnection(random_poly_field(rng, 4, (1, 2), 2, 1.0))
    t = torsion_values(conn, pts4())
    assert np.abs(t + np.swapaxes(t, 2, 3)).max() == 0.0


def test_covariant_derivative_flat_constant():
    conn = PolyConnection.zero(2)
    c = PolyTensorField.constant(2, (0, 2), [[1.0, 2.0], [2.0, -1.0]])
    assert np.abs(covd_values(conn, c, pts2())).max() == 0.0


def test_covariant_derivative_levi_civita_parallel():
    rng = sampling.rng(14, 0)
    base = PolyTensorField.constant(2, (0, 2), np.eye(2))
    pert = random_poly_field(rng, 2, (0, 2), 2, 0.2)
    g = base + (pert + pert.transpose_02()).scale(0.5)
    lc = LeviCivitaConnection(g)
    p = pts2()
    assert np.abs(covd_values(lc, g, p)).max() <= 1e-9
    assert np.abs(torsion_values(lc, p)).max() <= 1e-9


def test_covariant_derivative_leibniz():
    rng = sampling.rng(15, 0)
    conn = PolyConnection(random_poly_field(rng, 2, (1, 2), 2, 1.0))
    f = random_poly_field(rng, 2, (0, 0), 2, 1.0)
    t = random_poly_field(rng, 2, (1, 1), 2, 1.0)
    p = pts2()
    lhs = covd_values(conn, poly_einsum(",kj->kj", f, t, valence=(1, 1)), p)
    fv, fg = f.jets(p)
    tv = t.values(p)
    rhs = fv[:, None, None, None] * covd_values(conn, t, p)
    rhs = rhs + np.einsum("ni,nkj->nkij", fg, tv)
    assert np.abs(lhs - rhs).max() <= 1e-10


def test_covariant_derivative_preserves_lower_symmetry():
    rng = sampling.rng(16, 0)
    conn = PolyConnection(random_poly_field(rng, 2, (1, 2), 2, 1.0))
    s = random_poly_field(rng, 2, (0, 2), 2, 1.0)
    s = (s + s.transpose_02()).scale(0.5)
    d = covd_values(conn, s, pts2())
    assert np.abs(d - np.swapaxes(d, 2, 3)).max() <= 1e-14


def test_covariant_derivative_unsupported_valence():
    conn = PolyConnection.zero(2)
    with pytest.raises(QsgError, match=r"unsupported for valence \(2, 0\)"):
        covd_values(conn, PolyTensorField.zeros(2, (2, 0)), pts2())


def test_levi_civita_flat_identity():
    g = PolyTensorField.constant(2, (0, 2), np.eye(2))
    assert np.abs(LeviCivitaConnection(g).gammas(pts2())).max() == 0.0


def test_levi_civita_hand_example():
    # b = diag(1 + x^2, 1): the only nonzero symbol is x / (1 + x^2) in the
    # first slot triple
    b_comps = comps(PolyTensorField.zeros(2, (0, 2))).copy()
    b_comps[0, 0] = PolyExpr(2, [[0, 0], [2, 0]], [1.0, 1.0])
    b_comps[1, 1] = PolyExpr(2, [[0, 0]], [1.0])
    b = from_comps(2, (0, 2), b_comps)
    p = pts2()
    gam = LeviCivitaConnection(b).gammas(p)
    x = p[:, 0]
    assert np.allclose(gam[:, 0, 0, 0], x / (1 + x ** 2), atol=1e-14)
    mask = np.ones_like(gam, dtype=bool)
    mask[:, 0, 0, 0] = False
    assert np.abs(gam[mask]).max() <= 1e-14


def test_levi_civita_requires_symmetric():
    w = PolyTensorField.constant(2, (0, 2), [[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(QsgError, match="metric is not symmetric"):
        LeviCivitaConnection(w).gammas(pts2())


def test_levi_civita_degenerate_metric_reports_point():
    b_comps = comps(PolyTensorField.zeros(2, (0, 2))).copy()
    b_comps[0, 0] = PolyExpr(2, [[1, 0]], [1.0])  # determinant vanishes at x = 0
    b_comps[1, 1] = PolyExpr(2, [[0, 0]], [1.0])
    b = from_comps(2, (0, 2), b_comps)
    with pytest.raises(DegeneracyError) as err:
        LeviCivitaConnection(b).gammas(np.array([[0.3, 0.1], [0.0, 0.2]]))
    assert err.value.point == (0.0, 0.2) and err.value.det == 0.0


def test_exterior_d2_two_dimensional_top():
    rng = sampling.rng(17, 0)
    w = random_poly_field(rng, 2, (0, 2), 2, 1.0)
    w = (w - w.transpose_02()).scale(0.5)
    assert np.abs(exterior_d2_values(w, pts2())).max() <= 1e-15


def _coordinate_three_form_oracle(w, pts):
    """Independent componentwise oracle via polynomial differentiation."""
    d, wc = w.dimension, comps(w)
    out = np.zeros((len(pts), d, d, d))
    for a in range(d):
        for b in range(d):
            for c in range(d):
                val = (
                    wc[b, c].diff(a).eval(pts)
                    - wc[a, c].diff(b).eval(pts)
                    + wc[a, b].diff(c).eval(pts)
                )
                out[:, a, b, c] = val
    return out


def test_exterior_d2_componentwise_oracle():
    w_comps = comps(PolyTensorField.zeros(4, (0, 2))).copy()
    w_comps[0, 1] = PolyExpr(4, [[0, 0, 1, 0]], [1.0])
    w_comps[1, 0] = -w_comps[0, 1]
    w = from_comps(4, (0, 2), w_comps)
    p = pts4()
    got = exterior_d2_values(w, p)
    assert np.allclose(got, _coordinate_three_form_oracle(w, p), atol=1e-14)
    # the only nonzero pattern mixes the dependence axis with the form axes
    assert got[0, 2, 0, 1] == pytest.approx(1.0)
    rng = sampling.rng(18, 0)
    w2 = random_poly_field(rng, 4, (0, 2), 2, 1.0)
    w2 = (w2 - w2.transpose_02()).scale(0.5)
    assert np.allclose(
        exterior_d2_values(w2, p), _coordinate_three_form_oracle(w2, p), atol=1e-13
    )


def test_exterior_d2_total_antisymmetry():
    rng = sampling.rng(19, 0)
    w = random_poly_field(rng, 4, (0, 2), 2, 1.0)
    w = (w - w.transpose_02()).scale(0.5)
    dv = exterior_d2_values(w, pts4())
    assert np.abs(dv + np.einsum("nbac->nabc", dv)).max() <= 1e-13
    assert np.abs(dv + np.einsum("nacb->nabc", dv)).max() <= 1e-13


def test_exterior_d2_connection_independence():
    rng = sampling.rng(20, 0)
    p = pts4()
    for trial in range(30):
        w = random_poly_field(rng, 4, (0, 2), 2, 1.0)
        w = (w - w.transpose_02()).scale(0.5)
        conn = PolyConnection(random_poly_field(rng, 4, (1, 2), 2, 1.0))
        lhs = exterior_d2_values(w, p)
        rhs = exterior_d2_connection_expansion(w, conn, p)
        assert np.abs(lhs - rhs).max() / (1 + np.abs(lhs).max()) <= 1e-9


def test_exterior_d2_rejects_non_antisymmetric():
    g = PolyTensorField.constant(2, (0, 2), np.eye(2))
    with pytest.raises(QsgError, match="2-form is not antisymmetric"):
        exterior_d2_values(g, pts2())


def test_block_constant_connection():
    blocks = np.arange(3 * 8, dtype=float).reshape(3, 2, 2, 2)
    g = ConstantConnection(blocks).gammas(pts2(n=6))
    assert np.array_equal(g, np.repeat(blocks, 2, axis=0))
    single = ConstantConnection(blocks[1]).gammas(pts2(n=4))
    assert np.array_equal(single, np.broadcast_to(blocks[1], (4, 2, 2, 2)))
    with pytest.raises(QsgError, match="5 points do not split into 3 equal blocks"):
        ConstantConnection(blocks).gammas(pts2(n=5))
