"""Conjugation transforms: defining identities, involutions, duality of
metric derivatives, and the four-group tables."""

import numpy as np
import pytest

from qsg import sampling
from qsg.calculus import PolyConnection, covd_values, levi_civita
from qsg.connections import (
    KleinReport,
    average_connection,
    conjugate_by_bilinear,
    conjugate_by_J,
    klein_table,
)
from qsg.errors import PreconditionError
from qsg.fields import PolyTensorField
from qsg.generate import (
    GenSpec,
    gen_almost_complex,
    gen_hermitian_metric,
    gen_norden_metric,
    random_poly_field,
    random_vector_field,
)
from qsg.model import flat_hermitian_model
from qsg.structures import MetricField


def _hermitian_setup(seed, dim=2):
    spec = GenSpec(seed=seed, dimension=dim, degree=2)
    J = gen_almost_complex(spec)
    g = gen_hermitian_metric(spec, J)
    conn = PolyConnection(random_poly_field(sampling.rng(seed, 9), dim, (1, 2), 2, 1.0))
    pts = sampling.sample_box([(-0.5, 0.5)] * dim, 25, seed, 200)
    return J, g, conn, pts


def test_flat_identity_self_conjugate():
    g = MetricField(PolyTensorField.constant(2, (0, 2), np.eye(2)), "hermitian")
    conn = PolyConnection.zero(2)
    pts = sampling.sample_box([(-0.5, 0.5)] * 2, 10, 0, 201)
    assert np.abs(conjugate_by_bilinear(conn, g).gammas(pts)).max() == 0.0


@pytest.mark.parametrize("dim", [2, 4])
def test_conjugation_involution(dim):
    for seed in range(15):
        J, g, conn, pts = _hermitian_setup(seed, dim)
        star = conjugate_by_bilinear(conn, g)
        back = conjugate_by_bilinear(star, g)
        base = conn.gammas(pts)
        assert np.abs(back.gammas(pts) - base).max() / (1 + np.abs(base).max()) <= 1e-9


def test_levi_civita_self_conjugate():
    J, g, _, pts = _hermitian_setup(3)
    lc = levi_civita(g.field)
    star = conjugate_by_bilinear(lc, g)
    diff = star.gammas(pts) - lc.gammas(pts)
    assert np.abs(diff).max() <= 1e-9


def test_defining_identity_on_polynomial_fields():
    """The conjugate satisfies Z b(X,Y) = b(D_Z X, Y) + b(X, D'_Z Y) for
    arbitrary polynomial fields, not only frames."""
    J, g, conn, pts = _hermitian_setup(4)
    rng = sampling.rng(4, 10)
    X = random_vector_field(rng, 2, 2, 1.0)
    Y = random_vector_field(rng, 2, 2, 1.0)
    Z = random_vector_field(rng, 2, 2, 1.0)
    star = conjugate_by_bilinear(conn, g)
    bv, bg = g.field.jets(pts)
    xv, xg = X.jets(pts)
    yv, yg = Y.jets(pts)
    zv = Z.values(pts)
    # directional derivative of the scalar b(X, Y) along Z
    scalar_grad = (
        np.einsum("nijk,ni,nj->nk", bg, xv, yv)
        + np.einsum("nij,nik,nj->nk", bv, xg, yv)
        + np.einsum("nij,ni,njk->nk", bv, xv, yg)
    )
    lhs = np.einsum("nk,nk->n", zv, scalar_grad)
    gam = conn.gammas(pts)
    gam_star = star.gammas(pts)
    # D_Z X = Z^i (d_i X^k + gamma^k_{ij} X^j)
    dzx = np.einsum("ni,nki->nk", zv, xg) + np.einsum("ni,nkij,nj->nk", zv, gam, xv)
    dzy_star = np.einsum("ni,nki->nk", zv, yg) + np.einsum("ni,nkij,nj->nk", zv, gam_star, yv)
    rhs = np.einsum("nij,ni,nj->n", bv, dzx, yv) + np.einsum("nij,ni,nj->n", bv, xv, dzy_star)
    assert np.abs(lhs - rhs).max() / (1 + np.abs(lhs).max()) <= 1e-9


def test_metric_derivative_duality():
    for seed in range(10):
        J, g, conn, pts = _hermitian_setup(seed)
        # (D'g) = -(Dg) for the metric conjugate D' of D
        a = covd_values(conn, g.field, pts)
        b = covd_values(conjugate_by_bilinear(conn, g), g.field, pts)
        assert np.abs(a + b).max() / (1.0 + np.abs(a).max()) <= 1e-9


def test_conjugation_rejects_mixed_symmetry():
    J, g, conn, pts = _hermitian_setup(6)
    bad = PolyTensorField.constant(2, (0, 2), [[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(PreconditionError):
        conjugate_by_bilinear(conn, bad).gammas(pts)


def test_j_conjugate_involution_and_closedness():
    from qsg.structures import d_nabla_J_values

    for seed in range(15):
        J, g, conn, pts = _hermitian_setup(seed)
        cj = conjugate_by_J(conn, J)
        back = conjugate_by_J(cj, J)
        base = conn.gammas(pts)
        assert np.abs(back.gammas(pts) - base).max() / (1 + np.abs(base).max()) <= 1e-9
    # structure conjugate of a torsion-free connection closes the structure
    spec = GenSpec(seed=1, dimension=2, degree=2, constraints=frozenset({"torsion_free"}))
    from qsg.generate import gen_connection

    d0 = gen_connection(spec)
    J, g, _, pts = _hermitian_setup(1)
    w = conjugate_by_J(d0, J)
    assert np.abs(d_nabla_J_values(w, J, pts)).max() <= 1e-9


def test_average_connection_parallelizes_structure():
    from qsg.calculus import covd_values

    for seed in range(10):
        J, g, conn, pts = _hermitian_setup(seed)
        avg = average_connection(conn, J)
        assert np.abs(covd_values(avg, J.field, pts)).max() <= 1e-9
        # averaging is idempotent on structure-parallel connections
        again = average_connection(avg, J)
        a, b = again.gammas(pts), avg.gammas(pts)
        assert np.abs(a - b).max() / (1 + np.abs(b).max()) <= 1e-9


def test_flat_standard_klein_table_zero():
    model = flat_hermitian_model(2)
    pts = sampling.sample_box([(-0.5, 0.5)] * 2, 10, 0, 202)
    rep = klein_table(model.conn, model.metric, model.J, pts)
    assert rep.max_residual == 0.0


@pytest.mark.parametrize("dim", [2, 4])
def test_klein_table_hermitian(dim):
    for seed in range(10):
        J, g, conn, pts = _hermitian_setup(seed, dim)
        rep = klein_table(conn, g, J, pts)
        assert rep.passed, rep.residuals
        assert rep.max_residual <= 1e-8


@pytest.mark.parametrize("dim", [2, 4])
def test_klein_table_norden(dim):
    for seed in range(10):
        spec = GenSpec(seed=seed, dimension=dim, degree=2)
        J = gen_almost_complex(spec)
        h = gen_norden_metric(spec, J)
        conn = PolyConnection(random_poly_field(sampling.rng(seed, 11), dim, (1, 2), 2, 1.0))
        pts = sampling.sample_box([(-0.5, 0.5)] * dim, 25, seed, 203)
        rep = klein_table(conn, h, J, pts)
        assert rep.passed, rep.residuals
        assert rep.max_residual <= 1e-8


def test_klein_table_flavor_mismatch():
    J, g, conn, pts = _hermitian_setup(7)
    h_wrong = MetricField(g.field, flavor="norden")  # wrong flavor for this pair
    with pytest.raises(PreconditionError):
        klein_table(conn, h_wrong, J, pts)
    plain = MetricField(g.field, flavor="plain")
    with pytest.raises(PreconditionError):
        klein_table(conn, plain, J, pts)


def test_klein_report_fails_on_a_later_nan():
    # a non-finite residual fails the table wherever it sits
    rep = KleinReport(flavor="hermitian", residuals={"a": 0.0, "b": float("nan")})
    assert np.isnan(rep.max_residual)
    assert not rep.passed
