"""Exact oracle for the dense field kernels and the calculus kernels.

Inputs are small polynomials with integer coefficients, and evaluation
points are dyadic rationals, so every float the kernels produce is exactly
representable: each result must equal the rational-arithmetic value.  The
expected values are written as explicit loops over sympy polynomials, not
through the einsum index strings under test.  Kernels that invert a matrix
(Levi-Civita, bilinear conjugation) round, so they are compared with the
exact rational values to a relative 1e-12.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

sympy = pytest.importorskip("sympy")

from oracle import comps, from_comps, lie_bracket
from qsg import sampling
from qsg.calculus import (
    LeviCivitaConnection,
    PolyConnection,
    covd_values,
    exterior_d2_values,
    torsion_values,
)
from qsg.connections import BilinearConjugateConnection, JConjugateConnection
from qsg.fields import (
    PolyExpr,
    PolyTensorField,
    _row_keys,
    bilinear_pullback_both,
    bilinear_pullback_first,
    compose_11,
    j_apply_vector,
    poly_einsum,
)
from qsg.generate import (
    T_C,
    GenSpec,
    _congruent_form,
    _const_pullback_both,
    _symmetrize_12,
    gen_vishnevskii_zero_connection,
    j_conjugate_poly,
    monomial_exponents,
    random_poly_field,
    torsion_project_poly,
)
from qsg.model import standard_structure
from qsg.structures import AlmostComplexStructure, d_nabla_J_values, nijenhuis

DIMS = (2, 4)


def gens(d):
    return sympy.symbols(f"x0:{d}")


def to_sympy(p: PolyExpr, d):
    terms = {tuple(e): sympy.Rational(c) for e, c in p.terms()}
    return sympy.Poly.from_dict(terms or {(0,) * d: 0}, *gens(d), domain="QQ")


def int_field(rng, d, valence, degree=2, terms=3):
    """Random field with small integer coefficients, plus the same
    components as exact sympy polynomials."""
    shape = (d,) * (valence[0] + valence[1])
    basis = monomial_exponents(d, degree)
    polys = np.empty(shape, dtype=object)
    exact = np.empty(shape, dtype=object)
    for idx in np.ndindex(shape):
        rows = basis[rng.choice(len(basis), size=terms, replace=False)]
        polys[idx] = PolyExpr(d, rows, rng.integers(-3, 4, size=terms).astype(float))
        exact[idx] = to_sympy(polys[idx], d)
    return from_comps(d, valence, polys), exact


def int_matrix(rng, d):
    return rng.integers(-2, 3, size=(d, d)).astype(float)


def const_poly(c, d):
    return sympy.Poly(sympy.Rational(float(c)), *gens(d), domain="QQ")


def assert_exact(field, expected, rel=0.0):
    """Every coefficient of every component equals the rational one (to
    ``rel`` relative when the inputs carry non-integer floats)."""
    assert field.shape == expected.shape
    polys = comps(field)
    for idx in np.ndindex(field.shape):
        got = {tuple(e): sympy.Rational(c) for e, c in polys[idx].terms()}
        want = {m: c for m, c in expected[idx].terms() if c != 0}
        if rel == 0.0:
            assert got == want, idx
        else:
            for m in set(got) | set(want):
                g, w = got.get(m, 0), want.get(m, 0)
                assert abs(float(g - w)) <= rel * abs(float(w)), (idx, m)


def zeros_like(shape, d):
    out = np.empty(shape, dtype=object)
    for idx in np.ndindex(shape):
        out[idx] = const_poly(0, d)
    return out


@pytest.mark.parametrize("d", DIMS)
def test_jets_exact_at_dyadic_points(d):
    rng = np.random.default_rng(10 + d)
    pts = rng.integers(-4, 5, size=(6, d)) / 8.0
    for valence in ((1, 0), (1, 1), (0, 2), (1, 2)):
        field, exact = int_field(rng, d, valence, degree=3, terms=4)
        vals, grads = field.jets(pts)
        xs = gens(d)
        for n, pt in enumerate(pts):
            at = dict(zip(xs, (sympy.Rational(float(c)) for c in pt)))
            for idx in np.ndindex(field.shape):
                poly = exact[idx]
                assert sympy.Rational(float(vals[(n,) + idx])) == poly.eval(at)
                for k in range(d):
                    got = sympy.Rational(float(grads[(n,) + idx + (k,)]))
                    assert got == poly.diff(xs[k]).eval(at)
        assert np.array_equal(field.values(pts), vals)


@pytest.mark.parametrize("d", DIMS)
def test_linear_helpers_exact(d):
    rng = np.random.default_rng(20 + d)
    a, ea = int_field(rng, d, (0, 2))
    b, eb = int_field(rng, d, (0, 2))
    assert_exact(a + b, ea + eb)
    assert_exact(a - b, ea - eb)
    assert_exact(a - a, zeros_like(a.shape, d))
    half = const_poly(0.5, d)
    assert_exact(a.scale(0.5), ea * half)
    assert_exact(a.scale(-3.0), ea * const_poly(-3.0, d))
    assert_exact(a.transpose_02(), ea.T)
    f, ef = int_field(rng, d, (0, 0))
    t, et = int_field(rng, d, (1, 1))
    assert_exact(poly_einsum(",kj->kj", f, t, valence=(1, 1)), et * ef[()])


@pytest.mark.parametrize("d", DIMS)
def test_matrix_products_exact(d):
    rng = np.random.default_rng(30 + d)
    A, eA = int_field(rng, d, (1, 1))
    B, eB = int_field(rng, d, (1, 1))
    X, eX = int_field(rng, d, (1, 0))
    b, eb = int_field(rng, d, (0, 2))
    r = range(d)
    comp = zeros_like((d, d), d)
    first = zeros_like((d, d), d)
    both = zeros_like((d, d), d)
    jx = zeros_like((d,), d)
    for k, j, m in itertools.product(r, r, r):
        comp[k, j] += eA[k, m] * eB[m, j]
        first[k, j] += eA[m, k] * eb[m, j]
    for i, j, k, l in itertools.product(r, r, r, r):
        both[i, j] += eA[k, i] * eA[l, j] * eb[k, l]
    for k, j in itertools.product(r, r):
        jx[k] += eA[k, j] * eX[j]
    assert_exact(compose_11(A, B), comp)
    assert_exact(bilinear_pullback_first(b, A), first)
    assert_exact(bilinear_pullback_both(b, A), both)
    assert_exact(j_apply_vector(A, X), jx)


@pytest.mark.parametrize("d", DIMS)
def test_two_field_products_exact(d):
    # an outer product with no summed index, and an output that interleaves
    # the two factors' indices, with either factor first in the spec
    rng = np.random.default_rng(120 + d)
    X, eX = int_field(rng, d, (1, 0))
    Y, eY = int_field(rng, d, (1, 0), degree=1, terms=1)
    t, et = int_field(rng, d, (1, 2))
    F, eF = int_field(rng, d, (1, 1), degree=1, terms=2)
    f, ef = int_field(rng, d, (0, 0))
    r = range(d)
    outer = zeros_like((d, d), d)
    inter = zeros_like((d, d, d), d)
    for i, j in itertools.product(r, r):
        outer[j, i] += eX[i] * eY[j]
    for k, i, b, a in itertools.product(r, r, r, r):
        inter[k, i, b] += et[k, a, b] * eF[a, i]
    assert_exact(poly_einsum("i,j->ji", X, Y, valence=(2, 0)), outer)
    assert_exact(poly_einsum("j,i->ji", Y, X, valence=(2, 0)), outer)
    assert_exact(poly_einsum("kab,ai->kib", t, F, valence=(1, 2)), inter)
    assert_exact(poly_einsum("ai,kab->kib", F, t, valence=(1, 2)), inter)
    assert_exact(poly_einsum(",kij->kij", f, t, valence=(1, 2)), et * ef[()])


@pytest.mark.parametrize("d", DIMS)
def test_zero_row_factor_gives_zero_product(d):
    rng = np.random.default_rng(130 + d)
    F, _ = int_field(rng, d, (1, 1))
    t, _ = int_field(rng, d, (1, 2))
    zero = PolyTensorField.zeros(d, (1, 1))
    for out in (compose_11(zero, F), compose_11(F, zero),
                poly_einsum("kab,ai->kib", t, zero, valence=(1, 2)),
                poly_einsum(",kij->kij", PolyTensorField.zeros(d, (0, 0)), t, valence=(1, 2))):
        assert out.exps.shape == (0, d)
        assert out.coefs.shape == (0,) + out.shape


def assert_canonical(field):
    keys = _row_keys(field.exps)
    assert np.all(keys[1:] > keys[:-1])
    assert np.all(np.any(field.coefs.reshape(len(keys), -1) != 0.0, axis=1))


@pytest.mark.parametrize("d", DIMS)
def test_product_basis_is_canonical(d):
    rng = np.random.default_rng(140 + d)
    t, _ = int_field(rng, d, (1, 2), degree=3, terms=4)
    F, _ = int_field(rng, d, (1, 1))
    assert_canonical(poly_einsum("kab,ai->kib", t, F, valence=(1, 2)))
    assert_canonical(poly_einsum("ai,kab->kib", F, t, valence=(1, 2)))
    # (a + b)(a - b) = a^2 - b^2: the cross terms cancel to an exact zero
    # row, which is dropped; the second pair is too wide to pack into one
    # integer key, so its rows are ranked instead
    for p in (1, 2 ** 40):
        a, b = np.zeros((2, d), dtype=np.int64)
        a[0] = b[-1] = p
        plus = PolyTensorField(d, (0, 0), exps=[a, b], coefs=[1.0, 1.0])
        minus = PolyTensorField(d, (0, 0), exps=[a, b], coefs=[1.0, -1.0])
        out = poly_einsum(",->", plus, minus, valence=(0, 0))
        assert_canonical(out)
        assert out.exps.tolist() == [list(2 * a), list(2 * b)]
        assert out.coefs.tolist() == [1.0, -1.0]


def test_product_peak_memory_stays_near_its_table():
    # 210 x 70 basis rows at d = 4, as in torsion_project_poly: the product
    # table is never sorted or copied, so the peak stays well below two tables
    rng = np.random.default_rng(150)
    e6, e4 = monomial_exponents(4, 6), monomial_exponents(4, 4)
    t = PolyTensorField(4, (1, 2), exps=e6, coefs=rng.integers(1, 4, size=(len(e6), 4, 4, 4)))
    F = PolyTensorField(4, (1, 1), exps=e4, coefs=rng.integers(1, 4, size=(len(e4), 4, 4)))
    table_bytes = len(e6) * len(e4) * 4 ** 3 * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = poly_einsum("kab,ai->kib", t, F, valence=(1, 2))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert out.exps.shape == (len(monomial_exponents(4, 10)), 4)
    assert peak < 1.5 * table_bytes, (peak, table_bytes)


@pytest.mark.parametrize("d", DIMS)
def test_lie_bracket_exact(d):
    rng = np.random.default_rng(40 + d)
    X, eX = int_field(rng, d, (1, 0))
    Y, eY = int_field(rng, d, (1, 0))
    xs = gens(d)
    want = zeros_like((d,), d)
    for i, j in itertools.product(range(d), range(d)):
        want[i] += eX[j] * eY[i].diff(xs[j]) - eY[j] * eX[i].diff(xs[j])
    assert_exact(lie_bracket(X, Y), want)


@pytest.mark.parametrize("d", DIMS)
def test_congruence_helpers_exact(d):
    rng = np.random.default_rng(50 + d)
    b, eb = int_field(rng, d, (0, 2))
    F, eF = int_field(rng, d, (1, 1))
    q = int_matrix(rng, d)
    e = int_matrix(rng, d)
    r = range(d)
    pull = zeros_like((d, d), d)
    cong_const = zeros_like((d, d), d)
    cong_poly = zeros_like((d, d), d)
    for i, j, a, c in itertools.product(r, r, r, r):
        pull[i, j] += eb[a, c] * const_poly(q[a, i] * q[c, j], d)
        cong_const[i, j] += eF[a, i] * eF[c, j] * const_poly(e[a, c], d)
        cong_poly[i, j] += eF[a, i] * eF[c, j] * eb[a, c]
    assert_exact(_const_pullback_both(b, q), pull)
    assert_exact(_congruent_form(e, F), cong_const)
    assert_exact(_congruent_form(b, F), cong_poly)


@pytest.mark.parametrize("d", DIMS)
def test_connection_recipes_exact(d):
    rng = np.random.default_rng(60 + d)
    g, eg = int_field(rng, d, (1, 2))
    jf, ej = int_field(rng, d, (1, 1))
    J = AlmostComplexStructure(jf)
    xs = gens(d)
    r = range(d)
    conj = zeros_like((d, d, d), d)
    proj = zeros_like((d, d, d), d)
    sym = zeros_like((d, d, d), d)
    anti = zeros_like((d, d, d), d)
    half = const_poly(0.5, d)
    for k, i, j in itertools.product(r, r, r):
        for m in r:
            inner = ej[m, j].diff(xs[i])
            for l in r:
                inner += eg[m, i, l] * ej[l, j]
            conj[k, i, j] -= ej[k, m] * inner
        proj[k, i, j] += eg[k, i, j]
        for a, b in itertools.product(r, r):
            proj[k, i, j] += eg[k, a, b] * ej[a, i] * ej[b, j]
        proj[k, i, j] *= half
        sym[k, i, j] = (eg[k, i, j] + eg[k, j, i]) * half
        anti[k, i, j] = (eg[k, i, j] - eg[k, j, i]) * half
    assert_exact(j_conjugate_poly(g, J), conj)
    assert_exact(torsion_project_poly(g, J), proj)
    assert_exact(_symmetrize_12(g), sym)
    assert_exact(_symmetrize_12(g, -1.0), anti)


@pytest.mark.parametrize("d", DIMS)
def test_vishnevskii_projection_exact(d):
    # the recipe draws its own float symbols; rebuild them from the same
    # stream and project in rational arithmetic
    spec = GenSpec(seed=3, dimension=d, degree=1)
    J = AlmostComplexStructure(PolyTensorField.constant(d, (1, 1), standard_structure(d)))
    got = gen_vishnevskii_zero_connection(spec, J).field
    raw = random_poly_field(sampling.rng(spec.seed, T_C, d, 3), d, (1, 2), 1, 1.0)
    eraw = np.empty(raw.shape, dtype=object)
    polys = comps(raw)
    for idx in np.ndindex(raw.shape):
        eraw[idx] = to_sympy(polys[idx], d)
    jm = standard_structure(d)
    r = range(d)
    want = zeros_like((d, d, d), d)
    for k, i, j in itertools.product(r, r, r):
        want[k, i, j] += eraw[k, i, j] * const_poly(0.5, d)
        for a, b in itertools.product(r, r):
            want[k, i, j] += eraw[a, b, j] * const_poly(-0.5 * jm[k, a] * jm[b, i], d)
    # float inputs: the subtraction rounds once, within one unit in the last place
    assert_exact(got, want, rel=2.3e-16)


# ---------------------------------------------------------------------------
# calculus kernels at dyadic points


def dyadic_points(rng, d, n=4):
    return rng.integers(-4, 5, size=(n, d)) / 8.0


def exact_jets(exact, pts, d):
    """Exact values ``(n, *shape)`` and partials ``(n, *shape, d)`` of sympy
    components at the points, as object arrays of rationals."""
    xs = gens(d)
    vals = np.empty((len(pts),) + exact.shape, dtype=object)
    grads = np.empty((len(pts),) + exact.shape + (d,), dtype=object)
    for n, pt in enumerate(pts):
        at = dict(zip(xs, (sympy.Rational(float(c)) for c in pt)))
        for idx in np.ndindex(exact.shape):
            vals[(n,) + idx] = exact[idx].eval(at)
            for k in range(d):
                grads[(n,) + idx + (k,)] = exact[idx].diff(xs[k]).eval(at)
    return vals, grads


def assert_equal_exact(got, want):
    assert got.shape == want.shape
    for idx in np.ndindex(want.shape):
        assert sympy.Rational(float(got[idx])) == want[idx], idx


def assert_close_exact(got, want, rel=1e-12):
    """Normwise relative agreement with exact rational values."""
    assert got.shape == want.shape
    scale = max(abs(float(w)) for w in want.flat)
    worst = max(abs(float(sympy.Rational(float(g)) - w)) for g, w in zip(got.flat, want.flat))
    assert worst <= rel * scale, (worst, scale)


def exact_covd(G, tv, tg, valence, d):
    """Textbook covariant derivative at every point, one formula per
    valence, derivative index first among the lower indices."""
    r = range(d)
    n = tv.shape[0]
    shape = (n,) + (d,) * (sum(valence) + 1)
    out = np.empty(shape, dtype=object)
    for p in range(n):
        g, v, dv = G[p], tv[p], tg[p]
        if valence == (1, 0):
            for k, i in itertools.product(r, r):
                out[p, k, i] = dv[k, i] + sum(g[k, i, j] * v[j] for j in r)
        elif valence == (1, 1):
            for k, i, j in itertools.product(r, r, r):
                out[p, k, i, j] = (dv[k, j, i] + sum(g[k, i, m] * v[m, j] for m in r)
                                   - sum(g[m, i, j] * v[k, m] for m in r))
        elif valence == (0, 2):
            for i, j, k in itertools.product(r, r, r):
                out[p, i, j, k] = (dv[j, k, i] - sum(g[m, i, j] * v[m, k] for m in r)
                                   - sum(g[m, i, k] * v[j, m] for m in r))
        else:
            for i, j, k, l in itertools.product(r, r, r, r):
                out[p, i, j, k, l] = (dv[j, k, l, i] - sum(g[m, i, j] * v[m, k, l] for m in r)
                                      - sum(g[m, i, k] * v[j, m, l] for m in r)
                                      - sum(g[m, i, l] * v[j, k, m] for m in r))
    return out


def exact_torsion(G, d):
    out = np.empty(G.shape, dtype=object)
    for p, k, i, j in itertools.product(range(G.shape[0]), range(d), range(d), range(d)):
        out[p, k, i, j] = G[p, k, i, j] - G[p, k, j, i]
    return out


@pytest.mark.parametrize("d", DIMS)
def test_covd_and_torsion_exact(d):
    rng = np.random.default_rng(70 + d)
    pts = dyadic_points(rng, d)
    gamma, eg = int_field(rng, d, (1, 2))
    conn = PolyConnection(gamma)
    G, _ = exact_jets(eg, pts, d)
    assert_equal_exact(torsion_values(conn, pts), exact_torsion(G, d))
    for valence in ((1, 0), (1, 1), (0, 2), (0, 3)):
        t, et = int_field(rng, d, valence)
        tv, tg = exact_jets(et, pts, d)
        assert_equal_exact(covd_values(conn, t, pts), exact_covd(G, tv, tg, valence, d))


@pytest.mark.parametrize("d", DIMS)
def test_structure_kernels_exact(d):
    # J is any integer (1,1) field: the kernels are formulas in J and its
    # partials and do not use J^2 = -1
    rng = np.random.default_rng(80 + d)
    pts = dyadic_points(rng, d)
    gamma, eg = int_field(rng, d, (1, 2))
    jf, ej = int_field(rng, d, (1, 1))
    J = AlmostComplexStructure(jf)
    conn = PolyConnection(gamma)
    G, _ = exact_jets(eg, pts, d)
    jv, jg = exact_jets(ej, pts, d)
    r = range(d)
    conj = np.empty(G.shape, dtype=object)
    closed = np.empty(G.shape, dtype=object)
    nij = np.empty(G.shape, dtype=object)
    dj = exact_covd(G, jv, jg, (1, 1), d)
    tor = exact_torsion(G, d)
    for p, k, i, j in itertools.product(range(len(pts)), r, r, r):
        conj[p, k, i, j] = -sum(
            jv[p, k, m] * (jg[p, m, j, i] + sum(G[p, m, i, l] * jv[p, l, j] for l in r))
            for m in r)
        closed[p, k, i, j] = (dj[p, k, i, j] - dj[p, k, j, i]
                              + sum(jv[p, k, m] * tor[p, m, i, j] for m in r))
        nij[p, k, i, j] = (sum(jv[p, k, m] * (jg[p, m, j, i] - jg[p, m, i, j]) for m in r)
                           - sum(jv[p, l, i] * jg[p, k, j, l] for l in r)
                           + sum(jv[p, l, j] * jg[p, k, i, l] for l in r))
    assert_equal_exact(JConjugateConnection(conn, J).gammas(pts), conj)
    assert_equal_exact(d_nabla_J_values(covd_values(conn, J.field, pts), J.values(pts),
                                        torsion_values(conn, pts)), closed)
    assert_equal_exact(nijenhuis(J).values(pts), nij)


@pytest.mark.parametrize("d", DIMS)
def test_exterior_d2_exact(d):
    rng = np.random.default_rng(90 + d)
    pts = dyadic_points(rng, d)
    a, ea = int_field(rng, d, (0, 2))
    w = a - a.transpose_02()
    _, wg = exact_jets(ea - ea.T, pts, d)
    r = range(d)
    want = np.empty((len(pts), d, d, d), dtype=object)
    for p, i, j, k in itertools.product(range(len(pts)), r, r, r):
        want[p, i, j, k] = wg[p, j, k, i] - wg[p, i, k, j] + wg[p, i, j, k]
    assert_equal_exact(exterior_d2_values(w, pts), want)


def dominant_form(rng, d, sign):
    """Integer (0,2) field ``128 B0 + (A + sign A^T)``: symmetric with
    ``B0 = I`` for sign +1, antisymmetric with ``B0`` the standard block
    structure for sign -1.  Entries of A are at most 9 in size on the box
    [-1/2, 1/2]^d, so the 128 B0 term dominates and the form is
    nondegenerate there."""
    a, ea = int_field(rng, d, (0, 2))
    base = np.eye(d) if sign > 0 else standard_structure(d)
    b = PolyTensorField.constant(d, (0, 2), 128.0 * base) + a + a.transpose_02().scale(sign)
    eb = ea + ea.T * const_poly(sign, d)
    for idx in np.ndindex(eb.shape):
        eb[idx] += const_poly(128.0 * base[idx], d)
    return b, eb


@pytest.mark.parametrize("d", DIMS)
def test_levi_civita_close_to_exact(d):
    rng = np.random.default_rng(100 + d)
    pts = dyadic_points(rng, d)
    b, eb = dominant_form(rng, d, 1.0)
    bv, bg = exact_jets(eb, pts, d)
    r = range(d)
    want = np.empty((len(pts), d, d, d), dtype=object)
    for p in range(len(pts)):
        inv = sympy.Matrix(d, d, lambda i, j: bv[p, i, j]).inv()
        for k, i, j in itertools.product(r, r, r):
            want[p, k, i, j] = sympy.Rational(1, 2) * sum(
                inv[k, l] * (bg[p, j, l, i] + bg[p, i, l, j] - bg[p, i, j, l]) for l in r)
    assert_close_exact(LeviCivitaConnection(b).gammas(pts), want)


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_bilinear_conjugate_close_to_exact(d, sign):
    # second slot: b_{im} gamma'^m_{kj} = d_k b_{ij} - gamma^l_{ki} b_{lj},
    # solved for gamma' point by point
    rng = np.random.default_rng(110 + d)
    pts = dyadic_points(rng, d)
    gamma, eg = int_field(rng, d, (1, 2))
    b, eb = dominant_form(rng, d, sign)
    G, _ = exact_jets(eg, pts, d)
    bv, bg = exact_jets(eb, pts, d)
    r = range(d)
    want = np.empty((len(pts), d, d, d), dtype=object)
    for p in range(len(pts)):
        mat = sympy.Matrix(d, d, lambda i, m: bv[p, i, m])
        for k, j in itertools.product(r, r):
            rhs = sympy.Matrix([bg[p, i, j, k] - sum(G[p, l, k, i] * bv[p, l, j] for l in r)
                                for i in r])
            sol = mat.LUsolve(rhs)
            for m in r:
                want[p, m, k, j] = sol[m]
    assert_close_exact(BilinearConjugateConnection(PolyConnection(gamma), b).gammas(pts), want)
