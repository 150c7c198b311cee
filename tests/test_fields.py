"""Field engine: exact jets against finite differences, algebra laws."""

from fractions import Fraction
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracle import comps, from_comps, random_poly
from qsg import sampling
from qsg.errors import QsgError
from qsg.fields import (
    ChartDomain,
    PolyExpr,
    PolyTensorField,
    _basis_values,
    poly_einsum,
)
from qsg.generate import random_poly_field
from qsg.model_io import MAX_DEGREE


def test_constant_field_jet():
    f = PolyExpr(2, [[0, 0]], [3.5])
    v, g = f.jet(np.array([[0.2, -0.1]]))
    assert v[0] == 3.5
    assert np.all(g[0] == 0.0)


def test_hand_differentiated_monomial():
    # f(x, y) = x^2 y at (1, 2): value 2, partials (4, 1)
    f = PolyExpr(2, [[2, 1]], [1.0])
    v, g = f.jet(np.array([[1.0, 2.0]]))
    assert v[0] == pytest.approx(2.0)
    assert g[0] == pytest.approx([4.0, 1.0])


def test_partials_match_central_differences():
    rng = sampling.rng(3, 1)
    h = 1e-5
    for trial in range(10):
        d = 2 if trial % 2 == 0 else 4
        f = random_poly(rng, d, degree=3, bound=1.0)
        pts = sampling.sample_box([(-0.5, 0.5)] * d, 20, 3, 2, trial)
        _, grads = f.jet(pts)
        for k in range(d):
            shift = np.zeros(d)
            shift[k] = h
            fd = (f.eval(pts + shift) - f.eval(pts - shift)) / (2 * h)
            assert np.all(np.abs(fd - grads[:, k]) <= 1e-6 * (1.0 + np.abs(grads[:, k])))


def test_degree_four_fd_oracle():
    rng = sampling.rng(4, 1)
    f = random_poly(rng, 4, degree=4, bound=1.0)
    pts = sampling.sample_box([(-0.5, 0.5)] * 4, 25, 4, 2)
    _, grads = f.jet(pts)
    h = 1e-5
    for k in range(4):
        shift = np.zeros(4)
        shift[k] = h
        fd = (f.eval(pts + shift) - f.eval(pts - shift)) / (2 * h)
        assert np.all(np.abs(fd - grads[:, k]) <= 1e-6 * (1.0 + np.abs(grads[:, k])))


@given(st.floats(-2, 2), st.floats(-2, 2))
@settings(max_examples=50, deadline=None)
def test_eval_linearity(alpha, beta):
    rng = sampling.rng(5, 1)
    f = random_poly(rng, 2, 3, 1.0)
    g = random_poly(rng, 2, 3, 1.0)
    pts = sampling.sample_box([(-0.5, 0.5)] * 2, 10, 5, 2)
    lhs = (f * alpha + g * beta).eval(pts)
    rhs = alpha * f.eval(pts) + beta * g.eval(pts)
    assert np.allclose(lhs, rhs, rtol=0, atol=1e-12 * (1 + abs(alpha) + abs(beta)))


def test_product_rule():
    rng = sampling.rng(6, 1)
    f = random_poly(rng, 3, 2, 1.0)
    g = random_poly(rng, 3, 2, 1.0)
    # 3 is odd, widen to a valid chart dimension for the sampler only
    pts = sampling.rng(6, 2).uniform(-0.5, 0.5, size=(50, 3))
    fv, fg = f.jet(pts)
    gv, gg = g.jet(pts)
    pv, pg = (f * g).jet(pts)
    assert np.allclose(pv, fv * gv, atol=1e-12)
    assert np.allclose(pg, fv[:, None] * gg + gv[:, None] * fg, atol=1e-12)


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                          st.floats(-2, 2, allow_nan=False)), max_size=12))
@settings(max_examples=60, deadline=None)
def test_normalization_dedupes_exponents(terms):
    f = PolyExpr(2, [[a, b] for a, b, _ in terms], [c for _, _, c in terms])
    seen = set()
    for e, c in f.terms():
        key = tuple(e)
        assert key not in seen
        seen.add(key)
        assert c != 0.0


def test_field_arith_identities():
    rng = sampling.rng(7, 1)
    f = random_poly_field(rng, 2, (0, 2), 2, 1.0)
    g = random_poly_field(rng, 2, (0, 2), 2, 1.0)
    zero = PolyTensorField.zeros(2, (0, 2))
    pts = sampling.sample_box([(-0.5, 0.5)] * 2, 20, 7, 2)
    assert np.allclose((f + zero).values(pts), f.values(pts), atol=0)
    assert np.abs((f - f).values(pts)).max() == 0.0
    assert np.allclose(
        (f + g).values(pts), f.values(pts) + g.values(pts), atol=1e-14
    )
    assert np.allclose(f.scale(2.5).values(pts), 2.5 * f.values(pts), atol=0)


def test_field_arith_shape_error():
    f = PolyTensorField.zeros(2, (0, 2))
    g = PolyTensorField.zeros(2, (1, 1))
    with pytest.raises(QsgError, match=r"valence/dimension mismatch: \(0, 2\)@2 vs \(1, 1\)@2"):
        f + g
    with pytest.raises(QsgError, match=r"valence/dimension mismatch: \(0, 2\)@2 vs \(0, 2\)@4"):
        f - PolyTensorField.zeros(4, (0, 2))


@pytest.mark.parametrize("spec, operands", [
    ("ij,jk,kl->il", "fff"),  # three fields: chain binary products
    ("ij,jk,kl->il", "ffc"),  # two fields and a constant
    ("ij,jk->ik", "cc"),  # no field
    ("ii,ij->j", "ff"),  # repeated index within a term
    ("ij,jk->i", "ff"),  # k summed within one factor
    ("ij,jk->ijk", "ff"),  # a shared index kept in the output
])
def test_poly_einsum_rejects_what_it_does_not_multiply(spec, operands):
    f = PolyTensorField.constant(2, (1, 1), np.eye(2))
    args = [f if kind == "f" else np.eye(2) for kind in operands]
    rank = len(spec.split("->")[1])
    with pytest.raises(QsgError, match="fields|contraction"):
        poly_einsum(spec, *args, valence=(1, rank - 1))


def test_non_finite_coefficient_rejected():
    with pytest.raises(QsgError, match="non-finite polynomial coefficient"):
        PolyExpr(2, [[1, 0]], [float("nan")])


def test_chart_domain_invariants():
    with pytest.raises(QsgError, match="chart dimension must be even and >= 2, got 3"):
        ChartDomain(3, ((-1, 1),) * 3)  # odd dimension
    with pytest.raises(QsgError, match=r"degenerate chart interval \(1, 1\)"):
        ChartDomain(2, ((-1, 1), (1, 1)))  # empty interval


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([2, 4]),
       st.sampled_from([(1, 0), (1, 1), (0, 2), (1, 2)]), st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_dense_jets_match_per_component_reference(seed, d, valence, degree):
    rng = np.random.default_rng(seed)
    field = random_poly_field(rng, d, valence, degree, 1.0)
    pts = rng.uniform(-0.5, 0.5, size=(9, d))
    vals, grads = field.jets(pts)
    polys = comps(field)
    for idx in np.ndindex(field.shape):
        ref_v, ref_g = polys[idx].jet(pts)
        scale = 1.0 + max(np.abs(ref_v).max(), np.abs(ref_g).max())
        assert np.abs(vals[(slice(None),) + idx] - ref_v).max() <= 1e-14 * scale
        assert np.abs(grads[(slice(None),) + idx] - ref_g).max() <= 1e-14 * scale


def test_dense_layout_is_read_only_and_round_trips():
    rng = sampling.rng(8, 1)
    polys = np.empty((2, 2), dtype=object)
    for idx in np.ndindex(2, 2):
        polys[idx] = random_poly(rng, 2, 2, 1.0)
    f = from_comps(2, (1, 1), polys)
    back = comps(f)
    assert all(back[idx].terms() == polys[idx].terms() for idx in np.ndindex(2, 2))
    with pytest.raises(ValueError):
        back[0, 0] = PolyExpr(2)
    with pytest.raises(ValueError):
        f.coefs[0, 0, 0] = 1.0
    with pytest.raises(AttributeError):
        f.coefs = np.zeros_like(f.coefs)


def test_non_finite_field_coefficient_rejected():
    exps = np.zeros((1, 2), dtype=np.int64)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(QsgError, match="non-finite polynomial coefficient"):
            PolyTensorField(2, (1, 0), exps=exps, coefs=[[bad, 0.0]])


def test_canonical_order_for_rows_too_wide_to_pack():
    # the last axis is the most significant one, also when the exponent
    # rows are ranked instead of packed into one integer key
    big = 2 ** 40
    f = PolyExpr(2, [[0, big], [big, 0], [1, 1], [0, 1], [1, 1]], [1.0, 2.0, 3.0, 4.0, 1.0])
    assert f.terms() == [([big, 0], 2.0), ([0, 1], 4.0), ([1, 1], 4.0), ([0, big], 1.0)]


def _exact_monomials(exps, pts):
    """``prod_k pts[n, k] ** exps[r, k]`` in exact rational arithmetic."""
    return [[prod(Fraction(float(x)) ** int(e) for x, e in zip(row, er)) for er in exps]
            for row in pts]


def _test_exponents(d, rng):
    """Rows of total degree up to ``MAX_DEGREE``: the constant, every pure
    power ``x_k^MAX_DEGREE`` and random mixed rows; axis 1 is unused, so
    its exponent column is all zeros."""
    used = [k for k in range(d) if k != 1]
    rows = [np.zeros(d, dtype=np.int64)]
    rows += [MAX_DEGREE * np.eye(d, dtype=np.int64)[k] for k in used]
    for t in rng.integers(0, MAX_DEGREE + 1, size=40):
        row = np.zeros(d, dtype=np.int64)
        row[used] = rng.multinomial(t, np.full(len(used), 1.0 / len(used)))
        rows.append(row)
    return np.array(rows)


@pytest.mark.parametrize("d", [2, 4, 8])
def test_basis_values_within_the_rounding_bound(d):
    exps = _test_exponents(d, sampling.rng(11, d))
    assert not exps[:, 1].any() and exps.sum(axis=1).max() == MAX_DEGREE
    # Halton points in the box: a relative (total degree + d) 2^-53 of the
    # exact product
    pts = sampling.sample_box(ChartDomain.cube(d).box, 16, 11, d)
    vals = _basis_values(exps, pts)
    assert vals.shape == (16, exps.shape[0])
    for n, row in enumerate(_exact_monomials(exps, pts)):
        for r, exact in enumerate(row):
            bound = Fraction(int(exps[r].sum()) + d, 2 ** 53) * abs(exact)
            assert abs(Fraction(vals[n, r]) - exact) <= bound, (n, exps[r])
    # dyadic points whose powers and products are representable: exact
    grid = np.arange(-4, 5) / 8.0
    dyadic = grid[sampling.rng(12, d).integers(0, grid.size, size=(16, d))]
    vals = _basis_values(exps, dyadic)
    assert [[Fraction(v) for v in row] for row in vals] == _exact_monomials(exps, dyadic)
    # no basis rows: no columns
    assert _basis_values(np.zeros((0, d), dtype=np.int64), pts).shape == (16, 0)


def _arrays(out):
    return out if isinstance(out, tuple) else (out,)


@pytest.mark.parametrize("method", ["jets", "values"])
@pytest.mark.parametrize("valence", [(1, 1), (0, 2), (1, 2)])
def test_memo_at_frozen_points(valence, method):
    field = random_poly_field(sampling.rng(9, 1), 4, valence, 2, 1.0)
    frozen = sampling.sample_box([(-0.5, 0.5)] * 4, 25, 9, 2)
    frozen.flags.writeable = False
    call = getattr(field, method)
    first = _arrays(call(frozen))
    # a frozen array (read-only, owning its data) gets the same arrays back
    assert all(a is b for a, b in zip(first, _arrays(call(frozen))))
    assert not any(a.flags.writeable for a in first)
    for a in first:
        with pytest.raises(ValueError):
            a[...] = 0.0
    # bit for bit what an evaluation at a writeable copy gives
    writeable = frozen.copy(order="K")
    fresh = _arrays(call(writeable))
    assert all(a.tobytes() == b.tobytes() and a.shape == b.shape for a, b in zip(first, fresh))
    # writeable arrays, and read-only views of them, bypass the memo
    view = writeable[:]
    view.flags.writeable = False
    for pts in (writeable, view):
        one, two = _arrays(call(pts)), _arrays(call(pts))
        for a, b in zip(one, two):
            assert a.flags.writeable and b.flags.writeable
            assert not np.shares_memory(a, b) and not np.shares_memory(a, first[0])
    # only the last frozen array is kept
    other = sampling.sample_box([(-0.5, 0.5)] * 4, 25, 9, 3)
    other.flags.writeable = False
    call(other)
    again = _arrays(call(frozen))
    assert all(a is not b and a.tobytes() == b.tobytes() for a, b in zip(first, again))
