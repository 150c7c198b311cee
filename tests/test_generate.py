"""Generators and the constraint synthesizer: construction invariants,
recipes, determinism, feasibility certificates."""

import numpy as np
import pytest

from qsg import generate, sampling
from qsg.calculus import ConstantConnection, PolyConnection, torsion_values
from qsg.connections import JConjugateConnection
from qsg.errors import QsgError
from qsg.fields import ChartDomain, PolyTensorField
from qsg.generate import (
    T_S,
    GenSpec,
    _compressed_rows,
    _congruent_form,
    _kronecker_solve,
    _lstsq,
    _probe_jacobian,
    _solve,
    CONSTRAINTS,
    gen_almost_complex,
    gen_connection,
    gen_constant_structure_model,
    gen_hermitian_metric,
    gen_kahler_model,
    gen_norden_metric,
    gen_vishnevskii_zero_connection,
    monomial_exponents,
    random_poly_field,
    synthesize_connection,
    torsion_project_poly,
    valid_constraints,
)
from qsg.model import ChartModel, ModelAt, flat_hermitian_model, neutral_diagonal
from qsg.model_io import canonical_doc, parse_model
from qsg.predicates import PREDICATES, check_many
from qsg.structures import (
    MetricField,
    nijenhuis,
    purity_values,
    twin_metric,
)


def pts(dim, seed=0, n=25):
    return sampling.sample_box([(-0.5, 0.5)] * dim, n, seed, 400)


def involution_residual(J, seed):
    """max |J J + id| over the ``almost_complex`` predicate's sweep."""
    model = ChartModel(domain=ChartDomain.cube(J.dimension), J=J)
    return check_many(model, ["almost_complex"], seed=seed)[0]["max_residual"]


@pytest.mark.parametrize("dim", [2, 4])
def test_structure_involution_sweep(dim):
    for seed in range(25):
        J = gen_almost_complex(GenSpec(seed=seed, dimension=dim, degree=2))
        assert involution_residual(J, seed) <= 1e-10


def test_integrable_structure_sweep():
    for seed in range(10):
        J = gen_almost_complex(GenSpec(seed=seed, dimension=4, degree=2), integrable=True)
        p = pts(4, seed)
        assert involution_residual(J, seed) <= 1e-10
        assert np.abs(nijenhuis(J).values(p)).max() <= 1e-9


def test_generic_four_dimensional_structures_obstructed():
    hits = 0
    for seed in range(10):
        J = gen_almost_complex(GenSpec(seed=seed, dimension=4, degree=2))
        if np.abs(nijenhuis(J).values(pts(4, seed))).max() >= 1e-3:
            hits += 1
    assert hits >= 9


@pytest.mark.parametrize("dim", [2, 4])
def test_hermitian_metric_sweep(dim):
    for seed in range(25):
        spec = GenSpec(seed=seed, dimension=dim, degree=2)
        J = gen_almost_complex(spec)
        g = gen_hermitian_metric(spec, J)
        p = pts(dim, seed)
        assert np.abs(purity_values(g, J, p, 1.0)).max() <= 1e-10
        assert np.abs(np.linalg.det(g.values(p))).min() >= 1e-3
        # invariance form of purity
        jv, gv = J.values(p), g.values(p)
        pulled = np.einsum("nki,nlj,nkl->nij", jv, jv, gv)
        assert np.abs(pulled - gv).max() <= 1e-10


@pytest.mark.parametrize("dim", [2, 4])
def test_norden_metric_sweep(dim):
    for seed in range(25):
        spec = GenSpec(seed=seed, dimension=dim, degree=2)
        J = gen_almost_complex(spec)
        h = gen_norden_metric(spec, J)
        p = pts(dim, seed)
        assert np.abs(purity_values(h, J, p, -1.0)).max() <= 1e-10
        assert np.abs(np.linalg.det(h.values(p))).min() >= 1e-3
        tw = twin_metric(h, J)
        tv = tw.values(p)
        assert np.abs(tv - np.swapaxes(tv, 1, 2)).max() <= 1e-10
        # neutral signature at a handful of points
        signs = np.sign(np.linalg.eigvalsh(h.values(p[:5])))
        assert np.all(signs.sum(axis=1) == 0)


def test_d_closed_recipe_and_conjugate_torsion():
    for seed in range(10):
        spec = GenSpec(seed=seed, dimension=4, degree=2)
        J = gen_almost_complex(spec)
        conn = gen_connection(
            GenSpec(seed=seed, dimension=4, degree=2), "d_closed_J", J=J)
        p = pts(4, seed)
        model = ChartModel(domain=ChartDomain.cube(4), J=J, conn=conn)
        assert np.abs(ModelAt(model, p).d_J()).max() <= 1e-9
        # equivalent formulation: the conjugate connection is torsion-free
        assert np.abs(torsion_values(JConjugateConnection(conn, J), p)).max() <= 1e-9


def test_j_invariant_torsion_recipe():
    for seed in range(10):
        spec = GenSpec(seed=seed, dimension=4, degree=2)
        J = gen_almost_complex(spec)
        conn = gen_connection(
            GenSpec(seed=seed, dimension=4, degree=2), "j_invariant_torsion", J=J)
        p = pts(4, seed)
        t = torsion_values(conn, p)
        jv = J.values(p)
        compat = np.einsum("nkaj,nai->nkij", t, jv) + np.einsum("nkia,naj->nkij", t, jv)
        assert np.abs(compat).max() <= 1e-9


def test_torsion_projector_idempotent():
    spec = GenSpec(seed=2, dimension=4, degree=2)
    J = gen_almost_complex(spec)
    raw = random_poly_field(sampling.rng(2, 40), 4, (1, 2), 2, 1.0)
    once = torsion_project_poly(raw, J)
    twice = torsion_project_poly(once, J)
    p = pts(4, 2)
    assert np.abs(once.values(p) - twice.values(p)).max() <= 1e-12


def test_quasi_statistical_recipes():
    spec = GenSpec(seed=3, dimension=4, degree=2)
    J = gen_almost_complex(spec)
    g = gen_hermitian_metric(spec, J)
    conn = gen_connection(
        GenSpec(seed=3, dimension=4, degree=2), "quasi_statistical_g", metric=g)
    model = ChartModel(domain=ChartDomain.cube(4), metric=g, conn=conn)
    assert np.abs(ModelAt(model, pts(4, 3)).d_metric()).max() <= 1e-9




def test_kahler_model_properties():
    from qsg.calculus import exterior_d2_values

    for seed in range(5):
        km = gen_kahler_model(GenSpec(seed=seed, dimension=4, degree=2))
        p = pts(4, seed)
        assert np.abs(nijenhuis(km.J).values(p)).max() <= 1e-10
        w = km.partner
        assert np.abs(exterior_d2_values(w, p)).max() <= 1e-10


def test_vishnevskii_zero_closed_form():
    from qsg.structures import vishnevskii_frame_values, vishnevskii_jframe_values

    cm = gen_constant_structure_model(GenSpec(seed=5, dimension=4, degree=2), "hermitian")
    conn = gen_vishnevskii_zero_connection(GenSpec(seed=5, dimension=4, degree=2), cm.J)
    p = pts(4, 5)
    assert np.abs(vishnevskii_frame_values(conn, cm.J, p)).max() <= 1e-12
    assert np.abs(vishnevskii_jframe_values(conn, cm.J, p)).max() <= 1e-12
    # nonconstant structures admit no such symbols
    J = gen_almost_complex(GenSpec(seed=5, dimension=4, degree=2))
    with pytest.raises(QsgError, match="exist only for constant structures"):
        gen_vishnevskii_zero_connection(GenSpec(seed=5, dimension=4, degree=2), J)


def test_synthesize_flat_parallel_structure():
    flat = flat_hermitian_model(2)
    conn, sr = synthesize_connection(flat, ["complex_connection", "torsion_free"],
                                     ansatz_degree=1, seed=0)
    assert sr["residual"] <= 1e-12
    assert set(sr["constraint_residuals"]) == {"complex_connection", "torsion_free"}


def test_synthesize_quasi_statistical_feasible():
    # the conjugate-of-torsion-free recipe certifies feasibility; polynomial
    # sections of the solution set exist wherever the system coefficients
    # are constant, so the fit must recover one there
    model = gen_constant_structure_model(GenSpec(seed=6, dimension=2, degree=2), "hermitian")
    conn, sr = synthesize_connection(model, ["quasi_statistical_g"], ansatz_degree=1, seed=0,
                                     anchor_scale=0.3)
    assert sr["residual"] <= 1e-10
    tors = np.abs(torsion_values(conn, pts(2, 6))).max()
    assert tors > 1e-3  # witnesses are torsion-bearing, not just metric ones


def test_synthesize_deterministic():
    flat = flat_hermitian_model(2)
    conn_a, a = synthesize_connection(flat, ["complex_connection"], ansatz_degree=1, seed=3,
                                      anchor_scale=0.3)
    conn_b, b = synthesize_connection(flat, ["complex_connection"], ansatz_degree=1, seed=3,
                                      anchor_scale=0.3)
    p = pts(2)
    assert np.array_equal(conn_a.gammas(p), conn_b.gammas(p))
    assert a == b


def test_synthesize_infeasible_set_reports_large_residual():
    # operator-vanishing symbols cannot exist for a nonconstant structure
    spec = GenSpec(seed=7, dimension=2, degree=2)
    J = gen_almost_complex(spec)
    model = ChartModel(domain=flat_hermitian_model(2).domain, J=J)
    conn, sr = synthesize_connection(model, ["vishnevskii_zero"], ansatz_degree=2, seed=0)
    assert sr["residual"] > 1e-3


def test_monomial_basis_canonical():
    exps = monomial_exponents(2, 2)
    assert exps.tolist() == sorted(exps.tolist())
    assert len(exps) == 6


def test_monomial_basis_is_the_brute_force_list():
    from itertools import product

    for d in range(5):
        for degree in range(5):
            brute = sorted(e for e in product(range(degree + 1), repeat=d) if sum(e) <= degree)
            exps = monomial_exponents(d, degree)
            assert exps.dtype == np.int64
            assert exps.tolist() == [list(e) for e in brute], (d, degree)


def test_monomial_basis_forms_only_kept_rows():
    # C(24, 8) rows; walking every (16 + 1)^8 tuple would take hours
    exps = monomial_exponents(8, 16)
    assert exps.shape == (735471, 8)
    assert exps.sum(axis=1).max() == 16
    # strictly increasing in lexicographic order: the first column in which
    # two consecutive rows differ grows
    step = exps[1:] - exps[:-1]
    assert np.all(step[np.arange(len(step)), np.argmax(step != 0, axis=1)] > 0)


def _box_points(d, seed, n=3000):
    """Sample points of the unit chart box plus its 2^d corners."""
    corners = np.array(list(np.ndindex(*(2,) * d)), dtype=float) - 0.5
    return np.vstack([sampling.sample_box(ChartDomain.cube(d).box, n, seed, 401, d), corners])


def _generated_pairs(d, seed):
    spec = GenSpec(seed=seed, dimension=d, degree=2)
    J = gen_almost_complex(spec)
    yield "hermitian", gen_hermitian_metric(spec, J), J
    yield "norden", gen_norden_metric(spec, J), J
    km = gen_kahler_model(spec)
    yield "hermitian", km.metric, km.J
    for flavor in ("hermitian", "norden"):
        cm = gen_constant_structure_model(spec, flavor)
        yield flavor, cm.metric, cm.J


@pytest.mark.parametrize("d", [2, 4, 6])
def test_metric_certificate_holds_on_the_whole_box(d):
    # every generated compatible metric is pure, positive definite
    # (Hermitian) or of signature (n, n) (Norden), and has
    # |det| >= (3/4)^d det(C^{-1})^2 at every point of the chart box
    for seed in range(3):
        p = _box_points(d, seed)
        for flavor, metric, J in _generated_pairs(d, seed):
            gv = metric.values(p)
            sign = 1.0 if flavor == "hermitian" else -1.0
            assert np.abs(purity_values(metric, J, p, sign)).max() <= 1e-12 * np.abs(gv).max()
            eig = np.linalg.eigvalsh(gv)
            if flavor == "hermitian":
                assert eig.min() > 0.0, (seed, flavor)
            else:
                assert np.all((eig > 0).sum(axis=1) == d // 2), (seed, flavor)
                assert np.all((eig < 0).sum(axis=1) == d // 2), (seed, flavor)
            floor = 0.75 ** d * np.linalg.det(J.frame_inv.values(p)) ** 2
            assert np.all(np.abs(np.linalg.det(gv)) >= floor * (1 - 1e-9)), (seed, flavor)


def test_box_norm_bounds_the_form_and_scales_the_perturbation():
    from qsg.generate import PERTURBATION_BOUND, _box_norm, _paired_form

    d, box = 4, ChartDomain.cube(4).box
    r = random_poly_field(sampling.rng(5, 41), d, (0, 2), 2, 0.3)
    p = _box_points(d, 5)
    bound = _box_norm(r, box)
    assert np.linalg.norm(r.values(p), ord=2, axis=(1, 2)).max() <= bound
    for flavor, base in (("hermitian", np.eye(d)), ("norden", neutral_diagonal(d))):
        pert = _paired_form(r, flavor, box) - PolyTensorField.constant(d, (0, 2), base)
        assert _box_norm(pert, box) <= PERTURBATION_BOUND * (1 + 1e-12)
    # with the identity frame the metric of a zero form is the base itself
    eye_frame = PolyTensorField.constant(2, (1, 1), np.eye(2))
    for flavor, base in (("hermitian", np.eye(2)), ("norden", neutral_diagonal(2))):
        form = _congruent_form(_paired_form(np.zeros((2, 2)), flavor, ChartDomain.cube(2).box),
                               eye_frame)
        assert np.array_equal(form.values(pts(2))[0], base)


def test_norden_base_form_path_with_constant_structure():
    # for a constant standard structure the averaged random part can cancel;
    # the alternating-diagonal base keeps the metric nondegenerate
    from qsg.fields import PolyTensorField
    from qsg.model import standard_structure
    from qsg.structures import AlmostComplexStructure

    J = AlmostComplexStructure(PolyTensorField.constant(2, (1, 1), standard_structure(2)),
                               frame_inv=PolyTensorField.constant(2, (1, 1), np.eye(2)))
    h = gen_norden_metric(GenSpec(seed=11, dimension=2, degree=2), J)
    p = pts(2, 11)
    assert np.abs(purity_values(h, J, p, -1.0)).max() <= 1e-10
    assert np.abs(np.linalg.det(h.values(p))).min() >= 1e-3


@pytest.mark.parametrize("gen", [gen_hermitian_metric, gen_norden_metric])
def test_metric_generators_need_the_structure_frame(gen):
    # a structure read from a model file has no frame; averaging over the
    # standard structure in its place gave metrics that are not pure for J
    spec = GenSpec(seed=0, dimension=4, degree=2)
    J = gen_almost_complex(spec)
    model = ChartModel(domain=ChartDomain.cube(4), metric=gen_hermitian_metric(spec, J), J=J)
    read = parse_model(canonical_doc(model)).J
    assert read.frame_inv is None
    with pytest.raises(QsgError, match="no frame"):
        gen(GenSpec(seed=1, dimension=4), read)


def test_synthesis_matches_recipe_quality():
    # wherever a closed-form recipe exists, the least-squares fit must do
    # at least as well (it minimizes the same violation)
    model = gen_constant_structure_model(GenSpec(seed=8, dimension=2, degree=2), "hermitian")
    p = pts(2, 8)
    recipe = gen_connection(GenSpec(seed=8, dimension=2, degree=2), "d_closed_J", J=model.J)
    recipe_res = np.abs(ModelAt(model, p, recipe).d_J()).max()
    conn, sr = synthesize_connection(model, ["d_closed_J"], ansatz_degree=2, seed=8)
    assert sr["residual"] <= recipe_res + 1e-12


# ---------------------------------------------------------------------------
# synthesis internals against their unbatched, uncompressed references


def _paired_model(flavor, dim, seed):
    spec = GenSpec(seed=seed, dimension=dim, degree=2)
    J = gen_almost_complex(spec)
    gen = gen_hermitian_metric if flavor == "hermitian" else gen_norden_metric
    return ChartModel(domain=ChartDomain.cube(dim), metric=gen(spec, J), J=J)


def _loop_jacobian(fn, p, d):
    """One evaluation per one-hot constant symbol direction."""
    base = fn(ConstantConnection(np.zeros((d, d, d))), p)
    cols = []
    for r in range(d ** 3):
        e = np.zeros(d ** 3)
        e[r] = 1.0
        cols.append(fn(ConstantConnection(e.reshape(d, d, d)), p) - base)
    return base, np.stack(cols, axis=-1)


def _dense_min_norm(a, b, mon, c0):
    """Minimum-norm correction to c0 for the raw n*m-row Kronecker system."""
    rows = np.einsum("nmr,nk->nmrk", a, mon).reshape(a.shape[0] * a.shape[1], -1)
    return c0 + np.linalg.pinv(rows, rcond=1e-10) @ (b.reshape(-1) - rows @ c0)


def _monomials(p, exps):
    return np.stack([np.prod(p ** e, axis=1) for e in exps], axis=1)


@pytest.mark.parametrize("flavor", ["hermitian", "norden"])
@pytest.mark.parametrize("dim", [2, 4])
def test_batched_probe_matches_one_hot_loop(flavor, dim):
    model = _paired_model(flavor, dim, seed=12)
    p = pts(dim, 12, n=6)
    names = valid_constraints(model)
    assert len(names) == 11  # every constraint the paired models support
    for name in names:
        fn = _stacked(model, [name])
        base, a = _probe_jacobian(fn, p)
        ref_base, ref_a = _loop_jacobian(fn, p, dim)
        scale = max(1.0, np.abs(ref_a).max(), np.abs(ref_base).max())
        assert np.abs(base - ref_base).max() <= 1e-12 * scale, name
        assert np.abs(a - ref_a).max() <= 1e-12 * scale, name


def _stacked(model, constraints):
    """The synthesizer's residual map: ``(conn, points)`` to the residuals of
    ``constraints``, flattened per point and stacked."""
    def residuals(conn, q):
        at = ModelAt(model, q, conn)
        return np.concatenate([CONSTRAINTS[c].residual(at).reshape(len(q), -1)
                               for c in constraints], axis=1)
    return residuals


def _relative_gap(x, ref):
    return np.abs(x - ref).max() / np.abs(ref).max()


@pytest.mark.parametrize("dim, constraints, anchor", [
    (2, ["torsion_free"], 0.3),  # every block rank-deficient, anchored
    (2, ["quasi_statistical_g", "d_closed_J"], 0.3),
    (2, ["codazzi_J", "torsion_free"], 0.0),
    # feasible at d = 4, with kept singular values down to about 0.09 s_max
    (4, ["conjugate_torsion_sum"], 0.3),
])
def test_synthesis_matches_dense_minimum_norm_solution(dim, constraints, anchor):
    if dim == 2:
        model = _paired_model("hermitian", dim, seed=13)
    else:
        model = gen_constant_structure_model(GenSpec(seed=13, dimension=dim, degree=2), "norden")
    conn, sr = synthesize_connection(model, constraints, ansatz_degree=1, seed=5,
                                     anchor_scale=anchor)
    # rebuild the raw system the synthesizer compresses
    exps = monomial_exponents(dim, 1)
    fit = sampling.sample_box(model.domain.box, sr["fit_points"], 5, T_S, 0)
    base, a = _loop_jacobian(_stacked(model, constraints), fit, dim)
    c0 = np.zeros(dim ** 3 * len(exps))
    if anchor:
        c0 = anchor * sampling.rng(5, T_S, 2).standard_normal(c0.size)
    ref = _dense_min_norm(a, -base, _monomials(fit, exps), c0)
    ref_conn = PolyConnection(PolyTensorField(
        dim, (1, 2), exps=exps, coefs=np.moveaxis(ref.reshape((dim,) * 3 + (-1,)), -1, 0)))
    p = pts(dim, 13)
    assert _relative_gap(conn.gammas(p), ref_conn.gammas(p)) <= 1e-9


def test_compressed_solve_with_zero_block():
    # a point whose block is zero contributes no rows; its right-hand side
    # is a constant offset of the objective
    model = _paired_model("hermitian", 2, seed=14)
    fn = _stacked(model, ["codazzi_J"])
    p = pts(2, 14, n=10)
    base, a = _probe_jacobian(fn, p)
    a[3] = 0.0
    mon = _monomials(p, monomial_exponents(2, 1))
    rows, rhs = _compressed_rows(a, -base, mon)
    assert rows.shape[0] == sum(np.linalg.matrix_rank(blk) for blk in a)
    assert _compressed_rows(np.zeros_like(a), -base, mon)[0].shape == (0, rows.shape[1])
    c0 = 0.3 * sampling.rng(14, 1).standard_normal(rows.shape[1])
    for anchor in (np.zeros_like(c0), c0):
        x = anchor + _lstsq(rows, rhs - rows @ anchor)[0]
        assert _relative_gap(x, _dense_min_norm(a, -base, mon, anchor)) <= 1e-9


@pytest.mark.parametrize("constant", [False, True], ids=["paired", "constant"])
def test_synthesis_diagnostics(constant):
    constraints = ["codazzi_J", "torsion_free"]
    if constant:
        model = gen_constant_structure_model(GenSpec(seed=15, dimension=2, degree=2), "norden")
    else:
        model = _paired_model("norden", 2, seed=15)
    conn, sr = synthesize_connection(model, constraints, ansatz_degree=1, seed=2)
    fit = sampling.sample_box(model.domain.box, sr["fit_points"], 2, T_S, 0)
    _, a = _loop_jacobian(_stacked(model, constraints), fit, 2)
    assert sr["rows"] == sum(np.linalg.matrix_rank(blk) for blk in a)
    assert sr["cols"] == 2 ** 3 * len(monomial_exponents(2, 1))
    assert 0 < sr["rank"] <= min(sr["rows"], sr["cols"])
    if constant:
        mon = _monomials(fit, monomial_exponents(2, 1))
        assert sr["rank"] == np.linalg.matrix_rank(a[0]) * np.linalg.matrix_rank(mon)


# ---------------------------------------------------------------------------
# the Kronecker solve for blocks shared by every point


def _constant_fit(flavor, dim, degree, constraints, seed=16):
    """Probed blocks, a random right-hand side (the probed one is zero on
    constant models) and the monomial matrix at 2k fit points."""
    model = gen_constant_structure_model(GenSpec(seed=seed, dimension=dim, degree=2), flavor)
    exps = monomial_exponents(dim, degree)
    p = sampling.sample_box(model.domain.box, 2 * len(exps), seed, T_S, 0)
    _, a = _probe_jacobian(_stacked(model, constraints), p)
    b = sampling.rng(seed, 1).standard_normal(a.shape[:2])
    return a, b, _monomials(p, exps)


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("flavor, constraints", [
    ("hermitian", ["quasi_statistical_g", "d_closed_J"]),
    ("norden", ["conjugate_torsion_sum", "torsion_free"]),
])
def test_kronecker_solve_matches_compressed_solve(flavor, constraints, dim, degree):
    a, b, mon = _constant_fit(flavor, dim, degree, constraints)
    assert np.all(a == a[:1])
    rows, rhs = _compressed_rows(a, b, mon)
    for anchor in (0.0, 0.3):
        c0 = anchor * sampling.rng(16, 2).standard_normal(rows.shape[1])
        delta, rank = _lstsq(rows, rhs - rows @ c0)
        x, n_rows, n_cols, kron_rank = _kronecker_solve(a[0], b, mon, c0)
        assert (n_rows, n_cols, kron_rank) == (rows.shape[0], rows.shape[1], rank)
        assert _relative_gap(x, c0 + delta) <= 1e-12


def test_blocks_one_ulp_apart_take_the_compressed_path(monkeypatch):
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(generate, "_lstsq", counted("lstsq", _lstsq))
    monkeypatch.setattr(generate, "_kronecker_solve", counted("kronecker", _kronecker_solve))
    a, b, mon = _constant_fit("hermitian", 2, 1, ["d_closed_J"])
    c0 = np.zeros(a.shape[2] * mon.shape[1])
    _solve(a, b, mon, c0)
    assert calls == ["kronecker"]
    a = a.copy()
    i = np.argmax(np.abs(a[3]))
    a[3].flat[i] = np.nextafter(a[3].flat[i], np.inf)
    _solve(a, b, mon, c0)
    assert calls == ["kronecker", "lstsq"]


def test_kronecker_solve_with_zero_blocks():
    a, b, mon = _constant_fit("norden", 2, 1, ["torsion_free"])
    c0 = 0.3 * sampling.rng(16, 2).standard_normal(a.shape[2] * mon.shape[1])
    x, rows, cols, rank = _solve(np.zeros_like(a), b, mon, c0)
    assert (rows, cols, rank) == (0, c0.size, 0)
    assert np.array_equal(x, c0)


def test_constraints_that_are_predicates_are_the_predicate_functions():
    # one formula each: a second copy could drift from the predicate
    shared = {"codazzi_J": "codazzi_J", "complex_connection": "complex_connection",
              "d_closed_J": "d_closed_J", "torsion_compatible": "torsion_compatible",
              "quasi_statistical_g": "quasi_statistical", "quasi_statistical_h": "quasi_statistical"}
    for constraint, predicate in shared.items():
        assert CONSTRAINTS[constraint].residual is PREDICATES[predicate], constraint
    assert set(CONSTRAINTS) & set(PREDICATES) <= set(shared)


def test_each_model_states_the_constraints_it_has_fields_for():
    flat = flat_hermitian_model(2)
    with_j = valid_constraints(flat)
    assert len(with_j) == 11 and "quasi_statistical_g" in with_j
    assert valid_constraints(ChartModel(domain=flat.domain)) == ["torsion_free"]
    assert valid_constraints(ChartModel(domain=flat.domain, metric=flat.metric)) == [
        "quasi_statistical_g", "torsion_free"]
    plain = ChartModel(domain=flat.domain, J=flat.J,
                       metric=MetricField(flat.metric, flavor="plain"))
    assert sorted(set(with_j) - set(valid_constraints(plain))) == [
        "conjugate_partner_parallel", "conjugate_torsion_sum", "quasi_statistical_partner"]
