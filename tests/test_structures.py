"""Structure tensors and coupling operators against direct evaluation."""

import numpy as np
import pytest

from oracle import comps, from_comps, j_apply, lie_derivative_J_on_fields, nijenhuis_on_fields
from qsg import sampling
from qsg.calculus import (
    LeviCivitaConnection,
    PolyConnection,
    covd_values,
    symmetry_defect,
    torsion_values,
)
from qsg.connections import JConjugateConnection
from qsg.errors import QsgError
from qsg.fields import PolyExpr, PolyTensorField, poly_einsum
from qsg.generate import (
    T_C,
    GenSpec,
    _symmetrize_12,
    gen_almost_complex,
    gen_connection,
    gen_constant_structure_model,
    gen_hermitian_metric,
    gen_kahler_model,
    gen_norden_metric,
    random_poly_field,
)
from qsg.model_io import canonical_doc, load_model, write_model
from qsg.model import flat_norden_model, standard_structure, neutral_diagonal
from qsg.structures import (
    AlmostComplexStructure,
    MetricField,
    _bt,
    _jfirst,
    _jout,
    _slot3,
    _tb,
    codazzi_defect,
    cyclic_sum_03,
    d_nabla_J_values,
    d_nabla_metric_values,
    fundamental_two_form,
    ident_res,
    j_invariance_defect,
    nijenhuis,
    purity_values,
    quasi_kahler_norden_sum_values,
    tachibana_values,
    torsion_compat,
    twin_metric,
    vishnevskii_frame_values,
    vishnevskii_jframe_values,
    vishnevskii_on_fields,
)


def pts(dim, seed=0, n=25):
    return sampling.sample_box([(-0.5, 0.5)] * dim, n, seed, 300)


def d_J(conn, J, p):
    """d^D J at ``p`` from the arrays it is a formula on."""
    return d_nabla_J_values(covd_values(conn, J, p), J.values(p), torsion_values(conn, p))


def d_b(conn, b, p):
    """d^D b at ``p`` from the arrays it is a formula on."""
    return d_nabla_metric_values(covd_values(conn, b, p), b.values(p),
                                 torsion_values(conn, p))


def test_metric_and_structure_are_the_fields(tmp_path):
    # loaded and generated alike: the instance is the field, with no field
    # inside it to reach through
    path = tmp_path / "model.json"
    write_model(canonical_doc(gen_kahler_model(GenSpec(seed=2, dimension=4, degree=1))), path)
    loaded, _ = load_model(str(path))
    spec = GenSpec(seed=4, dimension=4, degree=2)
    J = gen_almost_complex(spec)
    const = gen_constant_structure_model(spec, "norden")
    for obj, cls in ((loaded.metric, MetricField), (loaded.J, AlmostComplexStructure),
                     (J, AlmostComplexStructure), (gen_hermitian_metric(spec, J), MetricField),
                     (gen_norden_metric(spec, J), MetricField), (const.metric, MetricField),
                     (const.J, AlmostComplexStructure)):
        assert isinstance(obj, cls) and isinstance(obj, PolyTensorField)
        assert not hasattr(obj, "field")
    assert loaded.metric.flavor == "hermitian" and const.metric.flavor == "norden"
    with pytest.raises(QsgError, match=r"metric must be a \(0,2\) field"):
        MetricField(J, "hermitian")
    with pytest.raises(QsgError, match=r"almost complex structure must be a \(1,1\) field"):
        AlmostComplexStructure(loaded.metric)
    with pytest.raises(QsgError, match="unknown metric flavor 'lorentz'"):
        MetricField(loaded.metric, "lorentz")


def test_field_constructors_called_on_a_subclass_build_plain_fields():
    for cls in (MetricField, AlmostComplexStructure):
        for field in (cls.zeros(2, (0, 2)), cls.constant(2, (0, 2), np.eye(2))):
            assert type(field) is PolyTensorField and field.valence == (0, 2)


def test_two_form_flat_example():
    g = MetricField(PolyTensorField.constant(2, (0, 2), np.eye(2)), "hermitian")
    J = AlmostComplexStructure(PolyTensorField.constant(2, (1, 1), standard_structure(2)))
    w = fundamental_two_form(g, J)
    assert np.allclose(w.values(pts(2))[0], [[0.0, 1.0], [-1.0, 0.0]], atol=0)


def test_two_form_antisymmetry_and_compatibility():
    for seed in range(10):
        spec = GenSpec(seed=seed, dimension=4, degree=2)
        J = gen_almost_complex(spec)
        g = gen_hermitian_metric(spec, J)
        p = pts(4, seed)
        w = fundamental_two_form(g, J)
        wv = w.values(p)
        assert np.abs(wv + np.swapaxes(wv, 1, 2)).max() <= 1e-10
        jv = J.values(p)
        twisted = np.einsum("nki,nkj->nij", jv, wv) + np.einsum("nkj,nik->nij", jv, wv)
        assert np.abs(twisted).max() <= 1e-9


def test_twin_metric_flat_example():
    h = MetricField(PolyTensorField.constant(2, (0, 2), neutral_diagonal(2)), "norden")
    J = AlmostComplexStructure(PolyTensorField.constant(2, (1, 1), standard_structure(2)))
    tw = twin_metric(h, J)
    v = tw.values(pts(2))[0]
    assert np.allclose(v, v.T, atol=0)
    assert np.allclose(v, [[0.0, -1.0], [-1.0, 0.0]], atol=0)


def test_twin_metric_symmetry_and_purity():
    for seed in range(10):
        spec = GenSpec(seed=seed, dimension=4, degree=2)
        J = gen_almost_complex(spec)
        h = gen_norden_metric(spec, J)
        p = pts(4, seed)
        tw = twin_metric(h, J)
        tv = tw.values(p)
        assert np.abs(tv - np.swapaxes(tv, 1, 2)).max() <= 1e-10
        assert np.abs(purity_values(MetricField(tw, "norden"), J, p, -1.0)).max() <= 1e-9


def test_nijenhuis_constant_structure():
    J = AlmostComplexStructure(PolyTensorField.constant(4, (1, 1), standard_structure(4)))
    assert np.abs(nijenhuis(J).values(pts(4))).max() == 0.0


def test_nijenhuis_two_dimensional_integrability():
    for seed in range(10):
        J = gen_almost_complex(GenSpec(seed=seed, dimension=2, degree=2))
        assert np.abs(nijenhuis(J).values(pts(2, seed))).max() <= 1e-9


def test_nijenhuis_tensoriality():
    spec = GenSpec(seed=2, dimension=4, degree=2)
    J = gen_almost_complex(spec)
    rng = sampling.rng(2, 30)
    X = random_poly_field(rng, 4, (1, 0), 2, 1.0)
    Y = random_poly_field(rng, 4, (1, 0), 2, 1.0)
    f = random_poly_field(rng, 4, (0, 0), 2, 1.0)
    p = pts(4, 2)
    lhs = nijenhuis_on_fields(J, poly_einsum(",k->k", f, X, valence=(1, 0)), Y).values(p)
    rhs = f.values(p)[:, None] * nijenhuis_on_fields(J, X, Y).values(p)
    assert np.abs(lhs - rhs).max() / (1 + np.abs(lhs).max()) <= 1e-9
    # frame assembly agrees with the bracket form
    frame_array = nijenhuis(J).values(p)
    xv, yv = X.values(p), Y.values(p)
    contracted = np.einsum("nkij,ni,nj->nk", frame_array, xv, yv)
    direct = nijenhuis_on_fields(J, X, Y).values(p)
    assert np.abs(contracted - direct).max() / (1 + np.abs(direct).max()) <= 1e-9


def test_d_nabla_J_examples():
    J = AlmostComplexStructure(PolyTensorField.constant(2, (1, 1), standard_structure(2)))
    assert np.abs(d_J(PolyConnection.zero(2), J, pts(2))).max() == 0.0
    # equals the structure applied to the conjugate torsion
    for seed in range(10):
        spec = GenSpec(seed=seed, dimension=4, degree=2)
        Jr = gen_almost_complex(spec)
        conn = PolyConnection(random_poly_field(sampling.rng(seed, 31), 4, (1, 2), 2, 1.0))
        p = pts(4, seed)
        lhs = d_J(conn, Jr, p)
        jv = Jr.values(p)
        rhs = np.einsum("nkm,nmij->nkij", jv, torsion_values(JConjugateConnection(conn, Jr), p))
        assert np.abs(lhs - rhs).max() / (1 + np.abs(lhs).max()) <= 1e-9
        assert np.abs(lhs + np.swapaxes(lhs, 2, 3)).max() <= 1e-12


def test_d_nabla_metric_examples():
    spec = GenSpec(seed=3, dimension=2, degree=2)
    J = gen_almost_complex(spec)
    g = gen_hermitian_metric(spec, J)
    p = pts(2, 3)
    lc = LeviCivitaConnection(g)
    assert np.abs(d_b(lc, g, p)).max() <= 1e-9
    conn = PolyConnection(random_poly_field(sampling.rng(3, 32), 2, (1, 2), 2, 1.0))
    d = d_b(conn, g, p)
    assert np.abs(d + np.swapaxes(d, 1, 2)).max() <= 1e-10


def test_statistical_pair_symmetrizes():
    # metric conjugate of a torsion-free connection is quasi-statistical
    spec = GenSpec(seed=4, dimension=2, degree=2)
    J = gen_almost_complex(GenSpec(seed=4, dimension=2, degree=2))
    g = gen_hermitian_metric(GenSpec(seed=4, dimension=2, degree=2), J)
    conn = gen_connection(spec, "quasi_statistical_g", metric=g)
    assert np.abs(d_b(conn, g, pts(2, 4))).max() <= 1e-9


def test_tachibana_flat_cases():
    model = flat_norden_model(4)
    p = pts(4)
    assert np.abs(tachibana_values(model.J, model.metric, p)).max() == 0.0


def test_tachibana_via_lie_brackets():
    """Frame assembly against the bracket-based operator definition."""
    spec = GenSpec(seed=5, dimension=2, degree=2)
    J = gen_almost_complex(spec)
    h = gen_norden_metric(spec, J)
    p = pts(2, 5)
    phi = tachibana_values(J, h, p)
    d = 2
    hv = h.values(p)
    # independent route for (a, b, c) = (0, 1, 0) using explicit fields
    e = [PolyTensorField.constant(d, (1, 0), np.eye(d)[i]) for i in range(d)]
    a, b, c = 0, 1, 0
    Ja = j_apply(J, e[a])
    # (J x_a) h(x_b, x_c): directional derivative of a polynomial scalar
    hc, jc = comps(h), comps(J)
    _, grad = hc[b, c].jet(p)
    term1 = np.einsum("nk,nk->n", Ja.values(p), grad)
    hJb_c = sum((jc[m, b] * hc[m, c] for m in range(d)), PolyExpr(d))
    _, grad2 = hJb_c.jet(p)
    term2 = grad2[:, a]
    lb = lie_derivative_J_on_fields(J, e[b], e[a])
    term3 = np.einsum("nm,nmc,c->n", lb.values(p), hv, np.eye(d)[c])
    lc_ = lie_derivative_J_on_fields(J, e[c], e[a])
    term4 = np.einsum("nb,nbm,nm->n", np.tile(np.eye(d)[b], (len(p), 1)), hv, lc_.values(p))
    direct = term1 - term2 + term3 + term4
    assert np.abs(phi[:, a, b, c] - direct).max() <= 1e-12


def test_quasi_kahler_norden_sum_matches_cyclic_tachibana():
    for seed in range(5):
        spec = GenSpec(seed=seed, dimension=4, degree=2)
        J = gen_almost_complex(spec)
        h = gen_norden_metric(spec, J)
        p = pts(4, seed)
        lc = LeviCivitaConnection(h)
        s_def = quasi_kahler_norden_sum_values(covd_values(lc, J, p), h.values(p))
        s_phi = cyclic_sum_03(tachibana_values(J, h, p))
        assert np.abs(s_def - s_phi).max() / (1 + np.abs(s_def).max()) <= 1e-9


def test_vishnevskii_flat_frames():
    J = AlmostComplexStructure(PolyTensorField.constant(2, (1, 1), standard_structure(2)))
    conn = PolyConnection.zero(2)
    assert np.abs(vishnevskii_frame_values(conn, J, pts(2))).max() == 0.0


def test_vishnevskii_operator_non_tensorial_defect():
    """The operator picks up (J X)(f) Y - X(f) J Y on scaled arguments, so
    frame vanishing never extends to scaled fields; the defect is exact."""
    J = AlmostComplexStructure(PolyTensorField.constant(2, (1, 1), standard_structure(2)))
    conn = PolyConnection.zero(2)
    d = 2
    p = pts(2)
    X = PolyTensorField.constant(d, (1, 0), np.eye(d)[0])
    f = PolyExpr(d, [[1, 0]], [1.0])
    Y = from_comps(d, (1, 0), np.array([f, PolyExpr(d)], dtype=object))
    got = vishnevskii_on_fields(conn, J, X, Y, p)
    jv = J.values(p)
    jx = np.einsum("nkj,j->nk", jv, np.eye(d)[0])
    defect = jx[:, 0][:, None] * np.eye(d)[0] - 1.0 * jv[:, :, 0]
    assert np.abs(got - defect).max() <= 1e-14


@pytest.mark.parametrize("dim", [2, 4])
def test_vishnevskii_jframe_is_operator_on_twisted_frames(dim):
    # Psi(x_i, J x_j) from the frame array must equal the operator on the
    # explicit field J x_j; with a nonconstant J this needs the dJ terms
    spec = GenSpec(seed=5, dimension=dim, degree=2)
    J = gen_almost_complex(spec)
    assert J.degree() > 0
    conn = PolyConnection(random_poly_field(sampling.rng(5, 1), dim, (1, 2), 2, 1.0))
    p = pts(dim, 5)
    got = vishnevskii_jframe_values(conn, J, p)
    for i in range(dim):
        x = PolyTensorField.constant(dim, (1, 0), np.eye(dim)[i])
        for j in range(dim):
            jx = j_apply(J, PolyTensorField.constant(dim, (1, 0), np.eye(dim)[j]))
            want = vishnevskii_on_fields(conn, J, x, jx, p)
            assert np.abs(got[:, :, i, j] - want).max() <= 1e-12


def test_nijenhuis_from_torsion_when_closed():
    # with a closed structure the obstruction reduces to twisted torsion
    for seed in range(8):
        spec = GenSpec(seed=seed, dimension=4, degree=2)
        J = gen_almost_complex(spec)
        raw = random_poly_field(sampling.rng(seed + 50, T_C, 4), 4, (1, 2), 2, 1.0)
        d0 = PolyConnection(_symmetrize_12(raw))
        w = JConjugateConnection(d0, J)
        p = pts(4, seed)
        jv = J.values(p)
        assert np.abs(d_J(w, J, p)).max() <= 1e-9
        tw = torsion_values(w, p)
        mix = (np.einsum("nkia,naj->nkij", tw, jv)
               + np.einsum("nkaj,nai->nkij", tw, jv))
        lhs = nijenhuis(J).values(p)
        rhs = -np.einsum("nkm,nmij->nkij", jv, mix)
        assert np.abs(lhs - rhs).max() / (1 + np.abs(lhs).max()) <= 1e-8


def test_closedness_from_coupled_torsion_free():
    # a torsion-free connection Codazzi-coupled to the structure closes it
    from qsg.generate import gen_constant_structure_model, synthesize_connection

    model = gen_constant_structure_model(GenSpec(seed=12, dimension=4, degree=2), "hermitian")
    conn, sr = synthesize_connection(model, ["codazzi_J", "torsion_free"], ansatz_degree=1,
                                     seed=12, anchor_scale=0.3)
    assert sr["residual"] <= 1e-9
    assert np.abs(d_J(conn, model.J, pts(4, 12))).max() <= 1e-9


def test_torsion_compatibility_equivalence():
    # the two compatibility forms hold or fail together
    for seed in range(8):
        spec = GenSpec(seed=seed, dimension=4, degree=2)
        J = gen_almost_complex(spec)
        p = pts(4, seed)
        jv = J.values(p)
        proj = gen_connection(
            GenSpec(seed=seed, dimension=4, degree=2), "j_invariant_torsion", J=J)
        tp = torsion_values(proj, p)
        f1 = np.einsum("nkaj,nai->nkij", tp, jv) + np.einsum("nkia,naj->nkij", tp, jv)
        f2 = np.einsum("nkab,nai,nbj->nkij", tp, jv, jv) - tp
        assert np.abs(f1).max() <= 1e-9
        assert np.abs(f2).max() <= 1e-9
        raw = PolyConnection(random_poly_field(sampling.rng(seed, 33), 4, (1, 2), 2, 1.0))
        tr = torsion_values(raw, p)
        g1 = np.einsum("nkaj,nai->nkij", tr, jv) + np.einsum("nkia,naj->nkij", tr, jv)
        g2 = np.einsum("nkab,nai,nbj->nkij", tr, jv, jv) - tr
        assert (np.abs(g1).max() > 1e-3) == (np.abs(g2).max() > 1e-3)


# The contraction helpers and the defect operators, exactly: small integer
# arrays (n = 2 points, d = 4) against explicit index loops, compared with
# ``==``.  Every product and sum of such entries is an exact float.
N, D = 2, 4
R = range(D)


def ints(*shape, seed=0):
    return sampling.rng(seed, 77).integers(-3, 4, size=shape).astype(float)


def loops(shape, entry):
    """The array of ``shape`` (points first) whose entries are ``entry(n, *idx)``."""
    out = np.zeros(shape)
    for idx in np.ndindex(*shape):
        out[idx] = entry(*idx)
    return out


def test_jout_is_j_on_the_upper_slot():
    jv, a = ints(N, D, D), ints(N, D, D, D, seed=1)
    want = loops(a.shape, lambda n, k, i, j: sum(jv[n, k, m] * a[n, m, i, j] for m in R))
    assert np.array_equal(_jout(jv, a), want)


def test_jfirst_is_j_in_the_first_lower_slot():
    a, jv = ints(N, D, D, D), ints(N, D, D, seed=1)
    want = loops(a.shape, lambda n, k, i, j: sum(a[n, k, m, j] * jv[n, m, i] for m in R))
    assert np.array_equal(_jfirst(a, jv), want)


def test_tb_lowers_the_torsion_into_the_first_slot_of_b():
    t, bv = ints(N, D, D, D), ints(N, D, D, seed=1)
    want = loops(t.shape, lambda n, i, j, k: sum(t[n, m, i, j] * bv[n, m, k] for m in R))
    assert np.array_equal(_tb(t, bv), want)


def test_bt_lowers_the_torsion_into_the_second_slot_of_b():
    bv, t = ints(N, D, D), ints(N, D, D, D, seed=1)
    want = loops(t.shape, lambda n, a, b, c: sum(bv[n, b, m] * t[n, m, a, c] for m in R))
    assert np.array_equal(_bt(bv, t), want)


def test_slot3_is_j_in_the_third_slot():
    a, jv = ints(N, D, D, D), ints(N, D, D, seed=1)
    want = loops(a.shape, lambda n, i, j, k: sum(a[n, i, j, m] * jv[n, m, k] for m in R))
    assert np.array_equal(_slot3(a, jv), want)


def test_torsion_compat_and_j_invariance_defect():
    a, jv = ints(N, D, D, D), ints(N, D, D, seed=1)
    compat = loops(a.shape, lambda n, k, i, j: sum(a[n, k, m, j] * jv[n, m, i]
                                                   + a[n, k, i, m] * jv[n, m, j] for m in R))
    invariance = loops(a.shape, lambda n, k, i, j: sum(
        a[n, k, p, q] * jv[n, p, i] * jv[n, q, j] for p in R for q in R) - a[n, k, i, j])
    assert np.array_equal(torsion_compat(a, jv), compat)
    assert np.array_equal(j_invariance_defect(a, jv), invariance)


def test_codazzi_defect_swaps_the_lower_slots():
    dl = ints(N, D, D, D)
    want = loops(dl.shape, lambda n, k, i, j: dl[n, k, i, j] - dl[n, k, j, i])
    assert np.array_equal(codazzi_defect(dl), want)


@pytest.mark.parametrize("kind", ["symmetric", "antisymmetric", "generic"])
def test_symmetry_defect(kind):
    b = ints(N, D, D)
    b = {"symmetric": b + np.swapaxes(b, 1, 2), "antisymmetric": b - np.swapaxes(b, 1, 2),
         "generic": b}[kind]
    for sign in (1.0, -1.0):
        want = max(abs(b[n, i, j] - sign * b[n, j, i]) for n in range(N) for i in R for j in R)
        assert symmetry_defect(b, sign) == want
    assert (symmetry_defect(b, 1.0) == 0.0) == (kind == "symmetric")
    assert (symmetry_defect(b, -1.0) == 0.0) == (kind == "antisymmetric")


def test_ident_res_scales_by_the_left_side():
    # the two sides' largest entries differ, so a denominator read off the
    # right side shows
    lhs, rhs = ints(N, D, D), 2.0 * ints(N, D, D, seed=1)
    assert np.abs(lhs).max() != np.abs(rhs).max()
    worst_lhs = max(abs(x) for x in lhs.flat)
    worst_diff = max(abs(x - y) for x, y in zip(lhs.flat, rhs.flat))
    assert ident_res(lhs, rhs) == worst_diff / (1.0 + worst_lhs)
    assert ident_res(lhs, lhs) == 0.0
