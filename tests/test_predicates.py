"""Predicate sweeps: flat fixtures, residual values, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsg import predicates
from qsg.calculus import PolyConnection
from qsg.errors import QsgError
from qsg.fields import PolyTensorField
from qsg.generate import GenSpec, gen_almost_complex
from qsg.model import ChartModel, ModelAt, flat_hermitian_model, flat_norden_model
from qsg.predicates import PREDICATES, check, check_many


def test_flat_hermitian_kahler_zero():
    rep = check(flat_hermitian_model(2), "kahler")
    assert rep["pass"] and rep["max_residual"] == 0.0
    rep4 = check(flat_hermitian_model(4), "kahler")
    assert rep4["pass"] and rep4["max_residual"] == 0.0


def test_flat_norden_anti_kahler_zero():
    rep = check(flat_norden_model(2), "anti_kahler")
    assert rep["pass"] and rep["max_residual"] == 0.0
    assert check(flat_norden_model(4), "quasi_kahler_norden")["max_residual"] == 0.0


def test_single_symbol_breaks_quasi_statistical():
    model = flat_hermitian_model(2)
    gam = np.zeros((2, 2, 2))
    gam[1, 0, 1] = 1.0  # one unit symbol entry
    model.conn = PolyConnection(PolyTensorField.constant(2, (1, 2), gam))
    rep = check(model, "quasi_statistical")
    assert not rep["pass"]
    assert rep["max_residual"] == pytest.approx(1.0)


def test_flat_passes_everything_applicable():
    model = flat_hermitian_model(2)
    for name in ("almost_complex", "hermitian", "quasi_statistical", "statistical",
                 "codazzi_J", "torsion_compatible", "integrable", "d_closed_J",
                 "kahler", "complex_connection"):
        rep = check(model, name)
        assert rep["pass"], name


def test_two_dimensional_integrability_canary():
    for seed in range(10):
        J = gen_almost_complex(GenSpec(seed=seed, dimension=2, degree=2))
        model = ChartModel(domain=flat_hermitian_model(2).domain, J=J)
        assert check(model, "integrable")["pass"]


@given(st.floats(min_value=1e-10, max_value=1e-2), st.floats(min_value=1.0, max_value=1e4))
@settings(max_examples=30, deadline=None)
def test_monotone_in_tolerance(tol, factor):
    model = flat_hermitian_model(2)
    gam = np.zeros((2, 2, 2))
    gam[1, 0, 1] = 1e-5
    model.conn = PolyConnection(PolyTensorField.constant(2, (1, 2), gam))
    small = check(model, "quasi_statistical", tol=tol)
    large = check(model, "quasi_statistical", tol=tol * factor)
    if small["pass"]:
        assert large["pass"]


def test_determinism_bit_for_bit():
    model = flat_hermitian_model(4)
    a = check(model, "kahler", seed=7)
    b = check(model, "kahler", seed=7)
    assert a == b


def test_missing_field_errors():
    model = ChartModel(domain=flat_hermitian_model(2).domain)
    with pytest.raises(QsgError, match="missing required field 'metric'"):
        check(model, "quasi_statistical")
    with pytest.raises(QsgError, match="missing required field 'Gamma'"):
        check(ChartModel(domain=model.domain, metric=flat_hermitian_model(2).metric),
              "quasi_statistical")


def test_flavor_mismatch_errors():
    model = flat_norden_model(2)
    with pytest.raises(QsgError, match="kahler needs a hermitian-flavored metric"):
        check(model, "kahler")
    with pytest.raises(QsgError, match="anti_kahler needs a norden-flavored metric"):
        check(flat_hermitian_model(2), "anti_kahler")


def test_unknown_predicate():
    with pytest.raises(QsgError, match="unknown predicate 'nope'"):
        check(flat_hermitian_model(2), "nope")
    with pytest.raises(QsgError, match="nope"):
        check_many(flat_hermitian_model(2), ["kahler", "integrable", "nope"])


def test_kahler_decomposes_into_integrability_and_closedness():
    from qsg.generate import GenSpec, gen_kahler_model

    for seed in range(3):
        model = gen_kahler_model(GenSpec(seed=seed, dimension=4, degree=2))
        full = check(model, "kahler")
        part = check(model, "integrable")
        assert full["pass"]
        assert part["pass"]
        assert part["max_residual"] <= full["max_residual"] + 1e-15


def test_all_predicates_registered():
    assert set(PREDICATES) == {
        "almost_complex", "hermitian", "norden", "quasi_statistical", "statistical",
        "codazzi_J", "torsion_compatible", "integrable", "d_closed_J", "kahler",
        "anti_kahler", "quasi_kahler_norden", "complex_connection",
    }


def _hermitian_4d():
    from qsg.generate import gen_hermitian_metric, random_poly_field
    from qsg.sampling import rng

    spec = GenSpec(seed=3, dimension=4, degree=2)
    J = gen_almost_complex(spec)
    return ChartModel(domain=flat_hermitian_model(4).domain, metric=gen_hermitian_metric(spec, J),
                      J=J, conn=PolyConnection(random_poly_field(rng(3, 1), 4, (1, 2), 2, 1.0)))


def test_shared_kernels_run_once_per_call(monkeypatch):
    from qsg import model as model_module

    model = _hermitian_4d()
    names = ["almost_complex", "quasi_statistical", "statistical", "codazzi_J",
             "torsion_compatible", "integrable", "d_closed_J", "complex_connection",
             "hermitian", "kahler"]
    alone = [check(model, n, seed=5, samples=30) for n in names]
    calls = []
    for module, fn in ((model_module, "covd_values"), (predicates, "covd_values"),
                       (model_module, "torsion_values"), (model_module, "nijenhuis")):
        original = getattr(module, fn)
        monkeypatch.setattr(module, fn, lambda *a, _f=original, _n=fn: calls.append(
            (_n, a[1] is model.J if _n == "covd_values" else None)) or _f(*a))
    together = check_many(model, names, seed=5, samples=30)
    assert together == alone
    # the J derivative is read by three predicates and computed once; the
    # metric's (statistical, quasi_statistical) is computed and dropped by each
    assert sorted(calls) == [("covd_values", False), ("covd_values", False),
                             ("covd_values", True), ("nijenhuis", None),
                             ("torsion_values", None)]


def test_reports_do_not_depend_on_the_order_of_names():
    model = _hermitian_4d()
    names = list(PREDICATES)
    names.remove("anti_kahler")
    names.remove("quasi_kahler_norden")
    orders = [names, names[::-1], list(np.random.default_rng(4).permutation(names))]
    reports = [{r["name"]: r for r in check_many(model, order, seed=2, samples=20)}
               for order in orders]
    assert reports[0] == reports[1] == reports[2]


def test_errors_keep_the_given_order():
    # the error raised is that of the first failing name as given
    model = flat_norden_model(2)
    model.conn = None
    with pytest.raises(QsgError, match="Gamma"):
        check_many(model, ["integrable", "codazzi_J", "kahler"])
    with pytest.raises(QsgError, match="kahler"):
        check_many(model, ["integrable", "kahler", "codazzi_J"])


def test_evaluator_names_the_missing_field():
    bare = ModelAt(ChartModel(domain=flat_hermitian_model(2).domain), np.zeros((2, 2)))
    for read, field in ((lambda: bare.jv, "J"), (lambda: bare.nijenhuis, "J"),
                        (lambda: bare.bv, "metric"), (lambda: bare.pv, "metric"),
                        (bare.torsion, "Gamma"), (lambda: bare.d_J(("star",)), "J")):
        with pytest.raises(QsgError, match=f"missing required field '{field}'"):
            read()


def _report_by_abs_copy(values, pts, tol):
    """The worst point by the first arg-maximum of a copy of |values|."""
    flat = np.abs(values.reshape(values.shape[0], -1))
    worst_n, worst_flat = divmod(int(flat.argmax()), flat.shape[1])
    idx = [int(i) for i in np.unravel_index(worst_flat, values.shape[1:])]
    top = float(flat.max())
    return top, [float(x) for x in pts[worst_n]], idx, bool(top <= tol)


@pytest.mark.parametrize("case", ["random", "ties", "signed-ties", "nan", "nan-and-inf",
                                  "zeros", "transposed", "one-point"])
def test_report_finds_the_first_largest_magnitude(case):
    rng = np.random.default_rng(7)
    n = 1 if case == "one-point" else 6
    values = rng.standard_normal((n, 3, 3, 3))
    if case == "ties":
        values = np.round(values)  # many equal magnitudes
    elif case == "signed-ties":
        values[:] = 0.0
        values[4, 1, 2, 0], values[2, 0, 1, 1] = 5.0, -5.0
    elif case == "nan":
        values[3, 2, 1, 0] = values[4, 0, 0, 1] = np.nan
        values[0, 0, 0, 0] = np.inf
    elif case == "nan-and-inf":
        values[5, 2, 2, 2] = -np.inf
        values[2, 1, 1, 1] = np.nan
    elif case == "zeros":
        values[:] = -0.0
    elif case == "transposed":
        values = np.swapaxes(values, 1, 3)
    pts = rng.standard_normal((n, 4))
    rep = predicates._report("p", values, pts, 1e-8, n)
    got = (rep["max_residual"], rep["worst_point"], rep["worst_indices"], rep["pass"])
    want = _report_by_abs_copy(values, pts, 1e-8)
    if case.startswith("nan"):
        assert np.isnan(rep["max_residual"]) and not rep["pass"]
        got, want = got[1:], want[1:]
    assert got == want
