"""Predicate sweeps: flat fixtures, residual values, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsg.calculus import PolyConnection
from qsg.errors import ConfigError, PreconditionError
from qsg.generate import GenSpec, gen_almost_complex
from qsg.model import ChartModel, flat_hermitian_model, flat_norden_model
from qsg.predicates import PREDICATES, check, check_many


def test_flat_hermitian_kahler_zero():
    rep = check(flat_hermitian_model(2), "kahler")
    assert rep.passed and rep.max_residual == 0.0
    rep4 = check(flat_hermitian_model(4), "kahler")
    assert rep4.passed and rep4.max_residual == 0.0


def test_flat_norden_anti_kahler_zero():
    rep = check(flat_norden_model(2), "anti_kahler")
    assert rep.passed and rep.max_residual == 0.0
    assert check(flat_norden_model(4), "quasi_kahler_norden").max_residual == 0.0


def test_single_symbol_breaks_quasi_statistical():
    model = flat_hermitian_model(2)
    gam = np.zeros((2, 2, 2))
    gam[1, 0, 1] = 1.0  # one unit symbol entry
    model.conn = PolyConnection.constant(gam)
    rep = check(model, "quasi_statistical")
    assert not rep.passed
    assert rep.max_residual == pytest.approx(1.0)


def test_flat_passes_everything_applicable():
    model = flat_hermitian_model(2)
    for name in ("almost_complex", "hermitian", "quasi_statistical", "statistical",
                 "codazzi_J", "torsion_compatible", "integrable", "d_closed_J",
                 "kahler", "complex_connection"):
        rep = check(model, name)
        assert rep.passed, name


def test_two_dimensional_integrability_canary():
    for seed in range(10):
        J = gen_almost_complex(GenSpec(seed=seed, dimension=2, degree=2))
        model = ChartModel(domain=flat_hermitian_model(2).domain, J=J)
        assert check(model, "integrable").passed


@given(st.floats(min_value=1e-10, max_value=1e-2), st.floats(min_value=1.0, max_value=1e4))
@settings(max_examples=30, deadline=None)
def test_monotone_in_tolerance(tol, factor):
    model = flat_hermitian_model(2)
    gam = np.zeros((2, 2, 2))
    gam[1, 0, 1] = 1e-5
    model.conn = PolyConnection.constant(gam)
    small = check(model, "quasi_statistical", tol=tol)
    large = check(model, "quasi_statistical", tol=tol * factor)
    if small.passed:
        assert large.passed


def test_determinism_bit_for_bit():
    model = flat_hermitian_model(4)
    a = check(model, "kahler", seed=7).to_dict()
    b = check(model, "kahler", seed=7).to_dict()
    assert a == b


def test_missing_field_errors():
    model = ChartModel(domain=flat_hermitian_model(2).domain)
    with pytest.raises(ConfigError) as err:
        check(model, "quasi_statistical")
    assert "metric" in str(err.value)
    with pytest.raises(ConfigError) as err:
        check(ChartModel(domain=model.domain, metric=flat_hermitian_model(2).metric),
              "quasi_statistical")
    assert "Gamma" in str(err.value)


def test_flavor_mismatch_errors():
    model = flat_norden_model(2)
    with pytest.raises(PreconditionError):
        check(model, "kahler")
    with pytest.raises(PreconditionError):
        check(flat_hermitian_model(2), "anti_kahler")


def test_unknown_predicate():
    with pytest.raises(ConfigError):
        check(flat_hermitian_model(2), "nope")
    with pytest.raises(ConfigError, match="nope"):
        check_many(flat_hermitian_model(2), ["kahler", "integrable", "nope"])


def test_kahler_decomposes_into_integrability_and_closedness():
    from qsg.generate import GenSpec, gen_kahler_model

    for seed in range(3):
        model = gen_kahler_model(GenSpec(seed=seed, dimension=4, degree=2))
        full = check(model, "kahler")
        part = check(model, "integrable")
        assert full.passed
        assert part.passed
        assert part.max_residual <= full.max_residual + 1e-15


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


def test_shared_kernel_table_names_every_read(monkeypatch):
    # the table only sizes the memo, so a stale entry would fail no value test
    from qsg import predicates

    hermitian = _hermitian_4d()
    norden = ChartModel(domain=hermitian.domain, metric=flat_norden_model(4).metric,
                        J=hermitian.J, conn=hermitian.conn)
    reads = []
    shared = predicates._Sweep._shared
    monkeypatch.setattr(predicates._Sweep, "_shared",
                        lambda self, key, compute: reads.append(key) or shared(self, key, compute))
    for name in PREDICATES:
        reads.clear()
        model = norden if name in ("anti_kahler", "quasi_kahler_norden") else hermitian
        check_many(model, [name], samples=8)
        assert reads == list(predicates._READS.get(name, ())), name


def test_shared_kernels_run_once_per_call(monkeypatch):
    from qsg import predicates

    model = _hermitian_4d()
    names = ["almost_complex", "quasi_statistical", "statistical", "codazzi_J",
             "torsion_compatible", "integrable", "d_closed_J", "complex_connection",
             "hermitian", "kahler"]
    alone = [check(model, n, seed=5, samples=30).to_dict() for n in names]
    calls, sweeps = [], []
    for fn in ("covd_values", "torsion_values", "nijenhuis"):
        original = getattr(predicates, fn)
        monkeypatch.setattr(predicates, fn, lambda *a, _f=original, _n=fn: calls.append(
            (_n, a[1] is model.J.field if _n == "covd_values" else None)) or _f(*a))
    sweep_cls = predicates._Sweep
    monkeypatch.setattr(predicates, "_Sweep", lambda *a: sweeps.append(sweep_cls(*a)) or sweeps[-1])
    together = [r.to_dict() for r in check_many(model, names, seed=5, samples=30)]
    assert together == alone
    # covd of the metric (statistical) is not shared; the J one is read three times
    assert sorted(calls) == [("covd_values", False), ("covd_values", True),
                             ("nijenhuis", None), ("torsion_values", None)]
    assert sweeps[0]._kept == {}  # each kernel dropped after its last reader


def test_readers_of_a_kernel_run_together_and_errors_keep_the_given_order():
    from qsg.predicates import _run_order

    names = ["almost_complex", "statistical", "codazzi_J", "torsion_compatible", "integrable",
             "d_closed_J", "complex_connection", "hermitian", "kahler"]
    assert [names[i] for i in _run_order(names)] == [
        "almost_complex", "statistical", "torsion_compatible", "codazzi_J", "d_closed_J",
        "complex_connection", "integrable", "kahler", "hermitian"]
    # kahler is swept right after integrable, before codazzi_J, yet the
    # error raised is that of the first failing name as given
    model = flat_norden_model(2)
    model.conn = None
    with pytest.raises(ConfigError, match="Gamma"):
        check_many(model, ["integrable", "codazzi_J", "kahler"])
    with pytest.raises(PreconditionError, match="kahler"):
        check_many(model, ["integrable", "kahler", "codazzi_J"])
