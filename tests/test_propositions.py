"""Suite plumbing: registry completeness, determinism, filtering, smoke."""

import sys
from pathlib import Path

import numpy as np
import pytest

from qsg import sampling
from qsg.connections import KLEIN_PAIRS
from qsg.errors import QsgError
from qsg.fields import ChartDomain
from qsg.generate import CONSTRAINTS
from qsg.model import ChartModel, ModelAt
from qsg import propositions
from qsg.propositions import (
    ALL_IDS,
    FAMILIES,
    HERMITIAN,
    NEGATIVE_IDS,
    NORDEN,
    SECTION2_IDS,
    SECTION3_IDS,
    SECTION4_IDS,
    TOLERANCES,
    SectionContext,
    _fold_identity,
    _identity_entry,
    _witness_entry,
    run_full_suite,
    verify_negative_controls,
    verify_section2,
    verify_section3,
    verify_section4,
)

SMOKE = dict(seed=0, trials=3, dims=(2,))


@pytest.fixture(scope="module")
def smoke_report():
    return run_full_suite(**SMOKE)


def test_registry_is_complete_and_static():
    # ids are pinned; every section list is disjoint and together they form
    # the full registry
    assert len(set(ALL_IDS)) == len(ALL_IDS)
    assert set(ALL_IDS) == set(SECTION2_IDS) | set(SECTION3_IDS) | set(SECTION4_IDS) | set(NEGATIVE_IDS)
    assert len(SECTION2_IDS) == 9
    assert len(SECTION3_IDS) == 28
    assert len(SECTION4_IDS) == 23
    assert len(NEGATIVE_IDS) == 4


def test_smoke_covers_every_registry_id(smoke_report):
    seen = {e["id"] for e in smoke_report["entries"]}
    assert seen == set(ALL_IDS)
    # each id appears exactly once per dimension
    per_dim = [(e["id"], e["dim"]) for e in smoke_report["entries"]]
    assert len(per_dim) == len(set(per_dim)) == len(ALL_IDS)


def test_smoke_passes(smoke_report):
    bad = [e for e in smoke_report["entries"] if not e["pass"]]
    assert not bad, [(e["id"], e["status"], e["max_residual"]) for e in bad]


def test_section_runners_report_every_id():
    ctx = SectionContext(seed=1, dim=2, trials=2)

    def families(runner):
        return [f for f in FAMILIES if f.section == runner.__name__]
    ids2 = {e["id"] for e in verify_section2(ctx, families(verify_section2))}
    assert ids2 == set(SECTION2_IDS)
    ids3 = {e["id"] for e in verify_section3(ctx, families(verify_section3))}
    assert ids3 == set(SECTION3_IDS)
    ids4 = {e["id"] for e in verify_section4(ctx, families(verify_section4))}
    assert ids4 == set(SECTION4_IDS)
    idsn = {e["id"] for e in verify_negative_controls(ctx, families(verify_negative_controls))}
    assert idsn == set(NEGATIVE_IDS)


def test_identity_entries_report_the_trial_count(smoke_report):
    # sec2.compat_equiv collects two residuals per trial; the entry still
    # counts trials, not residuals
    identities = [e for e in smoke_report["entries"] if e["direction"] == "identity"]
    assert identities
    assert {e["id"]: e["trials"] for e in identities} == {e["id"]: 3 for e in identities}


def test_determinism_identical_reports(smoke_report):
    again = run_full_suite(**SMOKE)
    assert again == smoke_report


def test_only_filter_prefix():
    rep = run_full_suite(seed=0, trials=2, dims=(2,), only=("GAD1",))
    ids = sorted({e["id"] for e in rep["entries"]})
    assert ids == ["GAD1.i", "GAD1.ii", "GAD1.iii"]


def test_only_filter_exact():
    rep = run_full_suite(seed=0, trials=2, dims=(2,), only=("lem2", "teo5"))
    assert sorted({e["id"] for e in rep["entries"]}) == ["lem2", "teo5"]


def test_only_filter_unknown_id():
    with pytest.raises(QsgError) as err:
        run_full_suite(seed=0, trials=2, dims=(2,), only=("nonsense",))
    assert "GAD1.i" in str(err.value)  # the message lists valid ids


def test_unsupported_dimension():
    with pytest.raises(QsgError):
        run_full_suite(seed=0, trials=2, dims=(3,))


def test_negative_control_not_applicable_in_two_dims(smoke_report):
    entry = next(e for e in smoke_report["entries"] if e["id"] == "neg.pro2")
    assert entry["status"] == "not-applicable"
    assert entry["pass"]


def test_negative_control_not_applicable_at_degree_0():
    # constant trial structures are integrable, so no hypothesis breaks that
    report = run_full_suite(seed=0, trials=3, dims=(4,), degree=0, only=("neg.pro2",))
    (entry,) = report["entries"]
    assert entry["status"] == "not-applicable" and "degree 0" in entry["notes"]
    assert report["pass"]


def test_entries_sorted_in_report(smoke_report):
    keys = [(e["id"], e["dim"]) for e in smoke_report["entries"]]
    assert keys == sorted(keys)
    assert smoke_report["pass"] is True


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("position", [0, 1, 2])
def test_non_finite_identity_residual_fails(bad, position):
    residuals = [1e-12, 2e-12, 3e-12]
    residuals[position] = bad
    entry = _identity_entry("x", 2, 3, residuals, 1e-8)
    assert entry["status"] == "fail" and "pass" not in entry
    assert not np.isfinite(entry["max_residual"])


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("slot", [0, 1])
def test_non_finite_witness_residual_fails(bad, slot):
    results = [(1e-12, 1e-12), (1e-12, 1e-12)]
    pair = list(results[1])
    pair[slot] = bad
    results[1] = tuple(pair)
    entry = _witness_entry("x", 2, results, 1e-6)
    assert entry["status"] == "fail" and "pass" not in entry
    # a hypothesis residual that is NaN on every trial is a failure too,
    # never a witness-unavailable skip
    entry = _witness_entry("x", 2, [(bad, 1e-12)] * 3, 1e-6)
    assert entry["status"] == "fail"


def test_klein_entry_keeps_a_nan_at_any_of_the_nine_positions(monkeypatch):
    # the entry reduces the table's nine residuals; a NaN fails it wherever
    # it sits, where ``max`` would skip it unless it came first
    for position in range(len(KLEIN_PAIRS)):
        table = dict.fromkeys(KLEIN_PAIRS, 1e-12)
        table[list(KLEIN_PAIRS)[position]] = float("nan")
        monkeypatch.setattr(propositions, "klein_table", lambda at: dict(table))
        (entry,) = run_full_suite(seed=0, trials=1, dims=(2,), only=("teo1.klein",))["entries"]
        assert np.isnan(entry["max_residual"]) and entry["status"] == "fail", position


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_folded_identity_fails(bad):
    entry = _witness_entry("x", 2, [(1e-12, 1e-12)], 1e-6)
    assert entry["status"] == "pass"
    _fold_identity(entry, [1e-12, bad], 1e-8)
    assert entry["status"] == "fail"
    assert not np.isfinite(entry["max_residual"])


def test_trial_metrics_nondegenerate_at_trial_points():
    # this seed's Hermitian trial 2 metric used to pass the generator's own
    # probe points yet reach |det| = 8e-7 at a suite point, which aborted
    # the whole verify run with a degeneracy error
    ctx = SectionContext(seed=687637279, dim=4, trials=12)
    for td in (ctx.trial(HERMITIAN, 2), ctx.trial(NORDEN, 2)):
        dets = np.linalg.det(td.model.metric.values(td.pts))
        assert np.abs(dets).min() >= 1e-3


def test_trial_data_memo_is_read_only_and_shared_with_conn_copies():
    ctx = SectionContext(seed=0, dim=2, trials=1)
    td = ctx.trial(HERMITIAN, 0)
    wd = td.with_conn(td.conn(("star",)))
    # connection-independent arrays are computed once per trial
    assert wd.jv is td.jv and wd.pv is td.pv and wd.nijenhuis is td.nijenhuis
    assert wd.torsion() is not td.torsion()
    for arr in (td.jv, td.pv, td.torsion(), wd.covd_J(), wd.covd_metric(("jconj",), "partner")):
        with pytest.raises(ValueError):
            arr[...] = 0.0
    # the partner form is built on first use, so a structure-only model fits
    j_only = ModelAt(ChartModel(domain=ChartDomain.cube(2), J=td.model.J), td.pts)
    assert np.abs(j_only.nijenhuis).max() <= 1e-12


def test_kernels_run_once_per_connection_and_points(monkeypatch):
    # every torsion and covariant derivative the pro3 and pro4 families
    # read comes from one evaluation per (connection, field, points): the
    # d^D J and d^D b formulas take ModelAt's memoized arrays
    from qsg import calculus, model, predicates, structures

    calls = []
    for name in ("torsion_values", "covd_values"):
        def counted(*args, _f=getattr(calculus, name), _n=name):
            calls.append((_n, args))  # keeps the arguments alive, so ids stay unique
            return _f(*args)
        for module in (calculus, model, structures, predicates):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    run_full_suite(seed=0, trials=1, dims=(4,), only=("pro3", "pro4"))
    keys = [(n, *map(id, args)) for n, args in calls]
    assert {k[0] for k in keys} == {"torsion_values", "covd_values"}
    assert len(keys) == len(set(keys))


SELECT = dict(seed=0, trials=2, dims=(2, 4))


@pytest.fixture(scope="module")
def select_report():
    return {(e["id"], e["dim"]): e for e in run_full_suite(**SELECT)["entries"]}


def test_frozen_point_memo_changes_no_result(select_report, monkeypatch):
    # writeable copies of the trial points switch the fields' memo off; a
    # consumer that wrote into a shared array would make the runs differ
    frozen = SectionContext.points
    monkeypatch.setattr(SectionContext, "points",
                        lambda self, trial: frozen(self, trial).copy(order="K"))
    assert SectionContext(seed=0, dim=2, trials=1).points(0).flags.writeable
    rep = run_full_suite(**SELECT)
    assert {(e["id"], e["dim"]): e for e in rep["entries"]} == select_report


@pytest.mark.parametrize("family", FAMILIES, ids=[f.ids[0] for f in FAMILIES])
def test_only_runs_a_family_alone_with_full_run_results(family, select_report):
    # a family run on its own reports exactly what the full run does
    prop_id = family.ids[0]
    rep = run_full_suite(**SELECT, only=(prop_id,))
    got = {(e["id"], e["dim"]): e for e in rep["entries"]}
    want = {k: v for k, v in select_report.items()
            if k[0] == prop_id or k[0].startswith(prop_id + ".")}
    assert got and got == want


def test_only_runs_only_the_selected_families(monkeypatch):
    calls = []
    real = propositions.synthesize_connection

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(propositions, "synthesize_connection", counting)
    rep = run_full_suite(seed=0, trials=2, dims=(2,), only=("GAD1",))
    assert {e["id"] for e in rep["entries"]} == {"GAD1.i", "GAD1.ii", "GAD1.iii"}
    assert calls == []
    run_full_suite(seed=0, trials=2, dims=(2,), only=("pro3.i",))
    assert len(calls) == 4  # one Codazzi witness per witness trial


def test_witness_rows_replay(monkeypatch):
    # a witness is a function of its row: rebuilt from the row alone in a
    # fresh context, trial 0's witness has the hypothesis residual the suite
    # read, and its named hypotheses hold on fresh points wherever the
    # suite's witness met them (the fits were scored only on their own)
    seen = []
    real = propositions._witness

    def recording(ctx, row, t, built):
        hyp, wd = real(ctx, row, t, built)
        seen.append((row, t, hyp))
        return hyp, wd

    monkeypatch.setattr(propositions, "_witness", recording)
    run_full_suite(seed=0, trials=2, dims=(4,))
    monkeypatch.undo()
    tol = TOLERANCES["hypothesis"]
    pts = sampling.sample_box(ChartDomain.cube(4).box, 25, 0, sampling.tag("witness_replay"))
    met, named = 0, 0
    for row, t, hyp in seen:
        if t != 0:
            continue
        again, wd = propositions._witness(SectionContext(seed=0, dim=4, trials=2), row, 0, {})
        assert again == hyp, row
        if hyp <= tol:
            met += 1
            at = ModelAt(wd.model, pts)
            for name in (h for h in row.hyp if isinstance(h, str)):
                named += 1
                assert np.abs(CONSTRAINTS[name].residual(at)).max() <= tol, (row, name)
    # every witness row of the suite, the lem3 contrapositive's aside
    assert (met, named) == (16, 26)


def test_benchmark_tracer_sees_every_section():
    # perfbench/tracing.py wraps the section runners by rebinding module
    # attributes; the suite must call them through those attributes
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import tracing
    finally:
        sys.path.pop(0)
    tr = tracing.Tracer()
    restore = tracing.install(tr)
    try:
        tr.active = True
        run_full_suite(seed=0, trials=2, dims=(2,))
    finally:
        tr.active = False
        restore()
    # the layer spans too: a call routed around a wrapped name reads 0
    for name in ("propositions.section2", "propositions.section3",
                 "propositions.section4", "propositions.negative",
                 "calculus.covd", "calculus.torsion", "calculus.levi_civita",
                 "connections.conjugate", "structures.ops", "predicates.check",
                 "generate.models", "generate.synthesize", "generate.lstsq"):
        assert tr.calls[name] > 0, name
