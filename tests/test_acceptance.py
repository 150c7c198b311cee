"""Acceptance gate: every shipped criterion at its stated tolerance.

The heavy fixture runs the command-line ``verify`` twice (trials 30,
dimensions 2 and 4, seed 0); individual criteria read the parsed report.
Each test prints one pass/fail line.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from oracle import random_poly
from qsg import sampling
from qsg.calculus import LeviCivitaConnection, torsion_values, covd_values, PolyConnection
from qsg.connections import klein_table
from qsg.fields import ChartDomain
from qsg.generate import (
    GenSpec,
    gen_almost_complex,
    gen_hermitian_metric,
    gen_norden_metric,
    random_poly_field,
)
from qsg.model import ChartModel, ModelAt

TRIALS = 30
DIMS = "2,4"
SEED = 0


def _report(ok: bool, label: str):
    print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'}: {label}")
    assert ok, label


@pytest.fixture(scope="module")
def verify_runs():
    runs = []
    for _ in range(2):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "qsg.cli", "verify", "--dims", DIMS,
             "--trials", str(TRIALS), "--seed", str(SEED)],
            capture_output=True,
        )
        elapsed = time.monotonic() - start
        assert proc.returncode == 0, proc.stderr.decode()[-2000:]
        runs.append((proc.stdout, elapsed))
    return runs


@pytest.fixture(scope="module")
def suite(verify_runs):
    doc = json.loads(verify_runs[0][0])
    entries = {}
    for e in doc["suite"]["entries"]:
        entries[(e["id"], e["dim"])] = e
    return entries


def _entry(suite, prop_id, dim):
    return suite[(prop_id, dim)]


def test_criterion_1_klein_suite(suite):
    ok = True
    for dim in (2, 4):
        for name in ("teo1.klein", "sec4.klein"):
            e = _entry(suite, name, dim)
            ok = ok and e["pass"] and e["max_residual"] <= 1e-8 and e["trials"] == TRIALS
    # runtime bound: a dedicated sweep over 30 random models per flavor
    start = time.monotonic()
    for seed in range(TRIALS):
        for flavor in ("hermitian", "norden"):
            spec = GenSpec(seed=seed, dimension=2, degree=2)
            J = gen_almost_complex(spec)
            metric = (gen_hermitian_metric if flavor == "hermitian" else gen_norden_metric)(
                spec, J)
            conn = PolyConnection(random_poly_field(sampling.rng(seed, 90), 2, (1, 2), 2, 1.0))
            pts = sampling.sample_box([(-0.5, 0.5)] * 2, 25, seed, 91)
            model = ChartModel(domain=ChartDomain.cube(2), metric=metric, J=J, conn=conn)
            ok = ok and np.max(list(klein_table(ModelAt(model, pts)).values())) <= 1e-8
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    _report(ok, f"four-group involution/composition identities <= 1e-8, "
                f"dedicated sweep in {elapsed:.1f}s (< 60s)")


def test_criterion_2_closedness_torsion_identity(suite):
    ok = all(
        _entry(suite, "GAD1.i", dim)["pass"]
        and _entry(suite, "GAD1.i", dim)["max_residual"] <= 1e-9
        and _entry(suite, "GAD1.i", dim)["trials"] == TRIALS
        for dim in (2, 4)
    )
    _report(ok, "structure-closedness vs conjugate-torsion identity <= 1e-9")


def test_criterion_3_shift_and_chain_identities(suite):
    ok = True
    for dim in (2, 4):
        ok = ok and _entry(suite, "pro4.i", dim)["max_residual"] <= 1e-8
        for k in ("i", "ii", "iii", "iv"):
            ok = ok and _entry(suite, f"pro5.{k}", dim)["max_residual"] <= 1e-8
            ok = ok and _entry(suite, f"pro5.{k}", dim)["pass"]
    _report(ok, "2-form/metric shift identity and all four chain identities <= 1e-8")


def test_criterion_4_three_form_convention_lock(suite):
    ok = all(
        _entry(suite, "lem2", dim)["pass"]
        and _entry(suite, "lem2", dim)["max_residual"] <= 1e-9
        and _entry(suite, "lem2", dim)["trials"] == TRIALS
        for dim in (2, 4)
    )
    _report(ok, "coordinate 3-form equals the connection expansion <= 1e-9")


def test_criterion_5_compatible_closure_end_to_end(suite):
    ok = True
    for dim in (2, 4):
        e = _entry(suite, "teo2", dim)
        ok = ok and e["status"] in ("pass", "inconclusive-witness")
        if e["status"] == "pass":
            ok = ok and e["max_residual"] <= 1e-6 and e["hyp_residual"] <= 1e-7
    _report(ok, "jointly closed compatible witnesses satisfy the closure predicate at 1e-6")


def test_criterion_6_anti_compatible_closure(suite):
    ok = True
    for dim in (2, 4):
        e = _entry(suite, "teo5", dim)
        ok = ok and e["pass"] and e["max_residual"] <= 1e-6 and e["hyp_residual"] <= 1e-7
    _report(ok, "holomorphicity operator equals the slot-permuted torsion sum at 1e-6")


def test_criterion_7_cyclic_sums_vanish_together(suite):
    ok = all(
        _entry(suite, "theolast", dim)["pass"]
        and _entry(suite, "theolast", dim)["trials"] == TRIALS
        for dim in (2, 4)
    )
    _report(ok, "cyclic holomorphicity sum and defining cyclic sum vanish together")


def test_criterion_8_negative_controls(suite):
    ok = True
    for dim in (2, 4):
        for name in ("neg.GAD1.i", "neg.cor4.i", "neg.cor7.ii"):
            ok = ok and _entry(suite, name, dim)["pass"]
    e = _entry(suite, "neg.pro2", 4)
    ok = ok and e["pass"] and e["trials"] == TRIALS
    ok = ok and _entry(suite, "neg.pro2", 2)["status"] == "not-applicable"
    _report(ok, "violated hypotheses produce conclusion residuals >= 1e-3 in >= 90% of trials")


# entries that report the same witness residuals as another entry, at
# both dims: pro3 items (iii) and (iv), and their Norden twins, reuse the
# statement connections of items (i) and (ii) until they get witnesses of
# their own
KNOWN_DUPLICATES = {frozenset(pair) for pair in (
    ("pro3.i", "pro3.iii"), ("pro3.ii", "pro3.iv"),
    ("antipro3.i", "antipro3.iii"), ("antipro3.ii", "antipro3.iv"))}


def test_entries_measure_their_own_statements(suite):
    # no two entries at one dim share both residuals unless listed above
    groups = {}
    for (prop_id, dim), e in suite.items():
        if e["direction"] != "negative-control":
            groups.setdefault((dim, e["max_residual"], e["hyp_residual"]), set()).add(prop_id)
    shared = {dim: {frozenset(ids) for (d, *_), ids in groups.items() if d == dim and len(ids) > 1}
              for dim in (2, 4)}
    _report(all(pairs == KNOWN_DUPLICATES for pairs in shared.values()),
            "entries sharing both residuals at dims 2 and 4 are the known duplicates: "
            + "; ".join(f"{dim}: {sorted(map(sorted, pairs))}" for dim, pairs in shared.items()))


# the statuses an entry can report (propositions._entry)
STATUSES = {"pass", "fail", "witness-unavailable", "inconclusive-witness", "not-applicable"}


def test_statuses_are_the_documented_vocabulary(verify_runs):
    doc = json.loads(verify_runs[0][0])["suite"]
    entries = doc["entries"]
    ok = all(e["status"] in STATUSES and e["pass"] == (e["status"] != "fail") for e in entries)
    ok = ok and doc["pass"] == all(e["pass"] for e in entries)
    _report(ok, f"every status is one of {sorted(STATUSES)}, and pass means not fail")


def test_criterion_9_determinism(verify_runs):
    (out1, _), (out2, _) = verify_runs
    ok = out1 == out2 and len(out1) > 0
    _report(ok, "two verify runs are byte-identical")


def test_criterion_10_kernel_oracles_and_runtime(verify_runs):
    rng = sampling.rng(99, 0)
    ok = True
    # exact partials against central differences
    h = 1e-5
    for d in (2, 4):
        f = random_poly(rng, d, 3, 1.0)
        pts = sampling.sample_box([(-0.5, 0.5)] * d, 25, 99, 1, d)
        _, grads = f.jet(pts)
        for k in range(d):
            shift = np.zeros(d)
            shift[k] = h
            fd = (f.eval(pts + shift) - f.eval(pts - shift)) / (2 * h)
            ok = ok and np.all(np.abs(fd - grads[:, k]) <= 1e-6 * (1 + np.abs(grads[:, k])))
    # metric connection properties
    for seed in range(5):
        spec = GenSpec(seed=seed, dimension=4, degree=2)
        J = gen_almost_complex(spec)
        g = gen_hermitian_metric(spec, J)
        lc = LeviCivitaConnection(g)
        pts = sampling.sample_box([(-0.5, 0.5)] * 4, 25, seed, 92)
        ok = ok and np.abs(torsion_values(lc, pts)).max() <= 1e-9
        ok = ok and np.abs(covd_values(lc, g, pts)).max() <= 1e-9
    wall = max(elapsed for _, elapsed in verify_runs)
    ok = ok and wall <= 600.0
    _report(ok, f"kernel oracles hold; full suite wall time {wall:.0f}s (<= 600s)")
