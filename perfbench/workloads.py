"""Seeded inputs and independent output checks for the benchmark workloads.

Each workload is a closed loop over *rounds*: a round is a fixed list of
requests, each one an argument list for ``qsg.cli.main``.  The client sends a
round's requests one after another and starts another round while the
measuring window is open, so every run sees the same request mix.

The checks here re-derive what a correct report must contain from the
request and from the inputs the benchmark wrote itself.  They never take a
``pass`` flag or an exit status from the report on trust.

qsg is imported inside the functions, never at module import, so that the
set-up probe times the import.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field
from pathlib import Path

# Gates stated in the README: witnesses at residual <= 1e-7 exit 0,
# residuals up to 1e-3 exit 4 (low quality) and larger ones exit 5; suite
# witness hypotheses must hold to 1e-7.
WITNESS_TOL = 1e-7
NO_WITNESS_TOL = 1e-3
HYPOTHESIS_TOL = 1e-7

VERIFY_DIMS = (2, 4)
# SectionContext draws max(4, trials // 3) witness trials, so fewer than 12
# trials would skew the witness / identity mix away from the acceptance run.
VERIFY_TRIALS = 12
SUITE_IDS_PER_DIM = 64
SUITE_FAILURES = ("fail", "witness-unavailable")  # plus any "inconclusive*" status

# Samples per check request.  The sheared Kaehler model's fields have a
# tenth of the terms of the others, so it gets enough points to cost about
# as much per request; with one cost cluster the median request is a
# central statistic, not the fastest of the slow requests.
CHECK_SAMPLES = {"hermitian": 200, "kahler": 3600, "norden": 200}
_GENERIC = (
    "almost_complex", "quasi_statistical", "statistical", "codazzi_J",
    "torsion_compatible", "integrable", "d_closed_J", "complex_connection",
    "hermitian", "norden",
)
# Every predicate that runs on the model: kahler needs a hermitian metric,
# anti_kahler and quasi_kahler_norden a norden one.
PREDICATES_BY_FLAVOR = {
    "hermitian": _GENERIC + ("kahler",),
    "norden": _GENERIC + ("anti_kahler", "quasi_kahler_norden"),
}

# (constraint set, ansatz degrees), run on both synthesis models.  The
# first set is the README example.  Degree 1 fits the sheared Kaehler model
# exactly, degree 2 leaves low-quality witnesses there, and the generic
# Hermitian model admits no witness for the closure sets.  Degree-2 solves
# cost about four times degree-1 ones; with 10 of 14 requests at degree 2
# the median request sits inside one cost cluster, not between two.
SYNTH_MATRIX = (
    ("quasi_statistical_g,d_closed_J", (1, 2)),
    ("codazzi_J", (1, 2)),
    ("d_closed_J,torsion_free", (2,)),
    ("complex_connection", (2,)),
    ("conjugate_torsion_sum", (2,)),
)

WORKLOADS = ("verify-suite", "check-sweep", "synth-fit")


@dataclass
class Request:
    """One call of ``qsg.cli.main`` plus what its checker needs to know."""

    argv: list
    info: dict = field(default_factory=dict)


class Workload:
    """Inputs of one workload at one seed, written under ``workdir``."""

    def __init__(self, name: str, seed: int, workdir: Path):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
        self.name = name
        self.seed = seed
        self.workdir = Path(workdir)
        self._seeds = random.Random(f"perfbench:{name}:{seed}")
        self.models = {}  # name -> (path, canonical doc as written)
        if name == "check-sweep":
            self._write_models(("hermitian", "kahler", "norden"))
        elif name == "synth-fit":
            self._write_models(("hermitian", "kahler"))
        self.out_path = str(self.workdir / "witness.json")

    # -- inputs -------------------------------------------------------

    def _write_models(self, names):
        """The 4-d recipes of scripts/make_example_models.py, plus a Norden
        pair built the same way, all seeded with the workload seed."""
        from qsg import sampling
        from qsg.calculus import PolyConnection
        from qsg.generate import (GenSpec, gen_almost_complex, gen_hermitian_metric,
                                  gen_kahler_model, gen_norden_metric, random_poly_field)
        from qsg.model import ChartModel, flat_hermitian_model, flat_norden_model
        from qsg.model_io import canonical_doc, write_model

        self.workdir.mkdir(parents=True, exist_ok=True)
        spec = GenSpec(seed=self.seed, dimension=4, degree=2)
        for name in names:
            if name == "hermitian":
                J = gen_almost_complex(spec)
                conn = PolyConnection(random_poly_field(sampling.rng(self.seed, 1), 4, (1, 2), 2, 1.0))
                model = ChartModel(domain=flat_hermitian_model(4).domain,
                                   metric=gen_hermitian_metric(spec, J), J=J, conn=conn)
            elif name == "kahler":
                model = gen_kahler_model(spec)
                model.conn = PolyConnection.zero(4)
            else:
                J = gen_almost_complex(spec)
                conn = PolyConnection(random_poly_field(sampling.rng(self.seed, 2), 4, (1, 2), 2, 1.0))
                model = ChartModel(domain=flat_norden_model(4).domain,
                                   metric=gen_norden_metric(spec, J), J=J, conn=conn)
            path = self.workdir / f"{name}_4d.json"
            write_model(canonical_doc(model), path)
            with open(path) as f:
                self.models[name] = (str(path), json.load(f))

    def _next_seed(self) -> int:
        return self._seeds.randrange(2 ** 31)

    def warmup(self) -> Request:
        """One cheap request of the workload's own kind; it pays the lazy
        imports (``scipy.linalg`` in the synthesizer) before timing starts."""
        if self.name == "verify-suite":
            return self._verify((2,), 4, self._next_seed())
        if self.name == "check-sweep":
            return self._check("kahler", self._next_seed(), samples=200)
        return self._synth("kahler", "torsion_free", 1, self._next_seed())

    def round(self) -> list:
        """The next round of requests; request seeds come from the workload seed."""
        if self.name == "verify-suite":
            return [self._verify(VERIFY_DIMS, VERIFY_TRIALS, self._next_seed())]
        if self.name == "check-sweep":
            return [self._check(m, self._next_seed()) for m in ("hermitian", "kahler", "norden")]
        return [self._synth(m, cons, deg, self._next_seed())
                for m in ("kahler", "hermitian") for cons, degrees in SYNTH_MATRIX for deg in degrees]

    def _verify(self, dims, trials, seed) -> Request:
        argv = ["verify", "--dims", ",".join(map(str, dims)), "--degree", "2",
                "--trials", str(trials), "--seed", str(seed)]
        return Request(argv, {"kind": "verify", "dims": dims, "trials": trials, "seed": seed})

    def _check(self, model, seed, samples=None) -> Request:
        path, doc = self.models[model]
        samples = samples or CHECK_SAMPLES[model]
        flavor = doc["fields"]["h" if "h" in doc["fields"] else "g"]["flavor"]
        preds = PREDICATES_BY_FLAVOR[flavor]
        argv = ["check", path, "--predicates", ",".join(preds),
                "--samples", str(samples), "--seed", str(seed)]
        return Request(argv, {"kind": "check", "model": model, "predicates": preds,
                              "samples": samples, "seed": seed, "points": len(preds) * samples})

    def _synth(self, model, constraints, degree, seed) -> Request:
        argv = ["synthesize", self.models[model][0], "--constraints", constraints,
                "--degree", str(degree), "--seed", str(seed), "--out", self.out_path]
        return Request(argv, {"kind": "synth", "model": model, "constraints": constraints.split(","),
                              "degree": degree, "seed": seed})

    def before(self, req: Request):
        """Clear state a request may leave behind, so that every request
        starts from the same files."""
        if req.info["kind"] == "synth" and os.path.exists(self.out_path):
            os.remove(self.out_path)

    # -- checks -------------------------------------------------------

    def check(self, req: Request, code, stdout: str) -> list:
        """Problems found in one response; an empty list means correct."""
        kind = req.info["kind"]
        allowed = {"verify": (0,), "check": (0, 1), "synth": (0, 4, 5)}[kind]
        if code not in allowed:
            return [f"exit {code}, expected one of {allowed}"]
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return [f"stdout is not one JSON report: {exc}"]
        problems = []
        if report.get("exit_status") != code:
            problems.append(f"report exit_status {report.get('exit_status')} != exit {code}")
        if report.get("seed") != req.info["seed"]:
            problems.append("report seed differs from the request")
        checker = {"verify": self._check_verify, "check": self._check_check,
                   "synth": self._check_synth}[kind]
        return problems + checker(req, code, report)

    def _check_verify(self, req, code, report) -> list:
        problems = []
        suite = report.get("suite", {})
        if suite.get("trials") != req.info["trials"] or tuple(suite.get("dims", ())) != req.info["dims"]:
            problems.append("suite trials or dims differ from the request")
        ids_by_dim = {d: [] for d in req.info["dims"]}
        for e in suite.get("entries", []):
            where = f"{e.get('id')}@{e.get('dim')}"
            if e.get("dim") not in ids_by_dim:
                problems.append(f"{where}: unrequested dim")
                continue
            ids_by_dim[e["dim"]].append(e["id"])
            status, res, tol = e.get("status", ""), e.get("max_residual"), e.get("tolerance")
            if not _finite(res) or (e.get("hyp_residual") is not None and not _finite(e["hyp_residual"])):
                problems.append(f"{where}: non-finite residual")
                continue
            if status in SUITE_FAILURES or status.startswith("inconclusive"):
                problems.append(f"{where}: status {status}")
            elif status == "pass":
                if not res <= tol:
                    problems.append(f"{where}: pass with residual {res} above tolerance {tol}")
                hyp = e.get("hyp_residual")
                if e.get("direction") == "witness" and not (hyp is not None and hyp <= HYPOTHESIS_TOL):
                    problems.append(f"{where}: witness hypothesis residual {hyp} above {HYPOTHESIS_TOL}")
            elif status != "not-applicable":
                problems.append(f"{where}: unknown status {status}")
        id_sets = set()
        for d, ids in ids_by_dim.items():
            if len(ids) != SUITE_IDS_PER_DIM or len(set(ids)) != len(ids):
                problems.append(f"dim {d}: {len(set(ids))} distinct ids of {len(ids)}, expected {SUITE_IDS_PER_DIM}")
            id_sets.add(frozenset(ids))
        if len(id_sets) > 1:
            problems.append("dims report different id sets")
        return problems

    def _check_check(self, req, code, report) -> list:
        problems = []
        doc = self.models[req.info["model"]][1]
        if report.get("model_hash") != _model_hash(doc):
            problems.append("model_hash differs from the hash of the written model")
        box = doc["domain"]
        checks = report.get("checks", [])
        if [c.get("name") for c in checks] != list(req.info["predicates"]):
            return problems + ["checks do not match the requested predicates"]
        all_pass = True
        for c in checks:
            res, tol = c.get("max_residual"), c.get("tolerance")
            if not _finite(res):
                problems.append(f"{c['name']}: non-finite residual")
                continue
            passed = res <= tol
            all_pass = all_pass and passed
            if c.get("pass") != passed:
                problems.append(f"{c['name']}: pass flag disagrees with residual {res} vs {tol}")
            pt = c.get("worst_point", [])
            if len(pt) != len(box) or not all(lo <= x <= hi for x, (lo, hi) in zip(pt, box)):
                problems.append(f"{c['name']}: worst_point {pt} outside the domain box")
            if c.get("samples") != req.info["samples"]:
                problems.append(f"{c['name']}: sample count differs from the request")
        if code != (0 if all_pass else 1):
            problems.append(f"exit {code} disagrees with the residuals")
        return problems

    def _check_synth(self, req, code, report) -> list:
        problems = []
        syn = report.get("synthesis", {})
        res = syn.get("residual")
        per = syn.get("constraint_residuals", {})
        if syn.get("constraints") != req.info["constraints"] or sorted(per) != sorted(req.info["constraints"]):
            problems.append("constraints differ from the request")
        if not _finite(res) or not all(_finite(v) for v in per.values()):
            return problems + ["non-finite residual"]
        if per and res != max(per.values()):
            problems.append("residual is not the largest constraint residual")
        expected = 0 if res <= WITNESS_TOL else 4 if res <= NO_WITNESS_TOL else 5
        if code != expected:
            problems.append(f"exit {code} but residual {res} calls for exit {expected}")
        written = os.path.exists(self.out_path)
        if code == 0:
            if not written or syn.get("written") != self.out_path:
                problems.append("witness run wrote no model file")
            else:
                problems += _reload_problems(self.out_path, self.workdir / "reload.json")
        elif written:
            problems.append(f"exit {code} run wrote a model file")
        return problems


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _model_hash(doc: dict) -> str:
    """SHA-256 of the canonical JSON form, computed here from the document."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def _reload_problems(path: str, scratch: Path) -> list:
    """A written witness must load through ``load_model`` and keep its hash
    through a write / load round trip."""
    from qsg.errors import QsgError
    from qsg.model_io import canonical_doc, load_model, model_hash, write_model

    try:
        model, doc = load_model(path)
        write_model(canonical_doc(model), scratch)
        _, doc2 = load_model(scratch)
    except QsgError as exc:
        return [f"written witness does not reload: {exc}"]
    with open(path) as f:
        own = _model_hash(json.load(f))
    if not model_hash(doc) == model_hash(doc2) == own:
        return ["written witness hash is not stable across a reload"]
    if "Gamma" not in doc["fields"]:
        return ["written witness has no connection"]
    return []
