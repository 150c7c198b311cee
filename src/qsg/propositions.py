"""Executable registry of the coupling results between torsion-bearing
connections, almost complex structures, and Hermitian / Norden metrics.

Every registered result is tested in the strongest available form:

* proof-level identities quantify over arbitrary random inputs and are
  checked as two independently evaluated tensor expressions;
* conditional results run on witnesses built by closed-form recipes or
  least-squares synthesis, with hypothesis residuals reported alongside
  conclusion residuals, and are never silently skipped;
* selected results carry negative controls: a deliberately violated
  hypothesis must produce a failing conclusion residual in at least 90%
  of trials.

Entry ids, the vocabulary of ``qsg verify``, come from registrations.  A
family (ids computed together, e.g. the six pro3 items sharing one witness
per trial) is a function ``run(ctx) -> [EntryResult, one per id]`` decorated
with ``@family(section_runner_name, *ids)``.  A Hermitian result mirrored
with a sign for Norden pairs is a twin: one body ``run(ctx, fl)`` reads trial
data, sign and ids from the ``Flavor`` ``fl`` and is decorated with
``@twin(lambda fl: ids)``, registering it once per flavor.  Families share
only ``SectionContext`` caches, so ``run_full_suite(only=...)`` can run just
the families owning a selected id and report what a full run does.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import sampling
from .calculus import (
    Connection,
    PolyConnection,
    covd_values,
    exterior_d2,
    exterior_d2_connection_expansion,
    levi_civita,
    torsion_values,
)
from .connections import (
    _as_field,
    average_connection,
    conjugate_by_bilinear,
    conjugate_by_J,
    klein_table,
)
from .errors import QsgError
from .fields import ChartDomain, PolyTensorField
from .generate import (
    GenSpec,
    gen_almost_complex,
    gen_connection,
    gen_constant_structure_model,
    gen_hermitian_metric,
    gen_kahler_model,
    gen_norden_metric,
    gen_vishnevskii_zero_connection,
    random_poly_field,
    random_vector_field,
    synthesize_connection,
)
from .model import ChartModel, flat_hermitian_model
from .predicates import check as predicate_check
from .structures import (
    cyclic_sum_03,
    d_nabla_J_values,
    d_nabla_metric_values,
    nijenhuis,
    quasi_kahler_norden_sum_values,
    tachibana_values,
    vishnevskii_frame_values,
    vishnevskii_jframe_values,
    vishnevskii_on_fields,
)

TOLERANCES = {
    "kernel_identity": 1e-9,
    "identity": 1e-8,
    "klein": 1e-8,
    "hypothesis": 1e-7,
    "conclusion": 1e-6,
    "strict_conclusion": 1e-7,
    "coupling": 1e-8,
    "negative": 1e-3,
}

_T_TRIAL = sampling.tag("suite_trial")
_T_PTS = sampling.tag("suite_points")
# sample points per trial
_N_PTS = 25


# ---------------------------------------------------------------------------
# report containers


@dataclass
class EntryResult:
    """One registry entry at one dimension."""

    prop_id: str
    dim: int
    direction: str
    trials: int
    max_residual: float
    tolerance: float
    status: str  # pass | fail | witness-unavailable | inconclusive | not-applicable
    hyp_residual: float | None = None
    notes: str = ""

    @property
    def passed(self) -> bool:
        return self.status != "fail"

    def to_dict(self) -> dict:
        return {
            "id": self.prop_id,
            "dim": self.dim,
            "direction": self.direction,
            "trials": self.trials,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "status": self.status,
            "pass": self.passed,
            "hyp_residual": self.hyp_residual,
            "notes": self.notes,
        }


@dataclass
class SuiteReport:
    seed: int
    trials: int
    dims: tuple
    tolerances: dict = dc_field(default_factory=lambda: dict(TOLERANCES))
    entries: list = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def sorted_entries(self) -> list:
        return sorted(self.entries, key=lambda e: (e.prop_id, e.dim))

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "dims": list(self.dims),
            "tolerances": self.tolerances,
            "pass": self.passed,
            "entries": [e.to_dict() for e in self.sorted_entries()],
        }


# ---------------------------------------------------------------------------
# the registry


class Family(NamedTuple):
    """Entries computed together: ``run(ctx)`` returns one per id."""

    section: str  # name of the section runner that reports them
    ids: tuple
    run: Callable


# section runner name -> what it reports, in report order
SECTIONS = {
    "verify_section2": "Identities and witnesses coupling structure conjugation, torsion "
                       "and integrability.",
    "verify_section3": "Hermitian-pair results: 2-form conventions, conjugation chains, the "
                       "Klein table, averaged connections, and the compatible-closure theorem.",
    "verify_section4": "Norden-pair results: twin-metric chains, the anti-Hermitian Klein "
                       "table, the holomorphicity operator, and the anti-compatible closure "
                       "theorems.",
    "verify_negative_controls": "Deliberately violated hypotheses must produce failing "
                                "conclusions.",
}
FAMILIES: list = []


def family(section: str, *ids: str):
    """Decorator registering ``run(ctx)`` as the family emitting ``ids``."""
    def add(run):
        FAMILIES.append(Family(section, ids, run))
        return run
    return add


@dataclass(frozen=True)
class Flavor:
    """One side of the Hermitian / Norden mirror."""

    name: str  # metric flavor of the trial pairs
    section: str  # runner that reports this flavor's twin entries
    # the partner form b(J., .) (2-form or twin metric) has derivative
    # sign * the metric's derivative with J in the last slot
    sign: float
    tags: tuple  # sub-seed tags: trial structure and metric, trial symbols, pro3 witness
    prefixes: dict  # twin family -> id prefix
    cor_positions: dict  # cor item -> (derivative ops, torsion ops)
    pro3_notes: dict  # pro3 item -> placement note (the Hermitian report only)

    def id(self, twin_family: str, item: str = "") -> str:
        prefix = self.prefixes[twin_family]
        return f"{prefix}.{item}" if item else prefix


HERMITIAN = Flavor(
    name="hermitian", section="verify_section3", sign=-1.0, tags=(1, 2, 21),
    prefixes={"pro3": "pro3", "pro4": "pro4", "cor": "cor4", "pro5": "pro5",
              "klein": "teo1.klein", "neg": "neg.cor4.i"},
    cor_positions={"i": (("star",), ()), "ii": (("jconj",), ("dagger",)),
                   "iii": (("dagger",), ("jconj",))},
    pro3_notes={
        "i": "metric-conjugate statement under base-pair coupling",
        "ii": "partner-conjugate statement under base-pair coupling",
        "iii": "base statement under metric-conjugate coupling",
        "iv": "base statement under partner-conjugate coupling",
        "v": "structure-conjugate invariance of the partner derivative",
        "vi": "structure-conjugate invariance of the metric derivative",
    },
)
NORDEN = Flavor(
    name="norden", section="verify_section4", sign=1.0, tags=(3, 4, 31),
    prefixes={"pro3": "antipro3", "pro4": "pro12", "cor": "cor7", "pro5": "antipro5",
              "klein": "sec4.klein", "neg": "neg.cor7.ii"},
    cor_positions={"i": ((), ("star",)), "ii": (("star",), ()),
                   "iii": (("jconj",), ("dagger",)), "iv": (("dagger",), ("jconj",))},
    pro3_notes={},
)


def twin(ids_of: Callable, section: str = ""):
    """Decorator registering ``run(ctx, fl)`` once per flavor, emitting
    ``ids_of(fl)`` under ``section`` (default: the flavor's own)."""
    def add(run):
        for fl in (HERMITIAN, NORDEN):
            family(section or fl.section, *ids_of(fl))(partial(run, fl=fl))
        return run
    return add


def _section_runner(section: str):
    def run(ctx: SectionContext, families=None) -> list:
        if families is None:
            families = [f for f in FAMILIES if f.section == section]
        return [e for f in families for e in f.run(ctx)]
    run.__name__ = run.__qualname__ = section
    run.__doc__ = SECTIONS[section] + "  ``families`` restricts the run to some of them."
    return run


verify_section2, verify_section3, verify_section4, verify_negative_controls = map(
    _section_runner, SECTIONS)


# ---------------------------------------------------------------------------
# residual helpers


def ident_res(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """Normalized identity residual: max|lhs - rhs| / (1 + max|lhs|)."""
    return float(np.abs(lhs - rhs).max() / (1.0 + np.abs(lhs).max()))


def zero_res(arr: np.ndarray) -> float:
    return float(np.abs(arr).max())


def _j1(a, jv):
    """A(J x_i, x_j) for (1,2)-indexed arrays a[n,k,i,j]."""
    return np.einsum("nkaj,nai->nkij", a, jv)


def _j2(a, jv):
    return np.einsum("nkia,naj->nkij", a, jv)


def _jboth(a, jv):
    return np.einsum("nkab,nai,nbj->nkij", a, jv, jv)


def _jout(jv, a):
    """J applied to the upper slot of a (1,2) array."""
    return np.einsum("nkm,nmij->nkij", jv, a)


def _tb(t, bv):
    """b(T(x_i, x_j), x_k)."""
    return np.einsum("nmij,nmk->nijk", t, bv)


def _slot3(a, jv):
    """A(x_i, x_j, J x_k) for (0,3) arrays."""
    return np.einsum("nija,nak->nijk", a, jv)


# ---------------------------------------------------------------------------
# per-trial cached data


class TrialData:
    """One model plus memoized derived arrays at the trial's sample points.

    Connections are addressed by op-tuples applied left to right, e.g.
    ``("star", "jconj")`` is the structure conjugate of the metric
    conjugate of the base connection.
    """

    def __init__(self, model: ChartModel, pts: np.ndarray):
        self.model = model
        self.pts = pts
        self.partner = model.partner_form()
        self.jv = model.J.values(pts)
        self.bv = model.metric.values(pts)
        self.pv = self.partner.values(pts)
        self._conns = {(): model.conn}
        self._cache = {}

    def _memo(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def conn(self, ops: tuple = ()) -> Connection:
        if ops not in self._conns:
            base = self.conn(ops[:-1])
            op = ops[-1]
            if op == "star":
                c = conjugate_by_bilinear(base, self.model.metric)
            elif op == "dagger":
                c = conjugate_by_bilinear(base, self.partner)
            elif op == "jconj":
                c = conjugate_by_J(base, self.model.J)
            elif op == "avg":
                c = average_connection(base, self.model.J)
            else:
                raise QsgError(f"unknown connection op {op!r}")
            self._conns[ops] = c
        return self._conns[ops]

    def torsion(self, ops: tuple = ()):
        return self._memo(("T", ops), lambda: torsion_values(self.conn(ops), self.pts))

    def d_metric(self, ops: tuple = (), which: str = "metric"):
        field = self.model.metric if which == "metric" else self.partner
        return self._memo(
            ("dB", ops, which),
            lambda: d_nabla_metric_values(self.conn(ops), field, self.pts),
        )

    def d_J(self, ops: tuple = ()):
        return self._memo(
            ("dJ", ops), lambda: d_nabla_J_values(self.conn(ops), self.model.J, self.pts)
        )

    def covd_J(self, ops: tuple = ()):
        return self._memo(
            ("cJ", ops), lambda: covd_values(self.conn(ops), self.model.J.field, self.pts)
        )

    def covd_metric(self, ops: tuple = (), which: str = "metric"):
        f = _as_field(self.model.metric if which == "metric" else self.partner)
        return self._memo(
            ("cB", ops, which), lambda: covd_values(self.conn(ops), f, self.pts)
        )

    def nijenhuis(self):
        return self._memo(("N",), lambda: nijenhuis(self.model.J).values(self.pts))


def _with_conn(model: ChartModel, conn: Connection, pts) -> TrialData:
    """Trial data for ``model``'s metric and structure under ``conn``."""
    return TrialData(ChartModel(domain=model.domain, metric=model.metric, J=model.J,
                                conn=conn), pts)


@dataclass
class SectionContext:
    """Per-dimension generation context for one suite run."""

    seed: int
    dim: int
    trials: int
    degree: int = 2

    def __post_init__(self):
        self.witness_trials = max(4, self.trials // 3)
        # on constant-structure models every ansatz degree admits exact
        # witnesses, so higher dimensions use the cheaper linear ansatz
        self.witness_degree = 2 if self.dim == 2 else 1
        self._trials = {}
        self._kahler = {}
        self._const = {}
        self._points = {}

    def _sub_seed(self, *path) -> int:
        return int(sampling.rng(self.seed, _T_TRIAL, self.dim, *path).integers(2 ** 62))

    def points(self, trial: int) -> np.ndarray:
        if trial not in self._points:
            self._points[trial] = sampling.sample_box(
                ChartDomain.cube(self.dim).box, _N_PTS, self.seed, _T_PTS, self.dim, trial,
            )
        return self._points[trial]

    def spec(self, trial: int, tag: int, *constraints: str) -> GenSpec:
        return GenSpec(seed=self._sub_seed(trial, tag), dimension=self.dim, degree=self.degree,
                       constraints=frozenset(constraints))

    def rng(self, trial: int, tag: int):
        return sampling.rng(self.seed, _T_TRIAL, self.dim, trial, tag)

    def trial(self, fl: Flavor, trial: int) -> TrialData:
        """Random structure, ``fl`` metric and symbols of one trial."""
        key = (fl.name, trial)
        if key not in self._trials:
            spec = self.spec(trial, fl.tags[0])
            J = gen_almost_complex(spec)
            # chosen by global name at each call, so wrappers installed on
            # this module's attributes (perfbench/tracing.py) see the call
            gen_metric = gen_hermitian_metric if fl.name == "hermitian" else gen_norden_metric
            metric = gen_metric(spec, J, probe_pts=self.points(trial))
            conn = PolyConnection(
                random_poly_field(self.rng(trial, fl.tags[1]), self.dim, (1, 2), self.degree, 1.0)
            )
            model = ChartModel(domain=ChartDomain.cube(self.dim),
                               metric=metric, J=J, conn=conn)
            self._trials[key] = TrialData(model, self.points(trial))
        return self._trials[key]

    def kahler(self, trial: int) -> ChartModel:
        if trial not in self._kahler:
            self._kahler[trial] = gen_kahler_model(self.spec(trial, 5))
        return self._kahler[trial]

    def constant(self, trial: int) -> ChartModel:
        """Constant-structure Hermitian model of one witness trial."""
        if trial not in self._const:
            self._const[trial] = gen_constant_structure_model(self.spec(trial, 6), "hermitian")
        return self._const[trial]


# ---------------------------------------------------------------------------
# entry assembly helpers


def _worst(residuals) -> float:
    """Largest residual, NaN if any is NaN (``max`` skips a NaN or not
    depending on where it sits in the list); 0.0 for none."""
    return float(np.max(residuals)) if len(residuals) else 0.0


def _identity_entry(prop_id, dim, trials, residuals, tol, notes=""):
    r = _worst(residuals)
    return EntryResult(
        prop_id=prop_id, dim=dim, direction="identity", trials=trials,
        max_residual=r, tolerance=tol,
        status="pass" if r <= tol else "fail", notes=notes,
    )


def _identities(ctx: SectionContext, fl: Flavor, tol: float, residuals) -> list:
    """Identity entries from ``residuals(td) -> {id: residual}`` over the
    ``fl`` trials."""
    per_id = {}
    for t in range(ctx.trials):
        for prop_id, r in residuals(ctx.trial(fl, t)).items():
            per_id.setdefault(prop_id, []).append(r)
    return [_identity_entry(i, ctx.dim, ctx.trials, rs, tol) for i, rs in per_id.items()]


def _witness_entry(prop_id, dim, results, tol, notes=""):
    """results: list of (hyp_residual, conclusion_residual); hypothesis
    failures downgrade to witness-unavailable instead of fail, but a
    non-finite residual anywhere fails the entry over all trials."""
    res = np.asarray(results, dtype=float).reshape(-1, 2)
    finite = bool(np.all(np.isfinite(res)))
    usable = res[res[:, 0] <= TOLERANCES["hypothesis"]] if finite else res
    if not len(usable):
        return EntryResult(
            prop_id=prop_id, dim=dim, direction="witness", trials=len(results),
            max_residual=0.0, tolerance=tol, status="witness-unavailable",
            hyp_residual=_worst(res[:, 0]),
            notes=(notes + " no witness met the hypothesis tolerance").strip(),
        )
    worst_c = _worst(usable[:, 1])
    return EntryResult(
        prop_id=prop_id, dim=dim, direction="witness", trials=len(results),
        max_residual=worst_c, tolerance=tol,
        status="pass" if finite and worst_c <= tol else "fail",
        hyp_residual=_worst(usable[:, 0]),
        notes=notes if finite else (notes + " non-finite residual").strip(),
    )


def _fold_identity(entry: EntryResult, residuals, tol):
    """Merge identity residuals into a witness entry: the maximum covers
    both, and a failing or non-finite identity fails the entry."""
    worst = _worst(residuals)
    entry.max_residual = _worst([entry.max_residual, worst])
    if not worst <= tol:
        entry.status = "fail"


def _pro3_correction(td: TrialData, ops: tuple):
    """b(x_j, (B_{x_i} J) x_k) - b(x_i, (B_{x_j} J) x_k) for B = conn(ops)."""
    dj = td.covd_J(ops)
    bv = td.bv
    c1 = np.einsum("njm,nmik->nijk", bv, dj)
    c2 = np.einsum("nim,nmjk->nijk", bv, dj)
    return c1 - c2


def _jshift_correction(td: TrialData, which: str):
    """b(x_j, J^{-1}(D_{x_i} J) x_k) - b(x_i, J^{-1}(D_{x_j} J) x_k)."""
    dj = td.covd_J(())
    jinv_dj = -_jout(td.jv, dj)
    bv = td.bv if which == "metric" else td.pv
    c1 = np.einsum("njm,nmik->nijk", bv, jinv_dj)
    c2 = np.einsum("nim,nmjk->nijk", bv, jinv_dj)
    return c1 - c2


def _jshift_residual(td: TrialData, which: str) -> float:
    """Structure-conjugate shift of the ``which`` form's derivative."""
    return ident_res(td.d_metric(("jconj",), which),
                     td.d_metric((), which) - _jshift_correction(td, which))


# ---------------------------------------------------------------------------
# entry families
#
# section 2: structure conjugation, torsion and integrability


@family("verify_section2", "GAD1.i", "GAD1.ii", "GAD1.iii", "sec2.closing")
def _gad1(ctx):
    def residuals(td):
        jv, cd, tv = td.jv, td.covd_J(()), td.torsion(())
        closing = _j1(td.d_J(()), jv) + _j2(td.d_J(()), jv)
        return {
            "GAD1.i": ident_res(td.d_J(()), _jout(jv, td.torsion(("jconj",)))),
            "GAD1.ii": ident_res(td.d_J(("jconj",)), _jout(jv, tv)),
            "GAD1.iii": ident_res(td.d_J(()) - td.d_J(("jconj",)), cd - np.swapaxes(cd, 2, 3)),
            "sec2.closing": ident_res(closing, _jboth(tv, jv) - tv - td.nijenhuis()),
        }
    return _identities(ctx, HERMITIAN, TOLERANCES["kernel_identity"], residuals)


@family("verify_section2", "lem1")
def _lem1(ctx):
    # on d-closed witnesses the integrability obstruction reduces to the
    # structure-twisted torsion combination
    res_lem1 = []
    for t in range(ctx.witness_trials):
        td = ctx.trial(HERMITIAN, t)
        w = conjugate_by_J(gen_connection(ctx.spec(t, 10, "torsion_free")), td.model.J)
        jv = td.jv
        hyp = zero_res(d_nabla_J_values(w, td.model.J, td.pts))
        tw = torsion_values(w, td.pts)
        mix = _j2(tw, jv) + _j1(tw, jv)
        concl = ident_res(td.nijenhuis(), -_jout(jv, mix))
        res_lem1.append((hyp, concl))
    return [_witness_entry("lem1", ctx.dim, res_lem1, TOLERANCES["identity"])]


@family("verify_section2", "pro2", "sec2.cor3")
def _pro2(ctx):
    # witnesses carry exactly closed structures with compatible torsion, so
    # the obstruction must vanish
    res_pro2, res_cor3 = [], []
    for t in range(ctx.witness_trials):
        J = gen_almost_complex(ctx.spec(t, 11)) if ctx.dim == 2 else ctx.kahler(t).J
        pts = ctx.points(t)
        jv = J.values(pts)
        w = conjugate_by_J(gen_connection(ctx.spec(t, 12, "torsion_free")), J)
        tw = torsion_values(w, pts)
        compat = zero_res(_j1(tw, jv) + _j2(tw, jv))
        closed = zero_res(d_nabla_J_values(w, J, pts))
        n_res = zero_res(nijenhuis(J).values(pts))
        res_pro2.append((max(compat, closed), n_res))
        res_cor3.append((max(compat, zero_res(torsion_values(conjugate_by_J(w, J), pts))), n_res))
    return [_witness_entry("pro2", ctx.dim, res_pro2, TOLERANCES["conclusion"]),
            _witness_entry("sec2.cor3", ctx.dim, res_cor3, TOLERANCES["conclusion"])]


@family("verify_section2", "sec2.compat_equiv")
def _compat_equiv(ctx):
    # projected torsions satisfy both forms; generic torsions violate both
    # together
    proj_res, agree = [], True
    for t in range(ctx.trials):
        td = ctx.trial(HERMITIAN, t)
        jv = td.jv
        wp = gen_connection(ctx.spec(t, 13, "j_invariant_torsion"), J=td.model.J)
        tp = torsion_values(wp, td.pts)
        f1 = zero_res(_j1(tp, jv) + _j2(tp, jv))
        f2 = zero_res(_jboth(tp, jv) - tp)
        proj_res.extend([f1, f2])
        tr = td.torsion(())
        g1 = zero_res(_j1(tr, jv) + _j2(tr, jv))
        g2 = zero_res(_jboth(tr, jv) - tr)
        tol = TOLERANCES["identity"]
        agree = agree and ((g1 <= tol) == (g2 <= tol))
    entry = _identity_entry("sec2.compat_equiv", ctx.dim, ctx.trials, proj_res,
                            TOLERANCES["kernel_identity"],
                            notes="projected torsions satisfy both equivalent forms")
    if not agree:
        entry.status = "fail"
        entry.notes += "; the two forms disagreed on a random torsion"
    return [entry]


@family("verify_section2", "sec2.vishnevskii")
def _vishnevskii(ctx):
    # vanishing coupling operator forces the twisted-closedness identity;
    # witnesses need a constant structure (nonconstant ones obstruct the
    # twisted-frame conditions for every connection)
    res_vish = []
    for t in range(ctx.witness_trials):
        cm = ctx.constant(t)
        pts = ctx.points(t)
        w = gen_vishnevskii_zero_connection(ctx.spec(t, 14), cm.J)
        jv = cm.J.values(pts)
        hyp = max(zero_res(vishnevskii_frame_values(w, cm.J, pts)),
                  zero_res(vishnevskii_jframe_values(w, cm.J, pts)))
        # tensorial first slot: random-field arguments add no freedom
        x_rand = random_vector_field(ctx.rng(t, 15), ctx.dim, ctx.degree, 1.0)
        frames = PolyTensorField.constant(ctx.dim, (1, 0), np.eye(ctx.dim)[0])
        hyp = max(hyp, zero_res(vishnevskii_on_fields(w, cm.J, x_rand, frames, pts)))
        dj = d_nabla_J_values(w, cm.J, pts)
        tw = torsion_values(w, pts)
        lhs = _j1(dj, jv) + _j2(dj, jv)
        rhs = _jout(jv, _j1(tw, jv) + _j2(tw, jv))
        res_vish.append((hyp, ident_res(lhs, rhs)))
    return [_witness_entry("sec2.vishnevskii", ctx.dim, res_vish, TOLERANCES["conclusion"])]


# section 3 (Hermitian pairs) and the Norden twins of its results


@family("verify_section3", "lem2")
def _lem2(ctx):
    # 2-form convention lock on random antisymmetric forms
    r_lem2 = []
    for t in range(ctx.trials):
        rng = ctx.rng(t, 20)
        w = random_poly_field(rng, ctx.dim, (0, 2), ctx.degree, 1.0)
        w = (w - w.transpose_02()).scale(0.5)
        conn = PolyConnection(random_poly_field(rng, ctx.dim, (1, 2), ctx.degree, 1.0))
        pts = ctx.points(t)
        r_lem2.append(ident_res(exterior_d2(w).values(pts),
                                exterior_d2_connection_expansion(w, conn, pts)))
    return [_identity_entry("lem2", ctx.dim, ctx.trials, r_lem2, TOLERANCES["kernel_identity"])]


def _synth(ctx: SectionContext, model: ChartModel, constraints: list, trial: int, tag: int,
           degree: int | None = None):
    """Witness symbols fitted to ``constraints`` on ``model``'s metric and
    structure, and their trial data at the trial's points."""
    sr = synthesize_connection(model, constraints, seed=ctx._sub_seed(trial, tag),
                               ansatz_degree=ctx.witness_degree if degree is None else degree,
                               anchor_scale=0.3)
    return sr, _with_conn(model, sr.connection, ctx.points(trial))


PRO3_ITEMS = ("i", "ii", "iii", "iv", "v", "vi")


@twin(lambda fl: [fl.id("pro3", k) for k in PRO3_ITEMS])
def _pro3(ctx, fl):
    # pro3 / antipro3: one unconditional correction identity plus the
    # per-item collapse on Codazzi-coupled witnesses
    r_corr, r_shift = [], {"v": [], "vi": []}
    for t in range(ctx.trials):
        td = ctx.trial(fl, t)
        for ops in ((), ("star",)):
            rhs = fl.sign * (_slot3(td.d_metric(ops, "metric"), td.jv) + _pro3_correction(td, ops))
            r_corr.append(ident_res(td.d_metric(ops, "partner"), rhs))
        r_shift["v"].append(_jshift_residual(td, "partner"))
        r_shift["vi"].append(_jshift_residual(td, "metric"))

    # witnesses: D Codazzi-coupled to J; the statement connection is D or a
    # conjugate of D depending on where each item places the hypothesis
    results = {k: [] for k in PRO3_ITEMS}
    alt = 0.0
    for t in range(ctx.witness_trials):
        td = ctx.trial(fl, t)
        sr, wd = _synth(ctx, td.model, ["codazzi_J"], t, fl.tags[2], degree=1)

        def collapse(ops):
            return ident_res(wd.d_metric(ops, "partner"),
                             fl.sign * _slot3(wd.d_metric(ops, "metric"), wd.jv))

        # stated placements; items (iii)-(vi) put the hypothesis on a
        # conjugate, so their statement connection is the matching
        # conjugate of the coupled witness
        concl = {
            "i": collapse(("star",)), "ii": collapse(("dagger",)),
            "iii": collapse(("star",)), "iv": collapse(("dagger",)),
            "v": ident_res(wd.d_metric(("dagger", "jconj"), "partner"),
                           wd.d_metric(("dagger",), "partner")),
            "vi": ident_res(wd.d_metric(("star", "jconj"), "metric"),
                            wd.d_metric(("star",), "metric")),
        }
        for k in PRO3_ITEMS:
            results[k].append((sr.residual, concl[k]))
        if fl.pro3_notes:
            # alternate placement for item (i): hypothesis moved onto the
            # conjugate pair makes the statement connection the witness
            # itself, whose coupling is generically broken, so this should
            # stay large
            alt = max(alt, collapse(()))

    out = []
    for k in PRO3_ITEMS:
        e = _witness_entry(fl.id("pro3", k), ctx.dim, results[k], TOLERANCES["conclusion"],
                           notes=fl.pro3_notes.get(k, ""))
        _fold_identity(e, r_shift.get(k, r_corr), TOLERANCES["identity"])
        if fl.pro3_notes and k in ("i", "ii"):
            # the hypothesis-on-the-conjugate reading stays O(1) on the
            # same witnesses, so the stated placement is the working one
            e.notes += f"; alternate hypothesis placement residual {alt:.2e}"
        out.append(e)
    return out


@twin(lambda fl: [fl.id("klein")])
def _klein(ctx, fl):
    # teo1.klein / sec4.klein: the Klein table of the conjugations
    return _identities(ctx, fl, TOLERANCES["klein"], lambda td: {
        fl.id("klein"): klein_table(td.model.conn, td.model.metric, td.model.J,
                                    td.pts).max_residual})


PRO4_POSITIONS = {"i": (("jconj",), ()), "ii": ((), ("jconj",)),
                  "iii": (("dagger",), ("star",)), "iv": (("star",), ("dagger",))}
PRO5_BASES = {"i": (), "ii": ("star",), "iii": ("dagger",), "iv": ("jconj",)}


@twin(lambda fl: [fl.id("pro4", k) for k in PRO4_POSITIONS]
      + [fl.id("cor", k) for k in fl.cor_positions] + [fl.id("pro5", k) for k in PRO5_BASES])
def _chains(ctx, fl):
    # pro4 / pro12, cor4 / cor7 and pro5 / antipro5: the conjugation
    # chains at the positions of the group
    def residuals(td):
        out = {}
        # partner-vs-metric shifts
        for k, (ops_p, ops_b) in PRO4_POSITIONS.items():
            shifted = fl.sign * _slot3(td.d_metric(ops_b, "metric"), td.jv)
            out[fl.id("pro4", k)] = ident_res(td.d_metric(ops_p, "partner"), shifted)
        # metric derivative of a conjugate equals a lowered torsion
        for k, (ops_d, ops_t) in fl.cor_positions.items():
            out[fl.id("cor", k)] = ident_res(td.d_metric(ops_d, "metric"),
                                             _tb(td.torsion(ops_t), td.bv))
        # three base identities at each position
        for k, b in PRO5_BASES.items():
            lowered = _tb(td.torsion(b + ("dagger",)), td.pv)
            a1 = ident_res(td.d_metric(b, "partner"), lowered)
            star_dj = d_nabla_J_values(td.conn(b + ("star",)), td.model.J, td.pts)
            a2 = ident_res(np.einsum("nkij,nkl->nijl", star_dj, td.bv), lowered)
            a3 = ident_res(td.d_metric(b, "partner"),
                           fl.sign * _slot3(td.d_metric(b + ("jconj",), "metric"), td.jv))
            out[fl.id("pro5", k)] = max(a1, a2, a3)
        return out
    return _identities(ctx, fl, TOLERANCES["identity"], residuals)


@family("verify_section3", "sec3.cyclic", "lem3", "sec3.two_of_three")
def _cyclic(ctx):
    # cyclic-sum relation on jointly flat-and-closed witnesses; the same
    # witnesses serve lem3 and the first pairing of two-of-three
    res_cyc, res_lem3, res_23 = [], [], []
    for t in range(ctx.witness_trials):
        model = ctx.constant(t) if ctx.dim > 2 else ctx.kahler(t)
        pts = ctx.points(t)
        sr, wd = _synth(ctx, model, ["quasi_statistical_g", "d_closed_J"], t, 22)
        hyp = sr.residual
        lhs = cyclic_sum_03(wd.d_metric(("jconj",), "metric"))
        tv, gv = wd.torsion(()), wd.bv
        rhs = (np.einsum("nbm,nmac->nabc", gv, tv)
               + np.einsum("ncm,nmba->nabc", gv, tv)
               + np.einsum("nam,nmcb->nabc", gv, tv))
        res_cyc.append((hyp, ident_res(lhs, rhs)))
        res_lem3.append((hyp, zero_res(exterior_d2(wd.partner).values(pts))))
        res_23.append((hyp, zero_res(covd_values(wd.conn(("star",)), wd.partner, pts))))
    # contrapositive: on a generic model (2-form not closed) the same
    # constraint set admits no witness
    lem3_contra_ok = True
    td0 = ctx.trial(HERMITIAN, 0)
    dw0 = zero_res(exterior_d2(td0.partner).values(td0.pts))
    if dw0 > 1e-4:
        sr0 = synthesize_connection(td0.model, ["quasi_statistical_g", "d_closed_J"],
                                    ansatz_degree=2, seed=ctx._sub_seed(0, 23))
        lem3_contra_ok = sr0.residual > TOLERANCES["negative"]
    cyc_entry = _witness_entry("sec3.cyclic", ctx.dim, res_cyc, TOLERANCES["conclusion"])
    r_shift = [_jshift_residual(ctx.trial(HERMITIAN, t), "metric") for t in range(ctx.trials)]
    _fold_identity(cyc_entry, r_shift, TOLERANCES["kernel_identity"])
    lem3_entry = _witness_entry(
        "lem3", ctx.dim, res_lem3, TOLERANCES["conclusion"],
        notes="contrapositive: no witness exists when the 2-form is not closed",
    )
    if not lem3_contra_ok:
        lem3_entry.status = "fail"
        lem3_entry.notes += "; contrapositive check failed"

    # two-of-three: each pair of conditions forces the third
    res_b, res_c = [], []
    for t in range(ctx.witness_trials):
        model = ctx.constant(t) if ctx.dim > 2 else ctx.kahler(t)
        srb, wdb = _synth(ctx, model, ["d_closed_J", "conjugate_partner_parallel"], t, 24)
        res_b.append((srb.residual, zero_res(wdb.d_metric((), "metric"))))
        src, wdc = _synth(ctx, model, ["quasi_statistical_g", "conjugate_partner_parallel"], t, 25)
        res_c.append((src.residual, zero_res(wdc.d_J(()))))
    two_of_three = _witness_entry("sec3.two_of_three", ctx.dim, res_23 + res_b + res_c,
                                  TOLERANCES["strict_conclusion"],
                                  notes="all three pairings tested")
    return [cyc_entry, lem3_entry, two_of_three]


@family("verify_section3", "teo2")
def _teo2(ctx):
    # flat model, torsion-bearing synthesized witnesses, sheared model
    res_teo2, torsions = [], []
    flat = flat_hermitian_model(ctx.dim)
    rep = predicate_check(flat, "kahler", tol=TOLERANCES["conclusion"], seed=ctx.seed)
    res_teo2.append((0.0, rep.max_residual))
    for t in range(ctx.witness_trials):
        # a constant-structure model, then the sheared Kahler model
        for model, tag, anchor in ((ctx.constant(t), 26, 0.3),
                                   (ctx.kahler(t), 27, 0.3 if ctx.dim == 2 else 0.0)):
            sr = synthesize_connection(
                model, ["quasi_statistical_g", "d_closed_J", "j_invariant_torsion"],
                ansatz_degree=ctx.witness_degree, seed=ctx._sub_seed(t, tag), anchor_scale=anchor)
            m2 = ChartModel(domain=model.domain, metric=model.metric, J=model.J,
                            conn=sr.connection)
            rep = predicate_check(m2, "kahler", tol=TOLERANCES["conclusion"], seed=ctx.seed)
            res_teo2.append((sr.residual, rep.max_residual))
            torsions.append(zero_res(torsion_values(sr.connection, ctx.points(t))))
    notes = f"max witness torsion {max(torsions):.2e}" if torsions else ""
    teo2_entry = _witness_entry("teo2", ctx.dim, res_teo2, TOLERANCES["conclusion"],
                                notes=notes)
    if teo2_entry.status == "pass" and torsions and max(torsions) < 1e-6:
        teo2_entry.status = "inconclusive-witness"
        teo2_entry.notes += "; only torsion-free witnesses found"
    return [teo2_entry]


@family("verify_section3", "GAD15", "GAD16", "GAD17")
def _averaged(ctx):
    # the averaged connection's metric derivative, and against the
    # conjugate torsions
    gad15 = _identities(ctx, HERMITIAN, TOLERANCES["kernel_identity"], lambda td: {
        "GAD15": ident_res(td.d_metric(("avg",), "metric"),
                           td.d_metric((), "metric") - 0.5 * _jshift_correction(td, "metric"))})

    def residuals(td):
        sum_t = td.torsion(("star",)) + td.torsion(("dagger",))
        lhs = np.einsum(
            "nkij,nkl->nijl",
            d_nabla_J_values(td.conn(("star",)), td.model.J, td.pts)
            + d_nabla_J_values(td.conn(("dagger",)), td.model.J, td.pts),
            td.bv,
        )
        return {"GAD16": ident_res(td.d_metric(("avg",), "metric"), 0.5 * _tb(sum_t, td.bv)),
                "GAD17": ident_res(lhs, _tb(sum_t, td.pv))}
    return gad15 + _identities(ctx, HERMITIAN, TOLERANCES["identity"], residuals)


@family("verify_section3", "GAD15.cor")
def _gad15_cor(ctx):
    # coupled torsion-free witnesses make the average flat
    res_15c = []
    for t in range(ctx.witness_trials):
        model = ctx.constant(t) if ctx.dim > 2 else ctx.kahler(t)
        pts = ctx.points(t)
        sr = synthesize_connection(model, ["codazzi_J", "torsion_free"],
                                   ansatz_degree=ctx.witness_degree,
                                   seed=ctx._sub_seed(t, 28), anchor_scale=0.3)
        wd = _with_conn(model, conjugate_by_bilinear(sr.connection, model.metric), pts)
        concl = max(
            zero_res(wd.torsion(("star",))),
            zero_res(wd.torsion(("dagger",))),
            zero_res(wd.d_metric(("avg",), "metric")),
        )
        res_15c.append((sr.residual, concl))
    return [_witness_entry("GAD15.cor", ctx.dim, res_15c, TOLERANCES["conclusion"])]


@family("verify_section3", "sec3.cor_final")
def _cor_final(ctx):
    # opposite conjugate torsions, flat average, paired closures vanish
    # together
    res_cf = []
    for t in range(ctx.witness_trials):
        model = ctx.constant(t)
        pts = ctx.points(t)
        sr, wd = _synth(ctx, model, ["conjugate_torsion_sum"], t, 29)
        paired = (d_nabla_J_values(wd.conn(("star",)), model.J, pts)
                  + d_nabla_J_values(wd.conn(("dagger",)), model.J, pts))
        concl = max(zero_res(wd.d_metric(("avg",), "metric")), zero_res(paired))
        res_cf.append((sr.residual, concl))
    return [_witness_entry("sec3.cor_final", ctx.dim, res_cf, TOLERANCES["conclusion"])]


# section 4: Norden-only results


def _quasi_statistical_witness(ctx: SectionContext, td: TrialData, trial: int, tag: int):
    """Metric conjugate of a torsion-free connection, and its
    quasi-statistical hypothesis residual."""
    d0 = gen_connection(ctx.spec(trial, tag, "torsion_free"))
    wd = _with_conn(td.model, conjugate_by_bilinear(d0, td.model.metric), td.pts)
    return wd, zero_res(wd.d_metric((), "metric"))


@family("verify_section4", "pro14")
def _pro14(ctx):
    # unconditional torsion expansion of the holomorphicity operator, then
    # the flat-derivative collapse on quasi-statistical witnesses
    r14 = [_pro14_unconditional_residual(ctx.trial(NORDEN, t)) for t in range(ctx.trials)]
    res_14w = []
    for t in range(ctx.witness_trials):
        wd, hyp = _quasi_statistical_witness(ctx, ctx.trial(NORDEN, t), t, 32)
        res_14w.append((hyp, _pro14_conditional_residual(wd)))
    e14 = _witness_entry("pro14", ctx.dim, res_14w, TOLERANCES["strict_conclusion"])
    _fold_identity(e14, r14, TOLERANCES["identity"])
    return [e14]


@family("verify_section4", "teo5")
def _teo5(ctx):
    # on jointly closed witnesses the holomorphicity operator equals the
    # lowered-torsion / structure-derivative combination, so the two sides
    # vanish together
    res_t5, coupling_ok = [], True
    tol_c = TOLERANCES["conclusion"]
    for t in range(ctx.witness_trials):
        td = ctx.trial(NORDEN, t)
        w = conjugate_by_bilinear(levi_civita(td.partner), td.model.metric)
        wd = _with_conn(td.model, w, td.pts)
        hyp = max(zero_res(wd.d_metric((), "metric")), zero_res(wd.d_J(())))
        phi = tachibana_values(td.model.J, td.model.metric, td.pts)
        tv, djc = wd.torsion(()), wd.covd_J(())
        t_h = np.einsum("nmec,nea,nbm->nabc", tv, td.jv, td.bv)
        b_t = np.einsum("nmbc,nma->nabc", djc, td.bv)
        res_t5.append((hyp, ident_res(phi, t_h + b_t)))
        coupling_ok = coupling_ok and (
            (zero_res(phi) <= tol_c) == (zero_res(t_h + b_t) <= tol_c)
        )
    e5 = _witness_entry("teo5", ctx.dim, res_t5, tol_c,
                        notes="witness: metric conjugate of the twin-metric parallel connection")
    if not coupling_ok and e5.status == "pass":
        e5.status = "fail"
        e5.notes += "; vanish-together coupling violated"
    return [e5]


@family("verify_section4", "cor8")
def _cor8(ctx):
    # cyclic holomorphicity sum against the torsion / derivative combination
    # on quasi-statistical witnesses
    res_c8 = []
    for t in range(ctx.witness_trials):
        td = ctx.trial(NORDEN, t)
        wd, hyp = _quasi_statistical_witness(ctx, td, t, 33)
        phi = tachibana_values(td.model.J, td.model.metric, td.pts)
        lhs = cyclic_sum_03(phi)
        tv, djc, hv, jv = wd.torsion(()), wd.covd_J(()), td.bv, td.jv
        rhs = (np.einsum("nmec,nea,nbm->nabc", tv, jv, hv)
               + np.einsum("nmea,neb,ncm->nabc", tv, jv, hv)
               + np.einsum("nmeb,nec,nam->nabc", tv, jv, hv)
               + np.einsum("nmca,nbm->nabc", djc, hv)
               + np.einsum("nmab,ncm->nabc", djc, hv)
               + np.einsum("nmbc,nam->nabc", djc, hv))
        res_c8.append((hyp, ident_res(lhs, rhs)))
    return [_witness_entry("cor8", ctx.dim, res_c8, TOLERANCES["conclusion"])]


@family("verify_section4", "theolast")
def _theolast(ctx):
    # the cyclic holomorphicity sum and the defining cyclic sum vanish
    # together (and in fact agree) under the metric's own connection
    r_tl, couple_ok = [], True
    tol = TOLERANCES["coupling"]
    for t in range(ctx.trials):
        td = ctx.trial(NORDEN, t)
        s_phi = cyclic_sum_03(tachibana_values(td.model.J, td.model.metric, td.pts))
        s_def = quasi_kahler_norden_sum_values(td.model.metric, td.model.J, td.pts)
        r_tl.append(ident_res(s_phi, s_def))
        a, b = zero_res(s_phi), zero_res(s_def)
        couple_ok = couple_ok and ((a <= tol and b <= tol) or (a >= 10 * tol and b >= 10 * tol))
    e_tl = _identity_entry("theolast", ctx.dim, ctx.trials, r_tl, TOLERANCES["identity"],
                           notes="sums also agree termwise under the metric connection")
    if not couple_ok:
        e_tl.status = "fail"
        e_tl.notes += "; vanish-together coupling violated"
    return [e_tl]


def _pro14_unconditional_residual(td: TrialData) -> float:
    phi = tachibana_values(td.model.J, td.model.metric, td.pts)
    hv, jv = td.bv, td.jv
    dh = td.covd_metric((), "metric")
    djc = td.covd_J(())
    tv = td.torsion(())
    t1 = np.einsum("nma,nmbc->nabc", jv, dh)
    t2 = np.einsum("nabm,nmc->nabc", dh, jv)
    term3 = np.einsum("nmab,nai,nmc->nibc", tv, jv, hv)
    term4 = np.einsum("nmab,nmd,ndc->nabc", tv, hv, jv)
    term5 = np.einsum("nmba,nmc->nabc", djc, hv)
    term6 = np.einsum("nmca,nbm->nabc", djc, hv)
    term7 = np.einsum("nmac,nbm->nabc", djc, hv)
    term8 = (np.einsum("nmec,nea,nbm->nabc", tv, jv, hv)
             - np.einsum("nme,neac,nbm->nabc", jv, tv, hv))
    rhs = t1 - t2 + term3 - term4 + term5 + term6 - term7 + term8
    return ident_res(phi, rhs)


def _pro14_conditional_residual(wd: TrialData) -> float:
    phi = tachibana_values(wd.model.J, wd.model.metric, wd.pts)
    hv, jv = wd.bv, wd.jv
    dh = wd.covd_metric((), "metric")
    djc = wd.covd_J(())
    tv = wd.torsion(())
    # (D_{x2}h)(J x1, x3) - (D_{x2}h)(x1, J x3)
    p1 = np.einsum("nbmc,nma->nabc", dh, jv) - np.einsum("nbam,nmc->nabc", dh, jv)
    p2 = np.einsum("nmba,nmc->nabc", djc, hv)
    p3 = np.einsum("nmca,nbm->nabc", djc, hv)
    p4 = np.einsum("nmac,nbm->nabc", djc, hv)
    p5 = (np.einsum("nmec,nea,nbm->nabc", tv, jv, hv)
          - np.einsum("nme,neac,nbm->nabc", jv, tv, hv))
    rhs = p1 + p2 + p3 - p4 + p5
    return ident_res(phi, rhs)


# negative controls


def _control(ctx, fl, prop_id, notes, fails_on):
    """Control entry over the ``fl`` trials; its residual is the fraction of
    trials where ``fails_on(td)`` (the conclusion failing) is false."""
    fails = sum(1 for t in range(ctx.trials) if fails_on(ctx.trial(fl, t)))
    frac = fails / ctx.trials if ctx.trials else 0.0
    return EntryResult(
        prop_id=prop_id, dim=ctx.dim, direction="negative-control", trials=ctx.trials,
        max_residual=float(1.0 - frac), tolerance=0.1,
        status="pass" if frac >= 0.9 else "fail",
        notes=f"{notes}; violated-hypothesis conclusion failed in {frac:.0%} of trials",
    )


@family("verify_negative_controls", "neg.GAD1.i", "neg.pro2")
def _neg_hermitian(ctx):
    thresh = TOLERANCES["negative"]
    out = [_control(ctx, HERMITIAN, "neg.GAD1.i",
                    "unclosed structure derivative must leave conjugate torsion",
                    lambda td: (zero_res(td.d_J(())) >= thresh
                                and zero_res(td.torsion(("jconj",))) >= thresh))]
    if ctx.dim == 2:
        return out + [EntryResult(
            prop_id="neg.pro2", dim=2, direction="negative-control", trials=0,
            max_residual=0.0, tolerance=thresh, status="not-applicable",
            notes="vacuous on two-dimensional charts (every structure is integrable)",
        )]

    def unprojected(td):
        tv, jv = td.torsion(()), td.jv
        return (zero_res(_j1(tv, jv) + _j2(tv, jv)) >= thresh
                and zero_res(td.nijenhuis()) >= thresh)
    return out + [_control(ctx, HERMITIAN, "neg.pro2",
                           "unprojected torsion with a generic structure", unprojected)]


@twin(lambda fl: [fl.id("neg")], section="verify_negative_controls")
def _neg_flatness(ctx, fl):
    # neg.cor4.i / neg.cor7.ii
    thresh = TOLERANCES["negative"]
    return [_control(ctx, fl, fl.id("neg"), "torsion-bearing symbols must break the conjugate "
                     "flatness", lambda td: zero_res(td.d_metric(("star",), "metric")) >= thresh)]


SECTION2_IDS, SECTION3_IDS, SECTION4_IDS, NEGATIVE_IDS = (
    tuple(i for f in FAMILIES if f.section == section for i in f.ids) for section in SECTIONS)
ALL_IDS = SECTION2_IDS + SECTION3_IDS + SECTION4_IDS + NEGATIVE_IDS


def run_full_suite(seed: int = 0, trials: int = 30, dims=(2, 4), degree: int = 2,
                   only: tuple = ()) -> SuiteReport:
    """Run the registry over the requested dimensions.

    ``dims`` lists distinct dimensions from 2, 4 and 6.  ``only`` selects
    entry ids by exact match or prefix: only the families that own a
    selected id run, so the cost scales with the selection, and the report
    keeps only the selected ids.  Unknown filters raise ``QsgError``
    listing the valid vocabulary.
    """
    dims = tuple(int(d) for d in dims)
    if not dims:
        raise QsgError("no dimension given; choose from 2, 4, 6")
    for d in dims:
        if d not in (2, 4, 6):
            raise QsgError(f"unsupported dimension {d}; choose from 2, 4, 6")
        if dims.count(d) > 1:
            raise QsgError(f"dimension {d} is listed more than once")

    def selected(entry_id: str) -> bool:
        return not only or any(entry_id == o or entry_id.startswith(o + ".") for o in only)

    for o in only:
        if not any(i == o or i.startswith(o + ".") for i in ALL_IDS):
            raise QsgError(f"unknown proposition id {o!r}; valid ids: {', '.join(ALL_IDS)}")
    families = [f for f in FAMILIES if any(map(selected, f.ids))]
    report = SuiteReport(seed=seed, trials=trials, dims=dims)
    for dim in dims:
        ctx = SectionContext(seed=seed, dim=dim, trials=trials, degree=degree)
        for section in SECTIONS:
            chosen = [f for f in families if f.section == section]
            if chosen:
                # looked up by name at each call, so wrappers installed on
                # this module's attributes (perfbench/tracing.py) see it
                entries = globals()[section](ctx, chosen)
                report.entries.extend(e for e in entries if selected(e.prop_id))
    return report
