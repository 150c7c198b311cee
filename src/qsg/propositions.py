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
per trial) is a function ``run(ctx) -> [entry, one per id]``, each entry the
dict ``_entry`` builds, decorated with ``@family(section_runner_name,
*ids)``.  A Hermitian result mirrored with a sign for Norden pairs is a
twin: one body ``run(ctx, fl)`` reads trial data, sign and ids from the
``Flavor`` ``fl`` and is decorated with ``@twin(lambda fl: ids)``,
registering it once per flavor.  Families share
only ``SectionContext`` caches, so ``run_full_suite(only=...)`` can run just
the families owning a selected id and report what a full run does.

A family body is a map from a trial to residuals.  ``_identities`` runs
``td -> {id: residual}`` over the random trials and ``_witnesses`` runs
``(row, {id: conclusion(witness)})`` over the witness trials, each ``Row``
built and scored by ``_witness``; what is particular to one result (a
folded identity, a vanish-together flag, a note) follows the call, and a
failed check marks the entry through ``_downgrade``.  Every array a body
reads, and every conclusion a witness entry scores, comes from
``model.ModelAt``, the evaluator ``check`` and ``synthesize`` read through
too, here one model at a trial's frozen points: a witness is the trial's
model with its own connection beside it, and each evaluator memoizes, in
its one memo, the torsions and derivatives per connection op-tuple and the
Nijenhuis and holomorphicity operators.  Memoized arrays are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import sampling
from .calculus import (
    LeviCivitaConnection,
    PolyConnection,
    exterior_d2_connection_expansion,
    exterior_d2_values,
)
from .connections import KLEIN_TOL, BilinearConjugateConnection, klein_table
from .contraction import contract
from .errors import QsgError
from .fields import ChartDomain, PolyTensorField
from .generate import (
    CONSTRAINTS,
    GenSpec,
    gen_almost_complex,
    gen_connection,
    gen_constant_structure_model,
    gen_hermitian_metric,
    gen_kahler_model,
    gen_norden_metric,
    gen_vishnevskii_zero_connection,
    random_poly_field,
    synthesize_connection,
)
from .model import ChartModel, ModelAt, flat_hermitian_model
from .predicates import PREDICATES
from .structures import (
    PURITY_SIGN,
    _bt,
    _jfirst,
    _jout,
    _slot3,
    _tb,
    codazzi_defect,
    cyclic_sum_03,
    ident_res,
    j_invariance_defect,
    quasi_kahler_norden_sum_values,
    torsion_compat,
    vishnevskii_jframe_values,
    vishnevskii_on_fields,
)

TOLERANCES = {
    "kernel_identity": 1e-9,
    "identity": 1e-8,
    "klein": KLEIN_TOL,
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
    tags: tuple  # sub-seed tags: trial structure and metric, trial symbols, pro3 witness
    prefixes: dict  # twin family -> id prefix
    cor_positions: dict  # cor item -> (derivative ops, torsion ops)
    pro3_notes: dict  # pro3 item -> placement note (the Hermitian report only)

    # the partner form b(J., .) (2-form or twin metric) has derivative
    # sign * the metric's derivative with J in the last slot
    @property
    def sign(self) -> float:
        return -PURITY_SIGN[self.name]

    def id(self, twin_family: str, item: str = "") -> str:
        prefix = self.prefixes[twin_family]
        return f"{prefix}.{item}" if item else prefix


HERMITIAN = Flavor(
    name="hermitian", section="verify_section3", tags=(1, 2, 21),
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
    name="norden", section="verify_section4", tags=(3, 4, 31),
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
    def run(ctx: SectionContext, families: list) -> list:
        return [e for f in families for e in f.run(ctx)]
    run.__name__ = run.__qualname__ = section
    run.__doc__ = SECTIONS[section] + "  Runs the given ``families`` of this section."
    return run


verify_section2, verify_section3, verify_section4, verify_negative_controls = map(
    _section_runner, SECTIONS)


# ---------------------------------------------------------------------------
# residual helpers


def zero_res(arr: np.ndarray) -> float:
    return float(np.abs(arr).max())


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
        self._data = {}
        self._points = {}

    def _sub_seed(self, *path) -> int:
        return int(sampling.rng(self.seed, _T_TRIAL, self.dim, *path).integers(2 ** 62))

    def points(self, trial: int) -> np.ndarray:
        """The trial's sample points, frozen (read-only): they live for the
        whole section and are never written, so every field evaluated at
        them keeps its values and jets there (``fields._memo_frozen``)."""
        if trial not in self._points:
            self._points[trial] = sampling.sample_box(
                ChartDomain.cube(self.dim).box, _N_PTS, self.seed, _T_PTS, self.dim, trial,
            )
            self._points[trial].flags.writeable = False
        return self._points[trial]

    def spec(self, trial: int, tag: int) -> GenSpec:
        return GenSpec(seed=self._sub_seed(trial, tag), dimension=self.dim, degree=self.degree)

    def rng(self, trial: int, tag: int):
        return sampling.rng(self.seed, _T_TRIAL, self.dim, trial, tag)

    def _trial_data(self, kind: str, trial: int, make_model) -> ModelAt:
        if (kind, trial) not in self._data:
            self._data[kind, trial] = ModelAt(make_model(), self.points(trial))
        return self._data[kind, trial]

    def trial(self, fl: Flavor, trial: int) -> ModelAt:
        """Random structure, ``fl`` metric and symbols of one trial."""
        def make():
            spec = self.spec(trial, fl.tags[0])
            J = gen_almost_complex(spec)
            # chosen by global name at each call, so wrappers installed on
            # this module's attributes (perfbench/tracing.py) see the call
            gen_metric = gen_hermitian_metric if fl.name == "hermitian" else gen_norden_metric
            metric = gen_metric(spec, J)
            conn = PolyConnection(
                random_poly_field(self.rng(trial, fl.tags[1]), self.dim, (1, 2), self.degree, 1.0)
            )
            return ChartModel(domain=ChartDomain.cube(self.dim), metric=metric, J=J, conn=conn)
        return self._trial_data(fl.name, trial, make)

    def kahler(self, trial: int) -> ModelAt:
        """Sheared Kahler model of one witness trial, without symbols."""
        return self._trial_data("kahler", trial, lambda: gen_kahler_model(self.spec(trial, 5)))

    def constant(self, trial: int) -> ModelAt:
        """Constant-structure Hermitian model of one witness trial, without
        symbols."""
        return self._trial_data("constant", trial, lambda: gen_constant_structure_model(
            self.spec(trial, 6), "hermitian"))

    def integrable(self, trial: int) -> ModelAt:
        """Integrable structure of one witness trial: in dimension 2 a random
        one alone (every one is), above it the sheared Kahler model."""
        if self.dim > 2:
            return self.kahler(trial)
        return self._trial_data("structure", trial, lambda: ChartModel(
            domain=ChartDomain.cube(2), J=gen_almost_complex(self.spec(trial, 11))))


# ---------------------------------------------------------------------------
# entry assembly helpers


def _worst(residuals) -> float:
    """Largest residual, NaN if any is NaN (``max`` skips a NaN or not
    depending on where it sits in the list); 0.0 for none."""
    return float(np.max(residuals)) if len(residuals) else 0.0


def _entry(prop_id, dim, direction, trials, max_residual, tolerance, status,
           hyp_residual=None, notes="") -> dict:
    """One registry entry at one dimension, the dict ``qsg verify`` prints.

    ``direction`` is identity, witness or negative-control.  ``status`` is
    one of pass; fail; witness-unavailable (no witness met the hypothesis
    tolerance); inconclusive-witness (teo2 found only torsion-free
    witnesses); not-applicable (a vacuous control).  ``hyp_residual`` is
    the worst hypothesis residual of the witnesses used, None for entries
    without one.  ``run_full_suite`` adds ``pass``, true unless the status
    is fail.
    """
    return {"id": prop_id, "dim": dim, "direction": direction, "trials": trials,
            "max_residual": max_residual, "tolerance": tolerance, "status": status,
            "hyp_residual": hyp_residual, "notes": notes}


def _identity_entry(prop_id, dim, trials, residuals, tol):
    r = _worst(residuals)
    return _entry(prop_id, dim, "identity", trials, r, tol, "pass" if r <= tol else "fail")


def _collect(n: int, rows_of) -> dict:
    """{id: rows} over trials ``0..n-1`` of ``rows_of(t) -> {id: row}``."""
    per_id = {}
    for t in range(n):
        for prop_id, r in rows_of(t).items():
            per_id.setdefault(prop_id, []).append(r)
    return per_id


def _identities(ctx: SectionContext, fl: Flavor, tol: float, residuals) -> list:
    """Identity entries from ``residuals(td) -> {id: residual}`` over the
    ``fl`` trials."""
    per_id = _collect(ctx.trials, lambda t: residuals(ctx.trial(fl, t)))
    return [_identity_entry(i, ctx.dim, ctx.trials, rs, tol) for i, rs in per_id.items()]


def _witness_entry(prop_id, dim, results, tol):
    """results: list of (hyp_residual, conclusion_residual); hypothesis
    failures downgrade to witness-unavailable instead of fail, but a
    non-finite residual anywhere fails the entry over all trials."""
    res = np.asarray(results, dtype=float).reshape(-1, 2)
    finite = bool(np.all(np.isfinite(res)))
    usable = res[res[:, 0] <= TOLERANCES["hypothesis"]] if finite else res
    if not len(usable):
        return _entry(prop_id, dim, "witness", len(results), 0.0, tol, "witness-unavailable",
                      _worst(res[:, 0]), "no witness met the hypothesis tolerance")
    worst_c = _worst(usable[:, 1])
    return _entry(prop_id, dim, "witness", len(results), worst_c, tol,
                  "pass" if finite and worst_c <= tol else "fail",
                  _worst(usable[:, 0]), "" if finite else "non-finite residual")


class Row(NamedTuple):
    """One witness: a closed-form ``recipe`` on ``base``, or without one a fit
    of ``hyp`` at ansatz ``degree`` (default: the witness degree)."""

    base: object  # a Flavor (its trial) or a SectionContext method of a trial
    hyp: tuple  # generate.CONSTRAINTS names; a recipe row adds maps (witness, t) -> array
    tag: int | None = None  # sub-seed tag of the recipe or fit
    recipe: str | Callable | None = None  # gen_connection constraint, or (spec, base) -> conn
    degree: int | None = None
    anchor: float = 0.3  # scale of the fit's random anchor


def _witness(ctx: SectionContext, row: Row, t: int):
    """(hypothesis residual, witness ``ModelAt``) of ``row`` at trial ``t``."""
    base = ctx.trial(row.base, t) if isinstance(row.base, Flavor) else row.base(ctx, t)
    if row.recipe is None:
        degree = ctx.witness_degree if row.degree is None else row.degree
        conn, fit = synthesize_connection(base.model, list(row.hyp),
                                          seed=ctx._sub_seed(t, row.tag),
                                          ansatz_degree=degree, anchor_scale=row.anchor)
        return fit["residual"], base.with_conn(conn)
    spec = None if row.tag is None else ctx.spec(t, row.tag)
    wd = base.with_conn(gen_connection(spec, row.recipe, J=base.model.J, metric=base.model.metric)
                        if isinstance(row.recipe, str) else row.recipe(spec, base))
    return _worst([zero_res(CONSTRAINTS[h].residual(wd) if isinstance(h, str) else h(wd, t))
                   for h in row.hyp]), wd


def _witnesses(ctx: SectionContext, tol, *rows, given: dict | None = None) -> list:
    """Witness entries from ``(row, {id: conclusion(witness)})`` pairs over the
    witness trials, after the ``given`` ``{id: [(hyp, concl)]}``; ``tol`` is
    one tolerance or a dict of them by id."""
    per_id = {i: list(rs) for i, rs in (given or {}).items()}
    for t in range(ctx.witness_trials):
        for row, conclusions in rows:
            hyp, wd = _witness(ctx, row, t)
            for i, conclusion in conclusions.items():
                per_id.setdefault(i, []).append((hyp, conclusion(wd)))
    return [_witness_entry(i, ctx.dim, rs, tol[i] if isinstance(tol, dict) else tol)
            for i, rs in per_id.items()]


def _lead_note(entry: dict, text: str):
    """Put ``text`` before the notes the entry assembly wrote (the status
    notes of a witness entry)."""
    entry["notes"] = f"{text} {entry['notes']}".strip()


def _downgrade(entry: dict, ok, reason: str = "", status: str = "fail"):
    """Unless ``ok``, give the entry ``status`` and add ``reason`` to its notes."""
    if not ok:
        entry["status"] = status
        if reason:
            entry["notes"] += f"; {reason}"


def _fold_identity(entry: dict, residuals, tol):
    """Merge identity residuals into a witness entry: the maximum covers
    both, and a failing or non-finite identity fails the entry."""
    worst = _worst(residuals)
    entry["max_residual"] = _worst([entry["max_residual"], worst])
    _downgrade(entry, worst <= tol)


def _swap_lower(bv, a):
    """b(x_j, A_i x_k) - b(x_i, A_j x_k) for ``a[n, m, i, k] = (A_i)^m_k``."""
    x = contract("njm,nmik->nijk", bv, a)
    return x - np.swapaxes(x, 1, 2)


def _pro3_correction(td: ModelAt, ops: tuple):
    """b(x_j, (B_{x_i} J) x_k) - b(x_i, (B_{x_j} J) x_k) for B = conn(ops)."""
    return _swap_lower(td.bv, td.covd_J(ops))


def _jshift_correction(td: ModelAt, which: str):
    """b(x_j, J^{-1}(D_{x_i} J) x_k) - b(x_i, J^{-1}(D_{x_j} J) x_k)."""
    return _swap_lower(td.bv if which == "metric" else td.pv, -_jout(td.jv, td.covd_J(())))


def _partner_shift(td: ModelAt, fl: Flavor, ops_p: tuple, ops_b: tuple) -> float:
    """The partner form's d^D under ``conn(ops_p)`` against ``fl.sign`` times
    the metric's under ``conn(ops_b)`` with J in the last slot."""
    return ident_res(td.d_metric(ops_p, "partner"),
                     fl.sign * _slot3(td.d_metric(ops_b, "metric"), td.jv))


def _jshift_residual(td: ModelAt, which: str) -> float:
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
        jv, tv = td.jv, td.torsion()
        return {
            "GAD1.i": ident_res(td.d_J(), _jout(jv, td.torsion(("jconj",)))),
            "GAD1.ii": ident_res(td.d_J(("jconj",)), _jout(jv, tv)),
            "GAD1.iii": ident_res(td.d_J() - td.d_J(("jconj",)), codazzi_defect(td.covd_J())),
            "sec2.closing": ident_res(torsion_compat(td.d_J(), jv),
                                      j_invariance_defect(tv, jv) - td.nijenhuis),
        }
    return _identities(ctx, HERMITIAN, TOLERANCES["kernel_identity"], residuals)


@family("verify_section2", "lem1")
def _lem1(ctx):
    # on d-closed witnesses the integrability obstruction reduces to the
    # structure-twisted torsion combination
    def reduction(wd):
        return ident_res(wd.nijenhuis, -_jout(wd.jv, torsion_compat(wd.torsion(), wd.jv)))
    return _witnesses(ctx, TOLERANCES["identity"], (
        Row(HERMITIAN, ("d_closed_J",), 10, "d_closed_J"), {"lem1": reduction}))


@family("verify_section2", "pro2", "sec2.cor3")
def _pro2(ctx):
    # witnesses carry exactly closed structures with compatible torsion, so
    # the obstruction must vanish; sec2.cor3 states the closedness as a
    # torsion-free structure conjugate, on witnesses from the same recipe
    # and sub-seed
    row = Row(SectionContext.integrable, ("torsion_compatible", "d_closed_J"), 12, "d_closed_J")
    cor3 = row._replace(hyp=("torsion_compatible", lambda wd, t: wd.torsion(("jconj",))))
    return _witnesses(ctx, TOLERANCES["conclusion"],
                      (row, {"pro2": lambda wd: zero_res(wd.nijenhuis)}),
                      (cor3, {"sec2.cor3": lambda wd: zero_res(wd.nijenhuis)}))


@family("verify_section2", "sec2.compat_equiv")
def _compat_equiv(ctx):
    # projected torsions satisfy both forms; generic torsions violate both
    # together
    tol, agree = TOLERANCES["identity"], []

    def residuals(t):
        td = ctx.trial(HERMITIAN, t)
        tp = td.with_conn(gen_connection(ctx.spec(t, 13), "j_invariant_torsion",
                                         J=td.model.J)).torsion()
        tr = td.torsion()
        agree.append((zero_res(torsion_compat(tr, td.jv)) <= tol)
                     == (zero_res(j_invariance_defect(tr, td.jv)) <= tol))
        return [zero_res(torsion_compat(tp, td.jv)), zero_res(j_invariance_defect(tp, td.jv))]
    entry = _identity_entry("sec2.compat_equiv", ctx.dim, ctx.trials,
                            [r for t in range(ctx.trials) for r in residuals(t)],
                            TOLERANCES["kernel_identity"])
    _lead_note(entry, "vacuous on two-dimensional charts (tr J = 0 and det J = 1, so every "
               "torsion satisfies both forms)" if ctx.dim == 2
               else "projected torsions satisfy both equivalent forms")
    _downgrade(entry, all(agree), "the two forms disagreed on a random torsion")
    return [entry]


@family("verify_section2", "sec2.vishnevskii")
def _vishnevskii(ctx):
    # vanishing coupling operator forces the twisted-closedness identity;
    # witnesses need a constant structure (nonconstant ones obstruct the
    # twisted-frame conditions for every connection)
    def random_first_slot(wd, t):
        # tensorial first slot: random-field arguments add no freedom
        x_rand = random_poly_field(ctx.rng(t, 15), ctx.dim, (1, 0), ctx.degree, 1.0)
        frames = PolyTensorField.constant(ctx.dim, (1, 0), np.eye(ctx.dim)[0])
        return vishnevskii_on_fields(wd.conn(), wd.model.J, x_rand, frames, wd.pts)

    def closedness(wd):
        lhs = torsion_compat(wd.d_J(), wd.jv)
        return ident_res(lhs, _jout(wd.jv, torsion_compat(wd.torsion(), wd.jv)))
    (entry,) = _witnesses(ctx, TOLERANCES["conclusion"], (
        Row(SectionContext.constant, ("vishnevskii_zero", random_first_slot), 14,
            lambda spec, base: gen_vishnevskii_zero_connection(spec, base.model.J)),
        {"sec2.vishnevskii": closedness}))
    # the twisted-frame array the hypothesis reads is the operator on
    # (x_i, J x_j): checked where the structure is not constant
    _fold_identity(entry, [_jframe_residual(ctx.trial(HERMITIAN, t)) for t in range(ctx.trials)],
                   TOLERANCES["kernel_identity"])
    return [entry]


def _jframe_residual(td: ModelAt) -> float:
    """``vishnevskii_jframe_values`` against ``vishnevskii_on_fields`` on
    each pair of a frame field and a structure-twisted frame field."""
    J, conn, d = td.model.J, td.conn(), td.model.dimension
    frames = [PolyTensorField.constant(d, (1, 0), e) for e in np.eye(d)]
    # J e_j is J's j-th coefficient column
    twisted = [PolyTensorField(d, (1, 0), exps=J.exps, coefs=J.coefs[:, :, j])
               for j in range(d)]
    on_fields = np.stack([np.stack([vishnevskii_on_fields(conn, J, x, y, td.pts) for y in twisted],
                                   axis=-1) for x in frames], axis=-2)
    return ident_res(vishnevskii_jframe_values(conn, J, td.pts), on_fields)


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
        r_lem2.append(ident_res(exterior_d2_values(w, pts),
                                exterior_d2_connection_expansion(w, conn, pts)))
    return [_identity_entry("lem2", ctx.dim, ctx.trials, r_lem2, TOLERANCES["kernel_identity"])]


PRO3_ITEMS = ("i", "ii", "iii", "iv", "v", "vi")


@twin(lambda fl: [fl.id("pro3", k) for k in PRO3_ITEMS])
def _pro3(ctx, fl):
    # pro3 / antipro3: one unconditional correction identity plus the
    # per-item collapse on Codazzi-coupled witnesses
    def identities(t):
        td = ctx.trial(fl, t)
        corr = _worst([ident_res(td.d_metric(ops, "partner"), fl.sign * (
            _slot3(td.d_metric(ops, "metric"), td.jv) + _pro3_correction(td, ops)))
            for ops in ((), ("star",))])
        return {"corr": corr, "v": _jshift_residual(td, "partner"),
                "vi": _jshift_residual(td, "metric")}
    ident = _collect(ctx.trials, identities)

    # witnesses: D Codazzi-coupled to J; the statement connection is D or a
    # conjugate of D depending on where each item places the hypothesis
    alt = []

    def collapse(ops):
        return lambda wd: _partner_shift(wd, fl, ops, ops)

    def item_i(wd):
        # alternate placement for item (i): hypothesis moved onto the
        # conjugate pair makes the statement connection the witness itself,
        # whose coupling is generically broken, so this should stay large
        alt.append(collapse(())(wd))
        return collapse(("star",))(wd)

    # stated placements; items (iii)-(vi) put the hypothesis on a
    # conjugate, so their statement connection is the matching conjugate
    # of the coupled witness
    concl = {
        "i": item_i if fl.pro3_notes else collapse(("star",)), "ii": collapse(("dagger",)),
        "iii": collapse(("star",)), "iv": collapse(("dagger",)),
        "v": lambda wd: ident_res(wd.d_metric(("dagger", "jconj"), "partner"),
                                  wd.d_metric(("dagger",), "partner")),
        "vi": lambda wd: ident_res(wd.d_metric(("star", "jconj"), "metric"),
                                   wd.d_metric(("star",), "metric")),
    }
    out = _witnesses(ctx, TOLERANCES["conclusion"], (
        Row(fl, ("codazzi_J",), fl.tags[2], degree=1),
        {fl.id("pro3", k): concl[k] for k in PRO3_ITEMS}))
    for k, e in zip(PRO3_ITEMS, out):
        _lead_note(e, fl.pro3_notes.get(k, ""))
        _fold_identity(e, ident.get(k, ident["corr"]), TOLERANCES["identity"])
        if fl.pro3_notes and k in ("i", "ii"):
            # the hypothesis-on-the-conjugate reading stays O(1) on the
            # same witnesses, so the stated placement is the working one
            e["notes"] += f"; alternate hypothesis placement residual {_worst([0.0, *alt]):.2e}"
    return out


@twin(lambda fl: [fl.id("klein")])
def _klein(ctx, fl):
    # teo1.klein / sec4.klein: the Klein table of the conjugations
    return _identities(ctx, fl, TOLERANCES["klein"], lambda td: {
        fl.id("klein"): _worst(list(klein_table(td).values()))})


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
            out[fl.id("pro4", k)] = _partner_shift(td, fl, ops_p, ops_b)
        # metric derivative of a conjugate equals a lowered torsion
        for k, (ops_d, ops_t) in fl.cor_positions.items():
            out[fl.id("cor", k)] = ident_res(td.d_metric(ops_d, "metric"),
                                             _tb(td.torsion(ops_t), td.bv))
        # three base identities at each position
        for k, b in PRO5_BASES.items():
            lowered = _tb(td.torsion(b + ("dagger",)), td.pv)
            a1 = ident_res(td.d_metric(b, "partner"), lowered)
            a2 = ident_res(_tb(td.d_J(b + ("star",)), td.bv), lowered)
            # the structure conjugate through its Klein-equivalent chain: at
            # b = () the direct one would restate pro4.ii / pro12.ii
            a3 = _partner_shift(td, fl, b, b + ("star", "dagger"))
            out[fl.id("pro5", k)] = _worst([a1, a2, a3])
        return out
    return _identities(ctx, fl, TOLERANCES["identity"], residuals)


@family("verify_section3", "sec3.cyclic", "lem3", "sec3.two_of_three")
def _cyclic(ctx):
    # cyclic-sum relation on jointly flat-and-closed witnesses; the same
    # witnesses serve lem3 and the first pairing of two-of-three, whose
    # other two pairings get witnesses of their own
    def cyclic(wd):
        return ident_res(cyclic_sum_03(wd.d_metric(("jconj",), "metric")),
                         cyclic_sum_03(_bt(wd.bv, wd.torsion())))
    tol = TOLERANCES["conclusion"]
    closed = SectionContext.constant if ctx.dim > 2 else SectionContext.kahler
    row = Row(closed, ("quasi_statistical_g", "d_closed_J"), 22)
    cyc, lem3, two_of_three = _witnesses(ctx, {
        "sec3.cyclic": tol, "lem3": tol, "sec3.two_of_three": TOLERANCES["strict_conclusion"],
    }, (row, {"sec3.cyclic": cyclic,
              "lem3": lambda wd: zero_res(exterior_d2_values(wd.partner, wd.pts)),
              "sec3.two_of_three": lambda wd: zero_res(wd.covd_metric(("star",), "partner"))}),
        (Row(closed, ("d_closed_J", "conjugate_partner_parallel"), 24),
         {"sec3.two_of_three": lambda wd: zero_res(wd.d_metric())}),
        (Row(closed, ("quasi_statistical_g", "conjugate_partner_parallel"), 25),
         {"sec3.two_of_three": lambda wd: zero_res(wd.d_J())}))
    _fold_identity(cyc, [_jshift_residual(ctx.trial(HERMITIAN, t), "metric")
                         for t in range(ctx.trials)], TOLERANCES["kernel_identity"])
    _lead_note(two_of_three, "all three pairings tested")
    # contrapositive: on a generic model (2-form not closed) the same
    # constraint set admits no witness
    _lead_note(lem3, "contrapositive: no witness exists when the 2-form is not closed")
    td0 = ctx.trial(HERMITIAN, 0)
    if zero_res(exterior_d2_values(td0.partner, td0.pts)) > 1e-4:
        hyp0, _ = _witness(ctx, row._replace(base=HERMITIAN, tag=23, degree=2, anchor=0.0), 0)
        _downgrade(lem3, hyp0 > TOLERANCES["negative"], "contrapositive check failed")
    return [cyc, lem3, two_of_three]


@family("verify_section3", "teo2")
def _teo2(ctx):
    # flat model, torsion-bearing synthesized witnesses, sheared model,
    # each scored by the kahler predicate on its own evaluator
    flat = zero_res(PREDICATES["kahler"](ModelAt(flat_hermitian_model(ctx.dim), ctx.points(0))))
    torsions, hyp = [], ("quasi_statistical_g", "d_closed_J", "j_invariant_torsion")

    def kahler(wd):
        torsions.append(zero_res(wd.torsion()))
        return zero_res(PREDICATES["kahler"](wd))
    # a constant-structure model, then the sheared Kahler model
    (teo2,) = _witnesses(ctx, TOLERANCES["conclusion"],
                         (Row(SectionContext.constant, hyp, 26), {"teo2": kahler}),
                         (Row(SectionContext.kahler, hyp, 27, anchor=0.3 if ctx.dim == 2 else 0.0),
                          {"teo2": kahler}), given={"teo2": [(0.0, flat)]})
    _lead_note(teo2, f"max witness torsion {_worst(torsions):.2e}")
    _downgrade(teo2, teo2["status"] != "pass" or not _worst(torsions) < 1e-6,
               "only torsion-free witnesses found", "inconclusive-witness")
    return [teo2]


@family("verify_section3", "GAD15", "GAD16", "GAD17")
def _averaged(ctx):
    # the averaged connection's metric derivative, and against the
    # conjugate torsions
    gad15 = _identities(ctx, HERMITIAN, TOLERANCES["kernel_identity"], lambda td: {
        "GAD15": ident_res(td.d_metric(("avg",), "metric"),
                           td.d_metric((), "metric") - 0.5 * _jshift_correction(td, "metric"))})

    def residuals(td):
        sum_t = td.torsion(("star",)) + td.torsion(("dagger",))
        lhs = _tb(td.d_J(("star",)) + td.d_J(("dagger",)), td.bv)
        return {"GAD16": ident_res(td.d_metric(("avg",), "metric"), 0.5 * _tb(sum_t, td.bv)),
                "GAD17": ident_res(lhs, _tb(sum_t, td.pv))}
    return gad15 + _identities(ctx, HERMITIAN, TOLERANCES["identity"], residuals)


@family("verify_section3", "GAD15.cor")
def _gad15_cor(ctx):
    # coupled torsion-free witnesses make the average of their metric
    # conjugate flat
    def flat_average(wd):
        sd = wd.with_conn(wd.conn(("star",)))
        return _worst([
            zero_res(sd.torsion(("star",))),
            zero_res(sd.torsion(("dagger",))),
            zero_res(sd.d_metric(("avg",), "metric")),
        ])
    closed = SectionContext.constant if ctx.dim > 2 else SectionContext.kahler
    return _witnesses(ctx, TOLERANCES["conclusion"], (
        Row(closed, ("codazzi_J", "torsion_free"), 28), {"GAD15.cor": flat_average}))


@family("verify_section3", "sec3.cor_final")
def _cor_final(ctx):
    # opposite conjugate torsions, flat average, paired closures vanish
    # together
    def closures(wd):
        paired = wd.d_J(("star",)) + wd.d_J(("dagger",))
        return _worst([zero_res(wd.d_metric(("avg",), "metric")), zero_res(paired)])
    return _witnesses(ctx, TOLERANCES["conclusion"], (
        Row(SectionContext.constant, ("conjugate_torsion_sum",), 29), {"sec3.cor_final": closures}))


# section 4: Norden-only results


@family("verify_section4", "pro14")
def _pro14(ctx):
    # unconditional torsion expansion of the holomorphicity operator, then
    # the flat-derivative collapse on quasi-statistical witnesses
    r14 = [_pro14_unconditional_residual(ctx.trial(NORDEN, t)) for t in range(ctx.trials)]
    (e14,) = _witnesses(ctx, TOLERANCES["strict_conclusion"], (
        Row(NORDEN, ("quasi_statistical_h",), 32, "quasi_statistical_h"),
        {"pro14": _pro14_conditional_residual}))
    _fold_identity(e14, r14, TOLERANCES["identity"])
    return [e14]


@family("verify_section4", "teo5")
def _teo5(ctx):
    # on jointly closed witnesses the holomorphicity operator equals the
    # lowered-torsion / structure-derivative combination, so the two sides
    # vanish together
    tol_c, coupled = TOLERANCES["conclusion"], []

    def expansion(wd):
        phi = wd.tachibana
        t_h = _bt(wd.bv, _jfirst(wd.torsion(), wd.jv))
        b_t = contract("nmbc,nma->nabc", wd.covd_J(), wd.bv)
        coupled.append((zero_res(phi) <= tol_c) == (zero_res(t_h + b_t) <= tol_c))
        return ident_res(phi, t_h + b_t)
    (e5,) = _witnesses(ctx, tol_c, (Row(NORDEN, ("quasi_statistical_h", "d_closed_J"), recipe=(
        lambda spec, base: BilinearConjugateConnection(LeviCivitaConnection(base.partner),
                                                       base.model.metric))), {"teo5": expansion}))
    _lead_note(e5, "witness: metric conjugate of the twin-metric parallel connection")
    _downgrade(e5, all(coupled) or e5["status"] != "pass", "vanish-together coupling violated")
    return [e5]


@family("verify_section4", "cor8")
def _cor8(ctx):
    # cyclic holomorphicity sum against the torsion / derivative combination
    # on quasi-statistical witnesses
    def cyclic(wd):
        tv, djc, hv, jv = wd.torsion(), wd.covd_J(), wd.bv, wd.jv
        rhs = cyclic_sum_03(_bt(hv, _jfirst(tv, jv) + np.swapaxes(djc, 2, 3)))
        return ident_res(cyclic_sum_03(wd.tachibana), rhs)
    return _witnesses(ctx, TOLERANCES["conclusion"], (
        Row(NORDEN, ("quasi_statistical_h",), 33, "quasi_statistical_h"), {"cor8": cyclic}))


@family("verify_section4", "theolast")
def _theolast(ctx):
    # the cyclic holomorphicity sum and the defining cyclic sum vanish
    # together (and in fact agree) under the metric's own connection
    tol, coupled = TOLERANCES["coupling"], []

    def residuals(td):
        s_phi = cyclic_sum_03(td.tachibana)
        lc = td.with_conn(LeviCivitaConnection(td.model.metric))
        s_def = quasi_kahler_norden_sum_values(lc.covd_J(), td.bv)
        a, b = zero_res(s_phi), zero_res(s_def)
        coupled.append((a <= tol and b <= tol) or (a >= 10 * tol and b >= 10 * tol))
        return {"theolast": ident_res(s_phi, s_def)}
    (e_tl,) = _identities(ctx, NORDEN, TOLERANCES["identity"], residuals)
    _lead_note(e_tl, "sums also agree termwise under the metric connection")
    _downgrade(e_tl, all(coupled), "vanish-together coupling violated")
    return [e_tl]


def _pro14_unconditional_residual(td: ModelAt) -> float:
    hv, jv = td.bv, td.jv
    dh = td.covd_metric((), "metric")
    tv = td.torsion(())
    tb = _tb(tv, hv)
    t1 = contract("nma,nmbc->nabc", jv, dh)
    t2 = _slot3(dh, jv)
    term3 = contract("nma,nmbc->nabc", jv, tb)
    term4 = _slot3(tb, jv)
    term5, term6, term7, term8 = _pro14_common_terms(td)
    rhs = t1 - t2 + term3 - term4 + term5 + term6 - term7 + term8
    return ident_res(td.tachibana, rhs)


def _pro14_conditional_residual(wd: ModelAt) -> float:
    dh, jv = wd.covd_metric((), "metric"), wd.jv
    # (D_{x2}h)(J x1, x3) - (D_{x2}h)(x1, J x3)
    p1 = contract("nbmc,nma->nabc", dh, jv) - contract("nbam,nmc->nabc", dh, jv)
    p2, p3, p4, p5 = _pro14_common_terms(wd)
    rhs = p1 + p2 + p3 - p4 + p5
    return ident_res(wd.tachibana, rhs)


def _pro14_common_terms(td: ModelAt) -> tuple:
    """The structure-derivative and torsion terms both pro14 expansions
    share, signs not applied."""
    hv, jv, djc, tv = td.bv, td.jv, td.covd_J(()), td.torsion(())
    return (contract("nmba,nmc->nabc", djc, hv),
            _bt(hv, np.swapaxes(djc, 2, 3)),
            _bt(hv, djc),
            _bt(hv, _jfirst(tv, jv) - _jout(jv, tv)))


# negative controls


def _control(ctx, fl, prop_id, notes, fails_on):
    """Control entry over the ``fl`` trials; its residual is the fraction of
    trials where ``fails_on(td)`` (the conclusion failing) is false."""
    fails = sum(1 for t in range(ctx.trials) if fails_on(ctx.trial(fl, t)))
    frac = fails / ctx.trials if ctx.trials else 0.0
    return _entry(prop_id, ctx.dim, "negative-control", ctx.trials, float(1.0 - frac), 0.1,
                  "pass" if frac >= 0.9 else "fail",
                  notes=f"{notes}; violated-hypothesis conclusion failed in {frac:.0%} of trials")


@family("verify_negative_controls", "neg.GAD1.i", "neg.pro2")
def _neg_hermitian(ctx):
    thresh = TOLERANCES["negative"]
    out = [_control(ctx, HERMITIAN, "neg.GAD1.i",
                    "unclosed structure derivative must leave conjugate torsion",
                    lambda td: (zero_res(td.d_J(())) >= thresh
                                and zero_res(td.torsion(("jconj",))) >= thresh))]
    if ctx.dim == 2 or ctx.degree == 0:
        # every trial structure is integrable, whatever the hypothesis
        why = ("on two-dimensional charts (every structure is integrable)" if ctx.dim == 2
               else "at degree 0 (constant structures are integrable)")
        return out + [_entry("neg.pro2", ctx.dim, "negative-control", 0, 0.0, thresh,
                             "not-applicable", notes=f"vacuous {why}")]

    def unprojected(td):
        return (zero_res(torsion_compat(td.torsion(), td.jv)) >= thresh
                and zero_res(td.nijenhuis) >= thresh)
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
                   only: tuple = ()) -> dict:
    """Run the registry over the requested dimensions; the report ``qsg
    verify`` prints under ``suite``.

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

    for k, o in enumerate(only):
        if not any(i == o or i.startswith(o + ".") for i in ALL_IDS):
            raise QsgError(f"unknown proposition id {o!r}; valid ids: {', '.join(ALL_IDS)}")
        if o in only[:k]:
            raise QsgError(f"entry id {o!r} is listed more than once")
    families = [f for f in FAMILIES if any(map(selected, f.ids))]
    entries = []
    for dim in dims:
        ctx = SectionContext(seed=seed, dim=dim, trials=trials, degree=degree)
        for section in SECTIONS:
            chosen = [f for f in families if f.section == section]
            if chosen:
                # looked up by name at each call, so wrappers installed on
                # this module's attributes (perfbench/tracing.py) see it
                entries += [e for e in globals()[section](ctx, chosen) if selected(e["id"])]
    for e in entries:
        e["pass"] = e["status"] != "fail"
    return {"seed": seed, "trials": trials, "dims": list(dims), "tolerances": dict(TOLERANCES),
            "pass": all(e["pass"] for e in entries),
            "entries": sorted(entries, key=lambda e: (e["id"], e["dim"]))}
