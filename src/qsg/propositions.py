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

Entry ids form the stable vocabulary of the command line ``verify``
subcommand.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

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
    CombinationConnection,
    conjugate_by_bilinear,
    conjugate_by_J,
    klein_table,
)
from .errors import GenerationError, QsgError, SynthesisError
from .fields import PolyTensorField
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
from .model import ChartModel, flat_hermitian_model, flat_norden_model
from .predicates import check as predicate_check
from .structures import (
    MetricField,
    cyclic_sum_03,
    d_nabla_J_values,
    d_nabla_metric_values,
    nijenhuis,
    quasi_kahler_norden_sum_values,
    tachibana_values,
    twin_metric,
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


SECTION2_IDS = (
    "GAD1.i", "GAD1.ii", "GAD1.iii", "lem1", "pro2", "sec2.cor3",
    "sec2.compat_equiv", "sec2.closing", "sec2.vishnevskii",
)
SECTION3_IDS = (
    "lem2",
    "pro3.i", "pro3.ii", "pro3.iii", "pro3.iv", "pro3.v", "pro3.vi",
    "teo1.klein",
    "pro4.i", "pro4.ii", "pro4.iii", "pro4.iv",
    "cor4.i", "cor4.ii", "cor4.iii",
    "pro5.i", "pro5.ii", "pro5.iii", "pro5.iv",
    "sec3.cyclic", "lem3", "teo2", "sec3.two_of_three",
    "GAD15", "GAD15.cor", "GAD16", "GAD17", "sec3.cor_final",
)
SECTION4_IDS = (
    "antipro3.i", "antipro3.ii", "antipro3.iii", "antipro3.iv", "antipro3.v", "antipro3.vi",
    "pro12.i", "pro12.ii", "pro12.iii", "pro12.iv",
    "cor7.i", "cor7.ii", "cor7.iii", "cor7.iv",
    "antipro5.i", "antipro5.ii", "antipro5.iii", "antipro5.iv",
    "pro14", "teo5", "cor8", "theolast", "sec4.klein",
)
NEGATIVE_IDS = ("neg.GAD1.i", "neg.cor4.i", "neg.cor7.ii", "neg.pro2")
ALL_IDS = SECTION2_IDS + SECTION3_IDS + SECTION4_IDS + NEGATIVE_IDS


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
        self.partner = model.partner_form() if model.metric is not None and model.J is not None else None
        self._conns = {(): model.conn}
        self._cache = {}

    @property
    def jv(self):
        return self._memo(("jv",), lambda: self.model.J.values(self.pts))

    @property
    def bv(self):
        return self._memo(("bv",), lambda: self.model.metric.values(self.pts))

    @property
    def pv(self):
        return self._memo(("pv",), lambda: self.partner.values(self.pts))

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
                c = CombinationConnection(
                    [(0.5, base), (0.5, conjugate_by_J(base, self.model.J))]
                )
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
        field = (self.model.metric if which == "metric" else self.partner)
        f = field.field if isinstance(field, MetricField) else field
        return self._memo(
            ("cB", ops, which), lambda: covd_values(self.conn(ops), f, self.pts)
        )

    def nijenhuis(self):
        return self._memo(("N",), lambda: nijenhuis(self.model.J).values(self.pts))


@dataclass
class SectionContext:
    """Per-dimension generation context for one suite run."""

    seed: int
    dim: int
    trials: int
    degree: int = 2
    n_pts: int = 25
    half_width: float = 0.5

    def __post_init__(self):
        self.witness_trials = max(4, self.trials // 3)
        # on constant-structure models every ansatz degree admits exact
        # witnesses, so higher dimensions use the cheaper linear ansatz
        self.witness_degree = 2 if self.dim == 2 else 1
        self._hermitian = {}
        self._norden = {}
        self._kahler = {}
        self._const = {}
        self._points = {}

    def _sub_seed(self, *path) -> int:
        return int(sampling.rng(self.seed, _T_TRIAL, self.dim, *path).integers(2 ** 62))

    def points(self, trial: int) -> np.ndarray:
        if trial not in self._points:
            self._points[trial] = sampling.sample_box(
                [(-self.half_width, self.half_width)] * self.dim,
                self.n_pts, self.seed, _T_PTS, self.dim, trial,
            )
        return self._points[trial]

    def spec(self, trial: int, tag: int) -> GenSpec:
        return GenSpec(seed=self._sub_seed(trial, tag), dimension=self.dim, degree=self.degree)

    def rng(self, trial: int, tag: int):
        return sampling.rng(self.seed, _T_TRIAL, self.dim, trial, tag)

    def hermitian(self, trial: int) -> TrialData:
        if trial not in self._hermitian:
            spec = self.spec(trial, 1)
            J = gen_almost_complex(spec)
            g = gen_hermitian_metric(spec, J, probe_pts=self.points(trial))
            conn = PolyConnection(
                random_poly_field(self.rng(trial, 2), self.dim, (1, 2), self.degree, 1.0)
            )
            model = ChartModel(
                domain=flat_hermitian_model(self.dim, self.half_width).domain,
                metric=g, J=J, conn=conn,
            )
            self._hermitian[trial] = TrialData(model, self.points(trial))
        return self._hermitian[trial]

    def norden(self, trial: int) -> TrialData:
        if trial not in self._norden:
            spec = self.spec(trial, 3)
            J = gen_almost_complex(spec)
            h = gen_norden_metric(spec, J, probe_pts=self.points(trial))
            conn = PolyConnection(
                random_poly_field(self.rng(trial, 4), self.dim, (1, 2), self.degree, 1.0)
            )
            model = ChartModel(
                domain=flat_norden_model(self.dim, self.half_width).domain,
                metric=h, J=J, conn=conn,
            )
            self._norden[trial] = TrialData(model, self.points(trial))
        return self._norden[trial]

    def kahler(self, trial: int) -> ChartModel:
        if trial not in self._kahler:
            self._kahler[trial] = gen_kahler_model(self.spec(trial, 5), self.half_width)
        return self._kahler[trial]

    def constant(self, trial: int, flavor: str) -> ChartModel:
        key = (trial, flavor)
        if key not in self._const:
            self._const[key] = gen_constant_structure_model(
                self.spec(trial, 6 if flavor == "hermitian" else 7), flavor, self.half_width
            )
        return self._const[key]


# ---------------------------------------------------------------------------
# entry assembly helpers


def _worst(residuals) -> float:
    """Largest residual, NaN if any is NaN (``max`` skips a NaN or not
    depending on where it sits in the list); 0.0 for none."""
    return float(np.max(residuals)) if len(residuals) else 0.0


def _identity_entry(prop_id, dim, trials, residuals, tol, notes=""):
    r = _worst(residuals)
    return EntryResult(
        prop_id=prop_id, dim=dim, direction="identity", trials=len(residuals),
        max_residual=r, tolerance=tol,
        status="pass" if r <= tol else "fail", notes=notes,
    )


def _witness_entry(prop_id, dim, results, tol, hyp_tol=None, direction="witness", notes=""):
    """results: list of (hyp_residual, conclusion_residual); hypothesis
    failures downgrade to witness-unavailable instead of fail, but a
    non-finite residual anywhere fails the entry over all trials."""
    hyp_tol = TOLERANCES["hypothesis"] if hyp_tol is None else hyp_tol
    res = np.asarray(results, dtype=float).reshape(-1, 2)
    finite = bool(np.all(np.isfinite(res)))
    usable = res[res[:, 0] <= hyp_tol] if finite else res
    if not len(usable):
        return EntryResult(
            prop_id=prop_id, dim=dim, direction=direction, trials=len(results),
            max_residual=0.0, tolerance=tol, status="witness-unavailable",
            hyp_residual=_worst(res[:, 0]),
            notes=(notes + " no witness met the hypothesis tolerance").strip(),
        )
    worst_c = _worst(usable[:, 1])
    return EntryResult(
        prop_id=prop_id, dim=dim, direction=direction, trials=len(results),
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


def _pro3_correction_h(td: TrialData, ops: tuple):
    """h(x_j, (B_{x_i} J) x_k) - h(x_i, (B_{x_j} J) x_k) for B = conn(ops)."""
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


# ---------------------------------------------------------------------------
# section runners


def verify_section2(ctx: SectionContext) -> list:
    """Identities and witnesses coupling structure conjugation, torsion and
    integrability."""
    out = []
    tolk = TOLERANCES["kernel_identity"]

    r_i, r_ii, r_iii, r_close = [], [], [], []
    for t in range(ctx.trials):
        td = ctx.hermitian(t)
        jv = td.jv
        r_i.append(ident_res(td.d_J(()), _jout(jv, td.torsion(("jconj",)))))
        r_ii.append(ident_res(td.d_J(("jconj",)), _jout(jv, td.torsion(()))))
        cd = td.covd_J(())
        r_iii.append(ident_res(td.d_J(()) - td.d_J(("jconj",)), cd - np.swapaxes(cd, 2, 3)))
        lhs = _j1(td.d_J(()), jv) + _j2(td.d_J(()), jv)
        rhs = _jboth(td.torsion(()), jv) - td.torsion(()) - td.nijenhuis()
        r_close.append(ident_res(lhs, rhs))
    out.append(_identity_entry("GAD1.i", ctx.dim, ctx.trials, r_i, tolk))
    out.append(_identity_entry("GAD1.ii", ctx.dim, ctx.trials, r_ii, tolk))
    out.append(_identity_entry("GAD1.iii", ctx.dim, ctx.trials, r_iii, tolk))
    out.append(_identity_entry("sec2.closing", ctx.dim, ctx.trials, r_close, tolk))

    # lem1: on d-closed witnesses the integrability obstruction reduces to
    # the structure-twisted torsion combination
    res_lem1 = []
    for t in range(ctx.witness_trials):
        td = ctx.hermitian(t)
        d0 = gen_connection(
            GenSpec(seed=ctx._sub_seed(t, 10), dimension=ctx.dim, degree=ctx.degree,
                    constraints=frozenset({"torsion_free"})))
        w = conjugate_by_J(d0, td.model.J)
        jv = td.jv
        hyp = zero_res(d_nabla_J_values(w, td.model.J, td.pts))
        tw = torsion_values(w, td.pts)
        mix = _j2(tw, jv) + _j1(tw, jv)
        concl = ident_res(td.nijenhuis(), -_jout(jv, mix))
        res_lem1.append((hyp, concl))
    out.append(_witness_entry("lem1", ctx.dim, res_lem1, TOLERANCES["identity"]))

    # pro2 + its corollary: witnesses carry exactly closed structures with
    # compatible torsion, so the obstruction must vanish
    res_pro2, res_cor3 = [], []
    for t in range(ctx.witness_trials):
        if ctx.dim == 2:
            spec = ctx.spec(t, 11)
            J = gen_almost_complex(spec)
        else:
            J = ctx.kahler(t).J
        pts = ctx.points(t)
        jv = J.values(pts)
        d0 = gen_connection(
            GenSpec(seed=ctx._sub_seed(t, 12), dimension=ctx.dim, degree=ctx.degree,
                    constraints=frozenset({"torsion_free"})))
        w = conjugate_by_J(d0, J)
        tw = torsion_values(w, pts)
        compat = zero_res(_j1(tw, jv) + _j2(tw, jv))
        closed = zero_res(d_nabla_J_values(w, J, pts))
        n_res = zero_res(nijenhuis(J).values(pts))
        res_pro2.append((max(compat, closed), n_res))
        res_cor3.append((max(compat, zero_res(torsion_values(conjugate_by_J(w, J), pts))), n_res))
    out.append(_witness_entry("pro2", ctx.dim, res_pro2, TOLERANCES["conclusion"]))
    out.append(_witness_entry("sec2.cor3", ctx.dim, res_cor3, TOLERANCES["conclusion"]))

    # torsion-compatibility equivalence: projected torsions satisfy both
    # forms; generic torsions violate both together
    proj_res, agree = [], True
    for t in range(ctx.trials):
        td = ctx.hermitian(t)
        jv = td.jv
        spec = GenSpec(seed=ctx._sub_seed(t, 13), dimension=ctx.dim, degree=ctx.degree,
                       constraints=frozenset({"j_invariant_torsion"}))
        wp = gen_connection(spec, J=td.model.J)
        tp = torsion_values(wp, td.pts)
        f1 = zero_res(_j1(tp, jv) + _j2(tp, jv))
        f2 = zero_res(_jboth(tp, jv) - tp)
        proj_res.extend([f1, f2])
        tr = td.torsion(())
        g1 = zero_res(_j1(tr, jv) + _j2(tr, jv))
        g2 = zero_res(_jboth(tr, jv) - tr)
        tol = TOLERANCES["identity"]
        agree = agree and ((g1 <= tol) == (g2 <= tol))
    entry = _identity_entry("sec2.compat_equiv", ctx.dim, ctx.trials, proj_res, tolk,
                            notes="projected torsions satisfy both equivalent forms")
    if not agree:
        entry.status = "fail"
        entry.notes += "; the two forms disagreed on a random torsion"
    out.append(entry)

    # vanishing coupling operator forces the twisted-closedness identity;
    # witnesses need a constant structure (nonconstant ones obstruct the
    # twisted-frame conditions for every connection)
    res_vish = []
    for t in range(ctx.witness_trials):
        cm = ctx.constant(t, "hermitian")
        pts = ctx.points(t)
        spec = GenSpec(seed=ctx._sub_seed(t, 14), dimension=ctx.dim, degree=ctx.degree)
        w = gen_vishnevskii_zero_connection(spec, cm.J)
        jv = cm.J.values(pts)
        hyp = max(
            zero_res(vishnevskii_frame_values(w, cm.J, pts)),
            zero_res(vishnevskii_jframe_values(w, cm.J, pts)),
        )
        # tensorial first slot: random-field arguments add no freedom
        x_rand = random_vector_field(ctx.rng(t, 15), ctx.dim, ctx.degree, 1.0)
        frames = PolyTensorField.constant(ctx.dim, (1, 0), np.eye(ctx.dim)[0])
        hyp = max(hyp, zero_res(vishnevskii_on_fields(w, cm.J, x_rand, frames, pts)))
        dj = d_nabla_J_values(w, cm.J, pts)
        tw = torsion_values(w, pts)
        lhs = _j1(dj, jv) + _j2(dj, jv)
        rhs = _jout(jv, _j1(tw, jv) + _j2(tw, jv))
        res_vish.append((hyp, ident_res(lhs, rhs)))
    out.append(_witness_entry("sec2.vishnevskii", ctx.dim, res_vish, TOLERANCES["conclusion"]))
    return out


def _codazzi_witness(ctx: SectionContext, td: TrialData, trial: int, tag: int):
    """Synthesize symbols Codazzi-coupled to the trial's structure."""
    model = ChartModel(domain=td.model.domain, metric=td.model.metric, J=td.model.J)
    return synthesize_connection(
        model, ["codazzi_J"], ansatz_degree=1, seed=ctx._sub_seed(trial, tag),
        anchor_scale=0.3,
    )


def verify_section3(ctx: SectionContext) -> list:
    """Hermitian-pair results: 2-form conventions, conjugation chains, the
    Klein table, averaged connections, and the compatible-closure theorem."""
    out = []
    tolk = TOLERANCES["kernel_identity"]
    toli = TOLERANCES["identity"]

    # 2-form convention lock on random antisymmetric forms
    r_lem2 = []
    for t in range(ctx.trials):
        rng = ctx.rng(t, 20)
        w = random_poly_field(rng, ctx.dim, (0, 2), ctx.degree, 1.0)
        w = (w - w.transpose_02()).scale(0.5)
        conn = PolyConnection(random_poly_field(rng, ctx.dim, (1, 2), ctx.degree, 1.0))
        pts = ctx.points(t)
        r_lem2.append(
            ident_res(exterior_d2(w).values(pts),
                      exterior_d2_connection_expansion(w, conn, pts))
        )
    out.append(_identity_entry("lem2", ctx.dim, ctx.trials, r_lem2, tolk))

    # pro3: one unconditional correction identity + per-item witness collapse
    r_corr, r_shift_w, r_shift_g = [], [], []
    for t in range(ctx.trials):
        td = ctx.hermitian(t)
        for ops in ((), ("star",)):
            lhs = td.d_metric(ops, "partner")
            rhs = -_slot3(td.d_metric(ops, "metric"), td.jv) - _pro3_correction_h(td, ops)
            r_corr.append(ident_res(lhs, rhs))
        r_shift_w.append(
            ident_res(td.d_metric(("jconj",), "partner"),
                      td.d_metric((), "partner") - _jshift_correction(td, "partner"))
        )
        r_shift_g.append(
            ident_res(td.d_metric(("jconj",), "metric"),
                      td.d_metric((), "metric") - _jshift_correction(td, "metric"))
        )

    # witnesses: D Codazzi-coupled to J; the statement connection is D or a
    # conjugate of D depending on where each item places the hypothesis
    pro3_results = {k: [] for k in ("i", "ii", "iii", "iv", "v", "vi")}
    alt_notes = {k: 0.0 for k in pro3_results}
    for t in range(ctx.witness_trials):
        td = ctx.hermitian(t)
        sr = _codazzi_witness(ctx, td, t, 21)
        hyp = sr.residual
        wd = TrialData(
            ChartModel(domain=td.model.domain, metric=td.model.metric,
                       J=td.model.J, conn=sr.connection),
            td.pts,
        )

        def collapse(ops_form):
            lhs = wd.d_metric(ops_form, "partner")
            rhs = -_slot3(wd.d_metric(ops_form, "metric"), wd.jv)
            return ident_res(lhs, rhs)

        # stated placements; items (iii)-(vi) put the hypothesis on a
        # conjugate, so their statement connection is the matching
        # conjugate of the coupled witness
        pro3_results["i"].append((hyp, collapse(("star",))))
        pro3_results["ii"].append((hyp, collapse(("dagger",))))
        pro3_results["iii"].append((hyp, collapse(("star",))))
        pro3_results["iv"].append((hyp, collapse(("dagger",))))
        pro3_results["v"].append(
            (hyp, ident_res(wd.d_metric(("dagger", "jconj"), "partner"),
                            wd.d_metric(("dagger",), "partner")))
        )
        pro3_results["vi"].append(
            (hyp, ident_res(wd.d_metric(("star", "jconj"), "metric"),
                            wd.d_metric(("star",), "metric")))
        )
        # alternate placement for item (i): hypothesis moved onto the
        # conjugate pair makes the statement connection the witness itself,
        # whose coupling is generically broken, so this should stay large
        alt_notes["i"] = max(alt_notes["i"], collapse(()))

    labels = {
        "i": "metric-conjugate statement under base-pair coupling",
        "ii": "partner-conjugate statement under base-pair coupling",
        "iii": "base statement under metric-conjugate coupling",
        "iv": "base statement under partner-conjugate coupling",
        "v": "structure-conjugate invariance of the partner derivative",
        "vi": "structure-conjugate invariance of the metric derivative",
    }
    for k in ("i", "ii", "iii", "iv", "v", "vi"):
        ident_part = r_corr if k in ("i", "ii", "iii", "iv") else (
            r_shift_w if k == "v" else r_shift_g)
        base = _witness_entry(f"pro3.{k}", ctx.dim, pro3_results[k],
                              TOLERANCES["conclusion"], notes=labels[k])
        _fold_identity(base, ident_part, toli)
        if k in ("i", "ii"):
            # the hypothesis-on-the-conjugate reading stays O(1) on the
            # same witnesses, so the stated placement is the working one
            base.notes += f"; alternate hypothesis placement residual {alt_notes['i']:.2e}"
        out.append(base)

    # Klein table
    kr = []
    for t in range(ctx.trials):
        td = ctx.hermitian(t)
        kr.append(klein_table(td.model.conn, td.model.metric, td.model.J, td.pts).max_residual)
    out.append(_identity_entry("teo1.klein", ctx.dim, ctx.trials, kr, TOLERANCES["klein"]))

    # pro4: partner-vs-metric shifts at the four group positions
    pos = {"i": (("jconj",), ()), "ii": ((), ("jconj",)),
           "iii": (("dagger",), ("star",)), "iv": (("star",), ("dagger",))}
    r4 = {k: [] for k in pos}
    for t in range(ctx.trials):
        td = ctx.hermitian(t)
        for k, (ops_w, ops_g) in pos.items():
            lhs = td.d_metric(ops_w, "partner")
            rhs = -_slot3(td.d_metric(ops_g, "metric"), td.jv)
            r4[k].append(ident_res(lhs, rhs))
    for k in pos:
        out.append(_identity_entry(f"pro4.{k}", ctx.dim, ctx.trials, r4[k], toli))

    # cor4: metric-derivative of a conjugate equals the lowered torsion
    cor4_pos = {"i": (("star",), ()), "ii": (("jconj",), ("dagger",)),
                "iii": (("dagger",), ("jconj",))}
    rc4 = {k: [] for k in cor4_pos}
    for t in range(ctx.trials):
        td = ctx.hermitian(t)
        for k, (ops_d, ops_t) in cor4_pos.items():
            rc4[k].append(
                ident_res(td.d_metric(ops_d, "metric"), _tb(td.torsion(ops_t), td.bv))
            )
    for k in cor4_pos:
        out.append(_identity_entry(f"cor4.{k}", ctx.dim, ctx.trials, rc4[k], toli))

    # pro5 chains: three base identities evaluated at the four positions
    bases = {"i": (), "ii": ("star",), "iii": ("dagger",), "iv": ("jconj",)}
    r5 = {k: [] for k in bases}
    for t in range(ctx.trials):
        td = ctx.hermitian(t)
        gv, wv, jv = td.bv, td.pv, td.jv
        for k, b in bases.items():
            a1 = ident_res(td.d_metric(b, "partner"), _tb(td.torsion(b + ("dagger",)), wv))
            star_dj = d_nabla_J_values(td.conn(b + ("star",)), td.model.J, td.pts)
            a2 = ident_res(np.einsum("nkij,nkl->nijl", star_dj, gv),
                           _tb(td.torsion(b + ("dagger",)), wv))
            a3 = ident_res(td.d_metric(b, "partner"),
                           -_slot3(td.d_metric(b + ("jconj",), "metric"), jv))
            r5[k].append(max(a1, a2, a3))
    for k in bases:
        out.append(_identity_entry(f"pro5.{k}", ctx.dim, ctx.trials, r5[k], toli))

    # cyclic-sum relation on jointly flat-and-closed witnesses
    res_cyc, res_lem3, res_23 = [], [], []
    lem3_contra_ok = True
    for t in range(ctx.witness_trials):
        model = ctx.constant(t, "hermitian") if ctx.dim > 2 else ctx.kahler(t)
        pts = ctx.points(t)
        sr = synthesize_connection(
            model, ["quasi_statistical_g", "d_closed_J"],
            ansatz_degree=ctx.witness_degree,
            seed=ctx._sub_seed(t, 22), anchor_scale=0.3,
        )
        wd = TrialData(
            ChartModel(domain=model.domain, metric=model.metric, J=model.J,
                       conn=sr.connection), pts)
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
    td0 = ctx.hermitian(0)
    dw0 = zero_res(exterior_d2(td0.partner).values(td0.pts))
    if dw0 > 1e-4:
        model0 = ChartModel(domain=td0.model.domain, metric=td0.model.metric, J=td0.model.J)
        sr0 = synthesize_connection(model0, ["quasi_statistical_g", "d_closed_J"],
                                    ansatz_degree=2, seed=ctx._sub_seed(0, 23))
        lem3_contra_ok = sr0.residual > TOLERANCES["negative"]
    cyc_entry = _witness_entry("sec3.cyclic", ctx.dim, res_cyc, TOLERANCES["conclusion"])
    _fold_identity(cyc_entry, r_shift_g, tolk)
    out.append(cyc_entry)
    lem3_entry = _witness_entry(
        "lem3", ctx.dim, res_lem3, TOLERANCES["conclusion"],
        notes="contrapositive: no witness exists when the 2-form is not closed",
    )
    if not lem3_contra_ok:
        lem3_entry.status = "fail"
        lem3_entry.notes += "; contrapositive check failed"
    out.append(lem3_entry)

    # two-of-three: each pair of conditions forces the third
    res_b, res_c = [], []
    for t in range(ctx.witness_trials):
        model = ctx.constant(t, "hermitian") if ctx.dim > 2 else ctx.kahler(t)
        pts = ctx.points(t)
        srb = synthesize_connection(
            model, ["d_closed_J", "conjugate_partner_parallel"],
            ansatz_degree=ctx.witness_degree,
            seed=ctx._sub_seed(t, 24), anchor_scale=0.3)
        wdb = TrialData(ChartModel(domain=model.domain, metric=model.metric,
                                   J=model.J, conn=srb.connection), pts)
        res_b.append((srb.residual, zero_res(wdb.d_metric((), "metric"))))
        src = synthesize_connection(
            model, ["quasi_statistical_g", "conjugate_partner_parallel"],
            ansatz_degree=ctx.witness_degree,
            seed=ctx._sub_seed(t, 25), anchor_scale=0.3)
        wdc = TrialData(ChartModel(domain=model.domain, metric=model.metric,
                                   J=model.J, conn=src.connection), pts)
        res_c.append((src.residual, zero_res(wdc.d_J(()))))
    both = res_23 + res_b + res_c
    out.append(_witness_entry("sec3.two_of_three", ctx.dim, both,
                              TOLERANCES["strict_conclusion"],
                              notes="all three pairings tested"))

    # teo2: flat model, torsion-bearing synthesized witnesses, sheared model
    res_teo2, torsions = [], []
    flat = flat_hermitian_model(ctx.dim, ctx.half_width)
    rep = predicate_check(flat, "kahler", tol=TOLERANCES["conclusion"], seed=ctx.seed)
    res_teo2.append((0.0, rep.max_residual))
    for t in range(ctx.witness_trials):
        model = ctx.constant(t, "hermitian")
        pts = ctx.points(t)
        sr = synthesize_connection(
            model, ["quasi_statistical_g", "d_closed_J", "j_invariant_torsion"],
            ansatz_degree=ctx.witness_degree, seed=ctx._sub_seed(t, 26), anchor_scale=0.3)
        m2 = ChartModel(domain=model.domain, metric=model.metric, J=model.J,
                        conn=sr.connection)
        rep = predicate_check(m2, "kahler", tol=TOLERANCES["conclusion"], seed=ctx.seed)
        res_teo2.append((sr.residual, rep.max_residual))
        torsions.append(zero_res(torsion_values(sr.connection, pts)))
        km = ctx.kahler(t)
        srk = synthesize_connection(
            km, ["quasi_statistical_g", "d_closed_J", "j_invariant_torsion"],
            ansatz_degree=2 if ctx.dim == 2 else 1,
            seed=ctx._sub_seed(t, 27), anchor_scale=0.3 if ctx.dim == 2 else 0.0)
        mk = ChartModel(domain=km.domain, metric=km.metric, J=km.J, conn=srk.connection)
        repk = predicate_check(mk, "kahler", tol=TOLERANCES["conclusion"], seed=ctx.seed)
        res_teo2.append((srk.residual, repk.max_residual))
        torsions.append(zero_res(torsion_values(srk.connection, pts)))
    notes = f"max witness torsion {max(torsions):.2e}" if torsions else ""
    teo2_entry = _witness_entry("teo2", ctx.dim, res_teo2, TOLERANCES["conclusion"],
                                notes=notes)
    if teo2_entry.status == "pass" and torsions and max(torsions) < 1e-6:
        teo2_entry.status = "inconclusive-witness"
        teo2_entry.notes += "; only torsion-free witnesses found"
    out.append(teo2_entry)

    # averaged-connection results
    r15, r16, r17 = [], [], []
    for t in range(ctx.trials):
        td = ctx.hermitian(t)
        r15.append(ident_res(td.d_metric(("avg",), "metric"),
                             td.d_metric((), "metric") - 0.5 * _jshift_correction(td, "metric")))
        sum_t = td.torsion(("star",)) + td.torsion(("dagger",))
        r16.append(ident_res(td.d_metric(("avg",), "metric"), 0.5 * _tb(sum_t, td.bv)))
        lhs = np.einsum(
            "nkij,nkl->nijl",
            d_nabla_J_values(td.conn(("star",)), td.model.J, td.pts)
            + d_nabla_J_values(td.conn(("dagger",)), td.model.J, td.pts),
            td.bv,
        )
        r17.append(ident_res(lhs, _tb(sum_t, td.pv)))
    gad15 = _identity_entry("GAD15", ctx.dim, ctx.trials, r15, tolk)
    out.append(gad15)
    out.append(_identity_entry("GAD16", ctx.dim, ctx.trials, r16, toli))
    out.append(_identity_entry("GAD17", ctx.dim, ctx.trials, r17, toli))

    # GAD15 corollary: coupled torsion-free witnesses make the average flat
    res_15c = []
    for t in range(ctx.witness_trials):
        model = ctx.constant(t, "hermitian") if ctx.dim > 2 else ctx.kahler(t)
        pts = ctx.points(t)
        sr = synthesize_connection(model, ["codazzi_J", "torsion_free"],
                                   ansatz_degree=ctx.witness_degree,
                                   seed=ctx._sub_seed(t, 28), anchor_scale=0.3)
        d = sr.connection
        nabla = conjugate_by_bilinear(d, model.metric)
        wd = TrialData(ChartModel(domain=model.domain, metric=model.metric,
                                  J=model.J, conn=nabla), pts)
        concl = max(
            zero_res(wd.torsion(("star",))),
            zero_res(wd.torsion(("dagger",))),
            zero_res(wd.d_metric(("avg",), "metric")),
        )
        res_15c.append((sr.residual, concl))
    out.append(_witness_entry("GAD15.cor", ctx.dim, res_15c, TOLERANCES["conclusion"]))

    # final corollary: opposite conjugate torsions, flat average, paired
    # closures vanish together
    res_cf = []
    for t in range(ctx.witness_trials):
        model = ctx.constant(t, "hermitian")
        pts = ctx.points(t)
        sr = synthesize_connection(model, ["conjugate_torsion_sum"],
                                   ansatz_degree=ctx.witness_degree,
                                   seed=ctx._sub_seed(t, 29), anchor_scale=0.3)
        wd = TrialData(ChartModel(domain=model.domain, metric=model.metric,
                                  J=model.J, conn=sr.connection), pts)
        paired = (d_nabla_J_values(wd.conn(("star",)), model.J, pts)
                  + d_nabla_J_values(wd.conn(("dagger",)), model.J, pts))
        concl = max(zero_res(wd.d_metric(("avg",), "metric")), zero_res(paired))
        res_cf.append((sr.residual, concl))
    out.append(_witness_entry("sec3.cor_final", ctx.dim, res_cf, TOLERANCES["conclusion"]))
    return out


def verify_section4(ctx: SectionContext) -> list:
    """Norden-pair results: twin-metric chains, the anti-Hermitian Klein
    table, the holomorphicity operator, and the anti-compatible closure
    theorems."""
    out = []
    tolk = TOLERANCES["kernel_identity"]
    toli = TOLERANCES["identity"]

    # antipro3 identity: twin shift with coupling corrections (sign-flipped
    # relative to the Hermitian case)
    r_corr, r_shift_hb, r_shift_h = [], [], []
    for t in range(ctx.trials):
        td = ctx.norden(t)
        for ops in ((), ("star",)):
            dj = td.covd_J(ops)
            corr = (np.einsum("njm,nmik->nijk", td.bv, dj)
                    - np.einsum("nim,nmjk->nijk", td.bv, dj))
            lhs = td.d_metric(ops, "partner")
            rhs = _slot3(td.d_metric(ops, "metric"), td.jv) + corr
            r_corr.append(ident_res(lhs, rhs))
        r_shift_hb.append(
            ident_res(td.d_metric(("jconj",), "partner"),
                      td.d_metric((), "partner") - _jshift_correction(td, "partner")))
        r_shift_h.append(
            ident_res(td.d_metric(("jconj",), "metric"),
                      td.d_metric((), "metric") - _jshift_correction(td, "metric")))

    anti_results = {k: [] for k in ("i", "ii", "iii", "iv", "v", "vi")}
    for t in range(ctx.witness_trials):
        td = ctx.norden(t)
        sr = _codazzi_witness(ctx, td, t, 31)
        hyp = sr.residual
        wd = TrialData(ChartModel(domain=td.model.domain, metric=td.model.metric,
                                  J=td.model.J, conn=sr.connection), td.pts)

        def twin_collapse(ops):
            return ident_res(wd.d_metric(ops, "partner"),
                             _slot3(wd.d_metric(ops, "metric"), wd.jv))

        anti_results["i"].append((hyp, twin_collapse(("star",))))
        anti_results["ii"].append((hyp, twin_collapse(("dagger",))))
        anti_results["iii"].append((hyp, twin_collapse(("star",))))
        anti_results["iv"].append((hyp, twin_collapse(("dagger",))))
        anti_results["v"].append(
            (hyp, ident_res(wd.d_metric(("dagger", "jconj"), "partner"),
                            wd.d_metric(("dagger",), "partner"))))
        anti_results["vi"].append(
            (hyp, ident_res(wd.d_metric(("star", "jconj"), "metric"),
                            wd.d_metric(("star",), "metric"))))
    for k in ("i", "ii", "iii", "iv", "v", "vi"):
        ident_part = r_corr if k in ("i", "ii", "iii", "iv") else (
            r_shift_hb if k == "v" else r_shift_h)
        e = _witness_entry(f"antipro3.{k}", ctx.dim, anti_results[k],
                           TOLERANCES["conclusion"])
        _fold_identity(e, ident_part, toli)
        out.append(e)

    # pro12: twin/metric structure-conjugation swaps
    pos = {"i": (("jconj",), ()), "ii": ((), ("jconj",)),
           "iii": (("dagger",), ("star",)), "iv": (("star",), ("dagger",))}
    r12 = {k: [] for k in pos}
    for t in range(ctx.trials):
        td = ctx.norden(t)
        for k, (ops_hb, ops_h) in pos.items():
            lhs = td.d_metric(ops_hb, "partner")
            rhs = _slot3(td.d_metric(ops_h, "metric"), td.jv)
            r12[k].append(ident_res(lhs, rhs))
    for k in pos:
        out.append(_identity_entry(f"pro12.{k}", ctx.dim, ctx.trials, r12[k], toli))

    # cor7: metric-derivative of conjugates vs lowered torsion at positions
    cor7_pos = {"i": ((), ("star",)), "ii": (("star",), ()),
                "iii": (("jconj",), ("dagger",)), "iv": (("dagger",), ("jconj",))}
    rc7 = {k: [] for k in cor7_pos}
    for t in range(ctx.trials):
        td = ctx.norden(t)
        for k, (ops_d, ops_t) in cor7_pos.items():
            rc7[k].append(
                ident_res(td.d_metric(ops_d, "metric"), _tb(td.torsion(ops_t), td.bv)))
    for k in cor7_pos:
        out.append(_identity_entry(f"cor7.{k}", ctx.dim, ctx.trials, rc7[k], toli))

    # antipro5 chains at the four positions
    bases = {"i": (), "ii": ("star",), "iii": ("dagger",), "iv": ("jconj",)}
    r5 = {k: [] for k in bases}
    for t in range(ctx.trials):
        td = ctx.norden(t)
        hv, hbv, jv = td.bv, td.pv, td.jv
        for k, b in bases.items():
            a1 = ident_res(td.d_metric(b, "partner"), _tb(td.torsion(b + ("dagger",)), hbv))
            sharp_dj = d_nabla_J_values(td.conn(b + ("star",)), td.model.J, td.pts)
            a2 = ident_res(np.einsum("nkij,nkl->nijl", sharp_dj, hv),
                           _tb(td.torsion(b + ("dagger",)), hbv))
            a3 = ident_res(td.d_metric(b, "partner"),
                           _slot3(td.d_metric(b + ("jconj",), "metric"), jv))
            r5[k].append(max(a1, a2, a3))
    for k in bases:
        out.append(_identity_entry(f"antipro5.{k}", ctx.dim, ctx.trials, r5[k], toli))

    # pro14: unconditional torsion expansion of the holomorphicity operator,
    # then the flat-derivative collapse on quasi-statistical witnesses
    r14 = []
    for t in range(ctx.trials):
        td = ctx.norden(t)
        r14.append(_pro14_unconditional_residual(td))
    res_14w = []
    for t in range(ctx.witness_trials):
        td = ctx.norden(t)
        d0 = gen_connection(
            GenSpec(seed=ctx._sub_seed(t, 32), dimension=ctx.dim, degree=ctx.degree,
                    constraints=frozenset({"torsion_free"})))
        w = conjugate_by_bilinear(d0, td.model.metric)
        wd = TrialData(ChartModel(domain=td.model.domain, metric=td.model.metric,
                                  J=td.model.J, conn=w), td.pts)
        hyp = zero_res(wd.d_metric((), "metric"))
        res_14w.append((hyp, _pro14_conditional_residual(wd)))
    e14 = _witness_entry("pro14", ctx.dim, res_14w, TOLERANCES["strict_conclusion"])
    _fold_identity(e14, r14, toli)
    out.append(e14)

    # teo5: on jointly closed witnesses the holomorphicity operator equals
    # the lowered-torsion / structure-derivative combination, so the two
    # sides vanish together
    res_t5, coupling_ok = [], True
    tol_c = TOLERANCES["conclusion"]
    for t in range(ctx.witness_trials):
        td = ctx.norden(t)
        w = conjugate_by_bilinear(levi_civita(td.partner), td.model.metric)
        wd = TrialData(ChartModel(domain=td.model.domain, metric=td.model.metric,
                                  J=td.model.J, conn=w), td.pts)
        hyp = max(zero_res(wd.d_metric((), "metric")), zero_res(wd.d_J(())))
        phi = tachibana_values(td.model.J, td.model.metric, td.pts)
        tv = wd.torsion(())
        djc = wd.covd_J(())
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
    out.append(e5)

    # cor8: cyclic holomorphicity sum against the torsion / derivative
    # combination on quasi-statistical witnesses
    res_c8 = []
    for t in range(ctx.witness_trials):
        td = ctx.norden(t)
        d0 = gen_connection(
            GenSpec(seed=ctx._sub_seed(t, 33), dimension=ctx.dim, degree=ctx.degree,
                    constraints=frozenset({"torsion_free"})))
        w = conjugate_by_bilinear(d0, td.model.metric)
        wd = TrialData(ChartModel(domain=td.model.domain, metric=td.model.metric,
                                  J=td.model.J, conn=w), td.pts)
        hyp = zero_res(wd.d_metric((), "metric"))
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
    out.append(_witness_entry("cor8", ctx.dim, res_c8, TOLERANCES["conclusion"]))

    # theolast: the cyclic holomorphicity sum and the defining cyclic sum
    # vanish together (and in fact agree) under the metric's own connection
    r_tl, couple_ok = [], True
    tol = TOLERANCES["coupling"]
    for t in range(ctx.trials):
        td = ctx.norden(t)
        s_phi = cyclic_sum_03(tachibana_values(td.model.J, td.model.metric, td.pts))
        s_def = quasi_kahler_norden_sum_values(td.model.metric, td.model.J, td.pts)
        r_tl.append(ident_res(s_phi, s_def))
        a, b = zero_res(s_phi), zero_res(s_def)
        couple_ok = couple_ok and ((a <= tol and b <= tol) or (a >= 10 * tol and b >= 10 * tol))
    e_tl = _identity_entry("theolast", ctx.dim, ctx.trials, r_tl, toli,
                           notes="sums also agree termwise under the metric connection")
    if not couple_ok:
        e_tl.status = "fail"
        e_tl.notes += "; vanish-together coupling violated"
    out.append(e_tl)

    # Norden Klein table
    kr = []
    for t in range(ctx.trials):
        td = ctx.norden(t)
        kr.append(klein_table(td.model.conn, td.model.metric, td.model.J, td.pts).max_residual)
    out.append(_identity_entry("sec4.klein", ctx.dim, ctx.trials, kr, TOLERANCES["klein"]))
    return out


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


def verify_negative_controls(ctx: SectionContext) -> list:
    """Deliberately violated hypotheses must produce failing conclusions."""
    out = []
    thresh = TOLERANCES["negative"]

    fails = 0
    for t in range(ctx.trials):
        td = ctx.hermitian(t)
        violated = zero_res(td.d_J(())) >= thresh  # structure derivative not closed
        if violated and zero_res(td.torsion(("jconj",))) >= thresh:
            fails += 1
    out.append(_control_entry("neg.GAD1.i", ctx, fails,
                              "unclosed structure derivative must leave conjugate torsion"))

    fails = 0
    for t in range(ctx.trials):
        td = ctx.hermitian(t)
        if zero_res(td.d_metric(("star",), "metric")) >= thresh:
            fails += 1
    out.append(_control_entry("neg.cor4.i", ctx, fails,
                              "torsion-bearing symbols must break the conjugate flatness"))

    fails = 0
    for t in range(ctx.trials):
        td = ctx.norden(t)
        if zero_res(td.d_metric(("star",), "metric")) >= thresh:
            fails += 1
    out.append(_control_entry("neg.cor7.ii", ctx, fails,
                              "torsion-bearing symbols must break the conjugate flatness"))

    if ctx.dim == 2:
        out.append(EntryResult(
            prop_id="neg.pro2", dim=2, direction="negative-control", trials=0,
            max_residual=0.0, tolerance=thresh, status="not-applicable",
            notes="vacuous on two-dimensional charts (every structure is integrable)",
        ))
    else:
        fails = 0
        for t in range(ctx.trials):
            td = ctx.hermitian(t)
            hyp_violation = zero_res(_j1(td.torsion(()), td.jv) + _j2(td.torsion(()), td.jv))
            if hyp_violation >= thresh and zero_res(td.nijenhuis()) >= thresh:
                fails += 1
        out.append(_control_entry("neg.pro2", ctx, fails,
                                  "unprojected torsion with a generic structure"))
    return out


def _control_entry(prop_id, ctx, fails, notes):
    # residual = fraction of trials whose conclusion failed to blow up
    frac = fails / ctx.trials if ctx.trials else 0.0
    return EntryResult(
        prop_id=prop_id, dim=ctx.dim, direction="negative-control", trials=ctx.trials,
        max_residual=float(1.0 - frac), tolerance=0.1,
        status="pass" if frac >= 0.9 else "fail",
        notes=f"{notes}; violated-hypothesis conclusion failed in {frac:.0%} of trials",
    )


def run_full_suite(seed: int = 0, trials: int = 30, dims=(2, 4), degree: int = 2,
                   only: tuple = ()) -> SuiteReport:
    """Run the registry over the requested dimensions.

    ``only`` filters entry ids by exact match or prefix; unknown filters
    raise ``QsgError`` listing the valid vocabulary.
    """
    dims = tuple(int(d) for d in dims)
    for d in dims:
        if d not in (2, 4, 6):
            raise QsgError(f"unsupported dimension {d}; choose from 2, 4, 6")
    def matches(entry_id: str, flt: str) -> bool:
        return entry_id == flt or entry_id.startswith(flt + ".")

    if only:
        for o in only:
            if not any(matches(i, o) for i in ALL_IDS):
                raise QsgError(
                    f"unknown proposition id {o!r}; valid ids: {', '.join(ALL_IDS)}"
                )
    report = SuiteReport(seed=seed, trials=trials, dims=dims)
    for dim in dims:
        ctx = SectionContext(seed=seed, dim=dim, trials=trials, degree=degree)
        entries = (
            verify_section2(ctx)
            + verify_section3(ctx)
            + verify_section4(ctx)
            + verify_negative_controls(ctx)
        )
        if only:
            entries = [e for e in entries if any(matches(e.prop_id, o) for o in only)]
        report.entries.extend(entries)
    return report
