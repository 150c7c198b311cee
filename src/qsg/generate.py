"""Randomized constructors for compatible structures, closed-form connection
recipes, and a least-squares synthesizer for connections under affine
constraints.

Structure generation keeps every output an exact polynomial field:

* almost complex structures are conjugations of the constant block
  structure by polynomial frames whose inverse is again polynomial (a
  unipotent half-block factor times a constant well-conditioned matrix),
  so the squared structure is minus the identity to rounding;
* every compatible metric is one ``_paired_form`` pulled back through the
  structure's inverse frame: a base (the identity for Hermitian, the
  neutral diagonal for Norden metrics) plus a random symmetric form made
  pure for the constant block structure and scaled so that a bound of its
  norm over the whole chart box stays at ``PERTURBATION_BOUND`` or below.
  Purity is algebraically exact, and the certificate holds on the whole
  box, not at sample points: Hermitian metrics are positive definite,
  Norden metrics have signature (n, n), and both have
  ``|det| >= (3/4)^d / det(Q)^2`` for the frame's constant factor Q.

Connection synthesis treats every supported constraint as a pointwise
affine map of the symbol values and reads its Jacobian from one evaluation
with block-constant probe symbols, so new constraints need no hand-derived
matrices.  The fit is a deterministic minimum-norm least-squares solve by
one of two paths, chosen by the probed blocks:

* when every fit point's Jacobian block is bitwise identical (any
  point-independent constraint, and every constraint on constant-structure
  models), the system is ``kron(A, M)`` for the block A and the monomial
  matrix M, and it is solved with one SVD per factor;
* otherwise each point's block is compressed to its numerical rank before
  the monomial (Kronecker) expansion, and the compressed system is solved
  with ``gelsy``.

The reported residual is measured on a held-out sample set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Collection, NamedTuple

import numpy as np

from . import sampling
from .blas import pin_one_thread
from .calculus import Connection, ConstantConnection, PolyConnection
from .connections import BilinearConjugateConnection, JConjugateConnection
from .contraction import contract
from .errors import QsgError
from .fields import ChartDomain, PolyTensorField, _basis_values, poly_einsum
from .model import ChartModel, ModelAt, neutral_diagonal, standard_structure
from .predicates import PREDICATES
from .structures import (
    PURITY_SIGN,
    AlmostComplexStructure,
    MetricField,
    j_invariance_defect,
    vishnevskii_frame_values,
    vishnevskii_jframe_values,
)

T_J = sampling.tag("gen_almost_complex")
T_G = sampling.tag("gen_hermitian")
T_H = sampling.tag("gen_norden")
T_C = sampling.tag("gen_connection")
T_S = sampling.tag("synthesize")

# largest spectral norm, anywhere on the chart, of the pure perturbation a
# compatible metric adds to its base form in the structure's frame
PERTURBATION_BOUND = 0.25
# held-out points that score a synthesized connection
HOLDOUT_POINTS = 25
# most floats (rows x cols) of a compressed least-squares system, 1 GiB:
# above the largest one a shipped run forms, the 15 200 x 6 048
# contrapositive fit of lem3 at dim 6
MAX_SYSTEM_FLOATS = 2 ** 27


@dataclass(frozen=True)
class GenSpec:
    """Knobs for randomized structure generation."""

    seed: int
    dimension: int
    degree: int = 2

    def __post_init__(self):
        if self.dimension < 2 or self.dimension % 2 != 0:
            raise QsgError("dimension must be even and >= 2")
        if self.degree < 0:
            raise QsgError("degree must be >= 0")


def monomial_exponents(dimension: int, degree: int) -> np.ndarray:
    """All exponent rows with total degree <= degree, in lexicographic order.

    Built one leading axis at a time, so only kept rows are formed: each
    leading exponent e in increasing order, followed by the (already
    ordered) trailing rows of total degree <= degree - e."""
    rows = np.zeros((1, 0), dtype=np.int64)
    for _ in range(dimension):
        total = rows.sum(axis=1)
        rows = np.concatenate([
            np.column_stack([np.full(np.count_nonzero(total <= degree - e), e, dtype=np.int64),
                             rows[total <= degree - e]])
            for e in range(degree + 1)])
    return rows


def random_poly_field(rng, dimension: int, valence, degree: int, bound: float) -> PolyTensorField:
    """Every component a dense random polynomial over the monomials of
    degree <= ``degree``; the draws fill one component's coefficients after
    another, components in row-major order."""
    exps = monomial_exponents(dimension, degree)
    shape = (dimension,) * (valence[0] + valence[1])
    coefs = rng.uniform(-bound, bound, size=shape + (exps.shape[0],))
    return PolyTensorField(dimension, valence, exps=exps, coefs=np.moveaxis(coefs, -1, 0))


# ---------------------------------------------------------------------------
# almost complex structures


def gen_almost_complex(spec: GenSpec, integrable: bool = False) -> AlmostComplexStructure:
    """Random polynomial structure with an exactly polynomial inverse frame.

    The block pattern of the constant structure is conjugated by the frame
    ``C = Q (I + U)`` where U is a polynomial matrix supported on one half
    block (so U^2 = 0 and the factor inverse is ``I - U``, again
    polynomial) and Q is a constant well-conditioned matrix.  Coefficients
    are scaled so the perturbation stays below 0.2 in sup norm, and the
    squared structure is minus the identity to float rounding.

    With ``integrable=True``, U is the Jacobian of a polynomial shear, so
    the result is the coordinate expression of the constant structure in
    sheared coordinates and its integrability obstruction vanishes.
    """
    d = spec.dimension
    rng = sampling.rng(spec.seed, T_J, d, int(integrable))
    half = d // 2
    axes = rng.permutation(d)
    rows, cols = axes[:half], axes[half:]
    exps = monomial_exponents(d, spec.degree)
    scale = 0.2 / max(1, exps.shape[0])

    if integrable:
        # shear component i depends only on the complementary axes, so its
        # Jacobian is supported on the (rows, cols) block
        sub = monomial_exponents(len(cols), spec.degree + 1)
        shear_exps = np.zeros((sub.shape[0], d), dtype=np.int64)
        shear_exps[:, cols] = sub
        shear = np.zeros((sub.shape[0], d))
        for i in rows:
            shear[:, i] = rng.uniform(-scale, scale, size=sub.shape[0])
        u = PolyTensorField(d, (1, 0), exps=shear_exps, coefs=shear).gradient()
    else:
        coefs = np.zeros((exps.shape[0], d, d))
        for i in rows:
            for j in cols:
                coefs[:, i, j] = rng.uniform(-scale, scale, size=exps.shape[0])
        u = PolyTensorField(d, (1, 1), exps=exps, coefs=coefs)

    eye = PolyTensorField.constant(d, (1, 1), np.eye(d))
    p, pinv = eye + u, eye - u

    q = _frame_factor(rng, d, 0.2)
    m0 = np.linalg.solve(q.T, (q @ standard_structure(d)).T).T  # q j0 q^{-1}

    jfield = poly_einsum("km,mj->kj", poly_einsum("km,mj->kj", p, m0, valence=(1, 1)), pinv,
                         valence=(1, 1))
    # exact polynomial frame C = P Q with polynomial inverse Q^{-1} P^{-1};
    # the produced field satisfies J = C J0 C^{-1}
    return AlmostComplexStructure(
        jfield, frame_inv=poly_einsum("km,mj->kj", np.linalg.inv(q), pinv, valence=(1, 1)),
    )


def _frame_factor(rng, d: int, spread: float) -> np.ndarray:
    """A constant frame factor ``I + R``, R uniform in ``[-spread, spread]``,
    redrawn until its condition number is below 20."""
    for _ in range(10):
        q = np.eye(d) + rng.uniform(-spread, spread, size=(d, d))
        if np.linalg.cond(q) < 20.0:
            return q
    raise QsgError("could not draw a well-conditioned constant frame factor")


# ---------------------------------------------------------------------------
# metrics


def _box_norm(form: PolyTensorField, box) -> float:
    """Upper bound of the spectral norm of the (0,2) field ``form`` over
    ``box``: the sum over its terms of ||C_m||_2 prod_k max|x_k|^e_mk."""
    radius = np.abs(np.asarray(box, dtype=float)).max(axis=1)
    return float(np.sum(np.linalg.norm(form.coefs, ord=2, axis=(1, 2))
                        * np.prod(radius ** form.exps, axis=1)))


def _paired_form(r, flavor: str, box) -> PolyTensorField:
    """A compatible form of ``flavor`` in the structure's frame, nondegenerate
    on the whole of ``box`` by construction: ``base + P`` with
    ``P = sym(r) + sign sym(r)(J0., J0.)`` for ``sign = PURITY_SIGN[flavor]``,
    scaled so that ``_box_norm(P) <= PERTURBATION_BOUND``.  ``r`` is a (0,2)
    field or a constant matrix.

    Both pieces are pure for the standard structure J0, so purity is exact.
    The base is the identity (Hermitian), whose sum with P has eigenvalues
    in [3/4, 5/4], or the neutral diagonal N0 (Norden), where
    ``N0 + P = N0 (I + N0 P)`` with ``||N0 P|| <= 1/4`` keeps the (n, n)
    signature.  Pulled back through a frame ``C^{-1} = Q^{-1} (I - U)``
    (``_frame_metric``) either gives ``|det| >= (3/4)^d / det(Q)^2``.
    """
    if flavor not in PURITY_SIGN:
        raise QsgError(f"unknown flavor {flavor!r}")
    d = len(box)
    if not isinstance(r, PolyTensorField):
        r = PolyTensorField.constant(d, (0, 2), r)
    j0 = standard_structure(d)
    r = (r + r.transpose_02()).scale(0.5)
    # r(J0., J0.): the constant J0 keeps r's basis
    pert = r + poly_einsum("ac,ai,cj->ij", r, j0, j0, valence=(0, 2)).scale(PURITY_SIGN[flavor])
    bound = _box_norm(pert, box)
    if bound > PERTURBATION_BOUND:
        pert = pert.scale(PERTURBATION_BOUND / bound)
    base = np.eye(d) if flavor == "hermitian" else neutral_diagonal(d)
    return PolyTensorField.constant(d, (0, 2), base) + pert


def _frame_metric(r, flavor: str, J: AlmostComplexStructure) -> MetricField:
    """The ``flavor`` metric of ``J`` drawn in its frame: the ``_paired_form``
    of ``r`` on the unit cube, pulled back through ``J.frame_inv``."""
    form = _paired_form(r, flavor, ChartDomain.cube(J.dimension).box)
    return MetricField(_congruent_form(form, J.frame_inv), flavor=flavor)


def _paired_metric(spec: GenSpec, J: AlmostComplexStructure, flavor: str, tag: int) -> MetricField:
    d = spec.dimension
    r = random_poly_field(sampling.rng(spec.seed, tag, d), d, (0, 2), spec.degree, 0.3)
    return _frame_metric(r, flavor, J)


def gen_hermitian_metric(spec: GenSpec, J: AlmostComplexStructure) -> MetricField:
    """Random metric with exact purity, g(JX, JY) = g(X, Y), positive
    definite on the whole chart: the ``_paired_form`` of a random symmetric
    polynomial form, pulled back through the structure's inverse frame.
    Averaging over the structure in the constant frame keeps polynomial
    degrees bounded by ``spec.degree + 2 deg(frame)``."""
    return _paired_metric(spec, J, "hermitian", T_G)


def gen_norden_metric(spec: GenSpec, J: AlmostComplexStructure) -> MetricField:
    """Random neutral metric with exact purity, h(JX, Y) = h(X, JY), of
    signature (n, n) on the whole chart: built as
    ``gen_hermitian_metric`` with the Norden sign and base."""
    return _paired_metric(spec, J, "norden", T_H)


def _congruent_form(form: PolyTensorField, frame_inv: PolyTensorField) -> PolyTensorField:
    """form(C^{-1}., C^{-1}.) = (C^{-1})^a_i (C^{-1})^b_j form_{ab} as an exact
    polynomial field."""
    if frame_inv is None:
        raise QsgError("the structure has no frame (frame_inv is None), as one read from a "
                       "model file; compatible metrics are drawn in a generated structure's frame")
    first = poly_einsum("ki,kj->ij", frame_inv, form, valence=(0, 2))
    return poly_einsum("il,lj->ij", first, frame_inv, valence=(0, 2))


def gen_constant_structure_model(spec: GenSpec, flavor: str = "hermitian") -> ChartModel:
    """Constant compatible pair (random constant frame), no connection.

    With constant structure fields every affine connection constraint has
    constant coefficients, so polynomial witnesses of any degree exist
    whenever pointwise ones do; these models carry the torsion-bearing
    witness load in higher dimensions where sheared-frame witnesses would
    need high-degree symbols.
    """
    d = spec.dimension
    rng = sampling.rng(spec.seed, T_G, d, 9, sampling.tag(flavor))
    q = _frame_factor(rng, d, 0.3)
    qinv = np.linalg.inv(q)
    J = AlmostComplexStructure(
        PolyTensorField.constant(d, (1, 1), q @ standard_structure(d) @ qinv),
        frame_inv=PolyTensorField.constant(d, (1, 1), qinv))
    metric = _frame_metric(rng.uniform(-0.3, 0.3, size=(d, d)), flavor, J)
    return ChartModel(domain=ChartDomain.cube(d), metric=metric, J=J, conn=None)


def gen_vishnevskii_zero_connection(spec: GenSpec, J: AlmostComplexStructure) -> PolyConnection:
    """Closed-form symbols whose structure-coupling operator vanishes on
    frame and structure-twisted frame arguments.

    Requires a constant structure: for nonconstant ones the twisted-frame
    conditions impose a holomorphy constraint on the structure itself and
    no symbols can satisfy them.  Per argument slot, symbols are projected
    onto the commutant of the structure, M -> (M - J M J) / 2.
    """
    d = spec.dimension
    if J.degree() > 0:
        raise QsgError("operator-vanishing symbols exist only for constant structures")
    jmat = J.values(np.zeros((1, d)))[0]
    rng = sampling.rng(spec.seed, T_C, d, 3)
    raw = random_poly_field(rng, d, (1, 2), spec.degree, 1.0)
    # for each argument index j, project the (k, i)-matrix onto the commutant
    twisted = poly_einsum("ka,abj,bi->kij", jmat, raw, jmat, valence=(1, 2))
    return PolyConnection((raw - twisted).scale(0.5))


def gen_kahler_model(spec: GenSpec) -> ChartModel:
    """A model that is the flat compatible pair in sheared coordinates.

    The structure is the integrable pullback variant and the metric pulls a
    constant Hermitian-compatible form through the same frame, so the
    2-form is exactly closed and the integrability obstruction vanishes.
    These are the models on which jointly metric-flat and structure-closed
    connections exist (on generic models they cannot, which is the content
    of the closedness lemma this family feeds).
    """
    d = spec.dimension
    rng = sampling.rng(spec.seed, T_G, d, 7)
    J = gen_almost_complex(spec, integrable=True)
    metric = _frame_metric(rng.uniform(-0.3, 0.3, size=(d, d)), "hermitian", J)
    return ChartModel(domain=ChartDomain.cube(d), metric=metric, J=J, conn=None)


# ---------------------------------------------------------------------------
# connection recipes


# no recipe calls it; perfbench/tracing.py wraps it by name and test_dense_oracle checks it
def j_conjugate_poly(gamma: PolyTensorField, J: AlmostComplexStructure) -> PolyTensorField:
    """Structure conjugation of polynomial symbols, exactly:
    gamma'^k_{ij} = -J^k_m (d_i J^m_j + gamma^m_{il} J^l_j)."""
    inner = (poly_einsum("mji->mij", J.gradient(), valence=(1, 2))
             + poly_einsum("mil,lj->mij", gamma, J, valence=(1, 2)))
    return -poly_einsum("km,mij->kij", J, inner, valence=(1, 2))


def torsion_project_poly(t: PolyTensorField, J: AlmostComplexStructure) -> PolyTensorField:
    """Idempotent projector onto structure-invariant torsions:
    P(T)(X, Y) = (T(X, Y) + T(JX, JY)) / 2."""
    first = poly_einsum("kab,ai->kib", t, J, valence=(1, 2))
    return (t + poly_einsum("kib,bj->kij", first, J, valence=(1, 2))).scale(0.5)


def _symmetrize_12(t: PolyTensorField, sign: float = 1.0) -> PolyTensorField:
    """(T_kij + sign T_kji) / 2; ``sign=-1`` antisymmetrizes."""
    return (t + poly_einsum("kji->kij", t, valence=(1, 2)).scale(sign)).scale(0.5)


def gen_connection(spec: GenSpec, constraint: str, J: AlmostComplexStructure | None = None,
                   metric: MetricField | None = None) -> Connection:
    """Closed-form recipe for a connection satisfying one constraint.

    * ``d_closed_J``: structure conjugate of a torsion-free connection;
    * ``j_invariant_torsion``: symmetric part plus half a projected torsion;
    * ``quasi_statistical_g`` / ``quasi_statistical_h``: metric conjugate of
      a torsion-free connection.

    Constraint sets have no closed form here; use ``synthesize_connection``.
    """
    d = spec.dimension
    rng = sampling.rng(spec.seed, T_C, d)
    raw = random_poly_field(rng, d, (1, 2), spec.degree, 1.0)
    if constraint == "d_closed_J":
        _require(J, "d_closed_J needs an almost complex structure")
        return JConjugateConnection(PolyConnection(_symmetrize_12(raw)), J)
    if constraint == "j_invariant_torsion":
        _require(J, "j_invariant_torsion needs an almost complex structure")
        t = _symmetrize_12(raw, -1.0).scale(2.0)
        projected = torsion_project_poly(t, J)
        return PolyConnection(_symmetrize_12(raw) + projected.scale(0.5))
    if constraint in ("quasi_statistical_g", "quasi_statistical_h"):
        _require(metric, f"{constraint} needs a metric")
        base = PolyConnection(_symmetrize_12(raw))
        return BilinearConjugateConnection(base, metric)
    raise QsgError(f"unknown generation constraint {constraint!r}")


def _require(value, message):
    if value is None:
        raise QsgError(message)


# ---------------------------------------------------------------------------
# constraints: maps of a model at points, all affine in the symbol values


def _flatten(arr: np.ndarray) -> np.ndarray:
    return arr.reshape(arr.shape[0], -1)


def _vishnevskii_zero(at: ModelAt):
    conn, J = at.conn(), at.model.require("J")
    return np.concatenate([_flatten(vishnevskii_frame_values(conn, J, at.pts)),
                           _flatten(vishnevskii_jframe_values(conn, J, at.pts))], axis=1)


class Constraint(NamedTuple):
    """What a constraint needs of a model, and its residual: a map of the
    model at points (``ModelAt``) to an array affine in the symbol values at
    each point."""

    needs_J: bool
    flavors: Collection | None  # the metric flavors it takes; None: it reads no metric
    residual: Callable


# the five constraints that are also predicates are the predicate functions,
# bound here so that tracing the predicate table leaves them alone; the
# paired flavors are PURITY_SIGN's keys
CONSTRAINTS = {
    "torsion_free": Constraint(False, None, lambda at: at.torsion()),
    "j_invariant_torsion": Constraint(True, None,
                                      lambda at: j_invariance_defect(at.torsion(), at.jv)),
    "torsion_compatible": Constraint(True, None, PREDICATES["torsion_compatible"]),
    "d_closed_J": Constraint(True, None, PREDICATES["d_closed_J"]),
    "complex_connection": Constraint(True, None, PREDICATES["complex_connection"]),
    "codazzi_J": Constraint(True, None, PREDICATES["codazzi_J"]),
    "vishnevskii_zero": Constraint(True, None, _vishnevskii_zero),
    "quasi_statistical_g": Constraint(False, ("plain", "hermitian"),
                                      PREDICATES["quasi_statistical"]),
    "quasi_statistical_h": Constraint(False, ("norden",), PREDICATES["quasi_statistical"]),
    "quasi_statistical_partner": Constraint(True, PURITY_SIGN,
                                            lambda at: at.d_metric((), "partner")),
    "conjugate_partner_parallel": Constraint(True, PURITY_SIGN,
                                             lambda at: at.covd_metric(("star",), "partner")),
    "conjugate_torsion_sum": Constraint(
        True, PURITY_SIGN, lambda at: at.torsion(("star",)) + at.torsion(("dagger",))),
}


def valid_constraints(model: ChartModel) -> list:
    """The names of the constraints ``model`` has the fields for, sorted."""
    flavor = None if model.metric is None else model.metric.flavor
    return sorted(name for name, c in CONSTRAINTS.items()
                  if (model.J is not None or not c.needs_J)
                  and (c.flavors is None or flavor in c.flavors))


def _lstsq(rows: np.ndarray, rhs: np.ndarray):
    """Deterministic least-squares solve; returns the solution and the
    numerical rank.  Rank deficiency is fine: the complete orthogonal
    factorization driver (``gelsy``) returns the minimum-norm solution,
    which the synthesizer's anchor relies on.  Singular values below
    ``eps * max(rows.shape)`` times the largest count as zero, the rule
    ``_compressed_rows`` applies per block; with gelsy's default cut-off of
    ``eps`` alone, rounding-level singular values of a rank-deficient
    system count as rank and add O(1) null-space components.  scipy loads
    here, on the first solve, and its OpenBLAS is then pinned to one thread
    like numpy's."""
    import scipy
    from scipy.linalg import lstsq as scipy_lstsq

    pin_one_thread(scipy)

    cond = np.finfo(float).eps * max(rows.shape)
    sol, _, rank, _ = scipy_lstsq(rows, rhs, cond=cond, lapack_driver="gelsy",
                                  check_finite=False)
    return sol, int(rank)


def _probe_jacobian(eval_all, pts: np.ndarray):
    """Constant term ``(n, m)`` and Jacobian ``(n, m, d^3)`` of a residual
    that is pointwise affine in the symbol values, from one evaluation:
    the points are tiled ``d^3 + 1`` times, block 0 gets the zero symbols
    and block ``r + 1`` the one-hot symbols ``e_r``."""
    d = pts.shape[1]
    r_sym = d ** 3
    probes = np.vstack([np.zeros((1, r_sym)), np.eye(r_sym)]).reshape(r_sym + 1, d, d, d)
    vals = eval_all(ConstantConnection(probes), np.tile(pts, (r_sym + 1, 1)))
    vals = vals.reshape(r_sym + 1, pts.shape[0], -1)
    return vals[0], np.moveaxis(vals[1:] - vals[0], 0, -1)


def _compressed_rows(a: np.ndarray, b: np.ndarray, mon: np.ndarray):
    """Least-squares rows equivalent to ``kron(a[n], mon[n]) x = b[n]``
    over all points n, without forming that n*m-row system.

    Each block is factored ``a[n] = U S V^T``; singular values at or below
    ``eps * max(m, d^3) * s_max`` of the block are dropped, so the point
    contributes ``kron(S V^T, mon[n]) x = U^T b[n]`` with one row per kept
    value and none when its block is zero.  The dropped part of ``b[n]``
    is orthogonal to every row, so the objective changes by a constant and
    the minimizers (and the minimum-norm one) stay the same.  A system of
    more than ``MAX_SYSTEM_FLOATS`` floats raises ``QsgError`` before it is
    formed.
    """
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    keep = s > np.finfo(float).eps * max(a.shape[1:]) * s[:, :1]
    n_rows, n_cols = int(keep.sum()), a.shape[2] * mon.shape[1]
    if n_rows * n_cols > MAX_SYSTEM_FLOATS:
        raise QsgError(f"the least-squares system would be {n_rows} x {n_cols} floats "
                       f"({8 * n_rows * n_cols / 1e9:.2f} GB), more than {MAX_SYSTEM_FLOATS}; "
                       "use a lower --degree")
    owner = np.nonzero(keep)[0]
    w = (s[:, :, None] * vt)[keep]  # (rows, d^3)
    rows = w[:, :, None] * mon[owner][:, None, :]
    rows = rows.reshape(len(owner), w.shape[1] * mon.shape[1])
    rhs = contract("nmq,nm->nq", u, b)[keep]
    return rows, rhs


def _pinv(mat: np.ndarray):
    """Pseudo-inverse and numerical rank from one SVD; singular values at or
    below ``eps * max(mat.shape) * s_max`` count as zero, the cut-off of
    ``_compressed_rows`` and ``_lstsq``."""
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    keep = s > np.finfo(float).eps * max(mat.shape) * s[:1]
    return (vt[keep].T / s[keep]) @ u[:, keep].T, int(keep.sum())


def _kronecker_solve(a0: np.ndarray, b: np.ndarray, mon: np.ndarray, c0: np.ndarray):
    """``_solve`` when every point shares the block ``a0``.  The system is
    then ``kron(a0, mon) x = b`` (rows ordered by component, then point),
    whose pseudo-inverse is ``kron(pinv(a0), pinv(mon))``, so the
    minimum-norm correction to the anchor X0 (``c0`` as a ``(d^3, k)``
    matrix) is ``pinv(a0) (b^T - a0 X0 mon^T) pinv(mon)^T``.  ``rows`` is
    what ``_compressed_rows`` would keep, ``n * rank(a0)``, and the rank is
    ``rank(a0) * rank(mon)``."""
    pa, rank_a = _pinv(a0)
    pm, rank_m = _pinv(mon)
    x0 = c0.reshape(a0.shape[1], mon.shape[1])
    delta = pa @ (b.T - a0 @ x0 @ mon.T) @ pm.T
    return c0 + delta.reshape(-1), mon.shape[0] * rank_a, c0.size, rank_a * rank_m


def _solve(a: np.ndarray, b: np.ndarray, mon: np.ndarray, c0: np.ndarray):
    """Least-squares solution of ``kron(a[n], mon[n]) x = b[n]`` over all
    points n that is nearest ``c0``; returns it with the ``rows``, ``cols``
    and ``rank`` of the system solved.  Blocks that are bitwise identical
    at every point (any point-independent constraint) take
    ``_kronecker_solve``; otherwise the blocks are compressed per point and
    solved with ``_lstsq``."""
    if np.all(a == a[:1]):
        return _kronecker_solve(a[0], b, mon, c0)
    rows, rhs = _compressed_rows(a, b, mon)
    delta, rank = _lstsq(rows, rhs - rows @ c0)
    return c0 + delta, rows.shape[0], rows.shape[1], rank


def synthesize_connection(model: ChartModel, constraints, ansatz_degree: int = 1,
                          seed: int = 0, anchor_scale: float = 0.0) -> tuple:
    """Fit polynomial symbols to a set of affine constraints; returns the
    connection and its ``fit``, the dict ``qsg synthesize`` prints.

    Every supported constraint is pointwise affine in the symbol values, so
    one evaluation with block-constant probe symbols gives each fit point's
    Jacobian block (see ``_probe_jacobian``).  The system is solved for the
    minimum-norm correction to an anchor (``_solve``: one Kronecker solve
    when the blocks are identical at every point, per-point rank
    compression otherwise), then scored on a held-out sample set disjoint
    from the fitting set.  ``anchor_scale``
    biases the solution toward a random target inside the solution
    manifold, which keeps witnesses away from the torsion-free corner when
    the constraint set permits.

    ``fit`` holds the held-out ``residual`` (the largest of the
    ``constraint_residuals``), the ``fit_points`` and ``holdout_points``
    counts, and ``rows``, ``cols`` and ``rank``: the shape of the
    compressed system (``cols = d^3 * k`` for k ansatz monomials), one row
    per kept singular value of each fit point's block, and its numerical
    rank.  On the Kronecker path (identical blocks A at all n points) no
    rows are formed; ``rows`` is then ``n * rank(A)``, the count the
    compressed path would solve, and ``rank`` is ``rank(A) * rank(M)`` for
    the monomial matrix M.
    """
    d = model.dimension
    if not constraints:
        raise QsgError("no constraints given")
    valid = valid_constraints(model)
    unknown = [c for c in constraints if c not in valid]
    if unknown:
        raise QsgError(f"unknown or unavailable constraints: {unknown}; "
                       f"valid here: {valid}")
    repeated = [c for i, c in enumerate(constraints) if c in constraints[:i]]
    if repeated:
        raise QsgError(f"constraint {repeated[0]!r} is listed more than once")
    box = model.domain.box
    exps = monomial_exponents(d, ansatz_degree)
    k = exps.shape[0]
    r_sym = d ** 3

    active = [CONSTRAINTS[c].residual for c in constraints]

    def eval_all(conn, pts):
        at = ModelAt(model, pts, conn)
        return np.concatenate([_flatten(f(at)) for f in active], axis=1)

    pts_out = sampling.sample_box(box, HOLDOUT_POINTS, seed, T_S, 1)
    # enough rows that a spurious interpolant cannot fit the ansatz
    m_probe = eval_all(ConstantConnection(np.zeros((d, d, d))), pts_out[:1]).shape[1]
    n_fit = int(min(120, max(16, np.ceil(2.5 * r_sym * k / m_probe))))
    pts_fit = sampling.sample_box(box, n_fit, seed, T_S, 0)

    base, a = _probe_jacobian(eval_all, pts_fit)
    mon = _basis_values(exps, pts_fit)  # (n, k)

    rng = sampling.rng(seed, T_S, 2)
    c0 = np.zeros(r_sym * k)
    if anchor_scale > 0.0:
        c0 = anchor_scale * rng.standard_normal(r_sym * k)
    coefs, n_rows, n_cols, rank = _solve(a, -base, mon, c0)

    conn = PolyConnection(PolyTensorField(
        d, (1, 2), exps=exps, coefs=np.moveaxis(coefs.reshape(d, d, d, k), -1, 0)
    ))

    held_out = ModelAt(model, pts_out, conn)
    per = {name: float(np.abs(f(held_out)).max()) for name, f in zip(constraints, active)}
    return conn, {"residual": float(np.max(list(per.values()))), "constraint_residuals": per,
                  "fit_points": n_fit, "holdout_points": HOLDOUT_POINTS,
                  "rows": n_rows, "cols": n_cols, "rank": rank}
