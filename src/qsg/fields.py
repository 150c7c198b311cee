"""Polynomial scalar/tensor fields on a single coordinate chart.

Components are multivariate polynomials, so evaluation returns exact values
and exact first partial derivatives (only float rounding, no truncation).
All covariant and exterior differentiation downstream rests on this, which
is what makes identity residuals attributable to the math rather than to
numerical differentiation.

Index conventions used throughout the package:

* points are arrays of shape ``(n, d)``;
* a valence ``(p, q)`` field has component shape ``(d,) * (p + q)``, upper
  indices first;
* ``values(pts)`` returns ``(n, *shape)``; ``jets(pts)`` additionally
  returns the gradient array ``(n, *shape, d)`` with the derivative axis
  last.

Storage layout: a field holds one exponent basis ``E[m, d]``, the sorted
union of its components' monomials in the canonical term order of
:class:`PolyExpr`, and one coefficient tensor ``C[m, *shape]`` over that
basis, so component ``idx`` is ``sum_r C[r, idx] x^E[r]``.  Evaluation
builds the basis values ``V(pts)`` (n x m) once and multiplies by ``C``;
jets multiply by ``[C | d_1 C | ... | d_d C]`` in the same single product.
A product of fields is one einsum over the coefficient tensors followed by a
scatter-add of the pairwise exponent sums onto their canonical union
(:func:`poly_einsum`).  Model files are read and written in this form too;
:class:`PolyExpr` serves the tests as an oracle and ``generate.random_poly``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, ShapeError


@dataclass(frozen=True)
class ChartDomain:
    """Box-shaped coordinate chart of even dimension."""

    dimension: int
    box: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if self.dimension < 2 or self.dimension % 2 != 0:
            raise ShapeError(f"chart dimension must be even and >= 2, got {self.dimension}")
        if len(self.box) != self.dimension:
            raise ShapeError("box must have one interval per coordinate")
        for lo, hi in self.box:
            if not (np.isfinite(lo) and np.isfinite(hi) and hi > lo):
                raise ShapeError(f"degenerate chart interval ({lo}, {hi})")

    @classmethod
    def cube(cls, dimension: int) -> "ChartDomain":
        return cls(dimension, tuple((-0.5, 0.5) for _ in range(dimension)))


class PolyExpr:
    """A multivariate polynomial: exponent rows plus coefficients.

    Terms are normalized on construction: duplicate exponent rows are
    combined, exact zeros dropped, rows sorted so equal polynomials have
    identical term lists (serialization and hashing depend on this).
    """

    __slots__ = ("dimension", "exps", "coefs", "_diffs")

    def __init__(self, dimension: int, exps=None, coefs=None):
        self.dimension = int(dimension)
        if exps is None:
            exps = np.zeros((0, self.dimension), dtype=np.int64)
            coefs = np.zeros(0, dtype=float)
        exps = np.asarray(exps, dtype=np.int64).reshape(-1, self.dimension)
        coefs = np.asarray(coefs, dtype=float).reshape(-1)
        if exps.shape[0] != coefs.shape[0]:
            raise ShapeError("exponent rows and coefficients must align")
        if np.any(exps < 0):
            raise ShapeError("negative exponents are not polynomials")
        if coefs.size and not np.all(np.isfinite(coefs)):
            raise EvaluationError("non-finite polynomial coefficient")
        self.exps, self.coefs = _canonical_terms(exps, coefs)
        self._diffs = None

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, dimension: int, c: float) -> "PolyExpr":
        if c == 0.0:
            return cls(dimension)
        return cls(dimension, np.zeros((1, dimension), dtype=np.int64), [c])

    @classmethod
    def from_terms(cls, dimension: int, terms) -> "PolyExpr":
        """terms: iterable of (exponent sequence, coefficient)."""
        exps = [t[0] for t in terms]
        coefs = [t[1] for t in terms]
        return cls(dimension, exps, coefs)

    @classmethod
    def coordinate(cls, dimension: int, axis: int) -> "PolyExpr":
        e = np.zeros((1, dimension), dtype=np.int64)
        e[0, axis] = 1
        return cls(dimension, e, [1.0])

    @classmethod
    def sum_of(cls, dimension: int, polys) -> "PolyExpr":
        """Sum many polynomials with a single normalization pass."""
        polys = [p for p in polys if p.exps.shape[0]]
        if not polys:
            return cls(dimension)
        return cls(
            dimension,
            np.vstack([p.exps for p in polys]),
            np.concatenate([p.coefs for p in polys]),
        )

    # -- algebra ------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        return PolyExpr(
            self.dimension,
            np.vstack([self.exps, other.exps]),
            np.concatenate([self.coefs, other.coefs]),
        )

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __neg__(self):
        return PolyExpr(self.dimension, self.exps, -self.coefs)

    def __mul__(self, other):
        if np.isscalar(other):
            return PolyExpr(self.dimension, self.exps, self.coefs * float(other))
        other = self._coerce(other)
        if self.exps.shape[0] == 0 or other.exps.shape[0] == 0:
            return PolyExpr(self.dimension)
        e = (self.exps[:, None, :] + other.exps[None, :, :]).reshape(-1, self.dimension)
        c = (self.coefs[:, None] * other.coefs[None, :]).reshape(-1)
        return PolyExpr(self.dimension, e, c)

    __rmul__ = __mul__

    def _coerce(self, other) -> "PolyExpr":
        if isinstance(other, PolyExpr):
            if other.dimension != self.dimension:
                raise ShapeError("polynomial dimensions differ")
            return other
        if np.isscalar(other):
            return PolyExpr.constant(self.dimension, float(other))
        raise ShapeError(f"cannot combine PolyExpr with {type(other)!r}")

    @property
    def degree(self) -> int:
        if self.exps.shape[0] == 0:
            return 0
        return int(self.exps.sum(axis=1).max())

    def is_zero(self) -> bool:
        return self.exps.shape[0] == 0

    def diff(self, axis: int) -> "PolyExpr":
        mask = self.exps[:, axis] > 0
        if not np.any(mask):
            return PolyExpr(self.dimension)
        e = self.exps[mask].copy()
        c = self.coefs[mask] * e[:, axis]
        e[:, axis] -= 1
        return PolyExpr(self.dimension, e, c)

    # -- evaluation ---------------------------------------------------

    def eval(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if pts.shape[1] != self.dimension:
            raise ShapeError("point dimension does not match polynomial")
        if self.exps.shape[0] == 0:
            return np.zeros(pts.shape[0])
        powers = pts[:, None, :] ** self.exps[None, :, :]
        return powers.prod(axis=2) @ self.coefs

    def jet(self, pts: np.ndarray):
        """Return (values (n,), gradients (n, d))."""
        vals = self.eval(pts)
        if self._diffs is None:
            self._diffs = tuple(self.diff(k) for k in range(self.dimension))
        grads = np.stack([dk.eval(pts) for dk in self._diffs], axis=-1)
        return vals, grads

    def terms(self):
        """Canonical (exponent list, coefficient) pairs for serialization."""
        return [(list(map(int, e)), float(c)) for e, c in zip(self.exps, self.coefs)]

    def __repr__(self):
        return f"PolyExpr(d={self.dimension}, terms={self.terms()})"


def _row_keys(exps: np.ndarray) -> np.ndarray:
    """One integer per exponent row, increasing in canonical term order
    (the last axis is the most significant digit)."""
    d = exps.shape[1]
    radix = int(exps.max(initial=0)) + 1
    if radix ** d < 2 ** 63:
        return exps @ (radix ** np.arange(d, dtype=np.int64))
    # too wide to pack into one integer: rank the rows instead
    return np.unique(exps[:, ::-1], axis=0, return_inverse=True)[1].reshape(-1)


def _canonical_terms(exps: np.ndarray, coefs: np.ndarray):
    """Sort exponent rows into canonical order, sum the coefficients of
    repeated rows (in input order) and drop rows whose coefficients are all
    exactly zero.  ``coefs`` has one leading row axis; any trailing axes (a
    field's component shape) are carried along."""
    if exps.shape[0] > 1:
        key = _row_keys(exps)
        order = np.argsort(key, kind="stable")
        key = key[order]
        starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        exps = exps[order[starts]]
        coefs = np.add.reduceat(coefs[order], starts, axis=0)
    keep = np.any(coefs != 0.0, axis=tuple(range(1, coefs.ndim)))
    return exps[keep], coefs[keep]


def _basis_values(exps: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Monomial values ``V[n, r] = prod_k pts[n, k] ** exps[r, k]``, built
    from one power table per axis (no ``(n, m, d)`` temporary)."""
    if pts.shape[1] != exps.shape[1]:
        raise ShapeError("point dimension does not match field")
    out = np.ones((pts.shape[0], exps.shape[0]))
    for k, col in enumerate(exps.T):
        top = int(col.max(initial=0))
        if top:
            out *= (pts[:, k, None] ** np.arange(top + 1))[:, col]
    return out


class PolyTensorField:
    """Polynomial tensor field with a fixed valence, stored as a coefficient
    tensor ``coefs[m, *shape]`` over an exponent basis ``exps[m, d]`` (see
    the module docstring).  Fields are immutable (``exps`` and ``coefs``
    are read-only) and evaluation is pure, so concurrent use is safe.
    """

    def __init__(self, dimension: int, valence: tuple[int, int], comps=None, *,
                 exps=None, coefs=None):
        """Build from ``comps``, an object array of :class:`PolyExpr` of
        shape ``(d,) * (p + q)``, upper indices first; or from the dense
        form, component ``idx`` being ``sum_r coefs[r, idx] x^exps[r]``.

        Rows may repeat and come in any order: they are summed, sorted into
        canonical order, and dropped when zero in every component.  A
        non-finite coefficient raises ``EvaluationError``.
        """
        self.dimension = int(dimension)
        self.valence = (int(valence[0]), int(valence[1]))
        if comps is not None:
            comps = np.asarray(comps, dtype=object)
            if comps.shape != self.shape:
                raise ShapeError(
                    f"component array shape {comps.shape} does not match "
                    f"valence {self.valence} in dimension {self.dimension}"
                )
            polys = comps.reshape(-1)
            onehot = np.eye(len(polys))
            exps = np.vstack([np.zeros((0, self.dimension), dtype=np.int64)]
                             + [p.exps for p in polys])
            coefs = np.vstack([onehot[:0]]
                              + [p.coefs[:, None] * onehot[s] for s, p in enumerate(polys)])
            coefs = coefs.reshape((-1,) + self.shape)
        exps = np.asarray(exps, dtype=np.int64).reshape(-1, self.dimension)
        coefs = np.asarray(coefs, dtype=float)
        if coefs.shape != (exps.shape[0],) + self.shape:
            raise ShapeError(
                f"coefficient tensor shape {coefs.shape} does not match {exps.shape[0]} "
                f"basis rows and valence {self.valence} in dimension {self.dimension}"
            )
        if np.any(exps < 0):
            raise ShapeError("negative exponents are not polynomials")
        if not np.all(np.isfinite(coefs)):
            raise EvaluationError("non-finite polynomial coefficient")
        exps, coefs = _canonical_terms(exps, coefs)
        exps.flags.writeable = False
        coefs.flags.writeable = False
        self._exps, self._coefs = exps, coefs
        self._jet_cache = None

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, dimension: int, valence) -> "PolyTensorField":
        rank = valence[0] + valence[1]
        return cls(dimension, valence, exps=np.zeros((0, dimension)),
                   coefs=np.zeros((0,) + (dimension,) * rank))

    @classmethod
    def constant(cls, dimension: int, valence, array) -> "PolyTensorField":
        return cls(dimension, valence, exps=np.zeros((1, dimension)),
                   coefs=np.asarray(array, dtype=float)[None])

    # -- layout -------------------------------------------------------

    @property
    def exps(self) -> np.ndarray:
        """Exponent basis ``(m, d)`` in canonical order (read-only)."""
        return self._exps

    @property
    def coefs(self) -> np.ndarray:
        """Coefficient tensor ``(m, *shape)`` over ``exps`` (read-only)."""
        return self._coefs

    @property
    def rank(self) -> int:
        return self.valence[0] + self.valence[1]

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.dimension,) * self.rank

    @property
    def comps(self) -> np.ndarray:
        """Read-only object array of per-component :class:`PolyExpr`,
        rebuilt from the coefficient tensor on every access."""
        out = np.empty(self.shape, dtype=object)
        for idx in np.ndindex(self.shape):
            out[idx] = PolyExpr(self.dimension, self._exps, self._coefs[(slice(None),) + idx])
        out.flags.writeable = False
        return out

    def degree(self) -> int:
        return int(self._exps.sum(axis=1).max(initial=0))

    # -- evaluation ---------------------------------------------------

    def _jet_terms(self):
        """Basis closed under one differentiation, with the coefficients of
        the values and of every first partial over it, as one matrix
        ``[C | d_1 C | ... | d_d C]`` of shape ``(m', (1 + d) * S)``.
        Computed once per field."""
        if self._jet_cache is None:
            d, m = self.dimension, self._exps.shape[0]
            flat = self._coefs.reshape(m, d ** self.rank)
            # block k + 1 holds d_k: row e - e_k with coefficient e_k * C
            # (rows with e_k = 0 carry zeros and are clipped to stay valid)
            shifted = np.maximum(self._exps[None] - np.eye(d, dtype=np.int64)[:, None], 0)
            exps = np.concatenate([self._exps[None], shifted]).reshape(-1, d)
            weight = np.vstack([np.ones(m), self._exps.T])
            coefs = np.zeros((d + 1, m, d + 1, flat.shape[1]))
            coefs[np.arange(d + 1), :, np.arange(d + 1)] = weight[:, :, None] * flat
            exps, coefs = _canonical_terms(exps, coefs.reshape((d + 1) * m, d + 1, flat.shape[1]))
            self._jet_cache = (exps, coefs.reshape(exps.shape[0], (d + 1) * flat.shape[1]))
        return self._jet_cache

    def values(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        flat = self._coefs.reshape(self._exps.shape[0], self.dimension ** self.rank)
        return (_basis_values(self._exps, pts) @ flat).reshape((pts.shape[0],) + self.shape)

    def jets(self, pts: np.ndarray):
        """Values ``(n, *shape)`` and gradients ``(n, *shape, d)`` from one
        basis evaluation and one matrix product.  Every call returns fresh
        arrays."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        exps, table = self._jet_terms()
        out = (_basis_values(exps, pts) @ table).reshape(
            (pts.shape[0], self.dimension + 1) + self.shape
        )
        return out[:, 0], np.moveaxis(out[:, 1:], 1, -1)

    def gradient(self) -> "PolyTensorField":
        """The valence ``(p, q + 1)`` field of first partials, derivative
        index last: ``out[..., k] = d_k self[...]``."""
        exps, table = self._jet_terms()
        d = self.dimension
        partials = table.reshape((exps.shape[0], d + 1) + self.shape)[:, 1:]
        return PolyTensorField(d, (self.valence[0], self.valence[1] + 1), exps=exps,
                               coefs=np.moveaxis(partials, 1, -1))

    # -- arithmetic ---------------------------------------------------

    def _check_compatible(self, other: "PolyTensorField"):
        if not isinstance(other, PolyTensorField):
            raise ShapeError(f"expected PolyTensorField, got {type(other)!r}")
        if other.dimension != self.dimension or other.valence != self.valence:
            raise ShapeError(
                f"valence/dimension mismatch: {self.valence}@{self.dimension} "
                f"vs {other.valence}@{other.dimension}"
            )

    def _like(self, exps, coefs) -> "PolyTensorField":
        return PolyTensorField(self.dimension, self.valence, exps=exps, coefs=coefs)

    def __add__(self, other):
        self._check_compatible(other)
        return self._like(np.vstack([self._exps, other._exps]),
                          np.concatenate([self._coefs, other._coefs]))

    def __sub__(self, other):
        self._check_compatible(other)
        return self._like(np.vstack([self._exps, other._exps]),
                          np.concatenate([self._coefs, -other._coefs]))

    def scale(self, c: float) -> "PolyTensorField":
        return self._like(self._exps, self._coefs * float(c))

    def __neg__(self):
        return self.scale(-1.0)

    def transpose_02(self) -> "PolyTensorField":
        if self.valence != (0, 2):
            raise ShapeError("transpose_02 expects a (0,2) field")
        return self._like(self._exps, np.swapaxes(self._coefs, 1, 2))


# -- polynomial tensor algebra used to assemble structure fields ----------

_BASIS_AXES = "ABCDEFGH"


def poly_einsum(subscripts: str, *operands, valence) -> PolyTensorField:
    """Einsum over component indices in which :class:`PolyTensorField`
    operands multiply as polynomials and array operands act as constants.

    ``subscripts`` names component indices only, in lower-case letters.
    Each field operand adds its basis axis to one einsum over coefficient
    tensors; the sums of the basis rows along those axes form the product
    table, and the result is scatter-added onto its canonical union.  The
    table has ``m1 * m2 * ...`` rows, so chain binary products instead of
    multiplying many fields in one call.
    """
    inputs, output = subscripts.split("->")
    specs, arrays, axes = [], [], ""
    dimension, exps = None, None
    for spec, op in zip(inputs.split(","), operands):
        if isinstance(op, PolyTensorField):
            if dimension is None:
                dimension, exps = op.dimension, op.exps
            elif op.dimension != dimension:
                raise ShapeError("polynomial fields live on different charts")
            else:
                exps = (exps[:, None, :] + op.exps[None, :, :]).reshape(-1, dimension)
            axes += _BASIS_AXES[len(axes)]
            specs.append(axes[-1] + spec)
            arrays.append(op.coefs)
        else:
            specs.append(spec)
            arrays.append(np.asarray(op, dtype=float))
    coefs = np.einsum(",".join(specs) + "->" + axes + output, *arrays)
    return PolyTensorField(dimension, valence, exps=exps,
                           coefs=coefs.reshape((exps.shape[0],) + coefs.shape[len(axes):]))


def j_apply_vector(J: PolyTensorField, X: PolyTensorField) -> PolyTensorField:
    """(1,1) field applied to a vector field: ``(J X)^k = J^k_j X^j``."""
    if J.valence != (1, 1) or X.valence != (1, 0):
        raise ShapeError("j_apply_vector expects a (1,1) and a (1,0) field")
    return poly_einsum("kj,j->k", J, X, valence=(1, 0))


def compose_11(A: PolyTensorField, B: PolyTensorField) -> PolyTensorField:
    """Composition of (1,1) fields: ``(A B)^k_j = A^k_m B^m_j``."""
    return poly_einsum("km,mj->kj", A, B, valence=(1, 1))


def bilinear_pullback_first(b: PolyTensorField, J: PolyTensorField) -> PolyTensorField:
    """(0,2) field with the first slot twisted: ``b(J.,.)_{ij} = J^k_i b_{kj}``."""
    return poly_einsum("ki,kj->ij", J, b, valence=(0, 2))


def bilinear_pullback_both(b: PolyTensorField, J: PolyTensorField) -> PolyTensorField:
    """(0,2) field with both slots twisted: ``b(J.,J.)_{ij} = J^k_i J^l_j b_{kl}``."""
    return poly_einsum("il,lj->ij", bilinear_pullback_first(b, J), J, valence=(0, 2))


def symmetrize_02(b: PolyTensorField) -> PolyTensorField:
    return (b + b.transpose_02()).scale(0.5)


def scalar_times_field(f: PolyExpr, t: PolyTensorField) -> PolyTensorField:
    idx = "abcdefgh"[: t.rank]
    scalar = PolyTensorField(f.dimension, (0, 0), exps=f.exps, coefs=f.coefs)
    return poly_einsum(f",{idx}->{idx}", scalar, t, valence=t.valence)
