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
At a frozen point array (read-only and owning its data) a field keeps its
last values and jets and returns them, read-only, while called with that
same array again; the suite freezes its trial points, ``check`` and
``synthesize`` do not.
A product of two fields (:func:`poly_einsum`) contracts their component
indices in one ``contraction.contract`` call, batched over the basis rows
of the shorter factor and with the other factor's basis rows among the
matrix rows; the pairwise exponent sums are keyed and made unique, and the
product table is scatter-added onto that canonical union one row of the
shorter factor at a time, so it is never sorted or copied.  A product of
one field with constant arrays keeps that field's basis.  Model files are
read and written in this form too.  :class:`PolyExpr`, one polynomial in
the same canonical term order, is kept for the tests, which use it as an
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps

import numpy as np

from .contraction import contract
from .errors import QsgError


@dataclass(frozen=True)
class ChartDomain:
    """Box-shaped coordinate chart of even dimension."""

    dimension: int
    box: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if self.dimension < 2 or self.dimension % 2 != 0:
            raise QsgError(f"chart dimension must be even and >= 2, got {self.dimension}")
        if len(self.box) != self.dimension:
            raise QsgError("box must have one interval per coordinate")
        for lo, hi in self.box:
            if not (np.isfinite(lo) and np.isfinite(hi) and hi > lo):
                raise QsgError(f"degenerate chart interval ({lo}, {hi})")

    @classmethod
    def cube(cls, dimension: int) -> "ChartDomain":
        return cls(dimension, tuple((-0.5, 0.5) for _ in range(dimension)))


class PolyExpr:
    """A multivariate polynomial: exponent rows plus coefficients; the
    tests' per-component oracle.

    Terms are normalized on construction: duplicate exponent rows are
    combined, exact zeros dropped, rows sorted so equal polynomials have
    identical term lists.
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
            raise QsgError("exponent rows and coefficients must align")
        if np.any(exps < 0):
            raise QsgError("negative exponents are not polynomials")
        if coefs.size and not np.all(np.isfinite(coefs)):
            raise QsgError("non-finite polynomial coefficient")
        self.exps, self.coefs = _canonical_terms(exps, coefs)
        self._diffs = None

    # -- algebra ------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        return PolyExpr(
            self.dimension,
            np.vstack([self.exps, other.exps]),
            np.concatenate([self.coefs, other.coefs]),
        )

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
                raise QsgError("polynomial dimensions differ")
            return other
        raise QsgError(f"cannot combine PolyExpr with {type(other)!r}")

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
            raise QsgError("point dimension does not match polynomial")
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
    field's component shape) are carried along.  Rows that already come in
    strictly increasing order, such as a product's union basis, are not
    sorted again."""
    key = _row_keys(exps)
    if np.any(key[1:] <= key[:-1]):
        order = np.argsort(key, kind="stable")
        key = key[order]
        starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        exps = exps[order[starts]]
        coefs = np.add.reduceat(coefs[order], starts, axis=0)
    keep = np.any(coefs != 0.0, axis=tuple(range(1, coefs.ndim)))
    return exps[keep], coefs[keep]


def _basis_values(exps: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Monomial values ``V[n, r] = prod_k pts[n, k] ** exps[r, k]``, built
    from one power table per axis (no ``(n, m, d)`` temporary).

    Each axis's table is filled by repeated multiplication, ``x^0 = 1`` and
    ``x^(p+1) = x^p * x``, not by libm ``pow``; its rows are gathered by
    that axis's exponents and multiplied into the result, axis by axis.  So
    an entry of total degree t takes at most t - 1 roundings: barring
    underflow it is within a relative ``(t + d) 2^-53`` of the exact
    product, and exact at points whose powers and products are
    representable, such as dyadic points of few bits."""
    if pts.shape[1] != exps.shape[1]:
        raise QsgError("point dimension does not match field")
    n = pts.shape[0]
    out = np.ones((n, exps.shape[0]))
    for k, col in enumerate(exps.T):
        top = int(col.max(initial=0))
        if top:
            table = np.empty((top + 1, n))
            table[0] = 1.0
            for p in range(top):
                np.multiply(table[p], pts[:, k], out=table[p + 1])
            out *= table[col].T
    return out


def _memo_frozen(method):
    """Memoize ``method(self, pts)`` on the field for the last point array
    it was called with, when that array is frozen: read-only and owning its
    data.  No view can write into such an array, and while the memo holds
    it, it cannot be freed and its id reused, so its identity names its
    values.  Results there are read-only and shared by every caller; other
    arrays are evaluated afresh."""
    name = method.__name__

    @wraps(method)
    def memoized(self, pts):
        if not (isinstance(pts, np.ndarray) and not pts.flags.writeable and pts.flags.owndata):
            return method(self, pts)
        hit = self._memo.get(name)
        if hit is not None and hit[0] is pts:
            return hit[1]
        out = method(self, pts)
        for arr in out if isinstance(out, tuple) else (out,):
            arr.flags.writeable = False
        self._memo[name] = (pts, out)
        return out

    return memoized


class PolyTensorField:
    """Polynomial tensor field with a fixed valence, stored as a coefficient
    tensor ``coefs[m, *shape]`` over an exponent basis ``exps[m, d]`` (see
    the module docstring).  Fields are immutable (``exps`` and ``coefs``
    are read-only).  Evaluation is pure except for the memo of ``values``
    and ``jets`` at frozen points, which a call replaces by writing one dict
    entry, so concurrent use is safe.
    """

    def __init__(self, dimension: int, valence: tuple[int, int], *, exps, coefs):
        """Build from the dense form: component ``idx`` is
        ``sum_r coefs[r, idx] x^exps[r]``.

        Rows may repeat and come in any order: they are summed, sorted into
        canonical order, and dropped when zero in every component.  A
        non-finite coefficient raises ``QsgError``.
        """
        self.dimension = int(dimension)
        self.valence = (int(valence[0]), int(valence[1]))
        exps = np.asarray(exps, dtype=np.int64).reshape(-1, self.dimension)
        coefs = np.asarray(coefs, dtype=float)
        if coefs.shape != (exps.shape[0],) + self.shape:
            raise QsgError(
                f"coefficient tensor shape {coefs.shape} does not match {exps.shape[0]} "
                f"basis rows and valence {self.valence} in dimension {self.dimension}"
            )
        if np.any(exps < 0):
            raise QsgError("negative exponents are not polynomials")
        if not np.all(np.isfinite(coefs)):
            raise QsgError("non-finite polynomial coefficient")
        exps, coefs = _canonical_terms(exps, coefs)
        exps.flags.writeable = False
        coefs.flags.writeable = False
        self._exps, self._coefs = exps, coefs
        self._jet_cache = None
        self._memo = {}  # method name -> (frozen points, read-only result)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zeros(dimension: int, valence) -> "PolyTensorField":
        rank = valence[0] + valence[1]
        return PolyTensorField(dimension, valence, exps=np.zeros((0, dimension)),
                               coefs=np.zeros((0,) + (dimension,) * rank))

    @staticmethod
    def constant(dimension: int, valence, array) -> "PolyTensorField":
        return PolyTensorField(dimension, valence, exps=np.zeros((1, dimension)),
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

    @_memo_frozen
    def values(self, pts: np.ndarray) -> np.ndarray:
        """Values ``(n, *shape)``, memoized at frozen points like :meth:`jets`."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        flat = self._coefs.reshape(self._exps.shape[0], self.dimension ** self.rank)
        return (_basis_values(self._exps, pts) @ flat).reshape((pts.shape[0],) + self.shape)

    @_memo_frozen
    def jets(self, pts: np.ndarray):
        """Values ``(n, *shape)`` and gradients ``(n, *shape, d)`` from one
        basis evaluation and one matrix product.  Every call returns fresh
        arrays, except at a frozen point array (read-only and owning its
        data): called again with the same one, the field returns the same
        read-only arrays (``_memo_frozen``)."""
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
            raise QsgError(f"expected PolyTensorField, got {type(other)!r}")
        if other.dimension != self.dimension or other.valence != self.valence:
            raise QsgError(
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
            raise QsgError("transpose_02 expects a (0,2) field")
        return self._like(self._exps, np.swapaxes(self._coefs, 1, 2))


# -- polynomial tensor algebra used to assemble structure fields ----------

def poly_einsum(subscripts: str, *operands, valence) -> PolyTensorField:
    """Einsum over component indices in which :class:`PolyTensorField`
    operands multiply as polynomials and array operands act as constants.

    ``subscripts`` names component indices only, in lower-case letters.  A
    product of one field with constant arrays keeps that field's basis: it
    is one einsum over its coefficient tensor.  A product of two fields
    takes no other operand, and its spec must be a plain contraction: no
    index repeats within a term, and the indices of the output are exactly
    those of one factor only (see :func:`_field_product`).  More than two
    fields raise ``QsgError``; chain binary products instead.
    """
    inputs, output = subscripts.split("->")
    specs = inputs.split(",")
    fields = [k for k, op in enumerate(operands) if isinstance(op, PolyTensorField)]
    if len(fields) == 2 and len(operands) == 2:
        return _field_product(specs[0], operands[0], specs[1], operands[1], output, valence)
    if len(fields) != 1:
        raise QsgError(
            f"poly_einsum multiplies one field by constant arrays or two fields alone, "
            f"not {len(fields)} fields among {len(operands)} operands"
        )
    (k,) = fields
    field = operands[k]
    specs[k] = "A" + specs[k]
    arrays = [field.coefs if op is field else np.asarray(op, dtype=float) for op in operands]
    coefs = np.einsum(",".join(specs) + "->A" + output, *arrays)
    return PolyTensorField(field.dimension, valence, exps=field.exps, coefs=coefs)


def _field_product(s1: str, f1: PolyTensorField, s2: str, f2: PolyTensorField, output: str,
                   valence) -> PolyTensorField:
    """The product ``s1,s2->output`` of two fields.

    One ``contract`` call contracts the component indices, batched over the
    rows ``A`` of the shorter factor and with the other factor's basis rows
    ``B`` among the matrix rows: ``table[a, b, cols, rows]`` multiplies row
    ``a`` of the one with row ``b`` of the other.  The summed exponent rows
    are keyed and made unique, and the table is scatter-added onto that
    canonical union one row ``a`` at a time; it is never sorted or copied.
    """
    if f1.dimension != f2.dimension:
        raise QsgError("polynomial fields live on different charts")
    if (len(set(s1)) < len(s1) or len(set(s2)) < len(s2) or len(set(output)) < len(output)
            or set(output) != set(s1) ^ set(s2)):
        raise QsgError(f"not a plain contraction of two fields: {s1},{s2}->{output}")
    if f2.exps.shape[0] < f1.exps.shape[0]:
        s1, f1, s2, f2 = s2, f2, s1, f1
    d, m1, m2 = f1.dimension, f1.exps.shape[0], f2.exps.shape[0]
    rows = "".join(i for i in s1 if i not in s2)
    cols = "".join(i for i in s2 if i not in s1)
    table = contract(f"A{s1},B{s2}->AB{cols}{rows}", f1.coefs, f2.coefs)
    table = table.reshape(m1, m2, d ** len(output))
    sums = (f1.exps[:, None, :] + f2.exps[None, :, :]).reshape(m1 * m2, d)
    keys, first, pos = np.unique(_row_keys(sums), return_index=True, return_inverse=True)
    pos = pos.reshape(m1, m2)
    coefs = np.zeros((len(keys), d ** len(output)))
    for a in range(m1):
        # the rows b of one factor are distinct, so their sums with row a
        # land on distinct positions and the fancy-indexed add is exact
        coefs[pos[a]] += table[a]
    coefs = coefs.reshape((len(keys),) + (d,) * len(output))
    coefs = coefs.transpose([0] + [1 + (cols + rows).index(i) for i in output])
    return PolyTensorField(d, valence, exps=sums[first], coefs=coefs)

