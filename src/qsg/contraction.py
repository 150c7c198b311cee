"""Pointwise tensor contractions as batched matrix products.

Every kernel of the package contracts arrays that share a leading batch
axis, one sample point per row: ``contract("nkm,nmij->nkij", jv, tv)`` is
``np.einsum`` of the same spec.  Two operands contract as one batched
``np.matmul``.  The output indices are read from the end: the last ones
that belong to one operand only are the columns of the product, the ones
before them that belong to the other operand only are its rows, and every
index before those is a batch axis, shared by both operands or broadcast
over the one that lacks it.  Each operand is transposed and reshaped into
its stack of matrices, so the product comes out C-contiguous and already
in output order.  For the small per-point matrices of a chart this is
several times faster than the generic einsum loop.

Products of polynomial fields (``fields.poly_einsum``) go through the same
planner with basis axes in place of points: ``A`` indexes the shorter
factor's basis rows and is the batch axis, and ``B`` indexes the other
factor's, which sit among the matrix rows.
"""

from __future__ import annotations

from functools import cache
from math import prod
from typing import NamedTuple

import numpy as np


class _Plan(NamedTuple):
    swap: bool  # the spec's second operand is the left factor
    left: tuple  # the left factor's axes in (batch, rows, summed) order
    right: tuple  # the right factor's axes in (batch, summed, columns) order
    left_index: tuple  # indexes each factor's batch axes, None where it lacks one
    right_index: tuple
    batch: int  # the number of batch, row and summed indices
    rows: int
    summed: int


@cache
def _plan(spec: str) -> _Plan:
    inputs, _, out = spec.partition("->")
    a, _, b = inputs.partition(",")
    if not out or not b or "," in b:
        raise ValueError(f"contract takes two operands and an explicit output: {spec!r}")
    for term in (a, b, out):
        if len(set(term)) != len(term):
            raise ValueError(f"repeated index in {term!r} of {spec!r}")
    if set(out) - set(a + b) or (set(a) ^ set(b)) - set(out):
        raise ValueError(f"every index of {spec!r} must occur in exactly two terms")
    swap = out[-1] in a and out[-1] not in b
    left, right = (b, a) if swap else (a, b)
    cut = len(out)
    while cut and out[cut - 1] in right and out[cut - 1] not in left:
        cut -= 1
    cols = out[cut:]
    while cut and out[cut - 1] in left and out[cut - 1] not in right:
        cut -= 1
    batch, rows = out[:cut], out[cut:len(out) - len(cols)]
    summed = [i for i in left if i not in out]
    return _Plan(
        swap=swap,
        left=tuple(left.index(i) for i in [*batch, *rows, *summed] if i in left),
        right=tuple(right.index(i) for i in [*batch, *summed, *cols] if i in right),
        left_index=tuple(slice(None) if i in left else None for i in batch),
        right_index=tuple(slice(None) if i in right else None for i in batch),
        batch=len(batch),
        rows=len(rows),
        summed=len(summed),
    )


def contract(spec: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.einsum(spec, a, b)`` for a two-operand spec in which every
    index occurs in exactly two of the three terms, computed as one batched
    ``np.matmul``.

    The result is always a new, writeable, C-contiguous array that shares
    no memory with ``a`` or ``b``, so callers may accumulate into it with
    ``out=`` even when the operands are read-only memoized arrays.
    """
    p = _plan(spec)
    if p.swap:
        a, b = b, a
    left = a.transpose(p.left)[p.left_index]
    right = b.transpose(p.right)[p.right_index]
    nb = p.batch
    rows, summed = left.shape[nb:nb + p.rows], left.shape[nb + p.rows:]
    cols = right.shape[nb + p.summed:]
    batch = left.shape[:nb]
    if batch != right.shape[:nb]:  # an operand lacks a batch index
        batch = np.broadcast_shapes(batch, right.shape[:nb])
    # the product is written into an array that owns its memory, so numpy
    # can reuse it in place as the temporary of a following expression
    out = np.empty(batch + rows + cols)
    np.matmul(left.reshape(left.shape[:nb] + (prod(rows), prod(summed))),
              right.reshape(right.shape[:nb] + (prod(summed), prod(cols))),
              out=out.reshape(batch + (prod(rows), prod(cols))))
    return out
