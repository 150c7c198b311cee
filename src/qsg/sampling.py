"""Seeded, splittable randomness and quasi-random chart sampling.

Every random draw in the package descends from an integer run seed plus a
path of small integers (dimension, trial index, purpose tag).  Streams are
Philox counter-based generators keyed through ``numpy.random.SeedSequence``
spawn keys, so results are bitwise reproducible and independent of
execution order or thread count.

Chart points come from Owen's randomized Halton sequence (arXiv:1706.02808):
coordinate k is the radical inverse of the point index in the k-th prime
base, with each digit position sent through its own random permutation of
the digits.  The random draws and the summation order are those of
``scipy.stats.qmc.Halton(d, scramble=True, seed=rng(seed, *path))``, so
``sample_box`` reproduces scipy's points bit for bit without importing scipy.
"""

from __future__ import annotations

import math
import zlib
from bisect import bisect_left
from functools import lru_cache

import numpy as np

# fraction of each box side kept clear of sample points, at both ends
MARGIN = 0.05


def tag(name: str) -> int:
    """Stable 32-bit tag for a purpose string (never Python ``hash``)."""
    return zlib.crc32(name.encode("utf-8"))


def seed_sequence(seed: int, *path: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))


def rng(seed: int, *path: int) -> np.random.Generator:
    """Counter-based generator for the given (seed, path) stream."""
    return np.random.Generator(np.random.Philox(seed_sequence(seed, *path)))


@lru_cache(maxsize=None)
def _primes(d: int) -> tuple:
    """The first ``d`` primes."""
    primes = []
    cand = 2
    while len(primes) < d:
        if all(cand % p for p in primes if p * p <= cand):
            primes.append(cand)
        cand += 1
    return tuple(primes)


@lru_cache(maxsize=None)
def _digit_positions(base: int):
    """Place values and weights of the scrambled digits in ``base``.

    A double resolves ``base**-j`` while ``base**-j > 2**-54``, which gives
    ``ceil(54 / log2(base)) - 1`` digits.  Weight j is ``1/base`` divided
    by ``base`` j times, in that order.
    """
    count = math.ceil(54 / math.log2(base)) - 1
    weights = [1.0 / base]
    for _ in range(count - 1):
        weights.append(weights[-1] / base)
    powers = [base ** j for j in range(count)]
    return powers, np.array(powers)[:, None], np.array(weights)


def _halton(d: int, n: int, seed: int, *path: int) -> np.ndarray:
    """The first ``n`` points of the scrambled Halton sequence in ``[0, 1)^d``
    for the (seed, path) stream, shape ``(n, d)``."""
    perm_rng = np.random.Generator(np.random.Philox(seed_sequence(seed, *path).spawn(1)[0]))
    index = np.arange(n)
    # filled per coordinate and returned transposed: scipy's memory layout,
    # which fixes the summation order of later reductions over the points
    out = np.empty((d, n))
    for k, base in enumerate(_primes(d)):
        powers, place, weight = _digit_positions(base)
        perms = np.repeat(np.arange(base)[None], len(powers), axis=0)
        for row in perms:
            perm_rng.shuffle(row)
        # digits at positions >= m are 0 for every index below n
        m = max(1, bisect_left(powers, n))
        digits = index // place[:m] % base
        terms = perms[np.arange(m)[:, None], digits] * weight[:m, None]
        x = np.cumsum(terms, axis=0)[-1]
        for t in (perms[m:, 0] * weight[m:]).tolist():
            x += t
        out[k] = x
    return out.T


def sample_box(box, n: int, seed: int, *path: int) -> np.ndarray:
    """Quasi-random points inside a box, shrunk by ``MARGIN`` per side.

    Uses the scrambled Halton sequence of the stream, so the same
    (seed, path) always yields the same point set.
    """
    box = np.asarray(box, dtype=float)
    u = _halton(box.shape[0], n, seed, *path)
    lo, hi = box[:, 0], box[:, 1]
    width = hi - lo
    return lo + width * (MARGIN + (1.0 - 2.0 * MARGIN) * u)
