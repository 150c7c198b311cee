"""Seeded, splittable randomness and quasi-random chart sampling.

Every random draw in the package descends from an integer run seed plus a
path of small integers (dimension, trial index, purpose tag).  Streams are
Philox counter-based generators keyed through ``numpy.random.SeedSequence``
spawn keys, so results are bitwise reproducible and independent of
execution order or thread count.
"""

from __future__ import annotations

import zlib

import numpy as np
from scipy.stats import qmc

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


def sample_box(box, n: int, seed: int, *path: int) -> np.ndarray:
    """Quasi-random points inside a box, shrunk by ``MARGIN`` per side.

    Uses a scrambled Halton sequence seeded from the stream, so the same
    (seed, path) always yields the same point set.
    """
    box = np.asarray(box, dtype=float)
    d = box.shape[0]
    sampler = qmc.Halton(d=d, scramble=True, seed=rng(seed, *path))
    u = sampler.random(n)
    lo, hi = box[:, 0], box[:, 1]
    width = hi - lo
    return lo + width * (MARGIN + (1.0 - 2.0 * MARGIN) * u)
