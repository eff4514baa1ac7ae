"""Seeded direction sampling helpers, and the median of a sample.

Everything here is deterministic given the seed, so test failures and CLI
reports reproduce exactly.
"""

from __future__ import annotations

import numpy as np

__all__ = ["haar_directions", "hemisphere_grid", "median"]


def haar_directions(n: int, count: int, seed) -> np.ndarray:
    """Draw ``count`` independent uniform directions on the unit sphere of R^n.

    Returns an array of shape (count, n) with unit rows.  ``seed`` is anything
    ``np.random.default_rng`` takes; a Generator is drawn from as it is.
    """
    if n < 1:
        raise ValueError("ambient dimension must be at least 1")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((count, n))
    norms = np.linalg.norm(v, axis=1)
    # a norm of exactly zero has probability zero; guard anyway
    bad = norms < 1e-12
    while np.any(bad):
        v[bad] = rng.standard_normal((int(bad.sum()), n))
        norms = np.linalg.norm(v, axis=1)
        bad = norms < 1e-12
    return v / norms[:, None]


def hemisphere_grid(n: int, count: int, seed) -> np.ndarray:
    """Seeded directions on the closed upper hemisphere of R^n.

    The rows of ``haar_directions(n, count, seed)``, each negated when its
    last coordinate is negative.  The grid is deterministic for a fixed seed,
    so "lowest grid index" is a meaningful tie-break rule.
    """
    if count < 1:
        raise ValueError("grid size must be positive")
    v = haar_directions(n, count, seed)
    v[v[:, -1] < 0.0] *= -1.0
    return v


def median(values) -> float:
    """Median of the entries of ``values``, the same float ``np.median`` gives.

    The middle of the sorted entries, or the mean of the two middle ones for
    an even count, and NaN when any entry is NaN.  ``np.median`` would import
    ``numpy.ma`` on its first call, about 15 ms of every run that needs it.
    """
    s = np.sort(np.asarray(values, dtype=float), axis=None)
    if not s.size:
        raise ValueError("median of an empty sample")
    if np.isnan(s[-1]):  # sort puts NaN last
        return float("nan")
    h = s.size // 2
    return float(s[h] if s.size % 2 else (s[h - 1] + s[h]) / 2)
