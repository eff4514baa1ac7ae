"""Seeded direction sampling helpers, and the median of a sample.

Everything here is deterministic given the seed, so test failures and CLI
reports reproduce exactly.
"""

from __future__ import annotations

import numpy as np

_BITS = 30
MAX_GRID_DIM = 64

# (primitive polynomial, initial direction numbers) of Sobol dimensions 2-64;
# dimension 1 is the van der Corput sequence and needs neither.  These are the
# first rows of the Joe-Kuo table new-joe-kuo-6.21201 (S. Joe and F. Y. Kuo,
# "Constructing Sobol sequences with better two-dimensional projections",
# SIAM J. Sci. Comput. 30 (2008) 2635-2654; https://web.maths.unsw.edu.au/~fkuo/sobol/),
# copyright (c) 2008 Frances Y. Kuo and Stephen Joe, redistributed under the
# BSD-style licence given at that address.  A polynomial of degree s, its
# leading bit included, comes with s initial numbers.
_DIRECTION_NUMBERS = (
    (3, (1,)), (7, (1, 3)), (11, (1, 3, 1)), (13, (1, 1, 1)), (19, (1, 1, 3, 3)),
    (25, (1, 3, 5, 13)), (37, (1, 1, 5, 5, 17)), (41, (1, 1, 5, 5, 5)),
    (47, (1, 1, 7, 11, 19)), (55, (1, 1, 5, 1, 1)), (59, (1, 1, 1, 3, 11)),
    (61, (1, 3, 5, 5, 31)), (67, (1, 3, 3, 9, 7, 49)), (91, (1, 1, 1, 15, 21, 21)),
    (97, (1, 3, 1, 13, 27, 49)), (103, (1, 1, 1, 15, 7, 5)),
    (109, (1, 3, 1, 15, 13, 25)), (115, (1, 1, 5, 5, 19, 61)),
    (131, (1, 3, 7, 11, 23, 15, 103)), (137, (1, 3, 7, 13, 13, 15, 69)),
    (143, (1, 1, 3, 13, 7, 35, 63)), (145, (1, 3, 5, 9, 1, 25, 53)),
    (157, (1, 3, 1, 13, 9, 35, 107)), (167, (1, 3, 1, 5, 27, 61, 31)),
    (171, (1, 1, 5, 11, 19, 41, 61)), (185, (1, 3, 5, 3, 3, 13, 69)),
    (191, (1, 1, 7, 13, 1, 19, 1)), (193, (1, 3, 7, 5, 13, 19, 59)),
    (203, (1, 1, 3, 9, 25, 29, 41)), (211, (1, 3, 5, 13, 23, 1, 55)),
    (213, (1, 3, 7, 3, 13, 59, 17)), (229, (1, 3, 1, 3, 5, 53, 69)),
    (239, (1, 1, 5, 5, 23, 33, 13)), (241, (1, 1, 7, 7, 1, 61, 123)),
    (247, (1, 1, 7, 9, 13, 61, 49)), (253, (1, 3, 3, 5, 3, 55, 33)),
    (285, (1, 3, 1, 15, 31, 13, 49, 245)), (299, (1, 3, 5, 15, 31, 59, 63, 97)),
    (301, (1, 3, 1, 11, 11, 11, 77, 249)), (333, (1, 3, 1, 11, 27, 43, 71, 9)),
    (351, (1, 1, 7, 15, 21, 11, 81, 45)), (355, (1, 3, 7, 3, 25, 31, 65, 79)),
    (357, (1, 3, 1, 1, 19, 11, 3, 205)), (361, (1, 1, 5, 9, 19, 21, 29, 157)),
    (369, (1, 3, 7, 11, 1, 33, 89, 185)), (391, (1, 3, 3, 3, 15, 9, 79, 71)),
    (397, (1, 3, 7, 11, 15, 39, 119, 27)), (425, (1, 1, 3, 1, 11, 31, 97, 225)),
    (451, (1, 1, 1, 3, 23, 43, 57, 177)), (463, (1, 3, 7, 7, 17, 17, 37, 71)),
    (487, (1, 3, 1, 5, 27, 63, 123, 213)), (501, (1, 1, 3, 5, 11, 43, 53, 133)),
    (529, (1, 3, 5, 5, 29, 17, 47, 173, 479)), (539, (1, 3, 3, 11, 3, 1, 109, 9, 69)),
    (545, (1, 1, 1, 5, 17, 39, 23, 5, 343)), (557, (1, 3, 1, 5, 25, 15, 31, 103, 499)),
    (563, (1, 1, 1, 11, 11, 17, 63, 105, 183)),
    (601, (1, 1, 5, 11, 9, 29, 97, 231, 363)), (607, (1, 1, 5, 15, 19, 45, 41, 7, 383)),
    (617, (1, 3, 7, 7, 31, 19, 83, 137, 221)),
    (623, (1, 1, 1, 3, 23, 15, 111, 223, 83)),
    (631, (1, 1, 5, 13, 31, 15, 55, 25, 161)),
    (637, (1, 1, 3, 13, 25, 47, 39, 87, 257))
)

# Wichura's AS241 (Appl. Statist. 37 (1988) 477-484) rational approximations
# of the inverse normal CDF, numerator and denominator, highest power first:
# for |p - 1/2| <= 0.425 in r = 0.180625 - (p - 1/2)**2, and in the tails in
# r - 1.6 for r = sqrt(-log(min(p, 1 - p))) <= 5 and r - 5 beyond.
_CENTRAL = (
    (2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
     4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
     1.3314166789178437745e+2, 3.3871328727963666080e+0),
    (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
     2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
     4.2313330701600911252e+1, 1.0),
)
_NEAR_TAIL = (
    (7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
     1.27045825245236838258e+0, 3.64784832476320460504e+0, 5.76949722146069140550e+0,
     4.63033784615654529590e+0, 1.42343711074968357734e+0),
    (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
     1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e+0,
     2.05319162663775882187e+0, 1.0),
)
_FAR_TAIL = (
    (2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
     2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e+0,
     5.46378491116411436990e+0, 6.65790464350110377720e+0),
    (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
     7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
     5.99832206555887937690e-1, 1.0),
)


def as_rng(seed) -> np.random.Generator:
    """Accept a seed or an existing Generator and return a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def haar_directions(n: int, count: int, seed) -> np.ndarray:
    """Draw ``count`` independent uniform directions on the unit sphere of R^n.

    Returns an array of shape (count, n) with unit rows.
    """
    if n < 1:
        raise ValueError("ambient dimension must be at least 1")
    rng = as_rng(seed)
    v = rng.standard_normal((count, n))
    norms = np.linalg.norm(v, axis=1)
    # a norm of exactly zero has probability zero; guard anyway
    bad = norms < 1e-12
    while np.any(bad):
        v[bad] = rng.standard_normal((int(bad.sum()), n))
        norms = np.linalg.norm(v, axis=1)
        bad = norms < 1e-12
    return v / norms[:, None]


def _direction_integers(d: int) -> np.ndarray:
    """The (d, 30) Sobol direction integers: column j holds bits 29 - j and below."""
    v = np.ones((d, _BITS), np.uint32)
    for i, (poly, init) in enumerate(_DIRECTION_NUMBERS[: d - 1], start=1):
        s = len(init)
        row = list(init) + [0] * (_BITS - s)
        for j in range(s, _BITS):
            # v_j = v_{j-s} ^ (v_{j-s} << s) ^ XOR of a_k (v_{j-k} << k) for
            # 0 < k < s, where a_k is bit s - k of the polynomial
            new = row[j - s]
            for k in range(s):
                if poly >> (s - 1 - k) & 1:
                    new ^= row[j - k - 1] << (k + 1)
            row[j] = new
        v[i] = row
    return v << (_BITS - 1 - np.arange(_BITS, dtype=np.uint32))


def _sobol(d: int, m: int, seed) -> np.ndarray:
    """The first 2**m points of a scrambled d-dimensional Sobol sequence.

    Linear matrix scrambling plus a digital shift, drawn from the first child
    of ``default_rng(seed)``'s seed sequence: the shift bits (d, 30) first,
    then the lower-triangular scrambling matrices (d, 30, 30), whose diagonal
    is set to 1.  Points come in Gray-code order.  The result equals
    ``scipy.stats.qmc.Sobol(d, scramble=True, seed=default_rng(seed)).random_base2(m)``
    bit for bit; ``d`` is at most ``MAX_GRID_DIM``.
    """
    rng = np.random.default_rng(seed).spawn(1)[0]
    powers = np.uint32(1) << np.arange(_BITS, dtype=np.uint32)
    shift = rng.integers(2, size=(d, _BITS), dtype=np.uint32) @ powers
    lms = np.tril(rng.integers(2, size=(d, _BITS, _BITS), dtype=np.uint32))
    lms[:, np.arange(_BITS), np.arange(_BITS)] = 1
    # bit 29 - p of scrambled column j is the parity of (row p of L) . (bits of v_j),
    # both read from the top bit down
    top = _BITS - 1 - np.arange(_BITS, dtype=np.uint32)
    bits = _direction_integers(d)[:, None, :] >> top[:, None] & 1  # (d, bit k, column j)
    columns = ((lms @ bits & 1) << top[:, None]).sum(axis=1, dtype=np.uint32)
    points = np.empty((1 << m, d), np.uint32)
    points[0] = shift
    for c in range(m):
        points[1 << c : 2 << c] = points[(1 << c) - 1 :: -1] ^ columns[:, c]
    return points * 2.0**-_BITS


def _horner(coeffs, r):
    value = coeffs[0]
    for c in coeffs[1:]:
        value = value * r + c
    return value


def _ndtri(p: np.ndarray) -> np.ndarray:
    """Inverse of the standard normal CDF for probabilities strictly inside (0, 1).

    AS241 with the evaluation order of ``statistics.NormalDist().inv_cdf``,
    which it matches exactly for |p - 1/2| <= 0.425; in the tails ``np.log``
    and ``math.log`` may round differently.
    """
    q = p - 0.5
    r = 0.180625 - q * q
    x = _horner(_CENTRAL[0], r) * q / _horner(_CENTRAL[1], r)
    tail = np.abs(q) > 0.425
    p, q = p[tail], q[tail]
    r = np.sqrt(-np.log(np.where(q <= 0.0, p, 1.0 - p)))
    near, far = r - 1.6, r - 5.0
    x_tail = np.where(
        r <= 5.0,
        _horner(_NEAR_TAIL[0], near) / _horner(_NEAR_TAIL[1], near),
        _horner(_FAR_TAIL[0], far) / _horner(_FAR_TAIL[1], far),
    )
    x[tail] = np.where(q < 0.0, -x_tail, x_tail)
    return x


def hemisphere_grid(n: int, count: int, seed) -> np.ndarray:
    """Low-discrepancy grid of directions on the closed upper hemisphere.

    Scrambled Sobol points (``_sobol``) are pushed through the inverse normal
    CDF (``_ndtri``) and normalized, which gives an even (quasi-random)
    coverage of the sphere; signs are then fixed so the last coordinate is
    nonnegative.  The grid is deterministic for a fixed seed, so "lowest grid
    index" is a meaningful tie-break rule.  ``n`` is at most ``MAX_GRID_DIM``
    (64), the number of embedded Sobol dimensions.
    """
    if count < 1:
        raise ValueError("grid size must be positive")
    if not 1 <= n <= MAX_GRID_DIM:
        raise ValueError(
            f"hemisphere grids exist in dimensions 1 to {MAX_GRID_DIM} (the embedded "
            f"Sobol direction numbers), got dimension {n}"
        )
    mexp = max(1, int(np.ceil(np.log2(count))))
    pts = _sobol(n, mexp, seed)[:count]
    # a Sobol coordinate can be exactly 0; keep inside (0,1) so the log in _ndtri stays finite
    pts = np.clip(pts, 1e-12, 1 - 1e-12)
    v = _ndtri(pts)
    norms = np.linalg.norm(v, axis=1)
    norms[norms < 1e-12] = 1.0
    v = v / norms[:, None]
    flip = v[:, -1] < 0.0
    v[flip] *= -1.0
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
