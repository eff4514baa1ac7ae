"""Subset-product sum relations and their rigidity.

The central object is the system of equations, for nonnegative x_1..x_N and
positive y_1..y_N,

    prod_{i in I} x_i + prod_{i in I} y_i = 2a   for every |I| = k,
    prod_{j in J} x_j + prod_{j in J} y_j = 2b   for every |J| = m,

with 1 <= k < m <= N.  When a^m != b^k the coordinatewise ratios x_i/y_i
are forced to be constant, and for m = N-1 every y_i must then belong to an
explicit finite candidate set assembled from low-degree polynomials; when
a^m = b^k an explicit one-parameter family of non-constant solutions exists,
so the margin condition is sharp.  A companion "antipodal" variant couples
each subset I with its mirror I* = {N+1-i : i in I} and forces full
constancy of a sorted positive vector.

This module evaluates hypothesis residuals exactly over all subsets (desk
scale, N <= 8), enumerates the candidate sets with exact rational
coefficient assembly followed by companion-matrix root finding, runs a
damped Gauss-Newton random-restart solver as an experimental oracle for the
hypothesis system (normalized to a = 1, with blocks of restarts stepped in
lockstep, stacked residuals, Jacobians and minimum-norm least-squares
steps: an inverse for each square Jacobian with kappa_1 < 1e8, an SVD with
``np.linalg.lstsq``'s cutoff for the rest), and provides large vectorized
falsification campaigns for the antipodal variant.  The antipodal check and
campaign share one column-major kernel: each chunk of trials is transposed
once and sorted by a Batcher network of whole-column minima and maxima, each
subset product is built once from k columns, and each mirror-orbit sum
x_I + x_{I*} once, in a working set of about 2^18 products per chunk.  A
campaign's chunks are split in two halves that run at once, the second on a
worker thread, each in its own buffers and on its own copy of one PCG64
stream, the second copy advanced past the first half's draws (the jump-ahead
of O'Neill's PCG family, ``PCG64.advance``), so the report is the one a
single stream gives.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import PreconditionError
from .multilinear import _index_array, _index_tuples, _rank_lookup
from .sampling import median

__all__ = [
    "RelationInstance",
    "HypothesisResiduals",
    "RelationAudit",
    "AntipodalCheckResult",
    "FalsificationReport",
    "SolverSolutions",
    "hypothesis_residual",
    "ratio_conclusion_check",
    "infinite_family",
    "enumerate_candidates",
    "case2_polynomial",
    "find_hypothesis_solutions",
    "antipodal_product_check",
    "antipodal_falsification",
    "eigenvalue_relation_audit",
    "match_candidates",
]


@dataclass(frozen=True)
class RelationInstance:
    """A candidate solution of the two-level subset-product system."""

    x: tuple
    y: tuple
    a: float
    b: float
    k: int
    m: int

    def __post_init__(self):
        x = tuple(float(v) for v in self.x)
        y = tuple(float(v) for v in self.y)
        if len(x) != len(y) or not x:
            raise ValueError("x and y must be nonempty and equally long")
        if min(x) < 0:
            raise ValueError("x entries must be nonnegative")
        if min(y) <= 0:
            raise ValueError("y entries must be positive")
        if self.a <= 0 or self.b <= 0:
            raise ValueError("a and b must be positive")
        n = len(x)
        if not 1 <= self.k < self.m <= n:
            raise ValueError(f"grades must satisfy 1 <= k < m <= N, got k={self.k}, m={self.m}, N={n}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


class HypothesisResiduals(NamedTuple):
    k_residual: float
    m_residual: float

    def max(self) -> float:
        return max(self.k_residual, self.m_residual)


def _subset_products(values: np.ndarray, size: int) -> np.ndarray:
    """Products of ``values`` over every ``size``-subset of the last axis, in lex subset order."""
    return np.prod(values[..., _index_array(values.shape[-1], size)], axis=-1)


def _level_residuals(x: np.ndarray, y: np.ndarray, size: int, rhs: float) -> np.ndarray:
    """x_I + y_I - rhs for every |I| = size, along the last axis."""
    return _subset_products(x, size) + _subset_products(y, size) - rhs


def hypothesis_residual(inst: RelationInstance) -> HypothesisResiduals:
    """Exact max residual of both equation levels over all subsets."""
    x = np.asarray(inst.x)
    y = np.asarray(inst.y)
    res_k = np.abs(_level_residuals(x, y, inst.k, 2 * inst.a))
    res_m = np.abs(_level_residuals(x, y, inst.m, 2 * inst.b))
    return HypothesisResiduals(float(res_k.max()), float(res_m.max()))


def ratio_conclusion_check(inst: RelationInstance, tol: float = 1e-10) -> bool:
    """Check the forced conclusion x_i / y_i = constant.

    Preconditions: hypothesis residuals below ``tol`` and the margin
    |a^m - b^k| >= 1e-9 * scale (the one-parameter family shows the
    conclusion genuinely fails without it).  The deviation tolerance for the
    ratios is sqrt(tol), since residual perturbations propagate nonlinearly.
    """
    res = hypothesis_residual(inst)
    if res.max() > tol:
        raise PreconditionError(
            f"hypothesis residual {res.max():.3e} exceeds tolerance {tol:.3e}"
        )
    gap = abs(inst.a**inst.m - inst.b**inst.k)
    scale = max(1.0, abs(inst.a) ** inst.m, abs(inst.b) ** inst.k)
    if gap < 1e-9 * scale:
        raise PreconditionError(
            f"degenerate exponent margin: |a^m - b^k| = {gap:.3e} < {1e-9 * scale:.3e}"
        )
    ratio_tol = float(np.sqrt(tol))
    ratios = np.asarray(inst.x) / np.asarray(inst.y)
    med = median(ratios)
    return bool(np.abs(ratios - med).max() <= ratio_tol * max(1.0, abs(med)))


def infinite_family(t: float, n: int) -> RelationInstance:
    """Non-constant exact solutions in the degenerate case a = b = 1, at k = 2, m = N - 1.

    x = (1, ..., 1, t) and y = (1, ..., 1, 2 - t) satisfy both equation
    levels exactly for every subset size: any subset avoiding the last slot
    sums to 1 + 1, and any subset through it sums to t + (2 - t).  Since
    x_N / y_N = t / (2 - t) varies with t, the constancy conclusion fails on
    a continuum, which is why a nondegenerate margin a^m != b^k is required.
    """
    if not 0.0 < t < 2.0:
        raise ValueError("t must lie in (0, 2) to keep all entries positive")
    if n < 3:
        raise ValueError("need N >= 3")
    x = (1.0,) * (n - 1) + (float(t),)
    y = (1.0,) * (n - 1) + (float(2.0 - t),)
    return RelationInstance(x, y, 1.0, 1.0, 2, n - 1)


# ---------------------------------------------------------------------------
# candidate enumeration (exact rational polynomial assembly)


def _poly(terms: dict) -> np.ndarray:
    """Object array of Fraction coefficients from {exponent: coefficient}."""
    out = np.array([Fraction(0)] * (max(terms) + 1), dtype=object)
    for e, c in terms.items():
        out[e] = Fraction(c)
    return out


def _power(x: float, e) -> float:
    """x ** e, or inf where the float power overflows."""
    try:
        return x**e
    except OverflowError:
        return math.inf


def _positive_real_roots(coeffs: list[Fraction]) -> list[float]:
    """Positive real roots via companion-matrix eigenvalues (ascending coeffs).

    A root counts as real when its imaginary part is at most 1e-9 (1 + |real part|).
    """
    c = P.polytrim(np.array(coeffs, dtype=float))
    if c.size <= 1 or not np.any(c[1:]):
        return []
    roots = P.polyroots(c)
    out = []
    for r in roots:
        if abs(r.imag) <= 1e-9 * (1.0 + abs(r.real)) and r.real > 1e-12:
            out.append(float(r.real))
    return sorted(out)


def _constant_level_poly(a: Fraction, b: Fraction, n: int) -> np.ndarray:
    """z^{n-1} + (2a - z)^{n-1} - 2b, ascending coefficients."""
    level = P.polyadd(P.polypow(_poly({1: 1}), n - 1), P.polypow(_poly({0: 2 * a, 1: -1}), n - 1))
    return P.polysub(level, _poly({0: 2 * b}))


def case2_polynomial(a: float, b: float, l: int, n: int) -> list[Fraction]:
    """Ascending coefficients of the two-value branch polynomial in t.

    For a split into l copies of z1 and n - l copies of z2 (2 <= l <= n-2),
    parameterizing z1 = 2a / (1 + t^{n-l-1}) and z2 = 2a t^{l-1} / (1 + t^{l-1})
    turns the mixed product equation into

        (2a)^{n-1} (t^{(l-1)(n-l)} + t^{(l-1)(n-l-1)})
            = 2b (1 + t^{n-l-1})^{l-1} (1 + t^{l-1})^{n-l},

    a polynomial of degree exactly (l-1)(2(n-l) - 1).
    """
    if not 2 <= l <= n - 2:
        raise ValueError("the parameterized branch needs 2 <= l <= n-2")
    lead = (2 * Fraction(a)) ** (n - 1)
    lhs = _poly({(l - 1) * (n - l): lead, (l - 1) * (n - l - 1): lead})
    rhs = P.polymul(
        P.polypow(_poly({0: 1, n - l - 1: 1}), l - 1), P.polypow(_poly({0: 1, l - 1: 1}), n - l)
    )
    return list(P.polysub(lhs, 2 * Fraction(b) * rhs))


def _proportional_poly(a: Fraction, b: Fraction, k: int, n: int) -> np.ndarray:
    """(2a - x^k)^{n-1} - (2b - x^{n-1})^k, ascending coefficients in x."""
    return P.polysub(
        P.polypow(_poly({0: 2 * a, k: -1}), n - 1), P.polypow(_poly({0: 2 * b, n - 1: -1}), k)
    )


def enumerate_candidates(a: float, b: float, k: int, m: int, n: int) -> np.ndarray:
    """Enumerate the finite candidate set for y-values when m = N - 1.

    Returns the candidates as a 1-D float array, branch by branch in the
    order below; a value may repeat.

    Branches, ordered as in the constancy proof:

    * k = 1, all x equal: positive roots of z^{n-1} + (2a-z)^{n-1} = 2b (the
      y-values solve the same symmetric polynomial).
    * k = 1, two values with a singleton part: the same polynomial gives the
      repeated value, a linear equation the remaining one.
    * k = 1, two values split l / (n - l) with 2 <= l <= n-2: positive roots
      of the parameterized branch polynomial of degree (l-1)(2(n-l)-1).
    * k >= 2, all x positive: constant ratio reduces the system to
      x^k + y^k = 2a, x^{n-1} + y^{n-1} = 2b, eliminated into
      (2a - x^k)^{n-1} = (2b - x^{n-1})^k.
    * some x vanishing: forces y = (b/a)^{1/(n-1-k)} off the zero slot and
      y_1 = 2a / y^{k-1} on it.

    The set is a certified cover: every exact solution of the hypothesis
    system has all its y-values in the set, while some branch values may not
    extend to full solutions.
    """
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be positive")
    if not 1 <= k < m <= n - 1:
        raise ValueError("need 1 <= k < m <= N-1")
    if m != n - 1:
        raise ValueError("candidate enumeration is implemented for m = N-1 only")
    am, bk = _power(a, m), _power(b, k)
    if not (math.isfinite(am) and math.isfinite(bk)):
        raise ValueError(
            f"candidate targets a = {a!r}, b = {b!r} are not representable: "
            f"a^m or b^k overflows at grades k = {k}, m = {m}"
        )
    gap = abs(am - bk)
    if gap < 1e-12 * max(1.0, am, bk):
        raise PreconditionError(
            f"degenerate exponent margin |a^m - b^k| = {gap:.3e}; "
            "a continuum of solutions exists"
        )
    fa, fb = Fraction(a), Fraction(b)
    two_a = 2.0 * a
    cands: list[float] = []

    def push(value: float):
        if value > 1e-12 and np.isfinite(value):
            cands.append(float(value))

    if k == 1:
        const_roots = _positive_real_roots(_constant_level_poly(fa, fb, n))
        for z in const_roots:
            push(z)
        # singleton split: repeated value z2 solves the constant-level
        # polynomial, the lone value z1 a linear equation
        for z2 in const_roots:
            denom = z2 ** (n - 2) - (two_a - z2) ** (n - 2)
            if abs(denom) < 1e-10:
                continue
            z1 = (2.0 * b - two_a * (two_a - z2) ** (n - 2)) / denom
            if z1 >= -1e-12:
                push(two_a - z1)
            push(two_a - z2)
        for l in range(2, n - 1):
            for t in _positive_real_roots(case2_polynomial(a, b, l, n)):
                z1 = two_a / (1.0 + t ** (n - l - 1))
                z2 = two_a * t ** (l - 1) / (1.0 + t ** (l - 1))
                push(two_a - z1)
                push(two_a - z2)
    else:
        for x in _positive_real_roots(_proportional_poly(fa, fb, k, n)):
            rest_a = 2.0 * a - x**k
            rest_b = 2.0 * b - x ** (n - 1)
            if rest_a <= 0 or rest_b <= 0:
                continue
            y = rest_a ** (1.0 / k)
            if abs(y ** (n - 1) - rest_b) > 1e-7 * max(1.0, abs(rest_b)):
                continue
            push(y)
            push(x)

    # a vanishing x entry pins the complementary y-values
    if n - 1 - k >= 1:
        y_star = (b / a) ** (1.0 / (n - 1 - k))
        push(y_star)
        push(2.0 * a / y_star ** (k - 1))

    return np.asarray(cands, dtype=float)


def _candidate_distances(values, cands) -> np.ndarray:
    """Distance from each value to its nearest candidate in ``cands``, in one broadcast.

    The result has the shape of ``values``: for the (solutions, N) y-values of
    a solver run, one row of distances per solution.
    """
    vals = np.asarray(values, dtype=float)
    return np.abs(vals[..., None] - np.asarray(cands, dtype=float)).min(axis=-1)


def match_candidates(values, cands) -> float:
    """Worst distance from each value to its nearest candidate in ``cands``."""
    return float(_candidate_distances(np.atleast_1d(values), cands).max())


# ---------------------------------------------------------------------------
# experimental hypothesis solver


# Solver limits: a run stops below _SOLVER_TOL or after _MAX_ITER damped
# steps, and at most _MAX_RESTARTS random starts are tried.
_SOLVER_TOL = 1e-11
_MAX_RESTARTS = 10000
_MAX_ITER = 80
# Backtracking halves the step up to _LINE_SEARCH_TRIES times.  A block
# holds at most _BLOCK_ROWS starts, and one line-search pass evaluates about
# as many candidate rows, which bounds the stacked arrays' memory.
_LINE_SEARCH_TRIES = 30
_BLOCK_ROWS = 4096
# lstsq drops a singular value of an N x N Jacobian only when
# kappa_2 = sigma_max / sigma_min >= 1 / (eps N), which is 5.6e14 at N = 8.
# Since |A|_2 <= sqrt(N) |A|_1, kappa_2 <= N kappa_1, so kappa_1 < 1e8 keeps
# kappa_2 below 8e8 there (and below the cutoff for every N < 6,700): the
# inverse gives lstsq's step up to rounding.  The estimate is read off the
# computed inverse, whose relative error of about kappa eps can only move a
# row across this bound, never across the cutoff, six decades above it.
_LU_KAPPA = 1e8


@lru_cache(maxsize=None)
def _leave_one_out(n: int, size: int) -> np.ndarray:
    """(S, size, size - 1) table: subset s of ``_index_array`` without its j-th entry."""
    idx = _index_array(n, size)
    keep = ~np.eye(size, dtype=bool)
    loo = np.repeat(idx[:, None, :], size, axis=1)[:, keep].reshape(len(idx), size, size - 1)
    loo.setflags(write=False)
    return loo


def _residuals(z: np.ndarray, n: int, k: int, m: int, a: float, b: float) -> np.ndarray:
    """Hypothesis equations at each row z = (x, y): the k-level columns, then the m-level ones."""
    x, y = z[:, :n], z[:, n:]
    return np.concatenate(
        [_level_residuals(x, y, k, 2 * a), _level_residuals(x, y, m, 2 * b)], axis=1
    )


def _jacobians(z: np.ndarray, n: int, k: int, m: int) -> np.ndarray:
    """(R, rows, 2n) Jacobians of ``_residuals``: d x_I / d x_i is the product over I without i.

    The leave-one-out products never divide by x_i, so zero entries are
    exact, and a size-1 subset gives the empty product 1.
    """
    x, y = z[:, :n], z[:, n:]
    blocks = []
    for size in (k, m):
        idx = _index_array(n, size)
        loo = _leave_one_out(n, size)
        rows = np.arange(len(idx))[:, None]
        block = np.zeros((len(z), len(idx), 2 * n))
        block[:, rows, idx] = np.prod(x[:, loo], axis=-1)
        block[:, rows, n + idx] = np.prod(y[:, loo], axis=-1)
        blocks.append(block)
    return np.concatenate(blocks, axis=1)


def _min_norm_steps(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solution of jac[r] s = rhs[r] for every r.

    The solution with ``np.linalg.lstsq``'s default cutoff: singular values
    at or below eps * max(rows, cols) * sigma_max count as zero.  A square
    Jacobian whose LU is not exactly singular and whose estimate
    kappa_1 = |J|_1 |J^-1|_1 is below ``_LU_KAPPA`` takes s = J^-1 r, where the
    cutoff drops nothing; every other row goes to ``_svd_steps``.  The stack
    is inverted at once; only when that raises does ``slogdet`` screen out the
    rows whose LU is exactly singular.
    """
    if jac.shape[1] != jac.shape[2]:
        return _svd_steps(jac, rhs)
    rows = np.arange(len(jac))
    try:
        inv = np.linalg.inv(jac)
    except np.linalg.LinAlgError:  # some LU is exactly singular: screen out its rows
        rows = np.flatnonzero(np.linalg.slogdet(jac)[0])
        inv = np.linalg.inv(jac[rows])
    kappa = np.abs(jac[rows]).sum(axis=1).max(axis=1) * np.abs(inv).sum(axis=1).max(axis=1)
    well = kappa < _LU_KAPPA  # False for NaN
    lu = rows[well]
    steps = np.empty(rhs.shape)
    steps[lu] = np.einsum("rij,rj->ri", inv[well], rhs[lu])
    svd = np.ones(len(jac), dtype=bool)
    svd[lu] = False
    if svd.any():
        steps[svd] = _svd_steps(jac[svd], rhs[svd])
    return steps


def _svd_steps(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``_min_norm_steps`` by a stacked SVD, for any shape of Jacobian."""
    u, s, vt = np.linalg.svd(jac, full_matrices=False)
    keep = s > np.finfo(float).eps * max(jac.shape[1:]) * s[:, :1]
    coef = np.einsum("rik,ri->rk", u, rhs)
    coef = np.divide(coef, s, out=np.zeros_like(coef), where=keep)
    return np.einsum("rkj,rk->rj", vt, coef)


def _gauss_newton_block(z: np.ndarray, n: int, k: int, m: int, a: float, b: float):
    """Damped Gauss-Newton on every row of ``z`` in lockstep, updating ``z`` in place.

    Each live row takes a minimum-norm least-squares step, then the first
    lambda in 1, 1/2, ... (``_LINE_SEARCH_TRIES`` rungs) that lowers its max
    residual after projection onto the positive orthant; a row with no such
    lambda stops.
    Returns the rows that reached ``_SOLVER_TOL`` with y > 1e-9, and the
    number of least-squares steps each row took.
    """
    converged = np.zeros(len(z), dtype=bool)
    steps = np.zeros(len(z), dtype=np.int64)
    live = np.arange(len(z))
    for it in range(_MAX_ITER + 1):
        f = _residuals(z[live], n, k, m, a, b)
        norm0 = np.abs(f).max(axis=1)
        below = norm0 < _SOLVER_TOL
        converged[live[below]] = True
        live, f, norm0 = live[~below], f[~below], norm0[~below]
        if it == _MAX_ITER or not live.size:
            break
        steps[live] += 1
        step = _min_norm_steps(_jacobians(z[live], n, k, m), -f)
        moved = np.zeros(len(live), dtype=bool)
        pending = np.arange(len(live))
        tried = 0
        while pending.size and tried < _LINE_SEARCH_TRIES:
            # the next rungs of the lambda ladder for every pending row at once
            count = min(_LINE_SEARCH_TRIES - tried, max(1, _BLOCK_ROWS // pending.size))
            lam = 0.5 ** np.arange(tried, tried + count)
            cand = z[live[pending], None, :] + lam[:, None] * step[pending, None, :]
            cand[..., :n] = np.maximum(cand[..., :n], 0.0)
            cand[..., n:] = np.maximum(cand[..., n:], 1e-12)
            res = np.abs(_residuals(cand.reshape(-1, 2 * n), n, k, m, a, b)).max(axis=1)
            lower = res.reshape(len(pending), count) < norm0[pending, None]
            hit = lower.any(axis=1)
            first = lower.argmax(axis=1)
            z[live[pending[hit]]] = cand[hit, first[hit]]
            moved[pending[hit]] = True
            pending = pending[~hit]
            tried += count
        live = live[moved]
    return converged & (z[:, n:].min(axis=1) > 1e-9), steps


class SolverSolutions(list):
    """Converged ``RelationInstance`` list, in restart order, with the solver's counters.

    ``restarts`` counts the random starts up to and including the one that
    gave the last kept instance (all of them on a shortfall), and
    ``gauss_newton_steps`` the least-squares steps those starts took; starts
    drawn past the last kept instance do not count.
    """

    restarts = 0
    gauss_newton_steps = 0


def _normalized_targets(a: float, b: float, k: int, m: int) -> tuple[float, float]:
    """The scale s = a^(1/k) and the target b' = b / s^m of the same system at a' = 1.

    x, y -> x / s, y / s maps the solutions at (a, b) onto those at (1, b').
    The power of two in s is taken from a's exponent exactly, so scaling
    (a, b) by (t^k, t^m) for a power of two t scales s by t and leaves b'
    unchanged, bit for bit.  b' underflows to 0 or overflows to inf where
    the targets are too far apart.
    """
    mant, exp = math.frexp(a)
    shift = exp // k
    root = math.ldexp(mant, exp - shift * k) ** (1.0 / k)
    try:
        lifted = math.ldexp(b, -shift * m)
    except OverflowError:
        lifted = math.inf
    return math.ldexp(root, shift), lifted / root**m


def find_hypothesis_solutions(
    a: float, b: float, k: int, m: int, n: int, solutions: int, seed=0
) -> list[RelationInstance]:
    """Damped Gauss-Newton random-restart solver for the hypothesis system.

    Starts from uniform random positive points, takes least-squares Newton
    steps with backtracking, projects onto the closed positive orthant, and
    keeps every run whose max residual falls below ``_SOLVER_TOL``.  Returns
    up to ``solutions`` converged instances in restart order (an
    experimental oracle, not a guaranteed enumeration) as a
    ``SolverSolutions`` list.

    The solver works on the equivalent system at a' = 1, b' = b a^(-m/k)
    (``_normalized_targets``) and maps its solutions back by a^(1/k), so
    ``_SOLVER_TOL`` and the y > 1e-9 cutoff are relative to the targets'
    scale, and (t^k a, t^m b) for a power of two t gives the same run with
    every solution scaled by t.  The restarts run in blocks stepped in
    lockstep by ``_gauss_newton_block``; a block of R starts is the same
    random stream as R sequential starts, so the result is that of a
    restart-at-a-time loop up to rounding in the least-squares steps.
    Targets whose b' underflows to 0 or overflows, or whose start scale
    max(1, b')^(1/k) overflows at grade m, are refused with a ValueError
    before any start is drawn.  At k = 1 every m-level sum is at most
    (2a)^m, since x_i + y_i = 2a; a target 2b above that has no solution,
    so the empty list is returned before any start is drawn.
    """
    if not (a > 0 and b > 0):
        raise ValueError(f"solver targets must be positive, got a = {a!r}, b = {b!r}")
    unit, b_unit = _normalized_targets(a, b, k, m)
    if not 0.0 < b_unit < math.inf:
        raise ValueError(
            f"solver targets a = {a!r}, b = {b!r} are not representable: the target "
            f"b a^(-m/k) = {b_unit:.3e} at a = 1 is not a positive finite number"
        )
    scale = max(1.0, b_unit) ** (1.0 / k)
    if not math.isfinite(_power(scale, m)):
        raise ValueError(
            f"solver targets a = {a!r}, b = {b!r} are not representable: the start scale "
            f"max(1, b a^(-m/k))^(1/k) = {scale:.3e} overflows at grade m = {m}"
        )
    if k == 1 and 2.0 * b_unit > _power(2.0, m):
        return SolverSolutions()
    rng = np.random.default_rng(seed)
    found = SolverSolutions()
    drawn = 0
    while len(found) < solutions and drawn < _MAX_RESTARTS:
        wanted = solutions - len(found)
        size = min(max(64, 2 * wanted), _BLOCK_ROWS, _MAX_RESTARTS - drawn)
        z = rng.uniform(0.05, 1.8, size=(size, 2 * n)) * scale
        ok, steps = _gauss_newton_block(z, n, k, m, 1.0, b_unit)
        keep = np.flatnonzero(ok)[:wanted]
        used = int(keep[-1]) + 1 if len(keep) == wanted else size
        found.restarts = drawn + used
        found.gauss_newton_steps += int(steps[:used].sum())
        z = z[keep] * unit
        found.extend(RelationInstance(tuple(r[:n]), tuple(r[n:]), a, b, k, m) for r in z)
        drawn += size
    return found


# ---------------------------------------------------------------------------
# antipodal subset products


# A campaign evaluates its trials in chunks of _WORKING_SET // C(M, k) rows,
# about _WORKING_SET subset products (2 MB) per chunk, which stays in cache.
# A grade with more than _WORKING_SET subsets is refused up front.
_WORKING_SET = 1 << 18


def _antipodal_subset_count(mlen: int, k: int) -> int:
    """C(M, k) for a valid antipodal grade, checked before any subset table is built."""
    if mlen < 4 or not 2 <= k <= mlen - 2:
        raise ValueError(f"need M >= 4 and 2 <= k <= M - 2, got m_len = {mlen}, k = {k}")
    count = math.comb(mlen, k)
    if count > _WORKING_SET:
        raise ValueError(
            f"m_len = {mlen}, k = {k} has C(m_len, k) = {count} subsets, "
            f"above the ceiling of {_WORKING_SET}"
        )
    return count


@lru_cache(maxsize=None)
def _mirror_orbits(mlen: int, k: int) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """Mirror orbits {I, I*} of the lex-ordered k-subsets, I* = {M-1-i : i in I}.

    Returns the orbit of every subset, and for each orbit (numbered by its
    first member in lex order) the lex positions of I and I*; a
    self-mirrored subset is both.
    """
    rank = _rank_lookup(mlen, k)
    orbit: dict[int, int] = {}
    pairs = []
    for pos, subset in enumerate(_index_tuples(mlen, k)):
        mirror = rank[tuple(mlen - 1 - i for i in reversed(subset))]
        if mirror >= pos:
            orbit[pos] = orbit[mirror] = len(pairs)
            pairs.append((pos, mirror))
    return tuple(orbit[pos] for pos in range(len(orbit))), tuple(pairs)


@lru_cache(maxsize=None)
def _sorting_network(size: int) -> tuple[tuple[int, int], ...]:
    """Batcher's merge exchange (Knuth, TAOCP 5.2.2, Algorithm M) on ``size``
    wires, as (lower, upper) comparators: 12 at size 6."""
    top = 1 << (size - 1).bit_length() >> 1
    network, p = [], top
    while p:
        q, r, d = top, 0, p
        while d:
            network += [(i, i + d) for i in range(size - d) if i & p == r]
            q, r, d = q >> 1, p, q - p
        p >>= 1
    return tuple(network)


def _antipodal_extremes(cols, k: int, work=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean, max and min over |I| = k of S_I = x_I + x_{I*}, for each column of ``cols``.

    ``cols`` is M equal rows (an (M, rows) array or a list).  Each product
    x_I is built once by multiplying its k rows in order, and each S_I once
    per mirror orbit, in ``work``: a reused (2 C(M, k) + 3, >= rows) buffer
    that holds the results.  The mean adds S_I in lex order of I, so it
    equals ``mean(axis=1)`` over the (rows, C(M, k)) table of sums.
    """
    subsets = _index_tuples(len(cols), k)
    orbit, pairs = _mirror_orbits(len(cols), k)
    work = np.empty((2 * len(subsets) + 3, len(cols[0]))) if work is None else work[:, : len(cols[0])]
    prods, sums, (mean, hi, lo) = work[: len(subsets)], work[len(subsets) : -3][: len(pairs)], work[-3:]
    for prod, (first, second, *rest) in zip(prods, subsets):
        np.multiply(cols[first], cols[second], out=prod)
        for i in rest:
            prod *= cols[i]
    for out, (i, j) in zip(sums, pairs):
        np.add(prods[i], prods[j], out=out)
    np.copyto(mean, sums[orbit[0]])
    for o in orbit[1:]:
        mean += sums[o]
    mean /= len(subsets)
    return mean, sums.max(axis=0, out=hi), sums.min(axis=0, out=lo)


def _antipodal_residual(hi: np.ndarray, lo: np.ndarray, gamma) -> np.ndarray:
    """max |S_I - 2 gamma| from the extremes of S_I; exact, since rounding is monotone."""
    return np.maximum(hi - 2.0 * gamma, 2.0 * gamma - lo)


class AntipodalCheckResult(NamedTuple):
    hypothesis_holds: bool
    max_equation_residual: float
    spread: float
    is_constant: bool


def antipodal_product_check(x, gamma: float, k: int, tol: float = 1e-10) -> AntipodalCheckResult:
    """Check x_I + x_{I*} = 2 gamma for all |I| = k with mirrored I*.

    ``x`` must be sorted ascending and positive with M = len(x) >= 4 and
    2 <= k <= M - 2.  If every equation holds within ``tol`` the vector is
    asserted constant within sqrt(tol) max(1, x_M); the returned tuple
    reports the worst residual and the actual spread.  ``tol`` must be
    positive: no residual is below a ``tol`` <= 0 (or NaN).
    """
    if not tol > 0:
        raise ValueError(f"'tol' must be positive, got {tol!r}")
    x = np.asarray(x, dtype=float)
    _antipodal_subset_count(x.size, k)
    if x.min() <= 0:
        raise ValueError("entries must be positive")
    if np.any(np.diff(x) < -1e-12):
        raise ValueError("entries must be sorted ascending")
    _, hi, lo = _antipodal_extremes(x[:, None], k)
    residual = float(_antipodal_residual(hi, lo, gamma)[0])
    holds = residual <= tol
    spread = float(x[-1] - x[0])
    spread_tol = float(np.sqrt(tol)) * max(1.0, float(x[-1]))
    return AntipodalCheckResult(holds, residual, spread, spread <= spread_tol)


@dataclass(frozen=True)
class FalsificationReport:
    """Outcome of a randomized search for non-constant antipodal solutions."""

    trials: int
    best_residual: float
    best_x: np.ndarray
    best_gamma: float
    min_spread: float
    found_violation: bool
    residual_tol: float
    eligible_trials: int  # spread >= min_spread
    violations: int  # eligible trials with residual < residual_tol
    rows: np.ndarray = field(compare=False)  # (trials, 2): residual, spread


def antipodal_falsification(
    mlen: int,
    k: int,
    trials: int,
    seed=0,
    tol: float = 1e-9,
    min_spread: float = 1e-3,
) -> FalsificationReport:
    """Vectorized random search for non-constant antipodal solutions.

    Each trial draws a sorted positive vector, picks the gamma that is
    optimal for the squared residual (the subset-sum mean), and records the
    max equation residual.  A violation is a trial with spread >=
    ``min_spread`` and residual < ``tol``; the constancy statement predicts
    none exist.  Both must be positive: no residual is below a ``tol`` <= 0,
    and a spread of 0 is the lemma's own conclusion.  The report keeps one
    (residual, spread) row per trial for export.

    ``seed`` is anything ``np.random.SeedSequence`` takes: an int, a sequence
    of ints, or None for one fresh entropy draw.  A ``Generator`` is refused
    with a ``TypeError``, since the campaign needs a stream it can split.

    Trials are drawn and evaluated in chunks of ``_WORKING_SET // C(M, k)``
    rows.  The chunks are split in two halves at a chunk seam: the caller
    runs the first and a worker thread the second, each in its own buffers.
    Both draw from one PCG64 stream (``default_rng(seed)`` for an int seed),
    the second half's copy advanced past the first half's draws, and the
    first global minimum wins, so the report depends neither on the chunk
    size nor on the split.  An exception in the worker's half is raised here,
    and the worker is joined even when the caller's half raises.
    """
    if trials < 1:
        raise ValueError(f"a campaign needs trials >= 1, got {trials}")
    for key, value in (("residual_tol", tol), ("min_spread", min_spread)):
        if not value > 0:
            raise ValueError(f"{key!r} must be positive, got {value!r}")
    chunk = min(_WORKING_SET // _antipodal_subset_count(mlen, k), trials)
    try:
        entropy = np.random.SeedSequence(seed)
    except TypeError:
        raise TypeError(
            f"'seed' must be an int, a sequence of ints or None, got {type(seed).__name__}"
        ) from None
    # the first half takes ceil(chunks / 2) chunks; Generator.random takes one
    # 64-bit output per double, so the second half starts mid * mlen outputs on
    mid = chunk * -(-trials // chunk // 2)
    early = np.random.Generator(np.random.PCG64(entropy))
    late = np.random.Generator(np.random.PCG64(entropy).advance(mid * mlen))
    rows = np.empty((trials, 2))
    args = (rows, mlen, k, chunk, tol, min_spread)
    join = _start_thread(lambda: _campaign_half(mid, trials, late, *args))
    try:
        first = _campaign_half(0, mid, early, *args)
    finally:
        second = join()
    # the first half's best trial comes first, so it wins a tie
    best_residual, best_x, best_gamma, _, _ = second if second[0] < first[0] else first
    eligible_trials, violations = first[3] + second[3], first[4] + second[4]
    return FalsificationReport(
        trials=trials,
        best_residual=best_residual,
        best_x=best_x,
        best_gamma=best_gamma,
        min_spread=min_spread,
        found_violation=violations > 0,
        residual_tol=tol,
        eligible_trials=eligible_trials,
        violations=violations,
        rows=rows,
    )


def _start_thread(fn: Callable) -> Callable:
    """Run ``fn()`` on a new thread.  The returned callable joins the thread
    and returns what ``fn`` returned, or re-raises what it raised."""
    outcome = []

    def run():
        try:
            outcome.append((fn(), None))
        except BaseException as exc:
            outcome.append((None, exc))

    thread = threading.Thread(target=run)
    thread.start()

    def join():
        thread.join()
        value, error = outcome[0]
        if error is not None:
            raise error
        return value

    return join


def _campaign_half(begin: int, end: int, rng, rows, mlen, k, chunk, tol, min_spread):
    """The campaign's trials begin ... end - 1, drawn from ``rng`` into ``rows[begin:end]``
    in chunks of ``chunk`` rows, in buffers of its own.  Returns the best
    residual, its x and gamma (the first minimum wins; inf, None and nan if
    no trial was eligible), the eligible trials and the violations."""
    draw, wires = np.empty((chunk, mlen)), np.empty((mlen + 1, chunk))
    work = np.empty((2 * math.comb(mlen, k) + 3, chunk))
    best_residual, best_x, best_gamma = np.inf, None, np.nan
    eligible_trials = violations = 0
    for start in range(begin, end, chunk):
        draws = draw[: end - start]
        # Generator.uniform(0.2, 2.0) in place: 0.2 + (2.0 - 0.2) * next_double
        rng.random(out=draws)
        draws *= 2.0 - 0.2
        draws += 0.2
        wires[:mlen, : len(draws)] = draws.T
        *cols, spare = wires[:, : len(draws)]
        for i, j in _sorting_network(mlen):
            np.minimum(cols[i], cols[j], out=spare)
            np.maximum(cols[i], cols[j], out=cols[j])
            cols[i], spare = spare, cols[i]
        mean, hi, lo = _antipodal_extremes(cols, k, work)
        # max |S_I - 2 gamma| with 2 gamma = mean, exactly (halving is exact)
        residual, spread = rows[start : start + len(draws)].T
        np.maximum(np.subtract(hi, mean, out=hi), np.subtract(mean, lo, out=lo), out=residual)
        np.subtract(cols[-1], cols[0], out=spread)
        ok = spread >= min_spread
        count = int(np.count_nonzero(ok))
        eligible_trials += count
        violations += int(np.count_nonzero(ok & (residual < tol)))
        if count:
            pos = np.argmin(residual) if count == len(ok) else np.flatnonzero(ok)[np.argmin(residual[ok])]
            if residual[pos] < best_residual:
                best_residual = float(residual[pos])
                best_x = np.array([col[pos] for col in cols])
                best_gamma = float(mean[pos]) / 2.0
    return best_residual, best_x, best_gamma, eligible_trials, violations


class RelationAudit(NamedTuple):
    max_defect: float
    antitone_ok: bool


def eigenvalue_relation_audit(r, r_tilde, k: int, beta: float) -> RelationAudit:
    """Audit r_I + r~_I = 2 beta over all |I| = k plus the pairing shape.

    For an ascending profile r paired with an antipodal profile r~ the
    product relations force r~ to be non-increasing; the audit reports the
    worst product defect and whether that monotone pairing holds within
    1e-9 max(1, max |r~|).
    """
    r = np.asarray(r, dtype=float)
    rt = np.asarray(r_tilde, dtype=float)
    if r.shape != rt.shape or r.ndim != 1:
        raise ValueError("profiles must be two equally long vectors")
    if not 1 <= k <= r.size:
        raise ValueError("grade out of range")
    defect = float(np.abs(_level_residuals(r, rt, k, 2 * beta)).max())
    scale = max(1.0, float(np.abs(rt).max()))
    antitone = bool(np.all(np.diff(rt) <= 1e-9 * scale))
    return RelationAudit(defect, antitone)
