"""Reverse Weingarten maps of support functions and their exterior powers.

For a smooth convex body with support function h, the restriction of the
ambient Hessian d^2 h(u) to the tangent hyperplane u^perp is a self-adjoint
map whose eigenvalues are the principal radii of curvature at the boundary
point with outer normal u.  Relative to a second (centrally symmetric,
strictly convex) body with support h0 the natural comparison object is

    M(u) = L0(u)^{-1/2} L(u) L0(u)^{-1/2},

whose determinant is det L(u) / det L0(u).  When the k-th projection
functions of the two bodies are proportional with ratio beta, the exterior
powers satisfy

    wedge^k L(u) + wedge^k L(-u) = 2 beta wedge^k L0(u)

for every direction, with both sides expressed in one frame of u^perp
(u^perp and (-u)^perp coincide as subspaces).  This module measures the
defect of that identity, searches for antipodal umbilic directions, and
checks the eigenvalue structure of bodies of revolution.

The curvature maps have one stacked API: ``tangent_frames``,
``reverse_weingarten``, ``relative_maps`` and ``wedge_identity_defects``
take an (m, n) array of directions and return stacks, from one ``jets``
call per body, the restricted Hessians B^T H B as one stack, then stacked
linear algebra; one direction u is the stack ``u[None]``.
``wedge_identity_defects`` builds the maps at +-u and the base maps at u
once; each grade adds one ``multilinear.compound`` call and one stacked
``eigvalsh``.  Every relative map comes from ``relative_maps``; the
umbilic search scores its whole grid (``sampling.hemisphere_grid``, seeded
Haar directions flipped onto a hemisphere) with it in one call, and each
sweep of its compass refinement scores the polls it has not yet walked in
one call, again after every poll it accepts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import multilinear
from .errors import PreconditionError
from .sampling import as_rng, haar_directions, hemisphere_grid

__all__ = [
    "UmbilicResult",
    "AntipodalSearchResult",
    "RevolutionEigenstructure",
    "RevolutionRelationDefects",
    "DetRatioReport",
    "tangent_frames",
    "reverse_weingarten",
    "relative_maps",
    "wedge_identity_defects",
    "relative_wedge_defect",
    "antipodal_search",
    "umbilic_check",
    "revolution_eigenstructure",
    "revolution_relations_check",
    "det_ratio_constancy",
]


# ---------------------------------------------------------------------------
# tangent frames


def _unit_rows(u) -> np.ndarray:
    """An (m, n) array of unit directions as floats; non-unit rows are refused."""
    u = np.asarray(u, dtype=float)
    if u.ndim != 2:
        raise ValueError("expected an (m, n) array of directions")
    nrm = np.linalg.norm(u, axis=1)
    bad = np.flatnonzero(np.abs(nrm - 1.0) > 1e-12)
    if bad.size:
        raise ValueError(f"direction must be unit length, |u[{bad[0]}]| = {nrm[bad[0]]!r}")
    return u


def tangent_frames(u) -> np.ndarray:
    """Householder frames of u^perp for each row of an (m, n) array of unit directions.

    Returns an (m, n, n-1) array whose i-th slice reflects e_1 onto u[i]
    and keeps the remaining columns (the identity columns when u[i] = e_1).
    The columns of each slice are orthonormal and orthogonal to u[i]; since
    u^perp = (-u)^perp, the frame built at u also serves at -u whenever maps
    at u and -u must be compared entrywise.  Eigenvalues of maps restricted
    to u^perp do not depend on the frame.
    """
    u = _unit_rows(u)
    n = u.shape[1]
    v = -u
    v[:, 0] += 1.0
    vv = np.einsum("ij,ij->i", v, v)
    near = vv < 1e-28
    vv[near] = 1.0
    basis = np.eye(n)[:, 1:] - 2.0 * v[:, :, None] * v[:, None, 1:] / vv[:, None, None]
    basis[near] = np.eye(n)[:, 1:]
    return basis


# ---------------------------------------------------------------------------
# maps


def _symmetrized(m: np.ndarray) -> np.ndarray:
    """(M + M^T) / 2 for each slice of an (m, d, d) stack."""
    return 0.5 * (m + np.swapaxes(m, 1, 2))


def _restrict_all(hessians: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """B^T H B, symmetrized, for each (hessian, basis) slice of the two stacks."""
    return _symmetrized(np.swapaxes(bases, 1, 2) @ hessians @ bases)


def reverse_weingarten(body, u, bases=None) -> np.ndarray:
    """Tangential Hessians of the support function at each row of u, an (m, n-1, n-1) stack.

    ``bases`` is an (m, n, n-1) stack whose i-th slice spans u[i]^perp (it
    may have been built at -u[i], the subspaces agree); by default
    ``tangent_frames(u)``.
    """
    if bases is None:
        bases = tangent_frames(u)
    return _restrict_all(body.jets(u)[2], bases)


def _psd_inv_sqrt(matrices: np.ndarray, what: str) -> np.ndarray:
    """S^{-1/2} of each slice of an (m, d, d) stack of symmetric matrices.

    Raises PreconditionError naming the smallest eigenvalue of the first
    slice that is not positive definite.
    """
    vals, vecs = np.linalg.eigh(matrices)
    floor = 1e-12 * np.maximum(1.0, np.abs(vals).max(axis=1))
    bad = np.flatnonzero(vals.min(axis=1) <= floor)
    if bad.size:
        raise PreconditionError(
            f"{what} is not positive definite: smallest eigenvalue "
            f"{vals[bad[0]].min():.6e}"
        )
    return (vecs / np.sqrt(vals)[:, None, :]) @ np.swapaxes(vecs, 1, 2)


def relative_maps(body, base, u, bases=None) -> np.ndarray:
    """L0^{-1/2} L L0^{-1/2} at each row of u, an (m, n-1, n-1) stack.

    The eigenvalues of each slice are the relative radii at u[i].  ``bases``
    is as for ``reverse_weingarten``.  Raises PreconditionError naming the
    offending eigenvalue when a base map is not positive definite.
    """
    if bases is None:
        bases = tangent_frames(u)
    s = _psd_inv_sqrt(reverse_weingarten(base, u, bases), "base reverse Weingarten map")
    return _symmetrized(s @ reverse_weingarten(body, u, bases) @ s)


def _check_symmetric_body(base, u: np.ndarray) -> None:
    """Verify h0(v) = h0(-v), to 1e-9 relative, on the rows of u plus 8 Haar directions of seed 0."""
    v = np.vstack([u, haar_directions(base.dim, 8, as_rng(0))])
    hv, hmv = np.split(base.jets(np.vstack([v, -v]))[0], 2)
    worst = float(np.max(np.abs(hv - hmv) / np.maximum(1.0, np.abs(hv))))
    if worst > 1e-9:
        raise PreconditionError(
            f"base body is not centrally symmetric: relative support gap {worst:.3e}"
        )


def wedge_identity_defects(body, base, grades, betas, u) -> np.ndarray:
    """Operator-norm defects of wedge^k L(u) + wedge^k L(-u) = 2 beta wedge^k L0(u).

    Row i holds grade grades[i] with ratio betas[i] at each row of the (m, n)
    array u.  The jets at +-u, frames and restricted Hessians serve every
    grade; each adds a stacked compound and the largest |eigenvalue| of each
    (symmetric) defect matrix.  The base body must be centrally symmetric;
    this is checked once, on the rows of u and 8 Haar directions of seed 0.
    """
    u = _unit_rows(u)
    _check_symmetric_body(base, u)
    bases = tangent_frames(u)
    hessians = np.concatenate([body.jets(np.vstack([u, -u]))[2], base.jets(u)[2]])
    maps = _restrict_all(hessians, np.concatenate([bases, bases, bases]))
    defects = np.empty((len(grades), len(u)))
    for row, k, beta in zip(defects, grades, betas, strict=True):
        lu, lmu, l0 = np.split(multilinear.compound(maps, k), 3)
        row[:] = np.abs(np.linalg.eigvalsh(lu + lmu - 2.0 * beta * l0)).max(axis=1)
    return defects


def _antipodal_maps(body, base, u: np.ndarray) -> np.ndarray:
    """Relative maps at u and -u, both in the frame built at u."""
    basis = tangent_frames(u[None])[0]
    return relative_maps(body, base, np.stack([u, -u]), np.stack([basis, basis]))


def relative_wedge_defect(body, base, k: int, beta: float, u) -> float:
    """Defect of wedge^k M(u) + wedge^k M(-u) = 2 beta Id for relative maps.

    When the defect is at most 1e-8 and k <= n-2, the simultaneous
    diagonalizability that the identity forces is verified by delegating to
    ``multilinear.common_eigenbasis`` (an InternalInconsistencyError there
    would signal a genuine contradiction).
    """
    u = np.asarray(u, dtype=float)
    _check_symmetric_body(base, u[None])
    mu, mmu = _antipodal_maps(body, base, u)
    lhs = multilinear.compound(mu, k) + multilinear.compound(mmu, k)
    defect = float(np.linalg.norm(lhs - 2.0 * beta * np.eye(lhs.shape[0]), 2))
    n = body.dim
    if defect <= 1e-8 and k <= n - 2:
        multilinear.common_eigenbasis(mu, mmu, k, 2.0 * beta, tol=max(1e-8, 2.0 * defect))
    return defect


# ---------------------------------------------------------------------------
# antipodal umbilic search


@dataclass(frozen=True)
class UmbilicResult:
    """Certificate that both maps at +-u0 are (close to) r0 times identity.

    ``defect`` is max over the two signs of the operator norm of
    M(+-u0) - r0 Id, with r0 the mean of all 2(n-1) eigenvalues;
    ``boundary_points`` are the support gradients at +-u0 (their tangent
    hyperplanes are parallel by construction).
    """

    u0: np.ndarray
    r0: float
    defect: float
    boundary_points: tuple
    is_umbilic: bool


@dataclass(frozen=True)
class AntipodalSearchResult:
    """Outcome of ``antipodal_search``.

    ``evaluations`` counts the grid directions and the compass polls a
    one-poll-at-a-time compass makes; the budget applies to it.
    ``objective_calls`` counts the stacked objective calls and
    ``objective_rows`` the directions they were given, speculative polls
    (scored but never walked) included.
    """

    umbilic: UmbilicResult
    r_defect: float
    converged: bool
    evaluations: int
    objective: str
    objective_calls: int
    objective_rows: int


def umbilic_check(body, base, u0, tol: float = 1e-8) -> UmbilicResult:
    """Evaluate how close +-u0 is to an antipodal pair of relative umbilics."""
    u0 = np.asarray(u0, dtype=float)
    return _umbilic(body, u0, _antipodal_maps(body, base, u0), tol)


def _umbilic(body, u0, maps: np.ndarray, tol: float) -> UmbilicResult:
    """``umbilic_check`` from the relative maps at +-u0, both in the frame built at u0."""
    nm1 = maps.shape[1]
    r0 = float((np.trace(maps[0]) + np.trace(maps[1])) / (2 * nm1))
    defect = float(np.linalg.norm(maps - r0 * np.eye(nm1), 2, axis=(1, 2)).max())
    points = tuple(body.jets(np.stack([u0, -u0]))[1])
    return UmbilicResult(u0, r0, defect, points, bool(defect <= tol))


def _profiles(body, base, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending relative radii at +u and -u for each row of u, two (m, n-1) arrays.

    The rows are evaluated in the order u[0], -u[0], u[1], ..., so a
    degenerate base raises at the first direction a one-by-one scan meets.
    """
    v = np.stack([u, -u], axis=1).reshape(-1, u.shape[1])
    vals = np.linalg.eigvalsh(relative_maps(body, base, v))
    vals = vals.reshape(len(u), 2, -1)
    return vals[:, 0], vals[:, 1]


def _search_objective(body, base, u: np.ndarray, objective: str) -> np.ndarray:
    """Search objective at each row of u (see ``antipodal_search``)."""
    r_pos, r_neg = _profiles(body, base, u)
    f = np.sum((r_pos - r_neg) ** 2, axis=1)
    if objective == "umbilic":
        f += np.sum((r_pos - r_pos.mean(axis=1, keepdims=True)) ** 2, axis=1)
        f += np.sum((r_neg - r_neg.mean(axis=1, keepdims=True)) ** 2, axis=1)
    return f


def antipodal_search(
    body,
    base,
    seed=0,
    budget: int = 4000,
    objective: str = "umbilic",
    tol: float = 1e-6,
) -> AntipodalSearchResult:
    """Locate a direction where the antipodal eigenvalue profiles match.

    The default objective adds the isotropy defect of both profiles, so a
    converged minimum certifies an antipodal pair of relative umbilics
    (M(+-u0) = r0 Id).  ``objective="antipodal"`` minimizes only
    |R(u) - R(-u)|^2, the quantity whose zero is guaranteed for continuous
    odd-symmetric data; use it to study generic body pairs.

    The search scans ``hemisphere_grid(n, max(8, budget // 4), seed)``,
    seeded Haar directions on a closed hemisphere (ties keep the lowest grid
    index), and follows it with a derivative-free compass refinement with
    shrinking tangent steps, stopping when the step falls
    below 1e-7 or the evaluation budget is exhausted.  A sweep polls
    +-step along each column of the tangent frame at its starting point and
    accepts a poll as soon as it improves; the polls after it start from the
    accepted point.  The sweep scores all polls it has not walked in one
    stacked call, and again after each accepted poll, so it reaches the same
    points and counts the same ``evaluations`` as a compass that scores one
    poll at a time; ``objective_calls`` and ``objective_rows`` report the
    batching and the speculative polls it scored.  If the final defect
    exceeds ``tol`` the best candidate is returned flagged unconverged.
    """
    if objective not in ("umbilic", "antipodal"):
        raise ValueError(f"unknown objective {objective!r}")
    if budget < 16:
        raise ValueError("budget too small for a meaningful search")
    n = body.dim
    calls = rows = 0

    def f(u):
        nonlocal calls, rows
        calls += 1
        rows += len(u)
        return _search_objective(body, base, u, objective)

    def score(polls):
        # a degenerate base may sit at a poll the walk never reaches; after a
        # failed batch score the next poll alone, which raises only if the
        # walk would have raised there
        try:
            return f(polls)
        except PreconditionError:
            if len(polls) == 1:
                raise
            return f(polls[:1])

    grid = hemisphere_grid(n, max(8, budget // 4), seed)
    values = f(grid)
    evals = len(grid)
    best_u, best_f = grid[0], values[0]
    for u, val in zip(grid[1:], values[1:]):
        if val < best_f - max(1e-18, 1e-12 * best_f):
            best_f, best_u = val, u

    step = 0.5
    min_step = 1e-7
    while step > min_step and evals + 2 * (n - 1) <= budget:
        frame = tangent_frames(best_u[None])[0].T
        moves = np.stack([sign * step * b for b in frame for sign in (1.0, -1.0)])
        improved = False
        walked = 0
        while walked < len(moves):
            polls = best_u + moves[walked:]
            for cand in polls:
                # the 1-D norm, not norm(axis=1): the two round differently
                cand /= np.linalg.norm(cand)
            for cand, val in zip(polls, score(polls)):
                walked += 1
                evals += 1
                if val < best_f - max(1e-18, 1e-12 * best_f):
                    best_f, best_u = val, cand
                    improved = True
                    break
        if not improved:
            step *= 0.5

    maps = _antipodal_maps(body, base, best_u)
    umb = _umbilic(body, best_u, maps, tol)
    r_defect = float(np.linalg.norm(np.subtract(*np.linalg.eigvalsh(maps))))
    converged = r_defect <= tol if objective == "antipodal" else umb.defect <= tol
    return AntipodalSearchResult(
        umbilic=umb,
        r_defect=r_defect,
        converged=bool(converged),
        evaluations=evals,
        objective=objective,
        objective_calls=calls,
        objective_rows=rows,
    )


# ---------------------------------------------------------------------------
# bodies of revolution


@dataclass(frozen=True)
class RevolutionEigenstructure:
    """Eigenstructure of L(h)(u) for a body of revolution at u != +-axis.

    ``axial`` is the simple eigenvalue with eigenvector in span{axis, u}
    orthogonal to u; ``equatorial`` is the (n-2)-fold eigenvalue on the
    orthogonal complement of span{axis, u}.  The residuals measure how far
    the Hessian is from that block structure.
    """

    axial: float
    equatorial: float
    axial_residual: float
    isotropy_residual: float


def _check_revolution_body(body, axis: np.ndarray, u: np.ndarray, t: float) -> None:
    """Verify the radii at u recur, to 1e-9 relative, at u turned about the axis
    onto 8 Haar directions of seed 0, each moved to the latitude t = <u, axis>."""
    w = haar_directions(body.dim, 8, as_rng(0))
    w -= np.outer(w @ axis, axis)
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    v = np.vstack([u, t * axis + np.sqrt(1.0 - t * t) * w])
    radii = np.linalg.eigvalsh(reverse_weingarten(body, v))
    worst = float(np.max(np.abs(radii[1:] - radii[0]) / np.maximum(1.0, np.abs(radii[0]))))
    if worst > 1e-9:
        raise ValueError(
            f"body is not a body of revolution about the axis: relative radius gap {worst:.3e}"
        )


def revolution_eigenstructure(body, axis, u) -> RevolutionEigenstructure:
    """Closed-form eigenstructure check for a body of revolution about the unit axis.

    A non-unit axis is refused as ``_unit_rows`` refuses a direction, and so
    is u = +-axis.  The body is measured, not trusted: its radii at u must
    recur at u turned about the axis (``_check_revolution_body``), or a
    ValueError names the radius gap.  Unlike the pointwise residuals, this
    catches a 3-D body of revolution checked about the wrong axis.  Below
    n = 3 there is no equatorial block, and the dimension is refused.
    """
    if body.dim < 3:
        raise ValueError(f"a body of revolution needs dimension n >= 3, got n = {body.dim}")
    axis = _unit_rows(np.asarray(axis, dtype=float)[None])[0]
    u = np.asarray(u, dtype=float)
    t = float(u @ axis)
    if abs(t) > 1 - 1e-10:
        raise ValueError("direction must differ from the axis")
    _check_revolution_body(body, axis, u, t)
    cos_phi = float(np.sqrt(1.0 - t * t))
    v0 = (u - t * axis) / cos_phi
    w1 = -t * v0 + cos_phi * axis

    hess = body.jets(u[None])[2][0]
    axial = float(w1 @ hess @ w1)
    axial_residual = float(np.linalg.norm(hess @ w1 - axial * w1))

    n = u.size
    span = np.column_stack([u, w1])
    q, _ = np.linalg.qr(np.column_stack([span, np.eye(n)]))
    comp = q[:, 2:]
    block = comp.T @ hess @ comp
    equatorial = float(np.trace(block) / (n - 2))
    isotropy_residual = float(np.linalg.norm(block - equatorial * np.eye(n - 2), 2))
    return RevolutionEigenstructure(axial, equatorial, axial_residual, isotropy_residual)


@dataclass(frozen=True)
class RevolutionRelationDefects:
    """Defects of the equatorial eigenvalue relations for co-axial pairs.

    With (x1, x) the axial/equatorial eigenvalues of the body and (y1, y)
    those of the base at an equatorial direction, proportional i-th and
    (n-1)-st projection functions with ratios alpha and beta force

        x1 x^{i-1} = alpha y1 y^{i-1},   x^i = alpha y^i,
        x1 x^{n-2} = beta  y1 y^{n-2},

    and consequently alpha^{n-1} = beta^i.
    """

    mixed_i: float
    pure_i: float
    mixed_top: float
    consequence: float

    def max_defect(self) -> float:
        return max(self.mixed_i, self.pure_i, self.mixed_top)


def revolution_relations_check(
    body, base, axis, i: int, alpha: float, beta: float, u
) -> RevolutionRelationDefects:
    """Evaluate the three equatorial relations and their consequence.

    Both bodies are measured about the unit axis by
    ``revolution_eigenstructure``, so a pair that is not co-axial about it
    is refused with the radius gap; u must be orthogonal to the axis.
    """
    n = body.dim
    if not (1 <= i <= n - 2):
        raise ValueError(f"grade i={i} must satisfy 1 <= i <= n-2")
    u = np.asarray(u, dtype=float)
    if abs(float(u @ np.asarray(axis, dtype=float))) > 1e-8:
        raise ValueError("direction must be equatorial (orthogonal to the axis)")

    eb = revolution_eigenstructure(body, axis, u)
    e0 = revolution_eigenstructure(base, axis, u)
    x1, x = eb.axial, eb.equatorial
    y1, y = e0.axial, e0.equatorial
    mixed_i = abs(2 * x1 * x ** (i - 1) - 2 * alpha * y1 * y ** (i - 1))
    pure_i = abs(2 * x**i - 2 * alpha * y**i)
    mixed_top = abs(2 * x1 * x ** (n - 2) - 2 * beta * y1 * y ** (n - 2))
    consequence = abs(alpha ** (n - 1) - beta**i)
    return RevolutionRelationDefects(mixed_i, pure_i, mixed_top, consequence)


# ---------------------------------------------------------------------------
# determinant ratios


@dataclass(frozen=True)
class DetRatioReport:
    """Sampled constancy report for det L(h) / det L(h0)."""

    mean: float
    max_rel_deviation: float
    ratios: np.ndarray


def det_ratio_constancy(body, base, samples: int = 64, seed=0) -> DetRatioReport:
    """Sample the curvature-determinant ratio over Haar-random directions.

    The ratio is the density of the top-order area measure of the body with
    respect to the base; for homothets it is constant (scale^{n-1}).
    """
    dirs = haar_directions(body.dim, samples, as_rng(seed))
    bases = tangent_frames(dirs)
    det_body = multilinear.det(reverse_weingarten(body, dirs, bases))
    det_base = multilinear.det(reverse_weingarten(base, dirs, bases))
    if (np.abs(det_base) < 1e-14).any():
        raise PreconditionError("base curvature determinant vanishes at a sample")
    ratios = det_body / det_base
    mean = float(ratios.mean())
    max_rel = float(np.abs(ratios / mean - 1.0).max()) if mean != 0 else np.inf
    return DetRatioReport(mean, max_rel, ratios)
