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

The curvature maps have one stacked API on ``body``'s jets contract: the
reverse Weingarten maps L at the rows of u are ``body.jets(u, B)[2]``, the
Hessians B^T H B restricted to frames B of u^perp (``body.tangent_frames``)
as one (m, n-1, n-1) stack, with no n x n Hessian.  ``relative_maps`` takes
those frames as a required argument and ``wedge_identity_defects`` builds
them; both take an (m, n) array of directions and return stacks, then
stacked linear algebra; one direction u is the stack ``u[None]``.
``wedge_identity_defects`` builds the maps at +-u and the base maps at u
once; each grade adds one ``multilinear.compound`` call, a row-sum bound on
the norm of each defect matrix, and ``eigvalsh`` on only those matrices
whose bound exceeds the norm of the one with the largest bound, since only
the worst defect is returned.  Every relative map comes from
``relative_maps``; the umbilic search takes the maps at +-p for a stack of
points p, each pair in the frame built at p, in one call for its whole grid
(``sampling.hemisphere_grid``, seeded Haar directions flipped onto a
hemisphere), one per Gauss-Newton iteration and one for the defects at
the point it returns: measurements only, which the caller compares with
its own tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import multilinear
from .body import _symmetrized, _unit_rows, tangent_frames
from .errors import PreconditionError
from .sampling import haar_directions, hemisphere_grid

__all__ = [
    "AntipodalSearchResult",
    "RevolutionEigenstructure",
    "RevolutionRelationDefects",
    "relative_maps",
    "wedge_identity_defects",
    "relative_wedge_defect",
    "antipodal_search",
    "revolution_eigenstructure",
    "revolution_relations_check",
]


# ---------------------------------------------------------------------------
# maps


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


def relative_maps(body, base, u, bases) -> np.ndarray:
    """L0^{-1/2} L L0^{-1/2} at each row of u, an (m, n-1, n-1) stack.

    ``bases`` is an (m, n, n-1) stack whose i-th slice spans u[i]^perp (it
    may have been built at -u[i], the subspaces agree); L and L0 are the
    Hessians of body and base restricted to it, ``jets(u, bases)[2]``.  The
    eigenvalues of each slice are the relative radii at u[i].  Raises
    PreconditionError naming the offending eigenvalue when a base map is not
    positive definite.
    """
    s = _psd_inv_sqrt(base.jets(u, bases)[2], "base reverse Weingarten map")
    return _symmetrized(s @ body.jets(u, bases)[2] @ s)


def _check_symmetric_body(base, u: np.ndarray) -> None:
    """Verify h0(v) = h0(-v), to 1e-9 relative, on the rows of u plus 8 Haar directions of seed 0.

    Only the values are read, so the jets get zero-column frames: no Hessian is built.
    """
    v = np.vstack([u, haar_directions(base.dim, 8, 0)])
    v = np.vstack([v, -v])
    hv, hmv = np.split(base.jets(v, np.empty((len(v), base.dim, 0)))[0], 2)
    worst = float(np.max(np.abs(hv - hmv) / np.maximum(1.0, np.abs(hv))))
    if worst > 1e-9:
        raise PreconditionError(
            f"base body is not centrally symmetric: relative support gap {worst:.3e}"
        )


def _largest_eigenvalue_norm(d: np.ndarray, k: int) -> tuple[float, int]:
    """max |eigenvalue| over the slices of an (m, r, r) stack of defect matrices at
    grade k, and the number of slices that ``eigvalsh`` solved to find it.

    ``eigvalsh`` reads the lower triangle of each slice, so the eigenvalues it
    reports are those of the symmetric S made from that triangle, each within
    c eps ||S||_2 for a small c (backward stability).  The largest absolute row
    sum G of S bounds ||S||_2 (Gershgorin) and is computed to within r eps, so
    G (1 + 1e-12) bounds every |eigenvalue| that ``eigvalsh`` reports while
    c + r stays well below 1e-12 / eps, about 4500.  The slice with the largest
    bound is solved first, then every slice whose bound exceeds that norm: no
    other slice can exceed it.  ``eigvalsh`` solves each slice on its own, so
    the result is bit for bit the maximum over a solve of the whole stack.  The
    triangle masks multiply every entry, so a NaN or an infinity anywhere in a
    slice, in either triangle, makes its bound NaN; that raises
    PreconditionError naming k and the slice.
    """
    r = d.shape[1]
    a = np.abs(d)
    rows = np.einsum("mij,ij->mi", a, np.tri(r)) + np.einsum("mji,ji->mi", a, np.tri(r, k=-1))
    bound = rows.max(axis=1) * (1.0 + 1e-12)
    bad = np.flatnonzero(~np.isfinite(bound))
    if bad.size:
        raise PreconditionError(
            f"the grade-{k} wedge defect matrix at direction {bad[0]} "
            "has an entry that is not finite"
        )
    top = int(np.argmax(bound))
    best = float(np.abs(np.linalg.eigvalsh(d[top])).max())
    rest = bound > best
    rest[top] = False
    if rest.any():
        best = max(best, float(np.abs(np.linalg.eigvalsh(d[rest])).max()))
    return best, 1 + int(rest.sum())


def wedge_identity_defects(body, base, grades, betas, u) -> tuple[np.ndarray, list[int]]:
    """Worst operator-norm defect of wedge^k L(u) + wedge^k L(-u) = 2 beta wedge^k L0(u).

    Entry i of the first array is the largest over the rows of the (m, n)
    array u at grade grades[i] with ratio betas[i]; the list gives, per grade,
    how many of the m defect matrices had their eigenvalues solved.  The jets
    at +-u, frames and restricted Hessians serve every grade; each adds a
    stacked compound, a row-sum bound on the norm of every (symmetric) defect
    matrix and ``eigvalsh`` on only the matrices whose bound exceeds the norm
    of the one with the largest bound (``_largest_eigenvalue_norm``): the
    result is bit for bit the maximum of a solve of all m.  A defect matrix
    with a non-finite entry raises PreconditionError naming its grade and
    direction.  The base body must be centrally symmetric; this is checked
    once, on the rows of u and 8 Haar directions of seed 0.
    """
    u = _unit_rows(u)
    _check_symmetric_body(base, u)
    bases = tangent_frames(u)
    body_maps = body.jets(np.vstack([u, -u]), np.concatenate([bases, bases]))[2]
    maps = np.concatenate([body_maps, base.jets(u, bases)[2]])
    worst, solved = np.empty(len(grades)), []
    for i, (k, beta) in enumerate(zip(grades, betas, strict=True)):
        lu, lmu, l0 = np.split(multilinear.compound(maps, k), 3)
        worst[i], count = _largest_eigenvalue_norm(lu + lmu - 2.0 * beta * l0, k)
        solved.append(count)
    return worst, solved


def _antipodal_maps(body, base, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Relative maps at p[0], -p[0], p[1], ... for an (m, n) stack p, and the frames.

    Each pair is mapped in the frame built at p[i], the i-th slice of the
    returned ``tangent_frames(p)``.  A base that is not positive definite
    raises at the first such row in that order, where a one-by-one scan of
    +-p would meet it.
    """
    bases = tangent_frames(p)
    v = np.stack([p, -p], axis=1).reshape(-1, p.shape[1])
    return relative_maps(body, base, v, bases.repeat(2, axis=0)), bases


def relative_wedge_defect(body, base, k: int, beta: float, u) -> float:
    """Defect of wedge^k M(u) + wedge^k M(-u) = 2 beta Id for relative maps.

    When the defect is at most 1e-8 and k <= n-2, the simultaneous
    diagonalizability that the identity forces is verified by delegating to
    ``multilinear.common_eigenbasis`` (an InternalInconsistencyError there
    would signal a genuine contradiction).
    """
    u = np.asarray(u, dtype=float)
    _check_symmetric_body(base, u[None])
    mu, mmu = _antipodal_maps(body, base, u[None])[0]
    lhs = multilinear.compound(mu, k) + multilinear.compound(mmu, k)
    defect = float(np.linalg.norm(lhs - 2.0 * beta * np.eye(lhs.shape[0]), 2))
    n = body.dim
    if defect <= 1e-8 and k <= n - 2:
        multilinear.common_eigenbasis(mu, mmu, k, 2.0 * beta, tol=max(1e-8, 2.0 * defect))
    return defect


# ---------------------------------------------------------------------------
# antipodal umbilic search


@dataclass(frozen=True)
class AntipodalSearchResult:
    """Measurements of ``antipodal_search`` at the direction u0 it returns.

    ``umbilic_defect`` is the max over the two signs of the operator norm of
    M(+-u0) - r0 Id, with r0 the mean of all 2(n-1) eigenvalues of M(+-u0);
    ``r_defect`` is the norm of the difference of their ascending radii.
    ``evaluations`` counts the grid directions and the 2n - 1 directions of
    each Gauss-Newton iteration; the budget applies to it.
    ``gauss_newton_steps`` counts those iterations, each one stacked
    ``relative_maps`` call, so evaluations = grid + (2n - 1) steps.  The
    caller judges the defects: no tolerance is applied here.
    """

    u0: np.ndarray
    r0: float
    umbilic_defect: float
    r_defect: float
    evaluations: int
    gauss_newton_steps: int


def _umbilic(maps: np.ndarray) -> tuple[float, float]:
    """(r0, defect) of the relative maps at +-u0, both in one frame: r0 is the mean
    of their eigenvalues, and defect the max over the two of ||M - r0 Id||_2."""
    nm1 = maps.shape[1]
    r0 = float((np.trace(maps[0]) + np.trace(maps[1])) / (2 * nm1))
    return r0, float(np.linalg.norm(maps - r0 * np.eye(nm1), 2, axis=(1, 2)).max())


def _search_objective(body, base, u: np.ndarray, objective: str) -> np.ndarray:
    """Search objective at each row of u (see ``antipodal_search``)."""
    radii = np.linalg.eigvalsh(_antipodal_maps(body, base, u)[0]).reshape(len(u), 2, -1)
    r_pos, r_neg = radii[:, 0], radii[:, 1]
    f = np.sum((r_pos - r_neg) ** 2, axis=1)
    if objective == "umbilic":
        f += np.sum((r_pos - r_pos.mean(axis=1, keepdims=True)) ** 2, axis=1)
        f += np.sum((r_neg - r_neg.mean(axis=1, keepdims=True)) ** 2, axis=1)
    return f


def _residuals(maps: np.ndarray, bases: np.ndarray, objective: str) -> np.ndarray:
    """Frame-free search residual at each of m points p, an (m, R) array.

    ``maps`` are the relative maps at p[0], -p[0], p[1], ... in the frames
    ``bases`` built at the p[i].  ``umbilic``: the entries of
    A(+-p) - r (I - p p^T), with A = B M B^T and r the mean eigenvalue over
    +-p.  ``antipodal``: tr M(p)^j - tr M(-p)^j for j = 1 ... n-1, which
    vanish with equal spectra and, unlike sorted eigenvalues, stay smooth
    where eigenvalues cross.
    """
    maps = maps.reshape(len(bases), 2, *maps.shape[1:])
    d = maps.shape[-1]
    if objective == "antipodal":
        sums = (np.linalg.eigvalsh(maps)[..., None] ** np.arange(1, d + 1)).sum(axis=2)
        return sums[:, 0] - sums[:, 1]
    r = np.trace(maps, axis1=2, axis2=3).sum(axis=1) / (2 * d)
    shifted = maps - r[:, None, None, None] * np.eye(d)
    ambient = bases[:, None] @ shifted @ np.swapaxes(bases, 1, 2)[:, None]
    return ambient.reshape(len(bases), -1)


def antipodal_search(
    body, base, seed=0, budget: int = 4000, objective: str = "umbilic"
) -> AntipodalSearchResult:
    """Locate a direction where the antipodal eigenvalue profiles match.

    The default objective adds the isotropy defect of both profiles, so its
    zero is an antipodal pair of relative umbilics (M(+-u0) = r0 Id).
    ``objective="antipodal"`` minimizes only |R(u) - R(-u)|^2, the quantity
    whose zero is guaranteed for continuous odd-symmetric data; use it to
    study generic body pairs.

    The search scores ``hemisphere_grid(n, max(8, budget // 20), seed)``,
    seeded Haar directions on a closed hemisphere, by the eigenvalues of one
    stacked ``relative_maps`` call at +-grid (ties keep the lowest grid
    index), then polishes the best grid point by undamped Gauss-Newton on
    ``_residuals`` in the tangent chart.  Each iteration is one stacked
    ``relative_maps`` call at +-u and +-normalize(u +- h b_i) for the
    columns b_i of B = ``tangent_frames(u)``, h = 1e-6; with the
    central-difference Jacobian J the step is
    u <- normalize(u - B lstsq(J, r)).  At a double root, such as the pole
    of a body of revolution, r is quadratic in the chart offset, so that step
    goes half way and the norm only shrinks by (1/2)^2 per iteration.  Once a
    unit step shrinks the norm by a factor in [0.2, 0.3], the polish moves by
    2 B lstsq(J, r) instead; if a doubled step fails to lower the norm, the
    next iteration takes the unit step from the same centre and doubling stays
    off.  The polish stops when the centre's residual norm fails to decrease
    (returning the previous centre), when it is rounding, or when the next
    2n - 1 directions would take ``evaluations`` past ``budget``.  Rounding
    is a norm of at most 8 eps sqrt(R) s over the R residual entries, where
    s is the largest term the residual subtracts: the largest |eigenvalue|
    of M(+-u) for ``umbilic``, the largest power sum of their |eigenvalues|
    for ``antipodal``; a step from it would be a step from noise.  For the
    same reason lstsq drops the singular values of J at or below that norm
    over h, J's central-difference noise, so on a curve of zeros, where J is
    rank 1 up to noise, no step follows the noise.  The maps at +-u0 are
    taken once more for the returned defects, which the caller compares
    with its own tolerance.  The base body must be centrally symmetric; this
    is checked once, on the grid and 8 Haar directions of seed 0, before the
    grid is scored.
    """
    if objective not in ("umbilic", "antipodal"):
        raise ValueError(f"unknown objective {objective!r}")
    if budget < 16:
        raise ValueError("budget too small for a meaningful search")
    n = body.dim
    grid = hemisphere_grid(n, max(8, budget // 20), seed)
    _check_symmetric_body(base, grid)
    values = _search_objective(body, base, grid, objective)
    evals = len(grid)
    best_u, best_f = grid[0], values[0]
    for u, val in zip(grid[1:], values[1:]):
        if val < best_f - max(1e-18, 1e-12 * best_f):
            best_f, best_u = val, u

    h, steps = 1e-6, 0
    u, last, last_norm = best_u, best_u, np.inf
    double = None  # True once a double root shows, False once a doubled step failed
    while evals + 2 * n - 1 <= budget:
        frame = tangent_frames(u[None])[0]
        polls = u + h * np.concatenate([frame.T, -frame.T])
        points = np.vstack([u, polls / np.linalg.norm(polls, axis=1, keepdims=True)])
        maps, bases = _antipodal_maps(body, base, points)
        res = _residuals(maps, bases, objective)
        evals, steps = evals + len(points), steps + 1
        norm = np.linalg.norm(res[0])
        if not norm < last_norm:
            if not double:
                u = last
                break
            # the doubled step failed: take the unit step from the same centre instead
            double, u = False, last - move
            u = u / np.linalg.norm(u)
            continue
        if double is None and 0.2 * last_norm <= norm <= 0.3 * last_norm:
            double = True  # a unit step cut the norm by about (1/2)^2: a double root
        lam = np.abs(np.linalg.eigvalsh(maps[:2]))  # M(+-u) at the centre
        sums = (lam[..., None] ** np.arange(1, n)).sum(axis=1)  # power sums at each sign
        scale = lam.max() if objective == "umbilic" else sums.max()
        noise = 8.0 * np.finfo(float).eps * np.sqrt(res.shape[1]) * scale
        if norm <= noise:
            break
        jac = (res[1:n] - res[n:]).T / (2.0 * h)
        step, _, _, sing = np.linalg.lstsq(jac, res[0], rcond=None)
        if sing[-1] <= noise / h:
            # singular values at or below noise / h are central-difference rounding
            step = np.linalg.lstsq(jac, res[0], rcond=noise / max(h * sing[0], noise))[0]
        last, last_norm, move = u, norm, frame @ step
        u = u - 2.0 * move if double else u - move
        u = u / np.linalg.norm(u)

    maps = _antipodal_maps(body, base, u[None])[0]
    r0, defect = _umbilic(maps)
    r_defect = float(np.linalg.norm(np.subtract(*np.linalg.eigvalsh(maps))))
    return AntipodalSearchResult(u, r0, defect, r_defect, evals, steps)


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
    w = haar_directions(body.dim, 8, 0)
    w -= np.outer(w @ axis, axis)
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    v = np.vstack([u, t * axis + np.sqrt(1.0 - t * t) * w])
    radii = np.linalg.eigvalsh(body.jets(v, tangent_frames(v))[2])
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
    n = 3 there is no equatorial block, and the dimension is refused.  The
    Hessian is read as B^T H B in the orthonormal basis B = [u, w1, complement
    of span{u, w1}], one ``jets(u, B)`` call, so |B^T x| = |x| for residuals.
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

    n = u.size
    q, _ = np.linalg.qr(np.column_stack([u, w1, np.eye(n)]))
    hess = body.jets(u[None], np.column_stack([u, w1, q[:, 2:]])[None])[2][0]
    axial = float(hess[1, 1])
    axial_residual = float(np.linalg.norm(hess[:, 1] - axial * np.eye(n)[1]))

    block = hess[2:, 2:]
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
