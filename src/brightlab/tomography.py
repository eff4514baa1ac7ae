"""Projections of convex bodies onto subspaces and projection functions.

A projection K|U onto a k-dimensional subspace U with orthonormal frame F
has support function w -> h_K(F w) on R^k; jets follow by the chain rule.
The k-dimensional volume of a smooth projected body is recovered from its
support jet by

    V_k = (1/k) * integral over S^{k-1} of h * det(tangential Hessian),

evaluated with one product Gauss rule on the sphere, built recursively.
S^0 = {+1, -1}, so for k = 1 the formula gives the width h(1) + h(-1) of
the segment; S^1 is a uniform circle (the trapezoid rule, spectrally exact
for smooth bodies); above that u = (sqrt(1 - t^2) v, t) with v on S^{k-2},
t from a Gauss-Gegenbauer rule with lam = (k - 2)/2 (Gauss-Legendre at
k = 3) computed by Golub-Welsch, and v from the rule one grade down.  The
rule is deterministic and maps onto itself under u -> -u, so the odd term
<t, u> det that a translation adds to the integrand cancels to rounding.

Shadow volumes are evaluated in batches of frames F on one rule: each rule
direction w lifts to F w on the source body and each tangent frame B to F B,
so one jets call per body per batch of about JET_BATCH = 2^11 directions
gives the source Hessians H, restricted directly as (F B)^T H (F B), then a
stacked determinant and a weighted sum per frame.  ``volume_from_support``
is the same kernel on one frame (the identity for a native body).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import gamma, pi, sqrt

import numpy as np

from .body import ConvexBody
from .multilinear import det
from .sampling import as_rng, haar_directions, median
from .weingarten import _restrict_all, _unit_rows, tangent_frames

__all__ = [
    "SubspaceFrame",
    "ProjectedBody",
    "ProportionalityReport",
    "HomothetyFit",
    "random_subspace",
    "project",
    "volume_from_support",
    "projection_function",
    "proportionality_test",
    "ratio_consistency_check",
    "homothety_fit",
]


@dataclass(frozen=True)
class SubspaceFrame:
    """Orthonormal frame (n x k columns) spanning a k-dimensional subspace."""

    columns: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.columns, dtype=float)
        if c.ndim != 2 or c.shape[0] < c.shape[1]:
            raise ValueError("expected an n x k column frame with k <= n")
        gram = c.T @ c
        if np.abs(gram - np.eye(c.shape[1])).max() > 1e-10:
            raise ValueError("frame columns must be orthonormal")
        object.__setattr__(self, "columns", c)

    @property
    def n(self) -> int:
        return self.columns.shape[0]

    @property
    def k(self) -> int:
        return self.columns.shape[1]


def _haar_frames(n: int, k: int, rngs) -> np.ndarray:
    """An (R, n, k) stack of Haar k-frames in R^n, one per generator: one
    Gaussian (n, k) draw from each, one stacked QR, and the sign convention
    that makes the factorization (hence the draw) unique."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    q, r = np.linalg.qr(np.array([rng.standard_normal((n, k)) for rng in rngs]).reshape(-1, n, k))
    return q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]


def random_subspace(n: int, k: int, seed) -> SubspaceFrame:
    """Haar-distributed k-frame in R^n, drawn as one frame of ``_haar_frames``."""
    return SubspaceFrame(_haar_frames(n, k, [as_rng(seed)])[0])


class ProjectedBody(ConvexBody):
    """The shadow K|U as a k-dimensional body in frame coordinates."""

    def __init__(self, source, frame: SubspaceFrame):
        if frame.n != source.dim:
            raise ValueError("frame ambient dimension must match the body")
        self.source = source
        self.frame = frame

    @property
    def dim(self) -> int:
        return self.frame.k

    def support(self, w) -> float:
        w = np.asarray(w)
        return self.source.support(self.frame.columns @ w)

    def jets(self, w):
        """Chain rule on the source jets at the rows of w F^T, unit since F is orthonormal."""
        f = self.frame.columns
        values, grads, hess = self.source.jets(_unit_rows(w) @ f.T)
        return values, grads @ f, f.T @ hess @ f


def project(body, frame: SubspaceFrame) -> ProjectedBody:
    """Orthogonal projection of a body onto the subspace spanned by ``frame``."""
    return ProjectedBody(body, frame)


# ---------------------------------------------------------------------------
# volumes

# rule directions per ``body.jets`` call when shadow volumes are batched over frames
JET_BATCH = 2**11


def _gegenbauer_rule(p: int, lam: float):
    """p-point Gauss rule for the weight (1 - t^2)^(lam - 1/2) on [-1, 1].

    Golub-Welsch: the nodes are the eigenvalues of the symmetric Jacobi
    matrix of the Gegenbauer polynomials, and each weight is the weight
    integral times the squared first entry of its eigenvector (Golub and
    Welsch, Math. Comp. 23 (1969) 221-230).  The rule is symmetrized so that
    t -> -t maps it onto itself exactly.
    """
    n = np.arange(1.0, p)
    off = np.sqrt(n * (n + 2 * lam - 1) / (4 * (n + lam) * (n + lam - 1)))
    t, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    w = sqrt(pi) * gamma(lam + 0.5) / gamma(lam + 1) * vecs[0] ** 2
    return (t - t[::-1]) / 2, (w + w[::-1]) / 2


def _sphere_rule(k: int, polar: int, circle: int):
    """Directions on S^{k-1} and weights for its surface measure.

    S^0 is {+1, -1} and S^1 the uniform circle of ``circle`` nodes.  Above,
    u = (sqrt(1 - t^2) v, t) with v on S^{k-2}: the measure is
    (1 - t^2)^((k-3)/2) dt dv, so t takes a ``polar``-point Gauss-Gegenbauer
    rule with lam = (k - 2)/2 and v the rule on S^{k-2}.
    """
    if k == 1:
        return np.array([[1.0], [-1.0]]), np.ones(2)
    if k == 2:
        theta = 2.0 * pi * np.arange(circle) / circle
        return np.column_stack([np.cos(theta), np.sin(theta)]), np.full(circle, 2.0 * pi / circle)
    t, wt = _gegenbauer_rule(polar, (k - 2) / 2)
    v, wv = _sphere_rule(k - 1, polar, circle)
    ct = np.repeat(t, len(v))
    dirs = np.column_stack([np.sqrt(1.0 - ct * ct)[:, None] * np.tile(v, (polar, 1)), ct])
    return dirs, np.outer(wt, wv).ravel()


def _quadrature_rule(k: int, nodes):
    """Directions and weights for V_k; the weights include the 1/k.

    ``nodes`` is the circle's node count at k = 2 and the polar node count p
    at k = 3.  At k >= 4 it is a budget: p is the largest integer with
    p^(k-1) <= nodes.  Above k = 2 the circle has 2p nodes, so a rule has at
    most 2 * nodes directions.  ``nodes`` is ignored at k = 1.
    """
    if k <= 2:
        circle = 256 if nodes is None else nodes
        if k == 2 and circle < 8:
            raise ValueError(f"the circle rule at k = 2 needs nodes >= 8, got {circle}")
        dirs, weights = _sphere_rule(k, 0, circle)
        return dirs, weights / k
    if k == 3:
        nodes = polar = 32 if nodes is None else nodes
    else:
        nodes = 4096 if nodes is None else nodes
        polar = round(max(nodes, 0) ** (1.0 / (k - 1)))
        if polar ** (k - 1) > nodes:  # the float root rounded up
            polar -= 1
    if polar < 4:
        raise ValueError(
            f"the sphere rule at k = {k} needs at least 4 polar nodes, so nodes >= "
            f"{4 if k == 3 else 4 ** (k - 1)}, got {nodes}"
        )
    dirs, weights = _sphere_rule(k, polar, 2 * polar)
    return dirs, weights / k


def _lifted_volumes(body, columns, dirs, weights, tangents) -> np.ndarray:
    """V_k of the shadows of ``body`` on each frame F of an (R, n, k) stack.

    The rule's directions lift to the rows of w F^T and its tangent frames
    ``tangents`` (``tangent_frames(dirs)``) to F B, so the source Hessian is
    restricted directly: (F B)^T H (F B), no k x k projected Hessian.  Frames
    go in batches of about ``JET_BATCH`` directions, one ``body.jets`` call per
    batch; at k = 1 F B has no column and ``det`` gives 1.
    """
    m, (n, k) = len(dirs), columns.shape[1:]
    step = max(1, JET_BATCH // m)
    vols = np.empty(len(columns))
    for start in range(0, len(columns), step):
        f = columns[start : start + step]
        values, _, hess = body.jets((dirs @ np.swapaxes(f, 1, 2)).reshape(-1, n))
        lifted = (f[:, None] @ tangents).reshape(len(f) * m, n, k - 1)
        dens = values * det(_restrict_all(hess, lifted))
        vols[start : start + step] = np.sum(weights * dens.reshape(len(f), m), axis=1)
    return vols


def volume_from_support(kbody, nodes: int | None = None) -> float:
    """k-dimensional volume of a smooth k-dimensional body from support jets.

    nodes means: circle nodes for k = 2 (default 256, minimum 8), polar
    Gauss-Legendre nodes for k = 3 with 2*nodes azimuths (default 32,
    minimum 4), and for k >= 4 a budget of at most 2*nodes directions: p
    polar nodes per angle, the largest p with p^(k-1) <= nodes, and 2p
    azimuths (default 4096, minimum 4^(k-1)).  nodes is ignored for k = 1.
    """
    dirs, weights = _quadrature_rule(kbody.dim, nodes)
    if isinstance(kbody, ProjectedBody):
        body, columns = kbody.source, kbody.frame.columns
    else:
        body, columns = kbody, np.eye(kbody.dim)
    return float(_lifted_volumes(body, columns[None], dirs, weights, tangent_frames(dirs))[0])


def _shadow_volumes(bodies, k: int, num_frames: int, seed, nodes):
    """Haar k-frames drawn from child seeds of ``seed``, and the shadow volumes.

    Returns the frames and a (num_frames, len(bodies)) array of V_k.  The
    quadrature rule is built once and every body is integrated on it over
    all the frames by ``_lifted_volumes``.
    """
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    columns = _haar_frames(bodies[0].dim, k, map(np.random.default_rng, ss.spawn(num_frames)))
    dirs, weights = _quadrature_rule(k, nodes)
    tangents = tangent_frames(dirs)
    vols = np.column_stack([_lifted_volumes(b, columns, dirs, weights, tangents) for b in bodies])
    return [SubspaceFrame(c) for c in columns], vols


def projection_function(
    body,
    k: int,
    num_frames: int,
    seed,
    nodes: int | None = None,
) -> list[tuple[SubspaceFrame, float]]:
    """Sampled projection function: Haar frames with V_k of each shadow.

    Frames are drawn from child seeds spawned deterministically off ``seed``.
    """
    frames, vols = _shadow_volumes([body], k, num_frames, seed, nodes)
    return [(f, float(v)) for f, v in zip(frames, vols[:, 0])]


@dataclass(frozen=True)
class ProportionalityReport:
    """Per-subspace volume ratios against the median ratio."""

    constant: float
    ratios: np.ndarray
    max_rel_deviation: float
    excluded: int


def proportionality_test(
    body, base, k: int, num_frames: int, seed, nodes: int | None = None
) -> ProportionalityReport:
    """Test V_k(K|U) = alpha V_k(K0|U) over Haar-random k-subspaces.

    alpha is the median ratio; degenerate samples (vanishing base volume)
    are excluded with a warning and counted in the report.
    """
    _, vols = _shadow_volumes([body, base], k, num_frames, seed, nodes)
    ratios = []
    excluded = 0
    for vb, v0 in vols:
        if abs(v0) < 1e-12:
            excluded += 1
            continue
        ratios.append(vb / v0)
    if excluded:
        warnings.warn(f"excluded {excluded} degenerate zero-volume samples")
    if not ratios:
        raise ValueError("all samples were degenerate")
    ratios = np.asarray(ratios)
    alpha = median(ratios)
    max_rel = float(np.abs(ratios / alpha - 1.0).max())
    return ProportionalityReport(alpha, ratios, max_rel, excluded)


def ratio_consistency_check(
    body,
    base,
    i: int,
    j: int,
    num_frames: int,
    seed,
    nodes: int | None = None,
) -> float:
    """Cross-grade consistency of i-th and j-th projection-volume ratios.

    Computes s_i(L) = (V_i(K0|L)/V_i(K|L))^{1/i} over i-subspaces L and
    s_j(U) = (V_j(K0|U)/V_j(K|U))^{1/j} over j-subspaces U and returns the
    worst |s_j(U) - s_i(L)| over all sampled pairs.  For bodies whose i-th
    and j-th projection functions are both proportional the two exponents
    must agree, so the defect is quadrature-level small.
    """
    if i == j:
        raise ValueError("grades must differ")
    ss = np.random.SeedSequence(seed)
    kid_i, kid_j = ss.spawn(2)

    def exponents(grade, kid):
        _, vols = _shadow_volumes([body, base], grade, num_frames, kid, nodes)
        vals = []
        for vb, v0 in vols:
            if abs(vb) < 1e-12:
                warnings.warn("skipping a degenerate zero-volume sample")
                continue
            vals.append((v0 / vb) ** (1.0 / grade))
        return np.asarray(vals)

    s_i = exponents(i, kid_i)
    s_j = exponents(j, kid_j)
    if not len(s_i) or not len(s_j):
        raise ValueError("all samples were degenerate")
    return float(np.abs(s_j[:, None] - s_i[None, :]).max())


@dataclass(frozen=True)
class HomothetyFit:
    """Least-squares fit h_K(u) = scale * h_K0(u) + <shift, u>."""

    scale: float
    shift: np.ndarray
    residual: float


def homothety_fit(body, base, samples: int = 256, seed=0) -> HomothetyFit:
    """Fit the best homothety (scale and translation) of base onto body.

    The residual is the maximum absolute misfit of the support values over
    the sampled directions; it vanishes exactly when K = scale * K0 + shift.
    """
    rng = as_rng(seed)
    dirs = haar_directions(body.dim, samples, rng)
    h_body = body.jets(dirs)[0]
    h_base = base.jets(dirs)[0]
    design = np.column_stack([h_base, dirs])
    coef, *_ = np.linalg.lstsq(design, h_body, rcond=None)
    residual = float(np.abs(design @ coef - h_body).max())
    return HomothetyFit(float(coef[0]), coef[1:], residual)
