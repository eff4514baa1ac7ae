"""Projections of convex bodies onto subspaces and projection functions.

A projection K|U onto a k-dimensional subspace U with orthonormal frame F
has support function w -> h_K(F w) on R^k; jets follow by the chain rule.
The k-dimensional volume of a smooth projected body is recovered from its
support jet by

    V_k = (1/k) * integral over S^{k-1} of h * det(tangential Hessian),

evaluated with a trapezoid rule on the circle for k = 2 (spectrally exact
for smooth bodies), a Gauss-Legendre x uniform-azimuth product rule for
k = 3, and seeded quasi-Monte Carlo for k >= 4.  For k = 1 the sphere is
{+1, -1} and the formula gives the width h(1) + h(-1) of the segment.

The quasi-Monte Carlo rule evaluates antithetic pairs: a scrambled Sobol
grid G on the upper hemisphere together with -G, each node at half weight.
The odd part of h * det cancels within each pair, so a translated body
(whose support gains the odd term <t, u>) has no bias, and for an even
integrand the estimate equals the hemisphere estimate.  Its standard error
comes from the spread of the pair means.

Each volume is one batched evaluation: the jets of every node, their
tangent frames, the restricted Hessians B^T H B, a stacked determinant and a
weighted sum.  Shadow volumes over many frames and bodies share one
quadrature rule (quasi-Monte Carlo seed 0), so quadrature noise cancels in
volume ratios.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import gamma, pi

import numpy as np

from .body import ConvexBody
from .sampling import as_rng, haar_directions, hemisphere_grid, median
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


def random_subspace(n: int, k: int, seed) -> SubspaceFrame:
    """Haar-distributed k-frame in R^n: QR of a Gaussian matrix with the
    sign convention that makes the factorization (hence the draw) unique."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    rng = as_rng(seed)
    g = rng.standard_normal((n, k))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diag(r))[None, :]
    return SubspaceFrame(q)


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


def _surface_area(k: int) -> float:
    return 2.0 * pi ** (k / 2.0) / gamma(k / 2.0)


def _width_rule():
    # S^0 = {+1, -1} with counting measure; the 0 x 0 tangential determinant is 1
    return np.array([[1.0], [-1.0]]), np.ones(2)


def _circle_rule(nodes):
    nodes = 256 if nodes is None else int(nodes)
    if nodes < 8:
        raise ValueError("circle rule needs at least 8 nodes")
    theta = 2.0 * pi * np.arange(nodes) / nodes
    return np.column_stack([np.cos(theta), np.sin(theta)]), np.full(nodes, pi / nodes)


def _product_rule(nodes):
    nodes = 32 if nodes is None else int(nodes)
    if nodes < 4:
        raise ValueError("product rule needs at least 4 polar nodes")
    t, wt = np.polynomial.legendre.leggauss(nodes)
    n_az = 2 * nodes
    ct = np.repeat(t, n_az)
    st = np.sqrt(1.0 - ct * ct)
    phi = np.tile(2.0 * pi * np.arange(n_az) / n_az, nodes)
    dirs = np.column_stack([st * np.cos(phi), st * np.sin(phi), ct])
    return dirs, np.repeat(wt, n_az) * (2.0 * pi / n_az) / 3.0


def _qmc_rule(k, nodes, seed):
    if seed is None:
        raise ValueError("quasi-Monte Carlo volumes need an explicit seed")
    nodes = 4096 if nodes is None else int(nodes)
    if nodes < 16:
        raise ValueError("quasi-Monte Carlo needs at least 16 nodes")
    grid = hemisphere_grid(k, nodes, seed)
    # antithetic pairs: rows i and nodes + i are u and -u
    return np.vstack([grid, -grid]), np.full(2 * nodes, _surface_area(k) / (2 * k * nodes))


def _quadrature_rule(k: int, nodes, seed):
    """Directions and weights for V_k; each rule's weights include the 1/k."""
    if k == 1:
        return _width_rule()
    if k == 2:
        return _circle_rule(nodes)
    if k == 3:
        return _product_rule(nodes)
    return _qmc_rule(k, nodes, seed)


def _densities(kbody, dirs, frames) -> np.ndarray:
    """h * det of the tangential Hessian at every direction, from one batched jet.

    ``frames`` is ``tangent_frames(dirs)``; callers build it once per rule.
    """
    values, _, hess = kbody.jets(dirs)
    return values * np.linalg.det(_restrict_all(hess, frames))


def volume_from_support(
    kbody,
    nodes: int | None = None,
    seed=None,
    return_stderr: bool = False,
):
    """k-dimensional volume of a smooth k-dimensional body from support jets.

    nodes means: circle nodes for k = 2 (default 256, minimum 8), polar
    Gauss-Legendre nodes for k = 3 with 2*nodes uniform azimuths (default
    32, minimum 4), and quasi-Monte Carlo antithetic pairs for k >= 4
    (default 4096 pairs, minimum 16, ``seed`` required; pass
    ``return_stderr=True`` to also get the standard error of the estimate).
    nodes is ignored for k = 1.
    """
    k = kbody.dim
    dirs, weights = _quadrature_rule(k, nodes, seed)
    vals = _densities(kbody, dirs, tangent_frames(dirs))
    vol = float(np.sum(weights * vals))
    if not return_stderr:
        return vol
    if k <= 3:
        return vol, 0.0  # deterministic rules carry no sampling error
    pair_means = vals.reshape(2, -1).mean(axis=0)
    return vol, _surface_area(k) * float(pair_means.std(ddof=1)) / np.sqrt(pair_means.size) / k


def _shadow_volumes(bodies, k: int, num_frames: int, seed, nodes):
    """Haar k-frames drawn from child seeds of ``seed``, and the shadow volumes.

    Returns the frames and a (num_frames, len(bodies)) array of V_k.  The
    quadrature rule is built once (quasi-Monte Carlo seed 0 for k >= 4) and
    every body and frame is integrated on it, so noise cancels in ratios.
    """
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    children = ss.spawn(num_frames)
    frames = [random_subspace(bodies[0].dim, k, np.random.default_rng(c)) for c in children]
    dirs, weights = _quadrature_rule(k, nodes, seed=0)
    tangents = tangent_frames(dirs)
    vols = np.empty((num_frames, len(bodies)))
    for row, frame in zip(vols, frames):
        for i, body in enumerate(bodies):
            row[i] = np.sum(weights * _densities(project(body, frame), dirs, tangents))
    return frames, vols


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
    seed: object


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
    return ProportionalityReport(alpha, ratios, max_rel, excluded, seed)


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
