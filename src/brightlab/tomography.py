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

Each rule and the tangent frames of its directions are built once per
process and held read-only; at most RULE_CACHE = 8 rules are kept.  Shadow
volumes are evaluated in batches of frames F on one rule: each rule
direction w lifts to F w on the source body and each tangent frame B to F B,
so one ``jets(F w, F B)`` call per body per batch of about JET_BATCH = 2^11
directions gives the (k-1) x (k-1) blocks (F B)^T H (F B) of the source
Hessians H, which each family restricts term by term without forming H;
then a stacked determinant and a weighted sum per frame.
``volume_from_support`` is the same kernel on one frame (the identity for a
native body), and ``ProjectedBody.jets(w, T)`` is ``source.jets(w F^T, F T)``.
``shadow_volumes`` is the one sampler of projection functions: frames drawn
from child seeds, every body on each.  ``proportionality_test`` is the one
statistic on them.  The kernel refuses a volume that is not positive, which
no shadow of a C^2_+ body has.
As for every body, T is required: identity frames give the full k x k
Hessians and frames with no column only the values and gradients, which is
all ``homothety_fit`` reads.  The rows and frames are checked and built by
``body``, which owns the jets contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gamma, pi, sqrt

import numpy as np

from .body import ConvexBody, _as_point, tangent_frames
from .multilinear import det
from .sampling import as_rng, haar_directions, median

__all__ = [
    "SubspaceFrame",
    "ProjectedBody",
    "ProportionalityReport",
    "HomothetyFit",
    "random_subspace",
    "project",
    "volume_from_support",
    "shadow_volumes",
    "proportionality_test",
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
        return self.source.support(self.frame.columns @ _as_point(w, self.dim))

    def jets(self, w, frames):
        """Chain rule: the source jets at the rows w F^T, which it checks (F is orthonormal), frames F T."""
        f = self.frame.columns
        values, grads, hess = self.source.jets(w @ f.T, f @ frames)
        return values, grads @ f, hess


def project(body, frame: SubspaceFrame) -> ProjectedBody:
    """Orthogonal projection of a body onto the subspace spanned by ``frame``."""
    return ProjectedBody(body, frame)


# ---------------------------------------------------------------------------
# volumes

# rule directions per ``body.jets`` call when shadow volumes are batched over frames
JET_BATCH = 2**11
# sphere rules kept at once; the largest default rule (k = 4, 8,192 directions) is about 1 MB
RULE_CACHE = 8


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
    """Directions, weights and tangent frames for V_k; the weights include the 1/k.

    This is the one place a rule is sized, and ``nodes`` None is each
    grade's own default.  ``nodes`` is the circle's node count at k = 2
    (default 256, at least 8) and the polar node count p at k = 3 (default
    32, at least 4).  At k >= 4 it is a budget (default 4096): p is the
    largest integer with p^(k-1) <= nodes, at least 4, so nodes >= 4^(k-1).
    Above k = 2 the circle has 2p nodes, so a rule has at most 2 * nodes
    directions.  The rule at k = 1 is {+1, -1}, so there ``nodes`` must be
    None.  The rule itself comes from ``_cached_rule`` on the resolved sizes.
    """
    if k == 1:
        if nodes is not None:
            raise ValueError(f"the rule at k = 1 is {{+1, -1}} and takes no nodes, got {nodes}")
        return _cached_rule(1, 0, 0)
    if k == 2:
        circle = 256 if nodes is None else nodes
        if circle < 8:
            raise ValueError(f"the circle rule at k = 2 needs nodes >= 8, got {circle}")
        return _cached_rule(2, 0, circle)
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
    return _cached_rule(k, polar, 2 * polar)


@lru_cache(maxsize=RULE_CACHE)
def _cached_rule(k: int, polar: int, circle: int):
    """The m directions on S^{k-1}, their weights over k, and their tangent
    frames B as one k x m(k-1) matrix [B_1 ... B_m], so one matmul by a frame
    F lifts every B.  Cached per (k, polar, circle), read-only."""
    dirs, weights = _sphere_rule(k, polar, circle)
    weights = weights / k
    row = tangent_frames(dirs).transpose(1, 0, 2).reshape(k, len(dirs) * (k - 1))
    dirs.flags.writeable = weights.flags.writeable = row.flags.writeable = False
    return dirs, weights, row


def _lifted_volumes(bodies, columns, rule) -> np.ndarray:
    """V_k of the shadows of each body on each frame F of an (R, n, k) stack, (R, len(bodies)).

    ``rule`` is ``_quadrature_rule``'s (dirs, weights, row), built once per
    process and held read-only (at most ``RULE_CACHE`` rules are kept).  The
    rule's directions lift to the rows of w F^T and their tangent frames B,
    the blocks of ``row``, to F B, and each body's jets are restricted to
    F B: the (k-1) x (k-1) blocks (F B)^T H (F B), no n x n or k x k
    Hessian.  Frames go in batches of about ``JET_BATCH`` directions, lifted
    once for every body, one ``body.jets`` call per body and batch; at
    k = 1 F B has no column and ``det`` gives 1.  A volume that is not
    positive (NaN too) is refused, naming its body's index in ``bodies``,
    its frame's index and its value.
    """
    dirs, weights, row = rule
    m, (n, k) = len(dirs), columns.shape[1:]
    step = max(1, JET_BATCH // m)
    vols = np.empty((len(columns), len(bodies)))
    for start in range(0, len(columns), step):
        f = columns[start : start + step]
        lifted = (f @ row).reshape(len(f), n, m, k - 1).transpose(0, 2, 1, 3)
        lifted = lifted.reshape(len(f) * m, n, k - 1)
        u = (dirs @ np.swapaxes(f, 1, 2)).reshape(-1, n)
        for i, body in enumerate(bodies):
            values, _, hess = body.jets(u, lifted)
            dens = (values * det(hess)).reshape(len(f), m)
            vols[start : start + step, i] = np.sum(weights * dens, axis=1)
    frame, i = np.unravel_index(np.argmin(vols), vols.shape)  # argmin finds a NaN first
    if not vols[frame, i] > 0:
        msg = "the shadow volume of body %d on frame %d is not positive: %.6e"
        raise ValueError(msg % (i, frame, vols[frame, i]))
    return vols


def volume_from_support(kbody, nodes: int | None = None) -> float:
    """k-dimensional volume of a smooth k-dimensional body from support jets, on
    the rule that ``_quadrature_rule(k, nodes)`` sizes (None: the grade's default)."""
    rule = _quadrature_rule(kbody.dim, nodes)
    return float(_lifted_volumes([kbody], np.eye(kbody.dim)[None], rule)[0, 0])


def shadow_volumes(bodies, k: int, num_frames: int, seed, nodes: int | None = None):
    """Haar k-frames drawn from child seeds of ``seed``, and the shadow volumes.

    Returns the (num_frames, n, k) stack of frame columns and a
    (num_frames, len(bodies)) array of V_k: every body is integrated on the
    same frames and the same cached rule by ``_lifted_volumes``.
    """
    if not bodies:
        raise ValueError("shadow_volumes needs at least one body")
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    columns = _haar_frames(bodies[0].dim, k, map(np.random.default_rng, ss.spawn(num_frames)))
    return columns, _lifted_volumes(bodies, columns, _quadrature_rule(k, nodes))


@dataclass(frozen=True)
class ProportionalityReport:
    """Per-subspace volume ratios against the median ratio."""

    constant: float
    ratios: np.ndarray
    max_rel_deviation: float


def proportionality_test(
    body, base, k: int, num_frames: int, seed, nodes: int | None = None
) -> ProportionalityReport:
    """Test V_k(K|U) = alpha V_k(K0|U) over Haar-random k-subspaces.

    alpha is the median ratio over every frame; a frame on which either
    body's shadow volume is not positive is refused by ``shadow_volumes``.
    """
    vb, v0 = shadow_volumes([body, base], k, num_frames, seed, nodes)[1].T
    ratios = vb / v0
    alpha = median(ratios)
    max_rel = float(np.abs(ratios / alpha - 1.0).max())
    return ProportionalityReport(alpha, ratios, max_rel)


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
    values_only = np.empty((len(dirs), body.dim, 0))  # no frame column: no Hessian
    h_body = body.jets(dirs, values_only)[0]
    h_base = base.jets(dirs, values_only)[0]
    design = np.column_stack([h_base, dirs])
    coef, *_ = np.linalg.lstsq(design, h_body, rcond=None)
    residual = float(np.abs(design @ coef - h_body).max())
    return HomothetyFit(float(coef[0]), coef[1:], residual)
