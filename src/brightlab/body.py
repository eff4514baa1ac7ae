"""Convex bodies described by their support functions.

Each family evaluates the degree-1 homogeneous support function h(x) on
R^n \\ {0} together with its analytic gradient and Hessian (the "jet").
The Hessian of a 1-homogeneous function annihilates the base direction, so
its restriction to the tangent hyperplane u^perp carries the principal radii
of curvature; ``validate`` samples those radii to certify smoothness and
strict convexity.

Jets have one path, and this module owns its contract.  Each family
defines ``jets(U, T)``: for an (m, n) array of unit directions and a
required (m, n, j) stack of frames T (``tangent_frames(U)`` spans each
u^perp) it returns (values (m,), gradients (m, n), Hessians restricted to
the frames T^T H T (m, j, j)), restricting each of its terms, so no n x n
Hessian is built unless asked for.  Identity frames give the full (m, n, n)
Hessians; frames with no column (j = 0) give the values and gradients only.
A row that is not unit length, or whose length is not the body's dimension,
is refused by ``_unit_rows`` in the family that evaluates h; composites hand
their rows on unchanged.
``ConvexBody.jet(u)`` is ``jets`` at one unit direction in the identity
frame.  Each family also keeps its scalar ``support(x)``, the
independent oracle that ``finite_difference_jet`` differentiates; a point
whose length is not the body's dimension is refused like a row, the
composites calling their base or parts before their own term.
``Revolution`` calls its profile g and its derivatives dg and ddg, all
required, on arrays of t, so they must accept numpy arrays.

Bodies are immutable value objects; jets are recomputed on demand, never
cached.  ``FAMILIES`` maps each document family name to its class, and
``body_from_dict`` builds those families from a {"family", "params"} JSON
document whose params are the class fields.  ``Revolution`` takes a
user-supplied profile and has no document.
"""

from __future__ import annotations

import sys
from dataclasses import MISSING, dataclass, fields
from functools import partial
from math import prod
from typing import Callable

import numpy as np

from .sampling import haar_directions

__all__ = [
    "SupportJet",
    "ValidationReport",
    "ConvexBody",
    "FAMILIES",
    "Ball",
    "Ellipsoid",
    "Spheroid",
    "RadialProfile",
    "Revolution",
    "HarmonicPerturbation",
    "MinkowskiSum",
    "Homothet",
    "Erosion",
    "finite_difference_jet",
    "validate",
    "body_from_dict",
    "tangent_frames",
]


def _unit_rows(u, n: int | None = None) -> np.ndarray:
    """u as an (m, n) float array; refuses a row not of unit length or, given n, not of length n."""
    u = np.asarray(u, dtype=float)
    if u.ndim != 2:
        raise ValueError("expected an (m, n) array of directions")
    if n is not None and u.shape[1] != n:
        raise ValueError(f"expected directions of length {n}, got {u.shape[1]}")
    nrm = np.sqrt(np.einsum("ij,ij->i", u, u))
    bad = np.flatnonzero(np.abs(nrm - 1.0) > 1e-12)
    if bad.size:
        raise ValueError(f"direction must be unit length, |u[{bad[0]}]| = {float(nrm[bad[0]])!r}")
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


def _symmetrized(m: np.ndarray) -> np.ndarray:
    """(M + M^T) / 2 for each slice of an (m, d, d) stack."""
    return 0.5 * (m + np.swapaxes(m, 1, 2))


def _as_point(x, n: int | None = None) -> np.ndarray:
    """x as a vector; refuses the origin or, given n, a length other than n."""
    x = np.asarray(x)
    if x.ndim != 1:
        raise ValueError("expected a vector")
    if n is not None and x.shape[0] != n:
        raise ValueError(f"expected a point of length {n}, got {x.shape[0]}")
    if float(np.sqrt(x @ x)) == 0.0:
        raise ValueError("support functions are undefined at the origin")
    return x


def _as_direction(u) -> np.ndarray:
    """One unit direction, refused as ``_unit_rows`` refuses a row."""
    return _unit_rows(np.asarray(u, dtype=float)[None])[0]


def _in_frames(v: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """T^T v at each row v and frame T, (m, j)."""
    return np.einsum("mnj,mn->mj", frames, v)


def _restricted(frames: np.ndarray, a=None) -> np.ndarray:
    """T^T A T at each frame T, (m, j, j); A = I when None."""
    rows = np.swapaxes(frames, 1, 2).copy()  # contiguous: stacked matmuls on views are slower
    if a is not None:
        rows = (rows.reshape(-1, frames.shape[1]) @ a).reshape(rows.shape)  # T^T A
    return rows @ frames


def _tangential(u: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """T^T (I - u u^T) T at each row u: the Hessian of |x| at the unit u, restricted."""
    p = _in_frames(u, frames)
    return _restricted(frames) - p[:, :, None] * p[:, None, :]


def _unitize(v, name: str) -> tuple[float, ...]:
    v = np.asarray(v, dtype=float)
    nrm = float(np.linalg.norm(v))
    if nrm < 1e-12:
        raise ValueError(f"{name} must be a nonzero vector")
    return tuple(v / nrm)


@dataclass(frozen=True)
class SupportJet:
    """Value, gradient, and Hessian of a support function at a direction.

    The gradient is the boundary point with outer normal u; the Hessian is
    symmetric and satisfies hessian @ u = 0 and <gradient, u> = value.
    """

    value: float
    gradient: np.ndarray
    hessian: np.ndarray


class ConvexBody:
    """Shared behavior of the support-function families: ``jet`` wraps ``jets``.

    A body is its support function and nothing more: no family declares a
    symmetry.  A check that needs one measures it from the jets, as
    ``weingarten.revolution_eigenstructure`` does for an axis of revolution.
    """

    dim: int  # ambient dimension n

    def support(self, x) -> float:
        raise NotImplementedError

    def jet(self, u) -> SupportJet:
        """``jets`` at the single unit direction u in the identity frame: the full n x n Hessian."""
        values, grads, hess = self.jets(_as_direction(u)[None], np.eye(self.dim)[None])
        return SupportJet(float(values[0]), grads[0], hess[0])

    def jets(self, u, frames) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        raise NotImplementedError


@dataclass(frozen=True)
class Ball(ConvexBody):
    """h(x) = r|x|; every radius of curvature equals r; width = 2r."""

    dim: int
    radius: float

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("dimension must be at least 2")
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    def support(self, x) -> float:
        x = _as_point(x, self.dim)
        return self.radius * np.sqrt(x @ x)

    def jets(self, u, frames):
        u = _unit_rows(u, self.dim)
        r = self.radius
        return np.full(len(u), float(r)), r * u, r * _tangential(u, frames)


@dataclass(frozen=True)
class Ellipsoid(ConvexBody):
    """h(x) = sqrt(x'Ax), A positive definite; width(u) = 2 sqrt(u'Au).

    The tangential Hessian carries the curvature.  The diagonal case
    A = diag(a_1^2, ..., a_n^2) is the ellipsoid with semiaxes a_i.
    """

    shape: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        a = np.asarray(self.shape, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("shape matrix must be square")
        if a.shape[0] < 2:
            raise ValueError("dimension must be at least 2")
        if np.abs(a - a.T).max() > 1e-10 * max(1.0, np.abs(a).max()):
            raise ValueError("shape matrix must be symmetric")
        a = 0.5 * (a + a.T)
        if np.linalg.eigvalsh(a).min() <= 0:
            raise ValueError("shape matrix must be positive definite")
        object.__setattr__(self, "shape", tuple(map(tuple, a)))

    @property
    def matrix(self) -> np.ndarray:
        return np.asarray(self.shape, dtype=float)

    @property
    def dim(self) -> int:
        return len(self.shape)

    def support(self, x) -> float:
        x = _as_point(x, self.dim)
        return np.sqrt(x @ self.matrix @ x)

    def jets(self, u, frames):
        u = _unit_rows(u, self.dim)
        a = self.matrix
        au = u @ a  # rows (A u)^T, A is symmetric
        h = np.sqrt(np.einsum("ij,ij->i", u, au))
        hh = h[:, None, None]
        p = _in_frames(au, frames)
        hess = _restricted(frames, a) / hh - p[:, :, None] * p[:, None, :] / hh**3
        return h, au / h[:, None], _symmetrized(hess)


def _revolution_support(x, axis, g):
    rho = np.sqrt(x @ x)
    t = (x @ axis) / rho
    return rho * g(t)


def _revolution_jets(u, frames, axis, g, dg, ddg):
    """Jets of |x| g(<x,e>/|x|) at the rows of u; g, dg and ddg are called on arrays."""
    t = np.clip(u @ axis, -1.0, 1.0)
    gv, g1, g2 = (np.broadcast_to(np.asarray(f(t), dtype=float), t.shape) for f in (g, dg, ddg))
    c = gv - t * g1
    grad = g1[:, None] * axis + c[:, None] * u
    p = _in_frames(axis - t[:, None] * u, frames)
    hess = g2[:, None, None] * (p[:, :, None] * p[:, None, :])
    return gv, grad, hess + c[:, None, None] * _tangential(u, frames)


@dataclass(frozen=True)
class Spheroid(ConvexBody):
    """Revolution ellipsoid; pole radii a^2/b (umbilic), equator (a, ..., a, b^2/a).

    The equatorial semiaxis is a and the polar semiaxis is b along the unit
    axis e, so the shape matrix is A = a^2 I + (b^2 - a^2) e e^T and the
    support profile is g(t) = sqrt(a^2 + (b^2 - a^2) t^2) in t = <u, e>; the
    listed values are the principal radii of curvature.
    """

    axis: tuple[float, ...]
    equatorial: float
    polar: float

    def __post_init__(self):
        if self.equatorial <= 0 or self.polar <= 0:
            raise ValueError("semiaxes must be positive")
        object.__setattr__(self, "axis", _unitize(self.axis, "axis"))
        if len(self.axis) < 2:
            raise ValueError("dimension must be at least 2")

    @property
    def dim(self) -> int:
        return len(self.axis)

    @property
    def axis_vector(self) -> np.ndarray:
        return np.asarray(self.axis, dtype=float)

    @property
    def matrix(self) -> np.ndarray:
        e = self.axis_vector
        a2 = self.equatorial**2
        return a2 * np.eye(self.dim) + (self.polar**2 - a2) * np.outer(e, e)

    # the ellipsoid algebra reads only ``self.matrix``
    support, jets = Ellipsoid.support, Ellipsoid.jets


@dataclass(frozen=True)
class RadialProfile:
    """Support profile g with its first two derivatives dg and ddg, all required."""

    g: Callable[[float], float]
    dg: Callable[[float], float]
    ddg: Callable[[float], float]


@dataclass(frozen=True)
class Revolution(ConvexBody):
    """Body of revolution h(x) = |x| g(<x,e>/|x|) about the unit axis e."""

    axis: tuple[float, ...]
    profile: RadialProfile

    def __post_init__(self):
        object.__setattr__(self, "axis", _unitize(self.axis, "axis"))
        if len(self.axis) < 2:
            raise ValueError("dimension must be at least 2")

    @property
    def dim(self) -> int:
        return len(self.axis)

    @property
    def axis_vector(self) -> np.ndarray:
        return np.asarray(self.axis, dtype=float)

    def support(self, x) -> float:
        x = _as_point(x, self.dim)
        return _revolution_support(x, self.axis_vector, self.profile.g)

    def jets(self, u, frames):
        p = self.profile
        return _revolution_jets(_unit_rows(u, self.dim), frames, self.axis_vector, p.g, p.dg, p.ddg)


def _odd_poly_coeffs(odd_coeffs) -> np.ndarray:
    c = np.asarray(odd_coeffs, dtype=float)
    if c.ndim != 1 or not 1 <= c.size <= 4:
        raise ValueError("odd_coeffs lists the coefficients of t, t^3, t^5, t^7")
    return c


def _odd_poly(c, t, d: int = 0):
    """The d-th derivative of sum_i c_i t^(2i+1): c_i p (p-1) ... t^(p-d), p = 2i+1."""
    powers = np.arange(len(c)) * 2 + 1
    terms = (prod((ci, *range(p, p - d, -1))) * t ** (p - d) for ci, p in zip(c, powers) if p >= d)
    return sum(terms)


@dataclass(frozen=True)
class HarmonicPerturbation(ConvexBody):
    """h + eps |x| p(<x,e>/|x|) for an odd polynomial p; widths are unchanged.

    ``odd_coeffs`` are the coefficients of t, t^3, t^5, t^7 (degree <= 7).
    Oddness makes the perturbation cancel from the width, so perturbing a
    ball keeps the width constant; convexity is not checked here, run
    ``validate`` to certify the perturbed body.
    """

    base: ConvexBody
    axis: tuple[float, ...]
    odd_coeffs: tuple[float, ...]
    epsilon: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "axis", _unitize(self.axis, "axis"))
        c = _odd_poly_coeffs(self.odd_coeffs)
        object.__setattr__(self, "odd_coeffs", tuple(c))
        if len(self.axis) != self.base.dim:
            raise ValueError("axis dimension must match the base body")

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def axis_vector(self) -> np.ndarray:
        return np.asarray(self.axis, dtype=float)

    def support(self, x) -> float:
        value = self.base.support(x)  # the base refuses a point of the wrong length
        profile = partial(_odd_poly, self.odd_coeffs)
        return value + self.epsilon * _revolution_support(_as_point(x), self.axis_vector, profile)

    def jets(self, u, frames):
        base = self.base.jets(u, frames)
        profile = (partial(_odd_poly, self.odd_coeffs, d=d) for d in range(3))
        pert = _revolution_jets(np.asarray(u, dtype=float), frames, self.axis_vector, *profile)
        return tuple(b + self.epsilon * p for b, p in zip(base, pert))


@dataclass(frozen=True)
class MinkowskiSum(ConvexBody):
    """Minkowski sum; support functions add, so radii of curvature add at each normal."""

    parts: tuple[ConvexBody, ...]

    def __post_init__(self):
        parts = tuple(self.parts)
        if not parts:
            raise ValueError("need at least one summand")
        if len({p.dim for p in parts}) != 1:
            raise ValueError("summands must share the ambient dimension")
        object.__setattr__(self, "parts", parts)

    @property
    def dim(self) -> int:
        return self.parts[0].dim

    def support(self, x) -> float:
        x = _as_point(x)
        return sum(p.support(x) for p in self.parts)

    def jets(self, u, frames):
        return tuple(sum(parts) for parts in zip(*(p.jets(u, frames) for p in self.parts)))


@dataclass(frozen=True)
class Homothet(ConvexBody):
    """scale * K + shift: h = scale * h_K + <shift, x>; radii and widths scale too."""

    base: ConvexBody
    scale: float
    shift: tuple[float, ...] = ()

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        shift = np.asarray(self.shift if len(self.shift) else np.zeros(self.base.dim), float)
        if shift.shape != (self.base.dim,):
            raise ValueError("shift dimension must match the base body")
        object.__setattr__(self, "shift", tuple(shift))

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def shift_vector(self) -> np.ndarray:
        return np.asarray(self.shift, dtype=float)

    def support(self, x) -> float:
        x = _as_point(x)
        return self.scale * self.base.support(x) + x @ self.shift_vector

    def jets(self, u, frames):
        values, grads, hess = self.base.jets(u, frames)
        t = self.shift_vector
        return self.scale * values + u @ t, self.scale * grads + t, self.scale * hess


@dataclass(frozen=True)
class Erosion(ConvexBody):
    """Inner parallel body: h = h_K - r|x|, so every radius of curvature drops by r.

    Valid as long as every principal radius of curvature of the base exceeds
    r (a ball of radius r then rolls freely inside the base body); otherwise
    ``validate`` reports nonpositive radii.
    """

    base: ConvexBody
    radius: float

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("erosion radius must be nonnegative")

    @property
    def dim(self) -> int:
        return self.base.dim

    def support(self, x) -> float:
        x = _as_point(x)
        return self.base.support(x) - self.radius * np.sqrt(x @ x)

    def jets(self, u, frames):
        values, grads, hess = self.base.jets(u, frames)
        u, r = np.asarray(u, dtype=float), self.radius
        return values - r, grads - r * u, hess - r * _tangential(u, frames)


# ---------------------------------------------------------------------------
# finite differences and validation


def finite_difference_jet(body, u) -> SupportJet:
    """Central-difference jet of the support function, an analytic-free oracle.

    Differences of step 1e-5 are taken on the homogeneous extension at the
    unit direction u.  The stencil is evaluated in extended precision
    (``np.longdouble``) so the second-difference roundoff stays far below
    the truncation error.  The Hessian is symmetrized entrywise.
    """
    dtype = np.longdouble
    u = np.asarray(_as_direction(u), dtype=dtype)
    n = u.size
    h = dtype(1e-5)

    def f(x):
        return body.support(x)

    value = f(u)
    grad = np.empty(n, dtype=dtype)
    hess = np.empty((n, n), dtype=dtype)
    eye = np.eye(n, dtype=dtype)
    for i in range(n):
        ei = eye[i]
        grad[i] = (f(u + h * ei) - f(u - h * ei)) / (2 * h)
        hess[i, i] = (f(u + h * ei) - 2 * value + f(u - h * ei)) / h**2
    for i in range(n):
        for j in range(i + 1, n):
            ei, ej = eye[i], eye[j]
            hij = (
                f(u + h * ei + h * ej)
                - f(u + h * ei - h * ej)
                - f(u - h * ei + h * ej)
                + f(u - h * ei - h * ej)
            ) / (4 * h**2)
            hess[i, j] = hij
            hess[j, i] = hij
    hess = 0.5 * (hess + hess.T)
    return SupportJet(
        float(value),
        np.asarray(grad, dtype=float),
        np.asarray(hess, dtype=float),
    )


@dataclass(frozen=True)
class ValidationReport:
    """Sampled curvature certificate; see ``validate``."""

    min_radius: float
    max_radius: float
    argmin_direction: np.ndarray
    is_c2_plus: bool


def validate(body, samples: int = 128, seed=0) -> ValidationReport:
    """Sample principal radii of curvature over Haar-random directions.

    Returns the smallest and largest eigenvalue of the tangential Hessian
    seen over the sample and whether all were strictly positive (a sampled,
    not exhaustive, certificate that the body is smooth and strictly convex).
    """
    dirs = haar_directions(body.dim, samples, seed)
    radii = np.linalg.eigvalsh(body.jets(dirs, tangent_frames(dirs))[2])
    first = int(np.argmin(radii[:, 0]))  # the first of tied minima
    min_radius = float(radii[first, 0])
    return ValidationReport(
        min_radius=min_radius,
        max_radius=float(radii[:, -1].max()),
        argmin_direction=dirs[first],
        is_c2_plus=bool(min_radius > 0.0),
    )


# ---------------------------------------------------------------------------
# body documents

# document family name -> class; the document params are the class fields
FAMILIES = {
    "ball": Ball,
    "ellipsoid": Ellipsoid,
    "spheroid": Spheroid,
    "harmonic_perturbation": HarmonicPerturbation,
    "minkowski_sum": MinkowskiSum,
    "homothet": Homothet,
    "erosion": Erosion,
}


def _is_number(value) -> bool:
    """A finite int or float; bools are refused."""
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    return real and abs(value) <= sys.float_info.max


def _is_vector(value) -> bool:
    return isinstance(value, list) and all(map(_is_number, value))


def _is_matrix(value) -> bool:
    """A list of equally long lists of finite numbers."""
    rows_ok = isinstance(value, list) and all(map(_is_vector, value))
    return rows_ok and len({len(row) for row in value}) <= 1


def _from_json(value):
    """Document value -> field value: body documents, lists to tuples."""
    if isinstance(value, dict):
        return body_from_dict(value)
    return tuple(map(_from_json, value)) if isinstance(value, list) else value


# field annotation -> (what its document value must be, the test of that, the conversion)
_KINDS = {
    "int": ("an integer", lambda v: _is_number(v) and isinstance(v, (int, np.integer)), int),
    "float": ("a finite number", _is_number, float),
    "tuple[float, ...]": ("a list of finite numbers", _is_vector, _from_json),
    "tuple[tuple[float, ...], ...]": (
        "a list of equally long lists of finite numbers",
        _is_matrix,
        _from_json,
    ),
    "ConvexBody": ("a body document", lambda v: isinstance(v, dict), _from_json),
    "tuple[ConvexBody, ...]": (
        "a list of body documents",
        lambda v: isinstance(v, list) and all(isinstance(d, dict) for d in v),
        _from_json,
    ),
}


def body_from_dict(doc: dict):
    """The body of a {"family", "params"} document; raises ValueError on malformed documents.

    Fields with a default (``epsilon``, ``shift``) are optional; every other
    field is required, and a key that is not a field is refused.  A value of
    the wrong kind for its field (see ``_KINDS``) is refused, not cast.
    """
    if not isinstance(doc, dict) or "family" not in doc or not isinstance(doc.get("params"), dict):
        raise ValueError('expected {"family": ..., "params": {...}}')
    family, params = doc["family"], doc["params"]
    cls = FAMILIES.get(family) if isinstance(family, str) else None
    if cls is None:
        raise ValueError(f"unknown body family {family!r}")
    spec = {f.name: f for f in fields(cls)}
    unknown = sorted(set(params) - set(spec))
    missing = [name for name, f in spec.items() if f.default is MISSING and name not in params]
    if unknown:
        raise ValueError(f"unknown parameters {unknown} for family {family!r}")
    if missing:
        raise ValueError(f"missing parameters {missing} for family {family!r}")
    kwargs = {}
    for name, value in params.items():
        expected, accepts, convert = _KINDS[spec[name].type]
        if not accepts(value):
            raise ValueError(f"{family!r} parameter {name!r} must be {expected}, got {value!r}")
        kwargs[name] = convert(value)
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ValueError(f"malformed parameters for family {family!r}: {exc}") from exc
