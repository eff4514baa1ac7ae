"""Exterior powers of linear maps and symmetric forms on k-vectors.

The k-th exterior power of an m x m matrix A is represented concretely as the
C(m,k) x C(m,k) matrix of k x k minors over the lexicographically ordered
basis e_I = e_{i_1} ^ ... ^ e_{i_k}, i_1 < ... < i_k; ``compound`` expands the
minors of an (..., m, m) stack along first rows, grade by grade, and ``det``
(its top grade) serves every determinant in the package.  On top of that sit:

* decomposable k-vectors and their Gram-determinant inner ``KVector.inner``,
* symmetric bilinear forms on k-vectors, their first-Bianchi defect, and a
  polarization check that decides entrywise equality of two Bianchi forms
  from their values on decomposables alone,
* the alternating square form (the coefficient of the top basis vector in
  xi ^ xi), which vanishes on all decomposables yet is a nonzero form when
  the grade is even, and
* simultaneous diagonalization of two self-adjoint maps whose exterior
  powers sum to a multiple of the identity.

Everything is desk scale (m <= 10 or so); clarity beats asymptotics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import InternalInconsistencyError, PreconditionError

__all__ = [
    "KVector",
    "SymKForm",
    "CommonEigenbasis",
    "PolarizationResult",
    "compound",
    "det",
    "decompose",
    "bianchi_defect",
    "polarization_check",
    "square_form_matrix",
    "common_eigenbasis",
]


# ---------------------------------------------------------------------------
# multi-indices


@lru_cache(maxsize=None)
def _index_tuples(m: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All strictly increasing k-tuples over {0, ..., m-1}, lex order."""
    return tuple(combinations(range(m), k))


@lru_cache(maxsize=None)
def _index_array(m: int, k: int) -> np.ndarray:
    arr = np.array(_index_tuples(m, k), dtype=np.intp).reshape(-1, k)
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=None)
def _rank_lookup(m: int, k: int) -> dict[tuple[int, ...], int]:
    return {t: r for r, t in enumerate(_index_tuples(m, k))}


def _check_grade(m: int, k: int) -> None:
    if not (isinstance(m, (int, np.integer)) and isinstance(k, (int, np.integer))):
        raise ValueError("m and k must be integers")
    if not 1 <= k <= m:
        raise ValueError(f"grade k={k} must satisfy 1 <= k <= m={m}")


# ---------------------------------------------------------------------------
# k-vectors


@dataclass(frozen=True)
class KVector:
    """Coordinates of a k-vector over the lexicographic basis e_I."""

    coords: np.ndarray
    m: int
    k: int

    def __post_init__(self):
        _check_grade(self.m, self.k)
        coords = np.asarray(self.coords, dtype=float)
        expected = len(_index_tuples(self.m, self.k))
        if coords.shape != (expected,):
            raise ValueError(f"expected {expected} coordinates, got {coords.shape}")
        object.__setattr__(self, "coords", coords)

    @classmethod
    def basis(cls, m: int, k: int, entries: tuple[int, ...]) -> "KVector":
        """The basis k-vector e_I for I = ``entries``, k strictly increasing 1-based
        entries in {1, ..., m}; anything else is a ValueError."""
        _check_grade(m, k)
        entries = tuple(entries)
        if len(entries) != k:
            raise ValueError(f"a basis {k}-vector needs {k} entries, got {entries}")
        rank = _rank_lookup(m, k).get(tuple(e - 1 for e in entries))
        if rank is None:
            raise ValueError(f"entries {entries} must be strictly increasing in {{1, ..., {m}}}")
        coords = np.zeros(len(_index_tuples(m, k)))
        coords[rank] = 1.0
        return cls(coords, m, k)

    def inner(self, other: "KVector") -> float:
        if (self.m, self.k) != (other.m, other.k):
            raise ValueError("k-vectors live in different spaces")
        return float(self.coords @ other.coords)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coords))


def _vector_stack(vectors, expected_len: int | None = None) -> np.ndarray:
    arr = np.atleast_2d(np.asarray(vectors, dtype=float))
    if arr.ndim != 2:
        raise ValueError("expected a sequence of vectors")
    if expected_len is not None and arr.shape[0] != expected_len:
        raise ValueError(f"expected {expected_len} vectors, got {arr.shape[0]}")
    return arr


def decompose(vectors) -> KVector:
    """The decomposable k-vector u_1 ^ ... ^ u_k from a (k, m) stack of rows.

    Coordinate I is the k x k minor of the stack taken at columns I; linearly
    dependent input yields the zero k-vector.
    """
    u = _vector_stack(vectors)
    k, m = u.shape
    _check_grade(m, k)
    return KVector(det(np.swapaxes(u[:, _index_array(m, k)], 0, 1)), m, k)


# ---------------------------------------------------------------------------
# compound matrices


@lru_cache(maxsize=None)
def _laplace_plan(m: int, k: int) -> tuple:
    """Flat gather indices, a (j, rows * cols) pair per grade j = 2..k, for grade-k minors.

    Grade j keeps the minors at rows in the j-subsets of {k-j, ..., m-1} and any columns,
    row-major; term t of minor (I, J) is A[I[0], J[t]] times minor (I[1:], J - J[t]).
    """
    tables = []
    below = {(r,): r - k + 1 for r in range(k - 1, m)}
    for j in range(2, k + 1):
        rows = list(combinations(range(k - j, m), j))
        lower = _rank_lookup(m, j - 1)
        drop = [[lower[c[:t] + c[t + 1:]] for t in range(j)] for c in _index_tuples(m, j)]
        ia = np.array([r[0] for r in rows])[:, None, None] * m + _index_array(m, j)
        il = np.array([below[r[1:]] for r in rows])[:, None, None] * len(lower) + np.array(drop)
        tables.append((ia.transpose(2, 0, 1).reshape(j, -1), il.transpose(2, 0, 1).reshape(j, -1)))
        below = {r: i for i, r in enumerate(rows)}
    return tuple(tables)


def _laplace(a: np.ndarray, k: int) -> np.ndarray:
    """The (..., rows * cols) minors of ``_laplace_plan(m, k)``, on the transposed stack.

    Chunks hold about 2^14 terms: larger temporaries fault back in per call.
    """
    m = a.shape[-1]
    flat = a.reshape(-1, m * m).T.copy()
    plan = _laplace_plan(m, k)
    out = np.empty((len(_index_tuples(m, k)) ** 2, flat.shape[1]))
    step = max(1, 2**14 // max((ia.size for ia, _ in plan), default=1))
    for lo in range(0, flat.shape[1], step):
        cols = flat[:, lo:lo + step]
        minors = cols[(k - 1) * m:]
        for ia, il in plan:
            terms = cols[ia] * minors[il]
            minors = terms[0]
            for t in range(1, len(ia)):
                (np.subtract if t % 2 else np.add)(minors, terms[t], out=minors)
        out[:, lo:lo + step] = minors
    return out.T.reshape(a.shape[:-2] + (-1,))


def det(a) -> np.ndarray:
    """Determinants of an (..., m, m) stack, each slice as if alone; (..., 0, 0) gives ones.

    A 1 x 1 determinant is the entry itself and a 2 x 2 one is a*d - b*c.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim >= 2 and a.shape[-2:] == (0, 0):
        return np.ones(a.shape[:-2])
    return compound(a, a.shape[-1] if a.ndim else 1)[..., 0, 0]


def compound(a, k: int) -> np.ndarray:
    """All k x k minors det(A[I, J]) of every m x m matrix in an (..., m, m) stack.

    Returns an (..., C(m,k), C(m,k)) array over lex-ordered row/column sets;
    each slice is computed exactly as for a single matrix (Laplace expansion
    along first rows), so it equals the compound of that slice alone bit for
    bit.  Exterior powers are multiplicative, compound(A @ B, k) equals
    compound(A, k) @ compound(B, k), and compound(A, m) is [[det(A)]].
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError("expected a square matrix or a stack of them")
    m = a.shape[-1]
    _check_grade(m, k)
    return _laplace(a, k).reshape(a.shape[:-2] + (len(_index_tuples(m, k)),) * 2)


# ---------------------------------------------------------------------------
# symmetric forms on k-vectors


@dataclass(frozen=True)
class SymKForm:
    """Symmetric bilinear form on k-vectors, stored as a mirrored matrix."""

    matrix: np.ndarray
    m: int
    k: int

    def __post_init__(self):
        _check_grade(self.m, self.k)
        mat = np.asarray(self.matrix, dtype=float)
        d = len(_index_tuples(self.m, self.k))
        if mat.shape != (d, d):
            raise ValueError(f"expected shape {(d, d)}, got {mat.shape}")
        scale = max(1.0, float(np.abs(mat).max()))
        if np.abs(mat - mat.T).max() > 1e-9 * scale:
            raise ValueError("form matrix is not symmetric")
        mat = 0.5 * (mat + mat.T)
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def from_map(cls, a, k: int) -> "SymKForm":
        """The form (xi, zeta) -> <(wedge^k A) xi, zeta> of a self-adjoint A."""
        a = np.asarray(a, dtype=float)
        scale = max(1.0, float(np.abs(a).max()))
        if np.abs(a - a.T).max() > 1e-9 * scale:
            raise ValueError("expected a self-adjoint (symmetric) matrix")
        return cls(compound(a, k), a.shape[0], k)

    def __add__(self, other: "SymKForm") -> "SymKForm":
        if (self.m, self.k) != (other.m, other.k):
            raise ValueError("forms live on different spaces")
        return SymKForm(self.matrix + other.matrix, self.m, self.k)

    def evaluate(self, xi: KVector, zeta: KVector) -> float:
        for v in (xi, zeta):
            if (v.m, v.k) != (self.m, self.k):
                raise ValueError("k-vector does not match this form")
        return float(xi.coords @ self.matrix @ zeta.coords)

    def quadratic(self, xi: KVector) -> float:
        return self.evaluate(xi, xi)


def bianchi_defect(form: SymKForm, us, vs) -> float:
    """Signed first-Bianchi sum of a form at vectors u_1..u_{k+1}, v_1..v_{k-1}.

    Returns sum_{j=1}^{k+1} (-1)^j w(u_1^..^u_{j-1}^u_{j+1}^..^u_{k+1},
    u_j^v_1^..^v_{k-1}).  Forms induced by self-adjoint maps through
    ``SymKForm.from_map`` satisfy the identity, so the sum is zero up to
    roundoff; the alternating square form does not.
    """
    k = form.k
    if k < 2:
        raise ValueError("the Bianchi sum needs grade k >= 2")
    u = _vector_stack(us, expected_len=k + 1)
    v = _vector_stack(vs, expected_len=k - 1)
    if u.shape[1] != form.m or v.shape[1] != form.m:
        raise ValueError("vectors do not match the ambient dimension")
    total = 0.0
    for j in range(k + 1):
        left = decompose(np.delete(u, j, axis=0))
        right = decompose(np.vstack([u[j][None, :], v]))
        total += (-1.0) ** (j + 1) * form.evaluate(left, right)
    return float(total)


@dataclass(frozen=True)
class PolarizationResult:
    """Outcome of ``polarization_check``.

    ``concluded`` is False when a Bianchi precondition failed (the check
    refuses to decide anything in that case and names the failing form).
    """

    concluded: bool
    equal: bool
    max_entry_diff: float
    worst_decomposable_gap: float
    bianchi_defects: tuple[float, float]
    failed_form: str | None = None


def _sample_bianchi(form: SymKForm, rng, samples: int) -> float:
    worst = 0.0
    for _ in range(samples):
        u = rng.standard_normal((form.k + 1, form.m))
        v = rng.standard_normal((max(form.k - 1, 1), form.m))[: form.k - 1]
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        if len(v):
            v /= np.linalg.norm(v, axis=1, keepdims=True)
        worst = max(worst, abs(bianchi_defect(form, u, v)))
    return worst


def _sample_decomposables(m: int, k: int, rng, trials: int) -> list[KVector]:
    out = [KVector(e, m, k) for e in np.eye(len(_index_tuples(m, k)))]  # every basis e_I
    for _ in range(trials):
        frame = rng.standard_normal((k, m))
        xi = decompose(frame)
        nrm = xi.norm()
        if nrm < 1e-8:
            continue
        out.append(KVector(xi.coords / nrm, m, k))
    return out


def polarization_check(
    a: SymKForm,
    b: SymKForm,
    trials: int = 32,
    tol: float = 1e-10,
    seed=0,
    bianchi_samples: int = 16,
) -> PolarizationResult:
    """Decide entrywise equality of two Bianchi forms from decomposables only.

    Both forms must satisfy the first Bianchi identity on sampled argument
    tuples (absolute defect below ``tol``); otherwise the check refuses and
    reports which form failed, since agreement on decomposables then proves
    nothing (the alternating square form is the standard counterexample).
    If the quadratic values agree within ``tol`` on all sampled unit
    decomposables (every basis k-vector plus ``trials`` random frames), the
    forms are asserted equal entrywise within ``100 * tol``; a violation of
    that assertion raises
    InternalInconsistencyError.  The maximal entry difference is returned.
    """
    if (a.m, a.k) != (b.m, b.k):
        raise ValueError("forms live on different spaces")
    if a.k < 2:
        raise ValueError("polarization over decomposables needs k >= 2")
    entry_tol = 100.0 * tol
    rng = np.random.default_rng(seed)
    defect_a = _sample_bianchi(a, rng, bianchi_samples)
    defect_b = _sample_bianchi(b, rng, bianchi_samples)
    entry_diff = float(np.abs(a.matrix - b.matrix).max())
    for name, defect in (("A", defect_a), ("B", defect_b)):
        if defect > tol:
            return PolarizationResult(
                concluded=False,
                equal=False,
                max_entry_diff=entry_diff,
                worst_decomposable_gap=np.nan,
                bianchi_defects=(defect_a, defect_b),
                failed_form=name,
            )
    gap = 0.0
    for xi in _sample_decomposables(a.m, a.k, rng, trials):
        gap = max(gap, abs(a.quadratic(xi) - b.quadratic(xi)))
    equal = gap <= tol
    if equal and entry_diff > entry_tol:
        raise InternalInconsistencyError(
            "forms agree on decomposables and satisfy the Bianchi identity "
            f"yet differ entrywise by {entry_diff:.3e} (> {entry_tol:.3e})"
        )
    return PolarizationResult(
        concluded=True,
        equal=equal,
        max_entry_diff=entry_diff,
        worst_decomposable_gap=gap,
        bianchi_defects=(defect_a, defect_b),
    )


# ---------------------------------------------------------------------------
# the alternating square form


def _complement_sign(entries: tuple[int, ...]) -> int:
    """Sign of the permutation (I, I^c) of {0, 1, ...}, both ascending."""
    # inversions: each element of I counts the complement entries below it
    # that appear after it; equivalently sign = (-1)^(sum(I) - k(k-1)/2).
    k = len(entries)
    total = sum(entries) - k * (k - 1) // 2
    return -1 if total % 2 else 1


@lru_cache(maxsize=None)
def _square_form_matrix_cached(k: int) -> np.ndarray:
    m = 2 * k
    tuples = _index_tuples(m, k)
    lookup = _rank_lookup(m, k)
    d = len(tuples)
    q = np.zeros((d, d))
    universe = set(range(m))
    for r, t in enumerate(tuples):
        comp = tuple(sorted(universe - set(t)))
        q[r, lookup[comp]] = _complement_sign(t)
    return q


def square_form_matrix(k: int) -> SymKForm:
    """The alternating square form on wedge^k R^{2k}, k even.

    Its quadratic value at xi (``quadratic``) is the coefficient of
    e_{1...2k} in xi ^ xi.  Symmetric only for even k, which is exactly when
    the quadratic form is nonzero while still vanishing on every
    decomposable k-vector (a wedge with a repeated factor), so vanishing on
    decomposables does not polarize without the Bianchi identity.
    """
    if k < 2 or k % 2:
        raise ValueError("the alternating square form needs even k >= 2")
    return SymKForm(_square_form_matrix_cached(k), 2 * k, k)


# ---------------------------------------------------------------------------
# simultaneous diagonalization


@dataclass(frozen=True)
class CommonEigenbasis:
    """Orthonormal basis diagonalizing two self-adjoint maps at once."""

    basis: np.ndarray
    eigenvalues_g: np.ndarray
    eigenvalues_h: np.ndarray
    hypothesis_defect: float
    nonsingular: str | None


def _cluster_spans(values: np.ndarray, rel_tol: float) -> list[slice]:
    spans = []
    start = 0
    for i in range(1, len(values)):
        scale = max(1.0, abs(values[i]), abs(values[i - 1]))
        if values[i] - values[i - 1] > rel_tol * scale:
            spans.append(slice(start, i))
            start = i
    spans.append(slice(start, len(values)))
    return spans


def common_eigenbasis(g, h, k: int, beta: float, tol: float = 1e-10) -> CommonEigenbasis:
    """Simultaneously diagonalize G and H given wedge^k G + wedge^k H = beta Id.

    The hypothesis is verified first (operator-norm defect below ``tol``,
    else PreconditionError quoting the measured defect).  Under it the two
    maps commute, so diagonalizing G and then diagonalizing H inside each
    eigenvalue cluster of G (relative gap 1e-7) produces a
    common orthonormal eigenbasis.  For k >= 2 at least one of the maps must
    be nonsingular; the returned flag names one such map, and a pair that
    looks jointly singular raises InternalInconsistencyError.
    """
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    if g.shape != h.shape or g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError("expected two square matrices of equal size")
    m = g.shape[0]
    _check_grade(m, k)
    if beta == 0:
        raise ValueError("beta must be nonzero")
    for name, mat in (("G", g), ("H", h)):
        scale = max(1.0, float(np.abs(mat).max()))
        if np.abs(mat - mat.T).max() > 1e-9 * scale:
            raise ValueError(f"{name} is not self-adjoint")
    g = 0.5 * (g + g.T)
    h = 0.5 * (h + h.T)

    defect_matrix = compound(g, k) + compound(h, k)
    defect_matrix -= beta * np.eye(len(defect_matrix))
    defect = float(np.linalg.norm(defect_matrix, 2))
    if defect > tol:
        raise PreconditionError(
            f"wedge^{k} G + wedge^{k} H differs from beta*Id by {defect:.3e} "
            f"(tolerance {tol:.3e})"
        )

    vals_g, vecs = np.linalg.eigh(g)
    basis = vecs.copy()
    for span in _cluster_spans(vals_g, 1e-7):
        block = basis[:, span]
        restricted = block.T @ h @ block
        restricted = 0.5 * (restricted + restricted.T)
        _, w = np.linalg.eigh(restricted)
        basis[:, span] = block @ w

    diag_g = basis.T @ g @ basis
    diag_h = basis.T @ h @ basis
    scale = max(1.0, float(np.abs(g).max()), float(np.abs(h).max()))
    resid = max(
        np.abs(diag_g - np.diag(np.diag(diag_g))).max(),
        np.abs(diag_h - np.diag(np.diag(diag_h))).max(),
    )
    resid_tol = max(1e-8, 1e3 * defect) * scale
    if resid > resid_tol:
        raise InternalInconsistencyError(
            f"common eigenbasis off-diagonal residual {resid:.3e} exceeds "
            f"{resid_tol:.3e} despite a verified hypothesis"
        )

    eig_g = np.diag(diag_g).copy()
    eig_h = np.diag(diag_h).copy()
    nonsingular = None
    if k >= 2:
        thresh = 1e-8 * scale
        min_g = float(np.abs(eig_g).min())
        min_h = float(np.abs(eig_h).min())
        if max(min_g, min_h) <= thresh:
            raise InternalInconsistencyError(
                "both maps look singular although the exterior-power "
                f"hypothesis holds (min |eig|: G {min_g:.3e}, H {min_h:.3e})"
            )
        nonsingular = "G" if min_g >= min_h else "H"
    return CommonEigenbasis(basis, eig_g, eig_h, defect, nonsingular)
