"""Reverse Weingarten maps, wedge identities, umbilic search, revolution bodies."""

import json
from pathlib import Path

import numpy as np
import pytest

from brightlab.body import (
    Ball,
    Ellipsoid,
    HarmonicPerturbation,
    Homothet,
    MinkowskiSum,
    Spheroid,
    tangent_frames,
)
from brightlab.errors import PreconditionError
from brightlab.multilinear import SymKForm, compound, polarization_check
from brightlab.sampling import haar_directions
from brightlab.tomography import homothety_fit
from brightlab.weingarten import (
    _antipodal_maps,
    _residuals,
    _umbilic,
    antipodal_search,
    relative_maps,
    relative_wedge_defect,
    revolution_eigenstructure,
    revolution_relations_check,
    wedge_identity_defects,
)

E4 = Ellipsoid(np.diag([1.0, 1.69, 0.64, 1.21]))
K4 = Homothet(E4, 0.7, (0.1, 0.0, -0.2, 0.0))
E6 = Ellipsoid(np.diag([1.0, 1.69, 0.64, 1.21, 0.81, 1.44]))
K6 = Homothet(E6, 0.7, (0.1, 0.0, -0.2, 0.0, 0.05, 0.0))
SPHEROID_4D = Spheroid((0.0, 0.0, 0.0, 1.0), 1.0, 1.4)
SPHEROID_5D = Spheroid((0.0, 0.0, 0.0, 0.0, 1.0), 1.0, 1.4)
ROOT = Path(__file__).resolve().parents[1]

# (body, base, {seed: Gauss-Newton iterations} for the seeds whose
# antipodal-objective certificates are pinned)
ANTIPODAL_PAIRS = [
    (E4, Ellipsoid(np.diag([1.44, 0.81, 1.0, 0.49])), {0: 1, 1: 1}),
    (
        HarmonicPerturbation(Ball(3, 1.0), (0.0, 0.0, 1.0), (0.0, 0.3), 0.2),
        Ellipsoid(np.diag([1.0, 1.44, 0.81])),
        {0: 3, 1: 3, 2: 3, 3: 3},
    ),
]

# (body, base, closed-form relative radius at the poles +-e_n, seeds): a
# spheroid with equatorial semiaxis a and polar semiaxis b has radius a^2/b there
REVOLUTION_POLES = [
    (SPHEROID_5D, Ball(5, 1.0), 1.0 / 1.4, range(10)),
    (Spheroid((0.0, 0.0, 1.0), 1.0, 0.7), Ball(3, 1.0), 1.0 / 0.7, range(3)),
    (
        Spheroid((0.0, 0.0, 0.0, 1.0), 1.0, 1.3),
        Ellipsoid(np.diag([1.0, 1.0, 1.0, 1.21])),
        1.1 / 1.3,
        range(3),
    ),
]


def grid_size(budget):
    """Points of the grid ``antipodal_search`` scores before its polish."""
    return max(8, budget // 20)


def polish_path(monkeypatch, body, base, worse_at=None, **kwargs):
    """``antipodal_search`` with its polish recorded: every centre, and the
    last lstsq step taken from each; the centre of iteration ``worse_at``
    (from 0) reads 1 more in every residual entry."""
    from brightlab import weingarten

    calls, centres, steps = [], [], {}
    maps, lstsq, residuals = weingarten.relative_maps, np.linalg.lstsq, weingarten._residuals

    def maps_spy(body, base, u, bases):
        # the first call scores the grid, which may have 2n - 1 points too
        calls.append(len(u))
        if len(calls) > 1 and len(u) == 2 * (2 * body.dim - 1):
            centres.append(u[0])
        return maps(body, base, u, bases)

    def lstsq_spy(a, b, rcond=None):
        solution = lstsq(a, b, rcond=rcond)
        steps[len(centres) - 1] = solution[0]
        return solution

    def residuals_spy(maps, bases, objective):
        res = residuals(maps, bases, objective)
        return res + 1.0 if len(centres) - 1 == worse_at else res

    monkeypatch.setattr(weingarten, "relative_maps", maps_spy)
    monkeypatch.setattr(weingarten.np.linalg, "lstsq", lstsq_spy)
    monkeypatch.setattr(weingarten, "_residuals", residuals_spy)
    res = antipodal_search(body, base, **kwargs)
    monkeypatch.undo()
    assert len(centres) == res.gauss_newton_steps
    return res, centres, steps


def step_from(centres, steps, k, factor):
    """The polish's next centre from centre k, moved by ``factor`` lstsq steps."""
    u = centres[k] - factor * (tangent_frames(centres[k][None])[0] @ steps[k])
    return u / np.linalg.norm(u)


def wedge_defect_oracle(body, base, k, beta, u):
    """The wedge identity defect at one direction, one map at a time."""
    frame = tangent_frames(u[None])
    lu = body.jets(u[None], frame)[2][0]
    lmu = body.jets(-u[None], frame)[2][0]
    l0 = base.jets(u[None], frame)[2][0]
    lhs = compound(lu, k) + compound(lmu, k)
    return np.linalg.norm(lhs - 2.0 * beta * compound(l0, k), 2)


class DentedBall(Ball):
    """The unit ball with its Hessian scaled by a factor at each of a few directions."""

    def __init__(self, dim, dents):
        super().__init__(dim, 1.0)
        object.__setattr__(self, "dents", dents)  # [(direction, factor), ...]

    def jets(self, u, frames):
        values, gradients, hessians = super().jets(u, frames)
        for direction, factor in self.dents:
            hessians[np.abs(u - direction).max(axis=1) < 1e-12] *= factor
        return values, gradients, hessians


class NaNHessian(Ellipsoid):
    """An ellipsoid whose restricted Hessian has a NaN at one entry of one row of each
    ``jets`` call that asks for a Hessian (row ``m + i`` of the stack +-u is -u[i])."""

    def __init__(self, shape, row, entry):
        super().__init__(shape)
        object.__setattr__(self, "row", row)
        object.__setattr__(self, "entry", entry)

    def jets(self, u, frames):
        values, gradients, hessians = super().jets(u, frames)
        if frames.shape[2]:
            hessians[(self.row, *self.entry)] = np.nan
        return values, gradients, hessians


class SpyBall(Ball):
    """The unit ball, recording the column count of the frames each ``jets`` call gets."""

    def __init__(self, dim):
        super().__init__(dim, 1.0)
        object.__setattr__(self, "columns", [])

    def jets(self, u, frames):
        self.columns.append(frames.shape[2])
        return super().jets(u, frames)


class TestTangentFrame:
    def test_frames_are_orthonormal_and_span_u_perp(self):
        dirs = haar_directions(5, 20, 0)
        for u, basis in zip(dirs, tangent_frames(dirs)):
            assert basis.shape == (5, 4)
            assert np.allclose(basis.T @ basis, np.eye(4), atol=1e-12)
            assert np.abs(basis.T @ u).max() < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_stacked_frames_match_single_frames(self, n):
        # e_1 takes the identity branch; -e_1 and e_n the reflection
        eye = np.eye(n)
        dirs = np.vstack([eye[0], -eye[0], eye[-1], haar_directions(n, 20, 2)])
        bases = tangent_frames(dirs)
        assert bases.shape == (len(dirs), n, n - 1)
        for u, basis in zip(dirs, bases):
            np.testing.assert_allclose(basis, tangent_frames(u[None])[0], rtol=0, atol=1e-14)
        assert np.array_equal(bases[0], eye[:, 1:])

    def test_stacked_frames_reject_non_unit_rows(self):
        dirs = haar_directions(3, 4, 3)
        dirs[2] *= 1.001
        with pytest.raises(ValueError, match="unit length"):
            tangent_frames(dirs)
        with pytest.raises(ValueError):
            tangent_frames(dirs[0])

    def test_frame_choice_does_not_change_spectra(self):
        rng = np.random.default_rng(1)
        for u in haar_directions(4, 10, rng):
            frame = tangent_frames(u[None])
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))  # another basis of u^perp
            a = E4.jets(u[None], frame)[2][0]
            b = E4.jets(u[None], frame @ q)[2][0]
            assert np.allclose(np.linalg.eigvalsh(a), np.linalg.eigvalsh(b), atol=1e-10)
            assert np.linalg.det(a) == pytest.approx(np.linalg.det(b), rel=1e-10)


class TestReverseWeingarten:
    def test_ball_map_is_radius_times_identity(self):
        u = np.array([[0.0, 1.0, 0.0]])
        m = Ball(3, 2.5).jets(u, tangent_frames(u))[2]
        assert m.shape == (1, 2, 2)
        assert np.allclose(m[0], 2.5 * np.eye(2), atol=1e-12)

    def test_spheroid_pole_and_equator(self):
        sph = Spheroid((0.0, 0.0, 1.0), 1.0, 1.4)
        u = np.eye(3)[[2, 0]]
        pole, eq = np.linalg.eigvalsh(sph.jets(u, tangent_frames(u))[2])
        assert np.allclose(pole, 1.0 / 1.4, atol=1e-12)
        assert np.allclose(eq, [1.0, 1.4**2], atol=1e-12)

    def test_homothet_scales_the_map(self):
        dirs = haar_directions(4, 10, 2)
        frames = tangent_frames(dirs)
        a = K4.jets(dirs, frames)[2]
        b = E4.jets(dirs, frames)[2]
        assert a.shape == (10, 3, 3)
        assert np.allclose(a, 0.7 * b, atol=1e-12)


class TestRelativeMap:
    def test_relative_to_unit_ball_is_plain_map(self):
        dirs = haar_directions(4, 5, 3)
        frames = tangent_frames(dirs)
        rel = relative_maps(E4, Ball(4, 1.0), dirs, frames)
        plain = E4.jets(dirs, frames)[2]
        assert np.allclose(rel, plain, atol=1e-10)

    def test_homothet_pair_is_isotropic(self):
        dirs = haar_directions(4, 10, 4)
        rel = relative_maps(K4, E4, dirs, tangent_frames(dirs))
        assert rel.shape == (10, 3, 3)
        assert np.allclose(rel, 0.7 * np.eye(3), atol=1e-10)

    def test_degenerate_base_raises_with_eigenvalue(self):
        flat = Homothet(Ball(3, 1.0), 1.0, (0.0, 0.0, 0.0))

        class FlatBase:
            dim = 3

            def support(self, x):
                return float(np.abs(np.asarray(x)[2]))

            def jets(self, u, frames):
                u = np.asarray(u, dtype=float)
                gradients = np.zeros_like(u)
                gradients[:, 2] = np.where(u[:, 2] >= 0, 1.0, -1.0)
                j = frames.shape[2]
                return np.abs(u[:, 2]), gradients, np.zeros((len(u), j, j))

        with pytest.raises(PreconditionError) as err:
            u = np.array([[0.0, 0.0, 1.0]])
            relative_maps(flat, FlatBase(), u, tangent_frames(u))
        assert "smallest eigenvalue" in str(err.value)


class TestWedgeIdentity:
    def test_homothet_pair_satisfies_identity_all_grades(self):
        dirs = haar_directions(4, 25, 5)
        worst, solved = wedge_identity_defects(K4, E4, [1, 2, 3], [0.7, 0.7**2, 0.7**3], dirs)
        assert worst.shape == (3,) and len(solved) == 3
        assert all(1 <= count <= 25 for count in solved)
        assert worst.max() < 1e-10

    def test_translation_invariance(self):
        shifted = Homothet(E4, 1.0, (0.4, -0.1, 0.0, 0.2))
        dirs = haar_directions(4, 10, 6)
        worst = wedge_identity_defects(shifted, E4, [2], [1.0], dirs)[0][0]
        assert worst < 1e-10

    def test_asymmetric_perturbation_violates_beta_one(self):
        # a linear odd term would only translate the ball; the cubic term
        # genuinely breaks central symmetry of the curvature
        body = HarmonicPerturbation(Ball(4, 1.0), (0.0, 0.0, 0.0, 1.0), (0.0, 0.4), 0.3)
        dirs = haar_directions(4, 10, 7)
        worst = wedge_identity_defects(body, Ball(4, 1.0), [2], [1.0], dirs)[0][0]
        assert worst > 1e-3

    def test_asymmetric_base_rejected(self):
        asym = Homothet(E4, 1.0, (0.5, 0.0, 0.0, 0.0))
        with pytest.raises(PreconditionError) as err:
            wedge_identity_defects(E4, asym, [1], [1.0], np.array([[1.0, 0.0, 0.0, 0.0]]))
        assert "centrally symmetric" in str(err.value)
        with pytest.raises(PreconditionError, match="centrally symmetric"):
            wedge_identity_defects(E4, asym, [2], [1.0], haar_directions(4, 50, 13))

    def test_symmetry_check_asks_for_no_hessian(self):
        from brightlab import weingarten

        spy = SpyBall(4)
        weingarten._check_symmetric_body(spy, haar_directions(4, 10, 3))
        assert spy.columns == [0]
        # the identity then restricts the base's Hessians to the 3-column tangent frames
        wedge_identity_defects(K4, spy, [1], [0.7], haar_directions(4, 5, 4))
        assert spy.columns == [0, 0, 3]

    def test_grades_and_betas_must_align(self):
        with pytest.raises(ValueError):
            wedge_identity_defects(K4, E4, [1, 2], [0.7], haar_directions(4, 5, 17))

    @pytest.mark.parametrize(
        "body, base, grades", [(K4, E4, (1, 2, 3)), (K6, E6, (2, 3, 4)), (E6, Ball(6, 1.0), (2, 5))]
    )
    def test_sweep_matches_per_direction_formula(self, body, base, grades):
        # the worst over one direction is that direction's defect
        dirs = haar_directions(body.dim, 40, 14)
        betas = [0.7**k for k in grades]
        rows = np.array([wedge_identity_defects(body, base, grades, betas, u[None])[0] for u in dirs])
        for k, beta, swept in zip(grades, betas, rows.T):
            expected = [wedge_defect_oracle(body, base, k, beta, u) for u in dirs]
            np.testing.assert_allclose(swept, expected, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("body, base", [(K4, E4), (K6, E6)])
    def test_grade_sweep_equals_per_grade_rows_bit_for_bit(self, body, base):
        dirs = haar_directions(body.dim, 30, 15)
        grades, betas = [1, 2, 3], [0.7, 0.7**2, 0.7**3]
        for u in dirs:
            swept = wedge_identity_defects(body, base, grades, betas, u[None])[0]
            for worst, k, beta in zip(swept, grades, betas):
                assert worst == wedge_identity_defects(body, base, [k], [beta], u[None])[0][0]

    @pytest.mark.parametrize(
        "body, base, grades, scale, m",
        [
            (K4, E4, (1, 2, 3), 0.7, 100),  # verify_wedge.json
            (K6, E6, (2, 3, 4), 0.7, 200),  # the benchmark's 6-D pair
            (K4, E4, (1, 2, 3), 0.701, 100),  # verify_wedge_wrong_beta.json
            (K6, E6, (2, 3, 4), 0.7007, 200),  # verify_wedge_6d_betas_off.json
            (Ball(4, 1.0), Ball(4, 1.0), (1, 2, 3), 1.0, 30),  # every D = 0: every bound ties
        ],
        ids=["4d", "6d", "4d_wrong_scale", "6d_wrong_scale", "ball_pair"],
    )
    @pytest.mark.parametrize("seed", [1, 2])
    def test_stacked_worst_is_the_largest_single_row_defect(self, body, base, grades, scale, m, seed):
        betas = [scale**k for k in grades]
        dirs = haar_directions(body.dim, m, seed)
        rows = np.array([wedge_identity_defects(body, base, grades, betas, u[None])[0] for u in dirs])
        worst, solved = wedge_identity_defects(body, base, grades, betas, dirs)
        assert np.array_equal(worst, rows.max(axis=0))
        assert all(1 <= count <= m for count in solved)
        # each direction twice: every bound is shared by two rows
        twice, solved_twice = wedge_identity_defects(body, base, grades, betas, np.vstack([dirs, dirs]))
        assert np.array_equal(twice, worst)
        assert all(count <= 2 * c for count, c in zip(solved_twice, solved))
        if scale == 1.0:  # the ball pair: the first solve's 0 prunes every other row
            assert not worst.any() and solved == [1] * len(grades)

    def test_bound_ties_and_tight_bounds_keep_the_maximum(self):
        from brightlab import weingarten

        # every slice has row-sum bound 1, and largest |eigenvalue| 1, 1, 1 or 1/sqrt(2)
        tied = np.array(
            [[[1.0, 0.0], [0.0, 1.0]], [[0.5, 0.5], [0.5, 0.5]], [[0.0, 1.0], [1.0, 0.0]],
             [[0.5, 0.5], [0.5, -0.5]]]
        )
        # c times the all-ones r x r matrix: its bound c r is its norm
        ones = [np.ones((3, r, r)) * np.array([1.0, 1.0 - 1e-15, 0.5])[:, None, None]
                for r in (1, 2, 7, 20)]
        for stack in (tied, tied[::-1], *ones):
            worst, _ = weingarten._largest_eigenvalue_norm(stack, 1)
            assert worst == np.abs(np.linalg.eigvalsh(stack)).max()

    @pytest.mark.parametrize("entry", [(0, 1), (1, 0), (0, 0)])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_non_finite_defect_is_refused(self, entry, k):
        # eigvalsh alone reads only the lower triangle: a NaN at (0, 1) with k = 1 gives a
        # finite defect, one at (0, 0) with k = 2 raises "Eigenvalues did not converge",
        # and with k = 3 the worst defect is NaN
        shape, dirs = np.diag([1.0, 1.69, 0.64, 1.21]), haar_directions(4, 10, 2)
        for row in (3, 13):  # +u[3] and -u[3]
            with pytest.raises(PreconditionError, match=f"grade-{k} .* at direction 3 has an entry"):
                wedge_identity_defects(NaNHessian(shape, row, entry), Ellipsoid(shape), [k], [1.0], dirs)

    def test_non_finite_defect_exits_two(self, monkeypatch, tmp_path, capsys):
        from brightlab import cli

        shape = np.diag([1.0, 1.69, 0.64, 1.21])
        monkeypatch.setattr(cli, "_pair", lambda params: (NaNHessian(shape, 0, (0, 1)), Ellipsoid(shape)))
        out = tmp_path / "report.json"
        assert cli.main(["verify-wedge", "--seed", "1", "--out", str(out)]) == 2
        assert "grade-1 wedge defect matrix at direction 0" in capsys.readouterr().err
        assert not out.exists()

    def test_eigvalsh_norm_matches_spectral_norm(self):
        # off-beta ratios make the defect matrices large, so the two norms
        # are compared far from the rounding floor
        dirs = haar_directions(4, 20, 16)
        for k in (1, 2, 3):
            beta = 1.1 * 0.7**k
            defects = [wedge_identity_defects(K4, E4, [k], [beta], u[None])[0][0] for u in dirs]
            expected = [wedge_defect_oracle(K4, E4, k, beta, u) for u in dirs]
            scale = max(expected)
            assert scale > 1e-2
            np.testing.assert_allclose(defects, expected, rtol=0, atol=1e-15 * scale)

    def test_relative_version_matches_and_diagonalizes(self):
        dirs = haar_directions(4, 10, 8)
        for k in (1, 2):
            beta = 0.7**k
            worst = max(relative_wedge_defect(K4, E4, k, beta, u) for u in dirs)
            assert worst < 1e-9

    def test_relative_version_reports_violation(self):
        body = HarmonicPerturbation(Ball(4, 1.0), (0.0, 0.0, 0.0, 1.0), (0.0, 0.4), 0.3)
        u = haar_directions(4, 1, 9)[0]
        assert relative_wedge_defect(body, Ball(4, 1.0), 2, 1.0, u) > 1e-3

    def test_forms_from_both_sides_polarize_equal(self):
        # the two averaged wedge forms agree as forms, reconstructed from
        # decomposable evaluations alone
        u = haar_directions(4, 1, 10)
        frame = tangent_frames(u)
        k, beta = 2, 0.7**2
        (lu,) = K4.jets(u, frame)[2]
        (lmu,) = K4.jets(-u, frame)[2]
        (l0,) = E4.jets(u, frame)[2]
        lhs = SymKForm.from_map(lu, k) + SymKForm.from_map(lmu, k)
        rhs = SymKForm(2.0 * beta * compound(l0, k), 3, k)
        result = polarization_check(lhs, rhs, tol=1e-9)
        assert result.concluded and result.equal


def umbilic_at(body, base, u0):
    """The umbilic certificate of +-u0, from the relative maps there, at tolerance 1e-8."""
    u0 = np.asarray(u0, dtype=float)
    return _umbilic(body, u0, _antipodal_maps(body, base, u0[None])[0], 1e-8)


class TestUmbilic:
    def test_boundary_points_and_homothety_fit_ask_for_no_hessian(self):
        # the certificate restricts the body's Hessians to the 3-column frame at u0,
        # then reads its boundary points from jets with no frame column
        body, base = SpyBall(4), SpyBall(4)
        umbilic_at(body, base, np.eye(4)[3])
        assert body.columns == [3, 0]
        # the fit reads support values only
        body, base = SpyBall(4), SpyBall(4)
        homothety_fit(body, base, samples=16, seed=0)
        assert body.columns == base.columns == [0]

    def test_ball_pair_is_umbilic_everywhere(self):
        u = haar_directions(3, 1, 11)[0]
        res = umbilic_at(Ball(3, 2.0), Ball(3, 1.0), u)
        assert res.is_umbilic
        assert res.r0 == pytest.approx(2.0)
        assert res.defect < 1e-12
        # boundary points at +-u0 are antipodal on the sphere
        p, q = res.boundary_points
        assert np.allclose(p, -q, atol=1e-12)

    def test_spheroid_pole_is_relative_umbilic(self):
        sph = Spheroid((0.0, 0.0, 0.0, 0.0, 1.0), 1.0, 1.4)
        res = umbilic_at(sph, Ball(5, 1.0), np.array([0.0, 0.0, 0.0, 0.0, 1.0]))
        assert res.is_umbilic
        assert res.r0 == pytest.approx(1.0 / 1.4, abs=1e-12)

    def test_search_finds_spheroid_pole(self):
        sph = Spheroid((0.0, 0.0, 0.0, 0.0, 1.0), 1.0, 1.4)
        res = antipodal_search(sph, Ball(5, 1.0), seed=0, budget=4000)
        assert res.converged
        angle = np.arccos(np.clip(abs(res.umbilic.u0[4]), -1.0, 1.0))
        assert angle < 1e-3
        assert res.umbilic.r0 == pytest.approx(1.0 / 1.4, abs=1e-6)

    def test_flat_objective_returns_first_grid_point(self):
        from brightlab.sampling import hemisphere_grid

        res = antipodal_search(Ball(3, 2.0), Ball(3, 1.0), seed=5, budget=640)
        first = hemisphere_grid(3, grid_size(640), 5)[0]
        assert np.allclose(res.umbilic.u0, first, atol=1e-12)
        assert res.converged and res.umbilic.defect < 1e-12

    def test_perturbed_ball_has_equatorial_umbilics(self):
        body = HarmonicPerturbation(Ball(3, 1.0), (0.0, 0.0, 1.0), (0.3, -0.2), 0.1)
        res = antipodal_search(body, Ball(3, 1.0), seed=1, budget=4000)
        assert res.converged
        # odd zonal perturbations vanish to second order on the equator, so
        # the found direction is equatorial with relative radius 1
        assert abs(res.umbilic.u0[2]) < 1e-3
        assert res.umbilic.r0 == pytest.approx(1.0, abs=1e-6)

    def test_antipodal_objective_mode(self):
        body = HarmonicPerturbation(Ball(3, 1.0), (0.0, 0.0, 1.0), (0.0, 0.3), 0.2)
        res = antipodal_search(body, Ball(3, 1.0), seed=2, budget=2000, objective="antipodal")
        assert res.objective == "antipodal"
        assert res.r_defect < 1e-6

    @pytest.mark.parametrize("seed", range(5))
    def test_search_defaults_pinned(self, seed):
        # the closed form, not a path: the relative umbilics are the poles +-e5
        # with radius 1/1.4, certified to rounding
        res, again = (antipodal_search(SPHEROID_5D, Ball(5, 1.0), seed=seed) for _ in range(2))
        assert res.converged and res.umbilic.defect <= 1e-13
        assert np.arccos(min(1.0, abs(res.umbilic.u0[-1]))) < 1e-6
        assert res.umbilic.r0 == pytest.approx(1.0 / 1.4, abs=1e-12)
        assert res.evaluations == grid_size(4000) + 9 * res.gauss_newton_steps <= 4000
        assert np.array_equal(res.umbilic.u0, again.umbilic.u0)
        assert (res.evaluations, res.gauss_newton_steps) == (again.evaluations, again.gauss_newton_steps)

    @pytest.mark.parametrize("body, base, r0, seeds", REVOLUTION_POLES)
    def test_revolution_poles_polish_in_a_few_iterations(self, body, base, r0, seeds):
        # the residual is quadratic in the angle at a revolution pole, so unit
        # steps converged linearly (20-23 iterations); doubled steps take 4
        n = body.dim
        for seed in seeds:
            res = antipodal_search(body, base, seed=seed)
            assert res.gauss_newton_steps <= 6
            assert res.evaluations == grid_size(4000) + (2 * n - 1) * res.gauss_newton_steps
            assert res.converged and res.umbilic.defect <= 1e-13
            assert np.arccos(min(1.0, abs(res.umbilic.u0[-1]))) < 1e-6
            assert res.umbilic.r0 == pytest.approx(r0, abs=1e-12)

    def test_polish_doubles_its_step_at_a_double_root(self, monkeypatch):
        # seed 1: the unit step cuts the norm from 7.4e-3 to 1.9e-3, a ratio of 1/4
        res, centres, steps = polish_path(monkeypatch, SPHEROID_5D, Ball(5, 1.0), seed=1)
        assert res.gauss_newton_steps == 4
        assert np.array_equal(centres[1], step_from(centres, steps, 0, 1.0))
        for k in (1, 2):
            assert np.array_equal(centres[k + 1], step_from(centres, steps, k, 2.0))

    def test_failed_doubled_step_falls_back_to_the_unit_step(self, monkeypatch):
        # the first doubled centre (iteration 2) reads worse: iteration 3 takes the
        # unit step from the same centre, and doubling stays off from then on
        res, centres, steps = polish_path(
            monkeypatch, SPHEROID_5D, Ball(5, 1.0), worse_at=2, seed=1
        )
        assert np.array_equal(centres[2], step_from(centres, steps, 1, 2.0))
        assert np.array_equal(centres[3], step_from(centres, steps, 1, 1.0))
        assert 2 not in steps
        for k in range(3, len(centres) - 1):
            assert np.array_equal(centres[k + 1], step_from(centres, steps, k, 1.0))
        # the path of unit steps alone (21 iterations), one iteration late
        assert res.gauss_newton_steps == 22 and res.evaluations == grid_size(4000) + 9 * 22
        assert res.converged and res.umbilic.defect <= 1e-13

    @pytest.mark.parametrize(
        "body, base, pins, kwargs",
        [
            (
                HarmonicPerturbation(Ball(3, 1.0), (0.0, 0.0, 1.0), (0.3, -0.2), 0.1),
                Ball(3, 1.0),
                {1: 3, 2: 3, 3: 3, 4: 3, 5: 2},
                {},
            ),
            *[
                (body, base, pins, {"budget": 2000, "objective": "antipodal"})
                for body, base, pins in ANTIPODAL_PAIRS
            ],
        ],
    )
    def test_simple_roots_never_double(self, monkeypatch, body, base, pins, kwargs):
        for seed, count in pins.items():
            res, centres, steps = polish_path(monkeypatch, body, base, seed=seed, **kwargs)
            assert res.gauss_newton_steps == count
            for k in range(len(centres) - 1):
                assert np.array_equal(centres[k + 1], step_from(centres, steps, k, 1.0))

    @pytest.mark.parametrize("body, base, pins", ANTIPODAL_PAIRS)
    def test_antipodal_objective_pinned(self, body, base, pins):
        for seed in pins:
            res, again = (
                antipodal_search(body, base, seed=seed, budget=2000, objective="antipodal")
                for _ in range(2)
            )
            assert res.converged and res.r_defect <= 1e-13
            assert res.evaluations == grid_size(2000) + (2 * body.dim - 1) * res.gauss_newton_steps <= 2000
            assert np.array_equal(res.umbilic.u0, again.umbilic.u0)
            assert res.evaluations == again.evaluations

    @pytest.mark.parametrize("n", range(3, 9))
    def test_ball_pair_stops_at_the_grid_point(self, n):
        # every direction is umbilic, so the first centre's residual is rounding: no step is taken
        from brightlab.sampling import hemisphere_grid

        res = antipodal_search(Ball(n, 2.0), Ball(n, 1.0), seed=1, budget=640)
        assert res.gauss_newton_steps == 1 and res.evaluations == grid_size(640) + 2 * n - 1
        assert np.array_equal(res.umbilic.u0, hemisphere_grid(n, grid_size(640), 1)[0])
        assert res.converged and res.umbilic.defect <= 1e-13

    def test_antipodal_polish_stops_at_the_rounding_of_its_power_sums(self):
        # relative radii near 5 put the power sums near 1e3, so the converged residual
        # (7.0e-13) is rounding of the sums, though far above eps times the largest radius
        body = HarmonicPerturbation(Ball(5, 3.0), (0.0, 0.0, 0.0, 0.0, 1.0), (0.0, 0.3), 0.2)
        base = Ellipsoid(np.diag(np.linspace(0.6, 1.4, 5)))
        res = antipodal_search(body, base, seed=2, budget=2000, objective="antipodal")
        assert res.gauss_newton_steps == 3 and res.r_defect <= 1e-13

    @pytest.mark.parametrize("nudge", [np.inf, -np.inf])
    def test_zero_curve_point_does_not_follow_rounding(self, monkeypatch, nudge):
        # this pair's zeros form a curve, so near it the Jacobian is rank 1 up to
        # central-difference noise; stepping along that noise moved u0 by up to
        # 2.1e-6 under a 1-ulp change of every map.  What is left (up to 2.7e-8)
        # is the conditioning of genuine steps whose smaller singular value is
        # 3e-9 to 5e-4 of the larger.
        from brightlab import weingarten

        body, base, _ = ANTIPODAL_PAIRS[1]
        exact = [
            antipodal_search(body, base, seed=seed, budget=2000, objective="antipodal")
            for seed in range(10)
        ]
        maps = weingarten.relative_maps
        monkeypatch.setattr(
            weingarten, "relative_maps", lambda *args: np.nextafter(maps(*args), nudge)
        )
        for seed, res in enumerate(exact):
            nudged = antipodal_search(body, base, seed=seed, budget=2000, objective="antipodal")
            assert nudged.r_defect <= 1e-13
            assert np.linalg.norm(nudged.umbilic.u0 - res.umbilic.u0) <= 5e-8

    def test_polish_drops_the_noise_direction_of_a_zero_curve(self, monkeypatch):
        # at the last step of this search the smaller singular value (2.1e-10)
        # is below the noise cutoff (6.9e-9): the first step is full rank, the
        # last rank 1
        from brightlab import weingarten

        ranks = []
        lstsq = np.linalg.lstsq

        def spy(a, b, rcond=None):
            solution = lstsq(a, b, rcond=rcond)
            ranks.append(solution[2])
            return solution

        monkeypatch.setattr(weingarten.np.linalg, "lstsq", spy)
        body, base, _ = ANTIPODAL_PAIRS[1]
        res = antipodal_search(body, base, seed=20, budget=2000, objective="antipodal")
        assert res.gauss_newton_steps == 3 and ranks[0] == 2 and ranks[-1] == 1

    @pytest.mark.parametrize("budget", [64, 70])
    def test_search_stays_within_a_tight_budget(self, budget):
        # a grid of 8 leaves room for 6 iterations of 9 directions at n = 5,
        # and from its best point at seed 7 the sixth centre still reads
        # 4.3e-6, above rounding: the budget ends the polish
        res = antipodal_search(SPHEROID_5D, Ball(5, 1.0), seed=7, budget=budget)
        assert res.evaluations == grid_size(budget) + 9 * res.gauss_newton_steps <= budget
        assert res.evaluations + 9 > budget

    def test_degenerate_base_in_grid_raises_for_first_direction_scanned(self):
        from brightlab.sampling import hemisphere_grid

        grid = hemisphere_grid(3, grid_size(640), 5)
        # -grid[4] comes before grid[9] in a one-by-one scan of +-grid
        base = DentedBall(3, [(grid[9], -0.5), (-grid[4], -2.0)])
        with pytest.raises(PreconditionError, match="smallest eigenvalue -2.000000e"):
            antipodal_search(Ball(3, 2.0), base, seed=5, budget=640)

    @pytest.mark.parametrize("objective", ["umbilic", "antipodal"])
    def test_final_point_is_certified_once(self, monkeypatch, objective):
        from brightlab import weingarten

        calls = []
        counted = weingarten.relative_maps

        def spy(body, base, u, bases):
            calls.append(len(u))
            # each direction is mapped in a frame of its own u^perp
            assert np.abs(np.einsum("ij,ijk->ik", u, bases)).max() < 1e-12
            return counted(body, base, u, bases)

        monkeypatch.setattr(weingarten, "relative_maps", spy)
        res = antipodal_search(SPHEROID_5D, Ball(5, 1.0), seed=1, objective=objective)
        # one call for the grid at +-grid, one per Gauss-Newton iteration at
        # +-(centre and 8 chart neighbours), and one pair of maps at +-u0
        # that both the umbilic certificate and r_defect read
        assert res.gauss_newton_steps >= 1
        assert calls == [2 * grid_size(4000)] + [18] * res.gauss_newton_steps + [2]
        u0 = res.umbilic.u0
        v = np.stack([u0, -u0])
        r_pos, r_neg = np.linalg.eigvalsh(relative_maps(SPHEROID_5D, Ball(5, 1.0), v, tangent_frames(v)))
        assert res.r_defect == pytest.approx(np.linalg.norm(r_pos - r_neg), abs=1e-12)

    def test_polish_returns_the_previous_centre_when_the_residual_grows(self, monkeypatch):
        from brightlab import weingarten

        centres = []
        counted, residuals = weingarten.relative_maps, weingarten._residuals

        def spy(body, base, u, bases):
            centres.append(u[0])  # grid[0] first, then each centre
            return counted(body, base, u, bases)

        def growing(maps, bases, objective):
            # the second iteration's centre reads 1e6 times worse than the first
            return residuals(maps, bases, objective) * 1e6 ** len(centres)

        monkeypatch.setattr(weingarten, "relative_maps", spy)
        monkeypatch.setattr(weingarten, "_residuals", growing)
        res = antipodal_search(SPHEROID_5D, Ball(5, 1.0), seed=1)
        assert res.gauss_newton_steps == 2 and res.evaluations == grid_size(4000) + 18
        assert np.array_equal(res.umbilic.u0, centres[1])
        assert not np.array_equal(centres[2], centres[1])

    def test_residual_matches_its_definition(self):
        body = HarmonicPerturbation(SPHEROID_5D, (0.0, 0.0, 0.0, 0.0, 1.0), (0.0, 0.3), 0.2)
        base = Ellipsoid(np.diag([1.0, 1.69, 0.64, 1.21, 0.81]))
        points = haar_directions(5, 3, 16)
        frames = tangent_frames(points)
        v = np.stack([points, -points], axis=1).reshape(-1, 5)
        maps = relative_maps(body, base, v, frames.repeat(2, axis=0))
        umbilic, antipodal = (_residuals(maps, frames, objective) for objective in ("umbilic", "antipodal"))
        for p, b, pair, res_u, res_a in zip(points, frames, maps.reshape(3, 2, 4, 4), umbilic, antipodal):
            r0 = umbilic_at(body, base, p).r0
            want = [b @ m @ b.T - r0 * (np.eye(5) - np.outer(p, p)) for m in pair]
            np.testing.assert_allclose(res_u, np.ravel(want), rtol=0, atol=1e-13)
            sums = [[np.trace(np.linalg.matrix_power(m, j)) for j in range(1, 5)] for m in pair]
            np.testing.assert_allclose(res_a, np.subtract(*sums), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("objective", ["umbilic", "antipodal"])
    def test_residual_does_not_depend_on_frame(self, objective):
        points = haar_directions(5, 4, 13)
        frames = tangent_frames(points)
        q, _ = np.linalg.qr(np.random.default_rng(14).standard_normal((4, 4)))
        body = HarmonicPerturbation(SPHEROID_5D, (0.0, 0.0, 0.0, 0.0, 1.0), (0.0, 0.3), 0.2)
        base = Ellipsoid(np.diag([1.0, 1.69, 0.64, 1.21, 0.81]))
        v = np.stack([points, -points], axis=1).reshape(-1, 5)
        residuals = [
            _residuals(relative_maps(body, base, v, b.repeat(2, axis=0)), b, objective)
            for b in (frames, frames @ q)
        ]
        assert np.abs(residuals[0]).max() > 1e-2
        # ambient entries agree to 1e-13; power sums up to tr M^4 ~ 20 relatively
        rtol, atol = (0.0, 1e-13) if objective == "umbilic" else (1e-13, 0.0)
        np.testing.assert_allclose(residuals[1], residuals[0], rtol=rtol, atol=atol)

    def test_residual_vanishes_for_a_ball_pair(self):
        points = haar_directions(3, 6, 15)
        frames = tangent_frames(points)
        v = np.stack([points, -points], axis=1).reshape(-1, 3)
        maps = relative_maps(Ball(3, 2.0), Ball(3, 1.0), v, frames.repeat(2, axis=0))
        assert not _residuals(maps, frames, "antipodal").any()
        # the umbilic residual is rounding, below the search's stop at 8 eps sqrt(18) 2 = 1.5e-14
        assert np.linalg.norm(_residuals(maps, frames, "umbilic"), axis=1).max() <= 1e-15

    @pytest.mark.parametrize("objective", ["umbilic", "antipodal"])
    def test_asymmetric_base_refused_before_the_grid(self, monkeypatch, objective):
        from brightlab import weingarten

        # the odd cubic term breaks h0(v) = h0(-v); unchecked, the antipodal
        # objective certifies this pair with search_defect 0
        base = HarmonicPerturbation(Ball(5, 1.0), (0.0, 0.0, 0.0, 0.0, 1.0), (0.0, 1.0), 0.05)

        def no_maps(body, base, u, bases):
            raise AssertionError("the grid was scored")

        monkeypatch.setattr(weingarten, "relative_maps", no_maps)
        with pytest.raises(PreconditionError, match="base body is not centrally symmetric"):
            antipodal_search(SPHEROID_5D, base, seed=1, objective=objective)

    def test_search_argument_validation(self):
        with pytest.raises(ValueError):
            antipodal_search(Ball(3, 1.0), Ball(3, 1.0), objective="gradient")
        with pytest.raises(ValueError):
            antipodal_search(Ball(3, 1.0), Ball(3, 1.0), budget=4)

    def test_eigen_profile_is_sorted(self):
        # the relative radii the search compares are the ascending eigenvalues
        # of the relative maps; against the unit ball they are E4's radii
        dirs = haar_directions(4, 5, 12)
        frames = tangent_frames(dirs)
        radii = np.linalg.eigvalsh(relative_maps(E4, Ball(4, 1.0), dirs, frames))
        assert np.all(np.diff(radii, axis=1) >= 0)
        assert np.allclose(radii, np.linalg.eigvalsh(E4.jets(dirs, frames)[2]), atol=1e-10)


def shipped_umbilic_pair(config):
    """(body, base, budget, objective) of ``umbilic-search`` at its defaults or a shipped config."""
    from brightlab import cli
    from brightlab.body import body_from_dict

    params = dict(cli._SCENARIOS["umbilic-search"].defaults)
    if config is not None:
        params.update(json.loads((ROOT / "scripts" / "configs" / config).read_text()))
    body, base = (body_from_dict(params[key]) for key in ("body", "base"))
    return body, base, params["budget"], params["objective"]


class ThinBall(Ball):
    """A ball whose first tangential radius in every frame is ``thin`` instead of 1."""

    def __init__(self, dim, thin):
        super().__init__(dim, 1.0)
        object.__setattr__(self, "thin", thin)

    def jets(self, u, frames):
        values, gradients, hessians = super().jets(u, frames)
        hessians[:, :1, :1] = self.thin  # frames may have no column
        return values, gradients, hessians


class TestGrid:
    """The umbilic grid: its radii, and its size against the polish it feeds."""

    PAIRS = [
        (SPHEROID_5D, Ball(5, 1.0)),
        ANTIPODAL_PAIRS[1][:2],
        (
            HarmonicPerturbation(SPHEROID_5D, (0.0, 0.0, 0.0, 0.0, 1.0), (0.0, 0.3), 0.2),
            Ellipsoid(np.diag([1.0, 1.69, 0.64, 1.21, 0.81])),
        ),
    ]

    @pytest.mark.parametrize("pair", range(len(PAIRS)))
    def test_grid_maps_are_each_directions_pair(self, pair):
        # the grid's one stacked call against relative_maps one direction at a
        # time: the pair at +-u in the frame built at u, and the radii in frames
        # built at u and at -u
        from brightlab import weingarten
        from brightlab.sampling import hemisphere_grid

        body, base = self.PAIRS[pair]
        grid = hemisphere_grid(body.dim, grid_size(4000), 7)
        maps, bases = weingarten._antipodal_maps(body, base, grid)
        radii = np.linalg.eigvalsh(maps)
        for i, u in enumerate(grid):
            v = np.stack([u, -u])
            pair_maps = relative_maps(body, base, v, np.stack([bases[i], bases[i]]))
            np.testing.assert_allclose(maps[2 * i : 2 * i + 2], pair_maps, rtol=0, atol=1e-14)
            own = np.linalg.eigvalsh(relative_maps(body, base, v, tangent_frames(v)))
            np.testing.assert_allclose(radii[2 * i : 2 * i + 2], own, rtol=1e-12, atol=0)

    def test_shipped_antipodal_grid_keeps_a_margin(self):
        # at seed 30 a 50-point grid polishes a point of a wrong basin; the
        # shipped budget's 100-point grid finds the zero curve
        body, base, budget, objective = shipped_umbilic_pair("umbilic_antipodal.json")
        assert (grid_size(1000), grid_size(budget)) == (50, 100)
        small = antipodal_search(body, base, seed=30, budget=1000, objective=objective)
        assert small.r_defect > 5e-2 and not small.converged
        res = antipodal_search(body, base, seed=30, budget=budget, objective=objective)
        assert res.converged and res.r_defect <= 1e-13

    def test_polish_record_skips_a_grid_of_polish_size(self, monkeypatch):
        # a budget of 180 makes the grid 2n - 1 = 9 points, the rows of an
        # iteration; polish_path must not count it as one
        assert grid_size(180) == 2 * SPHEROID_5D.dim - 1
        res, centres, _ = polish_path(monkeypatch, SPHEROID_5D, Ball(5, 1.0), seed=1, budget=180)
        assert len(centres) == res.gauss_newton_steps >= 1
        assert res.evaluations == 9 + 9 * res.gauss_newton_steps

    def test_thin_base_above_the_floor_is_accepted(self):
        # 2 x 2 base maps diag(1.5e-12, 1) clear the positive-definite floor
        # 1e-12 max(1, 1) of relative_maps, so nothing is refused; radii near
        # 2 / 1.5e-12 against 2 certify no umbilic
        res = antipodal_search(Ball(3, 2.0), ThinBall(3, 1.5e-12), seed=2, budget=160)
        assert res.umbilic.r0 > 1e11 and not res.converged


class TestRevolutionStructure:
    def test_spheroid_equatorial_eigenvalues(self):
        a, b = 1.0, 1.4
        sph = Spheroid((0.0, 0.0, 0.0, 1.0), a, b)
        u = np.array([1.0, 0.0, 0.0, 0.0])
        es = revolution_eigenstructure(sph, sph.axis, u)
        assert es.equatorial == pytest.approx(a, abs=1e-10)
        assert es.axial == pytest.approx(b * b / a, abs=1e-10)
        assert es.axial_residual < 1e-10
        assert es.isotropy_residual < 1e-10

    def test_general_latitude_matches_profile_formulas(self):
        a, b = 1.0, 1.4
        d = b * b - a * a
        sph = Spheroid((0.0, 0.0, 1.0), a, b)
        t = 0.6
        c = np.sqrt(1 - t * t)
        u = np.array([c, 0.0, t])
        es = revolution_eigenstructure(sph, sph.axis, u)
        g = np.sqrt(a * a + d * t * t)
        g1 = d * t / g
        g2 = d / g - (d * t) ** 2 / g**3
        assert es.equatorial == pytest.approx(g - t * g1, abs=1e-10)
        assert es.axial == pytest.approx((1 - t * t) * g2 + g - t * g1, abs=1e-10)

    def test_ball_gets_wildcard_axis(self):
        # every axis is an axis of revolution of a ball
        for axis in haar_directions(4, 3, 4):
            u = np.array([1.0, 0.0, 0.0, 0.0])
            u -= (u @ axis) * axis
            es = revolution_eigenstructure(Ball(4, 2.0), axis, u / np.linalg.norm(u))
            assert es.axial == pytest.approx(2.0)
            assert es.equatorial == pytest.approx(2.0)

    def test_axis_direction_rejected(self):
        sph = Spheroid((0.0, 0.0, 1.0), 1.0, 1.4)
        with pytest.raises(ValueError, match="differ from the axis"):
            revolution_eigenstructure(sph, sph.axis, np.array([0.0, 0.0, 1.0]))

    def test_non_unit_axis_rejected(self):
        sph = Spheroid((0.0, 0.0, 1.0), 1.0, 1.4)
        u = np.array([1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="unit length"):
            revolution_eigenstructure(sph, (0.0, 0.0, 2.0), u)
        with pytest.raises(ValueError, match="unit length"):
            revolution_relations_check(sph, Ball(3, 1.0), (0.0, 0.0, 2.0), 1, 1.0, 1.96, u)

    def test_non_revolution_body_rejected(self):
        with pytest.raises(ValueError, match="not a body of revolution"):
            revolution_eigenstructure(E4, (0.0, 0.0, 0.0, 1.0), np.array([1.0, 0.0, 0.0, 0.0]))

    def test_ellipsoid_with_two_equal_semiaxes_is_a_revolution_body(self):
        # the spheroid of semiaxes (1, 1, 1, 1.4) about e4, given by its shape matrix
        ell = Ellipsoid(np.diag([1.0, 1.0, 1.0, 1.96]))
        u = np.array([0.6, 0.0, 0.0, 0.8])
        es = revolution_eigenstructure(ell, (0.0, 0.0, 0.0, 1.0), u)
        ref = revolution_eigenstructure(SPHEROID_4D, SPHEROID_4D.axis, u)
        assert es.axial == pytest.approx(ref.axial, abs=1e-12)
        assert es.equatorial == pytest.approx(ref.equatorial, abs=1e-12)
        assert es.axial_residual < 1e-12 and es.isotropy_residual < 1e-12

    @pytest.mark.parametrize(
        "body",
        [
            MinkowskiSum((SPHEROID_4D, Ball(4, 0.5))),
            HarmonicPerturbation(Ball(4, 1.0), (0.0, 0.0, 0.0, 1.0), (0.1, -0.05), 1.0),
            Homothet(SPHEROID_4D, 1.3, (0.3, -1.0, 2.0, 0.5)),
        ],
        ids=["minkowski_sum", "harmonic_perturbation", "shifted_homothet"],
    )
    def test_coaxial_composites_accepted(self, body):
        u = np.array([0.6, 0.0, 0.0, 0.8])
        es = revolution_eigenstructure(body, SPHEROID_4D.axis, u)
        assert es.axial_residual < 1e-10 and es.isotropy_residual < 1e-10

    def test_planar_body_refused_before_any_jet(self, monkeypatch):
        # at n = 2 the equatorial block is 0 x 0; its mean would divide by n - 2 = 0
        sph = Spheroid((0.0, 1.0), 1.0, 1.4)

        def no_jets(self, u):
            raise AssertionError("jets evaluated")

        monkeypatch.setattr(type(sph), "jets", no_jets)
        with pytest.raises(ValueError, match="n >= 3, got n = 2"):
            revolution_eigenstructure(sph, (0.0, 1.0), np.array([1.0, 0.0]))


class TestRevolutionRelations:
    def test_homothetic_spheroid_pair(self):
        lam = 1.2
        base = Spheroid((0.0, 0.0, 0.0, 1.0), 1.0, 1.4)
        body = Homothet(base, lam, ())
        u = np.array([1.0, 0.0, 0.0, 0.0])
        n = 4
        for i in (1, 2):
            alpha, beta = lam**i, lam ** (n - 1)
            defects = revolution_relations_check(body, base, base.axis, i, alpha, beta, u)
            assert defects.max_defect() < 1e-8
            assert defects.consequence < 1e-8

    def test_wrong_constants_reported(self):
        base = Spheroid((0.0, 0.0, 0.0, 1.0), 1.0, 1.4)
        body = Homothet(base, 1.2, ())
        u = np.array([1.0, 0.0, 0.0, 0.0])
        defects = revolution_relations_check(body, base, base.axis, 1, 1.0, 1.0, u)
        assert defects.max_defect() > 1e-2

    def test_non_parallel_axes_rejected(self):
        a = Spheroid((0.0, 0.0, 1.0), 1.0, 1.4)
        b = Spheroid((0.0, 1.0, 0.0), 1.0, 1.4)
        # at u = e1 the Hessian of b has the block structure about a's axis; the
        # radii of b change only as u turns about it
        with pytest.raises(ValueError, match="not a body of revolution about the axis"):
            revolution_relations_check(a, b, a.axis, 1, 1.0, 1.0, np.array([1.0, 0.0, 0.0]))

    def test_isotropic_pair_holds_about_any_axis(self):
        body = Homothet(Ball(3, 1.0), 1.3)
        for axis in haar_directions(3, 4, 9):
            u = np.cross(axis, [1.0, 0.0, 0.0])
            u /= np.linalg.norm(u)
            defects = revolution_relations_check(
                Ball(3, 1.0), body, axis, 1, 1 / 1.3, 1 / 1.69, u
            )
            assert defects.max_defect() <= 1e-12
            assert defects.consequence <= 1e-12

    def test_ball_base_acts_as_wildcard(self):
        sph = Spheroid((0.0, 0.0, 1.0), 1.0, 1.4)
        u = np.array([1.0, 0.0, 0.0])
        defects = revolution_relations_check(sph, Ball(3, 1.0), sph.axis, 1, 1.0, 1.4**2, u)
        # x = (a, b^2/a) vs y = (1, 1): pure_i |2*1 - 2*1| = 0,
        # mixed relations with alpha=1, beta=b^2 hold at the equator
        assert defects.pure_i < 1e-10
        assert defects.mixed_top < 1e-10

    def test_equatorial_direction_required(self):
        sph = Spheroid((0.0, 0.0, 1.0), 1.0, 1.4)
        base = Ball(3, 1.0)
        tilted = np.array([np.sqrt(1 - 0.04), 0.0, 0.2])
        with pytest.raises(ValueError):
            revolution_relations_check(sph, base, sph.axis, 1, 1.0, 1.0, tilted)

    def test_grade_range_enforced(self):
        sph = Spheroid((0.0, 0.0, 1.0), 1.0, 1.4)
        with pytest.raises(ValueError):
            revolution_relations_check(
                sph, Ball(3, 1.0), sph.axis, 2, 1.0, 1.0, np.array([1.0, 0, 0])
            )
