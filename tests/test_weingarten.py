"""Reverse Weingarten maps, wedge identities, umbilic search, revolution bodies."""

import numpy as np
import pytest

from brightlab.body import (
    Ball,
    Ellipsoid,
    HarmonicPerturbation,
    Homothet,
    MinkowskiSum,
    Spheroid,
)
from brightlab.errors import PreconditionError
from brightlab.multilinear import SymKForm, compound, polarization_check
from brightlab.sampling import as_rng, haar_directions, hemisphere_grid
from brightlab.weingarten import (
    _search_objective,
    antipodal_search,
    det_ratio_constancy,
    relative_maps,
    relative_wedge_defect,
    reverse_weingarten,
    revolution_eigenstructure,
    revolution_relations_check,
    tangent_frames,
    umbilic_check,
    wedge_identity_defects,
)

E4 = Ellipsoid(np.diag([1.0, 1.69, 0.64, 1.21]))
K4 = Homothet(E4, 0.7, (0.1, 0.0, -0.2, 0.0))
E6 = Ellipsoid(np.diag([1.0, 1.69, 0.64, 1.21, 0.81, 1.44]))
K6 = Homothet(E6, 0.7, (0.1, 0.0, -0.2, 0.0, 0.05, 0.0))
SPHEROID_4D = Spheroid((0.0, 0.0, 0.0, 1.0), 1.0, 1.4)
SPHEROID_5D = Spheroid((0.0, 0.0, 0.0, 0.0, 1.0), 1.0, 1.4)

# antipodal_search results on the seeded Haar hemisphere grid: seed -> (evaluations, u0)
UMBILIC_SEARCH_DEFAULTS = {
    0: (1264, [4.27345296853446e-06, -1.2178352459823613e-05, -1.0789146863318967e-05,
               1.7104254798677255e-05, 0.9999999997122322]),
    1: (1264, [-2.3412734332802677e-05, -3.240897286283248e-06, 1.0874319794645425e-05,
               1.5484615749699075e-05, 0.9999999995416582]),
    2: (1280, [2.0871520284379643e-05, 1.976162639803694e-05, 8.206842541923517e-07,
               -2.690134474579223e-05, 0.999999999224751]),
    3: (1272, [-2.217391437072514e-05, -1.0682269693065877e-05, -3.624847874615164e-05,
               1.4632164253731747e-05, 0.9999999989330772]),
    4: (1296, [-1.1246598666914933e-05, -2.6033707392983904e-05, 1.910525591274735e-05,
               1.821018427884314e-05, 0.9999999992495694]),
}
ANTIPODAL_ELLIPSOIDS = {
    0: (638, [0.1865168763949313, -0.19597346002732666, 0.950047103190218, 0.15561606441711276]),
    1: (638, [-0.21424427007839494, -0.5093606231982167, -0.20485384406841473, 0.8078898754434873]),
}
ANTIPODAL_PERTURBED = {
    0: (632, [0.9999999999952454, -3.0837315570437897e-06, 3.2799260401789104e-10]),
    1: (628, [0.999999999998876, 1.4993268928010544e-06, -5.320276062510212e-10]),
}

ANTIPODAL_PAIRS = [
    (E4, Ellipsoid(np.diag([1.44, 0.81, 1.0, 0.49])), ANTIPODAL_ELLIPSOIDS),
    (
        HarmonicPerturbation(Ball(3, 1.0), (0.0, 0.0, 1.0), (0.0, 0.3), 0.2),
        Ellipsoid(np.diag([1.0, 1.44, 0.81])),
        ANTIPODAL_PERTURBED,
    ),
]


def wedge_defect_oracle(body, base, k, beta, u):
    """The wedge identity defect at one direction, one map at a time."""
    frame = tangent_frames(u[None])
    lu = reverse_weingarten(body, u[None], frame)[0]
    lmu = reverse_weingarten(body, -u[None], frame)[0]
    l0 = reverse_weingarten(base, u[None], frame)[0]
    lhs = compound(lu, k) + compound(lmu, k)
    return np.linalg.norm(lhs - 2.0 * beta * compound(l0, k), 2)


def _poll(start, move):
    cand = start + move
    return cand / np.linalg.norm(cand)


def compass_oracle(body, base, seed, budget=4000, objective="umbilic"):
    """``antipodal_search``'s grid and compass, scoring one poll per objective call.

    Returns the evaluation count, the final point and the walk: one
    (sweep start, moves, poll index, accepted) entry per scored poll, where
    poll i of a sweep sits at normalize(point + moves[i]).
    """
    n = body.dim
    grid = hemisphere_grid(n, max(8, budget // 4), seed)
    values = _search_objective(body, base, grid, objective)
    evals = len(grid)
    best_u, best_f = grid[0], values[0]
    for u, val in zip(grid[1:], values[1:]):
        if val < best_f - max(1e-18, 1e-12 * best_f):
            best_f, best_u = val, u
    walk = []
    step = 0.5
    while step > 1e-7 and evals + 2 * (n - 1) <= budget:
        improved = False
        frame = tangent_frames(best_u[None])[0].T
        moves = [sign * step * b for b in frame for sign in (1.0, -1.0)]
        for i, move in enumerate(moves):
            cand = _poll(best_u, move)
            val = _search_objective(body, base, cand[None], objective)[0]
            evals += 1
            accepted = val < best_f - max(1e-18, 1e-12 * best_f)
            walk.append((best_u, moves, i, accepted))
            if accepted:
                best_f, best_u = val, cand
                improved = True
        if not improved:
            step *= 0.5
    return evals, best_u, walk


class DentedBall(Ball):
    """The unit ball with its Hessian scaled by a factor at each of a few directions."""

    def __init__(self, dim, dents):
        super().__init__(dim, 1.0)
        object.__setattr__(self, "dents", dents)  # [(direction, factor), ...]

    def jets(self, u):
        values, gradients, hessians = super().jets(u)
        for direction, factor in self.dents:
            hessians[np.abs(u - direction).max(axis=1) < 1e-12] *= factor
        return values, gradients, hessians


class TestTangentFrame:
    def test_frames_are_orthonormal_and_span_u_perp(self):
        dirs = haar_directions(5, 20, as_rng(0))
        for u, basis in zip(dirs, tangent_frames(dirs)):
            assert basis.shape == (5, 4)
            assert np.allclose(basis.T @ basis, np.eye(4), atol=1e-12)
            assert np.abs(basis.T @ u).max() < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_stacked_frames_match_single_frames(self, n):
        # e_1 takes the identity branch; -e_1 and e_n the reflection
        eye = np.eye(n)
        dirs = np.vstack([eye[0], -eye[0], eye[-1], haar_directions(n, 20, as_rng(2))])
        bases = tangent_frames(dirs)
        assert bases.shape == (len(dirs), n, n - 1)
        for u, basis in zip(dirs, bases):
            np.testing.assert_allclose(basis, tangent_frames(u[None])[0], rtol=0, atol=1e-14)
        assert np.array_equal(bases[0], eye[:, 1:])

    def test_stacked_frames_reject_non_unit_rows(self):
        dirs = haar_directions(3, 4, as_rng(3))
        dirs[2] *= 1.001
        with pytest.raises(ValueError, match="unit length"):
            tangent_frames(dirs)
        with pytest.raises(ValueError):
            tangent_frames(dirs[0])

    def test_frame_choice_does_not_change_spectra(self):
        rng = as_rng(1)
        for u in haar_directions(4, 10, rng):
            frame = tangent_frames(u[None])
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))  # another basis of u^perp
            a = reverse_weingarten(E4, u[None], frame)[0]
            b = reverse_weingarten(E4, u[None], frame @ q)[0]
            assert np.allclose(np.linalg.eigvalsh(a), np.linalg.eigvalsh(b), atol=1e-10)
            assert np.linalg.det(a) == pytest.approx(np.linalg.det(b), rel=1e-10)


class TestReverseWeingarten:
    def test_ball_map_is_radius_times_identity(self):
        u = np.array([[0.0, 1.0, 0.0]])
        m = reverse_weingarten(Ball(3, 2.5), u)
        assert m.shape == (1, 2, 2)
        assert np.allclose(m[0], 2.5 * np.eye(2), atol=1e-12)

    def test_spheroid_pole_and_equator(self):
        sph = Spheroid((0.0, 0.0, 1.0), 1.0, 1.4)
        pole, eq = np.linalg.eigvalsh(reverse_weingarten(sph, np.eye(3)[[2, 0]]))
        assert np.allclose(pole, 1.0 / 1.4, atol=1e-12)
        assert np.allclose(eq, [1.0, 1.4**2], atol=1e-12)

    def test_homothet_scales_the_map(self):
        dirs = haar_directions(4, 10, as_rng(2))
        a = reverse_weingarten(K4, dirs)
        b = reverse_weingarten(E4, dirs)
        assert a.shape == (10, 3, 3)
        assert np.allclose(a, 0.7 * b, atol=1e-12)


class TestRelativeMap:
    def test_relative_to_unit_ball_is_plain_map(self):
        dirs = haar_directions(4, 5, as_rng(3))
        frames = tangent_frames(dirs)
        rel = relative_maps(E4, Ball(4, 1.0), dirs, frames)
        plain = reverse_weingarten(E4, dirs, frames)
        assert np.allclose(rel, plain, atol=1e-10)

    def test_homothet_pair_is_isotropic(self):
        rel = relative_maps(K4, E4, haar_directions(4, 10, as_rng(4)))
        assert rel.shape == (10, 3, 3)
        assert np.allclose(rel, 0.7 * np.eye(3), atol=1e-10)

    def test_degenerate_base_raises_with_eigenvalue(self):
        flat = Homothet(Ball(3, 1.0), 1.0, (0.0, 0.0, 0.0))

        class FlatBase:
            dim = 3

            def support(self, x):
                return float(np.abs(np.asarray(x)[2]))

            def jets(self, u):
                u = np.asarray(u, dtype=float)
                gradients = np.zeros_like(u)
                gradients[:, 2] = np.where(u[:, 2] >= 0, 1.0, -1.0)
                return np.abs(u[:, 2]), gradients, np.zeros((len(u), 3, 3))

        with pytest.raises(PreconditionError) as err:
            relative_maps(flat, FlatBase(), np.array([[0.0, 0.0, 1.0]]))
        assert "smallest eigenvalue" in str(err.value)


class TestWedgeIdentity:
    def test_homothet_pair_satisfies_identity_all_grades(self):
        dirs = haar_directions(4, 25, as_rng(5))
        defects = wedge_identity_defects(K4, E4, [1, 2, 3], [0.7, 0.7**2, 0.7**3], dirs)
        assert defects.shape == (3, 25)
        assert defects.max() < 1e-10

    def test_translation_invariance(self):
        shifted = Homothet(E4, 1.0, (0.4, -0.1, 0.0, 0.2))
        dirs = haar_directions(4, 10, as_rng(6))
        worst = wedge_identity_defects(shifted, E4, [2], [1.0], dirs).max()
        assert worst < 1e-10

    def test_asymmetric_perturbation_violates_beta_one(self):
        # a linear odd term would only translate the ball; the cubic term
        # genuinely breaks central symmetry of the curvature
        body = HarmonicPerturbation(Ball(4, 1.0), (0.0, 0.0, 0.0, 1.0), (0.0, 0.4), 0.3)
        dirs = haar_directions(4, 10, as_rng(7))
        worst = wedge_identity_defects(body, Ball(4, 1.0), [2], [1.0], dirs).max()
        assert worst > 1e-3

    def test_asymmetric_base_rejected(self):
        asym = Homothet(E4, 1.0, (0.5, 0.0, 0.0, 0.0))
        with pytest.raises(PreconditionError) as err:
            wedge_identity_defects(E4, asym, [1], [1.0], np.array([[1.0, 0.0, 0.0, 0.0]]))
        assert "centrally symmetric" in str(err.value)
        with pytest.raises(PreconditionError, match="centrally symmetric"):
            wedge_identity_defects(E4, asym, [2], [1.0], haar_directions(4, 50, as_rng(13)))

    def test_grades_and_betas_must_align(self):
        with pytest.raises(ValueError):
            wedge_identity_defects(K4, E4, [1, 2], [0.7], haar_directions(4, 5, as_rng(17)))

    @pytest.mark.parametrize(
        "body, base, grades", [(K4, E4, (1, 2, 3)), (K6, E6, (2, 3, 4)), (E6, Ball(6, 1.0), (2, 5))]
    )
    def test_sweep_matches_per_direction_formula(self, body, base, grades):
        dirs = haar_directions(body.dim, 40, as_rng(14))
        betas = [0.7**k for k in grades]
        defects = wedge_identity_defects(body, base, grades, betas, dirs)
        assert defects.shape == (len(grades), 40)
        single = wedge_identity_defects(body, base, grades, betas, dirs[3:4])
        for k, beta, swept, one in zip(grades, betas, defects, single):
            expected = [wedge_defect_oracle(body, base, k, beta, u) for u in dirs]
            np.testing.assert_allclose(swept, expected, rtol=0, atol=1e-14)
            assert one[0] == swept[3]

    @pytest.mark.parametrize("body, base", [(K4, E4), (K6, E6)])
    def test_grade_sweep_equals_per_grade_rows_bit_for_bit(self, body, base):
        dirs = haar_directions(body.dim, 30, as_rng(15))
        grades, betas = [1, 2, 3], [0.7, 0.7**2, 0.7**3]
        defects = wedge_identity_defects(body, base, grades, betas, dirs)
        for row, k, beta in zip(defects, grades, betas):
            assert np.array_equal(row, wedge_identity_defects(body, base, [k], [beta], dirs)[0])

    def test_eigvalsh_norm_matches_spectral_norm(self):
        # off-beta ratios make the defect matrices large, so the two norms
        # are compared far from the rounding floor
        dirs = haar_directions(4, 20, as_rng(16))
        for k in (1, 2, 3):
            beta = 1.1 * 0.7**k
            defects = wedge_identity_defects(K4, E4, [k], [beta], dirs)[0]
            expected = [wedge_defect_oracle(K4, E4, k, beta, u) for u in dirs]
            scale = max(expected)
            assert scale > 1e-2
            np.testing.assert_allclose(defects, expected, rtol=0, atol=1e-15 * scale)

    def test_relative_version_matches_and_diagonalizes(self):
        dirs = haar_directions(4, 10, as_rng(8))
        for k in (1, 2):
            beta = 0.7**k
            worst = max(relative_wedge_defect(K4, E4, k, beta, u) for u in dirs)
            assert worst < 1e-9

    def test_relative_version_reports_violation(self):
        body = HarmonicPerturbation(Ball(4, 1.0), (0.0, 0.0, 0.0, 1.0), (0.0, 0.4), 0.3)
        u = haar_directions(4, 1, as_rng(9))[0]
        assert relative_wedge_defect(body, Ball(4, 1.0), 2, 1.0, u) > 1e-3

    def test_forms_from_both_sides_polarize_equal(self):
        # the two averaged wedge forms agree as forms, reconstructed from
        # decomposable evaluations alone
        u = haar_directions(4, 1, as_rng(10))
        frame = tangent_frames(u)
        k, beta = 2, 0.7**2
        (lu,) = reverse_weingarten(K4, u, frame)
        (lmu,) = reverse_weingarten(K4, -u, frame)
        (l0,) = reverse_weingarten(E4, u, frame)
        lhs = SymKForm.from_map(lu, k) + SymKForm.from_map(lmu, k)
        rhs = SymKForm(2.0 * beta * compound(l0, k), 3, k)
        result = polarization_check(lhs, rhs, tol=1e-9)
        assert result.concluded and result.equal


class TestUmbilic:
    def test_ball_pair_is_umbilic_everywhere(self):
        u = haar_directions(3, 1, as_rng(11))[0]
        res = umbilic_check(Ball(3, 2.0), Ball(3, 1.0), u)
        assert res.is_umbilic
        assert res.r0 == pytest.approx(2.0)
        assert res.defect < 1e-12
        # boundary points at +-u0 are antipodal on the sphere
        p, q = res.boundary_points
        assert np.allclose(p, -q, atol=1e-12)

    def test_spheroid_pole_is_relative_umbilic(self):
        sph = Spheroid((0.0, 0.0, 0.0, 0.0, 1.0), 1.0, 1.4)
        res = umbilic_check(sph, Ball(5, 1.0), np.array([0.0, 0.0, 0.0, 0.0, 1.0]))
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
        first = hemisphere_grid(3, max(8, 640 // 4), 5)[0]
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

    @pytest.mark.parametrize("seed", sorted(UMBILIC_SEARCH_DEFAULTS))
    def test_search_defaults_pinned(self, seed):
        evaluations, u0 = UMBILIC_SEARCH_DEFAULTS[seed]
        res = antipodal_search(SPHEROID_5D, Ball(5, 1.0), seed=seed)
        assert res.evaluations == evaluations
        np.testing.assert_allclose(res.umbilic.u0, u0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("body, base, pins", ANTIPODAL_PAIRS)
    def test_antipodal_objective_pinned(self, body, base, pins):
        for seed, (evaluations, u0) in pins.items():
            res = antipodal_search(body, base, seed=seed, budget=2000, objective="antipodal")
            assert res.evaluations == evaluations
            np.testing.assert_allclose(res.umbilic.u0, u0, rtol=0, atol=1e-12)
            assert res.converged

    def test_degenerate_base_in_grid_raises_for_first_direction_scanned(self):
        from brightlab.sampling import hemisphere_grid

        grid = hemisphere_grid(3, 160, 5)
        # -grid[4] comes before grid[9] in a one-by-one scan of +-grid
        base = DentedBall(3, [(grid[9], -0.5), (-grid[4], -2.0)])
        with pytest.raises(PreconditionError, match="smallest eigenvalue -2.000000e"):
            antipodal_search(Ball(3, 2.0), base, seed=5, budget=640)

    @pytest.mark.parametrize("seed", range(10))
    def test_stacked_compass_matches_one_poll_compass(self, seed):
        evaluations, u0, _ = compass_oracle(SPHEROID_5D, Ball(5, 1.0), seed)
        res = antipodal_search(SPHEROID_5D, Ball(5, 1.0), seed=seed)
        assert res.evaluations == evaluations
        assert np.array_equal(res.umbilic.u0, u0)
        assert res.objective_rows >= evaluations

    @pytest.mark.parametrize("pair", [0, 1])
    def test_stacked_compass_matches_one_poll_compass_antipodal(self, pair):
        body, base = ANTIPODAL_PAIRS[pair][:2]
        for seed in range(4):
            evaluations, u0, _ = compass_oracle(body, base, seed, 2000, "antipodal")
            res = antipodal_search(body, base, seed=seed, budget=2000, objective="antipodal")
            assert res.evaluations == evaluations
            assert np.array_equal(res.umbilic.u0, u0)

    def test_compass_batches_its_polls(self):
        first, again = (antipodal_search(SPHEROID_5D, Ball(5, 1.0), seed=1) for _ in range(2))
        # at most one call for the grid, one per sweep and one after each accepted poll
        assert first.objective_calls <= 60
        assert (first.objective_calls, first.objective_rows) == (
            again.objective_calls,
            again.objective_rows,
        )

    @pytest.mark.parametrize("objective", ["umbilic", "antipodal"])
    def test_final_point_is_certified_once(self, monkeypatch, objective):
        from brightlab import weingarten

        calls = []
        counted = weingarten.relative_maps

        def spy(body, base, u, bases=None):
            calls.append(len(u))
            return counted(body, base, u, bases)

        monkeypatch.setattr(weingarten, "relative_maps", spy)
        res = antipodal_search(SPHEROID_5D, Ball(5, 1.0), seed=1, objective=objective)
        # one call per objective call, and one pair of maps at +-u0 that both
        # the umbilic certificate and r_defect read
        assert len(calls) == res.objective_calls + 1
        assert calls[-1] == 2
        u0 = res.umbilic.u0
        r_pos, r_neg = np.linalg.eigvalsh(relative_maps(SPHEROID_5D, Ball(5, 1.0), np.stack([u0, -u0])))
        assert res.r_defect == pytest.approx(np.linalg.norm(r_pos - r_neg), abs=1e-12)

    def test_degenerate_base_at_unwalked_poll_does_not_raise(self):
        body = HarmonicPerturbation(Ball(3, 1.0), (0.0, 0.0, 1.0), (0.3, -0.2), 0.1)
        clean = antipodal_search(body, DentedBall(3, []), seed=5, budget=640)
        start, moves, i, accepted = compass_oracle(body, DentedBall(3, []), 5, budget=640)[2][0]
        assert accepted and i == 0
        # poll 1 from the sweep's start is scored speculatively alongside poll
        # 0; after poll 0 is accepted the walk moves on from the new point
        base = DentedBall(3, [(_poll(start, moves[1]), -2.0)])
        evaluations, u0, _ = compass_oracle(body, base, 5, budget=640)
        res = antipodal_search(body, base, seed=5, budget=640)
        assert res.evaluations == evaluations == clean.evaluations
        assert np.array_equal(res.umbilic.u0, u0)
        # the batch that met the dent was scored again poll by poll
        assert res.objective_calls > clean.objective_calls

    def test_degenerate_base_at_walked_poll_raises(self):
        body = HarmonicPerturbation(Ball(3, 1.0), (0.0, 0.0, 1.0), (0.3, -0.2), 0.1)
        start, moves, i, _ = compass_oracle(body, DentedBall(3, []), 5, budget=640)[2][2]
        base = DentedBall(3, [(_poll(start, moves[i]), -2.0)])
        for search in (compass_oracle, antipodal_search):
            with pytest.raises(PreconditionError, match="smallest eigenvalue -2.000000e"):
                search(body, base, seed=5, budget=640)

    def test_search_argument_validation(self):
        with pytest.raises(ValueError):
            antipodal_search(Ball(3, 1.0), Ball(3, 1.0), objective="gradient")
        with pytest.raises(ValueError):
            antipodal_search(Ball(3, 1.0), Ball(3, 1.0), budget=4)

    def test_eigen_profile_is_sorted(self):
        # the relative radii the search compares are the ascending eigenvalues
        # of the relative maps; against the unit ball they are E4's radii
        dirs = haar_directions(4, 5, as_rng(12))
        radii = np.linalg.eigvalsh(relative_maps(E4, Ball(4, 1.0), dirs))
        assert np.all(np.diff(radii, axis=1) >= 0)
        assert np.allclose(radii, np.linalg.eigvalsh(reverse_weingarten(E4, dirs)), atol=1e-10)


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
        for axis in haar_directions(4, 3, as_rng(4)):
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

    @pytest.mark.filterwarnings("error")
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
        for axis in haar_directions(3, 4, as_rng(9)):
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


class TestDetRatio:
    def test_homothet_ratio_is_constant_scale_power(self):
        report = det_ratio_constancy(K4, E4, samples=40, seed=0)
        assert report.mean == pytest.approx(0.7**3, rel=1e-10)
        assert report.max_rel_deviation < 1e-10

    def test_generic_pair_deviates(self):
        report = det_ratio_constancy(E4, Ball(4, 1.0), samples=40, seed=1)
        assert report.max_rel_deviation > 0.1

    def test_degenerate_base_raises(self):
        class FlatBase(Ball):
            def jets(self, u):
                values, gradients, hessians = super().jets(u)
                return values, gradients, 0.0 * hessians

        with pytest.raises(PreconditionError):
            det_ratio_constancy(Ball(3, 1.0), FlatBase(3, 1.0), samples=4, seed=2)
