"""Projections, shadow volumes, proportionality, and homothety fitting."""

from math import gamma, pi

import numpy as np
import pytest

from brightlab import tomography
from brightlab.body import Ball, Ellipsoid, Erosion, Homothet, tangent_frames
from brightlab.sampling import haar_directions
from brightlab.tomography import (
    HomothetyFit,
    SubspaceFrame,
    _cached_rule,
    _quadrature_rule,
    homothety_fit,
    project,
    proportionality_test,
    random_subspace,
    shadow_volumes,
    volume_from_support,
)

E4 = Ellipsoid(np.diag([1.0, 1.69, 0.64, 1.21]))
K4 = Homothet(E4, 0.7, (0.1, 0.0, -0.2, 0.0))
A6 = np.diag([1.0, 1.69, 0.64, 1.21, 0.81, 1.44])
E6 = Ellipsoid(A6)
SHIFT6 = (0.3, -0.2, 0.1, 0.0, 0.4, 0.05)
ERODED4 = Erosion(Ball(4, 1.0), 1.5)  # h = -0.5: not a convex body
# worst relative error of the shadow volumes of E6 at the default nodes, by grade
CALIBRATION = {2: 1e-14, 3: 1e-14, 4: 1e-10, 5: 2e-5}


def unit_ball_volume(k: int) -> float:
    return pi ** (k / 2) / gamma(k / 2 + 1)


def ellipsoid_shadow_volume(a, frame) -> float:
    """The shadow of sqrt(x'Ax) on F has shape F'AF: volume sqrt(det F'AF) kappa_k."""
    return np.sqrt(np.linalg.det(frame.columns.T @ a @ frame.columns)) * unit_ball_volume(frame.k)


class DegeneratePoint:
    """Duck-typed 'body' reduced to the origin; every shadow has volume 0."""

    def __init__(self, n: int):
        self._n = n

    @property
    def dim(self) -> int:
        return self._n

    def support(self, x) -> float:
        return 0.0

    def jets(self, u, frames):
        m, j = len(u), frames.shape[2]
        return np.zeros(m), np.zeros((m, self._n)), np.zeros((m, j, j))


class NaNPoint(DegeneratePoint):
    """The point with NaN support values: every shadow volume is NaN."""

    def jets(self, u, frames):
        values, grads, hess = super().jets(u, frames)
        return values + np.nan, grads, hess


class TestSubspaces:
    def test_frames_are_orthonormal(self):
        for seed in range(10):
            frame = random_subspace(5, 3, seed)
            cols = frame.columns
            assert cols.shape == (5, 3)
            assert np.allclose(cols.T @ cols, np.eye(3), atol=1e-12)

    def test_non_orthonormal_rejected(self):
        with pytest.raises(ValueError):
            SubspaceFrame(np.ones((4, 2)))

    def test_haar_first_coordinate_moment(self):
        # E[c1^2] = 1/n for a Haar column; 3-sigma band around the mean
        n, draws = 5, 2000
        vals = np.array([random_subspace(n, 2, s).columns[0, 0] ** 2 for s in range(draws)])
        # Var(c1^2) = 2(n-1)/(n^2(n+2)) for a Haar unit vector
        sigma = np.sqrt(2 * (n - 1) / (n**2 * (n + 2)) / draws)
        assert abs(vals.mean() - 1.0 / n) < 3 * sigma

    def test_projected_support_is_pullback(self):
        frame = random_subspace(4, 2, 3)
        shadow = project(E4, frame)
        for w in haar_directions(2, 10, 0):
            assert shadow.support(w) == pytest.approx(
                E4.support(frame.columns @ w), rel=1e-12
            )

    def test_projected_jet_chain_rule(self):
        frame = random_subspace(4, 3, 4)
        shadow = project(E4, frame)
        w = haar_directions(3, 1, 1)[0]
        jet = shadow.jet(w)
        full = E4.jet(frame.columns @ w)
        assert np.allclose(jet.gradient, frame.columns.T @ full.gradient, atol=1e-12)
        assert np.allclose(
            jet.hessian, frame.columns.T @ full.hessian @ frame.columns, atol=1e-12
        )


class TestVolumes:
    def test_disk_area(self):
        frame = random_subspace(3, 2, 0)
        vol = volume_from_support(project(Ball(3, 1.0), frame))
        assert vol == pytest.approx(np.pi, abs=1e-10)

    def test_ball_volume(self):
        frame = random_subspace(4, 3, 1)
        vol = volume_from_support(project(Ball(4, 1.0), frame))
        assert vol == pytest.approx(4.0 * np.pi / 3.0, abs=1e-6)

    def test_width_grade_one(self):
        frame = random_subspace(3, 1, 2)
        vol = volume_from_support(project(Ball(3, 1.5), frame))
        assert vol == pytest.approx(3.0, abs=1e-12)

    def test_projected_ellipse_area_closed_form(self):
        # shadow of {x: x'A^{-1}x <= 1}-style support sqrt(w'F'AFw) is the
        # ellipse with shape F'AF, so its area is pi sqrt(det(F'AF))
        a = E4.matrix
        for seed in range(5):
            frame = random_subspace(4, 2, seed)
            shape = frame.columns.T @ a @ frame.columns
            expect = np.pi * np.sqrt(np.linalg.det(shape))
            vol = volume_from_support(project(E4, frame))
            assert vol == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("p, lam", [(32, 0.5), (16, 1.0), (6, 1.5)])
    def test_polar_rule_is_cached_read_only(self, p, lam):
        t, w = tomography._gegenbauer_rule(p, lam)
        # the Gauss rule integrates the weight itself exactly
        assert w.sum() == pytest.approx(np.sqrt(np.pi) * gamma(lam + 0.5) / gamma(lam + 1), rel=1e-13)

    def test_circle_rule_converges_spectrally(self):
        frame = random_subspace(4, 2, 7)
        shadow = project(E4, frame)
        exact = volume_from_support(shadow, nodes=512)
        coarse = volume_from_support(shadow, nodes=16)
        fine = volume_from_support(shadow, nodes=64)
        assert abs(fine - exact) < abs(coarse - exact) + 1e-14
        assert abs(fine - exact) < 1e-10

    def test_gauss_legendre_converges(self):
        frame = random_subspace(4, 3, 8)
        shadow = project(E4, frame)
        exact = np.pi * 4.0 / 3.0 * np.sqrt(
            np.linalg.det(frame.columns.T @ E4.matrix @ frame.columns)
        )
        errors = [abs(volume_from_support(shadow, nodes=n) - exact) for n in (8, 16, 32)]
        assert errors[-1] < 1e-8
        assert errors[-1] <= errors[0]

    # the test_qmc_* tests check the rule at k >= 4
    def test_qmc_four_dimensional_ball(self):
        # h * det is constant on a ball, so V_k = kappa_k to rounding
        for k in (4, 5):
            frame = random_subspace(6, k, 9)
            vol = volume_from_support(project(Ball(6, 1.0), frame))
            assert vol == pytest.approx(unit_ball_volume(k), rel=1e-12)

    @pytest.mark.parametrize("k", [4, 5])
    def test_qmc_translation_invariance(self, k):
        # the rule maps onto itself under u -> -u, so the odd term <t, u> det cancels
        for seed in range(3):
            frame = random_subspace(6, k, seed)
            for body in (Ball(6, 1.0), E6):
                still = volume_from_support(project(body, frame), nodes=512)
                moved = volume_from_support(project(Homothet(body, 1.0, SHIFT6), frame), nodes=512)
                assert moved == pytest.approx(still, rel=1e-12)
            ball = volume_from_support(
                project(Homothet(Ball(6, 1.0), 1.0, SHIFT6), frame), nodes=512
            )
            assert ball == pytest.approx(unit_ball_volume(k), rel=1e-12)

    @pytest.mark.parametrize("k", [4, 5])
    def test_qmc_rotation_invariance(self, k):
        rng = np.random.default_rng(k)
        for seed in range(3):
            frame = random_subspace(6, k, seed)
            rot = np.linalg.qr(rng.standard_normal((6, 6)))[0]
            # rotating body and subspace together leaves the shadow unchanged
            turned = Ellipsoid(rot @ A6 @ rot.T)
            same = volume_from_support(project(turned, SubspaceFrame(rot @ frame.columns)))
            vol = volume_from_support(project(E6, frame))
            assert same == pytest.approx(vol, rel=1e-12)
            # rotating the shadow inside its subspace moves the nodes, not the volume
            spin = np.linalg.qr(rng.standard_normal((k, k)))[0]
            vol2 = volume_from_support(project(E6, SubspaceFrame(frame.columns @ spin)))
            exact = ellipsoid_shadow_volume(A6, frame)
            for v in (vol, vol2):
                assert abs(v - exact) <= CALIBRATION[k] * exact

    @pytest.mark.parametrize("k", [4, 5])
    def test_qmc_ellipsoid_shadow_within_stderr(self, k):
        # a translated ellipsoid's shadows meet the closed form as closely as its own
        body = Homothet(E6, 1.0, SHIFT6)
        for seed in range(10):
            frame = random_subspace(6, k, seed)
            exact = ellipsoid_shadow_volume(A6, frame)
            vol = volume_from_support(project(body, frame))
            assert abs(vol - exact) <= CALIBRATION[k] * exact

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_ellipsoid_shadow_calibration(self, k):
        # the rule's worst relative error at the default nodes, over 20 frames
        worst = max(
            abs(volume_from_support(project(E6, frame)) / ellipsoid_shadow_volume(A6, frame) - 1.0)
            for frame in (random_subspace(6, k, seed) for seed in range(20))
        )
        assert worst <= CALIBRATION[k]

    @pytest.mark.parametrize("k, least", [(3, 4), (4, 64), (5, 256), (8, 16384)])
    def test_polar_rule_refuses_fewer_than_four_nodes(self, k, least):
        shadow = project(Ball(8, 1.0), random_subspace(8, k, 10))
        with pytest.raises(ValueError, match=f"k = {k} .* nodes >= {least}, got {least - 1}"):
            volume_from_support(shadow, nodes=least - 1)
        assert volume_from_support(shadow, nodes=least) == pytest.approx(
            unit_ball_volume(k), rel=1e-12
        )

    def test_default_nodes_refused_above_k7(self):
        # at 4096 a 7-dimensional sphere gets 3 polar nodes per angle
        shadow = project(Ball(8, 1.0), random_subspace(8, 8, 10))
        with pytest.raises(ValueError, match="k = 8 .* nodes >= 16384, got 4096"):
            volume_from_support(shadow)

    def test_node_minimums_enforced(self):
        with pytest.raises(ValueError):
            volume_from_support(project(Ball(3, 1.0), random_subspace(3, 2, 0)), nodes=4)
        with pytest.raises(ValueError):
            volume_from_support(project(Ball(4, 1.0), random_subspace(4, 3, 0)), nodes=2)
        with pytest.raises(ValueError):
            volume_from_support(project(Ball(5, 1.0), random_subspace(5, 4, 0)), nodes=63)


class TestBatchedShadows:
    # nodes giving 2, 16, 32, 128 and 512 rule directions at k = 1 ... 5
    NODES = {1: None, 2: 16, 3: 4, 4: 64, 5: 256}
    BODIES = (E6, Homothet(E6, 0.7, SHIFT6), Ball(6, 1.3))

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_batches_agree_with_one_frame_at_a_time(self, monkeypatch, k):
        # batches of two frames, so 7 frames end on a partial batch of one
        m = len(_quadrature_rule(k, self.NODES[k])[0])
        monkeypatch.setattr(tomography, "JET_BATCH", 2 * m + 1)
        columns, vols = shadow_volumes(self.BODIES, k, 7, 17, self.NODES[k])
        assert columns.shape == (7, 6, k) and vols.shape == (7, 3)
        for frame, row in zip(columns, vols):
            for body, vol in zip(self.BODIES, row):
                alone = volume_from_support(project(body, SubspaceFrame(frame)), nodes=self.NODES[k])
                assert abs(vol - alone) <= 1e-14 * abs(alone)

    def test_partial_batch_at_the_shipped_batch_size(self):
        # 256 circle nodes put JET_BATCH // 256 frames in a batch; one more is left over
        count = tomography.JET_BATCH // 256 + 1
        columns, vols = shadow_volumes(self.BODIES[:2], 2, count, 3, None)
        for frame, row in zip(columns, vols):
            exact = ellipsoid_shadow_volume(A6, SubspaceFrame(frame))
            assert row == pytest.approx([exact, 0.49 * exact], rel=1e-13)

    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_frames_are_the_random_subspace_draws(self, k):
        columns, _ = shadow_volumes([Ball(6, 1.0)], k, 5, 21, self.NODES.get(k, 4096))
        children = np.random.SeedSequence(21).spawn(5)
        for frame, child in zip(columns, children):
            alone = random_subspace(6, k, np.random.default_rng(child))
            assert np.array_equal(frame, alone.columns)

    def test_native_ball_volume_is_unchanged(self):
        # the value of the per-body rule before frames were batched, to the bit
        assert volume_from_support(Ball(3, 1.0)) == 4.188790204786388


class TestCachedRule:
    """Each sphere rule is built once per process, read-only, in a bounded cache."""

    def test_calls_share_one_rule_and_the_default_shares_its_entry(self):
        for k, default in ((2, 256), (3, 32), (4, 4096)):
            rule = _quadrature_rule(k, None)
            assert _quadrature_rule(k, None) is rule
            assert _quadrature_rule(k, default) is rule
            assert all(a is b for a, b in zip(_quadrature_rule(k, default), rule))
        # a k >= 4 budget is resolved to its polar count first: 4100 is p = 16 too
        assert _quadrature_rule(4, 4100) is _quadrature_rule(4, None)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_rule_arrays_are_read_only(self, k):
        for array in _quadrature_rule(k, None):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_row_is_the_stacked_tangent_frames_to_the_bit(self, k):
        dirs, _, row = _quadrature_rule(k, None)
        expected = tangent_frames(dirs).transpose(1, 0, 2).reshape(k, -1)
        assert row.shape == expected.shape == (k, len(dirs) * (k - 1))
        assert row.tobytes() == expected.tobytes()

    def test_too_few_nodes_is_refused_every_time_and_never_cached(self):
        before = _cached_rule.cache_info()
        for _ in range(2):
            with pytest.raises(ValueError, match="k = 4 .* nodes >= 64, got 63"):
                _quadrature_rule(4, 63)
        after = _cached_rule.cache_info()
        assert (after.hits, after.misses, after.currsize) == (
            before.hits, before.misses, before.currsize
        )

    def test_nodes_at_k1_are_refused(self):
        # S^0 = {+1, -1} whatever nodes says, so a nodes value there sizes nothing
        with pytest.raises(ValueError, match=r"k = 1 is \{\+1, -1\} and takes no nodes, got 3"):
            _quadrature_rule(1, 3)

    def test_cache_is_bounded(self):
        assert _cached_rule.cache_info().maxsize == tomography.RULE_CACHE == 8
        for circle in range(8, 8 + tomography.RULE_CACHE + 3):
            _quadrature_rule(2, circle)
        assert _cached_rule.cache_info().currsize == tomography.RULE_CACHE

    def test_results_do_not_depend_on_the_cache_state(self):
        def run():
            report = proportionality_test(K4, E4, 4, 3, 5, nodes=216)
            shadow = project(K4, random_subspace(4, 3, 2))
            return (
                report.constant, report.ratios.tobytes(), report.max_rel_deviation,
                volume_from_support(shadow, nodes=12),
            )

        _cached_rule.cache_clear()
        cold = run()
        assert _cached_rule.cache_info().currsize == 2
        assert run() == cold


class TestProjectionFunction:
    def test_ball_projection_function_is_constant(self):
        columns, vols = shadow_volumes([Ball(4, 1.0)], 2, 16, seed=6, nodes=64)
        assert columns.shape == (16, 4, 2)
        assert np.abs(np.swapaxes(columns, 1, 2) @ columns - np.eye(2)).max() <= 1e-10
        assert np.abs(vols[:, 0] - np.pi).max() < 1e-10


class TestProportionality:
    @pytest.mark.parametrize("k", [2, 4])
    def test_ratios_match_two_projection_functions_on_one_seed(self, k):
        report = proportionality_test(K4, E4, k, 12, seed=5, nodes=64)
        body_frames, body = shadow_volumes([K4], k, 12, seed=5, nodes=64)
        base_frames, base = shadow_volumes([E4], k, 12, seed=5, nodes=64)
        assert np.array_equal(body_frames, base_frames)
        assert np.array_equal(report.ratios, body[:, 0] / base[:, 0])

    def test_homothet_pair_ratio(self):
        report = proportionality_test(K4, E4, 2, 50, seed=3, nodes=256)
        assert report.constant == pytest.approx(0.49, abs=1e-12)
        assert report.max_rel_deviation < 1e-5

    def test_shifted_homothet_pair_at_k4_has_exact_constant(self):
        # common nodes on an antipodally symmetric rule: the shift and the rule error cancel
        body = Homothet(Ellipsoid(A6[:5, :5]), 0.7, SHIFT6[:5])
        report = proportionality_test(body, Ellipsoid(A6[:5, :5]), 4, 8, seed=11, nodes=1024)
        assert report.constant == pytest.approx(0.7**4, rel=1e-12)
        assert report.max_rel_deviation < 1e-12

    def test_generic_pair_is_not_proportional(self):
        report = proportionality_test(E4, Ball(4, 1.0), 2, 20, seed=4, nodes=128)
        assert report.max_rel_deviation > 0.05

    @pytest.mark.parametrize(
        "body, base, k, message",
        [
            # every shadow of the point has volume 0, so the base is refused
            (
                Ball(3, 1.0), DegeneratePoint(3), 2,
                r"grade-2 shadow volume of 'base' on frame 0 is not positive: 0\.000000e\+00",
            ),
            (
                Ball(3, 1.0), NaNPoint(3), 2,
                "grade-2 shadow volume of 'base' on frame 0 is not positive: nan",
            ),
            # h = 1 - 1.5 = -0.5: the "shadows" are balls of radius -0.5, of width -1
            # at k = 1 and volume -pi/6 at k = 3 (pi/4 at k = 2 is positive)
            (
                ERODED4, Ball(4, 1.0), 1,
                r"grade-1 shadow volume of 'body' on frame \d+ is not positive: -1\.000000e\+00",
            ),
            (
                ERODED4, Ball(4, 1.0), 3,
                r"grade-3 shadow volume of 'body' on frame \d+ is not positive: -5\.2359\d\de-01",
            ),
        ],
        ids=["point", "nan", "eroded_k1", "eroded_k3"],
    )
    def test_a_shadow_volume_that_is_not_positive_is_refused(self, body, base, k, message):
        with pytest.raises(ValueError, match=f"{message}$"):
            proportionality_test(body, base, k, 4, seed=5)

    def test_a_small_valid_pair_is_not_refused(self):
        # base volumes of about 5e-18 at k = 6: a valid pair is never refused for its
        # scale, since shadow volumes scale by c^k
        report = proportionality_test(Ball(7, 0.7e-3), Ball(7, 1e-3), 6, 2, seed=1)
        assert report.ratios.shape == (2,)
        assert report.constant == pytest.approx(0.7**6, rel=1e-12)

    def test_bodies_of_different_dimensions_are_refused(self):
        # the 4-ball was integrated on 3-D rows: constant 1.0, deviation 0.0
        with pytest.raises(ValueError, match="expected directions of length 4, got 3$"):
            proportionality_test(Ball(3, 1.0), Ball(4, 1.0), 2, 3, 1)
        with pytest.raises(ValueError, match="expected directions of length 3, got 4$"):
            proportionality_test(Ball(4, 1.0), Ball(3, 1.0), 2, 3, 1)
        with pytest.raises(ValueError, match="expected directions of length 4, got 3$"):
            shadow_volumes([Ball(3, 1.0), Ball(4, 1.0)], 2, 3, 1)

    def test_shadow_volumes_need_a_body(self):
        with pytest.raises(ValueError, match="at least one body"):
            shadow_volumes([], 2, 3, 1)


class TestHomothetyFit:
    def test_recovers_scale_and_shift(self):
        fit = homothety_fit(K4, E4, samples=256, seed=9)
        assert isinstance(fit, HomothetyFit)
        assert fit.scale == pytest.approx(0.7, abs=1e-10)
        assert np.allclose(fit.shift, [0.1, 0.0, -0.2, 0.0], atol=1e-10)
        assert fit.residual < 1e-10

    def test_non_homothetic_pair_has_residual(self):
        fit = homothety_fit(E4, Ball(4, 1.0), samples=256, seed=10)
        assert fit.residual > 1e-2

    def test_bodies_of_different_dimensions_are_refused(self):
        # the 4-ball was read on 3-D rows: scale 1.0, residual 3e-15
        with pytest.raises(ValueError, match="expected directions of length 4, got 3$"):
            homothety_fit(Ball(3, 1.0), Ball(4, 1.0))
