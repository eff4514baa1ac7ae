"""Support-function families: jets, widths, validation, body documents."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brightlab.body import (
    FAMILIES,
    Ball,
    ConvexBody,
    Ellipsoid,
    Erosion,
    HarmonicPerturbation,
    Homothet,
    MinkowskiSum,
    RadialProfile,
    Revolution,
    Spheroid,
    SupportJet,
    body_from_dict,
    finite_difference_jet,
    validate,
)
from brightlab.sampling import as_rng, haar_directions
from brightlab.tomography import ProjectedBody, project, random_subspace

E4 = Ellipsoid(np.diag([1.0, 1.69, 0.64, 1.21]))
NAN = float("nan")


def identity(dirs):
    """Identity frames for the rows of dirs: ``jets`` then returns the full Hessians."""
    m, n = dirs.shape
    return np.broadcast_to(np.eye(n), (m, n, n))


def width(body, u):
    """h(u) + h(-u), the distance between the two supporting hyperplanes."""
    dirs = np.stack([u, -u])
    return float(body.jets(dirs, identity(dirs))[0].sum())


def document(family, **params):
    return {"family": family, "params": params}


BALL_DOC = document("ball", dim=3, radius=1.0)


def spheroid_profile(a: float, b: float) -> RadialProfile:
    d = b * b - a * a

    def g(t):
        return np.sqrt(a * a + d * t * t)

    def dg(t):
        return d * t / g(t)

    def ddg(t):
        return d / g(t) - (d * t) ** 2 / g(t) ** 3

    return RadialProfile(g, dg, ddg)


def all_families():
    return [
        Ball(3, 1.0),
        Ball(5, 0.7),
        E4,
        Spheroid((0.0, 0.0, 1.0), 1.0, 1.4),
        HarmonicPerturbation(Ball(3, 1.0), (0.0, 0.0, 1.0), (0.3, -0.5), 0.1),
        MinkowskiSum((Ball(3, 0.5), Ellipsoid(np.diag([1.0, 2.0, 3.0])))),
        Homothet(E4, 0.7, (0.1, 0.0, -0.2, 0.0)),
        Erosion(Ball(3, 2.0), 0.5),
        Revolution((0.0, 0.0, 1.0), spheroid_profile(1.0, 1.4)),
    ]


def batched_bodies():
    """Every sample family and a shadow."""
    return [
        *all_families(),
        project(Homothet(E4, 0.7, (0.1, 0.0, -0.2, 0.0)), random_subspace(4, 3, 0)),
    ]


class TestJetStructure:
    @pytest.mark.parametrize("body", all_families(), ids=lambda b: type(b).__name__)
    def test_euler_identities(self, body):
        rng = as_rng(0)
        for u in haar_directions(body.dim, 20, rng):
            jet = body.jet(u)
            assert jet.value == pytest.approx(body.support(u), rel=1e-12)
            # degree-1 homogeneity: <grad, u> = h and Hess u = 0
            assert float(jet.gradient @ u) == pytest.approx(jet.value, rel=1e-10)
            assert np.abs(jet.hessian @ u).max() < 1e-9 * max(1.0, jet.value)
            assert np.allclose(jet.hessian, jet.hessian.T)

    @pytest.mark.parametrize("body", batched_bodies(), ids=lambda b: type(b).__name__)
    def test_jets_match_finite_differences(self, body):
        dirs = haar_directions(body.dim, 10, as_rng(1))
        for u, grad, hess in zip(dirs, *body.jets(dirs, identity(dirs))[1:]):
            num = finite_difference_jet(body, u)
            scale = max(1.0, np.abs(hess).max())
            assert np.abs(grad - num.gradient).max() < 1e-8
            assert np.abs(hess - num.hessian).max() < 1e-6 * scale

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.1, 10.0))
    def test_support_is_positively_homogeneous(self, seed, lam):
        rng = as_rng(seed)
        x = rng.standard_normal(4)
        if np.linalg.norm(x) < 1e-6:
            x = np.ones(4)
        assert E4.support(lam * x) == pytest.approx(lam * E4.support(x), rel=1e-12)


class TestBall:
    def test_closed_form_jet(self):
        ball = Ball(3, 2.0)
        u = np.array([0.0, 0.0, 1.0])
        jet = ball.jet(u)
        assert jet.value == 2.0
        assert np.allclose(jet.gradient, 2.0 * u)
        assert np.allclose(jet.hessian, 2.0 * (np.eye(3) - np.outer(u, u)))

    def test_width_is_diameter(self):
        assert width(Ball(4, 1.5), np.array([1.0, 0, 0, 0])) == pytest.approx(3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Ball(1, 1.0)
        with pytest.raises(ValueError):
            Ball(3, 0.0)


class TestEllipsoid:
    def test_support_along_axes(self):
        e = Ellipsoid(np.diag([4.0, 1.0]))
        assert e.support(np.array([1.0, 0.0])) == pytest.approx(2.0)
        assert e.support(np.array([0.0, 3.0])) == pytest.approx(3.0)

    def test_width(self):
        e = Ellipsoid(np.diag([4.0, 1.0]))
        u = np.array([1.0, 0.0])
        assert width(e, u) == pytest.approx(4.0)

    def test_rejects_non_spd(self):
        with pytest.raises(ValueError):
            Ellipsoid(np.diag([1.0, -1.0]))
        with pytest.raises(ValueError):
            Ellipsoid(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_dimension_below_two(self):
        # as Ball, Spheroid and Revolution do: a segment has no proper subspace to project onto
        with pytest.raises(ValueError, match="dimension must be at least 2"):
            Ellipsoid([[1.0]])
        with pytest.raises(ValueError, match="dimension must be at least 2"):
            body_from_dict(document("ellipsoid", shape=[[1.0]]))


class TestSpheroid:
    def test_matches_general_revolution(self):
        sph = Spheroid((0.0, 0.0, 1.0), 1.0, 1.4)
        rev = Revolution((0.0, 0.0, 1.0), spheroid_profile(1.0, 1.4))
        rng = as_rng(2)
        for u in haar_directions(3, 25, rng):
            a = sph.jet(u)
            b = rev.jet(u)
            assert a.value == pytest.approx(b.value, rel=1e-10)
            assert np.abs(a.hessian - b.hessian).max() < 1e-8

    def test_axis_is_normalized(self):
        sph = Spheroid((0.0, 0.0, 2.0), 1.0, 1.4)
        assert np.allclose(sph.axis_vector, [0.0, 0.0, 1.0])

    def test_pole_and_equator_curvature(self):
        a, b = 1.0, 1.4
        sph = Spheroid((0.0, 0.0, 1.0), a, b)
        pole = sph.jet(np.array([0.0, 0.0, 1.0]))
        vals = np.linalg.eigvalsh(pole.hessian)
        # nullspace direction plus the (n-1)-fold pole radius a^2/b
        assert vals[0] == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(vals[1:], a * a / b)
        equator = sph.jet(np.array([1.0, 0.0, 0.0]))
        vals = np.sort(np.linalg.eigvalsh(equator.hessian))
        assert vals[0] == pytest.approx(0.0, abs=1e-12)
        assert vals[1] == pytest.approx(a)
        assert vals[2] == pytest.approx(b * b / a)


class TestBatchedJets:
    def test_every_registered_family_has_jets_and_a_sample(self):
        sampled = {type(b) for b in all_families()}
        for name, cls in [*FAMILIES.items(), ("(revolution)", Revolution)]:
            assert "jets" in vars(cls), name
            assert cls in sampled, name

    def test_jet_is_one_wrapper_over_jets(self):
        for cls in [*FAMILIES.values(), Revolution, ProjectedBody]:
            assert "jet" not in vars(cls), cls.__name__
            assert cls.jet is ConvexBody.jet, cls.__name__

    @pytest.mark.parametrize("body", batched_bodies(), ids=lambda b: type(b).__name__)
    def test_batched_jets_match_single_jets(self, body):
        eye = np.eye(body.dim)
        dirs = np.vstack([eye[0], -eye[-1], haar_directions(body.dim, 30, as_rng(7))])
        values, grads, hess = body.jets(dirs, identity(dirs))
        assert values.shape == (len(dirs),)
        assert grads.shape == dirs.shape
        assert hess.shape == (len(dirs), body.dim, body.dim)
        for i, u in enumerate(dirs):
            jet = body.jet(u)
            np.testing.assert_allclose(values[i], jet.value, rtol=1e-14, atol=1e-14)
            np.testing.assert_allclose(grads[i], jet.gradient, rtol=1e-14, atol=1e-14)
            np.testing.assert_allclose(hess[i], jet.hessian, rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("body", batched_bodies(), ids=lambda b: type(b).__name__)
    def test_batched_jets_reject_non_unit_rows(self, body):
        dirs = haar_directions(body.dim, 3, as_rng(8))
        dirs[1] *= 2.0
        with pytest.raises(ValueError, match=r"unit length, \|u\[1\]\| = "):
            body.jets(dirs, identity(dirs))

    @pytest.mark.parametrize("shift", [-1, 1])
    @pytest.mark.parametrize("body", all_families(), ids=lambda b: type(b).__name__)
    def test_rows_of_another_length_are_refused(self, body, shift):
        # a 3-D row handed to a 4-D body was read as if it were one of its rows
        n = body.dim
        dirs = haar_directions(n + shift, 3, as_rng(11))
        with pytest.raises(ValueError, match=f"expected directions of length {n}, got {n + shift}$"):
            body.jets(dirs, identity(dirs))

    @pytest.mark.parametrize(
        "body",
        [
            Homothet(E4, 0.7, (0.1, 0.0, -0.2, 0.0)),
            Erosion(Homothet(Ball(3, 2.0), 1.5), 0.5),
            HarmonicPerturbation(Ball(3, 1.0), (0.0, 0.0, 1.0), (0.3, -0.5), 0.1),
            project(Homothet(E4, 0.7, (0.1, 0.0, -0.2, 0.0)), random_subspace(4, 3, 0)),
        ],
        ids=lambda b: type(b).__name__,
    )
    def test_only_the_family_that_evaluates_h_checks_the_rows(self, body, monkeypatch):
        # composites pass their rows on unchanged (a shadow through an orthonormal F),
        # so the part that evaluates h is the one that refuses a non-unit row
        import brightlab
        from brightlab import body as body_module

        calls = []
        checked = body_module._unit_rows

        def counted(u, n=None):
            calls.append(len(u))
            return checked(u, n)

        modules = [getattr(brightlab, name) for name in ("body", "tomography", "weingarten")]
        for module in modules:
            if getattr(module, "_unit_rows", None) is checked:
                monkeypatch.setattr(module, "_unit_rows", counted)
        dirs = haar_directions(body.dim, 5, as_rng(10))
        frames = identity(dirs)
        for jets_calls in (1, 2):
            body.jets(dirs, frames)
            assert calls == [5] * jets_calls

    @pytest.mark.parametrize("body", batched_bodies(), ids=lambda b: type(b).__name__)
    def test_frames_are_required(self, body):
        with pytest.raises(TypeError):
            body.jets(haar_directions(body.dim, 3, as_rng(9)))


class TestRestrictedJets:
    @pytest.mark.parametrize("j", ["0", "1", "2", "n"])
    @pytest.mark.parametrize("body", batched_bodies(), ids=lambda b: type(b).__name__)
    def test_frames_restrict_the_hessian(self, body, j):
        # random, non-orthonormal frames; j = 0 is the k = 1 shadow, whose blocks are 0 x 0
        n = body.dim
        j = n if j == "n" else int(j)
        dirs = haar_directions(n, 12, as_rng(21))
        frames = as_rng(22).standard_normal((12, n, j))
        values, grads, hess = body.jets(dirs, identity(dirs))
        v, g, block = body.jets(dirs, frames)
        assert block.shape == (12, j, j)
        np.testing.assert_array_equal(v, values)
        np.testing.assert_array_equal(g, grads)
        want = np.swapaxes(frames, 1, 2) @ hess @ frames
        scale = np.abs(want).max(initial=0.0)
        np.testing.assert_allclose(block, want, rtol=1e-13, atol=1e-13 * scale)


class TestRevolution:
    def test_requires_explicit_numeric_opt_in(self):
        # there is no numeric fallback: a profile without dg and ddg is refused
        g = spheroid_profile(1.0, 0.8).g
        with pytest.raises(TypeError):
            RadialProfile(g)
        with pytest.raises(TypeError):
            RadialProfile(g, dg=spheroid_profile(1.0, 0.8).dg)


class TestHarmonicPerturbation:
    def test_odd_part_cancels_from_width(self):
        body = HarmonicPerturbation(Ball(3, 1.0), (0.0, 0.0, 1.0), (0.5, -0.3, 0.1), 0.1)
        for u in haar_directions(3, 50, as_rng(4)):
            assert width(body, u) == pytest.approx(2.0, abs=1e-12)

    def test_support_formula(self):
        body = HarmonicPerturbation(Ball(3, 1.0), (0.0, 0.0, 1.0), (1.0,), 0.25)
        u = np.array([0.0, 0.0, 1.0])
        assert body.support(u) == pytest.approx(1.25)
        assert body.support(-u) == pytest.approx(0.75)

    def test_axis_must_match_dim(self):
        with pytest.raises(ValueError):
            HarmonicPerturbation(Ball(3, 1.0), (1.0, 0.0), (1.0,), 0.1)

    def test_coefficient_count_capped(self):
        with pytest.raises(ValueError):
            HarmonicPerturbation(Ball(3, 1.0), (0, 0, 1.0), (1, 1, 1, 1, 1), 0.1)


class TestCompositions:
    def test_minkowski_jets_add(self):
        parts = (Ball(3, 0.5), Ellipsoid(np.diag([1.0, 2.0, 3.0])))
        total = MinkowskiSum(parts)
        u = haar_directions(3, 1, as_rng(5))[0]
        jet = total.jet(u)
        jets = [p.jet(u) for p in parts]
        assert jet.value == pytest.approx(sum(j.value for j in jets))
        assert np.allclose(jet.hessian, sum(j.hessian for j in jets))

    def test_homothet_scales_and_shifts(self):
        body = Homothet(Ball(2, 1.0), 0.5, (1.0, 0.0))
        u = np.array([1.0, 0.0])
        assert body.support(u) == pytest.approx(1.5)
        assert body.support(-u) == pytest.approx(-0.5)
        assert np.allclose(body.jet(u).hessian, 0.5 * Ball(2, 1.0).jet(u).hessian)

    def test_erosion_shrinks_radii(self):
        body = Erosion(Ball(3, 2.0), 0.5)
        u = np.array([0.0, 1.0, 0.0])
        vals = np.sort(np.linalg.eigvalsh(body.jet(u).hessian))
        assert np.allclose(vals[1:], 1.5)

    def test_erosion_must_not_exceed_inradius_to_stay_convex(self):
        body = Erosion(Ball(3, 1.0), 1.5)
        report = validate(body, samples=32, seed=0)
        assert not report.is_c2_plus


class TestValidate:
    def test_ball_is_certified(self):
        report = validate(Ball(3, 2.0), samples=64, seed=0)
        assert report.is_c2_plus
        assert report.min_radius == pytest.approx(2.0, rel=1e-9)
        assert report.max_radius == pytest.approx(2.0, rel=1e-9)

    def test_eroded_ellipse_flattens_along_long_axis(self):
        # h = sqrt(4 u1^2 + u2^2) - 0.5: at +-e1 the curvature radius hits
        # 1/4 * 4 - ... the eroded radius 2 - 1.5 = 0.5 stays positive, but
        # eroding by the full equatorial radius of curvature kills it.
        base = Ellipsoid(np.diag([4.0, 1.0]))
        u = np.array([1.0, 0.0])
        radius_at_e1 = np.linalg.eigvalsh(base.jet(u).hessian)[-1]
        body = Erosion(base, float(radius_at_e1))
        report = validate(body, samples=256, seed=1)
        assert report.min_radius == pytest.approx(0.0, abs=1e-2)
        assert abs(report.argmin_direction[0]) > 0.9

    def test_perturbed_ball_radii_window(self):
        body = HarmonicPerturbation(Ball(3, 1.0), (0.0, 0.0, 1.0), (0.3, -0.5), 0.1)
        report = validate(body, samples=200, seed=2)
        assert report.is_c2_plus
        assert 0.0 < report.min_radius and report.max_radius < 2.0


E4_DOC = document(
    "ellipsoid",
    shape=[[1.0, 0.0, 0.0, 0.0], [0.0, 1.69, 0.0, 0.0], [0.0, 0.0, 0.64, 0.0], [0.0, 0.0, 0.0, 1.21]],
)

# the document of each sample family but Revolution, which has none
DOCUMENTS = [
    BALL_DOC,
    document("ball", dim=5, radius=0.7),
    E4_DOC,
    document("spheroid", axis=[0.0, 0.0, 1.0], equatorial=1.0, polar=1.4),
    document(
        "harmonic_perturbation", base=BALL_DOC, axis=[0.0, 0.0, 1.0], odd_coeffs=[0.3, -0.5],
        epsilon=0.1,
    ),
    document(
        "minkowski_sum",
        parts=[
            document("ball", dim=3, radius=0.5),
            document("ellipsoid", shape=[[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]]),
        ],
    ),
    document("homothet", base=E4_DOC, scale=0.7, shift=[0.1, 0.0, -0.2, 0.0]),
    document("erosion", base=document("ball", dim=3, radius=2.0), radius=0.5),
]
DOCUMENTED = [b for b in all_families() if not isinstance(b, Revolution)]


class TestSerialization:
    def test_every_family_has_a_document(self):
        assert {doc["family"] for doc in DOCUMENTS} == set(FAMILIES)

    @pytest.mark.parametrize(
        "body, doc",
        zip(DOCUMENTED, DOCUMENTS, strict=True),
        ids=[type(b).__name__ for b in DOCUMENTED],
    )
    def test_roundtrip(self, body, doc):
        clone = body_from_dict(doc)
        assert type(clone) is type(body)
        rng = as_rng(6)
        for u in haar_directions(body.dim, 10, rng):
            assert clone.support(u) == pytest.approx(body.support(u), rel=1e-12)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            body_from_dict({"family": "torus", "params": {}})
        with pytest.raises(ValueError):
            body_from_dict({"params": {}})
        with pytest.raises(ValueError):
            body_from_dict({"family": "ball", "params": {"dim": 3}})

    def test_unknown_params_key_rejected(self):
        with pytest.raises(ValueError, match="colour"):
            body_from_dict({"family": "ball", "params": {"dim": 3, "radius": 1.0, "colour": 1}})

    def test_epsilon_and_shift_are_optional(self):
        ball = {"family": "ball", "params": {"dim": 3, "radius": 1.0}}
        homothet = body_from_dict({"family": "homothet", "params": {"base": ball, "scale": 2.0}})
        assert homothet.shift == (0.0, 0.0, 0.0)
        pert = body_from_dict(
            {
                "family": "harmonic_perturbation",
                "params": {"base": ball, "axis": [0.0, 0.0, 1.0], "odd_coeffs": [0.1]},
            }
        )
        assert pert.epsilon == 1.0

    @pytest.mark.parametrize(
        "doc, family, key",
        [
            (document("ball", dim=3.7, radius=1.0), "ball", "dim"),
            (document("ball", dim=3.0, radius=1.0), "ball", "dim"),
            (document("ball", dim=True, radius=1.0), "ball", "dim"),
            (document("ball", dim=3, radius=True), "ball", "radius"),
            (document("ball", dim=3, radius=NAN), "ball", "radius"),
            (document("ball", dim=3, radius=float("inf")), "ball", "radius"),
            (document("ball", dim=3, radius="1.0"), "ball", "radius"),
            (document("homothet", base=BALL_DOC, scale=NAN), "homothet", "scale"),
            (document("homothet", base=1.0, scale=2.0), "homothet", "base"),
            (document("minkowski_sum", parts=[1.0]), "minkowski_sum", "parts"),
            (document("minkowski_sum", parts=BALL_DOC), "minkowski_sum", "parts"),
            (document("spheroid", axis=[0, NAN, 1], equatorial=1, polar=2), "spheroid", "axis"),
            (document("ellipsoid", shape=[[1, True], [True, 1]]), "ellipsoid", "shape"),
            # a nested document names its own family
            (
                document("erosion", base=document("ball", dim=2.5, radius=1), radius=0),
                "ball",
                "dim",
            ),
            # vector and matrix fields need the right depth, and a matrix equal rows
            (document("ellipsoid", shape=[[1, 0], [0]]), "ellipsoid", "shape"),
            (document("ellipsoid", shape=[1, 0]), "ellipsoid", "shape"),
            (document("spheroid", axis=[[0, 1], [1, 0]], equatorial=1, polar=2), "spheroid", "axis"),
            (document("homothet", base=BALL_DOC, scale=2.0, shift=[[0, 0, 1]]), "homothet", "shift"),
            (
                document("harmonic_perturbation", base=BALL_DOC, axis=[0, 0, 1], odd_coeffs=[[1]]),
                "harmonic_perturbation",
                "odd_coeffs",
            ),
        ],
    )
    def test_mistyped_values_refused_with_family_and_key(self, doc, family, key):
        with pytest.raises(ValueError, match=f"'{family}' parameter '{key}'"):
            body_from_dict(doc)

    def test_integer_values_of_float_fields_are_accepted(self):
        ball = body_from_dict({"family": "ball", "params": {"dim": 3, "radius": 2}})
        assert ball.radius == 2.0 and isinstance(ball.radius, float)


class TestArgumentChecks:
    def test_directions_must_be_unit(self):
        with pytest.raises(ValueError):
            Ball(3, 1.0).jet(np.array([0.0, 0.0, 2.0]))

    def test_non_unit_message_prints_the_plain_norm(self):
        dirs = np.array([[1.0, 0.0, 0.0], [0.0, 2.0000000000000004, 0.0]])
        with pytest.raises(ValueError) as err:
            Ball(3, 1.0).jets(dirs, identity(dirs))
        assert str(err.value) == "direction must be unit length, |u[1]| = 2.0000000000000004"

    def test_origin_rejected(self):
        with pytest.raises(ValueError):
            Ball(3, 1.0).support(np.zeros(3))

    @pytest.mark.parametrize("body", batched_bodies(), ids=lambda b: type(b).__name__)
    @pytest.mark.parametrize("offset", [-1, 1])
    def test_scalar_oracles_refuse_points_of_the_wrong_length(self, body, offset):
        # the family that evaluates h refuses, as its jets refuse a row; a composite
        # reaches it before its own term, and a shadow checks its own length
        n = body.dim
        x = np.zeros(n + offset)
        x[-1] = 1.0
        with pytest.raises(ValueError, match=f"expected a point of length {n}, got {n + offset}"):
            body.support(x)
        with pytest.raises(ValueError, match=f"expected a point of length {n}, got {n + offset}"):
            finite_difference_jet(body, x)

    def test_finite_difference_jet_is_symmetric(self):
        jet = finite_difference_jet(E4, np.array([1.0, 0.0, 0.0, 0.0]))
        assert np.allclose(jet.hessian, jet.hessian.T)
        assert isinstance(jet, SupportJet)
