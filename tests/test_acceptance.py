"""Acceptance suite: one test per release criterion, at the pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion; ``-s`` additionally prints the measured values.
"""

import time
from itertools import combinations

import numpy as np
import pytest

from brightlab.body import (
    Ball,
    Ellipsoid,
    Erosion,
    HarmonicPerturbation,
    Homothet,
    MinkowskiSum,
    RadialProfile,
    Revolution,
    Spheroid,
    finite_difference_jet,
    validate,
)
from brightlab.multilinear import (
    KVector,
    SymKForm,
    compound,
    decompose,
    polarization_check,
    square_form_matrix,
)
from brightlab.lemma_lab import (
    antipodal_falsification,
    antipodal_product_check,
    enumerate_candidates,
    find_hypothesis_solutions,
    hypothesis_residual,
    match_candidates,
)
from brightlab.sampling import haar_directions
from brightlab.tomography import (
    project,
    proportionality_test,
    random_subspace,
    volume_from_support,
)
from brightlab.weingarten import (
    antipodal_search,
    revolution_relations_check,
    wedge_identity_defects,
)

ELLIPSOID_4D = Ellipsoid(np.diag([1.0, 1.69, 0.64, 1.21]))
HOMOTHET_4D = Homothet(ELLIPSOID_4D, 0.7, (0.1, 0.0, -0.2, 0.0))


def test_criterion_01_wedge_identity_on_homothetic_pair():
    start = time.perf_counter()
    worst = 0.0
    for k in (1, 2, 3):
        beta = 0.7**k
        dirs = haar_directions(4, 100, seed=k)
        defects, _ = wedge_identity_defects(HOMOTHET_4D, ELLIPSOID_4D, [k], [beta], dirs)
        worst = max(worst, defects[0])
    elapsed = time.perf_counter() - start
    print(f"criterion 01: max wedge defect {worst:.3e} (tol 1e-08), {elapsed:.2f}s")
    assert worst < 1e-8
    assert elapsed < 5.0


def test_criterion_02_projected_area_ratio_is_squared_scale():
    report = proportionality_test(HOMOTHET_4D, ELLIPSOID_4D, 2, 50, seed=2, nodes=256)
    rel = np.abs(report.ratios / 0.49 - 1.0)
    print(f"criterion 02: max relative ratio error {rel.max():.3e} (tol 1e-05)")
    assert report.ratios.shape == (50,)
    assert rel.max() < 1e-5


def test_criterion_03_ball_projection_volumes():
    disk = project(Ball(3, 1.0), random_subspace(3, 2, seed=3))
    v2 = volume_from_support(disk)
    v3 = volume_from_support(Ball(3, 1.0))
    print(
        f"criterion 03: |V2 - pi| = {abs(v2 - np.pi):.3e} (tol 1e-10), "
        f"|V3 - 4pi/3| = {abs(v3 - 4 * np.pi / 3):.3e} (tol 1e-06)"
    )
    assert abs(v2 - np.pi) < 1e-10
    assert abs(v3 - 4 * np.pi / 3) < 1e-6


def _normalized_psd(rng, m):
    a = rng.standard_normal((m, m))
    g = a @ a.T
    return g / np.linalg.norm(g, 2)


def _wedge_via_eigendecomposition(g, k):
    """Compound matrix assembled from an eigendecomposition, not from minors."""
    w, q = np.linalg.eigh(g)
    qk = compound(q, k)
    prods = [float(np.prod(w[list(idx)])) for idx in combinations(range(len(w)), k)]
    return qk @ np.diag(prods) @ qk.T


def test_criterion_04_pair_forms_satisfy_bianchi_and_polarize():
    rng = np.random.default_rng(4)
    worst_bianchi = 0.0
    worst_entry = 0.0
    for _ in range(200):
        g, h = _normalized_psd(rng, 5), _normalized_psd(rng, 5)
        for k in (2, 3):
            direct = SymKForm.from_map(g, k) + SymKForm.from_map(h, k)
            rebuilt = SymKForm(
                _wedge_via_eigendecomposition(g, k) + _wedge_via_eigendecomposition(h, k), 5, k
            )
            res = polarization_check(direct, rebuilt, trials=8, bianchi_samples=4, seed=rng)
            assert res.concluded, res.failed_form
            assert res.equal
            worst_bianchi = max(worst_bianchi, *res.bianchi_defects)
            worst_entry = max(worst_entry, res.max_entry_diff)
    print(
        f"criterion 04: max Bianchi defect {worst_bianchi:.3e} (tol 1e-10), "
        f"max entry difference {worst_entry:.3e} (tol 1e-08)"
    )
    assert worst_bianchi < 1e-10
    assert worst_entry < 1e-8


def test_criterion_05_alternating_square_form_defeats_naive_polarization():
    q = square_form_matrix(2)
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(10**4):
        rows = rng.standard_normal((2, 4))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        worst = max(worst, abs(q.quadratic(decompose(rows))))
    norm = float(np.linalg.norm(q.matrix, 2))
    zero = SymKForm(np.zeros_like(q.matrix), 4, 2)
    res = polarization_check(q, zero, seed=5)
    print(
        f"criterion 05: max |Q| on decomposables {worst:.3e} (tol 1e-12), "
        f"matrix norm {norm:.3f} (>= 1), refused={not res.concluded}"
    )
    assert worst < 1e-12
    assert norm >= 1.0
    assert not res.concluded
    assert res.failed_form == "A"


def test_criterion_06_umbilic_search_finds_spheroid_pole():
    body = Spheroid((0.0, 0.0, 0.0, 0.0, 1.0), 1.0, 1.4)
    base = Ball(5, 1.0)
    start = time.perf_counter()
    res = antipodal_search(body, base, seed=6, budget=4000)
    elapsed = time.perf_counter() - start
    angular = float(np.arccos(min(1.0, abs(res.umbilic.u0[-1]))))
    r_err = abs(res.umbilic.r0 - 1.0 / 1.4)
    print(
        f"criterion 06: angular distance to axis {angular:.3e} (tol 1e-03), "
        f"|r0 - 1/1.4| = {r_err:.3e} (tol 1e-06), {elapsed:.2f}s"
    )
    assert res.converged
    assert angular < 1e-3
    assert r_err < 1e-6
    assert elapsed < 30.0


def test_criterion_07_candidate_roots_and_solver_agreement():
    cset = enumerate_candidates(1.0, 2.0, 1, 3, 4)
    for root in (1.0 + 1.0 / np.sqrt(3.0), 1.0 - 1.0 / np.sqrt(3.0)):
        assert abs(6 * root**2 - 12 * root + 4) < 1e-12
        assert abs(root**3 + (2.0 - root) ** 3 - 4.0) < 1e-12
        assert match_candidates(root, cset) <= 1e-9 * max(1.0, root)
    solutions = find_hypothesis_solutions(1.0, 2.0, 1, 3, 4, 200, seed=7)
    assert len(solutions) == 200
    worst_res = max(hypothesis_residual(inst).max() for inst in solutions)
    worst_match = max(match_candidates(inst.y, cset) for inst in solutions)
    print(
        f"criterion 07: {len(solutions)} solutions, max hypothesis residual "
        f"{worst_res:.3e}, worst candidate distance {worst_match:.3e} (tol 1e-06)"
    )
    assert worst_match < 1e-6


def test_criterion_08_antipodal_product_sweep_finds_no_nonconstant_solution():
    report = antipodal_falsification(6, 2, 10**6, seed=8)
    constant = antipodal_product_check(np.full(6, 1.37), 1.37**2, 2)
    print(
        f"criterion 08: violations found={report.found_violation}, "
        f"best residual {report.best_residual:.3e}; constant residual "
        f"{constant.max_equation_residual:.1e}"
    )
    assert not report.found_violation
    assert constant.hypothesis_holds
    assert constant.max_equation_residual == 0.0


def test_criterion_09_revolution_relations_for_homothetic_spheroids():
    base = Spheroid((0.0, 0.0, 0.0, 1.0), 1.0, 1.4)
    body = Homothet(base, 1.2, (0.0, 0.0, 0.0, 0.0))
    u = np.array([1.0, 0.0, 0.0, 0.0])
    worst = 0.0
    for i in (1, 2):
        defects = revolution_relations_check(body, base, base.axis, i, 1.2**i, 1.2**3, u)
        worst = max(worst, defects.max_defect(), defects.consequence)
        assert defects.max_defect() < 1e-8
        assert defects.consequence < 1e-8
    print(f"criterion 09: max relation/consequence defect {worst:.3e} (tol 1e-08)")


def test_criterion_10_odd_cubic_perturbation_keeps_constant_width():
    body = HarmonicPerturbation(Ball(3, 1.0), (0.0, 0.0, 1.0), (-1.5, 2.5), 0.1)
    widths = np.array(
        [body.support(u) + body.support(-u) for u in haar_directions(3, 1000, seed=10)]
    )
    dev = np.abs(widths - 2.0).max()
    report = validate(body, samples=512, seed=10)
    print(
        f"criterion 10: max width deviation {dev:.3e} (tol 1e-12), radii in "
        f"[{report.min_radius:.4f}, {report.max_radius:.4f}] (need (0, 2+1e-06])"
    )
    assert dev < 1e-12
    assert report.min_radius > 0.0
    assert report.max_radius <= 2.0 + 1e-6


def test_criterion_11_analytic_jets_match_finite_differences():
    spheroid_profile = RadialProfile(
        g=lambda t: np.sqrt(1.0 + 0.96 * t * t),
        dg=lambda t: 0.96 * t / np.sqrt(1.0 + 0.96 * t * t),
        ddg=lambda t: 0.96 / (1.0 + 0.96 * t * t) ** 1.5,
    )
    families = [
        Ball(3, 1.0),
        Ball(5, 0.7),
        ELLIPSOID_4D,
        Spheroid((0.0, 0.0, 1.0), 1.0, 1.4),
        HarmonicPerturbation(Ball(3, 1.0), (0.0, 0.0, 1.0), (0.3, -0.5), 0.1),
        MinkowskiSum((Ball(3, 0.5), Ellipsoid(np.diag([1.0, 2.0, 3.0])))),
        HOMOTHET_4D,
        Erosion(Ball(3, 2.0), 0.5),
        Revolution((0.0, 0.0, 1.0), spheroid_profile),
    ]
    worst = 0.0
    for body in families:
        for u in haar_directions(body.dim, 100, seed=11):
            exact = body.jet(u)
            approx = finite_difference_jet(body, u)
            scale = max(
                1.0,
                abs(exact.value),
                float(np.linalg.norm(exact.gradient)),
                float(np.linalg.norm(exact.hessian, 2)),
            )
            err = max(
                abs(exact.value - approx.value),
                float(np.linalg.norm(exact.gradient - approx.gradient)),
                float(np.linalg.norm(exact.hessian - approx.hessian, 2)),
            )
            worst = max(worst, err / scale)
    print(f"criterion 11: worst relative jet error {worst:.3e} (tol 1e-06)")
    assert worst < 1e-6
