"""Subset-product relation systems: residuals, candidates, campaigns."""

import hashlib
import math
import re
import threading
import time
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest

from brightlab import lemma_lab
from brightlab.errors import PreconditionError
from brightlab.lemma_lab import (
    RelationInstance,
    antipodal_falsification,
    antipodal_product_check,
    case2_polynomial,
    enumerate_candidates,
    eigenvalue_relation_audit,
    find_hypothesis_solutions,
    hypothesis_residual,
    infinite_family,
    match_candidates,
    ratio_conclusion_check,
)


def proportional_instance(c: float, y: float, k: int, m: int, n: int) -> RelationInstance:
    """x = c*y with constant y, so every x_I + y_I = (1 + c^|I|) y^|I|."""
    a = 0.5 * (1.0 + c**k) * y**k
    b = 0.5 * (1.0 + c**m) * y**m
    return RelationInstance((c * y,) * n, (y,) * n, a, b, k, m)


class TestHypothesisResidual:
    def test_all_ones_is_exact(self):
        inst = RelationInstance((1.0,) * 4, (1.0,) * 4, 1.0, 1.0, 1, 3)
        assert hypothesis_residual(inst) == (0.0, 0.0)

    def test_proportional_construction_is_exact(self):
        res = hypothesis_residual(proportional_instance(0.8, 1.1, 1, 3, 4))
        assert res.max() < 1e-12

    def test_random_inputs_have_positive_residual(self):
        rng = np.random.default_rng(0)
        inst = RelationInstance(
            tuple(rng.uniform(0.5, 1.5, 4)), tuple(rng.uniform(0.5, 1.5, 4)), 1.0, 1.0, 1, 3
        )
        assert hypothesis_residual(inst).max() > 1e-3

    def test_instance_validation(self):
        with pytest.raises(ValueError):
            RelationInstance((1.0, -0.5), (1.0, 1.0), 1.0, 1.0, 1, 2)
        with pytest.raises(ValueError):
            RelationInstance((1.0, 1.0), (1.0, 0.0), 1.0, 1.0, 1, 2)
        with pytest.raises(ValueError):
            RelationInstance((1.0,) * 4, (1.0,) * 4, 1.0, 1.0, 3, 3)
        with pytest.raises(ValueError):
            RelationInstance((1.0,) * 4, (1.0,) * 4, -1.0, 1.0, 1, 3)


class TestRatioConclusion:
    def test_proportional_instance_passes(self):
        assert ratio_conclusion_check(proportional_instance(0.8, 1.1, 1, 3, 4))

    def test_degenerate_margin_is_refused(self):
        fam = infinite_family(0.3, 4)
        with pytest.raises(PreconditionError) as err:
            ratio_conclusion_check(fam)
        assert "margin" in str(err.value)

    def test_hypothesis_violation_is_refused(self):
        inst = RelationInstance((1.0, 1.2, 1.0, 1.0), (1.0,) * 4, 1.0, 1.0, 1, 3)
        with pytest.raises(PreconditionError):
            ratio_conclusion_check(inst)

    def test_solver_found_instances_satisfy_conclusion(self):
        # randomized search over hypothesis-satisfying instances with a
        # nondegenerate margin never violates the constant-ratio conclusion
        sols = find_hypothesis_solutions(1.0, 1.5, 2, 4, 5, solutions=12, seed=3)
        assert len(sols) >= 4
        for inst in sols:
            assert ratio_conclusion_check(inst, tol=1e-9)


class TestInfiniteFamily:
    def test_residuals_vanish_for_every_subset_size(self):
        fam = infinite_family(0.3, 4)
        for k, m in ((1, 2), (1, 3), (2, 3), (2, 4), (3, 4)):
            inst = RelationInstance(fam.x, fam.y, 1.0, 1.0, k, m)
            assert hypothesis_residual(inst).max() == 0.0

    def test_t_one_is_the_constant_instance(self):
        fam = infinite_family(1.0, 5)
        assert fam.x == (1.0,) * 5
        assert fam.y == (1.0,) * 5

    def test_distinct_parameters_give_distinct_instances(self):
        low = infinite_family(0.5, 4)
        high = infinite_family(1.5, 4)
        assert low.x != high.x
        assert hypothesis_residual(low).max() == 0.0
        assert hypothesis_residual(high).max() == 0.0

    def test_continuum_of_ratios(self):
        # the last-slot ratio x/y = t/(2-t) sweeps through a continuum, so
        # no constancy conclusion is possible without the margin condition
        ratios = {infinite_family(t, 4).x[-1] / infinite_family(t, 4).y[-1] for t in (0.3, 0.7, 1.3)}
        assert len(ratios) == 3

    def test_parameter_range_enforced(self):
        with pytest.raises(ValueError):
            infinite_family(0.0, 4)
        with pytest.raises(ValueError):
            infinite_family(2.0, 4)


class TestEnumerateCandidates:
    def test_quadratic_branch_roots_present(self):
        cset = enumerate_candidates(1.0, 2.0, 1, 3, 4)
        lo, hi = 1.0 - 1.0 / np.sqrt(3.0), 1.0 + 1.0 / np.sqrt(3.0)
        # direct substitution: both roots satisfy z^3 + (2-z)^3 = 4
        for z in (lo, hi):
            assert z**3 + (2.0 - z) ** 3 == pytest.approx(4.0, abs=1e-12)
            assert match_candidates(z, cset) <= 1e-9 * max(1.0, z)

    @pytest.mark.parametrize("a,b,k", [(1e300, 2.0, 1), (2.0, 1e300, 2)])
    def test_overflowing_targets_refused_with_value_error(self, a, b, k):
        with pytest.raises(ValueError, match=re.escape(f"a = {a!r}, b = {b!r} ") + f".* k = {k}, m = 4"):
            enumerate_candidates(a, b, k, 4, 5)

    def test_degenerate_margin_rejected(self):
        with pytest.raises(PreconditionError):
            enumerate_candidates(1.2, 1.2**3, 1, 3, 4)

    def test_only_reduced_top_grade_supported(self):
        with pytest.raises(ValueError):
            enumerate_candidates(1.0, 2.0, 1, 2, 4)

    def test_candidates_are_one_float_array(self):
        cands = enumerate_candidates(1.0, 2.0, 1, 3, 4)
        assert cands.ndim == 1 and cands.dtype == np.float64
        assert np.all(cands > 0)

    def test_zero_branch_values_present(self):
        cset = enumerate_candidates(1.0, 2.0, 1, 3, 4)
        # a vanishing x slot forces y = (b/a)^{1/(N-1-k)} = sqrt(2) off-slot
        assert match_candidates(np.sqrt(2.0), cset) <= 1e-9 * np.sqrt(2.0)
        assert match_candidates(2.0, cset) <= 1e-9 * 2.0

    def test_solver_solutions_land_on_candidates(self):
        cset = enumerate_candidates(1.0, 2.0, 1, 3, 4)
        sols = find_hypothesis_solutions(1.0, 2.0, 1, 3, 4, solutions=30, seed=1)
        assert len(sols) >= 10
        worst = max(match_candidates(inst.y, cset) for inst in sols)
        assert worst < 1e-6

    def test_candidate_distances_are_one_broadcast(self):
        cset = enumerate_candidates(1.0, 2.0, 1, 3, 4)
        ys = np.random.default_rng(4).uniform(0.1, 2.0, size=(5, 4))
        dists = lemma_lab._candidate_distances(ys, cset)
        assert dists.tolist() == [[min(abs(c - v) for c in cset) for v in row] for row in ys]
        assert [match_candidates(row, cset) for row in ys] == dists.max(axis=1).tolist()
        assert match_candidates(ys[0, 0], cset) == dists[0, 0]

    def test_proportional_branch_for_higher_grade(self):
        # k = 2: constant solutions solve x^2 + y^2 = 2a, x^4 + y^4 = 2b
        cset = enumerate_candidates(1.0, 1.5, 2, 4, 5)
        s = 1.0 + np.sqrt(0.5)
        expected = np.sqrt(s)  # one of the two constant values
        assert match_candidates(expected, cset) <= 1e-9 * max(1.0, expected)
        sols = find_hypothesis_solutions(1.0, 1.5, 2, 4, 5, solutions=8, seed=2)
        assert len(sols) >= 2
        for inst in sols:
            assert match_candidates(inst.y, cset) < 1e-6


class TestSolverEquations:
    @pytest.mark.parametrize("k,m,n", [(1, 3, 4), (2, 4, 5), (1, 2, 5), (3, 5, 6)])
    def test_jacobian_matches_central_differences(self, k, m, n):
        rng = np.random.default_rng(k * 100 + n)
        a, b, step = 1.1, 1.7, 1e-6
        z = rng.uniform(0.3, 1.6, (3, 2 * n))
        z[np.arange(3), rng.integers(n, size=3)] = 0.0  # a vanishing x entry per row
        jac = lemma_lab._jacobians(z, n, k, m)
        assert jac.shape == (3, comb(n, k) + comb(n, m), 2 * n)
        for i in range(2 * n):
            dz = np.zeros(2 * n)
            dz[i] = step
            plus = lemma_lab._residuals(z + dz, n, k, m, a, b)
            minus = lemma_lab._residuals(z - dz, n, k, m, a, b)
            np.testing.assert_allclose(jac[:, :, i], (plus - minus) / (2 * step), rtol=0, atol=1e-8)

    @pytest.mark.parametrize("k,m,n", [(1, 3, 4), (2, 4, 5)])
    def test_residual_levels_match_hypothesis_residual(self, k, m, n):
        rng = np.random.default_rng(n)
        insts = [
            RelationInstance(
                tuple(rng.uniform(0.0, 1.5, n)), tuple(rng.uniform(0.5, 1.5, n)), 1.2, 0.9, k, m
            )
            for _ in range(3)
        ]
        z = np.array([inst.x + inst.y for inst in insts])
        rows = np.abs(lemma_lab._residuals(z, n, k, m, 1.2, 0.9))
        assert rows.shape == (3, comb(n, k) + comb(n, m))
        for row, inst in zip(rows, insts):
            res = hypothesis_residual(inst)
            assert row[: comb(n, k)].max() == res.k_residual
            assert row[comb(n, k) :].max() == res.m_residual


def sequential_solutions(a, b, k, m, n, solutions, seed):
    """Oracle: the restart-at-a-time damped Gauss-Newton loop, one np.linalg.lstsq per step.

    Like the solver it runs at a' = 1, b' = b a^(-m/k) and scales its
    solutions back by a^(1/k).  Returns the converged z = (x, y) vectors in
    restart order, the restarts drawn and the least-squares steps they took.
    """
    unit, b = lemma_lab._normalized_targets(a, b, k, m)
    a = 1.0

    def residual(z):
        return lemma_lab._residuals(z[None], n, k, m, a, b)[0]

    rng = np.random.default_rng(seed)
    scale = max(a, b) ** (1.0 / k)
    found, restarts, steps = [], 0, 0
    while len(found) < solutions and restarts < lemma_lab._MAX_RESTARTS:
        restarts += 1
        z = rng.uniform(0.05, 1.8, size=2 * n) * scale
        for _ in range(lemma_lab._MAX_ITER):
            f = residual(z)
            norm0 = np.abs(f).max()
            if norm0 < lemma_lab._SOLVER_TOL:
                break
            step, *_ = np.linalg.lstsq(lemma_lab._jacobians(z[None], n, k, m)[0], -f, rcond=None)
            steps += 1
            lam = 1.0
            for _ in range(30):
                cand = z + lam * step
                cand[:n] = np.maximum(cand[:n], 0.0)
                cand[n:] = np.maximum(cand[n:], 1e-12)
                if np.abs(residual(cand)).max() < norm0:
                    z = cand
                    break
                lam *= 0.5
            else:
                break
        if np.abs(residual(z)).max() < lemma_lab._SOLVER_TOL and z[n:].min() > 1e-9:
            found.append(z * unit)
    return found, restarts, steps


def per_row_lstsq(jac, rhs):
    return np.array([np.linalg.lstsq(j, r, rcond=None)[0] for j, r in zip(jac, rhs)])


# the kinds of square Jacobian that ``_min_norm_steps`` hands to its SVD
TRIAGE_TO_SVD = {"singular", "zero", "above", "rank5"}


def signed_diagonal(rng, diag):
    """diag(diag) with random signs: its inverse, its SVD and lstsq are exact up to rounding.

    (lstsq on a row permutation of it errs by about kappa eps, 1e-8 at kappa 1e8.)
    """
    return np.diag(rng.choice([-1.0, 1.0], size=len(diag)) * diag)


def triage_stack(rng):
    """A shuffled stack of 8 x 8 Jacobians of every triage kind, with right-hand sides.

    The near-bound rows are diagonal with kappa_1 = 1e8 (1 -+ 1e-3) and a
    right-hand side in their range, so both the inverse and lstsq recover
    an O(1) solution to rounding.
    """
    bound = lemma_lab._LU_KAPPA
    singular = rng.normal(size=(8, 8))
    singular[:, 3] = 0.0  # an exactly zero pivot in every LU
    below = signed_diagonal(rng, np.r_[np.ones(7), 1.0 / (bound * (1 - 1e-3))])
    above = signed_diagonal(rng, np.r_[np.ones(7), 1.0 / (bound * (1 + 1e-3))])
    rows = {
        "well": np.linalg.qr(rng.normal(size=(8, 8)))[0],
        "well2": rng.normal(size=(8, 8)) + 4.0 * np.eye(8),
        "singular": singular,
        "zero": np.zeros((8, 8)),
        "below": below,
        "above": above,
        "rank5": rng.normal(size=(8, 5)) @ rng.normal(size=(5, 8)),
    }
    kinds = list(rng.permutation(list(rows)))
    jac = np.array([rows[kind] for kind in kinds])
    rhs = rng.normal(size=(len(kinds), 8))
    for i, kind in enumerate(kinds):
        if kind in ("below", "above"):
            rhs[i] = jac[i] @ rng.normal(size=8)
    # a rank-deficient product may or may not leave an exactly zero pivot
    sign = np.linalg.slogdet(jac)[0]
    for kind, s in zip(kinds, sign):
        assert kind == "rank5" or (s == 0) == (kind in ("singular", "zero"))
    return kinds, jac, rhs


class TestBatchedSolver:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("k,m,n", [(1, 3, 4), (2, 4, 5), (1, 2, 5), (3, 5, 6)])
    def test_matches_sequential_restarts(self, k, m, n, seed):
        ref, restarts, steps = sequential_solutions(1.1, 1.7, k, m, n, 12, seed)
        got = find_hypothesis_solutions(1.1, 1.7, k, m, n, 12, seed=seed)
        assert len(got) == len(ref) == 12
        for inst, z in zip(got, ref):
            np.testing.assert_allclose(inst.x + inst.y, z, rtol=0, atol=1e-12)
        assert (got.restarts, got.gauss_newton_steps) == (restarts, steps)

    def test_block_of_starts_is_the_sequential_stream(self):
        block = np.random.default_rng(5).uniform(0.05, 1.8, size=(7, 8))
        rng = np.random.default_rng(5)
        rows = [rng.uniform(0.05, 1.8, size=8) for _ in range(7)]
        assert np.array_equal(block, np.array(rows))

    def test_no_row_converges(self, monkeypatch):
        # (k, m, N) = (2, 3, 4) at a = 1.1, b = 1.7 has no solution the solver
        # reaches; a cap of 70 starts is one block of 64 and one of 6
        monkeypatch.setattr(lemma_lab, "_MAX_RESTARTS", 70)
        ref, restarts, steps = sequential_solutions(1.1, 1.7, 2, 3, 4, 1, seed=0)
        got = find_hypothesis_solutions(1.1, 1.7, 2, 3, 4, 1, seed=0)
        assert got == ref == [] and got.restarts == restarts == 70
        # stalled runs are chaotic: a rounding-level change in one step can
        # flip a later line-search decision, so only the lstsq step itself
        # reproduces the loop's count exactly
        assert got.gauss_newton_steps == pytest.approx(steps, rel=0.02)
        monkeypatch.setattr(lemma_lab, "_min_norm_steps", per_row_lstsq)
        got = find_hypothesis_solutions(1.1, 1.7, 2, 3, 4, 1, seed=0)
        assert got == [] and (got.restarts, got.gauss_newton_steps) == (restarts, steps)

    @pytest.mark.parametrize(
        "rows,cols,rank", [(8, 8, 8), (8, 8, 5), (12, 10, 10), (6, 10, 6), (9, 8, 0)]
    )
    def test_min_norm_steps_match_lstsq(self, rows, cols, rank):
        rng = np.random.default_rng(rows * cols + rank)
        jac = rng.normal(size=(5, rows, rank)) @ rng.normal(size=(5, rank, cols))
        rhs = rng.normal(size=(5, rows))
        got = lemma_lab._min_norm_steps(jac, rhs)
        np.testing.assert_allclose(got, per_row_lstsq(jac, rhs), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("order", range(12))
    def test_triage_matches_lstsq_row_by_row(self, monkeypatch, order):
        rng = np.random.default_rng(order)
        kinds, jac, rhs = triage_stack(rng)
        seen = []
        svd_steps = lemma_lab._svd_steps

        def spy(j, r):
            seen.append(j.copy())
            return svd_steps(j, r)

        monkeypatch.setattr(lemma_lab, "_svd_steps", spy)
        got = lemma_lab._min_norm_steps(jac, rhs)
        np.testing.assert_allclose(got, per_row_lstsq(jac, rhs), rtol=0, atol=1e-12)
        # one SVD call, on the rows an LU step cannot take, in their order
        fallback = [i for i, kind in enumerate(kinds) if kind in TRIAGE_TO_SVD]
        assert len(seen) == 1 and np.array_equal(seen[0], jac[fallback])

    def test_triage_without_fallback_makes_no_svd_call(self, monkeypatch):
        rng = np.random.default_rng(7)
        jac, rhs = rng.normal(size=(6, 8, 8)), rng.normal(size=(6, 8))
        monkeypatch.setattr(lemma_lab, "_svd_steps", None)  # calling it would raise
        got = lemma_lab._min_norm_steps(jac, rhs)
        np.testing.assert_allclose(got, per_row_lstsq(jac, rhs), rtol=0, atol=1e-12)

    def test_singular_screen_runs_only_when_the_stacked_inverse_raises(self, monkeypatch):
        calls = []
        slogdet = np.linalg.slogdet
        kinds, singular_jac, singular_rhs = triage_stack(np.random.default_rng(0))
        rng = np.random.default_rng(7)
        jac, rhs = rng.normal(size=(6, 8, 8)), rng.normal(size=(6, 8))
        monkeypatch.setattr(np.linalg, "slogdet", lambda a: calls.append(len(a)) or slogdet(a))
        lemma_lab._min_norm_steps(jac, rhs)
        assert calls == []
        lemma_lab._min_norm_steps(singular_jac, singular_rhs)
        assert calls == [len(kinds)]

    def test_converged_row_with_vanishing_y_is_not_kept(self):
        # x = 1 - c, y = c solves both levels at a = 1/2 for b = ((1-c)^3 + c^3) / 2
        c = 1e-12
        b = ((1 - c) ** 3 + c**3) / 2
        z = np.array([[1 - c] * 4 + [c] * 4])
        assert np.abs(lemma_lab._residuals(z, 4, 1, 3, 0.5, b)).max() < lemma_lab._SOLVER_TOL
        ok, steps = lemma_lab._gauss_newton_block(z, 4, 1, 3, 0.5, b)
        assert not ok[0] and steps[0] == 0

    def test_zero_solutions_draws_nothing(self):
        got = find_hypothesis_solutions(1.0, 2.0, 1, 3, 4, 0, seed=0)
        assert got == [] and (got.restarts, got.gauss_newton_steps) == (0, 0)

    def test_infeasible_first_grade_target_returns_before_any_start(self):
        # k = 1 forces x_i + y_i = 2a, so every 3-level sum is at most (2a)^3 = 8
        got = find_hypothesis_solutions(1.0, 1e12, 1, 3, 4, 5, seed=0)
        assert got == [] and (got.restarts, got.gauss_newton_steps) == (0, 0)
        assert isinstance(got, lemma_lab.SolverSolutions)

    def test_first_grade_bound_itself_is_not_refused(self):
        # 2b = (2a)^3 is reached by x = 0, y = 2a
        got = find_hypothesis_solutions(1.0, 4.0, 1, 3, 4, 1, seed=0)
        assert len(got) == 1 and got.restarts >= 1
        assert np.allclose(got[0].x, 0.0, atol=1e-9) and np.allclose(got[0].y, 2.0, atol=1e-9)

    @pytest.mark.parametrize(
        "a,b", [(1.0, 1e300), (1e300, 1.0), (1.0, float("inf")), (1e-300, 1.0), (0.0, 1.0)]
    )
    def test_unrepresentable_targets_refused_before_any_start(self, a, b):
        with pytest.raises(ValueError, match="a = .*b = "):
            find_hypothesis_solutions(a, b, 1, 3, 4, 1, seed=0)

    @pytest.mark.parametrize("t", [2.0**-20, 2.0**20, 2.0**40])
    @pytest.mark.parametrize("k,m,n", [(1, 3, 4), (2, 4, 5), (3, 5, 6)])
    def test_scaled_targets_give_the_same_run_scaled(self, k, m, n, t):
        # (t^k a, t^m b) is the system at (a, b) with x, y scaled by t
        ref = find_hypothesis_solutions(1.1, 1.7, k, m, n, 6, seed=2)
        got = find_hypothesis_solutions(t**k * 1.1, t**m * 1.7, k, m, n, 6, seed=2)
        assert len(got) == len(ref) == 6
        assert (got.restarts, got.gauss_newton_steps) == (ref.restarts, ref.gauss_newton_steps)
        for scaled, inst in zip(got, ref):
            assert scaled.x == tuple(t * v for v in inst.x)
            assert scaled.y == tuple(t * v for v in inst.y)

    def test_far_apart_targets_run_at_unit_scale(self):
        # solved at the raw scale, where the residuals are near 1e12 and the
        # absolute tolerance is out of reach, this shortfall took 89 s
        start = time.perf_counter()
        got = find_hypothesis_solutions(1e12, 2.0, 1, 3, 4, 200, seed=1)
        assert time.perf_counter() - start < 10.0
        assert got.restarts == lemma_lab._MAX_RESTARTS


class TestCase2Polynomial:
    def test_constant_level_polynomial_for_three_entries(self):
        # z^2 + (2a - z)^2 - 2b = (4a^2 - 2b) - 4a z + 2 z^2
        from brightlab.lemma_lab import _constant_level_poly

        a, b = Fraction(13, 10), Fraction(7, 4)
        assert list(_constant_level_poly(a, b, 3)) == [4 * a**2 - 2 * b, -4 * a, 2]


    @pytest.mark.parametrize("n,l", [(4, 2), (5, 2), (5, 3), (6, 2), (6, 3), (6, 4)])
    def test_degree_bound_is_attained(self, n, l):
        poly = case2_polynomial(1.0, 2.0, l, n)
        assert len(poly) - 1 == (l - 1) * (2 * (n - l) - 1)
        assert poly[-1] != 0

    def test_parameter_range(self):
        with pytest.raises(ValueError):
            case2_polynomial(1.0, 2.0, 1, 4)
        with pytest.raises(ValueError):
            case2_polynomial(1.0, 2.0, 3, 4)

    def test_roots_produce_hypothesis_solutions(self):
        # every positive root t of the branch polynomial yields a two-value
        # x-vector whose mixed products hit 2b exactly
        from brightlab.lemma_lab import _positive_real_roots

        n, l, a, b = 5, 2, 1.0, 2.0
        for t in _positive_real_roots(case2_polynomial(a, b, l, n)):
            z1 = 2 * a / (1 + t ** (n - l - 1))
            z2 = 2 * a * t ** (l - 1) / (1 + t ** (l - 1))
            x = np.array([z1] * l + [z2] * (n - l))
            y = 2 * a - x
            inst = RelationInstance(tuple(x), tuple(y), a, b, 1, n - 1)
            assert hypothesis_residual(inst).max() < 1e-9


class TestAntipodalProducts:
    def test_constant_vector_passes_exactly(self):
        result = antipodal_product_check((1.3,) * 6, 1.3**2, 2)
        assert result.hypothesis_holds
        assert result.max_equation_residual == 0.0
        assert result.is_constant

    def test_nonconstant_vector_reports_residual(self):
        x = np.array([0.5, 0.8, 1.0, 1.2, 1.5, 2.0])
        gamma = float(np.mean([x[0] * x[1] + x[-1] * x[-2]]) / 2)
        result = antipodal_product_check(x, gamma, 2, tol=1e-10)
        assert not result.hypothesis_holds
        assert result.max_equation_residual > 1e-2
        assert not result.is_constant

    def test_input_validation(self):
        with pytest.raises(ValueError):
            antipodal_product_check((1.0, 2.0, 3.0), 1.0, 2)
        with pytest.raises(ValueError):
            antipodal_product_check((2.0, 1.0, 3.0, 4.0), 1.0, 2)
        with pytest.raises(ValueError):
            antipodal_product_check((1.0, 1.0, 1.0, 1.0), 1.0, 3)
        with pytest.raises(ValueError):
            antipodal_product_check((-1.0, 1.0, 1.0, 1.0), 1.0, 2)

    @pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan")])
    def test_tolerance_that_can_never_hold_is_refused(self, tol):
        # an exact constant vector would report neither hypothesis nor constancy
        with pytest.raises(ValueError, match="'tol' must be positive"):
            antipodal_product_check((1.3,) * 6, 1.3**2, 2, tol=tol)

    def test_falsification_finds_no_nonconstant_solution(self):
        report = antipodal_falsification(6, 2, 50000, seed=0)
        assert not report.found_violation
        assert report.best_residual > 1e-6
        assert report.best_x is not None
        assert report.best_x[-1] - report.best_x[0] >= report.min_spread

    def test_falsification_row_retention(self):
        report = antipodal_falsification(6, 2, 1000, seed=1)
        assert report.rows is not None
        assert report.rows.shape == (1000, 2)
        assert np.all(report.rows[:, 0] >= 0)

    @pytest.mark.parametrize("mlen,k", [(M, k) for M in range(4, 9) for k in range(2, M - 1)])
    def test_kernel_matches_the_gather_formula(self, mlen, k):
        rng = np.random.default_rng(10 * mlen + k)
        x = np.sort(rng.uniform(0.2, 2.0, size=(3000, mlen)), axis=1)
        idx = np.array(list(combinations(range(mlen), k)))
        sums = np.prod(x[..., idx], axis=-1) + np.prod(x[..., mlen - 1 - idx[:, ::-1]], axis=-1)
        gamma = sums.mean(axis=1) / 2.0
        residual = np.abs(sums - 2.0 * gamma[:, None]).max(axis=1)
        mean, hi, lo = lemma_lab._antipodal_extremes(x.T, k)
        assert np.array_equal(mean / 2.0, gamma)
        assert np.array_equal(lemma_lab._antipodal_residual(hi, lo, gamma), residual)

    @pytest.mark.parametrize("mlen", range(4, 65))
    def test_sorting_network_matches_np_sort(self, mlen):
        rng = np.random.default_rng(mlen)
        x = rng.uniform(0.2, 2.0, size=(400, mlen))
        x[::2] = np.round(x[::2], 1)  # many repeated values in every other row
        if mlen <= 16:
            # every 0-1 vector: a network that sorts them sorts every input
            x = np.vstack([x, np.arange(1 << mlen)[:, None] >> np.arange(mlen) & 1])
        cols = list(x.T)
        for i, j in lemma_lab._sorting_network(mlen):
            cols[i], cols[j] = np.minimum(cols[i], cols[j]), np.maximum(cols[i], cols[j])
        assert np.array_equal(np.array(cols), np.sort(x, axis=1).T)

    @pytest.mark.parametrize("budget", [15, 15 * 7 + 3, 15 * 1000])
    def test_report_does_not_depend_on_the_chunk_size(self, monkeypatch, budget):
        # C(6, 2) = 15 subsets, so the budgets give chunks of 1, 7 and 1000 rows
        ref = antipodal_falsification(6, 2, 2500, seed=4)
        monkeypatch.setattr(lemma_lab, "_WORKING_SET", budget)
        got = antipodal_falsification(6, 2, 2500, seed=4)
        assert np.array_equal(got.rows, ref.rows)
        assert np.array_equal(got.best_x, ref.best_x)
        assert (got.best_gamma, got.best_residual) == (ref.best_gamma, ref.best_residual)

    @pytest.mark.parametrize("mlen,k", [(4, 2), (6, 2), (6, 3), (7, 3), (8, 5)])
    def test_check_matches_a_combinations_brute_force(self, mlen, k):
        xs = np.sort(np.random.default_rng(mlen + k).uniform(0.2, 2.0, size=mlen)).tolist()
        gamma = 0.61
        worst = max(
            abs(
                math.prod(xs[i] for i in subset)
                + math.prod(xs[mlen - 1 - i] for i in reversed(subset))
                - 2.0 * gamma
            )
            for subset in combinations(range(mlen), k)
        )
        assert antipodal_product_check(xs, gamma, k).max_equation_residual == worst

    def test_campaign_size_is_checked_before_any_table(self, monkeypatch):
        with pytest.raises(ValueError, match="trials >= 1, got 0"):
            antipodal_falsification(6, 2, 0)
        monkeypatch.setattr(lemma_lab, "_index_tuples", None)
        monkeypatch.setattr(lemma_lab, "_rank_lookup", None)
        with pytest.raises(ValueError, match=r"m_len = 60, k = 30 .* above the ceiling"):
            antipodal_falsification(60, 30, 10)
        with pytest.raises(ValueError, match=r"m_len = 60, k = 30 .* above the ceiling"):
            antipodal_product_check(np.linspace(1.0, 2.0, 60), 1.0, 30)


# SHA-256 of rows.tobytes(), best_residual, best_gamma and best_x of campaigns
# of 10**5 trials, recorded before the campaign ran in reused chunk buffers
CAMPAIGN_PINS = {
    (6, 2, 1): (
        "0bf7fe35994dd45c0d4d04f2e5b64614a65c4cc496af1cafb7762c588bfcb23c",
        0.011581227919838843,
        0.27101277266844026,
        [0.4680665285772883, 0.4923903079758239, 0.49433457391344016,
         0.5490460731313354, 0.5546626625254214, 0.566633464509152],
    ),
    (6, 2, 2): (
        "7d95bd18fe2a3f3fd10ea6bb538a854d6a4d8abe8a6daa22b6d9cdaeb48fc620",
        0.023947820133572217,
        0.43697733964628976,
        [0.5406205815870821, 0.5775604172474667, 0.646138468668889,
         0.6772693845202259, 0.7388202095805718, 0.7926982006686423],
    ),
    (6, 2, 3): (
        "429670ae57476c8e4e470912c1d612af047c0a162b99dd2ab8dc4e39e699c130",
        0.010677003388250172,
        0.34103730581447994,
        [0.5083106439256107, 0.5613720435670265, 0.5779198826555135,
         0.5808742945091893, 0.6003578001794431, 0.6776938518473798],
    ),
    (8, 3, 1): (
        "c88bc50d474746d63b83427b2fc50e7eb0c489563353c0b8c1e80183be1f27de",
        0.020240473831509745,
        0.045172046299290114,
        [0.2085992557388321, 0.2490847989004682, 0.3328108810216468, 0.3517556485997395,
         0.3699250784963851, 0.41604679899492314, 0.4628607913903899, 0.48445360035796],
    ),
    (8, 3, 2): (
        "71d3f2ec0687fa70d2ca2f3e3b5d4eef702f08330bbbdabdaf0f18ebafdc75a8",
        0.050537992594535286,
        0.39092321059803287,
        [0.5824134905907631, 0.6672340659696308, 0.7276864057767685, 0.7349876654603291,
         0.7428633970606446, 0.7564636676755905, 0.7791863317192751, 0.8681097123184016],
    ),
    (8, 3, 3): (
        "9ccf52fdd6ea203974457ba8847a9c0a7beb2cfd659836b3b18b9137335e2dd5",
        0.010524569742924816,
        0.1970957579820067,
        [0.5083106439256107, 0.5358019200942529, 0.5613720435670265, 0.5779198826555135,
         0.5808742945091893, 0.6003578001794431, 0.617936452778358, 0.6776938518473798],
    ),
}


class TestCampaignWorkspace:
    @pytest.mark.parametrize("mlen, k, seed", sorted(CAMPAIGN_PINS))
    def test_campaign_matches_its_pinned_rows_and_best_trial(self, mlen, k, seed):
        digest, residual, gamma, best_x = CAMPAIGN_PINS[mlen, k, seed]
        report = antipodal_falsification(mlen, k, 100_000, seed=seed)
        assert hashlib.sha256(report.rows.tobytes()).hexdigest() == digest
        assert (report.best_residual, report.best_gamma) == (residual, gamma)
        assert report.best_x.tolist() == best_x

    @pytest.mark.parametrize(
        "mlen, k, budget", [(6, 2, 15 * 7 + 3), (8, 3, 56 * 5), (6, 2, 1 << 18), (7, 3, 35 * 333)]
    )
    def test_draws_are_generator_uniform_across_chunk_seams(self, monkeypatch, mlen, k, budget):
        # with no comparator the rows come from the draws in the order drawn, so
        # they must be those of one Generator.uniform call, whatever the chunks;
        # a numpy build that fused the in-place multiply and add would differ
        trials = 1000
        monkeypatch.setattr(lemma_lab, "_sorting_network", lambda size: ())
        monkeypatch.setattr(lemma_lab, "_WORKING_SET", budget)
        report = antipodal_falsification(mlen, k, trials, seed=11)
        draws = np.random.default_rng(11).uniform(0.2, 2.0, size=(trials, mlen))
        mean, hi, lo = lemma_lab._antipodal_extremes(draws.T, k)
        residual = lemma_lab._antipodal_residual(hi, lo, mean / 2.0)
        assert np.array_equal(report.rows[:, 0], residual)
        assert np.array_equal(report.rows[:, 1], draws[:, -1] - draws[:, 0])

    @pytest.mark.parametrize("budget", [15 * 7 + 3, 1 << 18])
    def test_counts_equal_the_masks_over_rows(self, monkeypatch, budget):
        # thresholds loose enough that both counts lie strictly between 0 and trials
        monkeypatch.setattr(lemma_lab, "_WORKING_SET", budget)
        report = antipodal_falsification(6, 2, 5000, seed=2, tol=0.4, min_spread=0.8)
        eligible = report.rows[:, 1] >= report.min_spread
        violation = eligible & (report.rows[:, 0] < report.residual_tol)
        assert report.eligible_trials == int(eligible.sum())
        assert report.violations == int(violation.sum())
        assert 0 < report.violations < report.eligible_trials < 5000
        assert report.found_violation
        assert type(report.eligible_trials) is int and type(report.violations) is int

    @pytest.mark.parametrize("budget", [15, 15 * 7 + 3, 15 * 1000])
    @pytest.mark.parametrize("chunks, extra", [(1, 0), (2, 0), (3, 0), (4, -1), (4, 1)])
    def test_report_does_not_depend_on_the_split(self, monkeypatch, budget, chunks, extra):
        # 1, 2 and 3 whole chunks, and 4 chunks -+ 1 trial: the second half is
        # empty or one chunk, or ends in a partial chunk or in a chunk of one row
        trials = chunks * (budget // 15) + extra
        ref = antipodal_falsification(6, 2, trials, seed=6, tol=0.05, min_spread=0.5)
        monkeypatch.setattr(lemma_lab, "_WORKING_SET", budget)
        got = antipodal_falsification(6, 2, trials, seed=6, tol=0.05, min_spread=0.5)
        assert np.array_equal(got.rows, ref.rows)
        assert np.array_equal(got.best_x, ref.best_x)
        assert (got.best_gamma, got.best_residual) == (ref.best_gamma, ref.best_residual)
        assert (got.eligible_trials, got.violations) == (ref.eligible_trials, ref.violations)

    def test_a_tie_between_the_halves_goes_to_the_first(self, monkeypatch):
        # every trial's residual is 1, so the first eligible trial, trial 0, wins
        def flat(cols, k, work=None):
            return np.zeros(len(cols[0])), np.ones(len(cols[0])), np.zeros(len(cols[0]))

        monkeypatch.setattr(lemma_lab, "_antipodal_extremes", flat)
        monkeypatch.setattr(lemma_lab, "_WORKING_SET", 15 * 7)
        report = antipodal_falsification(6, 2, 100, seed=9)
        first = np.sort(np.random.default_rng(9).uniform(0.2, 2.0, size=6))
        assert report.rows[0, 1] >= report.min_spread
        assert np.array_equal(report.best_x, first)
        assert (report.best_residual, report.best_gamma) == (1.0, 0.0)

    @pytest.mark.parametrize("failing", ["worker", "caller"])
    def test_a_failing_half_raises_and_both_are_joined(self, monkeypatch, failing):
        kernel = lemma_lab._antipodal_extremes

        def fails_on_one_side(cols, k, work=None):
            if (threading.current_thread() is threading.main_thread()) == (failing == "caller"):
                raise RuntimeError(f"{failing} half failed")
            return kernel(cols, k, work)

        monkeypatch.setattr(lemma_lab, "_antipodal_extremes", fails_on_one_side)
        monkeypatch.setattr(lemma_lab, "_WORKING_SET", 15 * 7)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match=f"^{failing} half failed$"):
            antipodal_falsification(6, 2, 100, seed=9)
        assert threading.active_count() == threads

    def test_a_seed_sequence_seeds_the_campaign(self, monkeypatch):
        # with no comparator the spreads are the draws' last minus first column
        monkeypatch.setattr(lemma_lab, "_sorting_network", lambda size: ())
        monkeypatch.setattr(lemma_lab, "_WORKING_SET", 15 * 7)
        report = antipodal_falsification(6, 2, 100, seed=[3, 4])
        draws = np.random.default_rng([3, 4]).uniform(0.2, 2.0, size=(100, 6))
        assert np.array_equal(report.rows[:, 1], draws[:, -1] - draws[:, 0])

    def test_an_unseeded_campaign_makes_one_entropy_draw(self, monkeypatch):
        made = []

        class Spy(np.random.SeedSequence):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(lemma_lab.np.random, "SeedSequence", Spy)
        monkeypatch.setattr(lemma_lab, "_WORKING_SET", 15 * 7)
        report = antipodal_falsification(6, 2, 100, seed=None)
        assert len(made) == 1
        # both halves drew from that one entropy: the seeded campaign repeats it
        again = antipodal_falsification(6, 2, 100, seed=made[0].entropy)
        assert np.array_equal(report.rows, again.rows)

    def test_a_generator_is_refused_as_seed(self):
        with pytest.raises(TypeError, match="'seed' must be an int, a sequence of ints or None, got Generator"):
            antipodal_falsification(6, 2, 100, seed=np.random.default_rng(0))

    @pytest.mark.parametrize(
        "key, kwargs",
        [
            ("residual_tol", {"tol": 0.0}),
            ("residual_tol", {"tol": -1.0}),
            ("residual_tol", {"tol": float("nan")}),
            ("min_spread", {"min_spread": 0.0}),
            ("min_spread", {"min_spread": -1e-3}),
            ("min_spread", {"min_spread": float("nan")}),
        ],
    )
    def test_thresholds_that_can_never_fire_are_refused(self, key, kwargs):
        # no residual is below tol <= 0, and a spread of 0 is the lemma's own
        # conclusion, which must never count as a violation
        with pytest.raises(ValueError, match=f"'{key}' must be positive"):
            antipodal_falsification(6, 2, 10, **kwargs)


class TestEigenvalueAudit:
    def test_isotropic_profiles_have_zero_defect(self):
        beta = 0.49
        r = np.full(3, np.sqrt(beta))
        audit = eigenvalue_relation_audit(r, r, 2, beta)
        assert audit.max_defect < 1e-15
        assert audit.antitone_ok

    def test_perturbation_scale_is_reported(self):
        beta = 1.0
        r = np.ones(4)
        r_tilde = np.ones(4)
        r_tilde[0] += 1e-3
        audit = eigenvalue_relation_audit(r, r_tilde, 2, beta)
        assert audit.max_defect == pytest.approx(1e-3, rel=1e-6)

    def test_pipeline_integration_with_relative_maps(self):
        from brightlab.body import Ellipsoid, Homothet, tangent_frames
        from brightlab.sampling import haar_directions
        from brightlab.weingarten import relative_maps

        base = Ellipsoid(np.diag([1.0, 1.69, 0.64, 1.21]))
        body = Homothet(base, 0.7, (0.1, 0.0, -0.2, 0.0))
        u = haar_directions(4, 1, 4)[0]
        v = np.stack([u, -u])
        r, r_tilde = np.linalg.eigvalsh(relative_maps(body, base, v, tangent_frames(v)))
        r_tilde = r_tilde[::-1]
        audit = eigenvalue_relation_audit(r, r_tilde, 2, 0.49)
        assert audit.max_defect < 1e-7
        assert audit.antitone_ok

    def test_increasing_r_tilde_flags_pairing(self):
        audit = eigenvalue_relation_audit(np.ones(3), np.array([0.5, 1.0, 1.5]), 1, 1.0)
        assert not audit.antitone_ok

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            eigenvalue_relation_audit(np.ones(3), np.ones(4), 1, 1.0)
        with pytest.raises(ValueError):
            eigenvalue_relation_audit(np.ones(3), np.ones(3), 4, 1.0)
