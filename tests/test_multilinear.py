"""Exterior-power linear algebra: minors, forms, Bianchi sums, eigenbases."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brightlab.errors import InternalInconsistencyError, PreconditionError
from brightlab.multilinear import (
    KVector,
    SymKForm,
    _rank_lookup,
    bianchi_defect,
    common_eigenbasis,
    compound,
    decompose,
    det,
    polarization_check,
    square_form_matrix,
)
from brightlab.sampling import haar_directions


def det_oracle(matrix) -> float:
    """Cofactor-expansion determinant, independent of np.linalg."""
    matrix = [list(row) for row in matrix]
    size = len(matrix)
    if size == 1:
        return matrix[0][0]
    total = 0.0
    for col in range(size):
        minor = [row[:col] + row[col + 1 :] for row in matrix[1:]]
        total += (-1.0) ** col * matrix[0][col] * det_oracle(minor)
    return total


def wedge_oracle(a: np.ndarray, k: int) -> np.ndarray:
    """All k x k minors via the cofactor oracle, lex-ordered."""
    m = a.shape[0]
    sets = list(itertools.combinations(range(m), k))
    out = np.empty((len(sets), len(sets)))
    for p, rows in enumerate(sets):
        for q, cols in enumerate(sets):
            out[p, q] = det_oracle([[a[r, c] for c in cols] for r in rows])
    return out


class TestDecomposeAndGram:
    def test_basis_vectors_decompose_to_basis_kvectors(self):
        e = np.eye(4)
        xi = decompose(np.array([e[0], e[2]]))
        expected = KVector.basis(4, 2, (1, 3))
        assert np.allclose(xi.coords, expected.coords)

    def test_alternating_in_rows(self):
        rng = np.random.default_rng(0)
        u = rng.standard_normal((2, 5))
        xi = decompose(u)
        swapped = decompose(u[::-1])
        assert np.allclose(xi.coords, -swapped.coords)

    def test_dependent_rows_give_zero(self):
        u = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
        assert decompose(u).norm() < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_gram_identity_matches_coordinate_inner(self, seed):
        rng = np.random.default_rng(seed)
        u = rng.uniform(-1, 1, size=(3, 5))
        v = rng.uniform(-1, 1, size=(3, 5))
        lhs = decompose(u).inner(decompose(v))
        rhs = np.linalg.det(u @ v.T)  # Cauchy-Binet: the Gram determinant det(<u_i, v_j>)
        assert lhs == pytest.approx(rhs, abs=1e-10)


class TestWedgePower:
    def test_minors_match_cofactor_oracle(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 5))
        for k in (1, 2, 3, 4):
            got = compound(a, k)
            assert np.allclose(got, wedge_oracle(a, k), atol=1e-10)

    def test_top_grade_is_determinant(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((4, 4))
        top = compound(a, 4)
        assert top.shape == (1, 1)
        assert top[0, 0] == pytest.approx(np.linalg.det(a))

    def test_identity_maps_to_identity(self):
        eye = compound(np.eye(5), 2)
        assert np.allclose(eye, np.eye(10))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 3))
    def test_multiplicative_over_products(self, seed, k):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1, 1, size=(4, 4))
        b = rng.uniform(-1, 1, size=(4, 4))
        lhs = compound(a @ b, k)
        rhs = compound(a, k) @ compound(b, k)
        assert np.allclose(lhs, rhs, atol=1e-10)

    def test_apply_matches_row_transform(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 4))
        u = rng.standard_normal((2, 4))
        lhs = compound(a, 2) @ decompose(u).coords
        rhs = decompose(u @ a.T)
        assert np.allclose(lhs, rhs.coords, atol=1e-10)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            compound(np.ones((2, 3)), 1)
        with pytest.raises(ValueError):
            compound(np.ones(3), 1)
        with pytest.raises(ValueError):
            compound(np.eye(3), 4)


class TestStackedCompound:
    @pytest.mark.parametrize("m", range(1, 7))
    def test_slices_equal_single_matrix_powers_bit_for_bit(self, m):
        a = np.random.default_rng(m).standard_normal((7, m, m))
        for k in range(1, m + 1):
            stacked = compound(a, k)
            assert stacked.shape == (7,) + compound(a[0], k).shape
            for i in range(len(a)):
                assert np.array_equal(stacked[i], compound(a[i], k))

    def test_leading_axes_and_cofactor_oracle(self):
        a = np.random.default_rng(4).standard_normal((2, 3, 4, 4))
        stacked = compound(a, 2)
        assert stacked.shape == (2, 3, 6, 6)
        for i, j in np.ndindex(2, 3):
            np.testing.assert_allclose(stacked[i, j], wedge_oracle(a[i, j], 2), atol=1e-12)

    @pytest.mark.parametrize("m, k", [(3, 2), (4, 2), (5, 3), (6, 4)])
    def test_cauchy_binet_on_stacks(self, m, k):
        rng = np.random.default_rng(10 * m + k)
        a = rng.uniform(-1, 1, size=(9, m, m))
        b = rng.uniform(-1, 1, size=(9, m, m))
        np.testing.assert_allclose(compound(a @ b, k), compound(a, k) @ compound(b, k), atol=1e-12)

    def test_shape_and_grade_validation(self):
        with pytest.raises(ValueError):
            compound(np.ones((4, 2, 3)), 1)
        with pytest.raises(ValueError):
            compound(np.ones(3), 1)
        with pytest.raises(ValueError):
            compound(np.ones((4, 3, 3)), 4)


def spd_stack(seed: int, count: int, m: int) -> np.ndarray:
    """A (count, m, m) stack of well-conditioned symmetric positive definite matrices."""
    a = np.random.default_rng(seed).standard_normal((count, m, m))
    return a @ np.swapaxes(a, 1, 2) / m + np.eye(m)


class TestLaplaceKernel:
    @pytest.mark.parametrize("m", range(1, 8))
    def test_compound_matches_cofactor_oracle_every_grade(self, m):
        random = np.random.default_rng(20 + m).standard_normal((2, m, m))
        for a in (random, spd_stack(30 + m, 2, m)):
            for k in range(1, m + 1):
                got = compound(a, k)
                for i in range(len(a)):
                    np.testing.assert_allclose(got[i], wedge_oracle(a[i], k), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_det_matches_lapack_on_spd_stacks(self, m):
        a = spd_stack(40 + m, 50, m)
        np.testing.assert_allclose(det(a), np.linalg.det(a), rtol=1e-13, atol=0)
        assert np.array_equal(det(a), compound(a, m)[:, 0, 0])

    def test_small_determinants_bit_for_bit(self):
        a = np.random.default_rng(50).standard_normal((1000, 2, 2))
        one = a[:, :1, :1]
        assert np.array_equal(det(one), one[:, 0, 0])
        assert np.array_equal(det(a), a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0])
        assert det(np.zeros((0, 0))) == 1.0
        assert np.array_equal(det(np.zeros((3, 4, 0, 0))), np.ones((3, 4)))

    @pytest.mark.parametrize("m", range(1, 7))
    def test_det_slices_equal_single_matrices_bit_for_bit(self, m):
        a = np.random.default_rng(60 + m).standard_normal((2, 3, m, m))
        stacked = det(a)
        assert stacked.shape == (2, 3)
        for i, j in np.ndindex(2, 3):
            assert stacked[i, j] == det(a[i, j])

    def test_det_leaves_its_input_alone(self):
        a = np.random.default_rng(70).standard_normal((5, 1, 1))
        before = a.copy()
        det(a)[:] = 0.0
        compound(a, 1)[:] = 0.0
        assert np.array_equal(a, before)

    def test_det_shape_validation(self):
        with pytest.raises(ValueError):
            det(np.ones((2, 3)))
        with pytest.raises(ValueError):
            det(np.ones(3))


def normalized_psd(seed: int, m: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, m))
    g = a @ a.T
    return g / np.linalg.norm(g, 2)


class TestBianchi:
    def test_induced_forms_satisfy_identity(self):
        rng = np.random.default_rng(4)
        for k in (2, 3):
            form = SymKForm.from_map(normalized_psd(10, 5), k) + SymKForm.from_map(
                normalized_psd(11, 5), k
            )
            for trial in range(20):
                us = haar_directions(5, k + 1, rng)
                vs = haar_directions(5, k - 1, rng)
                assert abs(bianchi_defect(form, us, vs)) < 1e-10

    def test_square_form_violates_identity_on_basis_example(self):
        e = np.eye(4)
        q = square_form_matrix(2)
        value = bianchi_defect(q, np.array([e[0], e[1], e[2]]), np.array([e[3]]))
        assert value == pytest.approx(-3.0, abs=1e-12)

    def test_requires_exact_vector_counts(self):
        form = SymKForm.from_map(np.eye(5), 2)
        with pytest.raises(ValueError):
            bianchi_defect(form, np.eye(5)[:2], np.eye(5)[:1])
        with pytest.raises(ValueError):
            bianchi_defect(SymKForm.from_map(np.eye(5), 1), np.eye(5)[:2], np.eye(5)[:0])


class TestSquareForm:
    def test_matrix_norm_one_and_symmetric(self):
        q = square_form_matrix(2)
        assert np.linalg.norm(q.matrix, 2) == pytest.approx(1.0)
        assert np.allclose(q.matrix, q.matrix.T)

    def test_vanishes_on_decomposables(self):
        rng = np.random.default_rng(5)
        q = square_form_matrix(2)
        for _ in range(200):
            xi = decompose(rng.standard_normal((2, 4)))
            assert abs(q.quadratic(xi)) < 1e-12

    def test_nonzero_on_a_non_decomposable(self):
        # e1^e2 + e3^e4 squares to 2 e1^e2^e3^e4
        xi = KVector.basis(4, 2, (1, 2))
        zeta = KVector.basis(4, 2, (3, 4))
        mixed = KVector(xi.coords + zeta.coords, 4, 2)
        assert square_form_matrix(2).quadratic(mixed) == pytest.approx(2.0)

    def test_sign_pattern_matches_complement_permutation(self):
        q = square_form_matrix(2).matrix
        # entry for I = {1,3}: moving (1,3,2,4) to sorted order is odd
        i_rank = _rank_lookup(4, 2)[(0, 2)]
        c_rank = _rank_lookup(4, 2)[(1, 3)]
        assert q[i_rank, c_rank] == pytest.approx(-1.0)

    def test_odd_grade_rejected(self):
        with pytest.raises(ValueError):
            square_form_matrix(3)


class TestPolarization:
    def test_two_numeric_routes_to_same_form_are_equal(self):
        g = normalized_psd(12, 5)
        via_map = SymKForm.from_map(g, 2)
        via_minors = SymKForm(compound(g, 2), 5, 2)
        result = polarization_check(via_map, via_minors)
        assert result.concluded and result.equal
        assert result.max_entry_diff < 1e-12

    def test_distinct_forms_disagree_on_some_decomposable(self):
        a = SymKForm.from_map(normalized_psd(13, 5), 2)
        b = SymKForm.from_map(normalized_psd(14, 5), 2)
        result = polarization_check(a, b)
        assert result.concluded and not result.equal
        assert result.worst_decomposable_gap > 1e-4

    def test_refuses_square_form_for_failing_bianchi(self):
        q = square_form_matrix(2)
        zero = SymKForm(np.zeros((6, 6)), 4, 2)
        result = polarization_check(q, zero)
        assert not result.concluded
        assert result.failed_form == "A"
        assert max(result.bianchi_defects) > 1e-3
        # the same refusal names B when the arguments swap
        assert polarization_check(zero, q).failed_form == "B"

    def test_square_form_agrees_with_zero_on_decomposables_yet_differs(self):
        # this is exactly why the refusal matters: without the Bianchi guard
        # the decomposable evidence would wrongly suggest Q = 0
        q = square_form_matrix(2)
        rng = np.random.default_rng(6)
        worst = max(abs(q.quadratic(decompose(rng.standard_normal((2, 4))))) for _ in range(100))
        assert worst < 1e-12
        assert np.abs(q.matrix).max() == 1.0


class TestCommonEigenbasis:
    def test_rotated_diagonal_pair_recovers_spectra(self):
        rng = np.random.default_rng(7)
        rot, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        g = rot @ np.diag([1.0, 1.0, 1.0, 2.0]) @ rot.T
        h = rot @ np.diag([1.0, 1.0, 1.0, 0.0]) @ rot.T
        result = common_eigenbasis(g, h, 3, 2.0)
        assert np.allclose(np.sort(result.eigenvalues_g), [1, 1, 1, 2], atol=1e-9)
        assert np.allclose(np.sort(result.eigenvalues_h), [0, 1, 1, 1], atol=1e-9)
        assert result.nonsingular == "G"
        # the basis diagonalizes both simultaneously
        b = result.basis
        for mat in (g, h):
            off = b.T @ mat @ b
            off -= np.diag(np.diag(off))
            assert np.abs(off).max() < 1e-9

    def test_repeated_eigenvalue_cluster_is_rotated_consistently(self):
        rng = np.random.default_rng(8)
        rot, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        # G is isotropic so any basis diagonalizes it; H picks the basis
        g = np.eye(3) * 2.0
        h = rot @ np.diag([0.5, 0.25, 0.125]) @ rot.T
        beta_matrix = compound(g, 2) + compound(h, 2)
        with pytest.raises(PreconditionError):
            common_eigenbasis(g, h, 2, 1.0)
        # build an exactly consistent pair instead: wedge^2 H = beta Id - wedge^2 G
        h2 = rot @ np.diag([0.5, 0.5, 0.5]) @ rot.T
        result = common_eigenbasis(g, h2, 2, 4.25)
        assert np.allclose(np.sort(result.eigenvalues_h), [0.5, 0.5, 0.5], atol=1e-9)

    def test_both_singular_pair_fails_hypothesis(self):
        g = np.diag([0.0, 1.0, 2.0, 3.0])
        h = np.diag([3.0, 2.0, 1.0, 0.0])
        with pytest.raises(PreconditionError) as err:
            common_eigenbasis(g, h, 2, 1.0)
        assert "differs" in str(err.value)

    def test_grade_one_pair_needs_no_nonsingular_flag(self):
        g = np.diag([0.0, 0.5, 1.0])
        h = 2.0 * np.eye(3) - g
        result = common_eigenbasis(g, h, 1, 2.0)
        assert result.nonsingular is None

    def test_hypothesis_defect_is_quoted(self):
        with pytest.raises(PreconditionError) as err:
            common_eigenbasis(np.eye(3), np.eye(3), 2, 3.0)
        assert "1.000e+00" in str(err.value)

    def test_rejects_non_selfadjoint(self):
        skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(ValueError):
            common_eigenbasis(skew, np.eye(2), 1, 1.0)


class TestKVector:
    def test_basis_is_orthonormal(self):
        # the r-th pair in lex order is the r-th coordinate, so the Gram matrix is the identity
        basis = [KVector.basis(4, 2, entries) for entries in itertools.combinations(range(1, 5), 2)]
        assert np.array_equal([x.coords for x in basis], np.eye(6))
        assert np.array_equal([[x.inner(y) for y in basis] for x in basis], np.eye(6))

    def test_basis_entries_are_one_based_strictly_increasing(self):
        for entries in [(0, 1), (2, 2), (3, 2), (1, 5)]:
            with pytest.raises(ValueError, match="strictly increasing"):
                KVector.basis(4, 2, entries)

    def test_basis_needs_k_entries(self):
        # the grade is k, not the entry count: (1, 2, 4) was once ranked as e_1 ^ e_3
        for m, k, entries in [(4, 2, (1, 2, 4)), (5, 2, (2, 3, 4, 5)), (4, 2, (3,))]:
            with pytest.raises(ValueError, match="needs 2 entries"):
                KVector.basis(m, k, entries)

    def test_space_mismatch_rejected(self):
        with pytest.raises(ValueError):
            KVector.basis(4, 2, (1, 2)).inner(KVector.basis(5, 2, (1, 2)))
