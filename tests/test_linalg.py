import numpy as np
import pytest

from dgpcyclegan.errors import DimensionMismatch, NotSymmetric
from dgpcyclegan.linalg import JITTER_LADDER, cholesky, solve_posdef


def random_pd(rng, n):
    b = rng.standard_normal((n, n))
    return b.T @ b + np.eye(n)


def test_cholesky_hand_2x2():
    # [[4,2],[2,3]] = L L^T with L = [[2,0],[1,sqrt(2)]]
    f = cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
    expected = np.array([[2.0, 0.0], [1.0, np.sqrt(2.0)]])
    assert np.max(np.abs(f.lower - expected)) < 1e-12


def test_cholesky_factors_a_matrix_skew_within_tolerance():
    a = random_pd(np.random.default_rng(3), 4)
    a[0, 1] += 1e-12 * np.max(np.abs(a))
    f = cholesky(a)
    assert f.jitter_used == 0.0 and f.matrix is a


def test_cholesky_rejects_skew_above_tolerance_in_a_stack():
    rng = np.random.default_rng(4)
    stack = np.stack([random_pd(rng, 4), random_pd(rng, 4)])
    stack[1, 2, 0] += 1e-6 * np.max(np.abs(stack[1]))
    with pytest.raises(NotSymmetric):
        cholesky(stack)


def test_cholesky_rejects_nan():
    a = np.eye(3)
    a[1, 1] = np.nan
    with pytest.raises(DimensionMismatch):
        cholesky(a)


def test_cholesky_rejects_non_square():
    with pytest.raises(DimensionMismatch):
        cholesky(np.ones((2, 3)))


def test_cholesky_jitter_ladder_recovers_semidefinite():
    # Rank-deficient PSD matrix: plain factorization may fail, jitter must fix it.
    v = np.array([[1.0], [1.0]])
    a = v @ v.T
    f = cholesky(a)
    assert f.jitter_used in (0.0, 1e-8, 1e-6, 1e-4)
    recon = f.lower @ f.lower.T
    assert np.allclose(recon, a + f.jitter_used * np.eye(2), atol=1e-10)


def test_stack_steps_the_jitter_ladder_once_for_all_items():
    # One rank-deficient item: the whole stack is refactored with the jitter
    # that item needs, and jitter_used stays a single ladder value.
    rng = np.random.default_rng(9)
    v = np.array([[1.0], [1.0], [1.0]])
    stack = np.stack([random_pd(rng, 3), v @ v.T, random_pd(rng, 3)])
    f = cholesky(stack)
    assert f.lower.shape == (3, 3, 3)
    assert f.jitter_used > 0.0 and f.jitter_used in JITTER_LADDER
    for a, lower in zip(stack, f.lower):
        assert np.allclose(lower @ lower.T, a + f.jitter_used * np.eye(3), atol=1e-10)


def test_solve_stack_matches_per_item_solves():
    rng = np.random.default_rng(10)
    stack = np.stack([random_pd(rng, 5) for _ in range(3)])
    f = cholesky(stack)
    vectors = rng.standard_normal((3, 5))
    matrices = rng.standard_normal((3, 5, 2))
    x_vec = solve_posdef(f, vectors)
    x_mat = solve_posdef(f, matrices)
    assert x_vec.shape == (3, 5) and x_mat.shape == (3, 5, 2)
    for i in range(3):
        one = cholesky(stack[i])
        assert np.array_equal(x_vec[i], solve_posdef(one, vectors[i]))
        assert np.array_equal(x_mat[i], solve_posdef(one, matrices[i]))
    with pytest.raises(DimensionMismatch):
        solve_posdef(f, rng.standard_normal((2, 5)))


def test_solve_through_a_jittered_factor():
    # A singular PSD matrix only factors with jitter; the solve must be against
    # A + jitter_used * I, alone and as one item of a stack.
    rng = np.random.default_rng(13)
    ones = np.ones((3, 3))
    f = cholesky(ones)
    assert f.jitter_used > 0.0
    b = rng.standard_normal(3)
    x = solve_posdef(f, b)
    assert np.linalg.norm((ones + f.jitter_used * np.eye(3)) @ x - b) <= 1e-8 * (1.0 + np.linalg.norm(b))

    stack = np.stack([random_pd(rng, 3), ones, random_pd(rng, 3)])
    f = cholesky(stack)
    assert f.jitter_used > 0.0
    rhs = rng.standard_normal((3, 3, 2))
    x = solve_posdef(f, rhs)
    for a, xi, bi in zip(stack, x, rhs):
        res = np.linalg.norm((a + f.jitter_used * np.eye(3)) @ xi - bi)
        assert res <= 1e-8 * (1.0 + np.linalg.norm(bi))


def test_solve_identity():
    f = cholesky(np.eye(3))
    assert np.array_equal(solve_posdef(f, np.array([1.0, 2.0, 3.0])), [1.0, 2.0, 3.0])


def test_solve_matrix_rhs_and_dimension_check():
    rng = np.random.default_rng(8)
    a = random_pd(rng, 4)
    f = cholesky(a)
    b = rng.standard_normal((4, 3))
    x = solve_posdef(f, b)
    assert np.allclose(a @ x, b, atol=1e-9)
    with pytest.raises(DimensionMismatch):
        solve_posdef(f, rng.standard_normal(5))


def test_solve_residual_property_200_cases():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 17))
        a = random_pd(rng, n)
        b = rng.standard_normal(n)
        f = cholesky(a)
        x = solve_posdef(f, b)
        res = np.linalg.norm((a + f.jitter_used * np.eye(n)) @ x - b)
        assert res <= 1e-8 * (1.0 + np.linalg.norm(b))
