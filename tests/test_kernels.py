import numpy as np
import pytest

from dgpcyclegan.errors import DimensionMismatch, NonFiniteRecursion
from dgpcyclegan.kernels import LIN_BIAS, KernelSpec, base_kernel, effective_kernel, gram, kernel_row_grad
from dgpcyclegan.linalg import cholesky

X_UNIT = np.array([1.0, 0.0])
Y_UNIT = np.array([0.0, 1.0])  # squared distance from X_UNIT is exactly 2


def test_lin_and_sc_forms():
    spec_lin = KernelSpec.homogeneous(family="lin", depth=1, beta=2.0)
    x = np.array([1.0, 2.0, 3.0])
    y = np.array([0.5, -1.0, 2.0])
    assert abs(base_kernel(spec_lin, 0, x, y) - (4.0 * (x @ y) / 3 + LIN_BIAS)) < 1e-15
    spec_sc = KernelSpec.homogeneous(family="sc", depth=1, beta=2.0, gamma=0.8)
    expected = 4.0 * np.cos(np.linalg.norm(x - y) / 0.8) ** 2
    assert abs(base_kernel(spec_sc, 0, x, y) - expected) < 1e-12


def test_base_kernel_dimension_mismatch():
    spec = KernelSpec.homogeneous(depth=1)
    with pytest.raises(DimensionMismatch):
        base_kernel(spec, 0, np.ones(3), np.ones(4))


def test_depth_one_recursion_is_base_kernel():
    rng = np.random.default_rng(22)
    spec = KernelSpec.homogeneous(depth=1, beta=1.7, gamma=1.3)
    for _ in range(20):
        x, y = rng.standard_normal((2, 5))
        assert abs(effective_kernel(spec, x, y) - base_kernel(spec, 0, x, y)) <= 1e-15


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_self_similarity_is_beta_l_squared(depth):
    # Heterogeneous betas so the identity is not an accident of beta = 1.
    spec = KernelSpec(
        families=("se",) * depth,
        beta=tuple(0.7 + 0.3 * i for i in range(depth)),
        gamma=tuple(1.2 - 0.1 * i for i in range(depth)),
    )
    rng = np.random.default_rng(23 + depth)
    for _ in range(5):
        x = rng.standard_normal(7)
        assert abs(effective_kernel(spec, x, x) - spec.signal_var) <= 1e-12


def test_depth_two_hand_value():
    # k1 = exp(-1); k2 = 1/sqrt(1 + 2*(1 - exp(-1))) = 0.664567
    spec = KernelSpec.homogeneous(depth=2)
    assert abs(effective_kernel(spec, X_UNIT, Y_UNIT) - 0.664567) < 1e-6


def test_recursion_raises_on_nonpositive_radicand():
    # A linear layer-1 kernel can exceed beta^2 and zero the radicand.
    spec = KernelSpec.homogeneous("lin", depth=2, beta=1.0, gamma=1.0)
    big = np.full(4, 10.0)
    with pytest.raises(NonFiniteRecursion):
        effective_kernel(spec, big, big)


def test_kernel_row_grad_raises_on_nonpositive_radicand():
    # The query gradient runs through the same checked recursion as gram.
    spec = KernelSpec.homogeneous("lin", depth=2, beta=1.0, gamma=1.0)
    big = np.full(4, 10.0)
    with pytest.raises(NonFiniteRecursion):
        kernel_row_grad(spec, big, big[None, :])


@pytest.mark.parametrize("family", ["se", "lin", "sc"])
def test_kernel_row_grad_matches_finite_differences(family):
    rng = np.random.default_rng(27)
    spec = KernelSpec.homogeneous(family, depth=3, beta=1.0, gamma=1.5)
    q = rng.standard_normal(4) * 0.3
    rows = rng.standard_normal((5, 4)) * 0.3
    jac = kernel_row_grad(spec, q, rows)
    h = 1e-6
    for j in range(4):
        step = np.zeros(4)
        step[j] = h
        numeric = (gram(spec, q + step, rows)[0] - gram(spec, q - step, rows)[0]) / (2 * h)
        assert np.max(np.abs(jac[:, j] - numeric)) <= 1e-6


def test_stacked_kernels_match_per_item_calls():
    rng = np.random.default_rng(28)
    spec = KernelSpec.homogeneous(depth=3, beta=1.2, gamma=1.1)
    rows = rng.standard_normal((3, 6, 4))
    q = rng.standard_normal((3, 4))
    k = gram(spec, rows, rows)
    k_row = gram(spec, q[:, None, :], rows)
    k_self = effective_kernel(spec, q, rows[:, 0])
    jac = kernel_row_grad(spec, q, rows)
    assert k.shape == (3, 6, 6) and k_row.shape == (3, 1, 6) and k_self.shape == (3,) and jac.shape == (3, 6, 4)
    for i, r in enumerate(rows):
        assert np.array_equal(k[i], gram(spec, r, r))
        assert np.array_equal(k_row[i], gram(spec, q[i], r))
        assert k_self[i] == effective_kernel(spec, q[i], rows[i, 0])
        assert np.array_equal(jac[i], kernel_row_grad(spec, q[i], rows[i]))


def test_gram_single_vector_is_signal_var():
    spec = KernelSpec.homogeneous(depth=3, beta=1.4)
    x = [np.array([0.3, -0.2, 1.0])]
    k = gram(spec, x, x)
    assert k.shape == (1, 1)
    assert k[0, 0] == spec.signal_var


def test_gram_matches_scalar_effective_kernel():
    rng = np.random.default_rng(24)
    spec = KernelSpec.homogeneous(depth=4)
    rows = rng.standard_normal((5, 8))
    cols = rng.standard_normal((3, 8))
    k = gram(spec, rows, cols)
    for i in range(5):
        for j in range(3):
            assert abs(k[i, j] - effective_kernel(spec, rows[i], cols[j])) < 1e-12


def test_gram_symmetric_and_pd_with_noise():
    rng = np.random.default_rng(25)
    spec = KernelSpec.homogeneous(depth=4)
    for _ in range(100):
        n = int(rng.integers(2, 33))
        d = int(rng.integers(1, 65))
        rows = rng.standard_normal((n, d))
        k = gram(spec, rows, rows)
        assert np.array_equal(k, k.T)
        f = cholesky(k + spec.noise_var * np.eye(n))
        assert f.jitter_used == 0.0


def test_gram_row_permutation():
    rng = np.random.default_rng(26)
    spec = KernelSpec.homogeneous(depth=2)
    rows = rng.standard_normal((6, 4))
    cols = rng.standard_normal((5, 4))
    perm = rng.permutation(6)
    assert np.array_equal(gram(spec, rows[perm], cols), gram(spec, rows, cols)[perm])


def test_gram_dimension_mismatch():
    spec = KernelSpec.homogeneous(depth=2)
    with pytest.raises(DimensionMismatch):
        gram(spec, np.ones((2, 3)), np.ones((2, 4)))


def test_se_effective_kernel_monotone_in_distance():
    spec = KernelSpec.homogeneous(depth=4)
    base = np.zeros(3)
    vals = [
        effective_kernel(spec, base, np.array([d, 0.0, 0.0]))
        for d in np.linspace(0.05, 5.0, 25)
    ]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_unit_ratio_se_bounded_in_unit_interval():
    rng = np.random.default_rng(27)
    spec = KernelSpec.homogeneous(depth=4)
    for _ in range(50):
        x, y = rng.standard_normal((2, 10)) * rng.uniform(0.1, 4.0)
        v = effective_kernel(spec, x, y)
        assert 0.0 < v <= 1.0


def test_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(families=(), beta=(), gamma=())
    with pytest.raises(ValueError):
        KernelSpec(families=("se",), beta=(-1.0,), gamma=(1.0,))
    with pytest.raises(ValueError):
        KernelSpec(families=("se",), beta=(1.0,), gamma=(1e-300,))  # gamma**2 underflows to 0
    with pytest.raises(ValueError):
        KernelSpec(families=("se",), beta=(1e160,), gamma=(1.0,))  # beta**2 overflows
    with pytest.raises(ValueError):
        KernelSpec(families=("bogus",), beta=(1.0,), gamma=(1.0,))
    with pytest.raises(ValueError):
        KernelSpec(families=("se", "lin"), beta=(1.0, 1.0), gamma=(1.0, 1.0))  # the recursion is se above layer 1
