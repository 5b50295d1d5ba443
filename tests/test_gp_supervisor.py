import tracemalloc

import numpy as np
import pytest

from dgpcyclegan import gp_supervisor
from dgpcyclegan.errors import DimensionMismatch, EmptyBank, EmptyDataset, NotPositiveDefinite
from dgpcyclegan.gp_supervisor import (
    FeatureBank,
    GpPosterior,
    bank_build,
    gp_condition,
    knn_select,
    pseudo_loss,
    pseudo_loss_grad,
    pseudo_loss_query_grad,
)
from dgpcyclegan.kernels import KernelSpec
from dgpcyclegan.nets import Generator
from dgpcyclegan.verify import brute_force_condition, fd_grad

SPEC1 = KernelSpec.homogeneous(depth=1)
SPEC4 = KernelSpec.homogeneous(depth=4)


def random_bank(rng, n, s_dim=4, z_dim=3):
    return FeatureBank("clean", s=rng.standard_normal((n, s_dim)), z=rng.standard_normal((n, z_dim)))


# --- bank construction -------------------------------------------------------


def test_bank_build_one_entry_per_image():
    rng = np.random.default_rng(31)
    gen = Generator(16, hidden=(6, 4, 4, 6), tap_s=2, tap_z=3, rng=rng)
    images = [rng.uniform(0, 1, (4, 4)) for _ in range(5)]
    bank = bank_build(images, gen, domain="weather")
    assert len(bank) == 5
    assert bank.domain == "weather"
    # order preserved: entry i is row i of the forward pass of the stacked images
    _, s, z, _ = gen.forward(np.stack(images))
    assert np.array_equal(bank.s, s)
    assert np.array_equal(bank.z, z)


def test_bank_build_deterministic_and_weight_sensitive():
    rng = np.random.default_rng(32)
    gen = Generator(16, hidden=(6, 4, 4, 6), tap_s=2, tap_z=3, rng=rng)
    images = [rng.uniform(0, 1, (4, 4)) for _ in range(4)]
    a = bank_build(images, gen)
    b = bank_build(images, gen)
    assert np.array_equal(a.s, b.s) and np.array_equal(a.z, b.z)
    gen.params = gen.params + 0.01
    c = bank_build(images, gen)
    assert not np.array_equal(a.z, c.z)


@pytest.mark.parametrize("rows, side", [(200, 32), (400, 16)])
def test_bank_build_peak_memory_stays_near_its_input_stack(rows, side):
    # Default-width generator at the desk and gp_wide bank sizes: the pass
    # stops at the z-tap and keeps no cache, so past the stacked input it
    # holds about one stage's activations.  The full forward peaked at
    # 5.73 MiB (200 x 32 x 32) and 4.37 MiB (400 x 16 x 16).
    rng = np.random.default_rng(rows)
    gen = Generator(side * side, rng=rng)
    images = list(rng.uniform(0.0, 1.0, (rows, side, side)))
    stack_bytes = rows * side * side * 8
    tracemalloc.start()
    try:
        bank = bank_build(images, gen)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(bank) == rows
    assert peak < stack_bytes + 1.5 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_bank_build_empty_dataset():
    gen = Generator(16, hidden=(6, 4, 4, 6), tap_s=2, tap_z=3)
    with pytest.raises(EmptyDataset):
        bank_build([], gen)


# --- nearest neighbors -------------------------------------------------------


def test_knn_full_bank_limit():
    rng = np.random.default_rng(33)
    bank = random_bank(rng, 6)
    ids = knn_select(bank, rng.standard_normal(3), n=50)
    assert sorted(ids.tolist()) == list(range(6))


def test_knn_exact_match_ranks_first():
    rng = np.random.default_rng(34)
    bank = random_bank(rng, 8)
    ids = knn_select(bank, bank.z[3], n=2)
    assert ids[0] == 3


def test_knn_matches_brute_force_sort():
    rng = np.random.default_rng(35)
    bank = random_bank(rng, 20)
    q = rng.standard_normal(3)
    ids = knn_select(bank, q, n=5)
    d2 = np.sum((bank.z - q) ** 2, axis=1)
    expected = np.argsort(d2, kind="stable")[:5]
    assert np.array_equal(ids, expected)


def test_knn_tie_break_prefers_lower_index():
    z = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    bank = FeatureBank("clean", s=np.zeros((3, 2)), z=z)
    ids = knn_select(bank, np.array([1.0, 0.0]), n=3)
    assert ids.tolist() == [0, 2, 1]


def test_knn_empty_bank():
    bank = FeatureBank("clean", s=np.zeros((0, 2)), z=np.zeros((0, 2)))
    with pytest.raises(EmptyBank):
        knn_select(bank, np.zeros(2), n=1)


# --- GP conditioning ---------------------------------------------------------


def test_one_point_closed_form():
    # Single neighbor at the query: mean = z / (1 + noise), var = 1 - 1/(1+noise) + noise.
    z = np.array([0.8, -1.2, 0.4])
    bank = FeatureBank("clean", s=np.array([[0.5, 0.5]]), z=z[None, :])
    post = gp_condition(SPEC1, bank, [0], np.array([0.5, 0.5]))
    assert np.max(np.abs(post.pseudo_label - z / 1.01)) < 1e-12
    assert abs(post.variance - 0.019901) < 1e-6
    assert abs(post.variance - (1.0 - 1.0 / 1.01 + 0.01)) < 1e-12


def test_noiseless_interpolation_is_exact():
    spec = KernelSpec.homogeneous(depth=1, noise_var=0.0)
    z = np.array([2.0, -3.0])
    bank = FeatureBank("clean", s=np.array([[1.0, 0.0]]), z=z[None, :])
    post = gp_condition(spec, bank, [0], np.array([1.0, 0.0]))
    assert np.array_equal(post.pseudo_label, z)


def test_condition_matches_brute_force_oracle():
    rng = np.random.default_rng(36)
    for _ in range(100):
        n = int(rng.integers(1, 17))
        ds = int(rng.integers(1, 9))
        dz = int(rng.integers(1, 9))
        bank = FeatureBank(
            "clean", s=rng.standard_normal((n, ds)), z=rng.standard_normal((n, dz))
        )
        q = rng.standard_normal(ds)
        post = gp_condition(SPEC4, bank, np.arange(n), q)
        mean, var = brute_force_condition(SPEC4, bank.s, bank.z, q)
        denom = max(np.linalg.norm(mean), 1e-300)
        assert np.linalg.norm(post.pseudo_label - mean) / denom <= 1e-8
        assert abs(post.variance - var) / max(abs(var), 1e-300) <= 1e-8


def test_condition_permutation_invariance():
    rng = np.random.default_rng(37)
    bank = random_bank(rng, 9)
    q = rng.standard_normal(4)
    post = gp_condition(SPEC4, bank, np.arange(9), q)
    perm = rng.permutation(9)
    bank_p = FeatureBank("clean", s=bank.s[perm], z=bank.z[perm])
    post_p = gp_condition(SPEC4, bank_p, np.arange(9), q)
    assert np.max(np.abs(post.pseudo_label - post_p.pseudo_label)) <= 1e-12
    assert abs(post.variance - post_p.variance) <= 1e-12


def test_variance_bounds_and_weak_reduction():
    rng = np.random.default_rng(38)
    for _ in range(25):
        n = int(rng.integers(2, 12))
        bank = random_bank(rng, n)
        q = rng.standard_normal(4)
        cap = SPEC4.signal_var + SPEC4.noise_var
        prev = None
        for m in range(1, n + 1):
            post = gp_condition(SPEC4, bank, np.arange(m), q)
            assert SPEC4.noise_var - 1e-12 <= post.variance <= cap + 1e-9
            if prev is not None:
                assert post.variance <= prev + 1e-10
            prev = post.variance


def test_condition_dimension_mismatch():
    rng = np.random.default_rng(39)
    bank = random_bank(rng, 4)
    with pytest.raises(DimensionMismatch):
        gp_condition(SPEC4, bank, [0, 1], np.zeros(7))


# --- pseudo loss -------------------------------------------------------------


def test_pseudo_loss_at_minimum_is_logdet_term():
    post = GpPosterior(np.array([0.2, -0.4, 1.0]), 0.37, np.arange(2))
    assert abs(pseudo_loss(post, post.pseudo_label) - 3 * np.log(0.37)) < 1e-12


def test_pseudo_loss_unit_variance_is_squared_error():
    post = GpPosterior(np.zeros(4), 1.0, np.arange(2))
    z = np.array([0.5, -0.5, 1.0, 2.0])
    assert pseudo_loss(post, z) == float(z @ z)


def test_pseudo_loss_hand_value():
    # d=2, delta=(1,1), var=0.5 -> 2/0.5 * 1 ... = 4 + 2 log 0.5 = 2.613706
    post = GpPosterior(np.zeros(2), 0.5, np.arange(1))
    assert abs(pseudo_loss(post, np.ones(2)) - 2.613706) < 1e-6


def test_pseudo_loss_multiplier_downweights_uncertain_targets():
    delta = np.array([1.0, 1.0])
    maha = []
    for var in (0.1, 0.5, 1.0, 2.0, 8.0):
        post = GpPosterior(np.zeros(2), var, np.arange(1))
        maha.append(pseudo_loss(post, delta) - 2 * np.log(var))
    assert all(a > b for a, b in zip(maha, maha[1:]))


def test_pseudo_loss_grad_zero_at_label_and_unit_variance():
    post = GpPosterior(np.array([0.3, 0.7]), 1.0, np.arange(1))
    assert np.array_equal(pseudo_loss_grad(post, post.pseudo_label), np.zeros(2))
    z = np.array([1.3, 0.2])
    assert np.allclose(pseudo_loss_grad(post, z), 2 * (z - post.pseudo_label))


def test_pseudo_loss_grad_matches_finite_differences():
    rng = np.random.default_rng(40)
    for _ in range(50):
        d = int(rng.integers(1, 9))
        post = GpPosterior(rng.standard_normal(d), float(rng.uniform(0.05, 3.0)), np.arange(1))
        z = rng.standard_normal(d)
        analytic = pseudo_loss_grad(post, z)
        numeric = fd_grad(lambda v: pseudo_loss(post, v), z.copy())
        denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-300)
        assert np.linalg.norm(analytic - numeric) / denom < 1e-6


def test_pseudo_loss_is_minimized_at_pseudo_label():
    rng = np.random.default_rng(41)
    post = GpPosterior(rng.standard_normal(3), 0.8, np.arange(1))
    at_min = pseudo_loss(post, post.pseudo_label)
    for _ in range(10):
        z = post.pseudo_label + rng.standard_normal(3) * 0.1
        assert pseudo_loss(post, z) > at_min


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("family", ["se", "lin", "sc"])
def test_query_grad_matches_finite_differences(family, depth):
    rng = np.random.default_rng(42)
    spec = KernelSpec.homogeneous(family, depth=depth)
    bank = FeatureBank("clean", s=rng.standard_normal((6, 4)) * 0.6, z=rng.standard_normal((6, 3)))
    q = rng.standard_normal(4) * 0.6
    z_pred = rng.standard_normal(3)
    ids = np.arange(6)
    post = gp_condition(spec, bank, ids, q)
    analytic = pseudo_loss_query_grad(spec, bank, post, q, z_pred)

    def loss_of_query(qv):
        return pseudo_loss(gp_condition(spec, bank, ids, qv), z_pred)

    numeric = fd_grad(loss_of_query, q.copy())
    denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-300)
    assert np.linalg.norm(analytic - numeric) / denom < 1e-5


def test_stacked_gp_matches_per_row_calls():
    rng = np.random.default_rng(45)
    spec = KernelSpec.homogeneous(depth=3, beta=1.5, gamma=1.5)
    bank = FeatureBank("clean", s=rng.standard_normal((25, 5)), z=rng.standard_normal((25, 4)))

    def rel(a, b):
        return np.linalg.norm(np.asarray(a) - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1e-300)

    for b in range(1, 5):
        qs, qz, z_pred = (rng.standard_normal((b, d)) for d in (5, 4, 4))
        ids = knn_select(bank, qz, n=6)
        post = gp_condition(spec, bank, ids, qs)
        assert ids.shape == (b, 6) and post.pseudo_label.shape == (b, 4) and post.variance.shape == (b,)
        loss = pseudo_loss(post, z_pred)
        grad = pseudo_loss_grad(post, z_pred)
        query_grad = pseudo_loss_query_grad(spec, bank, post, qs, z_pred)
        for i in range(b):
            ids_i = knn_select(bank, qz[i], n=6)
            assert np.array_equal(ids[i], ids_i)
            one = gp_condition(spec, bank, ids_i, qs[i])
            assert rel(post.pseudo_label[i], one.pseudo_label) <= 1e-12
            assert rel(post.variance[i], one.variance) <= 1e-12
            assert rel(loss[i], pseudo_loss(one, z_pred[i])) <= 1e-12
            assert rel(grad[i], pseudo_loss_grad(one, z_pred[i])) <= 1e-12
            assert rel(query_grad[i], pseudo_loss_query_grad(spec, bank, one, qs[i], z_pred[i])) <= 1e-12


def test_query_grad_reuses_the_conditioning_solves(monkeypatch):
    rng = np.random.default_rng(46)
    spec = KernelSpec.homogeneous(depth=2)
    bank = random_bank(rng, 8)
    qs, z_pred = rng.standard_normal((2, 4)), rng.standard_normal((2, 3))
    names = ("gram", "effective_kernel", "cholesky", "solve_posdef", "kernel_row_grad")
    calls = dict.fromkeys(names, 0)

    def counted(name):
        real = getattr(gp_supervisor, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(gp_supervisor, name, counted(name))

    # One B = 2 conditioning: one joint Gram, one factorization, one solve.
    post = gp_condition(spec, bank, np.tile(np.arange(5), (2, 1)), qs)
    assert calls == {"gram": 1, "effective_kernel": 0, "cholesky": 1, "solve_posdef": 1, "kernel_row_grad": 0}

    # The query gradient reuses alpha and w: one kernel-row gradient, nothing rebuilt or refactored.
    calls.update(dict.fromkeys(names, 0))
    assert pseudo_loss_query_grad(spec, bank, post, qs, z_pred).shape == (2, 4)
    assert calls == {"gram": 0, "effective_kernel": 0, "cholesky": 0, "solve_posdef": 0, "kernel_row_grad": 1}
    with pytest.raises(ValueError):
        pseudo_loss_query_grad(spec, bank, GpPosterior(post.pseudo_label, post.variance, post.neighbor_ids), qs, z_pred)


@pytest.mark.parametrize("variance", [0.0, -0.5, np.array([0.4, -1e-3])])
def test_pseudo_loss_nonpositive_variance_is_not_positive_definite(variance):
    rows = np.ndim(variance)
    label = np.zeros((2, 3)) if rows else np.zeros(3)
    post = GpPosterior(label, variance, np.zeros(label.shape[:-1] + (2,), dtype=int))
    with pytest.raises(NotPositiveDefinite):
        pseudo_loss(post, label + 0.1)


def test_pseudo_loss_dimension_mismatch():
    post = GpPosterior(np.zeros(3), 1.0, np.arange(1))
    with pytest.raises(DimensionMismatch):
        pseudo_loss(post, np.zeros(4))
    with pytest.raises(DimensionMismatch):
        pseudo_loss_grad(post, np.zeros(2))
