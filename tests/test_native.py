"""The native GP passes against their numpy twins, bit for bit.

Each test runs one call twice, with the native pass and with it forced off
(its entry in native.lib set to None), and compares the results as uint64
views.  Adam's native pass has its own tests in test_nets.py.
"""

import numpy as np
import pytest

from dgpcyclegan import cli, native
from dgpcyclegan.errors import NonFiniteRecursion
from dgpcyclegan.gp_supervisor import FeatureBank, knn_select
from dgpcyclegan.kernels import KernelSpec, gram

needs_native = pytest.mark.skipif(native.lib.knn_select is None, reason=f"the native library did not build: {native.error}")


def both_paths(monkeypatch, entry, call):
    """call() with native.lib's `entry` pass, then with that pass forced off."""
    built, results = native.lib, []
    for fn in (getattr(built, entry), None):
        monkeypatch.setattr(native, "lib", built._replace(**{entry: fn}))
        results.append(call())
    monkeypatch.setattr(native, "lib", built)
    return results


def same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@needs_native
@pytest.mark.parametrize("dim", [1, 3, 7, 8, 9, 31, 128, 129, 136, 300])
def test_native_knn_is_bit_identical_to_numpy(monkeypatch, dim):
    rng = np.random.default_rng(dim)
    # Permutations of one vector have the same exact squared norm, so their
    # distances to q = 0 differ only in how numpy's pairwise sum rounds.
    base = rng.standard_normal(dim) * 10.0 ** rng.uniform(-2, 2, dim)
    z = np.concatenate([[rng.permutation(base) for _ in range(60)], rng.standard_normal((40, dim))])
    z[[3, 50, 70]] = z[10]  # exact ties
    z[[0, 5], 0], z[6, -1], z[7] = np.nan, np.inf, -np.inf
    bank = FeatureBank("clean", s=np.zeros((len(z), 2)), z=z)
    queries = np.stack([np.zeros(dim), z[10], rng.standard_normal(dim), np.full(dim, np.nan)])
    for q in (queries, queries[0], queries[2]):
        for n in (1, 5, 64, len(z), 500):  # the last two keep the whole bank
            ids, numpy_ids = both_paths(monkeypatch, "knn_select", lambda: knn_select(bank, q, n))
            assert same_bits(ids, numpy_ids), (q.shape, n)


@needs_native
@pytest.mark.parametrize("family, depth", [("se", 1), ("se", 2), ("se", 3), ("se", 4), ("lin", 1), ("lin", 3), ("sc", 1), ("sc", 4)])
@pytest.mark.parametrize("shape", [(4,), (9, 5), (3, 33, 12), (2, 17, 130)])
def test_native_symmetric_gram_is_bit_identical_to_numpy(monkeypatch, family, depth, shape):
    rng = np.random.default_rng(depth * 100 + len(shape))
    spec = KernelSpec(families=(family,) + ("se",) * (depth - 1), beta=tuple(0.8 + 0.2 * i for i in range(depth)),
                      gamma=tuple(2.0 + 0.25 * i for i in range(depth)))
    x = rng.standard_normal(shape) * (0.3 if family == "lin" else 1.0)
    if x.ndim > 1:
        x[..., 1, :] = x[..., 0, :]  # a zero distance off the diagonal
    k, numpy_k = both_paths(monkeypatch, "gram", lambda: gram(spec, x, x))
    assert same_bits(k, numpy_k)
    assert np.array_equal(k, k.swapaxes(-2, -1))


@needs_native
@pytest.mark.parametrize("scale, layer", [(10.0, 2), (np.sqrt(1.49), 3)])
def test_native_gram_names_the_numpy_radicand_layer(monkeypatch, scale, layer):
    # One row's linear layer-1 value scale**2 exceeds beta**2 = 1: at 100 the
    # layer-2 radicand is negative; at 1.49 it is 0.02, which lifts layer 2's
    # value to about 7 and makes layer 3's radicand negative.
    spec = KernelSpec.homogeneous("lin", depth=4, beta=1.0, gamma=1.0)
    x = np.full((2, 3, 4), 0.1)
    x[1, 2] = scale

    def message():
        with pytest.raises(NonFiniteRecursion) as err:
            gram(spec, x, x)
        return str(err.value)

    native_msg, numpy_msg = both_paths(monkeypatch, "gram", message)
    assert native_msg == numpy_msg and f"at layer {layer};" in native_msg


@needs_native
def test_train_writes_the_same_bytes_with_the_gp_passes_forced_off(monkeypatch, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs = 2\nn_train = 12\nn_eval = 2\nimg_side = 16\ngen_hidden = 16,8,8,16\n"
                   "disc_hidden = 8\nn_neighbors = 8\ngrad_through_query = on\ncheckpoint_interval = 1\n"
                   "sample_count = 1\n")
    outputs = []
    for lib in (native.lib, native.lib._replace(knn_select=None, gram=None)):
        monkeypatch.setattr(native, "lib", lib)
        out = tmp_path / ("native" if lib.gram else "numpy")
        assert cli.main(["train", "--config", str(cfg), "--out", str(out), "--seed", "1"]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert {"metrics.csv", "ckpt_1.bin"} <= outputs[0].keys()
    assert outputs[0] == outputs[1]
