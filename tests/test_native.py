"""The native GP and nets passes against their numpy twins, bit for bit.

Each test runs one call twice, with the native passes and with them forced
off (their entries in native.lib set to None), and compares the results as
uint64 views.  Adam's native pass has its own tests in test_nets.py.
"""

import numpy as np
import pytest

from dgpcyclegan import cli, native
from dgpcyclegan.errors import NonFiniteRecursion
from dgpcyclegan.gp_supervisor import FeatureBank, knn_select
from dgpcyclegan.kernels import KernelSpec, gram
from dgpcyclegan.nets import Discriminator, Generator

needs_native = pytest.mark.skipif(native.lib.knn_select is None, reason=f"the native library did not build: {native.error}")
needs_nets = pytest.mark.skipif(native.lib.nets_forward is None, reason=f"the nets passes are not live: {native.error}")
NETS = ("nets_forward", "nets_backward", "nets_grads")


def both_paths(monkeypatch, entries, call):
    """call() with native.lib's passes, then with the named ones (one name or a tuple) forced off."""
    built, results = native.lib, []
    entries = (entries,) if isinstance(entries, str) else entries
    for lib in (built, built._replace(**dict.fromkeys(entries))):
        monkeypatch.setattr(native, "lib", lib)
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


def nets_run(net, inputs, grads, taps=(None, None), input_grad=True):
    """Every array a forward and backward chain per input leaves, then the parameter gradients over all caches."""
    caches, arrays = [], []
    for x, g in zip(inputs, grads):
        if isinstance(net, Generator):
            y, s, z, cache = net.forward(x)
            _, gx = net.backward(cache, g, grad_s=taps[0], grad_z=taps[1], param_grads=False, input_grad=input_grad)
            arrays += [y, s, z, *net.taps(x)]
        else:
            score, cache = net.forward(x)
            _, gx = net.backward(cache, g, param_grads=False, input_grad=input_grad)
            arrays.append(score)
        assert (gx is None) == (not input_grad)
        arrays += [*cache.acts, *cache.dpres, *([gx] if input_grad else [])]
        caches.append(cache)
    return arrays + [net.param_grads_from(*caches)]


# Nets of every shape the dispatch tells apart: a width-1 hidden layer gives
# products with K = 1 and an (N = 1) into it; the discriminator's 1-wide head
# gives N = 1 forward, K = 1 backward and a 1-wide bias sum.
NETS_SHAPES = {
    "generator": lambda rng: Generator(48, hidden=(16, 8, 8, 16), tap_s=2, tap_z=3, rng=rng),
    "generator, width-1 layer": lambda rng: Generator(48, hidden=(7, 1, 5, 9), tap_s=2, tap_z=3, rng=rng),
    "discriminator": lambda rng: Discriminator(48, hidden=(12,), rng=rng),
    "discriminator, width-1 layer": lambda rng: Discriminator(48, hidden=(6, 1), rng=rng),
}


@needs_nets
@pytest.mark.parametrize("rows", [1, 2, 3, 6, 40, 200])
@pytest.mark.parametrize("shape", list(NETS_SHAPES))
def test_native_nets_passes_are_bit_identical_to_numpy(monkeypatch, rows, shape):
    rng = np.random.default_rng(rows)
    net = NETS_SHAPES[shape](rng)
    is_gen = isinstance(net, Generator)
    # A cache of one row whose output gradient is -0.0: numpy's bias sum adds
    # the rows to 0.0, which turns that row into +0.0.
    inputs = [rng.standard_normal((rows, 6, 8)), rng.standard_normal((1, 48))]
    grads = [rng.standard_normal((rows, 6, 8) if is_gen else rows), rng.standard_normal((1, 48) if is_gen else 1)]
    grads[1][0] = -0.0
    taps = (None, None)
    if is_gen:
        taps = tuple(rng.standard_normal((rows, net.widths[t])) for t in (net.tap_s, net.tap_z))
    none = (None, None)
    for picked, tap_pair, input_grad in [([0], taps, True), ([0], (taps[0], None), False), ([0], (None, taps[1]), True),
                                         ([1], none, True), ([0, 1], none, True), ([0, 1], none, False)]:
        def call():
            return nets_run(net, [inputs[i] for i in picked], [grads[i] for i in picked], tap_pair, input_grad)
        native_arrays, numpy_arrays = both_paths(monkeypatch, NETS, call)
        assert len(native_arrays) == len(numpy_arrays)
        for i, (a, b) in enumerate(zip(native_arrays, numpy_arrays)):
            assert same_bits(np.asarray(a), np.asarray(b)), (picked, input_grad, i)


@needs_nets
@pytest.mark.parametrize("shape", list(NETS_SHAPES))
def test_native_nets_passes_match_numpy_on_special_values(monkeypatch, shape):
    rng = np.random.default_rng(3)
    net = NETS_SHAPES[shape](rng)
    is_gen = isinstance(net, Generator)
    x = rng.standard_normal((5, 48))
    x[0, :4] = [-0.0, 5e-324, -2.5e-310, 1e-300]
    x[1, 0], x[2, 1], x[3, 2] = np.inf, -np.inf, np.nan
    net.params[:3] = [-0.0, 5e-324, -5e-324]
    g = rng.standard_normal((5, 48) if is_gen else 5)
    g[0] = -0.0
    g[4] = np.nan if is_gen else 2.5e-310
    taps = (None, None)
    if is_gen:
        taps = (np.full((5, net.widths[net.tap_s]), -0.0), np.full((5, net.widths[net.tap_z]), 5e-324))
    with np.errstate(all="ignore"):  # numpy's matmul warns on the inf and NaN rows
        native_arrays, numpy_arrays = both_paths(monkeypatch, NETS, lambda: nets_run(net, [x], [g], taps))
    for i, (a, b) in enumerate(zip(native_arrays, numpy_arrays)):
        assert same_bits(np.asarray(a), np.asarray(b)), i
    assert np.isnan(native_arrays[-1]).any()


@needs_nets
@pytest.mark.parametrize("config", ["grad_through_query = on\n", "dgp = off\n"], ids=["dgp, query gradient", "dgp off"])
def test_train_writes_the_same_bytes_with_the_nets_passes_forced_off(monkeypatch, tmp_path, config):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs = 2\nn_train = 12\nn_eval = 2\nimg_side = 16\ngen_hidden = 16,8,8,16\n"
                   "disc_hidden = 8\nn_neighbors = 8\ncheckpoint_interval = 1\nsample_count = 1\n" + config)
    outputs = []
    for lib in (native.lib, native.lib._replace(**dict.fromkeys(NETS))):
        monkeypatch.setattr(native, "lib", lib)
        out = tmp_path / ("native" if lib.nets_forward else "numpy")
        assert cli.main(["train", "--config", str(cfg), "--out", str(out), "--seed", "1"]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert {"metrics.csv", "ckpt_1.bin"} <= outputs[0].keys()
    assert outputs[0] == outputs[1]


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
