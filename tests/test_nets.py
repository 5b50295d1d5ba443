import importlib.resources
import struct
import tempfile
import tomllib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dgpcyclegan import cli, native, nets
from dgpcyclegan.errors import CacheMismatch, MalformedFile, ShapeMismatch
from dgpcyclegan.nets import (
    ADAM_BLOCK,
    CKPT_MAGIC,
    AdamState,
    Discriminator,
    Generator,
    adam_step,
    load_checkpoint,
    save_checkpoint,
)
from dgpcyclegan.trainer import TrainConfig, init_state
from dgpcyclegan.verify import ADAM_TOL, PARAM_GRADS_TOL, adam_textbook_error, fd_grad, param_grads_error


def tiny_gen(seed=0):
    return Generator(16, hidden=(6, 4, 4, 6), tap_s=2, tap_z=3, rng=np.random.default_rng(seed))


def uniform_reference_params(widths, seed) -> np.ndarray:
    """Glorot-uniform weights from rng.uniform(-lim, lim, size), layer by layer, and zero biases."""
    rng = np.random.default_rng(seed)
    parts = []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        lim = np.sqrt(6.0 / (fan_in + fan_out))
        parts += [rng.uniform(-lim, lim, fan_in * fan_out), np.zeros(fan_out)]
    return np.concatenate(parts)


@pytest.mark.parametrize("seed", [0, 7])
def test_init_weights_are_rng_uniform_draws_bit_for_bit(seed):
    gen = Generator(64, hidden=(12, 6, 6, 12), tap_s=2, tap_z=3, rng=seed)
    disc = Discriminator(64, hidden=(8, 4), rng=np.random.default_rng(seed))
    assert gen.params.tobytes() == uniform_reference_params((64, 12, 6, 6, 12, 64), seed).tobytes()
    assert disc.params.tobytes() == uniform_reference_params((64, 8, 4, 1), seed).tobytes()


# --- generator forward -------------------------------------------------------


def test_zero_params_zero_input_gives_zeros():
    gen = Generator(16, hidden=(6, 4, 4, 6), tap_s=2, tap_z=3)  # params start at zero
    y, s, z, _ = gen.forward(np.zeros((4, 4)))
    assert np.array_equal(y, np.zeros((4, 4)))
    assert np.array_equal(s, np.zeros(4))
    assert np.array_equal(z, np.zeros(4))


def test_forward_deterministic_for_fixed_seed():
    x = np.random.default_rng(1).uniform(0, 1, (4, 4))
    y1, s1, z1, _ = tiny_gen(7).forward(x)
    y2, s2, z2, _ = tiny_gen(7).forward(x)
    assert np.array_equal(y1, y2) and np.array_equal(s1, s2) and np.array_equal(z1, z2)


def test_output_shape_matches_input_shape():
    gen = Generator(32 * 32, hidden=(64, 16, 16, 64), tap_s=2, tap_z=3, rng=np.random.default_rng(2))
    x = np.random.default_rng(3).uniform(0, 1, (32, 32))
    y, s, z, _ = gen.forward(x)
    assert y.shape == (32, 32)
    assert s.shape == (16,) and z.shape == (16,)
    assert np.all(np.isfinite(s)) and np.all(np.isfinite(z))


def test_forward_rejects_wrong_shape():
    gen = tiny_gen()
    with pytest.raises(ShapeMismatch):
        gen.forward(np.zeros((5, 5)))


def test_tap_ordering_enforced():
    with pytest.raises(ValueError):
        Generator(16, hidden=(6, 4, 4, 6), tap_s=3, tap_z=2)
    with pytest.raises(ValueError):
        Generator(16, hidden=(6, 4, 4, 6), tap_s=2, tap_z=5)  # tap on output stage


@pytest.mark.parametrize("taps", [(1, 2), (2, 3), (1, 4), (3, 4)])
def test_taps_pass_is_forward_bit_for_bit(taps):
    gen = Generator(16, hidden=(6, 5, 4, 7), tap_s=taps[0], tap_z=taps[1], rng=np.random.default_rng(26))
    x = np.random.default_rng(27).uniform(0, 1, (5, 4, 4))
    _, s, z, _ = gen.forward(x)
    s_only, z_only = gen.taps(x)
    assert s_only.shape == s.shape and s_only.tobytes() == s.tobytes()
    assert z_only.shape == z.shape and z_only.tobytes() == z.tobytes()
    s1, z1 = gen.taps(x[0])  # a single sample drops the leading axis, as in forward
    assert s1.shape == (s.shape[1],) and np.array_equal(z1, gen.forward(x[0])[2])


def test_taps_pass_stops_at_the_z_tap_and_keeps_no_cache():
    gen = Generator(16, hidden=(6, 5, 4, 7), tap_s=1, tap_z=2, rng=np.random.default_rng(28))
    cache = gen._run(np.zeros((3, 16)), stages=gen.tap_z, keep=(gen.tap_s, gen.tap_z))
    assert [a is not None for a in cache.acts] == [False, True, True]


def test_tap_s_precedes_tap_z_structurally():
    gen = tiny_gen(11)
    assert gen.tap_s < gen.tap_z
    _, s, z, cache = gen.forward(np.zeros((4, 4)))
    # a single sample runs as a stack of one row; the taps are views of the cache
    assert np.array_equal(cache.acts[gen.tap_s][0], s) and np.shares_memory(cache.acts[gen.tap_s], s)
    assert np.array_equal(cache.acts[gen.tap_z][0], z) and np.shares_memory(cache.acts[gen.tap_z], z)


# --- generator backward ------------------------------------------------------


def test_backward_zero_upstream_gives_zero_grads():
    gen = tiny_gen(5)
    x = np.random.default_rng(6).uniform(0, 1, (4, 4))
    _, _, _, cache = gen.forward(x)
    grads, gx = gen.backward(cache, np.zeros((4, 4)))
    assert np.array_equal(grads, np.zeros_like(gen.params))
    assert np.array_equal(gx, np.zeros((4, 4)))


def test_backward_mask_of_the_post_activation_is_that_of_the_pre_activation():
    # backward reads the leaky slope from the cached post-activation; the bits must equal the pre-activation's mask
    tiny = np.finfo(float).smallest_subnormal
    pre = np.array([-0.0, 0.0, tiny, -tiny, 4 * tiny, -4 * tiny, 1e-300, -1e-300, 1.0, -1.0, np.inf, -np.inf, np.nan])
    assert nets._leaky_deriv(nets._leaky(pre)).tobytes() == nets._leaky_deriv(pre).tobytes()


def test_backward_input_grad_matches_finite_differences():
    gen = tiny_gen(10)
    rng = np.random.default_rng(11)
    x = rng.uniform(0, 1, 16)
    wy = rng.standard_normal(16)

    def scalar_x(xv):
        y, _, _, _ = gen.forward(xv)
        return float(wy @ y)

    _, _, _, cache = gen.forward(x)
    _, gx = gen.backward(cache, wy)
    numeric = fd_grad(scalar_x, x.copy())
    assert np.linalg.norm(gx - numeric) / np.linalg.norm(numeric) < 1e-4


def test_backward_linearity_in_upstream():
    gen = tiny_gen(12)
    x = np.random.default_rng(13).uniform(0, 1, (4, 4))
    g = np.random.default_rng(14).standard_normal((4, 4))
    _, _, _, cache = gen.forward(x)
    g1, _ = gen.backward(cache, g)
    g2, _ = gen.backward(cache, 3.0 * g)
    assert np.allclose(3.0 * g1, g2, atol=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_backward_into_buffer_matches_fresh_arrays(seed):
    # one parameter-gradient product over two caches' rows == the sum of two fresh backwards
    assert param_grads_error(seed) <= PARAM_GRADS_TOL


def test_backward_out_buffer_checks():
    gen = tiny_gen(15)
    _, _, _, cache = gen.forward(np.zeros((4, 4)))
    with pytest.raises(ValueError):
        gen.param_grads_from(cache)  # no backward chain has run on it yet
    with pytest.raises(ShapeMismatch):
        gen.backward(cache, np.zeros((4, 4)), out=np.empty(gen.n_params + 1))
    with pytest.raises(CacheMismatch):
        tiny_gen(16).param_grads_from(cache)
    disc = Discriminator(16, hidden=(5,), rng=np.random.default_rng(16))
    _, cache = disc.forward(np.ones((2, 16)))
    pg, gx = disc.backward(cache, np.ones(2), param_grads=False)
    assert pg is None and np.array_equal(gx, disc.backward(cache, np.ones(2))[1])


def test_backward_rejects_foreign_cache():
    a, b = tiny_gen(1), tiny_gen(2)
    _, _, _, cache = a.forward(np.zeros((4, 4)))
    with pytest.raises(CacheMismatch):
        b.backward(cache, np.zeros((4, 4)))


def rel(a, b):
    return np.linalg.norm(np.asarray(a) - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1e-300)


def test_row_stack_matches_per_row_generator_calls():
    gen = tiny_gen(30)
    rng = np.random.default_rng(31)
    x = rng.uniform(0, 1, (3, 4, 4))
    gy, gs, gz = rng.standard_normal((3, 4, 4)), rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
    y, s, z, cache = gen.forward(x)
    grads, gx = gen.backward(cache, gy, grad_s=gs, grad_z=gz)
    assert y.shape == (3, 4, 4) and s.shape == (3, 4) and z.shape == (3, 4) and gx.shape == (3, 4, 4)
    row_grads = []
    for i in range(3):
        y_i, s_i, z_i, cache_i = gen.forward(x[i])
        g_i, gx_i = gen.backward(cache_i, gy[i], grad_s=gs[i], grad_z=gz[i])
        for batched, single in ((y[i], y_i), (s[i], s_i), (z[i], z_i), (gx[i], gx_i)):
            assert rel(batched, single) <= 1e-12
        row_grads.append(g_i)
    assert rel(grads, np.sum(row_grads, axis=0)) <= 1e-12


def test_row_stack_matches_per_row_discriminator_calls():
    disc = Discriminator(16, hidden=(6, 4), rng=np.random.default_rng(32))
    rng = np.random.default_rng(33)
    x = rng.uniform(0, 1, (3, 16))
    d = rng.standard_normal(3)
    scores, cache = disc.forward(x)
    grads, gx = disc.backward(cache, d)
    assert scores.shape == (3,) and gx.shape == (3, 16)
    row_grads = []
    for i in range(3):
        score_i, cache_i = disc.forward(x[i])
        g_i, gx_i = disc.backward(cache_i, d[i])
        assert rel(scores[i], score_i) <= 1e-12
        assert rel(gx[i], gx_i) <= 1e-12
        row_grads.append(g_i)
    assert rel(grads, np.sum(row_grads, axis=0)) <= 1e-12


# --- discriminator -----------------------------------------------------------


def test_disc_zero_params_zero_input_zero_score():
    disc = Discriminator(16, hidden=(5,))
    score, _ = disc.forward(np.zeros((4, 4)))
    assert score == 0.0


def test_disc_deterministic():
    x = np.random.default_rng(15).uniform(0, 1, (4, 4))
    d1 = Discriminator(16, hidden=(5,), rng=np.random.default_rng(3))
    d2 = Discriminator(16, hidden=(5,), rng=np.random.default_rng(3))
    assert d1.forward(x)[0] == d2.forward(x)[0]


# --- adam --------------------------------------------------------------------


def test_adam_zero_grads_leave_params():
    params = np.array([1.0, -2.0, 3.0])
    before = params.copy()
    state = AdamState.for_params(params, lr=1e-3)
    assert np.array_equal(adam_step(state, params, np.zeros(3)), before)


def test_adam_zero_lr_leaves_params():
    params = np.array([1.0, -2.0])
    before = params.copy()
    state = AdamState.for_params(params, lr=0.0)
    out = adam_step(state, params, np.array([0.5, -0.5]))
    assert np.array_equal(out, before)


def test_adam_step_is_the_textbook_update_in_place(monkeypatch):
    # The numpy loop, the reference the native kernel is held to bit for bit.
    monkeypatch.setattr(native, "lib", native.lib._replace(adam_step=None))
    monkeypatch.setattr(nets, "ADAM_BLOCK", 8)  # 30 values: three whole blocks and a partial one
    # 50 steps against the textbook update; inf if a call does not return params itself
    assert adam_textbook_error(50, n=30) <= ADAM_TOL


def test_adam_first_step_hand_value():
    # g=1 at t=1: m_hat = v_hat = 1, delta = -lr / (1 + eps)
    lr = 2e-4
    params = np.array([0.0])
    state = AdamState.for_params(params, lr=lr)
    out = adam_step(state, params, np.array([1.0]))
    assert abs(out[0] + lr / (1.0 + 1e-8)) < 1e-18
    assert state.t == 1


def test_adam_defaults_and_shape_check():
    state = AdamState.for_params(np.zeros(3))
    assert (state.beta1, state.beta2, state.eps) == (0.5, 0.999, 1e-8)
    with pytest.raises(ShapeMismatch):
        adam_step(state, np.zeros(3), np.zeros(4))


def test_adam_t_strictly_increasing():
    params = np.zeros(2)
    state = AdamState.for_params(params)
    seen = []
    for _ in range(4):
        params = adam_step(state, params, np.ones(2))
        seen.append(state.t)
    assert seen == [1, 2, 3, 4]


needs_kernel = pytest.mark.skipif(native.lib.adam_step is None, reason=f"the native library did not build: {native.error}")

# Gradient entries the kernel must round exactly as numpy does: signed zeros,
# tiny normals and subnormals (no flush to zero).
EDGE_GRADS = np.array([0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 2.5e-310, -2.5e-310])


def adam_run(monkeypatch, kernel, n, steps=200):
    """params, m and v after `steps` adam_step calls on one seeded gradient sequence, with the given kernel."""
    monkeypatch.setattr(native, "lib", native.lib._replace(adam_step=kernel))
    rng = np.random.default_rng(n)
    params = rng.standard_normal(n)
    state = AdamState.for_params(params, lr=1e-2)
    with np.errstate(all="ignore"):  # the numpy passes warn where g * g overflows
        for t in range(steps):
            g = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
            pick = rng.random(n) < 0.3
            g[pick] = rng.choice(EDGE_GRADS, int(pick.sum()))
            if t == 120:
                g[::3] = 1e200  # g * g overflows: v is inf from here on
            if t == 180:
                g[1::4] = g[-1] = np.nan
            assert adam_step(state, params, g) is params
    return params, state.m, state.v


@needs_kernel
@pytest.mark.parametrize("n", [1, 7, 8, 9, 30, 2 * ADAM_BLOCK + 40])
def test_native_adam_is_bit_identical_to_the_numpy_loop(monkeypatch, n):
    kernel = adam_run(monkeypatch, native.lib.adam_step, n)
    numpy_loop = adam_run(monkeypatch, None, n)
    for name, a, b in zip(("params", "m", "v"), kernel, numpy_loop):
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), name
    assert np.isnan(kernel[0][-1]) and (n == 1 or np.isinf(kernel[2][0]))


@needs_kernel
def test_train_writes_the_same_bytes_with_the_kernel_forced_off(monkeypatch, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs = 2\nn_train = 6\nn_eval = 2\nimg_side = 16\ngen_hidden = 16,8,8,16\n"
                   "disc_hidden = 8\nn_neighbors = 4\ncheckpoint_interval = 1\nsample_count = 1\n")
    outputs = []
    for kernel in (native.lib.adam_step, None):
        monkeypatch.setattr(native, "lib", native.lib._replace(adam_step=kernel))
        out = tmp_path / ("native" if kernel else "numpy")
        assert cli.main(["train", "--config", str(cfg), "--out", str(out), "--seed", "1"]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert {"metrics.csv", "ckpt_1.bin"} <= outputs[0].keys()
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("bad", ["strided params", "float32 grads", "strided v", "read-only params"])
def test_adam_refuses_arrays_the_kernel_would_misread(bad):
    params, grads = np.arange(1.0, 5.0), np.ones(4)
    state = AdamState.for_params(params)
    if bad == "strided params":
        params = np.arange(1.0, 9.0)[::2]
    elif bad == "float32 grads":
        grads = np.ones(4, dtype=np.float32)
    elif bad == "strided v":
        state.v = np.zeros(8)[::2]
    else:
        params.flags.writeable = False
    before = params.copy()
    with pytest.raises(ShapeMismatch):
        adam_step(state, params, grads)
    assert np.array_equal(params, before) and state.t == 0 and not state.m.any()


def test_adam_source_ships_as_package_data():
    assert importlib.resources.files("dgpcyclegan").joinpath("_native.c").is_file()
    pyproject = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())
    assert "_native.c" in pyproject["tool"]["setuptools"]["package-data"]["dgpcyclegan"]


def refuse_to_load(path):
    raise OSError(f"{path}: failed to map segment from shared object\nsecond line")


def private_dirs(monkeypatch, tmp_path):
    """Point the build's cache and temporary directories into tmp_path; returns (cache, tmp)."""
    cache, tmp = tmp_path / "cache", tmp_path / "tmp"
    tmp.mkdir()
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp))
    return cache / "dgpcyclegan", tmp


@pytest.mark.parametrize("cc, load, reason", [
    ("dgpcyclegan-no-such-compiler", None, "dgpcyclegan-no-such-compiler"),  # no compiler
    ("false", None, "false exited with status 1"),  # the compiler fails
    pytest.param(native.CC, refuse_to_load, "failed to map segment", marks=needs_kernel),  # a noexec directory
])
def test_a_failed_adam_build_falls_back_and_leaves_no_directory(monkeypatch, tmp_path, cc, load, reason):
    # One build serves every native pass, so a failed one falls back for all of them, with one reason.
    cache, tmp = private_dirs(monkeypatch, tmp_path)
    monkeypatch.setattr(native, "CC", cc)
    if load is not None:
        monkeypatch.setattr(native.ctypes, "CDLL", load)
    lib, error = native.build()
    assert lib == native.Native()
    assert reason in error and "\n" not in error
    assert list(tmp.iterdir()) == []
    assert [p.name for p in cache.iterdir()] == ([] if load is None else [f"_native-{native._build_key(SOURCE)}.so"])


@needs_kernel
def test_adam_build_leaves_no_directory_and_the_kernel_still_runs(monkeypatch, tmp_path):
    _, tmp = private_dirs(monkeypatch, tmp_path)
    lib, error = native.build()
    assert None not in lib and error is None
    assert list(tmp.iterdir()) == []
    monkeypatch.setattr(native, "lib", lib)
    params = np.zeros(1)
    adam_step(AdamState.for_params(params, lr=2e-4), params, np.array([1.0]))
    assert abs(params[0] + 2e-4 / (1.0 + 1e-8)) < 1e-18


SOURCE = importlib.resources.files("dgpcyclegan").joinpath("_native.c").read_bytes()


@needs_kernel
def test_the_build_is_cached_by_source_compiler_flags_and_cpu(monkeypatch, tmp_path):
    cache, _ = private_dirs(monkeypatch, tmp_path)
    first, _ = native.build()
    assert None not in first and cache.stat().st_mode & 0o777 == 0o700
    assert [p.name for p in cache.iterdir()] == [f"_native-{native._build_key(SOURCE)}.so"]
    # A second build loads the cached library: a compiler that fails is never run.
    compiled = []
    monkeypatch.setattr(native, "_compile", lambda source, path: compiled.append(path) or "the compiler ran")
    second, error = native.build()
    assert None not in second and error is None and compiled == []
    # A changed source or flag names another library, which is compiled.
    assert native._build_key(SOURCE + b"\n") != native._build_key(SOURCE)
    monkeypatch.setattr(native, "CFLAGS", native.CFLAGS + ("-DDGP_CACHE_TEST",))
    assert native.build() == (native.Native(), "the compiler ran") and len(compiled) == 1


@needs_kernel
def test_a_library_without_a_pass_is_a_failed_load(monkeypatch, tmp_path):
    # As from a stale cached library: the cache is given up, and the fresh build lacks the symbol too.
    private_dirs(monkeypatch, tmp_path)
    monkeypatch.setitem(native._SIGNATURES, "dgp_no_such_pass", ((), None))
    lib, error = native.build()
    assert lib == native.Native()
    assert "dgp_no_such_pass" in error and "\n" not in error


# --- checkpoints -------------------------------------------------------------


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    gen = tiny_gen(20)
    disc = Discriminator(16, hidden=(5,), rng=np.random.default_rng(21))
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, {"gen_wc": gen, "disc_c": disc}, step=123)
    nets, step = load_checkpoint(path)
    assert step == 123
    assert isinstance(nets["gen_wc"], Generator)
    assert nets["gen_wc"].widths == gen.widths
    assert (nets["gen_wc"].tap_s, nets["gen_wc"].tap_z) == (gen.tap_s, gen.tap_z)
    assert np.array_equal(nets["gen_wc"].params, gen.params)
    assert np.array_equal(nets["disc_c"].params, disc.params)
    # parameter count and shapes stable across the round trip
    x = np.random.default_rng(22).uniform(0, 1, (4, 4))
    y1, s1, z1, _ = gen.forward(x)
    y2, s2, z2, _ = nets["gen_wc"].forward(x)
    assert np.array_equal(y1, y2) and np.array_equal(s1, s2) and np.array_equal(z1, z2)


def reference_checkpoint_bytes(nets_by_name: dict, step: int) -> bytes:
    """The documented checkpoint layout, each parameter vector written through a tobytes() copy."""
    out = [CKPT_MAGIC, struct.pack("<IQ", len(nets_by_name), step)]
    for name, net in nets_by_name.items():
        is_gen = isinstance(net, Generator)
        out += [struct.pack("<I", len(name.encode())), name.encode(), struct.pack("<B", 0 if is_gen else 1),
                struct.pack("<I", len(net.widths)), struct.pack(f"<{len(net.widths)}I", *net.widths),
                struct.pack("<ii", *((net.tap_s, net.tap_z) if is_gen else (-1, -1))),
                struct.pack("<Q", net.n_params), net.params.astype("<f8").tobytes()]
    return b"".join(out)


def test_checkpoint_bytes_equal_a_tobytes_reference_writer(tmp_path):
    nets_by_name = {"gen_wc": Generator(64, rng=24), "disc_c": Discriminator(64, hidden=(8, 4), rng=25)}
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, nets_by_name, step=7)
    assert path.read_bytes() == reference_checkpoint_bytes(nets_by_name, 7)


def test_loading_a_desk_checkpoint_holds_no_second_copy(tmp_path):
    # The four nets of a default desk run, as its ckpt_1.bin holds them.
    path = tmp_path / "ckpt_1.bin"
    save_checkpoint(path, init_state(TrainConfig()).nets, step=400)
    tracemalloc.start()
    try:
        nets, _ = load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(nets) == 4
    assert peak <= 1.2 * path.stat().st_size


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
    with pytest.raises(MalformedFile):
        load_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path):
    gen = tiny_gen(23)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, {"g": gen}, step=1)
    path.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(MalformedFile):
        load_checkpoint(path)
