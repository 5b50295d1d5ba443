import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from dgpcyclegan import trainer
from dgpcyclegan.data_metrics import DegradeSpec, make_unpaired_sets
from dgpcyclegan.errors import EmptyDataset, NonFiniteGradient
from dgpcyclegan.nets import Discriminator, adam_step
from dgpcyclegan.trainer import (
    CSV_COLUMNS,
    DeskData,
    TrainConfig,
    TrainState,
    build_epoch_banks,
    discriminator_step_terms,
    generator_step_terms,
    init_state,
    lr_at,
    train_run,
    train_step,
    write_metrics_csv,
)


def small_config(**kw):
    base = dict(
        epochs=2,
        seed=0,
        img_side=8,
        gen_hidden=(12, 6, 6, 12),
        disc_hidden=(8,),
        n_neighbors=4,
        eval_interval=1,
    )
    base.update(kw)
    return TrainConfig(**base)


def small_data(n=10, seed=0, side=8):
    spec = DegradeSpec(streak_count=4, streak_amplitude=0.5, seed=seed)
    clean, weather = (np.ascontiguousarray(s[:, :side, :side]) for s in make_unpaired_sets(n, spec, seed))
    return DeskData(clean_train=clean, weather_train=weather, eval_weather=weather[:0], eval_clean=clean[:0])


class ConstGen:
    """Stub with the generator forward signature: per row, the input itself or a constant image."""

    def __init__(self, value=None):
        self.value = value

    def forward(self, x):
        x = np.asarray(x, dtype=float)
        y = x if self.value is None else np.full_like(x, self.value)
        taps = np.zeros((len(x), 2))
        return y, taps, taps, None


class MeanDisc:
    """Stub discriminator scoring each row by its mean pixel value."""

    def forward(self, x):
        x = np.asarray(x, dtype=float)
        return x.reshape(len(x), -1).mean(axis=1), None


def gen_terms(gen_wc, gen_cw, disc, iw, ic):
    comps, _, _, _, _ = generator_step_terms(
        gen_wc, gen_cw, disc, disc, iw, ic, lambda_p=0.0, want_grads=False,
    )
    return comps


# --- loss pieces -------------------------------------------------------------


def test_lsgan_terms_fooled_discriminator():
    # fakes scored 1.0: the generator's least-squares term vanishes
    img = np.random.default_rng(60).uniform(0, 1, (2, 4, 4))
    comps = gen_terms(ConstGen(1.0), ConstGen(1.0), MeanDisc(), img, img)
    assert comps["adv_fwd"] == 0.0
    assert comps["adv_rev"] == 0.0


def test_lsgan_terms_perfect_discriminator():
    # real scored 1.0, fake scored 0.0
    loss, _ = discriminator_step_terms(MeanDisc(), np.ones((2, 4, 4)), np.zeros((2, 4, 4)), want_grads=False)
    assert loss == 0.0


def test_lsgan_terms_hand_value():
    half = np.full((2, 4, 4), 0.5)
    comps = gen_terms(ConstGen(0.5), ConstGen(0.5), MeanDisc(), half, half)
    assert comps["adv_fwd"] == 0.25
    loss, _ = discriminator_step_terms(MeanDisc(), half, half, want_grads=False)
    assert loss == 0.25


def test_adversarial_losses_runs_discriminator():
    # Zero-weight discriminator scores any input 0: gen term 1, disc term 0.5.
    disc = Discriminator(16, hidden=(4,))
    rng = np.random.default_rng(61)
    real, fake = rng.uniform(0, 1, (2, 2, 4, 4))
    comps = gen_terms(ConstGen(None), ConstGen(None), disc, real, fake)
    assert comps["adv_fwd"] == 1.0 and comps["adv_rev"] == 1.0
    loss, _ = discriminator_step_terms(disc, real, fake, want_grads=False)
    assert loss == 0.5


def test_identity_loss_identity_generators():
    rng = np.random.default_rng(62)
    iw = rng.uniform(0, 1, (2, 4, 4))
    ic = rng.uniform(0, 1, (2, 4, 4))
    assert gen_terms(ConstGen(None), ConstGen(None), MeanDisc(), iw, ic)["identity"] == 0.0


def test_identity_loss_zero_output_on_unit_mean_images():
    ones = np.ones((2, 4, 4))
    assert gen_terms(ConstGen(0.0), ConstGen(0.0), MeanDisc(), ones, ones)["identity"] == 2.0


def test_identity_loss_swap_symmetry():
    rng = np.random.default_rng(63)
    iw = rng.uniform(0, 1, (2, 4, 4))
    ic = rng.uniform(0, 1, (2, 4, 4))
    f = ConstGen(0.25)
    g = ConstGen(0.75)
    a = gen_terms(f, g, MeanDisc(), iw, ic)["identity"]
    assert a == gen_terms(g, f, MeanDisc(), ic, iw)["identity"]


# --- learning-rate schedule --------------------------------------------------


def test_lr_schedule_start():
    assert lr_at(0, TrainConfig()) == 2e-4


def test_lr_schedule_halves_at_30():
    assert lr_at(30, TrainConfig()) == 1e-4


def test_lr_schedule_epoch_59():
    assert lr_at(59, TrainConfig()) == 1e-4


def test_lr_schedule_two_halvings():
    assert lr_at(60, TrainConfig()) == 5e-5


# --- banks -------------------------------------------------------------------


def test_build_epoch_banks_sizes_and_stamp():
    cfg = small_config()
    state = init_state(cfg)
    data = small_data(n=7)
    banks = build_epoch_banks(data.weather_train, data.clean_train, state.gen_wc, state.gen_cw, epoch=4)
    assert len(banks.weather) == 7 and len(banks.clean) == 7
    assert banks.weather.epoch_stamp == 4 and banks.clean.epoch_stamp == 4
    assert banks.weather.domain == "weather" and banks.clean.domain == "clean"


def test_build_epoch_banks_empty():
    cfg = small_config()
    state = init_state(cfg)
    with pytest.raises(EmptyDataset):
        build_epoch_banks([], [], state.gen_wc, state.gen_cw, epoch=0)


def test_banks_change_as_weights_train():
    cfg = small_config(epochs=2)
    data = small_data(n=6)
    state = init_state(cfg)
    b0 = build_epoch_banks(data.weather_train, data.clean_train, state.gen_wc, state.gen_cw, 0)
    for start in range(0, 6, cfg.batch_size):
        train_step(
            data.weather_train[start : start + 2], data.clean_train[start : start + 2], b0, state, cfg
        )
    b1 = build_epoch_banks(data.weather_train, data.clean_train, state.gen_wc, state.gen_cw, 1)
    assert not np.array_equal(b0.clean.z, b1.clean.z)


# --- train_step --------------------------------------------------------------


def test_identity_generators_zero_cycle_terms():
    disc = Discriminator(16, hidden=(4,))
    img = np.random.default_rng(64).uniform(0, 1, (1, 4, 4))
    comps = gen_terms(ConstGen(None), ConstGen(None), disc, img, img)
    assert comps["cyc_w"] == 0.0
    assert comps["cyc_c"] == 0.0
    assert comps["identity"] == 0.0


def test_batched_step_is_mean_of_single_pair_steps():
    cfg = small_config()
    data = small_data(n=6)
    state = init_state(cfg)
    banks = build_epoch_banks(data.weather_train, data.clean_train, state.gen_wc, state.gen_cw, 0)
    nets = (state.gen_wc, state.gen_cw, state.disc_c, state.disc_w)
    kw = dict(lambda_p=0.05, kernel=state.kernel, banks=banks, n_neighbors=3, grad_through_query=True)
    iw = data.weather_train[:2]
    ic = data.clean_train[:2]

    def terms(iw, ic):
        comps, caches_wc, caches_cw, _, _ = generator_step_terms(*nets, iw, ic, **kw)
        return comps, (state.gen_wc.param_grads_from(*caches_wc), state.gen_cw.param_grads_from(*caches_cw))

    comps, grads = terms(iw, ic)
    singles = [terms(iw[i : i + 1], ic[i : i + 1]) for i in range(2)]
    for key, value in comps.items():
        mean = (singles[0][0][key] + singles[1][0][key]) / 2
        assert abs(value - mean) <= 1e-12 * abs(value), key
    for k, got in enumerate(grads):
        mean = (singles[0][1][k] + singles[1][1][k]) / 2
        assert np.linalg.norm(got - mean) <= 1e-12 * np.linalg.norm(got)


def test_train_step_breakdown_reassembly():
    cfg = small_config()
    data = small_data(n=6)
    state = init_state(cfg)
    banks = build_epoch_banks(data.weather_train, data.clean_train, state.gen_wc, state.gen_cw, 0)
    bd = train_step(data.weather_train[:2], data.clean_train[:2], banks, state, cfg)
    expected = bd.cyc_w + bd.cyc_c + bd.adv_fwd + bd.adv_rev + bd.identity + cfg.lambda_p * (bd.p_fwd + bd.p_rev)
    assert bd.total == expected
    for name in ("cyc_w", "cyc_c", "adv_fwd", "adv_rev", "identity"):
        assert getattr(bd, name) >= 0.0


def test_train_step_lambda_zero_total_is_plain_loss():
    cfg = small_config(lambda_p=0.0)
    data = small_data(n=4)
    state = init_state(cfg)
    banks = build_epoch_banks(data.weather_train, data.clean_train, state.gen_wc, state.gen_cw, 0)
    bd = train_step(data.weather_train[:2], data.clean_train[:2], banks, state, cfg)
    assert bd.total == bd.cyc_w + bd.cyc_c + bd.adv_fwd + bd.adv_rev + bd.identity
    # pseudo terms still reported (unweighted) because the supervisor is on
    assert bd.p_fwd != 0.0 or bd.p_rev != 0.0


def test_train_step_deterministic_sequences():
    def run():
        cfg = small_config()
        data = small_data(n=6)
        state = init_state(cfg)
        banks = build_epoch_banks(data.weather_train, data.clean_train, state.gen_wc, state.gen_cw, 0)
        return [
            train_step(data.weather_train[i : i + 2], data.clean_train[i : i + 2], banks, state, cfg)
            for i in (0, 2, 4)
        ]

    a, b = run(), run()
    for bd_a, bd_b in zip(a, b):
        assert bd_a == bd_b  # dataclass equality: bit-identical floats


def test_lambda_zero_trajectory_matches_disabled_supervisor():
    data = small_data(n=6)

    def run(dgp_enabled):
        cfg = small_config(epochs=3, lambda_p=0.0, dgp_enabled=dgp_enabled)
        state, hist = train_run(cfg, data)
        return state

    on = run(True)
    off = run(False)
    assert np.array_equal(on.gen_wc.params, off.gen_wc.params)
    assert np.array_equal(on.gen_cw.params, off.gen_cw.params)
    assert np.array_equal(on.disc_c.params, off.disc_c.params)
    assert np.array_equal(on.disc_w.params, off.disc_w.params)


def test_train_run_history_finite_and_shaped():
    cfg = small_config(epochs=3)
    data = small_data(n=6)
    state, hist = train_run(cfg, data)
    assert len(hist) == 3
    for h in hist:
        for name in ("cyc_w", "cyc_c", "adv_fwd", "adv_rev", "identity", "p_fwd", "p_rev", "total", "mean_sigma2"):
            assert np.isfinite(getattr(h, name)), name
    assert [h.epoch for h in hist] == [0, 1, 2]


def test_train_run_passes_each_batch_as_a_list_of_row_views(monkeypatch):
    # perfbench counts a step's pairs as the len() of a list or tuple batch.
    seen = []
    real_step = trainer.train_step

    def spy(iw_batch, ic_batch, *args):
        seen.append([(type(b), len(b), all(np.shares_memory(r, s) for r in b))
                     for b, s in ((iw_batch, data.weather_train), (ic_batch, data.clean_train))])
        return real_step(iw_batch, ic_batch, *args)

    monkeypatch.setattr(trainer, "train_step", spy)
    data = small_data(n=7)
    train_run(small_config(epochs=1, batch_size=3), data)
    assert seen == [[(list, k, True)] * 2 for k in (3, 3, 1)]


def test_train_run_writes_outputs(tmp_path):
    cfg = small_config(epochs=2)
    data = small_data(n=4)
    train_run(cfg, data, out_dir=tmp_path, checkpoint_interval=1, sample_count=0)
    assert (tmp_path / "metrics.csv").exists()
    assert (tmp_path / "ckpt_0.bin").exists()
    assert (tmp_path / "ckpt_1.bin").exists()
    header = (tmp_path / "metrics.csv").read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)


def test_metrics_csv_deterministic(tmp_path):
    data = small_data(n=4)

    def run(path):
        cfg = small_config(epochs=2)
        state, hist = train_run(cfg, data)
        write_metrics_csv(path, hist)
        return path.read_bytes()

    assert run(tmp_path / "a.csv") == run(tmp_path / "b.csv")


def test_sigma2_logged_only_when_supervisor_enabled():
    data = small_data(n=4)
    cfg_on = small_config(epochs=1)
    state, hist = train_run(cfg_on, data)
    assert np.isfinite(hist[0].mean_sigma2)
    cfg_off = small_config(epochs=1, dgp_enabled=False)
    state, hist = train_run(cfg_off, data)
    assert np.isnan(hist[0].mean_sigma2)
    assert hist[0].p_fwd == 0.0 and hist[0].p_rev == 0.0


def test_warm_train_step_allocates_no_parameter_sized_array():
    # Default desk config, DGP on: after one warm-up step, a step's gradients,
    # Adam moments and scratch all live in buffers the state already owns.
    cfg = TrainConfig()
    clean, weather = make_unpaired_sets(cfg.n_neighbors + 8, DegradeSpec(), 0)
    state = init_state(cfg)
    banks = build_epoch_banks(weather, clean, state.gen_wc, state.gen_cw, 0)
    train_step(weather[:2], clean[:2], banks, state, cfg)
    tracemalloc.start()
    try:
        train_step(weather[2:4], clean[2:4], banks, state, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * state.gen_wc.n_params


def test_train_state_holds_one_gradient_buffer_of_the_largest_net():
    state = init_state(TrainConfig())
    arrays = [f.name for f in fields(TrainState) if isinstance(getattr(state, f.name), np.ndarray)]
    assert arrays == ["grad"]
    sizes = [net.n_params for net in state.nets.values()]
    assert state.grad.shape == (max(sizes),) and state.grad.dtype == np.float64
    for net in state.nets.values():
        g = state.grad_for(net)
        assert g.shape == (net.n_params,) and np.shares_memory(g, state.grad) and g.flags.c_contiguous


def test_one_buffer_step_is_bit_identical_to_fresh_gradients():
    # Reference: every gradient formed into a fresh array before any update.
    cfg = small_config()
    data = small_data(n=6)
    iw, ic = data.weather_train[:2], data.clean_train[:2]
    state, ref = init_state(cfg), init_state(cfg)
    banks = build_epoch_banks(data.weather_train, data.clean_train, state.gen_wc, state.gen_cw, 0)
    train_step(iw, ic, banks, state, cfg)

    nets = (ref.gen_wc, ref.gen_cw, ref.disc_c, ref.disc_w)
    _, caches_wc, caches_cw, _, (fake_c, fake_w) = generator_step_terms(
        *nets, iw, ic, lambda_p=cfg.lambda_p, kernel=ref.kernel, banks=banks, n_neighbors=cfg.n_neighbors,
    )
    grads = [ref.gen_wc.param_grads_from(*caches_wc), ref.gen_cw.param_grads_from(*caches_cw),
             discriminator_step_terms(ref.disc_c, ic, fake_c)[1], discriminator_step_terms(ref.disc_w, iw, fake_w)[1]]
    for name, g in zip(ref.nets, grads):
        adam_step(ref.opt[name], ref.nets[name].params, g)
    for name in ref.nets:
        assert np.array_equal(state.nets[name].params, ref.nets[name].params), name


def test_train_step_stops_on_a_non_finite_gradient():
    # An overflowing pseudo weight: every loss term is finite, but the
    # generator's gradient squares past the float range.
    cfg = small_config(lambda_p=1e300)
    data = small_data(n=4)
    state = init_state(cfg)
    banks = build_epoch_banks(data.weather_train, data.clean_train, state.gen_wc, state.gen_cw, 0)
    before = state.gen_wc.params.copy()
    with pytest.raises(NonFiniteGradient, match=r"gradient of gen_wc .* at epoch 0, step 0"):
        train_step(data.weather_train[:2], data.clean_train[:2], banks, state, cfg)
    assert np.array_equal(state.gen_wc.params, before) and state.opt["gen_wc"].t == 0
