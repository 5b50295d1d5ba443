"""Training loop for the two mapping networks with GP pseudo-label supervision.

One epoch follows the bank-then-update ordering: the weather bank snapshots
(s, z) taps of the weather-to-clean net over the weather set, the clean bank
those of the clean-to-weather net over the clean set, both at epoch-start
weights.  The update loop then walks shuffled unpaired image pairs in
batches.  With G the weather-to-clean and F the clean-to-weather net, each
batch runs as row stacks in two dependency levels:

    level 1:  G([iw; ic]) = [fake_c; id_c],  F([ic; iw]) = [fake_w; id_w],
              D_c(fake_c), D_w(fake_w)
    level 2:  rec_w = F(fake_c)   (F taps give the supervised latents for
                                   the clean bank's GP)
              rec_c = G(fake_w)   (G taps supervised against the weather bank)

and assembles the batch mean of

    total = cyc_w + cyc_c + adv_fwd + adv_rev + identity
            + lambda_p * (p_fwd + p_rev)

with L1 cycle and identity terms, least-squares adversarial terms and the
GP pseudo losses.  Generators are updated on that objective, each domain
discriminator on its own least-squares objective against the pre-update
fakes.  With lambda_p = 0 the pseudo path contributes no gradient, and with
the supervisor disabled it is skipped entirely, whatever lambda_p is; both
produce bit-identical parameter trajectories.

train_epoch runs one epoch: learning rate, banks, shuffled steps, the sigma^2
mean and, whenever there is a held-out set, its scores; write_epoch_outputs
writes its sample strips and checkpoint, and train_run loops over the two.
TrainState holds the whole run: nets, Adam states, the shuffle generator, the
EpochStats history and the step count.  The epoch is the history's length:
the one running while train_epoch runs, and the next one after it returns.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field, fields
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .data_metrics import SSIM_WINDOW, _pixels, psnr, ssim, write_pgm
from .errors import ConfigError, EmptyDataset, NonFiniteGradient, NonFiniteLoss
from .fileio import write_csv
from .gp_supervisor import (
    FeatureBank,
    bank_build,
    gp_condition,
    knn_select,
    pseudo_loss,
    pseudo_loss_grad,
    pseudo_loss_query_grad,
)
from .kernels import BETA_MAX, FAMILIES, GAMMA_MIN, NOISE_MAX, KernelSpec
from .nets import AdamState, Discriminator, Generator, adam_step, save_checkpoint


@dataclass
class TrainConfig:
    """Desk-scale training configuration.

    The GP kernel defaults to a depth-gp_depth squared-exponential stack
    with beta/gamma ratio 1.0; kernel_family swaps the first layer's family.
    """

    lambda_p: float = 0.03
    n_neighbors: int = 32
    gp_depth: int = 4
    lr: float = 2e-4
    lr_halve_every: int = 30
    epochs: int = 30
    batch_size: int = 2
    seed: int = 0
    dgp_enabled: bool = True
    grad_through_query: bool = False
    kernel_family: str = "se"
    kernel_beta: float = 2.5
    kernel_gamma: float = 2.5
    noise_var: float = 0.01
    img_side: int = 32
    gen_hidden: tuple = (128, 32, 32, 128)
    tap_s: int = 2
    tap_z: int = 3
    disc_hidden: tuple = (64, 32)

    def __post_init__(self) -> None:
        check_config(vars(self))

    def resolve_kernel(self) -> KernelSpec:
        return KernelSpec.homogeneous(
            family=self.kernel_family,
            depth=self.gp_depth,
            beta=self.kernel_beta,
            gamma=self.kernel_gamma,
            noise_var=self.noise_var,
        )


def _parse_bool(v: str) -> bool:
    low = v.strip().lower()
    if low not in ("on", "true", "1", "yes", "off", "false", "0", "no"):
        raise ValueError(f"expected on/off, got {v!r}")
    return low in ("on", "true", "1", "yes")


def _parse_ints(v: str) -> tuple:
    return tuple(int(p) for p in v.split(",") if p.strip())


POSITIVE, WIDTHS = "positive", "widths"

# Every config key -> (converter, rule).  A rule is a minimum, POSITIVE, a (POSITIVE,
# maximum) pair, WIDTHS (every width at least 1), a tuple of choices or None; a
# float is also finite.
# Each key's default is the field it sets (cli.CONFIG_DEFAULTS).  Values are
# checked when the config is built, so a bad config never fails mid-run.
CONFIG_SCHEMA = {
    "seed": (int, 0),
    "data_seed": (int, 0),
    "epochs": (int, 1),
    "batch_size": (int, 1),
    "lr": (float, POSITIVE),
    "lr_halve_every": (int, 1),
    "lambda_p": (float, 0.0),
    "n_neighbors": (int, 1),
    "gp_depth": (int, 1),
    "dgp": (_parse_bool, None),
    "grad_through_query": (_parse_bool, None),
    "kernel_family": (str, FAMILIES),
    "kernel_beta": (float, (POSITIVE, BETA_MAX)),
    "kernel_gamma": (float, GAMMA_MIN),
    # The pseudo loss takes the log of the posterior variance, whose floor is noise_var.
    "noise_var": (float, (POSITIVE, NOISE_MAX)),
    "img_side": (int, 1),
    "gen_hidden": (_parse_ints, WIDTHS),
    "disc_hidden": (_parse_ints, WIDTHS),
    "tap_s": (int, None),
    "tap_z": (int, None),
    "n_train": (int, 1),
    "n_eval": (int, 1),
    "streak_count": (int, 0),  # 0 streaks or amplitude 0: weather = clean
    "streak_amplitude": (float, 0.0),
    "streak_angle": (float, None),
    "streak_width": (float, POSITIVE),
    "out_dir": (str, None),
    "checkpoint_interval": (int, 1),
    "sample_count": (int, 0),
}


def check_config(values: dict) -> None:
    """Refuse values a run cannot use; every message names the key.

    Checks each key in values (at least the TrainConfig keys) by its table
    rule, then the two rules that join keys: the taps' order, and the SSIM
    window the held-out pairs need.
    """
    for key in filter(values.__contains__, CONFIG_SCHEMA):
        (conv, rule), value = CONFIG_SCHEMA[key], values[key]
        if conv is float and not np.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value!r}")
        if rule is None:
            continue
        if isinstance(rule, tuple) and rule[0] == POSITIVE:
            ok, need = 0 < value <= rule[1], f"be positive and at most {rule[1]:g}"
        elif isinstance(rule, tuple):
            ok, need = value in rule, f"be one of {', '.join(rule)}"
        elif rule == POSITIVE:
            ok, need = value > 0, "be positive"
        elif rule == WIDTHS:
            ok, need = all(w >= 1 for w in value), "have widths of at least 1"
        else:
            ok, need = value >= rule, f"be at least {rule}"
        if not ok:
            raise ConfigError(f"{key} must {need}, got {value!r}")
    n_hidden = len(values["gen_hidden"])
    if not 1 <= values["tap_s"] < values["tap_z"] <= n_hidden:
        raise ConfigError(f"tap_s = {values['tap_s']} and tap_z = {values['tap_z']} must satisfy "
                          f"1 <= tap_s < tap_z <= {n_hidden}, the number of gen_hidden layers")
    if values.get("n_eval", 0) >= 1 and values["img_side"] < SSIM_WINDOW:
        raise ConfigError(f"img_side must be at least {SSIM_WINDOW}, the SSIM window, when n_eval >= 1, "
                          f"got {values['img_side']!r}")


@dataclass
class LossBreakdown:
    """Batch-mean loss components of one training step and the objective they sum to."""

    cyc_w: float
    cyc_c: float
    adv_fwd: float
    adv_rev: float
    identity: float
    p_fwd: float
    p_rev: float
    total: float


LOSS_FIELDS = tuple(f.name for f in fields(LossBreakdown))


class EpochBanks(NamedTuple):
    weather: FeatureBank
    clean: FeatureBank


@dataclass
class TrainState:
    """Networks, optimizer states, the run's shuffle and history, and the one gradient buffer every step reuses.

    grad is a single float64 vector as long as the largest net.  train_step
    forms each net's parameter gradient in its leading slice (grad_for) right
    before that net's Adam step, in the order gen_wc, gen_cw, disc_c, disc_w,
    after which its contents are unspecified; so the four nets use the buffer
    in turn and no gradient outlives its update.  step counts the steps
    taken; the epoch is len(history), and NonFiniteLoss and NonFiniteGradient
    name both.
    """

    gen_wc: Generator
    gen_cw: Generator
    disc_c: Discriminator
    disc_w: Discriminator
    opt: dict
    kernel: KernelSpec
    shuffle: np.random.Generator
    step: int = 0
    sigma2_log: list = field(default_factory=list)
    history: list = field(default_factory=list)
    grad: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.grad = np.empty(max(net.n_params for net in self.nets.values()))

    @property
    def nets(self) -> dict:
        """The four networks by their checkpoint names, in update order."""
        return {"gen_wc": self.gen_wc, "gen_cw": self.gen_cw, "disc_c": self.disc_c, "disc_w": self.disc_w}

    def grad_for(self, net) -> np.ndarray:
        """The leading slice of the shared buffer that holds net's gradient."""
        return self.grad[: net.n_params]


@dataclass
class EpochStats(LossBreakdown):
    """One epoch: the mean of its step records, its learning rate, sigma^2 and held-out scores."""

    epoch: int
    lr: float
    mean_sigma2: float
    psnr: float
    ssim: float


CSV_COLUMNS = ("epoch", "lr", *LOSS_FIELDS, "mean_sigma2", "psnr", "ssim")


def lr_at(epoch: int, config: TrainConfig) -> float:
    """Step-decayed learning rate: halved every lr_halve_every epochs."""
    return config.lr * 0.5 ** (epoch // config.lr_halve_every)


def _l1(a: np.ndarray, b: np.ndarray):
    """Mean absolute difference and its gradient with respect to a.

    The mean is sum / size, which is how np.mean forms it, without np.mean's overhead.
    """
    d = a - b
    return float(np.abs(d).sum() / d.size), np.sign(d) / d.size


def _least_squares(scores: np.ndarray, target):
    """Mean of (score - target)^2 over the rows and its gradient with respect to the scores."""
    d = scores - target
    return float((d * d).sum() / d.size), 2.0 * d / d.size


def build_epoch_banks(weather_images, clean_images, gen_wc: Generator, gen_cw: Generator) -> EpochBanks:
    """Snapshot (s, z) taps of both domains at the current weights.

    The weather bank stores taps of the weather-to-clean net over the weather
    set; the clean bank stores taps of the clean-to-weather net over the
    clean set, matching the supervised taps of the update loop.
    """
    bank_w = bank_build(weather_images, gen_wc, domain="weather")
    bank_c = bank_build(clean_images, gen_cw, domain="clean")
    return EpochBanks(weather=bank_w, clean=bank_c)


def generator_step_terms(
    gen_wc: Generator, gen_cw: Generator, disc_c: Discriminator, disc_w: Discriminator, iw, ic, *,
    lambda_p: float, kernel: KernelSpec | None = None, banks: EpochBanks | None = None,
    n_neighbors: int = 32, fixed_posteriors=None, grad_through_query: bool = False, want_grads: bool = True,
):
    """Batch-mean loss components and the generators' backward caches for B unpaired pairs.

    iw and ic are stacks of B images each (shape (B, h, w)).  Pseudo terms
    are computed when either live banks or pre-computed posterior targets
    (one stacked posterior of B rows per direction) are supplied; pseudo-label,
    variance and neighbor choice are constants of the step, so their only
    gradient contribution is through the supervised z-tap (plus, optionally,
    the query's kernel row).
    Each generator runs its backward chain once per level; its parameter
    gradient is not formed here.  The caller forms it from the returned
    caches in one pass over both levels' rows, gen.param_grads_from(*caches),
    into a buffer of its choice or a fresh array.  With want_grads=False no
    backward runs and both caches are None.
    Returns (components dict with the total objective, caches_wc, caches_cw,
    posteriors, fakes).
    """
    iw, ic = _pixels(iw), _pixels(ic)
    n = len(iw)

    # Level 1: both generators on both domains, discriminators on the fakes.
    out_g, _, _, cache_g1 = gen_wc.forward(np.concatenate([iw, ic]))
    out_f, _, _, cache_f1 = gen_cw.forward(np.concatenate([ic, iw]))
    fake_c, id_c = out_g[:n], out_g[n:]
    fake_w, id_w = out_f[:n], out_f[n:]
    score_fake_c, cache_dc = disc_c.forward(fake_c)
    score_fake_w, cache_dw = disc_w.forward(fake_w)
    # Level 2: reconstructions, whose taps are the supervised latents.
    rec_w, s_c_t, z_c_t, cache_f2 = gen_cw.forward(fake_c)
    rec_c, s_w_t, z_w_t, cache_g2 = gen_wc.forward(fake_w)

    cyc_w, g_rec_w = _l1(rec_w, iw)
    cyc_c, g_rec_c = _l1(rec_c, ic)
    id_loss_w, g_id_w = _l1(id_w, iw)
    id_loss_c, g_id_c = _l1(id_c, ic)
    adv_fwd, g_score_c = _least_squares(score_fake_c, 1.0)
    adv_rev, g_score_w = _least_squares(score_fake_w, 1.0)

    post_f = post_r = None
    p_fwd = p_rev = 0.0
    if fixed_posteriors is not None:
        post_f, post_r = fixed_posteriors
    elif banks is not None:
        post_f = gp_condition(kernel, banks.clean, knn_select(banks.clean, z_c_t, n_neighbors), s_c_t)
        post_r = gp_condition(kernel, banks.weather, knn_select(banks.weather, z_w_t, n_neighbors), s_w_t)
    if post_f is not None:
        p_fwd = float(np.mean(pseudo_loss(post_f, z_c_t)))
        p_rev = float(np.mean(pseudo_loss(post_r, z_w_t)))

    identity = id_loss_w + id_loss_c
    total = cyc_w + cyc_c + adv_fwd + adv_rev + identity + lambda_p * (p_fwd + p_rev)
    comps = dict(cyc_w=cyc_w, cyc_c=cyc_c, adv_fwd=adv_fwd, adv_rev=adv_rev,
                 identity=identity, p_fwd=p_fwd, p_rev=p_rev, total=total)
    if not want_grads:
        return comps, None, None, (post_f, post_r), (fake_c, fake_w)

    inject = lambda_p != 0.0 and post_f is not None
    scale = lambda_p / n
    grad_z_f = grad_z_r = grad_s_f = grad_s_r = None
    if inject:
        grad_z_f = scale * pseudo_loss_grad(post_f, z_c_t)
        grad_z_r = scale * pseudo_loss_grad(post_r, z_w_t)
    if inject and grad_through_query and banks is not None:
        grad_s_f = scale * pseudo_loss_query_grad(kernel, banks.clean, post_f, s_c_t, z_c_t)
        grad_s_r = scale * pseudo_loss_query_grad(kernel, banks.weather, post_r, s_w_t, z_w_t)

    # Level 2 backward: cycle L1 at the reconstructions plus pseudo grads at
    # the taps; the adversarial push on the fakes comes through the (frozen)
    # discriminators.
    _, g_fake_c = gen_cw.backward(cache_f2, g_rec_w, grad_s=grad_s_f, grad_z=grad_z_f, param_grads=False)
    _, g_fake_w = gen_wc.backward(cache_g2, g_rec_c, grad_s=grad_s_r, grad_z=grad_z_r, param_grads=False)
    _, g_fake_c_adv = disc_c.backward(cache_dc, g_score_c, param_grads=False)
    _, g_fake_w_adv = disc_w.backward(cache_dw, g_score_w, param_grads=False)
    # Level 1 backward, one call per generator over its stacked rows; the
    # images are inputs, so no input gradient is formed.
    gen_wc.backward(cache_g1, np.concatenate([g_fake_c + g_fake_c_adv, g_id_c]), param_grads=False, input_grad=False)
    gen_cw.backward(cache_f1, np.concatenate([g_fake_w + g_fake_w_adv, g_id_w]), param_grads=False, input_grad=False)
    return comps, (cache_g1, cache_g2), (cache_f1, cache_f2), (post_f, post_r), (fake_c, fake_w)


def discriminator_step_terms(disc: Discriminator, real, fake, want_grads: bool = True, out=None):
    """Least-squares discriminator objective and its parameter gradients.

    real and fake are stacks of B images; the discriminator runs once on
    [real; fake] and the loss is the batch mean of
    0.5 * ((D(real) - 1)^2 + D(fake)^2).  The fakes are detached images: no
    gradient flows back to the generator.  The gradients go into `out` when
    given, else into a fresh array.
    """
    real, fake = _pixels(real), _pixels(fake)
    scores, cache = disc.forward(np.concatenate([real, fake]))
    target = np.concatenate([np.ones(len(real)), np.zeros(len(fake))])
    loss, g_scores = _least_squares(scores, target)
    if not want_grads:
        return loss, None
    grads, _ = disc.backward(cache, g_scores, out=out, input_grad=False)
    return loss, grads


def init_state(config: TrainConfig) -> TrainState:
    """Seed-deterministic networks, optimizer states and shuffle generator."""
    rng_wc, rng_cw, rng_dc, rng_dw, shuffle = map(np.random.default_rng, np.random.SeedSequence(config.seed).spawn(5))
    in_dim = config.img_side * config.img_side
    nets = dict(
        gen_wc=Generator(in_dim, config.gen_hidden, config.tap_s, config.tap_z, rng=rng_wc),
        gen_cw=Generator(in_dim, config.gen_hidden, config.tap_s, config.tap_z, rng=rng_cw),
        disc_c=Discriminator(in_dim, config.disc_hidden, rng=rng_dc),
        disc_w=Discriminator(in_dim, config.disc_hidden, rng=rng_dw),
    )
    opt = {name: AdamState.for_params(net.params, config.lr) for name, net in nets.items()}
    return TrainState(**nets, opt=opt, kernel=config.resolve_kernel(), shuffle=shuffle)


def train_step(iw_batch, ic_batch, banks: EpochBanks | None, state: TrainState, config: TrainConfig) -> LossBreakdown:
    """One optimizer step over a batch of independent unpaired samples.

    Gradients are batch means; generators update first, then each
    discriminator on its own objective against the pre-update fakes.  Each
    net's gradient is formed in the state's one buffer right before its Adam
    step, which updates in place.  banks=None means no supervisor: no pseudo
    terms and no sigma^2 record.  A non-finite loss term raises NonFiniteLoss
    before any parameter moves; a gradient whose squared norm is not finite
    raises NonFiniteGradient before that net moves.
    """
    iw, ic = _pixels(iw_batch), _pixels(ic_batch)
    comps, caches_wc, caches_cw, (post_f, post_r), (fake_c, fake_w) = generator_step_terms(
        state.gen_wc, state.gen_cw, state.disc_c, state.disc_w, iw, ic,
        lambda_p=config.lambda_p,
        kernel=state.kernel,
        banks=banks,
        n_neighbors=config.n_neighbors,
        grad_through_query=config.grad_through_query,
    )
    bad = next((name for name in LOSS_FIELDS if not math.isfinite(comps[name])), None)
    if bad is not None:
        raise NonFiniteLoss(f"loss term {bad} is {comps[bad]} at epoch {len(state.history)}, step {state.step}")
    if banks is not None:
        state.sigma2_log.extend([*post_f.variance, *post_r.variance])

    # param_grads_from reads only the caches, and the discriminator terms read
    # the pre-update fakes and no generator parameter, so each net's gradient
    # can wait in its caches until the net before it has updated.
    gen_wc, gen_cw, disc_c, disc_w = state.gen_wc, state.gen_cw, state.disc_c, state.disc_w
    _update(state, "gen_wc", gen_wc.param_grads_from(*caches_wc, out=state.grad_for(gen_wc)))
    _update(state, "gen_cw", gen_cw.param_grads_from(*caches_cw, out=state.grad_for(gen_cw)))
    _update(state, "disc_c", discriminator_step_terms(disc_c, ic, fake_c, out=state.grad_for(disc_c))[1])
    _update(state, "disc_w", discriminator_step_terms(disc_w, iw, fake_w, out=state.grad_for(disc_w))[1])

    state.step += 1
    return LossBreakdown(**comps)


def _update(state: TrainState, name: str, grads: np.ndarray) -> None:
    """Adam step of one net after checking its gradient's squared norm is finite.

    The squared norm, not the largest entry: Adam squares each entry, which
    overflows above about 1.3e154 and freezes the net with an infinite v.
    The norm itself may overflow; the check below reports that, not numpy.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        norm2 = np.dot(grads, grads)
    if not np.isfinite(norm2):
        raise NonFiniteGradient(
            f"gradient of {name} has squared norm {norm2} at epoch {len(state.history)}, step {state.step}"
        )
    adam_step(state.opt[name], getattr(state, name).params, grads)


@dataclass
class DeskData:
    """Unpaired training sets plus the held-out paired evaluation split, each an (n, side, side) stack.

    Row i of eval_weather is a degradation of row i of eval_clean.
    """

    clean_train: np.ndarray
    weather_train: np.ndarray
    eval_weather: np.ndarray
    eval_clean: np.ndarray


def evaluate(gen_wc: Generator, weather, clean) -> tuple[list, list]:
    """Per-pair restoration PSNRs and SSIMs of the weather-to-clean net, the weather stack restored as one."""
    restored = gen_wc.restore(weather)
    return [psnr(r, c) for r, c in zip(restored, clean)], [ssim(r, c) for r, c in zip(restored, clean)]


def train_epoch(state: TrainState, data: DeskData, config: TrainConfig) -> EpochStats:
    """Train the epoch after state.history on banks of its start weights; append its EpochStats there, return it.

    Every epoch scores the held-out pairs when data holds any; without them its psnr and ssim are NaN.
    """
    epoch = len(state.history)
    lr = lr_at(epoch, config)
    for opt_state in state.opt.values():
        opt_state.lr = lr
    banks = (build_epoch_banks(data.weather_train, data.clean_train, state.gen_wc, state.gen_cw)
             if config.dgp_enabled else None)

    order_w = state.shuffle.permutation(len(data.weather_train))
    order_c = state.shuffle.permutation(len(data.clean_train))
    batches = range(0, min(len(order_w), len(order_c)), config.batch_size)
    state.sigma2_log.clear()
    comp_sums = np.zeros(len(LOSS_FIELDS))
    for start in batches:
        iw_batch = [data.weather_train[i] for i in order_w[start : start + config.batch_size]]
        ic_batch = [data.clean_train[i] for i in order_c[start : start + config.batch_size]]
        comp_sums += astuple(train_step(iw_batch, ic_batch, banks, state, config))

    mean_sigma2 = float(np.mean(state.sigma2_log)) if state.sigma2_log else float("nan")
    ep_psnr = ep_ssim = float("nan")
    if len(data.eval_weather) > 0:
        psnrs, ssims = evaluate(state.gen_wc, data.eval_weather, data.eval_clean)
        ep_psnr, ep_ssim = float(np.mean(psnrs)), float(np.mean(ssims))
    means = dict(zip(LOSS_FIELDS, comp_sums / len(batches)))
    state.history.append(EpochStats(**means, epoch=epoch, lr=lr, mean_sigma2=mean_sigma2, psnr=ep_psnr, ssim=ep_ssim))
    return state.history[-1]


def write_epoch_outputs(out: Path, state: TrainState, data: DeskData, config: TrainConfig,
                        checkpoint_interval: int, sample_count: int) -> None:
    """Sample strips (input, restored, target) of the last epoch, given held-out pairs, and its checkpoint, if due."""
    epoch = state.history[-1].epoch
    if sample_count > 0 and len(data.eval_weather) > 0:
        weather, clean = data.eval_weather[:sample_count], data.eval_clean[:sample_count]
        strips = np.concatenate([weather, state.gen_wc.restore(weather), clean], axis=2)
        for i, strip in enumerate(strips):
            write_pgm(out / f"sample_{epoch}_{i}.pgm", strip)
    if (epoch + 1) % checkpoint_interval == 0 or epoch == config.epochs - 1:
        save_checkpoint(out / f"ckpt_{epoch}.bin", state.nets, step=state.step)


def train_run(config: TrainConfig, data: DeskData, out_dir=None, checkpoint_interval: int = 10, sample_count: int = 3):
    """Full training run; returns (state, state.history).  With out_dir it writes metrics.csv and each epoch's outputs."""
    if not len(data.clean_train) or not len(data.weather_train):
        raise EmptyDataset("training sets must be non-empty")
    state = init_state(config)
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    for _ in range(config.epochs):
        train_epoch(state, data, config)
        if out is not None:
            write_epoch_outputs(out, state, data, config, checkpoint_interval, sample_count)
    if out is not None:
        write_metrics_csv(out / "metrics.csv", state.history)
    return state, state.history


def write_metrics_csv(path, history) -> None:
    """Per-epoch CSV in the documented column order."""
    write_csv(path, CSV_COLUMNS, ([getattr(row, col) for col in CSV_COLUMNS] for row in history))
