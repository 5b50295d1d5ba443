"""Command-line entry point: verify, train, eval and ablate.

Runs are described by a plain-text config file of `key = value` lines
(`#` starts a comment); every key has a default, unknown keys are rejected,
and any `--key value` flag overrides the file.  The seed falls back to the
DGP_SEED environment variable when neither the file nor a flag provides one.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

# psnr and ssim are scored through trainer.evaluate; they stay importable
# here because perfbench's trace wraps them at this module.
from .data_metrics import SSIM_WINDOW, DegradeSpec, make_eval_pairs, make_unpaired_sets, psnr, ssim  # noqa: F401
from .errors import ConfigError, DgpError
from .fileio import atomic_open
from .kernels import FAMILIES
from .nets import load_checkpoint
from .trainer import DeskData, TrainConfig, evaluate, train_run


def _parse_bool(v: str) -> bool:
    low = v.strip().lower()
    if low in ("on", "true", "1", "yes"):
        return True
    if low in ("off", "false", "0", "no"):
        return False
    raise ConfigError(f"expected on/off, got {v!r}")


def _parse_ints(v: str) -> tuple:
    return tuple(int(p) for p in v.split(",") if p.strip())


# key -> (converter, default); None defaults are resolved later.
CONFIG_SCHEMA = {
    "seed": (int, None),
    "data_seed": (int, None),
    "epochs": (int, 30),
    "batch_size": (int, 2),
    "lr": (float, 2e-4),
    "lr_halve_every": (int, 30),
    "lambda_p": (float, 0.03),
    "n_neighbors": (int, 32),
    "gp_depth": (int, 4),
    "dgp": (_parse_bool, True),
    "grad_through_query": (_parse_bool, False),
    "kernel_family": (str, "se"),
    "kernel_beta": (float, 2.5),
    "kernel_gamma": (float, 2.5),
    "noise_var": (float, 0.01),
    "img_side": (int, 32),
    "gen_hidden": (_parse_ints, (128, 32, 32, 128)),
    "disc_hidden": (_parse_ints, (64, 32)),
    "tap_s": (int, 2),
    "tap_z": (int, 3),
    "eval_interval": (int, 1),
    "n_train": (int, 200),
    "n_eval": (int, 40),
    "streak_count": (int, 16),
    "streak_amplitude": (float, 0.8),
    "streak_angle": (float, -1.1),
    "streak_width": (float, 1.2),
    "out_dir": (str, None),
    "checkpoint_interval": (int, 10),
    "sample_count": (int, 3),
}


# Smallest value of each numeric key a run can use.  Values are checked when
# the config is built, so a bad config never fails part-way through a run.
CONFIG_MIN = dict.fromkeys(("epochs", "batch_size", "lr_halve_every", "n_neighbors", "gp_depth",
                            "eval_interval", "n_train", "n_eval", "checkpoint_interval"), 1)
CONFIG_MIN.update(seed=0, data_seed=0, lambda_p=0.0, img_side=SSIM_WINDOW,  # SSIM takes whole windows
                  streak_count=0, streak_amplitude=0.0)  # 0 streaks or amplitude 0: weather = clean
# Keys that must be above zero; the pseudo loss takes the log of the posterior
# variance, whose floor is noise_var.
CONFIG_POSITIVE = ("lr", "kernel_beta", "kernel_gamma", "noise_var", "streak_width")


def _convert(key: str, text: str, name: str | None = None):
    """Parse one value with its key's converter; errors name the key (or `name`, its source)."""
    try:
        return CONFIG_SCHEMA[key][0](text)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad value for {name or key}: {text!r}") from exc


def _check_values(values: dict) -> None:
    """Refuse values a run cannot use; every message names the key."""
    for key, (conv, _) in CONFIG_SCHEMA.items():
        if conv is float and not np.isfinite(values[key]):
            raise ConfigError(f"{key} must be finite, got {values[key]!r}")
    for key, low in CONFIG_MIN.items():
        if not values[key] >= low:
            raise ConfigError(f"{key} must be at least {low}, got {values[key]!r}")
    for key in CONFIG_POSITIVE:
        if not values[key] > 0:
            raise ConfigError(f"{key} must be positive, got {values[key]!r}")
    if values["kernel_family"] not in FAMILIES:
        raise ConfigError(f"kernel_family must be one of {', '.join(FAMILIES)}, got {values['kernel_family']!r}")
    for key in ("gen_hidden", "disc_hidden"):
        if any(w < 1 for w in values[key]):
            raise ConfigError(f"{key} widths must be positive, got {values[key]!r}")
    n_hidden = len(values["gen_hidden"])
    if not 1 <= values["tap_s"] < values["tap_z"] <= n_hidden:
        raise ConfigError(
            f"tap_s = {values['tap_s']} and tap_z = {values['tap_z']} must satisfy "
            f"1 <= tap_s < tap_z <= {n_hidden}, the number of gen_hidden layers"
        )


@dataclass
class RunConfig:
    """Everything a train/eval/ablate run needs, resolved from file + flags."""

    train: TrainConfig
    degrade: DegradeSpec
    data_seed: int
    n_train: int
    n_eval: int
    out_dir: str | None
    checkpoint_interval: int
    sample_count: int


def parse_config_file(path) -> dict:
    """Read `key = value` lines into raw strings; rejects unknown keys."""
    raw = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for ln, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{ln}: expected `key = value`")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"{path}:{ln}: unknown config key: {key}")
        raw[key] = value
    return raw


def build_run_config(raw: dict, overrides: dict | None = None) -> RunConfig:
    """Typed RunConfig from raw file values plus flag overrides (flag wins)."""
    values = {}
    for key, (_, default) in CONFIG_SCHEMA.items():
        values[key] = _convert(key, raw[key]) if key in raw else default
    for key, val in (overrides or {}).items():
        if val is None:
            continue
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"unknown config key: {key}")
        values[key] = val

    if values["seed"] is None:
        env = os.environ.get("DGP_SEED")
        values["seed"] = _convert("seed", env, "DGP_SEED") if env else 0
    if values["data_seed"] is None:
        values["data_seed"] = values["seed"]
    _check_values(values)

    dgp_on = values["dgp"]
    train = _from_keys(TrainConfig, values, lambda_p=values["lambda_p"] if dgp_on else 0.0, dgp_enabled=dgp_on)
    degrade = _from_keys(DegradeSpec, values, seed=values["data_seed"])
    return _from_keys(RunConfig, values, train=train, degrade=degrade)


def _from_keys(cls, values: dict, **given):
    """A cls whose fields come from the config keys of the same name, except those given."""
    return cls(**{**{f.name: values[f.name] for f in fields(cls) if f.name in values}, **given})


def build_desk_data(rc: RunConfig) -> DeskData:
    side = rc.train.img_side
    clean, weather = make_unpaired_sets(rc.n_train, rc.degrade, rc.data_seed, side)
    eval_weather, eval_clean = make_eval_pairs(rc.n_eval, rc.degrade, rc.data_seed, side)
    return DeskData(clean_train=clean, weather_train=weather, eval_weather=eval_weather, eval_clean=eval_clean)


def final_metrics(history) -> tuple:
    """Held-out score of a run: mean PSNR/SSIM over the last 5 evaluated epochs."""
    rows = [h for h in history if np.isfinite(h.psnr)][-5:]
    if not rows:
        return float("nan"), float("nan")
    return (
        float(np.mean([h.psnr for h in rows])),
        float(np.mean([h.ssim for h in rows])),
    )


def run_experiment(rc: RunConfig, out_dir=None):
    return train_run(rc.train, build_desk_data(rc), out_dir=out_dir,
                     checkpoint_interval=rc.checkpoint_interval, sample_count=rc.sample_count)


# --- commands ---------------------------------------------------------------


def cmd_verify(args) -> int:
    # Imported here: train and eval never load the oracle module.
    from . import verify as verify_mod

    names = [args.suite] if args.suite else None
    try:
        results = verify_mod.run_suites(names)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    all_ok = True
    width = max(len(c.name) for checks in results.values() for c in checks)
    for suite, checks in results.items():
        for check in checks:
            status = "pass" if check.ok else "FAIL"
            print(f"{suite:<8} {check.name:<{width}}  {status}  {check.detail}")
            all_ok = all_ok and check.ok
    failing = [s for s, checks in results.items() if not all(c.ok for c in checks)]
    print(f"verify: {'all suites passed' if all_ok else 'FAILED suites: ' + ', '.join(failing)}")
    return 0 if all_ok else 1


def _load_run_config(args, need_out: bool, **extra) -> RunConfig:
    """The run config from --config and the flags; `extra` overrides both."""
    raw = parse_config_file(args.config) if args.config else {}
    overrides = {
        "seed": args.seed,
        "epochs": getattr(args, "epochs", None),
        "out_dir": getattr(args, "out", None),
        "lambda_p": getattr(args, "lambda_p", None),
        "n_neighbors": getattr(args, "neighbors", None),
        "gp_depth": getattr(args, "gp_depth", None),
    }
    if getattr(args, "dgp", None) is not None:
        overrides["dgp"] = _parse_bool(args.dgp)
    rc = build_run_config(raw, {**overrides, **extra})
    if need_out and rc.out_dir is None:
        raise ConfigError("missing config key: out_dir (set it in the file or pass --out)")
    return rc


def cmd_train(args) -> int:
    rc = _load_run_config(args, need_out=True)
    _, history = run_experiment(rc, out_dir=rc.out_dir)
    p, s = final_metrics(history)
    print(f"train: {rc.train.epochs} epochs done, held-out psnr {p:.3f} dB, ssim {s:.4f}")
    print(f"train: outputs in {rc.out_dir}")
    return 0


def cmd_eval(args) -> int:
    rc = _load_run_config(args, need_out=False)
    nets, step = load_checkpoint(args.ckpt)
    if "gen_wc" not in nets:
        raise ConfigError(f"checkpoint {args.ckpt} has no weather-to-clean generator")
    gen = nets["gen_wc"]
    side = rc.train.img_side
    if gen.widths[0] != side * side:
        raise ConfigError(f"img_side = {side} gives {side * side} pixels per image, "
                          f"but checkpoint {args.ckpt} was trained on {gen.widths[0]}")
    weather, clean = make_eval_pairs(rc.n_eval, rc.degrade, rc.data_seed, side)
    # trainer.evaluate, the per-epoch scoring, so scores match metrics.csv exactly.
    psnrs, ssims = evaluate(gen, weather, clean)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with atomic_open(out / "eval.csv", "w", encoding="utf-8") as fh:
            fh.write("pair,psnr,ssim\n")
            for i, (p, s) in enumerate(zip(psnrs, ssims)):
                fh.write(f"{i},{p!r},{s!r}\n")
    print(f"eval: step {step}, {len(psnrs)} pairs, psnr {np.mean(psnrs):.3f} dB, ssim {np.mean(ssims):.4f}")
    return 0


AXES = {
    "L": ("gp_depth", "summary_L.csv", (1, 2, 3, 4)),
    "neighbors": ("n_neighbors", "summary_Nn.csv", (16, 32, 64)),
    "lambda": ("lambda_p", "summary_lambda_p.csv", (0.3, 0.03, 0.003)),
}


def cmd_ablate(args) -> int:
    rc = _load_run_config(args, need_out=True)
    axes = list(AXES) if args.axis == "all" else [args.axis]
    grid_text = {"L": args.layers, "neighbors": args.neighbors_grid, "lambda": args.lambdas}
    # Every grid point is parsed like its config key and checked before the first run starts.
    sweeps = []
    for axis in axes:
        key, csv_name, default = AXES[axis]
        text = grid_text[axis]
        values = tuple(_convert(key, part) for part in text.split(",") if part.strip()) if text else default
        sweeps.append((key, csv_name, [(v, _load_run_config(args, True, **{key: v})) for v in values]))
    out = Path(rc.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for key, csv_name, points in sweeps:
        lines = [f"{key},psnr,ssim"]
        for value, sub in points:
            _, history = run_experiment(sub, out_dir=None)
            p, s = final_metrics(history)
            lines.append(f"{value},{p!r},{s!r}")
            print(f"ablate: {key}={value} -> psnr {p:.3f} dB, ssim {s:.4f}")
        with atomic_open(out / csv_name, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dgpcyclegan",
        description="GP-supervised unpaired translation: verification, training, evaluation, ablations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run oracle and property suites")
    p_verify.add_argument("--suite", default=None, help="run a single suite by name")

    def add_common(p, with_train_flags=True):
        p.add_argument("--config", default=None, help="path to key = value config file")
        p.add_argument("--seed", type=int, default=None)
        if with_train_flags:
            p.add_argument("--out", default=None, help="output directory")
            p.add_argument("--epochs", type=int, default=None)
            p.add_argument("--dgp", default=None, help="on or off")
            p.add_argument("--lambda-p", dest="lambda_p", type=float, default=None)
            p.add_argument("--neighbors", type=int, default=None)
            p.add_argument("--gp-depth", dest="gp_depth", type=int, default=None)

    p_train = sub.add_parser("train", help="train on the synthetic desk-scale task")
    add_common(p_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on held-out pairs")
    add_common(p_eval, with_train_flags=False)
    p_eval.add_argument("--ckpt", required=True, help="checkpoint file")
    p_eval.add_argument("--out", default=None, help="directory for eval.csv")

    p_ablate = sub.add_parser("ablate", help="sweep depth, neighbor count and pseudo weight")
    add_common(p_ablate)
    p_ablate.add_argument("--axis", default="all", choices=["all", *AXES])
    p_ablate.add_argument("--layers", default=None, help="comma list for the depth axis")
    p_ablate.add_argument("--neighbors-grid", dest="neighbors_grid", default=None,
                          help="comma list for the neighbor axis")
    p_ablate.add_argument("--lambdas", default=None, help="comma list for the weight axis")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    handlers = {"verify": cmd_verify, "train": cmd_train, "eval": cmd_eval, "ablate": cmd_ablate}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DgpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
