"""Command-line entry point: verify, train, eval and ablate.

Runs are described by a plain-text config file of `key = value` lines
(`#` starts a comment); every key has a default, unknown keys are rejected,
and each flag in FLAGS overrides its key, parsed like a file value (a bad one
exits 2 with `config error:`).  The seed falls back to the DGP_SEED
environment variable when neither the file nor a flag provides one.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import native

# psnr and ssim are scored through trainer.evaluate; they stay importable
# here because perfbench's trace wraps them at this module.
from .data_metrics import DegradeSpec, make_eval_pairs, make_unpaired_sets, psnr, ssim  # noqa: F401
from .errors import ConfigError, DgpError
from .fileio import write_csv
from .nets import Generator, load_checkpoint
from .trainer import CONFIG_SCHEMA, DeskData, TrainConfig, check_config, evaluate, train_run


# Each run flag and the config key it sets.
FLAGS = {
    "--seed": "seed",
    "--out": "out_dir",
    "--epochs": "epochs",
    "--dgp": "dgp",
    "--lambda-p": "lambda_p",
    "--neighbors": "n_neighbors",
    "--gp-depth": "gp_depth",
}


def _convert(key: str, text: str, name: str | None = None):
    """Parse one value with its key's converter; errors name the key (or `name`, its source)."""
    try:
        return CONFIG_SCHEMA[key][0](text)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad value for {name or key}: {text!r}") from exc


@dataclass
class RunConfig:
    """Everything a train/eval/ablate run needs, resolved from file + flags."""

    train: TrainConfig
    degrade: DegradeSpec
    data_seed: int | None = None  # None: the seed
    n_train: int = 200
    n_eval: int = 40
    out_dir: str | None = None
    # train_run's own defaults, so each is written once.
    checkpoint_interval: int = inspect.signature(train_run).parameters["checkpoint_interval"].default
    sample_count: int = inspect.signature(train_run).parameters["sample_count"].default


# Each key's default is the field it sets.  seed has none here: it falls back
# to DGP_SEED, then to TrainConfig's.
CONFIG_DEFAULTS = {f.name: f.default for cls in (DegradeSpec, TrainConfig, RunConfig) for f in fields(cls)
                   if f.name in CONFIG_SCHEMA} | {"dgp": TrainConfig.dgp_enabled, "seed": None}


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
    values = {key: _convert(key, raw[key]) if key in raw else CONFIG_DEFAULTS[key] for key in CONFIG_SCHEMA}
    for key, val in (overrides or {}).items():
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"unknown config key: {key}")
        values[key] = val

    if values["seed"] is None:
        env = os.environ.get("DGP_SEED")
        values["seed"] = _convert("seed", env, "DGP_SEED") if env else TrainConfig.seed
    if values["data_seed"] is None:
        values["data_seed"] = values["seed"]
    check_config(values)

    train = _from_keys(TrainConfig, values, dgp_enabled=values["dgp"])
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
    """Held-out score of a run: mean PSNR/SSIM over its last 5 epochs."""
    rows = history[-5:]
    return float(np.mean([h.psnr for h in rows])), float(np.mean([h.ssim for h in rows]))


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
    # The checks run on the live paths: the native passes where they built, else their numpy twins.
    # Training bits also follow numpy and the BLAS core it picked on this host.
    print(native.status())
    print(f"numpy {np.__version__}, BLAS core {native.blas_core()}")
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
    given = vars(args)
    flags = {key: _convert(key, given[key], flag) for flag, key in FLAGS.items() if given.get(key) is not None}
    rc = build_run_config(raw, {**flags, **extra})
    if need_out and not rc.out_dir:  # an empty `out_dir =` line is no directory either
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
    if not isinstance(nets.get("gen_wc"), Generator):
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
        write_csv(out / "eval.csv", ("pair", "psnr", "ssim"), zip(range(len(psnrs)), psnrs, ssims))
    print(f"eval: step {step}, {len(psnrs)} pairs, psnr {np.mean(psnrs):.3f} dB, ssim {np.mean(ssims):.4f}")
    return 0


# Each ablate axis: its grid flag, the config key it sweeps, its summary file and default grid.
AXES = {
    "L": ("--layers", "gp_depth", "summary_L.csv", (1, 2, 3, 4)),
    "neighbors": ("--neighbors-grid", "n_neighbors", "summary_Nn.csv", (16, 32, 64)),
    "lambda": ("--lambdas", "lambda_p", "summary_lambda_p.csv", (0.3, 0.03, 0.003)),
}


def cmd_ablate(args) -> int:
    rc = _load_run_config(args, need_out=True)
    axes = list(AXES) if args.axis == "all" else [args.axis]
    # Every grid point is parsed like its config key and checked before the first run starts.
    sweeps = []
    for axis in axes:
        _, key, csv_name, default = AXES[axis]
        text = getattr(args, axis)
        values = tuple(_convert(key, part) for part in text.split(",") if part.strip()) if text else default
        if not values:
            raise ConfigError(f"the {key} grid {text!r} holds no values")
        sweeps.append((key, csv_name, [(v, _load_run_config(args, True, **{key: v})) for v in values]))
    out = Path(rc.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # The base config's point sits on every axis whose grid holds its value; it trains once.
    scored = []  # (RunConfig, (psnr, ssim)) of each run trained so far
    for key, csv_name, points in sweeps:
        rows = []
        for value, sub in points:
            score = next((ps for done, ps in scored if done == sub), None)
            if score is None:
                score = final_metrics(run_experiment(sub, out_dir=None)[1])
                scored.append((sub, score))
            p, s = score
            rows.append((value, p, s))
            print(f"ablate: {key}={value} -> psnr {p:.3f} dB, ssim {s:.4f}")
        write_csv(out / csv_name, (key, "psnr", "ssim"), rows)
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dgpcyclegan",
        description="GP-supervised unpaired translation: verification, training, evaluation, ablations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run oracle and property suites")
    p_verify.add_argument("--suite", default=None, help="run a single suite by name")

    def add_common(p, flags=FLAGS):
        p.add_argument("--config", default=None, help="path to key = value config file")
        for flag in flags:
            p.add_argument(flag, dest=FLAGS[flag], help=f"sets config key {FLAGS[flag]}")

    p_train = sub.add_parser("train", help="train on the synthetic desk-scale task")
    add_common(p_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on held-out pairs")
    add_common(p_eval, ["--seed"])
    p_eval.add_argument("--ckpt", required=True, help="checkpoint file")
    p_eval.add_argument("--out", default=None, help="directory for eval.csv")

    p_ablate = sub.add_parser("ablate", help="sweep depth, neighbor count and pseudo weight")
    add_common(p_ablate)
    p_ablate.add_argument("--axis", default="all", choices=["all", *AXES])
    for axis, (flag, key, _, _) in AXES.items():
        p_ablate.add_argument(flag, dest=axis, help=f"comma list of {key} values")
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
