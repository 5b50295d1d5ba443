import inspect
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dgpcyclegan import cli, gp_supervisor, native, trainer, verify
from dgpcyclegan.cli import CONFIG_DEFAULTS, CONFIG_SCHEMA, build_run_config, main, parse_config_file
from dgpcyclegan.errors import ConfigError, NotPositiveDefinite
from dgpcyclegan.nets import Discriminator, save_checkpoint
from dgpcyclegan_console import BLAS_THREAD_VARS

FAST_KEYS = """
# desk-scale but tiny, for command tests
seed = 3
epochs = 2
n_train = 8
n_eval = 2
img_side = 16
gen_hidden = 16,8,8,16
disc_hidden = 8
n_neighbors = 4
streak_count = 4
checkpoint_interval = 2
sample_count = 1
"""


@pytest.fixture()
def fast_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(FAST_KEYS)
    return path


# --- config parsing ----------------------------------------------------------


def test_config_roundtrip(fast_config):
    raw = parse_config_file(fast_config)
    rc = build_run_config(raw)
    assert rc.train.seed == 3
    assert rc.train.epochs == 2
    assert rc.train.gen_hidden == (16, 8, 8, 16)
    assert rc.n_train == 8


def test_config_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("not_a_key = 1\n")
    with pytest.raises(ConfigError, match="not_a_key"):
        parse_config_file(path)


def test_config_bad_value_rejected():
    with pytest.raises(ConfigError, match="epochs"):
        build_run_config({"epochs": "three"})


def test_config_flag_overrides_file(fast_config):
    raw = parse_config_file(fast_config)
    rc = build_run_config(raw, {"seed": 99})
    assert rc.train.seed == 99


def test_config_dgp_off_keeps_lambda_as_written():
    rc = build_run_config({"dgp": "off", "lambda_p": "0.5"})
    assert rc.train.dgp_enabled is False
    assert rc.train.lambda_p == 0.5


def test_readme_defaults_block_is_the_schema_defaults(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    path = tmp_path / "readme.cfg"
    path.write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0])
    raw = parse_config_file(path)
    assert raw.keys() == CONFIG_SCHEMA.keys()
    assert raw.pop("out_dir") == ""
    monkeypatch.delenv("DGP_SEED", raising=False)
    assert build_run_config(raw) == build_run_config({})


def test_train_run_output_defaults_are_the_config_defaults():
    params = inspect.signature(trainer.train_run).parameters
    for key in ("checkpoint_interval", "sample_count"):
        assert params[key].default == CONFIG_DEFAULTS[key]


def test_seed_env_fallback(monkeypatch):
    monkeypatch.setenv("DGP_SEED", "1234")
    rc = build_run_config({})
    assert rc.train.seed == 1234
    monkeypatch.delenv("DGP_SEED")
    assert build_run_config({}).train.seed == 0


def test_seed_env_must_be_an_integer(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DGP_SEED", "abc")
    path = tmp_path / "noseed.cfg"
    path.write_text(FAST_KEYS.replace("seed = 3\n", ""))
    out = tmp_path / "run"
    assert main(["train", "--config", str(path), "--out", str(out)]) == 2
    assert "DGP_SEED" in capsys.readouterr().err
    assert not (out / "metrics.csv").exists()


@pytest.mark.parametrize(
    "lines, key",
    [
        ("epochs = 0", "epochs"),
        ("lambda_p = -1", "lambda_p"),
        ("kernel_family = foo", "kernel_family"),
        ("kernel_gamma = 0", "kernel_gamma"),
        ("kernel_gamma = 1e-300", "kernel_gamma"),
        ("noise_var = -1", "noise_var"),
        ("tap_s = 3\ntap_z = 2", "tap_s"),
        ("gen_hidden = 16", "gen_hidden"),
        ("n_train = 0", "n_train"),
        ("n_eval = 0", "n_eval"),
        ("eval_interval = 1", "eval_interval"),  # not a key: unknown config key
        ("checkpoint_interval = 0", "checkpoint_interval"),
        ("img_side = 8", "img_side"),
        ("seed = -1", "seed"),
        ("data_seed = -2", "data_seed"),
        ("lr = 0", "lr"),
        ("lr = nan", "lr"),
        ("lambda_p = inf", "lambda_p"),
        ("kernel_beta = inf", "kernel_beta"),
        ("kernel_beta = 1e160", "kernel_beta"),  # beta**2 overflows
        ("kernel_beta = 1.3e154", "kernel_beta"),  # the sigma^2 mean overflows
        ("noise_var = 1e308", "noise_var"),  # the sigma^2 mean overflows
        ("streak_amplitude = nan", "streak_amplitude"),
        ("streak_count = -3", "streak_count"),
        ("streak_amplitude = -0.5", "streak_amplitude"),
        ("streak_width = 0", "streak_width"),
        ("sample_count = -1", "sample_count"),
    ],
)
def test_train_refuses_unusable_value(fast_config, tmp_path, capsys, lines, key):
    path = tmp_path / "bad.cfg"
    path.write_text(fast_config.read_text() + lines + "\n")
    out = tmp_path / "run"
    assert main(["train", "--config", str(path), "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not (out / "metrics.csv").exists()


def test_train_refuses_negative_seed_flag(fast_config, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train", "--config", str(fast_config), "--out", str(out), "--seed", "-1"]) == 2
    assert "seed must be at least 0" in capsys.readouterr().err
    assert not (out / "metrics.csv").exists()


@pytest.mark.parametrize(
    "command, flag, text",
    [
        ("train", "--seed", "x"),
        ("train", "--epochs", "1.5"),
        ("train", "--lambda-p", "x"),
        ("train", "--neighbors", "2.5"),
        ("train", "--gp-depth", "x"),
        ("eval", "--seed", "x"),
    ],
)
def test_bad_flag_value_is_a_config_error(fast_config, tmp_path, capsys, command, flag, text):
    # A flag's text is converted like its key's file value, not by the argument parser.
    out = tmp_path / "run"
    where = ["--out", str(out)] if command == "train" else ["--ckpt", str(tmp_path / "none.bin")]
    assert main([command, "--config", str(fast_config), *where, flag, text]) == 2
    assert f"config error: bad value for {flag}: {text!r}" in capsys.readouterr().err
    assert not out.exists()


# --- verify command ----------------------------------------------------------


def test_verify_single_suite_passes(capsys):
    assert main(["verify", "--suite", "metrics"]) == 0
    out = capsys.readouterr().out
    assert "metrics" in out and "pass" in out
    assert "linalg" not in out  # only the requested suite ran


def test_verify_unknown_suite(capsys):
    assert main(["verify", "--suite", "nonsense"]) == 2


NETS_LIVE = dict(nets_forward=object(), nets_backward=object(), nets_grads=object())
NO_BLAS = "numpy has no bundled OpenBLAS with scipy_cblas_dgemm64_"


@pytest.mark.parametrize("lib, error, line", [
    (native.Native(object(), object(), (object(), object()), **NETS_LIVE), None,
     "native: adam_step, knn_select, gram, nets_forward, nets_backward, nets_grads"),
    (native.Native(), "cc: not found",
     "native: none; numpy: adam_step, knn_select, gram, nets_forward, nets_backward, nets_grads (cc: not found)"),
    (native.Native(adam_step=object()), None,
     "native: adam_step; numpy: knn_select, gram, nets_forward, nets_backward, nets_grads"),
    (native.Native(object(), object(), (object(), object())), NO_BLAS,
     f"native: adam_step, knn_select, gram; numpy: nets_forward, nets_backward, nets_grads ({NO_BLAS})"),
], ids=["built", "failed", "gp forced off", "no blas"])
def test_verify_names_the_live_native_paths(monkeypatch, capsys, lib, error, line):
    monkeypatch.setattr(native, "lib", lib)
    monkeypatch.setattr(native, "error", error)
    assert main(["verify", "--suite", "metrics"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == line


@pytest.mark.skipif(native.lib.nets_forward is None, reason=f"the nets passes are not live: {native.error}")
@pytest.mark.parametrize("found", [[], ["libc.so.6"]], ids=["no OpenBLAS", "no CBLAS symbols"])
def test_a_missing_numpy_blas_leaves_only_the_nets_passes_on_numpy(monkeypatch, capsys, found):
    monkeypatch.setattr(native.glob, "glob", lambda pattern: found)
    lib, error = native.build()
    assert lib.adam_step and lib.knn_select and lib.gram
    assert (lib.nets_forward, lib.nets_backward, lib.nets_grads) == (None, None, None)
    assert "scipy_cblas_dgemm64_" in error and "\n" not in error
    monkeypatch.setattr(native, "lib", lib)
    monkeypatch.setattr(native, "error", error)
    assert main(["verify", "--suite", "metrics"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        f"native: adam_step, knn_select, gram; numpy: nets_forward, nets_backward, nets_grads ({error})")


def test_verify_names_numpy_and_the_blas_core(monkeypatch, capsys):
    assert main(["verify", "--suite", "metrics"]) == 0
    core = native.blas_core()
    assert core and "\n" not in core
    assert capsys.readouterr().out.splitlines()[1] == f"numpy {np.__version__}, BLAS core {core}"
    # A library without the symbol, or none at all, reads "unknown".
    for found in (["libc.so.6"], []):
        monkeypatch.setattr(native.glob, "glob", lambda pattern: found)
        assert native.blas_core() == "unknown"


def test_verify_detects_injected_sign_flip(monkeypatch, capsys):
    # Mutation check: a sign-flipped gradient must fail the grads suite.
    true_grad = gp_supervisor.pseudo_loss_grad
    monkeypatch.setattr(gp_supervisor, "pseudo_loss_grad", lambda post, z: -true_grad(post, z))
    assert main(["verify", "--suite", "grads"]) == 1
    out = capsys.readouterr().out
    assert "FAILED suites: grads" in out


def test_verify_reports_a_raising_check_and_runs_the_rest(monkeypatch, capsys):
    def raising(*args):
        raise NotPositiveDefinite("injected")

    monkeypatch.setattr(verify, "brute_force_condition", raising)
    assert main(["verify"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("native: ") and lines[1].startswith("numpy ")
    rows, summary = lines[2:-1], lines[-1]
    failed = [r for r in rows if "  FAIL  " in r]
    assert len(failed) == 1 and "brute-force oracle equivalence" in failed[0]
    assert "raised NotPositiveDefinite: injected" in failed[0]
    # the checks after it in its suite and every later suite still report
    assert any("permutation invariance" in r and "  pass  " in r for r in rows)
    assert any("degradation additivity" in r and "  pass  " in r for r in rows)
    assert sum("  pass  " in r for r in rows) == len(rows) - 1
    assert summary == "verify: FAILED suites: gp"


# --- train command -----------------------------------------------------------


def test_train_missing_out_dir(fast_config, tmp_path, capsys, monkeypatch):
    # No out_dir key, and the README defaults block's empty `out_dir =` line:
    # both are refused, and nothing is written to the working directory.
    empty = tmp_path / "empty_out.cfg"
    empty.write_text(FAST_KEYS + "out_dir =\n")
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    for config in (fast_config, empty):
        assert main(["train", "--config", str(config)]) == 2
        assert "out_dir" in capsys.readouterr().err
    assert not list(cwd.iterdir())


def test_train_missing_config_file(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]) == 2


def test_train_writes_expected_outputs(fast_config, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train", "--config", str(fast_config), "--out", str(out)]) == 0
    assert (out / "metrics.csv").exists()
    assert (out / "ckpt_1.bin").exists()
    assert (out / "sample_0_0.pgm").exists()
    header = (out / "metrics.csv").read_text().splitlines()[0]
    assert header.startswith("epoch,lr,cyc_w")


def test_train_stops_on_a_non_finite_loss(fast_config, tmp_path, capsys, monkeypatch):
    # NaN in the weather-to-clean output bias: the first step's losses are NaN.
    real_init_state = trainer.init_state
    made = []

    def nets_of(state):
        return state.gen_wc, state.gen_cw, state.disc_c, state.disc_w

    def nan_state(config):
        state = real_init_state(config)
        state.gen_wc.params[-1] = np.nan
        made.append((state, [net.params.copy() for net in nets_of(state)]))
        return state

    monkeypatch.setattr(trainer, "init_state", nan_state)
    out = tmp_path / "nan"
    assert main(["train", "--config", str(fast_config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: loss term cyc_w is nan at epoch 0, step 0\n"
    (state, before), = made
    assert all(np.array_equal(net.params, p, equal_nan=True) for net, p in zip(nets_of(state), before))
    assert all(opt.t == 0 for opt in state.opt.values())
    assert not (out / "metrics.csv").exists()


def test_train_names_the_epoch_after_the_first_in_a_stop_message(fast_config, tmp_path, capsys, monkeypatch):
    # NaN in the weather-to-clean output bias once epoch 0 has ended: epoch 1's first step stops.
    real_train_epoch = trainer.train_epoch
    steps_of_epoch_0 = []

    def nan_before_epoch_1(state, data, config):
        if len(state.history) == 1:
            state.gen_wc.params[-1] = np.nan
            steps_of_epoch_0.append(state.step)
        return real_train_epoch(state, data, config)

    monkeypatch.setattr(trainer, "train_epoch", nan_before_epoch_1)
    out = tmp_path / "nan"
    assert main(["train", "--config", str(fast_config), "--out", str(out)]) == 1
    assert steps_of_epoch_0 == [4]  # 8 pairs in batches of 2
    assert capsys.readouterr().err == "error: loss term cyc_w is nan at epoch 1, step 4\n"
    assert not (out / "metrics.csv").exists()


@pytest.mark.filterwarnings("error")
def test_train_stops_on_a_non_finite_gradient(tmp_path, capsys):
    # lambda_p = 1e300 keeps every loss term finite, but the generators'
    # gradients square past the float range; Adam would freeze both nets.
    # The error line is all of stderr, and no numpy warning is raised.
    path = tmp_path / "run.cfg"
    path.write_text("n_train = 20\nepochs = 2\n")
    out = tmp_path / "huge"
    assert main(["train", "--config", str(path), "--out", str(out), "--lambda-p", "1e300"]) == 1
    assert capsys.readouterr().err == "error: gradient of gen_wc has squared norm inf at epoch 0, step 0\n"
    assert not (out / "metrics.csv").exists()


ROOT = Path(__file__).resolve().parents[1]

# Records the BLAS thread variables at the moment numpy is first imported.
CONSOLE_PROBE = """
import os, sys
names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
seen = []

class NumpySpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append([os.environ.get(v) for v in names])

sys.meta_path.insert(0, NumpySpy())
if sys.argv[1] == "console":
    import dgpcyclegan_console
    assert "numpy" not in sys.modules
    sys.argv = ["dgpcyclegan", "--help"]
    try:
        dgpcyclegan_console.entrypoint()
    except SystemExit:
        pass
else:
    import dgpcyclegan
print(seen[0], [os.environ.get(v) for v in names])
"""


@pytest.mark.parametrize("user_omp", [None, "3"])
def test_console_command_defaults_blas_threads_before_numpy(user_omp):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
    if user_omp is not None:
        env["OMP_NUM_THREADS"] = user_omp

    def probe(mode):
        done = subprocess.run([sys.executable, "-c", CONSOLE_PROBE, mode], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        return done.stdout.splitlines()[-1]  # after the usage text of --help

    omp = user_omp or "1"
    assert probe("console") == f"['1', '{omp}', '1'] ['1', '{omp}', '1']"
    # Importing the library leaves the variables as the user set them.
    assert probe("library") == f"[None, {user_omp!r}, None] [None, {user_omp!r}, None]"
    assert 'dgpcyclegan = "dgpcyclegan_console:entrypoint"' in (ROOT / "pyproject.toml").read_text()


def test_train_seed_repeatable(fast_config, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["train", "--config", str(fast_config), "--out", str(out_a), "--seed", "7"]) == 0
    assert main(["train", "--config", str(fast_config), "--out", str(out_b), "--seed", "7"]) == 0
    assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()


def test_train_dgp_off_reports_zero_pseudo(fast_config, tmp_path):
    out = tmp_path / "off"
    assert main(["train", "--config", str(fast_config), "--out", str(out), "--dgp", "off"]) == 0
    rows = (out / "metrics.csv").read_text().splitlines()
    cols = rows[0].split(",")
    first = rows[1].split(",")
    assert float(first[cols.index("p_fwd")]) == 0.0
    assert float(first[cols.index("p_rev")]) == 0.0


def test_train_dgp_off_ignores_lambda(fast_config, tmp_path):
    # Without banks the pseudo terms are exact zeros and inject no gradient, whatever lambda_p is.
    outs = [tmp_path / "half", tmp_path / "zero"]
    for out, lam in zip(outs, ("0.5", "0")):
        assert main(["train", "--config", str(fast_config), "--out", str(out), "--dgp", "off", "--lambda-p", lam]) == 0
    for name in ("metrics.csv", "ckpt_1.bin"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


# --- eval command ------------------------------------------------------------


def test_eval_on_checkpoint(fast_config, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train", "--config", str(fast_config), "--out", str(out)]) == 0
    capsys.readouterr()
    code = main(["eval", "--config", str(fast_config), "--ckpt", str(out / "ckpt_1.bin"), "--out", str(out)])
    assert code == 0
    assert "psnr" in capsys.readouterr().out
    lines = (out / "eval.csv").read_text().splitlines()
    assert lines[0] == "pair,psnr,ssim" and len(lines) == 3
    for line in lines[1:]:
        for field in line.split(","):
            float(field)


def test_eval_refuses_a_checkpoint_of_another_image_size(fast_config, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train", "--config", str(fast_config), "--out", str(out)]) == 0
    capsys.readouterr()
    other = tmp_path / "other.cfg"
    other.write_text(FAST_KEYS.replace("img_side = 16", "img_side = 12"))
    assert main(["eval", "--config", str(other), "--ckpt", str(out / "ckpt_1.bin"), "--out", str(tmp_path / "ev")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: img_side = 12") and "144" in err and "256" in err
    assert not (tmp_path / "ev").exists()


def test_eval_refuses_a_checkpoint_whose_gen_wc_is_not_a_generator(tmp_path, capsys):
    path = tmp_path / "disc.bin"
    save_checkpoint(path, {"gen_wc": Discriminator(1024, hidden=(4,))})
    assert main(["eval", "--ckpt", str(path)]) == 2
    assert "has no weather-to-clean generator" in capsys.readouterr().err


def checkpoint_bytes(name: bytes, kind: int, widths, taps, n_params: int) -> bytes:
    """A one-net DGPCKPT1 file with the given header fields and n_params zero parameters."""
    return (b"DGPCKPT1" + struct.pack("<IQI", 1, 0, len(name)) + name
            + struct.pack(f"<BI{len(widths)}Iii", kind, len(widths), *widths, *taps)
            + struct.pack("<Q", n_params) + bytes(8 * n_params))


@pytest.mark.parametrize(
    "name, kind, widths, taps, n_params",
    [
        (b"gen_wc", 0, (4, 3, 2, 3, 4), (3, 1), 48),  # taps out of order
        (b"gen_wc", 0, (4, 3, 0, 3, 4), (1, 2), 34),  # a zero width
        (b"\xff\xfe", 0, (4, 3, 2, 3, 4), (1, 2), 48),  # a name that is not utf-8
        (b"gen_wc", 0, (3_000_000_000, 3, 2, 3, 3_000_000_000), (1, 2), 1),  # widths imply 2.1e10 params
    ],
    ids=["taps", "zero-width", "name", "huge-widths"],
)
def test_eval_refuses_a_malformed_checkpoint(tmp_path, capsys, name, kind, widths, taps, n_params):
    path = tmp_path / "bad.bin"
    path.write_bytes(checkpoint_bytes(name, kind, widths, taps, n_params))
    assert main(["eval", "--ckpt", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


def test_train_and_eval_do_not_load_the_oracle_module():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    code = "import sys, dgpcyclegan.cli; print('dgpcyclegan.verify' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


# --- ablate command ----------------------------------------------------------


def test_ablate_default_grid_writes_three_summaries(fast_config, tmp_path):
    out = tmp_path / "abl"
    code = main([
        "ablate", "--config", str(fast_config), "--out", str(out),
        "--layers", "1", "--neighbors-grid", "4", "--lambdas", "0.03",
    ])
    assert code == 0
    for name in ("summary_L.csv", "summary_Nn.csv", "summary_lambda_p.csv"):
        lines = (out / name).read_text().splitlines()
        assert len(lines) == 2  # header + one grid point
        assert len(lines[1].split(",")) == 3  # value, psnr, ssim


def test_ablate_trains_the_base_point_once(fast_config, tmp_path, monkeypatch):
    # The base config (n_neighbors = 4, lambda_p = 0.03) is the Nn and the lambda point.
    real_run_experiment = cli.run_experiment
    calls = []

    def counting(rc, out_dir=None):
        calls.append(rc)
        return real_run_experiment(rc, out_dir)

    monkeypatch.setattr(cli, "run_experiment", counting)
    out = tmp_path / "abl"
    code = main([
        "ablate", "--config", str(fast_config), "--out", str(out),
        "--layers", "1", "--neighbors-grid", "4", "--lambdas", "0.03",
    ])
    assert code == 0
    assert len(calls) == 2
    nn_row, lam_row = ((out / name).read_text().splitlines()[1].split(",")
                       for name in ("summary_Nn.csv", "summary_lambda_p.csv"))
    assert nn_row[1:] == lam_row[1:]


def test_ablate_single_point_matches_train(fast_config, tmp_path):
    out = tmp_path / "abl1"
    code = main([
        "ablate", "--config", str(fast_config), "--out", str(out), "--axis", "L", "--layers", "4",
    ])
    assert code == 0
    row = (out / "summary_L.csv").read_text().splitlines()[1].split(",")
    assert row[0] == "4"
    # same config trained directly gives the same score
    out2 = tmp_path / "direct"
    assert main(["train", "--config", str(fast_config), "--out", str(out2)]) == 0
    csv_rows = (out2 / "metrics.csv").read_text().splitlines()
    cols = csv_rows[0].split(",")
    psnrs = [float(r.split(",")[cols.index("psnr")]) for r in csv_rows[1:]]
    assert abs(float(row[1]) - float(np.mean(psnrs[-5:]))) < 1e-12


@pytest.mark.parametrize(
    "flags, key",
    [
        (["--axis", "L", "--layers", "0"], "gp_depth"),
        (["--axis", "lambda", "--lambdas=-1"], "lambda_p"),
        (["--axis", "neighbors", "--neighbors-grid", "x"], "n_neighbors"),
        (["--layers", "1", "--neighbors-grid", "4", "--lambdas", "0.03,nan"], "lambda_p"),
        (["--axis", "L", "--layers", ","], "gp_depth"),
    ],
    ids=["layers-0", "lambdas-negative", "neighbors-not-int", "all-axes-lambdas-nan", "layers-no-points"],
)
def test_ablate_refuses_unusable_grid_value(fast_config, tmp_path, capsys, flags, key):
    out = tmp_path / "abl"
    assert main(["ablate", "--config", str(fast_config), "--out", str(out), *flags]) == 2
    assert key in capsys.readouterr().err
    assert not list(out.glob("summary_*.csv"))
