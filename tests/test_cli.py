import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dgpcyclegan import gp_supervisor, trainer, verify
from dgpcyclegan.cli import build_run_config, main, parse_config_file
from dgpcyclegan.errors import ConfigError, NotPositiveDefinite
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
eval_interval = 1
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


def test_config_dgp_off_forces_lambda_zero():
    rc = build_run_config({"dgp": "off", "lambda_p": "0.5"})
    assert rc.train.dgp_enabled is False
    assert rc.train.lambda_p == 0.0


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
        ("noise_var = -1", "noise_var"),
        ("tap_s = 3\ntap_z = 2", "tap_s"),
        ("gen_hidden = 16", "gen_hidden"),
        ("n_train = 0", "n_train"),
        ("n_eval = 0", "n_eval"),
        ("eval_interval = 0", "eval_interval"),
        ("checkpoint_interval = 0", "checkpoint_interval"),
        ("img_side = 8", "img_side"),
        ("seed = -1", "seed"),
        ("data_seed = -2", "data_seed"),
        ("lr = 0", "lr"),
        ("lr = nan", "lr"),
        ("lambda_p = inf", "lambda_p"),
        ("kernel_beta = inf", "kernel_beta"),
        ("streak_amplitude = nan", "streak_amplitude"),
        ("streak_count = -3", "streak_count"),
        ("streak_amplitude = -0.5", "streak_amplitude"),
        ("streak_width = 0", "streak_width"),
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


# --- verify command ----------------------------------------------------------


def test_verify_single_suite_passes(capsys):
    assert main(["verify", "--suite", "metrics"]) == 0
    out = capsys.readouterr().out
    assert "metrics" in out and "pass" in out
    assert "linalg" not in out  # only the requested suite ran


def test_verify_unknown_suite(capsys):
    assert main(["verify", "--suite", "nonsense"]) == 2


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
    rows, summary = lines[:-1], lines[-1]
    failed = [r for r in rows if "  FAIL  " in r]
    assert len(failed) == 1 and "brute-force oracle equivalence" in failed[0]
    assert "raised NotPositiveDefinite: injected" in failed[0]
    # the checks after it in its suite and every later suite still report
    assert any("permutation invariance" in r and "  pass  " in r for r in rows)
    assert any("degradation additivity" in r and "  pass  " in r for r in rows)
    assert sum("  pass  " in r for r in rows) == len(rows) - 1
    assert summary == "verify: FAILED suites: gp"


# --- train command -----------------------------------------------------------


def test_train_missing_out_dir(fast_config, capsys):
    assert main(["train", "--config", str(fast_config)]) == 2
    assert "out_dir" in capsys.readouterr().err


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
    ],
    ids=["layers-0", "lambdas-negative", "neighbors-not-int", "all-axes-lambdas-nan"],
)
def test_ablate_refuses_unusable_grid_value(fast_config, tmp_path, capsys, flags, key):
    out = tmp_path / "abl"
    assert main(["ablate", "--config", str(fast_config), "--out", str(out), *flags]) == 2
    assert key in capsys.readouterr().err
    assert not list(out.glob("summary_*.csv"))
