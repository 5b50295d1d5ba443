"""Output checks of one benchmark training run.

Each check returns a list of failure messages; an empty list means it passed.
The benchmark counts them and reports `correct: false` when any is non-empty.
"""

from __future__ import annotations

import contextlib
import inspect
import math
from pathlib import Path

import numpy as np

from dgpcyclegan import verify

from spans import patched

# Column order documented for metrics.csv in the README.
METRICS_HEADER = "epoch,lr,cyc_w,cyc_c,adv_fwd,adv_rev,identity,p_fwd,p_rev,total,mean_sigma2,psnr,ssim"
LOSS_COLUMNS = ("cyc_w", "cyc_c", "adv_fwd", "adv_rev", "identity", "p_fwd", "p_rev", "total")

# Criterion 1's tolerance for gp_condition against the brute-force oracle.
ORACLE_TOL = 1e-8


def read_metrics_csv(path: Path, epochs: int, gp: bool):
    """(failures, rows as dicts of floats) for a run's metrics.csv."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        return [f"metrics.csv unreadable: {exc}"], None
    if not lines or lines[0] != METRICS_HEADER:
        return [f"metrics.csv header {lines[:1]!r} is not the documented one"], None
    columns = METRICS_HEADER.split(",")
    try:
        rows = [dict(zip(columns, map(float, line.split(",")), strict=True)) for line in lines[1:]]
    except ValueError as exc:
        return [f"metrics.csv has a malformed row: {exc}"], None
    fails = []
    if [int(r["epoch"]) for r in rows] != list(range(epochs)):
        fails.append(f"metrics.csv has epochs {[r['epoch'] for r in rows]}, expected 0..{epochs - 1}")
    for r in rows:
        bad = [c for c in LOSS_COLUMNS + ("psnr", "ssim") if not math.isfinite(r[c])]
        if math.isfinite(r["mean_sigma2"]) != gp:
            bad.append("mean_sigma2")
        if bad:
            fails.append(f"metrics.csv epoch {r['epoch']:.0f}: unexpected values in {bad}")
    return fails, rows or None


def _csv_float(token: str) -> float:
    # cmd_eval writes some values through repr() of a numpy scalar.
    return float(token.removeprefix("np.float64(").removesuffix(")"))


def check_eval_reproduces(eval_csv: Path, last_row) -> list:
    """Mean PSNR/SSIM of `eval` on the final checkpoint equal the last epoch's."""
    try:
        lines = eval_csv.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        return [f"eval.csv unreadable: {exc}"]
    rows = [line.split(",") for line in lines[1:]]
    if lines[:1] != ["pair,psnr,ssim"] or not rows:
        return ["eval.csv has no pair,psnr,ssim rows"]
    fails = []
    for col, name in ((1, "psnr"), (2, "ssim")):
        mean = float(np.mean([_csv_float(r[col]) for r in rows]))
        if mean != last_row[name]:
            fails.append(f"eval {name} {mean!r} != last epoch {last_row[name]!r}")
    return fails


@contextlib.contextmanager
def sample_posteriors(owner, every: int):
    """Keep inputs and output of every `every`-th owner.gp_condition call.

    Yields the list of (spec, s_rows, z_rows, query_s, mean, variance)
    samples; a call that conditions a stack of queries gives one per row.
    """
    samples = []
    calls = [0]

    def make(fn):
        sig = inspect.signature(fn)

        def sampled(*args, **kwargs):
            post = fn(*args, **kwargs)
            calls[0] += 1
            if (calls[0] - 1) % every == 0:
                a = sig.bind(*args, **kwargs).arguments
                bank = a["bank"]
                ids = np.atleast_2d(a["neighbor_ids"])
                queries = np.atleast_2d(a["query_s"])
                means = np.atleast_2d(post.pseudo_label)
                variances = np.atleast_1d(post.variance)
                for row, q, mean, var in zip(ids, queries, means, variances):
                    samples.append((a["spec"], bank.s[row].copy(), bank.z[row].copy(),
                                    q.copy(), mean.copy(), float(var)))
            return post

        return sampled

    with patched(owner, "gp_condition", make):
        yield samples


def check_posteriors(samples) -> list:
    """Sampled posteriors against verify.brute_force_condition."""
    if not samples:
        return ["no gp_condition call was sampled"]
    worst = 0.0
    for spec, s_rows, z_rows, q, mean, var in samples:
        ref_mean, ref_var = verify.brute_force_condition(spec, s_rows, z_rows, q)
        rel_mean = np.linalg.norm(mean - ref_mean) / max(np.linalg.norm(ref_mean), 1e-300)
        rel_var = abs(var - ref_var) / max(abs(ref_var), 1e-300)
        worst = max(worst, rel_mean, rel_var)
    if not worst <= ORACLE_TOL:
        return [f"gp_condition differs from the brute-force oracle by {worst:.3e} (> {ORACLE_TOL:g})"]
    return []
