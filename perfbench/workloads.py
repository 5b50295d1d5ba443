"""Workload configs, the functions each run wraps, and the metrics read from spans.

Every workload trains through the public `train` command with a plain
`key = value` config of documented keys; the workload seed goes in as
`--seed`, and the program generates its own synthetic data from it.
"""

from __future__ import annotations

import os

import numpy as np

from dgpcyclegan import cli, gp_supervisor, linalg, nets, trainer, verify

from spans import Target

# Epochs per training run: long enough that an epoch's bank build, steps,
# evaluation and output writes all repeat, short enough that two runs with
# the same seed fit in one measured window, which the determinism check needs.
EPOCHS = 2

# Base keys shared by every workload.  checkpoint_interval above EPOCHS means
# only the final epoch writes a checkpoint, the one the eval check reloads.
_BASE = {"epochs": EPOCHS, "checkpoint_interval": 10, "sample_count": 3}

WORKLOADS = {
    # The paper arm with the default desk config: nets and Adam dominate,
    # the GP path is a small share, plus a bank build and an eval per epoch.
    "desk_dgp": {**_BASE, "dgp": "on"},
    # Same config without the supervisor: no bank, kNN, kernel or Cholesky
    # work at all, so a GP-side change must leave it unmoved.
    "desk_plain": {**_BASE, "dgp": "off"},
    # Small nets and a large bank: about 40 % of self time in linalg,
    # kernels and gp_supervisor, and the query-gradient path that
    # refactorises the Gram matrix.
    "gp_wide": {
        **_BASE,
        "dgp": "on",
        "img_side": 16,
        "n_train": 400,
        "n_neighbors": 64,
        "grad_through_query": "on",
    },
}


def config_text(workload: str) -> str:
    return "".join(f"{k} = {v}\n" for k, v in WORKLOADS[workload].items())


def uses_gp(workload: str) -> bool:
    return WORKLOADS[workload]["dgp"] == "on"


# --- wrapped functions ----------------------------------------------------------


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


def _rows_in(args, kwargs, result):
    """Rows a network call processes: input size over the net's input width."""
    net = args[0]
    return np.size(args[1]) // net.widths[0]


def _rows_out(args, kwargs, result):
    net = args[0]
    return np.size(args[2]) // net.widths[-1]


def _step_pairs(args, kwargs, result):
    batch = _arg(args, kwargs, 0, "iw_batch")
    return len(batch) if isinstance(batch, (list, tuple)) else 1


def _step_finite(args, kwargs, result):
    return bool(np.isfinite(result.total))


def _bank_rows(args, kwargs, result):
    return len(result)


def _knn_rows(args, kwargs, result):
    return len(_arg(args, kwargs, 0, "bank"))


def _gram_entries(args, kwargs, result):
    return np.size(result)


def _jitter_retries(args, kwargs, result):
    return linalg.JITTER_LADDER.index(result.jitter_used)


def _adam_params(args, kwargs, result):
    return np.size(result)


def _file_bytes(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


# Always wrapped: they give the end-to-end step, epoch and setup timings.
TIMING_TARGETS = (
    Target(cli, "train_run", "trainer.train_run"),
    Target(trainer, "lr_at", "trainer.epoch", marker=True),
    Target(trainer, "train_step", "trainer.step", units=_step_pairs, check=_step_finite),
)

# Wrapped in the traced run only, each at the name its caller looks up.
LAYER_TARGETS = (
    Target(cli, "build_desk_data", "cli.build_desk_data"),
    Target(cli, "cmd_eval", "cli.eval"),
    Target(cli, "make_unpaired_sets", "data_metrics.datagen"),
    Target(cli, "make_eval_pairs", "data_metrics.datagen"),
    Target(cli, "psnr", "data_metrics.psnr"),
    Target(cli, "ssim", "data_metrics.ssim"),
    Target(trainer, "init_state", "trainer.init_state"),
    Target(trainer, "generator_step_terms", "trainer.generator_terms"),
    Target(trainer, "discriminator_step_terms", "trainer.discriminator_terms"),
    Target(trainer, "evaluate", "trainer.evaluate"),
    Target(trainer, "write_metrics_csv", "trainer.write_metrics_csv"),
    Target(trainer, "psnr", "data_metrics.psnr"),
    Target(trainer, "ssim", "data_metrics.ssim"),
    Target(trainer, "write_pgm", "data_metrics.pgm_write"),
    Target(trainer, "adam_step", "nets.adam", units=_adam_params),
    Target(trainer, "save_checkpoint", "nets.checkpoint_write", units=_file_bytes),
    Target(trainer, "bank_build", "gp_supervisor.bank_build", units=_bank_rows),
    Target(trainer, "knn_select", "gp_supervisor.knn", units=_knn_rows),
    Target(trainer, "gp_condition", "gp_supervisor.condition"),
    Target(trainer, "pseudo_loss", "gp_supervisor.pseudo_loss"),
    Target(trainer, "pseudo_loss_grad", "gp_supervisor.pseudo_loss"),
    Target(trainer, "pseudo_loss_query_grad", "gp_supervisor.query_grad"),
    Target(gp_supervisor, "gram", "kernels.gram", units=_gram_entries),
    Target(gp_supervisor, "effective_kernel", "kernels.effective_kernel"),
    Target(gp_supervisor, "cholesky", "linalg.cholesky", units=_jitter_retries),
    Target(gp_supervisor, "solve_posdef", "linalg.solve"),
    Target(nets.Generator, "forward", "nets.gen_forward", units=_rows_in),
    Target(nets.Generator, "backward", "nets.gen_backward", units=_rows_out),
    Target(nets.Discriminator, "forward", "nets.disc_forward", units=_rows_in),
    Target(nets.Discriminator, "backward", "nets.disc_backward", units=_rows_out),
    Target(verify, "brute_force_condition", "verify.oracle"),
)

LAYERS = ("cli", "trainer", "nets", "gp_supervisor", "kernels", "linalg", "data_metrics", "verify")

# metric -> (span name, field of spans.NameTotals); values are per traced
# training run, its output checks included.
SPAN_METRICS = {
    "nets.gen_forward_s": ("nets.gen_forward", "total_s"),
    "nets.gen_forward_calls": ("nets.gen_forward", "calls"),
    "nets.gen_forward_rows": ("nets.gen_forward", "units"),
    "nets.gen_backward_s": ("nets.gen_backward", "total_s"),
    "nets.gen_backward_calls": ("nets.gen_backward", "calls"),
    "nets.gen_backward_rows": ("nets.gen_backward", "units"),
    "nets.disc_forward_s": ("nets.disc_forward", "total_s"),
    "nets.disc_forward_calls": ("nets.disc_forward", "calls"),
    "nets.disc_backward_s": ("nets.disc_backward", "total_s"),
    "nets.disc_backward_calls": ("nets.disc_backward", "calls"),
    "nets.adam_s": ("nets.adam", "total_s"),
    "nets.adam_calls": ("nets.adam", "calls"),
    "nets.adam_params": ("nets.adam", "units"),
    "nets.checkpoint_write_s": ("nets.checkpoint_write", "total_s"),
    "nets.checkpoint_write_bytes": ("nets.checkpoint_write", "units"),
    "trainer.step_self_s": ("trainer.step", "self_s"),
    "trainer.generator_terms_self_s": ("trainer.generator_terms", "self_s"),
    "trainer.discriminator_terms_self_s": ("trainer.discriminator_terms", "self_s"),
    "trainer.epoch_self_s": ("trainer.epoch", "self_s"),
    "trainer.evaluate_s": ("trainer.evaluate", "total_s"),
    "trainer.init_state_s": ("trainer.init_state", "total_s"),
    "gp_supervisor.bank_build_s": ("gp_supervisor.bank_build", "total_s"),
    "gp_supervisor.bank_build_rows": ("gp_supervisor.bank_build", "units"),
    "gp_supervisor.knn_s": ("gp_supervisor.knn", "total_s"),
    "gp_supervisor.knn_calls": ("gp_supervisor.knn", "calls"),
    "gp_supervisor.knn_rows_scanned": ("gp_supervisor.knn", "units"),
    "gp_supervisor.condition_self_s": ("gp_supervisor.condition", "self_s"),
    "gp_supervisor.condition_calls": ("gp_supervisor.condition", "calls"),
    "gp_supervisor.query_grad_self_s": ("gp_supervisor.query_grad", "self_s"),
    "gp_supervisor.query_grad_calls": ("gp_supervisor.query_grad", "calls"),
    "gp_supervisor.pseudo_loss_s": ("gp_supervisor.pseudo_loss", "total_s"),
    "kernels.gram_s": ("kernels.gram", "total_s"),
    "kernels.gram_calls": ("kernels.gram", "calls"),
    "kernels.gram_entries": ("kernels.gram", "units"),
    "linalg.cholesky_s": ("linalg.cholesky", "total_s"),
    "linalg.cholesky_calls": ("linalg.cholesky", "calls"),
    "linalg.jitter_retries": ("linalg.cholesky", "units"),
    "linalg.solve_s": ("linalg.solve", "total_s"),
    "linalg.solve_calls": ("linalg.solve", "calls"),
    "data_metrics.ssim_s": ("data_metrics.ssim", "total_s"),
    "data_metrics.psnr_s": ("data_metrics.psnr", "total_s"),
    "data_metrics.eval_pairs": ("data_metrics.psnr", "calls"),
    "data_metrics.datagen_s": ("data_metrics.datagen", "total_s"),
    "data_metrics.pgm_write_s": ("data_metrics.pgm_write", "total_s"),
    "data_metrics.pgm_write_files": ("data_metrics.pgm_write", "calls"),
    "cli.build_desk_data_s": ("cli.build_desk_data", "total_s"),
    "cli.eval_s": ("cli.eval", "total_s"),
    "verify.oracle_s": ("verify.oracle", "total_s"),
    "verify.oracle_calls": ("verify.oracle", "calls"),
}

# Ratios per GP query; a query is one gp_condition call.
PER_QUERY = {
    "kernels.gram_per_query": "kernels.gram",
    "linalg.cholesky_per_query": "linalg.cholesky",
}

TRACE_METRICS = (
    "trace.traced_samples_per_s",
    "trace.untraced_samples_per_s",
    "trace.overhead_pct",
    "trace.uncovered_s",
    "trace.spans",
)


def metric_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_per_query"):
        return "ratio"
    return "count"


def per_layer_names() -> list[str]:
    return [
        *SPAN_METRICS,
        *PER_QUERY,
        *(f"{layer}.self_s" for layer in LAYERS),
        *TRACE_METRICS,
    ]


def layer_metrics(totals, n_runs: int, spans, self_s) -> dict[str, float]:
    """Per-layer values per traced training run from summarised spans."""
    out = {}
    for metric, (name, field) in SPAN_METRICS.items():
        t = totals.get(name)
        out[metric] = (getattr(t, field) if t else 0) / n_runs
    queries = totals["gp_supervisor.condition"].calls if "gp_supervisor.condition" in totals else 0
    for metric, name in PER_QUERY.items():
        calls = totals[name].calls if name in totals else 0
        out[metric] = calls / queries if queries else 0.0
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(own for s, own in zip(spans, self_s) if s.layer == layer) / n_runs
    return out
