#!/usr/bin/env python3
"""Desk-training benchmark of dgpcyclegan.

    python3 perfbench/run.py --workload desk_dgp --seed 1 --seconds 40 --trace 0

Run from the repository root.  The program is imported from `src/`; nothing
is installed.  The benchmark starts worker processes one after another
(a closed loop: one training run at a time) while the next one is expected
to end within --seconds, and always at least two.  Fresh processes matter:
with the machine's speed factored out (see reference.py), what remains of
the run-to-run spread is mostly from one process to the next, so the
figures pool several.

Each worker times set-up (config, data generation, network init, up to
epoch 0) SETUP_REPEATS times by stopping `train` where epoch 0 begins, then
trains once through the public `train` command, `dgpcyclegan.cli.main`,
with the workload's config and `--seed`, and checks the outputs:
metrics.csv, `eval` on the final checkpoint, and sampled GP posteriors
against the brute-force oracle.  Workers with one seed must write
byte-identical metrics.csv files.

--trace 0 prints the end-to-end metrics.  --trace 1 makes the first worker
untraced and the rest traced: every layer function is wrapped in a span
(see spans.py and workloads.py) and the per-layer metrics are reported per
traced training run.  The last line of stdout is the JSON result.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":
    # BLAS and OpenMP pools are pinned to one thread before numpy is imported;
    # worker processes inherit the setting.
    for _var in THREAD_VARS:
        os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from reference import CALIBRATE_EVERY_S, ReferenceWork, Slowdown  # noqa: E402
from spans import SpanRecorder, covered, instrument, patched, self_times, summarize  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 4  # per worker
MIN_WORKERS = 2
# The whole invocation must end well inside 180 s.
DEADLINE_S = 170
CALIBRATE = "bench.calibrate"
# Every SAMPLE_EVERY-th gp_condition call is checked against the oracle.
SAMPLE_EVERY = 40

clock = time.perf_counter


class SetupDone(Exception):
    """Raised where epoch 0 begins, to time set-up alone."""


@dataclass
class TrainRun:
    first: int  # span range of the train call in the recorder
    last: int
    start: float
    wall_s: float  # the train call alone
    setup_s: float
    crashed: bool  # train did not finish, outside any failed step
    failures: list
    metrics_csv: str = ""
    psnr: float = float("nan")  # held-out score: mean over the last 5 epochs, as `train` reports it
    ssim: float = float("nan")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Set by the benchmark for its worker processes.
    p.add_argument("--worker-traced", type=int, choices=(0, 1), help=argparse.SUPPRESS)
    p.add_argument("--summary", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def git_sha(root: Path) -> str:
    """HEAD commit read from .git, or "unknown" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    with contextlib.suppress(OSError):
        return (git / ref).read_text().strip()
    with contextlib.suppress(OSError):
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def source_digest(pkg: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(pkg.glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()[:16]


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unavailable"
    return {
        "git_sha": git_sha(ROOT),
        "source_sha256": source_digest(SRC / "dgpcyclegan"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


class Bench:
    """One worker: set-up probes, then one training run of a workload, checked."""

    def __init__(self, workload: str, seed: int, traced: bool, work: Path):
        import checks
        import workloads as wl
        from dgpcyclegan import cli, trainer

        self.wl, self.checks, self.cli, self.trainer = wl, checks, cli, trainer
        self.workload, self.seed, self.traced = workload, seed, traced
        self.work = work
        self.gp = wl.uses_gp(workload)
        self.cfg = work / "run.cfg"
        self.cfg.write_text(wl.config_text(workload), encoding="utf-8")
        self.rec = SpanRecorder(clock)
        self.calibrate = self.rec.wrap(CALIBRATE, ReferenceWork().timed)
        self.references: list[tuple[float, float]] = []  # (start, seconds) of each timed pass
        self.runs: list[TrainRun] = []
        self.setups: list[tuple[float, float]] = []  # (start, seconds) of each set-up probe

    def _argv(self, command: str, out: Path, *extra) -> list:
        return [command, "--config", str(self.cfg), "--seed", str(self.seed), "--out", str(out), *extra]

    def _main(self, argv) -> int:
        with contextlib.redirect_stdout(sys.stderr):
            return self.cli.main(argv)

    def _reference_run(self) -> None:
        start = clock()
        self.references.append((start, self.calibrate()))

    def _calibrating(self):
        """Run the reference work before a train step once per CALIBRATE_EVERY_S."""
        due = [clock()]

        def make(fn):
            def step(*args, **kwargs):
                if clock() >= due[0]:
                    self._reference_run()
                    due[0] = clock() + CALIBRATE_EVERY_S
                return fn(*args, **kwargs)

            return step

        return patched(self.trainer, "train_step", make)

    def probe_setup(self, i: int) -> tuple[float, float]:
        reached = []

        def stop(_fn):
            def at_epoch(*args, **kwargs):
                reached.append(clock())
                raise SetupDone

            return at_epoch

        self._reference_run()
        with patched(self.trainer, "lr_at", stop):
            start = clock()
            try:
                self._main(self._argv("train", self.work / f"setup{i}"))
            except SetupDone:
                return start, reached[0] - start
        raise RuntimeError("train returned before epoch 0")

    def train_once(self, i: int) -> TrainRun:
        wl, checks, rec = self.wl, self.checks, self.rec
        out = self.work / f"run{i}"
        targets = wl.TIMING_TARGETS + (wl.LAYER_TARGETS if self.traced else ())
        with contextlib.ExitStack() as stack:
            samples = None
            if self.gp:
                samples = stack.enter_context(checks.sample_posteriors(self.trainer, SAMPLE_EVERY))
            stack.enter_context(instrument(rec, targets))
            stack.enter_context(self._calibrating())
            first = len(rec.spans)
            start = clock()
            try:
                rc = self._main(self._argv("train", out))
            except Exception:  # a crash is a counted failure, not an abort
                traceback.print_exc()
                rc = "an exception"
            wall = clock() - start
            run_spans = rec.spans[first:]
            epochs = [s for s in run_spans if s.name == "trainer.epoch"]
            step_failed = any(not s.ok for s in run_spans if s.name == "trainer.step")
            run = TrainRun(first, len(rec.spans), start, wall,
                           epochs[0].start - start if epochs else float("nan"),
                           rc != 0 and not step_failed, [])
            if rc != 0:
                run.failures.append(f"train ended with {rc}")
            else:
                self._check_outputs(run, out, samples)
        return run

    def _check_outputs(self, run: TrainRun, out: Path, samples) -> None:
        checks, epochs = self.checks, self.wl.EPOCHS
        fails, rows = checks.read_metrics_csv(out / "metrics.csv", epochs, self.gp)
        run.failures += fails
        if rows is None:
            return
        run.metrics_csv = (out / "metrics.csv").read_text(encoding="utf-8")
        run.psnr = float(np.mean([r["psnr"] for r in rows[-5:]]))
        run.ssim = float(np.mean([r["ssim"] for r in rows[-5:]]))
        ckpt = out / f"ckpt_{epochs - 1}.bin"
        rc = self._main(self._argv("eval", out / "eval", "--ckpt", str(ckpt)))
        if rc != 0:
            run.failures.append(f"eval ended with {rc}")
        else:
            run.failures += checks.check_eval_reproduces(out / "eval" / "eval.csv", rows[-1])
        if samples is not None:
            run.failures += checks.check_posteriors(samples)

    def run(self) -> None:
        self.setups = [self.probe_setup(i) for i in range(SETUP_REPEATS)]
        self.runs.append(self.train_once(0))

    # --- results -----------------------------------------------------------

    def named(self, name: str) -> list:
        return [s for s in self.rec.spans if s.name == name]

    def summary(self) -> dict:
        """What the benchmark process pools across workers.

        Each time comes with the slowdown it is divided by to give it at
        reference speed: (seconds, slowdown), and steps as (pairs, seconds,
        slowdown).
        """
        slow = Slowdown(self.references)
        all_steps = self.named("trainer.step")
        # A step right after a reference run finds its caches evicted by it and
        # runs a few % slower, so it is counted but not timed.
        steps = [(s.units, s.duration, slow.at(s.start)) for i, s in enumerate(self.rec.spans)
                 if s.name == "trainer.step" and self.rec.spans[i - 1].name != CALIBRATE]
        # An epoch's time without the reference runs inside it, at the speed they measured.
        calibrating: dict[int, float] = {}
        for s in self.named(CALIBRATE):
            calibrating[s.parent] = calibrating.get(s.parent, 0.0) + s.duration
        epochs = [(s.duration - calibrating.get(i, 0.0), slow.between(s.start, s.end))
                  for i, s in enumerate(self.rec.spans) if s.name == "trainer.epoch"]
        setups = [(t, slow.at(start)) for start, t in self.setups + [(r.start, r.setup_s) for r in self.runs]]
        return {
            "traced": self.traced,
            "steps": steps,
            "epochs": epochs,
            "setups": setups,
            "slowdown": slow.overall(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "attempted": len(all_steps),
            "failed": sum(not s.ok for s in all_steps),
            "crashed": sum(r.crashed for r in self.runs),
            "failures": [f for r in self.runs for f in r.failures],
            "metrics_csv": [r.metrics_csv for r in self.runs],
            "heldout": [(r.psnr, r.ssim) for r in self.runs],
            "layer": self.layer_values(slow.overall()) if self.traced else {},
        }

    def layer_values(self, slow: float) -> dict:
        """Per-layer values per training run, times at reference speed."""
        wl, rec = self.wl, self.rec
        n = len(self.runs)
        values = wl.layer_metrics(summarize(rec.spans), n, rec.spans, self_times(rec.spans))
        uncovered = 0.0
        for r in self.runs:
            roots = [(s.start, s.end) for s in rec.spans[r.first:r.last] if s.parent < 0]
            uncovered += r.wall_s - covered(roots, r.start, r.start + r.wall_s)
        values["trace.uncovered_s"] = uncovered / n
        values = {k: v / slow if wl.metric_unit(k) == "s" else v for k, v in values.items()}
        values["trace.spans"] = len(rec.spans) / n
        return values


# --- benchmark process ---------------------------------------------------------


def step_times(summaries, scaled: bool = True) -> list[tuple[int, float]]:
    """(pairs, seconds) of every timed step, at reference speed when scaled."""
    return [(pairs, t / slow if scaled else t) for s in summaries for pairs, t, slow in s["steps"]]


def times(summaries, key: str, scaled: bool = True) -> list[float]:
    """Seconds of every epoch or set-up probe, at reference speed when scaled."""
    return [t / slow if scaled else t for s in summaries for t, slow in s[key]]


def throughput(steps) -> float:
    """Pairs per second of step time."""
    return sum(pairs for pairs, _ in steps) / sum(t for _, t in steps)


def run_workers(args, work: Path) -> list:
    """Start workers one at a time until the window is used; returns their summaries."""
    summaries = []
    start = clock()
    while True:
        i = len(summaries)
        path = work / f"worker{i}.json"
        began = clock()
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--worker-traced", str(int(args.trace and i > 0)), "--summary", str(path)]
        try:
            rc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                timeout=max(1.0, DEADLINE_S - (clock() - start))).returncode
        except subprocess.TimeoutExpired:
            rc = "a timeout"
        if rc != 0 or not path.exists():
            summaries.append({"failures": [f"worker ended with {rc}"], "attempted": 0, "failed": 0,
                              "crashed": 1, "steps": []})
            return summaries
        summaries.append(json.loads(path.read_text()))
        took = clock() - began
        if summaries[-1]["failures"] or (
            i + 1 >= MIN_WORKERS and clock() - start + took > args.seconds
        ):
            return summaries


def failures(summaries) -> list:
    out = [f"worker {i}: {f}" for i, s in enumerate(summaries) for f in s["failures"]]
    texts = [t for s in summaries for t in s.get("metrics_csv", []) if t]
    if any(t != texts[0] for t in texts):
        out.append("metrics.csv differs between training runs with the same seed")
    return out


def counts(summaries) -> tuple[int, int]:
    """(operations attempted, failed): train steps, plus runs that crashed outside a step."""
    crashed = sum(s["crashed"] for s in summaries)
    return (sum(s["attempted"] for s in summaries) + crashed,
            sum(s["failed"] for s in summaries) + crashed)


def end_to_end(summaries, scaled: bool = True) -> tuple[dict, dict]:
    steps = step_times(summaries, scaled)
    ms = [t * 1e3 for _, t in steps]
    epochs = times(summaries, "epochs", scaled)
    setups = times(summaries, "setups", scaled)
    attempted, failed = counts(summaries)
    psnr, ssim = summaries[0]["heldout"][0]
    values = {
        "samples_per_s": (throughput(steps), "1/s"),
        "step_ms_p50": (float(np.percentile(ms, 50)), "ms"),
        "step_ms_p90": (float(np.percentile(ms, 90)), "ms"),
        "epoch_s": (statistics.median(epochs), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(s["peak_rss_mb"] for s in summaries), "MB"),
        "heldout_psnr_db": (psnr, "dB"),
        "heldout_dssim": ((1.0 - ssim) / 2.0, "1"),
        "step_ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    info = {"samples": {"step_ms": len(ms), "epoch_s": len(epochs), "setup_s": len(setups)},
            "slowdown": [s["slowdown"] for s in summaries]}
    return values, info


def per_layer(summaries) -> tuple[dict, dict]:
    import workloads as wl

    traced = [s for s in summaries if s["traced"]]
    plain = step_times([s for s in summaries if not s["traced"]])
    timed = step_times(traced)
    values = {k: statistics.fmean(s["layer"][k] for s in traced) for k in traced[0]["layer"]}
    values.update({
        "trace.traced_samples_per_s": throughput(timed),
        "trace.untraced_samples_per_s": throughput(plain),
        "trace.overhead_pct": (throughput(plain) / throughput(timed) - 1.0) * 100.0,
    })
    info = {"traced_runs": len(traced), "untraced_runs": len(summaries) - len(traced),
            "slowdown": [s["slowdown"] for s in summaries]}
    return {k: (values[k], wl.metric_unit(k)) for k in wl.per_layer_names()}, info


def worker_main(args) -> int:
    work = args.summary.parent / args.summary.stem
    work.mkdir()
    bench = Bench(args.workload, args.seed, bool(args.worker_traced), work)
    bench.run()
    args.summary.write_text(json.dumps(bench.summary()))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dgpcyclegan" / "__init__.py").is_file():
        print(f"perfbench: no dgpcyclegan source under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dgpcyclegan
    import workloads as wl

    if Path(dgpcyclegan.__file__).resolve().parent != SRC / "dgpcyclegan":
        print(f"perfbench: imported dgpcyclegan from {dgpcyclegan.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.summary is not None:
        return worker_main(args)

    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        summaries = run_workers(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    fails = failures(summaries)
    attempted, failed = counts(summaries)
    complete = all(s["steps"] for s in summaries) and (not args.trace or len(summaries) > 1)
    metrics, details = {}, {}
    if complete:
        metrics, details = per_layer(summaries) if args.trace else end_to_end(summaries)
        if not args.trace:
            raw, _ = end_to_end(summaries, scaled=False)
            details["raw"] = {k: raw[k][0] for k in ("samples_per_s", "step_ms_p50", "step_ms_p90",
                                                     "epoch_s", "setup_s")}
    if not metrics or not all(math.isfinite(v) for v, _ in metrics.values()):
        for f in fails:
            print(f"FAIL {f}", file=sys.stderr)
        print("perfbench: no complete measurement, so no result", file=sys.stderr)
        return 1

    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "workers": len(summaries), **details,
            "failures": fails, "env": environment()}
    print(json.dumps({"perfbench": info}))
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:>16.6f} {unit}")
    for f in fails:
        print(f"FAIL {f}", file=sys.stderr)
    result = {
        "correct": not fails and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
