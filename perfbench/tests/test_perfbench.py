"""Tests of the benchmark's own code: span arithmetic, wrapping, and GP counts."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import spans  # noqa: E402
from spans import Span, SpanRecorder, covered, self_times, summarize  # noqa: E402


def test_self_time_on_a_nested_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds [2, 3]; b holds two
    # overlapping children [5, 7] and [6, 8], which cover 3 s of it together.
    tree = [
        Span("t.root", 0.0, 10.0),
        Span("t.a", 1.0, 4.0, parent=0),
        Span("t.leaf", 2.0, 3.0, parent=1),
        Span("t.b", 5.0, 9.0, parent=0),
        Span("t.leaf", 5.0, 7.0, parent=3),
        Span("t.leaf", 6.0, 8.0, parent=3),
    ]
    assert self_times(tree) == [3.0, 2.0, 1.0, 1.0, 2.0, 2.0]
    totals = summarize(tree)
    assert totals["t.leaf"].calls == 3
    assert totals["t.leaf"].total_s == 5.0
    assert totals["t.root"].self_s == 3.0
    assert sum(t.self_s for t in totals.values()) == 10.0 + 1.0  # the overlap counts twice


def test_covered_clips_and_merges():
    assert covered([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert covered([(0, 2), (1, 3), (5, 6)], 1.5, 5.5) == 2
    assert covered([], 0, 1) == 0


def test_recorder_builds_the_tree_from_wrapped_calls():
    ticks = iter(range(100))
    rec = SpanRecorder(clock=lambda: float(next(ticks)))
    leaf = rec.wrap("t.leaf", lambda: None)
    step = rec.wrap("trainer.step", lambda: (leaf(), leaf()), units=lambda a, k, r: 2)
    epoch = rec.wrap_marker("trainer.epoch", lambda: None)
    run = rec.wrap("t.run", lambda: (epoch(), step(), epoch(), step()))
    run()
    names = [(s.name, s.parent, s.step) for s in rec.spans]
    assert names == [
        ("t.run", -1, 0),
        ("trainer.epoch", 0, 0),
        ("trainer.step", 1, 1),
        ("t.leaf", 2, 1),
        ("t.leaf", 2, 1),
        ("trainer.epoch", 0, 1),
        ("trainer.step", 5, 2),
        ("t.leaf", 6, 2),
        ("t.leaf", 6, 2),
    ]
    # The second epoch ends when the run does, not when its marker returns.
    assert rec.spans[5].end == rec.spans[0].end
    own = self_times(rec.spans)
    assert sum(own) == pytest.approx(rec.spans[0].duration)
    assert summarize(rec.spans)["trainer.step"].units == 4


def test_failed_call_is_recorded_and_reraised():
    rec = SpanRecorder()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        rec.wrap("t.boom", boom)()
    assert rec.spans[0].ok is False
    assert rec.wrap("t.check", lambda: 1, check=lambda a, k, r: r == 2)() == 1
    assert rec.spans[1].ok is False


def _gp_inputs():
    from dgpcyclegan.gp_supervisor import FeatureBank
    from dgpcyclegan.kernels import KernelSpec

    rng = np.random.default_rng(5)
    bank = FeatureBank("clean", s=rng.standard_normal((40, 6)), z=rng.standard_normal((40, 4)))
    spec = KernelSpec.homogeneous(depth=4, beta=2.5, gamma=2.5)
    return spec, bank, rng.standard_normal(6), rng.standard_normal(4)


def test_wrapped_functions_return_exactly_what_unwrapped_ones_do():
    import workloads as wl
    from dgpcyclegan import nets, trainer

    spec, bank, qs, qz = _gp_inputs()
    gen = nets.Generator(64, hidden=(16, 8, 8, 16), rng=1)
    x = np.random.default_rng(2).random((8, 8))

    def compute():
        ids = trainer.knn_select(bank, qz, 8)
        post = trainer.gp_condition(spec, bank, ids, qs)
        grad = trainer.pseudo_loss_query_grad(spec, bank, post, qs, qz)
        y, s, z, cache = gen.forward(x)
        g, gx = gen.backward(cache, np.ones_like(y), grad_z=np.ones_like(z))
        return [ids, post.pseudo_label, post.variance, grad, y, s, z, g, gx]

    originals = {(t.owner, t.attr): getattr(t.owner, t.attr) for t in wl.LAYER_TARGETS}
    plain = compute()
    rec = SpanRecorder()
    with spans.instrument(rec, wl.TIMING_TARGETS + wl.LAYER_TARGETS):
        assert trainer.gp_condition is not originals[(trainer, "gp_condition")]
        traced = compute()
    for a, b in zip(plain, traced, strict=True):
        assert np.array_equal(a, b)
    names = {s.name for s in rec.spans}
    assert {"gp_supervisor.condition", "kernels.gram", "linalg.cholesky", "nets.gen_forward"} <= names
    for (owner, attr), fn in originals.items():
        assert getattr(owner, attr) is fn


def test_patched_removes_an_inherited_attribute_again():
    class Base:
        def f(self):
            return 1

    class Child(Base):
        pass

    with spans.patched(Child, "f", lambda fn: lambda self: fn(self) + 1):
        assert Child().f() == 2
    assert "f" not in vars(Child) and Child().f() == 1


@pytest.fixture(scope="module")
def desk_plain_workers(tmp_path_factory):
    """Summaries of one untraced and one traced desk_plain worker, as the benchmark pools them."""
    import run

    summaries = []
    for traced in (False, True):
        bench = run.Bench("desk_plain", seed=0, traced=traced, work=tmp_path_factory.mktemp("bench"))
        bench.run()
        summaries.append(bench.summary())
    return summaries


def test_times_are_divided_by_their_slowdown():
    import run

    worker = {"steps": [(2, 0.03, 1.5), (1, 0.02, 1.0)], "epochs": [(3.0, 1.2)], "setups": [(0.2, 2.0)]}
    assert run.step_times([worker]) == [(2, 0.03 / 1.5), (1, 0.02)]
    assert run.step_times([worker], scaled=False) == [(2, 0.03), (1, 0.02)]
    assert run.times([worker], "epochs") == [3.0 / 1.2]
    assert run.times([worker], "setups", scaled=False) == [0.2]


def test_slowdown_lookups():
    from reference import NOMINAL_S, Slowdown

    slow = Slowdown([(0.0, NOMINAL_S), (1.0, 2 * NOMINAL_S), (2.0, 3 * NOMINAL_S)])
    assert slow.between(0.5, 2.5) == 2.5  # the runs that started at 1 and 2
    assert slow.between(0.2, 0.4) == slow.at(0.2) == 2.0  # none started inside
    assert slow.overall() == 2.0


def test_desk_plain_counts_show_no_gp_work(desk_plain_workers):
    import run
    import workloads as wl

    steps_per_run = wl.EPOCHS * 200 // 2  # 200 pairs per epoch, batch 2
    assert run.failures(desk_plain_workers) == []
    assert run.counts(desk_plain_workers) == (2 * steps_per_run, 0)
    layer, _ = run.per_layer(desk_plain_workers)
    for name in ("gp_supervisor.condition_calls", "gp_supervisor.knn_calls",
                 "gp_supervisor.bank_build_rows", "gp_supervisor.query_grad_calls",
                 "kernels.gram_calls", "linalg.cholesky_calls", "linalg.solve_calls",
                 "verify.oracle_calls"):
        assert layer[name][0] == 0, name
    assert layer["nets.gen_forward_rows"][0] > 0
    assert layer["nets.adam_calls"][0] == 4 * steps_per_run


def test_reported_metrics_match_benchmark_json(desk_plain_workers):
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end, _ = run.end_to_end(desk_plain_workers)
    per_layer, _ = run.per_layer(desk_plain_workers)
    for declared, reported in ((spec["end_to_end"], end_to_end), (spec["per_layer"], per_layer)):
        assert [(m["name"], m["unit"]) for m in declared] == [(k, u) for k, (_, u) in reported.items()]
    assert all(v > 0 for v, _ in end_to_end.values())
