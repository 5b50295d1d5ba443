"""In-memory span recorder for the benchmark, and the wrapping that feeds it.

A span is one call of a wrapped function: its name ("layer.what"), start and
end on the recorder's clock, the index of the enclosing span, the number of
train steps begun when it opened, a work count and whether it succeeded.
Spans stay in a list and are summarised once, after the run.

Functions are wrapped at the attribute their caller looks up (for example
`trainer.gp_condition`, which `generator_step_terms` resolves through the
trainer module's globals, or `Generator.forward` on the class), so the
program itself is unchanged and every wrapper is removed again on exit.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from dataclasses import dataclass
from typing import Callable

# A span of this name starts a new train step.
STEP_SPAN = "trainer.step"


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: int = -1  # index into SpanRecorder.spans, -1 for a root span
    step: int = 0  # train steps begun before this span opened
    units: int = 0  # work count attached by the target, e.g. rows or bytes
    ok: bool = True  # False when the call raised or its check failed

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Stack of open spans plus the list of every span opened so far.

    A STEP_SPAN span starts a new train step; every span opened after it
    carries that step's id.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.step = 0
        self._open: list[int] = []

    def open(self, name: str) -> int:
        if name == STEP_SPAN:
            self.step += 1
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, self.clock(), parent=parent, step=self.step))
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int) -> None:
        """End span idx and any span still open inside it (marker spans)."""
        now = self.clock()
        while self._open:
            top = self._open.pop()
            self.spans[top].end = now
            if top == idx:
                return
        raise ValueError(f"span {idx} is not open")

    def top_name(self) -> str | None:
        return self.spans[self._open[-1]].name if self._open else None

    def wrap(self, name: str, fn: Callable, units=None, check=None) -> Callable:
        """fn inside a span; units/check see (args, kwargs, result) after it ends."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(idx)
                self.spans[idx].ok = False
                raise
            self.close(idx)
            span = self.spans[idx]
            if units is not None:
                span.units = int(units(args, kwargs, result))
            if check is not None and not check(args, kwargs, result):
                span.ok = False
            return result

        return wrapper

    def wrap_marker(self, name: str, fn: Callable) -> Callable:
        """Each call of fn ends the previous `name` span and opens the next.

        The span stays open after fn returns and ends at the next call or
        when its enclosing span closes; used for epochs, which the trainer
        starts by calling `lr_at`.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.top_name() == name:
                self.close(self._open[-1])
            self.open(name)
            return fn(*args, **kwargs)

        return wrapper


@dataclass(frozen=True)
class Target:
    """One function to wrap: `owner.attr` recorded as span `span`."""

    owner: object  # module or class whose attribute the caller looks up
    attr: str
    span: str
    units: Callable | None = None
    check: Callable | None = None
    marker: bool = False


@contextlib.contextmanager
def patched(owner, attr: str, make: Callable[[Callable], Callable]):
    """Replace owner.attr by make(original) for the duration of the block."""
    original = inspect.getattr_static(owner, attr)
    inherited = attr not in vars(owner)
    setattr(owner, attr, make(original))
    try:
        yield original
    finally:
        if inherited:
            delattr(owner, attr)
        else:
            setattr(owner, attr, original)


@contextlib.contextmanager
def instrument(recorder: SpanRecorder, targets):
    """Wrap every target for the duration of the block."""
    with contextlib.ExitStack() as stack:
        for t in targets:
            if t.marker:
                make = functools.partial(recorder.wrap_marker, t.span)
            else:
                make = functools.partial(_wrap_into, recorder, t)
            stack.enter_context(patched(t.owner, t.attr, make))
        yield recorder


def _wrap_into(recorder: SpanRecorder, t: Target, fn: Callable) -> Callable:
    return recorder.wrap(t.span, fn, units=t.units, check=t.check)


# --- summaries --------------------------------------------------------------


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it that child spans cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        s.duration - covered(children.get(i, ()), s.start, s.end) for i, s in enumerate(spans)
    ]


@dataclass
class NameTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    units: int = 0


def summarize(spans) -> dict[str, NameTotals]:
    """Totals per span name: calls, inclusive time, self time, work units."""
    out: dict[str, NameTotals] = {}
    for s, own in zip(spans, self_times(spans)):
        t = out.setdefault(s.name, NameTotals())
        t.calls += 1
        t.total_s += s.duration
        t.self_s += own
        t.units += s.units
    return out
