"""Spans, work counts and verdict checks for one benchmark worker.

A span is recorded around every call the benchmark makes into a racbox
layer, and around each pass and item of the benchmark itself.  Spans stay
in memory as tuples and are written out once, when the worker ends.
Untraced passes call racbox directly, so they carry no tracing cost.
"""

from __future__ import annotations

import os
import traceback
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# name, start, end, parent span index (-1 for none), item id, raised
Span = tuple[str, float, float, int, str, bool]


class Recorder:
    """Spans and counts of one worker process."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self.item = ""

    def add(self, counter: str, amount) -> None:
        self.counts[counter] += amount

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        item = self.item
        self.spans.append(None)
        self.stack.append(index)
        raised = True
        start = perf_counter()
        try:
            yield
            raised = False
        finally:
            end = perf_counter()
            self.stack.pop()
            self.spans[index] = (name, start, end, parent, item, raised)

    def wrap(self, name: str, func, hook=None):
        """func with a span named `name`; hook(args, result) yields (counter, amount)."""

        def traced(*args, **kwargs):
            with self.span(name):
                result = func(*args, **kwargs)
            if hook is not None:
                for counter, amount in hook(args, result):
                    self.counts[counter] += amount
            return result

        return traced


def layer_times(spans: list[Span], first: int, duration) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
    """Busy seconds and calls per span name, and self seconds per layer, of spans[first:].

    duration(start, end) gives a span's seconds.  A span's self time is its
    duration minus that of its direct children; children never overlap
    because each worker has a single thread.
    """
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    seconds = [0.0] * len(spans)
    child_time = [0.0] * len(spans)
    for i in range(first, len(spans)):
        _, start, end, parent, _, _ = spans[i]
        seconds[i] = duration(start, end)
        if parent >= 0:
            child_time[parent] += seconds[i]
    self_by_layer: dict[str, float] = {}
    for i in range(first, len(spans)):
        name = spans[i][0]
        busy[name] = busy.get(name, 0.0) + seconds[i]
        calls[name] = calls.get(name, 0) + 1
        layer = name.split(".", 1)[0]
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + seconds[i] - child_time[i]
    return busy, calls, self_by_layer


class Checks:
    """Verdict checks of the current item; a failed check names the layer at fault."""

    def __init__(self) -> None:
        self.failures: list[tuple[str, str, str]] = []
        self.failed_items = 0  # item attempts with at least one failure
        self.item = ""

    def expect(self, ok: bool, layer: str, what: str) -> None:
        if not ok:
            self.failures.append((self.item, layer, what))

    @contextmanager
    def rejects(self, exc_type, layer: str, what: str):
        """The block must raise exc_type: a negative control that passes only by failing."""
        try:
            yield
        except exc_type:
            return
        self.failures.append((self.item, layer, f"{what}: not rejected"))

    def unexpected(self, exc: BaseException) -> None:
        self.failures.append((self.item, layer_of(exc), f"{type(exc).__name__}: {exc}"))


def layer_of(exc: BaseException) -> str:
    """The racbox module that raised exc, or 'bench' if the benchmark did."""
    layer = "bench"
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        path = frame.f_code.co_filename
        if os.path.basename(os.path.dirname(path)) == "racbox":
            layer = os.path.splitext(os.path.basename(path))[0]
    return layer
