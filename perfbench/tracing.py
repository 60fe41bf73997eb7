"""In-memory spans around the benchmark's calls into each layer.

A span records its name, start, end and parent.  Spans are kept in memory
and written out when the run ends; per-layer self time is a span's duration
minus the time its direct children cover.  ``NULL`` has the same interface
and records nothing, so untraced passes run the same code.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter, defaultdict
from contextlib import ExitStack, contextmanager
from time import perf_counter

SWEEP = "bench.sweep"
# names of per-batch spans whose durations are reported as distributions
BATCH_SPANS = ("kernels.matrix", "kernels.diag", "fading.draw")


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    enabled = False

    def span(self, name: str):
        return _NULL_SPAN

    def count(self, name: str, n=1) -> None:
        pass

    def peak(self, name: str, value: float) -> None:
        pass


NULL = NullTracer()


class _Span:
    __slots__ = ("tr", "name", "idx")

    def __init__(self, tr, name):
        self.tr = tr
        self.name = name

    def __enter__(self):
        tr = self.tr
        self.idx = len(tr.spans)
        tr.spans.append([self.name, perf_counter(), 0.0,
                         tr.open[-1] if tr.open else -1, 0.0])
        tr.open.append(self.idx)
        return self

    def __exit__(self, *exc):
        tr = self.tr
        rec = tr.spans[self.idx]
        rec[2] = perf_counter()
        tr.open.pop()
        if rec[3] >= 0:
            tr.spans[rec[3]][4] += rec[2] - rec[1]
        return False


class Tracer:
    """Spans as [name, start, end, parent index, time covered by children]."""

    enabled = True

    def __init__(self):
        self.spans = []
        self.open = []
        self.counts = Counter()
        self.peaks = {}

    def span(self, name: str):
        return _Span(self, name)

    def count(self, name: str, n=1) -> None:
        self.counts[name] += n

    def peak(self, name: str, value: float) -> None:
        self.peaks[name] = max(value, self.peaks.get(name, 0.0))

    def _root(self, i: int) -> int:
        while self.spans[i][3] >= 0:
            i = self.spans[i][3]
        return i

    def summary(self) -> dict:
        """Self seconds and batch durations of spans inside sweeps, totals of
        spans outside them, and the sweep time no child span covers."""
        in_sweep = defaultdict(float)
        outside = defaultdict(float)
        batches = defaultdict(list)
        uncovered = 0.0
        sweeps = 0
        for i, (name, t0, t1, parent, child) in enumerate(self.spans):
            if name == SWEEP:
                sweeps += 1
                uncovered += t1 - t0 - child
            elif self.spans[self._root(i)][0] == SWEEP:
                in_sweep[name] += t1 - t0 - child
                if name in BATCH_SPANS:
                    batches[name].append((t1 - t0) * 1e3)
            else:
                outside[name] += t1 - t0 - child
        return dict(sweeps=sweeps, self_s=dict(in_sweep), outside_s=dict(outside),
                    batch_ms=dict(batches), uncovered_s=uncovered)

    def dump(self, path: str, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(header, counts=self.counts, peaks=self.peaks,
                           spans=self.spans), fh)


def tail(samples: list) -> tuple:
    """(p50, the highest percentile that has ten samples beyond it, that
    percentile's level, sample count).  With ten samples or fewer no
    percentile qualifies and the maximum is given at level 100; with none,
    zeros."""
    n = len(samples)
    if n == 0:
        return 0.0, 0.0, 0.0, 0
    ordered = sorted(samples)
    if n <= 10:
        return statistics.median(ordered), ordered[-1], 100.0, n
    return statistics.median(ordered), ordered[n - 11], 100.0 * (n - 10) / n, n


@contextmanager
def wrapped(tr, targets):
    """Route calls to module functions through spans while tracing.

    ``targets`` holds (module, attribute, span name, counter, size argument):
    callers that look the function up on the module, such as the engine
    calling ``analytic.semi_analytic_mc_ber``, then record a span without a
    change to the program.  Restores every attribute on exit.
    """
    if not tr.enabled:
        yield
        return
    with ExitStack() as stack:
        for module, attr, name, counter, size_arg in targets:
            original = getattr(module, attr)

            def traced(*args, _f=original, _name=name, _counter=counter,
                       _size=size_arg, **kwargs):
                with tr.span(_name):
                    out = _f(*args, **kwargs)
                if _counter:
                    tr.count(_counter, args[_size])
                return out

            setattr(module, attr, traced)
            stack.callback(setattr, module, attr, original)
        yield
