"""Spans recorded from the benchmark's own files around calls into myetrends.

A :class:`Tracer` times the calls the benchmark makes into each module's
public functions. When disabled, :meth:`Tracer.call` is a plain call, so the
untraced runs that report end-to-end metrics pay one attribute test per call.

Busy time is wall time during which at least one call is open, so spans that
overlap, as callbacks from a threaded simulator would, are not counted twice:
a name's busy time never exceeds the wall time of the calls that enclose it.
Nested calls (the ``quantile`` callback inside ``simulate_bias``) are
recorded under their own name; ``covered_s`` is the wall time during which
any span is open, the share of op time the trace covers.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict


class Tracer:
    """Per-name call counts and busy time, plus exact work counters.

    Safe to call from several threads at once.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.covered_s = 0.0
        self._lock = threading.Lock()
        self._open: dict[str, int] = defaultdict(int)  # calls in progress, per name
        self._since: dict[str, float] = {}  # when the name's first open call began
        self._any_open = 0
        self._any_since = 0.0

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn``; when enabled, record its wall time under ``name``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self._lock:
            now = time.perf_counter()
            if self._open[name] == 0:
                self._since[name] = now
            self._open[name] += 1
            if self._any_open == 0:
                self._any_since = now
            self._any_open += 1
        try:
            return fn(*args, **kwargs)
        finally:
            with self._lock:
                now = time.perf_counter()
                self.calls[name] += 1
                self._open[name] -= 1
                if self._open[name] == 0:
                    self.busy[name] += now - self._since[name]
                self._any_open -= 1
                if self._any_open == 0:
                    self.covered_s += now - self._any_since

    def record(self, name: str, seconds: float) -> None:
        """Add a span measured elsewhere, such as a child's import time,
        while no other span is open."""
        if not self.enabled:
            return
        with self._lock:
            self.calls[name] += 1
            self.busy[name] += seconds
            self.covered_s += seconds

    def count(self, name: str, n: int) -> None:
        if self.enabled:
            with self._lock:
                self.counts[name] += n

    def mean_ms(self, name: str) -> float:
        return 1e3 * self.busy[name] / self.calls[name]


def counted_ndtri(tracer: Tracer):
    """``scipy.special.ndtri`` behind a timer and a draw counter.

    Passed to ``simulate_bias`` through its public ``quantile=`` parameter;
    the summary it yields must equal the one from the default quantile.
    """
    from scipy.special import ndtri

    def quantile(u):
        tracer.count("analysis.quantile_draws", int(u.size))
        return tracer.call("analysis.quantile", ndtri, u)

    return quantile
