"""The metrics registry: counters, gauges, histograms.

Metric names are dotted, lowercase, and unit-suffixed where the unit
is not obvious (``llm.prompt_tokens``, ``emulator.calls``,
``invoke_latency_s``); dimensions ride in labels, so one registry can
hold e.g. ``emulator.errors{code=DependencyViolation}`` next to
``emulator.errors{code=InvalidVpcID.NotFound}`` without inventing new
names.  Everything is plain in-process accounting — instruments are
created on first use and snapshot to JSON-ready dicts.
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import contextmanager


def quantile(ordered: "list[float]", q: float) -> float | None:
    """Quantile by linear interpolation between closest ranks.

    The single shared implementation behind :class:`Histogram` and the
    windowed store (:mod:`repro.obs.windows`): ``ordered`` must be
    sorted ascending.  Returns ``None`` for an empty window — callers
    must not render an absent distribution as ``0.0``, which reads
    like a real (excellent) latency — and the lone sample for a
    single-sample window.  Interpolation fixes the nearest-rank edge
    artifacts small windows used to show (p50 of ``[10, 1000]`` was
    ``10``, and p95 collapsed onto p50 for any window under 10
    samples).
    """
    count = len(ordered)
    if count == 0:
        return None
    if count == 1:
        return ordered[0]
    q = min(1.0, max(0.0, q))
    position = q * (count - 1)
    low = math.floor(position)
    high = min(count - 1, low + 1)
    fraction = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def _render_key(name: str, labels: dict) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count (increments are thread-safe)."""

    __slots__ = ("name", "labels", "value", "_lock")
    kind = "counter"

    def __init__(self, name: str, labels: dict):
        self.name = name
        self.labels = labels
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self.value += amount

    def summary(self) -> dict:
        return {"value": self.value}


class Gauge:
    """A value that can go up and down (last write wins)."""

    __slots__ = ("name", "labels", "value")
    kind = "gauge"

    def __init__(self, name: str, labels: dict):
        self.name = name
        self.labels = labels
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def summary(self) -> dict:
        return {"value": self.value}


class Histogram:
    """A distribution of observations, summarized as p50/p95/p99/max.

    Observations are kept raw (pipeline runs observe thousands of
    values, not millions) and percentiles interpolate linearly between
    closest ranks (:func:`quantile`), so the summary is exact,
    deterministic, and free of the nearest-rank collapse small windows
    used to show.
    """

    __slots__ = ("name", "labels", "values")
    kind = "histogram"

    def __init__(self, name: str, labels: dict):
        self.name = name
        self.labels = labels
        self.values: list[float] = []

    def observe(self, value: float) -> None:
        self.values.append(value)

    @contextmanager
    def timer(self, clock=time.perf_counter):
        """Observe the duration of the ``with`` body, in seconds.

        Uses host wall time by default — this is the benchmark-facing
        instrument; pipeline spans use the virtual clock instead.
        """
        start = clock()
        try:
            yield self
        finally:
            self.observe(clock() - start)

    def percentile(self, q: float) -> float:
        """Interpolated percentile of everything observed so far.

        Returns ``0.0`` when nothing has been observed (the summary
        keeps ``count`` alongside, so an empty window is detectable).
        """
        value = quantile(sorted(self.values), q)
        return 0.0 if value is None else value

    def summary(self) -> dict:
        if not self.values:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                    "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
        total = sum(self.values)
        ordered = sorted(self.values)
        return {
            "count": len(ordered),
            "sum": total,
            "min": ordered[0],
            "max": ordered[-1],
            "mean": total / len(ordered),
            "p50": quantile(ordered, 0.50),
            "p95": quantile(ordered, 0.95),
            "p99": quantile(ordered, 0.99),
        }


class MetricsRegistry:
    """All of one run's instruments, keyed by name + labels."""

    def __init__(self):
        self._instruments: dict[str, object] = {}
        self._lock = threading.Lock()

    def _get(self, factory, name: str, labels: dict):
        key = _render_key(name, labels)
        # An existing instrument is returned without the lock (a dict
        # read is atomic); only creation is serialized.
        instrument = self._instruments.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._instruments.get(key)
                if instrument is None:
                    instrument = factory(name, labels)
                    self._instruments[key] = instrument
        if not isinstance(instrument, factory):
            raise TypeError(
                f"metric {key!r} already registered as "
                f"{type(instrument).__name__}"
            )
        return instrument

    def counter(self, name: str, **labels: object) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: object) -> Histogram:
        return self._get(Histogram, name, labels)

    def __len__(self) -> int:
        return len(self._instruments)

    def snapshot(self) -> dict:
        """Every instrument's current state, JSON-ready, sorted."""
        out: dict[str, dict] = {}
        for key in sorted(self._instruments):
            instrument = self._instruments[key]
            record = {"type": instrument.kind}
            record.update(instrument.summary())
            out[key] = record
        return out
