"""Windowed time series on the virtual clock: ring-buffer windows.

The batch registry (:mod:`repro.telemetry.metrics`) answers "what did
the whole run do"; serving needs "what is happening *now*, per tenant,
per region".  A :class:`WindowedSeries` buckets observations into
fixed-``resolution`` windows of virtual time kept in a ring of
``capacity`` slots, so memory stays bounded no matter how long a run
is, and rate / quantile queries over arbitrary lookbacks stay exact
for everything the ring still holds.

Series are keyed by name plus labels — the serving plane uses
``(tenant, api, region, code)`` — and histogram windows carry an
**exemplar**: the trace id of the slowest request that landed in the
window, so a "p99 regressed" cell links to one concrete offending
trace (see ``repro report``).

Quantiles share their math with the batch histograms
(:func:`repro.telemetry.metrics.quantile`): interpolated, exact, and
honest about empty windows (``None``, never a fabricated ``0.0``).
"""

from __future__ import annotations

import threading

from ..telemetry.metrics import _render_key, quantile


class _Window:
    """One resolution bucket of a series' ring."""

    __slots__ = ("index", "count", "total", "max", "values", "exemplar")

    def __init__(self, index: int):
        self.reset(index)

    def reset(self, index: int) -> None:
        self.index = index
        self.count = 0
        self.total = 0.0
        self.max = 0.0
        self.values: list[float] | None = None
        self.exemplar = ""

    def as_dict(self, resolution: float) -> dict:
        record = {
            "start": round(self.index * resolution, 9),
            "count": self.count,
            "sum": round(self.total, 9),
        }
        if self.values is not None:
            record["max"] = round(self.max, 9)
            if self.exemplar:
                record["exemplar"] = self.exemplar
        return record


class WindowedSeries:
    """One (name, labels) stream bucketed into virtual-time windows.

    Window ``index`` lives in ring slot ``index % capacity``; a slot's
    window is created on its first write and reused (reset) when a
    later index lands on the same slot.
    """

    __slots__ = ("name", "labels", "kind", "resolution", "capacity",
                 "_ring", "_lock")

    def __init__(self, name: str, labels: dict, kind: str,
                 resolution: float, capacity: int):
        self.name = name
        self.labels = labels
        self.kind = kind  # "counter" | "histogram"
        self.resolution = float(resolution)
        self.capacity = int(capacity)
        #: Ring slot -> the window it holds; only written slots exist.
        self._ring: dict[int, _Window] = {}
        self._lock = threading.Lock()

    @property
    def key(self) -> str:
        return _render_key(self.name, self.labels)

    # -- write ---------------------------------------------------------------

    def record(self, now: float, value: float = 1.0,
               exemplar: str = "") -> None:
        index = int(now / self.resolution)
        slot = index % self.capacity
        with self._lock:
            window = self._ring.get(slot)
            if window is None:
                window = self._ring[slot] = _Window(index)
            elif window.index != index:
                window.reset(index)
            window.count += 1
            window.total += value
            if self.kind == "histogram":
                if window.values is None:
                    window.values = []
                window.values.append(value)
                if value >= window.max or window.count == 1:
                    window.max = value
                    if exemplar:
                        window.exemplar = exemplar

    # -- read ----------------------------------------------------------------

    def _live(self, since: float, until: float) -> list[_Window]:
        first = int(since / self.resolution)
        last = int(until / self.resolution)
        with self._lock:
            return [
                window for window in self._ring.values()
                if first <= window.index <= last
            ]

    def windows(self, since: float, until: float) -> list[_Window]:
        """The live windows in ``[since, until]``, oldest first."""
        return sorted(self._live(since, until), key=lambda w: w.index)

    def live_windows(self) -> list[_Window]:
        """Every window still in the ring, oldest first."""
        with self._lock:
            live = list(self._ring.values())
        return sorted(live, key=lambda w: w.index)

    def total(self, lookback: float, now: float,
              value_sum: bool = False) -> float:
        """Events (or, with ``value_sum``, the value sum) in a lookback."""
        field = "total" if value_sum else "count"
        return sum(
            getattr(window, field)
            for window in self._live(now - lookback, now)
        )

    def rate(self, lookback: float, now: float) -> float:
        """Events per virtual second over the trailing lookback."""
        if lookback <= 0:
            return 0.0
        return self.total(lookback, now) / lookback

    def quantile(self, q: float, lookback: float,
                 now: float) -> float | None:
        """Interpolated quantile over every value in the lookback."""
        merged: list[float] = []
        for window in self._live(now - lookback, now):
            if window.values:
                merged.extend(window.values)
        merged.sort()
        return quantile(merged, q)

    def exemplar(self, lookback: float, now: float) -> str:
        """The trace id of the slowest observation in the lookback."""
        worst = None
        for window in self._live(now - lookback, now):
            if window.exemplar and (worst is None
                                    or window.max > worst.max):
                worst = window
        return worst.exemplar if worst is not None else ""

    def as_dict(self) -> dict:
        return {
            "series": self.key,
            "kind": self.kind,
            "resolution": self.resolution,
            "windows": [
                w.as_dict(self.resolution) for w in self.live_windows()
            ],
        }


class WindowedStore:
    """All of one run's windowed series, keyed by name + labels.

    ``resolution`` is the window width in virtual seconds; ``capacity``
    is how many windows each series retains (a ring — older windows
    are overwritten, so memory per series is O(capacity) forever).
    """

    def __init__(self, resolution: float = 0.25, capacity: int = 4096):
        self.resolution = float(resolution)
        self.capacity = int(capacity)
        self._series: dict[str, WindowedSeries] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, labels: dict, kind: str) -> WindowedSeries:
        key = _render_key(name, labels)
        series = self._series.get(key)
        if series is None:
            with self._lock:
                series = self._series.get(key)
                if series is None:
                    series = WindowedSeries(
                        name, labels, kind,
                        self.resolution, self.capacity,
                    )
                    self._series[key] = series
        return series

    def counter(self, name: str, **labels: object) -> WindowedSeries:
        return self._get(name, labels, "counter")

    def histogram(self, name: str, **labels: object) -> WindowedSeries:
        return self._get(name, labels, "histogram")

    def __len__(self) -> int:
        with self._lock:
            return len(self._series)

    # -- cross-series queries ------------------------------------------------

    def select(self, name: str, **where: object) -> list[WindowedSeries]:
        """Every series of ``name`` whose labels match ``where``."""
        with self._lock:
            candidates = list(self._series.values())
        return [
            series for series in candidates
            if series.name == name and all(
                series.labels.get(label) == value
                for label, value in where.items()
            )
        ]

    def label_values(self, name: str, label: str) -> list[str]:
        """Every distinct value one label takes across a series name."""
        values = {
            str(series.labels[label])
            for series in self.select(name)
            if label in series.labels
        }
        return sorted(values)

    def total(self, name: str, lookback: float, now: float,
              value_sum: bool = False, **where: object) -> float:
        return sum(
            series.total(lookback, now, value_sum=value_sum)
            for series in self.select(name, **where)
        )

    def rate(self, name: str, lookback: float, now: float,
             **where: object) -> float:
        if lookback <= 0:
            return 0.0
        return self.total(name, lookback, now, **where) / lookback

    def quantile(self, name: str, q: float, lookback: float, now: float,
                 **where: object) -> float | None:
        merged: list[float] = []
        for series in self.select(name, **where):
            for window in series.windows(now - lookback, now):
                if window.values:
                    merged.extend(window.values)
        merged.sort()
        return quantile(merged, q)

    def exemplar(self, name: str, lookback: float, now: float,
                 **where: object) -> str:
        best_trace, best_max = "", float("-inf")
        for series in self.select(name, **where):
            for window in series.windows(now - lookback, now):
                if window.exemplar and window.max > best_max:
                    best_trace, best_max = window.exemplar, window.max
        return best_trace

    # -- export --------------------------------------------------------------

    def export(self) -> list[dict]:
        """Every series as a JSONL-ready record, sorted by key."""
        with self._lock:
            series = sorted(self._series.values(), key=lambda s: s.key)
        return [s.as_dict() for s in series]
