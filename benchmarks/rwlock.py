"""The RW-lock comparator the serve benchmarks measure MVCC against.

The serve layer reads through pinned registry versions and never takes
a read lock (:mod:`repro.serve.concurrency`).  The benches still need
the pre-MVCC behaviour as a baseline: a writer-preferring
reader/writer lock whose readers stall behind a writer's service time.
That lock lives here, with the wrappers that put it in the serve path:

- :class:`ModeledEmulator` sleeps :data:`SERVICE_LATENCY_S` per
  dispatch (a GIL-releasing stand-in for real I/O wait) and forwards
  the versioned surface, so the concurrency layer serves it lock-free;
- :class:`LockedModeledEmulator` is the same model with the lock
  inside: ``invoke_at`` (reads) holds the shared side and ``invoke``
  (writes) the exclusive side, both *while* sleeping — readers lose a
  writer's full service time, exactly as under the old lock-based
  serve path.

The lock shares read access and gives writes exclusive access, with
writer preference so a read-heavy mix cannot starve writes
indefinitely.  Writer-preference alone has a starvation edge: a
continuous read stream keeps the condition's monitor lock churning,
and a queued writer may not even get to *register*
``_writers_waiting`` — the gate readers check — for an unbounded time.
The fairness bound closes it: after ``fairness_bound`` consecutive
read admissions with no intervening write, the next reader briefly
yields the monitor (a timed wait) before admitting itself, guaranteeing
a blocked writer a window to register and flip the gate.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

#: Modeled per-request service time (seconds) shared by the serve
#: benches, so their JSON snapshots stay directly comparable.
SERVICE_LATENCY_S = 0.002


class RWLock:
    """Shared-read / exclusive-write lock (writer-preferring).

    ``fairness_bound`` caps how many reads may be admitted back-to-back
    before the lock forces a yield window for queued writers; the
    ``fairness_yields`` counter records how often the bound fired.
    """

    def __init__(self, fairness_bound: int = 64,
                 yield_s: float = 0.0005):
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0
        self._read_streak = 0
        self.fairness_bound = fairness_bound
        self.yield_s = yield_s
        #: Accounting (written under the monitor, so exact).
        self.read_acquisitions = 0
        self.write_acquisitions = 0
        self.fairness_yields = 0

    def acquire_read(self) -> None:
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            if (
                self._read_streak >= self.fairness_bound
                and self._readers
            ):
                # Long unbroken read streak with readers still inside:
                # a writer may be stuck outside the monitor.  Release
                # it briefly so the writer can register its intent,
                # then re-check the admission gate.
                self.fairness_yields += 1
                self._read_streak = 0
                self._cond.wait(self.yield_s)
                while self._writer or self._writers_waiting:
                    self._cond.wait()
            self._readers += 1
            self._read_streak += 1
            self.read_acquisitions += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if not self._readers:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True
            self.write_acquisitions += 1

    def release_write(self) -> None:
        with self._cond:
            self._writer = False
            self._read_streak = 0
            self._cond.notify_all()

    @contextmanager
    def read(self):
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write(self):
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()


class ModeledEmulator:
    """A versioned emulator whose every dispatch takes
    :data:`SERVICE_LATENCY_S` wall seconds."""

    def __init__(self, inner):
        self.inner = inner

    def api_names(self):
        return self.inner.api_names()

    def supports(self, api):
        return self.inner.supports(api)

    def read_only(self, api):
        return self.inner.read_only(api)

    def reset(self):
        self.inner.reset()

    def snapshot(self):
        return self.inner.snapshot()

    @property
    def registry(self):
        return self.inner.registry

    def publish_version(self):
        return self.inner.publish_version()

    def invoke(self, api, params=None):
        time.sleep(SERVICE_LATENCY_S)
        return self.inner.invoke(api, params)

    def invoke_at(self, version, api, params=None):
        time.sleep(SERVICE_LATENCY_S)
        return self.inner.invoke_at(version, api, params)


class LockedModeledEmulator(ModeledEmulator):
    """:class:`ModeledEmulator` behind one :class:`RWLock`: reads hold
    the shared side and writes the exclusive side for their whole
    modeled service time."""

    def __init__(self, inner):
        super().__init__(inner)
        self.lock = RWLock()

    def invoke(self, api, params=None):
        with self.lock.write():
            return super().invoke(api, params)

    def invoke_at(self, version, api, params=None):
        with self.lock.read():
            return super().invoke_at(version, api, params)
