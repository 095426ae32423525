"""Per-layer wall-time ledger for the traced benchmark run.

The ledger wraps the public methods of each serving layer at runtime,
from the benchmark's own files, and puts the originals back when the
traced phase ends; the program under test is not edited.  Each wrapped
call is a span.  Spans nest through a per-thread stack, so a layer's
*self* time is its span time minus the time of the wrapped calls inside
it.

A wrapper costs time of its own, split between the span it opens (its
work after the start stamp and before the end stamp) and its caller
(the rest).  :func:`calibrate` measures both parts on an empty method,
and :meth:`Ledger.totals` subtracts them: ``overhead_in`` once per call
from the layer's self time and ``overhead_out`` once per wrapped child
from the parent's.

The request root spans are also timed on their own
(:meth:`Ledger.root_ns`).  When every wrapped call runs inside a root,
the corrected self times sum to the root time less the wrappers'
calibrated cost; a span outside any root breaks that sum.  Whether the
calibration itself is right shows against the root time of requests
sent with no wrapper installed.

Spans are aggregated per layer in memory; the raw span lists of the
first ``keep_trees`` requests are kept whole for :meth:`Ledger.trees`.
"""

from __future__ import annotations

import statistics
import threading
from time import perf_counter_ns

#: The benchmark's own encode, decode and response checks: the root of
#: every traced request.
CLIENT = "bench.client"

#: Every layer the ledger reports, in call-stack order.
LAYERS = (
    "serve.frontdoor",
    "serve.tenancy",
    "interpreter.endpoint",
    "serve.validation",
    "serve.admission",
    "serve.concurrency",
    "mvcc.publish",
    "serve.concurrency.log",
    "interpreter.emulator.read",
    "interpreter.emulator.write",
    "serve.shard.rpc",
    "obs.plane",
    "obs.drift",
    "telemetry.metrics",
    CLIENT,
)

#: Layers whose individual span durations are kept (for percentiles).
SAMPLED = frozenset({"serve.shard.rpc"})


def _rejected(cell, args, result) -> None:
    if result is not None:
        cell.tally += 1


def _shed(cell, args, result) -> None:
    if not result.admitted:
        cell.tally += 1


def _failed(cell, args, result) -> None:
    if not result.success:
        cell.tally += 1


def _unavailable(cell, args, result) -> None:
    if result is None:
        cell.tally += 1


def _new_version(cell, args, result) -> None:
    # One emulator per tenant: compare with that emulator's last publish.
    key = id(args[0])
    if cell.last.get(key) is not result:
        cell.last[key] = result
        cell.tally += 1


def targets() -> list[tuple[str, type, str, object]]:
    """``(layer, class, method, hook)`` for every wrapped method.

    A hook tallies results into the layer's ``tally``; the string
    ``"contextmanager"`` marks a method returning a context manager
    whose enter and exit are timed as well.
    """
    from repro.interpreter.emulator import Emulator
    from repro.interpreter.endpoint import JsonEndpoint
    from repro.obs.drift import DriftMonitor
    from repro.obs.plane import ObsPlane
    from repro.serve.admission import AdmissionController
    from repro.serve.concurrency import AdmittedLog, ConcurrentEmulator
    from repro.serve.frontdoor import FrontDoor
    from repro.serve.shard import ShardSupervisor
    from repro.serve.tenancy import TenantRouter
    from repro.serve.validation import RequestValidator
    from repro.telemetry.metrics import MetricsRegistry

    return [
        ("serve.frontdoor", FrontDoor, "handle", None),
        ("serve.frontdoor", FrontDoor, "dispatch", None),
        ("serve.tenancy", TenantRouter, "resolve", None),
        ("interpreter.endpoint", JsonEndpoint, "handle", None),
        ("interpreter.endpoint", JsonEndpoint, "dispatch", None),
        ("serve.validation", RequestValidator, "validate", _rejected),
        ("serve.admission", AdmissionController, "admit", _shed),
        ("serve.admission", AdmissionController, "release", None),
        ("serve.concurrency", ConcurrentEmulator, "invoke", None),
        ("mvcc.publish", Emulator, "publish_version", _new_version),
        ("serve.concurrency.log", AdmittedLog, "append", None),
        ("interpreter.emulator.read", Emulator, "invoke_at", _failed),
        ("interpreter.emulator.write", Emulator, "invoke", _failed),
        ("serve.shard.rpc", ShardSupervisor, "request", _unavailable),
        ("obs.plane", ObsPlane, "request", "contextmanager"),
        ("obs.plane", ObsPlane, "classify", None),
        ("obs.drift", DriftMonitor, "maybe_check", None),
        ("telemetry.metrics", MetricsRegistry, "counter", None),
        ("telemetry.metrics", MetricsRegistry, "gauge", None),
        ("telemetry.metrics", MetricsRegistry, "histogram", None),
    ]


class _Cell:
    """One layer's aggregate on one thread."""

    __slots__ = ("calls", "self_ns", "children", "hooked", "tally",
                 "last", "samples")

    def __init__(self):
        self.calls = 0
        self.self_ns = 0
        self.children = 0
        self.hooked = 0
        self.tally = 0
        self.last = {}
        self.samples = []


class _ThreadState:
    __slots__ = ("stack", "cells", "tree", "root_ns")

    def __init__(self, layers):
        self.stack = []
        self.cells = {layer: _Cell() for layer in layers}
        self.tree = None
        self.root_ns = 0


class _ObsRequest:
    """Stands in for the context manager ``ObsPlane.request`` returns,
    so its enter and exit are spans of their own: the request body
    between them belongs to the layers below."""

    __slots__ = ("cm",)

    def __init__(self, cm):
        self.cm = cm

    def __enter__(self):
        return self.cm.__enter__()

    def __exit__(self, *exc_info):
        return self.cm.__exit__(*exc_info)


class Ledger:
    """Installs the layer wrappers and aggregates their spans."""

    def __init__(self, keep_trees: int = 1000, layers=LAYERS):
        # The wrapper cost :meth:`totals` subtracts, in ns (see
        # :func:`calibrate` and :meth:`charge`).
        self.overhead_in = 0.0
        self.overhead_in_hooked = 0.0
        self.overhead_out = 0.0
        self.keep_trees = keep_trees
        self.layers = tuple(layers)
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._trees: list[list] = []
        self._installed: list[tuple[type, str, object]] = []

    # -- per-thread state ----------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(self.layers)
            self._local.state = state
            with self._states_lock:
                self._states.append(state)
        return state

    # -- wrapping ------------------------------------------------------------

    def wrap(self, layer: str, fn, hook=None):
        """``fn`` timed as a span of ``layer``; ``hook(cell, args,
        result)`` runs inside the span to tally the result."""
        local = self._local
        new_state = self._state
        clock = perf_counter_ns
        sampled = layer in SAMPLED

        def wrapper(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = new_state()
            stack = state.stack
            cell = state.cells[layer]
            frame = [0, 0]  # wrapped children: their time, their count
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(cell, args, result)
                return result
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    parent = stack[-1]
                    parent[0] += elapsed
                    parent[1] += 1
                cell.calls += 1
                cell.self_ns += elapsed - frame[0]
                cell.children += frame[1]
                if hook is not None:
                    cell.hooked += 1
                if sampled:
                    cell.samples.append(elapsed)
                if state.tree is not None:
                    state.tree.append((layer, len(stack), start, elapsed))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__name__)
        return wrapper

    @property
    def installed(self) -> bool:
        return bool(self._installed)

    def install(self) -> None:
        """Replace every method :func:`targets` names with its wrapper."""
        if self._installed:
            raise RuntimeError("ledger already installed")
        try:
            for layer, owner, name, hook in targets():
                original = owner.__dict__[name]
                if hook == "contextmanager":
                    wrapped = self._wrap_contextmanager(layer, original)
                else:
                    wrapped = self.wrap(layer, original, hook)
                self._installed.append((owner, name, original))
                setattr(owner, name, wrapped)
        except BaseException:
            self.uninstall()
            raise

    def _wrap_contextmanager(self, layer: str, original):
        class _Timed(_ObsRequest):
            __slots__ = ()
            __enter__ = self.wrap(layer, _ObsRequest.__enter__)
            __exit__ = self.wrap(layer, _ObsRequest.__exit__)

        def request(*args, **kwargs):
            return _Timed(original(*args, **kwargs))

        request.__name__ = original.__name__
        return self.wrap(layer, request)

    def uninstall(self) -> None:
        """Put every original method back (idempotent)."""
        while self._installed:
            owner, name, original = self._installed.pop()
            setattr(owner, name, original)

    # -- the benchmark's own root spans ----------------------------------------

    def open_root(self) -> list:
        """Open one request's root span on this thread."""
        state = self._state()
        if len(self._trees) < self.keep_trees:
            state.tree = []
        frame = [0, 0, perf_counter_ns()]
        state.stack.append(frame)
        return frame

    def close_root(self, frame: list) -> None:
        """Close the root span :meth:`open_root` returned."""
        elapsed = perf_counter_ns() - frame[2]
        state = self._local.state
        state.stack.pop()
        state.root_ns += elapsed
        cell = state.cells[CLIENT]
        cell.calls += 1
        cell.self_ns += elapsed - frame[0]
        cell.children += frame[1]
        if state.tree is not None:
            state.tree.append((CLIENT, 0, frame[2], elapsed))
            with self._states_lock:
                self._trees.append(state.tree)
            state.tree = None

    # -- results ---------------------------------------------------------------

    def charge(self, costs: list[dict]) -> None:
        """Subtract the mean of these :func:`calibrate` results.  The
        cost drifts with the host speed, so a long phase calibrates
        many times, spread over the phase."""
        for key in costs[0]:
            setattr(self, key, statistics.fmean(cost[key] for cost in costs))

    def root_ns(self) -> int:
        """The summed duration of every closed root span."""
        return sum(state.root_ns for state in self._states)

    def totals(self) -> dict[str, dict]:
        """Per-layer sums over every thread, with corrected self time."""
        out = {}
        for layer in self.layers:
            cells = [state.cells[layer] for state in self._states]
            calls = sum(cell.calls for cell in cells)
            hooked = sum(cell.hooked for cell in cells)
            children = sum(cell.children for cell in cells)
            raw = sum(cell.self_ns for cell in cells)
            overhead = (
                (calls - hooked) * self.overhead_in
                + hooked * self.overhead_in_hooked
                + children * self.overhead_out
            )
            if layer == CLIENT:
                # Roots are opened by the client loop, not by a wrapper.
                overhead = children * self.overhead_out
            out[layer] = {
                "calls": calls,
                "self_ns": raw - overhead,
                "raw_self_ns": raw,
                "tally": sum(cell.tally for cell in cells),
                "samples": [ns for cell in cells for ns in cell.samples],
            }
        return out

    def trees(self) -> list[list[dict]]:
        """The raw spans of the first ``keep_trees`` requests, children
        before parents (the order they closed in)."""
        return [
            [
                {"layer": layer, "depth": depth, "start_ns": start,
                 "duration_ns": elapsed}
                for layer, depth, start, elapsed in tree
            ]
            for tree in self._trees
        ]


class _Probe:
    def noop(self):
        return None


def _noop_hook(cell, args, result) -> None:
    if result is not None:
        cell.tally += 1


def _drive(call, iterations: int, *args) -> None:
    for __ in range(iterations):
        call(*args)


#: Calls per calibration: a few milliseconds, short enough to run at
#: every block boundary of a traced phase.
CALIBRATION_CALLS = 2000


def calibrate() -> dict:
    """Measure what one wrapper costs inside and outside its span.

    A parent span drives ``CALIBRATION_CALLS`` calls of an empty
    method, once bare and once through a wrapper (with and without a
    result hook).  The wrapped child's self time per call, less the
    cost of the bare call it holds, is the in-span overhead.  The
    growth of the parent's self time per call, plus that bare call
    (which moved into the child span), is the out-of-span overhead.
    Returns nanoseconds per call.
    """
    calls = CALIBRATION_CALLS
    probe = _Probe()
    ledger = Ledger(keep_trees=0, layers=("parent", "child", "hooked"))
    plain = ledger.wrap("child", _Probe.noop)
    hooked = ledger.wrap("hooked", _Probe.noop, _noop_hook)
    drive = ledger.wrap("parent", _drive)
    cells = ledger._state().cells

    start = perf_counter_ns()
    _drive(_Probe.noop, calls, probe)
    call_cost = (perf_counter_ns() - start) / calls
    start = perf_counter_ns()
    for __ in range(calls):
        pass
    call_cost -= (perf_counter_ns() - start) / calls

    drive(_Probe.noop, calls, probe)
    bare = cells["parent"].self_ns
    drive(plain, calls, probe)
    wrapped = cells["parent"].self_ns - bare
    drive(hooked, calls, probe)
    return {
        "overhead_in": cells["child"].self_ns / calls - call_cost,
        "overhead_in_hooked": cells["hooked"].self_ns / calls - call_cost,
        "overhead_out": (wrapped - bare) / calls + call_cost,
    }
