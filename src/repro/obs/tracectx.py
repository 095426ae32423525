"""Propagated per-request trace context and tail-based sampling.

A :class:`RequestContext` is born at the front door and rides a
context variable through every layer a request crosses — admission,
the region gate, netem transmit, replica failover — so each hop can
stamp attributes (RTT, queue depth, lock wait) onto one shared record
without threading a parameter through every signature.  The request's
root span plus the hop spans opened under it render as **one tree**
per request, spanning client region to resource region.

The :class:`TailSampler` decides a trace's fate *after* it completes
(tail-based, not head-based): error, shed, and slow traces are always
kept — those are the ones worth reading — while healthy-and-fast
traces are kept at a seeded probabilistic rate.  Decisions draw from
``crc32`` over (seed, trace id), so the same run keeps the same
traces every time; Python's ``hash()`` is per-process randomized and
deliberately avoided.
"""

from __future__ import annotations

import itertools
import zlib


class RequestContext:
    """Everything the layers learn about one in-flight request."""

    __slots__ = (
        "trace_id", "tenant", "api", "start", "root",
        "client_region", "resource_region", "hops",
        "queue_depth", "queue_wait_s", "lock_wait_s",
        "registry_version", "outcome", "error_code", "shed", "failover",
    )

    def __init__(self, trace_id: str, tenant: str, api: str,
                 start: float, root=None):
        self.trace_id = trace_id
        self.tenant = tenant
        self.api = api
        self.start = start
        self.root = root  # the request's root span, when tracing
        self.client_region = ""
        self.resource_region = ""
        #: Per-hop network records: ``{src, dst, rtt_s, delivered,
        #: reason}`` — stamped by the region gate from netem
        #: deliveries, rendered as ``net.hop`` child spans.
        self.hops: list[dict] = []
        self.queue_depth = 0
        self.queue_wait_s = 0.0
        self.lock_wait_s = 0.0
        #: The published registry version this request observed (MVCC
        #: serve path: readers pin exactly one; writers record the one
        #: they published).  0 = not versioned (fallback lock path).
        self.registry_version = 0
        self.outcome = "ok"  # "ok" | "client_error" | "error" | "shed"
        self.error_code = ""
        self.shed = False
        self.failover = False

    def add_hop(self, src: str, dst: str, rtt_s: float,
                delivered: bool = True, reason: str = "",
                at: float = 0.0) -> None:
        """Record one network hop; ``at`` is its virtual finish time."""
        self.hops.append({
            "src": src, "dst": dst, "rtt_s": round(rtt_s, 9),
            "delivered": delivered, "reason": reason, "at": at,
        })

    @property
    def rtt_total_s(self) -> float:
        return sum(hop["rtt_s"] for hop in self.hops)


class TraceIdAllocator:
    """Cheap, deterministic trace ids: ``t<seed-hex>-<counter>``."""

    __slots__ = ("_prefix", "_counter")

    def __init__(self, seed: int):
        self._prefix = f"t{seed & 0xFFFFFFFF:x}"
        self._counter = itertools.count(1)

    def next_id(self) -> str:
        return f"{self._prefix}-{next(self._counter):08x}"


class TailSampler:
    """Keep the traces worth reading; bound the rest, deterministically.

    - error / shed traces: always kept;
    - slow traces (latency >= ``slow_threshold_s``): always kept;
    - everything else: kept iff a seeded draw over the trace id lands
      under ``keep_rate``.

    ``decide`` returns the decision record; the caller files kept
    trees with the tracer (``Tracer.file_root``) and simply never files
    dropped ones.  The sampler itself never touches the tracer, so it
    stays testable in isolation.
    """

    __slots__ = ("keep_rate", "slow_threshold_s", "seed",
                 "kept", "dropped", "kept_by_reason")

    def __init__(self, keep_rate: float = 0.05,
                 slow_threshold_s: float = 1.0, seed: int = 7):
        self.keep_rate = min(1.0, max(0.0, keep_rate))
        self.slow_threshold_s = slow_threshold_s
        self.seed = seed
        self.kept = 0
        self.dropped = 0
        self.kept_by_reason: dict[str, int] = {}

    def _draw(self, trace_id: str) -> float:
        payload = f"{self.seed}:{trace_id}".encode()
        return (zlib.crc32(payload) & 0xFFFFFFFF) / 4294967296.0

    def decide(self, ctx: RequestContext, latency_s: float) -> dict:
        """The sampling decision for one completed request."""
        if ctx.shed or ctx.outcome == "shed":
            keep, reason = True, "shed"
        elif ctx.outcome == "error":
            keep, reason = True, "error"
        elif latency_s >= self.slow_threshold_s:
            keep, reason = True, "slow"
        elif self._draw(ctx.trace_id) < self.keep_rate:
            keep, reason = True, "probabilistic"
        else:
            keep, reason = False, "dropped"
        if keep:
            self.kept += 1
            self.kept_by_reason[reason] = (
                self.kept_by_reason.get(reason, 0) + 1
            )
        else:
            self.dropped += 1
        return {"sampled": keep, "reason": reason}

    @property
    def seen(self) -> int:
        return self.kept + self.dropped

    def as_dict(self) -> dict:
        return {
            "keep_rate": self.keep_rate,
            "slow_threshold_s": self.slow_threshold_s,
            "seed": self.seed,
            "seen": self.seen,
            "kept": self.kept,
            "dropped": self.dropped,
            "kept_by_reason": dict(sorted(self.kept_by_reason.items())),
        }
