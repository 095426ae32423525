"""The serving-time observability plane.

One :class:`ObsPlane` rides one :class:`~repro.telemetry.Telemetry`
(as ``telemetry.obs``) and gives the serve path four things the batch
registry cannot:

- a **windowed store** (:mod:`repro.obs.windows`) keyed by (tenant,
  api, region, outcome, code), recorded once per request at virtual
  completion time with the trace id as exemplar;
- an **SLO engine** (:mod:`repro.obs.slo`) evaluating burn-rate
  alerts over those windows;
- a **propagated request context** + **tail sampler**
  (:mod:`repro.obs.tracectx`): every request gets a root span and a
  context the lower layers stamp hops and waits onto; at completion
  the sampler keeps error/shed/slow trees and a seeded fraction of
  the healthy ones.  Only kept roots are ever filed in the tracer,
  so trace output stays bounded under load;
- an optional **drift monitor** (:mod:`repro.obs.drift`) re-running a
  seeded fraction of reads through the tree-walking evaluator.

The per-request hot path is O(1) and small: a slotted context
manager, one span opened on the thread's span stack (it takes its id,
but is filed as a root only if kept), one dict lookup for the
request's windowed series, one windowed record and one crc32 draw.
Root attributes, hop child spans and filing happen only for kept
traces (and for roots nested under an outer span, which are never
dropped); SLO evaluation and dashboards run at query time.
"""

from __future__ import annotations

from ..serve.deadline import CURRENT_REQUEST
from ..telemetry.spans import Span
from .slo import SLOEngine, SLOSpec
from .tracectx import (
    RequestContext,
    TailSampler,
    TraceIdAllocator,
)
from .windows import WindowedStore

#: Error codes that count against availability SLOs (the service
#: failed the caller).  Everything else — validation rejects, missing
#: resources — is the *caller's* error: the service answered
#: correctly, so the request is good for SLO purposes and eligible
#: for probabilistic (rather than guaranteed) trace sampling.
INFRA_CODES = frozenset({
    "ServiceUnavailable",
    "RequestTimeout",
    "RequestLimitExceeded",
    "InternalFailure",
    "InternalError",
    "CircuitOpen",
    "ThrottlingException",
})


class ObsPlane:
    """One serving run's live observability: windows, SLOs, sampling.

    The windowed store keeps :class:`WindowedStore`'s default window
    width and ring capacity, and the tail sampler its default slow
    threshold; ``sample_keep`` is the healthy-trace keep rate.
    """

    def __init__(
        self,
        telemetry,
        seed: int = 7,
        slos: "list[SLOSpec] | None" = None,
        sample_keep: float = 0.05,
        drift_rate: float = 0.0,
    ):
        self.telemetry = telemetry
        self.clock = telemetry.clock
        self.store = WindowedStore()
        self.slo = SLOEngine(self.store, slos or [])
        self.sampler = TailSampler(keep_rate=sample_keep, seed=seed)
        self._trace_ids = TraceIdAllocator(seed)
        self.tracer = telemetry.tracer
        #: ``serve.requests`` series by (tenant, api, region, outcome,
        #: code), so a request finds its series without rendering a key.
        self._requests: dict[tuple, object] = {}
        self.drift = None
        if drift_rate > 0:
            from .drift import DriftMonitor

            self.drift = DriftMonitor(self, rate=drift_rate, seed=seed)
        telemetry.obs = self

    # -- the per-request hot path --------------------------------------------

    def request(self, tenant: str, api: str) -> "_Request":
        """Wrap one request: root span, propagated context, sampling.

        The ``with`` body runs with a :class:`RequestContext` installed
        in the context variable, so admission, the region gate and the
        concurrency layer can stamp what they see; at exit the request
        is classified, recorded into the windowed store, and its trace
        tree is kept or dropped by the tail sampler.
        """
        return _Request(self, tenant, api)

    def classify(self, ctx: RequestContext, code: str) -> None:
        """Map one response's error code onto the request's outcome."""
        if not code:
            ctx.outcome = "ok"
            ctx.error_code = ""
        elif ctx.shed:
            ctx.outcome = "shed"
            ctx.error_code = code
        elif code in INFRA_CODES:
            ctx.outcome = "error"
            ctx.error_code = code
        else:
            ctx.outcome = "client_error"
            ctx.error_code = code

    def _finish(self, ctx: RequestContext, root: Span) -> None:
        now = self.clock.now()
        latency_s = root.duration
        # Decide sampling *before* recording: exemplars must point at
        # trace ids that survive into the exported span set, so only
        # kept traces are linkable from histogram windows.
        decision = self.sampler.decide(ctx, latency_s)
        kept = decision["sampled"]
        exemplar = ctx.trace_id if kept else ""
        region = ctx.resource_region or "-"
        code = ctx.error_code or "-"
        key = (ctx.tenant, ctx.api, region, ctx.outcome, code)
        series = self._requests.get(key)
        if series is None:
            series = self._requests[key] = self.store.histogram(
                "serve.requests", tenant=ctx.tenant, api=ctx.api,
                region=region, outcome=ctx.outcome, code=code,
            )
        series.record(now, latency_s, exemplar=exemplar)
        for hop in ctx.hops:
            self.store.histogram(
                "net.rtt", src=hop["src"], dst=hop["dst"],
            ).record(hop.get("at", now), hop["rtt_s"],
                     exemplar=exemplar)

        attached = root.parent_id is not None
        if kept or attached:
            _stamp(ctx, root)
        if kept:
            root.set("sampled", True)
            root.set("sample_reason", decision["reason"])
            self._materialize_hops(ctx, root)
            if not attached:
                self.tracer.file_root(root)

    def _materialize_hops(self, ctx: RequestContext, root: Span) -> None:
        """Render the context's hop records as child spans.

        Done only for kept traces — a dropped tree never pays for its
        children.  Hop span ids derive from the root's, so they stay
        unique without touching the tracer's counter.
        """
        for index, hop in enumerate(ctx.hops, 1):
            failover = hop["reason"] == "replica_failover"
            span = Span(
                name="replica.failover" if failover else "net.hop",
                kind="net",
                span_id=f"{root.span_id}.h{index}",
                parent_id=root.span_id,
                start=hop.get("at", root.start) - hop["rtt_s"],
                attributes={
                    "src": hop["src"], "dst": hop["dst"],
                    "rtt_s": hop["rtt_s"],
                    "delivered": hop["delivered"],
                },
            )
            span.end = span.start + hop["rtt_s"]
            if hop["reason"] and not failover:
                span.attributes["reason"] = hop["reason"]
                if not hop["delivered"]:
                    span.status = "error"
            root.children.append(span)

    # -- reporting -----------------------------------------------------------

    def request_rate(self, lookback: float, tenant: str = "") -> float:
        where = {"tenant": tenant} if tenant else {}
        return self.store.rate(
            "serve.requests", lookback, self.clock.now(), **where
        )

    def slo_report(self) -> dict:
        return self.slo.report(self.clock.now())

    def report(self) -> dict:
        """The plane's full JSON-ready summary for one run."""
        out = {
            "resolution": self.store.resolution,
            "series": len(self.store),
            "sampling": self.sampler.as_dict(),
            "slo": self.slo_report() if self.slo.specs else None,
        }
        if self.drift is not None:
            out["drift"] = self.drift.as_dict()
        return out


def _stamp(ctx: RequestContext, root: Span) -> None:
    """Write what the request learned onto its root span."""
    root.set("trace_id", ctx.trace_id)
    root.set("tenant", ctx.tenant)
    root.set("api", ctx.api)
    root.set("outcome", ctx.outcome)
    if ctx.error_code:
        root.set("error_code", ctx.error_code)
    if ctx.client_region:
        root.set("client_region", ctx.client_region)
    if ctx.resource_region:
        root.set("resource_region", ctx.resource_region)
    if ctx.hops:
        root.set("rtt_total_s", round(ctx.rtt_total_s, 9))
    if ctx.failover:
        root.set("failover", True)
    if ctx.queue_depth:
        root.set("queue_depth", ctx.queue_depth)
    if ctx.lock_wait_s:
        root.set("lock_wait_s", round(ctx.lock_wait_s, 6))
    if ctx.registry_version:
        # The single published version this request observed (pinned
        # for reads, published for writes) on the MVCC serve path.
        root.set("registry.version", ctx.registry_version)


class _Request:
    """The context manager :meth:`ObsPlane.request` returns.

    Enter opens the ``serve.request`` span on the thread's span stack
    without filing it as a root and installs the request's context;
    exit closes the span and hands both to :meth:`ObsPlane._finish`.
    """

    __slots__ = ("plane", "tenant", "api", "ctx", "root", "token")

    def __init__(self, plane: ObsPlane, tenant: str, api: str):
        self.plane = plane
        self.tenant = tenant
        self.api = api

    def __enter__(self) -> RequestContext:
        plane = self.plane
        root = self.root = plane.tracer.open(
            "serve.request", "serve", file=False
        )
        ctx = self.ctx = RequestContext(
            plane._trace_ids.next_id(), self.tenant, self.api,
            root.start, root,
        )
        self.token = CURRENT_REQUEST.set(ctx)
        return ctx

    def __exit__(self, exc_type, error, traceback) -> bool:
        ctx, root, plane = self.ctx, self.root, self.plane
        plane.tracer.close(root, error)
        if error is not None:
            ctx.outcome = "error"
            if not ctx.error_code:
                ctx.error_code = exc_type.__name__
        CURRENT_REQUEST.reset(self.token)
        plane._finish(ctx, root)
        return False
