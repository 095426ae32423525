"""Serving-time observability: windows, SLOs, sampled traces.

Batch telemetry (:mod:`repro.telemetry`) answers "what did this build
do"; this package answers the operator's questions about a *serving*
run, live and deterministically on the virtual clock:

- :class:`WindowedStore` / :class:`WindowedSeries` — ring-buffer time
  series keyed by (tenant, api, region, outcome, code), queryable as
  rate / p50 / p95 / p99 over arbitrary lookbacks, with per-window
  exemplar trace ids;
- :class:`SLOSpec` / :class:`SLOEngine` — declarative availability
  and latency objectives with multi-window, multi-burn-rate alerting
  (the SRE page/ticket shapes, scaled to the spec's virtual period);
- :class:`ObsPlane` — the per-request plane: propagated trace
  context, one root span per request, tail-based sampling
  (:class:`TailSampler`) that keeps every error/shed/slow trace and a
  seeded fraction of the rest;
- :class:`DriftMonitor` — live compiled-vs-evaluator agreement
  sampling;
- :func:`render_frame` / :func:`record_frames` — the ``repro top``
  ASCII dashboard.

Attach a plane with ``ObsPlane(telemetry, ...)``; instrumented layers
discover it through ``telemetry.obs`` and the propagated
:func:`current_request` context, so un-instrumented runs pay nothing.
"""

from ..serve.deadline import current_request
from .dashboard import record_frames, render_frame
from .drift import DriftMonitor
from .plane import INFRA_CODES, ObsPlane
from .slo import (
    ALERT_SHAPES,
    BurnAlert,
    default_slos,
    GOOD_OUTCOMES,
    SLOEngine,
    SLOSpec,
    SLOStatus,
)
from .tracectx import (
    RequestContext,
    TailSampler,
    TraceIdAllocator,
)
from .windows import WindowedSeries, WindowedStore

__all__ = [
    "ALERT_SHAPES",
    "BurnAlert",
    "current_request",
    "default_slos",
    "DriftMonitor",
    "GOOD_OUTCOMES",
    "INFRA_CODES",
    "ObsPlane",
    "record_frames",
    "render_frame",
    "RequestContext",
    "SLOEngine",
    "SLOSpec",
    "SLOStatus",
    "TailSampler",
    "TraceIdAllocator",
    "WindowedSeries",
    "WindowedStore",
]
