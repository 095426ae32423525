"""Admission control and overload shedding for the serve path.

A production front door defends itself in layers, all deterministic
on the virtual clock so overload scenarios are testable without wall
time:

- **per-tenant token buckets** (the resilience layer's
  :class:`~repro.resilience.ratelimit.TokenBucket`) meter sustained
  rate with a burst allowance; an empty bucket sheds with
  ``RequestLimitExceeded`` and a ``RetryAfterSeconds`` hint computed
  from the refill rate;
- a **bounded admission queue**: requests beyond the concurrency
  target wait their turn implicitly (writes on the emulator's writer
  mutex), but only ``queue_depth`` of them may be in the building at
  once — the excess sheds with ``ServiceUnavailable`` instead of
  growing an unbounded backlog;
- **degraded mode**: a tenant that keeps hammering an empty bucket
  flips to degraded — writes shed immediately with
  ``ServiceUnavailable`` while reads bypass the bucket and stay
  alive (reads ride the lock-free pure route and are cheap; keeping
  them up is what lets operators *see* an overloaded system).  The
  tenant recovers after ``recover_after`` consecutive token grants
  (1 by default: the moment its bucket has tokens again; a higher
  value adds hysteresis so a tenant flapping around the degrade
  threshold does not oscillate admission decisions every request).

When a :class:`~repro.serve.allocation.HolisticAllocator` is
attached, the independent per-tenant buckets become *allocator-owned*
buckets whose rates are re-granted every interval by weighted max-min
fairness over the shared pool, each tenant's in-flight count is
bounded by its granted slot/queue budget, retries draw from a capped
per-tenant side-budget, and a request whose propagated deadline
already expired is shed before any other layer spends work on it
(``RequestTimeout`` + ``ExpiredBeforeDispatch``).

Shed responses are :class:`~repro.interpreter.errors.ApiResponse`
failures carrying the hint in ``data``; the JSON endpoint folds that
into the error envelope (``Error.RetryAfterSeconds``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from ..interpreter.errors import ApiResponse
from ..resilience.policy import VirtualClock
from ..resilience.ratelimit import TokenBucket
from .deadline import current_meta, current_request, expired_response

#: Shed codes (both are transient: well-behaved clients back off).
THROTTLED = "RequestLimitExceeded"
OVERLOADED = "ServiceUnavailable"


def _shed(code: str, message: str, retry_after: float,
          **extra: object) -> ApiResponse:
    data: dict = dict(extra)
    if retry_after > 0:
        # Every serving-layer shed promises a *positive* hint — a
        # sub-microsecond deficit must not round down to 0.0, which
        # clients could not tell apart from a fault with no hint.
        data["RetryAfterSeconds"] = max(round(retry_after, 6), 1e-6)
    return ApiResponse(
        success=False, data=data, error_code=code, error_message=message
    )


@dataclass(frozen=True)
class AdmissionDecision:
    """What the controller decided for one request."""

    admitted: bool
    response: ApiResponse | None = None  # the shed answer, if any


#: The decision of every admitted request (decisions are immutable,
#: so admitting allocates nothing).
ADMITTED = AdmissionDecision(True)


class TenantMeter:
    """One tenant's bucket plus its degraded-mode bookkeeping."""

    __slots__ = ("bucket", "alloc", "degraded", "_consecutive_sheds",
                 "_consecutive_tokens", "_lock")

    def __init__(self, bucket: TokenBucket, alloc=None):
        self.bucket = bucket
        #: The allocator grant backing this meter (fair mode only).
        self.alloc = alloc
        self.degraded = False
        self._consecutive_sheds = 0
        self._consecutive_tokens = 0
        self._lock = threading.Lock()

    def note_shed(self, degrade_after: int) -> bool:
        """Count a shed; returns True if the tenant just degraded."""
        with self._lock:
            self._consecutive_sheds += 1
            self._consecutive_tokens = 0
            if not self.degraded and (
                self._consecutive_sheds >= degrade_after
            ):
                self.degraded = True
                return True
            return False

    def note_token(self, recover_after: int = 1) -> bool:
        """A token was available; returns True if tenant recovered.

        Recovery requires ``recover_after`` *consecutive* token grants
        — the hysteresis guard: with the default of 1 a tenant
        recovers on its first token (the original behavior), while a
        higher value keeps a tenant that flaps around the degrade
        threshold from toggling its admission mode on every request.
        """
        with self._lock:
            self._consecutive_sheds = 0
            self._consecutive_tokens += 1
            if not self.degraded:
                return False
            if self._consecutive_tokens >= max(1, recover_after):
                self.degraded = False
                self._consecutive_tokens = 0
                return True
            return False


class AdmissionController:
    """Meters, bounds and sheds the traffic of every tenant.

    ``max_concurrent`` is the in-service target; ``queue_depth`` bounds
    how many further requests may wait.  ``degrade_after`` consecutive
    bucket misses flip a tenant into degraded mode.
    """

    #: The ``serve.queue_depth`` gauge and histogram, resolved on the
    #: first queue observation when telemetry is attached.
    _queue_instruments = None

    def __init__(
        self,
        clock: VirtualClock | None = None,
        rate: float = 50.0,
        burst: float = 20.0,
        max_concurrent: int = 16,
        queue_depth: int = 64,
        degrade_after: int = 8,
        recover_after: int = 1,
        allocator=None,
        telemetry=None,
    ):
        self.clock = clock or VirtualClock()
        self.rate = rate
        self.burst = burst
        self.max_concurrent = max_concurrent
        self.queue_depth = queue_depth
        self.degrade_after = degrade_after
        self.recover_after = max(1, recover_after)
        #: Optional :class:`~repro.serve.allocation.HolisticAllocator`:
        #: when attached, buckets and slot budgets are allocator grants
        #: instead of independent per-tenant config.
        self.allocator = allocator
        self.telemetry = telemetry
        self._meters: dict[str, TenantMeter] = {}
        self._in_flight = 0
        self._lock = threading.Lock()

    # -- tenant meters -------------------------------------------------------

    def meter(self, tenant: str) -> TenantMeter:
        meter = self._meters.get(tenant)
        if meter is not None:
            return meter
        with self._lock:
            meter = self._meters.get(tenant)
            if meter is None:
                if self.allocator is not None:
                    alloc = self.allocator.tenant(tenant)
                    meter = TenantMeter(alloc.bucket, alloc=alloc)
                else:
                    meter = TenantMeter(TokenBucket(
                        rate=self.rate, burst=self.burst,
                        clock=self.clock,
                    ))
                self._meters[tenant] = meter
        return meter

    def degraded(self, tenant: str) -> bool:
        return self.meter(tenant).degraded

    # -- admission -----------------------------------------------------------

    def admit(self, tenant: str, api: str,
              read_only: bool) -> AdmissionDecision:
        """Decide one request; pair every admit with :meth:`release`."""
        meta = current_meta()
        # Layer 0: a request whose deadline already expired is wasted
        # work by definition — shed it before spending any budget.
        if meta is not None and meta.expired(self.clock.now()):
            return self._expire(tenant, api, "admission")
        alloc = None
        if self.allocator is not None:
            alloc = self.allocator.observe(tenant)
            # Layer 0b: retries draw from the capped side-budget, so a
            # retry storm is bounded instead of amplifying overload.
            if meta is not None and meta.retry:
                if not alloc.retry_bucket.try_take():
                    alloc.retry_exhausted += 1
                    self._count(
                        tenant, "allocation.retry_budget_exhausted"
                    )
                    self._count_shed(tenant, OVERLOADED, api)
                    return AdmissionDecision(False, _shed(
                        OVERLOADED,
                        "Your retry budget is exhausted; wait out the "
                        "Retry-After before retrying.",
                        retry_after=alloc.retry_bucket.retry_after(),
                        RetryBudgetExhausted=True,
                    ))

        # Layer 1: the building is full — shed before any queueing.
        with self._lock:
            capacity = self.max_concurrent + self.queue_depth
            if self._in_flight >= capacity:
                self._count_shed(tenant, OVERLOADED, api)
                return AdmissionDecision(False, _shed(
                    OVERLOADED,
                    "The admission queue is full; reduce your request "
                    "rate and retry.",
                    retry_after=1.0 / max(self.rate, 1e-9),
                ))
            self._in_flight += 1
            waiting = max(0, self._in_flight - self.max_concurrent)
        self._observe_queue(waiting)

        # Layer 1b: the tenant's *granted* slot/queue budget — an
        # aggressor fills its own allocation, never the whole building.
        if alloc is not None and not self.allocator.enter(alloc):
            self._release_slot()
            self._count_shed(tenant, OVERLOADED, api)
            return AdmissionDecision(False, _shed(
                OVERLOADED,
                "Your granted concurrency budget is full; reduce your "
                "in-flight requests and retry.",
                retry_after=1.0 / max(alloc.granted_rate, 1e-9),
            ))

        meter = self.meter(tenant)
        # Layer 2: degraded mode — reads ride free, writes shed flat.
        if meter.degraded:
            if read_only:
                self._count(tenant, "serve.degraded_reads")
                return self._admitted(alloc)
            retry_after = meter.bucket.retry_after()
            if not meter.bucket.try_take():
                self._backout(alloc)
                self._count_shed(tenant, OVERLOADED, api)
                return AdmissionDecision(False, _shed(
                    OVERLOADED,
                    "The service is in degraded mode; writes are "
                    "temporarily shed.",
                    retry_after=retry_after,
                ))
            self._note_recovery(tenant, meter)
            return self._admitted(alloc)

        # Layer 3: the token bucket.
        if meter.bucket.try_take():
            # A healthy tenant with no shed streak has nothing to
            # reset: skip the meter (and its lock) entirely.
            if meter._consecutive_sheds:
                meter.note_token(self.recover_after)
            return self._admitted(alloc)
        retry_after = meter.bucket.retry_after()
        if meter.note_shed(self.degrade_after):
            self._count(tenant, "serve.degraded_entries")
            if self.telemetry is not None:
                self.telemetry.event("tenant_degraded", tenant=tenant)
        if read_only and meter.degraded:
            # The shed that tipped the tenant over still answers reads.
            self._count(tenant, "serve.degraded_reads")
            return self._admitted(alloc)
        self._backout(alloc)
        self._count_shed(tenant, THROTTLED, api)
        return AdmissionDecision(False, _shed(
            THROTTLED,
            "Request limit exceeded.",
            retry_after=retry_after,
        ))

    def release(self, tenant: str | None = None) -> None:
        """A previously admitted request finished."""
        self._release_slot()
        if self.allocator is not None and tenant is not None:
            meter = self._meters.get(tenant)
            if meter is not None and meter.alloc is not None:
                self.allocator.leave(meter.alloc)

    # -- internals -----------------------------------------------------------

    def _admitted(self, alloc) -> AdmissionDecision:
        if alloc is not None:
            self.allocator.note_admitted(alloc)
        return ADMITTED

    def _backout(self, alloc) -> None:
        """Undo the slot claims of a request shed after layer 1."""
        self._release_slot()
        if alloc is not None:
            self.allocator.leave(alloc)

    def _expire(self, tenant: str, api: str,
                stage: str) -> AdmissionDecision:
        ctx = current_request()
        if ctx is not None:
            ctx.shed = True
        if self.allocator is not None:
            self.allocator.tenant(tenant).deadline_sheds += 1
        if self.telemetry is not None:
            self.telemetry.metrics.counter(
                "allocation.deadline_expired", tenant=tenant,
                stage=stage,
            ).inc()
            self.telemetry.event(
                "deadline_expired", tenant=tenant, api=api, stage=stage,
            )
        return AdmissionDecision(False, expired_response(stage))

    def _note_recovery(self, tenant: str, meter: TenantMeter) -> None:
        if meter.note_token(self.recover_after) and (
            self.telemetry is not None
        ):
            self.telemetry.event("tenant_recovered", tenant=tenant)

    def _release_slot(self) -> None:
        with self._lock:
            self._in_flight -= 1

    def _observe_queue(self, waiting: int) -> None:
        ctx = current_request()
        if ctx is not None:
            ctx.queue_depth = waiting
        if self.telemetry is None:
            return
        if self._queue_instruments is None:
            metrics = self.telemetry.metrics
            self._queue_instruments = (
                metrics.gauge("serve.queue_depth"),
                metrics.histogram("serve.queue_depth_samples"),
            )
        gauge, samples = self._queue_instruments
        gauge.set(waiting)
        samples.observe(float(waiting))

    def _count(self, tenant: str, name: str) -> None:
        if self.telemetry is not None:
            self.telemetry.metrics.counter(name, tenant=tenant).inc()

    def _count_shed(self, tenant: str, code: str, api: str) -> None:
        ctx = current_request()
        if ctx is not None:
            ctx.shed = True
        if self.telemetry is not None:
            self.telemetry.metrics.counter(
                "serve.shed", code=code, tenant=tenant
            ).inc()
            self.telemetry.event(
                "request_shed", tenant=tenant, code=code, api=api
            )
