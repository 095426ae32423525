"""Holistic fair allocation across tenants and shards (HARE-style).

The admission layer's original design gave every tenant an independent
token bucket: simple, but an aggressor can monopolize the shared
queue/compute slots, idle tenants' budget evaporates instead of
serving anyone, and a dead shard's budget dies with it.  This module
replaces that with one *holistic* allocator in the spirit of
HopperKV's HARE: a single resource pool — request-rate tokens,
compute slots and queue depth — jointly divided across all tenants
(and, under :class:`~repro.serve.shard.ShardedFrontDoor`, across
shards) by **weighted max-min fairness with work conservation**:

- every live tenant is *guaranteed* at least
  ``min(demand, weight-proportional fair share)`` of the pool — the
  isolation bound an aggressor can never push a victim below;
- budget a tenant does not demand is redistributed to tenants that
  do (water-filling), so total throughput is never worse than the
  independent-bucket baseline;
- reallocation is periodic on the virtual clock, driven by the
  *observed* per-tenant demand (an EWMA of arrival rate), so the
  split tracks the workload instead of a static config;
- shard health folds in: tenants homed on a dead shard are pinned to
  a floor rate (their requests can only shed at the RPC layer
  anyway) and the freed budget flows to survivors for the duration
  of the failover — a dying neighbor *raises* everyone else's
  budget instead of wasting it.

Each tenant also gets a capped **retry side-budget** (a small token
bucket refilled as a fraction of its granted rate).  Retries draw
from it before normal admission; an exhausted budget converts the
retry into an immediate ``ServiceUnavailable`` with an honest
``Retry-After`` — a retry storm is bounded by construction instead of
amplifying the overload that caused it.

Everything here is deterministic on the shared
:class:`~repro.resilience.policy.VirtualClock`; the noisy-neighbor
bench (``benchmarks/bench_fairness.py``) asserts the fairness and
work-conservation claims as numbers, not prose.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from ..resilience.policy import VirtualClock
from ..resilience.ratelimit import TokenBucket

#: Weight of a tenant missing from ``AllocationConfig.weights``.
DEFAULT_WEIGHT = 1.0

#: EWMA smoothing factor for observed per-tenant demand.
DEMAND_ALPHA = 0.5

#: Margin a satisfied tenant keeps above its observed demand before
#: donating the rest of its fair share.
DEMAND_HEADROOM = 1.25


@dataclass
class AllocationConfig:
    """The shared pool and the fairness knobs.

    ``total_rate`` / ``total_burst`` are the pool's request tokens per
    virtual second and its burst allowance; ``total_slots`` and
    ``total_queue`` bound in-service and queued requests.  ``weights``
    maps tenant name -> weight (missing tenants get
    ``DEFAULT_WEIGHT``); grants are max-min fair in proportion to
    weight, and a satisfied tenant keeps ``DEMAND_HEADROOM`` times
    its observed demand before donating the rest.  ``min_rate``
    is the floor every tenant keeps so it can re-establish demand
    after an idle or throttled spell.
    """

    total_rate: float = 200.0
    total_burst: float = 80.0
    total_slots: int = 16
    total_queue: int = 64
    weights: dict = field(default_factory=dict)
    realloc_interval: float = 1.0
    retry_rate_fraction: float = 0.1
    retry_burst: float = 5.0
    min_rate: float = 0.5


class TenantAllocation:
    """One tenant's live grant: buckets, budgets and bookkeeping."""

    __slots__ = (
        "name", "weight", "bucket", "retry_bucket",
        "granted_rate", "granted_burst", "fair_share",
        "granted_slots", "granted_queue",
        "demand", "arrivals", "in_flight",
        "admitted", "retry_exhausted", "deadline_sheds",
    )

    def __init__(self, name: str, weight: float, bucket: TokenBucket,
                 retry_bucket: TokenBucket):
        self.name = name
        self.weight = weight
        self.bucket = bucket
        self.retry_bucket = retry_bucket
        self.granted_rate = bucket.rate
        self.granted_burst = bucket.burst
        self.fair_share = bucket.rate
        self.granted_slots = 1
        self.granted_queue = 1
        #: EWMA of observed arrival rate (requests / virtual second).
        self.demand = 0.0
        #: Arrivals since the last reallocation window closed.
        self.arrivals = 0
        self.in_flight = 0
        self.admitted = 0
        self.retry_exhausted = 0
        self.deadline_sheds = 0

    def as_dict(self) -> dict:
        return {
            "weight": self.weight,
            "demand": round(self.demand, 3),
            "fair_share": round(self.fair_share, 3),
            "granted_rate": round(self.granted_rate, 3),
            "granted_slots": self.granted_slots,
            "granted_queue": self.granted_queue,
            "admitted": self.admitted,
            "retry_exhausted": self.retry_exhausted,
            "deadline_sheds": self.deadline_sheds,
        }


class HolisticAllocator:
    """Weighted max-min, work-conserving budget split on the clock.

    The admission controller calls :meth:`observe` once per offered
    request (demand accounting + the periodic reallocation check) and
    uses the returned :class:`TenantAllocation`'s buckets and slot
    budgets as its shed thresholds.  A sharded front door binds the
    tenant -> shard map with :meth:`bind_shards` and feeds worker
    liveness through :meth:`set_shard_health`; grants re-balance at
    the next reallocation boundary (or immediately on a health flip).
    """

    def __init__(self, clock: VirtualClock | None = None,
                 config: AllocationConfig | None = None,
                 telemetry=None):
        self.clock = clock or VirtualClock()
        self.config = config or AllocationConfig()
        self.telemetry = telemetry
        self._tenants: dict[str, TenantAllocation] = {}
        self._lock = threading.RLock()
        self._last_realloc = self.clock.now()
        self.reallocations = 0
        #: tenant -> shard placement (bound by the sharded front door).
        self._shard_of = None
        self._shard_alive: dict[int, bool] = {}
        #: Bounded reallocation history — the allocation trace CI
        #: uploads when a fairness gate fails.
        self.history: list[dict] = []

    # -- shard binding -------------------------------------------------------

    def bind_shards(self, shard_of, shards: int) -> None:
        """Attach the tenant -> shard map; all shards start alive."""
        with self._lock:
            self._shard_of = shard_of
            self._shard_alive = {
                index: True for index in range(max(1, shards))
            }

    def set_shard_health(self, index: int, alive: bool) -> None:
        """A shard died or recovered: re-split the pool *now*."""
        with self._lock:
            if self._shard_alive.get(index) == alive:
                return
            self._shard_alive[index] = alive
            if self.telemetry is not None:
                self.telemetry.event(
                    "allocation.shard_health", shard=index, alive=alive,
                    at=round(self.clock.now(), 9),
                )
            self._realloc_locked(self.clock.now())

    def shard_alive(self, tenant: str) -> bool:
        if self._shard_of is None:
            return True
        return self._shard_alive.get(self._shard_of(tenant), True)

    # -- tenant lifecycle ----------------------------------------------------

    def tenant(self, name: str) -> TenantAllocation:
        """Get or create one tenant's allocation (creation re-splits)."""
        alloc = self._tenants.get(name)
        if alloc is not None:
            return alloc
        with self._lock:
            alloc = self._tenants.get(name)
            if alloc is None:
                config = self.config
                weight = float(config.weights.get(name, DEFAULT_WEIGHT))
                bucket = TokenBucket(
                    rate=max(config.min_rate, config.total_rate),
                    burst=config.total_burst, clock=self.clock,
                )
                retry_bucket = TokenBucket(
                    rate=max(
                        0.1,
                        config.retry_rate_fraction * config.total_rate,
                    ),
                    burst=config.retry_burst, clock=self.clock,
                )
                alloc = TenantAllocation(name, weight, bucket,
                                         retry_bucket)
                self._tenants[name] = alloc
                # Optimistic first grant: a brand-new tenant starts at
                # its weighted fair share (demand EWMA takes over at
                # the next boundary) so cold starts are not throttled.
                alloc.demand = self._fair_share_locked(alloc)
                self._realloc_locked(self.clock.now())
        return alloc

    def observe(self, name: str) -> TenantAllocation:
        """Count one offered request; reallocate when the window ends."""
        alloc = self.tenant(name)
        with self._lock:
            alloc.arrivals += 1
            now = self.clock.now()
            if now - self._last_realloc >= self.config.realloc_interval:
                self._realloc_locked(now)
        return alloc

    # -- per-request budget enforcement --------------------------------------

    def enter(self, alloc: TenantAllocation) -> bool:
        """Claim one of the tenant's slot/queue budget; False == full."""
        with self._lock:
            budget = alloc.granted_slots + alloc.granted_queue
            if alloc.in_flight >= budget:
                return False
            alloc.in_flight += 1
            return True

    def leave(self, alloc: TenantAllocation) -> None:
        with self._lock:
            alloc.in_flight = max(0, alloc.in_flight - 1)

    def note_admitted(self, alloc: TenantAllocation) -> None:
        alloc.admitted += 1
        if self.telemetry is not None:
            self.telemetry.metrics.counter(
                "allocation.used", tenant=alloc.name
            ).inc()

    # -- the split -----------------------------------------------------------

    def _fair_share_locked(self, alloc: TenantAllocation) -> float:
        live_weight = sum(
            other.weight for other in self._tenants.values()
            if self.shard_alive(other.name)
        ) or alloc.weight
        if not self.shard_alive(alloc.name):
            return self.config.min_rate
        return self.config.total_rate * alloc.weight / live_weight

    def maybe_realloc(self, force: bool = False) -> None:
        with self._lock:
            now = self.clock.now()
            if force or (
                now - self._last_realloc >= self.config.realloc_interval
            ):
                self._realloc_locked(now)

    def _realloc_locked(self, now: float) -> None:
        """Demand-driven weighted max-min water-fill over the pool."""
        config = self.config
        elapsed = now - self._last_realloc
        tenants = list(self._tenants.values())
        if not tenants:
            return
        # 1. Fold the window's arrivals into each tenant's demand EWMA
        #    — but only over a window wide enough to estimate a rate.
        #    A re-split triggered an instant after the last one (tenant
        #    creation, shard health flip) would divide arrivals by a
        #    near-zero elapsed and blow the EWMA up by orders of
        #    magnitude, so those re-splits reuse the standing demand
        #    and leave the window accruing.
        if elapsed >= 1e-3:
            self._last_realloc = now
            for alloc in tenants:
                observed = alloc.arrivals / elapsed
                alloc.demand = (
                    DEMAND_ALPHA * observed
                    + (1 - DEMAND_ALPHA) * alloc.demand
                )
                alloc.arrivals = 0

        live = [a for a in tenants if self.shard_alive(a.name)]
        dead = [a for a in tenants if not self.shard_alive(a.name)]
        # 2. Dead-shard tenants keep only the floor: their requests
        #    can do nothing but shed at the RPC layer, so their budget
        #    flows to survivors until the worker recovers.
        grants: dict[str, float] = {
            a.name: config.min_rate for a in dead
        }
        capacity = max(0.0, config.total_rate
                       - config.min_rate * len(dead))
        # 3. Water-fill the live tenants: repeatedly offer the
        #    remaining capacity in proportion to weight; tenants whose
        #    demand target is below their offer take only the target
        #    and donate the rest to the still-hungry.
        active = {
            a.name: max(config.min_rate, a.demand * DEMAND_HEADROOM)
            for a in live
        }
        weights = {a.name: a.weight for a in live}
        remaining = capacity
        while active and remaining > 1e-9:
            total_weight = sum(weights[name] for name in active)
            offers = {
                name: remaining * weights[name] / total_weight
                for name in active
            }
            capped = [
                name for name in active
                if active[name] <= offers[name] + 1e-9
            ]
            if not capped:
                # Everyone wants more than their share: the offer *is*
                # the weighted max-min grant.
                grants.update(offers)
                remaining = 0.0
                active = {}
                break
            for name in capped:
                grants[name] = active.pop(name)
                remaining -= grants[name]
        for name in active:  # capacity ran dry under the floors
            grants.setdefault(name, config.min_rate)
        # 4. Work conservation above demand: spread any leftover over
        #    the live tenants by weight, so bursts beyond the measured
        #    demand still find budget instead of idle capacity.
        if remaining > 1e-9 and live:
            total_weight = sum(a.weight for a in live)
            for alloc in live:
                grants[alloc.name] += (
                    remaining * alloc.weight / total_weight
                )
        # 5. Apply: rate/burst onto the buckets, integer slot/queue
        #    budgets proportional to the rate split (1 minimum each so
        #    every tenant can always make *some* progress).
        total_granted = sum(grants.values()) or 1.0
        for alloc in tenants:
            rate = max(config.min_rate, grants[alloc.name])
            fraction = rate / total_granted
            alloc.granted_rate = rate
            alloc.fair_share = self._fair_share_locked(alloc)
            alloc.granted_burst = max(
                1.0, config.total_burst * fraction
            )
            alloc.bucket.configure(rate, alloc.granted_burst)
            alloc.retry_bucket.configure(
                max(0.1, config.retry_rate_fraction * rate),
                config.retry_burst,
            )
            alloc.granted_slots = max(
                1, int(round(config.total_slots * fraction))
            )
            alloc.granted_queue = max(
                1, int(round(config.total_queue * fraction))
            )
        self.reallocations += 1
        self._export_locked(now)

    # -- observability -------------------------------------------------------

    def _export_locked(self, now: float) -> None:
        entry = {
            "at": round(now, 6),
            "reallocation": self.reallocations,
            "shards_down": sorted(
                index for index, alive in self._shard_alive.items()
                if not alive
            ),
            "grants": {
                name: round(alloc.granted_rate, 3)
                for name, alloc in sorted(self._tenants.items())
            },
        }
        self.history.append(entry)
        if len(self.history) > 256:
            del self.history[:-256]
        telemetry = self.telemetry
        if telemetry is None:
            return
        telemetry.metrics.counter("allocation.reallocations").inc()
        obs = getattr(telemetry, "obs", None)
        for name, alloc in self._tenants.items():
            telemetry.metrics.gauge(
                "allocation.granted_rate", tenant=name
            ).set(alloc.granted_rate)
            telemetry.metrics.gauge(
                "allocation.fair_share", tenant=name
            ).set(alloc.fair_share)
            telemetry.metrics.gauge(
                "allocation.demand", tenant=name
            ).set(alloc.demand)
            if obs is not None:
                obs.store.histogram(
                    "allocation.granted_rate", tenant=name
                ).record(now, alloc.granted_rate)
                obs.store.histogram(
                    "allocation.demand", tenant=name
                ).record(now, alloc.demand)

    def snapshot(self) -> dict:
        """The live allocation table (CLI/scenario/artifact surface)."""
        with self._lock:
            return {
                "total_rate": self.config.total_rate,
                "total_slots": self.config.total_slots,
                "total_queue": self.config.total_queue,
                "reallocations": self.reallocations,
                "shards_down": sorted(
                    index for index, alive in self._shard_alive.items()
                    if not alive
                ),
                "tenants": {
                    name: alloc.as_dict()
                    for name, alloc in sorted(self._tenants.items())
                },
            }
