"""Region-aware request routing for the serving layer.

:class:`RegionGate` is what a :class:`~repro.serve.frontdoor.FrontDoor`
consults when it is given a network: every request is routed over the
(client-region → resource-region) path its parameters imply, and the
path's weather shapes the outcome the way a real cloud edge does:

- a **partitioned** path fails writes immediately with
  ``ServiceUnavailable`` (connection refused, not a timeout) naming
  both regions; reads *fail over* to the client region's trailing
  replica when stale reads are enabled, marked ``Stale`` in the
  response payload;
- a **lossy** path burns the round-trip latency and then fails with
  ``RequestTimeout`` — the caller waited for an answer that never
  came, and the shared virtual clock moved, so retry deadlines and
  token buckets all felt it;
- a **delivered** request pays the link's RTT (and its fair share of
  bandwidth) before the emulator runs.

Committed writes publish a registry snapshot to the tenant's
:class:`~repro.netem.replication.ReplicaSet`; replication is
hub-and-spoke from the tenant's home region, so a replica behind a
partition freezes until the heal, then converges in one sync.

Network faults fire *before* the concurrency layer, so they are never
recorded as admitted work — a rejected write mutates nothing, and the
serial-replay linearizability check holds unchanged under any weather.
"""

from __future__ import annotations

import threading

from ..interpreter.errors import ApiResponse
from ..serve.deadline import current_meta, current_request, expired_response
from .engine import NetEm
from .placement import Placer
from .replication import ReplicaSet

#: Error codes regional faults surface as (both transient: resilient
#: clients retry them, which is how retry/breaker policies end up
#: exercised against *path* faults instead of coin flips).
PARTITIONED_CODE = "ServiceUnavailable"
LOST_CODE = "RequestTimeout"


class _TenantNet:
    """One tenant's regional state: client region plus replicas."""

    __slots__ = ("client_region", "replicas")

    def __init__(self, client_region: str, replicas: ReplicaSet | None):
        self.client_region = client_region
        self.replicas = replicas


class RegionGate:
    """Routes one front door's requests across a :class:`NetEm`."""

    def __init__(
        self,
        netem: NetEm,
        emulator_factory,
        home_region: str | None = None,
        placer: Placer | None = None,
        client_regions: dict[str, str] | None = None,
        stale_reads: bool = True,
        replication_lag: float = 0.25,
        telemetry=None,
    ):
        self.netem = netem
        self.emulator_factory = emulator_factory
        regions = netem.regions
        self.placer = placer or Placer(regions, seed=netem.seed)
        self.home_region = home_region or self.placer.default_region
        self.client_regions = dict(client_regions or {})
        self.stale_reads = stale_reads
        self.replication_lag = replication_lag
        self.telemetry = telemetry
        self._tenants: dict[str, _TenantNet] = {}
        self._lock = threading.Lock()

    # -- tenant state --------------------------------------------------------

    def tenant_net(self, tenant: str) -> _TenantNet:
        state = self._tenants.get(tenant)
        if state is not None:
            return state
        with self._lock:
            state = self._tenants.get(tenant)
            if state is None:
                client = self.client_regions.get(
                    tenant, self.placer.client_region(tenant)
                )
                replicas = None
                if self.stale_reads:
                    replicas = ReplicaSet(
                        self.home_region, self.netem.regions,
                        self.emulator_factory, lag=self.replication_lag,
                    )
                state = _TenantNet(client, replicas)
                self._tenants[tenant] = state
        return state

    def client_region(self, tenant: str) -> str:
        return self.tenant_net(tenant).client_region

    # -- routing -------------------------------------------------------------

    def route(self, tenant: str, emulator, api: str, params: dict,
              read_only: bool, proceed) -> ApiResponse:
        """Send one request over its path, then run ``proceed``.

        ``emulator`` is the tenant's authoritative (concurrency-
        wrapped) emulator — used for placement lookups and the
        post-write snapshot publish; ``proceed`` invokes the rest of
        the backend stack.
        """
        state = self.tenant_net(tenant)
        client = state.client_region
        meta = current_meta()
        if meta is not None and meta.expired(self.netem.clock.now()):
            # The budget died before the wire: no transmit, no RTT.
            return self._expired(tenant, "netem")
        if read_only or "create" not in api.lower():
            resource_region = self.placer.resource_region(
                emulator.registry, params, fallback=self.home_region
            )
        else:
            resource_region = self.placer.region_for_create(
                api, params, client
            )
        delivery = self.netem.transmit(client, resource_region)
        now = self.netem.clock.now()
        ctx = current_request()
        if ctx is not None:
            ctx.client_region = client
            ctx.resource_region = resource_region
            ctx.add_hop(
                client, resource_region, delivery.latency,
                delivered=delivery.delivered,
                reason=delivery.reason or "", at=now,
            )
        if state.replicas is not None:
            state.replicas.sync(self.netem, now)

        if not delivery.delivered:
            if delivery.reason == "partition":
                if read_only:
                    return self._stale_read(
                        state, tenant, emulator, api, params,
                        client, resource_region,
                    )
                return self._partitioned(tenant, api, client,
                                         resource_region)
            return ApiResponse.fail(
                LOST_CODE,
                f"The request to {resource_region} was lost in transit; "
                "retry your request.",
            )

        if meta is not None and meta.expired(self.netem.clock.now()):
            # The RTT ate the remaining budget: the client has already
            # given up, so dispatching now is pure wasted work (and a
            # write the caller would never see committed).
            return self._expired(tenant, "netem")
        response = proceed()
        if response.success and not read_only:
            created = response.data.get("id")
            if isinstance(created, str) and created:
                region = self.placer.region_for_create(
                    api, params, client
                ) if "create" in api.lower() else resource_region
                # Place through the concurrency layer: the placement must
                # be *republished* so the snapshot below (taken from
                # the newest published version) already carries it.
                emulator.place(created, region)
            if state.replicas is not None:
                state.replicas.publish(emulator.snapshot(), now)
        return response

    # -- failure shapes ------------------------------------------------------

    def _expired(self, tenant: str, stage: str) -> ApiResponse:
        ctx = current_request()
        if ctx is not None:
            ctx.shed = True
        if self.telemetry is not None:
            self.telemetry.metrics.counter(
                "allocation.deadline_expired", tenant=tenant,
                stage=stage,
            ).inc()
        return expired_response(stage)

    def _partitioned(self, tenant: str, api: str, client: str,
                     resource_region: str) -> ApiResponse:
        if self.telemetry is not None:
            self.telemetry.metrics.counter(
                "net.partitioned_writes", tenant=tenant
            ).inc()
            self.telemetry.event(
                "net_partitioned_write", tenant=tenant, api=api,
                src=client, dst=resource_region,
            )
        return ApiResponse.fail(
            PARTITIONED_CODE,
            f"Region {resource_region} is unreachable from {client}; "
            "the request was not attempted.",
        )

    def _stale_read(self, state: _TenantNet, tenant: str, emulator,
                    api: str, params: dict, client: str,
                    resource_region: str) -> ApiResponse:
        """Serve a read from the client region's trailing replica."""
        if not self.stale_reads:
            return self._partitioned(tenant, api, client, resource_region)
        if client == self.home_region or state.replicas is None:
            # The hub region holds the authoritative registry; its
            # "local copy" is simply fresh.
            return emulator.invoke(api, params)
        response = state.replicas.invoke(client, api, params)
        if response is None:
            return self._partitioned(tenant, api, client, resource_region)
        ctx = current_request()
        if ctx is not None:
            ctx.failover = True
            ctx.add_hop(
                resource_region, client, 0.0, delivered=True,
                reason="replica_failover", at=self.netem.clock.now(),
            )
        self.netem.stats.stale_reads += 1
        if self.telemetry is not None:
            self.telemetry.metrics.counter(
                "net.stale_reads", tenant=tenant
            ).inc()
        if response.success:
            data = dict(response.data)
            data["Stale"] = True
            data["ReplicaRegion"] = client
            return ApiResponse(True, data)
        return response
