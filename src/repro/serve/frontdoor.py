"""The production-shaped front door over any backend.

``FrontDoor`` composes the serving layers in the order a real cloud
edge does.  Every entry point (``handle`` for wire text, ``dispatch``
for a decoded envelope, ``invoke`` for a typed call) resolves the
tenant, reads the request, and then runs one fixed pipeline, built
once per tenant when the tenant is created::

    authentication       (TenantRouter: per-key namespaces)
    envelope parse       (JsonEndpoint.load / parse: bad input answers
                          SerializationException)
    request meta + root  (deadline / retry marks; the obs plane's
                          root span)
    1. count             (serve.requests{tenant})
    2. validate          (RequestValidator: spec-derived types)
    3. classify          (read or write, once)
    4. admit             (AdmissionController: buckets, queue,
                          degraded mode)
    5. region gate or dispatch
                         [if a NetEm is configured the request crosses
                          the (client-region -> resource-region) link
                          and can pay RTT, get lost, or bounce off a
                          partition]; dispatch is the tenant's step:
                          ConcurrentEmulator.read / write (lock-free
                          pinned reads, serialized writes, the attempt
                          log), a chaos / resilience proxy's invoke,
                          or a shard worker's RPC stub
    6. drift offer       (reads, under the obs plane's drift monitor)
    7. release           (the admission slot)
    8. envelope          (the tenant's request-id stream)

Every layer speaks :class:`~repro.interpreter.errors.ApiResponse`, so
a shed, a validation reject and an interpreter error all come back
through the same wire envelope a success does — clients cannot tell
the front door from the cloud's except by behaviour, which is the
paper's bar for the emulator itself (§2).
"""

from __future__ import annotations

from ..interpreter.endpoint import (
    build_envelope,
    encode_envelope,
    JsonEndpoint,
    ProtocolError,
    RequestIdSequence,
)
from ..interpreter.errors import ApiResponse
from ..resilience.policy import VirtualClock
from ..spec import ast
from .admission import AdmissionController
from .concurrency import (
    ConcurrentEmulator,
    replay_divergence,
    sum_version_stats,
)
from .deadline import (
    current_request,
    deadline_at,
    DeadlineError,
    request_meta,
)
from .tenancy import AuthError, Tenant, TenantRouter
from .validation import RequestValidator


def verify_linearizable(frontdoor) -> tuple[bool, list[str]]:
    """The front door's own linearizability check (see
    :meth:`FrontDoor.verify_linearizable`)."""
    return frontdoor.verify_linearizable()


class ConfigError(ValueError):
    """A front-door composition the serving layer cannot honor.

    Raised at construction time — never mid-request — when two
    features are configured together that do not compose yet, with a
    message naming the gap and the roadmap item tracking it.  The
    canonical case today: :class:`~repro.serve.shard.ShardedFrontDoor`
    with ``network=`` (the ROADMAP "Deferred" entry "Shard × region
    composition").
    """


class FrontDoor:
    """A hardened, multi-tenant serving layer over learned emulators.

    Parameters
    ----------
    module:
        The spec module every tenant serves (validation derives from
        it).
    emulator_factory:
        Zero-argument callable building one fresh base emulator per
        tenant; also used by the linearizability check to build clean
        replicas for serial replay.
    wrap:
        Optional proxy stack (e.g. a chaos wrapper) interposed between
        admission and the concurrency layer, per tenant.
    rate / burst / max_concurrent / queue_depth:
        Admission-control knobs (see :class:`AdmissionController`;
        degraded mode keeps its defaults there).
    allocation:
        Optional :class:`~repro.serve.allocation.AllocationConfig`.
        When given, admission switches from independent per-tenant
        buckets to the holistic weighted max-min allocator: one shared
        pool of rate/slot/queue budget, work-conserving redistribution
        of unused grant, per-tenant retry side-budgets, and (under the
        sharded front door) shard-health-aware rebalancing.  ``rate``/
        ``burst`` are ignored in this mode — the pool is the config's
        ``total_rate``/``total_burst``.
    network:
        Optional :class:`~repro.netem.NetEm`.  When given, every
        admitted request is routed over the (client-region ->
        resource-region) path by a
        :class:`~repro.netem.routing.RegionGate`: latency is charged
        on the shared clock, lossy links time requests out,
        partitioned links reject writes with ``ServiceUnavailable``
        and (when ``stale_reads``) fail reads over to the client
        region's trailing replica, ``replication_lag`` virtual seconds
        behind the authority.  The network's clock should be the front
        door's clock — pass the same instance to both.
    """

    def __init__(
        self,
        module: ast.SpecModule,
        emulator_factory,
        clock: VirtualClock | None = None,
        telemetry=None,
        wrap=None,
        network=None,
        home_region: str | None = None,
        client_regions: dict[str, str] | None = None,
        stale_reads: bool = True,
        replication_lag: float = 0.25,
        placer=None,
        rate: float = 50.0,
        burst: float = 20.0,
        max_concurrent: int = 16,
        queue_depth: int = 64,
        allocation=None,
        max_tenants: int = 32,
        require_key: bool = False,
        seed: int = 1,
    ):
        self.module = module
        self.telemetry = telemetry
        if clock is not None:
            self.clock = clock
        elif telemetry is not None:
            self.clock = telemetry.clock
        elif network is not None:
            self.clock = network.clock
        else:
            self.clock = VirtualClock()
        self.validator = RequestValidator(module, telemetry=telemetry)
        allocator = None
        if allocation is not None:
            from .allocation import AllocationConfig, HolisticAllocator

            if allocation is True:
                allocation = AllocationConfig()
            allocator = HolisticAllocator(
                clock=self.clock, config=allocation,
                telemetry=telemetry,
            )
            # The pool's totals *are* the building's global bounds.
            max_concurrent = allocation.total_slots
            queue_depth = allocation.total_queue
        self.allocator = allocator
        self.admission = AdmissionController(
            clock=self.clock, rate=rate, burst=burst,
            max_concurrent=max_concurrent, queue_depth=queue_depth,
            allocator=allocator, telemetry=telemetry,
        )
        self.emulator_factory = emulator_factory
        self.wrap = wrap
        self.seed = seed
        self.router = TenantRouter(
            self._make_tenant, max_tenants=max_tenants,
            require_key=require_key,
        )
        self.network = network
        self.region_gate = None
        if network is not None:
            from ..netem.routing import RegionGate

            self.region_gate = RegionGate(
                network, emulator_factory,
                home_region=home_region,
                placer=placer,
                client_regions=client_regions,
                stale_reads=stale_reads,
                replication_lag=replication_lag,
                telemetry=telemetry,
            )
        #: Request ids for envelopes no tenant answers: authentication
        #: failures and malformed request meta.
        self._auth_ids = RequestIdSequence(seed)

    # -- tenants -------------------------------------------------------------

    def _make_tenant(self, name: str, index: int) -> Tenant:
        """A new tenant: its emulator and dispatch step
        (:meth:`_backend`), its request-id stream (seeded by arrival
        order) and its request counter."""
        emulator, read, write = self._backend(name)
        requests = None
        if self.telemetry is not None:
            metrics = self.telemetry.metrics
            metrics.counter("serve.tenants").inc()
            requests = metrics.counter("serve.requests", tenant=name)
        return Tenant(
            name=name, emulator=emulator, read=read, write=write,
            ids=RequestIdSequence(self.seed + index), requests=requests,
        )

    def _backend(self, name: str) -> tuple:
        """A new tenant's ``(emulator, read, write)``: a fresh emulator
        behind its own concurrency layer, whose ``read`` / ``write``
        the pipeline dispatches to — or, with ``wrap``, the proxy
        stack's ``invoke`` for both."""
        emulator = ConcurrentEmulator(
            self.emulator_factory(), tenant=name, log=self.router.admitted,
            telemetry=self.telemetry,
        )
        if self.wrap is None:
            return emulator, emulator.read, emulator.write
        invoke = self.wrap(emulator).invoke
        return emulator, invoke, invoke

    # -- wire surface --------------------------------------------------------

    @property
    def admitted(self):
        """The commit-ordered admitted-request log (all tenants)."""
        return self.router.admitted

    def tenant(self, api_key: str | None = None) -> Tenant:
        """Resolve (or create) the tenant for an API key."""
        return self.router.resolve(api_key)

    def handle(self, payload: "str | bytes",
               api_key: str | None = None) -> str:
        """Handle one JSON-encoded request; always returns valid JSON.

        Bad UTF-8, bad JSON and bad envelopes answer
        ``SerializationException``; everything else takes the
        :meth:`dispatch` path.
        """
        ids, response = self._answer(payload, api_key, decode=True)
        return encode_envelope(response, ids.next())

    def dispatch(self, request: dict, api_key: str | None = None) -> dict:
        """Handle one decoded request envelope for one tenant.

        The envelope may carry ``DeadlineSeconds`` (the client's
        remaining budget, minted into an absolute virtual deadline at
        arrival) and ``Retry: true`` (the request is a retry, drawn
        from the tenant's capped retry side-budget under the holistic
        allocator); both propagate through every serving layer on the
        request-meta context.  A malformed envelope answers
        ``SerializationException``, as :meth:`handle` does.
        """
        ids, response = self._answer(request, api_key, decode=False)
        return build_envelope(response, ids.next())

    def invoke(self, api: str, params: dict | None = None,
               api_key: str | None = None,
               deadline: float | None = None,
               retry: bool = False) -> ApiResponse:
        """The response-typed path (no JSON envelope), through the same
        pipeline.

        ``deadline`` is relative seconds of remaining client budget
        (minted absolute at arrival, as ``DeadlineSeconds`` is);
        ``retry`` marks the call as drawing from the tenant's retry
        side-budget.
        """
        try:
            tenant = self.router.resolve(api_key)
        except AuthError as error:
            return self._auth_reject(error)
        try:
            return self._respond(tenant, api, params or {}, deadline, retry)
        except DeadlineError as error:
            return ApiResponse.fail("InvalidParameterValue", str(error))

    def _answer(self, request, api_key: str | None,
                decode: bool) -> tuple[RequestIdSequence, ApiResponse]:
        """One envelope's response, and the request-id stream its
        envelope draws from: the tenant's, or — when no tenant answers
        (authentication) or the request meta is malformed — the
        door's own.  ``decode`` says ``request`` is wire text."""
        try:
            tenant = self.router.resolve(api_key)
        except AuthError as error:
            return self._auth_ids, self._auth_reject(error)
        try:
            if decode:
                request = JsonEndpoint.load(request)
            action, parameters = JsonEndpoint.parse(request)
        except ProtocolError as error:
            return tenant.ids, ApiResponse.fail(
                "SerializationException", str(error)
            )
        try:
            response = self._respond(
                tenant, action, parameters,
                request.get("DeadlineSeconds"),
                request.get("Retry") is True,
            )
        except DeadlineError as error:
            return self._auth_ids, ApiResponse.fail(
                "InvalidParameterValue", str(error)
            )
        return tenant.ids, response

    def _respond(self, tenant: Tenant, api: str, params: dict,
                 seconds: float | None, retry: bool) -> ApiResponse:
        """One request's response from a resolved tenant's pipeline,
        with its deadline (``seconds`` of budget left) and retry marks
        on the request-meta context and, under the obs plane, its root
        span.  A malformed deadline raises :class:`DeadlineError`
        before anything else runs."""
        deadline = deadline_at(seconds, self.clock)
        telemetry = self.telemetry
        obs = None if telemetry is None else getattr(telemetry, "obs", None)
        if obs is None:
            if deadline is None and not retry:
                return self._pipeline(tenant, api, params)
            with request_meta(deadline, retry):
                return self._pipeline(tenant, api, params)
        with obs.request(tenant.name, api) as ctx:
            if deadline is None and not retry:
                response = self._pipeline(tenant, api, params)
            else:
                with request_meta(deadline, retry):
                    response = self._pipeline(tenant, api, params)
            obs.classify(
                ctx, "" if response.success else response.error_code
            )
        return response

    def _pipeline(self, tenant: Tenant, api: str,
                  params: dict) -> ApiResponse:
        """Count, validate, classify once, admit, gate or dispatch,
        offer to the drift monitor, release."""
        if tenant.requests is not None:
            tenant.requests.inc()
        rejected = self.validator.validate(api, params)
        if rejected is not None:
            return rejected
        read_only = tenant.emulator.read_only(api)
        admission = self.admission
        decision = admission.admit(tenant.name, api, read_only=read_only)
        if not decision.admitted:
            return decision.response
        try:
            step = tenant.read if read_only else tenant.write
            gate = self.region_gate
            if gate is None:
                response = step(api, params)
            else:
                response = gate.route(
                    tenant.name, tenant.emulator, api, params, read_only,
                    lambda: step(api, params),
                )
            if read_only and self.telemetry is not None:
                self._offer_drift(tenant, api, params)
            return response
        finally:
            admission.release(tenant.name)

    def _offer_drift(self, tenant: Tenant, api: str, params: dict) -> None:
        """Offer this read to the drift monitor, when one is attached.

        The probe runs against the tenant's emulator directly —
        *inside* any chaos proxies — so injected faults can never
        masquerade as compiled/evaluator divergence.
        """
        obs = getattr(self.telemetry, "obs", None)
        if obs is None or obs.drift is None:
            return
        ctx = current_request()
        if ctx is not None:
            obs.drift.maybe_check(ctx, tenant.emulator, api, params)

    # -- proofs --------------------------------------------------------------

    def verify_linearizable(self) -> tuple[bool, list[str]]:
        """Serial replay of each tenant's admitted log == live registry?

        For every tenant: build a fresh emulator from the front door's
        own factory, replay that tenant's admitted write attempts in
        log order (decoded one at a time, so the check never holds the
        decoded log), and compare canonical snapshots byte-for-byte.  A
        lost, duplicated, torn or re-ordered mutation anywhere in a
        concurrent run shows up as a diff (IDs, state values and
        allocator counters are all in the snapshot).
        """
        mismatches: list[str] = []
        for tenant in self.router.tenants():
            diverged = replay_divergence(
                self.emulator_factory,
                self.admitted.stream(tenant.name),
                tenant.emulator.snapshot,
            )
            if diverged:
                mismatches.append(
                    f"tenant {tenant.name}: serial replay diverges from "
                    f"the concurrent registry ({diverged})"
                )
        return (not mismatches), mismatches

    def mvcc_stats(self) -> dict:
        """Version accounting summed across tenants (see
        :func:`~repro.serve.concurrency.sum_version_stats`)."""
        return sum_version_stats(
            tenant.emulator.version_stats()
            for tenant in self.router.tenants()
        )

    def _auth_reject(self, error: AuthError) -> ApiResponse:
        """A failed tenant resolution's response, counted."""
        if self.telemetry is not None:
            self.telemetry.metrics.counter(
                "serve.auth_rejects", code=error.code
            ).inc()
        return error.to_response()
