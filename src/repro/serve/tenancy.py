"""Tenant isolation: one registry namespace per API key.

Real cloud front doors scope every request to the calling account;
one tenant's resources, faults and throttles must never be visible to
another.  :class:`TenantRouter` maps each API key to its own
:class:`Tenant`, made by its front door on the key's first use: a
fresh emulator over the *shared* compiled module (the compiler's
closures are stateless, so N tenants cost N registries, not N
compilations) behind its own concurrency layer (published versions,
writer mutex), the dispatch step the door's pipeline ends in (the
chaos wrapper, when there is one, gives each tenant its own fault
schedule lane, so one tenant's bad weather stays theirs) and its
deterministic request-id stream.

Authentication is deliberately minimal (this is an emulator, not an
IAM): a key either resolves or fails with the cloud's own codes —
``MissingAuthenticationToken`` for no key where one is required,
``UnrecognizedClientException`` when the tenant table is full and the
key is new.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from ..interpreter.endpoint import RequestIdSequence
from ..interpreter.errors import ApiResponse
from .concurrency import AdmittedLog

#: Cloud-style authentication failure codes.
MISSING_TOKEN = "MissingAuthenticationToken"
UNRECOGNIZED_CLIENT = "UnrecognizedClientException"

DEFAULT_TENANT = "default"


class AuthError(Exception):
    """A request failed tenant resolution."""

    def __init__(self, code: str, message: str):
        self.code = code
        self.message = message
        super().__init__(f"{code}: {message}")

    def to_response(self) -> ApiResponse:
        return ApiResponse.fail(self.code, self.message)


@dataclass
class Tenant:
    """One tenant's isolated serving state.

    ``emulator`` is the tenant's authoritative emulator (its
    :class:`~repro.serve.concurrency.ConcurrentEmulator`, or a shard
    RPC stub): it classifies each request and backs the region gate,
    the drift probe and snapshots.  ``read`` / ``write`` are the
    dispatch step for each class of request — ``emulator.read`` /
    ``emulator.write`` in process, or one ``invoke`` for both when a
    proxy stack or a shard stub stands in front.
    """

    name: str
    emulator: object
    read: object
    write: object
    #: The request-id stream this tenant's envelopes draw from.
    ids: RequestIdSequence
    #: This tenant's ``serve.requests`` counter (None without
    #: telemetry).
    requests: object = None


class TenantRouter:
    """Resolves API keys to isolated per-tenant serving state.

    ``make_tenant(name, index)`` builds the tenant for a key's first
    request; ``index`` is how many tenants exist before it, so each
    tenant's request-id seed is a pure function of arrival order.
    """

    def __init__(
        self,
        make_tenant,
        max_tenants: int = 32,
        require_key: bool = False,
    ):
        self.make_tenant = make_tenant
        self.max_tenants = max_tenants
        self.require_key = require_key
        self._tenants: dict[str, Tenant] = {}
        self._lock = threading.Lock()
        #: One commit-ordered log shared by every tenant (records are
        #: tenant-tagged; per-tenant order is what linearizability
        #: replays).
        self.admitted = AdmittedLog()

    # -- resolution ----------------------------------------------------------

    def resolve(self, api_key: str | None) -> Tenant:
        """The tenant for ``api_key``, created on first use."""
        if not api_key:
            if self.require_key:
                raise AuthError(
                    MISSING_TOKEN,
                    "Request is missing an authentication token.",
                )
            api_key = DEFAULT_TENANT
        tenant = self._tenants.get(api_key)
        if tenant is not None:
            return tenant
        with self._lock:
            tenant = self._tenants.get(api_key)
            if tenant is not None:
                return tenant
            if len(self._tenants) >= self.max_tenants:
                raise AuthError(
                    UNRECOGNIZED_CLIENT,
                    "The security token included in the request is "
                    "invalid (tenant table is full).",
                )
            tenant = self.make_tenant(api_key, len(self._tenants))
            self._tenants[api_key] = tenant
            return tenant

    # -- introspection -------------------------------------------------------

    def tenants(self) -> list[Tenant]:
        with self._lock:
            return list(self._tenants.values())

    def get(self, name: str) -> Tenant | None:
        return self._tenants.get(name)

    def __len__(self) -> int:
        with self._lock:
            return len(self._tenants)
