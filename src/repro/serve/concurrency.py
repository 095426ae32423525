"""Thread-safe concurrent dispatch over one emulator, and the one
write-attempt log.

:class:`ConcurrentEmulator` lets N worker threads issue mixed
read/write traffic against a single :class:`~repro.interpreter.Emulator`
without corrupting the registry, the log ordering or the ID allocator.

Reads never take a lock: each read pins the newest published
:class:`~repro.interpreter.machine.RegistryVersion` — an immutable,
structurally shared snapshot of the registry — and dispatches against
it via :meth:`Emulator.invoke_at`, including through the compiled pure
route.  Writes serialize under a small writer mutex: attempt-log
append, dispatch, then an atomic publish of the new version into the
:class:`~repro.serve.mvcc.VersionChain`, which also runs epoch-based
reclamation of superseded versions (a retired version is dropped once
no reader pins it or anything older).  A writer therefore never stalls
a reader and a reader never delays a writer; read throughput scales
with cores until the GIL, not until a lock.

Further:

- mutating APIs are a total order (the writer mutex);
- every write *attempt* that reaches the interpreter is appended to
  the :class:`AdmittedLog` before it dispatches, while writers are
  excluded, so the log's per-tenant order is exactly the commit order.
  Failed attempts are logged too: a failed create still burns a
  deterministic ID, so replay must repeat the failure to reproduce the
  allocator state byte-for-byte;
- each published version carries the seq of the last attempt it
  covers, so a snapshot knows where in the log recovery resumes.

The wrapper sits at the *bottom* of the backend stack, directly around
the emulator.  Chaos and resilience proxies belong outside it: their
injected faults fire before any pin or mutex and are therefore never
logged as admitted work — which is exactly right, because an injected
throttle mutates nothing.

One function, :func:`replay`, re-invokes logged attempts: crash
recovery (snapshot + log tail) and the linearizability checks (a
tenant's whole log against a fresh emulator reproduces the concurrent
run's final registry exactly) both run through it — and each read
additionally observed exactly one published version, recorded on its
trace as ``registry.version``.
"""

from __future__ import annotations

import json
import pickle
import threading
from collections.abc import Iterable, Iterator
from itertools import islice
from pathlib import Path
from time import perf_counter

from ..durability.journal import JournalWriter, scan_records
from ..durability.snapshot import decode_value, encode_value, snapshot_version
from ..interpreter.errors import ApiResponse
from ..resilience.killswitch import kill_point
from .deadline import current_request
from .mvcc import ReaderSlots, VersionChain


#: The api name a logged registry reset carries.
RESET = "_Reset"


class AdmittedLog:
    """The write-attempt log: every write the serve path admitted, in
    commit order per tenant, failures included.

    One record per attempt, ``{"seq", "tenant", "api", "params"}``,
    appended *before* dispatch under the tenant's writer mutex.  The
    interpreter burns a deterministic ID even when a create fails, so a
    failed attempt must replay (and re-fail) for the allocator counters
    to come back exactly; :func:`replay` re-invokes the records.

    Each attempt is held as one pickled ``(tenant, api, params)``
    ``bytes``, its seq implied by its position.  The cycle collector
    never tracks a ``bytes`` object, so a log that grows by one entry
    per write gives it nothing to count or scan; on a write-heavy serve
    path, a record dict per write set off most of its collections.
    Packing deep-copies the params, so a caller mutating its dict after
    the write cannot change the log.  Records are decoded only on the
    cold paths that read them: :meth:`stream` (one at a time),
    :attr:`records`, :meth:`per_tenant` and :meth:`dump_jsonl`.

    In memory by default.  Given ``path``, every record is also framed
    on disk with the build journal's CRC codec, and reopening the file
    resumes the log: a torn tail (a crash mid-append, the
    ``mid-serve-wal-append`` kill site) is dropped and counted in
    ``dropped``, and its seq goes to the next append.
    """

    def __init__(self, path: "str | Path | None" = None,
                 fsync: bool = False):
        self._packed: list[bytes] = []
        self._lock = threading.Lock()
        self._writer = None
        self.dropped = 0
        if path is not None:
            scan = scan_records(path)
            self.dropped = scan.dropped
            # The scan keeps a valid prefix, so positions are the seqs.
            self._packed = [
                _pack(record["tenant"], record["api"],
                      decode_value(record["params"]))
                for record in scan.records
            ]
            self._writer = JournalWriter(
                path, fsync=fsync, kill_site="mid-serve-wal-append"
            )
            self._writer.open(truncate_to=scan.valid_bytes)

    def append(self, tenant: str, api: str, params: dict | None) -> int:
        """Log one attempt about to dispatch; returns its seq."""
        params = params or {}
        packed = _pack(tenant, api, params)
        with self._lock:
            seq = len(self._packed) + 1
            if self._writer is not None:
                self._writer.append({
                    "seq": seq, "tenant": tenant, "api": api,
                    "params": encode_value(params),
                })
            self._packed.append(packed)
        return seq

    def stream(self, tenant: str | None = None) -> Iterator[dict]:
        """The records logged so far (``tenant``'s only, if given),
        decoded one at a time in seq order."""
        with self._lock:
            count = len(self._packed)
        for seq, packed in enumerate(islice(self._packed, count), 1):
            owner, api, params = pickle.loads(packed)
            if tenant is None or owner == tenant:
                yield {"seq": seq, "tenant": owner, "api": api,
                       "params": params}

    @property
    def records(self) -> list[dict]:
        return list(self.stream())

    def per_tenant(self, tenant: str) -> list[dict]:
        return list(self.stream(tenant))

    def __len__(self) -> int:
        with self._lock:
            return len(self._packed)

    def dump_jsonl(self, path: "str | Path") -> Path:
        """Write the log as JSONL (the CI stress job's artifact)."""
        return dump_jsonl(self.stream(), path)

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()


def _pack(tenant: str, api: str, params: dict) -> bytes:
    """One attempt as :class:`AdmittedLog` holds it."""
    return pickle.dumps((tenant, api, params), pickle.HIGHEST_PROTOCOL)


def dump_jsonl(records: Iterable[dict], path: "str | Path") -> Path:
    """Write attempt records as JSONL, one sorted-key object a line."""
    target = Path(path)
    with open(target, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    return target


def replay(emulator, records, after_seq: int = 0) -> int:
    """Re-invoke the attempt records with ``seq > after_seq``, in order.

    Every replay of the log runs through here: crash recovery, a shard
    worker's self-check and the linearizability checks.  Responses are
    not checked: the interpreter is deterministic, so an attempt that
    failed fails again identically (burning the same IDs) and one that
    succeeded succeeds again.  Returns the number of records replayed.
    """
    replayed = 0
    for record in records:
        if record["seq"] <= after_seq:
            continue
        if record["api"] == RESET:
            emulator.reset()
        else:
            emulator.invoke(record["api"], record["params"])
        replayed += 1
    return replayed


def canonical_snapshot(snapshot: dict) -> str:
    """A registry snapshot as the text linearizability checks compare."""
    snapshot = dict(snapshot)
    snapshot["wal_seq"] = 0  # replicas carry no log cursor
    # Region placements are assigned by the front door's network gate,
    # which the serial-replay replica runs without; they are routing
    # metadata, not API-visible state, so they are excluded from the
    # linearizability comparison.
    snapshot.pop("placements", None)
    return json.dumps(snapshot, sort_keys=True)


def replay_divergence(emulator_factory, records, live) -> str | None:
    """The linearizability comparison for one tenant.

    Replays ``records`` serially into a fresh ``emulator_factory()``
    replica, then compares its :func:`canonical_snapshot` with that of
    ``live()``, the live registry's snapshot.  ``live`` is called only
    after the replay, so the replica and the live snapshot are never
    both held.  Returns ``""`` when the two are byte-identical, the two
    sizes when not, and ``None`` when ``live()`` has no snapshot.
    """
    replica = emulator_factory()
    replay(replica, records)
    replayed = canonical_snapshot(replica.snapshot())
    del replica
    snapshot = live()
    if snapshot is None:
        return None
    expected = canonical_snapshot(snapshot)
    if expected == replayed:
        return ""
    return f"live {len(expected)}B != replay {len(replayed)}B"


#: What :class:`ConcurrentEmulator` needs from the backend it wraps.
_SURFACE = ("read_only", "invoke_at", "publish_version")

#: The counters :meth:`ConcurrentEmulator.version_stats` reports that
#: add up across tenants.
_SUMMED = ("publishes", "reclaimed", "versions_live", "pinned_reads")


def sum_version_stats(per_tenant) -> dict:
    """Sum an iterable of :meth:`ConcurrentEmulator.version_stats`
    dicts into one ``{"tenants": n, <counter>: total, ...}`` dict."""
    totals = dict.fromkeys(("tenants",) + _SUMMED, 0)
    for stats in per_tenant:
        totals["tenants"] += 1
        for key in _SUMMED:
            totals[key] += stats[key]
    return totals


class ConcurrentEmulator:
    """An emulator wrapper that makes ``invoke`` thread-safe.

    ``inner`` must expose the emulator classification surface
    (``read_only``) and the versioned dispatch surface (``invoke_at`` /
    ``publish_version``); in practice it is an
    :class:`~repro.interpreter.Emulator`.  Anything else raises
    :class:`TypeError` naming the missing methods.
    """

    #: The publish instruments, resolved on first use when telemetry
    #: is attached.
    _reclaimed = _publishes = _versions_live = None

    def __init__(self, inner, tenant: str = "default",
                 log: AdmittedLog | None = None,
                 telemetry=None):
        missing = [name for name in _SURFACE if not hasattr(inner, name)]
        if missing:
            raise TypeError(
                "ConcurrentEmulator wraps a versioned emulator "
                "(chaos/resilience proxies go outside it); "
                f"{type(inner).__name__} has no {', '.join(missing)}"
            )
        self.inner = inner
        self.tenant = tenant
        self.log = log
        self.telemetry = telemetry
        #: Serializes mutating dispatch and version publish.  Readers
        #: never touch it, so it is only ever contended writer-vs-writer.
        self._writer = threading.Lock()
        self._slots = ReaderSlots()
        self._chain = VersionChain(inner.publish_version(), self._slots)

    # -- delegated surface ---------------------------------------------------

    def api_names(self) -> list[str]:
        return self.inner.api_names()

    def supports(self, api: str) -> bool:
        return self.inner.supports(api)

    def read_only(self, api: str) -> bool:
        return self.inner.read_only(api)

    @property
    def registry(self):
        return self.inner.registry

    def reset(self) -> None:
        with self._writer:
            log = self.log
            seq = 0 if log is None else log.append(self.tenant, RESET, None)
            self.inner.reset()
            self._publish(seq)

    def snapshot(self) -> dict:
        """A registry snapshot that is never torn.

        Pins the newest published version and dumps it without any
        locking — writers keep publishing while the dump runs, and the
        result is byte-identical to what a stop-the-world snapshot at
        publish time would have produced.  Its ``wal_seq`` is the seq
        of the last logged attempt the state covers."""
        return self.pinned(snapshot_version)

    def pinned(self, dump):
        """``dump(version)`` of the newest published version, pinned
        while ``dump`` runs (:meth:`snapshot` is the common case)."""
        slot = self._slots.slot()
        version = self._chain.pin(slot)
        try:
            return dump(version)
        finally:
            slot.pinned = None
            slot.reads += 1

    def restore(self, snapshot: dict) -> None:
        """Restore a snapshot as a *new* published version.

        Readers pinned to older versions keep reading them untouched
        (the emulator swaps the registry wholesale; see
        :meth:`Emulator.restore`), and every read started after this
        returns observes the restored state."""
        with self._writer:
            self.inner.restore(snapshot)
            self._publish(snapshot.get("wal_seq", 0))

    def recover(self, snapshot: dict,
                records: list[dict] | None = None) -> int:
        """Snapshot restore + replay of the logged attempts after the
        snapshot's ``wal_seq``, published atomically: readers observe
        either the pre-recovery version or the fully recovered one,
        never a mid-replay state.

        ``records`` defaults to this tenant's records in the attached
        log.  Replay dispatches on the inner emulator, so nothing is
        logged twice.  Returns the number of attempts replayed."""
        if records is None:
            records = (
                self.log.per_tenant(self.tenant)
                if self.log is not None else []
            )
        seq = snapshot.get("wal_seq", 0)
        with self._writer:
            self.inner.restore(snapshot)
            replayed = replay(self.inner, records, after_seq=seq)
            if records:
                seq = max(seq, records[-1]["seq"])
            self._publish(seq)
        return replayed

    def place(self, instance_id: str, region: str) -> None:
        """Record a region placement and republish, so replica
        snapshots taken right after a regional write already carry the
        placement (the netem front door calls this instead of poking
        ``registry.place`` directly)."""
        with self._writer:
            self.inner.registry.place(instance_id, region)
            self._publish(self._chain.current.wal_seq)

    # -- dispatch --------------------------------------------------------------

    def invoke(self, api: str, params: dict | None = None) -> ApiResponse:
        if self.inner.read_only(api):
            return self.read(api, params)
        return self.write(api, params)

    def read(self, api: str, params: dict | None = None) -> ApiResponse:
        """Dispatch a read-only API (the caller has classified it).

        Lock-free: pin the newest published version (two atomic
        attribute operations) and dispatch against it.  No mutex, no
        condition variable, no contention with writers — and zero
        lock_wait_s."""
        slot = self._slots.slot()
        version = self._chain.pin(slot)
        try:
            response = self.inner.invoke_at(version, api, params)
        finally:
            slot.pinned = None
            slot.reads += 1
        ctx = current_request()
        if ctx is not None:
            ctx.registry_version = version.version
        return response

    def write(self, api: str, params: dict | None = None) -> ApiResponse:
        """Dispatch a mutating API (the caller has classified it) under
        the writer mutex: log the attempt, dispatch, publish."""
        ctx = current_request()
        waited = perf_counter() if ctx is not None else 0.0
        with self._writer:
            if ctx is not None:
                ctx.lock_wait_s += perf_counter() - waited
            log = self.log
            seq = 0 if log is None else log.append(self.tenant, api, params)
            response = self.inner.invoke(api, params)
            version = self._publish(seq)
        if ctx is not None:
            ctx.registry_version = version.version
        return response

    def _publish(self, seq: int):
        """Publish the post-write registry state into the version
        chain, stamped with the log cursor ``seq`` it covers.  Caller
        holds the writer mutex.

        ``mid-publish`` is a kill site: a shard worker dying here has
        committed the write but never published its version — recovery
        must replay the logged attempt and converge on the same
        registry anyway."""
        kill_point("mid-publish")
        version = self.inner.publish_version()
        # A failed write that changed nothing gets the cached version
        # back; the new cursor still holds for its unchanged state.
        version.wal_seq = seq
        swung = version is not self._chain.current
        freed = self._chain.publish(version)
        telemetry = self.telemetry
        if telemetry is not None:
            if freed:
                if self._reclaimed is None:
                    self._reclaimed = telemetry.metrics.counter(
                        "serve.reclaimed"
                    )
                self._reclaimed.inc(freed)
            # A failed write leaves the registry untouched: the cached
            # publish returns the same version object and the chain
            # no-ops — don't count (or trace) a publish that didn't
            # happen.
            if swung:
                if self._publishes is None:
                    self._publishes = telemetry.metrics.counter(
                        "serve.version_publishes"
                    )
                    self._versions_live = telemetry.metrics.gauge(
                        "serve.versions_live"
                    )
                self._publishes.inc()
                self._versions_live.set(self._chain.live)
                with telemetry.span(
                    "serve.publish", kind="serve", tenant=self.tenant
                ) as span:
                    span.set("registry.version", version.version)
                    span.set("reclaimed", freed)
                    span.set("versions_live", self._chain.live)
        return version

    def version_stats(self) -> dict:
        """Version-churn accounting for this tenant (summed across
        tenants by :func:`sum_version_stats`)."""
        return {
            "publishes": self._chain.publishes,
            "reclaimed": self._chain.reclaimed,
            "versions_live": self._chain.live,
            "pinned_reads": self._slots.reads(),
            "reader_threads": len(self._slots),
        }

    def drift_check(self, api: str,
                    params: dict | None = None) -> tuple[bool, str]:
        """Compiled-vs-evaluator agreement for one read, atomically.

        Both evaluations run against a *single* pinned version, so
        consistency is structural — no locking needed and no concurrent
        writer can fake a divergence.  Returns ``(match, detail)``;
        ``detail`` names the first disagreement found.
        """
        slot = self._slots.slot()
        version = self._chain.pin(slot)
        try:
            live = self.inner.invoke_at(version, api, params)
            reference = self.inner.reference_invoke(
                api, params, at=version
            )
        finally:
            slot.pinned = None
            slot.reads += 1
        if live.success != reference.success:
            return False, (
                f"compiled success={live.success} "
                f"evaluator success={reference.success}"
            )
        if not live.success:
            if live.error_code == reference.error_code:
                return True, ""
            return False, (
                f"compiled error {live.error_code!r} != "
                f"evaluator error {reference.error_code!r}"
            )
        if live.data == reference.data:
            return True, ""
        return False, "payload mismatch between compiled and evaluator"
