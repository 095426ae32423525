"""The one seeded client loop every load run drives.

``serve-bench``, the geo noise scenario behind ``repro top`` and
``repro sweep``, and the fairness drills all send traffic through
:func:`drive`, which runs a heap of seeded :class:`Stream` clients in
virtual-time order and defines, once, the rules they share:

- **classifier** — a *shed* is a shed code carrying a positive
  ``RetryAfterSeconds``.  Injected chaos faults reuse the codes but
  never the hint: they are admitted work that failed, not sheds;
- **backoff** — after a shed, wait a full-jitter time uniform in
  ``[0, min(hint, MAX_RETRY_AFTER)]``, then re-offer the request, up
  to ``MAX_ATTEMPTS`` tries, so shed clients return spread out;
- **tally** — one :class:`Tally`, from which both the
  :class:`LoadReport` and the per-tenant fairness stats derive.

Each :func:`drive` call keeps its own timeline and advances the front
door's shared clock by exactly as much as that timeline moves, so a
single-threaded run's timeline *is* the clock and the run is exactly
reproducible.  :class:`LoadGenerator` runs one :func:`drive` per
worker thread: their advances add up on the shared clock (so
``offered_rate`` is the aggregate rate) while MVCC and admission see
real interleavings.
"""

from __future__ import annotations

import heapq
import math
import random
import threading
import time
from dataclasses import dataclass, field, fields

from ..interpreter.emulator import normalize_key
from ..spec import ast

#: Shed codes the serving layers produce.
SHED_CODES = frozenset({"RequestLimitExceeded", "ServiceUnavailable"})

#: Cap, in virtual seconds, on one honored Retry-After wait.
MAX_RETRY_AFTER = 5.0

#: Tries per offered request: the first offer plus re-offers after a
#: shed.
MAX_ATTEMPTS = 5

#: Bound on each sampled wait log (Retry-After and failover).
LOG_SAMPLES = 50


class TrafficModel:
    """Seeded request synthesis over one module's API surface."""

    def __init__(self, module: ast.SpecModule, classifier):
        self.module = module
        self._index = {
            api: (sm_name, transition)
            for api, (sm_name, transition)
            in module.transition_index().items()
            if not api.startswith("_")
        }
        self.reads = sorted(
            api for api in self._index if classifier(api)
        )
        self.creates = sorted(
            api for api, (__, t) in self._index.items()
            if t.category == "create"
        )
        self.other_writes = sorted(
            api for api in self._index
            if api not in self.reads and api not in self.creates
        )

    @classmethod
    def of(cls, front) -> "TrafficModel":
        """The model of ``front``'s module, reads classified by one of
        its emulators."""
        return cls(front.module, front.emulator_factory().read_only)

    def owning_sm(self, api: str) -> str:
        return self._index[api][0]

    def _value(self, rng, param, ids_by_sm: dict) -> object:
        type_ = param.type
        norm = normalize_key(param.name)
        if type_.kind == "sm" or norm.endswith("id"):
            pool = ids_by_sm.get(type_.sm_name) if type_.sm_name else None
            if not pool:
                pool = [
                    value
                    for values in ids_by_sm.values() for value in values
                ]
            if pool and rng.random() < 0.9:
                return rng.choice(pool[-8:])
            return f"missing-{norm}"
        if "cidr" in norm:
            return rng.choice((
                "10.0.0.0/16", "10.1.0.0/16", "10.0.1.0/24",
                "10.0.2.0/24", "192.168.0.0/20",
            ))
        if type_.kind == "bool":
            return rng.random() < 0.5
        if type_.kind == "int":
            return rng.randrange(1, 8)
        if type_.kind == "enum" and type_.enum_values:
            return rng.choice(type_.enum_values)
        if type_.kind == "list":
            return []
        if type_.kind == "map":
            return {"Name": f"lg-{rng.randrange(100)}"}
        return rng.choice(("name", "default", "standard", "primary"))

    def params(self, rng, api: str, ids_by_sm: dict,
               omit: float = 0.0, pin: dict | None = None) -> dict:
        """Seeded parameters for one call of ``api``.

        Each parameter is left out with probability ``omit``; one whose
        normalized name is a key of ``pin`` takes the pinned value
        instead of a drawn one.
        """
        __, transition = self._index[api]
        pin = pin or {}
        params = {}
        for param in transition.params:
            if omit and rng.random() < omit:
                continue
            norm = normalize_key(param.name)
            params[param.name] = (
                pin[norm] if norm in pin
                else self._value(rng, param, ids_by_sm)
            )
        return params

    def request(self, rng, read_ratio: float,
                ids_by_sm: dict) -> tuple[str, dict, bool]:
        """One deterministic request: (api, params, is_read)."""
        if self.reads and rng.random() < read_ratio:
            api = rng.choice(self.reads)
            is_read = True
        elif self.creates and (not ids_by_sm or rng.random() < 0.6):
            api = rng.choice(self.creates)
            is_read = False
        elif self.other_writes:
            api = rng.choice(self.other_writes)
            is_read = False
        else:
            api = rng.choice(self.creates or self.reads)
            is_read = not self.creates
        # Occasionally omit a parameter, so validation sees bad input.
        return api, self.params(rng, api, ids_by_sm, omit=0.05), is_read


@dataclass(eq=False)
class Stream:
    """One seeded client: who it speaks as, how fast, for how long.

    It offers ``rate`` requests per virtual second as one of
    ``tenants`` (drawn by ``weights`` when there are several), and
    stops after ``budget`` offers (``None``: at the run's horizon).
    """

    index: int
    seed: int
    tenants: list
    rate: float
    budget: int | None = None
    weights: list | None = None

    def __post_init__(self):
        self.rng = random.Random(self.seed * 1_000_003 + self.index * 7_919)
        self.offered = 0
        self.ids_by_sm: dict[str, list[str]] = {}
        #: The request in flight, ``(tenant, api, params, is_read)``,
        #: with its tries so far and the instant it was first offered.
        self.pending: tuple | None = None
        self.attempts = 0
        self.first_at = self.next_at = 0.0

    def pick_tenant(self) -> str:
        if len(self.tenants) == 1:
            return self.tenants[0]
        return self.rng.choices(self.tenants, weights=self.weights)[0]

    def exhausted(self) -> bool:
        return self.budget is not None and self.offered >= self.budget


def _percentile(values: list, fraction: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(fraction * (len(ordered) - 1)))
    return ordered[index]


@dataclass
class TenantTally:
    """One tenant's offers and their final outcomes."""

    offered: int = 0
    #: Final outcome a success.
    ok: int = 0
    #: Final outcome past admission: a success, or an error the
    #: service (or injected chaos) answered after admitting it.
    admitted: int = 0
    #: Serving-layer shed responses, one per shed.
    shed: int = 0
    #: Offers shed with ``ExpiredBeforeDispatch``.
    expired: int = 0
    #: Offers abandoned after ``MAX_ATTEMPTS`` sheds.
    gave_up: int = 0
    #: Per finished offer: virtual time to its outcome, backoff
    #: included.
    latencies: list = field(default_factory=list)

    def counts(self) -> dict:
        return {
            item.name: getattr(self, item.name)
            for item in fields(self) if item.name != "latencies"
        }

    def stats(self, elapsed: float) -> dict:
        """Counts plus goodput and time-to-outcome tails over
        ``elapsed`` virtual seconds."""
        stats = self.counts()
        stats["goodput_rps"] = round(self.admitted / elapsed, 3)
        stats["p50_s"] = round(_percentile(self.latencies, 0.50), 6)
        stats["p99_s"] = round(_percentile(self.latencies, 0.99), 6)
        return stats


@dataclass
class Tally:
    """Everything one or more :func:`drive` runs offered and got."""

    #: Final outcome code per offer ("" = success).
    by_code: dict = field(default_factory=dict)
    reads: int = 0
    writes: int = 0
    #: Reads answered from a trailing replica (netem stale serving).
    stale_reads: int = 0
    #: Shed waits honored (failovers included), the virtual seconds
    #: waited, and a bounded sample of admission-shed waits.
    retry_after_honored: int = 0
    retry_after_seconds: float = 0.0
    retry_after_log: list = field(default_factory=list)
    #: The ``ShardUnavailable`` subset of those waits — accounted
    #: separately so a run can tell backpressure from a dying worker.
    failover_honored: int = 0
    failover_seconds: float = 0.0
    failover_log: list = field(default_factory=list)
    #: Re-offers sent after a shed, and sheds that bounced off an
    #: exhausted retry side-budget.
    retries_sent: int = 0
    retry_budget_exhausted: int = 0
    by_tenant: dict = field(default_factory=dict)

    @property
    def requests(self) -> int:
        return self.reads + self.writes

    @property
    def shed(self) -> int:
        return sum(split.shed for split in self.by_tenant.values())

    @property
    def deadline_expired(self) -> int:
        return sum(split.expired for split in self.by_tenant.values())

    def tenant(self, name: str) -> TenantTally:
        return self.by_tenant.setdefault(name, TenantTally())

    def merge(self, other: "Tally") -> None:
        for item in fields(Tally):
            mine, theirs = getattr(self, item.name), getattr(other, item.name)
            if isinstance(mine, (int, float)):
                setattr(self, item.name, mine + theirs)
            elif isinstance(mine, list):  # a bounded wait log
                mine.extend(theirs[:LOG_SAMPLES - len(mine)])
        for code, count in other.by_code.items():
            self.by_code[code] = self.by_code.get(code, 0) + count
        for tenant, theirs in other.by_tenant.items():
            mine = self.tenant(tenant)
            for name, value in theirs.counts().items():
                setattr(mine, name, getattr(mine, name) + value)
            mine.latencies.extend(theirs.latencies)

    def _note_wait(self, stream: Stream, api: str, code: str,
                   hint: float, wait: float, error: dict) -> None:
        self.retry_after_honored += 1
        self.retry_after_seconds += wait
        entry = {
            "stream": stream.index, "api": api, "code": code,
            "hint": round(float(hint), 6), "honored": round(wait, 6),
        }
        if error.get("ShardUnavailable"):
            self.failover_honored += 1
            self.failover_seconds += wait
            if len(self.failover_log) < LOG_SAMPLES:
                self.failover_log.append(
                    {**entry, "shard": error.get("Shard")}
                )
        elif len(self.retry_after_log) < LOG_SAMPLES:
            self.retry_after_log.append(entry)


def drive(front, streams: list, read_ratio: float,
          seconds: float | None = None,
          deadline: float | None = None,
          mark_retries: bool = False) -> Tally:
    """Run ``streams`` against ``front`` on this thread, in virtual-time
    order, until every stream spends its budget or ``seconds`` of
    virtual time pass.

    Envelopes carry ``DeadlineSeconds`` when ``deadline`` is set;
    re-offers carry ``Retry: true`` when ``mark_retries`` is set, so
    they draw on the capped retry side-budget.
    """
    model = TrafficModel.of(front)
    clock = front.clock
    tally = Tally()
    now = clock.now()
    horizon = math.inf if seconds is None else now + seconds
    heap: list = []
    for stream in streams:
        stream.next_at = now + (stream.index + 1) * 1e-4
        if not stream.exhausted():
            heapq.heappush(heap, (stream.next_at, stream.index, stream))
    while heap:
        at, __, stream = heapq.heappop(heap)
        if at > horizon:
            continue
        if at > now:
            step = at - now
            clock.sleep(step)
            now += step
        rng = stream.rng
        if stream.pending is None:
            tenant = stream.pick_tenant()
            api, params, is_read = model.request(
                rng, read_ratio, stream.ids_by_sm
            )
            stream.pending = (tenant, api, params, is_read)
            stream.attempts = 0
            stream.first_at = now
            stream.offered += 1
            tally.tenant(tenant).offered += 1
            if is_read:
                tally.reads += 1
            else:
                tally.writes += 1
        tenant, api, params, __ = stream.pending
        envelope = {"Action": api, "Parameters": params}
        if deadline is not None:
            envelope["DeadlineSeconds"] = deadline
        if stream.attempts:
            tally.retries_sent += 1
            if mark_retries:
                envelope["Retry"] = True
        stream.attempts += 1
        body = front.dispatch(envelope, api_key=tenant)
        error = body.get("Error") or {}
        code = error.get("Code", "")
        hint = error.get("RetryAfterSeconds")
        split = tally.tenant(tenant)
        if error.get("RetryBudgetExhausted") is True:
            tally.retry_budget_exhausted += 1
        if error.get("ExpiredBeforeDispatch") is True:
            split.expired += 1
        elif (
            code in SHED_CODES
            and isinstance(hint, (int, float)) and hint > 0
        ):
            split.shed += 1
            if stream.attempts < MAX_ATTEMPTS:
                cap = min(float(hint), MAX_RETRY_AFTER)
                wait = max(rng.uniform(0.0, cap), 1e-6)
                tally._note_wait(stream, api, code, hint, wait, error)
                heapq.heappush(heap, (now + wait, stream.index, stream))
                continue
            split.gave_up += 1
        else:
            split.admitted += 1
            if not error:
                split.ok += 1
                if body.get("Stale") is True:
                    tally.stale_reads += 1
                created = body.get("id")
                if isinstance(created, str) and created:
                    sm = model.owning_sm(api)
                    stream.ids_by_sm.setdefault(sm, []).append(created)
        tally.by_code[code] = tally.by_code.get(code, 0) + 1
        split.latencies.append(now - stream.first_at)
        stream.pending = None
        stream.next_at += 1.0 / stream.rate
        if not stream.exhausted():
            heapq.heappush(
                heap, (max(stream.next_at, now), stream.index, stream)
            )
    return tally


@dataclass
class LoadReport(Tally):
    """What one load run offered, received and proved."""

    workers: int = 0
    tenants: int = 0
    admitted_writes: int = 0
    wall_seconds: float = 0.0
    linearizable: bool | None = None
    mismatches: list = field(default_factory=list)
    #: The observability plane's summary (SLO budgets, burn alerts,
    #: sampling, drift) when one was attached to the front door.
    obs: dict | None = None
    #: Aggregated MVCC version accounting across tenants (publishes,
    #: reclaimed, live versions, pinned reads) — ``None`` until a
    #: verifying run collects it.
    mvcc: dict | None = None

    @property
    def throughput_rps(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.requests / self.wall_seconds

    def as_dict(self) -> dict:
        out = {item.name: getattr(self, item.name) for item in fields(self)}
        out.update(
            requests=self.requests, shed=self.shed,
            deadline_expired=self.deadline_expired,
            by_code=dict(sorted(self.by_code.items())),
            by_tenant={
                tenant: split.counts()
                for tenant, split in sorted(self.by_tenant.items())
            },
            wall_seconds=round(self.wall_seconds, 6),
            throughput_rps=round(self.throughput_rps, 3),
            retry_after_seconds=round(self.retry_after_seconds, 6),
            failover_seconds=round(self.failover_seconds, 6),
        )
        return out


class LoadGenerator:
    """Drives seeded concurrent traffic through a front door: one
    :class:`Stream` per worker thread, each run by :func:`drive`."""

    def __init__(
        self,
        frontdoor,
        seed: int = 11,
        workers: int = 8,
        requests_per_worker: int = 250,
        read_ratio: float = 0.7,
        tenants: int = 1,
        offered_rate: float | None = None,
        aggressor: str | None = None,
        aggressor_weight: float = 10.0,
        deadline: float | None = None,
        retry_shed: bool = False,
    ):
        self.frontdoor = frontdoor
        self.seed = seed
        self.workers = workers
        self.requests_per_worker = requests_per_worker
        self.read_ratio = read_ratio
        self.tenant_names = [
            f"tenant-{index}" for index in range(max(1, tenants))
        ]
        #: Requests per virtual clock-second offered to the buckets,
        #: summed over workers (None: one per second, so the default
        #: buckets never shed).
        self.offered_rate = offered_rate
        #: The noisy neighbor: this tenant is offered
        #: ``aggressor_weight`` times more traffic than each victim.
        self.aggressor = aggressor
        self.aggressor_weight = aggressor_weight
        #: When set, every envelope carries ``DeadlineSeconds`` — the
        #: propagated budget the serving layers shed against.
        self.deadline = deadline
        #: Mark re-offers ``Retry: true``, so runs exercise the capped
        #: retry side-budget.
        self.retry_shed = retry_shed

    def run(self, verify: bool = True) -> LoadReport:
        """Run the full load, then (optionally) prove linearizability."""
        weights = None
        if self.aggressor in self.tenant_names:
            weights = [
                self.aggressor_weight if name == self.aggressor else 1.0
                for name in self.tenant_names
            ]
        tallies: list = [None] * self.workers

        def worker(index: int) -> None:
            stream = Stream(
                index, self.seed, self.tenant_names,
                rate=self.offered_rate or 1.0,
                budget=self.requests_per_worker, weights=weights,
            )
            tallies[index] = drive(
                self.frontdoor, [stream], self.read_ratio,
                deadline=self.deadline,
                mark_retries=self.retry_shed,
            )

        threads = [
            threading.Thread(
                target=worker, args=(index,),
                name=f"loadgen-{index}", daemon=True,
            )
            for index in range(self.workers)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        report = LoadReport(
            workers=self.workers, tenants=len(self.tenant_names),
            wall_seconds=time.perf_counter() - start,
        )
        for tally in tallies:
            report.merge(tally)
        report.admitted_writes = len(self.frontdoor.admitted)
        obs = getattr(self.frontdoor.telemetry, "obs", None)
        if obs is not None:
            report.obs = obs.report()
        if verify:
            report.linearizable, report.mismatches = (
                self.frontdoor.verify_linearizable()
            )
            report.mvcc = self.frontdoor.mvcc_stats()
        return report
