"""The noisy-neighbor fairness drill behind the holistic allocator.

The scenario answers the question the allocator exists for: when one
tenant floods at ten times everyone else's rate, do the victims keep
the goodput and latency they had when the aggressor was away?

It runs two phases against *fresh* fair front doors with the same
pool configuration:

- **isolated** — the victims alone, each offered its steady rate;
- **contended** — the same victim traffic (same seeds, same request
  streams) plus the aggressor flooding at ``aggressor_mult`` times a
  victim's rate.

Per victim it grades goodput retention (contended admitted / isolated
admitted) and tail latency (contended p99 against twice the isolated
p99, floored so a zero-latency isolated phase cannot fail the bound
on noise), then re-proves linearizability for both phases — fairness
that corrupts the registry would be worse than no fairness.

With ``kill_shard=True`` the drill instead runs on a sharded fair
front door, kills one worker mid-run (no auto-restart), and grades
**budget inheritance**: the dead shard's tenants collapse to the
floor grant, the survivors inherit the freed budget, and aggregate
goodput must retain at least ~0.7 of the pre-kill rate — without
inheritance a 2-shard kill pins retention near 0.5.

The driver is single-threaded and event-ordered on the virtual clock
(a heap of per-client next-fire instants), so every run is exactly
reproducible: ratios in CI gate real regressions, not scheduling
noise.  Clients honor Retry-After with full jitter and re-offer shed
requests up to ``MAX_ATTEMPTS`` times, so a request's latency is its
honest time-to-outcome including backoff.
"""

from __future__ import annotations

import heapq
import random

from ..serve.allocation import AllocationConfig
from ..serve.frontdoor import FrontDoor
from ..serve.loadgen import (
    MAX_RETRY_AFTER,
    SHED_CODES,
    _TrafficModel,
    verify_linearizable,
)
from ..telemetry import Telemetry

#: Tries per request (the first offer plus re-offers after a shed).
MAX_ATTEMPTS = 5


def _percentile(values: list, fraction: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(fraction * (len(ordered) - 1)))
    return ordered[index]


def drive_fair_load(
    front,
    clients: list,
    seconds: float,
    seed: int = 7,
    read_ratio: float = 0.6,
) -> dict:
    """Drive ``clients`` (``[(tenant, rate), ...]``) for ``seconds``
    of virtual time, single-threaded and deterministic.

    Each client offers requests at its rate; a shed answer is retried
    after a full-jittered Retry-After wait, up to ``MAX_ATTEMPTS``
    tries.  Returns per-tenant ``{offered, admitted, shed, expired,
    retry_exhausted, gave_up, goodput_rps, p50_s, p99_s}`` plus the
    elapsed window.
    """
    probe = front.emulator_factory()
    model = _TrafficModel(front.module, probe.read_only)
    clock = front.clock
    start = clock.now()
    horizon = start + seconds
    heap: list = []
    state: dict[str, dict] = {}
    for index, (tenant, rate) in enumerate(clients):
        entry = {
            "rng": random.Random(seed * 1_000_003 + index * 7_919),
            "rate": float(rate),
            "ids": {},
            "next_at": start + (index + 1) * 1e-4,
            "pending": None,
            "attempts": 0,
            "first_at": 0.0,
            "latencies": [],
            "stats": {
                "offered": 0, "admitted": 0, "shed": 0,
                "expired": 0, "retry_exhausted": 0, "gave_up": 0,
            },
        }
        state[tenant] = entry
        heapq.heappush(heap, (entry["next_at"], index, tenant))
    while heap:
        at, index, tenant = heapq.heappop(heap)
        if at > horizon:
            continue
        entry = state[tenant]
        now = clock.now()
        if at > now:
            clock.sleep(at - now)
            now = clock.now()
        rng = entry["rng"]
        retrying = entry["pending"] is not None
        if not retrying:
            entry["pending"] = model.request(
                rng, read_ratio, entry["ids"]
            )
            entry["attempts"] = 0
            entry["first_at"] = now
            entry["stats"]["offered"] += 1
        api, params, __ = entry["pending"]
        envelope = {"Action": api, "Parameters": params}
        entry["attempts"] += 1
        body = front.dispatch(envelope, api_key=tenant)
        error = body.get("Error") or {}
        code = error.get("Code", "")
        stats = entry["stats"]
        done = True
        if error.get("RetryBudgetExhausted") is True:
            stats["retry_exhausted"] += 1
        hint = error.get("RetryAfterSeconds")
        # A *serving-layer* shed always carries the Retry-After hint;
        # injected chaos faults reuse the same codes but never the
        # hint, and they fire *after* admission — they are admitted
        # work that failed, not unfairness, so they must not count
        # against a tenant's goodput ratio.
        is_shed = (
            code in SHED_CODES
            and isinstance(hint, (int, float)) and hint > 0
        )
        if error.get("ExpiredBeforeDispatch") is True:
            stats["expired"] += 1
        elif is_shed:
            if entry["attempts"] < MAX_ATTEMPTS:
                cap = min(float(hint), MAX_RETRY_AFTER)
                wait = max(rng.uniform(0.0, cap), 1e-6)
                heapq.heappush(heap, (now + wait, index, tenant))
                done = False
            else:
                stats["shed"] += 1
                stats["gave_up"] += 1
        else:
            stats["admitted"] += 1
            if not error:
                created = body.get("id")
                if isinstance(created, str) and created:
                    sm = model.owning_sm(api)
                    entry["ids"].setdefault(sm, []).append(created)
        if done:
            entry["latencies"].append(now - entry["first_at"])
            entry["pending"] = None
            entry["next_at"] += 1.0 / entry["rate"]
            heapq.heappush(
                heap, (max(entry["next_at"], now), index, tenant)
            )
    elapsed = max(clock.now() - start, 1e-9)
    tenants = {}
    for tenant, entry in state.items():
        stats = dict(entry["stats"])
        stats["goodput_rps"] = round(stats["admitted"] / elapsed, 3)
        stats["p50_s"] = round(_percentile(entry["latencies"], 0.50), 6)
        stats["p99_s"] = round(_percentile(entry["latencies"], 0.99), 6)
        tenants[tenant] = stats
    return {"elapsed_s": round(elapsed, 6), "tenants": tenants}


def _fair_front(build, pool_rate: float, pool_burst: float,
                seed: int, chaos: str | None = None,
                weights: dict | None = None, shards: int = 0,
                data_dir=None, auto_restart: bool = True):
    telemetry = Telemetry(service=build.service)
    wrap = None
    if chaos:
        from ..resilience.chaos import (
            ChaosEngine,
            ChaosProxy,
            resolve_profile,
        )

        engine = ChaosEngine(resolve_profile(chaos), seed=seed)
        wrap = lambda backend: ChaosProxy(backend, engine)  # noqa: E731
    allocation = AllocationConfig(
        total_rate=pool_rate, total_burst=pool_burst,
        weights=dict(weights or {}),
    )
    if shards:
        from ..serve.shard import ShardedFrontDoor

        return ShardedFrontDoor(
            build.module, build.make_backend, shards=shards,
            data_dir=data_dir, telemetry=telemetry, wrap=wrap,
            seed=seed, allocation=allocation,
            auto_restart=auto_restart,
        )
    return FrontDoor(
        build.module, build.make_backend, telemetry=telemetry,
        wrap=wrap, seed=seed, allocation=allocation,
    )


def _verify(front) -> tuple[bool, list[str]]:
    verifier = getattr(front, "verify_linearizable", None)
    if callable(verifier):
        return verifier()
    return verify_linearizable(front)


def noisy_neighbor(
    build,
    seed: int = 7,
    chaos: str | None = None,
    victims: int = 3,
    victim_rate: float = 20.0,
    aggressor_mult: float = 10.0,
    seconds: float = 20.0,
    goodput_floor: float = 0.9,
    p99_ceiling: float = 2.0,
) -> dict:
    """Grade victim isolation under a 10x noisy-neighbor flood."""
    victim_names = [f"victim-{index}" for index in range(victims)]
    pool_rate = victim_rate * (victims + 1)
    pool_burst = pool_rate * 0.4
    result = {
        "name": "noisy_neighbor",
        "chaos": chaos or "off",
        "pool_rate": pool_rate,
        "victims": victims,
        "victim_rate": victim_rate,
        "aggressor_mult": aggressor_mult,
        "phases": {},
    }

    front = _fair_front(build, pool_rate, pool_burst, seed, chaos=chaos)
    isolated = drive_fair_load(
        front, [(name, victim_rate) for name in victim_names],
        seconds, seed=seed,
    )
    iso_ok, iso_mismatches = _verify(front)
    result["phases"]["isolated"] = isolated

    front = _fair_front(build, pool_rate, pool_burst, seed, chaos=chaos)
    clients = [(name, victim_rate) for name in victim_names]
    clients.append(("aggressor", victim_rate * aggressor_mult))
    contended = drive_fair_load(front, clients, seconds, seed=seed)
    con_ok, con_mismatches = _verify(front)
    result["phases"]["contended"] = contended
    result["allocation"] = front.allocator.snapshot()
    result["allocation_history"] = list(front.allocator.history)

    ratios = {}
    p99_bounds = {}
    for name in victim_names:
        iso = isolated["tenants"][name]
        con = contended["tenants"][name]
        ratios[name] = round(
            con["admitted"] / max(1, iso["admitted"]), 4
        )
        p99_bounds[name] = (
            con["p99_s"] <= max(p99_ceiling * iso["p99_s"], 1e-3)
        )
    result["victim_goodput_ratios"] = ratios
    result["victim_p99_ok"] = p99_bounds
    result["linearizable"] = iso_ok and con_ok
    result["mismatches"] = iso_mismatches + con_mismatches
    result["ok"] = (
        min(ratios.values()) >= goodput_floor
        and all(p99_bounds.values())
        and result["linearizable"]
    )
    return result


def shard_kill_inheritance(
    build,
    seed: int = 7,
    shards: int = 2,
    tenants_per_shard: int = 2,
    tenant_rate: float = 15.0,
    seconds: float = 16.0,
    retention_floor: float = 0.7,
    data_dir=None,
) -> dict:
    """Kill a shard mid-run; survivors must inherit its budget.

    Every tenant floods at twice its fair share, so pre-kill the pool
    is fully subscribed.  After the kill the dead shard's tenants are
    pinned to the floor grant and the survivors — still flooding —
    can only regain aggregate goodput if the freed budget actually
    flows to them: retention above ``retention_floor`` is the
    inheritance proof (no inheritance pins it near ``1/shards``).
    """
    from ..serve.shard import shard_for

    by_shard: dict[int, list[str]] = {index: [] for index in range(shards)}
    probe = 0
    while any(
        len(names) < tenants_per_shard for names in by_shard.values()
    ):
        name = f"tenant-{probe}"
        owner = shard_for(name, shards)
        if len(by_shard[owner]) < tenants_per_shard:
            by_shard[owner].append(name)
        probe += 1
    tenant_names = [
        name for names in by_shard.values() for name in names
    ]
    pool_rate = tenant_rate * len(tenant_names)
    front = _fair_front(
        build, pool_rate, pool_rate * 0.4, seed, shards=shards,
        data_dir=data_dir, auto_restart=False,
    )
    result = {
        "name": "shard_kill_inheritance",
        "shards": shards,
        "pool_rate": pool_rate,
        "tenants": {
            str(index): list(names)
            for index, names in by_shard.items()
        },
        "phases": {},
    }
    try:
        # Flood at 2x fair share: the pool is the bottleneck, so any
        # freed budget is immediately usable by whoever receives it.
        clients = [
            (name, tenant_rate * 2.0) for name in tenant_names
        ]
        pre = drive_fair_load(
            front, clients, seconds / 2.0, seed=seed
        )
        result["phases"]["pre_kill"] = pre

        killed = 0
        front.supervisor.kill(killed)
        result["killed_shard"] = killed

        post = drive_fair_load(
            front, clients, seconds / 2.0, seed=seed + 1
        )
        result["phases"]["post_kill"] = post

        pre_rate = sum(
            stats["admitted"] for stats in pre["tenants"].values()
        ) / pre["elapsed_s"]
        post_rate = sum(
            stats["admitted"] for stats in post["tenants"].values()
        ) / post["elapsed_s"]
        result["pre_kill_rps"] = round(pre_rate, 3)
        result["post_kill_rps"] = round(post_rate, 3)
        retention = post_rate / max(pre_rate, 1e-9)
        result["throughput_retention"] = round(retention, 4)
        result["allocation"] = front.allocator.snapshot()
        result["allocation_history"] = list(front.allocator.history)

        ok, mismatches = front.verify_linearizable()
        result["linearizable"] = ok
        result["mismatches"] = mismatches
        result["ok"] = retention >= retention_floor and ok
        return result
    finally:
        front.close()


FAIRNESS_SCENARIOS = (noisy_neighbor, shard_kill_inheritance)
