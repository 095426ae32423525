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

:func:`shard_kill_inheritance` instead runs on a sharded fair front
door, kills one worker mid-run (no auto-restart), and grades
**budget inheritance**: the dead shard's tenants collapse to the
floor grant, the survivors inherit the freed budget, and aggregate
goodput must retain at least ~0.7 of the pre-kill rate — without
inheritance a 2-shard kill pins retention near 0.5.

The load comes from the one seeded client loop
(:func:`repro.serve.loadgen.drive`) on a single thread, so every run
is exactly reproducible: ratios in CI gate real regressions, not
scheduling noise.  Clients honor Retry-After with full jitter and
re-offer shed requests up to ``MAX_ATTEMPTS`` times, so a request's
latency is its honest time-to-outcome including backoff.
"""

from __future__ import annotations

from ..serve.allocation import AllocationConfig
from ..serve.frontdoor import FrontDoor
from ..serve.loadgen import drive, Stream
from ..telemetry import Telemetry


def drive_fair_load(
    front,
    clients: list,
    seconds: float,
    seed: int = 7,
    read_ratio: float = 0.6,
) -> dict:
    """Drive ``clients`` (``[(tenant, rate), ...]``) for ``seconds``
    of virtual time, one stream per client, single-threaded.

    Returns per-tenant ``{offered, ok, admitted, shed, expired,
    gave_up, goodput_rps, p50_s, p99_s}`` plus the elapsed window.
    """
    start = front.clock.now()
    tally = drive(
        front,
        [
            Stream(index, seed, [tenant], rate)
            for index, (tenant, rate) in enumerate(clients)
        ],
        read_ratio, seconds=seconds,
    )
    elapsed = max(front.clock.now() - start, 1e-9)
    return {
        "elapsed_s": round(elapsed, 6),
        "tenants": {
            tenant: tally.tenant(tenant).stats(elapsed)
            for tenant, __ in clients
        },
    }


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
    iso_ok, iso_mismatches = front.verify_linearizable()
    result["phases"]["isolated"] = isolated

    front = _fair_front(build, pool_rate, pool_burst, seed, chaos=chaos)
    clients = [(name, victim_rate) for name in victim_names]
    clients.append(("aggressor", victim_rate * aggressor_mult))
    contended = drive_fair_load(front, clients, seconds, seed=seed)
    con_ok, con_mismatches = front.verify_linearizable()
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
