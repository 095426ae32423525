"""Geo-distributed serving scenarios: failover, convergence, noise.

These scenarios exercise the network-realistic serving path
(:mod:`repro.netem`) end to end, each returning a plain result dict
with an ``ok`` verdict and the evidence behind it:

- :func:`multi_region_failover` — a client far from its data keeps
  reading through a partition (stale, from its local replica) while
  its writes bounce with region-appropriate errors, then writes again
  after the heal;
- :func:`partition_heal_convergence` — a replica region isolated
  mid-write-burst diverges, and the first post-heal sync converges it;
  the proof is a byte-level registry snapshot diff
  (:func:`repro.durability.snapshot.registry_diff`), not an assertion;
- :func:`noisy_cross_region_replication` — seeded loss, degraded RTT
  and scripted partitions under concurrent multi-tenant load, with the
  serial-replay linearizability check as the pass bar.  This is the
  scenario the sweep harness (:mod:`repro.netem.sweep`) runs per grid
  cell.

Every scenario builds its own front door over a caller-supplied build
(``build.module`` + ``build.make_backend``), so they run against any
learned emulator without touching global state.
"""

from __future__ import annotations

import random

from ..netem.engine import NetEm
from ..netem.placement import Placer, REGION_HINT_KEYS
from ..netem.timeline import FaultTimeline, partition_window, seeded_partitions
from ..netem.topology import (
    DEFAULT_REGIONS,
    three_region_topology,
    uniform_topology,
)
from ..resilience.policy import VirtualClock
from ..serve.frontdoor import FrontDoor
from ..serve.loadgen import LoadGenerator, TrafficModel
from ..telemetry import Telemetry


def regional_frontdoor(build, netem, telemetry, client_regions=None,
                       home_region=None, replication_lag=0.25, seed=7,
                       rate=200.0, burst=100.0, placer=None):
    """A single-process front door routed over ``netem``."""
    return FrontDoor(
        build.module, build.make_backend,
        clock=netem.clock, telemetry=telemetry,
        network=netem, home_region=home_region,
        client_regions=client_regions,
        replication_lag=replication_lag,
        placer=placer,
        rate=rate, burst=burst, seed=seed,
    )


def single_home_placer(seed: int) -> Placer:
    """All un-hinted creates land at the primary region — the shape
    that makes a cross-region partition actually stand between a
    remote client and its data."""
    return Placer(DEFAULT_REGIONS, seed=seed,
                  default_region="us-east-1", data_gravity=False)


def send(front, tenant, api, params):
    """One scripted call through the wire path: (body, error code)."""
    body = front.dispatch(
        {"Action": api, "Parameters": params}, api_key=tenant
    )
    error = body.get("Error")
    return body, (error or {}).get("Code", "")


def probe_workload(build, seed: int, creates_needed: int = 6):
    """Discover a driveable single-resource workload for any service.

    Registry IDs are deterministic, so a sequence of creates proved
    against a scratch emulator replays identically inside a scenario:
    the probe returns ``creates_needed`` validated ``(api, params)``
    creates plus one read that succeeds against the first created
    resource.  Raises if the module offers nothing driveable — a
    convergence scenario over a service it cannot exercise should
    fail loudly, not vacuously pass.
    """
    scratch = build.make_backend()
    model = TrafficModel(build.module, scratch.read_only)
    rng = random.Random(seed * 9973 + 11)
    # Region-ish params are pinned to the scenarios' home region: a
    # synthesized location hint would otherwise route the create to
    # an arbitrary region and defeat the single-home shape the
    # partition tests rely on.
    home = {key: "us-east-1" for key in REGION_HINT_KEYS}
    for create_api in model.creates:
        probe = build.make_backend()
        creates: list[tuple[str, dict]] = []
        first_id = ""
        for __attempt in range(creates_needed * 4):
            params = model.params(rng, create_api, {}, pin=home)
            response = probe.invoke(create_api, params)
            created = response.data.get("id") if response.success else None
            if isinstance(created, str) and created:
                creates.append((create_api, params))
                first_id = first_id or created
                if len(creates) >= creates_needed:
                    break
        if len(creates) < creates_needed:
            continue
        ids = {model.owning_sm(create_api): [first_id]}
        for read_api in model.reads:
            read_params = model.params(rng, read_api, ids)
            if probe.invoke(read_api, read_params).success:
                return creates, read_api, read_params
    raise ValueError(
        f"no driveable create+read workload found for "
        f"{build.service!r}; the geo scenarios cannot run against it"
    )


def multi_region_failover(build, seed: int = 7,
                          trace: str | None = None) -> dict:
    """A remote client rides out a partition on stale reads.

    The tenant's client sits in ``eu-west-1`` while its resources live
    in the home region ``us-east-1``.  Mid-run the transatlantic link
    partitions: writes must fail with ``ServiceUnavailable`` naming
    the unreachable region, reads must keep answering from the local
    replica (marked ``Stale``), and after the heal writes must land
    again.
    """
    clock = VirtualClock()
    telemetry = Telemetry(service=build.service, clock=clock)
    timeline = FaultTimeline(
        partition_window("us-east-1", "eu-west-1", start=10.0,
                         duration=20.0)
    )
    netem = NetEm(three_region_topology(), clock=clock,
                  timeline=timeline, seed=seed, telemetry=telemetry)
    front = regional_frontdoor(
        build, netem, telemetry, seed=seed,
        home_region="us-east-1",
        client_regions={"geo": "eu-west-1"},
        replication_lag=0.5,
        placer=single_home_placer(seed),
    )

    creates, read_api, read_params = probe_workload(build, seed)
    result = {"name": "multi_region_failover", "phases": {},
              "workload": {"create": creates[0][0], "read": read_api}}
    # Phase 1: healthy — create a resource, read it back
    # authoritatively.
    body, code = send(front, "geo", *creates[0])
    resource = body.get("id", "")
    __, read_code = send(front, "geo", read_api, read_params)
    result["phases"]["healthy"] = {
        "create_code": code, "read_code": read_code,
        "resource": resource,
    }
    # Let the replica catch up, then cross into the partition window.
    clock.sleep(2.0)
    front.invoke(read_api, read_params, api_key="geo")
    clock.sleep(10.0)

    # Phase 2: partitioned — writes bounce, reads go stale.
    __, write_code = send(front, "geo", *creates[1])
    read_body, read_code = send(front, "geo", read_api, read_params)
    result["phases"]["partitioned"] = {
        "write_code": write_code,
        "read_code": read_code,
        "read_stale": read_body.get("Stale") is True,
        "replica_region": read_body.get("ReplicaRegion", ""),
    }

    # Phase 3: healed — the client retries the bounced write, and it
    # lands.
    clock.sleep(25.0)
    __, heal_code = send(front, "geo", *creates[1])
    result["phases"]["healed"] = {"write_code": heal_code}
    result["stale_reads"] = netem.stats.stale_reads
    result["partition_rejects"] = netem.stats.partition_rejects
    result["partition_windows"] = netem.topology.partition_report()
    result["ok"] = (
        code == ""
        and write_code == "ServiceUnavailable"
        and result["phases"]["partitioned"]["read_stale"]
        and heal_code == ""
    )
    if trace:
        from ..telemetry.export import write_trace

        write_trace(telemetry, trace)
    return result


def partition_heal_convergence(build, seed: int = 7,
                               partition_duration: float = 15.0,
                               trace: str | None = None) -> dict:
    """Divergence under partition, byte-identical registries after.

    Writes land at the home region while ``us-west-2`` is cut off;
    its replica freezes.  After the heal, one sync must converge every
    replica: the proof is :meth:`ReplicaSet.divergence`, which diffs
    full registry dumps (instances, state, ID counters, placements)
    via :func:`repro.durability.snapshot.registry_diff`.
    """
    clock = VirtualClock()
    telemetry = Telemetry(service=build.service, clock=clock)
    timeline = FaultTimeline(
        partition_window("us-east-1", "us-west-2", start=5.0,
                         duration=partition_duration)
    )
    netem = NetEm(three_region_topology(), clock=clock,
                  timeline=timeline, seed=seed, telemetry=telemetry)
    front = regional_frontdoor(
        build, netem, telemetry, seed=seed,
        home_region="us-east-1",
        client_regions={"geo": "us-east-1"},
        replication_lag=0.1,
        placer=single_home_placer(seed),
    )

    creates, __read_api, __read_params = probe_workload(build, seed)
    __, code = send(front, "geo", *creates[0])
    clock.sleep(6.0)  # enter the partition window
    for api, params in creates[1:5]:
        send(front, "geo", api, params)
    tenant = front.router.get("geo")
    replicas = front.region_gate.tenant_net("geo").replicas
    during = replicas.divergence(tenant.emulator)

    clock.sleep(partition_duration + 5.0)  # past the heal
    replicas.sync(netem, clock.now())
    after = replicas.divergence(tenant.emulator)

    if trace:
        from ..telemetry.export import write_trace

        write_trace(telemetry, trace)
    return {
        "name": "partition_heal_convergence",
        "first_create_code": code,
        "diverged_during_partition": "us-west-2" in during,
        "divergence_during": {
            region: diffs[:3] for region, diffs in during.items()
        },
        "divergence_after_heal": after,
        "replications": netem.stats.replications,
        "partition_windows": netem.topology.partition_report(),
        "ok": code == "" and "us-west-2" in during and not after,
    }


def noisy_cross_region_replication(
    build,
    seed: int = 7,
    loss: float = 0.05,
    base_rtt: float = 0.04,
    partition_duration: float = 10.0,
    workers: int = 4,
    requests_per_worker: int = 60,
    tenants: int = 2,
    obs: bool = True,
    slos: "list | None" = None,
    slo_period: float = 1440.0,
    sample_keep: float = 0.05,
    drift_rate: float = 0.0,
    trace: str | None = None,
    capture: dict | None = None,
) -> dict:
    """Concurrent multi-tenant load over a hostile WAN, proved safe.

    Every cross-region link carries ``loss`` and ``base_rtt``; seeded
    partitions open and close through the run.  The pass bar is the
    serving layer's own: the admitted log, replayed serially, must
    reproduce the live registry byte-for-byte — zero linearizability
    violations no matter what the network dropped.

    With ``obs`` (the default) the run carries a full
    :class:`~repro.obs.ObsPlane`: per-tenant SLOs over ``slo_period``
    virtual seconds (or caller-supplied ``slos``), tail sampling at
    ``sample_keep``, and optional evaluator ``drift_rate``.  The
    plane's summary lands in ``load.obs``; passing ``capture`` (a
    dict) hands back the live plane/netem/front-door objects so
    ``repro top --record`` can replay the dashboard, and ``trace``
    exports the schema-2 JSONL.
    """
    clock = VirtualClock()
    telemetry = Telemetry(service=build.service, clock=clock)
    topology = uniform_topology(
        DEFAULT_REGIONS,
        base_rtt=base_rtt, jitter=base_rtt / 4, loss=loss,
    )
    offered_rate = 100.0
    # The partition schedule must land inside the run's *virtual*
    # span: each request advances the clock by its pace plus roughly
    # one RTT, so the horizon is derived from the load shape rather
    # than fixed.
    total_requests = workers * requests_per_worker
    horizon = total_requests * (1.0 / offered_rate + 2.0 * base_rtt)
    timeline = FaultTimeline(seeded_partitions(
        topology.regions, seed=seed, horizon=horizon,
        duration=partition_duration,
        period=max(0.001, horizon / 3.0),
    ))
    netem = NetEm(topology, clock=clock, timeline=timeline, seed=seed,
                  telemetry=telemetry)
    plane = None
    if obs:
        from ..obs import default_slos, ObsPlane

        tenant_names = [f"tenant-{index}" for index in range(tenants)]
        plane = ObsPlane(
            telemetry, seed=seed,
            slos=(slos if slos is not None
                  else default_slos(tenant_names, period=slo_period)),
            sample_keep=sample_keep,
            drift_rate=drift_rate,
        )
    front = regional_frontdoor(build, netem, telemetry, seed=seed,
                               replication_lag=0.25)
    generator = LoadGenerator(
        front, seed=seed, workers=workers,
        requests_per_worker=requests_per_worker,
        tenants=tenants, offered_rate=offered_rate,
    )
    report = generator.run(verify=True)
    if capture is not None:
        capture.update(
            plane=plane, netem=netem, frontdoor=front,
            telemetry=telemetry, clock=clock,
        )
    if trace:
        from ..telemetry.export import write_trace

        write_trace(telemetry, trace)
    return {
        "name": "noisy_cross_region_replication",
        "load": report.as_dict(),
        "net": netem.stats.as_dict(),
        "partition_windows": netem.topology.partition_report(),
        "ok": bool(report.linearizable),
    }


#: The geo scenario catalog, in run order.
GEO_SCENARIOS = (
    multi_region_failover,
    partition_heal_convergence,
    noisy_cross_region_replication,
)


def run_geo_scenarios(build, seed: int = 7) -> list[dict]:
    """Run the full geo catalog; each entry carries its own verdict."""
    return [scenario(build, seed=seed) for scenario in GEO_SCENARIOS]
