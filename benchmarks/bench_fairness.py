"""Holistic fair allocation under adversarial load, measured.

Three numbers quantify what the allocator tentpole buys
(``BENCH_fairness.json``), all produced by single-threaded runs of
the one seeded client loop (:func:`repro.serve.loadgen.drive`, driven
through :mod:`repro.scenarios.fairness`) — every ratio is exactly
reproducible per seed, so CI gates regressions, not scheduling noise:

1. **Victim isolation** — with an aggressor flooding at 10x each
   victim's rate into the shared pool, every victim must keep at
   least ``MIN_VICTIM_GOODPUT`` of the goodput it had with the
   aggressor absent, and its p99 time-to-outcome (including honored
   backoff) must stay within twice the isolated tail.

2. **Work conservation** — against the same skewed offered load, the
   holistic pool must admit at least as much aggregate work as the
   legacy independent per-tenant buckets: unused victim budget flows
   to the flooding tenant instead of being confiscated by static
   caps.

3. **Shard-kill budget inheritance** — killing one of two shard
   workers (no auto-restart) must leave aggregate goodput above
   ``MIN_KILL_RETENTION`` of the pre-kill rate, because the dead
   shard's grants flow to tenants on the survivor.  Without
   inheritance a 2-shard kill pins retention near 0.5.

Every phase re-proves linearizability — a fair allocator that loses
or duplicates a write would be worse than an unfair one.
"""

from repro.scenarios.fairness import (
    drive_fair_load,
    noisy_neighbor,
    shard_kill_inheritance,
)
from repro.serve import AllocationConfig, FrontDoor

#: Every victim keeps at least this fraction of its isolated goodput.
MIN_VICTIM_GOODPUT = 0.9

#: The holistic pool must admit at least this multiple of what the
#: independent-bucket baseline admits for the same offered load.
MIN_WORK_CONSERVATION = 1.0

#: Post-kill aggregate goodput floor, as a fraction of pre-kill.
MIN_KILL_RETENTION = 0.7


def test_noisy_neighbor_isolation(learned_builds, bench_metrics):
    build = learned_builds["ec2"]
    result = noisy_neighbor(
        build, seed=7, seconds=20.0,
        goodput_floor=MIN_VICTIM_GOODPUT,
    )
    ratios = result["victim_goodput_ratios"]
    contended = result["phases"]["contended"]["tenants"]
    for victim, ratio in ratios.items():
        bench_metrics.gauge(
            "victim_goodput_ratio", ratio, tenant=victim
        )
    bench_metrics.gauge(
        "victim_goodput_ratio_min", min(ratios.values())
    )
    bench_metrics.gauge(
        "victim_p99_max_s",
        max(
            stats["p99_s"]
            for name, stats in contended.items()
            if name != "aggressor"
        ),
    )
    bench_metrics.gauge(
        "aggressor_goodput_rps", contended["aggressor"]["goodput_rps"]
    )
    bench_metrics.gauge(
        "reallocations", result["allocation"]["reallocations"]
    )
    print(
        f"\nnoisy neighbor: victim goodput ratios {ratios} "
        f"(floor {MIN_VICTIM_GOODPUT}); aggressor "
        f"{contended['aggressor']['goodput_rps']} rps with "
        f"{contended['aggressor']['shed']} shed"
    )
    assert result["linearizable"], result["mismatches"]
    assert min(ratios.values()) >= MIN_VICTIM_GOODPUT, ratios
    assert all(result["victim_p99_ok"].values()), result["victim_p99_ok"]
    assert result["ok"], result


def test_work_conservation_vs_independent_buckets(
    learned_builds, bench_metrics
):
    """Same skewed offered load, two admission policies: the holistic
    pool must admit at least as much aggregate work as independent
    equal per-tenant buckets, because idle victims' budget is
    re-granted to the flooding tenant instead of sitting confiscated.

    The mix is all-writes so the token budget is the binding resource
    — degraded-mode free reads would otherwise dominate both sides of
    the comparison and hide the rate-budget difference being measured.
    """
    build = learned_builds["ec2"]
    tenants = 4
    pool_rate = 80.0
    clients = [(f"victim-{index}", 5.0) for index in range(3)]
    clients.append(("aggressor", 200.0))

    fair = FrontDoor(
        build.module, build.make_backend, seed=7,
        allocation=AllocationConfig(
            total_rate=pool_rate, total_burst=pool_rate * 0.4
        ),
    )
    fair_run = drive_fair_load(
        fair, clients, 15.0, seed=7, read_ratio=0.0
    )
    fair_ok, fair_mismatches = fair.verify_linearizable()

    legacy = FrontDoor(
        build.module, build.make_backend, seed=7,
        rate=pool_rate / tenants, burst=pool_rate * 0.4 / tenants,
    )
    legacy_run = drive_fair_load(
        legacy, clients, 15.0, seed=7, read_ratio=0.0
    )
    legacy_ok, legacy_mismatches = legacy.verify_linearizable()

    fair_total = sum(
        stats["admitted"] for stats in fair_run["tenants"].values()
    )
    legacy_total = sum(
        stats["admitted"] for stats in legacy_run["tenants"].values()
    )
    ratio = fair_total / max(1, legacy_total)
    bench_metrics.gauge("aggregate_admitted_fair", fair_total)
    bench_metrics.gauge("aggregate_admitted_independent", legacy_total)
    bench_metrics.gauge("work_conservation_ratio", round(ratio, 4))
    print(
        f"\nwork conservation: fair pool admitted {fair_total}, "
        f"independent buckets {legacy_total} ({ratio:.2f}x)"
    )
    assert fair_ok, fair_mismatches
    assert legacy_ok, legacy_mismatches
    assert ratio >= MIN_WORK_CONSERVATION, (
        f"holistic pool admitted only {ratio:.2f}x of the "
        f"independent-bucket baseline"
    )


def test_shard_kill_budget_inheritance(
    learned_builds, bench_metrics, tmp_path
):
    build = learned_builds["ec2"]
    result = shard_kill_inheritance(
        build, seed=7, data_dir=tmp_path,
        retention_floor=MIN_KILL_RETENTION,
    )
    retention = result["throughput_retention"]
    bench_metrics.gauge("shard_kill_retention", retention)
    bench_metrics.gauge("pre_kill_rps", result["pre_kill_rps"])
    bench_metrics.gauge("post_kill_rps", result["post_kill_rps"])
    print(
        f"\nshard-kill inheritance: {result['pre_kill_rps']} -> "
        f"{result['post_kill_rps']} rps (retention {retention}, "
        f"floor {MIN_KILL_RETENTION})"
    )
    assert result["linearizable"], result["mismatches"]
    assert result["allocation"]["shards_down"] == [0], result["allocation"]
    assert retention >= MIN_KILL_RETENTION, result
    assert result["ok"], result
