"""Sharded serving under worker death: the failover cost, measured.

Three numbers quantify what the crash-tolerance tentpole actually
buys (``BENCH_shard_failover.json``):

1. **Failover latency** — SIGKILL a shard's worker mid-traffic and
   time the window from the kill to the first successful request
   against the restarted process.  Every response inside the window
   must shed with ``ServiceUnavailable`` + a Retry-After hint (the
   router never hangs a client on a dead pipe), and the window itself
   is bounded: detection + spawn + snapshot restore + attempt-log
   replay, not an operator page.

2. **Recovery time** — the supervisor's own restart accounting
   (``recovery_seconds`` per restart, replayed attempt count), split
   out so regressions in log replay show up independently of
   detection latency.

3. **Surviving-shard throughput dip** — reads against the *other*
   shard, measured concurrently with the kill/recovery cycle, must
   stay within a bounded fraction of the pre-kill baseline.  Failure
   isolation is the point of sharding; a dying neighbor must not
   drag the fleet down.
"""

import threading
import time

from repro.serve import ShardedFrontDoor
from repro.serve.concurrency import canonical_snapshot

#: The surviving shard must keep at least this fraction of its
#: pre-kill read throughput while its neighbor is being repaired.
MIN_SURVIVOR_FRACTION = 0.25

#: Failover must complete (first post-restart success) within this
#: wall-clock bound — generous for CI noise, absurd for production.
MAX_FAILOVER_SECONDS = 30.0


def _make_front(build, tmp_path, shards=2):
    return ShardedFrontDoor(
        build.module, build.make_backend, shards=shards,
        data_dir=tmp_path, snapshot_interval=8,
        rate=1e9, burst=1e9, max_concurrent=64, queue_depth=256,
    )


def _tenants_on_distinct_shards(front, count=2):
    """API keys placed on ``count`` different shards, deterministically."""
    keys, seen = [], set()
    index = 0
    while len(keys) < count:
        key = f"bench-{index}"
        shard = front.supervisor.shard_for(key)
        if shard not in seen:
            seen.add(shard)
            keys.append(key)
        index += 1
    return keys


def _warm(front, key):
    created = front.invoke(
        "CreateVpc", {"CidrBlock": "10.0.0.0/16"}, api_key=key
    )
    assert created.success
    return created.data["id"]


def _read_rate(front, key, vpc, seconds):
    """Wall-clock read throughput against one tenant for ``seconds``."""
    deadline = time.perf_counter() + seconds
    done = 0
    while time.perf_counter() < deadline:
        response = front.invoke(
            "DescribeVpcs", {"VpcId": vpc}, api_key=key
        )
        if response.success:
            done += 1
    return done / seconds


def test_failover_latency_is_bounded(learned_builds, bench_metrics,
                                     tmp_path):
    build = learned_builds["ec2"]
    with _make_front(build, tmp_path) as front:
        victim_key, = _tenants_on_distinct_shards(front, count=1)
        vpc = _warm(front, victim_key)
        shard = front.supervisor.shard_for(victim_key)
        # A little write history so recovery replays a real log tail.
        for __ in range(12):
            created = front.invoke(
                "CreateSubnet",
                {"VpcId": vpc, "CidrBlock": "10.0.1.0/24"},
                api_key=victim_key,
            )
            assert created.success
            front.invoke(
                "DeleteSubnet", {"SubnetId": created.data["id"]},
                api_key=victim_key,
            )
        before = front.supervisor.snapshot(shard, victim_key)

        killed_at = time.perf_counter()
        front.supervisor.kill(shard)
        sheds = 0
        hints = []
        while True:
            response = front.invoke(
                "DescribeVpcs", {"VpcId": vpc}, api_key=victim_key
            )
            if response.success:
                break
            assert response.error_code == "ServiceUnavailable", (
                response.error_code
            )
            sheds += 1
            hints.append(response.data.get("RetryAfterSeconds"))
            assert time.perf_counter() - killed_at < MAX_FAILOVER_SECONDS
            time.sleep(0.02)
        failover = time.perf_counter() - killed_at

        # Recovery restored the exact pre-kill registry (no writes
        # raced the kill, so byte-identity must hold).
        after = front.supervisor.snapshot(shard, victim_key)
        assert canonical_snapshot(after) == canonical_snapshot(before)
        assert all(isinstance(h, float) and h > 0 for h in hints)
        restart = front.supervisor.restart_log[-1]
        ok, mismatches = front.verify_linearizable()
        assert ok, mismatches

        print(f"\nshard failover: {failover * 1000:.0f}ms to first "
              f"post-restart success ({sheds} shed in-window), "
              f"recovery {restart['recovery_seconds'] * 1000:.0f}ms, "
              f"{restart['replayed']} attempts replayed")
        bench_metrics.gauge("failover_wall_seconds", round(failover, 4))
        bench_metrics.gauge("failover_sheds_in_window", sheds)
        bench_metrics.gauge("recovery_seconds",
                            restart["recovery_seconds"])
        bench_metrics.gauge("recovery_replayed_attempts",
                            restart["replayed"])
        assert failover < MAX_FAILOVER_SECONDS


def test_surviving_shard_throughput_dip_is_bounded(learned_builds,
                                                   bench_metrics,
                                                   tmp_path):
    build = learned_builds["ec2"]
    with _make_front(build, tmp_path) as front:
        victim_key, survivor_key = _tenants_on_distinct_shards(front)
        victim_vpc = _warm(front, victim_key)
        survivor_vpc = _warm(front, survivor_key)
        victim_shard = front.supervisor.shard_for(victim_key)

        baseline = _read_rate(front, survivor_key, survivor_vpc,
                              seconds=1.0)

        rates = {}

        def survivor_load():
            rates["during"] = _read_rate(
                front, survivor_key, survivor_vpc, seconds=2.0
            )

        loader = threading.Thread(target=survivor_load)
        loader.start()
        time.sleep(0.2)
        front.supervisor.kill(victim_shard)
        # Drive the failover from a client thread, like a real fleet.
        while True:
            response = front.invoke(
                "DescribeVpcs", {"VpcId": victim_vpc},
                api_key=victim_key,
            )
            if response.success:
                break
            time.sleep(0.02)
        loader.join()

        dip = rates["during"] / baseline if baseline else 0.0
        print(f"\nsurviving shard: {baseline:,.0f}/s before kill, "
              f"{rates['during']:,.0f}/s during failover "
              f"({dip:.2f}x of baseline)")
        bench_metrics.gauge("survivor_read_per_s_baseline",
                            round(baseline, 1))
        bench_metrics.gauge("survivor_read_per_s_during_failover",
                            round(rates["during"], 1))
        bench_metrics.gauge("survivor_throughput_fraction",
                            round(dip, 3))
        bench_metrics.gauge("restarts", front.supervisor.restarts)
        assert front.supervisor.restarts >= 1
        assert dip >= MIN_SURVIVOR_FRACTION, (
            f"surviving shard kept only {dip:.2f}x of its baseline "
            f"throughput during a neighbor's failover"
        )
