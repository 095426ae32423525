"""Serve-thread cost of a shard worker's periodic snapshot
(``BENCH_shard_checkpoint.json``).

A shard worker snapshots a tenant every ``snapshot_interval`` (16)
writes, on the thread that serves its pipes.  This bench builds, inside
a :class:`~repro.serve.shard._ShardWorker`, one tenant the size of the
worker-heavy sharded mix: 200 VPCs, each with four subnets, a security
group and a volume (1,400 instances).  Each round then makes 16 writes
(twelve ``ModifyVpcAttribute`` flips and two subnet create/delete
pairs on random VPCs) and times, in an order that alternates per
round:

- ``full``: the snapshot a worker encoded before the encoding cache,
  ``snapshot()`` of the pinned version and ``json.dumps`` of the
  snapshot file's object;
- ``cached``: the worker's checkpoint encode, a
  :class:`~repro.durability.snapshot.SnapshotEncoder` that re-encodes
  only the instances changed since the last round.

The two texts must be byte-identical.  File writes are left out of
both: the worker's writer thread does them, off the serve thread.  The
gauge is the median over rounds of ``full / cached``, a same-run ratio
that holds across hosts of different speeds.

Gate, asserted here and again by CI on the JSON: the median ratio stays
at least :data:`MIN_RATIO`.
"""

import json
import random
import statistics
import tempfile
import time

from repro.core import build_learned_emulator
from repro.durability.snapshot import SnapshotEncoder
from repro.serve.shard import ShardConfig, _ShardWorker

VPCS = 200
SUBNETS_PER_VPC = 4
SUBNET_SLOTS = 16
ZONE = "us-east-1a"
WRITES_PER_ROUND = 16
WARMUP = 20
ROUNDS = 200
#: 0.85x the median ratio committed in BENCH_shard_checkpoint.json
#: (17.93 on a 2-vCPU x86 host, CPython 3.11).
MIN_RATIO = 15.24

TENANT = "t"


def _vpc_cidr(slot: int) -> str:
    return f"10.{slot // 16}.{(slot % 16) * 16}.0/20"


def _subnet_cidr(slot: int, index: int) -> str:
    return f"10.{slot // 16}.{(slot % 16) * 16 + index}.0/24"


def _ok(response):
    assert response.success, (response.error_code, response.error_message)
    return response.data


def _prefill(worker) -> list[str]:
    def invoke(api, params):
        return _ok(worker.invoke(TENANT, api, params))

    vpcs = []
    for slot in range(VPCS):
        vpc = invoke("CreateVpc", {"CidrBlock": _vpc_cidr(slot)})["id"]
        for index in range(SUBNETS_PER_VPC):
            invoke("CreateSubnet", {
                "VpcId": vpc, "CidrBlock": _subnet_cidr(slot, index),
                "AvailabilityZone": ZONE,
            })
        invoke("CreateSecurityGroup", {
            "GroupName": f"sg-{slot}", "Description": "bench", "VpcId": vpc,
        })
        invoke("CreateVolume", {
            "AvailabilityZone": ZONE, "Name": f"vol-{slot}",
        })
        vpcs.append(vpc)
    return vpcs


def _writes(worker, vpcs: list[str], rng: random.Random,
            hostnames: list[bool], turns: list[int]) -> None:
    """One round's 16 writes."""
    for __ in range(WRITES_PER_ROUND - 4):
        slot = rng.randrange(VPCS)
        hostnames[slot] = not hostnames[slot]
        _ok(worker.invoke(TENANT, "ModifyVpcAttribute", {
            "VpcId": vpcs[slot], "EnableDnsHostnames": hostnames[slot],
        }))
    for __ in range(2):
        slot = rng.randrange(VPCS)
        spare = SUBNETS_PER_VPC + turns[slot] % (
            SUBNET_SLOTS - SUBNETS_PER_VPC
        )
        turns[slot] += 1
        created = _ok(worker.invoke(TENANT, "CreateSubnet", {
            "VpcId": vpcs[slot], "CidrBlock": _subnet_cidr(slot, spare),
            "AvailabilityZone": ZONE,
        }))
        _ok(worker.invoke(TENANT, "DeleteSubnet", {
            "SubnetId": created["id"],
        }))


def _measure(worker, vpcs: list[str], rng: random.Random):
    """(full, cached) serve-thread seconds per checkpoint, per round."""
    concurrent = worker._tenant(TENANT)
    encoder = SnapshotEncoder()
    outer = {"tenant": TENANT, "shard": worker.config.index}
    clock = time.perf_counter

    def full() -> str:
        return json.dumps(
            {**outer, "snapshot": concurrent.snapshot()},
            separators=(",", ":"), sort_keys=True,
        ) + "\n"

    def cached() -> str:
        return concurrent.pinned(lambda version: encoder.text(
            version, **outer
        ))

    cached()  # the first checkpoint encodes every instance
    hostnames = [False] * VPCS
    turns = [0] * VPCS
    full_s, cached_s = [], []
    for step in range(WARMUP + ROUNDS):
        _writes(worker, vpcs, rng, hostnames, turns)
        timed = {}
        for name, encode in (
            (("full", full), ("cached", cached)) if step % 2 else
            (("cached", cached), ("full", full))
        ):
            start = clock()
            text = encode()
            timed[name] = (clock() - start, text)
        assert timed["full"][1] == timed["cached"][1]
        if step >= WARMUP:
            full_s.append(timed["full"][0])
            cached_s.append(timed["cached"][0])
    return full_s, cached_s


def test_checkpoint_encodes_only_changes(bench_metrics):
    build = build_learned_emulator("ec2", seed=7, align=False, chaos="off")
    with tempfile.TemporaryDirectory(prefix="bench-checkpoint-") as data:
        worker = _ShardWorker(ShardConfig(
            index=0, module=build.module,
            notfound_codes=build.make_backend().notfound_codes,
            data_dir=data,
        ))
        try:
            vpcs = _prefill(worker)
            size = len(worker._tenant(TENANT).registry)
            assert size == VPCS * (3 + SUBNETS_PER_VPC), size
            full_s, cached_s = _measure(worker, vpcs, random.Random(43))
        finally:
            worker.log.close()
    for name, values in (("full_checkpoint_s", full_s),
                         ("cached_checkpoint_s", cached_s)):
        histogram = bench_metrics.registry.histogram(name)
        for value in values:
            histogram.observe(value)
    ratio = statistics.median(
        full / cached for full, cached in zip(full_s, cached_s)
    )
    bench_metrics.gauge("full_over_cached", round(ratio, 2))
    print(f"\n{size} instances, {WRITES_PER_ROUND} writes per checkpoint: "
          f"full p50 {statistics.median(full_s) * 1e6:.0f} us, cached p50 "
          f"{statistics.median(cached_s) * 1e6:.0f} us; "
          f"median ratio {ratio:.2f}x")
    assert ratio >= MIN_RATIO, (
        f"the cached checkpoint is only {ratio:.2f}x cheaper than a full one"
    )
