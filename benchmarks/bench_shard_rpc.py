"""Sharded serving against in-process serving, same run
(``BENCH_shard_rpc.json``).

Two client threads drive a read-mostly mix (90% describes, 10%
``ModifyVpcAttribute``) through ``FrontDoor.handle`` on an in-process
EC2 front door and through ``handle`` on a 2-shard
``ShardedFrontDoor``, in alternating phases, so both see the same host
speed.  The sharded door places the threads its constructing thread
starts on one CPU; the in-process clients run on every CPU the process
had before, as they would with no sharded door in the process.  Every
reply is checked: each describe and each write must succeed.

The gated number is the ratio of the two sides' rates in their fastest
phase: what one serving process gains or loses by moving the emulator
into two shard workers behind the pipe RPC, on this host's CPUs.  The
fastest phase, because a disturbance only ever slows a phase down, and
the in-process side's phases spread widely: two threads of one process
trade the GIL, and a phase ran up to 2.4x slower than the fastest one
on a 2-vCPU host, while the fastest stayed within 10% from run to run.

Gate, asserted here and again by CI on the JSON: the ratio stays at
least :data:`MIN_RATIO`.
"""

import json
import os
import random
import threading
import time

from repro.core import build_learned_emulator
from repro.serve import FrontDoor, ShardedFrontDoor

#: Tenants alternate shards of a two-shard door (crc32 placement).
TENANTS = ("tenant-0", "tenant-4", "tenant-1", "tenant-5")
VPCS_PER_TENANT = 8
CLIENTS = 2
READ_RATIO = 0.9
ROUNDS = 10
#: Requests per phase, split over the clients.
REQUESTS = 6_000
WARMUP = 2_000
#: 0.85x the ratio measured on a 2-vCPU x86 host under CPython 3.11
#: (0.50; 0.46-0.51 over four runs).  Before the door placed its
#: threads on one CPU and the workers encoded their own replies, the
#: same host measured 0.35-0.38.
MIN_RATIO = 0.42

READS = ("DescribeVpcs", "DescribeVpcAttribute")


def _payload(action: str, params: dict) -> bytes:
    return json.dumps({"Action": action, "Parameters": params}).encode()


def _prefill(front) -> dict:
    """Each tenant's VPC ids, created through the wire."""
    vpcs = {}
    for tenant in TENANTS:
        ids = []
        for slot in range(VPCS_PER_TENANT):
            reply = json.loads(front.handle(_payload(
                "CreateVpc", {"CidrBlock": f"10.{slot}.0.0/16"}
            ), api_key=tenant))
            assert "Error" not in reply, reply
            ids.append(reply["id"])
        vpcs[tenant] = ids
    return vpcs


def _client(front, vpcs: dict, seed: str, count: int, failures: list,
            cpus=None):
    if cpus is not None:
        os.sched_setaffinity(0, cpus)
    rng = random.Random(seed)
    tenants = list(vpcs)
    for turn in range(count):
        tenant = tenants[turn % len(tenants)]
        vpc = rng.choice(vpcs[tenant])
        if rng.random() < READ_RATIO:
            payload = _payload(rng.choice(READS), {"VpcId": vpc})
        else:
            payload = _payload("ModifyVpcAttribute", {
                "VpcId": vpc, "EnableDnsHostnames": rng.random() < 0.5,
            })
        reply = front.handle(payload, api_key=tenant)
        if '"Error"' in reply and len(failures) < 5:
            failures.append(reply[:200])


def _phase(front, vpcs: dict, label: str, count: int, cpus=None) -> float:
    """Seconds for ``count`` requests over the clients (on ``cpus``
    when given)."""
    failures: list = []
    threads = [
        threading.Thread(target=_client, args=(
            front, vpcs, f"{label}:{index}", count // CLIENTS, failures,
            cpus,
        ))
        for index in range(CLIENTS)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    assert not failures, failures
    return elapsed


def test_sharded_over_in_process_throughput(bench_metrics, tmp_path):
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") \
        else None
    build = build_learned_emulator("ec2", seed=7, align=False, chaos="off")
    door = {"rate": 1e9, "burst": 1e9}
    local = FrontDoor(build.module, build.make_backend, **door)
    local_vpcs = _prefill(local)
    _phase(local, local_vpcs, "warmup", WARMUP, cpus)
    local_s, sharded_s = [], []
    with ShardedFrontDoor(
        build.module, build.make_backend, shards=2, data_dir=tmp_path,
        **door,
    ) as sharded:
        vpcs = _prefill(sharded)
        _phase(sharded, vpcs, "warmup", WARMUP)
        for index in range(ROUNDS):
            local_s.append(_phase(local, local_vpcs, f"local-{index}",
                                  REQUESTS, cpus))
            sharded_s.append(_phase(sharded, vpcs, f"sharded-{index}",
                                    REQUESTS))
    local_rps = REQUESTS / min(local_s)
    sharded_rps = REQUESTS / min(sharded_s)
    ratio = sharded_rps / local_rps
    bench_metrics.gauge("in_process_rps", round(local_rps, 1))
    bench_metrics.gauge("sharded_rps", round(sharded_rps, 1))
    bench_metrics.gauge("sharded_over_in_process", round(ratio, 3))
    print(f"\nin-process {local_rps:,.0f} req/s "
          f"(phases {min(local_s) * 1e3:.0f}-{max(local_s) * 1e3:.0f} ms), "
          f"2-shard {sharded_rps:,.0f} req/s "
          f"(phases {min(sharded_s) * 1e3:.0f}-{max(sharded_s) * 1e3:.0f} "
          f"ms); ratio {ratio:.3f}")
    assert ratio >= MIN_RATIO, (
        f"2-shard serving runs at {ratio:.2f}x in-process throughput"
    )
