"""Interpreter write-path cost on ``churn-large``'s registry
(``BENCH_write.json``).

Builds the EC2 emulator and, in process, the registry shape of the
``churn-large`` wire workload: 800 VPCs (a /20 each), four /24 subnets
per VPC, a security group and a volume per VPC.  Then, in one run and
interleaved so that both see the same heap and host speed, it times:

- a ``CreateSubnet``/``DeleteSubnet`` pair on a random VPC (the create
  takes the VPC's next spare /24 slot, so its CIDR checks run against
  a VPC with four live subnets, as in the wire workload);
- ``ModifyVpcAttribute`` on a random VPC (the cheapest write: two
  ``exists`` checks and one state write).

Every write publishes a version, as the serve path does after each
mutating dispatch.  The gated number is the same-run ratio of the two
p50s: the pair's cost in units of the cheapest write, so it holds
across hosts of different speeds.  CIDR parsing, parameter binding and
cross-SM calls (the subnet create and delete each call the VPC) are
what the pair pays beyond the cheap write.

It also counts the write path's pressure on CPython's cycle
collector: the same writes served through ``FrontDoor.handle`` (JSON
envelope in and out, the attempt log included) on a front door whose
tenant holds that registry, with the collector off, and the net growth
of ``gc.get_count()[0]`` (tracked objects allocated minus those freed)
per write.  Every 700 net allocations run a young-generation
collection, which on ``churn-large`` costs 0.4-0.7 ms and lands on one
request's latency; what a write leaves behind decides how often that
happens.  The window opens and closes right after the tenant's
instance map compacts (:meth:`InstanceMap._put` folds its delta into a
new base every ~2*sqrt(n) writes and frees the replaced instances in
one go), so it holds whole compaction cycles and the count does not
depend on where in a cycle it starts.  A count, so host speed does not
move it.

Gates, asserted here and again by CI on the JSON: the pair/modify p50
ratio stays at most :data:`MAX_RATIO`, and the net tracked allocations
per served write at most :data:`MAX_NET_ALLOCATIONS`.
"""

import gc
import json
import random
import time

from repro.core import build_learned_emulator
from repro.interpreter.builtins import cidr_range
from repro.serve import FrontDoor

VPCS = 800
SUBNETS_PER_VPC = 4
SUBNET_SLOTS = 16
ZONE = "us-east-1a"
WARMUP = 300
ROUNDS = 3_000
#: 1.3x the ratio measured on a 2-vCPU x86 host (5.20, CPython 3.11).
MAX_RATIO = 6.76
#: Served rounds (of three writes) to warm up, and whole instance-map
#: compaction cycles counted after them (about 80 rounds each).
GC_WARMUP_ROUNDS = 1_000
GC_CYCLES = 12
#: The count measured on CPython 3.11 and 3.12, the same on both and
#: under any hash seed; an attempt log keeping a record dict and a
#: params copy per write read 2.000.
NET_MEASURED = 0.0
#: 1.3x NET_MEASURED: an exact count of zero, so any tracked object a
#: served write leaves behind fails.
MAX_NET_ALLOCATIONS = round(1.3 * NET_MEASURED, 3)


def _vpc_cidr(slot: int) -> str:
    return f"10.{slot // 16}.{(slot % 16) * 16}.0/20"


def _subnet_cidr(slot: int, index: int) -> str:
    return f"10.{slot // 16}.{(slot % 16) * 16 + index}.0/24"


def _ok(response):
    assert response.success, (response.error_code, response.error_message)
    return response.data


def _prefill(invoke) -> list[str]:
    """Create the registry through ``invoke(api, params)``; returns
    the VPC ids by slot."""
    vpcs = []
    for slot in range(VPCS):
        vpc = _ok(invoke("CreateVpc", {"CidrBlock": _vpc_cidr(slot)}))["id"]
        for index in range(SUBNETS_PER_VPC):
            _ok(invoke("CreateSubnet", {
                "VpcId": vpc, "CidrBlock": _subnet_cidr(slot, index),
                "AvailabilityZone": ZONE,
            }))
        _ok(invoke("CreateSecurityGroup", {
            "GroupName": f"sg-{slot}", "Description": "bench", "VpcId": vpc,
        }))
        _ok(invoke("CreateVolume", {
            "AvailabilityZone": ZONE, "Name": f"vol-{slot}",
        }))
        vpcs.append(vpc)
    return vpcs


def _measure(emulator, vpcs: list[str], rng: random.Random):
    """(pair, modify) timings in seconds, interleaved per round."""
    turns = [0] * VPCS
    hostnames = [False] * VPCS
    pair_s, modify_s = [], []
    invoke = emulator.invoke
    publish = emulator.publish_version
    clock = time.perf_counter
    for step in range(WARMUP + ROUNDS):
        slot = rng.randrange(VPCS)
        spare = SUBNETS_PER_VPC + turns[slot] % (
            SUBNET_SLOTS - SUBNETS_PER_VPC
        )
        turns[slot] += 1
        start = clock()
        created = invoke("CreateSubnet", {
            "VpcId": vpcs[slot], "CidrBlock": _subnet_cidr(slot, spare),
            "AvailabilityZone": ZONE,
        })
        publish()
        deleted = invoke("DeleteSubnet", {"SubnetId": created.data.get("id")})
        publish()
        paired = clock()
        _ok(created)
        _ok(deleted)

        slot = rng.randrange(VPCS)
        hostnames[slot] = not hostnames[slot]
        begin = clock()
        modified = invoke("ModifyVpcAttribute", {
            "VpcId": vpcs[slot], "EnableDnsHostnames": hostnames[slot],
        })
        publish()
        done = clock()
        _ok(modified)
        if step >= WARMUP:
            pair_s.append(paired - start)
            modify_s.append(done - begin)
    return pair_s, modify_s


def test_subnet_pair_over_cheap_write(bench_metrics):
    build = build_learned_emulator("ec2", seed=7, align=False, chaos="off")
    emulator = build.make_backend()
    vpcs = _prefill(emulator.invoke)
    emulator.publish_version()
    size = len(emulator.registry)
    assert size == VPCS * (3 + SUBNETS_PER_VPC), size
    pair_s, modify_s = _measure(emulator, vpcs, random.Random(41))
    assert len(emulator.registry) == size
    p50 = {}
    for name, values in (("subnet_pair_s", pair_s),
                         ("modify_vpc_attribute_s", modify_s)):
        histogram = bench_metrics.registry.histogram(name)
        for value in values:
            histogram.observe(value)
        p50[name] = histogram.percentile(0.5)
    ratio = p50["subnet_pair_s"] / p50["modify_vpc_attribute_s"]
    bench_metrics.gauge("subnet_pair_over_modify", round(ratio, 3))
    print(f"\nCreateSubnet+DeleteSubnet p50 "
          f"{p50['subnet_pair_s'] * 1e6:.1f} us, ModifyVpcAttribute p50 "
          f"{p50['modify_vpc_attribute_s'] * 1e6:.1f} us; "
          f"ratio {ratio:.2f}x")
    assert ratio <= MAX_RATIO, (
        f"a subnet create/delete pair costs {ratio:.2f}x a cheap write"
    )


def _round_server(front: FrontDoor, vpcs: list[str], rng: random.Random):
    """A function serving one round of ``CreateSubnet``,
    ``DeleteSubnet`` and ``ModifyVpcAttribute`` through ``handle``,
    each one checked.  Each round's create takes a random VPC's next
    spare /24 slot, and its modify flips another's DNS hostnames."""
    turns = [0] * VPCS
    hostnames = [False] * VPCS

    def served(action: str, params: dict) -> dict:
        reply = json.loads(front.handle(json.dumps(
            {"Action": action, "Parameters": params}
        )))
        assert "Error" not in reply, reply
        return reply

    def serve_round() -> None:
        slot = rng.randrange(VPCS)
        spare = SUBNETS_PER_VPC + turns[slot] % (
            SUBNET_SLOTS - SUBNETS_PER_VPC
        )
        turns[slot] += 1
        created = served("CreateSubnet", {
            "VpcId": vpcs[slot], "CidrBlock": _subnet_cidr(slot, spare),
            "AvailabilityZone": ZONE,
        })
        served("DeleteSubnet", {"SubnetId": created["id"]})
        slot = rng.randrange(VPCS)
        hostnames[slot] = not hostnames[slot]
        served("ModifyVpcAttribute", {
            "VpcId": vpcs[slot], "EnableDnsHostnames": hostnames[slot],
        })

    return serve_round


def _compactions(front: FrontDoor, serve_round, cycles: int) -> int:
    """Serve rounds until the tenant's instance map has compacted
    ``cycles`` times; returns the rounds served.  A compaction empties
    the map's delta, so it shows as the delta shrinking by more than
    one round's three writes can."""
    instances = front.router.tenants()[0].emulator.registry.instances
    rounds = 0
    for __ in range(cycles):
        while True:
            before = len(instances.delta)
            serve_round()
            rounds += 1
            if len(instances.delta) < before - 3:
                break
    return rounds


def test_served_write_gc_pressure(bench_metrics):
    build = build_learned_emulator("ec2", seed=7, align=False, chaos="off")
    front = FrontDoor(build.module, build.make_backend,
                      rate=1e9, burst=1e9)
    vpcs = _prefill(front.invoke)
    # Parse every CIDR the writes can name into the process-wide CIDR
    # cache first, so its filling is not counted and the figure does
    # not depend on what this process ran before.
    for slot in range(VPCS):
        for index in range(SUBNET_SLOTS):
            cidr_range(_subnet_cidr(slot, index))
    serve_round = _round_server(front, vpcs, random.Random(43))
    gc.collect()
    gc.disable()
    try:
        for __ in range(GC_WARMUP_ROUNDS):
            serve_round()
        _compactions(front, serve_round, 1)
        before = gc.get_count()[0]
        rounds = _compactions(front, serve_round, GC_CYCLES)
        net = gc.get_count()[0] - before
    finally:
        gc.enable()
    per_write = net / (3 * rounds)
    bench_metrics.gauge("served_write_net_gc_allocations", round(per_write, 3))
    print(f"\nnet GC-tracked allocations per served write: {per_write:.3f} "
          f"({net} over {3 * rounds} writes)")
    assert per_write <= MAX_NET_ALLOCATIONS, (
        f"each served write leaves {per_write:.3f} tracked objects"
    )
