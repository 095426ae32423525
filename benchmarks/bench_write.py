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

Gate, asserted here and again by CI on the JSON: the pair/modify p50
ratio stays at most :data:`MAX_RATIO`.
"""

import random
import time

from repro.core import build_learned_emulator

VPCS = 800
SUBNETS_PER_VPC = 4
SUBNET_SLOTS = 16
ZONE = "us-east-1a"
WARMUP = 300
ROUNDS = 3_000
#: 1.3x the ratio measured on a 2-vCPU x86 host (5.20, CPython 3.11).
MAX_RATIO = 6.76


def _vpc_cidr(slot: int) -> str:
    return f"10.{slot // 16}.{(slot % 16) * 16}.0/20"


def _subnet_cidr(slot: int, index: int) -> str:
    return f"10.{slot // 16}.{(slot % 16) * 16 + index}.0/24"


def _ok(response):
    assert response.success, (response.error_code, response.error_message)
    return response.data


def _prefill(emulator) -> list[str]:
    vpcs = []
    for slot in range(VPCS):
        vpc = _ok(emulator.invoke(
            "CreateVpc", {"CidrBlock": _vpc_cidr(slot)}
        ))["id"]
        for index in range(SUBNETS_PER_VPC):
            _ok(emulator.invoke("CreateSubnet", {
                "VpcId": vpc, "CidrBlock": _subnet_cidr(slot, index),
                "AvailabilityZone": ZONE,
            }))
        _ok(emulator.invoke("CreateSecurityGroup", {
            "GroupName": f"sg-{slot}", "Description": "bench", "VpcId": vpc,
        }))
        _ok(emulator.invoke("CreateVolume", {
            "AvailabilityZone": ZONE, "Name": f"vol-{slot}",
        }))
        vpcs.append(vpc)
    emulator.publish_version()
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
    vpcs = _prefill(emulator)
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
