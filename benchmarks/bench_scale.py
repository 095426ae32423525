"""Scale behaviour of the emulator framework.

A gym for agents (§4.4) and a CI test backend both imply thousands of
live mock resources; the framework must stay fast as the registry
grows.  Measures bulk creation, lookups at depth, the cost of a
dependency check scanning a large child list, and the end-to-end
build-path speedup from wave-parallel extraction + prompt caching.
"""

import statistics
import time

from repro.core import build_learned_emulator
from repro.llm import PromptCache

FLEET = 500


def _populated_backend(build):
    emulator = build.make_backend()
    vpc = emulator.invoke("CreateVpc",
                          {"CidrBlock": "10.0.0.0/16"})
    assert vpc.success, vpc.error_message
    vpc_id = vpc.data["id"]
    subnet_ids = []
    for index in range(FLEET):
        third = index // 4
        offset = (index % 4) * 64
        subnet = emulator.invoke(
            "CreateSubnet",
            {"VpcId": vpc_id,
             "CidrBlock": f"10.0.{third}.{offset}/26"},
        )
        assert subnet.success, subnet.error_message
        subnet_ids.append(subnet.data["id"])
    return emulator, vpc_id, subnet_ids


def test_bulk_creation(benchmark, learned_builds, bench_metrics):
    build = learned_builds["ec2"]

    def create_fleet():
        emulator, __, subnet_ids = _populated_backend(build)
        return len(emulator.registry), subnet_ids

    (count, subnet_ids) = benchmark.pedantic(create_fleet, rounds=1,
                                             iterations=1)
    assert count == FLEET + 1
    assert len(set(subnet_ids)) == FLEET
    bench_metrics.observe("bulk_creation_s", benchmark, fleet=FLEET)


def test_lookup_in_large_registry(benchmark, learned_builds,
                                  bench_metrics):
    build = learned_builds["ec2"]
    emulator, __, subnet_ids = _populated_backend(build)
    target = subnet_ids[FLEET // 2]

    response = benchmark(emulator.invoke, "DescribeSubnets",
                         {"SubnetId": target})
    assert response.success
    bench_metrics.observe("lookup_latency_s", benchmark, fleet=FLEET)


def test_dependency_check_scans_large_list(benchmark, learned_builds,
                                           bench_metrics):
    """DeleteVpc must reject while 500 subnet CIDRs are tracked —
    and answer quickly."""
    build = learned_builds["ec2"]
    emulator, vpc_id, __ = _populated_backend(build)

    response = benchmark(emulator.invoke, "DeleteVpc", {"VpcId": vpc_id})
    assert response.error_code == "DependencyViolation"
    bench_metrics.observe("dependency_check_s", benchmark, fleet=FLEET)


def test_overlap_check_against_many_siblings(benchmark, learned_builds,
                                             bench_metrics):
    """Subnet creation checks its CIDR against every tracked sibling."""
    build = learned_builds["ec2"]
    emulator, vpc_id, __ = _populated_backend(build)

    def conflicting_create():
        return emulator.invoke(
            "CreateSubnet",
            {"VpcId": vpc_id, "CidrBlock": "10.0.0.0/24"},
        )

    response = benchmark(conflicting_create)
    assert response.error_code == "InvalidSubnet.Conflict"
    bench_metrics.observe("overlap_check_s", benchmark, fleet=FLEET)


def _paired_ratios(slow, fast, pairs=3):
    """Time ``slow`` and ``fast`` in alternating pairs; returns the
    ``slow``/``fast`` ratio of each pair with both lists of times.

    Host drift between two separate batches moves a ratio of their
    bests; a pair's two runs sit next to each other, so drift moves
    both alike, and the median pair is robust to one disturbed pair.
    """
    ratios, slow_s, fast_s = [], [], []
    for __ in range(pairs):
        start = time.perf_counter()
        slow()
        middle = time.perf_counter()
        fast()
        end = time.perf_counter()
        slow_s.append(middle - start)
        fast_s.append(end - middle)
        ratios.append(slow_s[-1] / fast_s[-1])
    return ratios, slow_s, fast_s


def test_parallel_warm_build_speedup(bench_metrics):
    """End-to-end build: ``--parallel 8`` + warm prompt cache >= 2x.

    The simulated LLM is instant by default, which hides exactly the
    cost the build path is parallel *for*: real model calls block on
    the network.  This bench switches on the client's latency model
    (a deliberately conservative 10 ms per generation — two orders of
    magnitude under real decoding times) and compares the legacy
    configuration (sequential, cold cache, tree-walking evaluator)
    against the optimised one (wave-parallel extraction, sharded
    alignment, warm content-addressed cache, compiled serve path),
    timed in alternating pairs; the gate is the median pair's ratio.
    """
    latency = 0.01
    cache = PromptCache()
    builds = {}

    def legacy():
        builds["legacy"] = build_learned_emulator(
            "ec2", compile=False, llm_latency=latency)

    def fast():
        builds["fast"] = build_learned_emulator(
            "ec2", parallel=8, llm_cache=cache, llm_latency=latency)

    fast()  # warm the cache
    ratios, legacy_s, fast_s = _paired_ratios(legacy, fast)

    # Same learned artifact either way: the perf path must not change
    # what is built.
    assert builds["fast"].module.machines.keys() == (
        builds["legacy"].module.machines.keys()
    )
    speedup = statistics.median(ratios)
    t_legacy = statistics.median(legacy_s)
    t_fast = statistics.median(fast_s)
    print(f"\nBuild: legacy {t_legacy:.3f}s, parallel+warm {t_fast:.3f}s "
          f"(pair ratios {', '.join(f'{r:.2f}' for r in ratios)}; "
          f"median {speedup:.2f}x)")
    bench_metrics.gauge("build_legacy_s", round(t_legacy, 4))
    bench_metrics.gauge("build_parallel_warm_s", round(t_fast, 4))
    bench_metrics.gauge("build_speedup", round(speedup, 3))
    assert speedup >= 2.0, f"build path only {speedup:.2f}x"


def test_journaled_build_overhead(bench_metrics, tmp_path):
    """Crash-safe journaling must cost <10% over the warm build.

    The journal fsyncs one CRC-framed record per completed resource,
    correction, and alignment round; that durability is only cheap
    enough to leave on by default if the journaled build stays within
    110% of the parallel + warm-cache build it protects.  Both builds
    are timed in alternating pairs in this run, so host speed moves
    both sides alike; the gate is the median pair's ratio.  One build
    swings by up to 20% on a shared 2-vCPU host, so it takes 25 pairs
    for the median to stay within a few percent of the true overhead.
    """
    latency = 0.01
    cache = PromptCache()
    counter = iter(range(100))
    builds = {}

    def plain():
        build_learned_emulator(
            "ec2", parallel=8, llm_cache=cache, llm_latency=latency)

    def journaled():
        builds["journaled"] = build_learned_emulator(
            "ec2", parallel=8, llm_cache=cache, llm_latency=latency,
            journal=tmp_path / f"journal-{next(counter)}",
        )

    plain()  # warm the cache
    ratios, journaled_s, plain_s = _paired_ratios(journaled, plain, pairs=25)
    assert builds["journaled"].durability.journal_appends > 0

    overhead = statistics.median(ratios) - 1.0
    t_plain = statistics.median(plain_s)
    t_journaled = statistics.median(journaled_s)
    print(f"\nBuild: plain {t_plain:.3f}s, journaled {t_journaled:.3f}s "
          f"(pair ratios {', '.join(f'{r:.3f}' for r in ratios)}; "
          f"median {overhead * 100:+.1f}%)")
    bench_metrics.gauge("build_journaled_s", round(t_journaled, 4))
    bench_metrics.gauge("journal_overhead_pct", round(overhead * 100, 2))
    assert overhead < 0.10, (
        f"journaling costs {overhead * 100:.1f}% over the warm build "
        f"(median of pairs, plain {t_plain:.3f}s)"
    )
