"""Observability-plane overhead on the serving hot path.

The plane's per-request cost is one root span, one windowed-histogram
record and one crc32 sampling draw; hop child spans only materialize
for kept traces.  The acceptance bar is <5% throughput loss on a
serve path with modeled service latency (the same 2ms GIL-releasing
sleep behind the same RW-lock comparator ``bench_serve_concurrency``
uses to stand in for real I/O wait), measured with the full plane
attached: per-tenant SLOs, tail sampling at 5%, and exemplar tracking.

The bench also reports the raw per-request bookkeeping cost in
microseconds (no modeled latency), so regressions in the instrument
itself are visible even when the sleep hides them.
"""

import threading
import time

from repro.obs import default_slos, ObsPlane
from repro.serve import FrontDoor
from repro.telemetry import Telemetry

from rwlock import LockedModeledEmulator

#: Acceptance bar: attached plane may cost at most this throughput
#: fraction on the modeled hot path.
MAX_OVERHEAD = 0.05


def _make_front(build, with_obs: bool, modeled: bool) -> FrontDoor:
    telemetry = Telemetry(service=build.service)
    if with_obs:
        ObsPlane(telemetry, seed=7,
                 slos=default_slos(["bench"], period=60.0),
                 sample_keep=0.05)
    factory = build.make_backend
    if modeled:
        factory = lambda: LockedModeledEmulator(  # noqa: E731
            build.make_backend()
        )
    return FrontDoor(build.module, factory, telemetry=telemetry,
                     rate=1e9, burst=1e9, max_concurrent=64,
                     queue_depth=256)


def _read_throughput(front: FrontDoor, params: dict, workers: int,
                     reads_per_worker: int) -> float:
    start_line = threading.Barrier(workers + 1)
    failures: list[str] = []

    def reader():
        start_line.wait()
        for __ in range(reads_per_worker):
            response = front.invoke("DescribeVpcs", params,
                                    api_key="bench")
            if not response.success:
                failures.append(response.error_code)

    threads = [threading.Thread(target=reader) for __ in range(workers)]
    for thread in threads:
        thread.start()
    start_line.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    assert not failures, failures[:3]
    return (workers * reads_per_worker) / elapsed


def _seed_vpc(front: FrontDoor) -> dict:
    created = front.invoke("CreateVpc", {"CidrBlock": "10.0.0.0/16"},
                           api_key="bench")
    assert created.success
    return {"VpcId": created.data["id"]}


def test_obs_overhead_under_five_percent(learned_builds, bench_metrics):
    """Full plane attached: <5% throughput loss on the modeled path."""
    build = learned_builds["ec2"]
    plain = _make_front(build, with_obs=False, modeled=True)
    instrumented = _make_front(build, with_obs=True, modeled=True)
    plain_params = _seed_vpc(plain)
    obs_params = _seed_vpc(instrumented)

    # Interleave the runs so machine noise hits both sides alike.
    plain_best = obs_best = 0.0
    for __ in range(3):
        plain_best = max(plain_best, _read_throughput(
            plain, plain_params, workers=4, reads_per_worker=80))
        obs_best = max(obs_best, _read_throughput(
            instrumented, obs_params, workers=4, reads_per_worker=80))

    overhead = 1.0 - obs_best / plain_best
    print(f"\nobs overhead (modeled 2ms path): plain {plain_best:,.0f}/s, "
          f"instrumented {obs_best:,.0f}/s ({overhead:+.2%})")
    bench_metrics.gauge("modeled_throughput_plain_per_s",
                        round(plain_best, 1))
    bench_metrics.gauge("modeled_throughput_obs_per_s",
                        round(obs_best, 1))
    bench_metrics.gauge("modeled_overhead_fraction", round(overhead, 4))
    assert overhead < MAX_OVERHEAD, (
        f"observability plane cost {overhead:.2%} on the modeled hot "
        f"path (bar: {MAX_OVERHEAD:.0%})"
    )

    # The sampler must have been exercised, or the bench proves nothing.
    sampler = instrumented.telemetry.obs.sampler
    assert sampler.seen >= 4 * 80
    assert sampler.kept < sampler.seen


def test_obs_bookkeeping_cost_microseconds(learned_builds, bench_metrics):
    """Raw per-request instrument cost, no modeled latency to hide it."""
    build = learned_builds["ec2"]
    plain = _make_front(build, with_obs=False, modeled=False)
    instrumented = _make_front(build, with_obs=True, modeled=False)
    plain_params = _seed_vpc(plain)
    obs_params = _seed_vpc(instrumented)
    calls = 3000

    def best_rate(front, params):
        best = 0.0
        for __ in range(3):
            start = time.perf_counter()
            for __ in range(calls):
                front.invoke("DescribeVpcs", params, api_key="bench")
            best = max(best, calls / (time.perf_counter() - start))
        return best

    plain_rate = best_rate(plain, plain_params)
    obs_rate = best_rate(instrumented, obs_params)
    cost_us = (1.0 / obs_rate - 1.0 / plain_rate) * 1e6
    print(f"\nobs bookkeeping: plain {plain_rate:,.0f}/s, instrumented "
          f"{obs_rate:,.0f}/s (+{cost_us:.1f}us/request)")
    bench_metrics.gauge("bookkeeping_cost_us_per_request",
                        round(cost_us, 2))
    # Informational bound, deliberately loose: the instrument itself
    # must stay cheap in absolute terms even on a pure-CPU path.
    assert cost_us < 500.0
