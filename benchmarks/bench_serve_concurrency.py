"""Concurrent serving throughput under the RW-lock comparator.

The lock-based serving claim is that read-only traffic (bare describes
and compiled pure-route calls) rides a *shared* lock and therefore
overlaps across worker threads, while writes serialize.  On a
single-core runner, pure-Python CPU work cannot overlap, so the bench
models per-request service latency with a real ``time.sleep`` inside
the backend — the sleep releases the GIL, exactly like the I/O wait it
stands in for, and critically it happens *while the read lock is
held*: if reads were serialized by an exclusive lock, adding workers
would buy nothing.

Acceptance: 8-worker read throughput >= 2x the single-worker baseline,
recorded in ``BENCH_serve_concurrency.json``.

The serve layer itself reads lock-free through pinned versions; this
file puts the reader/writer lock of ``rwlock.py`` inside the modeled
backend (:class:`~rwlock.LockedModeledEmulator`) and measures it — the
committed baseline the MVCC bench (``bench_serve_mvcc.py``) must
beat.  The JSON records two scaling columns: ``read_scaling_8v1``
against a single-worker run *under the same lock* (the historical
number) and ``read_scaling_8v1_unlocked`` against an unlocked
single-thread pass over the same registry — the honest denominator,
since the lock also taxes the uncontended case.
"""

import os
import threading
import time

from repro.serve import FrontDoor

from rwlock import LockedModeledEmulator, ModeledEmulator


def _read_throughput(front: FrontDoor, vpc: str, workers: int,
                     reads_per_worker: int) -> float:
    """Wall-clock read throughput at a given worker count."""
    start_line = threading.Barrier(workers + 1)
    failures: list[str] = []

    def reader():
        start_line.wait()
        for __ in range(reads_per_worker):
            response = front.invoke(
                "DescribeVpcs", {"VpcId": vpc}, api_key="bench"
            )
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


def test_read_path_scales_with_workers(learned_builds, bench_metrics):
    """8 concurrent readers must clear >= 2x one reader's throughput."""
    build = learned_builds["ec2"]
    backend = LockedModeledEmulator(build.make_backend())
    front = FrontDoor(
        build.module,
        lambda: backend,
        rate=1e9, burst=1e9, max_concurrent=64, queue_depth=256,
    )
    created = front.invoke(
        "CreateVpc", {"CidrBlock": "10.0.0.0/16"}, api_key="bench"
    )
    assert created.success
    vpc = created.data["id"]

    # Honest denominator: the same modeled registry, one thread, no
    # front door and no lock at all.
    unlocked_backend = ModeledEmulator(backend.inner)
    unlocked_calls = 80
    start = time.perf_counter()
    for __ in range(unlocked_calls):
        response = unlocked_backend.invoke("DescribeVpcs", {"VpcId": vpc})
        assert response.success
    unlocked = unlocked_calls / (time.perf_counter() - start)

    single = _read_throughput(front, vpc, workers=1, reads_per_worker=80)
    eight = _read_throughput(front, vpc, workers=8, reads_per_worker=40)
    speedup = eight / single
    honest = eight / unlocked
    print(f"\nserve read path: unlocked {unlocked:,.0f}/s, "
          f"1 worker {single:,.0f}/s, 8 workers {eight:,.0f}/s "
          f"({speedup:.2f}x locked, {honest:.2f}x vs unlocked)")
    bench_metrics.gauge("read_throughput_unlocked_1_thread_per_s",
                        round(unlocked, 1))
    bench_metrics.gauge("read_throughput_1_worker_per_s", round(single, 1))
    bench_metrics.gauge("read_throughput_8_workers_per_s", round(eight, 1))
    bench_metrics.gauge("read_scaling_8v1", round(speedup, 3))
    bench_metrics.gauge("read_scaling_8v1_unlocked", round(honest, 3))
    bench_metrics.gauge("workers", 8)
    bench_metrics.gauge("cpu_count", os.cpu_count() or 1)
    assert speedup >= 2.0, f"read path scaled only {speedup:.2f}x"


def test_writes_serialize_but_stay_linearizable(learned_builds,
                                                bench_metrics):
    """Mixed 8-worker churn: writes serialize on the writer mutex,
    the admitted log proves nothing tore, and the serving overhead on
    the write path stays bounded."""
    from repro.serve import LoadGenerator

    build = learned_builds["ec2"]
    front = FrontDoor(build.module, build.make_backend,
                      rate=1e9, burst=1e9, max_concurrent=64,
                      queue_depth=256)
    generator = LoadGenerator(
        front, seed=41, workers=8, requests_per_worker=250,
        read_ratio=0.5, tenants=2,
    )
    report = generator.run()
    assert report.linearizable, report.mismatches
    assert report.requests == 2000
    print(f"\nmixed soak: {report.throughput_rps:,.0f} req/s, "
          f"{report.admitted_writes} admitted writes, linearizable")
    bench_metrics.gauge("mixed_soak_req_per_s",
                        round(report.throughput_rps, 1))
    bench_metrics.gauge("mixed_soak_admitted_writes",
                        report.admitted_writes)


def test_frontdoor_overhead_single_thread(learned_builds, bench_metrics):
    """Validation + admission + locking must not dominate a serve call."""
    build = learned_builds["ec2"]
    raw = build.make_backend()
    vpc = raw.invoke("CreateVpc", {"CidrBlock": "10.0.0.0/16"})
    raw_params = {"VpcId": vpc.data["id"]}

    front = FrontDoor(build.module, build.make_backend,
                      rate=1e9, burst=1e9)
    created = front.invoke("CreateVpc", {"CidrBlock": "10.0.0.0/16"})
    front_params = {"VpcId": created.data["id"]}

    calls = 4000

    def rate_of(invoke, params):
        best = 0.0
        for __ in range(3):
            start = time.perf_counter()
            for __ in range(calls):
                invoke("DescribeVpcs", params)
            best = max(best, calls / (time.perf_counter() - start))
        return best

    raw_rate = rate_of(raw.invoke, raw_params)
    front_rate = rate_of(front.invoke, front_params)
    overhead = raw_rate / front_rate
    print(f"\nDescribeVpcs: raw {raw_rate:,.0f}/s, "
          f"served {front_rate:,.0f}/s ({overhead:.2f}x overhead)")
    bench_metrics.gauge("raw_read_calls_per_s", round(raw_rate, 1))
    bench_metrics.gauge("served_read_calls_per_s", round(front_rate, 1))
    bench_metrics.gauge("serve_overhead_factor", round(overhead, 3))
    # Loose ceiling: the guard stack may cost a few x on a
    # microsecond-scale in-memory call, never an order of magnitude.
    assert overhead < 10.0, f"serve overhead {overhead:.2f}x"
