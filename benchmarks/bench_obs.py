"""The obs plane's per-request cost against kept traces (``BENCH_obs.json``).

Every request through :meth:`ObsPlane.request` opens a root span; the
tail sampler keeps a seeded fraction and the rest are dropped.  A
dropped root is never filed in ``Tracer.roots``, so the drop path
costs the same however many kept traces a run has already filed.
(When dropping meant removing the root from that list, its cost grew
with every trace kept before it.)

Two planes run the same requests at a 5% keep rate: one starts with no
kept traces, the other with 20,000 already filed.  Blocks of requests
alternate between them, so host-speed drift hits both alike, and each
request is timed on its own.  The flatness ratio is the p50 with
20,000 filed over the p50 with none.

Gate, asserted here and again by CI on the JSON: the ratio is at most
1.5.
"""

import time

from repro.obs import ObsPlane
from repro.resilience.policy import VirtualClock
from repro.telemetry import Telemetry

FILED = (0, 20_000)
KEEP = 0.05
WARMUP = 500
BLOCKS = 20
BLOCK = 250
MAX_RATIO = 1.5
TENANTS = ("tenant-0", "tenant-1", "tenant-2", "tenant-3")
APIS = ("DescribeVpcs", "DescribeSubnets", "CreateTags")


class _Case:
    """One plane, with ``filed`` kept traces already in its tracer."""

    def __init__(self, filed: int):
        self.clock = VirtualClock()
        self.telemetry = Telemetry(service="ec2", clock=self.clock)
        self.plane = ObsPlane(self.telemetry, seed=3, sample_keep=1.0)
        self.sent = 0
        self.run(filed)
        assert len(self.telemetry.tracer.roots) == filed
        self.plane.sampler.keep_rate = KEEP
        self.run(WARMUP)

    def run(self, count: int, timings: "list[float] | None" = None):
        plane, clock = self.plane, self.clock
        for __ in range(count):
            sent = self.sent
            self.sent += 1
            tenant = TENANTS[sent % len(TENANTS)]
            api = APIS[sent % len(APIS)]
            start = time.perf_counter()
            with plane.request(tenant, api) as ctx:
                clock.sleep(0.001)
                plane.classify(ctx, "")
            if timings is not None:
                timings.append(time.perf_counter() - start)


def test_plane_cost_is_flat_in_kept_traces(bench_metrics):
    cases = {filed: _Case(filed) for filed in FILED}
    timings = {filed: [] for filed in FILED}
    for __ in range(BLOCKS):
        for filed, case in cases.items():
            case.run(BLOCK, timings[filed])
    p50 = {}
    for filed, case in cases.items():
        assert len(case.telemetry.tracer.roots) == case.plane.sampler.kept
        histogram = bench_metrics.registry.histogram(
            "plane_request_s", kept_traces=filed
        )
        for value in timings[filed]:
            histogram.observe(value)
        p50[filed] = histogram.percentile(0.5)
        print(f"\n{filed:>6} kept traces filed: plane p50 "
              f"{p50[filed] * 1e6:7.2f} us/request")
    ratio = p50[FILED[-1]] / p50[FILED[0]]
    bench_metrics.gauge("plane_cost_20k_kept_over_none", round(ratio, 3))
    print(f"plane p50 with 20k kept traces over none: {ratio:.2f}x")
    assert ratio <= MAX_RATIO, (
        f"plane per-request cost grew {ratio:.2f}x with 20k kept traces"
    )
