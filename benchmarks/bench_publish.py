"""MVCC publish cost against registry size (``BENCH_publish.json``).

Every serve-path write publishes a new immutable registry version.
With the two-level copy-on-write instance map, a publish shares the
map's ``base`` and copies only its small ``delta``, so its cost should
stay nearly flat from 1k to 50k instances instead of growing with the
registry.

Each size gets a prefilled registry and a write loop shaped like the
``churn-large`` wire workload: four writes in five replace one
existing instance's state, and the fifth alternately creates and
deletes a spare instance, so the registry size stays constant.  After
every write the bench times :meth:`Registry.publish`, and, as the
in-file comparator, ``dict.copy()`` of a flat dict holding the same
instances with the same write history (the per-write cost of a flat
copy-on-write registry).

Gates, asserted here and again by CI on the JSON:

- publish p50 at 50k instances is at most 4x publish p50 at 1k;
- at 5.6k instances (``churn-large``'s size) the ``dict.copy()``
  comparator's p50 is at least 10x publish p50.
"""

import random
import time
from types import SimpleNamespace

from repro.interpreter.machine import Registry, Transaction

SIZES = (1_000, 5_600, 20_000, 50_000)
WARMUP_WRITES = 200
WRITES = 2_000
MAX_GROWTH = 4.0
MIN_COPY_RATIO = 10.0

_SPEC = SimpleNamespace(name="subnet")


def _measure(size: int, rng: random.Random):
    """(publish, dict.copy, write + publish) timings in seconds.

    The comparator replays the same writes in a second pass, so
    neither loop runs with the other's working set in the cache."""
    registry = Registry()
    txn = Transaction(registry)
    for __ in range(size):
        txn.create(registry.create(_SPEC, {"tag": ""}))
    txn.commit()
    ids = list(registry.instances)
    flat = dict(registry.instances.items())
    spare = None
    writes = []
    publish_s, write_s = [], []
    for step in range(WARMUP_WRITES + WRITES):
        start = time.perf_counter()
        txn = Transaction(registry)
        if step % 5 != 4:
            changed = rng.choice(ids)
            txn.set_state(changed, "tag", f"v{step}")
        elif spare is None:
            instance = registry.create(_SPEC, {"tag": ""})
            txn.create(instance)
            changed = spare = instance.id
        else:
            txn.mark_deleted(spare)
            changed, spare = spare, None
        txn.commit()
        published = time.perf_counter()
        registry.publish()
        done = time.perf_counter()
        writes.append((changed, registry.get(changed)))
        if step >= WARMUP_WRITES:
            publish_s.append(done - published)
            write_s.append(done - start)
    copy_s = []
    for step, (changed, instance) in enumerate(writes):
        if instance is None:
            del flat[changed]
        else:
            flat[changed] = instance
        start = time.perf_counter()
        flat.copy()
        done = time.perf_counter()
        if step >= WARMUP_WRITES:
            copy_s.append(done - start)
    assert list(flat.items()) == list(registry.instances.items())
    return publish_s, copy_s, write_s


def test_publish_is_flat_in_registry_size(bench_metrics):
    rng = random.Random(31)
    p50 = {}
    for size in SIZES:
        timings = zip(("publish_s", "dict_copy_s", "write_and_publish_s"),
                      _measure(size, rng))
        for name, values in timings:
            histogram = bench_metrics.registry.histogram(name, instances=size)
            for value in values:
                histogram.observe(value)
            p50[name, size] = histogram.percentile(0.5)
        print(f"\n{size:>6} instances: publish p50 "
              f"{p50['publish_s', size] * 1e6:7.2f} us, dict.copy p50 "
              f"{p50['dict_copy_s', size] * 1e6:8.2f} us")
    growth = p50["publish_s", SIZES[-1]] / p50["publish_s", SIZES[0]]
    copy_ratio = p50["dict_copy_s", 5_600] / p50["publish_s", 5_600]
    bench_metrics.gauge("publish_growth_50k_over_1k", round(growth, 3))
    bench_metrics.gauge("dict_copy_over_publish_5600", round(copy_ratio, 2))
    print(f"publish p50 growth 1k -> 50k: {growth:.2f}x; "
          f"dict.copy / publish at 5.6k: {copy_ratio:.1f}x")
    assert growth <= MAX_GROWTH, f"publish grew {growth:.2f}x from 1k to 50k"
    assert copy_ratio >= MIN_COPY_RATIO, (
        f"publish only {copy_ratio:.1f}x faster than dict.copy() at 5.6k"
    )
