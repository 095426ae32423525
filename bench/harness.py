"""Set-up, closed-loop phases, correctness gate and metrics of one run.

One run of one workload does ``SETUPS`` rounds, each on a fresh set-up,
and merges their measurements:

1. set up: build the EC2 emulator, construct the front door (spawning
   shard workers when sharded) and prefill it through the wire;
   ``setup_s`` is the median over the rounds;
2. warm up with 10% of the round's share of the request count, on its
   own seed;
3. measure the share: each client sends its part in a closed loop,
   advancing the shared virtual clock 1 ms per request, and every
   response is checked against the client's model.  The requests go in
   blocks of ``rate / 10``; between blocks every client, in turn, times
   a fixed reference task on the CPU it runs on, and the times measured
   in a block are scaled by that host speed (see :data:`REFERENCE_NS`);
4. after the timed phase, check per-tenant resource ids against the
   models and replay the admitted write log serially
   (``verify_linearizable``).

A traced run does one round on a quarter of the count, then a second
quarter under the :class:`~bench.ledger.Ledger`.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import json
import multiprocessing
import multiprocessing.resource_tracker
import os
import random
import resource
import shutil
import statistics
import threading
from array import array
from pathlib import Path
from time import perf_counter, perf_counter_ns

# Imported here, before any set-up is timed: the imports are a one-time
# cost of the process, and every set-up then times the same work.
from repro.core import build_learned_emulator
from repro.obs import ObsPlane, default_slos
from repro.serve import FrontDoor, ShardedFrontDoor, verify_linearizable
from repro.telemetry import Telemetry

from .ledger import CLIENT, LAYERS, Ledger, calibrate
from .workloads import WORKLOADS, Client, Workload, plan_tenants, prefill_ops

#: Scratch space for shard data directories and span dumps.
WORK_DIR = Path(__file__).resolve().parent / ".work"
#: Virtual seconds every request advances the shared clock by.
TICK = 0.001
#: Admission rate and burst: far above any offered load, so nothing sheds.
ADMIT = 1e9
SETUPS = 3
SMOKE_COUNT = 200
#: The build is part of the program, not of the inputs: fixed seed.
BUILD_SEED = 7

END_TO_END = (
    ("throughput_rps", "req/s"),
    ("latency_p50_us", "us"),
    ("latency_p999_us", "us"),
    ("write_latency_p50_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit."""
    names = []
    for layer in LAYERS:
        names += [
            (f"{layer}.calls_per_req", "calls/req"),
            (f"{layer}.self_us_per_req", "us/req"),
            (f"{layer}.share", "ratio"),
        ]
    return names + [
        ("serve.validation.rejects", "count"),
        ("serve.admission.sheds", "count"),
        ("mvcc.publish.new_version_ratio", "ratio"),
        ("serve.concurrency.log.records_end", "count"),
        ("interpreter.emulator.read.errors", "count"),
        ("interpreter.emulator.write.errors", "count"),
        ("serve.shard.rpc.us_p50", "us"),
        ("serve.shard.rpc.us_p999", "us"),
        ("serve.shard.rpc.unavailable", "count"),
        ("obs.sampler.kept_ratio", "ratio"),
        ("trace_overhead_ratio", "ratio"),
    ]


def percentile(ordered, q: float) -> float:
    """Linear interpolation between closest ranks of sorted data."""
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


class Env:
    """One front door, built and prefilled, and how the client calls it."""

    def __init__(self, workload: Workload, seed: int, data_dir: Path):
        self.workload = workload
        build = build_learned_emulator(
            "ec2", seed=BUILD_SEED, align=False, chaos="off"
        )
        telemetry = None
        if workload.observed:
            telemetry = Telemetry(service="ec2")
            ObsPlane(
                telemetry, seed=seed,
                slos=default_slos(list(workload.tenant_names), period=60),
                sample_keep=0.05, drift_rate=0.01,
            )
        if workload.sharded:
            self.front = ShardedFrontDoor(
                build.module, build.make_backend, shards=2,
                data_dir=data_dir, rate=ADMIT, burst=ADMIT,
            )
        else:
            self.front = FrontDoor(
                build.module, build.make_backend, telemetry=telemetry,
                rate=ADMIT, burst=ADMIT,
            )
        self.clock = self.front.clock
        self.models = plan_tenants(workload)
        front = self.front
        if workload.entry == "dispatch":
            def call(payload: bytes, tenant: str) -> str:
                return json.dumps(
                    front.dispatch(json.loads(payload), api_key=tenant)
                )
        else:
            def call(payload: bytes, tenant: str) -> str:
                return front.handle(payload, api_key=tenant)
        self.call = call

    def prefill(self, tally: "Tally") -> None:
        checker = Client(self.workload, 0, self.models)
        for model in self.models:
            for op in prefill_ops(model):
                payload = json.dumps(
                    {"Action": op.action, "Parameters": op.params}
                ).encode()
                self.clock.sleep(TICK)
                try:
                    reply = self.call(payload, op.tenant)
                except Exception as error:
                    reply = error
                tally.record(check(checker, op, reply))

    def close(self) -> None:
        if self.workload.sharded:
            self.front.close()


class Tally:
    """Requests sent and failed, with the first few failures kept."""

    def __init__(self):
        self.sent = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, problem: str | None) -> None:
        self.sent += 1
        if problem is not None:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(problem)

    def add(self, other: "Tally") -> None:
        self.sent += other.sent
        self.failed += other.failed
        self.failures += other.failures[: 5 - len(self.failures)]


def check(client: Client, op, reply) -> str | None:
    """The problem with one reply, or ``None``.  ``reply`` is the JSON
    text the front door returned, or the exception it raised: a raise
    is a failed request, not the end of the run."""
    if isinstance(reply, Exception):
        return f"{op.action}: raised {reply!r}"
    try:
        return client.complete(op, json.loads(reply))
    except Exception as error:
        return f"{op.action}: reply {str(reply)[:80]!r} unreadable ({error!r})"


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------

#: About how long :func:`reference_task` takes on a 2-core x86 VM
#: (Xeon, 2 MiB L2 per core) under CPython 3.11.  The speed of a shared
#: host drifts by up to 2x over tens of seconds; every measured time
#: is multiplied by the host speed probed next to it, so it reads as on
#: that host.
REFERENCE_NS = 2_000_000

#: A table larger than a core's L2 cache, as the serving stack's heap
#: is.  Each turn of :func:`reference_task` walks its own stretch of it,
#: so the walk finds the table in L3 or memory, not in L2.
_TABLE = {f"vpc-{index:08x}": index for index in range(1 << 16)}
_KEYS = tuple(_TABLE)
_WALK = 1000
_STRIDE = 40_503  # odd: the walk visits every slot before repeating


def _fold(text: str, index: int) -> int:
    return (len(text) * 31 + index) % 1_000_003


def reference_task(turn: int = 0) -> int:
    """Fixed interpreter-bound work, in two halves of about equal time:
    string formatting and search, hashing and small calls; then table
    lookups that miss the L2 cache.  A contended host slows the first
    half more than the serving stack and the second less; their sum
    tracks the stack more closely than either.  It allocates no container
    objects, so the garbage collector never runs inside it and its time
    does not depend on the program's heap."""
    total = 0
    for index in range(500):
        text = f'{{"Action": "DescribeVpcs", "VpcId": "vpc-{index:08x}"}}'
        total += len(hashlib.sha256(text.encode()).hexdigest())
        total += text.find("vpc-") + _fold(text, index)
        total += int(text[-11:-3], 16) & 0xFF
    slot = turn * _WALK * _STRIDE
    for __ in range(_WALK):
        slot = (slot + _STRIDE) & 0xFFFF
        total += _TABLE[_KEYS[slot]]
    return total


def host_speed(turn: int = 0) -> float:
    """This host's speed now, relative to the reference host.  Probes
    taken close together should pass different turns."""
    start = perf_counter_ns()
    reference_task(turn)
    return REFERENCE_NS / (perf_counter_ns() - start)


def _steady_speed() -> float:
    """The median of three probes, for intervals timed only once."""
    return statistics.median(host_speed(turn) for turn in range(3))


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------


class _ClientRun:
    """What one client thread measured in one phase; ``ends`` and
    ``write_ends`` mark where each block's samples stop, ``probes``
    holds the host speeds the thread saw before the first block and
    after each block, and ``costs`` the wrapper costs calibrated there
    when the phase is traced."""

    def __init__(self):
        self.tally = Tally()
        self.latencies = array("q")
        self.write_latencies = array("q")
        self.ends: list[int] = []
        self.write_ends: list[int] = []
        self.probes: list[float] = []
        self.costs: list[dict] = []
        self.digest = hashlib.sha256()
        self.error: BaseException | None = None


def _drive(env: Env, client: Client, rng, blocks: list[int],
           out: _ClientRun, ledger: Ledger | None, barrier,
           probe_lock: threading.Lock) -> None:
    call = env.call
    sleep = env.clock.sleep
    encode = json.dumps
    latencies = out.latencies
    write_latencies = out.write_latencies
    digest = out.digest
    tally = out.tally
    clients = env.workload.clients
    traced = ledger is not None and ledger.installed

    def probe() -> None:
        # Each client probes the CPU it runs on, one client at a time,
        # while no request is in flight.  The wrapper cost drifts with
        # the host speed, so a traced phase calibrates it here too.
        with probe_lock:
            out.probes.append(
                host_speed(len(out.probes) * clients + client.index)
            )
            if traced:
                out.costs.append(calibrate())

    try:
        barrier.wait()
        probe()
        for size in blocks:
            barrier.wait()
            for __ in range(size):
                frame = ledger.open_root() if ledger is not None else None
                op = client.next_op(rng)
                payload = encode(
                    {"Action": op.action, "Parameters": op.params}
                ).encode()
                digest.update(op.tenant.encode())
                digest.update(payload)
                sleep(TICK)
                start = perf_counter_ns()
                try:
                    reply = call(payload, op.tenant)
                except Exception as error:
                    reply = error
                elapsed = perf_counter_ns() - start
                tally.record(check(client, op, reply))
                latencies.append(elapsed)
                if op.write:
                    write_latencies.append(elapsed)
                if frame is not None:
                    ledger.close_root(frame)
            out.ends.append(len(latencies))
            out.write_ends.append(len(write_latencies))
            barrier.wait()
            probe()
    except threading.BrokenBarrierError:
        pass  # another client failed; run_phase raises its error
    except BaseException as error:  # the benchmark's own; run_phase re-raises
        out.error = error
        barrier.abort()


def _block_speeds(probes: list[float]) -> list[float]:
    """Each block's host speed: the median of the probes on either side
    of it and their neighbours, so one disturbed probe cannot skew it."""
    return [
        statistics.median(probes[max(0, index - 1): index + 3])
        for index in range(len(probes) - 1)
    ]


def _scaled(samples, ends: list[int], speeds: list[float]) -> list[float]:
    out: list[float] = []
    start = 0
    for end, speed in zip(ends, speeds):
        out.extend(ns * speed for ns in samples[start:end])
        start = end
    return out


def run_phase(env: Env, clients: list[Client], seed: int, label: str,
              count: int, ledger: Ledger | None = None) -> dict:
    """``count`` requests split over the clients, in blocks of a tenth
    of the workload's rate with host-speed probes between blocks.  Returns
    the measurements: the phase's wall time, raw and speed-scaled
    (``scaled_wall``), and the speed-scaled latencies in ns."""
    block = max(len(clients), env.workload.rate // 10)
    sizes = [block] * (count // block) + ([count % block] if count % block
                                          else [])
    shares = [
        [size // len(clients) + (index < size % len(clients))
         for size in sizes]
        for index in range(len(clients))
    ]
    runs = [_ClientRun() for __ in clients]
    barrier = threading.Barrier(len(clients) + 1)
    probe_lock = threading.Lock()
    threads = [
        threading.Thread(
            target=_drive, name=f"bench-client-{client.index}",
            args=(env, client, random.Random(f"{seed}:{label}:{client.index}"),
                  shares[index], runs[index], ledger, barrier, probe_lock),
        )
        for index, client in enumerate(clients)
    ]
    for thread in threads:
        thread.start()
    walls = []
    try:
        barrier.wait()
        for __ in sizes:
            barrier.wait()
            start = perf_counter()
            barrier.wait()
            walls.append(perf_counter() - start)
    except threading.BrokenBarrierError:
        pass
    for thread in threads:
        thread.join()
    tally = Tally()
    for run in runs:
        if run.error is not None:
            raise run.error
        tally.add(run.tally)
    digest = hashlib.sha256()
    for run in runs:
        digest.update(run.digest.digest())
    per_client = [_block_speeds(run.probes) for run in runs]
    speeds = [statistics.fmean(block) for block in zip(*per_client)]
    return {
        "wall": sum(walls),
        "scaled_wall": sum(w * s for w, s in zip(walls, speeds)),
        "costs": [cost for run in runs for cost in run.costs],
        "tally": tally,
        "latencies": [
            ns for run, speeds in zip(runs, per_client)
            for ns in _scaled(run.latencies, run.ends, speeds)
        ],
        "write_latencies": [
            ns for run, speeds in zip(runs, per_client)
            for ns in _scaled(run.write_latencies, run.write_ends, speeds)
        ],
        "digest": digest.hexdigest(),
    }


def _tail(latencies) -> tuple[float, int]:
    """The 99.9th percentile and how many samples lie beyond it."""
    ordered = sorted(latencies)
    p999 = percentile(ordered, 0.999)
    return p999, len(ordered) - bisect.bisect_right(ordered, p999)


def _merge(phases: list[dict]) -> dict:
    """One run's measured phases as one: sorted latencies, the requests
    per speed-scaled second over all of them, the mean host speed, and
    each phase's 99.9th percentile (kept apart, so that a host
    disturbance during one set-up moves only that set-up's)."""
    wall = sum(phase["wall"] for phase in phases)
    scaled_wall = sum(phase["scaled_wall"] for phase in phases)
    digest = hashlib.sha256()
    for phase in phases:
        digest.update(phase["digest"].encode())
    return {
        "wall": wall,
        "host_speed": scaled_wall / wall,
        "rate": sum(len(phase["latencies"]) for phase in phases) / scaled_wall,
        "tails": [_tail(phase["latencies"]) for phase in phases],
        "latencies": sorted(
            ns for phase in phases for ns in phase["latencies"]
        ),
        "write_latencies": sorted(
            ns for phase in phases for ns in phase["write_latencies"]
        ),
        "digest": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# Checks and resource accounting
# ---------------------------------------------------------------------------


def verify(env: Env) -> list[str]:
    """Post-run correctness problems (empty when all checks pass)."""
    front = env.front
    if env.workload.sharded:
        __, problems = front.verify_linearizable()
        if front.supervisor.restarts:
            problems.append(
                f"{front.supervisor.restarts} shard restart(s) during the run"
            )
    else:
        __, problems = verify_linearizable(front)
    for model in env.models:
        snapshot = front.router.get(model.name).emulator.snapshot()
        live: dict[str, set] = {}
        for instance in snapshot["instances"]:
            live.setdefault(instance["sm"], set()).add(instance["id"])
        want = model.ids()
        for sm in sorted(set(live) | set(want)):
            got, expected = live.get(sm, set()), want.get(sm, set())
            if got != expected:
                problems.append(
                    f"tenant {model.name}: {len(got)} live {sm} "
                    f"resource(s), the client model expects {len(expected)}"
                    f" ({len(got ^ expected)} id(s) differ)"
                )
    obs = getattr(front.telemetry, "obs", None)
    if obs is not None and obs.drift is not None and obs.drift.divergences:
        problems.append(
            f"drift monitor saw {obs.drift.divergences} divergence(s)"
        )
    return problems


def _hwm_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def peak_rss_mb(env: Env) -> float:
    """The parent's peak RSS plus every shard worker's."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if env.workload.sharded:
        for stats in env.front.supervisor.shard_stats():
            kb += _hwm_kb(stats["pid"])
    return kb / 1024


def reap_children() -> None:
    """Stop and wait for every process this one started: shard workers a
    failed set-up left behind, then the resource tracker that spawning
    them launched.  Left alone, the tracker outlives this process until
    it notices its pipe closed."""
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5)
        if child.is_alive():
            child.kill()
            child.join()
    multiprocessing.resource_tracker._resource_tracker._stop()


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def run(name: str, seed: int, seconds: float, trace: bool = False,
        smoke: bool = False) -> dict:
    """Run one workload; returns its result record.

    An untraced run sets up ``SETUPS`` times and measures a share of
    the request count on each set-up, so its result spans as many heap
    layouts and shard worker placements.  A traced or smoke run sets up
    once.
    """
    workload = WORKLOADS[name]
    count = SMOKE_COUNT if smoke else workload.count(seconds)
    rounds = 1 if trace or smoke else SETUPS
    if trace:
        count = max(workload.clients, count // 4)
    run_dir = WORK_DIR / f"run-{os.getpid()}"
    tally = Tally()
    setup_times: list[float] = []
    phases: list[dict] = []
    problems: list[str] = []
    rss_mb = 0.0
    try:
        for index in range(rounds):
            share = count // rounds + (index < count % rounds)
            before = _steady_speed()
            start = perf_counter()
            env = Env(workload, seed, run_dir / f"setup-{index}")
            try:
                env.prefill(tally)
                elapsed = perf_counter() - start
                setup_times.append(elapsed * (before + _steady_speed()) / 2)
                clients = [
                    Client(workload, client, env.models)
                    for client in range(workload.clients)
                ]
                warmup = run_phase(env, clients, seed, f"warmup-{index}",
                                   max(workload.clients, share // 10))
                tally.add(warmup["tally"])
                # A traced run times the untraced requests' root spans
                # too, to check the calibrated wrapper cost against.
                roots = Ledger(keep_trees=0) if trace else None
                phase = run_phase(env, clients, seed, f"measure-{index}",
                                  share, roots)
                tally.add(phase["tally"])
                phases.append(phase)
                if trace:
                    metrics, traced, trace_detail = _traced(
                        env, clients, seed, share, phase, roots
                    )
                    tally.add(traced["tally"])
                rss_mb = max(rss_mb, peak_rss_mb(env))
                try:
                    problems += verify(env)
                except Exception as error:
                    problems.append(f"post-run checks raised {error!r}")
            finally:
                env.close()
            del env
            gc.collect()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    measured = _merge(phases)
    latencies = measured["latencies"]
    detail = {
        "clients": workload.clients,
        "measured": count,
        "setups": rounds,
        "inputs_digest": measured["digest"],
        "setup_times_s": setup_times,
        "wall_s": measured["wall"],
        "host_speed": measured["host_speed"],
        "latency_samples": len(latencies),
        "p999_setups_us": [p999 / 1e3 for p999, __ in measured["tails"]],
        "p999_beyond": [beyond for __, beyond in measured["tails"]],
        "write_samples": len(measured["write_latencies"]),
        "requests": {"sent": tally.sent, "failed": tally.failed},
        "failures": tally.failures,
        "problems": problems,
    }
    if trace:
        detail["trace"] = trace_detail
    else:
        metrics = _end_to_end(measured, setup_times, rss_mb)
    return {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": trace, "smoke": smoke,
        "correct": tally.failed == 0 and not problems,
        "attempted": tally.sent,
        "failed": tally.failed,
        "metrics": metrics,
        "detail": detail,
    }


def _end_to_end(measured: dict, setup_times: list[float],
                rss_mb: float) -> dict:
    latencies = measured["latencies"]
    values = {
        "throughput_rps": measured["rate"],
        "latency_p50_us": percentile(latencies, 0.5) / 1e3,
        "latency_p999_us": statistics.median(
            p999 for p999, __ in measured["tails"]
        ) / 1e3,
        "write_latency_p50_us":
            percentile(measured["write_latencies"], 0.5) / 1e3,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss_mb,
    }
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit in END_TO_END
    }


def _traced(env: Env, clients: list[Client], seed: int, count: int,
            untraced: dict, roots: Ledger) -> tuple[dict, dict, dict]:
    """The traced half of a ``--trace`` run: its per-layer metrics, its
    measurements, and how well the wrapper cost was taken out.

    A layer's share is its corrected self time over the traced
    end-to-end time: the request root spans less the wrappers'
    calibrated cost.  The shares sum to 1 when every wrapped call ran
    inside a request.  ``corrected_over_untraced`` compares that
    end-to-end time per request with the root time per request of the
    untraced half (``roots``); it is 1 when the calibration takes out
    exactly what the wrappers added.
    """
    ledger = Ledger()
    ledger.install()
    try:
        traced = run_phase(env, clients, seed, "traced", count, ledger)
    finally:
        ledger.uninstall()
    ledger.charge(traced["costs"])
    totals = ledger.totals()
    requests = totals[CLIENT]["calls"]
    speed = traced["scaled_wall"] / traced["wall"]
    wrapper_ns = sum(
        layer["raw_self_ns"] - layer["self_ns"] for layer in totals.values()
    )
    total_ns = ledger.root_ns() - wrapper_ns
    untraced_speed = untraced["scaled_wall"] / untraced["wall"]
    untraced_per_req = (
        roots.root_ns() * untraced_speed / roots.totals()[CLIENT]["calls"]
    )
    values = {}
    for layer in LAYERS:
        entry = totals[layer]
        values[f"{layer}.calls_per_req"] = entry["calls"] / requests
        values[f"{layer}.self_us_per_req"] = (
            entry["self_ns"] * speed / requests / 1e3
        )
        values[f"{layer}.share"] = entry["self_ns"] / total_ns
    publish = totals["mvcc.publish"]
    rpc = sorted(ns * speed for ns in totals["serve.shard.rpc"]["samples"])
    obs = getattr(env.front.telemetry, "obs", None)
    sampler = obs.sampler if obs is not None else None
    values.update({
        "serve.validation.rejects": totals["serve.validation"]["tally"],
        "serve.admission.sheds": totals["serve.admission"]["tally"],
        "mvcc.publish.new_version_ratio":
            publish["tally"] / publish["calls"] if publish["calls"] else 0.0,
        "serve.concurrency.log.records_end": len(env.front.router.admitted),
        "interpreter.emulator.read.errors":
            totals["interpreter.emulator.read"]["tally"],
        "interpreter.emulator.write.errors":
            totals["interpreter.emulator.write"]["tally"],
        "serve.shard.rpc.us_p50": percentile(rpc, 0.5) / 1e3,
        "serve.shard.rpc.us_p999": percentile(rpc, 0.999) / 1e3,
        "serve.shard.rpc.unavailable": totals["serve.shard.rpc"]["tally"],
        "obs.sampler.kept_ratio":
            sampler.kept / sampler.seen if sampler and sampler.seen else 0.0,
        "trace_overhead_ratio":
            statistics.fmean(traced["latencies"])
            / statistics.fmean(untraced["latencies"]),
    })
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    spans = WORK_DIR / f"spans-{env.workload.name}-{seed}.json"
    spans.write_text(json.dumps({
        "workload": env.workload.name,
        "seed": seed,
        "calibration_ns": {
            "overhead_in": ledger.overhead_in,
            "overhead_in_hooked": ledger.overhead_in_hooked,
            "overhead_out": ledger.overhead_out,
        },
        "layers": {
            layer: {key: value for key, value in entry.items()
                    if key != "samples"}
            for layer, entry in totals.items()
        },
        "trees": ledger.trees(),
    }))
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in per_layer_names()
    }
    trace_detail = {
        "wrapper_share": wrapper_ns / ledger.root_ns(),
        "corrected_over_untraced":
            total_ns * speed / requests / untraced_per_req,
    }
    return metrics, traced, trace_detail
