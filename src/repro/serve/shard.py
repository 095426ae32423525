"""Crash-tolerant multi-process sharded serving.

One serving process, one GIL, one failure domain — that is where the
serve stack stopped.  This module splits the registry space across N
**worker processes** (one shard per process, placed by a stable
tenant -> shard hash) and puts a supervising parent in front:

- :class:`ShardSupervisor` spawns the workers (``multiprocessing``
  spawn context — restart-safe while request threads are live), speaks
  a correlation-id RPC over a pool of ``PIPES_PER_SHARD`` socket pairs
  per shard (a request checks one pipe out for its round trip; no lock
  is held across it), heartbeats every shard on a
  virtual-clock-compatible loop, and restarts dead workers
  automatically with the next entry of a seeded per-shard kill-schedule
  queue (so injected restart storms converge: the queue drains and the
  shard comes back clean).  Both sides speak one frame codec
  (:class:`_Pipe`): a 4-byte length and a pickle, one ``os.write`` per
  frame, one buffered ``os.read`` per reply.  On a host with two or
  more CPUs it runs the parent's threads on one CPU and the workers on
  the rest while the parent is the busier side (:class:`_Placement`).
- Each :class:`_ShardWorker` owns a private durability directory: the
  serve layer's **write-attempt log**
  (:class:`~repro.serve.concurrency.AdmittedLog`) on disk, shared by
  the worker's tenants (its append is the ``mid-serve-wal-append``
  kill site — a crash there leaves a deliberately torn half-line),
  plus per-tenant snapshot files written atomically every
  ``snapshot_interval`` writes, each encoded *after* the reply of the
  write that made it due (only the instances changed since the last
  one) and written by a writer thread.  Recovery is snapshot restore +
  replay of the log
  past the snapshot's cursor, then a self-check: a full from-scratch
  replay of every tenant's attempts must be **byte-identical** to the
  recovered registry, and any divergence is reported to the
  supervisor and folded into the linearizability verdict.
- :class:`ShardedFrontDoor` keeps the front door's one pipeline
  (auth, envelope, validation, admission) and swaps only each
  tenant's dispatch step: an RPC stub to its owning shard, whose
  worker encodes each reply's envelope, leaving the parent only the
  request id to splice in.
  Requests to a dead shard shed with ``ServiceUnavailable`` + a
  Retry-After hint and a ``ShardUnavailable`` marker (so well-behaved
  clients back off for the failover, not forever), while surviving
  shards keep serving untouched.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import queue
import select
import shutil
import socket
import struct
import tempfile
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

from ..durability.atomic import atomic_write
from ..durability.snapshot import SnapshotEncoder, registry_diff
from ..interpreter.compiler import compile_module
from ..interpreter.emulator import Emulator
from ..interpreter.endpoint import EncodedResponse, build_envelope
from ..interpreter.errors import ApiResponse
from ..resilience.killswitch import (
    KILL_SITES,
    SimulatedCrash,
    install_kill_switch,
)
from ..resilience.policy import VirtualClock
from ..spec import ast
from .concurrency import (
    AdmittedLog,
    canonical_snapshot,
    ConcurrentEmulator,
    dump_jsonl,
    replay,
    replay_divergence,
    sum_version_stats,
)
from .deadline import current_meta, expired_response
from .frontdoor import ConfigError, FrontDoor

SHARD_WAL_NAME = "shard.wal"

#: Worker exit status for an injected :class:`SimulatedCrash` — the
#: process dies with no cleanup, no reply and no flushes, the way
#: ``kill -9`` would.
CRASH_EXIT_CODE = 23

#: Wall seconds the parent waits on one shard RPC reply (and on a
#: worker's shutdown acknowledgement) before giving up on it.  It is
#: the kernel receive timeout (``SO_RCVTIMEO``) of the parent's pipes.
RPC_TIMEOUT = 30.0

#: Duplex pipes per shard.  A request checks one out for its round
#: trip, so this many requests to one shard can be in flight; the
#: worker still runs them one at a time, in arrival order.
PIPES_PER_SHARD = 4

#: Wall seconds a freshly spawned worker has to recover and say hello.
SPAWN_TIMEOUT = 60.0

#: Wall seconds between heartbeat ticks when ``heartbeat=True``.
HEARTBEAT_INTERVAL = 0.2

#: A process with open shard doors checks its CPU placement at most
#: once per ``PLACEMENT_CHECK_SECONDS`` of wall time, looking at the
#: clock every ``PLACEMENT_CHECK_REQUESTS`` requests, and only once
#: its CPUs have done ``PLACEMENT_MIN_CPU`` seconds of work since the
#: last check (worker CPU time is read in clock ticks).
PLACEMENT_CHECK_SECONDS = 0.5
PLACEMENT_CHECK_REQUESTS = 512
PLACEMENT_MIN_CPU = 0.1

#: Once off, placement returns only when the workers' CPUs are busy
#: for less than this share of the door process's CPU time.  Unplaced,
#: the door spends about 1.5x the CPU per request on GIL handoffs
#: between CPUs (76-79 against 50 us on ``sharded``), so returning at
#: parity would undo the decision to leave.
PLACEMENT_RETURN = 0.6

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100

#: The kill sites a worker process can die at (all of them reachable
#: from the serve path; the build-side sites never fire in a worker).
WORKER_KILL_SITES = (
    "mid-transition-commit",   # write committed? no — logged, not applied
    "mid-publish",             # write applied, version not yet published
    "mid-serve-wal-append",    # attempt half-written, never dispatched
)


def shard_for(tenant: str, shards: int) -> int:
    """The stable tenant -> shard placement (crc32 hash, mod N)."""
    return zlib.crc32(tenant.encode("utf-8")) % max(1, shards)


def _safe_name(tenant: str) -> str:
    return "".join(
        ch if ch.isalnum() or ch in "-_" else "_" for ch in tenant
    )


# ---------------------------------------------------------------------------
# The frame codec (both sides of every shard pipe)
# ---------------------------------------------------------------------------

#: A frame's length prefix: the layout ``multiprocessing.Connection``
#: uses for frames under 2 GiB.
_HEADER = struct.Struct("!i")

#: Bytes asked of one ``os.read``: a typical reply arrives whole.
_READ_BYTES = 1 << 16

#: ``SO_RCVTIMEO`` for the parent's ends (a ``struct timeval``).
_RPC_RCVTIMEO = struct.pack(
    "ll", int(RPC_TIMEOUT), int(RPC_TIMEOUT % 1 * 1e6)
)


class _Pipe:
    """One end of a shard socket pair, speaking the frame codec.

    A frame is a 4-byte big-endian length and a pickle, written with
    one ``os.write``.  Reads land in a per-pipe buffer, one ``os.read``
    per reply in the common case.  A dead peer shows up as ``EPIPE`` on
    write or EOF on read; a closed pipe raises ``OSError`` (``EBADF``).
    The parent's ends carry a kernel receive timeout of
    ``RPC_TIMEOUT``, so a blocking read from a wedged worker ends in
    ``BlockingIOError``.
    """

    __slots__ = ("sock", "fd", "buffer", "generation", "last_id")

    def __init__(self, sock: socket.socket, generation: int = 0):
        self.sock = sock
        self.fd = sock.fileno()
        self.buffer = bytearray()
        #: The worker generation this pipe talks to (parent side).
        self.generation = generation
        self.last_id = 0

    def send(self, message: dict) -> None:
        body = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
        frame = _HEADER.pack(len(body)) + body
        written = os.write(self.fd, frame)
        while written < len(frame):  # larger than the socket buffer
            written += os.write(self.fd, frame[written:])

    def pop(self) -> dict | None:
        """The next whole frame in the buffer, decoded, or ``None``."""
        buffer = self.buffer
        if len(buffer) < 4:
            return None
        end = 4 + _HEADER.unpack_from(buffer)[0]
        if len(buffer) < end:
            return None
        body = buffer[4:end]
        del buffer[:end]
        return pickle.loads(body)

    def fill(self) -> None:
        """One read into the buffer; ``EOFError`` when the peer is gone."""
        chunk = os.read(self.fd, _READ_BYTES)
        if not chunk:
            raise EOFError("shard pipe closed by its peer")
        self.buffer += chunk

    def recv(self, deadline: float | None = None) -> dict | None:
        """The next frame.  With ``deadline`` (a ``time.monotonic``
        instant) it polls before each read and returns ``None`` once
        the deadline passes; without, the read blocks."""
        while True:
            message = self.pop()
            if message is not None:
                return message
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
                poller = select.poll()
                poller.register(self.fd, select.POLLIN)
                if not poller.poll(remaining * 1000.0):
                    return None
            self.fill()

    def call(self, payload: dict,
             deadline: float | None = None) -> dict | None:
        """Send one request, stamping ``payload`` with its correlation
        id, and return its reply (``None`` past ``deadline``).  Replies
        to earlier requests that gave up waiting carry older ids and
        are dropped here."""
        self.last_id += 1
        mid = payload["id"] = self.last_id
        self.send(payload)
        while True:
            reply = self.recv(deadline)
            if reply is None or reply.get("id") == mid:
                return reply

    def close(self) -> None:
        if self.fd >= 0:
            self.fd = -1
            self.sock.close()


# ---------------------------------------------------------------------------
# Worker side (runs in the child process)
# ---------------------------------------------------------------------------


@dataclass
class ShardConfig:
    """Everything one worker needs: the first frame on its first pipe.

    The spec travels parsed: unpickling ``module`` in the worker costs
    a tenth of parsing the spec text again.
    """

    index: int
    module: ast.SpecModule
    notfound_codes: dict
    data_dir: str
    seed: int = 1
    snapshot_interval: int = 16
    fsync: bool = False
    #: Armed *after* recovery completes, so injected deaths always
    #: target serving, never the recovery replay itself.
    kill_schedule: dict | None = None


class _SnapshotWriter:
    """A worker's snapshot files, written in order on one thread.

    The serve thread hands each snapshot over as ``(path, text)`` and
    goes back to its pipes; the writer thread, started on the first
    hand-over, does the :func:`~repro.durability.atomic.atomic_write`
    and its fsyncs.  A snapshot queued but not yet written when the
    process dies leaves the older file on disk, and recovery replays
    the attempt log past that file's ``wal_seq``.  A failed write
    likewise leaves the older file.
    """

    def __init__(self, fsync: bool):
        self.fsync = fsync
        #: Snapshots handed over (counted by the serve thread), and
        #: snapshots done and written (counted by the writer thread).
        self.queued = 0
        self.done = 0
        self.written = 0
        self._queue: queue.Queue = queue.Queue()
        self._thread: threading.Thread | None = None

    @property
    def backlog(self) -> int:
        """Snapshots handed over and not yet on disk."""
        return self.queued - self.done

    def put(self, path: Path, text: str) -> None:
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name="repro-shard-snapshots",
                daemon=True,
            )
            self._thread.start()
        self.queued += 1
        self._queue.put((path, text))

    def flush(self) -> None:
        """Wait until every snapshot handed over is done."""
        self._queue.join()

    def close(self) -> None:
        """Write what is queued, then stop the thread."""
        if self._thread is not None:
            self._queue.put(None)
            self._thread.join()
            self._thread = None

    def _run(self) -> None:
        while (item := self._queue.get()) is not None:
            try:
                atomic_write(*item, fsync=self.fsync)
                self.written += 1
            except Exception:
                # Counted in stats(); the older snapshot and the log
                # tail still recover the tenant.
                pass
            finally:
                self.done += 1
                self._queue.task_done()
        self._queue.task_done()


class _ShardWorker:
    """One shard's serving state inside its worker process.

    The serve loop is single-threaded (one ``poll`` loop serves every
    pipe of the shard, one request at a time), so the attempt log's
    order is execution order.  Each tenant is a
    :class:`ConcurrentEmulator` over the worker's one on-disk
    :class:`AdmittedLog`: it logs each write attempt before dispatch
    and stamps each published version with the log cursor it covers,
    and its MVCC surface gives torn-free snapshots, version accounting
    and the ``mid-publish`` kill site.  A periodic snapshot costs the
    serve thread only the encoding of the instances changed since the
    tenant's last one (:class:`SnapshotEncoder`); a
    :class:`_SnapshotWriter` thread writes the file.
    """

    def __init__(self, config: ShardConfig):
        self.config = config
        #: Lowered once; every tenant's emulator and every recovery
        #: self-check control share it (the closures are stateless).
        self.compiled = compile_module(config.module)
        self.data_dir = Path(config.data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.log = AdmittedLog(self.data_dir / SHARD_WAL_NAME,
                               fsync=config.fsync)
        self._emulators: dict[str, ConcurrentEmulator] = {}
        self._writes_since_snapshot: dict[str, int] = {}
        #: Tenants whose periodic snapshot is due at the next
        #: :meth:`checkpoint`.
        self._snapshot_due: set[str] = set()
        self._encoders: dict[str, SnapshotEncoder] = {}
        self._writer = _SnapshotWriter(config.fsync)
        self.requests = 0
        self.writes = 0
        #: Serve-thread seconds spent encoding and queueing snapshots.
        self.checkpoint_seconds = 0.0
        self.recovery = self._recover()

    # -- construction ------------------------------------------------------

    def _fresh(self) -> Emulator:
        return Emulator(
            self.config.module, notfound_codes=self.config.notfound_codes,
            compiled=self.compiled,
        )

    def _tenant(self, name: str) -> ConcurrentEmulator:
        concurrent = self._emulators.get(name)
        if concurrent is None:
            concurrent = ConcurrentEmulator(
                self._fresh(), tenant=name, log=self.log
            )
            self._emulators[name] = concurrent
        return concurrent

    # -- recovery ----------------------------------------------------------

    def _snapshot_path(self, tenant: str) -> Path:
        return self.data_dir / f"tenant-{_safe_name(tenant)}.snapshot.json"

    def _recover(self) -> list[dict]:
        """Snapshot restore + attempt-log tail replay, then prove it.

        For every tenant seen in a snapshot file or the attempt log:
        restore the newest snapshot and replay the tenant's attempts
        past its ``wal_seq`` (failures re-fail identically, burning the
        same IDs), then run the self-check — a full from-scratch replay
        of the tenant's attempts must produce a byte-identical
        registry.  The report rides to the supervisor in the hello
        message; a non-identical recovery is a linearizability failure.
        """
        # A death inside the writer thread's atomic_write leaves the
        # temp file of the snapshot it was replacing.
        for stale in self.data_dir.glob(".tenant-*.snapshot.json.tmp.*"):
            stale.unlink(missing_ok=True)
        by_tenant: dict[str, list[dict]] = {}
        for record in self.log.stream():
            by_tenant.setdefault(record["tenant"], []).append(record)
        snapshots: dict[str, dict] = {}
        for path in sorted(self.data_dir.glob("tenant-*.snapshot.json")):
            try:
                payload = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                continue
            tenant = payload.get("tenant")
            if isinstance(tenant, str):
                snapshots[tenant] = payload["snapshot"]
        reports = []
        for tenant in sorted(set(snapshots) | set(by_tenant)):
            concurrent = self._tenant(tenant)
            mine = by_tenant.get(tenant, [])
            snapshot = snapshots.get(tenant) or concurrent.snapshot()
            replayed = concurrent.recover(snapshot, mine)
            control = self._fresh()
            replay(control, mine)
            want = control.snapshot()
            got = {**concurrent.snapshot(), "wal_seq": 0}
            identical = (
                canonical_snapshot(want) == canonical_snapshot(got)
            )
            reports.append({
                "tenant": tenant,
                "snapshot_seq": snapshot["wal_seq"],
                "replayed": replayed,
                "torn_dropped": self.log.dropped,
                "identical": identical,
                "diff": registry_diff(want, got)[:5],
            })
        return reports

    # -- serving -----------------------------------------------------------

    def invoke(self, tenant: str, api: str, params: dict) -> ApiResponse:
        concurrent = self._tenant(tenant)
        self.requests += 1
        if concurrent.read_only(api):
            return concurrent.read(api, params)
        self.writes += 1
        response = concurrent.write(api, params)
        self._count_write(tenant)
        return response

    def reset(self, tenant: str) -> None:
        self._tenant(tenant).reset()
        self._count_write(tenant)

    def _count_write(self, tenant: str) -> None:
        count = self._writes_since_snapshot.get(tenant, 0) + 1
        if count < self.config.snapshot_interval:
            self._writes_since_snapshot[tenant] = count
            return
        self._writes_since_snapshot[tenant] = 0
        self._snapshot_due.add(tenant)

    def checkpoint(self) -> None:
        """Queue the periodic snapshots that writes made due.

        The serve loop runs this after the write's reply is on the
        pipe, so a snapshot never delays a reply, and the file is
        written by the writer thread.  A crash before the file is
        written loses nothing: the attempt was logged before dispatch,
        so recovery replays it from the older snapshot plus the log
        tail.
        """
        if not self._snapshot_due:
            return
        started = time.perf_counter()
        while self._snapshot_due:
            self._queue_snapshot(self._snapshot_due.pop())
        self.checkpoint_seconds += time.perf_counter() - started

    def _queue_snapshot(self, tenant: str) -> None:
        encoder = self._encoders.get(tenant)
        if encoder is None:
            encoder = self._encoders[tenant] = SnapshotEncoder()
        text = self._emulators[tenant].pinned(
            lambda version: encoder.text(
                version, tenant=tenant, shard=self.config.index
            )
        )
        self._writer.put(self._snapshot_path(tenant), text)

    def flush(self) -> None:
        """Wait until every queued snapshot is on disk."""
        self._writer.flush()

    # -- introspection ops --------------------------------------------------

    def snapshot(self, tenant: str) -> dict:
        return self._tenant(tenant).snapshot()

    def stats(self) -> dict:
        version_stats = [
            emulator.version_stats()
            for emulator in self._emulators.values()
        ]
        return {
            "shard": self.config.index,
            "pid": os.getpid(),
            # The CPUs this worker may run on (see _Placement).
            "cpus": sorted(_affinity(0)),
            "requests": self.requests,
            "writes": self.writes,
            "admitted": len(self.log),
            "tenants": sorted(self._emulators),
            "version_stats": version_stats,
            "snapshots_written": self._writer.written,
            "snapshot_backlog": self._writer.backlog,
            "snapshot_failures": self._writer.done - self._writer.written,
            "checkpoint_us": round(self.checkpoint_seconds * 1e6, 1),
        }

    def shutdown(self) -> None:
        """Final snapshots for every tenant, written before the log
        closes."""
        for tenant in self._emulators:
            self._queue_snapshot(tenant)
        self._writer.close()
        self.log.close()


def _serve(worker: _ShardWorker, message: dict) -> dict:
    """One request frame's reply (the worker's whole op table)."""
    mid = message.get("id")
    op = message.get("op")
    if op == "invoke":
        remaining = message.get("deadline_remaining")
        if remaining is not None and remaining <= 0:
            # The budget died in transit: answer honestly before the
            # log or the emulator spend any work.
            response = expired_response("shard")
        else:
            response = worker.invoke(
                message["tenant"], message["api"],
                message.get("params") or {},
            )
        # The worker encodes the envelope under an empty request id;
        # the parent mints the id and splices it in (EncodedResponse).
        return {
            "id": mid, "ok": True, "success": response.success,
            "error_code": response.error_code,
            "error_message": response.error_message,
            "text": json.dumps(build_envelope(response, "")),
        }
    if op == "ping":
        return {"id": mid, "ok": True, "pid": os.getpid()}
    if op == "snapshot":
        return {
            "id": mid, "ok": True,
            "snapshot": worker.snapshot(message["tenant"]),
        }
    if op == "admitted":
        return {"id": mid, "ok": True, "records": worker.log.records}
    if op == "stats":
        return {"id": mid, "ok": True, **worker.stats()}
    if op == "recovery":
        return {"id": mid, "ok": True, "recovery": worker.recovery}
    if op == "reset":
        worker.reset(message["tenant"])
        return {"id": mid, "ok": True}
    if op == "stall":
        # Test/ops aid: a slow-but-alive worker (heartbeats must not
        # false-positive kill it).
        time.sleep(float(message.get("seconds", 0.0)))
        return {"id": mid, "ok": True}
    if op == "shutdown":
        worker.shutdown()
        return {"id": mid, "ok": True}
    return {"id": mid, "ok": False, "error": f"unknown op {op!r}"}


def _worker_main(socks: list) -> None:
    """Child-process entry: read the config, recover, say hello, serve
    until told not to.

    One ``select.poll`` loop serves every pipe of the shard on this
    one thread, so requests run one at a time in the order their frames
    are read.  A write's due snapshot is queued after its reply is
    written.
    An injected :class:`SimulatedCrash` anywhere in request handling
    exits immediately via ``os._exit`` — no reply, no flush, no
    cleanup — which is exactly the failure the supervisor must detect
    and repair.  EOF on any pipe means the parent retired this worker.
    """
    pipes = [_Pipe(sock) for sock in socks]
    hello_pipe = pipes[0]
    try:
        config = hello_pipe.recv()["config"]
        worker = _ShardWorker(config)
    except EOFError:
        os._exit(1)  # the parent went away before sending the config
    except Exception as error:  # startup is the one place we report
        try:
            hello_pipe.send({
                "type": "hello", "ok": False,
                "error": f"{type(error).__name__}: {error}",
            })
        except OSError:
            pass
        os._exit(1)
    hello_pipe.send({
        "type": "hello", "shard": config.index, "ok": True,
        "pid": os.getpid(), "recovery": worker.recovery,
        "torn_dropped": worker.log.dropped,
    })
    if config.kill_schedule:
        install_kill_switch(dict(config.kill_schedule))
    by_fd = {pipe.fd: pipe for pipe in pipes}
    poller = select.poll()
    for fd in by_fd:
        poller.register(fd, select.POLLIN)
    while True:
        for fd, __ in poller.poll():
            pipe = by_fd[fd]
            try:
                pipe.fill()
            except (EOFError, OSError):
                os._exit(0)  # parent went away; die quietly
            while (message := pipe.pop()) is not None:
                try:
                    reply = _serve(worker, message)
                except SimulatedCrash:
                    os._exit(CRASH_EXIT_CODE)
                except Exception as error:  # app-level: worker survives
                    reply = {
                        "id": message.get("id"), "ok": False,
                        "error": f"{type(error).__name__}: {error}",
                    }
                try:
                    pipe.send(reply)
                except OSError:
                    os._exit(0)
                if message.get("op") == "shutdown":
                    os._exit(0)
                try:
                    worker.checkpoint()
                except SimulatedCrash:
                    os._exit(CRASH_EXIT_CODE)
                except Exception:
                    # A failed snapshot leaves the older one plus the
                    # log tail, which recovery replays exactly.
                    pass


# ---------------------------------------------------------------------------
# CPU placement (parent side)
# ---------------------------------------------------------------------------


def _affinity(pid: int) -> set[int]:
    """The CPUs ``pid`` (0: the calling thread) may run on; empty
    where the platform cannot say."""
    try:
        return os.sched_getaffinity(pid)
    except (AttributeError, OSError):
        return set()


def _current_cpu() -> int | None:
    """The CPU the calling thread last ran on (``processor`` in
    /proc/thread-self/stat); ``None`` where the platform cannot say."""
    try:
        with open("/proc/thread-self/stat", "rb") as stat:
            fields = stat.read().rsplit(b")", 1)[1].split()
        return int(fields[36])
    except (OSError, IndexError, ValueError):
        return None


def _cpu_seconds(pid: int) -> float | None:
    """User plus system CPU seconds of process ``pid`` so far, from
    /proc/<pid>/stat; ``None`` where it cannot be read."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as stat:
            fields = stat.read().rsplit(b")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS
    except (OSError, IndexError, ValueError):
        return None


def _cpu_mask(cpus) -> float | None:
    """A CPU set as one windowed-series value (bit ``c`` for CPU ``c``);
    ``None`` past CPU 52, which a float cannot hold exactly."""
    if not cpus or max(cpus) > 52:
        return None
    return float(sum(1 << cpu for cpu in cpus))


def _threads() -> list[int]:
    """The native ids of this process's live threads, those still
    starting included; Python's own threads where /proc cannot say."""
    try:
        return [int(tid) for tid in os.listdir("/proc/self/task")]
    except (OSError, ValueError):
        return [thread.native_id for thread in threading.enumerate()
                if thread.native_id is not None]


def _process_threads(pid: int) -> list[int]:
    """The native ids of process ``pid``'s threads; just ``pid`` where
    /proc cannot say."""
    try:
        return [int(tid) for tid in os.listdir(f"/proc/{pid}/task")]
    except (OSError, ValueError):
        return [pid]


def _pin(tid: int, cpus) -> None:
    try:
        os.sched_setaffinity(tid, cpus)
    except OSError:
        pass  # exited, or not allowed those CPUs


class _Placement:
    """Where a process with open shard doors runs, chosen from what its
    CPUs are busy with.

    Placed (``active``), every thread of the process runs on one CPU
    (``parent_cpu``) and every worker on the rest (``worker_cpus``).
    The parent's Python is GIL-bound, so its threads gain nothing from
    a second CPU and pay for the GIL handing off between CPUs; the
    workers get CPUs of their own.  That pays only while the door's
    process is the busier side: :meth:`check` measures the process's
    CPU time against its workers' and stops placing (every thread and
    worker back on ``cpus``) once the workers' CPUs are busier than the
    door's, and places again once they are clearly less busy.  One
    placement serves every door open in the process; ``pinned`` maps
    each thread it pinned (by native id) to the affinity it had before.
    """

    __slots__ = ("cpus", "parent_cpu", "worker_cpus", "doors", "pinned",
                 "active", "requests", "due", "marks")

    #: The process's placement while any door holds it.
    current: "_Placement | None" = None
    lock = threading.Lock()

    def __init__(self, cpus: set[int]):
        self.cpus = frozenset(cpus)
        # The CPU the constructing thread runs on already, so the
        # scheduler's balancing spreads the doors of several processes.
        current = _current_cpu()
        self.parent_cpu = current if current in cpus else min(cpus)
        self.worker_cpus = self.cpus - {self.parent_cpu}
        self.doors: list[ShardSupervisor] = []
        self.pinned: dict[int, set[int]] = {}
        self.active = False
        #: Requests since the last look at the clock (see :meth:`tally`).
        self.requests = 0
        self.due = 0.0
        #: The process's and each worker's CPU seconds at the last check.
        self.marks: tuple[float, dict[int, float]] | None = None

    @classmethod
    def join(cls, door: "ShardSupervisor") -> "_Placement | None":
        """Add ``door`` to the process's placement, making it (placed)
        when no door holds one.  ``None`` when the calling thread may
        run on one CPU only or the platform cannot pin threads: then
        nothing is placed."""
        with cls.lock:
            placement = cls.current
            if placement is None:
                cpus = _affinity(0)
                if len(cpus) < 2 or not hasattr(os, "sched_setaffinity"):
                    return None
                placement = cls.current = cls(cpus)
                placement._set(True)
            elif placement.active:
                # Started while placed, or re-pinned since: its own CPUs
                # are not known, so it gets ``cpus`` back.
                _pin(0, {placement.parent_cpu})
            placement.doors.append(door)
        return placement

    @classmethod
    def leave(cls, placement: "_Placement",
              door: "ShardSupervisor") -> None:
        """``door`` closed; the last door to close gives every thread
        its CPUs back."""
        with cls.lock:
            placement.doors.remove(door)
            if not placement.doors:
                placement._set(False)
                if cls.current is placement:
                    cls.current = None

    def _set(self, active: bool) -> None:
        """Place every live thread of the process and every worker, or
        give them their CPUs back; the lock is held.  Only threads
        alive now are touched: an exited thread's native id may be
        another's by now.  Threads started while placed inherit the
        parent CPU and get ``cpus`` back."""
        self.active = active
        done: set[int] = set()
        while True:
            # Again until no thread is new: one started meanwhile by a
            # thread not yet done has its starter's old CPUs.
            tids = [tid for tid in _threads() if tid not in done]
            if not tids:
                break
            for tid in tids:
                if active:
                    if not done:  # later ones may have inherited the pin
                        self.pinned[tid] = _affinity(tid)
                    _pin(tid, {self.parent_cpu})
                else:
                    _pin(tid, self.pinned.get(tid) or self.cpus)
            done.update(tids)
        if not active:
            self.pinned.clear()
        for door in self.doors:
            for process in door._workers.values():
                if process.is_alive():
                    self.place(process)
            door._export_placement()

    def place(self, process) -> None:
        """Give every thread of a worker the CPUs of the current state;
        lock held."""
        cpus = self.worker_cpus if self.active else self.cpus
        for tid in _process_threads(process.pid):
            _pin(tid, cpus)

    def tally(self) -> None:
        """Count one request; every ``PLACEMENT_CHECK_REQUESTS`` the
        placement is checked if ``PLACEMENT_CHECK_SECONDS`` have
        passed.  Lost counts from racing threads only delay a check."""
        self.requests += 1
        if self.requests >= PLACEMENT_CHECK_REQUESTS:
            self.requests = 0
            if time.monotonic() >= self.due:
                self.check()

    def check(self) -> None:
        """Place, or stop placing, from the CPU time spent since the
        last check: placed while the workers' CPU time per worker CPU
        is at most the process's own, and placed again once it is
        below ``PLACEMENT_RETURN`` of the process's."""
        if not self.lock.acquire(blocking=False):
            return  # another thread is checking or a door is changing
        try:
            if not self.doors:
                return  # ended: the last door gave the CPUs back
            self.due = time.monotonic() + PLACEMENT_CHECK_SECONDS
            door_now = time.process_time()
            workers_now = {}
            for door in self.doors:
                for process in door._workers.values():
                    seconds = _cpu_seconds(process.pid)
                    if seconds is not None:
                        workers_now[process.pid] = seconds
            marks = self.marks
            self.marks = (door_now, workers_now)
            if marks is None:
                return
            door_cpu = door_now - marks[0]
            workers_cpu = sum(
                seconds - marks[1].get(pid, seconds)
                for pid, seconds in workers_now.items()
            )
            if door_cpu + workers_cpu < PLACEMENT_MIN_CPU:
                self.marks = marks  # too little work yet to tell
                return
            busy = workers_cpu / len(self.worker_cpus)
            if self.active:
                placed = busy <= door_cpu
            else:
                placed = busy < PLACEMENT_RETURN * door_cpu
            if placed != self.active:
                self._set(placed)
        finally:
            self.lock.release()


# ---------------------------------------------------------------------------
# Supervisor side (runs in the parent process)
# ---------------------------------------------------------------------------


class _ShardHandle:
    """The parent's view of one shard worker."""

    __slots__ = (
        "index", "process", "pool", "swap", "generation", "misses",
        "restarts", "restarting", "recovery", "last_restart_seconds",
    )

    def __init__(self, index: int):
        self.index = index
        self.process = None
        #: The free pipes of the current generation.  A request checks
        #: one out for its round trip, so a pipe missing from the pool
        #: is the liveness signal the heartbeat reads: a request is in
        #: flight, so the worker is busy, not dead.  A restart refills
        #: this same pool with the next generation's pipes.
        self.pool: queue.SimpleQueue = queue.SimpleQueue()
        #: Serializes the operations that take every pipe (restart,
        #: shutdown) so two of them never split the pool between them
        #: and wait on each other.  Requests never take it.
        self.swap = threading.Lock()
        self.generation = 0
        self.misses = 0
        self.restarts = 0
        self.restarting = False
        self.recovery: list[dict] = []
        self.last_restart_seconds = 0.0


class ShardSupervisor:
    """Spawns, heartbeats, restarts and fronts N shard workers.

    The heartbeat loop is virtual-clock compatible: :meth:`tick` is a
    plain method tests drive deterministically (stamping events on the
    shared :class:`VirtualClock`), and ``heartbeat=True`` additionally
    runs it from a small wall-clock thread for live serving.  Each
    shard has a pool of ``PIPES_PER_SHARD`` pipes and a request holds
    one for its round trip, so several requests to one shard are in
    flight at once and none waits on a lock.  A shard with any pipe
    checked out is *alive by definition* (a request is in flight) —
    slow-but-alive workers are never pinged or false-positive killed;
    only a ping timeout with every pipe free counts as a miss, and only
    ``max_misses`` consecutive misses trigger a restart.

    ``kill_schedules`` maps shard index -> an ordered queue of
    kill-switch schedules; each (re)spawn of that shard arms the next
    entry, and an exhausted queue arms nothing — so a restart storm
    (the same shard killed k times in a row) converges to a clean
    worker.

    Where the process may run on two or more CPUs, construction joins
    the process's CPU placement (:class:`_Placement`): while placed,
    every thread of the process runs on one CPU and every worker, on
    each spawn and restart, on the others; the placement is checked
    from CPU time as requests flow and lifted while the workers are the
    busier side.  The last door's :meth:`close` gives every thread its
    CPUs back.  ``parent_cpu`` and ``worker_cpus`` report the current
    state (``None`` and empty while nothing is placed).
    """

    def __init__(
        self,
        module,
        notfound_codes: dict | None = None,
        shards: int = 4,
        data_dir: "str | Path | None" = None,
        clock: VirtualClock | None = None,
        telemetry=None,
        seed: int = 1,
        snapshot_interval: int = 16,
        fsync: bool = False,
        kill_schedules: dict | None = None,
        retry_after: float = 0.25,
        heartbeat: bool = False,
        heartbeat_timeout: float = 1.0,
        max_misses: int = 3,
        auto_restart: bool = True,
    ):
        self.module = module
        self.notfound_codes = dict(notfound_codes or {})
        self.clock = clock if clock is not None else VirtualClock()
        self.telemetry = telemetry
        self.seed = seed
        self.snapshot_interval = snapshot_interval
        self.fsync = fsync
        self.retry_after = retry_after
        self.heartbeat_timeout = heartbeat_timeout
        self.max_misses = max_misses
        self.auto_restart = auto_restart
        self._ctx = multiprocessing.get_context("spawn")
        #: A directory this supervisor made is removed by :meth:`close`;
        #: a caller's ``data_dir`` is kept.
        self._owns_dir = data_dir is None
        if data_dir is None:
            data_dir = tempfile.mkdtemp(prefix="repro-shards-")
        self.data_dir = Path(data_dir)
        self._schedules: dict[int, list[dict]] = {
            int(index): list(queue)
            for index, queue in (kill_schedules or {}).items()
        }
        self._closed = False
        self._restart_threads: list[threading.Thread] = []
        self.restart_log: list[dict] = []
        #: Callables ``(shard_index, alive)`` notified on health flips
        #: — the holistic allocator subscribes here so a dead shard's
        #: budget is redistributed to survivors the moment the parent
        #: detects the death (and restored when the shard returns).
        self.health_listeners: list = []
        #: Recovery self-checks that failed byte-identity, across every
        #: generation of every shard (folded into linearizability).
        self.recovery_failures: list[str] = []
        #: The latest process started for each shard (see _Placement).
        self._workers: dict[int, multiprocessing.Process] = {}
        self._placement = _Placement.join(self)
        self._handles = []
        # Every worker starts before any hello is awaited, so the
        # workers recover side by side.
        started = []
        try:
            for index in range(max(1, shards)):
                handle = _ShardHandle(index)
                handle.process, pipes = self._start(index, generation=0)
                started.append((handle, pipes))
            for handle, pipes in started:
                hello = self._hello(handle.index, 0, handle.process, pipes)
                for pipe in pipes:
                    handle.pool.put(pipe)
                self._adopt_hello(handle, hello)
                self._handles.append(handle)
        except BaseException:
            for handle, pipes in started:
                handle.process.terminate()
                for pipe in pipes:
                    pipe.close()
            self._unplace()
            raise
        self._export_placement()
        self._hb_stop: threading.Event | None = None
        self._hb_thread: threading.Thread | None = None
        if heartbeat:
            self.start_heartbeat()

    # -- spawning ----------------------------------------------------------

    @property
    def parent_cpu(self) -> int | None:
        """The CPU every thread of this process runs on while placed."""
        placement = self._placement
        if placement is None or not placement.active:
            return None
        return placement.parent_cpu

    @property
    def worker_cpus(self) -> frozenset:
        """The CPUs the workers run on while placed."""
        placement = self._placement
        if placement is None or not placement.active:
            return frozenset()
        return placement.worker_cpus

    @property
    def shards(self) -> int:
        return len(self._handles)

    def shard_for(self, tenant: str) -> int:
        return shard_for(tenant, self.shards)

    def _next_schedule(self, index: int) -> dict | None:
        queue = self._schedules.get(index)
        if queue:
            return queue.pop(0)
        return None

    def _launch(self, index: int, generation: int):
        """Start one worker and wait for its hello."""
        process, pipes = self._start(index, generation)
        return process, pipes, self._hello(index, generation, process, pipes)

    def _start(self, index: int, generation: int):
        """Spawn one worker, send its config and place it; its hello is
        still to come.

        The config (about 100 KB with the parsed ec2 spec) goes as the
        first frame on the worker's first pipe, not inside spawn's
        pickled process object: spawn writes that object into a 64 KB
        OS pipe it holds both ends of until the write completes, so a
        worker dying before it read the object blocked
        ``process.start()`` forever.  A socket pair buffers the whole
        frame, so the send does not wait for the worker and workers
        still start side by side; a dead worker fails the send, and
        the hello wait reports it."""
        config = ShardConfig(
            index=index,
            module=self.module,
            notfound_codes=self.notfound_codes,
            data_dir=str(self.data_dir / f"shard-{index}"),
            seed=self.seed + index,
            snapshot_interval=self.snapshot_interval,
            fsync=self.fsync,
            kill_schedule=self._next_schedule(index),
        )
        pairs = [socket.socketpair() for __ in range(PIPES_PER_SHARD)]
        process = self._ctx.Process(
            target=_worker_main,
            args=([child for __, child in pairs],),
            name=f"repro-shard-{index}-g{generation}", daemon=True,
        )
        pipes = []
        for ours, __ in pairs:
            ours.setsockopt(
                socket.SOL_SOCKET, socket.SO_RCVTIMEO, _RPC_RCVTIMEO
            )
            pipes.append(_Pipe(ours, generation))
        try:
            try:
                process.start()
            finally:
                for __, child in pairs:
                    child.close()
            try:
                pipes[0].send({"config": config})
            except OSError:
                pass  # the worker died first; _hello reports it
            placement = self._placement
            if placement is not None:
                with _Placement.lock:
                    self._workers[index] = process
                    placement.place(process)
        except BaseException:
            for pipe in pipes:
                pipe.close()
            raise
        return process, pipes

    def _hello(self, index: int, generation: int, process,
               pipes: list) -> dict:
        """Wait for a started worker's hello (its recovery report);
        the worker's pipes are closed if it never says it."""
        try:
            deadline = time.monotonic() + SPAWN_TIMEOUT
            while True:
                try:
                    hello = pipes[0].recv(time.monotonic() + 0.05)
                except (EOFError, OSError):
                    hello = {"ok": False, "error": "exited before hello"}
                if hello is not None:
                    break
                if time.monotonic() > deadline or not process.is_alive():
                    process.terminate()
                    raise RuntimeError(
                        f"shard {index} failed to start "
                        f"(generation {generation})"
                    )
            if not hello.get("ok", False):
                process.join(timeout=5)
                raise RuntimeError(
                    f"shard {index} failed during recovery: "
                    f"{hello.get('error', 'unknown error')}"
                )
        except BaseException:
            for pipe in pipes:
                pipe.close()
            raise
        return hello

    def _adopt_hello(self, handle: _ShardHandle, hello: dict) -> None:
        handle.recovery = list(hello.get("recovery", []))
        for report in handle.recovery:
            if not report.get("identical", True):
                detail = "; ".join(report.get("diff", [])[:3])
                self.recovery_failures.append(
                    f"shard {handle.index} generation "
                    f"{handle.generation} tenant {report['tenant']}: "
                    f"recovered registry diverges from full replay"
                    + (f" ({detail})" if detail else "")
                )

    # -- RPC ---------------------------------------------------------------

    def request(self, index: int, payload: dict) -> dict | None:
        """One correlation-id RPC to a shard; ``None`` == unavailable.

        Checks one of the shard's pipes out of its pool for the round
        trip; while a restart holds the pool the call waits for the
        new generation's pipes.  A dead worker fails fast (``EPIPE``
        on write or EOF on read) and kicks a restart; a worker silent
        for ``RPC_TIMEOUT`` returns ``None`` and leaves the verdict to
        the heartbeat.
        """
        handle = self._handles[index]
        placement = self._placement
        if placement is not None:
            placement.tally()
        pool = handle.pool
        pipe = pool.get()
        try:
            return pipe.call(payload)
        except BlockingIOError:
            return None  # stuck worker: heartbeats decide
        except (EOFError, OSError):
            self._note_down(handle, pipe.generation)
            return None
        finally:
            pool.put(pipe)

    def in_flight(self, index: int) -> int:
        """Pipes of shard ``index`` checked out right now: requests in
        flight, or all of them while a restart or shutdown holds the
        pool."""
        return PIPES_PER_SHARD - self._handles[index].pool.qsize()

    def _checkout_all(self, handle: _ShardHandle,
                      block: bool = True) -> list | None:
        """Every pipe of ``handle``, once requests in flight return
        theirs; non-blocking, ``None`` unless all are free now."""
        pipes = []
        try:
            while len(pipes) < PIPES_PER_SHARD:
                pipes.append(handle.pool.get(block))
        except queue.Empty:
            for pipe in pipes:
                handle.pool.put(pipe)
            return None
        return pipes

    def _note_down(self, handle: _ShardHandle, generation: int) -> None:
        """Record a dead shard; kick an async restart of ``generation``
        (a no-op if that generation was already replaced)."""
        if self.telemetry is not None:
            self.telemetry.event(
                "shard.down", shard=handle.index,
                generation=generation,
                at=round(self.clock.now(), 9),
            )
        self._notify_health(handle.index, alive=False)
        if self._closed or not self.auto_restart or handle.restarting:
            return
        handle.restarting = True
        thread = threading.Thread(
            target=self._restart, args=(handle, generation),
            name=f"repro-shard-restart-{handle.index}", daemon=True,
        )
        self._restart_threads.append(thread)
        thread.start()

    # -- restart -----------------------------------------------------------

    def _restart(self, handle: _ShardHandle,
                 expected_generation: int) -> bool:
        """Replace a dead (or stuck) worker with a freshly recovered one.

        Takes every pipe first — requests in flight finish, new ones
        wait — and puts the next generation's pipes into the same
        pool.  Generation-checked so racing detectors (request
        threads, the heartbeat loop) restart a shard exactly once.
        """
        try:
            with handle.swap:
                if self._closed:
                    return False
                if handle.generation != expected_generation:
                    return False  # someone else already restarted it
                pipes = self._checkout_all(handle)
                try:
                    started = time.perf_counter()
                    if handle.process.is_alive():
                        handle.process.terminate()
                    handle.process.join(timeout=10)
                    for pipe in pipes:
                        pipe.close()
                    generation = handle.generation + 1
                    handle.process, pipes, hello = self._launch(
                        handle.index, generation
                    )
                    handle.generation = generation
                    handle.misses = 0
                    handle.restarts += 1
                    self._adopt_hello(handle, hello)
                    seconds = time.perf_counter() - started
                    handle.last_restart_seconds = seconds
                    replayed = sum(
                        report.get("replayed", 0)
                        for report in handle.recovery
                    )
                finally:
                    # Settled before the pool reopens, so a request
                    # that finds the new worker dead restarts it.
                    # After a failed launch these are the closed old
                    # pipes: requests fail fast and retry the restart.
                    handle.restarting = False
                    for pipe in pipes:
                        handle.pool.put(pipe)
        finally:
            handle.restarting = False
        self.restart_log.append({
            "shard": handle.index,
            "generation": handle.generation,
            "recovery_seconds": round(seconds, 6),
            "replayed": replayed,
            "at": round(self.clock.now(), 9),
        })
        self._export_restart(handle, seconds, replayed)
        self._export_worker_cpus(handle.index)
        self._notify_health(handle.index, alive=True)
        return True

    def _notify_health(self, index: int, alive: bool) -> None:
        for listener in list(self.health_listeners):
            try:
                listener(index, alive)
            except Exception:
                pass  # a broken listener must never sink the parent

    def _export_placement(self) -> None:
        """Record where the door's threads and every worker run, for
        the ``repro top`` fleet panel, once per placement change."""
        placement = self._placement
        obs = getattr(self.telemetry, "obs", None)
        if obs is None or placement is None:
            return
        cpus = {placement.parent_cpu} if placement.active else placement.cpus
        mask = _cpu_mask(cpus)
        if mask is not None:
            obs.store.histogram("shard.parent_cpus").record(
                self.clock.now(), mask
            )
        for index in self._workers:
            self._export_worker_cpus(index)

    def _export_worker_cpus(self, index: int) -> None:
        """Record the CPUs shard ``index``'s worker runs on, as a mask."""
        placement = self._placement
        obs = getattr(self.telemetry, "obs", None)
        if obs is None or placement is None:
            return
        cpus = placement.worker_cpus if placement.active else placement.cpus
        mask = _cpu_mask(cpus)
        if mask is not None:
            obs.store.histogram("shard.worker_cpus", shard=str(index)).record(
                self.clock.now(), mask
            )

    def _export_restart(self, handle: _ShardHandle, seconds: float,
                        replayed: int) -> None:
        telemetry = self.telemetry
        if telemetry is None:
            return
        now = self.clock.now()
        shard = str(handle.index)
        telemetry.metrics.counter("shard.restarts", shard=shard).inc()
        telemetry.event(
            "shard.restart", shard=handle.index,
            generation=handle.generation,
            recovery_seconds=round(seconds, 6), replayed=replayed,
            at=round(now, 9),
        )
        with telemetry.span(
            "shard.restart", kind="shard", shard=shard
        ) as span:
            span.set("generation", handle.generation)
            span.set("recovery_seconds", round(seconds, 6))
            span.set("replayed", replayed)
        obs = getattr(telemetry, "obs", None)
        if obs is not None:
            obs.store.histogram(
                "shard.restart_seconds", shard=shard
            ).record(now, seconds)

    def kill(self, index: int) -> None:
        """Hard-kill one worker (SIGKILL) — the bench/test fault lever.

        Deliberately does *not* restart: detection and repair are the
        supervisor loop's job, which is what's under test.
        """
        handle = self._handles[index]
        process = handle.process
        if process.is_alive():
            process.kill()
        process.join(timeout=10)

    def restart(self, index: int) -> bool:
        """Explicitly restart one shard (even a healthy one)."""
        handle = self._handles[index]
        return self._restart(handle, handle.generation)

    # -- heartbeat ---------------------------------------------------------

    def tick(self) -> dict:
        """One heartbeat pass over every shard; returns what it saw.

        Deterministically drivable from tests (no background thread
        required); all event timestamps come from the shared clock, so
        virtual-clock runs stay reproducible.
        """
        seen = {"alive": 0, "busy": 0, "missed": 0, "restarted": 0}
        for handle in self._handles:
            if not handle.process.is_alive():
                if self.auto_restart and not handle.restarting:
                    if self._restart(handle, handle.generation):
                        seen["restarted"] += 1
                continue
            pipes = self._checkout_all(handle, block=False)
            if pipes is None:
                # A request is in flight: the worker is busy, therefore
                # alive.  Never ping or count a miss against it.
                handle.misses = 0
                seen["busy"] += 1
                continue
            process, generation = handle.process, handle.generation
            try:
                ok = self._ping(pipes[0])
            finally:
                for pipe in pipes:
                    handle.pool.put(pipe)
            if ok:
                handle.misses = 0
                seen["alive"] += 1
                continue
            handle.misses += 1
            seen["missed"] += 1
            self._export_miss(handle)
            if handle.misses >= self.max_misses:
                # Stuck-but-running worker: treat as dead.
                process.terminate()
                if self.auto_restart:
                    if self._restart(handle, generation):
                        seen["restarted"] += 1
        return seen

    def _ping(self, pipe: _Pipe) -> bool:
        deadline = time.monotonic() + self.heartbeat_timeout
        try:
            return pipe.call({"op": "ping"}, deadline) is not None
        except (EOFError, OSError):
            return False

    def _export_miss(self, handle: _ShardHandle) -> None:
        telemetry = self.telemetry
        if telemetry is None:
            return
        now = self.clock.now()
        shard = str(handle.index)
        telemetry.metrics.counter(
            "shard.heartbeat_misses", shard=shard
        ).inc()
        telemetry.event(
            "shard.heartbeat_miss", shard=handle.index,
            misses=handle.misses, at=round(now, 9),
        )
        obs = getattr(telemetry, "obs", None)
        if obs is not None:
            obs.store.histogram(
                "shard.heartbeat_miss", shard=shard
            ).record(now, float(handle.misses))

    def start_heartbeat(self) -> None:
        """Run :meth:`tick` from a small wall-clock thread."""
        if self._hb_thread is not None:
            return
        self._hb_stop = threading.Event()

        def _loop():
            while not self._hb_stop.wait(HEARTBEAT_INTERVAL):
                try:
                    self.tick()
                except Exception:
                    if self._closed:
                        return

        self._hb_thread = threading.Thread(
            target=_loop, name="repro-shard-heartbeat", daemon=True
        )
        self._hb_thread.start()

    # -- merged views ------------------------------------------------------

    def admitted_records(self) -> list[dict]:
        """Every shard's attempt log, merged (ordered by shard, seq).

        Per-tenant order is total — a tenant lives on exactly one
        shard — which is what the linearizability replay needs.
        Unreachable shards contribute nothing (their verifier check
        fails separately on the snapshot fetch).
        """
        merged: list[dict] = []
        for handle in self._handles:
            reply = self.request(handle.index, {"op": "admitted"})
            if reply is not None and reply.get("ok"):
                merged.extend(reply["records"])
        return merged

    def shard_stats(self) -> list[dict]:
        stats = []
        for handle in self._handles:
            reply = self.request(handle.index, {"op": "stats"})
            if reply is not None and reply.get("ok"):
                stats.append(reply)
        return stats

    def snapshot(self, index: int, tenant: str) -> dict | None:
        reply = self.request(
            index, {"op": "snapshot", "tenant": tenant}
        )
        if reply is None or not reply.get("ok"):
            return None
        return reply["snapshot"]

    def recovery_reports(self) -> dict[int, list[dict]]:
        """Current-generation recovery self-checks, per shard."""
        return {
            handle.index: list(handle.recovery)
            for handle in self._handles
        }

    @property
    def restarts(self) -> int:
        return sum(handle.restarts for handle in self._handles)

    def generation(self, index: int) -> int:
        return self._handles[index].generation

    def alive(self, index: int) -> bool:
        return self._handles[index].process.is_alive()

    def merge_metrics(self) -> None:
        """Fold worker-side counters into the parent's metric registry
        as shard-labelled series (``repro report`` / ``repro top``)."""
        telemetry = self.telemetry
        if telemetry is None:
            return
        for stats in self.shard_stats():
            shard = str(stats["shard"])
            telemetry.metrics.gauge(
                "shard.requests", shard=shard
            ).set(stats["requests"])
            telemetry.metrics.gauge(
                "shard.admitted", shard=shard
            ).set(stats["admitted"])
            publishes = sum(
                vs.get("publishes", 0)
                for vs in stats["version_stats"]
            )
            telemetry.metrics.gauge(
                "serve.version_publishes", shard=shard
            ).set(publishes)
            for name, key in (
                ("shard.snapshots", "snapshots_written"),
                ("shard.snapshot_backlog", "snapshot_backlog"),
                ("shard.checkpoint_us", "checkpoint_us"),
            ):
                telemetry.metrics.gauge(name, shard=shard).set(stats[key])

    # -- shutdown ----------------------------------------------------------

    def close(self) -> None:
        """Graceful shutdown: stop restarts, drain in-flight requests
        (taking every pipe of a shard waits for the requests holding
        them), flush final snapshots, and reap every worker.  The
        closed pipes go back into the pools, so later requests return
        ``None`` at once.  The data directory goes too when the
        supervisor made it (no ``data_dir`` was passed)."""
        self._closed = True
        self._unplace()
        if self._hb_stop is not None:
            self._hb_stop.set()
        if self._hb_thread is not None:
            self._hb_thread.join(timeout=5)
            self._hb_thread = None
        for thread in self._restart_threads:
            thread.join(timeout=10)
        for handle in self._handles:
            with handle.swap:
                pipes = self._checkout_all(handle)  # drains in-flight
                try:
                    if handle.process.is_alive():
                        pipes[0].call({"op": "shutdown"})
                except (EOFError, OSError):
                    pass  # died or timed out: reaped below
                finally:
                    for pipe in pipes:
                        pipe.close()
                        handle.pool.put(pipe)
            handle.process.join(timeout=10)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=5)
        if self._owns_dir:
            shutil.rmtree(self.data_dir, ignore_errors=True)

    def _unplace(self) -> None:
        """Leave the process's placement (once)."""
        placement, self._placement = self._placement, None
        if placement is not None:
            _Placement.leave(placement, self)

    def __enter__(self) -> "ShardSupervisor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Front-door integration
# ---------------------------------------------------------------------------


class _ShardBackend:
    """One tenant's RPC stub to its owning shard worker.

    The sharded door's dispatch step: it classifies requests locally,
    with a probe emulator over the same module, and otherwise
    dispatches over the supervisor's pipe RPC; a reply arrives as the
    envelope text the worker encoded (an :class:`EncodedResponse`),
    which the door returns with the request id spliced in.  When the
    shard is down, every call sheds
    with ``ServiceUnavailable`` + a Retry-After hint and a
    ``ShardUnavailable`` marker, which rides inside the error envelope
    the way admission throttle metadata does — clients back off for
    the failover window, then succeed against the restarted worker.
    """

    def __init__(self, supervisor: ShardSupervisor, tenant: str, probe):
        self.supervisor = supervisor
        self.tenant = tenant
        self.shard = supervisor.shard_for(tenant)
        self._probe = probe  # local emulator, classification only

    def read_only(self, api: str) -> bool:
        return self._probe.read_only(api)

    # -- remote dispatch ----------------------------------------------------

    def invoke(self, api: str, params: dict | None = None) -> ApiResponse:
        payload = {
            "op": "invoke", "tenant": self.tenant, "api": api,
            "params": params,
        }
        meta = current_meta()
        if meta is not None and meta.deadline is not None:
            # The deadline crosses the RPC hop as *remaining budget* —
            # the worker has no shared clock, only what the parent
            # measures at send time.
            remaining = meta.remaining(self.supervisor.clock.now())
            if remaining is not None and remaining <= 0:
                telemetry = self.supervisor.telemetry
                if telemetry is not None:
                    telemetry.metrics.counter(
                        "allocation.deadline_expired",
                        tenant=self.tenant, stage="shard",
                    ).inc()
                return expired_response("shard")
            payload["deadline_remaining"] = remaining
        reply = self.supervisor.request(self.shard, payload)
        if reply is None:
            return self._unavailable()
        if not reply.get("ok"):
            return ApiResponse.fail(
                "InternalError", reply.get("error", "shard worker error")
            )
        return EncodedResponse(
            reply["text"], reply["success"], reply["error_code"],
            reply["error_message"],
        )

    def _unavailable(self) -> ApiResponse:
        retry_after = self.supervisor.retry_after
        return ApiResponse(
            success=False,
            data={
                "RetryAfterSeconds": retry_after,
                "ShardUnavailable": True,
                "Shard": self.shard,
            },
            error_code="ServiceUnavailable",
            error_message=(
                f"shard {self.shard} is restarting; "
                f"retry in {retry_after}s"
            ),
        )

    def reset(self) -> None:
        self.supervisor.request(
            self.shard, {"op": "reset", "tenant": self.tenant}
        )

    def snapshot(self) -> dict:
        snapshot = self.supervisor.snapshot(self.shard, self.tenant)
        if snapshot is None:
            raise RuntimeError(
                f"shard {self.shard} unavailable for snapshot of "
                f"tenant {self.tenant!r}"
            )
        return snapshot


class ShardedFrontDoor(FrontDoor):
    """The front door, fanned out over shard worker processes.

    The door's pipeline is unchanged; only each tenant's dispatch step
    differs (:meth:`_backend`): it routes to the owning shard over
    RPC.  Supplies its own :meth:`verify_linearizable` (merged
    per-shard attempt logs, replayed serially, compared byte-for-byte
    against RPC-fetched shard snapshots — with recovery self-check
    failures folded in) and :meth:`mvcc_stats` (worker version
    accounting, merged), overriding the in-process ones every load
    driver calls.  The supervisor runs with its default heartbeat miss
    policy and the module's ``RPC_TIMEOUT`` / ``HEARTBEAT_INTERVAL``;
    not-found codes come from the probe emulator.
    """

    def __init__(
        self,
        module,
        emulator_factory,
        shards: int = 4,
        data_dir: "str | Path | None" = None,
        kill_schedules: dict | None = None,
        snapshot_interval: int = 16,
        fsync: bool = False,
        retry_after: float = 0.25,
        heartbeat: bool = False,
        auto_restart: bool = True,
        **kwargs,
    ):
        if kwargs.get("network") is not None:
            raise ConfigError(
                "ShardedFrontDoor does not compose with netem region "
                "routing (network=) yet: shard placement (tenant -> "
                "worker process) and region placement (resource -> "
                "region replica) are separate maps with no "
                "cross-product routing — a request would need a "
                "(shard, region) pair the RPC layer cannot address.  "
                "Combining them (shard x region placement) is the "
                "ROADMAP \"Deferred\" entry \"Shard × region "
                "composition\"; until then run the network on a "
                "single-process FrontDoor."
            )
        super().__init__(module, emulator_factory, **kwargs)
        #: A local emulator over the module: it classifies requests
        #: and names the not-found codes; it serves nothing.
        self._probe = probe = emulator_factory()
        self.supervisor = ShardSupervisor(
            module,
            notfound_codes=dict(getattr(probe, "notfound_codes", {})),
            shards=shards,
            data_dir=data_dir,
            clock=self.clock,
            telemetry=self.telemetry,
            seed=self.seed,
            snapshot_interval=snapshot_interval,
            fsync=fsync,
            kill_schedules=kill_schedules,
            retry_after=retry_after,
            heartbeat=heartbeat,
            auto_restart=auto_restart,
        )
        if self.allocator is not None:
            # Shard-health-aware fairness: the allocator learns the
            # placement map and follows every health flip, so a dead
            # shard's budget flows to tenants on surviving shards.
            self.allocator.bind_shards(
                self.supervisor.shard_for, self.supervisor.shards
            )
            self.supervisor.health_listeners.append(
                self.allocator.set_shard_health
            )

    def _backend(self, name: str) -> tuple:
        """A new tenant's ``(emulator, read, write)``: an RPC stub to
        the shard the stable tenant -> shard hash places it on."""
        stub = _ShardBackend(self.supervisor, name, self._probe)
        return stub, stub.invoke, stub.invoke

    # -- merged wire surface -----------------------------------------------

    @property
    def admitted(self) -> "_MergedAdmitted":
        return _MergedAdmitted(self.supervisor)

    def verify_linearizable(self) -> tuple[bool, list[str]]:
        """The extended check: merged per-shard attempt logs, replayed
        serially per tenant, must reproduce each shard's live registry
        byte-for-byte — and every worker recovery (every generation)
        must have passed its byte-identity self-check."""
        mismatches = list(self.supervisor.recovery_failures)
        by_tenant: dict[str, list[dict]] = {}
        for record in self.supervisor.admitted_records():
            by_tenant.setdefault(record["tenant"], []).append(record)
        for tenant in sorted(by_tenant):
            shard = self.supervisor.shard_for(tenant)
            diverged = replay_divergence(
                self.emulator_factory, by_tenant[tenant],
                lambda: self.supervisor.snapshot(shard, tenant),
            )
            if diverged is None:
                mismatches.append(
                    f"tenant {tenant}: shard {shard} unavailable for "
                    "the linearizability snapshot"
                )
            elif diverged:
                mismatches.append(
                    f"tenant {tenant}: serial replay of the merged "
                    f"shard-{shard} attempt log diverges from the "
                    "worker's live registry"
                )
        self.supervisor.merge_metrics()
        return (not mismatches), mismatches

    def mvcc_stats(self) -> dict:
        """Worker-side version accounting, merged across shards.

        Counts cover the *current* generation of each worker (a
        restarted shard's chain starts fresh — its durable state is
        what recovery proves, not its version counters).
        """
        merged = sum_version_stats(
            per_tenant
            for stats in self.supervisor.shard_stats()
            for per_tenant in stats["version_stats"]
        )
        merged["shards"] = self.supervisor.shards
        merged["restarts"] = self.supervisor.restarts
        return merged

    def close(self) -> None:
        self.supervisor.close()

    def __enter__(self) -> "ShardedFrontDoor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _MergedAdmitted:
    """A read-only merged view over every shard's attempt log, shaped
    like :class:`~repro.serve.concurrency.AdmittedLog` where the CLI
    and load generator need it (length, records, JSONL dump)."""

    def __init__(self, supervisor: ShardSupervisor):
        self.supervisor = supervisor

    @property
    def records(self) -> list[dict]:
        return self.supervisor.admitted_records()

    def per_tenant(self, tenant: str) -> list[dict]:
        return [r for r in self.records if r["tenant"] == tenant]

    def __len__(self) -> int:
        # Each log's seqs run 1..admitted with no gaps, so the counts
        # in the stats equal the record count without shipping records.
        return sum(
            stats["admitted"] for stats in self.supervisor.shard_stats()
        )

    def dump_jsonl(self, path: "str | Path") -> Path:
        return dump_jsonl(self.records, path)


# ---------------------------------------------------------------------------
# Kill-schedule parsing (CLI / CI)
# ---------------------------------------------------------------------------


def parse_kill_schedule(text: str) -> dict[int, list[dict]]:
    """Parse ``shard:site:hit[,shard:site:hit...]`` into per-shard
    schedule queues.

    Repeated entries for the same shard queue up in order: each
    (re)spawn of that shard arms the next one, so
    ``"0:mid-publish:3,0:mid-serve-wal-append:2"`` kills shard 0's
    first generation at its 3rd publish and its second generation at
    its 2nd WAL append — and the third generation runs clean.
    """
    schedules: dict[int, list[dict]] = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 3:
            raise ValueError(
                f"bad kill-schedule entry {chunk!r}; "
                "expected shard:site:hit"
            )
        shard_text, site, hit_text = parts
        try:
            shard = int(shard_text)
            hit = int(hit_text)
        except ValueError:
            raise ValueError(
                f"bad kill-schedule entry {chunk!r}; shard and hit "
                "must be integers"
            ) from None
        if site not in KILL_SITES:
            raise ValueError(
                f"unknown kill site {site!r}; "
                f"expected one of {list(KILL_SITES)}"
            )
        if shard < 0 or hit < 1:
            raise ValueError(
                f"bad kill-schedule entry {chunk!r}; shard must be "
                ">= 0 and hit >= 1"
            )
        schedules.setdefault(shard, []).append({site: hit})
    return schedules
