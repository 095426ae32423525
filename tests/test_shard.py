"""Tests for crash-tolerant multi-process sharded serving (repro.serve.shard).

Covers the supervisor (spawn, heartbeat, restart storms, graceful
shutdown), the per-shard write-attempt log (torn-tail recovery),
router failover envelopes, and the acceptance soak: a seeded
worker-kill schedule firing at every serve-layer kill site under
concurrent load, gated on the extended linearizability check and
byte-identical recovery.
"""

import json
import os
import random
import sys
import threading
import time

import pytest

from repro.core import build_learned_emulator
from repro.durability.journal import scan_records
from repro.durability.snapshot import (
    SnapshotEncoder,
    snapshot_version,
    write_snapshot,
)
from repro.interpreter import Emulator
from repro.interpreter.endpoint import EncodedResponse, JsonEndpoint
from repro.interpreter.errors import ApiResponse
from repro.interpreter.machine import Registry, Transaction
from repro.resilience.killswitch import (
    KILL_SITES,
    SimulatedCrash,
    clear_kill_switch,
    install_kill_switch,
)
from repro.serve import (
    AdmittedLog,
    FrontDoor,
    LoadGenerator,
    ShardedFrontDoor,
    ShardSupervisor,
    parse_kill_schedule,
    shard_for,
)
from repro.serve.concurrency import RESET, canonical_snapshot
from repro.serve.loadgen import TrafficModel
from repro.serve.shard import (
    CRASH_EXIT_CODE,
    SPAWN_TIMEOUT,
    WORKER_KILL_SITES,
    ShardConfig,
    _ShardWorker,
    _serve,
)
from repro.spec import parse_module
from repro.telemetry import Telemetry
from repro.telemetry.report import _shard_rows

from .test_interpreter import PUBLIC_IP_MODULE


@pytest.fixture(autouse=True)
def _no_leftover_kill_switch():
    clear_kill_switch()
    yield
    clear_kill_switch()


def toy_module():
    return parse_module(PUBLIC_IP_MODULE, service="toy")


def wait_until(predicate, timeout=30.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def invoke(supervisor, shard, api, params, tenant="t"):
    return supervisor.request(shard, {
        "op": "invoke", "tenant": tenant, "api": api, "params": params,
    })


def create_ip(supervisor, shard, tenant="t", region="us-east"):
    return invoke(
        supervisor, shard, "CreatePublicIP", {"region": region},
        tenant=tenant,
    )


class TestPlacement:
    def test_stable_and_in_range(self):
        for tenant in ("alice", "bob", "tenant-7", "a b/c"):
            first = shard_for(tenant, 4)
            assert first == shard_for(tenant, 4)
            assert 0 <= first < 4

    def test_spreads_tenants(self):
        placed = {shard_for(f"tenant-{i}", 4) for i in range(100)}
        assert placed == {0, 1, 2, 3}

    def test_single_shard_degenerate(self):
        assert shard_for("anyone", 1) == 0
        assert shard_for("anyone", 0) == 0  # clamped, not div-by-zero


def _cpus_allowed() -> set:
    try:
        return os.sched_getaffinity(0)
    except AttributeError:
        return set()


def _in_thread(fn):
    """Run ``fn`` on a fresh thread (its CPU affinity is its own) and
    return its result, re-raising what it raised."""
    out = {}

    def run():
        try:
            out["value"] = fn()
        except BaseException as error:  # re-raised below
            out["error"] = error

    thread = threading.Thread(target=run)
    thread.start()
    thread.join()
    if "error" in out:
        raise out["error"]
    return out["value"]


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(_cpus_allowed()) < 2,
    reason="CPU placement needs sched_setaffinity and 2+ allowed CPUs",
)
class TestCpuPlacement:
    """The door's GIL-bound threads share one CPU; workers get the
    rest, while the door is the busier side.  Each test runs on its own
    thread and every door is closed, so the test runner gets its CPUs
    back."""

    @staticmethod
    def _worker_cpus(supervisor) -> dict:
        return {
            stats["shard"]: (set(stats["cpus"]),
                             os.sched_getaffinity(stats["pid"]))
            for stats in supervisor.shard_stats()
        }

    def test_parent_on_one_cpu_workers_off_it(self, tmp_path):
        def run():
            before = os.sched_getaffinity(0)
            main = threading.main_thread().native_id
            main_before = os.sched_getaffinity(main)
            with ShardSupervisor(
                toy_module(), shards=2, data_dir=tmp_path
            ) as supervisor:
                parent = supervisor.parent_cpu
                assert os.sched_getaffinity(0) == {parent}
                # Every thread of the process shares the GIL, so all
                # of them are placed.
                assert os.sched_getaffinity(main) == {parent}
                # Threads the constructing thread starts inherit it.
                seen = []
                child = threading.Thread(
                    target=lambda: seen.append(os.sched_getaffinity(0))
                )
                child.start()
                child.join()
                assert seen == [{parent}]
                workers = self._worker_cpus(supervisor)
                assert len(workers) == 2
                for reported, actual in workers.values():
                    assert reported == actual
                    assert parent not in actual
                    assert actual == supervisor.worker_cpus
                assert supervisor.worker_cpus == before - {parent}
            assert os.sched_getaffinity(0) == before
            assert os.sched_getaffinity(main) == main_before

        _in_thread(run)

    def test_restarted_worker_keeps_the_worker_cpus(self, tmp_path):
        def run():
            with ShardSupervisor(
                toy_module(), shards=1, data_dir=tmp_path
            ) as supervisor:
                [(first, __)] = self._worker_cpus(supervisor).values()
                supervisor.kill(0)
                assert supervisor.tick()["restarted"] == 1
                [(again, actual)] = self._worker_cpus(supervisor).values()
                assert again == first == actual
                assert supervisor.parent_cpu not in actual

        _in_thread(run)

    def test_close_restores_the_callers_affinity(self, tmp_path):
        def run():
            before = os.sched_getaffinity(0)
            supervisor = ShardSupervisor(
                toy_module(), shards=1, data_dir=tmp_path
            )
            assert os.sched_getaffinity(0) != before
            supervisor.close()
            assert os.sched_getaffinity(0) == before
            supervisor.close()  # a second close changes nothing
            assert os.sched_getaffinity(0) == before

        _in_thread(run)

    def test_overlapping_doors_share_one_placement(self, tmp_path):
        def run():
            before = os.sched_getaffinity(0)
            first = ShardSupervisor(
                toy_module(), shards=1, data_dir=tmp_path / "a"
            )
            # A thread that took its CPUs back is placed again by the
            # next door it builds.
            os.sched_setaffinity(0, before)
            try:
                second = ShardSupervisor(
                    toy_module(), shards=1, data_dir=tmp_path / "b"
                )
            except BaseException:
                first.close()
                raise
            try:
                parent = first.parent_cpu
                assert second.parent_cpu == parent
                assert os.sched_getaffinity(0) == {parent}
                for supervisor in (first, second):
                    for __, actual in self._worker_cpus(
                        supervisor
                    ).values():
                        assert parent not in actual
                first.close()
                # The second door still holds the placement.
                assert os.sched_getaffinity(0) == {parent}
                assert second.restart(0)
                for __, actual in self._worker_cpus(second).values():
                    assert parent not in actual
            finally:
                first.close()
                second.close()
            assert os.sched_getaffinity(0) == before

        _in_thread(run)

    def test_concurrent_doors_restore_every_thread(self):
        """Threads joining and leaving the shared placement at once
        (more threads than CPUs, a tiny switch interval): each is on
        the parent CPU while it holds a door, and the last door gives
        every thread its CPUs back."""
        from repro.serve.shard import _Placement

        def run():
            before = os.sched_getaffinity(0)
            errors = []

            def churn():
                try:
                    for __ in range(200):
                        door = object()
                        placement = _Placement.join(door)
                        assert os.sched_getaffinity(0) == {
                            placement.parent_cpu
                        }
                        _Placement.leave(placement, door)
                except BaseException as error:  # re-raised below
                    errors.append(error)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                threads = [threading.Thread(target=churn) for __ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors, errors[0]
            assert _Placement.current is None
            assert os.sched_getaffinity(0) == before

        _in_thread(run)

    def test_fleet_panel_shows_the_placement(self, tmp_path):
        from repro.obs import ObsPlane, render_frame
        from repro.telemetry import Telemetry

        def run():
            module = toy_module()
            telemetry = Telemetry(service="toy")
            plane = ObsPlane(telemetry)
            with ShardedFrontDoor(
                module, lambda: Emulator(module), shards=2,
                data_dir=tmp_path, telemetry=telemetry,
            ) as front:
                parent = front.supervisor.parent_cpu
                workers = ",".join(
                    str(cpu) for cpu in sorted(front.supervisor.worker_cpus)
                )
                front.clock.sleep(0.5)
                return parent, workers, render_frame(plane).splitlines()

        parent, workers, lines = _in_thread(run)
        header = f"shards (front door on CPU {parent}):"
        assert header in lines
        rows = lines[lines.index(header) + 1:][:2]
        assert [row.split()[0] for row in rows] == ["shard-0", "shard-1"]
        assert all(row.endswith(f"on CPU {workers}") for row in rows)

    def test_serve_bench_json_reports_the_placement(self, capsys,
                                                    tmp_path):
        from repro.cli import main as cli_main

        def run():
            cpus = os.sched_getaffinity(0)
            status = cli_main([
                "serve-bench", "ec2", "--shards", "2", "--workers", "2",
                "--requests", "60", "--json",
                "--shard-dir", str(tmp_path),
            ])
            return cpus, status

        cpus, status = _in_thread(run)
        assert status == 0
        summary = json.loads(capsys.readouterr().out)["sharding"]
        parent = summary["parent_cpu"]
        assert parent in cpus
        assert summary["worker_cpus"] == [sorted(cpus - {parent})] * 2

    def test_door_of_an_exited_thread_is_closed_elsewhere(
        self, tmp_path, monkeypatch
    ):
        """A door built on a thread that has exited is closed from
        another: the exited thread's native id may belong to another
        thread by now, so nothing is re-pinned."""
        from repro.serve.shard import _Placement

        built = []

        def run():
            builder = threading.Thread(target=lambda: built.append(
                ShardSupervisor(toy_module(), shards=1, data_dir=tmp_path)
            ))
            builder.start()
            builder.join()
            [supervisor] = built
            tasks = "/proc/self/task"
            deadline = time.monotonic() + 10
            while (str(builder.native_id) in os.listdir(tasks)
                   and time.monotonic() < deadline):
                time.sleep(0.01)  # the OS thread outlives join()
            pinned = []
            setaffinity = os.sched_setaffinity
            monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: (
                pinned.append(pid), setaffinity(pid, cpus)
            ))
            supervisor.close()
            assert builder.native_id not in pinned
            assert threading.get_native_id() in pinned  # restored
            assert _Placement.current is None

        _in_thread(run)

    def test_door_starts_on_the_cpu_it_runs_on(self, tmp_path,
                                               monkeypatch):
        """Doors of several processes spread over the CPUs: each pins
        its threads to the CPU it was running on, not to the lowest."""
        from repro.serve import shard

        def run():
            cpus = os.sched_getaffinity(0)
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                assert shard._current_cpu() == cpu
            os.sched_setaffinity(0, cpus)
            monkeypatch.setattr(shard, "_current_cpu", lambda: max(cpus))
            with ShardSupervisor(
                toy_module(), shards=1, data_dir=tmp_path
            ) as supervisor:
                assert supervisor.parent_cpu == max(cpus)
                assert os.sched_getaffinity(0) == {max(cpus)}
                [(__, actual)] = self._worker_cpus(supervisor).values()
                assert max(cpus) not in actual

        _in_thread(run)

    def test_placement_follows_the_busier_side(self, tmp_path, monkeypatch):
        """Placement is lifted once the workers' CPUs are busier than
        the door's, comes back only once they are clearly less busy,
        and a window with too little work decides nothing."""
        import time as time_module

        from repro.serve import shard

        door_cpu, worker_cpu = [0.0], [0.0]
        monkeypatch.setattr(time_module, "process_time",
                            lambda: door_cpu[0])
        monkeypatch.setattr(shard, "_cpu_seconds",
                            lambda pid: worker_cpu[0])

        def run():
            before = os.sched_getaffinity(0)
            with ShardSupervisor(
                toy_module(), shards=1, data_dir=tmp_path
            ) as supervisor:
                placement = supervisor._placement
                parent = supervisor.parent_cpu

                def window(door, busy):
                    door_cpu[0] += door
                    worker_cpu[0] += busy * len(placement.worker_cpus)
                    placement.check()

                window(0.0, 0.0)  # the first check only takes marks
                window(0.5, 0.5)  # workers as busy as the door: stay
                assert placement.active
                window(0.5, 0.6)  # workers busier: lift
                assert not placement.active
                assert supervisor.parent_cpu is None
                assert supervisor.worker_cpus == frozenset()
                assert os.sched_getaffinity(0) == before
                [(reported, actual)] = self._worker_cpus(
                    supervisor
                ).values()
                assert reported == actual == before
                window(1.0, 0.7)  # less busy, not clearly: stay off
                assert not placement.active
                window(0.01, 0.0)  # too little work to tell
                assert not placement.active
                window(1.0, 0.5)  # clearly less busy: place again
                assert placement.active
                assert supervisor.parent_cpu == parent
                assert os.sched_getaffinity(0) == {parent}
                [(__, actual)] = self._worker_cpus(supervisor).values()
                assert parent not in actual
            assert os.sched_getaffinity(0) == before
            window(1.0, 0.0)  # a check after the last door: nothing
            assert os.sched_getaffinity(0) == before

        _in_thread(run)

    def test_requests_schedule_checks(self, tmp_path, monkeypatch):
        from repro.serve import shard

        def run():
            with ShardSupervisor(
                toy_module(), shards=1, data_dir=tmp_path
            ) as supervisor:
                placement = supervisor._placement
                checks = []
                monkeypatch.setattr(placement.__class__, "check",
                                    lambda self: checks.append(1))
                placement.due = 0.0
                for __ in range(shard.PLACEMENT_CHECK_REQUESTS):
                    supervisor.request(0, {"op": "ping"})
                assert len(checks) == 1
                placement.due = float("inf")  # not due: no check
                for __ in range(shard.PLACEMENT_CHECK_REQUESTS):
                    supervisor.request(0, {"op": "ping"})
                assert len(checks) == 1

        _in_thread(run)

    def test_thread_pinned_to_one_cpu_places_nothing(self, tmp_path):
        def run():
            cpu = min(os.sched_getaffinity(0))
            os.sched_setaffinity(0, {cpu})
            with ShardSupervisor(
                toy_module(), shards=1, data_dir=tmp_path
            ) as supervisor:
                assert supervisor.parent_cpu is None
                assert supervisor.worker_cpus == frozenset()
                [(reported, actual)] = self._worker_cpus(
                    supervisor
                ).values()
                assert reported == actual == {cpu}
            assert os.sched_getaffinity(0) == {cpu}

        _in_thread(run)


class TestParseKillSchedule:
    def test_basic(self):
        assert parse_kill_schedule("0:mid-publish:3") == {
            0: [{"mid-publish": 3}]
        }

    def test_queues_per_shard_in_order(self):
        parsed = parse_kill_schedule(
            "1:mid-transition-commit:2,1:mid-serve-wal-append:4,"
            "0:mid-publish:1"
        )
        assert parsed == {
            1: [{"mid-transition-commit": 2}, {"mid-serve-wal-append": 4}],
            0: [{"mid-publish": 1}],
        }

    def test_tolerates_empty_chunks(self):
        assert parse_kill_schedule("0:mid-publish:1,,") == {
            0: [{"mid-publish": 1}]
        }

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="expected shard:site:hit"):
            parse_kill_schedule("0:mid-publish")
        with pytest.raises(ValueError, match="must be integers"):
            parse_kill_schedule("x:mid-publish:1")
        with pytest.raises(ValueError, match="unknown kill site"):
            parse_kill_schedule("0:mid-made-up:1")
        with pytest.raises(ValueError, match="shard must be"):
            parse_kill_schedule("-1:mid-publish:1")
        with pytest.raises(ValueError, match="shard must be"):
            parse_kill_schedule("0:mid-publish:0")

    def test_worker_sites_are_registered(self):
        for site in WORKER_KILL_SITES:
            assert site in KILL_SITES


class TestShardLog:
    """A worker's on-disk write-attempt log across worker restarts."""

    def test_roundtrip_and_reopen(self, tmp_path):
        path = tmp_path / "shard.wal"
        log = AdmittedLog(path)
        assert log.append("a", "CreatePublicIP", {"region": "r"}) == 1
        assert log.append("a", "_Reset", None) == 2
        assert log.append("b", "CreateNIC", {"zone": "z"}) == 3
        log.close()

        reopened = AdmittedLog(path)
        assert reopened.dropped == 0
        assert len(reopened) == 3
        assert [r["api"] for r in reopened.records] == [
            "CreatePublicIP", "_Reset", "CreateNIC",
        ]
        assert reopened.records[0] == {
            "seq": 1, "tenant": "a", "api": "CreatePublicIP",
            "params": {"region": "r"},
        }
        # The seqs continue across the reopen.
        assert reopened.append("c", "CreateNIC", {"zone": "z"}) == 4
        reopened.close()

    def test_torn_append_dropped_on_reopen(self, tmp_path):
        path = tmp_path / "shard.wal"
        log = AdmittedLog(path)
        log.append("t", "CreatePublicIP", {"region": "r"})
        install_kill_switch({"mid-serve-wal-append": 1})
        with pytest.raises(SimulatedCrash):
            log.append("t", "CreatePublicIP", {"region": "r"})
        clear_kill_switch()
        # The file really holds a torn half-line, not a clean tail.
        assert not path.read_bytes().endswith(b"\n")

        recovered = AdmittedLog(path)
        assert recovered.dropped == 1
        assert len(recovered) == 1
        # The next append reuses the seq the torn attempt never earned.
        assert recovered.append("t", "CreatePublicIP", {"region": "r"}) == 2
        recovered.close()

    def test_reopen_keeps_seqs_contiguous_and_params_exact(self, tmp_path):
        """Reopening past a torn tail resumes the seqs without a gap or
        a repeat, on disk and in memory, and params that JSON cannot
        hold (tuples, sets) come back with their types."""
        path = tmp_path / "shard.wal"
        log = AdmittedLog(path)
        log.append("a", "CreatePublicIP", {"region": "r", "tags": ("x",)})
        log.append("b", RESET, None)
        log.append("a", "CreateNIC", {"zones": {"z1", "z2"}})
        install_kill_switch({"mid-serve-wal-append": 1})
        with pytest.raises(SimulatedCrash):
            log.append("a", "CreateNIC", {"zone": "torn"})
        clear_kill_switch()

        reopened = AdmittedLog(path)
        assert reopened.dropped == 1
        assert reopened.append("b", "CreateNIC", {"zone": "z"}) == 4
        assert reopened.append("a", RESET, None) == 5
        reopened.close()

        again = AdmittedLog(path)
        assert again.dropped == 0
        assert [r["seq"] for r in again.records] == [1, 2, 3, 4, 5]
        assert [r["seq"] for r in scan_records(path).records] == [
            1, 2, 3, 4, 5,
        ]
        assert again.per_tenant("a") == [
            {"seq": 1, "tenant": "a", "api": "CreatePublicIP",
             "params": {"region": "r", "tags": ("x",)}},
            {"seq": 3, "tenant": "a", "api": "CreateNIC",
             "params": {"zones": {"z1", "z2"}}},
            {"seq": 5, "tenant": "a", "api": RESET, "params": {}},
        ]
        assert len(again) == 5
        again.close()


class TestShardWorkerCompile:
    def test_tenants_and_recovery_share_one_compiled_module(self, tmp_path):
        """A worker lowers its spec once: every tenant's emulator and
        every recovery self-check control run the same closures, and
        the tenants' registries stay apart."""
        config = ShardConfig(
            index=0, module=toy_module(), notfound_codes={},
            data_dir=str(tmp_path),
        )
        worker = _ShardWorker(config)
        params = {"region": "us-east"}
        assert worker.invoke("a", "CreatePublicIP", params).success
        assert worker.invoke("b", "CreatePublicIP", params).success
        assert worker.invoke("a", "CreatePublicIP", params).success
        tenants = [worker._tenant(name).inner for name in ("a", "b")]
        assert all(t._compiled is worker.compiled for t in tenants)
        assert [len(t.registry) for t in tenants] == [2, 1]
        worker.log.close()
        recovered = _ShardWorker(config)
        assert [r["identical"] for r in recovered.recovery] == [True, True]
        assert recovered._fresh()._compiled is recovered.compiled
        assert recovered.snapshot("a") == worker.snapshot("a")
        recovered.log.close()


class TestShardWorkerSnapshots:
    """A worker's periodic snapshots follow ``ShardConfig.fsync`` the
    way its WAL does."""

    @staticmethod
    def _fsyncs(tmp_path, monkeypatch, fsync):
        calls = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            calls.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        module = toy_module()
        worker = _ShardWorker(ShardConfig(
            index=0, module=module, notfound_codes={},
            data_dir=str(tmp_path), snapshot_interval=3, fsync=fsync,
        ))
        for __ in range(3):
            assert worker.invoke(
                "t", "CreatePublicIP", {"region": "us-east"}
            ).success
            worker.checkpoint()  # the serve loop's post-reply step
        worker.flush()  # the writer thread has written the files
        worker.log.close()
        assert worker._snapshot_path("t").exists()
        return len(calls)

    def test_no_fsync_when_disabled(self, tmp_path, monkeypatch):
        assert self._fsyncs(tmp_path, monkeypatch, fsync=False) == 0

    def test_fsync_when_enabled(self, tmp_path, monkeypatch):
        assert self._fsyncs(tmp_path, monkeypatch, fsync=True) >= 1

    def test_crash_between_reply_and_checkpoint_recovers(self, tmp_path):
        """A write's due snapshot runs after its reply.  A crash in
        that window leaves the older snapshot on disk; recovery
        replays the logged write on top of it, byte-identically."""
        module = toy_module()
        config = ShardConfig(
            index=0, module=module, notfound_codes={},
            data_dir=str(tmp_path), snapshot_interval=1,
        )
        worker = _ShardWorker(config)
        params = {"region": "us-east"}
        assert worker.invoke("t", "CreatePublicIP", params).success
        worker.checkpoint()
        worker.flush()
        assert worker.invoke("t", "CreatePublicIP", params).success
        # The crash: the second write's checkpoint never runs.
        worker.log.close()
        on_disk = json.loads(worker._snapshot_path("t").read_text())
        assert on_disk["snapshot"]["wal_seq"] == 1

        recovered = _ShardWorker(config)
        [report] = recovered.recovery
        assert report["identical"]
        assert report["snapshot_seq"] == 1
        assert report["replayed"] == 1
        control = Emulator(module)
        for __ in range(2):
            control.invoke("CreatePublicIP", dict(params))
        assert canonical_snapshot(recovered.snapshot("t")) == (
            canonical_snapshot(control.snapshot())
        )
        recovered.log.close()


def _reference_text(tmp_path, version, **outer) -> str:
    """What ``write_snapshot`` writes for ``version`` under ``outer``."""
    path = write_snapshot(tmp_path / "reference.json", {
        **outer, "snapshot": snapshot_version(version),
    }, fsync=False)
    return path.read_text()


class TestQueuedSnapshots:
    """Snapshot files are written by the worker's writer thread; what
    it has not written yet, recovery replays from the attempt log."""

    def test_crash_with_a_snapshot_queued_recovers(self, tmp_path,
                                                   monkeypatch):
        module = toy_module()
        config = ShardConfig(
            index=0, module=module, notfound_codes={},
            data_dir=str(tmp_path), snapshot_interval=1,
        )
        worker = _ShardWorker(config)
        params = {"region": "us-east"}
        assert worker.invoke("t", "CreatePublicIP", params).success
        worker.checkpoint()
        worker.flush()
        # The writer thread stalls in its next write and the process
        # dies before the file is written.
        stalled = threading.Event()
        released = threading.Event()

        def stall(path, data, **kwargs):
            stalled.set()
            released.wait(10)

        monkeypatch.setattr("repro.serve.shard.atomic_write", stall)
        assert worker.invoke("t", "CreatePublicIP", params).success
        worker.checkpoint()
        assert worker.invoke("t", "CreatePublicIP", params).success
        worker.checkpoint()
        assert stalled.wait(10)
        stats = worker.stats()
        assert stats["snapshot_backlog"] == 2
        assert stats["snapshots_written"] == 1
        assert stats["snapshot_failures"] == 0
        assert stats["checkpoint_us"] > 0
        worker.log.close()
        on_disk = worker._snapshot_path("t").read_text()
        assert json.loads(on_disk)["snapshot"]["wal_seq"] == 1

        recovered = _ShardWorker(config)
        released.set()
        [report] = recovered.recovery
        assert report["identical"]
        assert report["snapshot_seq"] == 1
        assert report["replayed"] == 2
        control = Emulator(module)
        for __ in range(3):
            control.invoke("CreatePublicIP", dict(params))
        assert canonical_snapshot(recovered.snapshot("t")) == (
            canonical_snapshot(control.snapshot())
        )
        assert worker._snapshot_path("t").read_text() == on_disk
        recovered.log.close()

    def test_failed_write_is_counted_and_leaves_the_older_file(
        self, tmp_path, monkeypatch
    ):
        worker = _ShardWorker(ShardConfig(
            index=0, module=toy_module(), notfound_codes={},
            data_dir=str(tmp_path), snapshot_interval=1,
        ))
        params = {"region": "us-east"}
        assert worker.invoke("t", "CreatePublicIP", params).success
        worker.checkpoint()
        worker.flush()
        before = worker._snapshot_path("t").read_text()

        def full_disk(path, data, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr("repro.serve.shard.atomic_write", full_disk)
        assert worker.invoke("t", "CreatePublicIP", params).success
        worker.checkpoint()
        worker.flush()
        stats = worker.stats()
        assert stats["snapshot_failures"] == 1
        assert stats["snapshots_written"] == 1
        assert stats["snapshot_backlog"] == 0
        assert worker._snapshot_path("t").read_text() == before
        monkeypatch.undo()
        worker.shutdown()
        recovered = _ShardWorker(worker.config)
        assert [r["identical"] for r in recovered.recovery] == [True]
        assert recovered.recovery[0]["snapshot_seq"] == 2
        recovered.log.close()

    def test_recovery_removes_stale_temp_files(self, tmp_path):
        config = ShardConfig(
            index=0, module=toy_module(), notfound_codes={},
            data_dir=str(tmp_path), snapshot_interval=1,
        )
        worker = _ShardWorker(config)
        assert worker.invoke(
            "t", "CreatePublicIP", {"region": "us-east"}
        ).success
        worker.checkpoint()
        worker.shutdown()
        # A death inside the writer's atomic_write leaves its temp file.
        stale = tmp_path / ".tenant-t.snapshot.json.tmp.4242"
        stale.write_text('{"torn')
        kept = tmp_path / "notes.tmp.txt"
        kept.write_text("not a snapshot")
        recovered = _ShardWorker(config)
        assert not stale.exists()
        assert kept.exists()
        assert [r["identical"] for r in recovered.recovery] == [True]
        assert recovered.recovery[0]["snapshot_seq"] == 1
        recovered.log.close()


class TestSnapshotEncoder:
    """A checkpoint encodes only the instances that changed since the
    tenant's last one, and its text is what ``write_snapshot`` writes."""

    def test_text_matches_write_snapshot(self, tmp_path):
        spec = type("Spec", (), {"name": "vpc"})()
        registry = Registry()
        encoder = SnapshotEncoder()

        def commit(change, seq):
            txn = Transaction(registry)
            change(txn)
            txn.commit()
            version = registry.publish()
            version.wal_seq = seq
            text = encoder.text(version, tenant="t", shard=2)
            assert text == _reference_text(
                tmp_path, version, tenant="t", shard=2
            )
            return version

        def create(state, parent_id=""):
            def change(txn):
                txn.create(registry.create(spec, state, parent_id))
            return change

        commit(create({
            "tags": {"Name": "a", "Env": "dev"},
            "ports": {443, 22, 80},
            "pair": ("10.0.0.0", 16),
            "by_number": {2: "two", 1: ("one",)},
            "nested": [{"cidrs": {"b", "a"}}, None, 1.5, True],
            "tricky": {"$repro": "not a tag"},
        }), 1)
        commit(create({"tags": {}}, parent_id="vpc-00000001"), 2)
        commit(create({"tags": {}}), 3)
        # An attribute flip and a new tag replace the instances.
        commit(lambda txn: txn.set_state(
            "vpc-00000002", "tags", {"Name": "b"}
        ), 4)
        commit(lambda txn: txn.set_state(
            "vpc-00000001", "ports", {22}
        ), 5)
        # A delete drops the id; a placement adds "placements".
        commit(lambda txn: txn.mark_deleted("vpc-00000003"), 6)
        registry.place("vpc-00000001", "us-west")
        version = commit(lambda txn: None, 7)
        assert version.placements == {"vpc-00000001": "us-west"}
        assert encoder.encoded == 5

    def test_worker_checkpoints_match_write_snapshot(self, build,
                                                      tmp_path):
        """Seeded ec2 traffic (creates, deletes, modifies and tags,
        failures included) through a worker: every checkpoint's file
        is the file ``write_snapshot`` writes for the same version."""
        worker = _ShardWorker(ShardConfig(
            index=1, module=build.module,
            notfound_codes=build.make_backend().notfound_codes,
            data_dir=str(tmp_path / "shard"), snapshot_interval=3,
        ))
        model = TrafficModel(build.module, worker._fresh().read_only)
        rng = random.Random(29)
        ids = {}
        compared = 0
        for __ in range(300):
            api, params, __ = model.request(rng, 0.2, ids)
            response = worker.invoke("t", api, params)
            created = (response.data or {}).get("id")
            if response.success and isinstance(created, str):
                ids.setdefault(model.owning_sm(api), []).append(created)
            due = bool(worker._snapshot_due)
            worker.checkpoint()
            if due:
                worker.flush()
                on_disk = worker._snapshot_path("t").read_text()
                version = worker._tenant("t").pinned(lambda v: v)
                assert on_disk == _reference_text(
                    tmp_path, version, tenant="t", shard=1
                )
                compared += 1
        worker.shutdown()
        assert compared >= 60
        assert worker.stats()["snapshots_written"] == compared + 1

    def test_checkpoint_encodes_only_changed_instances(self, tmp_path):
        worker = _ShardWorker(ShardConfig(
            index=0, module=toy_module(), notfound_codes={},
            data_dir=str(tmp_path), snapshot_interval=3,
        ))

        def write(api, params):
            worker.invoke("t", api, params)
            worker.checkpoint()

        for __ in range(3):
            write("CreateNIC", {"zone": "us-east"})
        for __ in range(3):
            write("CreatePublicIP", {"region": "us-east"})
        encoder = worker._encoders["t"]
        # Two checkpoints: the second re-encoded none of the first's.
        assert encoder.encoded == 6
        # k = 3 writes: one changes two instances (the IP and, through
        # its cross-SM call, the NIC), one deletes an instance, one
        # creates an instance.
        write("AssociateNIC", {
            "public_ip_id": "public_ip-00000001",
            "nic_ref": "nic-00000001",
        })
        write("DeleteNIC", {"nic_id": "nic-00000003"})
        write("CreatePublicIP", {"region": "us-west"})
        assert encoder.encoded == 6 + 3
        worker.shutdown()
        on_disk = json.loads(worker._snapshot_path("t").read_text())
        instances = {e["id"]: e for e in on_disk["snapshot"]["instances"]}
        assert "nic-00000003" not in instances
        assert instances["nic-00000001"]["state"]["public_ip"] == (
            "public_ip-00000001"
        )
        # shutdown's final snapshot found nothing new to encode.
        assert encoder.encoded == 9


class _DiesWhenRead:
    """Unpickles by calling ``int`` on a non-number, which raises: a
    worker handed one dies while it reads its start data."""

    def __reduce__(self):
        return int, ("start data no worker can read",)


class TestSupervisor:
    def test_worker_dying_on_its_start_data_fails_construction(
            self, tmp_path):
        """A worker that dies while it reads its start data fails
        construction within SPAWN_TIMEOUT instead of blocking it.  The
        start data carries 128 KB behind the object that kills the
        worker, past a pipe buffer's 64 KB; construction runs on a
        daemon thread, so a hang fails the test instead of stalling
        the suite."""
        module = (_DiesWhenRead(), b"\0" * (128 * 1024))
        out = {}

        def construct():
            try:
                ShardSupervisor(module, shards=1, data_dir=tmp_path)
            except BaseException as error:  # asserted below
                out["error"] = error

        started = time.monotonic()
        thread = threading.Thread(target=construct, daemon=True)
        thread.start()
        thread.join(SPAWN_TIMEOUT)
        assert not thread.is_alive(), "construction hung"
        assert time.monotonic() - started < SPAWN_TIMEOUT
        assert isinstance(out.get("error"), RuntimeError), out

    def test_rpc_roundtrip_and_stats(self, tmp_path):
        with ShardSupervisor(
            toy_module(), shards=2, data_dir=tmp_path
        ) as supervisor:
            shard = supervisor.shard_for("t")
            reply = create_ip(supervisor, shard)
            assert reply["ok"] and reply["success"]
            read = invoke(
                supervisor, shard, "DescribeNIC", {"nic_id": "missing"}
            )
            assert read["ok"] and not read["success"]
            stats = {s["shard"]: s for s in supervisor.shard_stats()}
            assert stats[shard]["writes"] == 1
            assert stats[shard]["admitted"] == 1
            # The read was dispatched but never logged as an attempt.
            assert stats[shard]["requests"] == 2

    def test_close_leaves_every_final_snapshot(self, tmp_path):
        """A graceful close writes each tenant's final snapshot, at its
        last logged attempt, before the worker acknowledges."""
        tenants = ["a", "b", "c"]
        with ShardSupervisor(
            toy_module(), shards=1, data_dir=tmp_path,
            snapshot_interval=100,
        ) as supervisor:
            for step in range(7):
                tenant = tenants[step % len(tenants)]
                assert create_ip(supervisor, 0, tenant=tenant)["success"]
            live = {t: supervisor.snapshot(0, t) for t in tenants}
        shard_dir = tmp_path / "shard-0"
        log = AdmittedLog(shard_dir / "shard.wal")
        records = log.records
        log.close()
        last = {r["tenant"]: r["seq"] for r in records}
        for tenant in tenants:
            on_disk = json.loads(
                (shard_dir / f"tenant-{tenant}.snapshot.json").read_text()
            )
            assert on_disk["snapshot"]["wal_seq"] == last[tenant]
            assert canonical_snapshot(on_disk["snapshot"]) == (
                canonical_snapshot(live[tenant])
            )
        assert max(last.values()) == records[-1]["seq"] == 7

    def test_checkpoint_stats_reach_the_report(self, tmp_path):
        telemetry = Telemetry(service="toy")
        with ShardSupervisor(
            toy_module(), shards=1, data_dir=tmp_path,
            telemetry=telemetry, snapshot_interval=2,
        ) as supervisor:
            for __ in range(4):
                assert create_ip(supervisor, 0)["success"]
            assert wait_until(lambda: supervisor.shard_stats()[0][
                "snapshot_backlog"] == 0)
            [stats] = supervisor.shard_stats()
            assert stats["snapshots_written"] == 2
            assert stats["checkpoint_us"] > 0
            supervisor.merge_metrics()
        metrics = telemetry.metrics.snapshot()
        assert metrics["shard.snapshots{shard=0}"]["value"] == 2
        assert metrics["shard.snapshot_backlog{shard=0}"]["value"] == 0
        assert metrics["shard.checkpoint_us{shard=0}"]["value"] == (
            stats["checkpoint_us"]
        )
        assert any(
            row.startswith("2 snapshot(s) written (0 queued, ")
            for row in _shard_rows(metrics)
        )

    def test_kill_then_tick_restarts(self, build, tmp_path):
        """A killed worker comes back on the next tick with the state
        it had.  Two inputs: a plain create on the toy module, and on
        ec2 a create that fails (burning an ID) before one that
        succeeds — the recovered worker keeps ``subnet-00000002`` and
        hands out ``subnet-00000003`` next."""
        vpc = {"VpcId": "vpc-00000001"}
        inputs = [
            (toy_module(), {},
             [("CreatePublicIP", {"region": "us-east"})],
             ("CreatePublicIP", {"region": "us-east"}),
             "public_ip-00000002"),
            (build.module, build.make_backend().notfound_codes,
             [("CreateVpc", {"CidrBlock": "10.0.0.0/16"}),
              ("CreateSubnet", {**vpc, "CidrBlock": "10.0.0.0/29"}),
              ("CreateSubnet", {**vpc, "CidrBlock": "10.0.1.0/24"})],
             ("CreateSubnet", {**vpc, "CidrBlock": "10.0.2.0/24"}),
             "subnet-00000003"),
        ]
        for index, (module, codes, calls, then, next_id) in enumerate(
            inputs
        ):
            with ShardSupervisor(
                module, notfound_codes=codes, shards=1,
                data_dir=tmp_path / str(index),
            ) as supervisor:
                for api, params in calls:
                    assert invoke(supervisor, 0, api, params)["ok"]
                before = supervisor.snapshot(0, "t")
                supervisor.kill(0)
                assert not supervisor.alive(0)
                seen = supervisor.tick()
                assert seen["restarted"] == 1
                assert supervisor.generation(0) == 1
                assert supervisor.restarts == 1
                assert canonical_snapshot(supervisor.snapshot(0, "t")) == (
                    canonical_snapshot(before)
                )
                reply = invoke(supervisor, 0, *then)
                assert reply["success"]
                assert json.loads(reply["text"])["id"] == next_id
                assert len(supervisor.restart_log) == 1
                entry = supervisor.restart_log[0]
                assert entry["shard"] == 0 and entry["generation"] == 1
                assert entry["recovery_seconds"] > 0.0
                assert supervisor.recovery_failures == []

    def test_close_removes_only_its_own_data_dir(self, tmp_path):
        """With no ``data_dir`` the supervisor makes a temp directory
        and removes it on close; a caller's directory survives."""
        supervisor = ShardSupervisor(toy_module(), shards=1)
        made = supervisor.data_dir
        assert create_ip(supervisor, 0)["success"]
        assert made.is_dir()
        supervisor.close()
        assert not made.exists()

        with ShardSupervisor(
            toy_module(), shards=1, data_dir=tmp_path
        ) as supervisor:
            assert create_ip(supervisor, 0)["success"]
        assert (tmp_path / "shard-0" / "shard.wal").is_file()

    def test_kill_without_restart_sheds(self, tmp_path):
        with ShardSupervisor(
            toy_module(), shards=1, data_dir=tmp_path,
            auto_restart=False,
        ) as supervisor:
            supervisor.kill(0)
            assert create_ip(supervisor, 0) is None
            assert supervisor.restarts == 0

    def test_mid_transition_commit_death_is_rolled_forward(self, tmp_path):
        """The logged-but-uncommitted attempt replays on restart: the
        recovered registry equals a control that committed all three."""
        with ShardSupervisor(
            toy_module(), shards=1, data_dir=tmp_path,
            kill_schedules={0: [{"mid-transition-commit": 3}]},
        ) as supervisor:
            assert create_ip(supervisor, 0)["success"]
            assert create_ip(supervisor, 0)["success"]
            assert create_ip(supervisor, 0) is None  # died pre-commit
            assert wait_until(
                lambda: supervisor.alive(0)
                and supervisor.generation(0) == 1
            )
            reports = supervisor.recovery_reports()[0]
            assert [r["identical"] for r in reports] == [True]
            assert reports[0]["replayed"] == 3
            control = Emulator(toy_module())
            for __ in range(3):
                control.invoke("CreatePublicIP", {"region": "us-east"})
            live = supervisor.snapshot(0, "t")
            assert canonical_snapshot(live) == canonical_snapshot(
                control.snapshot()
            )
            assert supervisor.recovery_failures == []

    def test_torn_wal_append_recovers_byte_identical(self, tmp_path):
        """A death mid-WAL-append tears the line; recovery drops it and
        the registry is byte-identical to the pre-crash snapshot."""
        with ShardSupervisor(
            toy_module(), shards=1, data_dir=tmp_path,
            kill_schedules={0: [{"mid-serve-wal-append": 4}]},
        ) as supervisor:
            for __ in range(3):
                assert create_ip(supervisor, 0)["success"]
            before = supervisor.snapshot(0, "t")
            assert create_ip(supervisor, 0) is None  # died mid-append
            assert wait_until(
                lambda: supervisor.alive(0)
                and supervisor.generation(0) == 1
            )
            after = supervisor.snapshot(0, "t")
            assert canonical_snapshot(after) == canonical_snapshot(before)
            reports = supervisor.recovery_reports()[0]
            assert reports[0]["torn_dropped"] == 1
            assert reports[0]["identical"]
            assert supervisor.recovery_failures == []

    def test_restart_storm_converges(self, tmp_path):
        """k queued kills on one shard: each generation dies once, the
        queue drains, and generation k serves clean."""
        storm = [{"mid-transition-commit": 1}] * 3
        with ShardSupervisor(
            toy_module(), shards=1, data_dir=tmp_path,
            kill_schedules={0: list(storm)},
        ) as supervisor:
            outcome = None
            for __ in range(10):
                reply = create_ip(supervisor, 0)
                if reply is not None and reply["success"]:
                    outcome = reply
                    break
                generation = supervisor.generation(0)
                assert wait_until(
                    lambda: supervisor.alive(0)
                    and supervisor.generation(0) > generation
                )
            assert outcome is not None
            assert supervisor.restarts == 3
            assert supervisor.generation(0) == 3
            # Every crashed attempt was logged, so every generation
            # replays its predecessors' writes; all self-checks pass.
            assert supervisor.recovery_failures == []
            stats = supervisor.shard_stats()[0]
            assert stats["admitted"] == 4  # 3 crashed attempts + 1 live

    def test_slow_worker_is_busy_not_dead(self, tmp_path):
        """A stalled request holds one of the shard's pipes while the
        others sit free; heartbeat ticks must count the shard busy,
        never ping it, and never false-positive restart."""
        with ShardSupervisor(
            toy_module(), shards=1, data_dir=tmp_path,
            heartbeat_timeout=0.05, max_misses=1,
        ) as supervisor:
            result = {}

            def stall():
                result["reply"] = supervisor.request(
                    0, {"op": "stall", "seconds": 1.0}
                )

            thread = threading.Thread(target=stall)
            thread.start()
            try:
                assert wait_until(
                    lambda: supervisor.in_flight(0) > 0, timeout=5.0,
                )
                busy = 0
                while thread.is_alive():
                    busy += supervisor.tick()["busy"]
                    time.sleep(0.05)
            finally:
                thread.join(timeout=10)
            assert busy > 0
            assert result["reply"]["ok"]
            assert supervisor.restarts == 0
            assert supervisor._handles[0].misses == 0

    def test_stuck_worker_restarted_after_max_misses(self, tmp_path):
        """A wedged worker with every pipe *free* misses pings and is
        terminated after max_misses consecutive misses."""
        with ShardSupervisor(
            toy_module(), shards=1, data_dir=tmp_path,
            heartbeat_timeout=0.05, max_misses=2,
        ) as supervisor:
            handle = supervisor._handles[0]
            # Wedge the worker without keeping a pipe checked out: the
            # heartbeat sees every pipe free but no ping replies.
            pipe = handle.pool.get()
            pipe.send({"op": "stall", "seconds": 30.0, "id": 0})
            handle.pool.put(pipe)
            time.sleep(0.1)
            assert supervisor.tick()["missed"] == 1
            assert handle.misses == 1
            seen = supervisor.tick()
            assert seen["missed"] == 1 and seen["restarted"] == 1
            assert supervisor.restarts == 1
            assert create_ip(supervisor, 0)["success"]

    def test_clean_shutdown_drains_inflight_requests(self, tmp_path):
        supervisor = ShardSupervisor(
            toy_module(), shards=1, data_dir=tmp_path,
            snapshot_interval=1000,  # no snapshot before shutdown
        )
        assert create_ip(supervisor, 0)["success"]
        result = {}

        def inflight():
            result["reply"] = supervisor.request(
                0, {"op": "stall", "seconds": 0.8}
            )

        thread = threading.Thread(target=inflight)
        thread.start()
        assert wait_until(
            lambda: supervisor.in_flight(0) > 0, timeout=5.0
        )
        supervisor.close()
        thread.join(timeout=10)
        # The in-flight request completed rather than being cut off...
        assert result["reply"]["ok"]
        # ...the worker exited cleanly (not crashed, not terminated)...
        assert supervisor._handles[0].process.exitcode == 0
        # ...and shutdown flushed a final snapshot for the tenant.
        snapshot = tmp_path / "shard-0" / "tenant-t.snapshot.json"
        assert snapshot.exists()

    def test_crash_exit_code_is_distinguishable(self, tmp_path):
        with ShardSupervisor(
            toy_module(), shards=1, data_dir=tmp_path,
            auto_restart=False,
            kill_schedules={0: [{"mid-transition-commit": 1}]},
        ) as supervisor:
            assert create_ip(supervisor, 0) is None
            handle = supervisor._handles[0]
            handle.process.join(timeout=10)
            assert handle.process.exitcode == CRASH_EXIT_CODE


class TestShardedFrontDoorFailover:
    def test_unavailable_envelope_then_recovery(self, tmp_path):
        module = toy_module()
        with ShardedFrontDoor(
            module, lambda: Emulator(module), shards=2,
            data_dir=tmp_path,
        ) as front:
            key = "alice"
            shard = front.supervisor.shard_for(key)
            ok = front.invoke(
                "CreatePublicIP", {"region": "us-east"}, api_key=key
            )
            assert ok.success
            front.supervisor.kill(shard)
            shed = front.invoke(
                "CreatePublicIP", {"region": "us-east"}, api_key=key
            )
            assert not shed.success
            assert shed.error_code == "ServiceUnavailable"
            assert shed.data["ShardUnavailable"] is True
            assert shed.data["Shard"] == shard
            assert shed.data["RetryAfterSeconds"] > 0
            # Bounded failover: the shard comes back and serves.
            assert wait_until(
                lambda: front.supervisor.alive(shard)
                and front.supervisor.generation(shard) == 1
            )
            retried = front.invoke(
                "CreatePublicIP", {"region": "us-east"}, api_key=key
            )
            assert retried.success
            ok, mismatches = front.verify_linearizable()
            assert ok, mismatches
            stats = front.mvcc_stats()
            assert stats["shards"] == 2
            assert stats["restarts"] == 1

    def test_admitted_len_matches_records_after_restart(self, tmp_path):
        """``len(front.admitted)`` sums the shards' counts instead of
        shipping every record; it still equals the record count after
        a worker dies mid-append and restarts."""
        module = toy_module()
        shard = shard_for("alice", 2)
        with ShardedFrontDoor(
            module, lambda: Emulator(module), shards=2,
            data_dir=tmp_path,
            kill_schedules={shard: [{"mid-serve-wal-append": 3}]},
        ) as front:
            codes = []
            for __ in range(6):
                for key in ("alice", "bob"):
                    response = front.invoke(
                        "CreatePublicIP", {"region": "us-east"},
                        api_key=key,
                    )
                    codes.append(response.error_code)
                    if response.error_code == "ServiceUnavailable":
                        assert wait_until(
                            lambda: front.supervisor.alive(shard)
                            and front.supervisor.generation(shard) == 1
                        )
            assert "ServiceUnavailable" in codes
            assert front.supervisor.restarts == 1
            records = front.admitted.records
            # 12 attempts, the torn one was never admitted.
            assert len(records) == 11
            assert len(front.admitted) == len(records)

    def test_json_envelope_carries_retry_hint(self, tmp_path):
        module = toy_module()
        with ShardedFrontDoor(
            module, lambda: Emulator(module), shards=1,
            data_dir=tmp_path, auto_restart=False,
        ) as front:
            front.supervisor.kill(0)
            envelope = front.dispatch({
                "Action": "CreatePublicIP",
                "Parameters": {"region": "us-east"},
            }, api_key="bob")
            error = envelope["Error"]
            assert error["Code"] == "ServiceUnavailable"
            assert error["ShardUnavailable"] is True
            assert error["RetryAfterSeconds"] > 0

    def test_rejects_netem_composition(self):
        """shard x region is a config gap, named as one: a typed
        ConfigError at construction (still a ValueError for old
        callers) whose message points at the roadmap item."""
        from repro.serve.frontdoor import ConfigError

        module = toy_module()
        with pytest.raises(ConfigError, match="netem") as excinfo:
            ShardedFrontDoor(
                module, lambda: Emulator(module), network=object()
            )
        assert isinstance(excinfo.value, ValueError)
        assert "ROADMAP" in str(excinfo.value)
        assert "shard x region" in str(excinfo.value)

    def test_loadgen_honors_failover_retry_after(self, tmp_path):
        """Killing the only shard mid-run makes well-behaved clients
        back off by the Retry-After hint; the report logs each wait."""
        module = toy_module()
        with ShardedFrontDoor(
            module, lambda: Emulator(module), shards=1,
            data_dir=tmp_path, retry_after=0.5,
        ) as front:
            generator = LoadGenerator(
                front, seed=3, workers=2, requests_per_worker=40,
                tenants=2,
            )
            killer = threading.Timer(
                0.2, lambda: front.supervisor.kill(0)
            )
            killer.start()
            try:
                report = generator.run(verify=True)
            finally:
                killer.cancel()
            if front.supervisor.restarts:
                assert report.linearizable, report.mismatches
            if report.failover_honored:
                assert report.failover_seconds > 0
                entry = report.failover_log[0]
                assert entry["shard"] == 0
                assert entry["hint"] == pytest.approx(0.5)


@pytest.fixture(scope="module")
def build():
    return build_learned_emulator("ec2", seed=7, align=False)


class TestReplyFidelity:
    """A worker encodes each reply's envelope under an empty request
    id and the parent splices the id in; every door surface must
    answer as an in-process door does."""

    @staticmethod
    def _traffic(front, send, requests: int = 150) -> list:
        """``send(front, api, params, tenant)`` for a seeded mix, as
        ``(reply, created id)`` pairs; returns the replies."""
        model = TrafficModel.of(front)
        rng = random.Random(41)
        ids = {f"tenant-{index}": {} for index in range(3)}
        out = []
        for __ in range(requests):
            tenant = rng.choice(sorted(ids))
            api, params, __ = model.request(rng, 0.5, ids[tenant])
            front.clock.sleep(0.01)
            reply, created = send(front, api, params, tenant)
            out.append(reply)
            if isinstance(created, str) and created:
                ids[tenant].setdefault(
                    model.owning_sm(api), []
                ).append(created)
        return out

    @staticmethod
    def _handle(front, api, params, tenant):
        reply = front.handle(
            json.dumps({"Action": api, "Parameters": params}),
            api_key=tenant,
        )
        return reply, json.loads(reply).get("id")

    @staticmethod
    def _dispatch(front, api, params, tenant):
        body = front.dispatch(
            {"Action": api, "Parameters": params}, api_key=tenant
        )
        return body, body.get("id")

    @staticmethod
    def _invoke(front, api, params, tenant):
        response = front.invoke(api, params, api_key=tenant)
        fields = (response.success, response.data, response.error_code,
                  response.error_message)
        return fields, response.data.get("id")

    def _compare(self, built, tmp_path, send, **door) -> list:
        local = self._traffic(
            FrontDoor(built.module, built.make_backend, **door), send
        )
        with ShardedFrontDoor(
            built.module, built.make_backend, shards=2,
            data_dir=tmp_path, **door,
        ) as front:
            sharded = self._traffic(front, send)
        assert sharded == local
        return local

    @pytest.mark.parametrize("service", ["ec2", "dynamodb", "s3"])
    def test_sharded_envelopes_match_in_process(self, service, tmp_path):
        built = build_learned_emulator(service, seed=7, align=False)
        local = self._compare(built, tmp_path, self._handle)
        assert sum('"Error"' not in reply for reply in local) > 20

    @pytest.mark.parametrize("surface", ["dispatch", "invoke"])
    def test_dispatch_and_invoke_match_in_process(self, build, surface,
                                                  tmp_path):
        local = self._compare(
            build, tmp_path, getattr(self, f"_{surface}")
        )
        assert len(local) == 150

    def test_parent_made_errors_match_in_process(self, build, tmp_path):
        """Throttle sheds carry ``RetryAfterSeconds`` in their error
        object and validation rejects never reach a worker; both come
        out of a sharded door as they do in process."""
        local = self._compare(
            build, tmp_path, self._handle, rate=20.0, burst=5.0
        )
        errors = [json.loads(reply).get("Error", {}) for reply in local]
        assert any("RetryAfterSeconds" in error for error in errors)
        rejected = {"Action": "CreateVpc", "Parameters": {"CidrBlock": 5}}
        local_door = FrontDoor(build.module, build.make_backend)
        with ShardedFrontDoor(
            build.module, build.make_backend, shards=2,
            data_dir=tmp_path / "reject",
        ) as front:
            reply = front.handle(json.dumps(rejected))
        assert reply == local_door.handle(json.dumps(rejected))
        assert json.loads(reply)["Error"]["Code"] == "ValidationError"

    def test_shard_unavailable_envelope(self, build, tmp_path):
        """The parent's own shed for a dead shard takes the tenant's
        next request id and carries its marker in the error object."""
        create = json.dumps({
            "Action": "CreateVpc",
            "Parameters": {"CidrBlock": "10.0.0.0/16"},
        })
        local = FrontDoor(build.module, build.make_backend)
        want_ids = [
            json.loads(local.handle(create))["ResponseMetadata"]
            for __ in range(2)
        ]
        with ShardedFrontDoor(
            build.module, build.make_backend, shards=1,
            data_dir=tmp_path, auto_restart=False,
        ) as front:
            first = json.loads(front.handle(create))
            front.supervisor.kill(0)
            reply = front.handle(create)
        assert first["ResponseMetadata"] == want_ids[0]
        body = json.loads(reply)
        assert json.dumps(body) == reply
        assert body["ResponseMetadata"] == want_ids[1]
        assert body["Error"] == {
            "Code": "ServiceUnavailable",
            "Message": "shard 0 is restarting; retry in 0.25s",
            "RetryAfterSeconds": 0.25,
            "ShardUnavailable": True,
            "Shard": 0,
        }

    @pytest.mark.parametrize("response", [
        ApiResponse(True, {"ResponseMetadata": {"HTTPStatusCode": 200},
                           "VpcId": "vpc-1"}),
        ApiResponse(True, {"Vpcs": [{"VpcId": "vpc-1", "Tags": []}]}),
        ApiResponse(True, {}),
        ApiResponse(False, {"RetryAfterSeconds": 0.5}, "Throttled", "m"),
        ApiResponse(False, {}, "InvalidVpcID.NotFound", "no vpc"),
    ])
    def test_worker_encoded_reply_matches_in_process(self, response,
                                                     tmp_path):
        """The worker's reply for ``response`` decodes, splices and
        reads back as the in-process endpoint's, including data with a
        top-level ``ResponseMetadata`` key, which keeps its own value
        there in place of the request id."""

        class Backend:
            def __init__(self, make):
                self.make = make

            def invoke(self, api, params):
                return self.make()

        class Worker:
            def invoke(self, tenant, api, params):
                return response

        def from_worker():
            reply = _serve(Worker(), {
                "id": 1, "op": "invoke", "tenant": "t", "api": "X",
                "params": {},
            })
            return EncodedResponse(
                reply["text"], reply["success"], reply["error_code"],
                reply["error_message"],
            )

        local = JsonEndpoint(Backend(lambda: response))
        sharded = JsonEndpoint(Backend(from_worker))
        request = json.dumps({"Action": "X"})
        assert sharded.handle(request) == local.handle(request)
        assert sharded.dispatch({"Action": "X"}) == (
            local.dispatch({"Action": "X"})
        )
        decoded = from_worker()
        assert (decoded.success, decoded.data, decoded.error_code,
                decoded.error_message) == (
            response.success, response.data, response.error_code,
            response.error_message,
        )


class TestShardScenario:
    def test_shard_worker_failover_drill(self, build, tmp_path):
        from repro.scenarios import shard_worker_failover

        result = shard_worker_failover(build, data_dir=tmp_path)
        assert result["ok"], result
        assert result["phases"]["failover"]["write_code"] == (
            "ServiceUnavailable"
        )
        assert result["phases"]["recovered"]["byte_identical"]
        assert result["restarts"] == 1
        assert result["linearizable"]


class TestShardedSoak:
    def test_hostile_soak_all_kill_sites(self, build, tmp_path):
        """The acceptance soak: 2000 requests over 4 shards while a
        seeded schedule kills workers at every serve-layer site —
        mid-transition-commit, mid-publish and mid-serve-wal-append.
        Gates: extended linearizability over the merged attempt logs,
        byte-identical recovery on every restart, and failover waits
        actually honored by the load."""
        shards = 4
        tenants = 8
        # Aim each site at a shard that will actually see traffic.
        trafficked = []
        for index in range(tenants):
            shard = shard_for(f"tenant-{index}", shards)
            if shard not in trafficked:
                trafficked.append(shard)
        assert len(trafficked) >= 3, "placement regressed"
        schedules = {
            trafficked[0]: [{"mid-transition-commit": 10}],
            trafficked[1]: [{"mid-publish": 12}],
            trafficked[2]: [{"mid-serve-wal-append": 14}],
        }
        with ShardedFrontDoor(
            build.module, build.make_backend, shards=shards,
            data_dir=tmp_path, kill_schedules=schedules,
            snapshot_interval=8, retry_after=0.25,
        ) as front:
            generator = LoadGenerator(
                front, seed=23, workers=8, requests_per_worker=250,
                tenants=tenants,
            )
            report = generator.run(verify=True)
            supervisor = front.supervisor

            assert report.requests == 2000
            assert report.linearizable is True, report.mismatches
            # Every scheduled kill fired and was repaired.
            assert supervisor.restarts >= 3
            killed = {e["shard"] for e in supervisor.restart_log}
            assert set(schedules) <= killed
            # Every recovery (every generation) passed byte-identity.
            assert supervisor.recovery_failures == []
            for reports in supervisor.recovery_reports().values():
                assert all(r["identical"] for r in reports)
            # Clients saw the failover and backed off by the hint.
            assert report.failover_honored > 0
            assert report.failover_seconds > 0
            # Surviving shards kept serving: every shard with traffic
            # admitted writes despite the kills.
            admitted = {
                s["shard"]: s["admitted"]
                for s in supervisor.shard_stats()
            }
            for shard in trafficked:
                assert admitted.get(shard, 0) > 0
            # Every killed shard's *current* generation served
            # requests: restarted workers are back in service, not
            # only counted through the records they recovered.
            served = {
                s["shard"]: s["requests"]
                for s in supervisor.shard_stats()
            }
            for shard in schedules:
                assert served.get(shard, 0) > 0, served
            merged = front.mvcc_stats()
            assert merged["publishes"] > 0
            assert merged["pinned_reads"] > 0
