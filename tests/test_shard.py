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
import threading
import time

import pytest

from repro.core import build_learned_emulator
from repro.interpreter import Emulator
from repro.resilience.chaos import (
    KILL_SITES,
    SimulatedCrash,
    clear_kill_switch,
    install_kill_switch,
)
from repro.serve import (
    FrontDoor,
    LoadGenerator,
    ShardedFrontDoor,
    ShardLog,
    ShardSupervisor,
    parse_kill_schedule,
    shard_for,
)
from repro.serve.frontdoor import canonical_snapshot
from repro.serve.loadgen import TrafficModel
from repro.serve.shard import (
    CRASH_EXIT_CODE,
    WORKER_KILL_SITES,
    ShardConfig,
    _ShardWorker,
)
from repro.spec import parse_module, serialize_module

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
    def test_roundtrip_and_reopen(self, tmp_path):
        log = ShardLog(tmp_path)
        assert log.append("a", "CreatePublicIP", {"region": "r"}) == 1
        assert log.append_reset("a") == 2
        assert log.append("b", "CreateNIC", {"zone": "z"}) == 3
        log.close()

        reopened = ShardLog(tmp_path)
        assert reopened.dropped == 0
        assert reopened.seq == 3
        kinds = [r["type"] for r in reopened.records]
        assert kinds == ["attempt", "reset", "attempt"]
        assert reopened.records[0]["tenant"] == "a"
        assert reopened.append("c", "CreateNIC", {"zone": "z"}) == 4
        reopened.close()

    def test_torn_append_dropped_on_reopen(self, tmp_path):
        log = ShardLog(tmp_path)
        log.append("t", "CreatePublicIP", {"region": "r"})
        install_kill_switch({"mid-serve-wal-append": 1})
        with pytest.raises(SimulatedCrash):
            log.append("t", "CreatePublicIP", {"region": "r"})
        clear_kill_switch()
        # The file really holds a torn half-line, not a clean tail.
        raw = (tmp_path / "shard.wal").read_bytes()
        assert not raw.endswith(b"\n")

        recovered = ShardLog(tmp_path)
        assert recovered.dropped == 1
        assert recovered.seq == 1
        assert len(recovered.records) == 1
        # The next append reuses the seq the torn attempt never earned.
        assert recovered.append("t", "CreatePublicIP", {"region": "r"}) == 2
        recovered.close()


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
            index=0, module_text=serialize_module(module),
            service=module.service, provider=module.provider,
            notfound_codes={}, data_dir=str(tmp_path),
            snapshot_interval=3, fsync=fsync,
        ))
        for __ in range(3):
            assert worker.invoke(
                "t", "CreatePublicIP", {"region": "us-east"}
            ).success
            worker.checkpoint()  # the serve loop's post-reply step
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
            index=0, module_text=serialize_module(module),
            service=module.service, provider=module.provider,
            notfound_codes={}, data_dir=str(tmp_path),
            snapshot_interval=1,
        )
        worker = _ShardWorker(config)
        params = {"region": "us-east"}
        assert worker.invoke("t", "CreatePublicIP", params).success
        worker.checkpoint()
        assert worker.invoke("t", "CreatePublicIP", params).success
        # The crash: the second write's checkpoint never runs.
        worker.log.close()
        on_disk = json.loads(worker._snapshot_path("t").read_text())
        assert on_disk["shard_seq"] == 1

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


class TestSupervisor:
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

    def test_kill_then_tick_restarts(self, tmp_path):
        with ShardSupervisor(
            toy_module(), shards=1, data_dir=tmp_path
        ) as supervisor:
            create_ip(supervisor, 0)
            supervisor.kill(0)
            assert not supervisor.alive(0)
            seen = supervisor.tick()
            assert seen["restarted"] == 1
            assert supervisor.generation(0) == 1
            assert supervisor.restarts == 1
            assert create_ip(supervisor, 0)["success"]
            assert len(supervisor.restart_log) == 1
            entry = supervisor.restart_log[0]
            assert entry["shard"] == 0 and entry["generation"] == 1
            assert entry["recovery_seconds"] > 0.0

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
    """Replies cross the shard pipe as pickles, not through the
    snapshot value codec; the wire must not tell the difference."""

    @staticmethod
    def _envelopes(front, requests: int = 150) -> list[str]:
        model = TrafficModel.of(front)
        rng = random.Random(41)
        ids = {f"tenant-{index}": {} for index in range(3)}
        out = []
        for __ in range(requests):
            tenant = rng.choice(sorted(ids))
            api, params, __ = model.request(rng, 0.5, ids[tenant])
            front.clock.sleep(0.01)
            reply = front.handle(
                json.dumps({"Action": api, "Parameters": params}),
                api_key=tenant,
            )
            out.append(reply)
            created = json.loads(reply).get("id")
            if isinstance(created, str) and created:
                ids[tenant].setdefault(
                    model.owning_sm(api), []
                ).append(created)
        return out

    @pytest.mark.parametrize("service", ["ec2", "dynamodb", "s3"])
    def test_sharded_envelopes_match_in_process(self, service, tmp_path):
        built = build_learned_emulator(service, seed=7, align=False)
        local = self._envelopes(
            FrontDoor(built.module, built.make_backend)
        )
        with ShardedFrontDoor(
            built.module, built.make_backend, shards=2,
            data_dir=tmp_path,
        ) as front:
            sharded = self._envelopes(front)
        assert sum('"Error"' not in reply for reply in local) > 20
        assert sharded == local


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
