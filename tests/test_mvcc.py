"""MVCC serve path: version immutability, publication, reclamation
and the lock-free read contract."""

import json
import random
import sys
import threading
import time
from types import SimpleNamespace

import pytest

from repro.core import build_learned_emulator
from repro.durability.snapshot import version_dump
from repro.interpreter.machine import ReadOnlyView, Registry, Transaction
from repro.obs.tracectx import RequestContext
from repro.resilience.chaos import ChaosEngine, ChaosProxy, HOSTILE_PROFILE
from repro.serve import ConcurrentEmulator, FrontDoor, LoadGenerator
from repro.serve.deadline import CURRENT_REQUEST
from repro.serve.mvcc import ReaderSlots, VersionChain
from repro.telemetry.report import _serving_rows


@pytest.fixture(scope="module")
def build():
    return build_learned_emulator("ec2", seed=7, align=False)


def _canonical(dump: dict) -> str:
    return json.dumps(dump, sort_keys=True)


class TestRegistryVersions:
    def test_publish_caches_until_mutation(self, build):
        emulator = build.make_backend()
        first = emulator.publish_version()
        assert emulator.publish_version() is first
        assert emulator.invoke(
            "CreateVpc", {"CidrBlock": "10.0.0.0/16"}
        ).success
        second = emulator.publish_version()
        assert second is not first
        assert second.version == first.version + 1

    def test_pinned_version_is_byte_stable_under_writes(self, build):
        emulator = build.make_backend()
        emulator.invoke("CreateVpc", {"CidrBlock": "10.0.0.0/16"})
        pinned = emulator.publish_version()
        baseline = _canonical(version_dump(pinned))
        for index in range(25):
            emulator.invoke(
                "CreateVpc", {"CidrBlock": f"10.{index + 1}.0.0/16"}
            )
        assert _canonical(version_dump(pinned)) == baseline

    def test_versions_refuse_mutation(self, build):
        emulator = build.make_backend()
        version = emulator.publish_version()
        with pytest.raises(RuntimeError, match="immutable"):
            version.new_id("vpc")
        with pytest.raises(RuntimeError, match="immutable"):
            version.place("vpc-00000001", "us-east-1")

    def test_invoke_at_reads_the_pinned_past(self, build):
        emulator = build.make_backend()
        first = emulator.invoke(
            "CreateVpc", {"CidrBlock": "10.0.0.0/16"}
        ).data["id"]
        old = emulator.publish_version()
        live_then = emulator.invoke("DescribeVpcs", {"VpcId": first})
        second = emulator.invoke(
            "CreateVpc", {"CidrBlock": "10.1.0.0/16"}
        ).data["id"]
        # The pinned version still answers with the old world: the
        # first VPC describes fine, the second does not exist yet.
        at_old = emulator.invoke_at(old, "DescribeVpcs", {"VpcId": first})
        assert at_old.success
        assert at_old.data == live_then.data
        missing = emulator.invoke_at(
            old, "DescribeVpcs", {"VpcId": second}
        )
        assert not missing.success
        # ...while a fresh version sees both.
        fresh = emulator.publish_version()
        assert emulator.invoke_at(
            fresh, "DescribeVpcs", {"VpcId": second}
        ).success

    def test_version_numbers_survive_reset_and_restore(self, build):
        emulator = build.make_backend()
        emulator.invoke("CreateVpc", {"CidrBlock": "10.0.0.0/16"})
        before = emulator.publish_version()
        saved = emulator.snapshot()
        frozen = _canonical(version_dump(before))
        emulator.reset()
        after_reset = emulator.publish_version()
        assert after_reset.version > before.version
        emulator.restore(saved)
        after_restore = emulator.publish_version()
        assert after_restore.version > after_reset.version
        # Restore rebuilt the world without ever touching the old
        # pinned version...
        assert _canonical(version_dump(before)) == frozen
        # ...and the restored content matches it.
        assert _canonical(version_dump(after_restore)) == frozen

    def test_state_lists_are_never_mutated_in_place(self, build):
        """Lists are values: a write builds a new list (once, in the
        builtin that makes it) and never touches the one an earlier
        version holds."""
        emulator = build.make_backend()
        vpc = emulator.invoke(
            "CreateVpc", {"CidrBlock": "10.0.0.0/16"}
        ).data["id"]
        sg = emulator.invoke("CreateSecurityGroup", {
            "GroupName": "g", "Description": "d", "VpcId": vpc,
        }).data["id"]
        empty = emulator.publish_version()
        subnet = emulator.invoke("CreateSubnet", {
            "VpcId": vpc, "CidrBlock": "10.0.1.0/24",
        }).data["id"]
        assert emulator.invoke("AuthorizeSecurityGroupIngress", {
            "SecurityGroupId": sg, "Cidr": "172.16.0.0/24",
        }).success
        appended = emulator.publish_version()
        held = appended.get(vpc).state["subnet_cidrs"]
        rules = appended.get(sg).state["ingress_rules"]
        assert held == ["10.0.1.0/24"] and rules == ["172.16.0.0/24"]
        assert held is not empty.get(vpc).state["subnet_cidrs"]
        assert emulator.invoke("DeleteSubnet", {"SubnetId": subnet}).success
        assert emulator.invoke("RevokeSecurityGroupIngress", {
            "SecurityGroupId": sg, "Cidr": "172.16.0.0/24",
        }).success
        removed = emulator.publish_version()
        assert removed.get(vpc).state["subnet_cidrs"] == []
        assert removed.get(sg).state["ingress_rules"] == []
        # The earlier versions still hold their own lists, unchanged.
        assert appended.get(vpc).state["subnet_cidrs"] is held
        assert held == ["10.0.1.0/24"]
        assert appended.get(sg).state["ingress_rules"] is rules
        assert rules == ["172.16.0.0/24"]
        assert empty.get(vpc).state["subnet_cidrs"] == []
        assert empty.get(sg).state["ingress_rules"] == []


_SPEC = SimpleNamespace(name="vpc")


def _fill(registry: Registry, count: int) -> None:
    txn = Transaction(registry)
    for __ in range(count):
        txn.create(registry.create(_SPEC, {"n": -1}))
    txn.commit()


class TestInstanceMap:
    """The two-level copy-on-write map against a plain dict."""

    @staticmethod
    def _assert_matches(version, reference: dict, probes) -> None:
        instances = version.instances
        assert len(version) == len(instances) == len(reference)
        assert list(instances) == list(reference)
        assert [
            (key, instance.state) for key, instance in instances.items()
        ] == list(reference.items())
        assert [instance.id for instance in instances.values()] == list(
            reference
        )
        view, txn = ReadOnlyView(version), Transaction(version)
        for key in probes:
            want = reference.get(key)
            got = instances.get(key)
            assert (key in instances) == (key in reference)
            assert (None if got is None else got.state) == want
            assert view.instance(key) is got
            assert txn.instance(key) is got

    def test_matches_a_dict_across_compactions(self):
        rng = random.Random(17)
        registry = Registry()
        reference: dict[str, dict] = {}
        seen: list[str] = []
        pinned = []
        base, compactions = registry.instances.base, 0
        for step in range(1500):
            txn = Transaction(registry)
            for __ in range(rng.randint(1, 3)):
                roll = rng.random()
                live = list(reference)
                if not live or roll < 0.45:
                    instance = registry.create(_SPEC, {"n": step})
                    txn.create(instance)
                    reference[instance.id] = {"n": step}
                    seen.append(instance.id)
                elif roll < 0.8:
                    key = rng.choice(live)
                    txn.set_state(key, "n", step)
                    reference[key] = {**reference[key], "n": step}
                else:
                    key = rng.choice(live)
                    txn.mark_deleted(key)
                    del reference[key]
            txn.commit()
            version = registry.publish()
            if version.instances.base is not base:
                base, compactions = version.instances.base, compactions + 1
            self._assert_matches(
                version, reference, rng.sample(seen, min(len(seen), 20))
            )
            if step % 100 == 0:
                # Compaction drops tombstones: base holds live
                # instances only.
                assert None not in registry.instances.base.values()
                pinned.append((version, {
                    key: dict(state) for key, state in reference.items()
                }))
        # Several compactions ran, and every pinned version still reads
        # exactly as the dict did when it was published.
        assert compactions >= 5
        for version, frozen in pinned:
            self._assert_matches(version, frozen, seen)

    def test_publish_shares_base_after_a_one_instance_write(self):
        registry = Registry()
        _fill(registry, 5000)
        previous = registry.publish()
        ids = list(previous.instances)
        compacted = 0
        for step in range(400):
            txn = Transaction(registry)
            txn.set_state(ids[step], "n", step)
            txn.commit()
            version = registry.publish()
            if version.instances.delta:
                # O(change): the 5,000-instance base is shared, only
                # the small delta was copied.
                assert version.instances.base is previous.instances.base
                assert len(version.instances.delta) <= 2 * 5000 ** 0.5 + 1
            else:
                compacted += 1
            previous = version
        assert 1 <= compacted <= 3

    def test_pinned_versions_hold_still_under_concurrent_writes(self):
        """Readers list pinned versions while one writer commits,
        publishes and compacts under a tiny switch interval: a shared
        ``base`` or ``delta`` mutated after publish would tear a
        listing."""
        registry = Registry()
        _fill(registry, 2000)
        ids = list(registry.instances)
        latest = [registry.publish()]
        compactions = []
        torn = []
        listed = []
        stop = threading.Event()

        def writer():
            rng = random.Random(5)
            spare = None
            step = 0
            while not stop.is_set():
                txn = Transaction(registry)
                if step % 5 != 4:
                    txn.set_state(rng.choice(ids), "n", step)
                elif spare is None:
                    instance = registry.create(_SPEC, {"n": step})
                    txn.create(instance)
                    spare = instance.id
                else:
                    txn.mark_deleted(spare)
                    spare = None
                txn.commit()
                version = registry.publish()
                if version.instances.base is not latest[0].instances.base:
                    compactions.append(version.version)
                latest[0] = version
                step += 1

        def reader():
            while not stop.is_set():
                version = latest[0]
                first = [(key, instance.state)
                         for key, instance in version.instances.items()]
                time.sleep(0)
                again = [(key, instance.state)
                         for key, instance in version.instances.items()]
                if first != again or len(first) != len(version):
                    torn.append(version.version)
                listed.append(version.version)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [threading.Thread(target=writer, daemon=True)] + [
            threading.Thread(target=reader, daemon=True) for __ in range(5)
        ]
        try:
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 10
            while ((len(compactions) < 2 or len(set(listed)) < 20)
                   and time.monotonic() < deadline):
                time.sleep(0.01)
        finally:
            stop.set()
            for thread in threads:
                thread.join(10)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(compactions) >= 2, "the writer never compacted"
        assert len(set(listed)) >= 20
        assert not torn


class _FakeVersion:
    __slots__ = ("version",)

    def __init__(self, version):
        self.version = version


class TestVersionChain:
    def test_reclaims_only_below_the_pin_floor(self):
        slots = ReaderSlots()
        chain = VersionChain(_FakeVersion(1), slots)
        slot = slots.slot()
        pinned = chain.pin(slot)
        assert pinned.version == 1
        assert chain.publish(_FakeVersion(2)) == 0  # v1 still pinned
        assert chain.live == 2
        assert chain.publish(_FakeVersion(3)) == 0
        assert chain.live == 3
        slot.pinned = None
        assert chain.reclaim() == 2
        assert chain.live == 1
        assert chain.publishes == 3
        assert chain.reclaimed == 2

    def test_publish_same_version_is_a_noop(self):
        slots = ReaderSlots()
        first = _FakeVersion(1)
        chain = VersionChain(first, slots)
        chain.publish(first)
        assert chain.publishes == 1
        assert chain.live == 1

    def test_floor_is_the_oldest_pin_across_slots(self):
        from repro.serve.mvcc import _ReaderSlot

        slots = ReaderSlots()
        slot_a = slots.slot()
        # Simulate a second thread's slot.
        slot_b = _ReaderSlot()
        slots._slots.append(slot_b)
        slot_a.pinned = 5
        slot_b.pinned = 3
        assert slots.min_pinned() == 3
        slot_b.pinned = None
        assert slots.min_pinned() == 5
        slot_a.pinned = None
        assert slots.min_pinned() is None


class TestConcurrentEmulatorMvcc:
    def test_auto_detects_mvcc_and_reads_never_lock(self, build):
        emulator = ConcurrentEmulator(build.make_backend())
        created = emulator.invoke(
            "CreateVpc", {"CidrBlock": "10.0.0.0/16"}
        )
        assert created.success
        params = {"VpcId": created.data["id"]}
        for __ in range(20):
            assert emulator.invoke("DescribeVpcs", params).success
        stats = emulator.version_stats()
        assert stats["pinned_reads"] == 20
        assert stats["publishes"] >= 2

    def test_reads_never_wait_for_a_parked_writer(self, build):
        """A writer parked inside the writer mutex must not stall any
        read: every read pins a published version instead."""
        backend = build.make_backend()
        emulator = ConcurrentEmulator(backend)
        created = emulator.invoke(
            "CreateVpc", {"CidrBlock": "10.0.0.0/16"}
        )
        assert created.success
        params = {"VpcId": created.data["id"]}

        parked = threading.Event()
        release = threading.Event()
        real_invoke = backend.invoke

        def parking_invoke(api, params=None):
            parked.set()
            assert release.wait(30), "writer never released"
            return real_invoke(api, params)

        backend.invoke = parking_invoke
        writer = threading.Thread(
            target=emulator.invoke,
            args=("CreateVpc", {"CidrBlock": "10.1.0.0/16"}),
            daemon=True,
        )
        writer.start()
        try:
            assert parked.wait(10), "writer never reached the emulator"
            assert emulator._writer.locked()
            before = emulator.version_stats()["pinned_reads"]
            failures = []

            def reader():
                for __ in range(50):
                    response = emulator.invoke("DescribeVpcs", params)
                    if not response.success:
                        failures.append(response)

            readers = [threading.Thread(target=reader, daemon=True)
                       for __ in range(4)]
            for thread in readers:
                thread.start()
            for thread in readers:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in readers)
            assert failures == []
            stats = emulator.version_stats()
            assert stats["pinned_reads"] - before == 200
            assert emulator._writer.locked()
        finally:
            release.set()
            writer.join(timeout=30)
        assert not writer.is_alive()
        assert not emulator._writer.locked()

    def test_forcing_mvcc_without_the_surface_is_an_error(self):
        class _Opaque:
            def read_only(self, api):
                return True

        with pytest.raises(TypeError,
                           match="has no invoke_at, publish_version"):
            ConcurrentEmulator(_Opaque())

    def test_request_context_records_the_pinned_version(self, build):
        emulator = ConcurrentEmulator(build.make_backend())
        ctx = RequestContext("t-1", "default", "DescribeVpcs", 0.0)
        token = CURRENT_REQUEST.set(ctx)
        try:
            emulator.invoke("DescribeVpcs", {})
            read_version = ctx.registry_version
            assert read_version >= 1
            emulator.invoke("CreateVpc", {"CidrBlock": "10.0.0.0/16"})
            assert ctx.registry_version == read_version + 1
        finally:
            CURRENT_REQUEST.reset(token)

    def test_restore_publishes_never_mutates_pinned(self, build):
        emulator = ConcurrentEmulator(build.make_backend())
        emulator.invoke("CreateVpc", {"CidrBlock": "10.0.0.0/16"})
        saved = emulator.snapshot()
        slot = emulator._slots.slot()
        pinned = emulator._chain.pin(slot)
        frozen = _canonical(version_dump(pinned))
        emulator.invoke("CreateVpc", {"CidrBlock": "10.1.0.0/16"})
        emulator.restore(saved)
        # The pinned version never moved, restore came out as a new one.
        assert _canonical(version_dump(pinned)) == frozen
        assert emulator._chain.current.version > pinned.version
        restored = emulator.snapshot()
        assert _canonical(restored) == _canonical(saved)
        slot.pinned = None

    def test_snapshots_under_write_churn_restore_byte_identical(
            self, build):
        emulator = ConcurrentEmulator(build.make_backend())
        stop = threading.Event()
        started = threading.Event()
        failures = []

        def writer():
            # Create-then-delete churns a fixed-size registry, so the
            # snapshot/restore rounds cost the same however fast the
            # writer runs.
            while not stop.is_set():
                created = emulator.invoke(
                    "CreateVpc", {"CidrBlock": "10.0.0.0/16"}
                )
                deleted = emulator.invoke(
                    "DeleteVpc", {"VpcId": created.data["id"]}
                )
                if not deleted.success:
                    failures.append(deleted.error_code)
                    return
                started.set()

        churn = threading.Thread(target=writer, daemon=True)
        churn.start()
        snaps = []
        try:
            assert started.wait(30)
            for __ in range(30):
                snap = emulator.snapshot()
                snaps.append(snap)
                replica = build.make_backend()
                replica.restore(snap)
                if _canonical(replica.snapshot()) != _canonical(snap):
                    failures.append("restore diverged from snapshot")
        finally:
            stop.set()
            churn.join()
        assert not failures
        # Every create bumps the VPC id counter: the snapshots were
        # taken while the registry kept moving.
        assert (snaps[-1]["counters"]["vpc"]
                > snaps[0]["counters"]["vpc"])

    def test_recover_is_atomic_for_pinned_readers(self, build):
        emulator = ConcurrentEmulator(build.make_backend())
        emulator.invoke("CreateVpc", {"CidrBlock": "10.0.0.0/16"})
        saved = emulator.snapshot()
        slot = emulator._slots.slot()
        pinned = emulator._chain.pin(slot)
        frozen = _canonical(version_dump(pinned))
        emulator.invoke("CreateVpc", {"CidrBlock": "10.1.0.0/16"})
        replayed = emulator.recover(saved, records=[])
        assert replayed == 0
        assert _canonical(version_dump(pinned)) == frozen
        assert _canonical(emulator.snapshot()) == _canonical(saved)
        slot.pinned = None

    def test_drift_check_is_consistent_under_write_churn(self, build):
        emulator = ConcurrentEmulator(build.make_backend())
        created = emulator.invoke(
            "CreateVpc", {"CidrBlock": "10.0.0.0/16"}
        )
        vpc = created.data["id"]
        stop = threading.Event()

        def writer():
            index = 0
            while not stop.is_set():
                emulator.invoke(
                    "CreateSubnet",
                    {"VpcId": vpc,
                     "CidrBlock": f"10.0.{index % 250}.0/24"},
                )
                index += 1

        churn = threading.Thread(target=writer, daemon=True)
        churn.start()
        try:
            for __ in range(30):
                ok, detail = emulator.drift_check("DescribeVpcs", {})
                assert ok, detail
                ok, detail = emulator.drift_check(
                    "DescribeVpcs", {"VpcId": vpc}
                )
                assert ok, detail
        finally:
            stop.set()
            churn.join()
        assert emulator.version_stats()["pinned_reads"] >= 60

    def test_reclamation_bounds_live_versions(self, build):
        emulator = ConcurrentEmulator(build.make_backend())
        for index in range(40):
            emulator.invoke(
                "CreateVpc", {"CidrBlock": f"10.{index % 200}.0.0/16"}
            )
        stats = emulator.version_stats()
        # No readers pinned anything, so every superseded version was
        # reclaimed at the next publish.
        assert stats["versions_live"] == 1
        assert stats["reclaimed"] == stats["publishes"] - 1


class TestMvccSoak:
    def test_hostile_soak_with_background_snapshotters(self, build):
        """Chaos + concurrent snapshot/restore cycles while the load
        runs: linearizability and snapshot byte-identity must hold and
        the read path must stay lock-free."""
        engine = ChaosEngine(HOSTILE_PROFILE, seed=61)
        front = FrontDoor(
            build.module, build.make_backend,
            wrap=lambda backend: ChaosProxy(backend, engine),
            rate=1e9, burst=1e9, max_concurrent=64, queue_depth=256,
        )
        stop = threading.Event()
        snapshot_failures = []

        def snapshotter():
            while not stop.is_set():
                for tenant in front.router.tenants():
                    snap = tenant.emulator.snapshot()
                    # The serve layer's restore carries the snapshot's
                    # log cursor, so the round trip is byte-exact.
                    replica = ConcurrentEmulator(build.make_backend())
                    replica.restore(snap)
                    if (_canonical(replica.snapshot())
                            != _canonical(snap)):
                        snapshot_failures.append(tenant.name)
                time.sleep(0.001)

        shadow = threading.Thread(target=snapshotter, daemon=True)
        shadow.start()
        try:
            generator = LoadGenerator(
                front, seed=62, workers=8, requests_per_worker=125,
                read_ratio=0.6, tenants=2,
            )
            report = generator.run()
        finally:
            stop.set()
            shadow.join()
        assert report.linearizable, report.mismatches
        assert not snapshot_failures
        assert report.mvcc["tenants"] == 2
        assert report.mvcc["pinned_reads"] > 0
        assert report.mvcc["publishes"] > 0
        assert sum(engine.injected.values()) > 0


class TestReportRows:
    def test_version_counters_surface_in_serving_rows(self):
        rows = _serving_rows({
            "serve.requests": {"value": 10},
            "serve.version_publishes": {"value": 4},
            "serve.reclaimed": {"value": 3},
            "serve.versions_live": {"value": 1.0},
        })
        assert any(
            "4 version publish(es) (3 reclaimed, 1 live)" == row
            for row in rows
        )

    def test_rows_stay_silent_without_mvcc(self):
        rows = _serving_rows({"serve.requests": {"value": 10}})
        assert all("version" not in row for row in rows)
