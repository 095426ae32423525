"""Tests for the durability layer: atomic writes, the CRC-framed build
journal, kill-point chaos, crash/resume byte-identity, and emulator
snapshot/restore with recovery from the on-disk write-attempt log."""

import json
import shutil

import pytest

from repro.core.builder import build_learned_emulator
from repro.core.store import load_module, save_build, StoreError
from repro.durability import (
    atomic_write,
    BuildJournal,
    crash_resume_build,
    dir_digest,
    DurabilityError,
    DurabilityStats,
    JOURNAL_NAME,
    read_snapshot,
    registry_diff,
    registry_dump,
    restore_registry,
    scan_records,
    snapshot_registry,
    write_snapshot,
)
from repro.durability.journal import decode_line, encode_record
from repro.durability.snapshot import decode_value, encode_value
from repro.interpreter import Emulator
from repro.serve import AdmittedLog, ConcurrentEmulator
from repro.serve.concurrency import canonical_snapshot
from repro.resilience.killswitch import (
    clear_kill_switch,
    install_kill_switch,
    KILL_SITES,
    kill_point,
    KillSwitch,
    SimulatedCrash,
)
from repro.spec import parse_module
from repro.telemetry import RunReport

from .test_interpreter import PUBLIC_IP_MODULE


@pytest.fixture(autouse=True)
def _no_leftover_kill_switch():
    clear_kill_switch()
    yield
    clear_kill_switch()


# ---------------------------------------------------------------------------
# Record framing + torn-tail tolerance
# ---------------------------------------------------------------------------

class TestFraming:
    def test_encode_decode_round_trip(self):
        record = {"type": "resource", "name": "table", "attempts": 2}
        assert decode_line(encode_record(record).rstrip(b"\n")) == record

    def test_flipped_bit_is_rejected(self):
        line = encode_record({"type": "round", "index": 0})
        broken = line.replace(b'"index": 0', b'"index": 1')
        assert decode_line(broken.rstrip(b"\n")) is None

    def test_scan_stops_at_torn_tail(self, tmp_path):
        path = tmp_path / "j"
        whole = encode_record({"type": "a"}) + encode_record({"type": "b"})
        torn = encode_record({"type": "c"})
        path.write_bytes(whole + torn[: len(torn) // 2])
        scan = scan_records(path)
        assert [r["type"] for r in scan.records] == ["a", "b"]
        assert scan.valid_bytes == len(whole)
        assert scan.dropped == 1

    def test_scan_drops_everything_after_corruption(self, tmp_path):
        path = tmp_path / "j"
        lines = [encode_record({"type": "r", "i": i}) for i in range(4)]
        lines[1] = lines[1][:10] + b"X" + lines[1][11:]
        path.write_bytes(b"".join(lines))
        scan = scan_records(path)
        assert [r["i"] for r in scan.records] == [0]
        assert scan.dropped == 3

    def test_resume_truncates_torn_tail_and_continues(self, tmp_path):
        journal = BuildJournal(tmp_path)
        journal.start({"service": "s3"})
        journal.append("resource", name="bucket")
        journal.close()
        with (tmp_path / JOURNAL_NAME).open("ab") as handle:
            handle.write(b'{"crc": 1, "record"')  # torn mid-append

        resumed = BuildJournal(tmp_path)
        records = resumed.resume({"service": "s3"})
        assert [r["type"] for r in records] == ["resource"]
        assert resumed.stats.torn_records_dropped == 1
        assert resumed.stats.resumes == 1
        resumed.append("resource", name="object")
        resumed.close()
        scan = scan_records(tmp_path / JOURNAL_NAME)
        assert scan.dropped == 0
        assert [r.get("name") for r in scan.records[1:]] == [
            "bucket", "object",
        ]


class TestBuildJournal:
    def test_fingerprint_mismatch_refuses_resume(self, tmp_path):
        journal = BuildJournal(tmp_path)
        journal.start({"service": "ec2", "seed": 7})
        journal.close()
        with pytest.raises(DurabilityError, match="fingerprint mismatch"):
            BuildJournal(tmp_path).resume({"service": "ec2", "seed": 8})

    def test_non_journal_file_is_rejected(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        path.write_bytes(encode_record({"type": "resource", "name": "x"}))
        with pytest.raises(DurabilityError, match="meta record"):
            BuildJournal(tmp_path).resume({"service": "ec2"})

    def test_future_format_version_is_rejected(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        path.write_bytes(
            encode_record({"type": "meta", "format_version": 999})
        )
        with pytest.raises(DurabilityError, match="format"):
            BuildJournal(tmp_path).resume({})

    def test_empty_journal_resumes_as_fresh_start(self, tmp_path):
        journal = BuildJournal(tmp_path)
        assert journal.resume({"service": "s3"}) == []
        assert journal.of_type("meta")[0]["service"] == "s3"
        journal.close()

    def test_round_records_must_be_contiguous(self, tmp_path):
        journal = BuildJournal(tmp_path)
        journal.start({})
        journal.append("round", index=0)
        journal.append("round", index=2)
        with pytest.raises(DurabilityError, match="contiguous"):
            journal.round_records()
        journal.close()


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "artifact.json"
        atomic_write(target, "old")
        atomic_write(target, "new")
        assert target.read_text() == "new"
        assert list(tmp_path.iterdir()) == [target]  # no tmp debris


# ---------------------------------------------------------------------------
# Kill-point chaos
# ---------------------------------------------------------------------------

class TestKillSwitch:
    def test_fires_at_scheduled_hit_then_never_again(self):
        stats = DurabilityStats()
        switch = KillSwitch({"mid-journal-append": 2}, stats=(stats,))
        switch.check("mid-journal-append")
        with pytest.raises(SimulatedCrash) as exc:
            switch.check("mid-journal-append")
        assert exc.value.site == "mid-journal-append"
        assert exc.value.hit == 2
        assert stats.crashes_injected == 1
        # A dead process makes no further checks; post-fire checks on a
        # cleanup path must pass through instead of re-raising.
        switch.check("mid-journal-append")
        assert stats.crashes_injected == 1

    def test_unknown_site_is_rejected(self):
        with pytest.raises(ValueError, match="unknown kill site"):
            KillSwitch({"not-a-site": 1})

    def test_kill_point_is_free_when_unarmed(self):
        for site in KILL_SITES:
            kill_point(site)  # no switch installed: must not raise

    def test_install_and_clear(self):
        install_kill_switch({"post-extraction-of-resource": 1})
        with pytest.raises(SimulatedCrash):
            kill_point("post-extraction-of-resource")
        clear_kill_switch()
        kill_point("post-extraction-of-resource")

    def test_simulated_crash_evades_except_exception(self):
        # The whole point: retry layers and quarantine catch Exception
        # subclasses, and none of them may absorb a process death.
        assert not issubclass(SimulatedCrash, Exception)

    def test_torn_write_on_mid_append_crash(self, tmp_path):
        journal = BuildJournal(tmp_path)
        journal.start({"service": "s3"})
        install_kill_switch({"mid-journal-append": 1})
        with pytest.raises(SimulatedCrash):
            journal.append("resource", name="bucket")
        clear_kill_switch()
        journal.close()
        scan = scan_records(tmp_path / JOURNAL_NAME)
        assert [r["type"] for r in scan.records] == ["meta"]
        assert scan.dropped == 1  # the half line the crash left behind


# ---------------------------------------------------------------------------
# Crash → resume → byte-identical builds
# ---------------------------------------------------------------------------

def _journaled_build(service, profile, journal_dir, out_dir, resume):
    if out_dir.exists():
        shutil.rmtree(out_dir)
    build = build_learned_emulator(
        service, chaos=profile, journal=journal_dir, resume=resume
    )
    save_build(build, out_dir)
    return build


@pytest.fixture(scope="module")
def control_digests(tmp_path_factory):
    """Digest of an uninterrupted journaled build, per chaos profile."""
    root = tmp_path_factory.mktemp("control")
    digests = {}
    for profile in ("mild", "hostile"):
        out = root / f"out-{profile}"
        _journaled_build("ec2", profile, root / f"j-{profile}", out, False)
        digests[profile] = dir_digest(out)
    return digests


#: Per-site fatal hit counts chosen so the crash lands mid-build with
#: completed work already journaled (a crash before anything durable
#: exists exercises nothing interesting).
SITE_HITS = {
    "post-extraction-of-resource": 5,
    "mid-alignment-round": 2,
    "mid-transition-commit": 7,
    "mid-journal-append": 5,
}

#: The sites reachable from the build path.  The serve-layer sites
#: (``mid-publish``, ``mid-serve-wal-append``) never fire during a
#: build — their crash/recovery coverage lives in the shard worker
#: tests (tests/test_shard.py).
BUILD_SITES = tuple(SITE_HITS)


class TestCrashResume:
    @pytest.mark.parametrize("site", BUILD_SITES)
    @pytest.mark.parametrize("profile", ["mild", "hostile"])
    def test_resumed_build_is_byte_identical(
        self, site, profile, control_digests, tmp_path
    ):
        out = tmp_path / "out"
        run = crash_resume_build(
            lambda resume: _journaled_build(
                "ec2", profile, tmp_path / "journal", out, resume
            ),
            [{site: SITE_HITS[site]}],
        )
        assert run.crashes == [(site, SITE_HITS[site])]
        assert run.attempts == 2
        assert dir_digest(out) == control_digests[profile]
        assert run.build.durability.resumes == 1
        assert run.build.durability.journal_replays > 0

    @pytest.mark.parametrize("profile", ["mild", "hostile"])
    def test_repeated_crashes_still_converge(
        self, profile, control_digests, tmp_path
    ):
        out = tmp_path / "out"
        schedules = [
            {"post-extraction-of-resource": 3},
            {"mid-journal-append": 1},
            {"mid-alignment-round": 1},
            {"mid-transition-commit": 4},
        ]
        run = crash_resume_build(
            lambda resume: _journaled_build(
                "ec2", profile, tmp_path / "journal", out, resume
            ),
            list(schedules),
        )
        assert run.stats.crashes_injected >= 3
        assert dir_digest(out) == control_digests[profile]

    def test_llm_accounting_survives_resume(self, tmp_path):
        reference = build_learned_emulator(
            "ec2", chaos="hostile", journal=tmp_path / "jref"
        )
        run = crash_resume_build(
            lambda resume: build_learned_emulator(
                "ec2", chaos="hostile", journal=tmp_path / "journal",
                resume=resume,
            ),
            [{"post-extraction-of-resource": 5}],
        )
        assert run.build.llm.usage.as_dict() == reference.llm.usage.as_dict()

    def test_harness_gives_up_past_max_attempts(self, tmp_path):
        def always_crashing(resume):
            install_kill_switch({"mid-journal-append": 1})
            kill_point("mid-journal-append")

        with pytest.raises(RuntimeError, match="did not converge"):
            crash_resume_build(always_crashing, [], max_attempts=3)

    def test_resumed_module_reloads_and_serves(self, tmp_path):
        out = tmp_path / "out"
        crash_resume_build(
            lambda resume: _journaled_build(
                "dynamodb", "mild", tmp_path / "journal", out, resume
            ),
            [{"post-extraction-of-resource": 2}],
        )
        saved = load_module(out)
        assert saved.manifest["aligned"] is True
        assert saved.make_backend().invoke(
            "CreateTable", {"table_name": "t", "billing_mode": "PROVISIONED"}
        ).success


# ---------------------------------------------------------------------------
# Emulator snapshot / restore / write-ahead log
# ---------------------------------------------------------------------------

def toy_emulator(**kwargs):
    module = parse_module(PUBLIC_IP_MODULE, service="toy")
    return module, Emulator(module, **kwargs)


def drive(emulator):
    """A short mutating workload over the toy module."""
    ip = emulator.invoke("CreatePublicIP", {"region": "us-east"})
    nic = emulator.invoke("CreateNIC", {"zone": "us-east"})
    emulator.invoke(
        "AssociateNIC",
        {"public_ip_id": ip.data["id"], "nic_ref": nic.data["id"]},
    )
    return ip.data["id"], nic.data["id"]


class TestValueCodec:
    @pytest.mark.parametrize("value", [
        None, True, 3, 2.5, "text", [1, 2], {"k": "v"},
        (1, "two"), {3, 1, 2}, {("a", 1): "composite-key"},
        {"$repro": "looks-tagged"}, [{"deep": [(1,), {2}]}],
    ])
    def test_round_trip(self, value):
        assert decode_value(json.loads(
            json.dumps(encode_value(value))
        )) == value

    def test_unsupported_type_is_loud(self):
        with pytest.raises(DurabilityError, match="cannot snapshot"):
            encode_value(object())


class TestSnapshotRestore:
    def test_restore_reproduces_registry_exactly(self, tmp_path):
        module, emulator = toy_emulator()
        drive(emulator)
        snapshot = snapshot_registry(emulator.registry)
        write_snapshot(tmp_path / "snap.json", snapshot)

        restored = restore_registry(
            read_snapshot(tmp_path / "snap.json"), module.machines
        )
        assert registry_diff(
            registry_dump(emulator.registry), registry_dump(restored)
        ) == []

    def test_diff_pinpoints_divergence(self):
        module, emulator = toy_emulator()
        drive(emulator)
        dump = registry_dump(emulator.registry)
        emulator.invoke("CreatePublicIP", {"region": "us-west"})
        divergences = registry_diff(dump, registry_dump(emulator.registry))
        assert divergences  # extra instance + counter drift
        assert any("public_ip" in line for line in divergences)

    def test_restore_refuses_unknown_machine(self):
        __, emulator = toy_emulator()
        drive(emulator)
        snapshot = snapshot_registry(emulator.registry)
        with pytest.raises(DurabilityError, match="does not define"):
            restore_registry(snapshot, {})

    def test_emulator_restore_continues_serving(self):
        module, emulator = toy_emulator()
        ip_id, nic_id = drive(emulator)
        snapshot = emulator.snapshot()

        __, fresh = toy_emulator()
        fresh.restore(snapshot)
        described = fresh.invoke("DescribeNIC", {"nic_id": nic_id})
        assert described.data["attached_ip"] == ip_id
        # New IDs continue from the snapshotted counters, not from 1.
        again = fresh.invoke("CreatePublicIP", {"region": "us-west"})
        assert again.data["id"] == "public_ip-00000002"


def logged(path):
    """A toy emulator serving through an on-disk write-attempt log."""
    module = parse_module(PUBLIC_IP_MODULE, service="toy")
    log = AdmittedLog(path)
    return log, ConcurrentEmulator(Emulator(module), log=log)


class TestMutationLog:
    """Recovery from the on-disk write-attempt log: a snapshot plus a
    replay of the attempts past its cursor gives the pre-crash state."""

    def test_recover_replays_to_pre_crash_state(self, tmp_path):
        path = tmp_path / "attempts.log"
        log, emulator = logged(path)
        snapshot = emulator.snapshot()  # checkpoint before any traffic
        drive(emulator)
        expected = registry_dump(emulator.registry)
        log.close()

        # "Reboot": fresh process, same log file, old snapshot.
        __, revived = logged(path)
        assert revived.recover(snapshot) == 3
        assert registry_diff(expected, registry_dump(revived.registry)) == []

    def test_snapshot_seq_skips_already_covered_mutations(self, tmp_path):
        path = tmp_path / "attempts.log"
        log, emulator = logged(path)
        drive(emulator)
        snapshot = emulator.snapshot()  # taken *after* the traffic
        assert snapshot["wal_seq"] == 3
        emulator.invoke("CreatePublicIP", {"region": "us-west"})
        expected = registry_dump(emulator.registry)
        log.close()

        __, revived = logged(path)
        assert revived.recover(snapshot) == 1  # only the post-snapshot call
        assert registry_diff(expected, registry_dump(revived.registry)) == []

    def test_mid_transition_commit_crash_is_redone_from_wal(self, tmp_path):
        path = tmp_path / "attempts.log"
        log, emulator = logged(path)
        snapshot = emulator.snapshot()
        emulator.invoke("CreatePublicIP", {"region": "us-east"})
        install_kill_switch({"mid-transition-commit": 1})
        with pytest.raises(SimulatedCrash):
            emulator.invoke("CreateNIC", {"zone": "us-east"})
        clear_kill_switch()
        log.close()

        # The attempt was logged before dispatch, so recovery redoes
        # it: the revived emulator matches a run where the call landed.
        __, revived = logged(path)
        revived.recover(snapshot)
        __, control = toy_emulator()
        control.invoke("CreatePublicIP", {"region": "us-east"})
        control.invoke("CreateNIC", {"zone": "us-east"})
        assert registry_diff(
            registry_dump(control.registry), registry_dump(revived.registry)
        ) == []

    def test_reset_is_logged_and_replayed(self, tmp_path):
        path = tmp_path / "attempts.log"
        log, emulator = logged(path)
        snapshot = emulator.snapshot()
        drive(emulator)
        emulator.reset()
        emulator.invoke("CreatePublicIP", {"region": "us-west"})
        expected = registry_dump(emulator.registry)
        log.close()

        __, revived = logged(path)
        revived.recover(snapshot)
        assert registry_diff(expected, registry_dump(revived.registry)) == []

    def test_torn_wal_tail_is_dropped(self, tmp_path):
        path = tmp_path / "attempts.log"
        log, emulator = logged(path)
        drive(emulator)
        log.close()
        data = path.read_bytes()
        path.write_bytes(data[:-7])  # tear the last record

        reopened = AdmittedLog(path)
        assert len(reopened) == 2
        assert reopened.dropped == 1
        reopened.close()

    def test_failed_create_keeps_its_id_across_recovery(self, tmp_path):
        """A failed create burns an ID, so it must replay too: the
        subnet the client was told about survives recovery under the
        same ID, and the allocator does not hand that ID out again."""
        build = build_learned_emulator("ec2", seed=7, align=False)
        path = tmp_path / "attempts.log"
        log = AdmittedLog(path)
        emulator = ConcurrentEmulator(build.make_backend(), log=log)
        snapshot = emulator.snapshot()
        vpc = emulator.invoke("CreateVpc", {"CidrBlock": "10.0.0.0/16"})
        vpc_id = vpc.data["id"]
        failed = emulator.invoke(
            "CreateSubnet", {"VpcId": vpc_id, "CidrBlock": "10.0.0.0/29"}
        )
        assert failed.error_code == "InvalidSubnet.Range"
        created = emulator.invoke(
            "CreateSubnet", {"VpcId": vpc_id, "CidrBlock": "10.0.1.0/24"}
        )
        assert created.data["id"] == "subnet-00000002"
        log.close()

        reopened = AdmittedLog(path)
        revived = ConcurrentEmulator(build.make_backend(), log=reopened)
        assert revived.recover(snapshot) == 3
        assert canonical_snapshot(revived.snapshot()) == (
            canonical_snapshot(emulator.snapshot())
        )
        described = revived.invoke(
            "DescribeSubnets", {"SubnetId": "subnet-00000002"}
        )
        assert described.success, described.error_code
        following = revived.invoke(
            "CreateSubnet", {"VpcId": vpc_id, "CidrBlock": "10.0.2.0/24"}
        )
        assert following.data["id"] == "subnet-00000003"
        reopened.close()


# ---------------------------------------------------------------------------
# Serve-layer kill sites (MVCC publish + shard WAL append)
# ---------------------------------------------------------------------------

class TestServeLayerKillSites:
    """The sharded-serving kill sites compose with the durability
    chaos machinery: a crash mid-publish commits but never publishes,
    a crash mid-transition-commit under MVCC leaves the published view
    clean, and the serve WAL's append site tears independently of the
    build journal's."""

    def test_serve_sites_are_registered(self):
        assert "mid-publish" in KILL_SITES
        assert "mid-serve-wal-append" in KILL_SITES

    def _concurrent(self):
        module = parse_module(PUBLIC_IP_MODULE, service="toy")
        inner = Emulator(module)
        return inner, ConcurrentEmulator(inner, tenant="t", log=None)

    def test_mid_publish_crash_commits_but_never_publishes(self):
        inner, concurrent = self._concurrent()
        concurrent.invoke("CreatePublicIP", {"region": "us-east"})
        published = concurrent.snapshot()
        install_kill_switch({"mid-publish": 1})
        with pytest.raises(SimulatedCrash):
            concurrent.invoke("CreateNIC", {"zone": "us-east"})
        clear_kill_switch()
        # The write reached the live registry (commit happened)...
        assert registry_diff(
            published, registry_dump(inner.registry)
        ) != []
        # ...but readers still see the last published version: the
        # crash fired before the new version entered the chain.
        assert registry_diff(published, concurrent.snapshot()) == []

    def test_mid_transition_commit_under_mvcc_publish(self):
        inner, concurrent = self._concurrent()
        concurrent.invoke("CreatePublicIP", {"region": "us-east"})
        published = concurrent.snapshot()
        install_kill_switch({"mid-transition-commit": 1})
        with pytest.raises(SimulatedCrash):
            concurrent.invoke("CreateNIC", {"zone": "us-east"})
        clear_kill_switch()
        # Nothing committed, nothing published: both views unchanged.
        assert registry_diff(published, concurrent.snapshot()) == []
        # The wrapper recovers: the next write commits and publishes.
        response = concurrent.invoke("CreateNIC", {"zone": "us-east"})
        assert response.success
        assert registry_diff(published, concurrent.snapshot()) != []

    def test_serve_wal_append_site_tears_independently(self, tmp_path):
        from repro.durability.journal import JournalWriter

        serve_log = JournalWriter(
            tmp_path / "serve.wal", fsync=False,
            kill_site="mid-serve-wal-append",
        )
        build_log = JournalWriter(tmp_path / "build.wal", fsync=False)
        install_kill_switch({"mid-serve-wal-append": 1})
        # The build-journal site does not fire on a serve schedule.
        build_log.append({"seq": 1})
        with pytest.raises(SimulatedCrash):
            serve_log.append({"seq": 1})
        clear_kill_switch()
        serve_log.close()
        build_log.close()
        # The serve log holds a torn half-line the scan drops; the
        # build log's record survived intact.
        torn = scan_records(tmp_path / "serve.wal")
        assert torn.records == [] and torn.dropped == 1
        clean = scan_records(tmp_path / "build.wal")
        assert clean.records == [{"seq": 1}] and clean.dropped == 0


# ---------------------------------------------------------------------------
# Store hardening + report surface
# ---------------------------------------------------------------------------

class TestStoreValidation:
    def test_bad_machines_field(self, tmp_path):
        build = build_learned_emulator("s3", align=False)
        save_build(build, tmp_path)
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["machines"] = {"not": "a list"}
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match="machines"):
            load_module(tmp_path)

    def test_bad_notfound_codes_field(self, tmp_path):
        build = build_learned_emulator("s3", align=False)
        save_build(build, tmp_path)
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["notfound_codes"] = {"bucket": 404}
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match="notfound_codes"):
            load_module(tmp_path)

    def test_corrupt_spec_file(self, tmp_path):
        build = build_learned_emulator("s3", align=False)
        save_build(build, tmp_path)
        spec = next((tmp_path / "specs").glob("*.sm"))
        spec.write_text(spec.read_text()[: len(spec.read_text()) // 2])
        with pytest.raises(StoreError, match="corrupt spec"):
            load_module(tmp_path)


class TestReportSurface:
    def test_unjournaled_report_has_no_durability_block(self):
        build = build_learned_emulator("s3", align=False)
        report = RunReport.from_build(build)
        assert report.durability is None
        assert "durability" not in report.to_dict()

    def test_journaled_report_carries_counters(self, tmp_path):
        run = crash_resume_build(
            lambda resume: build_learned_emulator(
                "s3", journal=tmp_path, resume=resume
            ),
            [{"post-extraction-of-resource": 1}],
        )
        report = RunReport.from_build(run.build)
        counters = report.to_dict()["durability"]
        assert counters["resumes"] == 1
        assert counters["journal_replays"] > 0
        assert "durability:" in report.render_console()
