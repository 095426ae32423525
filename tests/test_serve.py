"""Tests for the hardened concurrent serving layer (repro.serve)."""

import gc
import json

import pytest

from repro.core import build_learned_emulator
from repro.interpreter.emulator import Emulator
from repro.interpreter.endpoint import JsonEndpoint
from repro.obs import ObsPlane
from repro.resilience.chaos import ChaosEngine, ChaosProxy, HOSTILE_PROFILE
from repro.resilience.policy import VirtualClock
from repro.resilience.ratelimit import TokenBucket
from repro.serve import (
    AdmissionController,
    AdmittedLog,
    ConcurrentEmulator,
    EXPIRED_CODE,
    FrontDoor,
    LoadGenerator,
    OVERLOADED,
    ShardedFrontDoor,
    THROTTLED,
)
from repro.serve.admission import TenantMeter
from repro.serve.concurrency import RESET
from repro.telemetry import Telemetry


@pytest.fixture(scope="module")
def build():
    return build_learned_emulator("ec2", seed=7, align=False)


def make_front(build, **kwargs):
    return FrontDoor(build.module, build.make_backend, **kwargs)


#: The door's three entry points.
ENTRY_POINTS = ("handle", "dispatch", "invoke")


def send(front, entry, api, params, api_key="t"):
    """One request through one entry point: ``(error code or "",
    reply fields)``."""
    if entry == "invoke":
        response = front.invoke(api, params, api_key=api_key)
        return response.error_code, response.data
    envelope = {"Action": api, "Parameters": params}
    if entry == "handle":
        body = json.loads(front.handle(json.dumps(envelope),
                                       api_key=api_key))
    else:
        body = front.dispatch(envelope, api_key=api_key)
    return body.get("Error", {}).get("Code", ""), body


class TestTokenBucket:
    def test_burst_then_refill_on_virtual_clock(self):
        clock = VirtualClock()
        bucket = TokenBucket(rate=1.0, burst=2.0, clock=clock)
        assert bucket.try_take()
        assert bucket.try_take()
        assert not bucket.try_take()
        assert bucket.retry_after() == pytest.approx(1.0)
        clock.sleep(1.0)
        assert bucket.try_take()

    def test_burst_caps_refill(self):
        clock = VirtualClock()
        bucket = TokenBucket(rate=10.0, burst=3.0, clock=clock)
        clock.sleep(100.0)
        taken = sum(1 for __ in range(10) if bucket.try_take())
        assert taken == 3


class TestReadOnlyClassification:
    def test_creates_are_writes_describes_are_reads(self, build):
        emulator = build.make_backend()
        for api, (__, transition) in build.module.transition_index().items():
            if api.startswith("_"):
                continue
            if transition.category == "create":
                assert not emulator.read_only(api), api
            if transition.category == "describe" and not transition.params:
                assert emulator.read_only(api), api

    def test_unknown_api_classified_read(self, build):
        # It fails before touching state, so it rides the shared lock.
        assert build.make_backend().read_only("NoSuchApi")

    def test_concurrent_emulator_requires_classifier(self):
        with pytest.raises(TypeError, match="has no read_only"):
            ConcurrentEmulator(object())


class TestValidation:
    def test_type_invalid_parameter_rejected(self, build):
        front = make_front(build)
        response = front.invoke("CreateVpc", {"CidrBlock": 123})
        assert not response.success
        assert response.error_code == "ValidationError"
        assert "CidrBlock" in response.error_message or "cidr" in (
            response.error_message
        )

    def test_missing_subject_rejected_before_dispatch(self, build):
        front = make_front(build)
        response = front.invoke("DeleteVpc", {})
        assert not response.success
        assert response.error_code == "MissingParameter"
        # Nothing reached the emulator: the admitted log stays empty.
        assert len(front.admitted) == 0

    def test_unknown_parameters_tolerated(self, build):
        front = make_front(build)
        response = front.invoke(
            "CreateVpc",
            {"CidrBlock": "10.0.0.0/16", "TotallyUnknownKey": object()},
        )
        assert response.success

    def test_unknown_action_is_the_emulators_answer(self, build):
        front = make_front(build)
        body = front.dispatch({"Action": "NoSuchApi"})
        assert body["Error"]["Code"] == "InvalidAction"

    def test_validation_rejects_counted(self, build):
        telemetry = Telemetry(service="ec2")
        front = make_front(build, telemetry=telemetry)
        front.invoke("CreateVpc", {"CidrBlock": 123})
        snapshot = telemetry.metrics.snapshot()
        assert any(
            key.startswith("serve.validation_rejects") for key in snapshot
        )


class TestTenancy:
    def test_namespaces_are_isolated(self, build):
        front = make_front(build)
        created = front.invoke(
            "CreateVpc", {"CidrBlock": "10.0.0.0/16"}, api_key="alice"
        )
        assert created.success
        vpc = created.data["id"]
        stranger = front.invoke(
            "DeleteVpc", {"VpcId": vpc}, api_key="bob"
        )
        assert not stranger.success
        assert "NotFound" in stranger.error_code
        owner = front.invoke(
            "DeleteVpc", {"VpcId": vpc}, api_key="alice"
        )
        assert owner.success

    def test_require_key_rejects_anonymous(self, build):
        front = make_front(build, require_key=True)
        body = front.dispatch({"Action": "DescribeVpcs"})
        assert body["Error"]["Code"] == "MissingAuthenticationToken"

    def test_tenant_table_bound(self, build):
        front = make_front(build, max_tenants=2)
        params = {"CidrBlock": "10.0.0.0/16"}
        assert front.invoke("CreateVpc", params, api_key="t1").success
        assert front.invoke("CreateVpc", params, api_key="t2").success
        third = front.invoke("CreateVpc", params, api_key="t3")
        assert third.error_code == "UnrecognizedClientException"

    def test_per_tenant_request_id_streams_deterministic(self, build):
        first = make_front(build, seed=5)
        second = make_front(build, seed=5)
        body_a = first.dispatch({"Action": "DescribeVpcs"}, api_key="a")
        body_b = second.dispatch({"Action": "DescribeVpcs"}, api_key="a")
        assert body_a["ResponseMetadata"]["RequestId"] == (
            body_b["ResponseMetadata"]["RequestId"]
        )


class TestWireHandle:
    """``FrontDoor.handle`` is ``dispatch`` behind a JSON codec."""

    def test_expired_deadline_write_is_shed_not_executed(self, build):
        front = make_front(build)
        reply = json.loads(front.handle(json.dumps({
            "Action": "CreateVpc",
            "Parameters": {"CidrBlock": "10.0.0.0/16"},
            "DeadlineSeconds": -1.0,
        }), api_key="t"))
        assert reply["Error"]["Code"] == EXPIRED_CODE
        assert reply["Error"]["ExpiredBeforeDispatch"] is True
        assert len(front.admitted) == 0
        registry = front.router.get("t").emulator.snapshot()
        assert registry == build.make_backend().snapshot()

    def test_handle_opens_an_obs_root_span(self, build):
        telemetry = Telemetry(service="ec2")
        ObsPlane(telemetry, seed=3, sample_keep=1.0)
        front = make_front(build, telemetry=telemetry)
        reply = json.loads(front.handle(json.dumps({
            "Action": "CreateVpc",
            "Parameters": {"CidrBlock": "10.0.0.0/16"},
        }).encode("utf-8"), api_key="t"))
        assert "Error" not in reply
        roots = [span for span in telemetry.tracer.walk()
                 if span.name == "serve.request"]
        assert len(roots) == 1
        assert roots[0].attributes["api"] == "CreateVpc"

    @pytest.mark.parametrize("payload", [
        b"\xff\xfe{}", "{not json", json.dumps([1]), json.dumps({}),
        json.dumps({"Parameters": {}}),
        json.dumps({"Action": "X", "Parameters": "oops"}),
    ])
    def test_bad_envelopes_answer_serialization_exception(self, build,
                                                          payload):
        """``handle`` answers a bad payload, and ``dispatch`` the same
        envelope decoded, with ``SerializationException`` and no obs
        root span."""
        replies = []
        for entry in ("handle", "dispatch"):
            telemetry = Telemetry(service="ec2")
            ObsPlane(telemetry, seed=3, sample_keep=1.0)
            front = make_front(build, telemetry=telemetry)
            if entry == "handle":
                replies.append(json.loads(front.handle(payload, api_key="t")))
            else:
                try:
                    request = json.loads(payload)
                except ValueError:  # not JSON: only handle can see it
                    continue
                replies.append(front.dispatch(request, api_key="t"))
            assert not [span for span in telemetry.tracer.walk()
                        if span.name == "serve.request"]
        for reply in replies:
            assert reply["Error"]["Code"] == "SerializationException"
            assert reply["ResponseMetadata"]["RequestId"]
        if len(replies) == 2:
            assert replies[0] == replies[1]

class TestEntryPoints:
    """``handle``, ``dispatch`` and ``invoke`` run one pipeline, so a
    client cannot tell them apart except by the envelope."""

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_auth_rejects_are_counted(self, build, entry):
        telemetry = Telemetry(service="ec2")
        front = make_front(build, telemetry=telemetry, require_key=True)
        code, __ = send(front, entry, "DescribeVpcs", {}, api_key=None)
        assert code == "MissingAuthenticationToken"
        assert telemetry.metrics.counter(
            "serve.auth_rejects", code="MissingAuthenticationToken"
        ).value == 1

    def test_entry_points_open_the_same_spans(self, build):
        names = {}
        for entry in ENTRY_POINTS:
            telemetry = Telemetry(service="ec2")
            front = make_front(build, telemetry=telemetry)
            code, reply = send(front, entry, "CreateVpc",
                               {"CidrBlock": "10.0.0.0/16"})
            assert code == ""
            code, __ = send(front, entry, "DescribeVpcs",
                            {"VpcId": reply["id"]})
            assert code == ""
            names[entry] = {span.name for span in telemetry.tracer.walk()}
        assert names["handle"] == names["dispatch"] == names["invoke"]
        assert "endpoint.request" not in names["handle"]

class TestOncePerRequest:
    """Each per-request job on the serve path happens once."""

    def test_handle_resolves_the_tenant_once(self, build, monkeypatch):
        front = make_front(build)
        resolve = front.router.resolve
        calls = []

        def counting(api_key):
            calls.append(api_key)
            return resolve(api_key)

        monkeypatch.setattr(front.router, "resolve", counting)
        reply = json.loads(front.handle(json.dumps({
            "Action": "CreateVpc",
            "Parameters": {"CidrBlock": "10.0.0.0/16"},
        }), api_key="t"))
        assert "Error" not in reply
        assert calls == ["t"]
        front.dispatch({"Action": "DescribeVpcs",
                        "Parameters": {"VpcId": reply["id"]}}, api_key="t")
        assert calls == ["t", "t"]

    def test_classifies_once(self, build, monkeypatch, tmp_path):
        """One ``Emulator.read_only`` call per request in the door's
        process, in process and sharded (a shard worker classifies
        again in its own process, over its own compiled module)."""
        read_only = Emulator.read_only
        calls = []

        def counting(emulator, api):
            calls.append(api)
            return read_only(emulator, api)

        monkeypatch.setattr(Emulator, "read_only", counting)
        doors = (
            lambda: make_front(build),
            lambda: ShardedFrontDoor(build.module, build.make_backend,
                                     shards=2, data_dir=tmp_path),
        )
        for make in doors:
            front = make()
            try:
                for entry in ENTRY_POINTS:
                    del calls[:]
                    code, reply = send(front, entry, "CreateVpc",
                                       {"CidrBlock": "10.0.0.0/16"})
                    assert code == ""
                    assert calls == ["CreateVpc"]
                    code, __ = send(front, entry, "DescribeVpcs",
                                    {"VpcId": reply["id"]})
                    assert code == ""
                    assert calls == ["CreateVpc", "DescribeVpcs"]
            finally:
                close = getattr(front, "close", None)
                if close is not None:
                    close()

    def test_handle_parses_the_envelope_once(self, build, monkeypatch):
        front = make_front(build)
        parse = JsonEndpoint.parse
        calls = []

        def counting(request):
            calls.append(request)
            return parse(request)

        monkeypatch.setattr(JsonEndpoint, "parse", staticmethod(counting))
        front.handle(json.dumps({
            "Action": "CreateVpc",
            "Parameters": {"CidrBlock": "10.0.0.0/16"},
        }), api_key="t")
        assert len(calls) == 1

    def test_long_key_shapes_are_not_kept(self):
        from repro.interpreter import emulator

        emulator._KEY_SHAPES.clear()
        long_key = "K" * (emulator.KEY_SHAPE_CACHED_LENGTH + 1)
        assert emulator.normalize_params({long_key: 1, "Vpc_Id": 2}) == {
            "k" * len(long_key): 1, "vpcid": 2,
        }
        assert emulator._KEY_SHAPES == {}
        assert emulator.normalize_params({"Vpc_Id": 2}) == {"vpcid": 2}
        assert emulator._KEY_SHAPES == {("Vpc_Id",): ("vpcid",)}

    @pytest.mark.parametrize("params, code", [
        # The later of two keys that normalize alike wins, in the
        # validator and in the binder alike.
        (lambda vpc: {"VpcId": 5, "vpc_id": vpc}, None),
        (lambda vpc: {"vpc_id": vpc, "VpcId": 5}, "ValidationError"),
        (lambda vpc: {"VpcId": "vpc-99999999", "vpc_id": vpc}, None),
        (lambda vpc: {"vpc_id": vpc, "VpcId": "vpc-99999999"},
         "InvalidVpcID.NotFound"),
    ])
    def test_duplicate_normalized_keys_last_wins(self, build, params, code):
        front = make_front(build)

        def call(action, parameters):
            return json.loads(front.handle(json.dumps({
                "Action": action, "Parameters": parameters,
            }), api_key="t"))

        vpc = call("CreateVpc", {"CidrBlock": "10.0.0.0/16"})["id"]
        reply = call("DescribeVpcs", params(vpc))
        if code is None:
            assert "Error" not in reply
            assert reply["cidr_block"] == "10.0.0.0/16"
        else:
            assert reply["Error"]["Code"] == code
        emulator = build.make_backend()
        vpc = emulator.invoke(
            "CreateVpc", {"CidrBlock": "10.0.0.0/16"}
        ).data["id"]
        direct = emulator.invoke("DescribeVpcs", params(vpc))
        if code == "ValidationError":
            # Unvalidated, the binder looks the id up and misses.
            assert direct.error_code == "InvalidVpcID.NotFound"
        else:
            assert direct.success == (code is None)

    def test_degraded_tenant_sheds_and_recovers_end_to_end(self, build):
        clock = VirtualClock()
        front = make_front(build, clock=clock, rate=5.0, burst=1.0)
        front.admission.degrade_after = 3

        def call(action, parameters):
            return json.loads(front.handle(json.dumps({
                "Action": action, "Parameters": parameters,
            }), api_key="t"))

        vpc = call("CreateVpc", {"CidrBlock": "10.0.0.0/16"})["id"]
        codes = [
            call("ModifyVpcAttribute", {
                "VpcId": vpc, "EnableDnsHostnames": True,
            }).get("Error", {}).get("Code")
            for __ in range(4)
        ]
        assert codes == [THROTTLED, THROTTLED, THROTTLED, OVERLOADED]
        assert front.admission.degraded("t")
        # Degraded: reads ride free, writes shed flat.
        assert "Error" not in call("DescribeVpcs", {"VpcId": vpc})
        clock.sleep(1.0)  # the bucket refills: the next write recovers
        assert "Error" not in call("ModifyVpcAttribute", {
            "VpcId": vpc, "EnableDnsHostnames": True,
        })
        assert not front.admission.degraded("t")
        clock.sleep(1.0)
        assert call("DescribeVpcs", {"VpcId": vpc})[
            "enable_dns_hostnames"
        ] is True

    def test_admitting_a_healthy_tenant_leaves_its_meter_alone(
            self, monkeypatch):
        controller = AdmissionController(rate=1e9, burst=1e9)

        def untouched(*args, **kwargs):
            raise AssertionError("meter bookkeeping on a healthy admit")

        monkeypatch.setattr(TenantMeter, "note_token", untouched)
        first = controller.admit("t", "CreateVpc", read_only=False)
        second = controller.admit("t", "DescribeVpcs", read_only=True)
        assert first.admitted and second.admitted
        assert first is second  # one shared decision: nothing allocated
        controller.release("t")
        controller.release("t")


class TestAdmission:
    def test_bucket_exhaustion_sheds_with_retry_after(self):
        clock = VirtualClock()
        controller = AdmissionController(
            clock=clock, rate=5.0, burst=2.0, degrade_after=100
        )
        decisions = [
            controller.admit("t", "CreateVpc", read_only=False)
            for __ in range(3)
        ]
        for decision in decisions[:2]:
            assert decision.admitted
            controller.release()
        shed = decisions[2]
        assert not shed.admitted
        assert shed.response.error_code == THROTTLED
        assert shed.response.data["RetryAfterSeconds"] > 0

    def test_degraded_mode_keeps_reads_alive(self):
        clock = VirtualClock()
        controller = AdmissionController(
            clock=clock, rate=5.0, burst=1.0, degrade_after=3
        )
        assert controller.admit("t", "CreateVpc", read_only=False).admitted
        controller.release()
        for __ in range(3):
            controller.admit("t", "CreateVpc", read_only=False)
        assert controller.degraded("t")
        read = controller.admit("t", "DescribeVpcs", read_only=True)
        assert read.admitted
        controller.release()
        write = controller.admit("t", "CreateVpc", read_only=False)
        assert not write.admitted
        assert write.response.error_code == OVERLOADED

    def test_degraded_tenant_recovers_when_bucket_refills(self):
        clock = VirtualClock()
        controller = AdmissionController(
            clock=clock, rate=5.0, burst=1.0, degrade_after=2
        )
        controller.admit("t", "CreateVpc", read_only=False)
        controller.release()
        for __ in range(2):
            controller.admit("t", "CreateVpc", read_only=False)
        assert controller.degraded("t")
        clock.sleep(1.0)  # refills 5 tokens (capped at burst=1)
        write = controller.admit("t", "CreateVpc", read_only=False)
        assert write.admitted
        controller.release()
        assert not controller.degraded("t")

    def test_recover_hysteresis_needs_consecutive_tokens(self):
        """``recover_after > 1``: one lucky token does not clear
        degraded mode — only a sustained run of grants does, so a
        tenant flapping around the degrade threshold stays degraded
        instead of toggling its admission mode on every request."""
        clock = VirtualClock()
        controller = AdmissionController(
            clock=clock, rate=2.0, burst=1.0,
            degrade_after=2, recover_after=3,
        )
        controller.admit("t", "CreateVpc", read_only=False)
        controller.release()
        for __ in range(2):
            controller.admit("t", "CreateVpc", read_only=False)
        assert controller.degraded("t")
        # One refilled token: admitted, but still degraded (1 < 3).
        clock.sleep(0.5)
        assert controller.admit("t", "CreateVpc",
                                read_only=False).admitted
        controller.release()
        assert controller.degraded("t")
        # A shed in between resets the consecutive-token run.
        controller.admit("t", "CreateVpc", read_only=False)
        clock.sleep(0.5)
        assert controller.admit("t", "CreateVpc",
                                read_only=False).admitted
        controller.release()
        assert controller.degraded("t")
        # Three consecutive grants finally clear the mode.
        for __ in range(2):
            clock.sleep(0.5)
            assert controller.admit("t", "CreateVpc",
                                    read_only=False).admitted
            controller.release()
        assert not controller.degraded("t")

    def test_default_recover_after_is_first_token(self):
        """The default ``recover_after=1`` keeps the original
        semantics: the first refilled token ends degraded mode."""
        clock = VirtualClock()
        controller = AdmissionController(
            clock=clock, rate=5.0, burst=1.0, degrade_after=2,
        )
        controller.admit("t", "CreateVpc", read_only=False)
        controller.release()
        for __ in range(2):
            controller.admit("t", "CreateVpc", read_only=False)
        assert controller.degraded("t")
        clock.sleep(1.0)
        assert controller.admit("t", "CreateVpc",
                                read_only=False).admitted
        controller.release()
        assert not controller.degraded("t")

    def test_admission_queue_bound(self):
        controller = AdmissionController(
            clock=VirtualClock(), rate=1e9, burst=1e9,
            max_concurrent=1, queue_depth=1,
        )
        assert controller.admit("t", "X", read_only=False).admitted
        assert controller.admit("t", "X", read_only=False).admitted
        third = controller.admit("t", "X", read_only=False)
        assert not third.admitted
        assert third.response.error_code == OVERLOADED
        assert "queue" in third.response.error_message

    def test_overload_at_10x_rate_sheds_without_crashing(self, build):
        telemetry = Telemetry(service="ec2")
        front = make_front(
            build, telemetry=telemetry, rate=50.0, burst=20.0
        )
        generator = LoadGenerator(
            front, seed=11, workers=4, requests_per_worker=250,
            read_ratio=0.5, tenants=1, offered_rate=500.0,
        )
        report = generator.run()
        assert report.linearizable, report.mismatches
        assert report.by_code.get(THROTTLED, 0) > 0
        assert report.shed > report.requests // 4
        assert report.by_code.get("", 0) > 0  # but the service lived
        snapshot = telemetry.metrics.snapshot()
        assert any(key.startswith("serve.shed") for key in snapshot)
        assert "serve.queue_depth_samples" in snapshot


class TestAdmittedLog:
    def test_commit_order_and_dump(self, tmp_path):
        log = AdmittedLog()
        assert log.append("a", "CreateVpc", {"CidrBlock": "10.0.0.0/16"}) == 1
        assert log.append("b", "CreateVpc", None) == 2
        assert [r["seq"] for r in log.records] == [1, 2]
        # One record shape, failures and successes alike.
        assert log.records[1] == {
            "seq": 2, "tenant": "b", "api": "CreateVpc", "params": {},
        }
        assert log.per_tenant("a")[0]["api"] == "CreateVpc"
        target = log.dump_jsonl(tmp_path / "admitted.jsonl")
        lines = target.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["tenant"] == "b"

    def test_records_come_back_as_they_went_in(self, tmp_path):
        """Tuples, sets, non-string keys and bytes keep their types,
        and a reset logs empty params, in every read of the log."""
        params = {
            "Tags": ("a", "b"), "Zones": {"z1", "z2"},
            "Ports": {80: "http"}, "Blob": b"\x00\x01",
            "Nested": {"List": [1, (2, 3)]},
        }
        log = AdmittedLog()
        assert log.append("a", "CreateVpc", params) == 1
        assert log.append("a", RESET, None) == 2
        assert log.append("b", "DeleteVpc", {"VpcId": "vpc-1"}) == 3
        expected = [
            {"seq": 1, "tenant": "a", "api": "CreateVpc",
             "params": params},
            {"seq": 2, "tenant": "a", "api": RESET, "params": {}},
            {"seq": 3, "tenant": "b", "api": "DeleteVpc",
             "params": {"VpcId": "vpc-1"}},
        ]
        assert log.records == expected
        assert type(log.records[0]["params"]["Tags"]) is tuple
        assert log.per_tenant("a") == expected[:2]
        assert log.per_tenant("b") == expected[2:]
        assert log.per_tenant("c") == []
        assert len(log) == 3

        # The JSONL dump is what json.dumps makes of the same records.
        dumpable = AdmittedLog()
        dumpable.append("a", "CreateVpc", {"Tags": ("a", "b")})
        dumpable.append("a", RESET, None)
        target = dumpable.dump_jsonl(tmp_path / "admitted.jsonl")
        assert target.read_text() == "".join(
            json.dumps(record, sort_keys=True) + "\n"
            for record in [
                {"seq": 1, "tenant": "a", "api": "CreateVpc",
                 "params": {"Tags": ("a", "b")}},
                {"seq": 2, "tenant": "a", "api": RESET, "params": {}},
            ]
        )

    def test_mutating_params_after_append_leaves_the_log(self):
        """The log keeps a deep copy: neither the caller's dict nor a
        record read back can change what replay will see."""
        params = {"CidrBlock": "10.0.0.0/16",
                  "Tags": [{"Key": "k", "Value": "v"}]}
        log = AdmittedLog()
        log.append("a", "CreateVpc", params)
        params["CidrBlock"] = "10.9.0.0/16"
        params["Tags"][0]["Value"] = "changed"
        params["Tags"].append({})
        log.records[0]["params"]["Tags"].clear()
        assert log.records[0]["params"] == {
            "CidrBlock": "10.0.0.0/16",
            "Tags": [{"Key": "k", "Value": "v"}],
        }

    def test_writes_leave_nothing_for_the_cycle_collector(self, build):
        """With the collector off, logged writes do not raise the
        young-generation count: each attempt is kept as bytes, which
        the collector never tracks.  A record dict and a params copy
        per write read 2 per write."""
        emulator = ConcurrentEmulator(build.make_backend(),
                                      log=AdmittedLog())
        vpc = emulator.write(
            "CreateVpc", {"CidrBlock": "10.0.0.0/16"}
        ).data["id"]

        def toggle(writes):
            for step in range(writes):
                assert emulator.write("ModifyVpcAttribute", {
                    "VpcId": vpc, "EnableDnsHostnames": step % 2 == 0,
                }).success

        writes = 1_000
        gc.collect()
        gc.disable()
        try:
            toggle(100)  # warm up
            before = gc.get_count()[0]
            toggle(writes)
            grown = gc.get_count()[0] - before
        finally:
            gc.enable()
        assert len(emulator.log) == 1 + 100 + writes
        assert grown < 0.5 * writes, grown / writes


class TestConcurrentSoak:
    WORKERS = 8
    PER_WORKER = 250  # 8 × 250 = 2000 mixed requests

    def test_clean_soak_is_linearizable(self, build):
        front = make_front(build)
        generator = LoadGenerator(
            front, seed=21, workers=self.WORKERS,
            requests_per_worker=self.PER_WORKER, read_ratio=0.6,
            tenants=2,
        )
        report = generator.run()
        assert report.requests == self.WORKERS * self.PER_WORKER
        assert report.linearizable, report.mismatches
        assert report.by_code.get("", 0) > 0
        assert len(front.admitted) > 0

    def test_hostile_chaos_soak_is_linearizable(self, build):
        engine = ChaosEngine(HOSTILE_PROFILE, seed=23)
        front = make_front(
            build, wrap=lambda backend: ChaosProxy(backend, engine)
        )
        generator = LoadGenerator(
            front, seed=22, workers=self.WORKERS,
            requests_per_worker=self.PER_WORKER, read_ratio=0.6,
            tenants=2,
        )
        report = generator.run()
        assert report.requests == self.WORKERS * self.PER_WORKER
        assert report.linearizable, report.mismatches
        # Chaos injected faults, but they never entered the log.
        assert sum(engine.injected.values()) > 0
        for record in front.admitted.records:
            assert record["api"] != ""

    def test_chaos_faults_are_not_counted_as_sheds(self, build):
        """Injected throttles reuse the shed codes but carry no
        Retry-After hint: with admission unlimited they are admitted
        work that failed, so nothing is a shed and nothing is waited
        on, while the codes still show in the outcome histogram."""
        engine = ChaosEngine(HOSTILE_PROFILE, seed=23)
        front = make_front(
            build, wrap=lambda backend: ChaosProxy(backend, engine),
            rate=1e9, burst=1e9,
        )
        generator = LoadGenerator(
            front, seed=22, workers=1, requests_per_worker=400,
        )
        report = generator.run()
        assert report.linearizable, report.mismatches
        injected = sum(
            report.by_code.get(code, 0)
            for code in ("RequestLimitExceeded", "ServiceUnavailable")
        )
        assert injected > 0, report.by_code
        assert report.shed == 0
        assert report.retry_after_honored == 0
        assert report.requests == sum(report.by_code.values()) == 400

    def test_serial_rerun_reproduces_request_outcomes(self, build):
        """Same seed, 1 worker: the offered traffic is identical, so
        the outcome histogram is too (scheduling-independent)."""
        def histogram():
            front = make_front(build)
            generator = LoadGenerator(
                front, seed=33, workers=1, requests_per_worker=300,
                tenants=1,
            )
            return generator.run().by_code

        assert histogram() == histogram()


class TestServeTelemetryReport:
    def test_trace_renders_serving_section(self, build, tmp_path):
        from repro.telemetry import load_trace, render_trace_report
        from repro.telemetry.export import write_trace

        telemetry = Telemetry(service="ec2")
        front = make_front(
            build, telemetry=telemetry, rate=20.0, burst=5.0
        )
        generator = LoadGenerator(
            front, seed=9, workers=2, requests_per_worker=100,
            offered_rate=200.0,
        )
        report = generator.run()
        assert report.linearizable
        path = write_trace(telemetry, tmp_path / "serve.jsonl")
        text = render_trace_report(load_trace(path))
        assert "serving:" in text
        assert "request(s)" in text
        assert "shed" in text
