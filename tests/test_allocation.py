"""Tests for holistic fair allocation, retry budgets and deadline
propagation (repro.serve.allocation / repro.serve.deadline)."""

import re

import pytest

from repro.core import build_learned_emulator
from repro.netem import NetEm, three_region_topology
from repro.resilience.policy import VirtualClock
from repro.resilience.ratelimit import TokenBucket
from repro.serve import (
    AdmissionController,
    AllocationConfig,
    EXPIRED_CODE,
    FrontDoor,
    HolisticAllocator,
    LoadGenerator,
    OVERLOADED,
    request_meta,
)
from repro.cli import main as cli_main
from repro.serve.loadgen import MAX_RETRY_AFTER


@pytest.fixture(scope="module")
def build():
    return build_learned_emulator("ec2", seed=7, align=False)


def make_allocator(clock=None, **overrides) -> HolisticAllocator:
    config = AllocationConfig(**overrides)
    return HolisticAllocator(clock=clock or VirtualClock(),
                             config=config)


def settle_demand(allocator, demands: dict, rounds: int = 8,
                  window: float = 1.0) -> None:
    """Feed each tenant's arrival rate until the EWMA converges."""
    clock = allocator.clock
    for __ in range(rounds):
        for name, rate in demands.items():
            alloc = allocator.tenant(name)
            alloc.arrivals += int(rate * window)
        clock.sleep(window)
        allocator.maybe_realloc(force=True)


class TestWaterFill:
    def test_equal_weights_split_the_pool_equally(self):
        allocator = make_allocator(total_rate=90.0)
        settle_demand(allocator, {"a": 200.0, "b": 200.0, "c": 200.0})
        grants = [
            allocator.tenant(name).granted_rate for name in "abc"
        ]
        assert all(abs(g - 30.0) < 1.0 for g in grants), grants

    def test_weighted_shares_are_proportional(self):
        allocator = make_allocator(
            total_rate=90.0, weights={"heavy": 2.0},
        )
        settle_demand(allocator, {"heavy": 500.0, "light": 500.0})
        heavy = allocator.tenant("heavy").granted_rate
        light = allocator.tenant("light").granted_rate
        assert heavy / light == pytest.approx(2.0, rel=0.05)

    def test_satisfied_tenant_donates_surplus(self):
        allocator = make_allocator(total_rate=100.0)
        settle_demand(allocator, {"quiet": 5.0, "hungry": 400.0})
        quiet = allocator.tenant("quiet")
        hungry = allocator.tenant("hungry")
        # The quiet tenant keeps demand + headroom, not the 50/50
        # static split; the hungry tenant absorbs the donation.
        assert quiet.granted_rate < 15.0
        assert hungry.granted_rate > 80.0

    def test_grants_are_work_conserving(self):
        allocator = make_allocator(total_rate=120.0)
        settle_demand(
            allocator, {"a": 3.0, "b": 40.0, "c": 500.0}
        )
        total = sum(
            allocator.tenant(name).granted_rate for name in "abc"
        )
        assert total == pytest.approx(120.0, rel=0.02)

    def test_isolation_bound_under_aggressor_demand(self):
        """An aggressor's demand never pushes a hungry victim below
        its weighted fair share of the pool."""
        allocator = make_allocator(total_rate=100.0)
        settle_demand(
            allocator, {"victim": 200.0, "aggressor": 2000.0}
        )
        victim = allocator.tenant("victim")
        assert victim.granted_rate >= victim.fair_share - 1e-6
        assert victim.fair_share == pytest.approx(50.0)

    def test_snapshot_and_bounded_history(self):
        allocator = make_allocator(total_rate=50.0)
        for __ in range(300):
            allocator.tenant("t").arrivals += 1
            allocator.clock.sleep(1.0)
            allocator.maybe_realloc(force=True)
        snapshot = allocator.snapshot()
        assert snapshot["total_rate"] == 50.0
        assert snapshot["reallocations"] > 256
        assert set(snapshot["tenants"]) == {"t"}
        assert len(allocator.history) == 256
        assert allocator.history[-1]["grants"]["t"] > 0


class TestShardHealth:
    def make_bound(self, tenants=("t0", "t1", "t2", "t3")):
        allocator = make_allocator(total_rate=80.0, min_rate=0.5)
        # Even tenants on shard 0, odd tenants on shard 1.
        allocator.bind_shards(
            lambda name: int(name[-1]) % 2, shards=2
        )
        settle_demand(
            allocator, {name: 100.0 for name in tenants}
        )
        return allocator

    def test_dead_shard_tenants_pinned_to_floor(self):
        allocator = self.make_bound()
        allocator.set_shard_health(0, alive=False)
        assert allocator.tenant("t0").granted_rate == 0.5
        assert allocator.tenant("t2").granted_rate == 0.5

    def test_survivors_inherit_the_freed_budget(self):
        allocator = self.make_bound()
        before = allocator.tenant("t1").granted_rate
        allocator.set_shard_health(0, alive=False)
        after = allocator.tenant("t1").granted_rate
        assert before == pytest.approx(20.0, rel=0.05)
        assert after == pytest.approx(39.5, rel=0.05)
        assert after > before * 1.8
        assert allocator.snapshot()["shards_down"] == [0]

    def test_recovery_restores_the_even_split(self):
        allocator = self.make_bound()
        allocator.set_shard_health(0, alive=False)
        allocator.set_shard_health(0, alive=True)
        settle_demand(
            allocator, {f"t{i}": 100.0 for i in range(4)}
        )
        assert allocator.tenant("t0").granted_rate == pytest.approx(
            20.0, rel=0.05
        )
        assert allocator.snapshot()["shards_down"] == []

    def test_duplicate_health_report_is_a_noop(self):
        allocator = self.make_bound()
        allocator.set_shard_health(0, alive=False)
        count = allocator.reallocations
        allocator.set_shard_health(0, alive=False)
        assert allocator.reallocations == count


class TestAllocatedAdmission:
    def make_controller(self, clock, **overrides):
        config = AllocationConfig(**overrides)
        allocator = HolisticAllocator(clock=clock, config=config)
        controller = AdmissionController(
            clock=clock, max_concurrent=config.total_slots,
            queue_depth=config.total_queue, degrade_after=10_000,
            allocator=allocator,
        )
        return controller, allocator

    def test_aggressor_cannot_starve_a_victim(self):
        clock = VirtualClock()
        controller, __ = self.make_controller(
            clock, total_rate=20.0, total_burst=8.0,
            realloc_interval=1.0,
        )
        victim_admits = 0
        for step in range(400):  # 20s: aggressor 20x the victim
            clock.sleep(0.05)
            for __ in range(5):
                decision = controller.admit(
                    "aggressor", "CreateVpc", read_only=False
                )
                if decision.admitted:
                    controller.release("aggressor")
            if step % 4 == 0:  # victim at 5 rps, under its share
                decision = controller.admit(
                    "victim", "CreateVpc", read_only=False
                )
                if decision.admitted:
                    controller.release("victim")
                    victim_admits += 1
        # 100 victim offers at 5 rps against a 10 rps grant: nearly
        # all must land despite the 100 rps aggressor flood.
        assert victim_admits >= 90

    def test_retry_budget_exhaustion_sheds_with_marker(self):
        clock = VirtualClock()
        controller, allocator = self.make_controller(
            clock, total_rate=1000.0, total_burst=400.0,
            retry_rate_fraction=0.001, retry_burst=3.0,
        )
        outcomes = []
        with request_meta(retry=True):
            for __ in range(6):
                decision = controller.admit(
                    "t", "CreateVpc", read_only=False
                )
                outcomes.append(decision)
                if decision.admitted:
                    controller.release("t")
        admitted = [d for d in outcomes if d.admitted]
        shed = [d for d in outcomes if not d.admitted]
        assert len(admitted) == 3  # the retry burst
        assert shed, "retry budget never ran dry"
        for decision in shed:
            response = decision.response
            assert response.error_code == OVERLOADED
            assert response.data["RetryBudgetExhausted"] is True
            assert response.data["RetryAfterSeconds"] > 0
        assert allocator.tenant("t").retry_exhausted == len(shed)

    def test_fresh_requests_unaffected_by_retry_budget(self):
        clock = VirtualClock()
        controller, __ = self.make_controller(
            clock, total_rate=1000.0, total_burst=400.0,
            retry_rate_fraction=0.001, retry_burst=1.0,
        )
        with request_meta(retry=True):
            controller.admit("t", "CreateVpc", read_only=False)
            controller.release("t")
            assert not controller.admit(
                "t", "CreateVpc", read_only=False
            ).admitted
        # The same instant, without the retry flag: normal admission.
        fresh = controller.admit("t", "CreateVpc", read_only=False)
        assert fresh.admitted
        controller.release("t")

    def test_expired_deadline_sheds_before_any_budget(self):
        clock = VirtualClock()
        controller, allocator = self.make_controller(
            clock, total_rate=1000.0, total_burst=400.0,
        )
        deadline = clock.now() + 0.05
        clock.sleep(0.1)
        with request_meta(deadline=deadline):
            decision = controller.admit(
                "t", "CreateVpc", read_only=False
            )
        assert not decision.admitted
        response = decision.response
        assert response.error_code == EXPIRED_CODE
        assert response.data["ExpiredBeforeDispatch"] is True
        assert response.data["Stage"] == "admission"
        assert allocator.tenant("t").deadline_sheds == 1

    def test_live_deadline_admits(self):
        clock = VirtualClock()
        controller, __ = self.make_controller(
            clock, total_rate=1000.0, total_burst=400.0,
        )
        with request_meta(deadline=clock.now() + 10.0):
            decision = controller.admit(
                "t", "CreateVpc", read_only=False
            )
        assert decision.admitted
        controller.release("t")


class TestFrontDoorDeadline:
    def test_envelope_deadline_expires_at_admission(self, build):
        front = FrontDoor(
            build.module, build.make_backend, allocation=True,
        )
        body = front.dispatch({
            "Action": "CreateVpc",
            "Parameters": {"CidrBlock": "10.0.0.0/16"},
            "DeadlineSeconds": -1.0,
        }, api_key="t")
        error = body["Error"]
        assert error["Code"] == EXPIRED_CODE
        assert error["ExpiredBeforeDispatch"] is True
        assert len(front.admitted) == 0

    def test_deadline_expires_in_flight_at_the_netem_hop(self, build):
        """A deadline shorter than the cross-region RTT sheds at the
        netem stage — after admission, before the write dispatches."""
        netem = NetEm(three_region_topology(), seed=5)
        front = FrontDoor(
            build.module, build.make_backend, clock=netem.clock,
            network=netem, rate=500.0, burst=200.0,
            client_regions={"t": "eu-west-1"},
        )
        # Measure what one cross-region write costs on the virtual
        # clock, then offer a budget that cannot cover the transit.
        before = netem.clock.now()
        probe = front.dispatch({
            "Action": "CreateVpc",
            "Parameters": {"CidrBlock": "10.0.0.0/16"},
        }, api_key="t")
        assert "Error" not in probe
        transit = netem.clock.now() - before
        assert transit > 0
        body = front.dispatch({
            "Action": "CreateVpc",
            "Parameters": {"CidrBlock": "10.0.1.0/24"},
            "DeadlineSeconds": transit / 4.0,  # under one WAN hop
        }, api_key="t")
        error = body["Error"]
        assert error["Code"] == EXPIRED_CODE
        assert error["ExpiredBeforeDispatch"] is True
        assert error["Stage"] == "netem"
        # Only the probe write reached the admitted log.
        assert len(front.admitted) == 1

    def test_generous_deadline_is_transparent(self, build):
        front = FrontDoor(
            build.module, build.make_backend, allocation=True,
        )
        body = front.dispatch({
            "Action": "CreateVpc",
            "Parameters": {"CidrBlock": "10.0.0.0/16"},
            "DeadlineSeconds": 60.0,
        }, api_key="t")
        assert "Error" not in body

    def test_malformed_deadline_rejected(self, build):
        front = FrontDoor(build.module, build.make_backend)
        body = front.dispatch({
            "Action": "CreateVpc",
            "Parameters": {"CidrBlock": "10.0.0.0/16"},
            "DeadlineSeconds": "soon",
        }, api_key="t")
        assert body["Error"]["Code"] == "InvalidParameterValue"


class TestLoadGenJitter:
    def test_honored_waits_are_full_jittered(self, build):
        front = FrontDoor(
            build.module, build.make_backend, rate=5.0, burst=2.0,
        )
        generator = LoadGenerator(
            front, seed=3, workers=2, requests_per_worker=40,
            tenants=1, offered_rate=500.0,
        )
        report = generator.run(verify=False)
        assert report.retry_after_honored > 0
        assert report.retry_after_log
        for record in report.retry_after_log:
            # Full jitter: the slept wait is sampled from
            # [0, min(hint, cap)] and logged alongside the hint.
            cap = min(record["hint"], MAX_RETRY_AFTER)
            assert 0.0 <= record["honored"] <= cap + 1e-9
        # A uniform draw that never lands below half the hint in a
        # dozen samples would be astronomically unlikely: jitter is
        # actually spreading the cohort, not sleeping the full hint.
        waits = [r["honored"] / max(r["hint"], 1e-9)
                 for r in report.retry_after_log]
        assert min(waits) < 0.5

    def test_jitter_is_seed_deterministic(self, build):
        logs = []
        for __ in range(2):
            front = FrontDoor(
                build.module, build.make_backend, rate=5.0, burst=2.0,
            )
            # One worker: thread interleaving cannot reorder the rng.
            generator = LoadGenerator(
                front, seed=3, workers=1, requests_per_worker=60,
                tenants=1, offered_rate=500.0,
            )
            report = generator.run(verify=False)
            logs.append(report.retry_after_log)
        assert logs[0] == logs[1]


class TestFairServeBenchCli:
    def test_text_report_lists_per_tenant_outcomes(self, capsys):
        code = cli_main([
            "serve-bench", "ec2", "--workers", "1", "--requests", "40",
            "--tenants", "2", "--fair", "--aggressor",
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        for name in ("tenant-0", "tenant-1"):
            assert re.search(
                rf"^ +{name} +offered +\d+ +ok +\d+ +shed +\d+$",
                out, re.M,
            ), out
        assert "linearizable: PASS" in out


class TestTokenBucketConfigure:
    def test_configure_settles_then_repoints(self):
        clock = VirtualClock()
        bucket = TokenBucket(rate=10.0, burst=20.0, clock=clock,
                             initial=0.0)
        clock.sleep(1.0)  # accrues 10 tokens at the old rate
        bucket.configure(rate=1.0, burst=50.0)
        assert bucket.tokens == pytest.approx(10.0)
        clock.sleep(2.0)  # now refills at the new rate
        assert bucket.tokens == pytest.approx(12.0)

    def test_configure_clamps_balance_to_new_burst(self):
        clock = VirtualClock()
        bucket = TokenBucket(rate=10.0, burst=40.0, clock=clock)
        bucket.configure(rate=10.0, burst=5.0)
        assert bucket.tokens == pytest.approx(5.0)

    def test_configure_rejects_nonpositive_rate(self):
        bucket = TokenBucket(rate=1.0, burst=1.0)
        with pytest.raises(ValueError):
            bucket.configure(rate=0.0, burst=1.0)
