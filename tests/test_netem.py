"""Tests for the network-realistic fault topology (repro.netem)."""

import pytest

from repro.core import build_learned_emulator
from repro.durability.snapshot import (
    registry_diff,
    registry_dump,
    restore_registry,
    snapshot_registry,
)
from repro.interpreter.machine import Registry
from repro.netem import (
    FaultTimeline,
    LinkSpec,
    NetEm,
    NetworkEvent,
    NetworkTopology,
    Placer,
    ReplicaSet,
    SweepConfig,
    SweepGrid,
    partition_window,
    render_heatmap,
    run_sweep,
    seeded_partitions,
    three_region_topology,
    uniform_topology,
    validate_sweep,
)
from repro.resilience.breaker import CircuitBreaker, CLOSED, HALF_OPEN, OPEN
from repro.resilience.errors import (
    CircuitOpenError,
    DeadlineExceeded,
    TransientServiceError,
)
from repro.resilience.policy import RetryPolicy, VirtualClock
from repro.resilience.retry import retry_call
from repro.resilience.stats import ResilienceStats
from repro.scenarios.geo import (
    multi_region_failover,
    noisy_cross_region_replication,
    partition_heal_convergence,
)
from repro.serve import FrontDoor, LoadGenerator
from repro.serve.loadgen import MAX_RETRY_AFTER
from repro.telemetry import Telemetry


@pytest.fixture(scope="module")
def build():
    return build_learned_emulator("ec2", seed=7, align=False)


REGIONS = ("us-east-1", "us-west-2", "eu-west-1")


class TestTopology:
    def test_same_region_link_is_lan(self):
        topology = NetworkTopology(list(REGIONS))
        link = topology.link("us-east-1", "us-east-1")
        assert link.spec.base_rtt < 0.001
        assert link.spec.loss == 0.0

    def test_undeclared_cross_region_link_uses_default(self):
        topology = NetworkTopology(
            list(REGIONS),
            default=LinkSpec(src="", dst="", base_rtt=0.07, loss=0.01),
        )
        link = topology.link("us-east-1", "eu-west-1")
        assert link.spec.base_rtt == 0.07
        assert link.spec.loss == 0.01

    def test_connect_declares_both_directions(self):
        topology = NetworkTopology(list(REGIONS))
        topology.connect("us-east-1", "eu-west-1", base_rtt=0.08)
        assert topology.link("us-east-1", "eu-west-1").spec.base_rtt == 0.08
        assert topology.link("eu-west-1", "us-east-1").spec.base_rtt == 0.08

    def test_partition_heal_records_window(self):
        topology = three_region_topology()
        topology.partition("us-east-1", "eu-west-1", now=10.0)
        assert topology.partitioned("us-east-1", "eu-west-1")
        assert topology.partitioned("eu-west-1", "us-east-1")
        assert not topology.partitioned("us-east-1", "us-west-2")
        topology.heal("us-east-1", "eu-west-1", now=25.0)
        assert not topology.partitioned("us-east-1", "eu-west-1")
        report = topology.partition_report()
        assert report["us-east-1->eu-west-1"] == [(10.0, 25.0)]

    def test_degrade_scales_rtt_and_loss(self):
        topology = three_region_topology()
        link = topology.link("us-east-1", "eu-west-1")
        healthy = link.effective_rtt(0.0)
        topology.degrade("us-east-1", "eu-west-1",
                         rtt_multiplier=4.0, extra_loss=0.2)
        assert link.effective_rtt(0.0) == pytest.approx(4.0 * healthy)
        assert link.effective_loss == pytest.approx(0.2 + link.spec.loss)
        topology.restore("us-east-1", "eu-west-1")
        assert link.effective_rtt(0.0) == pytest.approx(healthy)

    def test_fair_share_transfer_time(self):
        link = NetworkTopology(["a", "b"]).link("a", "b")
        alone = link.transfer_seconds(100.0, sharers=1)
        shared = link.transfer_seconds(100.0, sharers=4)
        assert shared == pytest.approx(4.0 * alone)


class TestTimeline:
    def test_advance_applies_each_event_once(self):
        topology = three_region_topology()
        timeline = FaultTimeline(
            partition_window("us-east-1", "eu-west-1", start=5.0,
                             duration=10.0)
        )
        assert timeline.advance(topology, 1.0) == 0
        assert timeline.advance(topology, 6.0) == 1
        assert topology.partitioned("us-east-1", "eu-west-1")
        assert timeline.advance(topology, 6.0) == 0  # idempotent
        assert timeline.advance(topology, 20.0) == 1
        assert not topology.partitioned("us-east-1", "eu-west-1")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            NetworkEvent(at=0.0, kind="flap", src="a", dst="b")

    def test_seeded_partitions_deterministic(self):
        a = seeded_partitions(REGIONS, seed=3, horizon=100.0, duration=5.0)
        b = seeded_partitions(REGIONS, seed=3, horizon=100.0, duration=5.0)
        assert a == b
        assert a
        kinds = [event.kind for event in a]
        assert kinds == ["partition", "heal"] * (len(a) // 2)

    def test_zero_duration_is_no_weather(self):
        assert seeded_partitions(REGIONS, seed=3, horizon=100.0,
                                 duration=0.0) == []


class TestNetEm:
    def test_transmit_charges_the_shared_clock(self):
        clock = VirtualClock()
        netem = NetEm(three_region_topology(), clock=clock, seed=5)
        before = clock.now()
        delivery = netem.transmit("us-east-1", "eu-west-1")
        assert delivery.delivered
        assert delivery.latency >= 0.080  # the transatlantic base RTT
        assert clock.now() == pytest.approx(before + delivery.latency)

    def test_transmit_is_seed_deterministic(self):
        outcomes = []
        for __ in range(2):
            netem = NetEm(three_region_topology(), clock=VirtualClock(),
                          seed=9)
            outcomes.append([
                (d.delivered, round(d.latency, 9))
                for d in (
                    netem.transmit("us-east-1", "eu-west-1", key=k)
                    for k in range(20)
                )
            ])
        assert outcomes[0] == outcomes[1]

    def test_partition_rejects_without_latency(self):
        clock = VirtualClock()
        netem = NetEm(three_region_topology(), clock=clock, seed=5)
        netem.topology.partition("us-east-1", "eu-west-1", clock.now())
        before = clock.now()
        delivery = netem.transmit("us-east-1", "eu-west-1")
        assert not delivery.delivered
        assert delivery.reason == "partition"
        assert clock.now() == before  # connection refused, not timeout
        assert netem.stats.partition_rejects == 1

    def test_total_loss_burns_rtt(self):
        clock = VirtualClock()
        topology = uniform_topology(REGIONS, base_rtt=0.05, loss=1.0)
        netem = NetEm(topology, clock=clock, seed=5)
        before = clock.now()
        delivery = netem.transmit("us-east-1", "eu-west-1")
        assert not delivery.delivered
        assert delivery.reason == "loss"
        assert clock.now() > before  # the caller waited for nothing
        assert netem.stats.lost == 1

    def test_bulk_transfer_pays_bandwidth(self):
        clock = VirtualClock()
        topology = uniform_topology(REGIONS, base_rtt=0.0, jitter=0.0,
                                    bandwidth=100.0)
        netem = NetEm(topology, clock=clock, seed=5)
        delivery = netem.transfer("us-east-1", "eu-west-1", size_mb=50.0)
        assert delivery.delivered
        assert delivery.latency == pytest.approx(0.5)  # 50MB @ 100MB/s

    def test_timeline_faults_surface_mid_traffic(self):
        clock = VirtualClock()
        timeline = FaultTimeline(
            partition_window("us-east-1", "eu-west-1", start=1.0,
                             duration=10.0)
        )
        netem = NetEm(three_region_topology(), clock=clock,
                      timeline=timeline, seed=5)
        assert netem.transmit("us-east-1", "eu-west-1").delivered
        clock.sleep(2.0)
        assert netem.transmit("us-east-1", "eu-west-1").reason == (
            "partition"
        )
        clock.sleep(12.0)
        assert netem.transmit("us-east-1", "eu-west-1").delivered


class TestPlacement:
    def test_hints_fold_onto_regions(self):
        placer = Placer(REGIONS)
        assert placer.fold_hint("us-east-1") == "us-east-1"
        assert placer.fold_hint("us-east-1a") == "us-east-1"  # the AZ
        assert placer.fold_hint("eu-west-1c") == "eu-west-1"
        unknown = placer.fold_hint("ap-south-1")
        assert unknown in REGIONS
        assert placer.fold_hint("ap-south-1") == unknown  # stable

    def test_hint_from_params(self):
        placer = Placer(REGIONS)
        assert placer.hint_from(
            {"CidrBlock": "10.0.0.0/24", "AvailabilityZone": "us-west-2b"}
        ) == "us-west-2"
        assert placer.hint_from({"CidrBlock": "10.0.0.0/24"}) is None

    def test_client_region_stable_per_tenant(self):
        placer = Placer(REGIONS, seed=11)
        assert placer.client_region("acme") == placer.client_region("acme")
        assert placer.client_region("acme") in REGIONS

    def test_data_gravity_toggle(self):
        gravity = Placer(REGIONS, data_gravity=True)
        single = Placer(REGIONS, default_region="us-east-1",
                        data_gravity=False)
        assert gravity.region_for_create(
            "CreateVpc", {}, "eu-west-1") == "eu-west-1"
        assert single.region_for_create(
            "CreateVpc", {}, "eu-west-1") == "us-east-1"
        # An explicit hint always wins.
        assert single.region_for_create(
            "CreateSubnet", {"AvailabilityZone": "us-west-2a"},
            "eu-west-1") == "us-west-2"

    def test_resource_region_reads_placements(self):
        placer = Placer(REGIONS)
        registry = Registry()
        registry.place("vpc-00000001", "eu-west-1")
        assert placer.resource_region(
            registry, {"VpcId": "vpc-00000001"}, fallback="us-east-1"
        ) == "eu-west-1"
        assert placer.resource_region(
            registry, {"VpcId": "vpc-unknown"}, fallback="us-east-1"
        ) == "us-east-1"


class TestPlacementSnapshots:
    def test_placements_round_trip_and_diff(self, build):
        emulator = build.make_backend()
        response = emulator.invoke("CreateVpc", {"CidrBlock": "10.0.0.0/16"})
        vpc = response.data["id"]
        emulator.registry.place(vpc, "eu-west-1")
        snapshot = snapshot_registry(emulator.registry)
        assert snapshot["placements"] == {vpc: "eu-west-1"}
        restored = restore_registry(snapshot, build.module.machines)
        assert restored.region_of(vpc) == "eu-west-1"
        assert registry_diff(registry_dump(emulator.registry),
                             registry_dump(restored)) == []
        restored.place(vpc, "us-west-2")
        diffs = registry_diff(registry_dump(emulator.registry),
                              registry_dump(restored))
        assert any("placements" in diff for diff in diffs)

    def test_unplaced_registry_snapshot_has_no_placements_key(self, build):
        emulator = build.make_backend()
        emulator.invoke("CreateVpc", {"CidrBlock": "10.0.0.0/16"})
        assert "placements" not in snapshot_registry(emulator.registry)


class TestReplication:
    def test_lag_bounds_staleness(self, build):
        clock = VirtualClock()
        netem = NetEm(three_region_topology(), clock=clock, seed=5)
        home = build.make_backend()
        replicas = ReplicaSet("us-east-1", list(REGIONS),
                              build.make_backend, lag=1.0)
        home.invoke("CreateVpc", {"CidrBlock": "10.0.0.0/16"})
        replicas.publish(home.snapshot(), clock.now())
        assert replicas.sync(netem, clock.now()) == 0  # not due yet
        assert not replicas.converged(home)
        clock.sleep(1.5)
        assert replicas.sync(netem, clock.now()) == 2
        assert replicas.converged(home)

    def test_partitioned_replica_freezes_then_converges(self, build):
        clock = VirtualClock()
        netem = NetEm(three_region_topology(), clock=clock, seed=5)
        home = build.make_backend()
        replicas = ReplicaSet("us-east-1", list(REGIONS),
                              build.make_backend, lag=0.1)
        netem.topology.partition("us-east-1", "us-west-2", clock.now())
        home.invoke("CreateVpc", {"CidrBlock": "10.0.0.0/16"})
        replicas.publish(home.snapshot(), clock.now())
        clock.sleep(1.0)
        replicas.sync(netem, clock.now())
        divergence = replicas.divergence(home)
        assert "us-west-2" in divergence       # frozen behind the cut
        assert "eu-west-1" not in divergence   # reachable replica caught up
        netem.topology.heal("us-east-1", "us-west-2", clock.now())
        replicas.sync(netem, clock.now())
        assert replicas.converged(home)        # one sync after the heal


class TestRegionGate:
    def make_front(self, build, netem, **kwargs):
        telemetry = Telemetry(service="ec2", clock=netem.clock)
        kwargs.setdefault("rate", 500.0)
        kwargs.setdefault("burst", 200.0)
        return FrontDoor(
            build.module, build.make_backend, clock=netem.clock,
            telemetry=telemetry, network=netem, **kwargs,
        )

    def test_creates_are_placed(self, build):
        netem = NetEm(three_region_topology(), seed=5)
        front = self.make_front(
            build, netem, client_regions={"t": "us-west-2"},
        )
        response = front.invoke(
            "CreateVpc", {"CidrBlock": "10.0.0.0/16"}, api_key="t"
        )
        assert response.success
        tenant = front.router.get("t")
        assert tenant.emulator.registry.region_of(
            response.data["id"]
        ) == "us-west-2"

    def test_partitioned_write_fails_with_region_error(self, build):
        netem = NetEm(three_region_topology(), seed=5)
        front = self.make_front(
            build, netem, home_region="us-east-1",
            client_regions={"t": "eu-west-1"},
            placer=Placer(REGIONS, default_region="us-east-1",
                          data_gravity=False),
        )
        netem.topology.partition("us-east-1", "eu-west-1",
                                 netem.clock.now())
        response = front.invoke(
            "CreateVpc", {"CidrBlock": "10.0.0.0/16"}, api_key="t"
        )
        assert not response.success
        assert response.error_code == "ServiceUnavailable"
        assert "eu-west-1" in response.error_message
        assert "us-east-1" in response.error_message
        # The rejected write never reached the admitted log.
        assert len(front.admitted) == 0

    def test_partitioned_read_served_stale(self, build):
        clock = VirtualClock()
        netem = NetEm(three_region_topology(), clock=clock, seed=5)
        front = self.make_front(
            build, netem, home_region="us-east-1",
            client_regions={"t": "eu-west-1"},
            replication_lag=0.1,
            placer=Placer(REGIONS, default_region="us-east-1",
                          data_gravity=False),
        )
        created = front.invoke(
            "CreateVpc", {"CidrBlock": "10.0.0.0/16"}, api_key="t"
        )
        vpc = created.data["id"]
        clock.sleep(1.0)
        front.invoke("DescribeVpcs", {"VpcId": vpc}, api_key="t")
        netem.topology.partition("us-east-1", "eu-west-1", clock.now())
        response = front.invoke(
            "DescribeVpcs", {"VpcId": vpc}, api_key="t"
        )
        assert response.success
        assert response.data.get("Stale") is True
        assert response.data.get("ReplicaRegion") == "eu-west-1"
        assert netem.stats.stale_reads == 1

    def test_stale_reads_disabled_fail_instead(self, build):
        netem = NetEm(three_region_topology(), seed=5)
        front = self.make_front(
            build, netem, home_region="us-east-1",
            client_regions={"t": "eu-west-1"}, stale_reads=False,
            placer=Placer(REGIONS, default_region="us-east-1",
                          data_gravity=False),
        )
        netem.topology.partition("us-east-1", "eu-west-1",
                                 netem.clock.now())
        response = front.invoke(
            "DescribeVpcs", {"VpcId": "vpc-00000001"}, api_key="t"
        )
        assert not response.success
        assert response.error_code == "ServiceUnavailable"

    def test_load_under_network_stays_linearizable(self, build):
        clock = VirtualClock()
        topology = uniform_topology(REGIONS, base_rtt=0.02, loss=0.05)
        timeline = FaultTimeline(seeded_partitions(
            REGIONS, seed=3, horizon=4.0, duration=1.0, period=1.5,
        ))
        netem = NetEm(topology, clock=clock, timeline=timeline, seed=3)
        front = self.make_front(build, netem)
        generator = LoadGenerator(
            front, seed=3, workers=4, requests_per_worker=25,
            tenants=2, offered_rate=100.0,
        )
        report = generator.run(verify=True)
        assert report.linearizable is True
        assert netem.stats.messages > 0


class TestRetryDeadlineAccounting:
    def test_network_latency_counts_on_success(self):
        clock = VirtualClock()
        stats = ResilienceStats()

        def slow_success():
            clock.sleep(2.0)  # the emulated WAN burning the budget
            return "late"

        with pytest.raises(DeadlineExceeded):
            retry_call(
                slow_success, clock=clock, stats=stats,
                policy=RetryPolicy(max_attempts=3, deadline=1.0),
            )
        assert stats.deadline_hits == 1

    def test_network_latency_counts_on_failure(self):
        clock = VirtualClock()
        stats = ResilienceStats()

        def slow_failure():
            clock.sleep(2.0)
            raise TransientServiceError("RequestTimeout", "lost")

        # Without in-attempt accounting this would be RetriesExhausted
        # after 3 attempts; the burnt RTT must surface as a deadline.
        with pytest.raises(DeadlineExceeded):
            retry_call(
                slow_failure, clock=clock, stats=stats,
                policy=RetryPolicy(max_attempts=3, deadline=1.0),
            )
        assert stats.attempts == 1
        assert stats.deadline_hits == 1

    def test_fast_success_within_deadline_still_returns(self):
        clock = VirtualClock()

        def quick():
            clock.sleep(0.1)
            return "fine"

        assert retry_call(
            quick, clock=clock,
            policy=RetryPolicy(max_attempts=3, deadline=1.0),
        ) == "fine"


class TestBreakerUnderPartition:
    def test_half_open_probe_must_traverse_healed_link(self):
        clock = VirtualClock()
        timeline = FaultTimeline(
            partition_window("us-east-1", "eu-west-1", start=0.0,
                             duration=30.0)
        )
        netem = NetEm(three_region_topology(), clock=clock,
                      timeline=timeline, seed=5)
        breaker = CircuitBreaker(
            target="eu-west-1", failure_threshold=3, cooldown=5.0,
            clock=clock,
        )

        def call_through():
            breaker.before_call()
            delivery = netem.transmit("us-east-1", "eu-west-1")
            if not delivery.delivered:
                breaker.record_failure()
                raise TransientServiceError(
                    "ServiceUnavailable", "partitioned"
                )
            breaker.record_success()
            return delivery

        # The partition trips the breaker.
        for __ in range(3):
            with pytest.raises(TransientServiceError):
                call_through()
        assert breaker.state == OPEN

        # While open, calls fail fast without touching the network.
        messages = netem.stats.messages
        with pytest.raises(CircuitOpenError):
            call_through()
        assert netem.stats.messages == messages

        # Cooldown passes but the partition is still up: the half-open
        # probe hits the cut link and the breaker re-opens.
        clock.sleep(6.0)
        with pytest.raises(TransientServiceError):
            call_through()
        assert breaker.state == OPEN
        assert breaker.trips == 2

        # The next cooldown expires *after* the heal (t=30): the probe
        # is admitted half-open, the timeline heals the link inside
        # transmit, the probe traverses, and only then does the
        # breaker close.
        clock.sleep(26.0)  # now past both the cooldown and the heal
        assert clock.now() > 30.0
        delivery = call_through()
        assert delivery.delivered
        assert breaker.state == CLOSED

    def test_probe_state_is_half_open_at_admission(self):
        clock = VirtualClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown=2.0,
                                 clock=clock)
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.sleep(3.0)
        breaker.before_call()
        assert breaker.state == HALF_OPEN


class TestRetryAfterHonored:
    def test_loadgen_honors_admission_hints(self, build):
        front = FrontDoor(
            build.module, build.make_backend,
            rate=5.0, burst=2.0,
        )
        generator = LoadGenerator(
            front, seed=3, workers=2, requests_per_worker=40,
            tenants=1, offered_rate=500.0,  # far over the bucket rate
        )
        report = generator.run(verify=False)
        assert report.shed > 0
        assert report.retry_after_honored > 0
        assert report.retry_after_seconds > 0.0
        assert report.retry_after_log
        for record in report.retry_after_log:
            assert record["honored"] <= record["hint"] or (
                record["honored"] == MAX_RETRY_AFTER
            )
            assert record["code"] in {"RequestLimitExceeded",
                                      "ServiceUnavailable"}


class TestGeoScenarios:
    def test_multi_region_failover(self, build):
        result = multi_region_failover(build, seed=7)
        assert result["ok"], result
        partitioned = result["phases"]["partitioned"]
        assert partitioned["write_code"] == "ServiceUnavailable"
        assert partitioned["read_stale"] is True
        assert result["stale_reads"] >= 1

    def test_partition_heal_convergence(self, build):
        result = partition_heal_convergence(build, seed=7)
        assert result["ok"], result
        assert result["diverged_during_partition"] is True
        assert result["divergence_after_heal"] == {}

    def test_noisy_replication_hostile_cell(self, build):
        result = noisy_cross_region_replication(
            build, seed=7, loss=0.05, partition_duration=2.0,
            workers=3, requests_per_worker=20,
        )
        assert result["ok"], result
        assert result["load"]["linearizable"] is True


class TestSweep:
    def test_grid_is_the_cross_product(self):
        grid = SweepGrid(losses=(0.0, 0.1), rtts=(0.01,),
                         partition_durations=(0.0, 1.0, 2.0))
        assert len(grid) == 6
        assert len(grid.cells()) == 6

    def test_run_sweep_emits_valid_cells(self, build):
        grid = SweepGrid(losses=(0.0, 0.05), rtts=(0.02,),
                         partition_durations=(0.0, 2.0))
        config = SweepConfig(workers=2, requests_per_worker=10,
                             tenants=1, seed=3)
        payload = run_sweep(build, grid, config)
        assert validate_sweep(payload) == []
        assert len(payload["cells"]) == 4
        assert payload["all_linearizable"] is True
        heatmap = render_heatmap(payload)
        assert "error_rate" in heatmap

    def test_validate_sweep_catches_problems(self):
        assert validate_sweep({}) != []
        assert validate_sweep({"schema": "nope"}) != []
        good_cell = {key: 0 for key in (
            "loss", "base_rtt", "partition_duration", "ok",
            "linearizable", "requests", "errors", "shed", "stale_reads",
            "net_messages", "net_lost", "net_partition_rejects",
            "error_rate", "timeout_rate", "unavailable_rate",
            "stale_ratio", "mean_net_latency",
        )}
        payload = {
            "schema": "repro.netem.sweep/1",
            "grid": {"losses": [0.0], "rtts": [0.01],
                     "partition_durations": [0.0]},
            "cells": [good_cell],
        }
        assert validate_sweep(payload) == []
        bad = dict(payload)
        bad["cells"] = [dict(good_cell, error_rate=3.5)]
        assert any("error_rate" in p for p in validate_sweep(bad))
        missing = dict(payload)
        missing["cells"] = [
            {k: v for k, v in good_cell.items() if k != "stale_reads"}
        ]
        assert any("stale_reads" in p for p in validate_sweep(missing))
