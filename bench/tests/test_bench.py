"""Tests of the benchmark itself: inputs, tracing and the smoke run.

Run with ``PYTHONPATH=src python -m pytest -q bench/tests``.
"""

from __future__ import annotations

import ipaddress
import itertools
import json
import multiprocessing
import multiprocessing.resource_tracker
import random
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

from bench import compare, harness, ledger, workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _synthetic_models(workload):
    """Prefilled models with made-up ids, as if the server answered."""
    models = workloads.plan_tenants(workload)
    for model in models:
        for vpc in model.vpcs:
            vpc.id = f"vpc-{model.name}-{vpc.slot}"
            vpc.sg = f"sg-{model.name}-{vpc.slot}"
            vpc.volume = f"vol-{model.name}-{vpc.slot}"
            for index in range(workloads.SUBNETS_PER_VPC):
                vpc.subnets[f"subnet-{vpc.slot}-{index}"] = (
                    workloads.subnet_cidr(vpc.slot, index)
                )
    return models


def _ops(workload, client_index, seed, count):
    """``count`` ops of one client, writes answered with success."""
    client = workloads.Client(
        workload, client_index, _synthetic_models(workload)
    )
    rng = random.Random(seed)
    created = itertools.count()
    ops = []
    for __ in range(count):
        op = client.next_op(rng)
        ops.append(op)
        if op.write:
            body = {"id": f"subnet-new-{next(created)}"}
            assert client.complete(op, body) is None
    return ops


def test_generator_is_deterministic_per_seed():
    workload = workloads.WORKLOADS["read-mostly"]

    def stream(seed):
        return [(op.tenant, op.action, op.params)
                for op in _ops(workload, 0, seed, 3000)]

    assert stream(5) == stream(5)
    assert stream(5) != stream(6)


def test_client_flags_responses_its_model_does_not_expect():
    workload = workloads.WORKLOADS["read-mostly"]
    client = workloads.Client(workload, 0, _synthetic_models(workload))
    vpc = client.slices[0][1][0]
    op = workloads.Op(client.slices[0][0], "DescribeVpcs",
                      {"VpcId": vpc.id}, vpc, write=False)
    good = {"cidr_block": vpc.cidr, "enable_dns_support": True,
            "enable_dns_hostnames": False,
            "subnet_cidrs": list(vpc.subnets.values())}
    assert client.complete(op, good) is None
    assert "cidr_block" in client.complete(op, {**good, "cidr_block": "x"})
    assert "subnet_cidrs" in client.complete(op, {**good, "subnet_cidrs": []})
    assert "InternalError" in client.complete(
        op, {"Error": {"Code": "InternalError"}}
    )


def test_same_seed_sends_the_same_envelopes():
    digests = [
        harness.run("read-mostly", seed, 0, smoke=True)["detail"][
            "inputs_digest"]
        for seed in (3, 3, 4)
    ]
    assert digests[0] == digests[1] != digests[2]


def _client_networks(workload, client):
    """Every network a client's requests may name a CIDR inside: its
    own VPCs' blocks and its own ingress-rule range."""
    return [
        ipaddress.ip_network(workloads.vpc_cidr(slot))
        for slot in range(workload.vpcs_per_tenant)
        if workloads.owner(slot, workload.clients) == client
    ] + [ipaddress.ip_network(f"172.{16 + client}.0.0/16")]


def test_client_cidrs_are_disjoint():
    workload = workloads.WORKLOADS["sharded"]
    networks = [
        _client_networks(workload, index)
        for index in range(workload.clients)
    ]
    for mine, theirs in itertools.combinations(networks, 2):
        assert not any(a.overlaps(b) for a in mine for b in theirs)
    for index in range(workload.clients):
        for op in _ops(workload, index, 9, 4000):
            cidr = op.params.get("CidrBlock") or op.params.get("Cidr")
            if cidr is None:
                continue
            net = ipaddress.ip_network(cidr)
            assert any(net.subnet_of(own) for own in networks[index]), cidr


def test_tenants_split_two_per_shard():
    from repro.serve.shard import shard_for

    placement = [shard_for(name, 2) for name in workloads.TENANTS]
    assert sorted(placement) == [0, 0, 1, 1]
    # Consecutive tenants alternate shards.
    assert all(a != b for a, b in zip(placement, placement[1:]))


def _busy(microseconds: float) -> None:
    end = time.perf_counter() + microseconds / 1e6
    while time.perf_counter() < end:
        pass


def test_nested_self_times_sum_to_the_root():
    book = ledger.Ledger(layers=("outer", "inner", "leaf", ledger.CLIENT))
    leaf = book.wrap("leaf", lambda: _busy(50))

    def inner_body():
        _busy(30)
        leaf()
        leaf()

    inner = book.wrap("inner", inner_body)
    outer = book.wrap("outer", lambda: (inner(), _busy(20), inner()))
    frame = book.open_root()
    outer()
    book.close_root(frame)

    totals = book.totals()
    root = book.trees()[0][-1]
    assert root["layer"] == ledger.CLIENT
    assert book.root_ns() == root["duration_ns"]
    assert sum(t["self_ns"] for t in totals.values()) == root["duration_ns"]
    assert [totals[name]["calls"] for name in ("outer", "inner", "leaf")] \
        == [1, 2, 4]
    assert all(t["self_ns"] > 0 for t in totals.values())

    # With overheads, each call and each wrapped child is charged once.
    book.overhead_in, book.overhead_out = 100.0, 40.0
    corrected = sum(t["self_ns"] for t in book.totals().values())
    assert corrected == pytest.approx(
        root["duration_ns"] - 7 * 100.0 - 7 * 40.0
    )


def test_calibration_is_positive_and_small():
    cost = ledger.calibrate()
    assert 0 < cost["overhead_in"] + cost["overhead_out"] < 20_000


class _Tree:
    """A call tree of seven small methods."""

    def leaf(self):
        return sum(range(200))

    def node(self):
        return self.leaf() + self.leaf()

    def top(self):
        return self.node() + self.node()


def _time_trees(book, calls):
    tree = _Tree()
    for __ in range(calls):
        frame = book.open_root()
        tree.top()
        book.close_root(frame)


def test_calibrated_wrapper_cost_recovers_the_untraced_time(monkeypatch):
    """The same call trees, timed bare and wrapped, in alternating short
    chunks so that a drifting host speed moves both alike.  Each chunk
    pair, with the calibration taken next to it, gives one ratio; their
    median ignores a pair that a busy host disturbed."""
    names = ("top", "node", "leaf")
    raw, corrected = [], []
    for __ in range(40):
        cost = ledger.calibrate()
        bare = ledger.Ledger(keep_trees=0)
        book = ledger.Ledger(keep_trees=0, layers=names + (ledger.CLIENT,))
        _time_trees(bare, 200)
        for name in names:
            monkeypatch.setattr(_Tree, name,
                                book.wrap(name, _Tree.__dict__[name]))
        _time_trees(book, 200)
        monkeypatch.undo()
        book.charge([cost])
        totals = book.totals()
        wrapper_ns = sum(
            t["raw_self_ns"] - t["self_ns"] for t in totals.values()
        )
        raw.append(book.root_ns() / bare.root_ns())
        corrected.append((book.root_ns() - wrapper_ns) / bare.root_ns())
    # The wrappers cost about as much as the trees' own work: uncorrected,
    # the traced time is far off; corrected, it is close.  On a shared
    # host the corrected median of one process lands 0.87-1.15, so the
    # check is that at least about four fifths of the excess is removed.
    assert statistics.median(raw) > 1.5
    assert statistics.median(corrected) == pytest.approx(1.0, abs=0.2)


def _stub_env(workload, reply):
    """An environment whose front door is ``reply(payload)``."""
    return types.SimpleNamespace(
        workload=workload, call=lambda payload, tenant: reply(payload),
        clock=types.SimpleNamespace(sleep=lambda seconds: None),
    )


def _stub_phase(workload, reply, count):
    client = workloads.Client(workload, 0, _synthetic_models(workload))
    return harness.run_phase(_stub_env(workload, reply), [client], 1,
                             "stub", count)


def test_throughput_counts_stalls_in_few_blocks():
    workload = workloads.WORKLOADS["read-mostly"]
    block = workload.rate // 10
    sent = itertools.count()

    def stalling(payload):
        # One stall in every third block: the median block never sees it.
        if next(sent) % (3 * block) == block // 2:
            time.sleep(0.1)
        return "{}"

    smooth = harness._merge([_stub_phase(workload, lambda p: "{}", 6 * block)])
    stalled = harness._merge([_stub_phase(workload, stalling, 6 * block)])
    assert stalled["rate"] < 0.6 * smooth["rate"]


def test_a_raising_front_door_counts_as_failed_requests():
    workload = workloads.WORKLOADS["read-mostly"]
    sent = itertools.count()

    def flaky(payload):
        if next(sent) % 2:
            raise RuntimeError("backend fell over")
        return "not json"

    phase = _stub_phase(workload, flaky, 100)
    assert (phase["tally"].sent, phase["tally"].failed) == (100, 100)
    assert "raised RuntimeError" in " ".join(phase["tally"].failures)
    assert len(phase["latencies"]) == 100


def test_trace_restores_wrappers_and_reports_every_layer():
    originals = {
        (owner, name): owner.__dict__[name]
        for __, owner, name, __ in ledger.targets()
    }
    record = harness.run("read-mostly", 1, 0, trace=True, smoke=True)
    for (owner, name), original in originals.items():
        assert owner.__dict__[name] is original, f"{owner.__name__}.{name}"
    assert record["correct"], record["detail"]
    names = [metric["name"] for metric in SPEC["per_layer"]]
    assert list(record["metrics"]) == names
    shares = sum(
        metric["value"] for name, metric in record["metrics"].items()
        if name.endswith(".share")
    )
    assert shares == pytest.approx(1.0, abs=0.01)


def test_spec_names_every_metric_the_harness_reports():
    assert [m["name"] for m in SPEC["end_to_end"]] == [
        name for name, __ in harness.END_TO_END
    ]
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == \
        harness.per_layer_names()
    assert [w["name"] for w in SPEC["workloads"]] == \
        list(workloads.WORKLOADS)


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(base, [v * 1.02 for v in base], 0.1, True)[0] \
        == "ok"
    assert compare.verdict(base, [v * 1.3 for v in base], 0.1, True)[0] \
        == "regressed"
    assert compare.verdict(base, [v * 1.3 for v in base], 0.1, False)[0] \
        == "ok"
    noisy = [60.0, 140.0, 100.0, 80.0, 120.0]
    assert compare.verdict(base, noisy, 0.1, True)[0] == "unresolved"


def test_sharded_run_leaves_no_process_behind():
    record = harness.run("sharded", 1, 0, smoke=True)
    assert record["correct"] is True
    tracker = multiprocessing.resource_tracker._resource_tracker
    pid = tracker._pid
    assert pid is not None  # spawning the shard workers launched it
    harness.reap_children()
    assert multiprocessing.active_children() == []
    assert tracker._pid is None
    assert not Path(f"/proc/{pid}").exists()
    assert not Path(f"/proc/{tracker}").exists()


def test_smoke_run_exits_zero_with_no_failures():
    child = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    assert child.returncode == 0, child.stdout[-2000:] + child.stderr
    result = json.loads(child.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    for workload in workloads.WORKLOADS:
        for name, __ in harness.END_TO_END:
            assert f"{workload}.{name}" in result["metrics"]
