"""Compiler parity: the compiled serve path is observably identical to
the tree-walking evaluator.

The compiler (``repro.interpreter.compiler``) lowers each SM spec to
closures once at registration time; the evaluator stays the reference
implementation.  These property tests drive both paths through the
full scenario catalog — and through a mild-chaos weather layer — and
assert byte-identical responses, error codes, and final resource
state.
"""

import random

import pytest

from repro.core import build_learned_emulator
from repro.resilience.chaos import ChaosEngine, ChaosProxy, resolve_profile
from repro.resilience.resilient import ResilientBackend
from repro.resilience.stats import ResilienceStats
from repro.scenarios import evaluation_traces, run_trace
from repro.serve.loadgen import TrafficModel

SERVICES = ("ec2", "network_firewall", "dynamodb")


@pytest.fixture(scope="module")
def builds():
    return {
        service: build_learned_emulator(service, mode="constrained", seed=7)
        for service in SERVICES
    }


def _response_bytes(response) -> bytes:
    """Canonical byte serialization of one API response."""
    return repr(
        (response.success, response.error_code, response.error_message,
         response.data)
    ).encode("utf-8")


def _final_state(emulator) -> dict:
    return {
        instance_id: (instance.type_name, instance.parent_id,
                      instance.state)
        for instance_id, instance in emulator.registry.instances.items()
    }


def _assert_parity(compiled_backend, interpreted_backend, trace):
    compiled_run = run_trace(compiled_backend, trace)
    interpreted_run = run_trace(interpreted_backend, trace)
    for compiled_step, interpreted_step in zip(
        compiled_run.results, interpreted_run.results, strict=True
    ):
        assert compiled_step.api == interpreted_step.api
        assert (
            compiled_step.response.error_code
            == interpreted_step.response.error_code
        ), f"{trace.name}/{compiled_step.api}"
        assert _response_bytes(compiled_step.response) == _response_bytes(
            interpreted_step.response
        ), f"{trace.name}/{compiled_step.api}"
    assert compiled_run.env == interpreted_run.env


@pytest.mark.parametrize(
    "trace", evaluation_traces(), ids=lambda t: f"{t.service}-{t.name}"
)
def test_catalog_parity(builds, trace):
    """Every catalog trace: identical responses and final state."""
    build = builds[trace.service]
    compiled = build.make_backend(compile=True)
    interpreted = build.make_backend(compile=False)
    _assert_parity(compiled, interpreted, trace)
    assert _final_state(compiled) == _final_state(interpreted)


def test_catalog_parity_under_mild_chaos(builds):
    """Chaos does not split the paths: with the same fault seed, the
    compiled and interpreted backends absorb the same injected weather
    and still answer identically."""
    profile = resolve_profile("mild")

    def weathered(backend, seed=23):
        return ResilientBackend(
            ChaosProxy(backend, ChaosEngine(profile, seed=seed)),
            stats=ResilienceStats(),
            seed=seed,
        )

    for trace in evaluation_traces():
        build = builds[trace.service]
        compiled = build.make_backend(compile=True)
        interpreted = build.make_backend(compile=False)
        _assert_parity(weathered(compiled), weathered(interpreted), trace)
        assert _final_state(compiled) == _final_state(interpreted)


def test_chaotic_build_parity(builds):
    """A module learned *under* chaos serves identically both ways."""
    build = build_learned_emulator("ec2", mode="constrained", seed=7,
                                   chaos="mild")
    compiled = build.make_backend(compile=True)
    interpreted = build.make_backend(compile=False)
    for trace in evaluation_traces():
        if trace.service != "ec2":
            continue
        _assert_parity(compiled, interpreted, trace)
        assert _final_state(compiled) == _final_state(interpreted)


@pytest.mark.parametrize("service", SERVICES)
def test_random_traffic_parity(builds, service):
    """Seeded random traffic answers identically both ways: creates,
    cross-SM calls, describes of live and missing ids, and requests
    with parameters left out."""
    build = builds[service]
    compiled = build.make_backend(compile=True)
    interpreted = build.make_backend(compile=False)
    model = TrafficModel(build.module, compiled.read_only)
    rng = random.Random(11)
    ids_by_sm: dict[str, list[str]] = {}
    successes = 0
    for step in range(800):
        api, params, __ = model.request(rng, 0.3, ids_by_sm)
        fast = compiled.invoke(api, params)
        slow = interpreted.invoke(api, params)
        assert _response_bytes(fast) == _response_bytes(slow), (
            f"step {step}: {api} {params}"
        )
        successes += fast.success
        created = fast.data.get("id") if fast.success else None
        if created:
            ids_by_sm.setdefault(model.owning_sm(api), []).append(created)
    assert successes > 100
    assert _final_state(compiled) == _final_state(interpreted)
