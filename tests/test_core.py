"""End-to-end tests of the public API: the full Fig. 2 workflow."""

import pytest

from repro.core import (
    build_learned_emulator,
    EvaluationSetup,
    run_multicloud_evaluation,
)
from repro.scenarios import basic_functionality_trace, run_trace


class TestBuilder:
    @pytest.fixture(scope="class")
    def build(self):
        return build_learned_emulator("ec2", mode="constrained", seed=7)

    def test_alignment_ran_and_converged(self, build):
        assert build.alignment is not None
        assert build.alignment.converged

    def test_api_count(self, build):
        assert build.api_count == len(
            __import__("repro.docs", fromlist=["build_catalog"])
            .build_catalog("ec2").api_names()
        )

    def test_backends_are_independent(self, build):
        """Backends share the build's one compiled module (its closures
        are stateless) and nothing else."""
        first = build.make_backend()
        second = build.make_backend()
        assert first._compiled is second._compiled is build.compiled
        vpc = first.invoke("CreateVpc", {"CidrBlock": "10.0.0.0/16"})
        describe = {"VpcId": vpc.data["vpc_id"]}
        assert first.invoke("DescribeVpcs", describe).success
        assert len(second.registry) == 0
        assert not second.invoke("DescribeVpcs", describe).success
        assert build.make_backend(compile=False)._compiled is None

    def test_basic_functionality_program(self, build):
        """§5's basic-functionality check: the DevOps program creating a
        VPC, attaching a subnet, enabling MapPublicIpOnLaunch."""
        emulator = build.make_backend()
        run = run_trace(emulator, basic_functionality_trace())
        assert all(r.response.success for r in run.results)
        assert run.env["vpc"].startswith("vpc-")
        assert run.env["subnet"].startswith("subnet-")
        described = run.results[-1].response
        assert described.data["map_public_ip_on_launch"] is True

    def test_llm_usage_is_tracked(self, build):
        assert build.llm.usage.requests >= 28
        assert build.llm.usage.prompt_tokens > 10_000


class TestEvaluationSetup:
    def test_variant_backends_cover_all_services(self):
        setup = EvaluationSetup(seed=7)
        setup.prepare(variants=("learned_no_align",))
        backends = setup.backends["learned_no_align"]
        assert set(backends) == {"ec2", "network_firewall", "dynamodb"}

    def test_scoring_shape(self):
        setup = EvaluationSetup(seed=7)
        setup.prepare(variants=("learned_no_align",))
        accuracy = setup.score("learned_no_align")
        aligned, total = accuracy.total
        assert total == 12
        assert 0 <= aligned <= 12


class TestMultiCloud:
    def test_azure_replication(self):
        """§5: the same workflow on Azure reaches comparable accuracy."""
        results = run_multicloud_evaluation(seed=7)
        aligned, total = results["learned_aligned"].total
        assert total == 4
        assert aligned == 4
        d2c_aligned, __ = results["d2c"].total
        assert d2c_aligned < aligned
