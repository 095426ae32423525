"""The end-to-end extraction pipeline (Fig. 2, left half).

documentation wrangling -> incremental extraction -> specification
linking -> consistency checks -> targeted correction -> an executable
emulator.  Alignment (the right half of Fig. 2) lives in
:mod:`repro.alignment` and consumes this pipeline's output.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from pathlib import Path

from ..docs import build_catalog, render_docs, wrangle
from ..docs.model import ServiceDoc
from ..interpreter.emulator import Emulator
from ..llm.cache import CachingLLM, PromptCache, report_to_json
from ..llm.client import LLMUsage, make_llm, SimulatedLLM
from ..llm.prompting import spec_parser
from ..resilience.chaos import (
    ChaosEngine,
    ChaosLLM,
    ChaosProfile,
    resolve_profile,
)
from ..resilience.errors import ResilienceError
from ..resilience.killswitch import kill_point
from ..resilience.policy import RetryPolicy
from ..resilience.resilient import ResilientLLM
from ..resilience.stats import ResilienceStats
from ..spec import ast
from ..spec.serializer import serialize_sm
from ..spec.validator import collect_violations
from ..telemetry import ensure_telemetry
from .checks import CheckViolation, run_checks
from .incremental import (
    extract_incrementally,
    ExtractionState,
    install_journaled_resource,
    quarantine_resource,
    regenerate_resource,
)
from .linking import link_module, LinkResult


@dataclass
class ExtractionOutcome:
    """Everything the pipeline produced for one service."""

    service: str
    module: ast.SpecModule
    notfound_codes: dict[str, str]
    state: ExtractionState
    link: LinkResult
    initial_violations: list[CheckViolation] = field(default_factory=list)
    remaining_violations: list[CheckViolation] = field(default_factory=list)
    corrected_resources: list[str] = field(default_factory=list)
    validator_violations: list[str] = field(default_factory=list)
    #: What the resilience layer absorbed (all-zero when chaos is off).
    resilience: ResilienceStats = field(default_factory=ResilienceStats)
    #: The chaos profile the run was executed under.
    chaos_profile: str = "off"

    def build_emulator(self, compile: bool = True) -> Emulator:
        """Instantiate a fresh emulator over the extracted module."""
        return Emulator(self.module, notfound_codes=self.notfound_codes,
                        compile=compile)

    @property
    def total_llm_attempts(self) -> int:
        return self.state.total_attempts

    @property
    def quarantined(self) -> list[str]:
        """Resources degraded to stubs after persistent failures."""
        return list(self.state.quarantined)


def _lane_seed(seed: int, resource_name: str) -> int:
    """A stable per-resource chaos seed (``hash()`` is salted per run)."""
    return seed ^ zlib.crc32(resource_name.encode("utf-8"))


def run_extraction(
    service: str = "ec2",
    mode: str = "constrained",
    seed: int = 7,
    llm: SimulatedLLM | None = None,
    service_doc: ServiceDoc | None = None,
    checks_enabled: bool = True,
    correction_rounds: int = 3,
    max_attempts: int = 4,
    chaos: ChaosProfile | str | None = None,
    resilience_policy: RetryPolicy | None = None,
    telemetry=None,
    parallel: int = 1,
    llm_cache: "PromptCache | str | Path | None" = None,
    journal=None,
) -> ExtractionOutcome:
    """Run the full pipeline for one service.

    ``service_doc`` overrides the built-in catalog (used in tests);
    otherwise the catalog is built, rendered to provider text, and
    wrangled back — the LLM only ever sees what documentation pages
    carry.

    ``chaos`` selects a fault-injection profile (a profile, a name, or
    ``None`` to read ``REPRO_CHAOS_PROFILE`` / default off).  Under an
    active profile each resource gets its own chaos *lane* — a chaos +
    retry wrapper whose engine is seeded from (seed, resource name) —
    so injected weather depends only on the resource's own call
    history, never on scheduling.  That makes chaotic runs identical
    at any ``parallel`` width; resources whose generation fails
    persistently are quarantined with stub specs instead of aborting
    the service, and the absorbed weather is reported (lane counters
    merged in sorted resource order) in ``outcome.resilience``.

    ``parallel`` fans each dependency wave of the extraction pass onto
    a thread pool.  ``llm_cache`` (a :class:`PromptCache` or a path)
    replays previously seen completions and memoizes parses; the cache
    sits inside the chaos wrappers, so warm runs still exercise the
    full injected weather.

    ``journal`` (a :class:`~repro.durability.BuildJournal`, already
    started or resumed by the caller) makes each completed resource
    and targeted correction durable; any records it already holds are
    replayed instead of re-executed, with the per-resource usage and
    chaos-lane counters fast-forwarded so the run continues exactly
    where the crashed one stopped.
    """
    if service_doc is None:
        catalog = build_catalog(service)
        pages = render_docs(catalog)
        service_doc = wrangle(pages, provider=catalog.provider,
                              service=service)
        # Not-found codes and undocumented behaviours live outside the
        # page text only in the sense that wrangling recovers them from
        # the header fields; behaviour rules come from prose alone.
    if llm is None:
        llm = make_llm(mode, seed=seed)
    if telemetry is not None and isinstance(llm, SimulatedLLM):
        llm.telemetry = telemetry
    tele = ensure_telemetry(telemetry)

    sim = llm if isinstance(llm, SimulatedLLM) else None
    cache: PromptCache | None = None
    if llm_cache is not None:
        cache = (llm_cache if isinstance(llm_cache, PromptCache)
                 else PromptCache(llm_cache))
        llm = CachingLLM(llm, cache)

    profile = resolve_profile(chaos)
    stats = ResilienceStats()
    chaotic = profile.active
    llm_for = None
    lanes: dict[str, ResilientLLM] = {}
    lane_stats: dict[str, ResilienceStats] = {}

    # Journaled builds give each resource an output-identical *clone*
    # of the model with a private usage meter: completed units journal
    # their exact usage delta, and a resumed run fast-forwards the
    # shared meter past replayed work — so the final accounting (which
    # the saved manifest embeds) is byte-identical to an uninterrupted
    # build's.
    journaling = journal is not None and sim is not None
    unit_clones: dict[str, object] = {}
    unit_meters: dict[str, LLMUsage] = {}
    unit_reported: dict[str, dict] = {}

    def unit_client(resource_name: str):
        client = unit_clones.get(resource_name)
        if client is None:
            clone = sim.metered_clone()
            unit_meters[resource_name] = clone.usage
            unit_reported[resource_name] = {}
            client = CachingLLM(clone, cache) if cache is not None else clone
            unit_clones[resource_name] = client
        return client

    if chaotic:
        base_llm = llm

        def llm_for(resource_name: str) -> ResilientLLM:
            lane = lanes.get(resource_name)
            if lane is None:
                lane_seed = _lane_seed(seed, resource_name)
                lane_stats[resource_name] = ResilienceStats()
                inner = (unit_client(resource_name) if journaling
                         else base_llm)
                lane = ResilientLLM(
                    ChaosLLM(inner, ChaosEngine(profile, seed=lane_seed)),
                    policy=resilience_policy,
                    stats=lane_stats[resource_name],
                    seed=lane_seed,
                    clock=tele.clock,
                    telemetry=telemetry,
                )
                lanes[resource_name] = lane
            return lane
    elif journaling:
        llm_for = unit_client

    def journal_extra(resource_name: str) -> dict:
        """Usage delta + chaos-lane call count for one finished unit."""
        if not journaling or resource_name not in unit_meters:
            return {}
        current = unit_meters[resource_name].as_dict()
        last = unit_reported.get(resource_name) or {}
        delta = {key: current[key] - last.get(key, 0) for key in current}
        unit_reported[resource_name] = current
        sim.usage.add(delta)
        extra: dict = {"usage": delta}
        lane = lanes.get(resource_name)
        if lane is not None:
            extra["calls"] = lane.inner._calls
        return extra

    def on_replay(record: dict) -> None:
        """Fast-forward shared state past one journaled unit."""
        if sim is not None:
            sim.usage.add(record.get("usage") or {})
        calls = record.get("calls") or 0
        if chaotic and calls and llm_for is not None:
            lane = llm_for(record["name"])
            lane.inner._calls = max(lane.inner._calls, calls)

    with tele.span(
        "extraction", kind="phase", service=service, chaos=profile.name
    ) as phase:
        state = extract_incrementally(
            llm, service_doc, max_attempts=max_attempts,
            quarantine=chaotic, stats=stats, telemetry=telemetry,
            parallel=parallel, llm_for=llm_for,
            journal=journal,
            replay=journal.resource_replay() if journal is not None else None,
            journal_extra=journal_extra if journaling else None,
            on_replay=on_replay if journal is not None else None,
        )
        link = link_module(state, service_doc)
        outcome = ExtractionOutcome(
            service=service,
            module=link.module,
            notfound_codes=link.notfound_codes,
            state=state,
            link=link,
            resilience=stats,
            chaos_profile=profile.name,
        )
        tele.counter("extraction.resources").inc(len(state.specs))
        correcting_llm = llm_for if llm_for is not None else (lambda name: llm)

        def finish(outcome: ExtractionOutcome) -> ExtractionOutcome:
            # Lane counters merge in sorted resource order, so the
            # aggregate is independent of scheduling.
            for resource_name in sorted(lane_stats):
                stats.merge(lane_stats[resource_name])
            if cache is not None:
                cache.save()
                for key, value in cache.stats().items():
                    tele.gauge(f"llm.cache.{key}").set(value)
            return outcome

        if not checks_enabled:
            outcome.validator_violations = collect_violations(link.module)
            return finish(outcome)

        violations = run_checks(link.module, service_doc)
        outcome.initial_violations = list(violations)
        correction_replay = (
            journal.correction_replay() if journal is not None else {}
        )
        parse = spec_parser(llm)
        rounds = 0
        while violations and rounds < correction_rounds:
            flagged = sorted({v.resource for v in violations if v.resource})
            with tele.span(
                "extraction.correction", kind="correction",
                round=rounds, flagged=len(flagged),
            ):
                for resource_name in flagged:
                    if (
                        resource_name not in state.specs
                        or resource_name in state.quarantined
                    ):
                        continue
                    record = correction_replay.get((rounds, resource_name))
                    if record is not None:
                        install_journaled_resource(
                            state, record,
                            service_doc.resource(resource_name), parse, stats,
                        )
                        on_replay(record)
                        journal.replayed()
                        if (
                            not record.get("quarantined")
                            and resource_name
                            not in outcome.corrected_resources
                        ):
                            outcome.corrected_resources.append(resource_name)
                            tele.counter("extraction.corrections").inc()
                        continue
                    try:
                        regenerate_resource(
                            correcting_llm(resource_name), service_doc,
                            state, resource_name,
                        )
                    except ResilienceError:
                        # Targeted correction kept failing: degrade to a
                        # stub rather than abort the service build.
                        tele.event("quarantined", resource=resource_name,
                                   reason="correction")
                        quarantine_resource(
                            state, service_doc.resource(resource_name), 1,
                            stats,
                        )
                        if journal is not None:
                            journal.append(
                                "correction", round=rounds,
                                name=resource_name, quarantined=True,
                                attempts=1, **journal_extra(resource_name),
                            )
                        kill_point("post-extraction-of-resource")
                        continue
                    if resource_name not in outcome.corrected_resources:
                        outcome.corrected_resources.append(resource_name)
                        tele.counter("extraction.corrections").inc()
                    if journal is not None:
                        journal.append(
                            "correction", round=rounds, name=resource_name,
                            quarantined=False, attempts=1,
                            spec=serialize_sm(state.specs[resource_name]),
                            report=report_to_json(
                                state.results[resource_name].report
                            ),
                            **journal_extra(resource_name),
                        )
                    kill_point("post-extraction-of-resource")
                link = link_module(state, service_doc)
                outcome.module = link.module
                outcome.notfound_codes = link.notfound_codes
                outcome.link = link
                violations = run_checks(link.module, service_doc)
            rounds += 1
        outcome.remaining_violations = violations
        outcome.validator_violations = collect_violations(outcome.module)
        phase.set("resources", len(state.specs))
        phase.set("quarantined", len(state.quarantined))
        phase.set("corrections", len(outcome.corrected_resources))
        return finish(outcome)
