"""Incremental, multi-pass spec extraction (§4.2).

The LLM iterates over resources in dependency order, generating one SM
at a time.  Cross-SM effects (list maintenance on a parent, association
callbacks) compile to calls into helper transitions that may not exist
yet; those are recorded as :class:`HelperRequirement` stubs for the
linking pass to patch.

Extraction is scheduled in dependency *waves* (see
:func:`~repro.extraction.dependency.extraction_waves`): resources in
the same wave do not depend on each other, so a wave can fan out onto
a thread pool.  Results are merged back in the wave's sorted order, so
the produced :class:`ExtractionState` is identical whether a wave runs
on one thread or eight.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from ..docs.model import ResourceDoc, ServiceDoc
from ..llm.cache import report_from_json, report_to_json
from ..llm.client import SimulatedLLM
from ..llm.prompting import (
    spec_parser,
    synthesize_with_reprompt,
    SynthesisResult,
)
from ..llm.synthesis import (
    attribute_state_type,
    GenerationReport,
    HelperRequirement,
)
from ..resilience.killswitch import kill_point
from ..resilience.errors import ResilienceError
from ..resilience.stats import ResilienceStats
from ..spec import ast
from ..spec.errors import SpecSyntaxError
from ..spec.serializer import serialize_sm
from ..telemetry import ensure_telemetry
from .dependency import extraction_waves


@dataclass
class ExtractionState:
    """Everything the per-resource passes produced, pre-linking."""

    service: str
    provider: str
    specs: dict[str, ast.SMSpec] = field(default_factory=dict)
    helper_requirements: list[HelperRequirement] = field(default_factory=list)
    results: dict[str, SynthesisResult] = field(default_factory=dict)
    order: list[str] = field(default_factory=list)
    #: Resources whose generation failed persistently; their specs are
    #: stubs (state only, no transitions) so the rest of the service
    #: stays usable — graceful degradation instead of a crashed run.
    quarantined: list[str] = field(default_factory=list)

    @property
    def total_attempts(self) -> int:
        return sum(result.attempts for result in self.results.values())

    @property
    def reprompted_resources(self) -> list[str]:
        return [
            name for name, result in self.results.items()
            if result.attempts > 1
        ]


def stub_spec(resource: ResourceDoc) -> ast.SMSpec:
    """A degraded stand-in SM for a resource generation gave up on.

    Carries the documented state variables (so helper patching and
    linking still work when other SMs reference it) but no
    transitions: the emulator answers ``InvalidAction`` for its APIs
    instead of the whole service build crashing.
    """
    states = [
        ast.StateDecl(attr.name, attribute_state_type(attr), None)
        for attr in resource.attributes
    ]
    return ast.SMSpec(
        name=resource.name,
        states=states,
        transitions={},
        parent=resource.parent,
        doc=f"quarantined stub for {resource.name}",
    )


def quarantine_resource(
    state: ExtractionState,
    resource: ResourceDoc,
    attempts: int,
    stats: ResilienceStats | None = None,
) -> None:
    """Record a persistently failing resource and install its stub."""
    if resource.name not in state.quarantined:
        state.quarantined.append(resource.name)
    if stats is not None:
        stats.quarantined += 1
    spec = stub_spec(resource)
    report = GenerationReport(resource=resource.name, quarantined=True)
    state.specs[resource.name] = spec
    state.results[resource.name] = SynthesisResult(
        spec=spec, report=report, attempts=attempts
    )


def install_journaled_resource(
    state: ExtractionState,
    record: dict,
    resource: ResourceDoc,
    parse,
    stats: ResilienceStats | None = None,
) -> None:
    """Re-install one journaled extraction result without the LLM.

    The journal stores the serialized *pre-linking* spec text; the
    serializer guarantees ``parse(serialize(spec))`` round-trips, so
    re-parsing reproduces the exact state the crashed run merged.
    """
    name = record["name"]
    if record.get("quarantined"):
        quarantine_resource(state, resource, record["attempts"], stats)
        return
    spec = parse(record["spec"])
    report = report_from_json(record["report"])
    state.specs[name] = spec
    state.results[name] = SynthesisResult(
        spec=spec, report=report, attempts=record["attempts"]
    )
    state.helper_requirements.extend(report.helpers_needed)


def extract_incrementally(
    llm: SimulatedLLM,
    service_doc: ServiceDoc,
    max_attempts: int = 4,
    quarantine: bool = False,
    stats: ResilienceStats | None = None,
    telemetry=None,
    parallel: int = 1,
    llm_for=None,
    journal=None,
    replay: dict | None = None,
    journal_extra=None,
    on_replay=None,
) -> ExtractionState:
    """Generate one SM per documented resource, dependencies first.

    With ``quarantine`` enabled, a resource whose generation fails
    persistently (syntax budget exhausted, retries exhausted, breaker
    open) is stubbed out and listed in ``state.quarantined`` instead
    of aborting the whole service.

    ``parallel`` sets the thread-pool width for each dependency wave;
    ``llm_for`` optionally maps a resource name to the client that
    should generate it (the pipeline uses per-resource chaos lanes so
    fault injection stays deterministic regardless of thread timing).
    Results merge back in wave order, so the returned state does not
    depend on ``parallel``.

    ``journal`` (a :class:`~repro.durability.BuildJournal`) makes each
    merged resource durable before the next one starts; ``replay``
    maps resource names to journaled records from an interrupted run,
    which are re-installed instead of re-generated.  ``journal_extra``
    supplies per-resource journal fields the pipeline owns (usage
    delta, chaos-lane call count); ``on_replay`` lets it fast-forward
    that state when a record is replayed.
    """
    tele = ensure_telemetry(telemetry)
    state = ExtractionState(
        service=service_doc.name, provider=service_doc.provider
    )
    waves = extraction_waves(service_doc)
    state.order = [name for wave in waves for name in wave]
    by_name = {res.name: res for res in service_doc.resources}
    client_for = llm_for if llm_for is not None else (lambda name: llm)
    replay = replay or {}
    parse = spec_parser(llm)

    def generate(name: str):
        """One resource's synthesis: (name, result | None, error | None)."""
        resource = by_name[name]
        client = client_for(name)
        with tele.span(
            "extraction.resource", kind="resource", resource=name
        ) as span:
            try:
                result = synthesize_with_reprompt(
                    client, resource, max_attempts
                )
            except (SpecSyntaxError, ResilienceError) as error:
                if not quarantine:
                    raise
                span.set("quarantined", True)
                tele.event("quarantined", resource=name,
                           reason=type(error).__name__)
                return name, None, error
            span.set("attempts", result.attempts)
        return name, result, None

    workers = max(1, int(parallel))
    for wave in waves:
        pending = [name for name in wave if name not in replay]
        if workers == 1 or len(pending) <= 1:
            outcomes = {name: generate(name) for name in pending}
        else:
            with tele.anchored():
                with ThreadPoolExecutor(
                    max_workers=min(workers, len(pending))
                ) as pool:
                    outcomes = {
                        out[0]: out for out in pool.map(generate, pending)
                    }
        # Merge strictly in the wave's sorted order — replayed and
        # fresh results interleaved — so spec insertion order (and
        # therefore every downstream artifact) is identical whether
        # the run was interrupted zero times or many.
        for name in wave:
            record = replay.get(name)
            if record is not None:
                install_journaled_resource(
                    state, record, by_name[name], parse, stats
                )
                if on_replay is not None:
                    on_replay(record)
                if journal is not None:
                    journal.replayed()
                continue
            __, result, _error = outcomes[name]
            if result is None:
                quarantine_resource(state, by_name[name], max_attempts, stats)
            else:
                state.specs[name] = result.spec
                state.results[name] = result
                state.helper_requirements.extend(result.report.helpers_needed)
            if journal is not None:
                extra = journal_extra(name) if journal_extra else {}
                if result is None:
                    journal.append(
                        "resource", name=name, quarantined=True,
                        attempts=max_attempts, **extra,
                    )
                else:
                    journal.append(
                        "resource", name=name, quarantined=False,
                        attempts=result.attempts,
                        spec=serialize_sm(result.spec),
                        report=report_to_json(result.report),
                        **extra,
                    )
            kill_point("post-extraction-of-resource")
    return state


def regenerate_resource(
    llm: SimulatedLLM,
    service_doc: ServiceDoc,
    state: ExtractionState,
    resource_name: str,
) -> None:
    """Targeted correction: regenerate one resource cleanly (§4.2).

    Used by the pipeline when consistency checks flag a resource; the
    regenerated SM replaces the faulty one in place, and its helper
    requirements are re-recorded.
    """
    resource = service_doc.resource(resource_name)
    from ..llm.prompting import build_prompt

    prompt = build_prompt(resource, feedback="consistency check failed")
    text, report = llm.regenerate_clean(resource, prompt)
    spec = spec_parser(llm)(text)
    state.specs[resource_name] = spec
    state.results[resource_name] = SynthesisResult(
        spec=spec, report=report, attempts=1
    )
    # Helper requirements are value objects; duplicates from the first
    # pass are deduplicated by the linking pass.
    state.helper_requirements.extend(report.helpers_needed)
