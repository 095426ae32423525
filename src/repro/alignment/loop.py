"""The closed alignment loop (§4.3): trace, diff, diagnose, repair,
repeat — continuously improving emulator fidelity against the cloud.

The loop talks to the *real* cloud, so it is built to survive bad
weather: under an active chaos profile the cloud is wrapped in the
chaos + retry layers, transient divergences are skipped rather than
repaired, completed rounds are checkpointed, and a fault that escapes
mid-round resumes the loop at the failed round instead of restarting
from scratch.  Everything absorbed is accounted in the report's
:class:`~repro.resilience.stats.ResilienceStats`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from ..cloud.engine import ReferenceCloud
from ..docs.model import ServiceDoc
from ..interpreter.compiler import compile_module
from ..interpreter.emulator import Emulator
from ..llm.client import SimulatedLLM
from ..resilience.chaos import (
    ChaosEngine,
    ChaosLLM,
    ChaosProfile,
    ChaosProxy,
    resolve_profile,
)
from ..resilience.errors import ResilienceError
from ..resilience.killswitch import kill_point
from ..resilience.policy import RetryPolicy
from ..resilience.resilient import ResilientBackend, ResilientLLM
from ..resilience.stats import ResilienceStats
from ..spec import ast
from ..spec.parser import parse_sm
from ..spec.serializer import serialize_sm
from ..spec.validator import collect_violations
from ..telemetry import ensure_telemetry
from .diagnose import apply_repair, diagnose, Diagnosis, Repair
from .differ import diff_traces, DiffReport
from .symbolic import ClassCoverage
from .tracegen import TraceBuilder


@dataclass
class AlignmentRound:
    """One iteration of the loop."""

    index: int
    traces: int
    diff: DiffReport
    diagnoses: list[Diagnosis] = field(default_factory=list)
    repairs: list[Repair] = field(default_factory=list)
    coverage: ClassCoverage | None = None
    #: Set when the round was abandoned after repeated faults: the
    #: loop degraded past it instead of crashing the whole run.
    faulted: str = ""
    #: True when the round was reinstated from the build journal on
    #: resume instead of being executed.
    replayed: bool = False
    #: Journaled divergence count for replayed rounds, whose
    #: ``DiffReport`` is empty because the traces were not re-diffed.
    divergence_count: int | None = None


@dataclass
class AlignmentCheckpoint:
    """Progress ledger: which rounds completed, what each one cost.

    A mid-round fault rolls the loop back to this ledger — completed
    rounds (and the repairs they applied to the module) are never
    redone; only the interrupted round re-runs.
    """

    completed_rounds: list[int] = field(default_factory=list)
    #: round index -> times it was restarted after a fault.
    restarts: dict[int, int] = field(default_factory=dict)

    def record_fault(self, round_index: int) -> int:
        count = self.restarts.get(round_index, 0) + 1
        self.restarts[round_index] = count
        return count


@dataclass
class AlignmentReport:
    """The loop's outcome."""

    rounds: list[AlignmentRound] = field(default_factory=list)
    converged: bool = False
    validator_violations: list[str] = field(default_factory=list)
    #: What the resilience layer absorbed (all-zero when chaos is off).
    resilience: ResilienceStats = field(default_factory=ResilienceStats)
    checkpoint: AlignmentCheckpoint = field(
        default_factory=AlignmentCheckpoint
    )
    chaos_profile: str = "off"

    @property
    def total_divergences(self) -> int:
        return sum(
            r.divergence_count
            if r.divergence_count is not None
            else len(r.diff.divergences)
            for r in self.rounds
        )

    @property
    def total_repairs(self) -> int:
        return sum(len(r.repairs) for r in self.rounds)

    @property
    def doc_gaps_learned(self) -> int:
        return sum(
            1
            for round_ in self.rounds
            for repair in round_.repairs
            if repair.kind == "learned_assert"
        )


def _run_round(
    round_index: int,
    module: ast.SpecModule,
    notfound_codes: dict[str, str],
    service_doc: ServiceDoc,
    llm,
    cloud_factory,
    skip_transient: bool,
    telemetry=None,
    parallel: int = 1,
    compile: bool = True,
) -> AlignmentRound:
    """One full iteration: enumerate, trace, diff, diagnose, repair."""
    tele = ensure_telemetry(telemetry)
    with tele.span("alignment.tracegen", kind="tracegen") as span:
        builder = TraceBuilder(module)
        traces, coverage = builder.build_all()
        span.set("classes_covered", len(coverage.covered))
        span.set("classes_skipped", len(coverage.skipped))

    compiled = compile_module(module) if compile else None

    def make_pair():
        return (
            cloud_factory(),
            Emulator(module, notfound_codes=notfound_codes,
                     telemetry=telemetry, compile=compile,
                     compiled=compiled),
        )

    cloud, emulator = make_pair()
    diff = diff_traces(cloud, emulator, traces,
                       skip_transient=skip_transient, telemetry=telemetry,
                       parallel=parallel,
                       backend_factory=make_pair if parallel > 1 else None)
    round_report = AlignmentRound(
        index=round_index, traces=len(traces), diff=diff,
        coverage=coverage,
    )
    repaired_targets: set[tuple[str, str]] = set()
    for divergence in diff.divergences:
        with tele.span(
            "alignment.diagnose", kind="diagnosis",
            api=divergence.api, reason=divergence.reason,
        ) as span:
            diagnosis = diagnose(divergence, module, service_doc, llm)
            round_report.diagnoses.append(diagnosis)
            key = (diagnosis.sm, diagnosis.api)
            if key in repaired_targets:
                continue
            repair = apply_repair(diagnosis, module, service_doc)
            if repair is not None:
                round_report.repairs.append(repair)
                repaired_targets.add(key)
                span.set("repair", repair.kind)
                tele.counter("alignment.repairs", kind=repair.kind).inc()
    return round_report


def align_module(
    module: ast.SpecModule,
    notfound_codes: dict[str, str],
    service_doc: ServiceDoc,
    llm: SimulatedLLM,
    cloud_factory=None,
    cloud_seed: int = 11,
    max_rounds: int = 4,
    chaos: ChaosProfile | str | None = None,
    resilience_policy: RetryPolicy | None = None,
    max_round_restarts: int = 3,
    telemetry=None,
    parallel: int = 1,
    compile: bool = True,
    journal=None,
) -> AlignmentReport:
    """Run the alignment loop in place on ``module``.

    Each round symbolically enumerates the current spec's equivalence
    classes, generates one guided trace per class, diffs emulator
    against a fresh *real* cloud, and repairs every diagnosed
    divergence.  Convergence = a round with no divergences.

    ``service_doc`` is the wrangled documentation (what diagnosis
    consults to attribute divergence to spec vs docs); ``cloud_factory``
    builds the ground-truth backend.  The two are distinct on purpose:
    the cloud enforces behaviour the documentation may not mention.
    When ``cloud_factory`` is omitted, the reference cloud for the
    module's service catalog is used.

    ``chaos`` selects a fault-injection profile (a profile, a name, or
    ``None`` to read ``REPRO_CHAOS_PROFILE`` / default off).  Under an
    active profile the cloud and the LLM are wrapped in the chaos +
    retry layers; a fault that still escapes restarts only the current
    round (completed rounds are checkpointed), and a round that faults
    more than ``max_round_restarts`` times is marked ``faulted`` and
    skipped rather than crashing the loop.

    ``parallel`` shards each round's differential pass across that
    many backend pairs (see :func:`~repro.alignment.differ.diff_traces`);
    ``compile`` selects the emulator's compiled fast path (on by
    default) versus the tree-walking evaluator.

    ``journal`` (a :class:`~repro.durability.BuildJournal`, already
    started or resumed by the caller) makes each completed round
    durable — the post-round machine texts, applied repairs, and the
    usage/chaos counters the round consumed.  Rounds it already holds
    are reinstated (machines overwritten from the journaled text)
    instead of re-run, so a resumed loop continues exactly where the
    crashed one stopped and converges to the same module.
    """
    if cloud_factory is None:
        from ..docs import build_catalog

        catalog = build_catalog(module.service)
        cloud_factory = lambda: ReferenceCloud(catalog, seed=cloud_seed)  # noqa: E731

    tele = ensure_telemetry(telemetry)
    profile = resolve_profile(chaos)
    stats = ResilienceStats()
    backend_stats: list[ResilienceStats] = []
    backend_stats_lock = threading.Lock()
    chaotic = profile.active
    chaos_llm: ChaosLLM | None = None
    base_usage = getattr(llm, "usage", None)
    if chaotic:
        engine = ChaosEngine(profile, seed=cloud_seed)
        chaos_llm = ChaosLLM(llm, engine)
        llm = ResilientLLM(
            chaos_llm,
            policy=resilience_policy,
            stats=stats,
            seed=cloud_seed,
            clock=tele.clock,
            telemetry=telemetry,
        )
        base_factory = cloud_factory

        def cloud_factory():
            # Each backend gets its own stats ledger (and, when the
            # diff pass is sharded, its own proxy call counter via
            # _chaos_wrap), so concurrent shards never race on shared
            # counters; ledgers are summed into ``stats`` at the end,
            # and the sum is order-independent.
            ledger = ResilienceStats()
            with backend_stats_lock:
                backend_stats.append(ledger)
            return ResilientBackend(
                _chaos_wrap(base_factory(), engine),
                policy=resilience_policy,
                stats=ledger,
                seed=cloud_seed,
                clock=tele.clock,
                telemetry=telemetry,
            )

    report = AlignmentReport(resilience=stats, chaos_profile=profile.name)
    checkpoint = report.checkpoint

    def round_delta() -> dict:
        """Usage + chaos counters one round (attempt) consumed — what a
        resumed run must fast-forward past to stay byte-identical."""
        extra: dict = {}
        if base_usage is not None:
            current = base_usage.as_dict()
            extra["usage"] = {
                key: current[key] - usage_before.get(key, 0)
                for key in current
            }
        if chaos_llm is not None:
            extra["calls"] = chaos_llm._calls
        return extra

    replayed_rounds: list[dict] = []
    if journal is not None:
        # Rebuild the fault ledger and fast-forward the counters the
        # interrupted run burned, so the live loop's give-up thresholds
        # and injected weather match an uninterrupted run's exactly.
        for record in journal.records:
            record_type = record.get("type")
            if record_type == "round_fault":
                stats.round_restarts += 1
                checkpoint.record_fault(record["index"])
            elif record_type != "round":
                continue
            if base_usage is not None:
                base_usage.add(record.get("usage") or {})
            if chaos_llm is not None and record.get("calls"):
                chaos_llm._calls = max(chaos_llm._calls, record["calls"])
        replayed_rounds = journal.round_records()

    with tele.span(
        "alignment", kind="phase", service=module.service,
        chaos=profile.name,
    ) as phase:
        for record in replayed_rounds:
            # Machines carry the journaled round's applied repairs;
            # overwriting existing keys preserves module order.
            for name, text in record["machines"].items():
                spec = parse_sm(text)
                existing = module.machines.get(name)
                if existing is not None and not spec.doc:
                    # Doc strings serialize as comments, which the
                    # parser drops; rounds never touch them, so the
                    # pre-round doc is the post-round doc.
                    spec.doc = existing.doc
                module.machines[name] = spec
            report.rounds.append(
                AlignmentRound(
                    index=record["index"], traces=record["traces"],
                    diff=DiffReport(),
                    repairs=[Repair(**fix) for fix in record["repairs"]],
                    faulted=record.get("faulted", ""),
                    replayed=True,
                    divergence_count=record["divergences"],
                )
            )
            if not record.get("faulted"):
                checkpoint.completed_rounds.append(record["index"])
            if record.get("converged"):
                report.converged = True
            journal.replayed()

        round_index = len(replayed_rounds)
        while round_index < max_rounds and not report.converged:
            usage_before = (
                base_usage.as_dict() if base_usage is not None else {}
            )
            with tele.span(
                "alignment.round", kind="round", index=round_index
            ) as round_span:
                try:
                    round_report = _run_round(
                        round_index, module, notfound_codes, service_doc,
                        llm, cloud_factory, skip_transient=chaotic,
                        telemetry=telemetry, parallel=parallel,
                        compile=compile,
                    )
                except ResilienceError as fault:
                    # Mid-round fault: resume from the checkpoint —
                    # completed rounds (and their repairs) stand; only
                    # this round re-runs.
                    stats.round_restarts += 1
                    round_span.set("restarted", True)
                    tele.event("round_restart", round=round_index,
                               fault=str(fault))
                    if journal is not None:
                        journal.append("round_fault", index=round_index,
                                       **round_delta())
                    if (
                        checkpoint.record_fault(round_index)
                        > max_round_restarts
                    ):
                        report.rounds.append(
                            AlignmentRound(
                                index=round_index, traces=0,
                                diff=DiffReport(), faulted=str(fault),
                            )
                        )
                        if journal is not None:
                            journal.append(
                                "round", index=round_index, traces=0,
                                divergences=0, converged=False,
                                faulted=str(fault), repairs=[], machines={},
                            )
                        round_index += 1
                    continue
                round_span.set("traces", round_report.traces)
                round_span.set("divergences",
                               len(round_report.diff.divergences))
                round_span.set("repairs", len(round_report.repairs))
                # The crash window the journal exists for: the round's
                # work is done but not yet durable, so a resumed run
                # must redo it — and lands on the same result.
                kill_point("mid-alignment-round")
            report.rounds.append(round_report)
            checkpoint.completed_rounds.append(round_index)
            if journal is not None:
                journal.append(
                    "round", index=round_index,
                    traces=round_report.traces,
                    divergences=len(round_report.diff.divergences),
                    converged=not round_report.diff.divergences,
                    faulted="",
                    repairs=[vars(fix) for fix in round_report.repairs],
                    # A round only mutates the machines its repairs
                    # name; journaling just those keeps the record (and
                    # the fsync behind it) proportional to the work.
                    machines={
                        name: serialize_sm(module.machines[name])
                        for name in sorted(
                            {fix.sm for fix in round_report.repairs}
                        )
                    },
                    **round_delta(),
                )
            if not round_report.diff.divergences:
                report.converged = True
                break
            round_index += 1
        phase.set("rounds", len(report.rounds))
        phase.set("converged", report.converged)
    for ledger in backend_stats:
        stats.merge(ledger)
    report.validator_violations = collect_violations(module)
    return report


def _chaos_wrap(backend, engine: ChaosEngine):
    """Wrap a backend in chaos unless the factory already did."""
    if isinstance(backend, ChaosProxy):
        return backend
    return ChaosProxy(backend, engine)
