"""The run report: one folded view of what a build did and cost.

:class:`RunReport` collapses a finished
:class:`~repro.core.builder.LearnedEmulatorBuild` — module shape,
:class:`~repro.llm.client.LLMUsage`,
:class:`~repro.resilience.stats.ResilienceStats`, alignment outcome —
plus the run's metrics snapshot into one structure with three
renderings: the CLI's console summary, machine-readable JSON
(``repro build --json``), and the JSONL trailer record.

:func:`render_trace_report` is the offline counterpart: it takes a
reloaded JSONL trace and renders the per-phase latency / token /
fault breakdown (``repro report <trace.jsonl>``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .export import render_span_tree, TraceData


@dataclass
class RunReport:
    """Everything one build produced, summarized."""

    service: str
    machines: int
    apis: int
    llm: dict
    alignment: dict | None
    resilience: dict
    quarantined: list[str] = field(default_factory=list)
    chaos_profile: str = "off"
    #: Journal/crash-recovery counters; ``None`` for unjournaled runs.
    durability: dict | None = None
    #: Filled only when the build ran with a live telemetry sink.
    spans: int = 0
    metrics: dict | None = None

    @classmethod
    def from_build(cls, build, telemetry=None) -> "RunReport":
        """Fold a finished build (duck-typed) into a report."""
        usage = build.llm.usage
        alignment = None
        if build.alignment is not None:
            alignment = {
                "rounds": len(build.alignment.rounds),
                "repairs": build.alignment.total_repairs,
                "divergences": build.alignment.total_divergences,
                "doc_gaps": build.alignment.doc_gaps_learned,
                "converged": build.alignment.converged,
            }
        resilience = build.resilience
        report = cls(
            service=build.service,
            machines=len(build.module.machines),
            apis=build.api_count,
            llm={
                "requests": usage.requests,
                "prompt_tokens": usage.prompt_tokens,
                "completion_tokens": usage.completion_tokens,
                "total_tokens": usage.prompt_tokens
                + usage.completion_tokens,
                "failed_requests": usage.failed_requests,
            },
            alignment=alignment,
            resilience={**resilience.as_dict(), "clean": resilience.clean},
            quarantined=list(build.extraction.quarantined),
            chaos_profile=build.extraction.chaos_profile,
        )
        durability = getattr(build, "durability", None)
        if durability is not None and not durability.untouched:
            report.durability = durability.as_dict()
        if telemetry is not None and telemetry.enabled:
            report.spans = telemetry.tracer.span_count
            report.metrics = telemetry.metrics.snapshot()
        return report

    def to_dict(self) -> dict:
        record = {
            "service": self.service,
            "machines": self.machines,
            "apis": self.apis,
            "llm": dict(self.llm),
            "alignment": dict(self.alignment) if self.alignment else None,
            "resilience": dict(self.resilience),
            "quarantined": list(self.quarantined),
            "chaos_profile": self.chaos_profile,
        }
        if self.durability is not None:
            record["durability"] = dict(self.durability)
        if self.spans:
            record["spans"] = self.spans
        if self.metrics is not None:
            record["metrics"] = self.metrics
        return record

    def render_console(self) -> str:
        """The ``repro build`` summary block."""
        llm = self.llm
        lines = [
            f"service:   {self.service}",
            f"machines:  {self.machines}",
            f"apis:      {self.apis}",
            f"llm calls: {llm['requests']} "
            f"({llm['prompt_tokens']} prompt + "
            f"{llm['completion_tokens']} completion = "
            f"{llm['total_tokens']} tokens, "
            f"{llm['failed_requests']} failed)",
        ]
        if self.alignment is not None:
            lines.append(
                f"alignment: {self.alignment['rounds']} round(s), "
                f"{self.alignment['repairs']} repair(s), "
                f"converged={self.alignment['converged']}"
            )
        if not self.resilience.get("clean", True):
            quarantined = self.quarantined
            lines.append(
                f"resilience: {self.resilience['retries']} retried, "
                f"{self.resilience['gave_ups']} gave up, "
                f"{self.resilience['round_restarts']} round restart(s), "
                f"{len(quarantined)} quarantined"
                + (f" ({', '.join(quarantined)})" if quarantined else "")
            )
        if self.durability is not None:
            durability = self.durability
            lines.append(
                f"durability: {durability['journal_appends']} journal "
                f"append(s), {durability['journal_replays']} replayed, "
                f"{durability['resumes']} resume(s), "
                f"{durability['torn_records_dropped']} torn record(s) "
                f"dropped"
            )
        return "\n".join(lines)


#: The event names the resilience layer emits, in display order.
FAULT_EVENTS = ("retry", "breaker_trip", "gave_up", "deadline_hit",
                "round_restart", "quarantined", "llm_parse_failure",
                "shard.restart", "shard.heartbeat_miss")


def _phase_rows(data: TraceData) -> list[tuple[str, int, dict, float]]:
    """(name, depth, kind-counts, duration) for build + phase spans."""
    children = data.span_children()

    def subtree_counts(span: dict) -> dict:
        counts: dict[str, int] = {}
        pending = [span]
        while pending:
            node = pending.pop()
            kind = node.get("kind") or "span"
            counts[kind] = counts.get(kind, 0) + 1
            pending.extend(children.get(node.get("id"), ()))
        return counts

    rows: list[tuple[str, int, dict, float]] = []
    roots = children.get(None, [])
    if len(roots) > 12:
        # Serve traces have one root span per request; fold the flood
        # into one aggregate row per span name.
        grouped: dict[str, tuple[int, dict, float]] = {}
        for root in roots:
            name = root.get("name", "?")
            count, counts, duration = grouped.get(name, (0, {}, 0.0))
            for kind, n in subtree_counts(root).items():
                counts[kind] = counts.get(kind, 0) + n
            grouped[name] = (
                count + 1, counts, duration + root.get("duration", 0.0)
            )
        for name in sorted(grouped):
            count, counts, duration = grouped[name]
            rows.append((f"{name} ×{count}", 0, counts, duration))
        return rows
    for root in roots:
        rows.append((root.get("name", "?"), 0, subtree_counts(root),
                     root.get("duration", 0.0)))
        for child in children.get(root.get("id"), []):
            if child.get("kind") != "phase":
                continue
            rows.append((child.get("name", "?"), 1, subtree_counts(child),
                         child.get("duration", 0.0)))
    return rows


def _metric_total(metrics: dict, prefix: str,
                  by_label: str | None = None) -> "int | dict":
    """Sum one counter family, flat or grouped by a label value."""
    flat = 0
    grouped: dict[str, int] = {}
    for key, record in metrics.items():
        if not key.startswith(prefix):
            continue
        if key != prefix and not key.startswith(prefix + "{"):
            continue
        value = int(record.get("value", 0))
        flat += value
        if by_label is not None:
            __, brace, labels = key.partition("{")
            for pair in labels.rstrip("}").split(",") if brace else ():
                label, __, label_value = pair.partition("=")
                if label == by_label:
                    grouped[label_value] = (
                        grouped.get(label_value, 0) + value
                    )
    return grouped if by_label is not None else flat


def _serving_rows(metrics: dict) -> list[str]:
    """Fold ``serve.*`` metrics into report fragments (empty when the
    trace did not come from the serving layer)."""

    def total(prefix: str, by_label: str | None = None) -> "int | dict":
        return _metric_total(metrics, prefix, by_label)

    requests = total("serve.requests")
    if not requests:
        return []
    rows = [f"{requests} request(s)"]
    shed_by_code = total("serve.shed", by_label="code")
    if shed_by_code:
        rows.append("shed " + " + ".join(
            f"{count} {code}"
            for code, count in sorted(shed_by_code.items())
        ))
    rejects = total("serve.validation_rejects")
    if rejects:
        rows.append(f"{rejects} validation reject(s)")
    degraded_reads = total("serve.degraded_reads")
    if degraded_reads:
        rows.append(f"{degraded_reads} degraded read(s)")
    samples = metrics.get("serve.queue_depth_samples", {})
    if samples.get("count"):
        rows.append(
            f"queue depth max {samples.get('max', 0):.0f} "
            f"(mean {samples.get('mean', 0):.2f} "
            f"over {samples['count']} sample(s))"
        )
    tenants = total("serve.tenants")
    if tenants:
        rows.append(f"{tenants} tenant(s)")
    publishes = total("serve.version_publishes")
    if publishes:
        # MVCC version churn: how many versions writers published, how
        # many reclamation freed, and how many are still live (the
        # gauge reads high when long-pinned readers lag the writers).
        live = metrics.get("serve.versions_live", {}).get("value", 0)
        reclaimed = total("serve.reclaimed")
        rows.append(
            f"{publishes} version publish(es) "
            f"({reclaimed} reclaimed, {live:.0f} live)"
        )
    return rows


def _shard_rows(metrics: dict) -> list[str]:
    """Fold ``shard.*`` metrics into report fragments (empty when the
    trace did not come from a sharded serving run)."""
    requests = _metric_total(metrics, "shard.requests", by_label="shard")
    restarts = _metric_total(metrics, "shard.restarts", by_label="shard")
    misses = _metric_total(metrics, "shard.heartbeat_misses")
    if not requests and not restarts and not misses:
        return []
    rows = []
    if requests:
        total = sum(requests.values())
        rows.append(f"{total} request(s) over {len(requests)} shard(s)")
    if restarts:
        rows.append("restarts " + " + ".join(
            f"{count}×shard-{shard}"
            for shard, count in sorted(restarts.items())
        ))
    if misses:
        rows.append(f"{misses} heartbeat miss(es)")
    snapshots = _metric_total(metrics, "shard.snapshots")
    if snapshots:
        backlog = _metric_total(metrics, "shard.snapshot_backlog")
        checkpoint_us = _metric_total(metrics, "shard.checkpoint_us")
        rows.append(
            f"{snapshots} snapshot(s) written ({backlog} queued, "
            f"{checkpoint_us / 1e3:.1f} ms of serve-thread checkpoints)"
        )
    return rows


def _gauge_by_label(metrics: dict, prefix: str,
                    by_label: str) -> dict:
    """Latest gauge value per label value for one gauge family."""
    grouped: dict[str, float] = {}
    for key, record in metrics.items():
        if not key.startswith(prefix + "{"):
            continue
        labels = key[len(prefix) + 1:].rstrip("}")
        for pair in labels.split(","):
            label, __, label_value = pair.partition("=")
            if label == by_label:
                grouped[label_value] = float(record.get("value", 0.0))
    return grouped


def _fairness_rows(metrics: dict) -> list[str]:
    """Fold ``allocation.*`` metrics into report fragments (empty when
    the trace did not come from a holistic-allocator run)."""
    reallocations = _metric_total(metrics, "allocation.reallocations")
    granted = _gauge_by_label(
        metrics, "allocation.granted_rate", "tenant"
    )
    if not reallocations and not granted:
        return []
    rows = [f"{reallocations} reallocation(s)"]
    fair = _gauge_by_label(metrics, "allocation.fair_share", "tenant")
    demand = _gauge_by_label(metrics, "allocation.demand", "tenant")
    used = _metric_total(metrics, "allocation.used", by_label="tenant")
    for tenant in sorted(granted):
        fragment = (
            f"{tenant} granted {granted[tenant]:.1f} rps "
            f"(fair {fair.get(tenant, 0.0):.1f}, "
            f"demand {demand.get(tenant, 0.0):.1f}"
        )
        if tenant in used:
            fragment += f", used {used[tenant]}"
        rows.append(fragment + ")")
    retry_exhausted = _metric_total(
        metrics, "allocation.retry_budget_exhausted"
    )
    if retry_exhausted:
        rows.append(f"{retry_exhausted} retry-budget exhaustion(s)")
    expired = _metric_total(
        metrics, "allocation.deadline_expired", by_label="stage"
    )
    if expired:
        rows.append("deadline expired " + " + ".join(
            f"{count}@{stage}" for stage, count in sorted(expired.items())
        ))
    return rows


def _network_rows(metrics: dict) -> list[str]:
    """Fold ``net.*`` metrics into report fragments (empty when the
    trace did not cross an emulated network)."""
    links = []
    for key, record in metrics.items():
        if not key.startswith("net.rtt{"):
            continue
        label = key[len("net.rtt{"):-1]
        link = dict(
            pair.partition("=")[::2] for pair in label.split(",")
        ).get("link", label)
        if record.get("count"):
            links.append((record["count"], link, record))
    if not links and not _metric_total(metrics, "net.events"):
        return []
    rows = []
    total_messages = sum(count for count, __, ___ in links)
    if links:
        rows.append(
            f"{total_messages} message(s) over {len(links)} link(s)"
        )
        for count, link, record in sorted(links, reverse=True)[:3]:
            rows.append(
                f"{link} rtt p50 {record.get('p50', 0) * 1000:.1f}ms "
                f"p95 {record.get('p95', 0) * 1000:.1f}ms "
                f"({count} msg(s))"
            )
    lost = _metric_total(metrics, "net.lost")
    if lost:
        rows.append(f"{lost} lost")
    rejects = _metric_total(metrics, "net.partition_rejects")
    if rejects:
        rows.append(f"{rejects} partition reject(s)")
    events = _metric_total(metrics, "net.events", by_label="kind")
    if events:
        rows.append("weather " + " + ".join(
            f"{count} {kind}" for kind, count in sorted(events.items())
        ))
    stale = _metric_total(metrics, "net.stale_reads")
    if stale:
        rows.append(f"{stale} stale read(s)")
    replications = _metric_total(metrics, "net.replications")
    if replications:
        rows.append(f"{replications} replication(s)")
    return rows


def _slo_rows(slo: dict) -> list[str]:
    """Fold a schema-2 ``slo`` record into report lines."""
    rows = []
    for status in slo.get("slos", []):
        spec = status.get("slo", {})
        firing = [
            alert["severity"] for alert in status.get("alerts", [])
            if alert.get("firing")
        ]
        suffix = " EXHAUSTED" if status.get("exhausted") else ""
        if firing:
            suffix += " firing:" + ",".join(firing)
        rows.append(
            f"  {spec.get('name', '?')}: "
            f"{100.0 * min(1.0, status.get('budget_spent', 0.0)):.1f}% "
            f"of budget spent, good {status.get('good', 0)}/"
            f"{status.get('total', 0)}{suffix}"
        )
    transitions = slo.get("transitions", [])
    for transition in transitions[:8]:
        verb = "fired" if transition.get("firing") else "cleared"
        rows.append(
            f"    {transition.get('slo', '?')}/"
            f"{transition.get('severity', '?')} {verb} "
            f"at t={transition.get('at', 0.0):.2f}s"
        )
    if len(transitions) > 8:
        rows.append(f"    ... {len(transitions) - 8} more transition(s)")
    return rows


def _exemplar_rows(series: list[dict]) -> list[str]:
    """The slowest windowed-histogram exemplars: latency -> trace id."""
    worst: list[tuple[float, str, str]] = []
    for record in series:
        if not record.get("series", "").startswith("serve.requests"):
            continue
        for window in record.get("windows", []):
            if window.get("exemplar") and "max" in window:
                worst.append((
                    window["max"], window["exemplar"], record["series"]
                ))
    worst.sort(key=lambda row: (-row[0], row[1]))
    return [
        f"  {value * 1000.0:.1f}ms trace {trace}  {key}"
        for value, trace, key in worst[:3]
    ]


def render_trace(data: TraceData, trace_id: str) -> str:
    """One sampled request's tree (``repro report --trace-id``)."""
    spans = data.find_trace(trace_id)
    if not spans:
        return (
            f"trace {trace_id}: not in this file — either mistyped or "
            "dropped by the tail sampler (errors and sheds are always "
            "kept)"
        )
    subset = TraceData(meta=data.meta, spans=spans)
    root = spans[0].get("attributes", {})
    lines = [
        f"trace {trace_id} — tenant {root.get('tenant', '?')}, "
        f"api {root.get('api', '?')}, outcome {root.get('outcome', '?')}"
    ]
    if "rtt_total_s" in root:
        lines[0] += f", rtt {root['rtt_total_s'] * 1000.0:.1f}ms"
    lines.append(render_span_tree(subset, max_children=24))
    return "\n".join(lines)


def render_trace_report(data: TraceData, tree: bool = True) -> str:
    """Render a reloaded JSONL trace as a phase/cost/fault breakdown."""
    report = data.report or {}
    service = report.get("service") or data.meta.get("service") or "?"
    chaos = report.get("chaos_profile", "off")
    lines = [
        f"Telemetry report — service {service} (chaos {chaos}, "
        f"schema {data.meta.get('schema', '?')})",
        "",
    ]

    # -- phases ------------------------------------------------------------
    rows = _phase_rows(data)
    if rows:
        lines.append(f"{'phase':28} {'virtual-s':>10} {'spans':>7}")
        for name, depth, counts, duration in rows:
            label = "  " * depth + name
            lines.append(
                f"{label:28} {duration:>10.3f} "
                f"{sum(counts.values()):>7}"
            )
        lines.append("")

    # -- cost --------------------------------------------------------------
    llm = report.get("llm")
    if llm is None:
        # No report trailer: fall back to the llm.* counters.
        def metric(name: str) -> int:
            return int(data.metrics.get(name, {}).get("value", 0))

        llm = {
            "requests": sum(
                int(value.get("value", 0))
                for key, value in data.metrics.items()
                if key.startswith("llm.requests")
            ),
            "prompt_tokens": metric("llm.prompt_tokens"),
            "completion_tokens": metric("llm.completion_tokens"),
            "failed_requests": metric("llm.parse_failures"),
        }
    lines.append(
        f"llm: {llm.get('requests', 0)} request(s), "
        f"{llm.get('prompt_tokens', 0)} prompt + "
        f"{llm.get('completion_tokens', 0)} completion tokens, "
        f"{llm.get('failed_requests', 0)} failed"
    )

    # -- API calls ---------------------------------------------------------
    api_calls = [s for s in data.spans if s.get("kind") == "api_call"]
    error_codes: dict[str, int] = {}
    for span in api_calls:
        code = span.get("attributes", {}).get("error_code")
        if code:
            error_codes[code] = error_codes.get(code, 0) + 1
    top = sorted(error_codes.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
    suffix = ""
    if top:
        suffix = " (top: " + ", ".join(
            f"{code}×{count}" for code, count in top
        ) + ")"
    lines.append(
        f"api calls: {len(api_calls)} span(s), "
        f"{sum(error_codes.values())} error(s){suffix}"
    )

    # -- faults ------------------------------------------------------------
    fault_counts = {name: 0 for name in FAULT_EVENTS}
    for event in data.iter_span_events():
        name = event.get("name")
        if name in fault_counts:
            fault_counts[name] += 1
    lines.append(
        "faults: " + ", ".join(
            f"{count} {name.replace('_', ' ')}(s)"
            for name, count in fault_counts.items()
        )
    )
    resilience = report.get("resilience")
    if resilience:
        lines.append(
            f"resilience stats: {resilience.get('retries', 0)} retried, "
            f"{resilience.get('gave_ups', 0)} gave up, "
            f"{resilience.get('breaker_trips', 0)} breaker trip(s), "
            f"{resilience.get('quarantined', 0)} quarantined"
        )
    serving = _serving_rows(data.metrics)
    if serving:
        lines.append("serving: " + ", ".join(serving))
    shards = _shard_rows(data.metrics)
    if shards:
        lines.append("shards: " + ", ".join(shards))
    fairness = _fairness_rows(data.metrics)
    if fairness:
        lines.append("fairness: " + ", ".join(fairness))
    network = _network_rows(data.metrics)
    if network:
        lines.append("network: " + ", ".join(network))
    if data.slo:
        lines.append("slo:")
        lines.extend(_slo_rows(data.slo))
    if data.sampling:
        sampling = data.sampling
        reasons = sampling.get("kept_by_reason", {})
        suffix = ""
        if reasons:
            suffix = " (" + ", ".join(
                f"{count} {reason}"
                for reason, count in sorted(reasons.items())
            ) + ")"
        lines.append(
            f"sampling: kept {sampling.get('kept', 0)}/"
            f"{sampling.get('seen', 0)} trace(s) at keep rate "
            f"{sampling.get('keep_rate', 0)}{suffix}"
        )
    if data.drift:
        drift = data.drift
        lines.append(
            f"drift: {drift.get('checks', 0)} evaluator check(s), "
            f"{drift.get('divergences', 0)} divergence(s)"
        )
    exemplars = _exemplar_rows(data.series)
    if exemplars:
        lines.append(
            "slowest exemplars (repro report --trace-id <id>):"
        )
        lines.extend(exemplars)
    durability = report.get("durability")
    if durability:
        lines.append(
            "durability: "
            f"{durability.get('journal_appends', 0)} journal append(s), "
            f"{durability.get('journal_replays', 0)} replayed, "
            f"{durability.get('resumes', 0)} resume(s), "
            f"{durability.get('crashes_injected', 0)} crash(es) injected, "
            f"{durability.get('torn_records_dropped', 0)} torn record(s) "
            "dropped"
        )
    lines.append("")

    # -- span tree ---------------------------------------------------------
    roots = data.span_children().get(None, [])
    if tree and data.spans and len(roots) <= 12:
        lines.append("span tree:")
        lines.append(render_span_tree(data, max_children=6))
    elif tree and data.spans:
        lines.append(
            f"span tree: {len(roots)} root span(s) — omitted "
            "(per-request serve trace)"
        )
    return "\n".join(lines)
