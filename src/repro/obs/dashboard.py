"""``repro top``: the ASCII serving dashboard.

Renders the observability plane's windowed store as the terminal view
an operator would watch: per-tenant RPS / shed rate / p50 / p99, SLO
budget bars with firing burn alerts, breaker states, and the region
weather (open partitions).  Everything reads from virtual time, so a
"live" frame and a post-run replay of the same instant are identical
— ``--record`` simply replays the run's timeline at a fixed frame
interval and emits every frame, which is what the acceptance tests
diff against.
"""

from __future__ import annotations

from .plane import ObsPlane

#: The sparkline-ish budget bar alphabet, emptiest first.
_BAR = " ▏▎▍▌▋▊▉█"


def _bar(fraction: float, width: int = 12) -> str:
    """A unicode budget bar: ``fraction`` full, ``width`` cells."""
    fraction = min(1.0, max(0.0, fraction))
    cells = fraction * width
    full = int(cells)
    partial = int((cells - full) * (len(_BAR) - 1))
    bar = "█" * full
    if full < width and partial:
        bar += _BAR[partial]
    return bar.ljust(width)


def _fmt_latency(value: float | None) -> str:
    if value is None:
        return "     -"
    return f"{value * 1000.0:>5.1f}ms" if value < 9.95 else f"{value:>6.2f}s"


def _tenant_rows(plane: ObsPlane, now: float, lookback: float) -> list[str]:
    store = plane.store
    rows = [
        f"{'tenant':<12} {'rps':>7} {'shed%':>6} {'err%':>6} "
        f"{'p50':>7} {'p99':>7}  worst-trace"
    ]
    for tenant in store.label_values("serve.requests", "tenant"):
        total = store.total("serve.requests", lookback, now, tenant=tenant)
        if total == 0:
            continue
        shed = store.total(
            "serve.requests", lookback, now, tenant=tenant, outcome="shed"
        )
        errors = store.total(
            "serve.requests", lookback, now, tenant=tenant, outcome="error"
        )
        p50 = store.quantile(
            "serve.requests", 0.50, lookback, now, tenant=tenant
        )
        p99 = store.quantile(
            "serve.requests", 0.99, lookback, now, tenant=tenant
        )
        exemplar = store.exemplar(
            "serve.requests", lookback, now, tenant=tenant
        )
        rows.append(
            f"{tenant:<12} {total / lookback:>7.1f} "
            f"{100.0 * shed / total:>5.1f}% {100.0 * errors / total:>5.1f}% "
            f"{_fmt_latency(p50):>7} {_fmt_latency(p99):>7}  {exemplar}"
        )
    if len(rows) == 1:
        rows.append("(no traffic in window)")
    return rows


def _slo_rows(plane: ObsPlane, now: float) -> list[str]:
    if not plane.slo.specs:
        return []
    rows = ["", "SLO budgets (period burn):"]
    for status in plane.slo.evaluate(now):
        spec = status.spec
        firing = ",".join(a.severity for a in status.firing) or "-"
        state = "EXHAUSTED" if status.exhausted else f"alerts:{firing}"
        rows.append(
            f"  {spec.name:<20} [{_bar(status.budget_spent)}] "
            f"{100.0 * min(1.0, status.budget_spent):>5.1f}% "
            f"good {status.good}/{status.total}  {state}"
        )
    return rows


def _breaker_rows(plane: ObsPlane, now: float) -> list[str]:
    series = plane.store.select("resilience.breaker_state")
    if not series:
        return []
    rows = ["", "breakers:"]
    for stream in sorted(series, key=lambda s: s.key):
        # The latest transition at or before ``now`` is the state.
        windows = stream.windows(0.0, now)
        if not windows:
            continue
        last = windows[-1]
        state = {0.0: "closed", 1.0: "half_open", 2.0: "open"}.get(
            (last.values or [0.0])[-1], "?"
        )
        target = stream.labels.get("target", "?")
        rows.append(f"  {target:<28} {state}")
    return rows


def _latest_cpus(stream, now: float) -> str:
    """The CPU set a stream of CPU masks recorded last up to ``now``,
    as ``0,1``; empty when it recorded none."""
    for window in reversed(stream.windows(0.0, now)):
        if window.values:
            mask = int(window.values[-1])
            return ",".join(
                str(cpu) for cpu in range(mask.bit_length())
                if mask >> cpu & 1
            )
    return ""


def _shard_rows(plane: ObsPlane, now: float) -> list[str]:
    """Shard fleet health: restarts (with recovery time), heartbeat
    misses and CPU placement, from the windowed series the supervisor
    records."""
    store = plane.store
    restarts = store.select("shard.restart_seconds")
    misses = store.select("shard.heartbeat_miss")
    placed = {
        stream.labels.get("shard", "?"): _latest_cpus(stream, now)
        for stream in store.select("shard.worker_cpus")
    }
    placed = {shard: cpus for shard, cpus in placed.items() if cpus}
    if not restarts and not misses and not placed:
        return []
    header = "shards:"
    for stream in store.select("shard.parent_cpus"):
        parent = _latest_cpus(stream, now)
        if parent:
            header = f"shards (front door on CPU {parent}):"
    rows = ["", header]

    def cpus(shard: str) -> str:
        if shard not in placed:
            return ""
        return f", on CPU {placed[shard]}"

    missed_by_shard = {
        stream.labels.get("shard", "?"): sum(
            len(window.values or ())
            for window in stream.windows(0.0, now)
        )
        for stream in misses
    }
    seen = set()
    for stream in sorted(restarts, key=lambda s: s.key):
        shard = stream.labels.get("shard", "?")
        seen.add(shard)
        values = [
            value
            for window in stream.windows(0.0, now)
            for value in (window.values or ())
        ]
        last = f"{values[-1]:.2f}s" if values else "?"
        missed = missed_by_shard.get(shard, 0)
        rows.append(
            f"  shard-{shard:<22} {len(values)} restart(s), "
            f"last recovery {last}, {missed} heartbeat miss(es)"
            + cpus(shard)
        )
    for shard in sorted((set(missed_by_shard) | set(placed)) - seen):
        rows.append(
            f"  shard-{shard:<22} 0 restart(s), "
            f"{missed_by_shard.get(shard, 0)} heartbeat miss(es)"
            + cpus(shard)
        )
    return rows


def _fairness_rows(plane: ObsPlane, now: float) -> list[str]:
    """The allocator's live grant table: latest granted rate and
    observed demand per tenant, from the reallocation-time series."""
    granted = plane.store.select("allocation.granted_rate")
    if not granted:
        return []
    demand_latest = {}
    for stream in plane.store.select("allocation.demand"):
        windows = stream.windows(0.0, now)
        values = [
            value
            for window in windows
            for value in (window.values or ())
        ]
        if values:
            demand_latest[stream.labels.get("tenant", "?")] = values[-1]
    rows = ["", "fairness:"]
    for stream in sorted(granted, key=lambda s: s.key):
        tenant = stream.labels.get("tenant", "?")
        values = [
            value
            for window in stream.windows(0.0, now)
            for value in (window.values or ())
        ]
        if not values:
            continue
        demand = demand_latest.get(tenant)
        suffix = f", demand {demand:.1f}" if demand is not None else ""
        rows.append(
            f"  {tenant:<28} granted {values[-1]:.1f} rps{suffix} "
            f"({len(values)} regrant(s))"
        )
    return rows if len(rows) > 2 else []


def _weather_rows(netem, now: float) -> list[str]:
    if netem is None:
        return []
    open_links = []
    for link, windows in netem.topology.partition_report().items():
        for start, end in windows:
            if start <= now and (end is None or now < end):
                until = "?" if end is None else f"{end:.2f}s"
                open_links.append(f"  {link:<28} PARTITIONED until {until}")
    rows = ["", "region weather:"]
    rows.extend(open_links or ["  all links healthy"])
    return rows


def render_frame(plane: ObsPlane, now: float | None = None,
                 lookback: float = 5.0, netem=None) -> str:
    """One dashboard frame at a virtual instant (default: now)."""
    now = plane.clock.now() if now is None else now
    good = plane.store.total("serve.requests", lookback, now)
    lines = [
        f"repro top · t={now:.2f}s virtual · window {lookback:g}s · "
        f"{good:.0f} req · {len(plane.store)} series",
        "",
    ]
    lines.extend(_tenant_rows(plane, now, lookback))
    lines.extend(_slo_rows(plane, now))
    lines.extend(_breaker_rows(plane, now))
    lines.extend(_shard_rows(plane, now))
    lines.extend(_fairness_rows(plane, now))
    lines.extend(_weather_rows(netem, now))
    sampling = plane.sampler
    if sampling.seen:
        lines.append("")
        lines.append(
            f"traces: kept {sampling.kept}/{sampling.seen} "
            f"({dict(sorted(sampling.kept_by_reason.items()))})"
        )
    return "\n".join(lines)


def record_frames(plane: ObsPlane, until: float | None = None,
                  interval: float = 2.0, lookback: float = 5.0,
                  netem=None) -> list[dict]:
    """Replay the run as dashboard frames (``repro top --record``).

    Because every input is virtual-time, replaying after the run
    produces exactly the frames a live tail would have shown.  Each
    record carries the frame's instant and its rendered text.
    """
    until = plane.clock.now() if until is None else until
    frames = []
    ticks = max(1, int(until / interval))
    for tick in range(1, ticks + 1):
        at = min(tick * interval, until)
        frames.append({
            "at": round(at, 9),
            "frame": render_frame(
                plane, now=at, lookback=lookback, netem=netem
            ),
        })
    return frames


__all__ = ["record_frames", "render_frame"]
