"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``build``      learn an emulator from a service's documentation and
                 (optionally) save it to a directory;
- ``coverage``   print Table 1 (handcrafted-emulator coverage);
- ``evaluate``   print Fig. 3 (trace alignment per variant);
- ``complexity`` print Fig. 4 data (SM complexity per service);
- ``traces``     run the evaluation traces for one service against the
                 cloud and a learned emulator;
- ``serve-bench`` drive deterministic concurrent load through the
                 hardened serving layer (tenants, validation, admission
                 control) and verify linearizability by serial replay;
- ``report``     generate the full reproduction report, or render a
                 saved telemetry JSONL trace as a phase/cost/fault
                 breakdown (``--trace-id`` jumps to one sampled
                 request's span tree);
- ``slo``        evaluate a schema-2 trace's SLO record and exit
                 non-zero when any error budget is exhausted — the CI
                 gate for "did the run stay inside its objectives";
- ``top``        run the noisy cross-region scenario with the full
                 observability plane attached and replay it as an
                 ASCII dashboard (per-tenant rates, SLO budgets,
                 breaker states, partition weather);
- ``decode``     demonstrate rich error decoding on a saved emulator.
"""

from __future__ import annotations

import argparse
import sys

AWS_SERVICES = ("ec2", "network_firewall", "dynamodb")


def _cmd_build(args: argparse.Namespace) -> int:
    import json

    from .core import build_learned_emulator
    from .core.store import save_build
    from .durability import DurabilityError
    from .telemetry import RunReport, Telemetry, write_trace

    if args.resume and not args.journal:
        print("repro build: error: --resume requires --journal DIR",
              file=sys.stderr)
        return 2
    telemetry = Telemetry(service=args.service) if args.telemetry else None
    try:
        build = build_learned_emulator(
            args.service, mode=args.mode, seed=args.seed,
            align=not args.no_align, chaos=args.chaos,
            telemetry=telemetry, parallel=args.parallel,
            compile=not args.no_compile, llm_cache=args.llm_cache,
            journal=args.journal, resume=args.resume,
        )
    except ValueError as error:
        # e.g. an unknown profile name in $REPRO_CHAOS_PROFILE.
        print(f"repro build: error: {error}", file=sys.stderr)
        return 2
    except DurabilityError as error:
        # e.g. resuming a journal written by a different build config.
        print(f"repro build: error: {error}", file=sys.stderr)
        return 2
    report = RunReport.from_build(build, telemetry=telemetry)
    saved_to = save_build(build, args.out) if args.out else None
    trace_path = None
    if telemetry is not None:
        trace_path = write_trace(telemetry, args.telemetry, report=report)
    if args.json:
        payload = report.to_dict()
        if saved_to is not None:
            payload["saved_to"] = str(saved_to)
        if trace_path is not None:
            payload["telemetry"] = str(trace_path)
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(report.render_console())
    if saved_to is not None:
        print(f"saved to:  {saved_to}")
    if trace_path is not None:
        print(f"telemetry: {trace_path}")
    return 0


def _cmd_coverage(args: argparse.Namespace) -> int:
    from .analysis import table1_rows

    print(f"{'Service':20} {'APIs':>6} {'Emulated':>9} {'Coverage':>9}")
    for row in table1_rows():
        print(f"{row.service:20} {row.total:>6} {row.emulated:>9} "
              f"{row.percent:>8}%")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from .core import run_fig3_evaluation

    results = run_fig3_evaluation(seed=args.seed)
    scenarios = ("provisioning", "state_updates", "edge_cases")
    print(f"{'variant':18}" + "".join(f"{s:>16}" for s in scenarios)
          + f"{'total':>10}")
    for variant, accuracy in results.items():
        cells = ""
        for scenario in scenarios:
            aligned, total = accuracy.per_scenario[scenario]
            cells += f"{aligned}/{total}".rjust(16)
        aligned, total = accuracy.total
        print(f"{variant:18}{cells}{f'{aligned}/{total}':>10}")
    return 0


def _cmd_complexity(args: argparse.Namespace) -> int:
    from .analysis import ComplexityComparison
    from .core import build_learned_emulator

    comparison = ComplexityComparison()
    services = [args.service] if args.service else list(AWS_SERVICES)
    for service in services:
        build = build_learned_emulator(service, align=False)
        comparison.add(service, build.module)
    print(f"{'service':20} {'SMs':>4} {'median':>8} {'mean':>7} {'max':>5}")
    for service, stats in comparison.summary().items():
        print(f"{service:20} {stats['machines']:>4} "
              f"{stats['median']:>8} {stats['mean']:>7.1f} "
              f"{stats['max']:>5}")
    return 0


def _cmd_traces(args: argparse.Namespace) -> int:
    from .alignment import diff_traces
    from .cloud import make_cloud
    from .core import build_learned_emulator
    from .scenarios import azure_traces, evaluation_traces, gcp_traces

    if args.service == "azure_network":
        traces = azure_traces()
    elif args.service == "gcp_compute":
        traces = gcp_traces()
    else:
        traces = [
            t for t in evaluation_traces() if t.service == args.service
        ]
    if not traces:
        print(f"no traces for service {args.service!r}", file=sys.stderr)
        return 1
    build = build_learned_emulator(args.service, seed=args.seed)
    report = diff_traces(
        make_cloud(args.service), build.make_backend(), traces
    )
    for comparison in report.comparisons:
        status = "aligned" if comparison.aligned else "DIVERGED"
        print(f"{comparison.trace_name:36} {status}")
        if not comparison.aligned:
            divergence = comparison.first_divergence
            print(f"    {divergence.api}: {divergence.reason}")
    print(f"\n{report.aligned}/{report.compared} traces aligned")
    return 0 if report.aligned == report.compared else 2


def _cmd_decode(args: argparse.Namespace) -> int:
    from .alignment import ErrorDecoder
    from .core.store import load_module

    saved = load_module(args.directory)
    emulator = saved.make_backend()
    decoder = ErrorDecoder(emulator)
    params: dict = {}
    for pair in args.params or []:
        key, __, value = pair.partition("=")
        params[key] = value
    response = emulator.invoke(args.api, params)
    if response.success:
        print("call succeeded:", response.data)
        return 0
    print(decoder.explain(args.api, params, response).render())
    return 2


def _load_slo_specs(path: str) -> list:
    """Read a reference SLO spec file (JSON list, or ``{"slos": [...]}``)."""
    import json

    from .obs import SLOSpec

    with open(path, encoding="utf-8") as handle:
        raw = json.load(handle)
    if isinstance(raw, dict):
        raw = raw.get("slos", [])
    return [SLOSpec.from_dict(record) for record in raw]


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    import json

    from .core import build_learned_emulator
    from .resilience.chaos import ChaosEngine, ChaosProxy, resolve_profile
    from .serve import FrontDoor, LoadGenerator
    from .telemetry import Telemetry, write_trace

    try:
        profile = resolve_profile(args.chaos)
    except ValueError as error:
        print(f"repro serve-bench: error: {error}", file=sys.stderr)
        return 2
    build = build_learned_emulator(args.service, seed=args.seed, align=False)
    telemetry = Telemetry(service=args.service)
    if args.obs or args.slo:
        from .obs import default_slos, ObsPlane

        try:
            tenant_names = [
                f"tenant-{index}" for index in range(max(1, args.tenants))
            ]
            specs = (_load_slo_specs(args.slo) if args.slo
                     else default_slos(tenant_names,
                                       period=args.slo_period))
        except (OSError, KeyError, ValueError) as error:
            print(f"repro serve-bench: error: bad SLO spec: {error}",
                  file=sys.stderr)
            return 2
        ObsPlane(telemetry, seed=args.seed, slos=specs,
                 sample_keep=args.sample_keep,
                 drift_rate=args.drift_rate)
    wrap = None
    if profile.active:
        engine = ChaosEngine(profile, seed=args.seed)
        wrap = lambda backend: ChaosProxy(backend, engine)  # noqa: E731
    allocation = None
    if args.fair:
        from .serve import AllocationConfig

        tenant_count = max(1, args.tenants)
        weights = {}
        if args.aggressor:
            weights["tenant-0"] = args.aggressor_weight
        allocation = AllocationConfig(
            total_rate=args.rate * tenant_count,
            total_burst=args.burst * tenant_count,
            weights=weights,
        )
    if args.shards:
        from .serve import ShardedFrontDoor, parse_kill_schedule

        kill_schedules = None
        if args.kill_schedule:
            try:
                kill_schedules = parse_kill_schedule(args.kill_schedule)
            except ValueError as error:
                print(f"repro serve-bench: error: {error}",
                      file=sys.stderr)
                return 2
        front = ShardedFrontDoor(
            build.module, build.make_backend, shards=args.shards,
            data_dir=args.shard_dir, kill_schedules=kill_schedules,
            heartbeat=True, telemetry=telemetry, wrap=wrap,
            rate=args.rate, burst=args.burst, seed=args.seed,
            allocation=allocation,
        )
    else:
        front = FrontDoor(
            build.module, build.make_backend, telemetry=telemetry, wrap=wrap,
            rate=args.rate, burst=args.burst, seed=args.seed,
            allocation=allocation,
        )
    per_worker = max(1, -(-args.requests // args.workers))
    generator = LoadGenerator(
        front, seed=args.seed, workers=args.workers,
        requests_per_worker=per_worker, read_ratio=args.read_ratio,
        tenants=args.tenants, offered_rate=args.offered_rate,
        aggressor="tenant-0" if args.aggressor else None,
        aggressor_weight=args.aggressor_weight,
        deadline=args.deadline,
        retry_shed=args.retry_shed,
    )
    shard_summary = None
    fairness = None
    log_path = None
    try:
        report = generator.run()
        if front.allocator is not None:
            fairness = front.allocator.snapshot()
        # Dump before close in sharded mode: the logs live worker-side.
        log_path = front.admitted.dump_jsonl(args.log) if args.log else None
        if args.shards:
            supervisor = front.supervisor
            stats = {
                entry["shard"]: entry for entry in supervisor.shard_stats()
            }
            shard_summary = {
                "shards": supervisor.shards,
                # Requests each shard's current generation served.
                "requests": [
                    stats.get(index, {}).get("requests", 0)
                    for index in range(supervisor.shards)
                ],
                # CPU placement: the CPU the door's threads share (null
                # while nothing is placed), each worker the CPUs it may
                # run on.
                "parent_cpu": supervisor.parent_cpu,
                "worker_cpus": [
                    stats.get(index, {}).get("cpus", [])
                    for index in range(supervisor.shards)
                ],
                "restarts": supervisor.restarts,
                "restart_log": list(supervisor.restart_log),
                "recovery_failures": list(supervisor.recovery_failures),
                # Null when the shards ran in a temp directory, which
                # the close below removes.
                "data_dir": args.shard_dir,
            }
    finally:
        if args.shards:
            # Graceful close: drains in-flight requests and flushes
            # every shard's final snapshots.
            front.close()
    trace_path = (
        write_trace(telemetry, args.telemetry) if args.telemetry else None
    )
    if args.json:
        payload = report.as_dict()
        payload["service"] = args.service
        payload["chaos"] = profile.name
        if shard_summary is not None:
            payload["sharding"] = shard_summary
        if fairness is not None:
            payload["fairness"] = fairness
        if log_path is not None:
            payload["admitted_log"] = str(log_path)
        if trace_path is not None:
            payload["telemetry"] = str(trace_path)
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"serve-bench: {args.service}  "
              f"({report.workers} workers, {report.tenants} tenants, "
              f"chaos={profile.name})")
        print(f"  requests:    {report.requests} "
              f"({report.reads} reads / {report.writes} writes)")
        print(f"  throughput:  {report.throughput_rps:,.0f} req/s "
              f"over {report.wall_seconds:.2f}s")
        print(f"  shed:        {report.shed}")
        for code in sorted(report.by_code):
            label = code or "(success)"
            print(f"    {label:34} {report.by_code[code]:>7}")
        print(f"  admitted writes logged: {report.admitted_writes}")
        if report.mvcc and report.mvcc.get("tenants"):
            print(f"  mvcc:        "
                  f"{report.mvcc['publishes']} publish(es), "
                  f"{report.mvcc['reclaimed']} reclaimed, "
                  f"{report.mvcc['pinned_reads']} pinned read(s)")
        if shard_summary is not None:
            print(f"  shards:      {shard_summary['shards']} worker "
                  f"process(es), {shard_summary['restarts']} restart(s), "
                  f"{report.failover_honored} failover wait(s) honored "
                  f"({report.failover_seconds:.2f}s virtual)")
            for entry in shard_summary["restart_log"]:
                print(f"    shard-{entry['shard']} gen {entry['generation']}"
                      f": recovered in {entry['recovery_seconds']:.2f}s "
                      f"({entry['replayed']} attempt(s) replayed)")
            for failure in shard_summary["recovery_failures"]:
                print(f"    RECOVERY FAILURE: {failure}")
        if fairness is not None:
            print(f"  fairness:    {fairness['reallocations']} "
                  f"reallocation(s), pool {fairness['total_rate']:.0f} rps"
                  + (f", shards down {fairness['shards_down']}"
                     if fairness["shards_down"] else ""))
            for name, alloc in fairness["tenants"].items():
                print(f"    {name:<22} granted {alloc['granted_rate']:>8.1f}"
                      f" rps  (fair {alloc['fair_share']:.1f}, "
                      f"demand {alloc['demand']:.1f}, "
                      f"admitted {alloc['admitted']})")
            if report.by_tenant:
                for name, split in sorted(report.by_tenant.items()):
                    print(f"    {name:<22} offered {split.offered:>6}"
                          f"  ok {split.ok:>6}  shed {split.shed:>6}")
            if report.deadline_expired:
                print(f"    deadline expired: {report.deadline_expired}")
            if report.retries_sent:
                print(f"    retries: {report.retries_sent} sent, "
                      f"{report.retry_budget_exhausted} over budget")
        if report.obs is not None:
            from .telemetry.report import _slo_rows

            sampling = report.obs.get("sampling") or {}
            print(f"  obs: {report.obs.get('series', 0)} series, sampler "
                  f"kept {sampling.get('kept', 0)}/{sampling.get('seen', 0)}"
                  f" traces")
            if report.obs.get("slo"):
                for row in _slo_rows(report.obs["slo"]):
                    print(row)
        verdict = "PASS" if report.linearizable else "FAIL"
        print(f"  linearizable: {verdict}")
        for mismatch in report.mismatches:
            print(f"    {mismatch}")
        if log_path is not None:
            print(f"  admitted log: {log_path}")
        if trace_path is not None:
            print(f"  telemetry:    {trace_path}")
    return 0 if report.linearizable else 3


def _cmd_sweep(args: argparse.Namespace) -> int:
    import json

    from .core import build_learned_emulator
    from .netem.sweep import (
        render_heatmap, run_sweep, SweepConfig, SweepGrid,
    )
    from .scenarios.geo import (
        multi_region_failover, partition_heal_convergence,
    )

    def _axis(raw: str) -> tuple:
        try:
            return tuple(float(part) for part in raw.split(",") if part)
        except ValueError:
            raise SystemExit(
                f"repro sweep: error: bad axis value {raw!r} "
                "(expected comma-separated numbers)"
            )

    grid = SweepGrid(
        losses=_axis(args.losses),
        rtts=_axis(args.rtts),
        partition_durations=_axis(args.partitions),
    )
    config = SweepConfig(
        workers=args.workers,
        requests_per_worker=max(1, -(-args.requests // args.workers)),
        tenants=args.tenants,
        seed=args.seed,
    )
    build = build_learned_emulator(args.service, seed=args.seed,
                                   align=False)

    def progress(index: int, total: int, record: dict) -> None:
        if not args.json:
            verdict = "ok" if record["ok"] else "FAIL"
            print(f"  cell {index + 1}/{total}  "
                  f"loss={record['loss']:g} rtt={record['base_rtt']:g}s "
                  f"partition={record['partition_duration']:g}s  "
                  f"error_rate={record['error_rate']:.3f}  {verdict}")

    payload = run_sweep(build, grid, config, progress=progress)
    if args.convergence:
        traces = {}
        if args.telemetry:
            import os

            os.makedirs(args.telemetry, exist_ok=True)
            traces = {
                name: os.path.join(args.telemetry, f"{name}.jsonl")
                for name in ("multi_region_failover",
                             "partition_heal_convergence")
            }
        failover = multi_region_failover(
            build, seed=args.seed,
            trace=traces.get("multi_region_failover"),
        )
        convergence = partition_heal_convergence(
            build, seed=args.seed,
            trace=traces.get("partition_heal_convergence"),
        )
        payload["geo"] = {
            "multi_region_failover": failover,
            "partition_heal_convergence": convergence,
        }
        payload["all_ok"] = bool(
            payload["all_ok"] and failover["ok"] and convergence["ok"]
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        if not args.json:
            print(f"sweep written to {args.out}")
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print()
        print(render_heatmap(payload, metric=args.metric))
        if args.convergence:
            geo = payload["geo"]
            for name, result in geo.items():
                verdict = "PASS" if result["ok"] else "FAIL"
                print(f"  {name}: {verdict}")
    return 0 if payload["all_ok"] else 3


def _cmd_slo(args: argparse.Namespace) -> int:
    import json

    from .telemetry import load_trace, TraceError
    from .telemetry.report import _slo_rows

    try:
        data = load_trace(args.trace)
    except (OSError, TraceError) as error:
        print(f"repro slo: error: {error}", file=sys.stderr)
        return 2
    if data.slo is None:
        print(f"repro slo: error: {args.trace}: no SLO record — re-run "
              "with the observability plane attached (serve-bench --obs, "
              "repro top, or a scenario with SLO specs)", file=sys.stderr)
        return 2
    exhausted = data.slo.get("exhausted", [])
    if args.json:
        print(json.dumps(data.slo, indent=2, sort_keys=True))
    else:
        print(f"SLO report at t={data.slo.get('at', 0.0):.2f}s virtual")
        for row in _slo_rows(data.slo):
            print(row)
        verdict = ("FAIL (budget exhausted: " + ", ".join(exhausted) + ")"
                   if exhausted else "PASS")
        print(f"  verdict: {verdict}")
    return 4 if exhausted else 0


def _cmd_top(args: argparse.Namespace) -> int:
    import json

    from .core import build_learned_emulator
    from .obs import record_frames
    from .scenarios.geo import noisy_cross_region_replication

    slos = None
    if args.slo:
        try:
            slos = _load_slo_specs(args.slo)
        except (OSError, KeyError, ValueError) as error:
            print(f"repro top: error: bad SLO spec: {error}",
                  file=sys.stderr)
            return 2
    build = build_learned_emulator(args.service, seed=args.seed,
                                   align=False)
    capture: dict = {}
    per_worker = max(1, -(-args.requests // args.workers))
    result = noisy_cross_region_replication(
        build, seed=args.seed, loss=args.loss, base_rtt=args.rtt,
        partition_duration=args.partition, workers=args.workers,
        requests_per_worker=per_worker, tenants=args.tenants,
        slos=slos, slo_period=args.slo_period,
        sample_keep=args.sample_keep, drift_rate=args.drift_rate,
        trace=args.telemetry, capture=capture,
    )
    plane, netem = capture["plane"], capture["netem"]
    frames = record_frames(
        plane, interval=args.interval, lookback=args.lookback,
        netem=netem,
    )
    if args.record:
        payload = {
            "service": args.service,
            "seed": args.seed,
            "interval": args.interval,
            "lookback": args.lookback,
            "frames": frames,
            "result": result,
        }
        with open(args.record, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
    else:
        shown = frames if args.all_frames else frames[-1:]
        for index, frame in enumerate(shown):
            if index:
                print()
            print(frame["frame"])
        if args.record:
            print(f"\n{len(frames)} frame(s) recorded to {args.record}")
        if args.telemetry:
            print(f"telemetry: {args.telemetry}")
    slo = (result.get("load", {}).get("obs") or {}).get("slo") or {}
    exhausted = slo.get("exhausted", [])
    if not result["ok"]:
        return 3
    return 4 if exhausted else 0


def _cmd_report(args: argparse.Namespace) -> int:
    if args.trace:
        from .telemetry import (
            load_trace, render_trace, render_trace_report, TraceError,
        )

        try:
            data = load_trace(args.trace)
        except (OSError, TraceError) as error:
            print(f"repro report: error: {error}", file=sys.stderr)
            return 2
        try:
            if args.trace_id:
                print(render_trace(data, args.trace_id))
                return 0 if data.find_trace(args.trace_id) else 1
            print(render_trace_report(data))
        except BrokenPipeError:  # e.g. `repro report run.jsonl | head`
            import os

            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0

    from .core.report import generate_report

    text = generate_report(seed=args.seed,
                           include_multicloud=not args.no_multicloud)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"report written to {args.out}")
    else:
        print(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    # Imported here, like every command's dependencies: spawn re-runs a
    # console script's module in each shard worker, and a worker must
    # not load the documentation catalogs.
    from .docs import CATALOGS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Learned cloud emulators (HotNets '25 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="learn an emulator for a service")
    build.add_argument("service", choices=sorted(CATALOGS))
    build.add_argument("--mode", default="constrained",
                       choices=("constrained", "reprompt", "direct",
                                "perfect"))
    build.add_argument("--seed", type=int, default=7)
    build.add_argument("--no-align", action="store_true")
    build.add_argument("--chaos", default=None,
                       choices=("off", "mild", "hostile"),
                       help="fault-injection profile (default: "
                            "$REPRO_CHAOS_PROFILE or off)")
    build.add_argument("--parallel", type=int, default=1, metavar="N",
                       help="extraction-wave / diff-shard thread count "
                            "(the build result is identical at any N)")
    build.add_argument("--no-compile", action="store_true",
                       help="serve with the tree-walking evaluator "
                            "instead of the compiled fast path")
    build.add_argument("--llm-cache", metavar="PATH",
                       help="persistent prompt->completion cache file; "
                            "warm rebuilds skip (and stop billing) "
                            "repeated LLM work")
    build.add_argument("--journal", metavar="DIR",
                       help="journal completed build work to DIR so an "
                            "interrupted build can be resumed")
    build.add_argument("--resume", action="store_true",
                       help="replay the journal in --journal DIR and "
                            "continue from the first incomplete unit")
    build.add_argument("--out", help="directory to save the emulator to")
    build.add_argument("--telemetry", metavar="PATH",
                       help="write the build's telemetry trace (spans, "
                            "metrics, run report) to a JSONL file")
    build.add_argument("--json", action="store_true",
                       help="emit the run report as JSON instead of prose")
    build.set_defaults(func=_cmd_build)

    coverage = sub.add_parser("coverage", help="print Table 1")
    coverage.set_defaults(func=_cmd_coverage)

    evaluate = sub.add_parser("evaluate", help="print Fig. 3")
    evaluate.add_argument("--seed", type=int, default=7)
    evaluate.set_defaults(func=_cmd_evaluate)

    complexity = sub.add_parser("complexity", help="print Fig. 4 data")
    complexity.add_argument("service", nargs="?",
                            choices=sorted(CATALOGS))
    complexity.set_defaults(func=_cmd_complexity)

    traces = sub.add_parser("traces",
                            help="run a service's evaluation traces")
    traces.add_argument("service", choices=sorted(CATALOGS))
    traces.add_argument("--seed", type=int, default=7)
    traces.set_defaults(func=_cmd_traces)

    serve_bench = sub.add_parser(
        "serve-bench",
        help="drive concurrent load through the hardened serving layer "
             "and verify linearizability by serial replay")
    serve_bench.add_argument("service", choices=sorted(CATALOGS))
    serve_bench.add_argument("--workers", type=int, default=8)
    serve_bench.add_argument("--requests", type=int, default=2000,
                             help="total requests across all workers")
    serve_bench.add_argument("--read-ratio", type=float, default=0.7)
    serve_bench.add_argument("--tenants", type=int, default=2,
                             help="number of tenant API keys to spread "
                                  "traffic across")
    serve_bench.add_argument("--rate", type=float, default=50.0,
                             help="token-bucket refill rate per tenant "
                                  "(requests per virtual second)")
    serve_bench.add_argument("--burst", type=float, default=20.0)
    serve_bench.add_argument("--offered-rate", type=float, default=None,
                             help="offered load in requests per virtual "
                                  "second (default: unconstrained, the "
                                  "buckets never shed)")
    serve_bench.add_argument("--chaos", default=None,
                             choices=("off", "mild", "hostile"),
                             help="wrap every tenant backend in a fault "
                                  "injector (default: "
                                  "$REPRO_CHAOS_PROFILE or off)")
    serve_bench.add_argument("--seed", type=int, default=11)
    serve_bench.add_argument("--log", metavar="PATH",
                             help="write the admitted-request log as "
                                  "JSONL (the linearizability witness)")
    serve_bench.add_argument("--telemetry", metavar="PATH",
                             help="write the serve telemetry trace "
                                  "(shed/validation counters, queue "
                                  "depth) to a JSONL file")
    serve_bench.add_argument("--obs", action="store_true",
                             help="attach the serving observability "
                                  "plane: windowed series, SLO budgets, "
                                  "tail-sampled traces (schema-2 "
                                  "records in --telemetry output)")
    serve_bench.add_argument("--slo", metavar="PATH",
                             help="JSON SLO spec file (a list of spec "
                                  "dicts, or {\"slos\": [...]}); "
                                  "implies --obs")
    serve_bench.add_argument("--slo-period", type=float, default=60.0,
                             help="error-budget period in virtual "
                                  "seconds for the default SLO set")
    serve_bench.add_argument("--sample-keep", type=float, default=0.05,
                             help="tail-sampler probabilistic keep rate "
                                  "(errors/sheds/slow always kept)")
    serve_bench.add_argument("--drift-rate", type=float, default=0.0,
                             help="fraction of read requests re-executed "
                                  "on the reference evaluator to detect "
                                  "compiled-route drift")
    serve_bench.add_argument("--shards", type=int, default=0,
                             help="serve from N crash-supervised worker "
                                  "processes (0: single-process serving)")
    serve_bench.add_argument("--kill-schedule", default=None,
                             metavar="SHARD:SITE:HIT[,..]",
                             help="seeded worker-death schedule, e.g. "
                                  "0:mid-publish:3,1:mid-serve-wal-append:2 "
                                  "(each repeat of a shard arms its next "
                                  "restart generation)")
    serve_bench.add_argument("--shard-dir", default=None, metavar="DIR",
                             help="per-shard attempt log + snapshot root, "
                                  "kept after the run (default: a fresh "
                                  "temp dir, removed at exit)")
    serve_bench.add_argument("--fair", action="store_true",
                             help="admit through the holistic weighted "
                                  "max-min allocator (one shared "
                                  "rate/slot/queue pool, re-granted "
                                  "from observed demand) instead of "
                                  "independent per-tenant buckets")
    serve_bench.add_argument("--aggressor", action="store_true",
                             help="make tenant-0 a noisy neighbor: "
                                  "offered --aggressor-weight times "
                                  "more traffic than each other tenant "
                                  "(pair with --fair to watch victims "
                                  "keep their fair share)")
    serve_bench.add_argument("--aggressor-weight", type=float,
                             default=10.0,
                             help="the aggressor's offered-load "
                                  "multiplier")
    serve_bench.add_argument("--deadline", type=float, default=None,
                             metavar="SECONDS",
                             help="attach DeadlineSeconds to every "
                                  "request; expired requests shed with "
                                  "ExpiredBeforeDispatch instead of "
                                  "doing wasted work")
    serve_bench.add_argument("--retry-shed", action="store_true",
                             help="mark re-offers of shed requests "
                                  "Retry: true, exercising the capped "
                                  "per-tenant retry budget")
    serve_bench.add_argument("--json", action="store_true")
    serve_bench.set_defaults(func=_cmd_serve_bench)

    slo = sub.add_parser(
        "slo",
        help="evaluate a schema-2 trace's SLO record; exits 4 when any "
             "error budget is exhausted")
    slo.add_argument("trace",
                     help="a telemetry JSONL file written with the "
                          "observability plane attached")
    slo.add_argument("--json", action="store_true",
                     help="print the raw SLO record instead of prose")
    slo.set_defaults(func=_cmd_slo)

    top = sub.add_parser(
        "top",
        help="run the noisy cross-region scenario with the full "
             "observability plane and replay it as an ASCII dashboard")
    top.add_argument("service", choices=sorted(CATALOGS))
    top.add_argument("--seed", type=int, default=7)
    top.add_argument("--loss", type=float, default=0.05,
                     help="per-message loss on every cross-region link")
    top.add_argument("--rtt", type=float, default=0.04,
                     help="base RTT in virtual seconds")
    top.add_argument("--partition", type=float, default=10.0,
                     help="seeded partition duration in virtual seconds")
    top.add_argument("--workers", type=int, default=4)
    top.add_argument("--requests", type=int, default=240,
                     help="total requests across all workers")
    top.add_argument("--tenants", type=int, default=2)
    top.add_argument("--slo", metavar="PATH",
                     help="JSON SLO spec file (default: the reference "
                          "per-tenant availability + latency set)")
    top.add_argument("--slo-period", type=float, default=1440.0,
                     help="error-budget period in virtual seconds for "
                          "the default SLO set")
    top.add_argument("--sample-keep", type=float, default=0.05)
    top.add_argument("--drift-rate", type=float, default=0.0)
    top.add_argument("--interval", type=float, default=2.0,
                     help="virtual seconds between dashboard frames")
    top.add_argument("--lookback", type=float, default=5.0,
                     help="rate/percentile window per frame, in virtual "
                          "seconds")
    top.add_argument("--all-frames", action="store_true",
                     help="print every frame of the replay instead of "
                          "just the final one")
    top.add_argument("--record", metavar="PATH",
                     help="write the full frame-by-frame replay (plus "
                          "the scenario result) as JSON")
    top.add_argument("--telemetry", metavar="PATH",
                     help="also export the schema-2 telemetry JSONL "
                          "(feeds repro slo / repro report)")
    top.add_argument("--json", action="store_true",
                     help="print the scenario result dict instead of "
                          "the dashboard")
    top.set_defaults(func=_cmd_top)

    sweep = sub.add_parser(
        "sweep",
        help="run the geo scenario catalog across a (loss x RTT x "
             "partition) grid and emit heatmap-ready JSON per cell")
    sweep.add_argument("service", choices=sorted(CATALOGS))
    sweep.add_argument("--losses", default="0,0.02,0.05",
                       help="comma-separated per-message loss "
                            "probabilities (default: 0,0.02,0.05)")
    sweep.add_argument("--rtts", default="0.01,0.04,0.08",
                       help="comma-separated base RTTs in virtual "
                            "seconds (default: 0.01,0.04,0.08)")
    sweep.add_argument("--partitions", default="0,5",
                       help="comma-separated partition durations in "
                            "virtual seconds; 0 disables partitions "
                            "for that cell (default: 0,5)")
    sweep.add_argument("--workers", type=int, default=4)
    sweep.add_argument("--requests", type=int, default=160,
                       help="total requests per cell across all workers")
    sweep.add_argument("--tenants", type=int, default=2)
    sweep.add_argument("--seed", type=int, default=7)
    sweep.add_argument("--metric", default="error_rate",
                       choices=("error_rate", "timeout_rate",
                                "unavailable_rate", "stale_ratio",
                                "mean_net_latency"),
                       help="which cell metric the ASCII heatmap colors")
    sweep.add_argument("--convergence", action="store_true",
                       help="also run the failover and partition-heal "
                            "convergence scenarios and fold their "
                            "verdicts into the exit code")
    sweep.add_argument("--out", metavar="PATH",
                       help="write the sweep JSON document to a file")
    sweep.add_argument("--telemetry", metavar="DIR",
                       help="with --convergence: write each geo "
                            "scenario's telemetry trace (JSONL) into "
                            "this directory")
    sweep.add_argument("--json", action="store_true",
                       help="print the full JSON instead of the heatmap")
    sweep.set_defaults(func=_cmd_sweep)

    report = sub.add_parser("report",
                            help="generate the full reproduction report, "
                                 "or render a saved telemetry trace")
    report.add_argument("trace", nargs="?",
                        help="a telemetry JSONL file (from repro build "
                             "--telemetry) to render as a phase/cost/"
                             "fault breakdown")
    report.add_argument("--trace-id", metavar="ID",
                        help="with a trace file: render one sampled "
                             "request's span tree (ids surface as "
                             "exemplars in the slowest-requests table)")
    report.add_argument("--seed", type=int, default=7)
    report.add_argument("--out", help="write the Markdown to a file")
    report.add_argument("--no-multicloud", action="store_true")
    report.set_defaults(func=_cmd_report)

    decode = sub.add_parser("decode",
                            help="explain a failing call on a saved "
                                 "emulator")
    decode.add_argument("directory")
    decode.add_argument("api")
    decode.add_argument("params", nargs="*", metavar="key=value")
    decode.set_defaults(func=_cmd_decode)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
