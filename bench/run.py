"""The wire-path serving benchmark.

Usage (from the repository root)::

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace [0|1]] [--smoke] [--out PATH]

With ``--workload`` it runs that workload in this process; without, it
runs every workload one after another, each in a fresh child
interpreter.  ``--seconds`` sets the run length: each workload measures
a fixed number of requests per second of it (see ``bench/README.md``).
``--trace 1`` makes a separate traced run that reports per-layer
metrics instead of the end-to-end ones.  ``--smoke`` sends a few
hundred requests with a single set-up.

Every metric is printed by name and unit.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; ``--out`` also writes the full result
record(s) there.  The exit status is 0 when every correctness check
passed, 1 when one failed, and 2 when the program under test cannot be
imported.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)


def _parse(argv):
    from bench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(
        prog="bench/run.py", description=__doc__.split("\n\n")[0],
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", type=Path)
    return parser.parse_args(argv)


def _print_record(record: dict) -> None:
    detail = record["detail"]
    requests = detail["requests"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"{'traced ' if record['trace'] else ''}"
          f"{detail['measured']} measured request(s), "
          f"{detail['clients']} client(s), {detail['wall_s']:.2f} s wall "
          f"at host speed {detail['host_speed']:.3f}")
    for name, metric in record["metrics"].items():
        note = ""
        if name == "latency_p999_us":
            beyond = detail["p999_beyond"]
            note = (f"  (median of {len(beyond)} set-up(s); "
                    f"{detail['latency_samples']} samples, "
                    f"{min(beyond)}+ beyond each)")
        elif name == "write_latency_p50_us":
            note = f"  ({detail['write_samples']} samples)"
        elif name == "setup_s":
            times = ", ".join(f"{t:.3f}" for t in detail["setup_times_s"])
            note = f"  (median of {times})"
        print(f"  {name:<40} {metric['value']:>14.4f} {metric['unit']}{note}")
    if "trace" in detail:
        trace = detail["trace"]
        print(f"  wrapper cost {trace['wrapper_share']:.1%} of the traced "
              f"time; traced time less it, over untraced time: "
              f"{trace['corrected_over_untraced']:.3f}")
    sent, failed = requests["sent"], requests["failed"]
    print(f"  {'error_rate':<40} {failed / max(sent, 1):>14.4f} failed/sent"
          f"  (sent {sent}, succeeded {sent - failed}, failed {failed})")
    for problem in detail["failures"] + detail["problems"]:
        print(f"  FAILED: {problem}")
    print(f"  checks: {'all passed' if record['correct'] else 'FAILED'}")


def _result_line(record: dict) -> str:
    return json.dumps({
        key: record[key] for key in ("correct", "attempted", "failed",
                                     "metrics")
    })


def _run_one(args) -> int:
    from bench import harness

    try:
        record = harness.run(args.workload, args.seed, args.seconds,
                             trace=bool(args.trace), smoke=args.smoke)
    finally:
        harness.reap_children()
    _print_record(record)
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(_result_line(record), flush=True)
    return 0 if record["correct"] else 1


def _run_all(args) -> int:
    """Each workload in a fresh child interpreter, one after another."""
    from bench.harness import WORK_DIR
    from bench.workloads import WORKLOADS

    records = []
    status = 0
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as scratch:
        for name in WORKLOADS:
            out = Path(scratch) / f"{name}.json"
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--out", str(out),
            ] + (["--smoke"] if args.smoke else [])
            child = subprocess.run(command, check=False)
            if child.returncode == 2:
                return 2
            status = max(status, child.returncode)
            if not out.exists():
                print(f"bench/run.py: workload {name} ended with status "
                      f"{child.returncode} and no result", file=sys.stderr)
                status = max(status, 1)
                continue
            records.append(json.loads(out.read_text()))
    if args.out is not None:
        args.out.write_text(json.dumps(records, indent=1) + "\n")
    print(json.dumps({
        "correct": status == 0 and all(record["correct"]
                                       for record in records),
        "attempted": sum(record["attempted"] for record in records),
        "failed": sum(record["failed"] for record in records),
        "metrics": {
            f"{record['workload']}.{name}": metric
            for record in records
            for name, metric in record["metrics"].items()
        },
    }), flush=True)
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench/run.py: no program under test at {ROOT / 'src'}; "
              "run from a repository checkout", file=sys.stderr)
        return 2
    if args.workload is None:
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
