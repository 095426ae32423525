"""Compare two sets of benchmark result files against the bounds.

Usage (from the repository root)::

    python3 bench/compare.py --base RESULT.json... --new RESULT.json...

Each file holds one result record or a list of them, as
``bench/run.py --out`` writes.  For every (workload, end-to-end metric)
it prints the median and quartiles of both sets, then a verdict
against the metric's bound in ``BENCHMARK.json``:

- ``ok``: the new median is no worse than the base median by more
  than the bound;
- ``regressed``: it is worse by more than the bound;
- ``unresolved``: either set's quartile spread, as a share of its
  median, exceeds the bound, and not every new run beats every base
  run.

Exits 1 when any pair regressed, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths) -> dict[tuple[str, str], list[float]]:
    """``(workload, metric) -> values`` over untraced records."""
    values: dict[tuple[str, str], list[float]] = {}
    for path in paths:
        data = json.loads(Path(path).read_text())
        for record in data if isinstance(data, list) else [data]:
            if record.get("trace"):
                continue
            for name, metric in record["metrics"].items():
                values.setdefault((record["workload"], name), []).append(
                    metric["value"]
                )
    return values


def summary(values: list[float]) -> tuple[float, float, float]:
    """Median and first and third quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def verdict(base: list[float], new: list[float], bound: float,
            lower_is_better: bool) -> tuple[str, float, float]:
    """``(verdict, worsening, spread)``; both as shares of medians."""
    base_median, base_q1, base_q3 = summary(base)
    new_median, new_q1, new_q3 = summary(new)
    spread = max((base_q3 - base_q1) / abs(base_median),
                 (new_q3 - new_q1) / abs(new_median))
    change = (new_median - base_median) / abs(base_median)
    worsening = change if lower_is_better else -change
    if spread > bound:
        if lower_is_better:
            dominates = max(new) < min(base)
        else:
            dominates = min(new) > max(base)
        return ("ok" if dominates else "unresolved"), worsening, spread
    return ("regressed" if worsening > bound else "ok"), worsening, spread


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench/compare.py", description=__doc__.split("\n\n")[0],
    )
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric for metric in spec["end_to_end"]}
    base, new = load(args.base), load(args.new)
    print(f"{'workload':<12} {'metric':<21} {'base median [q1, q3]':>34}  "
          f"{'new median [q1, q3]':>34}  {'worse':>7} {'spread':>7} "
          f"{'bound':>6}  verdict")
    counts: dict[str, int] = {}
    for key in sorted(set(base) & set(new)):
        workload, name = key
        metric = bounds.get(name)
        if metric is None:
            continue
        outcome, worsening, spread = verdict(
            base[key], new[key], metric["bound"], metric["better"] == "lower"
        )
        counts[outcome] = counts.get(outcome, 0) + 1
        cells = []
        for values in (base[key], new[key]):
            median, q1, q3 = summary(values)
            cells.append(f"{median:.4g} [{q1:.4g}, {q3:.4g}] (n={len(values)})")
        print(f"{workload:<12} {name:<21} {cells[0]:>34}  {cells[1]:>34}  "
              f"{worsening:>+7.1%} {spread:>7.1%} {metric['bound']:>6.0%}  "
              f"{outcome}")
    print(", ".join(f"{count} {outcome}"
                    for outcome, count in sorted(counts.items())))
    return 1 if counts.get("regressed") else 0


if __name__ == "__main__":
    sys.exit(main())
