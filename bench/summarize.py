"""Summarize benchmark result lines: medians, quartiles and spreads.

Each input file holds the JSON result lines of several runs of one workload
(one line per run, as ``bench/run.py`` prints last).  For one file this
prints, per metric, the median, the quartiles and the spread (quartile
distance over the median).  For two files, a parent's and a change's, it
adds the change's median over the parent's and the bound from
``BENCHMARK.json``, flagging a median that is worse by more than the bound::

    python3 bench/summarize.py parent.jsonl change.jsonl
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path) -> dict[str, list[float]]:
    values: dict[str, list[float]] = {}
    failed = attempted = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            result = json.loads(line)
            if not result["correct"]:
                print(f"{path}: a run reports incorrect outputs", file=sys.stderr)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
    print(f"{path}: {failed} of {attempted} operations failed")
    return values


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and quartile distance over the median."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    better = {m["name"]: (m["better"], m.get("bound")) for m in spec["end_to_end"] + spec["per_layer"]}
    runs = [load(p) for p in argv]
    print(f"{'metric':40s} {'n':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s}" + ("   change/parent  bound" if len(runs) == 2 else ""))
    for name, values in runs[0].items():
        med, q1, q3, sp = spread(values)
        line = f"{name:40s} {len(values):3d} {med:12.5g} {q1:12.5g} {q3:12.5g} {sp:7.3f}"
        if len(runs) == 2 and name in runs[1]:
            new = statistics.median(runs[1][name])
            ratio = new / med if med else float("nan")
            direction, bound = better.get(name, ("lower", None))
            worse = ratio - 1.0 if direction == "lower" else 1.0 - ratio
            flag = "  WORSE" if bound is not None and worse > bound else ""
            line += f"   {ratio:13.4f}  {bound if bound is not None else '-'}{flag}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
