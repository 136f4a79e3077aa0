#!/usr/bin/env python3
"""Compare the records of two tixbench runs, metric by metric.

    python scripts/compare_records.py A/results.json B/results.json

A record's key (dataset, imputer_id, scenario_label, n_points) repeats once
per window and a record names no window, so the records pair by position:
both files must hold the same sequence of keys. A run writes its records in
``harness._record_sort_key`` order, by key and then by score, so the script
compares each key's sorted scores, not each window's own scores. Scores that
trade places between two windows of one key read as no move, and the largest
move printed is a lower bound on any single window's move; byte identity of
the two files (``cmp``) is the check for a claim that nothing moved. For each
imputer and metric the script prints how many values moved and the largest
relative move, |a - b| / max(|a|, |b|). Two empty ``wql`` are equal and not
counted, and a ``wql`` on one side only is an infinite move. It exits 1 when
the key sequences differ or any value moved, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

KEY = ("dataset", "imputer_id", "scenario_label", "n_points")
METRICS = ("mae", "wql")


def relative_move(a: float | None, b: float | None) -> float:
    if a == b:
        return 0.0
    if a is None or b is None:
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare the records of two tixbench runs, metric by metric.")
    parser.add_argument("a", help="results.json of one run")
    parser.add_argument("b", help="results.json of the other run")
    args = parser.parse_args(argv)
    a, b = (json.loads(Path(path).read_text(encoding="utf-8"))["records"] for path in (args.a, args.b))
    keys = [[tuple(r[k] for k in KEY) for r in records] for records in (a, b)]
    if keys[0] != keys[1]:
        at = next((i for i, (x, y) in enumerate(zip(*keys)) if x != y), min(map(len, keys)))
        first = [side[at] if at < len(side) else "no record" for side in keys]
        print(f"keys differ: {len(a)} against {len(b)} records; record {at} is {first[0]} against {first[1]}")
        return 1
    moves: dict[tuple[str, str], list[float]] = {}
    for x, y in zip(a, b):
        for metric in (m for m in METRICS if (x[m], y[m]) != (None, None)):
            moves.setdefault((x["imputer_id"], metric), []).append(relative_move(x[metric], y[metric]))
    for (imputer, metric), rel in sorted(moves.items()):
        moved = sum(r > 0 for r in rel)
        print(f"{imputer} {metric}: {moved} of {len(rel)} moved, largest relative move {max(rel):.3g}")
    worst = max((r for rel in moves.values() for r in rel), default=0.0)
    print(f"{len(a)} records; largest relative move {worst:.3g}")
    return int(worst > 0)


if __name__ == "__main__":
    sys.exit(main())
