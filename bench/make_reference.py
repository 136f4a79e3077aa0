"""Regenerate the stored reference records that ``measure.py`` checks.

Run from the repository root, only when a change to tixbench is meant to
change the scores (and say so with its size in CHANGES.md):

    python3 bench/make_reference.py [workload ...]

For every input case of each workload it picks the case's run seed: the
next seed at which the workload has its nominal number of windows. It then
runs one serial pass and stores the run seed, the record count, a digest of
the record keys, and every normalized MAE in
``bench/reference/<workload>.json``.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from measure import reference_entry, workload_config  # noqa: E402
from tixbench import harness  # noqa: E402
from tixbench.core import chrono_split, extract_segments  # noqa: E402
from workloads import N_CASES, WORKLOADS, prepare  # noqa: E402


def segment_count(config) -> int:
    """Windows that one pass of ``config`` scores, placed as ``harness.run`` places them."""
    total = 0
    for ds in config.datasets:
        _, _, test = chrono_split(harness.load_dataset(ds), config.splits)
        segments = extract_segments(
            test,
            seg_len_days=config.segment_len_days,
            stride_min_days=config.stride_days[0],
            stride_max_days=config.stride_days[1],
            seed=harness.stable_seed(config.seed, ds.id, "segments"),
        )
        total += len(segments)
    return total


def main(names: list[str]) -> int:
    names = names or sorted(WORKLOADS)
    work = BENCH / "work" / "reference"
    for name in names:
        cases = {}
        run_seed = -1
        for case in range(N_CASES):
            config_path = prepare(name, case, ROOT, work)
            run_seed += 1
            while segment_count(workload_config(config_path, run_seed)) != WORKLOADS[name].segments:
                run_seed += 1
            records = harness.run(workload_config(config_path, run_seed), jobs=1).records
            cases[str(case)] = {"run_seed": run_seed, **reference_entry(records)}
            print(f"{name} case {case}: run seed {run_seed}, {len(records)} records", flush=True)
        path = BENCH / "reference" / f"{name}.json"
        with open(path, "w") as fh:
            json.dump({"workload": name, "cases": cases}, fh, indent=0, sort_keys=True)
            fh.write("\n")
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
