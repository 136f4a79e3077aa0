"""The benchmark workloads and the inputs each one is built from.

Every workload is a closed loop in one process: the next pass of
``harness.run`` + ``harness.report`` starts when the previous one has ended.
Why each workload exists, and which layer metrics it is meant to move, is
written down in ``bench/README.md``.

The workload seed selects one of ``N_CASES`` input cases (``seed % N_CASES``),
so one seed always gives the same inputs, and the records of every case can
be checked against a stored reference. The case number seeds every generated
dataset. The run seed of a case (which places the windows and the masks) is
stored with its reference: ``make_reference.py`` picks, for each case, the
next run seed at which the workload has its nominal number of windows, so
every case does the same amount of work and ``run_s`` compares across seeds.

This module uses the standard library only, because ``run.py`` imports it
and leaves importing tixbench to the interpreters it starts.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

N_CASES = 10

# covariate_driven from configs/demo.yaml, shortened to 150 days: its test
# slice (30 days) holds two 28-day windows, so a pass scores 8 tasks. The
# series reaches tixbench as a CSV file written by ``tixbench synth``, so the
# CSV ingestion layer is measured too.
QUANTILE_DATASET = {
    "length_days": 150,
    "steps_per_day": 24,
    "components": [
        {"kind": "covariate_linear", "covariate_gain": 0.8},
        {"kind": "sine", "amplitude": 1.0, "period_ticks": 24},
        {"kind": "noise", "noise_std": 0.1},
    ],
}
QUANTILE_IMPUTERS = [
    {"id": "tix_fourier_q"},
    {"id": "tix_fourier_q", "name": "tix_fourier_q_cov", "params": {"use_covariates": True}},
    # The random basis of configs/demo.yaml: d = 1 + 2 * 64 = 129.
    {
        "id": "tix_random_basis_q",
        "params": {"n_random": 64, "freq_range": [0.5, 60.0], "lam": 10.0, "basis_seed": 0},
    },
]

@dataclass(frozen=True)
class Workload:
    name: str
    # 28-day windows per pass, over all datasets; each yields four tasks.
    segments: int
    # Workers of the one untimed pass on the process pool; 0 for none.
    pool_jobs: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        # README.md says why the pool pass is not a timed workload of its own.
        Workload("demo", 41, pool_jobs=2),
        Workload("quantile", 2),
    )
}


def case_of(seed: int) -> int:
    return seed % N_CASES


def tixbench_env(root: Path) -> dict:
    """Environment for a child interpreter that imports tixbench from ``src``."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _write_json(path: Path, payload: dict) -> Path:
    # JSON is valid YAML, so load_config reads these files unchanged.
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def prepare(name: str, seed: int, root: Path, work: Path) -> Path:
    """Write the inputs of one workload case into ``work``; return its config path.

    The demo workload uses ``configs/demo.yaml`` as committed. The quantile
    workload gets a CSV file written by ``tixbench synth`` and a config that
    reads it.
    """
    work.mkdir(parents=True, exist_ok=True)
    if name == "demo":
        return root / "configs" / "demo.yaml"
    if name == "quantile":
        spec_path = _write_json(work / "covariate_driven.spec.yaml", {**QUANTILE_DATASET, "seed": case_of(seed)})
        csv_path = work / "covariate_driven.csv"
        subprocess.run(
            [sys.executable, "-m", "tixbench.cli", "synth", str(spec_path), "-o", str(csv_path)],
            env=tixbench_env(root),
            check=True,
            stdout=subprocess.DEVNULL,
            timeout=120,
        )
        dataset = {
            "id": "covariate_driven",
            "path": csv_path.name,
            "steps_per_day": QUANTILE_DATASET["steps_per_day"],
            "covariate_columns": ["cov1"],
        }
        config = {"rank_metric": "wql", "datasets": [dataset], "imputers": QUANTILE_IMPUTERS}
        return _write_json(work / "quantile.yaml", config)
    raise ValueError(f"unknown workload {name!r}")
