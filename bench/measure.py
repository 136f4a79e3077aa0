"""Measured passes of one workload, run by ``run.py`` in a fresh interpreter.

A pass is ``harness.run`` followed by ``harness.report``, as ``tixbench run``
does it. This process warms up on one scenario, then runs timed serial
passes with tracing off for ``--seconds`` (at least two passes), and checks
the records of every pass against the stored reference. With ``--trace 1``, a
workload with ``pool_jobs`` then runs one pass on the process pool, whose
output must equal the serial output byte for byte; then one more serial pass
runs under the span tracer, and the LP oracle runs. It prints one JSON object
as its last line of output.

Running here rather than in ``run.py`` keeps this process's resource usage
(peak memory, and the CPU time of its pool workers) apart from the
interpreters that ``run.py`` starts to time set-up.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy

import oracle
from spans import IMPUTER_NAMES, ORACLE_DIMS, Tracer, layer_metrics
from workloads import WORKLOADS, case_of

import tixbench
from tixbench import harness, imputers, regress

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Records must reproduce the stored normalized MAE to this relative
# tolerance; BLAS thread counts alone move it by about 1e-14.
MAE_REL_TOL = 1e-9
# Timed passes continue until --seconds have gone by, and number at least this.
MIN_PASSES = 2


def workload_config(config_path, run_seed: int) -> harness.RunConfig:
    """The run config of one workload case: the config file with its run seed."""
    return replace(harness.load_config(config_path), seed=run_seed)


def keys_digest(records) -> str:
    keys = [[r.dataset, r.imputer_id, r.scenario_label, r.n_points] for r in records]
    return hashlib.sha256(json.dumps(keys).encode()).hexdigest()


def reference_entry(records) -> dict:
    return {
        "records": len(records),
        "keys_sha256": keys_digest(records),
        "mae": [r.mae for r in records],
    }


def check_records(records, ref: dict) -> list[str]:
    """Problems found comparing a pass's records with the stored reference."""
    if len(records) != ref["records"] or keys_digest(records) != ref["keys_sha256"]:
        return [f"record keys differ from the reference ({len(records)} records, {ref['records']} stored)"]
    bad = [
        (r, m) for r, m in zip(records, ref["mae"]) if not abs(r.mae - m) <= MAE_REL_TOL * abs(m)
    ]
    if bad:
        r, m = bad[0]
        return [
            f"{len(bad)} mae values off the reference by more than {MAE_REL_TOL:g} relative; "
            f"first {r.dataset}/{r.imputer_id}/{r.scenario_label}: {r.mae!r} vs {m!r}"
        ]
    return []


def _stripped_json(path: Path) -> str:
    payload = json.loads(path.read_text())
    payload["meta"].pop("generated_at", None)
    return json.dumps(payload, sort_keys=True)


def byte_identity_problems(serial_dir: Path, pool_dir: Path) -> list[str]:
    """C8 from outside: pool output must equal serial output byte for byte."""
    problems = []
    if _stripped_json(serial_dir / "results.json") != _stripped_json(pool_dir / "results.json"):
        problems.append("results.json under --jobs differs from the serial run")
    for name in ("results.csv", "report.md"):
        if (serial_dir / name).read_bytes() != (pool_dir / name).read_bytes():
            problems.append(f"{name} under --jobs differs from the serial run")
    return problems


def blas_environment() -> dict:
    """Thread settings as found: environment variables and each OpenBLAS copy.

    Reads only; never sets a thread count.
    """
    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "openblas": {},
    }
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    except OSError:
        libs = []
    getters = (
        "scipy_openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in getters:
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                env["openblas"][Path(lib).name] = {"getter": symbol, "threads": getter()}
                break
    return env


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


class Passes:
    """Runs checked passes, counting attempted and failed imputations."""

    def __init__(self, config, ref: dict):
        self.config = config
        self.ref = ref
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.records = None

    def add_problems(self, problems: list[str]) -> None:
        self.problems.extend(p for p in problems if p not in self.problems)

    def run(self, jobs: int, out: Path) -> tuple[float, float, float] | None:
        """One pass: its wall, CPU and pool-worker CPU seconds.

        Returns None when the pass raised; every imputation of it then counts
        as failed, because one exception aborts ``harness.run``.
        """
        self_before = resource.getrusage(resource.RUSAGE_SELF)
        child_before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        try:
            bench = harness.run(self.config, jobs=jobs)
            harness.report(bench.records, bench.aggregates, bench.ranks, out, meta=bench.meta)
        except Exception:
            traceback.print_exc()
            self.attempted += self.ref["records"]
            self.failed += self.ref["records"]
            self.add_problems(["a pass raised"])
            return None
        wall = time.perf_counter() - start
        child_cpu = _cpu(resource.getrusage(resource.RUSAGE_CHILDREN)) - _cpu(child_before)
        cpu = _cpu(resource.getrusage(resource.RUSAGE_SELF)) - _cpu(self_before) + child_cpu
        self.attempted += len(bench.records)
        self.add_problems(check_records(bench.records, self.ref))
        self.records = bench.records
        return wall, cpu, child_cpu

    def traced(self, work: Path) -> tuple[float, Tracer]:
        """One serial pass under the tracer: its wall seconds and the tracer."""
        names = {
            (im.id, json.dumps(im.params, sort_keys=True, default=str)): im.name
            for im in self.config.imputers
        }
        tracer = Tracer()
        tracer.install(harness, imputers, names)
        try:
            start = time.perf_counter()
            bench = harness.run(self.config, jobs=1)
            harness.report(bench.records, bench.aggregates, bench.ranks, work / "traced", meta=bench.meta)
            wall = time.perf_counter() - start
        finally:
            tracer.uninstall()
        self.add_problems(check_records(bench.records, self.ref))
        return wall, tracer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--work", required=True)
    args = parser.parse_args()

    if Path(tixbench.__file__).resolve().parent != (ROOT / "src" / "tixbench").resolve():
        print(f"error: imported tixbench from {tixbench.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = Path(args.work)
    cases = json.loads((BENCH / "reference" / f"{workload.name}.json").read_text())["cases"]
    ref = cases[str(case_of(args.seed))]
    config = workload_config(args.config, ref["run_seed"])
    unknown = sorted({im.name for im in config.imputers} - set(IMPUTER_NAMES))
    if unknown:
        print(f"error: imputers {unknown} have no per-layer metrics in spans.IMPUTER_NAMES", file=sys.stderr)
        return 2

    passes = Passes(config, ref)
    # Warm-up, untimed: the first scenario only, which reaches every dataset,
    # imputer and code path at a quarter of the cost of a pass.
    try:
        harness.run(replace(config, scenarios=config.scenarios[:1]), jobs=1)
    except Exception:
        # The timed passes fail the same way and count the failure.
        traceback.print_exc()
    walls, cpus = [], []
    start = time.perf_counter()
    # Start another pass only if it should end within --seconds.
    while len(walls) < MIN_PASSES or time.perf_counter() - start + statistics.median(walls) <= args.seconds:
        timing = passes.run(1, work / "pass")
        if timing is None:
            break
        walls.append(timing[0])
        cpus.append(timing[1])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = {}
    if args.trace and walls and not passes.failed:
        # The pool pass: C8 from outside (its output must equal the last
        # serial pass's byte for byte), and the only measurement of the pool
        # layer.
        pool_wall = pool_child_cpu = pool_util = 0.0
        if workload.pool_jobs:
            timing = passes.run(workload.pool_jobs, work / "pool")
            if timing is not None:
                passes.add_problems(byte_identity_problems(work / "pass", work / "pool"))
                pool_wall, _, pool_child_cpu = timing
                pool_util = pool_child_cpu / (pool_wall * workload.pool_jobs)
        traced_s, tracer = passes.traced(work)
        spans = tracer.spans
        with open(work / "trace.json", "w") as fh:
            json.dump({"spans": spans}, fh)
        layers = layer_metrics(spans)
        layers["harness.pool.run_s"] = (pool_wall, "s")
        layers["harness.pool.child_cpu_s"] = (pool_child_cpu, "s")
        layers["harness.pool.cpu_util"] = (pool_util, "ratio")
        for d in ORACLE_DIMS:
            gap = oracle.lp_gap_rel(tracer.oracle_samples[d], regress.pinball_fit, regress.predict)
            layers[f"regress.pinball_fit.lp_gap_rel.d{d}"] = (gap, "ratio")
        layers["trace.pass_s"] = (traced_s, "s")
        layers["trace.overhead_s"] = (traced_s - statistics.median(walls), "s")

    records = passes.records or ()
    wqls = [r.wql for r in records if r.wql is not None]
    print(
        json.dumps(
            {
                "walls": walls,
                "cpus": cpus,
                "peak_rss_mb": peak_rss_mb,
                "mae_mean": float(np.mean([r.mae for r in records])) if records else 0.0,
                "wql_mean": float(np.mean(wqls)) if wqls else None,
                "attempted": passes.attempted,
                "failed": passes.failed,
                "problems": passes.problems,
                "env": blas_environment(),
                "layers": layers,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
