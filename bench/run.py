"""tixbench benchmark: time one workload end to end, check it, and trace it.

Run from the repository root:

    python3 bench/run.py --workload demo --seed 0 --seconds 45 --trace 0

It writes the workload's inputs (from the seed only), times set-up in fresh
interpreters, then runs the measured passes in one more fresh interpreter
(``measure.py``). It prints every end-to-end metric with its unit, and with
``--trace 1`` every per-layer metric too. Its last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
metrics are the end-to-end ones, or with ``--trace 1`` the per-layer ones.
The exit code is 1 when a record is wrong or an imputation failed.

The benchmark reads BLAS thread settings but never sets them: the default
oversubscription is part of what it measures. Workloads and metrics are
described in ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, case_of, prepare, tixbench_env

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5
MEASURE_TIMEOUT_S = 150

# What a user waits for before a run starts: a fresh interpreter imports
# tixbench and loads the workload's config.
SETUP_CODE = """
import sys, time
start = time.perf_counter()
import tixbench.harness
imported = time.perf_counter()
tixbench.harness.load_config(sys.argv[1])
print(imported - start, time.perf_counter() - imported)
"""


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def time_setup(config: Path) -> tuple[float, float, float]:
    """Wall, import and load_config seconds of one fresh interpreter."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(config)],
        env=tixbench_env(ROOT),
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    wall = time.perf_counter() - start
    import_s, load_s = (float(x) for x in proc.stdout.split())
    return wall, import_s, load_s


def run_measure(args, config: Path, work: Path) -> dict:
    cmd = [
        sys.executable,
        str(BENCH / "measure.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--config", str(config),
        "--work", str(work),
    ]
    # A session of its own, so that on timeout its pool workers go too.
    proc = subprocess.Popen(cmd, env=tixbench_env(ROOT), stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=MEASURE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"measure.py exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="how long the timed passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "tixbench" / "__init__.py").is_file():
        print(f"error: no tixbench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = BENCH / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)

    start = time.perf_counter()
    config = prepare(args.workload, args.seed, ROOT, work)
    inputs_s = time.perf_counter() - start
    setups = [time_setup(config) for _ in range(SETUP_REPEATS)]
    m = run_measure(args, config, work)

    walls = m["walls"]
    p25, run_s, p75 = quartiles(walls) if walls else (0.0, 0.0, 0.0)
    ops_failed_ratio = m["failed"] / m["attempted"] if m["attempted"] else 1.0
    end_to_end = {
        "setup_s": (statistics.median(s[0] for s in setups), "s"),
        "run_s": (run_s, "s"),
        "cpu_s": (statistics.median(m["cpus"]) if m["cpus"] else 0.0, "s"),
        "peak_rss_mb": (m["peak_rss_mb"], "MB"),
    }
    correct = not m["problems"] and m["attempted"] > 0

    env = m["env"]
    print(f"workload {args.workload}  seed {args.seed} (input case {case_of(args.seed)})")
    print(
        f"environment  nproc {env['nproc']}  python {env['python']}  numpy {env['numpy']}  "
        f"scipy {env['scipy']}  OPENBLAS_NUM_THREADS={env['OPENBLAS_NUM_THREADS']}  "
        f"OMP_NUM_THREADS={env['OMP_NUM_THREADS']}"
    )
    for lib, info in env["openblas"].items():
        print(f"  {lib}: {info['threads']} threads ({info['getter']})")
    print(f"  {'setup_s':<17} {end_to_end['setup_s'][0]:.4f} s  (median of {SETUP_REPEATS} fresh interpreters)")
    print(f"  {'run_s':<17} {run_s:.4f} s  (p25 {p25:.4f}, p75 {p75:.4f}, n={len(walls)} passes)")
    print(f"  {'cpu_s':<17} {end_to_end['cpu_s'][0]:.4f} s  (user+sys of the process, median per pass)")
    print(f"  {'peak_rss_mb':<17} {m['peak_rss_mb']:.1f} MB")
    print(f"  {'mae_mean':<17} {m['mae_mean']:.6f} (normalized MAE, mean over records)")
    wql = "n/a (no quantile imputers)" if m["wql_mean"] is None else f"{m['wql_mean']:.6f}"
    print(f"  {'wql_mean':<17} {wql}")
    print(f"  {'ops_failed_ratio':<17} {ops_failed_ratio:.4f} ({m['failed']} of {m['attempted']} imputations)")
    for problem in m["problems"]:
        print(f"  INCORRECT: {problem}")

    metrics = end_to_end
    if args.trace:
        per_layer = {
            "setup.import_s": (statistics.median(s[1] for s in setups), "s"),
            "setup.load_config_s": (statistics.median(s[2] for s in setups), "s"),
            "inputs.generate_s": (inputs_s, "s"),
            "run.p25_s": (p25, "s"),
            "run.p75_s": (p75, "s"),
            "run.passes": (len(walls), "count"),
            "score.mae_mean": (m["mae_mean"], "znorm"),
            "score.wql_mean": (m["wql_mean"] or 0.0, "1"),
            **{k: tuple(v) for k, v in m["layers"].items()},
        }
        for name, (value, unit) in per_layer.items():
            print(f"  {name:<42} {value:.6g} {unit}")
        metrics = per_layer

    result = {
        "correct": correct,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct and m["failed"] == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
