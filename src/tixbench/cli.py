"""Command-line interface: run benchmarks, materialize synth data, score files."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import yaml

from .core import floored_std
from .harness import DatasetSpec, IngestionError, load_config, read_csv_columns, run_and_report, synth_from_dict
from .metrics import wql as wql_metric, znorm_mae
from .synth import generate


def _cmd_run(args) -> int:
    try:
        config = load_config(args.config)
    except Exception as err:
        print(f"error: could not load config: {err}", file=sys.stderr)
        return 1
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.output_dir is not None:
        config = replace(config, output_dir=args.output_dir)
    try:
        bench, paths = run_and_report(config, jobs=args.jobs)
    except IngestionError as err:
        print("error: dataset ingestion failed", file=sys.stderr)
        for ds_id, msg in sorted(err.failures.items()):
            print(f"  {ds_id}: {msg}", file=sys.stderr)
        return 1
    print(f"scored {len(bench.records)} records")
    if bench.ranks:
        best = min(bench.ranks.items(), key=lambda kv: kv[1])
        print(f"best average rank: {best[0]} ({best[1]:.3f})")
    for kind, path in paths.items():
        print(f"{kind}: {path}")
    return 0


def _cmd_synth(args) -> int:
    with open(args.spec) as fh:
        raw = yaml.safe_load(fh) or {}
    # The optional ``id`` names the series; it is no field of the spec.
    series_id = raw.pop("id", Path(args.spec).stem) if isinstance(raw, dict) else None
    series = generate(synth_from_dict(raw), series_id=series_id)
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    cov_names = sorted(series.covariates)
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([DatasetSpec.timestamp_column, DatasetSpec.value_column, *cov_names])
        for i, ts in enumerate(series.timestamps):
            writer.writerow(
                [int(ts), repr(float(series.values[i])), *(repr(float(series.covariates[c][i])) for c in cov_names)]
            )
    print(f"wrote {len(series)} rows to {out}")
    return 0


# An overflow shows as a non-finite score, which the JSON dump below rejects.
@np.errstate(all="ignore")
def _cmd_score(args) -> int:
    truth_stamps, truth = read_csv_columns(args.truth, args.timestamp_column, (args.value_column,))
    pred_stamps, pred = read_csv_columns(args.pred, args.timestamp_column, (args.value_column,), prefix="q0.")
    # Rows pair by equal parsed timestamps; a pair is scored when both values are present.
    pred_row = {s: i for i, s in enumerate(pred_stamps)}
    pairs = [(i, pred_row[s]) for i, s in enumerate(truth_stamps) if s in pred_row]
    ti, pi = np.array(pairs, dtype=int).reshape(-1, 2).T
    t, p = truth[args.value_column][ti], pred.pop(args.value_column)[pi]
    scored = ~np.isnan(t) & ~np.isnan(p)
    if not scored.any():
        print("error: no overlapping scored timestamps", file=sys.stderr)
        return 1
    t, p, pi = t[scored], p[scored], pi[scored]
    std = floored_std(t)
    result = {
        "n_points": len(t),
        "mae": float(np.mean(np.abs(t - p))),
        "znorm_mae": znorm_mae(t, p, std),
        "truth_std": std,
    }
    levels = {float(c[1:]): q[pi] for c, q in pred.items() if not np.isnan(q[pi]).any()}
    if levels:
        try:
            result["wql"] = wql_metric(levels, t)
            result["wql_levels"] = sorted(levels)
        except ValueError:
            pass
    try:
        text = json.dumps(result, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise ValueError(f"{args.pred}: scores against {args.truth} are not finite") from None
    print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tixbench",
        description="Zero-shot time-series imputation benchmark harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a benchmark config and write reports")
    p_run.add_argument("config", help="YAML run configuration")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p_run.add_argument("--output-dir", default=None, help="override the config output directory")
    p_run.set_defaults(func=_cmd_run)

    p_synth = sub.add_parser("synth", help="materialize a synthetic dataset as CSV")
    p_synth.add_argument("spec", help="YAML synthetic-series spec")
    p_synth.add_argument("-o", "--output", required=True, help="output CSV path")
    p_synth.set_defaults(func=_cmd_synth)

    p_score = sub.add_parser("score", help="score a prediction CSV against a truth CSV")
    p_score.add_argument("truth")
    p_score.add_argument("pred")
    p_score.add_argument("--timestamp-column", default=DatasetSpec.timestamp_column)
    p_score.add_argument("--value-column", default=DatasetSpec.value_column)
    p_score.set_defaults(func=_cmd_score)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as err:
        # A bad config, spec or input file, or a run that cannot go on.
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
