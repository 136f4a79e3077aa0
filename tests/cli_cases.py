"""Every CLI error-line case: one row each, run in-process by tier-1 and through the installed script here.

A case is one ``tixbench`` command on files written into an empty directory. It must exit 1, print nothing on
stdout, print exactly its ``err`` on stderr (``{dir}`` standing for the directory; a compiled pattern must match
the whole of it) with no traceback, and leave the directory holding its input files alone. Cases are keyed by the
tier-1 test that runs them, so ``name[id]`` is a case of the parametrized test ``name``.

Tier-1 (``tests/test_harness.py``) calls ``cli.main`` with each case's ``guards`` patched to fail, which proves
the refusal comes before them. Run as a script, this module runs each case through the ``tixbench`` on ``PATH``
in a child process, under the case's address-space limit and timeout, and exits 1 if any case fails:

    python tests/cli_cases.py

A new refusal gets a case here, not a CI step of its own.
"""

from __future__ import annotations

import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import yaml

SYNTH_DICT = {
    "length_days": 280,
    "steps_per_day": 24,
    "seed": 5,
    "components": [
        {"kind": "sine", "amplitude": 1.0, "period_ticks": 24},
        {"kind": "noise", "noise_std": 0.1},
    ],
}
# A config that runs: one synthetic dataset, one imputer.
RUN_DICT = {"datasets": [{"id": "d", "synth": SYNTH_DICT}], "imputers": [{"id": "linear"}]}
SINE = {"kind": "sine", "amplitude": 1.0, "period_ticks": 24}
NAN_AMPLITUDE_SINE = {**SINE, "amplitude": float("nan")}

# Under the ``ulimit -v 2000000`` of a shell: a count that a regression lets through fails fast, not slowly.
TWO_GB = 2_000_000 * 1024
BEFORE_ANY_TASK = ("tixbench.harness._score_tasks",)
BEFORE_ANY_LOAD = ("tixbench.harness.load_dataset",)
BEFORE_A_GRID = ("tixbench.harness.synth_generate", "tixbench.cli.generate")
BEFORE_ANY_FIT = tuple(f"tixbench.imputers.{f}" for f in ("handcrafted_features", "random_fourier_basis", "pinball_fit"))


@dataclass(frozen=True)
class Case:
    argv: tuple[str, ...]
    err: str | re.Pattern
    files: dict[str, str | bytes] = field(default_factory=dict)
    guards: tuple[str, ...] = ()  # dotted names a tier-1 run patches to fail
    memory: int | None = None  # the address-space limit of the script's process, in bytes
    timeout: float | None = None  # seconds the script may take


def rows_csv(rows, header="timestamp,value") -> str:
    return "".join(f"{line}\n" for line in (header, *(",".join(map(str, row)) for row in rows)))


def dumped(doc) -> str | bytes:
    """A YAML file's content: ``doc`` itself if it is text, else what it dumps to."""
    return doc if isinstance(doc, (str, bytes)) else yaml.safe_dump(doc)


def run(doc, message, files=None, **kw) -> Case:
    """``tixbench run`` on the config ``doc`` beside ``files``."""
    return Case(("run", "{dir}/cfg.yaml"), f"error: {message}\n", {"cfg.yaml": dumped(doc), **(files or {})}, **kw)


def on_csv(text, message, dataset=(), config=(), **kw) -> Case:
    """``tixbench run`` on dataset ``d``, the CSV ``d.csv`` holding ``text``, which cannot run for ``message``."""
    dataset = {"id": "d", "path": "d.csv", "steps_per_day": 24, **dict(dataset)}
    doc = {**RUN_DICT, "datasets": [dataset], **dict(config)}
    return run(doc, f"dataset ingestion failed\n  d: {message}", {"d.csv": text}, **kw)


def synth(spec, message, **kw) -> Case:
    """``tixbench synth`` on the spec ``spec``."""
    argv = ("synth", "{dir}/spec.yaml", "-o", "{dir}/d.csv")
    return Case(argv, f"error: {message}\n", {"spec.yaml": dumped(spec)}, **kw)


def score(truth, pred, message) -> Case:
    """``tixbench score t.csv p.csv``; ``message`` names either file as ``{dir}/t.csv`` or ``{dir}/p.csv``."""
    return Case(("score", "{dir}/t.csv", "{dir}/p.csv"), f"error: {message}\n", {"t.csv": truth, "p.csv": pred})


def run_and_synth(name, spec, message, heading="", kind="", **kw) -> dict[str, Case]:
    """``name[<kind>run]``, a run of one dataset generated from ``spec``, and ``name[<kind>synth]``, ``tixbench
    synth`` on it."""
    doc = {**RUN_DICT, "datasets": [{"id": "d", "synth": spec}]}
    return {f"{name}[{kind}run]": run(doc, heading + message, **kw), f"{name}[{kind}synth]": synth(spec, message, **kw)}


def score_bad_cell(file, column, text) -> Case:
    # Both files follow the ingestion rules: only an empty cell is missing, and a repeated timestamp is an error.
    header = ("timestamp", "value", "q0.9")
    good = [[0, 2.0, 3.0], [1, 4.0, 5.0], [2, 3.0, 4.0]]
    bad = [row[:] for row in good]
    bad[1][header.index(column)] = text
    truth = rows_csv([r[:2] for r in (bad if file == "truth" else good)])
    pred = rows_csv(bad if file == "pred" else good, ",".join(header))
    message = "duplicate timestamps" if column == "timestamp" else f"non-finite cell {text!r} in column {column!r}"
    return score(truth, pred, f"{{dir}}/{'t' if file == 'truth' else 'p'}.csv: {message}")


def imputer(imputer_id, **params) -> dict:
    return {"imputers": [{"id": imputer_id, "params": params}]}


def synth_dataset(**changes) -> dict:
    return {"datasets": [{"id": "d", "synth": {**SYNTH_DICT, **changes}}]}


def filtered(min_std_filter) -> dict:
    return {"datasets": [{"id": "d", "synth": SYNTH_DICT, "min_std_filter": min_std_filter}]}


PAIR = rows_csv([[0, 1.0], [1, 2.0]])
NOT_UTF8 = b"timestamp,value\n0,1.0\n1,2.0 \xff\n2,3.0\n"
BOM = b"\xef\xbb\xbf"  # the UTF-8 byte-order mark, which Excel's "CSV UTF-8" writes first
LIMIT = 131072  # csv's default field size limit

CASES: dict[str, Case] = {
    # A held-out day near 1e-300 beside predictions near 1e99 overflows wql to inf, which JSON cannot hold. Every
    # value is within the 1e100 bound on what a run loads.
    "test_a_score_that_is_not_finite_names_its_task_and_writes_nothing": Case(
        ("run", "{dir}/cfg.yaml"),
        re.compile(
            r"error: dataset 'tiny', ticks \d+-\d+, scenario 'day', imputer 'tix_fourier_q': "
            r"a score is not finite: mae \S+, wql inf\n"
        ),
        {
            "tiny.csv": rows_csv([t, (1e-300 if t // 24 % 3 == 0 else 1e99) * (1.0 + 0.1 * (t % 5))] for t in range(960)),
            "cfg.yaml": yaml.safe_dump(
                {
                    "datasets": [{"id": "tiny", "path": "tiny.csv", "steps_per_day": 24}],
                    "segment": {"len_days": 3, "stride": [1, 1]},
                    "scenarios": [{"kind": "blocks", "param": 1, "label": "day"}],
                    "imputers": [{"id": "tix_fourier_q"}],
                }
            ),
        },
    ),
    **{
        f"test_missing_input_file_is_an_error_line[{command}]": Case(
            (command, "{dir}/nosuch.csv", *{"score": ["{dir}/p.csv"], "synth": ["-o", "{dir}/p.csv"]}[command]),
            "error: [Errno 2] No such file or directory: '{dir}/nosuch.csv'\n",
            {"p.csv": rows_csv([[0, 1.0]])},
        )
        for command in ("score", "synth")
    },
    # Listed out of order: the lines follow the sorted dataset ids.
    "test_run_reports_ingestion_failures": run(
        {
            "datasets": [{"id": d, "path": f"{d}.csv", "steps_per_day": 24} for d in ("pair", "ghost", "absent")],
            "imputers": [{"id": "linear"}],
        },
        "dataset ingestion failed\n"
        "  absent: [Errno 2] No such file or directory: '{dir}/absent.csv'\n"
        "  ghost: [Errno 2] No such file or directory: '{dir}/ghost.csv'\n"
        "  pair: series too short to split: 2 ticks",
        {"pair.csv": PAIR},
    ),
    # The empty covariate cell at tick 150 falls inside the first window of the test slice (which starts at
    # tick 134), so the run refuses covar_ridge before any task.
    "test_run_reports_config_and_run_errors": on_csv(
        rows_csv([[t, float(t), "" if t == 150 else 1.0] for t in range(1344)], "timestamp,value,temp"),
        "covariate 'temp' has no value at tick 150, which imputer 'covar_ridge' reads",
        {"covariate_columns": ["temp"]},
        {"imputers": [{"id": "covar_ridge"}], "splits": [0.05, 0.05, 0.9]},
        guards=BEFORE_ANY_TASK,
    ),
    **{
        f"test_score_rejects_bad_cells[{file}-{column}-{text}]": score_bad_cell(file, column, text)
        for file, column, text in [
            *((f, "value", t) for f in ("truth", "pred") for t in ("nan", "NaN", "inf", "-inf")),
            *(("pred", "q0.9", t) for t in ("nan", "NaN", "inf", "-inf")),
            ("truth", "timestamp", "0"),
            ("pred", "timestamp", "0"),
        ]
    },
    # Timestamp 1 is in both files, but its truth is missing.
    "test_score_without_a_shared_scored_timestamp_is_an_error_line": score(
        rows_csv([[0, 1.0], [1, ""]]), rows_csv([[1, 2.0], [2, 3.0]]), "no overlapping scored timestamps"
    ),
    # Beside a valid column, the bad one fails the whole score: no output without its wql.
    **{
        f"test_score_with_a_bad_quantile_column_is_an_error_line[{name}]": score(
            rows_csv([[0, 2.0], [1, 4.0]]),
            rows_csv([[0, 2.0, 1.0, 3.0], [1, 4.0, 3.0, 5.0]], f"timestamp,value,{levels}"),
            f"{{dir}}/p.csv: {message}",
        )
        for name, levels, message in [
            ("q0.0", "q0.0,q0.9", "quantile column 'q0.0' names no level strictly between 0 and 1"),
            ("q0.x", "q0.x,q0.9", "quantile column 'q0.x' names no level strictly between 0 and 1"),
            ("q0.1-q0.10", "q0.1,q0.10", "quantile columns 'q0.1' and 'q0.10' name one level, 0.1"),
        ]
    },
    **{
        f"test_config_of_the_wrong_shape_is_an_error_line[{name}]": (run if command == "run" else synth)(doc, message)
        for name, command, doc, message in [
            ("datasets", "run", {**RUN_DICT, "datasets": 5}, "datasets: expected a list, got 5"),
            ("imputers", "run", {**RUN_DICT, "imputers": "linear"}, "imputers: expected a list, got 'linear'"),
            (
                "scenarios",
                "run",
                {**RUN_DICT, "scenarios": {"kind": "blocks"}},
                "scenarios: expected a list, got {'kind': 'blocks'}",
            ),
            (
                "covariate_columns",
                "run",
                {**RUN_DICT, "datasets": [{"id": "d", "path": "d.csv", "steps_per_day": 24, "covariate_columns": "temp"}]},
                "dataset 'd': covariate_columns: expected a list, got 'temp'",
            ),
            ("components", "synth", {**SYNTH_DICT, "components": 5}, "synth components: expected a list, got 5"),
            ("run_empty", "run", "", "config: datasets must not be empty"),
            ("run_list", "run", [], "config: expected a mapping, got []"),
            ("run_zero", "run", 0, "config: expected a mapping, got 0"),
            ("synth_list", "synth", [], "synth: expected a mapping, got []"),
            ("synth_empty", "synth", "", "synth: missing key 'steps_per_day'"),
            (
                "run_yaml",
                "run",
                "datasets: [{id: d\n",
                "{dir}/cfg.yaml: malformed YAML at line 2, column 1: expected ',' or '}', but got '<stream end>'",
            ),
            (
                "synth_yaml",
                "synth",
                "length_days: 28\n\tseed: 1\n",
                "{dir}/spec.yaml: malformed YAML at line 2, column 1: found character '\\t' that cannot start any token",
            ),
        ]
    },
    # YAML keeps the last of two equal keys: a config with imputers and seed given twice ran the second list at the
    # second seed and exited 0.
    **{
        f"test_a_repeated_yaml_key_is_an_error_line[{name}]": (run if command == "run" else synth)(
            text, message, guards=BEFORE_ANY_LOAD if command == "run" else BEFORE_A_GRID
        )
        for name, command, text, message in [
            (
                "top_level",
                "run",
                "datasets: [{id: d, synth: {length_days: 280, steps_per_day: 24}}]\n"
                "imputers: [{id: linear}]\nseed: 1\nimputers: [{id: locf}]\nseed: 5\n",
                "{dir}/cfg.yaml: malformed YAML at line 4, column 1: duplicate key 'imputers'",
            ),
            (
                "params",
                "run",
                "datasets: [{id: d, synth: {length_days: 280, steps_per_day: 24}}]\n"
                "imputers:\n  - id: tix_fourier\n    params: {lam: 1.0, lam: 2.0}\n",
                "{dir}/cfg.yaml: malformed YAML at line 4, column 24: duplicate key 'lam'",
            ),
            (
                "synth",
                "synth",
                "length_days: 28\nsteps_per_day: 24\nlength_days: 56\n",
                "{dir}/spec.yaml: malformed YAML at line 3, column 1: duplicate key 'length_days'",
            ),
        ]
    },
    # report.md writes each name into a table cell as it is: a '|' or a line break split the row, and the run
    # exited 0.
    **{
        f"test_a_name_that_would_split_a_report_row_is_an_error_line_before_any_load[{key}]": run(
            {**RUN_DICT, **change},
            f"config: {key}: {name} holds '|' or a line break, which would split a report row",
            guards=BEFORE_ANY_LOAD,
        )
        for key, change, name in [
            ("datasets", {"datasets": [{"id": "a|b", "synth": SYNTH_DICT}]}, "id 'a|b'"),
            ("imputers", {"imputers": [{"id": "linear", "name": "lin|ear"}, {"id": "locf", "name": "lo\ncf"}]},
             "name 'lin|ear'"),
            ("scenarios", {"scenarios": [{"kind": "pointwise", "param": 0.5, "label": "p\rq"}]}, "label 'p\\rq'"),
        ]
    },
    # Each value is refused at load; a run that used it would fail mid-run, end in a traceback or read it as
    # something else.
    **{
        f"test_bad_config_value_is_an_error_line_before_any_task[{name}]": run(
            {**RUN_DICT, **change}, message, guards=BEFORE_ANY_TASK
        )
        for name, change, message in [
            ("output_dir", {"output_dir": 5}, "config: output_dir must be a string, got 5"),
            ("seed", {"seed": [1, 2]}, "config: seed must be a whole number, got [1, 2]"),
            ("path", {"datasets": [{"id": "c", "path": 5, "steps_per_day": 24}]},
             "dataset 'c': path must be a string, got 5"),
            ("basis_seed", imputer("tix_random_basis", basis_seed="a"),
             "imputer 'tix_random_basis': basis_seed must be a whole number >= 0, got 'a'"),
            ("n_random", imputer("tix_random_basis", n_random=4.5),
             "imputer 'tix_random_basis': n_random must be a whole number >= 1 and <= 1024, got 4.5"),
            ("synth_length_days", synth_dataset(length_days=150.5),
             "synth: length_days must be a whole number >= 28 and <= 416666, got 150.5"),
            ("synth_seed", synth_dataset(seed="a"), "synth: seed must be a whole number >= 0, got 'a'"),
            ("use_covariates", imputer("tix_fourier", use_covariates="no"),
             "imputer 'tix_fourier': use_covariates must be true or false, got 'no'"),
            ("season", imputer("seasonal_naive", season=2.5),
             "imputer 'seasonal_naive': season must be a whole number >= 1, got 2.5"),
            ("stride_inf", {"segment": {"len_days": 28, "stride": [1, math.inf]}},
             "config: segment.stride must be a finite number >= 1.0, got inf"),
            ("len_days_1e300", {"segment": {"len_days": 1.0e300}},
             "config: segment.len_days must be a whole number >= 1 and <= 10000, got 1e+300"),
            ("splits_nan", {"splits": [math.nan, 0.5, 0.5]}, "config: splits must be a finite number > 0, got nan"),
            ("synth_amplitude_nan", synth_dataset(components=[NAN_AMPLITUDE_SINE]),
             "synth component: amplitude must be a finite number, got nan"),
            ("freq_range_inf", imputer("tix_random_basis", freq_range=[0.5, math.inf]),
             "imputer 'tix_random_basis': freq_range must be a finite number > 0.5, got inf"),
            ("lam_inf", imputer("tix_fourier_q", lam=math.inf),
             "imputer 'tix_fourier_q': lam must be a finite number >= 0, got inf"),
            *((f"periods_{value}", imputer("tix_fourier", periods=[float(value)]),
               f"imputer 'tix_fourier': periods must be a finite number > 0, got {value}") for value in ("nan", "inf")),
            *((f"min_std_filter_{label}", filtered(value), f"dataset 'd': min_std_filter must be a finite number, got {value!r}")
              for label, value in (("400_digits", 10**400), ("inf", math.inf), ("nan", math.nan), ("str", "a"), ("true", True))),
            *((f"lam_{label}", imputer("tix_fourier", lam=value),
               f"imputer 'tix_fourier': lam must be a finite number >= 0, got {value!r}")
              for label, value in (("str", "a"), ("null", None), ("list", [1]), ("true", True))),
            ("periods_str", imputer("tix_fourier", periods="ab"),
             "imputer 'tix_fourier': periods: expected a list, got 'ab'"),
            ("splits_str", {"splits": "abc"}, "config: splits: expected a list of 3, got 'abc'"),
            *((f"stride_{label}", {"segment": {"stride": value}}, f"config: segment.stride must be a finite number > 0, got {got}")
              for label, value, got in (("str", ["a", 1], "'a'"), ("true", [True, True], "True"))),
            *((f"synth_amplitude_{label}", synth_dataset(components=[{**SINE, "amplitude": value}]),
               f"synth component: amplitude must be a finite number, got {value!r}")
              for label, value in (("str", "a"), ("null", None), ("true", True))),
            *((f"freq_range_{label}", imputer("tix_random_basis", freq_range=value),
               f"imputer 'tix_random_basis': freq_range: expected a list of 2, got {value!r}")
              for label, value in (("str", "ab"), ("three", [1, 2, 3]))),
            ("quantile_levels_str", imputer("tix_fourier_q", quantile_levels="a"),
             "imputer 'tix_fourier_q': quantile_levels: expected a list, got 'a'"),
            ("pointwise_param_str", {"scenarios": [{"kind": "pointwise", "param": "a", "label": "p"}]},
             "scenario 'p': pointwise param must be a finite number > 0 and < 1, got 'a'"),
            *((f"params_{label}", {"imputers": [{"id": "tix_fourier", "params": value}]},
               f"imputer 'tix_fourier': params: expected a mapping, got {value!r}")
              for label, value in (("list", [1]), ("str", "a"))),
            ("unknown_param", imputer("covar_ridge", lamda=1), "imputer 'covar_ridge': unknown param 'lamda'"),
            ("id_list", {"imputers": [{"id": ["x"]}]}, "imputer ['x']: unknown imputer ['x']"),
            ("segment_list", {"segment": []}, "segment: expected a mapping, got []"),
            ("segment_zero", {"segment": 0}, "segment: expected a mapping, got 0"),
            ("scenarios_str", {"scenarios": ""}, "scenarios: expected a list, got ''"),
            ("scenarios_zero", {"scenarios": 0}, "scenarios: expected a list, got 0"),
            ("scenarios_empty", {"scenarios": []}, "config: scenarios must not be empty"),
            ("components_zero", synth_dataset(components=0), "synth components: expected a list, got 0"),
            ("dataset_id_null", {"datasets": [{"id": None, "synth": SYNTH_DICT}]}, "dataset: missing key 'id'"),
            ("dataset_id_missing", {"datasets": [{"synth": SYNTH_DICT}]}, "dataset: missing key 'id'"),
            ("scenario_label_null", {"scenarios": [{"kind": "pointwise", "param": 0.5, "label": None}]},
             "scenario: missing key 'label'"),
            ("second_scenario", {"scenarios": [{"kind": "pointwise", "param": p, "label": k} for p, k in ((0.5, "a"), (2, "b"))]},
             "scenario 'b': pointwise param must be a finite number > 0 and < 1, got 2"),
            ("named_imputer", {"imputers": [{"id": "tix_fourier"}, {"id": "tix_fourier", "name": "cov", "params": {"lam": -1}}]},
             "imputer 'cov': lam must be a finite number >= 0, got -1"),
            ("scenario_kind", {"scenarios": [{"kind": "gaps", "param": 1, "label": "g"}]},
             "scenario 'g': unknown scenario kind 'gaps'"),
            ("rank_metric", {"rank_metric": "rmse"}, "config: rank_metric must be 'mae' or 'wql'"),
        ]
    },
    # n_random sizes a d = 2 * n_random + 1 basis and its d x d Gram: 20000 would ask 12.8 GB for one.
    "test_n_random_above_its_bound_is_an_error_line_before_any_basis": run(
        {**RUN_DICT, "imputers": [{"id": "tix_random_basis", "params": {"n_random": 20000}}]},
        "imputer 'tix_random_basis': n_random must be a whole number >= 1 and <= 1024, got 20000",
        guards=("tixbench.imputers.random_fourier_basis",),
        memory=TWO_GB,
    ),
    # A covariate read from the value column would hand every covariate head the held-out truth.
    **{
        f"test_a_column_named_twice_is_an_error_line_before_any_load[{name}]": run(
            {
                "datasets": [{"id": "d", "path": "d.csv", "steps_per_day": 24, "covariate_columns": covariates}],
                "imputers": [{"id": "tix_fourier", "params": {"use_covariates": True}}],
            },
            f"dataset 'd': column {twice!r} is named twice among timestamp, value and covariate columns",
            guards=BEFORE_ANY_LOAD,
        )
        for name, covariates, twice in [
            ("value", ["value"], "value"),
            ("timestamp", ["timestamp"], "timestamp"),
            ("covariate_twice", ["temp", "temp"], "temp"),
        ]
    },
    # 5000 periods size a d = 10001 basis, and its d x d Grams ask 3.2 GB for the default four scenarios; each
    # quantile level adds a (d + 1) x (d + 1) pinball system.
    "test_a_list_param_above_its_bound_is_an_error_line_before_any_fit[periods]": run(
        {**RUN_DICT, "imputers": [{"id": "tix_fourier", "params": {"periods": list(range(1, 5001))}}]},
        "imputer 'tix_fourier': periods: expected a list of at most 1024 items, got 5000",
        guards=BEFORE_ANY_FIT,
        memory=TWO_GB,
    ),
    "test_a_list_param_above_its_bound_is_an_error_line_before_any_fit[quantile_levels]": run(
        {**RUN_DICT, **imputer("tix_fourier_q", quantile_levels=[k / 101 for k in range(1, 101)])},
        "imputer 'tix_fourier_q': quantile_levels: expected a list of at most 99 items, got 100",
        guards=BEFORE_ANY_FIT,
    ),
    # length_days * steps_per_day sizes the generated grid: 1e12 days would ask 175 TiB.
    **run_and_synth(
        "test_synth_length_above_its_bound_is_an_error_line_before_a_grid",
        {**SYNTH_DICT, "length_days": 10**12},
        f"synth: length_days must be a whole number >= 28 and <= 416666, got {10**12}",
        guards=BEFORE_A_GRID,
        memory=TWO_GB,
    ),
    # A million ticks a day leaves no room for 28 days under the grid bound: the error names steps_per_day, not a
    # length_days bound that no value can meet. 200 such days would ask 1.6 GB for one channel.
    **run_and_synth(
        "test_synth_steps_per_day_above_its_bound_is_an_error_line_before_a_grid",
        {**SYNTH_DICT, "length_days": 200, "steps_per_day": 10**6},
        "synth: steps_per_day must be a whole number >= 1 and <= 357142, got 1000000",
        guards=BEFORE_A_GRID,
        memory=TWO_GB,
    ),
    "test_run_names_a_csv_too_short_to_split": on_csv(PAIR, "series too short to split: 2 ticks"),
    **{
        f"test_unreadable_csv_is_an_error_line_naming_the_file[{name}]": score(
            text, PAIR, f"{{dir}}/t.csv: {message}"
        )
        for name, text, message in [
            ("empty", "", "empty file (header row required)"),
            ("header_only", "timestamp,value\n", "no data rows"),
            ("non_numeric", "timestamp,value\n0,1.0\n1,abc\n", "non-numeric cell 'abc' in column 'value'"),
        ]
    },
    # Near 1e300 the square in a std overflows: a run that read such values scored every linear and locf record
    # 0.0 and exited 0. The bound covers every column read, the covariate included.
    **{
        f"test_csv_cell_above_the_magnitude_bound_is_an_error_line_before_any_task[{column}]": on_csv(
            rows_csv(
                ([t, *(1e300 * (1.0 + 0.1 * math.sin(t / 3)) if c == column else 1.0 + t % 24 for c in ("value", "temp"))]
                 for t in range(400)),
                "timestamp,value,temp",
            ),
            f"{{dir}}/d.csv: cell 1e+300 in column {column!r} at timestamp 0 is above the bound 1e+100 on a "
            "value's magnitude",
            {"covariate_columns": ["temp"]},
            {"segment": {"len_days": 3, "stride": [1, 1]}, "imputers": [{"id": "linear"}, {"id": "locf"}]},
            guards=BEFORE_ANY_TASK,
        )
        for column in ("value", "temp")
    },
    **run_and_synth(
        "test_synth_values_above_the_magnitude_bound_are_an_error_line",
        # A sine of amplitude 1e300 peaks at 1e300 at tick 6; a run of it scored every record 0.0 and exited 0.
        {**SYNTH_DICT, "components": [{"kind": "sine", "amplitude": 1.0e300, "period_ticks": 24}]},
        "synth values reach 1e+300, above the bound 1e+100 on a value's magnitude",
        heading="dataset ingestion failed\n  d: ",
        kind="sine-",
    ),
    **run_and_synth(
        "test_synth_values_above_the_magnitude_bound_are_an_error_line",
        # A slope of 1e306 a tick overflows to inf by tick 180, with no overflow warning on the way.
        {**SYNTH_DICT, "components": [{"kind": "trend", "amplitude": 1.0e306}]},
        "synth values reach inf, above the bound 1e+100 on a value's magnitude",
        heading="dataset ingestion failed\n  d: ",
        kind="trend-",
    ),
    # Finite cells whose errors overflow: the score must not print Infinity or NaN, which are not JSON.
    # Scoring the timestamp column as the value printed mae 0.0.
    "test_score_refuses_a_column_read_twice": Case(
        ("score", "{dir}/t.csv", "{dir}/p.csv", "--value-column", "timestamp"),
        "error: {dir}/t.csv: column 'timestamp' is read twice\n",
        {"t.csv": PAIR, "p.csv": PAIR},
    ),
    "test_score_rejects_a_non_finite_score": score(
        rows_csv([[0, 1e308], [1, -1e308]]),
        rows_csv([[0, -1e308], [1, 1e308]]),
        "{dir}/p.csv: scores against {dir}/t.csv are not finite",
    ),
    # A span the int64 grid cannot hold is far over the ticks-per-row bound.
    "test_cli_error_line[int64_span]": on_csv(
        rows_csv([[-(2**63), 1.0], [2**63 - 1, 2.0]]),
        "{dir}/d.csv: 2 rows span a grid of 18446744073709551616 ticks, over 100 a row",
    ),
    "test_cli_error_line[sparse_grid]": on_csv(
        rows_csv([[0, 1.0], [100_000_000, 2.0]]),
        "{dir}/d.csv: 2 rows span a grid of 100000001 ticks, over 100 a row",
        timeout=30,
    ),
    "test_cli_error_line[field_over_limit]": score(
        rows_csv([[0, "1" * (LIMIT + 1)]]), PAIR, f"{{dir}}/t.csv: line 2: field larger than field limit ({LIMIT})"
    ),
    # A byte that is not UTF-8 is named with its file and line, wherever a file is read.
    "test_cli_error_line[utf8_csv]": on_csv(NOT_UTF8, "{dir}/d.csv: line 3: byte 0xff is not UTF-8"),
    "test_cli_error_line[utf8_config]": run(
        b"datasets: [{id: d, path: d.csv, steps_per_day: 24}]\nimputers: [{id: linear}]  # \xff\n",
        "{dir}/cfg.yaml: line 2: byte 0xff is not UTF-8",
        guards=BEFORE_ANY_LOAD,
    ),
    "test_cli_error_line[utf8_truth]": score(NOT_UTF8, PAIR, "{dir}/t.csv: line 3: byte 0xff is not UTF-8"),
    # A leading byte-order mark is dropped, and the bad byte is named as in the file without it.
    "test_cli_error_line[utf8_bom_csv]": on_csv(BOM + NOT_UTF8, "{dir}/d.csv: line 3: byte 0xff is not UTF-8"),
    "test_cli_error_line[utf8_bom_truth]": score(BOM + NOT_UTF8, PAIR, "{dir}/t.csv: line 3: byte 0xff is not UTF-8"),
    "test_cli_error_line[utf8_pred]": score(PAIR, NOT_UTF8, "{dir}/p.csv: line 3: byte 0xff is not UTF-8"),
    "test_cli_error_line[utf8_spec]": synth(
        b"length_days: 28\nsteps_per_day: 24 # \xe9\n", "{dir}/spec.yaml: line 2: byte 0xe9 is not UTF-8"
    ),
}


def problems(case: Case, directory: str, status: int, out: str, err: str) -> list[str]:
    """How one run of ``case`` in ``directory`` missed its expectation; empty if it did not."""
    found = [f"exit {status}, not 1"] if status != 1 else []
    if out:
        found.append(f"stdout {out!r}")
    if isinstance(case.err, re.Pattern):
        if not case.err.fullmatch(err):
            found.append(f"stderr {err!r} does not match {case.err.pattern!r}")
    elif err != (expected := case.err.replace("{dir}", directory)):
        found.append(f"stderr {err!r}, not {expected!r}")
    if "Traceback" in err:
        found.append("a Traceback on stderr")
    if (left := sorted(os.listdir(directory))) != sorted(case.files):
        found.append(f"the directory holds {left}, not only {sorted(case.files)}")
    return found


def write_inputs(case: Case, directory: str) -> list[str]:
    """Write the case's files into ``directory``; its argv with ``{dir}`` filled in."""
    for name, content in case.files.items():
        (Path(directory) / name).write_bytes(content if isinstance(content, bytes) else content.encode())
    return [arg.replace("{dir}", directory) for arg in case.argv]


def run_installed(case: Case, script: str) -> list[str]:
    """Run ``case`` through the console script ``script`` in a child process, under its limits."""
    import resource  # Unix only, and only the script needs it: tier-1 imports this module without it.

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (case.memory, case.memory))

    with tempfile.TemporaryDirectory() as directory:
        argv = write_inputs(case, directory)
        try:
            done = subprocess.run(
                [script, *argv],
                cwd=directory,
                capture_output=True,
                text=True,
                timeout=case.timeout,
                preexec_fn=limit if case.memory else None,
            )
        except subprocess.TimeoutExpired:
            return [f"still running after {case.timeout} s"]
        return problems(case, directory, done.returncode, done.stdout, done.stderr)


def main() -> int:
    script = shutil.which("tixbench")
    if script is None:
        print("no tixbench on PATH", file=sys.stderr)
        return 1
    failed = 0
    for name, case in CASES.items():
        found = run_installed(case, script)
        failed += bool(found)
        print(f"{'FAIL' if found else 'ok'}  {name}" + "".join(f"\n      {line}" for line in found))
    print(f"{len(CASES) - failed} of {len(CASES)} cases passed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
