from __future__ import annotations

import concurrent.futures
import copy
import csv
import hashlib
import io
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, replace
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cli_cases
from cli_cases import RUN_DICT, SINE, SYNTH_DICT
from conftest import make_segment
from tixbench import (
    DEFAULT_SCENARIOS,
    Component,
    FrequencySpec,
    Imputation,
    InfeasibleScenario,
    ScoreRecord,
    SynthSpec,
    aggregate,
    apply_scenario,
    floored_std,
    generate,
    harness,
    impute_linear,
    imputers,
    make_imputer,
)
from tixbench.cli import main as cli_main
from tixbench.harness import (
    DatasetSpec,
    ImputerSpec,
    RunConfig,
    config_digest,
    config_from_dict,
    ingest_csv,
    load_config,
    report,
    run,
    run_and_report,
    stable_seed,
    synth_from_dict,
)

HOURLY = FrequencySpec(24)
NON_FINITE = ("nan", "NaN", "inf", "-inf")


def write_csv(path, rows, header=("timestamp", "value")):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


# One entry at every level of a config, each of which is checked for unknown keys.
EVERY_LEVEL = {
    "segment": {"len_days": 28, "stride": [14, 14]},
    "datasets": [{"id": "demo", "synth": SYNTH_DICT}],
    "scenarios": [{"kind": "pointwise", "param": 0.5, "label": "p"}],
    "imputers": [
        {"id": "tix_fourier", "params": {"lam": 1.0}},
        {"id": "tix_random_basis", "params": {"n_random": 8}},
    ],
}


def with_component(component):
    return {**RUN_DICT, "datasets": [{"id": "d", "synth": {**SYNTH_DICT, "components": [component]}}]}


def with_params(imputer_id, params):
    return {**RUN_DICT, "imputers": [{"id": imputer_id, "params": params}]}


# Where each real-valued key sits in a small valid config, plus an imputer's params mapping.
REAL_KEYS = {
    "splits": lambda v: {**RUN_DICT, "splits": v},
    "stride": lambda v: {**RUN_DICT, "segment": {"stride": v}},
    "min_std_filter": lambda v: {**RUN_DICT, "datasets": [{"id": "d", "synth": SYNTH_DICT, "min_std_filter": v}]},
    "amplitude": lambda v: with_component({**SINE, "amplitude": v}),
    "period_ticks": lambda v: with_component({**SINE, "period_ticks": v}),
    "noise_std": lambda v: with_component({"kind": "noise", "noise_std": v}),
    "covariate_gain": lambda v: with_component({"kind": "covariate_linear", "covariate_gain": v}),
    "param": lambda v: {**RUN_DICT, "scenarios": [{"kind": "pointwise", "param": v, "label": "p"}]},
    "lam": lambda v: with_params("tix_fourier", {"lam": v}),
    "periods": lambda v: with_params("tix_fourier", {"periods": v}),
    "freq_range": lambda v: with_params("tix_random_basis", {"freq_range": v}),
    "quantile_levels": lambda v: with_params("tix_fourier_q", {"quantile_levels": v}),
    "params": lambda v: with_params("tix_fourier", v),
}
# What a YAML value may hold where a number is expected: strings, null, bools, NaN and the infinities, ints on
# either side of the largest float, tiny floats, and numbers a key takes; or a list of these.
YAML_SCALARS = st.one_of(
    st.text(max_size=3),
    st.none(),
    st.booleans(),
    st.floats(),
    st.integers(300, 400).map(lambda e: (-1) ** e * 10**e),
    st.floats(-1e-300, 1e-300),
    st.floats(0, 1),
    st.integers(-2, 200),
)
YAML_VALUES = st.one_of(YAML_SCALARS, st.lists(YAML_SCALARS, max_size=4))

# Where each config section sits in a small valid config, and what it must hold when it is neither missing nor null;
# "config" is the YAML document itself.
SECTION_BASE = {"datasets": [{"id": "d", "synth": SYNTH_DICT}], "imputers": [{"id": "tix_fourier", "params": {}}]}
SECTIONS = {
    "config": (dict, ()),
    "datasets": (list, ("datasets",)),
    "imputers": (list, ("imputers",)),
    "scenarios": (list, ("scenarios",)),
    "segment": (dict, ("segment",)),
    "components": (list, ("datasets", 0, "synth", "components")),
    "params": (dict, ("imputers", 0, "params")),
}
OMITTED = object()
# Falsy values and scalars a section might be given, and null.
SECTION_VALUES = st.one_of(
    st.sampled_from([0, "", [], {}, False, None, 0.0]),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=3),
)


def with_section(path, value):
    """SECTION_BASE with ``value`` at ``path``, or with the key there removed if ``value`` is OMITTED."""
    if not path:
        return {} if value is OMITTED else value
    raw = copy.deepcopy(SECTION_BASE)
    *parents, key = path
    target = raw
    for step in parents:
        target = target[step]
    if value is OMITTED:
        target.pop(key, None)
    else:
        target[key] = value
    return raw


def outcome(raw):
    """The config loaded from ``raw``, or the message it is refused with."""
    try:
        return config_from_dict(raw)
    except ValueError as err:
        return str(err)


def demo_config(tmp_path, imputers=None, stride=(14.0, 14.0)):
    return config_from_dict(
        {
            "seed": 11,
            "output_dir": str(tmp_path / "out"),
            "segment": {"len_days": 28, "stride": list(stride)},
            "datasets": [{"id": "demo", "synth": SYNTH_DICT}],
            "imputers": imputers or [{"id": "linear"}, {"id": "locf"}],
        }
    )


def no_task(*args):
    raise AssertionError("a task ran")


def gap_rows(stamp, gap_tick, n=1344):
    """Hourly rows of a rising series with a covariate ``temp`` whose cell at ``gap_tick`` is empty."""
    return [[stamp(t), float(t), "" if t == gap_tick else 1.0 + (t % 24)] for t in range(n)]


def gap_config(path, imputers):
    """A run of ``imputers`` on the CSV at ``path``, whose test slice starts at tick 134 of 1344."""
    dataset = {"id": "gap", "path": str(path), "steps_per_day": 24, "covariate_columns": ["temp"]}
    return config_from_dict({"datasets": [dataset], "imputers": imputers, "splits": [0.05, 0.05, 0.9]})


# What a whole-input draw may configure: imputer entries of every kind, some reading the covariate, and scenarios.
DRAWN_IMPUTERS = [
    {"id": "linear"},
    {"id": "locf"},
    {"id": "seasonal_naive"},
    {"id": "tix_fourier", "params": {"lam": 0.0}},
    {"id": "tix_fourier", "name": "tix_fourier_cov", "params": {"use_covariates": True}},
    {"id": "tix_fourier_q", "params": {"quantile_levels": [0.1, 0.5, 0.9]}},
    {"id": "tix_random_basis", "params": {"n_random": 4}},
    {"id": "tix_random_basis_q", "params": {"n_random": 4, "use_covariates": True, "quantile_levels": [0.5]}},
    {"id": "covar_ridge"},
]
DRAWN_SCENARIOS = [
    {"kind": "pointwise", "param": 0.3, "label": "p3"},
    {"kind": "pointwise", "param": 0.9, "label": "p9"},
    {"kind": "blocks", "param": 1, "label": "b1"},
    {"kind": "blocks", "param": 2, "label": "b2"},
]


@st.composite
def drawn_column(draw, n):
    """``n`` CSV cells of one column at one scale, 1e-300 to 1e300: stretches of varied, constant and zero values,
    with empty cells."""
    # Half the scales lie within a few powers of ten of 1, so that most draws run, and the other half anywhere.
    scale = 10.0 ** draw(st.one_of(st.integers(-3, 3), st.integers(-300, 300)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    cells = []
    while len(cells) < n:
        kind, size = draw(st.sampled_from(["varied", "constant", "zero"])), draw(st.integers(1, n))
        unit = {"varied": rng.normal(0.0, 5.0, size), "constant": np.full(size, 3.0), "zero": np.zeros(size)}[kind]
        cells += list(scale * unit)
    empty = rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.5, 0.9]))
    return ["" if hole else repr(float(cell)) for cell, hole in zip(cells, empty)]


@st.composite
def whole_inputs(draw):
    """The rows of a small CSV with a value column and a covariate ``temp``, and a config that runs it."""
    steps = draw(st.sampled_from([4, 6]))
    n = steps * draw(st.integers(10, 40))
    rows = list(zip(range(n), draw(drawn_column(n)), draw(drawn_column(n))))
    dataset = {"id": "drawn", "steps_per_day": steps, "covariate_columns": ["temp"]}
    dataset["min_std_filter"] = draw(st.sampled_from([0.0, 0.0, 0.0, 1e-300, 1e-8, 1.0, 1e200]))
    stride = sorted(draw(st.lists(st.sampled_from([0.25, 1, 2]), min_size=2, max_size=2)))
    config = {
        "seed": draw(st.integers(0, 3)),
        "segment": {"len_days": draw(st.integers(1, 3)), "stride": stride},
        "datasets": [dataset],
        "scenarios": draw(st.lists(st.sampled_from(DRAWN_SCENARIOS), min_size=1, unique_by=lambda s: s["label"])),
        "imputers": draw(
            st.lists(
                st.sampled_from(DRAWN_IMPUTERS), min_size=1, max_size=4, unique_by=lambda i: i.get("name", i["id"])
            )
        ),
    }
    return rows, config


class TestIngest:
    def test_integer_ticks(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", [[0, 1.0], [1, 2.0], [2, 3.0]])
        series = ingest_csv(path, HOURLY)
        assert len(series) == 3
        assert series.obs_mask.all()
        np.testing.assert_array_equal(series.values, [1.0, 2.0, 3.0])

    def test_gap_materialized(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", [[0, 1.0], [2, 3.0]])
        series = ingest_csv(path, HOURLY)
        assert len(series) == 3
        np.testing.assert_array_equal(series.obs_mask, [True, False, True])

    def test_empty_cell_is_missing(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", [[0, 1.0], [1, ""], [2, 3.0]])
        series = ingest_csv(path, HOURLY)
        np.testing.assert_array_equal(series.obs_mask, [True, False, True])

    @pytest.mark.parametrize("column", ["value", "temp"])
    @pytest.mark.parametrize("text", ["nan", "NaN", "inf", "-inf"])
    def test_non_finite_cell_rejected(self, tmp_path, text, column):
        # Only an empty cell marks a missing value.
        rows = [[0, 1.0, 5.0], [1, 2.0, 6.0]]
        rows[1][1 if column == "value" else 2] = text
        path = write_csv(tmp_path / "a.csv", rows, header=("timestamp", "value", "temp"))
        with pytest.raises(ValueError, match=re.escape(f"{path}: non-finite cell {text!r} in column {column!r}")):
            ingest_csv(path, HOURLY, covariate_columns=("temp",))

    def test_iso_datetimes(self, tmp_path):
        rows = [
            ["2024-01-01T00:00:00", 1.0],
            ["2024-01-01T01:00:00", 2.0],
            ["2024-01-01T03:00:00", 4.0],
        ]
        series = ingest_csv(write_csv(tmp_path / "a.csv", rows), HOURLY)
        assert len(series) == 4
        np.testing.assert_array_equal(series.obs_mask, [True, True, False, True])

    def test_duplicate_timestamps(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", [[0, 1.0], [0, 2.0]])
        with pytest.raises(ValueError, match="duplicate timestamps"):
            ingest_csv(path, HOURLY)

    def test_non_uniform_sampling(self, tmp_path):
        rows = [
            ["2024-01-01T00:00:00", 1.0],
            ["2024-01-01T01:00:00", 2.0],
            ["2024-01-01T02:30:00", 3.0],
        ]
        path = write_csv(tmp_path / "a.csv", rows)
        with pytest.raises(ValueError, match="non-uniform sampling"):
            ingest_csv(path, HOURLY)

    def test_sub_second_iso_grid(self, tmp_path):
        # 1.047 s is 1046999 us through float seconds; the grid must come out uniform.
        rows = [[f"2024-01-01T00:00:{t // 1000:02d}.{t % 1000:03d}", float(t)] for t in range(1100)]
        series = ingest_csv(write_csv(tmp_path / "ms.csv", rows), HOURLY)
        assert len(series) == 1100
        assert series.obs_mask.all()
        np.testing.assert_array_equal(series.values, np.arange(1100.0))

    def test_integer_timestamps_are_ticks(self, tmp_path):
        # Sparse integers sit on the unit grid; absent ticks become gaps.
        path = write_csv(tmp_path / "a.csv", [[0, 1.0], [10, 2.0], [15, 3.0], [27, 4.0]])
        series = ingest_csv(path, HOURLY)
        assert len(series) == 28
        assert series.obs_mask.sum() == 4

    def test_integer_offsets_near_int64_bounds(self, tmp_path):
        # Each stamp is within int64 and so is the span: the offsets do not wrap.
        path = write_csv(tmp_path / "a.csv", [[-(2**63), 1.0], [-(2**63) + 2, 3.0]])
        assert ingest_csv(path, HOURLY).obs_mask.tolist() == [True, False, True]

    @pytest.mark.parametrize("first, last", [(-(2**63), 2**63 - 1), (-1, 2**63 - 1)], ids=["full", "2**63"])
    def test_integer_span_beyond_int64_names_file(self, tmp_path, capsys, first, last):
        # A span the int64 grid cannot hold is far over the ticks-per-row bound.
        path = write_csv(tmp_path / "wide.csv", [[first, 1.0], [last, 2.0]])
        message = f"{path}: 2 rows span a grid of {last - first + 1} ticks, over 100 a row"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ingest_csv(path, HOURLY)
        cfg_path = tmp_path / "cfg.yaml"
        cfg = {
            "datasets": [{"id": "wide", "path": str(path), "steps_per_day": 24}],
            "imputers": [{"id": "linear"}],
            "output_dir": str(tmp_path / "out"),
        }
        cfg_path.write_text(yaml.safe_dump(cfg))
        assert cli_main(["run", str(cfg_path)]) == 1
        assert capsys.readouterr().err == f"error: dataset ingestion failed\n  wide: {message}\n"

    @pytest.mark.parametrize(
        "text, line",
        [
            pytest.param("timestamp,value\n0,{big}\n", 2, id="first_row"),
            pytest.param("timestamp,value\n0,1.0\n1,{big}\n", 3, id="second_row"),
            # A quoted cell runs over two lines; csv stops on the second.
            pytest.param('timestamp,value\n0,"1\n{big}"\n', 3, id="quoted_over_two_lines"),
            pytest.param("{big},value\n0,1.0\n", 1, id="header"),
        ],
    )
    def test_field_over_the_csv_limit_names_file_and_line(self, tmp_path, capsys, text, line):
        # A cell one character over csv's field size limit: both commands end
        # in one error line naming the file and the line, not a traceback.
        limit = csv.field_size_limit()
        path = tmp_path / "wide.csv"
        path.write_text(text.format(big="1" * (limit + 1)))
        message = f"{path}: line {line}: field larger than field limit ({limit})"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ingest_csv(path, HOURLY)
        assert cli_main(["score", str(path), str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        cfg = {"datasets": [{"id": "wide", "path": str(path), "steps_per_day": 24}], "imputers": [{"id": "linear"}]}
        (tmp_path / "cfg.yaml").write_text(yaml.safe_dump({**cfg, "output_dir": str(tmp_path / "out")}))
        assert cli_main(["run", str(tmp_path / "cfg.yaml")]) == 1
        assert capsys.readouterr() == ("", f"error: dataset ingestion failed\n  wide: {message}\n")

    def test_header_fault_is_named_before_a_field_over_the_csv_limit(self, tmp_path, capsys):
        # The columns to read are picked from a sound header, so its fault comes first.
        path = tmp_path / "wide.csv"
        path.write_text(f"timestamp,other\n0,1.0\n1,{'1' * (csv.field_size_limit() + 1)}\n")
        message = f"{path}: missing column 'value'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ingest_csv(path, HOURLY)
        assert cli_main(["score", str(path), str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_rows_keep_only_the_cells_read(self, tmp_path, capsys):
        # A blank line, which is no row; extra trailing fields; short rows, whose missing cells
        # are empty; and unread columns, one with no name, holding cells that are no number.
        path = tmp_path / "rough.csv"
        path.write_text("timestamp,value,temp,note,\n0,1.0,5.0,nan,x\n\n1,2.0,6.0,x,,extra,fields\n2\n3,4.0\n")
        series = ingest_csv(path, HOURLY, covariate_columns=("temp",))
        nan = np.nan
        np.testing.assert_array_equal(series.values, [1.0, 2.0, nan, 4.0])
        np.testing.assert_array_equal(series.obs_mask, [True, True, False, True])
        np.testing.assert_array_equal(series.covariates["temp"], [5.0, 6.0, nan, nan])
        # score pairs rows by timestamp: the short row at 3 scores, the one at 2 has no value.
        clean = write_csv(tmp_path / "clean.csv", [[0, 1.5], [1, 2.0], [2, 3.0], [3, 4.0]])
        for truth, pred in ((path, clean), (clean, path)):
            assert cli_main(["score", str(truth), str(pred)]) == 0
            scored = json.loads(capsys.readouterr().out)
            assert (scored["n_points"], scored["mae"]) == (3, 0.5 / 3)

    @pytest.mark.parametrize(
        "header, dataset, commands",
        [
            pytest.param(("timestamp", "value", "value"), {}, ("score", "run"), id="value"),
            pytest.param(("timestamp", "value", "timestamp"), {}, ("score", "run"), id="timestamp"),
            pytest.param(("timestamp", "value", "temp", "temp"), {"covariate_columns": ["temp"]}, ("run",), id="covariate"),
            pytest.param(("timestamp", "value", "q0.9", "q0.9"), {}, ("score",), id="quantile"),
        ],
    )
    def test_repeated_column_read_names_file_and_column(self, tmp_path, capsys, header, dataset, commands):
        # csv.DictReader would read a repeated name from its last copy: score would
        # take the second value column, whose errors differ from the first's.
        path = write_csv(tmp_path / "d.csv", [[t, *range(len(header) - 1)] for t in range(2)], header)
        message = f"{path}: repeated column {header[-1]!r}"
        truth = write_csv(tmp_path / "t.csv", [[0, 0.0], [1, 0.0]])
        cfg = {"datasets": [{"id": "d", "path": str(path), "steps_per_day": 24, **dataset}], "imputers": [{"id": "linear"}]}
        (tmp_path / "cfg.yaml").write_text(yaml.safe_dump({**cfg, "output_dir": str(tmp_path / "out")}))
        argv = {"score": ["score", str(truth), str(path)], "run": ["run", str(tmp_path / "cfg.yaml")]}
        expected = {"score": f"error: {message}\n", "run": f"error: dataset ingestion failed\n  d: {message}\n"}
        for command in commands:
            assert cli_main(argv[command]) == 1
            assert capsys.readouterr() == ("", expected[command])
        assert not (tmp_path / "out").exists()

    def test_repeated_column_not_read_is_no_error(self, tmp_path, capsys):
        path = write_csv(tmp_path / "d.csv", [[0, 1.0, 5, 6], [1, 2.0, 7, 8]], ("timestamp", "value", "note", "note"))
        assert cli_main(["score", str(path), str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["mae"] == 0.0

    @pytest.mark.parametrize(
        "stamps, grid",
        [
            pytest.param([0, 100_000_000], 100_000_001, id="ticks"),
            # The step is the smallest spacing, one microsecond; the last row is 100 s on.
            pytest.param(["2024-01-01T00:00:00", "2024-01-01T00:00:00.000001", "2024-01-01T00:01:40"], 100_000_001, id="datetime"),
            # An hourly step, and a last row about 9999 years on.
            pytest.param(["0001-01-01T00:00:00", "0001-01-01T01:00:00", "9999-12-31T23:00:00"], 87_649_416, id="hours"),
        ],
    )
    def test_grid_far_longer_than_its_rows_names_file(self, tmp_path, capsys, monkeypatch, stamps, grid):
        path = write_csv(tmp_path / "sparse.csv", [[s, 1.0] for s in stamps])
        message = f"{path}: {len(stamps)} rows span a grid of {grid} ticks, over 100 a row"
        full = np.full

        def small_full(shape, *args, **kwargs):
            # The grid must be refused before an array of its length is made.
            assert np.prod(shape) < 1_000_000, shape
            return full(shape, *args, **kwargs)

        monkeypatch.setattr(np, "full", small_full)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ingest_csv(path, HOURLY)
        cfg_path = tmp_path / "cfg.yaml"
        cfg = {
            "datasets": [{"id": "sparse", "path": str(path), "steps_per_day": 24}],
            "imputers": [{"id": "linear"}],
            "output_dir": str(tmp_path / "out"),
        }
        cfg_path.write_text(yaml.safe_dump(cfg))
        assert cli_main(["run", str(cfg_path)]) == 1
        assert capsys.readouterr().err == f"error: dataset ingestion failed\n  sparse: {message}\n"

    @pytest.mark.parametrize("stamp", [lambda t: t, lambda t: f"2024-01-01T{t:02d}:00:00"], ids=["ticks", "datetime"])
    def test_gaps_on_either_timestamp_kind(self, tmp_path, stamp):
        # Hours 0, 1, 3, 4 and 7: the same grid from integers and datetimes,
        # and an empty covariate cell stays NaN on it.
        rows = [[stamp(0), 1.0, 5.0], [stamp(1), 2.0, ""], [stamp(3), "", 7.0], [stamp(4), 4.0, 8.0], [stamp(7), 7.0, 9.0]]
        path = write_csv(tmp_path / "a.csv", rows[::-1], header=("timestamp", "value", "temp"))
        series = ingest_csv(path, HOURLY, covariate_columns=("temp",))
        nan = np.nan
        np.testing.assert_array_equal(series.values, [1.0, 2.0, nan, nan, 4.0, nan, nan, 7.0])
        np.testing.assert_array_equal(series.obs_mask, [True, True, False, False, True, False, False, True])
        np.testing.assert_array_equal(series.covariates["temp"], [5.0, nan, nan, 7.0, 8.0, nan, nan, 9.0])

    @pytest.mark.parametrize("stamp", ["2024-01-01T00:00:00", "2024-01-01T00:00:00+02:00", "7"])
    def test_one_row_loads(self, tmp_path, stamp):
        series = ingest_csv(write_csv(tmp_path / "a.csv", [[stamp, 3.5]]), HOURLY)
        assert series.values.tolist() == [3.5] and series.obs_mask.tolist() == [True]

    def test_grid_of_100_ticks_a_row_loads(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", [[0, 1.0], [199, 2.0]])
        assert len(ingest_csv(path, HOURLY)) == 200
        path = write_csv(tmp_path / "a.csv", [[0, 1.0], [200, 2.0]])
        with pytest.raises(ValueError, match="2 rows span a grid of 201 ticks, over 100 a row$"):
            ingest_csv(path, HOURLY)

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", [[0, 1.0]], header=("timestamp", "wrong"))
        with pytest.raises(ValueError, match="missing column"):
            ingest_csv(path, HOURLY)

    def test_covariates_loaded(self, tmp_path):
        rows = [[0, 1.0, 5.0], [1, 2.0, 6.0]]
        path = write_csv(tmp_path / "a.csv", rows, header=("timestamp", "value", "temp"))
        series = ingest_csv(path, HOURLY, covariate_columns=("temp",))
        np.testing.assert_array_equal(series.covariates["temp"], [5.0, 6.0])

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_covariate_gap_surfaces_at_imputation(self, tmp_path, monkeypatch, jobs):
        # An empty covariate cell loads as NaN. The gap at tick 150 falls
        # inside the first test-slice window (test starts at tick 134), so a
        # run with a covariate-consuming imputer fails before any task runs,
        # naming the cell's own tick, pooled as serial.
        path = write_csv(tmp_path / "a.csv", gap_rows(lambda t: t, 150), header=("timestamp", "value", "temp"))
        series = ingest_csv(path, HOURLY, covariate_columns=("temp",))
        assert np.isnan(series.covariates["temp"][150])
        monkeypatch.setattr(harness, "_score_tasks", no_task)
        message = (
            "dataset ingestion failed\n"
            "  gap: covariate 'temp' has no value at tick 150, which imputer 'covar_ridge' reads"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run(gap_config(path, [{"id": "linear"}, {"id": "covar_ridge"}]), jobs=jobs)

    @pytest.mark.parametrize(
        "stamp", [lambda t: t, lambda t: (datetime(2024, 1, 1) + timedelta(hours=t)).isoformat()], ids=["ticks", "datetime"]
    )
    def test_covariate_gap_under_a_covariate_head_fails_before_any_task(self, tmp_path, monkeypatch, stamp):
        path = write_csv(tmp_path / "a.csv", gap_rows(stamp, 150), header=("timestamp", "value", "temp"))
        monkeypatch.setattr(harness, "_score_tasks", no_task)
        imputers = [{"id": "tix_fourier"}, {"id": "tix_fourier", "name": "with_cov", "params": {"use_covariates": True}}]
        message = (
            "dataset ingestion failed\n"
            "  gap: covariate 'temp' has no value at tick 150, which imputer 'with_cov' reads"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run(gap_config(path, imputers))

    @pytest.mark.parametrize("gap_tick, imputer", [(10, "covar_ridge"), (150, "linear")])
    def test_covariate_gap_that_no_imputer_reads_runs(self, tmp_path, gap_tick, imputer):
        # Tick 10 lies in the training slice, which no window reads; linear
        # reads no covariate at all.
        path = write_csv(tmp_path / "a.csv", gap_rows(lambda t: t, gap_tick), header=("timestamp", "value", "temp"))
        assert run(gap_config(path, [{"id": imputer}])).records


class TestRunConfig:
    def test_defaults_fill_in(self):
        config = config_from_dict(
            {"datasets": [{"id": "d", "synth": SYNTH_DICT}], "imputers": [{"id": "linear"}]}
        )
        assert [s.label for s in config.scenarios] == [
            "pointwise1",
            "pointwise2",
            "blocks1",
            "blocks2",
        ]
        assert config.splits == (0.7, 0.1, 0.2)
        assert config.segment_len_days == 28
        assert config.stride_days == (0.5, 2.0)

    def test_duplicate_imputer_names_rejected(self):
        with pytest.raises(ValueError, match="imputer names"):
            config_from_dict(
                {
                    "datasets": [{"id": "d", "synth": SYNTH_DICT}],
                    "imputers": [{"id": "linear"}, {"id": "linear"}],
                }
            )

    @pytest.mark.parametrize(
        "path, key",
        [
            pytest.param((), "bogus", id="top_level"),
            pytest.param(("segment",), "strides", id="segment"),
            pytest.param(("datasets", 0), "value_col", id="dataset"),
            pytest.param(("datasets", 0, "synth"), "length", id="synth"),
            pytest.param(("datasets", 0, "synth", "components", 0), "amp", id="component"),
            pytest.param(("scenarios", 0), "weight", id="scenario"),
            pytest.param(("imputers", 0), "parms", id="imputer"),
            pytest.param(("imputers", 0, "params"), "lamda", id="imputer_params"),
            pytest.param(("imputers", 0, "params"), "quantile_levels", id="quantile_levels_without_q"),
            pytest.param(("imputers", 0, "params"), "n_random", id="n_random_on_fourier"),
            pytest.param(("imputers", 0, "params"), "freq_range", id="freq_range_on_fourier"),
            pytest.param(("imputers", 0, "params"), "basis_seed", id="basis_seed_on_fourier"),
            pytest.param(("imputers", 1, "params"), "periods", id="periods_on_random_basis"),
        ],
    )
    def test_unknown_key_rejected_at_load(self, path, key):
        raw = copy.deepcopy(EVERY_LEVEL)
        config_from_dict(copy.deepcopy(raw))
        target = raw
        for step in path:
            target = target[step]
        target[key] = 1
        with pytest.raises(ValueError, match=f"unknown (key|param) '(segment\\.)?{key}'"):
            config_from_dict(raw)

    @pytest.mark.parametrize(
        "imputer_id, key, good, bad",
        [
            pytest.param("seasonal_naive", "season", 1, 0, id="season"),
            pytest.param("tix_fourier", "lam", 0.0, -1.0, id="tix_lam"),
            pytest.param("tix_random_basis_q", "lam", 10.0, -0.5, id="tix_q_lam"),
            pytest.param("covar_ridge", "lam", 0.0, -1e-3, id="covar_ridge_lam"),
            pytest.param("tix_fourier_q", "quantile_levels", [0.1, 0.9], [0.0, 1.5], id="levels_outside"),
            pytest.param("tix_fourier_q", "quantile_levels", [0.5], [], id="levels_empty"),
            pytest.param("tix_fourier_q", "quantile_levels", [0.2, 0.5], [0.5, 0.2], id="levels_decreasing"),
            pytest.param("tix_fourier_q", "quantile_levels", [0.3, 0.4], [0.3, 0.3], id="levels_repeated"),
        ],
    )
    def test_bad_imputer_value_rejected_at_load(self, imputer_id, key, good, bad):
        def config(value):
            return {
                "datasets": [{"id": "d", "synth": SYNTH_DICT}],
                "imputers": [{"id": imputer_id, "params": {key: value}}],
            }

        config_from_dict(config(good))
        with pytest.raises(ValueError, match=f"imputer '{imputer_id}': {key} must be"):
            config_from_dict(config(bad))

    @pytest.mark.parametrize("key", sorted(REAL_KEYS))
    @settings(max_examples=100, derandomize=True, database=None)
    @given(
        value=st.one_of(
            YAML_VALUES, st.dictionaries(st.sampled_from(["lam", "periods", "use_covariates"]), YAML_VALUES)
        )
    )
    def test_real_valued_key_loads_or_is_refused_by_name(self, key, value):
        # A params mapping may also be refused by the name of a param in it.
        names = [key, *value] if key == "params" and isinstance(value, dict) else [key]
        try:
            config_from_dict(REAL_KEYS[key](value))
        except ValueError as err:
            assert any(name in str(err) for name in names), str(err)

    def test_null_params_is_no_params(self):
        null = config_from_dict(with_params("tix_fourier", None))
        assert null.imputers[0].params == {}
        assert config_digest(null) == config_digest(config_from_dict({**RUN_DICT, "imputers": [{"id": "tix_fourier"}]}))

    @pytest.mark.parametrize("key", sorted(SECTIONS))
    @settings(max_examples=100, derandomize=True, database=None)
    @given(value=SECTION_VALUES)
    def test_section_loads_its_default_or_is_refused_by_name(self, key, value):
        kind, path = SECTIONS[key]
        if value is None:
            assert outcome(with_section(path, None)) == outcome(with_section(path, OMITTED))
            return
        try:
            config_from_dict(with_section(path, value))
        except ValueError as err:
            assert isinstance(value, kind) or key in str(err), str(err)
        else:
            assert isinstance(value, kind)

    def test_csv_dataset_digests_by_content(self, tmp_path):
        # The same config and CSV in two directories digest alike; one
        # changed cell changes the digest.
        rows = [[t, float(t % 24)] for t in range(96)]
        cfg = {"datasets": [{"id": "c", "path": "c.csv", "steps_per_day": 24}], "imputers": [{"id": "linear"}]}
        digests = []
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            write_csv(tmp_path / name / "c.csv", rows)
            (tmp_path / name / "cfg.yaml").write_text(yaml.safe_dump(cfg))
            digests.append(config_digest(load_config(tmp_path / name / "cfg.yaml")))
        assert digests[0] == digests[1]
        rows[5][1] = 99.0
        write_csv(tmp_path / "b" / "c.csv", rows)
        assert config_digest(load_config(tmp_path / "b" / "cfg.yaml")) != digests[0]

    def test_csv_dataset_integral_floats_digest_as_ints(self, tmp_path):
        write_csv(tmp_path / "c.csv", [[t, float(t % 24)] for t in range(96)])

        def config(steps_per_day, seasonal_period):
            entry = {"id": "c", "path": "c.csv", "steps_per_day": steps_per_day, "seasonal_period": seasonal_period}
            return config_from_dict({"datasets": [entry], "imputers": [{"id": "linear"}]}, base_dir=tmp_path)

        from_floats = config(24.0, 12.0)
        assert config_digest(from_floats) == config_digest(config(24, 12))
        ds = from_floats.datasets[0]
        assert [type(v) for v in (ds.freq.steps_per_day, ds.freq.seasonal_period)] == [int, int]

    def test_integer_and_float_values_digest_alike(self):
        def with_numbers(period, stride):
            synth = {**SYNTH_DICT, "components": [{"kind": "sine", "period_ticks": period}]}
            return config_from_dict(
                {
                    "segment": {"stride": stride},
                    "datasets": [{"id": "d", "synth": synth}],
                    "imputers": [{"id": "linear"}],
                }
            )

        from_yaml = with_numbers(24, [14, 14])
        assert config_digest(from_yaml) == config_digest(with_numbers(24.0, [14.0, 14.0]))
        # A spec built in Python gets the same coercions as one parsed from YAML.
        built = RunConfig(
            datasets=[
                DatasetSpec(
                    id="d",
                    synth=SynthSpec(280, FrequencySpec(24), [Component("sine", 1, 24)], seed=5),
                )
            ],
            imputers=[ImputerSpec("linear")],
            stride_days=(14, 14),
        )
        assert config_digest(built) == config_digest(from_yaml)

    @pytest.mark.parametrize(
        "imputer_id, written, respelled",
        [
            ("tix_fourier", {"lam": 10}, {"lam": 10.0}),
            ("seasonal_naive", {"season": 24}, {"season": 24.0}),
            ("tix_random_basis", {"n_random": 8}, {"n_random": 8.0}),
            ("tix_random_basis_q", {"freq_range": [1, 60]}, {"freq_range": (1.0, 60.0)}),
        ],
    )
    def test_respelled_imputer_params_digest_alike(self, imputer_id, written, respelled):
        # A spec keeps each param as its rule returns it, whether loaded or built in Python, and adds no default.
        def config(params):
            return config_from_dict({**RUN_DICT, "imputers": [{"id": imputer_id, "params": params}]})

        assert config_digest(config(written)) == config_digest(config(respelled))
        assert ImputerSpec(imputer_id, params=written).params == config(respelled).imputers[0].params
        assert config(written).imputers[0].params.keys() == written.keys()

    CSV_ONLY = {
        "steps_per_day": 48,
        "seasonal_period": 12,
        "timestamp_column": "time",
        "value_column": "load",
        "covariate_columns": ["temp"],
    }

    @pytest.mark.parametrize("key", sorted(CSV_ONLY))
    def test_csv_only_key_on_synth_dataset_rejected(self, key):
        raw = {"datasets": [{"id": "x", "synth": SYNTH_DICT, key: self.CSV_ONLY[key]}], "imputers": [{"id": "linear"}]}
        with pytest.raises(ValueError, match=f"^dataset 'x': '{key}' applies only to CSV datasets"):
            config_from_dict(raw)

    @pytest.mark.parametrize(
        "change, key",
        [
            pytest.param({"splits": [0.5, 0.5, 0.5]}, "splits", id="splits_sum"),
            pytest.param({"segment": {"len_days": 0}}, "segment.len_days", id="len_days"),
            pytest.param({"segment": {"len_days": 1.5}}, "segment.len_days", id="len_days_fraction"),
            pytest.param({"segment": {"stride": [2, 0.5]}}, "segment.stride", id="stride_order"),
            pytest.param({"segment": {"stride": [0, 1]}}, "segment.stride", id="stride_zero"),
            pytest.param({"csv": {"seasonal_period": -5}}, "seasonal_period", id="csv_seasonal_period"),
            pytest.param({"csv": {"seasonal_period": 12.5}}, "seasonal_period", id="csv_fractional_period"),
            pytest.param({"csv": {"steps_per_day": 24.5}}, "steps_per_day", id="csv_fractional_steps"),
            pytest.param({"synth": {"steps_per_day": 24.5}}, "steps_per_day", id="synth_fractional_steps"),
            pytest.param({"synth": {"seasonal_period": 2.5}}, "seasonal_period", id="synth_fractional_period"),
        ],
    )
    def test_bad_protocol_value_rejected_at_load(self, tmp_path, change, key):
        # No CSV exists at the dataset path: the error must come before any
        # dataset is read.
        change = dict(change)
        csv_entry = {"id": "c", "path": "absent.csv", "steps_per_day": 24, **change.pop("csv", {})}
        synth_entry = {"id": "s", "synth": {**SYNTH_DICT, **change.pop("synth", {})}}
        raw = {"datasets": [csv_entry, synth_entry], "imputers": [{"id": "linear"}], **change}
        (tmp_path / "cfg.yaml").write_text(yaml.safe_dump(raw))
        with pytest.raises(ValueError, match=key):
            load_config(tmp_path / "cfg.yaml")

    def test_integral_floats_digest_as_ints(self):
        def config(steps_per_day, seasonal_period, len_days):
            synth = {**SYNTH_DICT, "steps_per_day": steps_per_day, "seasonal_period": seasonal_period}
            return config_from_dict(
                {
                    "segment": {"len_days": len_days},
                    "datasets": [{"id": "d", "synth": synth}],
                    "imputers": [{"id": "linear"}],
                }
            )

        from_floats = config(24.0, 12.0, 28.0)
        assert config_digest(from_floats) == config_digest(config(24, 12, 28))
        freq = from_floats.datasets[0].synth.freq
        counts = (freq.steps_per_day, freq.steps_per_week, freq.seasonal_period, from_floats.segment_len_days)
        assert [type(v) for v in counts] == [int] * 4

    def test_dataset_id_none_is_refused_by_name(self):
        with pytest.raises(ValueError, match="^dataset id must not be None$"):
            DatasetSpec(id=None, synth=synth_from_dict(SYNTH_DICT))

    def test_dataset_needs_source(self):
        with pytest.raises(ValueError, match="exactly one of path or synth"):
            DatasetSpec(id="x")

    def test_load_config_resolves_paths(self, tmp_path):
        csv_path = write_csv(tmp_path / "data.csv", [[0, 1.0], [1, 2.0]])
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(
            yaml.safe_dump(
                {
                    "datasets": [{"id": "d", "path": "data.csv", "steps_per_day": 24}],
                    "imputers": [{"id": "linear"}],
                }
            )
        )
        config = load_config(cfg_path)
        assert config.datasets[0].path == str(csv_path)


class TestRun:
    def test_record_count_is_product(self, tmp_path):
        # 280-day series, 0.2 test fraction = 56 days; 28-day windows with a
        # fixed 14-day stride fit exactly 3 times.
        config = demo_config(tmp_path)
        bench = run(config)
        assert len(bench.records) == 2 * 4 * 3
        assert all(isinstance(r, ScoreRecord) for r in bench.records)

    def test_deterministic_across_runs(self, tmp_path):
        config = demo_config(tmp_path)
        a = run(config)
        b = run(config)
        assert a.records == b.records
        assert a.ranks == b.ranks

    def test_parallel_matches_serial(self, tmp_path):
        config = demo_config(tmp_path)
        serial = run(config, jobs=1)
        parallel = run(config, jobs=2)
        assert serial.records == parallel.records

    def test_pool_opens_no_more_workers_than_batches(self, monkeypatch):
        # The pool forks all its workers at the first submit. A fake records
        # the worker count and maps in this process; were the fake bypassed,
        # jobs=16 would fork no more than 16 processes.
        opened = []

        class InProcessPool:
            def __init__(self, max_workers):
                opened.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, chunks):
                return map(fn, chunks)

        config = config_from_dict(
            {
                "segment": {"stride": [14, 14]},
                "datasets": [{"id": "d", "synth": {**SYNTH_DICT, "length_days": 250}}],
                "imputers": [{"id": "linear"}],
            }
        )
        serial = run(config, jobs=1)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        assert run(config, jobs=16).records == serial.records
        assert sum(r.scenario_label == "pointwise1" for r in serial.records) == 2  # two windows
        assert opened == [2]
        # With every window filtered out there is no batch, and no pool.
        filtered = replace(config, datasets=(replace(config.datasets[0], min_std_filter=100.0),))
        assert run(filtered, jobs=16).records == ()
        # One window is one batch, which scores in this process, also at jobs=2.
        ds = config.datasets[0]
        one = replace(config, datasets=(replace(ds, synth=replace(ds.synth, length_days=150)),))
        assert sum(r.scenario_label == "pointwise1" for r in run(one, jobs=2).records) == 1
        assert opened == [2]

    def test_ingestion_failure_collects_all(self, tmp_path):
        config = config_from_dict(
            {
                "datasets": [
                    {"id": "missing1", "path": str(tmp_path / "no1.csv"), "steps_per_day": 24},
                    {"id": "missing2", "path": str(tmp_path / "no2.csv"), "steps_per_day": 24},
                ],
                "imputers": [{"id": "linear"}],
            }
        )
        with pytest.raises(ValueError, match="^dataset ingestion failed\n  missing1: .*no1.csv'\n  missing2: .*no2.csv'$"):
            run(config)

    @pytest.mark.parametrize("scenario", DEFAULT_SCENARIOS, ids=lambda s: s.label)
    def test_scores_are_normalized_by_the_visible_values_only(self, scenario):
        # The held-out values spread 1e6 times wider than the visible ones, so
        # a scale that read them would move every mae by orders of magnitude.
        rng = np.random.default_rng(8)
        seg = make_segment(rng.normal(size=672), np.ones(672, dtype=bool))
        seed = stable_seed(0, "d", seg.start, scenario.label)
        hidden = apply_scenario(seg, scenario, seed).eval_mask
        seg = replace(seg, values=np.where(hidden, 1e6 * seg.values, seg.values))
        masked = apply_scenario(seg, scenario, seed)
        assert np.array_equal(masked.eval_mask, hidden)
        specs = (ImputerSpec("linear"), ImputerSpec("tix_fourier"))
        imputers = [(spec.name, make_imputer(spec.id)) for spec in specs]
        records = harness._score_window(("d", seg, (scenario,), 0), 0, imputers)
        visible, truth = masked.values[masked.obs_mask], masked.values[masked.eval_mask]
        assert len(records) == len(specs)
        for spec, record in zip(specs, records):
            point = make_imputer(spec.id)([masked])[0].point
            assert record.mae == pytest.approx(np.mean(np.abs(truth - point)) / floored_std(visible), rel=1e-12)

    def test_seed_derivation_is_stable(self):
        assert stable_seed(1, "a", 0, "x") == stable_seed(1, "a", 0, "x")
        assert stable_seed(1, "a", 0, "x") != stable_seed(2, "a", 0, "x")
        assert 0 <= stable_seed("anything") < 2**64

    def test_aggregates_levels(self, tmp_path):
        bench = run(demo_config(tmp_path))
        levels = {a["level"] for a in bench.aggregates}
        assert levels == {"dataset_scenario", "dataset", "overall"}
        overall = [a for a in bench.aggregates if a["level"] == "overall"]
        assert {a["imputer_id"] for a in overall} == {"linear", "locf"}

    def test_ranks_complete(self, tmp_path):
        bench = run(demo_config(tmp_path))
        assert set(bench.ranks) == {"linear", "locf"}
        assert np.mean(list(bench.ranks.values())) == pytest.approx(1.5, abs=1e-12)

    def test_custom_scenarios_and_wql_ranking(self, tmp_path):
        config = config_from_dict(
            {
                "seed": 2,
                "segment": {"len_days": 28, "stride": [28, 28]},
                "scenarios": [{"kind": "pointwise", "param": 0.5, "label": "p_half"}],
                "rank_metric": "wql",
                "datasets": [{"id": "demo", "synth": SYNTH_DICT}],
                "imputers": [
                    {"id": "tix_fourier_q", "name": "q_daily", "params": {"quantile_levels": [0.1, 0.5, 0.9]}},
                    {
                        "id": "tix_fourier_q",
                        "name": "q_stiff",
                        "params": {"quantile_levels": [0.1, 0.5, 0.9], "lam": 1e6},
                    },
                ],
            }
        )
        bench = run(config)
        assert {r.scenario_label for r in bench.records} == {"p_half"}
        assert all(r.wql is not None for r in bench.records)
        # The heavily over-regularized head collapses toward the context mean
        # and must rank behind the default fit under the wql metric.
        assert bench.ranks["q_daily"] < bench.ranks["q_stiff"]

    def test_infeasible_scenario_skips_the_task(self, tmp_path, monkeypatch):
        def infeasible(segment, scenario, seed):
            raise InfeasibleScenario("infeasible block scenario")

        monkeypatch.setattr(harness, "apply_scenario", infeasible)
        assert run(demo_config(tmp_path)).records == ()

    def test_other_scenario_errors_propagate(self, tmp_path, monkeypatch):
        # Only the type marks a scenario as infeasible, not the message.
        def broken(segment, scenario, seed):
            raise ValueError("infeasible-sounding but untyped")

        monkeypatch.setattr(harness, "apply_scenario", broken)
        with pytest.raises(ValueError, match="untyped"):
            run(demo_config(tmp_path))

    @staticmethod
    def quantile_csv_config(tmp_path, values):
        # 140 hourly days; the test slice is the last 28, four 7-day windows.
        write_csv(tmp_path / "series.csv", [[t, v] for t, v in enumerate(values)])
        return config_from_dict(
            {
                "segment": {"len_days": 7, "stride": [7, 7]},
                "datasets": [{"id": "series", "path": str(tmp_path / "series.csv"), "steps_per_day": 24}],
                "imputers": [{"id": "tix_fourier_q"}],
            }
        )

    def test_all_zero_truth_leaves_wql_empty(self, tmp_path):
        records = run(self.quantile_csv_config(tmp_path, [0.0] * 3360)).records
        assert len(records) == 4 * 4
        assert all(r.wql is None for r in records)

    def test_other_wql_errors_propagate(self, tmp_path, monkeypatch):
        def broken(quantiles, truth):
            raise ValueError("not a scale error")

        monkeypatch.setattr(harness, "wql", broken)
        config = self.quantile_csv_config(tmp_path, np.sin(2 * np.pi * np.arange(3360) / 24))
        with pytest.raises(ValueError, match="not a scale error"):
            run(config)

    def test_sparse_window_skips_its_tasks(self, tmp_path):
        # 140 hourly days; the test slice is the last 28 days (ticks 2688-3359),
        # four 7-day windows. The first holds one observed value, which no
        # scenario can hide and leave a context; the other three are full.
        sparse = range(2688, 2856)
        rows = [[t, "" if t in sparse and t != 2700 else np.sin(2 * np.pi * t / 24)] for t in range(3360)]
        write_csv(tmp_path / "sparse.csv", rows)
        config = config_from_dict(
            {
                "segment": {"len_days": 7, "stride": [7, 7]},
                "datasets": [{"id": "sparse", "path": str(tmp_path / "sparse.csv"), "steps_per_day": 24}],
                "imputers": [{"id": "linear"}, {"id": "tix_fourier"}],
            }
        )
        records = run(config).records
        assert len(records) == 3 * 4 * 2
        assert {r.n_points for r in records if r.scenario_label == "pointwise1"} == {84}

    @pytest.mark.parametrize(
        "observed, pointwise1_points",
        [
            # Two values: pointwise1 hides one and fits the heads on the other.
            pytest.param([2700, 2710], 1, id="two_values"),
            # Two full days: blocks1 would hide both, blocks2 lacks four days.
            pytest.param([*range(2712, 2736), *range(2784, 2808)], 24, id="two_full_days"),
        ],
    )
    def test_window_with_two_visible_values_or_days_runs(self, tmp_path, observed, pointwise1_points):
        # As above, but the first window holds only ``observed``: its two
        # pointwise tasks are scored and its two block tasks are skipped.
        sparse = set(range(2688, 2856)) - set(observed)
        rows = [[t, "" if t in sparse else np.sin(2 * np.pi * t / 24)] for t in range(3360)]
        write_csv(tmp_path / "sparse.csv", rows)
        config = config_from_dict(
            {
                "segment": {"len_days": 7, "stride": [7, 7]},
                "datasets": [{"id": "sparse", "path": str(tmp_path / "sparse.csv"), "steps_per_day": 24}],
                "imputers": [{"id": "linear"}, {"id": "tix_fourier"}],
            }
        )
        records = run(config).records
        assert len(records) == 3 * 4 * 2 + 2 * 2
        counts = {label: sum(r.scenario_label == label for r in records) for label in ("pointwise1", "blocks1")}
        assert counts == {"pointwise1": 8, "blocks1": 6}
        assert {r.n_points for r in records if r.scenario_label == "pointwise1"} == {pointwise1_points, 84}

    def test_min_std_filter_drops_flat_segments(self, tmp_path):
        flat_synth = {
            "length_days": 280,
            "steps_per_day": 24,
            "seed": 0,
            "components": [{"kind": "sine", "amplitude": 1e-6, "period_ticks": 24}],
        }
        base = {
            "seed": 1,
            "segment": {"len_days": 28, "stride": [14, 14]},
            "imputers": [{"id": "linear"}],
        }
        kept = run(
            config_from_dict({**base, "datasets": [{"id": "flat", "synth": flat_synth}]})
        )
        filtered = run(
            config_from_dict(
                {**base, "datasets": [{"id": "flat", "synth": flat_synth, "min_std_filter": 0.5}]}
            )
        )
        assert len(kept.records) > 0
        assert len(filtered.records) == 0

    def test_covariate_imputer_without_covariates_fails_before_any_task(self, monkeypatch):
        monkeypatch.setattr(harness, "_score_task", no_task)
        synth = {**SYNTH_DICT, "length_days": 200}
        config = config_from_dict(
            {"datasets": [{"id": "d", "synth": synth}], "imputers": [{"id": "linear"}, {"id": "covar_ridge"}]}
        )
        message = "^dataset ingestion failed\n  d: has no covariate channel, which imputer 'covar_ridge' needs$"
        with pytest.raises(ValueError, match=message):
            run(config)

    def test_dataset_without_segments_fails_before_any_task(self, monkeypatch):
        # A 60-day series leaves a test slice too short for one 28-day window;
        # the 200-day one beside it must not let the run pass with its records alone.
        monkeypatch.setattr(harness, "_score_task", no_task)
        datasets = [
            {"id": "long", "synth": {**SYNTH_DICT, "length_days": 200}},
            {"id": "short", "synth": {**SYNTH_DICT, "length_days": 60}},
        ]
        config = config_from_dict({"datasets": datasets, "imputers": [{"id": "linear"}]})
        _, _, test = harness.chrono_split(harness.load_dataset(config.datasets[1]), config.splits)
        message = (
            f"^dataset ingestion failed\n  short: its test slice of {len(test)} ticks holds no"
            r" 672-tick \(28-day\) window with an observed value$"
        )
        with pytest.raises(ValueError, match=message):
            run(config)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_every_dataset_that_cannot_run_is_named_before_any_task(self, tmp_path, monkeypatch, jobs):
        # Four ways to fail, listed out of id order: a missing file, a CSV too
        # short to split, a synth whose test slice holds no 28-day window, and
        # a covariate gap in a scored window under a use_covariates entry.
        monkeypatch.setattr(harness, "_score_tasks", no_task)
        gap = write_csv(tmp_path / "gap.csv", gap_rows(lambda t: t, 150), header=("timestamp", "value", "temp"))
        pair = write_csv(tmp_path / "pair.csv", [[0, 1.0], [1, 2.0]])
        datasets = [
            {"id": "short", "synth": {**SYNTH_DICT, "length_days": 28}},
            {"id": "pair", "path": str(pair), "steps_per_day": 24},
            {"id": "gap", "path": str(gap), "steps_per_day": 24, "covariate_columns": ["temp"]},
            {"id": "ghost", "path": str(tmp_path / "ghost.csv"), "steps_per_day": 24},
        ]
        imputers = [{"id": "tix_fourier", "name": "with_cov", "params": {"use_covariates": True}}]
        config = config_from_dict({"datasets": datasets, "imputers": imputers, "splits": [0.05, 0.05, 0.9]})
        message = (
            "dataset ingestion failed\n"
            "  gap: covariate 'temp' has no value at tick 150, which imputer 'with_cov' reads\n"
            f"  ghost: [Errno 2] No such file or directory: '{tmp_path / 'ghost.csv'}'\n"
            "  pair: series too short to split: 2 ticks\n"
            "  short: its test slice of 605 ticks holds no 672-tick (28-day) window with an observed value"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run(config, jobs=jobs)

    def test_incomplete_score_matrix_leaves_ranks_out(self, tmp_path, capsys):
        # linear gives no quantiles, so wql ranks have a hole in every task:
        # the run still scores and reports, with a note in place of the ranks.
        cfg = {
            "datasets": [{"id": "d", "synth": {**SYNTH_DICT, "length_days": 150}}],
            "imputers": [{"id": "linear"}, {"id": "tix_fourier_q"}],
            "rank_metric": "wql",
            "output_dir": str(tmp_path / "out"),
        }
        (tmp_path / "cfg.yaml").write_text(yaml.safe_dump(cfg))
        assert cli_main(["run", str(tmp_path / "cfg.yaml")]) == 0
        out = capsys.readouterr().out
        assert out.startswith("scored ") and "best average rank" not in out
        results = json.loads((tmp_path / "out" / "results.json").read_text())
        assert results["records"] and results["ranks"] == {}
        assert results["meta"]["notes"][-1] == "ranks unavailable: incomplete score matrix"
        assert "Average ranks" not in (tmp_path / "out" / "report.md").read_text()

    # The test rewrites its one CSV under tmp_path for each example.
    @settings(
        max_examples=200, derandomize=True, database=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(drawn=whole_inputs())
    def test_whole_input_scores_finitely_or_is_refused_by_name(self, tmp_path, drawn):
        # A CSV and a config drawn together: the run scores every task it runs finitely, or one ValueError names the
        # dataset (and so its file). Any RuntimeWarning, such as an overflow, fails the test.
        rows, raw = drawn
        path = write_csv(tmp_path / "drawn.csv", rows, header=("timestamp", "value", "temp"))
        raw["datasets"][0]["path"] = str(path)
        try:
            records = run(config_from_dict(raw)).records
        except ValueError as err:
            assert "drawn" in str(err), str(err)
        else:
            assert all(math.isfinite(r.mae) and (r.wql is None or math.isfinite(r.wql)) for r in records)


def blas_threads() -> list[int]:
    return [getter() for getter, _ in harness._openblas_thread_api()]


def numpy_names_openblas() -> bool:
    """Whether numpy's build info names an OpenBLAS; numpy before 1.26 has no such info, and its wheels bundle one."""
    config = getattr(np.__config__, "CONFIG", None)
    return config is None or "openblas" in config["Build Dependencies"]["blas"]["name"].lower()


# A lookup that finds nothing under an OpenBLAS numpy fails these tests; only another BLAS skips them.
needs_numpy_openblas = pytest.mark.skipif(not numpy_names_openblas(), reason="numpy's build info names no OpenBLAS")


def score_batch_logging_threads(specs, windows):
    """Score one batch through ``harness._score_tasks``, logging the thread count of numpy's OpenBLAS.

    Returns the number of records and the counts before the batch, as each
    imputer is built, as each imputer runs, and after the batch. Each build
    sets the count to two threads, so that a pin to one shows.
    """
    before, built, running = blas_threads(), [], []
    make_imputer = harness.make_imputer

    def spied(imputer_id, **params):
        fit = make_imputer(imputer_id, **params)
        for _, setter in harness._openblas_thread_api():
            setter(2)
        built.append(blas_threads())

        def logged(segments):
            running.append(blas_threads())
            return fit(segments)

        return logged

    harness.make_imputer = spied
    try:
        records = harness._score_tasks(0, specs, windows)
    finally:
        harness.make_imputer = make_imputer
    return len(records), before, built, running, blas_threads()


# Run in a fresh interpreter with argv = config JSON, jobs, log path: loads
# the config, sets numpy's OpenBLAS to two threads so that a pin to one
# shows, runs, and logs the thread counts each task reads. Prints the
# OpenBLAS copies mapped with the config, after it and after the run.
PINNED_QUANTILE_RUN = """
import json, sys
from tixbench import harness

def openblas():
    with open("/proc/self/maps") as fh:
        return sorted({line.split(maxsplit=5)[5].strip() for line in fh if "openblas" in line.lower()})

before = openblas()
config = harness.config_from_dict(json.loads(sys.argv[1]))
after_config = openblas()
for _, setter in harness._openblas_thread_api():
    setter(2)
make_imputer = harness.make_imputer

def spied(imputer_id, **params):
    fit = make_imputer(imputer_id, **params)

    def logged(segments):
        with open(sys.argv[3], "a") as fh:
            fh.write(json.dumps([getter() for getter, _ in harness._openblas_thread_api()]) + "\\n")
        return fit(segments)

    return logged

harness.make_imputer = spied
harness.run(config, jobs=int(sys.argv[2]))
with_config = sorted(set(after_config) - set(before))
print(json.dumps({"with_config": with_config, "after_config": after_config, "after_run": openblas()}))
"""


# Run in a fresh interpreter: maps numpy's OpenBLAS, then scipy's beside it,
# sets a count through harness._openblas_thread_api that numpy's copy is not
# at, and prints the count of each mapped copy, by path, before and after.
PIN_BESIDE_SCIPY = """
import ctypes, json, os
import numpy
from tixbench import harness

def counts():
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split(maxsplit=5)[5].strip() for line in fh if "openblas" in line.lower()})
    found = {}
    for path in paths:
        lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        getter = next(getattr(lib, name) for name, _ in harness._OPENBLAS_THREAD_API if hasattr(lib, name))
        found[path] = getter()
    return found

numpys = sorted(counts())
import scipy.linalg
before = counts()
api = harness._openblas_thread_api()
for _, setter in api:
    setter(2 if before[numpys[0]] == 1 else 1)
print(json.dumps({"numpys": numpys, "pairs": len(api), "before": before, "after": counts()}))
"""


@pytest.fixture
def two_blas_threads():
    """numpy's OpenBLAS at two threads, so that a pin to one shows."""
    if not numpy_names_openblas():
        pytest.skip("numpy's build info names no OpenBLAS")
    api = harness._openblas_thread_api()
    assert len(api) == 1, "numpy's build info names an OpenBLAS, but the lookup found none"
    before = [getter() for getter, _ in api]
    for _, setter in api:
        setter(2)
    yield [2] * len(api)
    for (_, setter), count in zip(api, before):
        setter(count)


SHARED_ENTRIES = [
    {"id": "tix_fourier"},
    {"id": "tix_fourier", "name": "tix_fourier_cov", "params": {"use_covariates": True}},
    {"id": "tix_fourier", "name": "tix_fourier_again"},
]


def shared_config(imputers=SHARED_ENTRIES):
    """Two datasets, ``plain`` without a covariate channel and ``cov`` with one, under ``imputers``."""
    cov = {**SYNTH_DICT, "components": [{"kind": "covariate_linear", "covariate_gain": 0.8}, *SYNTH_DICT["components"]]}
    return config_from_dict(
        {
            "segment": {"len_days": 28, "stride": [14, 14]},
            "datasets": [{"id": "plain", "synth": SYNTH_DICT}, {"id": "cov", "synth": cov}],
            "imputers": imputers,
        }
    )


def scores(records, imputer, dataset=None):
    """The (dataset, scenario, n_points, mae bits, wql) of ``imputer``'s records, optionally of one dataset."""
    return [
        (r.dataset, r.scenario_label, r.n_points, r.mae.hex(), r.wql)
        for r in records
        if r.imputer_id == imputer and dataset in (None, r.dataset)
    ]


class TestSharedColumns:
    def test_entries_of_one_effective_spec_run_once_and_keep_their_bits(self, monkeypatch):
        config = shared_config()
        calls = []

        def counted(imputer_id, **params):
            index, imputer = len(calls), make_imputer(imputer_id, **params)
            calls.append([])
            return lambda segments: calls[index].append(bool(segments[0].covariates)) or imputer(segments)

        monkeypatch.setattr(harness, "make_imputer", counted)
        records = run(config).records
        monkeypatch.undo()
        # Each dataset's 56-day test slice holds three 28-day windows at a 14-day stride. The plain entry runs on
        # every window, the covariate entry on the covariate windows only, the third never.
        assert calls == [[False] * 3 + [True] * 3, [True] * 3, []]
        assert scores(records, "tix_fourier_again") == scores(records, "tix_fourier")
        assert scores(records, "tix_fourier_cov", "plain") == scores(records, "tix_fourier", "plain")
        assert scores(records, "tix_fourier_cov", "cov") != scores(records, "tix_fourier", "cov")
        # Each entry scores as it does alone in a run, bit for bit, at --jobs 1 and 2.
        for entry in SHARED_ENTRIES:
            alone = run(shared_config([entry])).records
            assert scores(records, entry.get("name", entry["id"])) == scores(alone, entry.get("name", entry["id"]))
        assert list(map(repr, run(config, jobs=2).records)) == list(map(repr, records))

    @pytest.mark.parametrize(
        "refuses, dataset, imputer",
        [(lambda params: True, "plain", "tix_fourier"), (lambda params: "use_covariates" in params, "cov", "tix_fourier_cov")],
    )
    def test_error_names_the_first_configured_entry_that_fails(self, monkeypatch, refuses, dataset, imputer):
        # On the plain windows the covariate entry shares the plain entry's imputer, so only a cov window runs its own.
        def build(imputer_id, **params):
            imputer = make_imputer(imputer_id, **params)

            def impute(segments):
                if refuses(params):
                    raise ValueError("refused")
                return imputer(segments)

            return impute

        monkeypatch.setattr(harness, "make_imputer", build)
        where = f"dataset '{dataset}', ticks \\d+-\\d+, scenario 'pointwise1', imputer '{imputer}'"
        with pytest.raises(ValueError, match=f"^{where}: refused$"):
            run(shared_config())


class TestBlasThreads:
    def test_tasks_run_on_one_thread_and_counts_come_back(self, tmp_path, monkeypatch, two_blas_threads):
        seen = []

        def spy(segments):
            seen.append(blas_threads())
            return [impute_linear(segment) for segment in segments]

        monkeypatch.setattr(harness, "make_imputer", lambda imputer_id, **params: spy)
        run(demo_config(tmp_path))
        # One call per imputer and window.
        assert len(seen) == 2 * 3
        assert all(counts == [1] * len(two_blas_threads) for counts in seen)
        assert blas_threads() == two_blas_threads

    def test_counts_come_back_when_a_task_raises(self, tmp_path, monkeypatch, two_blas_threads):
        def failing(segments):
            raise RuntimeError("imputer failed")

        monkeypatch.setattr(harness, "make_imputer", lambda imputer_id, **params: failing)
        with pytest.raises(RuntimeError, match="imputer failed"):
            run(demo_config(tmp_path))
        assert blas_threads() == two_blas_threads

    @needs_numpy_openblas
    @pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="lists mapped copies from /proc/self/maps")
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_quantile_run_pins_the_copy_it_loads(self, tmp_path, jobs):
        # A fresh interpreter: this one has long since loaded scipy.
        synth = {**SYNTH_DICT, "components": [*SYNTH_DICT["components"], {"kind": "covariate_linear", "covariate_gain": 0.8}]}
        config = {
            "segment": {"len_days": 28, "stride": [14, 14]},
            "datasets": [{"id": "cov", "synth": synth}],
            "scenarios": [{"kind": "pointwise", "param": 0.5, "label": "p"}],
            "imputers": [{"id": "tix_fourier_q", "params": {"use_covariates": True}}],
        }
        src = str(Path(harness.__file__).resolve().parents[1])
        log = tmp_path / "threads.jsonl"
        out = subprocess.run(
            [sys.executable, "-c", PINNED_QUANTILE_RUN, json.dumps(config), str(jobs), str(log)],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        copies = json.loads(out.stdout)
        in_tasks = [json.loads(line) for line in log.read_text().splitlines()]
        # The config loads no OpenBLAS copy, the quantile head's included, and the run none after it.
        assert copies["with_config"] == []
        assert copies["after_run"] == copies["after_config"]
        assert len(in_tasks) >= 2
        assert all(counts == [1] * len(copies["after_config"]) for counts in in_tasks)

    @needs_numpy_openblas
    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_pooled_batch_pins_what_its_imputers_load(self, method):
        # A spawned worker starts from a fresh import; the quantile imputer
        # loads no OpenBLAS copy into it, nor into a forked one.
        rng = np.random.default_rng(4)
        seg = make_segment(np.sin(2 * np.pi * np.arange(672) / 24) + 0.1 * rng.normal(size=672), np.ones(672, dtype=bool))
        windows = [("d", seg, DEFAULT_SCENARIOS[:2], 0)]
        with ProcessPoolExecutor(1, multiprocessing.get_context(method)) as pool:
            job = pool.submit(score_batch_logging_threads, (ImputerSpec("tix_fourier_q"),), windows)
            n_records, before, built, running, after = job.result(timeout=120)
        assert n_records == 2
        # Built once for the batch, then run once a window, on one thread in every copy.
        assert len(built) == 1 and len(running) == len(windows)
        assert all(counts == [1] * len(after) for counts in running)
        assert after == built[0] == [2] * len(after)
        assert len(after) == len(before) == 1

    @needs_numpy_openblas
    @pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="finds each copy by its path in /proc/self/maps")
    def test_the_pin_moves_numpys_copy_and_leaves_scipys(self):
        pytest.importorskip("scipy.linalg")
        src = str(Path(harness.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", PIN_BESIDE_SCIPY],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        seen = json.loads(out.stdout)
        (numpys,) = seen["numpys"]
        others = seen["before"].keys() - {numpys}
        if not others:
            pytest.skip("scipy maps no OpenBLAS copy of its own")
        assert seen["pairs"] == 1
        assert seen["after"][numpys] != seen["before"][numpys]
        assert all(seen["after"][path] == seen["before"][path] for path in others)

    def test_serial_run_builds_each_imputer_once(self, tmp_path, monkeypatch):
        config = demo_config(tmp_path)
        built = []

        def counted(imputer_id, **params):
            built.append(imputer_id)
            return make_imputer(imputer_id, **params)

        monkeypatch.setattr(harness, "make_imputer", counted)
        assert len(run(config).records) == 2 * 4 * 3
        assert built == ["linear", "locf"]


class TestReport:
    def test_empty_records_still_valid(self, tmp_path):
        paths = report([], [], {}, tmp_path / "out")
        data = json.loads(paths["json"].read_text())
        assert data["records"] == []
        assert (tmp_path / "out" / "results.csv").read_text().startswith("dataset,")

    def test_single_record_single_csv_row(self, tmp_path):
        records = [ScoreRecord("d", "m", "s", 10, 0.5)]
        paths = report(records, [], {}, tmp_path / "out")
        lines = paths["csv"].read_text().strip().splitlines()
        assert len(lines) == 2

    def test_csv_json_numeric_round_trip(self, tmp_path):
        bench, paths = run_and_report(demo_config(tmp_path), output_dir=tmp_path / "out")
        data = json.loads(paths["json"].read_text())
        with open(paths["csv"]) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(data["records"])
        for csv_row, json_row in zip(rows, data["records"]):
            assert float(csv_row["mae"]) == json_row["mae"]
            assert int(csv_row["n_points"]) == json_row["n_points"]

    def test_best_marking(self, tmp_path):
        aggregates = [
            {"level": "dataset_scenario", "dataset": "d", "scenario_label": "s", "imputer_id": "a", "mae": 0.1},
            {"level": "dataset_scenario", "dataset": "d", "scenario_label": "s", "imputer_id": "b", "mae": 0.2},
            {"level": "dataset_scenario", "dataset": "d", "scenario_label": "s", "imputer_id": "c", "mae": 0.3},
        ]
        paths = report([], aggregates, {}, tmp_path / "out")
        table_line = [
            line for line in paths["markdown"].read_text().splitlines() if line.startswith("| d |")
        ][0]
        assert "**0.1000**" in table_line
        assert "<u>0.2000</u>" in table_line
        assert "| 0.3000 |" in table_line

    @pytest.mark.parametrize(
        "scores, line",
        [
            pytest.param({"a": 0.1, "b": 0.1, "c": 0.3}, "| d | s | **0.1000** | **0.1000** | 0.3000 |", id="tied_best"),
            pytest.param(
                {"a": 0.1, "b": 0.2, "c": 0.2}, "| d | s | **0.1000** | <u>0.2000</u> | <u>0.2000</u> |", id="tied_second"
            ),
            pytest.param({"a": 0.2, "c": 0.1}, "| d | s | <u>0.2000</u> |  | **0.1000** |", id="missing_cell"),
        ],
    )
    def test_best_marking_under_ties_and_gaps(self, tmp_path, scores, line):
        # A score with no score of its row lower is bold, one with exactly one lower is underlined;
        # a second task gives every imputer a column.
        rows = [("s", name, mae) for name, mae in scores.items()] + [("t", name, 0.5) for name in "abc"]
        aggregates = [
            {"level": "dataset_scenario", "dataset": "d", "scenario_label": s, "imputer_id": name, "mae": mae}
            for s, name, mae in rows
        ]
        paths = report([], aggregates, {}, tmp_path / "out")
        lines = paths["markdown"].read_text().splitlines()
        assert [row for row in lines if row.startswith("| d |")] == [line, "| d | t | **0.5000** | **0.5000** | **0.5000** |"]

    def test_random_basis_caveat_recorded(self, tmp_path):
        config = demo_config(tmp_path, imputers=[{"id": "tix_random_basis"}, {"id": "linear"}])
        bench = run(config)
        assert any("surrogate" in c for c in bench.meta["caveats"])

    def test_results_json_matches_the_asdict_serializer(self, tmp_path):
        records = [ScoreRecord("d", "a", "s", 10, 0.5, 0.25), ScoreRecord("d", "b", "s", 12, 0.75)]
        cells = aggregate(records, ("dataset", "imputer_id", "scenario_label"))
        aggregates = tuple({"level": "dataset_scenario", **row} for row in cells)
        ranks = {"b": 2.0, "a": 1.0}
        meta = {"seed": 0, "notes": ["n"], "generated_at": "2000-01-01T00:00:00+00:00"}
        paths = report(records, aggregates, ranks, tmp_path, meta=meta)
        # results.json as dataclasses.asdict and json.dump wrote it, one value a line.
        payload = {
            "meta": dict(meta),
            "records": [asdict(r) for r in records],
            "aggregates": [dict(a) for a in aggregates],
            "ranks": {k: float(v) for k, v in sorted(ranks.items())},
        }
        without_time = {k: v for k, v in meta.items() if k != "generated_at"}
        stable = json.dumps({**payload, "meta": without_time}, sort_keys=True, allow_nan=False)
        payload["meta"]["content_digest"] = hashlib.sha256(stable.encode()).hexdigest()
        expected = io.StringIO()
        json.dump(payload, expected, separators=(",\n", ": "), sort_keys=True, allow_nan=False)
        assert paths["json"].read_bytes() == (expected.getvalue() + "\n").encode()

    def test_results_json_has_one_value_a_line_and_one_volatile_line(self, tmp_path):
        # What the CI compares: two runs' results.json without their "generated_at" line, as
        # grep -v '"generated_at"' leaves them. A changed mae line makes them differ.
        config = demo_config(tmp_path)
        texts = [run_and_report(config, output_dir=tmp_path / name)[1]["json"].read_text() for name in "ab"]

        def stripped(lines):
            return [line for line in lines if '"generated_at"' not in line]

        a, b = (text.splitlines(keepends=True) for text in texts)
        assert a != b and stripped(a) == stripped(b)
        assert len(stripped(a)) == len(a) - 1
        last_mae = max(i for i, line in enumerate(a) if line.startswith('"mae": '))
        edited = a[:last_mae] + ['"mae": 12345.0,\n'] + a[last_mae + 1 :]
        assert stripped(edited) != stripped(b)
        assert json.loads("".join(edited))["records"][-1]["mae"] == 12345.0

    def test_content_digest_excludes_wallclock(self, tmp_path):
        config = demo_config(tmp_path)
        _, paths_a = run_and_report(config, output_dir=tmp_path / "a")
        _, paths_b = run_and_report(config, output_dir=tmp_path / "b")
        a = json.loads(paths_a["json"].read_text())
        b = json.loads(paths_b["json"].read_text())
        assert a["meta"]["content_digest"] == b["meta"]["content_digest"]


class TestCli:
    def test_synth_roundtrip(self, tmp_path, capsys):
        # The path of the quantile bench workload: synth -> CSV -> ingest_csv.
        spec = {**SYNTH_DICT, "components": [{"kind": "covariate_linear", "covariate_gain": 0.8}, *SYNTH_DICT["components"]]}
        spec_path = tmp_path / "spec.yaml"
        spec_path.write_text(yaml.safe_dump(spec))
        out_csv = tmp_path / "series.csv"
        assert cli_main(["synth", str(spec_path), "-o", str(out_csv)]) == 0
        series = ingest_csv(out_csv, HOURLY, covariate_columns=("cov1",))
        assert len(series) == 280 * 24
        assert series.obs_mask.all()
        expected = generate(synth_from_dict(spec))
        assert series.values.tobytes() == expected.values.tobytes()
        assert series.covariates["cov1"].tobytes() == expected.covariates["cov1"].tobytes()

    def test_run_and_score(self, tmp_path, capsys):
        cfg = {
            "seed": 3,
            "output_dir": str(tmp_path / "out"),
            "datasets": [{"id": "demo", "synth": SYNTH_DICT}],
            "imputers": [{"id": "linear"}],
            "segment": {"len_days": 28, "stride": [14, 14]},
        }
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump(cfg))
        assert cli_main(["run", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "results.json" in out.replace("\\", "/") or "json" in out

        truth = write_csv(tmp_path / "truth.csv", [[0, 1.0], [1, 2.0], [2, 3.0]])
        pred = write_csv(tmp_path / "pred.csv", [[0, 1.5], [1, 2.0], [2, 2.5]])
        assert cli_main(["score", str(truth), str(pred)]) == 0
        scored = json.loads(capsys.readouterr().out)
        assert scored["n_points"] == 3
        assert scored["mae"] == pytest.approx(1.0 / 3.0)

    def test_seed_flag_changes_results(self, tmp_path, capsys):
        cfg = {
            "seed": 3,
            "output_dir": str(tmp_path / "s3"),
            "datasets": [{"id": "demo", "synth": SYNTH_DICT}],
            "imputers": [{"id": "linear"}],
            "segment": {"len_days": 28, "stride": [14, 14]},
        }
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump(cfg))
        assert cli_main(["run", str(cfg_path)]) == 0
        assert cli_main(["run", str(cfg_path), "--seed", "4", "--output-dir", str(tmp_path / "s4")]) == 0
        a = json.loads((tmp_path / "s3" / "results.json").read_text())
        b = json.loads((tmp_path / "s4" / "results.json").read_text())
        assert a["meta"]["seed"] == 3 and b["meta"]["seed"] == 4
        assert a["meta"]["content_digest"] != b["meta"]["content_digest"]

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_run_refuses_jobs_below_one(self, tmp_path, capsys, monkeypatch, jobs):
        monkeypatch.setattr(harness, "load_dataset", no_task)
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump({**RUN_DICT, "output_dir": str(tmp_path / "out")}))
        assert cli_main(["run", str(cfg_path), "--jobs", jobs]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: jobs must be a whole number >= 1, got {jobs}\n"
        assert not (tmp_path / "out").exists()
        with pytest.raises(ValueError, match="jobs must be a whole number >= 1, got True"):
            run(load_config(cfg_path), jobs=True)

    def test_synth_accepts_id_and_rejects_unknown_keys(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.yaml"
        spec_path.write_text(yaml.safe_dump({**SYNTH_DICT, "id": "named"}))
        assert cli_main(["synth", str(spec_path), "-o", str(tmp_path / "a.csv")]) == 0
        spec_path.write_text(yaml.safe_dump({**SYNTH_DICT, "lenght_days": 30}))
        assert cli_main(["synth", str(spec_path), "-o", str(tmp_path / "b.csv")]) == 1
        assert "error: synth: unknown key 'lenght_days'" in capsys.readouterr().err

    def test_failed_ridge_solve_names_its_window(self, tmp_path, capsys, monkeypatch):
        # A solve that fails and a least-squares fallback that misses the
        # residual check: the fit raises LinAlgError, a ValueError, so the
        # run names the window and the CLI exits 1 without a traceback.
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        monkeypatch.setattr(np.linalg, "lstsq", lambda A, b, rcond=None: (np.zeros_like(b), None, 0, None))
        cfg = {
            "datasets": [{"id": "demo", "synth": SYNTH_DICT}],
            "imputers": [{"id": "tix_fourier"}],
            "scenarios": [{"kind": "blocks", "param": 2, "label": "b2"}],
            "output_dir": str(tmp_path / "out"),
        }
        with pytest.raises(ValueError, match=r"^dataset 'demo', ticks \d+-\d+, scenario 'b2', imputer 'tix_fourier': ") as err:
            run(config_from_dict(cfg))
        assert isinstance(err.value.__cause__, np.linalg.LinAlgError)
        assert str(err.value).endswith(": normal equations solve did not converge")
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump(cfg))
        assert cli_main(["run", str(cfg_path)]) == 1
        assert capsys.readouterr().err == f"error: {err.value}\n"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_window_error_names_the_scenario_whose_segment_raised_it(self, monkeypatch, jobs):
        # Each window is imputed in one call, which fails on its second
        # scenario's segment; the run then re-imputes the window one segment
        # at a time, so the error names that scenario, as a task of its own would.
        def nan_on_blocks(segments):
            # Only the 2-day blocks hide 48 ticks.
            return [
                Imputation(np.full(48, np.nan)) if segment.eval_mask.sum() == 48 else impute_linear(segment)
                for segment in segments
            ]

        monkeypatch.setattr(harness, "make_imputer", lambda imputer_id, **params: nan_on_blocks)
        scenarios = [{"kind": "pointwise", "param": 0.5, "label": "p"}, {"kind": "blocks", "param": 2, "label": "b"}]
        config = config_from_dict(
            {
                "segment": {"len_days": 28, "stride": [14, 14]},
                "datasets": [{"id": "demo", "synth": SYNTH_DICT}],
                "scenarios": scenarios,
                "imputers": [{"id": "linear"}],
            }
        )
        _, _, test = harness.chrono_split(harness.load_dataset(config.datasets[0]), config.splits)
        with pytest.raises(ValueError) as err:
            run(config, jobs=jobs)
        where = f"dataset 'demo', ticks {test.start}-{test.start + 28 * 24 - 1}, scenario 'b', imputer 'linear'"
        assert str(err.value) == f"{where}: imputed values must be finite"

    def test_an_imputation_of_the_wrong_length_is_named_by_its_task(self, tmp_path, capsys, monkeypatch):
        # One entry imputes one value short. The window's stacked score then fails inside numpy with a message
        # that names nothing; the one failure path re-scores the window one task and imputer at a time.
        def short(segments):
            return [Imputation(impute_linear(segment).point[:-1]) for segment in segments]

        def build(imputer_id, **params):
            return short if imputer_id == "locf" else make_imputer(imputer_id, **params)

        monkeypatch.setattr(harness, "make_imputer", build)
        doc = {
            "segment": {"len_days": 28, "stride": [14, 14]},
            "datasets": [{"id": "d", "synth": SYNTH_DICT}],
            "imputers": [{"id": "linear"}, {"id": "locf", "name": "short"}],
        }
        config = config_from_dict(doc)
        _, _, test = harness.chrono_split(harness.load_dataset(config.datasets[0]), config.splits)
        ticks = f"{test.start}-{test.start + 28 * 24 - 1}"
        message = f"dataset 'd', ticks {ticks}, scenario 'pointwise1', imputer 'short': length mismatch"
        with pytest.raises(ValueError) as err:
            run(config)
        assert str(err.value) == message
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.yaml").write_text(yaml.safe_dump({**doc, "output_dir": "out"}))
        assert cli_main(["run", "cfg.yaml"]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml"]

    def test_score_with_quantile_columns(self, tmp_path, capsys):
        truth = write_csv(tmp_path / "t.csv", [[0, 2.0], [1, 4.0]])
        pred = write_csv(
            tmp_path / "p.csv",
            [[0, 2.0, 1.0, 3.0], [1, 4.0, 3.0, 5.0]],
            header=("timestamp", "value", "q0.1", "q0.9"),
        )
        assert cli_main(["score", str(truth), str(pred)]) == 0
        scored = json.loads(capsys.readouterr().out)
        assert "wql" in scored
        assert scored["wql_levels"] == [0.1, 0.9]

    def test_score_of_an_all_zero_truth_leaves_out_wql(self, tmp_path, capsys):
        # The weighted quantile loss divides by the truth's absolute sum.
        truth = write_csv(tmp_path / "t.csv", [[0, 0.0], [1, 0.0]])
        pred = write_csv(tmp_path / "p.csv", [[0, 1.0, 0.5], [1, -1.0, -1.5]], header=("timestamp", "value", "q0.1"))
        assert cli_main(["score", str(truth), str(pred)]) == 0
        assert json.loads(capsys.readouterr().out) == {"mae": 1.0, "n_points": 2, "truth_std": 1e-8, "znorm_mae": 1e8}

    @pytest.mark.parametrize(
        "key, values",
        [("periods", list(range(1, 1025))), ("quantile_levels", [k / 100 for k in range(1, 100)])],
        ids=["periods", "quantile_levels"],
    )
    def test_a_list_param_at_its_bound_loads(self, key, values):
        assert len(ImputerSpec("tix_fourier_q", params={key: values}).params[key]) == len(values)

    def test_score_pairs_rows_by_parsed_timestamp(self, tmp_path, capsys):
        # Rows pair by the instant they name, whatever their order or UTC
        # offset; an empty value on either side leaves its row unscored, and
        # a quantile column with an empty cell in a scored row is left out.
        truth = write_csv(
            tmp_path / "t.csv",
            [
                ["2024-01-01T02:00:00+00:00", 5.0],
                ["2024-01-01T00:00:00+00:00", 1.0],
                ["2024-01-01T01:00:00+00:00", ""],
            ],
        )
        pred = write_csv(
            tmp_path / "p.csv",
            [
                ["2024-01-01T01:00:00+01:00", 1.5, 1.0, 2.0],
                ["2024-01-01T03:00:00+01:00", 4.0, 4.0, ""],
                ["2024-01-01T03:00:00+02:00", 9.0, "", 9.0],
            ],
            header=("timestamp", "value", "q0.5", "q0.9"),
        )
        assert cli_main(["score", str(truth), str(pred)]) == 0
        scored = json.loads(capsys.readouterr().out)
        # Scored: 00:00 (1.0 against 1.5) and 02:00 (5.0 against 4.0).
        assert scored["n_points"] == 2
        assert scored["mae"] == 0.75
        assert scored["wql_levels"] == [0.5]
        assert scored["wql"] == pytest.approx(2 * 0.5 / 6, rel=1e-12)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[0, 1.0], [None, 2.0]], "non-timestamp cell '' in column 'timestamp'"),
            ([[0, 1.0], ["yesterday", 2.0]], "non-timestamp cell 'yesterday' in column 'timestamp'"),
            ([["2024-01-01T00:00:00", 1.0], ["2024-01-01T01:00:00+00:00", 2.0]], "mixed timestamp formats"),
            ([[0, 1.0], [2**63, 2.0]], f"timestamp cell '{2**63}' in column 'timestamp' is beyond int64"),
            ([[-(2**63) - 1, 1.0], [0, 2.0]], f"timestamp cell '{-(2**63) - 1}' in column 'timestamp' is beyond int64"),
        ],
        ids=["missing", "unparseable", "naive_and_aware", "above_int64", "below_int64"],
    )
    def test_bad_timestamp_cell_names_file_and_column(self, tmp_path, capsys, rows, message):
        # A row too short to reach the timestamp column has no timestamp cell.
        path = tmp_path / "a.csv"
        with open(path, "w", newline="") as fh:
            fh.write("value,timestamp\n")
            fh.writelines(f"{v}\n" if t is None else f"{v},{t}\n" for t, v in rows)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            ingest_csv(path, HOURLY)
        assert cli_main(["score", str(path), str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {path}: {message}\n")

    def test_run_synth_and_score_name_the_encoding_of_every_file(self, tmp_path):
        # The bytes a command reads and writes must not depend on the locale.
        src = str(Path(harness.__file__).resolve().parents[1])
        (tmp_path / "spec.yaml").write_text(yaml.safe_dump(SYNTH_DICT))
        dataset = {"id": "d", "path": "d.csv", "steps_per_day": 24}
        (tmp_path / "cfg.yaml").write_text(yaml.safe_dump({**RUN_DICT, "datasets": [dataset]}))
        strict = [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning", "-m", "tixbench.cli"]
        env = {**os.environ, "PYTHONPATH": src}
        for argv in (["synth", "spec.yaml", "-o", "d.csv"], ["run", "cfg.yaml"], ["score", "d.csv", "d.csv"]):
            done = subprocess.run(strict + argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
            assert (done.returncode, done.stderr) == (0, ""), argv


def refused(guard):
    def call(*args, **kwargs):
        raise AssertionError(f"{guard} ran")

    return call


def run_case(case, directory, capsys, monkeypatch):
    """Run a case of ``tests/cli_cases.py`` through ``cli.main`` in ``directory``, with its guards patched to fail."""
    for guard in case.guards:
        monkeypatch.setattr(guard, refused(guard))
    monkeypatch.chdir(directory)
    status = cli_main(cli_cases.write_inputs(case, str(directory)))
    out, err = capsys.readouterr()
    assert not cli_cases.problems(case, str(directory), status, out, err)


def error_line_test(name):
    """The test ``name`` of ``TestCli``: it runs the cases of ``tests/cli_cases.py`` that it names."""
    if name in cli_cases.CASES:
        return lambda self, tmp_path, capsys, monkeypatch: run_case(cli_cases.CASES[name], tmp_path, capsys, monkeypatch)

    @pytest.mark.parametrize("case", [key[len(name) + 1 : -1] for key in cli_cases.CASES if key.startswith(f"{name}[")])
    def test(self, tmp_path, capsys, monkeypatch, case):
        run_case(cli_cases.CASES[f"{name}[{case}]"], tmp_path, capsys, monkeypatch)

    return test


for _name in dict.fromkeys(key.partition("[")[0] for key in cli_cases.CASES):
    setattr(TestCli, _name, error_line_test(_name))


def test_demo_matches_committed_results(tmp_path):
    """``out/demo/`` is the golden output of ``configs/demo.yaml``."""
    root = Path(__file__).resolve().parents[1]
    golden = json.loads((root / "out" / "demo" / "results.json").read_text())
    _, paths = run_and_report(load_config(root / "configs" / "demo.yaml"), output_dir=tmp_path)
    fresh = json.loads(paths["json"].read_text())
    assert fresh["meta"]["config_digest"] == golden["meta"]["config_digest"]
    assert len(fresh["records"]) == len(golden["records"])
    identity = ("dataset", "imputer_id", "scenario_label", "n_points")
    for new, old in zip(fresh["records"], golden["records"]):
        assert list(new) == list(old)
        assert [new[k] for k in identity] == [old[k] for k in identity]
        assert new["mae"] == pytest.approx(old["mae"], rel=1e-12, abs=0)
        assert new["wql"] == old["wql"]
