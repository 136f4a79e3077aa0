from __future__ import annotations

import copy
import csv
import json
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import yaml

from tixbench import Component, FrequencySpec, InfeasibleScenario, ScoreRecord, SynthSpec, harness, impute_linear
from tixbench.cli import main as cli_main
from tixbench.harness import (
    DatasetSpec,
    ImputerSpec,
    IngestionError,
    RunConfig,
    config_digest,
    config_from_dict,
    ingest_csv,
    load_config,
    report,
    run,
    run_and_report,
    stable_seed,
)

HOURLY = FrequencySpec(24)


def write_csv(path, rows, header=("timestamp", "value")):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


SYNTH_DICT = {
    "length_days": 280,
    "steps_per_day": 24,
    "seed": 5,
    "components": [
        {"kind": "sine", "amplitude": 1.0, "period_ticks": 24},
        {"kind": "noise", "noise_std": 0.1},
    ],
}


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

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", [[0, 1.0]], header=("timestamp", "wrong"))
        with pytest.raises(ValueError, match="missing column"):
            ingest_csv(path, HOURLY)

    def test_covariates_loaded(self, tmp_path):
        rows = [[0, 1.0, 5.0], [1, 2.0, 6.0]]
        path = write_csv(tmp_path / "a.csv", rows, header=("timestamp", "value", "temp"))
        series = ingest_csv(path, HOURLY, covariate_columns=("temp",))
        np.testing.assert_array_equal(series.covariates["temp"], [5.0, 6.0])

    def test_covariate_gap_surfaces_at_imputation(self, tmp_path):
        # An empty covariate cell loads as NaN and only errors when a
        # covariate-consuming imputer runs. The gap at tick 150 falls inside
        # the first test-slice window (test starts at tick 134).
        rows = [[t, float(t), "" if t == 150 else 1.0] for t in range(1344)]
        path = write_csv(tmp_path / "a.csv", rows, header=("timestamp", "value", "temp"))
        config = config_from_dict(
            {
                "datasets": [
                    {
                        "id": "gap",
                        "path": str(path),
                        "steps_per_day": 24,
                        "covariate_columns": ["temp"],
                    }
                ],
                "imputers": [{"id": "covar_ridge"}],
                "splits": [0.05, 0.05, 0.9],
            }
        )
        series = ingest_csv(path, HOURLY, covariate_columns=("temp",))
        assert np.isnan(series.covariates["temp"][150])
        with pytest.raises(ValueError, match="covariate not fully observed"):
            run(config)


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
        with pytest.raises(IngestionError) as err:
            run(config)
        assert set(err.value.failures) == {"missing1", "missing2"}

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
        def no_task(args):
            raise AssertionError("a task ran")

        monkeypatch.setattr(harness, "_score_task", no_task)
        synth = {**SYNTH_DICT, "length_days": 200}
        config = config_from_dict(
            {"datasets": [{"id": "d", "synth": synth}], "imputers": [{"id": "linear"}, {"id": "covar_ridge"}]}
        )
        message = "^imputer 'covar_ridge' needs a covariate channel, but dataset 'd' has none$"
        with pytest.raises(ValueError, match=message):
            run(config)

    def test_dataset_without_segments_fails_before_any_task(self, monkeypatch):
        # A 60-day series leaves a test slice too short for one 28-day window;
        # the 200-day one beside it must not let the run pass with its records alone.
        def no_task(args):
            raise AssertionError("a task ran")

        monkeypatch.setattr(harness, "_score_task", no_task)
        datasets = [
            {"id": "long", "synth": {**SYNTH_DICT, "length_days": 200}},
            {"id": "short", "synth": {**SYNTH_DICT, "length_days": 60}},
        ]
        config = config_from_dict({"datasets": datasets, "imputers": [{"id": "linear"}]})
        _, _, test = harness.chrono_split(harness.load_dataset(config.datasets[1]), config.splits)
        message = (
            f"^dataset 'short' yields no segment: its test slice of {len(test)} ticks holds no"
            r" 672-tick \(28-day\) window with an observed value$"
        )
        with pytest.raises(ValueError, match=message):
            run(config)


def blas_threads() -> list[int]:
    return [getter() for getter, _ in harness._openblas_thread_api()]


@pytest.fixture
def two_blas_threads():
    """Every loaded OpenBLAS copy at two threads, so that a pin to one shows."""
    api = harness._openblas_thread_api()
    if not api:
        pytest.skip("no OpenBLAS copy is loaded")
    before = [getter() for getter, _ in api]
    for _, setter in api:
        setter(2)
    yield [2] * len(api)
    for (_, setter), count in zip(api, before):
        setter(count)


class TestBlasThreads:
    def test_tasks_run_on_one_thread_and_counts_come_back(self, tmp_path, monkeypatch, two_blas_threads):
        seen = []

        def spy(segment):
            seen.append(blas_threads())
            return impute_linear(segment)

        monkeypatch.setattr(harness, "make_imputer", lambda imputer_id, **params: spy)
        run(demo_config(tmp_path))
        assert len(seen) == 2 * 4 * 3
        assert all(counts == [1] * len(two_blas_threads) for counts in seen)
        assert blas_threads() == two_blas_threads

    def test_counts_come_back_when_a_task_raises(self, tmp_path, monkeypatch, two_blas_threads):
        def failing(segment):
            raise RuntimeError("imputer failed")

        monkeypatch.setattr(harness, "make_imputer", lambda imputer_id, **params: failing)
        with pytest.raises(RuntimeError, match="imputer failed"):
            run(demo_config(tmp_path))
        assert blas_threads() == two_blas_threads

    def test_pool_initializer_pins_the_worker(self, two_blas_threads):
        with ProcessPoolExecutor(max_workers=1, initializer=harness._pin_worker) as pool:
            in_worker = pool.submit(blas_threads).result(timeout=60)
        assert in_worker == [1] * len(two_blas_threads)
        assert blas_threads() == two_blas_threads


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

    def test_random_basis_caveat_recorded(self, tmp_path):
        config = demo_config(tmp_path, imputers=[{"id": "tix_random_basis"}, {"id": "linear"}])
        bench = run(config)
        assert any("surrogate" in c for c in bench.meta["caveats"])

    def test_content_digest_excludes_wallclock(self, tmp_path):
        config = demo_config(tmp_path)
        _, paths_a = run_and_report(config, output_dir=tmp_path / "a")
        _, paths_b = run_and_report(config, output_dir=tmp_path / "b")
        a = json.loads(paths_a["json"].read_text())
        b = json.loads(paths_b["json"].read_text())
        assert a["meta"]["content_digest"] == b["meta"]["content_digest"]


class TestCli:
    def test_synth_roundtrip(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.yaml"
        spec_path.write_text(yaml.safe_dump(SYNTH_DICT))
        out_csv = tmp_path / "series.csv"
        assert cli_main(["synth", str(spec_path), "-o", str(out_csv)]) == 0
        series = ingest_csv(out_csv, HOURLY)
        assert len(series) == 280 * 24
        assert series.obs_mask.all()

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

    def test_run_reports_ingestion_failures(self, tmp_path, capsys):
        cfg = {
            "datasets": [{"id": "ghost", "path": str(tmp_path / "ghost.csv"), "steps_per_day": 24}],
            "imputers": [{"id": "linear"}],
            "output_dir": str(tmp_path / "out"),
        }
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump(cfg))
        assert cli_main(["run", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert "ghost" in err

    def test_synth_accepts_id_and_rejects_unknown_keys(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.yaml"
        spec_path.write_text(yaml.safe_dump({**SYNTH_DICT, "id": "named"}))
        assert cli_main(["synth", str(spec_path), "-o", str(tmp_path / "a.csv")]) == 0
        spec_path.write_text(yaml.safe_dump({**SYNTH_DICT, "lenght_days": 30}))
        assert cli_main(["synth", str(spec_path), "-o", str(tmp_path / "b.csv")]) == 1
        assert "error: synth: unknown key 'lenght_days'" in capsys.readouterr().err

    def test_run_reports_config_and_run_errors(self, tmp_path, capsys):
        # The empty covariate cell at tick 150 falls inside the first window
        # of the test slice, so covar_ridge fails during the run.
        rows = [[t, float(t), "" if t == 150 else 1.0] for t in range(1344)]
        write_csv(tmp_path / "gap.csv", rows, header=("timestamp", "value", "temp"))
        dataset = {"id": "gap", "path": "gap.csv", "steps_per_day": 24, "covariate_columns": ["temp"]}
        cfg = {
            "datasets": [dataset],
            "imputers": [{"id": "covar_ridge"}],
            "splits": [0.05, 0.05, 0.9],
            "output_dir": str(tmp_path / "out"),
        }
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump(cfg))
        assert cli_main(["run", str(cfg_path)]) == 1
        assert capsys.readouterr().err == (
            "error: dataset 'gap', ticks 134-805, scenario 'pointwise1', imputer 'covar_ridge': "
            "covariate not fully observed\n"
        )
        cfg_path.write_text(yaml.safe_dump({**cfg, "imputers": [{"id": "covar_ridge", "params": {"lamda": 1}}]}))
        assert cli_main(["run", str(cfg_path)]) == 1
        assert "unknown param 'lamda'" in capsys.readouterr().err

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
        assert new["mae"] == pytest.approx(old["mae"], rel=1e-9, abs=0)
        assert new["wql"] == old["wql"]
