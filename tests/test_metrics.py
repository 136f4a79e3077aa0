from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from oracles import ranks_oracle, wql_oracle
import tixbench
from tixbench import ScoreRecord, aggregate, average_ranks, quantile_loss, wql, znorm_mae
from tixbench.metrics import _mid_ranks


def rec(dataset, imputer, scenario, mae, wql_value=None, n=10):
    return ScoreRecord(
        dataset=dataset,
        imputer_id=imputer,
        scenario_label=scenario,
        n_points=n,
        mae=mae,
        wql=wql_value,
    )


class TestScoreRecord:
    @pytest.mark.parametrize(
        "n, mae, wql_value, message",
        [
            pytest.param(0, 0.5, None, "n_points must be >= 1", id="no_points"),
            pytest.param(10, -0.5, None, "scores must be nonnegative", id="negative_mae"),
            pytest.param(10, 0.5, -0.25, "scores must be nonnegative", id="negative_wql"),
            *(
                pytest.param(10, *scores, f"a score is not finite: mae {scores[0]}, wql {scores[1]}", id=name)
                for name, scores in {
                    "nan_mae": (float("nan"), None),
                    "inf_mae": (float("inf"), 0.25),
                    "minus_inf_mae": (float("-inf"), None),
                    "nan_wql": (0.5, float("nan")),
                    "inf_wql": (0.5, float("inf")),
                    "minus_inf_wql": (0.5, float("-inf")),
                }.items()
            ),
        ],
    )
    def test_refuses(self, n, mae, wql_value, message):
        with pytest.raises(ValueError) as err:
            rec("d", "m", "s", mae, wql_value, n=n)
        assert str(err.value) == message

    def test_keeps_a_finite_score_and_no_wql(self):
        assert rec("d", "m", "s", 0.0, None, n=1).wql is None


class TestZnormMae:
    def test_identity_is_zero(self):
        v = np.array([1.0, 2.0, 3.0])
        assert znorm_mae(v, v, 1.0) == 0.0

    def test_simple_case(self):
        assert znorm_mae([0.0, 2.0], [1.0, 1.0], 1.0) == 1.0

    def test_scaling_law(self):
        rng = np.random.default_rng(0)
        t, p = rng.normal(size=50), rng.normal(size=50)
        plain = znorm_mae(t, p, 1.0)
        halved = znorm_mae(t, p, 2.0)
        assert halved == pytest.approx(plain / 2.0, abs=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(1)
        t, p = rng.normal(size=30), rng.normal(size=30)
        a, b = -2.5, 7.0
        base = znorm_mae(t, p, 1.3)
        moved = znorm_mae(a * t + b, a * p + b, 1.3 * abs(a))
        assert moved == pytest.approx(base, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            znorm_mae([1.0], [1.0, 2.0], 1.0)


class TestQuantileLoss:
    def test_zero_iff_equal(self):
        assert quantile_loss(1.5, 1.5, 0.3) == 0.0
        assert quantile_loss(1.0, 2.0, 0.3) > 0.0

    def test_underprediction_branch(self):
        assert quantile_loss(0.0, 1.0, 0.1) == pytest.approx(0.1)

    def test_overprediction_branch(self):
        assert quantile_loss(1.0, 0.0, 0.1) == pytest.approx(0.9)

    @given(q=st.floats(-50, 50), x=st.floats(-50, 50))
    @settings(max_examples=80)
    def test_median_level_is_half_abs_error(self, q, x):
        assert quantile_loss(q, x, 0.5) == pytest.approx(0.5 * abs(x - q), abs=1e-12)

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            quantile_loss(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            quantile_loss(0.0, 1.0, 1.0)


class TestWql:
    def test_perfect_prediction(self):
        truth = np.array([1.0, -2.0, 3.0])
        preds = {a: truth.copy() for a in (0.1, 0.5, 0.9)}
        assert wql(preds, truth, (0.1, 0.5, 0.9)) == 0.0

    def test_single_point_closed_form(self):
        assert wql({0.5: np.array([1.0])}, np.array([2.0]), (0.5,)) == pytest.approx(0.5)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(2)
        alphas = tuple(np.round(np.arange(0.1, 0.95, 0.1), 10))
        for _ in range(20):
            n = rng.integers(1, 30)
            truth = rng.normal(size=n) + 0.1
            preds = {a: rng.normal(size=n) for a in alphas}
            assert wql(preds, truth, alphas) == pytest.approx(
                wql_oracle(preds, truth, alphas), abs=1e-12
            )
            # Without alphas, every level the mapping holds is scored.
            assert wql(dict(reversed(preds.items())), truth) == wql(preds, truth, alphas)

    def test_undefined_scale(self):
        with pytest.raises(ValueError, match="undefined scale"):
            wql({0.5: np.array([1.0])}, np.array([0.0]), (0.5,))

    def test_missing_level(self):
        with pytest.raises(ValueError, match="missing quantile level"):
            wql({0.5: np.array([1.0])}, np.array([1.0]), (0.5, 0.9))

    @pytest.mark.parametrize("alphas", [None, ()], ids=["held", "given"])
    def test_no_level(self, alphas):
        # An Imputation may carry an empty quantile dict; its mean over no level would be NaN.
        with pytest.raises(ValueError, match="^need at least one quantile level$"):
            wql({}, np.array([1.0]), alphas)

    @given(st.permutations(list(range(6))))
    @settings(max_examples=30)
    def test_permutation_invariance(self, perm):
        rng = np.random.default_rng(3)
        truth = rng.normal(size=6) + 2.0
        preds = {a: rng.normal(size=6) for a in (0.2, 0.8)}
        base = wql(preds, truth, (0.2, 0.8))
        idx = np.array(perm)
        shuffled = wql({a: v[idx] for a, v in preds.items()}, truth[idx], (0.2, 0.8))
        assert shuffled == pytest.approx(base, abs=1e-12)


class TestAggregate:
    def test_single_record_passthrough(self):
        rows = aggregate([rec("d", "m", "s", 0.5)], ("dataset", "imputer_id", "scenario_label"))
        assert len(rows) == 1
        assert rows[0]["mae"] == 0.5
        assert rows[0]["n_records"] == 1

    def test_mean_of_two(self):
        rows = aggregate(
            [rec("d", "m", "s", 0.2), rec("d", "m", "s", 0.4)],
            ("dataset", "imputer_id"),
        )
        assert rows[0]["mae"] == pytest.approx(0.3)

    def test_three_by_two_table(self):
        records = [
            rec("d1", "a", "s1", 0.1),
            rec("d1", "a", "s2", 0.3),
            rec("d1", "b", "s1", 0.2),
            rec("d1", "b", "s2", 0.6),
            rec("d2", "a", "s1", 0.5),
            rec("d2", "b", "s1", 0.7),
        ]
        by_imputer = {r["imputer_id"]: r for r in aggregate(records, ("imputer_id",))}
        # Hand-computed means.
        assert by_imputer["a"]["mae"] == pytest.approx((0.1 + 0.3 + 0.5) / 3)
        assert by_imputer["b"]["mae"] == pytest.approx((0.2 + 0.6 + 0.7) / 3)

    def test_grand_mean_over_scenarios(self):
        records = [rec("d", "m", s, v) for s, v in zip("abcd", (0.1, 0.2, 0.3, 0.8))]
        lvl1 = aggregate(records, ("dataset", "imputer_id", "scenario_label"))
        lvl2 = aggregate(lvl1, ("dataset", "imputer_id"))
        assert lvl2[0]["mae"] == pytest.approx(0.35)

    def test_wql_means(self):
        records = [rec("d", "m", "s", 0.1, wql_value=0.2), rec("d", "m", "s", 0.3, wql_value=0.4)]
        rows = aggregate(records, ("imputer_id",))
        assert rows[0]["wql"] == pytest.approx(0.3)

    def test_empty_input(self):
        assert aggregate([], ("dataset",)) == []

    @pytest.mark.parametrize("group_by", [("dataset", "imputer_id", "scenario_label"), ("imputer_id",)])
    def test_records_and_their_dicts_aggregate_alike(self, group_by):
        records = [
            rec("d1", "a", "s1", 0.1, wql_value=0.4),
            rec("d1", "a", "s1", 0.3),
            rec("d1", "b", "s2", 0.2, wql_value=0.1),
            rec("d2", "a", "s1", 0.5),
        ]
        rows = aggregate(records, group_by)
        assert aggregate([asdict(r) for r in records], group_by) == rows
        assert [r["wql"] for r in aggregate(records, ("dataset",))] == [pytest.approx(0.25), None]


class TestAverageRanks:
    def test_two_imputers_single_task(self):
        records = [rec("d", "A", "s", 0.1), rec("d", "B", "s", 0.2)]
        assert average_ranks(records) == {"A": 1.0, "B": 2.0}

    def test_tied_ranks(self):
        records = [rec("d", "A", "s", 0.1), rec("d", "B", "s", 0.1), rec("d", "C", "s", 0.3)]
        assert average_ranks(records) == {"A": 1.5, "B": 1.5, "C": 3.0}

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(4)
        records = []
        tasks = {}
        for d in range(5):
            for s in ("s1", "s2"):
                scores = {}
                for m in ("a", "b", "c", "e"):
                    v = float(np.round(rng.uniform(), 3))
                    scores[m] = v
                    records.append(rec(f"d{d}", m, s, v))
                tasks[(f"d{d}", s)] = scores
        assert average_ranks(records) == pytest.approx(ranks_oracle(tasks))

    def test_incomplete_matrix_rejected(self):
        records = [rec("d", "A", "s", 0.1), rec("d", "B", "s", 0.2), rec("d2", "A", "s", 0.3)]
        with pytest.raises(ValueError, match="incomplete score matrix"):
            average_ranks(records)

    def test_mean_rank_identity(self):
        rng = np.random.default_rng(5)
        records = [
            rec(f"d{d}", m, s, float(rng.uniform()))
            for d in range(7)
            for s in ("s1", "s2", "s3")
            for m in ("a", "b", "c", "e", "f")
        ]
        ranks = average_ranks(records)
        assert np.mean(list(ranks.values())) == pytest.approx(3.0, abs=1e-12)

    def test_rank_by_wql(self):
        records = [
            rec("d", "A", "s", 0.9, wql_value=0.1),
            rec("d", "B", "s", 0.1, wql_value=0.9),
        ]
        assert average_ranks(records, metric="wql") == {"A": 1.0, "B": 2.0}
        with pytest.raises(ValueError, match="incomplete score matrix"):
            average_ranks([rec("d", "A", "s", 0.9)], metric="wql")

    @pytest.mark.parametrize(
        "values",
        [
            [0.3, 0.1, 0.2],
            [0.5],
            [2.0, 2.0, 2.0],
            [0.1, 0.3, 0.1, 0.2, 0.3, 0.3],
            [1e-300, 0.0, 1e-300, -0.0],
        ],
    )
    def test_mid_ranks_match_scipy(self, values):
        np.testing.assert_array_equal(_mid_ranks(np.array(values)), rankdata(values, method="average"))

    @given(values=st.lists(st.integers(0, 4), min_size=1, max_size=9))
    @settings(max_examples=60)
    def test_mid_ranks_match_scipy_with_ties(self, values):
        values = np.array(values, dtype=float) / 7
        np.testing.assert_array_equal(_mid_ranks(values), rankdata(values, method="average"))


def fresh_python(code: str, *args: str) -> str:
    """What ``code`` prints in a fresh interpreter that imports this tixbench."""
    src = str(Path(tixbench.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return out.stdout


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes most of a second to import and nothing in a run needs it.
    assert fresh_python("import sys, tixbench; print('scipy.stats' in sys.modules)") == "False\n"


def test_point_only_config_leaves_scipy_and_the_pool_unloaded():
    # scipy is most of the import time and no imputer needs it; a serial run
    # needs no process pool.
    demo = Path(__file__).resolve().parents[1] / "configs" / "demo.yaml"
    code = (
        "import sys, tixbench; from tixbench.harness import load_config; load_config(sys.argv[1]); "
        "print([m for m in ('scipy', 'concurrent.futures.process') if m in sys.modules])"
    )
    assert fresh_python(code, str(demo)) == "[]\n"


def test_quantile_config_leaves_scipy_unloaded():
    # The quantile heads solve on numpy alone, so building them loads no scipy.
    code = (
        "import sys; from tixbench.harness import config_from_dict; "
        "config_from_dict({'datasets': [{'id': 'd', 'path': 'd.csv', 'steps_per_day': 24}], "
        "'imputers': [{'id': 'linear'}, {'id': 'tix_fourier_q'}, {'id': 'tix_random_basis_q'}]}); "
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
    )
    assert fresh_python(code) == "[]\n"


class TestZnormMaeStack:
    @settings(max_examples=100, derandomize=True, database=None)
    @given(
        rows=st.integers(1, 8),
        n=st.integers(1, 700),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-6, 1.0, 1e6, 1e90]),
        std=st.floats(1e-8, 1e8),
    )
    def test_stack_scores_each_row_as_alone_bit_for_bit(self, rows, n, seed, scale, std):
        rng = np.random.default_rng(seed)
        truth = scale * rng.normal(size=n)
        stack = truth + scale * rng.normal(size=(rows, n)) * rng.random((rows, 1))
        scores = znorm_mae(truth, stack, std)
        assert type(scores) is list and len(scores) == rows
        alone = [znorm_mae(truth, row, std) for row in stack]
        assert all(type(s) is float for s in alone)
        assert [s.hex() for s in scores] == [s.hex() for s in alone]

    def test_a_stack_of_another_length_is_a_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            znorm_mae([1.0, 2.0], [[1.0, 2.0, 3.0]], 1.0)
        with pytest.raises(ValueError, match="length mismatch"):
            znorm_mae([1.0, 2.0], np.zeros((1, 1, 2)), 1.0)
