from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import two_pass_mean_std
from tixbench import FrequencySpec, Segment, TimeSeries, chrono_split, extract_segments, floored_std
from conftest import HOURLY, make_segment
from tixbench.core import whole_number


def make_series(n, freq=HOURLY, obs=None, covariates=None, seed=0):
    rng = np.random.default_rng(seed)
    return TimeSeries(
        id="s",
        values=rng.normal(size=n),
        obs_mask=np.ones(n, dtype=bool) if obs is None else np.asarray(obs, dtype=bool),
        freq=freq,
        covariates=covariates or {},
    )


class TestWholeNumber:
    def test_integers_and_integral_floats_become_ints(self):
        counts = [whole_number(v, "n", least=1) for v in (24, 24.0, np.int64(24), np.float64(24.0), 10**400)]
        assert counts == [24, 24, 24, 24, 10**400]
        assert {type(c) for c in counts} == {int}

    @pytest.mark.parametrize("value", [True, 2.5, float("nan"), float("inf"), "3", None, [3], 0, -1.0])
    def test_anything_else_names_the_value(self, value):
        with pytest.raises(ValueError, match=r"^n must be a whole number >= 1, got "):
            whole_number(value, "n", least=1)

    @pytest.mark.parametrize("value", [5, 5.0, 10**400, float("inf")], ids=["int", "float", "huge_int", "inf"])
    def test_most_bounds_from_above(self, value):
        assert whole_number(4.0, "n", least=1, most=4) == 4
        with pytest.raises(ValueError, match=r"^n must be a whole number >= 1 and <= 4, got "):
            whole_number(value, "n", least=1, most=4)

    def test_no_least_admits_negatives(self):
        assert whole_number(-3, "n") == -3
        with pytest.raises(ValueError, match=r"^n must be a whole number, got 0.5$"):
            whole_number(0.5, "n")


class TestFrequencySpec:
    def test_weekly_derived(self):
        assert FrequencySpec(24).steps_per_week == 168
        assert FrequencySpec(48).steps_per_week == 7 * 48

    def test_seasonal_default_is_daily(self):
        assert FrequencySpec(96).seasonal_period == 96


class TestTimeSeries:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="obs_mask must match values in length"):
            TimeSeries("x", [0.0, 0.0], [True] * 3, HOURLY)

    def test_covariate_length_checked(self):
        with pytest.raises(ValueError):
            make_series(5, covariates={"c": np.zeros(4)})

    def test_window_shares_arrays_and_records_its_offset(self):
        series = make_series(10, covariates={"c": np.arange(10.0)})
        part = series.window(3, 7)
        assert (part.id, part.start, len(part)) == ("s", 3, 4)
        assert np.shares_memory(part.values, series.values)
        assert np.array_equal(part.covariates["c"], [3.0, 4.0, 5.0, 6.0])


class TestSegment:
    def test_eval_mask_defaults_to_all_false(self):
        segment = Segment("x", [1.0, 2.0], [True, True], HOURLY)
        assert segment.eval_mask.tolist() == [False, False]
        assert segment.start == 0 and len(segment) == 2

    def test_overlapping_masks_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            make_segment([1.0, 2.0], [True, True], eval_mask=[False, True])

    def test_eval_mask_length_checked(self):
        with pytest.raises(ValueError, match="eval_mask must match values in length"):
            make_segment([1.0, 2.0], [True, False], eval_mask=[False, True, False])


class TestChronoSplit:
    @pytest.mark.parametrize(
        "n,fractions,expected",
        [
            (10, (0.7, 0.1, 0.2), (7, 1, 2)),
            (100, (0.7, 0.1, 0.2), (70, 10, 20)),
            (9, (1 / 3, 1 / 3, 1 / 3), (3, 3, 3)),
        ],
    )
    def test_lengths(self, n, fractions, expected):
        parts = chrono_split(make_series(n), fractions)
        assert tuple(len(p) for p in parts) == expected

    def test_too_short(self):
        with pytest.raises(ValueError, match="series too short to split"):
            chrono_split(make_series(2), (0.7, 0.1, 0.2))

    def test_bad_fractions(self):
        with pytest.raises(ValueError):
            chrono_split(make_series(10), (0.5, 0.1, 0.2))
        with pytest.raises(ValueError):
            chrono_split(make_series(10), (-0.1, 0.9, 0.2))

    @given(
        n=st.integers(3, 300),
        f1=st.floats(0.05, 0.9),
        f2=st.floats(0.05, 0.9),
    )
    @settings(max_examples=60)
    def test_concat_reproduces_input(self, n, f1, f2):
        total = f1 + f2
        if total >= 0.95:
            f1, f2 = 0.9 * f1 / total, 0.9 * f2 / total
        fractions = (f1, f2, 1.0 - f1 - f2)
        series = make_series(n, covariates={"c": np.arange(float(n))})
        obs = np.random.default_rng(n).random(n) < 0.8
        obs[0] = True
        series = TimeSeries("s", series.values, obs, HOURLY, series.covariates)
        a, b, c = chrono_split(series, fractions)
        assert np.array_equal(np.concatenate([a.values, b.values, c.values]), series.values)
        assert np.array_equal(np.concatenate([a.obs_mask, b.obs_mask, c.obs_mask]), series.obs_mask)
        assert (a.start, b.start, c.start) == (0, len(a), len(a) + len(b))
        assert np.array_equal(
            np.concatenate([a.covariates["c"], b.covariates["c"], c.covariates["c"]]),
            series.covariates["c"],
        )


class TestExtractSegments:
    def test_single_window(self):
        segs = extract_segments(make_series(672), seg_len_days=28)
        assert [s.start for s in segs] == [0]
        assert len(segs[0]) == 672

    def test_fixed_stride(self):
        series = make_series(1344)
        segs = extract_segments(series, 28, 2.0, 2.0, seed=0)
        starts = [s.start for s in segs]
        assert starts == [s for s in range(0, 1344, 48) if s + 672 <= 1344]
        # Each segment carries its offset in the series and the series id.
        for segment in segs:
            assert segment.id == series.id
            assert np.array_equal(segment.values, series.values[segment.start : segment.start + 672])

    def test_seeded_reproducibility(self):
        series = make_series(2000)
        a = [s.start for s in extract_segments(series, 28, 0.5, 2.0, seed=7)]
        b = [s.start for s in extract_segments(series, 28, 0.5, 2.0, seed=7)]
        assert a == b
        c = [s.start for s in extract_segments(series, 28, 0.5, 2.0, seed=8)]
        assert a != c

    def test_too_short_gives_empty(self):
        assert extract_segments(make_series(100), seg_len_days=28) == []

    def test_fully_missing_window_skipped(self):
        obs = np.ones(1344, dtype=bool)
        obs[:672] = False
        segs = extract_segments(make_series(1344, obs=obs), 28, 28.0, 28.0, seed=0)
        assert [s.start for s in segs] == [672]

    def test_eval_mask_starts_empty(self):
        segs = extract_segments(make_series(672))
        assert not segs[0].eval_mask.any()

    def test_tiny_stride_still_advances(self):
        # round(u * steps_per_day) can hit 0; the window must still move.
        segs = extract_segments(make_series(700), 28, 0.001, 0.001, seed=0)
        starts = [s.start for s in segs]
        assert starts == list(range(0, 700 - 672 + 1))


class TestZnormStats:
    def test_constant_series_floored(self):
        assert floored_std([1.0, 1.0, 1.0]) == 1e-8

    def test_two_points(self):
        assert floored_std([0.0, 2.0]) == 1.0

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(size=100)
        _, std = two_pass_mean_std(values)
        assert floored_std(values) == pytest.approx(std, abs=1e-12)

    def test_ignores_hidden_values(self):
        obs = np.array([True, False, True, False, True])
        a = make_segment([1.0, 99.0, 2.0, -99.0, 3.0], obs)
        b = make_segment([1.0, 0.0, 2.0, 0.0, 3.0], obs)
        assert floored_std(a.values[a.obs_mask]) == floored_std(b.values[b.obs_mask])


def test_segment_requires_visible_point():
    with pytest.raises(ValueError, match="no observed positions"):
        make_segment([1.0, 2.0], [False, False])
