from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tixbench import (
    FeatureSpec,
    FrequencySpec,
    handcrafted_features,
    random_fourier_basis,
    ridge_fit,
    predict,
    stack_covariates,
)
from tixbench.features import MAX_N_RANDOM
from conftest import HOURLY


class TestHandcrafted:
    def test_first_row(self):
        fm = handcrafted_features(np.arange(672), HOURLY)
        assert fm.shape[1] == 5
        np.testing.assert_allclose(fm[0], [0.0, 0.0, 1.0, 0.0, 1.0], atol=1e-15)

    def test_one_day_later(self):
        fm = handcrafted_features(np.arange(672), HOURLY)
        row = fm[24]
        assert abs(row[1]) < 1e-12 and row[2] == pytest.approx(1.0, abs=1e-12)
        assert row[3] == pytest.approx(np.sin(2 * np.pi / 7), abs=1e-12)
        assert row[4] == pytest.approx(np.cos(2 * np.pi / 7), abs=1e-12)

    def test_week_shift_repeats_fourier_entries(self):
        fm = handcrafted_features(np.arange(2 * 168), HOURLY)
        np.testing.assert_allclose(fm[:168, 1:], fm[168:, 1:], atol=1e-12)

    @given(n=st.integers(2, 500))
    @settings(max_examples=40)
    def test_bounds(self, n):
        fm = handcrafted_features(np.arange(n), HOURLY)
        assert np.all(fm[:, 0] >= 0.0) and np.all(fm[:, 0] <= 1.0)
        assert np.all(np.abs(fm[:, 1:]) <= 1.0 + 1e-15)
        assert fm[0, 0] == 0.0 and fm[-1, 0] == 1.0

    def test_degenerate_segment(self):
        with pytest.raises(ValueError, match="degenerate segment"):
            handcrafted_features([5], HOURLY)

    def test_custom_periods(self):
        fm = handcrafted_features(np.arange(100), HOURLY, periods=(12.0,))
        assert fm.shape[1] == 3

    def test_thirty_minute_grid(self):
        freq = FrequencySpec(steps_per_day=48)
        fm = handcrafted_features(np.arange(400), freq)
        assert abs(fm[48, 1]) < 1e-12
        assert fm[48, 2] == pytest.approx(1.0, abs=1e-12)


class TestRandomFourier:
    def test_dim_is_one_plus_two_k(self):
        spec = FeatureSpec(kind="random_fourier", n_random=1, seed=0)
        fm = random_fourier_basis(np.arange(100), spec)
        assert fm.shape[1] == 3

    def test_zero_components_rejected(self):
        with pytest.raises(ValueError):
            FeatureSpec(kind="random_fourier", n_random=0)

    def test_width_bounded_by_max_n_random(self):
        assert FeatureSpec(kind="random_fourier", n_random=MAX_N_RANDOM).n_random == 1024
        with pytest.raises(ValueError, match=r"^n_random must be a whole number >= 1 and <= 1024, got 1025$"):
            FeatureSpec(kind="random_fourier", n_random=MAX_N_RANDOM + 1)

    def test_deterministic_per_spec(self):
        spec = FeatureSpec(kind="random_fourier", n_random=8, seed=13)
        a = random_fourier_basis(np.arange(300), spec)
        b = random_fourier_basis(np.arange(300), spec)
        assert np.array_equal(a, b)

    def test_same_basis_functions_across_segments(self):
        # Same spec on two segment lengths: identical functions of t_norm.
        spec = FeatureSpec(kind="random_fourier", n_random=4, seed=5)
        short = random_fourier_basis(np.arange(101), spec)
        long = random_fourier_basis(np.arange(201), spec)
        np.testing.assert_allclose(short[50], long[100], atol=1e-12)

    @pytest.mark.parametrize("target_freq", [3.3, 7.9])
    def test_low_frequency_in_band_fit(self, target_freq):
        # Smooth in-band targets are recovered by the downstream ridge fit.
        # At high in-band frequencies 64 random components are too sparse for
        # this (near-orthogonality of distant sinusoids), so the guarantee is
        # pinned where it holds.
        spec = FeatureSpec(kind="random_fourier", n_random=64, freq_range=(0.5, 400.0), seed=1)
        t = np.arange(672)
        fm = random_fourier_basis(t, spec)
        y = np.sin(2 * np.pi * target_freq * fm[:, 0])
        model = ridge_fit(fm, y, lam=1e-10)
        resid = predict(model, fm) - y
        assert np.mean(np.abs(resid)) < 1e-3

    def test_in_span_target_fit(self):
        spec = FeatureSpec(kind="random_fourier", n_random=64, freq_range=(0.5, 400.0), seed=3)
        t = np.arange(672)
        fm = random_fourier_basis(t, spec)
        y = 0.5 * fm[:, 21] - 1.25 * fm[:, 22] + 0.1
        model = ridge_fit(fm, y, lam=1e-10)
        assert np.mean(np.abs(predict(model, fm) - y)) < 1e-6


class TestBasisColumns:
    """Both bases against their per-column formulas, bit for bit."""

    def test_handcrafted(self):
        ticks = np.arange(30, 30 + 500)
        offsets = (ticks - 30).astype(float)
        periods = (24.0, 168.0, 7.5)
        expected = [offsets / 499]
        for p in periods:
            expected += [np.sin(2.0 * np.pi * offsets / p), np.cos(2.0 * np.pi * offsets / p)]
        np.testing.assert_array_equal(handcrafted_features(ticks, HOURLY, periods), np.column_stack(expected))

    def test_random_fourier(self):
        spec = FeatureSpec(kind="random_fourier", n_random=6, freq_range=(0.5, 60.0), seed=11)
        t_norm = np.arange(400) / 399
        rng = np.random.default_rng(11)
        freqs = np.exp(rng.uniform(np.log(0.5), np.log(60.0), size=6))
        phases = rng.uniform(0.0, 2.0 * np.pi, size=6)
        expected = [t_norm]
        for f, phi in zip(freqs, phases):
            expected += [np.sin(2.0 * np.pi * f * t_norm + phi), np.cos(2.0 * np.pi * f * t_norm + phi)]
        np.testing.assert_array_equal(random_fourier_basis(np.arange(400), spec), np.column_stack(expected))


class TestStackCovariates:
    def test_zero_channels_identity(self):
        fm = handcrafted_features(np.arange(100), HOURLY)
        assert stack_covariates(fm, {}) is fm

    def test_dim_grows_by_channel_count(self):
        fm = handcrafted_features(np.arange(100), HOURLY)
        out = stack_covariates(fm, {"a": np.arange(100.0)})
        assert out.shape[1] == 6

    def test_channels_appended_as_given(self):
        fm = handcrafted_features(np.arange(50), HOURLY)
        a = np.linspace(0, 1, 50)
        b = 1e3 + np.linspace(5, 6, 50) ** 2
        out = stack_covariates(fm, {"b": b, "a": a})
        np.testing.assert_array_equal(out, np.column_stack([fm, a, b]))

    def test_channel_order_is_sorted_names(self):
        fm = handcrafted_features(np.arange(50), HOURLY)
        a = np.linspace(0, 1, 50)
        b = np.linspace(5, 6, 50)
        out1 = stack_covariates(fm, {"b": b, "a": a})
        out2 = stack_covariates(fm, {"a": a, "b": b})
        assert np.array_equal(out1, out2)

    def test_missing_covariate_rejected(self):
        fm = handcrafted_features(np.arange(10), HOURLY)
        ch = np.arange(10.0)
        ch[3] = np.nan
        with pytest.raises(ValueError, match="covariate not fully observed"):
            stack_covariates(fm, {"a": ch})

    def test_covariate_carries_signal_fourier_cannot(self):
        # Target exactly 2*cov + 1 with day-long gaps: stacking the covariate
        # makes the fit exact while the univariate basis stays far off.
        from tixbench import Scenario, apply_scenario, floored_std, impute_time_indexed, znorm_mae
        from conftest import make_segment

        rng = np.random.default_rng(0)
        n = 672
        steps = np.cumsum(rng.normal(size=n))
        cov = (steps - steps.mean()) / steps.std()
        values = 2.0 * cov + 1.0
        seg = make_segment(values, np.ones(n, dtype=bool), covariates={"c": cov})
        masked = apply_scenario(seg, Scenario("blocks", 4, "b4"), seed=2)
        truth = masked.values[masked.eval_mask]

        with_cov = impute_time_indexed([masked], lam=1e-9, use_covariates=True)[0]
        without = impute_time_indexed([masked], lam=1e-9, use_covariates=False)[0]
        assert np.mean(np.abs(with_cov.point - truth)) < 1e-9
        assert znorm_mae(truth, without.point, floored_std(masked.values[masked.obs_mask])) > 0.1

    def test_leakage_free(self):
        # Features depend on timestamps and spec only, never on target values.
        fm1 = handcrafted_features(np.arange(64), HOURLY)
        fm2 = handcrafted_features(np.arange(64), HOURLY)
        assert np.array_equal(fm1, fm2)
