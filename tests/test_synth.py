from __future__ import annotations

import numpy as np
import pytest

from tixbench import Component, FrequencySpec, SynthSpec, generate
from conftest import HOURLY


def spec_of(*components, length_days=28, seed=0, freq=HOURLY):
    return SynthSpec(length_days=length_days, freq=freq, components=tuple(components), seed=seed)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize(
    "kind, field",
    [("sine", "amplitude"), ("sine", "period_ticks"), ("noise", "noise_std"), ("covariate_linear", "covariate_gain")],
)
def test_component_refuses_a_non_finite_value(kind, field, value):
    # A NaN or infinite value would make every value of the series non-finite, yet observed.
    given = {"period_ticks": 24.0, "noise_std": 0.1, "covariate_gain": 0.8, field: value}
    with pytest.raises(ValueError, match=f"^{field} must be finite, got {value!r}$"):
        Component(kind, **given)


class TestGenerate:
    def test_sine_starts_at_zero(self):
        series = generate(spec_of(Component("sine", amplitude=1.0, period_ticks=24)))
        assert series.values[0] == 0.0
        assert series.values[6] == pytest.approx(1.0)

    def test_trend_is_exact(self):
        series = generate(spec_of(Component("trend", amplitude=0.25)))
        n = len(series)
        np.testing.assert_array_equal(series.values, 0.25 * np.arange(n))

    def test_zero_noise_contributes_nothing(self):
        quiet = generate(spec_of(Component("sine", amplitude=1, period_ticks=24), Component("noise", noise_std=0.0)))
        pure = generate(spec_of(Component("sine", amplitude=1, period_ticks=24)))
        np.testing.assert_array_equal(quiet.values, pure.values)

    def test_bitwise_reproducible(self):
        spec = spec_of(
            Component("sine", amplitude=2.0, period_ticks=168),
            Component("noise", noise_std=0.5),
            Component("covariate_linear", covariate_gain=0.8),
            seed=42,
        )
        a, b = generate(spec), generate(spec)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.covariates["cov1"], b.covariates["cov1"])

    def test_covariate_channel_emitted(self):
        series = generate(spec_of(Component("covariate_linear", covariate_gain=0.8)))
        assert set(series.covariates) == {"cov1"}
        np.testing.assert_allclose(series.values, 0.8 * series.covariates["cov1"], atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_covariate_path_matches_a_per_tick_reference(self, seed):
        series = generate(spec_of(Component("covariate_linear", covariate_gain=0.8), seed=seed))
        # The AR(1) recursion written out tick by tick, then standardized.
        rng = np.random.default_rng([seed, 0])
        phi = float(np.exp(-2.0 / 24))
        innov = rng.normal(0.0, 1.0, size=len(series))
        path = np.empty(len(series))
        acc = 0.0
        for i in range(len(series)):
            acc = phi * acc + np.sqrt(1.0 - phi * phi) * innov[i]
            path[i] = acc
        path = (path - path.mean()) / path.std()
        assert np.array_equal(series.covariates["cov1"], path)
        assert np.array_equal(series.values, 0.8 * path)

    def test_fully_observed(self):
        series = generate(spec_of(Component("trend", amplitude=1.0)))
        assert series.obs_mask.all()

    def test_validation(self):
        with pytest.raises(ValueError):
            spec_of(Component("sine", period_ticks=24), length_days=10)
        with pytest.raises(ValueError):
            SynthSpec(length_days=28, freq=HOURLY, components=(), seed=0)
        with pytest.raises(ValueError):
            Component("sine")
        with pytest.raises(ValueError):
            Component("noise")
        with pytest.raises(ValueError):
            Component("warp")


def test_noise_free_series_lies_in_feature_span():
    # Daily + weekly sinusoids plus trend: the time-indexed imputer must
    # recover held-out values to numerical precision.
    from tixbench import Scenario, apply_scenario, extract_segments, impute_time_indexed

    spec = spec_of(
        Component("sine", amplitude=1.5, period_ticks=24),
        Component("sine", amplitude=0.6, period_ticks=168),
        Component("trend", amplitude=0.001),
        length_days=28,
    )
    series = generate(spec)
    seg = extract_segments(series, 28, 1, 1, seed=0)[0]
    for scenario in (Scenario("pointwise", 0.5, "p1"), Scenario("blocks", 4, "b2")):
        masked = apply_scenario(seg, scenario, seed=3)
        out = impute_time_indexed([masked], lam=1e-8)[0]
        truth = masked.values[masked.eval_mask]
        assert np.mean(np.abs(out.point - truth)) < 1e-6
