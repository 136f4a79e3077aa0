from __future__ import annotations

import inspect
from dataclasses import replace

import numpy as np
import pytest

from oracles import linear_interp_oracle, locf_oracle, seasonal_oracle
from tixbench import (
    DEFAULT_SCENARIOS,
    FeatureSpec,
    FrequencySpec,
    Scenario,
    apply_scenario,
    floored_std,
    handcrafted_features,
    impute_covariate_ridge,
    impute_linear,
    impute_locf,
    impute_seasonal_naive,
    impute_time_indexed,
    make_imputer,
    predict,
    random_fourier_basis,
    ridge_fit,
    znorm_mae,
)
from tixbench import imputers
from tixbench.imputers import _time_basis
from conftest import make_segment


def seg_with_evals(values, obs, evals):
    n = len(values)
    obs_mask = np.zeros(n, dtype=bool)
    obs_mask[list(obs)] = True
    eval_mask = np.zeros(n, dtype=bool)
    eval_mask[list(evals)] = True
    return make_segment(values, obs_mask, eval_mask)


class TestLinear:
    def test_midpoint(self):
        seg = seg_with_evals([0.0, 123.0, 2.0], obs=[0, 2], evals=[1])
        assert impute_linear(seg).point[0] == pytest.approx(1.0)

    def test_leading_gap_nocb(self):
        seg = seg_with_evals([0.0, 5.0, 6.0], obs=[1, 2], evals=[0])
        assert impute_linear(seg).point[0] == 5.0

    def test_trailing_gap_locf(self):
        seg = seg_with_evals([1.0, 3.0, 0.0], obs=[0, 1], evals=[2])
        assert impute_linear(seg).point[0] == 3.0

    def test_matches_oracle_on_random_segments(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = rng.integers(2, 40)
            values = rng.normal(size=n)
            roles = rng.integers(0, 3, size=n)  # 0 visible, 1 eval, 2 missing
            roles[rng.integers(0, n)] = 0
            seg = seg_with_evals(values, np.flatnonzero(roles == 0), np.flatnonzero(roles == 1))
            evals = np.flatnonzero(roles == 1)
            expected = linear_interp_oracle(values, roles == 0, evals)
            np.testing.assert_allclose(impute_linear(seg).point, expected, atol=1e-12)


class TestLocf:
    def test_carry_forward(self):
        seg = seg_with_evals([1.0, 0.0, 0.0], obs=[0], evals=[1, 2])
        np.testing.assert_array_equal(impute_locf(seg).point, [1.0, 1.0])

    def test_leading_nocb_initialization(self):
        seg = seg_with_evals([0.0, 7.0, 8.0], obs=[1, 2], evals=[0])
        assert impute_locf(seg).point[0] == 7.0

    def test_alternating_pattern(self):
        values = np.arange(10.0)
        seg = seg_with_evals(values, obs=range(0, 10, 2), evals=range(1, 10, 2))
        np.testing.assert_array_equal(impute_locf(seg).point, values[range(0, 10, 2)])

    def test_matches_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            n = rng.integers(2, 40)
            values = rng.normal(size=n)
            roles = rng.integers(0, 3, size=n)
            roles[rng.integers(0, n)] = 0
            seg = seg_with_evals(values, np.flatnonzero(roles == 0), np.flatnonzero(roles == 1))
            expected = locf_oracle(values, roles == 0, np.flatnonzero(roles == 1))
            np.testing.assert_array_equal(impute_locf(seg).point, expected)


class TestSeasonalNaive:
    def test_one_season_back(self):
        seg = seg_with_evals([1.0, 9.0, 0.0], obs=[0, 1], evals=[2])
        assert impute_seasonal_naive(seg, season=2).point[0] == 1.0

    def test_forward_probe_when_past_missing(self):
        # t=2, S=2: t-S hidden, t+S visible with value 4.
        seg = seg_with_evals([0.0, 1.0, 0.0, 2.0, 4.0, 3.0], obs=[1, 3, 4, 5], evals=[0, 2])
        out = impute_seasonal_naive(seg, season=2)
        assert out.point[1] == 4.0

    def test_locf_fallback_when_all_probes_fail(self):
        seg = seg_with_evals([5.0, 0.0, 0.0, 0.0], obs=[0], evals=[2])
        assert impute_seasonal_naive(seg, season=7).point[0] == 5.0

    def test_matches_oracle_exhaustively_small(self):
        rng = np.random.default_rng(2)
        for n in range(2, 9):
            for mask_bits in range(1, 2**n):
                obs = [(mask_bits >> i) & 1 == 1 for i in range(n)]
                if not any(obs):
                    continue
                values = rng.normal(size=n)
                evals = [i for i in range(n) if not obs[i]]
                seg = seg_with_evals(values, np.flatnonzero(obs), evals)
                for S in (1, 2, 3):
                    got = impute_seasonal_naive(seg, season=S).point
                    expected = seasonal_oracle(values, np.array(obs), evals, S)
                    np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("season", [24, 168])
    @pytest.mark.parametrize("scenario", [Scenario("pointwise", 0.7, "p"), Scenario("blocks", 4, "b")])
    def test_matches_oracle_at_segment_scale(self, season, scenario):
        rng = np.random.default_rng(season)
        seg = apply_scenario(make_segment(rng.normal(size=672), rng.random(672) < 0.99), scenario, seed=3)
        evals = np.flatnonzero(seg.eval_mask)
        np.testing.assert_array_equal(
            impute_seasonal_naive(seg, season=season).point,
            seasonal_oracle(seg.values, seg.obs_mask, evals, season),
        )

    def test_default_season_from_freq(self):
        values = np.arange(72.0)
        obs = [i for i in range(72) if i != 26]
        seg = seg_with_evals(values, obs=obs, evals=[26])
        got = impute_seasonal_naive(seg)
        assert got.point[0] == values[26 - 24]


class TestTimeIndexed:
    def test_recovers_in_span_sinusoid(self):
        t = np.arange(672)
        values = np.sin(2 * np.pi * t / 24)
        seg = make_segment(values, np.ones(672, dtype=bool))
        masked = apply_scenario(seg, Scenario("pointwise", 0.5, "p1"), seed=0)
        out = impute_time_indexed([masked], lam=1e-8)[0]
        truth = masked.values[masked.eval_mask]
        assert np.mean(np.abs(out.point - truth)) < 1e-6

    def test_constant_series(self):
        seg = make_segment(np.full(672, 3.25), np.ones(672, dtype=bool))
        for scenario in (Scenario("pointwise", 0.7, "p2"), Scenario("blocks", 4, "b2")):
            masked = apply_scenario(seg, scenario, seed=1)
            out = impute_time_indexed([masked])[0]
            np.testing.assert_allclose(out.point, 3.25, atol=1e-9)

    def test_covariate_driven_target(self):
        rng = np.random.default_rng(3)
        walk = np.cumsum(rng.normal(size=672))
        cov = (walk - walk.mean()) / walk.std()
        values = 3.0 * cov - 1.0
        seg = make_segment(values, np.ones(672, dtype=bool), covariates={"c": cov})
        masked = apply_scenario(seg, Scenario("blocks", 4, "b2"), seed=4)
        truth = masked.values[masked.eval_mask]
        with_cov = impute_time_indexed([masked], lam=1e-9, use_covariates=True)[0]
        without = impute_time_indexed([masked], lam=1e-9, use_covariates=False)[0]
        assert np.mean(np.abs(with_cov.point - truth)) < 1e-9
        assert znorm_mae(truth, without.point, floored_std(masked.values[masked.obs_mask])) > 0.1

    def test_quantile_variant_noncrossing(self):
        rng = np.random.default_rng(5)
        t = np.arange(672)
        values = np.sin(2 * np.pi * t / 24) + rng.normal(0, 0.3, 672)
        seg = make_segment(values, np.ones(672, dtype=bool))
        masked = apply_scenario(seg, Scenario("pointwise", 0.5, "p1"), seed=6)
        out = impute_time_indexed([masked], quantile_levels=(0.1, 0.5, 0.9))[0]
        assert out.quantiles is not None
        assert np.all(out.quantiles[0.1] <= out.quantiles[0.5])
        assert np.all(out.quantiles[0.5] <= out.quantiles[0.9])

    @pytest.mark.parametrize("imputer_id", ["tix_fourier_q", "tix_random_basis_q"])
    @pytest.mark.parametrize("lam", [0.0, 1e-3, 10.0])
    def test_one_visible_value_is_every_prediction(self, imputer_id, lam):
        # A single visible value is a usable context: the point and every
        # quantile head predict that value.
        seg = seg_with_evals([-4.0, 9.0, 1.5, 7.0], obs=[2], evals=[0, 1, 3])
        out = make_imputer(imputer_id, lam=lam)([seg])[0]
        np.testing.assert_allclose(out.point, 1.5, rtol=0, atol=1e-12)
        assert len(out.quantiles) == 9
        for predictions in out.quantiles.values():
            np.testing.assert_allclose(predictions, 1.5, rtol=0, atol=1e-12)

    def test_random_basis_variant(self):
        t = np.arange(672)
        seg = make_segment(np.sin(2 * np.pi * 3 * t / 671), np.ones(672, dtype=bool))
        masked = apply_scenario(seg, Scenario("pointwise", 0.5, "p1"), seed=7)
        spec = FeatureSpec(kind="random_fourier", n_random=64, basis_seed=0)
        out = impute_time_indexed([masked], fspec=spec, lam=1e-8)[0]
        truth = masked.values[masked.eval_mask]
        assert znorm_mae(truth, out.point, floored_std(masked.values[masked.obs_mask])) < 1e-3


class TestTimeBasisCache:
    HOURLY = FrequencySpec(24)
    RANDOM = FeatureSpec(kind="random_fourier", n_random=8, basis_seed=3)

    def test_rows_equal_a_fresh_build(self):
        ticks = np.arange(672)
        np.testing.assert_array_equal(
            _time_basis(672, self.HOURLY, FeatureSpec())[0], handcrafted_features(ticks, self.HOURLY)
        )
        np.testing.assert_array_equal(
            _time_basis(672, self.HOURLY, self.RANDOM)[0], random_fourier_basis(ticks, self.RANDOM)
        )

    def test_gram_is_that_of_the_rows(self):
        X, (centre, centred, G) = _time_basis(672, self.HOURLY, self.RANDOM)
        np.testing.assert_array_equal(centre, X.mean(axis=0))
        np.testing.assert_array_equal(centred, X - X.mean(axis=0))
        np.testing.assert_allclose(G, centred.T @ centred, rtol=1e-13, atol=1e-13 * np.abs(G).max())

    def test_rows_are_read_only(self):
        X, gram = _time_basis(672, self.HOURLY, FeatureSpec())
        for array in (X, *gram):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_one_entry_per_length_and_spec(self):
        built = _time_basis(672, self.HOURLY, FeatureSpec())
        assert _time_basis(672, self.HOURLY, FeatureSpec()) is built
        assert _time_basis(336, self.HOURLY, FeatureSpec())[0].shape == (336, 5)
        assert _time_basis(672, self.HOURLY, FeatureSpec(periods=[12.0])) is not built
        assert _time_basis(672, self.HOURLY, self.RANDOM)[0].shape == (672, 17)


class TestCovariateRidge:
    def test_exact_linear_relation(self):
        rng = np.random.default_rng(8)
        cov = rng.normal(size=400)
        seg = make_segment(2.0 * cov, np.ones(400, dtype=bool), covariates={"c": cov})
        masked = apply_scenario(seg, Scenario("pointwise", 0.5, "p1"), seed=9)
        out = impute_covariate_ridge([masked], lam=1e-10)[0]
        truth = masked.values[masked.eval_mask]
        assert np.mean(np.abs(out.point - truth)) < 1e-9

    def test_two_channel_difference(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=400)
        b = rng.normal(size=400)
        seg = make_segment(a - b, np.ones(400, dtype=bool), covariates={"a": a, "b": b})
        masked = apply_scenario(seg, Scenario("pointwise", 0.5, "p1"), seed=11)
        out = impute_covariate_ridge([masked], lam=1e-10)[0]
        truth = masked.values[masked.eval_mask]
        assert np.mean(np.abs(out.point - truth)) < 1e-9

    def test_uncorrelated_covariate_predicts_mean(self):
        # Monte Carlo: with a pure-noise covariate the fit collapses to the
        # visible mean, well within the mean estimator's sampling error.
        deviations = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = 300
            y = rng.normal(size=n)
            cov = rng.normal(size=n)
            seg = make_segment(y, np.ones(n, dtype=bool), covariates={"c": cov})
            masked = apply_scenario(seg, Scenario("pointwise", 0.5, "p1"), seed=seed)
            out = impute_covariate_ridge([masked], lam=1e-3)[0]
            vis_mean = masked.values[masked.obs_mask].mean()
            vis_std = masked.values[masked.obs_mask].std()
            n_vis = masked.obs_mask.sum()
            deviations.append(abs(out.point.mean() - vis_mean) <= 3 * vis_std / np.sqrt(n_vis))
        assert np.mean(deviations) >= 0.9

    @pytest.mark.parametrize(
        "names, lam",
        [
            (("a", "b"), 0.0),
            (("a", "b"), 1e-3),
            (("a", "b"), 10.0),
            (("a", "b", "b_copy"), 0.0),
        ],
    )
    def test_matches_raw_unit_ridge(self, names, lam, monkeypatch):
        # The fit in z-units on the channels as given equals ridge_fit on the
        # raw channels and the raw target. A duplicated channel at lam = 0
        # makes the normal matrix singular, so the exact lstsq path runs.
        rng = np.random.default_rng(20)
        n = 400
        channels = {"a": 50.0 + 8.0 * rng.normal(size=n), "b": rng.normal(size=n).cumsum()}
        channels["b_copy"] = channels["b"].copy()
        covariates = {name: channels[name] for name in names}
        values = 100.0 + 3.0 * channels["a"] - channels["b"] + rng.normal(size=n)
        seg = make_segment(values, np.ones(n, dtype=bool), covariates=covariates)
        masked = apply_scenario(seg, Scenario("pointwise", 0.5, "p1"), seed=21)
        X = np.column_stack([covariates[name] for name in sorted(covariates)])
        vis, evals = masked.obs_mask, masked.eval_mask
        expected = predict(ridge_fit(X[vis], masked.values[vis], lam), X[evals])

        lstsq_calls = []
        lstsq = np.linalg.lstsq

        def counted_lstsq(*args, **kwargs):
            lstsq_calls.append(args)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counted_lstsq)
        out = impute_covariate_ridge([masked], lam=lam)[0]
        np.testing.assert_allclose(out.point, expected, rtol=1e-9, atol=0)
        assert bool(lstsq_calls) == ("b_copy" in names)

    def test_requires_covariates(self):
        seg = make_segment(np.arange(48.0), np.ones(48, dtype=bool))
        with pytest.raises(ValueError, match="covariate required"):
            impute_covariate_ridge([seg])

    def test_covariate_gap_rejected(self):
        cov = np.arange(48.0)
        cov[3] = np.nan
        seg = seg_with_evals(np.arange(48.0), obs=range(0, 48, 2), evals=[1])
        seg = replace(seg, covariates={"c": cov})
        with pytest.raises(ValueError, match="covariate not fully observed"):
            impute_covariate_ridge([seg])


class TestContract:
    @pytest.mark.parametrize("imputer_id", ["linear", "locf", "seasonal_naive", "tix_fourier"])
    def test_output_length_and_finiteness(self, imputer_id):
        rng = np.random.default_rng(12)
        seg = make_segment(rng.normal(size=672), np.ones(672, dtype=bool))
        masked = apply_scenario(seg, Scenario("pointwise", 0.7, "p2"), seed=13)
        out = make_imputer(imputer_id)([masked])[0]
        assert len(out.point) == masked.eval_mask.sum()
        assert np.all(np.isfinite(out.point))

    @pytest.mark.parametrize("imputer_id", ["linear", "locf", "seasonal_naive", "tix_fourier"])
    def test_function_of_visible_data_only(self, imputer_id):
        rng = np.random.default_rng(14)
        seg = make_segment(rng.normal(size=672), np.ones(672, dtype=bool))
        masked = apply_scenario(seg, Scenario("blocks", 2, "b1"), seed=15)
        fn = make_imputer(imputer_id)
        before = fn([masked])[0].point
        tampered_values = masked.values.copy()
        tampered_values[~masked.obs_mask] = 1e6
        tampered = replace(masked, values=tampered_values)
        after = fn([tampered])[0].point
        assert np.array_equal(before, after)

    @pytest.mark.parametrize(
        "imputer_id", ["linear", "locf", "seasonal_naive", "tix_fourier", "tix_random_basis", "covar_ridge"]
    )
    def test_window_call_gives_each_segment_its_own_imputation(self, imputer_id):
        # The masked copies of one window go in together; each comes back as
        # its own call would impute it, in order.
        rng = np.random.default_rng(18)
        seg = make_segment(rng.normal(size=672), np.ones(672, dtype=bool), covariates={"c": rng.normal(size=672)})
        window = [apply_scenario(seg, scenario, seed=19) for scenario in DEFAULT_SCENARIOS]
        fn = make_imputer(imputer_id)
        together = fn(window)
        assert len(together) == len(window)
        for masked, out in zip(window, together):
            np.testing.assert_allclose(out.point, fn([masked])[0].point, rtol=0, atol=1e-12)

    def test_registry_ids(self):
        for imputer_id in ("linear", "locf", "seasonal_naive", "tix_fourier", "tix_random_basis"):
            assert callable(make_imputer(imputer_id))
        with pytest.raises(ValueError, match="unknown imputer"):
            make_imputer("nope")
        with pytest.raises(ValueError, match="unknown imputer"):
            make_imputer("linear_q")

    def test_quantile_registry_variant(self):
        rng = np.random.default_rng(16)
        seg = make_segment(rng.normal(size=672), np.ones(672, dtype=bool))
        masked = apply_scenario(seg, Scenario("pointwise", 0.5, "p1"), seed=17)
        out = make_imputer("tix_fourier_q", quantile_levels=[0.1, 0.9])([masked])[0]
        assert set(out.quantiles) == {0.1, 0.9}

    def test_crossing_quantiles_rejected_at_construction(self):
        from tixbench import Imputation

        with pytest.raises(ValueError, match="cross"):
            Imputation(
                point=np.array([1.0]),
                quantiles={0.1: np.array([2.0]), 0.9: np.array([1.0])},
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_quantiles_rejected_at_construction(self, bad):
        # A NaN compares false, so the crossing check alone would pass it.
        from tixbench import Imputation

        with pytest.raises(ValueError, match="^imputed values must be finite$"):
            Imputation(np.ones(2), {0.1: [bad, 1.0], 0.9: [2.0, 2.0]})

    @pytest.mark.parametrize("levels", [(1.5, -2), (0.0,), (1.0,), (np.nan,)], ids=["outside", "zero", "one", "nan"])
    def test_levels_outside_the_open_unit_interval_rejected_at_construction(self, levels):
        from tixbench import Imputation

        with pytest.raises(ValueError, match="^quantile levels must lie strictly between 0 and 1, got "):
            Imputation(np.ones(1), {a: [1.0 - i] for i, a in enumerate(levels)})


def test_params_table_matches_the_imputer_signatures():
    # The declared table of params each id takes cannot drift from the
    # keyword parameters of the function the id binds them to.
    def keywords(fn):
        return set(list(inspect.signature(fn).parameters)[1:])

    derived = {imputer_id: keywords(fn) for imputer_id, fn in imputers._LOCAL_IMPUTERS.items()}
    derived["covar_ridge"] = keywords(imputers.impute_covariate_ridge)
    for tix_id, (_, basis_keys) in imputers._TIX_BASES.items():
        derived[tix_id] = keywords(imputers.impute_time_indexed) - {"fspec", "quantile_levels"} | set(basis_keys)
        derived[f"{tix_id}_q"] = derived[tix_id] | {"quantile_levels"}
    assert imputers._PARAMS == derived
    tix_fourier = {"lam", "use_covariates", "periods"}
    tix_random_basis = {"lam", "use_covariates", "n_random", "freq_range", "basis_seed"}
    assert imputers._PARAMS == {
        "linear": set(),
        "locf": set(),
        "seasonal_naive": {"season"},
        "covar_ridge": {"lam"},
        "tix_fourier": tix_fourier,
        "tix_fourier_q": tix_fourier | {"quantile_levels"},
        "tix_random_basis": tix_random_basis,
        "tix_random_basis_q": tix_random_basis | {"quantile_levels"},
    }
    assert not hasattr(imputers, "inspect")
