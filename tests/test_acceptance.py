"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

from __future__ import annotations

import json

import numpy as np

from oracles import (
    grid_quantile_region,
    linear_interp_oracle,
    ridge_oracle,
    seasonal_oracle,
    wql_oracle,
)
from tixbench import (
    DEFAULT_SCENARIOS,
    TimeSeries,
    apply_scenario,
    average_ranks,
    extract_segments,
    floored_std,
    impute_linear,
    impute_seasonal_naive,
    impute_time_indexed,
    pinball_fit,
    predict,
    quantile_loss,
    ridge_fit,
    wql,
    znorm_mae,
)
from tixbench.harness import config_from_dict, run, run_and_report
from conftest import HOURLY, make_segment


def _report(index: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance {index}] {name}: {status}{suffix}")
    assert ok, f"criterion {index} failed{suffix}"


def test_c1_exact_recovery_under_all_scenarios():
    n = 8 * 7 * 24
    t = np.arange(n)
    t_norm = t / (n - 1)
    values = (
        1.5 * np.sin(2 * np.pi * t / 24)
        + 0.7 * np.cos(2 * np.pi * t / 168)
        + 0.2 * t_norm
        + 3.0
    )
    series = TimeSeries("analytic", values, np.ones(n, dtype=bool), HOURLY)
    segments = extract_segments(series, 28, 28.0, 28.0, seed=0)
    assert len(segments) == 2
    worst = 0.0
    for segment in segments:
        for scenario in DEFAULT_SCENARIOS:
            masked = apply_scenario(segment, scenario, seed=101)
            out = impute_time_indexed([masked])[0]
            truth = masked.values[masked.eval_mask]
            worst = max(worst, znorm_mae(truth, out.point, floored_std(masked.values[masked.obs_mask])))
    _report(1, "in-span signal recovered under all four scenarios", worst < 1e-5, f"worst z-MAE {worst:.2e}")


def test_c2_local_vs_time_indexed_ordering(tmp_path):
    config = config_from_dict(
        {
            "seed": 7,
            "output_dir": str(tmp_path / "out"),
            "segment": {"len_days": 28, "stride": [2.0, 2.0]},
            "datasets": [
                {
                    "id": "noisy_daily",
                    "synth": {
                        "length_days": 200,
                        "steps_per_day": 24,
                        "seed": 1,
                        "components": [
                            {"kind": "sine", "amplitude": 1.0, "period_ticks": 24},
                            {"kind": "noise", "noise_std": 0.1},
                        ],
                    },
                }
            ],
            "imputers": [{"id": "linear"}, {"id": "tix_fourier"}],
        }
    )
    bench = run(config)
    cell = {
        (a["scenario_label"], a["imputer_id"]): a["mae"]
        for a in bench.aggregates
        if a["level"] == "dataset_scenario"
    }
    pw_ok = cell[("pointwise1", "linear")] <= 2.0 * cell[("pointwise1", "tix_fourier")]
    bl_ok = cell[("blocks2", "linear")] >= 3.0 * cell[("blocks2", "tix_fourier")]
    block_records = [r for r in bench.records if r.scenario_label == "blocks2"]
    block_ranks = average_ranks(block_records)
    ranks_ok = (
        set(bench.ranks) == {"linear", "tix_fourier"}
        and block_ranks["tix_fourier"] < block_ranks["linear"]
    )
    _report(
        2,
        "local method competitive pointwise, time-indexed dominant on blocks",
        pw_ok and bl_ok and ranks_ok,
        f"pointwise {cell[('pointwise1', 'linear')]:.3f} vs {cell[('pointwise1', 'tix_fourier')]:.3f}, "
        f"blocks {cell[('blocks2', 'linear')]:.3f} vs {cell[('blocks2', 'tix_fourier')]:.3f}",
    )


def test_c3_covariate_improvement(tmp_path):
    config = config_from_dict(
        {
            "seed": 5,
            "output_dir": str(tmp_path / "out"),
            "segment": {"len_days": 28, "stride": [2.0, 2.0]},
            "datasets": [
                {
                    "id": "cov_driven",
                    "synth": {
                        "length_days": 200,
                        "steps_per_day": 24,
                        "seed": 2,
                        "components": [
                            {"kind": "covariate_linear", "covariate_gain": 0.8},
                            {"kind": "sine", "amplitude": 1.0, "period_ticks": 24},
                            {"kind": "noise", "noise_std": 0.1},
                        ],
                    },
                }
            ],
            "imputers": [
                {"id": "tix_fourier", "name": "tix_univariate"},
                {"id": "tix_fourier", "name": "tix_with_cov", "params": {"use_covariates": True}},
            ],
        }
    )
    bench = run(config)
    cell = {
        (a["scenario_label"], a["imputer_id"]): a["mae"]
        for a in bench.aggregates
        if a["level"] == "dataset_scenario"
    }
    without = cell[("blocks2", "tix_univariate")]
    with_cov = cell[("blocks2", "tix_with_cov")]
    reduction = 1.0 - with_cov / without
    _report(3, "covariates cut 4-day-block error by >= 30%", reduction >= 0.30, f"reduction {reduction:.1%}")


def test_c4_metric_fidelity():
    rng = np.random.default_rng(10)
    alphas = tuple(np.round(np.arange(0.1, 0.95, 0.1), 10))
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 40))
        truth = rng.normal(size=n)
        if np.sum(np.abs(truth)) == 0.0:
            truth = truth + 1.0
        preds = {a: rng.normal(size=n) for a in alphas}
        worst = max(worst, abs(wql(preds, truth, alphas) - wql_oracle(preds, truth, alphas)))
    grid_ok = True
    for q in np.linspace(-3, 3, 25):
        for x in np.linspace(-3, 3, 25):
            for alpha in np.linspace(0.05, 0.95, 19):
                expected = alpha * (x - q) if x > q else (1 - alpha) * (q - x)
                if abs(quantile_loss(q, x, alpha) - expected) > 1e-15:
                    grid_ok = False
    _report(4, "wql matches double-loop oracle; pinball matches its formula", worst < 1e-12 and grid_ok, f"max wql gap {worst:.1e}")


def test_c5_quantile_coverage():
    rng = np.random.default_rng(11)
    n = 120 * 24
    t = np.arange(n)
    values = np.sin(2 * np.pi * t / 24) + rng.normal(0.0, 0.5, size=n)
    series = TimeSeries("gauss", values, np.ones(n, dtype=bool), HOURLY)
    segments = extract_segments(series, 28, 7.0, 7.0, seed=3)
    covered = 0
    total = 0
    crossings = 0
    for segment in segments:
        masked = apply_scenario(segment, DEFAULT_SCENARIOS[1], seed=segment.start)
        out = impute_time_indexed([masked], quantile_levels=(0.1, 0.9))[0]
        truth = masked.values[masked.eval_mask]
        lo, hi = out.quantiles[0.1], out.quantiles[0.9]
        crossings += int(np.sum(lo > hi))
        covered += int(np.sum((truth >= lo) & (truth <= hi)))
        total += len(truth)
    coverage = covered / total
    ok = total >= 5000 and 0.70 <= coverage <= 0.90 and crossings == 0
    _report(5, "80% band empirically covers 70-90% and never crosses", ok, f"coverage {coverage:.3f} over {total} points")


def test_c6_local_imputer_oracle_equivalence():
    rng = np.random.default_rng(12)
    # Full enumeration: every visible/held-out assignment for lengths <= 12.
    for n in range(2, 13):
        for bits in range(1, 2**n):
            obs = np.array([(bits >> i) & 1 == 1 for i in range(n)])
            evals = np.flatnonzero(~obs)
            values = rng.normal(size=n)
            seg = make_segment(values, obs, ~obs)
            got_linear = impute_linear(seg).point
            np.testing.assert_allclose(
                got_linear, linear_interp_oracle(values, obs, evals), atol=1e-12
            )
            for season in (1, 2, 3, 4, 5):
                got_seasonal = impute_seasonal_naive(seg, season=season).point
                np.testing.assert_array_equal(
                    got_seasonal, seasonal_oracle(values, obs, evals, season)
                )
    # Random larger cases with a third role (missing but unscored).
    for _ in range(1000):
        n = int(rng.integers(13, 120))
        roles = rng.integers(0, 3, size=n)
        roles[rng.integers(0, n)] = 0
        values = rng.normal(size=n)
        obs = roles == 0
        evals = np.flatnonzero(roles == 1)
        eval_mask = roles == 1
        seg = make_segment(values, obs, eval_mask)
        np.testing.assert_allclose(
            impute_linear(seg).point, linear_interp_oracle(values, obs, evals), atol=1e-12
        )
        season = int(rng.integers(1, 6))
        np.testing.assert_array_equal(
            impute_seasonal_naive(seg, season=season).point,
            seasonal_oracle(values, obs, evals, season),
        )
    _report(6, "linear and seasonal_naive equal brute-force oracles", True)


def test_c7_solver_correctness():
    rng = np.random.default_rng(13)
    worst_rel = 0.0
    for _ in range(200):
        n = int(rng.integers(5, 60))
        d = int(rng.integers(1, 9))
        X = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0, size=d)
        y = rng.normal(size=n)
        lam = float(10 ** rng.uniform(-6, 2))
        model = ridge_fit(X, y, lam)
        w, b = ridge_oracle(X, y, lam)
        scale = max(np.linalg.norm(w), 1.0)
        worst_rel = max(worst_rel, np.linalg.norm(model.weights - w) / scale, abs(model.intercept - b) / max(abs(b), 1.0))
    ridge_ok = worst_rel < 1e-8

    pinball_ok = True
    for alpha in (0.1, 0.25, 0.5, 0.75, 0.9):
        y = rng.normal(size=50) * 3.0
        X = np.ones((50, 1))
        fitted = predict(pinball_fit(X, y, alpha=alpha, lam=0.0), X)[0]
        # The argmin can be a flat interval (alpha * n integral); match the
        # grid-scan minimizer set to within one grid cell.
        lo, hi, step = grid_quantile_region(y, alpha)
        if not (lo - step <= fitted <= hi + step):
            pinball_ok = False
    _report(7, "ridge matches independent solve; pinball matches grid scan", ridge_ok and pinball_ok, f"worst ridge rel err {worst_rel:.1e}")


def test_c8_run_determinism(tmp_path):
    config = config_from_dict(
        {
            "seed": 21,
            "segment": {"len_days": 28, "stride": [10.0, 10.0]},
            "datasets": [
                {
                    "id": "det",
                    "synth": {
                        "length_days": 180,
                        "steps_per_day": 24,
                        "seed": 4,
                        "components": [
                            {"kind": "sine", "amplitude": 1.0, "period_ticks": 24},
                            {"kind": "noise", "noise_std": 0.2},
                        ],
                    },
                }
            ],
            "imputers": [{"id": "linear"}, {"id": "tix_fourier"}, {"id": "seasonal_naive"}],
        }
    )

    _, paths_a = run_and_report(config, output_dir=tmp_path / "a")
    _, paths_b = run_and_report(config, output_dir=tmp_path / "b")

    def stripped(path):
        payload = json.loads(path.read_text())
        payload["meta"].pop("generated_at")
        return json.dumps(payload, sort_keys=True)

    identical = stripped(paths_a["json"]) == stripped(paths_b["json"])
    _report(8, "identical config+seed gives byte-identical results", identical)


def test_c9_protocol_shape(tmp_path):
    rng = np.random.default_rng(14)
    datasets = []
    for i in range(33):
        datasets.append(
            {
                "id": f"synth{i:02d}",
                "synth": {
                    "length_days": 145,
                    "steps_per_day": 24,
                    "seed": int(rng.integers(0, 10**6)),
                    "components": [
                        {
                            "kind": "sine",
                            "amplitude": float(rng.uniform(0.5, 2.0)),
                            "period_ticks": float(rng.choice([24, 168])),
                        },
                        {"kind": "noise", "noise_std": float(rng.uniform(0.05, 0.3))},
                    ],
                },
            }
        )
    imputers = [{"id": "linear"}, {"id": "locf"}, {"id": "seasonal_naive"}, {"id": "tix_fourier"}]
    config = config_from_dict(
        {
            "seed": 33,
            "output_dir": str(tmp_path / "out"),
            "segment": {"len_days": 28, "stride": [2.0, 2.0]},
            "datasets": datasets,
            "imputers": imputers,
        }
    )
    bench = run(config)
    names = {im["id"] for im in imputers}
    tasks = {(r.dataset, r.scenario_label) for r in bench.records}
    complete = all(
        {r.imputer_id for r in bench.records if (r.dataset, r.scenario_label) == task} == names
        for task in tasks
    )
    n_tasks_ok = len(tasks) == 33 * 4
    rank_mean = float(np.mean(list(bench.ranks.values())))
    ok = complete and n_tasks_ok and abs(rank_mean - 2.5) < 1e-12
    _report(9, "33-dataset matrix complete; mean average rank = (k+1)/2", ok, f"mean rank {rank_mean!r}")
