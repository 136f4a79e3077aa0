"""Every ``mae`` of a real run, recomputed through an independent path.

A fresh run of ``configs/demo.yaml`` and a run of the three quantile imputer
entries of the benchmark's ``quantile`` workload record the score of every
task. The test rebuilds each task's window and masks with the library's own
placement (``chrono_split``, ``extract_segments``, ``apply_scenario``) and
its feature rows with the feature builders, then predicts with the plain
oracles of ``tests/oracles.py`` and scores with a direct z-normalized MAE.
No solver, Gram, downdate or stacking of the library is on that path, so a
fault in any of them moves some record.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from oracles import linear_interp_oracle, locf_oracle, ridge_oracle, seasonal_oracle, two_pass_mean_std
from tixbench import harness
from tixbench.core import chrono_split, extract_segments
from tixbench.features import RANDOM_FOURIER, FeatureSpec, handcrafted_features, random_fourier_basis, stack_covariates
from tixbench.masking import InfeasibleScenario, apply_scenario
from tixbench.regress import DEFAULT_LAMBDA

DEMO = Path(__file__).resolve().parents[1] / "configs" / "demo.yaml"
REL_TOL = 1e-10
STD_FLOOR = 1e-8
# The random-basis params of an imputer entry, by the FeatureSpec field each sets.
BASIS_FIELDS = {"n_random": "n_random", "freq_range": "freq_range", "basis_seed": "seed"}

# The three quantile imputer entries of the benchmark's quantile workload, on
# the covariate_driven series of configs/demo.yaml shortened to 150 days.
QUANTILE_IMPUTERS = [
    {"id": "tix_fourier_q"},
    {"id": "tix_fourier_q", "name": "tix_fourier_q_cov", "params": {"use_covariates": True}},
    {
        "id": "tix_random_basis_q",
        "params": {"n_random": 64, "freq_range": [0.5, 60.0], "lam": 10.0, "basis_seed": 0},
    },
]
COVARIATE_DRIVEN = {
    "length_days": 150,
    "steps_per_day": 24,
    "components": [
        {"kind": "covariate_linear", "covariate_gain": 0.8},
        {"kind": "sine", "amplitude": 1.0, "period_ticks": 24},
        {"kind": "noise", "noise_std": 0.1},
    ],
}
QUANTILE_RUN = {
    "datasets": [{"id": "covariate_driven", "synth": COVARIATE_DRIVEN}],
    "imputers": QUANTILE_IMPUTERS,
    "rank_metric": "wql",
}


def run_by_task(config, monkeypatch) -> dict:
    """{(dataset, segment start, scenario label, imputer name): mae} of a serial run of ``config``."""
    scored = {}
    score_task = harness._score_task

    def recording(args):
        ds_id, masked, scenario, _ = args
        records = score_task(args)
        for r in records:
            scored[(ds_id, masked.start, scenario.label, r.imputer_id)] = r
        return records

    monkeypatch.setattr(harness, "_score_task", recording)
    records = harness.run(config, jobs=1).records
    assert sorted(map(repr, scored.values())) == sorted(map(repr, records))
    return {key: r.mae for key, r in scored.items()}


def feature_rows(spec, segment):
    """The rows a regression entry fits on one window, from the feature builders; None for a local imputer."""
    params = spec.params
    ticks = np.arange(len(segment))
    if spec.id == "covar_ridge":
        return stack_covariates(np.empty((len(segment), 0)), segment.covariates)
    if spec.id.startswith("tix_fourier"):
        X = handcrafted_features(ticks, segment.freq, FeatureSpec(periods=params.get("periods", ())).periods)
    elif spec.id.startswith("tix_random_basis"):
        basis = {field: params[key] for key, field in BASIS_FIELDS.items() if key in params}
        X = random_fourier_basis(ticks, FeatureSpec(RANDOM_FOURIER, **basis))
    else:
        return None
    return stack_covariates(X, segment.covariates) if params.get("use_covariates") and segment.covariates else X


def oracle_point(spec, X, masked):
    """The point imputation of one masked segment by an imputer entry, through the oracles alone."""
    evals = np.flatnonzero(masked.eval_mask)
    values, obs = masked.values.tolist(), masked.obs_mask.tolist()
    if spec.id == "linear":
        return linear_interp_oracle(values, obs, evals)
    if spec.id == "locf":
        return locf_oracle(values, obs, evals)
    if spec.id == "seasonal_naive":
        return seasonal_oracle(values, obs, evals, spec.params.get("season") or masked.freq.seasonal_period)
    w, b = ridge_oracle(X[masked.obs_mask], masked.values[masked.obs_mask], spec.params.get("lam", DEFAULT_LAMBDA))
    return X[masked.eval_mask] @ w + b


def oracle_by_task(config) -> dict:
    """The keys of ``run_by_task``, each with its mae recomputed through the oracles."""
    expected = {}
    for ds in config.datasets:
        _, _, test = chrono_split(harness.load_dataset(ds), config.splits)
        segments = extract_segments(
            test,
            seg_len_days=config.segment_len_days,
            stride_min_days=config.stride_days[0],
            stride_max_days=config.stride_days[1],
            seed=harness.stable_seed(config.seed, ds.id, "segments"),
        )
        for segment in segments:
            rows = [feature_rows(spec, segment) for spec in config.imputers]
            for scenario in config.scenarios:
                seed = harness.stable_seed(config.seed, ds.id, segment.start, scenario.label)
                try:
                    masked = apply_scenario(segment, scenario, seed)
                except InfeasibleScenario:
                    continue
                truth = masked.values[masked.eval_mask]
                std = max(two_pass_mean_std(masked.values[masked.obs_mask])[1], STD_FLOOR)
                for spec, X in zip(config.imputers, rows):
                    error = np.abs(truth - oracle_point(spec, X, masked))
                    expected[(ds.id, segment.start, scenario.label, spec.name)] = sum(error) / len(error) / std
    return expected


@pytest.mark.parametrize(
    "raw, records",
    [pytest.param(None, 984, id="demo"), pytest.param(QUANTILE_RUN, 24, id="quantile")],
)
def test_every_mae_of_a_run_matches_the_oracles(raw, records, monkeypatch):
    config = harness.load_config(DEMO) if raw is None else harness.config_from_dict(raw)
    actual = run_by_task(config, monkeypatch)
    # One BLAS thread, as in the run: a second only slows the oracle's small solves.
    with harness._one_blas_thread():
        expected = oracle_by_task(config)
    assert len(actual) == records
    assert actual.keys() == expected.keys()
    off = [(k, actual[k], e) for k, e in expected.items() if not abs(actual[k] - e) <= REL_TOL * abs(e)]
    assert not off, f"{len(off)} of {len(expected)} records off the oracles, first {off[:3]}"
