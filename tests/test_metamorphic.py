"""Metamorphic checks on whole runs: maps of the inputs that must leave scores unchanged.

z-normalized MAE divides by the visible context std, both heads standardize
every feature column and the target, and records are sorted and seeded by
ids, not positions. So an affine map of the target leaves every ``mae``
unchanged (and, with no offset, every ``wql``), an affine map of a covariate
channel leaves every record unchanged, and a reordered config leaves the
report files byte-identical. These oracles need no reference values.
"""

from __future__ import annotations

import copy
import csv
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
import yaml

from conftest import HOURLY, make_segment
from tixbench import handcrafted_features, ridge_fit
from tixbench.harness import config_from_dict, run, run_and_report, synth_from_dict
from tixbench.masking import DEFAULT_SCENARIOS, apply_scenario
from tixbench.regress import centred_gram
from tixbench.synth import generate

DEMO_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "demo.yaml"

# Relative tolerance of every mapped score: the benchmark's ``mae`` tolerance.
RTOL = 1e-9

# covariate_driven from configs/demo.yaml, shortened to 150 days: two 28-day
# windows in its test slice, so a run scores 8 tasks.
COVARIATE_SERIES = generate(
    synth_from_dict(
        {
            "length_days": 150,
            "steps_per_day": 24,
            "seed": 3,
            "components": [
                {"kind": "covariate_linear", "covariate_gain": 0.8},
                {"kind": "sine", "amplitude": 1.0, "period_ticks": 24},
                {"kind": "noise", "noise_std": 0.1},
            ],
        }
    )
)
# The covariate on a grid of 2**-20, so that each map below is exact in
# floating point: the records may then differ by round-off in the fits alone.
COVARIATE = np.round(COVARIATE_SERIES.covariates["cov1"] * 2.0**20) / 2.0**20
RANDOM_BASIS = {"n_random": 64, "freq_range": [0.5, 60.0], "lam": 10.0, "basis_seed": 0}
IMPUTERS = [
    {"id": "tix_fourier"},
    {"id": "tix_fourier", "name": "tix_fourier_cov", "params": {"use_covariates": True}},
    {"id": "tix_fourier_q", "name": "tix_fourier_q_cov", "params": {"use_covariates": True}},
    # d = 1 + 2 * 64 = 129 columns, and 130 with the covariate stacked.
    {"id": "tix_random_basis", "params": RANDOM_BASIS},
    {"id": "tix_random_basis", "name": "tix_random_basis_cov", "params": {**RANDOM_BASIS, "use_covariates": True}},
    {"id": "covar_ridge"},
]


def _run_csv(tmp_path, value_map=(1.0, 0.0), covariate_map=(1.0, 0.0)):
    """Records of a run on the covariate series, written as a CSV with both maps applied."""
    (k, m), (kc, mc) = value_map, covariate_map
    values = k * COVARIATE_SERIES.values + m
    covariate = kc * COVARIATE + mc
    path = tmp_path / f"series_{k!r}_{m!r}_{kc!r}_{mc!r}.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("timestamp", "value", "cov1"))
        writer.writerows(zip(range(len(COVARIATE_SERIES)), map(repr, values.tolist()), map(repr, covariate.tolist())))
    config = config_from_dict(
        {
            "seed": 0,
            "datasets": [{"id": "cov", "path": str(path), "steps_per_day": 24, "covariate_columns": ["cov1"]}],
            "imputers": IMPUTERS,
        }
    )
    return run(config).records


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    return _run_csv(tmp_path_factory.mktemp("baseline"))


def _assert_same_scores(mapped, baseline, wql=True):
    assert len(mapped) == len(baseline) > 0
    for a, b in zip(mapped, baseline):
        assert (a.dataset, a.imputer_id, a.scenario_label, a.n_points) == (b.dataset, b.imputer_id, b.scenario_label, b.n_points)
        assert a.mae == pytest.approx(b.mae, rel=RTOL, abs=0.0), a
        if wql:
            assert (a.wql is None) == (b.wql is None)
            if a.wql is not None:
                assert a.wql == pytest.approx(b.wql, rel=RTOL, abs=0.0), a


def test_scenarios_cover_every_basis(baseline):
    assert {r.imputer_id for r in baseline} == {im.get("name", im["id"]) for im in IMPUTERS}
    assert {r.scenario_label for r in baseline} == {"pointwise1", "pointwise2", "blocks1", "blocks2"}
    assert any(r.wql is not None for r in baseline)


def test_affine_target_map_keeps_every_mae(tmp_path, baseline):
    _assert_same_scores(_run_csv(tmp_path, value_map=(1e3, 1e6)), baseline, wql=False)


def test_scaled_target_keeps_every_mae_and_wql(tmp_path, baseline):
    _assert_same_scores(_run_csv(tmp_path, value_map=(1e-3, 0.0)), baseline)


@pytest.mark.parametrize("covariate_map", [(1e4, 1e7), (-(2.0**10), 2.0**30)])
def test_affine_covariate_map_keeps_every_record(tmp_path, baseline, covariate_map):
    _assert_same_scores(_run_csv(tmp_path, covariate_map=covariate_map), baseline)


def test_offset_map_gives_mean_over_std_above_1e6():
    covariate = -(2.0**10) * COVARIATE + 2.0**30
    assert np.array_equal((covariate - 2.0**30) / -(2.0**10), COVARIATE)
    assert covariate.mean() / covariate.std() >= 1e6


@pytest.mark.parametrize("scenario", DEFAULT_SCENARIOS, ids=lambda s: s.label)
@pytest.mark.parametrize("through_gram", [False, True])
def test_affine_covariate_map_scales_only_its_ridge_weight(scenario, through_gram):
    # Per fit, c -> k c + m divides the covariate's weight by k and leaves the
    # other weights as they are. Unlike the intercept and the predictions,
    # which cancel terms of size m, the weights carry no round-off that grows
    # with m / std(c) (here 2**23), so they see a fit that takes the cross
    # moments from uncentred rows.
    ticks = np.arange(28 * 24)
    values = COVARIATE_SERIES.values[: len(ticks)]
    masked = apply_scenario(make_segment(values, np.ones(len(ticks), dtype=bool)), scenario, seed=5)
    mask, y = masked.obs_mask, masked.values[masked.obs_mask]
    weights = []
    for k, m in ((1.0, 0.0), (-(2.0**-3), 2.0**27)):
        X = np.column_stack([handcrafted_features(ticks, HOURLY), k * COVARIATE[: len(ticks)] + m])
        model = ridge_fit(X, y, 1e-3, mask=mask, gram=centred_gram(X) if through_gram else None)
        weights.append(model.weights * np.append(np.ones(X.shape[1] - 1), k))
    assert np.linalg.norm(weights[1] - weights[0]) <= RTOL * np.linalg.norm(weights[0])


def test_reordered_demo_config_gives_identical_report_files(tmp_path):
    raw = yaml.safe_load(DEMO_CONFIG.read_text())
    raw["scenarios"] = [asdict(s) for s in DEFAULT_SCENARIOS]
    reordered = copy.deepcopy(raw)
    for key in ("datasets", "imputers", "scenarios"):
        reordered[key].reverse()
    files = {}
    for name, cfg in (("given", raw), ("reordered", reordered)):
        _, paths = run_and_report(config_from_dict(cfg), output_dir=tmp_path / name)
        files[name] = (paths["csv"].read_bytes(), paths["markdown"].read_bytes())
    assert files["given"] == files["reordered"]
