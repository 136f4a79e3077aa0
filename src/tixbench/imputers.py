"""All imputation strategies behind one interface.

Local baselines (linear interpolation, LOCF, seasonal naive) with their full
fallback chains, the time-indexed regression imputer in point and quantile
variants with optional covariate stacking, and a covariate-only ridge
baseline. Every imputer is a pure function of the visible data: values at
held-out positions never influence the output.

String ids registered here: ``linear``, ``locf``, ``seasonal_naive``,
``tix_fourier``, ``tix_random_basis``, ``covar_ridge``; append ``_q`` to the
two ``tix_`` ids for quantile variants.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import FrequencySpec, Segment, znorm_stats
from .features import (
    HANDCRAFTED_FOURIER,
    RANDOM_FOURIER,
    FeatureMatrix,
    FeatureSpec,
    handcrafted_features,
    random_fourier_basis,
    stack_covariates,
)
from .regress import DEFAULT_LAMBDA, enforce_noncrossing, pinball_fit, predict, ridge_fit

DEFAULT_QUANTILE_LEVELS: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


@dataclass(frozen=True)
class Imputation:
    """Point (and optionally quantile) estimates at the evaluated positions.

    Values are in original (denormalized) units, ordered by ascending
    timestamp of the evaluation positions. Quantile vectors, when present,
    are non-crossing at every timestamp.
    """

    point: np.ndarray
    quantiles: dict[float, np.ndarray] | None = None

    def __post_init__(self) -> None:
        pt = np.asarray(self.point, dtype=float)
        object.__setattr__(self, "point", pt)
        if not np.all(np.isfinite(pt)):
            raise ValueError("imputed values must be finite")
        if self.quantiles is not None:
            qs = {float(a): np.asarray(v, dtype=float) for a, v in self.quantiles.items()}
            object.__setattr__(self, "quantiles", qs)
            alphas = sorted(qs)
            for a in alphas:
                if len(qs[a]) != len(pt):
                    raise ValueError("quantile vectors must match point length")
            for lo, hi in zip(alphas, alphas[1:]):
                if np.any(qs[lo] > qs[hi]):
                    raise ValueError("quantile predictions cross")


def _eval_indices(segment: Segment) -> np.ndarray:
    return np.flatnonzero(segment.eval_mask)


def _require_context(segment: Segment, minimum: int = 1) -> np.ndarray:
    vis = np.flatnonzero(segment.obs_mask)
    if len(vis) < minimum:
        raise ValueError("empty context")
    return vis


def impute_linear(segment: Segment) -> Imputation:
    """Straight-line interpolation between the nearest visible anchors.

    Leading gaps copy the first visible value backward (NOCB); trailing gaps
    carry the last visible value forward (LOCF).
    """
    vis = _require_context(segment)
    evals = _eval_indices(segment)
    point = np.interp(evals.astype(float), vis.astype(float), segment.values[vis])
    return Imputation(point=point)


def _locf_values(segment: Segment, positions: np.ndarray) -> np.ndarray:
    vis = _require_context(segment)
    vals = segment.values[vis]
    idx = np.searchsorted(vis, positions, side="right") - 1
    out = np.where(idx >= 0, vals[np.maximum(idx, 0)], vals[0])
    return out


def impute_locf(segment: Segment) -> Imputation:
    """Copy the most recent visible value; a leading gap copies the first
    visible value backward once (NOCB initialization)."""
    evals = _eval_indices(segment)
    point = _locf_values(segment, evals)
    return Imputation(point=point)


def impute_seasonal_naive(segment: Segment, season: int | None = None) -> Imputation:
    """Repeat the value one seasonal period back, with widening probes.

    For each position t the probe order is t-S, t+S, t-2S, t+2S, ... within
    the segment bounds; the first visible probe supplies the value. If every
    probe fails, the LOCF value at t is used.
    """
    S = segment.freq.seasonal_period if season is None else int(season)
    if S < 1:
        raise ValueError("seasonal period must be >= 1")
    vis = _require_context(segment)
    evals = _eval_indices(segment)
    n = segment.length
    # The probe order finds the nearest visible position of t's residue class
    # mod S, the earlier one on a tie. Keying each position by
    # (residue, position) puts every class in one sorted run, in which a
    # binary search finds t's neighbours; t itself is never visible. The
    # sentinels -1 and S * n lie outside every class.
    vis_keys = np.concatenate(([-1], np.sort(vis % S * n + vis), [S * n]))
    class_start = evals % S * n
    keys = class_start + evals
    idx = np.searchsorted(vis_keys, keys)
    before, after = vis_keys[idx - 1], vis_keys[idx]
    has_before = before >= class_start
    has_after = after < class_start + n
    use_before = has_before & (~has_after | (keys - before <= after - keys))
    found = has_before | has_after
    point = _locf_values(segment, evals)
    point[found] = segment.values[np.where(use_before, before, after)[found] - class_start[found]]
    return Imputation(point=point)


# A run needs one entry per (segment length, frequency, feature spec); the
# bound keeps a long-lived process from holding every length it has seen.
@functools.lru_cache(maxsize=16)
def _time_basis(length: int, freq: FrequencySpec, fspec: FeatureSpec) -> FeatureMatrix:
    """The time-only feature rows of a segment, built once and shared read-only."""
    ticks = np.arange(length)
    if fspec.kind == HANDCRAFTED_FOURIER:
        fm = handcrafted_features(ticks, freq, fspec.periods or None)
    else:
        fm = random_fourier_basis(ticks, fspec)
    fm.rows.flags.writeable = False
    fm.t_norm.flags.writeable = False
    return fm


def _build_features(segment: Segment, fspec: FeatureSpec, use_covariates: bool):
    fm = _time_basis(segment.length, segment.freq, fspec)
    if use_covariates:
        fm = stack_covariates(fm, segment.covariates)
    return fm


def impute_time_indexed(
    segment: Segment,
    fspec: FeatureSpec | None = None,
    lam: float = DEFAULT_LAMBDA,
    use_covariates: bool = False,
    quantile_levels: tuple[float, ...] | None = None,
) -> Imputation:
    """Regress the visible values onto per-timestamp features, then predict
    the held-out timestamps.

    The target is z-normalized by the segment's visible-context stats before
    the ridge fit and predictions are mapped back; the fit uses all observed
    points of the segment as context. With ``quantile_levels`` given, one
    pinball head is fitted independently per level and the predictions are
    passed through the non-crossing rearrangement.
    """
    fspec = fspec or FeatureSpec()
    vis = _require_context(segment, minimum=2)
    evals = _eval_indices(segment)
    fm = _build_features(segment, fspec, use_covariates)
    norm = segment.norm or znorm_stats(segment)
    y = (segment.values[vis] - norm.mean) / norm.std

    model = ridge_fit(fm.rows[vis], y, lam)
    point = predict(model, fm.rows[evals]) * norm.std + norm.mean

    quantiles = None
    if quantile_levels:
        raw = {}
        for alpha in quantile_levels:
            qmodel = pinball_fit(fm.rows[vis], y, alpha=alpha, lam=lam)
            raw[alpha] = predict(qmodel, fm.rows[evals]) * norm.std + norm.mean
        quantiles = enforce_noncrossing(raw)
    return Imputation(point=point, quantiles=quantiles)


def impute_covariate_ridge(segment: Segment, lam: float = DEFAULT_LAMBDA) -> Imputation:
    """Ridge fit of the target on the covariate channels only (plus intercept)."""
    if not segment.covariates:
        raise ValueError("covariate required")
    vis = _require_context(segment)
    evals = _eval_indices(segment)
    cols = []
    for name in sorted(segment.covariates):
        ch = segment.covariates[name]
        if not np.all(np.isfinite(ch)):
            raise ValueError("covariate not fully observed")
        cols.append(ch)
    X = np.column_stack(cols)
    model = ridge_fit(X[vis], segment.values[vis], lam)
    point = predict(model, X[evals])
    return Imputation(point=point)


def _tix_factory(kind: str, quantile: bool, params: dict) -> Callable[[Segment], Imputation]:
    fspec = FeatureSpec(
        kind=kind,
        periods=tuple(params.get("periods", ())),
        n_random=int(params.get("n_random", 64)),
        freq_range=tuple(params.get("freq_range", (0.5, 400.0))),
        seed=int(params.get("basis_seed", 0)),
    )
    lam = float(params.get("lam", DEFAULT_LAMBDA))
    use_cov = bool(params.get("use_covariates", False))
    levels = tuple(params.get("quantile_levels", DEFAULT_QUANTILE_LEVELS)) if quantile else None

    def _impute(segment: Segment) -> Imputation:
        return impute_time_indexed(
            segment, fspec=fspec, lam=lam, use_covariates=use_cov, quantile_levels=levels
        )

    return _impute


def make_imputer(imputer_id: str, **params) -> Callable[[Segment], Imputation]:
    """Look up an imputer by registry id, binding any parameter overrides."""
    quantile = imputer_id.endswith("_q")
    base = imputer_id[:-2] if quantile else imputer_id

    if base == "linear" and not quantile:
        return impute_linear
    if base == "locf" and not quantile:
        return impute_locf
    if base == "seasonal_naive" and not quantile:
        season = params.get("season")
        return lambda seg: impute_seasonal_naive(seg, season)
    if base == "covar_ridge" and not quantile:
        lam = float(params.get("lam", DEFAULT_LAMBDA))
        return lambda seg: impute_covariate_ridge(seg, lam)
    if base == "tix_fourier":
        return _tix_factory(HANDCRAFTED_FOURIER, quantile, params)
    if base == "tix_random_basis":
        return _tix_factory(RANDOM_FOURIER, quantile, params)
    raise ValueError(f"unknown imputer {imputer_id!r}")


REGISTRY_IDS: tuple[str, ...] = (
    "linear",
    "locf",
    "seasonal_naive",
    "tix_fourier",
    "tix_fourier_q",
    "tix_random_basis",
    "tix_random_basis_q",
    "covar_ridge",
)
