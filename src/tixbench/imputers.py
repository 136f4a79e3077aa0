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
import inspect
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import FrequencySpec, Segment
from .features import (
    HANDCRAFTED_FOURIER,
    RANDOM_FOURIER,
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
def _time_basis(length: int, freq: FrequencySpec, fspec: FeatureSpec) -> np.ndarray:
    """The time-only feature rows of a segment, built once and shared read-only."""
    ticks = np.arange(length)
    if fspec.kind == HANDCRAFTED_FOURIER:
        X = handcrafted_features(ticks, freq, fspec.periods or None)
    else:
        X = random_fourier_basis(ticks, fspec)
    X.flags.writeable = False
    return X


def _fit_heads(
    segment: Segment, X: np.ndarray, lam: float, quantile_levels: tuple[float, ...] | None = None
) -> Imputation:
    """Fit heads on the visible rows of ``X`` and predict its evaluated rows.

    The heads fit the visible values as they are; the fits scale the target
    themselves. A ridge head gives the point estimate; with
    ``quantile_levels`` given, one batched pinball fit gives a head per level,
    and the predictions pass through the non-crossing rearrangement.
    """
    vis = _require_context(segment, minimum=2)
    y, X_vis, X_eval = segment.values[vis], X[vis], X[_eval_indices(segment)]
    point = predict(ridge_fit(X_vis, y, lam), X_eval)
    quantiles = None
    if quantile_levels:
        heads = pinball_fit(X_vis, y, alpha=quantile_levels, lam=lam)
        quantiles = enforce_noncrossing({m.quantile: predict(m, X_eval) for m in heads})
    return Imputation(point=point, quantiles=quantiles)


def impute_time_indexed(
    segment: Segment,
    fspec: FeatureSpec | None = None,
    lam: float = DEFAULT_LAMBDA,
    use_covariates: bool = False,
    quantile_levels: tuple[float, ...] | None = None,
) -> Imputation:
    """Regress the visible values onto per-timestamp features, then predict
    the held-out timestamps.

    The fit uses all observed points of the segment as context; with
    ``quantile_levels`` given, it adds non-crossing quantile heads.
    """
    X = _time_basis(segment.length, segment.freq, fspec or FeatureSpec())
    if use_covariates:
        X = stack_covariates(X, segment.covariates)
    return _fit_heads(segment, X, lam, quantile_levels)


def impute_covariate_ridge(segment: Segment, lam: float = DEFAULT_LAMBDA) -> Imputation:
    """Ridge fit of the target on the covariate channels only (plus intercept)."""
    if not segment.covariates:
        raise ValueError("covariate required")
    return _fit_heads(segment, stack_covariates(np.empty((segment.length, 0)), segment.covariates), lam)


# Registry ids: each local id names its imputer function, whose keyword
# parameters are the params an entry may set; each tix id names a feature
# basis, and appending "_q" gives its quantile variant.
_LOCAL_IMPUTERS = {
    "linear": impute_linear,
    "locf": impute_locf,
    "seasonal_naive": impute_seasonal_naive,
    "covar_ridge": impute_covariate_ridge,
}
# Each tix id's basis kind and the params that configure it, by the
# FeatureSpec field each sets.
_TIX_BASES = {
    "tix_fourier": (HANDCRAFTED_FOURIER, {"periods": "periods"}),
    "tix_random_basis": (RANDOM_FOURIER, {"n_random": "n_random", "freq_range": "freq_range", "basis_seed": "seed"}),
}


def _keywords(fn) -> frozenset[str]:
    """The parameters of ``fn`` after the segment."""
    return frozenset(list(inspect.signature(fn).parameters)[1:])


# Computed once: inspecting a signature costs more than the rest of a lookup.
_PARAMS = {imputer_id: _keywords(fn) for imputer_id, fn in _LOCAL_IMPUTERS.items()}
for _tix_id, (_, _basis_keys) in _TIX_BASES.items():
    _PARAMS[_tix_id] = _keywords(impute_time_indexed) - {"fspec", "quantile_levels"} | set(_basis_keys)
    _PARAMS[f"{_tix_id}_q"] = _PARAMS[_tix_id] | {"quantile_levels"}


# Param value rules: (test, what a value must be). Levels key the quantile fits.
_VALUE_RULES = {
    "season": (lambda season: season is None or int(season) >= 1, "must be >= 1"),
    "lam": (lambda lam: lam >= 0, "must be >= 0"),
    "quantile_levels": (
        lambda levels: bool(levels) and all(lo < hi for lo, hi in zip([0.0, *levels], [*levels, 1.0])),
        "must be non-empty, strictly inside (0, 1) and strictly increasing",
    ),
}


def make_imputer(imputer_id: str, **params) -> Callable[[Segment], Imputation]:
    """Look up an imputer by registry id and bind its params; an unknown id or param or a bad value is a ValueError."""
    if imputer_id not in _PARAMS:
        raise ValueError(f"unknown imputer {imputer_id!r}")
    unknown = sorted(params.keys() - _PARAMS[imputer_id])
    if unknown:
        raise ValueError(f"imputer {imputer_id!r}: unknown param {', '.join(map(repr, unknown))}")
    for key in params.keys() & _VALUE_RULES:
        valid, rule = _VALUE_RULES[key]
        if not valid(params[key]):
            raise ValueError(f"imputer {imputer_id!r}: {key} {rule}, got {params[key]!r}")
    if imputer_id in _LOCAL_IMPUTERS:
        return functools.partial(_LOCAL_IMPUTERS[imputer_id], **params)
    kind, basis_keys = _TIX_BASES[imputer_id.removesuffix("_q")]
    fspec = FeatureSpec(kind, **{field: params.pop(key) for key, field in basis_keys.items() if key in params})
    if imputer_id.endswith("_q"):
        params.setdefault("quantile_levels", DEFAULT_QUANTILE_LEVELS)
    return functools.partial(impute_time_indexed, fspec=fspec, **params)
