"""All imputation strategies behind one interface: an imputer maps the masked
copies of one window to one ``Imputation`` each.

Local baselines (linear interpolation, LOCF, seasonal naive) with their full
fallback chains impute each copy alone; the time-indexed regression imputer,
in point and quantile variants with optional covariate stacking, and a
covariate-only ridge baseline build the window's rows and Gram once and fit
all copies with one stacked ridge head. Every imputer is a pure function of
the visible data: values at held-out positions never influence the output.

String ids registered here: ``linear``, ``locf``, ``seasonal_naive``,
``tix_fourier``, ``tix_random_basis``, ``covar_ridge``; append ``_q`` to the
two ``tix_`` ids for quantile variants.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import FrequencySpec, Segment, real_number, sequence, whole_number
from .features import (
    HANDCRAFTED_FOURIER,
    RANDOM_FOURIER,
    FeatureSpec,
    handcrafted_features,
    random_fourier_basis,
    stack_covariates,
)
from .regress import DEFAULT_LAMBDA, centred_gram, enforce_noncrossing, pinball_fit, predict, ridge_fit

DEFAULT_QUANTILE_LEVELS: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
# The most levels an entry may set: 99, every percentile. pinball_fit stacks one (r+1)^2 normal matrix per level,
# r <= min(d, visible rows), so 99 levels ask at most 99 * 2050**2 * 8 bytes = 3.3 GB at the widest basis and 359 MB
# on a 28-day hourly window, where 100,000 levels would ask 362 GB.
MAX_QUANTILE_LEVELS = 99


@dataclass(frozen=True)
class Imputation:
    """Point (and optionally quantile) estimates at the evaluated positions.

    Values are finite, in original (denormalized) units, ordered by ascending
    timestamp of the evaluation positions. Quantile vectors, when present,
    are non-crossing at every timestamp.
    """

    point: np.ndarray
    quantiles: dict[float, np.ndarray] | None = None

    def __post_init__(self) -> None:
        pt = np.asarray(self.point, dtype=float)
        qs = {float(a): np.asarray(v, dtype=float) for a, v in (self.quantiles or {}).items()}
        object.__setattr__(self, "point", pt)
        if not all(np.all(np.isfinite(v)) for v in (pt, *qs.values())):
            raise ValueError("imputed values must be finite")
        if not all(0 < a < 1 for a in qs):
            raise ValueError(f"quantile levels must lie strictly between 0 and 1, got {list(qs)}")
        if self.quantiles is not None:
            object.__setattr__(self, "quantiles", qs)
            alphas = sorted(qs)
            for a in alphas:
                if len(qs[a]) != len(pt):
                    raise ValueError("quantile vectors must match point length")
            for lo, hi in zip(alphas, alphas[1:]):
                if np.any(qs[lo] > qs[hi]):
                    raise ValueError("quantile predictions cross")


def impute_linear(segment: Segment) -> Imputation:
    """Straight-line interpolation between the nearest visible anchors.

    Leading gaps copy the first visible value backward (NOCB); trailing gaps
    carry the last visible value forward (LOCF).
    """
    vis = np.flatnonzero(segment.obs_mask)
    evals = np.flatnonzero(segment.eval_mask)
    point = np.interp(evals.astype(float), vis.astype(float), segment.values[vis])
    return Imputation(point=point)


def _locf_values(values: np.ndarray, vis: np.ndarray, positions: np.ndarray) -> np.ndarray:
    # The clamp at 0 is the NOCB start: a position before the first visible one takes its value.
    return values[vis[np.maximum(np.searchsorted(vis, positions, side="right") - 1, 0)]]


def impute_locf(segment: Segment) -> Imputation:
    """Copy the most recent visible value; a leading gap copies the first
    visible value backward once (NOCB initialization)."""
    vis, evals = np.flatnonzero(segment.obs_mask), np.flatnonzero(segment.eval_mask)
    return Imputation(point=_locf_values(segment.values, vis, evals))


def impute_seasonal_naive(segment: Segment, season: int | None = None) -> Imputation:
    """Repeat the value one seasonal period back, with widening probes.

    For each position t the probe order is t-S, t+S, t-2S, t+2S, ... within
    the segment bounds; the first visible probe supplies the value. If every
    probe fails, the LOCF value at t is used.
    """
    S = segment.freq.seasonal_period if season is None else whole_number(season, "season", least=1)
    vis = np.flatnonzero(segment.obs_mask)
    evals = np.flatnonzero(segment.eval_mask)
    n = len(segment)
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
    point = _locf_values(segment.values, vis, evals)
    point[found] = segment.values[np.where(use_before, before, after)[found] - class_start[found]]
    return Imputation(point=point)


# A run needs one entry per (segment length, frequency, feature spec); the
# bound keeps a long-lived process from holding every length it has seen.
@functools.lru_cache(maxsize=16)
def _time_basis(length: int, freq: FrequencySpec, fspec: FeatureSpec) -> tuple[np.ndarray, tuple]:
    """The time-only feature rows of a segment and their ``centred_gram``,
    built once and shared read-only by every segment and scenario."""
    ticks = np.arange(length)
    if fspec.kind == HANDCRAFTED_FOURIER:
        X = handcrafted_features(ticks, freq, fspec.periods)
    else:
        X = random_fourier_basis(ticks, fspec)
    X.flags.writeable = False
    return X, centred_gram(X)


def _fit_heads(
    segments: list[Segment], X: np.ndarray, lam: float, quantile_levels: tuple[float, ...] | None = None, gram=None
) -> list[Imputation]:
    """Fit heads on the visible rows of ``X`` in each segment and predict its evaluated rows.

    The heads fit the visible values as they are; the fits scale the target
    themselves. One ridge fit, from the ``centred_gram`` of ``X`` if given,
    gives a stacked head, row t the point head of segment t; with
    ``quantile_levels``, a pinball fit per segment gives a multi-level head,
    its predictions rearranged to not cross. One visible value is enough.
    """
    targets = [segment.values[segment.obs_mask] for segment in segments]
    points = predict(ridge_fit(X, targets, lam, mask=[segment.obs_mask for segment in segments], gram=gram), X)
    imputations = []
    for t, (segment, y) in enumerate(zip(segments, targets)):
        quantiles = None
        if quantile_levels:
            P = predict(pinball_fit(X[segment.obs_mask], y, alpha=quantile_levels, lam=lam), X[segment.eval_mask])
            quantiles = enforce_noncrossing(dict(zip(quantile_levels, P.T)))
        imputations.append(Imputation(point=points[segment.eval_mask, t], quantiles=quantiles))
    return imputations


def impute_time_indexed(
    segments: list[Segment],
    fspec: FeatureSpec | None = None,
    lam: float = DEFAULT_LAMBDA,
    use_covariates: bool = False,
    quantile_levels: tuple[float, ...] | None = None,
) -> list[Imputation]:
    """Regress the visible values of each of ``segments``, masked copies of
    one window, onto per-timestamp features built once with their Gram, then
    predict its held-out timestamps. Each fit uses all observed points of its
    segment as context; ``quantile_levels`` add non-crossing quantile heads.
    """
    first = segments[0]
    X, gram = _time_basis(len(first), first.freq, fspec or FeatureSpec())
    if use_covariates and first.covariates:
        gram = centred_gram(X := stack_covariates(X, first.covariates))
    return _fit_heads(segments, X, lam, quantile_levels, gram)


def impute_covariate_ridge(segments: list[Segment], lam: float = DEFAULT_LAMBDA) -> list[Imputation]:
    """Ridge fit of the target on the covariate channels only (plus intercept), per masked copy of one window."""
    if not segments[0].covariates:
        raise ValueError("covariate required")
    X = stack_covariates(np.empty((len(segments[0]), 0)), segments[0].covariates)
    return _fit_heads(segments, X, lam, gram=centred_gram(X))


def _each(impute: Callable[[Segment], Imputation], segments: list[Segment]) -> list[Imputation]:
    """A local imputer's imputation of each segment, one at a time."""
    return [impute(segment) for segment in segments]


# Registry ids: each local id names its imputer function, which imputes one
# segment at a time; covar_ridge imputes a window's segments together, as each
# tix id does. Each tix id names a feature basis, and appending "_q" gives its
# quantile variant.
_LOCAL_IMPUTERS = {"linear": impute_linear, "locf": impute_locf, "seasonal_naive": impute_seasonal_naive}
# Each tix id's basis kind and the params that configure it, each the
# FeatureSpec field of its name.
_TIX_BASES = {
    "tix_fourier": (HANDCRAFTED_FOURIER, ("periods",)),
    "tix_random_basis": (RANDOM_FOURIER, ("n_random", "freq_range", "basis_seed")),
}
# The params an entry of each id may set: its imputer function's keyword
# parameters, with a tix id's basis params in place of its fspec, and
# quantile_levels on the _q ids only.
_PARAMS = {"linear": set(), "locf": set(), "seasonal_naive": {"season"}, "covar_ridge": {"lam"}}
for _tix_id, (_, _basis_keys) in _TIX_BASES.items():
    _PARAMS[_tix_id] = {"lam", "use_covariates", *_basis_keys}
    _PARAMS[f"{_tix_id}_q"] = _PARAMS[_tix_id] | {"quantile_levels"}


def _quantile_levels(levels) -> tuple[float, ...]:
    """The levels, which key the quantile fits, as floats: at least one, each inside (0, 1) and above the one before."""
    checked = [0.0]
    for level in sequence(levels, "quantile_levels", most=MAX_QUANTILE_LEVELS):
        checked.append(real_number(level, "quantile_levels", above=checked[-1], below=1))
    if len(checked) == 1:
        raise ValueError(f"quantile_levels must be a non-empty list, got {levels!r}")
    return tuple(checked[1:])


def _checked_params(imputer_id: str, params: dict) -> dict:
    """``params`` of an entry of ``imputer_id``, each replaced by what its rule returns, a basis param by what
    ``FeatureSpec`` stores; no default is added. An unknown id or param or a bad value is a ValueError."""
    if not isinstance(imputer_id, str) or imputer_id not in _PARAMS:
        raise ValueError(f"unknown imputer {imputer_id!r}")
    unknown = sorted(params.keys() - _PARAMS[imputer_id])
    if unknown:
        raise ValueError(f"unknown param {', '.join(map(repr, unknown))}")
    if params.get("season") is not None:  # a null season is the series' seasonal period
        params["season"] = whole_number(params["season"], "season", least=1)
    if "lam" in params:
        params["lam"] = real_number(params["lam"], "lam", least=0)
    if "quantile_levels" in params:
        params["quantile_levels"] = _quantile_levels(params["quantile_levels"])
    if not isinstance(params.get("use_covariates", False), bool):
        raise ValueError(f"use_covariates must be true or false, got {params['use_covariates']!r}")
    if imputer_id.startswith("tix_"):
        kind, basis_keys = _TIX_BASES[imputer_id.removesuffix("_q")]
        fspec = FeatureSpec(kind, **{key: params[key] for key in basis_keys if key in params})
        params.update({key: getattr(fspec, key) for key in basis_keys if key in params})
    return params


def make_imputer(imputer_id: str, **params) -> Callable[[list[Segment]], list[Imputation]]:
    """Look up an imputer by registry id and bind its params; an unknown id or param or a bad value is a ValueError.
    The imputer maps the masked copies of one window to one ``Imputation`` each, in their order."""
    params = _checked_params(imputer_id, params)
    if imputer_id == "covar_ridge":
        return functools.partial(impute_covariate_ridge, **params)
    if imputer_id in _LOCAL_IMPUTERS:
        return functools.partial(_each, functools.partial(_LOCAL_IMPUTERS[imputer_id], **params))
    kind, basis_keys = _TIX_BASES[imputer_id.removesuffix("_q")]
    fspec = FeatureSpec(kind, **{key: params.pop(key) for key in basis_keys if key in params})
    if imputer_id.endswith("_q"):
        params.setdefault("quantile_levels", DEFAULT_QUANTILE_LEVELS)
    return functools.partial(impute_time_indexed, fspec=fspec, **params)
