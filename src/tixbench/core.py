"""Time-series data model, normalization, chronological splits, segment windows.

All containers are frozen dataclasses holding numpy arrays and are treated as
immutable after construction; every operation in this module is a pure
function, safe to call from any number of workers.

Timestamps live on a regular integer grid with step 1 (one sampling step per
tick). Irregular sampling is expressed through the observation mask, never
through the timestamps themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

STD_FLOOR = 1e-8


def round_half_up(x: float) -> int:
    """Round to the nearest integer, halves away from zero (0.5 -> 1)."""
    return int(math.floor(x + 0.5))


def floored_std(values) -> float:
    """The population std of ``values``, floored at ``STD_FLOOR``: the scale
    of z-normalized scores and of the heads' standardized targets."""
    return max(float(np.std(values)), STD_FLOOR)


@dataclass(frozen=True)
class FrequencySpec:
    """Sampling-rate metadata: ticks per day/week and the seasonal period.

    Counts are whole numbers (24.0 is stored as 24). ``steps_per_week`` is 7 *
    ``steps_per_day`` (pass 0 to derive it); ``seasonal_period`` defaults to one day.
    """

    steps_per_day: int
    steps_per_week: int = 0
    seasonal_period: int = 0

    def __post_init__(self) -> None:
        for name in ("steps_per_day", "steps_per_week", "seasonal_period"):
            value = getattr(self, name)
            if not float(value).is_integer():
                raise ValueError(f"{name} must be a whole number, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.steps_per_day < 1:
            raise ValueError("steps_per_day must be a positive integer")
        if self.steps_per_week == 0:
            object.__setattr__(self, "steps_per_week", 7 * self.steps_per_day)
        if self.steps_per_week != 7 * self.steps_per_day:
            raise ValueError("steps_per_week must equal 7 * steps_per_day")
        if self.seasonal_period == 0:
            object.__setattr__(self, "seasonal_period", self.steps_per_day)
        if self.seasonal_period < 1:
            raise ValueError("seasonal_period must be >= 1")


def _as_float_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    return arr


def _as_bool_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=bool)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    return arr


@dataclass(frozen=True)
class TimeSeries:
    """A univariate series on a regular tick grid, plus optional covariates.

    ``values`` at positions where ``obs_mask`` is false are undefined and must
    never be read by consumers. Covariate channels are aligned to the same
    grid; NaN marks a missing covariate cell.
    """

    id: str
    timestamps: np.ndarray
    values: np.ndarray
    obs_mask: np.ndarray
    freq: FrequencySpec
    covariates: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        ts = np.asarray(self.timestamps, dtype=np.int64)
        if ts.ndim != 1:
            raise ValueError("timestamps must be one-dimensional")
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "values", _as_float_array(self.values, "values"))
        object.__setattr__(self, "obs_mask", _as_bool_array(self.obs_mask, "obs_mask"))
        n = len(ts)
        if len(self.values) != n or len(self.obs_mask) != n:
            raise ValueError("values and obs_mask must match timestamps in length")
        if n > 1 and not np.all(np.diff(ts) == 1):
            raise ValueError("timestamps must be strictly increasing with step 1")
        covs = {k: _as_float_array(v, f"covariate {k!r}") for k, v in self.covariates.items()}
        for k, v in covs.items():
            if len(v) != n:
                raise ValueError(f"covariate {k!r} must match timestamps in length")
        object.__setattr__(self, "covariates", covs)

    def __len__(self) -> int:
        return len(self.timestamps)


@dataclass(frozen=True)
class Segment:
    """A contiguous evaluation window extracted from a parent series.

    ``obs_mask`` marks what an imputer may see; ``eval_mask`` marks held-out
    positions that will be scored. The two masks are disjoint, and callers
    must only ever move parent-observed positions into ``eval_mask``. One
    visible position is all an imputer needs; whether a task has a position
    to score is ``apply_scenario``'s call. Scores are normalized by the
    ``floored_std`` of ``values[obs_mask]``, so held-out values never enter it.
    """

    start: int
    length: int
    values: np.ndarray
    obs_mask: np.ndarray
    eval_mask: np.ndarray
    freq: FrequencySpec
    covariates: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("segment length must be positive")
        object.__setattr__(self, "values", _as_float_array(self.values, "values"))
        object.__setattr__(self, "obs_mask", _as_bool_array(self.obs_mask, "obs_mask"))
        object.__setattr__(self, "eval_mask", _as_bool_array(self.eval_mask, "eval_mask"))
        if not (len(self.values) == len(self.obs_mask) == len(self.eval_mask) == self.length):
            raise ValueError("values, obs_mask and eval_mask must all have length `length`")
        if np.any(self.obs_mask & self.eval_mask):
            raise ValueError("obs_mask and eval_mask must be disjoint")
        if not np.any(self.obs_mask):
            raise ValueError("segment has no observed positions")
        covs = {k: _as_float_array(v, f"covariate {k!r}") for k, v in self.covariates.items()}
        for k, v in covs.items():
            if len(v) != self.length:
                raise ValueError(f"covariate {k!r} must have length `length`")
        object.__setattr__(self, "covariates", covs)

    def __len__(self) -> int:
        return self.length


def _split_fractions(fractions) -> tuple[float, float, float]:
    """The split fractions as floats; there must be three, each positive, summing to 1."""
    fr = tuple(float(f) for f in fractions)
    if len(fr) != 3 or min(fr) <= 0 or abs(sum(fr) - 1.0) > 1e-9:
        raise ValueError(f"splits must be three positive fractions that sum to 1, got {list(fr)}")
    return fr


def _check_window(len_days, stride) -> None:
    """A window spans a whole number of days, at least one; its stride range, in days, has 0 < min <= max."""
    if len_days < 1 or not float(len_days).is_integer():
        raise ValueError(f"len_days must be a whole number >= 1, got {len_days!r}")
    if len(stride) != 2 or not 0 < stride[0] <= stride[1]:
        raise ValueError(f"stride needs two day counts with 0 < min <= max, got {list(stride)}")


def chrono_split(
    series: TimeSeries, fractions: tuple[float, float, float]
) -> tuple[TimeSeries, TimeSeries, TimeSeries]:
    """Split a series into three contiguous chronological slices.

    Boundary indices are floor(n * cumulative fraction); any remainder goes to
    the last slice, so concatenating the parts reproduces the input exactly.
    """
    fr = _split_fractions(fractions)
    n = len(series)
    if n < 3:
        raise ValueError("series too short to split")
    # The 1e-9 nudge keeps exact ratios (e.g. thirds) from landing one short
    # of their integer boundary through float rounding.
    b1 = int(math.floor(n * fr[0] + 1e-9))
    b2 = int(math.floor(n * (fr[0] + fr[1]) + 1e-9))
    bounds = [(0, b1), (b1, b2), (b2, n)]

    def _slice(lo: int, hi: int) -> TimeSeries:
        return TimeSeries(
            id=series.id,
            timestamps=series.timestamps[lo:hi],
            values=series.values[lo:hi],
            obs_mask=series.obs_mask[lo:hi],
            freq=series.freq,
            covariates={k: v[lo:hi] for k, v in series.covariates.items()},
        )

    return tuple(_slice(lo, hi) for lo, hi in bounds)


def extract_segments(
    series: TimeSeries,
    seg_len_days: int = 28,
    stride_min_days: float = 0.5,
    stride_max_days: float = 2.0,
    seed: int = 0,
) -> list[Segment]:
    """Slide a fixed-length window over the series with a random stride.

    After each window the start advances by round(u * steps_per_day) ticks,
    u drawn uniformly from [stride_min_days, stride_max_days] by the seeded
    generator; iteration stops once a full window no longer fits. Windows
    containing no observed position are skipped. Deterministic per seed.
    """
    _check_window(seg_len_days, (stride_min_days, stride_max_days))
    steps = series.freq.steps_per_day
    window = seg_len_days * steps
    n = len(series)
    rng = np.random.default_rng(seed)
    segments: list[Segment] = []
    pos = 0
    while pos + window <= n:
        obs = series.obs_mask[pos : pos + window]
        if np.any(obs):
            segments.append(
                Segment(
                    start=pos,
                    length=window,
                    values=series.values[pos : pos + window].copy(),
                    obs_mask=obs.copy(),
                    eval_mask=np.zeros(window, dtype=bool),
                    freq=series.freq,
                    covariates={k: v[pos : pos + window].copy() for k, v in series.covariates.items()},
                )
            )
        u = rng.uniform(stride_min_days, stride_max_days)
        pos += max(1, round_half_up(u * steps))
    return segments
