"""Time-series data model, normalization, chronological splits, segment windows.

All containers are frozen dataclasses holding numpy arrays and are treated as
immutable after construction; every operation in this module is a pure
function, safe to call from any number of workers.

A series lives on a regular integer grid with step 1: position i is tick
``start + i`` of the series it was cut from, so no timestamps are stored.
Irregular sampling is expressed through the observation mask, never through
the grid itself.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from numbers import Integral, Real
from operator import ge, gt, le, lt

import numpy as np

STD_FLOOR = 1e-8
# The largest magnitude a loaded value may have. Stds and Grams square deviations and sum them over a window, which
# overflows from about 1e154; at 1e100 no window is long enough to overflow, and no measured quantity comes near it.
MAX_MAGNITUDE = 1e100


def round_half_up(x: float) -> int:
    """Round to the nearest integer, halves away from zero (0.5 -> 1)."""
    return int(math.floor(x + 0.5))


def _bounds(least=None, above=None, below=None, most=None) -> list[tuple]:
    """The (text, compare, bound) of each bound given: ``>= least``, ``> above``, ``< below``, ``<= most``."""
    checks = ((">=", ge, least), (">", gt, above), ("<", lt, below), ("<=", le, most))
    return [(f" {op} {bound}", compare, bound) for op, compare, bound in checks if bound is not None]


def whole_number(value, name: str, least: int | None = None, most: int | None = None) -> int:
    """``value``, an integer or an integral float (24.0 is 24) within each bound given (>= ``least``, <= ``most``),
    as an int; anything else, a bool, NaN or an infinity included, is a ``ValueError`` naming ``name``."""
    count = int(value) if isinstance(value, float) and value.is_integer() else value
    bounds = _bounds(least=least, most=most)
    if isinstance(count, bool) or not isinstance(count, Integral) or not all(c(count, b) for _, c, b in bounds):
        raise ValueError(f"{name} must be a whole number{' and'.join(text for text, _, _ in bounds)}, got {value!r}")
    return int(count)


def real_number(value, name: str, least=None, above=None, below=None) -> float:
    """``value``, an int or a float, as a float within each bound given (>= ``least``, > ``above``, < ``below``);
    a bool, string, None, sequence, NaN, infinity or int too large for a float is a ``ValueError`` naming ``name``."""
    # abs() compares even an int too large for a float exactly, and no NaN or infinity passes it.
    real = isinstance(value, Real) and not isinstance(value, bool) and abs(value) <= sys.float_info.max
    bounds = _bounds(least, above, below)
    if not real or not all(compare(value, bound) for _, compare, bound in bounds):
        raise ValueError(f"{name} must be a finite number{' and'.join(text for text, _, _ in bounds)}, got {value!r}")
    return float(value)


def sequence(raw, where: str, n: int | None = None, most: int | None = None) -> list:
    """``raw``, a list or a tuple (not a string), as a list of ``n`` items if given, and at most ``most`` if given."""
    if not isinstance(raw, (list, tuple)) or n not in (None, len(raw)):
        raise ValueError(f"{where}: expected a list{'' if n is None else f' of {n}'}, got {raw!r}")
    if most is not None and len(raw) > most:
        raise ValueError(f"{where}: expected a list of at most {most} items, got {len(raw)}")
    return list(raw)


def floored_std(values) -> float:
    """The population std of ``values``, floored at ``STD_FLOOR``: the scale
    of z-normalized scores and of the heads' standardized targets."""
    return max(float(np.std(values)), STD_FLOOR)


@dataclass(frozen=True)
class FrequencySpec:
    """Sampling-rate metadata: ticks per day and the seasonal period.

    Counts are whole numbers (24.0 is stored as 24). A week is 7 days;
    ``seasonal_period`` defaults to one day.
    """

    steps_per_day: int
    seasonal_period: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps_per_day", whole_number(self.steps_per_day, "steps_per_day", least=1))
        period = whole_number(self.seasonal_period, "seasonal_period", least=0)
        object.__setattr__(self, "seasonal_period", period or self.steps_per_day)

    @property
    def steps_per_week(self) -> int:
        return 7 * self.steps_per_day


def _vector(x, dtype, name: str, n: int | None = None) -> np.ndarray:
    """``x`` as a one-dimensional ``dtype`` array, of length ``n`` if given."""
    arr = np.asarray(x, dtype=dtype)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if n is not None and len(arr) != n:
        raise ValueError(f"{name} must match values in length")
    return arr


@dataclass(frozen=True)
class TimeSeries:
    """A univariate series on a regular tick grid, plus optional covariates.

    ``values`` at positions where ``obs_mask`` is false are undefined and must
    never be read by consumers. Covariate channels are aligned to the same
    grid; NaN marks a missing covariate cell. ``start`` is the offset of the
    first tick in the series this one was cut from (0 for a whole series).
    """

    id: str
    values: np.ndarray
    obs_mask: np.ndarray
    freq: FrequencySpec
    covariates: dict[str, np.ndarray] = field(default_factory=dict)
    start: int = 0

    def __post_init__(self) -> None:
        values = _vector(self.values, float, "values")
        n = len(values)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "obs_mask", _vector(self.obs_mask, bool, "obs_mask", n))
        covs = {k: _vector(v, float, f"covariate {k!r}", n) for k, v in self.covariates.items()}
        object.__setattr__(self, "covariates", covs)

    def __len__(self) -> int:
        return len(self.values)

    def window(self, lo: int, hi: int) -> TimeSeries:
        """Positions ``lo`` to ``hi - 1`` as a series whose ``start`` is ``lo``.

        The window shares this series' arrays; nothing writes to them.
        """
        covs = {k: v[lo:hi] for k, v in self.covariates.items()}
        return TimeSeries(self.id, self.values[lo:hi], self.obs_mask[lo:hi], self.freq, covs, lo)


@dataclass(frozen=True)
class Segment(TimeSeries):
    """A contiguous evaluation window of a parent series, with a held-out mask.

    ``obs_mask`` marks what an imputer may see; ``eval_mask`` (all false by
    default) marks held-out positions that will be scored. The two masks are
    disjoint, and callers must only ever move parent-observed positions into
    ``eval_mask``. One visible position is all an imputer needs; whether a
    task has a position to score is ``apply_scenario``'s call. Scores are
    normalized by the ``floored_std`` of ``values[obs_mask]``, so held-out
    values never enter it.
    """

    eval_mask: np.ndarray | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        n = len(self)
        evl = np.zeros(n, dtype=bool) if self.eval_mask is None else _vector(self.eval_mask, bool, "eval_mask", n)
        object.__setattr__(self, "eval_mask", evl)
        if np.any(self.obs_mask & evl):
            raise ValueError("obs_mask and eval_mask must be disjoint")
        if not np.any(self.obs_mask):
            raise ValueError("segment has no observed positions")


def _split_fractions(fractions) -> tuple[float, float, float]:
    """The split fractions as floats; there must be three, each positive, summing to 1."""
    fr = tuple(real_number(f, "splits", above=0) for f in sequence(fractions, "splits", n=3))
    if abs(sum(fr) - 1.0) > 1e-9:
        raise ValueError(f"splits must sum to 1, got {list(fr)}")
    return fr


# The most days one segment window may span: 10,000 (27 years), far above the 28 of the demo, the bench and the tests.
# A longer one is a slip, which would load and end in a no-segment line quoting a window of hundreds of digits.
MAX_SEGMENT_DAYS = 10_000


def _check_window(len_days, stride) -> tuple[int, float, float]:
    """A segment's day count, a whole number in [1, MAX_SEGMENT_DAYS], and stride range in days, 0 < min <= max."""
    days = whole_number(len_days, "segment.len_days", least=1, most=MAX_SEGMENT_DAYS)
    low, high = sequence(stride, "segment.stride", n=2)
    low = real_number(low, "segment.stride", above=0)
    return days, low, real_number(high, "segment.stride", least=low)


def chrono_split(
    series: TimeSeries, fractions: tuple[float, float, float]
) -> tuple[TimeSeries, TimeSeries, TimeSeries]:
    """Split a series into three contiguous chronological windows.

    Boundary indices are floor(n * cumulative fraction); any remainder goes to
    the last window, so concatenating the parts reproduces the input exactly.
    """
    fr = _split_fractions(fractions)
    n = len(series)
    if n < 3:
        raise ValueError(f"series too short to split: {n} ticks")
    # The 1e-9 nudge keeps exact ratios (e.g. thirds) from landing one short
    # of their integer boundary through float rounding.
    b1 = int(math.floor(n * fr[0] + 1e-9))
    b2 = int(math.floor(n * (fr[0] + fr[1]) + 1e-9))
    return series.window(0, b1), series.window(b1, b2), series.window(b2, n)


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
    steps = series.freq.steps_per_day
    window = _check_window(seg_len_days, (stride_min_days, stride_max_days))[0] * steps
    n = len(series)
    rng = np.random.default_rng(seed)
    segments: list[Segment] = []
    pos = 0
    while pos + window <= n:
        part = series.window(pos, pos + window)
        if np.any(part.obs_mask):
            segments.append(Segment(**vars(part)))
        u = rng.uniform(stride_min_days, stride_max_days)
        pos += max(1, round_half_up(u * steps))
    return segments
