"""Per-timestamp feature construction for in-context regression.

Every imputed timestamp gets a contextual feature row built purely from the
time axis (and, optionally, fully-observed covariates), never from target
values, so there is no leakage from held-out positions.

Two bases are available: a handcrafted one (normalized time index plus
sine/cosine pairs at the daily and weekly periods) and a seeded random
Fourier basis whose frequencies are drawn log-uniformly in cycles per
segment. The random basis stands in for richer learned representations; it
is a surrogate, and results obtained with it should be labelled as such.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import STD_FLOOR, FrequencySpec

HANDCRAFTED_FOURIER = "handcrafted_fourier"
RANDOM_FOURIER = "random_fourier"


@dataclass(frozen=True)
class FeatureSpec:
    """Configuration of a feature basis.

    ``periods`` applies to the handcrafted basis (empty means daily+weekly
    derived from the frequency metadata). ``n_random``, ``freq_range`` (in
    cycles per segment) and ``seed`` configure the random basis.
    """

    kind: str = HANDCRAFTED_FOURIER
    periods: tuple[float, ...] = ()
    n_random: int = 64
    freq_range: tuple[float, float] = (0.5, 400.0)
    seed: int = 0

    def __post_init__(self) -> None:
        # Tuples keep the spec hashable, so it can key the basis cache.
        object.__setattr__(self, "periods", tuple(self.periods))
        object.__setattr__(self, "freq_range", tuple(self.freq_range))
        if self.kind not in (HANDCRAFTED_FOURIER, RANDOM_FOURIER):
            raise ValueError(f"unknown feature kind {self.kind!r}")
        if any(p <= 0 for p in self.periods):
            raise ValueError("periods must be positive")
        if self.kind == RANDOM_FOURIER:
            if self.n_random < 1:
                raise ValueError("n_random must be >= 1")
            lo, hi = self.freq_range
            if not (0 < lo < hi):
                raise ValueError("freq_range must satisfy 0 < min < max")


@dataclass(frozen=True)
class FeatureMatrix:
    """One feature row per timestamp; all rows finite and of equal dim."""

    rows: np.ndarray
    dim: int
    t_norm: np.ndarray

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows, dtype=float)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "t_norm", np.asarray(self.t_norm, dtype=float))
        if rows.ndim != 2 or rows.shape[1] != self.dim:
            raise ValueError("rows must be 2-D with `dim` columns")
        if not np.all(np.isfinite(rows)):
            raise ValueError("feature rows must be finite")


def _normalized_time(ticks) -> tuple[np.ndarray, np.ndarray]:
    t = np.asarray(ticks, dtype=float)
    if t.ndim != 1 or len(t) == 0:
        raise ValueError("ticks must be a nonempty 1-D sequence")
    span = t.max() - t.min()
    if span < 1:
        raise ValueError("degenerate segment")
    return t - t.min(), (t - t.min()) / span


def handcrafted_features(
    ticks, freq: FrequencySpec, periods: tuple[float, ...] | None = None
) -> FeatureMatrix:
    """Rows (t_norm, sin/cos at each period), periods in raw ticks.

    ``t_norm`` runs over [0, 1] across the ticks given (pass the full segment
    range). The sine/cosine arguments use raw tick offsets, so a stated
    period is exact in ticks, and rows one week apart share identical
    Fourier entries.
    """
    offsets, t_norm = _normalized_time(ticks)
    if periods is None or len(periods) == 0:
        periods = (float(freq.steps_per_day), float(freq.steps_per_week))
    cols = [t_norm]
    for p in periods:
        theta = 2.0 * np.pi * offsets / p
        cols.append(np.sin(theta))
        cols.append(np.cos(theta))
    rows = np.column_stack(cols)
    return FeatureMatrix(rows=rows, dim=rows.shape[1], t_norm=t_norm)


def random_fourier_basis(ticks, spec: FeatureSpec) -> FeatureMatrix:
    """Rows (t_norm, sin/cos pairs at seeded random frequencies).

    Frequencies are log-uniform over ``spec.freq_range`` in cycles per
    segment, phases uniform in [0, 2pi); both depend only on the FeatureSpec,
    so one spec yields the same basis functions on every segment.
    """
    if spec.kind != RANDOM_FOURIER:
        raise ValueError("spec.kind must be random_fourier")
    _, t_norm = _normalized_time(ticks)
    rng = np.random.default_rng(spec.seed)
    lo, hi = spec.freq_range
    freqs = np.exp(rng.uniform(np.log(lo), np.log(hi), size=spec.n_random))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=spec.n_random)
    cols = [t_norm]
    for f, phi in zip(freqs, phases):
        theta = 2.0 * np.pi * f * t_norm + phi
        cols.append(np.sin(theta))
        cols.append(np.cos(theta))
    rows = np.column_stack(cols)
    return FeatureMatrix(rows=rows, dim=rows.shape[1], t_norm=t_norm)


def stack_covariates(
    base: FeatureMatrix, covariates: dict[str, np.ndarray], std_floor: float = STD_FLOOR
) -> FeatureMatrix:
    """Append covariate channels to the feature rows, one column per channel.

    Channels are appended in sorted-name order, each z-normalized by its own
    statistics over the requested timestamps. Covariates must be fully
    observed wherever features are requested (NaN anywhere is an error).
    """
    if not covariates:
        return base
    cols = [base.rows]
    for name in sorted(covariates):
        ch = np.asarray(covariates[name], dtype=float)
        if len(ch) != base.rows.shape[0]:
            raise ValueError(f"covariate {name!r} length mismatch")
        if not np.all(np.isfinite(ch)):
            raise ValueError("covariate not fully observed")
        std = max(float(np.std(ch)), std_floor)
        cols.append(((ch - np.mean(ch)) / std)[:, None])
    rows = np.hstack(cols)
    return FeatureMatrix(rows=rows, dim=rows.shape[1], t_norm=base.t_norm)
