"""Synthetic series generators for desk-scale benchmarking.

Series are sums of simple components (sinusoids, linear trend, Gaussian
noise, covariate-driven terms) on a regular tick grid, fully observed and
bitwise reproducible per seed. Covariate-driven components emit the
covariate channel itself alongside its contribution to the target; the
covariate path is a standardized smooth autoregressive signal, so it
carries structure a purely time-based feature basis cannot explain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import FrequencySpec, TimeSeries, whole_number

SINE = "sine"
TREND = "trend"
NOISE = "noise"
COVARIATE_LINEAR = "covariate_linear"


@dataclass(frozen=True)
class Component:
    """One additive component of a synthetic series.

    ``amplitude`` is the sine amplitude or the trend slope per tick;
    ``period_ticks`` applies to sines, ``noise_std`` to noise and
    ``covariate_gain`` to covariate-driven terms.
    """

    kind: str
    amplitude: float = 1.0
    period_ticks: float | None = None
    noise_std: float | None = None
    covariate_gain: float | None = None

    def __post_init__(self) -> None:
        for name in ("amplitude", "period_ticks", "noise_std", "covariate_gain"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, value := float(getattr(self, name)))
                if not math.isfinite(value):
                    raise ValueError(f"{name} must be finite, got {value!r}")
        if self.kind not in (SINE, TREND, NOISE, COVARIATE_LINEAR):
            raise ValueError(f"unknown component kind {self.kind!r}")
        if self.kind == SINE and (self.period_ticks is None or self.period_ticks <= 0):
            raise ValueError("sine requires a positive period_ticks")
        if self.kind == NOISE and (self.noise_std is None or self.noise_std < 0):
            raise ValueError("noise requires a nonnegative noise_std")
        if self.kind == COVARIATE_LINEAR and self.covariate_gain is None:
            raise ValueError("covariate_linear requires covariate_gain")


@dataclass(frozen=True)
class SynthSpec:
    length_days: int
    freq: FrequencySpec
    components: tuple[Component, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "length_days", whole_number(self.length_days, "length_days", least=28))
        object.__setattr__(self, "seed", whole_number(self.seed, "seed", least=0))
        if not self.components:
            raise ValueError("need at least one component")


def _smooth_path(rng: np.random.Generator, n: int, steps_per_day: int) -> np.ndarray:
    # AR(1) with a correlation time of about half a day, then standardized.
    phi = float(np.exp(-2.0 / steps_per_day))
    acc, path = 0.0, []
    for innov in (np.sqrt(1.0 - phi * phi) * rng.normal(0.0, 1.0, size=n)).tolist():
        path.append(acc := phi * acc + innov)
    path = np.array(path)
    std = path.std()
    if std == 0.0:
        return path
    return (path - path.mean()) / std


def generate(spec: SynthSpec, series_id: str = "synth") -> TimeSeries:
    """Materialize a fully-observed series (and covariates) from a spec."""
    n = spec.length_days * spec.freq.steps_per_day
    t = np.arange(n, dtype=float)
    values = np.zeros(n)
    covariates: dict[str, np.ndarray] = {}
    n_cov = 0
    for idx, comp in enumerate(spec.components):
        rng = np.random.default_rng([spec.seed, idx])
        if comp.kind == SINE:
            values += comp.amplitude * np.sin(2.0 * np.pi * t / comp.period_ticks)
        elif comp.kind == TREND:
            values += comp.amplitude * t
        elif comp.kind == NOISE:
            values += rng.normal(0.0, comp.noise_std, size=n) if comp.noise_std > 0 else 0.0
        else:
            n_cov += 1
            path = _smooth_path(rng, n, spec.freq.steps_per_day)
            covariates[f"cov{n_cov}"] = path
            values += comp.covariate_gain * path
    return TimeSeries(
        id=series_id,
        values=values,
        obs_mask=np.ones(n, dtype=bool),
        freq=spec.freq,
        covariates=covariates,
    )
