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

from .core import FrequencySpec, real_number, sequence, whole_number

HANDCRAFTED_FOURIER = "handcrafted_fourier"
RANDOM_FOURIER = "random_fourier"
# The widest basis: n_random = 1024, or as many periods, gives a window d = 2049 columns and its stack of four d x d
# ridge systems (one per default scenario) 4 * 2049**2 * 8 bytes = 134 MB; n_random = 20000 would ask 12.8 GB a Gram.
MAX_N_RANDOM = 1024


@dataclass(frozen=True)
class FeatureSpec:
    """Configuration of a feature basis.

    ``periods`` applies to the handcrafted basis (empty means daily+weekly
    derived from the frequency metadata). ``n_random``, ``freq_range`` (in
    cycles per segment) and ``basis_seed`` configure the random basis.
    """

    kind: str = HANDCRAFTED_FOURIER
    periods: tuple[float, ...] = ()
    n_random: int = 64
    freq_range: tuple[float, float] = (0.5, 400.0)
    basis_seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in (HANDCRAFTED_FOURIER, RANDOM_FOURIER):
            raise ValueError(f"unknown feature kind {self.kind!r}")
        # Tuples keep the spec hashable, so it can key the basis cache.
        periods = sequence(self.periods, "periods", most=MAX_N_RANDOM)
        object.__setattr__(self, "periods", tuple(real_number(p, "periods", above=0) for p in periods))
        lo, hi = sequence(self.freq_range, "freq_range", n=2)
        lo = real_number(lo, "freq_range", above=0)
        object.__setattr__(self, "freq_range", (lo, real_number(hi, "freq_range", above=lo)))
        if self.kind == RANDOM_FOURIER:
            object.__setattr__(self, "n_random", whole_number(self.n_random, "n_random", 1, MAX_N_RANDOM))
            object.__setattr__(self, "basis_seed", whole_number(self.basis_seed, "basis_seed", least=0))


def _normalized_time(ticks) -> tuple[np.ndarray, np.ndarray]:
    t = np.asarray(ticks, dtype=float)
    if t.ndim != 1 or len(t) == 0 or not np.all(np.isfinite(t)):
        raise ValueError("ticks must be a nonempty, finite 1-D sequence")
    span = t.max() - t.min()
    if span < 1:
        raise ValueError("degenerate segment")
    return t - t.min(), (t - t.min()) / span


def _fourier_rows(t_norm: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Rows (t_norm, sin theta_1, cos theta_1, sin theta_2, ...) for an (n, k) theta."""
    rows = np.empty((len(t_norm), 1 + 2 * theta.shape[1]))
    rows[:, 0] = t_norm
    rows[:, 1::2] = np.sin(theta)
    rows[:, 2::2] = np.cos(theta)
    return rows


def handcrafted_features(ticks, freq: FrequencySpec, periods: tuple[float, ...] | None = None) -> np.ndarray:
    """Rows (t_norm, sin/cos at each period), periods in raw ticks.

    ``t_norm`` runs over [0, 1] across the ticks given (pass the full segment
    range). The sine/cosine arguments use raw tick offsets, so a stated
    period is exact in ticks, and rows one week apart share identical
    Fourier entries.
    """
    offsets, t_norm = _normalized_time(ticks)
    if periods is None or len(periods) == 0:
        periods = (float(freq.steps_per_day), float(freq.steps_per_week))
    return _fourier_rows(t_norm, 2.0 * np.pi * offsets[:, None] / np.asarray(periods, dtype=float))


def random_fourier_basis(ticks, spec: FeatureSpec) -> np.ndarray:
    """Rows (t_norm, sin/cos pairs at seeded random frequencies).

    Frequencies are log-uniform over ``spec.freq_range`` in cycles per
    segment, phases uniform in [0, 2pi); both depend only on the FeatureSpec,
    so one spec yields the same basis functions on every segment.
    """
    if spec.kind != RANDOM_FOURIER:
        raise ValueError("spec.kind must be random_fourier")
    _, t_norm = _normalized_time(ticks)
    rng = np.random.default_rng(spec.basis_seed)
    lo, hi = spec.freq_range
    freqs = np.exp(rng.uniform(np.log(lo), np.log(hi), size=spec.n_random))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=spec.n_random)
    return _fourier_rows(t_norm, 2.0 * np.pi * freqs * t_norm[:, None] + phases)


def stack_covariates(base: np.ndarray, covariates: dict[str, np.ndarray]) -> np.ndarray:
    """Append covariate channels to the feature rows, one column per channel.

    Channels are appended as given, in sorted-name order; the heads
    standardize every column over their context rows. Covariates must be
    fully observed wherever features are requested (NaN anywhere is an error).
    """
    if not covariates:
        return base
    cols = [base]
    for name in sorted(covariates):
        ch = np.asarray(covariates[name], dtype=float)
        if len(ch) != base.shape[0]:
            raise ValueError(f"covariate {name!r} length mismatch")
        if not np.all(np.isfinite(ch)):
            raise ValueError("covariate not fully observed")
        cols.append(ch[:, None])
    return np.hstack(cols)
