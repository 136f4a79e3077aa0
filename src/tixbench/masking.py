"""Reproducible missingness scenarios over fully-observed segments.

Two families: pointwise removal of a fixed fraction of the visible
observations, and removal of whole day-aligned blocks. Applying a scenario
moves positions from the observation mask into the evaluation mask, so the
held-out ground truth stays available for scoring while the imputer only
sees the remaining context.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import Segment, round_half_up

POINTWISE = "pointwise"
BLOCKS = "blocks"

_REJECTION_LIMIT = 1000


class InfeasibleScenario(ValueError):
    """The segment cannot hold the scenario, e.g. too few fully visible days."""


@dataclass(frozen=True)
class Scenario:
    """A missingness scenario: kind, parameter and a stable report label.

    For ``pointwise`` the parameter is the fraction of visible observations
    removed (0 < param < 1); for ``blocks`` it is a whole number of days.
    """

    kind: str
    param: float
    label: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "label", str(self.label))
        if self.kind not in (POINTWISE, BLOCKS):
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if self.kind == POINTWISE and not (0.0 < self.param < 1.0):
            raise ValueError("pointwise fraction must lie strictly in (0, 1)")
        if self.kind == BLOCKS:
            if self.param < 1 or self.param != int(self.param):
                raise ValueError("blocks parameter must be a positive whole number of days")
        if not self.label:
            raise ValueError("scenario label must be nonempty")


DEFAULT_SCENARIOS: tuple[Scenario, ...] = (
    Scenario(POINTWISE, 0.5, "pointwise1"),
    Scenario(POINTWISE, 0.7, "pointwise2"),
    Scenario(BLOCKS, 2, "blocks1"),
    Scenario(BLOCKS, 4, "blocks2"),
)


def _pick_pointwise(rng: np.random.Generator, visible: np.ndarray, fraction: float) -> np.ndarray:
    k = round_half_up(fraction * len(visible))
    if k >= len(visible):
        raise InfeasibleScenario(f"pointwise draw of {k} would hide all {len(visible)} visible positions")
    return rng.choice(visible, size=k, replace=False)


def _pick_block_days(rng: np.random.Generator, feasible: list[int], k: int) -> list[int]:
    # Rejection sampling of k non-overlapping day slots, with a deterministic
    # lexicographic fallback if rejection keeps failing.
    for _ in range(_REJECTION_LIMIT):
        draw = rng.integers(0, len(feasible), size=k)
        if len(set(draw.tolist())) == k:
            return [feasible[i] for i in draw]
    return feasible[:k]


def apply_scenario(segment: Segment, scenario: Scenario, seed: int) -> Segment:
    """Move visible positions into the evaluation mask per the scenario.

    Pointwise(p) removes exactly round(p * n_visible) positions chosen
    uniformly without replacement. Blocks(k) removes k non-overlapping
    day-aligned runs of ``steps_per_day`` consecutive positions, chosen
    uniformly among the day slots that are fully visible. A scenario the
    segment cannot hold raises ``InfeasibleScenario``: a block scenario
    without k fully visible days, or a pointwise draw that would leave no
    visible position. Deterministic for fixed (segment, scenario, seed).
    """
    rng = np.random.default_rng(seed)
    obs = segment.obs_mask.copy()
    evl = segment.eval_mask.copy()
    visible = np.flatnonzero(obs)

    if scenario.kind == POINTWISE:
        chosen = _pick_pointwise(rng, visible, scenario.param)
    else:
        steps = segment.freq.steps_per_day
        k = int(scenario.param)
        if k * steps >= segment.length:
            raise InfeasibleScenario("infeasible block scenario")
        n_days = segment.length // steps
        feasible = [d for d in range(n_days) if obs[d * steps : (d + 1) * steps].all()]
        if len(feasible) < k:
            raise InfeasibleScenario("infeasible block scenario")
        days = _pick_block_days(rng, feasible, k)
        chosen = np.concatenate([np.arange(d * steps, (d + 1) * steps) for d in days])

    obs[chosen] = False
    evl[chosen] = True
    return replace(segment, obs_mask=obs, eval_mask=evl)
