"""Reproducible missingness scenarios over fully-observed segments.

Two families: pointwise removal of a fixed fraction of the visible
observations, and removal of whole day-aligned blocks. Applying a scenario
moves positions from the observation mask into the evaluation mask, so the
held-out ground truth stays available for scoring while the imputer only
sees the remaining context.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Segment, real_number, round_half_up, whole_number

POINTWISE = "pointwise"
BLOCKS = "blocks"

_REJECTION_LIMIT = 1000


class InfeasibleScenario(ValueError):
    """The scenario cannot apply: too few fully visible days, or a draw that hides no visible position or every one."""


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
        if self.label is None or not str(self.label):
            raise ValueError(f"scenario label must be nonempty, got {self.label!r}")
        object.__setattr__(self, "label", str(self.label))
        if self.kind not in (POINTWISE, BLOCKS):
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if self.kind == POINTWISE:
            object.__setattr__(self, "param", real_number(self.param, "pointwise param", above=0, below=1))
        if self.kind == BLOCKS:
            object.__setattr__(self, "param", whole_number(self.param, "blocks param", least=1))


DEFAULT_SCENARIOS: tuple[Scenario, ...] = (
    Scenario(POINTWISE, 0.5, "pointwise1"),
    Scenario(POINTWISE, 0.7, "pointwise2"),
    Scenario(BLOCKS, 2, "blocks1"),
    Scenario(BLOCKS, 4, "blocks2"),
)


def _pick_block_days(rng: np.random.Generator, feasible: list[int], k: int) -> list[int]:
    # Rejection sampling of k non-overlapping day slots; if rejection keeps
    # failing, one uniform draw without replacement from the same generator.
    for _ in range(_REJECTION_LIMIT):
        draw = rng.integers(0, len(feasible), size=k)
        if len(set(draw.tolist())) == k:
            return [feasible[i] for i in draw]
    return rng.choice(feasible, size=k, replace=False).tolist()


def apply_scenario(segment: Segment, scenario: Scenario, seed: int) -> Segment:
    """Move visible positions into the evaluation mask per the scenario.

    Pointwise(p) removes exactly round(p * n_visible) positions chosen
    uniformly without replacement. Blocks(k) removes k non-overlapping
    day-aligned runs of ``steps_per_day`` consecutive positions, chosen
    uniformly among the day slots that are fully visible. This is the one
    place that decides whether a task can be scored: it raises
    ``InfeasibleScenario`` for a block scenario without k fully visible days,
    and for a draw that hides no position or every visible one. Any segment
    it returns has both a visible context and a position to score.
    Deterministic for fixed (segment, scenario, seed).
    """
    rng = np.random.default_rng(seed)
    obs = segment.obs_mask.copy()
    evl = segment.eval_mask.copy()
    visible = np.flatnonzero(obs)

    if scenario.kind == POINTWISE:
        chosen = rng.choice(visible, size=round_half_up(scenario.param * len(visible)), replace=False)
    else:
        steps = segment.freq.steps_per_day
        feasible = np.flatnonzero(obs[: len(obs) // steps * steps].reshape(-1, steps).all(axis=1)).tolist()
        if len(feasible) < scenario.param:
            raise InfeasibleScenario("infeasible block scenario")
        days = _pick_block_days(rng, feasible, scenario.param)
        chosen = np.concatenate([np.arange(d * steps, (d + 1) * steps) for d in days])
    if not 0 < len(chosen) < len(visible):
        what = "hides no position" if len(chosen) == 0 else f"would hide all {len(visible)} visible positions"
        raise InfeasibleScenario(f"{scenario.kind} draw of {len(chosen)} {what}")

    obs[chosen] = False
    evl[chosen] = True
    # The copy skips the validation that ``segment`` passed, since its checks hold by construction: the chosen
    # positions are distinct and visible, so the masks stay disjoint, some position stays visible and no length moves.
    masked = object.__new__(type(segment))
    vars(masked).update(vars(segment), obs_mask=obs, eval_mask=evl)
    return masked
