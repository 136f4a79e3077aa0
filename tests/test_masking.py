from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tixbench import DEFAULT_SCENARIOS, InfeasibleScenario, Scenario, Segment, apply_scenario, floored_std
from conftest import make_segment

POINTWISE_HALF = Scenario("pointwise", 0.5, "pointwise1")
BLOCKS_FOUR = Scenario("blocks", 4, "blocks2")


def full_segment(n=672, seed=0):
    rng = np.random.default_rng(seed)
    return make_segment(rng.normal(size=n), np.ones(n, dtype=bool))


class TestScenario:
    def test_defaults_match_protocol(self):
        labels = [s.label for s in DEFAULT_SCENARIOS]
        assert labels == ["pointwise1", "pointwise2", "blocks1", "blocks2"]
        assert [s.param for s in DEFAULT_SCENARIOS] == [0.5, 0.7, 2, 4]

    def test_pointwise_fraction_bounds(self):
        with pytest.raises(ValueError):
            Scenario("pointwise", 1.0, "x")
        with pytest.raises(ValueError):
            Scenario("pointwise", 0.0, "x")

    @pytest.mark.parametrize("label", [None, ""])
    def test_label_must_be_a_nonempty_name(self, label):
        # None is refused, not stored as the string 'None'.
        with pytest.raises(ValueError, match=f"^scenario label must be nonempty, got {label!r}$"):
            Scenario("pointwise", 0.5, label)

    def test_blocks_must_be_whole_days(self):
        with pytest.raises(ValueError):
            Scenario("blocks", 1.5, "x")
        with pytest.raises(ValueError):
            Scenario("blocks", 0, "x")


class TestPointwise:
    def test_removes_half_of_100(self):
        seg = full_segment(n=100)
        masked = apply_scenario(seg, POINTWISE_HALF, seed=1)
        assert masked.eval_mask.sum() == 50

    def test_removes_seven_of_ten(self):
        seg = full_segment(n=10)
        masked = apply_scenario(seg, Scenario("pointwise", 0.7, "pointwise2"), seed=1)
        assert masked.eval_mask.sum() == 7

    def test_distinct_sets_across_seeds(self):
        seg = full_segment(n=200)
        seen = set()
        for seed in range(100):
            masked = apply_scenario(seg, POINTWISE_HALF, seed=seed)
            seen.add(tuple(np.flatnonzero(masked.eval_mask)))
        assert len(seen) >= 99

    def test_deterministic(self):
        seg = full_segment()
        a = apply_scenario(seg, POINTWISE_HALF, seed=9)
        b = apply_scenario(seg, POINTWISE_HALF, seed=9)
        assert np.array_equal(a.eval_mask, b.eval_mask)
        assert np.array_equal(a.obs_mask, b.obs_mask)


class TestBlocks:
    def test_four_day_blocks_hourly(self):
        seg = full_segment(n=28 * 24)
        masked = apply_scenario(seg, BLOCKS_FOUR, seed=3)
        assert masked.eval_mask.sum() == 4 * 24
        # Four disjoint day slots, each fully masked (adjacent days may touch).
        days = sorted(set(np.flatnonzero(masked.eval_mask) // 24))
        assert len(days) == 4
        for d in days:
            assert masked.eval_mask[d * 24 : (d + 1) * 24].all()
        starts = np.flatnonzero(np.diff(np.concatenate([[0], masked.eval_mask.view(np.int8)])) == 1)
        assert all(s % 24 == 0 for s in starts)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_day_alignment(self, seed):
        seg = full_segment(n=28 * 24, seed=1)
        masked = apply_scenario(seg, Scenario("blocks", 2, "blocks1"), seed=seed)
        evals = np.flatnonzero(masked.eval_mask)
        days = set(evals // 24)
        assert len(days) == 2
        for d in days:
            assert masked.eval_mask[d * 24 : (d + 1) * 24].all()

    def test_infeasible_when_not_enough_days(self):
        seg = full_segment(n=3 * 24)
        with pytest.raises(InfeasibleScenario, match="infeasible block scenario"):
            apply_scenario(seg, BLOCKS_FOUR, seed=0)

    def test_infeasible_when_days_already_masked(self):
        obs = np.ones(5 * 24, dtype=bool)
        obs[: 3 * 24] = False
        seg = make_segment(np.arange(5 * 24.0), obs)
        with pytest.raises(InfeasibleScenario, match="infeasible block scenario"):
            apply_scenario(seg, Scenario("blocks", 3, "b3"), seed=0)

    def test_blocks_only_from_fully_visible_days(self):
        obs = np.ones(6 * 24, dtype=bool)
        obs[30] = False
        seg = make_segment(np.arange(6 * 24.0), obs)
        masked = apply_scenario(seg, Scenario("blocks", 2, "b2"), seed=5)
        days = set(np.flatnonzero(masked.eval_mask) // 24)
        assert 1 not in days


class _AlwaysDuplicates:
    """Generator whose integer draws always collide; its other draws are those of ``seed``'s generator."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def integers(self, low, high, size):
        return np.zeros(size, dtype=int)

    def choice(self, *args, **kwargs):
        return self.rng.choice(*args, **kwargs)


def test_block_rejection_falls_back_to_a_draw_without_replacement():
    from tixbench.masking import _pick_block_days

    feasible = [3, 5, 8, 11, 12]
    draws = [_pick_block_days(_AlwaysDuplicates(seed), feasible, k=3) for seed in range(10)]
    for seed, days in enumerate(draws):
        assert days == np.random.default_rng(seed).choice(feasible, size=3, replace=False).tolist()
        assert len(set(days)) == 3 and set(days) <= set(feasible)
    assert len({tuple(sorted(d)) for d in draws}) > 1


def test_block_draws_that_rejection_gives_up_on_stay_uniform():
    # A single draw of 20 of 28 days is all distinct with p = 8.6e-5, so
    # nearly every seed falls back; a fallback of the first 20 feasible days
    # would hide days 0-19 every time.
    seg = full_segment(n=28 * 24)
    scenario = Scenario("blocks", 20, "blocks20")
    day_sets = {
        tuple(np.flatnonzero(apply_scenario(seg, scenario, seed=seed).eval_mask[::24])) for seed in range(20)
    }
    assert len(day_sets) == 20
    assert tuple(range(20)) not in day_sets


def test_pointwise_on_partially_observed_segment():
    obs = np.zeros(200, dtype=bool)
    obs[::2] = True
    seg = make_segment(np.arange(200.0), obs)
    masked = apply_scenario(seg, POINTWISE_HALF, seed=5)
    assert masked.eval_mask.sum() == 50
    # Previously-missing positions never enter the evaluation mask.
    assert not np.any(masked.eval_mask[1::2])


@given(seed=st.integers(0, 10**6), frac=st.sampled_from([0.3, 0.5, 0.7]))
@settings(max_examples=40)
def test_mask_bookkeeping(seed, frac):
    seg = full_segment(n=300, seed=2)
    before = seg.obs_mask.sum()
    masked = apply_scenario(seg, Scenario("pointwise", frac, "p"), seed=seed)
    assert not np.any(masked.obs_mask & masked.eval_mask)
    assert masked.obs_mask.sum() + masked.eval_mask.sum() == before
    assert np.array_equal(masked.values, seg.values)


def test_norm_uses_remaining_context_only():
    seg = full_segment(n=400, seed=4)
    masked = apply_scenario(seg, POINTWISE_HALF, seed=11)
    vis = masked.values[masked.obs_mask]
    assert len(vis) < len(masked.values)
    assert floored_std(vis) == pytest.approx(vis.std(), abs=1e-12)
    assert floored_std(vis) != pytest.approx(masked.values.std(), abs=1e-12)


def test_block_draw_that_would_hide_every_visible_point_is_infeasible():
    # A 7-day window whose only visible values are two full days: blocks of
    # two days would hide both, leaving no context.
    obs = np.zeros(7 * 24, dtype=bool)
    obs[2 * 24 : 3 * 24] = obs[5 * 24 : 6 * 24] = True
    seg = make_segment(np.arange(7 * 24.0), obs)
    with pytest.raises(InfeasibleScenario, match="blocks draw of 48 would hide all 48 visible"):
        apply_scenario(seg, Scenario("blocks", 2, "blocks1"), seed=0)
    obs[0] = True
    masked = apply_scenario(make_segment(np.arange(7 * 24.0), obs), Scenario("blocks", 2, "blocks1"), seed=0)
    assert np.flatnonzero(masked.obs_mask).tolist() == [0]


def test_pointwise_draw_that_hides_nothing_is_infeasible():
    # round(0.3 * 1) = 0: the draw leaves nothing to score.
    obs = np.zeros(48, dtype=bool)
    obs[10] = True
    with pytest.raises(InfeasibleScenario, match="pointwise draw of 0 hides no position"):
        apply_scenario(make_segment(np.zeros(48), obs), Scenario("pointwise", 0.3, "p"), seed=0)


def test_pointwise_draw_that_would_hide_every_visible_point_is_infeasible():
    # round(0.5 * 1) = 1: the only visible position would go.
    obs = np.zeros(48, dtype=bool)
    obs[10] = True
    with pytest.raises(InfeasibleScenario, match="would hide all 1 visible"):
        apply_scenario(make_segment(np.zeros(48), obs), POINTWISE_HALF, seed=0)
    obs[20] = True
    masked = apply_scenario(make_segment(np.zeros(48), obs), POINTWISE_HALF, seed=0)
    assert masked.obs_mask.sum() == masked.eval_mask.sum() == 1


@pytest.mark.parametrize("scenario", DEFAULT_SCENARIOS, ids=lambda s: s.label)
def test_masked_copy_is_a_checked_segment(scenario, monkeypatch):
    # The masked copy is built through Segment's constructor, so its checks
    # run once; it shares the arrays it does not change.
    rng = np.random.default_rng(6)
    obs = rng.random(672) > 0.05
    obs[24:48] = False
    evl = np.zeros(672, dtype=bool)
    evl[30] = True
    seg = make_segment(rng.normal(size=672), obs, evl, covariates={"c": rng.normal(size=672)})
    before = seg.obs_mask.copy(), seg.eval_mask.copy()
    validated = []
    check = Segment.__post_init__
    monkeypatch.setattr(Segment, "__post_init__", lambda self: validated.append(self) or check(self))
    masked = apply_scenario(seg, scenario, seed=3)
    assert len(validated) == 1 and validated[0] is masked
    assert type(masked) is Segment
    assert Segment(**vars(masked)) == masked
    assert masked.values is seg.values and masked.covariates.keys() == seg.covariates.keys()
    assert masked.covariates["c"] is seg.covariates["c"]
    assert (masked.id, masked.freq, masked.start) == (seg.id, seg.freq, seg.start)
    assert len(masked.obs_mask) == len(masked.eval_mask) == len(seg)
    assert not np.any(masked.obs_mask & masked.eval_mask) and np.any(masked.obs_mask)
    # Only visible positions moved, each from one mask to the other; the input's masks are untouched.
    hidden = masked.eval_mask & ~before[1]
    assert hidden.any() and not np.any(hidden & ~before[0])
    assert np.array_equal(masked.obs_mask, before[0] & ~hidden)
    assert np.array_equal(seg.obs_mask, before[0]) and np.array_equal(seg.eval_mask, before[1])
