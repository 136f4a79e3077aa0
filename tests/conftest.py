from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from tixbench import FrequencySpec, Segment

settings.register_profile("no-deadline", deadline=None)
settings.load_profile("no-deadline")

HOURLY = FrequencySpec(steps_per_day=24)


@pytest.fixture
def hourly():
    return HOURLY


def make_segment(values, obs_mask, eval_mask=None, freq=HOURLY, covariates=None):
    return Segment(
        id="seg",
        values=values,
        obs_mask=obs_mask,
        eval_mask=eval_mask,
        freq=freq,
        covariates=covariates or {},
    )
