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
    values = np.asarray(values, dtype=float)
    n = len(values)
    if eval_mask is None:
        eval_mask = np.zeros(n, dtype=bool)
    return Segment(
        start=0,
        length=n,
        values=values,
        obs_mask=np.asarray(obs_mask, dtype=bool),
        eval_mask=np.asarray(eval_mask, dtype=bool),
        freq=freq,
        covariates=covariates or {},
    )
