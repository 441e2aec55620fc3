import functools

import numpy as np
import pytest
from hypothesis import settings

from superpose_net import GraphSample

# the same examples on every run, so that the suite is deterministic
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture
def rng():
    return np.random.default_rng(20260824)


@pytest.fixture
def degree_passes(monkeypatch):
    """The graphs whose degrees were computed, one entry per pass."""
    passes = []
    compute = GraphSample.degrees.func

    def counted(g):
        passes.append(g)
        return compute(g)

    prop = functools.cached_property(counted)
    prop.__set_name__(GraphSample, "degrees")
    monkeypatch.setattr(GraphSample, "degrees", prop)
    return passes
