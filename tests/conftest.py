import numpy as np
import pytest
from hypothesis import settings

# the same examples on every run, so that the suite is deterministic
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture
def rng():
    return np.random.default_rng(20260824)
