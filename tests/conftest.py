import numpy as np
import pytest

from proplimit.montecarlo import make_stream


@pytest.fixture
def rng():
    return make_stream(20260810, 0)


@pytest.fixture
def np_rng():
    return np.random.default_rng(20260810)
