import numpy as np
import pytest

from conftest import random_measure


def test_random_measure_rejects_infeasible_spacing():
    # five atoms 1.5 apart need a window of 6, wider than [-2.5, 2.5]
    with pytest.raises(ValueError):
        random_measure(np.random.default_rng(0), 1, 5, spread=2.5, min_gap=1.5)
