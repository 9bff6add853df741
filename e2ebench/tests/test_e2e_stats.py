"""The percentile and sample-count rule."""

import math
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from stats import median, percentile, reportable, samples_needed  # noqa: E402


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0
    assert percentile([3, 1, 2], 50) == 2
    assert percentile([1.0, math.inf], 99) == math.inf
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_a_tail_percentile_needs_ten_samples_beyond_it():
    assert samples_needed(99) == 1000
    assert samples_needed(90) == 100
    assert samples_needed(50) == 20
    assert samples_needed(99.9) == 10000
    assert reportable(99, 1000) and not reportable(99, 999)


def test_median():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([1.0, 2.0, 3.0, 4.0]) == 2.5
