"""Percentiles and the ten-beyond-the-tail rule."""

import pytest

from layerbench.summary import geomean, mape_pct, median, min_samples_for_tail, percentile, samples_beyond


def test_percentile_is_nearest_rank():
    values = list(range(1, 11))  # 1..10
    assert percentile(values, 0.5) == 5
    assert percentile(values, 0.9) == 9
    assert percentile(values, 1.0) == 10
    assert percentile([3.0], 0.9) == 3.0
    assert median([4, 1, 3, 2]) == 2  # an observed value, never an average


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 0.0)


def test_ten_samples_lie_beyond_p90_only_from_one_hundred_samples():
    assert samples_beyond(100, 0.9) == 10
    assert samples_beyond(99, 0.9) == 9
    assert samples_beyond(0, 0.9) == 0
    assert min_samples_for_tail(0.9) == 100
    assert min_samples_for_tail(0.5) == 20
    assert min_samples_for_tail(0.99) == 1000
    values = list(range(100))
    p90 = percentile(values, 0.9)
    assert sum(1 for v in values if v > p90) == 10


def test_geomean_and_mape():
    assert geomean([2.0, 8.0]) == pytest.approx(4.0)
    assert mape_pct([100.0, 200.0], [110.0, 180.0]) == pytest.approx(10.0)
    with pytest.raises(ValueError):
        geomean([1.0, 0.0])
