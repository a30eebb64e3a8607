import pytest

from stats import percentile, samples_beyond, spread


def test_nearest_rank_percentile():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0
    assert percentile([1, 2, 3, 4], 50) == 2


def test_weighted_percentile_counts_each_value_weight_times():
    # 90 samples of 1 ms (one call split over 90 rows) and 10 of 5 ms
    assert percentile([5.0, 1.0], 50, weights=[10, 90]) == 1.0
    assert percentile([5.0, 1.0], 90, weights=[10, 90]) == 1.0
    assert percentile([5.0, 1.0], 91, weights=[10, 90]) == 5.0
    assert percentile([1.0, 2.0, 3.0], 50, weights=[1, 1, 1]) == percentile([1.0, 2.0, 3.0], 50)


def test_p99_has_ten_samples_beyond_it_from_1000_samples():
    assert samples_beyond(100, 99) == 1
    assert samples_beyond(999, 99) == 9
    assert samples_beyond(1000, 99) == 10
    assert samples_beyond(10, 50) == 5


def test_percentile_rejects_empty_or_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)
    with pytest.raises(ValueError):
        percentile([1.0], 101)
    with pytest.raises(ValueError):
        percentile([1.0, 2.0], 50, weights=[1])


def test_spread_is_interquartile_range_over_median():
    assert spread([10.0] * 10) == 0.0
    assert spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == pytest.approx((8.25 - 2.75) / 5.5)
