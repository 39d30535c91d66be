import statistics

import pytest

from perfbench.stats import fail_ratio, spread, tail


def test_tail_needs_ten_samples_beyond():
    assert tail(list(range(19))) is None  # the median has only 9 above it
    t = tail(list(range(20)))
    assert (t["level"], t["beyond"], t["samples"]) == (50.0, 10, 20)


def test_tail_picks_highest_level_with_ten_beyond():
    t = tail([float(v) for v in range(1, 101)])
    assert t["level"] == 90.0
    assert t["value"] == pytest.approx(90.1)
    assert t["beyond"] == 10
    t = tail([float(v) for v in range(1, 1001)])
    assert (t["level"], t["beyond"]) == (99.0, 10)


def test_tail_counts_only_samples_strictly_beyond():
    assert tail([1.0] * 50) is None
    assert tail([1.0] * 40 + [2.0] * 9) is None
    t = tail([1.0] * 40 + [2.0] * 10)
    assert (t["level"], t["beyond"]) == (75.0, 10)


def test_fail_ratio_states_its_base():
    r = fail_ratio(1, 32)
    assert r == {"value": 1 / 32, "failed": 1, "attempted": 32}
    assert fail_ratio(0, 5)["value"] == 0.0
    with pytest.raises(ValueError):
        fail_ratio(0, 0)
    with pytest.raises(ValueError):
        fail_ratio(3, 2)


def test_spread_uses_statistics_quartiles():
    xs = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 10.0, 9.7]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    assert spread(xs) == (q3 - q1) / q2
