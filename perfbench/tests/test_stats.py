"""Percentile helper: always n, tails only with enough samples beyond."""

from perfbench.compare import verdict
from perfbench.stats import percentile, quartiles


def test_p95_is_withheld_below_200_samples():
    assert percentile(list(range(199)), 95) == (None, 199)
    value, n = percentile(list(range(200)), 95)
    assert (value, n) == (189, 200)


def test_p90_needs_100_samples_and_the_median_none():
    assert percentile(list(range(99)), 90) == (None, 99)
    assert percentile(list(range(100)), 90) == (89, 100)
    assert percentile([3.0, 1.0, 2.0], 50) == (2.0, 3)


def test_no_samples_is_none_with_n_zero():
    assert percentile([], 50) == (None, 0)


def test_quartiles_match_statistics_and_survive_one_value():
    assert quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])[1] == 5.5
    assert quartiles([4.0]) == (4.0, 4.0, 4.0)


def summary(median, iqr=0.0):
    return {"median": median, "q1": median - iqr / 2, "q3": median + iqr / 2}


def test_verdicts():
    assert verdict(summary(10), summary(10.5), 0.10)[2] == "same"
    assert verdict(summary(10), summary(11.5), 0.10)[2] == "worse"
    assert verdict(summary(10, 0.2), summary(9.5), 0.10)[2] == "better"
    assert verdict(summary(10, 2.0), summary(11.5), 0.10)[2] == "unresolved"
