"""The claim rule ``scripts/pairs.py`` prints under each host metric."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "pairs.py"
_spec = importlib.util.spec_from_file_location("pairs", SCRIPT)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

PARENT = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]


def test_clear_gain_is_claimable():
    change = [v - 1.0 for v in PARENT]
    claimable, reason = pairs.verdict(PARENT, change)
    assert claimable
    assert "10 / 10" in reason


def test_nine_of_ten_is_enough():
    change = [v - 1.0 for v in PARENT]
    change[3] = PARENT[3] + 0.5
    assert pairs.verdict(PARENT, change)[0]


def test_eight_of_ten_is_not():
    change = [v - 1.0 for v in PARENT]
    change[3] = PARENT[3] + 0.5
    change[7] = PARENT[7] + 0.5
    claimable, reason = pairs.verdict(PARENT, change)
    assert not claimable
    assert "8 / 10" in reason


def test_ties_count_for_neither_side():
    change = [v - 1.0 for v in PARENT]
    change[0] = PARENT[0]  # a tie is not a win
    change[5] = PARENT[5]
    claimable, reason = pairs.verdict(PARENT, change)
    assert not claimable
    assert "8 / 10" in reason


def test_gap_inside_the_parents_spread_is_not_claimable():
    # Lower in every pair, but by less than the parent's quartile gap.
    change = [v - 0.05 for v in PARENT]
    claimable, reason = pairs.verdict(PARENT, change)
    assert not claimable
    assert "interquartile range" in reason


def test_gap_equal_to_the_spread_is_not_claimable():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]  # inclusive quartiles 2 and 4
    change = [v - 2.0 for v in parent]  # median gap 2.0, not above 2.0
    assert not pairs.verdict(parent, change)[0]
    assert pairs.verdict(parent, [v - 2.5 for v in parent])[0]
