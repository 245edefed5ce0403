"""The verdicts of tests/bench_pairs.py on canned pairs of runs."""

import pytest

from bench_pairs import summarize

PARENT = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]


@pytest.mark.parametrize("parent, change, verdict", [
    (PARENT, [1.4] * 10, "worse"),
    # a gain no larger than the parent's own spread
    (PARENT, [v - 0.01 for v in PARENT], "same"),
    (PARENT, [v + 0.1 for v in PARENT], "same"),
    (PARENT, [0.9] * 10, "gain"),
    # eight wins of ten are not enough
    (PARENT, [0.9] * 8 + [1.1] * 2, "same"),
    ([0.5, 1.5] * 5, [0.5] * 10, "unresolved"),
    # a failed run counts as a lost pair
    (PARENT, [0.9] * 8 + [None] * 2, "same"),
], ids=["worse", "within-spread", "slower-within-bound", "gain",
        "too-few-wins", "wide-parent", "failed-runs"])
def test_verdicts(parent, change, verdict):
    assert summarize(parent, change, "lower", 0.25)["verdict"] == verdict


def test_ties_count_for_neither_side():
    s = summarize(PARENT, PARENT, "lower", 0.25)
    assert (s["won"], s["pairs"], s["relative"]) == (0, 10, 0.0)
    assert s["verdict"] == "same"


def test_higher_is_better_reverses_the_sides():
    assert summarize(PARENT, [1.1] * 10, "higher", 0.25)["verdict"] \
        == "gain"
    assert summarize(PARENT, [0.6] * 10, "higher", 0.25)["verdict"] \
        == "worse"


def test_quartiles_and_relative_difference():
    s = summarize([1.0, 2.0, 3.0, 4.0, 5.0], [2.0, 4.0, 6.0, 8.0, 10.0],
                  "lower", 0.1)
    assert (s["parent"]["q1"], s["parent"]["median"], s["parent"]["q3"]) \
        == (1.5, 3.0, 4.5)
    assert s["relative"] == pytest.approx(1.0)
