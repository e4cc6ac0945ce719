"""``left_sum``: float totals add left to right on every Python."""

from repro._sum import left_sum


def test_floats_add_one_rounded_step_at_a_time():
    # Python 3.12's sum() compensates and returns 1.0 here.
    assert left_sum([1e16, 1.0, -1e16]) == 0.0
    assert left_sum(x for x in (0.1, 0.2, 0.3)) == (0.1 + 0.2) + 0.3


def test_ints_stay_ints_and_nothing_sums_to_zero():
    assert left_sum([1, 2, 3]) == 6 and isinstance(left_sum([1, 2, 3]), int)
    assert left_sum([]) == 0 and isinstance(left_sum([]), int)
