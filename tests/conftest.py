"""Fixtures shared by the test modules."""

import pytest

from polycauchy import second_kind as sk


@pytest.fixture
def first_number_off_by_one(monkeypatch):
    """Put C_1^(k) off by one for the rest of the test.  Every reader of the
    numbers goes through the number row, ``sk._number_row``, so one patch
    of it reaches them all; the true rows stay in the memo untouched."""
    true_row = sk._number_row

    def off_by_one(n, k):
        numbers, den = true_row(n, k)
        if n < 1:
            return numbers, den
        return (numbers[0], numbers[1] + den, *numbers[2:]), den

    monkeypatch.setattr(sk, "_number_row", off_by_one)
