"""Fixtures shared by the test modules."""

import pytest

from polycauchy import second_kind as sk


@pytest.fixture
def fresh_number_row():
    """Empty the number-row memo before and after the test.  A test that
    patches ``sk.number_closed`` uses it, so that its patch reaches every
    number row it reads, and no row built from the patch outlives it."""
    sk._number_row.cache_clear()
    yield
    sk._number_row.cache_clear()
