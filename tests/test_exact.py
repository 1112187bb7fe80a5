from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polycauchy.exact import format_rational, parse_rational

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=30)
nonzero_rationals = rationals.filter(bool)


@pytest.mark.parametrize(
    "num, den, expected",
    [
        (6, -4, Fraction(-3, 2)),
        (0, 7, Fraction(0, 1)),
        (10, 5, Fraction(2, 1)),
        (-9, -6, Fraction(3, 2)),
    ],
)
def test_normalize(num, den, expected):
    q = parse_rational(f"{num}/{den}")
    assert q == expected
    assert q.denominator > 0
    assert q.numerator == expected.numerator and q.denominator == expected.denominator


def test_normalize_zero_denominator():
    # The CLI prints this message, e.g. for ``gen --lambda 1/0``.
    for text in ("1/0", "0/0", "-3/0"):
        with pytest.raises(ZeroDivisionError) as excinfo:
            parse_rational(text)
        assert str(excinfo.value) == "division by zero"


def test_zero_is_unique():
    q = parse_rational("0/-17")
    assert (q.numerator, q.denominator) == (0, 1)


def test_no_rounding_ever():
    third = parse_rational("1/3")
    assert third + third + third == 1


@given(rationals, rationals, rationals)
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(rationals, nonzero_rationals)
def test_division_inverts_multiplication(a, b):
    assert (a / b) * b == a


@given(st.integers(-1000, 1000), st.integers(-1000, 1000).filter(bool))
def test_canonical_form_is_idempotent(num, den):
    q = parse_rational(f"{num}/{den}")
    again = parse_rational(f"{q.numerator}/{q.denominator}")
    assert (again.numerator, again.denominator) == (q.numerator, q.denominator)


@pytest.mark.parametrize(
    "value, text",
    [
        (Fraction(-5, 6), "-5/6"),
        (Fraction(7), "7/1"),
        (Fraction(0), "0/1"),
        (Fraction(1, 2), "1/2"),
    ],
)
def test_format(value, text):
    assert format_rational(value) == text


@pytest.mark.parametrize("text, expected", [("-5/6", Fraction(-5, 6)), ("3", Fraction(3)), ("6/4", Fraction(3, 2))])
def test_parse(text, expected):
    assert parse_rational(text) == expected


@pytest.mark.parametrize("text", ["", "x", "1.5", "1/2/3", "1/x"])
def test_parse_rejects_junk(text):
    with pytest.raises(ValueError):
        parse_rational(text)


def test_parse_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        parse_rational("1/0")


@given(rationals)
def test_wire_round_trip(q):
    assert parse_rational(format_rational(q)) == q
