import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polycauchy import cli
from polycauchy.exact import (
    UnprintableRationalError,
    UsageError,
    format_numerators,
    format_rational,
    parse_rational,
)
from polycauchy.sequences import TableLimitError, frobenius_euler_poly
from polycauchy.verify import GridConfigError

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
        (-4, "-4/1"),
        (0, "0/1"),
    ],
)
def test_format(value, text):
    assert format_rational(value) == text


@pytest.mark.parametrize("value", [Fraction(3**10000), Fraction(1, 7**6000)])
def test_format_refuses_values_past_the_digit_cap(value):
    with pytest.raises(UnprintableRationalError, match="too large to print"):
        format_rational(value)


@given(st.lists(st.integers(-(10**30), 10**30)), st.integers(1, 10**30))
def test_format_numerators_equals_format_rational(nums, den):
    assert format_numerators(nums, den) == [format_rational(Fraction(v, den)) for v in nums]


def test_format_numerators_of_zero_and_negatives():
    assert format_numerators([0, -6, 4, -9, 12], 6) == ["0/1", "-1/1", "2/3", "-3/2", "2/1"]
    assert format_numerators([], 5) == []


def _refused(print_all):
    try:
        print_all()
    except UnprintableRationalError:
        return True
    return False


# Powers of ten on both sides, small or near the 640-digit limit, so that
# reduction decides whether a numerator or a denominator passes it.
exponent = st.integers(0, 40) | st.integers(600, 680)
wide = st.builds(lambda m, e: m * 10**e, st.integers(-999, 999), exponent)
wide_den = st.builds(lambda m, e: m * 10**e, st.integers(1, 999), exponent)


@given(st.lists(wide, max_size=4), wide_den)
def test_format_numerators_refuses_exactly_where_format_rational_does(nums, den):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        expected = _refused(lambda: [format_rational(Fraction(v, den)) for v in nums])
        assert _refused(lambda: format_numerators(nums, den)) == expected
        if not expected:
            assert format_numerators(nums, den) == [format_rational(Fraction(v, den)) for v in nums]
    finally:
        sys.set_int_max_str_digits(limit)


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


@pytest.mark.parametrize("refusal", [UnprintableRationalError, TableLimitError, GridConfigError])
def test_every_refusal_is_one_usage_error(refusal):
    # The CLI maps exactly this type to exit 2; library callers that catch
    # ValueError see no change.
    assert issubclass(refusal, UsageError) and issubclass(refusal, ValueError)
    assert cli.UsageError is UsageError


@pytest.mark.parametrize("r, lam", [(-1, 2), (1, 1)])
def test_frobenius_euler_parameters_are_refused_as_usage_errors(r, lam):
    with pytest.raises(UsageError):
        frobenius_euler_poly(2, r, lam)
