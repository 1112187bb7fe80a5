from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polycauchy.poly import (
    Basis,
    BasisKind,
    Polynomial,
    X,
    expand_in_monic_basis,
    falling_factorial_poly,
    falling_factorial_value,
)
from polycauchy.sequences import stirling1

small_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
polynomials = st.lists(small_rationals, max_size=9).map(Polynomial)


def test_trailing_zeros_trimmed():
    assert Polynomial([1, 2, 0, 0]).coeffs == (F(1), F(2))
    assert Polynomial([0, 0]).coeffs == ()
    assert Polynomial().is_zero


def test_degree_and_leading():
    p = Polynomial([F(5, 6), -2, 1])
    assert p.degree == 2
    assert p.leading_coefficient == 1
    assert Polynomial().degree == -1


def test_scalar_equality():
    assert Polynomial([F(1, 2)]) == F(1, 2)
    assert Polynomial() == 0
    assert Polynomial([0, 1]) != 1
    assert hash(Polynomial([F(1, 2)])) == hash(F(1, 2))


def test_arithmetic():
    p = X**2 - 2 * X + F(5, 6)
    assert p.coeffs == (F(5, 6), F(-2), F(1))
    assert (p - p).is_zero
    assert (X + 1) * (X - 1) == X**2 - 1
    assert 2 * p == p + p
    assert (p / 2) * 2 == p


def test_division():
    assert (2 * X) / Polynomial([2]) == X
    with pytest.raises(ValueError):
        (X + 1) / X
    with pytest.raises(ZeroDivisionError):
        X / Polynomial()
    assert 1 / Polynomial([F(2, 3)]) == Polynomial([F(3, 2)])
    with pytest.raises(ValueError):
        1 / X


@pytest.mark.parametrize(
    "p, point, value",
    [
        (X**2 - 2 * X + F(5, 6), 0, F(5, 6)),
        (Polynomial(), F(7, 3), F(0)),
        (X - F(1, 2), F(1, 2), F(0)),
    ],
)
def test_eval(p, point, value):
    assert p(point) == value


def test_derivative():
    assert (X**2 - 2 * X + F(5, 6)).derivative() == 2 * X - 2
    assert Polynomial([4]).derivative().is_zero
    assert (X - F(1, 8)).derivative() == 1


def test_shift():
    assert (X**2).shift(-1) == X**2 - 2 * X + 1
    p = X**3 - 2 * X + 7
    assert p.shift(0) == p
    # b_2(x) = x^2 - 1/6 shifted by -1 lands on the k=1 degree-2 polynomial
    assert (X**2 - F(1, 6)).shift(-1) == X**2 - 2 * X + F(5, 6)


@pytest.mark.parametrize(
    "m, expected",
    [
        (0, Polynomial([1])),
        (2, X**2 - X),
        (4, X**4 - 6 * X**3 + 11 * X**2 - 6 * X),
    ],
)
def test_falling_factorial_poly(m, expected):
    assert falling_factorial_poly(m) == expected


def test_falling_factorial_value():
    assert falling_factorial_value(F(1, 2), 2) == F(1, 2) * F(-1, 2)
    assert falling_factorial_value(0, 0) == 1
    assert falling_factorial_value(0, 3) == 0
    assert falling_factorial_value(5, 2) == 20


def to_falling(p):
    return expand_in_monic_basis(p, [falling_factorial_poly(m) for m in range(p.degree + 1)])


def from_falling(coeffs):
    return sum((c * falling_factorial_poly(m) for m, c in enumerate(coeffs)), Polynomial())


def test_from_falling_basis():
    assert from_falling((F(0), F(0), F(1))) == X**2 - X


def test_to_falling_basis():
    assert to_falling(X**2) == (F(0), F(1), F(1))  # x^2 = (x)_1 + (x)_2
    assert to_falling(Polynomial()) == ()


def test_falling_round_trip_example():
    p = X**3 - 2 * X + 7
    assert from_falling(to_falling(p)) == p


def test_expand_in_monic_basis_rejects_non_monic():
    with pytest.raises(ValueError, match="monic"):
        expand_in_monic_basis(X**2, [Polynomial([1]), 2 * X, X**2])


def test_basis_validation():
    with pytest.raises(ValueError, match="differ from 1"):
        Basis.frobenius_euler(1, 1)
    with pytest.raises(ValueError):
        Basis.higher_order_bernoulli(-1)
    with pytest.raises(ValueError):
        Basis(BasisKind.FALLING_FACTORIAL, order=2)


def test_str_rendering():
    assert str(X**2 - 2 * X + F(5, 6)) == "x^2 - 2*x + 5/6"
    assert str(Polynomial()) == "0"
    assert str(-X) == "-x"


@given(polynomials, small_rationals)
def test_shift_roundtrip(p, c):
    assert p.shift(c).shift(-c) == p


@given(polynomials, small_rationals, small_rationals)
def test_eval_commutes_with_shift(p, a, c):
    assert p.shift(c)(a) == p(a + c)


@given(st.lists(small_rationals, max_size=13).map(Polynomial))
def test_falling_basis_round_trip(p):
    assert from_falling(to_falling(p)) == p


@pytest.mark.parametrize("m", range(13))
def test_falling_factorial_matches_stirling_row(m):
    assert falling_factorial_poly(m) == Polynomial(stirling1(m, l) for l in range(m + 1))
