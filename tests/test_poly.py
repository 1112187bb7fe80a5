import sys
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
    linear_combination,
)
from polycauchy.second_kind import addition_rhs
from polycauchy.sequences import stirling1

small_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
polynomials = st.lists(small_rationals, max_size=9).map(Polynomial)
# int and Fraction coefficients, degree up to 12, denominators up to 10^6
exact_scalars = st.one_of(
    st.integers(-1000, 1000),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6),
)
exact_polynomials = st.lists(exact_scalars, max_size=13).map(Polynomial)
offsets = st.one_of(
    st.sampled_from([0, 1, -1]),
    st.fractions(min_value=-100, max_value=100, max_denominator=10**6),
)


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


def _shift_by_horner(p, offset):
    """The reference ``shift``: Horner's scheme over Polynomials."""
    linear = Polynomial((F(offset), F(1)))
    acc = Polynomial()
    for c in reversed(p.coeffs):
        acc = acc * linear + c
    return acc


@pytest.mark.parametrize("offset", [0, 1, -1, F(1, 10**6), F(-999_999, 10**6), F(7, 3)])
@pytest.mark.parametrize(
    "p",
    [
        Polynomial(),
        Polynomial([F(-5, 7)]),
        Polynomial([3]),
        Polynomial(F((-1) ** j * (j + 1), 13 - j) for j in range(13)),
    ],
    ids=["zero", "constant", "int-constant", "degree-12"],
)
def test_shift_equals_horner_reference(p, offset):
    assert p.shift(offset) == _shift_by_horner(p, offset)


@given(exact_polynomials, offsets)
def test_shift_equals_horner_reference_everywhere(p, offset):
    assert p.shift(offset) == _shift_by_horner(p, offset)


@given(st.lists(st.tuples(st.one_of(st.just(0), exact_scalars), exact_polynomials), max_size=6))
def test_linear_combination_equals_naive_sum(terms):
    weights = [w for w, _ in terms]
    polys = [p for _, p in terms]
    assert linear_combination(weights, polys) == sum((w * p for w, p in terms), Polynomial())


def test_linear_combination_edge_cases():
    assert linear_combination([], []) == Polynomial()
    assert linear_combination([0, 0], [X, X**2]) == Polynomial()
    assert linear_combination([2, 3], [Polynomial(), X]) == 3 * X
    assert linear_combination([F(1, 2), -1, 4], [X**3, Polynomial([F(1, 3)]), X]) == (
        F(1, 2) * X**3 + 4 * X - F(1, 3)
    )
    assert linear_combination([1, -1], [X**2 + X, X**2]) == X


def test_linear_combination_holds_no_blocks_between_calls():
    # Star-unpacking a generator into lcm() left one tuple per call on
    # CPython's tuple free list, so warm reconstructions kept growing RSS.
    polys = [Polynomial([F(1, d) for d in range(1, size)]) for size in range(2, 19)]
    linear_combination([1], polys[:1])
    before = sys.getallocatedblocks()
    for _ in range(100):
        for end in range(1, len(polys) + 1):
            linear_combination([1] * end, polys[:end])
    assert sys.getallocatedblocks() - before < 100


@pytest.mark.parametrize("weights, polys", [([1, 2], [X]), ([1], [X, X]), ([], [X])])
def test_linear_combination_refuses_unequal_lengths(weights, polys):
    with pytest.raises(ValueError):
        linear_combination(weights, polys)


@pytest.mark.parametrize(
    "use",
    [
        lambda: Polynomial((0.1,)),
        lambda: (X + 1).shift(0.1),
        lambda: (X + 1)(0.1),
        lambda: X / 0.1,
        lambda: 0.1 / Polynomial((2,)),
        lambda: linear_combination([0.5], [X]),
        lambda: falling_factorial_value(0.1, 2),
        lambda: addition_rhs(2, 1, 0.1),
    ],
    ids=[
        "init",
        "shift",
        "call",
        "truediv",
        "rtruediv",
        "linear_combination",
        "falling_factorial_value",
        "addition_rhs",
    ],
)
def test_floats_are_refused(use):
    with pytest.raises(TypeError, match="float"):
        use()


def test_ints_and_fractions_are_accepted():
    third = F(1, 3)
    p = Polynomial((1, third))
    assert p.coeffs == (F(1), third)
    assert all(type(c) is F for c in p.coeffs)
    assert p.coeffs[1] is third
    assert p.shift(1) == p.shift(F(1)) == Polynomial((F(4, 3), third))
    assert p(3) == p(F(3)) == 2


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
