import re
from fractions import Fraction as F
from functools import partial
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycauchy.poly import Polynomial, X
from polycauchy.sequences import lif_series
from polycauchy.series import (
    InsufficientOrderError,
    OrderMismatchError,
    TruncatedSeries,
    constant_series,
    exp_series,
    log1p_series,
)
from polycauchy.verify import DEFAULT_LAMBDAS

small_rationals = st.fractions(min_value=-10, max_value=10, max_denominator=8)
# Scalars as series coefficients: bare ints and zero entries included.
scalars = st.one_of(small_rationals, st.integers(-5, 5), st.just(0))
# Polynomial coefficients, the zero polynomial (empty list) included: series
# are over Q only, so the constructor refuses any of them.
polys = st.lists(scalars, max_size=4).map(Polynomial)
RINGS = {"scalar": scalars, "polynomial": polys, "mixed": st.one_of(scalars, polys)}


def built_or_refused(coeffs):
    """The series of ``coeffs``; None when a polynomial among them makes the
    constructor refuse it, which is checked here."""
    if any(isinstance(c, Polynomial) for c in coeffs):
        with pytest.raises(TypeError, match="int or Fraction"):
            TruncatedSeries(coeffs)
        return None
    return TruncatedSeries(coeffs)


def schoolbook_product(a, b):
    """Reference: [t^n](a*b) = sum a_i * b_(n-i) in the coefficient ring."""
    a, b = a.coeffs, b.coeffs
    return TruncatedSeries(sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(len(a)))


def horner_compose(f, g):
    """Reference: f(g) by Horner's scheme over the coefficient ring, each
    product a ``schoolbook_product`` at full order."""
    acc = constant_series(f.coeffs[-1], f.order)
    for c in reversed(f.coeffs[:-1]):
        acc = schoolbook_product(acc, g) + c
    return acc


def series_of(*coeffs):
    return TruncatedSeries([F(c) for c in coeffs])


def test_mul_difference_of_squares():
    assert series_of(1, 1, 0) * series_of(1, -1, 0) == series_of(1, 0, -1)


def test_mul_geometric_inverse():
    geometric = series_of(1, 1, 1, 1)
    assert geometric * series_of(1, -1, 0, 0) == series_of(1, 0, 0, 0)


def test_mul_order_mismatch():
    for left, right in [
        (series_of(1, 1), series_of(1, 1, 1)),
        (exp_series(3), exp_series(2)),
    ]:
        with pytest.raises(OrderMismatchError, match="mismatched orders"):
            left * right


@pytest.mark.parametrize("left", RINGS)
@pytest.mark.parametrize("right", RINGS)
@settings(max_examples=30)
@given(order=st.integers(0, 5), data=st.data())
def test_mul_equals_schoolbook_product(left, right, order, data):
    a, b = (
        built_or_refused(data.draw(st.lists(RINGS[ring], min_size=order + 1, max_size=order + 1)))
        for ring in (left, right)
    )
    if a is None or b is None:
        return
    product = a * b
    assert product == schoolbook_product(a, b)
    assert all(type(c) is F for c in product.coeffs)


def test_mul_of_int_series_yields_fractions():
    product = TruncatedSeries([1, 2, 0]) * TruncatedSeries([3, 0, -1])
    assert product == TruncatedSeries([3, 6, -1])
    assert all(type(c) is F for c in product.coeffs)


def test_mul_at_order_zero_and_with_zero_polynomials():
    assert (series_of(F(2, 3)) * series_of(F(3, 4))).coeffs == (F(1, 2),)
    # The zero polynomial is still a Polynomial, and refused.
    with pytest.raises(TypeError, match="int or Fraction"):
        TruncatedSeries([Polynomial(), Polynomial()]) * series_of(1, 1)
    with pytest.raises(TypeError, match="int or Fraction"):
        TruncatedSeries([Polynomial()]) * series_of(5)


def test_mul_refuses_float_coefficients():
    with pytest.raises(TypeError, match="int or Fraction"):
        TruncatedSeries([1.5, 0]) * series_of(1, 1)
    with pytest.raises(TypeError, match="int or Fraction"):
        exp_series(1) * TruncatedSeries([1, 0.25])


def test_polynomial_coefficients_are_refused():
    with pytest.raises(TypeError, match="int or Fraction"):
        TruncatedSeries([Polynomial([1]), Polynomial([0, 1])]) * exp_series(1)
    with pytest.raises(TypeError, match="int or Fraction"):
        exp_series(1) * TruncatedSeries([Polynomial([1]), Polynomial([0, 1])])
    with pytest.raises(TypeError, match="int or Fraction"):
        TruncatedSeries([Polynomial([1]), Polynomial([0, 1])]).compose(series_of(0, 1))
    with pytest.raises(TypeError, match="int or Fraction"):
        exp_series(1).compose(TruncatedSeries([0, Polynomial([0, 1])]))
    with pytest.raises(TypeError, match="int or Fraction"):
        TruncatedSeries([Polynomial([2]), X]).invert()


@pytest.mark.parametrize("position", [0, 1, 2])
@pytest.mark.parametrize("bad", [0.5, X, Polynomial()], ids=["float", "polynomial", "zero-polynomial"])
def test_constructor_refuses_non_rational_coefficients(bad, position):
    coeffs = [F(1, 2), 3, F(-2, 3)]
    coeffs[position] = bad
    with pytest.raises(TypeError, match="series coefficients must be int or Fraction"):
        TruncatedSeries(coeffs)


@pytest.mark.parametrize(
    "use",
    [
        lambda: exp_series(2) * X,
        lambda: X * exp_series(2),
        lambda: exp_series(2) * 0.5,
        lambda: 0.5 * exp_series(2),
        lambda: exp_series(2) + X,
        lambda: X + exp_series(2),
        lambda: exp_series(2) + 0.5,
        lambda: exp_series(2) - X,
        lambda: X - exp_series(2),
        lambda: 0.5 - exp_series(2),
        lambda: constant_series(X, 2),
        lambda: constant_series(0.5, 2),
    ],
    ids=[
        "mul-poly", "rmul-poly", "mul-float", "rmul-float", "add-poly", "radd-poly",
        "add-float", "sub-poly", "rsub-poly", "rsub-float", "constant-poly", "constant-float",
    ],
)
def test_scalar_operands_must_be_int_or_fraction(use):
    with pytest.raises(TypeError, match="int or Fraction"):
        use()


@pytest.mark.parametrize(
    "series, expected",
    [
        (series_of(1, -1, 0, 0), series_of(1, 1, 1, 1)),
        (series_of(1, 1, 0), series_of(1, -1, 1)),
        (exp_series(2), series_of(1, -1, F(1, 2))),
    ],
)
def test_invert(series, expected):
    inv = series.invert()
    assert inv == expected
    assert series * inv == constant_series(F(1), series.order)


def recurrence_invert(f):
    """Reference: the inverse by the coefficient recurrence
    g_n = -g_0 sum_(i=1..n) f_i g_(n-i), one Fraction term at a time."""
    coeffs = f.coeffs
    head = 1 / F(coeffs[0])
    inv = [head]
    for n in range(1, len(coeffs)):
        inv.append(-head * sum(coeffs[i] * inv[n - i] for i in range(1, n + 1)))
    return TruncatedSeries(inv)


INVERTED = {"log(1+t)/t": lambda order: log1p_series(order + 1).divided_by_t()} | {
    f"e^t - ({lam})": lambda order, lam=lam: exp_series(order) - lam for lam in DEFAULT_LAMBDAS
}


@pytest.mark.parametrize("name", INVERTED)
def test_newton_invert_equals_recurrence_at_every_order(name):
    for order in range(65):
        f = INVERTED[name](order)
        inv = f.invert()
        assert inv == recurrence_invert(f), order
        assert all(type(c) is F for c in inv.coeffs)


def test_invert_non_unit():
    with pytest.raises(ValueError, match="series not invertible"):
        series_of(0, 1, 2).invert()


def test_invert_stays_exact_on_int_coefficients():
    inv = TruncatedSeries([2, 1]).invert()
    assert inv.coefficient(0) == F(1, 2)
    assert isinstance(inv.coefficient(0), F)


def test_compose_exp_log_is_one_plus_t():
    order = 6
    composed = exp_series(order).compose(log1p_series(order))
    assert composed == TruncatedSeries([F(1), F(1)] + [F(0)] * (order - 1))


def test_compose_with_zero_series():
    f = series_of(3, 1, 4)
    zero = series_of(0, 0, 0)
    assert f.compose(zero) == constant_series(F(3), 2)


def test_compose_lif0_reduction():
    # Lif_0(x) = e^x, so e^(-log(1+t)) = 1/(1+t)
    order = 4
    composed = exp_series(order).compose(-log1p_series(order))
    assert composed == series_of(1, -1, 1, -1, 1)


# The zero constant terms of a delta series in each coefficient ring.
DELTA_HEADS = {
    "scalar": st.sampled_from([0, F(0)]),
    "polynomial": st.just(Polynomial()),
    "mixed": st.sampled_from([0, F(0), Polynomial()]),
}


@pytest.mark.parametrize("outer", RINGS)
@pytest.mark.parametrize("inner", RINGS)
@settings(max_examples=30)
@given(order=st.integers(0, 5), data=st.data())
def test_compose_equals_horner_reference(outer, inner, order, data):
    f = built_or_refused(
        data.draw(st.lists(RINGS[outer], min_size=order + 1, max_size=order + 1))
    )
    g = built_or_refused(
        [data.draw(DELTA_HEADS[inner])]
        + data.draw(st.lists(RINGS[inner], min_size=order, max_size=order))
    )
    if f is None or g is None:
        return
    composed = f.compose(g)
    if order == 0:
        # Horner takes no step, and f is returned as it is.
        assert composed is f
    else:
        assert composed == horner_compose(f, g)
        assert all(type(c) is F for c in composed.coeffs)


@pytest.mark.parametrize("k", [-3, 2])
def test_compose_equals_horner_reference_at_oracle_order(k):
    # The oracle's own composition, Lif_k(-log(1+t)), at the order that the
    # grown rows use for n <= 32.
    f, g = lif_series(k, 32), -log1p_series(32)
    assert f.compose(g) == horner_compose(f, g)


def test_compose_over_polynomials():
    # (1+t)^x at t = e^s - 1 is e^(xs).  The s^j coefficient of each side is
    # a polynomial of degree j <= 12 in x, so equality at x = 0..12 is
    # equality of the polynomials.
    order = 12
    for x in range(order + 1):
        binomial = TruncatedSeries(comb(x, j) for j in range(order + 1))
        exp_xs = TruncatedSeries(F(x**j, factorial(j)) for j in range(order + 1))
        assert binomial.compose(exp_series(order) - 1) == exp_xs


def test_compose_refuses_float_coefficients():
    with pytest.raises(TypeError, match="int or Fraction"):
        TruncatedSeries([1, 0.5]).compose(series_of(0, 1))
    with pytest.raises(TypeError, match="int or Fraction"):
        exp_series(1).compose(TruncatedSeries([0, 0.5]))


def test_compose_requires_delta_series():
    with pytest.raises(ValueError, match="delta series"):
        exp_series(2).compose(series_of(1, 1, 0))


def test_log1p_series():
    assert log1p_series(3) == series_of(0, 1, F(-1, 2), F(1, 3))
    assert log1p_series(0) == series_of(0)
    assert log1p_series(5).coefficient(4) == F(-1, 4)


def test_exp_series():
    assert exp_series(2) == series_of(1, 1, F(1, 2))
    assert exp_series(0) == series_of(1)
    assert exp_series(5).coefficient(5) == F(1, 120)


# The named series as the constructor builds them, from one Fraction per
# coefficient: the references for the integer-numerator builders.
def fraction_built_log1p(order):
    return TruncatedSeries([F(0)] + [F((-1) ** (i - 1), i) for i in range(1, order + 1)])


def fraction_built_exp(order):
    return TruncatedSeries(F(1, factorial(i)) for i in range(order + 1))


def fraction_built_lif(k, order):
    return TruncatedSeries(F(1, factorial(m)) * F(m + 1) ** (-k) for m in range(order + 1))


# name -> (the builder under test, its reference)
NAMED_SERIES = {
    "log1p": (log1p_series, fraction_built_log1p),
    "exp": (exp_series, fraction_built_exp),
    **{f"lif:{k}": (partial(lif_series, k), partial(fraction_built_lif, k))
       for k in [*range(-6, 7), 40, -40]},
}


@pytest.mark.parametrize("name", NAMED_SERIES)
def test_named_series_built_from_ints_equal_the_fraction_built_ones(name):
    built_from_ints, reference = NAMED_SERIES[name]
    for order in range(65):
        built, expected = built_from_ints(order), reference(order)
        assert (built.nums, built.den) == (expected.nums, expected.den), order
        assert type(built.nums) is tuple


@pytest.mark.parametrize("name", NAMED_SERIES)
def test_named_series_refuse_a_negative_order(name):
    with pytest.raises(ValueError, match="non-negative"):
        NAMED_SERIES[name][0](-1)


def test_pow():
    one_plus_t = series_of(1, 1, 0)
    assert one_plus_t**2 == series_of(1, 2, 1)
    assert one_plus_t**0 == series_of(1, 0, 0)
    assert series_of(1, 1)**-1 == series_of(1, -1)
    with pytest.raises(ValueError, match="not invertible"):
        series_of(0, 1) ** -1
    for exponent in (F(1, 2), 1.5):
        with pytest.raises(TypeError, match=re.escape(f"int exponent; got {exponent!r}")):
            series_of(1, 1) ** exponent


def test_coefficient_requires_sufficient_order():
    s = exp_series(3)
    with pytest.raises(InsufficientOrderError, match="insufficient truncation order") as info:
        s.coefficient(4)
    assert info.value.required == 4 and info.value.order == 3


def test_sequence_value():
    assert exp_series(5).sequence_value(4) == 1  # n! / n!
    assert exp_series(3).sequence_value(0) == 1


def test_derivative_and_t_shifts():
    e = exp_series(4)
    assert e.derivative() == exp_series(3)
    assert log1p_series(3).divided_by_t() == series_of(1, F(-1, 2), F(1, 3))
    assert series_of(1, 2).multiply_by_t() == series_of(0, 1, 2)
    with pytest.raises(ValueError, match="vanish"):
        exp_series(2).divided_by_t()
    with pytest.raises(ValueError):
        series_of(5).derivative()


def test_scalar_mixing():
    s = exp_series(2)
    assert s - 1 == series_of(0, 1, F(1, 2))
    assert 1 + (s - 1) == s
    assert (2 * s).coefficient(1) == 2
    assert (s * F(1, 2)).coefficient(0) == F(1, 2)


def test_requires_nonempty():
    with pytest.raises(ValueError):
        TruncatedSeries([])


@given(
    st.lists(small_rationals, min_size=7, max_size=7),
    st.lists(small_rationals, min_size=7, max_size=7),
    st.integers(0, 4),
)
def test_truncation_is_a_ring_homomorphism(a, b, n):
    # [t^n](a*b) computed at order 6 equals the same coefficient at order n.
    full = TruncatedSeries(a) * TruncatedSeries(b)
    short = TruncatedSeries(a[: n + 1]) * TruncatedSeries(b[: n + 1])
    assert full.coefficient(n) == short.coefficient(n)


@given(st.lists(small_rationals.filter(bool), min_size=1, max_size=1).flatmap(
    lambda head: st.lists(small_rationals, min_size=5, max_size=5).map(lambda tail: head + tail)
))
def test_invert_is_two_sided(coeffs):
    s = TruncatedSeries(coeffs)
    one = constant_series(F(1), s.order)
    assert s * s.invert() == one
    assert s.invert() * s == one


@settings(max_examples=40)
@given(
    st.lists(small_rationals, min_size=5, max_size=5),
    st.lists(small_rationals, min_size=5, max_size=5),
)
def test_exp_functional_equation(a_tail, b_tail):
    # exp(a)exp(b) = exp(a+b) for delta series a, b.
    a = TruncatedSeries([F(0)] + a_tail)
    b = TruncatedSeries([F(0)] + b_tail)
    e = exp_series(a.order)
    assert e.compose(a) * e.compose(b) == e.compose(a + b)


def test_compose_log_exp_minus_one_is_t():
    order = 7
    composed = log1p_series(order).compose(exp_series(order) - 1)
    assert composed == TruncatedSeries([F(0), F(1)] + [F(0)] * (order - 1))
