import sys
import threading
from fractions import Fraction as F
from math import factorial

import pytest

from polycauchy.poly import Polynomial, X, falling_factorial_value
from polycauchy.sequences import (
    Stirling1Table,
    TableLimitError,
    bernoulli2nd_convolution,
    bernoulli_2nd_number,
    bernoulli_2nd_poly,
    bernoulli_high_order_poly,
    binom,
    falling_factorial_poly,
    frobenius_euler_poly,
    lif_series,
    narumi_poly,
    stirling1,
    sheffer_rows,
    t_over_log1p_series,
)
from polycauchy.series import TruncatedSeries, exp_series, log1p_series

LAMBDAS = (F(-1), F(2), F(1, 2), F(-1, 3))


# ---------------------------------------------------------------------------
# Stirling numbers

@pytest.mark.parametrize("n", range(9))
def test_stirling_diagonal_and_edge(n):
    assert stirling1(n, n) == 1
    if n >= 1:
        assert stirling1(n, 0) == 0


def test_stirling_values():
    assert stirling1(3, 1) == 2
    assert stirling1(4, 2) == 11
    assert stirling1(2, 1) == -1


def test_stirling_out_of_triangle_is_zero():
    assert stirling1(3, 5) == 0


def test_stirling_negative_index_rejected():
    with pytest.raises(ValueError):
        stirling1(-1, 0)
    with pytest.raises(ValueError):
        stirling1(2, -1)


def test_stirling_table_cap():
    table = Stirling1Table(n_max=5)
    assert table.value(5, 3) == stirling1(5, 3)
    with pytest.raises(TableLimitError, match="capped"):
        table.value(6, 1)


def test_stirling_row_is_the_row_of_values():
    table = Stirling1Table(n_max=12)
    for n in range(13):
        row = table.row(n)
        assert type(row) is tuple
        assert list(row) == [table.value(n, l) for l in range(n + 1)]
    with pytest.raises(TypeError):
        table.row(4)[1] = 0


@pytest.mark.parametrize("n, error", [(-1, ValueError), (6, TableLimitError)])
def test_stirling_row_refuses_before_growing(n, error):
    table = Stirling1Table(n_max=5)
    with pytest.raises(error):
        table.row(n)
    assert len(table._rows) == 1
    with pytest.raises(error):
        table.value(n, 0)
    assert len(table._rows) == 1


def test_stirling_table_grows_safely_under_threads():
    # Several threads growing fresh tables at once, through ``value`` and
    # ``row``; a lost or duplicated row shifts every later row.
    expected = [tuple([stirling1(n, l) for l in range(n + 1)]) for n in range(41)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(30):
            table = Stirling1Table()
            barrier = threading.Barrier(8)
            errors = []

            def grow(top, table=table, barrier=barrier, errors=errors):
                barrier.wait(timeout=30)
                try:
                    for n in range(top, 41, 8):
                        if top % 2:
                            assert table.row(n) == expected[n]
                        else:
                            table.value(n, n // 2)
                except Exception as exc:  # reported below with the table state
                    errors.append(exc)

            threads = [threading.Thread(target=grow, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            assert table._rows == expected
    finally:
        sys.setswitchinterval(interval)


def test_stirling_recurrence_holds_across_table():
    for n in range(12):
        for l in range(n + 2):
            assert stirling1(n + 1, l) == (stirling1(n, l - 1) if l else 0) - n * stirling1(n, l)


@pytest.mark.parametrize("n", range(13))
def test_stirling_falling_factorial_consistency(n):
    assert Polynomial(stirling1(n, l) for l in range(n + 1)) == falling_factorial_poly(n)


def test_falling_rows_equal_the_products():
    # m + 2 points fix a polynomial of degree at most m + 1.
    for m in range(65):
        p = falling_factorial_poly(m)
        assert p.degree == m
        for x in [*range(-1, m + 1), F(1, 2)]:
            assert p(x) == falling_factorial_value(x, m), (m, x)


@pytest.mark.parametrize("amplitude", [
    [F(1), 0, 0, F(3, 2)], [F(2), 0, F(-1, 3), 0, 0, F(5)], [0, 0, F(1), F(4)], [F(1), F(1), 0, F(-7, 2)],
])
def test_falling_rows_with_zero_weights_equal_the_sum_over_the_basis(amplitude):
    # Weights w_j = C(n,j) a_(n-j) with zeros below, between and above the
    # lowest nonzero one; the reference multiplies (x - i) out term by term.
    def falling(j):
        p = Polynomial([1])
        for i in range(j):
            p = p * (X - i)
        return p

    rows = sheffer_rows(TruncatedSeries(amplitude), falling=True)
    numbers = [factorial(m) * a for m, a in enumerate(amplitude)]
    for n, row in enumerate(rows):
        expected = Polynomial([0])
        for j in range(n + 1):
            expected = expected + binom(n, j) * numbers[n - j] * falling(j)
        assert row == expected, n


def test_stirling_generating_function_consistency():
    # n![t^n](log(1+t))^m / m! = S1(n, m)
    n_top = 12
    base = log1p_series(n_top)
    power = base**0
    for m in range(9):
        if m:
            power = power * base
        for n in range(n_top + 1):
            assert power.sequence_value(n) == factorial(m) * stirling1(n, m), (n, m)


# ---------------------------------------------------------------------------
# Polylog-factorial series

@pytest.mark.parametrize("k", range(-3, 4))
def test_lif_constant_term(k):
    assert lif_series(k, 0).coefficient(0) == 1


def test_lif_coefficients():
    assert lif_series(2, 1).coefficient(1) == F(1, 4)  # 1/(1! * 2^2)
    assert lif_series(-1, 2).coefficient(2) == F(3, 2)  # 3/2!


def test_lif_zero_is_exp():
    assert lif_series(0, 16) == exp_series(16)


@pytest.mark.parametrize("k", range(-3, 4))
def test_lif_derivative_identity(k):
    # t Lif_k'(t) = Lif_{k-1}(t) - Lif_k(t), coefficient-wise to order 16
    order = 16
    lhs = lif_series(k, order).derivative().multiply_by_t()
    assert lhs == lif_series(k - 1, order) - lif_series(k, order)


# ---------------------------------------------------------------------------
# Bernoulli polynomials of the second kind

def test_bernoulli_2nd_small():
    assert bernoulli_2nd_poly(0) == Polynomial([1])
    assert bernoulli_2nd_poly(1) == X + F(1, 2)
    assert bernoulli_2nd_poly(2) == X**2 - F(1, 6)


def test_bernoulli_2nd_numbers():
    assert bernoulli_2nd_number(0) == 1
    assert bernoulli_2nd_number(1) == F(1, 2)
    assert bernoulli_2nd_number(2) == -F(1, 6)
    assert t_over_log1p_series(3).sequence_value(2) == -F(1, 6)


@pytest.mark.parametrize("n", range(9))
def test_bernoulli_2nd_number_is_value_at_zero(n):
    assert bernoulli_2nd_number(n) == bernoulli_2nd_poly(n)(0)


def test_t_over_log1p_squared():
    assert (t_over_log1p_series(4) ** 2).coefficient(2) == F(1, 12)


# ---------------------------------------------------------------------------
# Higher-order Bernoulli polynomials

@pytest.mark.parametrize("alpha", range(-3, 4))
def test_bernoulli_high_order_degree_one(alpha):
    assert bernoulli_high_order_poly(1, alpha) == X - F(alpha, 2)
    assert bernoulli_high_order_poly(0, alpha) == Polynomial([1])


def test_bernoulli_high_order_value():
    assert bernoulli_high_order_poly(2, 2)(0) == F(5, 6)


# ---------------------------------------------------------------------------
# Frobenius-Euler polynomials

@pytest.mark.parametrize("lam", LAMBDAS)
def test_frobenius_euler_small(lam):
    assert frobenius_euler_poly(0, 2, lam) == Polynomial([1])
    assert frobenius_euler_poly(1, 1, lam) == X - 1 / (1 - lam)


def test_frobenius_euler_classical_euler():
    assert frobenius_euler_poly(1, 1, -1) == X - F(1, 2)


def test_frobenius_euler_rejects_lambda_one():
    with pytest.raises(ValueError, match="differ from 1"):
        frobenius_euler_poly(2, 1, 1)
    with pytest.raises(ValueError):
        frobenius_euler_poly(2, -1, F(1, 2))


# ---------------------------------------------------------------------------
# Narumi polynomials

@pytest.mark.parametrize("a", range(-4, 5))
def test_narumi_small(a):
    assert narumi_poly(0, a) == Polynomial([1])
    assert narumi_poly(1, a) == X - F(a, 2)


@pytest.mark.parametrize("r", range(5))
def test_narumi_number_matches_high_order_bernoulli(r):
    assert narumi_poly(1, -r)(0) == F(r, 2)
    assert bernoulli_high_order_poly(1, 2 - r)(1) == F(r, 2)


@pytest.mark.parametrize("a", range(-4, 5))
@pytest.mark.parametrize("n", range(7))
def test_narumi_is_shifted_high_order_bernoulli(n, a):
    assert narumi_poly(n, a) == bernoulli_high_order_poly(n, n + a + 1).shift(1)


# ---------------------------------------------------------------------------
# Convolution weights

def test_convolution_base_cases():
    assert bernoulli2nd_convolution(0, 0) == 1
    assert bernoulli2nd_convolution(0, 3) == 0
    assert bernoulli2nd_convolution(1, 2) == -F(1, 6)
    assert bernoulli2nd_convolution(2, 1) == 1


@pytest.mark.parametrize("r", range(5))
def test_convolution_matches_series_power(r):
    power = t_over_log1p_series(7) ** r
    for a in range(7):
        assert bernoulli2nd_convolution(r, a) == power.sequence_value(a), (r, a)


def _compositions(total, count):
    if count == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, count - 1):
            yield (first,) + rest


def _composition_sum(r, a):
    # The defining sum, one term per composition a_1+...+a_r = a.
    b = [bernoulli_2nd_number(j) for j in range(a + 1)]
    total = F(0)
    for parts in _compositions(a, r):
        term = F(factorial(a))
        for p in parts:
            term *= b[p] / factorial(p)
        total += term
    return total


@pytest.mark.parametrize("r", range(5))
def test_convolution_is_the_composition_sum(r):
    for a in range(13):
        assert bernoulli2nd_convolution(r, a) == _composition_sum(r, a), (r, a)


def test_convolution_at_a_wide_order():
    assert bernoulli2nd_convolution(10, 20) == (t_over_log1p_series(20) ** 10).sequence_value(20)


# ---------------------------------------------------------------------------
# Cross-cutting properties

@pytest.mark.parametrize("n", range(8))
def test_families_are_monic_of_exact_degree(n):
    members = [
        bernoulli_2nd_poly(n),
        bernoulli_high_order_poly(n, 3),
        bernoulli_high_order_poly(n, -2),
        frobenius_euler_poly(n, 2, F(1, 2)),
        narumi_poly(n, -3),
        narumi_poly(n, 2),
    ]
    for p in members:
        assert p.degree == n
        assert p.leading_coefficient == 1


def test_binom_conventions():
    assert binom(5, 2) == 10
    assert binom(5, -1) == 0
    assert binom(3, 4) == 0
