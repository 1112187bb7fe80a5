import random
import sys
import time
from fractions import Fraction as F
from math import factorial, perm

import pytest

from polycauchy import second_kind as sk
from polycauchy.poly import (
    Basis,
    Polynomial,
    X,
    _integer_numerators,
    falling_factorial_value,
)
from polycauchy.sequences import (
    DEFAULT_STIRLING_LIMIT,
    Stirling1Table,
    TableLimitError,
    _grown_rows,
    bernoulli_2nd_poly,
    bernoulli_high_order_poly,
    binom,
    falling_factorial_poly,
    stirling1,
)
from polycauchy.verify import DEFAULT_LAMBDAS, DEFAULT_Y_VALUES

KS = range(-3, 4)


# ---------------------------------------------------------------------------
# Numbers

@pytest.mark.parametrize("k", KS)
def test_number_degree_zero_is_one(k):
    assert sk.number_closed(0, k) == 1


@pytest.mark.parametrize(
    "route",
    [
        lambda n: sk.number_closed(n, 1),
        lambda n: sk.number_oracle(n, 1),
        lambda n: sk.poly_closed(n, 1),
        lambda n: sk.poly_oracle(n, 1),
        lambda n: sk.closed_coefficient(n, 0, 1),
    ],
    ids=["number_closed", "number_oracle", "poly_closed", "poly_oracle", "closed_coefficient"],
)
def test_negative_index_is_refused_by_both_routes(route):
    with pytest.raises(ValueError, match="sequence index must be non-negative"):
        route(-1)


@pytest.mark.parametrize(
    "call",
    [
        lambda n: sk.connection_to_falling(n, 2),
        lambda n: sk.connection_to_bernoulli(n, 1, 1),
        lambda n: sk.connection_to_frobenius(n, 1, 1, 2),
        lambda n: sk.connection(n, 1, Basis.falling_factorial()),
        lambda n: sk.connection(n, 1, Basis.higher_order_bernoulli(2)),
        lambda n: sk.connection(n, 1, Basis.frobenius_euler(1, F(-1))),
        lambda n: sk.addition_rhs(n, 1, 2),
    ],
    ids=["falling", "bernoulli", "frobenius", "connection-falling", "connection-bernoulli",
         "connection-frobenius", "addition_rhs"],
)
@pytest.mark.parametrize("n", [-1, -2])
def test_negative_degree_is_refused(call, n):
    with pytest.raises(ValueError, match="sequence index must be non-negative"):
        call(n)


def test_number_golden_values():
    assert sk.number_closed(2, 1) == F(5, 6)
    assert sk.number_closed(2, 2) == F(13, 36)
    assert sk.number_oracle(2, 1) == F(5, 6)
    assert sk.number_oracle(2, 2) == F(13, 36)


@pytest.mark.parametrize("k", KS)
def test_number_bernoulli_form(k):
    assert sk.number_bernoulli_form(1, k) == -F(2) ** (-k)
    assert sk.number_bernoulli_form(2, 1) == F(5, 6)
    assert sk.number_bernoulli_form(3, 2) == sk.number_closed(3, 2)


def test_number_bernoulli_form_needs_positive_index():
    with pytest.raises(ValueError, match="n >= 1"):
        sk.number_bernoulli_form(0, 1)


@pytest.mark.parametrize("k", range(-4, 5))
def test_number_row_is_the_numbers_over_their_lcm(k):
    # Each number summed on its own, by the closed-polynomial kernel.
    for n in range(64):
        numbers = [sk._stirling_sums(i, k, 1, 1).coefficient(0) for i in range(n + 1)]
        nums, den = _integer_numerators(numbers)
        # A tuple, which a list never equals: every reader shares this row.
        assert sk._number_row(n, k) == (tuple(nums), den), (n, k)


@pytest.mark.parametrize("k", [-40, 3, 40])
def test_a_scan_of_the_numbers_reads_power_of_two_rows(k):
    # Degree i comes from the row of grown_order(i), so a cold scan of
    # i <= 64 builds the rows of orders 0, 1, 2, 4, ..., 64, not 65 rows.
    sk._number_row.cache_clear()
    scan = [sk.number_closed(i, k) for i in range(CAP + 1)]
    assert sk._number_row.cache_info().currsize <= 8
    assert scan == [sk._stirling_sums(i, k, 1, 1).coefficient(0) for i in range(CAP + 1)]


# ---------------------------------------------------------------------------
# Polynomials, both routes

@pytest.mark.parametrize("k", KS)
def test_poly_closed_degree_one(k):
    assert sk.poly_closed(1, k) == X - F(2) ** (-k)


def test_poly_closed_golden():
    assert sk.poly_closed(2, 1) == X**2 - 2 * X + F(5, 6)


@pytest.mark.parametrize("n", range(6))
def test_poly_closed_k0_is_shifted_falling(n):
    assert sk.poly_closed(n, 0) == falling_factorial_poly(n).shift(-1)
    assert sk.poly_closed(2, 0) == X**2 - 3 * X + 2


def test_poly_oracle_examples():
    assert sk.poly_oracle(0, 5) == Polynomial([1])
    assert sk.poly_oracle(2, 1) == X**2 - 2 * X + F(5, 6)
    assert sk.poly_oracle(1, 3) == X - F(1, 8)


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("n", range(9))
def test_dual_path_equality(n, k):
    assert sk.poly_closed(n, k) == sk.poly_oracle(n, k)
    assert sk.number_closed(n, k) == sk.poly_oracle(n, k)(0)
    assert sk.number_closed(n, k) == sk.number_oracle(n, k)


def test_oracle_never_reads_the_stirling_table(monkeypatch):
    # The two routes are independent: the oracle sums its falling factorials
    # by Horner's scheme in the falling basis, never from the Stirling table.
    def refuse(self, n, l=None):
        raise AssertionError(f"the oracle read S1({n}, {'.' if l is None else l})")

    _grown_rows.cache_clear()
    monkeypatch.setattr(Stirling1Table, "value", refuse)
    monkeypatch.setattr(Stirling1Table, "row", refuse)
    oracle = {(n, k): sk.poly_oracle(n, k) for k in (-2, 0, 3) for n in range(17)}
    monkeypatch.undo()
    for (n, k), p in oracle.items():
        assert p == sk.poly_closed(n, k), (n, k)


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("n", range(9))
def test_poly_is_monic_of_exact_degree(n, k):
    p = sk.poly_closed(n, k)
    assert p.degree == n
    assert p.leading_coefficient == 1


# ---------------------------------------------------------------------------
# The closed Stirling sums against their Fraction loop, and both routes at
# the Stirling cap

CAP = DEFAULT_STIRLING_LIMIT
# Every degree is checked at j = 0, and whole rows at the small degrees and
# at the cap: the Fraction loop over every j of every n would take about six
# times as long as this sample.
FULL_ROWS = (*range(13), CAP - 1, CAP)


def _stirling_sums_loop(n, k, c, width):
    """Reference: one Fraction term per (j, m) of
    sum_{m=j}^{n} S1(n,m) (-1)^(m-j) C(m,j) / (m-j+c)^k, for j < width."""
    sums = []
    for j in range(width):
        total = F(0)
        for m in range(j, n + 1):
            total += _sign(m - j) * binom(m, j) * stirling1(n, m) * F(m - j + c) ** (-k)
        sums.append(total)
    return sums


@pytest.mark.parametrize("k", [*range(-8, 9), 40, -40])
def test_closed_kernel_equals_fraction_loop(k):
    for c in (1, 2):
        for n in range(CAP + 1):
            width = n + 1 if n in FULL_ROWS else 1
            expected = _stirling_sums_loop(n, k, c, width)
            assert sk._stirling_sums(n, k, c, width) == Polynomial(expected), (n, c)
            if c == 1:
                assert sk.number_closed(n, k) == expected[0], n
                if width > 1:
                    assert sk.poly_closed(n, k) == Polynomial(expected), n


@pytest.mark.parametrize("k", KS)
def test_number_routes_agree_at_the_stirling_cap(k):
    gf = sk.gf_number_series(k, CAP)
    for n in range(CAP + 1):
        assert sk.number_closed(n, k) == gf.sequence_value(n), n


@pytest.mark.parametrize("k", [-3, 2])
def test_polynomial_routes_agree_below_the_stirling_cap(k):
    for n in range(CAP):
        assert sk.poly_closed(n, k) == sk.poly_oracle(n, k), n


def test_closed_route_refuses_degrees_past_the_cap():
    with pytest.raises(TableLimitError):
        sk.number_closed(CAP + 1, 1)
    with pytest.raises(TableLimitError):
        sk.poly_closed(CAP + 1, -1)
    # Refused from the Stirling table, before lcm(1..n+1)^k is built.
    started = time.perf_counter()
    with pytest.raises(TableLimitError):
        sk.number_closed(10**6, 3)
    assert time.perf_counter() - started < 1


# ---------------------------------------------------------------------------
# Addition and difference

@pytest.mark.parametrize("k", KS)
def test_addition_degree_one(k):
    # fresh route: shift of x - 1/2^k by y is x + y - 1/2^k
    y = F(1, 2)
    assert sk.addition_rhs(1, k, y) == X + y - F(2) ** (-k)


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("n", range(5))
def test_addition_collapses_at_y_zero(n, k):
    assert sk.addition_rhs(n, k, 0) == sk.poly_closed(n, k)


def test_addition_worked_example():
    # both routes give x^2 - 1/6 at n=2, k=1, y=1
    assert sk.poly_closed(2, 1).shift(1) == X**2 - F(1, 6)
    assert sk.addition_rhs(2, 1, 1) == X**2 - F(1, 6)


@pytest.mark.parametrize("y", [F(-2), F(-1), F(0), F(1), F(2), F(1, 2)])
@pytest.mark.parametrize("n", range(6))
def test_addition_matches_shift(n, y):
    assert sk.addition_rhs(n, -2, y) == sk.poly_closed(n, -2).shift(y)


@pytest.mark.parametrize("k", KS)
def test_difference_small(k):
    lhs, rhs = sk.difference_sides(1, k)
    assert lhs == rhs == Polynomial([1])
    lhs2, rhs2 = sk.difference_sides(2, 1)
    assert lhs2 == rhs2 == 2 * X - 1


@pytest.mark.parametrize("k", KS)
def test_difference_degree_three(k):
    lhs, rhs = sk.difference_sides(3, k)
    assert lhs == rhs


def test_difference_needs_positive_degree():
    with pytest.raises(ValueError):
        sk.difference_sides(0, 1)


# ---------------------------------------------------------------------------
# Recurrences

@pytest.mark.parametrize("k", KS)
def test_theorem2_base(k):
    assert sk.recurrence_theorem2_rhs(0, k) == sk.poly_closed(1, k)


@pytest.mark.parametrize("k", KS)
def test_theorem2_degree_one_expansion(k):
    expected = Polynomial([F(2) ** (-k) + F(3) ** (-k), -(1 + 2 * F(2) ** (-k)), 1])
    assert sk.recurrence_theorem2_rhs(1, k) == expected
    assert expected == sk.poly_closed(2, k)


def test_theorem2_negative_k():
    assert sk.recurrence_theorem2_rhs(2, -1) == sk.poly_closed(3, -1)


@pytest.mark.parametrize("k", KS)
def test_theorem3_degree_one(k):
    rhs = sk.recurrence_theorem3_rhs(1, k)
    assert rhs == X - F(2) ** (-k)
    assert rhs(0) == -F(2) ** (-k)


def test_theorem3_example():
    assert sk.recurrence_theorem3_rhs(3, 2) == sk.poly_closed(3, 2)


def test_theorem3_needs_positive_degree():
    with pytest.raises(ValueError):
        sk.recurrence_theorem3_rhs(0, 1)


# ---------------------------------------------------------------------------
# The two-way contraction (theorem 4)

@pytest.mark.parametrize("k", KS)
def test_theorem4_corner_cases(k):
    lhs, rhs = sk.theorem4_sides(1, 1, k)
    assert lhs == rhs == 1
    lhs, rhs = sk.theorem4_sides(2, 2, k)
    assert lhs == rhs == 2
    lhs, rhs = sk.theorem4_sides(2, 1, k)
    assert lhs == rhs == -1 - F(2) ** (1 - k)


def test_theorem4_domain():
    with pytest.raises(ValueError):
        sk.theorem4_sides(2, 0, 1)
    with pytest.raises(ValueError):
        sk.theorem4_sides(2, 3, 1)


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("n", range(1, 7))
def test_theorem4_m1_corrected(n, k):
    lhs, rhs = sk.theorem4_m1_corrected_sides(n, k)
    assert lhs == rhs


@pytest.mark.parametrize("k", KS)
def test_theorem4_m1_as_printed_fails_at_n1(k):
    # The uncorrected reading has left side C_n^(k-1)(-1); at n = 1 that is
    # -1 - 2^(1-k) while the right side is 1, so it cannot be an identity.
    printed_lhs = sk.poly_closed(1, k - 1)(-1)
    _, rhs = sk.theorem4_m1_corrected_sides(1, k)
    assert rhs == 1
    assert printed_lhs == -1 - F(2) ** (1 - k)
    assert printed_lhs != rhs


# ---------------------------------------------------------------------------
# Derivative expansion

def test_derivative_formula_small():
    assert sk.derivative_formula(1, 2) == Polynomial([1])
    assert sk.derivative_formula(2, 1) == 2 * X - 2


def test_derivative_formula_matches_formal_derivative():
    assert sk.derivative_formula(4, -2) == sk.poly_closed(4, -2).derivative()


def test_derivative_formula_domain():
    with pytest.raises(ValueError):
        sk.derivative_formula(0, 1)


# ---------------------------------------------------------------------------
# The identity helpers against their literal forms: one Polynomial sum or
# shift per term of the paper's statement.

def _sign(e):
    return -1 if e % 2 else 1


def _addition_rhs_literal(n, k, y):
    total = Polynomial()
    for j in range(n + 1):
        total = total + binom(n, j) * falling_factorial_value(y, n - j) * sk.poly_closed(j, k)
    return total


def _theorem2_rhs_literal(n, k):
    acc = X * sk.poly_closed(n, k).shift(-1)
    x_minus_1 = Polynomial((-1, 1))
    for j in range(n + 1):
        weight = F(0)
        for l in range(j, n + 1):
            weight += stirling1(n, l) * _sign(l - j) * binom(l, j) * F(l - j + 2) ** (-k)
        acc = acc - weight * x_minus_1**j
    return acc


def _theorem3_rhs_literal(n, k):
    acc = X * sk.poly_closed(n - 1, k).shift(-1)
    mix = Polynomial()
    for l in range(n + 1):
        weight = binom(n, l) * bernoulli_high_order_poly(l, l)(1)
        mix = mix + weight * (
            sk.poly_closed(n - l, k - 1).shift(-1) - sk.poly_closed(n - l, k).shift(-1)
        )
    return acc + mix / n


def _derivative_formula_literal(n, k):
    acc = Polynomial()
    for l in range(n):
        acc = acc + _sign(l - 1) * F(1, (n - l) * factorial(l)) * sk.poly_closed(l, k)
    return _sign(n) * factorial(n) * acc


def _theorem4_sides_loop(n, m, k):
    """Reference: Theorem 4's two sides with one Fraction term per l, each
    C_N(-1) evaluated as a polynomial."""
    lhs = rhs = F(0)
    for l in range(n - m + 1):
        lhs += factorial(m) * binom(n, l + m) * stirling1(l + m, m) * sk.number_closed(n - l - m, k)
        inner = (m - 1) * sk.poly_closed(n - l - m, k)(-1) + sk.poly_closed(n - l - m, k - 1)(-1)
        rhs += factorial(m - 1) * binom(n - 1, l + m - 1) * stirling1(l + m - 1, m - 1) * inner
    return lhs, rhs


@pytest.mark.parametrize("k", KS)
def test_theorem4_sides_equal_fraction_loop(k):
    for n in range(1, 21):
        for m in range(1, n + 1):
            sides = sk.theorem4_sides(n, m, k)
            assert all(type(side) is F for side in sides), (n, m)
            assert sides == _theorem4_sides_loop(n, m, k), (n, m)


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("n", range(13))
def test_identity_helpers_equal_literal_forms(n, k):
    for y in DEFAULT_Y_VALUES:
        assert sk.addition_rhs(n, k, y) == _addition_rhs_literal(n, k, y), y
    assert sk.recurrence_theorem2_rhs(n, k) == _theorem2_rhs_literal(n, k)
    if n >= 1:
        assert sk.recurrence_theorem3_rhs(n, k) == _theorem3_rhs_literal(n, k)
        assert sk.derivative_formula(n, k) == _derivative_formula_literal(n, k)


# ---------------------------------------------------------------------------
# Connection matrices

def test_weight_routes_agree():
    for r in range(5):
        for a in range(7):
            values = {route: sk.bernoulli2nd_power_weight(a, r, route) for route in sk.WeightRoute}
            assert len(set(values.values())) == 1, (r, a, values)


def test_connection_to_bernoulli_small():
    assert sk.connection_to_bernoulli(0, 2, 3).entries == (F(1),)
    cm = sk.connection_to_bernoulli(1, 2, 1)
    assert cm.entries == (F(1, 2) - F(1, 4), F(1))
    assert cm.reconstruct() == sk.poly_closed(1, 2)


def test_connection_to_bernoulli_reconstruction():
    cm = sk.connection_to_bernoulli(2, 1, 2)
    assert cm.reconstruct() == X**2 - 2 * X + F(5, 6)


@pytest.mark.parametrize("route", list(sk.WeightRoute))
def test_connection_routes_produce_identical_matrices(route):
    base = sk.connection_to_bernoulli(4, -1, 3)
    assert sk.connection_to_bernoulli(4, -1, 3, route).entries == base.entries


def test_connection_to_frobenius_small():
    assert sk.connection_to_frobenius(0, 1, 1, F(-1)).entries == (F(1),)
    cm = sk.connection_to_frobenius(1, 2, 1, F(-1))
    assert cm.entries == (F(1, 2) - F(1, 4), F(1))
    assert cm.reconstruct() == sk.poly_closed(1, 2)


def test_connection_to_frobenius_reconstruction():
    cm = sk.connection_to_frobenius(3, 2, 2, F(1, 2))
    assert cm.reconstruct() == sk.poly_closed(3, 2)


def test_connection_to_frobenius_rejects_lambda_one():
    with pytest.raises(ValueError, match="differ from 1"):
        sk.connection_to_frobenius(2, 1, 1, F(1))


def test_connection_to_falling_small():
    assert sk.connection_to_falling(0, 3).entries == (F(1),)
    cm = sk.connection_to_falling(1, 2)
    assert cm.entries == (-F(1, 4), F(1))
    assert cm.reconstruct() == X - F(1, 4)


def test_connection_to_falling_worked_example():
    cm = sk.connection_to_falling(2, 1)
    assert cm.entries == (F(5, 6), F(-1), F(1))
    assert cm.reconstruct() == X**2 - 2 * X + F(5, 6)


def test_connection_to_falling_holds_no_blocks_between_calls():
    # Building the entries with tuple(generator) left one tuple per call on
    # CPython's tuple free list, so warm query passes kept growing RSS.
    for n in range(21):
        sk.connection_to_falling(n, 1)
    before = sys.getallocatedblocks()
    for _ in range(200):
        for n in range(21):
            sk.connection_to_falling(n, 1)
    assert sys.getallocatedblocks() - before < 1000


def _frobenius_row_by_double_sum(n, k, r, lam):
    """Theorem 6 as printed: a literal double sum over l and a.  Terms with
    a > n-m-l carry the factor (n-m-l)_a = 0 and are skipped, since their
    C_{n-m-l-a}^(k) has a negative index.  The powers (1-lambda)^(-a) are
    computed once, and each term multiplies its integer factors first."""
    powers = [(1 - lam) ** (-a) for a in range(r + 1)]
    entries = []
    for m in range(n + 1):
        total = F(0)
        for l in range(n - m + 1):
            for a in range(r + 1):
                falling = perm(n - m - l, a)
                if not falling:
                    continue
                integer = binom(n, l + m) * binom(r, a) * falling * stirling1(l + m, m)
                total += integer * powers[a] * sk.number_closed(n - m - l - a, k)
        entries.append(total)
    return tuple(entries)


@pytest.mark.parametrize("lam", [F(-1), F(1, 2), F(0), F(5, 7), F(-1, 3), F(2)])
@pytest.mark.parametrize("k", [-3, 0, 2])
def test_frobenius_row_equals_double_sum(k, lam):
    for n in range(21):
        for r in (0, 1, 4, 5):
            row = sk.connection_to_frobenius(n, k, r, lam).entries
            assert all(type(e) is F for e in row), (n, r)
            assert row == _frobenius_row_by_double_sum(n, k, r, lam), (n, r)


def _stirling_convolution_by_double_sum(n, g):
    """Each entry m on its own: sum_j C(n,j) S1(j,m) g[n-j], one Stirling
    number and one binomial per (j, m)."""
    return [sum(binom(n, j) * stirling1(j, m) * g[n - j] for j in range(m, n + 1))
            for m in range(n + 1)]


def test_stirling_convolution_equals_double_sum():
    rng = random.Random(20130808)
    for n in range(21):
        for _ in range(4):
            g = [rng.choice((0, rng.randint(-10**6, 10**6), rng.randint(-9, 9)))
                 for _ in range(n + 1)]
            expected = _stirling_convolution_by_double_sum(n, g)
            assert sk._stirling_convolution(n, g) == expected, (n, g)
            for m in range(n + 1):
                assert sk._stirling_entry(n, m, g) == expected[m], (n, m, g)
    assert sk._stirling_convolution(6, [0] * 7) == [0] * 7


def test_connection_to_frobenius_holds_no_blocks_between_calls():
    # The row is on the warm query path: its lcm and entries must leave
    # nothing on CPython's tuple free list from one call to the next.
    for n in range(21):
        sk.connection_to_frobenius(n, 1, 2, F(-1, 3))
    before = sys.getallocatedblocks()
    for _ in range(200):
        for n in range(21):
            sk.connection_to_frobenius(n, 1, 2, F(-1, 3))
    assert sys.getallocatedblocks() - before < 1000


@pytest.mark.parametrize("row", [
    lambda n, k: sk.connection_to_falling(n, k),
    lambda n, k: sk.connection_to_frobenius(n, k, 4, F(-1, 3)),
    lambda n, k: sk.connection_to_bernoulli(n, k, 2),
], ids=["falling", "frobenius-euler", "bernoulli"])
def test_connection_rows_read_the_number_row_once(monkeypatch, row):
    n, k = 12, 1
    reads = []
    number_row = sk._number_row

    def counted(top, order):
        reads.append((top, order))
        return number_row(top, order)

    def number_closed(*args):
        raise AssertionError("read a number apart from its row")

    monkeypatch.setattr(sk, "_number_row", counted)
    monkeypatch.setattr(sk, "number_closed", number_closed)
    row(n, k)
    assert reads == [(n, k)]


def test_frobenius_row_builds_only_the_weights_it_reads(monkeypatch):
    # g(N) reads C(r,a) p^a q^(r-a) only for a <= min(r, N), so a wide
    # order r must cost no more binomials than r = n does.
    n, r = 4, 10**4
    calls = []
    binom = sk.binom

    def counted(top, bottom):
        calls.append((top, bottom))
        return binom(top, bottom)

    monkeypatch.setattr(sk, "binom", counted)
    row = sk.connection_to_frobenius(n, 1, r, 2).entries
    assert len([c for c in calls if c[0] == r]) == n + 1
    assert len(calls) <= (n + 1) * (n + 2)
    assert row == _frobenius_row_by_double_sum(n, 1, r, F(2))


@pytest.mark.parametrize(
    "basis",
    [Basis.falling_factorial(), Basis.higher_order_bernoulli(2), Basis.frobenius_euler(3, F(1, 2))],
    ids=lambda basis: basis.kind.value,
)
def test_reconstruct_is_the_weighted_sum_of_members(basis):
    made = [(F(1),), (F(0),), (F(-2, 3), F(0), F(5), F(0), F(1)), (F(0), F(0), F(7, 2))]
    rows = [sk.ConnectionMatrix(len(e) - 1, 1, basis, e) for e in made]
    rows += [sk.connection(n, 0, basis) for n in range(5)]
    for row in rows:
        expected = Polynomial()
        for m, c in enumerate(row.entries):
            expected = expected + c * sk.basis_member(basis, m)
        assert row.reconstruct() == expected, row.entries


def _reconstruct_by_fractions(row):
    """The row summed coefficient by coefficient in Fractions: entry m
    times each coefficient of the basis member of degree m."""
    coeffs = [F(0)] * len(row.entries)
    for m, entry in enumerate(row.entries):
        for i, c in enumerate(sk.basis_member(row.basis, m).coeffs):
            coeffs[i] += entry * c
    return Polynomial(coeffs)


@pytest.mark.parametrize(
    "basis",
    [Basis.falling_factorial(), Basis.higher_order_bernoulli(3),
     Basis.frobenius_euler(4, F(-1, 3))],
    ids=lambda basis: basis.kind.value,
)
@pytest.mark.parametrize("k", KS)
def test_reconstruct_equals_linear_combination(basis, k):
    for n in range(13):
        row = sk.connection(n, k, basis)
        rebuilt = row.reconstruct()
        assert rebuilt == _reconstruct_by_fractions(row), n
        assert rebuilt == sk.poly_closed(n, k), n
        # A row whose entries do not sum to the closed polynomial.
        off = row._replace(entries=row.entries[:-1] + (F(n + 2, 3),))
        assert off.reconstruct() == _reconstruct_by_fractions(off), n


@pytest.mark.parametrize(
    "basis",
    [Basis.falling_factorial(), Basis.frobenius_euler(2, F(-1, 3))],
    ids=lambda basis: basis.kind.value,
)
def test_reconstruct_holds_no_blocks_between_calls(basis):
    rows = [sk.connection(n, 1, basis) for n in range(21)]
    for row in rows:
        row.reconstruct()
    before = sys.getallocatedblocks()
    for _ in range(200):
        for row in rows:
            row.reconstruct()
    assert sys.getallocatedblocks() - before < 1000


@pytest.mark.parametrize(
    "make, field, other",
    [
        (lambda: Basis.frobenius_euler(2, 2), "param", Basis.frobenius_euler(2, F(1, 2))),
        (lambda: sk.connection(3, 1, Basis.falling_factorial()), "entries",
         sk.connection(3, 2, Basis.falling_factorial())),
    ],
    ids=["Basis", "ConnectionMatrix"],
)
def test_value_types_are_immutable_and_hashable(make, field, other):
    a, b = make(), make()
    assert a == b and hash(a) == hash(b)
    assert a != other
    assert len({a, b, other}) == 2
    with pytest.raises(AttributeError):
        setattr(a, field, None)
    with pytest.raises(AttributeError):
        a.extra = None


@pytest.mark.parametrize("k", range(-2, 3))
@pytest.mark.parametrize("n", range(13))
def test_triangular_solve_agrees_with_formulas(n, k):
    matrices = [sk.connection_to_falling(n, k)]
    matrices += [sk.connection_to_frobenius(n, k, r, lam)
                 for r in range(5) for lam in DEFAULT_LAMBDAS]
    if n < 7:
        matrices.append(sk.connection_to_bernoulli(n, k, 2))
    for matrix in matrices:
        solved = sk.connection_by_triangular_solve(n, k, matrix.basis)
        assert solved.entries == matrix.entries, matrix.basis
        assert sk.connection(n, k, matrix.basis) == matrix


@pytest.mark.parametrize("k", [-1, 1, 3])
@pytest.mark.parametrize("n", range(6))
def test_connection_rows_are_unitriangular(n, k):
    for matrix in (
        sk.connection_to_bernoulli(n, k, 3),
        sk.connection_to_frobenius(n, k, 2, F(1, 2)),
        sk.connection_to_falling(n, k),
    ):
        assert matrix.entries[n] == 1


def test_basis_member_dispatch():
    assert sk.basis_member(Basis.falling_factorial(), 2) == X**2 - X
    assert sk.basis_member(Basis.higher_order_bernoulli(1), 1) == X - F(1, 2)
    assert sk.basis_member(Basis.frobenius_euler(1, F(-1)), 1) == X - F(1, 2)


def test_generating_function_series_matches_numbers():
    gf = sk.gf_number_series(1, 4)
    assert [gf.sequence_value(n) for n in range(5)] == [sk.number_closed(n, 1) for n in range(5)]


def test_caching_is_invisible():
    first = sk.poly_closed(5, 2)
    second = sk.poly_closed(5, 2)
    assert first == second
    assert first.coeffs == second.coeffs


def test_theorem1_coefficient_routes():
    for n in range(1, 7):
        for j in range(1, n + 1):
            for k in (-2, 1, 3):
                assert sk.closed_coefficient(n, j, k) == sk.theorem1_rhs_coefficient(n, j, k)


def test_theorem1_rhs_domain():
    with pytest.raises(ValueError):
        sk.theorem1_rhs_coefficient(3, 0, 1)
