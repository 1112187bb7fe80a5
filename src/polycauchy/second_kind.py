"""Poly-Cauchy numbers and polynomials of the second kind.

The family C_n^(k)(x), with n >= 0 and any integer k, is pinned by the
exponential generating function

    Lif_k(-log(1+t)) * (1+t)^x  =  sum_n  C_n^(k)(x) t^n / n!

where Lif_k is the polylog-factorial series.  C_n^(k) denotes the number
C_n^(k)(0).  Every quantity here is computed along two genuinely independent
routes: explicit Stirling-number sums (``number_closed``, ``poly_closed``)
and coefficient extraction from the generating function (``poly_oracle``,
``number_oracle``); the verification suite holds the routes equal, along with
the recurrences, the addition/difference/derivative identities, and the three
connection-coefficient expansions.

Closed-route values are memoized per (n, k).  The oracle keeps grown rows
per k (``memo.grown_value``): C_0^(k)(x), ..., C_N^(k)(x) are all read off
one generating-function series of order N, which is rebuilt at order
max(n, 2N) only when a degree n > N is asked for.  Truncation modulo
t^(N+1) is a ring homomorphism, so every value equals the one read off a
fresh series of order n+1.  The caches are invisible to results.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import factorial, perm

from .memo import grown_value
from .poly import (
    Basis,
    BasisKind,
    Polynomial,
    X,
    expand_in_monic_basis,
    falling_factorial_poly,
    falling_factorial_value,
    linear_combination,
)
from .sequences import (
    bernoulli2nd_convolution,
    bernoulli_high_order_poly,
    binom,
    frobenius_euler_poly,
    lif_series,
    narumi_poly,
    stirling1,
)
from .series import TruncatedSeries, binomial_series, log1p_series

__all__ = [
    "number_closed",
    "number_bernoulli_form",
    "number_oracle",
    "poly_closed",
    "poly_oracle",
    "closed_coefficient",
    "theorem1_rhs_coefficient",
    "gf_number_series",
    "addition_rhs",
    "difference_sides",
    "recurrence_theorem2_rhs",
    "recurrence_theorem3_rhs",
    "theorem4_sides",
    "theorem4_m1_corrected_sides",
    "derivative_formula",
    "WeightRoute",
    "bernoulli2nd_power_weight",
    "ConnectionMatrix",
    "basis_member",
    "connection",
    "connection_to_bernoulli",
    "connection_to_frobenius",
    "connection_to_falling",
    "connection_by_triangular_solve",
]


def _sign(e: int) -> int:
    """(-1)**e for an exponent of either sign."""
    return -1 if e % 2 else 1


# ---------------------------------------------------------------------------
# Generating-function route

@lru_cache(maxsize=None)
def gf_number_series(k: int, order: int) -> TruncatedSeries:
    """Lif_k(-log(1+t)): the number-level generating function, truncated."""
    return lif_series(k, order).compose(-log1p_series(order))


def _gf_polynomial_series(k: int, order: int) -> TruncatedSeries:
    return gf_number_series(k, order) * binomial_series(order)


_ORACLE_POLYS: dict[tuple, tuple] = {}
_ORACLE_NUMBERS: dict[tuple, tuple] = {}


def poly_oracle(n: int, k: int) -> Polynomial:
    """C_n^(k)(x) read off the generating function."""
    return grown_value(_ORACLE_POLYS, (k,), n, _gf_polynomial_series)


def number_oracle(n: int, k: int) -> Fraction:
    """C_n^(k) read off the number-level generating function."""
    return grown_value(_ORACLE_NUMBERS, (k,), n, gf_number_series)


# ---------------------------------------------------------------------------
# Closed-form route

def _check_index(n: int) -> None:
    """Refuse a negative degree, as the generating-function route does."""
    if n < 0:
        raise ValueError("sequence index must be non-negative")


@lru_cache(maxsize=None)
def number_closed(n: int, k: int) -> Fraction:
    """C_n^(k) = sum_{m=0}^{n} S1(n,m) (-1)^m / (m+1)^k."""
    _check_index(n)
    total = Fraction(0)
    for m in range(n + 1):
        total += stirling1(n, m) * _sign(m) * Fraction(m + 1) ** (-k)
    return total


@lru_cache(maxsize=None)
def number_bernoulli_form(n: int, k: int) -> Fraction:
    """C_n^(k) = sum_{l=0}^{n-1} (-1)^(l+1) C(n-1,l) B_{n-1-l}^{(n)} / (l+2)^k,
    stated for n >= 1."""
    if n < 1:
        raise ValueError("the higher-order-Bernoulli form is defined for n >= 1")
    total = Fraction(0)
    for l in range(n):
        weight = bernoulli_high_order_poly(n - 1 - l, n)(0)
        total += _sign(l + 1) * binom(n - 1, l) * weight * Fraction(l + 2) ** (-k)
    return total


def closed_coefficient(n: int, j: int, k: int) -> Fraction:
    """x^j coefficient of C_n^(k)(x):
    sum_{m=j}^{n} (-1)^(m-j) C(m,j) S1(n,m) / (m-j+1)^k."""
    _check_index(n)
    total = Fraction(0)
    for m in range(j, n + 1):
        total += _sign(m - j) * binom(m, j) * stirling1(n, m) * Fraction(m - j + 1) ** (-k)
    return total


def theorem1_rhs_coefficient(n: int, j: int, k: int) -> Fraction:
    """The same x^j coefficient rebuilt from higher-order Bernoulli numbers:
    sum_{l=j-1}^{n-1} (-1)^(l+1-j) C(n-1,l) C(l+1,j) B_{n-1-l}^{(n)} / (l+2-j)^k,
    stated for n >= 1 and 1 <= j <= n."""
    if not 1 <= j <= n:
        raise ValueError("coefficient identity needs 1 <= j <= n")
    total = Fraction(0)
    for l in range(j - 1, n):
        weight = bernoulli_high_order_poly(n - 1 - l, n)(0)
        total += (
            _sign(l + 1 - j)
            * binom(n - 1, l)
            * binom(l + 1, j)
            * weight
            * Fraction(l + 2 - j) ** (-k)
        )
    return total


@lru_cache(maxsize=None)
def poly_closed(n: int, k: int) -> Polynomial:
    """C_n^(k)(x), monic of degree n, assembled from ``closed_coefficient``."""
    _check_index(n)
    return Polynomial(closed_coefficient(n, j, k) for j in range(n + 1))


# ---------------------------------------------------------------------------
# Identities in polynomial form

def addition_rhs(n: int, k: int, y: Fraction | int) -> Polynomial:
    """sum_{j=0}^{n} C(n,j) C_j^(k)(x) (y)_{n-j}; equals C_n^(k)(x+y)."""
    return linear_combination(
        [binom(n, j) * falling_factorial_value(y, n - j) for j in range(n + 1)],
        [poly_closed(j, k) for j in range(n + 1)],
    )


def difference_sides(n: int, k: int) -> tuple[Polynomial, Polynomial]:
    """(C_n^(k)(x+1) - C_n^(k)(x),  n * C_{n-1}^(k)(x)) for n >= 1."""
    if n < 1:
        raise ValueError("the difference identity needs n >= 1")
    p = poly_closed(n, k)
    return p.shift(1) - p, n * poly_closed(n - 1, k)


def recurrence_theorem2_rhs(n: int, k: int) -> Polynomial:
    """x C_n^(k)(x-1) - sum_j { sum_{l=j}^{n} S1(n,l) (-1)^(l-j) C(l,j)
    / (l-j+2)^k } (x-1)^j; equals C_{n+1}^(k)(x).

    The sum is the polynomial with the braced weights as coefficients,
    shifted by -1."""
    weights = []
    for j in range(n + 1):
        weight = Fraction(0)
        for l in range(j, n + 1):
            weight += stirling1(n, l) * _sign(l - j) * binom(l, j) * Fraction(l - j + 2) ** (-k)
        weights.append(weight)
    return X * poly_closed(n, k).shift(-1) - Polynomial(weights).shift(-1)


def recurrence_theorem3_rhs(n: int, k: int) -> Polynomial:
    """x C_{n-1}^(k)(x-1) + (1/n) sum_{l=0}^{n} C(n,l) B_l^{(l)}(1)
    { C_{n-l}^(k-1)(x-1) - C_{n-l}^(k)(x-1) }; equals C_n^(k)(x) for n >= 1.

    Shifting is linear, so the braced sum is summed first and shifted once."""
    if n < 1:
        raise ValueError("the descent recurrence needs n >= 1")
    weights = []
    polys = []
    for l in range(n + 1):
        weight = binom(n, l) * bernoulli_high_order_poly(l, l)(1) / n
        weights += [weight, -weight]
        polys += [poly_closed(n - l, k - 1), poly_closed(n - l, k)]
    mix = linear_combination(weights, polys)
    return X * poly_closed(n - 1, k).shift(-1) + mix.shift(-1)


def theorem4_sides(n: int, m: int, k: int) -> tuple[Fraction, Fraction]:
    """Both sides of the two-way Stirling/number contraction, for n >= m >= 1:

    LHS  sum_l m! C(n,l+m) S1(l+m,m) C_{n-l-m}^(k)
    RHS  sum_l (m-1)! C(n-1,l+m-1) S1(l+m-1,m-1)
             { (m-1) C_{n-l-m}^(k)(-1) + C_{n-l-m}^(k-1)(-1) }
    """
    if not 1 <= m <= n:
        raise ValueError("the contraction identity needs n >= m >= 1")
    lhs = Fraction(0)
    rhs = Fraction(0)
    for l in range(n - m + 1):
        lhs += factorial(m) * binom(n, l + m) * stirling1(l + m, m) * number_closed(n - l - m, k)
        inner = (m - 1) * poly_closed(n - l - m, k)(-1) + poly_closed(n - l - m, k - 1)(-1)
        rhs += factorial(m - 1) * binom(n - 1, l + m - 1) * stirling1(l + m - 1, m - 1) * inner
    return lhs, rhs


def theorem4_m1_corrected_sides(n: int, k: int) -> tuple[Fraction, Fraction]:
    """The m = 1 contraction with the corrected left-hand index n-1:

    C_{n-1}^(k-1)(-1) = sum_{l=0}^{n-1} (-1)^l l! C(n,l+1) C_{n-l-1}^(k)
    """
    if n < 1:
        raise ValueError("the m = 1 contraction needs n >= 1")
    lhs = poly_closed(n - 1, k - 1)(-1)
    rhs = Fraction(0)
    for l in range(n):
        rhs += _sign(l) * factorial(l) * binom(n, l + 1) * number_closed(n - l - 1, k)
    return lhs, rhs


def derivative_formula(n: int, k: int) -> Polynomial:
    """(-1)^n n! sum_{l=0}^{n-1} (-1)^(l-1) / ((n-l) l!) C_l^(k)(x);
    equals d/dx C_n^(k)(x) for n >= 1."""
    if n < 1:
        raise ValueError("the derivative expansion needs n >= 1")
    scale = _sign(n) * factorial(n)
    return linear_combination(
        [scale * _sign(l - 1) * Fraction(1, (n - l) * factorial(l)) for l in range(n)],
        [poly_closed(l, k) for l in range(n)],
    )


# ---------------------------------------------------------------------------
# Connection-coefficient expansions

class WeightRoute(Enum):
    """Three equal ways of computing the weights a! [t^a] (t/log(1+t))^r."""

    HIGH_ORDER_BERNOULLI = "high-order-bernoulli"
    NARUMI = "narumi"
    CONVOLUTION = "convolution"


def bernoulli2nd_power_weight(
    a: int, r: int, route: WeightRoute = WeightRoute.HIGH_ORDER_BERNOULLI
) -> Fraction:
    """a! [t^a] (t/log(1+t))^r, by the chosen route: the higher-order
    Bernoulli value B_a^{(a-r+1)}(1), the Narumi number N_a^{(-r)}(0), or the
    multinomial convolution of Bernoulli-second-kind numbers."""
    if route is WeightRoute.HIGH_ORDER_BERNOULLI:
        return bernoulli_high_order_poly(a, a - r + 1)(1)
    if route is WeightRoute.NARUMI:
        return narumi_poly(a, -r)(0)
    return bernoulli2nd_convolution(r, a)


@dataclass(frozen=True)
class ConnectionMatrix:
    """The row of connection coefficients writing C_n^(k)(x) in a target
    basis: C_n^(k)(x) = sum_m entries[m] * (degree-m basis member)."""

    n: int
    k: int
    basis: Basis
    entries: tuple[Fraction, ...]

    def reconstruct(self) -> Polynomial:
        """Reassemble the polynomial the row claims to expand."""
        return linear_combination(
            self.entries, [basis_member(self.basis, m) for m in range(len(self.entries))]
        )


def basis_member(basis: Basis, m: int) -> Polynomial:
    """The degree-m polynomial of the given basis."""
    if basis.kind is BasisKind.FALLING_FACTORIAL:
        return falling_factorial_poly(m)
    if basis.kind is BasisKind.HIGHER_ORDER_BERNOULLI:
        return bernoulli_high_order_poly(m, basis.order)
    return frobenius_euler_poly(m, basis.order, basis.param)


def connection_to_bernoulli(
    n: int, k: int, r: int, route: WeightRoute = WeightRoute.HIGH_ORDER_BERNOULLI
) -> ConnectionMatrix:
    """Expansion in the order-r higher-order Bernoulli basis:

    C_{n,m} = sum_{l=0}^{n-m} sum_{a=0}^{n-m-l} C(n,l+m) C(n-m-l,a)
              S1(l+m,m) w_{a,r} C_{n-m-l-a}^(k)

    with w_{a,r} the ``bernoulli2nd_power_weight`` of the chosen route.
    """
    if r < 0:
        raise ValueError("basis order must be non-negative")
    entries = []
    for m in range(n + 1):
        total = Fraction(0)
        for l in range(n - m + 1):
            s = stirling1(l + m, m)
            if not s:
                continue
            prefix = binom(n, l + m) * s
            for a in range(n - m - l + 1):
                total += (
                    prefix
                    * binom(n - m - l, a)
                    * bernoulli2nd_power_weight(a, r, route)
                    * number_closed(n - m - l - a, k)
                )
        entries.append(total)
    return ConnectionMatrix(n, k, Basis.higher_order_bernoulli(r), tuple(entries))


def connection_to_frobenius(n: int, k: int, r: int, lam: Fraction | int) -> ConnectionMatrix:
    """Expansion in the Frobenius-Euler basis of order r and parameter lambda:

    C_{n,m} = sum_{l=0}^{n-m} sum_{a=0}^{r} C(n,l+m) C(r,a) (n-m-l)_a
              (1-lambda)^(-a) S1(l+m,m) C_{n-m-l-a}^(k)

    The inner sum depends on m and l only through N = n-m-l, and (N)_a
    vanishes for a > N, so it is computed once per N <= n:

    g(N) = sum_{a=0}^{min(r,N)} C(r,a) (N)_a (1-lambda)^(-a) C_{N-a}^(k)

    and the row is the convolution C_{n,m} = sum_{j=m}^{n} C(n,j) S1(j,m) g(n-j),
    O(nr + n^2) terms instead of O(n^2 r).
    """
    basis = Basis.frobenius_euler(r, lam)
    step = 1 / (1 - basis.param)
    weights = [binom(r, a) * step**a for a in range(r + 1)]
    g = [
        sum(weights[a] * perm(big_n, a) * number_closed(big_n - a, k)
            for a in range(min(r, big_n) + 1))
        for big_n in range(n + 1)
    ]
    entries = []
    for m in range(n + 1):
        total = Fraction(0)
        for j in range(m, n + 1):
            s = stirling1(j, m)
            if s:
                total += binom(n, j) * s * g[n - j]
        entries.append(total)
    return ConnectionMatrix(n, k, basis, tuple(entries))


def connection_to_falling(n: int, k: int) -> ConnectionMatrix:
    """Expansion in the falling-factorial basis: C_{n,m} = C(n,m) C_{n-m}^(k)."""
    entries = tuple(binom(n, m) * number_closed(n - m, k) for m in range(n + 1))
    return ConnectionMatrix(n, k, Basis.falling_factorial(), entries)


def connection(n: int, k: int, basis: Basis) -> ConnectionMatrix:
    """The connection row of C_n^(k)(x) in ``basis``, by its closed formula."""
    if basis.kind is BasisKind.FALLING_FACTORIAL:
        return connection_to_falling(n, k)
    if basis.kind is BasisKind.HIGHER_ORDER_BERNOULLI:
        return connection_to_bernoulli(n, k, basis.order)
    return connection_to_frobenius(n, k, basis.order, basis.param)


def connection_by_triangular_solve(n: int, k: int, basis: Basis) -> ConnectionMatrix:
    """Independent route to the same row: expand C_n^(k)(x) and the basis
    members in the monomial basis and back-substitute down the triangle."""
    members = [basis_member(basis, m) for m in range(n + 1)]
    entries = expand_in_monic_basis(poly_closed(n, k), members)
    padded = entries + (Fraction(0),) * (n + 1 - len(entries))
    return ConnectionMatrix(n, k, basis, padded)
