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

The closed route runs through one kernel, ``_stirling_sums``, which computes
sum_{m>=j} S1(n,m) (-1)^(m-j) C(m,j) / (m-j+c)^k for every j at once as the
integer numerators of a ``Polynomial`` over one common denominator (FLINT's
``fmpq_poly`` layout, the one ``Polynomial`` stores): lcm(c..n+c)^k for
k >= 0 and 1 for k < 0.  ``poly_closed`` is that polynomial at c = 1,
``closed_coefficient`` one of its coefficients, and Theorem 2's braced
weights are the polynomial at c = 2.  The numbers have a row of their own,
``_number_row``: C_0^(k)..C_n^(k) over their lcm, each entry the dot product
of one Stirling row with the powers 1/(m+1)^k over lcm(1..n+1)^k, made once
per row.  ``number_closed`` reads entry n of the row of ``grown_order(n)``,
as the Sheffer families read degree n; the connection rows and Theorem 4
read the row of exactly the degree they need.
The same layout runs Theorem 6's factored row, ``connection_to_frobenius``:
the numbers C_0^(k)..C_n^(k) over their lcm L and the weights of
1/(1-lambda) = p/q over q^r, so each entry is one Fraction over L q^r whose
numerator is entry m of ``_stirling_convolution``, sum_j C(n,j) S1(j,m)
g(n-j) in ints.  That kernel makes every m in one pass over j, reading each
whole Stirling row once (``Stirling1Table.row``).  Theorem 4's left side
needs entry m alone, an O(n) sum over the same rows (``_stirling_entry``);
its right side is one ``linear_combination`` of closed polynomials read at
x = -1.  Its corrected m = 1 case is summed on its own, over the numbers
with no Stirling number, so it checks the erratum rather than Theorem 4
again.  Theorem 7's falling row is C(n,m) times the numbers' numerators over
L, and ``ConnectionMatrix.reconstruct`` sums any row against its basis's
grown row in ints over one lcm.  The addition formula's weights are int
products over powers of q.

The oracle reads the numbers off Lif_k(-log(1+t)) and builds each
polynomial by the Sheffer identity (Eq. (34) at x = 0, ``sheffer_rows``),
C_n^(k)(x) = sum_j C(n,j) C_(n-j)^(k) (x)_j, summed in the falling basis by
Horner's scheme Q <- w_j + (x - j) Q down to the lowest nonzero weight and
one product by the falling factorial there, so it never reads the Stirling
table.

The closed route holds two memos, per (n, k): the closed polynomials and
the number row, the one store of the numbers, as a tuple.  Every reader of
the numbers goes through the row: ``number_closed``, Theorem 4's two
contractions and the Bernoulli, Frobenius-Euler and falling rows, which
read it once per call.  The oracle, like each basis of the
expansions, is a Sheffer family whose grown rows sit in the row memo of
``sequences``: degree n is read from the row of order ``grown_order(n)``, and
equals the value built from a fresh series of order n+1.  The oracle numbers
are the oracle polynomials at x = 0.  The caches are invisible to results.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm, perm
from typing import NamedTuple

from .poly import (
    Basis,
    BasisKind,
    Polynomial,
    X,
    _exact,
    _from_numerators,
    _lowest_terms,
    _weighted_sum,
    expand_in_monic_basis,
    linear_combination,
)
from .sequences import (
    _FALLING,
    _FROBENIUS_EULER,
    _HIGH_ORDER_BERNOULLI,
    _TABLE,
    _grown_rows,
    _Sheffer,
    bernoulli2nd_convolution,
    bernoulli_high_order_poly,
    binom,
    grown_order,
    lif_series,
    narumi_poly,
    stirling1,
)
from .series import TruncatedSeries, log1p_series

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


def _refuse_negative(n: int) -> None:
    if n < 0:
        raise ValueError("sequence index must be non-negative")


# ---------------------------------------------------------------------------
# Generating-function route

def gf_number_series(k: int, order: int) -> TruncatedSeries:
    """Lif_k(-log(1+t)): the number-level generating function, truncated."""
    return lif_series(k, order).compose(-log1p_series(order))


_ORACLE = _Sheffer(gf_number_series, falling=True)


def poly_oracle(n: int, k: int) -> Polynomial:
    """C_n^(k)(x) read off the generating function."""
    return _grown_rows(_ORACLE, (k,), grown_order(n))[n]


def number_oracle(n: int, k: int) -> Fraction:
    """C_n^(k) = C_n^(k)(0) read off the generating function."""
    return poly_oracle(n, k).coefficient(0)


# ---------------------------------------------------------------------------
# Closed-form route

def _stirling_sums(n: int, k: int, c: int, width: int) -> Polynomial:
    """The polynomial whose x^j coefficient, for j < width, is
    sum_{m=j}^{n} S1(n,m) (-1)^(m-j) C(m,j) / (m-j+c)^k.

    The sums are the numerators over one common denominator: for k >= 0
    each 1/d^k is (L/d)^k / L^k with L = lcm(c..n+c), and for k < 0 it is
    the integer d^|k|.  Each power is computed once, for the offset
    d - c = m - j it serves.  A negative degree is refused."""
    _refuse_negative(n)
    row = _TABLE.row(n)
    base = lcm(*range(c, n + c + 1))
    den = base**k if k >= 0 else 1
    totals = [0] * width
    for e in range(n + 1):
        power = (base // (e + c)) ** k if k >= 0 else (e + c) ** -k
        if e % 2:
            power = -power
        for j in range(min(width, n + 1 - e)):
            s = row[j + e]
            if s:
                totals[j] += s * comb(j + e, j) * power
    return _from_numerators(totals, den)


def number_closed(n: int, k: int) -> Fraction:
    """C_n^(k) = sum_{m=0}^{n} S1(n,m) (-1)^m / (m+1)^k: entry n of the
    number row of ``grown_order(n)``, as every Sheffer family serves degree
    n, so a scan of degrees 0..N builds rows of orders 0, 1, 2, 4, ..., not
    one row per degree.  A degree past the Stirling table's cap is asked
    for as itself, so the table refuses it by its own number."""
    numbers, den = _number_row(grown_order(n) if n <= _TABLE.n_max else n, k)
    return Fraction(numbers[n], den)


@lru_cache(maxsize=None)
def _number_row(n: int, k: int) -> tuple[tuple[int, ...], int]:
    """The integer numerators of C_0^(k)..C_n^(k) over their lcm L, and L:
    the one store of the numbers, which Theorems 4 to 7 read whole.  The
    numerators are a tuple, so no reader can change the shared row.

    One pass over the Stirling rows, in ints: with B = lcm(1..n+1), each
    1/(m+1)^k is (B/(m+1))^k / B^k for k >= 0, and the integer (m+1)^|k|
    for k < 0.  Those powers, signed by (-1)^m, are made once, entry i is
    the dot product of S1(i, 0..i) with them, and one gcd takes the row
    from B^k to L.  The rows are read first, so a degree past the cap is
    refused before B is built."""
    _refuse_negative(n)
    rows = [_TABLE.row(i) for i in range(n + 1)]
    if k >= 0:
        base = lcm(*range(1, n + 2))
        powers = [(base // (m + 1)) ** k for m in range(n + 1)]
        den = base**k
    else:
        powers = [(m + 1) ** -k for m in range(n + 1)]
        den = 1
    powers[1::2] = [-p for p in powers[1::2]]
    return _lowest_terms([sum([s * p for s, p in zip(row, powers)]) for row in rows], den)


def number_bernoulli_form(n: int, k: int) -> Fraction:
    """C_n^(k) = sum_{l=0}^{n-1} (-1)^(l+1) C(n-1,l) B_{n-1-l}^{(n)} / (l+2)^k,
    stated for n >= 1."""
    if n < 1:
        raise ValueError("the higher-order-Bernoulli form is defined for n >= 1")
    return _theorem1_sum(n, 0, k)


def closed_coefficient(n: int, j: int, k: int) -> Fraction:
    """x^j coefficient of C_n^(k)(x):
    sum_{m=j}^{n} (-1)^(m-j) C(m,j) S1(n,m) / (m-j+1)^k."""
    return poly_closed(n, k).coefficient(j)


def theorem1_rhs_coefficient(n: int, j: int, k: int) -> Fraction:
    """The same x^j coefficient rebuilt from higher-order Bernoulli numbers:
    sum_{l=j-1}^{n-1} (-1)^(l+1-j) C(n-1,l) C(l+1,j) B_{n-1-l}^{(n)} / (l+2-j)^k,
    stated for n >= 1 and 1 <= j <= n."""
    if not 1 <= j <= n:
        raise ValueError("coefficient identity needs 1 <= j <= n")
    return _theorem1_sum(n, j, k)


def _theorem1_sum(n: int, j: int, k: int) -> Fraction:
    """Theorem 1's sum over l from max(j-1, 0) to n-1.  At j = 0 it is
    C_n^(k) itself: the l = -1 term carries C(n-1,-1) = 0."""
    total = Fraction(0)
    for l in range(max(j - 1, 0), n):
        weight = bernoulli_high_order_poly(n - 1 - l, n).coefficient(0)
        total += (_sign(l + 1 - j) * binom(n - 1, l) * binom(l + 1, j) * weight
                  * Fraction(l + 2 - j) ** (-k))
    return total


@lru_cache(maxsize=None)
def poly_closed(n: int, k: int) -> Polynomial:
    """C_n^(k)(x), monic of degree n: its x^j coefficient is
    sum_{m=j}^{n} (-1)^(m-j) C(m,j) S1(n,m) / (m-j+1)^k."""
    return _stirling_sums(n, k, 1, n + 1)


# ---------------------------------------------------------------------------
# Identities in polynomial form

def addition_rhs(n: int, k: int, y: Fraction | int) -> Polynomial:
    """sum_{j=0}^{n} C(n,j) C_j^(k)(x) (y)_{n-j}; equals C_n^(k)(x+y).

    With y = p/q, (y)_i = prod_{t<i} (p - tq) / q^i: one running integer
    product gives every numerator."""
    _refuse_negative(n)
    y = _exact(y)
    p, q = y.numerator, y.denominator
    falling = [1]
    for t in range(n):
        falling.append(falling[-1] * (p - t * q))
    return linear_combination(
        [Fraction(binom(n, j) * falling[n - j], q ** (n - j)) for j in range(n + 1)],
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
    return X * poly_closed(n, k).shift(-1) - _stirling_sums(n, k, 2, n + 1).shift(-1)


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


def _stirling_convolution(n: int, g: list[int]) -> list[int]:
    """[sum_{j=m}^{n} C(n,j) S1(j,m) g[n-j] for m = 0..n] in ints, in one pass
    over j: each Stirling row S1(j, 0..j) is read whole, once, and spread
    with the weight C(n,j) g[n-j], formed once per j.  Theorem 6's row."""
    totals = [0] * (n + 1)
    for j in range(n + 1):
        w = comb(n, j) * g[n - j]
        if w:
            for m, s in enumerate(_TABLE.row(j)):
                totals[m] += s * w
    return totals


def _stirling_entry(n: int, m: int, g: list[int]) -> int:
    """Entry m alone of ``_stirling_convolution``, an O(n) sum over the same
    Stirling rows: the left side of Theorem 4, which reads one m."""
    row = _TABLE.row
    return sum([comb(n, j) * row(j)[m] * g[n - j] for j in range(m, n + 1)])


def theorem4_sides(n: int, m: int, k: int) -> tuple[Fraction, Fraction]:
    """Both sides of the two-way Stirling/number contraction, for n >= m >= 1:

    LHS  sum_l m! C(n,l+m) S1(l+m,m) C_{n-l-m}^(k)
    RHS  sum_l (m-1)! C(n-1,l+m-1) S1(l+m-1,m-1)
             { (m-1) C_{n-l-m}^(k)(-1) + C_{n-l-m}^(k-1)(-1) }

    The left side reads one entry of the Stirling convolution, entry m alone
    (``_stirling_entry``, O(n) terms), over the integer numerators of
    C_0^(k)..C_{n-m}^(k); the whole row would cost O(n^2) for it.  The right
    side reads S1(j, m-1) off the same whole Stirling rows, j = l+m-1, and is
    one ``linear_combination`` of C_N^(k) and C_N^(k-1) at x = -1."""
    if not 1 <= m <= n:
        raise ValueError("the contraction identity needs n >= m >= 1")
    top = n - m
    numbers, den = _number_row(top, k)
    lhs = Fraction(factorial(m) * _stirling_entry(n, m, numbers), den)
    row = _TABLE.row
    outer = [factorial(m - 1) * comb(n - 1, j) * row(j)[m - 1] for j in range(m - 1, n)]
    rhs = linear_combination(
        [(m - 1) * w for w in outer] + outer,
        [poly_closed(top - l, kk) for kk in (k, k - 1) for l in range(top + 1)],
    )
    return lhs, rhs(-1)


def theorem4_m1_corrected_sides(n: int, k: int) -> tuple[Fraction, Fraction]:
    """The m = 1 contraction with the corrected left-hand index n-1:

    C_{n-1}^(k-1)(-1) = sum_{l=0}^{n-1} (-1)^l l! C(n,l+1) C_{n-l-1}^(k)

    computed as it reads, not through ``theorem4_sides``: the left side is
    the closed polynomial at x = -1, the right side a sum in ints over
    C_0^(k)..C_{n-1}^(k) taken over their lcm, with no Stirling number."""
    if n < 1:
        raise ValueError("the m = 1 contraction needs n >= 1")
    numbers, den = _number_row(n - 1, k)
    total = sum(_sign(l) * factorial(l) * comb(n, l + 1) * numbers[n - l - 1] for l in range(n))
    return poly_closed(n - 1, k - 1)(-1), Fraction(total, den)


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


class ConnectionMatrix(NamedTuple):
    """The row of connection coefficients writing C_n^(k)(x) in a target
    basis: C_n^(k)(x) = sum_m entries[m] * (degree-m basis member)."""

    n: int
    k: int
    basis: Basis
    entries: tuple[Fraction, ...]

    def reconstruct(self) -> Polynomial:
        """Reassemble the polynomial the row claims to expand:
        sum_m entries[m] * member_m, summed in ints against the basis's
        grown row by ``poly._weighted_sum``, with no Fraction built.  Member
        m has degree m, so the sum is as wide as the row."""
        width = len(self.entries)
        return _weighted_sum(self.entries, _grown_row(self.basis, width - 1), width)


def basis_member(basis: Basis, m: int) -> Polynomial:
    """The degree-m polynomial of the given basis: a row of its Sheffer family."""
    return _grown_row(basis, m)[m]


def _grown_row(basis: Basis, n: int) -> tuple[Polynomial, ...]:
    """The grown row of the basis's Sheffer family that holds its members of
    degree 0..n, read from the memo with one key."""
    family, _ = _BASES[basis.kind]
    return _grown_rows(family, basis.params, grown_order(n))


def connection_to_bernoulli(
    n: int, k: int, r: int, route: WeightRoute = WeightRoute.HIGH_ORDER_BERNOULLI
) -> ConnectionMatrix:
    """Expansion in the order-r higher-order Bernoulli basis:

    C_{n,m} = sum_{l=0}^{n-m} sum_{a=0}^{n-m-l} C(n,l+m) C(n-m-l,a)
              S1(l+m,m) w_{a,r} C_{n-m-l-a}^(k)

    with w_{a,r} the ``bernoulli2nd_power_weight`` of the chosen route.  The
    numbers are read once, as the numerators of the number row over their
    lcm L, and each entry is divided by L once.
    """
    basis = Basis.higher_order_bernoulli(r)
    _refuse_negative(n)
    numbers, den = _number_row(n, k)
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
                    * numbers[n - m - l - a]
                )
        entries.append(total / den)
    return ConnectionMatrix(n, k, basis, tuple(entries))


def connection_to_frobenius(n: int, k: int, r: int, lam: Fraction | int) -> ConnectionMatrix:
    """Expansion in the Frobenius-Euler basis of order r and parameter lambda:

    C_{n,m} = sum_{l=0}^{n-m} sum_{a=0}^{r} C(n,l+m) C(r,a) (n-m-l)_a
              (1-lambda)^(-a) S1(l+m,m) C_{n-m-l-a}^(k)

    The inner sum depends on m and l only through N = n-m-l, and (N)_a
    vanishes for a > N, so it is computed once per N <= n:

    g(N) = sum_{a=0}^{min(r,N)} C(r,a) (N)_a (1-lambda)^(-a) C_{N-a}^(k)

    and the row is the convolution C_{n,m} = sum_{j=m}^{n} C(n,j) S1(j,m) g(n-j),
    ``_stirling_convolution``: O(n min(r,n) + n^2) terms instead of O(n^2 r).
    It makes every m in one pass over j, reading each Stirling row once and
    forming C(n,j) g(n-j) once per j.

    Both sums run in integer numerators.  With lambda = u/v, 1/(1-lambda) =
    v/(v-u) = p/q is read off directly, in lowest terms, with no Fraction
    arithmetic.  With L the lcm of the denominators of C_0^(k)..C_n^(k), the
    weights C(r,a) p^a q^(r-a), a <= min(r,n), are ints, L q^r g(N) is an
    int, and each entry is one Fraction over L q^r.
    """
    basis = Basis.frobenius_euler(r, lam)
    _refuse_negative(n)
    # lambda = u/v in lowest terms gives 1/(1-lambda) = v/(v-u), also in
    # lowest terms; the sign goes to the numerator.
    u, v = basis.param.numerator, basis.param.denominator
    p, q = (v, v - u) if v > u else (-v, u - v)
    weights = [binom(r, a) * p**a * q ** (r - a) for a in range(min(r, n) + 1)]
    numbers, den = _number_row(n, k)
    g = [sum([w * perm(big_n, a) * numbers[big_n - a] for a, w in enumerate(weights[: big_n + 1])])
         for big_n in range(n + 1)]
    den *= q**r
    entries = [Fraction(total, den) for total in _stirling_convolution(n, g)]
    return ConnectionMatrix(n, k, basis, tuple(entries))


def connection_to_falling(n: int, k: int) -> ConnectionMatrix:
    """Expansion in the falling-factorial basis: C_{n,m} = C(n,m) C_{n-m}^(k),
    each an int product over L, the lcm of the denominators of
    C_0^(k)..C_n^(k)."""
    _refuse_negative(n)
    numbers, den = _number_row(n, k)
    # A list, not a generator: tuple(generator) leaves one tuple per call on
    # CPython's tuple free list, and this row is on the warm query path.
    entries = tuple([Fraction(comb(n, m) * numbers[n - m], den) for m in range(n + 1)])
    return ConnectionMatrix(n, k, Basis.falling_factorial(), entries)


# Each basis kind: its Sheffer family, whose rows are the basis members, and
# its closed connection row, which takes the basis parameters after n and k.
_BASES = {
    BasisKind.FALLING_FACTORIAL: (_FALLING, connection_to_falling),
    BasisKind.HIGHER_ORDER_BERNOULLI: (_HIGH_ORDER_BERNOULLI, connection_to_bernoulli),
    BasisKind.FROBENIUS_EULER: (_FROBENIUS_EULER, connection_to_frobenius),
}


def connection(n: int, k: int, basis: Basis) -> ConnectionMatrix:
    """The connection row of C_n^(k)(x) in ``basis``, by its closed formula."""
    return _BASES[basis.kind][1](n, k, *basis.params)


def connection_by_triangular_solve(n: int, k: int, basis: Basis) -> ConnectionMatrix:
    """Independent route to the same row: expand C_n^(k)(x) and the basis
    members in the monomial basis and back-substitute down the triangle."""
    entries = expand_in_monic_basis(poly_closed(n, k), _grown_row(basis, n)[: n + 1])
    padded = entries + (Fraction(0),) * (n + 1 - len(entries))
    return ConnectionMatrix(n, k, basis, padded)
