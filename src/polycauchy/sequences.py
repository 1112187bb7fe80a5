"""Classical sequences: Stirling numbers of the first kind, the
polylog-factorial series, the falling factorials and the Bernoulli-second-kind,
higher-order Bernoulli, Frobenius-Euler and Narumi polynomial families, with
the one memo of grown rows that every Sheffer family reads.

Stirling numbers and polylog-factorial coefficients come from closed forms
(the defining recurrence and the coefficient formula); every named polynomial
family is a Sheffer sequence built from the numbers of its generating
function.  The two computation routes stay independent so they can be held
against each other by the verification suite.

Generating functions, with the degree-n member equal to n! times the t^n
coefficient, as amplitude series times (1+t)^x or e^(xt):

    falling_factorial_poly    1 * (1+t)^x
    narumi_poly               (t/log(1+t))^(-a) * (1+t)^x,  a in Z
    bernoulli_2nd_poly        narumi_poly at a = -1: (t/log(1+t)) * (1+t)^x
    bernoulli_high_order_poly (t/(e^t - 1))^alpha * e^(xt),  alpha in Z
    frobenius_euler_poly      ((1-lambda)/(e^t - lambda))^r * e^(xt),  lambda != 1

Each family, and the generating-function route of ``second_kind``, is
declared once, as a ``_Sheffer`` pair: the builder of its amplitude series
and whether that series multiplies (1+t)^x.  ``sheffer_rows`` builds the
members of degree 0..N from one amplitude series of order N (S. Roman,
*The Umbral Calculus*, ch. 2).

Every memo in the package is an unbounded ``functools.lru_cache``, apart from
the capped Stirling table.  A cache stores a finished value, so a reader
never sees a partial row; concurrent misses on one key may build the value
twice, which repeats work and changes nothing.  The rows of every family sit
in one memo, ``_grown_rows``, keyed by the family, its parameters and an
order N.  Truncation modulo t^(N+1) is a ring homomorphism, so a series of
order N gives each P_n exactly as a fresh one of order n+1 does.  Degree n
is read from the row of order ``grown_order(n)``, the least power of two at
or above n.  A caller that reads degrees 0..N, as a ``gen`` table or a
connection row does, reads them from one row, keyed by ``grown_order(N)``;
an ascending scan one degree at a time builds rows of orders 0, 1, 2, 4,
..., which together cost about 1.35 builds at the last order (the oracle at
k = 3: orders 0..16 took 1.75 ms in all, order 32 5.0 ms, on a 2-vCPU host
with Python 3.11).  The Bernoulli numbers of the second kind are the
polynomials at x = 0.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from typing import Callable, NamedTuple

from .exact import UsageError
from .poly import (Polynomial, _convolve_ints, _frobenius_euler_lambda, _from_numerators,
                   _integer_numerators)
from .series import TruncatedSeries, _reduced, constant_series, exp_series, log1p_series

__all__ = [
    "DEFAULT_STIRLING_LIMIT",
    "TableLimitError",
    "Stirling1Table",
    "stirling1",
    "binom",
    "lif_series",
    "falling_factorial_poly",
    "t_over_log1p_series",
    "bernoulli_2nd_poly",
    "bernoulli_2nd_number",
    "bernoulli_high_order_poly",
    "frobenius_euler_poly",
    "narumi_poly",
    "bernoulli2nd_convolution",
]

DEFAULT_STIRLING_LIMIT = 64


class TableLimitError(UsageError):
    """A lookup beyond the fixed size of a shared table."""


class Stirling1Table:
    """Triangular table of signed Stirling numbers of the first kind.

    Rows are grown on demand by the recurrence
    ``S1(n+1, l) = S1(n, l-1) - n*S1(n, l)`` up to a fixed cap, beyond which
    lookups raise ``TableLimitError`` rather than reallocate silently.  Each
    row is stored as a tuple, so the whole row that ``row`` hands out cannot
    be edited by its reader.  One table may be shared by threads: rows grow
    under a lock, and a lookup of a row that already exists takes none.
    """

    def __init__(self, n_max: int = DEFAULT_STIRLING_LIMIT):
        if n_max < 0:
            raise ValueError("table bound must be non-negative")
        self.n_max = n_max
        self._rows: list[tuple[int, ...]] = [(1,)]
        self._lock = threading.Lock()

    def value(self, n: int, l: int) -> int:
        if n < 0 or l < 0:
            raise ValueError("Stirling indices must be non-negative")
        if l > n:
            return 0
        return self.row(n)[l]

    def row(self, n: int) -> tuple[int, ...]:
        """S1(n, 0..n), grown on demand up to the cap."""
        if n < 0:
            raise ValueError("Stirling indices must be non-negative")
        if n > self.n_max:
            raise TableLimitError(f"Stirling table capped at n_max={self.n_max}; requested n={n}")
        if n >= len(self._rows):
            self._grow(n)
        return self._rows[n]

    def _grow(self, n: int) -> None:
        with self._lock:
            while len(self._rows) <= n:
                m = len(self._rows) - 1
                prev = self._rows[m]
                # Appended whole, so a reader without the lock never sees a torn row.
                self._rows.append(tuple([
                    (prev[l - 1] if l >= 1 else 0) - m * (prev[l] if l <= m else 0)
                    for l in range(m + 2)
                ]))


_TABLE = Stirling1Table()


def stirling1(n: int, l: int) -> int:
    """Signed Stirling number of the first kind from the shared table."""
    return _TABLE.value(n, l)


def binom(n: int, k: int) -> int:
    """C(n, k) with the convention that any out-of-range k gives 0."""
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def lif_series(k: int, order: int) -> TruncatedSeries:
    """Polylog-factorial series: the t^m coefficient is 1/(m! (m+1)^k).

    Defined for every integer k; k = 0 reduces to e^t.  Built in ints and
    reduced once: for k >= 0 the numerators of 1/(m! (m+1)^k) over their
    lcm, and for k < 0 (m+1)^|k| N!/m! over N!, from e^t's numerators.
    """
    if order < 0:
        raise ValueError("truncation order must be non-negative")
    if k >= 0:
        dens = [factorial(m) * (m + 1) ** k for m in range(order + 1)]
        den = lcm(*dens)
        return _reduced([den // d for d in dens], den)
    exp = exp_series(order)
    return _reduced([(m + 1) ** -k * v for m, v in enumerate(exp.nums)], exp.den)


def _log1p_over_t(order: int) -> TruncatedSeries:
    # log(1+t)/t: the unit-constant cofactor of the removable singularity.
    return log1p_series(order + 1).divided_by_t()


def t_over_log1p_series(order: int) -> TruncatedSeries:
    """t/log(1+t) as a unit-constant series."""
    return _log1p_over_t(order).invert()


def grown_order(n: int) -> int:
    """The order of the grown row holding P_n: 0, 1, or the least power of
    two at or above n."""
    if n < 0:
        raise ValueError("sequence index must be non-negative")
    return n if n < 2 else 1 << (n - 1).bit_length()


def _times_x_minus(j: int, p: list[int]) -> list[int]:
    """(x - j) p(x) for the integer coefficients of p, lowest degree first."""
    return [a - j * b for a, b in zip([0] + p, p + [0])]


def sheffer_rows(amplitude: TruncatedSeries, falling: bool) -> tuple[Polynomial, ...]:
    """(P_0, ..., P_N) for the amplitude series A(t) of order N:
    P_n(x) = sum_j w_j kappa_j(x), with w_j = C(n,j) a_(n-j) and
    a_m = m! [t^m] A(t), read as m! nums[m] over the series' denominator,
    which becomes each row's own, so no Fraction is built.

    For e^(xt) kappa_j is x^j, and the weights are the row's coefficients.
    For (1+t)^x (``falling``) kappa_j is (x)_j, with no Stirling number:
    Horner's scheme Q <- w_j + (x - j) Q runs for j = n..l only, l the
    lowest j with w_j nonzero, and Q is then multiplied once by (x)_l.
    The products (x)_(j+1) = (x)_j (x - j) are built once per row, as far
    as some member needs them, so the amplitude-1 row of the falling
    factorials (l = n) costs O(N^2) steps, and a row with w_0 nonzero is
    plain Horner."""
    numbers = [factorial(m) * v for m, v in enumerate(amplitude.nums)]
    den = amplitude.den
    falling_factorials = [[1]]
    rows = []
    for n in range(len(numbers)):
        weights = [comb(n, j) * numbers[n - j] for j in range(n + 1)]
        if falling:
            low = next((j for j, w in enumerate(weights) if w), n)
            acc = [weights[n]]
            for j in range(n - 1, low - 1, -1):
                acc = _times_x_minus(j, acc)
                acc[0] += weights[j]
            while len(falling_factorials) <= low:
                j = len(falling_factorials) - 1
                falling_factorials.append(_times_x_minus(j, falling_factorials[j]))
            weights = _convolve_ints(acc + [0] * low, falling_factorials[low]) if low else acc
        rows.append(_from_numerators(weights, den))
    return tuple(rows)


class _Sheffer(NamedTuple):
    """A Sheffer family: ``amplitude(*params, order)`` is its amplitude
    series, and ``falling`` picks kappa_j = (x)_j, for (1+t)^x, over x^j."""

    amplitude: Callable[..., TruncatedSeries]
    falling: bool


@lru_cache(maxsize=None)
def _grown_rows(family: _Sheffer, params: tuple, order: int) -> tuple[Polynomial, ...]:
    return sheffer_rows(family.amplitude(*params, order), family.falling)


_FALLING = _Sheffer(lambda order: constant_series(1, order), falling=True)
# (e^t - 1)/t and log(1+t)/t are unit-constant, so any integer power exists.
_HIGH_ORDER_BERNOULLI = _Sheffer(
    lambda alpha, order: (exp_series(order + 1) - 1).divided_by_t() ** (-alpha), falling=False
)
_FROBENIUS_EULER = _Sheffer(
    lambda r, lam, order: ((exp_series(order) - lam).invert() * (1 - lam)) ** r, falling=False
)
_NARUMI = _Sheffer(lambda a, order: _log1p_over_t(order) ** a, falling=True)


def falling_factorial_poly(m: int) -> Polynomial:
    """The falling factorial x(x-1)...(x-m+1); the empty product is 1."""
    return _grown_rows(_FALLING, (), grown_order(m))[m]


def bernoulli_2nd_poly(n: int) -> Polynomial:
    """Bernoulli polynomial of the second kind, degree n: the Narumi
    polynomial of order -1."""
    return narumi_poly(n, -1)


def bernoulli_2nd_number(n: int) -> Fraction:
    """Bernoulli number of the second kind: n! [t^n] t/log(1+t)."""
    return bernoulli_2nd_poly(n).coefficient(0)


def bernoulli_high_order_poly(n: int, alpha: int) -> Polynomial:
    """Higher-order Bernoulli polynomial of degree n and integer order alpha."""
    return _grown_rows(_HIGH_ORDER_BERNOULLI, (alpha,), grown_order(n))[n]


def frobenius_euler_poly(n: int, r: int, lam: Fraction | int) -> Polynomial:
    """Frobenius-Euler polynomial of degree n, order r >= 0 and parameter
    lambda != 1; lambda = -1 gives the Euler polynomials."""
    lam = _frobenius_euler_lambda(r, lam)
    return _grown_rows(_FROBENIUS_EULER, (r, lam), grown_order(n))[n]


def narumi_poly(n: int, a: int) -> Polynomial:
    """Narumi polynomial of degree n and integer order a (either sign)."""
    return _grown_rows(_NARUMI, (a,), grown_order(n))[n]


def bernoulli2nd_convolution(r: int, a: int) -> Fraction:
    """Sum over all compositions a_1+...+a_r = a of
    multinomial(a; a_1..a_r) * b_{a_1} * ... * b_{a_r}, with b_j the
    Bernoulli numbers of the second kind.  Equals a! [t^a] (t/log(1+t))^r;
    the empty product (r = 0) contributes 1 only at a = 0.

    The sum is grouped one factor at a time, as an r-fold binomial
    convolution p_m <- sum_j C(m,j) p_j b_(m-j), in O(r a^2) rather than over
    the C(a+r-1, r-1) compositions.  b_0..b_a are read once, as integer
    numerators over one denominator D, so each p_m is an int over D^r.
    """
    if r < 0 or a < 0:
        raise ValueError("convolution indices must be non-negative")
    b, den = _integer_numerators([bernoulli_2nd_number(j) for j in range(a + 1)])
    power = [1] + [0] * a
    for _ in range(r):
        power = [sum(comb(m, j) * power[j] * b[m - j] for j in range(m + 1)) for m in range(a + 1)]
    return Fraction(power[a], den**r)
