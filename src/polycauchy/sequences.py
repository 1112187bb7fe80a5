"""Classical sequences: Stirling numbers of the first kind, the
polylog-factorial series, and the Bernoulli-second-kind, higher-order
Bernoulli, Frobenius-Euler and Narumi polynomial families.

Stirling numbers and polylog-factorial coefficients come from closed forms
(the defining recurrence and the coefficient formula); every named polynomial
family is extracted from its generating function through the truncated-series
machinery.  The two computation routes stay independent so they can be held
against each other by the verification suite.

Generating functions, with the degree-n member equal to n! times the t^n
coefficient:

    bernoulli_2nd_poly        (t/log(1+t)) * (1+t)^x
    bernoulli_high_order_poly (t/(e^t - 1))^alpha * e^(xt),  alpha in Z
    frobenius_euler_poly      ((1-lambda)/(e^t - lambda))^r * e^(xt),  lambda != 1
    narumi_poly               (t/log(1+t))^(-a) * (1+t)^x,  a in Z

Each family is memoized in grown rows (``memo.grown_value``): for each
parameter (none, alpha, (r, lambda) or a) the values of degree 0..N are read
off one series of order N, which is rebuilt at order max(n, 2N) only when a
degree n > N is asked for.  An ascending table 0..n thus costs about one
series of order at most 2n, not one series per degree.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Sequence

from .memo import grown_value
from .poly import Polynomial
from .series import (
    TruncatedSeries,
    binomial_series,
    exp_series,
    exp_xt_series,
    log1p_series,
)

__all__ = [
    "DEFAULT_STIRLING_LIMIT",
    "TableLimitError",
    "Stirling1Table",
    "SequenceParams",
    "stirling1",
    "binom",
    "multinomial",
    "lif_series",
    "t_over_log1p_series",
    "bernoulli_2nd_poly",
    "bernoulli_2nd_number",
    "bernoulli_high_order_poly",
    "frobenius_euler_poly",
    "narumi_poly",
    "bernoulli2nd_convolution",
]

DEFAULT_STIRLING_LIMIT = 64


class TableLimitError(ValueError):
    """A lookup beyond the fixed size of a shared table."""


class Stirling1Table:
    """Triangular table of signed Stirling numbers of the first kind.

    Rows are grown on demand by the recurrence
    ``S1(n+1, l) = S1(n, l-1) - n*S1(n, l)`` up to a fixed cap, beyond which
    lookups raise ``TableLimitError`` rather than reallocate silently.  One
    table may be shared by threads: rows grow under a lock, and a lookup of
    a row that already exists takes none.
    """

    def __init__(self, n_max: int = DEFAULT_STIRLING_LIMIT):
        if n_max < 0:
            raise ValueError("table bound must be non-negative")
        self.n_max = n_max
        self._rows: list[list[int]] = [[1]]
        self._lock = threading.Lock()

    def value(self, n: int, l: int) -> int:
        if n < 0 or l < 0:
            raise ValueError("Stirling indices must be non-negative")
        if l > n:
            return 0
        if n > self.n_max:
            raise TableLimitError(f"Stirling table capped at n_max={self.n_max}; requested n={n}")
        if n >= len(self._rows):
            self._grow(n)
        return self._rows[n][l]

    def _grow(self, n: int) -> None:
        with self._lock:
            while len(self._rows) <= n:
                m = len(self._rows) - 1
                prev = self._rows[m]
                row = [
                    (prev[l - 1] if l >= 1 else 0) - m * (prev[l] if l <= m else 0)
                    for l in range(m + 2)
                ]
                # Appended whole, so a reader without the lock never sees a torn row.
                self._rows.append(row)


_TABLE = Stirling1Table()


def stirling1(n: int, l: int) -> int:
    """Signed Stirling number of the first kind from the shared table."""
    return _TABLE.value(n, l)


def binom(n: int, k: int) -> int:
    """C(n, k) with the convention that any out-of-range k gives 0."""
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def multinomial(parts: Sequence[int]) -> int:
    """Multinomial coefficient (sum parts)! / (parts[0]! * ... )."""
    result = factorial(sum(parts))
    for p in parts:
        result //= factorial(p)
    return result


@dataclass(frozen=True)
class SequenceParams:
    """Parameter bundle for the sequence generators, as parsed by the CLI."""

    n_max: int = 0
    k: int | None = None
    alpha: int | None = None
    r: int | None = None
    lam: Fraction | None = None
    a: int | None = None

    def __post_init__(self) -> None:
        if self.n_max < 0:
            raise ValueError("n_max must be non-negative")
        if self.r is not None and self.r < 0:
            raise ValueError("order r must be non-negative")
        if self.lam is not None:
            object.__setattr__(self, "lam", Fraction(self.lam))
            if self.lam == 1:
                raise ValueError("Frobenius-Euler parameter must differ from 1")


def lif_series(k: int, order: int) -> TruncatedSeries:
    """Polylog-factorial series: the t^m coefficient is 1/(m! (m+1)^k).

    Defined for every integer k; k = 0 reduces to e^t.
    """
    if order < 0:
        raise ValueError("truncation order must be non-negative")
    return TruncatedSeries(
        Fraction(1, factorial(m)) * Fraction(m + 1) ** (-k) for m in range(order + 1)
    )


@lru_cache(maxsize=None)
def _log1p_over_t(order: int) -> TruncatedSeries:
    # log(1+t)/t: the unit-constant cofactor of the removable singularity.
    return log1p_series(order + 1).divided_by_t()


@lru_cache(maxsize=None)
def t_over_log1p_series(order: int) -> TruncatedSeries:
    """t/log(1+t) as a unit-constant series."""
    return _log1p_over_t(order).invert()


@lru_cache(maxsize=None)
def _expm1_over_t(order: int) -> TruncatedSeries:
    # (e^t - 1)/t, again unit-constant.
    return (exp_series(order + 1) - 1).divided_by_t()


_BERNOULLI_2ND_POLYS: dict[tuple, tuple] = {}
_BERNOULLI_2ND_NUMBERS: dict[tuple, tuple] = {}
_HIGH_ORDER_POLYS: dict[tuple, tuple] = {}
_FROBENIUS_EULER_POLYS: dict[tuple, tuple] = {}
_NARUMI_POLYS: dict[tuple, tuple] = {}


def _bernoulli_2nd_gf(order: int) -> TruncatedSeries:
    return t_over_log1p_series(order) * binomial_series(order)


def _high_order_gf(alpha: int, order: int) -> TruncatedSeries:
    return _expm1_over_t(order) ** (-alpha) * exp_xt_series(order)


def _frobenius_euler_gf(r: int, lam: Fraction, order: int) -> TruncatedSeries:
    core = ((exp_series(order) - lam).invert() * (1 - lam)) ** r
    return core * exp_xt_series(order)


def _narumi_gf(a: int, order: int) -> TruncatedSeries:
    return _log1p_over_t(order) ** a * binomial_series(order)


def bernoulli_2nd_poly(n: int) -> Polynomial:
    """Bernoulli polynomial of the second kind, degree n."""
    return grown_value(_BERNOULLI_2ND_POLYS, (), n, _bernoulli_2nd_gf)


def bernoulli_2nd_number(n: int) -> Fraction:
    """Bernoulli number of the second kind: n! [t^n] t/log(1+t)."""
    return grown_value(_BERNOULLI_2ND_NUMBERS, (), n, t_over_log1p_series)


def bernoulli_high_order_poly(n: int, alpha: int) -> Polynomial:
    """Higher-order Bernoulli polynomial of degree n and integer order alpha."""
    return grown_value(_HIGH_ORDER_POLYS, (alpha,), n, _high_order_gf)


def frobenius_euler_poly(n: int, r: int, lam: Fraction | int) -> Polynomial:
    """Frobenius-Euler polynomial of degree n, order r >= 0 and parameter
    lambda != 1; lambda = -1 gives the Euler polynomials."""
    lam = Fraction(lam)
    if lam == 1:
        raise ValueError("Frobenius-Euler parameter must differ from 1")
    if r < 0:
        raise ValueError("Frobenius-Euler order must be non-negative")
    return grown_value(_FROBENIUS_EULER_POLYS, (r, lam), n, _frobenius_euler_gf)


def narumi_poly(n: int, a: int) -> Polynomial:
    """Narumi polynomial of degree n and integer order a (either sign)."""
    return grown_value(_NARUMI_POLYS, (a,), n, _narumi_gf)


def bernoulli2nd_convolution(r: int, a: int) -> Fraction:
    """Sum over all compositions a_1+...+a_r = a of
    multinomial(a; a_1..a_r) * b_{a_1} * ... * b_{a_r}, with b_j the
    Bernoulli numbers of the second kind.  Equals a! [t^a] (t/log(1+t))^r;
    the empty product (r = 0) contributes 1 only at a = 0.
    """
    if r < 0 or a < 0:
        raise ValueError("convolution indices must be non-negative")
    if r == 0:
        return Fraction(1 if a == 0 else 0)
    total = Fraction(0)
    for parts in _compositions(a, r):
        term = Fraction(multinomial(parts))
        for p in parts:
            term *= bernoulli_2nd_number(p)
        total += term
    return total


def _compositions(total: int, count: int):
    if count == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, count - 1):
            yield (first,) + rest
