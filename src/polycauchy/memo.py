"""Memo policy, and grown rows of Sheffer sequences built from their numbers.

Every memo in the package is an unbounded ``functools.lru_cache``, apart from
the capped Stirling table (``sequences.Stirling1Table``).  A cache stores a
finished value, so a reader never sees a partial row; concurrent misses on
one key may build the value twice, which repeats work and changes nothing.

Every polynomial family here is a Sheffer sequence, with exponential
generating function A(t) (1+t)^x or A(t) e^(xt) for a scalar amplitude
series A(t).  ``sheffer_rows`` builds P_0, ..., P_N from one amplitude series
of order N by the Sheffer identity (S. Roman, *The Umbral Calculus*, ch. 2),
in the integer numerators over one denominator that the series stores, which
become each ``Polynomial``'s own fields with no Fraction built.
One cached row builder per family, keyed by its parameters and an order,
returns that row.  Truncation modulo t^(N+1) is a ring homomorphism, so a
series of order N gives each P_n exactly as a fresh one of order n+1 does.
A lookup of P_n reads the row of order ``grown_order(n)``, the least power
of two at or above n: an ascending scan 0..n builds rows of orders
0, 1, 2, 4, ..., which together cost about one build at the last order.
"""

from __future__ import annotations

from math import comb, factorial

from .poly import Polynomial, _from_numerators
from .series import TruncatedSeries

__all__ = ["grown_order", "sheffer_rows"]


def grown_order(n: int) -> int:
    """The order of the grown row holding P_n: 0, 1, or the least power of
    two at or above n."""
    if n < 0:
        raise ValueError("sequence index must be non-negative")
    return n if n < 2 else 1 << (n - 1).bit_length()


def sheffer_rows(amplitude: TruncatedSeries, falling: bool) -> tuple[Polynomial, ...]:
    """(P_0, ..., P_N) for the amplitude series A(t) of order N:
    P_n(x) = sum_j w_j kappa_j(x), with w_j = C(n,j) a_(n-j) and
    a_m = m! [t^m] A(t), read as m! nums[m] over the series' denominator.

    For e^(xt) kappa_j is x^j, and the weights are the row's coefficients.
    For (1+t)^x (``falling``) kappa_j is (x)_j, summed by Horner's scheme
    Q <- w_j + (x - j) Q for j = n..0, with no Stirling number."""
    numbers = [factorial(m) * v for m, v in enumerate(amplitude.nums)]
    den = amplitude.den
    rows = []
    for n in range(len(numbers)):
        weights = [comb(n, j) * numbers[n - j] for j in range(n + 1)]
        if falling:
            acc: list[int] = []
            for j in range(n, -1, -1):
                acc = [a - j * b for a, b in zip([0] + acc, acc + [0])]
                acc[0] += weights[j]
            weights = acc
        rows.append(_from_numerators(weights, den))
    return tuple(rows)
