"""Memo policy, and grown rows for sequences read off a generating function.

Every memo in the package is an unbounded ``functools.lru_cache``, apart from
the capped Stirling table (``sequences.Stirling1Table``).  A cache stores a
finished value, so a reader never sees a partial row; concurrent misses on
one key may build the value twice, which repeats work and changes nothing.

A sequence P read off an exponential generating function is memoized in
grown rows: one cached row builder per family, keyed by its parameters and
an ``order``, returns ``row_of(gf)`` = (P_0, ..., P_order).  Truncation
modulo t^(N+1) is a ring homomorphism, so a series built once at order N
gives each of P_0, ..., P_N exactly as a fresh build at order n+1 gives P_n.
A lookup of P_n reads the row of order ``grown_order(n)``, the least power
of two at or above n: an ascending scan 0..n builds rows of orders
0, 1, 2, 4, ..., which together cost about one build at the last order.
"""

from __future__ import annotations

from .series import TruncatedSeries

__all__ = ["grown_order", "row_of"]


def grown_order(n: int) -> int:
    """The order of the grown row holding P_n: 0, 1, or the least power of
    two at or above n."""
    if n < 0:
        raise ValueError("sequence index must be non-negative")
    return n if n < 2 else 1 << (n - 1).bit_length()


def row_of(gf: TruncatedSeries) -> tuple:
    """(P_0, ..., P_N) read off an exponential generating function of order N."""
    return tuple(gf.sequence_value(i) for i in range(gf.order + 1))
