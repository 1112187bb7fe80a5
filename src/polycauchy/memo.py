"""Grown rows: one memo per parameter for sequences read off a generating
function.

Truncation modulo t^(N+1) is a ring homomorphism, so a generating function
built once at order N gives each of P_0, ..., P_N exactly as a fresh build at
order n+1 gives P_n.  A grown-row table therefore keeps, for each parameter
key, the finished values (P_0, ..., P_N) and nothing of the series they were
read from; a lookup below N is a tuple index.
"""

from __future__ import annotations

from typing import Callable

from .series import TruncatedSeries

__all__ = ["grown_value"]


def grown_value(
    table: dict[tuple, tuple],
    key: tuple,
    n: int,
    build: Callable[..., TruncatedSeries],
):
    """P_n, where ``build(*key, order)`` is the exponential generating
    function of the sequence P truncated at ``order``.

    ``table[key]`` holds (P_0, ..., P_N).  A request beyond N rebuilds the
    series once at order max(n, 2N), so an ascending scan 0..n builds it at
    orders 0, 1, 2, 4, ... up to the first power of two at or above n, which
    together cost about one build at that last order.  The new row is
    published whole by one dict assignment: a concurrent reader sees the old
    row or the new one, never a partial one, and concurrent misses on one key
    only repeat work.
    """
    if n < 0:
        raise ValueError("sequence index must be non-negative")
    row = table.get(key, ())
    if n >= len(row):
        gf = build(*key, max(n, 2 * len(row) - 2))
        row = tuple(gf.sequence_value(i) for i in range(gf.order + 1))
        table[key] = row
    return row[n]
