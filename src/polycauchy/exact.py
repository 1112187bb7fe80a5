"""Exact rational scalars and the canonical ``num/den`` wire format.

Every value this package computes is a :class:`fractions.Fraction`:
arbitrary precision, always canonical (positive denominator, gcd 1, zero
stored as 0/1), immutable, with structural equality.  This module pins that
choice and owns the one serialization grammar shared by the CLI and the
verification reports, and ``UsageError``, the one type of every refusal the
CLI turns into exit 2.

Polynomials and series store integer numerators over one denominator;
``format_numerators`` is the one way out of that layout to text, one gcd
per entry and no ``Fraction``.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd
from typing import Iterable

__all__ = ["Rational", "UsageError", "UnprintableRationalError", "format_rational",
           "format_numerators", "unprintable_power", "parse_rational"]

Rational = Fraction


class UsageError(ValueError):
    """A request the package refuses: a bad parameter, a size past a cap, or
    a value too large to print.  The CLI reports it on stderr with exit 2."""


class UnprintableRationalError(UsageError):
    """A rational with more digits than the interpreter converts to text."""

    def __init__(self, *args) -> None:
        # With no message given, the one every refusal of a long value gives.
        if not args:
            args = (
                "rational too large to print: numerator or denominator exceeds "
                f"{sys.get_int_max_str_digits()} digits",
            )
        super().__init__(*args)


def format_rational(value: Rational | int) -> str:
    """Serialize as ``"num/den"`` with den > 0; integers come out as ``"n/1"``.

    Python caps int-to-str conversion (4300 digits by default); a value past
    that cap raises ``UnprintableRationalError``.  A float is inexact and is
    refused with ``TypeError``.
    """
    if isinstance(value, float):
        raise TypeError(f"rationals are exact; got the float {value!r}")
    q = value if isinstance(value, (Fraction, int)) else Fraction(value)
    try:
        return f"{q.numerator}/{q.denominator}"
    except ValueError:
        raise UnprintableRationalError() from None


def format_numerators(nums: Iterable[int], den: int) -> list[str]:
    """``format_rational(Fraction(v, den))`` for each v in ``nums``, with
    ``den`` > 0: each entry is reduced by one gcd, and no Fraction is built.
    An entry past the digit cap raises ``UnprintableRationalError``."""
    try:
        return [f"{v // (g := gcd(v, den))}/{den // g}" for v in nums]
    except ValueError:
        raise UnprintableRationalError() from None


def unprintable_power(k: int, margin: int = 0) -> bool:
    """Whether |k| >= T + ``margin``, T the bit length of 10^limit, with
    limit the int-to-text digit cap (never with a cap of 0).  2^m has more
    than limit digits exactly when m >= T, so a value holding 2^|k| in its
    numerator or reduced denominator, such as C_1^(k) = -2^(-k), cannot be
    printed from |k| >= T; this decides it without building 2^|k|."""
    limit = sys.get_int_max_str_digits()
    return bool(limit) and abs(k) >= (10**limit).bit_length() + margin


def parse_rational(text: str) -> Fraction:
    """Parse the ``"num/den"`` grammar; bare integers are accepted too.  The
    result is canonical, with the sign carried by the numerator."""
    head, sep, tail = text.strip().partition("/")
    try:
        if not sep:
            return Fraction(int(head))
        num, den = int(head), int(tail)
    except ValueError:
        raise ValueError(f"not a rational: {text!r}") from None
    if den == 0:
        raise ZeroDivisionError("division by zero")
    return Fraction(num, den)
