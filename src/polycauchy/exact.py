"""Exact rational scalars and the canonical ``num/den`` wire format.

Every value this package computes is a :class:`fractions.Fraction`:
arbitrary precision, always canonical (positive denominator, gcd 1, zero
stored as 0/1), immutable, with structural equality.  This module pins that
choice and owns the one serialization grammar shared by the CLI and the
verification reports.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["Rational", "format_rational", "parse_rational"]

Rational = Fraction


def format_rational(value: Rational | int) -> str:
    """Serialize as ``"num/den"`` with den > 0; integers come out as ``"n/1"``."""
    q = Fraction(value)
    return f"{q.numerator}/{q.denominator}"


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
