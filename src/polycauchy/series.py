"""Truncated formal power series over an exact coefficient ring.

A series stores the coefficients of t^0..t^N for a fixed truncation order N;
arithmetic is exact through t^N and anything beyond is discarded, never
approximated.  Coefficients are ints, Fractions or Polynomials; Polynomial
coefficients are how a generating function carries the variable x:
``binomial_series`` represents (1+t)^x, whose t^j coefficient is the
polynomial (x)_j / j!.

Every series product goes through one kernel, ``_convolve``.  It brings each
operand to integer numerators over one common denominator (FLINT's
``fmpq_poly`` layout, with a scalar as a one-entry row and a Polynomial as
its coefficient row), multiplies in ints and builds one Fraction per result
entry.  The product holds Polynomials if either operand held any, and
Fractions otherwise; a float coefficient is refused with ``TypeError``.
``compose`` runs Horner's scheme on the same integer rows through the
kernel's integer core, reduces the common denominator once per step and
builds Fractions only at the end, by the same rule.

Series with a removable singularity at t = 0, such as t/log(1+t), are not
stored as such: build the unit-constant cofactor (here log(1+t)/t, via
``divided_by_t``) and invert it, so every stored object is an honest element
of R[[t]] mod t^(N+1).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm
from typing import Iterable

from .poly import Polynomial, _integer_rows, falling_factorial_poly

__all__ = [
    "TruncatedSeries",
    "OrderMismatchError",
    "InsufficientOrderError",
    "constant_series",
    "log1p_series",
    "exp_series",
    "binomial_series",
    "exp_xt_series",
]


class OrderMismatchError(ValueError):
    """Arithmetic between series of different truncation orders."""


class InsufficientOrderError(ValueError):
    """A coefficient beyond the stored truncation order was requested."""

    def __init__(self, required: int, order: int):
        super().__init__(f"insufficient truncation order: need {required}, have {order}")
        self.required = required
        self.order = order


class TruncatedSeries:
    """Formal power series truncated (inclusively) at a fixed order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        items = tuple(coeffs)
        if not items:
            raise ValueError("a truncated series needs at least the t^0 coefficient")
        self.coeffs = items

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int):
        """Coefficient of t^n; requesting beyond the truncation order is an error."""
        if n < 0:
            raise ValueError("series indices are non-negative")
        if n > self.order:
            raise InsufficientOrderError(n, self.order)
        return self.coeffs[n]

    def sequence_value(self, n: int):
        """n! times the t^n coefficient: the n-th value of the sequence whose
        exponential generating function this series is."""
        return factorial(n) * self.coefficient(n)

    def _zero(self):
        return self.coeffs[0] * 0

    def _one(self):
        return self.coeffs[0] * 0 + 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def _check_order(self, other: TruncatedSeries) -> None:
        if self.order != other.order:
            raise OrderMismatchError(
                f"mismatched orders: {self.order} vs {other.order}"
            )

    def __neg__(self) -> TruncatedSeries:
        return TruncatedSeries(-c for c in self.coeffs)

    def __add__(self, other) -> TruncatedSeries:
        if isinstance(other, TruncatedSeries):
            self._check_order(other)
            return TruncatedSeries(a + b for a, b in zip(self.coeffs, other.coeffs))
        head = self.coeffs[0] + other
        return TruncatedSeries((head,) + self.coeffs[1:])

    __radd__ = __add__

    def __sub__(self, other) -> TruncatedSeries:
        return self + (-other if isinstance(other, TruncatedSeries) else -1 * other)

    def __rsub__(self, other) -> TruncatedSeries:
        return (-self) + other

    def __mul__(self, other) -> TruncatedSeries:
        if not isinstance(other, TruncatedSeries):
            return TruncatedSeries(c * other for c in self.coeffs)
        self._check_order(other)
        return TruncatedSeries(_convolve(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> TruncatedSeries:
        if exponent < 0:
            return self.invert() ** (-exponent)
        result = constant_series(self._one(), self.order)
        square = self
        e = exponent
        while e:
            if e & 1:
                result = result * square
            e >>= 1
            if e:
                square = square * square
        return result

    def invert(self) -> TruncatedSeries:
        """Multiplicative inverse; the constant term must be a unit of the ring."""
        head_source = self.coeffs[0]
        if isinstance(head_source, int):
            # keep bare-int coefficients exact instead of falling into floats
            head_source = Fraction(head_source)
        try:
            head = 1 / head_source
        except (ZeroDivisionError, ValueError):
            raise ValueError("series not invertible") from None
        inv = [head]
        for n in range(1, len(self.coeffs)):
            inv.append(-head * sum(self.coeffs[i] * inv[n - i] for i in range(1, n + 1)))
        return TruncatedSeries(inv)

    def compose(self, inner: TruncatedSeries) -> TruncatedSeries:
        """f(g(t)) by Horner's scheme; ``inner`` must be a delta series.

        Horner runs on integer rows over one common denominator.  Each step
        multiplies the accumulator by g through the product kernel's integer
        core, adds the next coefficient of f over the lcm of the two
        denominators, and divides the denominator and every numerator by
        their gcd.  As g = O(t), the accumulator that g^i still multiplies
        is needed only modulo t^(N+1-i), so it grows by one coefficient per
        step.  Fractions are built once, at the end, by the product kernel's
        rule: Polynomials if f or g held any, Fractions otherwise.  At order
        0 Horner takes no step and f is returned as it is."""
        self._check_order(inner)
        if inner.coeffs[0] != 0:
            raise ValueError("composition requires a delta series (zero constant term)")
        if not self.order:
            return self
        rows_f, den_f, poly_f = _numerator_rows(self.coeffs)
        rows_g, den_g, poly_g = _numerator_rows(inner.coeffs)
        acc, den = [rows_f[-1]], den_f
        for row in reversed(rows_f[:-1]):
            acc.append([0])
            den *= den_g
            common = lcm(den, den_f)
            scale, scale_f = common // den, common // den_f
            acc = [[v * scale for v in sums] for sums in _convolve_rows(acc, rows_g)]
            head = acc[0]
            head.extend([0] * (len(row) - len(head)))
            for p, v in enumerate(row):
                head[p] += v * scale_f
            # A list, not a generator: star-unpacking a generator leaves one
            # tuple per call on CPython's tuple free list.
            divisor = gcd(common, *[v for sums in acc for v in sums])
            acc = [[v // divisor for v in sums] for sums in acc]
            den = common // divisor
        return TruncatedSeries(_from_rows(acc, den, poly_f or poly_g))

    def derivative(self) -> TruncatedSeries:
        """Termwise d/dt; the truncation order drops by one."""
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 series")
        return TruncatedSeries(i * c for i, c in enumerate(self.coeffs) if i)

    def multiply_by_t(self) -> TruncatedSeries:
        """Shift every coefficient up one power; the order grows by one."""
        return TruncatedSeries((self._zero(),) + self.coeffs)

    def divided_by_t(self) -> TruncatedSeries:
        """Shift down one power; requires a vanishing constant term."""
        if self.coeffs[0] != 0:
            raise ValueError("constant term must vanish to divide by t")
        if self.order == 0:
            raise ValueError("cannot divide an order-0 series by t")
        return TruncatedSeries(self.coeffs[1:])

    def __repr__(self) -> str:
        return f"TruncatedSeries({list(self.coeffs)!r})"


def _numerator_rows(coeffs) -> tuple[list[list[int]], int, bool]:
    """Each coefficient as a row of integer numerators over one common
    denominator, the lcm of every entry's denominator.

    A scalar is a row of one entry, a ``Polynomial`` its coefficient tuple
    (the zero polynomial an empty row).  Also says whether any coefficient
    was a ``Polynomial``.
    """
    entries = []
    has_poly = False
    for c in coeffs:
        if isinstance(c, Polynomial):
            entries.append(c.coeffs)
            has_poly = True
        else:
            entries.append((c,))
    try:
        rows, den = _integer_rows(entries)
    except AttributeError:
        # Floats (and other inexact values) have no numerator/denominator.
        raise TypeError("series coefficients must be int, Fraction or Polynomial") from None
    return rows, den, has_poly


def _convolve_rows(rows_a, rows_b) -> list[list[int]]:
    """The integer core of every series product: the first len(rows_a)
    coefficients of the product of two series given as rows of integer
    numerators, each result a row of ints of at least one entry.  Each
    nonzero numerator of ``rows_a`` is spread over ``rows_b`` once, so zero
    coefficients cost nothing."""
    sums = [[0] for _ in rows_a]
    for i, x in enumerate(rows_a):
        for p, xp in enumerate(x):
            if xp:
                for acc, y in zip(sums[i:], rows_b):
                    if len(acc) < p + len(y):
                        acc.extend([0] * (p + len(y) - len(acc)))
                    for q, yq in enumerate(y, p):
                        acc[q] += xp * yq
    return sums


def _from_rows(sums, den: int, has_poly: bool) -> list:
    """Integer rows over ``den`` as coefficients: Polynomials if
    ``has_poly``, else one Fraction per row."""
    if has_poly:
        return [Polynomial(Fraction(v, den) for v in acc) for acc in sums]
    return [Fraction(acc[0], den) for acc in sums]


def _convolve(a, b) -> list:
    """Coefficients of the product of two truncated series of equal order:
    products accumulate as ints, and each result entry is reduced once."""
    rows_a, den_a, poly_a = _numerator_rows(a)
    rows_b, den_b, poly_b = _numerator_rows(b)
    return _from_rows(_convolve_rows(rows_a, rows_b), den_a * den_b, poly_a or poly_b)


def constant_series(value, order: int) -> TruncatedSeries:
    """The constant ``value`` as a series of the given truncation order."""
    if order < 0:
        raise ValueError("truncation order must be non-negative")
    return TruncatedSeries((value,) + (value * 0,) * order)


def log1p_series(order: int) -> TruncatedSeries:
    """log(1+t): coefficients 0 and then (-1)^(i-1)/i."""
    if order < 0:
        raise ValueError("truncation order must be non-negative")
    return TruncatedSeries(
        [Fraction(0)] + [Fraction((-1) ** (i - 1), i) for i in range(1, order + 1)]
    )


def exp_series(order: int) -> TruncatedSeries:
    """e^t: coefficients 1/i!."""
    if order < 0:
        raise ValueError("truncation order must be non-negative")
    return TruncatedSeries(Fraction(1, factorial(i)) for i in range(order + 1))


def binomial_series(order: int) -> TruncatedSeries:
    """(1+t)^x over the polynomial ring: the t^j coefficient is (x)_j / j!."""
    if order < 0:
        raise ValueError("truncation order must be non-negative")
    return TruncatedSeries(
        falling_factorial_poly(j) / factorial(j) for j in range(order + 1)
    )


def exp_xt_series(order: int) -> TruncatedSeries:
    """e^(xt) over the polynomial ring: the t^j coefficient is x^j / j!."""
    if order < 0:
        raise ValueError("truncation order must be non-negative")
    return TruncatedSeries(
        Polynomial([0] * j + [Fraction(1, factorial(j))]) for j in range(order + 1)
    )
