"""Truncated formal power series over the rationals.

A series stores the coefficients of t^0..t^N for a fixed truncation order N;
arithmetic is exact through t^N and anything beyond is discarded, never
approximated.  Coefficients are ints or Fractions: a generating function
that carries the variable x is never a series here, since every polynomial
family is built from the numbers of its scalar amplitude series (see
``memo.sheffer_rows``).

Every series product brings each operand to integer numerators over one
common denominator (FLINT's ``fmpq_poly`` layout) and multiplies them with
``poly._convolve_ints``, the integer core polynomial products share.
``compose`` runs Horner's scheme through that core, reducing the common
denominator once per step, and ``invert`` is Newton's iteration on products.
A coefficient or scalar operand that is neither an int nor a Fraction, such
as a float or a polynomial, is refused with ``TypeError``.

Series with a removable singularity at t = 0, such as t/log(1+t), are not
stored as such: build the unit-constant cofactor (here log(1+t)/t, via
``divided_by_t``) and invert it, so every stored object is an honest element
of Q[[t]] mod t^(N+1).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm
from typing import Iterable

from .poly import _convolve_ints, _integer_rows

__all__ = [
    "TruncatedSeries",
    "OrderMismatchError",
    "InsufficientOrderError",
    "constant_series",
    "log1p_series",
    "exp_series",
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
        head = self.coeffs[0] + _scalar(other)
        return TruncatedSeries((head,) + self.coeffs[1:])

    __radd__ = __add__

    def __sub__(self, other) -> TruncatedSeries:
        return self + (-other if isinstance(other, TruncatedSeries) else -1 * other)

    def __rsub__(self, other) -> TruncatedSeries:
        return (-self) + other

    def __mul__(self, other) -> TruncatedSeries:
        if not isinstance(other, TruncatedSeries):
            other = _scalar(other)
            return TruncatedSeries(c * other for c in self.coeffs)
        self._check_order(other)
        (a, den_a), (b, den_b) = _numerators(self.coeffs), _numerators(other.coeffs)
        return TruncatedSeries(Fraction(v, den_a * den_b) for v in _convolve_ints(a, b))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> TruncatedSeries:
        if exponent < 0:
            return self.invert() ** (-exponent)
        result = constant_series(Fraction(1), self.order)
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
        """Multiplicative inverse; the constant term must be a unit.  Each
        Newton step g <- g (2 - f g) doubles the correct coefficients, so
        ``order.bit_length()`` steps from g = 1/f_0 reach t^order."""
        head = _scalar(self.coeffs[0])
        if not head:
            raise ValueError("series not invertible")
        inv = constant_series(Fraction(1) / head, self.order)
        for _ in range(self.order.bit_length()):
            inv = inv * (2 - self * inv)
        return inv

    def compose(self, inner: TruncatedSeries) -> TruncatedSeries:
        """f(g(t)) by Horner's scheme; ``inner`` must be a delta series.

        Horner runs on integer numerators over one common denominator.  Each
        step multiplies the accumulator by g through the product kernel's
        integer core, adds the next coefficient of f over the lcm of the two
        denominators, and divides the denominator and every numerator by
        their gcd.  As g = O(t), the accumulator that g^i still multiplies
        is needed only modulo t^(N+1-i), so it grows by one coefficient per
        step.  Fractions are built once, at the end.  At order 0 Horner
        takes no step and f is returned as it is."""
        self._check_order(inner)
        if inner.coeffs[0] != 0:
            raise ValueError("composition requires a delta series (zero constant term)")
        if not self.order:
            return self
        nums_f, den_f = _numerators(self.coeffs)
        nums_g, den_g = _numerators(inner.coeffs)
        acc, den = [nums_f[-1]], den_f
        for c in reversed(nums_f[:-1]):
            acc.append(0)
            den *= den_g
            common = lcm(den, den_f)
            scale = common // den
            acc = [v * scale for v in _convolve_ints(acc, nums_g)]
            acc[0] += c * (common // den_f)
            divisor = gcd(common, *acc)
            acc = [v // divisor for v in acc]
            den = common // divisor
        return TruncatedSeries(Fraction(v, den) for v in acc)

    def derivative(self) -> TruncatedSeries:
        """Termwise d/dt; the truncation order drops by one."""
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 series")
        return TruncatedSeries(i * c for i, c in enumerate(self.coeffs) if i)

    def multiply_by_t(self) -> TruncatedSeries:
        """Shift every coefficient up one power; the order grows by one."""
        return TruncatedSeries((Fraction(0),) + self.coeffs)

    def divided_by_t(self) -> TruncatedSeries:
        """Shift down one power; requires a vanishing constant term."""
        if self.coeffs[0] != 0:
            raise ValueError("constant term must vanish to divide by t")
        if self.order == 0:
            raise ValueError("cannot divide an order-0 series by t")
        return TruncatedSeries(self.coeffs[1:])

    def __repr__(self) -> str:
        return f"TruncatedSeries({list(self.coeffs)!r})"


def _numerators(coeffs) -> tuple[list[int], int]:
    """The coefficients as integer numerators over one common denominator,
    the lcm of their denominators."""
    try:
        (nums,), den = _integer_rows([coeffs])
    except AttributeError:
        # Floats and other non-rationals have no numerator/denominator.
        raise TypeError("series coefficients must be int or Fraction") from None
    return nums, den


def _scalar(value):
    """``value`` itself if it is an int or a Fraction, the only scalars a
    series takes."""
    if isinstance(value, (int, Fraction)):
        return value
    raise TypeError("series coefficients must be int or Fraction")


def constant_series(value, order: int) -> TruncatedSeries:
    """The constant ``value`` as a series of the given truncation order."""
    if order < 0:
        raise ValueError("truncation order must be non-negative")
    return TruncatedSeries((_scalar(value),) + (value * 0,) * order)


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
