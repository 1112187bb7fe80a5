"""Truncated formal power series over the rationals.

A series holds the coefficients of t^0..t^N for a fixed truncation order N;
arithmetic is exact through t^N and anything beyond is discarded.  A
generating function that carries x is never a series here: every polynomial
family is built from the numbers of its scalar amplitude series (see
``sequences.sheffer_rows``).

A series is stored in FLINT's ``fmpq_poly`` layout: integer numerators
``nums`` over one positive denominator ``den``, with no common factor, so
``==`` and ``hash`` compare the two fields, as for ``Polynomial``.  The
constructor is the only way in from rationals and the only type check; it
refuses any coefficient or scalar operand that is not an int or a Fraction
with ``TypeError``, then brings the rationals to integer numerators by the
step ``Polynomial``'s constructor uses (``poly._integer_numerators``).  Every
operation works on the numerators and reduces its result once (``_reduced``,
by ``poly._lowest_terms``), and Fractions are built only where coefficients
are read.  Products run on
``poly._convolve_ints``, which ``compose``'s Horner steps share, and
``invert`` is Newton's iteration at doubling precision.

Series with a removable singularity at t = 0, such as t/log(1+t), are not
stored as such: build the unit-constant cofactor (here log(1+t)/t, via
``divided_by_t``) and invert it, so every stored object is an honest element
of Q[[t]] mod t^(N+1).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm
from typing import Iterable

from .poly import _convolve_ints, _integer_numerators, _lowest_terms

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
    """Formal power series truncated (inclusively) at a fixed order, stored
    as the numerators ``nums[i]`` of the t^i coefficients over ``den``."""

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Iterable):
        items = tuple(coeffs)
        if not items:
            raise ValueError("a truncated series needs at least the t^0 coefficient")
        if not all(isinstance(c, (int, Fraction)) for c in items):
            raise TypeError("series coefficients must be int or Fraction")
        nums, self.den = _integer_numerators(items)
        self.nums = tuple(nums)

    @property
    def order(self) -> int:
        return len(self.nums) - 1

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients of t^0..t^N as Fractions."""
        return tuple([Fraction(v, self.den) for v in self.nums])

    def coefficient(self, n: int) -> Fraction:
        """Coefficient of t^n; requesting beyond the truncation order is an error."""
        if n < 0:
            raise ValueError("series indices are non-negative")
        if n > self.order:
            raise InsufficientOrderError(n, self.order)
        return Fraction(self.nums[n], self.den)

    def sequence_value(self, n: int) -> Fraction:
        """n! times the t^n coefficient: the n-th value of the sequence whose
        exponential generating function this series is."""
        return factorial(n) * self.coefficient(n)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def _check_order(self, other: TruncatedSeries) -> None:
        if self.order != other.order:
            raise OrderMismatchError(f"mismatched orders: {self.order} vs {other.order}")

    def __neg__(self) -> TruncatedSeries:
        return _reduced([-v for v in self.nums], self.den)

    def __add__(self, other) -> TruncatedSeries:
        if not isinstance(other, TruncatedSeries):
            other = constant_series(other, self.order)
        self._check_order(other)
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        return _reduced([x * a + y * b for x, y in zip(self.nums, other.nums)], den)

    __radd__ = __add__

    def __sub__(self, other) -> TruncatedSeries:
        return self + -1 * other

    def __rsub__(self, other) -> TruncatedSeries:
        return (-self) + other

    def __mul__(self, other) -> TruncatedSeries:
        if not isinstance(other, TruncatedSeries):
            scalar = TruncatedSeries((other,))
            return _reduced([v * scalar.nums[0] for v in self.nums], self.den * scalar.den)
        self._check_order(other)
        return _reduced(_convolve_ints(self.nums, other.nums), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> TruncatedSeries:
        if not isinstance(exponent, int):
            raise TypeError(f"series powers take an int exponent; got {exponent!r}")
        if exponent < 0:
            return self.invert() ** (-exponent)
        result, square = constant_series(1, self.order), self
        while exponent:
            if exponent & 1:
                result = result * square
            exponent >>= 1
            if exponent:
                square = square * square
        return result

    def invert(self) -> TruncatedSeries:
        """Multiplicative inverse; the constant term must be a unit.  Newton's
        step g <- g (2 - f g) doubles the correct coefficients, so from
        g = 1/f_0 each step cuts f and g to min(2 len(g), N+1) terms, and the
        whole inversion costs about one full-order product pair."""
        if not self.nums[0]:
            raise ValueError("series not invertible")
        inv = _reduced([self.den], self.nums[0])
        while inv.order < self.order:
            size = min(2 * len(inv.nums), len(self.nums))
            head = _reduced(self.nums[:size], self.den)
            inv = _reduced(inv.nums + (0,) * (size - len(inv.nums)), inv.den)
            inv = inv * (2 - head * inv)
        return inv

    def compose(self, inner: TruncatedSeries) -> TruncatedSeries:
        """f(g(t)) by Horner's scheme; ``inner`` must be a delta series.

        Each step multiplies the accumulator's numerators by g's through the
        product kernel's integer core, adds the next numerator of f over the
        lcm of the two denominators, and divides the denominator and every
        numerator by their gcd.  As g = O(t), the accumulator that g^i still
        multiplies is needed only modulo t^(N+1-i), so it grows by one
        coefficient per step.  At order 0 Horner takes no step and f is
        returned as it is."""
        self._check_order(inner)
        if inner.nums[0]:
            raise ValueError("composition requires a delta series (zero constant term)")
        if not self.order:
            return self
        nums_f, den_f = self.nums, self.den
        acc, den = [nums_f[-1]], den_f
        for c in reversed(nums_f[:-1]):
            acc.append(0)
            den *= inner.den
            common = lcm(den, den_f)
            scale = common // den
            acc = [v * scale for v in _convolve_ints(acc, inner.nums)]
            acc[0] += c * (common // den_f)
            divisor = gcd(common, *acc)
            acc = [v // divisor for v in acc]
            den = common // divisor
        return _reduced(acc, den)

    def derivative(self) -> TruncatedSeries:
        """Termwise d/dt; the truncation order drops by one."""
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 series")
        return _reduced([i * v for i, v in enumerate(self.nums) if i], self.den)

    def multiply_by_t(self) -> TruncatedSeries:
        """Shift every coefficient up one power; the order grows by one."""
        return _reduced((0,) + self.nums, self.den)

    def divided_by_t(self) -> TruncatedSeries:
        """Shift down one power; requires a vanishing constant term."""
        if self.nums[0]:
            raise ValueError("constant term must vanish to divide by t")
        if self.order == 0:
            raise ValueError("cannot divide an order-0 series by t")
        return _reduced(self.nums[1:], self.den)

    def __repr__(self) -> str:
        return f"TruncatedSeries({list(self.coeffs)!r})"


def _reduced(nums, den: int) -> TruncatedSeries:
    """The series with numerators ``nums`` over the nonzero ``den``, in
    lowest terms and with the sign moved into the numerators."""
    series = object.__new__(TruncatedSeries)
    series.nums, series.den = _lowest_terms(nums, den)
    return series


def constant_series(value, order: int) -> TruncatedSeries:
    """The constant ``value`` as a series of the given truncation order."""
    if order < 0:
        raise ValueError("truncation order must be non-negative")
    return TruncatedSeries((value,) + (0,) * order)


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
