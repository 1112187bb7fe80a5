"""Dense univariate polynomials over exact rationals.

A polynomial is stored in FLINT's ``fmpq_poly`` layout, as ``TruncatedSeries``
is: integer numerators ``nums``, lowest degree first, over one positive
denominator ``den``, with no common factor and no trailing zero, so identity
checks are literal ``==`` comparisons.  The zero polynomial is ``()`` over 1.
Scalars (``int`` or ``Fraction``) mix freely in arithmetic and compare equal
to constant polynomials, which lets polynomial-valued and rational-valued
code share the same formulas.  A float is inexact and is refused with
``TypeError`` wherever a rational is taken, down to a Frobenius-Euler basis
parameter.

Rationals come in through one step that the series constructor shares,
``_integer_numerators``, and every integer result leaves through one gcd and
sign reduction, ``_lowest_terms``.  Fractions are built only where
coefficients are read and by evaluation, Horner's scheme in ``Fraction``s
over the numerators with one division by ``den``.  Two kernels do the
arithmetic: every sum, difference, negation, scalar multiple and scalar
quotient, and every connection row's reconstruction, is one
``_weighted_sum`` (the first through ``linear_combination``, which checks
its inputs), and every product of two polynomials, or of two series, is one
``_convolve_ints``.  ``shift`` runs
Horner's scheme on the same integer numerators.

The module also holds the basis tags (``Basis``) of the connection-coefficient
expansions and the triangular solve against a monic basis; the basis members,
falling factorials included, are rows of the Sheffer families in ``sequences``,
and the expansion rows are ``second_kind.ConnectionMatrix``.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence

from .exact import UsageError

__all__ = [
    "Polynomial",
    "X",
    "linear_combination",
    "BasisKind",
    "Basis",
    "falling_factorial_value",
    "expand_in_monic_basis",
]

_SCALARS = (int, Fraction)


def _exact(value: Fraction | int) -> Fraction:
    """``value`` as a Fraction; a float is inexact and refused."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(f"polynomial arithmetic is exact; got the float {value!r}")
    return Fraction(value)


def _integer_numerators(values: Iterable[Fraction | int]) -> tuple[list[int], int]:
    """Rationals as integer numerators over the lcm of their denominators,
    in lowest terms.  A set, not a generator, is star-unpacked: a generator
    leaves one tuple per call on CPython's tuple free list."""
    items = [v if isinstance(v, _SCALARS) else _exact(v) for v in values]
    den = lcm(*{v.denominator for v in items})
    return [v.numerator * (den // v.denominator) for v in items], den


def _lowest_terms(nums: Sequence[int], den: int) -> tuple[tuple[int, ...], int]:
    """``nums`` over the nonzero ``den`` divided by their gcd, with the sign
    moved into the numerators."""
    divisor = gcd(den, *nums)
    if den < 0:
        divisor = -divisor
    return tuple([v // divisor for v in nums]), den // divisor


def _from_numerators(nums: list[int], den: int) -> Polynomial:
    """sum_i nums[i] x^i / den for a nonzero den, with no pass over
    rationals; trailing zeros are trimmed off ``nums`` in place."""
    while nums and not nums[-1]:
        nums.pop()
    poly = object.__new__(Polynomial)
    poly.nums, poly.den = _lowest_terms(nums, den)
    return poly


def _convolve_ints(a, b) -> list[int]:
    """The integer core of every polynomial and series product: the first
    len(a) coefficients of the product of two integer coefficient lists.
    Each nonzero entry of ``a`` is spread over ``b`` once, so zero
    coefficients cost nothing."""
    sums = [0] * len(a)
    for i, x in enumerate(a):
        if x:
            for q, y in zip(range(i, len(a)), b):
                sums[q] += x * y
    return sums


class Polynomial:
    """Polynomial in x with exact rational coefficients, stored as the
    numerators ``nums[i]`` of the x^i coefficients over ``den``."""

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        nums, self.den = _integer_numerators(coeffs)
        while nums and not nums[-1]:
            nums.pop()
        self.nums = tuple(nums)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients of x^0..x^degree as Fractions."""
        return tuple([Fraction(v, self.den) for v in self.nums])

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.nums) - 1

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def leading_coefficient(self) -> Fraction:
        return self.coefficient(self.degree)

    def coefficient(self, i: int) -> Fraction:
        """Coefficient of x**i (zero beyond the degree)."""
        if 0 <= i < len(self.nums):
            return Fraction(self.nums[i], self.den)
        return Fraction(0)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self.den == other.den and self.nums == other.nums
        if isinstance(other, _SCALARS):
            return self == Polynomial((other,))
        return NotImplemented

    def __hash__(self) -> int:
        # Constants hash like their scalar value so p == q implies equal hashes.
        if len(self.nums) <= 1:
            return hash(self.coefficient(0))
        return hash((self.nums, self.den))

    def __neg__(self) -> Polynomial:
        return linear_combination((-1,), (self,))

    def __add__(self, other: Polynomial | Fraction | int) -> Polynomial:
        return _combine((1, 1), self, other)

    __radd__ = __add__

    def __sub__(self, other: Polynomial | Fraction | int) -> Polynomial:
        return _combine((1, -1), self, other)

    def __rsub__(self, other: Polynomial | Fraction | int) -> Polynomial:
        return _combine((-1, 1), self, other)

    def __mul__(self, other: Polynomial | Fraction | int) -> Polynomial:
        if isinstance(other, _SCALARS):
            return linear_combination((other,), (self,))
        if not isinstance(other, Polynomial):
            return NotImplemented
        padded = self.nums + (0,) * (len(other.nums) - 1)
        return _from_numerators(_convolve_ints(padded, other.nums), self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: Polynomial | Fraction | int) -> Polynomial:
        if isinstance(other, Polynomial):
            if other.degree > 0:
                raise ValueError("cannot divide by a non-constant polynomial")
            if other.is_zero:
                raise ZeroDivisionError("polynomial division by zero")
            other = other.coefficient(0)
        return linear_combination((1 / _exact(other),), (self,))

    def __rtruediv__(self, other: Fraction | int) -> Polynomial:
        return Polynomial((other,)) / self

    def __pow__(self, exponent: int) -> Polynomial:
        if exponent < 0:
            raise ValueError("polynomial powers must be non-negative")
        result = Polynomial((1,))
        for _ in range(exponent):
            result = result * self
        return result

    def __call__(self, point: Fraction | int) -> Fraction:
        """Evaluate at ``point`` by Horner's scheme over the numerators,
        exactly, with one division by the denominator at the end."""
        point = _exact(point)
        acc = Fraction(0)
        for c in reversed(self.nums):
            acc = acc * point + c
        return acc / self.den

    def derivative(self) -> Polynomial:
        """Formal derivative."""
        return _from_numerators([i * v for i, v in enumerate(self.nums) if i], self.den)

    def shift(self, offset: Fraction | int) -> Polynomial:
        """The polynomial ``p(x + offset)``, expanded exactly.

        An integer Taylor shift: with p(x) = sum_i P_i x^i / D and
        offset = u/v, Horner's scheme Q <- Q (v x + u) + P_i v^(n-i) runs in
        ints, and p(x + offset) = Q(x) / (D v^n).
        """
        offset = _exact(offset)
        u, v = offset.numerator, offset.denominator
        acc: list[int] = []
        for i, c in enumerate(reversed(self.nums)):
            acc = [u * a + v * b for a, b in zip(acc + [0], [0] + acc)]
            acc[0] += c * v**i
        return _from_numerators(acc, self.den * v ** max(self.degree, 0))

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"

    def __str__(self) -> str:
        terms = []
        for i, c in reversed(list(enumerate(self.coeffs))):
            if c:
                var, mag = "x" if i == 1 else f"x^{i}", abs(c)
                body = str(mag) if i == 0 else var if mag == 1 else f"{mag}*{var}"
                terms.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(terms)
        if not text:
            return "0"
        return text[2:] if text[0] == "+" else "-" + text[2:]


def linear_combination(
    weights: Iterable[Fraction | int], polys: Iterable[Polynomial]
) -> Polynomial:
    """sum_i weights[i] * polys[i], summed in integer numerators.

    A float weight raises ``TypeError``, inputs of unequal length raise
    ``ValueError``, and zero weights and zero polynomials are skipped; the
    rest is summed by ``_weighted_sum``.
    """
    items = [w if isinstance(w, _SCALARS) else _exact(w) for w in weights]
    terms = [(w, p) for w, p in zip(items, polys, strict=True) if w and p]
    if not terms:
        return Polynomial()
    scales, kept = zip(*terms)
    return _weighted_sum(scales, kept, max([len(p.nums) for p in kept]))


def _weighted_sum(weights: Sequence[Fraction | int], polys: Sequence[Polynomial],
                  width: int) -> Polynomial:
    """sum_i weights[i] * polys[i] for exact weights and polynomials of
    at most ``width`` coefficients, with no check: the integer core of
    ``linear_combination`` and of ``ConnectionMatrix.reconstruct``.  Term i
    is a numerator over d_i, the weight's denominator times the
    polynomial's, so each is scaled by D/d_i with D = lcm(d_i), products
    accumulate as ints, and the sum is reduced once.  Pairs are taken as
    far as the shorter input goes."""
    dens = [w.denominator * p.den for w, p in zip(weights, polys)]
    den = lcm(*dens)
    acc = [0] * width
    for w, p, d in zip(weights, polys, dens):
        w = w.numerator * (den // d)
        if w:
            for i, c in enumerate(p.nums):
                acc[i] += w * c
    return _from_numerators(acc, den)


def _combine(weights: tuple[int, int], p: Polynomial, other: object) -> Polynomial:
    """``linear_combination`` of ``p`` and a polynomial or scalar operand;
    NotImplemented for any other operand."""
    if isinstance(other, _SCALARS):
        other = Polynomial((other,))
    elif not isinstance(other, Polynomial):
        return NotImplemented
    return linear_combination(weights, (p, other))


X = Polynomial((0, 1))


def falling_factorial_value(point: Fraction | int, m: int) -> Fraction:
    """Value of the falling factorial of length m at ``point``."""
    if m < 0:
        raise ValueError("falling factorial length must be non-negative")
    point = _exact(point)
    acc = Fraction(1)
    for i in range(m):
        acc *= point - i
    return acc


class BasisKind(Enum):
    FALLING_FACTORIAL = "falling-factorial"
    HIGHER_ORDER_BERNOULLI = "higher-order-bernoulli"
    FROBENIUS_EULER = "frobenius-euler"


def _frobenius_euler_lambda(order: int | None, lam: Fraction | int) -> Fraction:
    """lambda, made exact, of a Frobenius-Euler family or basis: the order
    must be non-negative and lambda differ from 1, or ``UsageError`` is
    raised."""
    if order is None or order < 0:
        raise UsageError("Frobenius-Euler family needs a non-negative order")
    lam = _exact(lam)
    if lam == 1:
        raise UsageError("Frobenius-Euler parameter must differ from 1")
    return lam


class Basis(namedtuple("Basis", "kind order param", defaults=(None, None))):
    """A polynomial basis tag; the parametric bases carry their parameters.

    ``order`` is the integer r of the higher-order-Bernoulli / Frobenius-Euler
    families; ``param`` is the Frobenius-Euler lambda, which must differ
    from 1 for the generating function to exist.  Immutable and hashable;
    fields are checked, and ``param`` made exact, on construction.
    """

    __slots__ = ()

    def __new__(
        cls, kind: BasisKind, order: int | None = None, param: Fraction | None = None
    ) -> Basis:
        if order is not None and not isinstance(order, int):
            raise TypeError(f"basis order must be an int; got {order!r}")
        if kind is BasisKind.FROBENIUS_EULER:
            if param is None:
                raise ValueError("frobenius-euler basis needs a parameter")
            param = _frobenius_euler_lambda(order, param)
        elif param is not None:
            raise ValueError(f"{kind.value} basis takes no parameter")
        elif kind is BasisKind.HIGHER_ORDER_BERNOULLI:
            if order is None or order < 0:
                raise ValueError(f"{kind.value} basis needs a non-negative order")
        elif order is not None:
            raise ValueError(f"{kind.value} basis takes no order")
        return super().__new__(cls, kind, order, param)

    @property
    def params(self) -> tuple:
        """The parameters of the basis family: (), (order,) or (order, param)."""
        return tuple([v for v in (self.order, self.param) if v is not None])

    @classmethod
    def falling_factorial(cls) -> Basis:
        return cls(BasisKind.FALLING_FACTORIAL)

    @classmethod
    def higher_order_bernoulli(cls, order: int) -> Basis:
        return cls(BasisKind.HIGHER_ORDER_BERNOULLI, order=order)

    @classmethod
    def frobenius_euler(cls, order: int, param: Fraction | int) -> Basis:
        return cls(BasisKind.FROBENIUS_EULER, order=order, param=param)


def expand_in_monic_basis(p: Polynomial, members: Sequence[Polynomial]) -> tuple[Fraction, ...]:
    """Coefficients of ``p`` against ``members``, where ``members[m]`` must be
    monic of degree m.  Solved by back-substitution down the triangle.
    """
    if p.is_zero:
        return ()
    n = p.degree
    if len(members) <= n:
        raise ValueError(f"need basis members up to degree {n}")
    for m in range(n + 1):
        if members[m].degree != m or members[m].leading_coefficient != 1:
            raise ValueError(f"basis member {m} is not monic of degree {m}")
    out = [Fraction(0)] * (n + 1)
    residue = p
    for m in range(n, -1, -1):
        c = residue.coefficient(m)
        out[m] = c
        if c:
            residue = residue - c * members[m]
    # The residue must vanish once every degree has been eliminated.
    assert residue.is_zero
    return tuple(out)
