"""Dense univariate polynomials over exact rationals.

Polynomials are immutable, stored lowest degree first, and kept canonical by
trimming trailing zeros, so identity checks are literal ``==`` comparisons.
The zero polynomial is the empty coefficient tuple.  Scalars (``int`` or
``Fraction``) mix freely in arithmetic and compare equal to constant
polynomials, which lets polynomial-valued and rational-valued code share the
same formulas.  A float is inexact and is refused with ``TypeError``, as a
coefficient, a shift offset, an evaluation point, a divisor or dividend, a
``linear_combination`` weight or a ``falling_factorial_value`` point.

``shift`` and ``linear_combination`` work in FLINT's ``fmpq_poly`` layout:
the coefficients are brought to integer numerators over one common
denominator (``_integer_rows``, shared with the series product kernel), the
arithmetic runs in ints, and each result coefficient is one ``Fraction``.
No intermediate polynomial is built.

The module also holds the basis tags (``Basis``) of the connection-coefficient
expansions and the triangular solve against a monic basis.  The expansion rows
themselves are ``second_kind.ConnectionMatrix``; its ``reconstruct`` is the one
way to reassemble a polynomial from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Polynomial",
    "X",
    "linear_combination",
    "BasisKind",
    "Basis",
    "falling_factorial_poly",
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


def _integer_rows(rows) -> tuple[list[list[int]], int]:
    """Rows of rationals as rows of integer numerators over one common
    denominator, the lcm of every entry's denominator.

    The denominators are gathered in a set: star-unpacking a generator
    builds its argument tuple by resizing, which moves one tuple per call
    onto CPython's tuple free list of its final size.  Over warm
    ``reconstruct`` calls that free list kept growing, by about 0.15 MB per
    pass of the 2000-request ``query-stream`` benchmark."""
    den = lcm(*{e.denominator for row in rows for e in row})
    return [[e.numerator * (den // e.denominator) for e in row] for row in rows], den


class Polynomial:
    """Polynomial in x with exact rational coefficients; ``coeffs[i] * x**i``."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        items = [c if type(c) is Fraction else _exact(c) for c in coeffs]
        while items and not items[-1]:
            items.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(items)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading_coefficient(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def coefficient(self, i: int) -> Fraction:
        """Coefficient of x**i (zero beyond the degree)."""
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, _SCALARS):
            return self == Polynomial((other,))
        return NotImplemented

    def __hash__(self) -> int:
        # Constants hash like their scalar value so p == q implies equal hashes.
        if len(self.coeffs) <= 1:
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash(self.coeffs)

    def __neg__(self) -> Polynomial:
        return Polynomial(-c for c in self.coeffs)

    def __add__(self, other: Polynomial | Fraction | int) -> Polynomial:
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        summed = list(a)
        for i, c in enumerate(b):
            summed[i] += c
        return Polynomial(summed)

    __radd__ = __add__

    def __sub__(self, other: Polynomial | Fraction | int) -> Polynomial:
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Polynomial | Fraction | int) -> Polynomial:
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: Polynomial | Fraction | int) -> Polynomial:
        if isinstance(other, _SCALARS):
            return Polynomial(Fraction(other) * c for c in self.coeffs)
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Polynomial()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __truediv__(self, other: Polynomial | Fraction | int) -> Polynomial:
        if isinstance(other, Polynomial):
            if other.degree > 0:
                raise ValueError("cannot divide by a non-constant polynomial")
            if other.is_zero:
                raise ZeroDivisionError("polynomial division by zero")
            other = other.coeffs[0]
        divisor = _exact(other)
        return Polynomial(c / divisor for c in self.coeffs)

    def __rtruediv__(self, other: Fraction | int) -> Polynomial:
        if self.degree > 0:
            raise ValueError("cannot divide by a non-constant polynomial")
        if self.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        return Polynomial((_exact(other) / self.coeffs[0],))

    def __pow__(self, exponent: int) -> Polynomial:
        if exponent < 0:
            raise ValueError("polynomial powers must be non-negative")
        result = Polynomial((1,))
        square = self
        e = exponent
        while e:
            if e & 1:
                result = result * square
            e >>= 1
            if e:
                square = square * square
        return result

    def __call__(self, point: Fraction | int) -> Fraction:
        """Evaluate at ``point`` by Horner's scheme, exactly."""
        point = _exact(point)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def derivative(self) -> Polynomial:
        """Formal derivative."""
        return Polynomial(i * c for i, c in enumerate(self.coeffs) if i)

    def shift(self, offset: Fraction | int) -> Polynomial:
        """The polynomial ``p(x + offset)``, expanded exactly.

        An integer Taylor shift: with p(x) = sum_i P_i x^i / D and
        offset = u/v, Horner's scheme Q <- Q (v x + u) + P_i v^(n-i) runs in
        ints, and p(x + offset) = Q(x) / (D v^n).
        """
        offset = _exact(offset)
        u, v = offset.numerator, offset.denominator
        (nums,), den = _integer_rows((self.coeffs,))
        acc: list[int] = []
        for i, c in enumerate(reversed(nums)):
            acc = [u * a + v * b for a, b in zip(acc + [0], [0] + acc)]
            acc[0] += c * v**i
        den *= v ** max(self.degree, 0)
        return Polynomial(Fraction(a, den) for a in acc)

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                var = "x" if i == 1 else f"x^{i}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(body if sign == "+" else f"-{body}")
            else:
                parts.append(f"{sign} {body}")
        return " ".join(parts)


def linear_combination(
    weights: Iterable[Fraction | int], polys: Iterable[Polynomial]
) -> Polynomial:
    """sum_i weights[i] * polys[i], summed in integer numerators.

    The weights and the polynomials' coefficients are each brought to one
    common denominator, products accumulate as ints, and each result
    coefficient is one ``Fraction``.  Zero weights and zero polynomials are
    skipped; inputs of unequal length raise ``ValueError``.
    """
    terms = [(w, p.coeffs) for w, p in zip(map(_exact, weights), polys, strict=True) if w and p]
    if not terms:
        return Polynomial()
    (scales,), w_den = _integer_rows([[w for w, _ in terms]])
    rows, p_den = _integer_rows([row for _, row in terms])
    acc = [0] * max(map(len, rows))
    for w, row in zip(scales, rows):
        for i, c in enumerate(row):
            acc[i] += w * c
    den = w_den * p_den
    return Polynomial(Fraction(a, den) for a in acc)


def _as_poly(value: object) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, _SCALARS):
        return Polynomial((value,))
    return NotImplemented


X = Polynomial((0, 1))


@lru_cache(maxsize=None)
def falling_factorial_poly(m: int) -> Polynomial:
    """The falling factorial x(x-1)...(x-m+1); the empty product is 1."""
    if m < 0:
        raise ValueError("falling factorial degree must be non-negative")
    if m == 0:
        return Polynomial((1,))
    return falling_factorial_poly(m - 1) * Polynomial((-(m - 1), 1))


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


@dataclass(frozen=True)
class Basis:
    """A polynomial basis tag; the parametric bases carry their parameters.

    ``order`` is the r of the higher-order-Bernoulli / Frobenius-Euler
    families; ``param`` is the Frobenius-Euler lambda, which must differ
    from 1 for the generating function to exist.
    """

    kind: BasisKind
    order: int | None = None
    param: Fraction | None = None

    def __post_init__(self) -> None:
        needs_order = self.kind in (BasisKind.HIGHER_ORDER_BERNOULLI, BasisKind.FROBENIUS_EULER)
        if needs_order:
            if self.order is None or self.order < 0:
                raise ValueError(f"{self.kind.value} basis needs a non-negative order")
        elif self.order is not None:
            raise ValueError(f"{self.kind.value} basis takes no order")
        if self.kind is BasisKind.FROBENIUS_EULER:
            if self.param is None:
                raise ValueError("frobenius-euler basis needs a parameter")
            object.__setattr__(self, "param", Fraction(self.param))
            if self.param == 1:
                raise ValueError("Frobenius-Euler parameter must differ from 1")
        elif self.param is not None:
            raise ValueError(f"{self.kind.value} basis takes no parameter")

    @classmethod
    def falling_factorial(cls) -> Basis:
        return cls(BasisKind.FALLING_FACTORIAL)

    @classmethod
    def higher_order_bernoulli(cls, order: int) -> Basis:
        return cls(BasisKind.HIGHER_ORDER_BERNOULLI, order=order)

    @classmethod
    def frobenius_euler(cls, order: int, param: Fraction | int) -> Basis:
        return cls(BasisKind.FROBENIUS_EULER, order=order, param=Fraction(param))


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
