"""A third, independent oracle: the Stirling numbers and the classical
Bernoulli and Euler polynomials against sympy.

Polynomials are compared, not Bernoulli numbers: sympy >= 1.12 takes
B_1 = +1/2 while B_1(x) = x - 1/2 is the same under either convention.
"""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
from sympy.functions.combinatorial.numbers import stirling  # noqa: E402

from polycauchy.sequences import (  # noqa: E402
    bernoulli_high_order_poly,
    frobenius_euler_poly,
    stirling1,
)

x = sympy.Symbol("x")


def _coefficients(expr) -> tuple[Fraction, ...]:
    """Ascending coefficients of a sympy polynomial in x, as Fractions."""
    ascending = reversed(sympy.Poly(expr, x).all_coeffs())
    return tuple(Fraction(int(c.p), int(c.q)) for c in ascending)


@pytest.mark.parametrize("n", range(31))
def test_stirling1_matches_sympy(n):
    for l in range(n + 1):
        assert stirling1(n, l) == stirling(n, l, kind=1, signed=True), (n, l)


@pytest.mark.parametrize("n", range(21))
def test_bernoulli_polynomial_matches_sympy(n):
    assert bernoulli_high_order_poly(n, 1).coeffs == _coefficients(sympy.bernoulli(n, x))


@pytest.mark.parametrize("n", range(21))
def test_euler_polynomial_matches_sympy(n):
    assert frobenius_euler_poly(n, 1, -1).coeffs == _coefficients(sympy.euler(n, x))
