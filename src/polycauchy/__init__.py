"""Exact arithmetic for poly-Cauchy numbers and polynomials of the second kind.

The package computes the family C_n^(k)(x) defined by the generating function
Lif_k(-log(1+t)) (1+t)^x along two independent routes (explicit
Stirling-number sums and truncated-series coefficient extraction), together
with the classical sequences it connects to, and mechanically verifies the
connecting identities over parameter grids with zero-tolerance equality.

All arithmetic is exact: rationals are arbitrary-precision fractions, series
are truncated formal power series, and identity checks compare canonical
forms structurally.

The verification suite (``verify``) loads on first use: its four exported
names resolve through the module ``__getattr__`` below, so importing the
package, or running ``gen``, ``expand`` or ``series``, never loads it.
"""

from .exact import Rational, format_rational, parse_rational
from .poly import Basis, BasisKind, Polynomial, X, falling_factorial_value
from .second_kind import (
    ConnectionMatrix,
    WeightRoute,
    connection,
    connection_to_bernoulli,
    connection_to_falling,
    connection_to_frobenius,
    number_closed,
    poly_closed,
    poly_oracle,
)
from .sequences import (
    Stirling1Table,
    bernoulli_2nd_poly,
    bernoulli_high_order_poly,
    falling_factorial_poly,
    frobenius_euler_poly,
    lif_series,
    narumi_poly,
    stirling1,
)
from .series import TruncatedSeries, exp_series, log1p_series

__version__ = "0.1.0"

__all__ = [
    "Rational",
    "format_rational",
    "parse_rational",
    "Polynomial",
    "X",
    "Basis",
    "BasisKind",
    "falling_factorial_poly",
    "falling_factorial_value",
    "TruncatedSeries",
    "log1p_series",
    "exp_series",
    "Stirling1Table",
    "stirling1",
    "lif_series",
    "bernoulli_2nd_poly",
    "bernoulli_high_order_poly",
    "frobenius_euler_poly",
    "narumi_poly",
    "number_closed",
    "poly_closed",
    "poly_oracle",
    "ConnectionMatrix",
    "WeightRoute",
    "connection",
    "connection_to_bernoulli",
    "connection_to_frobenius",
    "connection_to_falling",
    "GridConfig",
    "VerificationReport",
    "catalog",
    "run_suite",
    "__version__",
]

_VERIFY_NAMES = frozenset({"GridConfig", "VerificationReport", "catalog", "run_suite"})


def __getattr__(name: str):
    # PEP 562: called only for names the module does not define.
    if name in _VERIFY_NAMES:
        from . import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
