"""Executable identity suites over a parameter grid, with exact reports.

Each identity is declared once, by the ``@_identity(id, statement,
location, *axes)`` decorator on its ``sides`` function.  An axis is a name
and a function giving its values from the ``GridConfig`` and the values of
the axes before it, so n, k, r, lambda and y read the grid and j, m in 1..n
read n.  The named axes are the identity's ``params``.  An axis named None
binds one value per prefix of the point that is not a parameter, such as
the weights ``thm5.weights-3way`` reads off one series power per r.  The
decorator registers the catalog entry and an evaluator, in catalog order:
one driver, ``_points``, walks the axes, ``sides(*point)`` returns
``(lhs, rhs)`` at each point, and ``_checks`` names the values and
compares the sides.

Every identity in the catalog is evaluated as a structural equality of
canonical values (rationals, polynomials or series) over a configured grid;
there are no tolerances.  Failures never abort a run: the whole grid is
evaluated so a wrong formula shows up as a pattern of failing parameter
points.  Reports are deterministic: checks are ordered by identity id and
then by parameter tuple, and two runs with the same configuration serialize
to identical bytes (timestamps, if wanted, belong in separate metadata).

That order is produced, not sorted into: identities run in id order, and
the driver yields every identity's points in increasing parameter order,
each axis's values sorted whatever order the config lists them in (an axis
holds numbers or strings, never both).  So ``_checks`` is a generator of
the report in its final order.  ``run_suite`` collects it; ``_Stream``
hands it to the CLI's sink and keeps only the per-identity counts and the
failures, which are all ``_summary_text`` and the exit code need.

The grid is evaluated on every usable CPU.  With W of them, ``_checks``
forks W children (``workers``), and child i makes points i, i + W, i + 2W,
... of every identity's grid, so each identity's shares differ by at most
one check whatever the grid.  The parent makes no point: it merges each
identity's checks back by grid point and writes them, so a report is
byte-identical to a one-CPU run.  CPU affinity (``taskset``) and the
cgroup's CPU quota are the only controls: a process allowed one CPU, a
platform without ``os.fork``, a process with another live thread or one
with ``SIGCHLD`` ignored runs everything in one process.  A child's memo
hits and spans stay in the child.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import accumulate, compress, islice
from math import factorial
from operator import mul
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from . import second_kind as sk
from . import sequences as seq
from .exact import UsageError, format_numerators, format_rational, unprintable_power
from .poly import Polynomial, _exact
from .series import InsufficientOrderError, TruncatedSeries, log1p_series

__all__ = [
    "IdentityInfo",
    "GridConfig",
    "GridConfigError",
    "Check",
    "VerificationReport",
    "catalog",
    "catalog_ids",
    "run_suite",
]

DEFAULT_LAMBDAS = (Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-1, 3))
DEFAULT_Y_VALUES = (
    Fraction(-2),
    Fraction(-1),
    Fraction(0),
    Fraction(1),
    Fraction(2),
    Fraction(1, 2),
)
LIF_DERIVATIVE_ORDER = 16
STIRLING_GF_MAX_POWER = 8


class GridConfigError(UsageError):
    """The requested grid cannot be run as configured."""


@dataclass(frozen=True)
class IdentityInfo:
    """Catalog entry: stable id, the identity in ASCII math, where it lives
    in the source material, and the names of its grid parameters."""

    id: str
    statement: str
    location: str
    params: tuple[str, ...]


@dataclass(frozen=True)
class GridConfig:
    """Parameter grid for a suite run.  ``identities`` of None selects the
    whole catalog, and an empty selection is refused.  Repeated values are
    dropped: lambdas and y values keep their first-seen order, and
    identities are sorted."""

    n_max: int = 12
    k_range: tuple[int, int] = (-3, 3)
    r_range: tuple[int, int] = (0, 4)
    lambdas: tuple[Fraction, ...] = DEFAULT_LAMBDAS
    y_values: tuple[Fraction, ...] = DEFAULT_Y_VALUES
    identities: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.n_max < 1:
            raise GridConfigError("n_max must be at least 1")
        # thm2.recurrence reads Stirling row n_max + 1.
        if self.n_max + 1 > seq.DEFAULT_STIRLING_LIMIT:
            raise GridConfigError(
                f"Stirling table capped at n_max={seq.DEFAULT_STIRLING_LIMIT}; "
                f"a grid with n_max={self.n_max} needs row {self.n_max + 1}"
            )
        if self.k_range[0] > self.k_range[1]:
            raise GridConfigError("k range is empty")
        # C_1^(k) = -2^(-k) is in the grid; refused here, it is never built.
        k = max(self.k_range, key=abs)
        if unprintable_power(k):
            raise GridConfigError(
                f"k={k} is too large: C_1^(k) = -2^(-k) has more than "
                f"{sys.get_int_max_str_digits()} digits, so a failing check could not be printed"
            )
        if self.r_range[0] > self.r_range[1] or self.r_range[0] < 0:
            raise GridConfigError("r range must be a non-empty range of non-negative integers")
        object.__setattr__(self, "lambdas", tuple(dict.fromkeys(map(_exact, self.lambdas))))
        object.__setattr__(self, "y_values", tuple(dict.fromkeys(map(_exact, self.y_values))))
        if any(v == 1 for v in self.lambdas):
            raise GridConfigError("Frobenius-Euler parameter must differ from 1")
        if self.identities is not None:
            if not self.identities:
                raise GridConfigError("identity selection is empty")
            unknown = set(self.identities) - set(catalog_ids())
            if unknown:
                raise GridConfigError(f"unknown identities: {sorted(unknown)}")
            object.__setattr__(self, "identities", tuple(sorted(set(self.identities))))


@dataclass(frozen=True)
class Check:
    """One identity instance at one grid point; sides are serialized only on
    failure, exactly."""

    identity: str
    params: tuple[tuple[str, int | Fraction | str], ...]
    passed: bool
    lhs: str | tuple[str, ...] | None = None
    rhs: str | tuple[str, ...] | None = None

    def row(self) -> dict:
        params = {name: _json_value(value) for name, value in self.params}
        row = {"identity": self.identity, "params": params, "status": "pass" if self.passed else "fail"}
        if not self.passed:
            row["lhs"] = _listify(self.lhs)
            row["rhs"] = _listify(self.rhs)
        return row


def _json_value(value: int | Fraction | str):
    if isinstance(value, str):
        return value
    if isinstance(value, Fraction):
        return format_rational(value)
    return value


def _listify(side: str | tuple[str, ...] | None):
    return list(side) if isinstance(side, tuple) else side


def _serialize(value) -> str | tuple[str, ...]:
    if isinstance(value, (Polynomial, TruncatedSeries)):
        return tuple(format_numerators(value.nums, value.den))
    return format_rational(value)


def _check(identity: str, params: tuple[tuple[str, int | Fraction | str], ...], lhs, rhs) -> Check:
    if lhs == rhs:
        return Check(identity, params, True)
    return Check(identity, params, False, _serialize(lhs), _serialize(rhs))


@dataclass(frozen=True)
class VerificationReport:
    """All checks of one suite run, in canonical order."""

    config: GridConfig
    checks: tuple[Check, ...] = field(default_factory=tuple)

    @property
    def total(self) -> int:
        return len(self.checks)

    @property
    def failure_count(self) -> int:
        return sum(1 for c in self.checks if not c.passed)

    def failures(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def rows(self) -> list[dict]:
        return [c.row() for c in self.checks]

    def to_text(self) -> str:
        return _summary_text(Counter(c.identity for c in self.checks), self.failures())


def _summary_text(counts: Mapping[str, int], failures: Sequence[Check]) -> str:
    """The text report of a run from its check count per identity and its
    failing checks, in canonical order."""
    bad = Counter(c.identity for c in failures)
    width = max((len(i) for i in counts), default=8)
    lines = [
        f"{ident:<{width}}  checks: {counts[ident]:>5}  failures: {bad[ident]}"
        for ident in sorted(counts)
    ]
    for c in failures:
        params = ", ".join(f"{name}={_json_value(value)}" for name, value in c.params)
        lines.append(f"FAIL {c.identity} [{params}]")
        lines.append(f"  lhs = {c.lhs}")
        lines.append(f"  rhs = {c.rhs}")
    lines.append(f"checks: {sum(counts.values())}, failures: {len(failures)}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Identities: declared axes and sides

Evaluator = Callable[[GridConfig, tuple[int, int]], Iterator[tuple[tuple, object, object]]]
# An axis is its parameter name and its values, given the config and the
# values of the axes before it.  An axis named None is not a parameter: its
# one value is bound once per prefix and shared by every point below it.
Axis = tuple[str | None, Callable[..., Iterable]]

_IDENTITIES: dict[str, tuple[IdentityInfo, Evaluator]] = {}


def _points(cfg: GridConfig, axes: Sequence[Axis]) -> Iterator[tuple]:
    """Every point of ``axes``, in increasing order: each axis's values are
    sorted, whatever order the config lists them in."""
    points: Iterator[tuple] = iter([()])
    for _, values in axes:
        points = _extended(cfg, points, values)
    return points


def _extended(cfg: GridConfig, points: Iterator[tuple],
              values: Callable[..., Iterable]) -> Iterator[tuple]:
    """Each of ``points`` followed by each of its values on one more axis;
    values given as the same object for each prefix, such as
    ``cfg.lambdas``, are sorted once."""
    given = ordered = None
    for point in points:
        if (found := values(cfg, *point)) is not given:
            given, ordered = found, sorted(found)
        for value in ordered:
            yield (*point, value)


def _identity(id: str, statement: str, location: str, *axes: Axis):
    """Register the decorated ``sides`` as identity ``id``, in catalog order.

    ``sides(*point)`` returns ``(lhs, rhs)`` at one point of ``axes``; the
    named axes are the identity's parameters, in order."""
    params = tuple(name for name, _ in axes if name is not None)

    def register(sides: Callable[..., tuple]) -> Callable[..., tuple]:
        info = IdentityInfo(id, statement, location, params)
        _IDENTITIES[id] = (info, partial(_evaluate, axes, sides))
        return sides

    return register


def _evaluate(axes: Sequence[Axis], sides: Callable[..., tuple], cfg: GridConfig,
              share: tuple[int, int]):
    """``(values, lhs, rhs)`` at points i, i + w, i + 2w, ... of ``axes``
    for ``share`` (i, w), with ``values`` those of the named axes; share
    (0, 1) is the whole grid."""
    named = [name is not None for name, _ in axes]
    index, count = share
    for point in islice(_points(cfg, axes), index, None, count):
        yield tuple(compress(point, named)), *sides(*point)


_N0 = ("n", lambda cfg, *_: range(cfg.n_max + 1))
_N1 = ("n", lambda cfg, *_: range(1, cfg.n_max + 1))
_J = ("j", lambda cfg, n, *_: range(1, n + 1))
_M = ("m", lambda cfg, n, *_: range(1, n + 1))
_K = ("k", lambda cfg, *_: range(cfg.k_range[0], cfg.k_range[1] + 1))
_R = ("r", lambda cfg, *_: range(cfg.r_range[0], cfg.r_range[1] + 1))
_LAMBDA = ("lambda", lambda cfg, *_: cfg.lambdas)
_Y = ("y", lambda cfg, *_: cfg.y_values)


@_identity("thm1.coeff", "sum_{m=j}^{n} (-1)^(m-j) C(m,j) S1(n,m)/(m-j+1)^k"
           " = sum_{l=j-1}^{n-1} (-1)^(l+1-j) C(n-1,l) C(l+1,j) B_{n-1-l}^{(n)}/(l+2-j)^k",
           "Theorem 1", _N1, _J, _K)
def _thm1_coeff(n, j, k):
    return sk.closed_coefficient(n, j, k), sk.theorem1_rhs_coefficient(n, j, k)


@_identity("thm1.numbers", "C_n^(k) = sum_m S1(n,m)(-1)^m/(m+1)^k"
           " = sum_l (-1)^(l+1) C(n-1,l) B_{n-1-l}^{(n)}/(l+2)^k", "Theorem 1", _N1, _K)
def _thm1_numbers(n, k):
    return sk.number_closed(n, k), sk.number_bernoulli_form(n, k)


@_identity("eq5.k1-reduction", "C_n^(1)(x) = b_n(x-1) = B_n^{(n)}(x)", "Equation (5)",
           _N0, ("form", lambda cfg, n: ("bernoulli2-shift", "high-order-bernoulli")))
def _k1_reduction(n, form):
    if form == "bernoulli2-shift":
        return sk.poly_closed(n, 1), seq.bernoulli_2nd_poly(n).shift(-1)
    return sk.poly_closed(n, 1), seq.bernoulli_high_order_poly(n, n)


@_identity("k0-reduction", "C_n^(0)(x) = (x-1)_n", "Equation (3) at k = 0", _N0)
def _k0_reduction(n):
    return sk.poly_closed(n, 0), seq.falling_factorial_poly(n).shift(-1)


@_identity("eq34.addition", "C_n^(k)(x+y) = sum_j C(n,j) C_j^(k)(x) (y)_{n-j}",
           "Equation (34)", _N0, _K, _Y)
def _addition(n, k, y):
    return sk.poly_closed(n, k).shift(y), sk.addition_rhs(n, k, y)


@_identity("difference", "C_n^(k)(x+1) - C_n^(k)(x) = n C_{n-1}^(k)(x)",
           "display after Equation (34)", _N1, _K)
def _difference(n, k):
    return sk.difference_sides(n, k)


@_identity("thm2.recurrence", "C_{n+1}^(k)(x) = x C_n^(k)(x-1)"
           " - sum_j {sum_l S1(n,l)(-1)^(l-j) C(l,j)/(l-j+2)^k} (x-1)^j", "Theorem 2", _N0, _K)
def _thm2(n, k):
    return sk.recurrence_theorem2_rhs(n, k), sk.poly_closed(n + 1, k)


@_identity("thm3.recurrence", "C_n^(k)(x) = x C_{n-1}^(k)(x-1)"
           " + (1/n) sum_l C(n,l) B_l^{(l)}(1) {C_{n-l}^(k-1)(x-1) - C_{n-l}^(k)(x-1)}",
           "Theorem 3", _N1, _K)
def _thm3(n, k):
    return sk.recurrence_theorem3_rhs(n, k), sk.poly_closed(n, k)


@_identity("eq39.lif-derivative", "t Lif_k'(t) = Lif_{k-1}(t) - Lif_k(t)", "Equation (39)", _K)
def _lif_derivative(k):
    order = LIF_DERIVATIVE_ORDER
    lhs = seq.lif_series(k, order).derivative().multiply_by_t()
    return lhs, seq.lif_series(k - 1, order) - seq.lif_series(k, order)


@_identity("thm4.general", "sum_l m! C(n,l+m) S1(l+m,m) C_{n-l-m}^(k)"
           " = sum_l (m-1)! C(n-1,l+m-1) S1(l+m-1,m-1)"
           " {(m-1) C_{n-l-m}^(k)(-1) + C_{n-l-m}^(k-1)(-1)}", "Theorem 4", _N1, _M, _K)
def _thm4_general(n, m, k):
    return sk.theorem4_sides(n, m, k)


@_identity("thm4.m1-corrected",
           "C_{n-1}^(k-1)(-1) = sum_{l=0}^{n-1} (-1)^l l! C(n,l+1) C_{n-l-1}^(k)",
           "Theorem 4, m = 1 case with the left index corrected to n-1", _N1, _K)
def _thm4_m1(n, k):
    return sk.theorem4_m1_corrected_sides(n, k)


@_identity("eq47.derivative",
           "d/dx C_n^(k)(x) = (-1)^n n! sum_{l<n} (-1)^(l-1)/((n-l) l!) C_l^(k)(x)",
           "remark after Equation (47)", _N1, _K)
def _derivative(n, k):
    return sk.derivative_formula(n, k), sk.poly_closed(n, k).derivative()


@_identity("thm5.bernoulli-basis",
           "C_n^(k)(x) = sum_m C_{n,m} B_m^{(r)}(x), C_{n,m} the Stirling/weight double sum",
           "Theorem 5", _N0, _K, _R)
def _thm5_basis(n, k, r):
    return sk.connection_to_bernoulli(n, k, r).reconstruct(), sk.poly_closed(n, k)


_ROUTES = {route.value: route for route in sk.WeightRoute}


def _power_weights(cfg: GridConfig, r: int) -> list[Fraction]:
    """a! [t^a] (t/log(1+t))^r for a = 0..n_max, from one power of the series."""
    power = seq.t_over_log1p_series(cfg.n_max + 1) ** r
    return [power.sequence_value(a) for a in range(cfg.n_max + 1)]


@_identity("thm5.weights-3way", "B_a^{(a-r+1)}(1) = N_a^{(-r)}(0)"
           " = multinomial convolution of b-numbers = a![t^a](t/log(1+t))^r",
           "Equations (50), (52) and (54)",
           _R, (None, lambda cfg, r: [_power_weights(cfg, r)]),
           ("a", lambda cfg, *_: range(cfg.n_max + 1)), ("route", lambda cfg, *_: _ROUTES))
def _thm5_weights(r, weights, a, route):
    return sk.bernoulli2nd_power_weight(a, r, _ROUTES[route]), weights[a]


@_identity("thm6.frobenius-basis", "C_n^(k)(x) = sum_m C_{n,m} H_m^{(r)}(x|lambda)",
           "Theorem 6", _N0, _K, _R, _LAMBDA)
def _thm6_basis(n, k, r, lam):
    return sk.connection_to_frobenius(n, k, r, lam).reconstruct(), sk.poly_closed(n, k)


@_identity("thm7.falling-basis", "C_n^(k)(x) = sum_m C(n,m) C_{n-m}^(k) (x)_m",
           "Theorem 7", _N0, _K)
def _thm7_basis(n, k):
    return sk.connection_to_falling(n, k).reconstruct(), sk.poly_closed(n, k)


@_identity("stirling.eq6", "(x)_n = sum_l S1(n,l) x^l", "Equation (6)", _N0)
def _stirling_eq6(n):
    return Polynomial(seq.stirling1(n, l) for l in range(n + 1)), seq.falling_factorial_poly(n)


def _log1p_powers(cfg: GridConfig) -> list[TruncatedSeries]:
    """log(1+t)^m for m = 0..``STIRLING_GF_MAX_POWER``, each from the last."""
    base = log1p_series(cfg.n_max + 1)
    return list(accumulate([base] * STIRLING_GF_MAX_POWER, mul, initial=base**0))


@_identity("stirling.eq7", "n! [t^n] (log(1+t))^m / m! = S1(n,m)", "Equation (7)",
           (None, lambda cfg: [_log1p_powers(cfg)]), _N0,
           ("m", lambda cfg, *_: range(STIRLING_GF_MAX_POWER + 1)))
def _stirling_eq7(powers, n, m):
    return powers[m].sequence_value(n) / factorial(m), seq.stirling1(n, m)


@_identity("narumi.eq52", "N_n^{(a)}(x) = B_n^{(n+a+1)}(x+1)",
           "remark after Equation (51), indices read as swapped",
           _N0, ("a", lambda cfg, *_: range(-cfg.r_range[1], cfg.r_range[1] + 1)))
def _narumi(n, a):
    return seq.narumi_poly(n, a), seq.bernoulli_high_order_poly(n, n + a + 1).shift(1)


def catalog() -> tuple[IdentityInfo, ...]:
    """All verifiable identities, in catalog order."""
    return tuple(info for info, _ in _IDENTITIES.values())


def catalog_ids() -> tuple[str, ...]:
    return tuple(_IDENTITIES)


def _evaluated(identity: str, cfg: GridConfig, share: tuple[int, int]) -> Iterator[Check]:
    """The checks of one identity in ``share`` of ``cfg``, in canonical order."""
    info, evaluate = _IDENTITIES[identity]
    try:
        for values, lhs, rhs in evaluate(cfg, share):
            params = tuple(zip(info.params, values, strict=True))
            yield _check(identity, params, lhs, rhs)
    except InsufficientOrderError as exc:
        raise GridConfigError(
            f"identity {identity} needs truncation order >= {exc.required}, "
            f"got {exc.order}"
        ) from exc


def _grid_point(check: Check) -> tuple:
    return tuple(value for _, value in check.params)


def _checks(cfg: GridConfig) -> Iterator[Check]:
    """Evaluate the selected identities at every grid point of ``cfg``,
    yielding each check as it is made, in canonical order.

    With W usable CPUs, a forked child makes share (i, W) of every identity
    (``workers.Forked``, which forks nothing for one share), and the shares
    of each identity are merged back by grid point: each is a subsequence of
    the increasing points, so the merge gives the one-worker order.  Every
    child is killed, if still running, and reaped when the generator ends,
    raises or is closed."""
    import heapq

    from .workers import Forked, usable

    selected = cfg.identities if cfg.identities is not None else sorted(catalog_ids())
    count = usable()

    def sections(share: tuple[int, int]):
        return (_evaluated(identity, cfg, share) for identity in selected)

    with Forked([(index, count) for index in range(count)], sections, _RUN) as children:
        for identity in selected:
            own = (_evaluated(identity, cfg, share) for share in children.unforked)
            yield from heapq.merge(*own, *children.next_section(), key=_grid_point)


# A sink encodes the rows of each run before the next run is made.  Making a
# check and encoding its row in turn at every check ran about 3% slower on
# the default grid than runs of 64, which peak about 0.2 MB higher.
_RUN = 64


class _Stream:
    """The checks of ``cfg``, for a sink that writes them as they come.
    Iterating makes them in canonical order, in runs of ``_RUN``, and keeps
    only what the text report and the exit code need: the check count per
    identity and the failing checks."""

    def __init__(self, cfg: GridConfig):
        self._made = _checks(cfg)
        self.counts: Counter[str] = Counter()
        self.failures: list[Check] = []

    def __iter__(self) -> Iterator[Check]:
        while run := tuple(islice(self._made, _RUN)):
            for check in run:
                self.counts[check.identity] += 1
                if not check.passed:
                    self.failures.append(check)
            yield from run

    def text(self) -> str:
        """Make the remaining checks and return the text report."""
        for _ in self:
            pass
        return _summary_text(self.counts, self.failures)

    def close(self) -> None:
        """Stop making checks; any worker process is ended and reaped."""
        self._made.close()


def run_suite(config: GridConfig | None = None) -> VerificationReport:
    """Evaluate the selected identities at every grid point of ``config``."""
    cfg = config if config is not None else GridConfig()
    return VerificationReport(config=cfg, checks=tuple(_checks(cfg)))
