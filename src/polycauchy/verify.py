"""Executable identity suites over a parameter grid, with exact reports.

Every identity in the catalog is evaluated as a structural equality of
canonical values (rationals, polynomials or series) over a configured grid;
there are no tolerances.  Failures never abort a run: the whole grid is
evaluated so a wrong formula shows up as a pattern of failing parameter
points.  Reports are deterministic: checks are ordered by identity id and
then by parameter tuple, and two runs with the same configuration serialize
to identical bytes (timestamps, if wanted, belong in separate metadata).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from typing import Callable, Iterator

from . import second_kind as sk
from . import sequences as seq
from .exact import format_rational
from .poly import Polynomial, falling_factorial_poly
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


class GridConfigError(ValueError):
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
    whole catalog."""

    n_max: int = 12
    k_range: tuple[int, int] = (-3, 3)
    r_range: tuple[int, int] = (0, 4)
    lambdas: tuple[Fraction, ...] = DEFAULT_LAMBDAS
    y_values: tuple[Fraction, ...] = DEFAULT_Y_VALUES
    identities: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.n_max < 1:
            raise GridConfigError("n_max must be at least 1")
        if self.k_range[0] > self.k_range[1]:
            raise GridConfigError("k range is empty")
        if self.r_range[0] > self.r_range[1] or self.r_range[0] < 0:
            raise GridConfigError("r range must be a non-empty range of non-negative integers")
        object.__setattr__(self, "lambdas", tuple(Fraction(v) for v in self.lambdas))
        object.__setattr__(self, "y_values", tuple(Fraction(v) for v in self.y_values))
        if any(v == 1 for v in self.lambdas):
            raise GridConfigError("Frobenius-Euler parameter must differ from 1")
        if self.identities is not None:
            unknown = set(self.identities) - set(catalog_ids())
            if unknown:
                raise GridConfigError(f"unknown identities: {sorted(unknown)}")

    @property
    def ks(self) -> range:
        return range(self.k_range[0], self.k_range[1] + 1)

    @property
    def rs(self) -> range:
        return range(self.r_range[0], self.r_range[1] + 1)


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
    if isinstance(value, Polynomial):
        return tuple(format_rational(c) for c in value.coeffs)
    if isinstance(value, TruncatedSeries):
        return tuple(format_rational(c) for c in value.coeffs)
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
        lines = []
        per_identity: dict[str, list[Check]] = {}
        for c in self.checks:
            per_identity.setdefault(c.identity, []).append(c)
        width = max((len(i) for i in per_identity), default=8)
        for ident in sorted(per_identity):
            group = per_identity[ident]
            bad = sum(1 for c in group if not c.passed)
            lines.append(f"{ident:<{width}}  checks: {len(group):>5}  failures: {bad}")
        for c in self.failures():
            params = ", ".join(f"{name}={_json_value(value)}" for name, value in c.params)
            lines.append(f"FAIL {c.identity} [{params}]")
            lines.append(f"  lhs = {c.lhs}")
            lines.append(f"  rhs = {c.rhs}")
        lines.append(f"checks: {self.total}, failures: {self.failure_count}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Identity evaluators

Evaluator = Callable[[GridConfig], Iterator[Check]]


def _eval_thm1_coeff(cfg: GridConfig) -> Iterator[Check]:
    for n in range(1, cfg.n_max + 1):
        for j in range(1, n + 1):
            for k in cfg.ks:
                yield _check(
                    "thm1.coeff",
                    (("n", n), ("j", j), ("k", k)),
                    sk.closed_coefficient(n, j, k),
                    sk.theorem1_rhs_coefficient(n, j, k),
                )


def _eval_thm1_numbers(cfg: GridConfig) -> Iterator[Check]:
    for n in range(1, cfg.n_max + 1):
        for k in cfg.ks:
            yield _check(
                "thm1.numbers",
                (("n", n), ("k", k)),
                sk.number_closed(n, k),
                sk.number_bernoulli_form(n, k),
            )


def _eval_k1_reduction(cfg: GridConfig) -> Iterator[Check]:
    for n in range(cfg.n_max + 1):
        lhs = sk.poly_closed(n, 1)
        yield _check(
            "eq5.k1-reduction",
            (("n", n), ("form", "bernoulli2-shift")),
            lhs,
            seq.bernoulli_2nd_poly(n).shift(-1),
        )
        yield _check(
            "eq5.k1-reduction",
            (("n", n), ("form", "high-order-bernoulli")),
            lhs,
            seq.bernoulli_high_order_poly(n, n),
        )


def _eval_k0_reduction(cfg: GridConfig) -> Iterator[Check]:
    for n in range(cfg.n_max + 1):
        yield _check(
            "k0-reduction",
            (("n", n),),
            sk.poly_closed(n, 0),
            falling_factorial_poly(n).shift(-1),
        )


def _eval_addition(cfg: GridConfig) -> Iterator[Check]:
    for n in range(cfg.n_max + 1):
        for k in cfg.ks:
            shifted_source = sk.poly_closed(n, k)
            for y in cfg.y_values:
                yield _check(
                    "eq34.addition",
                    (("n", n), ("k", k), ("y", y)),
                    shifted_source.shift(y),
                    sk.addition_rhs(n, k, y),
                )


def _eval_difference(cfg: GridConfig) -> Iterator[Check]:
    for n in range(1, cfg.n_max + 1):
        for k in cfg.ks:
            lhs, rhs = sk.difference_sides(n, k)
            yield _check("difference", (("n", n), ("k", k)), lhs, rhs)


def _eval_thm2(cfg: GridConfig) -> Iterator[Check]:
    for n in range(cfg.n_max + 1):
        for k in cfg.ks:
            yield _check(
                "thm2.recurrence",
                (("n", n), ("k", k)),
                sk.recurrence_theorem2_rhs(n, k),
                sk.poly_closed(n + 1, k),
            )


def _eval_thm3(cfg: GridConfig) -> Iterator[Check]:
    for n in range(1, cfg.n_max + 1):
        for k in cfg.ks:
            yield _check(
                "thm3.recurrence",
                (("n", n), ("k", k)),
                sk.recurrence_theorem3_rhs(n, k),
                sk.poly_closed(n, k),
            )


def _eval_lif_derivative(cfg: GridConfig) -> Iterator[Check]:
    order = LIF_DERIVATIVE_ORDER
    for k in cfg.ks:
        lhs = seq.lif_series(k, order).derivative().multiply_by_t()
        rhs = seq.lif_series(k - 1, order) - seq.lif_series(k, order)
        yield _check("eq39.lif-derivative", (("k", k),), lhs, rhs)


def _eval_thm4_general(cfg: GridConfig) -> Iterator[Check]:
    for n in range(1, cfg.n_max + 1):
        for m in range(1, n + 1):
            for k in cfg.ks:
                lhs, rhs = sk.theorem4_sides(n, m, k)
                yield _check("thm4.general", (("n", n), ("m", m), ("k", k)), lhs, rhs)


def _eval_thm4_m1(cfg: GridConfig) -> Iterator[Check]:
    for n in range(1, cfg.n_max + 1):
        for k in cfg.ks:
            lhs, rhs = sk.theorem4_m1_corrected_sides(n, k)
            yield _check("thm4.m1-corrected", (("n", n), ("k", k)), lhs, rhs)


def _eval_derivative(cfg: GridConfig) -> Iterator[Check]:
    for n in range(1, cfg.n_max + 1):
        for k in cfg.ks:
            yield _check(
                "eq47.derivative",
                (("n", n), ("k", k)),
                sk.derivative_formula(n, k),
                sk.poly_closed(n, k).derivative(),
            )


def _eval_thm5_basis(cfg: GridConfig) -> Iterator[Check]:
    for n in range(cfg.n_max + 1):
        for k in cfg.ks:
            for r in cfg.rs:
                matrix = sk.connection_to_bernoulli(n, k, r)
                yield _check(
                    "thm5.bernoulli-basis",
                    (("n", n), ("k", k), ("r", r)),
                    matrix.reconstruct(),
                    sk.poly_closed(n, k),
                )


def _eval_thm5_weights(cfg: GridConfig) -> Iterator[Check]:
    for r in cfg.rs:
        power = seq.t_over_log1p_series(cfg.n_max + 1) ** r
        for a in range(cfg.n_max + 1):
            oracle = power.sequence_value(a)
            for route in sk.WeightRoute:
                yield _check(
                    "thm5.weights-3way",
                    (("r", r), ("a", a), ("route", route.value)),
                    sk.bernoulli2nd_power_weight(a, r, route),
                    oracle,
                )


def _eval_thm6_basis(cfg: GridConfig) -> Iterator[Check]:
    for n in range(cfg.n_max + 1):
        for k in cfg.ks:
            for r in cfg.rs:
                for lam in cfg.lambdas:
                    matrix = sk.connection_to_frobenius(n, k, r, lam)
                    yield _check(
                        "thm6.frobenius-basis",
                        (("n", n), ("k", k), ("r", r), ("lambda", lam)),
                        matrix.reconstruct(),
                        sk.poly_closed(n, k),
                    )


def _eval_thm7_basis(cfg: GridConfig) -> Iterator[Check]:
    for n in range(cfg.n_max + 1):
        for k in cfg.ks:
            yield _check(
                "thm7.falling-basis",
                (("n", n), ("k", k)),
                sk.connection_to_falling(n, k).reconstruct(),
                sk.poly_closed(n, k),
            )


def _eval_stirling_eq6(cfg: GridConfig) -> Iterator[Check]:
    for n in range(cfg.n_max + 1):
        lhs = Polynomial(seq.stirling1(n, l) for l in range(n + 1))
        yield _check("stirling.eq6", (("n", n),), lhs, falling_factorial_poly(n))


def _eval_stirling_eq7(cfg: GridConfig) -> Iterator[Check]:
    base = log1p_series(cfg.n_max + 1)
    power = base**0
    for m in range(STIRLING_GF_MAX_POWER + 1):
        if m:
            power = power * base
        scale = Fraction(1, factorial(m))
        for n in range(cfg.n_max + 1):
            lhs = power.sequence_value(n) * scale
            yield _check(
                "stirling.eq7",
                (("n", n), ("m", m)),
                lhs,
                Fraction(seq.stirling1(n, m)),
            )


def _eval_narumi(cfg: GridConfig) -> Iterator[Check]:
    spread = cfg.r_range[1]
    for n in range(cfg.n_max + 1):
        for a in range(-spread, spread + 1):
            yield _check(
                "narumi.eq52",
                (("n", n), ("a", a)),
                seq.narumi_poly(n, a),
                seq.bernoulli_high_order_poly(n, n + a + 1).shift(1),
            )


_CATALOG: tuple[tuple[IdentityInfo, Evaluator], ...] = (
    (
        IdentityInfo(
            "thm1.coeff",
            "sum_{m=j}^{n} (-1)^(m-j) C(m,j) S1(n,m)/(m-j+1)^k"
            " = sum_{l=j-1}^{n-1} (-1)^(l+1-j) C(n-1,l) C(l+1,j) B_{n-1-l}^{(n)}/(l+2-j)^k",
            "Theorem 1",
            ("n", "j", "k"),
        ),
        _eval_thm1_coeff,
    ),
    (
        IdentityInfo(
            "thm1.numbers",
            "C_n^(k) = sum_m S1(n,m)(-1)^m/(m+1)^k"
            " = sum_l (-1)^(l+1) C(n-1,l) B_{n-1-l}^{(n)}/(l+2)^k",
            "Theorem 1",
            ("n", "k"),
        ),
        _eval_thm1_numbers,
    ),
    (
        IdentityInfo(
            "eq5.k1-reduction",
            "C_n^(1)(x) = b_n(x-1) = B_n^{(n)}(x)",
            "Equation (5)",
            ("n", "form"),
        ),
        _eval_k1_reduction,
    ),
    (
        IdentityInfo(
            "k0-reduction",
            "C_n^(0)(x) = (x-1)_n",
            "Equation (3) at k = 0",
            ("n",),
        ),
        _eval_k0_reduction,
    ),
    (
        IdentityInfo(
            "eq34.addition",
            "C_n^(k)(x+y) = sum_j C(n,j) C_j^(k)(x) (y)_{n-j}",
            "Equation (34)",
            ("n", "k", "y"),
        ),
        _eval_addition,
    ),
    (
        IdentityInfo(
            "difference",
            "C_n^(k)(x+1) - C_n^(k)(x) = n C_{n-1}^(k)(x)",
            "display after Equation (34)",
            ("n", "k"),
        ),
        _eval_difference,
    ),
    (
        IdentityInfo(
            "thm2.recurrence",
            "C_{n+1}^(k)(x) = x C_n^(k)(x-1)"
            " - sum_j {sum_l S1(n,l)(-1)^(l-j) C(l,j)/(l-j+2)^k} (x-1)^j",
            "Theorem 2",
            ("n", "k"),
        ),
        _eval_thm2,
    ),
    (
        IdentityInfo(
            "thm3.recurrence",
            "C_n^(k)(x) = x C_{n-1}^(k)(x-1)"
            " + (1/n) sum_l C(n,l) B_l^{(l)}(1) {C_{n-l}^(k-1)(x-1) - C_{n-l}^(k)(x-1)}",
            "Theorem 3",
            ("n", "k"),
        ),
        _eval_thm3,
    ),
    (
        IdentityInfo(
            "eq39.lif-derivative",
            "t Lif_k'(t) = Lif_{k-1}(t) - Lif_k(t)",
            "Equation (39)",
            ("k",),
        ),
        _eval_lif_derivative,
    ),
    (
        IdentityInfo(
            "thm4.general",
            "sum_l m! C(n,l+m) S1(l+m,m) C_{n-l-m}^(k)"
            " = sum_l (m-1)! C(n-1,l+m-1) S1(l+m-1,m-1)"
            " {(m-1) C_{n-l-m}^(k)(-1) + C_{n-l-m}^(k-1)(-1)}",
            "Theorem 4",
            ("n", "m", "k"),
        ),
        _eval_thm4_general,
    ),
    (
        IdentityInfo(
            "thm4.m1-corrected",
            "C_{n-1}^(k-1)(-1) = sum_{l=0}^{n-1} (-1)^l l! C(n,l+1) C_{n-l-1}^(k)",
            "Theorem 4, m = 1 case with the left index corrected to n-1",
            ("n", "k"),
        ),
        _eval_thm4_m1,
    ),
    (
        IdentityInfo(
            "eq47.derivative",
            "d/dx C_n^(k)(x) = (-1)^n n! sum_{l<n} (-1)^(l-1)/((n-l) l!) C_l^(k)(x)",
            "remark after Equation (47)",
            ("n", "k"),
        ),
        _eval_derivative,
    ),
    (
        IdentityInfo(
            "thm5.bernoulli-basis",
            "C_n^(k)(x) = sum_m C_{n,m} B_m^{(r)}(x), C_{n,m} the Stirling/weight double sum",
            "Theorem 5",
            ("n", "k", "r"),
        ),
        _eval_thm5_basis,
    ),
    (
        IdentityInfo(
            "thm5.weights-3way",
            "B_a^{(a-r+1)}(1) = N_a^{(-r)}(0) = multinomial convolution of b-numbers"
            " = a![t^a](t/log(1+t))^r",
            "Equations (50), (52) and (54)",
            ("r", "a", "route"),
        ),
        _eval_thm5_weights,
    ),
    (
        IdentityInfo(
            "thm6.frobenius-basis",
            "C_n^(k)(x) = sum_m C_{n,m} H_m^{(r)}(x|lambda)",
            "Theorem 6",
            ("n", "k", "r", "lambda"),
        ),
        _eval_thm6_basis,
    ),
    (
        IdentityInfo(
            "thm7.falling-basis",
            "C_n^(k)(x) = sum_m C(n,m) C_{n-m}^(k) (x)_m",
            "Theorem 7",
            ("n", "k"),
        ),
        _eval_thm7_basis,
    ),
    (
        IdentityInfo(
            "stirling.eq6",
            "(x)_n = sum_l S1(n,l) x^l",
            "Equation (6)",
            ("n",),
        ),
        _eval_stirling_eq6,
    ),
    (
        IdentityInfo(
            "stirling.eq7",
            "n! [t^n] (log(1+t))^m / m! = S1(n,m)",
            "Equation (7)",
            ("n", "m"),
        ),
        _eval_stirling_eq7,
    ),
    (
        IdentityInfo(
            "narumi.eq52",
            "N_n^{(a)}(x) = B_n^{(n+a+1)}(x+1)",
            "remark after Equation (51), indices read as swapped",
            ("n", "a"),
        ),
        _eval_narumi,
    ),
)


def catalog() -> tuple[IdentityInfo, ...]:
    """All verifiable identities, in catalog order."""
    return tuple(info for info, _ in _CATALOG)


def catalog_ids() -> tuple[str, ...]:
    return tuple(info.id for info, _ in _CATALOG)


_EVALUATORS: dict[str, Evaluator] = {info.id: fn for info, fn in _CATALOG}


def _param_key(value: int | Fraction | str):
    if isinstance(value, str):
        return (1, value)
    return (0, Fraction(value))


def _check_key(check: Check):
    return (check.identity, tuple(_param_key(v) for _, v in check.params))


def run_suite(config: GridConfig | None = None) -> VerificationReport:
    """Evaluate the selected identities at every grid point of ``config``."""
    cfg = config if config is not None else GridConfig()
    selected = cfg.identities if cfg.identities is not None else catalog_ids()
    checks: list[Check] = []
    for identity in sorted(set(selected)):
        try:
            checks.extend(_EVALUATORS[identity](cfg))
        except InsufficientOrderError as exc:
            raise GridConfigError(
                f"identity {identity} needs truncation order >= {exc.required}, "
                f"got {exc.order}"
            ) from exc
    checks.sort(key=_check_key)
    return VerificationReport(config=cfg, checks=tuple(checks))
