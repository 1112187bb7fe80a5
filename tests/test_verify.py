import json
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from polycauchy import second_kind as sk
from polycauchy.poly import Polynomial
from polycauchy.verify import (
    GridConfig,
    GridConfigError,
    _checks,
    catalog,
    catalog_ids,
    run_suite,
)

SMALL = GridConfig(
    n_max=3,
    k_range=(-1, 1),
    r_range=(0, 1),
    lambdas=(F(-1), F(2)),
    y_values=(F(0), F(1, 2)),
)


def test_catalog_has_nineteen_entries():
    assert len(catalog()) == 19


def test_catalog_ids_unique():
    ids = catalog_ids()
    assert len(set(ids)) == len(ids)


def test_catalog_entries_are_complete():
    for info in catalog():
        assert info.id
        assert info.statement
        assert info.location
        assert info.params


def test_catalog_expected_ids():
    assert set(catalog_ids()) == {
        "thm1.coeff",
        "thm1.numbers",
        "eq5.k1-reduction",
        "k0-reduction",
        "eq34.addition",
        "difference",
        "thm2.recurrence",
        "thm3.recurrence",
        "eq39.lif-derivative",
        "thm4.general",
        "thm4.m1-corrected",
        "eq47.derivative",
        "thm5.bernoulli-basis",
        "thm5.weights-3way",
        "thm6.frobenius-basis",
        "thm7.falling-basis",
        "stirling.eq6",
        "stirling.eq7",
        "narumi.eq52",
    }


def test_small_grid_passes_and_covers_catalog():
    report = run_suite(SMALL)
    assert report.failure_count == 0
    assert {c.identity for c in report.checks} == set(catalog_ids())
    declared = {info.id: info.params for info in catalog()}
    for check in report.checks:
        assert tuple(name for name, _ in check.params) == declared[check.identity]


def test_identity_filter_and_check_count():
    config = GridConfig(n_max=1, identities=("thm7.falling-basis",))
    report = run_suite(config)
    assert {c.identity for c in report.checks} == {"thm7.falling-basis"}
    # n in {0, 1} times the default seven k values
    assert report.total == 2 * 7
    assert report.failure_count == 0


def test_reports_are_deterministic():
    a = run_suite(SMALL)
    b = run_suite(SMALL)
    assert a.rows() == b.rows()
    assert a.to_text() == b.to_text()


def _canonical(check):
    values = tuple((1, v) if isinstance(v, str) else (0, F(v)) for _, v in check.params)
    return (check.identity, values)


@pytest.mark.parametrize("identity", sorted(catalog_ids()))
def test_evaluator_yields_in_canonical_order(identity):
    # Reports are written as they are produced, never sorted, so each
    # evaluator must yield its points in order whatever order the grid lists
    # its values in.
    config = GridConfig(
        n_max=3,
        k_range=(-1, 1),
        r_range=(0, 2),
        lambdas=(F(2), F(-1, 3), F(-1), F(1, 2)),
        y_values=(F(1), F(-2), F(1, 2), F(0)),
        identities=(identity,),
    )
    keys = [_canonical(check) for check in _checks(config)]
    assert keys
    assert all(a < b for a, b in zip(keys, keys[1:]))


def test_checks_are_canonically_ordered():
    # The grid lists y = 1 before y = 1/2; the report puts 1/2 first.
    report = run_suite(GridConfig(n_max=2, k_range=(-1, 1), y_values=(F(1), F(1, 2))))
    ys = [dict(c.params)["y"] for c in report.checks if c.identity == "eq34.addition"]
    assert ys[:2] == [F(1, 2), F(1)]
    assert list(report.checks) == sorted(report.checks, key=_canonical)


def test_rows_schema():
    report = run_suite(GridConfig(n_max=2, identities=("difference",)))
    for row in report.rows():
        assert row["status"] == "pass"
        assert set(row) == {"identity", "params", "status"}
        assert set(row["params"]) == {"n", "k"}
    json.loads(json.dumps(report.rows()))


def test_text_summary_line():
    report = run_suite(SMALL)
    assert report.to_text().splitlines()[-1] == f"checks: {report.total}, failures: 0"


def test_fault_injection_is_reported_not_raised(monkeypatch):
    # Flip the sign of one coefficient of the closed form; the suite must
    # keep running, flag the mismatches and serialize both sides exactly.
    true_poly = sk.poly_closed

    def perturbed(n, k):
        p = true_poly(n, k)
        if n == 2:
            coeffs = list(p.coeffs)
            coeffs[0] = -coeffs[0]
            return Polynomial(coeffs)
        return p

    monkeypatch.setattr(sk, "poly_closed", perturbed)
    report = run_suite(
        GridConfig(n_max=2, k_range=(1, 1), identities=("thm2.recurrence", "difference"))
    )
    # n in {0,1,2} for the recurrence plus n in {1,2} for the difference
    assert report.total == 5
    # the flipped constant is invisible to the telescoping difference but not
    # to the recurrence, whose n in {1,2} points both break
    assert report.failure_count == 2
    failures = report.failures()
    assert {c.identity for c in failures} == {"thm2.recurrence"}
    for check in failures:
        assert check.lhs is not None and check.rhs is not None
        assert check.lhs != check.rhs
    # the run still covered every requested identity
    assert {c.identity for c in report.checks} == {"thm2.recurrence", "difference"}


@pytest.mark.usefixtures("fresh_number_row")
def test_fault_injection_text_prints_both_sides(monkeypatch):
    true_number = sk.number_closed
    monkeypatch.setattr(
        sk, "number_closed", lambda n, k: true_number(n, k) + (1 if n == 1 else 0)
    )
    # n = 2 is the smallest point whose sum touches the perturbed value
    report = run_suite(GridConfig(n_max=2, k_range=(1, 1), identities=("thm4.m1-corrected",)))
    assert report.failure_count == 1
    text = report.to_text()
    assert "FAIL thm4.m1-corrected" in text
    assert "lhs =" in text and "rhs =" in text


def test_m1_corrected_is_checked_apart_from_the_general_contraction(monkeypatch):
    # A wrong Theorem 4 fails thm4.general at every point, m = 1 included,
    # and leaves the corrected m = 1 case, computed as it reads, passing.
    monkeypatch.setattr(sk, "theorem4_sides", lambda n, m, k: (F(0), F(1)))
    report = run_suite(GridConfig(n_max=4, k_range=(-2, 2),
                                  identities=("thm4.general", "thm4.m1-corrected")))
    checks = {ident: [c for c in report.checks if c.identity == ident]
              for ident in ("thm4.general", "thm4.m1-corrected")}
    assert checks["thm4.general"] and not any(c.passed for c in checks["thm4.general"])
    assert checks["thm4.m1-corrected"] and all(c.passed for c in checks["thm4.m1-corrected"])


def test_readme_lists_the_catalog_ids_in_catalog_order():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("The catalog ids", 1)[1].split("```", 2)[1]
    assert tuple(block.split()) == catalog_ids()


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_max": 0},
        {"k_range": (2, -2)},
        {"r_range": (-1, 2)},
        {"r_range": (3, 1)},
        {"lambdas": (F(1),)},
        {"identities": ("no-such-identity",)},
        {"n_max": 64},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(GridConfigError):
        GridConfig(**kwargs)


def test_unknown_identity_message():
    with pytest.raises(GridConfigError, match="no-such"):
        GridConfig(identities=("no-such",))


def test_empty_identity_selection_is_refused():
    # A run over no identities would report 0 checks and 0 failures: a pass
    # that checked nothing.  None, not (), selects the whole catalog.
    with pytest.raises(GridConfigError, match="identity selection is empty"):
        GridConfig(identities=())


def test_a_k_whose_c1_cannot_print_is_refused_from_its_size():
    # C_1^(k) = -2^(-k) has more than 640 digits exactly from |k| = T, the
    # bit length of 10^640; the larger |k| of the range decides.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        t = (10**640).bit_length()
        assert len(str(2 ** (t - 1))) == 640
        for k_range in [(0, t - 1), (-(t - 1), 3)]:
            GridConfig(k_range=k_range)
        for k_range in [(0, t), (-t, 3), (t, t + 5)]:
            with pytest.raises(GridConfigError, match="too large"):
                GridConfig(k_range=k_range)
        sys.set_int_max_str_digits(0)
        GridConfig(k_range=(10**11, 10**11))
    finally:
        sys.set_int_max_str_digits(limit)
