"""Acceptance gate: every criterion at its stated grid, exact equality only.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them on
passing runs).  Grids and runtime bounds are pinned here and nowhere else;
all golden values are cross-checked against the series oracle in the same
test that freezes them.
"""

import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction as F
from pathlib import Path

import polycauchy
from polycauchy import second_kind as sk
from polycauchy import sequences as seq
from polycauchy.cli import main
from polycauchy.poly import X
from polycauchy.sequences import falling_factorial_poly
from polycauchy.series import exp_series
from polycauchy.verify import GridConfig, catalog_ids, run_suite

KS = range(-3, 4)


@contextmanager
def criterion(cid, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {cid} [{description}]: FAIL ({time.perf_counter() - start:.1f}s)")
        raise
    print(f"ACCEPTANCE {cid} [{description}]: PASS ({time.perf_counter() - start:.1f}s)")


def suite_passes(**kwargs):
    report = run_suite(GridConfig(**kwargs))
    assert report.failure_count == 0, report.to_text()
    return report


def test_criterion_1_dual_path_equality():
    with criterion("1", "dual-path equality, n <= 14, k in [-3,3]"):
        start = time.perf_counter()
        for k in KS:
            for n in range(15):
                assert sk.poly_closed(n, k) == sk.poly_oracle(n, k), (n, k)
                assert sk.number_closed(n, k) == sk.poly_oracle(n, k)(0), (n, k)
        assert time.perf_counter() - start < 10


def test_criterion_2_theorem1_both_statements():
    with criterion("2", "two-route coefficient and number sums, n <= 12"):
        suite_passes(n_max=12, identities=("thm1.coeff", "thm1.numbers"))
        # golden values, reproduced by the generating-function oracle first
        assert sk.poly_oracle(2, 1)(0) == F(5, 6)
        assert sk.poly_oracle(2, 2)(0) == F(13, 36)
        assert sk.number_closed(2, 1) == F(5, 6)
        assert sk.number_closed(2, 2) == F(13, 36)
        assert sk.number_bernoulli_form(2, 1) == F(5, 6)
        assert sk.number_bernoulli_form(2, 2) == F(13, 36)


def test_criterion_3_k1_reduction():
    with criterion("3", "k = 1 reduction to shifted Bernoulli-2nd / diagonal high-order"):
        suite_passes(n_max=12, identities=("eq5.k1-reduction",))
        golden = X**2 - 2 * X + F(5, 6)
        assert sk.poly_oracle(2, 1) == golden
        assert sk.poly_closed(2, 1) == golden
        assert seq.bernoulli_2nd_poly(2).shift(-1) == golden
        assert seq.bernoulli_high_order_poly(2, 2) == golden


def test_criterion_4_polynomial_identities():
    with criterion("4", "addition, difference, both recurrences, derivative; n <= 12"):
        start = time.perf_counter()
        suite_passes(
            n_max=12,
            identities=(
                "eq34.addition",
                "difference",
                "thm2.recurrence",
                "thm3.recurrence",
                "eq47.derivative",
            ),
        )
        assert time.perf_counter() - start < 30


def test_criterion_5_contraction_identity_and_errata():
    with criterion("5", "two-way contraction, corrected m=1 case, printed form fails"):
        suite_passes(n_max=12, identities=("thm4.general", "thm4.m1-corrected"))
        # the as-printed m=1 shortcut reads C_n^(k-1)(-1) on the left; at
        # n = 1 the sides are -1 - 2^(1-k) vs 1, so it is recorded as errata
        for k in KS:
            printed_lhs = sk.poly_closed(1, k - 1)(-1)
            _, rhs = sk.theorem4_m1_corrected_sides(1, k)
            assert rhs == 1
            assert printed_lhs == -1 - F(2) ** (1 - k)
            assert printed_lhs != rhs


def test_criterion_6_basis_expansions():
    with criterion("6", "three basis expansions reconstruct exactly, n <= 10"):
        suite_passes(
            n_max=10,
            identities=(
                "thm5.bernoulli-basis",
                "thm5.weights-3way",
                "thm6.frobenius-basis",
                "thm7.falling-basis",
            ),
        )
        # the three weight routes must agree entry-wise at matrix level too
        for n in range(11):
            for k in KS:
                for r in range(5):
                    reference = sk.connection_to_bernoulli(n, k, r)
                    for route in sk.WeightRoute:
                        assert sk.connection_to_bernoulli(n, k, r, route).entries == reference.entries


def test_criterion_7_lif_derivative_and_k0():
    with criterion("7", "polylog-factorial derivative identity and k = 0 reduction"):
        suite_passes(n_max=12, identities=("eq39.lif-derivative", "k0-reduction"))
        assert seq.lif_series(0, 16) == exp_series(16)
        for n in range(13):
            assert sk.poly_closed(n, 0) == falling_factorial_poly(n).shift(-1)


def test_criterion_8_stirling_infrastructure():
    with criterion("8", "Stirling recurrence vs polynomial and GF routes, n <= 14"):
        suite_passes(n_max=14, identities=("stirling.eq6", "stirling.eq7"))


def test_criterion_9_cli_conformance(capsys, tmp_path):
    with criterion("9", "CLI conformance and default verification grid"):
        def run(*argv):
            code = main(list(argv))
            out = capsys.readouterr().out
            return code, out

        # gen: documented examples, schema-valid in both machine formats
        code, out = run("gen", "polycauchy2-number", "--k", "1", "--n-max", "2", "--format", "csv")
        assert code == 0
        assert out.splitlines() == ['"n","value"', '0,"1/1"', '1,"-1/2"', '2,"5/6"']
        code, out = run("gen", "stirling1", "--n-max", "3", "--format", "csv")
        assert code == 0
        assert out.splitlines()[-1] == '3,"0/1 2/1 -3/1 1/1"'
        code, out = run("gen", "polycauchy2-poly", "--k", "0", "--n-max", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert {"command", "params", "rows"} <= set(payload)
        assert payload["rows"][2]["coefficients"] == ["2/1", "-3/1", "1/1"]

        # expand: documented examples
        code, out = run("expand", "--n", "1", "--k", "2", "--basis", "falling", "--format", "json")
        row = json.loads(out)["rows"][0]
        assert code == 0 and row["coefficients"] == ["-1/4", "1/1"] and row["check"] == "pass"
        code, out = run("expand", "--n", "0", "--k", "-3", "--basis", "bernoulli:2",
                        "--format", "json")
        row = json.loads(out)["rows"][0]
        assert code == 0 and row["coefficients"] == ["1/1"] and row["check"] == "pass"
        code, out = run("expand", "--n", "2", "--k", "1", "--basis", "frobenius:1:-1/1",
                        "--format", "json")
        row = json.loads(out)["rows"][0]
        assert code == 0 and row["check"] == "pass"

        # series: coefficients follow the defining formulas
        code, out = run("series", "lif:1", "--order", "2", "--format", "csv")
        assert code == 0
        assert out.splitlines()[1:] == ['0,"1/1"', '1,"1/2"', '2,"1/6"']
        code, out = run("series", "polycauchy-gf:1", "--order", "2", "--format", "csv")
        assert code == 0
        assert out.splitlines()[1:] == ['0,"1/1"', '1,"-1/2"', '2,"5/12"']
        code, out = run("series", "bernoulli2-gf", "--order", "0", "--format", "csv")
        assert code == 0
        assert out.splitlines()[1:] == ['0,"1/1"']

        # verify: filters, usage errors, and the full default grid
        code, out = run("verify", "--identity", "thm4.m1-corrected", "--n-max", "5")
        assert code == 0 and "failures: 0" in out.splitlines()[-1]
        code, _ = run("verify", "--n-max", "2", "--lambda", "1/1")
        assert code == 2

        # The child imports the same package as this process, installed or not.
        package_root = str(Path(polycauchy.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "polycauchy", "verify", "--format", "json"],
            capture_output=True,
            text=True,
            timeout=300,
            env=env,
        )
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
        payload = json.loads(proc.stdout)
        assert all(row["status"] == "pass" for row in payload["rows"])
        # every catalog identity is exercised by the default grid
        assert {row["identity"] for row in payload["rows"]} == set(catalog_ids())
        assert elapsed < 120
