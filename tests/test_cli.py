import argparse
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction as F
from math import comb, factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycauchy import second_kind as sk
from polycauchy import sequences as seq
from polycauchy import cli
from polycauchy.cli import main
from polycauchy.exact import UnprintableRationalError, format_rational, parse_rational
from polycauchy.poly import Polynomial
from polycauchy.verify import DEFAULT_LAMBDAS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


# ---------------------------------------------------------------------------
# gen

def test_gen_numbers_csv(capsys):
    code, out, _ = run_cli(capsys, "gen", "polycauchy2-number", "--k", "1", "--n-max", "2",
                           "--format", "csv")
    assert code == 0
    assert out.splitlines() == ['"n","value"', '0,"1/1"', '1,"-1/2"', '2,"5/6"']


@pytest.mark.parametrize("k", [-3, 0, 40])
def test_gen_numbers_read_one_number_row(capsys, monkeypatch, k):
    reads = []
    number_row = sk._number_row

    def counted(n, order):
        reads.append((n, order))
        return number_row(n, order)

    monkeypatch.setattr(sk, "_number_row", counted)
    monkeypatch.setattr(sk, "number_closed", None)
    code, out, _ = run_cli(capsys, "gen", "polycauchy2-number", "--k", str(k), "--n-max", "64",
                           "--format", "json")
    assert code == 0
    assert reads == [(64, k)]
    # Each number summed on its own, by the closed-polynomial kernel.
    assert [row["value"] for row in json.loads(out)["rows"]] == [
        format_rational(sk._stirling_sums(n, k, 1, 1).coefficient(0)) for n in range(65)]


def test_gen_stirling_triangle(capsys):
    code, out, _ = run_cli(capsys, "gen", "stirling1", "--n-max", "3", "--format", "csv")
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == ["n", "values"]
    assert rows[4] == ["3", "0/1 2/1 -3/1 1/1"]


@pytest.mark.parametrize("argv", [
    ("stirling1",), ("bernoulli2",), ("bernoulli-order", "--alpha", "3"), ("narumi", "--a", "-2"),
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_printing_a_gen_table_builds_no_fraction(capsys, monkeypatch, argv, fmt):
    # The first run fills the memos, so the second only reads and prints:
    # every value goes to text straight from its integer numerators.
    first = run_cli(capsys, "gen", *argv, "--n-max", "20", "--format", fmt)
    built = []
    original = F.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counted)
    assert run_cli(capsys, "gen", *argv, "--n-max", "20", "--format", fmt) == first
    assert first[0] == 0 and built == []


def test_gen_poly_json_k0(capsys):
    code, out, _ = run_cli(capsys, "gen", "polycauchy2-poly", "--k", "0", "--n-max", "2",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "gen"
    assert payload["params"] == {"sequence": "polycauchy2-poly", "n_max": 2, "k": 0}
    assert payload["rows"][2] == {"n": 2, "coefficients": ["2/1", "-3/1", "1/1"]}


def test_gen_json_round_trip(capsys):
    args = ("gen", "polycauchy2-poly", "--k", "2", "--n-max", "4", "--format", "json")
    _, first, _ = run_cli(capsys, *args)
    payload = json.loads(first)
    assert json.dumps(payload, indent=2) + "\n" == first
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_gen_other_families(capsys):
    code, out, _ = run_cli(capsys, "gen", "bernoulli2", "--n-max", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["rows"][2]["coefficients"] == ["-1/6", "0/1", "1/1"]
    code, out, _ = run_cli(capsys, "gen", "bernoulli-order", "--alpha", "2", "--n-max", "1",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["rows"][1]["coefficients"] == ["-1/1", "1/1"]
    code, out, _ = run_cli(capsys, "gen", "frobenius-euler", "--r", "1", "--lambda", "-1",
                           "--n-max", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["rows"][1]["coefficients"] == ["-1/2", "1/1"]
    code, out, _ = run_cli(capsys, "gen", "narumi", "--a", "3", "--n-max", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["rows"][1]["coefficients"] == ["-3/2", "1/1"]


def test_gen_missing_parameter(capsys):
    code, _, err = run_cli(capsys, "gen", "polycauchy2-number", "--n-max", "2")
    assert code == 2
    assert "--k" in err


@pytest.mark.parametrize("argv", [
    ("gen", "polycauchy2-number", "--k", "1", "--n-max", "70"),
    ("verify", "--n-max", "70", "--identity", "stirling.eq6"),
])
def test_table_limit_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: Stirling table capped at n_max=64")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, values", [
    (("gen", "polycauchy2-number", "--k", "1", "--n-max"), lambda rows: rows),
    (("expand", "--k", "1", "--basis", "falling", "--n"), lambda rows: rows[0]["coefficients"]),
    (("series", "lif:1", "--order"), lambda rows: rows),
], ids=["gen", "expand", "series"])
def test_size_flags_share_the_stirling_cap(capsys, monkeypatch, argv, values):
    code, out, _ = run_cli(capsys, *argv, "64", "--format", "json")
    assert code == 0
    assert len(values(json.loads(out)["rows"])) == 65
    # Beyond the cap the flag is refused before any value is computed.
    for name in ("number_closed", "_number_row", "connection", "gf_number_series"):
        monkeypatch.setattr(sk, name, None)
    monkeypatch.setattr(seq, "lif_series", None)
    for size in ("65", "2000"):
        code, out, err = run_cli(capsys, *argv, size)
        assert (code, out) == (2, "")
        assert err == f"error: Stirling table capped at n_max=64; {argv[-1]} must be at most 64\n"


@pytest.mark.parametrize("argv", [
    ("gen", "polycauchy2-number", "--k", "100000", "--n-max", "2"),
    ("expand", "--n", "3", "--k", "-100000", "--basis", "falling"),
], ids=["gen", "expand"])
def test_unprintable_rational_is_a_usage_error(capsys, argv):
    for fmt in ("text", "json", "csv"):
        code, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert (code, out) == (2, "")
        assert err.startswith("error: rational too large to print")
        assert "Traceback" not in err


def test_expand_refuses_an_unprintable_row_before_reconstructing_it(capsys, monkeypatch):
    # The falling row of C_2^(20000) holds 2^19999, 6021 digits long.
    def reconstruct(self):
        raise AssertionError("reconstructed a row that cannot be printed")

    monkeypatch.setattr(sk.ConnectionMatrix, "reconstruct", reconstruct)
    code, out, err = run_cli(capsys, "expand", "--n", "2", "--k", "20000", "--basis", "falling")
    assert (code, out) == (2, "")
    assert err.startswith("error: rational too large to print")


@pytest.mark.parametrize("argv", [
    ("gen", "polycauchy2-number", "--k", "100000", "--n-max", "1"),
    ("gen", "polycauchy2-poly", "--k", "-100000", "--n-max", "3"),
    ("series", "polycauchy-gf:100000", "--order", "16"),
    ("series", "lif:-100000", "--order", "1"),
    ("expand", "--n", "12", "--k", "100000", "--basis", "falling"),
    ("expand", "--n", "4", "--k", "100000", "--basis", "bernoulli:1"),
    ("expand", "--n", "4", "--k", "100000", "--basis", "frobenius:1:-1"),
    ("expand", "--n", "3", "--k", "-100000", "--basis", "frobenius:2:1/2"),
    ("series", "polycauchy-gf:6000", "--order", "16"),
    ("gen", "polycauchy2-number", "--k", "100000000000", "--n-max", "1"),
    ("series", "lif:-100000000000", "--order", "1"),
    ("expand", "--n", "4", "--k", "100000000000", "--basis", "falling"),
    ("expand", "--n", "64", "--k", "3000", "--basis", "falling"),
], ids=["gen-number", "gen-poly", "series-polycauchy-gf", "series-lif", "expand-falling",
        "expand-bernoulli", "expand-frobenius", "expand-frobenius-negative-k",
        "series-polycauchy-gf-last-coefficient", "gen-number-huge-k", "series-lif-huge-k",
        "expand-falling-huge-k", "expand-falling-first-entry"])
def test_unprintable_k_is_refused_before_any_row_is_built(capsys, monkeypatch, argv):
    # C_1^(k) = -2^(-k) is in each of these outputs, so its digits alone
    # decide the refusal; no row builder may run first.  At k = 6000 C_1
    # prints, and the series' last coefficient, in closed form, refuses.
    # At k = 3000 C_1 prints too, and entry 0 of the falling row, C_64^(k),
    # is refused from the bound on its reduced denominator.
    def builder(*args):
        raise AssertionError("built a row that cannot be printed")

    for name in ("number_closed", "_number_row", "poly_closed", "gf_number_series",
                 "connection"):
        monkeypatch.setattr(sk, name, builder)
    monkeypatch.setattr(seq, "lif_series", builder)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: rational too large to print")


EXPAND_SPECS = (
    ["falling"]
    + [f"bernoulli:{r}" for r in (0, 1, 4)]
    + [f"frobenius:{r}:{format_rational(lam)}" for r in (0, 1, 4) for lam in DEFAULT_LAMBDAS]
)
EXPAND_BASES = [cli._parse_basis_spec(spec) for spec in EXPAND_SPECS]


def _shift(n, basis):
    return comb(n, 2) + sk.basis_member(basis, n).coefficient(n - 1)


def _refused_early(n, k, basis):
    try:
        cli._refuse_unprintable_k(k, n, _shift(n, basis))
    except UnprintableRationalError:
        return True
    return False


def _row_unprintable(n, k, basis):
    try:
        [format_rational(c) for c in sk.connection(n, k, basis).entries]
    except UnprintableRationalError:
        return True
    return False


@pytest.mark.parametrize("basis", EXPAND_BASES, ids=EXPAND_SPECS)
def test_early_refusal_formats_entry_n_minus_1_of_the_row(basis):
    for n in range(1, 9):
        for k in range(-4, 5):
            expected = -(n * F(2) ** -k + _shift(n, basis))
            assert sk.connection(n, k, basis).entries[n - 1] == expected, (n, k)


def test_early_refusal_fires_only_on_an_unprintable_row():
    # 2^2126 has 640 digits, the least limit Python accepts.  The refused
    # value is entry n-1 of the row, so a refusal is never spurious; at
    # n = 1 the row is that entry and 1, so the two agree exactly.  For
    # n >= 2 the row also holds C_n^(k), whose denominator lcm(1..n+1)^k
    # outgrows 2^k, so the row can fail where the early check passes.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        fired = 0
        for k in [*range(2120, 2133), *range(-2132, -2119)]:
            for n in range(1, 5):
                for basis in EXPAND_BASES:
                    early, full = _refused_early(n, k, basis), _row_unprintable(n, k, basis)
                    assert full if early else not (n == 1 and full), (n, k, basis)
                    fired += early
    finally:
        sys.set_int_max_str_digits(limit)
    assert 0 < fired < 26 * 4 * len(EXPAND_BASES)


class _Formatted(Exception):
    pass


def _refused_from_sizes(k, times, shift):
    """Whether ``_refuse_unprintable_k`` refuses before it formats a value;
    the caller has made the CLI's ``format_rational`` raise ``_Formatted``."""
    try:
        cli._refuse_unprintable_k(k, times, shift)
    except UnprintableRationalError:
        return True
    except _Formatted:
        return False
    raise AssertionError("neither refused nor formatted")


def test_huge_k_is_refused_from_sizes_only_where_the_exact_rule_refuses(monkeypatch):
    # Around the margin, on both signs of k, for the values gen, series and
    # expand refuse by: 2^(-k) and n 2^(-k) + shift at n <= 12 for every basis.
    def formatted(value):
        raise _Formatted

    monkeypatch.setattr(cli, "format_rational", formatted)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        cases = [(1, F(0))] + [(n, F(_shift(n, b))) for n in range(1, 13) for b in EXPAND_BASES]
        fired = 0
        for times, shift in cases:
            margin = (10**640).bit_length() + times.bit_length() + 1 + (
                shift.numerator.bit_length() + shift.denominator.bit_length()
            )
            for k in [*range(margin - 3, margin + 2), *range(-margin - 1, -margin + 4)]:
                early = _refused_from_sizes(k, times, shift)
                assert early == (abs(k) >= margin), (k, times, shift)
                if early:
                    with pytest.raises(UnprintableRationalError):
                        format_rational(times * F(2) ** -k + shift)
                    fired += 1
    finally:
        sys.set_int_max_str_digits(limit)
    assert fired == 4 * len(cases)


def _gf_probe_refuses(n, k):
    try:
        format_rational(sk._stirling_sums(n, k, 1, 1).coefficient(0) / factorial(n))
    except UnprintableRationalError:
        return True
    return False


def test_gf_coefficient_bound_refuses_only_where_the_exact_probe_refuses():
    # The bound refuses C_n^(k)/n! from a divisor of its reduced denominator.
    # It is checked against the probe on a window around the least k it
    # refuses, for every order the CLI accepts.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for n in range(1, seq.DEFAULT_STIRLING_LIMIT + 1):
            first = None
            for k in range(-3, 2200):
                try:
                    cli._refuse_unprintable_gf_coefficient(n, k)
                except UnprintableRationalError:
                    first = k
                    break
            assert first is not None and first > 0, n
            for k in range(max(1, first - 8), first + 8):
                try:
                    cli._refuse_unprintable_gf_coefficient(n, k)
                except UnprintableRationalError:
                    assert _gf_probe_refuses(n, k), (n, k)
    finally:
        sys.set_int_max_str_digits(limit)


def test_wide_gf_coefficient_is_refused_before_the_probe(capsys, monkeypatch):
    # At the default limit the probe alone spends seconds on this order.
    def probe(*args):
        raise AssertionError("summed a coefficient that cannot be printed")

    monkeypatch.setattr(sk, "_stirling_sums", probe)
    code, out, err = run_cli(capsys, "series", "polycauchy-gf:14000", "--order", "64")
    assert (code, out) == (2, "")
    assert err.startswith("error: rational too large to print")


def _number_probe_refuses(n, k):
    try:
        format_rational(sk._stirling_sums(n, k, 1, 1).coefficient(0))
    except UnprintableRationalError:
        return True
    return False


def test_last_gen_number_bound_refuses_only_where_the_exact_probe_refuses():
    # Without the v_p(n!) term the bound refuses C_n^(k) itself, the entry
    # of the last row of gen polycauchy2-*, for every n the CLI accepts.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for n in range(1, seq.DEFAULT_STIRLING_LIMIT + 1):
            first = None
            for k in range(-3, 2200):
                try:
                    cli._refuse_unprintable_gf_coefficient(n, k, over_factorial=False)
                except UnprintableRationalError:
                    first = k
                    break
            assert first is not None and first > 0, n
            for k in range(max(1, first - 8), first + 8):
                try:
                    cli._refuse_unprintable_gf_coefficient(n, k, over_factorial=False)
                except UnprintableRationalError:
                    assert _number_probe_refuses(n, k), (n, k)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("over_factorial", [True, False], ids=["series", "gen"])
def test_negative_k_bound_refuses_only_where_the_exact_probe_refuses(over_factorial):
    # For k < 0 the bound is |C_n^(k)| >= (n+1)^|k|, over n! for the series.
    # It is checked against the probe on a window around the least |k| it
    # refuses, for every n the CLI accepts.
    probe_refuses = _gf_probe_refuses if over_factorial else _number_probe_refuses
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for n in range(1, seq.DEFAULT_STIRLING_LIMIT + 1):
            first = None
            for k in range(0, -2200, -1):
                try:
                    cli._refuse_unprintable_gf_coefficient(n, k, over_factorial)
                except UnprintableRationalError:
                    first = k
                    break
            assert first is not None and first < 0, n
            for k in range(min(-1, first + 8), first - 8, -1):
                try:
                    cli._refuse_unprintable_gf_coefficient(n, k, over_factorial)
                except UnprintableRationalError:
                    assert probe_refuses(n, k), (n, k)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("k, built", [("170", [64]), ("14000", []), ("-14000", [])])
def test_gen_refuses_an_unprintable_last_row_before_the_rows_below_it(capsys, monkeypatch,
                                                                      k, built):
    # C_1^(k) prints at each k.  Row 64 of k = 170 does not, so it is built
    # and refused first; at k = 14000 the bound on C_64^(k)'s denominator
    # refuses it unbuilt, and at k = -14000 the bound |C_64^(k)| >= 65^14000.
    true_poly = sk.poly_closed
    calls = []

    def counted(n, k):
        calls.append(n)
        return true_poly(n, k)

    monkeypatch.setattr(sk, "poly_closed", counted)
    code, out, err = run_cli(capsys, "gen", "polycauchy2-poly", "--n-max", "64", "--k", k)
    assert (code, out) == (2, "")
    assert err.startswith("error: rational too large to print")
    assert calls == built


@pytest.mark.parametrize("r, lam, message", [
    ("-1", "2", "Frobenius-Euler family needs a non-negative order"),
    ("1", "1", "Frobenius-Euler parameter must differ from 1"),
])
def test_gen_frobenius_euler_parameters_are_usage_errors(capsys, r, lam, message):
    code, out, err = run_cli(capsys, "gen", "frobenius-euler", "--r", r, "--lambda", lam,
                             "--n-max", "2")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_unwritable_output_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, _, err = run_cli(capsys, "gen", "stirling1", "--n-max", "2", "--format", "json",
                           "--output", str(target))
    assert code == 2
    assert err.startswith("error: ") and str(target) in err
    assert not target.exists()


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_verify_unwritable_output_fails_before_any_check(tmp_path, capsys, monkeypatch, fmt):
    from polycauchy import verify

    started: list[str] = []
    for identity, (info, evaluate) in list(verify._IDENTITIES.items()):
        def counted(cfg, share, identity=identity, evaluate=evaluate):
            started.append(identity)
            yield from evaluate(cfg, share)

        monkeypatch.setitem(verify._IDENTITIES, identity, (info, counted))
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "verify", "--n-max", "2", "--format", fmt,
                             "--output", str(target))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(target) in err
    assert started == []


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_verify_order_error_part_way_is_a_usage_error(tmp_path, capsys, monkeypatch, fmt):
    from polycauchy import verify
    from polycauchy.series import InsufficientOrderError

    info, evaluate = verify._IDENTITIES["difference"]

    def runs_short(cfg, share):
        for index, point in enumerate(evaluate(cfg, share)):
            if index == 3:
                raise InsufficientOrderError(9, 8)
            yield point

    monkeypatch.setitem(verify._IDENTITIES, "difference", (info, runs_short))
    target = tmp_path / "report.out"
    code, out, err = run_cli(capsys, "verify", "--n-max", "2", "--format", fmt,
                             "--output", str(target))
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "error: identity difference needs truncation order >= 9, got 8"
    ]
    # Checks before the failing one may have reached the file; it is partial.
    assert target.exists()


def test_verify_csv_bytes_do_not_depend_on_lambda_order(capsys):
    base = ["verify", "--n-max", "2", "--identity", "thm6.frobenius-basis",
            "--identity", "eq34.addition", "--format", "csv"]
    _, first, _ = run_cli(capsys, *base, "--lambda", "-1", "--lambda", "2")
    _, second, _ = run_cli(capsys, *base, "--lambda", "2", "--lambda", "-1")
    assert first and first == second


def _verify_peaks(tmp_path, monkeypatch, workers):
    """tracemalloc peaks of this process over a verify run at n <= 6 and at
    n <= 12, with ``workers`` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: workers)
    target = str(tmp_path / "report.json")
    argv = ["verify", "--identity", "thm1.coeff", "--identity", "thm4.general",
            "--identity", "eq34.addition", "--format", "json", "--output", target]
    # An untraced run first fills the memos and makes the command's lazy imports.
    assert main([*argv, "--n-max", "12"]) == 0
    peaks = []
    for n_max in ("6", "12"):
        tracemalloc.start()
        try:
            assert main([*argv, "--n-max", n_max]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


def test_verify_peak_memory_does_not_grow_with_the_grid(tmp_path, monkeypatch):
    # Many cheap checks each: the peak of a run that kept its checks or rows
    # grows by about 0.8 MB from n <= 6 to n <= 12 on these identities.
    # One worker keeps every evaluator in this process, where tracemalloc
    # sees it; a forked worker's allocations are invisible to it.
    peaks = _verify_peaks(tmp_path, monkeypatch, 1)
    assert abs(peaks[1] - peaks[0]) < 256 * 1024, peaks


def test_verify_parent_peak_memory_does_not_grow_with_the_grid_on_two_workers(
        tmp_path, monkeypatch):
    # Forked children make the checks; this process, which merges and
    # writes them all, must not grow either.
    peaks = _verify_peaks(tmp_path, monkeypatch, 2)
    assert abs(peaks[1] - peaks[0]) < 256 * 1024, peaks


def test_negative_rational_flag_values(capsys):
    code, out, _ = run_cli(capsys, "gen", "frobenius-euler", "--r", "1", "--lambda", "-1/3",
                           "--n-max", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["rows"][1]["coefficients"] == ["-3/4", "1/1"]
    code, _, _ = run_cli(capsys, "verify", "--n-max", "1", "--identity", "difference",
                         "--lambda", "-1/3")
    assert code == 0


def test_gen_lambda_one_rejected(capsys):
    code, _, err = run_cli(capsys, "gen", "frobenius-euler", "--r", "1", "--lambda", "1/1",
                           "--n-max", "2")
    assert code == 2
    assert "differ from 1" in err


def test_gen_unknown_sequence_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["gen", "no-such-sequence", "--n-max", "1"])
    assert info.value.code == 2


# ---------------------------------------------------------------------------
# expand

def test_expand_falling(capsys):
    code, out, _ = run_cli(capsys, "expand", "--n", "1", "--k", "2", "--basis", "falling",
                           "--format", "json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["coefficients"] == ["-1/4", "1/1"]
    assert row["check"] == "pass"


def test_expand_bernoulli_trivial(capsys):
    code, out, _ = run_cli(capsys, "expand", "--n", "0", "--k", "-3", "--basis", "bernoulli:2",
                           "--format", "json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["coefficients"] == ["1/1"]
    assert row["check"] == "pass"


def test_expand_frobenius_reconstructs(capsys):
    code, out, _ = run_cli(capsys, "expand", "--n", "2", "--k", "1", "--basis",
                           "frobenius:1:-1/1", "--format", "json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["check"] == "pass"
    entries = [parse_rational(c) for c in row["coefficients"]]
    total = Polynomial()
    for m, c in enumerate(entries):
        total = total + c * sk.basis_member(sk.connection_to_frobenius(2, 1, 1, F(-1)).basis, m)
    assert total == sk.poly_closed(2, 1)


def test_expand_bad_basis(capsys):
    code, _, err = run_cli(capsys, "expand", "--n", "1", "--k", "1", "--basis", "fourier")
    assert code == 2
    assert "basis" in err


def test_expand_lambda_one(capsys):
    code, _, err = run_cli(capsys, "expand", "--n", "1", "--k", "1", "--basis", "frobenius:1:1")
    assert code == 2
    assert "differ from 1" in err


# ---------------------------------------------------------------------------
# verify

def test_verify_small_grid(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n-max", "2", "--k-min", "-1", "--k-max", "1",
                           "--r-max", "1")
    assert code == 0
    assert out.strip().splitlines()[-1].startswith("checks: ")
    assert "failures: 0" in out.strip().splitlines()[-1]


def test_verify_identity_filter_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n-max", "5", "--identity", "thm4.m1-corrected",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "verify"
    assert payload["params"]["identities"] == ["thm4.m1-corrected"]
    assert {row["identity"] for row in payload["rows"]} == {"thm4.m1-corrected"}
    assert all(row["status"] == "pass" for row in payload["rows"])
    assert "generated_at" in payload["meta"]


@pytest.mark.parametrize(
    "repeated, single",
    [
        (["--lambda", "2", "--lambda", "2"], ["--lambda", "2"]),
        (["--lambda", "2", "--lambda", "4/2"], ["--lambda", "2"]),
        (["--lambda", "-1", "--lambda", "2", "--lambda", "-1"], ["--lambda", "-1", "--lambda", "2"]),
        (["--identity", "difference", "--identity", "difference"], ["--identity", "difference"]),
    ],
)
def test_verify_repeated_flags_run_once(capsys, repeated, single):
    base = ["verify", "--n-max", "2", "--format", "json"]
    if repeated[0] == "--lambda":
        base += ["--identity", "thm6.frobenius-basis"]
    payloads = []
    for flags in (repeated, single):
        code, out, _ = run_cli(capsys, *base, *flags)
        assert code == 0
        payloads.append(json.loads(out))
    assert payloads[0]["params"] == payloads[1]["params"]
    assert payloads[0]["rows"] == payloads[1]["rows"]


def test_verify_lambda_one_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--n-max", "2", "--lambda", "1/1")
    assert code == 2
    assert "differ from 1" in err


def test_verify_unknown_identity(capsys):
    code, _, err = run_cli(capsys, "verify", "--identity", "bogus")
    assert code == 2
    assert "bogus" in err


@pytest.mark.usefixtures("first_number_off_by_one")
def test_verify_exit_one_on_failure(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n-max", "2", "--k-min", "0", "--k-max", "0",
                           "--identity", "thm7.falling-basis")
    assert code == 1
    assert "failures: 0" not in out.splitlines()[-1]


@pytest.mark.parametrize("argv", [
    ("--k-min", "100000000000", "--k-max", "100000000000", "--n-max", "1",
     "--identity", "thm1.numbers"),
    ("--k-min", "20000", "--k-max", "20000", "--n-max", "1"),
    ("--k-min", "-20000", "--k-max", "3", "--n-max", "1"),
], ids=["huge-k", "k-20000", "k-minus-20000"])
def test_verify_refuses_an_unprintable_k_from_its_size(argv):
    # C_1^(k) = -2^(-k) could not be printed, so a failing row could not
    # be either; 2^(10^11) would take about 12.5 GB to build.  A fresh
    # interpreter, so that a traceback would show on stderr.
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "polycauchy", "verify", *argv],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: k=") and proc.stderr.count("\n") == 1, proc.stderr
    assert "too large" in proc.stderr and "Traceback" not in proc.stderr


# ---------------------------------------------------------------------------
# series

def test_series_lif(capsys):
    code, out, _ = run_cli(capsys, "series", "lif:1", "--order", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ['"i","coefficient"', '0,"1/1"', '1,"1/2"', '2,"1/6"']


def test_series_polycauchy_gf(capsys):
    code, out, _ = run_cli(capsys, "series", "polycauchy-gf:1", "--order", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1:] == ['0,"1/1"', '1,"-1/2"', '2,"5/12"']


def test_series_bernoulli2_gf(capsys):
    code, out, _ = run_cli(capsys, "series", "bernoulli2-gf", "--order", "0", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1:] == ['0,"1/1"']


def test_series_narumi_gf(capsys):
    code, out, _ = run_cli(capsys, "series", "narumi-gf:-2", "--order", "2", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    # (t/log(1+t))^2 = 1 + t + t^2/12 + ...
    assert [r["coefficient"] for r in rows] == ["1/1", "1/1", "1/12"]


def test_series_matches_gen_numbers(capsys):
    k, order = 2, 6
    _, out_series, _ = run_cli(capsys, "series", f"polycauchy-gf:{k}", "--order", str(order),
                               "--format", "json")
    _, out_gen, _ = run_cli(capsys, "gen", "polycauchy2-number", "--k", str(k), "--n-max",
                            str(order), "--format", "json")
    series_rows = json.loads(out_series)["rows"]
    gen_rows = json.loads(out_gen)["rows"]
    for n in range(order + 1):
        coeff = parse_rational(series_rows[n]["coefficient"])
        value = parse_rational(gen_rows[n]["value"])
        assert coeff * factorial(n) == value


def test_series_unknown_name(capsys):
    code, _, err = run_cli(capsys, "series", "zeta:2", "--order", "1")
    assert code == 2
    assert "unknown generating function" in err


@pytest.mark.parametrize("argv", [
    ("gen", "stirling1", "--n-max", "-1"),
    ("gen", "frobenius-euler", "--r", "1", "--lambda", "x", "--n-max", "2"),
    ("expand", "--n", "1", "--k", "1", "--basis", "falling:1"),
    ("expand", "--n", "1", "--k", "1", "--basis", "frobenius:1"),
    ("series", "bernoulli2-gf:3", "--order", "2"),
    ("series", "lif:x", "--order", "2"),
    ("expand", "--n", "1", "--k", "1", "--basis", "falling:"),
    ("series", "bernoulli2-gf:", "--order", "2"),
], ids=["negative-size", "lambda-type", "falling-param", "frobenius-arity",
        "bernoulli2-param", "lif-k", "falling-empty-param", "bernoulli2-empty-param"])
def test_bad_arguments_are_usage_errors(capsys, argv):
    # argparse reports a bad flag value by raising SystemExit(2) itself.
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "error:" in captured.err and "Traceback" not in captured.err, captured.err


GOLDEN = {
    tuple(entry["argv"]): entry["stdout"]
    for entry in json.loads(Path(__file__).with_name("golden_cli.json").read_text(encoding="utf-8"))
}
GOLDEN_GEN = ("gen", "narumi", "--a", "2", "--n-max", "6", "--format", "json")
GOLDEN_VERIFY = ("verify", "--n-max", "3", "--k-min", "-1", "--k-max", "1", "--r-max", "1",
                 "--format", "text")


def count_parser_builds(monkeypatch) -> list:
    """Forget the process's parser and count the builds from here on."""
    builds, build = [], cli.build_parser

    def counted():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "_parser", None, raising=False)
    monkeypatch.setattr(cli, "build_parser", counted)
    return builds


def test_main_builds_its_parser_once_per_process(capsys, monkeypatch):
    builds = count_parser_builds(monkeypatch)
    for argv in (GOLDEN_GEN, ("gen", "stirling1", "--n-max", "7", "--format", "csv")):
        assert run_cli(capsys, *argv) == (0, GOLDEN[argv], "")
    assert len(builds) == 1


@pytest.mark.parametrize("argv, raises", [
    (("gen", "no-such-sequence", "--n-max", "1"), True),
    (("verify", "--lambda", "2", "--identity", "difference", "--n-max", "x"), True),
    (("gen", "narumi", "--alpha", "3", "--n-max", "6"), False),
    (("gen", "frobenius-euler", "--r", "1", "--lambda", "1", "--n-max", "2"), False),
], ids=["argparse-choice", "argparse-after-append", "missing-flag", "bad-lambda"])
def test_a_usage_error_leaves_the_reused_parser_as_it_was(capsys, monkeypatch, argv, raises):
    # The verify report must show the default lambdas and the whole catalog,
    # however much of the failed call's --lambda and --identity was parsed.
    builds = count_parser_builds(monkeypatch)
    assert run_cli(capsys, *GOLDEN_GEN) == (0, GOLDEN[GOLDEN_GEN], "")
    if raises:
        with pytest.raises(SystemExit) as info:
            main(list(argv))
        assert info.value.code == 2
    else:
        assert main(list(argv)) == 2
    assert capsys.readouterr().out == ""
    for again in (GOLDEN_VERIFY, GOLDEN_GEN):
        assert run_cli(capsys, *again) == (0, GOLDEN[again], "")
    assert len(builds) == 1


def test_threads_share_the_first_parser_and_write_their_golden_bytes(tmp_path, monkeypatch):
    # Threads racing on the first call may each build a parser; every call
    # still parses its own argv, and the process keeps a parser after.
    count_parser_builds(monkeypatch)
    gens = [argv for argv in GOLDEN if argv[0] == "gen"][::2]
    barrier = threading.Barrier(len(gens))
    codes = {}

    def worker(index):
        barrier.wait(timeout=30)
        codes[index] = main([*gens[index], "--output", str(tmp_path / f"{index}.out")])

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(gens))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert codes == dict.fromkeys(range(len(gens)), 0)
    for index, argv in enumerate(gens):
        assert (tmp_path / f"{index}.out").read_text(encoding="utf-8") == GOLDEN[argv], argv
    assert cli._parser is not None


def test_output_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run_cli(capsys, "gen", "polycauchy2-number", "--k", "1", "--n-max", "1",
                           "--format", "csv", "--output", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().splitlines()[1] == '0,"1/1"'


def test_json_schema_everywhere(capsys):
    cases = [
        ("gen", "polycauchy2-number", "--k", "1", "--n-max", "1"),
        ("expand", "--n", "1", "--k", "1", "--basis", "falling"),
        ("verify", "--n-max", "1", "--identity", "difference"),
        ("series", "lif:0", "--order", "1"),
    ]
    for case in cases:
        code, out, _ = run_cli(capsys, *case, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert {"command", "params", "rows"} <= set(payload)
        assert isinstance(payload["rows"], list)


# ---------------------------------------------------------------------------
# Streaming output

STREAMED = [
    ("verify", "--n-max", "3"),
    ("gen", "polycauchy2-poly", "--k", "2", "--n-max", "6"),
]


@pytest.mark.parametrize("argv", STREAMED, ids=lambda argv: argv[0])
def test_json_report_is_the_indented_dump_on_both_sinks(tmp_path, capsys, argv):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert main([*argv, "--format", "json", "--output", str(target)]) == code == 0
    written = target.read_text(encoding="utf-8")
    payload = json.loads(out)
    assert out == json.dumps(payload, indent=2) + "\n"
    # Only the timestamp in meta may differ between the two runs.
    if "meta" in payload:
        payload["meta"] = json.loads(written)["meta"]
    assert written == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "text"])
@pytest.mark.parametrize("argv", STREAMED, ids=lambda argv: argv[0])
def test_stdout_and_output_file_hold_the_same_bytes(tmp_path, capsys, argv, fmt):
    target = tmp_path / "report.out"
    code, out, _ = run_cli(capsys, *argv, "--format", fmt)
    assert main([*argv, "--format", fmt, "--output", str(target)]) == code == 0
    assert out and target.read_bytes() == out.encode("utf-8")


class _CountingSink:
    """A stdout stand-in that counts writes and, unless told to forget, keeps them."""

    def __init__(self, keep: bool):
        self.keep = keep
        self.writes = 0
        self.chars = 0
        self.parts: list[str] = []

    def write(self, text: str) -> int:
        self.writes += 1
        self.chars += len(text)
        if self.keep:
            self.parts.append(text)
        return len(text)


def _synthetic_rows(count: int) -> list[dict]:
    return [
        {"identity": "thm5.bernoulli-basis",
         "params": {"n": i % 13, "k": i % 7 - 3, "r": i % 5, "lambda": "-1/3"},
         "status": "pass"}
        for i in range(count)
    ]


def _emit_json(monkeypatch, sink, rows) -> dict:
    monkeypatch.setattr(sys, "stdout", sink)
    args = argparse.Namespace(format="json", output=None)
    meta = {"generated_at": "2000-01-01T00:00:00+00:00"}
    cli._emit(args, "verify", {"n_max": 12}, rows, ["identity"], meta=meta)
    return {"command": "verify", "params": {"n_max": 12}, "rows": rows, "meta": meta}


def test_json_is_written_in_bounded_batches(monkeypatch):
    sink = _CountingSink(keep=True)
    payload = _emit_json(monkeypatch, sink, _synthetic_rows(20_000))
    output = "".join(sink.parts)
    assert output == json.dumps(payload, indent=2) + "\n"
    assert len(output) > 3_000_000
    assert sink.writes <= math.ceil(len(output) / 65536) + 1


def test_csv_is_written_in_bounded_batches(monkeypatch):
    rows = _synthetic_rows(20_000)
    columns = ["identity", "params", "status"]
    sink = _CountingSink(keep=True)
    monkeypatch.setattr(sys, "stdout", sink)
    cli._emit(argparse.Namespace(format="csv", output=None), "verify", {}, rows, columns)
    output = "".join(sink.parts)
    expected = io.StringIO()
    writer = csv.writer(expected, quoting=csv.QUOTE_NONNUMERIC, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([cli._csv_cell(row[c]) for c in columns] for row in rows)
    assert output == expected.getvalue()
    assert len(output) > 1_000_000
    assert sink.writes <= math.ceil(len(output) / 65536) + 1


def test_json_output_is_not_materialised(monkeypatch):
    rows = _synthetic_rows(20_000)
    sink = _CountingSink(keep=False)
    tracemalloc.start()
    try:
        _emit_json(monkeypatch, sink, rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Rendering the whole report first peaks at several times its size.
    assert sink.chars > 3_000_000
    assert peak < sink.chars // 2, (peak, sink.chars)


# Strings with every character the escaper treats apart: quotes, backslashes,
# control characters, and text past the BMP, which it writes as a surrogate pair.
_json_strings = st.text(st.one_of(st.sampled_from('"\\/\x00\x08\x1f\x7f\n\t é😀𝄞'),
                                  st.characters()))
_json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.integers(-10**1000, 10**1000),
              _json_strings),
    lambda children: st.one_of(st.lists(children), st.lists(children).map(tuple),
                               st.dictionaries(_json_strings, children)),
    max_leaves=30,
)


@settings(max_examples=100)
@given(_json_values)
def test_json_text_is_the_indented_dump(value):
    assert cli._json_text(value, "") == json.dumps(value, indent=2)


@settings(max_examples=40)
@given(rows=st.lists(st.dictionaries(_json_strings, _json_values), max_size=3),
       meta=st.none() | st.dictionaries(_json_strings, _json_values, max_size=2))
def test_json_report_is_the_indented_dump_of_its_payload(rows, meta):
    # Empty rows and an absent meta included: the head and tail are written
    # around the rows, not encoded with them.
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        cli._emit(argparse.Namespace(format="json", output=None), "gen", {"n": 1}, iter(rows),
                  [], meta=meta)
    payload = {"command": "gen", "params": {"n": 1}, "rows": rows}
    if meta is not None:
        payload["meta"] = meta
    assert sink.getvalue() == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("value", [
    0.5, [1, 2.0], {"a": {"b": [float("nan")]}}, {1: "a"}, {"a": {None: 1}}, {(1,): 2}, F(1, 2),
], ids=["float", "nested-float", "deep-nan", "int-key", "none-key", "tuple-key", "fraction"])
def test_json_text_refuses_inexact_values_and_non_str_keys(value):
    with pytest.raises(TypeError):
        cli._json_text(value, "")


def test_json_rows_reach_the_batcher_one_string_each(capsys, monkeypatch):
    received = []
    writelines = cli._Batched.writelines

    def counted(self, chunks):
        chunks = list(chunks)
        received.extend(chunks)
        writelines(self, chunks)

    monkeypatch.setattr(cli._Batched, "writelines", counted)
    code, out, _ = run_cli(capsys, "gen", "stirling1", "--n-max", "30", "--format", "json")
    assert code == 0 and "".join(received) == out
    # The head, 31 rows, and the tail.
    assert len(received) <= 31 + 4


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_a_failed_write_part_way_is_a_usage_error(fmt):
    # A fresh interpreter, so stderr shows anything reported at exit as well.
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "polycauchy", "verify", "--n-max", "3", "--format", fmt,
         "--output", "/dev/full"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr, proc.stderr
    assert proc.stdout == ""
