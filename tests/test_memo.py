"""The grown-row memo: every value equals a fresh build at order n+1, in any
access order, with families interleaved, and under concurrent misses; rows
are keyed by family, parameters and power-of-two order."""

import importlib
import json
import pkgutil
import sys
import threading
from fractions import Fraction as F
from functools import cache
from math import comb, factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polycauchy
from polycauchy import second_kind as sk
from polycauchy import sequences as seq
from polycauchy.cli import main
from polycauchy.exact import parse_rational
from polycauchy.poly import Polynomial
from polycauchy.sequences import grown_order
from polycauchy.series import TruncatedSeries, exp_series, log1p_series


# Reference definitions from the series primitives alone, over Q only: the
# amplitude series times (1+t)^x or e^(xt) at an integer point x, whose t^j
# coefficients are C(x, j) and x^j / j!.  They share no code with the Sheffer
# row builder.
@cache
def _amplitude(family, param, order):
    if family in ("poly_oracle", "number_oracle"):
        return sk.gf_number_series(param, order)
    if family in ("bernoulli_2nd_poly", "bernoulli_2nd_number"):
        return log1p_series(order + 1).divided_by_t().invert()
    if family == "bernoulli_high_order_poly":
        expm1_over_t = (exp_series(order + 1) - 1).divided_by_t()
        return expm1_over_t ** (-param)
    if family == "frobenius_euler_poly":
        r, lam = param
        return ((exp_series(order) - lam).invert() * (1 - lam)) ** r
    assert family == "narumi_poly"
    return log1p_series(order + 1).divided_by_t() ** param


NUMBERS = ("number_oracle", "bernoulli_2nd_number")
APPELL = ("bernoulli_high_order_poly", "frobenius_euler_poly")


def _fresh_gf(family, param, order, x):
    if family in APPELL:
        kernel = TruncatedSeries(F(x**j, factorial(j)) for j in range(order + 1))
    else:
        kernel = TruncatedSeries(comb(x, j) for j in range(order + 1))
    if family == "falling_factorial_poly":
        return kernel  # (1+t)^x alone: the amplitude is 1
    return _amplitude(family, param, order) * kernel


@cache
def fresh(family, param, n):
    """The degree-n value at x = 0..n, one series of order n+1 per point; a
    number family is its value at x = 0 alone."""
    points = 1 if family in NUMBERS else n + 1
    return tuple(_fresh_gf(family, param, n + 1, x).sequence_value(n) for x in range(points))


def values(family, value, n):
    """A looked-up degree-n value in the form ``fresh`` gives: a polynomial
    of degree at most n is pinned by its values at x = 0..n."""
    if family in NUMBERS:
        return (value,)
    assert value.degree <= n
    return tuple(value(x) for x in range(n + 1))


# family -> (lookup, parameters to try).  Every family reads the one row
# memo, ``ROWS``.  The number lookups read the polynomial rows at x = 0;
# ``fresh`` builds them from the number-level series, so the match checks
# that derivation.  The Bernoulli polynomials of the second kind are the
# Narumi polynomials of order -1.  Parameter 2 is shared by four families,
# so a row memo keyed without the family would hand one family's row to
# another.
ROWS = seq._grown_rows
FAMILIES = {
    "poly_oracle": (sk.poly_oracle, (-2, 0, 1, 2, 3)),
    "number_oracle": (sk.number_oracle, (-1, 2)),
    "bernoulli_2nd_poly": (lambda n, _: seq.bernoulli_2nd_poly(n), (None,)),
    "bernoulli_2nd_number": (lambda n, _: seq.bernoulli_2nd_number(n), (None,)),
    "bernoulli_high_order_poly": (seq.bernoulli_high_order_poly, (-2, 0, 2, 3)),
    "frobenius_euler_poly": (lambda n, p: seq.frobenius_euler_poly(n, *p),
                             ((1, F(-1)), (2, F(1, 2)))),
    "narumi_poly": (seq.narumi_poly, (-2, 1, 2)),
    "falling_factorial_poly": (lambda n, _: seq.falling_factorial_poly(n), (None,)),
}
N_MAX = 9


def _scan(requests):
    """Query (family, param, n) triples in the given order, starting from an
    empty memo."""
    ROWS.cache_clear()
    for family, param, n in requests:
        lookup, _ = FAMILIES[family]
        assert values(family, lookup(n, param), n) == fresh(family, param, n), (family, param, n)


@pytest.mark.parametrize("family", FAMILIES)
def test_ascending_and_descending_scans_match_fresh_builds(family):
    params = FAMILIES[family][1]
    _scan([(family, p, n) for p in params for n in range(N_MAX + 1)])
    _scan([(family, p, n) for p in params for n in range(N_MAX, -1, -1)])


REQUESTS = st.lists(
    st.sampled_from(sorted(FAMILIES)).flatmap(
        lambda family: st.tuples(
            st.just(family), st.sampled_from(FAMILIES[family][1]), st.integers(0, N_MAX)
        )
    ),
    min_size=1,
    max_size=16,
)


@settings(max_examples=40, deadline=None)
@given(REQUESTS)
@example([("narumi_poly", 2, 3), ("bernoulli_high_order_poly", 2, 3), ("poly_oracle", 2, 4),
          ("frobenius_euler_poly", (2, F(1, 2)), 3), ("number_oracle", 2, 3)])
def test_any_access_order_matches_fresh_builds(requests):
    # Families interleave in one scan against the one memo.
    _scan(requests)


@pytest.mark.parametrize(
    "n, order", [(0, 0), (1, 1), (2, 2), (3, 4), (16, 16), (17, 32), (64, 64)]
)
def test_grown_order_is_the_next_power_of_two(n, order):
    assert grown_order(n) == order


def test_ascending_scan_builds_one_row_per_power_of_two():
    ROWS.cache_clear()
    for n in range(31):
        assert values("narumi_poly", seq.narumi_poly(n, 2), n) == fresh("narumi_poly", 2, n)
    info = ROWS.cache_info()
    # orders 0, 1, 2, 4, 8, 16, 32
    assert (info.misses, info.hits, info.currsize) == (7, 24, 7)
    assert values("narumi_poly", seq.narumi_poly(40, 2), 40) == fresh("narumi_poly", 2, 40)
    assert ROWS.cache_info().misses == 8
    assert len(ROWS(seq._NARUMI, (2,), 64)) == 65


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        seq.narumi_poly(-1, 2)
    with pytest.raises(ValueError):
        sk.poly_oracle(-1, 1)
    with pytest.raises(ValueError, match="non-negative"):
        grown_order(-1)


# Every memo in the package, by module: the row memo lives in a layer
# whose ``lru_cache`` statistics the benchmark tracer reads.
MEMOS = {
    "polycauchy.sequences": {"_grown_rows"},
    "polycauchy.second_kind": {"_number_row", "poly_closed"},
}
ROW_MEMO_LAYERS = ("polycauchy.sequences", "polycauchy.second_kind")


def test_memo_inventory():
    found = {}
    for info in pkgutil.iter_modules(polycauchy.__path__, "polycauchy."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if callable(getattr(obj, "cache_info", None)) and obj.__module__ == module.__name__:
                found.setdefault(module.__name__, set()).add(name)
    assert found == MEMOS
    assert sum(map(len, found.values())) == 3
    assert ROWS.__module__ in ROW_MEMO_LAYERS


def test_concurrent_misses_publish_equal_rows():
    lookup, _ = FAMILIES["narumi_poly"]
    a = 3
    ROWS.cache_clear()
    barrier = threading.Barrier(8)
    results = {}

    def worker(index):
        barrier.wait(timeout=30)
        results[index] = lookup(6 + index, a)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
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
    assert {i: values("narumi_poly", p, 6 + i) for i, p in results.items()} == {
        i: fresh("narumi_poly", a, 6 + i) for i in range(8)
    }
    # Degrees 6..13 read the rows of orders 8 and 16, and the memo holds those.
    held = ROWS.cache_info()
    assert held.currsize == 2
    for order in (8, 16):
        row = ROWS(seq._NARUMI, (a,), order)
        assert len(row) == order + 1
        for n, p in enumerate(row):
            assert values("narumi_poly", p, n) == fresh("narumi_poly", a, n)
    assert ROWS.cache_info().misses == held.misses


# Degrees at, just below and just past each rebuild of an ascending scan
# (rows of orders 0, 1, 2, 4, 8, 16, 32), and the top of the table.  A family
# table is one row of order 32, so its rows are held here against the
# per-degree lookups, which read the smaller rows too.
GEN_DEGREES = (0, 1, 2, 3, 4, 5, 8, 9, 16, 17, 29, 30)
GEN_CASES = [
    (("bernoulli2",), "bernoulli_2nd_poly", None),
    (("bernoulli-order", "--alpha", "-3"), "bernoulli_high_order_poly", -3),
    (("frobenius-euler", "--r", "2", "--lambda", "-1/3"), "frobenius_euler_poly", (2, F(-1, 3))),
    (("narumi", "--a", "2"), "narumi_poly", 2),
    (("polycauchy2-poly", "--k", "-1"), "poly_oracle", -1),
]


@pytest.mark.parametrize("args, family, param", GEN_CASES)
def test_gen_rows_match_fresh_builds_to_n30(args, family, param, capsys):
    # polycauchy2-poly rows come from the closed route; its grown rows are
    # the oracle's, read here after the table is written.
    lookup, _ = FAMILIES[family]
    ROWS.cache_clear()
    assert main(["gen", *args, "--n-max", "30", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [row["n"] for row in rows] == list(range(31))
    for n in GEN_DEGREES:
        got = Polynomial(parse_rational(c) for c in rows[n]["coefficients"])
        assert got == lookup(n, param), (family, n)
        assert values(family, got, n) == fresh(family, param, n), (family, n)


@pytest.mark.parametrize("args", [case[0] for case in GEN_CASES[:4]], ids=lambda args: args[0])
def test_a_family_table_reads_one_grown_row(args, capsys):
    # Degrees 0..30 are the first 31 members of the row of order 32; read
    # degree by degree they would take the rows of 7 orders.
    ROWS.cache_clear()
    assert main(["gen", *args, "--n-max", "30", "--format", "json"]) == 0
    info = ROWS.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
