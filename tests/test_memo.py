"""Grown-row memos: every value equals a fresh build at order n+1, in any
access order and under concurrent misses; rows are keyed by power-of-two
order."""

import json
import sys
import threading
from fractions import Fraction as F
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycauchy import second_kind as sk
from polycauchy import sequences as seq
from polycauchy.cli import main
from polycauchy.exact import parse_rational
from polycauchy.memo import grown_order
from polycauchy.poly import Polynomial
from polycauchy.series import (
    binomial_series,
    exp_series,
    exp_xt_series,
    log1p_series,
)


def _t_over_log1p(order):
    return log1p_series(order + 1).divided_by_t().invert()


# Reference definitions: one series of order n+1 per degree n, built from the
# series primitives alone.
def _fresh_gf(family, param, order):
    if family == "poly_oracle":
        return sk.gf_number_series(param, order) * binomial_series(order)
    if family == "number_oracle":
        return sk.gf_number_series(param, order)
    if family == "bernoulli_2nd_poly":
        return _t_over_log1p(order) * binomial_series(order)
    if family == "bernoulli_2nd_number":
        return _t_over_log1p(order)
    if family == "bernoulli_high_order_poly":
        expm1_over_t = (exp_series(order + 1) - 1).divided_by_t()
        return expm1_over_t ** (-param) * exp_xt_series(order)
    if family == "frobenius_euler_poly":
        r, lam = param
        core = ((exp_series(order) - lam).invert() * (1 - lam)) ** r
        return core * exp_xt_series(order)
    assert family == "narumi_poly"
    return log1p_series(order + 1).divided_by_t() ** param * binomial_series(order)


@cache
def fresh(family, param, n):
    return _fresh_gf(family, param, n + 1).sequence_value(n)


# family -> (lookup, row memo it reads, parameters to try).  The number
# lookups read the polynomial rows at x = 0; ``_fresh_gf`` builds them from the
# number-level series, so the match checks that derivation.
FAMILIES = {
    "poly_oracle": (sk.poly_oracle, sk._oracle_rows, (-2, 0, 1, 3)),
    "number_oracle": (sk.number_oracle, sk._oracle_rows, (-1, 2)),
    "bernoulli_2nd_poly": (lambda n, _: seq.bernoulli_2nd_poly(n), seq._bernoulli_2nd_rows,
                           (None,)),
    "bernoulli_2nd_number": (lambda n, _: seq.bernoulli_2nd_number(n),
                             seq._bernoulli_2nd_rows, (None,)),
    "bernoulli_high_order_poly": (seq.bernoulli_high_order_poly, seq._high_order_rows,
                                  (-2, 0, 3)),
    "frobenius_euler_poly": (lambda n, p: seq.frobenius_euler_poly(n, *p),
                             seq._frobenius_euler_rows, ((1, F(-1)), (2, F(1, 2)))),
    "narumi_poly": (seq.narumi_poly, seq._narumi_rows, (-2, 1)),
}
N_MAX = 9


def _scan(family, requests):
    """Query (param, n) pairs in the given order, starting from an empty memo."""
    lookup, rows, _ = FAMILIES[family]
    rows.cache_clear()
    for param, n in requests:
        assert lookup(n, param) == fresh(family, param, n), (family, param, n)


@pytest.mark.parametrize("family", FAMILIES)
def test_ascending_and_descending_scans_match_fresh_builds(family):
    params = FAMILIES[family][2]
    _scan(family, [(p, n) for p in params for n in range(N_MAX + 1)])
    _scan(family, [(p, n) for p in params for n in range(N_MAX, -1, -1)])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_any_access_order_matches_fresh_builds(data):
    family = data.draw(st.sampled_from(sorted(FAMILIES)))
    request = st.tuples(st.sampled_from(FAMILIES[family][2]), st.integers(0, N_MAX))
    _scan(family, data.draw(st.lists(request, min_size=1, max_size=16)))


@pytest.mark.parametrize(
    "n, order", [(0, 0), (1, 1), (2, 2), (3, 4), (16, 16), (17, 32), (64, 64)]
)
def test_grown_order_is_the_next_power_of_two(n, order):
    assert grown_order(n) == order


def test_ascending_scan_builds_one_row_per_power_of_two():
    seq._narumi_rows.cache_clear()
    values = [seq.narumi_poly(n, 2) for n in range(31)]
    assert values == [fresh("narumi_poly", 2, n) for n in range(31)]
    info = seq._narumi_rows.cache_info()
    # orders 0, 1, 2, 4, 8, 16, 32
    assert (info.misses, info.hits, info.currsize) == (7, 24, 7)
    assert seq.narumi_poly(40, 2) == fresh("narumi_poly", 2, 40)
    assert seq._narumi_rows.cache_info().misses == 8
    assert len(seq._narumi_rows(2, 64)) == 65


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        seq.narumi_poly(-1, 2)
    with pytest.raises(ValueError):
        sk.poly_oracle(-1, 1)
    with pytest.raises(ValueError, match="non-negative"):
        grown_order(-1)


def test_concurrent_misses_publish_equal_rows():
    lookup, rows, _ = FAMILIES["narumi_poly"]
    a = 3
    rows.cache_clear()
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
    assert results == {i: fresh("narumi_poly", a, 6 + i) for i in range(8)}
    # Degrees 6..13 read the rows of orders 8 and 16, and the memo holds those.
    held = rows.cache_info()
    assert held.currsize == 2
    for order in (8, 16):
        assert list(rows(a, order)) == [fresh("narumi_poly", a, n) for n in range(order + 1)]
    assert rows.cache_info().misses == held.misses


# Degrees at, just below and just past each rebuild of an ascending scan
# (rows of orders 0, 1, 2, 4, 8, 16, 32), and the top of the table.
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
    lookup, rows, _ = FAMILIES[family]
    rows.cache_clear()
    assert main(["gen", *args, "--n-max", "30", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [row["n"] for row in rows] == list(range(31))
    for n in GEN_DEGREES:
        got = Polynomial(parse_rational(c) for c in rows[n]["coefficients"])
        assert got == fresh(family, param, n) == lookup(n, param), (family, n)
