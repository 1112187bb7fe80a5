"""Grown-row memos: every value equals a fresh build at order n+1, in any
access order and under concurrent misses."""

import json
import sys
import threading
from fractions import Fraction as F
from functools import cache
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycauchy import second_kind as sk
from polycauchy import sequences as seq
from polycauchy.cli import main
from polycauchy.exact import parse_rational
from polycauchy.memo import grown_value
from polycauchy.poly import Polynomial
from polycauchy.series import (
    TruncatedSeries,
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


# family -> (grown-row table, lookup, parameters to try)
FAMILIES = {
    "poly_oracle": (sk._ORACLE_POLYS, lambda n, k: sk.poly_oracle(n, k), (-2, 0, 1, 3)),
    "number_oracle": (sk._ORACLE_NUMBERS, lambda n, k: sk.number_oracle(n, k), (-1, 2)),
    "bernoulli_2nd_poly": (seq._BERNOULLI_2ND_POLYS, lambda n, _: seq.bernoulli_2nd_poly(n),
                           (None,)),
    "bernoulli_2nd_number": (seq._BERNOULLI_2ND_NUMBERS,
                             lambda n, _: seq.bernoulli_2nd_number(n), (None,)),
    "bernoulli_high_order_poly": (seq._HIGH_ORDER_POLYS, seq.bernoulli_high_order_poly,
                                  (-2, 0, 3)),
    "frobenius_euler_poly": (seq._FROBENIUS_EULER_POLYS,
                             lambda n, p: seq.frobenius_euler_poly(n, *p),
                             ((1, F(-1)), (2, F(1, 2)))),
    "narumi_poly": (seq._NARUMI_POLYS, seq.narumi_poly, (-2, 1)),
}
N_MAX = 9


def _scan(family, requests):
    """Query (param, n) pairs in the given order, starting from an empty table."""
    table, lookup, _ = FAMILIES[family]
    table.clear()
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


def test_rows_grow_by_doubling():
    built = []

    def build(order):
        built.append(order)
        return TruncatedSeries(F(i) for i in range(order + 1))

    table = {}
    values = [grown_value(table, (), n, build) for n in range(31)]
    assert values == [factorial(i) * i for i in range(31)]
    assert built == [0, 1, 2, 4, 8, 16, 32]
    assert len(table[()]) == 33
    assert grown_value(table, (), 40, build) == factorial(40) * 40
    assert built[-1] == 64


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        seq.narumi_poly(-1, 2)
    with pytest.raises(ValueError):
        sk.poly_oracle(-1, 1)


def test_concurrent_misses_publish_equal_rows():
    table, lookup, _ = FAMILIES["narumi_poly"]
    a = 3
    table.clear()
    barrier = threading.Barrier(8)
    results, published = {}, {}

    def worker(index):
        barrier.wait(timeout=30)
        results[index] = lookup(6 + index, a)
        published[index] = table[(a,)]

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
    assert len(published) == 8
    for row in published.values():
        assert list(row) == [fresh("narumi_poly", a, n) for n in range(len(row))]


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
    table, lookup, _ = FAMILIES[family]
    table.clear()
    assert main(["gen", *args, "--n-max", "30", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [row["n"] for row in rows] == list(range(31))
    for n in GEN_DEGREES:
        got = Polynomial(parse_rational(c) for c in rows[n]["coefficients"])
        assert got == fresh(family, param, n) == lookup(n, param), (family, n)
