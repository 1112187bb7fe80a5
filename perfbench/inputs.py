"""Seeded inputs for the workloads.

Everything here is driven by the benchmark's ``--seed`` through
``random.Random``; the library only ever sees the generated arguments.
"""

from __future__ import annotations

import random

LAMBDAS = ("-1", "2", "1/2", "-1/3")
ORDERS = range(-3, 4)          # --alpha and --a values for the families
FROBENIUS_ORDERS = range(0, 5)  # --r values
POLY_KS = range(-4, 5)          # k values for polycauchy2-poly
TABLES_N_MAX = 30
TABLES_POLY_COUNT = 3


def all_table_jobs() -> list[tuple[str, ...]]:
    """Every ``gen`` argument tuple a tables-large-n seed can draw."""
    jobs: list[tuple[str, ...]] = [("bernoulli2",)]
    jobs += [("bernoulli-order", "--alpha", str(a)) for a in ORDERS]
    jobs += [("frobenius-euler", "--r", str(r), "--lambda", lam)
             for r in FROBENIUS_ORDERS for lam in LAMBDAS]
    jobs += [("narumi", "--a", str(a)) for a in ORDERS]
    jobs += [("polycauchy2-poly", "--k", str(k)) for k in POLY_KS]
    return jobs


def table_jobs(seed: int) -> list[tuple[str, ...]]:
    """The seven ``gen`` calls of one tables-large-n sample: the four
    families with drawn parameters, then polycauchy2-poly for three
    distinct drawn k."""
    rng = random.Random(seed)
    jobs: list[tuple[str, ...]] = [
        ("bernoulli2",),
        ("bernoulli-order", "--alpha", str(rng.choice(ORDERS))),
        ("frobenius-euler", "--r", str(rng.choice(FROBENIUS_ORDERS)),
         "--lambda", rng.choice(LAMBDAS)),
        ("narumi", "--a", str(rng.choice(ORDERS))),
    ]
    jobs += [("polycauchy2-poly", "--k", str(k))
             for k in rng.sample(POLY_KS, TABLES_POLY_COUNT)]
    return jobs


# ---------------------------------------------------------------------------
# query-stream

STREAM_LENGTH = 2000
STREAM_N_MAX = 20
STREAM_KS = range(-3, 4)
STREAM_RS = range(0, 5)
# Request mix; the share of each kind is fixed so that seeds vary the
# parameters and order of requests, not how much work the stream holds.
# An earlier prototype of this stream measured p50 0.3 ms, p99 37-39 ms and
# 390-440 req/s, but its mix was not recorded.  The shares and the n law
# below were fitted to the two of its ratios that do not depend on the
# machine's speed: p99/p50 of about 127 and mean latency/p50 of about 8.  A median of 0.3 ms
# is a connection row at small n, so connection rows are most of the stream;
# the p99 is a Bernoulli row near the cap.
KIND_SHARES = (
    ("falling", 0.30),
    ("bernoulli", 0.30),
    ("frobenius", 0.30),
    ("eval", 0.05),
    ("numbers", 0.05),
)
N_OFFSET = 8


def _quotas(total: int, weights: list[tuple[object, float]]) -> list[tuple[object, int]]:
    """Split ``total`` by weight with the largest-remainder rule."""
    scale = total / sum(w for _, w in weights)
    raw = [(key, w * scale) for key, w in weights]
    counts = {key: int(share) for key, share in raw}
    left = total - sum(counts.values())
    for key, share in sorted(raw, key=lambda item: item[1] - int(item[1]), reverse=True)[:left]:
        counts[key] += 1
    return [(key, counts[key]) for key, _ in weights]


def _n_weights() -> list[tuple[int, float]]:
    # P(n) proportional to (n+8)^-2 on 0..20.
    return [(n, (n + N_OFFSET) ** -2) for n in range(STREAM_N_MAX + 1)]


def _rational(rng: random.Random) -> str:
    den = rng.randint(1, 6)
    return f"{rng.randint(-9, 9)}/{den}"


def _deck(rng: random.Random, values, count: int) -> list:
    """``count`` draws from ``values`` in which every value comes up equally
    often, to within one, in seeded order."""
    values = list(values)
    full, extra = divmod(count, len(values))
    deck = values * full + rng.sample(values, extra)
    rng.shuffle(deck)
    return deck


def _fresh(rng: random.Random, kind: str, n: int, k: int, r: int, lam: str) -> tuple:
    if kind == "bernoulli":
        return (kind, n, k, r)
    if kind == "frobenius":
        return (kind, n, k, r, lam)
    if kind == "eval":
        return (kind, n, k, _rational(rng))
    return (kind, n, k)


def query_stream(seed: int, length: int = STREAM_LENGTH) -> list[tuple]:
    """A closed-loop request stream.

    n follows a power law (weight (n+8)^-2) on 0..20, so 60% of requests
    have n <= 5 and 1.3% have n = 20.  The count of requests of each
    (kind, n) class is fixed by largest remainders, and within a class k, r
    and lambda are dealt from balanced decks, so every seed asks for the
    same work; the seed sets which values meet, x and the order.  Requests
    of a small class collide, so about 60% of the stream is distinct.
    """
    rng = random.Random(seed)
    n_weights = _n_weights()
    stream = []
    for kind, kind_count in _quotas(length, list(KIND_SHARES)):
        for n, count in _quotas(kind_count, n_weights):
            decks = zip(_deck(rng, STREAM_KS, count), _deck(rng, STREAM_RS, count),
                        _deck(rng, LAMBDAS, count))
            stream += [_fresh(rng, kind, n, k, r, lam) for k, r, lam in decks]
    rng.shuffle(stream)
    return stream
