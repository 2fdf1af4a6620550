"""Acceptance gate: one test per criterion, one printed line per result.

Criterion 7's uniqueness clause is implemented exactly as stated and is
expected to fail: the partition axioms admit 2^(m-2) valid splits, not one.
The numbers are frozen in test_oracle.py; the failure here is deliberate
and documented, not a regression.
"""

import random
from math import comb
from pathlib import Path
from time import perf_counter

from conftest import record

from mspotty.code import ByteLayout, GeneratorMatrix, Word, dual, load_matrix, span
from mspotty.macwilliams import enumerator_from_distribution, f_poly, transform
from mspotty.oracle import campaign, partition_uniqueness_search
from mspotty.polynomial import Polynomial
from mspotty.ring import RingElement, partition, satisfies_partition_axioms
from mspotty.weight import (
    distribution,
    enumerator,
    hamming_weight,
    m_spotty_distance,
    m_spotty_weight,
)

DATA = Path(__file__).parent / "data"
EXAMPLE = DATA / "worked_example.txt"

KERNELS_342 = [
    Polynomial({0: 1, 1: 720, 2: 3375}),
    Polynomial({0: 1, 1: 224, 2: -225}),
    Polynomial({0: 1, 1: -16, 2: 15}),
    Polynomial({0: 1, 2: -1}),
]
WORKED_DISTRIBUTION = {
    (2, 0, 0, 0): 1,
    (0, 2, 0, 0): 18,
    (0, 0, 2, 0): 88,
    (0, 0, 0, 2): 104,
    (1, 1, 0, 0): 3,
    (1, 0, 1, 0): 7,
    (1, 0, 0, 1): 5,
    (0, 1, 1, 0): 72,
    (0, 1, 0, 1): 58,
    (0, 0, 1, 1): 156,
}
WORKED_W = Polynomial({0: 1, 1: 10, 2: 183, 3: 214, 4: 104})
WORKED_W_DUAL = Polynomial({0: 1, 1: 85, 2: 3153, 3: 9707, 4: 19822})


def _verdict(n: int, ok: bool, detail: str) -> None:
    record(f"ACC-{n} {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_1_kernel_table():
    f_poly(0, 1, 1, 1)  # warm-up outside the timed region
    t0 = perf_counter()
    kernels = [f_poly(j, 3, 4, 2) for j in range(4)]
    dt = perf_counter() - t0
    ok = kernels == KERNELS_342 and dt < 1e-3
    _verdict(1, ok, f"kernel table (b=3, m=4, t=2) exact in {dt * 1e6:.0f} us")
    assert kernels == KERNELS_342
    assert dt < 1e-3


def test_criterion_2_span_and_distribution():
    G = load_matrix(EXAMPLE)
    t0 = perf_counter()
    C = span(G)
    dist = distribution(C)
    dt = perf_counter() - t0
    ok = len(C) == 512 and dict(dist.items()) == WORKED_DISTRIBUTION and dt < 1.0
    _verdict(2, ok, f"|C| = {len(C)}, all 10 alpha rows exact in {dt:.2f} s")
    assert len(C) == 512
    assert dict(dist.items()) == WORKED_DISTRIBUTION
    assert dt < 1.0


def test_criterion_3_transform():
    C = span(load_matrix(EXAMPLE))
    W_dual = transform(distribution(C), len(C))
    ok = W_dual == WORKED_W_DUAL
    _verdict(3, ok, f"transform gives {W_dual}")
    assert W_dual == WORKED_W_DUAL


def test_criterion_4_bruteforce_dual_scan():
    G = load_matrix(EXAMPLE)
    assert 1 << (G.m * G.layout.N) == 16_777_216
    t0 = perf_counter()
    Cd = dual(G, workers=1, method="scan")
    dt1 = perf_counter() - t0
    t0 = perf_counter()
    Cd8 = dual(G, workers=8, method="scan")
    dt8 = perf_counter() - t0
    W_scan = enumerator(Cd)
    ok = (
        len(Cd) == 32768
        and Cd8.codewords == Cd.codewords
        and W_scan == WORKED_W_DUAL
        and dt1 < 120.0
        and dt8 < 30.0
    )
    _verdict(
        4,
        ok,
        f"16^6 scan: {len(Cd)} dual words, enumerator matches; "
        f"{dt1:.1f} s @1 worker, {dt8:.1f} s @8 workers",
    )
    assert len(Cd) == 32768
    assert Cd8.codewords == Cd.codewords
    assert W_scan == WORKED_W_DUAL
    assert dt1 < 120.0
    assert dt8 < 30.0


def test_criterion_5_enumerator_three_way_agreement():
    G = load_matrix(EXAMPLE)
    C = span(G)
    dist = distribution(C)
    direct = enumerator(C)
    regrouped = enumerator_from_distribution(dist)
    Cd = dual(G)
    inverse = transform(distribution(Cd), len(Cd))
    ok = direct == WORKED_W and regrouped == WORKED_W and inverse == WORKED_W
    _verdict(
        5,
        ok,
        f"W(z) = {direct} by direct, regrouped and inverse-transform routes; "
        "top term 104z^4 (a circulated 104z^6 exceeds the weight ceiling 4)",
    )
    assert direct == WORKED_W
    assert regrouped == WORKED_W
    assert inverse == WORKED_W


def test_criterion_6_identity_campaign():
    t0 = perf_counter()
    reports = campaign(ms=(2, 3, 4), bs=(1, 2, 3), samples=100, seed=0)
    dt = perf_counter() - t0
    failures = [r for r in reports if not r.passed]
    ok = not failures and dt < 60.0
    _verdict(
        6, ok, f"{len(reports)} identity cells, {len(failures)} failures, {dt:.1f} s"
    )
    assert failures == []
    assert dt < 60.0


def test_criterion_7_partition_checks():
    axioms_ok = all(
        satisfies_partition_axioms(m, partition(m)[0]) for m in range(2, 9)
    )
    canonical_ok = partition(4)[0] == frozenset(RingElement(4, i) for i in range(8))
    counts = {m: partition_uniqueness_search(m) for m in (2, 3, 4)}
    unique_ok = counts == {2: 1, 3: 1, 4: 1}
    ok = axioms_ok and canonical_ok and unique_ok
    _verdict(
        7,
        ok,
        f"axioms hold for m=2..8; m=4 split is the canonical one; "
        f"uniqueness counts {counts} (criterion expects all 1)",
    )
    assert axioms_ok
    assert canonical_ok
    # Deliberately faithful to the stated criterion.  The search is correct:
    # the axioms admit 2^(m-2) splits (any index-2 additive subgroup that
    # contains 0 and 1, avoids u^(m-1), and cuts units, non-units and every
    # nonzero ideal in half), so for m = 3 and m = 4 this assert fails.
    assert unique_ok, (
        f"uniqueness search found {counts}; the axioms admit 2^(m-2) valid "
        "splits, so exactly-one is unattainable for m >= 3"
    )


def test_criterion_8_duality_cardinality_and_round_trip():
    rng = random.Random(2024)
    done = 0
    while done < 20:
        m = rng.randrange(1, 4)
        b = rng.randrange(1, 4)
        n = rng.randrange(1, 3)
        if b * n > 4:
            continue
        lay = ByteLayout(b=b, t=rng.randrange(1, b + 1), n=n)
        rows = [
            tuple(RingElement(m, rng.randrange(1 << m)) for _ in range(lay.N))
            for _ in range(rng.randrange(0, 3))
        ]
        G = GeneratorMatrix(rows, lay, m=m)
        C = span(G)
        Cd = dual(G)
        assert len(C) * len(Cd) == 1 << (m * lay.N)
        assert transform(distribution(C), len(C)) == enumerator(Cd)
        assert transform(distribution(Cd), len(Cd)) == enumerator(C)
        done += 1
    _verdict(8, True, f"{done} random codes: |C|*|C-dual| = |R|^N and "
                      "double transform is the identity")


def test_criterion_9_metric_axioms_and_t1_reduction():
    rng = random.Random(77)
    checked = 0
    for _ in range(1000):
        m = rng.randrange(1, 5)
        b = rng.randrange(1, 5)
        n = rng.randrange(1, 4)
        lay = ByteLayout(b=b, t=rng.randrange(1, b + 1), n=n)

        def rand_word():
            return Word.from_bits(
                [rng.randrange(1 << m) for _ in range(lay.N)], m, lay
            )

        x, y, z = rand_word(), rand_word(), rand_word()
        assert m_spotty_distance(x, y) >= 0
        assert (m_spotty_distance(x, y) == 0) == (x == y)
        assert m_spotty_distance(x, y) == m_spotty_distance(y, x)
        assert m_spotty_distance(x, z) <= (
            m_spotty_distance(x, y) + m_spotty_distance(y, z)
        )
        checked += 1
    reduced = 0
    for _ in range(1000):
        m = rng.randrange(1, 5)
        b = rng.randrange(1, 5)
        lay = ByteLayout(b=b, t=1, n=rng.randrange(1, 4))
        w = Word.from_bits([rng.randrange(1 << m) for _ in range(lay.N)], m, lay)
        assert m_spotty_weight(w) == hamming_weight(w)
        reduced += 1
    _verdict(
        9, True, f"metric axioms on {checked} triples; t=1 equals Hamming on "
                 f"{reduced} words"
    )
