"""Acceptance gate: one test per criterion, one printed line per result.

Criterion 7 checks the exact solution set of the partition axioms: for
m = 2, 3, 4 the search finds precisely the 2^(m-2) kernels of the linear
forms f with f(1) = 0 and f(u^(m-1)) = 1 (one split for m = 2).  For m >= 3
the automorphism u -> u + u^(m-1) maps the canonical split to a different
valid one, so the axioms cannot single out exactly one split.
"""

import random
from math import comb
from pathlib import Path
from time import perf_counter

from conftest import record

from mspotty.code import ByteLayout, GeneratorMatrix, Word, dual, load_matrix, span
from mspotty.macwilliams import enumerator_from_distribution, f_poly, transform
from mspotty.oracle import campaign, find_valid_partitions, scan_dual
from mspotty.polynomial import Polynomial
from mspotty.ring import (
    RingElement,
    elements,
    monomial,
    one,
    partition,
    satisfies_partition_axioms,
    zero,
)
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
    Cd = scan_dual(G, workers=1)
    dt1 = perf_counter() - t0
    t0 = perf_counter()
    Cd8 = scan_dual(G, workers=8)
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


def _linear_form_kernels(m):
    """Kernels A_f of the F2-linear forms f(x) = parity(x.bits & mask) with
    f(1) = 0 and f(u^(m-1)) = 1; there are 2^(m-2) of them."""
    top = 1 << (m - 1)
    return {
        frozenset(x for x in elements(m) if (x.bits & mask).bit_count() % 2 == 0)
        for mask in range(1 << m)
        if not mask & 1 and mask & top
    }


def _substitute(x, image_of_u):
    """Image of x = sum r_i u^i under the ring map sending u to image_of_u."""
    acc, power = zero(x.m), one(x.m)
    for i in range(x.m):
        if x.coeff(i):
            acc = acc + power
        power = power * image_of_u
    return acc


def test_criterion_7_partition_checks():
    axioms_ok = all(
        satisfies_partition_axioms(m, partition(m)[0]) for m in range(2, 9)
    )
    canonical_ok = partition(4)[0] == frozenset(RingElement(4, i) for i in range(8))
    found = {m: set(find_valid_partitions(m)) for m in (2, 3, 4)}
    counts = {m: len(splits) for m, splits in found.items()}
    kernels_ok = all(found[m] == _linear_form_kernels(m) for m in found)
    # For m >= 3, u -> u + u^(m-1) is a ring automorphism fixing 0, 1, the
    # units and every ideal, so it carries a valid split to a valid split.
    # It moves the canonical one, which is why no axiom set phrased in R's
    # own structure can single out exactly one split.
    images = {
        m: frozenset(
            _substitute(x, monomial(m, 1) + monomial(m, m - 1))
            for x in partition(m)[0]
        )
        for m in (3, 4)
    }
    moved_ok = all(
        images[m] != partition(m)[0] and images[m] in found[m] for m in images
    )
    ok = axioms_ok and canonical_ok and kernels_ok and moved_ok
    _verdict(
        7,
        ok,
        f"axioms hold for m=2..8; m=4 split is the canonical one; "
        f"found splits {counts} equal the 2^(m-2) linear-form kernels: "
        f"{kernels_ok}; u -> u+u^(m-1) moves the canonical split within "
        f"them for m=3,4: {moved_ok}",
    )
    assert axioms_ok
    assert canonical_ok
    assert kernels_ok, f"found {counts} splits; expected the 2^(m-2) kernels"
    assert moved_ok


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
