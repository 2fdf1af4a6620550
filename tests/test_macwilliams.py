"""Kernel polynomials and the duality transform, exact throughout."""

import random
import tracemalloc
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mspotty import macwilliams
from mspotty.code import ByteLayout, GeneratorMatrix, dual, load_matrix, span
from mspotty.errors import BudgetError, IntegrityError, ParameterError
from mspotty.macwilliams import (
    enumerator_from_distribution,
    f_poly,
    kernel_table,
    transform,
)
from mspotty.oracle import scan_dual
from mspotty.polynomial import Polynomial
from mspotty.ring import RingElement
from mspotty.weight import DistributionTable, distribution, enumerator, hamming_weight

DATA = Path(__file__).parent / "data"

# the four kernel rows for (b, m, t) = (3, 4, 2), frozen
KERNELS_342 = [
    Polynomial({0: 1, 1: 720, 2: 3375}),
    Polynomial({0: 1, 1: 224, 2: -225}),
    Polynomial({0: 1, 1: -16, 2: 15}),
    Polynomial({0: 1, 2: -1}),
]
WORKED_W = Polynomial({0: 1, 1: 10, 2: 183, 3: 214, 4: 104})
WORKED_W_DUAL = Polynomial({0: 1, 1: 85, 2: 3153, 3: 9707, 4: 19822})


def _random_matrix(rng, m, k, layout):
    rows = [
        tuple(RingElement(m, rng.randrange(1 << m)) for _ in range(layout.N))
        for _ in range(k)
    ]
    return GeneratorMatrix(rows, layout, m=m)


def test_kernel_table_342():
    for j, expected in enumerate(KERNELS_342):
        assert f_poly(j, 3, 4, 2) == expected


def test_kernel_binary_single_bit():
    assert f_poly(0, 1, 1, 1) == Polynomial({0: 1, 1: 1})
    assert f_poly(1, 1, 1, 1) == Polynomial({0: 1, 1: -1})


def test_kernel_constant_term_is_one():
    for m in (1, 2, 4):
        for b in (1, 2, 3):
            for t in range(1, b + 1):
                for j in range(b + 1):
                    assert f_poly(j, b, m, t).coeff(0) == 1


def test_kernel_values_at_one():
    # F_0(1) counts the whole byte space; F_j(1) vanishes for j >= 1
    for m in (1, 2, 3, 4):
        for b in (1, 2, 3):
            for t in range(1, b + 1):
                assert f_poly(0, b, m, t)(1) == 1 << (m * b)
                for j in range(1, b + 1):
                    assert f_poly(j, b, m, t)(1) == 0


def test_kernel_validation():
    with pytest.raises(ParameterError):
        f_poly(4, 3, 4, 2)
    with pytest.raises(ParameterError):
        f_poly(-1, 3, 4, 2)
    with pytest.raises(ParameterError):
        f_poly(0, 3, 4, 4)
    with pytest.raises(ParameterError):
        f_poly(0, 3, 0, 2)


def test_enumerator_from_distribution_matches_direct():
    rng = random.Random(71)
    for _ in range(25):
        m = rng.randrange(1, 3)
        b = rng.randrange(1, 3)
        lay = ByteLayout(b=b, t=rng.randrange(1, b + 1), n=rng.randrange(1, 3))
        C = span(_random_matrix(rng, m, rng.randrange(0, 3), lay))
        assert enumerator_from_distribution(distribution(C)) == enumerator(C)


def test_transform_worked_example():
    C = span(load_matrix(DATA / "worked_example.txt"))
    W_dual = transform(distribution(C), len(C))
    assert W_dual == WORKED_W_DUAL
    assert W_dual(1) == 32768


def test_transform_inverse_recovers_primal():
    G = load_matrix(DATA / "worked_example.txt")
    C = span(G)
    Cd = dual(G)
    assert transform(distribution(Cd), len(Cd)) == WORKED_W
    assert transform(distribution(C), len(C)) == enumerator(Cd)


def test_transform_round_trip_random():
    rng = random.Random(83)
    done = 0
    while done < 12:
        m = rng.randrange(1, 3)
        lay = ByteLayout(b=2, t=rng.randrange(1, 3), n=rng.randrange(1, 3))
        G = _random_matrix(rng, m, rng.randrange(0, 3), lay)
        C = span(G)
        Cd = dual(G)
        assert len(C) * len(Cd) == 1 << (m * lay.N)
        assert transform(distribution(C), len(C)) == enumerator(Cd)
        assert transform(distribution(Cd), len(Cd)) == enumerator(C)
        done += 1


def test_transform_full_space_and_zero_code():
    lay = ByteLayout(b=2, t=1, n=1)
    zero_code = span(GeneratorMatrix([], lay, m=2))
    full = dual(GeneratorMatrix([], lay, m=2))
    assert transform(distribution(full), len(full)) == Polynomial.one()
    assert transform(distribution(zero_code), 1) == enumerator(full)


def test_transform_bad_code_size():
    C = span(load_matrix(DATA / "worked_example.txt"))
    dist = distribution(C)
    with pytest.raises(IntegrityError):
        transform(dist, 511)  # does not divide the accumulated sum
    with pytest.raises(ParameterError):
        transform(dist, 0)


def test_transform_code_size_is_an_int():
    """code_size is read through `operator.index`: a numpy integer passes,
    a float or str is refused rather than giving float coefficients."""
    C = span(load_matrix(DATA / "worked_example.txt"))
    dist = distribution(C)
    assert transform(dist, np.int64(len(C))) == WORKED_W_DUAL
    for bad in [float(len(C)), str(len(C))]:
        with pytest.raises(ParameterError):
            transform(dist, bad)


# --- the trie transform against independent routes ---------------------------


def _direct_sum_table(rng, m, b, t, n):
    """Alpha table, size and dual enumerator of a byte-wise direct sum of n
    random one-byte codes.  The table convolves per-byte Hamming-weight
    histograms; the dual enumerator multiplies the per-byte enumerators of
    the scanned duals, so neither goes through `transform`."""
    counts = {(0,) * (b + 1): 1}
    size, W_dual = 1, Polynomial.one()
    for _ in range(n):
        G = _random_matrix(rng, m, rng.randrange(1, 3), ByteLayout(b=b, t=t, n=1))
        hist = [0] * (b + 1)
        for w in span(G):
            hist[hamming_weight(w)] += 1
        grown = {}
        for alpha, c in counts.items():
            for h, ch in enumerate(hist):
                if ch:
                    key = alpha[:h] + (alpha[h] + 1,) + alpha[h + 1 :]
                    grown[key] = grown.get(key, 0) + c * ch
        counts = grown
        size *= sum(hist)
        W_dual = W_dual * enumerator(scan_dual(G))
    return DistributionTable(counts, ByteLayout(b=b, t=t, n=n), m), size, W_dual


def _with_kernels(table, m, t):
    """The same rows and counts as a table of ring exponent m and spotty
    parameter t, so `transform` folds them with the kernels of (b, m, t)."""
    layout = ByteLayout(table.layout.b, t, table.layout.n)
    return DistributionTable(dict(table.items()), layout, m)


def _per_row_reference(dist, m, t):
    """The literal sum over rows of count * prod_j F_j^alpha_j."""
    b = dist.layout.b
    kernels = [f_poly(j, b, m, t) for j in range(b + 1)]
    acc = Polynomial.zero()
    for alpha, count in dist.items():
        prod = Polynomial.one()
        for j, aj in enumerate(alpha):
            prod = prod * kernels[j] ** aj
        acc = acc + prod.scale(count)
    return acc


@pytest.mark.parametrize("m,b,t,n", [(2, 3, 2, 6), (1, 4, 3, 8)])
def test_transform_direct_sum_matches_scanned_duals(m, b, t, n):
    table, size, W_dual = _direct_sum_table(random.Random(f"{m}{b}{t}{n}"), m, b, t, n)
    assert len(table) > 2 * n  # rows share prefixes
    assert transform(table, size) == W_dual
    with pytest.raises(IntegrityError):
        transform(table, 2 * size)  # W_dual has constant term 1, not even


def test_transform_kernel_overrides_match_per_row_product():
    """One table's rows folded with the kernels of several (m, t)."""
    table, size, _ = _direct_sum_table(random.Random(5), 2, 3, 2, 4)
    for m, t in ((1, 1), (2, 1), (3, 2), (4, 3)):
        got = transform(_with_kernels(table, m, t), 1)
        assert got == _per_row_reference(table, m, t)


def _compositions(n, b):
    """Every alpha vector (alpha_0, ..., alpha_b) with sum n, in lex order."""
    if b == 0:
        return [(n,)]
    return [(a,) + rest for a in range(n + 1) for rest in _compositions(n - a, b - 1)]


def test_transform_multiplies_once_per_trie_edge(monkeypatch):
    b, n = 4, 10
    rows = {alpha: comb(n, alpha[b]) + i for i, alpha in enumerate(_compositions(n, b))}
    table = DistributionTable(rows, ByteLayout(b=b, t=2, n=n), 2)
    assert len(table) == 1001
    # the trie stops at depth b - 1; below it a row multiplies its count by
    # the monomial of its last two entries, built once per distinct pair
    edges = len({alpha[:d] for alpha in rows for d in range(1, b)})
    pairs = len({alpha[b - 1 :] for alpha in rows})
    assert pairs == 66
    power_builds = sum(max(alpha[j] for alpha in rows) for j in range(b + 1))
    expected = _per_row_reference(table, 2, 2)

    # every multiply the fold does has a Counted operand: its bases are
    # Counted, and so is every product and sum built from them
    class Counted(int):
        def __mul__(self, other):
            calls[-1] += 1
            return Counted(int(self) * int(other))

        __rmul__ = __mul__

        def __add__(self, other):
            return Counted(int(self) + int(other))

        __radd__ = __add__

    calls = []
    fold = macwilliams._fold

    def counting_fold(alphas, counts, bases):
        calls.append(0)
        return fold(alphas, counts, [Counted(x) for x in bases])

    poly_muls = []
    poly_mul = Polynomial.__mul__

    def counting_mul(self, other):
        poly_muls.append(1)
        return poly_mul(self, other)

    monkeypatch.setattr(macwilliams, "_fold", counting_fold)
    monkeypatch.setattr(Polynomial, "__mul__", counting_mul)
    got = transform(table, 1)
    monkeypatch.undo()
    assert got == expected
    # one fold, for the packed sum (the slot width comes from `_slot_bound`);
    # it does at most one multiply per trie edge above depth b - 1, one per
    # distinct pair, one count per row and the powers
    assert len(calls) == 1
    assert 0 < calls[0] <= edges + pairs + len(rows) + power_builds
    assert poly_muls == []


def test_transform_builds_no_balanced_product_at_b_2(monkeypatch):
    """At b <= 2 a row costs one multiply of its count by F_b^alpha_b and
    one Horner step, and neither multiplies two large values: every multiply
    has an operand no wider than the widest kernel value.  A monomial
    F_{b-1}^x * F_b^y built per row would break both the operand check and,
    on this small dense table, the count bound, which leaves no room for a
    third multiply per row."""
    b, n = 2, 5
    rows = {alpha: 1 + alpha[1] + 7 * i for i, alpha in enumerate(_compositions(n, b))}
    table = DistributionTable(rows, ByteLayout(b=b, t=2, n=n), 2)
    edges = len({alpha[:d] for alpha in rows for d in range(1, b)})
    power_builds = sum(max(alpha[j] for alpha in rows) for j in range(b + 1))
    calls, widths = [0], []

    class Counted(int):
        def __mul__(self, other):
            calls[0] += 1
            widths.append(min(int(self).bit_length(), int(other).bit_length()))
            return Counted(int(self) * int(other))

        __rmul__ = __mul__

        def __add__(self, other):
            return Counted(int(self) + int(other))

        __radd__ = __add__

    fold = macwilliams._fold
    base_widths = []

    def counting_fold(alphas, counts, bases):
        base_widths.extend(x.bit_length() for x in bases)
        return fold(alphas, counts, [Counted(x) for x in bases])

    monkeypatch.setattr(macwilliams, "_fold", counting_fold)
    got = transform(table, 1)
    monkeypatch.undo()
    assert got == _per_row_reference(table, 2, 2)
    assert 0 < calls[0] <= edges + len(rows) + power_builds
    assert max(widths) <= max(base_widths)


# --- dense tables, whose rows share their last two entries ---------------------


@st.composite
def _composition_tables(draw):
    """Full or randomly thinned tables of the compositions of n into b + 1
    entries (counts up to 2^200), of any m and t.  At most 300 rows keep
    the per-row reference cheap."""
    b = draw(st.integers(1, 6))
    n = draw(st.integers(1, 8))
    rng = draw(st.randoms(use_true_random=False))
    alphas = _compositions(n, b)
    if not (draw(st.booleans()) and len(alphas) <= 300):
        alphas = rng.sample(alphas, draw(st.integers(1, min(len(alphas), 300))))
    counts = {alpha: rng.randrange(1, 2 << rng.randrange(200)) for alpha in alphas}
    layout = ByteLayout(b=b, t=draw(st.integers(1, b)), n=n)
    return DistributionTable(counts, layout, draw(st.integers(1, 16)))


@settings(max_examples=80, deadline=None)
@given(_composition_tables())
def test_transform_dense_tables_match_per_row_reference_property(table):
    want = _per_row_reference(table, table.m, table.layout.t)
    assert transform(table, 1) == want


@pytest.mark.parametrize(
    "b,n,alphas",
    [
        (1, 8, _compositions(8, 1)),  # a pair is the whole row
        (2, 8, _compositions(8, 2)),  # a pair fixes the row
        (4, 6, [(1, 0, 2, 3, 0)]),
        (4, 8, [alpha + (2, 1) for alpha in _compositions(5, 2)]),  # one pair
        # Full compositions give every node a child with alpha_j = 0 and
        # consecutive exponents; these sparse rows reach F_j^gap with
        # gap > 1 and a trailing F_j^a_min.  Node (1,) has children
        # alpha_1 in {3, 1}: a gap of 2, then a trailing F_1^1.
        (3, 4, [(1, 3, 0, 0), (1, 1, 2, 0)]),
        # the root's children alpha_0 in {5, 2} and those of node (2,),
        # alpha_1 in {4, 1}: gaps of 3, then trailing F_0^2 and F_1^1
        (4, 9, [(5, 1, 1, 1, 1), (5, 0, 3, 1, 0), (2, 4, 1, 1, 1), (2, 1, 4, 1, 1)]),
        # the Horner leaf of b <= 2: alpha_1 in {6, 3, 1} under alpha_0 = 1
        (2, 7, [(1, 6, 0), (1, 3, 3), (1, 1, 5), (4, 3, 0)]),
        (1, 9, [(9, 0), (6, 3), (1, 8)]),  # gaps 3 and 5, a trailing F_0^1
        (1, 256, [(256, 0), (100, 156), (3, 253)]),  # n > 255: a uint16 matrix
    ],
    ids=[
        "b1", "b2", "one-row", "one-pair",
        "b3-gap", "b4-trailing", "b2-gap", "b1-gap", "n256",
    ],
)
def test_transform_dense_cases_match_per_row_reference(b, n, alphas):
    counts = {alpha: 1 + i * (1 << 190) for i, alpha in enumerate(alphas)}
    table = DistributionTable(counts, ByteLayout(b=b, t=1, n=n), 2)
    for m, t in ((2, 1), (3, 1), (16, b)):
        got = transform(_with_kernels(table, m, t), 1)
        assert got == _per_row_reference(table, m, t)


def test_transform_keeps_no_monomial_at_b_2():
    """At b = 2 no two rows share a pair (alpha_1, alpha_2), so the fold
    builds no pair monomial: a row's value is count * F_2^alpha_2, and each
    node over alpha_0 sums its rows by Horner's rule over alpha_1, one
    multiply by F_1 per step.  On this dense m=1, n=120 table (7,381 rows)
    the traced peak of `transform` is about 0.6 MB; keeping a monomial per
    row would raise it to about 21 MB."""
    n = 120
    rows = {alpha: 1 + alpha[1] for alpha in _compositions(n, 2)}
    table = DistributionTable(rows, ByteLayout(b=2, t=2, n=n), 1)
    tracemalloc.start()
    try:
        W = transform(table, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # F_0(1) = 2^(m*b) and F_j(1) = 0 for j >= 1: only the row (n, 0, 0) counts
    assert W(1) == rows[(n, 0, 0)] << (2 * n)
    assert peak < 6 << 20


# --- the packed sum: signs, large counts and the slot width --------------------


@st.composite
def _tables(draw):
    """Random alpha tables (positive counts up to 2^200) of any m and t."""
    b = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    t = draw(st.integers(1, b))
    m = draw(st.integers(1, 16))

    def split(cuts):  # b cut points in [0, n] split n into b + 1 entries
        ends = sorted(cuts) + [n]
        return tuple(hi - lo for lo, hi in zip([0] + ends, ends))

    alphas = st.lists(st.integers(0, n), min_size=b, max_size=b).map(split)
    counts = draw(
        st.dictionaries(
            alphas,
            st.integers(1, 1 << 200),
            min_size=1,
            max_size=12,
        )
    )
    return DistributionTable(counts, ByteLayout(b=b, t=t, n=n), m)


@settings(max_examples=200, deadline=None)
@given(_tables(), st.integers(1, 1 << 70))
def test_transform_matches_per_row_reference_property(table, d):
    numerator = _per_row_reference(table, table.m, table.layout.t)
    assume(any(c < 0 for _, c in numerator.terms()))
    assert transform(table, 1) == numerator
    scaled = DistributionTable(
        {alpha: c * d for alpha, c in table.items()}, table.layout, table.m
    )
    assert transform(scaled, d) == numerator


def _adversarial(mixed_sign):
    """m=16, b=1, t=1: F_0 = 1 + (2^16 - 1)z and F_1 = 1 - z.  The top
    coefficient of 2^100 * F_0^n is within a factor 2 of the bound
    B = sum of count * ||F_j||_1^alpha_j, so a slot one bit too narrow must
    fail.  The mixed-sign table adds 2^200 * F_1^n, which makes every odd
    coefficient of the numerator negative."""
    n = 12
    rows = {(n, 0): 1 << 100}
    if mixed_sign:
        rows[(0, n)] = 1 << 200
    want, bound = {}, 0
    for (a0, _), count in rows.items():
        root, norm = (0xFFFF, 1 << 16) if a0 else (-1, 2)
        for e in range(n + 1):
            want[e] = want.get(e, 0) + count * comb(n, e) * root**e
        bound += count * norm**n
    table = DistributionTable(rows, ByteLayout(b=1, t=1, n=n), 16)
    return table, Polynomial(want), bound


@pytest.mark.parametrize("mixed_sign", [False, True])
def test_transform_adversarial_slot_width(mixed_sign):
    table, want, bound = _adversarial(mixed_sign)
    assert 2 * max(abs(c) for _, c in want.terms()) > bound
    assert any(c < 0 for _, c in want.terms()) == mixed_sign
    assert transform(table, 1) == want
    with pytest.raises(IntegrityError):
        transform(table, 3)  # the constant term is a power of 2


# --- t = 1: the kernels factor, an independent route --------------------------


def _binomial_route(table, m):
    """The numerator at t = 1 without the trie or the kernel table.  There
    F_j(z) = (1 - z)^j (1 + (2^m - 1)z)^(b - j) exactly, so a row
    contributes count * (1 - z)^w (1 + (2^m - 1)z)^(nb - w) with
    w = sum_j j * alpha_j, and the rows are summed by w first."""
    b, n = table.layout.b, table.layout.n
    by_w = {}
    for alpha, count in table.items():
        w = sum(j * a for j, a in enumerate(alpha))
        by_w[w] = by_w.get(w, 0) + count
    down, up = [Polynomial.one()], [Polynomial.one()]
    for _ in range(n * b):
        down.append(down[-1] * Polynomial({0: 1, 1: -1}))
        up.append(up[-1] * Polynomial({0: 1, 1: (1 << m) - 1}))
    total = Polynomial.zero()
    for w, count in by_w.items():
        total = total + (down[w] * up[n * b - w]).scale(count)
    return total


@settings(max_examples=100, deadline=None)
@given(st.one_of(_tables(), _composition_tables()))
def test_transform_at_t_1_matches_binomial_route_property(table):
    got = transform(_with_kernels(table, table.m, 1), 1)
    assert got == _binomial_route(table, table.m)


def test_transform_dense_b_2_matches_binomial_route():
    """The dense m=1, b=2, n=120 table of the b = 2 test, folded with the
    t = 1 kernels: 7,381 rows through the Horner leaf."""
    n = 120
    rows = {alpha: 1 + alpha[1] for alpha in _compositions(n, 2)}
    table = DistributionTable(rows, ByteLayout(b=2, t=2, n=n), 1)
    assert transform(_with_kernels(table, 1, 1), 1) == _binomial_route(table, 1)


# --- the slot bound ---------------------------------------------------------


def _norms_and_literal_bound(table, m, t):
    """The kernels' l1 norms and B = sum over rows of
    count * prod_j ||F_j||_1^alpha_j, computed row by row."""
    b = table.layout.b
    norms = [sum(abs(c) for _, c in f_poly(j, b, m, t).terms()) for j in range(b + 1)]
    B = 0
    for alpha, count in table.items():
        for x, a in zip(norms, alpha):
            count *= x**a
        B += count
    return norms, B


def _assert_slot_bound_covers_B(table):
    norms, B = _norms_and_literal_bound(table, table.m, table.layout.t)
    bound = macwilliams._slot_bound(table.alphas[::-1], table.counts[::-1], norms)
    assert bound >= B
    assert bound.bit_length() <= B.bit_length() + 3
    return norms


def _one_row(m, b, t, alpha, count):
    layout = ByteLayout(b=b, t=t, n=sum(alpha))
    return DistributionTable({alpha: count}, layout, m)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_tables(), _composition_tables()))
# a count just below a power of 2 leaves bitlen(count) almost no slack, so
# only log2 of the norms rounded up keeps this bound >= B
@example(_one_row(2, 3, 1, (0, 4, 1, 0), (1 << 200) - 1))
# bitlen(count), the ceiling and the norms' logs all round up by nearly
# their most here: B has 21 bits, the bound 24
@example(_one_row(1, 6, 3, (0, 1, 0, 3, 0, 0, 2), 1))
def test_slot_bound_covers_B_property(table):
    _assert_slot_bound_covers_B(table)


@pytest.mark.parametrize(
    "m,b,t,rows",
    [
        (4, 3, 2, {(1, 0, 2, 0): 7}),
        (3, 1, 1, {(5, 0): 1 << 40, (2, 3): 3, (0, 5): 1}),
        (16, 40, 1, {(1,) + (0,) * 19 + (1,) + (0,) * 19 + (1,): 5}),
    ],
    ids=["one-row", "b1", "m16-b40"],
)
def test_slot_bound_edge_cases(m, b, t, rows):
    """One row; b = 1, where F_1 = 1 - z has norm 2; and m=16, b=40, where
    ||F_0||_1 = 2^640 and the norms' logs come from their top bits."""
    table = DistributionTable(rows, ByteLayout(b=b, t=t, n=sum(next(iter(rows)))), m)
    norms = _assert_slot_bound_covers_B(table)
    assert norms[0] == 1 << (m * b)
    assert transform(table, 1) == _per_row_reference(table, m, t)


def test_transform_of_an_empty_table_is_zero():
    table = DistributionTable({}, ByteLayout(b=3, t=2, n=2), 2)
    norms, B = _norms_and_literal_bound(table, 2, 2)
    assert B == macwilliams._slot_bound(table.alphas[::-1], table.counts[::-1], norms) == 0
    assert transform(table, 1) == Polynomial.zero()


@st.composite
def _small_codes(draw):
    """Up to 3 rows with m*N <= 12, so the exhaustive dual scan stays cheap."""
    m = draw(st.integers(1, 3))
    b = draw(st.integers(1, 12 // m))
    n = draw(st.integers(1, 12 // (m * b)))
    t = draw(st.integers(1, b))
    element = st.integers(0, (1 << m) - 1).map(lambda x: RingElement(m, x))
    rows = draw(
        st.lists(st.lists(element, min_size=b * n, max_size=b * n), max_size=3)
    )
    return GeneratorMatrix(rows, ByteLayout(b=b, t=t, n=n), m=m)


@settings(max_examples=60, deadline=None)
@given(_small_codes())
def test_transform_matches_scanned_dual_property(G):
    C = span(G)
    Cd = scan_dual(G)
    assert transform(distribution(C), len(C)) == enumerator(Cd)
    assert transform(distribution(Cd), len(Cd)) == enumerator(C)


def test_kernel_table_guards_its_term_count(monkeypatch):
    """F_j has (j+1)(b-j+1) terms before merging: C(b+3, 3) in all.  The
    guard admits exactly the tables within the cap, and checks t first."""
    assert all(
        sum((j + 1) * (b - j + 1) for j in range(b + 1)) == comb(b + 3, 3)
        for b in range(40)
    )
    monkeypatch.setattr(macwilliams, "KERNEL_TERM_BUDGET", comb(5 + 3, 3))
    assert kernel_table(5, 4, 2) == [f_poly(j, 5, 4, 2) for j in range(6)]
    with pytest.raises(BudgetError, match="requires 84 > budget 56"):
        kernel_table(6, 4, 2)
    with pytest.raises(ParameterError, match="need 1 <= t <= b=99, got t=100"):
        kernel_table(99, 4, 100)
    assert kernel_table(-1, 4, 1) == []
    # transform takes its kernels from the same guarded table
    table = DistributionTable({(1, 0, 0, 0, 0, 0, 0): 1}, ByteLayout(b=6, t=2, n=1), 4)
    with pytest.raises(BudgetError, match="requires 84 > budget 56"):
        transform(table, 1)


def test_transform_builds_each_kernel_table_once(monkeypatch):
    """Repeated transforms of one (b, m, t) build its b + 1 kernels once;
    `kernel_table` still hands out a new list each call."""
    real = macwilliams.f_poly
    built = []

    def counted(j, b, m, t):
        built.append((j, b, m, t))
        return real(j, b, m, t)

    C = span(load_matrix(DATA / "worked_example.txt"))
    dist, b = distribution(C), C.layout.b
    macwilliams._kernels.cache_clear()
    monkeypatch.setattr(macwilliams, "f_poly", counted)
    first = transform(dist, len(C))
    assert len(built) == b + 1
    for _ in range(3):
        assert transform(dist, len(C)) == first
    assert len(built) == b + 1
    kernels = kernel_table(b, C.m, C.layout.t)
    kernels.append(None)
    assert kernel_table(b, C.m, C.layout.t) == kernels[:-1]
    assert len(built) == b + 1
    kernel_table(b, C.m, 1)  # another t: its own kernels
    assert len(built) == 2 * (b + 1)


def test_kernel_cache_keeps_the_term_guard(monkeypatch):
    """A warm cache does not bypass `KERNEL_TERM_BUDGET`: the guard runs on
    every call, before the cache is read."""
    table = DistributionTable({(1, 0, 0, 0, 0, 0, 0): 1}, ByteLayout(b=6, t=2, n=1), 4)
    want = transform(table, 1)
    monkeypatch.setattr(macwilliams, "KERNEL_TERM_BUDGET", comb(5 + 3, 3))
    with pytest.raises(BudgetError, match="requires 84 > budget 56"):
        transform(table, 1)
    with pytest.raises(BudgetError, match="requires 84 > budget 56"):
        kernel_table(6, 4, 2)
    monkeypatch.setattr(macwilliams, "KERNEL_TERM_BUDGET", comb(6 + 3, 3))
    assert transform(table, 1) == want
