"""Spotty weights, alpha vectors, distribution tables, enumerators."""

import copy
import pickle
import random
import re
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import xor_closure

from mspotty import cli
from mspotty import code as code_module
from mspotty import weight as weight_module
from mspotty.code import (
    ByteLayout,
    GeneratorMatrix,
    LinearCode,
    Word,
    dual,
    load_matrix,
    span,
)
from mspotty.errors import ParameterError
from mspotty.macwilliams import transform
from mspotty.oracle import _add_row, _scan_words
from mspotty.polynomial import Polynomial
from mspotty.ring import RingElement, zero
from mspotty.weight import (
    DistributionTable,
    alpha_vector,
    distribution,
    enumerator,
    hamming_weight,
    m_spotty_distance,
    m_spotty_weight,
    minimum_distance,
    support,
    weight_from_alpha,
)

DATA = Path(__file__).parent / "data"

# ten alpha rows of the worked example, frozen after independent recomputation
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


def _random_word(rng, m, lay):
    return Word.from_bits(
        [rng.randrange(1 << m) for _ in range(lay.N)], m, lay
    )


def test_hamming_weight_and_support():
    xs = [zero(3), RingElement(3, 5), RingElement(3, 2), zero(3)]
    assert hamming_weight(xs) == 2
    assert support(xs) == (1, 2)


def test_spotty_weight_by_hand():
    lay = ByteLayout(b=3, t=2, n=2)
    # byte weights 3 and 1 -> ceil(3/2) + ceil(1/2) = 2 + 1
    w = Word.from_bits([1, 2, 4, 0, 0, 1], 3, lay)
    assert m_spotty_weight(w) == 3
    assert alpha_vector(w) == (0, 1, 0, 1)
    assert weight_from_alpha((0, 1, 0, 1), 2) == 3
    assert m_spotty_weight(Word.from_bits([0] * 6, 3, lay)) == 0


def test_weight_from_alpha_agrees_with_direct():
    rng = random.Random(19)
    for _ in range(300):
        m = rng.randrange(1, 5)
        b = rng.randrange(1, 5)
        t = rng.randrange(1, b + 1)
        lay = ByteLayout(b=b, t=t, n=rng.randrange(1, 4))
        w = _random_word(rng, m, lay)
        assert m_spotty_weight(w) == weight_from_alpha(alpha_vector(w), t)
        assert sum(alpha_vector(w)) == lay.n


def test_t_one_reduces_to_hamming():
    rng = random.Random(37)
    for _ in range(1000):
        m = rng.randrange(1, 5)
        b = rng.randrange(1, 5)
        lay = ByteLayout(b=b, t=1, n=rng.randrange(1, 4))
        w = _random_word(rng, m, lay)
        assert m_spotty_weight(w) == hamming_weight(w)


def test_weight_ceiling():
    rng = random.Random(53)
    for _ in range(200):
        b = rng.randrange(1, 5)
        t = rng.randrange(1, b + 1)
        lay = ByteLayout(b=b, t=t, n=rng.randrange(1, 4))
        w = _random_word(rng, 3, lay)
        assert 0 <= m_spotty_weight(w) <= lay.n * (-(-b // t))


def test_metric_axioms_random_triples():
    rng = random.Random(61)
    for _ in range(500):
        m = rng.randrange(1, 5)
        b = rng.randrange(1, 5)
        t = rng.randrange(1, b + 1)
        lay = ByteLayout(b=b, t=t, n=rng.randrange(1, 4))
        x, y, z = (_random_word(rng, m, lay) for _ in range(3))
        assert m_spotty_distance(x, y) >= 0
        assert (m_spotty_distance(x, y) == 0) == (x == y)
        assert m_spotty_distance(x, y) == m_spotty_distance(y, x)
        assert m_spotty_distance(x, z) <= (
            m_spotty_distance(x, y) + m_spotty_distance(y, z)
        )


def test_worked_example_distribution():
    C = span(load_matrix(DATA / "worked_example.txt"))
    dist = distribution(C)
    assert dict(dist.items()) == WORKED_DISTRIBUTION
    assert dist.total == 512
    assert len(dist) == 10
    assert dist.count((0, 0, 1, 1)) == 156
    assert dist.count((1, 0, 0, 0)) == 0  # impossible row: alphas sum to n


def test_worked_example_enumerator():
    C = span(load_matrix(DATA / "worked_example.txt"))
    assert enumerator(C) == WORKED_W
    assert minimum_distance(C) == 1


def test_distribution_items_sorted():
    C = span(load_matrix(DATA / "worked_example.txt"))
    keys = [a for a, _ in distribution(C).items()]
    assert keys == sorted(keys)


def test_distribution_table_validation():
    lay = ByteLayout(b=2, t=1, n=2)
    DistributionTable({(2, 0, 0): 1}, lay, 2)
    with pytest.raises(ParameterError):
        DistributionTable({(2, 0): 1}, lay, 2)  # wrong width
    with pytest.raises(ParameterError):
        DistributionTable({(1, 0, 0): 1}, lay, 2)  # alphas must sum to n
    with pytest.raises(ParameterError):
        DistributionTable({(2, 0, 0): 0}, lay, 2)  # counts positive
    with pytest.raises(AttributeError):
        DistributionTable({(2, 0, 0): 1}, lay, 2).m = 5


def test_distribution_table_stores_one_sorted_alpha_matrix():
    """The rows are stored once: a read-only matrix in ascending lex order,
    of the narrowest unsigned dtype that holds n, and a tuple of int
    counts, the same rows that `items` and `count` read."""
    rng = random.Random(20)
    for n, dtype in [(255, np.uint8), (256, np.uint16)]:
        rows = {}
        while len(rows) < 50:
            cuts = sorted(rng.randint(0, n) for _ in range(3))
            alpha = tuple(hi - lo for lo, hi in zip([0, *cuts], [*cuts, n]))
            rows[alpha] = rng.randint(1, 1 << 70)
        table = DistributionTable(rows, ByteLayout(b=3, t=2, n=n), 2)
        assert table.alphas.dtype == dtype and table.alphas.shape == (50, 4)
        with pytest.raises(ValueError):
            table.alphas[0, 0] = 1
        listed = list(map(tuple, table.alphas.tolist()))
        assert listed == sorted(rows)
        assert type(table.counts) is tuple
        assert all(type(c) is int for c in table.counts)
        assert list(table.items()) == list(zip(listed, table.counts))
        assert dict(table.items()) == rows
        assert all(table.count(a) == c for a, c in rows.items())
        for missing in [(-1, 0, 0, n + 1), (0, 0, 0, n + 1), (n + 1, 0, 0, 0)]:
            assert table.count(missing) == 0
    empty = DistributionTable({}, ByteLayout(b=3, t=2, n=2), 2)
    assert empty.alphas.shape == (0, 4) and empty.counts == ()
    assert list(empty.items()) == [] and empty.count((2, 0, 0, 0)) == 0


@pytest.mark.parametrize("rows, message", [
    ({(0, 0, 2): 1, (1, 1, 0): 0, (3, -1, 0): 1},
     "count for (1, 1, 0) must be positive, got 0"),
    ({(0, 0, 2): 1, (3, -1, 0): 1, (1, 1, 0): 0},
     "not a valid alpha vector: (3, -1, 0)"),
    ({(2, 0, 0): 1, (1, 0): 2}, "not a valid alpha vector: (1, 0)"),
    ({(0, 2, 0): 1, (1, 1, 0, 0): 1}, "not a valid alpha vector: (1, 1, 0, 0)"),
    ({(1 << 70, 0, 2 - (1 << 70)): 1},
     f"not a valid alpha vector: ({1 << 70}, 0, {2 - (1 << 70)})"),
    ({(0, 2, 0): 1, (258, 0, -256): 1}, "not a valid alpha vector: (258, 0, -256)"),
    ({(0, 2, 0): 1, (1, 1, 0): -1, (2, 0, 0): "x"},
     "count for (1, 1, 0) must be positive, got -1"),
    ({(0, 2, 0): 1, (2, 0, 0): "x", (1, 1, 0): -1},
     "alpha entries and counts must be ints"),
    ({(0, 2, 0): 1, ("a", 1): 1}, "alpha entries and counts must be ints"),
    ({5: 1}, "alpha entries and counts must be ints"),
])
def test_distribution_table_refuses_its_first_invalid_row(rows, message):
    """One pass in mapping order names the first invalid row at its first
    fault: integers, then width, sum and sign, then the count."""
    with pytest.raises(ParameterError, match="^" + re.escape(message)):
        DistributionTable(rows, ByteLayout(b=2, t=1, n=2), 2)


def test_distribution_table_round_trips_through_pickle_and_copy():
    C = span(load_matrix(DATA / "worked_example.txt"))
    tables = [distribution(C), DistributionTable({}, ByteLayout(b=3, t=2, n=2), 2)]
    wide = {(0, 300): 1 << 80, (300, 0): 7}
    tables.append(DistributionTable(wide, ByteLayout(b=1, t=1, n=300), 16))
    for table in tables:
        pickled = pickle.loads(pickle.dumps(table))
        for back in (pickled, copy.deepcopy(table), copy.copy(table)):
            assert type(back) is DistributionTable
            assert back == table and back.alphas.dtype == table.alphas.dtype
            assert list(back.items()) == list(table.items())
    back = pickle.loads(pickle.dumps(tables[0]))
    assert transform(back, len(C)) == transform(tables[0], len(C))


def test_distribution_table_reads_integers_through_index():
    """numpy integers count as ints; a float or str count, or a float alpha
    entry, is refused when the table is built, not left to fail inside
    `transform`."""
    C = span(load_matrix(DATA / "worked_example.txt"))
    plain = distribution(C)
    numpy_ints = {tuple(map(np.uint8, a)): np.int64(c) for a, c in plain.items()}
    table = DistributionTable(numpy_ints, C.layout, C.m)
    assert table == plain
    assert transform(table, len(C)) == transform(plain, len(C))
    lay = ByteLayout(b=2, t=1, n=1)
    for rows in [{(1, 0, 0): 1.0}, {(1, 0, 0): "1"}, {(1.0, 0, 0): 1}]:
        with pytest.raises(ParameterError):
            DistributionTable(rows, lay, 1)


def test_minimum_distance_zero_code():
    lay = ByteLayout(b=1, t=1, n=1)
    C = span(GeneratorMatrix([], lay, m=2))
    with pytest.raises(ParameterError):
        minimum_distance(C)


@st.composite
def _codes(draw):
    """The span of up to 2 random rows, or the F2-span of up to 6 random
    words built by the public constructor (at most 64 words, maybe not
    R-linear), over m up to 16 (both digit widths), any t and a few
    bytes."""
    m = draw(st.sampled_from([1, 2, 3, 4, 8, 9, 16]))
    b = draw(st.integers(1, 4))
    lay = ByteLayout(b=b, t=draw(st.integers(1, b)), n=draw(st.integers(1, 4)))
    word = st.lists(st.integers(0, (1 << m) - 1), min_size=lay.N, max_size=lay.N)
    if m <= 4 and draw(st.booleans()):
        rows = draw(st.lists(word, max_size=2))
        elements = [[RingElement(m, x) for x in row] for row in rows]
        return span(GeneratorMatrix(elements, lay, m=m))
    return xor_closure(draw(st.lists(word, max_size=6)), m, lay)


@settings(max_examples=150, deadline=None)
@given(_codes())
def test_vectorized_statistics_match_word_level(C):
    """distribution, enumerator and minimum_distance work on blocks of
    byte weights; alpha_vector and m_spotty_weight see one Word at a
    time."""
    counts, weights = {}, {}
    for w in C:
        a, e = alpha_vector(w), m_spotty_weight(w)
        counts[a] = counts.get(a, 0) + 1
        weights[e] = weights.get(e, 0) + 1
    assert distribution(C) == DistributionTable(counts, C.layout, C.m)
    assert enumerator(C) == Polynomial(weights)
    nonzero = [m_spotty_weight(w) for w in C if any(x.bits for x in w)]
    if nonzero:
        assert minimum_distance(C) == min(nonzero)
    else:
        with pytest.raises(ParameterError):
            minimum_distance(C)


def test_statistics_of_wide_bytes():
    """b = 200: h + t - 1 reaches 399, beyond a one-byte weight array.
    The code is the F2-span of three rows: 8 words."""
    rows = ([1] * 400, [1] * 150 + [0] * 250, [0] * 199 + [1] * 201)
    for t in (1, 128, 200):
        lay = ByteLayout(b=200, t=t, n=2)
        C = xor_closure(rows, 1, lay)
        weights = sorted(m_spotty_weight(w) for w in C)
        assert len(C) == 8 and weights[0] == 0 < weights[1]
        assert sorted(enumerator(C).terms()) == sorted(
            (e, weights.count(e)) for e in set(weights)
        )
        assert minimum_distance(C) == min(weights[1:])
        assert dict(distribution(C).items()) == Counter(alpha_vector(w) for w in C)


# --- the block engine against independent routes ----------------------------


def _statistics_or_error(C):
    try:
        d = minimum_distance(C)
    except ParameterError:
        d = None
    return distribution(C), enumerator(C), d


def _array_statistics(words, lay, m):
    """`_statistics_or_error` read straight off a (|C|, N) digit array, one
    row per word, with numpy: no block walk, no alpha key."""
    h = (words != 0).reshape(len(words), lay.n, lay.b).sum(axis=2)
    alphas = np.stack([(h == j).sum(axis=1) for j in range(lay.b + 1)], axis=1)
    dist = Counter(map(tuple, alphas.tolist()))
    weights = ((h + lay.t - 1) // lay.t).sum(axis=1).tolist()
    positive = [e for e in weights if e]
    d = min(positive) if positive else None
    return DistributionTable(dist, lay, m), Polynomial(Counter(weights)), d


def _systematic(rng, m, k, lay):
    """G = [I_k | A] over R and H = [A^T | I_(N-k)], which generates the
    dual of G's span (G H^T = A + A = 0, and |C| |C-dual| = |R|^N)."""
    r = lay.N - k
    A = [[RingElement(m, rng.randrange(1 << m)) for _ in range(r)] for _ in range(k)]

    def unit(i, size):
        return [RingElement(m, int(i == j)) for j in range(size)]

    G = [unit(i, k) + A[i] for i in range(k)]
    H = [[A[i][j] for i in range(k)] + unit(j, r) for j in range(r)]
    return GeneratorMatrix(G, lay, m=m), GeneratorMatrix(H, lay, m=m)


# (m, k): 2^(m*k) words, ranks on both sides of the 2^14-word block
@pytest.mark.parametrize(
    "m,k", [(1, 0), (1, 1), (1, 13), (1, 14), (1, 15), (1, 17), (2, 8)]
)
def test_streamed_statistics_across_the_block_boundary(m, k):
    """A rank-r code from `span`, the same code as the kernel of its
    dual's generators, and the span's words through the public
    constructor give the statistics read off the oracle's scan of H's
    dual.  None of them builds its digit array for the statistics,
    and the array it builds when read is the scanned one."""
    rng = random.Random(1000 * m + k)
    lay = ByteLayout(b=3, t=1 + k % 3, n=18 // (3 * m))
    G, H = _systematic(rng, m, k, lay)
    scanned = _scan_words(H)
    want = _array_statistics(scanned, lay, m)
    assert want[0].total == 1 << (m * k)

    def refuse(C):
        raise AssertionError("digit array built")

    S = span(G)
    for C in (S, dual(H), LinearCode(S, lay, m)):
        assert len(C) == 1 << (m * k)
        with mock.patch.object(LinearCode, "digits", property(refuse)):
            assert _statistics_or_error(C) == want
        assert C.digits.tolist() == scanned.tolist()


@st.composite
def _matrices(draw):
    """Up to 3 rows over R^N with m*N <= 12, any byte layout."""
    m = draw(st.integers(1, 4))
    b = draw(st.integers(1, 3))
    n = draw(st.integers(1, 12 // (m * b)))
    lay = ByteLayout(b=b, t=draw(st.integers(1, b)), n=n)
    element = st.integers(0, (1 << m) - 1).map(lambda x: RingElement(m, x))
    row = st.lists(element, min_size=lay.N, max_size=lay.N)
    rows = draw(st.lists(row, max_size=3))
    return GeneratorMatrix(rows, lay, m=m)


@settings(max_examples=150, deadline=None)
@given(_matrices(), st.integers(0, 4))
def test_streamed_statistics_match_independent_routes_property(G, block_bits):
    """With blocks of 2^block_bits words, most codes span many blocks.  The
    span's statistics equal those read off the naive row-by-row closure,
    and the kernel's those read off the oracle's scanned words."""
    m, lay = G.m, G.layout
    words = {(0,) * lay.N}
    for row in G.rows:
        words = _add_row(words, tuple(x.bits for x in row), m)
    closure = np.array(sorted(words))
    with mock.patch.object(code_module, "_BLOCK_BITS", block_bits):
        for C, ref in ((span(G), closure), (dual(G), _scan_words(G))):
            assert len(C) == len(ref)
            assert _statistics_or_error(C) == _array_statistics(ref, lay, m)
            assert C.digits.tolist() == ref.tolist()


@pytest.mark.parametrize("n,b", [(1, 62), (1, 63), (2, 200)])
def test_streamed_statistics_at_the_key_overflow(n, b):
    """Wide bytes: n = 1, b = 62 and 63 key alpha rows in uint64, and
    n = 2, b = 200 groups sorted byte weights.  Each is checked word by
    word, on a basis-backed code of several blocks, against `alpha_vector`
    and `m_spotty_weight`."""
    rng = random.Random(b)
    lay = ByteLayout(b=b, t=1 + b // 3, n=n)
    N = lay.N
    rows = [[RingElement(2, rng.randrange(4)) for _ in range(N)] for _ in range(3)]
    rows.append([RingElement(2, 2)] * (N // 2) + [RingElement(2, 0)] * (N - N // 2))
    G = GeneratorMatrix(rows, lay, m=2)
    with mock.patch.object(code_module, "_BLOCK_BITS", 2):
        C = span(G)
        dist, W, d = _statistics_or_error(C)
    counts, weights = {}, {}
    for w in C:
        a, e = alpha_vector(w), m_spotty_weight(w)
        counts[a] = counts.get(a, 0) + 1
        weights[e] = weights.get(e, 0) + 1
    assert len(C) > 1 << 2
    assert dist == DistributionTable(counts, lay, 2)
    assert W == Polynomial(weights)
    assert d == min(m_spotty_weight(w) for w in C if any(x.bits for x in w))


def _word_level(C):
    counts, weights = {}, {}
    for w in C:
        a, e = alpha_vector(w), m_spotty_weight(w)
        counts[a] = counts.get(a, 0) + 1
        weights[e] = weights.get(e, 0) + 1
    return DistributionTable(counts, C.layout, C.m), Polynomial(weights)


# (n, b): bitlen(n) * b at 32 | 33 (uint32 | uint64 keys), 64 | 65 (uint64
# keys | sorted byte weights), and n = 256, where a word's count of bytes
# of one weight no longer fits a byte
@pytest.mark.parametrize(
    "n,b",
    [(1, 32), (1, 33), (1, 64), (1, 65), (3, 32), (3, 33), (15, 16),
     (16, 13), (31, 13), (256, 1), (256, 2)],
)
def test_statistics_at_the_key_width(n, b):
    """On each side of the packed key's width, the tables and W of a
    basis-backed code of several blocks equal the word-level tally.  A row
    of units puts every byte at weight b, so some alpha_b = n fills its
    field, and the zero word has alpha_0 = n."""
    rng = random.Random(1000 * n + b)
    lay = ByteLayout(b=b, t=1 + b // 4, n=n)
    N = lay.N
    rows = [[RingElement(2, rng.choice((0, 0, 1, 2, 3))) for _ in range(N)]
            for _ in range(3)]
    rows.append([RingElement(2, 1)] * N)
    with mock.patch.object(code_module, "_BLOCK_BITS", 3):
        C = span(GeneratorMatrix(rows, lay, m=2))
        dist, W = cli._statistics(C)
    assert len(C) > 1 << 3
    assert (dist, W) == _word_level(C)
    assert dist.count((0,) * b + (n,)) >= 1 and dist.count((n,) + (0,) * b) == 1


@pytest.mark.parametrize(
    "n,b", [(2, 2), (4, 3), (3, 8), (3, 32), (1, 65), (3, 33), (2, 200)]
)
def test_alpha_rows_table_equals_the_validated_table(n, b):
    """`_AlphaRows.table` orders its alpha matrix by one lexsort and skips
    validation.  On random codes, with packed keys and in wide layouts
    (bitlen(n) * b > 64), it equals the table that the validating
    constructor makes of its rows: order, dtype and read-only flag."""
    rng = random.Random(100 * n + b)
    lay = ByteLayout(b=b, t=1, n=n)
    for m, k in ((1, 5), (2, 3), (3, 2)):
        rows = [[RingElement(m, rng.randrange(1 << m)) for _ in range(lay.N)]
                for _ in range(k)]
        with mock.patch.object(code_module, "_BLOCK_BITS", 3):
            table = distribution(span(GeneratorMatrix(rows, lay, m=m)))
        ref = DistributionTable(dict(table.items()), lay, m)
        assert table == ref and table.alphas.dtype == ref.alphas.dtype
        assert not table.alphas.flags.writeable and type(table.counts[0]) is int


def test_statistics_walk_the_blocks_once(monkeypatch):
    """`cli._statistics` reads every block once for both tallies; each
    standalone statistic reads them once for its own."""
    calls = []
    real = weight_module._blocks

    def counting(C):
        calls.append(C)
        return real(C)

    monkeypatch.setattr(weight_module, "_blocks", counting)
    with mock.patch.object(code_module, "_BLOCK_BITS", 2):
        C = span(load_matrix(DATA / "worked_example.txt"))
        dist, W = cli._statistics(C)
        assert len(calls) == 1
        assert (distribution(C), enumerator(C)) == (dist, W) == _word_level(C)
        minimum_distance(C)
    assert calls == [C] * 4
