"""Spotty weights, alpha vectors, distribution tables, enumerators."""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mspotty.code import ByteLayout, GeneratorMatrix, LinearCode, Word, load_matrix, span
from mspotty.errors import ParameterError
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


def test_minimum_distance_zero_code():
    lay = ByteLayout(b=1, t=1, n=1)
    C = span(GeneratorMatrix([], lay, m=2))
    with pytest.raises(ParameterError):
        minimum_distance(C)


@st.composite
def _codes(draw):
    """The span of up to 2 random rows, or a set of up to 40 words built by
    the public constructor (the statistics do not assume linearity), over
    m up to 16 (both digit widths), any t and a few bytes."""
    m = draw(st.sampled_from([1, 2, 3, 4, 8, 9, 16]))
    b = draw(st.integers(1, 4))
    lay = ByteLayout(b=b, t=draw(st.integers(1, b)), n=draw(st.integers(1, 4)))
    word = st.lists(st.integers(0, (1 << m) - 1), min_size=lay.N, max_size=lay.N)
    if m <= 4 and draw(st.booleans()):
        rows = draw(st.lists(word, max_size=2))
        elements = [[RingElement(m, x) for x in row] for row in rows]
        return span(GeneratorMatrix(elements, lay, m=m))
    rows = draw(st.lists(word, max_size=40))
    words = [Word.from_bits(r, m, lay) for r in [[0] * lay.N, *rows]]
    return LinearCode(words, lay, m)


@settings(max_examples=150, deadline=None)
@given(_codes())
def test_vectorized_statistics_match_word_level(C):
    """distribution, enumerator and minimum_distance work on the packed
    array; alpha_vector and m_spotty_weight see one Word at a time."""
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
    """b = 200: h + t - 1 reaches 399, beyond a one-byte weight array."""
    rows = ([0] * 400, [1] * 400, [1] * 150 + [0] * 250, [0] * 199 + [1] * 201)
    for t in (1, 128, 200):
        lay = ByteLayout(b=200, t=t, n=2)
        C = LinearCode([Word.from_bits(r, 1, lay) for r in rows], lay, 1)
        weights = sorted(m_spotty_weight(w) for w in C)
        assert sorted(enumerator(C).terms()) == sorted(
            (e, weights.count(e)) for e in set(weights)
        )
        assert minimum_distance(C) == min(weights[1:])
        assert dict(distribution(C).items()) == {
            alpha_vector(w): 1 for w in C
        }
