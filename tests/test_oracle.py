"""Brute-force referee: character sums, byte transforms, partitions, campaign."""

import itertools
import random
import tracemalloc
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mspotty import oracle
from mspotty.code import (
    ByteLayout,
    GeneratorMatrix,
    LinearCode,
    Word,
    dual,
    inner_product,
    load_matrix,
    span,
)
from mspotty.errors import BudgetError, ParameterError
from mspotty.macwilliams import f_poly, transform
from mspotty.oracle import (
    LemmaReport,
    byte_transform_bruteforce,
    campaign,
    dual_enumerator_bruteforce,
    find_valid_partitions,
    partition_uniqueness_search,
    poisson_check,
    scan_dual,
    sum_chi_Sbar,
    sum_chi_Sj1j2,
    sum_chi_Sk,
    sum_chi_fixed_support,
    sum_chi_multiples,
    sum_chi_over_ideal,
    sum_chi_subspace,
)
from mspotty.polynomial import Polynomial
from mspotty.ring import (
    RingElement,
    chi,
    elements,
    monomial,
    mul_bits,
    one,
    partition,
    zero,
)
from mspotty.weight import distribution, enumerator, support

DATA = Path(__file__).parent / "data"


def _all_bytes(m, b):
    return [
        tuple(RingElement(m, d) for d in digits)
        for digits in itertools.product(range(1 << m), repeat=b)
    ]


def _random_byte(rng, m, b):
    return tuple(RingElement(m, rng.randrange(1 << m)) for _ in range(b))


def _random_matrix(rng, m, k, layout):
    rows = [
        tuple(RingElement(m, rng.randrange(1 << m)) for _ in range(layout.N))
        for _ in range(k)
    ]
    return GeneratorMatrix(rows, layout, m=m)


def _rows(cs):
    """Bytes as the engine takes them: one row of coefficient masks each."""
    return np.array([[x.bits for x in c] for c in cs])


# --- elementwise sums -------------------------------------------------------


def test_ideal_sums_vanish():
    for m in range(1, 7):
        for k in range(m):
            assert sum_chi_over_ideal(m, k) == 0
    with pytest.raises(ParameterError):
        sum_chi_over_ideal(4, 4)
    with pytest.raises(ParameterError):
        sum_chi_over_ideal(4, -1)


def test_multiple_sums():
    for m in range(1, 6):
        for a in elements(m):
            want = (1 << m) if a.is_zero() else 0
            assert sum_chi_multiples(m, a) == want
    with pytest.raises(ParameterError):
        sum_chi_multiples(3, one(4))


def test_subspace_sums_vanish():
    for m in (1, 2, 3):
        for b in (1, 2, 3):
            for c in _all_bytes(m, b):
                sup = support(c)
                for r in range(1, len(sup) + 1):
                    for I in itertools.combinations(sup, r):
                        assert sum_chi_subspace(c, I) == 0


def test_subspace_sum_validation():
    c = (one(4), zero(4))
    with pytest.raises(ParameterError):
        sum_chi_subspace(c, [])
    with pytest.raises(ParameterError):
        sum_chi_subspace(c, [1])  # outside the support
    with pytest.raises(ParameterError):
        sum_chi_subspace((), [0])


def test_fixed_support_alternation():
    # value depends only on |I|, never on which subset is chosen
    for m in (2, 3):
        for b in (1, 2, 3):
            for c in _all_bytes(m, b):
                sup = support(c)
                for r in range(len(sup) + 1):
                    for I in itertools.combinations(sup, r):
                        assert sum_chi_fixed_support(c, I) == (-1) ** r


def test_fixed_support_examples():
    assert sum_chi_fixed_support((one(4),), []) == 1
    assert sum_chi_fixed_support((one(4),), [0]) == -1
    c = (one(3), monomial(3, 1))
    assert sum_chi_fixed_support(c, [0, 1]) == 1


def test_weight_shell_sums():
    rng = random.Random(97)
    for m in (1, 2, 3):
        for b in (1, 2, 3):
            cs = (
                _all_bytes(m, b)
                if (1 << (m * b)) <= 64
                else [_random_byte(rng, m, b) for _ in range(30)]
            )
            for c in cs:
                j = len(support(c))
                for k in range(j + 1):
                    assert sum_chi_Sk(c, k) == (-1) ** k * comb(j, k)
                for k in range(b - j + 1):
                    want = ((1 << m) - 1) ** k * comb(b - j, k)
                    assert sum_chi_Sbar(c, k) == want
                for j1 in range(j + 1):
                    for j2 in range(b - j + 1):
                        want = (
                            (-1) ** j1
                            * ((1 << m) - 1) ** j2
                            * comb(j, j1)
                            * comb(b - j, j2)
                        )
                        assert sum_chi_Sj1j2(c, j1, j2) == want


def test_weight_shell_range_errors():
    c = (one(3), zero(3))
    with pytest.raises(ParameterError):
        sum_chi_Sk(c, 2)
    with pytest.raises(ParameterError):
        sum_chi_Sbar(c, 2)
    with pytest.raises(ParameterError):
        sum_chi_Sj1j2(c, 2, 0)
    with pytest.raises(ParameterError):
        sum_chi_Sj1j2(c, 0, 2)


def test_truncated_reading_value():
    # summing the weight shells only up to k < j does NOT vanish; it
    # telescopes to (-1)^k * C(j-1, k).  This is the reading the subspace
    # sum deliberately avoids.
    rng = random.Random(101)
    for _ in range(40):
        m = rng.randrange(1, 4)
        b = rng.randrange(2, 4)
        c = tuple(
            RingElement(m, rng.randrange(1, 1 << m)) for _ in range(b)
        )  # full support
        j = b
        for k in range(j):
            partial = sum(sum_chi_Sk(c, i) for i in range(k + 1))
            assert partial == (-1) ** k * comb(j - 1, k)
        assert sum(sum_chi_Sk(c, i) for i in range(j + 1)) == 0


# --- byte transform ---------------------------------------------------------


def test_byte_transform_equals_kernel_everywhere():
    for m in (1, 2, 3, 4):
        for b in (1, 2, 3):
            if m * b > 8:
                continue
            for c in _all_bytes(m, b):
                j = len(support(c))
                for t in range(1, b + 1):
                    assert byte_transform_bruteforce(c, t) == f_poly(j, b, m, t)


def test_byte_transform_sampled_large_cells():
    rng = random.Random(103)
    for m, b in ((3, 3), (4, 3)):
        for _ in range(10):
            c = _random_byte(rng, m, b)
            j = len(support(c))
            for t in range(1, b + 1):
                assert byte_transform_bruteforce(c, t) == f_poly(j, b, m, t)


def test_byte_transform_examples():
    c0 = (zero(4), zero(4), zero(4))
    assert byte_transform_bruteforce(c0, 2) == Polynomial({0: 1, 1: 720, 2: 3375})
    c3 = (one(4), monomial(4, 1), monomial(4, 2))
    assert byte_transform_bruteforce(c3, 2) == Polynomial({0: 1, 2: -1})
    assert byte_transform_bruteforce((one(1),), 1) == Polynomial({0: 1, 1: -1})


def test_byte_transform_budget_and_validation(monkeypatch):
    def scanned(*args):
        raise AssertionError("the byte scan started")

    # seven coordinates at m=4: |R|^b = 2^28 > DEFAULT_BYTE_BUDGET = 2^24
    wide = tuple(zero(4) for _ in range(7))
    monkeypatch.setattr(oracle, "_support_sums", scanned)
    with pytest.raises(BudgetError) as exc:
        byte_transform_bruteforce(wide, 2)
    assert exc.value.required == 1 << 28
    c = tuple(zero(4) for _ in range(3))
    with pytest.raises(ParameterError):
        byte_transform_bruteforce(c, 4)
    with pytest.raises(ParameterError):
        byte_transform_bruteforce(c, 0)


# --- support-sum engine --------------------------------------------------------


def _literal_support_sums(c):
    """chi(<c, v>) over every v in R^b, one vector at a time, by support."""
    m, b = c[0].m, len(c)
    sums = [0] * (1 << b)
    for v in itertools.product(elements(m), repeat=b):
        I = sum(1 << i for i, x in enumerate(v) if not x.is_zero())
        sums[I] += chi(inner_product(c, v))
    return sums


def _cells(lo, hi):
    return [(m, b) for m in range(1, hi + 1) for b in range(1, hi + 1)
            if lo <= m * b <= hi]


def test_support_sums_match_literal_sum_exhaustive():
    for m, b in _cells(1, 8):
        cs = _all_bytes(m, b)
        got = oracle._support_sums(m, b, _rows(cs)).tolist()
        assert got == [_literal_support_sums(c) for c in cs], (m, b)


def test_support_sums_match_literal_sum_sampled():
    rng = random.Random(113)
    for m, b in _cells(9, 12):
        cs = [_random_byte(rng, m, b) for _ in range(3)]
        cs.append(tuple(zero(m) for _ in range(b)))
        got = oracle._support_sums(m, b, _rows(cs)).tolist()
        for c, sums in zip(cs, got):
            assert sums == _literal_support_sums(c), (m, b, c)
            # the literal per-support sums of the referee agree too
            sup = support(c)
            for r in range(len(sup) + 1):
                for I in itertools.combinations(sup, r):
                    mask = sum(1 << i for i in I)
                    assert sums[mask] == sum_chi_fixed_support(c, I)


def test_support_sums_partial_byte_block():
    # m=2, b=3: 64 vectors a run, 256 bytes a block; 300 bytes leave a
    # partial last block
    m, b = 2, 3
    assert oracle._BLOCK_PAIRS // (1 << (m * b)) == 256
    rng = random.Random(127)
    cs = [_random_byte(rng, m, b) for _ in range(300)]
    got = oracle._support_sums(m, b, _rows(cs)).tolist()
    assert got == [_literal_support_sums(c) for c in cs]


def test_support_sums_runs_straddle_a_coordinate():
    # 2^15 vectors in runs of 2^14: coordinate 2 (bits 10..14) is split
    # between runs, so its support bit is fixed per run only in part
    rng = random.Random(131)
    cs = [_random_byte(rng, 5, 3), (one(5), zero(5), monomial(5, 4))]
    got = oracle._support_sums(5, 3, _rows(cs)).tolist()
    assert got == [_literal_support_sums(c) for c in cs]


def test_support_sums_beyond_one_block():
    # |R|^b = 2^18 > the block: 16 runs of 2^14 vectors, one byte at a time
    m, b = 6, 3
    assert 1 << (m * b) > oracle._BLOCK_PAIRS
    rng = random.Random(137)
    cs = [tuple(zero(m) for _ in range(b))]
    cs += [_random_byte(rng, m, b) for _ in range(3)]
    cs.append((zero(m), monomial(m, 5), zero(m)))
    sums = oracle._support_sums(m, b, _rows(cs))
    assert sums.sum(axis=1).tolist() == [1 << (m * b), 0, 0, 0, 0]
    for c in cs:
        j = len(support(c))
        for t in range(1, b + 1):
            assert byte_transform_bruteforce(c, t) == f_poly(j, b, m, t)


@st.composite
def _small_cells(draw):
    """A cell with m*b <= 10 and up to five bytes, duplicates allowed."""
    m = draw(st.integers(1, 10))
    b = draw(st.integers(1, 10 // m))
    digit = st.integers(0, (1 << m) - 1)
    digits = draw(st.lists(st.tuples(*[digit] * b), min_size=1, max_size=5))
    return m, b, [tuple(RingElement(m, d) for d in row) for row in digits]


@settings(max_examples=40, deadline=None)
@given(_small_cells())
def test_support_sums_match_literal_sum_property(cell):
    m, b, cs = cell
    got = oracle._support_sums(m, b, _rows(cs)).tolist()
    assert got == [_literal_support_sums(c) for c in cs]


def test_support_sums_one_coordinate_spans_several_runs():
    # m=16, b=1: 2^16 vectors in four runs of 2^14, each a stretch of the
    # one coordinate's values; only the first holds v = 0
    m, b = 16, 1
    assert 1 << m == 4 * oracle._BLOCK_PAIRS
    cs = [(zero(m),), (one(m),), (monomial(m, 15),), (RingElement(m, 0xBEEF),)]
    got = oracle._support_sums(m, b, _rows(cs)).tolist()
    assert got == [_literal_support_sums(c) for c in cs]
    assert got == [[1, (1 << m) - 1], [1, -1], [1, -1], [1, -1]]


def test_support_sums_exactly_one_block():
    # m=7, b=2: R^b is one run of exactly _BLOCK_PAIRS vectors, one byte
    # per block, both coordinates on full axes
    m, b = 7, 2
    assert 1 << (m * b) == oracle._BLOCK_PAIRS
    rng = random.Random(149)
    cs = [(zero(m), zero(m)), (monomial(m, 6), zero(m)), (one(m), monomial(m, 3))]
    cs += [_random_byte(rng, m, b) for _ in range(2)]
    got = oracle._support_sums(m, b, _rows(cs)).tolist()
    assert got == [_literal_support_sums(c) for c in cs]


@pytest.mark.parametrize("m, b", [(2, 3), (5, 3), (16, 1)])
def test_support_sums_reads_chi_from_whole_inner_products(monkeypatch, m, b):
    """chi is read from <c, v> itself, never per coordinate: the arrays
    the engine reads chi from, one per block of bytes and run, laid side
    by side over the runs of each block, are <c, v> for every v,
    coordinate i on axis b - i.  Since chi is additive, only this shows a
    per-coordinate product of signs."""
    cs = [tuple(RingElement(m, (5 * k + 3 * i + 1) % (1 << m)) for i in range(b))
          for k in range(2)]
    seen = []

    def recording(ip, m_):
        seen.append(ip.copy())
        return real(ip, m_)

    real = oracle._minus_ones
    monkeypatch.setattr(oracle, "_minus_ones", recording)
    oracle._support_sums(m, b, _rows(cs))
    size = 1 << m
    runs = size**b // seen[0][0].size
    boxes = np.concatenate([
        np.concatenate(seen[i : i + runs], axis=1) for i in range(0, len(seen), runs)
    ])
    assert boxes.shape == (len(cs),) + (size,) * b
    for c, box in zip(cs, boxes):
        want = np.zeros((size,) * b, dtype=np.int64)
        for digits in itertools.product(range(size), repeat=b):
            ip = 0
            for x, d in zip(c, digits):
                ip ^= mul_bits(x.bits, d, m)
            want[digits[::-1]] = ip
        assert np.array_equal(box, want)


def test_support_sums_memory_is_bounded_by_the_block():
    # a 2^24-vector byte: its keys alone would take 128 MB at once
    tracemalloc = pytest.importorskip("tracemalloc")
    c = (one(8), monomial(8, 3), RingElement(8, 0xA5))
    tracemalloc.start()
    try:
        poly = byte_transform_bruteforce(c, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert poly == f_poly(3, 3, 8, 2)
    assert peak < 4 << 20


def test_support_sums_negative_control(wrong_engine):
    """One wrong product in the engine's tables fails a per-byte check."""
    reports = []
    for b in (1, 2):  # every byte of R^b, as the campaign's m = 2 cells take them
        every = np.array(list(itertools.product(range(4), repeat=b)))
        reports += oracle._cell_reports(2, b, every, True)
    bad = {r.lemma for r in reports if not r.passed}
    assert bad & {"3.3", "3.4", "c3.1", "3.5", "c3.2", "3.6"}, bad


@pytest.mark.parametrize("m", range(1, 9))
def test_product_table_is_mul_bits_exhaustive(m):
    """The engine's product table is the ring's multiplication: every
    pair at m <= 8, where the table is uint8."""
    table = oracle._products(np.arange(1 << m), m)
    assert table.dtype == np.uint8
    assert table.tolist() == [
        [mul_bits(a, r, m) for r in range(1 << m)] for a in range(1 << m)
    ]


@pytest.mark.parametrize("m", [12, 16])
def test_product_table_is_mul_bits_sampled(m):
    """uint16 tables: every r for a few a, including the top element."""
    rng = random.Random(m)
    values = [0, 1, 2, (1 << m) - 1, 1 << (m - 1)]
    values += [rng.randrange(1 << m) for _ in range(4)]
    table = oracle._products(np.array(values), m)
    assert table.dtype == np.uint16
    for a, row in zip(values, table.tolist()):
        assert row == [mul_bits(a, r, m) for r in range(1 << m)]


def _bucket_kind(I, smask):
    if (I & smask) == I:
        return {"3.3", "3.4", "c3.1", "c3.2", "3.6"}  # inside supp(c)
    if (I & smask) == 0:
        return {"3.5", "c3.2", "3.6"}  # outside supp(c)
    return {"c3.2", "3.6"}  # both sides: only the split and the totals


@pytest.mark.parametrize("I", range(1, 8))
def test_cell_reports_bucket_negative_control(monkeypatch, I):
    """+1 on one support bucket of one byte fails exactly the checks that
    read it: every view is a regrouping of the literal buckets."""
    m, b = 2, 3
    c = (one(m), zero(m), monomial(m, 1))  # supp(c) = {0, 2}
    cs = [tuple(zero(m) for _ in range(b)), c, (one(m),) * b]
    real = oracle._support_sums

    def skewed(m_, b_, cs_):
        sums = real(m_, b_, cs_)
        sums[1, I] += 1
        return sums

    monkeypatch.setattr(oracle, "_support_sums", skewed)
    reports = oracle._cell_reports(m, b, _rows(cs), True)
    assert {r.lemma for r in reports if not r.passed} == _bucket_kind(I, 0b101)
    assert all("c=(1,0,u)" in r.actual for r in reports if not r.passed)


def test_cell_reports_wide_cell():
    # all-ones byte at b = 16: 3^16 subset-of-subset terms if summed
    # one submask at a time
    m, b = 1, 16
    cs = [tuple(zero(m) for _ in range(b)), (one(m),) * b]
    reports = oracle._cell_reports(m, b, _rows(cs), False)
    assert len(reports) == 5 + b
    assert all(r.passed for r in reports), [r.actual for r in reports]


def test_cell_reports_memory_is_bounded_by_the_chunk():
    # 64 bytes at b = 16: their support buckets alone take 32 MB at once
    tracemalloc = pytest.importorskip("tracemalloc")
    m, b = 1, 16
    rng = random.Random(139)
    cs = [tuple(zero(m) for _ in range(b)), (one(m),) * b]
    cs += [_random_byte(rng, m, b) for _ in range(62)]
    tracemalloc.start()
    try:
        reports = oracle._cell_reports(m, b, _rows(cs), False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in reports), [r.actual for r in reports]
    instances = sum(2 ** len(support(c)) for c in cs)
    assert reports[1].actual == f"{instances}/{instances} exact"  # 3.4
    assert peak < 16 << 20


def test_sample_bytes_draw_coordinate_by_coordinate():
    """Sampled bytes take the seeded draws in the order of a byte-by-byte,
    coordinate-by-coordinate loop, after the zero byte."""
    m, b, samples = 3, 4, 9
    rng, again = random.Random(151), random.Random(151)
    got = oracle._sample_bytes(m, b, samples, rng)
    want = [[0] * b] + [[again.randrange(1 << m) for _ in range(b)]
                        for _ in range(samples)]
    assert got.tolist() == want
    assert rng.random() == again.random()
    assert oracle._sample_bytes(2, 3, samples, rng).tolist() == [
        list(c) for c in itertools.product(range(4), repeat=3)
    ]


def test_cell_path_builds_no_ring_elements(monkeypatch):
    """Sampling and a passing cell carry bytes as coefficient masks only."""
    real = RingElement.__init__
    built = []

    def counted(self, m, bits):
        built.append((m, bits))
        real(self, m, bits)

    monkeypatch.setattr(RingElement, "__init__", counted)
    rng = random.Random(157)
    for m, b in ((2, 3), (3, 3), (1, 12)):
        sample = oracle._sample_bytes(m, b, 6, rng)
        reports = oracle._cell_reports(m, b, sample, m * b <= 8)
        assert all(r.passed for r in reports), [r.actual for r in reports]
    assert built == []


def test_poisson_code_is_built_from_integer_rows(monkeypatch):
    """The Poisson code {a * (1, u) : a in R} is one generator row, whose
    two elements are the only `RingElement`s built; its closure is made of
    integer rows."""
    real = RingElement.__init__
    built = []

    def counted(self, m, bits):
        built.append((m, bits))
        real(self, m, bits)

    monkeypatch.setattr(RingElement, "__init__", counted)
    for m in (1, 2, 5, 9):
        built.clear()
        G = oracle._poisson_code(m)
        u = 2 if m >= 2 else 1
        assert [[x.bits for x in row] for row in G.rows] == [[1, u]]
        assert G.layout == ByteLayout(b=2, t=1, n=1) and len(built) == 2
        want = sorted((a, mul_bits(a, u, m)) for a in range(1 << m))
        assert sorted(oracle._add_row({(0, 0)}, (1, u), m)) == want


@pytest.mark.parametrize("b", [1, 2, 3, 5, 8])
def test_weight_totals_match_the_split_regrouping(b):
    """Totals by |I| equal the (j1, j2) split summed along j1 + j2, for any
    inside counts."""
    rng = np.random.default_rng(b)
    sums = rng.integers(-(1 << 40), 1 << 40, size=(7, 1 << b))
    pop = oracle._popcounts(b)
    smasks = rng.integers(0, 1 << b, size=(7, 1))
    split = oracle._split_sums(sums, pop[np.arange(1 << b) & smasks], pop)
    want = np.zeros((7, b + 1), dtype=np.int64)
    for j1 in range(b + 1):
        want[:, j1:] += split[:, j1, : b + 1 - j1]
    assert oracle._weight_totals(sums, pop).tolist() == want.tolist()


# --- per-byte checks, one comparison per instance --------------------------------


def _reference_split(sums, smask, b):
    omask = ((1 << b) - 1) ^ smask
    split = [[0] * (omask.bit_count() + 1) for _ in range(smask.bit_count() + 1)]
    for I, v in enumerate(sums):
        split[(I & smask).bit_count()][(I & omask).bit_count()] += v
    return split


def _reference_submasks(mask):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def _cell_reports_reference(m, b, bytes_sample, exhaustive):
    """`oracle._cell_reports` one `_Tally.add` per instance, in its order:
    byte by byte; within a byte, submasks of supp(c) by decreasing I, then
    weights k, then (j1, j2) j1-major."""
    q1 = (1 << m) - 1
    tallies = {lem: oracle._Tally() for lem in ("3.3", "3.4", "c3.1", "3.5", "c3.2")}
    t_tallies = {t: oracle._Tally() for t in range(1, b + 1)}
    kernels = {
        (j, t): f_poly(j, b, m, t) for j in range(b + 1) for t in range(1, b + 1)
    }
    sums = oracle._support_sums(m, b, _rows(bytes_sample)).tolist()
    for c, row in zip(bytes_sample, sums):
        smask = sum(1 << i for i in support(c))
        j = smask.bit_count()
        at = f"c=({','.join(str(x) for x in c)})"
        for I in _reference_submasks(smask):
            desc = f"{at} I=0b{I:0{b}b}"
            if I:
                within = sum(row[J] for J in _reference_submasks(I))
                tallies["3.3"].add(0, within, desc)
            tallies["3.4"].add((-1) ** I.bit_count(), row[I], desc)
        split = _reference_split(row, smask, b)
        for k in range(j + 1):
            tallies["c3.1"].add((-1) ** k * comb(j, k), split[k][0], f"{at} k={k}")
        for k in range(b - j + 1):
            tallies["3.5"].add(q1**k * comb(b - j, k), split[0][k], f"{at} k={k}")
        weights = [0] * (b + 1)
        for j1 in range(j + 1):
            for j2 in range(b - j + 1):
                want = (-1) ** j1 * q1**j2 * comb(j, j1) * comb(b - j, j2)
                tallies["c3.2"].add(want, split[j1][j2], f"{at} j1={j1} j2={j2}")
                weights[j1 + j2] += split[j1][j2]
        for t in range(1, b + 1):
            t_tallies[t].add(kernels[j, t], oracle._regroup(weights, t), at)
    base = {"m": m, "b": b, "bytes": len(bytes_sample), "exhaustive": exhaustive}
    reports = [tally.report(lem, base) for lem, tally in tallies.items()]
    return reports + [
        tally.report("3.6", {**base, "t": t}) for t, tally in t_tallies.items()
    ]


@st.composite
def _skewed_cells(draw):
    """A cell, its bytes (the zero byte and at least one duplicate among
    them), up to three ±d bumps on support buckets keyed by byte value, and
    a block size that may put one or two bytes in each chunk."""
    m = draw(st.integers(1, 4))
    b = draw(st.integers(1, 5))
    digit = st.integers(0, (1 << m) - 1)
    distinct = [(0,) * b] + draw(
        st.lists(st.tuples(*[digit] * b), max_size=4 if m * b <= 12 else 1)
    )
    again = draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=3))
    order = draw(st.permutations(distinct + again))
    bumps = draw(st.lists(
        st.tuples(
            st.sampled_from(distinct),
            st.integers(0, (1 << b) - 1),
            st.integers(1, 3) | st.integers(-3, -1),
        ),
        max_size=3,
    ))
    block = draw(st.sampled_from([oracle._BLOCK_PAIRS, 1 << b, 2 << b]))
    return m, b, order, bumps, block


@settings(max_examples=60, deadline=None)
@given(_skewed_cells())
def test_cell_reports_match_per_instance_reference(cell):
    m, b, order, bumps, block = cell
    cs = [tuple(RingElement(m, d) for d in digits) for digits in order]
    real = {c: oracle._support_sums(m, b, _rows([c]))[0] for c in set(cs)}
    for c, I, d in bumps:
        real[tuple(RingElement(m, x) for x in c)][I] += d

    def engine(m_, b_, cs_):
        rows = [tuple(RingElement(m_, x) for x in c) for c in cs_.tolist()]
        return np.array([real[c] for c in rows]).reshape(len(cs_), 1 << b_)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_support_sums", engine)
        patch.setattr(oracle, "_BLOCK_PAIRS", block)
        got = [r.to_json() for r in oracle._cell_reports(m, b, _rows(cs), False)]
        want = [r.to_json() for r in _cell_reports_reference(m, b, cs, False)]
    assert got == want
    if not bumps:
        assert all(r["pass"] for r in got)


# --- exhaustive dual scan ----------------------------------------------------


def test_dual_worker_and_chunk_invariance(monkeypatch):
    """Any worker count and chunk size give the same code and the same
    oracle words, sorted and each once."""
    lay = ByteLayout(b=2, t=1, n=2)
    G = _random_matrix(random.Random(43), 2, 2, lay)
    base = scan_dual(G)

    def words():
        return list(map(tuple, oracle._scan_words(G).tolist()))

    want = words()
    assert want == sorted(set(want)) and len(want) == len(base)
    for chunk, workers in ((1 << 20, 3), (7, 1), (16, 2)):
        monkeypatch.setattr(oracle, "_SCAN_CHUNK", chunk)
        assert scan_dual(G, workers=workers).codewords == base.codewords
        assert words() == want


def test_scan_dual_builds_its_code_as_the_public_constructor_does():
    """`scan_dual` builds its code from the packed hits: it holds the
    oracle's scanned words and has the basis that the public constructor
    gives them, and the packed route refuses words not closed under
    addition, as the constructor does."""
    rng = random.Random(89)
    for m, b, n in ((1, 3, 2), (2, 3, 1), (3, 2, 2), (4, 3, 1)):
        lay = ByteLayout(b=b, t=1, n=n)
        G = _random_matrix(rng, m, rng.randrange(3), lay)
        words = oracle._scan_words(G).tolist()
        built = scan_dual(G)
        public = LinearCode([Word.from_bits(w, m, lay) for w in words], lay, m)
        assert built._basis == public._basis
        assert [list(w.bits()) for w in built] == words
        assert built.layout == lay and built.m == m
    with pytest.raises(ParameterError, match="not closed under addition"):
        LinearCode._from_words([0, 1, 2], lay, m)
    with pytest.raises(ParameterError, match="cannot be empty"):
        LinearCode._from_words([], lay, m)


def test_scan_unpacks_its_hits_into_the_digit_dtype():
    """The 2^16 hits of the all-zero m=1, b=16 matrix are unpacked one
    coordinate at a time into the oracle's read-only uint8 words: the whole
    scan peaks under 8 MiB, which a (|C|, N) uint64 unpacking alone would
    fill."""
    G = GeneratorMatrix([[zero(1)] * 16], ByteLayout(b=16, t=1, n=1), m=1)
    tracemalloc.start()
    try:
        words = oracle._scan_words(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert words.shape == (1 << 16, 16) and words.dtype == np.uint8
    assert not words.flags.writeable
    assert peak < 8 << 20, peak


# --- dual scan vs transform --------------------------------------------------


def test_dual_enumerator_bruteforce_worked_example():
    G = load_matrix(DATA / "worked_example.txt")
    W = dual_enumerator_bruteforce(G)
    assert W == Polynomial({0: 1, 1: 85, 2: 3153, 3: 9707, 4: 19822})


def test_dual_enumerator_agrees_with_transform():
    rng = random.Random(107)
    done = 0
    while done < 20:
        m = rng.randrange(1, 4)
        b = rng.randrange(1, 3)
        n = rng.randrange(1, 3)
        if m * b * n > 12:
            continue
        lay = ByteLayout(b=b, t=rng.randrange(1, b + 1), n=n)
        rows = [
            tuple(RingElement(m, rng.randrange(1 << m)) for _ in range(lay.N))
            for _ in range(rng.randrange(0, 3))
        ]
        G = GeneratorMatrix(rows, lay, m=m)
        C = span(G)
        assert dual_enumerator_bruteforce(G) == transform(
            distribution(C), len(C)
        )
        done += 1


def test_full_space_dual_enumerator():
    lay = ByteLayout(b=2, t=1, n=1)
    G = GeneratorMatrix([(one(2), zero(2)), (zero(2), one(2))], lay)
    assert dual_enumerator_bruteforce(G) == Polynomial.one()


# --- summation identity -------------------------------------------------------


def test_poisson_small_codes():
    rng = random.Random(109)
    for m in (1, 2):
        lay = ByteLayout(b=2, t=1, n=1)
        for _ in range(5):
            rows = [
                tuple(RingElement(m, rng.randrange(1 << m)) for _ in range(2))
                for _ in range(rng.randrange(0, 3))
            ]
            report = poisson_check(GeneratorMatrix(rows, lay, m=m))
            assert report.passed, report.to_json()
            assert report.lemma == "3.7"


def test_poisson_zero_code_gives_full_space():
    lay = ByteLayout(b=2, t=1, n=1)
    report = poisson_check(GeneratorMatrix([], lay, m=2))
    assert report.passed
    full = dual(GeneratorMatrix([], lay, m=2))
    assert report.actual == str(enumerator(full))


def test_poisson_worked_example_byte_layout():
    lay = ByteLayout(b=3, t=2, n=1)
    rows = [(one(4), monomial(4, 1), monomial(4, 2))]
    assert poisson_check(GeneratorMatrix(rows, lay, m=4)).passed


def test_poisson_scans_each_code_in_one_engine_call(monkeypatch):
    """Every distinct byte of the code goes through one `_support_sums`
    call, and the reports stay as they were with one call per byte."""
    real = oracle._support_sums
    calls = []

    def counted(m, b, cs):
        calls.append(len(cs))
        return real(m, b, cs)

    monkeypatch.setattr(oracle, "_support_sums", counted)
    enumerators = {1: "1 + z^2", 2: "1 + z + 2z^2", 3: "1 + z + 6z^2",
                   4: "1 + z + 14z^2", 5: "1 + z + 30z^2", 6: "1 + z + 62z^2"}
    for m, W in enumerators.items():
        calls.clear()
        report = poisson_check(oracle._poisson_code(m))
        assert calls == [1 << m]  # the code's 2^m words have distinct bytes
        assert report.to_json() == {
            "lemma": "3.7",
            "params": {"m": m, "n": 1, "b": 2, "t": 1, "code_size": 1 << m},
            "expected": W,
            "actual": W,
            "pass": True,
        }


def test_oracle_runs_without_the_fast_paths(monkeypatch):
    """The referee closes codes row by row and sums weights word by word
    over its own scanned arrays: it imports neither `span` nor the block
    statistics engine, and runs with the elimination, the block source,
    the digit array, code iteration, code construction and the statistics
    engine disabled, so the campaign builds no `LinearCode`.  Its per-byte
    engine builds its own product tables: the per-byte checks also run
    with the dual scan's chunks and tables and the transform's fold
    disabled.  The scan lives here, not among the fast paths of `code`."""
    import mspotty.code
    import mspotty.macwilliams
    import mspotty.oracle
    import mspotty.weight

    for name in ("span", "generating_rows", "distribution", "enumerator",
                 "_blocks", "_byte_weight_blocks", "_fold", "_echelon"):
        assert not hasattr(mspotty.oracle, name)
    for name in ("_SCAN_CHUNK", "_times_table", "_scan_chunk", "_scan_dual",
                 "_scan", "_scan_words", "_coords"):
        assert not hasattr(mspotty.code, name)

    def disabled(*args):
        raise AssertionError("fast path reached from the oracle")

    monkeypatch.setattr(mspotty.code, "_blocks", disabled)
    monkeypatch.setattr(LinearCode, "digits", property(disabled))
    monkeypatch.setattr(LinearCode, "__iter__", disabled)
    monkeypatch.setattr(LinearCode, "_set", disabled)
    monkeypatch.setattr(mspotty.code, "_reduce", disabled)
    monkeypatch.setattr(mspotty.code, "_echelon", disabled)
    monkeypatch.setattr(mspotty.weight, "_byte_weight_blocks", disabled)
    reports = campaign(ms=(1, 2, 3), bs=(1, 2), samples=3)
    assert all(r.passed for r in reports)
    G = GeneratorMatrix([(one(2), monomial(2, 1))], ByteLayout(b=2, t=1, n=1))
    assert dual_enumerator_bruteforce(G) == Polynomial({0: 1, 1: 1, 2: 2})  # v = (u*a, a)

    monkeypatch.setattr(mspotty.oracle, "_scan_chunk", disabled)
    monkeypatch.setattr(mspotty.oracle, "_times_table", disabled)
    monkeypatch.setattr(mspotty.macwilliams, "_fold", disabled)
    reports = oracle._cell_reports(3, 2, _rows(_all_bytes(3, 2)), True)
    assert len(reports) == 7 and all(r.passed for r in reports)
    c = (one(4), monomial(4, 1), zero(4))
    assert byte_transform_bruteforce(c, 2) == f_poly(2, 3, 4, 2)


# --- partition search ---------------------------------------------------------


def test_partition_search_counts():
    # the axioms do not pin the split down: any kernel of a linear form
    # sending 1 -> 0 and u^(m-1) -> 1 passes, giving 2^(m-2) solutions
    assert partition_uniqueness_search(2) == 1
    assert partition_uniqueness_search(3) == 2
    assert partition_uniqueness_search(4) == 4


def test_partition_search_contains_canonical():
    for m in (2, 3, 4):
        found = find_valid_partitions(m)
        assert partition(m)[0] in found
        assert len(set(found)) == len(found)


def test_partition_search_limits():
    with pytest.raises(ParameterError):
        find_valid_partitions(1)
    with pytest.raises(BudgetError):
        find_valid_partitions(5)


# --- campaign ------------------------------------------------------------------


def test_campaign_small_grid_passes():
    reports = campaign(ms=(1, 2), bs=(1, 2), samples=5, seed=1)
    assert reports and all(r.passed for r in reports)
    ids = {r.lemma for r in reports}
    assert ids == {"3.1", "3.2", "3.3", "3.4", "3.5", "3.6", "3.7",
                   "c3.1", "c3.2", "partition"}


def test_campaign_deterministic():
    a = campaign(ms=(3,), bs=(3,), samples=8, seed=42)
    b = campaign(ms=(3,), bs=(3,), samples=8, seed=42)
    assert [r.to_json() for r in a] == [r.to_json() for r in b]


def test_campaign_fault_injection():
    reports = campaign(ms=(1, 2), bs=(1,), samples=3, seed=0, inject_fault=True)
    bad = [r for r in reports if not r.passed]
    assert len(bad) == 1
    assert bad[0].lemma == "3.1"
    assert "mismatch" in bad[0].actual


def test_campaign_reports_a_wrong_engine(wrong_engine):
    """With one wrong product in the engine, the Poisson sum over C is not
    divisible by |C|: check 3.7 fails with the remainder named, and the
    campaign returns every report instead of raising."""
    reports = campaign(ms=(2,), bs=(1, 2), samples=3)
    bad = {r.lemma: r for r in reports if not r.passed}
    assert "3.7" in bad and bad.keys() & {"3.3", "3.4", "c3.1", "3.5", "c3.2", "3.6"}
    assert "remainder" in bad["3.7"].actual and " mod 4" in bad["3.7"].actual
    assert bad["3.7"].expected == "1 + z + 2z^2"  # the scan, as when it passes
    assert reports[-1] is bad["3.7"]  # the last check of the grid ran


def test_campaign_rejects_bad_samples():
    with pytest.raises(ParameterError):
        campaign(samples=0)


def test_report_json_shape():
    report = LemmaReport(
        lemma="3.4", params={"m": 2}, expected="1", actual="1", passed=True
    )
    obj = report.to_json()
    assert set(obj) == {"lemma", "params", "expected", "actual", "pass"}
    assert obj["pass"] is True
    assert obj["params"] == {"m": 2}
