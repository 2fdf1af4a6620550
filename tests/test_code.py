"""Words, matrix parsing, span, and the dual (checked against the scan)."""

import copy
import itertools
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import xor_closure

from mspotty import code as code_module
from mspotty import ring as ring_module
from mspotty.code import (
    ByteLayout,
    GeneratorMatrix,
    LinearCode,
    Word,
    _insert,
    _kernel_basis,
    _mirror,
    _multiples,
    _pack,
    _row_space,
    code_size_from_profile,
    dual,
    generating_rows,
    inner_product,
    load_matrix,
    parse_matrix_text,
    span,
)
from mspotty.errors import BudgetError, MatrixParseError, ParameterError
from mspotty.macwilliams import transform
from mspotty.oracle import _add_row, _scan_words, scan_dual
from mspotty.polynomial import Polynomial
from mspotty.ring import RingElement, chi, elements, monomial, mul_bits, one, zero
from mspotty.weight import distribution, enumerator, m_spotty_weight, minimum_distance

DATA = Path(__file__).parent / "data"


def _random_matrix(rng, m, k, layout):
    rows = [
        tuple(RingElement(m, rng.randrange(1 << m)) for _ in range(layout.N))
        for _ in range(k)
    ]
    return GeneratorMatrix(rows, layout, m=m)


def _naive_bits(G):
    """`_naive_span` as digit tuples."""
    return {tuple(x.bits for x in w) for w in _naive_span(G)}


def _naive_span(G):
    """Independent route: enumerate every coefficient tuple directly."""
    m, N = G.m, G.layout.N
    words = set()
    for coeffs in itertools.product(elements(m), repeat=G.k):
        acc = [zero(m)] * N
        for a, row in zip(coeffs, G.rows):
            acc = [s + a * x for s, x in zip(acc, row)]
        words.add(tuple(acc))
    return words


def _random_rows(rng, G, count):
    """`count` random words of G's ring and length as digit tuples."""
    return [
        tuple(rng.randrange(1 << G.m) for _ in range(G.layout.N)) for _ in range(count)
    ]


def _generators(words, layout, m):
    """Naive referee of `generating_rows`: words (digit tuples), taken in
    canonical order while they fall outside the row-by-row closure of
    those already taken."""
    spanned = {(0,) * layout.N}
    gens = []
    for bits in sorted(words):
        if bits not in spanned:
            gens.append([RingElement(m, x) for x in bits])
            spanned = _add_row(spanned, bits, m)
    return GeneratorMatrix(gens, layout, m=m)


def _scanned(G):
    """The oracle's own sorted dual words, as digit tuples."""
    return list(map(tuple, _scan_words(G).tolist()))


@st.composite
def _small_matrices(draw, max_bits=12, max_rows=4):
    """Up to `max_rows` rows over R^N with m*N <= `max_bits` (12 keeps the
    scan cheap)."""
    m = draw(st.integers(1, 4))
    N = draw(st.integers(1, max_bits // m))
    element = st.integers(0, (1 << m) - 1).map(lambda x: RingElement(m, x))
    rows = draw(
        st.lists(st.lists(element, min_size=N, max_size=N), max_size=max_rows)
    )
    return GeneratorMatrix(rows, ByteLayout(b=N, t=1, n=1), m=m)


# --- layout and words -----------------------------------------------------


def test_layout_validation():
    ByteLayout(b=3, t=2, n=2)
    with pytest.raises(ParameterError):
        ByteLayout(b=3, t=4, n=2)
    with pytest.raises(ParameterError):
        ByteLayout(b=3, t=0, n=2)
    with pytest.raises(ParameterError):
        ByteLayout(b=0, t=1, n=2)
    with pytest.raises(ParameterError):
        ByteLayout(b=3, t=1, n=0)


def test_layout_parameters_are_ints():
    """b, t and n are read through `operator.index`: numpy integers are
    stored as ints, a float or str is refused."""
    lay = ByteLayout(b=np.int64(2), t=np.uint8(1), n=np.int32(2))
    assert lay == ByteLayout(b=2, t=1, n=2) and type(lay.N) is int
    assert all(type(x) is int for x in (lay.b, lay.t, lay.n))
    for kw in [dict(b=2.5, t=1, n=2), dict(b=2, t=1, n=2.0), dict(b=2, t=1.0, n=2),
               dict(b="2", t=1, n=2)]:
        with pytest.raises(ParameterError):
            ByteLayout(**kw)


def test_word_bytes_and_ops():
    lay = ByteLayout(b=2, t=1, n=2)
    w = Word.from_bits([1, 2, 0, 3], 2, lay)
    assert w.byte(0) == (RingElement(2, 1), RingElement(2, 2))
    assert w.byte(1) == (RingElement(2, 0), RingElement(2, 3))
    assert list(w.bytes()) == [w.byte(0), w.byte(1)]
    assert (w + w).bits() == (0, 0, 0, 0)
    assert w.scale(zero(2)).bits() == (0, 0, 0, 0)
    assert w.scale(one(2)) == w
    assert str(w) == "1 u | 0 1+u"
    with pytest.raises(ParameterError):
        w.byte(2)
    with pytest.raises(ParameterError):
        Word.from_bits([1, 2, 0], 2, lay)
    with pytest.raises(AttributeError):
        w.coords = ()


def test_word_mismatch_rejected():
    lay = ByteLayout(b=2, t=1, n=1)
    other = ByteLayout(b=1, t=1, n=2)
    w1 = Word.from_bits([1, 0], 2, lay)
    w2 = Word.from_bits([1, 0], 2, other)
    with pytest.raises(ParameterError):
        w1 + w2
    with pytest.raises(ParameterError):
        w1 + Word.from_bits([1, 0], 3, lay)


def test_inner_product():
    m = 4
    x = [one(m), monomial(m, 1), zero(m)]
    y = [monomial(m, 3), monomial(m, 2), one(m)]
    assert inner_product(x, y) == monomial(m, 3) + monomial(m, 3)
    assert inner_product(x, y).is_zero()
    with pytest.raises(ParameterError):
        inner_product(x, y[:2])


def test_inner_product_of_no_coordinates_is_refused():
    """Empty words carry no ring to read m from: a ParameterError, where
    the first coordinate used to be read unchecked (IndexError)."""
    with pytest.raises(ParameterError, match="ring parameter m"):
        inner_product([], [])


def test_inner_product_bilinear_random():
    rng = random.Random(5)
    m, n = 3, 4
    for _ in range(100):
        x, y, z = (
            [RingElement(m, rng.randrange(8)) for _ in range(n)] for _ in range(3)
        )
        xy = [a + b for a, b in zip(x, y)]
        assert inner_product(xy, z) == inner_product(x, z) + inner_product(y, z)


# --- matrix files ---------------------------------------------------------


def test_parse_worked_example():
    G = load_matrix(DATA / "worked_example.txt")
    assert (G.m, G.layout.b, G.layout.t, G.layout.n) == (4, 3, 2, 2)
    assert G.k == 3
    assert G.rows[0][3] == monomial(4, 1) + monomial(4, 2)
    assert G.rows[2][4] == monomial(4, 3)


def test_parse_skips_comments_and_blanks():
    G = parse_matrix_text("# c\n\n  m=2 b=1 t=1\n# mid\n1\n\nu\n")
    assert G.k == 2 and G.layout.n == 1


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "missing header"),
        ("# only comments\n", "missing header"),
        ("m=2 b=1\n1\n", "expected header"),
        ("b=1 m=2 t=1\n1\n", "expected header"),
        ("m=x b=1 t=1\n1\n", "bad integer"),
        ("m=2 b=1 t=1\n", "no rows"),
        ("m=2 b=2 t=1\n1\n", "not a multiple"),
        ("m=2 b=2 t=1\n1 0\nu\n", "differs from first row"),
        ("m=2 b=2 t=3\n1 0\n", "t must satisfy"),
        ("m=2 b=1 t=1\nu2\n", "degree"),
        ("m=2 b=1 t=1\n1+1\n", "duplicate"),
        ("# c\nm=2 b=0 t=1\n1\n", "line 2: byte size b must be >= 1"),
        ("m=2 b=1 t=1\nu\u00b2\n", "bad monomial"),
        ("m=3 b=1 t=1\nu\u0662\n", "bad monomial"),
        ("# c\nm=\u0662 b=1 t=1\n1\n", "line 2: bad integer for m"),
        ("m=2 b=\uff11 t=1\n1\n", "line 1: bad integer for b"),
        ("m=1_6 b=1 t=1\n1\n", "line 1: bad integer for m"),
        ("m=+2 b=1 t=1\n1\n", "line 1: bad integer for m"),
        pytest.param(
            "m=" + "9" * 5000 + " b=1 t=1\n1\n", "line 1: bad integer for m",
            id="more-digits-than-int-takes",
        ),
        pytest.param(
            "# c\nm=4 b=1 t=1\nu" + "9" * 5000 + "\n",
            "line 3: monomial 'u999",
            id="monomial-power-longer-than-int-takes",
        ),
        ("# c\nm=0 b=1 t=1\n1\n", "line 2: m must be an integer in [1, 16], got 0"),
        ("# c\nm=17 b=1 t=1\n1\n", "line 2: m must be an integer in [1, 16], got 17"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(MatrixParseError) as exc:
        parse_matrix_text(text)
    assert fragment in str(exc.value)


_HEADER_VALUES = st.sampled_from(
    ["0", "1", "2", "3", "-1", "17", "", "\u0662", "\u00b2"]
) | st.text(max_size=3)
_HEADERS = st.sampled_from(
    ["m=2 b=2 t=1", "m=3 b=1 t=1", "m=2 b=0 t=1", "m=2 b=1 t=2", "m=0 b=1 t=1"]
) | st.tuples(_HEADER_VALUES, _HEADER_VALUES, _HEADER_VALUES).map(
    lambda v: "m={} b={} t={}".format(*v)
) | st.text(max_size=12)
_TOKENS = st.sampled_from(
    ["0", "1", "u", "u2", "u^1", "u^", "1+u", "u+u", "+", "#",
     "u\u00b2", "u\u0662", "\u0663"]
) | st.text(max_size=4)
_ROWS = st.lists(_TOKENS, max_size=6).map(" ".join)


@settings(max_examples=300, deadline=None)
@given(st.tuples(_HEADERS, st.lists(_ROWS, max_size=4)).map(
    lambda hr: "\n".join([hr[0], *hr[1]])
))
def test_parse_matrix_text_raises_only_parse_errors(text):
    try:
        G = parse_matrix_text(text)
    except MatrixParseError:
        return
    assert isinstance(G, GeneratorMatrix)


def test_parse_error_names_line():
    with pytest.raises(MatrixParseError) as exc:
        parse_matrix_text("# one\nm=2 b=1 t=1\n1\nbogus\n")
    assert exc.value.line == 4
    assert "line 4" in str(exc.value)


# --- span -----------------------------------------------------------------


def test_span_worked_example_size():
    C = span(load_matrix(DATA / "worked_example.txt"))
    assert len(C) == 512
    zero_word = Word.from_bits([0] * 6, 4, C.layout)
    assert zero_word in C
    assert C.codewords[0] == zero_word  # canonical order puts 0 first
    assert C.ambient_size() == 1 << 24


def test_span_matches_naive_enumeration():
    rng = random.Random(17)
    for _ in range(40):
        m = rng.randrange(1, 3)
        b = rng.randrange(1, 3)
        n = rng.randrange(1, 3)
        lay = ByteLayout(b=b, t=1, n=n)
        G = _random_matrix(rng, m, rng.randrange(0, 3), lay)
        C = span(G)
        naive = _naive_span(G)
        assert {w.coords for w in C} == naive


@settings(max_examples=60, deadline=None)
@given(_small_matrices(max_rows=3))
def test_span_matches_oracle_closure(G):
    naive = {(0,) * G.layout.N}
    for row in G.rows:
        naive = _add_row(naive, tuple(x.bits for x in row), G.m)
    C = span(G)
    assert [w.bits() for w in C] == sorted(naive)


def test_span_closed_under_operations():
    rng = random.Random(23)
    lay = ByteLayout(b=2, t=2, n=2)
    G = _random_matrix(rng, 2, 2, lay)
    C = span(G)
    words = list(C)
    for _ in range(50):
        x, y = rng.choice(words), rng.choice(words)
        assert x + y in C
        assert x.scale(RingElement(2, rng.randrange(4))) in C


def test_span_of_empty_matrix_is_zero_code():
    lay = ByteLayout(b=2, t=1, n=1)
    G = GeneratorMatrix([], lay, m=3)
    C = span(G)
    assert len(C) == 1
    assert all(x.is_zero() for x in C.codewords[0])


def test_span_budget():
    lay = ByteLayout(b=2, t=1, n=1)
    G = _random_matrix(random.Random(1), 4, 7, lay)  # 16^7 = 2^28 tuples
    with pytest.raises(BudgetError) as exc:
        span(G)
    assert exc.value.required == 1 << 28
    assert "R^k" in str(exc.value)
    # explicit budget unlocks it
    assert len(span(G, budget=1 << 28)) <= 1 << 28


def test_budget_error_sizes():
    # a size str() can print is printed in full, as before
    err = BudgetError("scan", 101 << 20, 1 << 24)
    assert str(err) == "scan: requires 105906176 > budget 16777216"
    assert err.required == 101 << 20
    assert str(BudgetError("scan", 101, 1 << 24, shift=20)) == str(err)
    # too long for str(): odd part times a power of two
    err = BudgetError("scan", 1 << 16000, 1)
    assert str(err) == "scan: requires 2^16000 > budget 1"
    err = BudgetError("scan", 6, 1, shift=10**20)
    assert str(err) == "scan: requires 3*2^100000000000000000001 > budget 1"
    # guard compares exponents before it builds anything
    BudgetError.guard("scan", 1 << 24, 2, shift=23)
    with pytest.raises(BudgetError) as exc:
        BudgetError.guard("scan", 1 << 24, 3, shift=23)
    assert exc.value.required == 3 << 23
    with pytest.raises(BudgetError, match=r"requires 2\^99999999999999999999 "):
        BudgetError.guard("scan", 1 << 24, shift=99999999999999999999)


def test_code_size_from_profile():
    assert code_size_from_profile(4, [1, 1, 1, 0]) == 512  # worked example
    assert code_size_from_profile(2, [0, 0]) == 1
    assert code_size_from_profile(1, [3]) == 8
    with pytest.raises(ParameterError):
        code_size_from_profile(2, [1])
    with pytest.raises(ParameterError):
        code_size_from_profile(2, [1, -1])


# --- dual scan ------------------------------------------------------------


def test_dual_orthogonal_and_complete():
    rng = random.Random(31)
    for _ in range(10):
        m = rng.randrange(1, 3)
        lay = ByteLayout(b=2, t=1, n=1)
        G = _random_matrix(rng, m, rng.randrange(0, 3), lay)
        C = span(G)
        Cd = dual(G)
        assert len(C) * len(Cd) == 1 << (m * lay.N)
        for w in Cd:
            for c in C:
                assert inner_product(c, w).is_zero()


def test_dual_of_empty_matrix_is_full_space():
    lay = ByteLayout(b=2, t=1, n=1)
    Cd = dual(GeneratorMatrix([], lay, m=1))
    assert len(Cd) == 4


def test_dual_budget_error_names_space():
    G = load_matrix(DATA / "worked_example.txt")
    with pytest.raises(BudgetError) as exc:
        dual(G, budget=1 << 20)
    assert exc.value.required == 1 << 24
    assert "16777216" in str(exc.value)


def test_dual_rejects_bad_workers_and_overflow():
    lay = ByteLayout(b=2, t=1, n=1)
    G = GeneratorMatrix([], lay, m=1)
    with pytest.raises(ParameterError):
        dual(G, workers=0)
    with pytest.raises(ParameterError):
        scan_dual(G, workers=0)
    wide = GeneratorMatrix([], ByteLayout(b=8, t=1, n=8), m=1)
    with pytest.raises(ParameterError):
        scan_dual(wide)
    with pytest.raises(TypeError, match="method"):
        dual(G, method="mitm")


def test_dual_kernel_route_packs_no_scan_index():
    """At m*N = 63 the kernel route solves by elimination; only the scan
    packs each vector into a 64-bit index, and it still refuses."""
    m, N = 1, 63
    # rows e_i + e_62: the kernel is {0, all-ones}
    rows = [
        [one(m) if j in (i, N - 1) else zero(m) for j in range(N)]
        for i in range(N - 1)
    ]
    G = GeneratorMatrix(rows, ByteLayout(b=N, t=1, n=1), m=m)
    Cd = dual(G, budget=1 << 64)
    assert Cd.digits.tolist() == [[0] * N, [1] * N]
    with pytest.raises(ParameterError, match="scan index needs 63 bits"):
        scan_dual(G)


def _assert_kernel_equals_scan(G):
    kernel = dual(G)
    assert [w.bits() for w in kernel] == _scanned(G)
    assert len(span(G)) * len(kernel) == 1 << (G.m * G.layout.N)


def test_dual_kernel_matches_scan_random():
    rng = random.Random(71)
    shapes = [  # (m, b, n, k): N = 1, odd N, m = 1, k = 0 and wider codes
        (1, 1, 1, 1), (2, 1, 1, 0), (3, 1, 1, 2), (1, 3, 1, 2), (1, 5, 1, 3),
        (2, 3, 1, 1), (2, 1, 3, 2), (1, 2, 3, 4), (3, 2, 2, 2), (2, 2, 2, 0),
        (4, 1, 3, 1), (1, 4, 2, 5), (2, 5, 1, 3),
    ]
    for m, b, n, k in shapes:
        for _ in range(4):
            lay = ByteLayout(b=b, t=rng.randrange(1, b + 1), n=n)
            _assert_kernel_equals_scan(_random_matrix(rng, m, k, lay))
    zero_rows = [tuple(zero(2) for _ in range(4))] * 2
    _assert_kernel_equals_scan(GeneratorMatrix(zero_rows, ByteLayout(b=2, t=1, n=2)))


@settings(max_examples=60, deadline=None)
@given(_small_matrices())
def test_dual_kernel_matches_scan_property(G):
    _assert_kernel_equals_scan(G)


def _constraint_forms(G):
    """Reference: the m forms "coefficient s of <row, v>" of each row, as
    packed masks over the bits of v, built literally: bit e of coordinate i
    (packed bit m*(N-1-i) + e) enters form s when u^e * g_i has
    coefficient s."""
    m, N = G.m, G.layout.N
    forms = []
    for row in G.rows:
        for s in range(m):
            form = 0
            for i, g in enumerate(row):
                for e in range(m):
                    if mul_bits(g.bits, 1 << e, m) >> s & 1:
                        form |= 1 << (m * (N - 1 - i) + e)
            forms.append(form)
    return forms


@settings(max_examples=100, deadline=None)
@given(_small_matrices(max_bits=62, max_rows=24))
def test_rank_and_kernel_dimension_fill_the_space(G):
    """|C| * |C-dual| = |R|^N without enumerating either side: the rank of
    the one elimination plus the kernel dimension is m*N, and every kernel
    vector is orthogonal to the constraint forms built literally, which
    span a space of the same rank, so the kernel is exactly their null
    space."""
    rows = [_pack((x.bits for x in row), G.m) for row in G.rows]
    rank = len(_row_space(G.m, G.layout.N, rows))
    kernel = _kernel_basis(G.m, G.layout.N, rows)
    assert rank + len(kernel) == G.m * G.layout.N
    forms = _constraint_forms(G)
    assert all((v & f).bit_count() % 2 == 0 for v in kernel for f in forms)
    form_basis, kernel_basis = {}, {}
    for f in forms:
        _insert(f, form_basis)
    for v in kernel:
        _insert(v, kernel_basis)
    assert len(form_basis) == rank and len(kernel_basis) == len(kernel)
    if rank <= 12:  # the span is small enough to list: check |C| too
        assert len(span(G, budget=1 << (G.m * G.k))) == 1 << rank


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 16), st.integers(1, 4), st.data())
def test_inner_product_bits_are_mirrored_dot_products(m, N, data):
    """Bit s of <g, v> is the parity of v AND mirror(u^(m-1-s) * g): the
    identity that makes the dual the mirrored binary dual of the span."""
    word = st.lists(st.integers(0, (1 << m) - 1), min_size=N, max_size=N)
    g, v = data.draw(word), data.draw(word)
    c = inner_product(*([RingElement(m, x) for x in w] for w in (g, v))).bits
    multiples = list(_multiples(_pack(g, m), m, N))
    packed_v = sum(x << (m * (N - 1 - i)) for i, x in enumerate(v))
    for s in range(m):
        w = multiples[m - 1 - s]
        mirrored = sum(1 << _mirror(i, m) for i in range(m * N) if w >> i & 1)
        assert c >> s & 1 == (packed_v & mirrored).bit_count() % 2


@settings(max_examples=60, deadline=None)
@given(_small_matrices(max_bits=40, max_rows=8))
def test_span_basis_is_fully_reduced(G):
    """Each leading bit of span(G)'s basis appears in exactly one basis
    vector, the one that it leads."""
    basis = span(G, budget=1 << (G.m * G.k))._basis
    for p in (v.bit_length() - 1 for v in basis):
        assert sum(v >> p & 1 for v in basis) == 1


def test_dual_kernel_matches_scan_wide_matrices():
    """k*m > 64 bits of constraints.  Row 0 and the last row are two base
    rows and the rows between are non-unit multiples of row 0, so only the
    last row's constraint forms carry what no earlier form does, and the
    dual stays large enough to compare."""
    rng = random.Random(83)
    for m, N, k in ((1, 4, 65), (4, 3, 17), (2, 4, 40)):
        lay = ByteLayout(b=N, t=1, n=1)
        base = _random_matrix(rng, m, 2, lay).rows
        rows = [base[0]]
        for _ in range(k - 2):
            a = RingElement(m, rng.randrange(0, 1 << m, 2))
            rows.append(tuple(a * x for x in base[0]))
        rows.append(base[1])
        G = GeneratorMatrix(rows, lay, m=m)
        assert k * m > 64
        kernel = dual(G)
        assert [w.bits() for w in kernel] == _scanned(G)
        assert kernel.codewords == dual(GeneratorMatrix(base, lay, m=m)).codewords
        assert len(kernel) < len(dual(GeneratorMatrix(rows[:-1], lay, m=m)))
        assert len(kernel) > 1


def test_dual_kernel_matches_scan_worked_example():
    G = load_matrix(DATA / "worked_example.txt")
    assert dual(G).digits.tolist() == _scan_words(G).tolist()


def test_generating_rows_reproduces_code():
    rng = random.Random(59)
    for _ in range(15):
        m = rng.randrange(1, 3)
        lay = ByteLayout(b=2, t=1, n=1)
        G = _random_matrix(rng, m, rng.randrange(0, 3), lay)
        C = span(G)
        H = generating_rows(C)
        assert H.k <= G.k or G.k == 0
        assert span(H).codewords == C.codewords
        # the same greedy choice as the naive closure makes
        assert H.rows == _generators(_naive_bits(G), lay, m).rows


def test_generating_rows_refuses_a_code_that_is_not_r_linear():
    """{0, (1, 0)} at m=2 is F2-linear but not R-linear: the R-span of
    (1, 0) has 4 words, so no rows generate it, and `generating_rows`
    refuses it rather than return (1, 0), whose dual has W = 1 + 3z.
    `transform` of its table is the enumerator of the 8 words v with
    chi(<c, v>) = 1 for every c in C, counted here one v at a time."""
    lay = ByteLayout(b=1, t=1, n=2)
    C = LinearCode([Word.from_bits(w, 2, lay) for w in ([0, 0], [1, 0])], lay, 2)
    with pytest.raises(ParameterError, match="not R-linear"):
        generating_rows(C)
    vectors = (Word.from_bits(v, 2, lay) for v in itertools.product(range(4), repeat=2))
    W = Polynomial(
        (m_spotty_weight(v), 1) for v in vectors
        if all(chi(inner_product(c, v)) == 1 for c in C)
    )
    assert transform(distribution(C), len(C)) == W == Polynomial({0: 1, 1: 4, 2: 3})


def test_generating_rows_refuses_exactly_the_codes_that_are_not_r_linear():
    """On F2 closures of random words, `generating_rows` refuses exactly
    the sets that some u * c leaves, and otherwise returns rows whose span
    is the set."""
    rng = random.Random(61)
    u_times = {1: [0, 0]}  # u = 0 in F2
    u_times.update({m: [mul_bits(2, x, m) for x in range(1 << m)] for m in (2, 3)})
    refused = 0
    for _ in range(60):
        m, lay = rng.randrange(1, 4), ByteLayout(b=rng.randrange(1, 3), t=1, n=2)
        rows = [[rng.randrange(1 << m) for _ in range(lay.N)]
                for _ in range(rng.randrange(4))]
        C = xor_closure(rows, m, lay)
        words = {w.bits() for w in C}
        r_linear = all(tuple(u_times[m][x] for x in w) in words for w in words)
        if r_linear:
            assert span(generating_rows(C)).codewords == C.codewords
        else:
            refused += 1
            with pytest.raises(ParameterError, match="not R-linear"):
                generating_rows(C)
    assert 0 < refused < 60


def test_span_dual_and_generating_rows_take_no_ring_product():
    """Rows are packed once and u^i acts by shift-and-mask: with every
    `mul_bits` refusing, span, dual, the public constructor (on the span's
    words and on an F2-closed set) and generating_rows give the worked
    example's codes and rows unchanged, and generating_rows refuses the
    F2-closed set, which is not R-linear."""
    G = load_matrix(DATA / "worked_example.txt")

    def answers():
        C = span(G)
        codes = [C, dual(G), LinearCode(C, G.layout, G.m)]
        closed = xor_closure(_random_rows(random.Random(5), G, 6), G.m, G.layout)
        with pytest.raises(ParameterError, match="not R-linear"):
            generating_rows(closed)
        return [closed._basis] + [(C._basis, generating_rows(C).rows) for C in codes]

    def refuse(*args):
        raise AssertionError("mul_bits called")

    want = answers()
    with mock.patch.object(code_module, "mul_bits", refuse), \
            mock.patch.object(ring_module, "mul_bits", refuse):
        assert answers() == want
    assert [w.coords for w in span(G)] == sorted(_naive_span(G))
    assert [w.bits() for w in dual(G)] == _scanned(G)


def test_a_code_past_len_reports_its_exact_size():
    """The dual of one all-ones row at m=1, N=64 has rank 63: `len()`
    cannot return 2^63, but `repr` and `generating_rows` read the exact
    size."""
    lay = ByteLayout(b=4, t=1, n=16)
    C = dual(GeneratorMatrix([[one(1)] * lay.N], lay), budget=1 << 64)
    assert repr(C) == f"LinearCode(|C|={1 << 63}, m=1, layout={lay})"
    with pytest.raises(OverflowError):
        len(C)
    H = generating_rows(C)
    assert all(Word(row, lay) in C for row in H.rows)
    rows = [_pack((x.bits for x in row), 1) for row in H.rows]
    assert len(_row_space(1, lay.N, rows)) == 63


_VALUE_KINDS = ["RingElement", "Word", "ByteLayout", "GeneratorMatrix", "basis code",
                "constructed code", "DistributionTable", "Polynomial"]


@pytest.mark.parametrize("kind", _VALUE_KINDS)
def test_value_type_contracts(kind):
    """Every value type refuses attribute assignment.  A code, from `span`
    or from the public constructor, lists its words in the order `Word.__lt__` sorts them
    into, and equal words, built apart, hash equal and index alike."""
    G = load_matrix(DATA / "worked_example.txt")
    C = span(G)
    value = {
        "RingElement": G.rows[0][1],
        "Word": next(iter(C)),
        "ByteLayout": G.layout,
        "GeneratorMatrix": G,
        "basis code": C,
        "constructed code": xor_closure(
            _random_rows(random.Random(2), G, 6), G.m, G.layout
        ),
        "DistributionTable": distribution(C),
        "Polynomial": enumerator(C),
    }[kind]
    for name in ("m", "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    if isinstance(value, LinearCode):
        words = list(value)
        shuffled = words[::-1]
        random.Random(1).shuffle(shuffled)
        assert sorted(shuffled) == words
        for w in words:
            twin = Word.from_bits(w.bits(), w.m, w.layout)
            assert twin == w and hash(twin) == hash(w) and twin is not w
            assert [twin[i] for i in range(len(w))] == list(w.coords)
            assert w[-1] == w.coords[-1] and w[1:3] == w.coords[1:3]
            assert [bool(x) for x in w] == [x.bits != 0 for x in w]
        assert len(set(words) | {Word(w.coords, w.layout) for w in words}) == len(words)


def _naive_dual(G):
    """Independent route: every vector of R^N orthogonal to every row."""
    m = G.m
    return {
        v
        for v in itertools.product(range(1 << m), repeat=G.layout.N)
        if all(
            inner_product(row, [RingElement(m, x) for x in v]).is_zero()
            for row in G.rows
        )
    }


@settings(max_examples=60, deadline=None)
@given(_small_matrices(max_bits=10, max_rows=3), st.integers(0, 6))
def test_blocks_run_in_canonical_order(G, digit_bits):
    """With blocks of at most 4 words and 2^digit_bits digits (one word
    when a word is longer), most codes have several high basis rows.  The
    blocks of the span, of the kernel and of the scanned dual, concatenated
    as they come, list the naive closure and the naive dual in sorted
    order, as the oracle's own scanned words do."""
    m, N = G.m, G.layout.N
    closure = {(0,) * N}
    for row in G.rows:
        closure = _add_row(closure, tuple(x.bits for x in row), m)
    naive_dual = _naive_dual(G)
    assert _scanned(G) == sorted(naive_dual)
    codes = ((span(G), closure), (dual(G), naive_dual), (scan_dual(G), naive_dual))
    with mock.patch.multiple(code_module, _BLOCK_BITS=2, _BLOCK_DIGIT_BITS=digit_bits):
        for C, naive in codes:
            blocks = list(code_module._blocks(C))
            for B in (block.shape[1] for block in blocks):
                assert B <= 4 and (B == 1 or B * N <= 1 << digit_bits)
            words = np.concatenate(blocks, axis=1).T
            assert list(map(tuple, words.tolist())) == sorted(naive)


@settings(max_examples=60, deadline=None)
@given(_small_matrices(max_bits=8, max_rows=3))
def test_membership_equals_digit_row_lookup(G):
    """Every word of R^N, in C or not, is in C exactly when it is a row of
    the digit array and a word of the naive closure or dual: for the span,
    the kernel and the public constructor's copy of each."""
    m, lay = G.m, G.layout
    for C, naive in ((span(G), _naive_bits(G)), (dual(G), _naive_dual(G))):
        rows = set(map(tuple, C.digits.tolist()))
        copy = LinearCode([Word.from_bits(w, m, lay) for w in naive], lay, m)
        for bits in itertools.product(range(1 << m), repeat=lay.N):
            w = Word.from_bits(bits, m, lay)
            assert (w in C) == (w in copy) == (bits in rows) == (bits in naive)


def test_basis_backed_code_answers_without_the_digit_array(monkeypatch):
    """`generating_rows`, `w in C` and `_word_strings` read a span or
    kernel code's basis and blocks; each answer equals the one read off
    the naive closure and the scanned dual: the naive greedy choice, the
    rows and `str` of each word."""
    G = load_matrix(DATA / "worked_example.txt")
    want = []
    for words in (sorted(_naive_bits(G)), _scanned(G)):
        strings = [str(Word.from_bits(w, G.m, G.layout)) for w in words]
        want.append((_generators(words, G.layout, G.m).rows, words, strings))

    def refuse(C):
        raise AssertionError("digit array built")

    monkeypatch.setattr(LinearCode, "digits", property(refuse))
    rng = random.Random(7)
    m, lay = G.m, G.layout
    for C, (gens, rows, strings) in zip((span(G), dual(G)), want):
        assert generating_rows(C).rows == gens
        blocks = list(code_module._word_strings(C))  # the dual is two blocks
        assert [len(block) for block in blocks] == [min(len(C), 1 << 14)] * len(blocks)
        assert [w for block in blocks for w in block] == strings
        inside = set(rows)
        for _ in range(200):
            bits = rng.choice(rows)
            outside = tuple(rng.randrange(1 << m) for _ in range(lay.N))
            assert Word.from_bits(bits, m, lay) in C
            assert (Word.from_bits(outside, m, lay) in C) == (outside in inside)


def test_membership_memory_is_bounded_by_the_basis():
    """`w in C` on a rank-20 code reduces the word against 20 basis rows:
    the 2^20-row digit array alone would take 20 MB."""
    tracemalloc = pytest.importorskip("tracemalloc")
    lay = ByteLayout(b=4, t=2, n=5)
    G = _random_matrix(random.Random(3), 2, 10, lay)
    C = span(G)
    assert len(C) == 1 << 20
    inside = Word(G.rows[0], lay) + Word(G.rows[1], lay).scale(RingElement(2, 2))
    outside = Word.from_bits([1] + [0] * (lay.N - 1), 2, lay)
    kernel = [Word.from_bits(code_module._unpack(v, lay.N, 2).tolist(), 2, lay)
              for v in dual(G, budget=1 << 40)._basis]
    assert not all(inner_product(outside, d).is_zero() for d in kernel)
    tracemalloc.start()
    try:
        found = [inside in C, outside in C]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found == [True, False]
    assert peak < 1 << 20


def test_linear_code_invariants():
    lay = ByteLayout(b=1, t=1, n=2)
    w0 = Word.from_bits([0, 0], 2, lay)
    w1 = Word.from_bits([1, 0], 2, lay)
    C = LinearCode([w1, w0, w1], lay, 2)  # F2-linear, not R-linear
    assert len(C) == 2  # deduplicated
    assert C.codewords == (w0, w1)  # sorted
    assert C.codewords == C.codewords  # built anew on each read
    assert not hasattr(C, "_words")  # and kept nowhere
    assert C.digits.tolist() == [[0, 0], [1, 0]]
    assert not C.digits.flags.writeable
    assert w1 in C and Word.from_bits([0, 1], 2, lay) not in C
    assert Word.from_bits([1, 0], 3, lay) not in C
    with pytest.raises(ParameterError):
        LinearCode([], lay, 2)
    with pytest.raises(ParameterError):
        LinearCode([w0], ByteLayout(b=2, t=1, n=1), 2)


def test_linear_code_refuses_words_not_closed_under_addition():
    """(1, 0) and (0, 1) at m=2 do not hold their sum: refused, where the
    set used to be a code whose `minimum_distance` read 1 against a least
    pairwise distance of 2, and so are sets of 2^k words that are not
    closed.  {0, (1, 0)}, F2-linear though not R-linear, is still a code,
    and no words at all are still refused."""
    lay = ByteLayout(b=1, t=1, n=2)
    w0, w10, w01 = (Word.from_bits(w, 2, lay) for w in ([0, 0], [1, 0], [0, 1]))
    w20 = Word.from_bits([2, 0], 2, lay)
    for words in ([w10, w01], [w0, w10, w01], [w10], [w0, w10, w01, w20]):
        with pytest.raises(ParameterError, match="not closed under addition"):
            LinearCode(words, lay, 2)
    C = LinearCode([w10, w0], lay, 2)
    assert C.codewords == (w0, w10) and minimum_distance(C) == 1
    C = LinearCode([w0, w10, w01, w10 + w01], lay, 2)
    assert len(C) == 4 and minimum_distance(C) == 1
    with pytest.raises(ParameterError, match="cannot be empty"):
        LinearCode([], lay, 2)


def test_iteration_streams_the_words_in_canonical_order():
    """`for w in C` yields `C.codewords` in canonical order, the rows of
    `C.digits` and of the oracle's scanned words, for codes of several
    2^14-word blocks: the kernel dual, the span of its generating rows, the
    scanned dual and a code built from its words.  A second pass gives the
    same words."""
    lay, rng = ByteLayout(b=4, t=1, n=5), random.Random(26)
    rows = [[RingElement(1, int(i == j)) for j in range(5)]
            + [RingElement(1, rng.randrange(2)) for _ in range(15)] for i in range(5)]
    G = GeneratorMatrix(rows, lay, m=1)
    kernel = dual(G)
    assert len(kernel) == 1 << 15
    codes = [kernel, span(generating_rows(kernel)), scan_dual(G)]
    codes.append(LinearCode(reversed(list(codes[2])), lay, 1))
    want = _scanned(G)
    assert want == sorted(set(want)) and len(want) == len(kernel)
    for C in codes:
        assert [w.bits() for w in C] == want
        assert [w.bits() for w in C] == want == [w.bits() for w in C.codewords]
        assert list(map(tuple, C.digits.tolist())) == want


# Iterates the 2^18 words of the all-zero m=1, b=18 dual, basis-backed and
# scanned, printing each loop's word count and VmHWM rise in KiB, then
# whether numpy.ma is loaded.  VmHWM, since ru_maxrss after exec can keep
# the forking process's peak.
STREAM_RSS = """
import sys
from mspotty.code import ByteLayout, GeneratorMatrix, dual
from mspotty.oracle import scan_dual
from mspotty.ring import zero

def vm_hwm():
    with open("/proc/self/status") as fh:
        return next(int(ln.split()[1]) for ln in fh if ln.startswith("VmHWM:"))

G = GeneratorMatrix([[zero(1)] * 18], ByteLayout(b=18, t=1, n=1), m=1)
for C in (dual(G), scan_dual(G)):
    before = vm_hwm()
    count = sum(1 for w in C)
    print(count, vm_hwm() - before)
print("numpy.ma" in sys.modules)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM")
def test_iteration_memory_is_bounded_by_a_block():
    """Iterating 2^18 words, of the kernel or of the scanned dual, raises
    the peak by under 20 MB: one block's rows and words at a time,
    not the whole code.  No loop loads numpy.ma."""
    src = str(Path(code_module.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", STREAM_RSS], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=path), text=True)
    assert proc.returncode == 0, proc.stderr
    *loops, ma_loaded = proc.stdout.split("\n")[:-1]
    for line in loops:
        count, rise_kib = map(int, line.split())
        assert count == 1 << 18 and rise_kib < 20 << 10, proc.stdout
    assert len(loops) == 2 and ma_loaded == "False"


@pytest.mark.parametrize("m, b, n", [(1, 1, 3), (2, 2, 2), (3, 3, 1), (4, 1, 1)])
def test_word_strings_match_str_of_each_word(m, b, n):
    lay = ByteLayout(b=b, t=1, n=n)
    C = dual(_random_matrix(random.Random(100 * m + b), m, 1, lay))
    blocks = code_module._word_strings(C)
    assert [w for block in blocks for w in block] == [str(w) for w in C]


def test_generator_matrix_validation():
    lay = ByteLayout(b=2, t=1, n=1)
    with pytest.raises(ParameterError):
        GeneratorMatrix([], lay)  # no m
    with pytest.raises(ParameterError):
        GeneratorMatrix([(one(2),)], lay)  # wrong length
    with pytest.raises(ParameterError):
        GeneratorMatrix([(one(2), one(3))], lay)  # mixed m
    with pytest.raises(ParameterError):
        GeneratorMatrix([(one(2), one(2))], lay, m=3)  # contradicting m
    G = GeneratorMatrix([(one(2), zero(2))], lay)
    assert G.m == 2 and G.k == 1


def _round_trips(x):
    return pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)


def test_word_and_generator_matrix_round_trip_through_pickle_and_copy():
    G = load_matrix(DATA / "worked_example.txt")
    empty = GeneratorMatrix([], ByteLayout(b=2, t=1, n=3), m=3)
    for M in (G, empty):
        for back in _round_trips(M):
            assert type(back) is GeneratorMatrix
            assert (back.rows, back.layout, back.m) == (M.rows, M.layout, M.m)
    w = Word(G.rows[1], G.layout)
    for back in _round_trips(w):
        assert type(back) is Word
        assert back == w and back.m == w.m and str(back) == str(w)


def test_linear_code_round_trips_through_pickle_and_copy():
    """A code from `span` and one from the public constructor come back
    with the same basis, words, distribution and dual enumerator."""
    G = load_matrix(DATA / "worked_example.txt")
    C = span(G)
    D = xor_closure(_random_rows(random.Random(4), G, 6), G.m, G.layout)
    for code in (C, D):
        want = distribution(code)
        for back in _round_trips(code):
            assert type(back) is LinearCode
            assert back._basis == code._basis
            assert (back.layout, back.m, len(back)) == (code.layout, code.m, len(code))
            assert np.array_equal(back.digits, code.digits)
            assert distribution(back) == want
            assert transform(distribution(back), len(back)) == transform(want, len(code))
