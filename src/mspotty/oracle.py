"""Brute-force ground truth for every character-sum identity we rely on.

Each sum here is evaluated by literal enumeration: every term is computed
on its own, with no factorization and no closed form.  That is what
"naive" means here, not one Python iteration per term: the per-byte
engine `_support_sums` evaluates chi(<c, v>) over boxes of v in numpy,
checked by the one-vector-at-a-time `sum_chi_*` functions, and the
per-byte checks read three exact integer regroupings of its bucket
totals; chi is never used beyond the engine.  In the engine each <c, v>
is the XOR of its b products and chi is read once per v, from that full
XOR; XORs shared across a box only reorder the evaluation.  Taking chi
per coordinate and multiplying the signs would be the product
factorization these sums are meant to check, so nothing here does it.
Each check compares whole arrays of those totals with tables of
closed-form values, one comparison per chunk of bytes, and describes
only its first mismatch.  Inside the campaign a cell's bytes
are one integer array, a row of b coefficient masks per byte, from
sampling to report; a byte becomes `RingElement`s only to describe a
mismatch.  The closed forms live in `macwilliams`
and in the campaign's expected values: the transform is the fast path,
these are the referee.  Codes are closed row by row and enumerators
summed word by word: nothing here calls `span`, the vectorized statistics
in `weight`, `code.dual` or the transform's fold, and the campaign builds
no `LinearCode`.  The dual is found by `_scan_words`, which tests every
vector of R^N and keeps its hits as a plain sorted digit array; its times
tables are its own and are not the engine's, so one wrong product cannot
pass both.  `scan_dual` gives the same words as a `LinearCode`.

Check ids used in reports ("3.1" ... "3.7", "c3.1", "c3.2", "partition")
are stable wire identifiers, chosen once and kept short for JSON output.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass
from math import comb
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .code import (
    DEFAULT_SPACE_BUDGET,
    ByteLayout,
    GeneratorMatrix,
    LinearCode,
    Word,
    _digit_dtype,
    inner_product,
)
from .errors import BudgetError, ParameterError
from .macwilliams import f_poly
from .polynomial import Polynomial
from .ring import (
    RingElement,
    chi,
    elements,
    ideal_elements,
    monomial,
    mul_bits,
    one,
    partition,
    satisfies_partition_axioms,
    zero,
)
from .weight import m_spotty_weight, support

Byte = tuple[RingElement, ...]

#: Cap on |R|^b for per-byte scans (b*m <= 24 bits of search space).
DEFAULT_BYTE_BUDGET = 1 << 24
#: Cap on the 8^m byte-vector visits of summation check 3.7; 8^7 admits
#: m <= 7.  Set when the check took 0.11 / 0.93 / 8.4 s at m = 5 / 6 / 7;
#: with the byte scans in numpy blocks it takes 0.005 / 0.014 / 0.12 s, and
#: 0.58 s at m = 8 (best of 3, 2 CPUs), most of it the dual scan.
POISSON_SCAN_BUDGET = 8**7
#: Vectors of R^N tested per chunk by `_scan`.
_SCAN_CHUNK = 1 << 20
#: Cap on candidate subsets tried by the partition search.
PARTITION_SEARCH_BUDGET = 10_000

#: (byte, v) pairs evaluated per numpy block by `_support_sums`.
_BLOCK_PAIRS = 1 << 14
_EXHAUSTIVE_BITS = 8  # enumerate all bytes when m*b <= this
_DEFAULT_SAMPLES = 100


def _byte_params(c: Byte) -> tuple[int, int]:
    if not c:
        raise ParameterError("byte must have at least one coordinate")
    m = c[0].m
    for x in c:
        if x.m != m:
            raise ParameterError("byte coordinates mix ring parameters")
    return m, len(c)


def _nonzero(m: int) -> tuple[RingElement, ...]:
    return tuple(x for x in elements(m) if not x.is_zero())


def sum_chi_over_ideal(m: int, k: int) -> int:
    """chi summed over the whole ideal <u^k>; 0 whenever the ideal is not {0}."""
    if not 0 <= k < m:
        raise ParameterError(f"need 0 <= k < m={m} (a nonzero ideal), got k={k}")
    return sum(chi(a) for a in ideal_elements(m, k))


def sum_chi_multiples(m: int, a: RingElement) -> int:
    """chi(a*r) summed over every r in R; 2^m when a = 0, else 0."""
    if a.m != m:
        raise ParameterError(f"element has m={a.m}, expected {m}")
    return sum(chi(a * r) for r in elements(m))


def _check_subset(c: Byte, I: Sequence[int]) -> tuple[int, ...]:
    sup = set(support(c))
    I = tuple(sorted(set(I)))
    for i in I:
        if i not in sup:
            raise ParameterError(f"index {i} is outside the support of c")
    return I


def _chi_sum(c: Byte, I: Sequence[int], values: Sequence[RingElement]) -> int:
    """chi(<c, v>) summed literally over every v that takes a value from
    `values` at each index of I and is zero elsewhere, one v at a time."""
    m, b = c[0].m, len(c)
    total = 0
    for combo in itertools.product(values, repeat=len(I)):
        v = [zero(m)] * b
        for i, x in zip(I, combo):
            v[i] = x
        total += chi(inner_product(c, v))
    return total


def sum_chi_subspace(c: Byte, I: Sequence[int]) -> int:
    """chi(<c, v>) summed over all v supported inside I, zeros included.

    I must be a nonempty subset of supp(c).  The sum factors into one
    full-ring character sum per index, so it is 0 whenever I is nonempty.
    """
    m, _ = _byte_params(c)
    I = _check_subset(c, I)
    if not I:
        raise ParameterError("index set must be nonempty")
    return _chi_sum(c, I, tuple(elements(m)))


def sum_chi_fixed_support(c: Byte, I: Sequence[int]) -> int:
    """chi(<c, v>) summed over v with support exactly I; equals (-1)^|I|.

    I must be a subset of supp(c); the empty set contributes the single
    term chi(0) = 1.
    """
    m, _ = _byte_params(c)
    return _chi_sum(c, _check_subset(c, I), _nonzero(m))


def sum_chi_Sk(c: Byte, k: int) -> int:
    """chi-sum over v of Hamming weight k supported inside supp(c);
    equals (-1)^k * C(j, k) for j = w(c)."""
    _byte_params(c)
    sup = support(c)
    if not 0 <= k <= len(sup):
        raise ParameterError(f"need 0 <= k <= w(c)={len(sup)}, got {k}")
    return sum(sum_chi_fixed_support(c, I) for I in itertools.combinations(sup, k))


def sum_chi_Sbar(c: Byte, k: int) -> int:
    """chi-sum over v of weight k supported outside supp(c);
    equals (2^m - 1)^k * C(b - j, k)."""
    m, b = _byte_params(c)
    outside = tuple(i for i in range(b) if c[i].is_zero())
    if not 0 <= k <= len(outside):
        raise ParameterError(f"need 0 <= k <= b-w(c)={len(outside)}, got {k}")
    return sum(
        _chi_sum(c, I, _nonzero(m)) for I in itertools.combinations(outside, k)
    )


def sum_chi_Sj1j2(c: Byte, j1: int, j2: int) -> int:
    """chi-sum over v with j1 nonzero coordinates inside supp(c) and j2
    outside; equals (-1)^j1 * (2^m - 1)^j2 * C(j, j1) * C(b - j, j2)."""
    m, b = _byte_params(c)
    sup = support(c)
    outside = tuple(i for i in range(b) if c[i].is_zero())
    if not 0 <= j1 <= len(sup):
        raise ParameterError(f"need 0 <= j1 <= w(c)={len(sup)}, got {j1}")
    if not 0 <= j2 <= len(outside):
        raise ParameterError(f"need 0 <= j2 <= b-w(c)={len(outside)}, got {j2}")
    return sum(
        _chi_sum(c, I_in + I_out, _nonzero(m))
        for I_in in itertools.combinations(sup, j1)
        for I_out in itertools.combinations(outside, j2)
    )


def byte_transform_bruteforce(c: Byte, t: int) -> Polynomial:
    """Sum over ALL v in R^b of chi(<c, v>) * z^ceil(w_H(v)/t): the
    `_support_sums` buckets totalled by weight k, grouped by ceil(k/t).
    |R|^b above `DEFAULT_BYTE_BUDGET` raises BudgetError before any scan.

    The closed form is f_poly(w(c), b, m, t); equality is checked
    term-for-term by the campaign and the tests.
    """
    m, b = _byte_params(c)
    if not 1 <= t <= b:
        raise ParameterError(f"need 1 <= t <= b={b}, got t={t}")
    BudgetError.guard("byte scan over R^b", DEFAULT_BYTE_BUDGET, shift=m * b)
    return _byte_transforms(m, b, t, np.array([[x.bits for x in c]]))[0]


def _byte_transforms(m: int, b: int, t: int, cs: np.ndarray) -> list[Polynomial]:
    """`byte_transform_bruteforce` of every row of coefficient masks in cs,
    from one engine call."""
    weights = _weight_totals(_support_sums(m, b, cs), _popcounts(b))
    return [_regroup(row, t) for row in weights.tolist()]


def dual_enumerator_bruteforce(G: GeneratorMatrix) -> Polynomial:
    """Weight enumerator of the dual scanned on one worker, |R|^N capped at
    `DEFAULT_SPACE_BUDGET`: `m_spotty_weight` summed over a `Word` built
    from each row of `_scan_words`; no transform involved."""
    elems = tuple(elements(G.m))
    counts: dict[int, int] = {}
    for row in _scan_words(G).tolist():
        e = m_spotty_weight(Word(map(elems.__getitem__, row), G.layout))
        counts[e] = counts.get(e, 0) + 1
    return Polynomial(counts)


# --- exhaustive dual scan -------------------------------------------------


def scan_dual(G: GeneratorMatrix, workers: int = 1) -> LinearCode:
    """Every v in R^N with <row, v> = 0 for all rows of G, found by testing
    each vector of R^N (`_scan`): the referee of `code.dual`, which it
    equals.  The scan's hits are the words packed, so the code is built
    from them through the public constructor's closure check, with no
    `Word` per hit."""
    return LinearCode._from_words(_scan(G, workers).tolist(), G.layout, G.m)


def _scan_words(G: GeneratorMatrix) -> np.ndarray:
    """The words of `_scan` on one worker as the oracle's own read-only
    (|C⊥|, N) digit array, unpacked one coordinate at a time straight into
    the digit dtype: rows distinct, since each vector is tested once, and
    sorted, since the hits come in index order, which is canonical order."""
    hits, m, N = _scan(G, 1), G.m, G.layout.N
    words = np.empty((len(hits), N), dtype=_digit_dtype(m))
    for i, column in enumerate(_coords(hits, m, N)):
        words[:, i] = column
    words.flags.writeable = False
    return words


def _scan(G: GeneratorMatrix, workers: int) -> np.ndarray:
    """The packed vectors of R^N orthogonal to every row of G, ascending,
    tested with times tables of the scan's own.  R^N is walked in chunks
    of `_SCAN_CHUNK` (read at call time) on up to `workers` processes,
    merged in chunk order.  Each vector packs into a uint64 index of at
    most 62 bits (`_coords`), and |R|^N is capped at
    `DEFAULT_SPACE_BUDGET`."""
    if workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")
    m, N = G.m, G.layout.N
    if m * N > 62:
        raise ParameterError(f"scan index needs {m * N} bits, beyond 64-bit packing")
    BudgetError.guard("dual scan over R^N", DEFAULT_SPACE_BUDGET, shift=m * N)
    rows_bits = tuple(tuple(x.bits for x in row) for row in G.rows)
    space, step = 1 << (m * N), _SCAN_CHUNK
    chunks = [(lo, min(lo + step, space)) for lo in range(0, space, step)]
    procs = min(workers, len(chunks), os.cpu_count() or 1)
    if procs == 1:
        hits = [_scan_chunk(lo, hi, m, N, rows_bits) for lo, hi in chunks]
    else:  # imported here, so that no other path loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=procs) as pool:
            futures = [
                pool.submit(_scan_chunk, lo, hi, m, N, rows_bits)
                for lo, hi in chunks
            ]
            hits = [f.result() for f in futures]  # submission order: deterministic
    return np.concatenate(hits)


def _coords(idx: np.ndarray, m: int, N: int) -> Iterator[np.ndarray]:
    """Coordinate i of every uint64 index, for i = 0..N-1 in turn.
    Coordinate 0 is in the top m bits, so index order is canonical order."""
    mask = np.uint64((1 << m) - 1)
    for i in range(N):
        yield (idx >> np.uint64(m * (N - 1 - i))) & mask


def _times_table(c: int, m: int) -> np.ndarray:
    """x -> c*x over all 2^m ring elements, as a lookup array."""
    return np.array([mul_bits(c, x, m) for x in range(1 << m)], dtype=np.uint16)


def _scan_chunk(
    lo: int, hi: int, m: int, n_coords: int, rows_bits: tuple[tuple[int, ...], ...]
) -> np.ndarray:
    """Packed indices in [lo, hi) orthogonal to every generator row."""
    idx = np.arange(lo, hi, dtype=np.uint64)
    ok = np.ones(idx.shape, dtype=bool)
    digits = [c.astype(np.uint32) for c in _coords(idx, m, n_coords)]
    for row in rows_bits:
        acc = np.zeros(idx.shape, dtype=np.uint16)
        for i, c in enumerate(row):
            if c:
                acc ^= _times_table(c, m)[digits[i]]
        ok &= acc == 0
    return idx[ok]


# --- partition search ----------------------------------------------------


def find_valid_partitions(m: int) -> tuple[frozenset[RingElement], ...]:
    """All half-sized subsets A (0, 1 in A) satisfying the partition axioms.

    The axioms fix A only up to 2^(m-2) choices (1, 2, 4 for m = 2, 3, 4):
    the kernels of the F2-linear forms f on the coefficient bits with
    f(1) = 0 and f(u^(m-1)) = 1.  `partition` picks the kernel of `chi`'s
    top-coefficient map, which is always among them.

    Exhausts the C(2^m - 2, 2^(m-1) - 2) candidates, so only small m are
    feasible; larger m are refused rather than subsampled.
    """
    if m < 2:
        raise ParameterError("partition axioms need m >= 2")
    candidates = comb((1 << m) - 2, (1 << (m - 1)) - 2)
    if candidates > PARTITION_SEARCH_BUDGET:
        raise BudgetError(
            "partition search over candidate subsets", candidates, PARTITION_SEARCH_BUDGET
        )
    rest = [x for x in elements(m) if x.bits > 1]
    fixed = (zero(m), one(m))
    found = []
    for combo in itertools.combinations(rest, (1 << (m - 1)) - 2):
        A = frozenset(fixed + combo)
        if satisfies_partition_axioms(m, A):
            found.append(A)
    return tuple(sorted(found, key=lambda A: sorted(x.bits for x in A)))


def partition_uniqueness_search(m: int) -> int:
    """Number of subsets passing every partition axiom (see
    find_valid_partitions for the candidate space)."""
    return len(find_valid_partitions(m))


# --- reports and the verification campaign -------------------------------


@dataclass(frozen=True)
class LemmaReport:
    """One verified identity (or aggregated cell of identities)."""

    lemma: str
    params: Mapping[str, object]
    expected: str
    actual: str
    passed: bool

    def to_json(self) -> dict:
        return {
            "lemma": self.lemma,
            "params": dict(self.params),
            "expected": self.expected,
            "actual": self.actual,
            "pass": self.passed,
        }


class _Tally:
    """Aggregates many exact comparisons into one cell report."""

    def __init__(self):
        self.total = 0
        self.good = 0
        self.first_bad = ""

    def add(self, expected, actual, desc: str):
        self.total += 1
        if expected == actual:
            self.good += 1
        elif not self.first_bad:
            self.first_bad = f"{desc}: expected {expected}, got {actual}"

    def add_many(
        self,
        total: int,
        bad: np.ndarray,
        describe: Callable[..., tuple[str, object, object]],
    ):
        """Record `total` comparisons whose failures are the True entries
        of `bad`.  describe(*index) of the first failure in row-major order
        gives its (desc, expected, actual), asked only for the tally's first
        mismatch."""
        misses = int(np.count_nonzero(bad))
        self.total += total
        self.good += total - misses
        if misses and not self.first_bad:
            first = np.unravel_index(int(np.argmax(bad)), bad.shape)
            desc, expected, actual = describe(*map(int, first))
            self.first_bad = f"{desc}: expected {expected}, got {actual}"

    def report(self, lemma: str, params: Mapping[str, object]) -> LemmaReport:
        ok = self.good == self.total
        actual = f"{self.good}/{self.total} exact"
        if not ok:
            actual += f"; first mismatch at {self.first_bad}"
        return LemmaReport(
            lemma=lemma,
            params=dict(params),
            expected=f"exact match on {self.total} instances",
            actual=actual,
            passed=ok,
        )


def _support_sums(m: int, b: int, cs: np.ndarray) -> np.ndarray:
    """chi(<c, v>) totals for every byte c of one (m, b) cell, bucketed by
    the exact support mask of v: entry [k, I] sums over the v with
    supp(v) = I, for the byte c whose b coefficient masks are row cs[k].

    The single brute-force engine of the per-byte checks: each identity is
    a regrouping of these buckets.  Every v in R^b is visited for every c
    and every term is evaluated literally, with no factorization and no
    closed form: <c, v> is the XOR of its b per-coordinate carry-less
    products, and chi is read once per v, as the top bit of that full XOR.
    numpy replaces the per-v loop, nothing else.

    The (c, v) pairs run in blocks of about _BLOCK_PAIRS: a block takes a
    run of at most _BLOCK_PAIRS consecutive packed v (coordinate i in bits
    m*i) and as many bytes as fit.  A run is aligned to its size, so its v
    form a box: the low coordinates take all 2^m values, each along its own
    axis, one coordinate may take a stretch of its values (m > 14, or m*b
    beyond the block), and the higher ones are fixed.  A byte's <c, v> over
    the box is a broadcast XOR of its rows of the product table (uint8 when
    m <= 8), the low coordinates' part shared by every run: only the order
    of the XORs differs from one vector at a time.  Each axis is then
    summed into its "value 0" and "values != 0" halves, which counts the
    -1 terms of each support bucket; the bucket's total is its number of
    v less twice that count.  Working memory is bounded by the
    block whatever m*b is, besides one 2^m-entry product table per distinct
    coordinate value; the result holds 2^b exact int64 totals per byte.
    """
    size = 1 << m
    elems, coords = np.unique(cs, return_inverse=True)
    products = _products(elems, m)
    dtype = products.dtype
    coords = coords.reshape(len(cs), b)
    bits = min(m * b, _BLOCK_PAIRS.bit_length() - 1)  # a run holds 2^bits v
    per = max(1, _BLOCK_PAIRS >> bits)  # bytes per block
    # coordinates below `full` take all 2^m values in a run, coordinate
    # `full` takes `span` consecutive values when span > 1, and those from
    # `low` up are fixed; axis low - i of a box is coordinate i
    full = min(b, bits // m)
    span = 1 << (bits - m * full)
    low = full + (span > 1)
    # terms per support bucket of the full coordinates: 1 v is zero there
    # and 2^m - 1 are not
    terms = np.ones(1, dtype=np.int64)
    for _ in range(full):
        terms = np.multiply.outer(terms, (1, size - 1)).ravel()
    # per run: its digits, its fixed support bits, the first value of
    # coordinate `full` and the terms per bucket
    runs = []
    for start in range(0, 1 << (m * b), 1 << bits):
        digits = [start >> (m * i) & (size - 1) for i in range(b)]
        fixed = sum((d != 0) << i for i, d in enumerate(digits) if i >= low)
        first = digits[full] if span > 1 else 0
        pair = (1, span - 1) if first == 0 else (0, span)
        total = np.multiply.outer(pair, terms).ravel() if span > 1 else terms
        runs.append((digits, fixed, first, total))
    sums = np.zeros((len(cs), 1 << b), dtype=np.int64)
    for lo in range(0, len(cs), per):
        rows = products[coords[lo : lo + per]]  # (bytes, b, 2^m)
        nb = len(rows)
        # XOR of the full coordinates' products, built once for all runs
        inner = np.zeros((nb,) + (1,) * low, dtype)
        for i in range(full):
            axes = [nb] + [1] * low
            axes[low - i] = size
            inner = inner ^ rows[:, i].reshape(axes)
        for digits, fixed, first, total in runs:
            box = inner
            if full < b:
                top = np.zeros(nb, dtype)
                for i in range(low, b):
                    top ^= rows[:, i, digits[i]]
                if span > 1:
                    top = top[:, None] ^ rows[:, full, first : first + span]
                box = top.reshape(top.shape + (1,) * full) ^ inner
            neg = _minus_ones(box, m)
            for axis in range(low, 0, -1):
                if axis == 1 and first:  # a stretch without the value 0
                    part = neg.sum(axis=1, keepdims=True, dtype=np.int32)
                    neg = np.concatenate((np.zeros_like(part), part), axis=1)
                elif neg.shape[axis] > 2:
                    neg = np.add.reduceat(neg, (0, 1), axis=axis, dtype=np.int32)
            neg = neg.reshape(nb, -1)
            sums[lo : lo + nb, fixed : fixed + (1 << low)] += total - 2 * neg
    return sums


def _products(values: np.ndarray, m: int) -> np.ndarray:
    """a*r for every a in `values` (rows) and r in R (columns): the XOR of
    a << i over the set bits i of r, truncated at degree m."""
    dtype = np.uint8 if m <= 8 else np.uint16
    a, r = values.astype(dtype)[:, None], np.arange(1 << m, dtype=dtype)
    out = np.zeros((len(values), 1 << m), dtype)
    for i in range(m):
        out ^= (a << i) * (r >> i & 1)
    return out & (1 << m) - 1


def _minus_ones(ip: np.ndarray, m: int) -> np.ndarray:
    """1 where chi(x) = -1 and 0 where chi(x) = 1, for an array of whole
    inner products x: their coefficients of u^(m-1)."""
    return ip >> (m - 1)


def _popcounts(b: int) -> np.ndarray:
    """|I| for every support mask I of a b-coordinate byte, as uint8."""
    pop = np.zeros(1 << b, dtype=np.uint8)
    for i in range(b):
        pop[1 << i : 2 << i] = pop[: 1 << i] + 1
    return pop


def _split_sums(sums: np.ndarray, inside: np.ndarray, pop: np.ndarray) -> np.ndarray:
    """Support buckets totalled by the numbers of nonzero coordinates of v
    inside and outside a byte's support: entry [k, j1, j2] sums sums[k, I]
    over the I with inside[k, I] = j1 and pop[I] - inside[k, I] = j2, where
    pop = `_popcounts(b)`.  Exact: the totals accumulate in int64 through
    `np.add.at`."""
    width = len(pop).bit_length()  # b + 1
    # (k * width + j1) * width + j2, built in place
    key = np.arange(len(sums))[:, None] * width + inside
    key *= width
    key += pop
    key -= inside
    split = np.zeros(len(sums) * width * width, dtype=np.int64)
    np.add.at(split, key.ravel(), sums.ravel())
    return split.reshape(len(sums), width, width)


def _weight_totals(sums: np.ndarray, pop: np.ndarray) -> np.ndarray:
    """Support buckets totalled by |I|: entry [k, w] sums sums[k, I] over
    the I with pop[I] = w, where pop = `_popcounts(b)`.  Exact: the totals
    accumulate in int64 through `np.add.at`."""
    width = len(pop).bit_length()  # b + 1
    key = np.arange(len(sums))[:, None] * width + pop
    totals = np.zeros(len(sums) * width, dtype=np.int64)
    np.add.at(totals, key.ravel(), sums.ravel())
    return totals.reshape(len(sums), width)


def _subset_totals(sums: np.ndarray) -> np.ndarray:
    """[k, I] = sum of sums[k, J] over the J inside I: a copy of sums with
    one in-place pass per support bit."""
    below = sums.copy()
    for i in range(sums.shape[1].bit_length() - 1):
        pairs = below.reshape(len(below), -1, 2, 1 << i)
        pairs[:, :, 1] += pairs[:, :, 0]
    return below


def _regroup(weights: Sequence[int], t: int) -> Polynomial:
    """Totals by Hamming weight k summed by exponent ceil(k/t)."""
    return Polynomial((-(-k // t), v) for k, v in enumerate(weights))


def _sample_bytes(m: int, b: int, samples: int, rng: random.Random) -> np.ndarray:
    """The bytes of one cell as a (count, b) array of coefficient masks:
    all of R^b when m*b <= _EXHAUSTIVE_BITS, else the zero byte and
    `samples` random bytes drawn coordinate by coordinate."""
    if m * b <= _EXHAUSTIVE_BITS:
        every = itertools.product(range(1 << m), repeat=b)
        return np.array(list(every), dtype=np.int64)
    draws = [rng.randrange(1 << m) for _ in range(samples * b)]
    return np.array([0] * b + draws, dtype=np.int64).reshape(samples + 1, b)


def _add_row(
    words: set[tuple[int, ...]], row_bits: tuple[int, ...], m: int
) -> set[tuple[int, ...]]:
    """Close a set of coefficient-bit words under adding R-multiples of one
    row: {w + a*row : w in words, a in R}.  Ring addition is XOR."""
    multiples = [tuple(mul_bits(a, x, m) for x in row_bits) for a in range(1 << m)]
    return {
        tuple(wb ^ mb for wb, mb in zip(w, mult)) for w in words for mult in multiples
    }


def _poisson_code(m: int) -> GeneratorMatrix:
    """The one row (1, u) (1, 1 at m = 1), whose code {a*(1, u) : a in R}
    has 2^m words with distinct bytes."""
    row = (one(m), monomial(m, 1 if m >= 2 else 0))
    return GeneratorMatrix([row], ByteLayout(b=2, t=1, n=1))


def poisson_check(G: GeneratorMatrix) -> LemmaReport:
    """Summation identity: the enumerator of the dual of C = span(G)
    equals the average over C of the per-word transforms, each a product
    of per-byte scans.  C is closed here row by row (`_add_row`) and the
    dual scanned from G itself.  The distinct bytes of C are scanned
    together, in one engine call.  Both scans, of R^N and of R^b, are
    capped at `DEFAULT_SPACE_BUDGET`.  A sum over C that |C| does not
    divide (a wrong engine) fails the report, which names the remainder,
    instead of raising."""
    m, t, b = G.m, G.layout.t, G.layout.b
    scanned = dual_enumerator_bruteforce(G)
    words = {(0,) * G.layout.N}
    for row in G.rows:
        words = _add_row(words, tuple(x.bits for x in row), m)
    size, digits = len(words), np.array(list(words))
    distinct, which = np.unique(digits.reshape(-1, b), axis=0, return_inverse=True)
    BudgetError.guard("byte scan over R^b", DEFAULT_SPACE_BUDGET, shift=m * b)
    transforms = _byte_transforms(m, b, t, distinct)
    acc = Polynomial.zero()
    for word in which.reshape(size, -1).tolist():
        prod = Polynomial.one()
        for k in word:
            prod = prod * transforms[k]
        acc = acc + prod
    params = {"m": m, "n": G.layout.n, "b": b, "t": t, "code_size": size}
    remainder = Polynomial({e: c % size for e, c in acc.terms()})
    if remainder:  # a wrong engine: report it, as the other checks do
        actual = f"sum over C leaves remainder {remainder} mod {size}"
        return LemmaReport("3.7", params, str(scanned), actual, False)
    averaged = acc.exact_div(size)
    return LemmaReport("3.7", params, str(averaged), str(scanned), averaged == scanned)


def _at(m: int, c: np.ndarray) -> str:
    """A byte given as a row of coefficient masks, as reports print it."""
    return f"c=({','.join(str(RingElement(m, x)) for x in c.tolist())})"


def _cell_reports(
    m: int, b: int, bytes_sample: np.ndarray, exhaustive: bool
) -> list[LemmaReport]:
    """All per-byte identity checks for one (m, b) cell, plus the per-t
    byte-transform comparison, for the bytes given as rows of coefficient
    masks.  Each check reads the literal support buckets (3.4) or one of
    three exact views of them: subset totals (3.3), weights split by
    supp(c) (c3.1, 3.5, c3.2), and totals by weight grouped by ceil(k/t)
    (3.6).  chi is evaluated only in the engine.

    Each tally is one array comparison per chunk of bytes, against tables
    indexed by the byte weight j and built once per cell from the closed
    forms; instances are counted from the masks of the entries checked, and
    only a tally's first mismatch is described.  That is the first in byte
    order; within a byte, the largest I (3.3, 3.4), the smallest k (c3.1,
    3.5), or j1-major then j2 (c3.2).  A chunk holds about
    _BLOCK_PAIRS // 2^b bytes, at least one, so working memory does not
    grow with the number of bytes.
    """
    q1 = (1 << m) - 1
    tallies = {lem: _Tally() for lem in ("3.3", "3.4", "c3.1", "3.5", "c3.2")}
    t_tallies = {t: _Tally() for t in range(1, b + 1)}
    kernels = {
        (j, t): f_poly(j, b, m, t) for j in range(b + 1) for t in range(1, b + 1)
    }
    # closed[j, j1, j2]: weight j1 inside and j2 outside the support of a
    # byte of weight j sum to (-1)^j1 C(j, j1) times (2^m - 1)^j2 C(b-j, j2),
    # nonzero exactly where j1 <= j and j2 <= b - j; c3.1 reads its j2 = 0
    # face, 3.5 its j1 = 0 face and c3.2 all of it
    r = range(b + 1)
    inside = np.array([[(-1) ** k * comb(j, k) for k in r] for j in r], dtype=object)
    outside = np.array([[q1**k * comb(b - j, k) for k in r] for j in r], dtype=object)
    closed = (inside[:, :, None] * outside[:, None, :]).astype(np.int64)
    defined = closed != 0
    first = np.arange(b + 1) == 0
    checked = {"c3.1": defined & first, "3.5": defined & first[:, None], "c3.2": defined}
    # totals by weight k times group[t] are totals by exponent ceil(k/t),
    # compared with the dense coefficients of F_j
    ks = np.arange(b + 1)
    group, dense = {}, {}
    for t in range(1, b + 1):
        top = -(-b // t)
        group[t] = np.zeros((b + 1, top + 1), dtype=np.int64)
        group[t][ks, -(-ks // t)] = 1
        dense[t] = np.array(
            [[kernels[j, t].coeff(e) for e in range(top + 1)] for j in range(b + 1)],
            dtype=np.int64,
        )
    full = (1 << b) - 1
    masks = np.arange(1 << b)
    bits = 1 << np.arange(b)
    pop = _popcounts(b)
    parity = 1 - 2 * (pop & 1).astype(np.int8)  # (-1)^|I|
    step = max(1, _BLOCK_PAIRS >> b)
    for lo in range(0, len(bytes_sample), step):
        cs = bytes_sample[lo : lo + step]
        sums = _support_sums(m, b, cs)
        smasks = (cs != 0) @ bits
        js = pop[smasks].astype(np.intp)

        # |I & supp(c)| for every mask I; I lies inside supp(c) when that
        # is |I|
        inside = pop[masks & smasks[:, None]]
        within = inside == pop
        # I inside supp(c): those v with support exactly I sum to (-1)^|I|
        # (3.4), and all v supported inside a nonempty I to 0 (3.3); the
        # reversed columns run from I = 2^b - 1 down to 0
        tallies["3.4"].add_many(
            int(np.count_nonzero(within)),
            (within & (sums != parity))[:, ::-1],
            lambda k, r: (f"{_at(m, cs[k])} I=0b{full - r:0{b}b}",
                          (-1) ** (full - r).bit_count(), int(sums[k, full - r])),
        )
        below = _subset_totals(sums)
        within[:, 0] = False  # I = 0
        tallies["3.3"].add_many(
            int(np.count_nonzero(within)),
            (within & (below != 0))[:, ::-1],
            lambda k, r: (f"{_at(m, cs[k])} I=0b{full - r:0{b}b}",
                          0, int(below[k, full - r])),
        )
        del within, below

        split = _split_sums(sums, inside, pop)
        for lem, label in (
            ("c3.1", "k={j1}"), ("3.5", "k={j2}"), ("c3.2", "j1={j1} j2={j2}")
        ):
            expect = closed[js]
            mask = checked[lem][js]
            tallies[lem].add_many(
                int(np.count_nonzero(mask)),
                mask & (split != expect),
                lambda k, j1, j2: (f"{_at(m, cs[k])} {label.format(j1=j1, j2=j2)}",
                                   int(expect[k, j1, j2]), int(split[k, j1, j2])),
            )
        weights = _weight_totals(sums, pop)
        for t, tally in t_tallies.items():
            tally.add_many(
                len(cs),
                (weights @ group[t] != dense[t][js]).any(axis=1),
                lambda k: (_at(m, cs[k]), kernels[int(js[k]), t],
                           _regroup(weights[k].tolist(), t)),
            )
        del sums  # before the next chunk's engine call
    base = {"m": m, "b": b, "bytes": len(bytes_sample), "exhaustive": exhaustive}
    reports = [tally.report(lem, base) for lem, tally in tallies.items()]
    return reports + [
        tally.report("3.6", {**base, "t": t}) for t, tally in t_tallies.items()
    ]


def campaign(
    ms: Sequence[int] = (1, 2, 3, 4),
    bs: Sequence[int] = (1, 2, 3),
    samples: int = _DEFAULT_SAMPLES,
    seed: int = 0,
    inject_fault: bool = False,
) -> list[LemmaReport]:
    """Run every identity check over the parameter grid.

    Bytes are enumerated exhaustively when m*b <= 8 and sampled (seeded,
    zero byte always included) otherwise.  inject_fault flips one chi
    value in the first ideal sum as a negative control; exactly one
    report must then fail.  A cell whose byte scans (bytes checked times
    |R|^b) would exceed DEFAULT_BYTE_BUDGET raises BudgetError before any
    check runs, and so does an m whose summation check 3.7 would exceed
    POISSON_SCAN_BUDGET: the Poisson code has |C| = 2^m words and each
    scans R^2, 8^m byte vectors.
    """
    if samples < 1:
        raise ParameterError(f"samples must be >= 1, got {samples}")
    for m in ms:
        for b in bs:
            bits = m * b
            count = 1 << bits if bits <= _EXHAUSTIVE_BITS else samples + 1
            BudgetError.guard(
                f"verify cell m={m} b={b}: {count} byte scans over R^b",
                DEFAULT_BYTE_BUDGET,
                count,
                shift=bits,
            )
        BudgetError.guard(
            f"verify m={m}: check 3.7 scans R^2 for each of 2^{m} codewords",
            POISSON_SCAN_BUDGET,
            shift=3 * m,
        )
    rng = random.Random(seed)
    reports: list[LemmaReport] = []
    fault_pending = inject_fault
    for m in ms:
        tally = _Tally()
        for k in range(m):
            val = sum_chi_over_ideal(m, k)
            if fault_pending:
                val += 2  # one chi value flipped from -1 to +1
                fault_pending = False
            tally.add(0, val, f"k={k}")
        reports.append(tally.report("3.1", {"m": m}))
        tally = _Tally()
        for a in elements(m):
            want = (1 << m) if a.is_zero() else 0
            tally.add(want, sum_chi_multiples(m, a), f"a={a}")
        reports.append(tally.report("3.2", {"m": m}))
        if m >= 2:
            tally = _Tally()
            A, _ = partition(m)
            tally.add(True, satisfies_partition_axioms(m, A), "axioms (i)-(v)")
            if m == 4:
                canonical = frozenset(RingElement(4, i) for i in range(8))
                tally.add(sorted(x.bits for x in canonical),
                          sorted(x.bits for x in A), "canonical A for m=4")
            reports.append(tally.report("partition", {"m": m}))
        for b in bs:
            exhaustive = m * b <= _EXHAUSTIVE_BITS
            sample = _sample_bytes(m, b, samples, rng)
            reports.extend(_cell_reports(m, b, sample, exhaustive))
        reports.append(poisson_check(_poisson_code(m)))
    return reports
