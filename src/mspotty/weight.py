"""Byte-wise spotty weights, alpha vectors, and weight distributions.

A byte of Hamming weight h contributes ceil(h/t) to the weight of the word,
so a word's weight is determined by its alpha vector: alpha_j counts the
bytes having exactly j nonzero coordinates (0 <= j <= b).

The word-level functions (`alpha_vector`, `m_spotty_weight`) work on one
`Word`; the code-level statistics (`distribution`, `enumerator`,
`minimum_distance`) are one block engine, `_byte_weight_blocks`: the
code's words come in coordinate-major blocks (`code._blocks`, at most 2^14
words each for a code built from a basis), and each block is reduced to
its (n, B) byte Hamming weights and then to alpha-row counts or a weight
histogram.  Memory is bounded by the block, not by |C|, and no
statistic builds the code's digit array.  A `DistributionTable` stores
its rows once, in the format `macwilliams.transform` folds as it is: a
sorted read-only alpha matrix and a tuple of counts.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain
from operator import index
from typing import Iterable, Iterator, Mapping, NoReturn, Sequence

import numpy as np

from .code import ByteLayout, LinearCode, Word, _blocks, _group_rows
from .errors import ParameterError
from .polynomial import Polynomial
from .ring import RingElement


def hamming_weight(coords: Iterable[RingElement]) -> int:
    return sum(1 for x in coords if not x.is_zero())

def support(coords: Sequence[RingElement]) -> tuple[int, ...]:
    return tuple(i for i, x in enumerate(coords) if not x.is_zero())


def _ceil_div(a: int, t: int) -> int:
    return -(-a // t)


def m_spotty_weight(w: Word) -> int:
    t = w.layout.t
    return sum(_ceil_div(hamming_weight(byte), t) for byte in w.bytes())


def m_spotty_distance(x: Word, y: Word) -> int:
    # characteristic 2: x - y = x + y
    return m_spotty_weight(x + y)


def alpha_vector(w: Word) -> tuple[int, ...]:
    """(alpha_0, ..., alpha_b) with alpha_j = #bytes of Hamming weight j."""
    counts = [0] * (w.layout.b + 1)
    for byte in w.bytes():
        counts[hamming_weight(byte)] += 1
    return tuple(counts)


def weight_from_alpha(alpha: Sequence[int], t: int) -> int:
    return sum(a * _ceil_div(j, t) for j, a in enumerate(alpha))


class DistributionTable:
    """Count of codewords per alpha vector, stored once: `alphas` is a
    read-only (R, b + 1) matrix of the distinct alpha vectors in ascending
    lex order, of the narrowest unsigned dtype that holds n, and `counts`
    the tuple of their R counts.  Entries and counts are read through
    `operator.index`: numpy integers are ints, anything else is refused."""

    __slots__ = ("layout", "m", "alphas", "counts")

    def __init__(
        self,
        counts: Mapping[tuple[int, ...], int],
        layout: ByteLayout,
        m: int,
    ):
        n, width = layout.n, layout.b + 1
        dtype = np.min_scalar_type(n)
        try:
            keys = sorted(counts)
            if keys and set(map(len, keys)) != {width}:
                _refuse(counts, n, width)
            # an entry below 0 or above the dtype's range overflows here
            entries = map(index, chain.from_iterable(keys))
            alphas = np.fromiter(entries, dtype, len(keys) * width)
            values = list(map(index, map(counts.__getitem__, keys)))
        except (TypeError, OverflowError):
            _refuse(counts, n, width)
        alphas = alphas.reshape(len(keys), width)
        # entries in [0, n] sum to at most width * n
        total = np.int64 if width * n < 1 << 63 else object
        if keys and (
            alphas.max() > n
            or (alphas.sum(axis=1, dtype=total) != n).any()
            or min(values) < 1
        ):
            _refuse(counts, n, width)
        alphas.flags.writeable = False
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "counts", tuple(values))
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "m", m)

    def __setattr__(self, name, value):
        raise AttributeError("DistributionTable is immutable")

    def __reduce__(self):
        return DistributionTable, (dict(self.items()), self.layout, self.m)

    def items(self) -> Iterator[tuple[tuple[int, ...], int]]:
        return zip(map(tuple, self.alphas.tolist()), self.counts)

    def count(self, alpha: Sequence[int]) -> int:
        alpha, rows = tuple(alpha), self.alphas
        row = lambda i: tuple(rows[i].tolist())
        i = bisect_left(range(len(rows)), alpha, key=row)
        return self.counts[i] if i < len(rows) and row(i) == alpha else 0

    @property
    def total(self) -> int:
        return sum(self.counts)

    def __len__(self) -> int:
        return len(self.counts)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DistributionTable)
            and self.layout == other.layout
            and self.m == other.m
            and self.counts == other.counts
            and np.array_equal(self.alphas, other.alphas)
        )

    def __repr__(self) -> str:
        return (
            f"DistributionTable({len(self)} alpha rows, "
            f"total={self.total}, layout={self.layout})"
        )


def _refuse(counts: Mapping, n: int, width: int) -> NoReturn:
    """Raise the refusal for the first invalid row of `counts`, in mapping
    order, as a row-by-row check would: entries or count not integers,
    then an alpha vector of the wrong width, sum or sign, then a count
    below 1.  Called only once some row is known to be invalid."""
    for alpha, c in counts.items():
        try:
            key, c = tuple(map(index, alpha)), index(c)
        except TypeError:
            raise ParameterError("alpha entries and counts must be ints") from None
        if len(key) != width or sum(key) != n or min(key) < 0:
            raise ParameterError(f"not a valid alpha vector: {alpha}")
        if c < 1:
            raise ParameterError(f"count for {alpha} must be positive, got {c}")


def _byte_weight_blocks(C: LinearCode) -> Iterator[np.ndarray]:
    """Hamming weight of every byte of every codeword, block by block: an
    (n, B) array per block of B words, one column per word, summed over
    each byte's b contiguous coordinate rows."""
    lay = C.layout
    dtype = np.min_scalar_type(lay.b)
    for block in _blocks(C):
        yield (block != 0).reshape(lay.n, lay.b, -1).sum(axis=1, dtype=dtype)


def _tally(table: dict, alphas: np.ndarray, counts: np.ndarray) -> None:
    for alpha, count in zip(map(tuple, alphas.tolist()), counts.tolist()):
        table[alpha] = table.get(alpha, 0) + count


def distribution(C: LinearCode) -> DistributionTable:
    """Codewords per alpha vector.

    A word's alpha vector is the histogram of its byte weights h_i, so its
    key sum_i (n+1)^(h_i) = sum_j alpha_j (n+1)^j is alpha written in base
    n+1 (every alpha_j <= n): words share an alpha row exactly when their
    keys agree.  When (n+1)^(b+1) would overflow int64, a block is grouped
    by its sorted byte weights instead, which agree exactly when the alpha
    vectors do.
    """
    n, b = C.layout.n, C.layout.b
    table: dict[tuple[int, ...], int] = {}
    if (n + 1) ** (b + 1) <= 1 << 63:
        powers = (n + 1) ** np.arange(b + 1, dtype=np.int64)
        for H in _byte_weight_blocks(C):
            keys, counts = np.unique(powers[H].sum(axis=0), return_counts=True)
            _tally(table, keys[:, None] // powers % (n + 1), counts)
    else:
        for H in _byte_weight_blocks(C):
            rows, counts = _group_rows(np.sort(H.T, axis=1))
            # alpha_j of row r counts the entries equal to j: one bincount
            # over the flat indices r*(b+1) + h
            flat = (np.arange(len(rows))[:, None] * (b + 1) + rows).ravel()
            alphas = np.bincount(flat, minlength=len(rows) * (b + 1))
            _tally(table, alphas.reshape(len(rows), b + 1), counts)
    return DistributionTable(table, C.layout, C.m)


def _weight_histogram(C: LinearCode) -> np.ndarray:
    """How many codewords have each m-spotty weight 0..n*ceil(b/t): a word's
    weight is the sum over its bytes of ceil(h/t)."""
    lay = C.layout
    ceil = -(-np.arange(lay.b + 1) // lay.t)
    hist = np.zeros(lay.n * int(ceil[-1]) + 1, dtype=np.int64)
    for H in _byte_weight_blocks(C):
        hist += np.bincount(ceil[H].sum(axis=0), minlength=len(hist))
    return hist


def enumerator(C: LinearCode) -> Polynomial:
    """W(z) = sum over codewords of z^weight, as a histogram of the
    per-word weights."""
    hist = _weight_histogram(C)
    return Polynomial({e: c for e, c in enumerate(hist.tolist()) if c})


def minimum_distance(C: LinearCode) -> int:
    """Least weight among nonzero codewords (equals least pairwise
    distance, by linearity).  A word has weight 0 exactly when it is zero,
    so this is the least positive weight of the histogram."""
    positive = np.flatnonzero(_weight_histogram(C)[1:])
    if not len(positive):
        raise ParameterError("the zero code has no minimum distance")
    return int(positive[0]) + 1
