"""Byte-wise spotty weights, alpha vectors, and weight distributions.

A byte of Hamming weight h contributes ceil(h/t) to the weight of the word,
so a word's weight is determined by its alpha vector: alpha_j counts the
bytes having exactly j nonzero coordinates (0 <= j <= b).

The word-level functions (`alpha_vector`, `m_spotty_weight`) work on one
`Word`.  The code-level statistics (`distribution`, `enumerator`,
`minimum_distance`) walk the code's coordinate-major blocks once
(`code._blocks`, at most 2^14 words each, read off the code's basis),
reduce each block to its (n, B) byte Hamming weights and feed those to
`_AlphaRows` (packed alpha keys), `_WeightHistogram` (small-integer
ceil(h/t) sums) or both (`_walk`).  Memory is bounded by the block and the
distinct rows, not by |C|: no statistic builds the digit array.  A `DistributionTable` stores its rows once,
in the format `transform` folds as it is: a sorted read-only alpha
matrix and a tuple of counts.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain
from operator import index
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .code import ByteLayout, LinearCode, Word, _blocks
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
        """Refuse the first invalid row in mapping order, at its first fault:
        entries or count not integers, then an alpha vector of the wrong
        width, sum or sign, then a count below 1."""
        n, width = layout.n, layout.b + 1
        values = []
        for alpha, c in counts.items():
            try:
                key, c = tuple(map(index, alpha)), index(c)
            except TypeError:
                raise ParameterError("alpha entries and counts must be ints") from None
            if len(key) != width or sum(key) != n or min(key) < 0:
                raise ParameterError(f"not a valid alpha vector: {alpha}")
            if c < 1:
                raise ParameterError(f"count for {alpha} must be positive, got {c}")
            values.append(c)
        # every entry is in [0, n], so none overflows the dtype
        entries = map(index, chain.from_iterable(counts))
        alphas = np.fromiter(entries, np.min_scalar_type(n), len(values) * width)
        self._set(alphas.reshape(-1, width), values, layout, m)

    def _set(
        self, alphas: np.ndarray, counts: Sequence[int], layout: ByteLayout, m: int
    ) -> None:
        """Store the rows and their counts in lex order, by one lexsort."""
        order = np.lexsort(alphas.T[::-1])
        alphas = alphas[order].astype(np.min_scalar_type(layout.n), copy=False)
        alphas.flags.writeable = False
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "counts", tuple(map(counts.__getitem__, order.tolist())))
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "m", m)

    @classmethod
    def _trusted(
        cls, alphas: np.ndarray, counts: np.ndarray, layout: ByteLayout, m: int
    ) -> "DistributionTable":
        """The table of distinct valid alpha rows and their positive counts,
        in any order, not checked: they come from a code's walk, and can
        number up to |C|."""
        T = object.__new__(cls)
        T._set(alphas, counts.tolist(), layout, m)
        return T

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


def _byte_weight_blocks(C: LinearCode) -> Iterator[np.ndarray]:
    """Hamming weight of every byte of every codeword, block by block: an
    (n, B) array per block of B words, one column per word, summed over
    each byte's b coordinate rows into a dtype that holds h + t - 1 < 2b."""
    lay = C.layout
    dtype = np.min_scalar_type(2 * lay.b)
    for block in _blocks(C):
        yield (block != 0).reshape(lay.n, lay.b, -1).sum(axis=1, dtype=dtype)


def _group_rows(rows: np.ndarray, counts=None) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of a 2-D array in lexicographic order (column 0 most
    significant), and the sum of `counts` (1 per row by default) over each."""
    order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    starts = np.flatnonzero(new)
    counts = np.ones(len(rows), np.int64) if counts is None else counts[order]
    return rows[starts], np.add.reduceat(counts, starts)


class _AlphaRows:
    """Codewords per alpha row over the blocks given to `add` (see
    `distribution`), regrouped after each block."""

    def __init__(self, layout: ByteLayout):
        self.layout, self.bits = layout, layout.n.bit_length()
        width, self.count = self.bits * layout.b, np.min_scalar_type(layout.n)
        self.key = np.uint32 if width <= 32 else np.uint64 if width <= 64 else None
        self.rows = np.zeros((0, 1 if self.key else layout.n), self.key or np.uint8)
        self.counts = np.zeros(0, np.int64)

    def add(self, H: np.ndarray) -> None:
        if self.key is None:
            rows, counts = _group_rows(np.sort(H.T, axis=1))
        else:
            keys = np.zeros(H.shape[1], self.key)
            for j in range(self.layout.b, 0, -1):  # alpha_j, summed as bytes
                keys <<= self.bits
                keys |= (H == j).view(np.uint8).sum(axis=0, dtype=self.count)
            rows, counts = np.unique(keys, return_counts=True)
            rows = rows[:, None]
        rows = np.concatenate((self.rows, rows))
        self.rows, self.counts = _group_rows(rows, np.concatenate((self.counts, counts)))

    def table(self, m: int) -> DistributionTable:
        rows, n, b = self.rows, self.layout.n, self.layout.b
        if self.key is None:  # alpha_j counts the weights equal to j
            alphas = np.stack([(rows == j).sum(axis=1) for j in range(b + 1)], 1)
        else:
            shifts = np.arange(b, dtype=self.key) * self.bits
            rest = rows >> shifts & (1 << self.bits) - 1
            alphas = np.column_stack((n - rest.sum(axis=1), rest))
        return DistributionTable._trusted(alphas, self.counts, self.layout, m)


class _WeightHistogram:
    """Codewords per m-spotty weight 0..n*ceil(b/t) over the blocks given to
    `add`, each word's sum of ceil(h/t) taken in the narrowest dtype."""

    def __init__(self, layout: ByteLayout):
        top = layout.n * _ceil_div(layout.b, layout.t)
        self.t, self.dtype = layout.t, np.min_scalar_type(top)
        self.hist = np.zeros(top + 1, dtype=np.int64)

    def add(self, H: np.ndarray) -> None:
        weights = ((H + (self.t - 1)) // self.t).sum(axis=0, dtype=self.dtype)
        self.hist += np.bincount(weights, minlength=len(self.hist))

    def enumerator(self) -> Polynomial:
        return Polynomial({e: c for e, c in enumerate(self.hist.tolist()) if c})


def _walk(C: LinearCode, *tallies):
    """Give every block of C's byte weights to each tally: one walk of C."""
    for H in _byte_weight_blocks(C):
        for tally in tallies:
            tally.add(H)
    return tallies


def distribution(C: LinearCode) -> DistributionTable:
    """Codewords per alpha vector.  When b fields of bitlen(n) bits fit in
    64, a word's row is a uint32 or uint64 key whose field j - 1 holds
    alpha_j <= n (alpha_0 = n - the rest needs no field): words share a row
    exactly when their keys agree.  Wider layouts group by sorted byte
    weights, which agree exactly when the alpha rows do."""
    return _walk(C, _AlphaRows(C.layout))[0].table(C.m)


def enumerator(C: LinearCode) -> Polynomial:
    """W(z) = sum over codewords of z^weight, as a histogram of the
    per-word weights."""
    return _walk(C, _WeightHistogram(C.layout))[0].enumerator()


def minimum_distance(C: LinearCode) -> int:
    """Least weight among nonzero codewords (equals least pairwise
    distance, since a code is closed under addition).  A word has weight 0 exactly when it is zero,
    so this is the least positive weight of the histogram."""
    positive = np.flatnonzero(_walk(C, _WeightHistogram(C.layout))[0].hist[1:])
    if not len(positive):
        raise ParameterError("the zero code has no minimum distance")
    return int(positive[0]) + 1
