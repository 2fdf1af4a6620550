"""Byte-wise spotty weights, alpha vectors, and weight distributions.

A byte of Hamming weight h contributes ceil(h/t) to the weight of the word,
so a word's weight is determined by its alpha vector: alpha_j counts the
bytes having exactly j nonzero coordinates (0 <= j <= b).

The word-level functions (`alpha_vector`, `m_spotty_weight`) work on one
`Word`; the code-level statistics (`distribution`, `enumerator`,
`minimum_distance`) are vectorized over the code's packed digit array,
through the (|C|, n) array of byte Hamming weights.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .code import ByteLayout, LinearCode, Word, _group_rows
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
    """Count of codewords per alpha vector; rows iterate in lex order."""

    __slots__ = ("layout", "m", "_counts")

    def __init__(
        self,
        counts: Mapping[tuple[int, ...], int],
        layout: ByteLayout,
        m: int,
    ):
        n, width = layout.n, layout.b + 1
        for alpha, c in counts.items():
            if len(alpha) != width or sum(alpha) != n or min(alpha) < 0:
                raise ParameterError(f"not a valid alpha vector: {alpha}")
            if c < 1:
                raise ParameterError(f"count for {alpha} must be positive, got {c}")
        object.__setattr__(self, "_counts", dict(counts))
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "m", m)

    def __setattr__(self, name, value):
        raise AttributeError("DistributionTable is immutable")

    def items(self) -> Iterator[tuple[tuple[int, ...], int]]:
        return iter(sorted(self._counts.items()))

    def count(self, alpha: Sequence[int]) -> int:
        return self._counts.get(tuple(alpha), 0)

    @property
    def total(self) -> int:
        return sum(self._counts.values())

    def __len__(self) -> int:
        return len(self._counts)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DistributionTable)
            and self.layout == other.layout
            and self.m == other.m
            and self._counts == other._counts
        )

    def __repr__(self) -> str:
        return (
            f"DistributionTable({len(self._counts)} alpha rows, "
            f"total={self.total}, layout={self.layout})"
        )


def _byte_weights(C: LinearCode) -> np.ndarray:
    """Hamming weight of every byte of every codeword, shape (|C|, n), in
    the smallest unsigned dtype that holds 2*b."""
    lay = C.layout
    nonzero = (C.digits != 0).reshape(len(C), lay.n, lay.b)
    return nonzero.sum(axis=2, dtype=np.min_scalar_type(2 * lay.b))


def _weights(C: LinearCode) -> np.ndarray:
    """m-spotty weight of every codeword: sum over bytes of ceil(h/t)."""
    t = C.layout.t
    return ((_byte_weights(C) + (t - 1)) // t).sum(axis=1, dtype=np.int64)


def distribution(C: LinearCode) -> DistributionTable:
    # a word's alpha vector is the histogram of its byte weights, so words
    # share an alpha row exactly when their sorted byte weights agree
    rows, counts = _group_rows(np.sort(_byte_weights(C), axis=1))
    table = {}
    for row, count in zip(rows.tolist(), counts.tolist()):
        alpha = [0] * (C.layout.b + 1)
        for h in row:
            alpha[h] += 1
        table[tuple(alpha)] = count
    return DistributionTable(table, C.layout, C.m)


def enumerator(C: LinearCode) -> Polynomial:
    """W(z) = sum over codewords of z^weight, as a histogram of the
    per-word weights."""
    hist = np.bincount(_weights(C))
    return Polynomial({e: c for e, c in enumerate(hist.tolist()) if c})


def minimum_distance(C: LinearCode) -> int:
    """Least weight among nonzero codewords (equals least pairwise
    distance, by linearity)."""
    weights = _weights(C)[C.digits.any(axis=1)]
    if not len(weights):
        raise ParameterError("the zero code has no minimum distance")
    return int(weights.min())
