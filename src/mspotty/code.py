"""Words over F2[u]/(u^m), byte layouts, generator matrices, codes and duals.

A word of length N = n*b splits into n bytes of b coordinates each; byte i
is coords[i*b : (i+1)*b].  Codes are materialized as explicit, canonically
sorted codeword tuples: every downstream statistic needs a full pass anyway
at the desk-scale parameters this package targets.

The dual is found by search, never algebraically, along one of two routes
that pack a vector into an integer (coordinate i occupies bits
[m*i, m*(i+1))) and take inner products with vectorized table lookups.
The default syndrome join splits the coordinates into two halves, computes
the syndrome (inner products with every generator row) of every
half-vector, and pairs halves with equal syndromes: about
2*|R|^(N/2) + |C-dual| steps.  The exhaustive scan tests all of R^N,
optionally in contiguous chunks on parallel workers merged in chunk order;
it is kept as the independent referee.  Both routes end in one builder
that sorts the packed words canonically, so results are identical for
either route and any worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import BudgetError, MatrixParseError, ParameterError
from .ring import RingElement, mul_bits, parse_element, zero

#: Default cap on |R|^k coefficient tuples enumerated by span().
DEFAULT_SPAN_BUDGET = 1 << 24
#: Default cap on |R|^N ambient vectors scanned by dual().
DEFAULT_SPACE_BUDGET = 1 << 28

_SCAN_CHUNK = 1 << 20


@dataclass(frozen=True)
class ByteLayout:
    """b bits per byte, spotty parameter t (1 <= t <= b), n bytes."""

    b: int
    t: int
    n: int

    def __post_init__(self):
        if self.b < 1:
            raise ParameterError(f"byte size b must be >= 1, got {self.b}")
        if not 1 <= self.t <= self.b:
            raise ParameterError(
                f"spotty parameter t must satisfy 1 <= t <= b={self.b}, got {self.t}"
            )
        if self.n < 1:
            raise ParameterError(f"byte count n must be >= 1, got {self.n}")

    @property
    def N(self) -> int:
        return self.n * self.b


def _uniform_m(coords: Sequence[RingElement]) -> int:
    m = coords[0].m
    for x in coords:
        if x.m != m:
            raise ParameterError("coordinates mix different ring parameters")
    return m


class Word:
    """Immutable length-N vector over the ring, bound to a byte layout."""

    __slots__ = ("coords", "layout", "m")

    def __init__(self, coords: Iterable[RingElement], layout: ByteLayout):
        coords = tuple(coords)
        if len(coords) != layout.N:
            raise ParameterError(
                f"word length {len(coords)} != layout N = {layout.N}"
            )
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "m", _uniform_m(coords))

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    @classmethod
    def _trusted(
        cls, coords: tuple[RingElement, ...], layout: ByteLayout, m: int
    ) -> "Word":
        """A word from coordinates already known to fit `layout` and `m`."""
        w = object.__new__(cls)
        object.__setattr__(w, "coords", coords)
        object.__setattr__(w, "layout", layout)
        object.__setattr__(w, "m", m)
        return w

    @classmethod
    def from_bits(cls, bits: Iterable[int], m: int, layout: ByteLayout) -> "Word":
        return cls((RingElement(m, x) for x in bits), layout)

    def bits(self) -> tuple[int, ...]:
        return tuple(x.bits for x in self.coords)

    def byte(self, i: int) -> tuple[RingElement, ...]:
        """Byte i (0-indexed) as a coordinate slice."""
        b = self.layout.b
        if not 0 <= i < self.layout.n:
            raise ParameterError(f"byte index {i} out of range")
        return self.coords[i * b : (i + 1) * b]

    def bytes(self) -> Iterator[tuple[RingElement, ...]]:
        for i in range(self.layout.n):
            yield self.byte(i)

    def __add__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        if other.layout != self.layout or other.m != self.m:
            raise ParameterError("word layouts or ring parameters differ")
        return Word((a + b for a, b in zip(self.coords, other.coords)), self.layout)

    def scale(self, r: RingElement) -> "Word":
        return Word((r * x for x in self.coords), self.layout)

    def __len__(self) -> int:
        return len(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __iter__(self) -> Iterator[RingElement]:
        return iter(self.coords)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Word)
            and self.layout == other.layout
            and self.coords == other.coords
        )

    def __lt__(self, other: "Word") -> bool:
        return self.bits() < other.bits()

    def __hash__(self) -> int:
        return hash((self.layout, self.coords))

    def __str__(self) -> str:
        b = self.layout.b
        return " | ".join(
            " ".join(str(x) for x in self.coords[i * b : (i + 1) * b])
            for i in range(self.layout.n)
        )

    def __repr__(self) -> str:
        return f"Word({self})"


class GeneratorMatrix:
    """k rows of length N over a common ring; k = 0 needs explicit m."""

    __slots__ = ("rows", "m", "layout")

    def __init__(
        self,
        rows: Iterable[Sequence[RingElement]],
        layout: ByteLayout,
        m: int | None = None,
    ):
        rows = tuple(tuple(row) for row in rows)
        for row in rows:
            if len(row) != layout.N:
                raise ParameterError(
                    f"row length {len(row)} != layout N = {layout.N}"
                )
        if rows:
            row_m = _uniform_m([x for row in rows for x in row])
            if m is not None and m != row_m:
                raise ParameterError(f"declared m={m} != row entries m={row_m}")
            m = row_m
        elif m is None:
            raise ParameterError("empty matrix requires an explicit m")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "layout", layout)

    def __setattr__(self, name, value):
        raise AttributeError("GeneratorMatrix is immutable")

    @property
    def k(self) -> int:
        return len(self.rows)

    def row_words(self) -> tuple[Word, ...]:
        return tuple(Word(row, self.layout) for row in self.rows)


class LinearCode:
    """Deduplicated codeword set in canonical (coordinate-lex) order."""

    __slots__ = ("codewords", "m", "layout", "_index")

    def __init__(self, codewords: Iterable[Word], layout: ByteLayout, m: int):
        unique = sorted(set(codewords))
        if not unique:
            raise ParameterError("a linear code cannot be empty")
        for w in unique:
            if w.layout != layout or w.m != m:
                raise ParameterError("codeword layout or ring parameter mismatch")
        object.__setattr__(self, "codewords", tuple(unique))
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "_index", None)

    def __setattr__(self, name, value):
        raise AttributeError("LinearCode is immutable")

    @classmethod
    def _trusted(
        cls, codewords: tuple[Word, ...], layout: ByteLayout, m: int
    ) -> "LinearCode":
        """A code from words already unique, canonically sorted and bound
        to `layout` and `m`."""
        C = object.__new__(cls)
        object.__setattr__(C, "codewords", codewords)
        object.__setattr__(C, "layout", layout)
        object.__setattr__(C, "m", m)
        object.__setattr__(C, "_index", None)
        return C

    def __len__(self) -> int:
        return len(self.codewords)

    def __iter__(self) -> Iterator[Word]:
        return iter(self.codewords)

    def __contains__(self, w: Word) -> bool:
        if self._index is None:  # built on first use
            object.__setattr__(self, "_index", frozenset(self.codewords))
        return w in self._index

    def ambient_size(self) -> int:
        return 1 << (self.m * self.layout.N)

    def __repr__(self) -> str:
        return (
            f"LinearCode(|C|={len(self.codewords)}, m={self.m}, "
            f"layout={self.layout})"
        )


def inner_product(x: Sequence[RingElement], y: Sequence[RingElement]) -> RingElement:
    """Sum of coordinatewise products; byte grouping does not affect it."""
    if len(x) != len(y):
        raise ParameterError(f"length mismatch: {len(x)} vs {len(y)}")
    m = _uniform_m(tuple(x) + tuple(y))
    acc = 0
    for a, b in zip(x, y):
        acc ^= mul_bits(a.bits, b.bits, m)
    return RingElement(m, acc)


def _add_row(
    words: set[tuple[int, ...]], row_bits: tuple[int, ...], m: int
) -> set[tuple[int, ...]]:
    """Close a set of coefficient-bit words under adding R-multiples of one
    row: {w + a*row : w in words, a in R}.  Ring addition is XOR."""
    multiples = [tuple(mul_bits(a, x, m) for x in row_bits) for a in range(1 << m)]
    return {
        tuple(wb ^ mb for wb, mb in zip(w, mult)) for w in words for mult in multiples
    }


def span(G: GeneratorMatrix, budget: int = DEFAULT_SPAN_BUDGET) -> LinearCode:
    """All R-linear combinations of the rows of G, deduplicated.

    The contract is an enumeration of |R|^k coefficient tuples, so that count
    is what the budget guards; internally the span is closed row by row,
    which visits at most |C| * |R| partial words per row.
    """
    m, N = G.m, G.layout.N
    tuples = 1 << (m * G.k)
    if tuples > budget:
        raise BudgetError("span over R^k coefficient tuples", tuples, budget)
    words = {(0,) * N}
    for row in G.rows:
        words = _add_row(words, tuple(x.bits for x in row), m)
    return LinearCode(
        (Word.from_bits(bits, m, G.layout) for bits in words), G.layout, m
    )


def code_size_from_profile(m: int, profile: Sequence[int]) -> int:
    """2^s with s = sum over i of (m - i + 1) * k_i, for a standard-form
    row profile (k_1, ..., k_m)."""
    if len(profile) != m:
        raise ParameterError(
            f"profile needs one count per power, expected {m} got {len(profile)}"
        )
    if any(k < 0 for k in profile):
        raise ParameterError("profile counts must be non-negative")
    s = sum((m - i) * k for i, k in enumerate(profile))  # i is 0-based here
    return 1 << s


def _times_table(c: int, m: int) -> np.ndarray:
    """x -> c*x over all 2^m ring elements, as a lookup array."""
    return np.array([mul_bits(c, x, m) for x in range(1 << m)], dtype=np.uint16)


def _scan_chunk(
    lo: int, hi: int, m: int, n_coords: int, rows_bits: tuple[tuple[int, ...], ...]
) -> np.ndarray:
    """Packed indices in [lo, hi) orthogonal to every generator row."""
    mask = (1 << m) - 1
    idx = np.arange(lo, hi, dtype=np.uint64)
    ok = np.ones(idx.shape, dtype=bool)
    digits = [
        ((idx >> np.uint64(m * i)) & np.uint64(mask)).astype(np.uint32)
        for i in range(n_coords)
    ]
    for row in rows_bits:
        acc = np.zeros(idx.shape, dtype=np.uint16)
        for i, c in enumerate(row):
            if c == 0:
                continue
            acc ^= _times_table(c, m)[digits[i]]
        ok &= acc == 0
    return idx[ok]


def _half_syndromes(
    m: int, rows_bits: tuple[tuple[int, ...], ...], coords: range
) -> np.ndarray:
    """Syndromes of every vector supported on `coords`, one row per vector.

    Vector j puts digit i of j (m bits each) on coordinate coords[i].  Row r
    of the generator matrix contributes an m-bit inner product, packed into
    uint64 column r // (64 // m); a matrix with no rows has one zero column.
    """
    mask = np.uint64((1 << m) - 1)
    idx = np.arange(1 << (m * len(coords)), dtype=np.uint64)
    digits = [(idx >> np.uint64(m * i)) & mask for i in range(len(coords))]
    per_col = 64 // m
    n_cols = max(1, -(-len(rows_bits) // per_col))
    syn = np.zeros((idx.size, n_cols), dtype=np.uint64)
    for r, row in enumerate(rows_bits):
        acc = np.zeros(idx.shape, dtype=np.uint16)
        for i, pos in enumerate(coords):
            if row[pos]:
                acc ^= _times_table(row[pos], m)[digits[i]]
        shift = np.uint64(m * (r % per_col))
        syn[:, r // per_col] |= acc.astype(np.uint64) << shift
    return syn


def _join_dual(m: int, N: int, rows_bits: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """Packed dual words found by matching half-vector syndromes.

    With v = v_L + v_R split over coordinates [0, h) and [h, N), <row, v> =
    <row, v_L> + <row, v_R>, and in characteristic 2 the sum vanishes iff
    the two halves have equal syndromes.
    """
    h = N // 2
    left = _half_syndromes(m, rows_bits, range(h))
    right = _half_syndromes(m, rows_bits, range(h, N))
    if left.shape[1] == 1:
        left, right = left[:, 0], right[:, 0]
    else:  # compare whole rows: rank them jointly, then join on the rank
        _, ranks = np.unique(
            np.concatenate([left, right]), axis=0, return_inverse=True
        )
        ranks = ranks.reshape(-1)
        left, right = ranks[: len(left)], ranks[len(left) :]
    order = np.argsort(right, kind="stable")
    right = right[order]
    lo = np.searchsorted(right, left, side="left")
    counts = np.searchsorted(right, left, side="right") - lo
    left_idx = np.repeat(np.arange(len(left), dtype=np.uint64), counts)
    offsets = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    right_idx = order[np.repeat(lo, counts) + offsets].astype(np.uint64)
    return left_idx | (right_idx << np.uint64(m * h))


def _scan_dual(
    m: int,
    N: int,
    rows_bits: tuple[tuple[int, ...], ...],
    workers: int,
    chunk_size: int,
) -> np.ndarray:
    """Packed dual words found by testing every vector of R^N."""
    space = 1 << (m * N)
    chunks = [(lo, min(lo + chunk_size, space)) for lo in range(0, space, chunk_size)]
    procs = min(workers, len(chunks), os.cpu_count() or 1)
    if procs == 1:
        hits = [_scan_chunk(lo, hi, m, N, rows_bits) for lo, hi in chunks]
    else:
        with ProcessPoolExecutor(max_workers=procs) as pool:
            futures = [
                pool.submit(_scan_chunk, lo, hi, m, N, rows_bits)
                for lo, hi in chunks
            ]
            hits = [f.result() for f in futures]  # submission order: deterministic
    return np.concatenate(hits)


def _code_from_packed(packed: np.ndarray, layout: ByteLayout, m: int) -> LinearCode:
    """LinearCode of packed words (coordinate i in bits [m*i, m*(i+1))).

    Words are ordered by a key with coordinate 0 as the most significant
    digit, which is the order `Word.__lt__` gives, so the result equals
    `LinearCode` built from the same words by the public constructor.
    """
    N = layout.N
    mask = np.uint64((1 << m) - 1)
    key = np.zeros(packed.shape, dtype=np.uint64)
    for i in range(N):
        key = (key << np.uint64(m)) | ((packed >> np.uint64(m * i)) & mask)
    key = np.unique(key)
    shifts = np.arange(N - 1, -1, -1, dtype=np.uint64) * np.uint64(m)
    digits = (key[:, None] >> shifts[None, :]) & mask
    elems = tuple(RingElement(m, x) for x in range(1 << m))
    words = [
        Word._trusted(tuple(elems[x] for x in row), layout, m)
        for row in digits.tolist()
    ]
    return LinearCode._trusted(tuple(words), layout, m)


_DUAL_METHODS = ("join", "scan")


def dual(
    G: GeneratorMatrix,
    budget: int = DEFAULT_SPACE_BUDGET,
    workers: int = 1,
    chunk_size: int = _SCAN_CHUNK,
    method: str = "join",
) -> LinearCode:
    """Every v in R^N with <row, v> = 0 for all rows of G.

    Orthogonality to the generators implies orthogonality to the whole code
    by bilinearity.  An empty matrix dualizes to the full space.
    `method="join"` matches half-vector syndromes; `method="scan"` tests
    every vector of R^N (in chunks of `chunk_size`, on up to `workers`
    processes) and is kept as the independent referee.  Both return the
    same code, and `budget` caps |R|^N for either.
    """
    if method not in _DUAL_METHODS:
        raise ParameterError(
            f"dual method must be one of {', '.join(_DUAL_METHODS)}, got {method!r}"
        )
    if workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")
    m, N = G.m, G.layout.N
    if m * N > 62:
        raise ParameterError(
            f"scan index needs {m * N} bits, beyond 64-bit packing"
        )
    space = 1 << (m * N)
    if space > budget:
        raise BudgetError("dual scan over R^N", space, budget)
    rows_bits = tuple(tuple(x.bits for x in row) for row in G.rows)
    if method == "join":
        found = _join_dual(m, N, rows_bits)
    else:
        found = _scan_dual(m, N, rows_bits, workers, chunk_size)
    return _code_from_packed(found, G.layout, m)


def generating_rows(C: LinearCode) -> GeneratorMatrix:
    """A small generating subset of C, found greedily by closing the span.

    Useful for re-dualizing a code that is only known by its codeword set.
    """
    m, layout, N = C.m, C.layout, C.layout.N
    spanned = {(0,) * N}
    gens: list[tuple[RingElement, ...]] = []
    for w in C.codewords:
        bits = w.bits()
        if bits in spanned:
            continue
        gens.append(w.coords)
        spanned = _add_row(spanned, bits, m)
        if len(spanned) == len(C):
            break
    return GeneratorMatrix(gens, layout, m=m)


# --- matrix file format -------------------------------------------------
#
#   # comment lines start with '#'; blank lines are ignored
#   m=<int> b=<int> t=<int>
#   <row of whitespace-separated element tokens, length a multiple of b>
#   ...
#
# Every row must have the same length; n is inferred from it.


def _parse_header(line: str, lineno: int) -> tuple[int, int, int]:
    fields = line.split()
    keys = ("m", "b", "t")
    if len(fields) != 3 or any(
        not f.startswith(k + "=") for f, k in zip(fields, keys)
    ):
        raise MatrixParseError(
            f"expected header 'm=<int> b=<int> t=<int>', got {line!r}", lineno
        )
    values = []
    for field, key in zip(fields, keys):
        body = field[len(key) + 1 :]
        # ASCII digits only, as in the element grammar: int() would also take
        # a sign, underscores and non-ASCII digits
        if not (body.isascii() and body.isdigit()):
            raise MatrixParseError(f"bad integer for {key}: {body!r}", lineno)
        values.append(int(body))
    if values[1] < 1:
        raise MatrixParseError(f"byte size b must be >= 1, got {values[1]}", lineno)
    return values[0], values[1], values[2]


def parse_matrix_text(text: str) -> GeneratorMatrix:
    header: tuple[int, int, int] | None = None
    header_line = 0
    rows: list[tuple[RingElement, ...]] = []
    row_len: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = _parse_header(line, lineno)
            header_line = lineno
            continue
        m = header[0]
        try:
            row = tuple(parse_element(tok, m) for tok in line.split())
        except ParameterError as exc:
            raise MatrixParseError(str(exc), lineno) from exc
        if row_len is None:
            row_len = len(row)
            if row_len % header[1] != 0:
                raise MatrixParseError(
                    f"row length {row_len} is not a multiple of b={header[1]}",
                    lineno,
                )
        elif len(row) != row_len:
            raise MatrixParseError(
                f"row length {len(row)} differs from first row ({row_len})",
                lineno,
            )
        rows.append(row)
    if header is None:
        raise MatrixParseError("missing header line 'm=<int> b=<int> t=<int>'")
    if not rows:
        raise MatrixParseError("matrix file contains no rows")
    m, b, t = header
    try:
        layout = ByteLayout(b=b, t=t, n=row_len // b)
        return GeneratorMatrix(rows, layout, m=m)
    except ParameterError as exc:
        raise MatrixParseError(str(exc), header_line) from exc


def load_matrix(path) -> GeneratorMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matrix_text(fh.read())
