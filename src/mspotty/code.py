"""Words over F2[u]/(u^m), byte layouts, generator matrices, codes and duals.

A word of length N = n*b splits into n bytes of b coordinates each; byte i
is coords[i*b : (i+1)*b].  A `LinearCode`'s words are read as an array of
shape (|C|, N), one digit (coefficient mask) per coordinate, with unique
rows in canonical order (coordinate 0 most significant, the order
`Word.__lt__` gives).  A code stores one F2 basis, and every reader takes
its words from one source, `_blocks`; nothing is cached.

R = F2[u]/(u^m) is an F2-algebra, so both sides are F2-linear.  A vector
packs into an integer with coordinate 0 most significant, so integer
order is canonical order.  `span`, `dual` and `generating_rows` pack each
row once and then work on ints alone: u^i*v is v shifted up by i, masked
to bits i..m-1 of every coordinate, with no ring product.  One Gaussian
elimination over those bit rows gives the fully reduced basis of the
m*k vectors u^i*g_r, which spans the code (|C| = 2^rank); coefficient s
of <g, v> is the F2 dot product of v with u^(m-1-s)*g with each
coordinate's bits mirrored, so the dual is the bit-mirrored binary dual
of that basis.  A code stores only its fully reduced basis: `w in C` and
`generating_rows` read it, and its words come in canonical order in
blocks of at most 2^14 words and 2^20 digits (`_blocks`), which the
statistics in `weight`, the codeword listing (one block of strings at a
time), iteration and the digit array read.  Only fast paths live here:
the exhaustive scan of R^N that referees the dual is `oracle.scan_dual`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import BudgetError, MatrixParseError, ParameterError, as_int
from .ring import MAX_M, RingElement, mul_bits, parse_element

#: Default cap on |R|^k coefficient tuples enumerated by span().
DEFAULT_SPAN_BUDGET = 1 << 24
#: Default cap on |R|^N for dual() and the oracle's exhaustive scan.
DEFAULT_SPACE_BUDGET = 1 << 28

#: `_blocks` reads a code in blocks of at most 2^_BLOCK_BITS words and, for
#: long words, 2^_BLOCK_DIGIT_BITS digits.
_BLOCK_BITS = 14
_BLOCK_DIGIT_BITS = 20


@dataclass(frozen=True)
class ByteLayout:
    """b bits per byte, spotty parameter t (1 <= t <= b), n bytes."""

    b: int
    t: int
    n: int

    def __post_init__(self):
        for name in ("b", "t", "n"):
            value = as_int(getattr(self, name), f"layout parameter {name}")
            object.__setattr__(self, name, value)
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
    if not coords:
        raise ParameterError("no coordinates to read the ring parameter m from")
    m = coords[0].m
    if any(x.m != m for x in coords):
        raise ParameterError("coordinates mix different ring parameters")
    return m


def _separators(layout: ByteLayout) -> list[str]:
    """What follows each coordinate of a printed word: " " inside a byte,
    " | " between bytes, nothing after the last."""
    N, b = layout.N, layout.b
    return ["" if i == N - 1 else " | " if (i + 1) % b == 0 else " " for i in range(N)]


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

    def __reduce__(self):
        return Word, (self.coords, self.layout)

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
        return "".join(
            str(x) + sep for x, sep in zip(self.coords, _separators(self.layout))
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

    def __reduce__(self):
        return GeneratorMatrix, (self.rows, self.layout, self.m)

    @property
    def k(self) -> int:
        return len(self.rows)


def _digit_dtype(m: int) -> type:
    return np.uint8 if m <= 8 else np.uint16


class LinearCode:
    """An F2-linear set of words in canonical (coordinate-lex) order,
    stored as its fully reduced packed F2 basis (rank r, |C| = 2^r).

    `span` and `dual` build the basis by elimination; the public
    constructor takes the words themselves and refuses any set that is not
    closed under addition.  `_blocks` enumerates the words in canonical
    order in bounded blocks, and iteration, `codewords` and the read-only
    (|C|, N) digit array `digits` are built from them on each read: a code
    stores nothing but its basis.  `len()` stops at 2^62 words (rank 62),
    as Python's `len()` takes no int above 2^63 - 1; `repr` and
    `generating_rows` read the exact size.

    An F2-linear set that is not R-linear, such as {0, (1, 0)} at m=2, is
    accepted; `generating_rows` refuses it, and `transform` of its table
    gives the enumerator of {v : chi(<c, v>) = 1 for all c in C}.
    """

    __slots__ = ("m", "layout", "_basis")

    def __init__(self, codewords: Iterable[Word], layout: ByteLayout, m: int):
        words = list(codewords)
        for w in words:
            if w.layout != layout or w.m != m:
                raise ParameterError("codeword layout or ring parameter mismatch")
        self._set(layout, m, _closed([_pack(w.bits(), m) for w in words]))

    def _set(self, layout: ByteLayout, m: int, basis: dict[int, int]) -> None:
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "_basis", tuple(basis[p] for p in sorted(basis)))

    def __setattr__(self, name, value):
        raise AttributeError("LinearCode is immutable")

    def __reduce__(self):
        # the stored form: the fully reduced basis
        return LinearCode._from_basis, (self._basis, self.layout, self.m)

    @classmethod
    def _from_words(
        cls, words: Iterable[int], layout: ByteLayout, m: int
    ) -> "LinearCode":
        """The code of packed words bound to `layout` and `m`, checked as
        the public constructor checks them (`_closed`)."""
        C = object.__new__(cls)
        C._set(layout, m, _closed(words))
        return C

    @classmethod
    def _from_basis(
        cls, vectors: Iterable[int], layout: ByteLayout, m: int
    ) -> "LinearCode":
        """The F2-span of packed vectors, kept fully reduced and sorted by leading
        bit: the rows at the set bits of c sum to the c-th word in canonical order."""
        C = object.__new__(cls)
        C._set(layout, m, _echelon(vectors))
        return C

    @property
    def digits(self) -> np.ndarray:
        """The read-only (|C|, N) digit array, built from `_blocks` on each read."""
        digits = np.concatenate([block.T for block in _blocks(self)])
        digits.flags.writeable = False
        return digits

    @property
    def codewords(self) -> tuple[Word, ...]:
        return tuple(self)

    def _size(self) -> int:
        """|C| as an exact int, which `len()` cannot return past 2^63 - 1."""
        return 1 << len(self._basis)

    __len__ = _size

    def __iter__(self) -> Iterator[Word]:
        """The codewords in canonical order, built one block of `_blocks`
        at a time, each ring element once per digit value."""
        m, layout = self.m, self.layout
        elems, seen = {}, np.zeros(1 << m, bool)
        for block in _blocks(self):
            seen[block] = True  # the digit values so far, with no index copy
            new = np.flatnonzero(seen).tolist()
            elems.update((x, RingElement(m, x)) for x in new if x not in elems)
            for row in block.T.tolist():
                yield Word._trusted(tuple(map(elems.__getitem__, row)), layout, m)

    def __contains__(self, w: Word) -> bool:
        if not isinstance(w, Word) or w.layout != self.layout or w.m != self.m:
            return False
        basis = {v.bit_length() - 1: v for v in self._basis}
        return not _reduce(_pack(w.bits(), self.m), basis)

    def ambient_size(self) -> int:
        return 1 << (self.m * self.layout.N)

    def __repr__(self) -> str:
        return f"LinearCode(|C|={self._size()}, m={self.m}, layout={self.layout})"


def _blocks(C: LinearCode) -> Iterator[np.ndarray]:
    """Every word of C once, as coordinate-major (N, B) digit blocks, one
    column per word; the blocks, concatenated, are in canonical order.

    A code of rank r gives 2^(r-l) blocks of B = 2^l words, l = min(r,
    _BLOCK_BITS, _BLOCK_DIGIT_BITS - bitlen(N-1)) and at least 0, so a
    block holds at most 2^_BLOCK_DIGIT_BITS digits, or one word.  Block 0
    is the table of all combinations of the l low basis rows, XOR'd in
    block g with the high rows at the set bits of g, so column c of block
    g is word g*B + c (`_from_basis`).  From g-1 to g, bits 0..j flip, j
    the lowest set bit of g: one XOR with the prefix "high rows 0..j".
    """
    N, m = C.layout.N, C.m
    bits = max(0, min(_BLOCK_BITS, _BLOCK_DIGIT_BITS - (N - 1).bit_length()))
    low, high = C._basis[:bits], C._basis[bits:]
    table = np.zeros((N, 1 << len(low)), dtype=_digit_dtype(m))
    for j, v in enumerate(low):
        half = 1 << j
        table[:, half : 2 * half] = table[:, :half] ^ _unpack(v, N, m)[:, None]
    yield table
    flips = [_unpack(v, N, m)[:, None] for v in accumulate(high, int.__xor__)]
    offset = np.zeros((N, 1), dtype=table.dtype)
    for g in range(1, 1 << len(high)):
        offset ^= flips[(g & -g).bit_length() - 1]
        yield table ^ offset


def _word_strings(C: LinearCode) -> Iterator[list[str]]:
    """`str(w)` of every codeword in canonical order, one list per block of
    `_blocks`, assembled column by column from one string per ring element
    and separator, so neither a `Word` nor the digit array is built and
    only one block's strings are held at a time."""
    names = [str(RingElement(C.m, x)) for x in range(1 << C.m)]
    tables = [np.array([x + s for x in names], object) for s in _separators(C.layout)]
    for block in _blocks(C):
        lines = np.full(block.shape[1], "", dtype=object)
        for column, table in zip(block, tables):
            lines = lines + table[column]
        yield lines.tolist()


def inner_product(x: Sequence[RingElement], y: Sequence[RingElement]) -> RingElement:
    """Sum of coordinatewise products; byte grouping does not affect it."""
    if len(x) != len(y):
        raise ParameterError(f"length mismatch: {len(x)} vs {len(y)}")
    m = _uniform_m(tuple(x) + tuple(y))
    acc = 0
    for a, b in zip(x, y):
        acc ^= mul_bits(a.bits, b.bits, m)
    return RingElement(m, acc)


# --- F2 elimination over packed vectors -----------------------------------
#
# A vector of R^N is an integer with coordinate i in bits
# [m*(N-1-i), m*(N-i)), so integer order is canonical word order; an
# echelon basis maps each leading bit to the row that it leads.


def _pack(digits: Iterable[int], m: int) -> int:
    v = 0
    for x in digits:
        v = v << m | x
    return v


def _unpack(v: int, N: int, m: int) -> np.ndarray:
    mask = (1 << m) - 1
    shifts = range(m * (N - 1), -1, -m)
    return np.array([(v >> s) & mask for s in shifts], dtype=_digit_dtype(m))


def _reduce(v: int, basis: dict[int, int]) -> int:
    """v minus its projection on the span of `basis`: 0 iff v is in it."""
    while v:
        row = basis.get(v.bit_length() - 1)
        if row is None:
            return v
        v ^= row
    return 0


def _insert(v: int, basis: dict[int, int]) -> None:
    """Add v to the echelon basis unless it is already spanned."""
    v = _reduce(v, basis)
    if v:
        basis[v.bit_length() - 1] = v


def _multiples(v: int, m: int, N: int) -> Iterator[int]:
    """The u^i * v for i < m of a packed row v, whose F2-span is its R-span.
    u^i shifts every coordinate's bits up by i; the mask keeps bits i..m-1
    of each coordinate, dropping what passed u^(m-1) into the next one."""
    ones = ((1 << m * N) - 1) // ((1 << m) - 1)  # bit 0 of every coordinate
    for i in range(m):
        yield v << i & ((1 << m) - (1 << i)) * ones


def _mirror(i: int, m: int) -> int:
    """Bit i of a packed vector with each coordinate's m bits reversed."""
    return i + m - 1 - 2 * (i % m)


def _echelon(vectors: Iterable[int]) -> dict[int, int]:
    """Fully reduced echelon basis of the F2-span of packed vectors: each
    leading bit appears in the one row that it leads."""
    basis: dict[int, int] = {}
    for v in vectors:
        _insert(v, basis)
    for p in sorted(basis):  # ascending: row p already lacks earlier pivots
        for q, other in basis.items():
            if q != p and other >> p & 1:
                basis[q] = other ^ basis[p]
    return basis


def _closed(words: Iterable[int]) -> dict[int, int]:
    """`_echelon` of nonempty packed words that are closed under addition.
    Sorted, a code's distinct words are in canonical order, so word 2^j is
    row j of its fully reduced basis; the words are closed exactly when
    the span of those rows, listed in canonical order, is the words."""
    ordered = sorted(set(words))
    if not ordered:
        raise ParameterError("a linear code cannot be empty")
    basis = _echelon(ordered[1 << j] for j in range(len(ordered).bit_length() - 1))
    span = [0]
    for p in sorted(basis):
        span += [w ^ basis[p] for w in span]
    if span != ordered:
        raise ParameterError("codewords are not closed under addition")
    return basis


def _row_space(m: int, N: int, rows: Iterable[int]) -> dict[int, int]:
    """`_echelon` of the m*k vectors u^i * row of packed rows: their R-span."""
    return _echelon(v for row in rows for v in _multiples(row, m, N))


def _packed_rows(G: GeneratorMatrix) -> list[int]:
    """Each row of G packed once, coordinate 0 most significant."""
    return [_pack((x.bits for x in row), G.m) for row in G.rows]


def span(G: GeneratorMatrix, budget: int = DEFAULT_SPAN_BUDGET) -> LinearCode:
    """All R-linear combinations of the rows of G, deduplicated.

    The contract is an enumeration of |R|^k coefficient tuples, so that count
    is what the budget guards; internally each row is packed once and the
    code holds the fully reduced basis of the m*k shifted-and-masked
    vectors u^i * row, of rank r, and builds its 2^r-row digit array only
    when that is read.
    """
    m = G.m
    BudgetError.guard("span over R^k coefficient tuples", budget, shift=m * G.k)
    basis = _row_space(m, G.layout.N, _packed_rows(G))
    return LinearCode._from_basis(basis.values(), G.layout, m)


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


def _kernel_basis(m: int, N: int, rows: Iterable[int]) -> list[int]:
    """Packed basis of {v : <row, v> = 0 for every packed row}.

    Coefficient s of <g, v> (chi reads s = m-1) is the F2 dot product of v
    with u^(m-1-s) * g with each coordinate's m bits mirrored (bit e to
    m-1-e), so the dual is the mirrored binary dual of the row space: each
    bit f that leads no row of the fully reduced basis gives bit f plus the
    leading bit p of each row that has bit f, every bit index mirrored.
    """
    basis = _row_space(m, N, rows)
    kernel = []
    for f in range(m * N):
        if f not in basis:
            bits = [f] + [p for p, row in basis.items() if row >> f & 1]
            kernel.append(sum(1 << _mirror(i, m) for i in bits))
    return kernel


def dual(
    G: GeneratorMatrix, budget: int = DEFAULT_SPACE_BUDGET, workers: int = 1
) -> LinearCode:
    """Every v in R^N with <row, v> = 0 for all rows of G.

    Orthogonality to the generators implies orthogonality to the whole code
    by bilinearity.  An empty matrix dualizes to the full space.  Each row
    is packed once; the code holds the kernel basis read off the row
    space's elimination (digits built on each read); `budget` caps |R|^N.
    `workers` must be >= 1 and is kept only because the benchmark passes it.
    """
    if workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")
    m, N = G.m, G.layout.N
    BudgetError.guard("dual scan over R^N", budget, shift=m * N)
    return LinearCode._from_basis(_kernel_basis(m, N, _packed_rows(G)), G.layout, m)


def generating_rows(C: LinearCode) -> GeneratorMatrix:
    """A small generating subset of C, chosen greedily in canonical order:
    a word joins when it is outside the span of those before it, tested by
    an incremental F2 rank.

    Only the basis rows are tried, in order: the words before row j
    combine rows 0..j-1, so the first word outside a span is a basis row.
    A row's u^i multiples are shifts-and-masks; only the chosen rows are
    unpacked to elements.  Useful for re-dualizing a code only known by
    its words.  Raises `ParameterError` once the R-span of the chosen rows
    outgrows C: then C is not R-linear, and no rows generate it.
    """
    m, N = C.m, C.layout.N
    basis: dict[int, int] = {}
    gens: list[int] = []
    for word in C._basis:
        if not _reduce(word, basis):
            continue
        gens.append(word)
        for v in _multiples(word, m, N):
            _insert(v, basis)
        if 1 << len(basis) > C._size():
            raise ParameterError("code is not R-linear: its rows' R-span is larger")
    rows = [[RingElement(m, x) for x in _unpack(v, N, m).tolist()] for v in gens]
    return GeneratorMatrix(rows, C.layout, m=m)


# --- matrix file format -------------------------------------------------
#
#   # comment lines start with '#'; blank lines are ignored
#   m=<int> b=<int> t=<int>
#   <row of whitespace-separated element tokens, length a multiple of b>
#   ...
#
# Every row must have the same length; n is inferred from it.


def _ascii_int(text: str) -> int | None:
    """text as a non-negative integer, or None if it is not one."""
    # ASCII digits only, as in the element grammar: int() would also take
    # a sign, underscores and non-ASCII digits
    if not (text.isascii() and text.isdigit()):
        return None
    try:
        return int(text)
    except ValueError:  # more digits than int() takes from a string
        return None


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
        value = _ascii_int(body)
        if value is None:
            raise MatrixParseError(f"bad integer for {key}: {body!r}", lineno)
        values.append(value)
    if not 1 <= values[0] <= MAX_M:
        raise MatrixParseError(
            f"m must be an integer in [1, {MAX_M}], got {values[0]}", lineno
        )
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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        raise MatrixParseError("file is not UTF-8 text") from None
    return parse_matrix_text(text)
