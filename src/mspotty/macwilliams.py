"""Duality transform for byte-wise spotty weight enumerators.

The dual enumerator comes from the code's alpha-vector distribution alone:

    W_dual(z) = (1/|C|) * sum over alpha of A_alpha * prod_j F_j(z)^alpha_j

where F_j is a fixed per-byte kernel polynomial depending on (b, m, t).
The alpha rows form a trie and rows sharing a prefix share its product
of kernel powers, so `transform` sums node by node.  A node at depth j
sums its children by Horner's rule over their entries alpha_j, largest
first: acc <- acc * F_j^gap + child, gap being the step from the previous
child's entry, and one multiply by F_j^a_min if the smallest entry is
positive.  So a node multiplies by small powers of F_j, by F_j itself when
the entries are consecutive as in a full-composition table, and never by
a large F_j^a.  Each trie level is read off the table's own sorted alpha
matrix (`DistributionTable.alphas`, last row first) at once, and per-row
products and per-node sums run inside `map` and `sum`, not in a loop per
row.  For b >= 3 the trie stops at depth b - 1: there a row adds its
count times the monomial F_{b-1}^x * F_b^y of its last two entries
(x, y), each distinct pair's monomial built once, so a row costs one
multiply of its small count by a large monomial.  For b <= 2 a pair fixes
the row, so the trie runs to depth b + 1, where each row is a node.

The trie is folded over plain Python ints (Kronecker substitution): each
polynomial is held as its value at z = 2^K.  Evaluation at 2^K is a ring
homomorphism Z[z] -> Z, so the folded int is exactly the numerator's value
there, and only the numerator's own coefficients must fit a signed K-bit
slot.  Their magnitudes are at most B = sum over alpha of
A_alpha * prod_j ||F_j||_1^alpha_j (triangle inequality).  B is not
computed: `_slot_bound` gives an integer at least B from the rows' bit
lengths, each row's term bounded by a power of 2 whose exponent is
bitlen(A_alpha) plus sum_j alpha_j * log2 ||F_j||_1 rounded up in
integers, and K is its bit length plus 2.  For n < 255 that is at most
3 bits wider than bitlen(B) + 2, and the trie is folded once.

Everything is exact integer arithmetic; the final division must leave no
remainder, and a remainder is reported as a corrupted-input error rather
than rounded away.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice, repeat
from math import comb
from operator import lshift, mul, sub
from typing import Iterator, Sequence

import numpy as np

from .errors import BudgetError, ParameterError, as_int
from .polynomial import Polynomial
from .weight import DistributionTable, weight_from_alpha

#: Cap on the C(b+3, 3) terms of the kernels F_0..F_b that `kernel_table`
#: builds for `transform` and `mspotty tables`, which admits b <= 182.
#: Each term is a bigint of up to m*b bits: at m = 16, b = 200 (1,373,701
#: terms) they took 3.1 s on 2 CPUs, at b = 400 (10,827,401 terms) 50 s.
KERNEL_TERM_BUDGET = 1 << 20

#: `_slot_bound` measures base-2 logarithms in units of 2^-_LOG_BITS bits.
_LOG_BITS = 8


def _check_t(b: int, t: int) -> None:
    if not 1 <= t <= b:
        raise ParameterError(f"need 1 <= t <= b={b}, got t={t}")


def f_poly(j: int, b: int, m: int, t: int) -> Polynomial:
    """Kernel polynomial for bytes of Hamming weight j.

    F_j(z) = sum over j1 <= j, j2 <= b - j of
             (-1)^j1 * (2^m - 1)^j2 * C(j, j1) * C(b - j, j2) * z^ceil((j1+j2)/t)
    """
    j, b = as_int(j, "byte weight j"), as_int(b, "byte size b")
    m, t = as_int(m, "ring exponent m"), as_int(t, "spotty parameter t")
    if m < 1:
        raise ParameterError(f"ring exponent m must be >= 1, got {m}")
    if not 0 <= j <= b:
        raise ParameterError(f"byte weight j must satisfy 0 <= j <= b={b}, got {j}")
    _check_t(b, t)
    q1 = (1 << m) - 1
    terms: dict[int, int] = {}
    for j1 in range(j + 1):
        sign = -1 if j1 % 2 else 1
        cj1 = comb(j, j1)
        for j2 in range(b - j + 1):
            e = -(-(j1 + j2) // t)
            terms[e] = terms.get(e, 0) + sign * cj1 * comb(b - j, j2) * q1**j2
    return Polynomial(terms)


def kernel_table(b: int, m: int, t: int) -> list[Polynomial]:
    """F_0, ..., F_b as a new list, refused up front when they would be too
    large.

    F_j has (j+1)*(b-j+1) terms before like powers of z merge, so the
    table costs sum over j of (j+1)*(b-j+1) = C(b+3, 3) terms (about
    b^3/6); that count is guarded against `KERNEL_TERM_BUDGET` on every
    call, before the kernels are built or read from the cache.  A
    negative b has no kernels.
    """
    if b >= 0:
        _check_t(b, t)
        BudgetError.guard(
            "kernel table over C(b+3, 3) terms", KERNEL_TERM_BUDGET, comb(b + 3, 3)
        )
    return list(_kernels(b, m, t))


@lru_cache(maxsize=16)
def _kernels(b: int, m: int, t: int) -> tuple[Polynomial, ...]:
    """The kernels of one (b, m, t), built once: they depend on nothing
    else, and `Polynomial` is immutable."""
    return tuple(f_poly(j, b, m, t) for j in range(b + 1))


def enumerator_from_distribution(dist: DistributionTable) -> Polynomial:
    """W(z) rebuilt from alpha counts; must match the word-by-word sum."""
    t = dist.layout.t
    terms: dict[int, int] = {}
    for alpha, count in dist.items():
        e = weight_from_alpha(alpha, t)
        terms[e] = terms.get(e, 0) + count
    return Polynomial(terms)


class _Powers(dict):
    """x^g for every g >= 0, made as _Powers({0: 1, 1: x}) and built on
    first use by repeated multiplication, so it never grows past the
    largest exponent asked for."""

    def __missing__(self, g: int) -> int:
        top = len(self) - 1
        power, x = self[top], self[1]
        for e in range(top + 1, g + 1):
            power = self[e] = power * x
        return power


def _horner(
    children: Iterator[int],
    exps: list[int],
    firsts: list[int],
    depth: int,
    powers: _Powers,
) -> Iterator[int]:
    """The value of each node at `depth` from its children's, in order.

    A child comes with its exponent a and the first column where its first
    row differs from the row before it; a column below `depth` opens a new
    parent.  Each parent's children come in descending a, and the parent
    sums powers[a] * child over them by Horner's rule, acc <- acc *
    powers[a_prev - a] + child, then multiplies once by powers[a_min] if
    its smallest exponent a_min is positive.
    """
    children = zip(children, exps, firsts)
    acc, last, _ = next(children)
    for child, a, f in children:
        if f < depth:
            yield acc * powers[last] if last else acc
            acc = child
        else:
            acc = acc * powers[last - a] + child
        last = a
    yield acc * powers[last] if last else acc


def _fold(alphas: np.ndarray, counts: Sequence[int], bases: list[int]) -> int:
    """Sum over rows of count * prod_j bases[j]^alpha_j, grouped by the trie.

    The rows come as `transform` passes them, a `DistributionTable`'s
    `alphas` and `counts` reversed: distinct, with equal sums, in
    descending lex order.  The node for a prefix alpha_0..alpha_{d-1}
    stands for the sum over its rows of count * prod_{j >= d}
    bases[j]^alpha_j, which is sum over a of bases[d]^a * (node for the
    prefix extended by a).  `_horner` takes the children in the order they
    come, descending a: one multiply by bases[d]^gap per child after the
    first and one by bases[d]^a_min if a_min > 0, which is as many
    multiplies as one per child with a > 0, but by small powers of the
    base, not by bases[d]^a.  Each base's powers are built on first use.

    Row i opens a node at every depth d > first[i], first[i] being the
    first column where it differs from row i - 1, so each level's nodes
    and their exponents come off the matrix in a few numpy calls, and the
    levels run as a chain of lazy iterators, deepest first, holding one
    open node per level.  For b >= 3 the trie stops at depth b - 1: a node
    there sums count * M[x, y] over its rows, where (x, y) =
    (alpha_{b-1}, alpha_b) and M[x, y] = bases[b-1]^x * bases[b]^y is
    built once per distinct pair, in one dict over the pairs (at most
    min(rows, C(n + 2, 2)) entries); `map` multiplies the counts and `sum`
    adds each node's run of rows.  For b <= 2 a pair fixes its row, so
    none would repeat: the trie runs to depth b + 1, where each row is a
    node of value count (rows with equal sums that agree before column b
    are equal), and Horner runs over every column.
    """
    R, width = alphas.shape
    if not R:
        return 0
    b = width - 1
    powers = [_Powers({0: 1, 1: x}) for x in bases]
    first = np.zeros(R, np.min_scalar_type(b))
    first[1:] = (alphas[1:] != alphas[:-1]).argmax(axis=1)
    if b >= 3:
        depth = b - 1
        pairs = list(zip(alphas[:, b - 1].tolist(), alphas[:, b].tolist()))
        xs, ys = powers[b - 1], powers[b]
        monomials = {(x, y): xs[x] * ys[y] for x, y in set(pairs)}
        terms = map(mul, counts, map(monomials.__getitem__, pairs))
        # a node at depth b - 1 sums the rows from its first to the next's
        heads = (first < depth).nonzero()[0].tolist()
        heads.append(R)
        values = map(sum, map(islice, repeat(terms), map(sub, heads[1:], heads)))
    else:
        depth, values = b + 1, iter(counts)
    for d in range(depth, 0, -1):
        # the first rows of the nodes at depth d, children of depth d - 1
        nodes = first < d
        values = _horner(
            values,
            alphas[:, d - 1][nodes].tolist(),
            first[nodes].tolist(),
            d - 1,
            powers[d - 1],
        )
    return next(values)


def _log2_ceil(x: int) -> int:
    """An integer lam >= 2^S * log2(x) for an integer x >= 1, S = _LOG_BITS.

    With shift = max(0, bitlen(x) - 32), x <= top * 2^shift for
    top = ceil(x / 2^shift), which has at most 33 bits, and
    ceil(2^S * log2(top)) = bitlen(top^(2^S) - 1) exactly, since
    ceil(log2(y)) = bitlen(y - 1) for every integer y >= 1.  So lam exceeds
    2^S * log2(x) by less than 1 plus 2^S * log2(1 + 2^-31), and equals it
    when x is a power of 2 (||F_0||_1 = 2^(m*b) always, and at t = 1 every
    norm is one), since then top is a power of 2 and x = top * 2^shift.
    """
    shift = max(0, x.bit_length() - 32)
    top = -(-x >> shift)
    return (shift << _LOG_BITS) + (top ** (1 << _LOG_BITS) - 1).bit_length()


def _slot_bound(alphas: np.ndarray, counts: Sequence[int], norms: list[int]) -> int:
    """An integer at least B = sum over rows of count * prod_j norms[j]^alpha_j.

    Each norm is at least 1 (every kernel has constant term 1).  With
    lam_j = `_log2_ceil`(norms[j]) and S = _LOG_BITS, a row's term is below
    2^e_row for
    e_row = ceil((2^S * bitlen(count) + sum_j alpha_j * lam_j) / 2^S),
    because count < 2^bitlen(count) and norms[j] <= 2^(lam_j / 2^S).  The
    bound is the sum over rows of 2^e_row, taken from a histogram of e_row:
    one int64 `np.einsum` over the alpha matrix and one `np.bincount`, no
    fold.  Per row, 2^e_row is below 2^(2 + 1.001 * n / 2^S) times the
    row's term (up to one bit for bitlen(count), one for the ceiling and
    1/2^S per unit of alpha for lam_j), so for n < 255 the bound is below
    8 * B and its bit length is at most bitlen(B) + 3.  All three can meet: at m=1, b=6, t=3
    the norms are (64, 20, 6, 6, 4, 4, 22), and the one row
    alpha = (0, 1, 0, 3, 0, 0, 2) with count 1 has B = 20 * 6^3 * 22^2,
    21 bits, and a bound of 24 bits.
    """
    # einsum casts the narrow alpha matrix to int64 a buffer at a time;
    # `alphas @ lam` would first copy all of it
    lam = np.array([_log2_ceil(x) for x in norms], np.int64)
    e_row = np.einsum("ij,j->i", alphas, lam, dtype=np.int64)
    # 2^S * bitlen(count) is a multiple of 2^S, so it leaves the ceiling
    e_row += (1 << _LOG_BITS) - 1
    e_row >>= _LOG_BITS
    e_row += np.fromiter(map(int.bit_length, counts), np.int64, len(counts))
    hist = np.bincount(e_row)
    return sum(map(lshift, hist.tolist(), range(len(hist))))


def transform(dist: DistributionTable, code_size: int) -> Polynomial:
    """Dual enumerator from a primal distribution table.

    The kernels F_j are those of the table's own (b, m, t).  code_size is
    the primal |C|, an int (read through `operator.index`), and must divide
    the accumulated sum exactly.  The rows
    are `dist.alphas` and `dist.counts` as stored, read last row first.

    The numerator N(z) = sum over rows of count * prod_j F_j(z)^alpha_j is
    folded along the alpha trie (`_fold`) with every polynomial held as one
    integer, its value at z = 2^K.  Each node sums its children by Horner's
    rule, one multiply by a small power F_j^gap per trie edge; below that,
    for b >= 3, one multiply per distinct pair (alpha_{b-1}, alpha_b) and
    one of a count by that pair's monomial per row, and for b <= 2 Horner
    runs down to the rows.
    Evaluation at 2^K is a ring homomorphism Z[z] -> Z, so the folded
    integer is exactly N(2^K), whatever the intermediate values were.
    By the triangle inequality every coefficient of N has magnitude at most
    B = sum over rows of count * prod_j ||F_j||_1^alpha_j.  `_slot_bound`
    bounds B from above without a fold: each row's term is below 2^e_row,
    with e_row read off bitlen(count) and integer upper bounds on
    log2 ||F_j||_1, and the bound sums those powers of 2 (for n < 255 at
    most 3 bits longer than B).  With K = bitlen(bound) + 2 every
    coefficient fits a signed K-bit slot, so N's coefficients are read back
    as signed base-2^K digits, and N is divided by code_size once.
    The kernels come from `kernel_table`, so a byte length b whose kernels
    exceed `KERNEL_TERM_BUDGET` raises `BudgetError` before any is built,
    and each (b, m, t) builds its kernels once.
    """
    code_size = as_int(code_size, "code size")
    if code_size < 1:
        raise ParameterError(f"code size must be >= 1, got {code_size}")
    kernels = kernel_table(dist.layout.b, dist.m, dist.layout.t)
    alphas, counts = dist.alphas[::-1], dist.counts[::-1]
    norms = [sum(abs(c) for _, c in F.terms()) for F in kernels]
    K = _slot_bound(alphas, counts, norms).bit_length() + 2
    packed = _fold(alphas, counts, [F(1 << K) for F in kernels])
    # signed digits: a digit of 2^(K-1) or more borrows one from the next
    # slot.  |N(2^K)| >= 2^(K*deg N - 1), so these slots reach the top one.
    mask, half = (1 << K) - 1, 1 << (K - 1)
    terms: dict[int, int] = {}
    for e in range(packed.bit_length() // K + 1):
        digit = packed & mask
        if digit >= half:
            digit -= 1 << K
        terms[e] = digit
        packed = (packed - digit) >> K
    return Polynomial(terms).exact_div(code_size)
