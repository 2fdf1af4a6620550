"""Duality transform for byte-wise spotty weight enumerators.

The dual enumerator comes from the code's alpha-vector distribution alone:

    W_dual(z) = (1/|C|) * sum over alpha of A_alpha * prod_j F_j(z)^alpha_j

where F_j is a fixed per-byte kernel polynomial depending on (b, m, t).
The sorted alpha rows form a trie and rows sharing a prefix share its
product of kernel powers, so `transform` sums node by node: one multiply
by a tabulated power F_j^a per trie edge, not a product of powers per row.
The trie stops at depth b - 1.  There a row adds its count times the
monomial F_{b-1}^x * F_b^y of its last two entries (x, y), and for b >= 3
each distinct pair's monomial is built once and kept, so a row costs one
multiply of its small count by a large monomial.  For b <= 2 a pair fixes
the whole row, so its monomial is built for that row and not kept.

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

from itertools import chain
from math import comb

import numpy as np

from .errors import BudgetError, ParameterError
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
    """F_0, ..., F_b, refused up front when they would be too large.

    F_j has (j+1)*(b-j+1) terms before like powers of z merge, so the
    table costs sum over j of (j+1)*(b-j+1) = C(b+3, 3) terms (about
    b^3/6); that count is guarded against `KERNEL_TERM_BUDGET`.  A
    negative b has no kernels.
    """
    if b >= 0:
        _check_t(b, t)
        BudgetError.guard(
            "kernel table over C(b+3, 3) terms", KERNEL_TERM_BUDGET, comb(b + 3, 3)
        )
    return [f_poly(j, b, m, t) for j in range(b + 1)]


def enumerator_from_distribution(dist: DistributionTable) -> Polynomial:
    """W(z) rebuilt from alpha counts; must match the word-by-word sum."""
    t = dist.layout.t
    terms: dict[int, int] = {}
    for alpha, count in dist.items():
        e = weight_from_alpha(alpha, t)
        terms[e] = terms.get(e, 0) + count
    return Polynomial(terms)


def _fold(rows: list[tuple[tuple[int, ...], int]], bases: list[int]) -> int:
    """Sum over rows of count * prod_j bases[j]^alpha_j, grouped by the trie.

    The rows must come in lexicographic order with equal sums, as a
    `DistributionTable` yields them.  The node for a prefix
    alpha_0..alpha_{j-1} stands for the sum over its rows of
    count * prod_{j' >= j} bases[j']^alpha_j', which is sum over a of
    bases[j]^a * (node for the prefix extended by a).  The trie stops at
    depth b - 1: a row adds count * M[x, y] to its node there, where
    (x, y) = (alpha_{b-1}, alpha_b) and M[x, y] = bases[b-1]^x * bases[b]^y.
    Each base gets one power table built by repeated multiplication.  The
    sum costs one balanced multiply per trie edge above depth b - 1 with
    alpha_j > 0 and one per distinct pair (x, y), and one multiply of a
    count, which is small, by M per row, all on plain integers.

    M[x, y] is cached for b >= 3, where it holds at most
    min(rows, C(n + 2, 2)) entries.  For b <= 2 a pair fixes the whole row
    (alpha_0 = n - x - y), so no pair repeats and M is built per row and
    not kept.
    """
    b = len(bases) - 1
    tops = map(max, zip(*(alpha for alpha, _ in rows), (0,) * (b + 1)))
    powers = []
    for x, top in zip(bases, tops):
        table = [1]
        for _ in range(top):
            table.append(table[-1] * x)
        powers.append(table)
    # acc[j] sums the finished children of the open node at depth j (at
    # depth b - 1, its rows); the rows arrive sorted, so a node is finished
    # once a row leaves its prefix.
    acc = [0] * b
    pairs: dict[tuple[int, ...], int] = {}

    def close(alpha: tuple[int, ...], depth: int) -> None:
        for j in range(b - 2, depth - 1, -1):
            child, acc[j + 1] = acc[j + 1], 0
            a = alpha[j]
            acc[j] += powers[j][a] * child if a else child

    prev: tuple[int, ...] | None = None
    for alpha, count in rows:
        if prev is not None:
            # distinct rows with equal sums first differ before index b
            depth = 0
            while alpha[depth] == prev[depth]:
                depth += 1
            close(prev, depth)
        pair = alpha[b - 1 :]
        monomial = pairs.get(pair)
        if monomial is None:
            monomial = powers[b - 1][pair[0]] * powers[b][pair[1]]
            if b > 2:
                pairs[pair] = monomial
        acc[b - 1] += count * monomial
        prev = alpha
    if prev is not None:
        close(prev, 0)
    return acc[0]


def _log2_ceil(x: int) -> int:
    """An integer lam >= 2^S * log2(x) for an integer x >= 1, S = _LOG_BITS.

    With shift = max(0, bitlen(x) - 32), x <= top * 2^shift for
    top = ceil(x / 2^shift), which has at most 33 bits, and
    ceil(2^S * log2(top)) = bitlen(top^(2^S) - 1) exactly, since
    ceil(log2(y)) = bitlen(y - 1) for every integer y >= 1.  So lam exceeds
    2^S * log2(x) by less than 1 plus 2^S * log2(1 + 2^-31), and equals it
    when x is a power of 2.
    """
    shift = max(0, x.bit_length() - 32)
    top = -(-x >> shift)
    return (shift << _LOG_BITS) + (top ** (1 << _LOG_BITS) - 1).bit_length()


def _slot_bound(rows: list[tuple[tuple[int, ...], int]], norms: list[int]) -> int:
    """An integer at least B = sum over rows of count * prod_j norms[j]^alpha_j.

    Each norm is at least 1 (every kernel has constant term 1).  With
    lam_j = `_log2_ceil`(norms[j]) and S = _LOG_BITS, a row's term is below
    2^e_row for
    e_row = ceil((2^S * bitlen(count) + sum_j alpha_j * lam_j) / 2^S),
    because count < 2^bitlen(count) and norms[j] <= 2^(lam_j / 2^S).  The
    bound is the sum over rows of 2^e_row, taken from a histogram of e_row:
    b + 1 column multiply-adds and one `np.bincount`, no fold.  Per row,
    2^e_row is below 2^(2 + 1.001 * n / 2^S) times the row's term (up to
    one bit for bitlen(count), one for the ceiling and 1/2^S per unit of
    alpha for lam_j), so for n < 255 the bound is below 8 * B and its bit
    length is at most bitlen(B) + 3.  All three can meet: at m=1, b=6, t=3
    the norms are (64, 20, 6, 6, 4, 4, 22), and the one row
    alpha = (0, 1, 0, 3, 0, 0, 2) with count 1 has B = 20 * 6^3 * 22^2,
    21 bits, and a bound of 24 bits.
    """
    width = len(norms)
    alphas = np.fromiter(
        chain.from_iterable(alpha for alpha, _ in rows), np.int32, len(rows) * width
    ).reshape(len(rows), width)
    fine = np.fromiter((count.bit_length() for _, count in rows), np.int64, len(rows))
    fine <<= _LOG_BITS
    # column by column: an int32 matrix times int64 weights would first copy
    # the whole matrix to int64
    for column, x in zip(alphas.T, norms):
        fine += column * np.int64(_log2_ceil(x))
    hist = np.bincount((fine + (1 << _LOG_BITS) - 1) >> _LOG_BITS)
    return sum(h << e for e, h in enumerate(hist.tolist()) if h)


def transform(
    dist: DistributionTable, code_size: int, m: int | None = None, t: int | None = None
) -> Polynomial:
    """Dual enumerator from a primal distribution table.

    m and t default to the table's own parameters; passing them explicitly
    is only for probing mismatched kernels.  code_size is the primal |C|
    and must divide the accumulated sum exactly.

    The numerator N(z) = sum over rows of count * prod_j F_j(z)^alpha_j is
    folded along the alpha trie (`_fold`) with every polynomial held as one
    integer, its value at z = 2^K: one multiply per trie edge above depth
    b - 1, one per distinct pair (alpha_{b-1}, alpha_b) for b >= 3 (one per
    row for b <= 2), and one multiply of a count by that pair's monomial
    per row.  Evaluation at 2^K is a ring homomorphism Z[z] -> Z, so the
    folded integer is exactly N(2^K), whatever the intermediate values were.
    By the triangle inequality every coefficient of N has magnitude at most
    B = sum over rows of count * prod_j ||F_j||_1^alpha_j.  `_slot_bound`
    bounds B from above without a fold: each row's term is below 2^e_row,
    with e_row read off bitlen(count) and integer upper bounds on
    log2 ||F_j||_1, and the bound sums those powers of 2 (for n < 255 at
    most 3 bits longer than B).  With K = bitlen(bound) + 2 every coefficient fits a
    signed K-bit slot, so N's coefficients are read back as signed
    base-2^K digits, and N is divided by code_size once.
    The kernels come from `kernel_table`, so a byte length b whose kernels
    exceed `KERNEL_TERM_BUDGET` raises `BudgetError` before any is built.
    """
    if code_size < 1:
        raise ParameterError(f"code size must be >= 1, got {code_size}")
    b = dist.layout.b
    m = dist.m if m is None else m
    t = dist.layout.t if t is None else t
    kernels = kernel_table(b, m, t)
    rows = list(dist.items())
    bound = _slot_bound(rows, [sum(abs(c) for _, c in F.terms()) for F in kernels])
    K = bound.bit_length() + 2
    packed = _fold(rows, [F(1 << K) for F in kernels])
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
