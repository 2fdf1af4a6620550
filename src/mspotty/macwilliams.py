"""Duality transform for byte-wise spotty weight enumerators.

The dual enumerator comes from the code's alpha-vector distribution alone:

    W_dual(z) = (1/|C|) * sum over alpha of A_alpha * prod_j F_j(z)^alpha_j

where F_j is a fixed per-byte kernel polynomial depending on (b, m, t).
The sorted alpha rows form a trie and rows sharing a prefix share its
product of kernel powers, so `transform` sums node by node: one multiply
by a tabulated power F_j^a per trie edge, not a product of powers per row.
Everything is exact integer arithmetic; the final division must leave no
remainder, and a remainder is reported as a corrupted-input error rather
than rounded away.
"""

from __future__ import annotations

from math import comb

from .errors import ParameterError
from .polynomial import Polynomial
from .weight import DistributionTable, weight_from_alpha


def f_poly(j: int, b: int, m: int, t: int) -> Polynomial:
    """Kernel polynomial for bytes of Hamming weight j.

    F_j(z) = sum over j1 <= j, j2 <= b - j of
             (-1)^j1 * (2^m - 1)^j2 * C(j, j1) * C(b - j, j2) * z^ceil((j1+j2)/t)
    """
    if m < 1:
        raise ParameterError(f"ring exponent m must be >= 1, got {m}")
    if not 0 <= j <= b:
        raise ParameterError(f"byte weight j must satisfy 0 <= j <= b={b}, got {j}")
    if not 1 <= t <= b:
        raise ParameterError(f"need 1 <= t <= b={b}, got t={t}")
    q1 = (1 << m) - 1
    terms: dict[int, int] = {}
    for j1 in range(j + 1):
        sign = -1 if j1 % 2 else 1
        cj1 = comb(j, j1)
        for j2 in range(b - j + 1):
            e = -(-(j1 + j2) // t)
            terms[e] = terms.get(e, 0) + sign * cj1 * comb(b - j, j2) * q1**j2
    return Polynomial(terms)


def enumerator_from_distribution(dist: DistributionTable) -> Polynomial:
    """W(z) rebuilt from alpha counts; must match the word-by-word sum."""
    t = dist.layout.t
    terms: dict[int, int] = {}
    for alpha, count in dist.items():
        e = weight_from_alpha(alpha, t)
        terms[e] = terms.get(e, 0) + count
    return Polynomial(terms)


def _power_table(F: Polynomial, top: int) -> list[Polynomial]:
    """[F^0, F^1, ..., F^top], each power one multiply by F from the last."""
    powers = [Polynomial.one()]
    for a in range(1, top + 1):
        powers.append(F if a == 1 else powers[-1] * F)
    return powers


def transform(
    dist: DistributionTable, code_size: int, m: int | None = None, t: int | None = None
) -> Polynomial:
    """Dual enumerator from a primal distribution table.

    m and t default to the table's own parameters; passing them explicitly
    is only for probing mismatched kernels.  code_size is the primal |C|
    and must divide the accumulated sum exactly.

    The sum over rows is regrouped along the trie that the lexicographically
    sorted alpha rows form.  The node for a prefix alpha_0..alpha_{j-1}
    stands for the sum over its rows of count * prod_{j' >= j} F_j'^alpha_j',
    which is sum over a of F_j^a * (node for the prefix extended by a).  A
    row's last entry is fixed by sum(alpha) = n, so a leaf is one row:
    F_b^alpha_b * count.  Powers of each kernel come from one table built by
    repeated multiplication, so the sum costs one multiply per trie edge
    with alpha_j > 0 instead of a product of powers per row.  The numerator
    is the same exact integer polynomial, and it is divided once at the end.
    """
    if code_size < 1:
        raise ParameterError(f"code size must be >= 1, got {code_size}")
    b = dist.layout.b
    m = dist.m if m is None else m
    t = dist.layout.t if t is None else t
    kernels = [f_poly(j, b, m, t) for j in range(b + 1)]
    rows = list(dist.items())
    powers = [
        _power_table(F, max((alpha[j] for alpha, _ in rows), default=0))
        for j, F in enumerate(kernels)
    ]
    # acc[j] sums the finished children of the open node at depth j; the
    # rows arrive sorted, so a node is finished once a row leaves its prefix.
    zero = Polynomial.zero()
    acc = [zero] * (b + 1)

    def close(alpha: tuple[int, ...], depth: int) -> None:
        for j in range(b - 1, depth - 1, -1):
            child, acc[j + 1] = acc[j + 1], zero
            a = alpha[j]
            acc[j] = acc[j] + (powers[j][a] * child if a else child)

    prev: tuple[int, ...] | None = None
    for alpha, count in rows:
        if prev is not None:
            # distinct rows with equal sums first differ before index b
            close(prev, next(j for j in range(b) if alpha[j] != prev[j]))
        acc[b] = powers[b][alpha[b]].scale(count)
        prev = alpha
    if prev is not None:
        close(prev, 0)
    return acc[0].exact_div(code_size)
