"""Arithmetic in the finite chain ring F2[u]/(u^m).

An element r0 + r1*u + ... + r_{m-1}*u^{m-1} with ri in F2 is stored as the
integer whose bit i is ri.  Addition is XOR; multiplication is a carry-less
polynomial product truncated at degree m (u^m = 0), which `mul_bits`
computes directly, with no tables; u^i times x is x shifted up by i with
the bits past u^(m-1) dropped.  The ring has 2^(m-1) units (exactly the
elements with r0 = 1) and its ideals form the chain
<1> > <u> > <u^2> > ... > <u^(m-1)> > <0>.

The additive character `chi` maps x to (-1)^(r_{m-1}(x)).  Its kernel A and
complement B form the canonical partition used throughout the transform
machinery: 0, 1 in A, every nonzero ideal and the unit set split evenly,
A+A and B+B land in A, A+B lands in B.
"""

from __future__ import annotations

from typing import Iterator

from .errors import ParameterError, as_int

#: Largest supported nilpotency index; keeps |R| = 2^m <= 65536 so that
#: loops over the whole ring stay cheap.
MAX_M = 16


def _check_m(m: int) -> int:
    """m read through `as_int` and checked against the supported range."""
    m = as_int(m, "m")
    if not 1 <= m <= MAX_M:
        raise ParameterError(f"m must be an integer in [1, {MAX_M}], got {m!r}")
    return m


def mul_bits(a: int, b: int, m: int) -> int:
    """Product of two elements given as raw coefficient masks: the XOR of
    a shifted by each set bit of b (carry-less), truncated at degree m."""
    acc = 0
    while b:
        low = b & -b  # u^e for the lowest set bit e of b
        acc ^= a * low  # a << e
        b ^= low
    return acc & ((1 << m) - 1)


class RingElement:
    """Immutable element of F2[u]/(u^m); canonical, hashable, orderable."""

    __slots__ = ("m", "bits")

    def __init__(self, m: int, bits: int):
        m, bits = _check_m(m), as_int(bits, "coefficient mask")
        if not 0 <= bits < (1 << m):
            raise ParameterError(
                f"coefficient mask {bits:#x} out of range for m={m}"
            )
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):
        raise AttributeError("RingElement is immutable")

    def __reduce__(self):
        return RingElement, (self.m, self.bits)

    def _coerce(self, other: "RingElement") -> "RingElement":
        if not isinstance(other, RingElement):
            raise TypeError(f"expected RingElement, got {type(other).__name__}")
        if other.m != self.m:
            raise ParameterError(
                f"mixed ring parameters: m={self.m} vs m={other.m}"
            )
        return other

    def __add__(self, other: "RingElement") -> "RingElement":
        other = self._coerce(other)
        return RingElement(self.m, self.bits ^ other.bits)

    # characteristic 2: subtraction and addition coincide
    __sub__ = __add__

    def __mul__(self, other: "RingElement") -> "RingElement":
        other = self._coerce(other)
        return RingElement(self.m, mul_bits(self.bits, other.bits, self.m))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RingElement)
            and self.m == other.m
            and self.bits == other.bits
        )

    def __lt__(self, other: "RingElement") -> bool:
        return self.bits < self._coerce(other).bits

    def __hash__(self) -> int:
        return hash((self.m, self.bits))

    def __bool__(self) -> bool:
        return self.bits != 0

    def is_zero(self) -> bool:
        return self.bits == 0

    def is_unit(self) -> bool:
        """True iff the constant coefficient r0 is 1."""
        return bool(self.bits & 1)

    def coeff(self, i: int) -> int:
        """Coefficient of u^i, as 0 or 1."""
        if not 0 <= i < self.m:
            raise ParameterError(f"coefficient index {i} out of range for m={self.m}")
        return (self.bits >> i) & 1

    def top_coeff(self) -> int:
        """Coefficient of u^(m-1)."""
        return (self.bits >> (self.m - 1)) & 1

    def __str__(self) -> str:
        return format_element(self)

    def __repr__(self) -> str:
        return f"RingElement(m={self.m}, {format_element(self)!r})"


def zero(m: int) -> RingElement:
    return RingElement(m, 0)


def one(m: int) -> RingElement:
    return RingElement(m, 1)


def monomial(m: int, k: int) -> RingElement:
    """The element u^k (k = 0 gives 1)."""
    m, k = _check_m(m), as_int(k, "exponent")
    if not 0 <= k < m:
        raise ParameterError(f"exponent {k} out of range for m={m}")
    return RingElement(m, 1 << k)


def elements(m: int) -> Iterator[RingElement]:
    """All 2^m ring elements in ascending coefficient-mask order."""
    m = _check_m(m)
    for bits in range(1 << m):
        yield RingElement(m, bits)


def units(m: int) -> Iterator[RingElement]:
    m = _check_m(m)
    for bits in range(1, 1 << m, 2):
        yield RingElement(m, bits)


def ideal_elements(m: int, k: int) -> frozenset[RingElement]:
    """The ideal <u^k> = {u^k * r : r in R}, of size 2^(m-k); k = m gives {0}."""
    m, k = _check_m(m), as_int(k, "ideal exponent")
    if not 0 <= k <= m:
        raise ParameterError(f"ideal exponent {k} out of range for m={m}")
    mask = (1 << m) - 1
    return frozenset(
        RingElement(m, (r << k) & mask) for r in range(1 << (m - k))
    )


def chi(x: RingElement) -> int:
    """Additive character: +1 if the u^(m-1) coefficient is 0, else -1.

    Multiplicative over addition: chi(a+b) = chi(a)*chi(b).  For m = 1 this
    is the classical binary character (-1)^x, for which 1 lands in B; the
    partition axioms below therefore only apply from m = 2 on.
    """
    return -1 if x.top_coeff() else 1


def partition(m: int) -> tuple[frozenset[RingElement], frozenset[RingElement]]:
    """Split R into (A, B) with A = kernel of the top-coefficient map.

    Requires m >= 2: for m = 1 no split can put both 0 and 1 in A.
    """
    m = _check_m(m)
    if m < 2:
        raise ParameterError("partition requires m >= 2 (1 must lie in A)")
    A = frozenset(x for x in elements(m) if x.top_coeff() == 0)
    B = frozenset(x for x in elements(m) if x.top_coeff() == 1)
    return A, B


def satisfies_partition_axioms(m: int, A: frozenset[RingElement]) -> bool:
    """Check the defining properties of an (A, B) character partition.

    With B the complement of A: 0 and 1 lie in A; A and B are equal-sized;
    the non-units (0 included), every nonzero ideal, and the unit set each
    split evenly between A and B; A+A and B+B land in A; A+B lands in B.

    These axioms fix A only up to a choice among 2^(m-2) sets: exactly the
    kernels of the F2-linear forms f on the coefficient bits with f(1) = 0
    and f(u^(m-1)) = 1.  For m >= 3 the ring automorphism u -> u + u^(m-1)
    permutes them, so no axiom phrased in R's own structure can pick one.
    `partition` picks the kernel of the top-coefficient map, the one `chi`
    uses.
    """
    m = _check_m(m)
    if m < 2:
        return False
    R = frozenset(elements(m))
    if not A <= R:
        raise ParameterError("A contains elements of a different ring")
    B = R - A
    if len(A) != len(B):
        return False
    if zero(m) not in A or one(m) not in A:
        return False
    nonunits = frozenset(x for x in R if not x.is_unit())
    if len(A & nonunits) != len(B & nonunits):
        return False
    for k in range(m):
        ideal = ideal_elements(m, k)
        if len(A & ideal) != len(ideal) // 2:
            return False
    unit_set = R - nonunits
    if len(A & unit_set) != len(unit_set) // 2:
        return False
    for a in A:
        for b in A:
            if a + b not in A:
                return False
    for a in B:
        for b in B:
            if a + b not in A:
                return False
    for a in A:
        for b in B:
            if a + b not in B:
                return False
    return True


# --- element text grammar ---------------------------------------------------
#
# `0`, or `+`-separated monomials from {1, u, u2, ..., u15}; `u^k` is accepted
# as an alias of `uk`.  Duplicate monomials are rejected.  Canonical output
# uses ascending powers, e.g. "1+u+u3".


def format_element(x: RingElement) -> str:
    if x.bits == 0:
        return "0"
    parts = []
    for i in range(x.m):
        if (x.bits >> i) & 1:
            parts.append("1" if i == 0 else ("u" if i == 1 else f"u{i}"))
    return "+".join(parts)


def _parse_monomial(token: str, m: int) -> int:
    if token == "1":
        return 0
    if token == "u":
        return 1
    body = token[1:] if token.startswith("u") else None
    if body:
        if body.startswith("^"):
            body = body[1:]
        if body.isascii() and body.isdigit():
            degree = body.lstrip("0") or "0"
            # a degree with more digits than MAX_M is >= m: refuse it before
            # int(), which takes no more digits than the int-to-str limit
            k = int(degree) if len(degree) <= len(str(MAX_M)) else MAX_M
            if k >= m:
                raise ParameterError(
                    f"monomial {token!r} has degree {degree} >= m={m}"
                )
            if k >= 1:
                return k
    raise ParameterError(f"bad monomial {token!r}")


def parse_element(text: str, m: int) -> RingElement:
    """Parse the element grammar above into a canonical RingElement."""
    m = _check_m(m)
    text = text.strip()
    if not text:
        raise ParameterError("empty element token")
    if text == "0":
        return zero(m)
    bits = 0
    for token in text.split("+"):
        k = _parse_monomial(token.strip(), m)
        if (bits >> k) & 1:
            raise ParameterError(f"duplicate monomial in {text!r}")
        bits |= 1 << k
    return RingElement(m, bits)
