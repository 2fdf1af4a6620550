"""Sparse univariate polynomials in z with exact integer coefficients.

Exponents and coefficients are Python ints, read through `operator.index`
(numpy integers pass, a float or str is refused; `from_json_terms` also
reads the wire form's decimal strings), so nothing ever overflows or
rounds; terms with a zero coefficient are never stored, making equality
plain term-map equality.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping

from .errors import IntegrityError, ParameterError, as_int


class Polynomial:
    """Immutable map exponent -> nonzero integer coefficient."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[int, int] = {}
        for exp, coeff in items:
            exp, coeff = as_int(exp, "exponent"), as_int(coeff, "coefficient")
            if exp < 0:
                raise ParameterError(f"negative exponent {exp}")
            acc[exp] = acc.get(exp, 0) + coeff
        object.__setattr__(
            self, "_terms", {e: c for e, c in acc.items() if c != 0}
        )

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        return Polynomial, (dict(self._terms),)

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def one(cls) -> "Polynomial":
        return cls({0: 1})

    @classmethod
    def monomial(cls, exp: int, coeff: int = 1) -> "Polynomial":
        return cls({exp: coeff})

    def terms(self) -> Iterator[tuple[int, int]]:
        """(exponent, coefficient) pairs in ascending exponent order."""
        return iter(sorted(self._terms.items()))

    def coeff(self, exp: int) -> int:
        return self._terms.get(exp, 0)

    def degree(self) -> int:
        """Largest exponent with a nonzero coefficient; -1 for the zero polynomial."""
        return max(self._terms) if self._terms else -1

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: "Polynomial") -> "Polynomial":
        acc = dict(self._terms)
        for e, c in other._terms.items():
            acc[e] = acc.get(e, 0) + c
        return Polynomial(acc)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        acc = dict(self._terms)
        for e, c in other._terms.items():
            acc[e] = acc.get(e, 0) - c
        return Polynomial(acc)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        acc: dict[int, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                acc[e] = acc.get(e, 0) + c1 * c2
        return Polynomial(acc)

    def __pow__(self, n: int) -> "Polynomial":
        n = as_int(n, "polynomial power")
        if n < 0:
            raise ParameterError(f"polynomial power must be a non-negative int, got {n!r}")
        result = Polynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def scale(self, k: int) -> "Polynomial":
        return Polynomial({e: c * k for e, c in self._terms.items()})

    def exact_div(self, d: int) -> "Polynomial":
        """Coefficientwise quotient by d; every coefficient must be divisible.

        A remainder means the caller's arithmetic is inconsistent, so this
        raises IntegrityError rather than rounding.
        """
        d = as_int(d, "divisor")
        if d <= 0:
            raise ParameterError(f"divisor must be positive, got {d}")
        out = {}
        for e, c in self._terms.items():
            q, r = divmod(c, d)
            if r != 0:
                raise IntegrityError(
                    f"coefficient {c} of z^{e} is not divisible by {d}"
                )
            out[e] = q
        return Polynomial(out)

    def __call__(self, x: int) -> int:
        """Evaluate at an integer point, exactly: a numpy integer is read as
        an int, so the powers cannot wrap."""
        x = as_int(x, "evaluation point")
        return sum(c * x**e for e, c in self._terms.items())

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for e, c in self.terms():
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                var = "z" if e == 1 else f"z^{e}"
                body = var if mag == 1 else f"{mag}{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"{'+' if c > 0 else '-'} {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({dict(self.terms())!r})"

    # JSON wire form: ascending [{"exp": e, "coeff": "<decimal>"}], with
    # coefficients as strings so consumers cannot lose precision.
    def to_json_terms(self) -> list[dict[str, int | str]]:
        return [{"exp": e, "coeff": str(c)} for e, c in self.terms()]

    @classmethod
    def from_json_terms(cls, data: Iterable[Mapping[str, int | str]]) -> "Polynomial":
        """The wire form read back: an exponent is an int, a coefficient an
        int or a decimal string -?[0-9]+; anything else is refused."""
        return cls(
            {as_int(t["exp"], "exponent"): _wire_coeff(t["coeff"]) for t in data}
        )


def _wire_coeff(value: int | str) -> int:
    if isinstance(value, str) and value.isascii() and value.removeprefix("-").isdigit():
        try:
            return int(value)
        except ValueError:  # more digits than int() takes from a string
            pass
    return as_int(value, "coefficient")
