"""Exception hierarchy shared by all mspotty modules, and `as_int`, which
reads an integer parameter or refuses it."""

from operator import index


class MSpottyError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(MSpottyError, ValueError):
    """Invalid argument: out-of-range parameter, mismatched ring or layout."""


def as_int(value, what: str) -> int:
    """`value` read through `operator.index`: ints and numpy integers pass,
    anything else (a float, a str) raises ParameterError naming `what`."""
    try:
        return index(value)
    except TypeError:
        raise ParameterError(f"{what} must be an int, got {value!r}") from None


class BudgetError(MSpottyError):
    """An enumeration would exceed its configured budget.

    `required` is the size of the space that would have to be scanned,
    `budget` the configured cap.  The size is required * 2^shift: pass a
    shift for a power of two too large to build.  A size too long for
    str() is written as its odd part times a power of two, e.g. 2^16000.
    """

    def __init__(self, message: str, required: int, budget: int, *, shift: int = 0):
        super().__init__(
            f"{message}: requires {_size_text(required, shift)} > budget {budget}"
        )
        self._size = (required, shift)
        self.budget = budget

    @property
    def required(self) -> int:
        count, shift = self._size
        return count << shift

    @classmethod
    def guard(cls, message: str, budget: int, count: int = 1, shift: int = 0) -> None:
        """Raise unless count * 2^shift <= budget.  The exponents are
        compared first, so a huge shift is never built."""
        if shift > budget.bit_length() or count << shift > budget:
            raise cls(message, count, budget, shift=shift)


#: Sizes up to this many bits are built and printed in full when str() can.
_EXACT_BITS = 1 << 16


def _size_text(count: int, shift: int) -> str:
    if count.bit_length() + shift <= _EXACT_BITS:
        try:
            return str(count << shift)
        except ValueError:  # past the interpreter's int-to-str digit limit
            pass
    zeros = (count & -count).bit_length() - 1
    count, shift = count >> zeros, shift + zeros
    return f"2^{shift}" if count == 1 else f"{count}*2^{shift}"


class IntegrityError(MSpottyError):
    """An exact-arithmetic consistency check failed (e.g. non-divisible
    transform numerator).  Signals a bug or an invalid input code, never
    a recoverable condition."""


class MatrixParseError(MSpottyError, ValueError):
    """Malformed matrix file.  `line` is 1-based; 0 means whole-file."""

    def __init__(self, message: str, line: int = 0):
        prefix = f"line {line}: " if line else ""
        super().__init__(prefix + message)
        self.line = line
