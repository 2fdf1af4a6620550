"""Byte-wise spotty weight enumerators of linear codes over F2[u]/(u^m).

Exact integer arithmetic throughout: chain-ring elements, sparse
polynomials, weight distributions, the per-byte duality transform, a
dual by F2 elimination, and an identity-verification oracle (whose
exhaustive scan of R^N referees the dual), plus the `mspotty`
command-line tool.
"""

__version__ = "0.1.0"

from .code import (
    ByteLayout,
    GeneratorMatrix,
    LinearCode,
    Word,
    code_size_from_profile,
    dual,
    generating_rows,
    inner_product,
    load_matrix,
    parse_matrix_text,
    span,
)
from .errors import (
    BudgetError,
    IntegrityError,
    MatrixParseError,
    MSpottyError,
    ParameterError,
)
from .macwilliams import enumerator_from_distribution, f_poly, transform
from .polynomial import Polynomial
from .ring import (
    RingElement,
    chi,
    elements,
    format_element,
    monomial,
    one,
    parse_element,
    partition,
    units,
    zero,
)
from .weight import (
    DistributionTable,
    alpha_vector,
    distribution,
    enumerator,
    hamming_weight,
    m_spotty_distance,
    m_spotty_weight,
    minimum_distance,
)

__all__ = [
    "BudgetError",
    "ByteLayout",
    "DistributionTable",
    "GeneratorMatrix",
    "IntegrityError",
    "LinearCode",
    "MatrixParseError",
    "MSpottyError",
    "ParameterError",
    "Polynomial",
    "RingElement",
    "Word",
    "alpha_vector",
    "chi",
    "code_size_from_profile",
    "distribution",
    "dual",
    "elements",
    "enumerator",
    "enumerator_from_distribution",
    "f_poly",
    "format_element",
    "generating_rows",
    "hamming_weight",
    "inner_product",
    "load_matrix",
    "m_spotty_distance",
    "m_spotty_weight",
    "minimum_distance",
    "monomial",
    "one",
    "parse_element",
    "parse_matrix_text",
    "partition",
    "span",
    "transform",
    "units",
    "zero",
    "__version__",
]
