"""Exact arithmetic foundation: scalars, polynomials, finite fields."""

from .scalars import QQ, Zmod
from .unipoly import (
    UniPoly,
    poly_divmod,
    poly_gcd,
    companion_trace,
    elementary_symmetric,
)
from .ffield import (
    ExtField,
    GF,
    NumberField,
    is_irreducible_ff,
    roots_in_extension,
    smallest_irreducible,
)
from .multipoly import (
    MultiPoly,
    esym,
    is_symmetric,
    parse_poly,
    parse_unipoly,
)

__all__ = [
    "QQ",
    "Zmod",
    "UniPoly",
    "poly_divmod",
    "poly_gcd",
    "companion_trace",
    "elementary_symmetric",
    "ExtField",
    "GF",
    "NumberField",
    "is_irreducible_ff",
    "roots_in_extension",
    "smallest_irreducible",
    "MultiPoly",
    "esym",
    "is_symmetric",
    "parse_poly",
    "parse_unipoly",
]
