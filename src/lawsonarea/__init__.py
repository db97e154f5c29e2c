"""High-precision area expansion of Lawson-type minimal surfaces.

The package evaluates the iterated integrals of the three puncture 1-forms
by power-series transport, runs the order-by-order recursion for the
potential coefficients at the minimal angle, and extracts the Taylor
coefficients of the surface area (equivalently Willmore energy), verifying
them against closed forms and multiple-polylogarithm identities.
"""

from .engine import (DerivativeState, EngineError, ExpansionResult, area_series,
                     expand, first_order_general_phi, frame_derivative,
                     q_first_order_check, run)
from .laurent import LaurentMatrix2, LaurentPoly
from .mpl import (DivergentSeriesError, MplSpec, SignedMplSum, convert_word, li,
                  mpl_spec, zeta_signed)
from .omega import (OmegaTable, PunctureConfig, SignedTable, build_signed_table,
                    build_table, cached_table, chen_compose, clear_cache, list_cache,
                    parse_phi, quadrature_oracle)
from .precision import PrecisionConfig, agreement_digits, constant, zeta
from .words import MplLetter, letter, parse_word, shuffle, stuffle

__version__ = "0.1.0"

__all__ = [
    "DerivativeState", "DivergentSeriesError", "EngineError", "ExpansionResult",
    "LaurentMatrix2", "LaurentPoly", "MplLetter", "MplSpec", "OmegaTable",
    "PrecisionConfig", "PunctureConfig", "SignedMplSum", "SignedTable",
    "agreement_digits", "area_series", "build_signed_table", "build_table",
    "cached_table", "chen_compose", "clear_cache", "constant", "convert_word",
    "expand", "first_order_general_phi", "frame_derivative", "letter", "li",
    "list_cache", "mpl_spec", "parse_phi", "parse_word", "q_first_order_check",
    "quadrature_oracle", "run", "shuffle", "stuffle", "zeta", "zeta_signed",
]
