"""High-precision area expansion of Lawson-type minimal surfaces.

The package evaluates the iterated integrals of the three puncture 1-forms
by power-series transport, runs the order-by-order recursion for the
potential coefficients at the minimal angle, and extracts the Taylor
coefficients of the surface area (equivalently Willmore energy), verifying
them against closed forms and multiple-polylogarithm identities.

The names below are imported from their modules on first use (PEP 562), so
``import lawsonarea.cli`` loads only the modules a subcommand runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# The identity suites of ``verify``, named here so that the command-line
# parser can offer them without importing ``verify``.
SUITE_NAMES = ("closed-forms", "alpha3", "parity", "conjectures")

_EXPORTS = {
    "engine": ("DerivativeState", "EngineError", "ExpansionResult", "area_series",
               "expand", "first_order_general_phi", "frame_derivative",
               "q_first_order_check", "run"),
    "laurent": ("LaurentMatrix2", "LaurentPoly"),
    "mpl": ("DivergentSeriesError", "MplLetter", "MplSpec", "SignedMplSum", "convert_word",
            "letter", "li", "mpl_spec", "stuffle", "zeta_signed"),
    "omega": ("OmegaTable", "SignedTable", "build_signed_table", "build_table",
              "cached_table", "parse_phi"),
    "oracle": ("chen_compose", "constant_path", "quadrature_oracle"),
    "precision": ("PrecisionConfig", "agreement_digits"),
    "words": ("parse_word", "shuffle"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
