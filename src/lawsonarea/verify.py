"""Executable identity suites with reported residuals.

Each suite returns a :class:`SuiteReport` binding a named set of checks to
expected/computed decimal strings, a residual, and a pass flag.  Reports are
deterministic for a given (suite, precision, seed): sampled checks draw from
a seeded generator, and rows are sorted by check id.
"""

from __future__ import annotations

import json
import random

import mpmath

from . import SUITE_NAMES, engine, mpl, omega
from .precision import PrecisionConfig
from .words import letter, shuffle, stuffle


class CheckResult:
    __slots__ = ("check_id", "expected", "computed", "residual", "passed", "stretch")

    def __init__(self, *, check_id: str, expected: str, computed: str, residual,
                 passed: bool, stretch: bool = False):
        self.check_id = check_id
        self.expected = expected
        self.computed = computed
        self.residual = residual
        self.passed = passed
        self.stretch = stretch


class SuiteReport:
    __slots__ = ("suite", "precision", "tolerance", "checks")

    def __init__(self, suite: str, precision: int, tolerance: str):
        self.suite = suite
        self.precision = precision
        self.tolerance = tolerance
        self.checks = []

    def add(self, check_id: str, expected, computed, cfg: PrecisionConfig,
            tol, stretch: bool = False) -> None:
        ctx = cfg.context
        resid = abs(ctx.mpc(expected) - ctx.mpc(computed))
        self.checks.append(CheckResult(
            check_id=check_id,
            expected=mpmath.nstr(ctx.mpc(expected), cfg.target_digits),
            computed=mpmath.nstr(ctx.mpc(computed), cfg.target_digits),
            residual=resid,
            passed=bool(resid < tol),
            stretch=stretch))

    def finalize(self) -> "SuiteReport":
        self.checks.sort(key=lambda c: c.check_id)
        return self

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if not c.stretch)

    @property
    def counts(self) -> tuple[int, int]:
        ok = sum(1 for c in self.checks if c.passed)
        return ok, len(self.checks)

    def to_jsonable(self) -> dict:
        return {
            "suite": self.suite,
            "precision": self.precision,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "checks": [{
                "id": c.check_id,
                "expected": c.expected,
                "computed": c.computed,
                "residual": mpmath.nstr(c.residual, 3),
                "passed": c.passed,
                "stretch": c.stretch,
            } for c in self.checks],
        }

    def render(self) -> str:
        ok, total = self.counts
        lines = [f"suite {self.suite}: {ok}/{total} pass "
                 f"(precision {self.precision}, tolerance {self.tolerance})"]
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            tag = " [stretch]" if c.stretch else ""
            lines.append(f"  {mark}{tag} {c.check_id}: residual "
                         f"{mpmath.nstr(c.residual, 3)}")
            if not c.passed:
                lines.append(f"        expected {c.expected}")
                lines.append(f"        computed {c.computed}")
        return "\n".join(lines)


def _tol(cfg: PrecisionConfig):
    return cfg.context.mpf(10) ** (-(cfg.target_digits - 6))


# ---------------------------------------------------------------------------
# closed-form word integral values at phi = pi/4
# ---------------------------------------------------------------------------

def closed_forms_pi4(cfg: PrecisionConfig) -> dict:
    """The nine word-integral values with known pi / log 2 / zeta(3) forms."""
    ctx = cfg.context
    I = ctx.mpc(0, 1)
    pi = ctx.pi
    log2 = ctx.ln(2)
    z3 = ctx.zeta(3)
    return {
        (3,): I * pi,
        (2, 1): -I * pi * log2,
        (2, 2, 3): I * pi ** 3 / 12,
        (3, 1, 1): I * pi * log2 ** 2 / 2 - I * pi ** 3 / 12,
        (2, 1, 1, 1): I * pi ** 3 * log2 / 12 - I * pi * log2 ** 3 / 6 - I * pi * z3 / 4,
        (2, 1, 3, 3): I * pi ** 3 * log2 / 4 - I * pi * z3,
        (2, 2, 2, 1): -I * pi ** 3 * log2 / 12 + I * pi * z3 / 4,
        (3, 1, 2, 3): -I * pi ** 3 * log2 / 4 + ctx.mpf(13) / 8 * I * pi * z3,
        (3, 3, 2, 1): I * pi ** 3 * log2 / 6 - ctx.mpf(5) / 8 * I * pi * z3,
    }


def closed_form_suite(cfg: PrecisionConfig,
                      table: omega.OmegaTable | None = None) -> SuiteReport:
    """All nine closed-form values at phi = pi/4 against the transport table."""
    tol = _tol(cfg)
    report = SuiteReport("closed-forms", cfg.target_digits, mpmath.nstr(tol, 2))
    if table is None:
        table = omega.build_table("1", "pi/4", 4, cfg)
    for idx, (word, expected) in enumerate(sorted(closed_forms_pi4(cfg).items()), 1):
        label = ",".join(map(str, word))
        report.add(f"{idx:02d}-omega-{label}", expected, table.value(word), cfg, tol)
    return report.finalize()


# ---------------------------------------------------------------------------
# third-order area coefficient, three ways
# ---------------------------------------------------------------------------

# Fully expanded order-3 output: (coefficient, [factor words...]), one tuple
# per displayed product term.
_ALPHA3_A = [
    (-3, [(1,), (1,), (2,), (2,), (1, 2)]),
    (3, [(1,), (1,), (2,), (2,), (2, 1)]),
    (3, [(1,), (2,), (1, 2), (1, 2)]),
    (3, [(1,), (2,), (2, 1), (2, 1)]),
    (-6, [(1,), (2,), (1, 2), (2, 1)]),
    (-1, [(1, 2), (1, 2), (1, 2)]),
    (1, [(2, 1), (2, 1), (2, 1)]),
    (-3, [(1, 2), (2, 1), (2, 1)]),
    (3, [(1, 2), (1, 2), (2, 1)]),
    (1, [(1,), (1,), (1,), (2,), (2,), (2,)]),
]

_ALPHA3_B = [
    (-6, [(3,), (1,), (1,), (1, 2)]),
    (-12, [(2,), (1,), (1,), (1, 3)]),
    (6, [(3,), (1,), (1,), (2, 1)]),
    (12, [(2,), (1,), (1,), (3, 1)]),
    (12, [(1,), (1, 2), (1, 3)]),
    (-12, [(1,), (1, 3), (2, 1)]),
    (-2, [(2,), (2,), (1,), (2, 3)]),
    (-12, [(1,), (1, 2), (3, 1)]),
    (12, [(1,), (2, 1), (3, 1)]),
    (2, [(2,), (2,), (1,), (3, 2)]),
    (12, [(2,), (1,), (1, 1, 3)]),
    (-12, [(2,), (1,), (1, 3, 1)]),
    (-2, [(2,), (1,), (2, 2, 3)]),
    (2, [(2,), (1,), (2, 3, 2)]),
    (12, [(2,), (1,), (3, 1, 1)]),
    (-2, [(2,), (1,), (3, 2, 2)]),
    (-4, [(3,), (3,), (3,), (1, 2)]),
    (1, [(2,), (2,), (3,), (1, 2)]),
    (4, [(3,), (3,), (3,), (2, 1)]),
    (-1, [(2,), (2,), (3,), (2, 1)]),
    (2, [(2,), (1, 2), (2, 3)]),
    (-2, [(2,), (2, 1), (2, 3)]),
    (-2, [(2,), (1, 2), (3, 2)]),
    (2, [(2,), (2, 1), (3, 2)]),
    (-12, [(1, 2), (1, 1, 3)]),
    (12, [(2, 1), (1, 1, 3)]),
    (12, [(1, 2), (1, 3, 1)]),
    (-12, [(2, 1), (1, 3, 1)]),
    (2, [(1, 2), (2, 2, 3)]),
    (-2, [(2, 1), (2, 2, 3)]),
    (-2, [(1, 2), (2, 3, 2)]),
    (2, [(2, 1), (2, 3, 2)]),
    (-12, [(1, 2), (3, 1, 1)]),
    (12, [(2, 1), (3, 1, 1)]),
    (2, [(1, 2), (3, 2, 2)]),
    (-2, [(2, 1), (3, 2, 2)]),
    (6, [(2,), (3,), (1,), (1,), (1,)]),
    (4, [(2,), (3,), (3,), (3,), (1,)]),
    (-1, [(2,), (2,), (2,), (3,), (1,)]),
]

_ALPHA3_C = [
    (-18, [(1,), (1,), (1, 2)]),
    (18, [(1,), (1,), (2, 1)]),
    (36, [(1,), (1, 1, 2)]),
    (-36, [(1,), (1, 2, 1)]),
    (36, [(1,), (2, 1, 1)]),
    (6, [(1,), (2, 3, 3)]),
    (-6, [(1,), (3, 2, 3)]),
    (6, [(1,), (3, 3, 2)]),
    (-3, [(2,), (2,), (1, 2)]),
    (-3, [(3,), (3,), (1, 2)]),
    (3, [(2,), (2,), (2, 1)]),
    (3, [(3,), (3,), (2, 1)]),
    (6, [(1, 3), (2, 3)]),
    (-6, [(2, 3), (3, 1)]),
    (-6, [(1, 3), (3, 2)]),
    (6, [(3, 1), (3, 2)]),
    (6, [(2,), (1, 2, 2)]),
    (-6, [(3,), (1, 2, 3)]),
    (6, [(3,), (1, 3, 2)]),
    (6, [(2,), (1, 3, 3)]),
    (-6, [(2,), (2, 1, 2)]),
    (6, [(3,), (2, 1, 3)]),
    (6, [(2,), (2, 2, 1)]),
    (-6, [(3,), (2, 3, 1)]),
    (-6, [(3,), (3, 1, 2)]),
    (-6, [(2,), (3, 1, 3)]),
    (6, [(3,), (3, 2, 1)]),
    (6, [(2,), (3, 3, 1)]),
    (-36, [(1, 1, 1, 2)]),
    (36, [(1, 1, 2, 1)]),
    (-36, [(1, 2, 1, 1)]),
    (-6, [(1, 2, 2, 2)]),
    (-6, [(1, 2, 3, 3)]),
    (6, [(1, 3, 2, 3)]),
    (-6, [(1, 3, 3, 2)]),
    (36, [(2, 1, 1, 1)]),
    (6, [(2, 1, 2, 2)]),
    (6, [(2, 1, 3, 3)]),
    (-6, [(2, 2, 1, 2)]),
    (6, [(2, 2, 2, 1)]),
    (-6, [(2, 3, 1, 3)]),
    (6, [(2, 3, 3, 1)]),
    (-6, [(3, 1, 2, 3)]),
    (6, [(3, 1, 3, 2)]),
    (6, [(3, 2, 1, 3)]),
    (-6, [(3, 2, 3, 1)]),
    (-6, [(3, 3, 1, 2)]),
    (6, [(3, 3, 2, 1)]),
    (6, [(2,), (1,), (1,), (1,)]),
    (1, [(2,), (2,), (2,), (1,)]),
]


def _combination(table: omega.OmegaTable, terms) -> mpmath.mpc:
    ctx = table.cfg.context
    total = ctx.mpc(0)
    for coeff, factors in terms:
        prod = ctx.mpc(coeff)
        for word in factors:
            prod *= table.value(word)
        total += prod
    return total


def _alpha3_from_pieces(table: omega.OmegaTable, A, B, C) -> mpmath.mpc:
    ctx = table.cfg.context
    I = ctx.mpc(0, 1)
    pi = ctx.pi
    return -I / (8 * pi ** 3) * A - B / (32 * pi ** 2) + I / (96 * pi) * C


def _reduced_pieces(table: omega.OmegaTable) -> tuple:
    """A, B, C after the shuffle-product reductions."""
    om21 = table.value((2, 1))
    A = (2 * om21) ** 3
    B = 2 * om21 * (-8 * table.value((2, 2, 3)) + 48 * table.value((3, 1, 1))
                    + 4 * table.value((3,)) ** 3)
    C = (288 * table.value((2, 1, 1, 1)) + 48 * table.value((2, 1, 3, 3))
         + 48 * table.value((2, 2, 2, 1)) - 48 * table.value((3, 1, 2, 3))
         + 48 * table.value((3, 3, 2, 1)))
    return A, B, C


def alpha3_raw(table: omega.OmegaTable) -> mpmath.mpc:
    """The fully expanded order-3 output, straight from the word products."""
    return _alpha3_from_pieces(table, _combination(table, _ALPHA3_A),
                               _combination(table, _ALPHA3_B),
                               _combination(table, _ALPHA3_C))


def alpha3_simplified(table: omega.OmegaTable) -> mpmath.mpc:
    """The same value after the shuffle-product reductions of A, B, C."""
    return _alpha3_from_pieces(table, *_reduced_pieces(table))


def alpha3_factored_pieces(table: omega.OmegaTable) -> dict:
    """Raw and reduced A, B, C for fine-grained cross checks."""
    A, B, C = _reduced_pieces(table)
    return {
        "A_raw": _combination(table, _ALPHA3_A),
        "B_raw": _combination(table, _ALPHA3_B),
        "C_raw": _combination(table, _ALPHA3_C),
        "A_reduced": A,
        "B_reduced": B,
        "C_reduced": C,
    }


def alpha3_suite(cfg: PrecisionConfig,
                 table: omega.OmegaTable | None = None) -> SuiteReport:
    """Raw word-product formula, reduced formula, and the engine, vs 9/4 zeta(3).

    The two formulas read the word table ``table`` (built at depth 4 when
    None); the engine runs on a signed table it builds itself.
    """
    tol = _tol(cfg)
    report = SuiteReport("alpha3", cfg.target_digits, mpmath.nstr(tol, 2))
    ctx = cfg.context
    target = ctx.mpf(9) / 4 * ctx.zeta(3)
    if table is None:
        table = omega.build_table("1", "pi/4", 4, cfg)
    report.add("1-raw-formula", target, alpha3_raw(table), cfg, tol)
    report.add("2-simplified-formula", target, alpha3_simplified(table), cfg, tol)
    state = engine.run(3, cfg)
    result = engine.area_series(state)
    report.add("3-engine", target, result.alpha(3), cfg, tol)
    return report.finalize()


# ---------------------------------------------------------------------------
# conjectural higher coefficients in the alternating-zeta basis (stretch)
# ---------------------------------------------------------------------------

def alpha5_conjecture_value(cfg: PrecisionConfig):
    ctx = cfg.context
    z113 = mpl.zeta_signed([1, 1, 3], [1, 1, -1], cfg)
    return ctx.re(-8 * z113 + ctx.mpf(121) / 16 * ctx.zeta(5)
                  + 2 * ctx.pi ** 2 / 3 * ctx.zeta(3)
                  - 21 * ctx.zeta(3) * ctx.ln(2) ** 2)


def alpha5_classical_value(cfg: PrecisionConfig):
    """alpha_5 from its classical-polylogarithm relation.

    720 alpha_5 + 495 zeta(5) + 10080 zeta(3) log^2 2 + 320 pi^2 log^3 2
    - 384 log^5 2 - 11520 Li_5(1/2) - 11520 Li_4(1/2) log 2 = 0, with the two
    polylogarithms from ``mpl.li``.  It reduces the alternating-MZV form of
    ``alpha5_conjecture_value`` to Li_5(1/2) and Li_4(1/2) log 2.
    """
    ctx = cfg.context
    log2 = ctx.ln(2)
    li5, li4 = (ctx.re(_li(cfg, [n], ["0.5"])) for n in (5, 4))
    return (-495 * ctx.zeta(5) - 10080 * ctx.zeta(3) * log2 ** 2
            - 320 * ctx.pi ** 2 * log2 ** 3 + 384 * log2 ** 5
            + 11520 * li5 + 11520 * li4 * log2) / 720


def alpha7_conjecture_value(cfg: PrecisionConfig):
    ctx = cfg.context
    z11113 = mpl.zeta_signed([1, 1, 1, 1, 3], [1, 1, 1, 1, -1], cfg)
    z115 = mpl.zeta_signed([1, 1, 5], [1, 1, -1], cfg)
    z133 = mpl.zeta_signed([1, 3, 3], [1, 1, -1], cfg)
    z113 = mpl.zeta_signed([1, 1, 3], [1, 1, -1], cfg)
    z13 = mpl.zeta_signed([1, 3], [1, -1], cfg)
    log2 = ctx.ln(2)
    pi = ctx.pi
    z3, z5, z7 = ctx.zeta(3), ctx.zeta(5), ctx.zeta(7)
    total = (-256 * z11113 + ctx.mpf(1392) / 17 * z115 + ctx.mpf(720) / 17 * z133
             + 128 * log2 ** 2 * z113 + 28 * z3 * z13
             + ctx.mpf(296921) / 1088 * z7 - ctx.mpf(418) / 51 * pi ** 2 * z5
             - ctx.mpf(473) / 765 * pi ** 4 * z3 - ctx.mpf(109) / 2 * z5 * log2 ** 2
             + ctx.mpf(280) / 3 * z3 * log2 ** 4
             - ctx.mpf(32) / 3 * pi ** 2 * z3 * log2 ** 2 - 112 * z3 ** 2 * log2)
    return ctx.re(total)


def conjecture_suite(cfg: PrecisionConfig, include_alpha7: bool = False,
                     state: engine.DerivativeState | None = None) -> SuiteReport:
    """Engine coefficients against the conjectured alternating-zeta forms.

    The whole suite is a stretch gate: its checks never affect process exit
    status, and the order-7 comparison only runs on request.
    """
    tol = _tol(cfg)
    report = SuiteReport("conjectures", cfg.target_digits, mpmath.nstr(tol, 2))
    order = 7 if include_alpha7 else 5
    if state is None or state.order < order:
        state = engine.run(order, cfg)
    result = engine.area_series(state)
    report.add("1-alpha5-vs-mzv", alpha5_conjecture_value(cfg), result.alpha(5),
               cfg, tol, stretch=True)
    report.add("3-alpha5-vs-classical-polylogs", alpha5_classical_value(cfg),
               result.alpha(5), cfg, tol, stretch=True)
    if include_alpha7:
        report.add("2-alpha7-vs-mzv", alpha7_conjecture_value(cfg), result.alpha(7),
                   cfg, tol, stretch=True)
    return report.finalize()


# ---------------------------------------------------------------------------
# inversion / shuffle / stuffle identities
# ---------------------------------------------------------------------------

def _li(cfg, indices, args):
    return mpl.li(mpl.mpl_spec(indices, args, cfg), cfg)


def li11_inversion_residual(z1, z2, cfg: PrecisionConfig):
    """Depth-2 weight-2 inversion: difference of the two sides."""
    ctx = cfg.context
    lhs = _li(cfg, [1, 1], [z1, z2]) - _li(cfg, [1, 1], [1 / z1, 1 / z2])
    rhs = (-_li(cfg, [2], [z1]) + _li(cfg, [2], [z2]) - _li(cfg, [2], [z1 * z2])
           - _li(cfg, [1], [z1]) * ctx.log(-ctx.mpc(z2))
           + _li(cfg, [1], [z1]) * ctx.log(-ctx.mpc(z1) * ctx.mpc(z2))
           - _li(cfg, [1], [z2]) * ctx.log(-ctx.mpc(z1) * ctx.mpc(z2))
           + ctx.log(-ctx.mpc(z2)) ** 2 / 2
           - ctx.log(-ctx.mpc(z1) * ctx.mpc(z2)) * ctx.log(-ctx.mpc(z2))
           + ctx.pi ** 2 / 6)
    return abs(lhs - rhs)


def li12_inversion_residual(z1, z2, cfg: PrecisionConfig):
    """Depth-2 weight-3 inversion for indices (1, 2)."""
    ctx = cfg.context
    z1 = ctx.mpc(z1)
    z2 = ctx.mpc(z2)
    l2 = ctx.log(-z2)
    l12 = ctx.log(-z1 * z2)
    lhs = _li(cfg, [1, 2], [z1, z2]) + _li(cfg, [1, 2], [1 / z1, 1 / z2])
    rhs = (_li(cfg, [3], [z1]) + 2 * _li(cfg, [3], [z2]) - _li(cfg, [3], [z1 * z2])
           - _li(cfg, [1], [z1]) * l2 ** 2 / 2
           + _li(cfg, [1], [z1]) * l12 ** 2 / 2
           - _li(cfg, [2], [z1]) * l12
           - _li(cfg, [2], [z2]) * l12
           + l2 ** 3 / 3
           - l12 * l2 ** 2 / 2
           + ctx.pi ** 2 / 3 * l2
           - ctx.pi ** 2 / 6 * l12)
    return abs(lhs - rhs)


def li21_inversion_residual(z1, z2, cfg: PrecisionConfig):
    """Depth-2 weight-3 inversion for indices (2, 1)."""
    ctx = cfg.context
    z1 = ctx.mpc(z1)
    z2 = ctx.mpc(z2)
    l2 = ctx.log(-z2)
    l12 = ctx.log(-z1 * z2)
    lhs = _li(cfg, [2, 1], [z1, z2]) + _li(cfg, [2, 1], [1 / z1, 1 / z2])
    rhs = (-ctx.pi ** 2 / 6 * _li(cfg, [1], [z2])
           - 2 * _li(cfg, [3], [z1]) - _li(cfg, [3], [z2]) - _li(cfg, [3], [z1 * z2])
           - _li(cfg, [1], [z2]) * l12 ** 2 / 2
           - _li(cfg, [2], [z1]) * l2
           + _li(cfg, [2], [z1]) * l12
           + _li(cfg, [2], [z2]) * l12
           - l2 ** 3 / 6
           + l12 * l2 ** 2 / 2
           - l12 ** 2 * l2 / 2
           - ctx.pi ** 2 / 3 * l2
           + ctx.pi ** 2 / 6 * l12)
    return abs(lhs - rhs)


def distribution_residual(s: int, z, cfg: PrecisionConfig):
    """2^(1-s) Li_s(z^2) = Li_s(z) + Li_s(-z)."""
    ctx = cfg.context
    z = ctx.mpc(z)
    lhs = ctx.mpf(2) ** (1 - s) * _li(cfg, [s], [z * z])
    rhs = _li(cfg, [s], [z]) + _li(cfg, [s], [-z])
    return abs(lhs - rhs)


def zagier_residual(x, y, cfg: PrecisionConfig):
    """Reduction of the double logarithm to dilogarithms."""
    ctx = cfg.context
    x = ctx.mpc(x)
    y = ctx.mpc(y)
    lhs = _li(cfg, [1, 1], [x, y])
    rhs = (_li(cfg, [1], [x]) * _li(cfg, [1], [y])
           + _li(cfg, [2], [-x / (1 - x)])
           - _li(cfg, [2], [x * (y - 1) / (1 - x)]))
    return abs(lhs - rhs)


def _sample_unit(rng: random.Random, ctx):
    return ctx.expjpi(ctx.mpf(rng.randint(1, 15)) / 8)


def parity_shuffle_stuffle_suite(cfg: PrecisionConfig, seed: int = 0,
                                 table: omega.OmegaTable | None = None) -> SuiteReport:
    """Sampled inversion, shuffle, stuffle, distribution and reduction checks."""
    tol = _tol(cfg)
    report = SuiteReport("parity", cfg.target_digits, mpmath.nstr(tol, 2))
    ctx = cfg.context
    rng = random.Random(seed)
    zero = ctx.mpf(0)
    eta = ctx.expjpi(ctx.mpf(1) / 4)

    report.add("01-li11-inversion", zero,
               li11_inversion_residual(ctx.mpc(-1), eta ** 3, cfg), cfg, tol)
    report.add("02-li12-inversion", zero,
               li12_inversion_residual(ctx.mpc(-1), eta ** 3, cfg), cfg, tol)
    report.add("03-li21-inversion", zero,
               li21_inversion_residual(ctx.mpc(0, 1), eta, cfg), cfg, tol)

    if table is None:
        table = omega.build_table("1", "pi/4", 4, cfg)
    report.add("04-shuffle-single", table.value((1,)) * table.value((2,)),
               table.value((1, 2)) + table.value((2, 1)), cfg, tol)
    for k in range(3):
        w1 = tuple(rng.choice((1, 2, 3)) for _ in range(rng.randint(1, 2)))
        w2 = tuple(rng.choice((1, 2, 3)) for _ in range(rng.randint(1, 2)))
        combo = shuffle(w1, w2)
        rhs = ctx.mpc(0)
        for word, mult in combo.items():
            rhs += mult * table.value(word)
        report.add(f"05-shuffle-sampled-{k}", table.value(w1) * table.value(w2),
                   rhs, cfg, tol)

    report.add("06-stuffle-log2", _li(cfg, [1], [-1]) ** 2,
               2 * _li(cfg, [1, 1], [-1, -1]) + _li(cfg, [2], [1]), cfg, tol)
    for k in range(2):
        w1 = tuple(letter(rng.randint(1, 3),
                          ctx.mpf(rng.randint(2, 6)) / 10 * _sample_unit(rng, ctx))
                   for _ in range(rng.randint(1, 2)))
        w2 = (letter(rng.randint(1, 3),
                     ctx.mpf(rng.randint(2, 6)) / 10 * _sample_unit(rng, ctx)),)
        lhs = _stuffle_lhs(w1, cfg) * _stuffle_lhs(w2, cfg)
        rhs = ctx.mpc(0)
        for word, mult in stuffle(w1, w2).items():
            rhs += mult * _stuffle_lhs(word, cfg)
        report.add(f"07-stuffle-sampled-{k}", lhs, rhs, cfg, tol)

    for s in (2, 3):
        z = ctx.mpf(rng.randint(3, 9)) / 10 * _sample_unit(rng, ctx)
        report.add(f"08-distribution-s{s}", zero,
                   distribution_residual(s, z, cfg), cfg, tol)
    x = ctx.mpf(3) / 10 * _sample_unit(rng, ctx)
    y = ctx.mpf(7) / 10 * _sample_unit(rng, ctx)
    report.add("09-zagier-reduction", zero, zagier_residual(x, y, cfg), cfg, tol)
    return report.finalize()


def _stuffle_lhs(word, cfg: PrecisionConfig):
    return mpl.li(mpl.MplSpec(tuple(l.n for l in word),
                              tuple(l.z for l in word)), cfg)


# ---------------------------------------------------------------------------
# general-phi first-order integral identities
# ---------------------------------------------------------------------------

def integral_identity_residuals(phi: str, cfg: PrecisionConfig) -> dict:
    """The two mixed first-order integrals against their closed forms.

    The integrands are exactly the depth-2 recursion integrands, so the left
    sides are differences of depth-2 table values.
    """
    ctx = cfg.context
    I = ctx.mpc(0, 1)
    phiv = omega.parse_phi(phi, cfg)
    t1 = omega.build_table("1", phi, 2, cfg)
    ti = omega.build_table("i", phi, 2, cfg)
    lhs_1 = t1.value((2, 1)) - t1.value((1, 2))
    rhs_1 = (4 * ctx.pi * I * ctx.ln(ctx.sin(phiv))
             - I * (ctx.pi - 2 * phiv)
             * ctx.ln((1 - ctx.cos(phiv)) / (1 + ctx.cos(phiv))))
    lhs_i = ti.value((3, 1)) - ti.value((1, 3))
    rhs_i = (-4 * ctx.pi * I * ctx.ln(ctx.cos(phiv))
             + 2 * I * phiv * ctx.ln((1 - ctx.sin(phiv)) / (1 + ctx.sin(phiv))))
    return {"real-axis": abs(lhs_1 - rhs_1), "imaginary-axis": abs(lhs_i - rhs_i)}


def integral_identity_suite(cfg: PrecisionConfig,
                            phis=("0.3", "pi/4", "1.2")) -> SuiteReport:
    tol = _tol(cfg)
    report = SuiteReport("integral-identities", cfg.target_digits, mpmath.nstr(tol, 2))
    zero = cfg.context.mpf(0)
    for phi in phis:
        residuals = integral_identity_residuals(phi, cfg)
        for axis, resid in sorted(residuals.items()):
            report.add(f"phi={phi}-{axis}", zero, resid, cfg, tol)
    return report.finalize()


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def run_suites(names, cfg: PrecisionConfig, seed: int = 0,
               stretch: bool = False) -> list[SuiteReport]:
    reports = []
    for name in names:
        if name == "closed-forms":
            reports.append(closed_form_suite(cfg))
        elif name == "alpha3":
            reports.append(alpha3_suite(cfg))
        elif name == "parity":
            reports.append(parity_shuffle_stuffle_suite(cfg, seed))
        elif name == "conjectures":
            reports.append(conjecture_suite(cfg, include_alpha7=stretch))
        else:
            raise ValueError(f"unknown suite {name!r}; expected one of {SUITE_NAMES}")
    return reports


def reports_to_json(reports) -> str:
    return json.dumps([r.to_jsonable() for r in reports], indent=2)
