"""Finite Laurent polynomials in the loop parameter lambda.

Coefficients are real ``mpf`` or complex ``mpc`` numbers under an explicit
:class:`~lawsonarea.precision.PrecisionConfig`; a real input stays real.
Only exact zeros are dropped, so rounding dust stays visible to the checks
that decide what is zero.  ``axpy`` and ``add_product``, the in-place
kernels on {degree: coefficient} maps behind ``+``, ``-`` and ``*``, are
shared with the engine's frame sums.  Besides plain arithmetic the class
carries the two involutions used throughout,

    star(h)(lam) = conj(h(1/conj(lam)))   (degree k -> -k, conjugated)
    bar(h)(lam)  = conj(h(conj(lam)))     (coefficient-wise conjugation)

support projections onto positive / negative / constant / nonnegative
degrees, point evaluation, and exact division with remainder by lam^2 - 1
(the step that splits an order-n curvature constraint into a polynomial part
and a scalar remainder).
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Mapping

import mpmath

from .precision import PrecisionConfig

_PARTS = ("plus", "minus", "zero", "geq0")


def axpy(acc: dict, s, p: Mapping) -> None:
    """acc += s * p on {degree: coefficient} maps, in place."""
    for d, v in p.items():
        acc[d] = acc[d] + s * v if d in acc else s * v


def add_product(acc: dict, s, p: Mapping, q: Mapping) -> None:
    """acc += s * p * q on {degree: coefficient} maps, in place."""
    for d1, v1 in p.items():
        sv = s * v1
        for d2, v2 in q.items():
            d = d1 + d2
            acc[d] = acc[d] + sv * v2 if d in acc else sv * v2


class LaurentPoly:
    """Finitely supported map {integer degree -> mpf or mpc coefficient}.

    Which small coefficients are rounding dust is left to the caller, which
    knows the scale of the constraint that produced them.
    """

    __slots__ = ("cfg", "coeffs")

    def __init__(self, cfg: PrecisionConfig, coeffs: Mapping[int, object] | None = None):
        convert = cfg.context.convert
        self.cfg = cfg
        self.coeffs: dict[int, object] = {}
        if coeffs:
            for deg, val in coeffs.items():
                v = convert(val)
                if v:
                    self.coeffs[int(deg)] = v

    # -- construction helpers ------------------------------------------------

    @classmethod
    def zero(cls, cfg: PrecisionConfig) -> "LaurentPoly":
        return cls(cfg, {})

    @classmethod
    def one(cls, cfg: PrecisionConfig) -> "LaurentPoly":
        return cls(cfg, {0: 1})

    def copy(self) -> "LaurentPoly":
        return LaurentPoly(self.cfg, self.coeffs)

    # -- bookkeeping ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def min_degree(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no degree")
        return min(self.coeffs)

    def max_degree(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no degree")
        return max(self.coeffs)

    def coefficient(self, degree: int):
        return self.coeffs.get(degree, self.cfg.context.zero)

    def max_abs(self) -> mpmath.mpf:
        if not self.coeffs:
            return self.cfg.context.mpf(0)
        return max(abs(v) for v in self.coeffs.values())

    def _check_compatible(self, other: "LaurentPoly") -> None:
        if self.cfg.working_digits != other.cfg.working_digits:
            raise ValueError(
                f"precision mismatch: {self.cfg.working_digits} vs "
                f"{other.cfg.working_digits} working digits")

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_compatible(other)
        out = dict(self.coeffs)
        axpy(out, 1, other.coeffs)
        return LaurentPoly(self.cfg, out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_compatible(other)
        out = dict(self.coeffs)
        axpy(out, -1, other.coeffs)
        return LaurentPoly(self.cfg, out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.cfg, {d: -v for d, v in self.coeffs.items()})

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_compatible(other)
        out: dict = {}
        add_product(out, 1, self.coeffs, other.coeffs)
        return LaurentPoly(self.cfg, out)

    def scale(self, s) -> "LaurentPoly":
        sv = self.cfg.context.convert(s)
        return LaurentPoly(self.cfg, {d: v * sv for d, v in self.coeffs.items()})

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by lambda^k."""
        return LaurentPoly(self.cfg, {d + k: v for d, v in self.coeffs.items()})

    # -- involutions and projections ------------------------------------------

    def star(self) -> "LaurentPoly":
        ctx = self.cfg.context
        return LaurentPoly(self.cfg, {-d: ctx.conj(v) for d, v in self.coeffs.items()})

    def bar(self) -> "LaurentPoly":
        ctx = self.cfg.context
        return LaurentPoly(self.cfg, {d: ctx.conj(v) for d, v in self.coeffs.items()})

    def project(self, part: str) -> "LaurentPoly":
        if part == "plus":
            keep = lambda d: d > 0
        elif part == "minus":
            keep = lambda d: d < 0
        elif part == "zero":
            keep = lambda d: d == 0
        elif part == "geq0":
            keep = lambda d: d >= 0
        else:
            raise ValueError(f"unknown part {part!r}; expected one of {_PARTS}")
        return LaurentPoly(self.cfg, {d: v for d, v in self.coeffs.items() if keep(d)})

    # -- evaluation and division ----------------------------------------------

    def eval(self, lam0) -> mpmath.mpc:
        ctx = self.cfg.context
        z = ctx.mpc(lam0)
        if not self.coeffs:
            return ctx.mpc(0)
        if z == 0:
            if self.min_degree() < 0:
                raise ZeroDivisionError("evaluation at 0 with negative-degree support")
            return self.coefficient(0)
        total = ctx.mpc(0)
        for deg, val in self.coeffs.items():
            total += val * z ** deg
        return total

    def divrem_l2m1(self) -> tuple["LaurentPoly", "LaurentPoly"]:
        """Divide a plain polynomial by lambda^2 - 1.

        Returns (quotient, remainder) with deg(remainder) <= 1 and
        self = quotient * (lambda^2 - 1) + remainder exactly (to rounding).
        """
        if self.coeffs and self.min_degree() < 0:
            raise ValueError("divrem_l2m1 requires a polynomial without negative degrees")
        rem = dict(self.coeffs)
        quot: dict = {}
        # every degree from the top down, including gaps that the folding
        # of the degree above fills
        for deg in range(max(rem, default=0), 1, -1):
            c = rem.pop(deg, None)
            if c is None:
                continue
            quot[deg - 2] = c
            rem[deg - 2] = rem[deg - 2] + c if deg - 2 in rem else c
        return LaurentPoly(self.cfg, quot), LaurentPoly(self.cfg, rem)

    # -- reality helpers -------------------------------------------------------

    def imag_residual(self) -> mpmath.mpf:
        """Largest imaginary part over the support (coefficients should be real)."""
        ctx = self.cfg.context
        if not self.coeffs:
            return ctx.mpf(0)
        return max(abs(ctx.im(v)) for v in self.coeffs.values())

    def realified(self) -> "LaurentPoly":
        """Drop imaginary parts (use only after checking imag_residual)."""
        ctx = self.cfg.context
        return LaurentPoly(self.cfg, {d: ctx.re(v) for d, v in self.coeffs.items()})

    def residual_against(self, other: "LaurentPoly") -> mpmath.mpf:
        """Largest coefficient of self - other, the max-residual metric."""
        diff = self - other
        return diff.max_abs()

    # -- serialization ----------------------------------------------------------

    def to_jsonable(self, digits: int | None = None) -> list[dict]:
        """Coefficients as decimal strings of ``digits`` significant digits.

        The default, working digits + 15, round-trips exactly (``dumps``/``loads``).
        """
        ctx = self.cfg.context
        digits = digits or self.cfg.working_digits + 15
        return [{"deg": d,
                 "re": mpmath.nstr(ctx.re(v), digits),
                 "im": mpmath.nstr(ctx.im(v), digits)}
                for d, v in sorted(self.coeffs.items())]

    @classmethod
    def from_jsonable(cls, data: Iterable[Mapping], cfg: PrecisionConfig) -> "LaurentPoly":
        ctx = cfg.context
        return cls(cfg, {int(item["deg"]): ctx.mpc(ctx.mpf(item["re"]), ctx.mpf(item["im"]))
                         for item in data})

    def dumps(self) -> str:
        return json.dumps(self.to_jsonable())

    @classmethod
    def loads(cls, text: str, cfg: PrecisionConfig) -> "LaurentPoly":
        return cls.from_jsonable(json.loads(text), cfg)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "LaurentPoly(0)"
        ctx = self.cfg.context
        terms = []
        for d in sorted(self.coeffs):
            terms.append(f"({mpmath.nstr(ctx.mpc(self.coeffs[d]), 8)})*lam^{d}")
        return "LaurentPoly(" + " + ".join(terms) + ")"


class LaurentMatrix2:
    """2x2 matrix of Laurent polynomials sharing one precision."""

    __slots__ = ("cfg", "entries")

    def __init__(self, cfg: PrecisionConfig, entries=None):
        self.cfg = cfg
        if entries is None:
            z = LaurentPoly.zero(cfg)
            entries = [[z.copy(), z.copy()], [z.copy(), z.copy()]]
        self.entries = entries
        for row in self.entries:
            for e in row:
                if e.cfg.working_digits != cfg.working_digits:
                    raise ValueError("matrix entries must share the config precision")

    @classmethod
    def identity(cls, cfg: PrecisionConfig) -> "LaurentMatrix2":
        one = LaurentPoly.one(cfg)
        zero = LaurentPoly.zero(cfg)
        return cls(cfg, [[one, zero.copy()], [zero.copy(), one.copy()]])

    def __getitem__(self, idx: tuple[int, int]) -> LaurentPoly:
        return self.entries[idx[0]][idx[1]]

    def __add__(self, other: "LaurentMatrix2") -> "LaurentMatrix2":
        return LaurentMatrix2(self.cfg, [
            [self.entries[i][j] + other.entries[i][j] for j in range(2)]
            for i in range(2)])

    def add_scaled_constant(self, poly: LaurentPoly, scalar, mat2x2) -> "LaurentMatrix2":
        """self + poly * scalar * mat2x2, with mat2x2 a constant 2x2 of numbers."""
        ctx = self.cfg.context
        out = [[None, None], [None, None]]
        for i in range(2):
            for j in range(2):
                m = mat2x2[i][j]
                if m == 0:
                    out[i][j] = self.entries[i][j]
                else:
                    out[i][j] = self.entries[i][j] + poly.scale(ctx.mpc(scalar) * ctx.mpc(m))
        return LaurentMatrix2(self.cfg, out)

    def max_abs_degree(self) -> int:
        degs = []
        for row in self.entries:
            for e in row:
                if not e.is_zero:
                    degs += [abs(e.min_degree()), abs(e.max_degree())]
        return max(degs) if degs else 0

    def __repr__(self) -> str:
        return (f"LaurentMatrix2([[{self.entries[0][0]!r}, {self.entries[0][1]!r}], "
                f"[{self.entries[1][0]!r}, {self.entries[1][1]!r}]])")
