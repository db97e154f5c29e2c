"""Finite real Laurent polynomials in the loop parameter lambda, on fixed-point integers.

A polynomial keeps its real coefficients as integers at scale 2^P, P =
``cfg.fixed_bits`` (``precision``), in one {degree: int} map, ``re``.
Every polynomial of the order recursion is real: a, b, c and r are, and so
is every frame derivative at z = 1 (``engine``'s docstring).
Only exact zeros are dropped, so rounding dust stays visible to the checks
that decide what is zero.  The order recursion builds every polynomial from
integers and reads its checks off integers (``max_abs_sq``, ``at_i``), and
``to_jsonable`` prints the integers with ``precision.to_decimal``, so none
of it touches mpmath.  For the tests and the first-order closed forms the
constructor also converts real ``mpf`` or Python numbers, and
``coefficient`` and ``max_abs`` render the integers exactly as mpmath
values (``to_mpf``).  ``axpy``, ``add_product`` and ``round_map`` are the
kernels on {degree: int} maps behind ``+``, ``-`` and ``*``, shared with the
engine's frame sums.  Besides plain arithmetic the class carries the
involution used throughout,

    star(h)(lam) = conj(h(1/conj(lam)))   (degree k -> -k)

support projections onto positive / negative / constant / nonnegative
degrees, the value at lambda = i as a pair of integers (``at_i``), and
exact division with remainder by lambda^2 - 1 (the step that splits an
order-n curvature constraint into a polynomial part and a scalar
remainder).

Rounding budget, in units u = 2^-P per coefficient, P = working bits + 24.

* Converting a number rounds it down to a multiple of u, an error below one
  unit, and none for an ``mpf`` of the working precision with modulus at
  least 2^-25.
* Sums, differences, integer multiples, ``star``, ``shift``, ``project``,
  ``at_i`` and ``divrem_l2m1`` are exact.  So ``star`` is an exact
  involution that commutes with every sum.
* A product is summed exactly at u^2 and rounded to nearest once per
  coefficient, ties away from zero: at most u/2.  That rounding is odd
  (round(-x) = -round(x)), so ``star``, which only permutes the exact sums,
  is exactly multiplicative.
* ``scale`` by a number is a product with its conversion: an integer is
  exact, and any other s adds its own conversion error times the l1 norm
  |h| (the sum of the coefficients' moduli) to the u/2.
* Through a product the errors of the factors propagate as
  e_p |q| + |p| e_q, to first order.

The engine's frame sums (``engine.frame_lower``) are where the units pile
up.  The error e_c[s] of the s-th derivative of a multiset's product
c = c' + e_i is at most N/2 + sum_j C(s, j) (e_c'[j] |y_i^(s-j)| + |D^j_c'|
e_y[s-j]), N the number of coefficients of the result and e_y[k] that of
y_i^(k).  sigma_c's one real integer x_c is the signed table's own, at
this same scale (``omega``'s budget bounds its error), so its products with
the derivative D_c it multiplies, and the sums after them, are exact.  So
the frame sums carry at most B_n = sum_c (n+1)!/(n+1-l)! |sigma_c| e_c
units, the cross terms counted alike.  Evaluated along the recursion at 40
digits, with the term sqrt(2) |D_c| per multiset that a rescale of x_c once
added still counted, an upper bound, B_n grows with the sizes of the
summands, from 2^7.3 at order 1 to 2^40.2 at order 9 and 2^61.4 at order
13, but stays below 2^7.1 max(F_n, 1), F_n the largest coefficient of the
frame sums, at every order through 13.  7 extra bits keep that rounding
below one unit of the working precision at the scale max(F_n, 1), and the
other 17 of the 24 keep it below 2^-17 of that unit; the recursion would
need 7 + 9 = 16, and takes the transport's 24 (``precision``) so that it
reads the table's integers as they are.  The rest of an order
(``p_derivative``, the extraction and the area series) forms about 5n
products and 2n scales of polynomials of at most 2n + 3 coefficients, each
adding at most u/2 a coefficient to the errors it propagates, which the
same 17 bits cover.  Measured at 40 target digits against the same
recursion at 120 extra bits on the same table (its integers shifted up
exactly), every a, b, c coefficient and alpha_k was within 3.0e-5 units of
the working precision (at the scale max(|x|, 1)) through order 9 with 12
guard digits, 2.1e-4 through order 13 with 20 and 3.5e-4 through order 17
with 28; at 16 extra bits 1.4e-3, 0.030 and 0.062 units, and with none 634,
8.4e3 and 4.2e3.
"""

from __future__ import annotations

from collections.abc import Mapping

from .precision import PrecisionConfig, to_decimal, to_fixed_pair

_PARTS = ("plus", "minus", "zero", "geq0")


def to_mpf(v: int, cfg: PrecisionConfig):
    """The integer v at scale 2^P as an exact ``mpf`` of ``cfg``'s context."""
    from mpmath.libmp import from_man_exp
    return cfg.context.make_mpf(from_man_exp(v, -cfg.fixed_bits))


def axpy(acc: dict, s: int, p: Mapping) -> None:
    """acc += s * p on {degree: int} maps, in place."""
    for d, v in p.items():
        acc[d] = acc[d] + s * v if d in acc else s * v


def add_product(acc: dict, s: int, p: Mapping, q: Mapping) -> None:
    """acc += s * p * q on {degree: int} maps, in place."""
    for d1, v1 in p.items():
        sv = s * v1
        for d2, v2 in q.items():
            d = d1 + d2
            acc[d] = acc[d] + sv * v2 if d in acc else sv * v2


def round_map(acc: Mapping, bits: int) -> dict:
    """acc / 2^bits, each entry rounded to nearest, ties away from zero."""
    half = 1 << (bits - 1)
    return {d: (v + half) >> bits if v >= 0 else -((half - v) >> bits) for d, v in acc.items()}


class LaurentPoly:
    """Finitely supported map {integer degree -> real coefficient}, kept as
    the integer map ``re`` at scale 2^P.

    Which small coefficients are rounding dust is left to the caller, which
    knows the scale of the constraint that produced them.
    """

    __slots__ = ("cfg", "re")

    def __init__(self, cfg: PrecisionConfig, coeffs: Mapping[int, object] | None = None, *,
                 re: Mapping[int, int] | None = None):
        """From real numbers ``coeffs`` {degree: value}, each rounded down to a
        multiple of 2^-P, or from the integer map ``re`` at scale 2^P."""
        self.cfg = cfg
        self.re = {d: v for d, v in re.items() if v} if re else {}
        if coeffs:
            bits, convert = cfg.fixed_bits, cfg.context.convert
            for deg, val in coeffs.items():
                z = convert(val)
                if z.imag:
                    raise ValueError(f"coefficient {val} at degree {deg} is not real")
                v = to_fixed_pair(z, bits)[0]
                if v:
                    self.re[int(deg)] = v

    @classmethod
    def zero(cls, cfg: PrecisionConfig) -> "LaurentPoly":
        return cls(cfg)

    # -- bookkeeping ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.re

    def degrees(self):
        return self.re.keys()

    def min_degree(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no degree")
        return min(self.re)

    def max_degree(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no degree")
        return max(self.re)

    def coefficient(self, degree: int):
        """The coefficient as an exact ``mpf``."""
        return to_mpf(self.re.get(degree, 0), self.cfg)

    def max_abs_sq(self) -> int:
        """The square of the largest coefficient modulus, exact, at scale 2^2P."""
        return max((v * v for v in self.re.values()), default=0)

    def max_abs(self):
        """Largest coefficient modulus as an ``mpf``, exact."""
        return to_mpf(max(map(abs, self.re.values()), default=0), self.cfg)

    def _check_compatible(self, other: "LaurentPoly") -> None:
        if self.cfg.working_digits != other.cfg.working_digits:
            raise ValueError(
                f"precision mismatch: {self.cfg.working_digits} vs "
                f"{other.cfg.working_digits} working digits")

    # -- arithmetic ----------------------------------------------------------

    def _plus(self, other: "LaurentPoly", s: int) -> "LaurentPoly":
        self._check_compatible(other)
        re = dict(self.re)
        axpy(re, s, other.re)
        return LaurentPoly(self.cfg, re=re)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._plus(other, 1)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._plus(other, -1)

    def __neg__(self) -> "LaurentPoly":
        return self.scale(-1)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_compatible(other)
        re: dict = {}
        add_product(re, 1, self.re, other.re)
        return LaurentPoly(self.cfg, re=round_map(re, self.cfg.fixed_bits))

    def scale(self, s) -> "LaurentPoly":
        """Multiply by s: exact for an ``int``; a constant ``LaurentPoly`` (a
        number at 2^P) or any other real number, which is converted,
        multiplies with each coefficient rounded once."""
        if type(s) is int:
            return LaurentPoly(self.cfg, re={d: s * v for d, v in self.re.items()})
        return self * (s if isinstance(s, LaurentPoly) else LaurentPoly(self.cfg, {0: s}))

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by lambda^k."""
        return LaurentPoly(self.cfg, re={d + k: v for d, v in self.re.items()})

    # -- involution and projections -------------------------------------------

    def star(self) -> "LaurentPoly":
        return LaurentPoly(self.cfg, re={-d: v for d, v in self.re.items()})

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
        return LaurentPoly(self.cfg, re={d: v for d, v in self.re.items() if keep(d)})

    # -- evaluation and division ----------------------------------------------

    def at_i(self) -> tuple[int, int]:
        """h(i) as its real and imaginary parts, integers at 2^P, exact: i^d
        rotates each coefficient."""
        by_power = [0, 0, 0, 0]       # coefficient sums by the power of i they carry
        for d, v in self.re.items():
            by_power[d % 4] += v
        return by_power[0] - by_power[2], by_power[1] - by_power[3]

    def divrem_l2m1(self) -> tuple["LaurentPoly", "LaurentPoly"]:
        """Divide a plain polynomial by lambda^2 - 1, exactly.

        Returns (quotient, remainder) with deg(remainder) <= 1 and
        self = quotient * (lambda^2 - 1) + remainder.
        """
        if not self.is_zero and self.min_degree() < 0:
            raise ValueError("divrem_l2m1 requires a polynomial without negative degrees")
        rem = dict(self.re)
        quot = {}
        # every degree from the top down, including gaps that the folding of
        # the degree above fills
        for deg in range(max(rem, default=0), 1, -1):
            c = rem.pop(deg, 0)
            quot[deg - 2] = c
            rem[deg - 2] = rem.get(deg - 2, 0) + c
        return LaurentPoly(self.cfg, re=quot), LaurentPoly(self.cfg, re=rem)

    # -- serialization ----------------------------------------------------------

    def to_jsonable(self, digits: int | None = None) -> list[dict]:
        """Coefficients as decimal strings of ``digits`` significant digits,
        each rounded once from the exact integers (by default three digits
        more than the integer has), with the imaginary part "0.0"."""
        bits = self.cfg.fixed_bits
        return [{"deg": d, "re": to_decimal(v, -bits, digits or len(str(abs(v))) + 3),
                 "im": "0.0"} for d, v in sorted(self.re.items())]

    def __repr__(self) -> str:
        if self.is_zero:
            return "LaurentPoly(0)"
        terms = [f"({self.cfg.context.nstr(self.coefficient(d), 8)})*lam^{d}"
                 for d in sorted(self.re)]
        return "LaurentPoly(" + " + ".join(terms) + ")"


class LaurentMatrix2:
    """2x2 matrix of Laurent polynomials sharing one precision."""

    __slots__ = ("cfg", "entries")

    def __init__(self, cfg: PrecisionConfig, entries=None):
        self.cfg = cfg
        if entries is None:
            zero = LaurentPoly.zero(cfg)
            entries = [[zero, zero], [zero, zero]]
        self.entries = entries
        for row in self.entries:
            for e in row:
                if e.cfg.working_digits != cfg.working_digits:
                    raise ValueError("matrix entries must share the config precision")

    @classmethod
    def identity(cls, cfg: PrecisionConfig) -> "LaurentMatrix2":
        one, zero = LaurentPoly(cfg, re={0: 1 << cfg.fixed_bits}), LaurentPoly.zero(cfg)
        return cls(cfg, [[one, zero], [zero, one]])

    def __getitem__(self, idx: tuple[int, int]) -> LaurentPoly:
        return self.entries[idx[0]][idx[1]]

    def add_scaled_constant(self, poly: LaurentPoly, scalar, mat2x2) -> "LaurentMatrix2":
        """self + poly * scalar * mat2x2, with mat2x2 a constant 2x2 of integers.

        poly * scalar is rounded once, and the integers multiply it exactly.
        """
        term = poly.scale(scalar)
        return LaurentMatrix2(self.cfg, [
            [e + term.scale(m) if m else e for e, m in zip(row, mrow)]
            for row, mrow in zip(self.entries, mat2x2)])

    def max_abs_degree(self) -> int:
        return max((abs(d) for row in self.entries for e in row for d in e.re), default=0)

    def __repr__(self) -> str:
        return (f"LaurentMatrix2([[{self.entries[0][0]!r}, {self.entries[0][1]!r}], "
                f"[{self.entries[1][0]!r}, {self.entries[1][1]!r}]])")
