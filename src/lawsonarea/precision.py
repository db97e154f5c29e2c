"""Arbitrary-precision arithmetic contract shared by every module.

A :class:`PrecisionConfig` fixes the working precision, ``target_digits +
guard_digits``, and every scale derived from it: ``working_bits`` (mpmath's
``dps_to_prec`` of the working digits) and two finer fixed-point scales:
``fixed_bits`` = working bits + 24 for every series, table entry and
polynomial coefficient (the transport's budget in ``omega`` sets the 24,
and the recursion's in ``laurent`` needs 16 of them, so it reads a signed
table's integers as they are), and ``pole_bits`` = working bits + 32 for
phi, the punctures (below) and ``mpl``'s split kernel, whose budget needs
its P to be the poles'.  The order recursion and the transport run on
Python integers at these scales 2^P, from the parsing of phi to the printed
digits: pi comes from Machin's formula (``pi_fixed``), e^(i phi) from its
series (``cis_fixed``), the residual yardsticks eps(k) = 10^-(working
digits - k) enter as the integers 1/eps(k) (``eps_ratio``), and
``to_decimal`` prints a binary rational as mpmath's ``to_str`` would (R. P.
Brent and P. Zimmermann, *Modern Computer Arithmetic*, CUP 2010, 1.7 and
ch. 4), so ``expand`` at pi/4 imports no mpmath.  ``Dyadic`` holds an exact
binary rational that mpmath reads as an ``mpf``.  mpmath runs where it
computes: the oracles, the word tables, ``mpl``, ``verify`` and the order-1
closed forms at general phi.  For them a config owns a private mpmath
context at the working precision, built on first use (``context``); the
global ``mpmath.mp`` context is never touched, so two configs can coexist
and a computation can be replayed at a second precision for a self-check.

Phi and the poles.  Every word-integral route reads phi and the four
punctures e^(+-i phi), -e^(+-i phi), and each runs a fixed-point kernel
finer than the working precision: the transport at ``fixed_bits``, the
quadrature at working bits + 4 + ceil(log2(2 n^3 + 24/delta^2 + 28)), at
most 31 under ``oracle._MAX_NODES`` = 400 (2 n^3 is 2^26.9 there) while
delta >= 0.002 and at most 32 while delta >= 4.2e-4 (delta is 1 on the
path away from phi's near pole and min(sin phi, cos phi) on the other;
``oracle._quadrature_size`` refuses a phi that needs more), and the
polylogarithms at ``pole_bits``.  A pole rounded to the working precision
is off by up to half a unit there, which the forms amplify: at 30 target
digits the transport's depth-3 word tables were 8.0 / 23.2 / 24.9 units of
the working precision off at (1, pi/6), (i, 1.2) and (1, 0.3), the
quadrature's first level 3.3 units at (i, 1.2), and at 40 digits
Li_{2,1}(0.35, 0.995) 2^6.2 units, each far above its kernel's own
rounding.  So ``omega.parse_phi`` rounds phi once to
``PrecisionConfig.pole_bits`` = working bits + ``POLE_EXTRA_BITS``, 32,
significant bits, the finest of the three scales, and
``omega.punctures_fixed`` gives the punctures as integer pairs at that
scale, one source for every route: each forms its own pole quantities from
them at its own scale 2^-P and rounds each once there.  Measured with the
kernels unchanged: the depth-3 tables are 3.5 / 3.6 / 7.3 units off, the
half unit in the last place of their final rounding; the first level is
within 2.4e-5 units; the Li_{2,1} value is within 2^-18.8 units before its
final rounding; and on the 12 words of length <= 2 at 30 digits the three
routes round every nonzero part to the same binary value at pi/6, pi/5,
pi/4, 3 pi/10 and pi/3, where some word at every one of those angles was
one unit in the last place apart.
"""

from __future__ import annotations

import functools
import math

# the two scales of the module docstring: series, tables and polynomials; phi, poles and mpl
FIXED_EXTRA_BITS = 24
POLE_EXTRA_BITS = 32


class FrozenValue:
    """An immutable value over its ``__slots__``: equal fields compare and hash
    alike, so a subclass can key a memo.  ``__init__`` sets the fields with
    ``object.__setattr__``; assigning or deleting one afterwards raises."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class PrecisionConfig(FrozenValue):
    """Requested output precision plus guard digits for intermediate work.

    ``target_digits`` is what the caller may rely on; arithmetic happens at
    ``working_digits = target_digits + guard_digits``.  Configs key the ``li``
    memo and the per-config ``lru_cache`` tables.
    """

    __slots__ = ("target_digits", "guard_digits")

    def __init__(self, target_digits: int = 40, guard_digits: int = 10) -> None:
        if target_digits < 10:
            raise ValueError(f"target_digits must be >= 10, got {target_digits}")
        if guard_digits < 10:
            raise ValueError(f"guard_digits must be >= 10, got {guard_digits}")
        object.__setattr__(self, "target_digits", target_digits)
        object.__setattr__(self, "guard_digits", guard_digits)

    @property
    def working_digits(self) -> int:
        return self.target_digits + self.guard_digits

    @property
    def working_bits(self) -> int:
        """Bits of the working precision: mpmath's ``dps_to_prec`` of the working digits.

        Every kernel takes its scale from here, not from ``context.prec``,
        which a caller's ``workprec`` block raises.
        """
        return max(1, int(round((self.working_digits + 1) * 3.3219280948873626)))

    @property
    def context(self):
        """The mpmath context of this config, at ``working_bits`` (built on first use)."""
        return _context(self.working_digits)

    @property
    def fixed_bits(self) -> int:
        """Bits of every series, table entry and polynomial coefficient."""
        return self.working_bits + FIXED_EXTRA_BITS

    @property
    def pole_bits(self) -> int:
        """Bits of phi and the punctures: working bits + ``POLE_EXTRA_BITS``."""
        return self.working_bits + POLE_EXTRA_BITS

    def eps(self, digits_lost: int = 0):
        """10^-(working_digits - digits_lost), the usual residual yardstick, as an ``mpf``."""
        return self.context.mpf(10) ** (-(self.working_digits - digits_lost))

    def eps_ratio(self, digits_lost: int = 0) -> int:
        """1/eps(digits_lost) = 10^(working_digits - digits_lost), the yardstick
        on the integers: a size exceeds scale * eps(digits_lost) exactly where
        size * eps_ratio(digits_lost) > scale, both integers at one scale."""
        return 10 ** (self.working_digits - digits_lost)


def guard_digits_for_order(order: int) -> int:
    """Guard digits for an expansion to ``order``: 10 through order 8, then two more per order.

    The order recursion uses up more digits at each order, and its residual
    checks (``engine.EngineError``) compare against multiples of eps of the
    working precision, so a high order needs more guard digits, not looser
    checks.  The rule was set when order 9 failed the (lambda^2 - 1)
    division check with 10 guard digits (a remainder of 2.33e-42 at degree 0
    at 40 digits) and, with 11, at 35 target digits.  Measured again once the
    recursion ran on one integer scale, order 9 at pi/4 passes every check
    with 10, 11 and 12 guard digits at 35, 40 and 45 target digits, and
    alpha_9 prints the same digits with all three.  The rule is kept until
    the guard digits are derived from the recursion's measured digit loss;
    above order 9 it extrapolates.
    """
    return 10 + 2 * max(0, order - 8)


@functools.lru_cache(maxsize=None)
def _context(decimal_digits: int):
    import mpmath
    ctx = mpmath.mp.clone()
    ctx.dps = decimal_digits
    return ctx


# ---------------------------------------------------------------------------
# integers at 2^P
# ---------------------------------------------------------------------------

def rescale(x: int, bits: int, new_bits: int) -> int:
    """The integer x at scale 2^bits moved to scale 2^new_bits, rounded to
    nearest (ties upward) when that drops bits."""
    if new_bits >= bits:
        return x << (new_bits - bits)
    drop = bits - new_bits
    return (x + (1 << (drop - 1))) >> drop


@functools.lru_cache(maxsize=None)
def pi_fixed(bits: int) -> int:
    """pi at scale 2^bits, within one unit: Machin's formula
    pi = 16 atan(1/5) - 4 atan(1/239) on integers with guard bits.

    Each term of the two arctangent series is floored once, at most two units
    of the guard scale, and the series take fewer than (bits + guard)/4.6
    terms, so the sum is within 7 (bits + guard) guard units, far below the
    2^guard of one unit at 2^bits.
    """
    guard = bits.bit_length() + 10
    one = 1 << (bits + guard)

    def atan_inv(x: int) -> int:     # atan(1/x) at 2^(bits + guard)
        power, total, k, sign = one // x, 0, 1, 1
        while power:
            total += sign * (power // k)
            power //= x * x
            k, sign = k + 2, -sign
        return total

    return rescale(16 * atan_inv(5) - 4 * atan_inv(239), bits + guard, bits)


def cis_fixed(x: "Dyadic", bits: int) -> tuple[int, int]:
    """cos x and sin x at scale 2^bits, each within one unit, for 0 <= x <= 2.

    The terms x^k / k! of e^(ix) are formed one from the next on integers
    with guard bits, each floored once; the damping x/k keeps their errors
    within a few guard units, and each sum is rounded once.
    """
    guard = bits.bit_length() + 10
    scale = bits + guard
    t = x.to_fixed(scale)
    term = re = 1 << scale
    im = k = 0
    while term:
        k += 1
        term = term * t // (k << scale)
        if k % 2:
            im += term if k % 4 == 1 else -term
        else:
            re += term if k % 4 == 0 else -term
    return rescale(re, scale, bits), rescale(im, scale, bits)


class Dyadic(FrozenValue):
    """The exact binary rational man * 2^exp.

    Holds what the integer kernels report as a number (a residual, a
    parsed phi): ``format`` prints it as ``mpmath.nstr`` would, without
    mpmath, and ``_mpf_`` hands it to mpmath exactly, so an ``mpf`` or an
    mpmath function takes it as an argument and an oracle or a test can mix
    the two.  It equals ``Dyadic`` and ``int`` values of the same value, is
    multiplied exactly by an ``int``, and leaves every other operation to
    mpmath.  The mantissa is odd or 0, so equal values have equal fields.
    """

    __slots__ = ("man", "exp")

    def __init__(self, man: int, exp: int = 0) -> None:
        if man:
            zeros = (man & -man).bit_length() - 1
            man, exp = man >> zeros, exp + zeros
        else:
            exp = 0
        object.__setattr__(self, "man", man)
        object.__setattr__(self, "exp", exp)

    @classmethod
    def ratio(cls, num: int, den: int, prec: int) -> "Dyadic":
        """num/den, both positive, rounded to ``prec`` significant bits, ties to even."""
        shift = prec + 2 - (num.bit_length() - den.bit_length())
        q, r = divmod(num << shift, den) if shift >= 0 else divmod(num, den << -shift)
        return cls._round(q, bool(r), prec, -shift)

    @classmethod
    def _round(cls, q: int, sticky: bool, prec: int, exp: int) -> "Dyadic":
        """q 2^exp (q > 0, plus a nonzero remainder below one unit when
        ``sticky``) rounded to ``prec`` significant bits, ties to even, as
        mpmath rounds."""
        drop = q.bit_length() - prec
        if drop <= 0:
            return cls(q, exp)
        man, rest, half = q >> drop, q & ((1 << drop) - 1), 1 << (drop - 1)
        if rest > half or (rest == half and (sticky or man & 1)):
            man += 1
        return cls(man, exp + drop)

    def rounded(self, prec: int) -> "Dyadic":
        """This value rounded to ``prec`` significant bits, ties to even."""
        if not self.man:
            return self
        value = Dyadic._round(abs(self.man), False, prec, self.exp)
        return -value if self.man < 0 else value

    def to_fixed(self, bits: int) -> int:
        """floor(self * 2^bits)."""
        shift = self.exp + bits
        return self.man << shift if shift >= 0 else self.man >> -shift

    def format(self, digits: int, strip_zeros: bool = True) -> str:
        """``mpmath.nstr(self, digits, strip_zeros=strip_zeros)``."""
        return to_decimal(self.man, self.exp, digits, strip_zeros)

    @property
    def _mpf_(self):
        from mpmath.libmp import from_man_exp
        return from_man_exp(self.man, self.exp)

    def __float__(self) -> float:
        drop = max(0, abs(self.man).bit_length() - 64)
        return math.ldexp(self.man >> drop, self.exp + drop)

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.man, self.exp)

    def __mul__(self, other):
        return Dyadic(self.man * other, self.exp) if isinstance(other, int) else NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            other = Dyadic(other)
        if not isinstance(other, Dyadic):
            return NotImplemented
        return (self.man, self.exp) == (other.man, other.exp)

    def __hash__(self) -> int:
        return hash(self.man << self.exp) if self.exp >= 0 else hash((self.man, self.exp))


_LOG2_10 = math.log(10, 2)


def to_decimal(man: int, exp: int, digits: int, strip_zeros: bool = True) -> str:
    """man * 2^exp as ``mpmath.libmp.to_str`` prints it with ``digits``
    significant digits and its default fixed-point range.

    The same steps on the same integers: the value is floored to about
    digits + 3 decimal digits (through a binary fixed-point number of the
    same size as mpmath's), the digit string rounded half up at ``digits``,
    and printed in fixed point when its leading digit's position lies
    strictly between min(-(digits // 3), -5) and ``digits``.
    """
    if digits < 1:
        raise ValueError(f"digits must be >= 1, got {digits}")
    if not man:
        return "0.0"
    sign = "-" if man < 0 else ""
    man = abs(man)
    top = exp + man.bit_length()
    if abs(top) > 3500:      # mpmath scales by a power of ten first
        from mpmath.libmp import from_man_exp, to_str
        return to_str(from_man_exp(int(sign + "1") * man, exp), digits,
                      strip_zeros=strip_zeros)
    fixprec = max(int((digits + 3) * _LOG2_10) + 10 - top, 0)
    fixdps = int(fixprec / _LOG2_10 + 0.5)
    shift = exp + fixprec
    text = str((man << shift if shift >= 0 else man >> -shift) * 10 ** fixdps >> fixprec)
    exponent = len(text) - fixdps - 1
    if len(text) > digits and text[digits] in "56789":
        text = str(int(text[:digits]) + 1)
        if len(text) > digits:       # 9...9 carried into 10...0
            text = text[:digits]
            exponent += 1
    else:
        text = text[:digits]
    split = 1
    if min(-(digits // 3), -5) < exponent < digits:
        if exponent < 0:
            text = "0" * -exponent + text
        else:
            split = exponent + 1
            text += "0" * (split - digits)
        exponent = 0
    text = text[:split] + "." + text[split:]
    if strip_zeros:
        text = text.rstrip("0")
        if text[-1] == ".":
            text += "0"
    if exponent == 0:
        return sign + text
    return sign + text + ("e+" if exponent > 0 else "e") + str(exponent)


# ---------------------------------------------------------------------------
# mpmath at the edges
# ---------------------------------------------------------------------------

def to_fixed_pair(z, bits: int) -> tuple[int, int]:
    """Real and imaginary part of an ``mpf`` or ``mpc`` as integers scaled by 2^bits.

    Each part is rounded down; an ``mpf`` has imaginary part 0.
    """
    from mpmath.libmp import to_fixed
    return to_fixed(z.real._mpf_, bits), to_fixed(z.imag._mpf_, bits)


def from_fixed_pair(re: int, im: int, scale: int, ctx):
    """The ``mpc`` (re + i im) 2^-scale of context ``ctx``, each part rounded once."""
    return ctx.mpc(ctx.mpf((re, -scale)), ctx.mpf((im, -scale)))


def agreement_digits(x, y, cfg: PrecisionConfig) -> float:
    """Number of decimal digits to which x and y agree (relative to max(1,|x|)).

    Used by the precision-doubling self-checks; returns working_digits when
    the difference underflows entirely.
    """
    ctx = cfg.context
    diff = abs(ctx.mpc(x) - ctx.mpc(y))
    if diff == 0:
        return float(cfg.working_digits)
    scale = max(ctx.mpf(1), abs(ctx.mpc(x)))
    return float(-ctx.log10(diff / scale))
