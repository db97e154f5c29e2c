"""Arbitrary-precision arithmetic contract shared by every module.

All numerical work in this package runs on mpmath values created from an
explicit :class:`PrecisionConfig`.  A config owns a private mpmath context
whose precision equals ``target_digits + guard_digits``; the global
``mpmath.mp`` context is never touched, so two configs can coexist and a
computation can be replayed at a second precision for a self-check.

Phi and the poles.  Every word-integral route reads phi and the four
punctures e^(+-i phi), -e^(+-i phi), and each runs a fixed-point kernel
finer than the working precision: the transport at working bits +
``omega._EXTRA_BITS`` = 24, the quadrature at working bits + 4 +
ceil(log2(2 n^3 + 24/delta^2 + 28)), at most 31 under ``omega._MAX_NODES``
= 400 (2 n^3 is 2^26.9 there) while delta = min(sin phi, cos phi) >= 0.002
and at most 32 while delta >= 4.2e-4 (``omega._quadrature_size`` refuses a
phi that needs more), and the polylogarithms at working bits +
``mpl._SPLIT_EXTRA_BITS`` = 32.  A pole rounded to the working precision
is off by up to half a unit there, which the forms amplify: at 30 target
digits the transport's depth-3 word tables were 8.0 / 23.2 / 24.9 units of
the working precision off at (1, pi/6), (i, 1.2) and (1, 0.3), the
quadrature's first level 3.3 units at (i, 1.2), and at 40 digits
Li_{2,1}(0.35, 0.995) 2^6.2 units, each far above its kernel's own
rounding.  So ``omega.parse_phi`` and ``omega.punctures`` carry phi and the
punctures at ``PrecisionConfig.pole_bits`` = working bits +
``POLE_EXTRA_BITS``, 32, the finest of the three scales, and each route
forms its own pole quantities from them at its own scale 2^-P and rounds
each once there.  Arithmetic on these values outside such a ``workprec``
block rounds them to the working precision, as for any value of the
context.  Measured with the kernels unchanged: the depth-3 tables are 3.5
/ 3.6 / 7.3 units off, the half unit in the last place of their final
rounding; the first level is within 2.4e-5 units; the Li_{2,1} value is
within 2^-18.8 units before its final rounding; and on the 12 words of
length <= 2 at 30 digits the three routes round every nonzero part to the
same binary value at pi/6, pi/5, pi/4, 3 pi/10 and pi/3, where some word
at every one of those angles was one unit in the last place apart.
"""

from __future__ import annotations

import functools

import mpmath
from mpmath.libmp import dps_to_prec, to_fixed

# phi and the punctures: the finest kernel scale, derived in the module docstring
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
    def context(self) -> mpmath.ctx_mp.MPContext:
        """The mpmath context all values of this config live in (cached)."""
        return _context(self.working_digits)

    @property
    def pole_bits(self) -> int:
        """Bits of phi and the punctures: working bits + ``POLE_EXTRA_BITS``.

        Taken from the working digits, not from ``context.prec``, which a
        ``workprec`` block raises.
        """
        return dps_to_prec(self.working_digits) + POLE_EXTRA_BITS

    def eps(self, digits_lost: int = 0) -> mpmath.mpf:
        """10^-(working_digits - digits_lost), the usual residual yardstick."""
        return self.context.mpf(10) ** (-(self.working_digits - digits_lost))


def guard_digits_for_order(order: int) -> int:
    """Guard digits for an expansion to ``order``: 10 through order 8, then two more per order.

    The order recursion uses up more digits at each order, and its residual
    checks (``engine.EngineError``) compare against multiples of eps of the
    working precision, so a high order needs more guard digits, not looser
    checks.  Measured at pi/4: order 8 passes every check with 10 guard
    digits at 35, 40 and 45 target digits.  Order 9 fails the
    (lambda^2 - 1) division check with 10 (constant remainder 2.33e-42 at
    40 digits); with 11 it passes at 40 and 45 target digits but fails at
    35 (remainder 1.66e-38), and with 12 it passes at all three.  Above
    order 9 the rule extrapolates; the worst residual grew by about 1.2
    digits per order through order 9.
    """
    return 10 + 2 * max(0, order - 8)


@functools.lru_cache(maxsize=None)
def _context(decimal_digits: int) -> mpmath.ctx_mp.MPContext:
    ctx = mpmath.mp.clone()
    ctx.dps = decimal_digits
    return ctx


def to_fixed_pair(z, bits: int) -> tuple[int, int]:
    """Real and imaginary part of an ``mpf`` or ``mpc`` as integers scaled by 2^bits.

    Each part is rounded down; an ``mpf`` has imaginary part 0.  The fixed-point
    kernels convert their inputs with this and their outputs with
    ``from_fixed_pair``.
    """
    return to_fixed(z.real._mpf_, bits), to_fixed(z.imag._mpf_, bits)


def from_fixed_pair(re: int, im: int, scale: int, ctx) -> mpmath.mpc:
    """The ``mpc`` (re + i im) 2^-scale of context ``ctx``, each part rounded once."""
    return ctx.mpc(ctx.mpf((re, -scale)), ctx.mpf((im, -scale)))


_KNOWN_CONSTANTS = ("pi", "log2", "euler_log")


def constant(name: str, cfg: PrecisionConfig, x=None):
    """Named mathematical constant at working precision.

    ``euler_log`` takes the positive argument ``x`` and returns log(x).
    """
    ctx = cfg.context
    if name == "pi":
        return +ctx.pi
    if name == "log2":
        return ctx.ln(ctx.mpf(2))
    if name == "euler_log":
        if x is None:
            raise ValueError("euler_log requires an argument")
        xv = ctx.mpf(x)
        if xv <= 0:
            raise ValueError(f"euler_log argument must be positive, got {x}")
        return ctx.ln(xv)
    raise ValueError(f"unknown constant {name!r}; expected one of {_KNOWN_CONSTANTS}")


def zeta(n: int, cfg: PrecisionConfig):
    """Riemann zeta at an integer n >= 2, at working precision."""
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"zeta requires an integer n >= 2, got {n!r}")
    return cfg.context.zeta(n)


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
