"""Arbitrary-precision arithmetic contract shared by every module.

All numerical work in this package runs on mpmath values created from an
explicit :class:`PrecisionConfig`.  A config owns a private mpmath context
whose precision equals ``target_digits + guard_digits``; the global
``mpmath.mp`` context is never touched, so two configs can coexist and a
computation can be replayed at a second precision for a self-check.
"""

from __future__ import annotations

import functools

import mpmath
from mpmath.libmp import to_fixed


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
