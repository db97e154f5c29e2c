from fractions import Fraction
from math import comb

import mpmath
import pytest

from lawsonarea.precision import (PrecisionConfig, agreement_digits, constant,
                                 guard_digits_for_order, zeta)

# 55 digits from the exact-rational alternating central-binomial series
# (5/2) * sum (-1)^(k-1) / (k^3 C(2k,k)); tail below 10^-55 after 90 terms.
ZETA3_FROZEN = "1.2020569031595942853997381615114499907649862923404988817"


def apery_zeta3_oracle(digits: int) -> str:
    total = Fraction(0)
    for k in range(1, 2 * digits):
        total += Fraction((-1) ** (k - 1), k ** 3 * comb(2 * k, k))
    total *= Fraction(5, 2)
    scaled = total * 10 ** digits
    s = str(scaled.numerator // scaled.denominator)
    return f"{s[0]}.{s[1:]}"


def test_zeta3_oracle_matches_frozen_digits():
    assert apery_zeta3_oracle(55)[:50] == ZETA3_FROZEN[:50]


def test_zeta3_matches_oracle():
    cfg = PrecisionConfig(45)
    v = zeta(3, cfg)
    assert abs(v - cfg.context.mpf(ZETA3_FROZEN)) < cfg.eps(2)


def test_constants():
    cfg = PrecisionConfig(12)
    ctx = cfg.context
    assert mpmath.nstr(constant("pi", cfg), 12) == "3.14159265359"
    assert abs(constant("log2", cfg) - ctx.ln(2)) == 0
    assert constant("euler_log", cfg, 1) == 0
    assert abs(constant("euler_log", cfg, 2) - constant("log2", cfg)) < cfg.eps(2)


def test_constant_errors():
    cfg = PrecisionConfig(20)
    with pytest.raises(ValueError):
        constant("tau", cfg)
    with pytest.raises(ValueError):
        constant("euler_log", cfg, -3)
    with pytest.raises(ValueError):
        constant("euler_log", cfg)


def test_zeta_euler_identities():
    cfg = PrecisionConfig(40)
    ctx = cfg.context
    pi = ctx.pi
    assert abs(zeta(2, cfg) - pi ** 2 / 6) < cfg.eps(2)
    assert abs(zeta(4, cfg) - pi ** 4 / 90) < cfg.eps(2)
    assert abs(zeta(6, cfg) - pi ** 6 / 945) < cfg.eps(2)


def test_zeta_domain():
    cfg = PrecisionConfig(20)
    with pytest.raises(ValueError):
        zeta(1, cfg)
    with pytest.raises(ValueError):
        zeta(2.5, cfg)


def test_config_validation():
    with pytest.raises(ValueError, match="target_digits must be >= 10, got 9"):
        PrecisionConfig(9)
    with pytest.raises(ValueError, match="guard_digits must be >= 10, got 5"):
        PrecisionConfig(40, guard_digits=5)
    assert PrecisionConfig(40).working_digits == 50
    assert PrecisionConfig(10, 10).working_digits == 20


def test_config_is_an_immutable_value():
    """Equal configs compare and hash alike (they key ``li`` and the table
    memos), and no field can be changed after construction."""
    cfg = PrecisionConfig()
    assert (cfg.target_digits, cfg.guard_digits) == (40, 10)
    same = PrecisionConfig(target_digits=40, guard_digits=10)
    assert cfg == same and hash(cfg) == hash(same) and len({cfg, same}) == 1
    assert cfg != PrecisionConfig(40, 12) and cfg != PrecisionConfig(41)
    assert cfg != (40, 10)
    for change in (lambda: setattr(cfg, "target_digits", 50),
                   lambda: setattr(cfg, "extra", 1),
                   lambda: delattr(cfg, "guard_digits")):
        with pytest.raises(AttributeError):
            change()
    assert (cfg.target_digits, cfg.guard_digits) == (40, 10)
    assert repr(PrecisionConfig(30, 12)) == "PrecisionConfig(target_digits=30, guard_digits=12)"


@pytest.mark.parametrize("digits", [20, 40, 120])
def test_precision_doubling_selfcheck(digits):
    lo = PrecisionConfig(digits)
    hi = PrecisionConfig(digits + 10)
    for name in ("pi", "log2"):
        assert agreement_digits(constant(name, lo), constant(name, hi), lo) \
            >= digits - 2
    assert agreement_digits(zeta(3, lo), zeta(3, hi), lo) >= digits - 2


def test_contexts_are_independent():
    a = PrecisionConfig(20)
    b = PrecisionConfig(60)
    va = a.context.mpf(1) / 3
    vb = b.context.mpf(1) / 3
    assert agreement_digits(va, vb, a) >= 18
    assert mpmath.mp.dps == 15  # the global context is never touched


def test_guard_digits_rule():
    """10 guard digits through order 8 (cache names unchanged), 12 at order 9."""
    assert [guard_digits_for_order(n) for n in range(1, 10)] == [10] * 8 + [12]


def test_pole_bits_cover_every_kernel_scale():
    """phi and the punctures carry working bits + 32, no fewer than any
    route's kernel scale: the transport's 24 extra bits, the polylogarithms'
    32 and the quadrature's up to 31 at its 400-node cap with delta >= 0.002,
    and 32 wherever delta >= 4.2e-4."""
    from lawsonarea import mpl, omega
    from lawsonarea.precision import POLE_EXTRA_BITS
    assert omega._EXTRA_BITS <= POLE_EXTRA_BITS and mpl._SPLIT_EXTRA_BITS <= POLE_EXTRA_BITS
    for digits in (10, 30, 250):
        cfg = PrecisionConfig(digits)
        assert cfg.pole_bits == cfg.context.prec + POLE_EXTRA_BITS
        assert omega._quadrature_bits(omega._MAX_NODES, 0.002, cfg) == cfg.pole_bits - 1
        assert omega._quadrature_bits(omega._MAX_NODES, 4.2e-4, cfg) == cfg.pole_bits
        # a workprec block raises the context's precision, not the poles' scale
        with cfg.context.workprec(cfg.pole_bits):
            assert cfg.pole_bits == cfg.context.prec
