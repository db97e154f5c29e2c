from fractions import Fraction
from math import comb

import mpmath
import pytest

from lawsonarea.precision import (Dyadic, PrecisionConfig, agreement_digits, cis_fixed,
                                 guard_digits_for_order, pi_fixed, to_decimal)

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
    v = cfg.context.zeta(3)
    assert abs(v - cfg.context.mpf(ZETA3_FROZEN)) < cfg.eps(2)


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
    for value in (lambda ctx: ctx.pi, lambda ctx: ctx.ln(2), lambda ctx: ctx.zeta(3)):
        assert agreement_digits(value(lo.context), value(hi.context), lo) >= digits - 2


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
    route's kernel scale: the transport's 24 extra bits (``fixed_bits``),
    the polylogarithms' 32 (``pole_bits`` itself) and the quadrature's up
    to 31 at its 400-node cap with delta >= 0.002, and 32 wherever
    delta >= 4.2e-4."""
    from lawsonarea import omega
    from lawsonarea.precision import POLE_EXTRA_BITS
    for digits in (10, 30, 250):
        cfg = PrecisionConfig(digits)
        assert cfg.pole_bits == cfg.working_bits + POLE_EXTRA_BITS == cfg.context.prec + 32
        assert cfg.fixed_bits == cfg.working_bits + 24 < cfg.pole_bits
        assert omega._quadrature_bits(omega._MAX_NODES, 0.002, cfg) == cfg.pole_bits - 1
        assert omega._quadrature_bits(omega._MAX_NODES, 4.2e-4, cfg) == cfg.pole_bits
        # a workprec block raises the context's precision, not the poles' scale
        with cfg.context.workprec(cfg.pole_bits):
            assert cfg.pole_bits == cfg.context.prec


def test_working_bits_is_mpmaths_precision():
    """``working_bits`` restates mpmath's ``dps_to_prec`` of the working digits,
    and a ``workprec`` block does not move it."""
    from mpmath.libmp import dps_to_prec
    for digits in range(10, 400, 7):
        cfg = PrecisionConfig(digits)
        assert cfg.working_bits == dps_to_prec(cfg.working_digits) == cfg.context.prec
        with cfg.context.workprec(cfg.working_bits + 100):
            assert cfg.working_bits == dps_to_prec(cfg.working_digits)


def _to_decimal_cases():
    """(mantissa, exponent) pairs: random ones, carries 9...9 at and beyond
    the printed digits, zero, negative values, and leading digits on both
    sides of the fixed-point range."""
    import random
    rng = random.Random(24)
    cases = [(0, 0), (1, 0), (-1, 0), (5, -1), (-5, -1)]
    for _ in range(400):
        bits = rng.choice([1, 7, 60, 170, 240, 400])
        cases.append((rng.randrange(-(1 << bits), 1 << bits), rng.randint(-700, 200)))
    for k in (3, 35, 40, 41, 43, 60, 64):
        nines = 10 ** k - 1
        for e in (-250, -200, -130, -60, -19, -3, 0, 5, 40):
            cases += [(nines, e), (-nines, e), ((nines << 40) + (1 << 39), e - 40)]
    for power in range(-25, 70, 3):     # leading digit across min_fixed and max_fixed
        num, den = (7 * 10 ** power, 1) if power >= 0 else (7, 10 ** -power)
        value = Dyadic.ratio(num, den, 200)
        cases += [(value.man, value.exp), (-value.man, value.exp)]
    return cases


def test_to_decimal_matches_mpmath_to_str():
    """The integer formatter prints every binary rational as mpmath's
    ``to_str`` does, at 3 and at 35 to 60 digits, with and without
    ``strip_zeros``."""
    from mpmath.libmp import from_man_exp, to_str
    for man, exp in _to_decimal_cases():
        for digits in (3, *range(35, 61)):
            for strip in (True, False):
                assert to_decimal(man, exp, digits, strip) == \
                    to_str(from_man_exp(man, exp), digits, strip_zeros=strip), \
                    (man, exp, digits, strip)


@pytest.mark.parametrize("digits", [35, 40, 45, 300])
def test_integer_pi_and_unit_point_are_within_one_unit(digits):
    """pi by Machin's formula, and cos phi and sin phi from the series of
    e^(i phi), are within one unit of mpmath at ``pole_bits``, for the five
    angles of the benchmark's triangle and for 0.3 and 1.2."""
    from lawsonarea.omega import parse_phi
    cfg = PrecisionConfig(digits)
    bits = cfg.pole_bits
    ctx = mpmath.mp.clone()
    ctx.prec = bits + 64
    unit = ctx.ldexp(1, bits)
    assert abs(pi_fixed(bits) - ctx.pi * unit) <= 1
    for phi in ("pi/6", "pi/5", "pi/4", "3*pi/10", "pi/3", "0.3", "1.2"):
        value = parse_phi(phi, cfg)
        cos, sin = cis_fixed(value, bits)
        assert abs(cos - ctx.cos(value) * unit) <= 1, phi
        assert abs(sin - ctx.sin(value) * unit) <= 1, phi
