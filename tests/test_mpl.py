import random

import pytest

from lawsonarea import mpl
from lawsonarea.mpl import (DivergentSeriesError, MplSpec, _integral_word, _split_value,
                            _tail_products, convert_word, letter, li, mpl_spec,
                            series_extrapolated, series_partial_sum, stuffle, zeta_signed)
from lawsonarea.omega import parse_phi
from lawsonarea.precision import PrecisionConfig, agreement_digits
from lawsonarea.verify import (distribution_residual, li11_inversion_residual,
                               zagier_residual)

CFG = PrecisionConfig(40)
CTX = CFG.context

# frozen from the split evaluator at 50 and 60 target digits (agreement 6e-64)
# and cross-checked below against the tail-extrapolated direct series
ZETA_113BAR = "-0.009601568443129832539131914818197563243143333703941385"


def test_depth1_closed_forms():
    assert abs(li(mpl_spec([2], [1], CFG), CFG) - CTX.pi ** 2 / 6) < CFG.eps(4)
    assert abs(li(mpl_spec([2], [-1], CFG), CFG) + CTX.pi ** 2 / 12) < CFG.eps(4)
    assert abs(li(mpl_spec([1], ["0.5"], CFG), CFG) - CTX.ln(2)) < CFG.eps(4)
    assert abs(li(mpl_spec([4], [-1], CFG), CFG)
               + CTX.mpf(7) / 8 * CTX.zeta(4)) < CFG.eps(4)


def test_li2_at_i():
    v = li(mpl_spec([2], [CTX.mpc(0, 1)], CFG), CFG)
    expected = -CTX.pi ** 2 / 48 + CTX.mpc(0, 1) * CTX.catalan
    assert abs(v - expected) < CFG.eps(4)


def test_li11_at_minus_one():
    v = li(mpl_spec([1, 1], [-1, -1], CFG), CFG)
    expected = (CTX.ln(2) ** 2 - CTX.pi ** 2 / 6) / 2
    assert abs(v - expected) < CFG.eps(4)


def test_empty_depth():
    assert li(mpl_spec([], [], CFG), CFG) == 1


def test_divergence_rejected():
    with pytest.raises(DivergentSeriesError):
        li(mpl_spec([1], [1], CFG), CFG)
    with pytest.raises(DivergentSeriesError):
        li(mpl_spec([2, 1], [0.5, 1], CFG), CFG)
    with pytest.raises(DivergentSeriesError):
        li(mpl_spec([2], [1.2], CFG), CFG)
    with pytest.raises(DivergentSeriesError):
        # inner partial product exceeds the polydisk even though |z_2| < 1
        li(mpl_spec([2, 2], [4, 0.3], CFG), CFG)
    with pytest.raises(DivergentSeriesError):
        zeta_signed([2, 1], [1, 1], CFG)
    with pytest.raises(DivergentSeriesError, match="budget"):
        # term ratio 0.996: 3.4e4 terms, beyond the split kernel's rounding budget
        li(mpl_spec([2, 1], ["0.35", "0.998"], CFG), CFG)
    with pytest.raises(DivergentSeriesError, match="term ratio 1.0"):
        # inside the polydisk's tolerance, but the pole sits on the path
        li(mpl_spec([2], ["1." + "0" * 43 + "1"], CFG), CFG)


def test_spec_validation():
    with pytest.raises(ValueError):
        mpl_spec([1, 2], [0.5], CFG)
    with pytest.raises(ValueError):
        mpl_spec([0], [0.5], CFG)


def test_zeta_signed_values():
    assert abs(zeta_signed([3], [-1], CFG)
               + CTX.mpf(3) / 4 * CTX.zeta(3)) < CFG.eps(4)
    assert abs(zeta_signed([2], [1], CFG) - CTX.pi ** 2 / 6) < CFG.eps(4)
    v = zeta_signed([1, 1, 3], [1, 1, -1], CFG)
    assert abs(v - CTX.mpf(ZETA_113BAR)) < CFG.eps(4)


def test_zeta_113bar_series_oracle():
    """Independent oracle: raw partial sums with oscillating-tail averaging."""
    cfg = PrecisionConfig(25)
    spec = mpl_spec([1, 1, 3], [1, 1, -1], cfg)
    oracle = series_extrapolated(spec, cfg, cutoff=900, passes=8)
    assert abs(oracle - cfg.context.mpf(ZETA_113BAR)) < cfg.context.mpf("1e-18")


def _term_ratio(spec, cfg):
    """The split kernel's geometric term ratio for ``spec``."""
    word = _integral_word(spec, _tail_products(spec, cfg), cfg)
    return 1 / (min(abs(a) for a in word if a != 0)
                + min(abs(1 - a) for a in word if a != 0))


def test_direct_series_agrees_with_split_path():
    # both specs run the split kernel; spec_out lies past the old 0.95 ratio limit
    spec_in = mpl_spec([2, 1], ["0.35", "0.55"], CFG)
    spec_out = mpl_spec([2, 1], ["0.35", CTX.mpf("0.98")], CFG)
    assert _term_ratio(spec_out, CFG) > 0.95
    direct = series_partial_sum(spec_out, CFG, 9000)
    split = li(spec_out, CFG)
    assert abs(direct - split) < CTX.mpf("1e-15")
    assert abs(li(spec_in, CFG) - series_partial_sum(spec_in, CFG, 400)) < CFG.eps(6)


def test_li_has_one_route(monkeypatch):
    """``li`` evaluates every spec on the split kernel, never the direct sum."""
    def refuse(*args):
        raise AssertionError("li summed the nested series")
    monkeypatch.setattr(mpl, "series_partial_sum", refuse)
    li.cache_clear()
    for indices, args in (([2, 1], ["0.35", "0.55"]), ([2, 1], ["0.35", "0.98"]),
                          ([4], ["0.5"]), ([5], ["0.5"])):
        li(mpl_spec(indices, args, CFG), CFG)


@pytest.mark.parametrize("digits", [40, 100])
def test_split_kernel_near_one_on_the_unit_circle(digits):
    """Term ratio 0.971 and 0.952: inside the kernel's rounding budget."""
    cfg = PrecisionConfig(digits)
    ctx = cfg.context
    for s, t in ((2, "0.03"), (3, "0.05")):
        z = ctx.expj(ctx.mpf(t))
        assert abs(li(mpl_spec([s], [z], cfg), cfg) - ctx.polylog(s, z)) < cfg.eps(2)


def test_zero_argument_gives_exact_zero():
    """A zero argument, inner or last, zeroes every term of the nested sum."""
    specs = [mpl_spec([1, 1], [0, z2], CFG) for z2 in ("0.5", "0.98")]
    specs += [mpl_spec([1], [0], CFG), mpl_spec([2, 1], ["0.5", 0], CFG),
              mpl_spec([1, 2], ["0.98", 0], CFG)]
    for spec in specs:
        value = li(spec, CFG)
        assert value == 0 and isinstance(value, CTX.mpc), spec
    for spec in specs[2:]:
        assert series_partial_sum(spec, CFG, 50) == 0, spec
        assert series_extrapolated(spec, CFG) == 0, spec


def test_convert_word_term_counts():
    assert len(convert_word((3,), CTX.pi / 4, CFG)) == 4
    assert len(convert_word((2, 1), CTX.pi / 4, CFG)) == 16
    assert len(convert_word((1, 2, 3), CTX.pi / 4, CFG)) == 64
    with pytest.raises(ValueError):
        convert_word((), CTX.pi / 4, CFG)


def test_convert_word_weight1_values():
    pi4 = CTX.pi / 4
    I = CTX.mpc(0, 1)
    assert abs(convert_word((3,), pi4, CFG).value(CFG) - I * CTX.pi) < CFG.eps(6)
    assert abs(convert_word((1,), pi4, CFG).value(CFG) - I * CTX.pi / 2) < CFG.eps(6)
    phi = CTX.mpf("0.3")
    assert abs(convert_word((1,), phi, CFG).value(CFG)
               - I * (CTX.pi - 2 * phi)) < CFG.eps(6)


def test_convert_word_weight2():
    v = convert_word((2, 1), CTX.pi / 4, CFG).value(CFG)
    assert abs(v + CTX.mpc(0, 1) * CTX.pi * CTX.ln(2)) < CFG.eps(6)


def test_stuffle_product_consistency():
    rng = random.Random(0)
    for _ in range(5):
        w1 = tuple(letter(rng.randint(1, 3),
                          CTX.mpf(rng.randint(2, 6)) / 10
                          * CTX.expjpi(CTX.mpf(rng.randint(0, 7)) / 4))
                   for _ in range(rng.randint(1, 2)))
        w2 = (letter(rng.randint(1, 3),
                     CTX.mpf(rng.randint(2, 6)) / 10
                     * CTX.expjpi(CTX.mpf(rng.randint(0, 7)) / 4)),)
        lhs = (li(mpl_spec([l.n for l in w1], [l.z for l in w1], CFG), CFG)
               * li(mpl_spec([l.n for l in w2], [l.z for l in w2], CFG), CFG))
        rhs = CTX.mpc(0)
        for word, mult in stuffle(w1, w2).items():
            rhs += mult * li(mpl_spec([l.n for l in word],
                                      [l.z for l in word], CFG), CFG)
        assert abs(lhs - rhs) < CFG.eps(6)


def test_distribution_relation():
    rng = random.Random(4)
    for s in (2, 3):
        for _ in range(3):
            z = CTX.mpf(rng.randint(3, 9)) / 10 \
                * CTX.expjpi(CTX.mpf(rng.randint(0, 15)) / 8)
            assert distribution_residual(s, z, CFG) < CFG.eps(6)


def test_zagier_reduction():
    rng = random.Random(9)
    for _ in range(3):
        x = CTX.mpf(3) / 10 * CTX.expjpi(CTX.mpf(rng.randint(0, 15)) / 8)
        y = CTX.mpf(rng.randint(4, 8)) / 10 * CTX.expjpi(CTX.mpf(rng.randint(0, 15)) / 8)
        assert zagier_residual(x, y, CFG) < CFG.eps(6)


def test_parity_spot_check():
    eta = CTX.expjpi(CTX.mpf(1) / 4)
    assert li11_inversion_residual(CTX.mpc(-1), eta ** 3, CFG) < CFG.eps(6)


def test_precision_doubling():
    lo = PrecisionConfig(30)
    hi = PrecisionConfig(40)
    cases = [
        ((2,), (-1,)),
        ((1, 1), (-1, -1)),
        ((1, 1, 3), (1, 1, -1)),
    ]
    for indices, args in cases:
        vlo = li(mpl_spec(indices, args, lo), lo)
        vhi = li(mpl_spec(indices, args, hi), hi)
        assert agreement_digits(vlo, vhi, lo) >= 28


def test_split_kernel_at_250_digits():
    cfg = PrecisionConfig(250)
    ctx = cfg.context
    assert abs(li(mpl_spec([2], [-1], cfg), cfg) + ctx.pi ** 2 / 12) < cfg.eps(2)
    expected = -ctx.pi ** 2 / 48 + ctx.mpc(0, 1) * ctx.catalan
    assert abs(li(mpl_spec([2], [ctx.mpc(0, 1)], cfg), cfg) - expected) < cfg.eps(2)
    hi = PrecisionConfig(280)
    indices, signs = [1, 1, 1, 1, 3], [1, 1, 1, 1, -1]
    value = zeta_signed(indices, signs, cfg)
    assert abs(hi.context.mpc(value) - zeta_signed(indices, signs, hi)) < cfg.eps(2)


def test_split_path_at_term_ratio_near_0_9():
    """About 1 300 series terms at 40 digits: the kernel's budget at large T."""
    z2 = CTX.mpf("0.97") * CTX.expj(CTX.mpf("0.074"))
    spec = mpl_spec([2, 1], ["0.5", z2], CFG)
    assert 0.89 < _term_ratio(spec, CFG) < 0.9
    # |z2|^cutoff is below 10^-55
    direct = series_partial_sum(spec, CFG, 4200)
    assert abs(li(spec, CFG) - direct) < CFG.eps(2)


@pytest.mark.parametrize("phi", ["pi/6", "1.2"])
def test_li_mirror_matches_direct_split(phi):
    """A spec whose first non-real argument lies below the real axis is
    evaluated as conj(li(mirror)); that agrees with the split kernel run on
    the spec itself, at depth 1 and 2."""
    cfg = PrecisionConfig(30)
    ctx = cfg.context
    checked = 0
    for word in ((1,), (1, 1)):
        for _, spec in convert_word(word, parse_phi(phi, cfg), cfg).terms:
            if next(z for z in spec.args if z.imag).imag > 0:
                continue
            direct = (-1) ** spec.depth * _split_value(
                _integral_word(spec, _tail_products(spec, cfg), cfg), cfg)
            # the arguments and li's values carry cfg.pole_bits, the split
            # kernel's scale, where conjugation is exact
            with ctx.workprec(cfg.pole_bits):
                mirror = MplSpec(spec.indices, tuple(ctx.conj(z) for z in spec.args))
            value = li(mirror, cfg)
            with ctx.workprec(cfg.pole_bits):
                from_mirror = ctx.conj(value)
            assert abs(from_mirror - direct) < cfg.eps(2), spec
            assert li(spec, cfg) == from_mirror
            checked += 1
    assert checked == 2 + 8


def test_triangle_words_take_one_split_per_mirror_pair(monkeypatch):
    """The 12 words of length <= 2 at one angle need 20 split evaluations
    pole by pole, and 10 with one per conjugate pair."""
    cfg = PrecisionConfig(30)
    calls = []
    monkeypatch.setattr(mpl, "_split_value",
                        lambda word, cfg: calls.append(word) or _split_value(word, cfg))
    li.cache_clear()
    phi = parse_phi("pi/6", cfg)
    for word in [(a,) for a in (1, 2, 3)] + [(a, b) for a in (1, 2, 3) for b in (1, 2, 3)]:
        convert_word(word, phi, cfg).value(cfg)
    assert len(calls) == 10


def test_li_keeps_real_specs_and_its_cache():
    """All-real specs (alternating MZVs) are computed as they are, and ``li``
    stays an ``lru_cache``."""
    cfg = PrecisionConfig(30)
    li.cache_clear()
    zeta_signed([1, 2], [-1, -1], cfg)
    assert li.cache_info().currsize == 1
    spec = mpl_spec([2], [cfg.context.mpc("0.3", "-0.4")], cfg)
    li(spec, cfg)
    assert li.cache_info().currsize == 3      # the spec and its mirror


def test_mpl_spec_validates_and_keys_the_li_memo():
    cfg = PrecisionConfig(30)
    z = cfg.context.mpc("0.5")
    with pytest.raises(ValueError, match="equal depth"):
        MplSpec((1, 2), (z,))
    for bad in (0, -1, 1.0):
        with pytest.raises(ValueError, match="positive integers"):
            MplSpec((bad,), (z,))
    li.cache_clear()
    spec = mpl_spec([2], [z], cfg)
    value = li(spec, cfg)
    equal = MplSpec((2,), (cfg.context.mpc("0.5"),))
    assert equal is not spec and equal == spec and hash(equal) == hash(spec)
    assert li(equal, cfg) is value
    assert (li.cache_info().hits, li.cache_info().currsize) == (1, 1)
    assert equal != MplSpec((1,), (z,))
    with pytest.raises(AttributeError):
        spec.indices = (3,)


def test_li_memo_ignores_a_callers_workprec():
    """``li`` takes its kernel's scale from the working digits, so a first
    call inside a caller's ``workprec`` block memoises the value that a
    fresh cache computes outside it, at the kernel's 168 bits, not a value
    of the raised precision."""
    cfg = PrecisionConfig(30)
    ctx = cfg.context
    spec = mpl_spec([2, 1], [ctx.mpf("0.35"), ctx.mpf("0.9")], cfg)
    li.cache_clear()
    with ctx.workprec(ctx.prec + 200):
        li(spec, cfg)
    value = li(spec, cfg)
    li.cache_clear()
    fresh = li(spec, cfg)
    assert value == fresh
    assert max(part._mpf_[3] for part in (value.real, value.imag)) <= cfg.pole_bits == 168
