import collections
import functools
import itertools
import json
import math
import random

import pytest

from lawsonarea import omega
from lawsonarea.mpl import convert_word, li, mpl_spec
from lawsonarea.engine import expand
from lawsonarea.omega import (_CACHE_VERSION, FORM_COEFFS, OmegaTable, SignedTable,
                              _cache_path, _transport_table, _values_digest,
                              build_signed_table, build_table, cached_table, canonical_phi,
                              chen_compose, clear_cache, gauss_legendre_rule, is_pi_over_4,
                              list_cache, load_table, parse_phi, punctures,
                              quadrature_oracle, save_table)
from lawsonarea.precision import PrecisionConfig, from_fixed_pair, to_fixed_pair
from lawsonarea.verify import closed_forms_pi4, integral_identity_residuals
from lawsonarea.words import shuffle

CFG = PrecisionConfig(40)
CTX = CFG.context
I = CTX.mpc(0, 1)


def test_parse_phi():
    assert abs(parse_phi("pi/4", CFG) - CTX.pi / 4) == 0
    assert abs(parse_phi("3*pi/8", CFG) - 3 * CTX.pi / 8) == 0
    assert abs(parse_phi("0.3", CFG) - CTX.mpf("0.3")) == 0
    with pytest.raises(ValueError):
        parse_phi("pi/2", CFG)
    with pytest.raises(ValueError):
        parse_phi("0", CFG)
    with pytest.raises(TypeError):
        parse_phi(0.4, CFG)


def test_weight1_closed_forms_general_phi(tables):
    for phi_label in ("pi/3", "0.3"):
        phi = parse_phi(phi_label, CFG)
        t1 = tables.get("1", phi_label, 1, CFG)
        ti = tables.get("i", phi_label, 1, CFG)
        assert abs(t1.value((1,)) - I * (CTX.pi - 2 * phi)) < CFG.eps(6)
        assert abs(t1.value((2,))
                   - CTX.ln((1 - CTX.cos(phi)) / (1 + CTX.cos(phi)))) < CFG.eps(6)
        assert abs(t1.value((3,)) - I * CTX.pi) < CFG.eps(6)
        assert abs(ti.value((1,)) + 2 * I * phi) < CFG.eps(6)
        assert abs(ti.value((2,)) + I * CTX.pi) < CFG.eps(6)
        assert abs(ti.value((3,))
                   - CTX.ln((1 - CTX.sin(phi)) / (1 + CTX.sin(phi)))) < CFG.eps(6)


def test_empty_word_is_one(table40_pi4_L4):
    assert table40_pi4_L4.value(()) == 1


def test_closed_forms_at_pi4(table40_pi4_L4):
    for word, expected in closed_forms_pi4(CFG).items():
        assert abs(table40_pi4_L4.value(word) - expected) < CFG.eps(6), word


def test_depth_guard(table40_pi4_L4):
    with pytest.raises(KeyError):
        table40_pi4_L4.value((1,) * 5)


def test_build_table_validation():
    with pytest.raises(ValueError):
        build_table("2", "pi/4", 2, CFG)
    with pytest.raises(ValueError):
        build_table("1", "pi/4", 0, CFG)
    with pytest.raises(ValueError):
        build_table("1", "pi/1", 2, CFG)


def test_chen_constant_path(table40_pi4_L4):
    const = OmegaTable.constant_path(CFG, "pi/4", 1, 4)
    composed = chen_compose(table40_pi4_L4, const)
    for word in table40_pi4_L4.words():
        assert abs(composed.value(word) - table40_pi4_L4.value(word)) == 0


def test_chen_split_matches_direct(tables):
    ctx = CTX
    points = punctures(parse_phi("pi/4", CFG), CFG)
    cuts = [ctx.mpf(0), ctx.mpf(1) / 2, ctx.mpf(3) / 4, ctx.mpf(1)]
    pieces = [_transport_table(CFG, "pi/4", points, [(ctx.mpc(a), ctx.mpc(b))], 2)
              for a, b in zip(cuts[:-1], cuts[1:])]
    glued = pieces[0]
    for piece in pieces[1:]:
        glued = chen_compose(glued, piece)
    direct = tables.get("1", "pi/4", 2, CFG)
    for word in direct.words():
        assert abs(glued.value(word) - direct.value(word)) < CFG.eps(6), word
    # single letters compose additively
    for letter in (1, 2, 3):
        total = sum(piece.value((letter,)) for piece in pieces)
        assert abs(total - direct.value((letter,))) < CFG.eps(6)


def test_chen_compose_guards(table40_pi4_L4):
    other_cfg = PrecisionConfig(60)
    other = build_table("1", "pi/4", 1, other_cfg)
    with pytest.raises(ValueError):
        chen_compose(table40_pi4_L4, other)
    mismatched = OmegaTable.constant_path(CFG, "0.3", 1, 4)
    with pytest.raises(ValueError):
        chen_compose(table40_pi4_L4, mismatched)
    wrong_anchor = OmegaTable.constant_path(CFG, "pi/4", CTX.mpc(0, 1), 4)
    with pytest.raises(ValueError):
        chen_compose(table40_pi4_L4, wrong_anchor)


def test_quadrature_examples():
    cfg = PrecisionConfig(30)
    ctx = cfg.context
    v = quadrature_oracle((3,), "1", "pi/4", cfg)
    assert abs(v - ctx.mpc(0, 1) * ctx.pi) < ctx.mpf("1e-25")
    v = quadrature_oracle((2, 1), "1", "pi/4", cfg)
    assert abs(v + ctx.mpc(0, 1) * ctx.pi * ctx.ln(2)) < ctx.mpf("1e-25")
    v = quadrature_oracle((1,), "1", "0.5", cfg)
    assert abs(v - ctx.mpc(0, 1) * (ctx.pi - 1)) < ctx.mpf("1e-25")
    with pytest.raises(ValueError):
        quadrature_oracle((1, 1, 1, 1), "1", "pi/4", cfg)


def test_oracle_triangle_weight2():
    """Transport, quadrature and polylogarithm conversion must agree."""
    cfg = PrecisionConfig(30)
    ctx = cfg.context
    table = build_table("1", "pi/6", 2, cfg)
    phi = parse_phi("pi/6", cfg)
    for word in [(2, 1), (3, 3)]:
        transport = table.value(word)
        quad = quadrature_oracle(word, "1", "pi/6", cfg)
        conv = convert_word(word, phi, cfg).value(cfg)
        assert abs(transport - quad) < ctx.mpf("1e-22")
        assert abs(transport - conv) < ctx.mpf("1e-22")


def test_shuffle_consistency(table40_pi4_L4):
    rng = random.Random(0)
    ctx = CTX
    for _ in range(15):
        w1 = tuple(rng.choice((1, 2, 3)) for _ in range(rng.randint(1, 2)))
        w2 = tuple(rng.choice((1, 2, 3)) for _ in range(rng.randint(1, 2)))
        rhs = ctx.mpc(0)
        for word, mult in shuffle(w1, w2).items():
            rhs += mult * table40_pi4_L4.value(word)
        lhs = table40_pi4_L4.value(w1) * table40_pi4_L4.value(w2)
        assert abs(lhs - rhs) < CFG.eps(6)


def test_integral_identities():
    for phi in ("0.3", "pi/4", "1.2"):
        residuals = integral_identity_residuals(phi, CFG)
        for axis, resid in residuals.items():
            assert resid < CFG.eps(6), (phi, axis)


def test_gauss_legendre_rule_is_exact_to_degree_2n_minus_1():
    cfg = PrecisionConfig(30)
    n = 80
    xs, ws = gauss_legendre_rule(n, cfg)
    assert len(xs) == len(ws) == n
    assert abs(sum(ws) - 2) < cfg.eps(2)
    for k in range(1, n):      # degrees 2k <= 2n - 2; the odd moments vanish by symmetry
        moment = sum(w * x ** (2 * k) for x, w in zip(xs, ws))
        assert abs(moment - cfg.context.mpf(2) / (2 * k + 1)) < cfg.eps(2), 2 * k


def test_paired_forms_match_form_coeffs():
    cfg = PrecisionConfig(30)
    ctx = cfg.context
    bits = ctx.prec + omega._QUADRATURE_EXTRA_BITS
    points = punctures(parse_phi("0.7", cfg), cfg)
    poles = [to_fixed_pair(p, bits) for p in points[:2]]
    for z in (ctx.mpc("0.3", "0.4"), ctx.mpc("-1.2", "0.5"), ctx.mpc("0.1", "-2")):
        forms = omega._paired_forms(to_fixed_pair(z, bits), poles, bits)
        for value, eps in zip(forms, FORM_COEFFS):
            value = from_fixed_pair(*value, bits, ctx)
            expected = sum(e / (z - p) for e, p in zip(eps, points))
            assert abs(value - expected) < cfg.eps(2) * max(1, abs(expected)), z


def test_first_level_builds_one_pole_of_each_mirror_pair(monkeypatch):
    """One first level at n nodes divides n(n + 1)/2 times on p1's symmetric
    grid and once per outer node for the forms there, and none for p2, whose
    values are conjugates; a top whose square is not real is refused."""
    cfg = PrecisionConfig(20)
    ctx = cfg.context
    bits = ctx.prec + omega._QUADRATURE_EXTRA_BITS
    n = 12
    xs, ws = gauss_legendre_rule(n, cfg)
    rule = ([(to_fixed_pair(x, bits)[0] + (1 << bits)) >> 1 for x in xs],
            [to_fixed_pair(w, bits)[0] >> 1 for w in ws])
    poles = [to_fixed_pair(p, bits) for p in punctures(parse_phi("pi/5", cfg), cfg)[:2]]
    calls = []
    inverse_gap = omega._inverse_gap
    monkeypatch.setattr(omega, "_inverse_gap",
                        lambda *args: calls.append(args) or inverse_gap(*args))
    for top in ((1 << bits, 0), (0, 1 << bits)):
        calls.clear()
        omega._first_level(top, poles, rule, bits)
        assert len(calls) == n * (n + 1) // 2 + n
    with pytest.raises(ValueError):
        omega._first_level((1 << bits, 1 << bits - 3), poles, rule, bits)


def test_quadrature_length3_word_matches_transport():
    """Three nested levels: one more ``_first_level`` per outer node."""
    cfg = PrecisionConfig(25)
    table = build_table("1", "pi/4", 3, cfg)
    for word in [(2, 2, 3), (1, 3, 2)]:
        quad = quadrature_oracle(word, "1", "pi/4", cfg, nodes=48)
        assert abs(quad - table.value(word)) < cfg.eps(2), word


def test_quadrature_length3_words_share_one_second_level(monkeypatch):
    """The first length-3 word at a key builds one second level per outer
    node; a second one at the same key builds none and equals its value
    computed on an empty cache."""
    cfg = PrecisionConfig(20)
    calls = []
    first_level = omega._first_level
    monkeypatch.setattr(omega, "_first_level",
                        lambda *args: calls.append(args[0]) or first_level(*args))
    omega._quadrature_cache.clear()
    quadrature_oracle((2, 2, 3), "1", "pi/4", cfg, nodes=16)
    assert len(calls) == 1 + 16
    value = quadrature_oracle((1, 3, 2), "1", "pi/4", cfg, nodes=16)
    assert len(calls) == 1 + 16
    omega._quadrature_cache.clear()
    assert quadrature_oracle((1, 3, 2), "1", "pi/4", cfg, nodes=16) == value


def test_oracle_caches_are_keyed_by_every_input():
    """Cached oracle values equal fresh ones whatever order the keys come in."""
    cfg30, cfg40 = PrecisionConfig(30), PrecisionConfig(40)
    # 0.75 is exact in binary, so its parsed value is the same at both precisions
    base = ("1", "0.75", cfg30, 40)
    variants = [("i", "0.75", cfg30, 40), ("1", "pi/6", cfg30, 40),
                ("1", "0.75", cfg40, 40), ("1", "0.75", cfg30, 80)]
    calls = [call for variant in variants for call in (base, variant)]
    words = [(1,), (2, 1), (3, 2)]
    omega._quadrature_cache.clear()
    seen = [(call, word, quadrature_oracle(word, *call))
            for call in calls for word in words]
    assert len(omega._quadrature_cache) == 1 + len(variants)
    # a different spelling of the same angle reuses its entry
    quadrature_oracle((2, 1), "1", "1*pi/6", cfg30, 40)
    assert len(omega._quadrature_cache) == 1 + len(variants)
    spec = mpl_spec([1, 1], [cfg30.context.mpc(0, 1), "0.5"], cfg30)
    li_seen = [(cfg, li(spec, cfg)) for cfg in (cfg30, cfg40, cfg30, cfg40)]
    assert li.cache_info().currsize >= 2
    for call in [base] + variants:
        omega._quadrature_cache.clear()
        li.cache_clear()
        fresh = {word: quadrature_oracle(word, *call) for word in words}
        for seen_call, word, value in seen:
            if seen_call == call:
                assert value == fresh[word], (call, word)
    for cfg, value in li_seen:
        omega._quadrature_cache.clear()
        li.cache_clear()
        assert li(spec, cfg) == value, cfg


def test_transport_matches_quadrature_endpoint_i():
    cfg = PrecisionConfig(30)
    table = build_table("i", "1.2", 2, cfg)
    for word in table.words():
        if word:
            quad = quadrature_oracle(word, "i", "1.2", cfg)
            assert abs(table.value(word) - quad) < cfg.eps(6), word


@pytest.mark.parametrize("endpoint,phi", [("i", "0.3"), ("1", "1.2")])
def test_precision_doubling_depth5(endpoint, phi):
    lo = PrecisionConfig(40)
    hi = PrecisionConfig(80)
    tl = build_table(endpoint, phi, 5, lo)
    th = build_table(endpoint, phi, 5, hi)
    for word in tl.words():
        assert abs(tl.value(word) - th.value(word)) < lo.eps(2), word


def test_precision_doubling_table():
    lo = PrecisionConfig(25)
    hi = PrecisionConfig(35)
    tl = build_table("1", "0.7", 2, lo)
    th = build_table("1", "0.7", 2, hi)
    for word in tl.words():
        assert abs(tl.value(word) - th.value(word)) < lo.context.mpf("1e-23")


@functools.lru_cache(maxsize=None)
def _half_segment(phi, depth):
    """The transport table of the segment [0, 1/2] at 40 digits."""
    points = punctures(parse_phi(phi, CFG), CFG)
    return _transport_table(CFG, phi, points, [(CTX.mpc(0), CTX.mpc("0.5"))], depth)


def _single_word(word, phi, cfg):
    """One word on [0, 1/2] by forward transport of one series in mpc, 20 digits up.

    The poles are the kernel's own (``cfg``), so only rounding differs.
    """
    hi = PrecisionConfig(cfg.target_digits + 20, cfg.guard_digits)
    ctx = hi.context
    half = ctx.mpf(1) / 4
    ratios = [half / (ctx.mpc(p) - half) for p in punctures(parse_phi(phi, cfg), cfg)]
    terms = int(hi.working_digits * 2.1) + 20        # 3^-terms < 10^-working digits
    series = [ctx.mpc(1)] + [ctx.mpc(0)] * terms     # in v = (z - 1/4)/(1/4)
    for letter in word:
        integrand = [ctx.mpc(0)] * (terms + 1)
        for eps, r in zip(FORM_COEFFS[letter - 1], ratios):
            k = ctx.mpc(0)
            for j, s in enumerate(series):         # series * half/(half v - q)
                k = (k - s) * r
                integrand[j] += eps * k
        series = [ctx.mpc(0)] + [c / (j + 1) for j, c in enumerate(integrand[:-1])]
        series[0] = -sum(c * (-1) ** j for j, c in enumerate(series))   # 0 at v = -1
    return sum(series)                              # the value at v = +1


@pytest.mark.parametrize("phi,depth", [("pi/4", 8), ("1.2", 7)])
def test_segment_table_matches_single_word_transport(phi, depth):
    table = _half_segment(phi, depth)
    words = [(1, 2, 3, 1, 2), (3, 3, 1, 2, 2, 1), (2, 1, 3, 3, 1, 2, 1),
             (1, 3, 2, 2, 3, 1, 3, 2), (3,) * 5, (2, 2, 2, 1, 1, 1)]
    for word in words:
        if len(word) <= depth:
            assert abs(table.value(word) - _single_word(word, phi, CFG)) < CFG.eps(2), word


def test_shuffle_of_short_and_long_words_on_one_segment():
    """Products of a word of length <= 2 and one of length 5 or 6: their
    shuffles, of length 7 or 8, include words of the last layer, read off the
    value functionals."""
    table = _half_segment("pi/4", 8)
    rng = random.Random(1)
    for _ in range(6):
        w1 = tuple(rng.choice((1, 2, 3)) for _ in range(rng.randint(1, 2)))
        w2 = tuple(rng.choice((1, 2, 3)) for _ in range(rng.randint(7 - len(w1), 6)))
        rhs = sum(mult * table.value(word) for word, mult in shuffle(w1, w2).items())
        assert abs(table.value(w1) * table.value(w2) - rhs) < CFG.eps(2), (w1, w2)


def _signed_sums(table):
    """sigma_c of a word table: (-1)^inv(w) Omega(w) summed per non-decreasing key."""
    sums = {}
    for word, value in table.values.items():
        if word:
            key = tuple(sorted(word))
            inv = sum(a > b for a, b in itertools.combinations(word, 2))
            sums[key] = sums.get(key, 0) + (-1) ** inv * value
    return sums


@pytest.mark.parametrize("endpoint,phi,depth", [("1", "pi/4", 7), ("i", "1.2", 6),
                                                ("1", "0.3", 5)])
def test_signed_table_matches_word_sums(endpoint, phi, depth, tables):
    signed = build_signed_table(endpoint, phi, depth, CFG)
    expected = _signed_sums(tables.get(endpoint, phi, depth, CFG))
    assert signed.values.keys() == expected.keys()
    assert len(expected) == math.comb(depth + 3, 3) - 1
    for key, value in expected.items():
        assert abs(signed.value(key) - value) < CFG.eps(2), key
    with pytest.raises(KeyError):
        signed.value((2, 1))             # keys are non-decreasing words
    with pytest.raises(KeyError):
        signed.value((1,) * (depth + 1))


def test_signed_kernel_with_all_plus_signs_is_the_shuffle_product():
    """With every sign +, the recurrence sums every word of counts c, which
    the shuffle identity makes prod_i Omega(i)^(c_i) / c_i!."""
    depth = 6
    pc, segments = omega._path("1", "pi/4", depth, CFG)
    plus = omega._transport(CFG, pc.points, segments, depth,
                            lambda key, letter: (tuple(sorted(key + (letter,))), 1))
    letters = [plus[(i,)] for i in (1, 2, 3)]
    for key, value in plus.items():
        counts = [key.count(i) for i in (1, 2, 3)]
        expected = math.prod(v ** c / math.factorial(c) for v, c in zip(letters, counts))
        assert abs(value - expected) < CFG.eps(2), key


@pytest.mark.parametrize("endpoint,phi,depth", [("1", "pi/4", 6), ("i", "1.2", 5)])
def test_repeated_letter_words_equal_their_signed_sums(endpoint, phi, depth, tables):
    """The word i^k is the one word of its letter counts and is in order, so
    sigma equals its integral; both tables transport it from the same parent
    series by the same driver, so the two values are equal to the bit."""
    words = tables.get(endpoint, phi, depth, CFG)
    signed = tables.signed(endpoint, phi, depth, CFG)
    for letter in (1, 2, 3):
        for k in range(1, depth + 1):
            assert words.value((letter,) * k) == signed.value((letter,) * k), (letter, k)


def test_one_driver_builds_both_tables(monkeypatch):
    """Per segment, both table kinds take one forward step per node shorter
    than depth - 1, one set of value functionals and one dot per node of
    size depth - 1 and letter: 3^n words and C(n + 2, 2) multisets of size n."""
    depth = 4
    counts = collections.Counter()
    for name in ("_integrate", "_value_functionals", "_dot"):
        monkeypatch.setattr(omega, name, lambda *args, _name=name, _fn=getattr(omega, name):
                            counts.update([_name]) or _fn(*args))
    segments = len(omega._path("1", "pi/4", depth, CFG)[1])
    for build, nodes in ((build_table, lambda n: 3 ** n),
                         (build_signed_table, lambda n: math.comb(n + 2, 2))):
        counts.clear()
        build("1", "pi/4", depth, CFG)
        assert counts == {"_integrate": segments * sum(map(nodes, range(depth - 1))),
                          "_value_functionals": segments,
                          "_dot": segments * 3 * nodes(depth - 1)}, build


def _geometric_product(s_re, s_im, ratio, bits):
    """Coefficients of S(v) * half/(half*v - q): K_j = (K_{j-1} - S_j) * half/q."""
    r_re, r_im = ratio
    k_re = k_im = 0
    out_re, out_im = [], []
    for a, b in zip(s_re, s_im):
        x, y = k_re - a, k_im - b
        k_re = (x * r_re - y * r_im) >> bits
        k_im = (x * r_im + y * r_re) >> bits
        out_re.append(k_re)
        out_im.append(k_im)
    return out_re, out_im


# the letters whose form gives the two poles of a pair opposite residues, per endpoint
FLIPS = {"1": {1, 3}, "i": {1, 2}}


@pytest.mark.parametrize("endpoint", ["1", "i"])
@pytest.mark.parametrize("phi", ["pi/4", "1.2", "0.3"])
def test_pair_kernel_matches_four_poles(endpoint, phi):
    """The one-list letter integrands against one complex recurrence per
    pole, on every segment of the path, for a real and for an imaginary
    series with |S_j| <= 1."""
    pc, segments = omega._path(endpoint, phi, 1, CFG)
    T = omega._series_terms(CFG)
    rng = random.Random(7)
    for z0, z1 in segments:
        pair_ratios, plan, bits = omega._segment_ratios(CFG, pc.points, z0, z1)
        assert len(pair_ratios) == 2
        mid, half = (z0 + z1) / 2, (z1 - z0) / 2
        rel = [p - mid for p in pc.points]       # at working precision, as in the kernel
        with CTX.workprec(bits):
            ratios = [to_fixed_pair(half / q, bits) for q in rel]
        zero = [0] * (T + 1)
        for phase in (0, 1):
            s = [rng.randrange(-1 << bits, 1 << bits) for _ in range(T + 1)]
            # i^phase S as a (re, im) pair
            per_pole = [_geometric_product(*((zero, s) if phase else (s, zero)), r, bits)
                        for r in ratios]
            got = omega._letter_integrands(s, phase, pair_ratios, plan, bits)
            for letter, eps, (got_phase, got_ints) in zip((1, 2, 3), FORM_COEFFS, got):
                assert got_phase == phase ^ (letter in FLIPS[endpoint]), letter
                for part in (0, 1):
                    expected = [sum(e * pole[part][j] for e, pole in zip(eps, per_pole))
                                for j in range(T + 1)]
                    # the part of the other phase is exactly zero in the one-list kernel
                    ints = got_ints if part == got_phase else zero
                    # rounding: 3 units in the pair kernel, 6 in the four recurrences, and
                    # 9/4 for each partner's ratio, which the pair kernel takes as conj(r)
                    assert max(map(abs, map(int.__sub__, ints, expected))) <= 14


def test_segment_ratios_need_a_symmetry_axis():
    """Off the real and imaginary axes the poles have no mirror images."""
    poles = punctures(parse_phi("0.3", CFG), CFG)
    with pytest.raises(ValueError, match="symmetry axis"):
        omega._segment_ratios(CFG, poles, CTX.mpc(0), CTX.mpc("0.1", "0.1"))


@pytest.mark.parametrize("endpoint", ["1", "i"])
@pytest.mark.parametrize("phi", ["pi/4", "1.2", "0.3"])
def test_values_have_the_phase_of_their_letters(endpoint, phi):
    """Every sigma_c and every word value is exactly real or exactly
    imaginary: i to the number of its letters whose form gives the two poles
    of a pair opposite residues."""
    signed = build_signed_table(endpoint, phi, 6, CFG)
    words = build_table(endpoint, phi, 5, CFG)
    for key, value in itertools.chain(signed.values.items(), words.values.items()):
        flips = sum(letter in FLIPS[endpoint] for letter in key)
        assert (CTX.re(value) if flips % 2 else CTX.im(value)) == 0, key
        assert value != 0, key


def test_letter_plan_rejects_a_mixed_letter(monkeypatch):
    """A letter that takes one pole pair's sum and the other pair's
    difference has no single phase, on either axis."""
    monkeypatch.setattr(omega, "FORM_COEFFS", (FORM_COEFFS[0], (1, 1, 1, -1), FORM_COEFFS[2]))
    for endpoint in ("1", "i"):
        pc, segments = omega._path(endpoint, "pi/4", 1, CFG)
        with pytest.raises(ValueError, match="sum and the other"):
            omega._segment_ratios(CFG, pc.points, *segments[0])
    with pytest.raises(ValueError, match="sum and the other"):
        build_signed_table("1", "pi/4", 2, CFG)


@pytest.mark.parametrize("kind,endpoint,phi,depth", [
    pytest.param("signed", "1", "pi/4", 6, id="1-pi/4-6"),
    pytest.param("signed", "i", "1.2", 5, id="i-1.2-5"),
    pytest.param("get", "1", "pi/4", 6, id="words-1-pi/4-6"),
    pytest.param("get", "i", "1.2", 5, id="words-i-1.2-5")])
def test_last_signed_layer_matches_a_forward_step(kind, endpoint, phi, depth, tables):
    """Keys of size ``depth``, of a signed or a word table, come from value
    functionals at depth ``depth`` and from forward steps at depth
    ``depth + 1``."""
    build = getattr(tables, kind)
    shallow = build(endpoint, phi, depth, CFG)
    deep = build(endpoint, phi, depth + 1, CFG)
    assert shallow.values.keys() <= deep.values.keys()
    for key, value in shallow.values.items():
        assert abs(value - deep.value(key)) < CFG.eps(2), key


def test_cache_roundtrip(tmp_path, signed40_pi4_L4, table40_pi4_L4):
    path = save_table(signed40_pi4_L4, tmp_path)
    assert path.exists()
    loaded = load_table("1", "pi/4", 4, CFG, tmp_path)
    assert isinstance(loaded, SignedTable)
    assert loaded.values == signed40_pi4_L4.values
    # header schema: one table kind, so no kind field
    payload = json.loads(path.read_text())
    assert payload.keys() == {"version", "endpoint", "phi", "digits", "guard_digits",
                              "max_length", "sha256", "values"}
    assert len(payload["values"]) == math.comb(4 + 3, 3) - 1
    assert payload["values"]["2,2,3"].keys() == {"re", "im"}
    # word tables are not cached
    with pytest.raises(TypeError, match="signed"):
        save_table(table40_pi4_L4, tmp_path)


def test_cached_table_transparency(tmp_path):
    cfg = PrecisionConfig(25)
    cold = cached_table("1", "pi/3", 2, cfg, tmp_path)
    warm = cached_table("1", "pi/3", 2, cfg, tmp_path)
    assert cold.values == warm.values
    assert len(list_cache(tmp_path)) == 1
    assert clear_cache(tmp_path) == 1
    assert list_cache(tmp_path) == []


def test_cache_version_gate(tmp_path, signed40_pi4_L4):
    path = save_table(signed40_pi4_L4, tmp_path)
    payload = json.loads(path.read_text())
    payload["version"] = 999
    path.write_text(json.dumps(payload))
    assert load_table("1", "pi/4", 4, CFG, tmp_path) is None
    # a word table of version 3 is rebuilt as a signed table and its file overwritten
    payload["version"] = 3
    payload["values"] = {",".join(map(str, w)): {"re": "7", "im": "7"}
                         for w in itertools.chain.from_iterable(
                             itertools.product((1, 2, 3), repeat=n) for n in range(1, 5))}
    path.write_text(json.dumps(payload))
    rebuilt = cached_table("1", "pi/4", 4, CFG, tmp_path)
    assert rebuilt.values == signed40_pi4_L4.values
    assert json.loads(path.read_text())["version"] == _CACHE_VERSION == 4
    assert load_table("1", "pi/4", 4, CFG, tmp_path) is not None


def test_corrupt_word_value_is_rebuilt(tmp_path):
    """A cached value that was tampered with is a miss, not an input."""
    cfg = PrecisionConfig(20)
    expand(3, cfg, cache_dir=tmp_path)
    (path,) = list_cache(tmp_path)
    payload = json.loads(path.read_text())
    good = payload["values"]["1,2,3"]
    payload["values"]["1,2,3"] = {"re": "5", "im": "0"}
    path.write_text(json.dumps(payload))
    alpha3 = expand(3, cfg, cache_dir=tmp_path).alpha(3)
    ctx = cfg.context
    assert abs(alpha3 - ctx.mpf(9) / 4 * ctx.zeta(3)) < ctx.mpf("1e-18")
    assert json.loads(path.read_text())["values"]["1,2,3"] == good


def test_truncated_or_incomplete_cache_is_a_miss(tmp_path, signed40_pi4_L4):
    path = save_table(signed40_pi4_L4, tmp_path)
    text = path.read_text()
    path.write_text(text[:len(text) // 2])
    assert load_table("1", "pi/4", 4, CFG, tmp_path) is None
    # a key missing, or a decreasing key in its place, under a digest that matches
    for swap in (None, "3,1"):
        payload = json.loads(text)
        item = payload["values"].pop("1,3")
        if swap:
            payload["values"][swap] = item
        payload["sha256"] = _values_digest(payload["values"])
        path.write_text(json.dumps(payload))
        assert load_table("1", "pi/4", 4, CFG, tmp_path) is None, swap
    rebuilt = cached_table("1", "pi/4", 4, CFG, tmp_path)
    assert rebuilt.value((1, 3)) == signed40_pi4_L4.value((1, 3))
    assert json.loads(path.read_text()) == json.loads(text)


def test_cache_header_must_match_request(tmp_path, signed40_pi4_L4):
    path = save_table(signed40_pi4_L4, tmp_path)
    text = path.read_text()
    for key, value in (("endpoint", "i"), ("phi", "0.3"), ("digits", 41),
                       ("guard_digits", 11), ("max_length", 3)):
        payload = json.loads(text)
        payload[key] = value
        path.write_text(json.dumps(payload))
        assert load_table("1", "pi/4", 4, CFG, tmp_path) is None, key
        payload.pop(key)
        path.write_text(json.dumps(payload))
        assert load_table("1", "pi/4", 4, CFG, tmp_path) is None, key


def test_is_pi_over_4():
    for label in ("pi/4", "1*pi/4", "2*pi/8", " pi / 4 "):
        assert is_pi_over_4(label, CFG), label
    for label in ("pi/6", "0.785398"):
        assert not is_pi_over_4(label, CFG), label


def test_phi_spellings_share_one_cache_file(tmp_path):
    cfg = PrecisionConfig(20)
    assert [canonical_phi(label) for label in ("pi/4", "1*pi/4", " pi/4 ", "2*pi/8")] \
        == ["pi/4"] * 4
    assert canonical_phi("3*pi/8") == "3*pi/8" and canonical_phi(" 0.3 ") == "0.3"
    # the existing name of pi/4 is kept, so caches written before stay valid
    assert (_cache_path(tmp_path, "1", "pi/4", 2, cfg).name
            == "omega_end1_phipi_over_4_L2_d20_g10.json")
    path = save_table(build_signed_table("1", "1*pi/4", 2, cfg), tmp_path)
    assert path == _cache_path(tmp_path, "1", "pi/4", 2, cfg)
    assert json.loads(path.read_text())["phi"] == "pi/4"
    for label in ("pi/4", " pi/4 ", "1*pi/4"):
        assert load_table("1", label, 2, cfg, tmp_path) is not None, label
    assert len(list_cache(tmp_path)) == 1
