import collections
import functools
import itertools
import json
import math
import random
import re

import pytest

from lawsonarea import omega
from lawsonarea.mpl import convert_word, li, mpl_spec
from lawsonarea.engine import M_MATS, expand
from lawsonarea.omega import (_CACHE_VERSION, FORM_COEFFS, OmegaTable, SignedTable,
                              _cache_path, _values_digest,
                              build_signed_table, build_table, cached_table, canonical_phi,
                              chen_compose, gauss_legendre_rule, is_pi_over_4, load_table,
                              parse_phi, punctures, punctures_fixed, quadrature_oracle,
                              save_table)
from lawsonarea.precision import PrecisionConfig, from_fixed_pair, to_fixed_pair
from lawsonarea.verify import closed_forms_pi4, integral_identity_residuals
from lawsonarea.words import parse_word, shuffle

CFG = PrecisionConfig(40)
CTX = CFG.context
I = CTX.mpc(0, 1)


def test_parse_phi():
    """phi is evaluated at the poles' scale, ``cfg.pole_bits``."""
    with CTX.workprec(CFG.pole_bits):
        assert abs(parse_phi("pi/4", CFG) - CTX.pi / 4) == 0
        assert abs(parse_phi("3*pi/8", CFG) - 3 * CTX.pi / 8) == 0
        assert abs(parse_phi("0.3", CFG) - CTX.mpf("0.3")) == 0
        assert abs(parse_phi("2*pi/8", CFG) - CTX.pi / 4) == 0
    with pytest.raises(ValueError):
        parse_phi("pi/2", CFG)
    with pytest.raises(ValueError, match="strictly between"):
        parse_phi("-pi/6", CFG)
    with pytest.raises(ValueError):
        parse_phi("0", CFG)
    with pytest.raises(TypeError):
        parse_phi(0.4, CFG)


@pytest.mark.parametrize("label, reason", [
    ("pi/0", "has a zero denominator"),
    ("3*pi/0", "has a zero denominator"),
    ("pi/4/2", "is not of the form n*pi/d"),
    ("-pi/-6", "is not of the form n*pi/d"),
    ("x*pi/4", "is not of the form n*pi/d"),
])
def test_phi_with_zero_or_malformed_denominator_is_a_value_error(label, reason):
    """Both parsers name the bad phi in one ValueError, not a ZeroDivisionError."""
    for parse in (lambda text: parse_phi(text, CFG), canonical_phi):
        with pytest.raises(ValueError, match=re.escape(f"phi {label!r} {reason}")):
            parse(label)


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


def _segment_table(phi, z0, z1, depth):
    """The word table of the one segment [z0, z1], (re, im) pairs at
    ``CFG.pole_bits``, straight from the transport's integers."""
    poles = punctures_fixed(parse_phi(phi, CFG), CFG)
    values = omega._transport(CFG, poles, [(z0, z1)], depth, omega._word_child)
    values[()] = 0, 1 << CFG.fixed_bits
    return OmegaTable(CFG, phi, (z0, z1), depth, values)


def test_chen_constant_path(table40_pi4_L4):
    const = OmegaTable.constant_path(CFG, "pi/4", table40_pi4_L4.ends[1], 4)
    composed = chen_compose(table40_pi4_L4, const)
    assert composed.values == table40_pi4_L4.values
    for word in table40_pi4_L4.words():
        assert abs(composed.value(word) - table40_pi4_L4.value(word)) == 0


def test_chen_split_matches_direct(tables):
    """Three segments of [0, 1] glued on the integers match the direct table."""
    bits = CFG.pole_bits
    # 0, 1/2, 3/4 and 1 as points at 2^pole_bits
    cuts = [(0, 0), (1 << bits - 1, 0), (3 << bits - 2, 0), (1 << bits, 0)]
    pieces = [_segment_table("pi/4", a, b, 2) for a, b in zip(cuts[:-1], cuts[1:])]
    glued = pieces[0]
    for piece in pieces[1:]:
        glued = chen_compose(glued, piece)
    direct = tables.get("1", "pi/4", 2, CFG)
    assert glued.ends == direct.ends and glued.words() == direct.words()
    for word in direct.words():
        assert abs(glued.value(word) - direct.value(word)) < CFG.eps(6), word
    # single letters compose additively
    for letter in (1, 2, 3):
        total = sum(piece.value((letter,)) for piece in pieces)
        assert abs(total - direct.value((letter,))) < CFG.eps(6)


def test_chen_compose_guards(table40_pi4_L4, tables):
    end = table40_pi4_L4.ends[1]
    # a signed sum does not split into prefix and suffix sums: a signed table
    # on either side is refused by its type
    signed = tables.signed("1", "pi/4", 2, CFG)
    for left, right in ((signed, table40_pi4_L4), (table40_pi4_L4, signed)):
        with pytest.raises(TypeError, match="word tables"):
            chen_compose(left, right)
    other_cfg = PrecisionConfig(60)
    other = build_table("1", "pi/4", 1, other_cfg)
    with pytest.raises(ValueError, match="precision"):
        chen_compose(table40_pi4_L4, other)
    mismatched = OmegaTable.constant_path(CFG, "0.3", end, 4)
    with pytest.raises(ValueError, match="phi"):
        chen_compose(table40_pi4_L4, mismatched)
    wrong_anchor = OmegaTable.constant_path(CFG, "pi/4", (0, 1 << CFG.pole_bits), 4)
    with pytest.raises(ValueError, match="do not compose"):
        chen_compose(table40_pi4_L4, wrong_anchor)


def test_chen_compose_compares_angles_by_value(tables, pi_over_4_80):
    """A table at "pi/4" and one labelled with an 80-digit decimal of pi/4
    are at one angle, as ``is_pi_over_4`` reads them: they compose either
    way round, and the tables built at the two spellings hold equal values."""
    spelled = tables.get("1", "pi/4", 2, CFG)
    decimal = tables.get("1", pi_over_4_80, 2, CFG)
    assert decimal.values == spelled.values
    end = spelled.ends[1]
    for table, other_label in ((spelled, pi_over_4_80), (decimal, "pi/4")):
        const = OmegaTable.constant_path(CFG, other_label, end, 2)
        composed = chen_compose(table, const)
        assert composed.values == table.values
        assert composed.phi_label == table.phi_label


@pytest.mark.parametrize("offset", [(1, 0), (-1, 0), (0, 1)])
def test_chen_compose_needs_equal_ends(table40_pi4_L4, offset):
    """Path ends are exact integers at ``pole_bits``: a right piece that
    starts one unit away from the left one's end is refused."""
    (x, y), (dx, dy) = table40_pi4_L4.ends[1], offset
    near = OmegaTable.constant_path(CFG, "pi/4", (x + dx, y + dy), 4)
    with pytest.raises(ValueError, match="do not compose"):
        chen_compose(table40_pi4_L4, near)


def test_chen_compose_refuses_a_complex_sum():
    """A word on a path that turns from the real to the imaginary axis is
    neither real nor imaginary, which a (phase, x) entry cannot hold."""
    eighth = 1 << CFG.pole_bits - 3
    left = _segment_table("pi/4", (eighth, 0), (0, 0), 1)
    right = _segment_table("pi/4", (0, 0), (0, eighth), 1)
    with pytest.raises(ValueError, match="neither real nor imaginary"):
        chen_compose(left, right)


def test_word_and_signed_tables_share_their_letters(tables):
    """The single letters of the word and the signed table of one path are
    the same (phase, x) integers: one driver, one representation."""
    for endpoint, phi in (("1", "pi/4"), ("i", "1.2")):
        words = tables.get(endpoint, phi, 2, CFG)
        signed = tables.signed(endpoint, phi, 2, CFG)
        assert words.ends == signed.ends
        for letter in (1, 2, 3):
            assert words.values[(letter,)] == signed.values[(letter,)], (endpoint, letter)
            assert type(words.values[(letter,)][1]) is int


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


def test_quadrature_refuses_a_pole_next_to_the_path():
    """Near phi = 0 the derived node count has no bound (56 182 at 1e-6): the
    oracle refuses it at once, naming phi, instead of running for hours."""
    import time
    start = time.process_time()
    with pytest.raises(ValueError, match="phi = 1e-06"):
        quadrature_oracle((1,), "1", "1e-6", PrecisionConfig(30))
    assert time.process_time() - start < 1


def test_quadrature_far_path_near_pi_over_2_needs_no_extra_bits():
    """On the path to 1 with phi >= pi/4, and to i with phi <= pi/4, every
    node keeps |z^2 - p^2| >= 1, so the first level's budget takes delta = 1
    there: near pi/2 the path to 1 runs at 21 extra bits at 30 digits, where
    delta = cos phi would ask for 36, more than the poles' 32, and agrees
    with transport to the working precision; the mirror path, to i near 0,
    takes the same scale."""
    cfg = PrecisionConfig(30)
    table = build_table("1", "1.5707", 2, cfg)
    for word in table.words():
        if word:
            quad = quadrature_oracle(word, "1", "1.5707", cfg)
            assert abs(quad - table.value(word)) < cfg.eps(), word
    far = [omega._quadrature_size(end, parse_phi(phi, cfg), cfg)
           for end, phi in (("1", "1.5707"), ("i", "0.0001"))]
    assert far == [(38, cfg.working_bits + 21)] * 2


@pytest.mark.parametrize("digits", [30, 40, 60])
def test_quadrature_scale_is_unchanged_at_the_benchmark_angles(digits):
    """delta = 1 on the far path leaves P as it was with delta = min(sin phi,
    cos phi) at the five angles of the benchmark's triangle, and at (i, 1.2)
    and (1, 0.3), the near paths, delta is min(sin phi, cos phi)."""
    cfg = PrecisionConfig(digits)
    for endpoint, phi in [("1", a) for a in ("pi/6", "pi/5", "pi/4", "3*pi/10", "pi/3")] + [
            ("i", "1.2"), ("1", "0.3")]:
        value = parse_phi(phi, cfg)
        n, bits = omega._quadrature_size(endpoint, value, cfg)
        near = min(math.sin(float(value)), math.cos(float(value)))
        assert bits == omega._quadrature_bits(n, near, cfg), (endpoint, phi)


def test_quadrature_refuses_a_length3_word_above_its_node_cap(monkeypatch):
    """At phi = 0.1 and 30 digits the derived count is above the length-3 cap
    but below the general one: a word of length 2 runs, and one of length 3,
    whose second levels would cost n^3, is refused at once, naming phi,
    before any level is built."""
    import time
    cfg = PrecisionConfig(30)
    n, _ = omega._quadrature_size("1", parse_phi("0.1", cfg), cfg)
    assert omega._MAX_NODES_LENGTH3 < n <= omega._MAX_NODES
    calls = []
    first_level = omega._first_level
    monkeypatch.setattr(omega, "_first_level",
                        lambda *args: calls.append(args[0]) or first_level(*args))
    omega._quadrature_cache.clear()
    start = time.process_time()
    with pytest.raises(ValueError, match="phi = 0.1 needs"):
        quadrature_oracle((1, 2, 3), "1", "0.1", cfg)
    assert time.process_time() - start < 1
    assert calls == [] and not omega._quadrature_cache
    quadrature_oracle((1, 2), "1", "0.1", cfg)
    assert len(calls) == 1
    start = time.process_time()
    with pytest.raises(ValueError, match="phi = 0.1 needs"):
        quadrature_oracle((1, 2, 3), "1", "0.1", cfg)
    assert time.process_time() - start < 1
    assert len(calls) == 1


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


@pytest.mark.parametrize("phi", ["pi/6", "pi/5", "pi/4", "3*pi/10", "pi/3"])
def test_three_routes_agree_past_the_working_precision(phi):
    """Transport, quadrature and polylogarithms on the 12 words of length
    <= 2 at 30 digits, at the five angles of the benchmark's triangle.  Each
    route takes phi and the poles at ``cfg.pole_bits`` and rounds its value
    once, so each nonzero part rounds to the same binary value on all three
    routes; the worst spread measured was 2.3e-46 (at pi/4, quadrature dust
    in a part that is exactly zero), and with the poles at the working
    precision it was one unit of the working precision, 9.2e-41 at pi/6 and
    pi/3."""
    cfg = PrecisionConfig(30)
    ctx = cfg.context
    table = build_table("1", phi, 2, cfg)
    phi_value = parse_phi(phi, cfg)
    words = [(i,) for i in (1, 2, 3)] + [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]
    for word in words:
        routes = (table.value(word), quadrature_oracle(word, "1", phi, cfg),
                  convert_word(word, phi_value, cfg).value(cfg))
        spread = max(abs(a - b) for a in routes for b in routes)
        assert spread < ctx.mpf("1e-44"), (word, spread)


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
    _, bits = omega._quadrature_size("1", parse_phi("0.7", cfg), cfg)
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
    n = 12
    bits = omega._quadrature_bits(n, 1, cfg)
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
        quad = quadrature_oracle(word, "1", "pi/4", cfg)
        assert abs(quad - table.value(word)) < cfg.eps(2), word


def test_quadrature_length3_words_share_one_second_level(monkeypatch):
    """The first length-3 word at a key builds one second level per outer
    node; a second one at the same key builds none and equals its value
    computed on an empty cache."""
    cfg = PrecisionConfig(20)
    n, _ = omega._quadrature_size("1", parse_phi("pi/4", cfg), cfg)
    calls = []
    first_level = omega._first_level
    monkeypatch.setattr(omega, "_first_level",
                        lambda *args: calls.append(args[0]) or first_level(*args))
    omega._quadrature_cache.clear()
    quadrature_oracle((2, 2, 3), "1", "pi/4", cfg)
    assert len(calls) == 1 + n
    value = quadrature_oracle((1, 3, 2), "1", "pi/4", cfg)
    assert len(calls) == 1 + n
    omega._quadrature_cache.clear()
    assert quadrature_oracle((1, 3, 2), "1", "pi/4", cfg) == value


def test_oracle_caches_are_keyed_by_every_input():
    """Cached oracle values equal fresh ones whatever order the keys come in."""
    cfg30, cfg40 = PrecisionConfig(30), PrecisionConfig(40)
    # 0.75 is exact in binary, so its parsed value is the same at both precisions
    base = ("1", "0.75", cfg30)
    variants = [("i", "0.75", cfg30), ("1", "pi/6", cfg30), ("1", "0.75", cfg40)]
    calls = [call for variant in variants for call in (base, variant)]
    words = [(1,), (2, 1), (3, 2)]
    omega._quadrature_cache.clear()
    seen = [(call, word, quadrature_oracle(word, *call))
            for call in calls for word in words]
    assert len(omega._quadrature_cache) == 1 + len(variants)
    # a different spelling of the same angle reuses its entry
    quadrature_oracle((2, 1), "1", "1*pi/6", cfg30)
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


def test_quadrature_keeps_every_digit_at_60_digits():
    """The node count grows with the precision: at 60 target digits every
    word of length <= 2 is within ten units of the working precision of a
    transport table 30 digits up, on the paths with the nearest poles."""
    cfg = PrecisionConfig(60)
    for endpoint, phi in (("1", "0.3"), ("1", "pi/6"), ("i", "1.2")):
        reference = build_table(endpoint, phi, 2, PrecisionConfig(90))
        for word in reference.words():
            if word:
                quad = quadrature_oracle(word, endpoint, phi, cfg)
                assert abs(quad - reference.value(word)) < cfg.eps(1), (endpoint, phi, word)


@pytest.mark.parametrize("endpoint,phi", [("i", "0.3"), ("1", "1.2")])
def test_precision_doubling_depth5(endpoint, phi):
    lo = PrecisionConfig(40)
    hi = PrecisionConfig(80)
    tl = build_table(endpoint, phi, 5, lo)
    th = build_table(endpoint, phi, 5, hi)
    for word in tl.words():
        assert abs(tl.value(word) - th.value(word)) < lo.eps(2), word


@pytest.mark.parametrize("endpoint,phi,bound", [("1", "pi/6", 4), ("i", "1.2", 4),
                                                ("1", "0.3", 8)])
def test_depth3_word_tables_carry_only_their_last_rounding(endpoint, phi, bound):
    """At 30 target digits every word of a depth-3 table is within ``bound``
    units of 2^-prec of a table 30 digits up.  With the poles at the working
    precision the worst words were 8.0 / 23.2 / 24.9 units off; taken at
    ``cfg.pole_bits`` they read 3.5 / 3.6 / 7.3, about the half unit in the
    last place of the values' final rounding (|Omega(2, 1)| = 4.36 at pi/6)."""
    cfg = PrecisionConfig(30)
    table = build_table(endpoint, phi, 3, cfg)
    reference = build_table(endpoint, phi, 3, PrecisionConfig(60))
    unit = reference.cfg.context.ldexp(1, -cfg.context.prec)
    for word in table.words():
        assert abs(table.value(word) - reference.value(word)) < bound * unit, word


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
    return _segment_table(phi, (0, 0), (1 << CFG.pole_bits - 1, 0), depth)


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
    for word in table.words():
        if word:
            key = tuple(sorted(word))
            inv = sum(a > b for a, b in itertools.combinations(word, 2))
            sums[key] = sums.get(key, 0) + (-1) ** inv * table.value(word)
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
    poles, segments = omega._path("1", "pi/4", depth, CFG)
    plus = OmegaTable(CFG, "pi/4", omega._path_ends("1", CFG.pole_bits), depth, omega._transport(
        CFG, poles, segments, depth, lambda key, letter: (tuple(sorted(key + (letter,))), 1)))
    letters = [plus.value((i,)) for i in (1, 2, 3)]
    for key in plus.words():
        value = plus.value(key)
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
    for name in ("_forward_step", "_value_functionals", "_dot"):
        monkeypatch.setattr(omega, name, lambda *args, _name=name, _fn=getattr(omega, name):
                            counts.update([_name]) or _fn(*args))
    segments = len(omega._path("1", "pi/4", depth, CFG)[1])
    for build, nodes in ((build_table, lambda n: 3 ** n),
                         (build_signed_table, lambda n: math.comb(n + 2, 2))):
        counts.clear()
        build("1", "pi/4", depth, CFG)
        assert counts == {"_forward_step": segments * sum(map(nodes, range(depth - 1))),
                          "_value_functionals": segments,
                          "_dot": segments * 3 * nodes(depth - 1)}, build


@pytest.mark.parametrize("endpoint, phi", [("1", "pi/4"), ("i", "0.3")])
def test_word_entry_follows_only_the_prefixes(monkeypatch, tables, endpoint, phi):
    """One word's entry, transported along its prefixes alone, holds the
    integers of the whole table of its length, for every word of length
    <= 4; it takes L - 1 forward steps and one dot per segment."""
    for length in range(1, 5):
        table = tables.get(endpoint, phi, length, CFG)
        for word in itertools.product((1, 2, 3), repeat=length):
            assert omega.word_entry(endpoint, phi, word, CFG) == table.values[word], word
    counts = collections.Counter()
    for name in ("_forward_step", "_dot"):
        monkeypatch.setattr(omega, name, lambda *args, _name=name, _fn=getattr(omega, name):
                            counts.update([_name]) or _fn(*args))
    omega.word_entry(endpoint, phi, (3, 1, 2, 2), CFG)
    segments = len(omega._path(endpoint, phi, 4, CFG)[1])
    assert counts == {"_forward_step": 3 * segments, "_dot": segments}


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


def _form_constants(endpoint, phi, cfg):
    """Each letter's form over 4 k_i N_i / D, from the closed forms: on the real
    axis k = (i 2cs, c, i s); on the imaginary one dlambda = i dmu gives
    (-i 2cs, -i c, s); c + i s is the pole e^(i phi) at ``cfg.pole_bits``."""
    ctx = cfg.context
    c, s = (ctx.mpf((x, -cfg.pole_bits)) for x in punctures_fixed(parse_phi(phi, cfg), cfg)[0])
    i = ctx.mpc(0, 1)
    return (i * 2 * c * s, c, i * s) if endpoint == "1" else (-i * 2 * c * s, -i * c, s)


@pytest.mark.parametrize("endpoint", ["1", "i"])
@pytest.mark.parametrize("phi", ["pi/4", "1.2", "0.3"])
def test_pair_kernel_matches_four_poles(endpoint, phi):
    """The forward step on the pole pairs' common denominator against one
    complex recurrence per pole, on every segment of the path, for a real
    series with |S_j| <= 1: each letter's coefficients of v^1..v^T, times
    the letter's constant, equal the four poles' FORM_COEFFS sum of the
    integrand divided by j + 1.  The per-pole reference rounds each step
    (3/2 units per part) and its ratio (9/4), 15 units over the four poles;
    the step's integrand carries at most 1.1 units, and its division by
    j + 1 floors once more: at most 16.1/(j + 1) + 1 units in all."""
    poles, segments = omega._path(endpoint, phi, 1, CFG)
    T, bits = omega._series_terms(CFG), CFG.fixed_bits
    rng = random.Random(7)
    for z0, z1 in segments:
        kernel = omega._segment_kernel(CFG, poles, z0, z1)
        assert kernel[0] == (endpoint == "i")
        # at the poles' own scale, as in the kernel
        with CTX.workprec(CFG.pole_bits):
            z0, z1, *points = (from_fixed_pair(*z, CFG.pole_bits, CTX) for z in (z0, z1, *poles))
            mid, half = (z0 + z1) / 2, (z1 - z0) / 2
            ratios = [to_fixed_pair(half / (p - mid), bits) for p in points]
        s = [rng.randrange(-1 << bits, 1 << bits) for _ in range(T + 1)]
        per_pole = [_geometric_product(s, [0] * (T + 1), r, bits) for r in ratios]
        steps = omega._forward_step(s, kernel)
        with CTX.workprec(CFG.pole_bits + 64):
            constants = _form_constants(endpoint, phi, CFG)
            for letter, eps, k, (series, _) in zip((1, 2, 3), FORM_COEFFS, constants, steps):
                for j, x in enumerate(series[1:]):
                    expected = CTX.mpc(*(sum(e * pole[part][j] for e, pole in zip(eps, per_pole))
                                         for part in (0, 1))) / (j + 1)
                    assert abs(k * x - expected) <= 16.1 / (j + 1) + 1, (letter, j)


def test_segment_kernel_needs_an_axis():
    """The recurrence is real only on the real or the imaginary axis: a
    segment off both is refused, and so is a path whose segments lie on both."""
    poles = punctures_fixed(parse_phi("0.3", CFG), CFG)
    tenth = (1 << CFG.pole_bits) // 10
    with pytest.raises(ValueError, match="neither the real nor the imaginary axis"):
        omega._segment_kernel(CFG, poles, (0, 0), (tenth, tenth))
    with pytest.raises(ValueError, match="both axes"):
        omega._transport(CFG, poles, [((0, 0), (tenth, 0)), ((0, 0), (0, tenth))], 2,
                         omega._word_child)


@pytest.mark.parametrize("phi", ["0.3", "pi/4", "1.2"])
def test_closed_forms_match_form_coeffs(phi):
    """The transport's forms, 4 k_i N_i(lambda)/D(lambda) with
    D = lambda^4 - 2 cos(2 phi) lambda^2 + 1, N = (lambda, lambda^2 - 1,
    lambda^2 + 1) and k = (i 2cs, c, i s), are the quadrature's and the
    polylogarithms' FORM_COEFFS sums over the four poles, at 60 digits, on
    the real axis, on the imaginary axis and off both."""
    cfg = PrecisionConfig(60)
    ctx = cfg.context
    points = punctures(parse_phi(phi, cfg), cfg)
    c, s = ctx.re(points[0]), ctx.im(points[0])
    constants = _form_constants("1", phi, cfg)
    for lam in (ctx.mpc("0.3"), ctx.mpc("1.7"), ctx.mpc(0, "0.4"), ctx.mpc(0, "-1.3"),
                ctx.mpc("0.5", "0.7"), ctx.mpc("-1.1", "0.2")):
        denominator = lam ** 4 - 2 * (c * c - s * s) * lam ** 2 + 1
        for k, numerator, eps in zip(constants, (lam, lam ** 2 - 1, lam ** 2 + 1), FORM_COEFFS):
            pole_sum = sum(e / (lam - p) for e, p in zip(eps, points))
            assert abs(4 * k * numerator / denominator - pole_sum) < cfg.eps(2), (phi, lam)


@pytest.mark.parametrize("endpoint", ["1", "i"])
@pytest.mark.parametrize("phi", ["pi/4", "1.2", "0.3"])
def test_values_have_the_phase_of_their_letters(endpoint, phi):
    """Every sigma_c and every word value is exactly real or exactly
    imaginary: i to the number of its letters whose form gives the two poles
    of a pair opposite residues."""
    signed = build_signed_table(endpoint, phi, 6, CFG)
    words = build_table(endpoint, phi, 5, CFG)
    for key, value in ((key, table.value(key)) for table in (signed, words)
                       for key in table.words()):
        flips = sum(letter in FLIPS[endpoint] for letter in key)
        assert (CTX.re(value) if flips % 2 else CTX.im(value)) == 0, key
        assert value != 0, key


def _det_residuals(table, perturbed=None):
    """Per multiset c with 1 <= |c| <= depth, the coefficient of y^c in
    det F(y), F(y) = sum_c sigma_c y^c M1^c1 M2^c2 M3^c3 with the engine's
    ``M_MATS``, over its bound 8 * 2^-prec * sum_{a+b=c} |sigma_a| |sigma_b|:
    each product of two sigmas, rounded once to the working precision, is off
    by a few units of its size.  ``perturbed`` maps keys to factors."""
    ctx = table.cfg.context
    counts_of = lambda key: tuple(key.count(letter) for letter in (1, 2, 3))
    F = {(0, 0, 0): [[1, 0], [0, 1]]}
    for key in table.values:
        matrix = [[1, 0], [0, 1]]
        for letter in key:
            m = M_MATS[letter - 1]
            matrix = [[sum(matrix[r][k] * m[k][col] for k in (0, 1)) for col in (0, 1)]
                      for r in (0, 1)]
        sigma = table.value(key) * (perturbed or {}).get(key, 1)
        F[counts_of(key)] = [[sigma * ctx.mpc(x) for x in row] for row in matrix]
    size = {c: max(abs(x) for row in f for x in row) for c, f in F.items()}
    ratios = {}
    for c in F:
        if c == (0, 0, 0):
            continue
        residual, scale = 0, 0
        for a in itertools.product(*(range(n + 1) for n in c)):
            b = tuple(n - k for n, k in zip(c, a))
            residual += F[a][0][0] * F[b][1][1] - F[a][0][1] * F[b][1][0]
            scale += size[a] * size[b]
        ratios[c] = abs(residual) / (8 * ctx.ldexp(scale, -ctx.prec))
    return ratios


@pytest.mark.parametrize("endpoint,phi,depth", [("1", "pi/4", 8), ("i", "1.2", 6)])
def test_signed_tables_have_det_f_one(endpoint, phi, depth, tables):
    """The frame solves a 2x2 system whose coefficient sum_i s_i omega_i M_i is
    traceless, so det F(y) = 1 identically (Liouville): every coefficient of
    y^c, 1 <= |c| <= depth, vanishes within its bound.  One sigma below the
    top layer moved by 1e-30 relative breaks it."""
    cfg = PrecisionConfig(40, 12)
    table = tables.signed(endpoint, phi, depth, cfg)
    assert max(_det_residuals(table).values()) <= 1
    assert max(_det_residuals(table, {(1, 2, 3): 1 + cfg.context.mpf("1e-30")}).values()) > 1


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
    for key in shallow.values:
        assert abs(shallow.value(key) - deep.value(key)) < CFG.eps(2), key


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
    assert len(list(tmp_path.glob("omega_*.json"))) == 1
    # with no directory the table is built in process, the same to the bit
    assert cached_table("1", "pi/3", 2, cfg).values == cold.values


def test_cache_version_gate(tmp_path, signed40_pi4_L4):
    path = save_table(signed40_pi4_L4, tmp_path)
    payload = json.loads(path.read_text())
    # 4 rounded the poles to the working precision; 6 held the pole-pair kernel's integers
    for stale in (999, 4, 6):
        payload["version"] = stale
        path.write_text(json.dumps(payload))
        assert load_table("1", "pi/4", 4, CFG, tmp_path) is None, stale
    # a word table of version 3 is rebuilt as a signed table and its file overwritten
    payload["version"] = 3
    payload["values"] = {",".join(map(str, w)): {"re": "7", "im": "7"}
                         for w in itertools.chain.from_iterable(
                             itertools.product((1, 2, 3), repeat=n) for n in range(1, 5))}
    path.write_text(json.dumps(payload))
    rebuilt = cached_table("1", "pi/4", 4, CFG, tmp_path)
    assert rebuilt.values == signed40_pi4_L4.values
    assert json.loads(path.read_text())["version"] == _CACHE_VERSION == 7
    assert load_table("1", "pi/4", 4, CFG, tmp_path) is not None


def test_version5_cache_file_is_a_miss_and_rebuilt(tmp_path, signed40_pi4_L4):
    """A file of version 5, which held sigma as mpmath decimal strings under
    a matching digest, is a miss: the table is rebuilt from the transport and
    the file overwritten with the transport's integers at the current version."""
    path = save_table(signed40_pi4_L4, tmp_path)
    payload = json.loads(path.read_text())
    payload["version"] = 5
    for key in payload["values"]:
        value = signed40_pi4_L4.value(parse_word(key))
        payload["values"][key] = {"re": CTX.nstr(CTX.re(value), CFG.working_digits + 15),
                                  "im": CTX.nstr(CTX.im(value), CFG.working_digits + 15)}
    payload["sha256"] = _values_digest(payload["values"])
    path.write_text(json.dumps(payload))
    assert load_table("1", "pi/4", 4, CFG, tmp_path) is None
    rebuilt = cached_table("1", "pi/4", 4, CFG, tmp_path)
    assert rebuilt.values == signed40_pi4_L4.values
    assert json.loads(path.read_text())["version"] == _CACHE_VERSION
    assert load_table("1", "pi/4", 4, CFG, tmp_path).values == signed40_pi4_L4.values


def test_corrupt_word_value_is_rebuilt(tmp_path):
    """A cached value that was tampered with is a miss, not an input."""
    cfg = PrecisionConfig(20)
    expand(3, cfg, table=cached_table("1", "pi/4", 4, cfg, tmp_path))
    (path,) = tmp_path.glob("omega_*.json")
    payload = json.loads(path.read_text())
    good = payload["values"]["1,2,3"]
    payload["values"]["1,2,3"] = {"re": "5", "im": "0"}
    path.write_text(json.dumps(payload))
    alpha3 = expand(3, cfg, table=cached_table("1", "pi/4", 4, cfg, tmp_path)).alpha(3)
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


def test_is_pi_over_4(pi_over_4_80):
    """pi/4 is what rounds to parse_phi("pi/4") at ``pole_bits``, exactly:
    a 55-digit decimal, 4e-56 off pi/4 and so below eps(2) at 40 digits, is
    another angle."""
    for label in ("pi/4", "1*pi/4", "2*pi/8", " pi / 4 ", pi_over_4_80):
        assert is_pi_over_4(label, CFG), label
    for label in ("pi/6", "0.785398", pi_over_4_80[:57]):
        assert not is_pi_over_4(label, CFG), label


def test_phi_spellings_share_one_cache_file(tmp_path):
    cfg = PrecisionConfig(20)
    labels = ("pi/4", "1*pi/4", " pi/4 ", "2*pi/8", " pi / 4 ", "+pi/4")
    assert [canonical_phi(label) for label in labels] == ["pi/4"] * len(labels)
    assert canonical_phi("3*pi/8") == "3*pi/8" and canonical_phi(" 0.3 ") == "0.3"
    assert canonical_phi("6*pi/9") == "2*pi/3" and canonical_phi("-pi/6") == "-1*pi/6"
    # the existing name of pi/4 is kept, so caches written before stay valid
    assert (_cache_path(tmp_path, "1", "pi/4", 2, cfg).name
            == "omega_end1_phipi_over_4_L2_d20_g10.json")
    path = save_table(build_signed_table("1", "1*pi/4", 2, cfg), tmp_path)
    assert path == _cache_path(tmp_path, "1", "pi/4", 2, cfg)
    assert json.loads(path.read_text())["phi"] == "pi/4"
    for label in ("pi/4", " pi/4 ", "1*pi/4"):
        assert load_table("1", label, 2, cfg, tmp_path) is not None, label
    assert len(list(tmp_path.glob("omega_*.json"))) == 1
