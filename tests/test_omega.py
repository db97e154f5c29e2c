import json
import random

import pytest

from lawsonarea import omega
from lawsonarea.mpl import FORM_COEFFS, convert_word, li, mpl_spec, punctures
from lawsonarea.engine import expand
from lawsonarea.omega import (_CACHE_VERSION, OmegaTable, _cache_path, _segment_table,
                              _values_digest, build_table, cached_table, canonical_phi,
                              chen_compose, clear_cache, gauss_legendre_rule,
                              is_pi_over_4, list_cache, load_table, paired_forms,
                              parse_phi, quadrature_oracle, save_table)
from lawsonarea.precision import PrecisionConfig
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
    from lawsonarea.mpl import punctures
    points = punctures(parse_phi("pi/4", CFG), CFG)
    cuts = [ctx.mpf(0), ctx.mpf(1) / 2, ctx.mpf(3) / 4, ctx.mpf(1)]
    pieces = [_segment_table(CFG, "pi/4", points, ctx.mpc(a), ctx.mpc(b), 2)
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
    points = punctures(parse_phi("0.7", cfg), cfg)
    forms = paired_forms(points[0], points[1])
    for z in (ctx.mpc("0.3", "0.4"), ctx.mpc("-1.2", "0.5"), ctx.mpc("0.1", "-2")):
        for value, eps in zip(forms(z), FORM_COEFFS):
            expected = sum(e / (z - p) for e, p in zip(eps, points))
            assert abs(value - expected) < cfg.eps(2) * max(1, abs(expected)), z


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


def test_cache_roundtrip(tmp_path, table40_pi4_L4):
    path = save_table(table40_pi4_L4, tmp_path)
    assert path.exists()
    loaded = load_table("1", "pi/4", 4, CFG, tmp_path)
    assert loaded is not None
    for word in table40_pi4_L4.words():
        assert loaded.value(word) == table40_pi4_L4.value(word)
    # header schema
    payload = json.loads(path.read_text())
    assert {"version", "endpoint", "phi", "digits", "max_length",
            "values"} <= payload.keys()
    assert payload["values"]["2,2,3"].keys() == {"re", "im"}


def test_cached_table_transparency(tmp_path):
    cfg = PrecisionConfig(25)
    cold = cached_table("1", "pi/3", 2, cfg, tmp_path)
    warm = cached_table("1", "pi/3", 2, cfg, tmp_path)
    for word in cold.words():
        assert cold.value(word) == warm.value(word)
    assert len(list_cache(tmp_path)) == 1
    assert clear_cache(tmp_path) == 1
    assert list_cache(tmp_path) == []


def test_cache_version_gate(tmp_path, table40_pi4_L4):
    path = save_table(table40_pi4_L4, tmp_path)
    payload = json.loads(path.read_text())
    payload["version"] = 999
    path.write_text(json.dumps(payload))
    assert load_table("1", "pi/4", 4, CFG, tmp_path) is None
    # a table from the previous kernel is rebuilt and its file overwritten
    payload["version"] = 1
    payload["values"] = {key: {"re": "7", "im": "7"} for key in payload["values"]}
    path.write_text(json.dumps(payload))
    rebuilt = cached_table("1", "pi/4", 4, CFG, tmp_path)
    for word in table40_pi4_L4.words():
        assert rebuilt.value(word) == table40_pi4_L4.value(word)
    assert json.loads(path.read_text())["version"] == _CACHE_VERSION
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


def test_truncated_or_incomplete_cache_is_a_miss(tmp_path, table40_pi4_L4):
    path = save_table(table40_pi4_L4, tmp_path)
    text = path.read_text()
    path.write_text(text[:len(text) // 2])
    assert load_table("1", "pi/4", 4, CFG, tmp_path) is None
    # a word missing under a digest that matches what is left
    payload = json.loads(text)
    del payload["values"]["3,1"]
    payload["sha256"] = _values_digest(payload["values"])
    path.write_text(json.dumps(payload))
    assert load_table("1", "pi/4", 4, CFG, tmp_path) is None
    rebuilt = cached_table("1", "pi/4", 4, CFG, tmp_path)
    assert rebuilt.value((3, 1)) == table40_pi4_L4.value((3, 1))
    assert json.loads(path.read_text()) == json.loads(text)


def test_cache_header_must_match_request(tmp_path, table40_pi4_L4):
    path = save_table(table40_pi4_L4, tmp_path)
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
    path = save_table(build_table("1", "1*pi/4", 2, cfg), tmp_path)
    assert path == _cache_path(tmp_path, "1", "pi/4", 2, cfg)
    assert json.loads(path.read_text())["phi"] == "pi/4"
    for label in ("pi/4", " pi/4 ", "1*pi/4"):
        assert load_table("1", label, 2, cfg, tmp_path) is not None, label
    assert len(list_cache(tmp_path)) == 1
