import json
import random

import pytest

from lawsonarea.mpl import convert_word
from lawsonarea.omega import (_CACHE_VERSION, OmegaTable, _segment_table, build_table,
                              cached_table, chen_compose, clear_cache, list_cache,
                              load_table, parse_phi, quadrature_oracle, save_table)
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
