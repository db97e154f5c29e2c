import functools
import itertools
import math

import mpmath
import pytest

from lawsonarea.engine import (M_MATS, DerivativeState, EngineError, _support,
                               advance, area_series, central_state, extract_a_r, extract_c,
                               first_order_general_phi, frame_derivative,
                               frame_lower, p_derivative, q_first_order_check, run)
from lawsonarea.laurent import LaurentPoly, to_mpf
from lawsonarea.omega import build_signed_table
from lawsonarea.precision import PrecisionConfig, guard_digits_for_order

CFG = PrecisionConfig(40)
CTX = CFG.context
ALPHA9 = "-459.5656763714886336332528952560965619955262720306898451994"


def test_central_values_determinant():
    state = central_state(CFG, "pi/4")
    combo = (state.x(1, 0) * state.x(1, 0) - state.x(2, 0) * state.x(2, 0)
             - state.x(3, 0) * state.x(3, 0))
    expected = LaurentPoly(CFG, {0: -1})
    assert (combo - expected).max_abs() < CFG.eps(4)


def test_first_order_matches_closed_forms(state40_o6):
    first = first_order_general_phi("pi/4", CFG)
    assert (state40_o6.b[1] - first.b_poly(CFG)).max_abs() < CFG.eps(6)
    assert (state40_o6.c[1] - first.c_poly(CFG)).max_abs() < CFG.eps(6)
    assert state40_o6.a[1].max_abs() < CFG.eps(6)           # sin(2 phi) log tan phi = 0
    assert state40_o6.r[1] == 0


def test_first_order_values_at_pi4():
    first = first_order_general_phi("pi/4", CFG)
    log2 = CTX.ln(2)
    s = 1 / CTX.sqrt(2)
    assert abs(first.b2 - log2 * s) < CFG.eps(4)
    assert abs(first.c2 + log2 * s) < CFG.eps(4)
    assert abs(first.b0 - log2 * s) < CFG.eps(4)
    assert abs(first.c0 + log2 * s) < CFG.eps(4)
    assert first.theta1 == 0
    assert first.mean_curvature_slope == 0
    assert abs(first.willmore_slope + 8 * CTX.pi * log2) < CFG.eps(4)
    assert abs(first.area_slope + 8 * CTX.pi * log2) < CFG.eps(4)


def test_first_order_data_has_the_fields_the_cli_prints():
    """``cli._cmd_expand`` reads these by name, in this order."""
    first = first_order_general_phi(" pi/6 ", CFG)
    names = ("a0", "a2", "b0", "b2", "c0", "c2", "r1", "theta1",
             "mean_curvature_slope", "willmore_slope", "area_slope")
    assert first.FIELDS == names
    assert all(isinstance(getattr(first, name), CTX.mpf) for name in names)
    assert first.phi_label == "pi/6"
    assert first.b_poly(CFG).coefficient(2) == first.b2


def test_first_order_general_phi_signs():
    first = first_order_general_phi("pi/6", CFG)
    expected = -2 * CTX.sin(CTX.pi / 3) * CTX.ln(CTX.tan(CTX.pi / 6))
    assert abs(first.mean_curvature_slope - expected) < CFG.eps(4)
    assert first.mean_curvature_slope > 0      # positive below the minimal angle
    # reflection symmetry of the Willmore slope
    other = first_order_general_phi("pi/3", CFG)
    assert abs(first.willmore_slope - other.willmore_slope) < CFG.eps(4)


def test_parity_and_symmetry_invariants(state40_o6):
    # structural zeros stay exact, with no rounding dust left in them
    assert state40_o6.a[1].is_zero and state40_o6.a[2].is_zero
    for n in range(1, state40_o6.order + 1):
        for poly in (state40_o6.a[n], state40_o6.b[n], state40_o6.c[n]):
            if poly.is_zero:
                continue
            assert poly.min_degree() >= 0
            assert poly.max_degree() <= n + 1
            for deg in poly.re:
                assert (deg + n) % 2 == 1, (n, deg)
        # b = (-1)^n c and odd-order r vanish
        assert (state40_o6.b[n] - state40_o6.c[n].scale((-1) ** n)).max_abs() == 0
        if n % 2 == 1:
            assert state40_o6.r[n] == 0


def test_frame_degree_bounds(state40_o6):
    for m, frame in enumerate(state40_o6.frames):
        assert frame.max_abs_degree() <= max(m, 0)


def test_residual_diagnostics_small(state40_o6):
    for diag in state40_o6.diagnostics:
        for key in ("star_residual", "sym_residual", "normalization_residual",
                    "div_residual"):
            assert diag[key] < CFG.eps(8) * 100, (diag["order"], key)


def test_area_series_low_orders(state40_o6):
    res = area_series(state40_o6)
    assert abs(res.alpha(1) - CTX.ln(2)) < CFG.eps(6)
    assert abs(res.alpha(2)) < CFG.eps(6)
    assert abs(res.alpha(3) - CTX.mpf(9) / 4 * CTX.zeta(3)) < CFG.eps(6)
    assert abs(res.alpha(4)) < CFG.eps(6)
    assert abs(res.alpha(6)) < CFG.eps(6)
    assert res.even_alpha_residual < CFG.eps(6)
    # Willmore = area at the minimal angle, H-series identically zero
    assert res.willmore == res.alphas
    assert all(h == 0 for h in res.mean_curvature)


def test_per_genus_rescaling(state40_o6):
    res = area_series(state40_o6)
    per_g = res.per_genus_coefficients()
    assert abs(per_g[0] - res.alpha(1) / 2) == 0
    assert abs(per_g[2] - res.alpha(3) / 8) == 0


def test_result_json_schema(state40_o6):
    payload = area_series(state40_o6).to_jsonable()
    assert payload["version"] == 1
    assert payload["order"] == 6
    assert len(payload["alpha_t"]) == 6
    assert payload["area_prefactor"] == "8*pi"
    assert len(payload["order_diagnostics"]) == 6
    float(payload["alpha_t"][0])     # decimal strings parse


def test_truncated_series_extraction(state40_o6):
    res = area_series(state40_o6, order=3)
    assert len(res.alphas) == 3
    with pytest.raises(ValueError):
        area_series(state40_o6, order=7)


def test_general_phi_rejected_beyond_first_order():
    with pytest.raises(ValueError):
        run(2, CFG, phi="0.5")


def test_frame_requires_complete_state(state40_o6, signed40_pi4_L7):
    with pytest.raises(ValueError):
        frame_derivative(7, state40_o6, signed40_pi4_L7)


def test_table_depth_guard(cfg40, tables):
    shallow = tables.signed("1", "pi/4", 1, cfg40)
    with pytest.raises(ValueError):
        run(2, cfg40, table=shallow)


def test_engine_rejects_word_tables(state40_o6, table40_pi4_L4, table40_pi4_L7):
    """The engine reads signed sums per letter multiset, never a word table."""
    with pytest.raises(TypeError, match="signed"):
        run(3, CFG, table=table40_pi4_L4)
    with pytest.raises(TypeError, match="signed"):
        frame_lower(3, state40_o6, table40_pi4_L7)


def test_q_first_order_check():
    assert q_first_order_check("pi/4", CFG) < CFG.eps(6)
    assert q_first_order_check("0.4", CFG) < CFG.eps(6)


def test_engine_precision_doubling(signed40_pi4_L4, tables):
    hi_cfg = PrecisionConfig(50)
    lo = area_series(run(3, CFG, table=signed40_pi4_L4))
    hi = area_series(run(3, hi_cfg, table=tables.signed("1", "pi/4", 4, hi_cfg)))
    for k in (1, 3):
        assert abs(lo.alpha(k) - hi.alpha(k)) < CTX.mpf(10) ** (-(40 - 2))


def test_engine_precision_doubling_order5(tables):
    hi_cfg = PrecisionConfig(60)
    lo = area_series(run(5, CFG, table=tables.signed("1", "pi/4", 6, CFG)))
    hi = area_series(run(5, hi_cfg, table=tables.signed("1", "pi/4", 6, hi_cfg)))
    for k in (3, 5):
        assert abs(lo.alpha(k) - hi.alpha(k)) < CTX.mpf("1e-38")


def test_run_rejects_bad_order():
    with pytest.raises(ValueError):
        run(0, CFG)


def test_engine_error_is_raised_on_corrupt_table(signed40_pi4_L4):
    import copy
    broken = copy.copy(signed40_pi4_L4)
    broken.values = dict(signed40_pi4_L4.values)
    phase, x = broken.values[(3,)]
    # poison sigma_(0,0,1) = Omega(3): its imaginary value i x made real
    broken.values[(3,)] = 1 - phase, x
    with pytest.raises(EngineError):
        run(2, CFG, table=broken)


# a scale of 1 and of 1e-10, squared at 2^2P, as ``_support`` takes it
ONE_SQ = 1 << 2 * CFG.fixed_bits
TINY_SQ = LaurentPoly(CFG, {0: CTX.mpf("1e-10")}).re[0] ** 2


def test_support_drops_dust():
    poly = LaurentPoly(CFG, {1: 1, 3: CTX.mpf("1e-50")})
    kept, diag = _support(poly, 2, ONE_SQ, "x", CFG)
    assert set(kept.re) == {1}
    assert diag["parity_residual"] == 0


def test_support_drops_and_reports_parity_dust():
    # scale 1e-10 keeps 1e-46 above the noise cut, below the parity tolerance
    poly = LaurentPoly(CFG, {1: 1, 2: CTX.mpf("1e-46")})
    kept, diag = _support(poly, 2, TINY_SQ, "x", CFG)
    assert set(kept.re) == {1}
    assert diag["parity_residual"] == poly.coefficient(2)
    assert abs(diag["parity_residual"] - CTX.mpf("1e-46")) < to_mpf(1, CFG)   # 2^-P


def test_support_rejects_parity_forbidden_coefficient():
    poly = LaurentPoly(CFG, {1: 1, 2: CTX.mpf("1e-30")})
    with pytest.raises(EngineError, match="parity-forbidden"):
        _support(poly, 2, ONE_SQ, "x", CFG)


@pytest.mark.parametrize("degree", [-1, 5])
def test_support_rejects_degree_outside_window(degree):
    poly = LaurentPoly(CFG, {1: 1, degree: 1})
    with pytest.raises(EngineError, match="degree bound"):
        _support(poly, 2, ONE_SQ, "x", CFG)


def test_negative_degrees_of_lambda_k_lower(signed40_pi4_L7):
    """lambda * K_lower's negative degrees are projected away as dust up to
    eps(2) of its peak (350 at order 4), and raise above that."""
    state = run(3, CFG, table=signed40_pi4_L7)
    c_n, _ = extract_c(4, p_derivative(4, state, frame_lower(4, state, signed40_pi4_L7)), CFG)
    a_n, r_n, _ = extract_a_r(4, state, c_n, c_n)

    def with_extra(size):      # b^(4) plus size * lambda^-1 puts size/sqrt(2) on lambda^-1
        return extract_a_r(4, state, c_n, c_n + LaurentPoly(CFG, {-1: CTX.mpf(size)}))

    a_dust, r_dust, _ = with_extra("1e-50")
    assert (a_dust - a_n).is_zero and to_mpf(abs(r_dust - r_n), CFG) < CFG.eps(8)
    with pytest.raises(EngineError, match="negative degrees"):
        with_extra("1e-40")


def test_negative_degrees_tolerance_floor_at_odd_order(signed40_pi4_L7):
    """At order 3 lambda * K_lower's peak is rounding dust, so its negative
    degrees are measured against max(peak, 1): dust up to eps(2) is projected
    away, and anything above it raises."""
    state = run(2, CFG, table=signed40_pi4_L7)
    c_n, _ = extract_c(3, p_derivative(3, state, frame_lower(3, state, signed40_pi4_L7)), CFG)
    b_n = -c_n
    a_n, r_n, _ = extract_a_r(3, state, c_n, b_n)

    def with_extra(size):      # size on lambda^-1 of b^(3)
        return extract_a_r(3, state, c_n, b_n + LaurentPoly(CFG, {-1: CTX.mpf(size)}))

    a_dust, r_dust, _ = with_extra("1e-60")
    assert (a_dust - a_n).is_zero and r_dust == r_n == 0
    with pytest.raises(EngineError, match="negative degrees"):
        with_extra("1e-40")


def test_m_mats_anticommute_to_sorted_order():
    """M_w = (-1)^inv(w) times the product of w's letters in non-decreasing
    order, for every word of length <= 5: the identity ``frame_lower``'s
    signed sums rest on."""
    def product(word):
        out = ((1, 0), (0, 1))
        for letter in word:
            m = M_MATS[letter - 1]
            out = tuple(tuple(sum(out[i][k] * m[k][j] for k in range(2))
                              for j in range(2)) for i in range(2))
        return out

    for length in range(1, 6):
        for word in itertools.product((1, 2, 3), repeat=length):
            inv = sum(a > b for a, b in itertools.combinations(word, 2))
            sign = (-1) ** inv
            assert product(word) == tuple(tuple(sign * v for v in row)
                                          for row in product(sorted(word))), word


def test_solved_y_is_built_once(monkeypatch, tables):
    """An order-7 run builds each y_i^(k), k = 0..6, once: 21 full Leibniz sums."""
    full = []
    y = DerivativeState.y
    monkeypatch.setattr(DerivativeState, "y", lambda self, i, k, ells=None: (
        ells is None and full.append((i, k))) or y(self, i, k, ells))
    run(7, CFG, table=tables.signed("1", "pi/4", 8, CFG))
    assert sorted(full) == [(i, k) for i in (1, 2, 3) for k in range(7)]


def test_carried_products_match_fresh(signed40_pi4_L7):
    """The product derivatives carried on the state from lower orders give
    the same frame sums, digit for digit, as ones built afresh."""
    state = run(5, CFG, table=signed40_pi4_L7)
    for n in range(1, 7):
        carried = frame_lower(n, state, signed40_pi4_L7)
        state._products.clear()
        fresh = frame_lower(n, state, signed40_pi4_L7)
        for i in range(2):
            for j in range(2):
                assert carried[i, j].re == fresh[i, j].re, (n, i, j)


def test_matrix_products_are_built_once_per_multiset(monkeypatch, tables):
    """Each letter multiset's constant matrix is multiplied out once per state,
    when the multiset is first reached, not at every order: ``run(9)`` reaches
    the C(13, 3) - 4 multisets of size 2..10 and makes one ``_mat_mul`` each.
    The matrix kept is the real T_c = i^p M^(c), p = (c1 + c3) mod 2."""
    import lawsonarea.engine as engine
    cfg = PrecisionConfig(40, guard_digits_for_order(9))
    table = tables.signed("1", "pi/4", 10, cfg)
    calls = []
    mat_mul = engine._mat_mul
    monkeypatch.setattr(engine, "_mat_mul", lambda *args: calls.append(args) or mat_mul(*args))
    state = run(9, cfg, table=table)
    multisets = [key for key in state._products if len(key) >= 2]
    assert len(calls) == len(multisets) == math.comb(13, 3) - 4
    for key in multisets:
        phase = 1j ** (sum(i != 2 for i in key) % 2)
        m_c = functools.reduce(mat_mul, (M_MATS[i - 1] for i in key))
        assert state._products[key][0] == tuple(tuple(phase * v for v in row)
                                                for row in m_c), key
        assert all(type(v) is int for row in state._products[key][0] for v in row), key


def test_expansion_values_match_reference(state40_o6):
    """Spot-render the decimal output of the first two odd coefficients."""
    res = area_series(state40_o6)
    assert mpmath.nstr(res.alpha(1), 10) == "0.6931471806"
    assert mpmath.nstr(res.alpha(3), 10) == "2.704628032"


def _word_sum_frame_lower(n, state, table):
    """Oracle for ``frame_lower``: the word sum it groups by letter multiset.

    Every word of length 2..n+1 builds the t-derivatives of its own product
    y_{w_1} ... y_{w_l} along the word tree and adds them, times its matrix
    and integral, straight into complex matrix entries {degree: mpc}.
    """
    entries = [[{}, {}], [{}, {}]]

    def axpy(acc, s, p):
        for d, v in p.items():
            acc[d] = acc.get(d, 0) + s * v

    def add(mmat, poly, weight):
        for i in range(2):
            for j in range(2):
                if mmat[i][j]:
                    axpy(entries[i][j], weight * mmat[i][j], poly)

    def y(i, k, ells):          # the terms ells of the k-th derivative of r x_i
        total = {}
        for ell in ells:
            axpy(total, math.comb(k, ell) * to_mpf(state.r[k - ell], CFG),
                 {d: to_mpf(v, CFG) for d, v in state.x(i, ell).re.items()})
        return total

    for i in (1, 2, 3):
        add(M_MATS[i - 1], y(i, n, range(1, n)), (n + 1) * table.value((i,)))
    ys = {(i, k): y(i, k, range(k + 1)) for i in (1, 2, 3) for k in range(n)}

    def descend(word, mmat, derivs):
        if len(word) >= 2:
            add(mmat, derivs[n + 1 - len(word)],
                math.perm(n + 1, len(word)) * table.value(word))
        if len(word) > n:
            return
        for letter in (1, 2, 3):
            child = []
            for s in range(n + 1 - max(len(word), 1)):
                total = {}
                for j in range(s + 1):
                    for d1, v1 in derivs[j].items():
                        axpy(total, math.comb(s, j) * v1,
                             {d1 + d2: v2 for d2, v2 in ys[(letter, s - j)].items()})
                child.append(total)
            m = M_MATS[letter - 1]
            descend(word + (letter,), tuple(
                tuple(sum(mmat[i][k] * m[k][j] for k in range(2)) for j in range(2))
                for i in range(2)), child)

    descend((), ((1, 0), (0, 1)), [{0: CTX.mpf(1)}] + [{}] * n)
    return entries


def test_frame_lower_matches_word_sum(state40_o6, signed40_pi4_L7, table40_pi4_L7):
    for n in range(1, 7):
        got = frame_lower(n, state40_o6, signed40_pi4_L7)
        want = _word_sum_frame_lower(n, state40_o6, table40_pi4_L7)
        for i in range(2):
            for j in range(2):
                entry = want[i][j]
                tol = CFG.eps(2) * max([CTX.mpf(1)] + [abs(v) for v in entry.values()])
                for d in got[i, j].degrees() | entry.keys():
                    err = abs(got[i, j].coefficient(d) - entry.get(d, 0))
                    assert err <= tol, (n, i, j, d, mpmath.nstr(err, 3))


@pytest.mark.parametrize("digits", [35, 40, 45])
def test_alpha9_matches_reference(digits):
    cfg = PrecisionConfig(digits, guard_digits_for_order(9))
    ctx = cfg.context
    res = area_series(run(9, cfg, table=build_signed_table("1", "pi/4", 10, cfg)))
    assert res.alpha(8) == 0
    assert abs(res.alpha(9) - ctx.mpf(ALPHA9)) < ctx.mpf(10) ** (-(digits - 2))


def test_alpha11_and_alpha13_match_reference():
    """``expand --order 17 --precision 40`` prints alpha_11, alpha_13,
    alpha_15 and alpha_17 as found by runs at more guard digits (34, 50 and
    60 for the first two), in all 40 digits."""
    cfg = PrecisionConfig(40, guard_digits_for_order(17))
    res = area_series(run(17, cfg, table=build_signed_table("1", "pi/4", 18, cfg)))
    texts = res.alpha_texts()
    assert texts[9] == texts[11] == texts[13] == texts[15] == "0.0"
    assert texts[10] == "-260.9317297748582460588527568354450168419"
    assert texts[12] == "26311.75666632241667824049728000376568319"
    assert texts[14] == "219897.7526067197482348266274038050133502"
    assert texts[16] == "-204390.9874969168798762233265690206768251"


@pytest.mark.parametrize("endpoint, phi, digits, match", [
    ("1", "0.7", 40, "recursion reads z = 1 at phi = pi/4"),
    ("1", "pi/3", 40, "recursion reads z = 1 at phi = pi/4"),
    ("i", "pi/4", 40, "recursion reads z = 1 at phi = pi/4"),
    ("1", "pi/4", 45, "table holds 55 working digits; the recursion runs at 50"),
], ids=["1-0.7", "1-pi/3", "i-pi/4", "1-pi/4-45digits"])
def test_engine_rejects_a_table_of_another_angle_or_endpoint(tables, endpoint, phi, digits,
                                                              match):
    """The recursion at pi/4 reads sigma along [0, 1] at pi/4, as integers
    at its own scale, only: a table of another angle or to z = i raises,
    where it used to print a wrong alpha_3 (3.99370... at 0.7, 0.77777... at
    pi/3, against 2.70462...), and so does a table at 45 target digits,
    whose integers lie at another scale."""
    with pytest.raises(ValueError, match=match):
        run(5, CFG, table=tables.signed(endpoint, phi, 6, PrecisionConfig(digits)))


def test_engine_compares_angles_by_value(signed40_pi4_L4):
    """Spellings of pi/4 other than the table's name the same angle."""
    assert signed40_pi4_L4.phi_label == "pi/4"
    assert run(3, CFG, phi=" 2*pi / 8", table=signed40_pi4_L4).order == 3


def test_frame_lower_skips_zero_parts(monkeypatch, signed40_pi4_L7):
    """Each sigma_c is exactly real or exactly imaginary, and ``frame_lower``
    multiplies no derivative map by its zero part."""
    import lawsonarea.engine as engine
    scalars = []
    axpy = engine.axpy
    monkeypatch.setattr(engine, "axpy",
                        lambda acc, s, p: scalars.append(s) or axpy(acc, s, p))
    run(5, CFG, table=signed40_pi4_L7)
    assert scalars and all(scalars), scalars.count(0)


def test_order_recursion_runs_on_integers(monkeypatch, signed40_pi4_L7):
    """Every polynomial of a run(5) state, and every r^(k), stores integers,
    and an order of the recursion makes no ``mpc`` multiplication."""
    from mpmath.ctx_mp_python import _mpc
    state = run(4, CFG, table=signed40_pi4_L7)
    products = []
    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(_mpc, name, lambda s, t, mul=getattr(_mpc, name):
                            products.append(t) or mul(s, t))
    advance(state, signed40_pi4_L7)
    assert products == []
    assert CTX.mpc(0, 1) * 2 == 2 * CTX.mpc(0, 1) and len(products) == 2   # counted
    monkeypatch.undo()
    polys = state.a + state.b + state.c + [
        frame[i, j] for frame in state.frames for i in range(2) for j in range(2)]
    assert state.order == 5 and len(polys) == 3 * 6 + 4 * 7
    assert all(type(v) is int for p in polys for v in p.re.values())
    assert all(type(v) is int for v in state.r)
